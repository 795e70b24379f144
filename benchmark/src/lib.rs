//! The NetDiagnoser benchmark: one command per workload that measures the
//! whole stack end to end, checks every output, and — traced — walks each
//! layer's public calls to attribute the time. See `README.md` for the
//! metric table and how to compare two commits.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod converge;
pub mod loadgen;
pub mod measure;
pub mod serve;
pub(crate) mod trace;
pub mod trials;
pub mod walk;

/// Seed of the paper's 165-AS evaluation internet, the topology every
/// figure runs on. The paper workloads keep it fixed and let `--seed`
/// pick placements, failures and request scenarios: per-trial and
/// per-request cost moves by ~15% from one generated topology to the
/// next, which would swamp the regression bounds.
pub const PAPER_TOPOLOGY_SEED: u64 = 1;

/// The workloads, by the name `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop `nd-bgpigp` requests against the daemon.
    ServePaper,
    /// The paper grid with one-link failures.
    Trials1Link,
    /// The paper grid with three-link failures.
    Trials3Link,
    /// Full-RIB convergence of a generated 1k-AS internet.
    Converge1k,
}

impl Workload {
    /// Every workload, in ledger order.
    pub const ALL: [Workload; 4] = [
        Workload::ServePaper,
        Workload::Trials1Link,
        Workload::Trials3Link,
        Workload::Converge1k,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePaper => "serve-paper",
            Workload::Trials1Link => "trials-1link",
            Workload::Trials3Link => "trials-3link",
            Workload::Converge1k => "converge-1k",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Runs `op(0)`, `op(1)`, ... until `seconds` have passed and at least
/// `min_ops` have run. A run measures for its `--seconds` however fast
/// the machine is that day: operation `i` of a seed always has the same
/// inputs, and only how many of them fit changes.
pub fn repeat_for(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) {
    let started = std::time::Instant::now();
    let mut i = 0;
    while i < min_ops || started.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Picks every generated input.
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    /// Shrinks every input for a smoke test; the numbers mean nothing.
    pub quick: bool,
}
