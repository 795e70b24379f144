//! The daemon's converged baseline: topology, healthy control plane and
//! `T-` probe mesh, prepared once at startup and shared (read-only) by
//! every request.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use netdiag_experiments::bridge::{sensor_metas, to_snapshot, TruthIpToAs};
use netdiag_experiments::runner::{
    draw, prepare_seeded, PlacementContext, RunConfig, TrialScratch,
};
use netdiag_experiments::sampling::FailureSpec;
use netdiag_netsim::{looking_glass_query, Sim};
use netdiag_obs::RecorderHandle;
use netdiag_topology::builders::{build_internet, Internet, InternetConfig};
use netdiag_topology::gen::GenConfig;
use netdiag_topology::AsId;
use netdiagnoser::text::{write_feed, write_snapshot};
use netdiagnoser::{LookingGlass, SensorMeta, Snapshot};

/// Daemon configuration: how the baseline is generated, how much
/// concurrent diagnosis the admission gate lets in and which telemetry is
/// mounted. The daemon's `serve.*` metrics go to its own live plane
/// ([`telemetry`](Self::telemetry)); baseline preparation records
/// nothing.
#[derive(Clone)]
pub struct ServeConfig {
    /// Seed for topology generation and sensor placement.
    pub seed: u64,
    /// Number of sensors in the baseline mesh (paper default: 10).
    pub n_sensors: usize,
    /// When > 0, serve a seeded internet-scale topology of this many
    /// ASes ([`netdiag_topology::gen`]) instead of the paper's 165-AS
    /// evaluation internet.
    pub gen_ases: usize,
    /// Diagnoses that may run at once (each on its connection's
    /// thread); `0` means available parallelism.
    pub workers: usize,
    /// How many diagnose requests may wait for a free slot;
    /// requests beyond it are rejected with an overload error
    /// (backpressure). `0` means the default (64).
    pub queue: usize,
    /// Mount the live telemetry plane (default): a lock-free
    /// [`LiveRecorder`](netdiag_obs::LiveRecorder) behind the `stats`
    /// protocol verb, rolled every second for windowed rates. `false`
    /// records no metrics at all, and `stats` then reports only the
    /// diagnose and flight-dump counts (the off leg of the telemetry
    /// gate, [`bench`](mod@crate::bench)).
    pub telemetry: bool,
    /// Request-latency SLO in microseconds for the flight recorder;
    /// `0` dumps every request (trace-everything mode). Only meaningful
    /// with [`flight_path`](Self::flight_path).
    pub slo_micros: u64,
    /// When set, mount the flight recorder: each of the
    /// [`workers`](Self::workers) slots keeps an always-on bounded trace
    /// ring, and requests breaching
    /// [`slo_micros`](Self::slo_micros) dump their causal trace as one
    /// JSONL line (tail sampling) to this file.
    pub flight_path: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 1,
            n_sensors: 10,
            gen_ases: 0,
            workers: 0,
            queue: 0,
            telemetry: true,
            slo_micros: 0,
            flight_path: None,
        }
    }
}

impl ServeConfig {
    /// How many diagnoses this config lets run at once.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// How many diagnose requests this config lets wait.
    pub fn resolved_queue(&self) -> usize {
        if self.queue > 0 {
            self.queue
        } else {
            64
        }
    }
}

/// The converged state every request diagnoses against.
///
/// Owns the healthy simulator (copy-on-write clones are a few µs) and
/// the serialized defaults a request may omit: the sensor directory, the
/// `T-` snapshot, and the oracles (IP-to-AS from the topology, Looking
/// Glass answered live by the simulator).
pub struct Baseline {
    ctx: PlacementContext,
    sensors: Vec<SensorMeta>,
    before: Snapshot,
}

impl Baseline {
    /// Generates the topology, converges it and measures the `T-` mesh.
    /// This is the daemon's startup cost; requests only read the result.
    pub fn prepare(config: &ServeConfig) -> Baseline {
        let net = if config.gen_ases > 0 {
            let generated =
                netdiag_topology::gen::generate(&GenConfig::new(config.gen_ases, config.seed))
                    .expect("generated topology must build");
            Internet::from_topology(generated.topology)
        } else {
            build_internet(&InternetConfig {
                seed: config.seed,
                ..Default::default()
            })
        };
        let run = RunConfig {
            n_sensors: config.n_sensors.min(net.stubs.len()),
            ..Default::default()
        };
        let ctx = prepare_seeded(&net, &run, config.seed, RecorderHandle::noop());
        let sensors = sensor_metas(&ctx.sensors);
        let before = to_snapshot(&ctx.mesh_before);
        Baseline {
            ctx,
            sensors,
            before,
        }
    }

    /// The troubleshooting AS (AS-X).
    pub fn observer(&self) -> AsId {
        self.ctx.observer
    }

    /// The default sensor directory (requests without `sensors`).
    pub fn sensors(&self) -> &[SensorMeta] {
        &self.sensors
    }

    /// The default `T-` snapshot (requests without `before`).
    pub fn before(&self) -> &Snapshot {
        &self.before
    }

    /// A Looking Glass answered live by a copy-on-write clone of the
    /// converged simulator — the default when a request uploads no
    /// recorded `lg` dump. Owned, so it outlives the request that made
    /// it (the facade requires `Send + Sync + 'static` inputs).
    pub fn looking_glass(&self) -> BaselineLookingGlass {
        BaselineLookingGlass {
            sim: self.ctx.sim.clone(),
            available: self.ctx.lg_available.clone(),
        }
    }

    /// The ground-truth IP-to-AS oracle — the default when a request
    /// uploads no `ip2as` map.
    pub fn ip_to_as(&self) -> TruthIpToAs<'_> {
        TruthIpToAs {
            topology: self.ctx.sim.topology(),
        }
    }

    /// Draws one unreachability-causing link failure against this
    /// baseline ([`draw`]) and renders the request inputs a client would
    /// upload: the post-failure snapshot and AS-X's routing-feed delta.
    /// Used by the telemetry gate, the benchmark and tests; `None` if no
    /// draw breaks any path (practically impossible on the generated
    /// topology).
    pub fn sample_scenario(&self, seed: u64) -> Option<Scenario> {
        // The scratch (a clone of the healthy network and its snapshot) is
        // dropped after the texts are rendered. Freed before, its memory
        // is what the rendered strings fill, and the daemon set-up's peak
        // RSS then flips between two levels from run to run.
        let mut scratch = TrialScratch::new(&self.ctx);
        let drawn = draw(&self.ctx, &mut scratch, FailureSpec::Links(1), seed).ok()?;
        Some(Scenario {
            after: write_snapshot(&to_snapshot(&drawn.mesh_after)),
            feed: write_feed(&drawn.feed),
        })
    }
}

/// Request inputs sampled from the baseline (see
/// [`Baseline::sample_scenario`]).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The post-failure (`T+`) snapshot, serialized.
    pub after: String,
    /// AS-X's routing-feed delta, serialized.
    pub feed: String,
}

/// Looking Glass over an owned simulator clone (see
/// [`Baseline::looking_glass`]).
pub struct BaselineLookingGlass {
    sim: Sim,
    available: BTreeSet<AsId>,
}

impl LookingGlass for BaselineLookingGlass {
    fn as_path(&self, from_as: AsId, dst: Ipv4Addr) -> Option<Vec<AsId>> {
        if !self.available.contains(&from_as) {
            return None;
        }
        looking_glass_query(&self.sim, from_as, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdiagnoser::IpToAs;

    fn small_config() -> ServeConfig {
        ServeConfig {
            seed: 7,
            n_sensors: 6,
            ..Default::default()
        }
    }

    #[test]
    fn baseline_prepares_and_samples_a_breaking_scenario() {
        let baseline = Baseline::prepare(&small_config());
        assert_eq!(baseline.sensors().len(), 6);
        assert!(!baseline.before().paths.is_empty());
        let scenario = baseline.sample_scenario(3).expect("scenario sampled");
        assert!(scenario.after.contains("failed"));
    }

    #[test]
    fn default_oracles_answer() {
        let baseline = Baseline::prepare(&small_config());
        let ip2as = baseline.ip_to_as();
        let sensor = &baseline.sensors()[0];
        assert_eq!(ip2as.as_of(sensor.addr), Some(sensor.as_id));
        let lg = baseline.looking_glass();
        // AS-X always has Looking Glass data for reachable sensors.
        assert!(lg.as_path(baseline.observer(), sensor.addr).is_some());
    }
}
