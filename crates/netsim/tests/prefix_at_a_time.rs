//! Prefix-at-a-time convergence against the interleaved FIFO oracle.
//!
//! `Sim::converge_all` converges each origin to quiescence before it
//! originates the next. The oracle, kept here in test code, is the engine
//! driven through its public API the interleaved way: originate every
//! prefix, then drain one FIFO (`Bgp::originate_all` + `Bgp::run`). Both
//! must reach the same Loc-RIBs with the same message count. A link
//! failure, applied to both with an observer attached after convergence,
//! must then cost the same messages, leave the same Loc-RIBs and feed the
//! observer the same eBGP stream; that reads the Adj-RIB-In and
//! Adj-RIB-Out state the Loc-RIBs alone do not show. The proptests fail
//! one random link on random internets; the sweeps fail every link of two
//! fixed ones.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::sync::Arc;

use proptest::prelude::*;

use netdiag_bgp::{Bgp, Ctx};
use netdiag_igp::{Igp, LinkState};
use netdiag_netsim::Sim;
use netdiag_topology::builders::{build_internet, InternetConfig};
use netdiag_topology::gen::{generate, GenConfig};
use netdiag_topology::{AsId, LinkId, LinkKind, Topology};

/// The oracle: a bare engine converged through one interleaved FIFO.
#[derive(Clone)]
struct Oracle {
    links: LinkState,
    igp: Igp,
    bgp: Bgp,
    messages: u64,
}

impl Oracle {
    fn converge(t: &Topology) -> Oracle {
        let links = LinkState::all_up(t);
        let igp = Igp::compute(t, &links);
        let mut bgp = Bgp::new(t);
        let ctx = Ctx {
            topology: t,
            igp: &igp,
            links: &links,
        };
        bgp.originate_all(ctx);
        let messages = bgp.run(ctx).messages;
        Oracle {
            links,
            igp,
            bgp,
            messages,
        }
    }

    /// Fails `link` and reconverges with a full refresh of its AS.
    fn fail_link(&mut self, t: &Topology, link: LinkId) {
        self.links.set_down(link);
        let l = t.link(link);
        if l.kind == LinkKind::Intra {
            self.igp.recompute_as(t, t.as_of_router(l.a), &self.links);
        }
        let ctx = Ctx {
            topology: t,
            igp: &self.igp,
            links: &self.links,
        };
        self.bgp.handle_link_down(ctx, link);
        self.messages += self.bgp.run(ctx).messages;
    }
}

/// Asserts that every router's Loc-RIB matches field for field.
fn same_ribs(t: &Topology, sim: &Sim, oracle: &Oracle, when: &str) -> Result<(), TestCaseError> {
    for r in t.routers() {
        let got: Vec<_> = sim.bgp().loc_rib(r.id).collect();
        let want: Vec<_> = oracle.bgp.loc_rib(r.id).collect();
        prop_assert_eq!(got, want, "{}: Loc-RIB of router {:?}", when, r.id);
    }
    Ok(())
}

/// Converges `t` both ways, then fails link `pick` (mod the link count)
/// under an observer in AS `observer` (mod the AS count) and compares.
fn check(t: &Arc<Topology>, pick: usize, observer: usize) -> Result<(), TestCaseError> {
    let mut sim = Sim::new(Arc::clone(t));
    sim.converge_all();
    let mut oracle = Oracle::converge(t);
    prop_assert_eq!(sim.bgp_messages(), oracle.messages, "convergence messages");
    same_ribs(t, &sim, &oracle, "converged")?;

    let observer = AsId((observer % t.as_count()) as u32);
    sim.set_observer(observer);
    oracle.bgp.set_observer(observer);
    let link = LinkId((pick % t.link_count()) as u32);
    sim.fail_link(link);
    oracle.fail_link(t, link);
    prop_assert_eq!(
        sim.bgp_messages(),
        oracle.messages,
        "messages after failing {:?}",
        link
    );
    same_ribs(t, &sim, &oracle, "after the failure")?;
    prop_assert_eq!(
        sim.take_observed(),
        oracle.bgp.take_observed(),
        "observed stream after failing {:?}",
        link
    );
    Ok(())
}

/// Fails every link in turn, each on fresh copies of both converged
/// worlds, under an observer at one of the link's ASes. A route missing
/// from (or extra in) some Adj-RIB-In shows once a failure makes its
/// router fall back on it, so the reconvergence message counts and the
/// observed streams must match for every link.
fn sweep(t: &Arc<Topology>) {
    let mut sim = Sim::new(Arc::clone(t));
    sim.converge_all();
    let oracle = Oracle::converge(t);
    assert_eq!(sim.bgp_messages(), oracle.messages, "convergence messages");
    for l in t.links() {
        let observer = t.as_of_router(l.a);
        let mut s = sim.clone();
        let mut o = oracle.clone();
        s.set_observer(observer);
        o.bgp.set_observer(observer);
        s.fail_link(l.id);
        o.fail_link(t, l.id);
        assert_eq!(
            s.bgp_messages(),
            o.messages,
            "messages after failing {:?}",
            l.id
        );
        assert_eq!(
            s.take_observed(),
            o.bgp.take_observed(),
            "observed after failing {:?}",
            l.id
        );
    }
}

#[test]
fn every_single_link_failure_matches_on_the_paper_internet() {
    sweep(&Arc::new(
        build_internet(&InternetConfig::default()).topology,
    ));
}

#[test]
fn every_single_link_failure_matches_on_a_generated_internet() {
    sweep(&Arc::new(
        generate(&GenConfig::new(120, 11)).unwrap().topology,
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated internets of 50-300 ASes over random seeds.
    #[test]
    fn prefix_at_a_time_matches_the_interleaved_fifo(
        ases in 50usize..=300,
        seed in 0u64..10_000,
        pick in 0usize..100_000,
        observer in 0usize..100_000,
    ) {
        let t = Arc::new(generate(&GenConfig::new(ases, seed)).unwrap().topology);
        check(&t, pick, observer)?;
    }

    /// The paper's 165-AS evaluation internet, failing any of its links.
    #[test]
    fn prefix_at_a_time_matches_on_the_paper_internet(
        pick in 0usize..100_000,
        observer in 0usize..100_000,
    ) {
        let t = Arc::new(build_internet(&InternetConfig::default()).topology);
        check(&t, pick, observer)?;
    }
}
