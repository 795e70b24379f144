//! Copy-on-write equivalence: a cloned `Sim` that shares per-AS IGP and
//! per-prefix BGP state behind `Arc`s — and a scratch `Sim` rolled back via
//! `snapshot`/`restore` between failure rounds — must be observationally
//! identical to a freshly built simulator that shares nothing with it.
//! "Observationally" means the probe mesh, the IGP link-down events, and
//! the observed BGP messages (including withdrawals) match bit for bit.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use netdiag_bgp::ObservedKind;
use netdiag_experiments::bridge::{observations, TruthIpToAs};
use netdiag_experiments::truth::TruthMap;
use netdiag_netsim::{probe_mesh, SensorSet, Sim};
use netdiag_topology::builders::{build_internet, InternetConfig};
use netdiag_topology::LinkId;
use netdiagnoser::{nd_edge, Weights};

fn world(seed: u64) -> (Sim, SensorSet) {
    let net = build_internet(&InternetConfig::small(seed));
    let topology = Arc::new(net.topology.clone());
    let spec: Vec<_> = net.stubs[..4]
        .iter()
        .map(|s| (s.as_id, s.routers[0]))
        .collect();
    let sensors = SensorSet::place(&topology, &spec);
    let mut sim = Sim::new(topology);
    sensors.register(&mut sim);
    sim.converge_for(&sensors.as_ids());
    // Drain convergence chatter so both copies start from the same drained
    // baseline, as the experiment runner does.
    sim.take_observed();
    sim.take_igp_events();
    (sim, sensors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One CoW scratch sim reused across failure rounds (restore between
    /// rounds) reports exactly what a freshly built world would.
    #[test]
    fn cow_restore_matches_fresh_world(
        seed in 0u64..200,
        picks in proptest::collection::vec((0usize..1000, 1usize..=2), 1..4),
    ) {
        let (sim, sensors) = world(seed);
        let links: Vec<LinkId> = sim.topology().links().iter().map(|l| l.id).collect();
        let none = BTreeSet::new();

        let mut cow = sim.clone();
        let baseline = cow.snapshot();
        let mut first = true;
        for &(pick, width) in &picks {
            let chosen: Vec<LinkId> = (0..width)
                .map(|i| links[(pick + i * 7) % links.len()])
                .collect();

            let (mut fresh, _) = world(seed);
            fresh.fail_links(&chosen);

            if !first {
                cow.restore(&baseline);
            }
            first = false;
            cow.fail_links(&chosen);

            let mesh_fresh = probe_mesh(&fresh, &sensors, &none);
            let mesh_cow = probe_mesh(&cow, &sensors, &none);
            prop_assert_eq!(&mesh_fresh, &mesh_cow, "probe meshes diverged");

            let ev_fresh = fresh.take_igp_events();
            let ev_cow = cow.take_igp_events();
            prop_assert_eq!(ev_fresh, ev_cow, "IGP events diverged");

            let obs_fresh = fresh.take_observed();
            let obs_cow = cow.take_observed();
            let wd = |k: ObservedKind| k == ObservedKind::Withdraw;
            prop_assert_eq!(
                obs_fresh.iter().filter(|m| wd(m.kind)).count(),
                obs_cow.iter().filter(|m| wd(m.kind)).count(),
                "withdrawal counts diverged"
            );
            prop_assert_eq!(obs_fresh, obs_cow, "observed BGP messages diverged");
        }
    }

    /// The incremental failure path ([`Sim::fail_links`]: delta-SPF +
    /// scoped BGP replay) is byte-identical to the pre-incremental oracle
    /// ([`Sim::fail_links_full`]: full per-AS SPF recompute + whole-AS
    /// refresh) in every observable — probe mesh, IGP events, observed
    /// eBGP stream — and in the diagnosis those observables feed.
    #[test]
    fn incremental_fail_links_matches_full_oracle(
        seed in 0u64..200,
        picks in proptest::collection::vec((0usize..1000, 1usize..=2), 1..4),
    ) {
        let (sim, sensors) = world(seed);
        let topology = sim.topology_arc();
        let links: Vec<LinkId> = sim.topology().links().iter().map(|l| l.id).collect();
        let none = BTreeSet::new();
        let before = probe_mesh(&sim, &sensors, &none);

        for &(pick, width) in &picks {
            let chosen: Vec<LinkId> = (0..width)
                .map(|i| links[(pick + i * 7) % links.len()])
                .collect();

            let mut inc = sim.clone();
            inc.fail_links(&chosen);
            let (mut full, _) = world(seed);
            full.fail_links_full(&chosen);

            let mesh_inc = probe_mesh(&inc, &sensors, &none);
            let mesh_full = probe_mesh(&full, &sensors, &none);
            prop_assert_eq!(&mesh_inc, &mesh_full, "probe meshes diverged");
            prop_assert_eq!(
                inc.take_igp_events(),
                full.take_igp_events(),
                "IGP events diverged"
            );
            prop_assert_eq!(
                inc.take_observed(),
                full.take_observed(),
                "observed BGP messages diverged"
            );

            // Same observables must mean the same diagnosis; run the
            // diagnoser on both legs to hold the full pipeline to it.
            let ip2as = TruthIpToAs { topology: &topology };
            let d_inc = nd_edge(&observations(&sensors, &before, &mesh_inc), &ip2as, Weights::default());
            let d_full = nd_edge(&observations(&sensors, &before, &mesh_full), &ip2as, Weights::default());
            let truth = TruthMap::build(&topology, &before, &mesh_inc);
            prop_assert_eq!(
                truth.hypothesis_links(&d_inc),
                truth.hypothesis_links(&d_full),
                "diagnosis hypotheses diverged"
            );
        }
    }

    /// Incremental reconvergence lands on the same converged state as a
    /// simulator built from scratch on the already-degraded topology
    /// (links failed before any route exists, then `converge_all`): same
    /// forwarding over every sensor pair and same diagnosis hypotheses.
    /// This rules out stale leftover routes that a scoped replay could
    /// forget to withdraw.
    #[test]
    fn incremental_matches_from_scratch_converge_all(
        seed in 0u64..200,
        picks in proptest::collection::vec(0usize..1000, 1..=3),
    ) {
        let net = build_internet(&InternetConfig::small(seed));
        let topology = Arc::new(net.topology.clone());
        let spec: Vec<_> = net.stubs[..4]
            .iter()
            .map(|s| (s.as_id, s.routers[0]))
            .collect();
        let sensors = SensorSet::place(&topology, &spec);

        let mut sim = Sim::new(Arc::clone(&topology));
        sensors.register(&mut sim);
        sim.converge_all();
        sim.take_observed();
        sim.take_igp_events();

        let links: Vec<LinkId> = sim.topology().links().iter().map(|l| l.id).collect();
        let chosen: Vec<LinkId> = picks.iter().map(|&p| links[p % links.len()]).collect();
        let none = BTreeSet::new();
        let before = probe_mesh(&sim, &sensors, &none);

        let mut inc = sim.clone();
        inc.fail_links(&chosen);
        let mesh_inc = probe_mesh(&inc, &sensors, &none);

        let mut scratch = Sim::new(Arc::clone(&topology));
        sensors.register(&mut scratch);
        scratch.fail_links(&chosen);
        scratch.take_observed();
        scratch.take_igp_events();
        scratch.converge_all();
        let mesh_scr = probe_mesh(&scratch, &sensors, &none);

        prop_assert_eq!(
            &mesh_inc,
            &mesh_scr,
            "forwarding diverged from scratch-built convergence"
        );

        let ip2as = TruthIpToAs { topology: &topology };
        let d_inc = nd_edge(&observations(&sensors, &before, &mesh_inc), &ip2as, Weights::default());
        let d_scr = nd_edge(&observations(&sensors, &before, &mesh_scr), &ip2as, Weights::default());
        let truth = TruthMap::build(&topology, &before, &mesh_inc);
        prop_assert_eq!(
            truth.hypothesis_links(&d_inc),
            truth.hypothesis_links(&d_scr),
            "diagnosis hypotheses diverged"
        );
    }

    /// Repairing the failed links on the CoW sim (instead of restoring)
    /// also returns it to the healthy baseline's observable state.
    #[test]
    fn restore_returns_to_baseline(seed in 0u64..200, pick in 0usize..1000) {
        let (sim, sensors) = world(seed);
        let links: Vec<LinkId> = sim.topology().links().iter().map(|l| l.id).collect();
        let none = BTreeSet::new();
        let healthy = probe_mesh(&sim, &sensors, &none);

        let mut cow = sim.clone();
        let baseline = cow.snapshot();
        cow.fail_link(links[pick % links.len()]);
        cow.restore(&baseline);
        let back = probe_mesh(&cow, &sensors, &none);
        prop_assert_eq!(&healthy, &back, "restore must undo the failure");
        prop_assert!(cow.take_igp_events().is_empty());
        prop_assert!(cow.take_observed().is_empty());
    }
}
