//! Unit-level tests of the bridge (simulator -> diagnoser conversion) and
//! the ground-truth evaluation mapping.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::collections::BTreeSet;
use std::sync::Arc;

use netdiag_bgp::{ObservedKind, ObservedMsg};
use netdiag_experiments::bridge::{
    observations, routing_feed, to_probe_path, SimLookingGlass, TruthIpToAs,
};
use netdiag_experiments::truth::{evaluate, mesh_diagnosability, TruthMap};
use netdiag_netsim::{probe_mesh, IgpLinkDown, SensorSet, Sim};
use netdiag_topology::{AsId, AsKind, LinkRelationship, SensorId, TopologyBuilder};
use netdiagnoser::{nd_edge, Epoch, Hop, IpToAs, LookingGlass, PathRef, Weights};

/// S1 - T(2 routers) - S2 with sensors on the stubs.
fn world() -> (Sim, SensorSet) {
    let mut b = TopologyBuilder::new();
    let t2 = b.add_as(AsKind::Tier2, "T");
    let s1 = b.add_as(AsKind::Stub, "S1");
    let s2 = b.add_as(AsKind::Stub, "S2");
    let ta = b.add_router(t2, "ta");
    let tb = b.add_router(t2, "tb");
    b.add_intra_link(ta, tb, 3);
    let s1r = b.add_router(s1, "s1r");
    let s2r = b.add_router(s2, "s2r");
    b.add_inter_link(ta, s1r, LinkRelationship::ProviderCustomer);
    b.add_inter_link(tb, s2r, LinkRelationship::ProviderCustomer);
    let t = Arc::new(b.build().unwrap());
    let mut sim = Sim::new(Arc::clone(&t));
    sim.converge_all();
    let sensors = SensorSet::place(&t, &[(s1, s1r), (s2, s2r)]);
    sensors.register(&mut sim);
    (sim, sensors)
}

#[test]
fn probe_path_conversion_strips_ground_truth() {
    let (sim, sensors) = world();
    let blocked: BTreeSet<AsId> = [AsId(0)].into_iter().collect();
    let mesh = probe_mesh(&sim, &sensors, &blocked);
    let p = to_probe_path(&mesh.traceroutes[0]);
    assert_eq!(p.hops.len(), mesh.traceroutes[0].hops.len());
    // Stars survive as stars, addresses as addresses.
    for (ours, theirs) in p.hops.iter().zip(&mesh.traceroutes[0].hops) {
        match theirs.addr() {
            Some(a) => assert_eq!(*ours, Hop::Addr(a)),
            None => assert_eq!(*ours, Hop::Star),
        }
    }
}

#[test]
fn truth_map_maps_every_consecutive_pair() {
    let (sim, sensors) = world();
    let mesh = probe_mesh(&sim, &sensors, &BTreeSet::new());
    let truth = TruthMap::build(sim.topology(), &mesh, &mesh);
    let obs = observations(&sensors, &mesh, &mesh);
    // Every edge of every converted path maps to a ground-truth link,
    // except host edges (the final Dest hop).
    for (i, p) in obs.before.paths.iter().enumerate() {
        let links = netdiag_experiments::truth::path_links_via_truth(
            &truth,
            p,
            PathRef {
                epoch: Epoch::Before,
                index: i,
            },
        );
        let mapped = links.iter().filter(|l| l.is_some()).count();
        let unmapped = links.len() - mapped;
        assert_eq!(unmapped, 1, "only the host edge is unmapped");
        assert_eq!(mapped, p.hops.len() - 2);
    }
    assert_eq!(truth.probed_links().len(), 3);
    assert_eq!(truth.probed_ases().len(), 3);
}

#[test]
fn evaluation_scores_perfect_diagnosis() {
    let (sim, sensors) = world();
    let before = probe_mesh(&sim, &sensors, &BTreeSet::new());
    // Fail S2's uplink: non-recoverable.
    let s2r = sensors.get(SensorId(1)).router;
    let uplink = sim.topology().router(s2r).links[0];
    let mut broken = sim.clone();
    broken.fail_link(uplink);
    let after = probe_mesh(&broken, &sensors, &BTreeSet::new());
    let obs = observations(&sensors, &before, &after);
    let topology = sim.topology();
    let truth = TruthMap::build(topology, &before, &after);
    let d = nd_edge(&obs, &ip2as(topology), Weights::default());
    let failed = BTreeSet::from([uplink]);
    let e = evaluate(topology, &truth, &d, &failed);
    assert_eq!(e.sensitivity, 1.0);
    assert!(e.as_sensitivity > 0.0);
    assert!(e.hypothesis_size >= 1);
    assert!((0.0..=1.0).contains(&e.specificity));
}

fn ip2as(topology: &netdiag_topology::Topology) -> TruthIpToAs<'_> {
    TruthIpToAs { topology }
}

#[test]
fn routing_feed_extracts_withdrawals_with_neighbor_addr() {
    let (sim, _) = world();
    let topology = sim.topology();
    // Fabricate an observed withdrawal: ta (observer AS 0) heard from s1r.
    let ta = netdiag_topology::RouterId(0);
    let s1r = netdiag_topology::RouterId(2);
    let link = topology.link_between(ta, s1r).unwrap();
    let msg = ObservedMsg {
        at: ta,
        from: s1r,
        from_as: AsId(1),
        prefix: topology.as_node(AsId(1)).prefix,
        kind: ObservedKind::Withdraw,
    };
    let update = ObservedMsg {
        kind: ObservedKind::Update,
        ..msg.clone()
    };
    let feed = routing_feed(topology, AsId(0), &[msg, update], &[]);
    // Updates are not withdrawals; one entry with the neighbor-side addr.
    assert_eq!(feed.withdrawals.len(), 1);
    assert_eq!(
        feed.withdrawals[0].from_addr,
        topology.link(link).addr_of(s1r)
    );
}

#[test]
fn routing_feed_filters_igp_events_to_observer() {
    let (sim, _) = world();
    let topology = sim.topology();
    let intra = topology.intra_links_of(AsId(0)).next().unwrap().id;
    let events = [
        IgpLinkDown {
            link: intra,
            as_id: AsId(0),
        },
        IgpLinkDown {
            link: intra,
            as_id: AsId(1), // some other AS's event: invisible to AS 0
        },
    ];
    let feed = routing_feed(topology, AsId(0), &[], &events);
    assert_eq!(feed.igp_link_down.len(), 1);
    let l = topology.link(intra);
    assert_eq!(feed.igp_link_down[0].addr_a, l.addr_a);
    assert_eq!(feed.igp_link_down[0].addr_b, l.addr_b);
}

#[test]
fn sim_looking_glass_respects_availability() {
    let (sim, sensors) = world();
    let dst = sensors.get(SensorId(1)).addr;
    let every_as: BTreeSet<AsId> = [AsId(0), AsId(1), AsId(2)].into_iter().collect();
    let all = SimLookingGlass {
        sim: &sim,
        available: &every_as,
    };
    assert!(all.as_path(AsId(1), dst).is_some());
    let empty = BTreeSet::new();
    let none = SimLookingGlass {
        sim: &sim,
        available: &empty,
    };
    assert_eq!(none.as_path(AsId(1), dst), None);
}

#[test]
fn diagnosability_of_tiny_world() {
    let (sim, sensors) = world();
    let mesh = probe_mesh(&sim, &sensors, &BTreeSet::new());
    let d = mesh_diagnosability(&mesh);
    // 3 probed links; the two stub uplinks have distinct path sets, the
    // middle link is crossed by everything: all three sets distinct = 1.0.
    assert!(d > 0.0 && d <= 1.0);
}

#[test]
fn truth_ip_to_as_is_ground_truth() {
    let (sim, sensors) = world();
    let topology = sim.topology();
    let svc = TruthIpToAs { topology };
    for l in topology.links() {
        assert_eq!(svc.as_of(l.addr_a), Some(topology.as_of_router(l.a)));
        assert_eq!(svc.as_of(l.addr_b), Some(topology.as_of_router(l.b)));
    }
    assert_eq!(
        svc.as_of(sensors.get(SensorId(0)).addr),
        Some(sensors.get(SensorId(0)).as_id)
    );
}
