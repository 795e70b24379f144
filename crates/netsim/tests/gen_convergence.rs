//! Full-convergence properties on generated internet-scale topologies:
//! the sharded message plane must be byte-identical to the sequential
//! one, and every converged route must respect Gao-Rexford export
//! legality (no valleys, no multi-peer hops).

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use netdiag_netsim::Sim;
use netdiag_topology::gen::{generate, GenConfig};
use netdiag_topology::{LinkId, LinkKind, PeerKind};

/// Sequential vs. parallel-IGP + sharded-BGP convergence of the same
/// 200-AS generated internet. "Same fixed point" is not enough: the
/// shard workers converge the columns they own and hand them back, and
/// that must leave the *exact* state the sequential run produces, so the
/// full Loc-RIB of every router — paths, egresses, learned-from sessions,
/// local-prefs — and the total message count must match field for field.
/// The engine the workers built must then replay failures the same way:
/// both sims fail an inter-domain and an intra-domain link and repair
/// both, and must agree after every step.
#[test]
fn sharded_convergence_is_byte_identical_to_sequential() {
    let cfg = GenConfig::new(200, 7);
    let topology = Arc::new(generate(&cfg).unwrap().topology);

    let mut seq = Sim::new(Arc::clone(&topology));
    seq.converge_all();

    let mut par = Sim::new_parallel(Arc::clone(&topology), 3);
    par.converge_all_sharded(3);

    let assert_same = |seq: &Sim, par: &Sim, step: &str| {
        assert_eq!(
            seq.bgp_messages(),
            par.bgp_messages(),
            "{step}: sharding must not create or suppress messages"
        );
        for r in topology.routers() {
            let a: Vec<_> = seq.bgp().loc_rib(r.id).collect();
            let b: Vec<_> = par.bgp().loc_rib(r.id).collect();
            assert_eq!(a, b, "{step}: Loc-RIB of router {:?} diverged", r.id);
        }
    };
    assert_same(&seq, &par, "convergence");

    let link_of = |kind: LinkKind| {
        let links: Vec<LinkId> = topology
            .links()
            .iter()
            .filter(|l| l.kind == kind)
            .map(|l| l.id)
            .collect();
        links[links.len() / 2]
    };
    let (inter, intra) = (link_of(LinkKind::Inter), link_of(LinkKind::Intra));
    let before = seq.bgp_messages();
    for (step, link, fail) in [
        ("fail inter", inter, true),
        ("fail intra", intra, true),
        ("repair inter", inter, false),
        ("repair intra", intra, false),
    ] {
        for sim in [&mut seq, &mut par] {
            if fail {
                sim.fail_link(link);
            } else {
                sim.repair_link(link);
            }
        }
        assert_same(&seq, &par, step);
    }
    assert!(
        seq.bgp_messages() > before,
        "the failures must have replayed some messages"
    );
}

/// Every AS path selected anywhere in a converged 200-AS generated
/// internet must be valley-free: read in propagation order (origin
/// toward the local AS), the relationship sequence is uphill
/// (customer→provider) edges, then at most one peer edge, then
/// downhill (provider→customer) edges. A violation means the
/// generator wired a relationship the Gao-Rexford export policy
/// could never have propagated over — i.e. the graph and the policy
/// engine disagree about the business topology.
#[test]
fn converged_routes_are_valley_free() {
    let cfg = GenConfig::new(200, 3);
    let topology = Arc::new(generate(&cfg).unwrap().topology);
    let mut sim = Sim::new(Arc::clone(&topology));
    sim.converge_all();

    let mut checked = 0u64;
    for r in topology.routers() {
        let local = topology.as_of_router(r.id);
        for (prefix, route) in sim.bgp().loc_rib(r.id) {
            // Propagation order: origin (path back) ... neighbor (path
            // front), then the local AS.
            let mut chain: Vec<_> = route.as_path.as_slice().to_vec();
            chain.reverse();
            chain.push(local);
            chain.dedup(); // prepending repeats an AS; the hop is one edge

            // uphill* peer? downhill*
            let mut phase = 0u8; // 0 = climbing, 1 = crossed a peer, 2 = descending
            for hop in chain.windows(2) {
                let rel = topology
                    .relationship(hop[0], hop[1])
                    .unwrap_or_else(|| panic!("{prefix}: path hops {:?} are not neighbors", hop));
                phase = match (phase, rel) {
                    (0, PeerKind::Provider) => 0,
                    (0, PeerKind::Peer) => 1,
                    (_, PeerKind::Customer) => 2,
                    (p, r) => panic!(
                        "{prefix}: valley at {:?} ({r:?} edge in phase {p}, path {:?})",
                        hop, route.as_path
                    ),
                };
                checked += 1;
            }
        }
    }
    assert!(
        checked > 10_000,
        "suspiciously few edges checked: {checked}"
    );
}
