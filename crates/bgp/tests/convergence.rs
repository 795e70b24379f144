//! End-to-end convergence tests for the BGP engine on small hand-built
//! topologies: policy correctness, failover, withdrawals, misconfigurations.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use netdiag_bgp::{Bgp, Ctx, ExportDeny, ObservedKind};
use netdiag_igp::{Igp, LinkState};
use netdiag_obs::RecorderHandle;
use netdiag_topology::{AsId, AsKind, LinkRelationship, RouterId, Topology, TopologyBuilder};

/// Full simulator bundle for tests.
struct Net {
    topology: Topology,
    links: LinkState,
    igp: Igp,
    bgp: Bgp,
}

impl Net {
    fn converge(topology: Topology) -> Net {
        let links = LinkState::all_up(&topology);
        let igp = Igp::compute(&topology, &links);
        let mut bgp = Bgp::new(&topology);
        let ctx = Ctx {
            topology: &topology,
            igp: &igp,
            links: &links,
        };
        bgp.originate_all(ctx);
        bgp.run(ctx);
        Net {
            topology,
            links,
            igp,
            bgp,
        }
    }

    /// Fails a link: updates link state, IGP, and reconverges BGP.
    fn fail_link(&mut self, a: RouterId, b: RouterId) {
        let l = self.topology.link_between(a, b).expect("link exists");
        self.links.set_down(l);
        let as_a = self.topology.as_of_router(a);
        let as_b = self.topology.as_of_router(b);
        if as_a == as_b {
            self.igp
                .recompute_as(&self.topology, as_a, &self.links, &RecorderHandle::noop());
        }
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        self.bgp.handle_link_down(ctx, l);
        self.bgp.run(ctx);
    }

    fn as_path(&self, r: RouterId, dst_as: AsId) -> Option<Vec<AsId>> {
        let prefix = self.topology.as_node(dst_as).prefix;
        self.bgp
            .best_route(r, &prefix)
            .map(|rt| rt.as_path.to_vec())
    }
}

/// chain: AS-A (a1) -- AS-B (b1) -- AS-C (c1), B customer of A and of C.
/// A and C must NOT reach each other through their shared customer B.
fn valley_topology() -> (Topology, [RouterId; 3]) {
    let mut b = TopologyBuilder::new();
    let a = b.add_as(AsKind::Core, "A");
    let bb = b.add_as(AsKind::Tier2, "B");
    let c = b.add_as(AsKind::Core, "C");
    let a1 = b.add_router(a, "a1");
    let b1 = b.add_router(bb, "b1");
    let c1 = b.add_router(c, "c1");
    b.add_inter_link(a1, b1, LinkRelationship::ProviderCustomer);
    b.add_inter_link(c1, b1, LinkRelationship::ProviderCustomer);
    (b.build().unwrap(), [a1, b1, c1])
}

#[test]
fn customer_and_provider_learn_each_other() {
    let (t, [a1, b1, _]) = valley_topology();
    let net = Net::converge(t);
    // B reaches A's prefix with path [A]; A reaches B with [B].
    assert_eq!(net.as_path(b1, AsId(0)), Some(vec![AsId(0)]));
    assert_eq!(net.as_path(a1, AsId(1)), Some(vec![AsId(1)]));
}

#[test]
fn no_valley_through_shared_customer() {
    let (t, [a1, _, c1]) = valley_topology();
    let net = Net::converge(t);
    // The only physical path A-B-C is a valley; Gao-Rexford forbids it.
    assert_eq!(net.as_path(a1, AsId(2)), None);
    assert_eq!(net.as_path(c1, AsId(0)), None);
}

/// Two stubs under two peered cores: reachability crosses the peering link.
fn peering_topology() -> (Topology, [RouterId; 4]) {
    let mut b = TopologyBuilder::new();
    let core1 = b.add_as(AsKind::Core, "C1");
    let core2 = b.add_as(AsKind::Core, "C2");
    let s1 = b.add_as(AsKind::Stub, "S1");
    let s2 = b.add_as(AsKind::Stub, "S2");
    let x1 = b.add_router(core1, "x1");
    let y1 = b.add_router(core2, "y1");
    let sr1 = b.add_router(s1, "sr1");
    let sr2 = b.add_router(s2, "sr2");
    b.add_inter_link(x1, y1, LinkRelationship::PeerPeer);
    b.add_inter_link(x1, sr1, LinkRelationship::ProviderCustomer);
    b.add_inter_link(y1, sr2, LinkRelationship::ProviderCustomer);
    (b.build().unwrap(), [x1, y1, sr1, sr2])
}

#[test]
fn stubs_reach_across_peering() {
    let (t, [x1, _, sr1, sr2]) = peering_topology();
    let net = Net::converge(t);
    // sr1 -> S2: path S1's provider chain [C1, C2, S2].
    assert_eq!(
        net.as_path(sr1, AsId(3)),
        Some(vec![AsId(0), AsId(1), AsId(3)])
    );
    assert_eq!(
        net.as_path(sr2, AsId(2)),
        Some(vec![AsId(1), AsId(0), AsId(2)])
    );
    // A core does not give its peer transit to the other peer's customers...
    // but it does export its own customers to the peer:
    assert_eq!(net.as_path(x1, AsId(3)), Some(vec![AsId(1), AsId(3)]));
}

/// Multihomed stub: S attached to providers P1 and P2, both attached to core.
fn multihomed_topology() -> (Topology, [RouterId; 5]) {
    let mut b = TopologyBuilder::new();
    let core = b.add_as(AsKind::Core, "Core");
    let p1 = b.add_as(AsKind::Tier2, "P1");
    let p2 = b.add_as(AsKind::Tier2, "P2");
    let s = b.add_as(AsKind::Stub, "S");
    let c1 = b.add_router(core, "c1");
    let p1r = b.add_router(p1, "p1r");
    let p2r = b.add_router(p2, "p2r");
    let sr = b.add_router(s, "sr");
    let c2 = b.add_router(core, "c2");
    b.add_intra_link(c1, c2, 10);
    b.add_inter_link(c1, p1r, LinkRelationship::ProviderCustomer);
    b.add_inter_link(c2, p2r, LinkRelationship::ProviderCustomer);
    b.add_inter_link(p1r, sr, LinkRelationship::ProviderCustomer);
    b.add_inter_link(p2r, sr, LinkRelationship::ProviderCustomer);
    (b.build().unwrap(), [c1, p1r, p2r, sr, c2])
}

#[test]
fn multihomed_failover_reroutes() {
    let (t, [c1, p1r, _, sr, _]) = multihomed_topology();
    let mut net = Net::converge(t);
    // Core reaches S via one of the two providers (deterministic choice).
    let before = net.as_path(c1, AsId(3)).expect("reachable");
    assert_eq!(before.len(), 2);
    let via_p1 = before[0] == AsId(1);

    // Fail the link S uses; core must fail over to the other provider.
    if via_p1 {
        net.fail_link(p1r, sr);
    } else {
        net.fail_link(RouterId(2), sr); // p2r
    }
    let after = net.as_path(c1, AsId(3)).expect("still reachable");
    assert_eq!(after.len(), 2);
    assert_ne!(after[0], before[0], "failover must switch providers");
}

#[test]
fn single_homed_failure_withdraws_everywhere() {
    let (t, [c1, p1r, p2r, sr, _]) = multihomed_topology();
    let mut net = Net::converge(t);
    net.fail_link(p1r, sr);
    net.fail_link(p2r, sr);
    assert_eq!(
        net.as_path(c1, AsId(3)),
        None,
        "S unreachable after both uplinks die"
    );
    assert_eq!(net.as_path(sr, AsId(0)), None, "S lost all routes too");
}

#[test]
fn observer_sees_withdrawal() {
    let (t, [_, p1r, _, sr, _]) = multihomed_topology();
    let links = LinkState::all_up(&t);
    let igp = Igp::compute(&t, &links);
    let mut bgp = Bgp::new(&t);
    bgp.set_observer(AsId(0)); // the core is AS-X
    let ctx = Ctx {
        topology: &t,
        igp: &igp,
        links: &links,
    };
    bgp.originate_all(ctx);
    bgp.run(ctx);
    bgp.take_observed(); // discard the initial convergence chatter

    let mut net = Net {
        topology: t,
        links,
        igp,
        bgp,
    };
    net.fail_link(p1r, sr);
    let observed = net.bgp.take_observed();
    let s_prefix = net.topology.as_node(AsId(3)).prefix;
    // The core either saw an explicit withdrawal for S's prefix or an
    // implicit replacement (update) via the other provider.
    assert!(
        observed.iter().any(|m| m.prefix == s_prefix),
        "core observed no message about S's prefix: {observed:?}"
    );
}

#[test]
fn misconfiguration_blackholes_one_prefix_only() {
    let (t, [c1, p1r, p2r, sr, _]) = multihomed_topology();
    let mut net = Net::converge(t);

    // Make S single-homed through P1 first, so the filter is decisive.
    net.fail_link(p2r, sr);
    assert!(net.as_path(c1, AsId(3)).is_some());

    // P1's router stops announcing S's prefix to the core (export filter).
    let s_prefix = net.topology.as_node(AsId(3)).prefix;
    let rule = ExportDeny {
        at: p1r,
        peer: c1,
        prefix: s_prefix,
    };
    let ctx = Ctx {
        topology: &net.topology,
        igp: &net.igp,
        links: &net.links,
    };
    net.bgp.install_filter(ctx, rule);
    net.bgp.run(ctx);

    // Core lost S...
    assert_eq!(net.as_path(c1, AsId(3)), None);
    // ...but still has P1 itself, and P1 still has everything.
    assert!(net.as_path(c1, AsId(1)).is_some());
    assert!(net.as_path(p1r, AsId(3)).is_some());
    // S still reaches the core through P1 (filter was one prefix, one way).
    assert!(net.as_path(sr, AsId(0)).is_some());
}

#[test]
fn misconfiguration_observed_as_withdrawal() {
    let (t, [c1, p1r, p2r, sr, _]) = multihomed_topology();
    let links = LinkState::all_up(&t);
    let igp = Igp::compute(&t, &links);
    let mut bgp = Bgp::new(&t);
    bgp.set_observer(AsId(0));
    let ctx = Ctx {
        topology: &t,
        igp: &igp,
        links: &links,
    };
    bgp.originate_all(ctx);
    bgp.run(ctx);
    let mut net = Net {
        topology: t,
        links,
        igp,
        bgp,
    };
    net.fail_link(p2r, sr);
    net.bgp.take_observed();

    let s_prefix = net.topology.as_node(AsId(3)).prefix;
    let ctx = Ctx {
        topology: &net.topology,
        igp: &net.igp,
        links: &net.links,
    };
    net.bgp.install_filter(
        ctx,
        ExportDeny {
            at: p1r,
            peer: c1,
            prefix: s_prefix,
        },
    );
    net.bgp.run(ctx);
    let observed = net.bgp.take_observed();
    assert!(
        observed
            .iter()
            .any(|m| m.prefix == s_prefix && m.kind == ObservedKind::Withdraw && m.at == c1),
        "core should observe a withdrawal from the misconfigured neighbor: {observed:?}"
    );
}

#[test]
fn igp_partition_tears_down_ibgp() {
    // Core AS with two routers; cut the only intra link. Each half keeps
    // only what it learns over its own eBGP sessions.
    let (t, [c1, p1r, p2r, sr, c2]) = multihomed_topology();
    let mut net = Net::converge(t);
    // Before: c1 reaches P2 (via c2's eBGP session, over iBGP).
    assert!(net.as_path(c1, AsId(2)).is_some());
    net.fail_link(c1, c2);
    // After the partition c1 can only use its own eBGP session to P1.
    let path = net.as_path(c1, AsId(2));
    // P2 is still reachable via P1 -> S -> P2? No: S is a stub customer and
    // does not provide transit, so c1 must have lost P2 entirely.
    assert_eq!(path, None);
    // c1 still reaches P1 and S (through P1).
    assert!(net.as_path(c1, AsId(1)).is_some());
    assert!(net.as_path(c1, AsId(3)).is_some());
    // Unused bindings silence.
    let _ = (p1r, p2r, sr);
}

#[test]
fn deterministic_convergence() {
    let (t, _) = multihomed_topology();
    let net1 = Net::converge(t.clone());
    let net2 = Net::converge(t);
    for r in 0..net1.topology.router_count() {
        let r = RouterId(r as u32);
        let rib1: Vec<_> = net1.bgp.loc_rib(r).map(|(p, rt)| (p, rt.clone())).collect();
        let rib2: Vec<_> = net2.bgp.loc_rib(r).map(|(p, rt)| (p, rt.clone())).collect();
        assert_eq!(rib1, rib2);
    }
}

#[test]
fn lpm_lookup_matches_most_specific() {
    let (t, [c1, ..]) = multihomed_topology();
    let net = Net::converge(t);
    let s_prefix = net.topology.as_node(AsId(3)).prefix;
    let host = s_prefix.host(0x1234);
    let rt = net.bgp.lookup(c1, host).expect("covered by S's prefix");
    assert_eq!(rt.prefix, s_prefix);
    assert_eq!(
        net.bgp.lookup(c1, std::net::Ipv4Addr::new(192, 0, 2, 1)),
        None
    );
}

#[test]
fn originate_subset_matches_full_origination() {
    // Routing toward a prefix is unaffected by whether other prefixes are
    // originated (no aggregation/deflection cross-talk) — the property the
    // experiment harness relies on to originate only sensor prefixes.
    let (t, routers) = multihomed_topology();
    let full = Net::converge(t.clone());

    let links = LinkState::all_up(&t);
    let igp = Igp::compute(&t, &links);
    let mut bgp = Bgp::new(&t);
    let ctx = Ctx {
        topology: &t,
        igp: &igp,
        links: &links,
    };
    bgp.originate_as(ctx, AsId(3)); // only S's prefix
    bgp.run(ctx);

    let s_prefix = t.as_node(AsId(3)).prefix;
    for r in routers {
        assert_eq!(
            full.bgp.best_route(r, &s_prefix).map(|x| x.as_path),
            bgp.best_route(r, &s_prefix).map(|x| x.as_path),
            "paths toward S differ at {r}"
        );
    }
}

#[test]
fn link_repair_restores_routes() {
    let (t, [c1, p1r, p2r, sr, _]) = multihomed_topology();
    let mut net = Net::converge(t);
    // Kill both of S's uplinks: S vanishes everywhere.
    net.fail_link(p1r, sr);
    net.fail_link(p2r, sr);
    assert_eq!(net.as_path(c1, AsId(3)), None);

    // Repair one uplink: reachability returns via that provider.
    let l = net.topology.link_between(p1r, sr).unwrap();
    net.links.set_up(l);
    let ctx = Ctx {
        topology: &net.topology,
        igp: &net.igp,
        links: &net.links,
    };
    net.bgp.handle_link_up(ctx, l);
    net.bgp.run(ctx);
    assert_eq!(net.as_path(c1, AsId(3)), Some(vec![AsId(1), AsId(3)]));
    assert!(net.as_path(sr, AsId(0)).is_some(), "S sees the world again");
}

#[test]
fn fail_repair_roundtrip_restores_original_ribs() {
    let (t, [_, p1r, _, sr, _]) = multihomed_topology();
    let mut net = Net::converge(t.clone());
    let pristine: Vec<Vec<_>> = (0..t.router_count())
        .map(|r| {
            net.bgp
                .loc_rib(RouterId(r as u32))
                .map(|(p, rt)| (p, rt.clone()))
                .collect()
        })
        .collect();
    net.fail_link(p1r, sr);
    let l = net.topology.link_between(p1r, sr).unwrap();
    net.links.set_up(l);
    let ctx = Ctx {
        topology: &net.topology,
        igp: &net.igp,
        links: &net.links,
    };
    net.bgp.handle_link_up(ctx, l);
    net.bgp.run(ctx);
    for (r, pristine_rib) in pristine.iter().enumerate().take(t.router_count()) {
        let now: Vec<_> = net
            .bgp
            .loc_rib(RouterId(r as u32))
            .map(|(p, rt)| (p, rt.clone()))
            .collect();
        assert_eq!(&now, pristine_rib, "RIB of r{r} differs after flap");
    }
}

#[test]
fn intra_partition_heal_restores_routes() {
    let (t, [c1, _, _, _, c2]) = multihomed_topology();
    let mut net = Net::converge(t);
    net.fail_link(c1, c2);
    assert_eq!(net.as_path(c1, AsId(2)), None, "partitioned");
    let l = net.topology.link_between(c1, c2).unwrap();
    net.links.set_up(l);
    net.igp
        .recompute_as(&net.topology, AsId(0), &net.links, &RecorderHandle::noop());
    let ctx = Ctx {
        topology: &net.topology,
        igp: &net.igp,
        links: &net.links,
    };
    net.bgp.handle_link_up(ctx, l);
    net.bgp.run(ctx);
    assert!(net.as_path(c1, AsId(2)).is_some(), "healed");
}

#[test]
fn removing_the_filter_heals_the_misconfiguration() {
    let (t, [c1, p1r, p2r, sr, _]) = multihomed_topology();
    let mut net = Net::converge(t);
    net.fail_link(p2r, sr); // single-home S through P1
    let s_prefix = net.topology.as_node(AsId(3)).prefix;
    let rule = ExportDeny {
        at: p1r,
        peer: c1,
        prefix: s_prefix,
    };
    let ctx = Ctx {
        topology: &net.topology,
        igp: &net.igp,
        links: &net.links,
    };
    net.bgp.install_filter(ctx, rule);
    net.bgp.run(ctx);
    assert_eq!(net.as_path(c1, AsId(3)), None, "misconfigured");

    // Fix it: the route comes back.
    assert!(net.bgp.remove_filter(ctx, &rule));
    net.bgp.run(ctx);
    assert_eq!(net.as_path(c1, AsId(3)), Some(vec![AsId(1), AsId(3)]));
    // Removing a non-installed rule reports false.
    assert!(!net.bgp.remove_filter(ctx, &rule) || net.bgp.filters().is_empty());
}
