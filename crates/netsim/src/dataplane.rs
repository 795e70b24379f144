//! Hop-by-hop packet forwarding over the converged routing state.
//!
//! Forwarding at each router:
//!
//! 1. if the destination is a registered host of this AS or one of this
//!    AS's router addresses, forward along IGP next hops to the owning
//!    router (intra-domain delivery bypasses BGP, as in real networks where
//!    the IGP carries internal prefixes);
//! 2. otherwise look up the longest-matching BGP route: an eBGP-learned
//!    route forwards straight over its inter-domain link; an iBGP-learned
//!    route forwards along IGP next hops toward the egress border router.
//!
//! The walk records every router traversed together with the ingress
//! interface address — exactly what traceroute observes.

use std::net::Ipv4Addr;

use netdiag_topology::{IpOwner, LinkId, RouterId};

use crate::sim::Sim;

/// Maximum hops before declaring a TTL exceeded (matches traceroute
/// practice; our networks are far smaller).
const MAX_HOPS: usize = 64;

/// Deterministic per-(flow, router) hash (FNV-1a) for ECMP choice.
fn flow_hash(flow: u64, router: RouterId) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in flow
        .to_le_bytes()
        .iter()
        .chain(router.0.to_le_bytes().iter())
    {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One router on a forwarding path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathHop {
    /// The router traversed.
    pub router: RouterId,
    /// Link the packet arrived on and the ingress interface address
    /// (`None` for the first hop, where the packet enters from the host).
    pub ingress: Option<(LinkId, Ipv4Addr)>,
}

/// Why a forwarding walk ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardOutcome {
    /// The destination host/router was reached.
    Delivered,
    /// A router had no route to the destination.
    NoRoute(RouterId),
    /// A forwarding loop was detected at the given router.
    Loop(RouterId),
    /// The hop budget was exhausted.
    TtlExceeded,
}

/// A forwarding path: the routers traversed and the outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataPath {
    /// Routers traversed, in order, starting at the source's attach router.
    pub hops: Vec<PathHop>,
    /// Terminal outcome.
    pub outcome: ForwardOutcome,
}

impl DataPath {
    /// True when the packet was delivered.
    pub fn delivered(&self) -> bool {
        self.outcome == ForwardOutcome::Delivered
    }

    /// The links traversed, in order.
    pub fn links(&self) -> Vec<LinkId> {
        self.hops
            .iter()
            .filter_map(|h| h.ingress.map(|(l, _)| l))
            .collect()
    }
}

impl Sim {
    /// Resolves the router that owns a destination address: a registered
    /// host's attach router, or the owner of a router interface/loopback.
    pub fn resolve_destination(&self, dst: Ipv4Addr) -> Option<RouterId> {
        if let Some(r) = self.host_router(dst) {
            return Some(r);
        }
        match self.topology().ip_owner(dst) {
            Some(IpOwner::Interface(r, _)) | Some(IpOwner::Loopback(r)) => Some(r),
            None => None,
        }
    }

    /// All candidate next hops at `current` toward `dst` (the ECMP set):
    /// equal-cost IGP hops toward the local target or BGP egress, or the
    /// single eBGP exit. Empty when there is no route.
    fn next_hop_candidates(
        &self,
        current: RouterId,
        dst: Ipv4Addr,
        target: Option<RouterId>,
    ) -> Vec<RouterId> {
        let topology = self.topology();
        let my_as = topology.as_of_router(current);
        match target {
            Some(t) if topology.as_of_router(t) == my_as => {
                self.igp()
                    .of(my_as)
                    .next_hops(topology, self.links(), current, t)
            }
            _ => match self.bgp().lookup_exit(current, dst) {
                None => Vec::new(),
                Some(exit) => {
                    if let Some(link) = exit.ebgp_link {
                        if self.links().is_up(link) {
                            vec![topology.link(link).other(current)]
                        } else {
                            Vec::new()
                        }
                    } else {
                        self.igp()
                            .of(my_as)
                            .next_hops(topology, self.links(), current, exit.egress)
                    }
                }
            },
        }
    }

    /// Walks one packet using `choose` to pick among ECMP candidates.
    fn walk(
        &self,
        from: RouterId,
        dst: Ipv4Addr,
        mut choose: impl FnMut(RouterId, &[RouterId]) -> RouterId,
    ) -> DataPath {
        let topology = self.topology();
        let target = self.resolve_destination(dst);
        let mut hops = vec![PathHop {
            router: from,
            ingress: None,
        }];
        let mut visited = vec![false; topology.router_count()];
        visited[from.index()] = true;
        let mut current = from;
        loop {
            if hops.len() > MAX_HOPS {
                return DataPath {
                    hops,
                    outcome: ForwardOutcome::TtlExceeded,
                };
            }
            if target == Some(current) {
                return DataPath {
                    hops,
                    outcome: ForwardOutcome::Delivered,
                };
            }
            let candidates = self.next_hop_candidates(current, dst, target);
            if candidates.is_empty() {
                return DataPath {
                    hops,
                    outcome: ForwardOutcome::NoRoute(current),
                };
            }
            let next = choose(current, &candidates);
            debug_assert!(candidates.contains(&next));
            let link = topology
                .link_between(current, next)
                .expect("next hop must be adjacent");
            debug_assert!(self.links().is_up(link), "forwarding over a down link");
            hops.push(PathHop {
                router: next,
                ingress: Some((link, topology.link(link).addr_of(next))),
            });
            if visited[next.index()] {
                return DataPath {
                    hops,
                    outcome: ForwardOutcome::Loop(next),
                };
            }
            visited[next.index()] = true;
            current = next;
        }
    }

    /// Forwards a packet from `from` along a *specific flow*: routers with
    /// multiple equal-cost next hops pick one by hashing the flow id — the
    /// per-flow-consistent load balancing Paris traceroute relies on.
    pub fn forward_flow(&self, from: RouterId, dst: Ipv4Addr, flow: u64) -> DataPath {
        self.walk(from, dst, |router, candidates| {
            candidates[(flow_hash(flow, router) as usize) % candidates.len()]
        })
    }

    /// Enumerates every distinct ECMP path from `from` to `dst` (what a
    /// Paris-traceroute sweep over flow ids discovers), up to `cap` paths.
    pub fn all_paths(&self, from: RouterId, dst: Ipv4Addr, cap: usize) -> Vec<DataPath> {
        // Depth-first over the ECMP branching structure. `choice[i]` is the
        // branch taken at the i-th branching point of the current walk.
        let mut results = Vec::new();
        let mut choice_stack: Vec<usize> = Vec::new();
        loop {
            // Replay the walk taking branch `choice_stack[i]` at the i-th
            // decision; record the fan-out degree met along the way.
            let mut fanouts: Vec<usize> = Vec::new();
            let mut idx = 0usize;
            let path = self.walk(from, dst, |_, candidates| {
                let pick = if idx < choice_stack.len() {
                    choice_stack[idx]
                } else {
                    0
                };
                fanouts.push(candidates.len());
                idx += 1;
                candidates[pick.min(candidates.len() - 1)]
            });
            results.push(path);
            if results.len() >= cap {
                return results;
            }
            // Advance to the next unexplored branch combination
            // (odometer-style, deepest decision first).
            choice_stack.resize(fanouts.len(), 0);
            let mut level = fanouts.len();
            loop {
                if level == 0 {
                    return results;
                }
                level -= 1;
                if choice_stack[level] + 1 < fanouts[level] {
                    choice_stack[level] += 1;
                    choice_stack.truncate(level + 1);
                    break;
                }
            }
        }
    }

    /// Forwards a packet from `from` (a router) to `dst`, recording the
    /// path. At equal-cost fan-outs the SPF-preferred next hop is taken
    /// (the single-path view the paper's evaluation uses; see
    /// [`Sim::forward_flow`] / [`Sim::all_paths`] for the ECMP view).
    pub fn forward(&self, from: RouterId, dst: Ipv4Addr) -> DataPath {
        let target = self.resolve_destination(dst);
        self.walk(from, dst, |router, candidates| {
            if candidates.len() == 1 {
                return candidates[0];
            }
            let topology = self.topology();
            let my_as = topology.as_of_router(router);
            let goal = match target {
                Some(t) if topology.as_of_router(t) == my_as => Some(t),
                _ => self.bgp().lookup_exit(router, dst).map(|e| e.egress),
            };
            goal.and_then(|g| self.igp().of(my_as).next_hop(router, g))
                .filter(|nh| candidates.contains(nh))
                .unwrap_or(candidates[0])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdiag_topology::{AsId, AsKind, LinkRelationship, Topology, TopologyBuilder};
    use std::sync::Arc;

    /// Stub S1 -- T (2 routers) -- Stub S2; sensors on the stubs.
    fn net() -> (Sim, [RouterId; 4], [Ipv4Addr; 2]) {
        let mut b = TopologyBuilder::new();
        let t2 = b.add_as(AsKind::Tier2, "T");
        let s1 = b.add_as(AsKind::Stub, "S1");
        let s2 = b.add_as(AsKind::Stub, "S2");
        let t_a = b.add_router(t2, "ta");
        let t_b = b.add_router(t2, "tb");
        b.add_intra_link(t_a, t_b, 7);
        let s1r = b.add_router(s1, "s1r");
        let s2r = b.add_router(s2, "s2r");
        b.add_inter_link(t_a, s1r, LinkRelationship::ProviderCustomer);
        b.add_inter_link(t_b, s2r, LinkRelationship::ProviderCustomer);
        let t = Arc::new(b.build().unwrap());
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        let h1 = t.as_node(s1).prefix.host(100);
        let h2 = t.as_node(s2).prefix.host(100);
        sim.register_host(h1, s1r);
        sim.register_host(h2, s2r);
        (sim, [t_a, t_b, s1r, s2r], [h1, h2])
    }

    #[test]
    fn delivers_across_transit() {
        let (sim, [t_a, t_b, s1r, s2r], [_, h2]) = net();
        let path = sim.forward(s1r, h2);
        assert!(path.delivered());
        let routers: Vec<RouterId> = path.hops.iter().map(|h| h.router).collect();
        assert_eq!(routers, vec![s1r, t_a, t_b, s2r]);
        assert_eq!(path.links().len(), 3);
        // Ingress addresses belong to the receiving routers.
        for hop in &path.hops[1..] {
            let (link, addr) = hop.ingress.unwrap();
            assert_eq!(sim.topology().link(link).addr_of(hop.router), addr);
        }
    }

    #[test]
    fn unregistered_destination_has_no_route() {
        let (sim, [_, _, s1r, _], _) = net();
        let path = sim.forward(s1r, Ipv4Addr::new(203, 0, 113, 1));
        assert_eq!(path.outcome, ForwardOutcome::NoRoute(s1r));
    }

    #[test]
    fn blackhole_after_failure() {
        let (mut sim, [_, t_b, s1r, s2r], [_, h2]) = net();
        let l = sim.topology().link_between(t_b, s2r).unwrap();
        sim.fail_link(l);
        let path = sim.forward(s1r, h2);
        assert!(!path.delivered());
        assert!(matches!(path.outcome, ForwardOutcome::NoRoute(_)));
    }

    #[test]
    fn delivery_to_self() {
        let (sim, [_, _, s1r, _], [h1, _]) = net();
        let path = sim.forward(s1r, h1);
        assert!(path.delivered());
        assert_eq!(path.hops.len(), 1);
        assert!(path.links().is_empty());
    }

    #[test]
    fn delivery_to_router_loopback() {
        let (sim, [t_a, t_b, s1r, _], _) = net();
        let lb = sim.topology().router(t_b).loopback;
        let path = sim.forward(s1r, lb);
        assert!(path.delivered());
        let routers: Vec<RouterId> = path.hops.iter().map(|h| h.router).collect();
        assert_eq!(routers, vec![s1r, t_a, t_b]);
    }

    #[test]
    fn resolve_destination_kinds() {
        let (sim, [t_a, ..], [h1, _]) = net();
        assert_eq!(sim.resolve_destination(h1), sim.host_router(h1));
        let lb = sim.topology().router(t_a).loopback;
        assert_eq!(sim.resolve_destination(lb), Some(t_a));
        assert_eq!(sim.resolve_destination(Ipv4Addr::new(8, 8, 8, 8)), None);
        let _ = AsId(0);
        let _: Option<&Topology> = None;
    }
}

#[cfg(test)]
mod ecmp_tests {
    use super::*;
    use netdiag_topology::{AsKind, LinkRelationship, TopologyBuilder};
    use std::sync::Arc;

    /// Transit AS with an internal ECMP square between its borders:
    /// S1 - ta - {m1|m2} - tb - S2.
    fn ecmp_net() -> (Sim, RouterId, RouterId, Ipv4Addr) {
        let mut b = TopologyBuilder::new();
        let t2 = b.add_as(AsKind::Tier2, "T");
        let s1 = b.add_as(AsKind::Stub, "S1");
        let s2 = b.add_as(AsKind::Stub, "S2");
        let ta = b.add_router(t2, "ta");
        let m1 = b.add_router(t2, "m1");
        let m2 = b.add_router(t2, "m2");
        let tb = b.add_router(t2, "tb");
        b.add_intra_link(ta, m1, 1);
        b.add_intra_link(ta, m2, 1);
        b.add_intra_link(m1, tb, 1);
        b.add_intra_link(m2, tb, 1);
        let s1r = b.add_router(s1, "s1r");
        let s2r = b.add_router(s2, "s2r");
        b.add_inter_link(ta, s1r, LinkRelationship::ProviderCustomer);
        b.add_inter_link(tb, s2r, LinkRelationship::ProviderCustomer);
        let t = Arc::new(b.build().unwrap());
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        let h2 = t.as_node(s2).prefix.host(200);
        sim.register_host(h2, s2r);
        (sim, s1r, s2r, h2)
    }

    #[test]
    fn flows_are_consistent_and_spread() {
        let (sim, s1r, _, h2) = ecmp_net();
        // A given flow always takes the same path.
        for flow in 0..8u64 {
            let p1 = sim.forward_flow(s1r, h2, flow);
            let p2 = sim.forward_flow(s1r, h2, flow);
            assert!(p1.delivered());
            assert_eq!(p1, p2, "per-flow consistency");
        }
        // Different flows use both ECMP branches eventually.
        let mut middles = std::collections::BTreeSet::new();
        for flow in 0..64u64 {
            let p = sim.forward_flow(s1r, h2, flow);
            middles.insert(p.hops[2].router); // m1 or m2
        }
        assert_eq!(middles.len(), 2, "load balancing uses both branches");
    }

    #[test]
    fn all_paths_enumerates_both_branches() {
        let (sim, s1r, s2r, h2) = ecmp_net();
        let paths = sim.all_paths(s1r, h2, 16);
        assert_eq!(paths.len(), 2, "exactly the two ECMP variants");
        for p in &paths {
            assert!(p.delivered());
            assert_eq!(p.hops.first().unwrap().router, s1r);
            assert_eq!(p.hops.last().unwrap().router, s2r);
        }
        let middles: std::collections::BTreeSet<_> =
            paths.iter().map(|p| p.hops[2].router).collect();
        assert_eq!(middles.len(), 2);
    }

    #[test]
    fn all_paths_single_route_yields_one() {
        let (sim, s1r, _, h2) = ecmp_net();
        // From the midpoint m1, the path to S2 is unique.
        let m1 = RouterId(1);
        let paths = sim.all_paths(m1, h2, 16);
        assert_eq!(paths.len(), 1);
        let _ = s1r;
    }

    #[test]
    fn all_paths_respects_cap() {
        let (sim, s1r, _, h2) = ecmp_net();
        let paths = sim.all_paths(s1r, h2, 1);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn deterministic_forward_is_an_ecmp_member() {
        let (sim, s1r, _, h2) = ecmp_net();
        let det = sim.forward(s1r, h2);
        let all = sim.all_paths(s1r, h2, 16);
        assert!(all.iter().any(|p| p.hops == det.hops));
    }
}
