//! Shortest-path-first computation per AS.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::Arc;

use netdiag_obs::{names, RecorderHandle};
use netdiag_topology::{AsId, AsNode, LinkId, LinkKind, RouterId, Topology};

use crate::state::LinkState;

/// Distance value for "unreachable".
const INF: u64 = u64::MAX;

/// Sentinel in the flat next-hop matrix for "no hop" (unreachable or
/// source == destination). Router ids never reach it.
const NO_HOP: u32 = u32::MAX;

/// One edge of an AS's local intra-domain CSR: the far endpoint as a
/// *local* index, with weight and link id denormalized. Dijkstra runs
/// entirely over these contiguous entries — no global id translation,
/// no `Link` loads, no inter-link filtering in the inner loop.
#[derive(Clone, Copy, Debug)]
struct IntraEdge {
    /// Local index of the far endpoint.
    peer: u32,
    /// IGP weight leaving the local router over this edge.
    weight: u32,
    /// The underlying link (for the dynamic up/down check).
    link: LinkId,
}

/// Router-id → local-index mapping for one AS.
///
/// Generated topologies allocate each AS's routers as one contiguous id
/// range, so the common case resolves with a base-offset subtraction —
/// no hashing on the (very hot) `dist`/`reachable` path. A `HashMap`
/// fallback keeps hand-built topologies with interleaved ids working.
#[derive(Clone, Debug)]
struct LocalIndex {
    base: u32,
    n: u32,
    map: Option<HashMap<RouterId, usize>>,
}

impl LocalIndex {
    fn build(routers: &[RouterId]) -> Self {
        let base = routers.first().map_or(0, |r| r.0);
        let contiguous = routers
            .iter()
            .enumerate()
            .all(|(i, r)| r.0 == base + i as u32);
        let map = if contiguous {
            None
        } else {
            Some(routers.iter().enumerate().map(|(i, &r)| (r, i)).collect())
        };
        LocalIndex {
            base,
            n: routers.len() as u32,
            map,
        }
    }

    /// Local index of `r`, or `None` when `r` is not in this AS.
    #[inline]
    fn get(&self, r: RouterId) -> Option<usize> {
        match &self.map {
            None => {
                let off = r.0.wrapping_sub(self.base);
                (off < self.n).then_some(off as usize)
            }
            Some(m) => m.get(&r).copied(),
        }
    }

    /// Local index of `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is not a router of this AS.
    #[inline]
    fn of(&self, r: RouterId) -> usize {
        self.get(r).expect("router does not belong to this AS")
    }
}

/// Result of an incremental SPF update ([`Igp::delta_fail_links`]).
#[derive(Clone, Debug, Default)]
pub struct SpfDelta {
    /// Routers whose distance vector changed. The BGP decision process
    /// only consults per-source distances, so it must be replayed for
    /// exactly these routers (and no others).
    pub dirty_sources: Vec<RouterId>,
    /// Router pairs `(a, b)` with `a < b` that lost intra-AS
    /// reachability — their iBGP session just died.
    pub lost_pairs: Vec<(RouterId, RouterId)>,
    /// Number of single-source SPF runs the delta actually performed.
    pub recomputed: usize,
}

/// Converged SPF state for one AS: all-pairs distances and first hops over
/// the AS's *up* intra-domain links.
///
/// The tables are flat row-major matrices (stride = router count) and the
/// AS's static intra-domain adjacency is a local-index CSR, so a full
/// recompute is contiguous array traffic with no per-node allocation.
#[derive(Clone, Debug)]
pub struct AsIgp {
    as_id: AsId,
    routers: Vec<RouterId>,
    local: LocalIndex,
    /// Local intra-domain CSR: edges of local router `i` are
    /// `intra[intra_off[i] .. intra_off[i + 1]]`.
    intra_off: Vec<u32>,
    intra: Vec<IntraEdge>,
    /// `dist[i * n + j]`: shortest-path weight from routers[i] to
    /// routers[j] (`INF` when unreachable).
    dist: Vec<u64>,
    /// `next_hop[i * n + j]`: raw id of the first router on the path from
    /// routers[i] to routers[j] (`NO_HOP` when unreachable or `i == j`).
    next_hop: Vec<u32>,
}

impl AsIgp {
    /// Runs SPF for `as_id` over the currently-up intra links, reporting
    /// `igp.spf_runs` / `igp.settled_nodes` to `recorder`. Counters are
    /// batched locally and flushed once.
    pub fn compute(
        topology: &Topology,
        as_id: AsId,
        links: &LinkState,
        recorder: &RecorderHandle,
    ) -> Self {
        let routers = topology.as_node(as_id).routers.clone();
        let local = LocalIndex::build(&routers);
        let n = routers.len();

        // The static local CSR, in the topology's adjacency order.
        let mut intra_off = Vec::with_capacity(n + 1);
        let mut intra = Vec::new();
        intra_off.push(0u32);
        for &r in &routers {
            for e in topology.adjacency(r) {
                if e.kind != LinkKind::Intra {
                    continue;
                }
                let Some(p) = local.get(e.peer) else { continue };
                intra.push(IntraEdge {
                    peer: p as u32,
                    weight: e.weight,
                    link: e.link,
                });
            }
            intra_off.push(intra.len() as u32);
        }

        let mut dist = vec![INF; n * n];
        let mut next_hop = vec![NO_HOP; n * n];
        let mut done = vec![false; n];
        let mut heap = BinaryHeap::new();

        let mut settled: u64 = 0;
        for src_local in 0..n {
            done.fill(false);
            settled += dijkstra(
                &intra_off,
                &intra,
                links,
                &routers,
                src_local,
                &mut dist[src_local * n..(src_local + 1) * n],
                &mut next_hop[src_local * n..(src_local + 1) * n],
                &mut done,
                &mut heap,
            );
        }
        if recorder.enabled() {
            recorder.add(names::IGP_SPF_RUNS, n as u64);
            recorder.add(names::IGP_SETTLED_NODES, settled);
        }
        recorder.event(names::EV_IGP_SPF, || {
            netdiag_obs::EventPayload::new()
                .field("as", as_id.index())
                .field("routers", n)
                .field("settled", settled)
        });

        AsIgp {
            as_id,
            routers,
            local,
            intra_off,
            intra,
            dist,
            next_hop,
        }
    }

    /// The AS this state belongs to.
    pub fn as_id(&self) -> AsId {
        self.as_id
    }

    /// Shortest-path distance, or `None` if `to` is unreachable from `from`.
    ///
    /// # Panics
    ///
    /// Panics if either router is not in this AS.
    // hot
    pub fn dist(&self, from: RouterId, to: RouterId) -> Option<u64> {
        let d = self.dist[self.local.of(from) * self.routers.len() + self.local.of(to)];
        (d != INF).then_some(d)
    }

    /// First hop on the shortest path from `from` to `to`.
    ///
    /// Returns `None` when unreachable or when `from == to`.
    ///
    /// # Panics
    ///
    /// Panics if either router is not in this AS.
    pub fn next_hop(&self, from: RouterId, to: RouterId) -> Option<RouterId> {
        let h = self.next_hop[self.local.of(from) * self.routers.len() + self.local.of(to)];
        (h != NO_HOP).then_some(RouterId(h))
    }

    /// True if an intra-AS path currently exists between the two routers.
    pub fn reachable(&self, from: RouterId, to: RouterId) -> bool {
        self.dist(from, to).is_some()
    }

    /// *All* equal-cost first hops from `from` toward `to` (ECMP set),
    /// sorted by router id. Empty when unreachable or `from == to`.
    ///
    /// The deterministic [`AsIgp::next_hop`] is always a member of this
    /// set; the data plane uses the full set for flow-based load balancing
    /// (what Paris traceroute enumerates).
    pub fn next_hops(
        &self,
        topology: &Topology,
        links: &LinkState,
        from: RouterId,
        to: RouterId,
    ) -> Vec<RouterId> {
        if from == to {
            return Vec::new();
        }
        let Some(total) = self.dist(from, to) else {
            return Vec::new();
        };
        let mut hops: Vec<RouterId> = topology
            .adjacency(from)
            .iter()
            .filter(|e| {
                e.kind == LinkKind::Intra
                    && links.is_up(e.link)
                    && self.local.get(e.peer).is_some()
                    && self
                        .dist(e.peer, to)
                        .is_some_and(|rest| u64::from(e.weight) + rest == total)
            })
            .map(|e| e.peer)
            .collect();
        hops.sort_unstable();
        hops.dedup();
        hops
    }

    /// Routers of this AS in local order.
    pub fn routers(&self) -> &[RouterId] {
        &self.routers
    }

    /// Local indices of sources whose shortest-path DAG traverses any of
    /// the `failed` links — the cone that must be recomputed.
    ///
    /// Exact, not conservative: relative to the pre-failure distance
    /// matrix, some shortest path from source `s` uses edge `(u, v)` iff
    /// the edge is *tight* from `s` (`dist[s][u] + w(u→v) == dist[s][v]`
    /// or the reverse orientation). Sources outside the cone keep every
    /// one of their old shortest paths, so their distances, deterministic
    /// first hops and ECMP sets are all provably unchanged.
    fn affected_sources(&self, topology: &Topology, failed: &[LinkId]) -> Vec<usize> {
        let n = self.routers.len();
        if n == 0 {
            return Vec::new();
        }
        let mut hit = vec![false; n];
        for &lid in failed {
            let link = topology.link(lid);
            if link.kind != LinkKind::Intra {
                continue;
            }
            let (Some(ul), Some(vl)) = (self.local.get(link.a), self.local.get(link.b)) else {
                continue;
            };
            let w_uv = u64::from(link.weight_from(link.a));
            let w_vu = u64::from(link.weight_from(link.b));
            for (i, row) in self.dist.chunks_exact(n).enumerate() {
                if hit[i] {
                    continue;
                }
                let (du, dv) = (row[ul], row[vl]);
                if (du != INF && du + w_uv == dv) || (dv != INF && dv + w_vu == du) {
                    hit[i] = true;
                }
            }
        }
        hit.iter()
            .enumerate()
            .filter_map(|(i, &h)| h.then_some(i))
            .collect()
    }
}

/// Single-source Dijkstra over the local intra-domain CSR (up links
/// only), writing distances and raw first-hop ids into the provided flat
/// rows. `done` and `heap` are caller-provided scratch — `done` reset to
/// `false`, `heap` handed back empty (the main loop drains it) — so the
/// per-source loop allocates nothing once the heap's backing buffer has
/// grown to the frontier's high-water mark. Returns the number of
/// settled nodes.
///
/// Tie-breaking is deterministic: on equal distance the path through the
/// lower-id predecessor wins (heap pops `(dist, local_index)` in order —
/// local indices ascend with router id — and later relaxations require
/// strictly smaller distance).
///
/// Heap entries are `(Reverse(dist), local index, first hop raw id)`.
// hot
#[allow(clippy::too_many_arguments)]
fn dijkstra(
    intra_off: &[u32],
    intra: &[IntraEdge],
    links: &LinkState,
    routers: &[RouterId],
    src_local: usize,
    dist_row: &mut [u64],
    nh_row: &mut [u32],
    done: &mut [bool],
    heap: &mut BinaryHeap<(Reverse<u64>, u32, u32)>,
) -> u64 {
    debug_assert!(heap.is_empty(), "scratch heap must be handed back drained");
    dist_row[src_local] = 0;
    heap.push((Reverse(0), src_local as u32, NO_HOP));
    let mut settled: u64 = 0;

    while let Some((Reverse(d), u, first)) = heap.pop() {
        let ul = u as usize;
        if done[ul] {
            continue;
        }
        done[ul] = true;
        settled += 1;
        nh_row[ul] = first;
        for e in &intra[intra_off[ul] as usize..intra_off[ul + 1] as usize] {
            if !links.is_up(e.link) {
                continue;
            }
            debug_assert!(e.weight >= 1, "IGP weights must be >= 1");
            let vl = e.peer as usize;
            let nd = d + u64::from(e.weight);
            if nd < dist_row[vl] {
                dist_row[vl] = nd;
                let first_hop = if ul == src_local {
                    routers[vl].0
                } else {
                    first
                };
                heap.push((Reverse(nd), e.peer, first_hop));
            }
        }
    }
    nh_row[src_local] = NO_HOP;
    settled
}

/// Per-AS IGP state for an entire topology.
///
/// Each AS's converged tables sit behind an [`Arc`], so cloning an `Igp`
/// is O(#ASes) pointer bumps. A recompute replaces the affected AS's Arc
/// wholesale; untouched ASes keep sharing their tables with every clone.
#[derive(Clone, Debug)]
pub struct Igp {
    per_as: Vec<Arc<AsIgp>>,
}

impl Igp {
    /// Computes SPF for every AS.
    pub fn compute(topology: &Topology, links: &LinkState) -> Self {
        Self::compute_parallel(topology, links, 1, &RecorderHandle::noop())
    }

    /// Computes SPF for every AS, fanning the independent per-AS runs over
    /// `threads` scoped workers and reporting SPF counters to `recorder`.
    /// Each AS's tables depend only on the immutable topology and link
    /// state, so the result is byte-identical for any thread count:
    /// workers own disjoint contiguous chunks which are stitched back in
    /// AS order. One thread runs in line on the caller. An attached
    /// tracer forces one thread, so `igp.spf_recompute` events stay in AS
    /// order (the same rule as `Bgp::run_sharded`).
    pub fn compute_parallel(
        topology: &Topology,
        links: &LinkState,
        threads: usize,
        recorder: &RecorderHandle,
    ) -> Self {
        let ases = topology.ases();
        let threads = if recorder.trace_enabled() {
            1
        } else {
            threads.clamp(1, ases.len().max(1))
        };
        let compute_chunk = |slice: &[AsNode]| -> Vec<Arc<AsIgp>> {
            slice
                .iter()
                .map(|a| Arc::new(AsIgp::compute(topology, a.id, links, recorder)))
                .collect()
        };
        if threads == 1 {
            return Igp {
                per_as: compute_chunk(ases),
            };
        }
        let mut per_as = Vec::with_capacity(ases.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = ases
                .chunks(ases.len().div_ceil(threads))
                .map(|slice| s.spawn(move || compute_chunk(slice)))
                .collect();
            for h in handles {
                per_as.extend(h.join().expect("SPF worker panicked"));
            }
        });
        Igp { per_as }
    }

    /// The converged state of one AS.
    pub fn of(&self, as_id: AsId) -> &AsIgp {
        &self.per_as[as_id.index()]
    }

    /// True when the AS's tables are shared with another `Igp` clone, i.e.
    /// replacing them breaks copy-on-write sharing.
    pub fn is_shared(&self, as_id: AsId) -> bool {
        Arc::strong_count(&self.per_as[as_id.index()]) > 1
    }

    /// Recomputes a single AS after its intra-domain link state changed,
    /// reporting SPF counters to `recorder`.
    pub fn recompute_as(
        &mut self,
        topology: &Topology,
        as_id: AsId,
        links: &LinkState,
        recorder: &RecorderHandle,
    ) {
        self.per_as[as_id.index()] = Arc::new(AsIgp::compute(topology, as_id, links, recorder));
    }

    /// Incrementally updates one AS after the given links went down,
    /// recomputing only the cone of sources whose shortest-path DAG used
    /// a failed edge.
    ///
    /// Produces the exact same tables as [`Igp::recompute_as`]
    /// (same distances, same deterministic tie-breaks, same ECMP sets) —
    /// unaffected sources keep all their old shortest paths, so skipping
    /// them is lossless. When *no* source is affected the shared per-AS
    /// table is left untouched: no copy-on-write break, no allocation.
    ///
    /// Only valid for link *failures* (distances can only grow); repairs
    /// must go through a full recompute.
    pub fn delta_fail_links(
        &mut self,
        topology: &Topology,
        as_id: AsId,
        links: &LinkState,
        failed: &[LinkId],
        recorder: &RecorderHandle,
    ) -> SpfDelta {
        let affected = self.per_as[as_id.index()].affected_sources(topology, failed);
        if affected.is_empty() {
            return SpfDelta::default();
        }
        let a = Arc::make_mut(&mut self.per_as[as_id.index()]);
        let mut delta = SpfDelta {
            recomputed: affected.len(),
            ..SpfDelta::default()
        };
        let n = a.routers.len();
        let mut old_dist = vec![INF; n];
        let mut done = vec![false; n];
        let mut heap = BinaryHeap::new();
        let mut settled: u64 = 0;
        for &i in &affected {
            let src = a.routers[i];
            let row = i * n..(i + 1) * n;
            old_dist.copy_from_slice(&a.dist[row.clone()]);
            a.dist[row.clone()].fill(INF);
            a.next_hop[row.clone()].fill(NO_HOP);
            done.fill(false);
            settled += dijkstra(
                &a.intra_off,
                &a.intra,
                links,
                &a.routers,
                i,
                &mut a.dist[row.clone()],
                &mut a.next_hop[row.clone()],
                &mut done,
                &mut heap,
            );
            if a.dist[row.clone()] != old_dist[..] {
                delta.dirty_sources.push(src);
                for (j, (&new_d, &old_d)) in a.dist[row].iter().zip(old_dist.iter()).enumerate() {
                    if old_d != INF && new_d == INF && src < a.routers[j] {
                        delta.lost_pairs.push((src, a.routers[j]));
                    }
                }
            }
        }
        if recorder.enabled() {
            recorder.add(names::IGP_SPF_RUNS, affected.len() as u64);
            recorder.add(names::IGP_SETTLED_NODES, settled);
            recorder.add(names::IGP_SPF_DELTA_NODES, delta.recomputed as u64);
        }
        recorder.event(names::EV_IGP_SPF, || {
            netdiag_obs::EventPayload::new()
                .field("as", as_id.index())
                .field("routers", n)
                .field("settled", settled)
                .field("delta", delta.recomputed)
        });
        delta
    }

    /// Convenience: distance between two routers of the same AS.
    ///
    /// # Panics
    ///
    /// Panics if the routers are in different ASes.
    pub fn dist(&self, topology: &Topology, from: RouterId, to: RouterId) -> Option<u64> {
        let a = topology.as_of_router(from);
        assert_eq!(a, topology.as_of_router(to), "routers in different ASes");
        self.of(a).dist(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdiag_topology::{AsKind, LinkId, TopologyBuilder};

    /// A 4-router diamond: r0-r1 (1), r0-r2 (2), r1-r3 (1), r2-r3 (1).
    fn diamond() -> (Topology, [RouterId; 4]) {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Core, "A");
        let r0 = b.add_router(a, "r0");
        let r1 = b.add_router(a, "r1");
        let r2 = b.add_router(a, "r2");
        let r3 = b.add_router(a, "r3");
        b.add_intra_link(r0, r1, 1);
        b.add_intra_link(r0, r2, 2);
        b.add_intra_link(r1, r3, 1);
        b.add_intra_link(r2, r3, 1);
        (b.build().unwrap(), [r0, r1, r2, r3])
    }

    #[test]
    fn shortest_path_distances() {
        let (t, [r0, r1, r2, r3]) = diamond();
        let links = LinkState::all_up(&t);
        let igp = Igp::compute(&t, &links);
        let a = igp.of(AsId(0));
        assert_eq!(a.dist(r0, r3), Some(2)); // via r1
        assert_eq!(a.dist(r0, r2), Some(2)); // direct
        assert_eq!(a.next_hop(r0, r3), Some(r1));
        assert_eq!(a.next_hop(r0, r0), None);
        assert_eq!(a.dist(r0, r0), Some(0));
        assert_eq!(a.dist(r3, r0), Some(2)); // symmetric weights
        assert_eq!(a.next_hop(r1, r2), Some(r3)); // 1+1=2 via r3 vs 1+2=3 via r0
    }

    #[test]
    fn next_hop_via_r3_for_r1_to_r2() {
        let (t, [_, r1, r2, r3]) = diamond();
        let links = LinkState::all_up(&t);
        let igp = Igp::compute(&t, &links);
        // r1->r2: via r3 costs 2, via r0 costs 3.
        assert_eq!(igp.of(AsId(0)).next_hop(r1, r2), Some(r3));
    }

    #[test]
    fn reroute_after_link_failure() {
        let (t, [r0, r1, _, r3]) = diamond();
        let mut links = LinkState::all_up(&t);
        // Fail r0-r1 (link 0): r0 must now reach r3 via r2.
        links.set_down(t.link_between(r0, r1).unwrap());
        let igp = Igp::compute(&t, &links);
        let a = igp.of(AsId(0));
        assert_eq!(a.dist(r0, r3), Some(3));
        assert_eq!(a.next_hop(r0, r3), a.next_hop(r0, r3));
        assert_eq!(a.dist(r0, r1), Some(4)); // r0-r2-r3-r1
    }

    #[test]
    fn partition_detected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Core, "A");
        let r0 = b.add_router(a, "r0");
        let r1 = b.add_router(a, "r1");
        let l = b.add_intra_link(r0, r1, 5);
        let t = b.build().unwrap();
        let mut links = LinkState::all_up(&t);
        links.set_down(l);
        let igp = Igp::compute(&t, &links);
        assert_eq!(igp.of(AsId(0)).dist(r0, r1), None);
        assert!(!igp.of(AsId(0)).reachable(r0, r1));
        assert_eq!(igp.of(AsId(0)).next_hop(r0, r1), None);
    }

    #[test]
    fn recompute_single_as() {
        let (t, [r0, r1, _, _]) = diamond();
        let mut links = LinkState::all_up(&t);
        let mut igp = Igp::compute(&t, &links);
        assert_eq!(igp.of(AsId(0)).dist(r0, r1), Some(1));
        links.set_down(LinkId(0));
        igp.recompute_as(&t, AsId(0), &links, &RecorderHandle::noop());
        assert_eq!(igp.of(AsId(0)).dist(r0, r1), Some(4));
    }

    #[test]
    fn delta_fail_matches_full_recompute() {
        let (t, routers) = diamond();
        for lid in 0..4u32 {
            let mut links = LinkState::all_up(&t);
            let mut inc = Igp::compute(&t, &links);
            links.set_down(LinkId(lid));
            let delta = inc.delta_fail_links(
                &t,
                AsId(0),
                &links,
                &[LinkId(lid)],
                &netdiag_obs::RecorderHandle::noop(),
            );
            let full = Igp::compute(&t, &links);
            for &a in &routers {
                for &b in &routers {
                    assert_eq!(inc.of(AsId(0)).dist(a, b), full.of(AsId(0)).dist(a, b));
                    assert_eq!(
                        inc.of(AsId(0)).next_hop(a, b),
                        full.of(AsId(0)).next_hop(a, b)
                    );
                    assert_eq!(
                        inc.of(AsId(0)).next_hops(&t, &links, a, b),
                        full.of(AsId(0)).next_hops(&t, &links, a, b)
                    );
                }
            }
            assert!(delta.recomputed > 0, "every diamond edge is on some tree");
            assert!(delta.lost_pairs.is_empty(), "diamond stays connected");
        }
    }

    #[test]
    fn delta_skips_unused_edge_without_cow_break() {
        // Triangle where the r0-r2 edge (weight 5) is on no shortest path.
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Core, "A");
        let r0 = b.add_router(a, "r0");
        let r1 = b.add_router(a, "r1");
        let r2 = b.add_router(a, "r2");
        b.add_intra_link(r0, r1, 1);
        b.add_intra_link(r1, r2, 1);
        let unused = b.add_intra_link(r0, r2, 5);
        let t = b.build().unwrap();
        let mut links = LinkState::all_up(&t);
        let mut inc = Igp::compute(&t, &links);
        let shared = inc.clone();
        links.set_down(unused);
        let delta = inc.delta_fail_links(
            &t,
            AsId(0),
            &links,
            &[unused],
            &netdiag_obs::RecorderHandle::noop(),
        );
        assert_eq!(delta.recomputed, 0);
        assert!(delta.dirty_sources.is_empty());
        assert!(inc.is_shared(AsId(0)), "no-op delta must not break CoW");
        assert_eq!(inc.of(AsId(0)).dist(r0, r2), Some(2));
        drop(shared);
    }

    #[test]
    fn delta_reports_lost_pairs_on_partition() {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Core, "A");
        let r0 = b.add_router(a, "r0");
        let r1 = b.add_router(a, "r1");
        let l = b.add_intra_link(r0, r1, 5);
        let t = b.build().unwrap();
        let mut links = LinkState::all_up(&t);
        let mut inc = Igp::compute(&t, &links);
        links.set_down(l);
        let delta = inc.delta_fail_links(
            &t,
            AsId(0),
            &links,
            &[l],
            &netdiag_obs::RecorderHandle::noop(),
        );
        assert_eq!(delta.lost_pairs, vec![(r0, r1)]);
        assert_eq!(delta.dirty_sources, vec![r0, r1]);
        assert!(!inc.of(AsId(0)).reachable(r0, r1));
    }

    #[test]
    fn inter_links_ignored_by_spf() {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Core, "A");
        let c = b.add_as(AsKind::Stub, "C");
        let r0 = b.add_router(a, "r0");
        let r1 = b.add_router(a, "r1");
        b.add_intra_link(r0, r1, 3);
        let c0 = b.add_router(c, "c0");
        b.add_inter_link(r1, c0, netdiag_topology::LinkRelationship::ProviderCustomer);
        let t = b.build().unwrap();
        let igp = Igp::compute(&t, &LinkState::all_up(&t));
        // The inter link exists but SPF state only covers AS members.
        assert_eq!(igp.of(a).dist(r0, r1), Some(3));
        assert_eq!(igp.of(c).dist(c0, c0), Some(0));
    }

    #[test]
    fn parallel_compute_reports_the_one_thread_counters_and_events() {
        use netdiag_topology::builders::{build_internet, InternetConfig};
        let net = build_internet(&InternetConfig::small(1));
        let t = &net.topology;
        let links = LinkState::all_up(t);
        let counters = |threads| {
            let (recorder, live) = RecorderHandle::live();
            Igp::compute_parallel(t, &links, threads, &recorder);
            let report = live.snapshot();
            (
                report.counter(names::IGP_SPF_RUNS),
                report.counter(names::IGP_SETTLED_NODES),
            )
        };
        assert!(counters(1).0 > 0);
        assert_eq!(counters(1), counters(2));
        // A tracer forces one thread, so the events keep AS order.
        let payloads = |threads| {
            let (recorder, trace) = RecorderHandle::tracing();
            Igp::compute_parallel(t, &links, threads, &recorder);
            let events = trace.events();
            events.into_iter().map(|e| e.payload).collect::<Vec<_>>()
        };
        assert_eq!(payloads(1), payloads(2));
    }

    #[test]
    fn parallel_compute_matches_sequential() {
        let (t, routers) = diamond();
        let links = LinkState::all_up(&t);
        let seq = Igp::compute(&t, &links);
        let par = Igp::compute_parallel(&t, &links, 4, &RecorderHandle::noop());
        for &a in &routers {
            for &b in &routers {
                assert_eq!(seq.of(AsId(0)).dist(a, b), par.of(AsId(0)).dist(a, b));
                assert_eq!(
                    seq.of(AsId(0)).next_hop(a, b),
                    par.of(AsId(0)).next_hop(a, b)
                );
            }
        }
    }

    #[test]
    fn forwarding_along_next_hops_terminates() {
        // Walk next hops from every router to every other; must reach the
        // destination within n hops (loop-freedom).
        let (t, routers) = diamond();
        let igp = Igp::compute(&t, &LinkState::all_up(&t));
        let a = igp.of(AsId(0));
        for &s in &routers {
            for &d in &routers {
                let mut cur = s;
                let mut hops = 0;
                while cur != d {
                    cur = a.next_hop(cur, d).expect("reachable");
                    hops += 1;
                    assert!(hops <= routers.len(), "forwarding loop");
                }
            }
        }
    }
}

#[cfg(test)]
mod ecmp_tests {
    use super::*;
    use netdiag_topology::{AsKind, TopologyBuilder};

    /// Square with equal weights: two equal-cost paths r0->r3.
    fn square() -> (Topology, [RouterId; 4]) {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Core, "A");
        let r0 = b.add_router(a, "r0");
        let r1 = b.add_router(a, "r1");
        let r2 = b.add_router(a, "r2");
        let r3 = b.add_router(a, "r3");
        b.add_intra_link(r0, r1, 1);
        b.add_intra_link(r0, r2, 1);
        b.add_intra_link(r1, r3, 1);
        b.add_intra_link(r2, r3, 1);
        (b.build().unwrap(), [r0, r1, r2, r3])
    }

    #[test]
    fn ecmp_set_contains_all_equal_cost_hops() {
        let (t, [r0, r1, r2, r3]) = square();
        let links = LinkState::all_up(&t);
        let igp = Igp::compute(&t, &links);
        let a = igp.of(AsId(0));
        assert_eq!(a.next_hops(&t, &links, r0, r3), vec![r1, r2]);
        // The deterministic next hop is an ECMP member.
        let nh = a.next_hop(r0, r3).unwrap();
        assert!(a.next_hops(&t, &links, r0, r3).contains(&nh));
        // Unequal costs collapse the set.
        assert_eq!(a.next_hops(&t, &links, r0, r1), vec![r1]);
        assert!(a.next_hops(&t, &links, r0, r0).is_empty());
    }

    #[test]
    fn ecmp_set_respects_link_failures() {
        let (t, [r0, r1, _, r3]) = square();
        let mut links = LinkState::all_up(&t);
        links.set_down(t.link_between(r0, r1).unwrap());
        let igp = Igp::compute(&t, &links);
        let a = igp.of(AsId(0));
        assert_eq!(a.next_hops(&t, &links, r0, r3), vec![RouterId(2)]);
    }
}
