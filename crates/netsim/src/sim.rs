//! The simulator bundle: topology + link state + IGP + BGP, with failure
//! application and deterministic reconvergence.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use netdiag_bgp::{Bgp, Ctx, ExportDeny, ObservedMsg};
use netdiag_igp::{Igp, LinkState, SpfDelta};
use netdiag_obs::{names, RecorderHandle};
use netdiag_topology::{AsId, LinkId, LinkKind, RouterId, Topology};

/// An IGP "link down" event, as seen by the operator of the link's AS.
///
/// The paper's ND-bgpigp consumes these for links inside AS-X.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IgpLinkDown {
    /// The failed intra-domain link.
    pub link: LinkId,
    /// The AS that owns it.
    pub as_id: AsId,
}

/// All mutable routing state of a [`Sim`], captured at one instant.
///
/// Taking a snapshot is cheap: per-AS IGP tables and per-prefix BGP
/// columns live behind `Arc`s, so the capture is O(#ASes + #prefixes)
/// pointer bumps. [`Sim::restore`] rolls the simulator back to the
/// captured state, which lets one scratch simulator serve many failure
/// experiments in a row instead of cloning a fresh simulator per
/// experiment.
#[derive(Clone)]
pub struct SimSnapshot {
    links: LinkState,
    igp: Igp,
    bgp: Bgp,
    igp_events: Vec<IgpLinkDown>,
    messages: u64,
}

/// A runnable network: static topology plus all dynamic routing state.
///
/// `Sim` is `Clone`, so a converged healthy network can be snapshotted once
/// and each failure experiment applied to a fresh copy. Cloning is cheap
/// (copy-on-write: shared state is only copied for the ASes and prefixes
/// a mutation actually touches).
///
/// ```
/// use std::sync::Arc;
/// use netdiag_netsim::Sim;
/// use netdiag_topology::builders::{build_internet, InternetConfig};
///
/// let net = build_internet(&InternetConfig::small(1));
/// let mut sim = Sim::new(Arc::new(net.topology.clone()));
/// sim.converge_all();
/// // Snapshot, break a link in the copy, and compare.
/// let mut broken = sim.clone();
/// broken.fail_link(net.topology.links()[0].id);
/// assert!(sim.links().is_up(net.topology.links()[0].id));
/// assert!(!broken.links().is_up(net.topology.links()[0].id));
/// ```
#[derive(Clone)]
pub struct Sim {
    topology: Arc<Topology>,
    links: LinkState,
    igp: Igp,
    bgp: Bgp,
    /// Registered end hosts (sensor address -> attach router).
    hosts: HashMap<Ipv4Addr, RouterId>,
    /// IGP link-down events since the last take.
    igp_events: Vec<IgpLinkDown>,
    /// Cumulative BGP message count across all convergences.
    messages: u64,
    /// Instrumentation sink, shared by clones (`igp.*`/`bgp.*`/`probe.*`).
    recorder: RecorderHandle,
}

impl Sim {
    /// Creates a simulator with all links up, IGP converged, and an empty
    /// BGP over every AS's prefix — call [`Sim::converge_for`] or
    /// [`Sim::converge_all`] next. The all-ASes, uninstrumented case of
    /// [`Sim::with_origins`].
    pub fn new(topology: Arc<Topology>) -> Self {
        Self::new_parallel(topology, 1)
    }

    /// [`Sim::new`] with the initial per-AS SPF runs fanned over `threads`
    /// scoped workers ([`Igp::compute_parallel`]). Byte-identical to
    /// [`Sim::new`]: each AS's IGP tables depend only on the immutable
    /// topology and link state.
    pub fn new_parallel(topology: Arc<Topology>, threads: usize) -> Self {
        let all: Vec<AsId> = topology.ases().iter().map(|a| a.id).collect();
        Self::base(topology, threads, RecorderHandle::noop()).scoped(&all, RecorderHandle::noop())
    }

    /// A simulator whose BGP prefix space holds only the prefixes of
    /// `origins` ([`Bgp::with_origins`]), with an instrumentation sink:
    /// RIBs are sized to the prefixes the simulator will ever originate,
    /// so copy-on-write breaks and longest-prefix-match scans touch only
    /// those, and all IGP/BGP/probe work of this simulator (including the
    /// initial SPF and every clone taken from it) reports to `recorder`.
    /// Only these ASes may be passed to [`Sim::converge_for`]. A fresh
    /// [`Sim::base`] scoped to `origins`; callers that build many
    /// simulators over one topology keep the base and call
    /// [`Sim::scoped`] instead.
    pub fn with_origins(
        topology: Arc<Topology>,
        origins: &[AsId],
        recorder: RecorderHandle,
    ) -> Self {
        Self::base(topology, 1, recorder.clone()).scoped(origins, recorder)
    }

    /// The healthy base every constructor scopes: all links up, every
    /// AS's SPF run (on `threads` workers, reporting to `recorder`), the
    /// BGP session tables and the session-liveness cache built, and an
    /// empty prefix space, so nothing can be originated on the base
    /// itself. Everything in it depends on the topology alone; give each
    /// origin set its own simulator with [`Sim::scoped`].
    pub fn base(topology: Arc<Topology>, threads: usize, recorder: RecorderHandle) -> Self {
        let links = LinkState::all_up(&topology);
        let igp = Igp::compute_parallel(&topology, &links, threads, &recorder);
        let mut bgp = Bgp::with_origins(&topology, &[]);
        bgp.recompute_liveness(Ctx {
            topology: &topology,
            igp: &igp,
            links: &links,
        });
        Sim {
            topology,
            links,
            igp,
            bgp,
            hosts: HashMap::new(),
            igp_events: Vec::new(),
            messages: 0,
            recorder,
        }
    }

    /// A simulator over the prefix space of `origins` ([`Bgp::scoped`])
    /// that shares this healthy base's topology, per-AS IGP tables and
    /// BGP session tables: it copies only the link-state bits and the
    /// session-liveness bytes and sizes fresh BGP columns, and reports to
    /// `recorder`. A failure in the scoped simulator breaks
    /// copy-on-write sharing as it does in a clone, so it never reaches
    /// the base or a sibling.
    ///
    /// `self` must be healthy and have originated nothing: no failed
    /// link, no IGP event, no message, and a BGP engine with no column,
    /// no filter and an empty queue (checked in debug builds). A
    /// [`Sim::base`] is that.
    pub fn scoped(&self, origins: &[AsId], recorder: RecorderHandle) -> Self {
        debug_assert!(
            self.links.none_down() && self.igp_events.is_empty() && self.messages == 0,
            "Sim::scoped needs a healthy base"
        );
        let mut sim = self.clone();
        sim.bgp = self.bgp.scoped(&self.topology, origins);
        sim.bgp.set_recorder(recorder.clone());
        sim.recorder = recorder;
        sim
    }

    /// The simulator's instrumentation sink.
    pub fn recorder(&self) -> &RecorderHandle {
        &self.recorder
    }

    /// Captures all mutable routing state (cheap: Arc bumps, no table
    /// copies). Restore with [`Sim::restore`].
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            links: self.links.clone(),
            igp: self.igp.clone(),
            bgp: self.bgp.clone(),
            igp_events: self.igp_events.clone(),
            messages: self.messages,
        }
    }

    /// Rolls all mutable routing state back to `snap`, undoing every
    /// failure, repair and misconfiguration applied since the capture.
    /// Topology, registered hosts and the recorder are immutable across
    /// failure experiments and stay as they are.
    pub fn restore(&mut self, snap: &SimSnapshot) {
        self.links = snap.links.clone();
        self.igp = snap.igp.clone();
        self.bgp = snap.bgp.clone();
        self.igp_events = snap.igp_events.clone();
        self.messages = snap.messages;
    }

    /// Originates the prefixes of the given ASes and converges
    /// ([`Bgp::converge`]).
    ///
    /// The prefixes converge one at a time, in ascending prefix order, so
    /// the message queue holds one prefix's in-flight messages. Routing
    /// toward a prefix is independent of other prefixes in this model,
    /// which also lets experiments originate only the sensor ASes'
    /// prefixes (and build the simulator with [`Sim::with_origins`] scoped
    /// to them).
    ///
    /// # Panics
    ///
    /// Panics if an AS is outside the simulator's prefix space (see
    /// [`Sim::with_origins`]).
    pub fn converge_for(&mut self, ases: &[AsId]) {
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        self.messages += self.bgp.converge(ctx, ases).messages;
    }

    /// Originates every AS's prefix and converges (on a simulator with the
    /// full prefix space; see the panics of [`Sim::converge_for`]): the
    /// one-thread case of [`Sim::converge_all_sharded`].
    pub fn converge_all(&mut self) {
        self.converge_all_sharded(1);
    }

    /// [`Sim::converge_all`] with the prefix space split over `threads`
    /// workers ([`Bgp::run_sharded`]). Each worker takes ownership of its
    /// prefixes' BGP columns, converges those prefixes one at a time as
    /// [`Sim::converge_for`] does, and hands the columns back. Routing
    /// toward one prefix never reads another prefix's state in this
    /// model, so every thread count reaches the same state with the same
    /// message count, asserted by the equivalence tests. With
    /// `threads <= 1`, or with an observer or tracer attached (each
    /// records from one engine), this is [`Sim::converge_for`] over every
    /// AS.
    pub fn converge_all_sharded(&mut self, threads: usize) {
        let ids: Vec<AsId> = self.topology.ases().iter().map(|a| a.id).collect();
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        self.messages += self.bgp.run_sharded(ctx, &ids, threads).messages;
    }

    /// Designates the observer AS (AS-X) whose received eBGP messages are
    /// recorded.
    pub fn set_observer(&mut self, as_id: AsId) {
        self.bgp.set_observer(as_id);
    }

    /// Drains eBGP messages observed at the observer AS.
    pub fn take_observed(&mut self) -> Vec<ObservedMsg> {
        self.bgp.take_observed()
    }

    /// Drains recorded IGP link-down events (all ASes; filter by
    /// [`IgpLinkDown::as_id`] for the observer's view).
    pub fn take_igp_events(&mut self) -> Vec<IgpLinkDown> {
        std::mem::take(&mut self.igp_events)
    }

    /// Registers an end host (e.g. a sensor) attached to a router.
    pub fn register_host(&mut self, addr: Ipv4Addr, attach: RouterId) {
        self.hosts.insert(addr, attach);
    }

    /// The attach router of a registered host address.
    pub fn host_router(&self, addr: Ipv4Addr) -> Option<RouterId> {
        self.hosts.get(&addr).copied()
    }

    /// Fails a set of links simultaneously and reconverges *incrementally*:
    /// delta-SPF recomputes only the cone of routers whose shortest-path
    /// DAG used a failed edge, and BGP replays the decision process only
    /// for the sessions/routers the delta actually touched. The replay
    /// queues every affected prefix and one drain delivers them a prefix
    /// at a time ([`Bgp::run`]).
    ///
    /// Byte-identical to the full path ([`Sim::fail_links_full`]) in every
    /// observable: RIBs, forwarding, observed eBGP stream, IGP events.
    /// The cow_equivalence proptests hold the two paths against each
    /// other.
    pub fn fail_links(&mut self, failed: &[LinkId]) {
        // Phase 1: link state + failure events, same order as the full
        // path.
        let mut affected_ases = Vec::new();
        let mut downed = Vec::new();
        for &l in failed {
            if !self.links.set_down(l) {
                continue; // already down
            }
            downed.push(l);
            let link = self.topology.link(l);
            self.recorder.event(names::EV_SIM_LINK_FAIL, || {
                netdiag_obs::EventPayload::new()
                    .field("link", l.index())
                    .field("kind", kind_str(link.kind))
                    .field("a", link.a.index())
                    .field("b", link.b.index())
            });
            if link.kind == LinkKind::Intra {
                let as_id = self.topology.as_of_router(link.a);
                self.igp_events.push(IgpLinkDown { link: l, as_id });
                if !affected_ases.contains(&as_id) {
                    affected_ases.push(as_id);
                }
            }
        }
        // Phase 2: delta-SPF per affected AS. A delta that recomputes
        // nothing leaves the shared tables untouched, so copy-on-write
        // breaks are counted only when work actually happened.
        let mut deltas: Vec<(AsId, SpfDelta)> = Vec::with_capacity(affected_ases.len());
        for &a in &affected_ases {
            let was_shared = self.igp.is_shared(a);
            let delta =
                self.igp
                    .delta_fail_links(&self.topology, a, &self.links, &downed, &self.recorder);
            if was_shared && delta.recomputed > 0 && self.recorder.enabled() {
                self.recorder.add(names::SIM_SNAPSHOT_COW_BREAKS, 1);
            }
            deltas.push((a, delta));
        }
        // Phase 3: degrade the session-liveness cache *before* any BGP
        // replay, so every liveness read during the replay sees the
        // post-failure truth (failures only take sessions down).
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        if !self.bgp.has_liveness() {
            self.bgp.recompute_liveness(ctx);
        }
        self.bgp.mark_links_down(&downed);
        for (_, d) in &deltas {
            self.bgp.mark_pairs_down(&d.lost_pairs);
        }
        // Phase 4: scoped BGP replay in the original link order; an AS's
        // scoped refresh runs once, at its first failed intra link.
        let mut refreshed: Vec<AsId> = Vec::new();
        for &l in &downed {
            let link = self.topology.link(l);
            match link.kind {
                LinkKind::Inter => self.bgp.fail_ebgp_link(ctx, l),
                LinkKind::Intra => {
                    let as_id = self.topology.as_of_router(link.a);
                    if !refreshed.contains(&as_id) {
                        refreshed.push(as_id);
                        let delta = deltas
                            .iter()
                            .find(|(a, _)| *a == as_id)
                            .map(|(_, d)| d)
                            .expect("every failed intra link's AS has a delta");
                        self.bgp.refresh_as_scoped(ctx, delta);
                    }
                }
            }
        }
        self.messages += self.bgp.run(ctx).messages;
    }

    /// The pre-incremental failure path, kept as the behavioral oracle:
    /// full per-AS SPF recompute and whole-AS BGP refresh for every
    /// failed link. [`Sim::fail_links`] must produce byte-identical
    /// observables; equivalence proptests compare the two.
    pub fn fail_links_full(&mut self, failed: &[LinkId]) {
        self.bgp.invalidate_liveness();
        let mut affected_ases = Vec::new();
        for &l in failed {
            if !self.links.set_down(l) {
                continue; // already down
            }
            let link = self.topology.link(l);
            self.recorder.event(names::EV_SIM_LINK_FAIL, || {
                netdiag_obs::EventPayload::new()
                    .field("link", l.index())
                    .field("kind", kind_str(link.kind))
                    .field("a", link.a.index())
                    .field("b", link.b.index())
            });
            if link.kind == LinkKind::Intra {
                let as_id = self.topology.as_of_router(link.a);
                self.igp_events.push(IgpLinkDown { link: l, as_id });
                if !affected_ases.contains(&as_id) {
                    affected_ases.push(as_id);
                }
            }
        }
        if self.recorder.enabled() {
            let breaks = affected_ases
                .iter()
                .filter(|&&a| self.igp.is_shared(a))
                .count();
            if breaks > 0 {
                self.recorder
                    .add(names::SIM_SNAPSHOT_COW_BREAKS, breaks as u64);
            }
        }
        for &a in &affected_ases {
            self.igp
                .recompute_as(&self.topology, a, &self.links, &self.recorder);
        }
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        for &l in failed {
            self.bgp.handle_link_down(ctx, l);
        }
        self.messages += self.bgp.run(ctx).messages;
    }

    /// Fails a single link.
    pub fn fail_link(&mut self, l: LinkId) {
        self.fail_links(&[l]);
    }

    /// Repairs a previously-failed link and reconverges: link state, IGP,
    /// then BGP session re-establishment and route refresh. Together with
    /// [`Sim::fail_link`] this models link flaps (§6 of the paper).
    pub fn repair_link(&mut self, l: LinkId) {
        if self.links.set_up(l) {
            return; // was already up
        }
        let link = self.topology.link(l);
        self.recorder.event(names::EV_SIM_LINK_REPAIR, || {
            netdiag_obs::EventPayload::new()
                .field("link", l.index())
                .field("kind", kind_str(link.kind))
                .field("a", link.a.index())
                .field("b", link.b.index())
        });
        if link.kind == LinkKind::Intra {
            let as_id = self.topology.as_of_router(link.a);
            if self.recorder.enabled() && self.igp.is_shared(as_id) {
                self.recorder.add(names::SIM_SNAPSHOT_COW_BREAKS, 1);
            }
            self.igp
                .recompute_as(&self.topology, as_id, &self.links, &self.recorder);
        }
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        // Repairs can bring sessions back up, which point updates cannot
        // express — rebuild the liveness cache from the ground truth.
        self.bgp.recompute_liveness(ctx);
        self.bgp.handle_link_up(ctx, l);
        self.messages += self.bgp.run(ctx).messages;
    }

    /// Fails a router: all its links go down simultaneously.
    pub fn fail_router(&mut self, r: RouterId) {
        let links = self.topology.router(r).links.clone();
        self.fail_links(&links);
    }

    /// Installs a BGP export-filter misconfiguration and reconverges.
    pub fn misconfigure(&mut self, rules: &[ExportDeny]) {
        let ctx = Ctx {
            topology: &self.topology,
            igp: &self.igp,
            links: &self.links,
        };
        for &rule in rules {
            self.bgp.install_filter(ctx, rule);
        }
        self.messages += self.bgp.run(ctx).messages;
    }

    /// The static topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// A shareable handle to the topology.
    pub fn topology_arc(&self) -> Arc<Topology> {
        Arc::clone(&self.topology)
    }

    /// Current link state.
    pub fn links(&self) -> &LinkState {
        &self.links
    }

    /// Converged IGP state.
    pub fn igp(&self) -> &Igp {
        &self.igp
    }

    /// Converged BGP state.
    pub fn bgp(&self) -> &Bgp {
        &self.bgp
    }

    /// Total BGP messages processed across all convergences so far
    /// (convergence-cost statistics; resets never — compare snapshots).
    pub fn bgp_messages(&self) -> u64 {
        self.messages
    }
}

/// Stable link-kind label used in trace payloads.
fn kind_str(kind: LinkKind) -> &'static str {
    match kind {
        LinkKind::Intra => "intra",
        LinkKind::Inter => "inter",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdiag_topology::{AsKind, LinkRelationship, TopologyBuilder};

    fn line() -> (Arc<Topology>, [RouterId; 3]) {
        // A (a1) -- B (b1) -- C (c1), B provider of nobody: make A-B and
        // B-C provider-customer chains so everything is reachable:
        // A is customer of B, C is customer of B.
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Stub, "A");
        let mid = b.add_as(AsKind::Tier2, "B");
        let c = b.add_as(AsKind::Stub, "C");
        let a1 = b.add_router(a, "a1");
        let b1 = b.add_router(mid, "b1");
        let c1 = b.add_router(c, "c1");
        b.add_inter_link(b1, a1, LinkRelationship::ProviderCustomer);
        b.add_inter_link(b1, c1, LinkRelationship::ProviderCustomer);
        (Arc::new(b.build().unwrap()), [a1, b1, c1])
    }

    #[test]
    fn converge_for_subset() {
        let (t, [a1, _, c1]) = line();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_for(&[AsId(2)]); // only C's prefix
        let c_prefix = t.as_node(AsId(2)).prefix;
        assert!(sim.bgp().best_route(a1, &c_prefix).is_some());
        let a_prefix = t.as_node(AsId(0)).prefix;
        assert!(sim.bgp().best_route(c1, &a_prefix).is_none());
    }

    #[test]
    fn clone_snapshot_isolates_failures() {
        let (t, [a1, b1, _]) = line();
        let mut healthy = Sim::new(Arc::clone(&t));
        healthy.converge_all();
        let mut broken = healthy.clone();
        broken.fail_link(t.link_between(a1, b1).unwrap());
        let a_prefix = t.as_node(AsId(0)).prefix;
        assert!(healthy.bgp().best_route(b1, &a_prefix).is_some());
        assert!(broken.bgp().best_route(b1, &a_prefix).is_none());
    }

    #[test]
    fn igp_events_recorded_for_intra_failures_only() {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Core, "A");
        let r0 = b.add_router(a, "r0");
        let r1 = b.add_router(a, "r1");
        let r2 = b.add_router(a, "r2");
        b.add_intra_link(r0, r1, 1);
        b.add_intra_link(r1, r2, 1);
        b.add_intra_link(r0, r2, 5);
        let stub = b.add_as(AsKind::Stub, "S");
        let s1 = b.add_router(stub, "s1");
        let inter = b.add_inter_link(r2, s1, LinkRelationship::ProviderCustomer);
        let t = Arc::new(b.build().unwrap());
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        let intra = t.link_between(r0, r1).unwrap();
        sim.fail_links(&[intra, inter]);
        let events = sim.take_igp_events();
        assert_eq!(
            events,
            vec![IgpLinkDown {
                link: intra,
                as_id: a
            }]
        );
        assert!(sim.take_igp_events().is_empty(), "take drains");
    }

    #[test]
    fn fail_router_downs_all_links() {
        let (t, [_, b1, _]) = line();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        sim.fail_router(b1);
        for &l in &t.router(b1).links {
            assert!(!sim.links().is_up(l));
        }
    }

    #[test]
    fn host_registry() {
        let (t, [a1, _, _]) = line();
        let mut sim = Sim::new(t);
        let addr = Ipv4Addr::new(10, 0, 0, 100);
        sim.register_host(addr, a1);
        assert_eq!(sim.host_router(addr), Some(a1));
        assert_eq!(sim.host_router(Ipv4Addr::new(10, 0, 0, 101)), None);
    }

    #[test]
    fn failing_already_down_link_is_idempotent() {
        let (t, [a1, b1, _]) = line();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        let l = t.link_between(a1, b1).unwrap();
        sim.fail_link(l);
        let rib_after_first: Vec<_> = sim.bgp().loc_rib(b1).map(|(p, _)| p).collect();
        sim.fail_link(l);
        let rib_after_second: Vec<_> = sim.bgp().loc_rib(b1).map(|(p, _)| p).collect();
        assert_eq!(rib_after_first, rib_after_second);
    }
}

#[cfg(test)]
mod repair_tests {
    use super::*;
    use netdiag_topology::{AsKind, LinkRelationship, TopologyBuilder};

    fn chain() -> (Arc<Topology>, [RouterId; 3], LinkId) {
        let mut b = TopologyBuilder::new();
        let t2 = b.add_as(AsKind::Tier2, "T");
        let s1 = b.add_as(AsKind::Stub, "S1");
        let s2 = b.add_as(AsKind::Stub, "S2");
        let h = b.add_router(t2, "h");
        let s1r = b.add_router(s1, "s1r");
        let s2r = b.add_router(s2, "s2r");
        b.add_inter_link(h, s1r, LinkRelationship::ProviderCustomer);
        let l2 = b.add_inter_link(h, s2r, LinkRelationship::ProviderCustomer);
        (Arc::new(b.build().unwrap()), [h, s1r, s2r], l2)
    }

    #[test]
    fn flap_restores_forwarding() {
        let (t, [_, s1r, s2r], l2) = chain();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        let dst = t.as_node(AsId(2)).prefix.host(200);
        sim.register_host(dst, s2r);
        assert!(sim.forward(s1r, dst).delivered());
        sim.fail_link(l2);
        assert!(!sim.forward(s1r, dst).delivered());
        sim.repair_link(l2);
        assert!(sim.links().is_up(l2));
        assert!(sim.forward(s1r, dst).delivered(), "flap healed");
    }

    #[test]
    fn repair_of_up_link_is_a_noop() {
        let (t, _, l2) = chain();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        let before: Vec<_> = sim
            .bgp()
            .loc_rib(RouterId(0))
            .map(|(p, r)| (p, r.clone()))
            .collect();
        sim.repair_link(l2);
        let after: Vec<_> = sim
            .bgp()
            .loc_rib(RouterId(0))
            .map(|(p, r)| (p, r.clone()))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn repair_emits_no_igp_event() {
        let (t, _, l2) = chain();
        let mut sim = Sim::new(Arc::clone(&t));
        sim.converge_all();
        sim.fail_link(l2);
        sim.take_igp_events();
        sim.repair_link(l2);
        assert!(sim.take_igp_events().is_empty());
    }
}
