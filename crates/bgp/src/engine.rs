//! The message-driven BGP convergence engine.
//!
//! Routers exchange `Update`/`Withdraw` messages over the session table.
//! Every drain delivers them one prefix at a time, in ascending prefix
//! order and FIFO within a prefix ([`Bgp::run`]), so every run is
//! deterministic.
//! The engine supports incremental reconvergence after link failures and
//! export-filter (misconfiguration) changes, and can record every eBGP
//! message *received by one designated observer AS* — the control-plane feed
//! the paper's ND-bgpigp algorithm consumes.
//!
//! # Prefix-major columns
//!
//! All hot-path state is indexed by a dense *prefix id* (pid): the engine
//! interns the prefixes of the ASes it may originate (every AS by
//! default, see [`Bgp::with_origins`]) into one sorted table at
//! construction. Each pid owns one [`Column`]: every router's
//! Adj-RIB-In cell and Loc-RIB slot for that prefix (flat arrays indexed
//! by router), the routers that originate it, its Adj-RIB-Out bits per
//! session endpoint and its own [`PathPool`]. Routing toward one prefix
//! never reads another prefix's state, and every non-empty AS path ends
//! in its prefix's origin AS, so a column is self-contained: it is the
//! unit of copy-on-write and of sharding. Messages and stored routes
//! carry a `u32` path id into their column's pool, and per-session
//! policy inputs (AS membership, business relationship) are precomputed
//! once, so the message loop performs no topology lookups and no
//! allocation per message. Public accessors still speak [`Prefix`] and
//! [`Route`]; routes are materialized on demand.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;

use netdiag_igp::{Igp, LinkState, SpfDelta};
use netdiag_obs::{names, RecorderHandle};
use netdiag_topology::{AsId, LinkId, LinkKind, PeerKind, Prefix, RouterId, Topology};

use crate::policy::{ExportDeny, ExportFilters};
use crate::route::{local_pref_for, AsPath, Route, RouteSource, LOCAL_PREF_ORIGINATED};
use crate::session::{Session, SessionId, SessionKind, SessionTable};

/// Read-only routing context threaded through engine operations.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    /// The static topology.
    pub topology: &'a Topology,
    /// Converged IGP state (must reflect `links`).
    pub igp: &'a Igp,
    /// Current link up/down state.
    pub links: &'a LinkState,
}

/// Dense prefix id: index into the engine's sorted prefix table.
type Pid = u32;

/// Sentinel for "no session" (locally originated) in a stored route.
const NO_SESSION: u32 = u32::MAX;
/// Path id of the empty AS path (always interned first).
const PATH_EMPTY: u32 = 0;

/// Local preference of a route learned from `source`. Import sets the
/// preference from the source alone, and iBGP carries the source along,
/// so it is derived rather than stored.
#[inline]
fn pref_of(source: RouteSource) -> u32 {
    match source {
        RouteSource::Originated => LOCAL_PREF_ORIGINATED,
        RouteSource::External(rel) => local_pref_for(rel),
    }
}

/// Interned AS paths toward one prefix, shared by every router of its
/// [`Column`].
///
/// Every path but the empty one (id [`PATH_EMPTY`]) is interned as a cons
/// cell: its head AS prepended to an already-interned tail, which always
/// has the smaller id. The reverse index is keyed by `(head, tail id)`,
/// not by the full path, and since a path has exactly one such
/// decomposition ids are the same as under full-path keying.
///
/// Append-only: path ids stay valid for the lifetime of the pool, so a
/// snapshot restored over a grown pool still resolves every id.
#[derive(Clone, Debug)]
struct PathPool {
    /// Reverse index; point lookups only, never iterated.
    ids: HashMap<(AsId, u32), u32>,
    paths: Vec<AsPath>,
    /// Tail id of each path (`tails[id] < id`; unused for the empty path).
    tails: Vec<u32>,
}

impl PathPool {
    fn new() -> Self {
        PathPool {
            ids: HashMap::new(),
            paths: vec![AsPath::EMPTY],
            tails: vec![PATH_EMPTY],
        }
    }

    #[inline]
    fn get(&self, id: u32) -> &AsPath {
        &self.paths[id as usize]
    }

    /// Interns path `tail` with `head` prepended (a new id).
    fn push(&mut self, head: AsId, tail: u32) -> u32 {
        let id = self.paths.len() as u32;
        self.ids.insert((head, tail), id);
        self.paths.push(self.paths[tail as usize].prepended(head));
        self.tails.push(tail);
        id
    }
}

/// A route as stored in the flat RIBs: 16 bytes, every other attribute
/// derivable (the exit link = the eBGP session's link; the local
/// preference = [`pref_of`] the source; the `learned_from` peer = the
/// session's other endpoint; the prefix = the pid of the slot it
/// occupies). The `bool` leaves a niche, so `Option<StoredRoute>` is 16
/// bytes too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StoredRoute {
    /// Interned AS path ([`PathPool`] id).
    path: u32,
    /// Border router of the local AS where traffic exits.
    egress: RouterId,
    /// Session the route was learned on ([`NO_SESSION`] = originated).
    session: u32,
    /// Cached AS-path length (decision-process hot read).
    path_len: u8,
    /// How the route entered the local AS.
    source: RouteSource,
    /// True when learned over eBGP at this router.
    ebgp: bool,
}

impl StoredRoute {
    /// A locally-originated route at border router `at`.
    fn originated(at: RouterId) -> Self {
        StoredRoute {
            path: PATH_EMPTY,
            egress: at,
            session: NO_SESSION,
            path_len: 0,
            source: RouteSource::Originated,
            ebgp: false,
        }
    }
}

/// Routes received for one prefix at one router, keyed by session.
///
/// Valley-free exports mean a router hears a given prefix from only a
/// handful of neighbors, so two slots live inline and the rare overflow
/// spills to a boxed vector: the common path allocates nothing and the
/// cell stays 48 bytes.
#[derive(Clone, Debug)]
struct AdjCell {
    len: u32,
    inline: [StoredRoute; AdjCell::INLINE],
    // Box<Vec>, not Vec: an inline Vec is 24 bytes against the Box's 8,
    // and the pointer is only ever chased on the rare spilled cell.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<StoredRoute>>>,
}

impl Default for AdjCell {
    fn default() -> Self {
        AdjCell {
            len: 0,
            inline: [StoredRoute::originated(RouterId(0)); AdjCell::INLINE],
            spill: None,
        }
    }
}

impl AdjCell {
    const INLINE: usize = 2;

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn inline_len(&self) -> usize {
        (self.len as usize).min(Self::INLINE)
    }

    fn iter(&self) -> impl Iterator<Item = &StoredRoute> {
        self.inline[..self.inline_len()]
            .iter()
            .chain(self.spill.iter().flat_map(|s| s.iter()))
    }

    fn get(&self, session: u32) -> Option<&StoredRoute> {
        self.iter().find(|sr| sr.session == session)
    }

    /// Inserts or replaces the route learned on `sr.session`.
    fn upsert(&mut self, sr: StoredRoute) {
        let il = self.inline_len();
        if let Some(slot) = self.inline[..il]
            .iter_mut()
            .find(|e| e.session == sr.session)
        {
            *slot = sr;
            return;
        }
        if let Some(spill) = &mut self.spill {
            if let Some(slot) = spill.iter_mut().find(|e| e.session == sr.session) {
                *slot = sr;
                return;
            }
        }
        if il < Self::INLINE {
            self.inline[il] = sr;
        } else {
            self.spill.get_or_insert_with(Default::default).push(sr);
        }
        self.len += 1;
    }

    /// Removes the route learned on `session`; false when absent.
    fn remove(&mut self, session: u32) -> bool {
        let il = self.inline_len();
        if let Some(i) = self.inline[..il].iter().position(|e| e.session == session) {
            // Shift the inline tail left and refill the freed slot from
            // the spill, keeping the inline region packed.
            self.inline.copy_within(i + 1..il, i);
            if let Some(spill) = &mut self.spill {
                if !spill.is_empty() {
                    self.inline[Self::INLINE - 1] = spill.remove(0);
                }
                if spill.is_empty() {
                    self.spill = None;
                }
            }
            self.len -= 1;
            return true;
        }
        if let Some(spill) = &mut self.spill {
            if let Some(i) = spill.iter().position(|e| e.session == session) {
                spill.remove(i);
                if spill.is_empty() {
                    self.spill = None;
                }
                self.len -= 1;
                return true;
            }
        }
        false
    }
}

/// A dense bitset that grows on demand.
#[derive(Clone, Debug, Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn contains(&self, i: u32) -> bool {
        self.0
            .get((i / 64) as usize)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    fn set(&mut self, i: u32, on: bool) {
        let w = (i / 64) as usize;
        let bit = 1u64 << (i % 64);
        if on {
            if w >= self.0.len() {
                self.0.resize(w + 1, 0);
            }
            self.0[w] |= bit;
        } else if let Some(word) = self.0.get_mut(w) {
            *word &= !bit;
        }
    }
}

/// Per-session policy inputs, precomputed at engine construction so the
/// import/export hot paths never consult the topology's relationship
/// table or router-to-AS mapping.
#[derive(Clone, Copy, Debug)]
struct SessMeta {
    /// AS of endpoint `a`.
    a_as: AsId,
    /// AS of endpoint `b`.
    b_as: AsId,
    /// eBGP only: relationship from `a`'s perspective.
    rel_at_a: PeerKind,
    /// eBGP only: relationship from `b`'s perspective.
    rel_at_b: PeerKind,
    /// True for eBGP sessions.
    ebgp: bool,
}

/// Route attributes carried in an `Update`, in interned form: the prefix
/// travels as a pid and the AS path (already prepended by the sender on
/// eBGP sessions) as a [`PathPool`] id, so forwarding a message is a
/// small fixed-size copy.
#[derive(Clone, Copy, Debug)]
struct RouteMsg {
    pid: Pid,
    path: u32,
    path_len: u8,
    /// iBGP-only: the egress border router.
    egress: RouterId,
    /// iBGP-only: how the route entered the AS.
    source: RouteSource,
}

/// Message payload.
#[derive(Clone, Copy, Debug)]
enum Payload {
    /// Announce (or implicitly replace) a route.
    Update(RouteMsg),
    /// Withdraw the route for a prefix.
    Withdraw(Pid),
}

/// A queued BGP message.
#[derive(Clone, Copy, Debug)]
struct Msg {
    session: SessionId,
    to: RouterId,
    payload: Payload,
}

impl Msg {
    /// The prefix the message concerns.
    #[inline]
    fn pid(&self) -> Pid {
        match self.payload {
            Payload::Update(rm) => rm.pid,
            Payload::Withdraw(pid) => pid,
        }
    }

    /// The sender: the session's other endpoint.
    fn from(&self, sessions: &SessionTable) -> RouterId {
        sessions
            .get(self.session)
            .other(self.to)
            .expect("a message's receiver is a session endpoint")
    }
}

// The layouts the RIB and queue memory budget rests on.
const _: () = {
    assert!(std::mem::size_of::<StoredRoute>() == 16);
    assert!(std::mem::size_of::<Option<StoredRoute>>() == 16);
    assert!(std::mem::size_of::<AdjCell>() == 48);
    assert!(std::mem::size_of::<Msg>() == 24);
};

/// Kind of an observed message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObservedKind {
    /// Route announcement (including implicit replacement).
    Update,
    /// Route withdrawal.
    Withdraw,
}

/// An eBGP message received by a router of the observer AS. Its position
/// in [`Bgp::take_observed`]'s vector is its delivery order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservedMsg {
    /// Receiving router (inside the observer AS).
    pub at: RouterId,
    /// External neighbor router that sent the message.
    pub from: RouterId,
    /// AS of the sender.
    pub from_as: AsId,
    /// Destination prefix the message concerns.
    pub prefix: Prefix,
    /// Update or withdraw.
    pub kind: ObservedKind,
}

/// One prefix's BGP state at every router: the unit of copy-on-write
/// and of sharding.
///
/// `adj_in` and `loc_rib` are flat arrays indexed by router, so a prefix's
/// convergence walks one contiguous column and allocates nothing per
/// message. The Adj-RIB-Out is one bit per session endpoint (see
/// [`out_bit`]). Every path a column's routes carry ends in the prefix's
/// origin AS, so its [`PathPool`] is its own and no path id crosses
/// columns. The whole struct sits behind an `Arc` for copy-on-write
/// engine clones.
#[derive(Clone, Debug)]
struct Column {
    /// Routes received per router (by router index), per session.
    adj_in: Vec<AdjCell>,
    /// Best route per router (by router index).
    loc_rib: Vec<Option<StoredRoute>>,
    /// Routers originating the prefix.
    originated: Vec<RouterId>,
    /// Session endpoints currently advertising the prefix.
    adj_out: Bits,
    /// Interned AS paths of the prefix's routes.
    paths: PathPool,
}

impl Column {
    fn sized(routers: usize) -> Self {
        Column {
            adj_in: vec![AdjCell::default(); routers],
            loc_rib: vec![None; routers],
            originated: Vec::new(),
            adj_out: Bits::default(),
            paths: PathPool::new(),
        }
    }
}

/// The Adj-RIB-Out bit of `r`'s end of `session`.
#[inline]
fn out_bit(session: &Session, r: RouterId) -> u32 {
    2 * session.id.0 + u32::from(r != session.a)
}

/// Statistics from a convergence run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Messages processed.
    pub messages: u64,
}

/// Base safety cap on the messages one [`Bgp::run`] or one whole
/// [`Bgp::converge`] may deliver (a correct configuration converges far
/// below this; hitting it indicates a policy dispute loop). Scaled with
/// topology size at engine construction.
const MAX_MESSAGES_PER_RUN: u64 = 200_000_000;

/// The BGP simulator for a whole topology.
///
/// Per-prefix `Column`s sit behind [`Arc`]s so a `Bgp` clone is
/// O(#prefixes) pointer bumps; mutation goes through `Bgp::col_mut`,
/// which clones a column only when it is still shared with another engine
/// clone (copy-on-write). The session table, prefix table and per-session
/// policy metadata are immutable after construction and shared outright.
#[derive(Clone, Debug)]
pub struct Bgp {
    /// The session table (public for inspection; immutable after build).
    pub sessions: Arc<SessionTable>,
    /// Sorted prefix table; pid = index (immutable after build).
    prefixes: Arc<Vec<Prefix>>,
    /// Per-session policy inputs (immutable after build).
    sess_meta: Arc<Vec<SessMeta>>,
    /// Per-prefix state, one column per pid (copy-on-write).
    columns: Vec<Arc<Column>>,
    filters: ExportFilters,
    queue: VecDeque<Msg>,
    observer: Option<AsId>,
    observed: Vec<ObservedMsg>,
    recorder: RecorderHandle,
    /// Cached `recorder.trace_enabled()` so the per-message event gate is
    /// one branch, not a virtual call (set in [`Bgp::set_recorder`]).
    trace_on: bool,
    /// Decision-process invocations since the last flush (batched so the
    /// hot path pays one integer add, not a virtual call).
    decisions: u64,
    /// Copy-on-write breaks since the last flush (batched like `decisions`).
    cow_breaks: u64,
    /// Prefixes visited by scoped replay since the last flush (batched).
    replay_prefixes: u64,
    /// Message cap for one `run`, scaled with topology size.
    msg_cap: u64,
    /// Cached per-session liveness (1 = up). `None` falls back to the
    /// ground-truth recomputation in [`SessionTable::is_up`]; when `Some`,
    /// the owner (the simulator layer) must keep it in sync with link and
    /// IGP state — a `debug_assert` cross-checks every read.
    live: Option<Vec<u8>>,
}

impl Bgp {
    /// Creates the engine with empty RIBs and no routes originated, over
    /// every AS's prefix: the all-ASes case of [`Bgp::with_origins`].
    pub fn new(topology: &Topology) -> Self {
        let all: Vec<AsId> = topology.ases().iter().map(|a| a.id).collect();
        Self::with_origins(topology, &all)
    }

    /// Creates the engine with empty RIBs and no routes originated, over
    /// the prefix space of `origins` only: the engine holds one column per
    /// origin prefix, and only these ASes may be originated.
    ///
    /// An engine that only ever originates a few ASes (a sensor placement
    /// originates its sensors' prefixes) is observationally identical to
    /// a [`Bgp::new`] engine that originated the same ASes. Pids ascend in
    /// prefix order within the subset, so every pid walk visits the
    /// in-scope prefixes in the same relative order, and the prefixes left
    /// out would only ever have been empty cells there: [`Bgp::best_route`]
    /// answers `None` for them and a filter on them queues nothing.
    pub fn with_origins(topology: &Topology, origins: &[AsId]) -> Self {
        let sessions = Arc::new(SessionTable::build(topology));
        let mut prefixes: Vec<Prefix> = origins
            .iter()
            .map(|&a| topology.as_node(a).prefix)
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        let n_prefixes = prefixes.len();
        let sess_meta: Vec<SessMeta> = sessions
            .sessions()
            .iter()
            .map(|s| {
                let a_as = topology.as_of_router(s.a);
                let b_as = topology.as_of_router(s.b);
                let (rel_at_a, rel_at_b, ebgp) = match s.kind {
                    SessionKind::Ebgp { .. } => (
                        topology
                            .relationship(a_as, b_as)
                            .expect("eBGP neighbors must have a relationship"),
                        topology
                            .relationship(b_as, a_as)
                            .expect("eBGP neighbors must have a relationship"),
                        true,
                    ),
                    // The relationship fields are never read on iBGP
                    // sessions; any value serves as the placeholder.
                    SessionKind::Ibgp => (PeerKind::Peer, PeerKind::Peer, false),
                };
                SessMeta {
                    a_as,
                    b_as,
                    rel_at_a,
                    rel_at_b,
                    ebgp,
                }
            })
            .collect();
        let msg_cap =
            MAX_MESSAGES_PER_RUN.max(sess_meta.len() as u64 * n_prefixes.max(1) as u64 * 64);
        Bgp {
            sessions,
            prefixes: Arc::new(prefixes),
            sess_meta: Arc::new(sess_meta),
            columns: (0..n_prefixes)
                .map(|_| Arc::new(Column::sized(topology.router_count())))
                .collect(),
            filters: ExportFilters::new(),
            queue: VecDeque::new(),
            observer: None,
            observed: Vec::new(),
            recorder: RecorderHandle::noop(),
            trace_on: false,
            decisions: 0,
            cow_breaks: 0,
            replay_prefixes: 0,
            msg_cap,
            live: None,
        }
    }

    /// The pid of `prefix`, when it belongs to the engine's prefix space.
    #[inline]
    fn pid_of(&self, prefix: &Prefix) -> Option<Pid> {
        self.prefixes.binary_search(prefix).ok().map(|i| i as u32)
    }

    /// The pid of `as_id`'s prefix; panics when it is outside the
    /// engine's prefix space (see [`Bgp::originate_as`]).
    fn origin_pid(&self, topology: &Topology, as_id: AsId) -> Pid {
        self.pid_of(&topology.as_node(as_id).prefix)
            .expect("originated AS outside the engine's prefix space")
    }

    /// Interns path `tail` with `head` prepended in `pid`'s pool, returning
    /// its stable id. Breaks column sharing only when the path is
    /// genuinely new to this engine.
    fn intern_path(&mut self, pid: Pid, head: AsId, tail: u32) -> u32 {
        match self.col(pid).paths.ids.get(&(head, tail)) {
            Some(&id) => id,
            None => self.col_mut(pid).paths.push(head, tail),
        }
    }

    /// Session liveness through the cache when present (one byte load on
    /// the hot path), falling back to the ground-truth recomputation.
    #[inline]
    fn sess_up(&self, ctx: Ctx<'_>, sid: SessionId) -> bool {
        match &self.live {
            Some(v) => {
                let up = v[sid.index()] != 0;
                debug_assert_eq!(
                    up,
                    self.sessions.is_up(sid, ctx.topology, ctx.igp, ctx.links),
                    "stale session-liveness cache for {sid:?}"
                );
                up
            }
            None => self.sessions.is_up(sid, ctx.topology, ctx.igp, ctx.links),
        }
    }

    /// (Re)builds the session-liveness cache from link and IGP state.
    pub fn recompute_liveness(&mut self, ctx: Ctx<'_>) {
        let v = (0..self.sessions.sessions().len())
            .map(|i| {
                u8::from(
                    self.sessions
                        .is_up(SessionId(i as u32), ctx.topology, ctx.igp, ctx.links),
                )
            })
            .collect();
        self.live = Some(v);
    }

    /// Drops the liveness cache; reads fall back to ground truth until
    /// [`Bgp::recompute_liveness`] runs again.
    pub fn invalidate_liveness(&mut self) {
        self.live = None;
    }

    /// True when the liveness cache is present.
    pub fn has_liveness(&self) -> bool {
        self.live.is_some()
    }

    /// Marks one session down in the liveness cache (no-op without a
    /// cache). Failures only ever *degrade* liveness, so the incremental
    /// failure path keeps the cache valid with point updates; repairs must
    /// rebuild it via [`Bgp::recompute_liveness`].
    pub fn set_session_down(&mut self, sid: SessionId) {
        if let Some(v) = &mut self.live {
            v[sid.index()] = 0;
        }
    }

    /// Marks the eBGP session riding each given link down in the cache.
    pub fn mark_links_down(&mut self, links: &[LinkId]) {
        for &l in links {
            if let Some(sid) = self.sessions.ebgp_on_link(l) {
                self.set_session_down(sid);
            }
        }
    }

    /// Marks the iBGP sessions of the given same-AS router pairs down in
    /// the cache (the pairs come from [`SpfDelta::lost_pairs`]).
    pub fn mark_pairs_down(&mut self, pairs: &[(RouterId, RouterId)]) {
        for &(a, b) in pairs {
            if let Some(sid) = self.sessions.ibgp_between(a, b) {
                self.set_session_down(sid);
            }
        }
    }

    /// Read access to a prefix's column.
    #[inline]
    fn col(&self, pid: Pid) -> &Column {
        &self.columns[pid as usize]
    }

    /// Write access to a prefix's column, cloning it first when it is
    /// still shared with another engine clone (copy-on-write break).
    fn col_mut(&mut self, pid: Pid) -> &mut Column {
        let arc = &mut self.columns[pid as usize];
        if Arc::strong_count(arc) > 1 {
            self.cow_breaks += 1;
        }
        Arc::make_mut(arc)
    }

    /// Designates the AS whose received eBGP messages are recorded.
    pub fn set_observer(&mut self, as_id: AsId) {
        self.observer = Some(as_id);
    }

    /// Routes `bgp.*` metrics to `recorder` (counters flush at the end of
    /// each [`Bgp::run`]).
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.trace_on = recorder.trace_enabled();
        self.recorder = recorder;
    }

    /// Drains the recorded observer messages.
    pub fn take_observed(&mut self) -> Vec<ObservedMsg> {
        std::mem::take(&mut self.observed)
    }

    /// Currently installed export filters.
    pub fn filters(&self) -> &ExportFilters {
        &self.filters
    }

    /// Originates `as_id`'s prefix at every border router of the AS (every
    /// router for single-router ASes). Queues the initial announcements;
    /// call [`Bgp::run`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `as_id`'s prefix is outside the engine's prefix space,
    /// i.e. the engine was built by [`Bgp::with_origins`] without it.
    pub fn originate_as(&mut self, ctx: Ctx<'_>, as_id: AsId) {
        let asn = ctx.topology.as_node(as_id);
        let pid = self.origin_pid(ctx.topology, as_id);
        let originators: Vec<RouterId> = asn
            .routers
            .iter()
            .copied()
            .filter(|&r| asn.routers.len() == 1 || ctx.topology.is_border_router(r))
            .collect();
        for r in originators {
            let col = self.col_mut(pid);
            if !col.originated.contains(&r) {
                col.originated.push(r);
            }
            if self.decide(ctx, r, pid) {
                self.propagate(ctx, r, pid);
            }
        }
    }

    /// Originates every AS's prefix (on a [`Bgp::new`] engine; see the
    /// panics of [`Bgp::originate_as`]).
    pub fn originate_all(&mut self, ctx: Ctx<'_>) {
        for a in 0..ctx.topology.as_count() {
            self.originate_as(ctx, AsId(a as u32));
        }
    }

    /// Delivers queued messages to quiescence, one prefix at a time.
    ///
    /// The queue is stably partitioned by prefix. Each prefix's messages,
    /// and every message their delivery triggers, are delivered FIFO
    /// before the next prefix's, in ascending prefix order. Session
    /// liveness, IGP state and export filters are fixed for the whole
    /// drain, a prefix's messages are enqueued only by its origination or
    /// by the delivery of its own messages, and routing toward one prefix
    /// never reads another's state. So every prefix sees the relative
    /// order one FIFO over the whole queue would give it: the RIBs,
    /// message and decision counts, and each prefix's observed
    /// subsequence are that FIFO's, and only the interleaving across
    /// prefixes differs.
    ///
    /// # Panics
    ///
    /// Panics if the safety cap is exceeded (policy dispute — cannot happen
    /// with the Gao-Rexford policies this workspace generates).
    pub fn run(&mut self, ctx: Ctx<'_>) -> RunStats {
        let messages = self.drain(ctx, 0);
        self.flush_counters(messages)
    }

    /// Delivers queued messages to quiescence in [`Bgp::run`]'s order and
    /// returns `delivered` plus their count. `delivered` counts the
    /// messages an enclosing convergence already delivered, so the safety
    /// cap bounds the whole convergence, not one drain.
    // hot
    fn drain(&mut self, ctx: Ctx<'_>, mut delivered: u64) -> u64 {
        // Stable partition by pid. Every prefix but the first waits in
        // `later`, so the queue keeps its buffer and one prefix's messages.
        self.queue.make_contiguous().sort_by_key(Msg::pid);
        let first = self.queue.front().map(Msg::pid);
        let run = self.queue.iter().take_while(|m| Some(m.pid()) == first);
        let mut later = self.queue.split_off(run.count());
        loop {
            while let Some(msg) = self.queue.pop_front() {
                delivered += 1;
                assert!(
                    delivered <= self.msg_cap,
                    "BGP did not converge: policy dispute?"
                );
                self.deliver(ctx, msg);
            }
            let Some(pid) = later.front().map(Msg::pid) else {
                return delivered;
            };
            while let Some(msg) = later.pop_front_if(|m| m.pid() == pid) {
                self.queue.push_back(msg);
            }
        }
    }

    /// Flushes the batched `bgp.*` counters for one finished run.
    fn flush_counters(&mut self, messages: u64) -> RunStats {
        if self.recorder.enabled() {
            self.recorder.add(names::BGP_RUNS, 1);
            self.recorder.add(names::BGP_MSGS, messages);
            self.recorder.add(names::BGP_DECISIONS, self.decisions);
            self.decisions = 0;
            if self.cow_breaks > 0 {
                self.recorder
                    .add(names::SIM_SNAPSHOT_COW_BREAKS, self.cow_breaks);
                self.cow_breaks = 0;
            }
            if self.replay_prefixes > 0 {
                self.recorder
                    .add(names::BGP_REPLAY_PREFIXES_SCOPED, self.replay_prefixes);
                self.replay_prefixes = 0;
            }
        }
        RunStats { messages }
    }

    /// Originates the prefixes of `origins` and converges, as one run.
    ///
    /// Each origin converges to quiescence before the next is originated,
    /// in ascending pid order, so the queue holds one prefix's in-flight
    /// messages and each drain touches one column. That is
    /// [`Bgp::run`]'s delivery order after originating every origin at
    /// once; only path-pool ids, which no route exposes, may be numbered
    /// differently.
    ///
    /// # Panics
    ///
    /// Panics as [`Bgp::originate_as`] and [`Bgp::run`] do; the safety cap
    /// bounds the messages of the whole convergence.
    pub fn converge(&mut self, ctx: Ctx<'_>, origins: &[AsId]) -> RunStats {
        let mut origins = origins.to_vec();
        origins.sort_by_key(|&a| self.origin_pid(ctx.topology, a));
        let mut messages = 0;
        for a in origins {
            self.originate_as(ctx, a);
            messages = self.drain(ctx, messages);
        }
        self.flush_counters(messages)
    }

    /// [`Bgp::converge`] with the origins partitioned by prefix across
    /// `threads` workers; plain [`Bgp::converge`] when `threads <= 1` or
    /// when an observer tap or a tracer is attached, since those record
    /// from one engine. The delivery order is the same either way.
    ///
    /// The pid space is split into contiguous ranges, one per worker. Each
    /// worker is an engine that owns its range's columns: they move in
    /// (leaving empty placeholders here), the worker runs
    /// [`Bgp::converge`] over the origins in its range, and the columns
    /// move back after the join. Only `Arc` pointers move; no cell is
    /// copied and no path re-interned, because a prefix's routes and
    /// paths live in its own column. The fixed point, the path ids and
    /// the message count are the one-thread convergence's exactly.
    pub fn run_sharded(&mut self, ctx: Ctx<'_>, origins: &[AsId], threads: usize) -> RunStats {
        let n_prefixes = self.columns.len();
        let threads = threads.clamp(1, n_prefixes.max(1));
        if threads <= 1 || self.observer.is_some() || self.trace_on {
            return self.converge(ctx, origins);
        }
        // Contiguous pid ranges: shard k owns [bounds[k], bounds[k + 1]).
        let bounds: Vec<usize> = (0..=threads).map(|i| i * n_prefixes / threads).collect();
        let mut shards: Vec<Vec<AsId>> = vec![Vec::new(); threads];
        for &a in origins {
            let pid = self.origin_pid(ctx.topology, a) as usize;
            shards[bounds.partition_point(|&b| b <= pid) - 1].push(a);
        }
        let placeholder = Arc::new(Column::sized(0));
        let mut workers: Vec<Bgp> = bounds
            .windows(2)
            .map(|range| {
                let mut w = self.clone();
                w.columns = vec![Arc::clone(&placeholder); n_prefixes];
                w.columns[range[0]..range[1]]
                    .swap_with_slice(&mut self.columns[range[0]..range[1]]);
                // Counters return explicitly below; workers must not flush
                // them to the shared recorder mid-run.
                w.recorder = RecorderHandle::noop();
                w.decisions = 0;
                w.cow_breaks = 0;
                w
            })
            .collect();
        let messages: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .zip(&shards)
                .map(|(w, shard)| scope.spawn(move || w.converge(ctx, shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("BGP shard worker panicked").messages)
                .sum()
        });
        for (w, range) in workers.iter_mut().zip(bounds.windows(2)) {
            self.columns[range[0]..range[1]].swap_with_slice(&mut w.columns[range[0]..range[1]]);
            self.decisions += w.decisions;
            self.cow_breaks += w.cow_breaks;
        }
        self.flush_counters(messages)
    }

    /// Materializes a stored route into the public [`Route`] shape.
    fn materialize(&self, r: RouterId, pid: Pid, sr: StoredRoute) -> Route {
        // An eBGP-learned route exits on the link its session rides.
        let ebgp_link = if sr.ebgp {
            match self.sessions.get(SessionId(sr.session)).kind {
                SessionKind::Ebgp { link } => Some(link),
                SessionKind::Ibgp => None,
            }
        } else {
            None
        };
        Route {
            prefix: self.prefixes[pid as usize],
            as_path: *self.col(pid).paths.get(sr.path),
            egress: sr.egress,
            ebgp_link,
            local_pref: pref_of(sr.source),
            source: sr.source,
            learned_from: (sr.session != NO_SESSION).then(|| {
                let sid = SessionId(sr.session);
                let peer = self
                    .sessions
                    .get(sid)
                    .other(r)
                    .expect("a stored session has the owning router as an endpoint");
                (sid, peer)
            }),
            ebgp_learned: sr.ebgp,
        }
    }

    /// The best route of `r` for exactly `prefix`.
    pub fn best_route(&self, r: RouterId, prefix: &Prefix) -> Option<Route> {
        let pid = self.pid_of(prefix)?;
        self.col(pid).loc_rib[r.index()].map(|sr| self.materialize(r, pid, sr))
    }

    /// Longest-prefix-match lookup in `r`'s Loc-RIB.
    pub fn lookup(&self, r: RouterId, dst: Ipv4Addr) -> Option<Route> {
        let mut best: Option<(Pid, StoredRoute)> = None;
        for (i, p) in self.prefixes.iter().enumerate() {
            if !p.contains(dst) {
                continue;
            }
            let Some(sr) = self.columns[i].loc_rib[r.index()] else {
                continue;
            };
            // Distinct prefixes of equal length cannot both contain `dst`,
            // so `<=` never actually breaks a tie; it mirrors the old
            // last-max semantics all the same.
            if best.is_none_or(|(bp, _)| self.prefixes[bp as usize].len() <= p.len()) {
                best = Some((i as u32, sr));
            }
        }
        best.map(|(pid, sr)| self.materialize(r, pid, sr))
    }

    /// Iterates over `r`'s Loc-RIB (prefix-ordered), materializing each
    /// route on demand.
    pub fn loc_rib(&self, r: RouterId) -> impl Iterator<Item = (Prefix, Route)> + '_ {
        self.columns.iter().enumerate().filter_map(move |(i, col)| {
            col.loc_rib[r.index()].map(|sr| (self.prefixes[i], self.materialize(r, i as u32, sr)))
        })
    }

    /// Reacts to a link going down (the [`LinkState`] must already reflect
    /// it, and for intra-domain links the IGP must already be recomputed).
    ///
    /// * inter-domain link: tears down its eBGP session and flushes routes;
    /// * intra-domain link: revalidates the owning AS via
    ///   [`Bgp::refresh_as`].
    ///
    /// Queues reconvergence messages; call [`Bgp::run`] afterwards.
    pub fn handle_link_down(&mut self, ctx: Ctx<'_>, link: LinkId) {
        let l = ctx.topology.link(link);
        match l.kind {
            LinkKind::Inter => {
                if let Some(sid) = self.sessions.ebgp_on_link(link) {
                    self.set_session_down(sid);
                    self.flush_session(ctx, sid);
                }
            }
            LinkKind::Intra => {
                let as_id = ctx.topology.as_of_router(l.a);
                self.refresh_as(ctx, as_id);
            }
        }
    }

    /// Flushes the eBGP session riding a failed inter-domain link. The
    /// liveness cache must already mark the session down (see
    /// [`Bgp::mark_links_down`]); this only replays the affected prefixes.
    pub fn fail_ebgp_link(&mut self, ctx: Ctx<'_>, link: LinkId) {
        if let Some(sid) = self.sessions.ebgp_on_link(link) {
            self.flush_session(ctx, sid);
        }
    }

    /// Scoped variant of [`Bgp::refresh_as`] driven by a delta-SPF result:
    /// flushes exactly the iBGP sessions that just died
    /// ([`SpfDelta::lost_pairs`]) and replays the decision process only on
    /// routers whose IGP distance vector changed
    /// ([`SpfDelta::dirty_sources`]).
    ///
    /// Queues the exact same messages as a full `refresh_as`: a skipped
    /// router has an unchanged distance vector, unchanged session
    /// liveness and an untouched Adj-RIB-In, so every one of its
    /// re-decisions would return "no change" and enqueue nothing; flushes
    /// of long-dead sessions are no-ops because their state was already
    /// removed when they died. The liveness cache must already reflect
    /// the dead sessions (see [`Bgp::mark_pairs_down`]).
    pub fn refresh_as_scoped(&mut self, ctx: Ctx<'_>, delta: &SpfDelta) {
        let mut dead: Vec<SessionId> = delta
            .lost_pairs
            .iter()
            .filter_map(|&(a, b)| self.sessions.ibgp_between(a, b))
            .collect();
        dead.sort_unstable();
        for sid in dead {
            self.flush_session(ctx, sid);
        }
        for &r in &delta.dirty_sources {
            self.replay_router(ctx, r, true);
        }
    }

    /// Re-runs the decision process on every pid `r` currently holds state
    /// for (Adj-RIB-In or Loc-RIB), in ascending prefix order. A decision
    /// at one pid never touches another pid's state at `r`, so the lazy
    /// scan visits exactly the pids an up-front snapshot would.
    fn replay_router(&mut self, ctx: Ctx<'_>, r: RouterId, count_scoped: bool) {
        for pid in 0..self.columns.len() as Pid {
            let col = self.col(pid);
            if col.adj_in[r.index()].is_empty() && col.loc_rib[r.index()].is_none() {
                continue;
            }
            if count_scoped {
                self.replay_prefixes += 1;
            }
            if self.decide(ctx, r, pid) {
                self.propagate(ctx, r, pid);
            }
        }
    }

    /// Revalidates an AS after its IGP state changed: tears down
    /// newly-unreachable iBGP sessions and re-runs the decision process on
    /// every router of the AS (IGP distances participate in route choice).
    pub fn refresh_as(&mut self, ctx: Ctx<'_>, as_id: AsId) {
        // Tear down dead iBGP sessions.
        let dead: Vec<SessionId> = ctx
            .topology
            .as_node(as_id)
            .routers
            .iter()
            .flat_map(|&r| self.sessions.of_router(r).iter().copied())
            .filter(|&sid| {
                let s = self.sessions.get(sid);
                s.kind == SessionKind::Ibgp
                    && ctx.topology.as_of_router(s.a) == as_id
                    && !self.sessions.is_up(sid, ctx.topology, ctx.igp, ctx.links)
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        for sid in dead {
            self.flush_session(ctx, sid);
        }
        // Re-decide everything in the AS: IGP distance changes can flip the
        // best route even when all sessions stay up.
        for &r in &ctx.topology.as_node(as_id).routers {
            self.replay_router(ctx, r, false);
        }
    }

    /// Reacts to a link coming back up (the [`LinkState`] must already
    /// reflect it, and for intra-domain links the IGP must already be
    /// recomputed). Re-advertises current routes over the re-established
    /// session(s); call [`Bgp::run`] afterwards.
    pub fn handle_link_up(&mut self, ctx: Ctx<'_>, link: LinkId) {
        let l = ctx.topology.link(link);
        match l.kind {
            LinkKind::Inter => {
                // The eBGP session is back: both ends resend their best
                // routes (a session reset triggers a full refresh).
                if self.trace_on {
                    self.recorder.event(names::EV_BGP_SESSION, || {
                        netdiag_obs::EventPayload::new()
                            .field("state", "up")
                            .field("kind", "ebgp")
                            .field("a", l.a.index())
                            .field("b", l.b.index())
                    });
                }
                for r in [l.a, l.b] {
                    self.readvertise_all(ctx, r);
                }
            }
            LinkKind::Intra => {
                // Healed partition: IGP distances changed and previously-
                // dead iBGP sessions are back; re-decide and resync every
                // router of the AS.
                let as_id = ctx.topology.as_of_router(l.a);
                self.refresh_as(ctx, as_id);
                for &r in &ctx.topology.as_node(as_id).routers {
                    self.readvertise_all(ctx, r);
                }
            }
        }
    }

    /// Resyncs every session's Adj-RIB-Out of `r` with its current best
    /// routes (sends updates over sessions that missed them).
    fn readvertise_all(&mut self, ctx: Ctx<'_>, r: RouterId) {
        for pid in 0..self.columns.len() as Pid {
            if self.col(pid).loc_rib[r.index()].is_some() {
                self.propagate(ctx, r, pid);
            }
        }
    }

    /// Installs an export deny rule (a router misconfiguration) and queues
    /// the resulting withdrawal. Call [`Bgp::run`] afterwards.
    pub fn install_filter(&mut self, ctx: Ctx<'_>, rule: ExportDeny) {
        self.filters.deny(rule);
        if let Some(pid) = self.pid_of(&rule.prefix) {
            self.propagate(ctx, rule.at, pid);
        }
    }

    /// Removes an export deny rule (the operator fixes the
    /// misconfiguration) and re-announces the suppressed route. Call
    /// [`Bgp::run`] afterwards. Returns false if the rule was not
    /// installed.
    pub fn remove_filter(&mut self, ctx: Ctx<'_>, rule: &ExportDeny) -> bool {
        if !self.filters.allow(rule) {
            return false;
        }
        if let Some(pid) = self.pid_of(&rule.prefix) {
            self.propagate(ctx, rule.at, pid);
        }
        true
    }

    /// Removes all adj-in/adj-out state of a dead session and reconverges
    /// the affected prefixes at both endpoints.
    fn flush_session(&mut self, ctx: Ctx<'_>, sid: SessionId) {
        let s = *self.sessions.get(sid);
        if self.trace_on {
            self.recorder.event(names::EV_BGP_SESSION, || {
                netdiag_obs::EventPayload::new()
                    .field("state", "down")
                    .field("kind", session_kind_str(s.kind))
                    .field("a", s.a.index())
                    .field("b", s.b.index())
            });
        }
        // In-flight messages on the session stay queued: delivery discards
        // them because the session is down.
        for r in [s.a, s.b] {
            let bit = out_bit(&s, r);
            let mut affected: Vec<Pid> = Vec::new();
            for pid in 0..self.columns.len() as Pid {
                let col = self.col(pid);
                let learned = col.adj_in[r.index()].get(sid.0).is_some();
                // Read-only pre-check so columns the session never touched
                // don't break copy-on-write sharing.
                if !learned && !col.adj_out.contains(bit) {
                    continue;
                }
                let col = self.col_mut(pid);
                col.adj_out.set(bit, false);
                if learned {
                    col.adj_in[r.index()].remove(sid.0);
                    affected.push(pid);
                }
            }
            self.replay_prefixes += affected.len() as u64;
            for pid in affected {
                if self.decide(ctx, r, pid) {
                    self.propagate(ctx, r, pid);
                }
            }
        }
    }

    /// Delivers one message.
    // hot
    fn deliver(&mut self, ctx: Ctx<'_>, msg: Msg) {
        if !self.sess_up(ctx, msg.session) {
            return; // lost with the session
        }
        let meta = self.sess_meta[msg.session.index()];
        let (session, to, pid) = (msg.session, msg.to, msg.pid());
        let update = matches!(msg.payload, Payload::Update(_));
        // Observer tap: record eBGP messages arriving in the observer AS.
        if let Some(obs) = self.observer {
            if meta.ebgp {
                let s = self.sessions.get(session);
                let (to_as, from_as) = if to == s.a {
                    (meta.a_as, meta.b_as)
                } else {
                    (meta.b_as, meta.a_as)
                };
                if to_as == obs {
                    self.observed.push(ObservedMsg {
                        at: to,
                        from: msg.from(&self.sessions),
                        from_as,
                        prefix: self.prefixes[pid as usize],
                        kind: if update {
                            ObservedKind::Update
                        } else {
                            ObservedKind::Withdraw
                        },
                    });
                }
            }
        }
        if self.trace_on {
            self.recorder.event(names::EV_BGP_MESSAGE, || {
                netdiag_obs::EventPayload::new()
                    .field("kind", if update { "update" } else { "withdraw" })
                    .field("session", if meta.ebgp { "ebgp" } else { "ibgp" })
                    .field("from", msg.from(&self.sessions).index())
                    .field("to", to.index())
                    .field("prefix", self.prefixes[pid as usize].to_string())
            });
        }

        match msg.payload {
            Payload::Update(rm) => match self.import(to, session, meta, rm) {
                Some(sr) => self.col_mut(pid).adj_in[to.index()].upsert(sr),
                None => {
                    // Loop-rejected update acts as a withdraw of any
                    // previous route on the session.
                    self.remove_adj_in(to, pid, session);
                }
            },
            Payload::Withdraw(_) => self.remove_adj_in(to, pid, session),
        }
        if self.decide(ctx, to, pid) {
            self.propagate(ctx, to, pid);
        }
    }

    /// Drops the route learned for `pid` on `session` at `to`, if any,
    /// without breaking copy-on-write when there is nothing to drop.
    fn remove_adj_in(&mut self, to: RouterId, pid: Pid, session: SessionId) {
        if self.col(pid).adj_in[to.index()].get(session.0).is_some() {
            self.col_mut(pid).adj_in[to.index()].remove(session.0);
        }
    }

    /// Converts an incoming update into a stored route (import policy).
    /// Returns `None` when the route is loop-rejected.
    fn import(
        &self,
        to: RouterId,
        session: SessionId,
        meta: SessMeta,
        rm: RouteMsg,
    ) -> Option<StoredRoute> {
        let s = self.sessions.get(session);
        match s.kind {
            SessionKind::Ebgp { .. } => {
                let (my_as, rel) = if to == s.a {
                    (meta.a_as, meta.rel_at_a)
                } else {
                    (meta.b_as, meta.rel_at_b)
                };
                if self.col(rm.pid).paths.get(rm.path).contains(&my_as) {
                    return None;
                }
                Some(StoredRoute {
                    path: rm.path,
                    egress: to,
                    session: session.0,
                    path_len: rm.path_len,
                    source: RouteSource::External(rel),
                    ebgp: true,
                })
            }
            SessionKind::Ibgp => Some(StoredRoute {
                path: rm.path,
                egress: rm.egress,
                session: session.0,
                path_len: rm.path_len,
                source: rm.source,
                ebgp: false,
            }),
        }
    }

    /// Recomputes the best route of `r` for `pid`. Returns true when the
    /// Loc-RIB entry changed.
    // hot
    fn decide(&mut self, ctx: Ctx<'_>, r: RouterId, pid: Pid) -> bool {
        self.decisions += 1;
        let col = self.col(pid);
        let best: Option<StoredRoute> = if col.originated.contains(&r) {
            Some(StoredRoute::originated(r))
        } else {
            let as_igp = ctx.igp.of(ctx.topology.as_of_router(r));
            col.adj_in[r.index()]
                .iter()
                .filter(|sr| {
                    self.sess_up(ctx, SessionId(sr.session))
                        && (sr.ebgp || as_igp.reachable(r, sr.egress))
                })
                .max_by_key(|sr| {
                    let igp_dist = if sr.egress == r {
                        0
                    } else {
                        as_igp.dist(r, sr.egress).expect("filtered reachable")
                    };
                    let neighbor = self
                        .sessions
                        .get(SessionId(sr.session))
                        .other(r)
                        .expect("a stored session has the owning router as an endpoint")
                        .0;
                    (
                        pref_of(sr.source),
                        std::cmp::Reverse(sr.path_len),
                        sr.ebgp,
                        std::cmp::Reverse(igp_dist),
                        std::cmp::Reverse(neighbor),
                        std::cmp::Reverse(sr.session),
                    )
                })
                .copied()
        };

        // Only take write access when the entry actually changes, so a
        // no-op re-decision (the common case in `refresh_as` and in
        // withdraw storms that leave the best route alone) keeps the
        // column shared.
        if col.loc_rib[r.index()] == best {
            return false;
        }
        self.col_mut(pid).loc_rib[r.index()] = best;
        true
    }

    /// Synchronizes every session's Adj-RIB-Out with the current best route
    /// of `r` for `pid`, queueing updates/withdraws.
    // hot
    fn propagate(&mut self, ctx: Ctx<'_>, r: RouterId, pid: Pid) {
        let best: Option<StoredRoute> = self.col(pid).loc_rib[r.index()];
        let sessions = Arc::clone(&self.sessions);
        // The eBGP prepend is identical for every peer of `r`; intern it
        // once, lazily, per propagate.
        let mut prepended: Option<(u32, u8)> = None;
        for &sid in sessions.of_router(r) {
            if !self.sess_up(ctx, sid) {
                continue;
            }
            let session = *sessions.get(sid);
            let peer = session
                .other(r)
                .expect("sid comes from r's session table, so r is an endpoint");
            let advertise: Option<RouteMsg> = match best {
                Some(b) => self.export(r, peer, session, pid, b, &mut prepended),
                None => None,
            };
            let bit = out_bit(&session, r);
            let had = self.col(pid).adj_out.contains(bit);
            let payload = match advertise {
                Some(rm) => {
                    if !had {
                        self.col_mut(pid).adj_out.set(bit, true);
                    }
                    Payload::Update(rm)
                }
                None if had => {
                    self.col_mut(pid).adj_out.set(bit, false);
                    Payload::Withdraw(pid)
                }
                None => continue,
            };
            self.queue.push_back(Msg {
                session: sid,
                to: peer,
                payload,
            });
        }
    }

    /// Export policy: what (if anything) `r` advertises for its best route
    /// `b` to `peer` over the given session. Takes `&mut self` to intern
    /// the prepended AS path (cached in `prepended` across one propagate).
    fn export(
        &mut self,
        r: RouterId,
        peer: RouterId,
        session: Session,
        pid: Pid,
        b: StoredRoute,
        prepended: &mut Option<(u32, u8)>,
    ) -> Option<RouteMsg> {
        let meta = self.sess_meta[session.id.index()];
        if !meta.ebgp {
            // Standard iBGP: only eBGP-learned and originated routes are
            // re-advertised internally (no reflection of iBGP routes).
            if !(b.ebgp || b.source == RouteSource::Originated) {
                return None;
            }
            return Some(RouteMsg {
                pid,
                path: b.path,
                path_len: b.path_len,
                egress: r,
                source: b.source,
            });
        }
        let (my_as, peer_as, rel) = if r == session.a {
            (meta.a_as, meta.b_as, meta.rel_at_a)
        } else {
            (meta.b_as, meta.a_as, meta.rel_at_b)
        };
        if !b.source.exportable_to(rel) {
            return None;
        }
        if self.col(pid).paths.get(b.path).contains(&peer_as) {
            return None; // AS-level split horizon
        }
        if b.session == session.id.0 {
            return None; // never echo a route back on its session
        }
        if self.filters.is_denied(r, peer, self.prefixes[pid as usize]) {
            return None; // misconfiguration
        }
        let (path, path_len) = match *prepended {
            Some(v) => v,
            None => {
                let v = (self.intern_path(pid, my_as, b.path), b.path_len + 1);
                *prepended = Some(v);
                v
            }
        };
        Some(RouteMsg {
            pid,
            path,
            path_len,
            egress: r,
            source: b.source,
        })
    }
}

/// Stable session-kind label used in trace payloads.
fn session_kind_str(kind: SessionKind) -> &'static str {
    match kind {
        SessionKind::Ebgp { .. } => "ebgp",
        SessionKind::Ibgp => "ibgp",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdiag_topology::{AsKind, TopologyBuilder};
    use proptest::prelude::*;

    proptest! {
        /// Cons-keyed interning assigns the ids, and stores the paths, a
        /// pool keyed by the full `AsPath` would: each op prepends a head
        /// AS to an already-interned tail, and heads come from a small
        /// range so paths recur.
        #[test]
        fn cons_interning_matches_a_full_path_oracle(
            ops in proptest::collection::vec((any::<usize>(), 0u32..6), 1..300),
        ) {
            let mut b = TopologyBuilder::new();
            let a = b.add_as(AsKind::Stub, "A");
            b.add_router(a, "a1");
            let mut bgp = Bgp::new(&b.build().unwrap());
            let mut oracle: HashMap<AsPath, u32> = HashMap::from([(AsPath::EMPTY, PATH_EMPTY)]);
            let mut oracle_paths = vec![AsPath::EMPTY];
            for (pick, head) in ops {
                let tail = (pick % oracle_paths.len()) as u32;
                let path = oracle_paths[tail as usize];
                if path.len() == AsPath::MAX {
                    continue;
                }
                let path = path.prepended(AsId(head));
                let want = *oracle.entry(path).or_insert_with(|| {
                    oracle_paths.push(path);
                    oracle_paths.len() as u32 - 1
                });
                prop_assert_eq!(bgp.intern_path(0, AsId(head), tail), want);
            }
            let pool = &bgp.col(0).paths;
            prop_assert_eq!(&pool.paths, &oracle_paths);
            for (id, &tail) in pool.tails.iter().enumerate().skip(1) {
                prop_assert!((tail as usize) < id, "tail {tail} of path {id}");
            }
        }
    }
}

// The retired interleaved FIFO, kept only as the test oracle of
// `Bgp::run`'s order. Its cases drive the engine's private queue, so they
// build as a unit-test module, but they live with the crate's tests.
#[cfg(test)]
#[path = "../tests/unit/fifo_oracle.rs"]
mod fifo_oracle;
