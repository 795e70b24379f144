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
//! Adj-RIB-In cell for that prefix, which also indexes the router's best
//! route (a flat array indexed by router), the routers that originate
//! it, its Adj-RIB-Out bits per session endpoint and its own
//! [`PathPool`]. Routing toward one prefix never reads another prefix's
//! state, and every non-empty AS path ends in its prefix's origin AS, so
//! a column is self-contained: it is the unit of copy-on-write and of
//! sharding. Messages and stored routes
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
use crate::route::{local_pref_for, AsPath, Exit, Route, RouteSource, LOCAL_PREF_ORIGINATED};
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

/// Sentinel for "no session" (locally originated) in a stored route's
/// slot. Every real slot is below it, which [`assert_slots_indexable`]
/// guarantees at construction.
const NO_SLOT: u16 = u16::MAX;
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
/// decomposition ids are the same as under full-path keying. Only the
/// cons cells are stored, 8 bytes a path: a full path is a walk down
/// its tails, at most [`AsPath::MAX`] steps over a pool of a few hundred
/// entries that stays in cache.
///
/// Append-only: path ids stay valid for the lifetime of the pool, so a
/// snapshot restored over a grown pool still resolves every id.
#[derive(Clone, Debug)]
struct PathPool {
    /// Reverse index; point lookups only, never iterated.
    ids: HashMap<(AsId, u32), u32>,
    /// Cons cell of each path: its head AS and its tail's id (`tail <
    /// id`; unused for the empty path).
    cells: Vec<(AsId, u32)>,
}

impl PathPool {
    fn new() -> Self {
        PathPool {
            ids: HashMap::new(),
            cells: vec![(AsId(0), PATH_EMPTY)],
        }
    }

    /// The ASes of path `id`, nearest first.
    fn walk(&self, mut id: u32) -> impl Iterator<Item = AsId> + '_ {
        std::iter::from_fn(move || {
            (id != PATH_EMPTY).then(|| {
                let (head, tail) = self.cells[id as usize];
                id = tail;
                head
            })
        })
    }

    /// Path `id` in full.
    fn get(&self, id: u32) -> AsPath {
        let mut ids = [AsId(0); AsPath::MAX];
        let mut len = 0;
        for a in self.walk(id) {
            ids[len] = a;
            len += 1;
        }
        AsPath::from(&ids[..len])
    }

    /// True when path `id` passes through `as_id`.
    #[inline]
    fn contains(&self, id: u32, as_id: AsId) -> bool {
        self.walk(id).any(|a| a == as_id)
    }

    /// Interns path `tail` with `head` prepended (a new id).
    fn push(&mut self, head: AsId, tail: u32) -> u32 {
        let id = self.cells.len() as u32;
        self.ids.insert((head, tail), id);
        self.cells.push((head, tail));
        id
    }
}

/// [`StoredRoute::flags`] bits holding the source's code (see
/// [`source_code`]).
const SOURCE_BITS: u8 = 0b011;
/// [`StoredRoute::flags`] bit set on a route learned over eBGP.
const EBGP_BIT: u8 = 0b100;

/// The two-bit code of a route source, ascending with its local
/// preference ([`pref_of`]), so comparing codes ranks routes as
/// comparing preferences does.
const fn source_code(source: RouteSource) -> u8 {
    match source {
        RouteSource::External(PeerKind::Provider) => 0,
        RouteSource::External(PeerKind::Peer) => 1,
        RouteSource::External(PeerKind::Customer) => 2,
        RouteSource::Originated => 3,
    }
}

/// A route as stored in an Adj-RIB-In cell: 8 bytes, every other
/// attribute derivable (the session = the router's `slot`-th one; the
/// exit link = the eBGP session's link; the local preference =
/// [`pref_of`] the source; the `learned_from` peer = the session's other
/// endpoint; the egress = [`StoredRoute::egress`]; the prefix = the pid
/// of the column it sits in).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StoredRoute {
    /// Interned AS path ([`PathPool`] id).
    path: u32,
    /// The session the route was learned on, as an index into the
    /// router's own session list ([`SessionTable::of_router`], see
    /// [`SlotTable`]); [`NO_SLOT`] = originated.
    slot: u16,
    /// Cached AS-path length (decision-process hot read).
    path_len: u8,
    /// How the route entered the local AS ([`SOURCE_BITS`]) and whether
    /// it was learned over eBGP at this router ([`EBGP_BIT`]).
    flags: u8,
}

impl StoredRoute {
    /// A locally-originated route.
    const ORIGINATED: StoredRoute = StoredRoute {
        path: PATH_EMPTY,
        slot: NO_SLOT,
        path_len: 0,
        flags: source_code(RouteSource::Originated),
    };

    #[inline]
    fn new(path: u32, slot: u16, path_len: u8, source: RouteSource, ebgp: bool) -> Self {
        StoredRoute {
            path,
            slot,
            path_len,
            flags: source_code(source) | if ebgp { EBGP_BIT } else { 0 },
        }
    }

    /// How the route entered the local AS.
    #[inline]
    fn source(&self) -> RouteSource {
        match self.flags & SOURCE_BITS {
            0 => RouteSource::External(PeerKind::Provider),
            1 => RouteSource::External(PeerKind::Peer),
            2 => RouteSource::External(PeerKind::Customer),
            _ => RouteSource::Originated,
        }
    }

    /// The rank of the route's local preference: ordered as
    /// [`pref_of`] its source.
    #[inline]
    fn pref_rank(&self) -> u8 {
        self.flags & SOURCE_BITS
    }

    /// True when learned over eBGP at this router.
    #[inline]
    fn ebgp(&self) -> bool {
        self.flags & EBGP_BIT != 0
    }

    /// The border router of `r`'s AS where traffic on this route, stored
    /// at `r` and learned from `peer` (when learned at all), exits.
    ///
    /// An originated or eBGP-learned route exits at `r` itself. An
    /// iBGP-learned route exits at its sender: the iBGP mesh is full and
    /// reflects nothing, so a router re-advertises internally only the
    /// routes it exits itself, and every iBGP route was sent by its
    /// egress.
    #[inline]
    fn egress(&self, r: RouterId, peer: Option<RouterId>) -> RouterId {
        match peer {
            Some(peer) if !self.ebgp() => peer,
            _ => r,
        }
    }
}

/// Sentinel for "never overflowed" in [`AdjCell::spill`].
const NO_SPILL: u32 = u32::MAX;
/// [`AdjCell::best`] sentinel: the router has no route for the prefix.
const BEST_NONE: u16 = u16::MAX;
/// [`AdjCell::best`] sentinel: the router originates the prefix
/// ([`StoredRoute::ORIGINATED`]). Every slot index is below it, which
/// [`assert_slots_indexable`] guarantees at construction.
const BEST_ORIGINATED: u16 = u16::MAX - 1;

/// Routes received for one prefix at one router, keyed by session slot,
/// and the router's Loc-RIB entry for the prefix.
///
/// Valley-free exports mean a router hears a given prefix from only a
/// handful of neighbors, so two slots live inline and the rare overflow
/// (well under 0.1% of the cells of a generated internet) goes to a list
/// in its column's spill arena, [`Column::spill`]: the common path
/// allocates nothing and the cell stays 24 bytes. The best route is
/// always one of the cell's own routes or the originated one, so the
/// Loc-RIB is not a copy but an index, `best`, into the order
/// [`Column::adj_iter`] yields. The cell's routes are read and written
/// through the [`Column`], which owns the arena.
#[derive(Clone, Copy, Debug)]
struct AdjCell {
    /// Routes held, inline and spilled.
    len: u16,
    /// The Loc-RIB entry: the slot of the best route (its position in
    /// [`Column::adj_iter`]'s order, not its [`StoredRoute::slot`]),
    /// [`BEST_NONE`] or [`BEST_ORIGINATED`]. Between a change to the cell's routes and
    /// the [`Bgp::decide`] that follows it the slot may be stale: a
    /// removal shifts the slots after it.
    best: u16,
    /// Index of the cell's overflow list in [`Column::spill`]
    /// ([`NO_SPILL`] until the cell first overflows; kept, possibly
    /// empty, afterwards). The list is non-empty exactly when
    /// `len > INLINE`.
    spill: u32,
    inline: [StoredRoute; AdjCell::INLINE],
}

impl Default for AdjCell {
    fn default() -> Self {
        AdjCell {
            len: 0,
            best: BEST_NONE,
            spill: NO_SPILL,
            inline: [StoredRoute::ORIGINATED; AdjCell::INLINE],
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

    #[inline]
    fn spilled(&self) -> bool {
        self.len as usize > Self::INLINE
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
/// small fixed-size copy. An iBGP update's egress is its sender (see
/// [`StoredRoute::egress`]), so it is not carried.
#[derive(Clone, Copy, Debug)]
struct RouteMsg {
    pid: Pid,
    path: u32,
    path_len: u8,
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

// The layouts the RIB and queue memory budget rests on: a cell, with
// its Loc-RIB entry, is the whole per router × prefix cost.
const _: () = {
    assert!(std::mem::size_of::<StoredRoute>() == 8);
    assert!(std::mem::size_of::<AdjCell>() == 24);
    assert!(std::mem::size_of::<Msg>() == 20);
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
/// `adj_in` is a flat array indexed by router whose cells also hold each
/// router's Loc-RIB entry, so a prefix's convergence walks one contiguous
/// column and allocates nothing per message: 24 bytes per router. The
/// Adj-RIB-Out is one bit per session endpoint (see [`out_bit`]). Every
/// path a column's routes carry ends in the prefix's origin AS, so its
/// [`PathPool`] is its own and no path id crosses columns. The whole
/// struct sits behind an `Arc` for copy-on-write engine clones.
#[derive(Clone, Debug)]
struct Column {
    /// Routes received per router (by router index), per session slot,
    /// and the router's best route; read and written through the `adj_*`
    /// methods and [`Column::best`].
    adj_in: Vec<AdjCell>,
    /// Overflow lists of the `adj_in` cells holding more than
    /// [`AdjCell::INLINE`] routes, indexed by [`AdjCell::spill`].
    spill: Vec<Vec<StoredRoute>>,
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
            spill: Vec::new(),
            originated: Vec::new(),
            adj_out: Bits::default(),
            paths: PathPool::new(),
        }
    }

    /// The routes router `r` received, inline ones first, then its
    /// overflow list in arrival order.
    fn adj_iter(&self, r: RouterId) -> impl Iterator<Item = &StoredRoute> {
        let cell = &self.adj_in[r.index()];
        let spilled: &[StoredRoute] = if cell.spilled() {
            &self.spill[cell.spill as usize]
        } else {
            &[]
        };
        cell.inline[..cell.inline_len()].iter().chain(spilled)
    }

    /// Router `r`'s Loc-RIB entry: its best route for the prefix. Not
    /// to be read between a change to `r`'s routes and the decision
    /// that follows it (see [`AdjCell::best`]).
    fn best(&self, r: RouterId) -> Option<StoredRoute> {
        let cell = &self.adj_in[r.index()];
        match cell.best {
            BEST_NONE => None,
            BEST_ORIGINATED => Some(StoredRoute::ORIGINATED),
            slot => {
                let slot = usize::from(slot);
                debug_assert!(slot < usize::from(cell.len), "stale Loc-RIB slot");
                Some(match slot.checked_sub(AdjCell::INLINE) {
                    None => cell.inline[slot],
                    Some(i) => self.spill[cell.spill as usize][i],
                })
            }
        }
    }

    /// The route router `r` received on its session `slot`, if any.
    fn adj_get(&self, r: RouterId, slot: u16) -> Option<&StoredRoute> {
        self.adj_iter(r).find(|sr| sr.slot == slot)
    }

    /// Inserts or replaces the route router `r` received on `sr.slot`.
    fn adj_upsert(&mut self, r: RouterId, sr: StoredRoute) {
        let cell = &mut self.adj_in[r.index()];
        let il = cell.inline_len();
        if let Some(slot) = cell.inline[..il].iter_mut().find(|e| e.slot == sr.slot) {
            *slot = sr;
            return;
        }
        if il < AdjCell::INLINE {
            cell.inline[il] = sr;
            cell.len += 1;
            return;
        }
        if cell.spill == NO_SPILL {
            cell.spill = self.spill.len() as u32;
            // lint: allow(hot-alloc): a cell's first overflow, once per cell at most; under 0.1% of a generated internet's cells ever overflow
            self.spill.push(Vec::new());
        }
        let list = &mut self.spill[cell.spill as usize];
        if let Some(slot) = list.iter_mut().find(|e| e.slot == sr.slot) {
            *slot = sr;
            return;
        }
        list.push(sr);
        cell.len += 1;
    }

    /// Removes the route router `r` received on its session `slot`;
    /// false when absent. Removing an inline route shifts the inline tail
    /// left and refills the freed position from the head of the overflow
    /// list, so the order [`Column::adj_iter`] yields is the remaining
    /// routes' arrival order. The decision does not depend on that order:
    /// its key ends in the session slot, and a cell's slots are distinct,
    /// so no two routes tie.
    fn adj_remove(&mut self, r: RouterId, slot: u16) -> bool {
        let cell = &mut self.adj_in[r.index()];
        let il = cell.inline_len();
        let list = if cell.spilled() {
            Some(&mut self.spill[cell.spill as usize])
        } else {
            None
        };
        if let Some(i) = cell.inline[..il].iter().position(|e| e.slot == slot) {
            cell.inline.copy_within(i + 1..il, i);
            if let Some(list) = list {
                cell.inline[AdjCell::INLINE - 1] = list.remove(0);
            }
            cell.len -= 1;
            return true;
        }
        if let Some(list) = list {
            if let Some(i) = list.iter().position(|e| e.slot == slot) {
                list.remove(i);
                cell.len -= 1;
                return true;
            }
        }
        false
    }
}

/// Panics unless every one of the `routers` has fewer than `bound`
/// sessions, so that every position in its cells and every session slot
/// of its routes is below `bound`.
fn assert_slots_indexable(sessions: &SessionTable, routers: usize, bound: u16) {
    for r in 0..routers {
        let n = sessions.of_router(RouterId(r as u32)).len();
        assert!(
            n < usize::from(bound),
            "router {r} has {n} BGP sessions; a RIB cell indexes fewer than {bound}"
        );
    }
}

/// The set of prefix lengths in `prefixes`, as a bitmask: bit `len` set
/// when some prefix is `len` bits long.
fn length_mask(prefixes: &[Prefix]) -> u64 {
    prefixes.iter().fold(0, |m, p| m | 1 << p.len())
}

/// Every router's sessions by *slot*, the index into the router's own
/// session list ([`SessionTable::of_router`]) that a [`StoredRoute`]
/// keeps in place of the global [`SessionId`].
///
/// [`SessionTable::build`] pushes each router's sessions in ascending
/// id order, so comparing two slots of one router orders the routes as
/// comparing their session ids would, and [`Bgp::decide`]'s last
/// tie-break picks the same route either way. Built once with the
/// engine and shared by its clones.
#[derive(Debug)]
struct SlotTable {
    /// Where each router's slots start in `via`, indexed by router; one
    /// trailing entry closes the last router's range.
    start: Vec<u32>,
    /// Slot → the session and its other endpoint, flat over all routers.
    via: Vec<(SessionId, RouterId)>,
    /// Each session's slot at endpoint `a` and at endpoint `b`, indexed
    /// by session id.
    ends: Vec<[u16; 2]>,
}

impl SlotTable {
    fn build(sessions: &SessionTable, routers: usize) -> Self {
        let mut start = Vec::with_capacity(routers + 1);
        let mut via = Vec::with_capacity(2 * sessions.sessions().len());
        let mut ends = vec![[NO_SLOT; 2]; sessions.sessions().len()];
        for r in (0..routers).map(|r| RouterId(r as u32)) {
            start.push(via.len() as u32);
            for (slot, &sid) in sessions.of_router(r).iter().enumerate() {
                let s = sessions.get(sid);
                let peer = s
                    .other(r)
                    .expect("a router's session list holds its own sessions");
                via.push((sid, peer));
                // Below `NO_SLOT`, as `assert_slots_indexable` checked.
                ends[sid.index()][usize::from(r != s.a)] = slot as u16;
            }
        }
        start.push(via.len() as u32);
        SlotTable { start, via, ends }
    }

    /// Router `r`'s slots: slot `i` is entry `i`, its session and peer.
    #[inline]
    fn of(&self, r: RouterId) -> &[(SessionId, RouterId)] {
        &self.via[self.start[r.index()] as usize..self.start[r.index() + 1] as usize]
    }

    /// The slot of `session` at its endpoint `r`.
    #[inline]
    fn at(&self, session: &Session, r: RouterId) -> u16 {
        self.ends[session.id.index()][usize::from(r != session.a)]
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

/// The topology-derived tables of an engine: the session table, every
/// router's sessions by slot and the per-session policy inputs. They
/// depend on the topology alone, so they are built once per topology
/// and shared by every engine scoped from it ([`Bgp::scoped`]) and by
/// every clone of those.
#[derive(Debug)]
struct Tables {
    sessions: SessionTable,
    slots: SlotTable,
    meta: Vec<SessMeta>,
}

impl Tables {
    fn build(topology: &Topology) -> Self {
        let sessions = SessionTable::build(topology);
        // A cell holds at most one route per session of its router, its
        // Loc-RIB entry is a `u16` position below the sentinels, and each
        // route names its session by a `u16` slot below `NO_SLOT`. The
        // busiest router of a generated internet (seed 1) has 102
        // sessions at 1k ASes, 741 at 10k and 3,616 at 60k, far below the
        // bound.
        assert_slots_indexable(&sessions, topology.router_count(), BEST_ORIGINATED);
        let slots = SlotTable::build(&sessions, topology.router_count());
        let meta = sessions
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
        Tables {
            sessions,
            slots,
            meta,
        }
    }
}

/// The BGP simulator for a whole topology.
///
/// Per-prefix `Column`s sit behind [`Arc`]s so a `Bgp` clone is
/// O(#prefixes) pointer bumps; mutation goes through `Bgp::col_mut`,
/// which clones a column only when it is still shared with another engine
/// clone (copy-on-write). The topology-derived tables and the prefix
/// table are immutable after construction and shared outright.
#[derive(Clone, Debug)]
pub struct Bgp {
    /// Sessions, slots and per-session policy inputs (immutable, shared
    /// by every engine scoped from the same tables).
    tables: Arc<Tables>,
    /// Sorted prefix table; pid = index (immutable after build).
    prefixes: Arc<Vec<Prefix>>,
    /// Bit `len` set when the prefix table holds a prefix of length
    /// `len` (0..=32): the lengths [`Bgp::longest_match`] probes.
    prefix_lens: u64,
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
    /// IGP state — a `debug_assert` cross-checks every read. Kept inline,
    /// not behind an `Arc`: every delivered message reads it, and the
    /// extra indirection cost about 3% of a full convergence.
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
    /// origin prefix, and only these ASes may be originated. Builds the
    /// topology's tables and scopes them to `origins` ([`Bgp::scoped`]).
    ///
    /// An engine that only ever originates a few ASes (a sensor placement
    /// originates its sensors' prefixes) is observationally identical to
    /// a [`Bgp::new`] engine that originated the same ASes. Pids ascend in
    /// prefix order within the subset, so every pid walk visits the
    /// in-scope prefixes in the same relative order, and the prefixes left
    /// out would only ever have been empty cells there: [`Bgp::best_route`]
    /// answers `None` for them and a filter on them queues nothing.
    pub fn with_origins(topology: &Topology, origins: &[AsId]) -> Self {
        Self::base(topology).scoped(topology, origins)
    }

    /// The body of every constructor: an engine over `topology`'s freshly
    /// built tables with an empty prefix space, the base
    /// [`Bgp::scoped`] sizes.
    fn base(topology: &Topology) -> Self {
        Bgp {
            tables: Arc::new(Tables::build(topology)),
            prefixes: Arc::new(Vec::new()),
            prefix_lens: 0,
            columns: Vec::new(),
            filters: ExportFilters::new(),
            queue: VecDeque::new(),
            observer: None,
            observed: Vec::new(),
            recorder: RecorderHandle::noop(),
            trace_on: false,
            decisions: 0,
            cow_breaks: 0,
            replay_prefixes: 0,
            msg_cap: MAX_MESSAGES_PER_RUN,
            live: None,
        }
    }

    /// An engine over the prefix space of `origins` that shares this
    /// engine's topology-derived tables and copies its session-liveness
    /// cache, with empty RIBs. Only the new columns are built (O(#origins x
    /// #routers)); nothing derived from the topology is.
    ///
    /// `self` is a healthy base that has originated nothing: an engine
    /// with no column, no filter and an empty queue (checked in debug
    /// builds), built over `topology`, whose liveness cache, when
    /// present, is the all-links-up one. Its observer and recorder carry
    /// over.
    pub fn scoped(&self, topology: &Topology, origins: &[AsId]) -> Self {
        debug_assert!(
            self.columns.is_empty() && self.filters.is_empty() && self.queue.is_empty(),
            "Bgp::scoped needs a base that has originated nothing"
        );
        let mut prefixes: Vec<Prefix> = origins
            .iter()
            .map(|&a| topology.as_node(a).prefix)
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        let n_prefixes = prefixes.len();
        let mut bgp = self.clone();
        bgp.prefix_lens = length_mask(&prefixes);
        bgp.prefixes = Arc::new(prefixes);
        bgp.columns = (0..n_prefixes)
            .map(|_| Arc::new(Column::sized(topology.router_count())))
            .collect();
        bgp.msg_cap =
            MAX_MESSAGES_PER_RUN.max(self.tables.meta.len() as u64 * n_prefixes.max(1) as u64 * 64);
        bgp
    }

    /// The session table (immutable after build).
    pub fn sessions(&self) -> &SessionTable {
        &self.tables.sessions
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
                    self.tables
                        .sessions
                        .is_up(sid, ctx.topology, ctx.igp, ctx.links),
                    "stale session-liveness cache for {sid:?}"
                );
                up
            }
            None => self
                .tables
                .sessions
                .is_up(sid, ctx.topology, ctx.igp, ctx.links),
        }
    }

    /// (Re)builds the session-liveness cache from link and IGP state.
    pub fn recompute_liveness(&mut self, ctx: Ctx<'_>) {
        let sessions = &self.tables.sessions;
        let v = (0..sessions.sessions().len())
            .map(|i| {
                u8::from(sessions.is_up(SessionId(i as u32), ctx.topology, ctx.igp, ctx.links))
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
            if let Some(sid) = self.tables.sessions.ebgp_on_link(l) {
                self.set_session_down(sid);
            }
        }
    }

    /// Marks the iBGP sessions of the given same-AS router pairs down in
    /// the cache (the pairs come from [`SpfDelta::lost_pairs`]).
    pub fn mark_pairs_down(&mut self, pairs: &[(RouterId, RouterId)]) {
        for &(a, b) in pairs {
            if let Some(sid) = self.tables.sessions.ibgp_between(a, b) {
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
            let old = self.col(pid).best(r);
            if self.decide(ctx, r, pid, old) {
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

    /// The session a route stored at `r` was learned on and its peer, the
    /// session's other endpoint (`None` for an originated route).
    fn learned_from(&self, r: RouterId, sr: StoredRoute) -> Option<(SessionId, RouterId)> {
        (sr.slot != NO_SLOT).then(|| self.tables.slots.of(r)[usize::from(sr.slot)])
    }

    /// Where traffic on a route stored at `r` leaves `r`'s AS.
    fn exit(&self, r: RouterId, sr: StoredRoute) -> Exit {
        let learned = self.learned_from(r, sr);
        // An eBGP-learned route exits on the link its session rides.
        let ebgp_link = match learned {
            Some((sid, _)) if sr.ebgp() => match self.tables.sessions.get(sid).kind {
                SessionKind::Ebgp { link } => Some(link),
                SessionKind::Ibgp => None,
            },
            _ => None,
        };
        let peer = learned.map(|(_, peer)| peer);
        Exit {
            egress: sr.egress(r, peer),
            ebgp_link,
        }
    }

    /// Materializes a stored route into the public [`Route`] shape.
    fn materialize(&self, r: RouterId, pid: Pid, sr: StoredRoute) -> Route {
        let Exit { egress, ebgp_link } = self.exit(r, sr);
        Route {
            prefix: self.prefixes[pid as usize],
            as_path: self.col(pid).paths.get(sr.path),
            egress,
            ebgp_link,
            local_pref: pref_of(sr.source()),
            source: sr.source(),
            learned_from: self.learned_from(r, sr),
            ebgp_learned: sr.ebgp(),
        }
    }

    /// The best route of `r` for exactly `prefix`.
    pub fn best_route(&self, r: RouterId, prefix: &Prefix) -> Option<Route> {
        let pid = self.pid_of(prefix)?;
        self.col(pid).best(r).map(|sr| self.materialize(r, pid, sr))
    }

    /// The longest-prefix match for `dst` in `r`'s Loc-RIB, unmaterialized.
    ///
    /// Probes `dst` masked to each prefix length the table holds, longest
    /// first, with one exact [`Bgp::pid_of`] search each. At most one
    /// prefix of a given length contains `dst`, so the first probe that
    /// hits a prefix `r` holds a route for is the longest match; a prefix
    /// `r` has no route for is skipped, as a router without the route
    /// falls back to a shorter covering one.
    fn longest_match(&self, r: RouterId, dst: Ipv4Addr) -> Option<(Pid, StoredRoute)> {
        let mut lens = self.prefix_lens;
        while lens != 0 {
            let len = 63 - lens.leading_zeros();
            lens &= !(1 << len);
            if let Some(pid) = self.pid_of(&Prefix::new(dst, len as u8)) {
                if let Some(sr) = self.col(pid).best(r) {
                    return Some((pid, sr));
                }
            }
        }
        None
    }

    /// Longest-prefix-match lookup in `r`'s Loc-RIB.
    pub fn lookup(&self, r: RouterId, dst: Ipv4Addr) -> Option<Route> {
        self.longest_match(r, dst)
            .map(|(pid, sr)| self.materialize(r, pid, sr))
    }

    /// The exit of [`Bgp::lookup`]'s route, without materializing its AS
    /// path: all that forwarding a packet reads.
    pub fn lookup_exit(&self, r: RouterId, dst: Ipv4Addr) -> Option<Exit> {
        self.longest_match(r, dst).map(|(_, sr)| self.exit(r, sr))
    }

    /// Iterates over `r`'s Loc-RIB (prefix-ordered), materializing each
    /// route on demand.
    pub fn loc_rib(&self, r: RouterId) -> impl Iterator<Item = (Prefix, Route)> + '_ {
        self.columns.iter().enumerate().filter_map(move |(i, col)| {
            col.best(r)
                .map(|sr| (self.prefixes[i], self.materialize(r, i as u32, sr)))
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
                if let Some(sid) = self.tables.sessions.ebgp_on_link(link) {
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
        if let Some(sid) = self.tables.sessions.ebgp_on_link(link) {
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
            .filter_map(|&(a, b)| self.tables.sessions.ibgp_between(a, b))
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
            let old = col.best(r);
            if col.adj_in[r.index()].is_empty() && old.is_none() {
                continue;
            }
            if count_scoped {
                self.replay_prefixes += 1;
            }
            if self.decide(ctx, r, pid, old) {
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
            .flat_map(|&r| self.tables.sessions.of_router(r).iter().copied())
            .filter(|&sid| {
                let s = self.tables.sessions.get(sid);
                s.kind == SessionKind::Ibgp
                    && ctx.topology.as_of_router(s.a) == as_id
                    && !self
                        .tables
                        .sessions
                        .is_up(sid, ctx.topology, ctx.igp, ctx.links)
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
            if self.col(pid).best(r).is_some() {
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
        let s = *self.tables.sessions.get(sid);
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
            let slot = self.tables.slots.at(&s, r);
            // Each affected pid with `r`'s best route from before the
            // removal, which may shift the cell's positions.
            let mut affected: Vec<(Pid, Option<StoredRoute>)> = Vec::new();
            for pid in 0..self.columns.len() as Pid {
                let col = self.col(pid);
                let learned = col.adj_get(r, slot).is_some();
                // Read-only pre-check so columns the session never touched
                // don't break copy-on-write sharing.
                if !learned && !col.adj_out.contains(bit) {
                    continue;
                }
                let old = col.best(r);
                let col = self.col_mut(pid);
                col.adj_out.set(bit, false);
                if learned {
                    col.adj_remove(r, slot);
                    affected.push((pid, old));
                }
            }
            self.replay_prefixes += affected.len() as u64;
            for (pid, old) in affected {
                if self.decide(ctx, r, pid, old) {
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
        let meta = self.tables.meta[msg.session.index()];
        let (to, pid) = (msg.to, msg.pid());
        let session = *self.tables.sessions.get(msg.session);
        let slot = self.tables.slots.at(&session, to);
        let update = matches!(msg.payload, Payload::Update(_));
        // Observer tap: record eBGP messages arriving in the observer AS.
        if let Some(obs) = self.observer {
            if meta.ebgp {
                let (to_as, from_as) = if to == session.a {
                    (meta.a_as, meta.b_as)
                } else {
                    (meta.b_as, meta.a_as)
                };
                if to_as == obs {
                    self.observed.push(ObservedMsg {
                        at: to,
                        from: msg.from(&self.tables.sessions),
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
                    .field("from", msg.from(&self.tables.sessions).index())
                    .field("to", to.index())
                    .field("prefix", self.prefixes[pid as usize].to_string())
            });
        }

        // The best route before the cell changes: an update in place or a
        // removal can overwrite or shift its slot.
        let old = self.col(pid).best(to);
        match msg.payload {
            Payload::Update(rm) => match self.import(to, &session, slot, meta, rm) {
                Some(sr) => self.col_mut(pid).adj_upsert(to, sr),
                None => {
                    // Loop-rejected update acts as a withdraw of any
                    // previous route on the session.
                    self.remove_adj_in(to, pid, slot);
                }
            },
            Payload::Withdraw(_) => self.remove_adj_in(to, pid, slot),
        }
        if self.decide(ctx, to, pid, old) {
            self.propagate(ctx, to, pid);
        }
    }

    /// Drops the route learned for `pid` on session `slot` at `to`, if
    /// any, without breaking copy-on-write when there is nothing to drop.
    fn remove_adj_in(&mut self, to: RouterId, pid: Pid, slot: u16) {
        if self.col(pid).adj_get(to, slot).is_some() {
            self.col_mut(pid).adj_remove(to, slot);
        }
    }

    /// Converts an incoming update on `s`, `to`'s session `slot`, into a
    /// stored route (import policy). Returns `None` when the route is
    /// loop-rejected.
    fn import(
        &self,
        to: RouterId,
        s: &Session,
        slot: u16,
        meta: SessMeta,
        rm: RouteMsg,
    ) -> Option<StoredRoute> {
        match s.kind {
            SessionKind::Ebgp { .. } => {
                let (my_as, rel) = if to == s.a {
                    (meta.a_as, meta.rel_at_a)
                } else {
                    (meta.b_as, meta.rel_at_b)
                };
                if self.col(rm.pid).paths.contains(rm.path, my_as) {
                    return None;
                }
                Some(StoredRoute::new(
                    rm.path,
                    slot,
                    rm.path_len,
                    RouteSource::External(rel),
                    true,
                ))
            }
            SessionKind::Ibgp => Some(StoredRoute::new(
                rm.path,
                slot,
                rm.path_len,
                rm.source,
                false,
            )),
        }
    }

    /// Recomputes the best route of `r` for `pid`. Returns true when the
    /// Loc-RIB entry differs from `old`, the entry before the caller
    /// changed `r`'s routes (a caller that changed none passes
    /// [`Column::best`]).
    // hot
    fn decide(&mut self, ctx: Ctx<'_>, r: RouterId, pid: Pid, old: Option<StoredRoute>) -> bool {
        self.decisions += 1;
        let col = self.col(pid);
        let (slot, best) = if col.originated.contains(&r) {
            (BEST_ORIGINATED, Some(StoredRoute::ORIGINATED))
        } else {
            let as_igp = ctx.igp.of(ctx.topology.as_of_router(r));
            // Each route's session and its sender, the session's other
            // endpoint: an eBGP route exits here, an iBGP one at its
            // sender (`StoredRoute::egress`).
            let via = self.tables.slots.of(r);
            let learned = |sr: &StoredRoute| via[usize::from(sr.slot)];
            let best = col
                .adj_iter(r)
                .enumerate()
                .filter(|(_, sr)| {
                    let (sid, n) = learned(sr);
                    self.sess_up(ctx, sid) && (sr.ebgp() || as_igp.reachable(r, n))
                })
                .max_by_key(|(_, sr)| {
                    let n = learned(sr).1;
                    let igp_dist = if sr.ebgp() {
                        0
                    } else {
                        as_igp.dist(r, n).expect("filtered reachable")
                    };
                    // The slot orders a router's sessions as their ids do
                    // (see `SlotTable`).
                    (
                        sr.pref_rank(),
                        std::cmp::Reverse(sr.path_len),
                        sr.ebgp(),
                        std::cmp::Reverse(igp_dist),
                        std::cmp::Reverse(n.0),
                        std::cmp::Reverse(sr.slot),
                    )
                });
            match best {
                // Below `BEST_ORIGINATED`, as `assert_slots_indexable`
                // checked at construction.
                Some((i, sr)) => (i as u16, Some(*sr)),
                None => (BEST_NONE, None),
            }
        };

        // Only take write access when the slot actually moves, so a
        // no-op re-decision (the common case in `refresh_as` and in
        // withdraw storms that leave the best route alone) keeps the
        // column shared. The slot and the route change apart: a removal
        // before the best route shifts its slot, and an update on its
        // session replaces it in place.
        if col.adj_in[r.index()].best != slot {
            self.col_mut(pid).adj_in[r.index()].best = slot;
        }
        old != best
    }

    /// Synchronizes every session's Adj-RIB-Out with the current best route
    /// of `r` for `pid`, queueing updates/withdraws.
    // hot
    fn propagate(&mut self, ctx: Ctx<'_>, r: RouterId, pid: Pid) {
        let best: Option<StoredRoute> = self.col(pid).best(r);
        let tables = Arc::clone(&self.tables);
        let sessions = &tables.sessions;
        // The eBGP prepend is identical for every peer of `r`; intern it
        // once, lazily, per propagate.
        let mut prepended: Option<(u32, u8)> = None;
        for (slot, &sid) in sessions.of_router(r).iter().enumerate() {
            if !self.sess_up(ctx, sid) {
                continue;
            }
            let session = *sessions.get(sid);
            let peer = session
                .other(r)
                .expect("sid comes from r's session table, so r is an endpoint");
            let advertise: Option<RouteMsg> = match best {
                // A slot below `NO_SLOT`, as `assert_slots_indexable`
                // checked at construction.
                Some(b) => self.export((r, peer), session, slot as u16, pid, b, &mut prepended),
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
    /// `b` to `peer` over `session`, `r`'s session `slot`. Takes `&mut
    /// self` to intern the prepended AS path (cached in `prepended` across
    /// one propagate).
    fn export(
        &mut self,
        (r, peer): (RouterId, RouterId),
        session: Session,
        slot: u16,
        pid: Pid,
        b: StoredRoute,
        prepended: &mut Option<(u32, u8)>,
    ) -> Option<RouteMsg> {
        let meta = self.tables.meta[session.id.index()];
        if !meta.ebgp {
            // Standard iBGP: only eBGP-learned and originated routes are
            // re-advertised internally (no reflection of iBGP routes).
            if !(b.ebgp() || b.source() == RouteSource::Originated) {
                return None;
            }
            return Some(RouteMsg {
                pid,
                path: b.path,
                path_len: b.path_len,
                source: b.source(),
            });
        }
        let (my_as, peer_as, rel) = if r == session.a {
            (meta.a_as, meta.b_as, meta.rel_at_a)
        } else {
            (meta.b_as, meta.a_as, meta.rel_at_b)
        };
        if !b.source().exportable_to(rel) {
            return None;
        }
        if self.col(pid).paths.contains(b.path, peer_as) {
            return None; // AS-level split horizon
        }
        if b.slot == slot {
            return None; // never echo a route back on its session
        }
        if self.filters.is_denied(r, peer, self.prefixes[pid as usize]) {
            return None; // misconfiguration
        }
        let (path, path_len) = match *prepended {
            Some(v) => v,
            None => {
                // Valley-free paths stay far below the inline capacity;
                // reaching it means the generator or the decision
                // process is broken.
                assert!(
                    usize::from(b.path_len) < AsPath::MAX,
                    "AS path exceeds inline capacity"
                );
                let v = (self.intern_path(pid, my_as, b.path), b.path_len + 1);
                *prepended = Some(v);
                v
            }
        };
        Some(RouteMsg {
            pid,
            path,
            path_len,
            source: b.source(),
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
    use netdiag_topology::{AsKind, LinkRelationship, TopologyBuilder};
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// One step of [`ShadowRib`]: at center router `r`, about its link to
    /// neighbor `n`.
    #[derive(Clone, Debug)]
    enum Op {
        /// An update with this AS path (indices into [`ShadowRib::ases`]).
        Update {
            r: usize,
            n: usize,
            path: Vec<usize>,
        },
        Withdraw {
            r: usize,
            n: usize,
        },
        /// A flush of the session, as on its link's failure.
        Flush {
            r: usize,
            n: usize,
        },
        /// A re-decision that changes nothing first.
        Redecide {
            r: usize,
        },
        /// Center 0 originates the prefix.
        Originate,
    }

    /// A [`Bgp`] of one prefix (center 0's) beside a shadow that stores
    /// the Adj-RIB-In as a plain list per router and the Loc-RIB as a
    /// `Vec<Option<StoredRoute>>`, as the RIB did before the Loc-RIB
    /// moved into the cells.
    ///
    /// Three single-router center ASes each have eBGP sessions to four
    /// neighbor ASes (a customer, a peer and two providers) and to a
    /// silent customer of their own. Only the centers receive messages,
    /// every route is exportable to a silent customer, and no path holds
    /// one, so a center queues a message exactly when its decision
    /// reports a change: the queue shows each change flag, including the
    /// one `deliver` acts on.
    struct ShadowRib {
        topology: Topology,
        links: LinkState,
        igp: Igp,
        bgp: Bgp,
        centers: [RouterId; 3],
        /// Session of each center to each neighbor.
        sessions: [[SessionId; 4]; 3],
        /// The ASes update paths are drawn from: the centers', the
        /// neighbors' and two outside the topology.
        ases: Vec<AsId>,
        adj: Vec<Vec<StoredRoute>>,
        loc: Vec<Option<StoredRoute>>,
        /// Center 0 originates the prefix.
        originated: bool,
    }

    impl ShadowRib {
        fn new() -> Self {
            let mut b = TopologyBuilder::new();
            let centers: Vec<RouterId> = (0..3)
                .map(|i| {
                    let a = b.add_as(AsKind::Tier2, format!("C{i}"));
                    b.add_router(a, format!("c{i}"))
                })
                .collect();
            let neighbors: Vec<RouterId> = (0..4)
                .map(|j| {
                    let a = b.add_as(AsKind::Tier2, format!("N{j}"));
                    b.add_router(a, format!("n{j}"))
                })
                .collect();
            for (i, &c) in centers.iter().enumerate() {
                for (j, &n) in neighbors.iter().enumerate() {
                    match j {
                        0 => b.add_inter_link(c, n, LinkRelationship::ProviderCustomer),
                        1 => b.add_inter_link(c, n, LinkRelationship::PeerPeer),
                        _ => b.add_inter_link(n, c, LinkRelationship::ProviderCustomer),
                    };
                }
                let silent = b.add_as(AsKind::Stub, format!("S{i}"));
                let s = b.add_router(silent, format!("s{i}"));
                b.add_inter_link(c, s, LinkRelationship::ProviderCustomer);
            }
            let topology = b.build().unwrap();
            let links = LinkState::all_up(&topology);
            let igp = Igp::compute(&topology, &links);
            let bgp = Bgp::with_origins(&topology, &[AsId(0)]);
            let sessions = std::array::from_fn(|i| {
                std::array::from_fn(|j| {
                    let link = topology.link_between(centers[i], neighbors[j]).unwrap();
                    bgp.sessions().ebgp_on_link(link).unwrap()
                })
            });
            let mut ases: Vec<AsId> = (0..7).map(AsId).collect();
            ases.extend([AsId(100), AsId(101)]);
            ShadowRib {
                topology,
                links,
                igp,
                bgp,
                centers: [centers[0], centers[1], centers[2]],
                sessions,
                ases,
                adj: vec![Vec::new(); 3],
                loc: vec![None; 3],
                originated: false,
            }
        }

        /// The parent's decision over the shadow list: every session is an
        /// up eBGP one, so the key reduces to preference, path length,
        /// neighbor and session.
        fn shadow_decide(&self, r: usize) -> Option<StoredRoute> {
            if r == 0 && self.originated {
                return Some(StoredRoute::ORIGINATED);
            }
            let center = self.centers[r];
            self.adj[r]
                .iter()
                .max_by_key(|sr| {
                    let sid = self.bgp.sessions().of_router(center)[usize::from(sr.slot)];
                    let peer = self.bgp.sessions().get(sid).other(center);
                    (
                        pref_of(sr.source()),
                        Reverse(sr.path_len),
                        Reverse(peer.unwrap().0),
                        Reverse(sid.0),
                    )
                })
                .copied()
        }

        /// The slot of center `r`'s session to neighbor `n`.
        fn slot(&self, r: usize, n: usize) -> u16 {
            let sids = self.bgp.sessions().of_router(self.centers[r]);
            let slot = sids.iter().position(|&s| s == self.sessions[r][n]);
            slot.unwrap() as u16
        }

        /// Applies `op` to the engine and the shadow; fails when the
        /// engine's routes, Loc-RIB or change flag part from the shadow's.
        fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
            let r = match *op {
                Op::Update { r, .. }
                | Op::Withdraw { r, .. }
                | Op::Flush { r, .. }
                | Op::Redecide { r } => r,
                Op::Originate => 0,
            };
            let center = self.centers[r];
            let ctx = Ctx {
                topology: &self.topology,
                igp: &self.igp,
                links: &self.links,
            };
            let drop_session = |adj: &mut Vec<StoredRoute>, slot: u16| {
                adj.retain(|e| e.slot != slot);
            };
            match op {
                &Op::Update { n, ref path, .. } => {
                    let sid = self.sessions[r][n];
                    let mut id = PATH_EMPTY;
                    for &a in path.iter().rev() {
                        id = self.bgp.intern_path(0, self.ases[a], id);
                    }
                    let msg = Msg {
                        session: sid,
                        to: center,
                        payload: Payload::Update(RouteMsg {
                            pid: 0,
                            path: id,
                            path_len: path.len() as u8,
                            source: RouteSource::Originated,
                        }),
                    };
                    self.bgp.deliver(ctx, msg);
                    let slot = self.slot(r, n);
                    if path.iter().any(|&a| self.ases[a] == AsId(r as u32)) {
                        drop_session(&mut self.adj[r], slot);
                    } else {
                        let rel = self
                            .topology
                            .relationship(AsId(r as u32), AsId(3 + n as u32));
                        let source = RouteSource::External(rel.unwrap());
                        let sr = StoredRoute::new(id, slot, path.len() as u8, source, true);
                        match self.adj[r].iter().position(|e| e.slot == slot) {
                            Some(i) => self.adj[r][i] = sr,
                            None => self.adj[r].push(sr),
                        }
                    }
                }
                &Op::Withdraw { n, .. } => {
                    let sid = self.sessions[r][n];
                    let payload = Payload::Withdraw(0);
                    self.bgp.deliver(
                        ctx,
                        Msg {
                            session: sid,
                            to: center,
                            payload,
                        },
                    );
                    let slot = self.slot(r, n);
                    drop_session(&mut self.adj[r], slot);
                }
                &Op::Flush { n, .. } => {
                    let sid = self.sessions[r][n];
                    self.bgp.flush_session(ctx, sid);
                    let slot = self.slot(r, n);
                    drop_session(&mut self.adj[r], slot);
                }
                Op::Redecide { .. } => self.bgp.replay_router(ctx, center, false),
                Op::Originate => {
                    self.bgp.originate_as(ctx, AsId(0));
                    self.originated = true;
                }
            }
            let old = self.loc[r];
            let new = self.shadow_decide(r);
            self.loc[r] = new;
            let changed = !self.bgp.queue.is_empty();
            self.bgp.queue.clear();
            prop_assert_eq!(changed, old != new, "change flag after {:?}", op);
            for (i, &c) in self.centers.iter().enumerate() {
                let col = self.bgp.col(0);
                let got: Vec<StoredRoute> = col.adj_iter(c).copied().collect();
                prop_assert_eq!(&got, &self.adj[i], "routes of center {} after {:?}", i, op);
                prop_assert_eq!(
                    col.best(c),
                    self.loc[i],
                    "Loc-RIB of center {} after {:?}",
                    i,
                    op
                );
            }
            Ok(())
        }
    }

    /// Updates half the time, then withdrawals, flushes, re-decisions
    /// and, rarely, the origination.
    fn op() -> impl Strategy<Value = Op> {
        let path = proptest::collection::vec(0..9usize, 0..4);
        (0..12u32, 0..3usize, 0..4usize, path).prop_map(|(kind, r, n, path)| match kind {
            0..=5 => Op::Update { r, n, path },
            6..=8 => Op::Withdraw { r, n },
            9 => Op::Flush { r, n },
            10 => Op::Redecide { r },
            _ => Op::Originate,
        })
    }

    /// The two edits that separate the best route from its slot, in
    /// order: a route replaced in place in the best slot, and a removal
    /// before the best slot that shifts it.
    #[test]
    fn best_slot_survives_in_place_replacement_and_shifts() {
        let mut rib = ShadowRib::new();
        let up = |n: usize, path: Vec<usize>| Op::Update { r: 1, n, path };
        for op in [
            up(3, vec![6]),
            up(2, vec![5, 6]),
            // Best is slot 0 (n3, the shorter provider path); replace it
            // in place with a longer one, so n2 takes over.
            up(3, vec![7, 8, 6]),
            // Best is slot 1 (n2); remove slot 0, shifting it to 0.
            Op::Withdraw { r: 1, n: 3 },
            // Best in slot 0 again; replace it in place, still best.
            up(2, vec![7]),
            up(0, vec![5, 7, 8]),
            Op::Flush { r: 1, n: 2 },
            Op::Redecide { r: 1 },
        ] {
            rib.apply(&op).unwrap();
        }
    }

    /// A router with as many sessions as the bound fails construction's
    /// check; one fewer passes.
    #[test]
    fn slot_bound_check_counts_each_routers_sessions() {
        let rib = ShadowRib::new();
        let busiest = (0..rib.topology.router_count())
            .map(|r| rib.bgp.sessions().of_router(RouterId(r as u32)).len())
            .max()
            .unwrap();
        assert_eq!(busiest, 5);
        let routers = rib.topology.router_count();
        let sessions = rib.bgp.sessions();
        assert_slots_indexable(sessions, routers, 6);
        let refused = std::panic::catch_unwind(|| {
            assert_slots_indexable(sessions, routers, 5);
        });
        assert!(refused.is_err());
    }

    /// Every router's session list ascends strictly by global id, on the
    /// paper's internet and on a generated one: that is what lets a
    /// route's router-local slot stand in for its session id in the
    /// decision's last tie-break. The slot table inverts the lists.
    #[test]
    fn session_slots_ascend_with_global_ids() {
        use netdiag_topology::builders::{build_internet, InternetConfig};
        use netdiag_topology::gen::{generate, GenConfig};
        for topology in [
            build_internet(&InternetConfig::default()).topology,
            generate(&GenConfig::new(200, 5)).unwrap().topology,
        ] {
            let bgp = Bgp::new(&topology);
            for r in topology.routers().iter().map(|r| r.id) {
                let sids = bgp.sessions().of_router(r);
                assert!(sids.windows(2).all(|w| w[0] < w[1]), "{r:?}: {sids:?}");
                let via = bgp.tables.slots.of(r);
                assert_eq!(via.len(), sids.len());
                for (slot, &sid) in sids.iter().enumerate() {
                    let s = bgp.sessions().get(sid);
                    assert_eq!(via[slot], (sid, s.other(r).unwrap()));
                    assert_eq!(usize::from(bgp.tables.slots.at(s, r)), slot);
                }
            }
        }
    }

    /// The packed flags give back the source and the eBGP bit they were
    /// built from, and their source codes rank as local preference does.
    #[test]
    fn route_flags_round_trip_and_rank_by_preference() {
        let sources = [
            RouteSource::External(PeerKind::Provider),
            RouteSource::External(PeerKind::Peer),
            RouteSource::External(PeerKind::Customer),
            RouteSource::Originated,
        ];
        for source in sources {
            for ebgp in [false, true] {
                let sr = StoredRoute::new(7, 3, 2, source, ebgp);
                assert_eq!((sr.source(), sr.ebgp()), (source, ebgp));
                for other in sources {
                    let o = StoredRoute::new(7, 3, 2, other, !ebgp);
                    assert_eq!(
                        sr.pref_rank().cmp(&o.pref_rank()),
                        pref_of(source).cmp(&pref_of(other))
                    );
                }
            }
        }
        assert_eq!(StoredRoute::ORIGINATED.source(), RouteSource::Originated);
        assert!(!StoredRoute::ORIGINATED.ebgp());
    }

    /// The linear scan [`Bgp::longest_match`] replaced: the longest
    /// prefix containing `dst` among those `r` holds a route for.
    fn longest_match_scan(bgp: &Bgp, r: RouterId, dst: Ipv4Addr) -> Option<(Pid, StoredRoute)> {
        let mut best: Option<(Pid, StoredRoute)> = None;
        for (i, p) in bgp.prefixes.iter().enumerate() {
            if !p.contains(dst) {
                continue;
            }
            let Some(sr) = bgp.columns[i].best(r) else {
                continue;
            };
            if best.is_none_or(|(bp, _)| bgp.prefixes[bp as usize].len() <= p.len()) {
                best = Some((i as u32, sr));
            }
        }
        best
    }

    /// An address in 10.0.0.0/8 with few free bits, so random prefixes
    /// built from such addresses nest often.
    fn nesting_addr(x: u32) -> Ipv4Addr {
        Ipv4Addr::from(0x0A00_0000 | (x & 0x0003_0F0F))
    }

    proptest! {
        /// The indexed longest-prefix match agrees with the linear scan
        /// over prefix tables of nested prefixes of every length, the
        /// default route included, at routers that hold a route for only
        /// some of them.
        #[test]
        fn longest_match_agrees_with_a_linear_scan(
            prefixes in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..24),
            held in proptest::collection::vec(any::<u8>(), 24),
            dsts in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..32),
        ) {
            const ROUTERS: usize = 3;
            let mut b = TopologyBuilder::new();
            let a = b.add_as(AsKind::Stub, "A");
            let routers: Vec<RouterId> = (0..ROUTERS).map(|i| b.add_router(a, format!("a{i}"))).collect();
            for w in routers.windows(2) {
                b.add_intra_link(w[0], w[1], 1);
            }
            let mut bgp = Bgp::new(&b.build().unwrap());
            let mut table: Vec<Prefix> = prefixes
                .iter()
                .map(|&(x, len)| Prefix::new(nesting_addr(x), len))
                .collect();
            table.sort_unstable();
            table.dedup();
            bgp.prefix_lens = length_mask(&table);
            // Router `r` holds a route for prefix `i` when bit `r` of
            // `held[i]` is set; each route's path id is its pid.
            bgp.columns = (0..table.len())
                .map(|i| {
                    let mut col = Column::sized(ROUTERS);
                    for r in (0..ROUTERS).filter(|r| held[i] & 1 << r != 0) {
                        let sr = StoredRoute { path: i as u32, slot: 0, ..StoredRoute::ORIGINATED };
                        col.adj_upsert(RouterId(r as u32), sr);
                        col.adj_in[r].best = 0;
                    }
                    Arc::new(col)
                })
                .collect();
            bgp.prefixes = Arc::new(table);
            for (x, near) in dsts {
                let dst = if near { nesting_addr(x) } else { Ipv4Addr::from(x) };
                for r in (0..ROUTERS).map(|r| RouterId(r as u32)) {
                    prop_assert_eq!(
                        bgp.longest_match(r, dst),
                        longest_match_scan(&bgp, r, dst),
                        "{} at {:?}",
                        dst,
                        r
                    );
                }
            }
        }

        /// Random updates, withdrawals, flushes, re-decisions and an
        /// origination keep every center's Loc-RIB slot on the route a
        /// stored Loc-RIB holds, and every change flag equal to "the old
        /// best route differs from the new one".
        #[test]
        fn loc_rib_slots_match_a_stored_loc_rib(ops in proptest::collection::vec(op(), 1..200)) {
            let mut rib = ShadowRib::new();
            for op in &ops {
                rib.apply(op)?;
            }
        }

        /// Cons-keyed interning assigns the ids, and materializes the
        /// paths, a pool keyed by the full `AsPath` would: each op
        /// prepends a head AS to an already-interned tail, and heads come
        /// from a small range so paths recur.
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
                let path: AsPath = std::iter::once(AsId(head)).chain(path.iter().copied()).collect::<Vec<_>>().into();
                let want = *oracle.entry(path).or_insert_with(|| {
                    oracle_paths.push(path);
                    oracle_paths.len() as u32 - 1
                });
                prop_assert_eq!(bgp.intern_path(0, AsId(head), tail), want);
            }
            let pool = &bgp.col(0).paths;
            prop_assert_eq!(pool.cells.len(), oracle_paths.len());
            for (id, want) in oracle_paths.iter().enumerate() {
                prop_assert_eq!(&pool.get(id as u32), want, "path {}", id);
            }
            for (id, &(_, tail)) in pool.cells.iter().enumerate().skip(1) {
                prop_assert!((tail as usize) < id, "tail {tail} of path {id}");
            }
        }

        /// The Adj-RIB-In cells of one column, two inline slots each and
        /// overflow lists in the shared spill arena, hold what a plain
        /// list per router would, in the same order: an update replaces
        /// in place, a new session appends and a removal keeps the
        /// others' order. Sessions come from a small range so cells fill,
        /// spill and drain again.
        #[test]
        fn adj_cells_keep_a_list_oracles_contents_and_order(
            ops in proptest::collection::vec((0u32..3, any::<bool>(), 0u16..6, any::<u32>()), 1..400),
        ) {
            let mut col = Column::sized(3);
            let mut oracle: Vec<Vec<StoredRoute>> = vec![Vec::new(); 3];
            for (r, insert, slot, path) in ops {
                let (router, list) = (RouterId(r), &mut oracle[r as usize]);
                let at = list.iter().position(|e| e.slot == slot);
                if insert {
                    let sr = StoredRoute { path, slot, ..StoredRoute::ORIGINATED };
                    col.adj_upsert(router, sr);
                    match at {
                        Some(i) => list[i] = sr,
                        None => list.push(sr),
                    }
                } else {
                    prop_assert_eq!(col.adj_remove(router, slot), at.is_some());
                    if let Some(i) = at {
                        list.remove(i);
                    }
                }
                for (i, want) in oracle.iter().enumerate() {
                    let r = RouterId(i as u32);
                    let got: Vec<StoredRoute> = col.adj_iter(r).copied().collect();
                    prop_assert_eq!(&got, want, "router {}", i);
                    prop_assert_eq!(col.adj_in[i].len as usize, want.len());
                    prop_assert_eq!(col.adj_in[i].is_empty(), want.is_empty());
                    for s in 0..6 {
                        let hit = want.iter().find(|e| e.slot == s);
                        prop_assert_eq!(col.adj_get(r, s), hit);
                    }
                }
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
