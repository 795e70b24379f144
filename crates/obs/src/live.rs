//! [`LiveRecorder`]: the workspace's one metrics recorder, behind
//! `netdiag-serve`'s stats plane and every CLI `--profile` report.
//!
//! A daemon needs a record path cheap enough to leave on under
//! production load, and a registry that can be snapshotted *at any
//! instant* while workers keep recording; a batch run just snapshots
//! once at the end. A mutex-guarded aggregate would serialize every
//! concurrent worker on one lock, so `LiveRecorder` is built on three
//! ideas instead:
//!
//! * **Lock-free record path.** Metrics live in fixed open-addressed
//!   tables of slots claimed with [`OnceLock`]; recording is a handful
//!   of `Relaxed` atomic operations. The only mutex in the type guards
//!   the window ring, which snapshot readers touch — never recorders.
//! * **Interned name resolution, cached per call site.** Metric names
//!   are `&'static str` constants, so a slot lookup can key on the
//!   *pointer*: a thread-local direct-mapped cache maps
//!   `(recorder, kind, name ptr)` to a slot index, making the steady
//!   state a TLS load, one compare and the atomic bump itself.
//! * **Exclusive write lanes.** Each slot holds a small array of
//!   cache-line-padded lanes. The first few threads to record each own
//!   a lane outright and bump it with plain relaxed load-then-store —
//!   no atomic read-modify-write on the hot path at all, which is what
//!   keeps a live bump within 2x of a virtual-dispatch noop. Later
//!   threads share one overflow lane where `fetch_add` keeps totals
//!   exact; a snapshot sums the lanes.
//!
//! Gauges are the fourth metric kind: a *level* (queue depth, live
//! connections) with set/add/sub semantics and a high-water mark, where
//! counter semantics would monotonically aggregate a quantity that is
//! supposed to go back down.
//!
//! Beyond the cumulative [`RunReport`] snapshot, the recorder keeps a
//! ring of timestamped snapshots ([`LiveRecorder::roll`], driven by the
//! daemon's ticker) from which [`LiveRecorder::windowed`] derives rate
//! and percentile deltas over the last N seconds: because the log2
//! histogram buckets are monotone counters, subtracting two cumulative
//! snapshots yields the *exact* histogram of the window between them.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::event::Event;
use crate::{log2_bucket, GaugeSnapshot, Recorder, RunReport, SeriesStats};

/// Slots per metric table; names beyond this are silently dropped
/// (counted in [`LiveRecorder::overflowed`]). The workspace vocabulary
/// is ~40 names, so 256 leaves the tables < 20% full.
const SLOTS: usize = 256;

/// Write lanes per slot. The first `SHARDS - 1` threads to record each
/// own a lane *exclusively* and update it with plain relaxed
/// load-then-store — no read-modify-write on the hot path at all; every
/// later thread shares the last lane, where `fetch_add` keeps the total
/// exact under concurrency. A snapshot sums the lanes.
const SHARDS: usize = 8;

/// Lane index of the shared overflow lane (the only lane updated with
/// atomic RMW operations).
const SHARED_LANE: usize = SHARDS - 1;

/// Entries in each thread's direct-mapped slot cache.
const CACHE_WAYS: usize = 64;

/// Snapshots retained by the window ring (at the daemon's 1 Hz ticker,
/// about a minute of history).
const RING_CAPACITY: usize = 64;

/// One cache-line-padded atomic cell.
#[repr(align(64))]
#[derive(Default)]
struct PadCell(AtomicU64);

/// A monotone counter: name plus per-lane cells.
struct CounterSlot {
    name: OnceLock<&'static str>,
    lanes: [PadCell; SHARDS],
}

/// One write lane of a series: the sum and the full log2 bucket array,
/// so a lane-owning thread records without any RMW. Padded so lanes
/// never false-share.
#[repr(align(64))]
struct SeriesLane {
    sum: AtomicU64,
    buckets: [AtomicU64; 65],
}

/// A histogram or span series.
///
/// `count` is derived from the buckets (they partition the
/// observations), so recording costs one bucket bump, one sum bump, and
/// two usually-skipped conditional updates for the slot-shared min/max.
struct SeriesSlot {
    name: OnceLock<&'static str>,
    lanes: [SeriesLane; SHARDS],
    /// Initialized to `u64::MAX`; meaningful once any bucket is nonzero.
    min: AtomicU64,
    max: AtomicU64,
}

/// A level with a high-water mark.
struct GaugeSlot {
    name: OnceLock<&'static str>,
    current: AtomicU64,
    high: AtomicU64,
}

/// The metric kind, used to key the per-thread slot cache (the same
/// name may legitimately exist in two tables).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter = 0,
    Histogram = 1,
    Span = 2,
    Gauge = 3,
}

/// One thread-local cache entry: `(recorder id, kind, name ptr)` →
/// where to write. Recorder id and kind are packed into one word
/// (`meta`) so a hit is two compares, not three. `route` packs the slot
/// with this thread's lane (`slot << 4 | lane << 1 | exclusive`), so a
/// hit needs no other thread-local state.
#[derive(Clone, Copy)]
struct CacheEntry {
    ptr: *const u8,
    meta: u64,
    route: u32,
}

/// `meta` 0 never matches a live entry: recorder ids start at 1.
const EMPTY_ENTRY: CacheEntry = CacheEntry {
    ptr: std::ptr::null(),
    meta: 0,
    route: 0,
};

/// Unpacks a cache entry's `route` into `(slot, lane, exclusive)`,
/// masked so the compiler can prove table indexing in bounds.
#[inline(always)]
fn unpack_route(route: u32) -> (usize, usize, bool) {
    (
        (route >> 4) as usize & (SLOTS - 1),
        (route >> 1) as usize & (SHARDS - 1),
        route & 1 == 1,
    )
}

/// Packs `(recorder id, kind)` into a cache `meta` word. Ids are
/// sequential (from [`NEXT_RECORDER_ID`]) so the shift cannot overflow
/// in any real process lifetime.
fn cache_meta(rid: u64, kind: Kind) -> u64 {
    rid << 2 | kind as u64
}

/// The cache way a `(kind, name ptr)` pair maps to.
#[inline(always)]
fn cache_way(kind: Kind, ptr: *const u8) -> usize {
    (ptr as usize >> 3).wrapping_add(kind as usize) & (CACHE_WAYS - 1)
}

/// The record path's thread-local state: the slot cache plus this
/// thread's write lane, packed as `index << 1 | exclusive` (`u32::MAX`
/// until the thread first records). Only the cold path reads `lane`;
/// cache entries carry a copy.
struct RecorderTls {
    cache: [Cell<CacheEntry>; CACHE_WAYS],
    lane: Cell<u32>,
}

thread_local! {
    /// Direct-mapped `(recorder, kind, name ptr)` → slot cache. Keyed by
    /// pointer because metric names are `&'static str` constants: the
    /// same call site always presents the same pointer, so the steady
    /// state of every call site is one TLS hit.
    static TLS: RecorderTls = const {
        RecorderTls {
            cache: [const { Cell::new(EMPTY_ENTRY) }; CACHE_WAYS],
            lane: Cell::new(u32::MAX),
        }
    };
}

/// Global source of per-thread lane ids and recorder ids. Lane ids are
/// never reused, so an exclusive lane has exactly one writer thread for
/// the life of the process — that is what makes plain store updates
/// exact.
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// Assigns this thread's write lane on its first record: the first
/// [`SHARED_LANE`] threads own a lane outright (`index << 1 | 1`),
/// everyone later shares the RMW lane.
#[cold]
fn assign_lane(t: &RecorderTls) -> u32 {
    let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    let packed = if id < SHARED_LANE {
        (id as u32) << 1 | 1
    } else {
        (SHARED_LANE as u32) << 1
    };
    t.lane.set(packed);
    packed
}

/// The one-writer fast path: lane owners bump with load-then-store (the
/// store cannot race another writer), the shared lane pays the RMW.
#[inline(always)]
fn bump(cell: &AtomicU64, delta: u64, exclusive: bool) {
    if exclusive {
        let v = cell.load(Ordering::Relaxed).wrapping_add(delta);
        cell.store(v, Ordering::Relaxed);
    } else {
        cell.fetch_add(delta, Ordering::Relaxed);
    }
}

/// FNV-1a over the name bytes: the probe sequence must be stable across
/// threads even when two crates carry duplicate `&'static str` data, so
/// it hashes content, not the pointer.
fn hash_name(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as usize
}

/// Rate and percentile deltas over a trailing window (see
/// [`LiveRecorder::windowed`]).
#[derive(Clone, Debug, Default)]
pub struct WindowDelta {
    /// Actual width of the window in seconds (bounded by the history
    /// the ring holds).
    pub secs: f64,
    /// Counter increments per second over the window, by name.
    /// Counters that did not move are omitted.
    pub rates: BTreeMap<String, f64>,
    /// Exact per-window histogram series (bucket deltas between the two
    /// cumulative snapshots); min/max are bucket bounds, percentiles
    /// carry the usual log2 factor-of-two accuracy.
    pub histograms: BTreeMap<String, SeriesStats>,
    /// Per-window span series, nanoseconds.
    pub spans: BTreeMap<String, SeriesStats>,
}

struct WindowRing {
    entries: VecDeque<(Instant, RunReport)>,
}

/// A sharded, lock-free-on-the-record-path aggregating recorder that
/// can be snapshotted at any instant (see the module docs).
pub struct LiveRecorder {
    id: u64,
    started: Instant,
    // Fixed-size tables (not `Vec`s): indexed with masked slots, so the
    // record path compiles without bounds checks.
    counters: Box<[CounterSlot; SLOTS]>,
    histograms: Box<[SeriesSlot; SLOTS]>,
    spans: Box<[SeriesSlot; SLOTS]>,
    gauges: Box<[GaugeSlot; SLOTS]>,
    /// Records that found every table slot taken (vocabulary overflow).
    overflow: AtomicU64,
    /// Timestamped cumulative snapshots for window queries. Touched only
    /// by [`roll`](Self::roll)/[`windowed`](Self::windowed) — never by
    /// the record path.
    ring: Mutex<WindowRing>,
}

impl Default for LiveRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveRecorder {
    /// Creates an empty registry.
    pub fn new() -> Self {
        LiveRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            started: Instant::now(),
            counters: Self::table(|| CounterSlot {
                name: OnceLock::new(),
                lanes: std::array::from_fn(|_| PadCell::default()),
            }),
            histograms: Self::table(Self::series_slot),
            spans: Self::table(Self::series_slot),
            gauges: Self::table(|| GaugeSlot {
                name: OnceLock::new(),
                current: AtomicU64::new(0),
                high: AtomicU64::new(0),
            }),
            overflow: AtomicU64::new(0),
            ring: Mutex::new(WindowRing {
                entries: VecDeque::new(),
            }),
        }
    }

    /// Heap-builds one fixed-size slot table (too big for the stack to
    /// be comfortable: a series table is several hundred KiB).
    fn table<T>(make: impl Fn() -> T) -> Box<[T; SLOTS]> {
        let slots: Vec<T> = (0..SLOTS).map(|_| make()).collect();
        slots
            .into_boxed_slice()
            .try_into()
            // lint: allow(panic-macro): the vec above is built from
            // `0..SLOTS`, so the length conversion cannot fail.
            .unwrap_or_else(|_| unreachable!("table built with SLOTS entries"))
    }

    fn series_slot() -> SeriesSlot {
        SeriesSlot {
            name: OnceLock::new(),
            lanes: std::array::from_fn(|_| SeriesLane {
                sum: AtomicU64::new(0),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Time since the recorder was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Records dropped because a table ran out of slots (0 in any
    /// healthy configuration — the tables hold `SLOTS` names each).
    pub fn overflowed(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// The record path's steady state: resolves `name` to
    /// `(slot, lane, exclusive)` in `kind`'s table with one thread-local
    /// cache load, when this thread's cache knows the name. `None` sends
    /// the caller to [`Self::resolve_cold`] (first record on this
    /// thread, cache miss, full table), which the record methods reach
    /// by a tail call: with nothing live across a call, the hot path
    /// needs no callee-saved registers.
    ///
    /// The TLS closure deliberately captures one integer and copies one
    /// small value out: a fat capture would bloat the `LocalKey::with`
    /// instantiation past the inliner's budget and leave the whole
    /// record path behind an out-of-line call (measurably ~3x slower).
    #[inline(always)]
    fn resolve_hot(&self, kind: Kind, name: &'static str) -> Option<(usize, usize, bool)> {
        let ptr = name.as_ptr();
        let way = cache_way(kind, ptr);
        let cached = TLS.with(|t| t.cache[way].get());
        (std::ptr::eq(cached.ptr, ptr) && cached.meta == cache_meta(self.id, kind))
            .then(|| unpack_route(cached.route))
    }

    /// Everything [`Self::resolve_hot`] leaves out: assigns this
    /// thread's write lane on its first record, probes the table and
    /// installs the cache entry. `None` when the table is full.
    #[cold]
    #[inline(never)]
    fn resolve_cold(&self, kind: Kind, name: &'static str) -> Option<(usize, usize, bool)> {
        let packed = TLS.with(|t| match t.lane.get() {
            u32::MAX => assign_lane(t),
            packed => packed,
        });
        let route = (self.resolve_slow(kind, name)? as u32) << 4 | packed;
        TLS.with(|t| {
            t.cache[cache_way(kind, name.as_ptr())].set(CacheEntry {
                ptr: name.as_ptr(),
                meta: cache_meta(self.id, kind),
                route,
            });
        });
        Some(unpack_route(route))
    }

    /// [`Self::resolve_hot`], falling back to [`Self::resolve_cold`]
    /// (for the gauge methods, which are not on a per-request hot path).
    fn resolve(&self, kind: Kind, name: &'static str) -> Option<(usize, usize, bool)> {
        self.resolve_hot(kind, name)
            .or_else(|| self.resolve_cold(kind, name))
    }

    /// Bumps a resolved counter lane.
    #[inline(always)]
    fn count(&self, (slot, lane, exclusive): (usize, usize, bool), delta: u64) {
        bump(&self.counters[slot].lanes[lane].0, delta, exclusive);
    }

    /// [`Recorder::add`] after a missed [`Self::resolve_hot`].
    #[cold]
    #[inline(never)]
    fn add_cold(&self, name: &'static str, delta: u64) {
        if let Some(route) = self.resolve_cold(Kind::Counter, name) {
            self.count(route, delta);
        }
    }

    /// [`Recorder::observe`] / [`Recorder::record_span`] after a missed
    /// [`Self::resolve_hot`].
    #[cold]
    #[inline(never)]
    fn record_series_cold(&self, kind: Kind, name: &'static str, value: u64) {
        let table = match kind {
            Kind::Span => &self.spans,
            _ => &self.histograms,
        };
        if let Some((slot, lane, exclusive)) = self.resolve_cold(kind, name) {
            Self::record_series(table, slot, lane, exclusive, value);
        }
    }

    /// Open-addressed probe over the table's `OnceLock` names.
    fn resolve_slow(&self, kind: Kind, name: &'static str) -> Option<usize> {
        let h = hash_name(name);
        for probe in 0..SLOTS {
            let idx = h.wrapping_add(probe) & (SLOTS - 1);
            let cell = match kind {
                Kind::Counter => &self.counters[idx].name,
                Kind::Histogram => &self.histograms[idx].name,
                Kind::Span => &self.spans[idx].name,
                Kind::Gauge => &self.gauges[idx].name,
            };
            match cell.get() {
                Some(&taken) if taken == name => return Some(idx),
                Some(_) => continue,
                None => {
                    if cell.set(name).is_ok() || cell.get().is_some_and(|&n| n == name) {
                        return Some(idx);
                    }
                    // A different name won the race for this slot.
                }
            }
        }
        self.overflow.fetch_add(1, Ordering::Relaxed);
        None
    }

    #[inline(always)]
    fn record_series(
        table: &[SeriesSlot; SLOTS],
        slot: usize,
        lane: usize,
        exclusive: bool,
        value: u64,
    ) {
        let s = &table[slot];
        let l = &s.lanes[lane];
        bump(&l.buckets[log2_bucket(value)], 1, exclusive);
        bump(&l.sum, value, exclusive);
        // min/max RMWs are skipped in the steady state (the plain loads
        // make the common "inside the seen range" case two reads).
        if value < s.min.load(Ordering::Relaxed) {
            s.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > s.max.load(Ordering::Relaxed) {
            s.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    fn series_stats(slot: &SeriesSlot) -> Option<SeriesStats> {
        let mut buckets = [0u64; 65];
        let mut count = 0u64;
        let mut sum = 0u64;
        for lane in &slot.lanes {
            for (b, cell) in lane.buckets.iter().enumerate() {
                let n = cell.load(Ordering::Relaxed);
                buckets[b] += n;
                count += n;
            }
            sum = sum.saturating_add(lane.sum.load(Ordering::Relaxed));
        }
        if count == 0 {
            return None;
        }
        Some(SeriesStats::from_parts(
            count,
            sum,
            slot.min.load(Ordering::Relaxed),
            slot.max.load(Ordering::Relaxed),
            buckets,
        ))
    }

    /// Snapshots the registry into the standard [`RunReport`] shape.
    ///
    /// Safe at any instant: recorders keep going while the snapshot
    /// reads, so totals are a consistent-enough point-in-time view (each
    /// metric is read atomically; cross-metric skew is bounded by the
    /// walk time).
    pub fn snapshot(&self) -> RunReport {
        let mut report = RunReport::default();
        for slot in self.counters.iter() {
            let Some(&name) = slot.name.get() else {
                continue;
            };
            let total = slot
                .lanes
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .sum::<u64>();
            report.counters.insert(name.to_owned(), total);
        }
        for (table, out) in [
            (&self.histograms, &mut report.histograms),
            (&self.spans, &mut report.spans),
        ] {
            for slot in table.iter() {
                let Some(&name) = slot.name.get() else {
                    continue;
                };
                if let Some(stats) = Self::series_stats(slot) {
                    out.insert(name.to_owned(), stats);
                }
            }
        }
        for slot in self.gauges.iter() {
            let Some(&name) = slot.name.get() else {
                continue;
            };
            report.gauges.insert(
                name.to_owned(),
                GaugeSnapshot {
                    current: slot.current.load(Ordering::Relaxed),
                    high_water: slot.high.load(Ordering::Relaxed),
                },
            );
        }
        report
    }

    /// Pushes the current cumulative snapshot into the window ring.
    ///
    /// The daemon's telemetry ticker calls this on a fixed cadence
    /// (1 Hz); with `RING_CAPACITY` entries that keeps about a minute
    /// of history for [`windowed`](Self::windowed) queries.
    pub fn roll(&self) {
        let snap = self.snapshot();
        let mut ring = self.ring.lock().expect("window ring poisoned");
        ring.entries.push_back((Instant::now(), snap));
        while ring.entries.len() > RING_CAPACITY {
            ring.entries.pop_front();
        }
    }

    /// Rates and percentile series over (approximately) the last
    /// `window`, by subtracting the newest ring snapshot at least that
    /// old from the current state.
    ///
    /// Returns `None` when the ring holds no usable baseline (no
    /// [`roll`](Self::roll) yet, or all entries are too fresh for a
    /// meaningful rate).
    pub fn windowed(&self, window: Duration) -> Option<WindowDelta> {
        let now = Instant::now();
        let base = {
            let ring = self.ring.lock().expect("window ring poisoned");
            let target = now.checked_sub(window).unwrap_or(now);
            // Newest entry at or before the window start; else the
            // oldest we have (a narrower window beats no answer).
            ring.entries
                .iter()
                .rev()
                .find(|(t, _)| *t <= target)
                .or_else(|| ring.entries.front())
                .map(|(t, snap)| (*t, snap.clone()))
        };
        let (base_at, base) = base?;
        let secs = now.duration_since(base_at).as_secs_f64();
        if secs < 0.05 {
            return None;
        }
        let current = self.snapshot();
        let mut delta = WindowDelta {
            secs,
            ..WindowDelta::default()
        };
        for (name, &cur) in &current.counters {
            let inc = cur.saturating_sub(base.counter(name));
            if inc > 0 {
                delta.rates.insert(name.clone(), inc as f64 / secs);
            }
        }
        for (cur_series, base_series, out) in [
            (&current.histograms, &base.histograms, &mut delta.histograms),
            (&current.spans, &base.spans, &mut delta.spans),
        ] {
            for (name, cur) in cur_series {
                let diffed = match base_series.get(name) {
                    Some(old) => cur.bucket_delta(old),
                    None => Some(*cur),
                };
                if let Some(stats) = diffed {
                    out.insert(name.clone(), stats);
                }
            }
        }
        Some(delta)
    }
}

impl Recorder for LiveRecorder {
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, name: &'static str, delta: u64) {
        match self.resolve_hot(Kind::Counter, name) {
            Some(route) => self.count(route, delta),
            None => self.add_cold(name, delta),
        }
    }

    #[inline]
    fn observe(&self, name: &'static str, value: u64) {
        match self.resolve_hot(Kind::Histogram, name) {
            Some((slot, lane, exclusive)) => {
                Self::record_series(&self.histograms, slot, lane, exclusive, value);
            }
            None => self.record_series_cold(Kind::Histogram, name, value),
        }
    }

    #[inline]
    fn record_span(&self, name: &'static str, nanos: u64) {
        match self.resolve_hot(Kind::Span, name) {
            Some((slot, lane, exclusive)) => {
                Self::record_series(&self.spans, slot, lane, exclusive, nanos);
            }
            None => self.record_series_cold(Kind::Span, name, nanos),
        }
    }

    fn gauge_set(&self, name: &'static str, value: u64) {
        if let Some((slot, _, _)) = self.resolve(Kind::Gauge, name) {
            let g = &self.gauges[slot];
            g.current.store(value, Ordering::Relaxed);
            g.high.fetch_max(value, Ordering::Relaxed);
        }
    }

    fn gauge_add(&self, name: &'static str, delta: u64) {
        if let Some((slot, _, _)) = self.resolve(Kind::Gauge, name) {
            let g = &self.gauges[slot];
            let new = g
                .current
                .fetch_add(delta, Ordering::Relaxed)
                .saturating_add(delta);
            g.high.fetch_max(new, Ordering::Relaxed);
        }
    }

    fn gauge_sub(&self, name: &'static str, delta: u64) {
        if let Some((slot, _, _)) = self.resolve(Kind::Gauge, name) {
            // Saturating at zero: a stray extra decrement must not wrap
            // the level to u64::MAX (and poison the high-water mark).
            let _ = self.gauges[slot].current.fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |cur| Some(cur.saturating_sub(delta)),
            );
        }
    }

    fn trace_enabled(&self) -> bool {
        false
    }

    fn event(&self, _event: Event) {}
}

impl std::fmt::Debug for LiveRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRecorder")
            .field("id", &self.id)
            .field("overflowed", &self.overflowed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecorderHandle;
    use std::sync::Arc;

    #[test]
    fn counters_shard_and_sum() {
        let live = LiveRecorder::new();
        live.add("c.one", 2);
        live.add("c.one", 3);
        live.add("c.two", 1);
        let report = live.snapshot();
        assert_eq!(report.counter("c.one"), 5);
        assert_eq!(report.counter("c.two"), 1);
        assert_eq!(live.overflowed(), 0);
    }

    #[test]
    fn series_track_count_sum_min_max() {
        let live = LiveRecorder::new();
        for v in [7, 3, 12] {
            live.observe("h.v", v);
        }
        live.record_span("s.v", 1000);
        let report = live.snapshot();
        let h = report.histogram("h.v").expect("histogram recorded");
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 22, 3, 12));
        assert_eq!(report.span("s.v").map(|s| s.count), Some(1));
    }

    #[test]
    fn gauges_track_level_and_high_water() {
        let live = LiveRecorder::new();
        live.gauge_add("g.depth", 3);
        live.gauge_add("g.depth", 2);
        live.gauge_sub("g.depth", 4);
        let g = live.snapshot().gauges["g.depth"];
        assert_eq!((g.current, g.high_water), (1, 5));
        // Saturating: an unmatched sub cannot wrap.
        live.gauge_sub("g.depth", 100);
        let g = live.snapshot().gauges["g.depth"];
        assert_eq!((g.current, g.high_water), (0, 5));
        live.gauge_set("g.depth", 2);
        let g = live.snapshot().gauges["g.depth"];
        assert_eq!((g.current, g.high_water), (2, 5));
    }

    #[test]
    fn same_name_lives_independently_per_kind() {
        let live = LiveRecorder::new();
        live.add("dual", 4);
        live.observe("dual", 9);
        let report = live.snapshot();
        assert_eq!(report.counter("dual"), 4);
        assert_eq!(report.histogram("dual").map(|s| s.sum), Some(9));
    }

    #[test]
    fn two_recorders_do_not_share_cache_entries() {
        // Same &'static str pointer, two registries: the thread-local
        // cache must key on the recorder id too.
        let a = LiveRecorder::new();
        let b = LiveRecorder::new();
        let name: &'static str = "shared.name";
        a.add(name, 1);
        b.add(name, 10);
        a.add(name, 1);
        assert_eq!(a.snapshot().counter(name), 2);
        assert_eq!(b.snapshot().counter(name), 10);
    }

    #[test]
    fn windowed_deltas_report_only_window_activity() {
        let live = LiveRecorder::new();
        live.add("w.count", 100);
        live.observe("w.lat", 1);
        live.roll();
        std::thread::sleep(Duration::from_millis(80));
        live.add("w.count", 10);
        live.observe("w.lat", 1024);
        let delta = live
            .windowed(Duration::from_millis(10))
            .expect("ring has a baseline");
        assert!(delta.secs > 0.0);
        let rate = delta.rates["w.count"];
        assert!((rate * delta.secs).round() as u64 == 10, "rate {rate}");
        let lat = delta.histograms["w.lat"];
        assert_eq!(lat.count, 1);
        assert_eq!(lat.sum, 1024);
        // The pre-window observation of 1 is subtracted out.
        assert!(lat.min > 1);
    }

    #[test]
    fn windowed_without_roll_is_none() {
        let live = LiveRecorder::new();
        live.add("x", 1);
        assert!(live.windowed(Duration::from_secs(1)).is_none());
    }

    #[test]
    fn handle_constructor_wires_the_recorder() {
        let (h, live) = RecorderHandle::live();
        assert!(h.enabled());
        assert!(!h.trace_enabled());
        h.add("via.handle", 2);
        h.gauge_add("via.gauge", 1);
        {
            let _g = h.span("via.span");
        }
        let report = live.snapshot();
        assert_eq!(report.counter("via.handle"), 2);
        assert_eq!(report.gauges["via.gauge"].current, 1);
        assert_eq!(report.span("via.span").map(|s| s.count), Some(1));
    }

    #[test]
    fn overflow_drops_are_counted_not_panics() {
        let live = LiveRecorder::new();
        // Exhaust the counter table with leaked unique names.
        for i in 0..(SLOTS + 8) {
            let name: &'static str = Box::leak(format!("overflow.{i}").into_boxed_str());
            live.add(name, 1);
        }
        assert!(live.overflowed() >= 8);
        assert_eq!(live.snapshot().counters.len(), SLOTS);
    }

    #[test]
    fn fanout_composes_live_with_other_sinks() {
        let live = Arc::new(LiveRecorder::new());
        let (other_handle, other) = RecorderHandle::live();
        let h = RecorderHandle::fanout(vec![live.clone(), other_handle.sink()]);
        h.add("both", 3);
        h.gauge_add("lvl", 2);
        assert_eq!(live.snapshot().counter("both"), 3);
        assert_eq!(other.snapshot().counter("both"), 3);
        assert_eq!(live.snapshot().gauges["lvl"].current, 2);
        assert_eq!(other.snapshot().gauges["lvl"].current, 2);
    }
}
