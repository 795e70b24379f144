//! Concurrency stress and parity tests for [`LiveRecorder`].
//!
//! The recorder's record path is lock-free (sharded atomics, a
//! thread-local slot cache), so plain-thread hammering is the honest
//! check we can run without a model checker: every contribution must
//! land exactly once, from any interleaving, whether recorded straight
//! into the registry or through a [`FanoutRecorder`] composed via
//! [`RecorderHandle::sink`]. The parity test pins the other half of the
//! contract: on a sequential workload the lock-free registry reports
//! exactly what a plain fold of the same observations gives. The race
//! tests pin the lazily built series lanes: threads released together on
//! a brand-new name build its lanes once and lose no record.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use netdiag_obs::{GaugeSnapshot, LiveRecorder, Recorder, RecorderHandle, RunReport, SeriesStats};

const THREADS: u64 = 8;
const OPS: u64 = 10_000;

const COUNTER: &str = "stress.counter";
const HIST: &str = "stress.hist";
const SPAN: &str = "stress.span";
const GAUGE: &str = "stress.gauge";

/// Runs `THREADS` workers, each recording `OPS` of every metric kind
/// through its own clone of `handle`.
fn hammer(handle: &RecorderHandle) {
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let recorder = handle.clone();
        workers.push(std::thread::spawn(move || {
            for i in 0..OPS {
                recorder.add(COUNTER, 1);
                recorder.observe(HIST, (t * OPS + i) % 1024);
                recorder.record_span(SPAN, i % 64);
                recorder.gauge_add(GAUGE, 1);
                recorder.gauge_sub(GAUGE, 1);
            }
        }));
    }
    for worker in workers {
        worker.join().expect("stress worker panicked");
    }
}

/// Asserts a report holds exactly the `THREADS * OPS` contributions.
fn assert_totals(report: &netdiag_obs::RunReport, label: &str) {
    let total = THREADS * OPS;
    assert_eq!(report.counter(COUNTER), total, "{label}: counter");
    let hist = report.histogram(HIST).expect("histogram recorded");
    assert_eq!(hist.count, total, "{label}: histogram count");
    // Per-thread sums of (t*OPS + i) % 1024 are deterministic, so the
    // shard-summed total must match a sequential computation exactly.
    let expected_sum: u64 = (0..THREADS)
        .flat_map(|t| (0..OPS).map(move |i| (t * OPS + i) % 1024))
        .sum();
    assert_eq!(hist.sum, expected_sum, "{label}: histogram sum");
    assert_eq!(hist.min, 0, "{label}: histogram min");
    assert_eq!(hist.max, 1023, "{label}: histogram max");
    let span = report.span(SPAN).expect("span recorded");
    assert_eq!(span.count, total, "{label}: span count");
    let gauge = report.gauge(GAUGE).expect("gauge recorded");
    assert_eq!(gauge.current, 0, "{label}: gauge settles to zero");
    assert!(
        gauge.high_water >= 1 && gauge.high_water <= THREADS,
        "{label}: gauge high water {} outside [1, {THREADS}]",
        gauge.high_water
    );
}

#[test]
fn concurrent_hammering_loses_nothing() {
    let (handle, live) = RecorderHandle::live();
    hammer(&handle);
    assert_eq!(live.overflowed(), 0, "slot tables must not overflow");
    assert_totals(&live.snapshot(), "direct");
}

#[test]
fn fanout_composition_keeps_every_sink_exact() {
    // The daemon's shape: a live registry fanned out with another sink,
    // reached through RecorderHandle::sink() composition.
    let live = Arc::new(LiveRecorder::new());
    let mirror = Arc::new(LiveRecorder::new());
    let handle = RecorderHandle::fanout(vec![
        Arc::clone(&live) as Arc<dyn Recorder>,
        Arc::clone(&mirror) as Arc<dyn Recorder>,
    ]);
    // Re-wrap through sink() as server code does when re-fanning.
    let rewrapped = RecorderHandle::fanout(vec![handle.sink()]);
    hammer(&rewrapped);
    assert_totals(&live.snapshot(), "live sink");
    assert_totals(&mirror.snapshot(), "mirrored sink");
}

/// The oracle's series fold: count, saturating sum, min, max and the
/// log2 buckets (slot 0 holds zeros, slot `b` holds `[2^(b-1), 2^b)`),
/// computed here from the raw values rather than by the crate.
fn fold_series(values: &[u64]) -> SeriesStats {
    let mut buckets = [0u64; 65];
    for &v in values {
        buckets[(u64::BITS - v.leading_zeros()) as usize] += 1;
    }
    SeriesStats::from_parts(
        values.len() as u64,
        values.iter().fold(0u64, |acc, &v| acc.saturating_add(v)),
        *values.iter().min().expect("a recorded series is non-empty"),
        *values.iter().max().expect("a recorded series is non-empty"),
        buckets,
    )
}

#[test]
fn sequential_workload_matches_a_plain_fold_exactly() {
    let (recorder, live) = RecorderHandle::live();
    let mut counter = 0u64;
    let (mut hist, mut span) = (Vec::new(), Vec::new());
    let mut gauge = GaugeSnapshot::default();
    for i in 0..5_000u64 {
        recorder.add(COUNTER, 1 + i % 3);
        counter += 1 + i % 3;
        recorder.observe(HIST, i * i % 4096);
        hist.push(i * i % 4096);
        recorder.record_span(SPAN, i % 100);
        span.push(i % 100);
        recorder.gauge_add(GAUGE, 2);
        gauge.current += 2;
        gauge.high_water = gauge.high_water.max(gauge.current);
        recorder.gauge_sub(GAUGE, 1);
        gauge.current -= 1;
        if i % 500 == 0 {
            recorder.gauge_set(GAUGE, 5);
            gauge.current = 5;
            gauge.high_water = gauge.high_water.max(5);
        }
    }
    let expected = RunReport {
        counters: BTreeMap::from([(COUNTER.to_owned(), counter)]),
        histograms: BTreeMap::from([(HIST.to_owned(), fold_series(&hist))]),
        spans: BTreeMap::from([(SPAN.to_owned(), fold_series(&span))]),
        gauges: BTreeMap::from([(GAUGE.to_owned(), gauge)]),
    };
    // Whole-report equality: counters, per-bucket histograms, spans,
    // gauges — the lock-free path may not drift from the fold in any
    // field.
    assert_eq!(live.snapshot(), expected);
}

/// Heap bytes one claimed series adds to a registry's footprint.
fn lane_set_bytes() -> usize {
    let live = LiveRecorder::new();
    let empty = live.footprint_bytes();
    live.observe(HIST, 1);
    live.footprint_bytes() - empty
}

/// Fresh registries the race test releases its threads on: a lost
/// first record needs a thread to land in the moment between a name's
/// claim and its lanes' construction, so one race rarely shows it.
const RACES: u64 = 200;

/// Records per thread and name in each race.
const RACE_OPS: u64 = 64;

#[test]
fn racing_first_records_build_each_series_once() {
    let hist: Vec<u64> = (0..THREADS * RACE_OPS).collect();
    let span: Vec<u64> = (0..THREADS)
        .flat_map(|t| (0..RACE_OPS).map(move |i| (t + i) % 512))
        .collect();
    let expected = RunReport {
        histograms: BTreeMap::from([(HIST.to_owned(), fold_series(&hist))]),
        spans: BTreeMap::from([(SPAN.to_owned(), fold_series(&span))]),
        ..RunReport::default()
    };
    let lane_set = lane_set_bytes();
    for race in 0..RACES {
        let live = LiveRecorder::new();
        let empty = live.footprint_bytes();
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (live, start) = (&live, &start);
                scope.spawn(move || {
                    // Every thread's first record of both names lands at
                    // once.
                    start.wait();
                    for i in 0..RACE_OPS {
                        live.observe(HIST, t * RACE_OPS + i);
                        live.record_span(SPAN, (t + i) % 512);
                    }
                });
            }
        });
        // One slot and one lane set per name: a second slot for either
        // name, or a lane set built twice, would show here.
        assert_eq!(
            live.footprint_bytes(),
            empty + 2 * lane_set,
            "race {race}: lane sets"
        );
        assert_eq!(live.overflowed(), 0, "race {race}: overflow");
        assert_eq!(live.snapshot(), expected, "race {race}: totals");
    }
}

#[test]
fn series_names_past_the_table_are_counted_as_overflow() {
    let live = LiveRecorder::new();
    let empty = live.footprint_bytes();
    let fresh = |i: usize| -> &'static str { Box::leak(format!("overflow.{i}").into_boxed_str()) };
    // Claim slots until a name finds the table full.
    let mut claimed = 0;
    while live.overflowed() == 0 {
        assert!(claimed <= 4096, "histogram table never filled");
        live.observe(fresh(claimed), 1);
        claimed += 1;
    }
    claimed -= 1;
    for i in 0..7 {
        live.observe(fresh(claimed + 1 + i), 1);
    }
    assert_eq!(live.overflowed(), 8);
    // Dropped names build no lanes and leave the claimed series intact.
    assert_eq!(live.footprint_bytes(), empty + claimed * lane_set_bytes());
    let report = live.snapshot();
    assert_eq!(report.histograms.len(), claimed);
    assert!(report.histograms.values().all(|s| s.count == 1));
}
