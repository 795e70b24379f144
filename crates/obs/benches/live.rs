//! `live_metrics_overhead`: the cost of the always-on `LiveRecorder`
//! record path against a `NoopRecorder`.
//!
//! * `noop` / `live` — the serve request mix (a counter bump, a
//!   histogram observation, a span record and a gauge raise/lower)
//!   through the disabled handle vs the live one;
//! * `dispatch` / `bump` — the budgeted pair: one counter bump through
//!   `Arc<dyn Recorder>` into the live registry vs the same virtual
//!   dispatch into a `NoopRecorder`. `scripts/bench.sh` holds
//!   `bump` within 2x of `dispatch`.
//!
//! Run: `cargo bench -p netdiag-obs --bench live`.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netdiag_obs::{names, NoopRecorder, Recorder, RecorderHandle};

fn bench_live_metrics_overhead(c: &mut Criterion) {
    let noop = RecorderHandle::noop();
    let (live, registry) = RecorderHandle::live();
    let mut group = c.benchmark_group("live_metrics_overhead");
    group
        .sample_size(50)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    for (label, handle) in [("noop", &noop), ("live", &live)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                for i in 0..64u64 {
                    let h = black_box(handle);
                    h.add(names::SERVE_REQUESTS, 1);
                    h.observe(names::SERVE_CLIENT_LATENCY, i * 977);
                    h.record_span(names::SERVE_PHASE_DIAGNOSE, i * 31);
                    h.gauge_add(names::SERVE_QUEUE_DEPTH, 1);
                    h.gauge_sub(names::SERVE_QUEUE_DEPTH, 1);
                }
            })
        });
    }
    // The budgeted pair: an actual NoopRecorder virtual dispatch (not
    // the enabled-gated short circuit, which compiles to one flag load)
    // vs a LiveRecorder counter bump through the same plumbing.
    let noop_sink: Arc<dyn Recorder> = Arc::new(NoopRecorder);
    group.bench_function("dispatch", |b| {
        b.iter(|| {
            for _ in 0..64u64 {
                black_box(&noop_sink).add(names::SERVE_REQUESTS, black_box(1));
            }
        })
    });
    let live_sink: Arc<dyn Recorder> = registry.clone();
    group.bench_function("bump", |b| {
        b.iter(|| {
            for _ in 0..64u64 {
                black_box(&live_sink).add(names::SERVE_REQUESTS, black_box(1));
            }
        })
    });
    group.finish();
    // The registry really collected: the live leg must not be dead code.
    assert!(registry.snapshot().counter(names::SERVE_REQUESTS) > 0);
}

criterion_group!(benches, bench_live_metrics_overhead);
criterion_main!(benches);
