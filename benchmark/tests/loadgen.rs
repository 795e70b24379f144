//! The open-loop generator against stub responders: a stall must show in
//! the latency of everything queued behind it (no coordinated omission),
//! and a refused request must count as failed and miss any limit.

use std::time::Duration;

use netdiag_benchmark::loadgen::{max_rate, run_leg, LegResult, Reply};

fn stub(stall_at: Option<u64>, refuse_at: Option<u64>) -> impl Fn(&mut (), u64) -> Reply + Sync {
    move |_, i| {
        if Some(i) == stall_at {
            std::thread::sleep(Duration::from_millis(100));
        }
        if Some(i) == refuse_at {
            Reply::Failed
        } else {
            Reply::Ok
        }
    }
}

#[test]
fn a_stall_raises_latency_from_due_time_and_generator_lateness() {
    let steady = run_leg(1000.0, 1.0, 2, &|_| (), &stub(None, None));
    let stalled = run_leg(1000.0, 1.0, 2, &|_| (), &stub(Some(100), None));
    assert_eq!(stalled.attempted, 1000);
    assert_eq!(stalled.failed, 0);
    // One 100 ms stall on a sender due every 2 ms holds back ~50 of its
    // requests; timed from their due times, the slowest 1% all sit near
    // the stall. Timed from their send times only one would be slow.
    assert!(
        stalled.latency_ms(99.0) > 50.0,
        "p99 {} ms",
        stalled.latency_ms(99.0)
    );
    assert!(
        stalled.late_ms(99.0) > 50.0,
        "late p99 {} ms",
        stalled.late_ms(99.0)
    );
    assert!(stalled.latency_ms(99.0) > 5.0 * steady.latency_ms(99.0).max(1.0));
    assert!(steady.late_ms(50.0) < 10.0);
}

#[test]
fn a_refused_request_counts_as_failed_and_misses_any_limit() {
    let leg = run_leg(500.0, 0.2, 2, &|_| (), &stub(None, Some(7)));
    assert_eq!(leg.attempted, 100);
    assert_eq!(leg.failed, 1);
    assert_eq!(leg.completed(), 99);
    assert_eq!(leg.latency_ns.last(), Some(&u64::MAX));
    assert!(!leg.meets(f64::MAX));
}

#[test]
fn bisection_finds_the_highest_passing_rate() {
    let leg = |rate: f64| LegResult {
        rate,
        latency_ns: vec![if rate <= 1800.0 { 1_000_000 } else { 9_000_000 }],
        late_ns: vec![0],
        attempted: 1,
        failed: 0,
        wrong: 0,
        cpu: Duration::ZERO,
    };
    let (best, probes) = max_rate(250.0, 5000.0, 6, 5.0, leg);
    assert_eq!(probes.len(), 6);
    assert!(
        best <= 1800.0 && best > 1800.0 - 4750.0 / 64.0,
        "best {best}"
    );
}
