//! Open-loop load generation.
//!
//! Alarms reach a troubleshooting daemon independently of each other, so
//! requests are due on a fixed, evenly spaced schedule whether or not
//! earlier ones have been answered. Each sender thread owns one
//! connection and every `threads`-th slot of the schedule; a thread that
//! falls behind sends late, never skips, and every latency is timed from
//! the request's *due* time. A stall therefore shows up in the latency
//! of every request queued behind it (no coordinated omission), and
//! [`LegResult::late_ms`] reports how far the generator itself fell
//! behind.

use std::time::{Duration, Instant};

use crate::measure::{mean, percentile, process_cpu};

/// How one request went, as its sender saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Answered with the expected response.
    Ok,
    /// Refused, errored or lost; misses any latency limit.
    Failed,
    /// Answered, but not with the expected response (a correctness
    /// violation, not a load failure).
    Wrong,
}

/// What one leg (one rate for one duration) measured.
#[derive(Debug)]
pub struct LegResult {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latency from due time to response, ascending, in nanoseconds.
    /// Failed requests are recorded as `u64::MAX`: they miss any limit.
    pub latency_ns: Vec<u64>,
    /// How late each request was sent past its due time, ascending, ns.
    pub late_ns: Vec<u64>,
    /// Requests scheduled.
    pub attempted: u64,
    /// Requests refused, errored or lost.
    pub failed: u64,
    /// Requests answered with an unexpected response.
    pub wrong: u64,
    /// Process CPU time (all threads) spent over the leg.
    pub cpu: Duration,
}

fn to_ms(sorted_ns: &[u64], p: f64) -> f64 {
    let v: Vec<f64> = sorted_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    percentile(&v, p)
}

impl LegResult {
    /// The `p`-th percentile latency from due time, in milliseconds.
    pub fn latency_ms(&self, p: f64) -> f64 {
        to_ms(&self.latency_ns, p)
    }

    /// The `p`-th percentile of generator lateness, in milliseconds.
    pub fn late_ms(&self, p: f64) -> f64 {
        to_ms(&self.late_ns, p)
    }

    /// Mean time from sending a request to its answer, in microseconds
    /// (latency from due time less the generator's lateness).
    pub fn mean_send_to_answer_us(&self) -> f64 {
        let answered: Vec<f64> = self
            .latency_ns
            .iter()
            .filter(|&&ns| ns != u64::MAX)
            .map(|&ns| ns as f64)
            .collect();
        let late: Vec<f64> = self.late_ns.iter().map(|&ns| ns as f64).collect();
        (mean(&answered) - mean(&late)) / 1e3
    }

    /// Requests answered (correctly or not).
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Process CPU per answered request, in microseconds.
    pub fn cpu_us_per_req(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6 / self.completed().max(1) as f64
    }

    /// Did the leg hold the latency limit with nothing refused?
    pub fn meets(&self, p99_limit_ms: f64) -> bool {
        self.failed == 0 && self.latency_ms(99.0) <= p99_limit_ms
    }
}

/// Runs one leg: `rate` requests per second for `secs` seconds, spread
/// over `threads` senders. `connect(t)` opens sender `t`'s connection on
/// its own thread; `send(conn, i)` issues request `i` and reports how it
/// went.
pub fn run_leg<C>(
    rate: f64,
    secs: f64,
    threads: usize,
    connect: &(dyn Fn(usize) -> C + Sync),
    send: &(dyn Fn(&mut C, u64) -> Reply + Sync),
) -> LegResult {
    let total = ((rate * secs).round() as u64).max(1);
    let threads = threads.max(1) as u64;
    let spacing = Duration::from_secs_f64(1.0 / rate);
    let cpu0 = process_cpu();
    // A short lead lets every sender connect before its first due time.
    let start = Instant::now() + Duration::from_millis(20);
    let per_thread: Vec<(Vec<u64>, Vec<u64>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut conn = connect(t as usize);
                    let mut lat = Vec::with_capacity((total / threads + 1) as usize);
                    let mut late = Vec::with_capacity(lat.capacity());
                    let (mut failed, mut wrong) = (0u64, 0u64);
                    for i in (t..total).step_by(threads as usize) {
                        let due = start + spacing.mul_f64(i as f64);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let reply = send(&mut conn, i);
                        let done = Instant::now();
                        late.push(nanos(sent.saturating_duration_since(due)));
                        match reply {
                            Reply::Failed => {
                                failed += 1;
                                lat.push(u64::MAX);
                            }
                            Reply::Ok | Reply::Wrong => {
                                wrong += u64::from(reply == Reply::Wrong);
                                lat.push(nanos(done.saturating_duration_since(due)));
                            }
                        }
                    }
                    (lat, late, failed, wrong)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load sender thread panicked"))
            .collect()
    });
    let cpu = process_cpu().saturating_sub(cpu0);
    let mut result = LegResult {
        rate,
        latency_ns: Vec::with_capacity(total as usize),
        late_ns: Vec::with_capacity(total as usize),
        attempted: total,
        failed: 0,
        wrong: 0,
        cpu,
    };
    for (lat, late, failed, wrong) in per_thread {
        result.latency_ns.extend(lat);
        result.late_ns.extend(late);
        result.failed += failed;
        result.wrong += wrong;
    }
    result.latency_ns.sort_unstable();
    result.late_ns.sort_unstable();
    result
}

/// Bisects for the highest rate in `[lo, hi]` whose leg holds a p99
/// latency of `p99_limit_ms` with nothing refused, using `probes` legs.
/// `lo` is taken to pass. Returns the rate and every probe leg.
pub fn max_rate(
    mut lo: f64,
    mut hi: f64,
    probes: usize,
    p99_limit_ms: f64,
    mut leg: impl FnMut(f64) -> LegResult,
) -> (f64, Vec<LegResult>) {
    let mut legs = Vec::with_capacity(probes);
    for _ in 0..probes {
        let mid = (lo + hi) / 2.0;
        let result = leg(mid);
        if result.meets(p99_limit_ms) {
            lo = mid;
        } else {
            hi = mid;
        }
        legs.push(result);
    }
    (lo, legs)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
