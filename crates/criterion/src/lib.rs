//! Minimal in-tree stand-in for the `criterion` crate (0.5 API subset).
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of criterion its benches use: [`Criterion::benchmark_group`]
//! with `sample_size` / `warm_up_time` / `measurement_time`,
//! [`BenchmarkGroup::bench_function`] with [`Bencher::iter`],
//! [`black_box`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros.
//!
//! Differences from upstream: no statistical analysis, no HTML reports, no
//! baseline comparison. Each benchmark runs a warm-up phase, then
//! `sample_size` timed samples, and prints min/median/mean wall-clock per
//! iteration — enough to eyeball regressions and to keep `cargo bench`
//! compiling and running offline.

#![forbid(unsafe_code)]
// A benchmark harness reports to stdout; that is its interface.
#![allow(clippy::print_stdout)]

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benched
/// work (forwards to [`std::hint::black_box`]).
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Entry point handed to benchmark functions by [`criterion_group!`].
#[derive(Debug)]
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- <substring>` filters benchmark ids, like upstream.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 100,
            warm_up_time: Duration::from_secs(3),
            measurement_time: Duration::from_secs(5),
        }
    }

    fn matches(&self, id: &str) -> bool {
        match &self.filter {
            Some(f) => id.contains(f.as_str()),
            None => true,
        }
    }
}

/// A group of benchmarks sharing sampling configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// How long to run untimed before sampling.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Total wall-clock budget for the timed samples.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Runs one benchmark: warm-up, then `sample_size` timed samples.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full_id = format!("{}/{}", self.name, id.into());
        if !self.criterion.matches(&full_id) {
            return self;
        }

        // Warm-up: run until the budget elapses (at least once).
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        let mut bencher = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        while warm_iters == 0 || warm_start.elapsed() < self.warm_up_time {
            bencher.reset();
            f(&mut bencher);
            warm_iters += bencher.iters.max(1);
        }

        // Sampling: `sample_size` samples, stopping early only if the
        // measurement budget is exhausted (every benchmark gets >= 1).
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.sample_size);
        let sample_start = Instant::now();
        for i in 0..self.sample_size {
            if i > 0 && sample_start.elapsed() > self.measurement_time {
                break;
            }
            bencher.reset();
            f(&mut bencher);
            per_iter.push(bencher.elapsed.as_secs_f64() / bencher.iters.max(1) as f64);
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let min = per_iter.first().copied().unwrap_or(0.0);
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        println!(
            "{full_id:<40} samples={:<4} min={} median={} mean={}",
            per_iter.len(),
            format_time(min),
            format_time(median),
            format_time(mean),
        );
        self
    }

    /// Ends the group (upstream flushes reports here; we print per-bench).
    pub fn finish(&mut self) {}
}

/// Times the closure passed to [`Bencher::iter`].
#[derive(Debug)]
pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    fn reset(&mut self) {
        self.elapsed = Duration::ZERO;
        self.iters = 0;
    }

    /// Runs `routine` once and records its wall-clock time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        let out = routine();
        self.elapsed += start.elapsed();
        self.iters += 1;
        drop(black_box(out));
    }
}

fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3}us", secs * 1e6)
    } else {
        format!("{:.1}ns", secs * 1e9)
    }
}

/// Declares a benchmark group runner, mirroring upstream's macro shape.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main` that runs each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion { filter: None };
        let mut group = c.benchmark_group("g");
        let mut runs = 0u32;
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(50))
            .bench_function("noop", |b| {
                b.iter(|| {
                    runs += 1;
                });
            });
        group.finish();
        assert!(runs >= 3, "warm-up + 3 samples should run the body");
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion {
            filter: Some("other".into()),
        };
        let mut group = c.benchmark_group("g");
        let mut runs = 0u32;
        group.sample_size(2).bench_function("noop", |b| {
            b.iter(|| {
                runs += 1;
            });
        });
        assert_eq!(runs, 0, "filtered-out benchmark must not run");
    }

    #[test]
    fn black_box_is_identity() {
        assert_eq!(black_box(41) + 1, 42);
    }
}
