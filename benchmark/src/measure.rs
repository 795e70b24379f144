//! What a run reports, and the process-level readings behind it: order
//! statistics over samples, process CPU time and peak resident memory.

use std::time::Duration;

/// One named measurement with its unit, as printed in the result line.
#[derive(Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, trials or convergences).
    pub attempted: u64,
    /// Operations that failed, were refused or went missing.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Correctness violations; any entry voids the run.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a metric. A value that is not a finite number (a mean or
    /// percentile over no samples: the metric was never measured) voids
    /// the run.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.check(value.is_finite(), || format!("{name} was not measured"));
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits, or `null` for a value that is not
/// finite (JSON has no NaN or infinities; [`Outcome::push`] has already
/// voided the run).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The `p`-th percentile (0..=100) of an ascending sample, nearest rank.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median of an unsorted sample.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The mean of a sample.
pub(crate) fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Clock ticks per second of `/proc/<pid>/stat` times (USER_HZ, fixed
/// at 100 by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU time consumed so far by this process, all threads
/// included (exited ones too). Zero when `/proc` is unreadable.
pub(crate) fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ")".
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    Duration::from_secs_f64((ticks(11) + ticks(12)) / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(mean(&v), 3.0);
    }

    #[test]
    fn process_readings_are_live() {
        let before = process_cpu();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu() > before);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.push("setup_s", "s", 0.5);
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.check(false, || "broken".into());
        assert!(o.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn an_unmeasured_metric_voids_the_run() {
        let mut o = Outcome::default();
        o.push("serve.queue_us", "us", mean(&[]));
        assert_eq!(o.problems, ["serve.queue_us was not measured"]);
        assert!(o.to_json().contains("\"value\": null"));
    }
}
