//! Output helpers: CDFs, means, and CSV emission for the figure
//! regenerators.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// An empirical CDF over `[0, 1]`-valued metrics.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    values: Vec<f64>,
}

impl Cdf {
    /// Builds the CDF from raw samples.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| {
            a.partial_cmp(b)
                .expect("figure metrics are finite, never NaN")
        });
        Cdf { values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `P(X <= x)`.
    pub fn at(&self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let n = self.values.partition_point(|&v| v <= x);
        n as f64 / self.values.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.values.is_empty(), "quantile of empty CDF");
        let idx =
            ((q * (self.values.len() - 1) as f64).round() as usize).min(self.values.len() - 1);
        self.values[idx]
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Fraction of samples equal to 1.0 (within epsilon) — "perfect" runs.
    pub fn fraction_perfect(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let n = self.values.iter().filter(|&&v| v >= 1.0 - 1e-9).count();
        n as f64 / self.values.len() as f64
    }

    /// Fraction of samples equal to 0.0 — total misses.
    pub fn fraction_zero(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let n = self.values.iter().filter(|&&v| v <= 1e-9).count();
        n as f64 / self.values.len() as f64
    }

    /// `(x, P(X <= x))` rows sampled on a fixed grid, for plotting.
    pub fn rows(&self, steps: usize) -> Vec<(f64, f64)> {
        (0..=steps)
            .map(|i| {
                let x = i as f64 / steps as f64;
                (x, self.at(x))
            })
            .collect()
    }
}

/// A simple CSV table writer.
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Renders as an aligned text table (for terminal output).
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Writes the CSV to a file, creating parent directories.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Formats a float with 4 decimals (CSV-friendly).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::new(vec![0.0, 0.5, 0.5, 1.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.at(0.0), 0.25);
        assert_eq!(cdf.at(0.5), 0.75);
        assert_eq!(cdf.at(1.0), 1.0);
        assert_eq!(cdf.at(0.49), 0.25);
        assert_eq!(cdf.mean(), 0.5);
        assert_eq!(cdf.fraction_perfect(), 0.25);
        assert_eq!(cdf.fraction_zero(), 0.25);
    }

    #[test]
    fn cdf_quantiles() {
        let cdf = Cdf::new(vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        assert_eq!(cdf.quantile(0.0), 0.1);
        assert_eq!(cdf.quantile(0.5), 0.3);
        assert_eq!(cdf.quantile(1.0), 0.5);
    }

    #[test]
    fn cdf_rows_grid() {
        let cdf = Cdf::new(vec![0.0, 1.0]);
        let rows = cdf.rows(2);
        assert_eq!(rows, vec![(0.0, 0.5), (0.5, 0.5), (1.0, 1.0)]);
    }

    #[test]
    fn table_csv_and_text() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
        assert!(t.to_text().contains('x'));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1".into()]);
    }
}
