//! [`DiagnosticsConfig`]: every knob of a diagnosis run in one value.
//!
//! Before this type, the algorithm choice and greedy weights lived as
//! separate builder setters, and reporting thresholds did not exist at
//! all — each CLI and the experiment runner carried its own ad-hoc
//! subset. The config travels whole: the [`NetDiagnoser`] builder accepts
//! it via [`config`](crate::NetDiagnoserBuilder::config), the experiment
//! runner embeds it in its `RunConfig`, and the serve daemon forwards
//! per-request overrides into it.
//!
//! [`NetDiagnoser`]: crate::NetDiagnoser

use crate::algorithms::Algorithm;
use crate::hitting_set::Weights;

/// All tunables of a diagnosis run: which algorithm, how the greedy
/// hitting set scores candidates, and the reporting thresholds applied
/// when the result is turned into a
/// [`DiagnosticReport`](crate::DiagnosticReport).
///
/// The default value reproduces the paper's setup (ND-edge, `a = b = 1`)
/// with reporting thresholds disabled, so a default-config report renders
/// byte-identically to the historical flat-text report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiagnosticsConfig {
    /// The diagnosis algorithm variant to run.
    pub algorithm: Algorithm,
    /// Greedy scoring weights (§3.2; paper default `a = b = 1`).
    pub weights: Weights,
    /// Minimum per-issue confidence for a finding to appear in the
    /// report. `0.0` (the default) reports everything. The
    /// unexplained-failure warning is never suppressed — low confidence
    /// in the hypothesis is exactly when the operator must see it.
    pub min_confidence: f64,
    /// Upper bound on reported issues, keeping the strongest by severity
    /// then confidence. `0` (the default) means unlimited.
    pub max_issues: usize,
}

impl Default for DiagnosticsConfig {
    fn default() -> Self {
        DiagnosticsConfig {
            algorithm: Algorithm::default(),
            weights: Weights::default(),
            min_confidence: 0.0,
            max_issues: 0,
        }
    }
}

impl DiagnosticsConfig {
    /// A config for `algorithm` with every other knob at its default.
    pub fn for_algorithm(algorithm: Algorithm) -> Self {
        DiagnosticsConfig {
            algorithm,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper_setup() {
        let cfg = DiagnosticsConfig::default();
        assert_eq!(cfg.algorithm, Algorithm::NdEdge);
        assert_eq!(cfg.weights, Weights { a: 1, b: 1 });
        assert_eq!(cfg.min_confidence, 0.0);
        assert_eq!(cfg.max_issues, 0);
    }

    #[test]
    fn for_algorithm_only_sets_the_algorithm() {
        let cfg = DiagnosticsConfig::for_algorithm(Algorithm::NdLg);
        assert_eq!(cfg.algorithm, Algorithm::NdLg);
        assert_eq!(
            DiagnosticsConfig {
                algorithm: Algorithm::NdEdge,
                ..cfg
            },
            DiagnosticsConfig::default()
        );
    }
}
