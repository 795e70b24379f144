//! A one-stop configuration facade over the four algorithms — convenient
//! for downstream users who pick the variant at runtime (the CLI, the
//! experiment harness and the serve daemon go through it too).
//!
//! The entry point is [`NetDiagnoser::builder`]: configure the algorithm,
//! weights and optional inputs once, then call
//! [`diagnose`](NetDiagnoser::diagnose) (or
//! [`report`](NetDiagnoser::report)) per incident. Algorithms that depend
//! on an input refuse to run without it ([`DiagnoseError`]) unless
//! [`allow_missing_inputs`](NetDiagnoserBuilder::allow_missing_inputs)
//! opts back into the lenient empty-substitute behaviour.
//!
//! The builder *owns* its inputs (behind [`Arc`], so sharing is cheap): a
//! built [`NetDiagnoser`] is `Send + Sync + 'static` and can be cloned
//! into worker threads or held for the lifetime of a daemon — the reason
//! the old borrowing setters were retired.

use std::sync::Arc;

use netdiag_obs::{names, RecorderHandle};

use crate::algorithms::{nd_bgpigp_recorded, nd_edge_recorded, nd_lg_recorded, tomo_recorded};
use crate::config::DiagnosticsConfig;
use crate::diagnosis::Diagnosis;
use crate::hitting_set::Weights;
use crate::observation::{IpToAs, LookingGlass, Observations, RoutingFeed};
use crate::report::DiagnosticReport;

/// Which diagnosis algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Algorithm {
    /// Plain multi-AS Boolean tomography (§2).
    Tomo,
    /// Logical links + reroute sets (§3.1–3.2) — the best choice without
    /// ISP cooperation.
    #[default]
    NdEdge,
    /// ND-edge + AS-X's control plane (§3.3) — requires a routing feed.
    NdBgpIgp,
    /// ND-bgpigp + Looking Glass mapping of unidentified hops (§3.4).
    NdLg,
}

impl Algorithm {
    /// Every variant, in paper order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Tomo,
        Algorithm::NdEdge,
        Algorithm::NdBgpIgp,
        Algorithm::NdLg,
    ];

    /// The canonical (CLI and [`Display`](std::fmt::Display)) name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Tomo => "tomo",
            Algorithm::NdEdge => "nd-edge",
            Algorithm::NdBgpIgp => "nd-bgpigp",
            Algorithm::NdLg => "nd-lg",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tomo" => Ok(Algorithm::Tomo),
            "nd-edge" | "nd_edge" => Ok(Algorithm::NdEdge),
            "nd-bgpigp" | "nd_bgpigp" => Ok(Algorithm::NdBgpIgp),
            "nd-lg" | "nd_lg" => Ok(Algorithm::NdLg),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }
}

/// Why [`NetDiagnoser::diagnose`] refused to run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DiagnoseError {
    /// The algorithm consumes AS-X's control-plane feed but none was
    /// configured on the builder.
    MissingFeed {
        /// The algorithm that needed the feed.
        algorithm: Algorithm,
    },
    /// ND-LG maps unidentified hops via Looking Glass queries but no
    /// Looking Glass was configured on the builder.
    MissingLookingGlass,
}

impl std::fmt::Display for DiagnoseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiagnoseError::MissingFeed { algorithm } => write!(
                f,
                "{algorithm} needs a routing feed; configure one with \
                 `.routing_feed(..)` or opt into an empty substitute with \
                 `.allow_missing_inputs()`"
            ),
            DiagnoseError::MissingLookingGlass => write!(
                f,
                "nd-lg needs a Looking Glass; configure one with \
                 `.looking_glass(..)` or opt into leaving unidentified \
                 hops unmapped with `.allow_missing_inputs()`"
            ),
        }
    }
}

impl std::error::Error for DiagnoseError {}

/// A Looking Glass with no servers at all (lenient ND-LG fallback).
struct NoLg;

impl LookingGlass for NoLg {
    fn as_path(
        &self,
        _: netdiag_topology::AsId,
        _: std::net::Ipv4Addr,
    ) -> Option<Vec<netdiag_topology::AsId>> {
        None
    }
}

/// Configures a [`NetDiagnoser`].
///
/// Created by [`NetDiagnoser::builder`]; every setter consumes and returns
/// the builder so a diagnoser is assembled in one expression. Inputs are
/// stored owned (behind [`Arc`]), so the built diagnoser is
/// `Send + Sync + 'static`.
#[derive(Clone, Default)]
pub struct NetDiagnoserBuilder {
    config: DiagnosticsConfig,
    feed: Option<Arc<RoutingFeed>>,
    lg: Option<Arc<dyn LookingGlass + Send + Sync>>,
    recorder: RecorderHandle,
}

impl std::fmt::Debug for NetDiagnoserBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetDiagnoserBuilder")
            .field("config", &self.config)
            .field("feed", &self.feed.is_some())
            .field("looking_glass", &self.lg.is_some())
            .finish()
    }
}

impl NetDiagnoserBuilder {
    /// Selects the algorithm variant (default: [`Algorithm::NdEdge`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Sets the greedy scoring weights (§3.2; default `a = b = 1`).
    pub fn weights(mut self, weights: Weights) -> Self {
        self.config.weights = weights;
        self
    }

    /// Replaces the whole diagnostics configuration — algorithm, weights,
    /// lenient-input flag and reporting thresholds in one value (see
    /// [`DiagnosticsConfig`]). Later individual setters still apply on
    /// top.
    pub fn config(mut self, config: DiagnosticsConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches AS-X's control-plane feed (consumed by
    /// [`Algorithm::NdBgpIgp`] and [`Algorithm::NdLg`]).
    ///
    /// Accepts the feed by value or already shared
    /// (`Arc<RoutingFeed>`) — either way the diagnoser owns it.
    pub fn routing_feed(mut self, feed: impl Into<Arc<RoutingFeed>>) -> Self {
        self.feed = Some(feed.into());
        self
    }

    /// Attaches a Looking Glass oracle (consumed by [`Algorithm::NdLg`]),
    /// taking ownership.
    pub fn looking_glass<L>(mut self, lg: L) -> Self
    where
        L: LookingGlass + Send + Sync + 'static,
    {
        self.lg = Some(Arc::new(lg));
        self
    }

    /// Attaches an already-shared Looking Glass (e.g. one long-lived
    /// oracle serving many concurrent diagnosers).
    pub fn looking_glass_shared(mut self, lg: Arc<dyn LookingGlass + Send + Sync>) -> Self {
        self.lg = Some(lg);
        self
    }

    /// Attaches an instrumentation recorder; every diagnosis reports its
    /// greedy iterations, candidate-set size, feed refinements and
    /// hypothesis size to it (default: the no-op recorder).
    pub fn recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs feed-dependent algorithms even when no feed (or, for ND-LG,
    /// no Looking Glass) is configured, substituting an ISP that observed
    /// nothing — the behaviour of the old constructor API.
    pub fn allow_missing_inputs(mut self) -> Self {
        self.config.allow_missing_inputs = true;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> NetDiagnoser {
        NetDiagnoser {
            config: self.config,
            feed: self.feed,
            lg: self.lg,
            recorder: self.recorder,
        }
    }
}

/// A configured troubleshooter.
///
/// Owns its inputs, so it is `Send + Sync + 'static`: clone it into
/// worker threads, store it in a daemon, run diagnoses concurrently.
///
/// ```
/// use netdiagnoser::{Algorithm, NetDiagnoser, RoutingFeed};
/// let nd = NetDiagnoser::builder()
///     .algorithm(Algorithm::NdBgpIgp)
///     .routing_feed(RoutingFeed::default())
///     .build();
/// assert_eq!(nd.algorithm(), Algorithm::NdBgpIgp);
/// ```
#[derive(Clone)]
pub struct NetDiagnoser {
    config: DiagnosticsConfig,
    feed: Option<Arc<RoutingFeed>>,
    lg: Option<Arc<dyn LookingGlass + Send + Sync>>,
    recorder: RecorderHandle,
}

impl std::fmt::Debug for NetDiagnoser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetDiagnoser")
            .field("config", &self.config)
            .field("feed", &self.feed.is_some())
            .field("looking_glass", &self.lg.is_some())
            .finish()
    }
}

impl Default for NetDiagnoser {
    fn default() -> Self {
        NetDiagnoser::builder().build()
    }
}

impl NetDiagnoser {
    /// Starts configuring a troubleshooter.
    pub fn builder() -> NetDiagnoserBuilder {
        NetDiagnoserBuilder::default()
    }

    /// The configured algorithm variant.
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm
    }

    /// The configured greedy scoring weights.
    pub fn weights(&self) -> Weights {
        self.config.weights
    }

    /// The full diagnostics configuration.
    pub fn config(&self) -> &DiagnosticsConfig {
        &self.config
    }

    /// Runs the configured diagnosis.
    ///
    /// Fails with [`DiagnoseError::MissingFeed`] when
    /// [`Algorithm::NdBgpIgp`] or [`Algorithm::NdLg`] was selected without
    /// a [`routing_feed`](NetDiagnoserBuilder::routing_feed), and with
    /// [`DiagnoseError::MissingLookingGlass`] when [`Algorithm::NdLg`] was
    /// selected without a
    /// [`looking_glass`](NetDiagnoserBuilder::looking_glass) — unless the
    /// builder opted into
    /// [`allow_missing_inputs`](NetDiagnoserBuilder::allow_missing_inputs).
    pub fn diagnose(
        &self,
        obs: &Observations,
        ip2as: &dyn IpToAs,
    ) -> Result<Diagnosis, DiagnoseError> {
        let recorder = &self.recorder;
        let algorithm = self.config.algorithm;
        let weights = self.config.weights;
        let empty_feed = RoutingFeed::default();
        let feed: &RoutingFeed = match (&self.feed, self.config.allow_missing_inputs) {
            (Some(feed), _) => feed,
            (None, true) => &empty_feed,
            (None, false) => match algorithm {
                Algorithm::Tomo | Algorithm::NdEdge => &empty_feed,
                Algorithm::NdBgpIgp | Algorithm::NdLg => {
                    return Err(DiagnoseError::MissingFeed { algorithm })
                }
            },
        };
        match algorithm {
            Algorithm::Tomo => Ok(tomo_recorded(obs, ip2as, recorder)),
            Algorithm::NdEdge => Ok(nd_edge_recorded(obs, ip2as, weights, recorder)),
            Algorithm::NdBgpIgp => Ok(nd_bgpigp_recorded(obs, ip2as, feed, weights, recorder)),
            Algorithm::NdLg => {
                let lg: &dyn LookingGlass = match (&self.lg, self.config.allow_missing_inputs) {
                    (Some(lg), _) => lg.as_ref(),
                    (None, true) => &NoLg,
                    (None, false) => return Err(DiagnoseError::MissingLookingGlass),
                };
                Ok(nd_lg_recorded(obs, ip2as, feed, lg, weights, recorder))
            }
        }
    }

    /// Runs the configured diagnosis and structures the result as a
    /// [`DiagnosticReport`] under this diagnoser's thresholds
    /// ([`DiagnosticsConfig`]). Same failure modes as
    /// [`diagnose`](Self::diagnose).
    pub fn report(
        &self,
        obs: &Observations,
        ip2as: &dyn IpToAs,
    ) -> Result<DiagnosticReport, DiagnoseError> {
        let diagnosis = self.diagnose(obs, ip2as)?;
        let report = DiagnosticReport::from_diagnosis(&diagnosis, &self.config);
        self.recorder.add(names::REPORT_BUILDS, 1);
        self.recorder
            .observe(names::REPORT_ISSUES, report.issues.len() as u64);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{Hop, IpToAsFn, LookingGlassFn, ProbePath, SensorMeta, Snapshot};
    use netdiag_topology::{AsId, SensorId};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn obs() -> Observations {
        let r = Ipv4Addr::new(10, 0, 1, 1);
        let dst = Ipv4Addr::new(10, 2, 0, 200);
        Observations {
            sensors: vec![
                SensorMeta {
                    id: SensorId(0),
                    addr: Ipv4Addr::new(10, 1, 0, 200),
                    as_id: AsId(1),
                },
                SensorMeta {
                    id: SensorId(1),
                    addr: dst,
                    as_id: AsId(2),
                },
            ],
            before: Snapshot {
                paths: vec![ProbePath {
                    src: SensorId(0),
                    dst: SensorId(1),
                    hops: vec![Hop::Addr(r), Hop::Addr(dst)],
                    reached: true,
                }],
            },
            after: Snapshot {
                paths: vec![ProbePath {
                    src: SensorId(0),
                    dst: SensorId(1),
                    hops: vec![Hop::Addr(r)],
                    reached: false,
                }],
            },
        }
    }

    fn ip2as() -> IpToAsFn<impl Fn(Ipv4Addr) -> Option<AsId>> {
        IpToAsFn(|a: Ipv4Addr| Some(AsId(u32::from(a.octets()[1]))))
    }

    #[test]
    fn parses_algorithm_names() {
        assert_eq!("tomo".parse(), Ok(Algorithm::Tomo));
        assert_eq!("nd-edge".parse(), Ok(Algorithm::NdEdge));
        assert_eq!("nd_bgpigp".parse(), Ok(Algorithm::NdBgpIgp));
        assert_eq!("nd-lg".parse(), Ok(Algorithm::NdLg));
        assert_eq!("ND-LG".parse(), Ok(Algorithm::NdLg));
        assert_eq!("Tomo".parse(), Ok(Algorithm::Tomo));
        assert!("nd-???".parse::<Algorithm>().is_err());
    }

    proptest! {
        #[test]
        fn display_round_trips_through_fromstr(i in 0usize..4) {
            let algorithm = Algorithm::ALL[i];
            prop_assert_eq!(algorithm.to_string().parse::<Algorithm>(), Ok(algorithm));
            prop_assert_eq!(
                algorithm.to_string().to_ascii_uppercase().parse::<Algorithm>(),
                Ok(algorithm)
            );
        }
    }

    #[test]
    fn every_variant_runs_leniently_without_optional_inputs() {
        let ip2as = ip2as();
        let o = obs();
        for algorithm in Algorithm::ALL {
            let d = NetDiagnoser::builder()
                .algorithm(algorithm)
                .allow_missing_inputs()
                .build()
                .diagnose(&o, &ip2as)
                .unwrap();
            assert!(!d.is_empty(), "{algorithm:?} finds the only suspect link");
        }
    }

    #[test]
    fn feed_dependent_variants_refuse_to_run_without_a_feed() {
        let ip2as = ip2as();
        let o = obs();
        for algorithm in [Algorithm::NdBgpIgp, Algorithm::NdLg] {
            let err = NetDiagnoser::builder()
                .algorithm(algorithm)
                .build()
                .diagnose(&o, &ip2as)
                .unwrap_err();
            assert_eq!(err, DiagnoseError::MissingFeed { algorithm });
        }
    }

    #[test]
    fn ndlg_refuses_to_run_without_a_looking_glass() {
        let ip2as = ip2as();
        let o = obs();
        let err = NetDiagnoser::builder()
            .algorithm(Algorithm::NdLg)
            .routing_feed(RoutingFeed::default())
            .build()
            .diagnose(&o, &ip2as)
            .unwrap_err();
        assert_eq!(err, DiagnoseError::MissingLookingGlass);
    }

    #[test]
    fn configured_feed_is_used() {
        let ip2as = ip2as();
        let o = obs();
        let d = NetDiagnoser::builder()
            .algorithm(Algorithm::NdBgpIgp)
            .routing_feed(RoutingFeed::default())
            .build()
            .diagnose(&o, &ip2as)
            .unwrap();
        assert!(!d.is_empty());
    }

    #[test]
    fn feed_can_be_shared_or_passed_by_value() {
        let ip2as = ip2as();
        let o = obs();
        let shared = std::sync::Arc::new(RoutingFeed::default());
        let d = NetDiagnoser::builder()
            .algorithm(Algorithm::NdBgpIgp)
            .routing_feed(std::sync::Arc::clone(&shared))
            .build()
            .diagnose(&o, &ip2as)
            .unwrap();
        let d2 = NetDiagnoser::builder()
            .algorithm(Algorithm::NdBgpIgp)
            .routing_feed(RoutingFeed::clone(&shared))
            .build()
            .diagnose(&o, &ip2as)
            .unwrap();
        assert_eq!(d.hypothesis, d2.hypothesis);
    }

    #[test]
    fn default_is_ndedge_with_paper_weights() {
        let nd = NetDiagnoser::default();
        assert_eq!(nd.algorithm(), Algorithm::NdEdge);
        assert_eq!(nd.weights(), Weights { a: 1, b: 1 });
    }

    #[test]
    fn config_travels_whole_and_setters_layer_on_top() {
        let cfg = DiagnosticsConfig {
            algorithm: Algorithm::Tomo,
            max_issues: 3,
            ..Default::default()
        };
        let nd = NetDiagnoser::builder()
            .config(cfg)
            .algorithm(Algorithm::NdEdge)
            .build();
        assert_eq!(nd.algorithm(), Algorithm::NdEdge);
        assert_eq!(nd.config().max_issues, 3);
    }

    #[test]
    fn built_diagnoser_is_send_sync_and_static() {
        fn assert_send_sync_static<T: Send + Sync + 'static>(_: &T) {}
        let nd = NetDiagnoser::builder()
            .algorithm(Algorithm::NdLg)
            .routing_feed(RoutingFeed::default())
            .looking_glass(LookingGlassFn(|from, _| Some(vec![from])))
            .build();
        assert_send_sync_static(&nd);
        // And it actually crosses a thread boundary, diagnosing there.
        let handle = std::thread::spawn(move || {
            let d = nd.diagnose(&obs(), &ip2as()).unwrap();
            d.len()
        });
        assert!(handle.join().unwrap() > 0);
    }

    #[test]
    fn recorder_sees_diagnosis_counters() {
        let (recorder, sink) = RecorderHandle::live();
        let ip2as = ip2as();
        let o = obs();
        let d = NetDiagnoser::builder()
            .recorder(recorder)
            .build()
            .diagnose(&o, &ip2as)
            .unwrap();
        let report = sink.snapshot();
        assert_eq!(report.counter(netdiag_obs::names::DIAG_RUNS), 1);
        assert!(report.counter(netdiag_obs::names::HS_GREEDY_ITERS) >= 1);
        let h = report
            .histogram(netdiag_obs::names::DIAG_HYPOTHESIS_SIZE)
            .expect("hypothesis size observed");
        assert_eq!(h.sum, d.len() as u64);
    }

    #[test]
    fn report_method_applies_config_and_records_counters() {
        let (recorder, sink) = RecorderHandle::live();
        let ip2as = ip2as();
        let o = obs();
        let report = NetDiagnoser::builder()
            .recorder(recorder)
            .build()
            .report(&o, &ip2as)
            .unwrap();
        assert!(!report.issues.is_empty());
        assert_eq!(report.algorithm, Algorithm::NdEdge);
        let run = sink.snapshot();
        assert_eq!(run.counter(netdiag_obs::names::REPORT_BUILDS), 1);
        let h = run
            .histogram(netdiag_obs::names::REPORT_ISSUES)
            .expect("issue count observed");
        assert_eq!(h.sum, report.issues.len() as u64);
    }
}
