//! **NetDiagnoser** — troubleshooting network unreachabilities from
//! end-to-end probes and routing data.
//!
//! A from-scratch implementation of the diagnosis algorithms of Dhamdhere,
//! Teixeira, Dovrolis and Diot, *"NetDiagnoser: Troubleshooting network
//! unreachabilities using end-to-end probes and routing data"*, CoNEXT
//! 2007.
//!
//! The troubleshooter observes a full mesh of traceroutes between sensors
//! before (`T-`) and after (`T+`) a failure event and infers the smallest
//! set of links whose failure explains the broken paths:
//!
//! * [`tomo`] — the multi-source multi-destination Boolean tomography
//!   baseline (greedy minimum hitting set, Algorithm 1);
//! * [`nd_edge`] — adds *logical links* (per-neighbor splitting of
//!   inter-domain links, catching BGP export misconfigurations) and
//!   *reroute sets* (information from paths that changed but still work);
//! * [`nd_bgpigp`] — adds AS-X's control plane: IGP link-down events force
//!   links into the hypothesis, BGP withdrawals exonerate upstream links;
//! * [`nd_lg`] — handles traceroute-blocking ASes by mapping unidentified
//!   hops to candidate ASes with Looking Glass queries and clustering
//!   unidentified links that may be the same link.
//!
//! All four are one pipeline, [`run`]: the [`Algorithm`] variant picks
//! the steps it takes. The [`NetDiagnoser`] builder facade wraps it —
//! pick the variant at runtime, attach the routing feed, Looking Glass
//! and an optional [`RecorderHandle`] once, then call
//! [`diagnose`](NetDiagnoser::diagnose) per incident. Algorithms refuse to
//! run without the inputs they depend on ([`DiagnoseError`]).
//!
//! The crate is simulator-agnostic: inputs are plain observations
//! ([`Observations`], [`RoutingFeed`]) plus two oracles ([`IpToAs`],
//! [`LookingGlass`]) that a deployment would implement with an IP-to-AS
//! mapping service and real Looking Glass servers. The companion
//! `netdiag-netsim` crate provides both from simulation ground truth.
//!
//! Also included: [`scfs`] (Duffield's single-source tree baseline),
//! an exact hitting-set solver for ablations
//! ([`HittingSetInstance::exact`]), and the paper's evaluation metrics
//! ([`metrics`]).
//!
//! # Example
//!
//! ```
//! use std::net::Ipv4Addr;
//! use netdiag_topology::{AsId, SensorId};
//! use netdiagnoser::{
//!     tomo, Hop, IpToAsFn, Observations, ProbePath, SensorMeta, Snapshot,
//! };
//!
//! // Two sensors; the path s0 -> s1 crosses one router and breaks.
//! let r = Ipv4Addr::new(10, 0, 1, 1);
//! let (a0, a1) = (Ipv4Addr::new(10, 1, 0, 200), Ipv4Addr::new(10, 2, 0, 200));
//! let sensors = vec![
//!     SensorMeta { id: SensorId(0), addr: a0, as_id: AsId(1) },
//!     SensorMeta { id: SensorId(1), addr: a1, as_id: AsId(2) },
//! ];
//! let before = Snapshot { paths: vec![ProbePath {
//!     src: SensorId(0), dst: SensorId(1),
//!     hops: vec![Hop::Addr(r), Hop::Addr(a1)], reached: true,
//! }] };
//! let after = Snapshot { paths: vec![ProbePath {
//!     src: SensorId(0), dst: SensorId(1),
//!     hops: vec![Hop::Addr(r)], reached: false,
//! }] };
//! let obs = Observations { sensors, before, after };
//! let ip2as = IpToAsFn(|a: Ipv4Addr| Some(AsId(u32::from(a.octets()[1]))));
//! let diagnosis = tomo(&obs, &ip2as);
//! assert_eq!(diagnosis.len(), 1); // the single probed link is suspect
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod algorithms;
mod bitset;
pub mod config;
pub mod detector;
mod diagnosis;
mod facade;
mod graph;
mod hitting_set;
pub mod metrics;
mod observation;
mod problem;
pub mod ranking;
pub mod report;
mod scfs;
pub mod text;

pub use algorithms::{nd_bgpigp, nd_edge, nd_lg, run, tomo, Algorithm};
pub use bitset::EdgeBitSet;
pub use config::DiagnosticsConfig;
pub use detector::{Alarm, PersistenceFilter};
pub use diagnosis::Diagnosis;
pub use facade::{DiagnoseError, NetDiagnoser, NetDiagnoserBuilder};
pub use graph::{
    DiagGraph, EdgeData, EdgeId, Epoch, HopNode, LogicalPart, NodeData, NodeId, PathRef, PhysId,
};
pub use hitting_set::{GreedyResult, HittingSetInstance, Weights};
pub use observation::{
    Hop, IgpLinkDownObs, IpToAs, IpToAsFn, LookingGlass, LookingGlassFn, Observations, ProbePath,
    RoutingFeed, SensorMeta, Snapshot, WithdrawalObs,
};
pub use problem::{BuildOptions, PathSet, Problem};
pub use report::{
    DiagnosticReport, Issue, IssueCategory, IssueDetail, ReportCounters, Severity,
    REPORT_SCHEMA_VERSION,
};
pub use scfs::scfs;

// Re-exported so downstream users can attach a recorder without naming the
// instrumentation crate themselves.
pub use netdiag_obs::{LiveRecorder, NoopRecorder, Recorder, RecorderHandle, RunReport};
