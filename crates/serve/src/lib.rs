//! **netdiag-serve** — a long-running diagnosis daemon over the
//! NetDiagnoser facade.
//!
//! The paper's operational framing — an ISP continuously correlating
//! end-to-end probes with its routing feeds — is a service, not a batch
//! job. This crate turns the batch pipeline into one:
//!
//! 1. [`Baseline::prepare`] loads a topology, converges the control
//!    plane once and measures the healthy (`T-`) probe mesh — the
//!    expensive part, paid at startup.
//! 2. [`Server::start`](server::Server::start) holds that baseline
//!    behind an [`Arc`](std::sync::Arc) and listens on a TCP or Unix
//!    socket for line-delimited JSON requests (see [`proto`]), each an
//!    uploaded post-failure probe matrix plus an optional routing-feed
//!    delta.
//! 3. Requests dispatch onto a bounded [`pool::WorkerPool`]; each worker
//!    builds an owned [`NetDiagnoser`](netdiagnoser::NetDiagnoser)
//!    (possible since the facade owns its inputs) against a
//!    copy-on-write clone of the converged simulator and streams back a
//!    structured [`DiagnosticReport`](netdiagnoser::DiagnosticReport) —
//!    plus an optional `explain` narrative replayed from a per-request
//!    trace stream.
//!
//! The daemon is observable while it runs: a lock-free
//! [`LiveRecorder`](netdiag_obs::LiveRecorder) backs the `stats` and
//! `health` protocol verbs (counters, gauges, per-phase latency spans,
//! windowed rates, Prometheus exposition), and an optional
//! [`FlightRecorder`] tail-samples the full causal trace of every
//! request that breaches the latency SLO.
//!
//! [`bench`](mod@bench) is the closed-loop load harness behind `netdiag-serve
//! bench`; [`client`] the small blocking client the CLI and tests use.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod bench;
pub mod client;
pub mod flight;
pub mod pool;
pub mod proto;
pub mod server;

pub use baseline::{Baseline, Scenario, ServeConfig};
pub use client::Client;
pub use flight::{FlightRecorder, PhaseNanos};
pub use server::{Endpoint, Server, ServerHandle};
