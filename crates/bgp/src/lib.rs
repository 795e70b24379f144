//! Message-driven BGP simulator for the NetDiagnoser reproduction.
//!
//! This crate replaces the paper's use of the C-BGP simulator. It models:
//!
//! * one eBGP session per inter-domain link and an iBGP full mesh per AS
//!   ([`SessionTable`]);
//! * relationship-based import/export policies (Gao-Rexford: customer
//!   routes to everyone, peer/provider routes only to customers) with
//!   local preference customer > peer > provider;
//! * the standard decision process: local-pref → AS-path length → eBGP over
//!   iBGP → IGP distance to the egress (hot potato) → deterministic
//!   tie-breaks;
//! * one message delivery order ([`Bgp::run`]): each prefix's messages
//!   drain FIFO to quiescence, in ascending prefix order, making every
//!   convergence and replay fully deterministic;
//! * incremental reconvergence after link failures
//!   ([`Bgp::handle_link_down`]) and export-filter misconfigurations
//!   ([`Bgp::install_filter`]);
//! * an observer tap ([`Bgp::set_observer`]) recording every eBGP message
//!   received by one AS — the control-plane feed the paper's ND-bgpigp
//!   algorithm uses.
//!
//! Deliberately out of scope (unused by the paper's evaluation): MED,
//! communities, route reflection, aggregation, MRAI timers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod policy;
mod route;
mod session;

pub use engine::{Bgp, Ctx, ObservedKind, ObservedMsg, RunStats};
pub use policy::{ExportDeny, ExportFilters};
pub use route::{local_pref_for, AsPath, Exit, Route, RouteSource, LOCAL_PREF_ORIGINATED};
pub use session::{Session, SessionId, SessionKind, SessionTable};
