//! Baseline load balancers the paper compares SilkRoad against.
//!
//! * [`slb`] — a software load balancer in the Ananta/Maglev mould (§2.2):
//!   ConnTable and VIPTable both in x86 software. PCC is easy (synchronous
//!   table updates) but every packet costs CPU, latency, and money.
//! * [`duet`] — Duet (§2.3, §3.2): VIPTable in the switch ASIC via ECMP,
//!   ConnTable only in SLBs. During DIP-pool updates the VIP's traffic is
//!   redirected to SLBs; the dilemma of *when to migrate back* produces
//!   either high SLB load or PCC violations (Fig 5, 16, 17).
//! * [`ecmp`] — stateless ECMP hashing, the strawman lower bound.
//! * [`cost`] — the capex/power model behind Fig 13 and the §6.1
//!   "1/500 power, 1/250 cost" claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod duet;
pub mod ecmp;
pub mod slb;

pub use cost::{CostModel, Deployment};
pub use duet::{DuetConfig, DuetLb, MigrationPolicy};
pub use ecmp::EcmpLb;
pub use slb::SoftwareLb;
