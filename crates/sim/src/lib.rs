//! Deterministic flow-level discrete-event simulation (§3.2, §6.2).
//!
//! This crate reproduces the paper's simulation methodology: traces from
//! `sr-workload` are replayed against a load balancer behind the
//! [`LoadBalancer`] trait — which SilkRoad's switch, Duet, the SLB tier and
//! ECMP each implement directly (see [`lb`]) — and per-connection
//! consistency is measured by
//! *probing* each connection's mapping at the instants it would actually
//! have a packet on the wire:
//!
//! * its first packet (SYN) and last packet (FIN);
//! * its natural next packets after any event that could remap it — a
//!   DIP-pool update to its VIP, or the balancer reporting a VIP remap
//!   (Duet's migrate-back);
//! * its early packets while its ConnTable entry is still being installed
//!   (SilkRoad's pending window).
//!
//! A connection that observes two different DIPs is **broken** — exactly
//! the paper's PCC-violation definition. Probing at real packet times
//! (derived from each flow's rate) rather than continuously is what makes
//! paper-scale traces tractable, and is faithful: a remap that no packet
//! ever observes does not break the connection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod harness;
pub mod lb;
pub mod metrics;
pub mod scenarios;
pub mod wheel;

pub use fleet::{run_fleet, FleetParams, FleetReport};
pub use harness::Harness;
pub use lb::{LoadBalancer, PacketVerdict, ASIC_LATENCY};
pub use metrics::{LatencyHist, RunMetrics};
pub use scenarios::{run_scenario, Scenario, SystemKind};
pub use wheel::TimerWheel;
