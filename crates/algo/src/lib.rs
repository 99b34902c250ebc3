//! sr-algo — the pluggable load-balancing algorithm boundary.
//!
//! SilkRoad's claim is comparative: per-connection state in ASIC SRAM beats
//! the alternatives on memory and per-connection consistency (PCC). This
//! crate turns that comparison into code by defining the two seams every
//! stateful-or-not L4 load balancer decomposes into:
//!
//! * [`ConnState`] — the per-connection lookup structure: lookup / insert /
//!   expire over packet-time [`ConnHashes`], with honest SRAM byte
//!   accounting per entry layout ([`cost`]).
//! * [`Steering`] — the miss path: which DIP a new flow gets, whether that
//!   decision needs a [`ConnState`] entry to survive pool updates, and
//!   what, if anything, is stamped into the packet for later packets to
//!   carry ([`Steer::stamp`]).
//!
//! The generic [`AlgoEngine`] composes any `(ConnState, Steering)` pair
//! into a packet-processing loop, and the zoo provides three published
//! alternatives to SilkRoad (which `repro compare` drives on its own
//! production switch in `sr-core`, not through these traits):
//!
//! * [`concury`] — Concury-style version-in-packet steering: the pool
//!   version rides in the packet (DSCP), so steady-state flows need **no**
//!   connection entry at all; the ConnTable exists only for flows born
//!   inside an update's transition window.
//! * [`cucotrack`] — CuCoTrack-style cuckoo-filter connection tracking:
//!   a fingerprint-only ConnTable (denser than SilkRoad's digest+version
//!   entries) with an audit oracle that counts every fingerprint
//!   collision — false positives are reported, never silently absorbed.
//! * [`hybrid`] — Cohen-style stateful/stateless hybrid: stable-version
//!   flows ride stateless ECMP (the same `sr_hash::ecmp_select` kernel the
//!   `baselines` crate uses); only flows that cross a pool update get a
//!   stateful entry.
//!
//! [`registry::AlgoName`] names the four algorithms and declares each one's
//! physical [`sr_asic::PipelineProgram`] layout so `srcheck` can validate
//! all four placements; `repro compare` (in `sr-bench`) drives identical
//! traces through the zoo and records the paper-style comparison matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concury;
pub mod cost;
pub mod cucotrack;
pub mod engine;
pub mod hashes;
pub mod hybrid;
pub mod pools;
pub mod registry;
pub mod state;
pub mod steer;

pub use concury::{concury_lb, version_tag, ConcuryLb, ConcurySteering};
pub use cost::{conn_entry_bits, ConnStateDesign, OVERHEAD_BITS};
pub use cucotrack::{cucotrack_lb, CuckooFilterState, CucotrackLb};
pub use engine::{AlgoDecision, AlgoEngine, AlgoHasher, EngineStats};
pub use hashes::{ConnHashes, MAX_PACKET_HASHES};
pub use hybrid::{hybrid_lb, HybridLb, HybridSteering};
pub use pools::VersionedPools;
pub use registry::AlgoName;
pub use state::{ConnHit, ConnRecord, ConnState, MapConnState, StateFull};
pub use steer::{StatefulSteering, Steer, Steering};
