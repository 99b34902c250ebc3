//! Benchmark harness: regenerates every table and figure of the SilkRoad
//! evaluation.
//!
//! Each `figN`/`tableN` function returns structured rows; the `repro`
//! binary prints them. The absolute numbers come from our simulator and
//! synthetic fleet, so they will not match the paper digit-for-digit — the
//! *shape* (who wins, by what factor, where crossovers sit) is the
//! reproduction target, and the unit tests in this crate assert exactly
//! those shapes. `EXPERIMENTS.md` records a run next to the paper values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod churn;
pub mod compare;
pub mod extras;
pub mod fig_memory;
pub mod fig_meta;
pub mod fig_pcc;
pub mod fig_version;
pub mod fleet;
pub mod replay;
pub mod report;
pub mod scale;
pub mod tables;
mod waves;

pub use scale::Scale;
