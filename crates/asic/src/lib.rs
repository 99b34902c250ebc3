//! Behavioural model of a programmable switching ASIC (§4.1).
//!
//! SilkRoad's feasibility rests on four hardware primitives that this crate
//! models faithfully enough to reproduce the paper's memory and PCC results:
//!
//! * **SRAM with word packing** ([`sram`]) — exact-match tables live in
//!   112-bit SRAM words; several compact entries pack into one word
//!   (SilkRoad packs four 28-bit ConnTable entries per word).
//! * **Exact-match table entry layouts** ([`table`]) — what one entry
//!   costs in SRAM and how word packing fixes the bucket width of the
//!   multi-stage cuckoo store (which lives in `sr-hash`). Lookups are
//!   line-rate; *insertions are software*, performed by the switch
//!   management CPU ([`cpu`]) which runs the BFS move search.
//! * **Learning filter** ([`learning`]) — batches first-packet events (with
//!   deduplication) toward the CPU, notifying on full-or-timeout.
//! * **Transactional memory** — one-cycle read-check-modify-write register
//!   arrays, which the TransitTable bloom filter lives in. Here they are
//!   priced, not simulated: a [`RegisterDecl`] in the [`pipeline`] program
//!   counts their cells and stateful ALUs, while the filter's behaviour is
//!   `sr_hash::BloomFilter`, wrapped by `silkroad::transit::TransitTable`
//!   (the simulator applies packets in order, so one-cycle transactions
//!   hold trivially); and **meters** ([`meter`]) — RFC 4115 two-rate
//!   three-color markers for per-VIP isolation.
//!
//! [`resources`] holds Table 1 (SRAM growth across ASIC generations) and
//! switch.p4's documented usage, the denominator of Table 2; the numerator
//! is the structural count [`PipelineProgram::resource_usage`] of the
//! SilkRoad program ([`pipeline`]).
//!
//! [`check`] adds `srcheck`, the pipeline-layout verifier: it validates a
//! [`PipelineProgram`]'s physical placement against a [`ChipSpec`]'s
//! per-stage budgets the way an RMT compiler back end would, and rejects
//! unplaceable layouts with structured diagnostics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod cpu;
pub mod learning;
pub mod meter;
pub mod pipeline;
pub mod resources;
pub mod sram;
pub mod table;

pub use check::{check_program, CheckReport, ChipSpec, Diagnostic, Rule, Severity, StageUsage};
pub use cpu::{CpuJob, SwitchCpu, SwitchCpuConfig};
pub use learning::{LearnEvent, LearningFilter, LearningFilterConfig};
pub use meter::{Meter, MeterColor, MeterConfig};
pub use pipeline::{MatchKind, PipelineProgram, RegisterDecl, TableDecl, TableDependency};
pub use resources::{AsicGeneration, ResourcePercent, ResourceUsage, SWITCH_P4_USAGE};
pub use sram::{SramError, SramSpec, WORD_BITS};
pub use table::TableSpec;
