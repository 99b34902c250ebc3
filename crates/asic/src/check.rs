//! `srcheck` — the pipeline-layout verifier.
//!
//! The paper's Table 2 exists because an RMT compiler *rejects* programs
//! that blow per-stage budgets; a resource model that happily "runs" an
//! unplaceable [`PipelineProgram`] proves nothing. This module plays the
//! compiler's role: it validates a program's declared physical placement
//! against a [`ChipSpec`] the way a Tofino-class back end would —
//!
//! * **stage count** — every table/register span must fit the pipeline;
//! * **per-stage SRAM block packing** — entries are packed into 112-bit
//!   words ([`crate::sram`]), words into fixed-size blocks, blocks into a
//!   per-stage budget;
//! * **per-stage crossbar / hash-bit / stateful-ALU / VLIW budgets**, with
//!   exact tables replicating key and hash into every spanned stage;
//! * **TCAM budgets** for ternary tables;
//! * **PHV budget** for carried metadata;
//! * **transactional-register single-stage placement** — the TransitTable's
//!   one-cycle read-check-modify-write cannot span stages;
//! * **dependency DAG** — declared [`TableDependency`](crate::TableDependency)
//!   edges (ConnTable → TransitTable → VIPTable → DIPPoolTable) must be
//!   acyclic and realizable in the declared stage order.
//!
//! Violations come back as structured [`Diagnostic`]s (stable rule id,
//! severity, unit/stage location, measured-vs-budget numbers) inside a
//! [`CheckReport`] that also carries the full per-stage placement table —
//! the artifact `repro check` prints and `EXPERIMENTS.md` records.

use crate::pipeline::{MatchKind, PipelineProgram, RegisterDecl, TableDecl};
use crate::sram::{SramError, SramSpec, WORD_BITS};

/// Physical budgets of one match-action pipeline, at the granularity the
/// verifier checks. Numbers are per *stage* unless noted.
#[derive(Clone, Copy, Debug)]
pub struct ChipSpec {
    /// Chip label (reports).
    pub name: &'static str,
    /// Independent match-action pipes on the chip. Each pipe carries its
    /// own full set of stages and per-stage budgets; a program replicated
    /// across pipes must fit *one* pipe's budgets.
    pub pipes: u32,
    /// Match-action stages in the pipeline (per pipe).
    pub stages: u32,
    /// SRAM words ([`WORD_BITS`] wide) per block — the allocation unit.
    pub sram_block_words: u32,
    /// SRAM blocks available per stage.
    pub sram_blocks_per_stage: u32,
    /// TCAM bytes available per stage.
    pub tcam_bytes_per_stage: u64,
    /// Match-crossbar input bits per stage.
    pub crossbar_bits_per_stage: u32,
    /// Hash-unit output bits per stage.
    pub hash_bits_per_stage: u32,
    /// Stateful ALUs per stage.
    pub salus_per_stage: u32,
    /// VLIW action slots per stage.
    pub vliw_slots_per_stage: u32,
    /// Packet-header-vector bits (whole pipeline).
    pub phv_bits: u32,
}

impl ChipSpec {
    /// A 6.4 Tbps-class chip (Table 1's 2016 generation): 12 stages of
    /// ~8.6 MB SRAM (~103 MB total — the "50–100 MB" class the paper's
    /// 10 M-connection claim targets), RMT-like crossbar/hash/ALU widths.
    pub fn tofino_class() -> ChipSpec {
        ChipSpec {
            name: "tofino-class (6.4T, 2016)",
            pipes: 4,
            stages: 12,
            sram_block_words: 1024,
            sram_blocks_per_stage: 600,
            tcam_bytes_per_stage: 1_536 * 1024,
            crossbar_bits_per_stage: 640,
            hash_bits_per_stage: 128,
            salus_per_stage: 8,
            vliw_slots_per_stage: 32,
            phv_bits: 4_096,
        }
    }

    /// Bytes per SRAM block.
    pub fn sram_block_bytes(&self) -> u64 {
        self.sram_block_words as u64 * (WORD_BITS as u64) / 8
    }

    /// Total table SRAM across the pipeline, bytes.
    pub fn sram_bytes_total(&self) -> u64 {
        self.sram_block_bytes() * self.sram_blocks_per_stage as u64 * self.stages as u64
    }
}

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational.
    Info,
    /// Legal but suspicious (e.g. a budget above 90% utilization).
    Warning,
    /// The program is not placeable as declared.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The verifier's rule catalog. Each rule has a stable id (`SRCnnn`) that
/// tests and tooling match on; see `DESIGN.md` for the prose catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// SRC001 — a unit's stage span exceeds the pipeline length.
    StageCount,
    /// SRC002 — per-stage SRAM block budget exceeded.
    SramStageBudget,
    /// SRC003 — per-stage TCAM byte budget exceeded.
    TcamStageBudget,
    /// SRC004 — per-stage match-crossbar bit budget exceeded.
    CrossbarStageBudget,
    /// SRC005 — hash-bit budget exceeded (per stage, or pipeline total when
    /// the diagnostic carries no stage).
    HashBudget,
    /// SRC006 — per-stage stateful-ALU budget exceeded.
    SaluStageBudget,
    /// SRC007 — per-stage VLIW action-slot budget exceeded.
    VliwStageBudget,
    /// SRC008 — PHV bit budget exceeded.
    PhvBudget,
    /// SRC009 — exact-table replication is degenerate: a zero-stage span,
    /// or more stages than the entry count can populate.
    ExactReplication,
    /// SRC010 — a transactional register array spans more than one stage.
    RegisterSingleStage,
    /// SRC011 — a dependency references an unknown unit.
    DepUnknown,
    /// SRC012 — a dependency is not realizable in the declared placement
    /// (consumer does not start strictly after its producer ends).
    DepOrder,
    /// SRC013 — the dependency graph has a cycle.
    DepCycle,
    /// SRC014 — a table stores a wider match field than the key presented
    /// to the crossbar (a digest cannot widen the key).
    DigestWidth,
    /// SRC015 — degenerate geometry: zero-width entries/cells whose SRAM
    /// demand cannot be computed ([`SramError`]).
    ZeroWidth,
    /// SRC016 — the program replicates across more pipes than the chip
    /// has (or declares zero pipes).
    PipeCount,
}

impl Rule {
    /// The stable rule id.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::StageCount => "SRC001",
            Rule::SramStageBudget => "SRC002",
            Rule::TcamStageBudget => "SRC003",
            Rule::CrossbarStageBudget => "SRC004",
            Rule::HashBudget => "SRC005",
            Rule::SaluStageBudget => "SRC006",
            Rule::VliwStageBudget => "SRC007",
            Rule::PhvBudget => "SRC008",
            Rule::ExactReplication => "SRC009",
            Rule::RegisterSingleStage => "SRC010",
            Rule::DepUnknown => "SRC011",
            Rule::DepOrder => "SRC012",
            Rule::DepCycle => "SRC013",
            Rule::DigestWidth => "SRC014",
            Rule::ZeroWidth => "SRC015",
            Rule::PipeCount => "SRC016",
        }
    }
}

/// One structured finding: which rule fired, how bad, where, and the
/// measured-vs-budget numbers behind it.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Severity.
    pub severity: Severity,
    /// The table/register the finding is about (None for whole-program
    /// findings such as PHV).
    pub unit: Option<&'static str>,
    /// The physical stage (None for whole-program findings).
    pub stage: Option<u32>,
    /// Measured demand, in the rule's unit (blocks, bits, slots…).
    pub measured: u64,
    /// The chip budget it is compared against.
    pub budget: u64,
    /// Human-readable one-liner.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.rule.id(), self.severity, self.message)?;
        if let Some(u) = self.unit {
            write!(f, " [unit {u}]")?;
        }
        if let Some(s) = self.stage {
            write!(f, " [stage {s}]")?;
        }
        write!(f, " ({}/{})", self.measured, self.budget)
    }
}

/// Per-stage resource accumulation — one row of the placement report.
#[derive(Clone, Debug, Default)]
pub struct StageUsage {
    /// SRAM blocks allocated.
    pub sram_blocks: u64,
    /// TCAM bytes allocated.
    pub tcam_bytes: u64,
    /// Crossbar bits presented.
    pub crossbar_bits: u64,
    /// Hash bits consumed.
    pub hash_bits: u64,
    /// Stateful ALUs consumed.
    pub salus: u64,
    /// VLIW slots consumed.
    pub vliw: u64,
    /// Units (tables/registers) occupying the stage.
    pub units: Vec<&'static str>,
}

/// Everything the verifier learned about one program on one chip.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Program name.
    pub program: &'static str,
    /// Pipes the program replicates into (from [`PipelineProgram::pipes`]).
    pub pipes: u32,
    /// The chip it was checked against.
    pub chip: ChipSpec,
    /// Per-stage placement (index = physical stage).
    pub stages: Vec<StageUsage>,
    /// All findings, in rule order of discovery.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether the program is placeable (no error-severity findings).
    pub fn is_placeable(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Whether a specific rule fired at error severity.
    pub fn has_error(&self, rule: Rule) -> bool {
        self.errors().any(|d| d.rule == rule)
    }

    /// Render the placement table and diagnostics as the fixed-width report
    /// `repro check` prints (and `EXPERIMENTS.md` records).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let c = &self.chip;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== srcheck: {} on {} ({} stages, {:.1} MB SRAM/pipe, pipes {}/{}) ==",
            self.program,
            c.name,
            c.stages,
            c.sram_bytes_total() as f64 / (1024.0 * 1024.0),
            self.pipes,
            c.pipes,
        );
        let _ = writeln!(
            out,
            "{:>5}  {:>11}  {:>9}  {:>9}  {:>9}  {:>5}  {:>5}  units",
            "stage", "sram-blocks", "tcam-KB", "xbar-bits", "hash-bits", "sALU", "vliw"
        );
        for (i, s) in self.stages.iter().enumerate() {
            if s.units.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "{:>5}  {:>11}  {:>9}  {:>9}  {:>9}  {:>5}  {:>5}  {}",
                i,
                format!("{}/{}", s.sram_blocks, c.sram_blocks_per_stage),
                format!("{}/{}", s.tcam_bytes / 1024, c.tcam_bytes_per_stage / 1024),
                format!("{}/{}", s.crossbar_bits, c.crossbar_bits_per_stage),
                format!("{}/{}", s.hash_bits, c.hash_bits_per_stage),
                format!("{}/{}", s.salus, c.salus_per_stage),
                format!("{}/{}", s.vliw, c.vliw_slots_per_stage),
                s.units.join(" "),
            );
        }
        if self.diagnostics.is_empty() {
            let _ = writeln!(out, "diagnostics: none");
        } else {
            let _ = writeln!(out, "diagnostics:");
            for d in &self.diagnostics {
                let _ = writeln!(out, "  {d}");
            }
        }
        let errors = self.errors().count();
        let _ = write!(
            out,
            "result: {}",
            if errors == 0 {
                "PLACEABLE".to_string()
            } else {
                format!(
                    "REJECTED ({errors} error{})",
                    if errors == 1 { "" } else { "s" }
                )
            }
        );
        out
    }
}

/// A unit's stage span as the checker sees it (clamped for accumulation).
struct Span {
    first: u32,
    count: u32,
}

impl Span {
    fn last(&self) -> u32 {
        self.first + self.count - 1
    }
}

/// The verifier. See the module docs for the rule set.
pub fn check_program(prog: &PipelineProgram, chip: &ChipSpec) -> CheckReport {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut stages: Vec<StageUsage> = (0..chip.stages).map(|_| StageUsage::default()).collect();

    // SRC016: the pipes dimension. Every per-stage budget below is a
    // *per-pipe* budget (each pipe owns its own stages), so the only
    // chip-wide pipe check is the replication count itself.
    if prog.pipes == 0 || prog.pipes > chip.pipes {
        diags.push(Diagnostic {
            rule: Rule::PipeCount,
            severity: Severity::Error,
            unit: None,
            stage: None,
            measured: prog.pipes as u64,
            budget: chip.pipes as u64,
            message: if prog.pipes == 0 {
                "program declares zero pipes; it must occupy at least one".to_string()
            } else {
                format!(
                    "program replicates across {} pipes but the chip has {}",
                    prog.pipes, chip.pipes
                )
            },
        });
    }

    for t in &prog.tables {
        let span = table_span(t, chip, &mut diags);
        accumulate_table(t, &span, chip, &mut stages, &mut diags);
        if t.stored_key_bits > t.key_bits {
            diags.push(Diagnostic {
                rule: Rule::DigestWidth,
                severity: Severity::Error,
                unit: Some(t.name),
                stage: None,
                measured: t.stored_key_bits as u64,
                budget: t.key_bits as u64,
                message: format!(
                    "table '{}' stores a {}-bit match field but only {} key bits reach \
                     the crossbar; a digest cannot widen the key",
                    t.name, t.stored_key_bits, t.key_bits
                ),
            });
        }
    }
    for r in &prog.registers {
        let span = register_span(r, chip, &mut diags);
        accumulate_register(r, &span, chip, &mut stages, &mut diags);
    }

    check_stage_budgets(chip, &stages, &mut diags);
    check_phv_and_hash_totals(prog, chip, &stages, &mut diags);
    check_deps(prog, &mut diags);

    CheckReport {
        program: prog.name,
        pipes: prog.pipes,
        chip: *chip,
        stages,
        diagnostics: diags,
    }
}

impl PipelineProgram {
    /// Run the pipeline-layout verifier against `chip` — see
    /// [`check_program`].
    pub fn check(&self, chip: &ChipSpec) -> CheckReport {
        check_program(self, chip)
    }
}

/// Validate a table's span; returns it clamped to the pipeline so resource
/// accumulation stays in range.
fn table_span(t: &TableDecl, chip: &ChipSpec, diags: &mut Vec<Diagnostic>) -> Span {
    if t.kind == MatchKind::Exact {
        if t.stages == 0 {
            diags.push(Diagnostic {
                rule: Rule::ExactReplication,
                severity: Severity::Error,
                unit: Some(t.name),
                stage: None,
                measured: 0,
                budget: 1,
                message: format!(
                    "exact table '{}' declares a zero-stage span; it must replicate \
                     its key and hash into at least one stage",
                    t.name
                ),
            });
        } else if t.entries > 0 && t.stages as u64 > t.entries {
            diags.push(Diagnostic {
                rule: Rule::ExactReplication,
                severity: Severity::Warning,
                unit: Some(t.name),
                stage: None,
                measured: t.stages as u64,
                budget: t.entries,
                message: format!(
                    "exact table '{}' replicates across {} stages for only {} entries; \
                     some stages hold no words",
                    t.name, t.stages, t.entries
                ),
            });
        }
    }
    span_within_pipeline(t.name, t.first_stage, t.stages, chip, diags)
}

/// Validate a register's span (including the transactional rule).
fn register_span(r: &RegisterDecl, chip: &ChipSpec, diags: &mut Vec<Diagnostic>) -> Span {
    if r.transactional && r.stages > 1 {
        diags.push(Diagnostic {
            rule: Rule::RegisterSingleStage,
            severity: Severity::Error,
            unit: Some(r.name),
            stage: Some(r.first_stage),
            measured: r.stages as u64,
            budget: 1,
            message: format!(
                "transactional register '{}' spans {} stages; one-cycle \
                 read-check-modify-write requires single-stage placement",
                r.name, r.stages
            ),
        });
    }
    span_within_pipeline(r.name, r.first_stage, r.stages, chip, diags)
}

/// SRC001: the span must fit `chip.stages`. The returned span is clamped.
fn span_within_pipeline(
    name: &'static str,
    first: u32,
    count: u32,
    chip: &ChipSpec,
    diags: &mut Vec<Diagnostic>,
) -> Span {
    let count = count.max(1);
    let end = first.saturating_add(count);
    if end > chip.stages {
        diags.push(Diagnostic {
            rule: Rule::StageCount,
            severity: Severity::Error,
            unit: Some(name),
            stage: Some(first),
            measured: end as u64,
            budget: chip.stages as u64,
            message: format!(
                "'{name}' occupies stages {first}..{} but the pipeline has {} stages",
                end - 1,
                chip.stages
            ),
        });
    }
    let first = first.min(chip.stages.saturating_sub(1));
    Span {
        first,
        count: count.min(chip.stages - first),
    }
}

/// Spread a table's demand over its span: exact tables pack per-stage
/// entry shares into SRAM blocks and replicate key/hash per stage; ternary
/// tables consume TCAM. Action slots are charged where the action executes
/// (the last spanned stage).
fn accumulate_table(
    t: &TableDecl,
    span: &Span,
    chip: &ChipSpec,
    stages: &mut [StageUsage],
    diags: &mut Vec<Diagnostic>,
) {
    let per_stage_entries = t.entries.div_ceil(span.count as u64);
    let per_stage_hash = if t.kind == MatchKind::Exact {
        (t.hash_bits() / t.stages.max(1)) as u64
    } else {
        0
    };
    for s in span.first..=span.last() {
        let Some(u) = stages.get_mut(s as usize) else {
            continue;
        };
        u.units.push(t.name);
        u.crossbar_bits += t.key_bits as u64;
        u.hash_bits += per_stage_hash;
        if s == span.last() {
            u.vliw += t.action_slots as u64;
        }
        match t.kind {
            MatchKind::Exact => {
                let spec = SramSpec {
                    entry_bits: t.stored_key_bits + t.action_bits + 6,
                };
                match spec.try_words_for(per_stage_entries) {
                    Ok(words) => {
                        u.sram_blocks += words.div_ceil(chip.sram_block_words as u64);
                    }
                    Err(e) => push_sram_error(t.name, s, e, diags),
                }
            }
            MatchKind::Ternary => {
                u.tcam_bytes += (per_stage_entries * 2 * t.key_bits as u64).div_ceil(8);
            }
        }
    }
}

/// Spread a register group's SRAM/ALU/hash demand over its span.
fn accumulate_register(
    r: &RegisterDecl,
    span: &Span,
    chip: &ChipSpec,
    stages: &mut [StageUsage],
    diags: &mut Vec<Diagnostic>,
) {
    if r.width_bits == 0 && r.cells > 0 {
        push_sram_error(r.name, span.first, SramError::ZeroWidth, diags);
    }
    let per_stage_bytes = r.sram_bytes().div_ceil(span.count as u64);
    let per_stage_alus = (r.alus as u64).div_ceil(span.count as u64);
    let per_stage_hash = (r.index_hash_bits as u64).div_ceil(span.count as u64);
    for s in span.first..=span.last() {
        let Some(u) = stages.get_mut(s as usize) else {
            continue;
        };
        u.units.push(r.name);
        u.sram_blocks += per_stage_bytes.div_ceil(chip.sram_block_bytes());
        u.salus += per_stage_alus;
        u.hash_bits += per_stage_hash;
    }
}

/// SRC015 from a typed SRAM sizing failure.
fn push_sram_error(name: &'static str, stage: u32, e: SramError, diags: &mut Vec<Diagnostic>) {
    diags.push(Diagnostic {
        rule: Rule::ZeroWidth,
        severity: Severity::Error,
        unit: Some(name),
        stage: Some(stage),
        measured: 0,
        budget: 0,
        message: format!("'{name}' SRAM demand is not computable: {e}"),
    });
}

/// One per-stage budget rule: (rule, resource label, accessor, budget).
type StageCheck = (Rule, &'static str, fn(&StageUsage) -> u64, u64);

/// SRC002–SRC007: compare each stage's accumulated demand against the chip
/// budgets. Over budget is an error; above 90% utilization is a warning.
fn check_stage_budgets(chip: &ChipSpec, stages: &[StageUsage], diags: &mut Vec<Diagnostic>) {
    let checks: [StageCheck; 6] = [
        (
            Rule::SramStageBudget,
            "SRAM blocks",
            |u| u.sram_blocks,
            chip.sram_blocks_per_stage as u64,
        ),
        (
            Rule::TcamStageBudget,
            "TCAM bytes",
            |u| u.tcam_bytes,
            chip.tcam_bytes_per_stage,
        ),
        (
            Rule::CrossbarStageBudget,
            "crossbar bits",
            |u| u.crossbar_bits,
            chip.crossbar_bits_per_stage as u64,
        ),
        (
            Rule::HashBudget,
            "hash bits",
            |u| u.hash_bits,
            chip.hash_bits_per_stage as u64,
        ),
        (
            Rule::SaluStageBudget,
            "stateful ALUs",
            |u| u.salus,
            chip.salus_per_stage as u64,
        ),
        (
            Rule::VliwStageBudget,
            "VLIW slots",
            |u| u.vliw,
            chip.vliw_slots_per_stage as u64,
        ),
    ];
    for (i, u) in stages.iter().enumerate() {
        for (rule, what, measure, budget) in &checks {
            let used = measure(u);
            if used == 0 {
                continue;
            }
            let severity = if used > *budget {
                Severity::Error
            } else if used * 10 > budget * 9 {
                Severity::Warning
            } else {
                continue;
            };
            diags.push(Diagnostic {
                rule: *rule,
                severity,
                unit: None,
                stage: Some(i as u32),
                measured: used,
                budget: *budget,
                message: format!(
                    "stage {i} {} {what} of a {budget}-budget ({} in: {})",
                    if severity == Severity::Error {
                        format!("needs {used}")
                    } else {
                        format!("is at {used}")
                    },
                    u.units.len(),
                    u.units.join(" "),
                ),
            });
        }
    }
}

/// SRC008 (PHV) and the pipeline-total hash pool (SRC005 with no stage):
/// per-stage hash checks miss selector/learning hashes that are not pinned
/// to a stage, so the total is checked against the whole-pipeline pool.
fn check_phv_and_hash_totals(
    prog: &PipelineProgram,
    chip: &ChipSpec,
    stages: &[StageUsage],
    diags: &mut Vec<Diagnostic>,
) {
    if prog.metadata_bits > chip.phv_bits {
        diags.push(Diagnostic {
            rule: Rule::PhvBudget,
            severity: Severity::Error,
            unit: None,
            stage: None,
            measured: prog.metadata_bits as u64,
            budget: chip.phv_bits as u64,
            message: format!(
                "program carries {} PHV bits; the chip has {}",
                prog.metadata_bits, chip.phv_bits
            ),
        });
    }
    let placed: u64 = stages.iter().map(|u| u.hash_bits).sum();
    let total = placed + prog.selector_hash_bits as u64;
    let pool = chip.hash_bits_per_stage as u64 * chip.stages as u64;
    if total > pool {
        diags.push(Diagnostic {
            rule: Rule::HashBudget,
            severity: Severity::Error,
            unit: None,
            stage: None,
            measured: total,
            budget: pool,
            message: format!(
                "program consumes {total} hash bits ({placed} placed + {} selector) \
                 of a {pool}-bit pipeline pool",
                prog.selector_hash_bits
            ),
        });
    }
}

/// SRC011–SRC013: dependency edges must reference known units, be acyclic,
/// and be realizable in the declared stage placement (consumer starts
/// strictly after producer ends — RMT match dependency).
fn check_deps(prog: &PipelineProgram, diags: &mut Vec<Diagnostic>) {
    // Unit name -> (first, last) stage.
    let lookup = |name: &str| -> Option<(u32, u32)> {
        prog.tables
            .iter()
            .find(|t| t.name == name)
            .map(|t| (t.first_stage, t.last_stage()))
            .or_else(|| {
                prog.registers
                    .iter()
                    .find(|r| r.name == name)
                    .map(|r| (r.first_stage, r.last_stage()))
            })
    };

    for d in &prog.deps {
        let (Some(before), Some(after)) = (lookup(d.before), lookup(d.after)) else {
            let missing = if lookup(d.before).is_none() {
                d.before
            } else {
                d.after
            };
            diags.push(Diagnostic {
                rule: Rule::DepUnknown,
                severity: Severity::Error,
                unit: None,
                stage: None,
                measured: 0,
                budget: 0,
                message: format!(
                    "dependency {} -> {} references unknown unit '{missing}'",
                    d.before, d.after
                ),
            });
            continue;
        };
        if after.0 <= before.1 {
            diags.push(Diagnostic {
                rule: Rule::DepOrder,
                severity: Severity::Error,
                unit: None,
                stage: Some(after.0),
                measured: after.0 as u64,
                budget: before.1 as u64 + 1,
                message: format!(
                    "'{}' (ends stage {}) must resolve before '{}' (starts stage {}); \
                     a match dependency needs a strictly later stage",
                    d.before, before.1, d.after, after.0
                ),
            });
        }
    }

    // Cycle detection over the name graph (Kahn's algorithm); nodes are the
    // endpoints that resolved.
    let mut nodes: Vec<&'static str> = Vec::new();
    for d in &prog.deps {
        for n in [d.before, d.after] {
            if lookup(n).is_some() && !nodes.contains(&n) {
                nodes.push(n);
            }
        }
    }
    let edges: Vec<(&'static str, &'static str)> = prog
        .deps
        .iter()
        .filter(|d| lookup(d.before).is_some() && lookup(d.after).is_some())
        .map(|d| (d.before, d.after))
        .collect();
    let mut indegree: Vec<usize> = nodes
        .iter()
        .map(|n| edges.iter().filter(|(_, to)| to == n).count())
        .collect();
    let mut queue: Vec<usize> = (0..nodes.len()).filter(|&i| indegree[i] == 0).collect();
    let mut removed = 0usize;
    while let Some(i) = queue.pop() {
        removed += 1;
        let from = nodes[i];
        for (f, to) in &edges {
            if *f != from {
                continue;
            }
            if let Some(j) = nodes.iter().position(|n| n == to) {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push(j);
                }
            }
        }
    }
    if removed < nodes.len() {
        let cyclic: Vec<&str> = (0..nodes.len())
            .filter(|&i| indegree[i] > 0)
            .map(|i| nodes[i])
            .collect();
        diags.push(Diagnostic {
            rule: Rule::DepCycle,
            severity: Severity::Error,
            unit: None,
            stage: None,
            measured: cyclic.len() as u64,
            budget: 0,
            message: format!(
                "dependency graph has a cycle through: {}",
                cyclic.join(" -> ")
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tofino_class_is_the_papers_2016_generation() {
        let c = ChipSpec::tofino_class();
        let mb = c.sram_bytes_total() as f64 / (1024.0 * 1024.0);
        assert!((50.0..=110.0).contains(&mb), "{mb} MB");
        assert_eq!(c.sram_block_bytes(), 1024 * 14);
    }

    #[test]
    fn rule_ids_are_stable_and_unique() {
        let rules = [
            Rule::StageCount,
            Rule::SramStageBudget,
            Rule::TcamStageBudget,
            Rule::CrossbarStageBudget,
            Rule::HashBudget,
            Rule::SaluStageBudget,
            Rule::VliwStageBudget,
            Rule::PhvBudget,
            Rule::ExactReplication,
            Rule::RegisterSingleStage,
            Rule::DepUnknown,
            Rule::DepOrder,
            Rule::DepCycle,
            Rule::DigestWidth,
            Rule::ZeroWidth,
            Rule::PipeCount,
        ];
        let ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(id.starts_with("SRC"), "{id}");
            assert!(!ids[i + 1..].contains(id), "duplicate id {id}");
        }
    }

    #[test]
    fn diagnostics_render_location_and_numbers() {
        let d = Diagnostic {
            rule: Rule::SramStageBudget,
            severity: Severity::Error,
            unit: Some("ConnTable"),
            stage: Some(3),
            measured: 700,
            budget: 600,
            message: "over".into(),
        };
        let text = d.to_string();
        assert!(text.contains("SRC002"));
        assert!(text.contains("error"));
        assert!(text.contains("[unit ConnTable]"));
        assert!(text.contains("[stage 3]"));
        assert!(text.contains("(700/600)"));
    }
}
