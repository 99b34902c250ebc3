//! srcheck golden and mutation tests.
//!
//! Golden: both reference programs (`switch.p4` baseline, SilkRoad's
//! paper-default addition) must verify clean on the Tofino-class chip.
//! Mutation: four deliberately broken layouts must each be rejected with
//! the documented rule id (see the rule catalog in `DESIGN.md`).

use sr_asic::{ChipSpec, PipelineProgram, Rule, Severity, TableDependency};

#[test]
fn golden_baseline_switch_p4_is_placeable() {
    let report = PipelineProgram::baseline_switch_p4().check(&ChipSpec::tofino_class());
    assert!(
        report.is_placeable(),
        "baseline switch.p4 must verify clean:\n{}",
        report.render()
    );
    // The baseline sits comfortably inside the chip: no warnings either.
    assert!(
        report.diagnostics.is_empty(),
        "unexpected diagnostics:\n{}",
        report.render()
    );
}

#[test]
fn golden_silkroad_reference_is_placeable() {
    let report = PipelineProgram::silkroad_paper().check(&ChipSpec::tofino_class());
    assert!(
        report.is_placeable(),
        "reference SilkRoad program must verify clean:\n{}",
        report.render()
    );
    // The TransitTable's 8 stateful ALUs saturate one stage's ALU budget —
    // the checker surfaces that as a utilization warning, not an error
    // (Table 2: stateful ALUs are SilkRoad's most-stressed resource).
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.severity != Severity::Error));
}

#[test]
fn golden_report_renders_placement_rows() {
    let report = PipelineProgram::silkroad_paper().check(&ChipSpec::tofino_class());
    let text = report.render();
    for unit in ["ConnTable", "TransitTable", "VIPTable", "DIPPoolTable"] {
        assert!(text.contains(unit), "report missing {unit}:\n{text}");
    }
    assert!(text.contains("PLACEABLE"), "{text}");
}

#[test]
fn mutation_oversized_conntable_rejected_src002() {
    // 40M connections over 4 stages wants ~2442 SRAM blocks per stage of a
    // 600-block budget. An RMT back end refuses this; so do we.
    let prog = PipelineProgram::silkroad(40_000_000, 4, 16, 6, 1_000, 4_000, 144, 256, 4);
    let report = prog.check(&ChipSpec::tofino_class());
    assert!(!report.is_placeable());
    assert!(
        report.has_error(Rule::SramStageBudget),
        "expected SRC002:\n{}",
        report.render()
    );
}

#[test]
fn mutation_transactional_register_spanning_stages_rejected_src010() {
    let mut prog = PipelineProgram::silkroad_paper();
    prog.registers[0].stages = 2;
    let report = prog.check(&ChipSpec::tofino_class());
    assert!(!report.is_placeable());
    assert!(
        report.has_error(Rule::RegisterSingleStage),
        "expected SRC010:\n{}",
        report.render()
    );
}

#[test]
fn mutation_dependency_cycle_rejected_src013() {
    let mut prog = PipelineProgram::silkroad_paper();
    // Close the paper's miss-path chain into a loop:
    // ConnTable -> TransitTable -> VIPTable -> DIPPoolTable -> ConnTable.
    prog.deps.push(TableDependency {
        before: "DIPPoolTable",
        after: "ConnTable",
    });
    let report = prog.check(&ChipSpec::tofino_class());
    assert!(!report.is_placeable());
    assert!(
        report.has_error(Rule::DepCycle),
        "expected SRC013:\n{}",
        report.render()
    );
    // The bogus edge also runs backwards in the placement.
    assert!(report.has_error(Rule::DepOrder));
}

#[test]
fn mutation_digest_wider_than_key_rejected_src014() {
    let mut prog = PipelineProgram::silkroad_paper();
    // A 200-bit stored match field cannot be derived from a 104-bit key.
    prog.tables[0].stored_key_bits = 200;
    let report = prog.check(&ChipSpec::tofino_class());
    assert!(!report.is_placeable());
    assert!(
        report.has_error(Rule::DigestWidth),
        "expected SRC014:\n{}",
        report.render()
    );
}

#[test]
fn mutation_unknown_dependency_rejected_src011() {
    let mut prog = PipelineProgram::silkroad_paper();
    prog.deps.push(TableDependency {
        before: "NoSuchTable",
        after: "VIPTable",
    });
    let report = prog.check(&ChipSpec::tofino_class());
    assert!(report.has_error(Rule::DepUnknown));
}

#[test]
fn golden_silkroad_replicated_across_all_pipes_is_placeable() {
    // The multi-pipe engine replicates the program into every pipe; the
    // per-stage budgets are per-pipe, so a clean 1-pipe layout stays clean
    // at the chip's full pipe count — and the chip-wide resource roll-up
    // scales linearly with the replication factor.
    let chip = ChipSpec::tofino_class();
    let prog = PipelineProgram::silkroad_paper().with_pipes(chip.pipes);
    let report = prog.check(&chip);
    assert!(
        report.is_placeable(),
        "pipe-replicated SilkRoad must verify clean:\n{}",
        report.render()
    );
    assert_eq!(report.pipes, chip.pipes);
    let one = PipelineProgram::silkroad_paper().chip_usage();
    let all = prog.chip_usage();
    assert_eq!(all.sram_bytes, one.sram_bytes * chip.pipes as f64);
}

#[test]
fn mutation_too_many_pipes_rejected_src016() {
    let chip = ChipSpec::tofino_class();
    let report = PipelineProgram::silkroad_paper()
        .with_pipes(chip.pipes + 4)
        .check(&chip);
    assert!(!report.is_placeable());
    assert!(
        report.has_error(Rule::PipeCount),
        "expected SRC016:\n{}",
        report.render()
    );
}

#[test]
fn mutation_zero_pipes_rejected_src016() {
    let report = PipelineProgram::silkroad_paper()
        .with_pipes(0)
        .check(&ChipSpec::tofino_class());
    assert!(report.has_error(Rule::PipeCount));
}

#[test]
fn mutation_overlong_span_rejected_src001() {
    let mut prog = PipelineProgram::silkroad_paper();
    prog.tables[0].first_stage = 10;
    prog.tables[0].stages = 4; // stages 10..13 of a 12-stage pipeline
    let report = prog.check(&ChipSpec::tofino_class());
    assert!(report.has_error(Rule::StageCount));
}
