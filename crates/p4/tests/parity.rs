//! The parity gate: compiling the bundled `p4/silkroad.p4` must yield a
//! `PipelineProgram` resource-for-resource identical to the hand-built
//! reference the rest of the workspace runs on
//! (`SilkRoadConfig::default().pipeline_program()`, and the paper geometry
//! `PipelineProgram::silkroad_paper()`), down to an identical srcheck
//! placement report. This is what turns `sr-asic` from a fixture
//! into a target: the P4 source is now the authoritative program text.

use silkroad::SilkRoadConfig;
use sr_asic::{ChipSpec, PipelineProgram};

#[test]
fn lowered_silkroad_is_identical_to_hand_built_reference() {
    let lowered = sr_p4::compile(sr_p4::SILKROAD_P4).expect("bundled silkroad.p4 must compile");
    let hand_built = SilkRoadConfig::default().pipeline_program();
    // Structural identity: every table, register, dependency edge and
    // program-wide count must agree field-for-field.
    assert_eq!(
        format!("{hand_built:#?}"),
        format!("{lowered:#?}"),
        "lowered silkroad.p4 drifted from the hand-built reference"
    );
    assert_eq!(
        format!("{:#?}", PipelineProgram::silkroad_paper()),
        format!("{lowered:#?}"),
        "lowered silkroad.p4 drifted from the paper geometry"
    );
}

#[test]
fn lowered_silkroad_placement_report_is_identical() {
    let chip = ChipSpec::tofino_class();
    let lowered = sr_p4::compile(sr_p4::SILKROAD_P4).expect("bundled silkroad.p4 must compile");
    let hand_built = SilkRoadConfig::default().pipeline_program();
    let lowered_report = lowered.check(&chip);
    let hand_report = hand_built.check(&chip);
    assert!(lowered_report.is_placeable(), "{}", lowered_report.render());
    assert_eq!(hand_report.render(), lowered_report.render());
}

#[test]
fn bundled_charon_lowers_to_a_placeable_layout() {
    let program = sr_p4::compile(sr_p4::CHARON_P4).expect("bundled charon_lb.p4 must compile");
    let report = program.check(&ChipSpec::tofino_class());
    assert!(report.is_placeable(), "{}", report.render());
}

#[test]
fn unplaceable_p4_is_still_refused_downstream() {
    // Blow the ConnTable far past the chip's SRAM so lowering succeeds but
    // placement must fail — the compile path must not bypass srcheck.
    let bloated = sr_p4::SILKROAD_P4.replace("size = 1000000;", "size = 900000000;");
    let program = sr_p4::compile(&bloated).expect("bloated program still compiles");
    let report = program.check(&ChipSpec::tofino_class());
    assert!(!report.is_placeable(), "{}", report.render());
}
