//! `sr-p4` — a P4_16 front-end for the ASIC model.
//!
//! The crate is a static-analysis pipeline over the P4_16 subset the
//! SilkRoad artifact needs (DESIGN.md §14):
//!
//! 1. [`lex`]/[`parse`](mod@parse) — a zero-dependency lexer and recursive-descent
//!    parser producing a spanned AST ([`ast`]). Syntax errors are fatal
//!    and carry `line:col` locations.
//! 2. [`sema::analyze`] — exhaustive semantic analysis emitting the
//!    SRC101+ diagnostic catalog (undeclared/duplicate types and
//!    instances, width mismatches, unreachable/cyclic parser states,
//!    action arity errors, tables referencing undefined actions,
//!    transactional registers spanning stages, program-shape errors).
//! 3. [`lower::lower`] — lowering a clean program to
//!    [`sr_asic::PipelineProgram`], so the existing srcheck catalog
//!    (SRC001–SRC016) verifies placement and budgets against real P4
//!    source instead of a hand-built fixture.
//!
//! [`compile`] chains all three. The two bundled reference programs are
//! embedded as [`SILKROAD_P4`] (whose lowering is gated to be
//! resource-for-resource identical to the hand-built
//! `PipelineProgram::silkroad` reference) and [`CHARON_P4`] (a
//! Charon-style load-aware balancer that must lower to a placeable
//! layout).

#![forbid(unsafe_code)]

pub mod ast;
pub mod lex;
pub mod lower;
pub mod parse;
pub mod sema;

pub use lex::{LexError, Span};
pub use lower::{lower, LowerError};
pub use parse::{parse, ParseError};
pub use sema::{analyze, Analysis, Diag, Rule};

/// The bundled SilkRoad P4 program (`p4/silkroad.p4`).
pub const SILKROAD_P4: &str = include_str!("../../../p4/silkroad.p4");

/// The bundled Charon-style load-aware balancer (`p4/charon_lb.p4`).
pub const CHARON_P4: &str = include_str!("../../../p4/charon_lb.p4");

/// Why a compilation failed.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// A fatal syntax (or lexical) error.
    Parse(ParseError),
    /// One or more semantic diagnostics (SRC101+).
    Sema(Vec<Diag>),
    /// An internal lowering failure (unreachable after clean sema).
    Lower(LowerError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Sema(diags) => {
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            CompileError::Lower(e) => write!(f, "{e}"),
        }
    }
}

/// Compile P4 source to a [`sr_asic::PipelineProgram`]: parse, analyze,
/// lower. Semantic diagnostics are collected exhaustively; lowering runs
/// only on a clean program.
pub fn compile(source: &str) -> Result<sr_asic::PipelineProgram, CompileError> {
    let prog = parse(source).map_err(CompileError::Parse)?;
    let analysis = analyze(&prog);
    if !analysis.is_clean() {
        return Err(CompileError::Sema(analysis.diags));
    }
    lower(&prog, &analysis.env).map_err(CompileError::Lower)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_silkroad_compiles_clean() {
        let p = compile(SILKROAD_P4).unwrap();
        assert_eq!(p.name, "silkroad");
        assert_eq!(p.tables.len(), 4);
        assert_eq!(p.registers.len(), 1);
        assert_eq!(p.deps.len(), 3);
    }

    #[test]
    fn bundled_charon_compiles_clean_and_places() {
        let p = compile(CHARON_P4).unwrap();
        assert_eq!(p.name, "charon");
        let report = sr_asic::check_program(&p, &sr_asic::ChipSpec::tofino_class());
        assert!(report.is_placeable(), "{}", report.render());
    }

    #[test]
    fn compile_surfaces_sema_diagnostics() {
        let broken = SILKROAD_P4.replace("size = 1000000;", "size = 1000000;\n        size = 2;");
        // Duplicate property is legal syntax in our subset (last wins), so
        // break semantics instead: reference a missing field.
        let broken = broken.replace("meta.digest : exact;", "meta.sequence : exact;");
        match compile(&broken) {
            Err(CompileError::Sema(diags)) => {
                assert!(diags.iter().any(|d| d.rule.id() == "SRC104"), "{diags:?}");
            }
            other => panic!("expected sema diagnostics, got {other:?}"),
        }
    }

    #[test]
    fn compile_surfaces_parse_errors() {
        match compile("header h { bit<8 x; }") {
            Err(CompileError::Parse(e)) => assert_eq!(e.span.line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
