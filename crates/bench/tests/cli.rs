//! CLI contract for the `repro` driver: bad flags must fail fast with a
//! usage error (exit code 2) *before* any work starts — a misspelled or
//! nonsensical flag silently falling back to full-scale defaults is how
//! an overnight benchmark run gets wasted.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn zero_jobs_is_a_usage_error() {
    let out = repro(&["table1", "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("positive integer"),
        "unhelpful error: {}",
        stderr(&out)
    );
}

#[test]
fn zero_pipes_is_a_usage_error() {
    for args in [
        &["replay", "x.pcap", "--pipes", "0"][..],
        &["replay", "x.pcap", "--pipes=0"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(stderr(&out).contains("positive integer"), "args {args:?}");
    }
}

#[test]
fn non_numeric_counts_are_usage_errors() {
    for args in [
        &["table1", "--jobs", "many"][..],
        &["table1", "--jobs=-3"][..],
        &["replay", "x.pcap", "--pipes", "4x"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            stderr(&out).contains("positive integer"),
            "args {args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn missing_count_value_is_a_usage_error() {
    let out = repro(&["table1", "--jobs"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("needs a value"));
}

#[test]
fn unknown_flags_are_rejected_not_ignored() {
    for args in [
        &["table1", "--job", "4"][..],
        &["fleet", "--smok"][..],
        &["fleet", "--workers", "4"][..],
        &["churn", "--smok"][..],
        &["churn", "--floo"][..],
        &["churn", "--storm", "10"][..],
        &["compare", "--smok"][..],
        &["compare", "--algos", "concury"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            stderr(&out).contains("unknown flag"),
            "args {args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn p4_flag_without_a_path_is_a_usage_error() {
    let out = repro(&["check", "--p4"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("needs a value"));
}

#[test]
fn p4_flag_with_an_unreadable_path_is_a_usage_error() {
    for args in [
        &["check", "--p4", "no_such_file.p4"][..],
        &["check", "--p4=no_such_file.p4"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            stderr(&out).contains("failed to read"),
            "args {args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn misspelled_p4_flag_is_rejected() {
    for args in [&["check", "--p"][..], &["check", "--p4file", "x.p4"][..]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(stderr(&out).contains("unknown flag"), "args {args:?}");
    }
}

/// A semantically broken program must fail `check --p4` with exit 1 and
/// the SRC diagnostic on stdout — not exit 0, and not a usage error.
#[test]
fn semantic_diagnostics_fail_the_p4_check() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../p4/tests/fixtures/src104_undeclared_ref.p4");
    let path = dir.to_str().expect("fixture path is utf-8");
    let out = repro(&["check", "--p4", path]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("SRC104"), "diagnostic missing: {stdout}");
    assert!(stderr(&out).contains("rejected"));
}

/// The bundled sources pass `check --p4` end to end: parse, semantic,
/// lowering, and srcheck placement.
#[test]
fn bundled_p4_sources_pass_the_p4_check() {
    let p4_dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../p4");
    for name in ["silkroad.p4", "charon_lb.p4"] {
        let path = p4_dir.join(name);
        let out = repro(&["check", "--p4", path.to_str().expect("utf-8 path")]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name} stderr: {}",
            stderr(&out)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        for phase in ["parse     : OK", "semantic  : OK", "lowering  : OK"] {
            assert!(stdout.contains(phase), "{name} missing '{phase}': {stdout}");
        }
    }
}

/// The default `repro check` is routed through the bundled P4 source and
/// reports parity against the hand-built reference program.
#[test]
fn default_check_compiles_bundled_p4_and_reports_parity() {
    let out = repro(&["check"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("p4/silkroad.p4"), "stdout: {stdout}");
    assert!(stdout.contains("p4/charon_lb.p4"), "stdout: {stdout}");
    assert!(
        stdout.contains("IDENTICAL"),
        "parity line missing: {stdout}"
    );
}

/// `compare --algo` is a closed registry: an unknown algorithm name is a
/// usage error that lists the valid zoo members, so a typo cannot
/// silently fall back to running the full (long) matrix.
#[test]
fn unknown_algorithms_are_usage_errors() {
    for args in [
        &["compare", "--algo", "maglev"][..],
        &["compare", "--algo=maglev"][..],
        &["compare", "--algo", "SilkRoad"][..], // names are exact, lowercase
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = stderr(&out);
        assert!(err.contains("unknown algorithm"), "args {args:?}: {err}");
        for name in ["silkroad", "concury", "cucotrack", "hybrid"] {
            assert!(err.contains(name), "args {args:?} omits '{name}': {err}");
        }
    }
}

#[test]
fn algo_flag_without_a_value_is_a_usage_error() {
    let out = repro(&["compare", "--algo"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("needs a value"));
}

#[test]
fn unknown_targets_are_rejected() {
    // `scale` and `wall` were host-bound rate sweeps; packet rates are
    // measured only by the `benchmark/` package now.
    for target in ["fig99", "scale", "wall"] {
        let out = repro(&[target]);
        assert_eq!(out.status.code(), Some(2), "target {target}");
        assert!(stderr(&out).contains("unknown target"), "target {target}");
    }
}

#[test]
fn help_lists_the_verification_targets() {
    let out = repro(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for target in ["check", "fleet", "churn", "compare", "export", "replay"] {
        assert!(stdout.contains(target), "help omits '{target}'");
    }
}

/// Run `repro` from a scratch directory (targets that write a
/// `BENCH_*.json` write it to the working directory); returns the output
/// and the scratch path, which the caller removes.
fn repro_in_scratch(name: &str, args: &[&str]) -> (std::process::Output, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("repro-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    (out, dir)
}

/// `churn` is a correctness gate, not a stopwatch: the smoke profile
/// exits 0 on digest identity alone, prints no rate or speedup, and the
/// JSON it writes carries no wall-clock or host field.
#[test]
fn churn_smoke_is_an_untimed_gate() {
    let (out, dir) = repro_in_scratch("churn", &["churn", "--smoke"]);
    let json = std::fs::read_to_string(dir.join("BENCH_churn.json"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("decision digest identity (arms, pipe counts): OK"),
        "stdout: {stdout}"
    );
    let json = json.expect("BENCH_churn.json written");
    for banned in ["speedup", "setups/s", "_per_sec", "_ns\"", "host_"] {
        assert!(!stdout.contains(banned), "'{banned}' in stdout: {stdout}");
        assert!(!json.contains(banned), "'{banned}' in json: {json}");
    }
    assert!(json.contains("\"digests_match_arms\": true"), "{json}");
    assert!(json.contains("\"digests_match_pipes\": true"), "{json}");
    assert!(json.contains("\"pcc_violations\": 0"), "{json}");
}

/// `churn --flood` is pass/fail: the filter sheds, state stays bounded,
/// background PCC holds — and no JSON is written.
#[test]
fn churn_flood_smoke_passes_and_writes_nothing() {
    let (out, dir) = repro_in_scratch("flood", &["churn", "--smoke", "--flood"]);
    let wrote = dir.join("BENCH_churn.json").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("filter overflow drops"), "stdout: {stdout}");
    assert!(!wrote, "flood must not write BENCH_churn.json");
}
