//! The repo benchmark driver. One process, closed loop: batch *n + 1* is
//! submitted when batch *n* returns (simulated time is virtual, so an
//! offered rate would mean nothing). Every number is taken from outside
//! the crates under test, by timing calls into their public functions.
//!
//! ```text
//! sr-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run (the contract)
//! sr-benchmark suite [--seed N] [--seconds S] [--smoke]                  all six, untraced + traced
//! sr-benchmark compare A.json B.json                                     two suite results
//! ```
//!
//! `benchmark/run.sh` builds this offline and forwards its arguments.

// The repo's clippy.toml bans wall-clock reads because the model crates
// must be deterministic; reading the wall clock is this package's job.
#![allow(clippy::disallowed_methods)]

mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod metrics;
mod oracle;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Where runs leave their detail and trace files: `benchmark/out` under
/// the checkout root the contract (and `run.sh`) runs the benchmark from,
/// or `out` when started inside the package directory (`cargo run`,
/// `cargo test`). Either way the same, ignored, directory.
pub fn out_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}

/// One run's command line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parse `--workload W --seed N --seconds S --trace 0|1 [--smoke]` in any
/// order; `workload_required` is off for `suite`, which supplies its own.
fn parse_run_args(args: &[String], workload_required: bool) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => out.workload = value(args, &mut i, "--workload")?.to_string(),
            "--seed" => {
                out.seed = value(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                out.seconds = value(args, &mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?
            }
            "--trace" => {
                out.trace = match value(args, &mut i, "--trace")? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if out.seconds == 0.0 {
        out.seconds = if out.smoke { 0.4 } else { 10.0 };
    }
    if workload_required && !metrics::WORKLOADS.iter().any(|(n, _)| *n == out.workload) {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "--workload must be one of {}; got {:?}",
            names.join(", "),
            out.workload
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("suite") => parse_run_args(&args[1..], false).and_then(|a| suite::run(&a)),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("compare takes two result files".into()),
        },
        // A single run exits 0 once it has printed its result line, as the
        // contract asks; `correct` in that line says whether it passed.
        _ => parse_run_args(&args, true)
            .and_then(|a| report::run(&a))
            .map(|_| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn contract_command_line_parses_in_any_order() {
        let a = parse_run_args(
            &args("--workload churn --seed 7 --seconds 10 --trace 1"),
            true,
        )
        .unwrap();
        assert_eq!(
            a,
            RunArgs {
                workload: "churn".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
                smoke: false
            }
        );
        let b = parse_run_args(&args("--trace 0 --smoke --workload hit-1m"), true).unwrap();
        assert_eq!((b.seed, b.seconds, b.trace, b.smoke), (1, 0.4, false, true));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope --trace 0",
            "--workload churn --trace 2",
            "--workload churn --seconds 0",
            "--workload churn --seconds 600",
            "--workload churn --seed x",
            "--workload",
            "--frobnicate",
            "",
        ] {
            assert!(
                parse_run_args(&args(bad), true).is_err(),
                "accepted {bad:?}"
            );
        }
        assert!(parse_run_args(&args("--seed 3"), false).is_ok());
    }
}
