//! `suite`: every workload untraced (end-to-end metrics) and again traced
//! (per-layer metrics), one child process per run so each run's peak RSS
//! is its own. Children run one after another; the suite itself only
//! waits, so it adds no runnable thread.
//!
//! The untraced runs are made in [`ROUNDS`] rounds over all six workloads
//! and each end-to-end metric is the median of its rounds: this host slows
//! by 1.3-1.5x for about a minute at a time, a round takes longer than
//! that, so a workload's runs land in different stretches and the median
//! drops the one that was hit.

use crate::json::{self, Value};
use crate::{host, metrics, out_dir, stats, RunArgs};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Untraced runs per workload in a full suite (a smoke suite makes one).
const ROUNDS: usize = 3;

/// Run one child and return its parsed detail file.
fn run_child(args: &RunArgs, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child; its output goes straight through.
    let status = cmd
        .status()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {status}",
            u8::from(trace)
        ));
    }
    let path = detail_path(workload, trace);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn detail_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

fn digests(doc: &Value) -> Vec<&str> {
    doc.get("unit_digests")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_str)
        .collect()
}

/// Both runs start from the same state and see the same packet stream, so
/// unit *k* of one must produce the digest of unit *k* of the other —
/// traced or not. Compared over the units both runs reached.
fn digests_agree(untraced: &Value, traced: &Value) -> bool {
    let (a, b) = (digests(untraced), digests(traced));
    let n = a.len().min(b.len());
    n > 0 && a[..n] == b[..n]
}

fn metric_value(doc: &Value, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// The metrics of `docs` (runs of one workload in one mode) as the members
/// of a `"metrics"` object: each value the median over the runs.
fn metrics_json(docs: &[Value]) -> String {
    let body: Vec<String> = docs[0]
        .get("metrics")
        .map(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, m)| {
            let values: Vec<f64> = docs.iter().map(|d| metric_value(d, name)).collect();
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(stats::median(&values)),
                json::quote(m.get("unit").and_then(Value::as_str).unwrap_or(""))
            )
        })
        .collect();
    body.join(", ")
}

/// Every round's value of every end-to-end metric, for the reader of the
/// result file: `"pps": [a, b, c], ...`.
fn rounds_json(docs: &[Value]) -> String {
    let body: Vec<String> = metrics::END_TO_END
        .iter()
        .map(|def| {
            let values: Vec<String> = docs
                .iter()
                .map(|d| json::num(metric_value(d, def.name)))
                .collect();
            format!("{}: [{}]", json::quote(def.name), values.join(", "))
        })
        .collect();
    body.join(", ")
}

/// Run the whole suite; `Ok(false)` when any oracle or digest check failed.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let mut all_ok = true;
    let mut entries = Vec::new();
    let mut untraced_runs = vec![Vec::new(); metrics::WORKLOADS.len()];
    for _ in 0..if args.smoke { 1 } else { ROUNDS } {
        for ((workload, _), runs) in metrics::WORKLOADS.iter().zip(&mut untraced_runs) {
            runs.push(run_child(args, workload, false)?);
        }
    }
    for ((workload, _), untraced) in metrics::WORKLOADS.iter().zip(&untraced_runs) {
        let traced = run_child(args, workload, true)?;
        let correct = |d: &Value| d.get("correct").and_then(Value::as_bool) == Some(true);
        let same_inputs = untraced
            .iter()
            .all(|u| u.get("input_hash") == traced.get("input_hash"));
        let agree = untraced.iter().all(|u| digests_agree(u, &traced));
        let ok = untraced.iter().all(correct) && correct(&traced) && same_inputs && agree;
        println!(
            "{workload}: {}  (traced and untraced digests {}, inputs {})",
            if ok { "ok" } else { "FAILED" },
            if agree { "agree" } else { "DIFFER" },
            if same_inputs { "identical" } else { "DIFFER" }
        );
        for def in &metrics::END_TO_END {
            let values: Vec<f64> = untraced.iter().map(|u| metric_value(u, def.name)).collect();
            println!(
                "  {:<34} {:>16.4} {}  (median of {} untraced runs)",
                def.name,
                stats::median(&values),
                def.unit,
                values.len()
            );
        }
        println!();
        all_ok &= ok;
        let count = |k: &str| -> f64 {
            untraced
                .iter()
                .chain([&traced])
                .map(|d| d.get(k).and_then(Value::as_f64).unwrap_or(0.0))
                .sum()
        };
        entries.push(format!(
            "{}: {{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"digests_agree\": {agree}, \"input_hash\": {}, \"first_unit_digest\": {},\n  \"rounds\": {{{}}},\n  \"metrics\": {{{}, {}}}}}",
            json::quote(workload),
            count("attempted"),
            count("failed"),
            json::quote(traced.get("input_hash").and_then(Value::as_str).unwrap_or("")),
            json::quote(digests(&traced).first().copied().unwrap_or("")),
            rounds_json(untraced),
            metrics_json(untraced),
            metrics_json(std::slice::from_ref(&traced)),
        ));
    }
    let path = out_dir().join(format!(
        "result-seed{}{}.json",
        args.seed,
        if args.smoke { "-smoke" } else { "" }
    ));
    let doc = format!(
        "{{\"host\": {}, \"smoke\": {}, \"seconds\": {}, \"correct\": {all_ok},\n\"workloads\": {{\n{}\n}}}}\n",
        host::record_json(args.seed, Path::new(".")),
        args.smoke,
        json::num(args.seconds),
        entries.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "suite {}: results in {}",
        if all_ok { "ok" } else { "FAILED" },
        path.display()
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(digests: &[&str]) -> Value {
        let list: Vec<String> = digests.iter().map(|d| json::quote(d)).collect();
        json::parse(&format!("{{\"unit_digests\": [{}]}}", list.join(","))).unwrap()
    }

    #[test]
    fn end_to_end_metrics_are_medians_over_the_rounds() {
        let run = |pps: f64| {
            json::parse(&format!(
                "{{\"metrics\": {{\"pps\": {{\"value\": {pps}, \"unit\": \"pkt/s\"}}}}}}"
            ))
            .unwrap()
        };
        let rounds = [run(3.0), run(1.0), run(2.0)];
        let doc = json::parse(&format!("{{{}}}", metrics_json(&rounds))).unwrap();
        let pps = doc.get("pps").unwrap();
        assert_eq!(pps.get("value").and_then(Value::as_f64), Some(2.0));
        assert_eq!(pps.get("unit").and_then(Value::as_str), Some("pkt/s"));
        let listed = json::parse(&format!("{{{}}}", rounds_json(&rounds))).unwrap();
        let values: Vec<f64> = listed
            .get("pps")
            .unwrap()
            .as_arr()
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        assert_eq!(values, [3.0, 1.0, 2.0]);
    }

    #[test]
    fn digests_compare_over_the_common_prefix() {
        assert!(digests_agree(&doc(&["a", "b", "c"]), &doc(&["a", "b"])));
        assert!(!digests_agree(&doc(&["a", "b", "c"]), &doc(&["a", "x"])));
        assert!(
            !digests_agree(&doc(&[]), &doc(&["a"])),
            "no units is no proof"
        );
    }
}
