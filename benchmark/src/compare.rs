//! `compare A.json B.json`: the repeatability check between two suite
//! results. Deterministic metrics and counts must match exactly;
//! end-to-end metrics must agree within their own bound; the other
//! wall-clock metrics are printed with their difference, for the reader.

use crate::json::{self, Value};
use crate::metrics::{self, Better};

/// How one metric of two results relates.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Deterministic and identical.
    Exact,
    /// Deterministic and different: a failure.
    ExactDiffers,
    /// Wall-clock, within its bound (or carrying none).
    Within,
    /// Wall-clock, beyond its bound: a failure.
    Beyond,
}

/// `(b − a) ÷ a`, or 0 when both are 0.
fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        (b - a) / a.abs()
    }
}

fn judge(def: &metrics::MetricDef, a: f64, b: f64) -> Verdict {
    if def.exact {
        if a == b {
            Verdict::Exact
        } else {
            Verdict::ExactDiffers
        }
    } else {
        match def.bound {
            Some(bound) if rel_diff(a, b).abs() > bound => Verdict::Beyond,
            _ => Verdict::Within,
        }
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric(workload: &Value, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compare two suite result files; `Ok(false)` when they disagree.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    for (name, _) in metrics::WORKLOADS {
        let (Some(wa), Some(wb)) = (
            a.get("workloads").and_then(|w| w.get(name)),
            b.get("workloads").and_then(|w| w.get(name)),
        ) else {
            println!("{name}: missing from one of the results");
            ok = false;
            continue;
        };
        println!("{name}");
        for key in ["input_hash", "first_unit_digest"] {
            if wa.get(key) != wb.get(key) {
                println!("  {key:<34} DIFFERS (different seed or inputs?)");
                ok = false;
            }
        }
        for def in metrics::END_TO_END.iter().chain(metrics::PER_LAYER.iter()) {
            let (Some(va), Some(vb)) = (metric(wa, def.name), metric(wb, def.name)) else {
                println!("  {:<34} missing from one of the results", def.name);
                ok = false;
                continue;
            };
            let verdict = judge(def, va, vb);
            let bound = match def.bound {
                Some(bd) => format!("bound {:>4.0} %", bd * 100.0),
                None if def.exact => "exact".to_string(),
                None => "no bound".to_string(),
            };
            let mark = match verdict {
                Verdict::Exact | Verdict::Within => "",
                Verdict::ExactDiffers => "  <-- MUST MATCH EXACTLY",
                Verdict::Beyond => "  <-- BEYOND ITS BOUND",
            };
            let diff = rel_diff(va, vb);
            let improved = match def.better {
                Better::Higher => diff > 0.0,
                Better::Lower => diff < 0.0,
            };
            let direction = match (diff == 0.0, improved) {
                (true, _) => "same",
                (false, true) => "better",
                (false, false) => "worse",
            };
            println!(
                "  {:<34} {:>16.4} {:>16.4} {:>+9.2} % {direction:<6}  {bound}{mark}",
                def.name,
                va,
                vb,
                diff * 100.0
            );
            ok &= matches!(verdict, Verdict::Exact | Verdict::Within);
        }
    }
    println!(
        "compare: {}",
        if ok {
            "results agree"
        } else {
            "RESULTS DISAGREE"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_metrics_must_match_and_bounded_ones_stay_in_bound() {
        let exact = metrics::find("sram_bytes_per_conn").unwrap();
        assert_eq!(judge(exact, 3.5, 3.5), Verdict::Exact);
        assert_eq!(judge(exact, 3.5, 3.500_001), Verdict::ExactDiffers);
        let pps = metrics::find("pps").unwrap();
        let bound = pps.bound.unwrap();
        assert_eq!(
            judge(pps, 100.0, 100.0 * (1.0 + bound * 0.9)),
            Verdict::Within
        );
        assert_eq!(
            judge(pps, 100.0, 100.0 * (1.0 - bound * 1.1)),
            Verdict::Beyond
        );
        // Per-layer wall-clock metrics carry no bound: reported, never failed.
        let hash = metrics::find("dataplane.hash_ns_per_pkt").unwrap();
        assert_eq!(judge(hash, 10.0, 30.0), Verdict::Within);
    }

    #[test]
    fn relative_difference_handles_zero() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(2.0, 3.0), 0.5);
        assert!(rel_diff(0.0, 1.0).is_infinite());
    }
}
