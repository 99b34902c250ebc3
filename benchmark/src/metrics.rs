//! The benchmark's vocabulary: workload names, metric names, units,
//! direction and regression bounds. `BENCHMARK.json` at the repo root is
//! the contract copy of these tables; a unit test holds the two equal.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// The contract's spelling.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the ledger.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics (they carry no bound).
    pub bound: Option<f64>,
    /// Deterministic for a fixed seed and host: a count, a simulated time
    /// or a ratio of counts, taken over a fixed prefix of the packet
    /// stream. `--compare` requires these to match exactly.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn wall(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "hit-64k",
        "65536 established flows, permuted data packets: the cache-resident hit path every legacy bench measured",
    ),
    (
        "hit-1m",
        "same code path over 1048576 flows: probes miss cache, so layout/prefetch changes move this and not hit-64k",
    ),
    (
        "churn",
        "waves of 1024 new connections (SYN, retransmits, install, data, FIN/close): the miss path and cuckoo writes beside reads",
    ),
    (
        "update-mix",
        "65536 flows plus arrivals while DIP pools change every 8 rounds: 3-step update, version ring and transit bloom do real work",
    ),
    (
        "replay",
        "in-memory pcap of min-size v4/v6 frames, parse to 2-pipe switch to NAT rewrite: only workload where sr_wire and steering weigh",
    ),
    (
        "stream-64k",
        "hit-64k trace through the threaded engine: ring hop, batch hand-off and steer/worker overlap that hit-64k bypasses",
    ),
];

/// Metrics a user of the switch would see, reported by every workload
/// with `--trace 0`.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("pps", "pkt/s", Higher, 0.25),
    e2e("pkt_ns_p50", "ns", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Metrics of single layers (module names), reported by every workload
/// with `--trace 1`; a layer off a workload's path reports 0.
pub const PER_LAYER: [MetricDef; 56] = [
    // End-to-end figures that exist only on some workloads (or are 0 when
    // all is well), so the contract cannot carry them as bounded metrics.
    wall("setups_per_s", "1/s", Higher),
    exact("update_done_sim_us", "us", Lower),
    exact("sram_bytes_per_conn", "B", Lower),
    exact("failed_frac", "frac", Lower),
    wall("wire.parse_ns_per_frame", "ns", Lower),
    wall("wire.rewrite_ns_per_frame", "ns", Lower),
    wall("wire.pcap_read_ns_per_frame", "ns", Lower),
    exact("wire.parse_errors", "count", Lower),
    exact("wire.checksum_failures", "count", Lower),
    wall("engine.steer_ns_per_pkt", "ns", Lower),
    exact("engine.pipe_imbalance", "ratio", Lower),
    wall("engine.ring_hop_ns", "ns", Lower),
    wall("engine.stream_call_ns_per_pkt", "ns", Lower),
    wall("engine.drain_wait_ns", "ns", Lower),
    exact("engine.workers", "count", Higher),
    wall("dataplane.hash_ns_per_pkt", "ns", Lower),
    wall("dataplane.bloom_hash_ns_per_key", "ns", Lower),
    wall("conn_table.locate_ns_per_probe", "ns", Lower),
    wall("conn_table.resolve_ns_per_hit", "ns", Lower),
    wall("conn_table.install_ns_per_entry", "ns", Lower),
    wall("conn_table.remove_ns_per_entry", "ns", Lower),
    exact("conn_table.moves_per_install", "ratio", Lower),
    exact("conn_table.overflows", "count", Lower),
    exact("conn_table.hit_frac", "frac", Higher),
    exact("conn_table.false_hit_frac", "frac", Lower),
    exact("conn_table.load_factor", "frac", Higher),
    wall("conn_table.host_bytes_per_slot", "B", Lower),
    wall("vip_table.lookup_ns_per_pkt", "ns", Lower),
    wall("pool.select_ns_per_pkt", "ns", Lower),
    wall("transit.record_ns", "ns", Lower),
    wall("transit.check_ns", "ns", Lower),
    exact("transit.fill_peak", "frac", Lower),
    exact("transit.syn_redirects", "count", Lower),
    wall("control.advance_ns_per_call", "ns", Lower),
    wall("control.advance_busy_frac", "frac", Lower),
    exact("control.learn_depth_p50", "count", Lower),
    exact("control.learn_depth_max", "count", Lower),
    exact("control.learn_overflow_drops", "count", Lower),
    exact("control.installs", "count", Higher),
    exact("control.installs_skipped_closed", "count", Lower),
    wall("update.request_ns", "ns", Lower),
    exact("update.done_sim_us_max", "us", Lower),
    exact("update.queued", "count", Lower),
    exact("update.noop", "count", Lower),
    exact("version.live_peak", "count", Lower),
    exact("version.exhaustions", "count", Lower),
    exact("switch.fallback_entries_peak", "count", Lower),
    wall("switch.ns_per_pkt", "ns", Lower),
    wall("switch.batch_ns_p50", "ns", Lower),
    wall("switch.batch_ns_p99", "ns", Lower),
    wall("switch.close_ns_per_conn", "ns", Lower),
    exact("switch.miss_frac", "frac", Lower),
    wall("switch.sum_layers_ns_per_pkt", "ns", Lower),
    wall("switch.residual_ns_per_pkt", "ns", Lower),
    wall("trace.spans", "count", Lower),
    wall("trace.overhead_frac", "frac", Lower),
];

/// Definition of `name`, end-to-end or per-layer.
#[cfg(test)]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// The values of one run, filled by name and emitted in table order.
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl MetricSet {
    pub fn new(defs: &'static [MetricDef]) -> MetricSet {
        MetricSet {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Record `value` under `name`. Panics on a name outside the table: a
    /// misspelt metric is a bug in the driver, caught by the smoke tests.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .map_or(0.0, |i| self.values[i])
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// The contract's `"metrics"` object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .iter()
            .map(|(d, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    crate::json::quote(d.name),
                    crate::json::num(v),
                    crate::json::quote(d.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (w, why) in WORKLOADS {
            assert!(name_ok(w, 64, "_.-"), "workload name {w}");
            assert!(w.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {w}");
            assert!(seen.insert(w), "duplicate name {w}");
        }
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(d.name, 64, "_.-"), "metric name {}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name_ok(d.unit, 16, "_/%.-"), "unit {}", d.unit);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for d in END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    fn check_defs(listed: &Value, defs: &[MetricDef], bounded: bool) {
        let listed = listed.as_arr();
        assert_eq!(listed.len(), defs.len());
        for (j, d) in listed.iter().zip(defs) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(d.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(d.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(d.better.label())
            );
            assert_eq!(j.get("bound").and_then(Value::as_f64), d.bound);
            assert_eq!(j.as_obj().len(), if bounded { 4 } else { 3 });
        }
    }

    #[test]
    fn benchmark_json_equals_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = doc.get("workloads").unwrap().as_arr();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(name));
            assert_eq!(j.get("why").and_then(Value::as_str), Some(why));
        }
        check_defs(doc.get("end_to_end").unwrap(), &END_TO_END, true);
        check_defs(doc.get("per_layer").unwrap(), &PER_LAYER, false);
        let secs = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
        let paths: Vec<&str> = doc
            .get("paths")
            .unwrap()
            .as_arr()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }

    #[test]
    fn metric_set_emits_every_name_in_table_order() {
        let mut m = MetricSet::new(&END_TO_END);
        m.set("pps", 1234.5);
        m.set("setup_s", f64::NAN);
        let doc = parse(&m.to_json()).unwrap();
        let names: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["pps", "pkt_ns_p50", "peak_rss_mb", "setup_s"]);
        assert_eq!(
            doc.get("pps").unwrap().get("value").unwrap().as_f64(),
            Some(1234.5)
        );
        assert_eq!(m.get("setup_s"), 0.0);
    }
}
