//! One run of one workload: set-up, the measurement windows, the metric
//! arithmetic, and the three outputs — named metrics for people, a detail
//! file for `suite`/`compare`, and the contract's one-line JSON last.

use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{ratio, Call, Meter};
use crate::workloads::{self, Counters, Layers, Params, Probe, Workload};
use crate::{host, json, RunArgs};
use std::path::Path;
use std::time::Instant;

/// Share of `--seconds` a traced run spends in its untraced window, its
/// traced window, and (split evenly) its layer replays.
const TRACED_RUN_SPLIT: (f64, f64, f64) = (0.3, 0.4, 0.3);
/// Layer replays a workload runs at most (sizes each one's time slice).
const REPLAYS: f64 = 8.0;
/// An untraced run sets its workload up at least this many times, and
/// goes on until the set-ups add up to [`SETUP_SAMPLE_SECS`] (or there are
/// [`SETUP_MAX`] of them): `setup_s` is their median. Three is what the
/// million-flow fill, at seconds apiece, gets; a 0.1 s set-up gets some
/// twenty, without which single runs of it spread 10-40 % on this host.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 32;
const SETUP_SAMPLE_SECS: f64 = 2.5;
/// Unit digests kept in a detail file.
const MAX_DIGESTS_WRITTEN: usize = 4_096;

/// A finished window and the counters around it.
struct Window {
    meter: Meter,
    /// Counters when the window began and ended.
    before: Counters,
    after: Counters,
    /// Counters and gauges at the end of the reference prefix.
    reference: (Counters, Probe),
}

/// Run units until the window's time is up and the reference prefix is
/// complete.
fn run_window(w: &mut dyn Workload, seconds: f64, tracing: bool) -> Window {
    let before = w.counters();
    drop(w.take_probe());
    let reference_units = w.reference_units();
    let mut reference = None;
    let mut units = 0;
    let mut meter = Meter::start(seconds, tracing);
    while !meter.expired() || units < reference_units {
        w.run_unit(&mut meter);
        units += 1;
        if units == reference_units {
            reference = Some((w.counters(), w.take_probe()));
        }
    }
    meter.finish();
    Window {
        meter,
        after: w.counters(),
        before,
        reference: reference.expect("the loop runs at least the reference units"),
    }
}

/// Median slice rate of a window, with quartiles and slice count.
fn pps(m: &Meter) -> (f64, f64, f64, usize) {
    let rates = stats::slice_rates(m.full_slices());
    let (q1, q2, q3) = stats::quartiles(&rates);
    (q2, q1, q3, rates.len())
}

fn as_f64(v: &[f32]) -> Vec<f64> {
    v.iter().map(|x| f64::from(*x)).collect()
}

/// The per-layer ledger of a traced run.
fn layer_metrics(
    w: &dyn Workload,
    untraced: &Window,
    traced: &Window,
    layers: &Layers,
) -> MetricSet {
    let mut m = MetricSet::new(&PER_LAYER);
    let (at_ref, probe) = &untraced.reference;
    let base = &untraced.before;
    let d = |f: fn(&Counters) -> u64| f(at_ref).saturating_sub(f(base)) as f64;
    let packets = d(|c| c.stats.packets);
    let per_pkt = |x: f64| ratio(x, packets);
    let mt = &traced.meter;
    let mu = &untraced.meter;
    let oracle = w.oracle();

    // End-to-end figures that only some workloads have.
    let setups = untraced
        .after
        .stats
        .installs
        .saturating_sub(untraced.before.stats.installs);
    m.set("setups_per_s", ratio(setups as f64, mu.wall_seconds()));
    m.set(
        "update_done_sim_us",
        stats::median(&probe.update_done_sim_us),
    );
    m.set(
        "sram_bytes_per_conn",
        ratio(at_ref.sram_bytes as f64, at_ref.conns as f64),
    );
    m.set("failed_frac", oracle.failed_frac());

    m.set(
        "wire.parse_ns_per_frame",
        mt.total(Call::ParseFrame).ns_per_item(),
    );
    m.set(
        "wire.rewrite_ns_per_frame",
        mt.total(Call::RewriteFrame).ns_per_item(),
    );
    m.set(
        "wire.pcap_read_ns_per_frame",
        mt.total(Call::PcapRead).ns_per_item(),
    );
    m.set("wire.parse_errors", oracle.parse_errors as f64);
    m.set("wire.checksum_failures", oracle.checksum_failures as f64);

    let engine = layers.steer_ns > 0.0;
    m.set("engine.steer_ns_per_pkt", layers.steer_ns);
    if engine {
        let per_pipe: Vec<f64> = at_ref
            .pipe_packets
            .iter()
            .zip(&base.pipe_packets)
            .map(|(a, b)| a.saturating_sub(*b) as f64)
            .collect();
        let mean = per_pipe.iter().sum::<f64>() / per_pipe.len().max(1) as f64;
        let max = per_pipe.iter().copied().fold(0.0, f64::max);
        m.set("engine.pipe_imbalance", ratio(max, mean));
    }
    m.set("engine.ring_hop_ns", layers.ring_hop_ns);
    m.set(
        "engine.stream_call_ns_per_pkt",
        mt.total(Call::StreamBatch).ns_per_item(),
    );
    m.set(
        "engine.drain_wait_ns",
        mt.total(Call::StreamDrain).ns_per_call(),
    );
    m.set("engine.workers", w.workers() as f64);

    m.set("dataplane.hash_ns_per_pkt", layers.hash_ns);
    m.set("dataplane.bloom_hash_ns_per_key", layers.bloom_hash_ns);

    let hit_frac = per_pkt(d(|c| c.stats.conn_table_hits));
    let miss_frac = per_pkt(d(|c| c.stats.vip_table_misses));
    m.set("conn_table.locate_ns_per_probe", layers.locate_ns);
    m.set("conn_table.resolve_ns_per_hit", layers.resolve_ns);
    m.set("conn_table.install_ns_per_entry", layers.install_ns);
    m.set("conn_table.remove_ns_per_entry", layers.remove_ns);
    m.set("conn_table.moves_per_install", layers.moves_per_install);
    m.set("conn_table.overflows", d(|c| c.stats.conn_table_overflows));
    m.set("conn_table.hit_frac", hit_frac);
    m.set(
        "conn_table.false_hit_frac",
        per_pkt(d(|c| c.stats.digest_false_hits)),
    );
    m.set(
        "conn_table.load_factor",
        ratio(at_ref.conns as f64, at_ref.capacity as f64),
    );
    m.set("conn_table.host_bytes_per_slot", layers.host_bytes_per_slot);

    m.set("vip_table.lookup_ns_per_pkt", layers.vip_lookup_ns);
    m.set("pool.select_ns_per_pkt", layers.pool_select_ns);

    m.set("transit.record_ns", layers.transit_record_ns);
    m.set("transit.check_ns", layers.transit_check_ns);
    m.set("transit.fill_peak", probe.transit_fill_peak);
    m.set(
        "transit.syn_redirects",
        d(|c| c.stats.transit_syn_redirects),
    );

    let advance = mt.total(Call::Advance);
    m.set("control.advance_ns_per_call", advance.ns_per_call());
    m.set(
        "control.advance_busy_frac",
        ratio(advance.ns as f64, mt.wall_seconds() * 1e9),
    );
    let depth: Vec<f64> = probe.learn_depth.iter().map(|x| f64::from(*x)).collect();
    m.set("control.learn_depth_p50", stats::median(&depth));
    m.set(
        "control.learn_depth_max",
        depth.iter().copied().fold(0.0, f64::max),
    );
    m.set(
        "control.learn_overflow_drops",
        d(|c| c.learn_overflow_drops),
    );
    m.set("control.installs", d(|c| c.stats.installs));
    m.set(
        "control.installs_skipped_closed",
        d(|c| c.stats.installs_skipped_closed),
    );

    m.set(
        "update.request_ns",
        mt.total(Call::RequestUpdate).ns_per_call(),
    );
    m.set(
        "update.done_sim_us_max",
        probe.update_done_sim_us.iter().copied().fold(0.0, f64::max),
    );
    m.set("update.queued", d(|c| c.stats.updates_queued));
    m.set("update.noop", d(|c| c.stats.updates_noop));
    m.set("version.live_peak", probe.version_live_peak as f64);
    m.set("version.exhaustions", d(|c| c.stats.version_exhaustions));
    m.set(
        "switch.fallback_entries_peak",
        probe.fallback_entries_peak as f64,
    );

    let composed = mu.busy_ns_per_pkt();
    let batch_ns = as_f64(&mu.batch_ns);
    m.set("switch.ns_per_pkt", composed);
    m.set("switch.batch_ns_p50", stats::median(&batch_ns));
    // 0 when the window held too few batches for ten beyond p99; the
    // sample count is `batch_samples` in the detail file.
    m.set("switch.batch_ns_p99", stats::p99(&batch_ns).unwrap_or(0.0));
    m.set(
        "switch.close_ns_per_conn",
        mt.total(Call::CloseConnection).ns_per_item(),
    );
    m.set("switch.miss_frac", miss_frac);

    // The ledger: each replayed layer weighted by how often a packet of
    // this workload takes it, against the composed path. Every packet is
    // hashed, admitted (VIPTable lookup) and located; the pool resolve
    // replay repeats the admission lookup, so only its remainder is added
    // for the packets that miss.
    let blooms = d(|c| c.transit_recorded) + d(|c| c.transit_checks);
    let ring_hop_per_pkt = if w.workers() > 0 {
        layers.ring_hop_ns / crate::gen::BATCH as f64
    } else {
        0.0
    };
    let sum = layers.hash_ns
        + layers.locate_ns
        + hit_frac * layers.resolve_ns
        + layers.vip_lookup_ns
        + miss_frac * (layers.pool_select_ns - layers.vip_lookup_ns).max(0.0)
        + per_pkt(d(|c| c.stats.installs)) * layers.install_ns
        + per_pkt(d(|c| c.stats.closes)) * layers.remove_ns
        + per_pkt(blooms) * layers.bloom_hash_ns
        + per_pkt(d(|c| c.transit_recorded)) * layers.transit_record_ns
        + per_pkt(d(|c| c.transit_checks)) * layers.transit_check_ns
        + mt.total(Call::PcapRead).ns_per_item()
        + mt.total(Call::ParseFrame).ns_per_item()
        + mt.total(Call::RewriteFrame).ns_per_item()
        + layers.steer_ns
        + ring_hop_per_pkt;
    m.set("switch.sum_layers_ns_per_pkt", sum);
    m.set("switch.residual_ns_per_pkt", composed - sum);

    m.set("trace.spans", mt.spans().len() as f64);
    m.set("trace.overhead_frac", 1.0 - ratio(pps(mt).0, pps(mu).0));
    m
}

fn hex_list(v: &[u64]) -> String {
    let items: Vec<String> = v
        .iter()
        .take(MAX_DIGESTS_WRITTEN)
        .map(|d| format!("\"{d:016x}\""))
        .collect();
    format!("[{}]", items.join(", "))
}

/// What one run measured, before anything is printed or written. The
/// workload itself is gone by now (its workers stopped and joined); what
/// the report needs of it is copied here.
pub struct Outcome {
    pub metrics: MetricSet,
    /// Extra members for the detail file's `"detail"` object.
    detail: String,
    /// The traced window's spans (empty in an untraced run).
    spans: Vec<crate::trace::Span>,
    /// The oracle's counters.
    verdict: crate::oracle::Oracle,
    unit_digests: Vec<u64>,
    input_hash: u64,
    workers: usize,
}

impl Outcome {
    /// Every packet judged, and none failed.
    pub fn correct(&self) -> bool {
        self.verdict.failed() == 0 && self.verdict.attempted > 0
    }

    fn of(
        w: Box<dyn Workload>,
        metrics: MetricSet,
        detail: String,
        spans: Vec<crate::trace::Span>,
    ) -> Outcome {
        Outcome {
            metrics,
            detail,
            spans,
            verdict: w.oracle().tally(),
            unit_digests: w.unit_digests().to_vec(),
            input_hash: w.input_hash(),
            workers: w.workers(),
        }
    }
}

/// Set a workload up and measure it: the windows, then the metric
/// arithmetic. Touches no file.
pub fn measure(args: &RunArgs) -> Result<Outcome, String> {
    let p = Params {
        seed: args.seed,
        scale: if args.smoke { 16 } else { 1 },
    };
    let name = args.workload.as_str();
    let t0 = Instant::now();
    let mut w = workloads::build(name, p)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];

    if args.trace {
        let (share_u, share_t, share_r) = TRACED_RUN_SPLIT;
        let untraced = run_window(&mut *w, args.seconds * share_u, false);
        let traced = run_window(&mut *w, args.seconds * share_t, true);
        let layers = w.replay_layers(args.seconds * share_r / REPLAYS);
        let metrics = layer_metrics(&*w, &untraced, &traced, &layers);
        let detail = format!(
            "\"batch_samples\": {}, \"traced_packets\": {}, \"untraced_packets\": {}",
            untraced.meter.batch_ns.len(),
            traced.meter.packets,
            untraced.meter.packets
        );
        let spans = traced.meter.spans().to_vec();
        return Ok(Outcome::of(w, metrics, detail, spans));
    }

    let window = run_window(&mut *w, args.seconds, false);
    // Peak RSS of one set-up and the window, read before the set-up
    // repeats below: how much memory the allocator hangs on to across
    // builds and drops is its business, not the workload's.
    let peak_rss = host::peak_rss_bytes();
    let (rate, q1, q3, slices) = pps(&window.meter);
    let pkt_ns = as_f64(&window.meter.pkt_ns);
    let mut metrics = MetricSet::new(&END_TO_END);
    metrics.set("pps", rate);
    metrics.set("pkt_ns_p50", stats::median(&pkt_ns));
    metrics.set("peak_rss_mb", peak_rss as f64 / 1e6);
    let detail = format!(
        "\"pps_q1\": {}, \"pps_q3\": {}, \"slices\": {slices}, \"pkt_ns_samples\": {}, \"packets\": {}, \"wall_s\": {}",
        json::num(q1),
        json::num(q3),
        pkt_ns.len(),
        window.meter.packets,
        json::num(window.meter.wall_seconds()),
    );
    let mut outcome = Outcome::of(w, metrics, detail, Vec::new());

    // `setup_s` is a median over several set-ups; the first was the
    // measured one, the rest are built and dropped here, one table in
    // memory at a time. A smoke run has no time for them.
    let more = |s: &[f64]| {
        s.len() < SETUP_MIN || (s.len() < SETUP_MAX && s.iter().sum::<f64>() < SETUP_SAMPLE_SECS)
    };
    while !args.smoke && more(&setup_s) {
        let t0 = Instant::now();
        let again = workloads::build(name, p)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(again);
    }
    outcome.metrics.set("setup_s", stats::median(&setup_s));
    let samples: Vec<String> = setup_s.iter().map(|s| json::num(*s)).collect();
    outcome.detail += &format!(", \"setup_s_samples\": [{}]", samples.join(", "));
    Ok(outcome)
}

/// Run one workload as the contract asks: every metric by name with its
/// unit, the detail (and trace) file, and the result line last. Returns
/// whether the outputs were correct.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let outcome = measure(args)?;
    let name = args.workload.as_str();
    let out_dir = crate::out_dir();
    let Outcome {
        metrics,
        detail,
        spans,
        verdict: oracle,
        unit_digests,
        input_hash,
        workers,
    } = &outcome;
    let correct = outcome.correct();

    println!(
        "{name}  seed {}  trace {}  {} s{}",
        args.seed,
        u8::from(args.trace),
        args.seconds,
        if args.smoke {
            "  (smoke: 1/16 size)"
        } else {
            ""
        }
    );
    for (def, v) in metrics.iter() {
        // A fraction like 1e-6 must not print as 0.0000.
        if v != 0.0 && v.abs() < 1e-3 {
            println!("  {:<34} {:>16.4e} {}", def.name, v, def.unit);
        } else {
            println!("  {:<34} {:>16.4} {}", def.name, v, def.unit);
        }
    }
    println!(
        "  attempted {}  failed {} (pcc {}, unresolved {}, parse {}, checksum {}, digest-mismatch {}, repeated {})  units {}  inputs {:016x}",
        oracle.attempted,
        oracle.failed(),
        oracle.pcc_violations,
        oracle.unresolved,
        oracle.parse_errors,
        oracle.checksum_failures,
        oracle.digest_mismatch_packets,
        oracle.repeated_failures,
        unit_digests.len(),
        input_hash
    );

    if args.trace {
        let path = out_dir.join(format!("trace-{name}.json"));
        crate::trace::write_trace(&path, name, spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let detail_path = out_dir.join(format!("run-{name}-trace{}.json", u8::from(args.trace)));
    let doc = format!(
        "{{\"workload\": {}, \"trace\": {}, \"seconds\": {}, \"smoke\": {}, \"host\": {},\n\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"input_hash\": \"{:016x}\", \"workers\": {},\n\"unit_digests\": {},\n\"detail\": {{{detail}}},\n\"metrics\": {}}}\n",
        json::quote(name),
        u8::from(args.trace),
        json::num(args.seconds),
        args.smoke,
        host::record_json(args.seed, Path::new(".")),
        oracle.attempted,
        oracle.failed(),
        input_hash,
        workers,
        hex_list(unit_digests),
        metrics.to_json(),
    );
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&detail_path, doc))
        .map_err(|e| format!("writing {}: {e}", detail_path.display()))?;

    // The contract's result: the last line of standard output.
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        oracle.attempted,
        oracle.failed(),
        metrics.to_json()
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    fn smoke(workload: &str, trace: bool) -> Outcome {
        measure(&RunArgs {
            workload: workload.into(),
            seed: 3,
            seconds: 0.05,
            trace,
            smoke: true,
        })
        .expect("a smoke run completes")
    }

    /// Every workload, both modes, at smoke size: the oracle passes and
    /// the run emits exactly the contract's metric list.
    #[test]
    fn every_workload_reports_every_metric_and_passes_its_oracle() {
        for (name, _) in WORKLOADS {
            let untraced = smoke(name, false);
            assert!(untraced.correct(), "{name}: oracle failed untraced");
            let names: Vec<&str> = untraced.metrics.iter().map(|(d, _)| d.name).collect();
            let table: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
            assert_eq!(names, table);
            for (def, v) in untraced.metrics.iter() {
                assert!(v > 0.0, "{name}: end-to-end metric {} is {v}", def.name);
            }

            let traced = smoke(name, true);
            assert!(traced.correct(), "{name}: oracle failed traced");
            let names: Vec<&str> = traced.metrics.iter().map(|(d, _)| d.name).collect();
            let table: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
            assert_eq!(names, table);
            assert!(
                !traced.spans.is_empty(),
                "{name}: traced run recorded no spans"
            );
            assert_eq!(traced.metrics.get("failed_frac"), 0.0);
            assert!(traced.metrics.get("switch.ns_per_pkt") > 0.0);
            assert!(traced.metrics.get("switch.sum_layers_ns_per_pkt") > 0.0);
            assert_eq!(traced.metrics.get("trace.spans"), traced.spans.len() as f64);
        }
    }

    /// The deterministic metrics are counted over a fixed prefix of the
    /// packet stream, so two runs of one seed agree on them exactly even
    /// though their windows end at different packets.
    #[test]
    fn exact_metrics_repeat_for_a_seed() {
        for name in ["churn", "update-mix", "replay"] {
            let (a, b) = (smoke(name, true), smoke(name, true));
            for ((def, va), (_, vb)) in a.metrics.iter().zip(b.metrics.iter()) {
                if def.exact {
                    assert_eq!(va, vb, "{name}: {} differs between runs", def.name);
                }
            }
        }
    }
}
