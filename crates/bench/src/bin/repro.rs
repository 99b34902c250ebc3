//! `repro` — regenerate every table and figure of the SilkRoad evaluation.
//!
//! ```text
//! cargo run --release -p sr-bench --bin repro -- all
//! cargo run --release -p sr-bench --bin repro -- fig16 [--full] [--jobs N]
//! ```
//!
//! `--full` runs the simulation-backed figures at paper scale (2.77 M new
//! connections/min for one hour per data point) — expect long runtimes.
//!
//! `--jobs N` fans each figure's independent simulation jobs (and
//! `fleet`'s clusters) across N worker threads (default: available
//! cores). Results are reduced in job order, so stdout is byte-identical
//! for every N; per-figure wall-clock goes to stderr, which is the only
//! output that differs.
//!
//! The target comes first. Each target owns its flags ([`TARGETS`]); `--jobs`
//! is accepted by all of them, any other flag the target does not read is
//! a usage error (exit 2), and `repro <target> --help` prints the target's
//! usage and runs nothing.

use sr_bench::report::{mb, pct, Table};
use sr_bench::{extras, fig_memory, fig_meta, fig_pcc, fig_version, tables, Scale};
use sr_exec::Exec;
use sr_types::Duration;

/// The evaluation targets, in the order `all` runs them.
const FIGURES: [&str; 20] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "meters",
    "digests",
    "cost",
    "ablations",
    "latency",
];

/// Every target's positional operand and flags. A flag with a
/// placeholder takes a value (`--p4 <file.p4>`); the figures share the
/// `<figure>` row, and every target also reads `--jobs N`.
const TARGETS: [(&str, Option<&str>, &[&str]); 9] = [
    ("help", None, &[]),
    ("all", None, &["--full"]),
    ("<figure>", None, &["--full"]),
    ("check", None, &["--p4 <file.p4>"]),
    ("fleet", None, &["--smoke"]),
    ("churn", None, &["--smoke", "--flood"]),
    ("compare", None, &["--smoke", "--algo <name>"]),
    ("export", Some("<file.pcap>"), &["--smoke"]),
    (
        "replay",
        Some("<file.pcap>"),
        &["--smoke", "--encap", "--pipes N"],
    ),
];

/// What one target reads.
struct Spec {
    operand: Option<&'static str>,
    flags: Vec<&'static str>,
}

impl Spec {
    /// `target`'s row of [`TARGETS`], or `None` for an unknown target.
    fn of(target: &str) -> Option<Spec> {
        let row = if FIGURES.contains(&target) {
            "<figure>"
        } else {
            target
        };
        let &(_, operand, flags) = TARGETS.iter().find(|t| t.0 == row)?;
        let flags = flags.iter().copied().chain(["--jobs N"]).collect();
        Some(Spec { operand, flags })
    }

    /// The usage line, generated from the row so it cannot drift.
    fn usage(&self, target: &str) -> String {
        let mut u = format!("repro {target}");
        if let Some(op) = self.operand {
            u += &format!(" {op}");
        }
        for f in &self.flags {
            u += &format!(" [{f}]");
        }
        u
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parse `--<flag> V` / `--<flag>=V` as a raw string; `None` means
/// "not given". A bare flag with no value is a usage error.
fn parse_value_flag(args: &[String], flag: &str) -> Option<String> {
    let bare = format!("--{flag}");
    let eq = format!("--{flag}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if *a == bare {
            let v = it
                .next()
                .unwrap_or_else(|| usage_error(&format!("{bare} needs a value")));
            return Some(v.clone());
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
    }
    None
}

/// Parse `--<flag> N` / `--<flag>=N`; `None` means "not given".
fn parse_count_flag(args: &[String], flag: &str) -> Option<usize> {
    parse_value_flag(args, flag).map(|v| match v.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => usage_error(&format!("--{flag} wants a positive integer, got '{v}'")),
    })
}

fn print_help() {
    println!("usage: repro <target> [flags]   (repro <target> --help: one target)");
    println!(
        "figures, in the order `all` runs them: {}",
        FIGURES.join(" ")
    );
    for (target, _, _) in TARGETS.iter().filter(|t| t.0 != "help") {
        let spec = Spec::of(target).expect("a TARGETS row");
        println!("  {}", spec.usage(target));
    }
    println!("fleet/churn/compare/export/replay --smoke: the small, CI-sized profile");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => "help",
        Some(t) => t,
    };
    let spec = Spec::of(target)
        .unwrap_or_else(|| usage_error(&format!("unknown target '{target}' — try: repro help")));
    let rest = args.get(1..).unwrap_or_default();
    // Flags are a closed set per target: a misspelled flag, or one meant
    // for another target, must fail loudly rather than silently run the
    // defaults it was meant to override.
    let mut operands: Vec<&str> = Vec::new();
    let mut help = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            operands.push(a);
            continue;
        }
        if a == "--help" || a == "-h" {
            help = true;
            continue;
        }
        let name = a.split_once('=').map_or(a.as_str(), |(n, _)| n);
        match spec
            .flags
            .iter()
            .find(|f| f.split(' ').next() == Some(name))
        {
            Some(f) if f.contains(' ') => {
                if name == a {
                    it.next(); // the value; a missing one is reported below
                }
            }
            Some(_) if name == a => {}
            _ => usage_error(&format!(
                "unknown flag '{a}' for '{target}' — usage: {}",
                spec.usage(target)
            )),
        }
    }
    if target == "help" {
        print_help();
        return;
    }
    if help {
        println!("usage: {}", spec.usage(target));
        return;
    }
    if let Some(extra) = operands.get(spec.operand.is_some() as usize) {
        usage_error(&format!(
            "unexpected argument '{extra}' — usage: {}",
            spec.usage(target)
        ));
    }
    let operand = || {
        operands.first().copied().unwrap_or_else(|| {
            usage_error(&format!(
                "{target} needs {} — usage: {}",
                spec.operand.unwrap_or_default(),
                spec.usage(target)
            ))
        })
    };
    let has = |flag: &str| rest.iter().any(|a| a == flag);
    let exec = match parse_count_flag(rest, "jobs") {
        Some(n) => Exec::new(n),
        None => Exec::available(),
    };
    let scale = if has("--full") {
        Scale::full()
    } else {
        Scale::quick()
    };
    match target {
        "all" => {
            for c in FIGURES {
                run_timed(c, scale, &exec);
                println!();
            }
        }
        // `check` is deliberately not part of `all`: it is the srcheck
        // verification gate (placement reports + pass/fail exit code), not
        // an evaluation figure. `fleet`/`churn`/`compare` write the
        // committed `BENCH_*.json` documents and gate on them;
        // `export`/`replay` take a file argument. All are part of the
        // verification surface, not the figure set.
        "check" => run_check(parse_value_flag(rest, "p4").as_deref()),
        "fleet" => run_fleet(has("--smoke"), &exec),
        "churn" => run_churn(has("--smoke"), has("--flood")),
        "compare" => run_compare(has("--smoke"), parse_value_flag(rest, "algo").as_deref()),
        "export" => run_export(operand(), has("--smoke")),
        "replay" => run_replay(
            operand(),
            parse_count_flag(rest, "pipes").unwrap_or(2),
            has("--smoke"),
            has("--encap"),
        ),
        figure => run_timed(figure, scale, &exec),
    }
}

/// Compile one P4 source through the sr-p4 front-end and print its
/// parse -> semantic -> placement report. Returns `false` if any phase
/// rejects the program: a syntax error, a non-empty SRC101+ diagnostic
/// set, a lowering failure, or an unplaceable srcheck layout.
fn check_p4(label: &str, source: &str, chip: &sr_asic::ChipSpec) -> bool {
    println!("== P4 front-end: {label} ==");
    let program = match sr_p4::parse(source) {
        Ok(p) => p,
        Err(e) => {
            println!("parse     : FAILED");
            println!("{e}");
            return false;
        }
    };
    println!(
        "parse     : OK ({} header(s), {} struct(s), {} parser(s), {} control(s))",
        program.headers.len(),
        program.structs.len(),
        program.parsers.len(),
        program.controls.len()
    );
    let analysis = sr_p4::analyze(&program);
    if !analysis.is_clean() {
        println!("semantic  : {} diagnostic(s)", analysis.diags.len());
        println!("{}", analysis.render());
        return false;
    }
    println!("semantic  : OK (0 diagnostics)");
    let lowered = match sr_p4::lower(&program, &analysis.env) {
        Ok(p) => p,
        Err(e) => {
            println!("lowering  : FAILED");
            println!("{e}");
            return false;
        }
    };
    println!(
        "lowering  : OK ({} table(s), {} register(s), {} dependency edge(s))",
        lowered.tables.len(),
        lowered.registers.len(),
        lowered.deps.len()
    );
    let report = lowered.check(chip);
    println!("{}", report.render());
    report.is_placeable()
}

/// `repro check [--p4 <file.p4>]` — the srcheck pipeline-layout
/// verification gate. The default run checks the hand-built switch.p4
/// baseline model, compiles both bundled P4 programs through the sr-p4
/// front-end (parse -> semantic -> lower -> placement), and asserts the
/// lowered `p4/silkroad.p4` is resource-for-resource identical to the
/// hand-built reference. `--p4 <file>` instead compiles and checks one
/// P4 source from disk. Exits non-zero if anything is rejected, so
/// `tools/verify.sh` can gate on it; an unreadable `--p4` path is a
/// usage error (exit 2).
fn run_check(p4_path: Option<&str>) {
    use sr_asic::{ChipSpec, PipelineProgram};
    let chip = ChipSpec::tofino_class();
    if let Some(path) = p4_path {
        let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(2);
        });
        if !check_p4(path, &source, &chip) {
            eprintln!("repro check: {path} rejected");
            std::process::exit(1);
        }
        return;
    }
    let mut rejected = 0;
    // The base switch.p4 profile is a resource model with no bundled
    // source; it still gates directly.
    let baseline = PipelineProgram::baseline_switch_p4().check(&chip);
    println!("{}", baseline.render());
    println!();
    if !baseline.is_placeable() {
        rejected += 1;
    }
    // The SilkRoad programs are compiled from their checked-in P4 source.
    for (label, source) in [
        ("p4/silkroad.p4", sr_p4::SILKROAD_P4),
        ("p4/charon_lb.p4", sr_p4::CHARON_P4),
    ] {
        if !check_p4(label, source, &chip) {
            rejected += 1;
        }
        println!();
    }
    // Parity gate: the lowered bundled source must match the hand-built
    // reference field-for-field, or the P4 text has drifted from the
    // program the rest of the workspace evaluates.
    let hand_built = PipelineProgram::silkroad_paper();
    match sr_p4::compile(sr_p4::SILKROAD_P4) {
        Ok(lowered) if format!("{lowered:#?}") == format!("{hand_built:#?}") => {
            println!("parity    : p4/silkroad.p4 == hand-built reference (IDENTICAL)");
        }
        Ok(_) => {
            println!("parity    : p4/silkroad.p4 != hand-built reference (DRIFTED)");
            rejected += 1;
        }
        // Compile failures were already reported (and counted) above.
        Err(_) => {}
    }
    if rejected > 0 {
        eprintln!("repro check: {rejected} program(s) rejected");
        std::process::exit(1);
    }
}

/// Write one `BENCH_*.json` document to the current directory, or exit 1.
fn write_doc(path: &str, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro fleet [--smoke]` — the fleet-scale steady-state bench. Holds a
/// live population across the ~100-cluster fleet under continuous DIP
/// churn plus a mid-run update storm, and writes `BENCH_fleet.json`.
///
/// Gates: PCC violations must be 0 and per-connection state must stay
/// within 64 bytes at every scale. The full run additionally requires at
/// least 100 clusters and a held median of at least 2 M live
/// connections — the paper-scale claim the committed JSON records.
fn run_fleet(smoke: bool, exec: &Exec) {
    use sr_bench::fleet;
    let b = fleet::run(smoke, exec);
    let r = &b.report;
    let mut t = Table::new(
        format!(
            "Fleet — {} clusters, {} epochs of {} ms, storm x{} ({})",
            r.clusters,
            r.epochs,
            b.params.epoch_ms,
            b.params.storm_factor,
            if smoke { "smoke" } else { "full" }
        ),
        &["metric", "value"],
    );
    t.row(vec![
        "held (median/peak/final)".into(),
        format!(
            "{:.2}M / {:.2}M / {:.2}M",
            r.held_median as f64 / 1e6,
            r.held_peak as f64 / 1e6,
            r.held_final as f64 / 1e6
        ),
    ]);
    t.row(vec![
        "opens".into(),
        format!("{} ({:.0}/s)", r.opens, r.opens_per_sec),
    ]);
    t.row(vec!["closes".into(), r.closes.to_string()]);
    t.row(vec!["PCC violations".into(), r.pcc_violations.to_string()]);
    t.row(vec![
        "updates applied/skipped".into(),
        format!("{} / {}", r.updates_applied, r.updates_skipped),
    ]);
    t.row(vec![
        "bytes/conn".into(),
        format!("{:.1} ({} total)", r.bytes_per_conn, mb(r.state_bytes)),
    ]);
    t.row(vec!["control bytes".into(), mb(r.control_bytes)]);
    t.row(vec![
        "SRAM fit (measured)".into(),
        format!(
            "{}/{} clusters within {:.0} MB (max {:.1} MB)",
            b.fit.fitting, b.fit.clusters, b.fit.budget_mb, b.fit.max_mb
        ),
    ]);
    t.row(vec!["digest".into(), format!("{:016x}", r.digest)]);
    println!("{}", t.render());
    write_doc("BENCH_fleet.json", &b.to_json());
    if r.pcc_violations > 0 {
        eprintln!("repro fleet: {} PCC violations", r.pcc_violations);
        std::process::exit(1);
    }
    if r.bytes_per_conn > 64.0 {
        eprintln!(
            "repro fleet: {:.1} bytes/conn exceeds the 64 B budget",
            r.bytes_per_conn
        );
        std::process::exit(1);
    }
    if !smoke {
        if r.clusters < 100 {
            eprintln!("repro fleet: {} clusters, need >= 100", r.clusters);
            std::process::exit(1);
        }
        if r.held_median < 2_000_000 {
            eprintln!(
                "repro fleet: held median {} below the 2M-connection target",
                r.held_median
            );
            std::process::exit(1);
        }
    }
}

/// `repro churn [--smoke] [--flood]` — the connection-setup
/// correctness gate. Paces waves of brand-new connections through the
/// full learn→insert→promote pipeline under 1×/10× SYN storms, once per
/// packet and once batched at 1/2/4 pipes, and writes the deterministic
/// `BENCH_churn.json`.
///
/// Gates (both profiles): 0 PCC violations, 0 learning-filter overflow
/// drops, and bit-identical decision digests batched-vs-per-packet and
/// across 1/2/4 pipes. Nothing is timed — setup rates are the `churn`
/// workload of `benchmark/`.
///
/// `--flood` runs the adversarial scenario instead: a deterministic
/// storm of never-completing SYNs far beyond the learning filter's
/// capacity, with an established background population serving traffic
/// throughout. Gates: the filter sheds load (overflow_drops > 0),
/// installed state stays within the model-derived bound, and the
/// background flows see 0 PCC violations. No JSON is written — the
/// flood is a pass/fail scenario, not a recorded figure.
fn run_churn(smoke: bool, flood: bool) {
    use sr_bench::churn;
    if flood {
        let r = churn::flood(smoke);
        let mut t = Table::new(
            format!(
                "Churn flood — {} waves x {} unique SYNs, {} background flows ({})",
                r.waves,
                r.syns_per_wave,
                r.background_flows,
                if smoke { "smoke" } else { "full" }
            ),
            &["metric", "value"],
        );
        t.row(vec!["flood SYNs".into(), r.flood_syns.to_string()]);
        t.row(vec![
            "filter overflow drops".into(),
            r.overflow_drops.to_string(),
        ]);
        t.row(vec![
            "installed peak / bound".into(),
            format!("{} / {}", r.installed_peak, r.live_bound),
        ]);
        t.row(vec![
            "installed final".into(),
            r.installed_final.to_string(),
        ]);
        t.row(vec!["idle-expired".into(), r.expired.to_string()]);
        t.row(vec![
            "background PCC violations".into(),
            r.pcc_violations.to_string(),
        ]);
        println!("{}", t.render());
        if r.overflow_drops == 0 {
            eprintln!("repro churn --flood: learning filter never shed load");
            std::process::exit(1);
        }
        if !r.bounded() {
            eprintln!(
                "repro churn --flood: installed peak {} escaped the bound {}",
                r.installed_peak, r.live_bound
            );
            std::process::exit(1);
        }
        if r.pcc_violations > 0 {
            eprintln!(
                "repro churn --flood: {} PCC violations on background flows",
                r.pcc_violations
            );
            std::process::exit(1);
        }
        return;
    }
    let b = churn::run(smoke);
    let mut t = Table::new(
        format!(
            "Churn — {} waves x {} new flows, batch {} ({})",
            b.params.waves,
            b.params.flows_per_wave,
            b.params.batch,
            if smoke { "smoke" } else { "full" }
        ),
        &[
            "storm",
            "setups",
            "packets",
            "learn p50/p90/max",
            "transit peak",
            "digest",
        ],
    );
    for p in &b.points {
        t.row(vec![
            format!("{}x", p.storm),
            p.setups.to_string(),
            p.packets.to_string(),
            format!(
                "{}/{}/{}",
                p.learn_depth_p50, p.learn_depth_p90, p.learn_depth_max
            ),
            format!("{:.2}%", 100.0 * p.transit_fill_peak),
            format!("{:016x}", p.digest),
        ]);
    }
    println!("{}", t.render());
    println!(
        "decision digest identity (arms, pipe counts): {}",
        if b.digests_ok() { "OK" } else { "DIVERGED" }
    );
    write_doc("BENCH_churn.json", &b.to_json());
    if !b.digests_ok() {
        eprintln!("repro churn: decision digests diverged across arms or pipe counts");
        std::process::exit(1);
    }
    if b.pcc_violations() > 0 {
        eprintln!("repro churn: {} PCC violations", b.pcc_violations());
        std::process::exit(1);
    }
    if let Some(p) = b.points.iter().find(|p| p.overflow_drops > 0) {
        eprintln!(
            "repro churn: {} learning-filter overflow drops at storm {}x",
            p.overflow_drops, p.storm
        );
        std::process::exit(1);
    }
}

/// `repro compare [--smoke] [--algo <name>]` — the cross-algorithm LB
/// matrix: every sr-algo zoo member through the identical churn +
/// pool-update workload, with the paper-style columns (SRAM bytes/conn,
/// PCC violations, insert fraction, srcheck placement) and
/// the acceptance gates. Writes `BENCH_compare.json`.
fn run_compare(smoke: bool, only: Option<&str>) {
    use sr_algo::AlgoName;
    use sr_bench::compare;
    let only = only.map(|s| {
        AlgoName::parse(s).unwrap_or_else(|| {
            let names: Vec<&str> = AlgoName::all().iter().map(|a| a.label()).collect();
            eprintln!(
                "unknown algorithm '{s}' — valid names: {}",
                names.join(", ")
            );
            std::process::exit(2);
        })
    });
    let b = compare::run(smoke, only);
    let mut t = Table::new(
        format!(
            "Algorithm comparison — {} waves x {} new flows, 2 pool updates ({})",
            b.params.waves,
            b.params.flows_per_wave,
            if smoke { "smoke" } else { "full" }
        ),
        &[
            "algo",
            "SRAM B/conn",
            "model bits",
            "entries peak",
            "insert frac",
            "PCC viol",
            "false hits",
            "placeable",
        ],
    );
    for p in &b.points {
        t.row(vec![
            p.algo.to_string(),
            format!("{:.2}", p.sram_bytes_per_conn),
            p.model_bits_per_entry.to_string(),
            p.entries_peak.to_string(),
            format!("{:.3}", p.insert_fraction),
            p.pcc_violations.to_string(),
            p.false_hits.to_string(),
            if p.placeable { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", t.render());
    write_doc("BENCH_compare.json", &b.to_json());
    if let Some(p) = b.points.iter().find(|p| !p.placeable) {
        eprintln!("repro compare: {} layout is not srcheck-placeable", p.algo);
        std::process::exit(1);
    }
    if b.stamp_failures() > 0 {
        eprintln!(
            "repro compare: {} version stamps lost in the wire round trip",
            b.stamp_failures()
        );
        std::process::exit(1);
    }
    // The cross-algorithm gates need the full matrix; a single `--algo`
    // row is a debugging view.
    if b.has_all() {
        let silk = b.point(AlgoName::Silkroad).expect("silkroad row");
        let conc = b.point(AlgoName::Concury).expect("concury row");
        let cuco = b.point(AlgoName::Cucotrack).expect("cucotrack row");
        if silk.pcc_violations > 0 {
            eprintln!(
                "repro compare: SilkRoad broke PCC ({} violations)",
                silk.pcc_violations
            );
            std::process::exit(1);
        }
        if conc.sram_bytes_per_conn >= silk.sram_bytes_per_conn {
            eprintln!(
                "repro compare: concury SRAM/conn {:.2} did not beat silkroad {:.2}",
                conc.sram_bytes_per_conn, silk.sram_bytes_per_conn
            );
            std::process::exit(1);
        }
        if cuco.false_hits == 0 {
            eprintln!("repro compare: cucotrack recorded no audited false hits");
            std::process::exit(1);
        }
    }
}

/// `repro export <file.pcap> [--smoke]` — materialize the deterministic
/// replay trace as a pcap capture. `--smoke` writes the small CI profile
/// (the bytes behind `crates/bench/golden/replay_smoke.pcap`); the full
/// profile produces the 100K+-frame capture the committed
/// `BENCH_replay.json` replays.
fn run_export(path: &str, smoke: bool) {
    use sr_bench::replay::{export_profile, EXPORT_DATA_PKTS};
    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("failed to create {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut writer = match sr_wire::PcapWriter::new(std::io::BufWriter::new(file)) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("failed to write pcap header: {e}");
            std::process::exit(1);
        }
    };
    let cfg = export_profile(smoke);
    let stats = match sr_wire::export_trace(&cfg, EXPORT_DATA_PKTS, &mut writer, |_, _| {}) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("export failed: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = writer.finish().and_then(|mut w| {
        use std::io::Write;
        w.flush()
    }) {
        eprintln!("failed to flush {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {path}: {} frames, {} conns, {} bytes ({})",
        stats.frames,
        stats.conns,
        stats.bytes,
        if smoke {
            "smoke profile"
        } else {
            "full profile"
        }
    );
}

/// `repro replay <file.pcap> [--pipes N] [--smoke] [--encap]` — stream a
/// capture through the multi-pipe switch, rewrite every forwarded frame,
/// and write `BENCH_replay.json` to the current directory. Exits non-zero
/// on parse errors, checksum failures, or PCC violations. The full
/// (non-`--smoke`) run additionally requires a 100K+-frame capture, so a
/// committed `BENCH_replay.json` always reflects paper-scale replay.
fn run_replay(path: &str, pipes: usize, smoke: bool, encap: bool) {
    use sr_bench::replay;
    use sr_types::RewriteMode;
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        }
    };
    let mode = if encap {
        RewriteMode::Encap
    } else {
        RewriteMode::Nat
    };
    let report = match replay::replay(&bytes, pipes, mode) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {e}");
            std::process::exit(1);
        }
    };
    let mut t = Table::new(
        format!(
            "Replay — {path} through {pipes} pipe(s), {} mode",
            mode.label()
        ),
        &["metric", "value"],
    );
    t.row(vec!["frames".into(), report.frames.to_string()]);
    t.row(vec!["connections".into(), report.conns.to_string()]);
    t.row(vec!["VIPs".into(), report.vips.to_string()]);
    t.row(vec!["rewritten".into(), report.rewritten.to_string()]);
    t.row(vec!["skipped".into(), report.skipped.to_string()]);
    t.row(vec![
        "bytes in/out".into(),
        format!("{} / {}", report.bytes_in, report.bytes_out),
    ]);
    t.row(vec![
        "decision digest".into(),
        format!("{:016x}", report.decision_digest),
    ]);
    t.row(vec![
        "checksum failures".into(),
        report.checksum_failures.to_string(),
    ]);
    t.row(vec![
        "PCC violations".into(),
        report.pcc_violations.to_string(),
    ]);
    println!("{}", t.render());
    write_doc("BENCH_replay.json", &report.to_json());
    if !smoke && report.frames < 100_000 {
        eprintln!(
            "repro replay: full run needs a 100K+-frame capture, got {} (use --smoke for small captures)",
            report.frames
        );
        std::process::exit(1);
    }
    if !report.ok() {
        eprintln!(
            "repro replay: correctness failure ({} parse errors, {} checksum failures, {} PCC violations)",
            report.parse_errors, report.checksum_failures, report.pcc_violations
        );
        std::process::exit(1);
    }
}

/// Run one target and report its wall-clock on stderr (stdout must stay
/// byte-identical across `--jobs` settings; timing is the one thing that
/// legitimately differs).
fn run_timed(cmd: &str, scale: Scale, exec: &Exec) {
    // Wall-clock is banned in the model (clippy.toml) but fine here: the
    // timing goes to stderr only, never into the byte-stable stdout.
    #[allow(clippy::disallowed_methods)]
    let t0 = std::time::Instant::now();
    run(cmd, scale, exec);
    eprintln!(
        "[{cmd}: {:.2}s, {} worker{}]",
        t0.elapsed().as_secs_f64(),
        exec.workers(),
        if exec.workers() == 1 { "" } else { "s" }
    );
}

fn run(cmd: &str, scale: Scale, exec: &Exec) {
    match cmd {
        "table1" => println!("{}", tables::table1().render()),
        "table2" => println!("{}", tables::table2_table(1_000_000).render()),
        "fig2" => {
            let fleet = fig_meta::default_fleet();
            println!("{}", fig_meta::fig2_table(&fig_meta::fig2(&fleet)).render());
        }
        "fig3" => {
            let mut t = Table::new(
                "Fig 3 — root causes of DIP additions/removals",
                &["cause", "paper share", "generated share"],
            );
            for r in fig_meta::fig3(scale.seed) {
                t.row(vec![
                    r.cause.name().to_string(),
                    pct(r.target_share),
                    pct(r.generated_share),
                ]);
            }
            println!("{}", t.render());
        }
        "fig4" => {
            let mut t = Table::new(
                "Fig 4 — DIP downtime duration by root cause (minutes)",
                &["cause", "p50", "p90", "p99"],
            );
            for r in fig_meta::fig4(scale.seed) {
                t.row(vec![
                    r.cause.name().to_string(),
                    format!("{:.1}", r.p50_min),
                    format!("{:.1}", r.p90_min),
                    format!("{:.1}", r.p99_min),
                ]);
            }
            println!("{}", t.render());
        }
        "fig5" => {
            let freqs = [1.0, 10.0, 20.0, 30.0, 40.0, 50.0];
            let points = fig_pcc::fig5(exec, scale, &freqs);
            let mut a = Table::new(
                "Fig 5a — traffic handled in SLBs (Duet migrate-back dilemma)",
                &["upd/min", "Duet-10min", "Duet-1min", "Duet-PCC"],
            );
            let mut b = Table::new(
                "Fig 5b — connections with PCC violations",
                &["upd/min", "Duet-10min", "Duet-1min", "Duet-PCC"],
            );
            for &f in &freqs {
                let find = |label: &str| {
                    points
                        .iter()
                        .find(|p| p.updates_per_min == f && p.system == label)
                        .expect("point exists")
                };
                a.row(vec![
                    format!("{f:.0}"),
                    pct(find("Duet-10min").metrics.software_traffic_fraction()),
                    pct(find("Duet-1min").metrics.software_traffic_fraction()),
                    pct(find("Duet-PCC").metrics.software_traffic_fraction()),
                ]);
                b.row(vec![
                    format!("{f:.0}"),
                    pct(find("Duet-10min").metrics.violation_fraction()),
                    pct(find("Duet-1min").metrics.violation_fraction()),
                    pct(find("Duet-PCC").metrics.violation_fraction()),
                ]);
            }
            println!("{}", a.render());
            println!("{}", b.render());
        }
        "fig6" => {
            let mut t = Table::new(
                "Fig 6 — active connections per ToR switch across clusters",
                &["kind", "p50", "p90", "max"],
            );
            for r in fig_meta::fig6(&fig_meta::default_fleet()) {
                t.row(vec![
                    r.kind.name().to_string(),
                    format!("{:.2}M", r.p50 / 1e6),
                    format!("{:.2}M", r.p90 / 1e6),
                    format!("{:.2}M", r.max / 1e6),
                ]);
            }
            println!("{}", t.render());
        }
        "fig8" => {
            let mut t = Table::new(
                "Fig 8 — new connections per VIP per minute across clusters",
                &["kind", "p50", "p90", "max"],
            );
            for r in fig_meta::fig8(&fig_meta::default_fleet()) {
                t.row(vec![
                    r.kind.name().to_string(),
                    format!("{:.0}K", r.p50 / 1e3),
                    format!("{:.0}K", r.p90 / 1e3),
                    format!("{:.1}M", r.max / 1e6),
                ]);
            }
            println!("{}", t.render());
        }
        "fig12" => {
            let mut t = Table::new(
                "Fig 12 — SilkRoad SRAM usage per ToR switch (MB)",
                &["kind", "p50", "p90", "max"],
            );
            for r in fig_memory::fig12(exec, &fig_meta::default_fleet()) {
                t.row(vec![
                    r.kind.name().to_string(),
                    format!("{:.1}", r.p50),
                    format!("{:.1}", r.p90),
                    format!("{:.1}", r.max),
                ]);
            }
            println!("{}", t.render());
            let fleet = fig_meta::default_fleet();
            println!(
                "clusters fitting 100 MB SRAM: {}/{}",
                fig_memory::clusters_fitting(&fleet, 100.0),
                fleet.len()
            );
        }
        "fig13" => {
            let mut t = Table::new(
                "Fig 13 — SLBs replaced by one SilkRoad",
                &["kind", "p50", "p90", "max"],
            );
            for r in fig_memory::fig13(exec, &fig_meta::default_fleet()) {
                t.row(vec![
                    r.kind.name().to_string(),
                    format!("{:.1}", r.p50),
                    format!("{:.1}", r.p90),
                    format!("{:.0}", r.max),
                ]);
            }
            println!("{}", t.render());
        }
        "fig14" => {
            let fleet = fig_meta::default_fleet();
            let digest = fig_memory::fig14(exec, &fleet, fig_memory::Fig14Design::DigestOnly);
            let version = fig_memory::fig14(exec, &fleet, fig_memory::Fig14Design::DigestVersion);
            let mut t = Table::new(
                "Fig 14 — ConnTable memory saving vs naive layout",
                &[
                    "kind",
                    "digest-only p50",
                    "digest+version p50",
                    "digest+version max",
                ],
            );
            for (d, v) in digest.iter().zip(&version) {
                t.row(vec![
                    d.kind.name().to_string(),
                    pct(d.p50),
                    pct(v.p50),
                    pct(v.max),
                ]);
            }
            println!("{}", t.render());
        }
        "fig15" => {
            let mut t = Table::new(
                "Fig 15 — versions needed per 10-min window, before/after reuse",
                &["updates", "naive versions", "with reuse"],
            );
            for p in fig_version::fig15(exec, &[1.0, 5.0, 10.0, 20.0, 33.0], 16, scale.seed) {
                t.row(vec![
                    p.updates.to_string(),
                    p.versions_naive.to_string(),
                    p.versions_with_reuse.to_string(),
                ]);
            }
            println!("{}", t.render());
        }
        "fig16" => {
            let freqs = [1.0, 10.0, 20.0, 30.0, 40.0, 50.0];
            let points = fig_pcc::fig16(exec, scale, &freqs);
            let mut t = Table::new(
                format!(
                    "Fig 16 — PCC violations vs update frequency ({:.0}K conns/min, {} min)",
                    2770.0 * scale.rate_factor,
                    scale.minutes
                ),
                &["upd/min", "Duet-10min", "SilkRoad-noTT", "SilkRoad"],
            );
            for &f in &freqs {
                let find = |label: &str| {
                    points
                        .iter()
                        .find(|p| p.updates_per_min == f && p.system.contains(label))
                        .expect("point exists")
                };
                t.row(vec![
                    format!("{f:.0}"),
                    pct(find("Duet").metrics.violation_fraction()),
                    pct(find("noTT").metrics.violation_fraction()),
                    pct(find("SilkRoad(").metrics.violation_fraction()),
                ]);
            }
            println!("{}", t.render());
        }
        "fig17" => {
            let factors = [0.1, 0.25, 0.5, 1.0, 1.5, 2.0];
            let points = fig_pcc::fig17(exec, scale, &factors);
            let mut t = Table::new(
                "Fig 17 — PCC violations/min vs arrival rate (10 upd/min)",
                &["rate x", "Duet-10min", "SilkRoad-noTT", "SilkRoad"],
            );
            for &f in &factors {
                let find = |label: &str| {
                    points
                        .iter()
                        .find(|p| p.rate_factor == f && p.system.contains(label))
                        .expect("point exists")
                };
                t.row(vec![
                    format!("{f:.2}"),
                    format!("{:.2}", find("Duet").metrics.violations_per_min()),
                    format!("{:.2}", find("noTT").metrics.violations_per_min()),
                    format!("{:.2}", find("SilkRoad(").metrics.violations_per_min()),
                ]);
            }
            println!("{}", t.render());
        }
        "fig18" => {
            let sizes = [8usize, 64, 256];
            let timeouts = [
                Duration::from_micros(500),
                Duration::from_millis(1),
                Duration::from_millis(5),
            ];
            let points = fig_pcc::fig18(exec, scale, &sizes, &timeouts);
            let mut t = Table::new(
                "Fig 18 — PCC violations vs TransitTable size (10 upd/min)",
                &[
                    "TransitTable",
                    "timeout 0.5ms",
                    "timeout 1ms",
                    "timeout 5ms",
                ],
            );
            for &s in &sizes {
                let find = |to: Duration| {
                    points
                        .iter()
                        .find(|p| p.transit_bytes == s && p.timeout == to)
                        .expect("point exists")
                };
                t.row(vec![
                    format!("{s} B"),
                    find(timeouts[0]).metrics.pcc_violations.to_string(),
                    find(timeouts[1]).metrics.pcc_violations.to_string(),
                    find(timeouts[2]).metrics.pcc_violations.to_string(),
                ]);
            }
            println!("{}", t.render());
        }
        "meters" => {
            let mut t = Table::new(
                "§5.2 — trTCM marking accuracy at 10 Gbps offered",
                &["CIR Gbps", "EIR Gbps", "avg error"],
            );
            for p in extras::meter_accuracy(exec) {
                t.row(vec![
                    format!("{:.0}", p.cir_gbps),
                    format!("{:.0}", p.eir_gbps),
                    pct(p.avg_error()),
                ]);
            }
            println!("{}", t.render());
        }
        "digests" => {
            let conns = if scale.rate_factor >= 1.0 {
                2_770_000
            } else {
                60_000
            };
            let mut t = Table::new(
                format!("§6.1 — digest size vs false positives ({conns} conns/min)"),
                &[
                    "digest",
                    "false hits",
                    "SYN repairs",
                    "fp rate",
                    "ConnTable SRAM",
                ],
            );
            for p in extras::digest_tradeoff(exec, conns, scale.seed) {
                t.row(vec![
                    format!("{}-bit", p.digest_bits),
                    p.false_hits.to_string(),
                    p.syn_repairs.to_string(),
                    pct(p.false_hit_fraction()),
                    mb(p.conn_table_bytes),
                ]);
            }
            println!("{}", t.render());
        }
        "cost" => {
            let c = extras::cost_comparison();
            println!("== §6.1 — cost/power of SilkRoad vs SLB ==");
            println!("power saving factor: {:.0}x (paper ~500x)", c.power_factor);
            println!("capex saving factor: {:.0}x (paper ~250x)", c.capex_factor);
        }
        "latency" => {
            let mut t = Table::new(
                "§2.2/§5.2 — per-packet LB processing latency (10 upd/min)",
                &["system", "p50", "p99"],
            );
            for p in extras::latency_comparison(exec, scale) {
                t.row(vec![p.system, format!("{}", p.p50), format!("{}", p.p99)]);
            }
            println!("{}", t.render());
        }
        "ablations" => {
            use sr_bench::ablations;
            let mut t = Table::new(
                "Ablation — cuckoo geometry vs achievable load factor",
                &["stages", "ways", "load factor", "avg moves/insert"],
            );
            for p in ablations::cuckoo_geometry(exec, scale.seed) {
                t.row(vec![
                    p.stages.to_string(),
                    p.ways.to_string(),
                    format!("{:.1}%", 100.0 * p.load_factor),
                    format!("{:.3}", p.avg_moves),
                ]);
            }
            println!("{}", t.render());

            let mut t = Table::new(
                "Ablation — switch-CPU insertion rate (12 VIPs, 50 upd/min)",
                &["inserts/s", "noTT violations", "SilkRoad violations"],
            );
            // Keep the slow point *above* the arrival rate: below it the
            // backlog grows without bound and both designs break (the
            // bloom-saturation regime the fig18 discussion covers).
            let arrivals = 2_770_000.0 * scale.rate_factor / 60.0;
            let rates = [(arrivals * 1.2) as u64, (arrivals * 10.0) as u64, 200_000];
            for p in ablations::insertion_rate_sweep(exec, scale, &rates) {
                t.row(vec![
                    p.insertions_per_sec.to_string(),
                    p.no_tt.pcc_violations.to_string(),
                    p.with_tt.pcc_violations.to_string(),
                ]);
            }
            println!("{}", t.render());

            let mut t = Table::new(
                "Ablation — §7 per-stage digest widths (16-bit average)",
                &["layout", "fill", "false hits / 400K probes"],
            );
            for p in ablations::digest_layouts(exec, scale.seed) {
                t.row(vec![
                    p.label.to_string(),
                    format!("{:.0}%", 100.0 * p.fill),
                    p.false_hits.to_string(),
                ]);
            }
            println!("{}", t.render());
        }
        other => unreachable!("unknown target {other}"),
    }
}
