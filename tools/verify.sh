#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md): release build, full test
# suite, formatting + warning-free clippy over every first-party crate,
# the srlint source gate, the srcheck pipeline-layout gate, the committed
# BENCH_*.json documents regenerated and cmp'd, the replay smoke golden,
# the `repro all` and examples goldens, the release-mode
# allocation regression, the repo benchmark's smoke pass (which must leave
# its lockfile untouched), and its hit-1m seed-204 PCC and peak-RSS
# regression gates.
#
# Clippy/fmt run per first-party package rather than --workspace: the
# vendored stand-ins under vendor/ mirror upstream APIs and are exempt
# from clippy.toml's disallowed-methods policy and our formatting.
set -euo pipefail
cd "$(dirname "$0")/.."

FIRST_PARTY=(
    silkroad-lb sr-types sr-hash sr-asic sr-p4 sr-algo silkroad sr-exec
    sr-baselines sr-workload sr-sim sr-netwide sr-wire sr-bench srlint
)
PKG_FLAGS=()
for p in "${FIRST_PARTY[@]}"; do PKG_FLAGS+=(-p "$p"); done

echo "== build (release)"
# --workspace so the sr-bench `repro` binary the later gates exercise is
# rebuilt too: the root manifest is itself a package, and a bare
# `cargo build` covers only it and its lib dependencies — leaving a
# stale target/release/repro behind after CLI changes.
cargo build --release --workspace

echo "== tests"
cargo test -q

echo "== fmt --check (first-party)"
cargo fmt --check "${PKG_FLAGS[@]}"

echo "== clippy (first-party, all targets, -D warnings)"
cargo clippy "${PKG_FLAGS[@]}" --all-targets -- -D warnings

echo "== srlint (hot-path + hygiene source gate)"
cargo run -q --release -p srlint -- .

echo "== srcheck (pipeline-layout gate: reference programs must place)"
./target/release/repro check > /dev/null

# P4 front-end gate: every bundled .p4 must compile (parse -> semantic ->
# lower) and place on the Tofino-class chip. The default `repro check`
# above already runs the bundled sources plus the silkroad.p4-vs-
# hand-built parity gate; this loop additionally proves the --p4 file
# path works on each checked-in program.
echo "== sr-p4 (P4 front-end gate: bundled .p4 sources compile and place)"
for p4 in p4/*.p4; do
    ./target/release/repro check --p4 "$p4" > /dev/null
done

# The committed BENCH_*.json documents are deterministic: nothing in them
# reads a clock or the host, and the fleet engine is sharding-invariant.
# Regenerate each one with its full profile in a scratch dir and require
# it byte-identical to the committed file (~7 s). Every gate inside the
# binary runs too:
#   churn   — decision digests bit-identical between the per-packet and
#             batched arms and across 1/2/4 pipes, zero PCC violations,
#             zero learning-filter drops;
#   compare — every sr-algo zoo member (silkroad, concury, cucotrack,
#             hybrid) srcheck-placeable, zero stamp round-trip losses,
#             SilkRoad zero PCC violations, Concury's SRAM bytes/conn
#             below SilkRoad's, CuCoTrack a nonzero audited false-hit
#             count;
#   fleet   — zero PCC violations, <= 64 bytes per held connection, at
#             least 100 clusters and a held median of at least 2 M;
#   replay  — a 100K+-frame capture, zero parse errors, checksum
#             failures and PCC violations.
# The SYN-flood scenario writes no document; its gates (the filter sheds
# load, installed state stays bounded, zero PCC violations on the
# background flows) run at smoke size. Packet rates are the benchmark's
# business, not these documents'.
echo "== BENCH_*.json (full churn/compare/fleet/replay, cmp'd against the committed documents)"
DOC_TMP="$(mktemp -d)"
(
    cd "$DOC_TMP"
    repro="$OLDPWD/target/release/repro"
    "$repro" churn > /dev/null
    "$repro" compare > /dev/null
    "$repro" fleet > /dev/null
    "$repro" export replay_full.pcap > /dev/null
    "$repro" replay replay_full.pcap --pipes 4 > /dev/null
    for doc in churn compare fleet replay; do
        cmp "$OLDPWD/BENCH_$doc.json" "BENCH_$doc.json"
    done
    "$repro" churn --smoke --flood > /dev/null
)
rm -rf "$DOC_TMP"

# Replay smoke: regenerate the smoke capture from the deterministic
# exporter, require it byte-identical to the committed golden, replay it,
# and require the decision digest to match the pinned value. Catches any
# drift in the trace generator, frame synthesis, parser, or data plane.
echo "== repro replay --smoke (wire round-trip vs golden pcap + pinned digest)"
REPLAY_TMP="$(mktemp -d)"
(
    cd "$REPLAY_TMP"
    "$OLDPWD/target/release/repro" export replay_smoke.pcap --smoke > /dev/null
    cmp "$OLDPWD/crates/bench/golden/replay_smoke.pcap" replay_smoke.pcap
    "$OLDPWD/target/release/repro" replay replay_smoke.pcap --pipes 2 --smoke > /dev/null
    digest="$(sed -n 's/.*"decision_digest": "\([0-9a-f]*\)".*/\1/p' BENCH_replay.json)"
    pinned="$(tr -d '[:space:]' < "$OLDPWD/crates/bench/golden/replay_smoke.digest")"
    if [ "$digest" != "$pinned" ]; then
        echo "replay smoke digest drifted: got $digest, pinned $pinned" >&2
        exit 1
    fi
)
rm -rf "$REPLAY_TMP"

# `repro all` stdout is deterministic — the same bytes at any --jobs, and
# unchanged by any change that keeps every decision. The golden pins it;
# a change meant to move a figure regenerates it (same command, stdout
# only) and says so. ~25 s on a 2-vCPU host.
echo "== repro all --jobs 2 (stdout byte-identical to the golden)"
ALL_TMP="$(mktemp -d)"
(
    cd "$ALL_TMP"
    "$OLDPWD/target/release/repro" all --jobs 2 > repro_all.txt 2> /dev/null
    cmp "$OLDPWD/crates/bench/golden/repro_all.txt" repro_all.txt
)
rm -rf "$ALL_TMP"

# The six examples drive every system under test through the simulator
# (SilkRoad, Duet, the SLB tier, the §7 static split). Their stdout is
# deterministic and pinned the same way as `repro all`; ~2 s.
echo "== examples (stdout byte-identical to the golden)"
cargo build --release --examples
EX_TMP="$(mktemp -d)"
for ex in cluster_sim failover hybrid network_wide quickstart rolling_upgrade; do
    "./target/release/examples/$ex"
done > "$EX_TMP/examples.txt"
cmp crates/bench/golden/examples.txt "$EX_TMP/examples.txt"
rm -rf "$EX_TMP"

# The allocation gate only means something with optimizations on: debug
# builds allocate in places release code does not (and vice versa).
echo "== alloc regression (release)"
cargo test --test alloc_regression --release

echo "== benches compile"
cargo bench --workspace --no-run

# The repo benchmark (BENCHMARK.json, benchmark/): all six workloads at
# 1/16 size. A correctness pass, not a timing gate — every run is judged
# by its own PCC/checksum oracle and traced/untraced digests must agree.
# To compare a change against its parent, run the full suite on both and
# `bash benchmark/run.sh --compare before.json after.json`.
echo "== benchmark smoke (six workloads, oracle + digest checks)"
bash benchmark/run.sh --smoke > /dev/null

# The benchmark is a workspace of its own with path dependencies on
# crates/*, so building it silently rewrites benchmark/Cargo.lock when a
# crate manifest gains or drops a dependency. The lockfile belongs to the
# benchmark: a build that changed it must fail here, not drift in.
echo "== benchmark lockfile unchanged by the build"
if ! git diff --quiet -- benchmark/Cargo.lock; then
    echo "benchmark/Cargo.lock changed during the benchmark build:" >&2
    git diff --stat -- benchmark/Cargo.lock >&2
    exit 1
fi

# PCC regression gate: hit-1m seed 204 holds two flows that share the
# 16-bit digest and the same word in stages 0 *and* 1. Until the repair
# excluded every shared stage, relocation bounced the pair between the
# two words, gave up silently, and one flow was steered through the
# other's entry. A million-flow fill plus a 1 s window, ~15 s. The
# result line is printed so the CI job log keeps it.
#
# The same line carries the run's peak RSS, which repeats to 0.1 % on one
# host: 412 MB with one 64-byte record per ConnTable slot (518 MB with
# the 112-byte entries before it). Above 430 the table has grown back.
echo "== benchmark hit-1m seed 204 (digest-shadowing PCC + peak-RSS regression gates)"
seed204="$(bash benchmark/run.sh --workload hit-1m --seed 204 --seconds 1 --trace 0 | tail -1)"
echo "$seed204"
grep -q '"correct": true' <<< "$seed204"
rss_mb="$(sed -n 's/.*"peak_rss_mb": {"value": \([0-9]*\).*/\1/p' <<< "$seed204")"
if [ -z "$rss_mb" ] || [ "$rss_mb" -gt 430 ]; then
    echo "hit-1m peak RSS ${rss_mb:-unreadable} MB exceeds the 430 MB gate" >&2
    exit 1
fi

echo "verify: OK"
