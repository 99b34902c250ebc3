//! `repro replay` / `repro export` — stream a pcap capture through the
//! multi-pipe switch and rewrite every frame (`BENCH_replay.json`).
//!
//! This is the closest the reproduction gets to a packet-in/packet-out
//! load balancer: real Ethernet frames are parsed zero-copy
//! ([`sr_wire::parse_frame`]), steered and resolved by
//! [`MultiPipeSwitch::process_batch_into`], and carried to their DIP by
//! the [`sr_wire::rewrite_frame`] engine (L4 NAT or IP-in-IP encap).
//!
//! One untimed pass over the capture folds every decision into a FNV-1a
//! *decision digest* and every rewritten frame into a *rewrite digest*,
//! counts the rewritten and skipped frames and the bytes out, validates
//! each rewritten frame's checksums by full recomputation (independent of
//! the RFC 1624 incremental math the rewriter used), and checks
//! per-connection consistency: once a flow is pinned to a DIP, every later
//! packet must keep it. Nothing reads a clock, so the report is the same
//! bytes on every host; the wire path's packet rate is the `replay`
//! workload of `benchmark/`.
//!
//! Halfway through the capture a DIP-pool update (remove the first VIP's
//! first DIP) is injected, so the PCC check exercises the paper's central
//! guarantee: connections established before the update keep their DIP
//! while the pool changes underneath them. The digests are deterministic
//! for a given capture, so CI pins the smoke capture's decision digest.

use crate::report::{json_doc, json_hex, json_str};
use silkroad::{DataPath, ForwardDecision, MultiPipeSwitch, PoolUpdate, SilkRoadConfig};
use sr_types::{Addr, AddrFamily, Dip, Nanos, PacketMeta, RewriteMode, Vip};
use sr_wire::{parse_frame, rewrite_frame, verify_checksums, Parsed, PcapReader, ENCAP_HEADROOM};
use std::collections::{BTreeSet, HashMap, HashSet};

/// DIPs registered per discovered VIP (pools are synthesized from the
/// workload address plan, so tests can reconstruct them independently).
pub const DIPS_PER_VIP: u32 = 8;
/// Frames per engine batch.
const BATCH: usize = 1_024;
/// Largest frame the rewrite buffer accommodates (pcap snap length).
const MAX_FRAME: usize = 65_535 + ENCAP_HEADROOM;

/// One replay run's results: correctness counters and digests.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Pipes in the engine.
    pub pipes: usize,
    /// Rewrite mode applied to forwarded frames.
    pub mode: RewriteMode,
    /// Frames in the capture.
    pub frames: u64,
    /// Frames that failed to parse (skipped).
    pub parse_errors: u64,
    /// Unique connections (5-tuples) seen.
    pub conns: u64,
    /// VIPs discovered (unique destination endpoints).
    pub vips: u64,
    /// Capture bytes in.
    pub bytes_in: u64,
    /// Rewritten bytes out (encap grows frames, NAT preserves length).
    pub bytes_out: u64,
    /// Frames rewritten toward a DIP.
    pub rewritten: u64,
    /// Frames with no rewrite (dropped / not-VIP decisions).
    pub skipped: u64,
    /// Rewritten frames whose checksums failed full recomputation.
    pub checksum_failures: u64,
    /// Packets whose DIP differed from their flow's pinned DIP.
    pub pcc_violations: u64,
    /// Frame index where the DIP-pool update was injected.
    pub update_at: u64,
    /// FNV-1a digest of the decision stream (path, DIP, version).
    pub decision_digest: u64,
    /// FNV-1a digest of every rewritten output frame's bytes.
    pub rewrite_digest: u64,
    /// ConnTable hits.
    pub conn_table_hits: u64,
    /// VIPTable miss-path packets.
    pub vip_table_misses: u64,
    /// SYNs redirected to software.
    pub syn_redirects: u64,
}

impl ReplayReport {
    /// Whether the replay was fully correct.
    pub fn ok(&self) -> bool {
        self.parse_errors == 0 && self.checksum_failures == 0 && self.pcc_violations == 0
    }

    /// Render as the `BENCH_replay.json` document.
    pub fn to_json(&self) -> String {
        json_doc(&[
            ("bench", json_str("replay")),
            ("pipes", self.pipes.to_string()),
            ("mode", json_str(self.mode.label())),
            ("frames", self.frames.to_string()),
            ("parse_errors", self.parse_errors.to_string()),
            ("conns", self.conns.to_string()),
            ("vips", self.vips.to_string()),
            ("bytes_in", self.bytes_in.to_string()),
            ("bytes_out", self.bytes_out.to_string()),
            ("rewritten", self.rewritten.to_string()),
            ("skipped", self.skipped.to_string()),
            ("checksum_failures", self.checksum_failures.to_string()),
            ("pcc_violations", self.pcc_violations.to_string()),
            ("update_at", self.update_at.to_string()),
            ("decision_digest", json_hex(self.decision_digest)),
            ("rewrite_digest", json_hex(self.rewrite_digest)),
            ("conn_table_hits", self.conn_table_hits.to_string()),
            ("vip_table_misses", self.vip_table_misses.to_string()),
            ("syn_redirects", self.syn_redirects.to_string()),
            ("ok", self.ok().to_string()),
        ])
    }
}

/// FNV-1a 64-bit fold.
#[derive(Clone, Copy, Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.write(&[b]);
    }
}

/// The synthetic DIP pool registered for the `i`-th discovered VIP.
/// Reuses the workload generator's address plan so pool membership is a
/// pure function of the capture.
fn pool_for(vip_index: u32, family: AddrFamily) -> Vec<Dip> {
    (0..DIPS_PER_VIP)
        .map(|d| sr_workload::trace::dip_addr(family, vip_index, d))
        .collect()
}

/// One parsed capture, ready to stream.
struct Capture<'a> {
    /// (timestamp, parse result, raw frame) per record, capture order.
    recs: Vec<(Nanos, Option<Parsed>, &'a [u8])>,
    /// Discovered VIPs (sorted destination endpoints) with their pools.
    vips: Vec<(Vip, Vec<Dip>)>,
    frames: u64,
    parse_errors: u64,
    conns: u64,
    bytes_in: u64,
}

fn scan(bytes: &[u8]) -> Result<Capture<'_>, String> {
    let reader = PcapReader::new(bytes).map_err(|e| format!("pcap: {e}"))?;
    let mut recs = Vec::new();
    let mut dsts: BTreeSet<Addr> = BTreeSet::new();
    let mut tuples: HashSet<Vec<u8>> = HashSet::new();
    let mut frames = 0u64;
    let mut parse_errors = 0u64;
    let mut bytes_in = 0u64;
    for rec in reader {
        let rec = rec.map_err(|e| format!("pcap record {frames}: {e}"))?;
        frames += 1;
        bytes_in += rec.data.len() as u64;
        match parse_frame(rec.data) {
            Ok(p) => {
                dsts.insert(p.meta.tuple.dst);
                tuples.insert(p.meta.tuple.key_bytes());
                recs.push((rec.ts, Some(p), rec.data));
            }
            Err(_) => {
                parse_errors += 1;
                recs.push((rec.ts, None, rec.data));
            }
        }
    }
    let vips = dsts
        .iter()
        .enumerate()
        .map(|(i, a)| (Vip(*a), pool_for(i as u32, a.family())))
        .collect();
    Ok(Capture {
        recs,
        vips,
        frames,
        parse_errors,
        conns: tuples.len() as u64,
        bytes_in,
    })
}

fn build_switch(cap: &Capture<'_>, pipes: usize) -> Result<MultiPipeSwitch, String> {
    let cfg = SilkRoadConfig {
        conn_capacity: (cap.conns as usize * 2).max(4_096),
        // Wide digests keep the replay's decision stream free of
        // collision noise.
        digest_bits: 24,
        transit_bytes: 4_096,
        ..Default::default()
    };
    let mut sw = MultiPipeSwitch::inline(cfg, pipes);
    for (vip, dips) in &cap.vips {
        sw.add_vip(*vip, dips.clone())
            .map_err(|e| format!("add_vip: {e:?}"))?;
    }
    Ok(sw)
}

/// Stream the capture through `sw` batch by batch, invoking `sink` for
/// every parsed frame with its raw bytes and decision. Injects
/// the mid-capture DIP-pool update at the batch boundary nearest
/// `update_at`. Returns nothing the sink didn't keep.
fn stream<'a>(
    cap: &Capture<'a>,
    sw: &mut MultiPipeSwitch,
    update_at: u64,
    mut sink: impl FnMut(&Parsed, &'a [u8], &ForwardDecision),
) {
    let (update_vip, update_dip) = match cap.vips.first() {
        Some((v, dips)) => (Some(*v), dips.first().copied()),
        None => (None, None),
    };
    let mut batch_meta: Vec<PacketMeta> = Vec::with_capacity(BATCH);
    let mut batch_idx: Vec<usize> = Vec::with_capacity(BATCH);
    let mut decisions: Vec<ForwardDecision> = Vec::with_capacity(BATCH);
    let mut injected = false;
    let mut i = 0usize;
    while i < cap.recs.len() {
        let end = (i + BATCH).min(cap.recs.len());
        batch_meta.clear();
        batch_idx.clear();
        decisions.clear();
        let now = cap.recs[i].0;
        if !injected && i as u64 >= update_at {
            if let (Some(v), Some(d)) = (update_vip, update_dip) {
                // Ignore scheduling conflicts (another update in flight
                // cannot happen here; there is exactly one).
                let _ = sw.request_update(v, PoolUpdate::Remove(d), now);
            }
            injected = true;
        }
        sw.advance(now);
        for (_, parsed, _) in &cap.recs[i..end] {
            if let Some(p) = parsed {
                batch_idx.push(batch_meta.len());
                batch_meta.push(p.meta);
            } else {
                batch_idx.push(usize::MAX);
            }
        }
        sw.process_batch_into(&batch_meta, now, &mut decisions);
        for (off, (_, parsed, raw)) in cap.recs[i..end].iter().enumerate() {
            let Some(p) = parsed else { continue };
            let Some(&di) = batch_idx.get(off) else {
                continue;
            };
            let Some(d) = decisions.get(di) else {
                continue;
            };
            sink(p, raw, d);
        }
        i = end;
    }
}

/// Replay `bytes` (a classic pcap capture) through a `pipes`-pipe switch,
/// rewriting every forwarded frame in `mode`.
pub fn replay(bytes: &[u8], pipes: usize, mode: RewriteMode) -> Result<ReplayReport, String> {
    let cap = scan(bytes)?;
    let update_at = cap.frames / 2;
    let mut sw = build_switch(&cap, pipes)?;
    let mut decision_digest = Fnv::new();
    let mut rewrite_digest = Fnv::new();
    let mut bytes_out = 0u64;
    let mut rewritten = 0u64;
    let mut skipped = 0u64;
    let mut checksum_failures = 0u64;
    let mut pcc_violations = 0u64;
    let mut pinned: HashMap<Vec<u8>, Addr> = HashMap::new();
    let mut out = vec![0u8; MAX_FRAME];
    let mut addr_buf = [0u8; 18];
    stream(&cap, &mut sw, update_at, |p, raw, d| {
        // Decision digest: path, DIP endpoint, pool version, hit flag.
        decision_digest.write_u8(match d.path {
            DataPath::AsicConnTable => 0,
            DataPath::AsicVipTable => 1,
            DataPath::SoftwareRedirect => 2,
            DataPath::Dropped => 3,
            DataPath::NotVip => 4,
        });
        if let Some(dip) = d.dip {
            let n = dip.0.encode_to(&mut addr_buf, 0);
            decision_digest.write(&addr_buf[..n]);
        }
        if let Some(v) = d.version {
            decision_digest.write(&v.0.to_be_bytes());
        }
        decision_digest.write_u8(u8::from(d.conn_table_hit));

        // PCC ledger: a flow's first resolved DIP is binding.
        if let Some(dip) = d.dip {
            let key = p.meta.tuple.key_bytes();
            match pinned.get(&key) {
                None => {
                    pinned.insert(key, dip.0);
                }
                Some(prev) if *prev != dip.0 => pcc_violations += 1,
                Some(_) => {}
            }
        }

        // Rewrite + independent full-recompute checksum validation. A
        // frame the rewriter refuses is both skipped and a failure.
        let Some(op) = d.rewrite_op(mode) else {
            skipped += 1;
            return;
        };
        match rewrite_frame(raw, &p.view, &op, &mut out) {
            Ok(n) => {
                bytes_out += n as u64;
                rewritten += 1;
                rewrite_digest.write(&out[..n]);
                if verify_checksums(&out[..n]).is_err() {
                    checksum_failures += 1;
                }
            }
            Err(_) => {
                skipped += 1;
                checksum_failures += 1;
            }
        }
    });
    let stats = sw.stats();

    Ok(ReplayReport {
        pipes,
        mode,
        frames: cap.frames,
        parse_errors: cap.parse_errors,
        conns: cap.conns,
        vips: cap.vips.len() as u64,
        bytes_in: cap.bytes_in,
        bytes_out,
        rewritten,
        skipped,
        checksum_failures,
        pcc_violations,
        update_at,
        decision_digest: decision_digest.0,
        rewrite_digest: rewrite_digest.0,
        conn_table_hits: stats.conn_table_hits,
        vip_table_misses: stats.vip_table_misses,
        syn_redirects: stats.syn_repairs + stats.transit_syn_redirects,
    })
}

/// The deterministic trace profile `repro export` materializes.
///
/// The smoke profile is small enough for CI (a few thousand frames) and
/// is pinned byte-for-byte as `crates/bench/golden/replay_smoke.pcap`;
/// the full profile produces the 100K+-frame capture behind the
/// committed `BENCH_replay.json`.
pub fn export_profile(smoke: bool) -> sr_workload::TraceConfig {
    use sr_types::Duration;
    let mut cfg = sr_workload::TraceConfig {
        vips: 4,
        dips_per_vip: DIPS_PER_VIP,
        new_conns_per_min: 600.0,
        median_flow_secs: 5.0,
        flow_sigma: 0.8,
        median_rate_bps: 100_000.0,
        rate_sigma: 0.5,
        median_pkt_bytes: 800.0,
        pkt_sigma: 0.35,
        updates_per_min: 0.0,
        shared_dip_upgrades: false,
        duration: Duration::from_secs(30),
        family: AddrFamily::V4,
        seed: 0x0051_1c0a,
    };
    if !smoke {
        cfg.vips = 16;
        cfg.new_conns_per_min = 20_000.0;
        cfg.duration = Duration::from_secs(60);
    }
    cfg
}

/// Data frames per flow in exported captures (SYN and FIN ride on top).
pub const EXPORT_DATA_PKTS: u32 = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use sr_wire::{export_trace, PcapWriter};

    fn smoke_pcap() -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        export_trace(&export_profile(true), EXPORT_DATA_PKTS, &mut w, |_, _| {}).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn smoke_replay_is_clean_and_deterministic() {
        let pcap = smoke_pcap();
        let a = replay(&pcap, 2, RewriteMode::Nat).unwrap();
        assert!(a.ok(), "{}", a.to_json());
        assert_eq!(a.parse_errors, 0);
        assert!(a.frames > 500, "frames {}", a.frames);
        assert_eq!(a.rewritten + a.skipped, a.frames);
        assert!(a.rewritten > 0);
        let b = replay(&pcap, 2, RewriteMode::Nat).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn decision_digest_is_pipe_invariant() {
        let pcap = smoke_pcap();
        let one = replay(&pcap, 1, RewriteMode::Nat).unwrap();
        let four = replay(&pcap, 4, RewriteMode::Nat).unwrap();
        assert_eq!(one.decision_digest, four.decision_digest);
        assert_eq!(one.rewrite_digest, four.rewrite_digest);
        assert!(four.ok());
    }

    #[test]
    fn encap_mode_grows_frames_and_stays_valid() {
        let pcap = smoke_pcap();
        let nat = replay(&pcap, 2, RewriteMode::Nat).unwrap();
        let enc = replay(&pcap, 2, RewriteMode::Encap).unwrap();
        assert!(enc.ok(), "{}", enc.to_json());
        assert_eq!(nat.rewritten, enc.rewritten);
        assert_eq!(
            enc.bytes_out,
            nat.bytes_out + nat.rewritten * sr_types::frame::IPV4_HDR_LEN as u64
        );
        assert_ne!(nat.rewrite_digest, enc.rewrite_digest);
        // The forwarding decisions do not depend on the carrier mode.
        assert_eq!(nat.decision_digest, enc.decision_digest);
    }

    #[test]
    fn report_json_shape() {
        let pcap = smoke_pcap();
        let r = replay(&pcap, 1, RewriteMode::Nat).unwrap();
        let json = r.to_json();
        for key in [
            "\"bench\": \"replay\"",
            "\"decision_digest\"",
            "\"rewrite_digest\"",
            "\"pcc_violations\": 0",
            "\"ok\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No host stamp, peak-RSS sample or clock reading.
        for key in ["host_", "peak_rss", "elapsed_ns", "pps"] {
            assert!(!json.contains(key), "host-dependent {key} in {json}");
        }
    }
}
