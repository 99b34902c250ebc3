//! `replay`: packets in, packets out. An in-memory pcap of minimum-size
//! frames (half IPv4, half IPv6) goes through `PcapReader` → `parse_frame`
//! → a two-pipe `MultiPipeSwitch` → `rewrite_frame` (NAT), pass after pass.
//!
//! Each connection lives SYN → [`DATA_FRAMES`] data frames → FIN inside
//! the capture and is closed when its FIN has been forwarded, so a pass
//! closes what it opened and the next pass finds the switch as the last
//! one did. Mid-capture one DIP-pool update lands: passes alternate
//! between removing a DIP and adding it back.
//!
//! Frames are [`FRAME_GAP`] of simulated time apart: with the switch CPU's
//! ~1 ms install latency that keeps a handful of connections pending at a
//! time, so the update's 256-byte bloom stays almost empty and the
//! false positives the paper accepts do not occur on this input.
//!
//! Every frame of every pass is judged: it must parse, keep its
//! connection's DIP, and its rewritten bytes must pass full checksum
//! recomputation (done between the timed calls, on the frames the rewrite
//! call left in its output arena).

use super::{register_vips, Counters, Layers, Params, Probe, Workload};
use crate::gen::{self, BATCH, DIPS_PER_VIP};
use crate::layers::{self, Mirror};
use crate::oracle::Oracle;
use crate::trace::{Call, Meter};
use silkroad::{ForwardDecision, MultiPipeSwitch, PoolUpdate, SilkRoadConfig};
use sr_types::{AddrFamily, Duration, FiveTuple, Nanos, PacketMeta, RewriteMode, TcpFlags};
use sr_wire::{build_frame, parse_frame, rewrite_frame, FrameSpec, Parsed, PcapReader, PcapWriter};

const CONNECTIONS: usize = 20_000;
const DATA_FRAMES: usize = 8;
/// Connections open at once while the capture is generated.
const ACTIVE: usize = 256;
const PIPES: usize = 2;
const FRAME_GAP: Duration = Duration(10_000);
/// Bytes per slot of the rewrite arena (NAT keeps a frame's length; the
/// largest minimum-size frame is IPv6/TCP at 74 bytes).
const SLOT: usize = 128;

/// Odd VIPs are IPv6, even ones IPv4 — and so are their flows.
fn family_of(v: u32) -> AddrFamily {
    if v % 2 == 1 {
        AddrFamily::V6
    } else {
        AddrFamily::V4
    }
}

pub struct Replay {
    sw: MultiPipeSwitch,
    cfg: SilkRoadConfig,
    pcap: Vec<u8>,
    frames: usize,
    /// Per-frame flow hash, capture order.
    flow_hash: Vec<u64>,
    tuples: Vec<FiveTuple>,
    /// Simulated length of one pass.
    span: Duration,
    pass_no: u64,
    oracle: Oracle,
    digests: Vec<u64>,
    probe: Probe,
    input_hash: u64,
    // Per-batch scratch, reused.
    parsed: Vec<Parsed>,
    metas: Vec<PacketMeta>,
    out: Vec<ForwardDecision>,
    arena: Vec<u8>,
    lens: Vec<u16>,
}

/// Generate the capture: connections take turns emitting their next frame
/// from a bounded active set, so lifetimes overlap like real traffic.
fn capture(seed: u64, connections: usize, active: usize) -> (Vec<u8>, Vec<FiveTuple>) {
    let mut rng = gen::Rng::new(seed ^ 0x7063_6170);
    let mut writer = PcapWriter::new(Vec::new()).expect("writing to memory");
    let mut tuples = Vec::new();
    let mut frame = [0u8; SLOT];
    // (connection index, frames already emitted)
    let mut open: Vec<(usize, usize)> = (0..active.min(connections)).map(|c| (c, 0)).collect();
    let mut next_conn = open.len();
    let per_conn = DATA_FRAMES + 2;
    let mut seq = 0u64;
    while !open.is_empty() {
        let slot = rng.below(open.len() as u64) as usize;
        let (c, sent) = open[slot];
        let tuple = gen::flow(seed, c as u64, c % 2 == 1);
        let flags = match sent {
            0 => TcpFlags::SYN,
            s if s == per_conn - 1 => TcpFlags::FIN.with(TcpFlags::ACK),
            _ => TcpFlags::ACK,
        };
        let spec = FrameSpec {
            tuple,
            flags,
            wire_len: 0,
            seq,
        };
        let n = build_frame(&spec, &mut frame).expect("minimum-size frames fit a slot");
        writer
            .write_frame(Nanos(seq * FRAME_GAP.0), &frame[..n])
            .expect("writing to memory");
        tuples.push(tuple);
        seq += 1;
        if sent + 1 == per_conn {
            if next_conn < connections {
                open[slot] = (next_conn, 0);
                next_conn += 1;
            } else {
                open.swap_remove(slot);
            }
        } else {
            open[slot].1 += 1;
        }
    }
    (writer.finish().expect("writing to memory"), tuples)
}

impl Replay {
    pub fn setup(p: Params) -> Replay {
        let scale = p.scale as usize;
        let connections = CONNECTIONS / scale;
        let (pcap, tuples) = capture(p.seed, connections, ACTIVE / scale);
        let cfg = gen::paper_cfg(connections);
        let hasher = gen::flow_hasher(&cfg);
        let flow_hash = tuples.iter().map(|t| hasher.flow_hash(t)).collect();
        let mut input_hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in &pcap {
            input_hash = (input_hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut sw = MultiPipeSwitch::inline(cfg.clone(), PIPES);
        register_vips(&mut sw, family_of);
        let frames = tuples.len();
        let mut w = Replay {
            sw,
            cfg,
            pcap,
            frames,
            flow_hash,
            tuples,
            span: Duration(frames as u64 * FRAME_GAP.0 + 1_000_000_000),
            pass_no: 0,
            oracle: Oracle::new(),
            digests: Vec::new(),
            probe: Probe::default(),
            input_hash,
            parsed: Vec::with_capacity(BATCH),
            metas: Vec::with_capacity(BATCH),
            out: Vec::with_capacity(BATCH),
            arena: vec![0u8; BATCH * SLOT],
            lens: vec![0u16; BATCH],
        };
        // Warm passes: one of each kind (DIP removed, DIP added back).
        let mut warm = Meter::start(1.0, false);
        w.run_unit(&mut warm);
        w.run_unit(&mut warm);
        w.digests.clear();
        w.probe = Probe::default();
        w
    }
}

impl Workload for Replay {
    fn run_unit(&mut self, m: &mut Meter) {
        let Replay {
            sw,
            pcap,
            flow_hash,
            oracle,
            probe,
            parsed,
            metas,
            out,
            arena,
            lens,
            ..
        } = self;
        let base = Nanos(self.pass_no * self.span.0);
        let update_vip = gen::vip(0, family_of(0));
        let update_dip = gen::dip(0, DIPS_PER_VIP - 1, family_of(0));
        let update_op = if self.pass_no.is_multiple_of(2) {
            PoolUpdate::Remove(update_dip)
        } else {
            PoolUpdate::Add(update_dip)
        };
        let update_at = self.frames / 2;
        let mut updated = false;

        let mut reader = PcapReader::new(pcap).expect("the generated capture is well-formed");
        let mut recs = Vec::with_capacity(BATCH);
        let mut closing: Vec<FiveTuple> = Vec::with_capacity(BATCH);
        let mut digest = 0u64;
        let mut at = 0usize;
        loop {
            m.begin_request();
            recs.clear();
            let due = BATCH.min(self.frames - at.min(self.frames)) as u32;
            m.call(Call::PcapRead, due, false, || {
                while recs.len() < BATCH {
                    match reader.next() {
                        Some(Ok(r)) => recs.push(r),
                        // A malformed record ends the pass; the frame
                        // count check below fails the run.
                        _ => break,
                    }
                }
            });
            if recs.is_empty() {
                m.end_request();
                break;
            }
            let n = recs.len() as u32;
            let now = base.saturating_add(Duration(recs[0].ts.0));
            if !updated && at >= update_at {
                updated = true;
                m.call(Call::RequestUpdate, 1, false, || {
                    sw.request_update(update_vip, update_op, now)
                        .expect("the plan's VIPs are registered")
                });
            }

            parsed.clear();
            metas.clear();
            let mut bad = 0u32;
            m.call(Call::ParseFrame, n, false, || {
                for r in &recs {
                    match parse_frame(r.data) {
                        Ok(p) => {
                            parsed.push(p);
                            metas.push(p.meta);
                        }
                        Err(_) => bad += 1,
                    }
                }
            });
            if bad > 0 {
                // The generator emits only well-formed frames; a parser
                // regression fails them all rather than mis-pairing
                // frames and decisions below.
                for _ in 0..n {
                    oracle.parse_failed();
                }
                m.end_request();
                at += n as usize;
                continue;
            }

            out.clear();
            m.call(Call::ProcessBatch, n, true, || {
                sw.process_batch_into(metas, now, out)
            });

            m.call(Call::RewriteFrame, n, false, || {
                for (i, ((r, p), d)) in recs.iter().zip(parsed.iter()).zip(out.iter()).enumerate() {
                    let slot = &mut arena[i * SLOT..(i + 1) * SLOT];
                    lens[i] = match d.rewrite_op(RewriteMode::Nat) {
                        Some(op) => rewrite_frame(r.data, &p.view, &op, slot).unwrap_or(0) as u16,
                        None => 0,
                    };
                }
            });

            // Judged between the timed calls: PCC, the rewritten bytes'
            // checksums, the digest.
            closing.clear();
            for (i, (p, d)) in parsed.iter().zip(out.iter()).enumerate() {
                oracle.observe(&p.meta.tuple, d);
                oracle.check_frame(&arena[i * SLOT..i * SLOT + usize::from(lens[i])]);
                digest = digest.wrapping_add(gen::packet_digest(flow_hash[at + i], d));
                if p.meta.flags.is_fin() {
                    closing.push(p.meta.tuple);
                }
            }
            if !closing.is_empty() {
                m.call(Call::CloseConnection, closing.len() as u32, false, || {
                    for t in &closing {
                        sw.close_connection(t, now);
                    }
                });
                for t in &closing {
                    oracle.close(t);
                }
            }
            m.end_request();
            at += n as usize;
        }
        if at != self.frames {
            // Frames the reader never delivered count as parse failures.
            for _ in at..self.frames {
                oracle.parse_failed();
            }
        }
        let depth: usize = (0..PIPES)
            .filter_map(|i| sw.pipe(i))
            .map(|p| p.switch().learn_queue_depth())
            .sum();
        probe.learn_depth.push(depth as u32);
        probe.fallback_entries_peak = probe.fallback_entries_peak.max(sw.stats().fallback_entries);
        let live = sw.version_counters(update_vip).map_or(0, |c| c.3 as u64);
        probe.version_live_peak = probe.version_live_peak.max(live / PIPES as u64);
        self.pass_no += 1;
        self.digests.push(digest);
    }

    fn reference_units(&self) -> usize {
        2
    }

    fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn unit_digests(&self) -> &[u64] {
        &self.digests
    }

    fn counters(&mut self) -> Counters {
        super::counters_of_engine(&mut self.sw)
    }

    fn take_probe(&mut self) -> Probe {
        std::mem::take(&mut self.probe)
    }

    fn input_hash(&self) -> u64 {
        self.input_hash
    }

    fn replay_layers(&mut self, min_secs: f64) -> Layers {
        let mut out = Layers::default();
        // The mirror holds one active set's worth of connections; the next
        // ones come and go beside it.
        let mut distinct: Vec<FiveTuple> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for t in &self.tuples {
            if seen.insert(*t) {
                distinct.push(*t);
            }
        }
        let active = (ACTIVE * distinct.len() / CONNECTIONS).max(1);
        let resident = &distinct[..active.min(distinct.len())];
        let cohorts: Vec<Vec<FiveTuple>> = distinct[resident.len()..]
            .chunks(active)
            .take(16)
            .map(<[FiveTuple]>::to_vec)
            .collect();
        let resident_set: std::collections::HashSet<&FiveTuple> = resident.iter().collect();
        let probes: Vec<FiveTuple> = self
            .tuples
            .iter()
            .filter(|t| resident_set.contains(t))
            .copied()
            .collect();
        let per_pipe = SilkRoadConfig {
            conn_capacity: self.cfg.conn_capacity.div_ceil(PIPES),
            ..self.cfg.clone()
        };
        let mut mirror = Mirror::new(&per_pipe);
        mirror.table(resident, &cohorts, &probes, min_secs, &mut out);
        mirror.hash(&self.tuples, min_secs, &mut out);
        mirror.pool_select(&self.tuples, family_of, min_secs, &mut out);
        mirror.bloom_hash(&self.tuples, min_secs, &mut out);
        mirror.transit(&self.tuples, 8, min_secs, &mut out);
        layers::steer(self.cfg.seed, PIPES, &self.tuples, min_secs, &mut out);
        out
    }
}
