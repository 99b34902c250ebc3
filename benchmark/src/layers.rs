//! Layer replays: stages that live inside `process_batch_into` cannot be
//! timed from outside the composed call, so each is driven alone — the
//! same keys through the layer's public function, on a mirror built from
//! the same configuration. The sum of the replayed layers against the
//! composed path is the ledger's residual.

use crate::workloads::Layers;
use silkroad::conn_table::{ConnTable, ConnValue};
use silkroad::pool::{DipPool, DipPoolTable};
use silkroad::transit::TransitTable;
use silkroad::vip_table::VipTable;
use silkroad::{FlowSteering, HashedKey, KeyHasher, SilkRoadConfig};
use sr_hash::HashFn;
use sr_types::{AddrFamily, FiveTuple, Nanos, PoolVersion, Vip};
use std::hint::black_box;
use std::time::Instant;

/// Run `pass` (which returns the operations it performed) until at least
/// `min_secs` have gone by; ns per operation over all passes.
fn ns_per_op(min_secs: f64, mut pass: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        ops += pass();
        let el = start.elapsed();
        if el.as_secs_f64() >= min_secs || ops == 0 {
            return crate::trace::ratio(el.as_nanos() as f64, ops as f64);
        }
    }
}

/// Mirrors of the switch's tables and its hash-once layout.
pub struct Mirror {
    cfg: SilkRoadConfig,
    table: ConnTable,
    hasher: KeyHasher,
    capacity: usize,
    rss_before: u64,
}

impl Mirror {
    pub fn new(cfg: &SilkRoadConfig) -> Mirror {
        let rss_before = crate::host::rss_bytes();
        let table = ConnTable::new(cfg);
        let transit = TransitTable::new(
            cfg.transit_bytes,
            cfg.transit_hashes,
            cfg.seed,
            cfg.transit_enabled,
        );
        let hasher = KeyHasher::new(
            table.stage_fns(),
            table.match_fn(),
            HashFn::new(cfg.seed ^ 0x5e1ec7),
            transit.hash_fns(),
        );
        Mirror {
            cfg: cfg.clone(),
            capacity: table.capacity(),
            table,
            hasher,
            rss_before,
        }
    }

    fn prehash(&self, tuples: &[FiveTuple]) -> Vec<HashedKey> {
        tuples.iter().map(|t| self.hasher.hash_tuple(t)).collect()
    }

    fn value(t: &FiveTuple) -> ConnValue {
        ConnValue {
            vip: Vip(t.dst),
            version: PoolVersion(0),
            dip: crate::gen::dip(0, 0, t.family()),
            arrived: Nanos::ZERO,
        }
    }

    fn install(&mut self, tuples: &[FiveTuple], hashed: &[HashedKey]) -> u64 {
        let mut n = 0;
        for (t, h) in tuples.iter().zip(hashed) {
            let placed = self.table.install_pre(
                h.key().as_slice(),
                h.conn_stage_hashes(),
                h.conn_match_hash(),
                Self::value(t),
            );
            n += u64::from(placed.is_ok());
        }
        n
    }

    fn remove(&mut self, hashed: &[HashedKey]) -> u64 {
        let mut n = 0;
        for h in hashed {
            n += u64::from(self.table.remove(h.key().as_slice()).is_ok());
        }
        n
    }

    /// The ConnTable layer. `resident` is installed first (timed as the
    /// fill when `cohorts` is empty). `cohorts` — connections that come
    /// and go at that occupancy — are installed and removed in turn to
    /// time writes beside the resident set. `probes` are then located and
    /// resolved like the data plane's split lookup does.
    pub fn table(
        &mut self,
        resident: &[FiveTuple],
        cohorts: &[Vec<FiveTuple>],
        probes: &[FiveTuple],
        min_secs: f64,
        out: &mut Layers,
    ) {
        let hashed = self.prehash(resident);
        let t0 = Instant::now();
        let installed = self.install(resident, &hashed);
        let fill_ns = t0.elapsed().as_nanos() as f64;
        drop(hashed);
        // Host bytes the provisioned table costs, fill included; the
        // pre-hash buffer is gone again by the time RSS is read.
        out.host_bytes_per_slot = crate::trace::ratio(
            crate::host::rss_bytes().saturating_sub(self.rss_before) as f64,
            self.capacity as f64,
        );

        if cohorts.is_empty() {
            out.install_ns = crate::trace::ratio(fill_ns, installed as f64);
            out.moves_per_install =
                crate::trace::ratio(self.table.total_moves() as f64, installed as f64);
        } else {
            let hashed: Vec<Vec<HashedKey>> = cohorts.iter().map(|c| self.prehash(c)).collect();
            let moves0 = self.table.total_moves();
            let (mut ins_ns, mut rem_ns, mut ins, mut rem) = (0u128, 0u128, 0u64, 0u64);
            // Counted over the first turn only: the timing loop below runs
            // for a time, the count must repeat exactly.
            let mut first_turn = None;
            let start = Instant::now();
            loop {
                for (c, h) in cohorts.iter().zip(&hashed) {
                    let t = Instant::now();
                    ins += self.install(c, h);
                    ins_ns += t.elapsed().as_nanos();
                    let t = Instant::now();
                    rem += self.remove(h);
                    rem_ns += t.elapsed().as_nanos();
                }
                first_turn.get_or_insert((self.table.total_moves() - moves0, ins));
                if start.elapsed().as_secs_f64() >= min_secs || ins == 0 {
                    break;
                }
            }
            out.install_ns = crate::trace::ratio(ins_ns as f64, ins as f64);
            out.remove_ns = crate::trace::ratio(rem_ns as f64, rem as f64);
            let (moves, installs) = first_turn.unwrap_or((0, 0));
            out.moves_per_install = crate::trace::ratio(moves as f64, installs as f64);
        }

        let hashed = self.prehash(probes);
        let mut located: Vec<Option<(u32, u32)>> = vec![None; hashed.len()];
        let table = &self.table;
        out.locate_ns = ns_per_op(min_secs, || {
            for (slot, h) in located.iter_mut().zip(&hashed) {
                *slot = table.locate(
                    h.key().as_slice(),
                    h.conn_stage_hashes(),
                    h.conn_match_hash(),
                );
            }
            hashed.len() as u64
        });
        let table = &mut self.table;
        out.resolve_ns = ns_per_op(min_secs, || {
            let mut hits = 0;
            for (loc, h) in located.iter().zip(&hashed) {
                if let Some((stage, slot)) = *loc {
                    black_box(table.lookup_marking_at(stage, slot, h.key().as_slice()));
                    hits += 1;
                }
            }
            hits
        });
        drop(hashed);

        if cohorts.is_empty() {
            let hashed = self.prehash(resident);
            let t0 = Instant::now();
            let removed = self.remove(&hashed);
            out.remove_ns = crate::trace::ratio(t0.elapsed().as_nanos() as f64, removed as f64);
        }
    }

    /// `KeyHasher::hash_tuple` over the probe stream.
    pub fn hash(&self, probes: &[FiveTuple], min_secs: f64, out: &mut Layers) {
        out.hash_ns = ns_per_op(min_secs, || {
            for t in probes {
                black_box(self.hasher.hash_tuple(black_box(t)));
            }
            probes.len() as u64
        });
    }

    /// The miss path's lazy bloom hashes (`KeyHasher::bloom_hashes`).
    pub fn bloom_hash(&self, probes: &[FiveTuple], min_secs: f64, out: &mut Layers) {
        let keys = self.prehash(&probes[..probes.len().min(4_096)]);
        out.bloom_hash_ns = ns_per_op(min_secs, || {
            for h in &keys {
                black_box(self.hasher.bloom_hashes(black_box(h.key())));
            }
            keys.len() as u64
        });
    }

    /// The TransitTable's record and check, at the fill an update with
    /// `pending` connections in flight produces.
    pub fn transit(&self, probes: &[FiveTuple], pending: usize, min_secs: f64, out: &mut Layers) {
        let keys = self.prehash(&probes[..probes.len().min(4_096)]);
        if keys.is_empty() {
            return;
        }
        let blooms: Vec<_> = keys
            .iter()
            .map(|h| self.hasher.bloom_hashes(h.key()))
            .collect();
        let mut t = TransitTable::new(
            self.cfg.transit_bytes,
            self.cfg.transit_hashes,
            self.cfg.seed,
            true,
        );
        let pending = pending.clamp(1, blooms.len());
        let (mut rec_ns, mut chk_ns, mut recs, mut chks) = (0u128, 0u128, 0u64, 0u64);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < min_secs {
            // One update's life: hold, record its pending set, serve the
            // draining phase's checks, release (which clears the filter).
            t.acquire();
            let t0 = Instant::now();
            for b in &blooms[..pending] {
                t.record_hashed(b.as_slice());
            }
            rec_ns += t0.elapsed().as_nanos();
            recs += pending as u64;
            let t0 = Instant::now();
            for b in &blooms {
                black_box(t.check_hashed(b.as_slice()));
            }
            chk_ns += t0.elapsed().as_nanos();
            chks += blooms.len() as u64;
            t.release();
        }
        out.transit_record_ns = crate::trace::ratio(rec_ns as f64, recs as f64);
        out.transit_check_ns = crate::trace::ratio(chk_ns as f64, chks as f64);
    }

    /// `VipTable::lookup` alone (every packet's admission), then the
    /// VIPTable miss path's resolve: that lookup, the versioned pool fetch
    /// and `DipPool::select_hashed`.
    pub fn pool_select(
        &self,
        probes: &[FiveTuple],
        family_of: impl Fn(u32) -> AddrFamily,
        min_secs: f64,
        out: &mut Layers,
    ) {
        let mut vips = VipTable::new();
        let mut pools = DipPoolTable::new();
        for v in 0..crate::gen::VIPS {
            let f = family_of(v);
            vips.insert(crate::gen::vip(v, f), PoolVersion(0));
            pools.insert(
                crate::gen::vip(v, f),
                PoolVersion(0),
                DipPool::new(crate::gen::pool(v, f)),
            );
        }
        let keys: Vec<(FiveTuple, u64)> = probes[..probes.len().min(65_536)]
            .iter()
            .map(|t| (*t, self.hasher.hash_tuple(t).select_hash()))
            .collect();
        out.vip_lookup_ns = ns_per_op(min_secs, || {
            for (t, _) in &keys {
                black_box(vips.lookup(black_box(&t.dst)));
            }
            keys.len() as u64
        });
        out.pool_select_ns = ns_per_op(min_secs, || {
            for (t, select) in &keys {
                let dip = vips
                    .lookup(&t.dst)
                    .and_then(|view| pools.get(Vip(t.dst), view.newest()))
                    .and_then(|p| p.select_hashed(*select));
                black_box(dip);
            }
            keys.len() as u64
        });
    }
}

/// `FlowSteering::pipe_for` over the probe stream.
pub fn steer(seed: u64, pipes: usize, probes: &[FiveTuple], min_secs: f64, out: &mut Layers) {
    let steering = FlowSteering::new(seed, pipes.max(1));
    out.steer_ns = ns_per_op(min_secs, || {
        for t in probes {
            black_box(steering.pipe_for(black_box(t)));
        }
        probes.len() as u64
    });
}

/// One `sr_exec::spsc` hop: push on one thread, pop on another, and the
/// answer back the same way; half the round trip. The consumer parks on
/// an empty ring, so this is the hop's cost when the worker has gone
/// idle — the worst case a streaming engine pays per hand-off. Skipped
/// (0) on a one-core host.
pub fn ring_hop(min_secs: f64, out: &mut Layers) {
    if crate::host::claim_threads(2).is_err() {
        return;
    }
    let (mut there_tx, mut there_rx) = sr_exec::spsc::<u64>(4);
    let (mut back_tx, mut back_rx) = sr_exec::spsc::<u64>(4);
    let echo = std::thread::spawn(move || {
        while let Some(v) = there_rx.pop() {
            if back_tx.push(v).is_err() {
                break;
            }
        }
    });
    let mut sample = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < min_secs || sample.len() < 100 {
        let t0 = Instant::now();
        if there_tx.push(sample.len() as u64).is_err() || back_rx.pop().is_none() {
            break;
        }
        sample.push(t0.elapsed().as_nanos() as f64 / 2.0);
    }
    there_tx.close();
    echo.join().expect("the echo thread only pops and pushes");
    out.ring_hop_ns = crate::stats::median(&sample);
}
