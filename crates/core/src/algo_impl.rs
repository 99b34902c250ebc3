//! SilkRoad behind the `sr-algo` boundary — implementation #1 of the zoo.
//!
//! The production switch keeps its own chassis (learning filter, 3-step
//! updates, TransitTable, batched installs); this module adapts its two
//! halves to the algorithm traits so the comparison harness can drive
//! SilkRoad through the same seam as Concury, CuCoTrack, and the hybrid:
//!
//! * [`ConnTable`] is a [`sr_algo::ConnState`]: the same digest-matched
//!   cuckoo table, the same packet-time hashes (the trait's
//!   [`ConnHashes`] is literally the type the learn→install pipeline
//!   carries), the same SRAM accounting.
//! * [`SilkRoadSwitch`] is a [`sr_algo::Steering`]: the miss path resolves
//!   through the switch's own versioned pools with the identical
//!   `ecmp_select` kernel, and pool-membership updates map onto the 3-step
//!   `request_update` state machine.
//!
//! Nothing here is called from the switch's packet pipeline; the adapters
//! reuse its pieces instead — the ConnTable probe is the pipeline's own
//! `locate` + `lookup_marking_at`, and a miss selects with the same
//! `ecmp_select` over the same pool — so the boundary adds no second
//! implementation for the harness to drift from.

use crate::conn_table::ConnTable;
use crate::pool::PoolUpdate;
use crate::switch::SilkRoadSwitch;
use sr_algo::{ConnHashes, ConnHit, ConnRecord, ConnState, ConnStateDesign, StateFull};
use sr_algo::{Steer, Steering};
use sr_types::{Dip, Nanos, PoolVersion, TupleKey, Vip};

/// Clamp a table-spec width into the boundary's `u8` bit fields.
fn width_u8(bits: u32) -> u8 {
    u8::try_from(bits).unwrap_or(u8::MAX)
}

/// `hashes` when its lane count matches the table's stage layout (the
/// packet-time hash pass, reused the way the switch's install drain does),
/// otherwise the key re-hashed for this table.
fn table_hashes(table: &ConnTable, key: &TupleKey, hashes: &ConnHashes) -> ConnHashes {
    let stage_fns = table.stage_fns();
    if hashes.stages() == stage_fns.len() {
        return *hashes;
    }
    let mut lanes = [0u64; sr_algo::MAX_PACKET_HASHES];
    for (lane, f) in lanes.iter_mut().zip(stage_fns) {
        *lane = f.hash(key.as_slice());
    }
    let stages = u8::try_from(stage_fns.len()).unwrap_or(u8::MAX);
    ConnHashes::from_parts(lanes, stages, table.match_fn().hash(key.as_slice()))
}

impl ConnState for ConnTable {
    /// The data plane's marking probe: `locate` + `lookup_marking_at`.
    fn lookup(&mut self, key: &TupleKey, hashes: &ConnHashes) -> Option<ConnHit> {
        let h = table_hashes(self, key, hashes);
        let (stage, slot) = self.locate(key.as_slice(), h.stage_hashes(), h.match_hash())?;
        let (record, exact, _resident) = self.lookup_marking_at(stage, slot, key.as_slice());
        Some(ConnHit { record, exact })
    }

    fn insert(
        &mut self,
        key: &TupleKey,
        hashes: &ConnHashes,
        record: ConnRecord,
    ) -> Result<(), StateFull> {
        let h = table_hashes(self, key, hashes);
        self.install_pre(key.as_slice(), h.stage_hashes(), h.match_hash(), record)
            .map(|_| ())
            .map_err(|_| StateFull)
    }

    fn remove(&mut self, key: &TupleKey) -> Option<ConnRecord> {
        ConnTable::remove(self, key.as_slice()).ok()
    }

    fn expire_idle(&mut self, now: Nanos) -> usize {
        self.aging_scan(now).len()
    }

    fn entries(&self) -> usize {
        self.len()
    }

    fn state_bytes(&self) -> u64 {
        self.occupied_bytes()
    }

    fn design(&self) -> ConnStateDesign {
        let spec = self.spec();
        match self.mapping() {
            crate::config::ConnMapping::Version => ConnStateDesign::DigestVersion {
                digest_bits: width_u8(spec.match_bits),
                version_bits: width_u8(spec.action_bits),
            },
            // Fallback mode stores a digest key with a full-DIP action; the
            // digest is the only per-flow match state.
            crate::config::ConnMapping::DirectDip => ConnStateDesign::Digest {
                digest_bits: width_u8(spec.match_bits),
            },
        }
    }
}

impl Steering for SilkRoadSwitch {
    fn is_vip(&self, vip: Vip) -> bool {
        self.current_dips(vip).is_some()
    }

    fn steer_miss(&mut self, vip: Vip, select_hash: u64, _now: Nanos) -> Option<Steer> {
        let version = self.current_version(vip)?;
        let dips = self.current_dips(vip)?;
        let idx = sr_hash::ecmp_select(select_hash, dips.len())?;
        let dip = dips.get(idx).copied()?;
        Some(Steer {
            dip,
            version,
            // SilkRoad is fully stateful: every flow gets a ConnTable entry.
            needs_entry: true,
            stamp: None,
        })
    }

    fn add_vip(&mut self, vip: Vip, dips: &[Dip]) -> bool {
        SilkRoadSwitch::add_vip(self, vip, dips.to_vec()).is_ok()
    }

    fn update_pool(&mut self, vip: Vip, dips: &[Dip], now: Nanos) -> Option<PoolVersion> {
        // The boundary speaks full memberships; the switch speaks deltas.
        // Diff and feed the 3-step machine one op at a time (extra ops
        // queue behind the active update, exactly as operators' would).
        let current: Vec<Dip> = self.current_dips(vip)?.to_vec();
        for dip in current.iter().filter(|d| !dips.contains(d)) {
            self.request_update(vip, PoolUpdate::Remove(*dip), now)
                .ok()?;
        }
        for dip in dips.iter().filter(|d| !current.contains(d)) {
            self.request_update(vip, PoolUpdate::Add(*dip), now).ok()?;
        }
        self.current_version(vip)
    }

    fn advance(&mut self, now: Nanos) {
        SilkRoadSwitch::advance(self, now);
    }

    fn table_bytes(&self) -> u64 {
        let m = self.memory();
        m.vip_table + m.dip_pool_table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SilkRoadConfig;
    use sr_hash::HashFn;
    use sr_types::{Addr, FiveTuple, PacketMeta};

    fn vip() -> Vip {
        Vip(Addr::v4(20, 0, 0, 1, 80))
    }

    fn dips(n: u8) -> Vec<Dip> {
        (1..=n).map(|i| Dip(Addr::v4(10, 0, 0, i, 20))).collect()
    }

    fn flow(g: u32) -> FiveTuple {
        FiveTuple::tcp(Addr::v4_indexed(100, g, 1024), vip().0)
    }

    fn switch() -> SilkRoadSwitch {
        let mut sw = SilkRoadSwitch::new(SilkRoadConfig::small_test());
        sw.add_vip(vip(), dips(4)).unwrap();
        sw
    }

    /// The trait miss path and the switch's own packet loop choose the
    /// same DIP for the same flow: both run `ecmp_select` with the
    /// switch's select hash over the same current pool.
    #[test]
    fn steer_miss_is_bit_identical_to_the_packet_loop() {
        let mut a = switch();
        let mut b = switch();
        let select_fn = HashFn::new(a.config().seed ^ 0x5e1ec7);
        for g in 0..200 {
            let pkt = PacketMeta::syn(flow(g));
            let want = a.process_packet(&pkt, Nanos(0));
            let select = select_fn.hash(pkt.tuple.tuple_key().as_slice());
            let got = Steering::steer_miss(&mut b, vip(), select, Nanos(0)).unwrap();
            assert_eq!(Some(got.dip), want.dip, "flow {g} diverged");
            assert_eq!(Some(got.version), want.version);
            assert!(got.needs_entry);
        }
    }

    /// Membership-diff updates land on the same current pool the delta
    /// API produces, and bump the version through the 3-step machine.
    #[test]
    fn update_pool_diffs_match_delta_updates() {
        let mut a = switch();
        let mut b = switch();
        let v_before = a.current_version(vip()).unwrap();
        // a: boundary full-membership update; b: explicit deltas.
        let target = dips(6);
        Steering::update_pool(&mut a, vip(), &target, Nanos(10)).unwrap();
        b.request_update(
            vip(),
            PoolUpdate::Add(Dip(Addr::v4(10, 0, 0, 5, 20))),
            Nanos(10),
        )
        .unwrap();
        b.request_update(
            vip(),
            PoolUpdate::Add(Dip(Addr::v4(10, 0, 0, 6, 20))),
            Nanos(10),
        )
        .unwrap();
        assert_eq!(a.current_dips(vip()), b.current_dips(vip()));
        assert_eq!(a.current_version(vip()), b.current_version(vip()));
        assert_ne!(a.current_version(vip()).unwrap(), v_before);
    }

    /// The ConnTable behaves identically through the trait and through its
    /// inherent API: same hit/miss results, same memory accounting.
    #[test]
    fn conn_state_adapter_matches_inherent_api() {
        let cfg = SilkRoadConfig::small_test();
        let mut table = ConnTable::new(&cfg);
        let record = ConnRecord {
            vip: vip(),
            version: PoolVersion(2),
            dip: Dip(Addr::v4(10, 0, 0, 3, 20)),
            arrived: Nanos(5),
        };
        let stage_fns = table.stage_fns().to_vec();
        let match_fn = table.match_fn();
        for g in 0..64u32 {
            let key = flow(g).tuple_key();
            let mut lanes = [0u64; sr_algo::MAX_PACKET_HASHES];
            for (slot, f) in lanes.iter_mut().zip(stage_fns.iter()) {
                *slot = f.hash(key.as_slice());
            }
            let hashes =
                ConnHashes::from_parts(lanes, stage_fns.len() as u8, match_fn.hash(key.as_slice()));
            ConnState::insert(&mut table, &key, &hashes, record).unwrap();
            let hit = ConnState::lookup(&mut table, &key, &hashes).unwrap();
            assert!(hit.exact);
            assert_eq!(hit.record, record);
        }
        assert_eq!(ConnState::entries(&table), 64);
        assert_eq!(ConnState::state_bytes(&table), table.occupied_bytes());
        assert_eq!(
            ConnState::design(&table),
            ConnStateDesign::DigestVersion {
                digest_bits: cfg.digest_bits,
                version_bits: cfg.version_bits,
            }
        );
        let key = flow(0).tuple_key();
        assert!(ConnState::remove(&mut table, &key).is_some());
        assert_eq!(ConnState::entries(&table), 63);
    }
}
