//! Integration tests of the 3-step update protocol and the switch's less
//! common paths: update queueing under churn, version-ring exhaustion with
//! fallback migration, ConnTable overflow, hybrid mode, and the direct-DIP
//! mapping.

use silkroad::{ConnMapping, PoolUpdate, SilkRoadConfig, SilkRoadSwitch, UpdatePhase};
use sr_types::{Addr, Dip, Duration, FiveTuple, Nanos, PacketMeta, Vip};

fn vip() -> Vip {
    Vip(Addr::v4(20, 0, 0, 1, 80))
}

fn dip(i: u8) -> Dip {
    Dip(Addr::v4(10, 0, 0, i, 20))
}

fn conn(i: u32) -> FiveTuple {
    FiveTuple::tcp(Addr::v4_indexed(1, i, 30_000), Addr::v4(20, 0, 0, 1, 80))
}

fn switch_with(cfg: SilkRoadConfig, dips: u8) -> SilkRoadSwitch {
    let mut sw = SilkRoadSwitch::new(cfg);
    sw.add_vip(vip(), (1..=dips).map(dip).collect()).unwrap();
    sw
}

#[test]
fn update_storm_queues_and_completes() {
    let mut sw = switch_with(SilkRoadConfig::small_test(), 8);
    let mut t = Nanos::ZERO;
    // Continuous traffic keeps connections pending across every update;
    // each burst issues a remove immediately followed by the re-add, so
    // the add always queues behind the in-flight remove.
    for i in 0..400u32 {
        sw.process_packet(&PacketMeta::syn(conn(i)), t);
        if i % 20 == 10 {
            let d = dip(1 + ((i / 20) % 7) as u8);
            sw.request_update(vip(), PoolUpdate::Remove(d), t).unwrap();
            sw.request_update(vip(), PoolUpdate::Add(d), t).unwrap();
        }
        t += Duration::from_micros(200);
    }
    t += Duration::from_secs(1);
    sw.advance(t);
    assert_eq!(sw.update_phase(vip()), Some(UpdatePhase::Idle));
    let s = sw.stats();
    assert_eq!(
        s.updates_completed + s.updates_noop,
        s.updates_requested,
        "every request must terminate: {s}"
    );
    assert!(s.updates_queued > 0, "storm should have queued: {s}");
    // The pool never went empty and traffic still flows.
    let d = sw.process_packet(&PacketMeta::syn(conn(100_000)), t);
    assert!(d.dip.is_some());
}

#[test]
fn version_exhaustion_falls_back() {
    let mut cfg = SilkRoadConfig::small_test();
    cfg.version_bits = 2; // ring of 4
    cfg.version_reuse = false; // force allocation pressure
    let mut sw = switch_with(cfg, 4);
    let mut t = Nanos::ZERO;
    // Each round: connections pin the current version, then an update.
    for round in 0..12u32 {
        for i in 0..20 {
            sw.process_packet(&PacketMeta::syn(conn(round * 100 + i)), t);
        }
        t += Duration::from_millis(20);
        sw.advance(t);
        let d = dip(1 + (round % 3) as u8);
        let op = if round % 2 == 0 {
            PoolUpdate::Remove(d)
        } else {
            PoolUpdate::Add(d)
        };
        sw.request_update(vip(), op, t).unwrap();
        t += Duration::from_millis(20);
        sw.advance(t);
    }
    let s = sw.stats();
    assert!(
        s.version_exhaustions > 0,
        "a 4-version ring without reuse must exhaust: {s}"
    );
    assert!(s.exhaustion_migrations > 0, "{s}");
    // Migrated connections still resolve via the fallback table.
    let probe = conn(5); // round 0 connection
    let d = sw.process_packet(&PacketMeta::data(probe, 100), t);
    assert!(d.dip.is_some(), "fallback lost the connection");
}

#[test]
fn conn_table_overflow_spills_to_software() {
    let mut cfg = SilkRoadConfig::small_test();
    cfg.conn_capacity = 64; // tiny table
    let mut sw = switch_with(cfg, 4);
    let mut t = Nanos::ZERO;
    for i in 0..600u32 {
        sw.process_packet(&PacketMeta::syn(conn(i)), t);
        t += Duration::from_micros(100);
    }
    t += Duration::from_secs(1);
    sw.advance(t);
    let s = sw.stats();
    assert!(s.conn_table_overflows > 0, "{s}");
    assert_eq!(s.fallback_entries as usize, sw_fallback_len(&sw, s));
    // Overflowed connections still map consistently.
    let d1 = sw.process_packet(&PacketMeta::data(conn(599), 100), t);
    let d2 = sw.process_packet(&PacketMeta::data(conn(599), 100), t);
    assert_eq!(d1.dip, d2.dip);
    assert!(d1.dip.is_some());
}

fn sw_fallback_len(_sw: &SilkRoadSwitch, s: &silkroad::SwitchStats) -> usize {
    // fallback_entries is maintained as a counter; cross-check is indirect
    // (the field is private), so just sanity-bound it here.
    s.fallback_entries as usize
}

#[test]
fn direct_dip_mode_full_protocol() {
    let mut cfg = SilkRoadConfig::small_test();
    cfg.mapping = ConnMapping::DirectDip;
    let mut sw = switch_with(cfg, 4);
    let mut t = Nanos::ZERO;
    let mut assigned = Vec::new();
    for i in 0..100u32 {
        assigned.push(sw.process_packet(&PacketMeta::syn(conn(i)), t).dip.unwrap());
        t += Duration::from_micros(100);
    }
    t += Duration::from_millis(20);
    sw.advance(t);
    sw.request_update(vip(), PoolUpdate::Remove(dip(3)), t)
        .unwrap();
    t += Duration::from_millis(20);
    sw.advance(t);
    // Installed connections keep their stored DIP even after the version
    // that created them is gone.
    for (i, before) in assigned.iter().enumerate() {
        let after = sw.process_packet(&PacketMeta::data(conn(i as u32), 100), t);
        assert_eq!(after.dip, Some(*before), "conn {i} moved in direct mode");
    }
}

#[test]
fn updates_during_recording_and_draining_queue() {
    let mut cfg = SilkRoadConfig::small_test();
    cfg.cpu.insertions_per_sec = 1_000; // slow: phases last visibly long
    let mut sw = switch_with(cfg, 6);
    let mut t = Nanos::ZERO;
    for i in 0..50u32 {
        sw.process_packet(&PacketMeta::syn(conn(i)), t);
    }
    sw.request_update(vip(), PoolUpdate::Remove(dip(1)), t)
        .unwrap();
    assert_eq!(sw.update_phase(vip()), Some(UpdatePhase::Recording));
    // Request another mid-flight: must queue, not corrupt the state machine.
    sw.request_update(vip(), PoolUpdate::Remove(dip(2)), t)
        .unwrap();
    assert_eq!(sw.stats().updates_queued, 1);
    t += Duration::from_secs(2);
    sw.advance(t);
    assert_eq!(sw.update_phase(vip()), Some(UpdatePhase::Idle));
    assert_eq!(sw.stats().updates_completed, 2);
    let pool = sw.current_dips(vip()).unwrap();
    assert!(!pool.contains(&dip(1)) && !pool.contains(&dip(2)));
}

#[test]
fn transit_table_stats_track_protocol() {
    let mut sw = switch_with(SilkRoadConfig::small_test(), 4);
    let mut t = Nanos::ZERO;
    // Pending connections + update => recordings happen.
    for i in 0..30u32 {
        sw.process_packet(&PacketMeta::syn(conn(i)), t);
    }
    sw.request_update(vip(), PoolUpdate::Remove(dip(1)), t)
        .unwrap();
    // New arrivals during step 1 are recorded.
    for i in 100..130u32 {
        sw.process_packet(&PacketMeta::syn(conn(i)), t + Duration::from_micros(10));
    }
    t += Duration::from_millis(50);
    sw.advance(t);
    let (recorded, _, _, size) = sw.transit_counters();
    assert!(recorded > 0, "step 1 never recorded");
    assert_eq!(size, 256);
}

#[test]
fn vip_lifecycle_add_remove_readd() {
    // A two-version ring: the next version allocated is whichever one a
    // stale reference release frees, so a leftover entry of the first
    // incarnation would hand a live version number to a new pool.
    let mut sw = SilkRoadSwitch::new(SilkRoadConfig {
        version_bits: 1,
        ..SilkRoadConfig::small_test()
    });
    sw.add_vip(vip(), vec![dip(1)]).unwrap();
    let a = conn(1);
    sw.process_packet(&PacketMeta::syn(a), Nanos::ZERO);
    sw.advance(Nanos::from_millis(10));
    assert_eq!(sw.conn_count(), 1, "connection A did not install");
    sw.remove_vip(vip()).unwrap();
    assert_eq!(
        sw.conn_count(),
        0,
        "removal left the VIP's entries installed"
    );
    // Traffic to a removed VIP passes through untouched.
    let d = sw.process_packet(&PacketMeta::data(a, 100), Nanos::from_millis(11));
    assert_eq!(d.path, silkroad::DataPath::NotVip);

    // Re-adding works from scratch: connection B lands on dip(2).
    sw.add_vip(vip(), vec![dip(1), dip(2)]).unwrap();
    let mut t = Nanos::from_millis(12);
    let b = (2..64)
        .map(conn)
        .find(|c| {
            let to_dip2 = sw.process_packet(&PacketMeta::syn(*c), t).dip == Some(dip(2));
            if !to_dip2 {
                sw.close_connection(c, t);
            }
            to_dip2
        })
        .expect("some flow selects dip(2)");
    t += Duration::from_millis(10);
    sw.advance(t);
    assert_eq!(sw.conn_count(), 1, "only B is installed");
    let b_dip = |sw: &mut SilkRoadSwitch, t| sw.process_packet(&PacketMeta::data(b, 100), t).dip;
    assert_eq!(b_dip(&mut sw, t), Some(dip(2)));

    // One update: B's version is no longer current. Then A closes — it
    // must not release a reference on the new incarnation's versions —
    // and two more updates recycle every version B does not hold.
    let updates = [
        PoolUpdate::Remove(dip(1)),
        PoolUpdate::Add(dip(3)),
        PoolUpdate::Add(dip(4)),
    ];
    for (i, op) in updates.into_iter().enumerate() {
        sw.request_update(vip(), op, t).unwrap();
        t += Duration::from_millis(10);
        sw.advance(t);
        assert_eq!(sw.update_phase(vip()), Some(UpdatePhase::Idle));
        if i == 0 {
            sw.close_connection(&a, t);
        }
        assert_eq!(b_dip(&mut sw, t), Some(dip(2)), "B moved after update {i}");
        assert_eq!(sw.conn_count(), 1);
    }
}
