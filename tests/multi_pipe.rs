//! Decision-equivalence: the sharded [`MultiPipeSwitch`] must forward
//! every flow exactly as a single [`SilkRoadSwitch`] built from the same
//! configuration — same DIP, same path, same version — including across
//! a DIP-pool update, where per-connection consistency (PCC) must hold
//! in every pipe.
//!
//! Both switches share one seed, so every hash family (digest, bucket,
//! select, bloom, steering) is identical; the digest is widened to 24
//! bits and the transit bloom to 4 KB so collision/false-positive
//! geometry — the only place shard-local table sizes could diverge from
//! the monolithic switch — is driven to zero for these populations.

use silkroad::{
    DataPath, ForwardDecision, MultiPipeSwitch, PoolUpdate, SilkRoadConfig, SilkRoadSwitch,
    UpdatePhase,
};
use sr_types::{Addr, Dip, FiveTuple, Nanos, PacketMeta, Vip};

const PIPES: usize = 4;
const N_EST: u32 = 512;
const N_PEND: u32 = 128;

fn cfg() -> SilkRoadConfig {
    SilkRoadConfig {
        conn_capacity: 8_192,
        digest_bits: 24,
        transit_bytes: 4_096,
        ..Default::default()
    }
}

fn vip() -> Vip {
    Vip(Addr::v4(20, 0, 0, 1, 80))
}

fn dips() -> Vec<Dip> {
    (1..=8).map(|i| Dip(Addr::v4(10, 0, 0, i, 20))).collect()
}

fn conn(i: u32) -> FiveTuple {
    FiveTuple::tcp(Addr::v4_indexed(100, i, 1024 + (i % 7) as u16), vip().0)
}

/// Run one batch through both switches and assert the decision streams
/// are bit-identical (DIP, path, version, hit flags — `ForwardDecision`
/// is `Eq`).
fn lockstep(
    multi: &mut MultiPipeSwitch,
    single: &mut SilkRoadSwitch,
    pkts: &[PacketMeta],
    now: Nanos,
    label: &str,
) -> Vec<ForwardDecision> {
    let m = multi.process_batch(pkts, now);
    let s = single.process_batch(pkts, now);
    for (i, (dm, ds)) in m.iter().zip(s.iter()).enumerate() {
        assert_eq!(dm, ds, "{label}: packet {i} diverged");
    }
    m
}

#[test]
fn multi_pipe_decisions_match_single_pipe_across_update() {
    let mut multi = MultiPipeSwitch::inline(cfg(), PIPES);
    let mut single = SilkRoadSwitch::new(cfg());
    multi.add_vip(vip(), dips()).unwrap();
    single.add_vip(vip(), dips()).unwrap();

    // Phase 1 — establish: first packets take identical miss paths.
    let syns: Vec<PacketMeta> = (0..N_EST).map(|i| PacketMeta::syn(conn(i))).collect();
    lockstep(&mut multi, &mut single, &syns, Nanos::ZERO, "establish");

    // Phase 2 — steady state: every flow resolves via ConnTable in both.
    let t1 = Nanos::from_secs(1);
    multi.advance(t1);
    single.advance(t1);
    assert_eq!(multi.conn_count(), N_EST as usize);
    assert_eq!(single.conn_count(), N_EST as usize);
    let data: Vec<PacketMeta> = (0..N_EST).map(|i| PacketMeta::data(conn(i), 800)).collect();
    let before = lockstep(&mut multi, &mut single, &data, t1, "steady state");
    assert!(before.iter().all(|d| d.path == DataPath::AsicConnTable));

    // Phase 3 — new flows go pending, then a DIP is removed while they
    // are still in transit (the PCC-hazard window of §4.3).
    let t2 = Nanos::from_secs(2);
    let pend_syns: Vec<PacketMeta> = (N_EST..N_EST + N_PEND)
        .map(|i| PacketMeta::syn(conn(i)))
        .collect();
    let pend_first = lockstep(&mut multi, &mut single, &pend_syns, t2, "pending SYNs");
    let victim = before[0].dip.expect("established flow has a DIP");
    multi
        .request_update(vip(), PoolUpdate::Remove(victim), t2)
        .unwrap();
    single
        .request_update(vip(), PoolUpdate::Remove(victim), t2)
        .unwrap();

    // Mid-window traffic (no time has passed: installs and update steps
    // are still in flight in both switches).
    let window: Vec<PacketMeta> = (0..N_EST + N_PEND)
        .map(|i| PacketMeta::data(conn(i), 800))
        .collect();
    let during = lockstep(&mut multi, &mut single, &window, t2, "update window");
    // PCC during the window: established flows keep their DIP, pending
    // flows keep the DIP their first packet chose.
    for (i, d) in during.iter().take(N_EST as usize).enumerate() {
        assert_eq!(
            d.dip, before[i].dip,
            "established flow {i} remapped mid-update"
        );
    }
    for (i, d) in during.iter().skip(N_EST as usize).enumerate() {
        assert_eq!(
            d.dip, pend_first[i].dip,
            "pending flow {i} remapped mid-update"
        );
    }

    // Phase 4 — update completes everywhere.
    let t3 = Nanos::from_secs(4);
    multi.advance(t3);
    single.advance(t3);
    assert_eq!(multi.update_phase(vip()), Some(UpdatePhase::Idle));
    assert_eq!(single.update_phase(vip()), Some(UpdatePhase::Idle));
    assert!(!multi.current_dips(vip()).unwrap().contains(&victim));
    assert!(!single.current_dips(vip()).unwrap().contains(&victim));

    let after = lockstep(&mut multi, &mut single, &window, t3, "post-update");
    // PCC after the update: every pre-update flow still maps where it
    // started — including flows whose DIP was removed (version pinning).
    for (i, d) in after.iter().take(N_EST as usize).enumerate() {
        assert_eq!(
            d.dip, before[i].dip,
            "established flow {i} remapped by update"
        );
    }
    for (i, d) in after.iter().skip(N_EST as usize).enumerate() {
        assert_eq!(
            d.dip, pend_first[i].dip,
            "pending flow {i} remapped by update"
        );
    }
    assert!(
        after.iter().any(|d| d.dip == Some(victim)),
        "expected at least one flow pinned to the removed DIP"
    );

    // Phase 5 — flows that start after the update avoid the removed DIP,
    // identically in both switches.
    let fresh: Vec<PacketMeta> = (N_EST + N_PEND..N_EST + N_PEND + 128)
        .map(|i| PacketMeta::syn(conn(i)))
        .collect();
    let new_decisions = lockstep(&mut multi, &mut single, &fresh, t3, "post-update SYNs");
    assert!(new_decisions.iter().all(|d| d.dip != Some(victim)));

    // The aggregate counters agree with the monolithic switch on
    // everything flow-driven (packets, hits, learns, installs).
    let (ms, ss) = (multi.stats(), single.stats());
    assert_eq!(ms.packets, ss.packets);
    assert_eq!(ms.conn_table_hits, ss.conn_table_hits);
    assert_eq!(ms.learns, ss.learns);
    assert_eq!(ms.installs, ss.installs);
}

#[test]
fn multi_pipe_close_and_expiry_stay_in_lockstep() {
    let mut multi = MultiPipeSwitch::inline(cfg(), PIPES);
    let mut single = SilkRoadSwitch::new(cfg());
    multi.add_vip(vip(), dips()).unwrap();
    single.add_vip(vip(), dips()).unwrap();

    let syns: Vec<PacketMeta> = (0..256).map(|i| PacketMeta::syn(conn(i))).collect();
    lockstep(&mut multi, &mut single, &syns, Nanos::ZERO, "establish");
    let t1 = Nanos::from_secs(1);
    multi.advance(t1);
    single.advance(t1);

    // Close half the flows explicitly; both sides drop the same entries.
    for i in 0..128u32 {
        multi.close_connection(&conn(i), t1);
        single.close_connection(&conn(i), t1);
    }
    assert_eq!(multi.conn_count(), single.conn_count());

    // Idle-expire the rest. The aging scan is two-pass (a scan expires
    // entries installed before the *previous* scan and not hit since), so
    // run two scans; per-scan totals and final state must agree.
    let first = (
        multi.expire_idle(Nanos::from_secs(300)),
        single.expire_idle(Nanos::from_secs(300)),
    );
    assert_eq!(first.0, first.1);
    let second = (
        multi.expire_idle(Nanos::from_secs(600)),
        single.expire_idle(Nanos::from_secs(600)),
    );
    assert_eq!(second.0, second.1);
    assert_eq!(first.0 + second.0, 128, "all idle flows expired");
    assert_eq!(multi.conn_count(), 0);
    assert_eq!(single.conn_count(), 0);
}

/// Regression (engine v2): idle-expiry ticks landing *between* batches
/// must not diverge decisions across pipe counts or backends. Expiry is
/// a control op queued in every pipe's job ring between the batches, so
/// a flow whose entry expired must take the same re-install path (and
/// re-select the same DIP) no matter how many pipes — or worker threads —
/// the chip runs. The monolithic switch is the oracle.
#[test]
fn expiry_between_batches_cannot_diverge_decisions_across_pipe_counts() {
    const N: u32 = 192;

    /// One step of the interleaved traffic/expiry scenario.
    enum Cmd<'a> {
        Batch(&'a [PacketMeta], Nanos),
        Advance(Nanos),
        Expire(Nanos),
    }

    let syns: Vec<PacketMeta> = (0..N).map(|i| PacketMeta::syn(conn(i))).collect();
    let data: Vec<PacketMeta> = (0..N).map(|i| PacketMeta::data(conn(i), 800)).collect();
    let keepalive: Vec<PacketMeta> = (0..N / 2).map(|i| PacketMeta::data(conn(i), 80)).collect();
    // Establish, keep the first half warm across two aging scans (so the
    // scans expire exactly the idle second half, *between* data batches),
    // then send full-population data: expired flows re-learn, warm flows
    // hit ConnTable.
    let script = [
        Cmd::Batch(&syns, Nanos::ZERO),
        Cmd::Advance(Nanos::from_secs(1)),
        Cmd::Batch(&keepalive, Nanos::from_secs(200)),
        Cmd::Expire(Nanos::from_secs(300)),
        Cmd::Batch(&keepalive, Nanos::from_secs(400)),
        Cmd::Expire(Nanos::from_secs(600)),
        Cmd::Batch(&data, Nanos::from_secs(601)),
        Cmd::Advance(Nanos::from_secs(602)),
        Cmd::Batch(&data, Nanos::from_secs(603)),
    ];

    fn run(
        script: &[Cmd<'_>],
        mut step: impl FnMut(&Cmd<'_>) -> (Vec<ForwardDecision>, usize),
    ) -> (Vec<ForwardDecision>, usize) {
        let mut decisions = Vec::new();
        let mut expired = 0;
        for cmd in script {
            let (d, e) = step(cmd);
            decisions.extend(d);
            expired += e;
        }
        (decisions, expired)
    }

    let mut single = SilkRoadSwitch::new(cfg());
    single.add_vip(vip(), dips()).unwrap();
    let (oracle, oracle_expired) = run(&script, |cmd| match cmd {
        Cmd::Batch(p, t) => (single.process_batch(p, *t), 0),
        Cmd::Advance(t) => {
            single.advance(*t);
            (Vec::new(), 0)
        }
        Cmd::Expire(t) => (Vec::new(), single.expire_idle(*t)),
    });
    assert!(oracle_expired > 0, "scenario must actually expire flows");

    for pipes in [1usize, 2, 4] {
        for threaded in [false, true] {
            let mut multi = if threaded {
                MultiPipeSwitch::new(cfg(), pipes)
            } else {
                MultiPipeSwitch::inline(cfg(), pipes)
            };
            multi.add_vip(vip(), dips()).unwrap();
            let (got, got_expired) = run(&script, |cmd| match cmd {
                Cmd::Batch(p, t) => (multi.process_batch(p, *t), 0),
                Cmd::Advance(t) => {
                    multi.advance(*t);
                    (Vec::new(), 0)
                }
                Cmd::Expire(t) => (Vec::new(), multi.expire_idle(*t)),
            });
            assert_eq!(
                got_expired, oracle_expired,
                "expiry count diverged (pipes={pipes} threaded={threaded})"
            );
            assert_eq!(
                got, oracle,
                "decisions diverged (pipes={pipes} threaded={threaded})"
            );
        }
    }
}
