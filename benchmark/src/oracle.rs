//! The correctness oracle: an independent per-connection-consistency
//! ledger plus full-recompute checksum validation of rewritten frames.
//!
//! It shares no state with the switch. A packet **fails** when
//!
//! * its DIP differs from the DIP its live connection was first given
//!   (PCC — the paper's one hard guarantee);
//! * it went to a VIP and came back dropped or unresolved (no workload
//!   here configures a meter or an empty pool, so there is never a
//!   counted reason for a drop);
//! * its frame failed to parse; or
//! * its rewritten frame fails [`sr_wire::verify_checksums`].

use silkroad::ForwardDecision;
use sr_hash::FxHashMap;
use sr_types::{Dip, FiveTuple};

/// Failure counts by cause, plus the attempts they are a share of.
#[derive(Default)]
pub struct Oracle {
    first: FxHashMap<FiveTuple, Dip>,
    /// Packets judged.
    pub attempted: u64,
    /// Packets whose DIP differed from their connection's first DIP.
    pub pcc_violations: u64,
    /// VIP packets that came back without a DIP.
    pub unresolved: u64,
    /// Frames the parser rejected.
    pub parse_errors: u64,
    /// Rewritten frames whose checksums failed full recomputation.
    pub checksum_failures: u64,
    /// Packets failed wholesale because a stretch of traffic whose every
    /// decision was already judged produced a different digest.
    pub digest_mismatch_packets: u64,
    /// Failures of a judged stretch, counted again each time a later
    /// stretch reproduced its digest (the same decisions fail the same way).
    pub repeated_failures: u64,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// Judge one decision. The first DIP seen for a connection binds it
    /// until [`Oracle::close`].
    #[inline]
    pub fn observe(&mut self, tuple: &FiveTuple, d: &ForwardDecision) {
        self.attempted += 1;
        let Some(dip) = d.dip else {
            self.unresolved += 1;
            return;
        };
        match self.first.entry(*tuple) {
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != dip {
                    self.pcc_violations += 1;
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(dip);
            }
        }
    }

    /// The connection ended; a later packet on the same 5-tuple starts a
    /// new connection that may land anywhere.
    pub fn close(&mut self, tuple: &FiveTuple) {
        self.first.remove(tuple);
    }

    /// A frame the parser rejected: attempted and failed.
    pub fn parse_failed(&mut self) {
        self.attempted += 1;
        self.parse_errors += 1;
    }

    /// Validate a rewritten frame by full checksum recomputation. The
    /// packet itself was already counted by [`Oracle::observe`].
    pub fn check_frame(&mut self, rewritten: &[u8]) {
        if sr_wire::verify_checksums(rewritten).is_err() {
            self.checksum_failures += 1;
        }
    }

    /// `packets` decisions were compared by digest to a stretch that was
    /// judged packet by packet and held `failed_when_judged` failures: all
    /// attempted; all failed if the digests differ, and as many as then if
    /// they agree.
    pub fn digest_checked(&mut self, packets: u64, matches: bool, failed_when_judged: u64) {
        self.attempted += packets;
        if matches {
            self.repeated_failures += failed_when_judged;
        } else {
            self.digest_mismatch_packets += packets;
        }
    }

    /// The verdict without the ledger: the counters of this oracle on an
    /// empty one, so a run can report after it has dropped its workload.
    pub fn tally(&self) -> Oracle {
        Oracle {
            first: FxHashMap::default(),
            attempted: self.attempted,
            pcc_violations: self.pcc_violations,
            unresolved: self.unresolved,
            parse_errors: self.parse_errors,
            checksum_failures: self.checksum_failures,
            digest_mismatch_packets: self.digest_mismatch_packets,
            repeated_failures: self.repeated_failures,
        }
    }

    /// Packets that failed for any cause.
    pub fn failed(&self) -> u64 {
        self.pcc_violations
            + self.unresolved
            + self.parse_errors
            + self.checksum_failures
            + self.digest_mismatch_packets
            + self.repeated_failures
    }

    /// `failed ÷ attempted` (0 before the first packet).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use silkroad::DataPath;
    use sr_types::{AddrFamily, RewriteMode, RewriteOp, TcpFlags};
    use sr_wire::{build_frame, parse_frame, rewrite_frame, FrameSpec};

    fn to(dip: Dip) -> ForwardDecision {
        ForwardDecision {
            dip: Some(dip),
            path: DataPath::AsicConnTable,
            version: None,
            conn_table_hit: true,
            false_hit: false,
        }
    }

    /// The satellite's self-test: one deliberately mis-steered decision
    /// and one corrupt checksum must both land in `failed_frac`.
    #[test]
    fn mis_steer_and_corrupt_checksum_are_both_counted() {
        let mut o = Oracle::new();
        let t = gen::flow(1, 0, false);
        let (d0, d1) = (
            gen::dip(0, 0, AddrFamily::V4),
            gen::dip(0, 1, AddrFamily::V4),
        );
        o.observe(&t, &to(d0));
        o.observe(&t, &to(d0));
        assert_eq!(o.failed(), 0);
        o.observe(&t, &to(d1));
        assert_eq!((o.pcc_violations, o.failed()), (1, 1));

        let mut frame = [0u8; 128];
        let n = build_frame(
            &FrameSpec {
                tuple: t,
                flags: TcpFlags::ACK,
                wire_len: 0,
                seq: 9,
            },
            &mut frame,
        )
        .unwrap();
        let parsed = parse_frame(&frame[..n]).unwrap();
        let mut out = [0u8; 128];
        let op = RewriteOp {
            dip: d0,
            mode: RewriteMode::Nat,
        };
        let m = rewrite_frame(&frame[..n], &parsed.view, &op, &mut out).unwrap();
        o.check_frame(&out[..m]);
        assert_eq!(o.checksum_failures, 0, "a clean rewrite must verify");
        out[m - 1] ^= 0x40;
        o.check_frame(&out[..m]);
        assert_eq!((o.checksum_failures, o.failed()), (1, 2));
        assert_eq!(o.attempted, 3);
        assert!((o.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn close_unbinds_and_unresolved_counts() {
        let mut o = Oracle::new();
        let t = gen::flow(1, 3, false);
        o.observe(&t, &to(gen::dip(3, 0, AddrFamily::V4)));
        o.close(&t);
        // A reopened 5-tuple may bind elsewhere.
        o.observe(&t, &to(gen::dip(3, 5, AddrFamily::V4)));
        assert_eq!(o.failed(), 0);
        o.observe(&t, &ForwardDecision::dropped());
        o.parse_failed();
        o.digest_checked(100, true, 0);
        o.digest_checked(50, false, 0);
        assert_eq!((o.unresolved, o.parse_errors), (1, 1));
        assert_eq!(o.digest_mismatch_packets, 50);
        assert_eq!((o.attempted, o.failed()), (154, 52));
        // A stretch that reproduces a digest holding two failures fails two.
        o.digest_checked(100, true, 2);
        assert_eq!((o.attempted, o.failed()), (254, 54));
    }
}
