//! Exact-match table entry layouts and their SRAM cost.
//!
//! A [`TableSpec`] describes the on-chip layout of one table entry — the
//! *cost* side of a table (SRAM words per entry) that feeds the Fig 12/14
//! memory results. The
//! *behaviour* side (lookup/insert/relocate) is the multi-stage cuckoo
//! store in `sr-hash`; the one rule tying them together is how many entries
//! pack into an SRAM word, which fixes the cuckoo bucket width — see
//! [`TableSpec::cuckoo_config`].

use crate::sram::SramSpec;
use sr_hash::cuckoo::CuckooConfig;
pub use sr_hash::cuckoo::MatchMode;

/// On-chip layout of one table entry.
#[derive(Clone, Copy, Debug)]
pub struct TableSpec {
    /// Bits of match field stored per entry (digest width, or full key).
    pub match_bits: u32,
    /// Bits of action data per entry (pool version, or full DIP+port).
    pub action_bits: u32,
    /// Packing overhead bits per entry (instruction + next-table address;
    /// the paper uses 6 bits in §6.1).
    pub overhead_bits: u32,
}

impl TableSpec {
    /// The paper's ConnTable layout: 16-bit digest + 6-bit version +
    /// 6-bit overhead = 28 bits.
    pub fn silkroad_conntable() -> TableSpec {
        TableSpec {
            match_bits: 16,
            action_bits: 6,
            overhead_bits: 6,
        }
    }

    /// Total bits per entry.
    pub fn entry_bits(&self) -> u32 {
        self.match_bits + self.action_bits + self.overhead_bits
    }

    /// The SRAM view of this entry.
    pub fn sram(&self) -> SramSpec {
        SramSpec {
            entry_bits: self.entry_bits(),
        }
    }

    /// SRAM bytes to hold `n` entries.
    pub fn bytes_for(&self, n: u64) -> u64 {
        self.sram().bytes_for(n)
    }

    /// Geometry of the cuckoo store that holds ~`capacity` entries of this
    /// layout over `stages` stages: as many ways per bucket as entries
    /// pack into one SRAM word (at least one).
    pub fn cuckoo_config(
        &self,
        capacity: usize,
        stages: usize,
        match_mode: MatchMode,
        seed: u64,
    ) -> CuckooConfig {
        let entries_per_word = self.sram().entries_per_word().max(1) as usize;
        let mut cfg = CuckooConfig::for_capacity(capacity, stages, entries_per_word, seed);
        cfg.match_mode = match_mode;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conntable_spec_matches_paper() {
        let s = TableSpec::silkroad_conntable();
        assert_eq!(s.entry_bits(), 28);
        assert_eq!(s.sram().entries_per_word(), 4);
        // 1M entries = 250K words = 3.5 MB.
        assert_eq!(s.bytes_for(1_000_000), 250_000 * 14);
    }

    #[test]
    fn cuckoo_geometry_follows_word_packing() {
        // 28-bit entries pack 4 to a 112-bit word: 4-way buckets.
        let cfg = TableSpec::silkroad_conntable().cuckoo_config(
            1000,
            4,
            MatchMode::Digest { bits: 16 },
            5,
        );
        assert_eq!(cfg.entries_per_word, 4);
        assert_eq!(cfg.stages, 4);
        assert!(cfg.total_slots() >= 1000);
        assert!(matches!(cfg.match_mode, MatchMode::Digest { bits: 16 }));
        // An entry wider than a word still gets one way per bucket.
        let wide = TableSpec {
            match_bits: 104,
            action_bits: 48,
            overhead_bits: 6,
        };
        let cfg = wide.cuckoo_config(100, 2, MatchMode::FullKey, 9);
        assert_eq!(cfg.entries_per_word, 1);
        assert!(matches!(cfg.match_mode, MatchMode::FullKey));
    }
}
