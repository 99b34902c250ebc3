//! SilkRoad switch configuration.

use crate::dataplane::{MAX_BLOOM_HASHES, MAX_PACKET_HASHES};
use sr_asic::{LearningFilterConfig, SwitchCpuConfig};
use sr_types::{Duration, TypeError};

/// Extra latency added to a software-redirected SYN (digest false
/// positive repair, "a few milliseconds").
pub const SYN_REDIRECT_DELAY: Duration = Duration::from_millis(2);

/// Full configuration of a [`crate::SilkRoadSwitch`].
#[derive(Clone, Debug)]
pub struct SilkRoadConfig {
    /// Provisioned ConnTable capacity (entries).
    pub conn_capacity: usize,
    /// Pipeline stages ConnTable spans (each with its own hash function —
    /// also the relocation headroom for digest collisions).
    pub conn_stages: usize,
    /// Digest width in bits (paper default 16; §6.1 also evaluates 24).
    pub digest_bits: u8,
    /// Version-number width in bits (paper default 6 after reuse). The
    /// ring always runs with version reuse (§4.2, Fig 15).
    pub version_bits: u8,
    /// TransitTable bloom filter size in bytes (paper default 256).
    pub transit_bytes: usize,
    /// TransitTable hash functions.
    pub transit_hashes: usize,
    /// `false` disables the TransitTable entirely — the paper's
    /// "SilkRoad without TransitTable" ablation in Fig 16/17.
    pub transit_enabled: bool,
    /// Learning filter geometry (capacity + timeout; Fig 18 sweeps the
    /// timeout between 500 µs and 5 ms).
    pub learning: LearningFilterConfig,
    /// Switch CPU insertion model (paper: 200 K insertions/s).
    pub cpu: SwitchCpuConfig,
    /// Idle timeout after which the control plane expires a connection
    /// entry that was never explicitly closed.
    pub idle_timeout: Duration,
    /// RNG seed for all hash functions in this switch.
    pub seed: u64,
}

// `validate`'s constraint strings spell these bounds out.
const _: () = assert!(MAX_PACKET_HASHES - 2 == 6 && MAX_BLOOM_HASHES == 8);

impl Default for SilkRoadConfig {
    fn default() -> Self {
        SilkRoadConfig {
            conn_capacity: 1_000_000,
            conn_stages: 4,
            digest_bits: 16,
            version_bits: 6,
            transit_bytes: 256,
            transit_hashes: 4,
            transit_enabled: true,
            learning: LearningFilterConfig::default(),
            cpu: SwitchCpuConfig::default(),
            idle_timeout: Duration::from_secs(120),
            seed: 0x51_1c_0a_d0,
        }
    }
}

impl SilkRoadConfig {
    /// A small configuration for unit tests and doc examples: tiny tables,
    /// fast CPU, everything else as the paper.
    pub fn small_test() -> SilkRoadConfig {
        SilkRoadConfig {
            conn_capacity: 4_096,
            ..Default::default()
        }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), TypeError> {
        if !(8..=32).contains(&self.digest_bits) {
            return Err(TypeError::OutOfRange {
                what: "digest_bits",
                constraint: "8..=32",
                got: self.digest_bits as u64,
            });
        }
        if !(1..=16).contains(&self.version_bits) {
            return Err(TypeError::OutOfRange {
                what: "version_bits",
                constraint: "1..=16",
                got: self.version_bits as u64,
            });
        }
        // Upper bounds are the packet path's fixed hash-lane budgets
        // (`KeyHasher::new` asserts them): ConnTable stages share the
        // eager list with the match-field and DIP-select hashes.
        if !(2..=MAX_PACKET_HASHES - 2).contains(&self.conn_stages) {
            return Err(TypeError::OutOfRange {
                what: "conn_stages",
                constraint: "2..=6",
                got: self.conn_stages as u64,
            });
        }
        // An empty filter would be clamped to one byte and one hash by
        // `BloomFilter::new` while the layout prices it at nothing.
        if !(1..=MAX_BLOOM_HASHES).contains(&self.transit_hashes) {
            return Err(TypeError::OutOfRange {
                what: "transit_hashes",
                constraint: "1..=8",
                got: self.transit_hashes as u64,
            });
        }
        if self.transit_bytes == 0 {
            return Err(TypeError::OutOfRange {
                what: "transit_bytes",
                constraint: "1..",
                got: 0,
            });
        }
        if self.conn_capacity == 0 {
            return Err(TypeError::OutOfRange {
                what: "conn_capacity",
                constraint: "1..",
                got: 0,
            });
        }
        Ok(())
    }

    /// Number of versions in the per-VIP ring.
    pub fn version_ring_size(&self) -> u32 {
        1u32 << self.version_bits.min(16)
    }

    /// The ConnTable's on-chip entry layout: digest match field, the
    /// version as action data, 6 bits of packing overhead (§6.1).
    pub fn conn_table_spec(&self) -> sr_asic::TableSpec {
        sr_asic::TableSpec {
            match_bits: self.digest_bits as u32,
            action_bits: self.version_bits as u32,
            overhead_bits: 6,
        }
    }

    /// The physical pipeline layout this configuration provisions, as the
    /// layout verifier ([`sr_asic::check`]) sees it.
    ///
    /// The ConnTable's placement span auto-widens beyond `conn_stages` when
    /// its SRAM demand cannot pack into that many stages: an RMT compiler
    /// spreads one logical table across extra physical stages while the
    /// logical hash ways stay fixed, so a wider span changes placement, not
    /// behaviour. The span is capped at the chip's stage count — a table
    /// that still overflows per-stage SRAM at full width is genuinely
    /// unplaceable and the verifier rejects it.
    pub fn pipeline_program(&self) -> sr_asic::PipelineProgram {
        let chip = sr_asic::ChipSpec::tofino_class();
        let sram = self.conn_table_spec().sram();
        let mut span = self.conn_stages as u32;
        loop {
            let per_stage = (self.conn_capacity as u64).div_ceil(span as u64);
            let blocks = sram
                .words_for(per_stage)
                .div_ceil(chip.sram_block_words as u64);
            if blocks <= chip.sram_blocks_per_stage as u64 || span >= chip.stages {
                break;
            }
            span += 1;
        }
        // VIP/DIP-pool provisioning uses the paper-scale reference sizes;
        // both tables are placement-trivial next to the ConnTable.
        let mut prog = sr_asic::PipelineProgram::silkroad(
            self.conn_capacity as u64,
            span,
            self.digest_bits as u32,
            self.version_bits as u32,
            1_000,
            4_000,
            144,
            self.transit_bytes as u64,
            self.transit_hashes as u32,
        );
        if !self.transit_enabled {
            // The Fig 16/17 ablation: no bloom filter, and the miss path
            // chains ConnTable straight into the VIP lookup.
            prog.registers.clear();
            prog.deps = vec![
                sr_asic::TableDependency {
                    before: "ConnTable",
                    after: "VIPTable",
                },
                sr_asic::TableDependency {
                    before: "VIPTable",
                    after: "DIPPoolTable",
                },
            ];
        }
        prog
    }

    /// Run the pipeline-layout verifier over [`SilkRoadConfig::pipeline_program`]
    /// on the Tofino-class chip. [`crate::SilkRoadSwitch::new`] refuses
    /// configurations whose report has errors.
    pub fn check_layout(&self) -> sr_asic::CheckReport {
        self.pipeline_program()
            .check(&sr_asic::ChipSpec::tofino_class())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SilkRoadConfig::default();
        assert_eq!(c.digest_bits, 16);
        assert_eq!(c.version_bits, 6);
        assert_eq!(c.version_ring_size(), 64);
        assert_eq!(c.transit_bytes, 256);
        assert_eq!(c.cpu.insertions_per_sec, 200_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn default_layout_is_placeable() {
        let report = SilkRoadConfig::default().check_layout();
        assert!(report.is_placeable(), "{}", report.render());
    }

    #[test]
    fn big_conn_table_widens_span_and_stays_placeable() {
        // The Fig 13 cluster-scale sims provision up to 12M connections;
        // that cannot pack into 4 stages, so the placement span widens.
        let cfg = SilkRoadConfig {
            conn_capacity: 12_000_000,
            ..Default::default()
        };
        let prog = cfg.pipeline_program();
        assert!(prog.tables[0].stages > 4, "{:?}", prog.tables[0]);
        let report = cfg.check_layout();
        assert!(report.is_placeable(), "{}", report.render());
    }

    #[test]
    fn absurd_conn_table_is_refused() {
        // 80M connections overflow per-stage SRAM even spanning the whole
        // pipeline — srcheck must reject the layout.
        let cfg = SilkRoadConfig {
            conn_capacity: 80_000_000,
            ..Default::default()
        };
        let report = cfg.check_layout();
        assert!(!report.is_placeable());
    }

    #[test]
    fn transit_ablation_drops_register_from_layout() {
        let cfg = SilkRoadConfig {
            transit_enabled: false,
            ..Default::default()
        };
        let prog = cfg.pipeline_program();
        assert!(prog.registers.is_empty());
        let report = cfg.check_layout();
        assert!(report.is_placeable(), "{}", report.render());
    }

    #[test]
    fn validation_bounds_hash_lane_counts() {
        // The largest layouts `KeyHasher::new` accepts validate...
        let max = SilkRoadConfig {
            conn_stages: MAX_PACKET_HASHES - 2,
            transit_hashes: MAX_BLOOM_HASHES,
            ..Default::default()
        };
        assert!(max.validate().is_ok());
        // ...and one lane more is a typed error, not a constructor panic.
        let stages = SilkRoadConfig {
            conn_stages: MAX_PACKET_HASHES - 1,
            ..Default::default()
        };
        assert!(matches!(
            stages.validate(),
            Err(TypeError::OutOfRange {
                what: "conn_stages",
                got: 7,
                ..
            })
        ));
        let blooms = SilkRoadConfig {
            transit_hashes: MAX_BLOOM_HASHES + 1,
            ..Default::default()
        };
        assert!(matches!(
            blooms.validate(),
            Err(TypeError::OutOfRange {
                what: "transit_hashes",
                got: 9,
                ..
            })
        ));
    }

    #[test]
    fn validation_rejects_bad_widths() {
        let bad = [
            SilkRoadConfig {
                digest_bits: 4,
                ..Default::default()
            },
            SilkRoadConfig {
                version_bits: 0,
                ..Default::default()
            },
            SilkRoadConfig {
                conn_stages: 1,
                ..Default::default()
            },
            SilkRoadConfig {
                conn_capacity: 0,
                ..Default::default()
            },
            SilkRoadConfig {
                transit_hashes: 0,
                ..Default::default()
            },
            SilkRoadConfig {
                transit_bytes: 0,
                ..Default::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err());
        }
    }
}
