//! Chip-level resource accounting — Tables 1 and 2.
//!
//! Table 1 is a literature survey (SRAM growth across merchant-ASIC
//! generations); [`AsicGeneration`] encodes it so `repro table1` can print
//! it alongside our assumed deployment target.
//!
//! Table 2 reports the *additional* hardware resources SilkRoad consumes,
//! normalised by the usage of the baseline `switch.p4` program. SilkRoad's
//! demand is structural: [`crate::PipelineProgram::resource_usage`] over
//! the program `p4/silkroad.p4` lowers to, so what scales with connection
//! count and what is fixed follows from the tables themselves. The
//! baseline's absolute usage is [`SWITCH_P4_USAGE`], documented constants
//! calibrated against the figures published for switch.p4 on a
//! Tofino-class chip.

/// One row of Table 1: an ASIC generation.
#[derive(Clone, Copy, Debug)]
pub struct AsicGeneration {
    /// Marketing-era label.
    pub label: &'static str,
    /// Year of introduction.
    pub year: u16,
    /// Switching capacity, Tbps.
    pub capacity_tbps: f64,
    /// On-chip table SRAM, MB (low end of the published range).
    pub sram_mb_low: u32,
    /// On-chip table SRAM, MB (high end).
    pub sram_mb_high: u32,
}

/// Table 1 of the paper.
pub const ASIC_GENERATIONS: [AsicGeneration; 3] = [
    AsicGeneration {
        label: "<1.6 Tbps (Trident II / FlexPipe)",
        year: 2012,
        capacity_tbps: 1.6,
        sram_mb_low: 10,
        sram_mb_high: 20,
    },
    AsicGeneration {
        label: "3.2 Tbps (Tomahawk / XPliant)",
        year: 2014,
        capacity_tbps: 3.2,
        sram_mb_low: 30,
        sram_mb_high: 60,
    },
    AsicGeneration {
        label: "6.4+ Tbps (Tofino / Tomahawk II / Spectrum)",
        year: 2016,
        capacity_tbps: 6.4,
        sram_mb_low: 50,
        sram_mb_high: 100,
    },
];

/// Absolute usage of each resource class by one program.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceUsage {
    /// Match-crossbar input bits consumed across stages.
    pub crossbar_bits: f64,
    /// Table SRAM bytes.
    pub sram_bytes: f64,
    /// TCAM bytes.
    pub tcam_bytes: f64,
    /// VLIW action slots.
    pub vliw_actions: f64,
    /// Hash-unit output bits.
    pub hash_bits: f64,
    /// Stateful ALUs.
    pub stateful_alus: f64,
    /// Packet-header-vector bits.
    pub phv_bits: f64,
}

impl ResourceUsage {
    /// Chip-wide demand when this (per-pipe) usage is replicated across
    /// `pipes` independent pipes. Every resource class scales linearly:
    /// each pipe owns its own stages, SRAM, hash units, and PHV.
    pub fn replicated(&self, pipes: u32) -> ResourceUsage {
        let n = pipes as f64;
        ResourceUsage {
            crossbar_bits: self.crossbar_bits * n,
            sram_bytes: self.sram_bytes * n,
            tcam_bytes: self.tcam_bytes * n,
            vliw_actions: self.vliw_actions * n,
            hash_bits: self.hash_bits * n,
            stateful_alus: self.stateful_alus * n,
            phv_bits: self.phv_bits * n,
        }
    }

    /// Element-wise ratio `self / base` expressed as percentages, with 0/0
    /// treated as 0 (e.g. TCAM, which SilkRoad does not touch).
    pub fn percent_of(&self, base: &ResourceUsage) -> ResourcePercent {
        fn pct(add: f64, base: f64) -> f64 {
            if add <= 0.0 {
                0.0
            } else if base <= 0.0 {
                f64::INFINITY
            } else {
                100.0 * add / base
            }
        }
        ResourcePercent {
            crossbar: pct(self.crossbar_bits, base.crossbar_bits),
            sram: pct(self.sram_bytes, base.sram_bytes),
            tcam: pct(self.tcam_bytes, base.tcam_bytes),
            vliw: pct(self.vliw_actions, base.vliw_actions),
            hash_bits: pct(self.hash_bits, base.hash_bits),
            stateful_alus: pct(self.stateful_alus, base.stateful_alus),
            phv: pct(self.phv_bits, base.phv_bits),
        }
    }
}

/// Table 2 output: additional usage as a percentage of baseline usage.
#[derive(Clone, Copy, Debug)]
pub struct ResourcePercent {
    /// Match crossbar %.
    pub crossbar: f64,
    /// SRAM %.
    pub sram: f64,
    /// TCAM %.
    pub tcam: f64,
    /// VLIW actions %.
    pub vliw: f64,
    /// Hash bits %.
    pub hash_bits: f64,
    /// Stateful ALUs %.
    pub stateful_alus: f64,
    /// PHV %.
    pub phv: f64,
}

/// Documented absolute usage of the baseline `switch.p4` program (a
/// ~5000-line L2/L3/ACL/QoS program) on a Tofino-class target: the
/// denominator of every Table 2 row. These are calibration constants (see
/// module docs), not a structural count — the placement fixture
/// [`crate::PipelineProgram::baseline_switch_p4`] tallies differently.
pub const SWITCH_P4_USAGE: ResourceUsage = ResourceUsage {
    // switch.p4 matches on many L2/L3/ACL fields across ~30 logical
    // tables: ~1.6 kb of crossbar.
    crossbar_bits: 1600.0,
    // Forwarding/MAC/ACL tables: ~12.8 MB of table SRAM.
    sram_bytes: 12.8e6,
    // LPM/ACL TCAM — SilkRoad adds none, so only used for the 0% row.
    tcam_bytes: 2.0e6,
    // ~90 VLIW action slots.
    vliw_actions: 90.0,
    // Hash bits for ECMP/LAG/learning: ~640 b.
    hash_bits: 640.0,
    // Counters/meters in the baseline: 18 sALUs.
    stateful_alus: 18.0,
    // PHV: ~3.2 kb of header vector in use.
    phv_bits: 3250.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_are_the_papers() {
        assert_eq!(ASIC_GENERATIONS.len(), 3);
        assert_eq!(ASIC_GENERATIONS[0].year, 2012);
        assert_eq!(ASIC_GENERATIONS[2].sram_mb_high, 100);
        // "growing by five times over the past four years"
        assert!(
            ASIC_GENERATIONS[2].sram_mb_low as f64 / ASIC_GENERATIONS[0].sram_mb_low as f64 >= 5.0
        );
    }

    #[test]
    fn replicated_scales_every_field_linearly() {
        let one = SWITCH_P4_USAGE;
        let four = ResourceUsage {
            crossbar_bits: 4.0 * one.crossbar_bits,
            sram_bytes: 4.0 * one.sram_bytes,
            tcam_bytes: 4.0 * one.tcam_bytes,
            vliw_actions: 4.0 * one.vliw_actions,
            hash_bits: 4.0 * one.hash_bits,
            stateful_alus: 4.0 * one.stateful_alus,
            phv_bits: 4.0 * one.phv_bits,
        };
        assert_eq!(one.replicated(4), four);
        assert_eq!(one.replicated(1), one);
    }

    #[test]
    fn percent_of_handles_zero_base() {
        let a = ResourceUsage {
            tcam_bytes: 1.0,
            ..Default::default()
        };
        let b = ResourceUsage::default();
        assert!(a.percent_of(&b).tcam.is_infinite());
        assert_eq!(b.percent_of(&a).tcam, 0.0);
    }
}
