//! Declarative match-action pipeline programs.
//!
//! A [`PipelineProgram`] describes a P4 program at the level of detail a
//! compiler's resource report exposes: its tables (match kind, key/action
//! widths, entry counts, stages), register arrays, and carried metadata.
//! [`PipelineProgram::resource_usage`] derives the chip resources the
//! program consumes under RMT-style allocation rules — over
//! [`PipelineProgram::silkroad_paper`] it is the numerator of every Table 2
//! row (`repro table2`).
//!
//! Two reference programs are provided: [`PipelineProgram::baseline_switch_p4`],
//! approximating the open-source `switch.p4` L2/L3/ACL/QoS program the
//! paper uses as its baseline (~5000 lines of P4), and
//! [`PipelineProgram::silkroad`], the paper's ~400-line addition.

use crate::resources::ResourceUsage;
use crate::sram::SramSpec;

/// How a table matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchKind {
    /// Exact match — cuckoo-hashed SRAM.
    Exact,
    /// Ternary/LPM — TCAM.
    Ternary,
}

/// One table declaration.
#[derive(Clone, Debug)]
pub struct TableDecl {
    /// Name (resource reports index by table).
    pub name: &'static str,
    /// Match kind.
    pub kind: MatchKind,
    /// Match-key bits presented to the crossbar.
    pub key_bits: u32,
    /// Match field bits actually *stored* per entry (digest compression
    /// makes this smaller than `key_bits` for SilkRoad's ConnTable).
    pub stored_key_bits: u32,
    /// Action data bits per entry.
    pub action_bits: u32,
    /// Provisioned entries.
    pub entries: u64,
    /// First physical pipeline stage the table occupies (0-based).
    pub first_stage: u32,
    /// Physical stages the table spans (exact tables replicate their key
    /// and hash per stage).
    pub stages: u32,
    /// VLIW action slots the table's actions occupy.
    pub action_slots: u32,
}

impl TableDecl {
    /// SRAM bytes (exact tables; zero for ternary).
    pub fn sram_bytes(&self) -> u64 {
        if self.kind != MatchKind::Exact {
            return 0;
        }
        SramSpec {
            entry_bits: self.stored_key_bits + self.action_bits + 6,
        }
        .bytes_for(self.entries)
    }

    /// TCAM bytes (ternary tables store value+mask).
    pub fn tcam_bytes(&self) -> u64 {
        if self.kind != MatchKind::Ternary {
            return 0;
        }
        self.entries * (2 * self.key_bits as u64).div_ceil(8)
    }

    /// Hash output bits: one bucket address per spanned stage.
    pub fn hash_bits(&self) -> u32 {
        if self.kind != MatchKind::Exact || self.entries == 0 {
            return 0;
        }
        let per_stage = (self.entries as f64 / self.stages.max(1) as f64 / 4.0)
            .log2()
            .ceil()
            .max(1.0) as u32;
        self.stages.max(1) * per_stage
    }

    /// Crossbar bits: the key is presented once per spanned stage.
    pub fn crossbar_bits(&self) -> u32 {
        self.key_bits * self.stages.max(1)
    }

    /// Last physical stage the table occupies (inclusive).
    pub fn last_stage(&self) -> u32 {
        self.first_stage + self.stages.max(1) - 1
    }
}

/// One register-array declaration.
#[derive(Clone, Debug)]
pub struct RegisterDecl {
    /// Name.
    pub name: &'static str,
    /// Cells.
    pub cells: u64,
    /// Cell width.
    pub width_bits: u32,
    /// Stateful ALUs the access program needs (a read-modify-write path
    /// per hash way for a bloom filter).
    pub alus: u32,
    /// Hash bits used to index the array.
    pub index_hash_bits: u32,
    /// First physical pipeline stage the array occupies (0-based).
    pub first_stage: u32,
    /// Physical stages the array spans. A group of independent arrays
    /// (counters, meters) may spread; a *transactional* array may not.
    pub stages: u32,
    /// Whether accesses are transactional (one-cycle
    /// read-check-modify-write, §4.1). A transactional array must fit a
    /// single stage — the ALU cannot see state in another stage within one
    /// packet time. The TransitTable bloom filter requires this.
    pub transactional: bool,
}

impl RegisterDecl {
    /// SRAM bytes backing the array.
    pub fn sram_bytes(&self) -> u64 {
        (self.cells * self.width_bits as u64).div_ceil(8)
    }

    /// Last physical stage the array occupies (inclusive).
    pub fn last_stage(&self) -> u32 {
        self.first_stage + self.stages.max(1) - 1
    }
}

/// An ordering constraint between two pipeline units: `after` consumes a
/// result (match outcome, metadata write, register verdict) produced by
/// `before`, so `after` must start in a strictly later physical stage —
/// RMT's "match dependency", the tightest of its dependency classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableDependency {
    /// The producing unit (table or register name).
    pub before: &'static str,
    /// The consuming unit.
    pub after: &'static str,
}

/// A full pipeline program.
#[derive(Clone, Debug)]
pub struct PipelineProgram {
    /// Program name.
    pub name: &'static str,
    /// Tables.
    pub tables: Vec<TableDecl>,
    /// Register arrays.
    pub registers: Vec<RegisterDecl>,
    /// Ordering constraints between units ([`TableDependency`]); the
    /// pipeline verifier checks they are realizable in the declared
    /// placement and acyclic.
    pub deps: Vec<TableDependency>,
    /// Metadata bits carried between stages (PHV).
    pub metadata_bits: u32,
    /// Extra hash bits for non-table units (ECMP/LAG selectors, learning).
    pub selector_hash_bits: u32,
    /// Pipes the program is replicated into. Each pipe carries a full
    /// copy, so per-stage budgets are checked against a *single* pipe;
    /// [`PipelineProgram::chip_usage`] scales to chip-wide demand.
    pub pipes: u32,
}

impl PipelineProgram {
    /// Replicate the program across `pipes` pipes (builder style).
    pub fn with_pipes(mut self, pipes: u32) -> PipelineProgram {
        self.pipes = pipes;
        self
    }

    /// Chip-wide resources: the per-pipe [`Self::resource_usage`]
    /// replicated across every pipe the program occupies.
    pub fn chip_usage(&self) -> ResourceUsage {
        self.resource_usage().replicated(self.pipes)
    }

    /// Derive the chip resources this program consumes *in one pipe*.
    pub fn resource_usage(&self) -> ResourceUsage {
        let crossbar: u32 = self.tables.iter().map(|t| t.crossbar_bits()).sum();
        let sram: u64 = self.tables.iter().map(|t| t.sram_bytes()).sum::<u64>()
            + self.registers.iter().map(|r| r.sram_bytes()).sum::<u64>();
        let tcam: u64 = self.tables.iter().map(|t| t.tcam_bytes()).sum();
        let vliw: u32 = self.tables.iter().map(|t| t.action_slots).sum();
        let hash: u32 = self.tables.iter().map(|t| t.hash_bits()).sum::<u32>()
            + self
                .registers
                .iter()
                .map(|r| r.index_hash_bits)
                .sum::<u32>()
            + self.selector_hash_bits;
        let salu: u32 = self.registers.iter().map(|r| r.alus).sum();
        ResourceUsage {
            crossbar_bits: crossbar as f64,
            sram_bytes: sram as f64,
            tcam_bytes: tcam as f64,
            vliw_actions: vliw as f64,
            hash_bits: hash as f64,
            stateful_alus: salu as f64,
            phv_bits: self.metadata_bits as f64,
        }
    }

    /// An approximation of the baseline `switch.p4` (L2/L3/ACL/QoS) at the
    /// granularity its published resource reports use: srcheck's placement
    /// fixture for `repro check`. Its structural count is not the Table 2
    /// denominator — that is the documented
    /// [`crate::resources::SWITCH_P4_USAGE`].
    pub fn baseline_switch_p4() -> PipelineProgram {
        PipelineProgram {
            name: "switch.p4",
            tables: vec![
                TableDecl {
                    name: "smac",
                    kind: MatchKind::Exact,
                    key_bits: 60, // mac + vlan
                    stored_key_bits: 60,
                    action_bits: 16,
                    entries: 320_000,
                    first_stage: 0,
                    stages: 2,
                    action_slots: 6,
                },
                TableDecl {
                    name: "dmac",
                    kind: MatchKind::Exact,
                    key_bits: 60,
                    stored_key_bits: 60,
                    action_bits: 20,
                    entries: 320_000,
                    first_stage: 2,
                    stages: 2,
                    action_slots: 8,
                },
                TableDecl {
                    name: "ipv4_host",
                    kind: MatchKind::Exact,
                    key_bits: 44, // vrf + ipv4
                    stored_key_bits: 44,
                    action_bits: 20,
                    entries: 260_000,
                    first_stage: 4,
                    stages: 2,
                    action_slots: 10,
                },
                TableDecl {
                    name: "ipv6_host",
                    kind: MatchKind::Exact,
                    key_bits: 140,
                    stored_key_bits: 140,
                    action_bits: 20,
                    entries: 120_000,
                    first_stage: 4,
                    stages: 2,
                    action_slots: 10,
                },
                TableDecl {
                    name: "ipv4_lpm",
                    kind: MatchKind::Ternary,
                    key_bits: 44,
                    stored_key_bits: 44,
                    action_bits: 20,
                    entries: 120_000,
                    first_stage: 6,
                    stages: 1,
                    action_slots: 8,
                },
                TableDecl {
                    name: "ipv6_lpm",
                    kind: MatchKind::Ternary,
                    key_bits: 140,
                    stored_key_bits: 140,
                    action_bits: 20,
                    entries: 16_000,
                    first_stage: 7,
                    stages: 1,
                    action_slots: 8,
                },
                TableDecl {
                    name: "acl",
                    kind: MatchKind::Ternary,
                    key_bits: 240,
                    stored_key_bits: 240,
                    action_bits: 24,
                    entries: 12_000,
                    first_stage: 8,
                    stages: 1,
                    action_slots: 12,
                },
                TableDecl {
                    name: "nexthop",
                    kind: MatchKind::Exact,
                    key_bits: 16,
                    stored_key_bits: 16,
                    action_bits: 96, // rewrite info
                    entries: 65_536,
                    first_stage: 8,
                    stages: 1,
                    action_slots: 14,
                },
                TableDecl {
                    name: "rewrite+qos",
                    kind: MatchKind::Exact,
                    key_bits: 24,
                    stored_key_bits: 24,
                    action_bits: 64,
                    entries: 32_768,
                    first_stage: 9,
                    stages: 1,
                    action_slots: 14,
                },
            ],
            registers: vec![RegisterDecl {
                name: "counters+meters",
                cells: 300_000,
                width_bits: 64,
                alus: 18,
                index_hash_bits: 0,
                first_stage: 4,
                stages: 6,
                // Independent counter/meter arrays spread across stages;
                // no cross-array transaction is needed.
                transactional: false,
            }],
            deps: vec![
                // L2 learn feeds the L2 forward decision.
                TableDependency {
                    before: "smac",
                    after: "dmac",
                },
                // Route resolution feeds nexthop, which feeds rewrite.
                TableDependency {
                    before: "ipv4_host",
                    after: "nexthop",
                },
                TableDependency {
                    before: "ipv6_host",
                    after: "nexthop",
                },
                TableDependency {
                    before: "ipv4_lpm",
                    after: "nexthop",
                },
                TableDependency {
                    before: "ipv6_lpm",
                    after: "nexthop",
                },
                TableDependency {
                    before: "nexthop",
                    after: "rewrite+qos",
                },
                TableDependency {
                    before: "acl",
                    after: "rewrite+qos",
                },
            ],
            // Parsed headers + bridge metadata in flight.
            metadata_bits: 3_250,
            // ECMP/LAG selectors + MAC learning digests.
            selector_hash_bits: 144,
            pipes: 1,
        }
    }

    /// The paper's reference geometry of the SilkRoad addition: 1 M
    /// connections over 4 stages, 16-bit digests, 6-bit versions, 1 K
    /// VIPs, 4 K DIP-pool rows, a 144-bit DIP action and a 256 B transit
    /// bloom filter with 4 hashes. `p4/silkroad.p4` lowers to exactly
    /// this program.
    pub fn silkroad_paper() -> PipelineProgram {
        PipelineProgram::silkroad(1_000_000, 4, 16, 6, 1_000, 4_000, 144, 256, 4)
    }

    /// The SilkRoad addition (§5.1: "~400 lines of P4... all the tables and
    /// metadata needed").
    #[allow(clippy::too_many_arguments)] // mirrors the P4 program's table parameters 1:1
    pub fn silkroad(
        conn_entries: u64,
        conn_stages: u32,
        digest_bits: u32,
        version_bits: u32,
        vips: u64,
        dip_pool_rows: u64,
        dip_action_bits: u32,
        transit_bytes: u64,
        transit_hashes: u32,
    ) -> PipelineProgram {
        PipelineProgram {
            name: "silkroad",
            tables: vec![
                TableDecl {
                    name: "ConnTable",
                    kind: MatchKind::Exact,
                    key_bits: 104, // IPv4 5-tuple presented to the hash units
                    stored_key_bits: digest_bits,
                    action_bits: version_bits,
                    entries: conn_entries,
                    first_stage: 0,
                    stages: conn_stages,
                    action_slots: 4,
                },
                TableDecl {
                    name: "VIPTable",
                    kind: MatchKind::Exact,
                    key_bits: 152,
                    stored_key_bits: 152,
                    action_bits: 2 * version_bits,
                    entries: vips,
                    first_stage: conn_stages + 1,
                    stages: 1,
                    action_slots: 3,
                },
                TableDecl {
                    name: "DIPPoolTable",
                    kind: MatchKind::Exact,
                    key_bits: 32 + version_bits,
                    stored_key_bits: 32 + version_bits,
                    action_bits: dip_action_bits,
                    entries: dip_pool_rows,
                    first_stage: conn_stages + 2,
                    stages: 1,
                    action_slots: 6,
                },
                TableDecl {
                    name: "LearnTable",
                    kind: MatchKind::Exact,
                    key_bits: 16,
                    stored_key_bits: 16,
                    action_bits: 8,
                    entries: 4_096,
                    first_stage: conn_stages + 3,
                    stages: 1,
                    action_slots: 4,
                },
            ],
            registers: vec![RegisterDecl {
                name: "TransitTable",
                cells: transit_bytes * 8,
                width_bits: 1,
                alus: 2 * transit_hashes, // set path + test path per hash way
                index_hash_bits: 11 * transit_hashes,
                first_stage: conn_stages,
                stages: 1,
                // One-cycle read-check-modify-write membership (§4.3): must
                // live in a single stage.
                transactional: true,
            }],
            deps: vec![
                // The paper's miss-path order (§4.3): ConnTable lookup →
                // TransitTable membership verdict → VIPTable version read →
                // DIPPoolTable resolution.
                TableDependency {
                    before: "ConnTable",
                    after: "TransitTable",
                },
                TableDependency {
                    before: "TransitTable",
                    after: "VIPTable",
                },
                TableDependency {
                    before: "VIPTable",
                    after: "DIPPoolTable",
                },
            ],
            // digest(16) + old/new version(12) + transit flag + DIP select
            // hash carried in PHV.
            metadata_bits: 32,
            selector_hash_bits: 64, // the in-pool DIP selection hash
            pipes: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::bytes_to_mb;

    #[test]
    fn baseline_magnitudes_plausible() {
        let u = PipelineProgram::baseline_switch_p4().resource_usage();
        // switch.p4-class programs use ~10-20 MB of table SRAM, a couple MB
        // of TCAM, dozens of VLIW slots, and O(1kb) crossbar/hash.
        assert!(
            (8.0..25.0).contains(&bytes_to_mb(u.sram_bytes as u64)),
            "{u:?}"
        );
        assert!(
            (1.0..5.0).contains(&bytes_to_mb(u.tcam_bytes as u64)),
            "{u:?}"
        );
        assert!((60.0..120.0).contains(&u.vliw_actions), "{u:?}");
        assert!((250.0..1500.0).contains(&u.hash_bits), "{u:?}");
        assert!((800.0..2500.0).contains(&u.crossbar_bits), "{u:?}");
        assert_eq!(u.stateful_alus, 18.0);
    }

    #[test]
    fn silkroad_program_matches_paper_shape() {
        let u = PipelineProgram::silkroad_paper().resource_usage();
        // No TCAM at all; one SRAM word per 4 connections dominates memory.
        assert_eq!(u.tcam_bytes, 0.0);
        assert!(u.sram_bytes > 3.4e6 && u.sram_bytes < 4.5e6, "{u:?}");
        assert_eq!(u.stateful_alus, 8.0);
        assert!(u.phv_bits < 64.0);
    }

    #[test]
    fn conn_table_dominates_and_scales() {
        let small = PipelineProgram::silkroad(100_000, 4, 16, 6, 1_000, 4_000, 144, 256, 4)
            .resource_usage();
        let big = PipelineProgram::silkroad(10_000_000, 4, 16, 6, 1_000, 4_000, 144, 256, 4)
            .resource_usage();
        assert!(big.sram_bytes > 30.0 * small.sram_bytes);
        // Everything else is geometry-fixed.
        assert!(small.hash_bits > 0.0);
        assert_eq!(small.vliw_actions, big.vliw_actions);
        assert_eq!(small.crossbar_bits, big.crossbar_bits);
    }

    #[test]
    fn digest_width_changes_storage_not_crossbar() {
        let d16 = PipelineProgram::silkroad_paper().resource_usage();
        let d24 = PipelineProgram::silkroad(1_000_000, 4, 24, 6, 1_000, 4_000, 144, 256, 4)
            .resource_usage();
        assert!(d24.sram_bytes > d16.sram_bytes);
        assert_eq!(d24.crossbar_bits, d16.crossbar_bits);
    }

    #[test]
    fn table_decl_rules() {
        let t = TableDecl {
            name: "t",
            kind: MatchKind::Exact,
            key_bits: 100,
            stored_key_bits: 16,
            action_bits: 6,
            entries: 1_000_000,
            first_stage: 0,
            stages: 4,
            action_slots: 4,
        };
        assert_eq!(t.tcam_bytes(), 0);
        assert_eq!(t.crossbar_bits(), 400);
        // 28-bit entries, 4/word: 250K words = 3.5 MB.
        assert_eq!(t.sram_bytes(), 3_500_000);
        assert!(t.hash_bits() >= 4 * 16);

        let tern = TableDecl {
            kind: MatchKind::Ternary,
            ..t
        };
        assert_eq!(tern.sram_bytes(), 0);
        assert_eq!(tern.hash_bits(), 0);
        assert_eq!(tern.tcam_bytes(), 1_000_000 * 25);
    }
}
