//! The algorithm registry: names, parsing, and per-algorithm physical
//! pipeline layouts for `srcheck` validation.

use sr_asic::{MatchKind, PipelineProgram, RegisterDecl, TableDecl, TableDependency};

/// The four algorithms in the comparison zoo.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgoName {
    /// The paper's design: digest+version ConnTable for every flow.
    Silkroad,
    /// Version-in-packet steering; ConnTable only for transition windows.
    Concury,
    /// Cuckoo-filter fingerprint ConnTable; denser, audited false positives.
    Cucotrack,
    /// Stateless ECMP + entries only for update-crossing flows.
    Hybrid,
}

impl AlgoName {
    /// All algorithms, matrix order (SilkRoad first — the baseline row).
    pub fn all() -> [AlgoName; 4] {
        [
            AlgoName::Silkroad,
            AlgoName::Concury,
            AlgoName::Cucotrack,
            AlgoName::Hybrid,
        ]
    }

    /// The CLI/JSON name.
    pub fn label(self) -> &'static str {
        match self {
            AlgoName::Silkroad => "silkroad",
            AlgoName::Concury => "concury",
            AlgoName::Cucotrack => "cucotrack",
            AlgoName::Hybrid => "hybrid",
        }
    }

    /// Parse a CLI name (exact, lowercase).
    pub fn parse(s: &str) -> Option<AlgoName> {
        AlgoName::all().into_iter().find(|a| a.label() == s)
    }

    /// The algorithm's physical pipeline layout at comparison scale
    /// (1 M-connection class, 1 K VIPs), for `srcheck` placement
    /// validation. SilkRoad's is the paper layout; the others follow the
    /// same declaration discipline with their own table shapes.
    pub fn layout(self) -> PipelineProgram {
        match self {
            AlgoName::Silkroad => PipelineProgram::silkroad_paper(),
            AlgoName::Concury => concury_layout(),
            AlgoName::Cucotrack => cucotrack_layout(),
            AlgoName::Hybrid => hybrid_layout(),
        }
    }
}

impl std::fmt::Display for AlgoName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Concury: the version arrives *parsed from the packet* (DSCP), so the
/// pipeline needs no per-flow ConnTable at scale — a small transition
/// table covers window-born flows. The DIPPoolTable is the big structure:
/// per-version compact maps deep enough for a 64-version ring.
fn concury_layout() -> PipelineProgram {
    PipelineProgram {
        name: "concury",
        tables: vec![
            TableDecl {
                name: "TransitionTable",
                kind: MatchKind::Exact,
                key_bits: 104,
                stored_key_bits: 16,
                action_bits: 6,
                entries: 65_536,
                first_stage: 0,
                stages: 2,
                action_slots: 4,
            },
            TableDecl {
                name: "VIPTable",
                kind: MatchKind::Exact,
                key_bits: 152,
                stored_key_bits: 152,
                action_bits: 2 * 6,
                entries: 1_000,
                first_stage: 3,
                stages: 1,
                action_slots: 3,
            },
            // Versioned membership for the whole ring: the structure that
            // replaces per-connection state.
            TableDecl {
                name: "DIPPoolTable",
                kind: MatchKind::Exact,
                key_bits: 32 + 6,
                stored_key_bits: 32 + 6,
                action_bits: 144,
                entries: 64_000,
                first_stage: 4,
                stages: 2,
                action_slots: 6,
            },
        ],
        registers: vec![
            // Stamp validity counters: per-version liveness refcounts the
            // control plane reads before retiring a ring slot.
            RegisterDecl {
                name: "VersionRefcounts",
                cells: 64_000,
                width_bits: 32,
                alus: 2,
                index_hash_bits: 16,
                first_stage: 6,
                stages: 1,
                transactional: false,
            },
        ],
        deps: vec![
            TableDependency {
                before: "TransitionTable",
                after: "VIPTable",
            },
            TableDependency {
                before: "VIPTable",
                after: "DIPPoolTable",
            },
            TableDependency {
                before: "DIPPoolTable",
                after: "VersionRefcounts",
            },
        ],
        // Parsed DSCP version (6) + validity flag + select hash + digest.
        metadata_bits: 40,
        selector_hash_bits: 64,
        pipes: 1,
    }
}

/// CuCoTrack: a 2-way cuckoo-filter ConnTable storing 8-bit fingerprints +
/// 6-bit versions — denser words than SilkRoad (5 entries per 112-bit word
/// vs 4), provisioned for the same 1 M connections, plus an audit counter
/// register for the false-positive accounting the design owes its users.
fn cucotrack_layout() -> PipelineProgram {
    PipelineProgram {
        name: "cucotrack",
        tables: vec![
            TableDecl {
                name: "CuckooFilter",
                kind: MatchKind::Exact,
                key_bits: 104,
                stored_key_bits: 8,
                action_bits: 6,
                entries: 1_000_000,
                first_stage: 0,
                stages: 2,
                action_slots: 4,
            },
            TableDecl {
                name: "VIPTable",
                kind: MatchKind::Exact,
                key_bits: 152,
                stored_key_bits: 152,
                action_bits: 2 * 6,
                entries: 1_000,
                first_stage: 3,
                stages: 1,
                action_slots: 3,
            },
            TableDecl {
                name: "DIPPoolTable",
                kind: MatchKind::Exact,
                key_bits: 32 + 6,
                stored_key_bits: 32 + 6,
                action_bits: 144,
                entries: 4_000,
                first_stage: 4,
                stages: 1,
                action_slots: 6,
            },
        ],
        registers: vec![
            // False-positive audit counters (per-stage collision tallies
            // the switch CPU samples).
            RegisterDecl {
                name: "FpAuditCounters",
                cells: 4_096,
                width_bits: 32,
                alus: 2,
                index_hash_bits: 12,
                first_stage: 2,
                stages: 1,
                transactional: false,
            },
        ],
        deps: vec![
            TableDependency {
                before: "CuckooFilter",
                after: "FpAuditCounters",
            },
            TableDependency {
                before: "FpAuditCounters",
                after: "VIPTable",
            },
            TableDependency {
                before: "VIPTable",
                after: "DIPPoolTable",
            },
        ],
        // fingerprint (8) + version (6) + audit flag + select hash slice.
        metadata_bits: 32,
        selector_hash_bits: 64,
        pipes: 1,
    }
}

/// Hybrid: almost no match infrastructure — a VIPTable, one flat member
/// map, the ECMP selector hash, and a small exact table for the handful of
/// update-crossing flows (full 5-tuple keys: there is no digest path).
fn hybrid_layout() -> PipelineProgram {
    PipelineProgram {
        name: "hybrid",
        tables: vec![
            TableDecl {
                name: "PinnedFlowTable",
                kind: MatchKind::Exact,
                key_bits: 104,
                stored_key_bits: 104,
                action_bits: 144,
                entries: 65_536,
                first_stage: 0,
                stages: 2,
                action_slots: 4,
            },
            TableDecl {
                name: "VIPTable",
                kind: MatchKind::Exact,
                key_bits: 152,
                stored_key_bits: 152,
                action_bits: 2 * 6,
                entries: 1_000,
                first_stage: 3,
                stages: 1,
                action_slots: 3,
            },
            TableDecl {
                name: "EcmpMemberTable",
                kind: MatchKind::Exact,
                key_bits: 32,
                stored_key_bits: 32,
                action_bits: 144,
                entries: 16_000,
                first_stage: 4,
                stages: 1,
                action_slots: 6,
            },
        ],
        registers: vec![],
        deps: vec![
            TableDependency {
                before: "PinnedFlowTable",
                after: "VIPTable",
            },
            TableDependency {
                before: "VIPTable",
                after: "EcmpMemberTable",
            },
        ],
        // Window flag + generation + select hash.
        metadata_bits: 24,
        selector_hash_bits: 64,
        pipes: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_asic::ChipSpec;

    #[test]
    fn parse_round_trips_all_names() {
        for a in AlgoName::all() {
            assert_eq!(AlgoName::parse(a.label()), Some(a));
        }
        assert_eq!(AlgoName::parse("nosuch"), None);
        assert_eq!(AlgoName::parse("SILKROAD"), None, "names are lowercase");
    }

    #[test]
    fn all_four_layouts_place_on_the_papers_chip() {
        let chip = ChipSpec::tofino_class();
        for a in AlgoName::all() {
            let report = a.layout().check(&chip);
            assert!(
                report.is_placeable(),
                "{} not placeable:\n{}",
                a.label(),
                report.render()
            );
        }
    }

    #[test]
    fn concury_spends_sram_on_pools_not_connections() {
        let concury = AlgoName::Concury.layout().resource_usage();
        let silkroad = AlgoName::Silkroad.layout().resource_usage();
        // Concury's whole footprint is below SilkRoad's even though its
        // 64K-row versioned pool table dominates it: trading 1M conn
        // entries for deep pools is the design's honest bargain.
        assert!(
            concury.sram_bytes < silkroad.sram_bytes * 0.7,
            "concury {} vs silkroad {}",
            concury.sram_bytes,
            silkroad.sram_bytes
        );
    }

    #[test]
    fn cucotrack_conn_entries_are_denser_than_silkroads() {
        let cuco = AlgoName::Cucotrack.layout();
        let silk = AlgoName::Silkroad.layout();
        let cuco_conn = cuco
            .tables
            .iter()
            .find(|t| t.name == "CuckooFilter")
            .unwrap();
        let silk_conn = silk.tables.iter().find(|t| t.name == "ConnTable").unwrap();
        assert_eq!(cuco_conn.entries, silk_conn.entries);
        assert!(cuco_conn.sram_bytes() < silk_conn.sram_bytes());
    }
}
