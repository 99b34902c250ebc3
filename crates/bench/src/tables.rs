//! Tables 1 and 2.

use crate::report::Table;
use sr_asic::resources::{ASIC_GENERATIONS, SWITCH_P4_USAGE};
use sr_asic::{PipelineProgram, ResourcePercent, ResourceUsage};

/// Render Table 1 (ASIC SRAM/capacity trend).
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1 — trend of SRAM size and switching capacity in ASICs",
        &["ASIC generation", "Year", "Tbps", "SRAM (MB)"],
    );
    for g in ASIC_GENERATIONS {
        t.row(vec![
            g.label.to_string(),
            g.year.to_string(),
            format!("{:.1}", g.capacity_tbps),
            format!("{}-{}", g.sram_mb_low, g.sram_mb_high),
        ]);
    }
    t
}

/// SilkRoad's absolute demand at `conn_entries` connections: the program
/// `p4/silkroad.p4` lowers to, with only its ConnTable resized.
pub fn silkroad_usage(conn_entries: u64) -> ResourceUsage {
    let mut prog = PipelineProgram::silkroad_paper();
    prog.tables
        .iter_mut()
        .find(|t| t.name == "ConnTable")
        .expect("the SilkRoad program declares a ConnTable")
        .entries = conn_entries;
    prog.resource_usage()
}

/// Compute Table 2 percentages for `conn_entries` connections.
pub fn table2(conn_entries: u64) -> ResourcePercent {
    silkroad_usage(conn_entries).percent_of(&SWITCH_P4_USAGE)
}

/// Render Table 2 next to the paper's published values.
pub fn table2_table(conn_entries: u64) -> Table {
    let (base, silk) = (SWITCH_P4_USAGE, silkroad_usage(conn_entries));
    let p = silk.percent_of(&base);
    let mut t = Table::new(
        format!("Table 2 — additional H/W resources, {conn_entries} connection entries (% of baseline switch.p4)"),
        &["Resource", "switch.p4", "SilkRoad", "Model", "Paper"],
    );
    let rows: [(&str, f64, f64, f64, &str); 7] = [
        (
            "Match Crossbar",
            base.crossbar_bits,
            silk.crossbar_bits,
            p.crossbar,
            "37.53%",
        ),
        ("SRAM", base.sram_bytes, silk.sram_bytes, p.sram, "27.92%"),
        ("TCAM", base.tcam_bytes, silk.tcam_bytes, p.tcam, "0%"),
        (
            "VLIW Actions",
            base.vliw_actions,
            silk.vliw_actions,
            p.vliw,
            "18.89%",
        ),
        (
            "Hash Bits",
            base.hash_bits,
            silk.hash_bits,
            p.hash_bits,
            "34.17%",
        ),
        (
            "Stateful ALUs",
            base.stateful_alus,
            silk.stateful_alus,
            p.stateful_alus,
            "44.44%",
        ),
        (
            "Packet Header Vector",
            base.phv_bits,
            silk.phv_bits,
            p.phv,
            "0.98%",
        ),
    ];
    for (name, b, s, v, paper) in rows {
        t.row(vec![
            name.to_string(),
            format!("{b:.0}"),
            format!("{s:.0}"),
            format!("{v:.2}%"),
            paper.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_asic::sram::bytes_to_mb;

    #[test]
    fn table1_renders_three_generations() {
        let s = table1().render();
        assert!(s.contains("2012") && s.contains("2016"));
        assert!(s.contains("50-100"));
    }

    #[test]
    fn table2_percentages_in_paper_ballpark() {
        // Paper: crossbar 37.53, SRAM 27.92, TCAM 0, VLIW 18.89,
        // hash 34.17, sALU 44.44, PHV 0.98 (percent).
        let p = table2(1_000_000);
        assert!(
            (20.0..60.0).contains(&p.crossbar),
            "crossbar {}",
            p.crossbar
        );
        assert!((20.0..40.0).contains(&p.sram), "sram {}", p.sram);
        assert_eq!(p.tcam, 0.0);
        assert!((10.0..30.0).contains(&p.vliw), "vliw {}", p.vliw);
        assert!((20.0..50.0).contains(&p.hash_bits), "hash {}", p.hash_bits);
        assert!(
            (30.0..60.0).contains(&p.stateful_alus),
            "salu {}",
            p.stateful_alus
        );
        assert!(p.phv < 2.0, "phv {}", p.phv);
    }

    #[test]
    fn table2_one_million_under_fifty_percent() {
        let p = table2(1_000_000);
        for v in [
            p.crossbar,
            p.sram,
            p.tcam,
            p.vliw,
            p.hash_bits,
            p.stateful_alus,
            p.phv,
        ] {
            assert!(v < 60.0, "resource exceeds the paper's <50% headline: {v}");
        }
        assert!(table2_table(1_000_000).render().contains("Stateful ALUs"));
    }

    /// The paper's 10 M-connection claim, against the high end of each
    /// generation's SRAM range: SilkRoad plus the switch.p4 baseline fits
    /// the 2016 generation but not the 2012 one.
    #[test]
    fn ten_million_connections_fit_2016_asic() {
        let need = silkroad_usage(10_000_000).sram_bytes + SWITCH_P4_USAGE.sram_bytes;
        assert_eq!(need, 47_959_380.0);
        let need_mb = bytes_to_mb(need as u64);
        assert!(
            need_mb <= ASIC_GENERATIONS[2].sram_mb_high as f64,
            "{need_mb}"
        );
        assert!(
            need_mb > ASIC_GENERATIONS[0].sram_mb_high as f64,
            "{need_mb}"
        );
    }

    #[test]
    fn demand_scales_with_connections() {
        let small = silkroad_usage(100_000);
        let big = silkroad_usage(10_000_000);
        assert!(big.sram_bytes > small.sram_bytes * 50.0);
    }

    /// SRAM scales linearly with connections; hash bits grow only by the
    /// ConnTable's bucket-address width (4 stages x 4 more bits from 1 M
    /// to 10 M); every other class is fixed by the program's shape.
    #[test]
    fn table2_scaling_law() {
        let one = silkroad_usage(1_000_000);
        let ten = silkroad_usage(10_000_000);
        assert_eq!(ten.crossbar_bits, one.crossbar_bits);
        assert_eq!(ten.vliw_actions, one.vliw_actions);
        assert_eq!(ten.stateful_alus, one.stateful_alus);
        assert_eq!(ten.phv_bits, one.phv_bits);
        assert_eq!(ten.tcam_bytes, one.tcam_bytes);
        assert_eq!(ten.hash_bits - one.hash_bits, 16.0);
        assert!(ten.sram_bytes > one.sram_bytes * 5.0);
    }
}
