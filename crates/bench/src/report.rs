//! Plain-text table rendering for the `repro` binary, and the one writer
//! behind every committed `BENCH_*.json` document.
//!
//! The documents are deterministic and `tools/verify.sh` `cmp`s a fresh
//! full run against each committed file, so their layout is fixed: one
//! top-level key per line, row arrays with one inline object per line,
//! short arrays and nested objects inline, no trailing comma. Every
//! value is rendered at its call site — numbers and booleans through
//! `Display` (at each document's chosen precision), strings through
//! [`json_str`] — so a document is just an ordered list of key/value
//! pairs. No serde: the build is offline.

use std::fmt::Display;

/// A printable table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Title line.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a fraction as a percentage with sensible precision.
pub fn pct(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x < 0.0001 {
        format!("{:.5}%", 100.0 * x)
    } else if x < 0.01 {
        format!("{:.3}%", 100.0 * x)
    } else {
        format!("{:.1}%", 100.0 * x)
    }
}

/// Format a byte count as MB.
pub fn mb(bytes: u64) -> String {
    format!("{:.1} MB", bytes as f64 / (1024.0 * 1024.0))
}

/// Render a whole document: one top-level key per line.
pub fn json_doc(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Render an inline object, `{"k": v, ...}`.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Render a top-level array of rows (usually [`json_object`]s), one per
/// line.
pub fn json_rows(rows: &[String]) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
    format!("[\n{}\n  ]", body.join(",\n"))
}

/// Render an inline array, `[a, b, c]`.
pub fn json_array<T: Display>(items: &[T]) -> String {
    let body: Vec<String> = items.iter().map(|i| i.to_string()).collect();
    format!("[{}]", body.join(", "))
}

/// Render a string value. Callers pass fixed labels and notes, which
/// hold no quote or backslash to escape.
pub fn json_str(s: &str) -> String {
    format!("\"{s}\"")
}

/// Render a 64-bit digest as a fixed-width hex string value.
pub fn json_hex(digest: u64) -> String {
    format!("\"{digest:016x}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.0), "0");
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.001), "0.100%");
        assert_eq!(pct(0.00001), "0.00100%");
        assert_eq!(mb(14 << 20), "14.0 MB");
    }

    #[test]
    fn json_layout_is_fixed() {
        let rows = [
            json_object(&[("a", 1.to_string()), ("b", json_str("x"))]),
            json_object(&[("a", 2.to_string()), ("b", json_str("y"))]),
        ];
        let doc = json_doc(&[
            ("bench", json_str("demo")),
            ("pipes", json_array(&[1, 2, 4])),
            ("digest", json_hex(0xab)),
            ("points", json_rows(&rows)),
        ]);
        assert_eq!(
            doc,
            "{\n  \"bench\": \"demo\",\n  \"pipes\": [1, 2, 4],\n  \
             \"digest\": \"00000000000000ab\",\n  \"points\": [\n    \
             {\"a\": 1, \"b\": \"x\"},\n    {\"a\": 2, \"b\": \"y\"}\n  ]\n}\n"
        );
    }
}
