//! `srlint` — the workspace's source-level lint gate.
//!
//! Complements `srcheck` (the pipeline-*layout* verifier in `sr-asic`):
//! where srcheck rejects programs the chip cannot place, srlint rejects
//! *source* that violates the repo's hot-path and hygiene policies —
//! things `cargo clippy` cannot express per-region:
//!
//! * **no-panic** — no `panic!`/`todo!`/`unimplemented!`/`unreachable!`/
//!   `.unwrap()`/`.expect(` in hot-path code. The packet path must be
//!   total: a panicking data plane is a dropped line card.
//! * **no-index** — no slice/array indexing (`x[i]`) in hot-path code;
//!   every index is a bounds-check branch and a potential panic.
//! * **no-alloc** — no allocating constructors (`Vec::new`, `vec![`,
//!   `format!`, `.collect()`, …) in hot-path code; the steady-state packet
//!   path reuses caller-owned buffers (`tests/alloc_regression.rs` proves
//!   it dynamically, this rule catches sneak-ins at review time).
//! * **no-as-cast** — no numeric `as` casts in hot-path code. `as` to a
//!   narrower integer silently truncates and `as` between signedness
//!   silently wraps; the packet path converts via `From`/`TryFrom` (or an
//!   explicit mask that states the intended width). Audited exceptions —
//!   provably-widening casts, lane-index arithmetic already bounded by a
//!   mask — are allowlisted per line.
//! * **no-std-hashmap** — `sr-core` and `sr-hash` must use the workspace's
//!   `FxHash` maps, not `std::collections::HashMap`/`HashSet` (SipHash
//!   costs ~4x on short keys; see `sr_hash::FxHashMap`).
//! * **forbid-unsafe** / **crate-docs** — every first-party crate root
//!   carries `#![forbid(unsafe_code)]` and starts with `//!` docs.
//!
//! Hot-path scope is the three whole-file modules `crates/core/src/dataplane.rs`,
//! `crates/hash/src/bloom.rs` and `crates/hash/src/hasher.rs` (the hash
//! kernel every lane runs), plus any region bracketed by
//! `// srlint: hot-path begin` / `// srlint: hot-path end` markers
//! (the `SilkRoadSwitch` batch path, the cuckoo probe functions, the
//! `MultiPipeSwitch` steering/dispatch path and its per-pipe lanes'
//! `send`/`recv` in `crates/core/src/engine/mod.rs`, and `run_job`, the
//! worker loop body both backends run, in
//! `crates/core/src/engine/worker.rs`). Code from the first file-scope
//! `#[cfg(test)]` item onward is exempt.
//!
//! Intentional exceptions live in `tools/srlint/allow.list`, keyed by
//! `path<TAB>rule<TAB>trimmed-line-content` — content-keyed, so an entry
//! survives line-number churn but dies with the code it excuses: an entry
//! that matches nothing is itself an error.
//!
//! Exit status: 0 clean, 1 violations or unused allowlist entries,
//! 2 usage/io error. Run from the workspace root (or pass the root as the
//! first argument).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

/// Files treated as hot-path in their entirety (workspace-relative).
const HOT_FILES: [&str; 3] = [
    "crates/core/src/dataplane.rs",
    "crates/hash/src/bloom.rs",
    "crates/hash/src/hasher.rs",
];

/// Crates (workspace-relative source prefixes) under the FxHash policy.
const FXHASH_CRATES: [&str; 2] = ["crates/core/src/", "crates/hash/src/"];

/// Source directories scanned (first-party only; `vendor/` is exempt).
const SCAN_DIRS: [&str; 3] = ["src", "crates", "tools"];

/// Panic-family patterns banned in hot-path code.
const PANIC_PATTERNS: [&str; 6] = [
    "panic!(",
    "todo!(",
    "unimplemented!(",
    "unreachable!(",
    ".unwrap()",
    ".expect(",
];

/// Allocating-call patterns banned in hot-path code. Setup-time
/// allocations inside a hot region (constructors, the one warm buffer a
/// batch entry point hands out) are excused via the allowlist.
const ALLOC_PATTERNS: [&str; 11] = [
    "Vec::new(",
    "Vec::with_capacity(",
    "vec![",
    "Box::new(",
    "String::new(",
    "String::with_capacity(",
    "format!(",
    ".to_vec()",
    ".to_string()",
    ".to_owned()",
    ".collect()",
];

/// Primitive numeric types whose `as` casts the no-as-cast rule flags.
/// (Prefix-free as a set once the following character is checked, so a
/// simple starts-with match per candidate is exact.)
const CAST_TARGETS: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

struct Violation {
    path: String,
    line: usize,
    rule: &'static str,
    content: String,
    message: String,
}

fn main() {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    if root == "--help" || root == "-h" {
        eprintln!("usage: srlint [workspace-root]");
        std::process::exit(2);
    }
    let root = PathBuf::from(root);
    let allow_path = root.join("tools/srlint/allow.list");
    let allow = match load_allowlist(&allow_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("srlint: cannot read {}: {e}", allow_path.display());
            std::process::exit(2);
        }
    };

    let mut files: Vec<PathBuf> = Vec::new();
    for dir in SCAN_DIRS {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    let mut violations: Vec<Violation> = Vec::new();
    let mut allowed = 0usize;
    let mut used_allow: Vec<bool> = vec![false; allow.len()];
    for file in &files {
        let rel = match file.strip_prefix(&root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => file.to_string_lossy().into_owned(),
        };
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("srlint: cannot read {rel}: {e}");
                std::process::exit(2);
            }
        };
        for v in lint_source(&rel, &text) {
            match allow
                .iter()
                .position(|(p, r, c)| *p == v.path && *r == v.rule && *c == v.content)
            {
                Some(i) => {
                    used_allow[i] = true;
                    allowed += 1;
                }
                None => violations.push(v),
            }
        }
    }

    for v in &violations {
        println!("{}:{}: {}: {}", v.path, v.line, v.rule, v.message);
        println!("    {}", v.content);
    }
    // A stale exception is a violation too: the list must shrink with the
    // code it excuses, or it silently pre-approves the next offender.
    let unused: Vec<_> = allow
        .iter()
        .zip(&used_allow)
        .filter(|(_, used)| !**used)
        .map(|(entry, _)| entry)
        .collect();
    for (p, r, c) in &unused {
        println!("tools/srlint/allow.list: unused entry: {p}\t{r}\t{c}");
    }
    if violations.is_empty() && unused.is_empty() {
        println!(
            "srlint: clean ({} files, {} allowlisted exception{})",
            files.len(),
            allowed,
            if allowed == 1 { "" } else { "s" }
        );
        return;
    }
    println!(
        "srlint: {} violation{}, {} unused allow.list entr{} ({} files, {} allowlisted)",
        violations.len(),
        if violations.len() == 1 { "" } else { "s" },
        unused.len(),
        if unused.len() == 1 { "y" } else { "ies" },
        files.len(),
        allowed
    );
    println!(
        "    (intentional? add `path<TAB>rule<TAB>line-content` to tools/srlint/allow.list; \
         unused entries must be deleted)"
    );
    std::process::exit(1);
}

/// Recursively collect `.rs` files, skipping `vendor/` and `target/`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "vendor" || name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Parse the allowlist: `path<TAB>rule<TAB>trimmed-line-content` per line;
/// `#` comments and blank lines ignored. A missing file means no exceptions.
fn load_allowlist(path: &Path) -> std::io::Result<Vec<(String, String, String)>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.splitn(3, '\t');
        match (it.next(), it.next(), it.next()) {
            (Some(p), Some(r), Some(c)) => {
                out.push((p.to_string(), r.to_string(), c.trim().to_string()))
            }
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("malformed allow.list line (want 3 tab-separated fields): {line}"),
                ))
            }
        }
    }
    Ok(out)
}

/// Lint one file's source; pure so tests can drive it with fixtures.
fn lint_source(rel: &str, text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let is_crate_root = rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs");
    if is_crate_root {
        if !text.contains("#![forbid(unsafe_code)]") {
            out.push(Violation {
                path: rel.to_string(),
                line: 1,
                rule: "forbid-unsafe",
                content: String::new(),
                message: "crate root lacks #![forbid(unsafe_code)]".to_string(),
            });
        }
        if !text.starts_with("//!") {
            out.push(Violation {
                path: rel.to_string(),
                line: 1,
                rule: "crate-docs",
                content: String::new(),
                message: "crate root does not start with //! crate-level docs".to_string(),
            });
        }
    }

    let fxhash_scope = FXHASH_CRATES.iter().any(|p| rel.starts_with(p));
    let whole_file_hot = HOT_FILES.contains(&rel);
    let mut hot = whole_file_hot;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = raw.trim();
        match trimmed {
            "// srlint: hot-path begin" => {
                hot = true;
                continue;
            }
            "// srlint: hot-path end" => {
                hot = whole_file_hot;
                continue;
            }
            _ => {}
        }
        // Test code (and everything after it — test modules close the
        // files in this workspace) is exempt from all line rules. Only a
        // file-scope item counts: an indented `#[cfg(test)]` gates one
        // field, statement or method and the code after it is still live.
        if raw.starts_with("#[cfg(test)]") {
            break;
        }
        let code = strip_strings_and_comments(raw);
        if fxhash_scope {
            for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
                if code.contains(ty) {
                    out.push(Violation {
                        path: rel.to_string(),
                        line: line_no,
                        rule: "no-std-hashmap",
                        content: trimmed.to_string(),
                        message: format!(
                            "{ty} in an FxHash-policy crate (use sr_hash::FxHashMap/FxHashSet)"
                        ),
                    });
                }
            }
        }
        if hot {
            for pat in PANIC_PATTERNS {
                if code.contains(pat) {
                    out.push(Violation {
                        path: rel.to_string(),
                        line: line_no,
                        rule: "no-panic",
                        content: trimmed.to_string(),
                        message: format!("panicking call `{pat}..` in hot-path code"),
                    });
                }
            }
            if has_indexing(&code) {
                out.push(Violation {
                    path: rel.to_string(),
                    line: line_no,
                    rule: "no-index",
                    content: trimmed.to_string(),
                    message: "slice/array indexing in hot-path code (get/iterators instead)"
                        .to_string(),
                });
            }
            for pat in ALLOC_PATTERNS {
                if code.contains(pat) {
                    out.push(Violation {
                        path: rel.to_string(),
                        line: line_no,
                        rule: "no-alloc",
                        content: trimmed.to_string(),
                        message: format!(
                            "allocating call `{pat}..` in hot-path code (reuse a buffer)"
                        ),
                    });
                }
            }
            if let Some(ty) = numeric_as_cast(&code) {
                out.push(Violation {
                    path: rel.to_string(),
                    line: line_no,
                    rule: "no-as-cast",
                    content: trimmed.to_string(),
                    message: format!(
                        "`as {ty}` cast in hot-path code (silently truncates/wraps; use \
                         From/TryFrom or an explicit mask)"
                    ),
                });
            }
        }
    }
    out
}

/// Blank out string literals and drop `//` comments so patterns inside
/// them do not fire. Line-local; block comments are rare enough here that
/// doc examples live in `///` lines, which this also drops.
fn strip_strings_and_comments(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            if c == '\\' {
                chars.next();
            } else if c == '"' {
                in_str = false;
            }
            out.push(' ');
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(' ');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// Find a numeric `as` cast: the token ` as ` followed by a primitive
/// numeric type name (then a non-identifier character). `use x as y` and
/// identifiers containing "as" never match — `as` must stand alone and
/// the target must be one of `CAST_TARGETS` exactly.
fn numeric_as_cast(code: &str) -> Option<&'static str> {
    let mut start = 0;
    while let Some(pos) = code[start..].find(" as ") {
        let rest = code[start + pos + 4..].trim_start();
        for ty in CAST_TARGETS {
            if let Some(after) = rest.strip_prefix(ty) {
                let boundary = !after
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
                if boundary {
                    return Some(ty);
                }
            }
        }
        start += pos + 4;
    }
    None
}

/// Indexing heuristic: a `[` directly preceded by an identifier character
/// or a closing bracket is a subscript (`buf[i]`, `f()[0]`, `m[i][j]`);
/// `&[u8]`, `#[attr]`, `: [T; N]`, and array literals are not.
fn has_indexing(code: &str) -> bool {
    let bytes = code.as_bytes();
    for i in 1..bytes.len() {
        if bytes[i] != b'[' {
            continue;
        }
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']' {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str) -> Vec<&'static str> {
        lint_source(rel, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn hot_file_catches_panic_family_and_indexing() {
        let src = "fn f(x: &[u8]) -> u8 {\n    let v = x[0];\n    x.first().copied().unwrap()\n}\n";
        let got = rules("crates/core/src/dataplane.rs", src);
        assert!(got.contains(&"no-index"), "{got:?}");
        assert!(got.contains(&"no-panic"), "{got:?}");
    }

    #[test]
    fn cold_file_is_unconstrained() {
        let src = "fn f(x: &[u8]) -> u8 { x[0] }\n";
        assert!(rules("crates/sim/src/harness.rs", src).is_empty());
    }

    #[test]
    fn marker_regions_toggle_hot_scope() {
        let src = "fn a(x: &[u8]) -> u8 { x[0] }\n\
                   // srlint: hot-path begin\n\
                   fn b(x: &[u8]) -> u8 { x[1] }\n\
                   // srlint: hot-path end\n\
                   fn c(x: &[u8]) -> u8 { x[2] }\n";
        let v = lint_source("crates/core/src/switch.rs", src);
        assert_eq!(
            v.len(),
            1,
            "{:?}",
            v.iter().map(|v| v.line).collect::<Vec<_>>()
        );
        assert_eq!(v[0].line, 3);
        assert_eq!(v[0].rule, "no-index");
    }

    #[test]
    fn hot_scope_catches_allocations() {
        let src = "// srlint: hot-path begin\n\
                   fn f() -> Vec<u8> {\n\
                       let v: Vec<u8> = (0..4).collect();\n\
                       v\n\
                   }\n\
                   // srlint: hot-path end\n\
                   fn cold() -> Vec<u8> { vec![0; 4] }\n";
        let v = lint_source("crates/core/src/engine.rs", src);
        assert_eq!(
            v.len(),
            1,
            "{:?}",
            v.iter().map(|v| v.line).collect::<Vec<_>>()
        );
        assert_eq!(v[0].rule, "no-alloc");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn hot_scope_catches_numeric_as_casts() {
        let src = "// srlint: hot-path begin\n\
                   fn f(x: u32) -> u8 { (x >> 24) as u8 }\n\
                   // srlint: hot-path end\n\
                   fn cold(x: u32) -> u8 { (x >> 24) as u8 }\n";
        let v = lint_source("crates/core/src/engine.rs", src);
        assert_eq!(
            v.len(),
            1,
            "{:?}",
            v.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>()
        );
        assert_eq!(v[0].rule, "no-as-cast");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn as_cast_targets_are_matched_exactly() {
        // Renaming imports, non-numeric casts, and identifiers containing
        // "as" are not casts; every numeric primitive target is.
        for clean in [
            "use std::io::Result as IoResult;\n",
            "let p = x as *const u8;\n",
            "let y = x as u8x16;\n",
            "fn measure_as_u8() {}\n",
        ] {
            let src = format!("// srlint: hot-path begin\n{clean}// srlint: hot-path end\n");
            assert!(
                rules("crates/core/src/engine.rs", &src).is_empty(),
                "false positive on: {clean}"
            );
        }
        for ty in CAST_TARGETS {
            let src =
                format!("// srlint: hot-path begin\nlet y = x as {ty};\n// srlint: hot-path end\n");
            assert_eq!(
                rules("crates/core/src/engine.rs", &src),
                ["no-as-cast"],
                "missed target {ty}"
            );
        }
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "// srlint: hot-path begin\n\
                   fn ok() {}\n\
                   // srlint: hot-path end\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(x: &[u8]) { x[0]; None::<u8>.unwrap(); }\n\
                   }\n";
        assert!(rules("crates/core/src/switch.rs", src).is_empty());
    }

    #[test]
    fn nested_cfg_test_does_not_end_linting() {
        // A test-only field early in a file must not blind the gate to the
        // hot regions below it.
        let src = "struct T {\n    #[cfg(test)]\n    bypass: bool,\n}\n\
                   // srlint: hot-path begin\n\
                   fn f(x: &[u8]) -> u8 { x[0] }\n\
                   // srlint: hot-path end\n";
        assert_eq!(rules("crates/hash/src/cuckoo.rs", src), ["no-index"]);
    }

    #[test]
    fn fxhash_policy_fires_only_in_policy_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules("crates/core/src/stats.rs", src), ["no-std-hashmap"]);
        assert_eq!(rules("crates/hash/src/cuckoo.rs", src), ["no-std-hashmap"]);
        assert!(rules("crates/sim/src/scenarios.rs", src).is_empty());
    }

    #[test]
    fn crate_root_hygiene() {
        let got = rules("crates/x/src/lib.rs", "pub fn f() {}\n");
        assert!(got.contains(&"forbid-unsafe"), "{got:?}");
        assert!(got.contains(&"crate-docs"), "{got:?}");
        assert!(rules(
            "crates/x/src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\npub fn f() {}\n"
        )
        .is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "fn f() {\n\
                       let s = \"call .unwrap() or x[0]\";\n\
                       // also .expect( and y[1] in a comment\n\
                       let _ = s;\n\
                   }\n";
        assert!(rules("crates/hash/src/bloom.rs", src).is_empty());
    }

    #[test]
    fn non_index_brackets_do_not_fire() {
        let src = "#[inline]\nfn f(x: &[u8], y: [u8; 4]) -> [u8; 2] { let _ = (x, y); [0; 2] }\n";
        assert!(rules("crates/hash/src/bloom.rs", src).is_empty());
    }
}
