//! The allowlist must shrink with the code it excuses: an entry that
//! matches nothing fails the gate instead of lingering as a note.

use std::path::Path;
use std::process::Command;

/// Run srlint over a scratch workspace holding one hot-path file and the
/// given allowlist; returns (exit code, stdout).
fn lint(name: &str, allow_list: &str) -> (Option<i32>, String) {
    let root = std::env::temp_dir().join(format!("srlint-{name}-{}", std::process::id()));
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap_or(Path::new("."))).expect("mkdir");
        std::fs::write(path, text).expect("write");
    };
    write(
        "crates/core/src/dataplane.rs",
        "fn f(x: &[u8]) -> u8 {\n    x[0]\n}\n",
    );
    write("tools/srlint/allow.list", allow_list);
    let out = Command::new(env!("CARGO_BIN_EXE_srlint"))
        .arg(&root)
        .output()
        .expect("spawn srlint");
    let _ = std::fs::remove_dir_all(&root);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

const USED: &str = "crates/core/src/dataplane.rs\tno-index\tx[0]\n";

#[test]
fn fully_used_allowlist_is_clean() {
    let (code, stdout) = lint("used", USED);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("srlint: clean"), "{stdout}");
}

#[test]
fn unused_allowlist_entry_fails_the_gate() {
    let stale = format!("{USED}crates/core/src/dataplane.rs\tno-panic\tgone.unwrap()\n");
    let (code, stdout) = lint("stale", &stale);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("unused entry: crates/core/src/dataplane.rs\tno-panic\tgone.unwrap()"),
        "{stdout}"
    );
    assert!(stdout.contains("0 violations, 1 unused"), "{stdout}");
}
