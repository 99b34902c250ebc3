//! What the benchmark records about the machine it ran on, and the rule
//! that it never starts more runnable threads than the machine has cores.

use std::path::Path;

/// CPUs the OS makes available to this process.
pub fn nproc() -> usize {
    sr_exec::available_cores()
}

/// Worker threads `stream-64k` gives the engine: every core but the one
/// the steering (driver) thread runs on. On a one-core host that is zero,
/// and the workload falls back to the engine's inline backend rather than
/// oversubscribe the core.
pub fn stream_workers() -> usize {
    nproc().saturating_sub(1)
}

/// Refuse to run `threads` runnable threads (driver thread included) on a
/// host with fewer cores: an oversubscribed run measures the scheduler.
pub fn claim_threads(threads: usize) -> Result<(), String> {
    let n = nproc();
    if threads > n {
        Err(format!(
            "refusing to start {threads} runnable threads on a host with nproc = {n}"
        ))
    } else {
        Ok(())
    }
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix(field))?;
    rest.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set (`VmHWM`) in bytes; 0 where `/proc` has none.
pub fn peak_rss_bytes() -> u64 {
    proc_status_kb("VmHWM:").map_or(0, |kb| kb * 1024)
}

/// Current resident set (`VmRSS`) in bytes; 0 where `/proc` has none.
pub fn rss_bytes() -> u64 {
    proc_status_kb("VmRSS:").map_or(0, |kb| kb * 1024)
}

/// The CPU model string of the first core.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git (the
/// contract's checkout is not a repository: that reads "unknown").
pub fn git_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Whether the OS lets a thread be pinned (probed from a scratch thread so
/// the driver's own affinity stays untouched; the driver blocks on the
/// join, so the probe adds no runnable thread). The engine asks for its
/// workers to be pinned the same way but does not say whether it took, so
/// this is what the host allows, not what the workers got.
pub fn pinning_available() -> bool {
    std::thread::spawn(|| sr_exec::pin_current_thread(0))
        .join()
        .unwrap_or(false)
}

/// The host record stamped into every result file.
pub fn record_json(seed: u64, repo_root: &Path) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"stream_workers\": {}, \"pinning_available\": {}, \"seed\": {}, \"git_commit\": {}}}",
        nproc(),
        crate::json::quote(&cpu_model()),
        stream_workers(),
        pinning_available(),
        seed,
        crate::json::quote(&git_commit(repo_root)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_budget_is_nproc() {
        let n = nproc();
        assert!(n >= 1);
        assert!(claim_threads(n).is_ok());
        assert!(claim_threads(n + 1).is_err());
        assert_eq!(stream_workers() + 1, n);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_reads_are_positive() {
        let buf = vec![1u8; 4 << 20];
        assert!(buf.iter().map(|&b| u64::from(b)).sum::<u64>() > 0);
        assert!(peak_rss_bytes() >= rss_bytes().min(4 << 20));
        assert!(rss_bytes() > 0);
    }

    #[test]
    fn host_record_is_json_with_every_field() {
        let doc = crate::json::parse(&record_json(7, Path::new("/nonexistent"))).unwrap();
        for key in [
            "nproc",
            "cpu_model",
            "stream_workers",
            "pinning_available",
            "seed",
            "git_commit",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        assert_eq!(doc.get("git_commit").unwrap().as_str(), Some("unknown"));
    }
}
