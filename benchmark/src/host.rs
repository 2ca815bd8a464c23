//! Host context recorded with every run, and the thread count and steal
//! time from `/proc`.

use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One field of `/proc/self/status` (e.g. `Threads`), as its
/// leading integer. `None` where procfs is unavailable.
fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Threads in this process.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// `USER_HZ`, the unit of `/proc/stat` times (100 on every Linux ABI).
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Ticks of CPU time the hypervisor gave to other guests, summed over
/// this VM's CPUs (`steal` in `/proc/stat`). `None` without procfs.
pub fn steal_ticks() -> Option<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()?
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// only (never from a repository further up), or `"unknown"`.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and bytes of the sources the benchmark builds
/// from, so a run in a checkout without `.git` still names its code.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" {
                    walk(&path, files);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "benchmark"] {
        walk(Path::new(root), &mut files);
    }
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Host context as JSON fields: `nproc`, CPU model, rustc version,
/// commit, source digest and the load average at start.
pub fn context() -> Vec<(&'static str, String)> {
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load: Vec<&str> = loadavg.split_whitespace().take(3).collect();
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("rustc", json_str(&rustc_version())),
        ("commit", json_str(&commit())),
        ("source_digest", json_str(&source_digest())),
        ("loadavg_start", json_str(&load.join(" "))),
    ]
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
