//! Host facts and process accounting: CPU time, peak memory, the machine
//! and the source revision a result was measured on.

use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time and peak memory of this process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time, all threads.
    pub cpu: Duration,
    /// Peak resident set size in KiB.
    pub max_rss_kib: u64,
}

fn timeval(t: &Timeval) -> Duration {
    Duration::from_secs(t.tv_sec.max(0) as u64) + Duration::from_micros(t.tv_usec.max(0) as u64)
}

/// Reads this process's resource usage.
pub fn usage() -> Usage {
    let mut r = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `r` is a live, writable value laid out as the C `struct
    // rusage` of 64-bit Linux, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    Usage {
        cpu: timeval(&r.ru_utime) + timeval(&r.ru_stime),
        max_rss_kib: r.ru_maxrss.max(0) as u64,
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `none` when `root` is not a git work tree.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, name)| *name == reference)
                    .map(|(id, _)| id.to_string())
            })
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the path and content of every manifest and Rust source
/// file of the program under `root` (`Cargo.*` and `crates/`), so a
/// result names the exact source it measured even outside git.
pub fn source_fingerprint(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for path in files {
        if let Ok(content) = std::fs::read(&path) {
            bytes.extend_from_slice(
                path.strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .as_bytes(),
            );
            bytes.push(0);
            bytes.extend_from_slice(&content);
        }
    }
    strata_trace::fnv1a64(&bytes)
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// Median of `xs` (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile `p` in `[0, 1]` of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
