//! What the host did while a workload ran, and what the host is.
//!
//! Linux `/proc` only — the workspace has no `libc`, and the CI container
//! has no `perf`. Every reader degrades to 0 / `"unknown"` elsewhere.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` times. `sysconf`
/// is out of reach without `libc`; USER_HZ has been 100 on every Linux
/// port since 2.6.
const USER_HZ: f64 = 100.0;

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:") / 1024.0
}

/// CPU time and page faults of this process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User-mode CPU seconds.
    pub cpu_user_s: f64,
    /// Kernel-mode CPU seconds — first-touch page faults show up here.
    pub cpu_sys_s: f64,
    /// Minor page faults.
    pub minor_faults: f64,
}

/// Reads [`Usage`] from `/proc/self/stat`.
pub fn usage() -> Usage {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Usage::default();
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return Usage::default();
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // After ')' the fields start at 3 (state): minflt is 10, utime 14,
    // stime 15.
    Usage {
        minor_faults: num(10 - 3),
        cpu_user_s: num(14 - 3) / USER_HZ,
        cpu_sys_s: num(15 - 3) / USER_HZ,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment two result files must share before their numbers are
/// compared.
#[derive(Debug, Clone)]
pub struct Env {
    /// `rustc -V`.
    pub rustc: String,
    /// Kernel release.
    pub kernel: String,
    /// `git rev-parse HEAD` of the benchmark's checkout (`unknown` outside
    /// a git repository — the driver's checkout is not one).
    pub commit: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
}

impl Env {
    /// Reads the environment.
    pub fn read() -> Env {
        Env {
            rustc: command_line("rustc", &["-V"]),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            commit: command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            ),
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        // Other tests allocate concurrently: read the high-water mark last.
        let rss = rss_mib();
        assert!(rss > 0.0 && peak_rss_mib() >= rss);
        let mut sink = 0u64;
        for i in 0..20_000_000u64 {
            sink = std::hint::black_box(sink.wrapping_add(i));
        }
        assert!(usage().minor_faults > 0.0);
    }
}
