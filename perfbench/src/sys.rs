//! The few operating-system facilities std lacks: per-thread CPU time and
//! peak resident memory, read from `/proc` (Linux only).

use std::io;

/// CPU time the calling thread has run, in nanoseconds
/// (`/proc/thread-self/schedstat`, first field).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of process `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in /proc/{pid}/status")))
}

/// Reset this process's peak resident set size to its current size, so a
/// later [`peak_rss_mb`] excludes memory the benchmark used before (its
/// own input generation).
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}
