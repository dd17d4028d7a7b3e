//! `/proc/self` accounting: CPU time, context switches and resident memory
//! of the benchmark process, read from outside the program under test.

use std::fs;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`), which Linux
/// fixes at 100 on every architecture this repository builds on.
const TICKS_PER_SECOND: f64 = 100.0;

/// A reading of the process's counters, or the difference of two readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU seconds of the whole process, exited threads
    /// included.
    pub process_cpu_s: f64,
    /// User + system CPU seconds of the calling thread.
    pub thread_cpu_s: f64,
    /// Voluntary + involuntary context switches, summed over live threads.
    pub ctx_switches: u64,
}

impl ProcSample {
    /// What was spent since `earlier` was read.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            process_cpu_s: self.process_cpu_s - earlier.process_cpu_s,
            thread_cpu_s: self.thread_cpu_s - earlier.thread_cpu_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    /// Reads the counters now. Missing files (a non-Linux host) read as 0.
    pub fn now() -> Self {
        Self {
            process_cpu_s: stat_cpu_seconds("/proc/self/stat"),
            thread_cpu_s: stat_cpu_seconds("/proc/thread-self/stat"),
            ctx_switches: ctx_switches(),
        }
    }
}

/// utime + stime (fields 14 and 15) of a `stat` file. The command name in
/// field 2 may hold spaces, so fields are counted from its closing bracket.
fn stat_cpu_seconds(path: &str) -> f64 {
    let Ok(text) = fs::read_to_string(path) else { return 0.0 };
    let Some((_, rest)) = text.rsplit_once(')') else { return 0.0 };
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / TICKS_PER_SECOND
}

fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .filter(|line| line.contains("ctxt_switches"))
                .filter_map(|line| line.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// Resident set size in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
