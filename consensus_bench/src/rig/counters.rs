//! Source (b) of the per-layer metrics: deltas of the already-public
//! `telemetry::Registry` counters over the measured window, summed over
//! replicas. Counts are taken where the work happens, so ratios such as
//! frames per operation need no instrumentation of the rig's own.

use telemetry::{HistogramSnapshot, RegistrySnapshot};

/// `after − before`, counter by counter and histogram bucket by bucket.
/// Gauges keep their `after` value.
pub fn delta(before: &RegistrySnapshot, after: &RegistrySnapshot) -> RegistrySnapshot {
    let mut out = after.clone();
    for (name, value) in &mut out.counters {
        *value = value.saturating_sub(before.counter(name));
    }
    for (name, hist) in &mut out.histograms {
        if let Some(earlier) = before.histograms.get(name) {
            *hist = histogram_delta(earlier, hist);
        }
    }
    out
}

fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let earlier = |index: u32| {
        before.buckets.iter().find(|&&(i, _)| i == index).map_or(0, |&(_, count)| count)
    };
    HistogramSnapshot {
        buckets: after
            .buckets
            .iter()
            .map(|&(index, count)| (index, count.saturating_sub(earlier(index))))
            .filter(|&(_, count)| count > 0)
            .collect(),
        sum: after.sum.saturating_sub(before.sum),
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Consensus units decided in the window. CAESAR counts a decision at the
/// command's leader only, so the sum over replicas counts each unit once.
pub fn units_decided(window: &RegistrySnapshot) -> f64 {
    (window.counter("decisions.fast") + window.counter("decisions.slow")) as f64
}

/// The counter-derived metrics of a window in which `ops` client commands
/// were answered. A layer the workload does not use reads 0: the `wal.*`
/// rows are 0 on every memory-only workload, `net.*` on the simulator.
pub fn window_metrics(window: &RegistrySnapshot, ops: f64) -> Vec<(&'static str, f64)> {
    let count = |name: &str| window.counter(name) as f64;
    let flushes = count("net.batches_flushed");
    let fsync = window.histograms.get("wal.fsync_us").cloned().unwrap_or_default();
    vec![
        ("net.frames_sent_per_op", ratio(count("net.frames_sent"), ops)),
        ("net.frames_received_per_op", ratio(count("net.frames_received"), ops)),
        ("net.flushes_per_op", ratio(flushes, ops)),
        ("net.writev_share", ratio(count("net.writev_flushes"), flushes)),
        ("batch.mean_size", ratio(count("batch.commands"), count("batch.assembled"))),
        ("exec.leaves_per_round", ratio(count("exec.leaves"), count("exec.rounds"))),
        ("caesar.fast_path_ratio", ratio(count("decisions.fast"), units_decided(window))),
        ("caesar.wait_events_per_kop", 1e3 * ratio(count("caesar.wait_events"), ops)),
        ("caesar.nacks_per_kop", 1e3 * ratio(count("caesar.nacks_sent"), ops)),
        ("wal.fsyncs_per_op", ratio(count("wal.fsyncs"), ops)),
        ("wal.bytes_per_op", ratio(count("wal.bytes_written"), ops)),
        ("wal.checkpoints_per_kop", 1e3 * ratio(count("wal.checkpoints"), ops)),
        ("wal.fsync_p50_us", fsync.percentile(0.50) as f64),
        ("wal.fsync_p99_us", fsync.percentile(0.99) as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::Registry;

    #[test]
    fn delta_subtracts_counters_and_histogram_buckets() {
        let registry = Registry::new();
        registry.counter("net.frames_sent").add(10);
        registry.histogram("wal.fsync_us").record(100);
        let before = registry.snapshot();
        registry.counter("net.frames_sent").add(32);
        registry.counter("decisions.fast").add(3);
        registry.counter("decisions.slow").add(1);
        for _ in 0..9 {
            registry.histogram("wal.fsync_us").record(2_000);
        }
        let window = delta(&before, &registry.snapshot());
        assert_eq!(window.counter("net.frames_sent"), 32);
        assert_eq!(window.histograms["wal.fsync_us"].count(), 9);
        assert!(window.histograms["wal.fsync_us"].percentile(0.5) >= 2_000);

        let metrics = window_metrics(&window, 16.0);
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("net.frames_sent_per_op"), 2.0);
        assert_eq!(get("caesar.fast_path_ratio"), 0.75);
        assert_eq!(get("batch.mean_size"), 0.0, "no batch assembled reads 0, not NaN");
    }
}
