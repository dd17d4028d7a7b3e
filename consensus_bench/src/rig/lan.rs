//! The `lan-*` rig: a three-replica CAESAR `NetCluster` on loopback under
//! socket load.
//!
//! There is **no injected delay**: latency here is processor and kernel time
//! only. Recovery timeouts are off (`with_recovery_timeout(None)`, as in
//! every `net` test); every other `NetConfig`/`CaesarConfig` field keeps its
//! default unless the workload names it — including
//! `checkpoint_interval = 64`, because that is what users get.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use caesar::{CaesarConfig, CaesarReplica};
use consensus_types::NodeId;
use net::{NetCluster, NetConfig};
use telemetry::RegistrySnapshot;
use wal::FsyncPolicy;

use crate::rig::counters;
use crate::rig::gen::ConnGen;
use crate::rig::loadgen::{Driver, Pace, Slice, TcpSockets};
use crate::rig::metrics::Measured;
use crate::rig::proc::{rss_mb, ProcSample};
use crate::rig::scratch::ScratchDir;
use crate::rig::stats::{median, percentile, slice_median};
use crate::rig::trace::Tracer;
use crate::rig::workloads::LanSpec;

pub const REPLICAS: usize = 3;
/// Client connections, to replicas 0 and 1: two concurrent proposers, and
/// no more sockets than the sandbox has cores.
pub const CONNECTIONS: usize = 2;
/// Requests in flight while the keys are preloaded.
const PRELOAD_WINDOW: usize = 512;
/// Load before the measured window opens, so caches and connections are
/// warm. A fixed interval, so it is not part of `setup_s`.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Slices the measured window is cut into; every timing metric is the
/// median over slices of the per-slice statistic.
pub const SLICES: usize = 6;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// How long after the last send a request may stay unanswered.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// How long replicas get to apply what was acknowledged (and, on a durable
/// cluster, to recover it after the power cycle).
const SETTLE_TIMEOUT: Duration = Duration::from_secs(15);

type Cluster = NetCluster<CaesarReplica>;

struct Rig {
    cluster: Cluster,
    driver: Driver<TcpSockets>,
    /// Holds the write-ahead logs of a durable cluster; removed on drop.
    _data: Option<ScratchDir>,
}

fn make_replica() -> impl FnMut(NodeId) -> CaesarReplica {
    let caesar = CaesarConfig::new(REPLICAS).with_recovery_timeout(None);
    move |id| CaesarReplica::new(id, caesar.clone())
}

/// Cluster start, connect, preload: everything `setup_s` times.
fn set_up(spec: &LanSpec, seed: u64, scratch: &Path) -> io::Result<Rig> {
    let mut config = NetConfig::new(REPLICAS);
    if let Some(max_batch) = spec.batch {
        config = config.with_batch(max_batch);
    }
    let data = if spec.durable {
        let dir = ScratchDir::new(scratch)?;
        config = config.with_data_dir(dir.path()).with_fsync(FsyncPolicy::PerBatch);
        Some(dir)
    } else {
        None
    };
    let cluster = NetCluster::start(config, make_replica())?;
    let addrs: Vec<_> = NodeId::all(CONNECTIONS).map(|node| cluster.addr(node)).collect();
    let gens = (0..CONNECTIONS)
        .map(|conn| {
            ConnGen::new(seed, conn, spec.conflict_percent, spec.private_keys / CONNECTIONS)
        })
        .collect();
    let mut driver = Driver::new(TcpSockets::connect(&addrs)?, gens, spec.pace);
    driver.preload(PRELOAD_WINDOW)?;
    Ok(Rig { cluster, driver, _data: data })
}

fn registries(cluster: &Cluster) -> (RegistrySnapshot, u64) {
    let mut merged = RegistrySnapshot::default();
    let mut spans = 0;
    for node in NodeId::all(REPLICAS) {
        let registry = cluster.replica_registry(node);
        merged.merge(&registry.snapshot());
        spans += registry.spans().recorded;
    }
    (merged, spans)
}

/// What the measured window of one run produced.
pub struct LanRun {
    pub slices: Vec<Slice>,
    /// Median set-up time over [`SETUP_REPEATS`] set-ups (one when traced).
    pub setup: Duration,
    /// Replica counters over the measured window, summed over replicas.
    pub counters: RegistrySnapshot,
    /// Spans the replicas recorded in the window.
    pub replica_spans: u64,
    /// CPU time and context switches over the measured window.
    pub cpu: ProcSample,
    pub rss_mb_end: f64,
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
}

impl LanRun {
    /// Client commands answered in the measured window.
    pub fn ops(&self) -> f64 {
        self.slices.iter().map(|slice| slice.latencies_ms.len()).sum::<usize>() as f64
    }

    /// Replies per second in each slice.
    pub fn slice_throughputs(&self, traced: Option<bool>) -> Vec<f64> {
        self.slices
            .iter()
            .filter(|slice| traced.is_none_or(|t| slice.traced == t))
            .map(Slice::throughput_ops_s)
            .collect()
    }

    /// The end-to-end metrics, each the median over slices of the per-slice
    /// statistic.
    pub fn end_to_end(&self) -> Measured {
        let mut latencies: Vec<Vec<f64>> =
            self.slices.iter().map(|slice| slice.latencies_ms.clone()).collect();
        Measured::from([
            ("throughput_ops_s", median(&self.slice_throughputs(None))),
            ("latency_p50_ms", slice_median(&mut latencies, |s| percentile(s, 0.50))),
            ("latency_p99_ms", slice_median(&mut latencies, |s| percentile(s, 0.99))),
            ("setup_s", self.setup.as_secs_f64()),
        ])
    }
}

/// Runs one `lan-*` workload: set-up, warm-up, the measured window, drain,
/// and the output checks.
pub fn run(
    spec: &LanSpec,
    seed: u64,
    window: Duration,
    scratch: &Path,
    tracer: Option<&mut Tracer>,
) -> io::Result<LanRun> {
    // A traced run reports no `setup_s`, so it sets up once.
    let repeats = if tracer.is_some() { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut rig = None;
    for _ in 0..repeats {
        if let Some(Rig { cluster, .. }) = rig.take() {
            cluster.shutdown();
        }
        let started = Instant::now();
        rig = Some(set_up(spec, seed, scratch)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let Rig { mut cluster, mut driver, _data } = rig.expect("at least one set-up");

    driver.run(WARMUP, 1, None)?;
    let (counters_before, spans_before) = registries(&cluster);
    let cpu_before = ProcSample::now();
    let slices = driver.run(window, SLICES, tracer)?;
    let cpu = ProcSample::now().since(&cpu_before);
    let (counters_after, spans_after) = registries(&cluster);
    let rss_mb_end = rss_mb();
    let late_us = std::mem::take(&mut driver.late_us);

    let unanswered = driver.drain(DRAIN_TIMEOUT)? as u64;
    let totals = driver.totals;
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    check(totals.aborted == 0, format!("{} requests were aborted", totals.aborted));
    check(unanswered == 0, format!("{unanswered} requests were never answered"));
    check(
        totals.wrong_output == 0,
        format!("{} replies did not report the overwritten value", totals.wrong_output),
    );
    // Exactly-once: every replica applied every answered command, no more.
    let settled = |cluster: &Cluster, check: &mut dyn FnMut(bool, String), when: &str| {
        for node in NodeId::all(REPLICAS) {
            let applied = cluster.wait_for_applied(node, totals.sent, SETTLE_TIMEOUT);
            check(
                applied == totals.replied,
                format!("{node} applied {applied} of {} answered commands {when}", totals.replied),
            );
        }
        let reference = cluster.state_fingerprint(NodeId(0));
        for node in NodeId::all(REPLICAS).skip(1) {
            check(
                cluster.state_fingerprint(node) == reference,
                format!("{node}'s state diverged from p0's {when}"),
            );
        }
        reference
    };
    let fingerprint = settled(&cluster, &mut check, "after the drain");
    if spec.durable {
        // Acknowledged ⇒ durable: the drained cluster loses power and must
        // come back, from its logs alone, to the state it acknowledged.
        cluster.power_cycle(make_replica())?;
        let recovered = settled(&cluster, &mut check, "after the power cycle");
        check(recovered == fingerprint, "the power cycle changed the state".to_string());
    }
    cluster.shutdown();

    let failed = totals.aborted + unanswered + totals.wrong_output;
    Ok(LanRun {
        slices,
        setup: Duration::from_secs_f64(median(&setups)),
        counters: counters::delta(&counters_before, &counters_after),
        replica_spans: spans_after - spans_before,
        cpu,
        rss_mb_end,
        late_us,
        attempted: totals.sent,
        // A failed cluster-wide check fails the run even when every single
        // request was answered correctly.
        failed: failed.max(failures.len() as u64),
        failures,
    })
}

/// The open-loop tail over the whole window (`driver.open_p99_ms` and
/// `driver.open_p999_ms`), or zeros for a closed loop.
pub fn open_loop_tail(spec: &LanSpec, run: &LanRun) -> (f64, f64) {
    if !matches!(spec.pace, Pace::Open { .. }) {
        return (0.0, 0.0);
    }
    let mut all: Vec<f64> =
        run.slices.iter().flat_map(|slice| slice.latencies_ms.iter().copied()).collect();
    (percentile(&mut all, 0.99), percentile(&mut all, 0.999))
}
