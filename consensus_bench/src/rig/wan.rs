//! The simulated-WAN rig: `simnet::SimSession` over the paper's five-site
//! EC2 latency matrix, driven by `workload::ClosedLoopDriver`.
//!
//! Latency and throughput are in *simulated* time. They move only when the
//! protocol's message pattern or path choice changes and are blind to CPU
//! cost — the mirror image of the `lan-*` workloads. The wall time a session
//! takes is reported apart (`*.step_us_per_cmd`, `simnet.events_per_wall_s`).

use std::time::{Duration, Instant};

use consensus_types::{NodeId, SimTime, MICROS_PER_SEC};
use simnet::{LatencyMatrix, Process, SimConfig, SimSession, Simulator};
use telemetry::RegistrySnapshot;
use workload::{ClosedLoopDriver, WorkloadConfig, WorkloadGenerator};

use crate::rig::counters;
use crate::rig::gen::sub_seed;

/// Replicas: the paper's five EC2 sites.
pub const SITES: usize = 5;
/// Closed-loop clients per site.
pub const CLIENTS_PER_SITE: usize = 10;
/// Share of commands on the shared key pool: the paper's headline rate.
pub const CONFLICT_PERCENT: f64 = 30.0;
/// Per-message delivery jitter, as in the harness's latency experiments.
pub const JITTER_US: SimTime = 2_000;
/// Simulated time before the measured window opens.
pub const WARMUP_SIM_S: u64 = 5;
/// Simulated time the drain may take after the window closes.
const DRAIN_SIM_S: u64 = 10;

/// What one simulated session measured.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Submit→reply times of the commands answered in the window, ms of
    /// simulated time.
    pub latencies_ms: Vec<f64>,
    /// Commands answered in the window per simulated second.
    pub throughput_ops_s: f64,
    /// Wall time from session construction to the first measured command.
    pub setup: Duration,
    /// Wall time the measured window took to simulate.
    pub wall: Duration,
    /// Protocol and simulator counters over the measured window, summed
    /// over replicas.
    pub counters: RegistrySnapshot,
    pub attempted: u64,
    /// Private-key puts whose reply reported an overwritten value; the
    /// generator never repeats a private key.
    pub wrong_output: u64,
    /// Largest gap, over replicas, between commands issued and commands
    /// applied after the drain (exactly-once: it must be 0).
    pub unapplied: u64,
    pub fingerprints_agree: bool,
}

impl SimOutcome {
    /// Operations that failed a check.
    pub fn failed(&self) -> u64 {
        self.wrong_output + self.unapplied + u64::from(!self.fingerprints_agree)
    }
}

fn snapshot<P: Process>(sim: &Simulator<P>) -> RegistrySnapshot {
    let mut merged = sim.registry().snapshot();
    for node in NodeId::all(sim.node_count()) {
        if let Some(registry) = sim.process(node).telemetry() {
            merged.merge(&registry.snapshot());
        }
    }
    merged
}

/// Runs one session: warm-up, a measured window of `measure_sim_s` simulated
/// seconds, a drain, and the output checks.
pub fn run_session<P>(seed: u64, measure_sim_s: u64, make: impl FnMut(NodeId) -> P) -> SimOutcome
where
    P: Process + Send + 'static,
    P::Message: Send,
{
    let started = Instant::now();
    let warm_us = WARMUP_SIM_S * MICROS_PER_SEC;
    let end_us = warm_us + measure_sim_s * MICROS_PER_SEC;
    let config = SimConfig::new(LatencyMatrix::ec2_five_sites())
        .with_jitter_us(JITTER_US)
        .with_seed(seed)
        .with_horizon(end_us + DRAIN_SIM_S * MICROS_PER_SEC);
    let session = SimSession::new(Simulator::new(config, make));
    let workload = WorkloadConfig::new(SITES).with_conflict_percent(CONFLICT_PERCENT);
    let keyspace = workload.keyspace;
    let generator = WorkloadGenerator::new(workload, sub_seed(seed, 1));
    let mut driver = ClosedLoopDriver::new(generator, CLIENTS_PER_SITE);
    driver.start(&session);
    driver.pump_until(&session, warm_us);
    let setup = started.elapsed();

    let before = session.with_sim(|sim| snapshot(sim));
    let window = Instant::now();
    driver.pump_until(&session, end_us);
    let wall = window.elapsed();
    let after = session.with_sim(|sim| snapshot(sim));

    // Drain: no reply is collected any more, so no client resubmits, and
    // the commands still in flight finish well inside the horizon.
    session.run();
    let issued = driver.issued();
    let applied: Vec<u64> = NodeId::all(SITES).map(|node| session.applied_through(node)).collect();
    let fingerprint = session.state_fingerprint(NodeId(0));

    let mut latencies_ms = Vec::new();
    let mut wrong_output = 0;
    for reply in driver.replies() {
        let private = driver
            .command(reply.command)
            .and_then(|cmd| cmd.key())
            .is_some_and(|key| !keyspace.is_shared(key));
        if private && reply.output.is_some() {
            wrong_output += 1;
        }
        let at = reply.decision.executed_at;
        if at > warm_us && at <= end_us {
            latencies_ms.push(reply.decision.latency() as f64 / 1e3);
        }
    }
    SimOutcome {
        throughput_ops_s: latencies_ms.len() as f64 / measure_sim_s as f64,
        latencies_ms,
        setup,
        wall,
        counters: counters::delta(&before, &after),
        attempted: issued,
        wrong_output,
        unapplied: applied.iter().map(|&a| issued.abs_diff(a)).max().unwrap_or(0),
        fingerprints_agree: NodeId::all(SITES)
            .all(|node| session.state_fingerprint(node) == fingerprint),
    }
}
