//! Per-seed reproducibility of the discrete-event simulator, for every
//! protocol: the same seed must produce the same run, bit for bit.
//!
//! Each case runs twice in one process — the paper's EC2 matrix with
//! network jitter, 30 % conflicting commands, six closed-loop clients per
//! site — once fault-free and once with a replica crashing mid-run while
//! the protocols' recovery timeouts are armed. Every conflicting command
//! writes one hot key, so commands released together (by one execution or
//! one wait-condition change) are common rather than rare. Both runs must
//! report the identical decision stream at every replica (ids, timestamps,
//! paths and simulated times) and identical `sim.*` counters. A protocol
//! that iterates a randomly seeded hash container on a path whose order
//! escapes into messages, timers or deliveries fails this test.

use caesar::{CaesarConfig, CaesarReplica};
use consensus_types::{Decision, NodeId, SimTime, MICROS_PER_SEC};
use epaxos::{EpaxosConfig, EpaxosReplica};
use kvstore::KeySpace;
use m2paxos::{M2PaxosConfig, M2PaxosReplica};
use mencius::{MenciusConfig, MenciusReplica};
use multipaxos::{MultiPaxosConfig, MultiPaxosReplica};
use simnet::{LatencyMatrix, Process, SimConfig, SimSession, Simulator};
use workload::{ClosedLoopDriver, WorkloadConfig, WorkloadGenerator};

const NODES: usize = 5;
const CLIENTS_PER_NODE: usize = 6;
const CONFLICT_PERCENT: f64 = 30.0;
/// Simulated run length; long enough for a recovery timeout (2 s) armed
/// after the crash to fire and for the survivors to finish its commands.
const DURATION: SimTime = 4 * MICROS_PER_SEC;
const CRASH_AT: SimTime = MICROS_PER_SEC;
/// Frankfurt: a proposer with commands in flight, but not Multi-Paxos's
/// leader (p0), so every protocol keeps deciding after the crash.
const CRASHED: NodeId = NodeId(2);
/// Includes seed 6, the seed that first showed CAESAR runs diverging.
const SEEDS: [u64; 4] = [1, 6, 11, 17];

/// Everything one run reports: each replica's decision stream and the
/// simulator's own `sim.*` counters and gauges.
struct Outcome {
    decisions: Vec<Vec<Decision>>,
    sim_metrics: Vec<(String, u64)>,
}

fn run_once<P, F>(make: F, seed: u64, crash: bool) -> Outcome
where
    P: Process + Send + 'static,
    P::Message: Send,
    F: FnMut(NodeId) -> P,
{
    let sim_config = SimConfig::new(LatencyMatrix::ec2_five_sites())
        .with_jitter_us(2_000)
        .with_seed(seed)
        .with_horizon(DURATION + 10 * MICROS_PER_SEC);
    let session = SimSession::new(Simulator::new(sim_config, make));
    if crash {
        session.with_sim(|sim| sim.schedule_crash(CRASH_AT, CRASHED));
    }
    let workload = WorkloadConfig::new(NODES)
        .with_conflict_percent(CONFLICT_PERCENT)
        .with_keyspace(KeySpace::new(1));
    let mut driver =
        ClosedLoopDriver::new(WorkloadGenerator::new(workload, seed ^ 0x57A7), CLIENTS_PER_NODE);
    driver.start(&session);
    driver.pump_until(&session, DURATION);

    let decisions = NodeId::all(NODES).map(|node| session.decisions(node)).collect();
    let snapshot = session.with_sim(|sim| sim.registry().snapshot());
    let sim_metrics = snapshot
        .counters
        .into_iter()
        .chain(snapshot.gauges)
        .filter(|(name, _)| name.starts_with("sim."))
        .collect();
    Outcome { decisions, sim_metrics }
}

/// Runs every seed × {fault-free, one crash} twice and asserts the two runs
/// of each case are identical.
fn assert_reproducible<P, F>(label: &str, make: F)
where
    P: Process + Send + 'static,
    P::Message: Send,
    F: Fn(NodeId) -> P,
{
    for seed in SEEDS {
        for crash in [false, true] {
            let first = run_once(&make, seed, crash);
            let second = run_once(&make, seed, crash);
            let case = format!("[{label}] seed {seed}, crash {crash}");
            assert!(
                first.decisions.iter().all(|stream| !stream.is_empty()),
                "{case}: every replica must decide something"
            );
            for (index, (a, b)) in first.decisions.iter().zip(&second.decisions).enumerate() {
                assert_eq!(a.len(), b.len(), "{case}: p{index} decided a different number");
                assert!(a == b, "{case}: p{index} decided a different stream");
            }
            assert_eq!(first.sim_metrics, second.sim_metrics, "{case}: sim counters differ");
        }
    }
}

#[test]
fn caesar_runs_are_reproducible_per_seed() {
    let config = CaesarConfig::new(NODES);
    assert_reproducible("caesar", |id| CaesarReplica::new(id, config.clone()));
}

#[test]
fn epaxos_runs_are_reproducible_per_seed() {
    let config = EpaxosConfig::new(NODES);
    assert_reproducible("epaxos", |id| EpaxosReplica::new(id, config.clone()));
}

#[test]
fn m2paxos_runs_are_reproducible_per_seed() {
    let config = M2PaxosConfig::new(NODES);
    assert_reproducible("m2paxos", |id| M2PaxosReplica::new(id, config.clone()));
}

#[test]
fn mencius_runs_are_reproducible_per_seed() {
    let config = MenciusConfig::new(NODES);
    assert_reproducible("mencius", |id| MenciusReplica::new(id, config.clone()));
}

#[test]
fn multipaxos_runs_are_reproducible_per_seed() {
    let config = MultiPaxosConfig::new(NODES, NodeId(0));
    assert_reproducible("multipaxos", |id| MultiPaxosReplica::new(id, config.clone()));
}
