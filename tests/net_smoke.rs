//! Smoke tests for the `net` runtime: real CAESAR clusters over loopback
//! TCP sockets.
//!
//! Mirrors the acceptance bar for the socket runtime: ≥ 100 commands
//! proposed from ≥ 2 different replicas are decided over real TCP, every
//! replica reports the identical delivery order, and non-conflicting
//! commands decide on the fast path. Conflicting commands proposed from
//! three continents must also agree under (scaled-down) EC2 delays, and an
//! idle cluster must shut down cleanly.

use std::time::Duration;

use caesar::{CaesarConfig, CaesarReplica};
use consensus_types::{Command, CommandId, Decision, DecisionPath, NodeId};
use net::{DelayShim, NetCluster, NetConfig};
use simnet::LatencyMatrix;

const NODES: usize = 5;
/// Commands in the fully conflicting agreement phase (all touch KEY).
const AGREEMENT_CMDS: usize = 110;
/// Commands in the non-conflicting burst phase (distinct keys).
const FAST_CMDS: usize = 30;
const KEY: u64 = 7;

#[test]
fn five_node_caesar_cluster_agrees_over_tcp() {
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let cluster =
        NetCluster::start(NetConfig::new(NODES), move |id| CaesarReplica::new(id, caesar.clone()))
            .expect("cluster starts");

    // Phase 1 — agreement: ≥ 100 commands on one contended key, proposed
    // round-robin from three different replicas. Same-key commands are
    // mutually conflicting, so Generalized Consensus requires every replica
    // to execute them in the identical (timestamp) order.
    let mut agreement_ids = Vec::with_capacity(AGREEMENT_CMDS);
    for i in 0..AGREEMENT_CMDS as u64 {
        let origin = NodeId::from_index((i % 3) as usize);
        let id = CommandId::new(origin, i + 1);
        agreement_ids.push(id);
        cluster.submit(origin, Command::put(id, KEY, i)).expect("submit over TCP");
        // Pace submissions so most proposals see a quiet conflict index; the
        // order assertion below holds either way.
        std::thread::sleep(Duration::from_millis(1));
    }

    // Phase 2 — fast path: a concurrent burst of commands on distinct keys.
    // Nothing conflicts, so every proposal must confirm its timestamp at a
    // full fast quorum and decide after two communication delays.
    let mut fast_ids = Vec::with_capacity(FAST_CMDS);
    for i in 0..FAST_CMDS as u64 {
        let origin = NodeId::from_index((i % NODES as u64) as usize);
        let id = CommandId::new(origin, 1_000 + i);
        fast_ids.push(id);
        cluster.submit(origin, Command::put(id, 100 + i, i)).expect("submit over TCP");
    }

    let total = AGREEMENT_CMDS + FAST_CMDS;
    let per_node = cluster.wait_for_all(total, Duration::from_secs(60));
    for (index, decisions) in per_node.iter().enumerate() {
        assert_eq!(
            decisions.len(),
            total,
            "replica p{index} executed {} of {total} commands over TCP",
            decisions.len()
        );
    }

    // Identical delivery order of the conflicting workload at every replica.
    let orders: Vec<Vec<CommandId>> = per_node
        .iter()
        .map(|decisions| {
            decisions.iter().map(|d| d.command).filter(|id| agreement_ids.contains(id)).collect()
        })
        .collect();
    assert_eq!(orders[0].len(), AGREEMENT_CMDS);
    for (index, order) in orders.iter().enumerate().skip(1) {
        assert_eq!(
            order, &orders[0],
            "replica p{index} delivered the conflicting commands in a different order than p0"
        );
    }

    // Every replica must also agree on each command's final timestamp.
    for decisions in &per_node {
        for d in decisions {
            let at_p0 = per_node[0]
                .iter()
                .find(|d0| d0.command == d.command)
                .expect("command executed at p0");
            assert_eq!(at_p0.timestamp, d.timestamp, "timestamp divergence for {}", d.command);
        }
    }

    // Non-conflicting commands decide on the fast path (checked at their
    // leader replica, where the decision path is meaningful).
    for &id in &fast_ids {
        let leader = id.origin();
        let decision = per_node[leader.index()]
            .iter()
            .find(|d| d.command == id)
            .expect("fast command executed at its leader");
        assert_eq!(
            decision.path,
            DecisionPath::Fast,
            "non-conflicting command {id} took {:?} instead of the fast path",
            decision.path
        );
    }

    // The traffic genuinely crossed sockets: every peer message is a frame.
    let (sent, received, dropped) = cluster.transport_totals();
    assert!(sent > 1_000, "only {sent} frames sent over TCP");
    assert!(received > 1_000, "only {received} frames received over TCP");
    assert_eq!(dropped, 0, "{dropped} frames dropped on healthy loopback links");

    cluster.shutdown();
}

#[test]
fn caesar_agrees_on_conflicting_commands_under_ec2_delays() {
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let config =
        NetConfig::new(NODES).with_delay(DelayShim::new(LatencyMatrix::ec2_five_sites(), 0.004));
    let cluster = NetCluster::start(config, move |id| CaesarReplica::new(id, caesar.clone()))
        .expect("cluster starts");

    // Conflicting updates from three continents plus an independent command.
    let key7 =
        [CommandId::new(NodeId(0), 1), CommandId::new(NodeId(3), 1), CommandId::new(NodeId(4), 1)];
    for (id, value) in key7.iter().zip([10, 30, 40]) {
        cluster.submit(id.origin(), Command::put(*id, KEY, value)).expect("submit over TCP");
    }
    let independent = Command::put(CommandId::new(NodeId(1), 1), 99, 1);
    cluster.submit(NodeId(1), independent).expect("submit over TCP");

    let d0 = cluster.wait_for_decisions(NodeId(0), 4, Duration::from_secs(15));
    let d4 = cluster.wait_for_decisions(NodeId(4), 4, Duration::from_secs(15));
    assert_eq!(d0.len(), 4, "Virginia must execute all four commands");
    assert_eq!(d4.len(), 4, "Mumbai must execute all four commands");

    // The three conflicting commands must appear in the same relative order.
    let order = |ds: &[Decision]| -> Vec<CommandId> {
        ds.iter().map(|d| d.command).filter(|c| key7.contains(c)).collect()
    };
    assert_eq!(order(&d0), order(&d4), "conflicting commands must be ordered identically");
    cluster.shutdown();
}

#[test]
fn cluster_reports_elapsed_time_and_handles_idle_shutdown() {
    let caesar = CaesarConfig::new(3).with_recovery_timeout(None);
    let config =
        NetConfig::new(3).with_delay(DelayShim::new(LatencyMatrix::uniform(3, 10.0), 0.01));
    let cluster = NetCluster::start(config, move |id| CaesarReplica::new(id, caesar.clone()))
        .expect("cluster starts");
    std::thread::sleep(Duration::from_millis(20));
    assert!(cluster.elapsed() >= Duration::from_millis(10));
    assert!(cluster.decisions(NodeId(0)).is_empty());
    cluster.shutdown();
}
