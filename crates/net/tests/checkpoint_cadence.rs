//! The checkpoint cadence end to end: a replica holding a large state cuts
//! far less often than once per `checkpoint_interval` units, and the longer
//! suffix that leaves behind really replays when a crashed peer catches up.

use std::time::{Duration, Instant};

use caesar::{CaesarConfig, CaesarReplica};
use consensus_core::session::{ClusterHandle, Op};
use consensus_types::NodeId;
use net::{NetCluster, NetConfig};

const NODES: usize = 3;
const INTERVAL: u64 = 8;
/// Keys preloaded before the measured drive; their snapshot (about 20 bytes
/// a key) outweighs many intervals' worth of suffix.
const KEYS: u64 = 4_000;
/// The drive overwrites keys for this many intervals' worth of units.
const INTERVALS_DRIVEN: u64 = 200;
const CRASH: NodeId = NodeId(2);
const SURVIVORS: [NodeId; 2] = [NodeId(0), NodeId(1)];
const TIMEOUT: Duration = Duration::from_secs(60);

/// Keys and values that take a full-width varint each in the snapshot.
fn wide(n: u64) -> u64 {
    n.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << 63
}

/// Submits one put per `n` at replica 0 and waits for every reply. Batching
/// is off, so each put is one consensus unit.
fn put_all(cluster: &NetCluster<CaesarReplica>, ns: impl Iterator<Item = u64>) -> u64 {
    let client = cluster.client(NodeId(0));
    let tickets: Vec<_> =
        ns.map(|n| client.submit(Op::put(wide(n % KEYS), wide(n))).expect("submits")).collect();
    for ticket in &tickets {
        ticket.wait_timeout(TIMEOUT).expect("replies");
    }
    tickets.len() as u64
}

fn cuts(cluster: &NetCluster<CaesarReplica>, node: NodeId) -> u64 {
    cluster.replica_registry(node).snapshot().counter("checkpoint.cuts")
}

fn suffix_units(cluster: &NetCluster<CaesarReplica>, node: NodeId) -> u64 {
    cluster.replica_registry(node).snapshot().gauge("checkpoint.suffix_units")
}

#[test]
fn a_large_state_cuts_rarely_and_its_long_suffix_replays_on_catch_up() {
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let make = |id| CaesarReplica::new(id, caesar.clone());
    let mut cluster =
        NetCluster::start(NetConfig::new(NODES).with_checkpoint_interval(INTERVAL), make)
            .expect("cluster starts");

    let mut total = put_all(&cluster, 0..KEYS);
    for node in SURVIVORS {
        assert_eq!(cluster.wait_for_applied(node, total, TIMEOUT), total);
    }
    let payload = cluster.replica_registry(NodeId(0)).snapshot().gauge("checkpoint.payload_bytes");
    assert!(payload > 15 * KEYS, "the preloaded state is checkpointed ({payload} bytes)");

    // Stationary state from here on: every put overwrites a preloaded key.
    let before: Vec<u64> = SURVIVORS.iter().map(|&node| cuts(&cluster, node)).collect();
    total += put_all(&cluster, KEYS..KEYS + INTERVALS_DRIVEN * INTERVAL);
    for (node, before) in SURVIVORS.into_iter().zip(before) {
        assert_eq!(cluster.wait_for_applied(node, total, TIMEOUT), total);
        let cut = cuts(&cluster, node) - before;
        assert!(
            cut * 10 <= INTERVALS_DRIVEN,
            "{node} cut {cut} checkpoints over {INTERVALS_DRIVEN} intervals"
        );
    }

    // Whichever survivor donates must hold a suffix longer than the interval
    // (the old cap on its length) at the moment of the crash.
    while SURVIVORS.iter().any(|&node| suffix_units(&cluster, node) <= INTERVAL) {
        total += put_all(&cluster, total..total + INTERVAL);
        for node in SURVIVORS {
            assert_eq!(cluster.wait_for_applied(node, total, TIMEOUT), total);
        }
    }
    assert_eq!(cluster.wait_for_applied(CRASH, total, TIMEOUT), total);
    cluster.stop_replica(CRASH);
    std::thread::sleep(Duration::from_millis(100));

    // A fresh process and an empty state machine: only a donated checkpoint
    // plus the replayed suffix can bring it back to the survivors' state.
    cluster.restart_replica(CRASH, make(CRASH)).expect("replica restarts on its old address");
    assert_eq!(cluster.wait_for_applied(CRASH, total, TIMEOUT), total);
    // The restoring core loop bumps its counters a moment after the restored
    // watermark becomes visible.
    let stats = cluster.replica_stats(CRASH);
    let deadline = Instant::now() + TIMEOUT;
    while stats.catch_ups_completed.get() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(stats.catch_ups_completed.get(), 1);
    let replayed = stats.catch_up_replayed.get();
    assert!(replayed > INTERVAL, "only {replayed} suffix units replayed");
    assert_eq!(cluster.state_fingerprint(CRASH), cluster.state_fingerprint(SURVIVORS[0]));
    cluster.shutdown();
}
