//! The benchmark's metric tables and the per-operation CPU budget.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions; a unit test holds the two together.

use std::collections::BTreeMap;

use crate::rig::json::{self, Value};
use crate::rig::layers::{SMALL_STATE, UNIT};

/// `(name, unit)` of every end-to-end metric; reported by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric; reported by traced runs.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("wire.encode_request_ns", "ns"),
    ("wire.decode_request_ns", "ns"),
    ("wire.encode_reply_ns", "ns"),
    ("wire.decode_reply_ns", "ns"),
    ("wire.encode_peer_unit1_ns", "ns"),
    ("wire.decode_peer_unit1_ns", "ns"),
    ("wire.encode_peer_unit64_ns", "ns"),
    ("wire.decode_peer_unit64_ns", "ns"),
    ("net.frames_sent_per_op", "count"),
    ("net.frames_received_per_op", "count"),
    ("net.flushes_per_op", "count"),
    ("net.writev_share", "ratio"),
    ("reactor.wake_to_wait_us", "us"),
    ("reactor.poll_ready_ns", "ns"),
    ("batch.coalesce_ns_per_cmd", "ns"),
    ("batch.mean_size", "count"),
    ("exec.apply_serial_ns_per_leaf", "ns"),
    ("exec.apply_sharded4_ns_per_leaf", "ns"),
    ("exec.snapshot_us_8k", "us"),
    ("exec.snapshot_us_128k", "us"),
    ("exec.leaves_per_round", "count"),
    ("caesar.history_update_ns", "ns"),
    ("caesar.predecessors_ns_c2", "ns"),
    ("caesar.predecessors_ns_c30", "ns"),
    ("caesar.delivery_on_stable_ns", "ns"),
    ("caesar.step_us_per_cmd", "us"),
    ("caesar.fast_path_ratio", "ratio"),
    ("caesar.wait_events_per_kop", "count"),
    ("caesar.nacks_per_kop", "count"),
    ("epaxos.step_us_per_cmd", "us"),
    ("epaxos.sim_latency_p50_ms", "ms"),
    ("wal.append_unit64_ns", "ns"),
    ("wal.commit_perbatch_us", "us"),
    ("wal.checkpoint_8k_us", "us"),
    ("wal.fsyncs_per_op", "count"),
    ("wal.bytes_per_op", "count"),
    ("wal.checkpoints_per_kop", "count"),
    ("wal.fsync_p50_us", "us"),
    ("wal.fsync_p99_us", "us"),
    ("telemetry.counter_inc_ns", "ns"),
    ("telemetry.span_record_ns", "ns"),
    ("simnet.events_per_wall_s", "1/s"),
    ("process.cpu_us_per_op", "us"),
    ("process.ctx_switches_per_op", "count"),
    ("process.rss_mb_end", "MiB"),
    ("driver.cpu_share", "ratio"),
    ("driver.late_p99_us", "us"),
    ("driver.open_p99_ms", "ms"),
    ("driver.open_p999_ms", "ms"),
    ("driver.tracing_overhead_pct", "%"),
    ("trace.layer_sum_us_per_op", "us"),
    ("trace.unattributed_pct", "%"),
];

/// Measured values by metric name.
pub type Measured = BTreeMap<&'static str, f64>;

/// The `metrics` object of a result line: every metric of `table`, in table
/// order, each with its unit. A metric the run did not produce is a bug in
/// the rig, not something to paper over with a zero.
pub fn to_json(table: &[(&'static str, &'static str)], measured: &Measured) -> Value {
    Value::Object(
        table
            .iter()
            .map(|&(name, unit)| {
                let value = *measured
                    .get(name)
                    .unwrap_or_else(|| panic!("the run produced no value for {name}"));
                (name.to_string(), json::object([("value", value.into()), ("unit", unit.into())]))
            })
            .collect(),
    )
}

/// How the measured run used the layers, per answered client command.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Replicas that receive, order and apply every command.
    pub replicas: f64,
    /// Client commands per consensus unit (1 without batching).
    pub unit_size: f64,
    /// Private keys of the workload (picks the snapshot timing).
    pub private_keys: usize,
    /// Whether replicas log to a write-ahead log.
    pub durable: bool,
    /// Spans the replicas recorded per command.
    pub spans_per_op: f64,
}

/// Replicas the simulated step timing (`caesar.step_us_per_cmd`) covers.
const SIM_REPLICAS: f64 = 5.0;
/// Units between two checkpoint cuts: `NetConfig::checkpoint_interval`.
const CHECKPOINT_UNITS: f64 = 64.0;

/// ROADMAP item 2's budget: the layer timings (a) weighted by the window's
/// per-operation counts (b), in µs of CPU per answered command, summed over
/// the driver and all replicas. What the kernel's TCP stack, the allocator
/// and the mailbox channels cost is in none of the timings; it is the
/// residual `trace.unattributed_pct` states.
pub fn layer_sum_us_per_op(m: &Measured, usage: Usage) -> f64 {
    let ns = |name: &str| m.get(name).copied().unwrap_or(0.0);
    // A peer frame carries a unit of `unit_size` leaves; interpolate between
    // the one-leaf and the 64-leaf timing.
    let fill = ((usage.unit_size - 1.0) / (UNIT as f64 - 1.0)).clamp(0.0, 1.0);
    let peer_frame = |one: &str, full: &str| ns(one) + (ns(full) - ns(one)) * fill;
    // Every frame a replica receives is a client request or a peer frame.
    let peer_frames = (ns("net.frames_received_per_op") - 1.0).max(0.0);
    let wire = ns("wire.encode_request_ns")
        + ns("wire.decode_request_ns")
        + ns("wire.encode_reply_ns")
        + ns("wire.decode_reply_ns")
        + peer_frames
            * (peer_frame("wire.encode_peer_unit1_ns", "wire.encode_peer_unit64_ns")
                + peer_frame("wire.decode_peer_unit1_ns", "wire.decode_peer_unit64_ns"));
    // One trip through the poller per flush pass.
    let reactor = ns("net.flushes_per_op") * ns("reactor.poll_ready_ns");
    let snapshot_us = if usage.private_keys > 4 * SMALL_STATE {
        ns("exec.snapshot_us_128k")
    } else {
        ns("exec.snapshot_us_8k")
    };
    let checkpoints = usage.replicas / (CHECKPOINT_UNITS * usage.unit_size);
    let coalesce = if usage.unit_size > 1.0 { ns("batch.coalesce_ns_per_cmd") } else { 0.0 };
    let session = coalesce
        + usage.replicas * ns("exec.apply_serial_ns_per_leaf")
        + checkpoints * snapshot_us * 1e3;
    // The simulated step covers five replicas handling one unit.
    let caesar =
        ns("caesar.step_us_per_cmd") * 1e3 * (usage.replicas / SIM_REPLICAS) / usage.unit_size;
    let wal =
        if usage.durable { usage.replicas * ns("wal.append_unit64_ns") / UNIT as f64 } else { 0.0 };
    let telemetry = usage.spans_per_op * ns("telemetry.span_record_ns")
        + (ns("net.frames_sent_per_op") + ns("net.frames_received_per_op"))
            * ns("telemetry.counter_inc_ns");
    (wire + reactor + session + caesar + wal + telemetry) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let text = |k| m.get(k).and_then(Value::as_str).expect("string field").to_string();
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn the_tables_match_benchmark_json() {
        let doc = benchmark_json();
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let own_names: Vec<&str> = crate::rig::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, own_names);
    }

    #[test]
    fn the_budget_weighs_timings_by_use() {
        let mut m = Measured::new();
        m.insert("wire.encode_request_ns", 100.0);
        m.insert("wire.decode_request_ns", 100.0);
        m.insert("wire.encode_reply_ns", 100.0);
        m.insert("wire.decode_reply_ns", 100.0);
        m.insert("wire.encode_peer_unit1_ns", 200.0);
        m.insert("wire.decode_peer_unit1_ns", 300.0);
        m.insert("net.frames_received_per_op", 7.0);
        m.insert("exec.apply_serial_ns_per_leaf", 50.0);
        let usage = Usage {
            replicas: 3.0,
            unit_size: 1.0,
            private_keys: 8_192,
            durable: false,
            spans_per_op: 0.0,
        };
        // 400 ns of client frames + 6 peer frames × 500 ns + 3 × 50 ns apply.
        assert_eq!(layer_sum_us_per_op(&m, usage), 3.55);
    }
}
