//! Source (a) of the per-layer metrics: the rig calls each layer's public
//! functions on inputs drawn from the workload's own generator and times
//! every call (or block of calls) as a span.
//!
//! Nothing here is on the path of the end-to-end run; the timings tell how
//! much one call into a layer costs, and `budget` weighs them by how often
//! the measured run made such a call.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use caesar::{CaesarMessage, CmdStatus, DeliveryEngine, History};
use consensus_core::batch::Batcher;
use consensus_core::exec::Executor;
use consensus_types::{
    Ballot, Command, CommandId, Decision, DecisionPath, LatencyBreakdown, NodeId, Timestamp,
    BATCH_LANE,
};
use net::wire::{frame_bytes, Event, FrameBuffer, WireMessage};
use net::NetConfig;
use reactor::{Events, Interest, Poller, Token, Waker};
use telemetry::{Registry, SpanEvent, TracePhase};
use wal::{FsyncPolicy, Wal, WalConfig};

use crate::rig::gen::ConnGen;
use crate::rig::scratch::ScratchDir;
use crate::rig::stats::percentile;
use crate::rig::trace::{Span, Tracer};

/// Leaves in the batched unit the `unit64` timings use: `with_batch(64)`.
pub const UNIT: usize = 64;
/// Working-set sizes of the snapshot timings: `lan-batched`'s and
/// `lan-bigstate`'s private keys.
pub const SMALL_STATE: usize = 8_192;
pub const BIG_STATE: usize = 131_072;

/// The workload properties the timed inputs are drawn with.
#[derive(Debug, Clone, Copy)]
pub struct LayerInputs {
    pub seed: u64,
    pub conflict_percent: u64,
    pub private_keys: usize,
}

/// `count` commands from the workload's generator (connection 0's stream).
fn commands(inputs: LayerInputs, conflict_percent: u64, count: usize) -> Vec<Command> {
    let mut gen = ConnGen::new(inputs.seed, 0, conflict_percent, inputs.private_keys);
    (0..count)
        .map(|_| {
            let op = gen.next_op();
            if let Some(slot) = op.slot {
                gen.release(slot);
            }
            op.command
        })
        .collect()
}

/// The `index`-th batched unit: `leaves` under a batch-lane id.
fn unit_of((leaves, index): (&[Command], u64)) -> Command {
    Command::batch(CommandId::new(NodeId(0), BATCH_LANE | (index + 1)), leaves.to_vec())
}

/// Times every layer; returns `(metric, value)` pairs in the metric's unit.
pub fn time_layers(
    inputs: LayerInputs,
    tracer: &mut Tracer,
    scratch: &Path,
) -> io::Result<Vec<(&'static str, f64)>> {
    let mut out = Vec::new();
    let cmds = commands(inputs, inputs.conflict_percent, 4_096);
    let units: Vec<Command> = cmds.chunks_exact(UNIT).zip(0..).map(unit_of).collect();
    wire(&cmds, &units, tracer, &mut out)?;
    reactor_layer(tracer, &mut out)?;
    session(inputs, &cmds, &units, tracer, &mut out);
    caesar_layer(inputs, tracer, &mut out);
    wal_layer(inputs.seed, &units, tracer, scratch, &mut out)?;
    telemetry_layer(tracer, &mut out);
    Ok(out)
}

/// Encodes every message of `msgs`, then decodes the frames back, each as
/// its own timed pass.
fn codec<T, D>(
    tracer: &mut Tracer,
    parent: usize,
    names: (&'static str, &'static str),
    msgs: &[T],
    out: &mut Vec<(&'static str, f64)>,
) -> io::Result<()>
where
    T: serde::Serialize,
    D: serde::Deserialize,
{
    let spans = 32;
    let calls = msgs.len() / spans;
    let mut frames = FrameBuffer::new();
    let mut failed = None;
    let encode = tracer.time(names.0, parent, spans, calls, |i| match frame_bytes(&msgs[i]) {
        Ok(frame) => frames.extend(&frame),
        Err(err) => failed = Some(err),
    });
    let decode = tracer.time(names.1, parent, spans, calls, |_| match frames.next_msg::<D>() {
        Ok(msg) => {
            black_box(msg);
        }
        Err(err) => failed = Some(err),
    });
    out.push((names.0, encode));
    out.push((names.1, decode));
    failed.map_or(Ok(()), Err)
}

fn wire(
    cmds: &[Command],
    units: &[Command],
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) -> io::Result<()> {
    let layer = tracer.open("wire");
    let requests: Vec<WireMessage<()>> =
        cmds.iter().map(|cmd| WireMessage::ClientRequest { cmd: cmd.clone() }).collect();
    // A replica decodes client frames as its own protocol's envelope.
    codec::<_, WireMessage<CaesarMessage>>(
        tracer,
        layer,
        ("wire.encode_request_ns", "wire.decode_request_ns"),
        &requests,
        out,
    )?;

    let replies: Vec<Event> = cmds
        .iter()
        .map(|cmd| Event::ClientReply {
            from: NodeId(0),
            command: cmd.id(),
            output: Some(cmd.value()),
            decision: decision_of(cmd.id()),
        })
        .collect();
    codec::<_, Event>(
        tracer,
        layer,
        ("wire.encode_reply_ns", "wire.decode_reply_ns"),
        &replies,
        out,
    )?;

    let propose = |cmd: Command, counter: u64| WireMessage::Peer {
        from: NodeId(0),
        msg: CaesarMessage::FastPropose {
            ballot: Ballot::initial(NodeId(0)),
            cmd,
            time: Timestamp::new(counter, NodeId(0)),
            whitelist: None,
        },
    };
    let unit1: Vec<_> =
        cmds.iter().zip(1..).map(|(cmd, counter)| propose(cmd.clone(), counter)).collect();
    codec::<_, WireMessage<CaesarMessage>>(
        tracer,
        layer,
        ("wire.encode_peer_unit1_ns", "wire.decode_peer_unit1_ns"),
        &unit1,
        out,
    )?;
    let unit64: Vec<_> =
        units.iter().zip(1..).map(|(unit, counter)| propose(unit.clone(), counter)).collect();
    codec::<_, WireMessage<CaesarMessage>>(
        tracer,
        layer,
        ("wire.encode_peer_unit64_ns", "wire.decode_peer_unit64_ns"),
        &unit64,
        out,
    )?;
    tracer.close(layer);
    Ok(())
}

fn decision_of(command: CommandId) -> Decision {
    Decision {
        command,
        timestamp: Timestamp::new(command.sequence(), command.origin()),
        path: DecisionPath::Fast,
        proposed_at: 1_000_000,
        executed_at: 1_002_500,
        breakdown: LatencyBreakdown { propose: 1_500, retry: 0, deliver: 1_000, wait: 0 },
    }
}

fn reactor_layer(tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) -> io::Result<()> {
    let layer = tracer.open("reactor");

    // `wait` with one descriptor already ready and a zero timeout: the cost
    // of one trip through the poller. The waker is never drained, and
    // registration is level-triggered, so it stays ready.
    let poller = Poller::new()?;
    let ready = Waker::new()?;
    poller.register(ready.fd(), Token(0), Interest::READABLE)?;
    ready.wake()?;
    let mut events = Events::with_capacity(4);
    let mut failed = None;
    let poll_ns = tracer.time("reactor.poll_ready_ns", layer, 32, 64, |_| {
        if let Err(err) = poller.wait(&mut events, Some(Duration::ZERO)) {
            failed = Some(err);
        }
    });
    if let Some(err) = failed {
        return Err(err);
    }
    out.push(("reactor.poll_ready_ns", poll_ns));

    // Cross-thread wake-up: this thread calls `Waker::wake`, a second thread
    // blocked in `Poller::wait` reports when its wait returned.
    const ROUNDS: usize = 200;
    let poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.register(waker.fd(), Token(1), Interest::READABLE)?;
    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    let (woke_tx, woke_rx) = mpsc::channel::<io::Result<Instant>>();
    let mut wake_us = Vec::with_capacity(ROUNDS);
    std::thread::scope(|scope| -> io::Result<()> {
        // Owned here, so an early return drops them and the waiter, whose
        // wait is bounded, sees its channel closed and ends.
        let (parked_rx, woke_rx) = (parked_rx, woke_rx);
        let (poller, waker) = (&poller, &waker);
        scope.spawn(move || {
            let mut events = Events::with_capacity(4);
            for _ in 0..ROUNDS {
                if parked_tx.send(()).is_err() {
                    return;
                }
                let woke =
                    poller.wait(&mut events, Some(Duration::from_secs(1))).map(|_| Instant::now());
                waker.drain();
                if woke_tx.send(woke).is_err() {
                    return;
                }
            }
        });
        for _ in 0..ROUNDS {
            if parked_rx.recv().is_err() {
                break;
            }
            // Give the waiter time to actually block in epoll_wait.
            std::thread::sleep(Duration::from_micros(100));
            let start = Instant::now();
            waker.wake()?;
            let Ok(woke) = woke_rx.recv() else { break };
            let woke = woke?;
            wake_us.push((woke - start).as_secs_f64() * 1e6);
            tracer.push(Span {
                name: "reactor.wake_to_wait_us",
                start_ns: tracer.ns_at(start),
                end_ns: tracer.ns_at(woke),
                command: None,
                parent: Some(layer),
            });
        }
        Ok(())
    })?;
    out.push(("reactor.wake_to_wait_us", percentile(&mut wake_us, 0.5)));
    tracer.close(layer);
    Ok(())
}

/// An executor over the default state machine, preloaded like connection 0
/// of a workload with `keys` private keys per connection.
fn loaded_executor(seed: u64, keys: usize, workers: usize) -> Executor {
    let factory = NetConfig::new(1).state_machine;
    let executor = Executor::new(factory, NodeId(0), workers, &Registry::new());
    let mut gen = ConnGen::new(seed, 0, 0, keys);
    let puts: Vec<Command> =
        std::iter::from_fn(|| gen.next_preload()).map(|op| op.command).collect();
    for chunk in puts.chunks(UNIT) {
        executor.apply_round(chunk);
    }
    executor
}

fn session(
    inputs: LayerInputs,
    cmds: &[Command],
    units: &[Command],
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) {
    let layer = tracer.open("session");
    let mut batcher = Batcher::new(NodeId(0));
    let mut queued: Vec<Vec<Command>> = cmds.chunks_exact(UNIT).map(<[Command]>::to_vec).collect();
    let coalesce = tracer.time("batch.coalesce_ns_per_cmd", layer, queued.len(), 1, |i| {
        black_box(batcher.coalesce(std::mem::take(&mut queued[i])));
    });
    out.push(("batch.coalesce_ns_per_cmd", coalesce / UNIT as f64));

    for (name, workers) in
        [("exec.apply_serial_ns_per_leaf", 1), ("exec.apply_sharded4_ns_per_leaf", 4)]
    {
        let executor = loaded_executor(inputs.seed, inputs.private_keys, workers);
        let apply = tracer.time(name, layer, units.len(), 1, |i| {
            black_box(executor.apply_round(std::slice::from_ref(&units[i])));
        });
        out.push((name, apply / UNIT as f64));
    }

    for (name, keys) in [("exec.snapshot_us_8k", SMALL_STATE), ("exec.snapshot_us_128k", BIG_STATE)]
    {
        let executor = loaded_executor(inputs.seed, keys, 1);
        let snapshot = tracer.time(name, layer, 8, 1, |_| {
            black_box(executor.snapshot());
        });
        out.push((name, snapshot / 1e3));
    }
    tracer.close(layer);
}

fn caesar_layer(inputs: LayerInputs, tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    const ACTIVE: usize = 1_024;
    let layer = tracer.open("caesar");
    let ballot = Ballot::initial(NodeId(0));
    let ts = |counter: usize| Timestamp::new(counter as u64 + 1, NodeId(0));

    // H.UPDATE of a fresh command into an index of 1,024 active entries
    // (3,072 by the end of the timing; the per-key maps stay shallow).
    let history_of = |cmds: &[Command]| {
        let mut history = History::new(16);
        for (i, cmd) in cmds.iter().enumerate() {
            history.update(cmd, ts(i), BTreeSet::new(), CmdStatus::FastPending, ballot, false);
        }
        history
    };
    let cmds = commands(inputs, inputs.conflict_percent, ACTIVE + 2_048);
    let mut history = history_of(&cmds[..ACTIVE]);
    let update = tracer.time("caesar.history_update_ns", layer, 32, 64, |i| {
        let cmd = &cmds[ACTIVE + i];
        history.update(cmd, ts(ACTIVE + i), BTreeSet::new(), CmdStatus::FastPending, ballot, false);
    });
    out.push(("caesar.history_update_ns", update));

    // COMPUTEPREDECESSORS over 1,024 active entries, at both conflict rates
    // the workloads use.
    for (name, conflict) in [("caesar.predecessors_ns_c2", 2), ("caesar.predecessors_ns_c30", 30)] {
        let cmds = commands(inputs, conflict, ACTIVE + 2_048);
        let history = history_of(&cmds[..ACTIVE]);
        let predecessors = tracer.time(name, layer, 32, 64, |i| {
            black_box(history.compute_predecessors(&cmds[ACTIVE + i], ts(ACTIVE + i), None));
        });
        out.push((name, predecessors));
    }

    // A stable command whose one predecessor (the previous write of its key)
    // has executed: the delivery engine's common case.
    let mut engine = DeliveryEngine::new();
    let mut last_on_key: HashMap<u64, CommandId> = HashMap::new();
    let stable: Vec<(CommandId, BTreeSet<CommandId>)> = cmds[..2_048]
        .iter()
        .map(|cmd| {
            let key = cmd.key().expect("generated commands are puts");
            (cmd.id(), last_on_key.insert(key, cmd.id()).into_iter().collect())
        })
        .collect();
    let delivery = tracer.time("caesar.delivery_on_stable_ns", layer, 32, 64, |i| {
        let (id, pred) = &stable[i];
        black_box(engine.on_stable(*id, ts(i), pred));
    });
    out.push(("caesar.delivery_on_stable_ns", delivery));
    tracer.close(layer);
}

fn wal_layer(
    seed: u64,
    units: &[Command],
    tracer: &mut Tracer,
    scratch: &Path,
    out: &mut Vec<(&'static str, f64)>,
) -> io::Result<()> {
    let layer = tracer.open("wal");
    let dir = ScratchDir::new(scratch)?;
    let config = WalConfig::new(dir.path().to_path_buf()).with_fsync(FsyncPolicy::PerBatch);
    let (mut wal, _) = Wal::open(config, &Registry::new())?;
    let mut failed = None;
    let mut keep = |result: io::Result<()>| {
        if let Err(err) = result {
            failed = Some(err);
        }
    };

    // One apply round under the per-batch policy: stage a unit, then commit
    // (write + fsync). The two halves are timed apart.
    let (mut append_ns, mut commit_ns) = (Vec::new(), Vec::new());
    for unit in units.iter().take(32) {
        append_ns.push(tracer.time("wal.append_unit64_ns", layer, 1, 1, |_| {
            keep(wal.append_command(unit));
        }));
        commit_ns.push(tracer.time("wal.commit_perbatch_us", layer, 1, 1, |_| keep(wal.commit())));
    }
    out.push(("wal.append_unit64_ns", percentile(&mut append_ns, 0.5)));
    out.push(("wal.commit_perbatch_us", percentile(&mut commit_ns, 0.5) / 1e3));

    // A checkpoint record the size `lan-batched` cuts: rotate, write, fsync,
    // compact.
    let payload = loaded_executor(seed, SMALL_STATE, 1).snapshot();
    let checkpoint = tracer.time("wal.checkpoint_8k_us", layer, 5, 1, |i| {
        keep(wal.append_checkpoint(i as u64, &payload));
    });
    out.push(("wal.checkpoint_8k_us", checkpoint / 1e3));
    tracer.close(layer);
    failed.map_or(Ok(()), Err)
}

fn telemetry_layer(tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let layer = tracer.open("telemetry");
    let registry = Registry::new();
    let counter = registry.counter("bench.counter");
    let inc = tracer.time("telemetry.counter_inc_ns", layer, 32, 4_096, |_| counter.inc());
    black_box(counter.get());
    out.push(("telemetry.counter_inc_ns", inc));
    let record = tracer.time("telemetry.span_record_ns", layer, 32, 256, |i| {
        registry.record_span(SpanEvent {
            command: CommandId::new(NodeId(0), i as u64),
            phase: TracePhase::Execute,
            at: i as u64,
            node: NodeId(0),
        });
    });
    out.push(("telemetry.span_record_ns", record));
    tracer.close(layer);
}
