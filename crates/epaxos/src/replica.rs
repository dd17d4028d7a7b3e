//! The EPaxos replica: pre-accept / accept / commit plus explicit-prepare
//! recovery.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use consensus_types::{
    Ballot, Command, CommandId, Decision, DecisionPath, LatencyBreakdown, NodeId, QuorumSpec,
    SimTime, StateTransfer, Timestamp,
};
use serde::{Deserialize, Serialize};
use simnet::{Context, Process};
use telemetry::{Counter, Registry, TracePhase};

use crate::exec::ExecutionGraph;

type Deps = BTreeSet<CommandId>;

/// Local knowledge about an instance shipped in a `PrepareReply`:
/// (command, seq, deps, status).
type PrepareInfo = (Command, u64, Deps, InstanceStatus);

/// Configuration of an EPaxos replica.
#[derive(Debug, Clone)]
pub struct EpaxosConfig {
    /// Classic quorum specification (`⌊N/2⌋+1`).
    pub quorums: QuorumSpec,
    /// Size of the EPaxos fast quorum *including the leader*:
    /// `F + ⌊(F+1)/2⌋` (3 for N = 5), the optimized egalitarian quorum.
    pub fast_quorum: usize,
    /// Takeover timeout after which a replica runs explicit prepare for a
    /// command whose leader appears to have failed (`None` disables it).
    pub recovery_timeout: Option<SimTime>,
    /// Base CPU cost per protocol message (microseconds).
    pub message_cost_us: SimTime,
    /// Extra CPU cost per dependency-graph node visited at execution time,
    /// in nanoseconds — this is what makes EPaxos's delivery cost grow with
    /// the conflict rate (Section VI of the CAESAR paper).
    pub per_graph_node_cost_ns: u64,
}

impl EpaxosConfig {
    /// Default configuration for a cluster of `nodes` replicas.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        let quorums = QuorumSpec::new(nodes);
        let f = quorums.max_failures();
        Self {
            quorums,
            fast_quorum: f + f.div_ceil(2),
            recovery_timeout: Some(2_000_000),
            message_cost_us: 12,
            per_graph_node_cost_ns: 400,
        }
    }

    /// Sets the per-message CPU cost.
    #[must_use]
    pub fn with_message_cost_us(mut self, cost: SimTime) -> Self {
        self.message_cost_us = cost;
        self
    }

    /// Sets the recovery timeout.
    #[must_use]
    pub fn with_recovery_timeout(mut self, timeout: Option<SimTime>) -> Self {
        self.recovery_timeout = timeout;
        self
    }
}

/// Status of an instance in the replica's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceStatus {
    /// Pre-accepted (fast-path attempt in progress).
    PreAccepted,
    /// Accepted (slow path in progress).
    Accepted,
    /// Committed (waiting for dependencies to execute).
    Committed,
    /// Executed locally.
    Executed,
}

/// Messages of the EPaxos protocol (timeouts are self-messages).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum EpaxosMessage {
    /// Leader → replicas: propose `cmd` with the leader's attributes.
    PreAccept {
        /// Command leader's ballot.
        ballot: Ballot,
        /// The command.
        cmd: Command,
        /// Leader-computed sequence number.
        seq: u64,
        /// Leader-computed dependencies.
        deps: Deps,
    },
    /// Replica → leader: possibly updated attributes.
    PreAcceptReply {
        /// Ballot echoed back.
        ballot: Ballot,
        /// The command the reply refers to.
        cmd_id: CommandId,
        /// Updated sequence number.
        seq: u64,
        /// Updated dependencies.
        deps: Deps,
        /// Whether the attributes are unchanged from the leader's.
        unchanged: bool,
    },
    /// Leader → replicas: Paxos-Accept with the union attributes.
    Accept {
        /// Command leader's ballot.
        ballot: Ballot,
        /// The command.
        cmd: Command,
        /// Final sequence number.
        seq: u64,
        /// Final dependency set.
        deps: Deps,
    },
    /// Replica → leader: accept acknowledgement.
    AcceptReply {
        /// Ballot echoed back.
        ballot: Ballot,
        /// The command the reply refers to.
        cmd_id: CommandId,
    },
    /// Leader → replicas: the instance is committed.
    Commit {
        /// The command.
        cmd: Command,
        /// Final sequence number.
        seq: u64,
        /// Final dependency set.
        deps: Deps,
    },
    /// Recovery: ask replicas for their view of an instance.
    Prepare {
        /// The (higher) ballot of the recovering replica.
        ballot: Ballot,
        /// The instance being recovered.
        cmd_id: CommandId,
    },
    /// Recovery reply with the local view.
    PrepareReply {
        /// Ballot echoed back.
        ballot: Ballot,
        /// The instance.
        cmd_id: CommandId,
        /// Local knowledge, if any: (command, seq, deps, status).
        info: Option<(Command, u64, Deps, InstanceStatus)>,
    },
    /// Self-timeout to detect a failed command leader.
    RecoveryTimeout {
        /// The instance whose leader is suspected.
        cmd_id: CommandId,
    },
}

/// A point-in-time copy of the counters kept by an EPaxos replica.
///
/// The live values are registry metrics (`decisions.fast`,
/// `decisions.slow`, `commands.executed`, `recoveries.started`,
/// `epaxos.graph_nodes_visited`), reachable through
/// [`simnet::Process::telemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpaxosMetrics {
    /// Commands this replica led that committed on the fast path.
    pub fast_path: u64,
    /// Commands this replica led that needed the Accept phase.
    pub slow_path: u64,
    /// Recoveries (explicit prepares) started.
    pub recoveries_started: u64,
    /// Commands executed locally.
    pub commands_executed: u64,
    /// Total dependency-graph nodes visited while executing.
    pub graph_nodes_visited: u64,
}

impl EpaxosMetrics {
    /// Fraction of led commands that took the slow path.
    #[must_use]
    pub fn slow_path_ratio(&self) -> f64 {
        let total = self.fast_path + self.slow_path;
        if total == 0 {
            0.0
        } else {
            self.slow_path as f64 / total as f64
        }
    }
}

/// The registry handles behind [`EpaxosMetrics`].
#[derive(Debug)]
struct EpaxosCounters {
    fast_path: Counter,
    slow_path: Counter,
    recoveries_started: Counter,
    commands_executed: Counter,
    graph_nodes_visited: Counter,
}

impl EpaxosCounters {
    fn register(registry: &Registry) -> Self {
        Self {
            fast_path: registry.counter("decisions.fast"),
            slow_path: registry.counter("decisions.slow"),
            recoveries_started: registry.counter("recoveries.started"),
            commands_executed: registry.counter("commands.executed"),
            graph_nodes_visited: registry.counter("epaxos.graph_nodes_visited"),
        }
    }

    fn snapshot(&self) -> EpaxosMetrics {
        EpaxosMetrics {
            fast_path: self.fast_path.get(),
            slow_path: self.slow_path.get(),
            recoveries_started: self.recoveries_started.get(),
            commands_executed: self.commands_executed.get(),
            graph_nodes_visited: self.graph_nodes_visited.get(),
        }
    }
}

#[derive(Debug)]
struct Instance {
    cmd: Command,
    seq: u64,
    deps: Deps,
    status: InstanceStatus,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaderPhase {
    PreAccept,
    Accept,
    Done,
}

#[derive(Debug)]
struct LeaderState {
    cmd: Command,
    ballot: Ballot,
    seq: u64,
    deps: Deps,
    phase: LeaderPhase,
    replies: usize,
    unchanged_replies: usize,
    accept_replies: usize,
    proposed_at: SimTime,
    from_recovery: bool,
}

/// An EPaxos replica implementing [`simnet::Process`].
#[derive(Debug)]
pub struct EpaxosReplica {
    id: NodeId,
    config: EpaxosConfig,
    instances: HashMap<CommandId, Instance>,
    /// Per conflict key: the most recent interfering instance and the highest
    /// sequence number seen.
    conflicts: HashMap<u64, (CommandId, u64)>,
    leading: HashMap<CommandId, LeaderState>,
    led: HashMap<CommandId, (SimTime, DecisionPath)>,
    exec: ExecutionGraph,
    ballots: HashMap<CommandId, Ballot>,
    recovering: HashMap<CommandId, (Ballot, Vec<Option<PrepareInfo>>)>,
    recovery_timer_set: HashSet<CommandId>,
    registry: Arc<Registry>,
    metrics: EpaxosCounters,
}

impl EpaxosReplica {
    /// Creates a replica with the given id and configuration.
    #[must_use]
    pub fn new(id: NodeId, config: EpaxosConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let metrics = EpaxosCounters::register(&registry);
        Self {
            id,
            config,
            instances: HashMap::new(),
            conflicts: HashMap::new(),
            leading: HashMap::new(),
            led: HashMap::new(),
            exec: ExecutionGraph::new(),
            ballots: HashMap::new(),
            recovering: HashMap::new(),
            recovery_timer_set: HashSet::new(),
            registry,
            metrics,
        }
    }

    /// This replica's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// A snapshot of the protocol counters.
    #[must_use]
    pub fn metrics(&self) -> EpaxosMetrics {
        self.metrics.snapshot()
    }

    /// Number of commands executed locally.
    #[must_use]
    pub fn executed_count(&self) -> usize {
        self.exec.executed_count()
    }

    /// Computes the attributes (seq, deps) of `cmd` from the local conflict
    /// table, as the original EPaxos does with its per-key "latest
    /// interfering instance" map. Batch units contribute (and collect) a
    /// dependency per key of their merged footprint.
    fn attributes(&self, cmd: &Command) -> (u64, Deps) {
        let mut deps = Deps::new();
        let mut seq = 1;
        for (key, _) in cmd.accesses() {
            if let Some(&(last, last_seq)) = self.conflicts.get(&key) {
                if last != cmd.id() {
                    deps.insert(last);
                    seq = seq.max(last_seq + 1);
                }
            }
        }
        (seq, deps)
    }

    fn record_conflict(&mut self, cmd: &Command, seq: u64) {
        for (key, _) in cmd.accesses() {
            let entry = self.conflicts.entry(key).or_insert((cmd.id(), seq));
            if seq >= entry.1 {
                *entry = (cmd.id(), seq);
            }
        }
    }

    fn admit_ballot(&mut self, cmd_id: CommandId, ballot: Ballot) -> bool {
        match self.ballots.get(&cmd_id) {
            Some(b) if ballot < *b => false,
            _ => {
                self.ballots.insert(cmd_id, ballot);
                true
            }
        }
    }

    fn maybe_schedule_recovery(
        &mut self,
        cmd_id: CommandId,
        leader: NodeId,
        ctx: &mut Context<'_, EpaxosMessage>,
    ) {
        let Some(timeout) = self.config.recovery_timeout else { return };
        if leader == self.id || self.recovery_timer_set.contains(&cmd_id) {
            return;
        }
        self.recovery_timer_set.insert(cmd_id);
        let stagger = (self.id.index() as SimTime) * (timeout / 10).max(10_000);
        ctx.schedule_self(timeout + stagger, EpaxosMessage::RecoveryTimeout { cmd_id });
    }

    fn commit(&mut self, cmd: Command, seq: u64, deps: Deps, ctx: &mut Context<'_, EpaxosMessage>) {
        let cmd_id = cmd.id();
        let already_committed = matches!(
            self.instances.get(&cmd_id).map(|i| i.status),
            Some(InstanceStatus::Committed | InstanceStatus::Executed)
        );
        if !already_committed {
            ctx.trace(TracePhase::Commit, cmd_id);
        }
        self.record_conflict(&cmd, seq);
        self.instances.insert(
            cmd_id,
            Instance {
                cmd: cmd.clone(),
                seq,
                deps: deps.clone(),
                status: InstanceStatus::Committed,
            },
        );
        self.exec.commit(cmd_id, seq, deps);
        let executed = self.exec.try_execute(cmd_id);
        self.metrics.graph_nodes_visited.add(self.exec.last_visited() as u64);
        self.apply_executions(executed, ctx);
        // Committing one instance may unblock others whose closure now
        // resolves; try the still-pending ones that depend on it.
        self.execute_committed(ctx);
    }

    /// Tries to execute every committed, not yet executed instance, in id
    /// order: hash order would make a seeded run deliver differently each
    /// time.
    fn execute_committed(&mut self, ctx: &mut Context<'_, EpaxosMessage>) {
        let mut pending: Vec<CommandId> = self
            .instances
            .iter()
            .filter(|(_, i)| i.status == InstanceStatus::Committed)
            .map(|(id, _)| *id)
            .collect();
        pending.sort_unstable();
        for id in pending {
            if !self.exec.is_executed(id) {
                let executed = self.exec.try_execute(id);
                self.metrics.graph_nodes_visited.add(self.exec.last_visited() as u64);
                self.apply_executions(executed, ctx);
            }
        }
    }

    fn apply_executions(&mut self, executed: Vec<CommandId>, ctx: &mut Context<'_, EpaxosMessage>) {
        let now = ctx.now();
        for id in executed {
            let cmd = match self.instances.get_mut(&id) {
                Some(instance) => {
                    instance.status = InstanceStatus::Executed;
                    instance.cmd.clone()
                }
                None => continue,
            };
            self.metrics.commands_executed.inc();
            let (proposed_at, path) =
                self.led.get(&id).copied().unwrap_or((now, DecisionPath::Ordered));
            let decision = Decision {
                command: id,
                timestamp: Timestamp::ZERO,
                path,
                proposed_at,
                executed_at: now,
                breakdown: LatencyBreakdown::default(),
            };
            ctx.deliver(cmd, decision);
        }
    }
}

impl Process for EpaxosReplica {
    type Message = EpaxosMessage;

    fn on_client_command(&mut self, cmd: Command, ctx: &mut Context<'_, EpaxosMessage>) {
        let cmd_id = cmd.id();
        let ballot = Ballot::initial(self.id);
        self.ballots.insert(cmd_id, ballot);
        let (seq, deps) = self.attributes(&cmd);
        // The leader pre-accepts locally and counts itself in the quorum.
        self.instances.insert(
            cmd_id,
            Instance {
                cmd: cmd.clone(),
                seq,
                deps: deps.clone(),
                status: InstanceStatus::PreAccepted,
            },
        );
        self.record_conflict(&cmd, seq);
        self.leading.insert(
            cmd_id,
            LeaderState {
                cmd: cmd.clone(),
                ballot,
                seq,
                deps: deps.clone(),
                phase: LeaderPhase::PreAccept,
                replies: 1,
                unchanged_replies: 1,
                accept_replies: 0,
                proposed_at: ctx.now(),
                from_recovery: false,
            },
        );
        ctx.trace(TracePhase::Propose, cmd_id);
        ctx.broadcast_others(EpaxosMessage::PreAccept { ballot, cmd, seq, deps });
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: EpaxosMessage,
        ctx: &mut Context<'_, EpaxosMessage>,
    ) {
        match msg {
            EpaxosMessage::PreAccept { ballot, cmd, seq, deps } => {
                let cmd_id = cmd.id();
                if !self.admit_ballot(cmd_id, ballot) {
                    return;
                }
                if matches!(
                    self.instances.get(&cmd_id).map(|i| i.status),
                    Some(InstanceStatus::Committed | InstanceStatus::Executed)
                ) {
                    return;
                }
                let (local_seq, local_deps) = self.attributes(&cmd);
                let merged_seq = seq.max(local_seq);
                let mut merged_deps = deps.clone();
                merged_deps.extend(local_deps);
                merged_deps.remove(&cmd_id);
                let unchanged = merged_seq == seq && merged_deps == deps;
                self.instances.insert(
                    cmd_id,
                    Instance {
                        cmd: cmd.clone(),
                        seq: merged_seq,
                        deps: merged_deps.clone(),
                        status: InstanceStatus::PreAccepted,
                    },
                );
                self.record_conflict(&cmd, merged_seq);
                self.maybe_schedule_recovery(cmd_id, from, ctx);
                ctx.send(
                    from,
                    EpaxosMessage::PreAcceptReply {
                        ballot,
                        cmd_id,
                        seq: merged_seq,
                        deps: merged_deps,
                        unchanged,
                    },
                );
            }
            EpaxosMessage::PreAcceptReply { ballot, cmd_id, seq, deps, unchanged } => {
                let fast_quorum = self.config.fast_quorum;
                let classic = self.config.quorums.classic();
                let Some(state) = self.leading.get_mut(&cmd_id) else { return };
                if state.ballot != ballot || state.phase != LeaderPhase::PreAccept {
                    return;
                }
                state.replies += 1;
                if unchanged {
                    state.unchanged_replies += 1;
                }
                state.seq = state.seq.max(seq);
                state.deps.extend(deps);
                if state.unchanged_replies >= fast_quorum {
                    // Fast path: attributes agreed by a fast quorum.
                    state.phase = LeaderPhase::Done;
                    let cmd = state.cmd.clone();
                    let (seq, deps) = (state.seq, state.deps.clone());
                    let proposed_at = state.proposed_at;
                    let path = if state.from_recovery {
                        DecisionPath::Recovery
                    } else {
                        DecisionPath::Fast
                    };
                    self.metrics.fast_path.inc();
                    ctx.trace(TracePhase::QuorumReached, cmd_id);
                    self.led.insert(cmd_id, (proposed_at, path));
                    ctx.broadcast_others(EpaxosMessage::Commit {
                        cmd: cmd.clone(),
                        seq,
                        deps: deps.clone(),
                    });
                    self.commit(cmd, seq, deps, ctx);
                } else if state.replies >= classic
                    && (state.replies >= fast_quorum
                        || state.replies >= self.config.quorums.nodes())
                {
                    // Disagreement within the fast quorum: take the slow path.
                    state.phase = LeaderPhase::Accept;
                    state.accept_replies = 1; // the leader accepts locally
                    let msg = EpaxosMessage::Accept {
                        ballot: state.ballot,
                        cmd: state.cmd.clone(),
                        seq: state.seq,
                        deps: state.deps.clone(),
                    };
                    ctx.broadcast_others(msg);
                }
            }
            EpaxosMessage::Accept { ballot, cmd, seq, deps } => {
                let cmd_id = cmd.id();
                if !self.admit_ballot(cmd_id, ballot) {
                    return;
                }
                self.instances.insert(
                    cmd_id,
                    Instance {
                        cmd: cmd.clone(),
                        seq,
                        deps: deps.clone(),
                        status: InstanceStatus::Accepted,
                    },
                );
                self.record_conflict(&cmd, seq);
                self.maybe_schedule_recovery(cmd_id, from, ctx);
                ctx.send(from, EpaxosMessage::AcceptReply { ballot, cmd_id });
            }
            EpaxosMessage::AcceptReply { ballot, cmd_id } => {
                let classic = self.config.quorums.classic();
                let Some(state) = self.leading.get_mut(&cmd_id) else { return };
                if state.ballot != ballot || state.phase != LeaderPhase::Accept {
                    return;
                }
                state.accept_replies += 1;
                if state.accept_replies >= classic {
                    state.phase = LeaderPhase::Done;
                    let cmd = state.cmd.clone();
                    let (seq, deps) = (state.seq, state.deps.clone());
                    let proposed_at = state.proposed_at;
                    let path = if state.from_recovery {
                        DecisionPath::Recovery
                    } else {
                        DecisionPath::SlowRetry
                    };
                    self.metrics.slow_path.inc();
                    ctx.trace(TracePhase::QuorumReached, cmd_id);
                    self.led.insert(cmd_id, (proposed_at, path));
                    ctx.broadcast_others(EpaxosMessage::Commit {
                        cmd: cmd.clone(),
                        seq,
                        deps: deps.clone(),
                    });
                    self.commit(cmd, seq, deps, ctx);
                }
            }
            EpaxosMessage::Commit { cmd, seq, deps } => {
                self.commit(cmd, seq, deps, ctx);
            }
            EpaxosMessage::Prepare { ballot, cmd_id } => {
                if let Some(current) = self.ballots.get(&cmd_id) {
                    if ballot <= *current {
                        return;
                    }
                }
                self.ballots.insert(cmd_id, ballot);
                let info = self
                    .instances
                    .get(&cmd_id)
                    .map(|i| (i.cmd.clone(), i.seq, i.deps.clone(), i.status));
                ctx.send(from, EpaxosMessage::PrepareReply { ballot, cmd_id, info });
            }
            EpaxosMessage::PrepareReply { ballot, cmd_id, info } => {
                let classic = self.config.quorums.classic();
                let Some((b, replies)) = self.recovering.get_mut(&cmd_id) else { return };
                if *b != ballot {
                    return;
                }
                replies.push(info);
                if replies.len() < classic {
                    return;
                }
                let (ballot, replies) = self.recovering.remove(&cmd_id).expect("present");
                // Pick the most advanced state seen.
                let mut best: Option<(Command, u64, Deps, InstanceStatus)> = None;
                for info in replies.into_iter().flatten() {
                    let rank = |s: InstanceStatus| match s {
                        InstanceStatus::Executed | InstanceStatus::Committed => 3,
                        InstanceStatus::Accepted => 2,
                        InstanceStatus::PreAccepted => 1,
                    };
                    best = match best {
                        Some(ref b) if rank(b.3) >= rank(info.3) => best,
                        _ => Some(info),
                    };
                }
                let local = self
                    .instances
                    .get(&cmd_id)
                    .map(|i| (i.cmd.clone(), i.seq, i.deps.clone(), i.status));
                let best = match (best, local) {
                    (Some(b), _) => Some(b),
                    (None, l) => l,
                };
                let Some((cmd, seq, deps, status)) = best else { return };
                match status {
                    InstanceStatus::Committed | InstanceStatus::Executed => {
                        ctx.broadcast_others(EpaxosMessage::Commit {
                            cmd: cmd.clone(),
                            seq,
                            deps: deps.clone(),
                        });
                        self.commit(cmd, seq, deps, ctx);
                    }
                    _ => {
                        // Re-run the Accept phase with the best attributes seen.
                        self.leading.insert(
                            cmd_id,
                            LeaderState {
                                cmd: cmd.clone(),
                                ballot,
                                seq,
                                deps: deps.clone(),
                                phase: LeaderPhase::Accept,
                                replies: 1,
                                unchanged_replies: 1,
                                accept_replies: 1,
                                proposed_at: ctx.now(),
                                from_recovery: true,
                            },
                        );
                        ctx.broadcast_others(EpaxosMessage::Accept { ballot, cmd, seq, deps });
                    }
                }
            }
            EpaxosMessage::RecoveryTimeout { cmd_id } => {
                let Some(timeout) = self.config.recovery_timeout else { return };
                let status = self.instances.get(&cmd_id).map(|i| i.status);
                if matches!(
                    status,
                    Some(InstanceStatus::Committed | InstanceStatus::Executed) | None
                ) {
                    return;
                }
                self.metrics.recoveries_started.inc();
                ctx.trace(TracePhase::Recovery, cmd_id);
                let ballot = self
                    .ballots
                    .get(&cmd_id)
                    .copied()
                    .unwrap_or_else(|| Ballot::initial(cmd_id.origin()))
                    .next_for(self.id);
                self.ballots.insert(cmd_id, ballot);
                self.recovering.insert(cmd_id, (ballot, Vec::new()));
                ctx.broadcast_others(EpaxosMessage::Prepare { ballot, cmd_id });
                ctx.schedule_self(timeout, EpaxosMessage::RecoveryTimeout { cmd_id });
            }
        }
    }

    fn on_state_transfer(
        &mut self,
        transfer: &StateTransfer,
        ctx: &mut Context<'_, EpaxosMessage>,
    ) {
        // Commands covered by an installed snapshot count as executed, so
        // dependency closures stop waiting for them; committed instances
        // blocked only on transferred dependencies execute now. The graph
        // absorbs the run-compacted summary, so the O(history) id set is
        // never materialized here. Instances and dependencies name consensus
        // *units* — batch ids included — hence the unit-level view rather
        // than the per-leaf `applied` summary.
        // Only flips statuses; `execute_committed` fixes the execution order.
        #[allow(clippy::iter_over_hash_type)]
        for (id, instance) in self.instances.iter_mut() {
            if transfer.covers_unit(*id) {
                instance.status = InstanceStatus::Executed;
            }
        }
        self.exec.absorb_transfer(&transfer.unit_summary());
        self.execute_committed(ctx);
    }

    fn processing_cost(&self, msg: &EpaxosMessage) -> SimTime {
        let base = self.config.message_cost_us;
        match msg {
            EpaxosMessage::PreAccept { .. } | EpaxosMessage::Accept { .. } => base,
            EpaxosMessage::Commit { deps, .. } => {
                base + (deps.len() as u64 * self.config.per_graph_node_cost_ns) / 1_000
            }
            EpaxosMessage::PreAcceptReply { .. }
            | EpaxosMessage::AcceptReply { .. }
            | EpaxosMessage::PrepareReply { .. }
            | EpaxosMessage::Prepare { .. } => base / 2 + 1,
            EpaxosMessage::RecoveryTimeout { .. } => 1,
        }
    }

    fn client_processing_cost(&self, _cmd: &Command) -> SimTime {
        self.config.message_cost_us
    }

    fn telemetry(&self) -> Option<Arc<Registry>> {
        Some(self.registry.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{LatencyMatrix, SimConfig, Simulator};

    fn sim(config: EpaxosConfig) -> Simulator<EpaxosReplica> {
        Simulator::new(SimConfig::new(LatencyMatrix::ec2_five_sites()), move |id| {
            EpaxosReplica::new(id, config.clone())
        })
    }

    fn put(node: u32, seq: u64, key: u64) -> Command {
        Command::put(CommandId::new(NodeId(node), seq), key, seq)
    }

    #[test]
    fn fast_quorum_size_matches_epaxos_for_five_nodes() {
        let c = EpaxosConfig::new(5);
        assert_eq!(c.fast_quorum, 3);
        assert_eq!(c.quorums.classic(), 3);
    }

    #[test]
    fn non_conflicting_command_commits_on_the_fast_path() {
        let mut s = sim(EpaxosConfig::new(5));
        s.schedule_command(0, NodeId(0), put(0, 1, 7));
        s.run();
        for node in NodeId::all(5) {
            assert_eq!(s.decisions(node).len(), 1);
        }
        assert_eq!(s.process(NodeId(0)).metrics().fast_path, 1);
        assert_eq!(s.process(NodeId(0)).metrics().slow_path, 0);
        assert_eq!(s.decisions(NodeId(0))[0].path, DecisionPath::Fast);
    }

    #[test]
    fn concurrent_conflicting_commands_take_the_slow_path() {
        let mut s = sim(EpaxosConfig::new(5));
        // Proposed far apart in the topology at the same time: the dependency
        // sets collected by the two fast quorums differ, forcing Accept.
        s.schedule_command(0, NodeId(0), put(0, 1, 7));
        s.schedule_command(0, NodeId(4), put(4, 1, 7));
        s.run();
        let slow: u64 = NodeId::all(5).map(|n| s.process(n).metrics().slow_path).sum();
        assert!(slow >= 1, "at least one of the two conflicting commands must go slow");
        // All replicas execute both commands in the same order.
        let reference: Vec<CommandId> = s.decisions(NodeId(0)).iter().map(|d| d.command).collect();
        assert_eq!(reference.len(), 2);
        for node in NodeId::all(5) {
            let order: Vec<CommandId> = s.decisions(node).iter().map(|d| d.command).collect();
            assert_eq!(order, reference, "order must match at {node}");
        }
    }

    #[test]
    fn sequential_conflicting_commands_stay_on_the_fast_path() {
        let mut s = sim(EpaxosConfig::new(5));
        s.schedule_command(0, NodeId(0), put(0, 1, 7));
        s.schedule_command(400_000, NodeId(1), put(1, 1, 7));
        s.run();
        let fast: u64 = NodeId::all(5).map(|n| s.process(n).metrics().fast_path).sum();
        assert_eq!(fast, 2, "well-separated conflicting commands need no slow path");
    }

    #[test]
    fn leader_crash_is_recovered_via_explicit_prepare() {
        let config = EpaxosConfig::new(5).with_recovery_timeout(Some(1_000_000));
        let mut s = sim(config);
        s.schedule_command(0, NodeId(0), put(0, 1, 7));
        // Crash the leader right after it sends PreAccept.
        s.schedule_crash(1_000, NodeId(0));
        // A later conflicting command from another node depends on the orphan.
        s.schedule_command(200_000, NodeId(1), put(1, 1, 7));
        s.run();
        for node in NodeId::all(5).skip(1) {
            assert_eq!(s.decisions(node).len(), 2, "{node} must execute both commands");
        }
        let recoveries: u64 =
            NodeId::all(5).skip(1).map(|n| s.process(n).metrics().recoveries_started).sum();
        assert!(recoveries >= 1);
    }

    #[test]
    fn executions_follow_dependency_order_across_replicas() {
        let mut s = sim(EpaxosConfig::new(5));
        for i in 0..10u64 {
            s.schedule_command(i * 250_000, NodeId((i % 5) as u32), put((i % 5) as u32, i, 7));
        }
        s.run();
        let reference: Vec<CommandId> = s.decisions(NodeId(0)).iter().map(|d| d.command).collect();
        assert_eq!(reference.len(), 10);
        for node in NodeId::all(5) {
            let order: Vec<CommandId> = s.decisions(node).iter().map(|d| d.command).collect();
            assert_eq!(order, reference);
        }
    }
}
