//! EPaxos baseline — Egalitarian Paxos (Moraru et al., SOSP 2013).
//!
//! EPaxos is the closest competitor in the CAESAR evaluation: a multi-leader
//! Generalized Consensus protocol that tracks **dependencies** (interfering
//! commands) instead of timestamps. The command leader sends `PreAccept` with
//! its locally computed dependency set and sequence number; if a fast quorum
//! replies with *identical* attributes, the command commits after two
//! communication delays. Any disagreement forces the Paxos-Accept slow path
//! (four delays). Committed commands execute by analysing the dependency
//! graph: strongly connected components are executed in reverse topological
//! order, ordered by sequence number inside a component.
//!
//! The implementation mirrors the structure used for the CAESAR crate so the
//! harness can swap protocols behind the same [`simnet::Process`] interface.
//!
//! # Quorums, conflicts and recovery
//!
//! * **Quorums.** Fast path: one `PreAccept` round over the optimized
//!   egalitarian fast quorum of `F + ⌊(F+1)/2⌋` replicas *including the
//!   leader* (3 of 5), two delays — but only if every reply carries
//!   identical dependencies and sequence number. Slow path: a Paxos-Accept
//!   round over a classic quorum of `⌊N/2⌋+1` (3 of 5), four delays.
//! * **Conflict condition.** Two commands interfere when they access the
//!   same key and at least one writes; only interfering commands appear in
//!   each other's dependency sets.
//! * **Recovery semantics (restart catch-up).** Execution is gated on the
//!   dependency graph, so the resume point is the *set of applied command
//!   ids*: `Process::on_state_transfer` absorbs the transferred,
//!   floor-compacted `consensus_types::AppliedSummary` into the execution
//!   graph as a baseline — dependency closures treat covered ids as
//!   executed without materializing them — marks covered instances
//!   `Executed`, and re-tries the committed roots that were blocked on
//!   them. No slot cursor is needed (`Process::execution_cursor` stays
//!   `Ids`).
//!
//! # Example
//!
//! ```
//! use consensus_types::{Command, CommandId, NodeId};
//! use epaxos::{EpaxosConfig, EpaxosReplica};
//! use simnet::{LatencyMatrix, SimConfig, Simulator};
//!
//! let config = EpaxosConfig::new(5);
//! let mut sim = Simulator::new(SimConfig::new(LatencyMatrix::ec2_five_sites()), |id| {
//!     EpaxosReplica::new(id, config.clone())
//! });
//! sim.schedule_command(0, NodeId(0), Command::put(CommandId::new(NodeId(0), 1), 7, 1));
//! sim.run();
//! assert_eq!(sim.decisions(NodeId(0)).len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::iter_over_hash_type)]

mod exec;
mod replica;

pub use exec::ExecutionGraph;
pub use replica::{EpaxosConfig, EpaxosMessage, EpaxosMetrics, EpaxosReplica, InstanceStatus};
