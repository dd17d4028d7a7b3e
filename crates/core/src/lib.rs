//! CAESAR — multi-leader Generalized Consensus that chases fast decisions.
//!
//! This crate is a from-scratch Rust implementation of the protocol described
//! in *"Speeding up Consensus by Chasing Fast Decisions"* (Arun, Peluso,
//! Palmieri, Losa, Ravindran — DSN 2017). CAESAR lets every replica act as the
//! leader of the commands proposed to it and agrees on a **delivery
//! timestamp** per command instead of an exact dependency set. A command is
//! decided on the *fast path* (two communication delays) whenever a fast
//! quorum (`⌈3N/4⌉`) of replicas confirms its timestamp — even if those
//! replicas report different predecessor sets, which is the situation that
//! forces EPaxos and similar protocols onto their slow path.
//!
//! # Protocol phases
//!
//! * **Fast proposal** ([`simnet::Process::on_client_command`] →
//!   `FastPropose`/`FastProposeReply`): the leader proposes a timestamp drawn
//!   from its logical clock; acceptors either confirm it (possibly after the
//!   *wait condition* holds the command back while a conflicting,
//!   higher-timestamped command finishes) or reject it with a greater
//!   suggestion.
//! * **Slow proposal**: entered when only a classic quorum answered within the
//!   timeout; one more round over a classic quorum so the timestamp survives
//!   `f` failures.
//! * **Retry**: entered after any rejection; the leader re-proposes the
//!   maximum suggested timestamp. A retry can never be rejected.
//! * **Stable**: the final timestamp and predecessor set are broadcast;
//!   replicas execute a command once all its predecessors have executed
//!   (breaking predecessor loops by timestamp order first).
//! * **Recovery**: when a command's leader is suspected, any replica can take
//!   over with a higher ballot and finish the decision while preserving any
//!   fast decision possibly taken (whitelist reconstruction).
//!
//! # Quorums, conflicts and recovery
//!
//! * **Quorums.** Fast path: one round over a fast quorum of `⌈3N/4⌉`
//!   replicas (4 of 5), two communication delays. Slow path: one extra
//!   round over a classic quorum of `⌊N/2⌋+1` (3 of 5), four delays.
//! * **Conflict condition.** Two commands conflict when they access the
//!   same key and at least one writes; only conflicting commands are
//!   timestamp-ordered relative to each other (Generalized Consensus).
//! * **Recovery semantics (restart catch-up).** Execution is gated on
//!   predecessor sets, so the resume point of a restarted replica is the
//!   *set of applied command ids*: `Process::on_state_transfer` feeds the
//!   transferred, floor-compacted `consensus_types::AppliedSummary` to the
//!   delivery engine as a baseline — every covered id counts as executed
//!   for all future predecessor checks without the O(history) set ever
//!   being materialized — and stable commands blocked only on covered
//!   predecessors deliver immediately. No slot cursor is needed
//!   (`Process::execution_cursor` stays `Ids`).
//!
//! # Example
//!
//! ```
//! use caesar::{CaesarConfig, CaesarReplica};
//! use consensus_types::{Command, CommandId, NodeId};
//! use simnet::{LatencyMatrix, SimConfig, Simulator};
//!
//! // A 5-site cluster with the paper's EC2 latencies.
//! let latency = LatencyMatrix::ec2_five_sites();
//! let config = CaesarConfig::new(5);
//! let mut sim = Simulator::new(SimConfig::new(latency), |id| {
//!     CaesarReplica::new(id, config.clone())
//! });
//!
//! // Two conflicting commands proposed at different sites.
//! sim.schedule_command(0, NodeId(0), Command::put(CommandId::new(NodeId(0), 1), 7, 1));
//! sim.schedule_command(1_000, NodeId(4), Command::put(CommandId::new(NodeId(4), 1), 7, 2));
//! sim.run();
//!
//! // Every replica executed both commands, in the same order.
//! for node in NodeId::all(5) {
//!     assert_eq!(sim.decisions(node).len(), 2);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::iter_over_hash_type)]

mod clock;
mod config;
mod delivery;
mod history;
mod messages;
mod metrics;
mod replica;

pub use clock::LogicalClock;
pub use config::CaesarConfig;
pub use delivery::DeliveryEngine;
pub use history::{CmdInfo, CmdStatus, History};
pub use messages::{CaesarMessage, ProposalKind, RecoveryInfo};
pub use metrics::CaesarMetrics;
pub use replica::CaesarReplica;
