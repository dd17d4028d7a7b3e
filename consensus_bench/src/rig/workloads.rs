//! The six named workloads. Each differs from `lan-batched` in one stated
//! dimension, so a difference between two of them has one cause.

use crate::rig::loadgen::Pace;

/// A loopback cluster under socket load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanSpec {
    pub pace: Pace,
    /// `NetConfig::with_batch`; `None` leaves proposer batching off.
    pub batch: Option<usize>,
    /// Share of commands that hit the shared 100-key pool.
    pub conflict_percent: u64,
    /// Private keys, split evenly over the connections.
    pub private_keys: usize,
    /// Log to a write-ahead log under `FsyncPolicy::PerBatch`.
    pub durable: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Lan(LanSpec),
    /// Five simulated sites on the EC2 latency matrix.
    WanSim,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

const BATCHED: LanSpec = LanSpec {
    pace: Pace::Closed { in_flight: 512 },
    batch: Some(64),
    conflict_percent: 2,
    private_keys: 8_192,
    durable: false,
};

const UNBATCHED: LanSpec =
    LanSpec { pace: Pace::Closed { in_flight: 32 }, batch: None, conflict_percent: 30, ..BATCHED };

pub const ALL: [Workload; 6] = [
    Workload { name: "lan-batched", kind: Kind::Lan(BATCHED) },
    Workload { name: "lan-unbatched", kind: Kind::Lan(UNBATCHED) },
    Workload {
        name: "lan-open",
        kind: Kind::Lan(LanSpec { pace: Pace::Open { rate: 1_000.0 }, ..UNBATCHED }),
    },
    Workload { name: "lan-durable", kind: Kind::Lan(LanSpec { durable: true, ..BATCHED }) },
    Workload {
        name: "lan-bigstate",
        kind: Kind::Lan(LanSpec { private_keys: 131_072, ..BATCHED }),
    },
    Workload { name: "wan-sim", kind: Kind::WanSim },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|workload| workload.name == name)
}
