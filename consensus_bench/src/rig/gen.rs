//! The seeded command generator of the `lan-*` workloads.
//!
//! Keys come from two places. A *shared pool* of [`SHARED_POOL`] keys (the
//! paper's 100) is hit with the workload's conflict percentage by every
//! connection. Every other command writes a *private* key, drawn round-robin
//! from a pool that is fixed per connection, so the state machine's size is
//! stationary: with never-repeating keys every checkpoint cut serialises a
//! growing map and throughput decays inside one run.
//!
//! Each connection owns its own random stream, so the commands it sends are
//! a function of the seed alone, not of the order replies happen to arrive
//! in.

use consensus_types::{Command, CommandId, NodeId};

/// Size of the key pool all connections contend on.
pub const SHARED_POOL: u64 = 100;

/// First private key; connection `c` owns `PRIVATE_BASE + (c << 24) + slot`.
const PRIVATE_BASE: u64 = 1 << 32;

/// SplitMix64 (Steele, Lea, Flood 2014): a tiny, well-mixed generator whose
/// whole state is the seed, which keeps every input reproducible from
/// `--seed` without a dependency.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`. The modulo bias is below 2⁻⁵⁰ for the pool sizes
    /// used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derives the seed of an independent stream (`lane`) from the run's seed.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    SplitMix64::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// One generated command plus what the driver needs to check its reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub command: Command,
    /// The private-pool slot the command writes; `None` for a shared key.
    pub slot: Option<usize>,
    /// For a private key, the value the reply must report as overwritten:
    /// the connection is the key's only writer and never has two writes to
    /// it in flight, so the previous value is known exactly.
    pub expected: Option<Option<u64>>,
}

/// The command stream of one connection.
#[derive(Debug)]
pub struct ConnGen {
    conn: usize,
    rng: SplitMix64,
    conflict_percent: u64,
    sequence: u64,
    cursor: usize,
    /// Last value written to each private slot.
    last: Vec<Option<u64>>,
    /// Slots with a write in flight; the round-robin skips them.
    busy: Vec<bool>,
    /// Preload commands handed out so far.
    preloaded: u64,
}

impl ConnGen {
    /// A generator for connection `conn` with `private_keys` keys of its own.
    pub fn new(seed: u64, conn: usize, conflict_percent: u64, private_keys: usize) -> Self {
        assert!(private_keys > 0, "a connection needs at least one private key");
        Self {
            conn,
            rng: SplitMix64::new(sub_seed(seed, conn as u64 + 1)),
            conflict_percent,
            sequence: 0,
            cursor: 0,
            last: vec![None; private_keys],
            busy: vec![false; private_keys],
            preloaded: 0,
        }
    }

    fn next_id(&mut self) -> CommandId {
        self.sequence += 1;
        CommandId::new(NodeId::from_index(self.conn), self.sequence)
    }

    fn private_key(&self, slot: usize) -> u64 {
        PRIVATE_BASE + ((self.conn as u64) << 24) + slot as u64
    }

    fn write_private(&mut self, slot: usize) -> Op {
        let value = self.rng.next_u64();
        let expected = self.last[slot].replace(value);
        self.busy[slot] = true;
        let id = self.next_id();
        Op {
            command: Command::put(id, self.private_key(slot), value),
            slot: Some(slot),
            expected: Some(expected),
        }
    }

    fn write_shared(&mut self, key: u64) -> Op {
        let value = self.rng.next_u64();
        let id = self.next_id();
        Op { command: Command::put(id, key, value), slot: None, expected: None }
    }

    /// The next command of the preload, which writes every key once before
    /// warm-up so measured writes always overwrite: the shared pool (through
    /// connection 0 only), then each private slot, then `None`.
    pub fn next_preload(&mut self) -> Option<Op> {
        let shared = if self.conn == 0 { SHARED_POOL } else { 0 };
        let index = self.preloaded;
        if index >= shared + self.last.len() as u64 {
            return None;
        }
        self.preloaded += 1;
        Some(if index < shared {
            self.write_shared(index)
        } else {
            self.write_private((index - shared) as usize)
        })
    }

    /// The next command of the measured stream.
    pub fn next_op(&mut self) -> Op {
        if self.rng.below(100) < self.conflict_percent {
            let key = self.rng.below(SHARED_POOL);
            return self.write_shared(key);
        }
        // Round-robin over the pool, past any slot whose write is still in
        // flight. The pool is several times larger than the in-flight bound,
        // so the skip almost never fires and always terminates.
        let slots = self.busy.len();
        let slot = (0..slots)
            .map(|step| (self.cursor + step) % slots)
            .find(|&slot| !self.busy[slot])
            .expect("the private pool is larger than the in-flight bound");
        self.cursor = (slot + 1) % slots;
        self.write_private(slot)
    }

    /// The write to `slot` was answered; the slot may be written again.
    pub fn release(&mut self, slot: usize) {
        self.busy[slot] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, conflict: u64, count: usize) -> Vec<Op> {
        let mut gen = ConnGen::new(seed, 1, conflict, 64);
        (0..count)
            .map(|_| {
                let op = gen.next_op();
                if let Some(slot) = op.slot {
                    gen.release(slot);
                }
                op
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_command_stream() {
        assert_eq!(stream(7, 30, 2_000), stream(7, 30, 2_000));
        assert_ne!(stream(7, 30, 2_000), stream(8, 30, 2_000));
    }

    #[test]
    fn conflict_share_is_within_one_percent_of_the_request() {
        for conflict in [2u64, 30] {
            let ops = stream(11, conflict, 100_000);
            let shared = ops.iter().filter(|op| op.slot.is_none()).count();
            let share = 100.0 * shared as f64 / ops.len() as f64;
            assert!((share - conflict as f64).abs() < 1.0, "{conflict} % asked, {share} % drawn");
            assert!(ops
                .iter()
                .filter(|op| op.slot.is_none())
                .all(|op| { op.command.key().is_some_and(|key| key < SHARED_POOL) }));
        }
    }

    #[test]
    fn private_writes_expect_the_previous_value_and_skip_busy_slots() {
        let mut gen = ConnGen::new(3, 1, 0, 2);
        let first = gen.next_preload().unwrap();
        assert_eq!((first.slot, first.expected), (Some(0), Some(None)));
        gen.release(0);
        // A slot with a write in flight is skipped; once released it is
        // written again and expects the value written just before.
        let held = gen.next_op();
        assert_eq!(held.slot, Some(0));
        assert_eq!(held.expected, Some(Some(first.command.value())));
        let other = gen.next_op();
        assert_eq!(other.slot, Some(1));
        gen.release(0);
        let again = gen.next_op();
        assert_eq!(again.slot, Some(0));
        assert_eq!(again.expected, Some(Some(held.command.value())));
        assert_ne!(first.command.id(), again.command.id());
    }
}
