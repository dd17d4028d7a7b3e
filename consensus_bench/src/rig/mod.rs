//! The benchmark rig: workloads, load generator, simulated-WAN sessions,
//! layer timings, counter and `/proc` deltas, and the result comparison.

pub mod compare;
pub mod counters;
pub mod gen;
pub mod json;
pub mod lan;
pub mod layers;
pub mod loadgen;
pub mod metrics;
pub mod proc;
pub mod run;
pub mod scratch;
pub mod stats;
pub mod trace;
pub mod wan;
pub mod workloads;
