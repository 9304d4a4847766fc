//! A simulated distributed-memory machine for the Vienna Fortran
//! reproduction.
//!
//! The paper evaluates dynamic data distributions in terms of the messages
//! a distributed-memory machine must exchange: each message costs a fixed
//! *startup* overhead plus a *per-byte* transfer cost, and the best
//! distribution of an array depends on the resulting counts and sizes
//! (paper §4: "given the startup overhead and cost per byte of each message
//! of the target machine, the ratio N/p will determine the most appropriate
//! distribution").
//!
//! Because the original iPSC-class hardware (and an MPI binding) is not
//! available here, this crate provides a faithful *simulation substrate*:
//!
//! * [`CostModel`] — the linear α + β·bytes message cost model with a
//!   per-element compute cost and optional per-hop topology term,
//! * [`Topology`] — crossbar, ring and 2-D mesh hop counts,
//! * [`CommStats`] / [`CommTracker`] — full accounting of messages, bytes,
//!   communication time and compute time, per processor and in aggregate;
//!   all runtime operations (ghost exchange, redistribution, irregular
//!   gather/scatter) report their traffic here,
//! * [`Machine`] — the processor count plus cost model used by the runtime,
//! * [`spmd`] — a thread-backed SPMD executor (one OS thread per simulated
//!   processor, private state, explicit message passing over channels) used
//!   to demonstrate that the owner-computes execution really parallelises.
//!
//! The *shape* of every experiment in `EXPERIMENTS.md` (who wins, where the
//! crossover falls) is driven by the modelled cost; wall-clock time of the
//! simulation itself is not the reproduction target.

// `deny` rather than `forbid`: the persistent worker pool ([`pool`]) needs
// one well-documented lifetime erasure for its scoped job handoff; every
// other module remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cost;
pub mod fault;
mod machine;
pub mod pool;
pub mod spmd;
mod stats;
mod topology;
pub mod trace;
mod tracker;

pub use cost::CostModel;
pub use fault::{CorruptSpec, FaultInjector, FaultKind, FaultPlan, RankDeathSpec};
pub use machine::Machine;
pub use pool::{JobTicket, WorkerPool};
pub use spmd::{SpmdError, WireFrameMsg};
pub use stats::{CommStats, ProcStats};
pub use topology::Topology;
pub use trace::{DriftReport, MetricsReport, Phase, TraceSnapshot};
pub use tracker::{CollectiveKind, CommTracker, PendingSends};
