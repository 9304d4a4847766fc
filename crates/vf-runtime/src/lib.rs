//! The Vienna Fortran Engine (VFE) — the run-time support layer of the
//! paper's §3.2, realised as a library over the simulated distributed-memory
//! machine of [`vf_machine`].
//!
//! The VFE is "an abstract machine that executes Vienna Fortran object
//! programs … realised by a set of run time libraries" (paper §3.2).  This
//! crate provides those libraries:
//!
//! * [`DistArray`] — a distributed array with per-processor local storage
//!   and a global-view accessor for the single logical thread of control;
//!   [`LocalView`] — a processor's local index space (the `loc_map` /
//!   `segment` access functions of §3.2.1) over its buffer; and
//!   [`forall_owned`] — the compute verb that runs an owner-computes
//!   kernel on the views, on the executor's ranks;
//! * [`redistribute`] — the three-step realisation of the executable
//!   `DISTRIBUTE` statement of §3.2.2 (evaluate the new distribution,
//!   derive the distributions of connected arrays, communicate), including
//!   the `NOTRANSFER` attribute and aggregated ("pre-compiled routine")
//!   versus element-wise communication planning; [`execute_redistribute`],
//!   [`execute_class_redistribute`] and [`redistribute_split`] are its
//!   planned, class and split-phase forms;
//! * [`ghost`] — overlap-area (halo) exchange, regular or irregular, for
//!   one array or a class, with face-aggregated messages (the paper's
//!   "sophisticated buffering schemes for accesses to non-local objects");
//! * [`parti`] — PARTI-style translation tables, inspector/executor
//!   communication schedules and gather/scatter executors for irregular
//!   accesses (§3.2, item 1, citing Saltz et al.);
//! * [`plan`] — the unified communication-plan layer beneath all of the
//!   above: run-length-encoded (sender → receiver) schedules
//!   ([`CommPlan`]) built once, cached by distribution fingerprint
//!   ([`PlanCache`], byte-bounded LRU) and replayed by the executors,
//!   realising the PARTI schedule-reuse idea for every communication path
//!   of the engine;
//! * [`exec`] — plan execution: every statement kind is **one verb that
//!   takes its plan and a [`PlanExecutor`]**, and the executor picks the
//!   transport — direct copy or wire buffers through shared memory
//!   ([`SerialExecutor`], the pooled [`ThreadedExecutor`]), or frames over
//!   real channels ([`shard::ShardedExecutor`]); [`FusedPlan`] merges the
//!   per-array schedules of a class into one message per processor pair
//!   (the verb and engine tables are in `crates/vf-runtime/README.md`);
//! * [`shard`] — the channel transport and rank-resident shards for SPMD
//!   application loops;
//! * [`reduce`] — global reductions charged as tree collectives;
//! * [`assign`] — array assignment between differently distributed arrays
//!   (the storage-wasting alternative to dynamic redistribution discussed
//!   in §4);
//! * [`ArrayDescriptor`] — the per-processor descriptor record of §3.2.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
pub mod assign;
pub mod checkpoint;
mod descriptor;
mod element;
mod error;
pub mod exec;
pub mod ghost;
pub mod parti;
pub mod plan;
mod redistribute_impl;
pub mod reduce;
pub mod shard;
pub mod translation;

pub use array::{forall_owned, DistArray, LocalView, LocalViewMut};
pub use checkpoint::{CheckpointStore, RestoredCheckpoint};
pub use descriptor::ArrayDescriptor;
pub use element::{decode_slice, encode_slice, Element};
pub use error::RuntimeError;
pub use exec::{
    ExecBackend, ExecReport, FusedPlan, FusedSlice, PlanExecutor, SerialExecutor, SplitExecReport,
    SplitPhaseExchange, ThreadedExecutor,
};
pub use plan::{
    CommPlan, LocalisedConnectivity, PlanCache, PlanCacheStats, PlanKind, PlanRun, Transfer,
};
pub use redistribute_impl::{
    execute_class_redistribute, execute_redistribute, redistribute, redistribute_split,
    RedistOptions, RedistReport, SplitRedistribute,
};
pub use shard::{ShardedArray, ShardedExecutor, ShardedHaloExchange};
pub use translation::{table_for, DistTranslationTable, TranslationStats};
pub use vf_machine::trace;

/// Convenience result alias for fallible runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;
