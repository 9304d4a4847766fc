//! Dynamic data distributions in Vienna Fortran — the language-level
//! contribution of the paper, realised as a Rust library.
//!
//! The paper (Chapman, Mehrotra, Moritsch, Zima; Supercomputing '93)
//! extends Vienna Fortran with *dynamically distributed arrays*: arrays
//! whose association with a distribution may change at run time, under the
//! control of an executable `DISTRIBUTE` statement, constrained by `RANGE`
//! attributes, organised into *connect equivalence classes* of primary and
//! secondary arrays, and queried with the `DCASE` construct and the `IDT`
//! intrinsic.  This crate implements those semantics (paper §2) on top of
//! the Vienna Fortran Engine runtime ([`vf_runtime`]) and the simulated
//! distributed-memory machine ([`vf_machine`]), together with the
//! compiler-side *reaching distribution* analysis of §3.1.
//!
//! # Layout
//!
//! * [`decl`] — `DYNAMIC` and static array declarations, `RANGE`
//!   attributes, initial distributions (paper §2.3);
//! * [`connect`] — the connect equivalence relation: primary arrays,
//!   secondary arrays, connections by distribution extraction or alignment
//!   (paper §2.3);
//! * [`VfScope`] — a procedure scope holding declared arrays and executing
//!   statements against the runtime;
//! * [`distribute`] — the executable `DISTRIBUTE` statement with
//!   `NOTRANSFER` (paper §2.4, §3.2.2);
//! * [`dcase`] — the `DCASE` construct and the `IDT` intrinsic (paper
//!   §2.5);
//! * [`analysis`] — the reaching-distribution (plausible distribution set)
//!   dataflow analysis and partial evaluation of distribution queries
//!   (paper §3.1).
//!
//! The crate re-exports the substrate crates so that a downstream user only
//! needs `vf_core` in scope.
//!
//! # Quick example
//!
//! The ADI pattern of the paper's Figure 1 — declare a dynamic array with a
//! range, distribute it by columns, sweep, redistribute by rows, sweep:
//!
//! ```
//! use vf_core::prelude::*;
//!
//! let machine = Machine::with_procs(4);
//! let mut scope: VfScope<f64> = VfScope::new(machine);
//! scope
//!     .declare_dynamic(
//!         DynamicDecl::new("V", IndexDomain::d2(8, 8))
//!             .range([DistPattern::exact(&DistType::columns()),
//!                     DistPattern::exact(&DistType::rows())])
//!             .initial(DistType::columns()),
//!     )
//!     .unwrap();
//! // ... x-line sweeps on local columns ...
//! scope
//!     .distribute(DistributeStmt::new("V", DistType::rows()))
//!     .unwrap();
//! assert!(scope.idt("V", &DistPattern::exact(&DistType::rows())).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod connect;
pub mod dcase;
pub mod decl;
pub mod distribute;
mod error;
pub mod procedures;
mod scope;

pub use connect::{ConnectClass, Connection};
pub use dcase::{idt, idt_on, Condition, Dcase, DcaseClause};
pub use decl::{DeclKind, DynamicDecl, SecondaryDecl, StaticDecl};
pub use distribute::{DimSpec, DistExpr, DistributeReport, DistributeStmt};
pub use error::CoreError;
pub use procedures::{CallReport, FormalArg, ReturnPolicy};
pub use scope::{ClassGhosts, ClassHalo, ClassHaloExchange, VfScope};

/// Convenience result alias for language-layer operations.
pub type Result<T> = std::result::Result<T, CoreError>;

// Re-export the substrate crates under stable names.
pub use vf_dist;
pub use vf_index;
pub use vf_machine;
pub use vf_runtime;

/// A prelude bringing the commonly used types of the whole workspace into
/// scope.
pub mod prelude {
    pub use crate::analysis::{Program, QueryOutcome, ReachingDistributions, Stmt};
    pub use crate::{
        idt, idt_on, CallReport, ClassGhosts, ClassHalo, ClassHaloExchange, Condition,
        ConnectClass, Connection, CoreError, Dcase, DcaseClause, DeclKind, DimSpec, DistExpr,
        DistributeReport, DistributeStmt, DynamicDecl, FormalArg, ReturnPolicy, SecondaryDecl,
        StaticDecl, VfScope,
    };
    pub use vf_dist::{
        construct, Alignment, Connectivity, DimDist, DimPattern, DistPattern, DistType,
        Distribution, IndirectMap, ProcId, ProcessorArray, ProcessorView,
    };
    pub use vf_index::{DimRange, IndexDomain, Point, Section, Triplet};
    pub use vf_machine::{CommStats, CommTracker, CostModel, Machine, Topology, WorkerPool};
    pub use vf_runtime::{
        assign, execute_class_redistribute, execute_redistribute, forall_owned, ghost, parti, plan,
        redistribute, redistribute_split, reduce, table_for, translation, ArrayDescriptor,
        CheckpointStore, CommPlan, DistArray, DistTranslationTable, Element, ExecBackend,
        ExecReport, FusedPlan, LocalView, LocalViewMut, PlanCache, PlanCacheStats, PlanExecutor,
        RedistOptions, RedistReport, RestoredCheckpoint, SerialExecutor, ShardedArray,
        ShardedExecutor, ShardedHaloExchange, SplitExecReport, SplitPhaseExchange,
        SplitRedistribute, ThreadedExecutor, TranslationStats,
    };
}
