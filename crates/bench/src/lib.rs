//! Experiment harness for the Vienna Fortran reproduction.
//!
//! The paper contains no measurement tables; its evaluation is the pair of
//! application figures (Fig. 1 ADI, Fig. 2 PIC) and the analytic message
//! cost argument of §4.  Each of those becomes a quantitative experiment
//! here (E1–E5, see `DESIGN.md` and `EXPERIMENTS.md`); this library holds
//! the row generators shared by the `exp_e*` binaries and the Criterion
//! benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fixtures;
pub mod json;
pub mod table;
pub mod timing;
