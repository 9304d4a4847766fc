//! Experiment tables for the Vienna Fortran reproduction.
//!
//! The paper contains no measurement tables; its evaluation is the pair of
//! application figures (Fig. 1 ADI, Fig. 2 PIC) and the analytic message
//! cost argument of §4.  Each of those becomes a quantitative experiment
//! here (E1–E5); this library holds the row generators the `exp_e*`
//! binaries print.  Wall-clock measurement is the `perf` binary's job
//! (`src/bin/perf/README.md`) and nothing else's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;
