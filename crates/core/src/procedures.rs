//! Implicit redistribution at procedure boundaries (paper §4 and §5).
//!
//! Vienna Fortran "allows procedure arguments to be declared with a specific
//! distribution.  When the procedure is called, it is the compiler's
//! responsibility to redistribute the actual argument to match the specified
//! distribution" (§4).  Unlike HPF, Vienna Fortran also permits the new
//! distribution established inside the procedure to be *returned* to the
//! caller (§5).  This module provides that mechanism as a library call: the
//! actual arguments are redistributed to the formal declarations, the
//! procedure body runs against the scope, and on return the caller either
//! keeps the distributions the callee left behind (Vienna Fortran
//! semantics) or gets the original ones restored (HPF-style semantics) —
//! both are offered so the §4 discussion of the trade-off can be
//! reproduced.

use crate::distribute::DistributeReport;
use crate::{CoreError, Result, VfScope};
use vf_dist::{DistType, Distribution};
use vf_runtime::{redistribute, Element, RedistOptions};

/// What happens to an argument's distribution when the procedure returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReturnPolicy {
    /// Vienna Fortran semantics: the distribution current at procedure exit
    /// is returned to (kept by) the caller.
    KeepCalleeDistribution,
    /// HPF-style semantics: the caller's original distribution is restored
    /// (which may cost another redistribution).
    RestoreCallerDistribution,
}

/// A formal argument declaration: the actual array it binds to in the
/// caller's scope and the distribution type the procedure declares for it.
#[derive(Debug, Clone, PartialEq)]
pub struct FormalArg {
    /// Name of the actual argument array in the calling scope.
    pub actual: String,
    /// The distribution type declared for the formal parameter.
    pub declared: DistType,
}

impl FormalArg {
    /// Binds the actual array `actual` to a formal parameter declared with
    /// `declared`.
    pub fn new(actual: impl Into<String>, declared: DistType) -> Self {
        Self {
            actual: actual.into(),
            declared,
        }
    }
}

/// The redistribution traffic generated by one procedure call: entry
/// (caller → formal declaration) and exit (restoration, when requested).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallReport {
    /// Per-argument redistribution at procedure entry.
    pub entry: DistributeReport,
    /// Per-argument redistribution at procedure exit (empty under
    /// [`ReturnPolicy::KeepCalleeDistribution`]).
    pub exit: DistributeReport,
}

impl CallReport {
    /// Total bytes moved at the call boundary (entry + exit).
    pub fn boundary_bytes(&self) -> usize {
        self.entry.bytes() + self.exit.bytes()
    }
}

impl<T: Element> VfScope<T> {
    /// Redistributes one array to `dist_type` as compiler-inserted data
    /// motion at a procedure boundary.  Unlike [`VfScope::distribute`], this
    /// applies to any declared array (static arrays included) and is not
    /// constrained by `RANGE` — it models what the compiler does for
    /// argument passing, not a user statement.
    fn redistribute_for_call(
        &mut self,
        name: &str,
        dist_type: &DistType,
    ) -> Result<vf_runtime::RedistReport> {
        let current = self
            .array(name)
            .map_err(|_| CoreError::NotYetDistributed { name: name.into() })?;
        let new_dist = Distribution::new(
            dist_type.clone(),
            current.domain().clone(),
            current.dist().procs().clone(),
        )?;
        let (tracker, cache, executor) = (
            self.tracker().clone(),
            self.plan_cache().clone(),
            self.executor().clone(),
        );
        let data = self.array_mut(name)?;
        Ok(redistribute(
            data,
            new_dist,
            &tracker,
            &RedistOptions::default(),
            &cache,
            &executor,
        )?)
    }

    /// Calls a "procedure": redistributes every actual argument to its
    /// formal declaration, runs `body` against this scope, and applies the
    /// chosen [`ReturnPolicy`] on exit.
    ///
    /// This is the implicit-redistribution alternative to the explicit
    /// `DISTRIBUTE` statement discussed in §4; the paper notes it "may lead
    /// to an explosion of subroutines which are different only in the
    /// distribution specified for their arguments" and cannot express
    /// data-dependent repartitioning like Figure 2's — the experiments use
    /// this entry point to compare the two styles.
    pub fn call_procedure(
        &mut self,
        args: &[FormalArg],
        policy: ReturnPolicy,
        body: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<CallReport> {
        let mut report = CallReport::default();
        // Remember the caller-side distributions for possible restoration.
        let mut saved: Vec<(String, DistType)> = Vec::with_capacity(args.len());
        for arg in args {
            saved.push((arg.actual.clone(), self.current_dist_type(&arg.actual)?));
        }
        // Entry: redistribute each actual to the formal declaration.
        for arg in args {
            let r = self.redistribute_for_call(&arg.actual, &arg.declared)?;
            report.entry.per_array.push((arg.actual.clone(), r));
        }
        body(self)?;
        // Exit: restore if requested.
        if policy == ReturnPolicy::RestoreCallerDistribution {
            for (name, dist_type) in saved {
                let r = self.redistribute_for_call(&name, &dist_type)?;
                report.exit.per_array.push((name, r));
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::{DynamicDecl, StaticDecl};
    use crate::DistributeStmt;
    use vf_dist::DistPattern;
    use vf_index::{IndexDomain, Point};
    use vf_machine::{CostModel, Machine};

    fn scope() -> VfScope<f64> {
        VfScope::new(Machine::new(4, CostModel::zero()))
    }

    #[test]
    fn call_redistributes_arguments_and_keeps_callee_distribution() {
        let mut s = scope();
        s.declare_dynamic(
            DynamicDecl::new("V", IndexDomain::d2(8, 8)).initial(DistType::columns()),
        )
        .unwrap();
        for p in IndexDomain::d2(8, 8).iter() {
            let v = (p.coord(0) * 10 + p.coord(1)) as f64;
            s.array_mut("V").unwrap().set(&p, v).unwrap();
        }
        let report = s
            .call_procedure(
                &[FormalArg::new("V", DistType::rows())],
                ReturnPolicy::KeepCalleeDistribution,
                |inner| {
                    // Inside the procedure the argument has the declared
                    // distribution and the data is intact.
                    assert!(inner.idt("V", &DistPattern::exact(&DistType::rows()))?);
                    assert_eq!(inner.array("V")?.get(&Point::d2(3, 4))?, 34.0);
                    Ok(())
                },
            )
            .unwrap();
        assert!(report.entry.moved_elements() > 0);
        assert!(report.exit.per_array.is_empty());
        // Vienna Fortran semantics: the caller sees the callee's distribution.
        assert_eq!(s.current_dist_type("V").unwrap(), DistType::rows());
        assert_eq!(s.array("V").unwrap().get(&Point::d2(3, 4)).unwrap(), 34.0);
    }

    #[test]
    fn hpf_style_restoration_costs_a_second_redistribution() {
        let mut s = scope();
        s.declare_dynamic(
            DynamicDecl::new("V", IndexDomain::d2(8, 8)).initial(DistType::columns()),
        )
        .unwrap();
        let report = s
            .call_procedure(
                &[FormalArg::new("V", DistType::rows())],
                ReturnPolicy::RestoreCallerDistribution,
                |_| Ok(()),
            )
            .unwrap();
        assert_eq!(s.current_dist_type("V").unwrap(), DistType::columns());
        assert!(!report.exit.per_array.is_empty());
        assert!(report.boundary_bytes() >= 2 * report.entry.bytes());
    }

    #[test]
    fn static_arrays_can_cross_procedure_boundaries() {
        // §3: "the problems posed by run time redistribution ... are the
        // same as ... those posed by the redistribution of arrays at
        // subroutine boundaries" — even statically distributed actuals may
        // need compiler-inserted motion at a call.
        let mut s = scope();
        s.declare_static(StaticDecl::new(
            "U",
            IndexDomain::d1(16),
            DistType::block1d(),
        ))
        .unwrap();
        for i in 1..=16i64 {
            s.array_mut("U")
                .unwrap()
                .set(&Point::d1(i), i as f64)
                .unwrap();
        }
        let report = s
            .call_procedure(
                &[FormalArg::new("U", DistType::cyclic1d(1))],
                ReturnPolicy::RestoreCallerDistribution,
                |inner| {
                    assert!(inner.idt("U", &DistPattern::exact(&DistType::cyclic1d(1)))?);
                    Ok(())
                },
            )
            .unwrap();
        // A user-level DISTRIBUTE on the static array is still rejected.
        assert!(matches!(
            s.distribute(DistributeStmt::new("U", DistType::cyclic1d(1))),
            Err(CoreError::NotAPrimaryArray { .. })
        ));
        assert_eq!(s.current_dist_type("U").unwrap(), DistType::block1d());
        assert_eq!(s.array("U").unwrap().get(&Point::d1(7)).unwrap(), 7.0);
        assert!(report.boundary_bytes() > 0);
    }

    #[test]
    fn errors_for_unknown_or_undistributed_arguments() {
        let mut s = scope();
        assert!(s
            .call_procedure(
                &[FormalArg::new("NOPE", DistType::block1d())],
                ReturnPolicy::KeepCalleeDistribution,
                |_| Ok(()),
            )
            .is_err());
        s.declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(8)))
            .unwrap();
        assert!(matches!(
            s.call_procedure(
                &[FormalArg::new("B", DistType::block1d())],
                ReturnPolicy::KeepCalleeDistribution,
                |_| Ok(()),
            ),
            Err(CoreError::NotYetDistributed { .. })
        ));
    }

    #[test]
    fn body_errors_propagate() {
        let mut s = scope();
        s.declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(8)).initial(DistType::block1d()))
            .unwrap();
        let err = s.call_procedure(
            &[FormalArg::new("B", DistType::cyclic1d(1))],
            ReturnPolicy::RestoreCallerDistribution,
            |_| {
                Err(CoreError::InvalidDcase {
                    reason: "from the body".into(),
                })
            },
        );
        assert!(matches!(err, Err(CoreError::InvalidDcase { .. })));
    }
}
