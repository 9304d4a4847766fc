//! The simulated machine description.

use crate::fault::{FaultInjector, FaultPlan};
use crate::{CommTracker, CostModel};
use std::sync::Arc;

/// A simulated distributed-memory machine: a number of processors plus a
/// [`CostModel`].
///
/// The paper's `$NP` intrinsic (the number of executing processors, used to
/// choose distributions at run time in §4) corresponds to
/// [`Machine::num_procs`].
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    num_procs: usize,
    cost: CostModel,
    fault_plan: Option<FaultPlan>,
}

impl Machine {
    /// Creates a machine with `num_procs` processors and the given cost
    /// model.
    pub fn new(num_procs: usize, cost: CostModel) -> Self {
        assert!(num_procs > 0, "a machine needs at least one processor");
        Self {
            num_procs,
            cost,
            fault_plan: None,
        }
    }

    /// A machine with `num_procs` processors and the default (iPSC-like)
    /// cost model.
    pub fn with_procs(num_procs: usize) -> Self {
        Self::new(num_procs, CostModel::ipsc860(num_procs))
    }

    /// Number of processors — the `$NP` intrinsic.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// The machine's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Arms the machine with a fault plan: every tracker it creates
    /// carries a freshly seeded [`FaultInjector`], so applications run
    /// their whole communication stack under the plan's deterministic
    /// fault schedule without further plumbing.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The fault plan trackers are armed with, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Creates a fresh communication tracker for this machine.
    ///
    /// When a fault plan is set — or `VF_FAULT_SEED` is in the
    /// environment ([`FaultPlan::from_env`]) — the tracker carries a new
    /// injector seeded from the plan, so each tracker sees the same
    /// schedule on repeated runs.
    pub fn tracker(&self) -> CommTracker {
        let tracker = CommTracker::new(self.num_procs, self.cost.clone());
        match self.fault_plan.clone().or_else(FaultPlan::from_env) {
            Some(plan) => tracker.with_fault_injector(Arc::new(FaultInjector::new(plan))),
            None => tracker,
        }
    }

    /// The machine-readable metrics summary: per-phase measured counts,
    /// totals and latency percentiles from the global
    /// [`trace`](crate::trace) registry, plus the `drift` section
    /// comparing them against the modelled seconds in `stats`.  Empty
    /// (all-zero) when tracing is disabled.
    pub fn metrics_report(&self, stats: &crate::CommStats) -> crate::trace::MetricsReport {
        crate::trace::MetricsReport::new(self.num_procs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_construction() {
        let m = Machine::with_procs(8);
        assert_eq!(m.num_procs(), 8);
        assert!(m.cost().alpha > 0.0);
        let t = m.tracker();
        assert_eq!(t.num_procs(), 8);
    }

    #[test]
    fn custom_cost_model() {
        let m = Machine::new(4, CostModel::zero());
        assert_eq!(m.cost().alpha, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Machine::with_procs(0);
    }

    #[test]
    fn fault_plan_arms_trackers() {
        use crate::fault::FaultPlan;
        let m = Machine::with_procs(4);
        assert!(m.fault_plan().is_none());
        assert!(m.tracker().fault_injector().is_none());
        let armed = m.with_fault_plan(FaultPlan::new(9));
        assert_eq!(armed.fault_plan().unwrap().seed, 9);
        let t = armed.tracker();
        let inj = t.fault_injector().expect("tracker carries an injector");
        assert_eq!(inj.plan().seed, 9);
        // Each tracker gets a fresh injector at the same seed.
        let t2 = armed.tracker();
        assert_eq!(t2.fault_injector().unwrap().plan().seed, 9);
    }
}
