//! The simulated machine description.

use crate::fault::{FaultInjector, FaultPlan};
use crate::{CommTracker, CostModel};
use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A simulated distributed-memory machine: a number of processors plus a
/// [`CostModel`].
///
/// The paper's `$NP` intrinsic (the number of executing processors, used to
/// choose distributions at run time in §4) corresponds to
/// [`Machine::num_procs`].
///
/// A machine also owns one plan store ([`Machine::plan_store`]), shared by
/// its clones; equality and `Debug` ignore it.
#[derive(Clone)]
pub struct Machine {
    num_procs: usize,
    cost: CostModel,
    fault_plan: Option<FaultPlan>,
    plan_store: Arc<OnceLock<Box<dyn Any + Send + Sync>>>,
}

impl PartialEq for Machine {
    fn eq(&self, other: &Self) -> bool {
        (self.num_procs, &self.cost, &self.fault_plan)
            == (other.num_procs, &other.cost, &other.fault_plan)
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("num_procs", &self.num_procs)
            .field("cost", &self.cost)
            .field("fault_plan", &self.fault_plan)
            .finish_non_exhaustive()
    }
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
            plan_store: Arc::default(),
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

    /// The machine's plan store, built by `init` on first use.  Every
    /// clone of this machine returns the same store; a machine built by
    /// [`Machine::new`] starts with none.  The slot is type-erased because
    /// the store's type (the runtime's plan cache) lives in a crate above
    /// this one: one type per machine, and asking for another panics.
    pub fn plan_store<S: Any + Send + Sync>(&self, init: impl FnOnce() -> S) -> &S {
        self.plan_store
            .get_or_init(|| Box::new(init()))
            .downcast_ref()
            .expect("a machine holds one plan store type")
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
    fn clones_share_the_plan_store_and_equality_ignores_it() {
        let m = Machine::with_procs(4);
        let clone = m.clone();
        let store: &Vec<u8> = m.plan_store(|| vec![7]);
        assert!(std::ptr::eq(store, clone.plan_store(Vec::<u8>::new)));
        let fresh = Machine::with_procs(4);
        assert!(fresh.plan_store(Vec::<u8>::new).is_empty());
        assert_eq!(m, fresh);
        assert!(!format!("{m:?}").contains("plan_store"));
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
