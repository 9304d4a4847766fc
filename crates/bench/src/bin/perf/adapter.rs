//! The benchmark's only binding to the repository.
//!
//! Every call the benchmark makes into the workspace crates goes through
//! this file, so a later PR that reshapes the runtime's API has exactly
//! one place to update — and a list (in `README.md`) of the public items
//! it has to keep.  The binding is deliberately narrow: app `run*`
//! functions, `VfScope` statements, `CheckpointStore`, `PlanCache::*_plan`,
//! `FusedPlan::fuse`, `Distribution` / `locator`, `table_for`,
//! `ShardedArray::{scatter, gather}`, `spmd::run` with
//! `ProcCtx::{send, recv, barrier}`, `encode_slice` / `decode_slice`,
//! `WorkerPool::run`, the public counters and `trace::*`.  It does **not**
//! touch the `exchange_ghosts_*` / `redistribute*` / `execute_*` function
//! families, which ROADMAP direction 2 collapses.

use std::path::Path;
use std::sync::Arc;
use vf_apps::{adi, mesh, pic, smoothing, workloads};
use vf_core::prelude::*;
use vf_core::vf_dist::LinearRun;
use vf_machine::{pool, spmd};

pub use vf_apps::mesh::Mesh;
pub use vf_apps::workloads::Particle;
pub use vf_core::prelude::{Distribution, Machine};
pub use vf_core::ClassGhosts;
pub use vf_machine::trace::{self, Phase};

/// A distribution type; built only through the `layout_*` functions.
pub type Layout = DistType;

/// What one repetition charged and counted.  The integer fields are exact
/// counts (the † metrics): they must repeat bit-for-bit between
/// repetitions of one workload.  The `*_s` fields are simulated seconds on
/// the machine's cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    pub messages: u64,
    pub bytes: u64,
    pub retries: u64,
    pub fallbacks: u64,
    pub channel_messages: u64,
    pub channel_bytes: u64,
    pub ckpt_written: u64,
    pub ckpt_read: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_bytes: u64,
    pub page_fetches: u64,
    pub pool_jobs: u64,
    pub comm_s: f64,
    pub compute_s: f64,
    pub critical_s: f64,
}

impl Ledger {
    fn of(stats: &CommStats) -> Self {
        Self {
            messages: stats.total_messages() as u64,
            bytes: stats.total_bytes() as u64,
            retries: stats.retries() as u64,
            fallbacks: stats.fallbacks() as u64,
            channel_messages: stats.channel_messages() as u64,
            channel_bytes: stats.channel_bytes() as u64,
            ckpt_written: stats.ckpt_bytes_written() as u64,
            ckpt_read: stats.ckpt_bytes_read() as u64,
            comm_s: stats.total_comm_time(),
            compute_s: stats.total_compute_time(),
            critical_s: stats.critical_time(),
            ..Self::default()
        }
    }

    /// Adds the plan-cache activity between two `PlanCacheStats` readings.
    fn with_plans(mut self, before: PlanCacheStats, after: PlanCacheStats) -> Self {
        self.plan_hits = after.hits - before.hits;
        self.plan_misses = after.misses - before.misses;
        self.plan_bytes = after.resident_bytes as u64;
        self
    }

    /// The exact counts, in a fixed order, for the repetition-to-repetition
    /// drift check.
    pub fn exact(&self) -> [u64; 13] {
        [
            self.messages,
            self.bytes,
            self.retries,
            self.fallbacks,
            self.channel_messages,
            self.channel_bytes,
            self.ckpt_written,
            self.ckpt_read,
            self.plan_hits,
            self.plan_misses,
            self.plan_bytes,
            self.page_fetches,
            self.pool_jobs,
        ]
    }
}

/// Whether `VF_EXEC_BACKEND` selects the sharded (channel) transport.
pub fn sharded_from_env() -> bool {
    matches!(ExecBackend::auto(), ExecBackend::Sharded(_))
}

/// The paper's machine: `procs` processors on the iPSC/860 cost model.
pub fn machine(procs: usize) -> Machine {
    Machine::new(procs, CostModel::ipsc860(procs))
}

/// Jobs the process-wide worker pool has dispatched so far.
pub fn pool_jobs() -> u64 {
    pool::global().jobs_dispatched()
}

/// One empty dispatch on the process-wide pool.
pub fn pool_dispatch_empty() {
    pool::global().run(&|_rank| {});
}

// ---------------------------------------------------------------------------
// Applications
// ---------------------------------------------------------------------------

pub fn grid_input(n: usize, seed: u64) -> Vec<f64> {
    workloads::initial_grid(n, seed)
}

pub fn adi_run(
    n: usize,
    iterations: usize,
    machine: &Machine,
    initial: &[f64],
) -> (Vec<f64>, Ledger) {
    let config = adi::AdiConfig {
        n,
        iterations,
        strategy: adi::AdiStrategy::DynamicRedistribute,
    };
    let result = adi::run(&config, machine, initial);
    (result.field, Ledger::of(&result.stats))
}

pub fn adi_reference(n: usize, iterations: usize, initial: &[f64]) -> Vec<f64> {
    adi::sequential_reference(n, iterations, initial)
}

pub fn smoothing_run(
    n: usize,
    steps: usize,
    machine: &Machine,
    initial: &[f64],
) -> (Vec<f64>, Ledger) {
    let config = smoothing::SmoothingConfig {
        n,
        steps,
        layout: smoothing::SmoothingLayout::Blocks2D,
    };
    let result = smoothing::run(&config, machine, initial);
    (result.field, Ledger::of(&result.stats))
}

pub fn smoothing_reference(n: usize, steps: usize, initial: &[f64]) -> Vec<f64> {
    smoothing::sequential_reference(n, steps, initial)
}

pub fn pic_input(ncell: usize, count: usize, seed: u64) -> Vec<Particle> {
    let layout = workloads::ParticleLayout::Cluster {
        center: 0.2,
        width: 0.08,
    };
    workloads::particles(ncell, count, layout, 0.4, seed)
}

/// What a PIC run reports that must repeat exactly: the conserved particle
/// count and the per-step balance history.
#[derive(Debug, Clone, PartialEq)]
pub struct PicOutcome {
    pub total_particles: usize,
    pub rebalance_count: usize,
    pub rebalance_bytes: usize,
    /// `(max particles on a processor, migrated particles, rebalanced)` per step.
    pub per_step: Vec<(usize, usize, bool)>,
}

pub fn pic_run(
    ncell: usize,
    steps: usize,
    machine: &Machine,
    particles: &[Particle],
) -> (PicOutcome, Ledger) {
    let config = pic::PicConfig {
        ncell,
        steps,
        strategy: pic::PicStrategy::DynamicGenBlock {
            period: 10,
            threshold: 1.1,
        },
    };
    let result = pic::run(&config, machine, particles);
    let outcome = PicOutcome {
        total_particles: result.total_particles,
        rebalance_count: result.rebalance_count,
        rebalance_bytes: result.rebalance_bytes,
        per_step: result
            .per_step
            .iter()
            .map(|s| (s.max_particles, s.migrated_particles, s.rebalanced))
            .collect(),
    };
    (outcome, Ledger::of(&result.stats))
}

pub fn mesh_input(nx: usize, ny: usize, seed: u64) -> Mesh {
    mesh::unstructured_mesh(nx, ny, seed)
}

/// Directed edge visits of one Jacobi sweep over `mesh`.
pub fn mesh_edge_visits(mesh: &Mesh) -> usize {
    mesh.adjncy.len()
}

/// The sweep from a `BLOCK` partition, repartitioned greedily before step
/// `repartition_at` when given.
pub fn mesh_run(
    mesh: &Mesh,
    steps: usize,
    repartition_at: Option<usize>,
    machine: &Machine,
) -> (Vec<f64>, Ledger) {
    let config = mesh::MeshSweepConfig {
        steps,
        partition: mesh::MeshPartition::Block,
        repartition_at,
    };
    let result = mesh::run_sweep(mesh, &config, machine);
    let mut ledger =
        Ledger::of(&result.stats).with_plans(PlanCacheStats::default(), result.plan_cache);
    ledger.page_fetches = result.directory.page_fetches;
    (result.values, ledger)
}

pub fn mesh_partition(mesh: &Mesh, procs: usize) -> Vec<usize> {
    mesh::partition_greedy(mesh, procs)
}

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

/// `(:, BLOCK)`.
pub fn layout_cols() -> Layout {
    DistType::columns()
}

/// `(BLOCK, :)`.
pub fn layout_rows() -> Layout {
    DistType::rows()
}

/// `(CYCLIC(k), :)`.
pub fn layout_cyclic_rows(k: usize) -> Layout {
    DistType::new(vec![DimDist::cyclic_k(k), DimDist::not_distributed()])
}

/// `(:, GEN_BLOCK(sizes))`.
pub fn layout_gen_block_cols(sizes: Vec<usize>) -> Layout {
    DistType::new(vec![DimDist::not_distributed(), DimDist::gen_block(sizes)])
}

/// `(BLOCK, BLOCK)`.
pub fn layout_blocks2d() -> Layout {
    DistType::blocks2d()
}

/// `(BLOCK)`.
pub fn layout_block1d() -> Layout {
    DistType::block1d()
}

/// `(GEN_BLOCK(sizes))`.
pub fn layout_gen_block1d(sizes: Vec<usize>) -> Layout {
    DistType::gen_block1d(sizes)
}

/// `(INDIRECT(owners))`.
pub fn layout_indirect1d(owners: Vec<usize>) -> Layout {
    DistType::indirect1d(Arc::new(
        IndirectMap::new(owners).expect("a non-empty owner map"),
    ))
}

/// `layout` applied to an `extents`-shaped array over `procs` processors
/// (a 2-D processor grid for `(BLOCK, BLOCK)`, linear otherwise).
pub fn distribution(layout: &Layout, extents: &[usize], procs: usize) -> Distribution {
    let view = if layout.distributed_dims().len() == 2 {
        let rows = (1..=procs)
            .rev()
            .find(|r| r * r <= procs && procs.is_multiple_of(*r));
        let rows = rows.unwrap_or(1);
        ProcessorView::grid2d(rows, procs / rows)
    } else {
        ProcessorView::linear(procs)
    };
    let domain = IndexDomain::of_extents(extents).expect("non-empty extents");
    Distribution::new(layout.clone(), domain, view).expect("a valid benchmark layout")
}

/// Sum of the owner ranks of `lins` (column-major offsets) through one
/// locator — the per-element ownership lookup every planner runs.
pub fn locate_all(dist: &Distribution, lins: &[usize]) -> usize {
    let locator = dist.locator();
    lins.iter().map(|&lin| locator.locate_lin(lin).0 .0).sum()
}

/// Number of points `Distribution::local_points` enumerates over all processors.
pub fn local_points_all(dist: &Distribution) -> usize {
    dist.proc_ids()
        .iter()
        .map(|&p| dist.local_points(p).len())
        .sum()
}

/// Builds (or fetches) the translation table of an INDIRECT distribution
/// and returns its page count.
pub fn translation_table_pages(dist: &Distribution) -> usize {
    table_for(dist).num_pages()
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// A plan cache of the harness's own (the probes').
pub struct Plans(PlanCache);

/// A planned communication schedule.
pub struct Plan(Arc<CommPlan>);

impl Plan {
    pub fn messages(&self) -> usize {
        self.0.num_messages()
    }
}

impl Plans {
    pub fn new() -> Self {
        Self(PlanCache::new())
    }

    /// The `from -> to` redistribution plan.
    pub fn redistribute(&self, from: &Distribution, to: &Distribution) -> Plan {
        Plan(self.0.redistribute_plan(from, to).expect("plannable"))
    }

    /// The ghost plan of `dist` for `widths`.
    pub fn ghost(&self, dist: &Distribution, widths: &[(usize, usize)]) -> Plan {
        Plan(self.0.ghost_plan(dist, widths).expect("contiguous layout"))
    }

    /// The connectivity-driven halo plan of `dist` over `mesh`.
    pub fn ghost_irregular(&self, dist: &Distribution, mesh: &Mesh) -> Plan {
        let plan = self.0.ghost_irregular_plan(dist, &mesh.connectivity());
        Plan(plan.expect("plannable"))
    }
}

/// Fuses `parts` copies of `plan` (a connect class of `parts` arrays);
/// returns the fused message count.
pub fn fuse(plan: &Plan, parts: usize) -> usize {
    let fused = FusedPlan::fuse(vec![Arc::clone(&plan.0); parts]).expect("same-kind plans");
    fused.num_messages()
}

// ---------------------------------------------------------------------------
// Arrays, as the oracle reads them
// ---------------------------------------------------------------------------

/// A distributed array the harness holds between a repetition and its
/// verification without looking into it.
pub struct Array(DistArray<f64>);

impl Array {
    /// The array gathered to a dense column-major vector by the runtime's
    /// own element-wise path — slow, and independent of [`RunMap`].
    pub fn dense(&self) -> Vec<f64> {
        self.0.to_dense()
    }
}

/// A distribution's local-to-global mapping as contiguous runs, computed
/// once so that verifying a repetition costs a few block copies instead of
/// a per-element gather.
pub struct RunMap {
    fingerprint: u64,
    size: usize,
    runs: Vec<Vec<LinearRun>>,
}

impl RunMap {
    pub fn of(dist: &Distribution) -> Self {
        Self {
            fingerprint: dist.fingerprint(),
            size: dist.domain().size(),
            runs: dist
                .proc_ids()
                .iter()
                .map(|&p| dist.local_linear_runs(p))
                .collect(),
        }
    }

    /// `array` gathered to a dense vector; `None` when it is not laid out
    /// as this map's distribution.
    pub fn gather(&self, array: &Array) -> Option<Vec<f64>> {
        self.gather_from(&array.0)
    }

    fn gather_from(&self, array: &DistArray<f64>) -> Option<Vec<f64>> {
        if array.dist_fingerprint() != self.fingerprint {
            return None;
        }
        let mut dense = vec![0.0; self.size];
        for (proc, runs) in self.runs.iter().enumerate() {
            let local = array.local(ProcId(proc));
            for run in runs {
                dense[run.global_start..run.global_start + run.len]
                    .copy_from_slice(&local[run.local_start..run.local_start + run.len]);
            }
        }
        Some(dense)
    }

    fn scatter_into(&self, array: &mut DistArray<f64>, dense: &[f64]) {
        assert_eq!(
            array.dist_fingerprint(),
            self.fingerprint,
            "the map is of another layout"
        );
        for (proc, runs) in self.runs.iter().enumerate() {
            let local = array.local_mut(ProcId(proc));
            for run in runs {
                local[run.local_start..run.local_start + run.len]
                    .copy_from_slice(&dense[run.global_start..run.global_start + run.len]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The language layer: one connect class in a `VfScope`
// ---------------------------------------------------------------------------

/// The backend a [`ClassScope`] runs its statements on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// What `VF_EXEC_BACKEND` (or its absence) selects.
    FromEnv,
    /// The pooled shared-memory backend, whatever the environment says.
    Shared,
}

/// A `VfScope<f64>` holding one connect class of square `n x n` arrays: a
/// dynamic primary and `members - 1` secondaries connected by extraction.
pub struct ClassScope {
    scope: VfScope<f64>,
    names: Vec<String>,
    plans_before: PlanCacheStats,
}

/// An in-flight split-phase class halo.
pub type HaloInFlight<'s> = vf_core::ClassHaloExchange<'s, f64>;

impl ClassScope {
    pub fn declare(
        machine: Machine,
        n: usize,
        members: usize,
        initial: &Layout,
        backend: Backend,
    ) -> Self {
        let mut scope: VfScope<f64> = VfScope::new(machine);
        if backend == Backend::Shared {
            scope.set_executor(ExecBackend::Threaded(ThreadedExecutor::auto()));
        }
        let names: Vec<String> = (0..members).map(|k| format!("A{k}")).collect();
        let domain = IndexDomain::d2(n, n);
        scope
            .declare_dynamic(DynamicDecl::new(&names[0], domain.clone()).initial(initial.clone()))
            .expect("fresh scope");
        for name in &names[1..] {
            scope
                .declare_secondary(SecondaryDecl::extraction(name, domain.clone(), &names[0]))
                .expect("primary declared above");
        }
        Self {
            scope,
            names,
            plans_before: PlanCacheStats::default(),
        }
    }

    pub fn members(&self) -> usize {
        self.names.len()
    }

    /// The run map of the class's current layout.
    pub fn run_map(&self) -> RunMap {
        RunMap::of(self.scope.array(&self.names[0]).expect("declared").dist())
    }

    /// Overwrites member `k` with `dense` (column-major, whole array).
    pub fn fill(&mut self, k: usize, dense: &[f64], map: &RunMap) {
        map.scatter_into(
            self.scope.array_mut(&self.names[k]).expect("declared"),
            dense,
        );
    }

    /// Member `k` gathered by the runtime's own element-wise path.
    pub fn dense(&self, k: usize) -> Vec<f64> {
        self.scope
            .array(&self.names[k])
            .expect("declared")
            .to_dense()
    }

    /// Member `k` gathered through `map`; `None` when the class is not
    /// laid out as `map`.
    pub fn dense_fast(&self, k: usize, map: &RunMap) -> Option<Vec<f64>> {
        map.gather_from(self.scope.array(&self.names[k]).expect("declared"))
    }

    /// `DISTRIBUTE primary :: layout` — moves the whole class.
    pub fn distribute(&mut self, layout: &Layout) {
        let stmt = DistributeStmt::new(&self.names[0], layout.clone());
        self.scope.distribute(stmt).expect("layout within RANGE");
    }

    /// The blocking class halo exchange.
    pub fn halo(&self, widths: &[(usize, usize)]) -> ClassGhosts<f64> {
        let exchanged = self.scope.exchange_class_ghosts(&self.names[0], widths);
        exchanged.expect("contiguous layout").0
    }

    /// Posts the split-phase class halo exchange.
    pub fn halo_post(&self, widths: &[(usize, usize)]) -> HaloInFlight<'_> {
        let posted = self
            .scope
            .exchange_class_ghosts_split(&self.names[0], widths);
        posted.expect("contiguous layout")
    }

    /// The inclusive index box processor `proc` owns of the primary, when
    /// its local set is a rectangle.
    pub fn owned_box(&self, proc: usize) -> Option<[(i64, i64); 2]> {
        let dist = self.scope.array(&self.names[0]).expect("declared").dist();
        let segment = dist.local_segment(ProcId(proc))?;
        if segment.is_empty() {
            return None;
        }
        Some([0, 1].map(|d| (segment.dim(d).lower(), segment.dim(d).upper())))
    }

    /// Column-major offset of `(i, j)` in a member's dense form, `None`
    /// outside the array.
    pub fn offset_of(&self, i: i64, j: i64) -> Option<usize> {
        let domain = self.scope.array(&self.names[0]).expect("declared").domain();
        domain.linearize(&Point::d2(i, j)).ok()
    }

    /// What the scope charged and counted since the last call.
    pub fn take_ledger(&mut self) -> Ledger {
        let after = self.scope.plan_cache().stats();
        let ledger = Ledger::of(&self.scope.take_stats()).with_plans(self.plans_before, after);
        self.plans_before = after;
        ledger
    }
}

/// Completes a split-phase class halo.
pub fn halo_wait(in_flight: HaloInFlight<'_>) -> ClassGhosts<f64> {
    in_flight.wait().expect("no faults are injected").0
}

/// The ghost value processor `proc` holds for member `k` at `(i, j)`.
pub fn ghost_value(
    ghosts: &ClassGhosts<f64>,
    k: usize,
    proc: usize,
    i: i64,
    j: i64,
) -> Option<f64> {
    ghosts[k].1.get(ProcId(proc), &Point::d2(i, j))
}

// ---------------------------------------------------------------------------
// Checkpoint / restart
// ---------------------------------------------------------------------------

/// A checkpoint store plus the tracker, plan cache and executor its
/// restore-into path runs on.
pub struct Checkpoints {
    store: CheckpointStore,
    tracker: CommTracker,
    plans: PlanCache,
    executor: ExecBackend,
    array: DistArray<f64>,
    live: Distribution,
    plans_before: PlanCacheStats,
}

impl Checkpoints {
    /// A store in `dir` for `data` laid out `BLOCK` over `procs`
    /// processors, restoring into the INDIRECT layout `owners`.
    pub fn new(dir: &Path, machine: &Machine, data: &[f64], owners: Vec<usize>) -> Self {
        let procs = machine.num_procs();
        let file = distribution(&layout_block1d(), &[data.len()], procs);
        let live = distribution(&layout_indirect1d(owners), &[data.len()], procs);
        Self {
            store: CheckpointStore::new(dir),
            tracker: machine.tracker(),
            plans: PlanCache::new(),
            executor: ExecBackend::auto(),
            array: DistArray::from_dense("CK", file, data).expect("data matches the domain"),
            live,
            plans_before: PlanCacheStats::default(),
        }
    }

    /// Saves the array; returns the size of the generation file written.
    pub fn save(&self, step: u64) -> u64 {
        let path = self
            .store
            .save(&self.array, step, &self.tracker)
            .expect("writable store");
        std::fs::metadata(path)
            .expect("the file just written")
            .len()
    }

    /// Restores under the file layout.
    pub fn restore(&self) -> Array {
        let restored = self.store.restore::<f64>(&self.tracker);
        Array(restored.expect("a valid generation").array)
    }

    /// Restores into the live INDIRECT layout.
    pub fn restore_into(&self) -> Array {
        let restored = self.store.restore_into::<f64, _>(
            &self.live,
            &self.tracker,
            &self.plans,
            &self.executor,
        );
        Array(restored.expect("a valid generation").array)
    }

    /// Whether `array` is laid out as the live INDIRECT layout.
    pub fn is_live(&self, array: &Array) -> bool {
        array.0.dist().same_mapping(&self.live)
    }

    /// Run maps of the file layout and of the live layout.
    pub fn run_maps(&self) -> (RunMap, RunMap) {
        (RunMap::of(self.array.dist()), RunMap::of(&self.live))
    }

    pub fn take_ledger(&mut self) -> Ledger {
        let after = self.plans.stats();
        let ledger = Ledger::of(&self.tracker.take()).with_plans(self.plans_before, after);
        self.plans_before = after;
        ledger
    }
}

// ---------------------------------------------------------------------------
// Sharded transport, SPMD channels, element codec
// ---------------------------------------------------------------------------

/// Scatters a `BLOCK`-distributed array of `data` into rank-local shards
/// and gathers them back; returns the gathered element count.
pub fn shard_scatter_gather(data: &[f64], procs: usize) -> usize {
    let dist = distribution(&layout_block1d(), &[data.len()], procs);
    let array = DistArray::from_dense("S", dist, data).expect("data matches the domain");
    let (_, shards) = ShardedArray::scatter(&array).gather();
    shards.iter().map(Vec::len).sum()
}

/// `regions` empty two-rank SPMD regions, each ending in a barrier.
pub fn spmd_empty_regions(regions: usize) {
    let tracker = machine(2).tracker();
    for _ in 0..regions {
        spmd::run(2, &tracker, |ctx| ctx.barrier());
    }
}

/// `round_trips` ping-pongs of `payload_bytes` between two ranks inside
/// one SPMD region; returns the seconds rank 0 measured for all of them.
pub fn spmd_pingpong(round_trips: usize, payload_bytes: usize) -> f64 {
    let tracker = machine(2).tracker();
    let seconds = spmd::run(2, &tracker, |ctx| {
        let peer = 1 - ctx.rank();
        ctx.barrier();
        let start = std::time::Instant::now();
        for _ in 0..round_trips {
            if ctx.rank() == 0 {
                ctx.send(peer, 7, vec![0u8; payload_bytes])
                    .expect("live peer");
                ctx.recv(Some(peer), 7).expect("live peer");
            } else {
                let (_, payload) = ctx.recv(Some(peer), 7).expect("live peer");
                ctx.send(peer, 7, payload).expect("live peer");
            }
        }
        start.elapsed().as_secs_f64()
    });
    seconds[0]
}

pub fn encode(values: &[f64]) -> Vec<u8> {
    vf_runtime::encode_slice(values)
}

pub fn decode(bytes: &[u8]) -> Vec<f64> {
    vf_runtime::decode_slice(bytes)
}

// ---------------------------------------------------------------------------
// The program's own phase profile
// ---------------------------------------------------------------------------

/// `(start, end)` nanoseconds of every span the program recorded on the
/// caller's lane since the last reset — the top of the span tree.
pub fn trace_caller_spans() -> Vec<(u64, u64)> {
    let snapshot = trace::snapshot();
    let caller = snapshot
        .events
        .iter()
        .filter(|e| e.lane == 0 && e.dur_ns > 0);
    caller
        .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
        .collect()
}
