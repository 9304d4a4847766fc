//! Unstructured-mesh edge sweep over `INDIRECT` distributions — the
//! irregular workload the paper's dynamic-distribution design exists to
//! serve.
//!
//! The regular applications (ADI, smoothing, PIC) all live on arrays whose
//! best distributions are expressible in closed form (`BLOCK`, `B_BLOCK`).
//! Irregular codes — sweeps over an unstructured mesh — have no such form:
//! a good partition follows the mesh connectivity, and the resulting
//! owner-per-node *mapping array* is computed by a partitioner at run
//! time.  Vienna Fortran expresses this as `DISTRIBUTE A :: INDIRECT(map)`
//! and resolves ownership through the PARTI distributed translation table.
//!
//! This module provides:
//!
//! * [`Mesh`] — a CSR unstructured mesh whose node ids are *shuffled*, so
//!   naive `BLOCK`-by-id partitioning scatters neighbours across
//!   processors (the situation real meshes are in after generation);
//! * [`partition_coordinate`] / [`partition_greedy`] — two simple
//!   partitioners *producing* mapping arrays: a coordinate sort and a
//!   greedy graph-growing BFS;
//! * [`run_sweep`] — a Jacobi-style edge sweep at the language level
//!   (`VfScope`): cut-edge values arrive through the PARTI **incremental
//!   schedule** — each processor's irregular ghost region, derived once
//!   from the mesh connectivity and replayed from the plan cache every
//!   step — a `DCASE` dispatch on the current distribution class, and an
//!   optional mid-run repartitioning `DISTRIBUTE :: INDIRECT(map')` whose
//!   connect class (values + fluxes) moves as one fused schedule and whose
//!   stale halo schedule is invalidated by construction (the new map's
//!   fingerprint keys a fresh plan and a fresh translation table; the old
//!   ones age out of the machine's plan store);
//! * [`sequential_reference`] — the same sweep over plain vectors, the
//!   oracle every distributed run equals bit for bit.
//!
//! The sweep computes in the inspector's local index space, never by
//! global point: the cached plan carries each processor's rows of the
//! connectivity localised against its buffer and ghost suffix
//! ([`LocalisedConnectivity`]), split into interior rows (every neighbour
//! owned) and boundary rows.  Each step is split-phase:
//!
//! 1. post the halo of `VAL` — packed and posted on the caller, unpacked
//!    by the pool in the background;
//! 2. sweep the interior rows from the local buffers alone, on the caller
//!    ([`SerialExecutor`]: the pool's turn belongs to the halo until the
//!    wait);
//! 3. wait, then sweep the boundary rows over `[local | ghosts]`
//!    (`GhostRegion::extended`) on the scope's executor;
//! 4. swap the second buffer both passes wrote with `VAL`.
//!
//! Every node's neighbour terms are summed in CSR order, so the final
//! values are independent of the partition bit-for-bit and equal
//! [`sequential_reference`]; only the communication differs.

use std::sync::{Arc, Mutex};
use vf_core::prelude::*;
use vf_runtime::ghost::exchange_class_ghosts_split;
use vf_runtime::trace;
use vf_runtime::LocalisedConnectivity;

/// A CSR unstructured mesh with 2-D node coordinates.
#[derive(Debug, Clone)]
pub struct Mesh {
    /// CSR row pointers, length `num_nodes() + 1`.
    pub xadj: Vec<usize>,
    /// CSR adjacency (0-based node ids); every undirected edge appears
    /// twice.
    pub adjncy: Vec<usize>,
    /// Node coordinates (used by the coordinate partitioner).
    pub coords: Vec<(f64, f64)>,
}

impl Mesh {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// The mesh's CSR adjacency as a runtime [`Connectivity`] over global
    /// offsets — what the incremental-schedule halo planner consumes.
    pub fn connectivity(&self) -> Connectivity {
        Connectivity::from_csr(self.xadj.clone(), self.adjncy.clone())
            .expect("a Mesh is a valid CSR")
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// The neighbours of node `u`.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adjncy[self.xadj[u]..self.xadj[u + 1]]
    }
}

/// A deterministic pseudo-random linear-congruential step.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Builds an `nx × ny` grid mesh (4-neighbourhood plus a deterministic
/// sprinkle of diagonal edges), with jittered coordinates and — crucially —
/// a pseudo-random *permutation of node ids*: consecutive ids are not
/// neighbours, so distributing the node arrays `BLOCK` by id cuts most
/// edges, while a geometry- or connectivity-aware mapping array recovers
/// locality.
pub fn unstructured_mesh(nx: usize, ny: usize, seed: u64) -> Mesh {
    let n = nx * ny;
    assert!(n > 0, "mesh needs at least one node");
    let mut state = seed ^ 0x9e3779b97f4a7c15;
    // Random permutation: grid cell (i, j) becomes node id perm[i + j*nx].
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (lcg(&mut state) as usize) % (i + 1);
        perm.swap(i, j);
    }
    let mut coords = vec![(0.0, 0.0); n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let connect = |adj: &mut Vec<Vec<usize>>, a: usize, b: usize| {
        if !adj[a].contains(&b) {
            adj[a].push(b);
            adj[b].push(a);
        }
    };
    for j in 0..ny {
        for i in 0..nx {
            let u = perm[i + j * nx];
            let jitter_x = (lcg(&mut state) % 1000) as f64 / 5000.0;
            let jitter_y = (lcg(&mut state) % 1000) as f64 / 5000.0;
            coords[u] = (i as f64 + jitter_x, j as f64 + jitter_y);
            if i + 1 < nx {
                connect(&mut adj, u, perm[i + 1 + j * nx]);
            }
            if j + 1 < ny {
                connect(&mut adj, u, perm[i + (j + 1) * nx]);
            }
            // Occasional diagonal, making the connectivity genuinely
            // irregular.
            if i + 1 < nx && j + 1 < ny && lcg(&mut state).is_multiple_of(4) {
                connect(&mut adj, u, perm[i + 1 + (j + 1) * nx]);
            }
        }
    }
    let mut xadj = Vec::with_capacity(n + 1);
    let mut adjncy = Vec::new();
    xadj.push(0);
    for list in &adj {
        adjncy.extend_from_slice(list);
        xadj.push(adjncy.len());
    }
    Mesh {
        xadj,
        adjncy,
        coords,
    }
}

/// A coordinate (geometric) partitioner: nodes sorted by `(x, y)` are cut
/// into `nprocs` contiguous chunks of (nearly) equal size.  Returns the
/// owner-per-node mapping array.
pub fn partition_coordinate(mesh: &Mesh, nprocs: usize) -> Vec<usize> {
    let n = mesh.num_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (ax, ay) = mesh.coords[a];
        let (bx, by) = mesh.coords[b];
        (ax, ay, a)
            .partial_cmp(&(bx, by, b))
            .expect("mesh coordinates are finite")
    });
    let mut owners = vec![0usize; n];
    let chunk = n.div_ceil(nprocs.max(1));
    for (rank, &u) in order.iter().enumerate() {
        owners[u] = (rank / chunk).min(nprocs - 1);
    }
    owners
}

/// A greedy graph-growing partitioner: regions grow one processor at a
/// time by BFS over the connectivity until each holds an equal share —
/// the simplest of the partitioner family (RSB, greedy, …) the paper's
/// `INDIRECT` interface is designed to plug in.
pub fn partition_greedy(mesh: &Mesh, nprocs: usize) -> Vec<usize> {
    let n = mesh.num_nodes();
    let target = n.div_ceil(nprocs.max(1));
    let mut owners = vec![usize::MAX; n];
    let mut assigned = 0usize;
    // Deterministic sweep order for fresh BFS seeds: coordinate order.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by(|&a, &b| {
        (mesh.coords[a], a)
            .partial_cmp(&(mesh.coords[b], b))
            .expect("mesh coordinates are finite")
    });
    let mut seed_cursor = 0usize;
    for p in 0..nprocs {
        let quota = if p + 1 == nprocs {
            n - assigned
        } else {
            target.min(n - assigned)
        };
        let mut queue = std::collections::VecDeque::new();
        let mut taken = 0usize;
        while taken < quota {
            if queue.is_empty() {
                // Next unassigned seed (new component or exhausted front).
                while seed_cursor < n && owners[seeds[seed_cursor]] != usize::MAX {
                    seed_cursor += 1;
                }
                if seed_cursor >= n {
                    break;
                }
                queue.push_back(seeds[seed_cursor]);
            }
            let Some(u) = queue.pop_front() else { break };
            if owners[u] != usize::MAX {
                continue;
            }
            owners[u] = p;
            taken += 1;
            for &v in mesh.neighbors(u) {
                if owners[v] == usize::MAX {
                    queue.push_back(v);
                }
            }
        }
        assigned += taken;
    }
    debug_assert!(owners.iter().all(|&o| o < nprocs));
    owners
}

/// Number of mesh edges whose endpoints live on different processors under
/// the given owner map — the communication volume proxy every partitioner
/// minimises.
pub fn edge_cut(mesh: &Mesh, owners: &[usize]) -> usize {
    let mut cut = 0usize;
    for u in 0..mesh.num_nodes() {
        for &v in mesh.neighbors(u) {
            if u < v && owners[u] != owners[v] {
                cut += 1;
            }
        }
    }
    cut
}

/// How the node arrays are distributed for a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshPartition {
    /// `BLOCK` by (shuffled) node id — the regular baseline.
    Block,
    /// `INDIRECT` through the coordinate partitioner's mapping array.
    Coordinate,
    /// `INDIRECT` through the greedy graph-growing mapping array.
    Greedy,
}

/// Configuration of a mesh sweep run.
#[derive(Debug, Clone)]
pub struct MeshSweepConfig {
    /// Number of Jacobi sweeps.
    pub steps: usize,
    /// Initial partition of the node arrays.
    pub partition: MeshPartition,
    /// When set, re-partition with [`partition_greedy`] *before* this step
    /// and redistribute the whole connect class with one fused
    /// `DISTRIBUTE :: INDIRECT(map')` — the dynamic repartitioning the
    /// paper's `DYNAMIC`/`DISTRIBUTE` design exists for.
    pub repartition_at: Option<usize>,
}

/// What a sweep run did.
#[derive(Debug, Clone)]
pub struct MeshSweepResult {
    /// Accumulated machine statistics.
    pub stats: CommStats,
    /// Final node values, dense by node id (bitwise partition-independent).
    pub values: Vec<f64>,
    /// Halo elements fetched over cut edges (incremental schedule), summed
    /// over steps.
    pub gathered_elements: usize,
    /// Aggregated halo-exchange messages, summed over steps.
    pub gather_messages: usize,
    /// Edge cut of the initial partition.
    pub edge_cut_initial: usize,
    /// Edge cut of the final partition (differs only after repartitioning).
    pub edge_cut_final: usize,
    /// The `DISTRIBUTE` report of the repartitioning, when one ran.
    pub repartition: Option<DistributeReport>,
    /// `DCASE` arm label selected for the sweep ("parti" for indirect
    /// distributions, "regular" for block).
    pub dcase_arm: &'static str,
    /// Translation-table lookup counters of this run's own planning
    /// against indirect distributions — `plan_cache.translation`.  Zero
    /// for the block baseline, and for a repeated run whose plans the
    /// machine's store already holds.
    pub directory: TranslationStats,
    /// This run's activity in the machine's plan store
    /// ([`PlanCacheStats::since`] the run began: schedule reuse across
    /// steps and across runs), with the store's footprint at the end.
    /// Runs sharing one machine at the same time share these counters.
    pub plan_cache: PlanCacheStats,
}

const DAMP: f64 = 0.5;
const FLOPS_PER_EDGE: usize = 2;

/// The initial value of node `u`.
fn initial_value(u: usize) -> f64 {
    (u as f64 * 0.37).sin()
}

/// The initial flux of node `u`.
fn initial_flux(u: usize) -> f64 {
    (u as f64 * 0.11).cos()
}

/// The owner of every node under `dist`, from its local-to-global runs.
fn owners_of(dist: &Distribution) -> Vec<usize> {
    let mut owners = vec![0; dist.domain().size()];
    for &p in dist.proc_ids() {
        for run in dist.local_linear_runs(p) {
            owners[run.global_start..run.global_start + run.len].fill(p.0);
        }
    }
    owners
}

fn dist_type_for(mesh: &Mesh, partition: MeshPartition, nprocs: usize) -> DistType {
    match partition {
        MeshPartition::Block => DistType::block1d(),
        MeshPartition::Coordinate => DistType::indirect1d(Arc::new(
            IndirectMap::new(partition_coordinate(mesh, nprocs)).expect("mesh is non-empty"),
        )),
        MeshPartition::Greedy => DistType::indirect1d(Arc::new(
            IndirectMap::new(partition_greedy(mesh, nprocs)).expect("mesh is non-empty"),
        )),
    }
}

/// The sweep on one processor over plain vectors: `steps` Jacobi updates
/// from the initial values, each node's neighbour terms summed in CSR
/// order — what every distributed [`run_sweep`] equals bit for bit.
pub fn sequential_reference(mesh: &Mesh, steps: usize) -> Vec<f64> {
    let mut val: Vec<f64> = (0..mesh.num_nodes()).map(initial_value).collect();
    let mut next = val.clone();
    for _ in 0..steps {
        for (u, new) in next.iter_mut().enumerate() {
            let nbrs = mesh.neighbors(u);
            *new = if nbrs.is_empty() {
                val[u]
            } else {
                let acc = nbrs.iter().fold(0.0, |acc, &v| acc + val[v]);
                (1.0 - DAMP) * val[u] + DAMP * acc / nbrs.len() as f64
            };
        }
        std::mem::swap(&mut val, &mut next);
    }
    val
}

/// The Jacobi update of `rows` of one processor's localised connectivity:
/// reads `src` (its buffer, followed by the ghost suffix when a row reads
/// a ghost), writes `dst`, and returns the FLOPs.
fn relax_rows(csr: &LocalisedConnectivity, rows: &[u32], src: &[f64], dst: &mut [f64]) -> usize {
    let mut edges = 0;
    for &row in rows {
        let row = row as usize;
        let nbrs = &csr.adjncy[csr.xadj[row] as usize..csr.xadj[row + 1] as usize];
        dst[row] = if nbrs.is_empty() {
            src[row]
        } else {
            let mut acc = 0.0;
            for &v in nbrs {
                acc += src[v as usize];
            }
            (1.0 - DAMP) * src[row] + DAMP * acc / nbrs.len() as f64
        };
        edges += nbrs.len();
    }
    edges * FLOPS_PER_EDGE
}

/// Runs the edge sweep on `machine` and returns statistics plus the final
/// values.
pub fn run_sweep(mesh: &Mesh, config: &MeshSweepConfig, machine: &Machine) -> MeshSweepResult {
    run_sweep_inner(mesh, config, machine, None, 0).0
}

/// The sweep engine behind [`run_sweep`]: optionally seeds `VAL` from
/// `initial` (dense by node id) instead of the analytic formula and starts
/// the step loop at `start_step` — running steps `start_step..config.steps`
/// with `repartition_at` still interpreted as an absolute step index.  Also
/// returns the final distribution of `VAL`, which the checkpoint/restart
/// driver saves under.
fn run_sweep_inner(
    mesh: &Mesh,
    config: &MeshSweepConfig,
    machine: &Machine,
    initial: Option<&[f64]>,
    start_step: usize,
) -> (MeshSweepResult, Distribution) {
    let n = mesh.num_nodes();
    let nprocs = machine.num_procs();
    let mut scope: VfScope<f64> = VfScope::new(machine.clone());
    let plans_before = scope.plan_cache().stats();

    // DYNAMIC VAL(N) RANGE((BLOCK), (INDIRECT(*))), connected FLUX(N).
    scope
        .declare_dynamic(
            DynamicDecl::new("VAL", IndexDomain::d1(n))
                .range([
                    DistPattern::dims(vec![DimPattern::Block]),
                    DistPattern::dims(vec![DimPattern::IndirectAny]),
                ])
                .initial(dist_type_for(mesh, config.partition, nprocs)),
        )
        .expect("declaration is valid");
    scope
        .declare_secondary(SecondaryDecl::extraction("FLUX", IndexDomain::d1(n), "VAL"))
        .expect("VAL is a dynamic primary");
    let values = match initial {
        Some(values) => values.to_vec(),
        None => (0..n).map(initial_value).collect(),
    };
    let fluxes: Vec<f64> = (0..n).map(initial_flux).collect();
    for (name, dense) in [("VAL", &values), ("FLUX", &fluxes)] {
        let array = scope.array_mut(name).expect("distributed");
        *array = DistArray::from_dense(name, array.dist().clone(), dense).expect("one per node");
    }

    // DCASE dispatch: the sweep strategy follows the *current* distribution
    // class (paper §2.5) — the PARTI inspector/executor arm for INDIRECT,
    // the regular arm for BLOCK.
    let dcase = Dcase::new(["VAL"])
        .when_positional([DistPattern::dims(vec![DimPattern::IndirectAny])])
        .labelled("parti")
        .when_positional([DistPattern::dims(vec![DimPattern::Block])])
        .labelled("regular")
        .default_case()
        .labelled("other");
    let arm = dcase
        .select(&scope)
        .expect("VAL is distributed")
        .expect("a clause matches");
    let dcase_arm: &'static str = ["parti", "regular", "other"][arm];

    let edge_cut_initial = edge_cut(
        mesh,
        &owners_of(scope.array("VAL").expect("distributed").dist()),
    );
    let mut repartition: Option<DistributeReport> = None;
    let mut gathered_elements = 0usize;
    let mut gather_messages = 0usize;
    // The second buffer both passes of a step write, laid out as VAL.
    let mut next = scope.array("VAL").expect("distributed").clone();
    let scratch: Vec<Mutex<Vec<f64>>> = (0..nprocs).map(|_| Mutex::default()).collect();

    let conn = mesh.connectivity();
    for step in start_step..config.steps {
        let _step_span = trace::OpenSpan::begin_with(trace::Phase::Step, || format!("step {step}"));
        if config.repartition_at == Some(step) {
            // The partitioner *produces* the new mapping array; the
            // executable DISTRIBUTE moves the whole connect class (VAL and
            // FLUX) as one fused schedule.
            let map = Arc::new(
                IndirectMap::new(partition_greedy(mesh, nprocs)).expect("mesh is non-empty"),
            );
            let report = scope
                .distribute(DistributeStmt::new("VAL", DistType::indirect1d(map)))
                .expect("INDIRECT is within the declared RANGE");
            // The old partition's halo schedule and translation table are
            // stale by construction (the new map's fingerprint keys fresh
            // entries) and age out of the machine's plan store like any
            // unused entry.
            next = scope.array("VAL").expect("distributed").clone();
            repartition = Some(report);
        }

        let val = scope.array("VAL").expect("distributed");
        // Inspector: the incremental schedule derives each processor's
        // halo — every neighbour of an owned node that lives elsewhere —
        // and localises its rows, directly from the mesh connectivity,
        // resolved through the distributed translation table for INDIRECT
        // maps.  The plan is keyed by (map fingerprint, connectivity
        // fingerprint): sweeps over an unchanged partition replay it from
        // the cache, and a repartitioning replans by construction.
        let schedule = scope
            .plan_cache()
            .ghost_irregular_plan(val.dist(), &conn)
            .expect("mesh connectivity matches the domain");
        gathered_elements += schedule.moved_elements();
        gather_messages += schedule.num_messages();
        let localised = |p: ProcId| {
            schedule
                .localised(p)
                .expect("an irregular plan localises every processor")
        };
        // Executor, split-phase (see the module docs): the interior rows
        // in the halo's shadow, the boundary rows after the wait.
        let split = exchange_class_ghosts_split(
            &[val],
            FusedPlan::fuse(vec![Arc::clone(&schedule)]).expect("a ghost plan"),
            scope.tracker(),
            scope.executor(),
        )
        .expect("schedule matches the distribution");
        forall_owned(
            &mut [&mut next],
            scope.tracker(),
            &SerialExecutor,
            |p, dst| {
                let csr = localised(p);
                relax_rows(csr, &csr.interior, val.local(p), &mut dst[0])
            },
        )
        .expect("VAL has local views");
        let (regions, _halo_report) = split
            .wait()
            .expect("split-phase halo exchange survives injected faults");
        forall_owned(
            &mut [&mut next],
            scope.tracker(),
            scope.executor(),
            |p, dst| {
                let csr = localised(p);
                let mut scratch = scratch[p.0].lock().expect("scratch buffer");
                let src = regions[0]
                    .extended(p, val.local(p), &mut scratch)
                    .expect("the halo was exchanged for VAL");
                relax_rows(csr, &csr.boundary, &src, &mut dst[0])
            },
        )
        .expect("VAL has local views");
        std::mem::swap(scope.array_mut("VAL").expect("distributed"), &mut next);
    }

    let final_dist = scope.array("VAL").expect("distributed").dist().clone();
    let plan_cache = scope.plan_cache().stats().since(plans_before);
    let result = MeshSweepResult {
        stats: scope.stats(),
        values: scope.array("VAL").expect("distributed").to_dense(),
        gathered_elements,
        gather_messages,
        edge_cut_initial,
        edge_cut_final: edge_cut(mesh, &owners_of(&final_dist)),
        repartition,
        dcase_arm,
        directory: plan_cache.translation,
        plan_cache,
    };
    (result, final_dist)
}

/// Runs the sweep to `checkpoint_at`, checkpoints `VAL` under its
/// *current* distribution (post-repartition when `config.repartition_at`
/// fell inside the first phase), restores the checkpoint into
/// `resume_partition` through redistribute-on-read, and finishes steps
/// `checkpoint_at..config.steps` under the new partition — the
/// driver-level checkpoint/repartition/restart the paper's dynamic
/// `DISTRIBUTE` makes natural.  The final values are bitwise identical to
/// an uninterrupted [`run_sweep`] because the sweep order is fixed by the
/// CSR layout and the restore preserves every element bit-for-bit.
///
/// The returned result describes the *second* phase (its stats, edge cuts
/// and cache counters cover steps `checkpoint_at..`); the values are the
/// full run's.
///
/// # Errors
/// Checkpoint validation failures ([`vf_runtime::RuntimeError`]) from the
/// save/restore path.
pub fn run_sweep_with_restart(
    mesh: &Mesh,
    config: &MeshSweepConfig,
    machine: &Machine,
    checkpoint_at: usize,
    resume_partition: MeshPartition,
    store: &vf_runtime::CheckpointStore,
) -> vf_runtime::Result<MeshSweepResult> {
    assert!(
        checkpoint_at <= config.steps,
        "checkpoint step exceeds the sweep length"
    );
    let n = mesh.num_nodes();
    let nprocs = machine.num_procs();
    let phase1 = MeshSweepConfig {
        steps: checkpoint_at,
        partition: config.partition,
        repartition_at: config.repartition_at.filter(|&r| r < checkpoint_at),
    };
    let (first, dist_at_ckpt) = run_sweep_inner(mesh, &phase1, machine, None, 0);
    let tracker = machine.tracker();
    let val = DistArray::from_dense("VAL", dist_at_ckpt, &first.values)?;
    store.save(&val, checkpoint_at as u64, &tracker)?;

    // Redistribute-on-read: the file distribution (whatever phase 1 ended
    // under, INDIRECT included) is re-mapped onto the resume partition by
    // an ordinary cached communication plan.
    let live = Distribution::new(
        dist_type_for(mesh, resume_partition, nprocs),
        IndexDomain::d1(n),
        ProcessorView::linear(nprocs),
    )?;
    let plans = PlanCache::of(machine);
    let restored = store.restore_into::<f64, _>(&live, &tracker, plans, &SerialExecutor)?;
    let resumed = restored.array.to_dense();

    let phase2 = MeshSweepConfig {
        steps: config.steps,
        partition: resume_partition,
        repartition_at: config.repartition_at.filter(|&r| r >= checkpoint_at),
    };
    let (second, _) = run_sweep_inner(
        mesh,
        &phase2,
        machine,
        Some(&resumed),
        restored.step as usize,
    );
    Ok(second)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        unstructured_mesh(12, 8, 42)
    }

    fn machine(p: usize) -> Machine {
        Machine::new(p, CostModel::from_alpha_beta(1.0, 0.01))
    }

    #[test]
    fn mesh_is_deterministic_and_connected_enough() {
        let a = mesh();
        let b = mesh();
        assert_eq!(a.xadj, b.xadj);
        assert_eq!(a.adjncy, b.adjncy);
        assert_eq!(a.num_nodes(), 96);
        assert!(a.num_edges() >= 12 * 7 + 11 * 8);
        // CSR symmetry: every edge appears in both directions.
        for u in 0..a.num_nodes() {
            for &v in a.neighbors(u) {
                assert!(a.neighbors(v).contains(&u), "{u} -> {v} not symmetric");
            }
        }
        assert_ne!(unstructured_mesh(12, 8, 7).adjncy, a.adjncy);
    }

    #[test]
    fn partitioners_balance_and_beat_block_by_id() {
        let m = mesh();
        let p = 4;
        for owners in [partition_coordinate(&m, p), partition_greedy(&m, p)] {
            assert_eq!(owners.len(), m.num_nodes());
            assert!(owners.iter().all(|&o| o < p));
            let mut counts = vec![0usize; p];
            for &o in &owners {
                counts[o] += 1;
            }
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(max - min <= m.num_nodes() / p, "imbalanced: {counts:?}");
        }
        // Shuffled node ids make BLOCK-by-id a near-random partition; both
        // mesh-aware partitioners must cut far fewer edges.
        let block: Vec<usize> = (0..m.num_nodes()).map(|u| u * p / m.num_nodes()).collect();
        let cut_block = edge_cut(&m, &block);
        let cut_coord = edge_cut(&m, &partition_coordinate(&m, p));
        let cut_greedy = edge_cut(&m, &partition_greedy(&m, p));
        assert!(
            cut_coord * 2 < cut_block,
            "coordinate {cut_coord} vs block {cut_block}"
        );
        assert!(
            cut_greedy * 2 < cut_block,
            "greedy {cut_greedy} vs block {cut_block}"
        );
    }

    #[test]
    fn sweep_values_are_partition_independent() {
        let m = mesh();
        let steps = 3;
        let run = |partition, repartition_at| {
            run_sweep(
                &m,
                &MeshSweepConfig {
                    steps,
                    partition,
                    repartition_at,
                },
                &machine(4),
            )
        };
        let block = run(MeshPartition::Block, None);
        let coord = run(MeshPartition::Coordinate, None);
        let greedy = run(MeshPartition::Greedy, None);
        let remapped = run(MeshPartition::Coordinate, Some(2));
        assert_eq!(block.values, coord.values, "block vs coordinate");
        assert_eq!(block.values, greedy.values, "block vs greedy");
        assert_eq!(block.values, remapped.values, "block vs remapped");
        assert_eq!(block.values, sequential_reference(&m, steps), "reference");
        // DCASE selected the right arm for each class.
        assert_eq!(block.dcase_arm, "regular");
        assert_eq!(coord.dcase_arm, "parti");
        // The mesh-aware partition fetches fewer elements over cut edges
        // and the indirect planning walked the translation table.
        assert!(coord.gathered_elements < block.gathered_elements);
        assert!(greedy.gathered_elements < block.gathered_elements);
        assert!(coord.directory.page_fetches + coord.directory.home_hits > 0);
        assert_eq!(block.directory, TranslationStats::default());
    }

    #[test]
    fn repartitioning_moves_the_class_as_one_fused_distribute() {
        let m = mesh();
        let result = run_sweep(
            &m,
            &MeshSweepConfig {
                steps: 4,
                partition: MeshPartition::Block,
                repartition_at: Some(2),
            },
            &machine(4),
        );
        let report = result.repartition.expect("repartitioning ran");
        // VAL and FLUX moved together: fused to one message per pair.
        assert!(report.fused.is_some());
        assert!(report.messages() < report.unfused_messages());
        assert_eq!(report.per_array.len(), 2);
        // The greedy remap leaves a better partition than shuffled BLOCK.
        assert!(result.edge_cut_final * 2 < result.edge_cut_initial);
        // After the remap the gather schedule was replanned (different
        // fingerprint), before it the cached schedule was reused.
        assert!(result.plan_cache.hits > 0);
    }

    #[test]
    fn checkpoint_restart_with_repartition_is_bitwise_transparent() {
        let m = mesh();
        let dir = std::env::temp_dir().join(format!("vf_mesh_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = vf_runtime::CheckpointStore::new(dir);
        // Phase 1 starts Coordinate-INDIRECT and repartitions to Greedy at
        // step 1; the checkpoint at step 3 is therefore written under the
        // *greedy* INDIRECT distribution; the restore redistributes it
        // INDIRECT → BLOCK for phase 2.
        let config = MeshSweepConfig {
            steps: 5,
            partition: MeshPartition::Coordinate,
            repartition_at: Some(1),
        };
        let uninterrupted = run_sweep(&m, &config, &machine(4));
        let restarted =
            run_sweep_with_restart(&m, &config, &machine(4), 3, MeshPartition::Block, &store)
                .expect("checkpoint/restart round-trips");
        assert_eq!(
            restarted.values, uninterrupted.values,
            "restarted sweep diverges from the uninterrupted run"
        );
        assert_eq!(store.latest_step(), Some(3));
        // Phase 2 ran the regular DCASE arm under the BLOCK resume
        // partition.
        assert_eq!(restarted.dcase_arm, "regular");
    }

    #[test]
    fn cached_schedules_are_reused_across_steps() {
        let m = mesh();
        let result = run_sweep(
            &m,
            &MeshSweepConfig {
                steps: 4,
                partition: MeshPartition::Greedy,
                repartition_at: None,
            },
            &machine(4),
        );
        // One gather plan, three cache hits; directory pages were fetched
        // once (cold) and never again.
        assert_eq!(result.plan_cache.misses, 1);
        assert_eq!(result.plan_cache.hits, 3);
        let first_fetches = result.directory.page_fetches;
        assert!(first_fetches > 0);
        assert!(result.directory.cache_hits > 0);
    }
}
