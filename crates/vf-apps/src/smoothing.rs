//! The grid-smoothing example of §4: choosing a distribution from runtime
//! values.
//!
//! "In a grid based computation, such as smoothing, the value at a grid
//! point is based on its 4 nearest neighbors.  A column distribution of the
//! N × N grid will give rise to 2 messages per processor, each of size N,
//! per computation step.  On the other hand, if the grid is distributed by
//! blocks in two dimensions across a p² processor array, then each
//! computation step requires 4 messages of size N/p each on each processor.
//! Thus, given the startup overhead and cost per byte of each message of
//! the target machine, the ratio N/p will determine the most appropriate
//! distribution."  (paper §4)
//!
//! This module implements the smoothing step under both layouts, the
//! analytic per-step cost model quoted above, and the runtime chooser that
//! a Vienna Fortran program would express with `DISTRIBUTE` inside an `IF`.
//!
//! One driver runs the steps: [`try_run`], on any executor, with optional
//! checkpoints; [`run`] is `try_run` on [`ExecBackend::auto`] without them.
//! Each step is one blocking halo statement and one kernel pass per
//! processor, which reads the owned segment and the exchanged frame where
//! they lie ([`vf_runtime::ghost::FrameView`]): no step copies a segment.
//! Fusing several fields' halos into one message per pair and
//! computing the interior while a split halo is in flight are runtime
//! verbs, exercised by the mesh sweep, PIC and the statement benchmarks.

use vf_dist::{DistType, Distribution, ProcessorView};
use vf_index::IndexDomain;
use vf_machine::{trace, CommStats, CommTracker, CostModel, Machine};
use vf_runtime::ghost::{exchange_ghosts, FrameView, OverlapView};
use vf_runtime::{
    forall_owned, CheckpointStore, DistArray, ExecBackend, LocalViewMut, PlanCache, PlanExecutor,
    Result, RuntimeError, SerialExecutor,
};

/// The two candidate layouts of the N×N grid discussed in §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmoothingLayout {
    /// `( : , BLOCK)`: whole columns per processor — 2 neighbour messages of
    /// N elements per processor and step.
    Columns,
    /// `(BLOCK, BLOCK)` on a (roughly) square processor grid — 4 neighbour
    /// messages of about N/√p elements per processor and step.
    Blocks2D,
}

impl SmoothingLayout {
    /// The Vienna Fortran distribution type of the layout.
    pub fn dist_type(self) -> DistType {
        match self {
            SmoothingLayout::Columns => DistType::columns(),
            SmoothingLayout::Blocks2D => DistType::blocks2d(),
        }
    }
}

/// Configuration of a smoothing run.
#[derive(Debug, Clone)]
pub struct SmoothingConfig {
    /// Grid size N (the grid is N×N).
    pub n: usize,
    /// Number of relaxation steps.
    pub steps: usize,
    /// Grid layout.
    pub layout: SmoothingLayout,
}

/// Result of a smoothing run.
#[derive(Debug, Clone)]
pub struct SmoothingResult {
    /// Communication/computation statistics of the whole run.
    pub stats: CommStats,
    /// Messages exchanged in one step (from the first step).
    pub messages_per_step: usize,
    /// Bytes exchanged in one step (from the first step).
    pub bytes_per_step: usize,
    /// Sum of the final field (for cross-checking against the sequential
    /// reference).
    pub checksum: f64,
    /// The final field in dense column-major order.
    pub field: Vec<f64>,
}

/// Flops charged per updated grid point (4 adds + 1 multiply).
const FLOPS_PER_POINT: usize = 5;

/// One Jacobi relaxation step on a dense column-major grid — the sequential
/// reference the distributed runs are validated against.
pub fn sequential_step(n: usize, field: &[f64]) -> Vec<f64> {
    let idx = |i: usize, j: usize| i + j * n;
    let mut out = field.to_vec();
    for j in 1..n - 1 {
        for i in 1..n - 1 {
            out[idx(i, j)] = 0.25
                * (field[idx(i - 1, j)]
                    + field[idx(i + 1, j)]
                    + field[idx(i, j - 1)]
                    + field[idx(i, j + 1)]);
        }
    }
    out
}

/// Runs `steps` sequential reference steps.
pub fn sequential_reference(n: usize, steps: usize, initial: &[f64]) -> Vec<f64> {
    let mut field = initial.to_vec();
    for _ in 0..steps {
        field = sequential_step(n, &field);
    }
    field
}

/// The analytic per-step communication time of one processor under the
/// paper's message-count argument.
pub fn predicted_step_time(layout: SmoothingLayout, n: usize, p: usize, cost: &CostModel) -> f64 {
    let elem = 8.0; // f64
    match layout {
        SmoothingLayout::Columns => 2.0 * (cost.alpha + cost.beta * elem * n as f64),
        SmoothingLayout::Blocks2D => {
            let side = (p as f64).sqrt().max(1.0);
            4.0 * (cost.alpha + cost.beta * elem * (n as f64 / side))
        }
    }
}

/// The runtime distribution chooser of §4: picks the layout with the lower
/// predicted per-step communication time given N, the number of processors
/// (`$NP`) and the machine's α/β parameters.
pub fn choose_layout(n: usize, p: usize, cost: &CostModel) -> SmoothingLayout {
    if predicted_step_time(SmoothingLayout::Columns, n, p, cost)
        <= predicted_step_time(SmoothingLayout::Blocks2D, n, p, cost)
    {
        SmoothingLayout::Columns
    } else {
        SmoothingLayout::Blocks2D
    }
}

/// Builds the distribution of the grid for a layout on `machine`.
pub fn grid_distribution(layout: SmoothingLayout, n: usize, machine: &Machine) -> Distribution {
    let procs = ProcessorView::linear(machine.num_procs());
    Distribution::new(layout.dist_type(), IndexDomain::d2(n, n), procs)
        .expect("square grid distributions are always valid")
}

/// The stencil's overlap widths: one element on every side.
const WIDTHS: [(usize, usize); 2] = [(1, 1), (1, 1)];

/// An inclusive box of grid points `[(i_lo, i_hi), (j_lo, j_hi)]`; empty
/// when either pair is reversed.
type Box2 = [(i64, i64); 2];

fn box_points(b: Box2) -> usize {
    b.iter()
        .map(|&(lo, hi)| (hi - lo + 1).max(0) as usize)
        .product()
}

/// The points of `segment` a step updates: all but the global boundary,
/// which is copied through (both buffers of a run hold it from the start,
/// so the kernel never touches it).
fn updated(segment: &IndexDomain, domain: &IndexDomain) -> Box2 {
    [0, 1].map(|d| {
        let (seg, dom) = (segment.dim(d), domain.dim(d));
        (
            seg.lower().max(dom.lower() + 1),
            seg.upper().min(dom.upper() - 1),
        )
    })
}

/// The one smoothing kernel: relaxes the points of `update` — inside the
/// owned segment of `dst` — reading the segment and its exchanged frame in
/// place through `src`, which must extend that segment by one on every
/// side `update` reaches.
///
/// Each column `j` reads three consecutive dimension-0 lines of the
/// extended box: its own and its west and east neighbours', each as
/// `(lo, mid, hi)` with `mid` the owned rows.  Rows strictly inside the segment read all four
/// neighbours from the `mid`s; the first and last owned rows take their
/// north and south neighbours from `lo` and `hi` (both, on a segment one
/// row thick).  Per point the sum is `((i-1) + (i+1)) + (j-1) + (j+1)`,
/// then `× 0.25`: the floating-point operation order of
/// [`sequential_step`], which bitwise equality with it depends on.
fn relax_lines(src: &FrameView<'_, f64>, dst: &mut LocalViewMut<'_, f64>, update: Box2) {
    if box_points(update) == 0 {
        return;
    }
    let [(i_lo, i_hi), (j_lo, j_hi)] = update;
    let (owned, dst_j) = (dst.segment().dim(0), dst.segment().dim(1).lower());
    let rows = owned.len();
    // Updated rows as offsets into a line's owned rows, and the ones
    // whose north and south neighbours are both owned.
    let (first, last) = (
        (i_lo - owned.lower()) as usize,
        (i_hi - owned.lower()) as usize,
    );
    let (inner_lo, inner_hi) = (first.max(1), (last + 1).min(rows - 1));
    // The extended box's lines from column `j_lo - 1` on, each read as the
    // east, then the middle, then the west one.
    let before = (j_lo - 1 - src.extended.dim(1).lower()) as usize;
    let mut lines = src.lines().skip(before);
    let (Some(mut west_line), Some(mut here_line)) = (lines.next(), lines.next()) else {
        unreachable!("the extended box holds the columns beside every updated one");
    };
    for (j, east_line) in (j_lo..=j_hi).zip(lines) {
        let ((_, west, _), (lo, here, hi), (_, east, _)) = (west_line, here_line, east_line);
        (west_line, here_line) = (here_line, east_line);
        let out = &mut dst[(j - dst_j) as usize * rows..][..rows];
        let relax = |r: usize| {
            let north = if r == 0 {
                lo[lo.len() - 1]
            } else {
                here[r - 1]
            };
            let south = if r + 1 == rows { hi[0] } else { here[r + 1] };
            0.25 * (north + south + west[r] + east[r])
        };
        if first == 0 {
            out[0] = relax(0);
        }
        if inner_lo < inner_hi {
            let len = inner_hi - inner_lo;
            let sources = here[inner_lo - 1..][..len]
                .iter()
                .zip(&here[inner_lo + 1..][..len])
                .zip(&west[inner_lo..][..len])
                .zip(&east[inner_lo..][..len]);
            let out = &mut out[inner_lo..][..len];
            for (out, (((north, south), west), east)) in out.iter_mut().zip(sources) {
                *out = 0.25 * (north + south + west + east);
            }
        }
        if last + 1 == rows && last > 0 {
            out[last] = relax(last);
        }
    }
}

/// Runs the distributed smoothing kernel on the auto-selected backend
/// ([`ExecBackend::auto`]) and returns statistics plus the final field:
/// [`try_run`] without checkpoints.
pub fn run(config: &SmoothingConfig, machine: &Machine, initial: &[f64]) -> SmoothingResult {
    try_run(config, machine, initial, &ExecBackend::auto(), None)
        .expect("an initial field of N*N elements smooths without rank deaths")
        .result
}

/// A checkpoint schedule for [`try_run`].
#[derive(Debug, Clone, Copy)]
pub struct Checkpoints<'a> {
    /// Where the field is saved (write-new + atomic rename, two rotating
    /// generations).
    pub store: &'a CheckpointStore,
    /// Save after every `every` steps (counted from step 0, so a resumed
    /// run keeps the schedule) and after the last step; `0` saves after
    /// the last step only.
    pub every: usize,
    /// How many channel failures are recovered from before the run gives
    /// up.
    pub max_restarts: usize,
}

/// Outcome of [`try_run`]: the completed run plus how many channel
/// failures were recovered by restoring a checkpoint.
#[derive(Debug, Clone)]
pub struct RecoveredSmoothing {
    /// The completed run — bitwise identical to an uninterrupted one.
    pub result: SmoothingResult,
    /// Steps that failed and were recovered by restoring the newest
    /// checkpoint generation (or restarting from the initial field when
    /// none had been written yet).
    pub restarts: usize,
}

/// The smoothing driver for every backend: each step exchanges the field's
/// 1-wide halo as one ghost statement on `executor` and relaxes every
/// processor's own segment against it (owner-computes on local views).
/// On [`vf_runtime::ShardedExecutor`] every crossing element travels over
/// a real [`vf_machine::spmd`] channel, one region per step, and the
/// tracker's `channel_*` counters record exactly the modelled traffic; the
/// field is bitwise the same on every executor.
///
/// With `checkpoints` the field is saved on the schedule's cadence, and a
/// step that fails with [`RuntimeError::Channel`] (an injected rank
/// death, a lost peer, a receive timeout) restores the newest generation —
/// or the initial field when none was written — and resumes from its step,
/// at most `max_restarts` times.  One tracker, and so one fault schedule
/// with one budget ([`vf_machine::FaultPlan`] `max_faults`), spans every
/// attempt.
///
/// # Errors
/// [`RuntimeError::Channel`] when a step fails with no checkpoints or no
/// restart left, [`RuntimeError::CorruptCheckpoint`] when checkpoint I/O
/// fails, and any other error of the halo statement or of building the
/// field, immediately.
pub fn try_run(
    config: &SmoothingConfig,
    machine: &Machine,
    initial: &[f64],
    executor: &impl PlanExecutor,
    checkpoints: Option<Checkpoints<'_>>,
) -> Result<RecoveredSmoothing> {
    let tracker = machine.tracker();
    // The halo geometry is identical in every step: it is planned once and
    // the cached schedule is replayed afterwards.
    let plans = PlanCache::of(machine);
    let dist = grid_distribution(config.layout, config.n, machine);
    let from_initial = || DistArray::from_dense("U", dist.clone(), initial);
    let mut current = from_initial()?;
    // The global boundary is never written: both buffers hold it.
    let mut next = current.clone();

    let (mut messages_per_step, mut bytes_per_step, mut restarts) = (0, 0, 0);
    let mut step = 0;
    while step < config.steps {
        let relaxed = {
            let _span = trace::OpenSpan::begin_with(trace::Phase::Step, || format!("step {step}"));
            relax_step(&current, &mut next, plans, &tracker, executor)
        };
        match (relaxed, checkpoints) {
            (Ok((messages, bytes)), _) => {
                if step == 0 {
                    (messages_per_step, bytes_per_step) = (messages, bytes);
                }
                std::mem::swap(&mut current, &mut next);
                step += 1;
                if let Some(c) = checkpoints {
                    if step.checked_rem(c.every) == Some(0) || step == config.steps {
                        c.store.save(&current, step as u64, &tracker)?;
                    }
                }
            }
            (Err(RuntimeError::Channel(_)), Some(c)) if restarts < c.max_restarts => {
                restarts += 1;
                // Redistribute-on-read: a generation written under any
                // distribution restores into the grid's.  An empty (or
                // wholly corrupt) store means the failure predated the
                // first save.
                let restored = c
                    .store
                    .restore_into(&dist, &tracker, plans, &SerialExecutor);
                (current, step) = match restored {
                    Ok(r) => (r.array, (r.step as usize).min(config.steps)),
                    Err(RuntimeError::CorruptCheckpoint { .. }) => (from_initial()?, 0),
                    Err(e) => return Err(e),
                };
            }
            (Err(e), _) => return Err(e),
        }
    }

    let field = current.to_dense();
    let checksum = field.iter().sum();
    let result = SmoothingResult {
        stats: tracker.snapshot(),
        messages_per_step,
        bytes_per_step,
        checksum,
        field,
    };
    Ok(RecoveredSmoothing { result, restarts })
}

/// One blocking step: exchanges `current`'s halo on `executor`, then
/// relaxes every processor's segment into `next`.  Returns the step's
/// message and byte counts.  A failed exchange leaves both fields as they
/// were.
fn relax_step(
    current: &DistArray<f64>,
    next: &mut DistArray<f64>,
    plans: &PlanCache,
    tracker: &CommTracker,
    executor: &impl PlanExecutor,
) -> Result<(usize, usize)> {
    let halo = plans.ghost_plan(current.dist(), &WIDTHS)?;
    let (ghosts, report) = exchange_ghosts(current, &halo, tracker, executor)?;
    let domain = current.dist().domain();
    forall_owned(&mut [next], tracker, executor, |p, dst| {
        let src = match ghosts.overlap(p, current.local(p)) {
            Ok(OverlapView::Frame(src)) => src,
            _ => unreachable!("a regular halo was exchanged for this field"),
        };
        let update = updated(dst[0].segment(), domain);
        relax_lines(&src, &mut dst[0], update);
        box_points(update) * FLOPS_PER_POINT
    })?;
    Ok((report.messages, report.bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use vf_runtime::{ShardedExecutor, ThreadedExecutor};

    #[test]
    fn distributed_matches_sequential_for_both_layouts() {
        let n = 12;
        let initial = workloads::initial_grid(n, 7);
        let reference = sequential_reference(n, 3, &initial);
        for layout in [SmoothingLayout::Columns, SmoothingLayout::Blocks2D] {
            let machine = Machine::new(4, CostModel::zero());
            let result = run(
                &SmoothingConfig {
                    n,
                    steps: 3,
                    layout,
                },
                &machine,
                &initial,
            );
            let bits = |field: &[f64]| field.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&result.field),
                bits(&reference),
                "{layout:?} diverges from reference"
            );
        }
    }

    #[test]
    fn sharded_run_matches_shared_run_bitwise_with_real_channel_traffic() {
        let n = 16;
        let steps = 3;
        let initial = workloads::initial_grid(n, 11);
        for layout in [SmoothingLayout::Columns, SmoothingLayout::Blocks2D] {
            let machine = Machine::new(4, CostModel::zero());
            let shared = run(&SmoothingConfig { n, steps, layout }, &machine, &initial);
            let machine = Machine::new(4, CostModel::zero());
            let config = SmoothingConfig { n, steps, layout };
            let sharded = try_run(&config, &machine, &initial, &ShardedExecutor::new(), None)
                .expect("no faults are armed")
                .result;
            // The gathered rank-local result is bitwise the shared-memory
            // result, and both runs model identical traffic.
            assert_eq!(
                sharded.field, shared.field,
                "{layout:?} gathered field diverges from the shared-memory run"
            );
            assert_eq!(sharded.checksum, shared.checksum);
            assert_eq!(sharded.messages_per_step, shared.messages_per_step);
            assert_eq!(sharded.bytes_per_step, shared.bytes_per_step);
            assert_eq!(
                sharded.stats.total_messages(),
                shared.stats.total_messages(),
                "{layout:?} modelled message counts diverge"
            );
            assert_eq!(sharded.stats.total_bytes(), shared.stats.total_bytes());
            // The sharded run moved real bytes over channels — exactly as
            // many as the model claims, every step.  `run` touches a
            // channel only when the ambient backend is the sharded one
            // (VF_EXEC_BACKEND=sharded), and then it moves the same.
            let ambient_sharded = vf_runtime::PlanExecutor::name(&ExecBackend::auto()) == "sharded";
            assert_eq!(
                shared.stats.channel_messages(),
                if ambient_sharded {
                    sharded.stats.channel_messages()
                } else {
                    0
                }
            );
            assert_eq!(
                sharded.stats.channel_messages(),
                steps * sharded.messages_per_step
            );
            assert_eq!(
                sharded.stats.channel_bytes(),
                steps * sharded.bytes_per_step
            );
        }
    }

    fn ckpt_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("vf_smooth_ckpt_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir)
    }

    #[test]
    fn checkpointed_run_matches_uninterrupted_run_bitwise() {
        let n = 16;
        let steps = 5;
        let initial = workloads::initial_grid(n, 11);
        let executors = [
            ("serial", ExecBackend::Serial),
            (
                "pooled",
                ExecBackend::Threaded(ThreadedExecutor::auto().with_serial_cutoff(0)),
            ),
            ("sharded", ExecBackend::Sharded(ShardedExecutor::new())),
        ];
        for layout in [SmoothingLayout::Columns, SmoothingLayout::Blocks2D] {
            let config = SmoothingConfig { n, steps, layout };
            let plain = run(&config, &Machine::new(4, CostModel::zero()), &initial);
            for (name, executor) in &executors {
                let store = ckpt_store(&format!("{name}_{layout:?}"));
                let machine = Machine::new(4, CostModel::zero());
                let checkpoints = Checkpoints {
                    store: &store,
                    every: 2,
                    max_restarts: 0,
                };
                let ckpt = try_run(&config, &machine, &initial, executor, Some(checkpoints))
                    .expect("fault-free checkpointed run succeeds");
                let ctx = format!("{name} {layout:?}");
                assert_eq!(ckpt.restarts, 0, "{ctx}");
                let ckpt = ckpt.result;
                assert_eq!(ckpt.field, plain.field, "{ctx}: diverges from run");
                assert_eq!(ckpt.messages_per_step, plain.messages_per_step, "{ctx}");
                assert_eq!(ckpt.bytes_per_step, plain.bytes_per_step, "{ctx}");
                // The last checkpoint holds the final step, and its I/O was
                // charged to the tracker; nothing was read back.
                assert_eq!(store.latest_step(), Some(steps as u64), "{ctx}");
                assert!(ckpt.stats.ckpt_bytes_written() > 0, "{ctx}");
                assert_eq!(ckpt.stats.ckpt_bytes_read(), 0, "{ctx}");
                let _ = std::fs::remove_dir_all(store.dir());
            }
        }
    }

    #[test]
    fn rank_death_recovers_from_checkpoint_bitwise() {
        use vf_machine::{FaultKind, FaultPlan};
        let n = 16;
        let steps = 6;
        let layout = SmoothingLayout::Columns;
        let config = SmoothingConfig { n, steps, layout };
        let initial = workloads::initial_grid(n, 23);
        let clean = run(&config, &Machine::new(4, CostModel::zero()), &initial);

        // One guaranteed rank death, then a clean rest of the schedule.
        let plan = FaultPlan::new(77)
            .with_rate(1.0)
            .with_kinds(&[FaultKind::RankDeath])
            .with_max_faults(1);
        let machine = Machine::new(4, CostModel::zero()).with_fault_plan(plan);
        let store = ckpt_store("recover");
        let executor = ShardedExecutor::new().with_timeout(std::time::Duration::from_millis(500));
        let checkpoints = Checkpoints {
            store: &store,
            every: 2,
            max_restarts: 3,
        };
        let recovered = try_run(&config, &machine, &initial, &executor, Some(checkpoints))
            .expect("the driver recovers from a single injected rank death");
        assert_eq!(recovered.restarts, 1, "exactly one region crashed");
        assert_eq!(
            recovered.result.field, clean.field,
            "recovered field diverges from the fault-free run"
        );
        assert_eq!(recovered.result.checksum, clean.checksum);
        assert_eq!(recovered.result.stats.faults_injected(), 1);
    }

    #[test]
    fn message_counts_follow_the_paper_analysis() {
        let n = 32;
        let p = 4;
        let initial = workloads::initial_grid(n, 3);
        let machine = Machine::new(p, CostModel::zero());
        let cols = run(
            &SmoothingConfig {
                n,
                steps: 1,
                layout: SmoothingLayout::Columns,
            },
            &machine,
            &initial,
        );
        // Column layout: interior processors receive 2 faces of N, edge
        // processors 1 → 2(p-1) messages in total, N elements each.
        assert_eq!(cols.messages_per_step, 2 * (p - 1));
        assert_eq!(cols.bytes_per_step, 2 * (p - 1) * n * 8);

        let machine = Machine::new(p, CostModel::zero());
        let blocks = run(
            &SmoothingConfig {
                n,
                steps: 1,
                layout: SmoothingLayout::Blocks2D,
            },
            &machine,
            &initial,
        );
        // 2x2 processor grid: each processor has 2 face neighbours and 1
        // corner neighbour → 12 messages; faces carry N/2 elements.
        assert_eq!(blocks.messages_per_step, 12);
        // More messages but fewer bytes per message than the column layout.
        assert!(blocks.messages_per_step > cols.messages_per_step);
    }

    #[test]
    fn chooser_follows_alpha_beta_tradeoff() {
        // Latency-bound machine: fewer messages win → columns.
        let latency = CostModel::latency_bound();
        assert_eq!(choose_layout(256, 16, &latency), SmoothingLayout::Columns);
        // Bandwidth-bound machine with many processors: smaller messages win.
        let bandwidth = CostModel::bandwidth_bound();
        assert_eq!(
            choose_layout(4096, 64, &bandwidth),
            SmoothingLayout::Blocks2D
        );
        // The predicted cost is what the chooser minimises.
        let n = 1024;
        let p = 16;
        let chosen = choose_layout(n, p, &bandwidth);
        let other = match chosen {
            SmoothingLayout::Columns => SmoothingLayout::Blocks2D,
            SmoothingLayout::Blocks2D => SmoothingLayout::Columns,
        };
        assert!(
            predicted_step_time(chosen, n, p, &bandwidth)
                <= predicted_step_time(other, n, p, &bandwidth)
        );
    }

    #[test]
    fn modelled_time_tracks_prediction_direction() {
        // On a latency-bound machine the measured (modelled) critical time
        // of the column layout must beat the 2-D layout, matching the
        // analytic prediction.
        let n = 64;
        let p = 16;
        let initial = workloads::initial_grid(n, 1);
        let cost = CostModel::latency_bound();
        let run_one = |layout| {
            let machine = Machine::new(p, cost.clone());
            run(
                &SmoothingConfig {
                    n,
                    steps: 2,
                    layout,
                },
                &machine,
                &initial,
            )
            .stats
            .critical_time()
        };
        assert!(run_one(SmoothingLayout::Columns) < run_one(SmoothingLayout::Blocks2D));
    }
}
