//! The ADI (Alternating Direction Implicit) iteration of Figure 1.
//!
//! One ADI step solves a constant-coefficient tridiagonal system along
//! every x-line of the grid and then along every y-line.  The recurrence of
//! the tridiagonal solve creates dependences along the swept direction, so
//! a distribution that keeps the swept lines local makes the sweep
//! communication-free.  The paper's Figure 1 declares
//! `V(NX,NY) DYNAMIC, DIST(:, BLOCK)`, sweeps the columns locally, executes
//! `DISTRIBUTE V :: (BLOCK, :)` and sweeps the rows locally — confining all
//! communication to the redistribution.  The alternatives discussed in the
//! text (a single static distribution, or two statically distributed copies
//! connected by array assignment) are implemented here as well so the
//! experiments can compare them.

use crate::tridiag::{self, TridiagCoeffs};
use vf_dist::{DistType, Distribution, ProcId, ProcessorView};
use vf_index::IndexDomain;
use vf_machine::{trace, CommStats, CommTracker, Machine};
use vf_runtime::{
    assign::assign, redistribute_split, DistArray, ExecBackend, LocalView, LocalViewMut, PlanCache,
    PlanExecutor,
};

/// The distribution strategy of an ADI run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdiStrategy {
    /// `( : , BLOCK)` throughout: the x-line sweeps are local, the y-line
    /// sweeps gather/scatter every line across processors.
    StaticColumns,
    /// `(BLOCK, : )` throughout: the y-line sweeps are local, the x-line
    /// sweeps communicate.
    StaticRows,
    /// Figure 1: redistribute between the two sweep phases so both sweeps
    /// are local; all communication happens in `DISTRIBUTE`.
    DynamicRedistribute,
    /// The §4 alternative: two statically distributed copies (one per
    /// layout) connected by array assignment.
    TwoCopies,
}

/// Configuration of an ADI run.
#[derive(Debug, Clone)]
pub struct AdiConfig {
    /// Grid size N (the grid is N×N).
    pub n: usize,
    /// Number of ADI iterations (each = x-sweep + y-sweep).
    pub iterations: usize,
    /// Distribution strategy.
    pub strategy: AdiStrategy,
}

/// Result of an ADI run.
#[derive(Debug, Clone)]
pub struct AdiResult {
    /// Accumulated machine statistics.
    pub stats: CommStats,
    /// Messages caused by gather/scatter inside sweeps.
    pub sweep_messages: usize,
    /// Bytes caused by gather/scatter inside sweeps.
    pub sweep_bytes: usize,
    /// Messages caused by redistribution or array assignment.
    pub redist_messages: usize,
    /// Bytes caused by redistribution or array assignment.
    pub redist_bytes: usize,
    /// The final field in dense column-major order.
    pub field: Vec<f64>,
    /// Sum of the final field.
    pub checksum: f64,
}

fn coeffs() -> TridiagCoeffs {
    TridiagCoeffs::diffusion(0.05)
}

/// The sequential reference: one iteration solves every column (x-line) and
/// then every row (y-line) of the dense column-major grid.
pub fn sequential_reference(n: usize, iterations: usize, initial: &[f64]) -> Vec<f64> {
    let mut field = initial.to_vec();
    let idx = |i: usize, j: usize| i + j * n;
    for _ in 0..iterations {
        // Sweep over x-lines: each column V(:, j).
        for j in 0..n {
            let mut line: Vec<f64> = (0..n).map(|i| field[idx(i, j)]).collect();
            tridiag::solve_in_place(coeffs(), &mut line);
            for i in 0..n {
                field[idx(i, j)] = line[i];
            }
        }
        // Sweep over y-lines: each row V(i, :).
        for i in 0..n {
            let mut line: Vec<f64> = (0..n).map(|j| field[idx(i, j)]).collect();
            tridiag::solve_in_place(coeffs(), &mut line);
            for j in 0..n {
                field[idx(i, j)] = line[j];
            }
        }
    }
    field
}

/// The offsets, in `segment`'s column-major buffer, of its line along
/// `dim` at `fixed` (the coordinate in the other dimension): a column
/// (`dim` 0) is contiguous, a row has the segment's column length as its
/// one stride.
fn line_in(segment: &IndexDomain, dim: usize, fixed: i64) -> impl Iterator<Item = usize> + Clone {
    let across = (fixed - segment.dim(1 - dim).lower()) as usize;
    let rows = segment.extent(0);
    let (first, stride) = if dim == 0 {
        (across * rows, 1)
    } else {
        (across, rows)
    };
    (first..first + segment.extent(dim) * stride).step_by(stride.max(1))
}

/// Solves every line of `view` along `sweep_dim`, which must lie wholly
/// inside it, and charges each solve to `proc`.  A column is solved in
/// place; a row is gathered with its one stride into a scratch line,
/// solved and scattered back — the same values through the same solve as
/// [`sequential_reference`], so the result is bitwise its.
fn solve_local_lines(
    view: &mut LocalViewMut<'_, f64>,
    sweep_dim: usize,
    proc: ProcId,
    tracker: &CommTracker,
) {
    let segment = view.segment().clone();
    let n = segment.extent(sweep_dim);
    let mut line = vec![0.0f64; n];
    for fixed in segment.dim(1 - sweep_dim).iter() {
        let mut at = line_in(&segment, sweep_dim, fixed);
        if sweep_dim == 0 {
            let first = at.next().unwrap_or(0);
            tridiag::solve_in_place(coeffs(), &mut view[first..first + n]);
        } else {
            line.iter_mut()
                .zip(at.clone())
                .for_each(|(v, o)| *v = view[o]);
            tridiag::solve_in_place(coeffs(), &mut line);
            line.iter().zip(at).for_each(|(&v, o)| view[o] = v);
        }
        tracker.compute(proc.0, tridiag::tridiag_flops(n));
    }
}

/// Performs one sweep of tridiagonal solves along dimension `sweep_dim` of
/// the distributed array (0 = x-lines/columns, 1 = y-lines/rows).
///
/// Each line is gathered to the processor owning its first element, solved
/// there, and scattered back.  A line that is fully local to a processor
/// costs no communication (the owner-computes rule); every other processor
/// holding a piece of a line exchanges one message in each direction,
/// which is how the compiler-embedded communication of the
/// static-distribution variant behaves.  Which processors hold a piece of
/// a line, and where, is read off their segments.
fn sweep(array: &mut DistArray<f64>, sweep_dim: usize, tracker: &CommTracker) -> (usize, usize) {
    let dist = array.dist().clone();
    let domain = dist.domain();
    let (along, across) = (domain.dim(sweep_dim), domain.dim(1 - sweep_dim));
    let _span = trace::OpenSpan::begin_with(trace::Phase::InteriorCompute, || {
        format!("sweep dim {sweep_dim}")
    });
    // The non-empty segments, in the order their pieces follow each other
    // along a swept line.
    let mut segments: Vec<(ProcId, IndexDomain)> = dist
        .proc_ids()
        .iter()
        .map(|&p| (p, dist.local_segment(p).expect("block layouts")))
        .filter(|(_, segment)| !segment.is_empty())
        .collect();
    segments.sort_by_key(|(_, segment)| segment.dim(sweep_dim).lower());
    let mut values = vec![0.0f64; along.len()];
    let (mut messages, mut bytes) = (0usize, 0usize);
    for fixed in across.iter() {
        // Each piece of the line: its owner, its stretch of `values` and
        // its offsets in the owner's buffer.
        let held = segments
            .iter()
            .filter(|(_, segment)| segment.dim(1 - sweep_dim).contains(fixed));
        let pieces: Vec<_> = held
            .map(|(owner, segment)| {
                let piece = segment.dim(sweep_dim);
                let first = (piece.lower() - along.lower()) as usize;
                (
                    *owner,
                    first..first + piece.len(),
                    line_in(segment, sweep_dim, fixed),
                )
            })
            .collect();
        let solver = pieces.first().expect("line is non-empty").0;
        for (owner, stretch, at) in &pieces {
            let local = array.local(*owner);
            let gathered = values[stretch.clone()].iter_mut().zip(at.clone());
            gathered.for_each(|(v, o)| *v = local[o]);
            if *owner != solver {
                tracker.send(owner.0, solver.0, stretch.len() * 8);
                tracker.send(solver.0, owner.0, stretch.len() * 8);
                messages += 2;
                bytes += 2 * stretch.len() * 8;
            }
        }
        tridiag::solve_in_place(coeffs(), &mut values);
        tracker.compute(solver.0, tridiag::tridiag_flops(along.len()));
        for (owner, stretch, at) in pieces {
            let local = array.local_mut(owner);
            values[stretch]
                .iter()
                .zip(at)
                .for_each(|(&v, o)| local[o] = v);
        }
    }
    (messages, bytes)
}

/// The Figure 1 `DISTRIBUTE` + sweep pair, **pipelined** through the
/// split-phase redistribution: the redistribution is posted, and as soon
/// as one destination processor's new local block has fully landed
/// ([`vf_runtime::SplitRedistribute::with_dest_mut`] waits for it) its
/// now-local lines are solved *directly inside the in-flight destination
/// buffer* — a [`LocalView`] opened over it — while the other processors'
/// blocks are still streaming in on the executor's background workers.
/// `finish_into` then installs the solved buffers.
///
/// Every line the target layout makes local is solved with the same
/// values, the same solve, and the same per-line FLOP charge as the
/// blocking redistribute-then-[`sweep`] sequence, and the installed
/// buffers hold the same solutions at the same offsets — the result is
/// bitwise identical; only the schedule overlaps.
fn pipelined_distribute_sweep(
    array: &mut DistArray<f64>,
    new_dist: Distribution,
    sweep_dim: usize,
    tracker: &CommTracker,
    plans: &PlanCache,
    executor: &impl PlanExecutor,
) -> (usize, usize) {
    let split = redistribute_split(array, new_dist, tracker, plans, executor).expect("same domain");
    let dist = split.new_dist().clone();
    for &d in dist.proc_ids() {
        // The wait for `d`'s pairs is its own span, ahead of the solve's.
        split.with_dest_mut(d.0, |buf| {
            let _solve_span = trace::OpenSpan::begin_with(trace::Phase::InteriorCompute, || {
                format!("sweep dest {}", d.0)
            });
            let mut view = LocalView::new(&dist, d, buf.as_mut_slice()).expect("block layouts");
            assert!(
                view.is_empty() || view.segment().dim(sweep_dim) == dist.domain().dim(sweep_dim),
                "the target layout keeps swept lines local"
            );
            solve_local_lines(&mut view, sweep_dim, d, tracker);
        });
    }
    let (report, _split_report) = split
        .finish_into(array)
        .expect("array untouched while the handle was live");
    (report.messages, report.bytes)
}

fn dist_for(n: usize, machine: &Machine, dist_type: DistType) -> Distribution {
    Distribution::new(
        dist_type,
        IndexDomain::d2(n, n),
        ProcessorView::linear(machine.num_procs()),
    )
    .expect("ADI distributions are valid")
}

/// Runs the ADI iteration under the chosen strategy and returns statistics
/// plus the final field.
pub fn run(config: &AdiConfig, machine: &Machine, initial: &[f64]) -> AdiResult {
    let tracker = machine.tracker();
    let n = config.n;
    // (messages, bytes) inside the sweeps, and of DISTRIBUTE / assignment.
    let (mut swept, mut moved) = ((0, 0), (0, 0));
    let add = |total: &mut (usize, usize), (messages, bytes): (usize, usize)| {
        total.0 += messages;
        total.1 += bytes;
    };

    let field = match config.strategy {
        AdiStrategy::StaticColumns | AdiStrategy::StaticRows => {
            let dist_type = if config.strategy == AdiStrategy::StaticColumns {
                DistType::columns()
            } else {
                DistType::rows()
            };
            let mut v = DistArray::from_dense("V", dist_for(n, machine, dist_type), initial)
                .expect("initial field has N*N elements");
            for _ in 0..config.iterations {
                add(&mut swept, sweep(&mut v, 0, &tracker));
                add(&mut swept, sweep(&mut v, 1, &tracker));
            }
            v.to_dense()
        }
        AdiStrategy::DynamicRedistribute => {
            // Figure 1: V is DYNAMIC with initial (:, BLOCK).  The two
            // DISTRIBUTE schedules (cols->rows, rows->cols) are planned in
            // the first iteration of the machine's first run and replayed
            // from its plan store afterwards — the inspector cost is paid
            // once per pattern, not per step or per run.
            // Each DISTRIBUTE + sweep pair runs pipelined: destination
            // blocks stream in split-phase, and each processor's lines are
            // solved as soon as its block lands (see
            // [`pipelined_distribute_sweep`]).
            let plans = PlanCache::of(machine);
            let executor = ExecBackend::auto();
            let mut v =
                DistArray::from_dense("V", dist_for(n, machine, DistType::columns()), initial)
                    .expect("initial field has N*N elements");
            let distribute_sweep = |v: &mut DistArray<f64>, dist_type, sweep_dim| {
                let new_dist = dist_for(n, machine, dist_type);
                pipelined_distribute_sweep(v, new_dist, sweep_dim, &tracker, plans, &executor)
            };
            for iter in 0..config.iterations {
                let _step_span =
                    trace::OpenSpan::begin_with(trace::Phase::Step, || format!("iter {iter}"));
                if iter > 0 {
                    // Return to the column distribution and solve the
                    // x-lines as each processor's columns arrive.
                    add(&mut moved, distribute_sweep(&mut v, DistType::columns(), 0));
                } else {
                    // First x-sweep: the initial layout already keeps the
                    // columns local, nothing to redistribute.
                    add(&mut swept, sweep(&mut v, 0, &tracker));
                }
                // DISTRIBUTE V :: (BLOCK, :) pipelined with the y-sweep.
                add(&mut moved, distribute_sweep(&mut v, DistType::rows(), 1));
            }
            v.to_dense()
        }
        AdiStrategy::TwoCopies => {
            // Two statically distributed arrays connected by assignment;
            // both assignment schedules are planned once and reused, with
            // the copies on the auto-selected backend.
            let plans = PlanCache::of(machine);
            let executor = ExecBackend::auto();
            let mut v_cols =
                DistArray::from_dense("V1", dist_for(n, machine, DistType::columns()), initial)
                    .expect("initial field has N*N elements");
            let mut v_rows: DistArray<f64> =
                DistArray::new("V2", dist_for(n, machine, DistType::rows()));
            for iter in 0..config.iterations {
                let _step_span =
                    trace::OpenSpan::begin_with(trace::Phase::Step, || format!("iter {iter}"));
                if iter > 0 {
                    let report = assign(&mut v_cols, &v_rows, &tracker, plans, &executor)
                        .expect("same domain");
                    add(&mut moved, (report.messages, report.bytes));
                }
                add(&mut swept, sweep(&mut v_cols, 0, &tracker));
                let report =
                    assign(&mut v_rows, &v_cols, &tracker, plans, &executor).expect("same domain");
                add(&mut moved, (report.messages, report.bytes));
                add(&mut swept, sweep(&mut v_rows, 1, &tracker));
            }
            v_rows.to_dense()
        }
    };

    let checksum = field.iter().sum();
    AdiResult {
        stats: tracker.snapshot(),
        sweep_messages: swept.0,
        sweep_bytes: swept.1,
        redist_messages: moved.0,
        redist_bytes: moved.1,
        field,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use vf_machine::CostModel;

    const STRATEGIES: [AdiStrategy; 4] = [
        AdiStrategy::StaticColumns,
        AdiStrategy::StaticRows,
        AdiStrategy::DynamicRedistribute,
        AdiStrategy::TwoCopies,
    ];

    #[test]
    fn all_strategies_match_the_sequential_reference() {
        let n = 12;
        let initial = workloads::initial_grid(n, 11);
        let reference = sequential_reference(n, 2, &initial);
        for strategy in STRATEGIES {
            let machine = Machine::new(4, CostModel::zero());
            let result = run(
                &AdiConfig {
                    n,
                    iterations: 2,
                    strategy,
                },
                &machine,
                &initial,
            );
            let bits = |field: &[f64]| field.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&result.field),
                bits(&reference),
                "{strategy:?} diverges from the sequential reference"
            );
        }
    }

    #[test]
    fn dynamic_redistribution_confines_communication_to_distribute() {
        let n = 16;
        let initial = workloads::initial_grid(n, 5);
        let machine = Machine::new(4, CostModel::zero());
        let dynamic = run(
            &AdiConfig {
                n,
                iterations: 1,
                strategy: AdiStrategy::DynamicRedistribute,
            },
            &machine,
            &initial,
        );
        // Both sweeps are local: every message belongs to the DISTRIBUTE.
        assert_eq!(dynamic.sweep_messages, 0);
        assert!(dynamic.redist_messages > 0);

        let machine = Machine::new(4, CostModel::zero());
        let static_cols = run(
            &AdiConfig {
                n,
                iterations: 1,
                strategy: AdiStrategy::StaticColumns,
            },
            &machine,
            &initial,
        );
        // The static layout pays communication inside the y-sweep instead.
        assert_eq!(static_cols.redist_messages, 0);
        assert!(static_cols.sweep_messages > 0);
    }

    #[test]
    fn static_rows_pays_in_the_x_sweep() {
        let n = 16;
        let initial = workloads::initial_grid(n, 5);
        let machine = Machine::new(4, CostModel::zero());
        let r = run(
            &AdiConfig {
                n,
                iterations: 1,
                strategy: AdiStrategy::StaticRows,
            },
            &machine,
            &initial,
        );
        assert!(r.sweep_messages > 0);
        assert_eq!(r.redist_messages, 0);
        // Exactly one sweep direction communicated: same count as the
        // column layout's (by symmetry of the square grid).
        let machine = Machine::new(4, CostModel::zero());
        let c = run(
            &AdiConfig {
                n,
                iterations: 1,
                strategy: AdiStrategy::StaticColumns,
            },
            &machine,
            &initial,
        );
        assert_eq!(r.sweep_messages, c.sweep_messages);
    }

    #[test]
    fn two_copies_moves_at_least_as_much_data_as_dynamic() {
        let n = 16;
        let initial = workloads::initial_grid(n, 9);
        let run_strategy = |strategy| {
            let machine = Machine::new(4, CostModel::zero());
            run(
                &AdiConfig {
                    n,
                    iterations: 3,
                    strategy,
                },
                &machine,
                &initial,
            )
        };
        let dynamic = run_strategy(AdiStrategy::DynamicRedistribute);
        let two_copies = run_strategy(AdiStrategy::TwoCopies);
        assert_eq!(two_copies.sweep_messages, 0);
        assert!(two_copies.redist_bytes >= dynamic.redist_bytes);
    }

    #[test]
    fn dynamic_wins_on_a_latency_bound_machine() {
        // The headline claim of Figure 1: with communication confined to an
        // aggregated redistribution, the dynamic strategy beats the static
        // one whose sweep sends many small per-line messages.
        let n = 32;
        let initial = workloads::initial_grid(n, 2);
        let run_strategy = |strategy| {
            let machine = Machine::new(8, CostModel::latency_bound());
            run(
                &AdiConfig {
                    n,
                    iterations: 2,
                    strategy,
                },
                &machine,
                &initial,
            )
            .stats
            .critical_time()
        };
        let dynamic = run_strategy(AdiStrategy::DynamicRedistribute);
        let static_cols = run_strategy(AdiStrategy::StaticColumns);
        assert!(
            dynamic < static_cols,
            "dynamic {dynamic} should beat static {static_cols} when latency dominates"
        );
    }
}
