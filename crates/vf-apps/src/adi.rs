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
use std::collections::HashMap;
use vf_dist::{DistType, Distribution, ProcessorView};
use vf_index::{IndexDomain, Point};
use vf_machine::{trace, CommStats, CommTracker, Machine};
use vf_runtime::{assign::assign, redistribute_split, DistArray, ExecBackend, PlanCache};

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

/// Performs one sweep of tridiagonal solves along dimension `sweep_dim` of
/// the distributed array (0 = x-lines/columns, 1 = y-lines/rows).
///
/// Lines that are fully local to a processor are solved without any
/// communication (the owner-computes rule).  Lines that span processors are
/// gathered to the processor owning the first element, solved there, and
/// scattered back — each contributing processor exchanges one message in
/// each direction, which is how the compiler-embedded communication of the
/// static-distribution variant behaves.
fn sweep(
    array: &mut DistArray<f64>,
    sweep_dim: usize,
    tracker: &vf_machine::CommTracker,
) -> (usize, usize) {
    let dist = array.dist().clone();
    let domain = dist.domain().clone();
    let n_sweep = domain.extent(sweep_dim);
    let other_dim = 1 - sweep_dim;
    let n_other = domain.extent(other_dim);
    let mut messages = 0usize;
    let mut bytes = 0usize;

    let _span = trace::OpenSpan::begin_with(trace::Phase::InteriorCompute, || {
        format!("sweep dim {sweep_dim}")
    });
    for line in 0..n_other {
        let fixed = domain.dim(other_dim).lower() + line as i64;
        // Collect the line and the owners of its elements.
        let mut values = Vec::with_capacity(n_sweep);
        let mut owner_counts: HashMap<usize, usize> = HashMap::new();
        let mut first_owner = None;
        for k in 0..n_sweep {
            let coord = domain.dim(sweep_dim).lower() + k as i64;
            let point = if sweep_dim == 0 {
                Point::d2(coord, fixed)
            } else {
                Point::d2(fixed, coord)
            };
            let owner = dist.owner(&point).expect("point in domain");
            first_owner.get_or_insert(owner);
            *owner_counts.entry(owner.0).or_insert(0) += 1;
            values.push(array.get(&point).expect("point in domain"));
        }
        let solver = first_owner.expect("line is non-empty");
        // Gather the remote parts, solve, scatter back.
        for (&owner, &count) in &owner_counts {
            if owner != solver.0 {
                tracker.send(owner, solver.0, count * 8);
                tracker.send(solver.0, owner, count * 8);
                messages += 2;
                bytes += 2 * count * 8;
            }
        }
        tridiag::solve_in_place(coeffs(), &mut values);
        tracker.compute(solver.0, tridiag::tridiag_flops(n_sweep));
        for (k, &v) in values.iter().enumerate() {
            let coord = domain.dim(sweep_dim).lower() + k as i64;
            let point = if sweep_dim == 0 {
                Point::d2(coord, fixed)
            } else {
                Point::d2(fixed, coord)
            };
            array.set(&point, v).expect("point in domain");
        }
    }
    (messages, bytes)
}

/// The Figure 1 `DISTRIBUTE` + sweep pair, **pipelined** through the
/// split-phase redistribution: the redistribution is posted, and as soon
/// as one destination processor's new local block has fully landed
/// ([`vf_runtime::SplitRedistribute::wait_dest`]) its now-local lines are
/// solved *directly inside the in-flight destination buffer* — while the
/// other processors' blocks are still streaming in on the executor's
/// background workers.  `finish_into` then installs the solved buffers.
///
/// Every line the target layout makes local is solved with the same
/// gathered values, the same solve, and the same per-line FLOP charge as
/// the blocking redistribute-then-[`sweep`] sequence, and the installed
/// buffers hold the same solutions at the same offsets — the result is
/// bitwise identical; only the schedule overlaps.
fn pipelined_distribute_sweep(
    array: &mut DistArray<f64>,
    new_dist: Distribution,
    sweep_dim: usize,
    tracker: &CommTracker,
    plans: &PlanCache,
    executor: &ExecBackend,
) -> (usize, usize) {
    let split = redistribute_split(array, new_dist, tracker, plans, executor).expect("same domain");
    let dist = split.new_dist().clone();
    let domain = dist.domain().clone();
    let locator = dist.locator();
    let n_sweep = domain.extent(sweep_dim);
    let other_dim = 1 - sweep_dim;
    let n_other = domain.extent(other_dim);
    let point_at = |k: usize, line: usize| {
        let coord = domain.dim(sweep_dim).lower() + k as i64;
        let fixed = domain.dim(other_dim).lower() + line as i64;
        if sweep_dim == 0 {
            Point::d2(coord, fixed)
        } else {
            Point::d2(fixed, coord)
        }
    };
    for &d in dist.proc_ids().to_vec().iter() {
        split.wait_dest(d.0);
        let _solve_span = trace::OpenSpan::begin_with(trace::Phase::InteriorCompute, || {
            format!("sweep dest {}", d.0)
        });
        split.with_dest_mut(d.0, |buf| {
            let mut values = vec![0.0f64; n_sweep];
            let mut offsets = vec![0usize; n_sweep];
            for line in 0..n_other {
                if dist.owner(&point_at(0, line)).expect("point in domain") != d {
                    continue;
                }
                for (k, (v, off)) in values.iter_mut().zip(offsets.iter_mut()).enumerate() {
                    let (owner, o) = locator.locate(&point_at(k, line)).expect("point in domain");
                    assert_eq!(owner, d, "the target layout keeps swept lines local");
                    *off = o;
                    *v = buf[o];
                }
                tridiag::solve_in_place(coeffs(), &mut values);
                tracker.compute(d.0, tridiag::tridiag_flops(n_sweep));
                for (&v, &off) in values.iter().zip(offsets.iter()) {
                    buf[off] = v;
                }
            }
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
    let mut sweep_messages = 0;
    let mut sweep_bytes = 0;
    let mut redist_messages = 0;
    let mut redist_bytes = 0;

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
                let (m, b) = sweep(&mut v, 0, &tracker);
                sweep_messages += m;
                sweep_bytes += b;
                let (m, b) = sweep(&mut v, 1, &tracker);
                sweep_messages += m;
                sweep_bytes += b;
            }
            v.to_dense()
        }
        AdiStrategy::DynamicRedistribute => {
            // Figure 1: V is DYNAMIC with initial (:, BLOCK).  The two
            // DISTRIBUTE schedules (cols->rows, rows->cols) are planned in
            // the first iteration and replayed from the cache afterwards —
            // the inspector cost is paid once per pattern, not per step.
            // Each DISTRIBUTE + sweep pair runs pipelined: destination
            // blocks stream in split-phase, and each processor's lines are
            // solved as soon as its block lands (see
            // [`pipelined_distribute_sweep`]).
            let plans = PlanCache::new();
            let executor = ExecBackend::auto();
            let mut v =
                DistArray::from_dense("V", dist_for(n, machine, DistType::columns()), initial)
                    .expect("initial field has N*N elements");
            for iter in 0..config.iterations {
                let _step_span =
                    trace::OpenSpan::begin_with(trace::Phase::Step, || format!("iter {iter}"));
                if iter > 0 {
                    // Return to the column distribution and solve the
                    // x-lines as each processor's columns arrive.
                    let (m, b) = pipelined_distribute_sweep(
                        &mut v,
                        dist_for(n, machine, DistType::columns()),
                        0,
                        &tracker,
                        &plans,
                        &executor,
                    );
                    redist_messages += m;
                    redist_bytes += b;
                } else {
                    // First x-sweep: the initial layout already keeps the
                    // columns local, nothing to redistribute.
                    let (m, b) = sweep(&mut v, 0, &tracker);
                    sweep_messages += m;
                    sweep_bytes += b;
                }
                // DISTRIBUTE V :: (BLOCK, :) pipelined with the y-sweep.
                let (m, b) = pipelined_distribute_sweep(
                    &mut v,
                    dist_for(n, machine, DistType::rows()),
                    1,
                    &tracker,
                    &plans,
                    &executor,
                );
                redist_messages += m;
                redist_bytes += b;
            }
            v.to_dense()
        }
        AdiStrategy::TwoCopies => {
            // Two statically distributed arrays connected by assignment;
            // both assignment schedules are planned once and reused, with
            // the copies on the auto-selected backend.
            let plans = PlanCache::new();
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
                    let report = assign(&mut v_cols, &v_rows, &tracker, &plans, &executor)
                        .expect("same domain");
                    redist_messages += report.messages;
                    redist_bytes += report.bytes;
                }
                let (m, b) = sweep(&mut v_cols, 0, &tracker);
                sweep_messages += m;
                sweep_bytes += b;
                let report =
                    assign(&mut v_rows, &v_cols, &tracker, &plans, &executor).expect("same domain");
                redist_messages += report.messages;
                redist_bytes += report.bytes;
                let (m, b) = sweep(&mut v_rows, 1, &tracker);
                sweep_messages += m;
                sweep_bytes += b;
            }
            v_rows.to_dense()
        }
    };

    let checksum = field.iter().sum();
    AdiResult {
        stats: tracker.snapshot(),
        sweep_messages,
        sweep_bytes,
        redist_messages,
        redist_bytes,
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
            for (a, b) in result.field.iter().zip(reference.iter()) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "{strategy:?} diverges from the sequential reference"
                );
            }
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
