//! Row generators for the experiments E1–E5.

use crate::table;
use std::time::Instant;
use vf_apps::adi::{self, AdiConfig, AdiStrategy};
use vf_apps::pic::{self, PicConfig, PicStrategy};
use vf_apps::smoothing::{self, SmoothingConfig, SmoothingLayout};
use vf_apps::workloads::{self, ParticleLayout};
use vf_core::analysis::{Program, ReachingDistributions, Stmt};
use vf_core::prelude::*;

/// E1 — smoothing distribution choice (paper §4, analytic argument).
///
/// For each (N, p) pair the analytic per-step communication time of the
/// column layout (2 messages of N) and the 2-D block layout (4 messages of
/// N/√p) under the given machine; the winner column shows where the
/// crossover falls.
pub fn e1_analytic(cost: &CostModel, ns: &[usize], ps: &[usize]) -> String {
    let mut rows = Vec::new();
    for &p in ps {
        for &n in ns {
            let cols = smoothing::predicted_step_time(SmoothingLayout::Columns, n, p, cost);
            let blocks = smoothing::predicted_step_time(SmoothingLayout::Blocks2D, n, p, cost);
            let winner = if cols <= blocks {
                "columns"
            } else {
                "2-D blocks"
            };
            rows.push(vec![
                n.to_string(),
                p.to_string(),
                format!("{:.2}", n as f64 / p as f64),
                table::fmt_time(cols),
                table::fmt_time(blocks),
                winner.to_string(),
            ]);
        }
    }
    table::markdown(
        &[
            "N",
            "p",
            "N/p",
            "t/step (:,BLOCK)",
            "t/step (BLOCK,BLOCK)",
            "winner",
        ],
        &rows,
    )
}

/// E1 — simulated validation: the same comparison measured on the simulated
/// machine (message counts, bytes, modelled time per step).
pub fn e1_simulated(cost: &CostModel, ns: &[usize], p: usize, steps: usize) -> String {
    let mut rows = Vec::new();
    for &n in ns {
        let initial = workloads::initial_grid(n, 17);
        let mut per_layout = Vec::new();
        for layout in [SmoothingLayout::Columns, SmoothingLayout::Blocks2D] {
            let machine = Machine::new(p, cost.clone());
            let r = smoothing::run(&SmoothingConfig { n, steps, layout }, &machine, &initial);
            per_layout.push((layout, r));
        }
        let t_cols = per_layout[0].1.stats.critical_time() / steps as f64;
        let t_blocks = per_layout[1].1.stats.critical_time() / steps as f64;
        let winner = if t_cols <= t_blocks {
            "columns"
        } else {
            "2-D blocks"
        };
        rows.push(vec![
            n.to_string(),
            p.to_string(),
            per_layout[0].1.messages_per_step.to_string(),
            per_layout[0].1.bytes_per_step.to_string(),
            per_layout[1].1.messages_per_step.to_string(),
            per_layout[1].1.bytes_per_step.to_string(),
            table::fmt_time(t_cols),
            table::fmt_time(t_blocks),
            winner.to_string(),
        ]);
    }
    table::markdown(
        &[
            "N",
            "p",
            "msgs/step cols",
            "bytes/step cols",
            "msgs/step 2D",
            "bytes/step 2D",
            "t/step cols",
            "t/step 2D",
            "winner",
        ],
        &rows,
    )
}

/// E2 — the ADI strategies of Figure 1 and §4.
pub fn e2_adi(cost: &CostModel, ns: &[usize], ps: &[usize], iterations: usize) -> String {
    let strategies = [
        (AdiStrategy::StaticColumns, "static (:,BLOCK)"),
        (AdiStrategy::StaticRows, "static (BLOCK,:)"),
        (AdiStrategy::DynamicRedistribute, "dynamic DISTRIBUTE"),
        (AdiStrategy::TwoCopies, "two copies + assign"),
    ];
    let mut rows = Vec::new();
    for &p in ps {
        for &n in ns {
            let initial = workloads::initial_grid(n, 23);
            for (strategy, label) in strategies {
                let machine = Machine::new(p, cost.clone());
                let r = adi::run(
                    &AdiConfig {
                        n,
                        iterations,
                        strategy,
                    },
                    &machine,
                    &initial,
                );
                rows.push(vec![
                    n.to_string(),
                    p.to_string(),
                    label.to_string(),
                    r.sweep_messages.to_string(),
                    r.redist_messages.to_string(),
                    (r.sweep_bytes + r.redist_bytes).to_string(),
                    table::fmt_time(r.stats.critical_time()),
                ]);
            }
        }
    }
    table::markdown(
        &[
            "N",
            "p",
            "strategy",
            "sweep msgs",
            "redist msgs",
            "total bytes",
            "modelled time",
        ],
        &rows,
    )
}

/// E3 — the PIC load-balancing strategies of Figure 2.
pub fn e3_pic(cost: &CostModel, ncell: usize, nparticles: usize, steps: usize, p: usize) -> String {
    let init = workloads::particles(
        ncell,
        nparticles,
        ParticleLayout::Cluster {
            center: 0.2,
            width: 0.08,
        },
        0.4,
        29,
    );
    let strategies = [
        (PicStrategy::StaticBlock, "static BLOCK"),
        (
            PicStrategy::DynamicGenBlock {
                period: 10,
                threshold: 1.1,
            },
            "B_BLOCK every 10 (Fig. 2)",
        ),
        (PicStrategy::Oracle, "B_BLOCK every step"),
    ];
    let mut rows = Vec::new();
    for (strategy, label) in strategies {
        let machine = Machine::new(p, cost.clone());
        let r = pic::run(
            &PicConfig {
                ncell,
                steps,
                strategy,
            },
            &machine,
            &init,
        );
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", r.mean_imbalance),
            format!("{:.2}", r.max_imbalance),
            r.rebalance_count.to_string(),
            r.rebalance_bytes.to_string(),
            format!("{:.2}", r.stats.load_imbalance()),
            table::fmt_time(r.stats.critical_time()),
        ]);
    }
    table::markdown(
        &[
            "strategy",
            "mean particle imbalance",
            "max particle imbalance",
            "rebalances",
            "rebalance bytes",
            "compute-time imbalance",
            "modelled time",
        ],
        &rows,
    )
}

/// E4 — cost of the `DISTRIBUTE` statement itself across distribution-type
/// pairs, with the aggregation and `NOTRANSFER` ablations.
pub fn e4_redistribute(cost: &CostModel, sizes: &[usize], p: usize) -> String {
    let mut rows = Vec::new();
    for &n in sizes {
        let pairs: Vec<(&str, DistType, DistType)> = vec![
            (
                "BLOCK -> CYCLIC",
                DistType::block1d(),
                DistType::cyclic1d(1),
            ),
            (
                "BLOCK -> CYCLIC(16)",
                DistType::block1d(),
                DistType::cyclic1d(16),
            ),
            (
                "BLOCK -> B_BLOCK(skewed)",
                DistType::block1d(),
                DistType::gen_block1d(skewed_sizes(n, p)),
            ),
            (
                "CYCLIC -> BLOCK",
                DistType::cyclic1d(1),
                DistType::block1d(),
            ),
        ];
        for (label, from, to) in pairs {
            let procs = ProcessorView::linear(p);
            let dist_from =
                Distribution::new(from, IndexDomain::d1(n), procs.clone()).expect("valid");
            let dist_to = Distribution::new(to, IndexDomain::d1(n), procs).expect("valid");

            let run_with = |opts: &RedistOptions| {
                let tracker = CommTracker::new(p, cost.clone());
                let mut a = DistArray::from_fn("A", dist_from.clone(), |pt| pt.coord(0) as f64);
                let report = vf_runtime::redistribute(
                    &mut a,
                    dist_to.clone(),
                    &tracker,
                    opts,
                    &vf_runtime::PlanCache::new(),
                    &vf_runtime::SerialExecutor,
                )
                .expect("same domain");
                (report, tracker.snapshot().critical_time())
            };
            let (agg, t_agg) = run_with(&RedistOptions::default());
            // The per-element strategy is priced, not executed: the same
            // plan charged one message per element on a tracker of its own.
            let t_elem = {
                let tracker = CommTracker::new(p, cost.clone());
                let plan = vf_runtime::PlanCache::new()
                    .redistribute_plan(&dist_from, &dist_to)
                    .expect("same domain");
                plan.charge(&tracker, 8, false);
                tracker.snapshot().critical_time()
            };
            let (nt, t_nt) = run_with(&RedistOptions::notransfer());
            rows.push(vec![
                n.to_string(),
                label.to_string(),
                agg.moved_elements.to_string(),
                agg.messages.to_string(),
                agg.bytes.to_string(),
                table::fmt_time(t_agg),
                table::fmt_time(t_elem),
                format!("{} ({})", table::fmt_time(t_nt), nt.messages),
            ]);
        }
    }
    table::markdown(
        &[
            "elements",
            "redistribution",
            "moved",
            "msgs (aggregated)",
            "bytes",
            "t aggregated",
            "t element-wise",
            "t NOTRANSFER (msgs)",
        ],
        &rows,
    )
}

fn skewed_sizes(n: usize, p: usize) -> Vec<usize> {
    // Half the elements on the first processor, the rest spread evenly.
    let mut sizes = vec![0usize; p];
    sizes[0] = n / 2;
    let rest = n - sizes[0];
    for (i, s) in sizes.iter_mut().enumerate().skip(1) {
        *s = rest / (p - 1) + usize::from(i - 1 < rest % (p - 1));
    }
    sizes
}

/// E5 — DCASE query matching and reaching-distribution analysis overheads.
/// Each row times at least one `SELECT DCASE`, so `repeats == 0` is read
/// as 1 rather than dividing the elapsed time by zero.
pub fn e5_queries(clause_counts: &[usize], repeats: usize) -> String {
    let repeats = repeats.max(1);
    let mut rows = Vec::new();
    for &clauses in clause_counts {
        let mut scope: VfScope<f64> = VfScope::new(Machine::new(4, CostModel::zero()));
        scope
            .declare_dynamic(
                DynamicDecl::new("B", IndexDomain::d2(16, 16)).initial(DistType::blocks2d()),
            )
            .expect("declaration is valid");
        // Build a DCASE whose matching clause is the last one.
        let mut dcase = Dcase::new(["B"]);
        for k in 0..clauses.saturating_sub(1) {
            dcase = dcase.when_positional([DistPattern::dims(vec![
                DimPattern::Cyclic(k + 2),
                DimPattern::Star,
            ])]);
        }
        dcase = dcase.when_positional([DistPattern::exact(&DistType::blocks2d())]);
        let start = Instant::now();
        let mut selected = None;
        for _ in 0..repeats {
            selected = dcase.select(&scope).expect("valid construct");
        }
        let elapsed = start.elapsed().as_secs_f64() / repeats as f64;
        rows.push(vec![
            clauses.to_string(),
            selected
                .map(|i| i.to_string())
                .unwrap_or_else(|| "-".into()),
            format!("{:.2} us", elapsed * 1e6),
        ]);
    }
    table::markdown(
        &["clauses", "selected index", "time per SELECT DCASE"],
        &rows,
    )
}

/// E5 — reaching-distribution analysis on synthetic programs: `stmts`
/// statements alternating conditionally-redistributed accesses.
pub fn e5_analysis(sizes: &[usize]) -> String {
    let mut rows = Vec::new();
    for &stmts in sizes {
        let program = synthetic_program(stmts);
        let start = Instant::now();
        let result = ReachingDistributions::analyze(&program);
        let elapsed = start.elapsed().as_secs_f64();
        let max_set = result
            .accesses()
            .iter()
            .map(|a| a.plausible.len())
            .max()
            .unwrap_or(0);
        let resolved = result
            .accesses()
            .iter()
            .filter(|a| a.plausible.len() == 1)
            .count();
        rows.push(vec![
            stmts.to_string(),
            result.accesses().len().to_string(),
            resolved.to_string(),
            max_set.to_string(),
            format!("{:.2} ms", elapsed * 1e3),
        ]);
    }
    table::markdown(
        &[
            "IR statements",
            "accesses",
            "accesses with singleton set",
            "largest plausible set",
            "analysis time",
        ],
        &rows,
    )
}

/// Builds a synthetic analysis workload of roughly `stmts` statements: a
/// loop containing conditional redistributions among a few types plus
/// accesses, mirroring phase-structured production codes.
pub fn synthetic_program(stmts: usize) -> Program {
    let types = [
        DistPattern::exact(&DistType::columns()),
        DistPattern::exact(&DistType::rows()),
        DistPattern::exact(&DistType::blocks2d()),
        DistPattern::dims(vec![DimPattern::CyclicAny, DimPattern::Star]),
    ];
    let mut body = Vec::new();
    let groups = (stmts / 4).max(1);
    for g in 0..groups {
        let t = types[g % types.len()].clone();
        body.push(Stmt::if_then(vec![Stmt::distribute("A", t)]));
        body.push(Stmt::access("A", format!("acc{g}a")));
        body.push(Stmt::distribute("A", types[(g + 1) % types.len()].clone()));
        body.push(Stmt::access("A", format!("acc{g}b")));
    }
    Program::new()
        .with_initial("A", DistPattern::exact(&DistType::columns()))
        .stmt(Stmt::loop_(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_tables_render_and_show_a_crossover() {
        let t = e1_analytic(&CostModel::ipsc860(64), &[64, 512, 4096], &[4, 64]);
        assert!(t.contains("winner"));
        // On 4 processors the column layout wins (2 messages, and splitting
        // into 2-D blocks does not shrink them); on 64 processors the 2-D
        // block layout wins because each message carries N/8 elements.
        assert!(t.contains("columns"));
        assert!(t.contains("2-D blocks"));
        let sim = e1_simulated(&CostModel::ipsc860(4), &[16], 4, 1);
        assert!(sim.lines().count() >= 3);
    }

    #[test]
    fn e2_table_contains_all_strategies() {
        let t = e2_adi(&CostModel::latency_bound(), &[16], &[4], 1);
        assert!(t.contains("dynamic DISTRIBUTE"));
        assert!(t.contains("two copies"));
        assert_eq!(t.lines().count(), 2 + 4);
    }

    #[test]
    fn e3_table_contains_all_strategies() {
        let t = e3_pic(&CostModel::modern_cluster(), 64, 500, 10, 4);
        assert!(t.contains("static BLOCK"));
        assert!(t.contains("Fig. 2"));
        assert_eq!(t.lines().count(), 2 + 3);
    }

    #[test]
    fn e4_table_covers_pairs_and_ablation() {
        let t = e4_redistribute(&CostModel::ipsc860(4), &[1024], 4);
        assert!(t.contains("BLOCK -> CYCLIC"));
        assert!(t.contains("NOTRANSFER"));
    }

    #[test]
    fn e5_tables_run() {
        let q = e5_queries(&[1, 4], 10);
        assert!(q.contains("SELECT DCASE"));
        let a = e5_analysis(&[16, 64]);
        assert!(a.contains("analysis time"));
        let program = synthetic_program(64);
        let result = ReachingDistributions::analyze(&program);
        assert!(!result.accesses().is_empty());
        assert!(result.undistributed_accesses().is_empty());
    }

    #[test]
    fn e5_queries_with_zero_repeats_prints_finite_cells() {
        let q = e5_queries(&[1, 4], 0);
        for row in q.lines().skip(2) {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            assert!(cells[2].parse::<usize>().is_ok(), "no clause ran: {row}");
            let us: f64 = cells[3].trim_end_matches(" us").parse().unwrap();
            assert!(us.is_finite(), "non-finite time cell: {row}");
        }
    }

    #[test]
    fn skewed_sizes_cover_the_domain() {
        for n in [64usize, 1000, 4096] {
            for p in [2usize, 4, 7] {
                assert_eq!(skewed_sizes(n, p).iter().sum::<usize>(), n);
            }
        }
    }
}
