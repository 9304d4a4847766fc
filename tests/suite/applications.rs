//! Integration tests of the application kernels against their sequential
//! references and the paper's qualitative claims.

use vf_apps::adi::{self, AdiConfig, AdiStrategy};
use vf_apps::pic::{self, PicConfig, PicStrategy};
use vf_apps::smoothing::{self, SmoothingConfig, SmoothingLayout};
use vf_apps::workloads::{self, ParticleLayout};
use vf_core::prelude::*;
use vf_integration::zero_machine;

#[test]
fn smoothing_matches_reference_for_many_processor_counts() {
    // Bitwise, on grids from one point up and on square processor counts
    // beyond them: N = 4 on 16 processors gives interior segments one row
    // thick, whose north and south neighbours both come from the frame,
    // and small grids on many processors leave some segments empty.
    let steps = 4;
    let bits = |field: &[f64]| field.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for n in (1..=10).chain([16]) {
        let initial = workloads::initial_grid(n, 21);
        let reference = bits(&smoothing::sequential_reference(n, steps, &initial));
        for p in [1usize, 2, 3, 4, 6, 8, 9, 16, 25] {
            for layout in [SmoothingLayout::Columns, SmoothingLayout::Blocks2D] {
                let machine = zero_machine(p);
                let r = smoothing::run(&SmoothingConfig { n, steps, layout }, &machine, &initial);
                assert_eq!(
                    bits(&r.field),
                    reference,
                    "{layout:?} with {p} processors diverges at N = {n}"
                );
            }
        }
    }
}

#[test]
fn smoothing_crossover_matches_the_analytic_chooser() {
    // For a machine and size where the analytic model prefers each layout,
    // the simulated per-step critical time must agree with the preference.
    let p = 16;
    let steps = 2;
    for (cost, n) in [
        (CostModel::latency_bound(), 48usize),
        (CostModel::bandwidth_bound(), 96usize),
    ] {
        let initial = workloads::initial_grid(n, 2);
        let chosen = smoothing::choose_layout(n, p, &cost);
        let mut measured = Vec::new();
        for layout in [SmoothingLayout::Columns, SmoothingLayout::Blocks2D] {
            let machine = Machine::new(p, cost.clone());
            let r = smoothing::run(&SmoothingConfig { n, steps, layout }, &machine, &initial);
            measured.push((layout, r.stats.critical_time()));
        }
        measured.sort_by(|a, b| a.1.total_cmp(&b.1));
        assert_eq!(
            measured[0].0, chosen,
            "chooser and simulation disagree for n={n}"
        );
    }
}

#[test]
fn adi_strategies_agree_with_reference_across_sizes() {
    for n in [8usize, 20] {
        let initial = workloads::initial_grid(n, 31);
        let reference = adi::sequential_reference(n, 2, &initial);
        for strategy in [
            AdiStrategy::StaticColumns,
            AdiStrategy::StaticRows,
            AdiStrategy::DynamicRedistribute,
            AdiStrategy::TwoCopies,
        ] {
            let machine = zero_machine(3);
            let r = adi::run(
                &AdiConfig {
                    n,
                    iterations: 2,
                    strategy,
                },
                &machine,
                &initial,
            );
            for (a, b) in r.field.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-9, "{strategy:?} diverges at n={n}");
            }
        }
    }
}

#[test]
fn adi_communication_breakdown_matches_figure1_claim() {
    // Figure 1's point: with dynamic redistribution all communication is in
    // the DISTRIBUTE; with a static distribution it is in one of the sweeps;
    // and the dynamic total bytes are below the static sweep bytes for the
    // gather/scatter model.
    let n = 32;
    let p = 4;
    let initial = workloads::initial_grid(n, 13);
    let run_strategy = |strategy| {
        let machine = zero_machine(p);
        adi::run(
            &AdiConfig {
                n,
                iterations: 1,
                strategy,
            },
            &machine,
            &initial,
        )
    };
    let dynamic = run_strategy(AdiStrategy::DynamicRedistribute);
    let static_cols = run_strategy(AdiStrategy::StaticColumns);
    assert_eq!(dynamic.sweep_messages, 0);
    assert_eq!(static_cols.redist_messages, 0);
    assert!(static_cols.sweep_messages > 0);
    assert!(dynamic.redist_messages > 0);
    // The dynamic strategy sends fewer, larger messages.
    assert!(dynamic.redist_messages < static_cols.sweep_messages);
}

#[test]
fn pic_dynamic_strategy_keeps_imbalance_bounded_as_the_cloud_drifts() {
    let ncell = 128;
    let init = workloads::particles(
        ncell,
        1500,
        ParticleLayout::Cluster {
            center: 0.15,
            width: 0.05,
        },
        0.5,
        41,
    );
    let run_strategy = |strategy| {
        let machine = Machine::new(8, CostModel::modern_cluster());
        pic::run(
            &PicConfig {
                ncell,
                steps: 40,
                strategy,
            },
            &machine,
            &init,
        )
    };
    let static_block = run_strategy(PicStrategy::StaticBlock);
    let dynamic = run_strategy(PicStrategy::DynamicGenBlock {
        period: 10,
        threshold: 1.1,
    });

    assert_eq!(static_block.total_particles, 1500);
    assert_eq!(dynamic.total_particles, 1500);
    // The static distribution becomes badly imbalanced at some point; the
    // dynamic one stays closer to balanced on average.
    assert!(static_block.max_imbalance > 1.5);
    assert!(dynamic.mean_imbalance < static_block.mean_imbalance);
    // Rebalancing happened but not every step.
    assert!(dynamic.rebalance_count >= 1);
    assert!(dynamic.rebalance_count <= 4);
    // And the modelled execution time improves despite the redistribution
    // traffic (the paper's overall claim about judicious use of dynamic
    // distributions).
    assert!(dynamic.stats.critical_time() < static_block.stats.critical_time());
}

#[test]
fn pic_imbalance_drops_right_after_a_rebalance_step() {
    let ncell = 96;
    let init = workloads::particles(
        ncell,
        1200,
        ParticleLayout::Cluster {
            center: 0.25,
            width: 0.06,
        },
        0.4,
        11,
    );
    let machine = zero_machine(6);
    let r = pic::run(
        &PicConfig {
            ncell,
            steps: 30,
            strategy: PicStrategy::DynamicGenBlock {
                period: 10,
                threshold: 1.05,
            },
        },
        &machine,
        &init,
    );
    // Find a step where a rebalance occurred and compare the imbalance
    // observed at the next step.
    let mut checked = 0;
    for w in r.per_step.windows(2) {
        if w[0].rebalanced {
            assert!(
                w[1].imbalance <= w[0].imbalance + 0.3,
                "imbalance should not grow right after rebalancing"
            );
            checked += 1;
        }
    }
    assert!(checked >= 1, "expected at least one rebalance in 30 steps");
}
