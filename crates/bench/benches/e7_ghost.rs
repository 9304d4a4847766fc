//! E7 — the unified halo subsystem: fused class ghost exchange and
//! irregular (INDIRECT) ghost regions via PARTI incremental schedules.
//!
//! Three comparisons:
//!
//! 1. a class of stencil fields smoothing together: fused halo exchange
//!    (one message per communicating processor pair for the whole class)
//!    versus per-field exchange,
//! 2. the unstructured-mesh edge sweep on incremental-schedule halos:
//!    `BLOCK`-by-id versus an `INDIRECT` mapping-array partition,
//! 3. cold versus warm incremental-schedule planning (directory build +
//!    connectivity walk versus a `PlanCache` hit).
//!
//! Custom harness (no criterion) because the run doubles as two CI guards:
//! the fused class halo must use **no more messages than per-field
//! exchange** (it uses exactly `1/fields` as many), and warm
//! incremental-schedule planning must stay at least 10× faster than cold —
//! a regression in either means fusion or schedule reuse silently stopped
//! working.  Set `VF_E7_SKIP_GUARD=1` to report without enforcing.

use std::hint::black_box;
use std::sync::Arc;
use vf_apps::mesh::{run_sweep, unstructured_mesh, MeshPartition, MeshSweepConfig};
use vf_apps::smoothing::{run, run_class, SmoothingConfig, SmoothingLayout};
use vf_apps::workloads;
use vf_bench::timing::{secs, time_min};
use vf_core::prelude::*;
use vf_runtime::plan::plan_ghost_irregular;

const PROCS: usize = 8;
const REPS: usize = 5;

fn main() {
    println!("# E7 — unified halo subsystem\n");

    // 1. Fused class halos: K coupled smoothing fields per step.
    let n = 96usize;
    let steps = 2usize;
    let fields = 4usize;
    let initials: Vec<Vec<f64>> = (0..fields)
        .map(|k| workloads::initial_grid(n, k as u64 + 1))
        .collect();
    println!("## class-fused halo exchange ({n}x{n} grid, {fields} fields, {PROCS} procs)\n");
    println!("| layout | fused msg/step | per-field msg/step | bytes/step |");
    println!("|---|---|---|---|");
    let mut report = vf_bench::json::BenchReport::new();
    let mut fused_ok = true;
    for (key, layout) in [
        ("fused_halo_columns", SmoothingLayout::Columns),
        ("fused_halo_blocks2d", SmoothingLayout::Blocks2D),
    ] {
        let machine = Machine::new(PROCS, CostModel::ipsc860(PROCS));
        let class = run_class(&SmoothingConfig { n, steps, layout }, &machine, &initials);
        println!(
            "| {layout:?} | {} | {} | {} |",
            class.messages_per_step, class.unfused_messages_per_step, class.bytes_per_step
        );
        report
            .entry(key)
            .int("messages_per_step", class.messages_per_step)
            .int("unfused_messages_per_step", class.unfused_messages_per_step)
            .int("bytes_per_step", class.bytes_per_step);
        fused_ok &= class.messages_per_step <= class.unfused_messages_per_step
            && fields * class.messages_per_step == class.unfused_messages_per_step;
        // The fused run is field-for-field bitwise identical to
        // independent runs.
        let machine = Machine::new(PROCS, CostModel::ipsc860(PROCS));
        let single = run(
            &SmoothingConfig { n, steps, layout },
            &machine,
            &initials[0],
        );
        assert_eq!(
            class.fields[0], single.field,
            "{layout:?} fusion changed values"
        );
    }

    // 2. Mesh sweep on incremental-schedule halos.
    let mesh = unstructured_mesh(64, 48, 7);
    let machine = Machine::new(PROCS, CostModel::ipsc860(PROCS));
    let sweep_steps = 4usize;
    println!(
        "\n## mesh sweep on incremental schedules ({} nodes, {} edges, {sweep_steps} steps)\n",
        mesh.num_nodes(),
        mesh.num_edges()
    );
    println!("| distribution | edge cut | halo elems | messages | modelled time |");
    println!("|---|---|---|---|---|");
    let mut results = Vec::new();
    for (name, partition) in [
        ("BLOCK by id", MeshPartition::Block),
        ("INDIRECT(greedy)", MeshPartition::Greedy),
    ] {
        let r = run_sweep(
            &mesh,
            &MeshSweepConfig {
                steps: sweep_steps,
                partition,
                repartition_at: None,
            },
            &machine,
        );
        println!(
            "| {name} | {} | {} | {} | {:.3e} s |",
            r.edge_cut_initial,
            r.gathered_elements,
            r.stats.total_messages(),
            r.stats.critical_time()
        );
        results.push(r);
    }
    assert_eq!(
        results[0].values, results[1].values,
        "halo values must be partition-independent"
    );
    assert!(
        results[1].gathered_elements < results[0].gathered_elements,
        "the mesh-aware partition must shrink the halo"
    );

    // 3. Cold vs warm incremental-schedule planning.
    let conn = mesh.connectivity();
    let owners: Vec<usize> = (0..mesh.num_nodes())
        .map(|u| (u * 31 + 7) % PROCS)
        .collect();
    let indirect = Distribution::new(
        DistType::indirect1d(Arc::new(IndirectMap::new(owners).unwrap())),
        IndexDomain::d1(mesh.num_nodes()),
        ProcessorView::linear(PROCS),
    )
    .unwrap();
    println!(
        "\n## incremental-schedule planning, {} nodes / {} edges\n",
        conn.num_nodes(),
        conn.num_edges()
    );
    let cold_once = || {
        // Cold: directory build + full connectivity walk.
        let table = DistTranslationTable::build(&indirect);
        black_box(table.num_pages());
        plan_ghost_irregular(&indirect, &conn)
            .unwrap()
            .moved_elements()
    };
    let t_cold = time_min(REPS, cold_once);
    let cache = PlanCache::new();
    cache.ghost_irregular_plan(&indirect, &conn).unwrap();
    let warm_once = || {
        cache
            .ghost_irregular_plan(&indirect, &conn)
            .unwrap()
            .moved_elements()
    };
    let t_warm = time_min(REPS, warm_once);
    let mut ratio = secs(t_cold) / secs(t_warm);
    println!(
        "cold (table build + incremental schedule): {:.3e} s; warm (PlanCache hit): {:.3e} s; speedup {ratio:.0}x",
        secs(t_cold),
        secs(t_warm)
    );
    report
        .entry("incremental_plan_cold")
        .num("ns_per_op", secs(t_cold) * 1e9);
    report
        .entry("incremental_plan_warm")
        .num("ns_per_op", secs(t_warm) * 1e9);
    report.entry("schedule_reuse").ratio("speedup", ratio);
    report.write("BENCH_e7.json", "VF_E7_BENCH_JSON");

    // CI guards.
    if std::env::var_os("VF_E7_SKIP_GUARD").is_some() {
        println!("\nguards skipped (VF_E7_SKIP_GUARD set)");
        return;
    }
    if !fused_ok {
        eprintln!("FAIL: fused class halo exchange used more messages than per-field exchange");
        std::process::exit(1);
    }
    println!("\nguard ok: fused class halo <= per-field message count (exactly 1/{fields})");
    // Re-measure before declaring a regression on a noisy shared runner.
    for _ in 0..2 {
        if ratio >= 10.0 {
            break;
        }
        ratio = secs(time_min(REPS, cold_once)) / secs(time_min(REPS, warm_once));
    }
    if ratio < 10.0 {
        eprintln!(
            "FAIL: warm incremental-schedule planning is only {ratio:.1}x faster than cold (limit 10x)"
        );
        std::process::exit(1);
    }
    println!("guard ok: warm/cold incremental-schedule planning speedup = {ratio:.0}x (limit 10x)");
}
