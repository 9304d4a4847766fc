//! E6 — irregular workloads: `INDIRECT` distributions, the distributed
//! translation table, and schedule reuse.
//!
//! Three comparisons:
//!
//! 1. the unstructured-mesh edge sweep under `BLOCK`-by-id versus an
//!    `INDIRECT` mapping-array partition (communication volume and
//!    modelled time),
//! 2. the translation table cold versus warm (page fetches on first
//!    planning, none on replans),
//! 3. cold versus cached planning of an indirect `DISTRIBUTE`.
//!
//! Custom harness (no criterion) because the run doubles as a CI guard:
//! planning a repeated indirect `DISTRIBUTE` from the [`PlanCache`] must
//! stay at least 10× faster than cold planning (a regression here means
//! indirect plans stopped hitting the cache — the PARTI schedule-reuse
//! property).  Set `VF_E6_SKIP_GUARD=1` to report without enforcing.

use std::hint::black_box;
use std::sync::Arc;
use vf_apps::mesh::{run_sweep, unstructured_mesh, MeshPartition, MeshSweepConfig};
use vf_bench::timing::{secs, time_min};
use vf_core::prelude::*;
use vf_runtime::plan::plan_redistribute;
use vf_runtime::DistTranslationTable;

const PROCS: usize = 8;
const REPS: usize = 5;

fn main() {
    println!("# E6 — irregular (INDIRECT) workloads\n");

    // 1. Mesh sweep: regular BLOCK vs indirect partition.
    let mesh = unstructured_mesh(64, 48, 7);
    let machine = Machine::new(PROCS, CostModel::ipsc860(PROCS));
    let steps = 4usize;
    println!(
        "## mesh sweep ({} nodes, {} edges, {PROCS} procs, {steps} steps)\n",
        mesh.num_nodes(),
        mesh.num_edges()
    );
    println!("| distribution | edge cut | gathered elems | messages | modelled time |");
    println!("|---|---|---|---|---|");
    let mut report = vf_bench::json::BenchReport::new();
    let mut results = Vec::new();
    for (name, key, partition) in [
        ("BLOCK by id", "mesh_sweep_block", MeshPartition::Block),
        (
            "INDIRECT(coordinate)",
            "mesh_sweep_coordinate",
            MeshPartition::Coordinate,
        ),
        (
            "INDIRECT(greedy)",
            "mesh_sweep_greedy",
            MeshPartition::Greedy,
        ),
    ] {
        let r = run_sweep(
            &mesh,
            &MeshSweepConfig {
                steps,
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
        report
            .entry(key)
            .num("modelled_ns", r.stats.critical_time() * 1e9)
            .int("messages", r.stats.total_messages())
            .int("bytes", r.stats.total_bytes())
            .int("edge_cut", r.edge_cut_initial)
            .int("gathered_elements", r.gathered_elements);
        results.push(r);
    }
    assert!(
        results[1].gathered_elements < results[0].gathered_elements,
        "the mapping-array partition must beat BLOCK-by-id on a shuffled mesh"
    );
    assert_eq!(
        results[0].values, results[1].values,
        "values must be partition-independent"
    );

    // 2. Translation table: cold build + first walk vs warm replays.
    let n = 1usize << 16;
    let procs = ProcessorView::linear(PROCS);
    let owners: Vec<usize> = (0..n).map(|i| (i * 31 + 7) % PROCS).collect();
    let indirect = Distribution::new(
        DistType::indirect1d(Arc::new(IndirectMap::new(owners).unwrap())),
        IndexDomain::d1(n),
        procs.clone(),
    )
    .unwrap();
    let block = Distribution::new(DistType::block1d(), IndexDomain::d1(n), procs).unwrap();
    let table = DistTranslationTable::build(&indirect);
    for lin in 0..n {
        table.lookup_from(ProcId(lin % PROCS), lin);
    }
    let cold = table.stats();
    for lin in 0..n {
        table.lookup_from(ProcId(lin % PROCS), lin);
    }
    let warm = table.stats();
    println!(
        "\n## translation table ({} pages of {} entries)\n\ncold sweep: {} page fetches, {} bytes; \
         warm sweep: +{} fetches (all {} lookups cached)",
        table.num_pages(),
        table.page_size(),
        cold.page_fetches,
        cold.fetched_bytes,
        warm.page_fetches - cold.page_fetches,
        n
    );
    assert_eq!(warm.page_fetches, cold.page_fetches, "warm sweep refetched");

    // 3. Cold vs cached planning of an indirect DISTRIBUTE.
    println!("\n## indirect DISTRIBUTE planning, {n} elements\n");
    let t_cold = time_min(REPS, || {
        // Cold: directory build + full inspector walk.
        let table = DistTranslationTable::build(&indirect);
        black_box(table.num_pages());
        plan_redistribute(&block, &indirect)
            .unwrap()
            .moved_elements()
    });
    let cache = PlanCache::new();
    cache.redistribute_plan(&block, &indirect).unwrap();
    let t_cached = time_min(REPS, || {
        cache
            .redistribute_plan(&block, &indirect)
            .unwrap()
            .moved_elements()
    });
    let ratio = secs(t_cold) / secs(t_cached);
    println!(
        "cold (table build + plan): {:.3e} s; cached (PlanCache hit): {:.3e} s; speedup {:.0}x",
        secs(t_cold),
        secs(t_cached),
        ratio
    );
    report
        .entry("translation_table")
        .int("pages", table.num_pages())
        .int("page_fetches_cold", cold.page_fetches as usize)
        .int("fetched_bytes_cold", cold.fetched_bytes);
    report
        .entry("indirect_plan_cold")
        .num("ns_per_op", secs(t_cold) * 1e9);
    report
        .entry("indirect_plan_cached")
        .num("ns_per_op", secs(t_cached) * 1e9);
    report.entry("plan_cache").ratio("speedup", ratio);
    report.write("BENCH_e6.json", "VF_E6_BENCH_JSON");

    // CI guard: cached indirect planning must stay >= 10x faster than cold.
    if std::env::var_os("VF_E6_SKIP_GUARD").is_some() {
        println!("\nguard skipped (VF_E6_SKIP_GUARD set)");
        return;
    }
    let mut ratio = ratio;
    // Re-measure before declaring a regression on a noisy shared runner.
    for _ in 0..2 {
        if ratio >= 10.0 {
            break;
        }
        let c = secs(time_min(REPS, || {
            let table = DistTranslationTable::build(&indirect);
            black_box(table.num_pages());
            plan_redistribute(&block, &indirect)
                .unwrap()
                .moved_elements()
        }));
        let h = secs(time_min(REPS, || {
            cache
                .redistribute_plan(&block, &indirect)
                .unwrap()
                .moved_elements()
        }));
        ratio = c / h;
    }
    if ratio < 10.0 {
        eprintln!(
            "FAIL: cached indirect planning is only {ratio:.1}x faster than cold (limit 10x)"
        );
        std::process::exit(1);
    }
    println!("\nguard ok: cached/cold planning speedup = {ratio:.0}x (limit 10x)");
}
