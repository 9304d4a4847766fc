//! Owner-computes on local views, held to per-element oracles.
//!
//! * One table over layouts (one to three dimensions) × overlap widths
//!   (lopsided ones in both directions) × processor counts (more
//!   processors than columns included, so some segments are empty): a
//!   [`LocalView`] indexes like `loc_map`, and every point of every
//!   processor's extended box reads — in place, through the `(lo, mid,
//!   hi)` lines of `GhostRegion::overlap`, whose `mid` on a line crossing
//!   the segment is the owned column of the local buffer itself — the
//!   value `GhostRegion::get(Point)` and the owner's `DistArray::get`
//!   give, after an exchange on Serial, the pooled backend with cutoff 0
//!   and Sharded.
//! * The irregular overlap area, for `BLOCK` and `INDIRECT` layouts of a
//!   mesh on up to more processors than nodes: `GhostRegion::overlap` is
//!   `[local | ghosts]`, every localised neighbour index resolves through
//!   the local-to-global runs and the sorted ghost list to the global CSR
//!   neighbour, every ghost holds its owner's value, the interior and
//!   boundary rows partition the local rows, and `forall_owned` computes on
//!   the list a layout owns.
//! * `DistArray::from_dense` / `to_dense` (which copy runs) against a
//!   per-element `owners` + `loc_map` oracle, for every kind of
//!   distribution.
//! * `smoothing::run` on each ambient backend, and
//!   `smoothing::try_run` on Sharded, bitwise equal to the sequential
//!   reference, with the statistics the per-point kernels charged before
//!   the port, pinned.

use proptest::prelude::*;
use std::sync::Arc;
use vf_apps::mesh::unstructured_mesh;
use vf_apps::smoothing::{self, SmoothingConfig, SmoothingLayout};
use vf_apps::workloads;
use vf_core::prelude::*;
use vf_core::vf_dist::AlignExpr;
use vf_integration::{for_each_ambient_backend, forced_threaded};
use vf_runtime::ghost::{exchange_ghosts, OverlapView};
use vf_runtime::RuntimeError;

const ROWS: usize = 7;
const COLS: usize = 5;

/// `COLS` column counts over `p` blocks, uneven and (for `p > 2`) with
/// empty blocks.
fn uneven_blocks(p: usize) -> Vec<usize> {
    let mut sizes = vec![0; p];
    for c in 0..COLS {
        sizes[(c * c + c) % p] += 1;
    }
    sizes
}

/// The layouts of the table on `p` processors, each with a label.
fn layouts(p: usize) -> Vec<(&'static str, Distribution)> {
    let d2 = |t: DistType| {
        Distribution::new(t, IndexDomain::d2(ROWS, COLS), ProcessorView::linear(p)).unwrap()
    };
    let gen_block = DistType::new(vec![
        DimDist::not_distributed(),
        DimDist::gen_block(uneven_blocks(p)),
    ]);
    let replicated = DistType::new(vec![DimDist::not_distributed(); 2]);
    let block1d = Distribution::new(
        DistType::block1d(),
        IndexDomain::d1(ROWS),
        ProcessorView::linear(p),
    );
    let blocks3d = Distribution::new(
        DistType::new(vec![DimDist::block(); 3]),
        IndexDomain::d3(ROWS, COLS, 4),
        ProcessorView::linear(p),
    );
    vec![
        ("(:,BLOCK)", d2(DistType::columns())),
        ("(BLOCK,:)", d2(DistType::rows())),
        ("(BLOCK,BLOCK)", d2(DistType::blocks2d())),
        ("(:,GEN_BLOCK)", d2(gen_block)),
        ("(BLOCK)", block1d.unwrap()),
        ("replicated", d2(replicated)),
        ("(BLOCK,BLOCK,BLOCK)", blocks3d.unwrap()),
    ]
}

fn field(dist: &Distribution) -> DistArray<f64> {
    let value = |pt: &Point| pt.coords().iter().fold(0.5, |v, &c| v * 31.0 + c as f64);
    DistArray::from_fn("F", dist.clone(), value)
}

/// `segment` widened by `width` in every dimension and clipped to `domain`
/// (itself when it is empty).
fn widened(segment: &IndexDomain, width: (usize, usize), domain: &IndexDomain) -> IndexDomain {
    if segment.is_empty() {
        return segment.clone();
    }
    let dims = segment.dims().iter().zip(domain.dims()).map(|(seg, dom)| {
        let lower = (seg.lower() - width.0 as i64).max(dom.lower());
        let upper = (seg.upper() + width.1 as i64).min(dom.upper());
        DimRange::new(lower, upper).unwrap()
    });
    IndexDomain::new(dims.collect()).unwrap()
}

fn check_views_and_extended_boxes<E: PlanExecutor>(backend: &str, executor: &E) {
    for p in [1usize, 2, 3, 4, 6, 8, 9] {
        for (layout, dist) in layouts(p) {
            let a = field(&dist);
            for width in [(1usize, 1usize), (2, 0), (0, 2), (0, 0)] {
                let ctx = format!("{backend} {layout} on {p}, widths {width:?}");
                let widths = vec![width; dist.domain().rank()];
                let plan = PlanCache::new().ghost_plan(&dist, &widths).unwrap();
                let tracker = CommTracker::new(p, CostModel::zero());
                let (ghosts, _) = exchange_ghosts(&a, &plan, &tracker, executor).unwrap();
                for &q in dist.proc_ids() {
                    // The view indexes the local buffer like `loc_map`.
                    let view = LocalView::new(&dist, q, a.local(q)).unwrap();
                    assert_eq!(view.segment(), &dist.local_segment(q).unwrap(), "{ctx}");
                    for point in view.segment().iter() {
                        let at = view.segment().linearize(&point).unwrap();
                        assert_eq!(at, dist.loc_map(q, &point).unwrap(), "{ctx}: {point}");
                        assert_eq!(view[at], a.get(&point).unwrap(), "{ctx}: {point}");
                    }
                    // The overlap view covers the widened segment, and
                    // every point of it reads, in place, what the
                    // per-point paths read.
                    let Ok(OverlapView::Frame(frame)) = ghosts.overlap(q, a.local(q)) else {
                        panic!("{ctx}: {q} has no frame");
                    };
                    let expected = widened(view.segment(), width, dist.domain());
                    assert_eq!(frame.segment, view.segment(), "{ctx}: segment of {q}");
                    assert_eq!(frame.extended, &expected, "{ctx}: box of {q}");
                    assert_eq!(expected.size(), view.len() + ghosts.len(q), "{ctx}: {q}");
                    // Lines come in column-major order: one per point of
                    // the box's first row.
                    let first_row = expected.dims().first().map(|d| d.lower());
                    let starts: Vec<Point> = expected
                        .iter()
                        .filter(|pt| Some(pt.coord(0)) == first_row)
                        .collect();
                    assert_eq!(frame.lines().count(), starts.len(), "{ctx}: lines of {q}");
                    for (start, (lo, mid, hi)) in starts.into_iter().zip(frame.lines()) {
                        let ctx = format!("{ctx}: {q}, line at {start}");
                        assert_eq!(lo.len() + mid.len() + hi.len(), expected.extent(0), "{ctx}");
                        assert_eq!(mid.len(), view.segment().extent(0), "{ctx}");
                        // A line crossing the segment is the owned column
                        // itself, not a copy of it.
                        let owned_column = start.with_coord(0, view.segment().dim(0).lower());
                        if view.segment().contains(&owned_column) {
                            let at = view.segment().linearize(&owned_column).unwrap();
                            assert!(std::ptr::eq(mid, &a.local(q)[at..][..mid.len()]), "{ctx}");
                        }
                        for (k, &read) in lo.iter().chain(mid).chain(hi).enumerate() {
                            let point = start.with_coord(0, start.coord(0) + k as i64);
                            assert_eq!(read, a.get(&point).unwrap(), "{ctx}: reads {point}");
                            if !dist.is_local(q, &point) {
                                assert_eq!(ghosts.get(q, &point), Some(read), "{ctx}: {point}");
                            }
                        }
                    }
                    // Nothing outside the box is a ghost.
                    let outside = dist.domain().iter().filter(|pt| !expected.contains(pt));
                    for point in outside {
                        assert_eq!(ghosts.get(q, &point), None, "{ctx}: {q} beyond at {point}");
                    }
                }
            }
        }
    }
}

#[test]
fn extended_boxes_read_what_point_reads_read_on_every_backend() {
    check_views_and_extended_boxes("serial", &SerialExecutor);
    check_views_and_extended_boxes("pooled", &forced_threaded(2));
    let sharded = ExecBackend::Sharded(ShardedExecutor::new());
    check_views_and_extended_boxes("sharded", &sharded);
}

#[test]
fn scattered_layouts_have_no_view_and_name_their_dimension() {
    let cyclic = DistType::new(vec![DimDist::not_distributed(), DimDist::cyclic_k(1)]);
    let dist = Distribution::new(
        cyclic,
        IndexDomain::d2(ROWS, COLS),
        ProcessorView::linear(2),
    )
    .unwrap();
    let a = field(&dist);
    let scattered = |r: Result<(), RuntimeError>| match r {
        Err(RuntimeError::NonContiguousLayout { dim, .. }) => dim,
        other => panic!("expected a non-contiguous-layout refusal, got {other:?}"),
    };
    let view = LocalView::new(&dist, ProcId(0), a.local(ProcId(0)));
    assert_eq!(scattered(view.map(|_| ())), 1);
    let plan = PlanCache::new().ghost_plan(&dist, &[(1, 1), (1, 1)]);
    assert_eq!(scattered(plan.map(|_| ())), 1);
    let mut b = a.clone();
    let tracker = CommTracker::new(2, CostModel::zero());
    let swept = forall_owned(&mut [&mut b], &tracker, &SerialExecutor, |_, _| 0);
    assert_eq!(scattered(swept), 1);
    assert_eq!(b, a, "nothing ran");
}

// --- the irregular local index space -----------------------------------------

fn check_irregular_overlap_areas<E: PlanExecutor>(backend: &str, executor: &E) {
    let mesh = unstructured_mesh(5, 4, 17);
    let n = mesh.num_nodes();
    let conn = mesh.connectivity();
    let dense: Vec<f64> = (0..n).map(|u| u as f64 * 3.5 + 0.25).collect();
    for p in [1usize, 3, 4, n + 3] {
        let owners = IndirectMap::from_fn(n, |u| (u * 7 + u / 3) % p).unwrap();
        let layouts = [
            ("BLOCK", DistType::block1d()),
            ("INDIRECT", DistType::indirect1d(Arc::new(owners))),
        ];
        for (layout, t) in layouts {
            let ctx = format!("{backend} {layout} on {p}");
            let dist = Distribution::new(t, IndexDomain::d1(n), ProcessorView::linear(p)).unwrap();
            let a = DistArray::from_dense("M", dist.clone(), &dense).unwrap();
            let plan = PlanCache::new().ghost_irregular_plan(&dist, &conn).unwrap();
            let tracker = CommTracker::new(p, CostModel::zero());
            let (ghosts, _) = exchange_ghosts(&a, &plan, &tracker, executor).unwrap();
            for &q in dist.proc_ids() {
                let local = a.local(q);
                let n_local = local.len();
                // A box where the layout owns one, the local offsets
                // where it owns a list.
                let owned = match layout {
                    "INDIRECT" => IndexDomain::d1(n_local),
                    _ => dist.local_segment(q).unwrap(),
                };
                let view = LocalView::new(&dist, q, local).unwrap();
                assert_eq!(view.segment(), &owned, "{ctx}: {q}");
                let csr = plan.localised(q).unwrap();
                let mut global_of = vec![0; n_local];
                for run in dist.local_linear_runs(q) {
                    for k in 0..run.len {
                        global_of[run.local_start + k] = run.global_start + k;
                    }
                }
                // The overlap view is the buffer itself and the ghost
                // suffix.
                let Ok(OverlapView::Suffix {
                    local: own,
                    ghosts: suffix,
                }) = ghosts.overlap(q, local)
                else {
                    panic!("{ctx}: {q} has no ghost suffix");
                };
                assert!(std::ptr::eq(own, local), "{ctx}: {q}");
                assert_eq!(suffix.len(), csr.ghosts.len(), "{ctx}: {q}");
                assert!(csr.ghosts.windows(2).all(|w| w[0] < w[1]), "{ctx}: {q}");
                for (s, &g) in csr.ghosts.iter().enumerate() {
                    let point = Point::d1(g as i64 + 1);
                    assert!(!dist.is_local(q, &point), "{ctx}: {q} ghosts its own {g}");
                    let value = a.get(&point).unwrap();
                    assert_eq!(suffix[s], value, "{ctx}: {q} ghost {g}");
                    assert_eq!(ghosts.get(q, &point), Some(value), "{ctx}: {q} ghost {g}");
                }
                // Every localised neighbour is the global one.
                assert_eq!(csr.xadj.len(), n_local + 1, "{ctx}: {q}");
                let global = |l: u32| match (l as usize).checked_sub(n_local) {
                    None => global_of[l as usize],
                    Some(s) => csr.ghosts[s],
                };
                for (row, &u) in global_of.iter().enumerate() {
                    let nbrs = &csr.adjncy[csr.xadj[row] as usize..csr.xadj[row + 1] as usize];
                    let resolved: Vec<usize> = nbrs.iter().map(|&l| global(l)).collect();
                    assert_eq!(resolved, mesh.neighbors(u), "{ctx}: {q} row {row}");
                }
                // Interior rows read only owned elements; together with the
                // boundary rows they are every local row once.
                let reads_a_ghost = |&row: &u32| {
                    let r = row as usize;
                    let nbrs = &csr.adjncy[csr.xadj[r] as usize..csr.xadj[r + 1] as usize];
                    nbrs.iter().any(|&l| l as usize >= n_local)
                };
                assert!(!csr.interior.iter().any(reads_a_ghost), "{ctx}: {q}");
                assert!(csr.boundary.iter().all(reads_a_ghost), "{ctx}: {q}");
                let mut rows: Vec<u32> = [&csr.interior[..], &csr.boundary[..]].concat();
                rows.sort_unstable();
                assert_eq!(rows, (0..n_local as u32).collect::<Vec<_>>(), "{ctx}: {q}");
            }
            // The compute verb runs on both layouts' local offsets.
            let mut b = a.clone();
            forall_owned(&mut [&mut b], &tracker, executor, |_, views| {
                for (l, v) in views[0].iter_mut().enumerate() {
                    *v = l as f64;
                }
                0
            })
            .unwrap();
            for &q in dist.proc_ids() {
                let expected: Vec<f64> = (0..b.local(q).len()).map(|l| l as f64).collect();
                assert_eq!(b.local(q), expected.as_slice(), "{ctx}: {q}");
            }
        }
    }
}

#[test]
fn irregular_overlap_areas_are_the_buffer_and_a_ghost_suffix_on_every_backend() {
    check_irregular_overlap_areas("serial", &SerialExecutor);
    check_irregular_overlap_areas("pooled", &forced_threaded(2));
    let sharded = ExecBackend::Sharded(ShardedExecutor::new());
    check_irregular_overlap_areas("sharded", &sharded);
}

// --- dense conversions -------------------------------------------------------

/// Every kind of distribution `from_dense` / `to_dense` must copy by runs:
/// `kind` selects it, `n` and `p` size it.
fn any_distribution(kind: usize, n: usize, p: usize, k: usize) -> Distribution {
    let linear = |t: DistType, domain: IndexDomain| {
        Distribution::new(t, domain, ProcessorView::linear(p)).unwrap()
    };
    let d2 = IndexDomain::d2(n, n + 1);
    match kind {
        0 => linear(DistType::block1d(), IndexDomain::d1(n)),
        1 => linear(DistType::cyclic1d(k), IndexDomain::d1(n)),
        2 => {
            let mut sizes = vec![0; p];
            (0..n).for_each(|i| sizes[(i * k) % p] += 1);
            linear(DistType::gen_block1d(sizes), IndexDomain::d1(n))
        }
        3 => {
            let map = IndirectMap::from_fn(n, |i| (i * k + i / 3) % p).unwrap();
            linear(DistType::indirect1d(Arc::new(map)), IndexDomain::d1(n))
        }
        4 => linear(DistType::new(vec![DimDist::not_distributed(); 2]), d2),
        5 => linear(DistType::blocks2d(), d2),
        6 => linear(
            DistType::new(vec![DimDist::cyclic_k(k), DimDist::block()]),
            d2,
        ),
        7 => {
            // A transposed grid map: (BLOCK, CYCLIC) aligned through a
            // transpose onto a non-square processor grid.
            let base = Distribution::new(
                DistType::new(vec![DimDist::block(), DimDist::cyclic_k(k)]),
                IndexDomain::d2(n, n),
                ProcessorView::grid2d(2, 3),
            );
            construct(
                &Alignment::transpose2d(),
                &base.unwrap(),
                &IndexDomain::d2(n, n),
            )
            .unwrap()
        }
        _ => {
            // A shifted alignment: a translation-table distribution.
            let base = linear(DistType::block1d(), IndexDomain::d1(n + 2));
            let shift = Alignment::new(1, vec![AlignExpr::shifted(0, 2)]).unwrap();
            construct(&shift, &base, &IndexDomain::d1(n)).unwrap()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `from_dense` places every element where `owners` + `loc_map` say —
    /// in every copy of a replicated array — and `to_dense` reads it back.
    #[test]
    fn prop_dense_conversions_match_the_loc_map_oracle(
        kind in 0usize..9,
        n in 6usize..30,
        p in 1usize..7,
        k in 1usize..5,
    ) {
        let dist = any_distribution(kind, n, p, k);
        let domain = dist.domain().clone();
        let dense: Vec<f64> = (0..domain.size()).map(|i| (i as f64 + 0.25) * 3.0).collect();
        let a = DistArray::from_dense("A", dist.clone(), &dense).unwrap();
        a.check_invariants().unwrap();
        for (lin, point) in domain.iter().enumerate() {
            let owners = dist.owners(&point).unwrap();
            prop_assert!(!owners.is_empty());
            for owner in owners {
                let at = dist.loc_map(owner, &point).unwrap();
                prop_assert_eq!(a.local(owner)[at], dense[lin], "kind {} at {}", kind, point);
            }
        }
        prop_assert_eq!(a.to_dense(), dense);
        // Only the canonical copy of a replicated array is read back.
        if dist.is_replicated() && p > 1 {
            let mut b = a.clone();
            b.local_mut(dist.proc_ids()[1]).fill(-1.0);
            prop_assert_eq!(b.to_dense(), a.to_dense());
        }
    }
}

// --- the ported application --------------------------------------------------

const STEPS: usize = 3;

/// What the per-point kernels charged on four processors over [`STEPS`]
/// steps before the port, per grid size: total messages, total bytes, and
/// per processor the points updated per step and the ghost elements
/// received per step.
type Pinned = (usize, usize, usize, [usize; 4], [usize; 4]);
const PINNED_COLUMNS: [Pinned; 5] = [
    (3, 12, 288, [0, 1, 0, 0], [3, 6, 3, 0]),
    (4, 18, 576, [0, 2, 2, 0], [4, 8, 8, 4]),
    (5, 12, 480, [3, 6, 0, 0], [5, 10, 5, 0]),
    (12, 18, 1728, [20, 30, 30, 20], [12, 24, 24, 12]),
    (33, 18, 4752, [248, 279, 279, 155], [33, 66, 66, 33]),
];
const PINNED_BLOCKS2D: [Pinned; 5] = [
    (3, 36, 384, [1, 0, 0, 0], [5, 4, 4, 3]),
    (4, 36, 480, [1, 1, 1, 1], [5, 5, 5, 5]),
    (5, 36, 576, [4, 2, 2, 1], [7, 6, 6, 5]),
    (12, 36, 1248, [25, 25, 25, 25], [13, 13, 13, 13]),
    (33, 36, 3264, [256, 240, 240, 225], [35, 34, 34, 33]),
];

/// One FLOP costs 1 s and copying one byte 1/64 s, so every modelled time
/// is a dyadic rational and compares exactly.
fn machine() -> Machine {
    let mut cost = CostModel::from_alpha_beta(1.0, 0.125);
    cost.compute_per_flop = 1.0;
    cost.copy_per_byte = 1.0 / 64.0;
    Machine::new(4, cost)
}

fn bits(field: &[f64]) -> Vec<u64> {
    field.iter().map(|v| v.to_bits()).collect()
}

/// Holds `stats` to a pinned row, with the halo copied twice per element:
/// packed on the sender and unpacked on the receiver, the one rule of
/// every engine.
fn assert_pinned(stats: &CommStats, row: &Pinned, ctx: &str) {
    let &(_, messages, bytes, updated, ghosts) = row;
    assert_eq!(stats.total_messages(), messages, "{ctx}: messages");
    assert_eq!(stats.total_bytes(), bytes, "{ctx}: bytes");
    let copy = |q: usize| (2 * STEPS * ghosts[q] * 8) as f64 / 64.0;
    for (q, proc) in stats.per_proc().iter().enumerate() {
        let flops = (STEPS * updated[q] * 5) as f64;
        assert_eq!(proc.compute_time, flops + copy(q), "{ctx}: compute of {q}");
    }
    let credited: f64 = (0..4).map(copy).sum();
    assert_eq!(
        stats.credited_overlap_seconds(),
        credited,
        "{ctx}: credited overlap"
    );
}

/// The fallible driver on an explicit Sharded executor, without
/// checkpoints.
fn try_run_sharded(config: &SmoothingConfig, initial: &[f64]) -> smoothing::SmoothingResult {
    smoothing::try_run(config, &machine(), initial, &ShardedExecutor::new(), None)
        .expect("no faults are armed")
        .result
}

/// The drivers against the sequential reference, under whatever backend
/// the environment selects (and on Sharded for `try_run`).
fn check_smoothing(backend: &str) {
    let columns = PINNED_COLUMNS
        .iter()
        .map(|row| (SmoothingLayout::Columns, row));
    let blocks = PINNED_BLOCKS2D
        .iter()
        .map(|row| (SmoothingLayout::Blocks2D, row));
    for (layout, row) in columns.chain(blocks) {
        let n = row.0;
        let ctx = format!("{backend} n={n} {layout:?}");
        let initial = workloads::initial_grid(n, 7);
        let reference = bits(&smoothing::sequential_reference(n, STEPS, &initial));
        let config = SmoothingConfig {
            n,
            steps: STEPS,
            layout,
        };

        let run = smoothing::run(&config, &machine(), &initial);
        assert_eq!(bits(&run.field), reference, "{ctx}: run");
        assert_pinned(&run.stats, row, &format!("{ctx}: run"));

        let sharded = try_run_sharded(&config, &initial);
        assert_eq!(bits(&sharded.field), reference, "{ctx}: try_run");
        assert_pinned(&sharded.stats, row, &format!("{ctx}: try_run"));
    }
    // Grids with no interior come back unchanged, without a panic.
    for n in [1usize, 2] {
        for layout in [SmoothingLayout::Columns, SmoothingLayout::Blocks2D] {
            let initial = workloads::initial_grid(n, 3);
            let config = SmoothingConfig {
                n,
                steps: STEPS,
                layout,
            };
            assert_eq!(smoothing::run(&config, &machine(), &initial).field, initial);
            assert_eq!(try_run_sharded(&config, &initial).field, initial);
        }
    }
}

/// `smoothing::run` takes its backend from the environment, so this test —
/// the only one in this binary that reads it — sets it for each backend in
/// turn.
#[test]
fn smoothing_is_the_sequential_reference_with_the_pinned_statistics_on_every_backend() {
    for_each_ambient_backend(check_smoothing);
}
