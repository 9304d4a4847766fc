//! Cross-crate tests of the redistribution engine: data preservation,
//! accounting consistency, and connect-class propagation.

use vf_core::prelude::*;
use vf_integration::{dist_1d, dist_2d, zero_machine};

fn all_1d_types(n: usize, p: usize) -> Vec<DistType> {
    vec![
        DistType::block1d(),
        DistType::cyclic1d(1),
        DistType::cyclic1d(3),
        DistType::gen_block1d({
            // A deterministic skewed partition.
            let mut sizes = vec![n / (2 * p); p];
            let assigned: usize = sizes.iter().sum();
            sizes[0] += n - assigned;
            sizes
        }),
    ]
}

/// Every ordered pair of 1-D distribution types preserves the data and the
/// tracker's byte count matches the report.
#[test]
fn all_pairs_of_1d_distribution_types_preserve_data() {
    let n = 60;
    let p = 4;
    let types = all_1d_types(n, p);
    for from in &types {
        for to in &types {
            let tracker = CommTracker::new(p, CostModel::zero());
            let mut a = DistArray::from_fn("A", dist_1d(from.clone(), n, p), |pt| {
                (pt.coord(0) * 7) as f64
            });
            let before = a.to_dense();
            let report = redistribute(
                &mut a,
                dist_1d(to.clone(), n, p),
                &tracker,
                &RedistOptions::default(),
                &PlanCache::new(),
                &SerialExecutor,
            )
            .unwrap();
            assert_eq!(a.to_dense(), before, "{from} -> {to} corrupted data");
            a.check_invariants().unwrap();
            assert_eq!(
                tracker.snapshot().total_bytes(),
                report.bytes,
                "{from} -> {to} accounting mismatch"
            );
            assert_eq!(
                report.moved_elements + report.stayed_elements,
                n,
                "{from} -> {to} lost elements"
            );
        }
    }
}

/// 2-D redistributions (the Figure 1 transpose-like case) across different
/// processor counts.
#[test]
fn two_dimensional_redistributions_preserve_data() {
    for p in [2usize, 3, 4, 6] {
        for (from, to) in [
            (DistType::columns(), DistType::rows()),
            (DistType::rows(), DistType::blocks2d()),
            (DistType::blocks2d(), DistType::columns()),
        ] {
            let tracker = CommTracker::new(p, CostModel::zero());
            let mut a = DistArray::from_fn("V", dist_2d(from.clone(), 12, 18, p), |pt| {
                (pt.coord(0) * 100 + pt.coord(1)) as f64
            });
            let before = a.to_dense();
            redistribute(
                &mut a,
                dist_2d(to.clone(), 12, 18, p),
                &tracker,
                &RedistOptions::default(),
                &PlanCache::new(),
                &SerialExecutor,
            )
            .unwrap();
            assert_eq!(a.to_dense(), before, "{from} -> {to} on {p} processors");
        }
    }
}

/// A chain of redistributions through the language layer keeps primary and
/// secondary arrays consistent, including a transposing alignment.
#[test]
fn connect_class_follows_through_a_chain_of_redistributions() {
    let n = 12usize;
    let mut scope: VfScope<f64> = VfScope::new(zero_machine(4));
    scope
        .declare_dynamic(DynamicDecl::new("B", IndexDomain::d2(n, n)).initial(DistType::columns()))
        .unwrap();
    scope
        .declare_secondary(SecondaryDecl::extraction("EXT", IndexDomain::d2(n, n), "B"))
        .unwrap();
    scope
        .declare_secondary(SecondaryDecl::aligned(
            "TRANS",
            IndexDomain::d2(n, n),
            "B",
            Alignment::transpose2d(),
        ))
        .unwrap();

    // Fill all three arrays with distinct data.
    let domain = IndexDomain::d2(n, n);
    for point in domain.iter() {
        let v = (point.coord(0) * 1000 + point.coord(1)) as f64;
        scope.array_mut("B").unwrap().set(&point, v).unwrap();
        scope.array_mut("EXT").unwrap().set(&point, -v).unwrap();
        scope
            .array_mut("TRANS")
            .unwrap()
            .set(&point, 2.0 * v)
            .unwrap();
    }

    for dist in [
        DistType::rows(),
        DistType::blocks2d(),
        DistType::new(vec![DimDist::Cyclic(2), DimDist::Block]),
        DistType::columns(),
    ] {
        scope
            .distribute(DistributeStmt::new("B", dist.clone()))
            .unwrap();
        // The extraction secondary shares B's distribution type.
        assert_eq!(scope.current_dist_type("EXT").unwrap(), dist);
        // Data of all three arrays survives every step.
        for point in domain.iter() {
            let v = (point.coord(0) * 1000 + point.coord(1)) as f64;
            assert_eq!(scope.array("B").unwrap().get(&point).unwrap(), v);
            assert_eq!(scope.array("EXT").unwrap().get(&point).unwrap(), -v);
            assert_eq!(scope.array("TRANS").unwrap().get(&point).unwrap(), 2.0 * v);
        }
        // The aligned secondary really is co-located: TRANS(i,j) lives with
        // B(j,i) on every processor.
        let b = scope.array("B").unwrap();
        let t = scope.array("TRANS").unwrap();
        for point in domain.iter() {
            let swapped = Point::d2(point.coord(1), point.coord(0));
            assert_eq!(
                t.dist().owner(&point).unwrap(),
                b.dist().owner(&swapped).unwrap(),
                "alignment violated at {point} under {dist}"
            );
        }
    }
}

/// NOTRANSFER redistributes the descriptor but not the data, and only for
/// the named secondary.
#[test]
fn notransfer_applies_only_to_named_secondaries() {
    let mut scope: VfScope<f64> = VfScope::new(zero_machine(4));
    scope
        .declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(16)).initial(DistType::block1d()))
        .unwrap();
    scope
        .declare_secondary(SecondaryDecl::extraction("KEEP", IndexDomain::d1(16), "B"))
        .unwrap();
    scope
        .declare_secondary(SecondaryDecl::extraction("SKIP", IndexDomain::d1(16), "B"))
        .unwrap();
    for i in 1..=16i64 {
        for name in ["B", "KEEP", "SKIP"] {
            scope
                .array_mut(name)
                .unwrap()
                .set(&Point::d1(i), i as f64)
                .unwrap();
        }
    }
    let report = scope
        .distribute(DistributeStmt::new("B", DistType::cyclic1d(1)).notransfer(["SKIP"]))
        .unwrap();
    // B and KEEP moved data; SKIP did not.
    let moved: Vec<(&str, usize)> = report
        .per_array
        .iter()
        .map(|(n, r)| (n.as_str(), r.moved_elements))
        .collect();
    assert!(moved.iter().any(|&(n, m)| n == "B" && m > 0));
    assert!(moved.iter().any(|&(n, m)| n == "KEEP" && m > 0));
    assert!(moved.iter().any(|&(n, m)| n == "SKIP" && m == 0));
    // KEEP's data is intact, SKIP's is not guaranteed (defaults).
    assert_eq!(
        scope.array("KEEP").unwrap().get(&Point::d1(5)).unwrap(),
        5.0
    );
    assert_eq!(
        scope.current_dist_type("SKIP").unwrap(),
        DistType::cyclic1d(1)
    );
}

/// The element-wise ablation charges the same bytes but many more messages,
/// and therefore more modelled time on a latency-bound machine.  It is
/// priced, not executed: the statement's own plan charged one message per
/// element on a tracker of its own.
#[test]
fn aggregation_ablation_shows_latency_savings() {
    let n = 2048;
    let p = 8;
    let (from, to) = (
        dist_1d(DistType::block1d(), n, p),
        dist_1d(DistType::cyclic1d(1), n, p),
    );
    let cache = PlanCache::new();
    let tracker = CommTracker::new(p, CostModel::latency_bound());
    let mut a = DistArray::from_fn("A", from.clone(), |pt| pt.coord(0) as f64);
    let opts = RedistOptions::default();
    let agg = redistribute(&mut a, to.clone(), &tracker, &opts, &cache, &SerialExecutor).unwrap();
    let agg_time = tracker.snapshot().critical_time();

    let elem_tracker = CommTracker::new(p, CostModel::latency_bound());
    let plan = cache.redistribute_plan(&from, &to).unwrap();
    let (elem_messages, elem_bytes) = plan.charge(&elem_tracker, 8, false);
    let elem_time = elem_tracker.snapshot().critical_time();
    assert_eq!(agg.bytes, elem_bytes);
    assert!(elem_messages > 10 * agg.messages);
    assert!(elem_time > 10.0 * agg_time);
}

// ---------------------------------------------------------------------------
// The per-element oracle.  `plan_redistribute` and `plan_ghost` resolve one
// contiguous stretch per lookup and fold equal pieces into strided runs;
// the plans below are built one element at a time from the public
// ownership functions (`Distribution::owner`, `loc_map`,
// `local_linear_runs`), and every planned transfer, expanded element by
// element, must list the same elements in the same order.
// ---------------------------------------------------------------------------

use std::mem::size_of;
use std::sync::Arc;
use vf_core::vf_dist::AlignExpr;
use vf_core::vf_runtime::plan::{
    plan_ghost, plan_redistribute, Pieces, PlanRun, Side, Sides, Transfer,
};

/// One pair's traffic: sender, receiver and the `(source, destination)`
/// offsets of every element in wire order.
type ElementTransfer = (ProcId, ProcId, Vec<(usize, usize)>);

/// A plan built one element at a time: its transfers in the order the
/// pairs first appear.
#[derive(Default)]
struct ElementPlan {
    transfers: Vec<ElementTransfer>,
    moved: usize,
    stayed: usize,
}

impl ElementPlan {
    fn push(&mut self, src: ProcId, dst: ProcId, src_off: usize, dst_off: usize) {
        if src == dst {
            self.stayed += 1;
        } else {
            self.moved += 1;
        }
        let at = match self.transfers.iter().position(|t| (t.0, t.1) == (src, dst)) {
            Some(at) => at,
            None => {
                self.transfers.push((src, dst, Vec::new()));
                self.transfers.len() - 1
            }
        };
        self.transfers[at].2.push((src_off, dst_off));
    }

    fn num_messages(&self) -> usize {
        let crossing = |t: &&ElementTransfer| t.0 != t.1 && !t.2.is_empty();
        self.transfers.iter().filter(crossing).count()
    }

    /// Runs a contiguous run list would need: one per maximal stretch
    /// whose offsets both continue.
    fn contiguous_runs(&self) -> usize {
        self.transfers.iter().map(|t| contiguous_pieces(&t.2)).sum()
    }
}

/// The maximal stretches of `elements` whose offsets both continue.
fn contiguous_pieces(elements: &[(usize, usize)]) -> usize {
    let breaks = elements
        .windows(2)
        .filter(|w| (w[0].0 + 1, w[0].1 + 1) != w[1]);
    usize::from(!elements.is_empty()) + breaks.count()
}

/// Offset `i` of a listed side.
fn offset(side: &Side, i: usize) -> usize {
    match side {
        Side::Contiguous(start) => start + i,
        Side::Listed(offsets) => offsets[i] as usize,
    }
}

/// `t`'s elements in wire order: run by run, repetition by repetition, or
/// offset by offset.
fn expand(t: &Transfer) -> Vec<(usize, usize)> {
    let mut elements = Vec::with_capacity(t.elements);
    match &t.pieces {
        Pieces::Runs {
            runs,
            src_stride,
            dst_stride,
        } => {
            for run in runs.iter() {
                for k in 0..run.count as usize {
                    let (step_src, step_dst) = (k * *src_stride as usize, k * *dst_stride as usize);
                    for e in 0..run.len as usize {
                        elements.push((run.src_start + step_src + e, run.dst_start + step_dst + e));
                    }
                }
            }
        }
        Pieces::Offsets(sides) => {
            elements
                .extend((0..t.elements).map(|i| (offset(&sides.src, i), offset(&sides.dst, i))));
        }
    }
    elements
}

/// The bytes `t` keeps beyond itself: its runs, or its boxed offset lists.
fn stored_bytes(t: &Transfer) -> usize {
    let listed = |side: &Side| match side {
        Side::Contiguous(_) => 0,
        Side::Listed(offsets) => offsets.len() * size_of::<u32>(),
    };
    match &t.pieces {
        Pieces::Runs { runs, .. } => runs.len() * size_of::<PlanRun>(),
        Pieces::Offsets(sides) => size_of::<Sides>() + listed(&sides.src) + listed(&sides.dst),
    }
}

/// `plan` against the element-by-element `expected`: every transfer's
/// expansion, the counts, messages and bytes — and runs that are well
/// formed and no more than a contiguous run list would hold, or offset
/// lists that hold one entry per element and take fewer bytes than those
/// runs would.
fn check_against(plan: &CommPlan, expected: &ElementPlan, what: &str) {
    let expanded: Vec<ElementTransfer> = (plan.transfers().iter())
        .map(|t| (t.src, t.dst, expand(t)))
        .collect();
    assert!(expanded == expected.transfers, "{what}");
    let mut runs = 0;
    for t in plan.transfers() {
        let elements = expand(t);
        assert_eq!(t.elements, elements.len(), "{what}");
        match &t.pieces {
            Pieces::Runs {
                runs: list,
                src_stride,
                dst_stride,
            } => {
                for run in list.iter() {
                    assert!(run.len > 0 && run.count > 0, "{what}: empty run");
                    if run.count > 1 {
                        // Repetitions never overlap.
                        assert!(*src_stride >= run.len && *dst_stride >= run.len, "{what}");
                    }
                }
                runs += list.len();
            }
            Pieces::Offsets(sides) => {
                for side in [&sides.src, &sides.dst] {
                    if let Side::Listed(offsets) = side {
                        assert_eq!(offsets.len(), t.elements, "{what}");
                    }
                }
                let as_runs = contiguous_pieces(&elements) * size_of::<PlanRun>();
                assert!(stored_bytes(t) < as_runs, "{what}: lists larger than runs");
                runs += contiguous_pieces(&elements);
            }
        }
    }
    assert_eq!(plan.moved_elements(), expected.moved, "{what}");
    assert_eq!(plan.stayed_elements(), expected.stayed, "{what}");
    assert_eq!(plan.num_messages(), expected.num_messages(), "{what}");
    assert_eq!(plan.bytes_for(8), expected.moved * 8, "{what}");
    assert!(runs <= expected.contiguous_runs(), "{what}: {runs} runs");
}

/// `DISTRIBUTE old -> new`, element by element: every element the sending
/// copies hold (only the first copy of a replicated source sends) goes to
/// `new`'s owner at `new`'s local offset.
fn element_redistribute(old: &Distribution, new: &Distribution) -> ElementPlan {
    let mut plan = ElementPlan::default();
    let senders = if old.is_replicated() {
        &old.proc_ids()[..1]
    } else {
        old.proc_ids()
    };
    for &p in senders {
        for run in old.local_linear_runs(p) {
            for k in 0..run.len {
                let point = old.domain().delinearize(run.global_start + k).unwrap();
                let q = new.owner(&point).unwrap();
                plan.push(p, q, run.local_start + k, new.loc_map(q, &point).unwrap());
            }
        }
    }
    plan
}

/// The halo of `widths` on a layout of boxes, element by element: each
/// processor's owned box widened by the widths and clipped to the array,
/// its frame numbered in column-major order, every frame point fetched
/// from its owner.
fn element_ghost(dist: &Distribution, widths: &[(usize, usize)]) -> ElementPlan {
    let mut plan = ElementPlan::default();
    let domain = dist.domain();
    for &p in dist.proc_ids() {
        let segment = dist.local_segment(p).unwrap();
        if segment.is_empty() {
            continue;
        }
        let dims = (0..domain.rank()).map(|d| {
            let (seg, all, (below, above)) = (segment.dim(d), domain.dim(d), widths[d]);
            DimRange::new(
                (seg.lower() - below as i64).max(all.lower()),
                (seg.upper() + above as i64).min(all.upper()),
            )
            .unwrap()
        });
        let extended = IndexDomain::new(dims.collect()).unwrap();
        let frame = extended.iter().filter(|point| !segment.contains(point));
        for (slot, point) in frame.enumerate() {
            let owner = dist.owner(&point).unwrap();
            plan.push(owner, p, dist.loc_map(owner, &point).unwrap(), slot);
        }
    }
    plan
}

fn check_redistribute(old: &Distribution, new: &Distribution) {
    let what = format!("{old} -> {new} over {}", old.domain());
    let plan = plan_redistribute(old, new).unwrap();
    check_against(&plan, &element_redistribute(old, new), &what);
    // What the plan keeps: its transfers with their runs or offset lists,
    // and the target it sizes new locals from.
    let transfers: usize = (plan.transfers().iter())
        .map(|t| size_of::<Transfer>() + stored_bytes(t))
        .sum();
    let kept = size_of::<CommPlan>() + transfers + new.estimated_bytes();
    assert_eq!(plan.estimated_bytes(), kept, "{what}");
}

fn check_ghost(dist: &Distribution, widths: &[(usize, usize)]) {
    let plan = plan_ghost(dist, widths).unwrap();
    let what = format!("{dist} over {} with {widths:?}", dist.domain());
    check_against(&plan, &element_ghost(dist, widths), &what);
}

/// General-block sizes over `procs` with empty blocks: every even
/// processor owns nothing, the odd ones share the extent.
fn gen_block_with_gaps(n: usize, procs: usize) -> Vec<usize> {
    let owners: Vec<usize> = (0..procs).filter(|j| j % 2 == 1).collect();
    let mut sizes = vec![0; procs];
    match owners.len() {
        0 => sizes[0] = n,
        k => owners.iter().enumerate().for_each(|(i, &j)| {
            sizes[j] = n / k + usize::from(i < n % k);
        }),
    }
    sizes
}

/// The processor views of the grid: linear ones (P = 1 and P beyond the
/// small extents), a strided section of a larger linear array (ids that
/// do not start at 0), and 2-D grids.
fn views() -> Vec<ProcessorView> {
    let array = Arc::new(ProcessorArray::linear(6));
    let strided = Section::new(vec![Triplet::new(2, 6, 2).unwrap()]).unwrap();
    vec![
        ProcessorView::linear(1),
        ProcessorView::linear(3),
        ProcessorView::linear(4),
        ProcessorView::linear(7),
        ProcessorView::new(array, strided).unwrap(),
        ProcessorView::grid2d(2, 2),
        ProcessorView::grid2d(1, 3),
    ]
}

/// Every layout of `extents` over `views()` whose dimensions are each `:`,
/// BLOCK, CYCLIC, CYCLIC(3), CYCLIC(k >= extent) or a general block with
/// empty blocks.  A general block needs its dimension's processor count,
/// so it is drawn only where the view fixes it (one distributed dimension,
/// or as many as the view has).
fn layouts(extents: &[usize]) -> Vec<Distribution> {
    let domain = IndexDomain::new(
        extents
            .iter()
            .map(|&n| DimRange::new(1, n as i64).unwrap())
            .collect(),
    )
    .unwrap();
    let choices = 6usize;
    let mut out = Vec::new();
    for view in views() {
        for code in 0..choices.pow(extents.len() as u32) {
            let picks: Vec<usize> = (0..extents.len())
                .map(|d| code / choices.pow(d as u32) % choices)
                .collect();
            let distributed = picks.iter().filter(|&&c| c != 0).count();
            let procs_of = |i: usize| match distributed {
                1 => Some(view.num_procs()),
                r if r == view.rank() => Some(view.grid_extents()[i]),
                _ => None,
            };
            let mut dims = Vec::new();
            let mut ddim = 0;
            for (&n, &pick) in extents.iter().zip(&picks) {
                dims.push(match pick {
                    0 => DimDist::NotDistributed,
                    1 => DimDist::Block,
                    2 => DimDist::Cyclic(1),
                    3 => DimDist::Cyclic(3),
                    4 => DimDist::Cyclic(n + 1),
                    _ => match procs_of(ddim) {
                        Some(procs) => DimDist::GenBlock(gen_block_with_gaps(n, procs)),
                        None => break,
                    },
                });
                ddim += usize::from(pick != 0);
            }
            if dims.len() < extents.len() {
                continue;
            }
            if let Ok(dist) = Distribution::new(DistType::new(dims), domain.clone(), view.clone()) {
                out.push(dist);
            }
        }
    }
    out
}

/// Layouts `construct` derives for secondaries of `extents`: transposed
/// (a regular layout with a permuted grid) for rank 2, and shifted (a
/// translation-table layout) for rank 1.
fn secondaries(extents: &[usize]) -> Vec<Distribution> {
    match *extents {
        [n, m] => layouts(&[m, n])
            .iter()
            .step_by(5)
            .map(|base| construct(&Alignment::transpose2d(), base, &IndexDomain::d2(n, m)).unwrap())
            .collect(),
        [n] => layouts(&[n + 2])
            .iter()
            .step_by(3)
            .map(|base| {
                let shift = Alignment::new(1, vec![AlignExpr::shifted(0, 2)]).unwrap();
                construct(&shift, base, &IndexDomain::d1(n)).unwrap()
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// `INDIRECT` layouts of a rank-1 array: the translation-table path.
fn indirect_layouts(n: usize) -> Vec<Distribution> {
    [3usize, 4]
        .into_iter()
        .map(|p| {
            let map = IndirectMap::from_fn(n, |i| (i * 7 / 3 + 1) % p).unwrap();
            Distribution::new(
                DistType::indirect1d(Arc::new(map)),
                IndexDomain::d1(n),
                ProcessorView::linear(p),
            )
            .unwrap()
        })
        .collect()
}

#[test]
fn redistribution_plans_equal_the_element_by_element_plan() {
    let shapes: [&[usize]; 7] = [&[1], &[5], &[9], &[1, 4], &[5, 3], &[4, 4], &[3, 2, 4]];
    let mut pairs = 0;
    let (mut replicated, mut derived, mut table) = (0, 0, 0);
    for extents in shapes {
        let mut all = layouts(extents);
        let regular = all.len();
        all.extend(secondaries(extents));
        if let [n] = *extents {
            all.extend(indirect_layouts(n));
        }
        // Every ordered pair of a shape is planned when there are few; a
        // fixed lattice of about 2 500 of them otherwise.
        let stride = (all.len() * all.len()).div_ceil(2_500).max(1);
        for (i, old) in all.iter().enumerate() {
            for (j, new) in all.iter().enumerate() {
                // Pairs with a translation-table layout are all planned.
                let tabled = old.uses_translation_table() || new.uses_translation_table();
                if !(i * all.len() + j).is_multiple_of(stride) && !tabled {
                    continue;
                }
                check_redistribute(old, new);
                pairs += 1;
                replicated += usize::from(old.is_replicated() || new.is_replicated());
                derived += usize::from(i.max(j) >= regular);
                table += usize::from(tabled);
            }
        }
    }
    assert!(pairs >= 10_000, "only {pairs} pairs");
    assert!(replicated > 0 && derived > table && table > 0);
}

#[test]
fn ghost_plans_equal_the_element_by_element_plan() {
    let widths = [(0, 0), (1, 1), (2, 2), (0, 2), (1, 0)];
    let mut plans = 0;
    for extents in [&[1][..], &[6], &[9], &[5, 4], &[3, 7], &[3, 2, 4]] {
        for dist in layouts(extents) {
            // Layouts of boxes: BLOCK, general block, `:`, and a CYCLIC(k)
            // that deals each processor at most one block.
            if dist
                .proc_ids()
                .iter()
                .any(|&p| dist.local_segment(p).is_none())
            {
                continue;
            }
            // Every pair of widths in dimensions 0 and 1; dimension 2
            // repeats dimension 0's.
            let rank = extents.len() as u32;
            for code in 0..widths.len().pow(rank.min(2)) {
                let w: Vec<(usize, usize)> = (0..rank)
                    .map(|d| widths[code / widths.len().pow(d % 2) % widths.len()])
                    .collect();
                check_ghost(&dist, &w);
                plans += 1;
            }
        }
    }
    assert!(plans >= 1_000, "only {plans} halo plans");
}

/// A small deterministic generator (SplitMix64) for the drawn shapes.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// A drawn view: linear with up to nine processors (often more than an
/// extent), or a grid of up to 3 × 3.
fn draw_view(g: &mut Draw) -> ProcessorView {
    match g.range(0, 2) {
        0 => ProcessorView::grid2d(g.range(1, 3), g.range(1, 3)),
        _ => ProcessorView::linear(g.range(1, 9)),
    }
}

/// General-block sizes of `n` over `procs`, drawn, empty blocks included.
fn draw_gen_block(g: &mut Draw, n: usize, procs: usize) -> Vec<usize> {
    let mut sizes = vec![0; procs];
    for _ in 0..n {
        sizes[g.range(0, procs - 1)] += 1;
    }
    sizes
}

/// A drawn layout of `domain` whose dimensions are each `:`, BLOCK, a
/// general block or CYCLIC(k) — `None` when the draw does not fit the
/// view.
fn draw_layout(g: &mut Draw, domain: &IndexDomain) -> Option<Distribution> {
    let view = draw_view(g);
    let rank = domain.rank();
    let picks: Vec<usize> = (0..rank).map(|_| g.range(0, 3)).collect();
    let distributed = picks.iter().filter(|&&c| c != 0).count();
    let mut dims = Vec::with_capacity(rank);
    let mut ddim = 0;
    for (d, &pick) in picks.iter().enumerate() {
        let procs = match distributed {
            1 => view.num_procs(),
            r if r == view.rank() => view.grid_extents()[ddim.min(r - 1)],
            _ => 1,
        };
        dims.push(match pick {
            0 => DimDist::NotDistributed,
            1 => DimDist::Block,
            2 => DimDist::GenBlock(draw_gen_block(g, domain.extent(d), procs)),
            _ => DimDist::Cyclic(g.range(1, 5)),
        });
        ddim += usize::from(pick != 0);
    }
    Distribution::new(DistType::new(dims), domain.clone(), view).ok()
}

/// A drawn domain of rank 1 to 3, up to about 2 000 elements.
fn draw_domain(g: &mut Draw) -> IndexDomain {
    let rank = g.range(1, 3);
    let max = [0, 200, 40, 12][rank];
    let dims = (0..rank).map(|_| DimRange::new(1, g.range(1, max) as i64).unwrap());
    IndexDomain::new(dims.collect()).unwrap()
}

#[test]
fn drawn_shapes_expand_to_the_element_by_element_plan() {
    let mut g = Draw(0x5eed_0035);
    let (mut pairs, mut transposed, mut halos) = (0, 0, 0);
    while pairs < 600 {
        let domain = draw_domain(&mut g);
        let (Some(old), Some(new)) = (draw_layout(&mut g, &domain), draw_layout(&mut g, &domain))
        else {
            continue;
        };
        check_redistribute(&old, &new);
        pairs += 1;
        // A transposed secondary of a rank-2 array, to and from the drawn
        // layout.
        if let [n, m] = domain.extents()[..] {
            let base_domain = IndexDomain::d2(m, n);
            if let Some(base) = draw_layout(&mut g, &base_domain) {
                let aligned = construct(&Alignment::transpose2d(), &base, &domain).unwrap();
                check_redistribute(&old, &aligned);
                check_redistribute(&aligned, &new);
                transposed += 1;
            }
        }
        // Halos of every drawn layout of boxes, at drawn widths.
        if new
            .proc_ids()
            .iter()
            .all(|&p| new.local_segment(p).is_some())
        {
            let widths: Vec<(usize, usize)> = (0..domain.rank())
                .map(|_| (g.range(0, 2), g.range(0, 2)))
                .collect();
            check_ghost(&new, &widths);
            halos += 1;
        }
    }
    assert!(
        transposed > 50 && halos > 100,
        "{transposed} transposed, {halos} halos"
    );
}

#[test]
fn row_and_block_halos_fold_their_faces() {
    // With column-major locals a (BLOCK,:) face is one element per column:
    // each (owner -> reader) face of a one-wide halo folds into a single
    // strided run, as does every face of a (BLOCK,BLOCK) one, and a corner
    // is one element.  Up to seven processors over as few as one row
    // leave processors empty.
    let mut g = Draw(7);
    for _ in 0..60 {
        let (n, m) = (g.range(1, 40), g.range(1, 40));
        for (t, view, one_wide) in [
            (
                DistType::rows(),
                ProcessorView::linear(g.range(1, 7)),
                [(1, 1), (0, 0)],
            ),
            (
                DistType::blocks2d(),
                ProcessorView::grid2d(g.range(1, 3), g.range(1, 3)),
                [(1, 1), (1, 1)],
            ),
        ] {
            let dist = Distribution::new(t, IndexDomain::d2(n, m), view).unwrap();
            let drawn = [
                (g.range(0, 2), g.range(0, 2)),
                (g.range(0, 2), g.range(0, 2)),
            ];
            check_ghost(&dist, &drawn);
            check_ghost(&dist, &one_wide);
            let plan = plan_ghost(&dist, &one_wide).unwrap();
            for t in plan.transfers() {
                let Pieces::Runs { runs, .. } = &t.pieces else {
                    panic!("{dist}: a regular halo is listed");
                };
                assert_eq!(runs.len(), 1, "{dist}: {:?} -> {:?}", t.src, t.dst);
            }
        }
    }
}

/// An `INDIRECT` layout of `n` elements over `p` linear processors, each
/// owner drawn at random: same-owner stretches of about `p / (p - 1)`
/// elements, so both directions of a pair scatter on the `INDIRECT` side.
fn drawn_indirect(g: &mut Draw, n: usize, p: usize) -> Distribution {
    let owners: Vec<usize> = (0..n).map(|_| g.range(0, p - 1)).collect();
    let map = IndirectMap::new(owners).unwrap();
    dist_1d(DistType::indirect1d(Arc::new(map)), n, p)
}

/// Which sides of `t` are offset lists.
fn listed_sides(t: &Transfer) -> (bool, bool) {
    match &t.pieces {
        Pieces::Runs { .. } => (false, false),
        Pieces::Offsets(sides) => (
            matches!(sides.src, Side::Listed(_)),
            matches!(sides.dst, Side::Listed(_)),
        ),
    }
}

#[test]
fn indirect_plans_across_directory_pages_replay_the_element_wise_lookups() {
    // 2 600 elements are three directory pages of 1 024, so senders'
    // stretches cross pages, and pages are fetched as well as hit.
    let n = 2_600;
    let mut g = Draw(0x1d1_2ec7);
    let (block4, block7) = (
        dist_1d(DistType::block1d(), n, 4),
        dist_1d(DistType::block1d(), n, 7),
    );
    let (scattered3, scattered4) = (drawn_indirect(&mut g, n, 3), drawn_indirect(&mut g, n, 4));
    for (old, new, listed) in [
        (&block4, &scattered4, (true, false)),
        (&scattered4, &block4, (false, true)),
        (&scattered3, &scattered4, (true, true)),
        // Processors 4 to 6 of the source lie outside the target's
        // processor array: their directory caches start cold.
        (&block7, &scattered4, (true, false)),
    ] {
        let what = format!("{old} -> {new}");
        check_redistribute(old, new);
        let cache = PlanCache::new();
        let plan = cache.redistribute_plan(old, new).unwrap();
        for t in plan.transfers().iter().filter(|t| t.elements >= 64) {
            assert_eq!(
                listed_sides(t),
                listed,
                "{what}: {:?} -> {:?}",
                t.src,
                t.dst
            );
        }
        // The planner's directory counters are those of one lookup per
        // element, made by each sender in its storage order on a fresh
        // table of an INDIRECT target; the page fetches ride on the plan.
        // A BLOCK target resolves in closed form and looks nothing up.
        let planned = cache.stats().translation;
        if new.dist_type().has_indirect() {
            let replay = table_for(new);
            for &p in old.proc_ids() {
                for run in old.local_linear_runs(p) {
                    for lin in run.global_start..run.global_start + run.len {
                        replay.lookup_from(p, lin);
                    }
                }
            }
            assert_eq!(planned, replay.stats(), "{what}");
            assert!(planned.page_fetches > 0 && planned.cache_hits > 0, "{what}");
        } else {
            assert_eq!(planned, TranslationStats::default(), "{what}");
        }
        let pending = plan.pending_directory_traffic();
        assert_eq!(
            pending,
            (planned.page_fetches as usize, planned.fetched_bytes),
            "{what}"
        );
        // And the data lands where the element-wise owners say.
        let dense: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let mut array = DistArray::from_dense("A", old.clone(), &dense).unwrap();
        let tracker = zero_machine(7).tracker();
        redistribute(
            &mut array,
            new.clone(),
            &tracker,
            &RedistOptions::default(),
            &cache,
            &SerialExecutor,
        )
        .unwrap();
        assert_eq!(array.to_dense(), dense, "{what}");
    }
}
