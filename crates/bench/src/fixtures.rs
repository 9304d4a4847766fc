//! Fixtures several benches measure on, so "the e8 wire path" is one
//! definition rather than a copy per bench.

use vf_core::prelude::*;

/// Stencil widths of [`wire_class`]: a one-column halo per neighbour.
pub const WIRE_WIDTHS: [(usize, usize); 2] = [(0, 0), (1, 1)];

/// The e8 wire fixture: a class of `fields` stencil fields, `(:, BLOCK)`
/// over a 128×2048 grid (256k elements) on `procs` processors.  Each halo
/// face is one whole neighbour column — a single contiguous run of 128
/// elements — so a class exchange is dispatch-dominated: the case the
/// wire engine exists for.
pub fn wire_class(procs: usize, fields: usize) -> (Distribution, Vec<DistArray<f64>>) {
    let dist = Distribution::new(
        DistType::columns(),
        IndexDomain::d2(128, 2048),
        ProcessorView::linear(procs),
    )
    .expect("the grid divides over the processors");
    let arrays = (0..fields)
        .map(|k| {
            DistArray::from_fn(format!("F{k}"), dist.clone(), |pt| {
                (pt.coord(0) * 7 + pt.coord(1) * 3 + k as i64) as f64
            })
        })
        .collect();
    (dist, arrays)
}
