//! The seven workloads.  Sizes are fixed; `--seed` drives every generator.
//! Each workload keeps the output of its last repetition so the oracle can
//! check it outside the timed region.

use crate::adapter::{
    self, Array, Backend, ClassGhosts, ClassScope, Layout, Ledger, Mesh, Particle, PicOutcome,
    RunMap,
};
use crate::metrics::Metrics;
use crate::oracle;
use crate::probes;
use crate::spans::Spans;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every workload, in the order a sweep runs them.
pub const NAMES: [&str; 7] = [
    "adi-dynamic",
    "pic-rebalance",
    "smoothing-halo",
    "mesh-repartition",
    "stmt-shared",
    "stmt-sharded",
    "ckpt-restart",
];

/// The value `VF_EXEC_BACKEND` must have in the workload's process.
pub fn backend_env(name: &str) -> Option<&'static str> {
    (name == "stmt-sharded").then_some("sharded")
}

pub trait Workload {
    /// Work one repetition does, in [`Workload::unit`]s.
    fn work(&self) -> f64;
    fn unit(&self) -> &'static str;
    /// One repetition: the timed region.
    fn rep(&mut self, spans: &Spans);
    /// What the last repetition charged and counted.
    fn ledger(&mut self) -> Ledger;
    /// Checks the last repetition's output against the oracle.  `perturb`
    /// flips one bit of that output first, which the oracle must reject.
    fn verify(&mut self, perturb: bool) -> bool;
    /// Milliseconds the plain single-threaded baseline took, once `verify`
    /// has computed it (0 for workloads that have none).
    fn reference_ms(&self) -> f64 {
        0.0
    }
    /// Whether the traced pass may turn the program's own tracer on.
    fn traces_program(&self) -> bool {
        true
    }
    /// Probes the layers this workload exercises, at its sizes, and sets
    /// their metrics.  `run_s` is the workload's own untraced median.
    fn probes(&mut self, m: &mut Metrics, run_s: f64);
}

/// Uneven general-block sizes summing to `n`: weights 1, 2, 3, 1, 2, 3, ...
fn uneven_blocks(n: usize, procs: usize) -> Vec<usize> {
    let weights: Vec<usize> = (0..procs).map(|p| 1 + p % 3).collect();
    let total: usize = weights.iter().sum();
    let mut blocks: Vec<usize> = weights.iter().map(|w| n * w / total).collect();
    blocks[procs - 1] += n - blocks.iter().sum::<usize>();
    blocks
}

/// Deterministic generator for the harness's own inputs (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn flip_a_bit(values: &mut [f64]) {
    let mid = values.len() / 2;
    values[mid] = f64::from_bits(values[mid].to_bits() ^ 1);
}

/// Builds `name` from `seed`: input generation, machine, declarations and
/// the first distribution.  `scratch` is where `ckpt-restart` keeps its
/// store.
pub fn build(name: &str, seed: u64, scratch: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "adi-dynamic" => Box::new(adi(seed)),
        "pic-rebalance" => Box::new(Pic::new(seed)),
        "smoothing-halo" => Box::new(smoothing(seed)),
        "mesh-repartition" => Box::new(mesh_sweep(seed)),
        "stmt-shared" => Box::new(Stmt::new(seed, STMT_SHARED, Backend::FromEnv)),
        "stmt-sharded" => Box::new(Stmt::new(seed, STMT_SHARDED, Backend::FromEnv)),
        "ckpt-restart" => Box::new(Ckpt::new(seed, scratch)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// The four applications
// ---------------------------------------------------------------------------

const APP_PROCS: usize = 4;

/// What makes one field-producing application: how to run it, its plain
/// single-threaded baseline, its stated work and its layer probes.
struct FieldKind<I> {
    span: &'static str,
    unit: &'static str,
    work: fn(&I) -> f64,
    run: fn(&I, &adapter::Machine) -> (Vec<f64>, Ledger),
    reference: fn(&I) -> Vec<f64>,
    probes: fn(&I, u64, &mut Metrics),
}

/// An application whose output is a dense field, checked bitwise against a
/// reference the first `verify` computes (harness-only work, outside every
/// clock).
struct FieldApp<I> {
    kind: FieldKind<I>,
    seed: u64,
    machine: adapter::Machine,
    input: I,
    ledger: Ledger,
    last: Vec<f64>,
    reference: Option<Vec<f64>>,
    reference_ms: f64,
}

impl<I> FieldApp<I> {
    fn new(kind: FieldKind<I>, seed: u64, input: I) -> Self {
        Self {
            kind,
            seed,
            machine: adapter::machine(APP_PROCS),
            input,
            ledger: Ledger::default(),
            last: Vec::new(),
            reference: None,
            reference_ms: 0.0,
        }
    }
}

impl<I> Workload for FieldApp<I> {
    fn work(&self) -> f64 {
        (self.kind.work)(&self.input)
    }
    fn unit(&self) -> &'static str {
        self.kind.unit
    }
    fn rep(&mut self, spans: &Spans) {
        let run = || (self.kind.run)(&self.input, &self.machine);
        (self.last, self.ledger) = spans.time(self.kind.span, run);
    }
    fn ledger(&mut self) -> Ledger {
        self.ledger
    }
    fn verify(&mut self, perturb: bool) -> bool {
        if self.reference.is_none() {
            let start = Instant::now();
            self.reference = Some((self.kind.reference)(&self.input));
            self.reference_ms = start.elapsed().as_secs_f64() * 1e3;
        }
        if perturb {
            flip_a_bit(&mut self.last);
        }
        oracle::same_bits(&self.last, self.reference.as_deref().unwrap_or(&[]))
    }
    fn reference_ms(&self) -> f64 {
        self.reference_ms
    }
    fn probes(&mut self, m: &mut Metrics, _run_s: f64) {
        (self.kind.probes)(&self.input, self.seed, m);
    }
}

const ADI_N: usize = 512;
const ADI_ITERATIONS: usize = 5;

fn adi(seed: u64) -> FieldApp<Vec<f64>> {
    let kind: FieldKind<Vec<f64>> = FieldKind {
        span: "adi::run",
        unit: "grid-point line-solves",
        // Every grid point is solved once along x and once along y.
        work: |_| (ADI_N * ADI_N * 2 * ADI_ITERATIONS) as f64,
        run: |initial, machine| adapter::adi_run(ADI_N, ADI_ITERATIONS, machine, initial),
        reference: |initial| adapter::adi_reference(ADI_N, ADI_ITERATIONS, initial),
        probes: |_, seed, m| {
            let extents = [ADI_N, ADI_N];
            let cols = probes::dist(m, seed, &adapter::layout_cols(), &extents, APP_PROCS);
            let rows = adapter::distribution(&adapter::layout_rows(), &extents, APP_PROCS);
            probes::plan_redistribute(m, &cols, &rows, 1);
        },
    };
    FieldApp::new(kind, seed, adapter::grid_input(ADI_N, seed))
}

const SMOOTHING_N: usize = 128;
const SMOOTHING_STEPS: usize = 20;

fn smoothing(seed: u64) -> FieldApp<Vec<f64>> {
    let kind: FieldKind<Vec<f64>> = FieldKind {
        span: "smoothing::run",
        unit: "point updates",
        work: |_| (SMOOTHING_N * SMOOTHING_N * SMOOTHING_STEPS) as f64,
        run: |initial, machine| {
            adapter::smoothing_run(SMOOTHING_N, SMOOTHING_STEPS, machine, initial)
        },
        reference: |initial| adapter::smoothing_reference(SMOOTHING_N, SMOOTHING_STEPS, initial),
        probes: |_, seed, m| {
            let extents = [SMOOTHING_N, SMOOTHING_N];
            let blocks = probes::dist(m, seed, &adapter::layout_blocks2d(), &extents, APP_PROCS);
            probes::plan_ghost(m, &blocks, &[(1, 1), (1, 1)]);
        },
    };
    FieldApp::new(kind, seed, adapter::grid_input(SMOOTHING_N, seed))
}

const MESH_SIDE: usize = 128;
const MESH_STEPS: usize = 20;
const MESH_REPARTITION_AT: usize = 10;

fn mesh_sweep(seed: u64) -> FieldApp<Mesh> {
    let kind = FieldKind {
        span: "mesh::run_sweep",
        unit: "edge visits",
        work: |mesh| (adapter::mesh_edge_visits(mesh) * MESH_STEPS) as f64,
        run: |mesh, machine| {
            adapter::mesh_run(mesh, MESH_STEPS, Some(MESH_REPARTITION_AT), machine)
        },
        // The plain baseline: one processor, BLOCK, no repartitioning.
        reference: |mesh| adapter::mesh_run(mesh, MESH_STEPS, None, &adapter::machine(1)).0,
        probes: |mesh, seed, m| {
            let nodes = MESH_SIDE * MESH_SIDE;
            let partition = || adapter::mesh_partition(mesh, APP_PROCS);
            m.set("apps.partition_ms", probes::time(3, partition) * 1e3);
            let greedy = adapter::layout_indirect1d(partition());
            let greedy = probes::dist(m, seed, &greedy, &[nodes], APP_PROCS);
            probes::translation_build(m, seed, nodes, APP_PROCS);
            let inspect = || {
                adapter::Plans::new()
                    .ghost_irregular(&greedy, mesh)
                    .messages()
            };
            m.set("plan.irregular_cold_ms", probes::time(3, inspect) * 1e3);
            let block = adapter::distribution(&adapter::layout_block1d(), &[nodes], APP_PROCS);
            probes::plan_redistribute(m, &block, &greedy, 2);
        },
    };
    FieldApp::new(kind, seed, adapter::mesh_input(MESH_SIDE, MESH_SIDE, seed))
}

const PIC_CELLS: usize = 4096;
const PIC_PARTICLES: usize = 50_000;
const PIC_STEPS: usize = 40;

struct Pic {
    seed: u64,
    machine: adapter::Machine,
    particles: Vec<Particle>,
    ledger: Ledger,
    last: Option<PicOutcome>,
    first: Option<PicOutcome>,
}

impl Pic {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            machine: adapter::machine(APP_PROCS),
            particles: adapter::pic_input(PIC_CELLS, PIC_PARTICLES, seed),
            ledger: Ledger::default(),
            last: None,
            first: None,
        }
    }
}

impl Workload for Pic {
    fn work(&self) -> f64 {
        (PIC_PARTICLES * PIC_STEPS) as f64
    }
    fn unit(&self) -> &'static str {
        "particle pushes"
    }
    fn rep(&mut self, spans: &Spans) {
        let run = || adapter::pic_run(PIC_CELLS, PIC_STEPS, &self.machine, &self.particles);
        let (outcome, ledger) = spans.time("pic::run", run);
        self.last = Some(outcome);
        self.ledger = ledger;
    }
    fn ledger(&mut self) -> Ledger {
        self.ledger
    }
    fn verify(&mut self, perturb: bool) -> bool {
        let Some(mut last) = self.last.clone() else {
            return false;
        };
        if perturb {
            last.total_particles -= 1;
        }
        let first = self.first.get_or_insert_with(|| last.clone());
        oracle::pic_ok(&last, first, PIC_PARTICLES)
    }
    fn probes(&mut self, m: &mut Metrics, _run_s: f64) {
        let bounds = adapter::layout_gen_block1d(uneven_blocks(PIC_CELLS, APP_PROCS));
        let balanced = probes::dist(m, self.seed, &bounds, &[PIC_CELLS], APP_PROCS);
        let block = adapter::distribution(&adapter::layout_block1d(), &[PIC_CELLS], APP_PROCS);
        probes::plan_redistribute(m, &block, &balanced, 1);
        probes::plan_ghost(m, &balanced, &[(1, 1)]);
    }
}

// ---------------------------------------------------------------------------
// The statement program
// ---------------------------------------------------------------------------

/// Sizes of a statement workload.
#[derive(Debug, Clone, Copy)]
pub struct StmtSizes {
    pub procs: usize,
    pub n: usize,
    pub members: usize,
    /// Class halo exchanges after each `DISTRIBUTE` to a contiguous layout.
    pub halos: usize,
}

pub const STMT_SHARED: StmtSizes = StmtSizes {
    procs: 4,
    n: 1024,
    members: 4,
    halos: 64,
};

pub const STMT_SHARDED: StmtSizes = StmtSizes {
    procs: 2,
    n: 512,
    members: 4,
    halos: 5,
};

const STMT_CYCLES: usize = 5;
const GHOST_SAMPLES_PER_PLANE: usize = 16;

/// One layout of the cycle and the halo widths that go with it (`None`
/// where the layout is not contiguous and no halo can be planned).
type Stage = (Layout, Option<[(usize, usize); 2]>);

/// A connect class of `members` arrays cycled through
/// `(:,BLOCK) -> (BLOCK,:) -> (CYCLIC(8),:) -> (:,GEN_BLOCK) -> (:,BLOCK)`,
/// with class halo exchanges (alternately blocking and split-phase) after
/// every `DISTRIBUTE` to a contiguous layout.
pub struct Stmt {
    sizes: StmtSizes,
    scope: ClassScope,
    stages: Vec<Stage>,
    /// The seeded initial contents of each member — the oracle.
    fills: Vec<Vec<f64>>,
    /// The `(:, BLOCK)` layout every repetition starts and ends in.
    home: RunMap,
    verified_once: bool,
    cycles_done: usize,
    /// Ghost regions of the last blocking and the last split-phase halo.
    last_ghosts: [Option<ClassGhosts<f64>>; 2],
    seed: u64,
}

impl Stmt {
    pub fn new(seed: u64, sizes: StmtSizes, backend: Backend) -> Self {
        let StmtSizes {
            procs, n, members, ..
        } = sizes;
        let cols = [(0, 0), (1, 1)];
        let rows = [(1, 1), (0, 0)];
        let stages = vec![
            (adapter::layout_rows(), Some(rows)),
            (adapter::layout_cyclic_rows(8), None),
            (
                adapter::layout_gen_block_cols(uneven_blocks(n, procs)),
                Some(cols),
            ),
            (adapter::layout_cols(), Some(cols)),
        ];
        let mut scope = ClassScope::declare(
            adapter::machine(procs),
            n,
            members,
            &adapter::layout_cols(),
            backend,
        );
        let fills: Vec<Vec<f64>> = (0..members)
            .map(|k| {
                let mut rng = Rng::new(seed, 100 + k as u64);
                (0..n * n).map(|_| rng.unit()).collect()
            })
            .collect();
        let home = scope.run_map();
        for (k, fill) in fills.iter().enumerate() {
            scope.fill(k, fill, &home);
        }
        Self {
            sizes,
            scope,
            stages,
            fills,
            home,
            verified_once: false,
            cycles_done: 0,
            last_ghosts: [None, None],
            seed,
        }
    }

    /// `(got, owner's value)` for seeded points on both ghost columns of
    /// every processor in the home `(:, BLOCK)` layout (one-column halo),
    /// for every member and both halo kinds.
    fn ghost_samples(&self) -> Vec<(Option<f64>, f64)> {
        let mut rng = Rng::new(self.seed, 7);
        let mut samples = Vec::new();
        for ghosts in self.last_ghosts.iter().flatten() {
            for proc in 0..self.sizes.procs {
                let Some([(row_lo, row_hi), (col_lo, col_hi)]) = self.scope.owned_box(proc) else {
                    continue;
                };
                for col in [col_lo - 1, col_hi + 1] {
                    for _ in 0..GHOST_SAMPLES_PER_PLANE {
                        let row = row_lo + rng.below((row_hi - row_lo + 1) as usize) as i64;
                        let Some(offset) = self.scope.offset_of(row, col) else {
                            continue; // the column lies outside the array
                        };
                        for k in 0..self.scope.members() {
                            let got = adapter::ghost_value(ghosts, k, proc, row, col);
                            samples.push((got, self.fills[k][offset]));
                        }
                    }
                }
            }
        }
        samples
    }
}

impl Workload for Stmt {
    fn work(&self) -> f64 {
        let halo_stages = self.stages.iter().filter(|(_, w)| w.is_some()).count();
        (STMT_CYCLES * (self.stages.len() + halo_stages * self.sizes.halos)) as f64
    }
    fn unit(&self) -> &'static str {
        "statements"
    }
    fn rep(&mut self, spans: &Spans) {
        for _ in 0..STMT_CYCLES {
            // Only the very first cycle plans; every later one replays.
            let distribute = if self.cycles_done == 0 {
                "distribute-cold"
            } else {
                "distribute"
            };
            for (layout, widths) in &self.stages {
                spans.time(distribute, || self.scope.distribute(layout));
                let Some(widths) = widths else { continue };
                for h in 0..self.sizes.halos {
                    if h % 2 == 0 {
                        self.last_ghosts[0] = Some(spans.time("halo", || self.scope.halo(widths)));
                    } else {
                        let in_flight = spans.time("halo-post", || self.scope.halo_post(widths));
                        self.last_ghosts[1] =
                            Some(spans.time("halo-wait", || adapter::halo_wait(in_flight)));
                    }
                }
            }
            self.cycles_done += 1;
        }
    }
    fn ledger(&mut self) -> Ledger {
        self.scope.take_ledger()
    }
    fn verify(&mut self, perturb: bool) -> bool {
        if !self.verified_once {
            // Once per process, check the run map itself against the
            // runtime's element-wise gather.
            let by_map = self.scope.dense_fast(0, &self.home);
            if by_map.is_none_or(|dense| !oracle::same_bits(&dense, &self.scope.dense(0))) {
                return false;
            }
        }
        for k in 0..self.scope.members() {
            let Some(mut dense) = self.scope.dense_fast(k, &self.home) else {
                return false; // not back in the home layout
            };
            if perturb && k == 0 {
                flip_a_bit(&mut dense);
            }
            if !oracle::same_bits(&dense, &self.fills[k]) {
                return false;
            }
        }
        self.verified_once = true;
        oracle::ghosts_ok(&self.ghost_samples())
    }
    fn probes(&mut self, m: &mut Metrics, run_s: f64) {
        let StmtSizes {
            procs, n, members, ..
        } = self.sizes;
        let cols = probes::dist(m, self.seed, &adapter::layout_cols(), &[n, n], procs);
        let rows = adapter::distribution(&adapter::layout_rows(), &[n, n], procs);
        probes::plan_redistribute(m, &cols, &rows, members);
        probes::plan_ghost(m, &cols, &[(0, 0), (1, 1)]);
        // Computed, not measured: every element of the class is repacked
        // by a DISTRIBUTE, whether or not it changes processor.
        let class_mb = (members * n * n * 8) as f64 / 1e6;
        m.set(
            "redistribute.mb_per_s",
            class_mb / (m.get("redistribute.stmt_ms") / 1e3),
        );
        let declare = || {
            ClassScope::declare(
                adapter::machine(procs),
                n,
                members,
                &adapter::layout_cols(),
                Backend::FromEnv,
            )
        };
        m.set("scope.declare_us", probes::time(5, declare) * 1e6);
        // The class is laid out (:, BLOCK) after every repetition.
        let noop = probes::time(5, || self.scope.distribute(&adapter::layout_cols()));
        m.set("scope.noop_distribute_us", noop * 1e6);
        if adapter::sharded_from_env() {
            probes::sharded_transport(m, self.seed, n * n, procs);
            // The same program on the shared backend, same sizes and ranks.
            let mut shared = Stmt::new(self.seed, self.sizes, Backend::Shared);
            let off = Spans::new(false);
            shared.rep(&off);
            let shared_run_s = probes::time(3, || shared.rep(&off));
            m.set("shard.over_shared_ratio", run_s / shared_run_s);
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint / restart
// ---------------------------------------------------------------------------

const CKPT_ELEMENTS: usize = 1 << 20;
const CKPT_PROCS: usize = 4;

struct Ckpt {
    seed: u64,
    dir: PathBuf,
    store: adapter::Checkpoints,
    data: Vec<f64>,
    owners: Vec<usize>,
    step: u64,
    ledger: Ledger,
    restored: Option<(Array, Array)>,
    /// Run maps of the file and the live layout; `None` until the first
    /// verification has gathered through the runtime's element-wise path.
    maps: Option<(RunMap, RunMap)>,
    file_bytes: u64,
}

impl Ckpt {
    fn new(seed: u64, scratch: &Path) -> Self {
        let mut rng = Rng::new(seed, 200);
        let data: Vec<f64> = (0..CKPT_ELEMENTS).map(|_| rng.unit()).collect();
        let owners: Vec<usize> = (0..CKPT_ELEMENTS).map(|_| rng.below(CKPT_PROCS)).collect();
        let dir = scratch.join(format!("ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            adapter::Checkpoints::new(&dir, &adapter::machine(CKPT_PROCS), &data, owners.clone());
        Self {
            seed,
            owners,
            dir,
            store,
            data,
            step: 0,
            ledger: Ledger::default(),
            restored: None,
            maps: None,
            file_bytes: 0,
        }
    }
}

impl Drop for Ckpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for Ckpt {
    fn work(&self) -> f64 {
        // Payload moved: one save, one restore, one restore-into.
        (3 * CKPT_ELEMENTS * 8) as f64 / 1e6
    }
    fn unit(&self) -> &'static str {
        "payload MB"
    }
    fn rep(&mut self, spans: &Spans) {
        self.step += 1;
        self.file_bytes = spans.time("save", || self.store.save(self.step));
        let same = spans.time("restore", || self.store.restore());
        let into = spans.time("restore-into", || self.store.restore_into());
        self.restored = Some((same, into));
    }
    fn ledger(&mut self) -> Ledger {
        self.ledger = self.store.take_ledger();
        self.ledger
    }
    fn verify(&mut self, perturb: bool) -> bool {
        let Some((same, into)) = &self.restored else {
            return false;
        };
        let (same_dense, mut into_dense) = match &self.maps {
            Some((file, live)) => (
                file.gather(same).unwrap_or_default(),
                live.gather(into).unwrap_or_default(),
            ),
            None => (same.dense(), into.dense()),
        };
        self.maps.get_or_insert_with(|| self.store.run_maps());
        if perturb {
            flip_a_bit(&mut into_dense);
        }
        oracle::ckpt_ok(
            &self.data,
            &same_dense,
            &into_dense,
            self.store.is_live(into),
            &self.ledger,
        )
    }
    fn traces_program(&self) -> bool {
        // With its tracer on, the program records one trace event per
        // checkpoint *byte* (`CommStats::record_ckpt_write` / `_read` call
        // `trace::instant_n(phase, bytes)`): 25 M events and about 1 GB per
        // repetition here.  Until that is fixed this workload's traced pass
        // keeps only the harness's spans, and its `trace.*` metrics read 0.
        false
    }
    fn probes(&mut self, m: &mut Metrics, _run_s: f64) {
        m.set("checkpoint.file_bytes", self.file_bytes as f64);
        let live = adapter::layout_indirect1d(self.owners.clone());
        let live = probes::dist(m, self.seed, &live, &[CKPT_ELEMENTS], CKPT_PROCS);
        probes::translation_build(m, self.seed, CKPT_ELEMENTS, CKPT_PROCS);
        let file = adapter::distribution(&adapter::layout_block1d(), &[CKPT_ELEMENTS], CKPT_PROCS);
        probes::plan_redistribute(m, &file, &live, 1);
    }
}
