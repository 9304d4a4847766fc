//! The particle-in-cell (PIC) simulation of Figure 2: dynamic load
//! balancing with general block distributions.
//!
//! The domain is divided into `NCELL` cells; each cell owns the particles
//! currently inside it, and the per-cell work is proportional to the number
//! of particles there.  As particles drift across the domain the work per
//! processor changes, so the code of Figure 2 recomputes a `BOUNDS` array
//! from the particle counts every tenth iteration (when `rebalance()` says
//! so) and executes `DISTRIBUTE FIELD :: B_BLOCK(BOUNDS)`.
//!
//! The field array here is one value per cell (`FIELD(NCELL)`), standing in
//! for the paper's `FIELD(NCELL, NPART, ...)`; the particle lists are kept
//! per cell, owned by the processor owning the cell, and particle motion
//! between cells on different processors is charged through the
//! inspector/executor-style aggregation the paper prescribes for it.

use crate::workloads::{particles_per_cell, Particle};
use std::collections::HashMap;
use vf_dist::{DistType, Distribution, ProcId, ProcessorView};
use vf_index::{IndexDomain, Point};
use vf_machine::{trace, CommStats, Machine};
use vf_runtime::ghost::exchange_class_ghosts_split;
use vf_runtime::{redistribute, DistArray, ExecBackend, PlanCache, RedistOptions};

/// Flops charged per particle per phase (field contribution + position
/// update).
const FLOPS_PER_PARTICLE: usize = 20;
/// Wire size of one particle (position + velocity).
const PARTICLE_BYTES: usize = 16;

/// The load-balancing strategy of a PIC run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PicStrategy {
    /// `BLOCK` cells throughout — the Figure 2 code *without* the
    /// rebalancing branch.
    StaticBlock,
    /// Figure 2 as written: every `period` steps, if the imbalance exceeds
    /// `threshold`, recompute `BOUNDS` and redistribute.
    DynamicGenBlock {
        /// Rebalancing check period in steps (10 in the paper).
        period: usize,
        /// Rebalance when max/avg particles per processor exceeds this.
        threshold: f64,
    },
    /// Rebalance every step regardless of imbalance — an upper bound on the
    /// achievable balance (and on redistribution cost).
    Oracle,
}

/// Configuration of a PIC run.
#[derive(Debug, Clone)]
pub struct PicConfig {
    /// Number of cells.
    pub ncell: usize,
    /// Number of simulation steps.
    pub steps: usize,
    /// Load-balancing strategy.
    pub strategy: PicStrategy,
}

/// Per-step measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PicStepStats {
    /// Step index.
    pub step: usize,
    /// Load imbalance before any rebalancing this step (max/avg particles
    /// per processor).
    pub imbalance: f64,
    /// Particles owned by the most loaded processor.
    pub max_particles: usize,
    /// Whether a rebalancing redistribution was performed this step.
    pub rebalanced: bool,
    /// Particles that crossed processors due to their own motion this step.
    pub migrated_particles: usize,
}

/// Result of a PIC run.
#[derive(Debug, Clone)]
pub struct PicResult {
    /// Accumulated machine statistics.
    pub stats: CommStats,
    /// Per-step measurements.
    pub per_step: Vec<PicStepStats>,
    /// Total number of particles at the end (must equal the initial count).
    pub total_particles: usize,
    /// Number of rebalancing redistributions performed.
    pub rebalance_count: usize,
    /// Bytes moved by rebalancing (field elements + particle lists).
    pub rebalance_bytes: usize,
    /// Mean over steps of the pre-rebalancing imbalance.
    pub mean_imbalance: f64,
    /// Maximum over steps of the pre-rebalancing imbalance.
    pub max_imbalance: f64,
}

/// The `balance` routine of Figure 2: computes per-processor block sizes
/// (the `BOUNDS` array) so that each processor receives contiguous cells
/// with approximately equal particle counts.
#[allow(clippy::needless_range_loop)] // `p` drives target arithmetic, not just indexing
pub fn balance(counts: &[usize], nprocs: usize) -> Vec<usize> {
    let ncell = counts.len();
    let total: usize = counts.iter().sum();
    let mut sizes = vec![0usize; nprocs];
    let mut cell = 0usize;
    let mut assigned = 0usize;
    for p in 0..nprocs {
        let remaining_procs = nprocs - p;
        // Target: an equal share of the remaining particles, while leaving
        // at least one cell for each remaining processor (when possible).
        let target = (total - assigned) as f64 / remaining_procs as f64;
        let mut here = 0usize;
        let mut taken = 0usize;
        while cell < ncell {
            let cells_left_after = ncell - cell - 1;
            if cells_left_after < remaining_procs - 1 {
                // Must stop so later processors can still get cells.
                break;
            }
            if p + 1 < nprocs && taken > 0 && here as f64 >= target {
                break;
            }
            here += counts[cell];
            taken += 1;
            cell += 1;
        }
        sizes[p] = taken;
        assigned += here;
    }
    // Any remaining cells go to the last processor.
    sizes[nprocs - 1] += ncell - cell;
    debug_assert_eq!(sizes.iter().sum::<usize>(), ncell);
    sizes
}

/// The `rebalance()` predicate of Figure 2: imbalance above a threshold.
pub fn needs_rebalance(imbalance: f64, threshold: f64) -> bool {
    imbalance > threshold
}

fn cell_distribution(ncell: usize, machine: &Machine, sizes: Option<Vec<usize>>) -> Distribution {
    let procs = ProcessorView::linear(machine.num_procs());
    let dist_type = match sizes {
        Some(s) => DistType::gen_block1d(s),
        None => DistType::block1d(),
    };
    Distribution::new(dist_type, IndexDomain::d1(ncell), procs)
        .expect("cell distributions are valid")
}

fn owner_of_cell(dist: &Distribution, cell: usize) -> ProcId {
    dist.owner(&Point::d1(cell as i64 + 1))
        .expect("cell within domain")
}

fn particles_per_proc(counts: &[usize], dist: &Distribution, nprocs: usize) -> Vec<usize> {
    let mut per_proc = vec![0usize; nprocs];
    for (cell, &c) in counts.iter().enumerate() {
        per_proc[owner_of_cell(dist, cell).0] += c;
    }
    per_proc
}

fn imbalance_of(per_proc: &[usize]) -> f64 {
    let total: usize = per_proc.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let avg = total as f64 / per_proc.len() as f64;
    per_proc.iter().copied().max().unwrap_or(0) as f64 / avg
}

/// Runs the PIC simulation and returns statistics.  `initial_particles` is
/// consumed and evolved in place.
pub fn run(config: &PicConfig, machine: &Machine, initial_particles: &[Particle]) -> PicResult {
    let tracker = machine.tracker();
    // Shared plan cache: the per-step cell-halo exchange always hits after
    // the first step under an unchanged distribution, and recurring
    // BOUNDS partitions reuse their redistribution schedules.  Rebalance
    // copies run on the auto-selected (threaded when multi-core) backend.
    let plans = PlanCache::new();
    let executor = ExecBackend::auto();
    let nprocs = machine.num_procs();
    let ncell = config.ncell;
    let mut particles: Vec<Particle> = initial_particles.to_vec();

    // FIELD(NCELL): one force value per cell.
    let mut field: DistArray<f64> =
        DistArray::new("FIELD", cell_distribution(ncell, machine, None));

    // Initial partition of cells (Figure 2 computes BOUNDS right after the
    // initial positions are known, for the dynamic strategies).
    if !matches!(config.strategy, PicStrategy::StaticBlock) {
        let counts = particles_per_cell(&particles, ncell);
        let sizes = balance(&counts, nprocs);
        redistribute(
            &mut field,
            cell_distribution(ncell, machine, Some(sizes)),
            &tracker,
            &RedistOptions::default(),
            &plans,
            &executor,
        )
        .expect("same domain");
    }

    let mut per_step = Vec::with_capacity(config.steps);
    let mut rebalance_count = 0usize;
    let mut rebalance_bytes = 0usize;

    for step in 0..config.steps {
        let _step_span = trace::OpenSpan::begin_with(trace::Phase::Step, || format!("step {step}"));
        let counts = particles_per_cell(&particles, ncell);
        let per_proc = particles_per_proc(&counts, field.dist(), nprocs);
        let imbalance = imbalance_of(&per_proc);
        let max_particles = per_proc.iter().copied().max().unwrap_or(0);

        // Rebalancing decision (before the step's work, mirroring the
        // "every 10th iteration" check of Figure 2).
        let rebalanced = match config.strategy {
            PicStrategy::StaticBlock => false,
            PicStrategy::Oracle => true,
            PicStrategy::DynamicGenBlock { period, threshold } => {
                step % period == period - 1 && needs_rebalance(imbalance, threshold)
            }
        };
        if rebalanced {
            let sizes = balance(&counts, nprocs);
            let old_dist = field.dist().clone();
            let new_dist = cell_distribution(ncell, machine, Some(sizes));
            let report = redistribute(
                &mut field,
                new_dist.clone(),
                &tracker,
                &RedistOptions::default(),
                &plans,
                &executor,
            )
            .expect("same domain");
            rebalance_count += 1;
            rebalance_bytes += report.bytes;
            // Particles follow their cells: those whose cell changed owner
            // are shipped as well (aggregated per processor pair).
            let mut pair_particles: HashMap<(usize, usize), usize> = HashMap::new();
            for (cell, &c) in counts.iter().enumerate() {
                let from = owner_of_cell(&old_dist, cell);
                let to = owner_of_cell(&new_dist, cell);
                if from != to && c > 0 {
                    *pair_particles.entry((from.0, to.0)).or_insert(0) += c;
                }
            }
            for (&(src, dst), &count) in &pair_particles {
                let bytes = count * PARTICLE_BYTES;
                tracker.send(src, dst, bytes);
                rebalance_bytes += bytes;
            }
        }

        // Phase 1: update_field — each cell owner accumulates the charge of
        // its particles and the field value of the cell.
        let counts_now = particles_per_cell(&particles, ncell);
        for (cell, &c) in counts_now.iter().enumerate() {
            let owner = owner_of_cell(field.dist(), cell);
            tracker.compute(owner.0, c * FLOPS_PER_PARTICLE);
            field
                .set(&Point::d1(cell as i64 + 1), c as f64)
                .expect("cell within domain");
        }
        // Neighbouring-cell field values are needed for the force on each
        // particle: post the 1-wide cell halo split-phase and let it stream
        // while phase 2 pushes particles (which reads only the particle
        // lists and the distribution, never the in-flight halo values).
        let halo_plan = plans
            .ghost_class_plan([field.dist()], &[(1, 1)])
            .expect("block and general block cells have contiguous segments");
        let halo = exchange_class_ghosts_split(&[&field], halo_plan, &tracker, &executor)
            .expect("the plan was made for this field");

        // Phase 2: update_part — move particles; those that cross to a cell
        // owned by another processor must be communicated (irregular,
        // aggregated per processor pair as the inspector/executor would).
        let push_span = trace::OpenSpan::begin_with(trace::Phase::InteriorCompute, || {
            format!("push {} particles", particles.len())
        });
        let mut migrated = 0usize;
        let mut pair_particles: HashMap<(usize, usize), usize> = HashMap::new();
        for particle in &mut particles {
            let old_cell = particle.cell(ncell);
            let owner_before = owner_of_cell(field.dist(), old_cell);
            tracker.compute(owner_before.0, FLOPS_PER_PARTICLE);
            // Reflecting boundaries keep every particle inside the domain.
            let mut pos = particle.pos + particle.vel;
            if pos < 0.0 {
                pos = -pos;
                particle.vel = -particle.vel;
            }
            let limit = ncell as f64 - 1e-9;
            if pos > limit {
                pos = 2.0 * limit - pos;
                particle.vel = -particle.vel;
            }
            particle.pos = pos.clamp(0.0, limit);
            let new_cell = particle.cell(ncell);
            let owner_after = owner_of_cell(field.dist(), new_cell);
            if owner_before != owner_after {
                migrated += 1;
                *pair_particles
                    .entry((owner_before.0, owner_after.0))
                    .or_insert(0) += 1;
            }
        }
        push_span.end();
        for (&(src, dst), &count) in &pair_particles {
            tracker.send(src, dst, count * PARTICLE_BYTES);
        }
        // Complete the halo posted before the push — the whole particle
        // phase ran in its shadow.
        halo.wait()
            .expect("split-phase halo exchange survives injected faults");

        per_step.push(PicStepStats {
            step,
            imbalance,
            max_particles,
            rebalanced,
            migrated_particles: migrated,
        });
    }

    let mean_imbalance =
        per_step.iter().map(|s| s.imbalance).sum::<f64>() / per_step.len().max(1) as f64;
    let max_imbalance = per_step.iter().map(|s| s.imbalance).fold(1.0f64, f64::max);
    PicResult {
        stats: tracker.snapshot(),
        per_step,
        total_particles: particles.len(),
        rebalance_count,
        rebalance_bytes,
        mean_imbalance,
        max_imbalance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{particles, ParticleLayout};
    use vf_machine::CostModel;

    fn clustered(ncell: usize, count: usize) -> Vec<Particle> {
        particles(
            ncell,
            count,
            ParticleLayout::Cluster {
                center: 0.2,
                width: 0.06,
            },
            0.4,
            13,
        )
    }

    #[test]
    fn balance_produces_even_particle_shares() {
        let counts = vec![10, 0, 0, 0, 10, 10, 10, 0, 0, 40];
        let sizes = balance(&counts, 4);
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s > 0));
        // Shares per processor under the computed bounds.
        let mut shares = vec![0usize; 4];
        let mut cell = 0;
        for (p, &s) in sizes.iter().enumerate() {
            for _ in 0..s {
                shares[p] += counts[cell];
                cell += 1;
            }
        }
        let max = *shares.iter().max().unwrap() as f64;
        let avg = 80.0 / 4.0;
        assert!(max / avg <= 2.01, "shares {shares:?} too uneven");
    }

    #[test]
    fn balance_handles_degenerate_inputs() {
        // All particles in one cell: that cell's processor carries them all,
        // but every processor still gets at least the remaining empty cells.
        let mut counts = vec![0usize; 8];
        counts[0] = 100;
        let sizes = balance(&counts, 4);
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        // No particles at all.
        let sizes = balance(&[0usize; 8], 4);
        assert_eq!(sizes.iter().sum::<usize>(), 8);
    }

    #[test]
    fn particles_are_conserved_under_every_strategy() {
        let ncell = 64;
        let init = clustered(ncell, 800);
        for strategy in [
            PicStrategy::StaticBlock,
            PicStrategy::DynamicGenBlock {
                period: 5,
                threshold: 1.2,
            },
            PicStrategy::Oracle,
        ] {
            let machine = Machine::new(4, CostModel::zero());
            let result = run(
                &PicConfig {
                    ncell,
                    steps: 12,
                    strategy,
                },
                &machine,
                &init,
            );
            assert_eq!(result.total_particles, 800, "{strategy:?} lost particles");
            assert_eq!(result.per_step.len(), 12);
        }
    }

    #[test]
    fn dynamic_rebalancing_reduces_imbalance() {
        let ncell = 128;
        let init = clustered(ncell, 2000);
        let run_strategy = |strategy| {
            // A cost model with a non-zero per-flop cost so that the
            // modelled compute imbalance is observable.
            let machine = Machine::new(8, CostModel::modern_cluster());
            run(
                &PicConfig {
                    ncell,
                    steps: 30,
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
        assert_eq!(static_block.rebalance_count, 0);
        assert!(dynamic.rebalance_count >= 1);
        assert!(
            dynamic.mean_imbalance < static_block.mean_imbalance,
            "dynamic {:.2} should be more balanced than static {:.2}",
            dynamic.mean_imbalance,
            static_block.mean_imbalance
        );
        // Better balance shows up as lower modelled compute imbalance too.
        assert!(dynamic.stats.load_imbalance() < static_block.stats.load_imbalance());
    }

    #[test]
    fn oracle_rebalancing_is_at_least_as_balanced_as_periodic() {
        let ncell = 96;
        let init = clustered(ncell, 1500);
        let run_strategy = |strategy| {
            let machine = Machine::new(6, CostModel::zero());
            run(
                &PicConfig {
                    ncell,
                    steps: 20,
                    strategy,
                },
                &machine,
                &init,
            )
        };
        let periodic = run_strategy(PicStrategy::DynamicGenBlock {
            period: 10,
            threshold: 1.1,
        });
        let oracle = run_strategy(PicStrategy::Oracle);
        assert!(oracle.rebalance_count >= periodic.rebalance_count);
        assert!(oracle.mean_imbalance <= periodic.mean_imbalance + 1e-9);
        // ...but it pays for it with more redistribution traffic.
        assert!(oracle.rebalance_bytes >= periodic.rebalance_bytes);
    }

    #[test]
    fn rebalance_predicate_thresholds() {
        assert!(needs_rebalance(1.5, 1.2));
        assert!(!needs_rebalance(1.1, 1.2));
    }
}
