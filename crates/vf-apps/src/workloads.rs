//! Deterministic workload generators for the experiments.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A column-major N×N initial field with reproducible pseudo-random interior
/// values and zero boundary, suitable for the smoothing and ADI kernels.
pub fn initial_grid(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut field = vec![0.0; n * n];
    for j in 0..n {
        for i in 0..n {
            let boundary = i == 0 || j == 0 || i == n - 1 || j == n - 1;
            field[i + j * n] = if boundary {
                0.0
            } else {
                rng.gen_range(-1.0..1.0)
            };
        }
    }
    field
}

/// How the initial particle positions of the PIC workload are laid out over
/// the 1-D cell domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParticleLayout {
    /// Uniform over all cells — a balanced start.
    Uniform,
    /// A Gaussian cluster centred at `center` (fraction of the domain) with
    /// standard deviation `width` (fraction of the domain) — the
    /// load-imbalanced start that motivates general block distributions.
    Cluster {
        /// Centre of the cluster as a fraction of the domain `[0, 1)`.
        center: f64,
        /// Standard deviation as a fraction of the domain.
        width: f64,
    },
}

/// One simulated particle: a position in cell coordinates `[0, ncell)` and a
/// velocity in cells per step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Position in cell coordinates.
    pub pos: f64,
    /// Velocity in cells per time step.
    pub vel: f64,
}

impl Particle {
    /// The (0-based) cell index the particle currently belongs to: the
    /// floor of its position, clamped into `[0, ncell)`.
    pub fn cell(&self, ncell: usize) -> usize {
        // The cast truncates toward zero and saturates negative positions
        // at 0, so it equals `floor` for every input, without the libm call
        // `floor` costs on baseline x86-64.
        (self.pos as usize).min(ncell - 1)
    }
}

/// Generates `count` particles over `ncell` cells with the given layout and
/// a common drift velocity (plus a small random thermal component).
pub fn particles(
    ncell: usize,
    count: usize,
    layout: ParticleLayout,
    drift: f64,
    seed: u64,
) -> Vec<Particle> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let pos = match layout {
            ParticleLayout::Uniform => rng.gen_range(0.0..ncell as f64),
            ParticleLayout::Cluster { center, width } => {
                // Box-Muller style sample, clamped into the domain.
                let u1: f64 = rng.gen_range(1e-9..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (center * ncell as f64 + gauss * width * ncell as f64)
                    .clamp(0.0, ncell as f64 - 1e-9)
            }
        };
        let vel = drift + rng.gen_range(-0.1..0.1);
        out.push(Particle { pos, vel });
    }
    out
}

/// Counts the particles in every cell.
pub fn particles_per_cell(particles: &[Particle], ncell: usize) -> Vec<usize> {
    let mut counts = vec![0usize; ncell];
    for p in particles {
        counts[p.cell(ncell)] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_deterministic_with_zero_boundary() {
        let a = initial_grid(8, 42);
        let b = initial_grid(8, 42);
        let c = initial_grid(8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for i in 0..8 {
            assert_eq!(a[i], 0.0); // first column
            assert_eq!(a[i * 8], 0.0); // first row
        }
        assert!(a.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn uniform_particles_cover_the_domain() {
        let ps = particles(64, 1000, ParticleLayout::Uniform, 0.0, 1);
        assert_eq!(ps.len(), 1000);
        let counts = particles_per_cell(&ps, 64);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        let occupied = counts.iter().filter(|&&c| c > 0).count();
        assert!(occupied > 48, "uniform layout should touch most cells");
    }

    #[test]
    fn clustered_particles_concentrate() {
        let ps = particles(
            100,
            2000,
            ParticleLayout::Cluster {
                center: 0.25,
                width: 0.05,
            },
            0.0,
            7,
        );
        let counts = particles_per_cell(&ps, 100);
        let near: usize = counts[15..35].iter().sum();
        assert!(
            near > 1500,
            "most particles should sit near the cluster centre, got {near}"
        );
        // All particles stay inside the domain.
        assert!(ps.iter().all(|p| p.pos >= 0.0 && p.pos < 100.0));
        assert!(ps.iter().all(|p| p.cell(100) < 100));
    }

    #[test]
    fn cell_is_the_clamped_floor_of_every_position() {
        let positions = [
            f64::NEG_INFINITY,
            -1.5,
            -0.5,
            -0.0,
            0.0,
            0.5,
            1.0,
            3.999_999_999,
            4.0,
            7.5,
            100.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for pos in positions {
            let particle = Particle { pos, vel: 0.0 };
            assert_eq!(
                particle.cell(8),
                (pos.floor() as usize).min(7),
                "position {pos}"
            );
        }
    }

    #[test]
    fn drift_shifts_velocities() {
        let ps = particles(32, 500, ParticleLayout::Uniform, 0.5, 3);
        let mean_vel: f64 = ps.iter().map(|p| p.vel).sum::<f64>() / ps.len() as f64;
        assert!((mean_vel - 0.5).abs() < 0.05);
    }
}
