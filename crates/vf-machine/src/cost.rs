//! Linear message cost model.

use crate::Topology;

/// The machine cost model used to evaluate communication decisions.
///
/// A point-to-point message of `b` bytes between processors `s` and `d`
/// costs
///
/// ```text
///   alpha + beta * b + hop_latency * (hops(s, d) - 1)
/// ```
///
/// seconds, where `hops` comes from the configured [`Topology`].  Local
/// computation is charged at `compute_per_flop` seconds per floating-point
/// operation.  These are exactly the "startup overhead and cost per byte"
/// parameters the paper's §4 analysis is phrased in.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Message startup latency in seconds (α).
    pub alpha: f64,
    /// Per-byte transfer cost in seconds (β).
    pub beta: f64,
    /// Additional latency per extra network hop in seconds.
    pub hop_latency: f64,
    /// Cost of one floating-point operation in seconds.
    pub compute_per_flop: f64,
    /// Cost of copying one byte through local memory in seconds — the
    /// packing/unpacking work of a communication plan's copy phase.  The
    /// executors charge the copy phase as per-processor compute time *and*
    /// credit it as overlap against the posted messages, so a non-zero
    /// rate makes the simulated machine show communication hidden behind
    /// packing.  Zero (the default of every preset) reproduces the
    /// previous behaviour bit-for-bit.
    pub copy_per_byte: f64,
    /// Interconnect topology used for hop counting.
    pub topology: Topology,
}

impl CostModel {
    /// A cost model resembling the Intel iPSC/860 hypercube generation the
    /// paper's contemporaries reported on: ~75 µs startup, ~0.36 µs/byte
    /// (≈2.8 MB/s), ~60 ns per flop.
    pub fn ipsc860(num_procs: usize) -> Self {
        Self {
            alpha: 75e-6,
            beta: 0.36e-6,
            hop_latency: 10e-6,
            compute_per_flop: 60e-9,
            copy_per_byte: 0.0,
            topology: Topology::hypercube_like(num_procs),
        }
    }

    /// A modern commodity cluster: ~2 µs startup, 10 GB/s links, 1 ns/flop.
    pub fn modern_cluster() -> Self {
        Self {
            alpha: 2e-6,
            beta: 1e-10,
            hop_latency: 0.0,
            compute_per_flop: 1e-9,
            copy_per_byte: 0.0,
            topology: Topology::Crossbar,
        }
    }

    /// A latency-dominated machine (large α relative to β) — the regime in
    /// which fewer, larger messages win (column distributions in E1).
    pub fn latency_bound() -> Self {
        Self {
            alpha: 500e-6,
            beta: 0.01e-6,
            hop_latency: 0.0,
            compute_per_flop: 10e-9,
            copy_per_byte: 0.0,
            topology: Topology::Crossbar,
        }
    }

    /// A bandwidth-dominated machine (negligible α) — the regime in which
    /// smaller messages (2-D block distributions in E1) win.
    pub fn bandwidth_bound() -> Self {
        Self {
            alpha: 1e-6,
            beta: 1.0e-6,
            hop_latency: 0.0,
            compute_per_flop: 10e-9,
            copy_per_byte: 0.0,
            topology: Topology::Crossbar,
        }
    }

    /// A zero-cost model: useful in unit tests that only check counts.
    pub fn zero() -> Self {
        Self {
            alpha: 0.0,
            beta: 0.0,
            hop_latency: 0.0,
            compute_per_flop: 0.0,
            copy_per_byte: 0.0,
            topology: Topology::Crossbar,
        }
    }

    /// Builds a model from explicit α and β with everything else zero.
    pub fn from_alpha_beta(alpha: f64, beta: f64) -> Self {
        Self {
            alpha,
            beta,
            hop_latency: 0.0,
            compute_per_flop: 0.0,
            copy_per_byte: 0.0,
            topology: Topology::Crossbar,
        }
    }

    /// Time in seconds for a `bytes`-byte message from `src` to `dst`.
    pub fn message_time_between(&self, bytes: usize, src: usize, dst: usize) -> f64 {
        let hops = self.topology.hops(src, dst).max(1);
        self.alpha + self.beta * bytes as f64 + self.hop_latency * (hops - 1) as f64
    }

    /// Time in seconds for a `bytes`-byte message between adjacent
    /// processors.
    pub fn message_time(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
    }

    /// Time in seconds for `flops` floating-point operations on one
    /// processor.
    pub fn compute_time(&self, flops: usize) -> f64 {
        self.compute_per_flop * flops as f64
    }

    /// Returns the model with the local-memory copy rate set from a
    /// bandwidth in bytes per second (0 disables copy-phase modelling).
    pub fn with_copy_bandwidth(mut self, bytes_per_second: f64) -> Self {
        self.copy_per_byte = if bytes_per_second > 0.0 {
            1.0 / bytes_per_second
        } else {
            0.0
        };
        self
    }

    /// Time for a binary-tree collective (reduce/broadcast) over `nprocs`
    /// processors with per-stage payload `bytes`.
    pub fn tree_collective_time(&self, nprocs: usize, bytes: usize) -> f64 {
        if nprocs <= 1 {
            return 0.0;
        }
        let stages = (nprocs as f64).log2().ceil();
        stages * self.message_time(bytes)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::ipsc860(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_is_affine() {
        let m = CostModel::from_alpha_beta(10.0, 2.0);
        assert_eq!(m.message_time(0), 10.0);
        assert_eq!(m.message_time(5), 20.0);
    }

    #[test]
    fn presets_are_positive_and_ordered() {
        let ipsc = CostModel::ipsc860(16);
        let modern = CostModel::modern_cluster();
        assert!(ipsc.alpha > modern.alpha);
        assert!(ipsc.beta > modern.beta);
        assert!(ipsc.message_time(1024) > modern.message_time(1024));
        assert!(CostModel::latency_bound().alpha > CostModel::bandwidth_bound().alpha);
        assert!(CostModel::bandwidth_bound().beta > CostModel::latency_bound().beta);
    }

    #[test]
    fn hop_latency_counts_extra_hops() {
        let mut m = CostModel::from_alpha_beta(1.0, 0.0);
        m.hop_latency = 0.5;
        m.topology = Topology::Ring { size: 8 };
        // Adjacent processors: 1 hop, no extra latency.
        assert_eq!(m.message_time_between(0, 0, 1), 1.0);
        // Opposite side of the ring: 4 hops, 3 extra.
        assert_eq!(m.message_time_between(0, 0, 4), 2.5);
    }

    #[test]
    fn compute_and_collective_times() {
        let m = CostModel::from_alpha_beta(1.0, 0.0);
        assert_eq!(m.compute_time(100), 0.0);
        let mut m2 = m.clone();
        m2.compute_per_flop = 2.0;
        assert_eq!(m2.compute_time(3), 6.0);
        assert_eq!(m.tree_collective_time(1, 8), 0.0);
        assert_eq!(m.tree_collective_time(8, 0), 3.0);
        assert_eq!(m.tree_collective_time(5, 0), 3.0); // ceil(log2 5) = 3
    }

    #[test]
    fn default_is_ipsc() {
        let d = CostModel::default();
        assert_eq!(d.alpha, 75e-6);
    }
}
