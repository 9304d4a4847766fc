//! Interconnect topologies for hop counting.

/// The interconnect topology of the simulated machine, used only to count
/// network hops for the optional per-hop latency term of the cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Every pair of processors is one hop apart (an idealised crossbar).
    Crossbar,
    /// A bidirectional ring of `size` processors.
    Ring {
        /// Number of processors on the ring.
        size: usize,
    },
    /// A 2-D mesh of `rows × cols` processors with Manhattan routing.
    Mesh2D {
        /// Number of mesh rows.
        rows: usize,
        /// Number of mesh columns.
        cols: usize,
    },
    /// A hypercube of `dims` dimensions (2^dims processors); the hop count
    /// is the Hamming distance of the processor ids.
    Hypercube {
        /// Number of hypercube dimensions.
        dims: u32,
    },
}

impl Topology {
    /// A hypercube just large enough for `num_procs` processors — the
    /// iPSC-style default.
    pub fn hypercube_like(num_procs: usize) -> Self {
        let dims = (num_procs.max(1) as f64).log2().ceil() as u32;
        Topology::Hypercube { dims }
    }

    /// Number of network hops between processors `src` and `dst`
    /// (0 when `src == dst`).
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        if src == dst {
            return 0;
        }
        match self {
            Topology::Crossbar => 1,
            Topology::Ring { size } => {
                let size = (*size).max(1);
                let a = src % size;
                let b = dst % size;
                let d = a.abs_diff(b);
                d.min(size - d).max(1)
            }
            Topology::Mesh2D { rows, cols } => {
                let rows = (*rows).max(1);
                let cols = (*cols).max(1);
                let (r1, c1) = (src % rows, (src / rows) % cols);
                let (r2, c2) = (dst % rows, (dst / rows) % cols);
                (r1.abs_diff(r2) + c1.abs_diff(c2)).max(1)
            }
            Topology::Hypercube { .. } => ((src ^ dst).count_ones() as usize).max(1),
        }
    }

    /// The maximum hop count between any two processors of an `n`-processor
    /// machine under this topology.
    pub fn diameter(&self, n: usize) -> usize {
        (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .map(|(s, d)| self.hops(s, d))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_is_single_hop() {
        let t = Topology::Crossbar;
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 5), 1);
        assert_eq!(t.diameter(8), 1);
    }

    #[test]
    fn ring_wraps_around() {
        let t = Topology::Ring { size: 8 };
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.diameter(8), 4);
    }

    #[test]
    fn mesh_uses_manhattan_distance() {
        let t = Topology::Mesh2D { rows: 4, cols: 4 };
        // Column-major ids: proc 0 = (0,0), proc 5 = (1,1), proc 15 = (3,3).
        assert_eq!(t.hops(0, 5), 2);
        assert_eq!(t.hops(0, 15), 6);
        assert_eq!(t.hops(3, 3), 0);
        assert_eq!(t.diameter(16), 6);
    }

    #[test]
    fn hypercube_uses_hamming_distance() {
        let t = Topology::Hypercube { dims: 4 };
        assert_eq!(t.hops(0b0000, 0b0001), 1);
        assert_eq!(t.hops(0b0000, 0b1111), 4);
        assert_eq!(t.hops(0b1010, 0b1010), 0);
        assert_eq!(
            Topology::hypercube_like(16),
            Topology::Hypercube { dims: 4 }
        );
        assert_eq!(Topology::hypercube_like(9), Topology::Hypercube { dims: 4 });
        assert_eq!(Topology::hypercube_like(1), Topology::Hypercube { dims: 0 });
    }
}
