//! The particle-in-cell workload of paper Fig. 2 against its sequential
//! reference, as one table: every strategy × processor count × size, on
//! Serial, pooled and Sharded, ends with the reference's particles bit for
//! bit, each processor holding only cells to the right of its
//! predecessor's; every backend charges the same communication, and pinned
//! rows charge what the runtime charged when all particles lived in one
//! global vector.

use std::collections::HashMap;
use vf_apps::pic::{self, PicConfig, PicResult, PicStrategy};
use vf_apps::workloads::{self, Particle, ParticleLayout};
use vf_integration::{for_each_ambient_backend, zero_machine};

const STEPS: usize = 12;
/// `(cells, particles)`: fewer cells than the largest machine has
/// processors, and many more.
const SIZES: [(usize, usize); 2] = [(5, 60), (64, 700)];
const PROCS: [usize; 4] = [1, 3, 4, 8];
const STRATEGIES: [PicStrategy; 3] = [
    PicStrategy::StaticBlock,
    PicStrategy::DynamicGenBlock {
        period: 5,
        threshold: 1.05,
    },
    PicStrategy::Oracle,
];

/// What a run charged: per step `(max_particles, migrated_particles,
/// rebalanced)`, then the rebalance count and bytes and the total messages
/// and bytes of the ledger.
#[derive(Debug, Clone, PartialEq)]
struct Ledger {
    steps: Vec<(usize, usize, bool)>,
    rebalance_count: usize,
    rebalance_bytes: usize,
    messages: usize,
    bytes: usize,
}

impl Ledger {
    fn of(result: &PicResult) -> Self {
        Self {
            steps: result
                .per_step
                .iter()
                .map(|s| (s.max_particles, s.migrated_particles, s.rebalanced))
                .collect(),
            rebalance_count: result.rebalance_count,
            rebalance_bytes: result.rebalance_bytes,
            messages: result.stats.total_messages(),
            bytes: result.stats.total_bytes(),
        }
    }
}

/// A row pinned from the single-vector runtime: `STRATEGIES[strategy]` on
/// `procs` processors over the `SIZES` entry with `cells` cells.
struct Pinned {
    cells: usize,
    strategy: usize,
    procs: usize,
    rebalance_count: usize,
    rebalance_bytes: usize,
    messages: usize,
    bytes: usize,
    steps: [(usize, usize, bool); STEPS],
}

const PINNED: [Pinned; 6] = [
    Pinned {
        cells: 5,
        strategy: 0,
        procs: 8,
        rebalance_count: 0,
        rebalance_bytes: 0,
        messages: 117,
        bytes: 4640,
        steps: [
            (34, 30, false),
            (54, 19, false),
            (45, 31, false),
            (46, 17, false),
            (47, 30, false),
            (33, 21, false),
            (48, 27, false),
            (29, 22, false),
            (43, 7, false),
            (50, 7, false),
            (55, 21, false),
            (42, 10, false),
        ],
    },
    Pinned {
        cells: 5,
        strategy: 1,
        procs: 4,
        rebalance_count: 2,
        rebalance_bytes: 984,
        messages: 103,
        bytes: 5464,
        steps: [
            (34, 30, false),
            (54, 19, false),
            (45, 31, false),
            (46, 17, false),
            (47, 30, true),
            (33, 21, false),
            (48, 27, false),
            (29, 22, false),
            (43, 7, false),
            (50, 7, true),
            (55, 21, false),
            (42, 10, false),
        ],
    },
    Pinned {
        cells: 5,
        strategy: 2,
        procs: 3,
        rebalance_count: 12,
        rebalance_bytes: 1648,
        messages: 75,
        bytes: 5624,
        steps: [
            (34, 30, true),
            (54, 14, true),
            (45, 31, true),
            (46, 8, true),
            (52, 25, true),
            (33, 21, true),
            (48, 27, true),
            (29, 22, true),
            (43, 7, true),
            (50, 7, true),
            (55, 21, true),
            (42, 10, true),
        ],
    },
    Pinned {
        cells: 64,
        strategy: 0,
        procs: 4,
        rebalance_count: 0,
        rebalance_bytes: 0,
        messages: 84,
        bytes: 5456,
        steps: [
            (549, 19, false),
            (530, 23, false),
            (507, 21, false),
            (486, 27, false),
            (459, 32, false),
            (427, 27, false),
            (400, 24, false),
            (376, 28, false),
            (352, 19, false),
            (371, 36, false),
            (407, 30, false),
            (437, 19, false),
        ],
    },
    Pinned {
        cells: 64,
        strategy: 1,
        procs: 8,
        rebalance_count: 2,
        rebalance_bytes: 18392,
        messages: 297,
        bytes: 47400,
        steps: [
            (144, 118, false),
            (139, 155, false),
            (129, 159, false),
            (139, 136, false),
            (137, 140, true),
            (130, 161, false),
            (141, 131, false),
            (137, 141, false),
            (129, 146, false),
            (138, 142, true),
            (141, 132, false),
            (144, 145, false),
        ],
    },
    Pinned {
        cells: 64,
        strategy: 2,
        procs: 3,
        rebalance_count: 12,
        rebalance_bytes: 8792,
        messages: 93,
        bytes: 18920,
        steps: [
            (294, 44, true),
            (270, 56, true),
            (270, 45, true),
            (273, 45, true),
            (268, 50, true),
            (264, 61, true),
            (269, 42, true),
            (267, 48, true),
            (257, 54, true),
            (267, 48, true),
            (263, 49, true),
            (268, 51, true),
        ],
    },
];

impl Pinned {
    fn ledger(&self) -> Ledger {
        Ledger {
            steps: self.steps.to_vec(),
            rebalance_count: self.rebalance_count,
            rebalance_bytes: self.rebalance_bytes,
            messages: self.messages,
            bytes: self.bytes,
        }
    }
}

fn initial(ncell: usize, count: usize) -> Vec<Particle> {
    let layout = ParticleLayout::Cluster {
        center: 0.2,
        width: 0.06,
    };
    workloads::particles(ncell, count, layout, 0.4, 13)
}

/// The particles as a multiset of bit patterns.
fn sorted_bits<'a>(particles: impl IntoIterator<Item = &'a Particle>) -> Vec<(u64, u64)> {
    let mut bits: Vec<_> = particles
        .into_iter()
        .map(|p| (p.pos.to_bits(), p.vel.to_bits()))
        .collect();
    bits.sort_unstable();
    bits
}

/// Block and general-block cells run left to right over the processors,
/// so every particle a processor holds lies in a cell to the right of all
/// its predecessors' particles.
fn assert_cells_in_processor_order(lists: &[Vec<Particle>], ncell: usize, ctx: &str) {
    let mut right_edge = None;
    for (p, list) in lists.iter().enumerate() {
        let cells = list.iter().map(|particle| particle.cell(ncell));
        let (Some(lo), Some(hi)) = (cells.clone().min(), cells.max()) else {
            continue;
        };
        if let Some(edge) = right_edge {
            assert!(
                lo > edge,
                "{ctx}: processor {p} holds cell {lo}, left of a predecessor's cell {edge}"
            );
        }
        right_edge = Some(hi);
    }
}

#[test]
fn every_run_ends_with_the_reference_particles_on_every_backend() {
    let mut first_backend: HashMap<(usize, usize, usize), Ledger> = HashMap::new();
    for_each_ambient_backend(|backend| {
        for (ncell, count) in SIZES {
            let init = initial(ncell, count);
            for (s, &strategy) in STRATEGIES.iter().enumerate() {
                let config = PicConfig {
                    ncell,
                    steps: STEPS,
                    strategy,
                };
                let reference = sorted_bits(&pic::sequential_reference(&config, &init));
                for procs in PROCS {
                    let ctx = format!("{backend}: {strategy:?}, {ncell} cells, P = {procs}");
                    let result = pic::run(&config, &zero_machine(procs), &init);
                    assert_eq!(result.particles.len(), procs, "{ctx}: one list each");
                    assert_eq!(
                        sorted_bits(result.particles.iter().flatten()),
                        reference,
                        "{ctx}: final particles"
                    );
                    assert_eq!(result.total_particles, count, "{ctx}: total");
                    assert_cells_in_processor_order(&result.particles, ncell, &ctx);
                    let mean = count as f64 / procs as f64;
                    for (k, step) in result.per_step.iter().enumerate() {
                        assert_eq!(step.step, k, "{ctx}");
                        assert_eq!(step.imbalance, step.max_particles as f64 / mean, "{ctx}");
                    }

                    let ledger = Ledger::of(&result);
                    if let Some(pin) = PINNED
                        .iter()
                        .find(|pin| (pin.cells, pin.strategy, pin.procs) == (ncell, s, procs))
                    {
                        assert_eq!(ledger, pin.ledger(), "{ctx}: pinned ledger");
                    }
                    let first = first_backend
                        .entry((ncell, s, procs))
                        .or_insert_with(|| ledger.clone());
                    assert_eq!(&ledger, first, "{ctx}: the first backend's ledger");
                }
            }
        }
    });
    assert_eq!(
        first_backend.len(),
        SIZES.len() * STRATEGIES.len() * PROCS.len()
    );
}
