//! Seeded transaction traffic: what the workers offer the engine.
//!
//! The access-generation policy itself is `mvcc_workload::random_accesses`
//! (the repo's single source of it); this module fixes the shapes the
//! workloads use and derives one independent deterministic stream per
//! worker from `--seed`.

use mvcc_core::{Action, EntityId};
use mvcc_workload::{random_accesses, Zipfian};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Steps per transaction, on every workload.
pub const STEPS: usize = 4;

/// The statistical shape of a workload's transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Distinct entities (rows).
    pub entities: usize,
    /// Zipfian skew of entity choice (0 = uniform).
    pub theta: f64,
    /// Probability that a step is a read.
    pub read_share: f64,
}

/// One transaction's access list.
pub type Accesses = Vec<(Action, EntityId)>;

/// A worker's deterministic stream of access lists.
pub struct AccessStream {
    rng: SmallRng,
    zipf: Zipfian,
    read_share: f64,
}

impl AccessStream {
    /// The stream of worker `worker` in round `round` of a run seeded
    /// with `seed`.  Every certifier of a round sees the same streams, so
    /// certifiers are compared on identical offered traffic.
    pub fn new(shape: Shape, seed: u64, round: usize, worker: usize) -> Self {
        let lane = (round as u64) << 32 | worker as u64;
        AccessStream {
            rng: SmallRng::seed_from_u64(
                seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(lane.wrapping_add(1)),
            ),
            zipf: Zipfian::new(shape.entities, shape.theta),
            read_share: shape.read_share,
        }
    }

    /// The next transaction's access list.
    pub fn next_txn(&mut self) -> Accesses {
        random_accesses(&mut self.rng, &self.zipf, STEPS, self.read_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        entities: 64,
        theta: 0.9,
        read_share: 0.5,
    };

    fn take(seed: u64, round: usize, worker: usize) -> Vec<Accesses> {
        let mut stream = AccessStream::new(SHAPE, seed, round, worker);
        (0..200).map(|_| stream.next_txn()).collect()
    }

    #[test]
    fn same_seed_gives_identical_stream_per_worker() {
        for worker in 0..2 {
            assert_eq!(take(7, 0, worker), take(7, 0, worker));
        }
    }

    #[test]
    fn workers_rounds_and_seeds_get_distinct_streams() {
        let base = take(7, 0, 0);
        assert_ne!(base, take(7, 0, 1), "workers share a stream");
        assert_ne!(base, take(7, 1, 0), "rounds share a stream");
        assert_ne!(base, take(8, 0, 0), "seeds share a stream");
        assert!(base.iter().all(|txn| txn.len() == STEPS));
    }
}
