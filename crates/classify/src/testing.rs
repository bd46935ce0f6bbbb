//! Schedules the classifiers' tests share.

use mvcc_core::{EntityId, Schedule, Step, TxId};

/// The first `len` schedules of the benchmark's `classify` corpus at
/// seed 1: 8 transactions x 4 steps over 8 entities, half reads.
pub(crate) fn benchmark_corpus(len: usize) -> Vec<Schedule> {
    mvcc_workload::random_interleavings(
        &mvcc_workload::WorkloadConfig {
            transactions: 8,
            steps_per_transaction: 4,
            entities: 8,
            read_ratio: 0.5,
            zipf_theta: 0.0,
            seed: 1u64.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        },
        len,
    )
}

/// A random interleaving of `txns` transactions of `steps` steps each
/// over `entities` entities, drawn from the xorshift stream `state`
/// (the shape of `tests/theorems.rs`'s `dense_random_schedule`): reads
/// and writes equally likely, or, with `reads_lead`, nine steps in ten
/// of the first half reads and one in ten of the second half.
pub(crate) fn dense_random_schedule(
    state: &mut u64,
    txns: usize,
    steps: usize,
    entities: u32,
    reads_lead: bool,
) -> Schedule {
    let mut next = |bound: usize| {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as usize
    };
    let mut left = vec![steps; txns];
    let mut out = Vec::with_capacity(txns * steps);
    while out.len() < txns * steps {
        let t = next(txns);
        if left[t] == 0 {
            continue;
        }
        left[t] -= 1;
        let (tx, entity) = (TxId(t as u32 + 1), EntityId(next(entities as usize) as u32));
        let reads_in_ten = match (reads_lead, 2 * out.len() < txns * steps) {
            (false, _) => 5,
            (true, true) => 9,
            (true, false) => 1,
        };
        out.push(if next(10) < reads_in_ten {
            Step::read(tx, entity)
        } else {
            Step::write(tx, entity)
        });
    }
    Schedule::from_steps(out)
}
