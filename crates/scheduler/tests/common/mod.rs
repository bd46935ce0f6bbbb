//! Drivers shared by the scheduler differential tests
//! (`graph_schedulers.rs`, `mvto.rs`).

use mvcc_core::{EntityId, Schedule, Step, TransactionSystem, TxId};
use mvcc_scheduler::Scheduler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The systems the unit tests of the graph schedulers and of MVTO enumerate.
pub const SYSTEMS: [&str; 4] = [
    "Ra(x) Wa(y) Rb(y) Wb(x) Rc(x) Wc(y)",
    "Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)",
    "Ra(x) Wa(x) Rb(x) Wb(y) Rc(y) Wc(x)",
    "Ra(x) Ra(y) Wa(x) Rb(x) Wb(y) Wb(x) Rc(y) Wc(y)",
];

/// Replays the interleaving `s` of `sys` in one of the two harness modes: a
/// rejected transaction is aborted and skipped, or (the prefix model) merely
/// loses the step.  A transaction commits with its last step if every one of
/// them was accepted.  `on_op` says whether a step was accepted.
pub fn replay(
    sys: &TransactionSystem,
    s: &Schedule,
    abort_on_reject: bool,
    mut on_op: impl FnMut(Op) -> bool,
) {
    let mut left: BTreeMap<TxId, usize> =
        sys.transactions().iter().map(|t| (t.id, t.len())).collect();
    let mut gone: BTreeSet<TxId> = BTreeSet::new();
    for &st in s.steps() {
        if gone.contains(&st.tx) {
            continue;
        }
        if on_op(Op::Step(st)) {
            let left = left.get_mut(&st.tx).unwrap();
            *left -= 1;
            if *left == 0 {
                on_op(Op::Commit(st.tx));
            }
        } else if abort_on_reject {
            on_op(Op::Abort(st.tx));
            gone.insert(st.tx);
        }
    }
}

/// One seeded stream of steps, commits and aborts over at most `in_flight`
/// open transactions; finished transactions never return.
pub fn random_stream(
    seed: u64,
    entities: u32,
    in_flight: usize,
    ops: usize,
    mut on_op: impl FnMut(Op) -> bool,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next_tx = 1u32;
    let mut open: Vec<(TxId, usize)> = Vec::new();
    for _ in 0..ops {
        while open.len() < in_flight {
            open.push((TxId(next_tx), 0));
            next_tx += 1;
        }
        let at = rng.gen_range(0..open.len());
        let (tx, accepted) = open[at];
        let roll = rng.gen_range(0..100u32);
        if roll < 5 {
            on_op(Op::Abort(tx));
            open.swap_remove(at);
        } else if roll < 5 + 10 * accepted.min(4) as u32 {
            on_op(Op::Commit(tx));
            open.swap_remove(at);
        } else {
            let entity = EntityId(rng.gen_range(0..entities));
            let step = if rng.gen_bool(0.55) {
                Step::read(tx, entity)
            } else {
                Step::write(tx, entity)
            };
            if on_op(Op::Step(step)) {
                open[at].1 += 1;
            } else if rng.gen_bool(0.7) {
                // Most rejected transactions abort; the rest carry on.
                on_op(Op::Abort(tx));
                open.swap_remove(at);
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Op {
    Step(Step),
    Commit(TxId),
    Abort(TxId),
}

/// Eight sessions, round-robin, four uniformly drawn steps each; a rejected
/// transaction aborts.  Returns the largest `retained(sched)` seen after a
/// commit.
pub fn retained_under_load<S: Scheduler>(
    sched: &mut S,
    retained: impl Fn(&S) -> usize,
    entities: u32,
    commits: usize,
) -> usize {
    let mut rng = SmallRng::seed_from_u64(0xb0 ^ u64::from(entities));
    let mut next_tx = 1u32;
    let mut sessions: Vec<(TxId, usize)> = Vec::new();
    let (mut committed, mut worst) = (0usize, 0usize);
    while committed < commits {
        sessions.resize_with(8, || {
            next_tx += 1;
            (TxId(next_tx), 0)
        });
        sessions.retain_mut(|(tx, done)| {
            let entity = EntityId(rng.gen_range(0..entities));
            let step = if rng.gen_bool(0.5) {
                Step::read(*tx, entity)
            } else {
                Step::write(*tx, entity)
            };
            if !sched.offer(step).is_accept() {
                sched.abort(*tx);
                return false;
            }
            *done += 1;
            if *done < 4 {
                return true;
            }
            sched.commit(*tx);
            committed += 1;
            worst = worst.max(retained(sched));
            false
        });
    }
    worst
}
