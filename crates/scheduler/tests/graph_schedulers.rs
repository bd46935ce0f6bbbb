//! SGT and MV-SGT against a never-pruning reference written straight from
//! Section 6 of the paper, plus the bounds and edge cases of the indexed
//! graph core they share.

mod common;

use common::{random_stream, replay, retained_under_load, Op, SYSTEMS};
use mvcc_core::conflict::{mv_conflicts, sv_conflicts};
use mvcc_core::{EntityId, Schedule, Step, TxId, VersionSource};
use mvcc_scheduler::{Decision, MvSgtScheduler, Scheduler, SgtScheduler};
use std::collections::BTreeSet;

/// Section 6 read literally: a flat list of the accepted steps; a step adds
/// an arc from the transaction of every earlier conflicting step to its own
/// and is accepted iff that closes no cycle; a multiversion read is served
/// the latest write of the entity whose writer is not forced after the
/// reader.  Nothing is ever pruned: a commit is ignored, an abort forgets
/// the transaction's steps (and with them its arcs).
struct Reference {
    multiversion: bool,
    steps: Vec<Step>,
    arcs: BTreeSet<(TxId, TxId)>,
}

impl Reference {
    fn new(multiversion: bool) -> Self {
        Reference {
            multiversion,
            steps: Vec::new(),
            arcs: BTreeSet::new(),
        }
    }

    /// `true` if a non-empty path leads from `from` to `to`.
    fn path(arcs: &BTreeSet<(TxId, TxId)>, from: TxId, to: TxId) -> bool {
        let (mut reached, mut frontier) = (BTreeSet::new(), vec![from]);
        while let Some(n) = frontier.pop() {
            for &(_, next) in arcs.iter().filter(|&&(a, _)| a == n) {
                if next == to {
                    return true;
                }
                if reached.insert(next) {
                    frontier.push(next);
                }
            }
        }
        false
    }

    fn offer(&mut self, step: Step) -> Decision {
        let conflicts = if self.multiversion {
            mv_conflicts
        } else {
            sv_conflicts
        };
        let mut arcs = self.arcs.clone();
        arcs.extend(
            self.steps
                .iter()
                .filter(|prev| conflicts(prev, &step))
                .map(|prev| (prev.tx, step.tx)),
        );
        // The graph was acyclic and every new arc enters `step.tx`.
        if Self::path(&arcs, step.tx, step.tx) {
            return Decision::Reject;
        }
        let read_from = (self.multiversion && step.is_read()).then(|| {
            self.steps
                .iter()
                .rev()
                .filter(|w| w.is_write() && w.entity == step.entity)
                .find(|w| w.tx == step.tx || !Self::path(&arcs, step.tx, w.tx))
                .map_or(VersionSource::Initial, |w| VersionSource::Tx(w.tx))
        });
        self.arcs = arcs;
        self.steps.push(step);
        Decision::Accept { read_from }
    }

    fn abort(&mut self, tx: TxId) {
        self.steps.retain(|s| s.tx != tx);
        self.arcs.retain(|&(a, b)| a != tx && b != tx);
    }
}

fn indexed(multiversion: bool) -> Box<dyn Scheduler> {
    if multiversion {
        Box::new(MvSgtScheduler::new())
    } else {
        Box::new(SgtScheduler::new())
    }
}

/// Every interleaving, in both harness modes: a rejected transaction is
/// aborted and skipped, or (the prefix model) merely loses the step.  The
/// indexed scheduler is told about every end of transaction, so it prunes.
#[test]
fn indexed_schedulers_match_the_reference_on_every_interleaving() {
    for multiversion in [false, true] {
        for system in SYSTEMS {
            let sys = Schedule::parse(system).unwrap().tx_system();
            for s in Schedule::all_interleavings(&sys) {
                for abort_on_reject in [false, true] {
                    let mut reference = Reference::new(multiversion);
                    let mut sched = indexed(multiversion);
                    replay(&sys, &s, abort_on_reject, |op| match op {
                        Op::Step(st) => {
                            let want = reference.offer(st);
                            assert_eq!(sched.offer(st), want, "{} at {st} in {s}", sched.name());
                            want.is_accept()
                        }
                        Op::Commit(tx) => {
                            sched.commit(tx);
                            true
                        }
                        Op::Abort(tx) => {
                            reference.abort(tx);
                            sched.abort(tx);
                            true
                        }
                    });
                }
            }
        }
    }
}

#[test]
fn indexed_schedulers_match_the_reference_on_random_streams() {
    for multiversion in [false, true] {
        let (mut steps, mut rejects) = (0usize, 0usize);
        for seed in 0..120u64 {
            let entities = [2, 3, 5, 16][seed as usize % 4];
            let in_flight = [2, 4, 8][seed as usize % 3];
            let mut reference = Reference::new(multiversion);
            let mut sched = indexed(multiversion);
            random_stream(seed, entities, in_flight, 250, |op| match op {
                Op::Step(st) => {
                    let want = reference.offer(st);
                    assert_eq!(sched.offer(st), want, "seed {seed} at {st}");
                    steps += 1;
                    rejects += usize::from(!want.is_accept());
                    want.is_accept()
                }
                Op::Commit(tx) => {
                    sched.commit(tx);
                    true
                }
                Op::Abort(tx) => {
                    reference.abort(tx);
                    sched.abort(tx);
                    true
                }
            });
        }
        assert!(rejects * 50 > steps, "the streams barely conflict");
    }
}

/// The state is bounded by the transactions in flight (plus, for MV-SGT, one
/// settled version per entity) — not by the history, and for SGT not by the
/// table either.
#[test]
fn retained_state_is_independent_of_history_length() {
    // Eight open transactions of four steps, and the committed ones they
    // still precede.
    const C: usize = 64;
    for entities in [64u32, 4096] {
        for commits in [1_000usize, 10_000] {
            let mut sgt = SgtScheduler::new();
            let worst =
                retained_under_load(&mut sgt, SgtScheduler::retained_steps, entities, commits);
            assert!(
                worst < C,
                "sgt, {entities} entities, {commits} commits: {worst}"
            );
            let mut mv = MvSgtScheduler::new();
            let worst =
                retained_under_load(&mut mv, MvSgtScheduler::retained_steps, entities, commits);
            assert!(
                worst < entities as usize + C,
                "mv-sgt, {entities} entities, {commits} commits: {worst}"
            );
        }
    }
}

/// A fresh transaction's first step can never be rejected (it has no
/// successors), so "no admitted step" means: never seen, or already undone.
#[test]
fn finishing_a_transaction_without_admitted_steps_is_a_no_op() {
    let prefix = Schedule::parse("Ra(x) Rb(y) Wa(y) Rc(x)").unwrap();
    let mut mv = MvSgtScheduler::new();
    let mut sgt = SgtScheduler::new();
    for &st in prefix.steps() {
        assert!(mv.offer(st).is_accept() && sgt.offer(st).is_accept());
    }
    let (schedule, versions) = (mv.accepted_schedule(), mv.version_function());
    let (never_seen, undone) = (TxId(77), TxId(4));
    let d = Step::write(undone, EntityId(1));
    assert!(mv.offer(d).is_accept() && sgt.offer(d).is_accept());
    mv.abort(undone);
    sgt.abort(undone);
    for tx in [never_seen, undone] {
        for commit in [true, false] {
            if commit {
                mv.commit(tx);
                sgt.commit(tx);
            } else {
                mv.abort(tx);
                sgt.abort(tx);
            }
            assert_eq!(mv.accepted_schedule(), schedule);
            assert_eq!(mv.version_function(), versions);
            assert_eq!(sgt.retained_steps(), prefix.len());
        }
    }
    // The graphs are intact: B -> A is in both, so B's write of x (A -> B)
    // still closes the cycle.
    let closing = Step::write(TxId(2), EntityId(0));
    assert!(!mv.offer(closing).is_accept());
    assert!(!sgt.offer(closing).is_accept());
}

#[test]
fn aborting_a_predecessor_prunes_its_committed_successors() {
    let s = Schedule::parse("Ra(x) Wb(x) Rc(x)").unwrap();
    let (a, b, c) = (TxId(1), TxId(2), TxId(3));
    let mut mv = MvSgtScheduler::new();
    let mut sgt = SgtScheduler::new();
    for &st in &s.steps()[..2] {
        assert!(mv.offer(st).is_accept() && sgt.offer(st).is_accept());
    }
    // A -> B keeps the committed B in the graph.
    mv.commit(b);
    sgt.commit(b);
    assert_eq!((mv.retained_steps(), sgt.retained_steps()), (2, 2));
    mv.abort(a);
    sgt.abort(a);
    assert_eq!(sgt.retained_steps(), 0, "B went with its last predecessor");
    assert_eq!(
        mv.retained_steps(),
        1,
        "B's write stays as a settled version"
    );
    assert_eq!(
        mv.offer(s.steps()[2]).read_from(),
        Some(VersionSource::Tx(b))
    );
    assert!(sgt.offer(s.steps()[2]).is_accept());
    mv.commit(c);
    sgt.commit(c);
    assert_eq!((mv.retained_steps(), sgt.retained_steps()), (1, 0));
}

/// Every instance hashes with its own random keys, so anything that
/// followed map iteration order would differ between two of them; and the
/// accepted schedule must be the accepted steps in arrival order.
#[test]
fn observable_order_is_arrival_order_not_hash_order() {
    for seed in 0..20u64 {
        let mut accepted: Vec<Step> = Vec::new();
        let mut first = MvSgtScheduler::new();
        let mut others = [
            MvSgtScheduler::new(),
            MvSgtScheduler::new(),
            MvSgtScheduler::new(),
        ];
        random_stream(seed, 24, 6, 200, |op| match op {
            Op::Step(st) => {
                let want = first.offer(st);
                for other in &mut others {
                    assert_eq!(other.offer(st), want, "seed {seed} at {st}");
                }
                if want.is_accept() {
                    accepted.push(st);
                }
                want.is_accept()
            }
            // Nothing is pruned, so the whole accepted prefix is retained.
            Op::Commit(_) => true,
            Op::Abort(tx) => {
                first.abort(tx);
                others.iter_mut().for_each(|other| other.abort(tx));
                accepted.retain(|s| s.tx != tx);
                true
            }
        });
        assert_eq!(first.accepted_schedule().steps(), accepted.as_slice());
        for other in &others {
            assert_eq!(other.accepted_schedule(), first.accepted_schedule());
            assert_eq!(other.version_function(), first.version_function());
        }
    }
}
