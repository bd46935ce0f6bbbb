//! MVTO against a never-pruning reference written straight from the rule in
//! its module header, plus the bound on its retained state and the edge
//! cases of pruning at commit.

mod common;

use common::{random_stream, replay, retained_under_load, Op, SYSTEMS};
use mvcc_core::{EntityId, Schedule, Step, TxId, VersionSource};
use mvcc_scheduler::{Decision, MvtoScheduler, Scheduler};
use std::collections::HashMap;

/// The rule read literally: one flat list of every version ever written, in
/// acceptance order.  A read is served the version of its entity with the
/// largest write timestamp ≤ its own (the latest of a transaction's own
/// rewrites); a write is rejected iff the version just below its timestamp
/// was read by a younger transaction.  A commit is ignored; an abort forgets
/// the transaction's versions and timestamp.
#[derive(Default)]
struct Reference {
    next_ts: u64,
    ts_of: HashMap<TxId, u64>,
    /// (entity, writer, write timestamp, largest read timestamp)
    versions: Vec<(EntityId, Option<TxId>, u64, u64)>,
}

impl Reference {
    fn offer(&mut self, step: Step) -> Decision {
        let next_ts = &mut self.next_ts;
        let ts = *self.ts_of.entry(step.tx).or_insert_with(|| {
            *next_ts += 1;
            *next_ts
        });
        if !self.versions.iter().any(|v| v.0 == step.entity) {
            self.versions.push((step.entity, None, 0, 0));
        }
        // Reads look at or below `ts`, writes strictly below (`ts` >= 1).
        let bound = if step.is_read() { ts } else { ts - 1 };
        let below = self
            .versions
            .iter_mut()
            .filter(|v| v.0 == step.entity && v.2 <= bound)
            .max_by_key(|v| v.2)
            .unwrap();
        if step.is_read() {
            below.3 = below.3.max(ts);
            let read_from = below.1.map_or(VersionSource::Initial, VersionSource::Tx);
            return Decision::Accept {
                read_from: Some(read_from),
            };
        }
        if below.3 > ts {
            return Decision::Reject;
        }
        self.versions.push((step.entity, Some(step.tx), ts, ts));
        Decision::ACCEPT
    }

    fn abort(&mut self, tx: TxId) {
        self.ts_of.remove(&tx);
        self.versions.retain(|v| v.1 != Some(tx));
    }
}

/// Every interleaving, in both harness modes: a rejected transaction is
/// aborted and skipped, or (the prefix model) merely loses the step.  The
/// scheduler is told about every end of transaction, so it prunes.
#[test]
fn mvto_matches_the_reference_on_every_interleaving() {
    for system in SYSTEMS {
        let sys = Schedule::parse(system).unwrap().tx_system();
        for s in Schedule::all_interleavings(&sys) {
            for abort_on_reject in [false, true] {
                let mut reference = Reference::default();
                let mut sched = MvtoScheduler::new();
                replay(&sys, &s, abort_on_reject, |op| match op {
                    Op::Step(st) => {
                        let want = reference.offer(st);
                        assert_eq!(sched.offer(st), want, "at {st} in {s}");
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

#[test]
fn mvto_matches_the_reference_on_random_streams() {
    let (mut steps, mut rejects, mut pruned) = (0usize, 0usize, 0usize);
    for seed in 0..200u64 {
        let entities = [4, 16][seed as usize % 2];
        let in_flight = [2, 4, 8][seed as usize % 3];
        let mut reference = Reference::default();
        let mut sched = MvtoScheduler::new();
        random_stream(seed, entities, in_flight, 600, |op| match op {
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
        pruned += reference.versions.len() - sched.retained_versions();
    }
    assert!(rejects * 50 > steps, "the streams barely conflict");
    assert!(pruned * 10 > steps, "the streams barely prune");
}

/// One floor version per entity plus what the eight open transactions (and
/// the committed ones above the oldest of them) wrote — not the history.
/// With at least 64 entities that is within twice the table.
#[test]
fn retained_versions_are_independent_of_history_length() {
    const C: usize = 64;
    for entities in [64u32, 4096] {
        for commits in [1_000usize, 10_000] {
            let mut sched = MvtoScheduler::new();
            let worst = retained_under_load(
                &mut sched,
                MvtoScheduler::retained_versions,
                entities,
                commits,
            );
            assert!(
                worst <= entities as usize + C,
                "{entities} entities, {commits} commits: {worst}"
            );
        }
    }
}

/// The floor respects the oldest unfinished timestamp: a thousand younger
/// committed writes cannot take an old reader's version away, and the list
/// collapses at the first commit writing the entity once that reader is done.
#[test]
fn a_long_running_reader_keeps_its_version_until_it_finishes() {
    let (x, y, old) = (EntityId(0), EntityId(1), TxId(1));
    let mut sched = MvtoScheduler::new();
    assert!(sched.offer(Step::read(old, y)).is_accept());
    for tx in (2..=1_001).map(TxId) {
        assert!(sched.offer(Step::write(tx, x)).is_accept());
        sched.commit(tx);
    }
    assert_eq!(sched.retained_versions(), 1 + 1_001);
    assert_eq!(
        sched.offer(Step::read(old, x)).read_from(),
        Some(VersionSource::Initial)
    );
    // A younger transaction read the initial version, so the old one may
    // no longer write below it.
    assert!(sched.offer(Step::read(TxId(2_000), y)).is_accept());
    assert_eq!(sched.offer(Step::write(old, y)), Decision::Reject);
    sched.commit(old);
    assert_eq!(sched.retained_versions(), 1 + 1_001, "nobody wrote x yet");
    let last = TxId(2_001);
    assert!(sched.offer(Step::write(last, x)).is_accept());
    sched.commit(last);
    // x: the floor (TxId(1_001), below the open TxId(2_000)) and `last`.
    assert_eq!(sched.retained_versions(), 1 + 2);
    assert_eq!(
        sched.offer(Step::read(TxId(2_000), x)).read_from(),
        Some(VersionSource::Tx(TxId(1_001)))
    );
}

#[test]
fn finishing_a_transaction_that_never_stepped_is_a_no_op() {
    let s = Schedule::parse("Wa(x) Rb(x) Wb(y)").unwrap();
    let mut sched = MvtoScheduler::new();
    for &st in s.steps() {
        assert!(sched.offer(st).is_accept());
    }
    let (never_seen, undone) = (TxId(77), TxId(3));
    assert!(sched.offer(Step::write(undone, EntityId(0))).is_accept());
    sched.abort(undone);
    for tx in [never_seen, undone] {
        sched.commit(tx);
        sched.abort(tx);
        assert_eq!(sched.retained_versions(), 4);
    }
    // A and B are still unfinished, their versions and timestamps intact.
    assert_eq!(
        sched.offer(Step::read(TxId(2), EntityId(0))).read_from(),
        Some(VersionSource::Tx(TxId(1)))
    );
}

/// A rewrite shadows the transaction's earlier version; abort takes both.
#[test]
fn a_transaction_may_write_an_entity_twice() {
    let (x, a, b, c) = (EntityId(0), TxId(1), TxId(2), TxId(3));
    for commit in [true, false] {
        let mut sched = MvtoScheduler::new();
        assert!(sched.offer(Step::write(a, x)).is_accept());
        assert!(sched.offer(Step::write(a, x)).is_accept());
        assert_eq!(sched.retained_versions(), 3);
        assert_eq!(
            sched.offer(Step::read(b, x)).read_from(),
            Some(VersionSource::Tx(a))
        );
        // The third write looks below A's own versions: at the initial one,
        // which nobody read.
        assert!(sched.offer(Step::write(a, x)).is_accept());
        let served = if commit {
            sched.commit(a);
            VersionSource::Tx(a)
        } else {
            sched.abort(a);
            VersionSource::Initial
        };
        assert_eq!(sched.offer(Step::read(c, x)).read_from(), Some(served));
        // Committed, A's last version is the floor; aborted, the initial one.
        assert_eq!(sched.retained_versions(), 1);
    }
}

#[test]
fn aborting_an_uncommitted_writer_re_exposes_the_version_below() {
    let x = EntityId(0);
    let (a, b, c, d) = (TxId(1), TxId(2), TxId(3), TxId(4));
    let mut sched = MvtoScheduler::new();
    assert!(sched.offer(Step::write(a, x)).is_accept());
    sched.commit(a);
    assert_eq!(sched.retained_versions(), 1, "A's version is the floor");
    assert!(sched.offer(Step::write(b, x)).is_accept());
    assert_eq!(
        sched.offer(Step::read(c, x)).read_from(),
        Some(VersionSource::Tx(b))
    );
    sched.abort(b);
    assert_eq!(
        sched.offer(Step::read(d, x)).read_from(),
        Some(VersionSource::Tx(a))
    );
    assert_eq!(sched.retained_versions(), 1);
}
