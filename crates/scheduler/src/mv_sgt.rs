//! The generic MVCSR scheduler: multiversion serialization-graph testing.
//!
//! Section 6 of the paper: "we have presented a generic multiversion
//! scheduler based on MVCSR, of which all known (multi- or single-version)
//! schedulers are specializations".  The scheduler maintains the
//! multiversion conflict graph (MVCG) of the accepted prefix:
//!
//! * a **read** step never closes an MVCG cycle (it has no incoming arcs at
//!   the time it arrives) and is always accepted; the version it is served is
//!   the latest write of the entity by a transaction that is *not forced
//!   after the reader* in the current MVCG (falling back to older versions,
//!   ultimately the initial one);
//! * a **write** `W_j(x)` adds an arc `T_i → T_j` for every earlier accepted
//!   read `R_i(x)`; it is accepted iff the MVCG stays acyclic.
//!
//! The accepted schedules are exactly the prefixes of MVCSR schedules
//! (Theorem 1), so this scheduler realises the class the paper proposes as
//! the practical multiversion analogue of CSR.
//!
//! **Caveat (Section 4 of the paper, executable form).**  MVCSR is *not*
//! on-line schedulable, so no scheduler can both accept every MVCSR schedule
//! and always assign a serializing version function: the version chosen for
//! an early read may be invalidated by later steps.  This scheduler binds
//! versions greedily (latest compatible write), which maximises acceptance
//! but can produce a non-serializing assignment on adversarial inputs — see
//! the `greedy_version_binding_can_fail_to_serialize` test, which exhibits
//! exactly the paper's counterexample.  Schedulers that guarantee
//! serializable version assignments (e.g. [`crate::MvtoScheduler`]) must
//! accept strictly fewer schedules; that trade-off is the content of
//! Theorems 4–6.
//!
//! **State.**  The MVCG, the per-entity step logs and the pruning of
//! committed source nodes are the shared `serialization_graph` core (see
//! that module for the index, the cycle test and the per-step budget); this
//! file supplies the multiversion conflict rule (only an earlier *read*
//! conflicts with a later write) and the version choice.  A pruned
//! transaction's reads go with it; its writes stay behind as *settled*
//! versions, of which only the newest per entity can ever be served again —
//! the newest-first scan of `choose_version` stops there at the latest,
//! because a writer that has left the graph is forced after no reader.
//! So the retained state is the steps of the transactions still in the
//! graph plus one settled version per written entity, whatever the length
//! of the history.  Pruning changes neither a decision nor a served version
//! (`prunes_never_change_decisions_or_versions`, and the never-pruning
//! reference in `tests/graph_schedulers.rs`).

use crate::serialization_graph::SerializationGraph;
use crate::{Decision, Scheduler};
use mvcc_core::{Action, EntityId, Schedule, Step, TxId, VersionFunction, VersionSource};

/// Multiversion conflict-graph-testing scheduler.
#[derive(Debug, Clone)]
pub struct MvSgtScheduler {
    graph: SerializationGraph,
}

impl Default for MvSgtScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl MvSgtScheduler {
    /// Creates an MV-SGT scheduler.
    pub fn new() -> Self {
        MvSgtScheduler {
            graph: SerializationGraph::new(true),
        }
    }

    /// The accepted prefix as a schedule.
    pub fn accepted_schedule(&self) -> Schedule {
        Schedule::from_steps(self.graph.steps().into_iter().map(|(s, _)| s).collect())
    }

    /// The version function assigned to the accepted prefix (ordinary reads
    /// only; final reads follow the standard rule).
    pub fn version_function(&self) -> VersionFunction {
        let mut vf = VersionFunction::standard(&self.accepted_schedule());
        for (pos, (_, read_from)) in self.graph.steps().into_iter().enumerate() {
            if let Some(source) = read_from {
                vf.assign(pos, source);
            }
        }
        vf
    }

    /// Number of accepted steps currently retained (observability for the
    /// pruning tests and the engine's memory accounting).
    pub fn retained_steps(&self) -> usize {
        self.graph.retained_steps()
    }

    /// Chooses the version served to a read of `entity` by `reader`:
    /// the most recent accepted write of the entity whose writer is not
    /// forced *after* the reader in the MVCG (no path from the reader to
    /// it), falling back to the initial version.
    fn choose_version(&self, reader: TxId, entity: EntityId) -> VersionSource {
        self.graph
            .writers(entity)
            .find(|&writer| writer == reader || !self.graph.reaches(reader, |t| t == writer))
            .map_or(VersionSource::Initial, VersionSource::Tx)
    }
}

impl Scheduler for MvSgtScheduler {
    fn name(&self) -> &'static str {
        "mv-sgt"
    }

    fn is_multiversion(&self) -> bool {
        true
    }

    fn offer(&mut self, step: Step) -> Decision {
        match step.action {
            // A read has no incoming arcs when it arrives: always accepted.
            Action::Read => {
                let version = self.choose_version(step.tx, step.entity);
                self.graph.offer(step, Some(version), |_| false);
                Decision::Accept {
                    read_from: Some(version),
                }
            }
            Action::Write => {
                if self.graph.offer(step, None, Action::is_read) {
                    Decision::ACCEPT
                } else {
                    Decision::Reject
                }
            }
        }
    }

    fn abort(&mut self, tx: TxId) {
        self.graph.abort(tx);
    }

    fn commit(&mut self, tx: TxId) {
        self.graph.commit(tx);
    }

    fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn run_all(s: &Schedule) -> bool {
        let mut sched = MvSgtScheduler::new();
        s.steps().iter().all(|&st| sched.offer(st).is_accept())
    }

    #[test]
    fn accepts_exactly_the_mvcsr_interleavings() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            assert_eq!(run_all(&s), mvcc_classify::is_mvcsr(&s), "schedule {s}");
        }
    }

    #[test]
    fn reads_are_always_accepted() {
        let s = Schedule::parse("Ra(x) Rb(x) Rc(x) Ra(y) Rb(y)").unwrap();
        assert!(run_all(&s));
    }

    #[test]
    fn accepts_strictly_more_than_sgt() {
        // Figure 1 example (4): MVCSR but not even view-serializable, so no
        // single-version scheduler can accept it, while MV-SGT does.
        let s4 = &mvcc_core::examples::figure1()[3].schedule;
        assert!(run_all(s4));
        let mut sgt = crate::SgtScheduler::new();
        assert!(!s4.steps().iter().all(|&st| sgt.offer(st).is_accept()));
    }

    #[test]
    fn assigned_version_function_serializes_the_accepted_schedule() {
        use mvcc_classify::serialization::{is_realizable, serial_read_froms};
        // Run over a batch of interleavings; whenever the whole schedule is
        // accepted, the scheduler's version assignment must agree with some
        // serialization (we check the one induced by the MVCG witness).
        let sys = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(y) Rc(y) Wc(x)")
            .unwrap()
            .tx_system();
        let mut checked = 0;
        for s in Schedule::all_interleavings(&sys).into_iter().take(300) {
            let mut sched = MvSgtScheduler::new();
            if s.steps().iter().all(|&st| sched.offer(st).is_accept()) {
                let order = mvcc_classify::mvcsr_witness(&s).expect("accepted => MVCSR");
                let rf = serial_read_froms(&s, &order);
                assert!(is_realizable(&s, &rf));
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn version_choice_prefers_latest_compatible_write() {
        let mut sched = MvSgtScheduler::new();
        let s = Schedule::parse("Wa(x) Wb(x) Rc(x)").unwrap();
        let decisions: Vec<Decision> = s.steps().iter().map(|&st| sched.offer(st)).collect();
        assert_eq!(
            decisions[2].read_from(),
            Some(VersionSource::Tx(TxId(2))),
            "nothing forces C after B, so C reads the latest version"
        );
    }

    #[test]
    fn version_choice_falls_back_when_the_latest_writer_is_forced_after() {
        // C reads x, then B writes x (arc C -> B), then C reads x again:
        // serving B's version would contradict C -> B, so the scheduler
        // serves an older version (here the initial one).
        let mut sched = MvSgtScheduler::new();
        let s = Schedule::parse("Rc(x) Wb(x) Rc(x)").unwrap();
        let d: Vec<Decision> = s.steps().iter().map(|&st| sched.offer(st)).collect();
        assert!(d.iter().all(|x| x.is_accept()));
        assert_eq!(d[2].read_from(), Some(VersionSource::Initial));
    }

    #[test]
    fn greedy_version_binding_can_fail_to_serialize() {
        // Figure 1 example (4) / Section 4: the schedule is MVCSR (so MV-SGT
        // accepts it), but serializing it requires R_B(x) to read the
        // *initial* version; the greedy binding hands it A's version, and
        // the resulting full schedule is not view-equivalent to any serial
        // order.  No scheduler accepting all of MVCSR can avoid this —
        // MVCSR is not OLS.
        use mvcc_core::equivalence::full_view_equivalent;
        use mvcc_core::VersionFunction;
        let s4 = &mvcc_core::examples::figure1()[3].schedule;
        let mut sched = MvSgtScheduler::new();
        assert!(s4.steps().iter().all(|&st| sched.offer(st).is_accept()));
        let vf = sched.version_function();
        let sys = s4.tx_system();
        let serializes = [vec![TxId(1), TxId(2)], vec![TxId(2), TxId(1)]]
            .into_iter()
            .any(|order| {
                let serial = Schedule::serial(&sys, &order);
                full_view_equivalent(s4, &vf, &serial, &VersionFunction::standard(&serial))
            });
        assert!(
            !serializes,
            "greedy binding happened to serialize; the counterexample should prevent that"
        );
        // The schedule itself *is* MVSR -- a different version function
        // works -- which is precisely the scheduler's dilemma.
        assert!(mvcc_classify::is_mvsr(s4));
    }

    #[test]
    fn abort_unblocks_rejected_writes() {
        let s = Schedule::parse("Ra(x) Rb(y) Wa(y) Wb(x)").unwrap();
        let mut sched = MvSgtScheduler::new();
        assert!(sched.offer(s.steps()[0]).is_accept());
        assert!(sched.offer(s.steps()[1]).is_accept());
        assert!(sched.offer(s.steps()[2]).is_accept()); // arc B -> A
        assert!(!sched.offer(s.steps()[3]).is_accept()); // arc A -> B would close the cycle
        sched.abort(TxId(1));
        assert!(sched.offer(s.steps()[3]).is_accept());
        assert_eq!(sched.name(), "mv-sgt");
        assert!(sched.is_multiversion());
    }

    /// The source-node GC argument, checked differentially: over every
    /// interleaving of a conflict-heavy system, a scheduler that is told
    /// about commits (and prunes) makes the same accept/reject decisions
    /// AND serves the same versions as one that is not.
    #[test]
    fn prunes_never_change_decisions_or_versions() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Rc(x) Wc(y)")
            .unwrap()
            .tx_system();
        let mut pruning_happened = false;
        for s in Schedule::all_interleavings(&sys) {
            let mut plain = MvSgtScheduler::new();
            let mut pruned = MvSgtScheduler::new();
            let mut remaining: HashMap<TxId, usize> =
                sys.transactions().iter().map(|t| (t.id, t.len())).collect();
            for &st in s.steps() {
                let a = plain.offer(st);
                let b = pruned.offer(st);
                assert_eq!(a, b, "decision or version diverged at {st} in {s}");
                if a.is_accept() {
                    let left = remaining.get_mut(&st.tx).unwrap();
                    *left -= 1;
                    if *left == 0 {
                        pruned.commit(st.tx);
                    }
                }
            }
            if pruned.retained_steps() < plain.retained_steps() {
                pruning_happened = true;
            }
        }
        assert!(pruning_happened, "the GC never fired on any interleaving");
    }

    #[test]
    fn commit_prunes_reads_but_keeps_the_version_store() {
        let mut sched = MvSgtScheduler::new();
        let x = mvcc_core::EntityId(0);
        for i in 1..=50u32 {
            let tx = TxId(i);
            assert!(sched.offer(Step::read(tx, x)).is_accept());
            assert!(sched.offer(Step::write(tx, x)).is_accept());
            sched.commit(tx);
        }
        // All read steps pruned, and settled writes collapsed to the
        // newest one per entity — state is O(entities), not O(history).
        assert_eq!(sched.retained_steps(), 1);
        // A fresh reader is still served the newest committed version.
        let d = sched.offer(Step::read(TxId(99), x));
        assert_eq!(d.read_from(), Some(VersionSource::Tx(TxId(50))));
    }
}
