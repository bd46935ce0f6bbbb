//! Serialization-graph testing (SGT): the most permissive single-version
//! scheduler.
//!
//! SGT maintains the conflict graph of the accepted prefix and accepts a
//! step iff the arcs it induces keep the graph acyclic.  SGT accepts exactly
//! the prefixes of CSR schedules, so in the acceptance-rate experiment it is
//! the upper bound of what single-version conflict-based scheduling can do —
//! the gap between SGT and [`crate::MvSgtScheduler`] is precisely the gap
//! between CSR and MVCSR that motivates the paper.
//!
//! **State.**  The graph, the per-entity step logs and the pruning of
//! committed source nodes are the shared `serialization_graph` core
//! (see that module for the index, the cycle test and the per-step budget);
//! this file only supplies the single-version conflict rule — an earlier
//! step of another transaction on the same entity conflicts unless both are
//! reads.  A pruned transaction leaves nothing behind, so the retained state
//! is the steps of the active transactions plus those of committed
//! transactions that still have a predecessor: independent of the history
//! length *and* of the number of entities.  Pruning never changes a
//! decision (`prunes_never_change_decisions`, and the never-pruning
//! reference in `tests/graph_schedulers.rs`).

use crate::serialization_graph::SerializationGraph;
use crate::{Decision, Scheduler};
use mvcc_core::{Action, Step, TxId};

/// Conflict-graph-testing scheduler.
#[derive(Debug, Clone)]
pub struct SgtScheduler {
    graph: SerializationGraph,
}

impl Default for SgtScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl SgtScheduler {
    /// Creates an SGT scheduler.
    pub fn new() -> Self {
        SgtScheduler {
            graph: SerializationGraph::new(false),
        }
    }

    /// Number of accepted steps currently retained (observability for the
    /// pruning tests and the engine's memory accounting).
    pub fn retained_steps(&self) -> usize {
        self.graph.retained_steps()
    }
}

impl Scheduler for SgtScheduler {
    fn name(&self) -> &'static str {
        "sgt"
    }

    fn is_multiversion(&self) -> bool {
        false
    }

    fn offer(&mut self, step: Step) -> Decision {
        let conflicts = |prev: Action| prev.is_write() || step.is_write();
        if self.graph.offer(step, None, conflicts) {
            Decision::ACCEPT
        } else {
            Decision::Reject
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
    use mvcc_core::Schedule;

    fn run_all(s: &Schedule) -> bool {
        let mut sched = SgtScheduler::new();
        s.steps().iter().all(|&st| sched.offer(st).is_accept())
    }

    #[test]
    fn accepts_exactly_the_csr_interleavings() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            assert_eq!(run_all(&s), mvcc_classify::is_csr(&s), "schedule {s}");
        }
    }

    #[test]
    fn rejects_the_step_that_closes_a_cycle() {
        let s = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
        let mut sched = SgtScheduler::new();
        let d: Vec<bool> = s
            .steps()
            .iter()
            .map(|&st| sched.offer(st).is_accept())
            .collect();
        assert_eq!(d, vec![true, true, true, false]);
    }

    #[test]
    fn abort_removes_the_transaction_from_the_graph() {
        let s = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
        let mut sched = SgtScheduler::new();
        for &st in &s.steps()[..3] {
            assert!(sched.offer(st).is_accept());
        }
        assert!(!sched.offer(s.steps()[3]).is_accept());
        sched.abort(TxId(1));
        // With A gone, B's write no longer closes a cycle.
        assert!(sched.offer(s.steps()[3]).is_accept());
    }

    #[test]
    fn accepts_more_than_2pl() {
        // Schedule accepted by SGT but not by immediate-reject 2PL:
        // A reads x, B writes x afterwards (conflict A->B only).
        let s = Schedule::parse("Ra(x) Wb(x) Wa(y) Rb(z)").unwrap();
        assert!(run_all(&s));
        let mut twopl = crate::TwoPhaseLockingScheduler::new(&s.tx_system());
        let all_2pl = s.steps().iter().all(|&st| twopl.offer(st).is_accept());
        assert!(!all_2pl);
    }

    #[test]
    fn reset_clears_graph() {
        let s = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
        let mut sched = SgtScheduler::new();
        for &st in s.steps() {
            let _ = sched.offer(st);
        }
        sched.reset();
        assert!(run_all(&Schedule::parse("Ra(x) Wa(x)").unwrap()));
        assert_eq!(sched.name(), "sgt");
    }

    /// The source-node GC argument, checked differentially: over every
    /// interleaving of a conflict-heavy system, a scheduler that is told
    /// about commits (and prunes) makes exactly the same accept/reject
    /// decisions as one that is not.
    #[test]
    fn prunes_never_change_decisions() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Rc(x) Wc(y)")
            .unwrap()
            .tx_system();
        let mut pruning_happened = false;
        for s in Schedule::all_interleavings(&sys) {
            let mut plain = SgtScheduler::new();
            let mut pruned = SgtScheduler::new();
            let mut remaining: std::collections::HashMap<TxId, usize> =
                sys.transactions().iter().map(|t| (t.id, t.len())).collect();
            for &st in s.steps() {
                let a = plain.offer(st).is_accept();
                let b = pruned.offer(st).is_accept();
                assert_eq!(a, b, "decision diverged at {st} in {s}");
                if a {
                    let left = remaining.get_mut(&st.tx).unwrap();
                    *left -= 1;
                    if *left == 0 {
                        // The transaction's last step: commit it on the
                        // pruning scheduler only.
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
    fn commit_prunes_source_nodes_and_bounds_state() {
        let mut sched = SgtScheduler::new();
        // A long chain of committed, non-overlapping transactions: each is
        // a source once its successor's arcs are accounted, so the graph
        // stays tiny.
        for i in 1..=100u32 {
            let tx = TxId(i);
            assert!(sched
                .offer(Step::read(tx, mvcc_core::EntityId(0)))
                .is_accept());
            assert!(sched
                .offer(Step::write(tx, mvcc_core::EntityId(0)))
                .is_accept());
            sched.commit(tx);
        }
        assert_eq!(
            sched.retained_steps(),
            0,
            "all committed sources should be pruned"
        );
    }
}
