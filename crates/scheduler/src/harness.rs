//! Driving schedulers over input interleavings and collecting statistics.
//!
//! Two execution modes are provided:
//!
//! * [`run_prefix`] — the paper's model: the scheduler recognises a prefix of
//!   the input; the run stops at the first rejected step.  The interesting
//!   quantity is how much of the input (and whether all of it) is accepted.
//! * [`run_abort`] — the systems view: a rejected step aborts its
//!   transaction (the scheduler is told via [`Scheduler::abort`]), the rest
//!   of that transaction's steps are skipped, and the run continues; a
//!   transaction whose last step is accepted is announced via
//!   [`Scheduler::commit`].  The interesting quantities are
//!   committed/aborted transaction counts.
//!
//! Experiment E9 (the introduction's "multiversion schedulers have enhanced
//! performance") is the comparison of these statistics across the scheduler
//! zoo on identical workloads.

use crate::Scheduler;
use mvcc_core::{Schedule, Step, TxId};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of a prefix-recognition run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixOutcome {
    /// Number of steps accepted before the first rejection (or all of them).
    pub accepted_steps: usize,
    /// Total number of steps offered.
    pub total_steps: usize,
    /// `true` if every step was accepted.
    pub accepted_all: bool,
    /// The accepted prefix.
    pub prefix: Schedule,
}

impl PrefixOutcome {
    /// Fraction of the input accepted (1.0 when the whole schedule was).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.total_steps == 0 {
            1.0
        } else {
            self.accepted_steps as f64 / self.total_steps as f64
        }
    }
}

/// Runs `scheduler` over `schedule` in prefix-recognition mode.
pub fn run_prefix(scheduler: &mut dyn Scheduler, schedule: &Schedule) -> PrefixOutcome {
    scheduler.reset();
    let mut accepted: Vec<Step> = Vec::new();
    for &step in schedule.steps() {
        if scheduler.offer(step).is_accept() {
            accepted.push(step);
        } else {
            break;
        }
    }
    PrefixOutcome {
        accepted_steps: accepted.len(),
        total_steps: schedule.len(),
        accepted_all: accepted.len() == schedule.len(),
        prefix: Schedule::from_steps(accepted),
    }
}

/// Outcome of an abort-and-continue run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortOutcome {
    /// Transactions all of whose steps were accepted.
    pub committed: BTreeSet<TxId>,
    /// Transactions aborted because one of their steps was rejected.
    pub aborted: BTreeSet<TxId>,
    /// Steps accepted (including steps of later-aborted transactions).
    pub accepted_steps: usize,
    /// Total number of steps offered (steps of already-aborted transactions
    /// are skipped and not counted as offered).
    pub offered_steps: usize,
    /// The committed projection of the accepted schedule: accepted steps of
    /// committed transactions, in order.
    pub committed_schedule: Schedule,
}

impl AbortOutcome {
    /// Fraction of transactions that committed.
    pub fn commit_ratio(&self) -> f64 {
        let total = self.committed.len() + self.aborted.len();
        if total == 0 {
            1.0
        } else {
            self.committed.len() as f64 / total as f64
        }
    }
}

/// Runs `scheduler` over `schedule` in abort-and-continue mode.
pub fn run_abort(scheduler: &mut dyn Scheduler, schedule: &Schedule) -> AbortOutcome {
    scheduler.reset();
    let sys = schedule.tx_system();
    let mut remaining: BTreeMap<TxId, usize> =
        sys.transactions().iter().map(|t| (t.id, t.len())).collect();
    let mut aborted: BTreeSet<TxId> = BTreeSet::new();
    let mut accepted_steps_by_tx: BTreeMap<TxId, Vec<(usize, Step)>> = BTreeMap::new();
    let mut accepted_count = 0usize;
    let mut offered = 0usize;

    for (pos, &step) in schedule.steps().iter().enumerate() {
        if aborted.contains(&step.tx) {
            continue;
        }
        offered += 1;
        if scheduler.offer(step).is_accept() {
            accepted_count += 1;
            accepted_steps_by_tx
                .entry(step.tx)
                .or_default()
                .push((pos, step));
            // lint: allow(unwrap) — remaining is seeded with every tx before the loop
            let left = remaining.get_mut(&step.tx).expect("tx known");
            *left -= 1;
            if *left == 0 {
                // End of transaction: graph schedulers prune here, which
                // keeps long interleavings linear and changes no decision.
                scheduler.commit(step.tx);
            }
        } else {
            aborted.insert(step.tx);
            scheduler.abort(step.tx);
            accepted_steps_by_tx.remove(&step.tx);
        }
    }

    let committed: BTreeSet<TxId> = remaining
        .iter()
        .filter(|(tx, &left)| left == 0 && !aborted.contains(tx))
        .map(|(&tx, _)| tx)
        .collect();

    let mut committed_steps: Vec<(usize, Step)> = accepted_steps_by_tx
        .into_iter()
        .filter(|(tx, _)| committed.contains(tx))
        .flat_map(|(_, steps)| steps)
        .collect();
    committed_steps.sort_by_key(|&(pos, _)| pos);

    AbortOutcome {
        committed,
        aborted,
        accepted_steps: accepted_count,
        offered_steps: offered,
        committed_schedule: Schedule::from_steps(
            committed_steps.into_iter().map(|(_, s)| s).collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MvSgtScheduler, SgtScheduler, TwoPhaseLockingScheduler};
    use mvcc_core::Schedule;

    #[test]
    fn prefix_run_stops_at_first_rejection() {
        let s = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
        let mut sgt = SgtScheduler::new();
        let out = run_prefix(&mut sgt, &s);
        assert_eq!(out.accepted_steps, 3);
        assert!(!out.accepted_all);
        assert!((out.acceptance_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(out.prefix.len(), 3);
    }

    #[test]
    fn prefix_run_accepts_serial_schedules_fully() {
        let s = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(x)").unwrap();
        let mut sgt = SgtScheduler::new();
        let out = run_prefix(&mut sgt, &s);
        assert!(out.accepted_all);
        assert_eq!(out.prefix.steps(), s.steps());
    }

    #[test]
    fn abort_run_commits_the_rest() {
        let s = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
        let mut sgt = SgtScheduler::new();
        let out = run_abort(&mut sgt, &s);
        // B's write closes the cycle, so B aborts and A commits.
        assert!(out.committed.contains(&mvcc_core::TxId(1)));
        assert!(out.aborted.contains(&mvcc_core::TxId(2)));
        assert!((out.commit_ratio() - 0.5).abs() < 1e-9);
        assert!(mvcc_classify::is_csr(&out.committed_schedule));
    }

    #[test]
    fn abort_run_skips_remaining_steps_of_aborted_transactions() {
        let s = Schedule::parse("Wa(x) Wb(x) Rb(y) Ra(y)").unwrap();
        let mut twopl = TwoPhaseLockingScheduler::new(&s.tx_system());
        let out = run_abort(&mut twopl, &s);
        assert!(out.aborted.contains(&mvcc_core::TxId(2)));
        // B's later read of y must not have been offered.
        assert_eq!(out.offered_steps, 3);
    }

    #[test]
    fn committed_projection_of_mv_sgt_is_mvcsr() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Rc(x) Wc(y)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys).into_iter().take(200) {
            let mut sched = MvSgtScheduler::new();
            let out = run_abort(&mut sched, &s);
            assert!(
                mvcc_classify::is_mvcsr(&out.committed_schedule),
                "committed projection not MVCSR for {s}"
            );
        }
    }

    #[test]
    fn empty_schedule_outcomes() {
        let s = Schedule::empty();
        let mut sgt = SgtScheduler::new();
        let p = run_prefix(&mut sgt, &s);
        assert!(p.accepted_all);
        assert_eq!(p.acceptance_ratio(), 1.0);
        let a = run_abort(&mut sgt, &s);
        assert_eq!(a.commit_ratio(), 1.0);
        assert!(a.committed_schedule.is_empty());
    }
}
