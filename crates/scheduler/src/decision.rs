//! The scheduler interface.
//!
//! The paper's model (Section 2): "the scheduler examines each step of the
//! schedule in sequence and accepts it if the sequence of steps examined so
//! far is a prefix of a schedule in the set it recognizes; otherwise it
//! rejects the step".  A *multiversion* scheduler must additionally compute
//! the version function, i.e. decide on the spot which version an accepted
//! read observes.

use mvcc_core::{Step, TxId, VersionSource};

/// The scheduler's verdict on one offered step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The step is accepted.  For read steps of multiversion schedulers,
    /// `read_from` records which version the scheduler serves (`None` for
    /// single-version schedulers, which always serve the latest version, and
    /// for write steps).
    Accept {
        /// Version served to an accepted read, if the scheduler assigns one.
        read_from: Option<VersionSource>,
    },
    /// The step is rejected.
    Reject,
}

impl Decision {
    /// Plain acceptance without a version assignment.
    pub const ACCEPT: Decision = Decision::Accept { read_from: None };

    /// `true` if the step was accepted.
    pub fn is_accept(&self) -> bool {
        matches!(self, Decision::Accept { .. })
    }

    /// The version assignment carried by an acceptance, if any.
    pub fn read_from(&self) -> Option<VersionSource> {
        match self {
            Decision::Accept { read_from } => *read_from,
            Decision::Reject => None,
        }
    }
}

/// An on-line scheduler: a state machine fed one step at a time.
pub trait Scheduler {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// `true` for schedulers that maintain multiple versions (used by the
    /// comparison tables to group columns).
    fn is_multiversion(&self) -> bool;

    /// Offers the next step; the scheduler must not assume it will be asked
    /// about the step again.
    fn offer(&mut self, step: Step) -> Decision;

    /// Notifies the scheduler that `tx` has been aborted: all its previously
    /// accepted steps are undone.  Used by the abort-and-continue harness.
    fn abort(&mut self, tx: TxId);

    /// Notifies the scheduler that `tx` has committed and will issue no more
    /// steps.
    ///
    /// The paper's model has no commits — a transaction simply stops issuing
    /// steps — so the default is a no-op, and for every scheduler the call
    /// changes no later decision; it only releases state that can no longer
    /// matter.  Pre-declared 2PL has released the locks with the last step
    /// already; SGT and MV-SGT prune graph nodes; MVTO and TO retire the
    /// transaction's timestamp, and MVTO drops the versions no unfinished
    /// or future transaction can reach.  [`crate::run_abort`] calls it when
    /// a transaction's last step is accepted, which is what keeps these
    /// schedulers' state bounded on long interleavings;
    /// [`crate::run_prefix`] does not.  Interactive drivers (the
    /// `mvcc-engine` session API) do not know a transaction's length up
    /// front and depend on the hook: dynamic strict 2PL releases its locks
    /// here.
    fn commit(&mut self, tx: TxId) {
        let _ = tx;
    }

    /// Resets the scheduler to its initial state.
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_helpers() {
        assert!(Decision::ACCEPT.is_accept());
        assert!(!Decision::Reject.is_accept());
        assert_eq!(Decision::Reject.read_from(), None);
        let d = Decision::Accept {
            read_from: Some(VersionSource::Initial),
        };
        assert_eq!(d.read_from(), Some(VersionSource::Initial));
    }
}
