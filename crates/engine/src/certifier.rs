//! Pluggable online admission control.
//!
//! A [`Certifier`] is the engine-facing form of the paper's on-line
//! scheduler: it sees every step in arrival order, accepts or rejects it,
//! and for accepted reads says *how* the read is served (latest committed
//! version, snapshot-visible version, or an explicitly chosen version — the
//! version function made operational).  Unlike the schedule-level
//! [`Scheduler`] trait it is also told about commits, because an
//! interactive engine knows ends of transactions only when sessions
//! announce them.
//!
//! Two implementations cover the whole of Figure 1:
//!
//! * [`SchedulerCertifier`] wraps any [`mvcc_scheduler::Scheduler`] — the
//!   zoo's 2PL (dynamic strict mode), TSO, SGT, MV-SGT and MVTO — behind
//!   the engine's admission lock;
//! * [`SnapshotCertifier`] implements snapshot isolation: reads are served
//!   by snapshot visibility, writes always admitted, and the write-write
//!   rule (first committer wins) is enforced at commit time by the store.
//!
//! [`CertifierKind`] enumerates the shipped configurations and names the
//! correctness class ([`HistoryClass`]) each one guarantees for its
//! committed histories, which is exactly what the end-to-end loop test
//! verifies with the offline classifiers.

use mvcc_core::{Schedule, Step, TxId, VersionSource};
use mvcc_scheduler::{
    MvSgtScheduler, MvtoScheduler, Scheduler, SgtScheduler, TimestampScheduler,
    TwoPhaseLockingScheduler,
};
use std::fmt;

/// How an admitted read is served by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPlan {
    /// The latest committed version (single-version semantics).
    Latest,
    /// The version visible to the transaction's snapshot.
    Snapshot,
    /// The version written by an explicitly chosen writer (multiversion
    /// schedulers computing the version function online).
    Version(VersionSource),
}

/// The certifier's verdict on one offered step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The step is rejected; the engine aborts the issuing transaction.
    Reject,
    /// A read step is admitted and will be served per the plan.
    Read(ReadPlan),
    /// A write step is admitted.
    Write,
}

impl Admission {
    /// `true` unless the step was rejected.
    pub fn is_admitted(&self) -> bool {
        !matches!(self, Admission::Reject)
    }
}

/// How admission must be serialized for a certifier to stay correct.
///
/// The engine's pipeline routes steps through admission *lanes*;
/// the scope says how many lanes the certifier tolerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionScope {
    /// Every step must be ruled in one global order (a single lane): the
    /// certifier's state spans entities, so cross-entity arrival order
    /// matters.  This is what makes the recorded history a single total
    /// order the offline classifiers can check.
    Global,
    /// The certifier only constrains steps *per entity* (its per-entity
    /// rulings are independent and commit-time validation handles the
    /// rest, as in snapshot isolation's first-committer-wins).  The engine
    /// may then run one admission lane per shard, so sessions touching
    /// disjoint key ranges never share an admission lock.
    PerShard,
}

/// The correctness class a certifier guarantees for the committed
/// projection of its admission history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryClass {
    /// Conflict-serializable (single-version schedulers).
    Csr,
    /// Multiversion-conflict-serializable (Theorem 1's class).
    Mvcsr,
    /// Multiversion view-serializable (the outer limit of Figure 1).
    Mvsr,
    /// Snapshot isolation: not serializable in general (write skew), so
    /// no Figure 1 class is claimed.
    SnapshotIsolation,
}

impl HistoryClass {
    /// Checks a committed history against the class with the offline
    /// `mvcc-classify` checkers.  [`HistoryClass::Mvsr`] decides an MVCSR
    /// history by the MVCG test plus one pass over its reads, which checks
    /// the MVCG's topological order as a serialization; any other history
    /// runs the exact NP-complete search, so keep those small.  [`HistoryClass::SnapshotIsolation`] claims
    /// nothing and always passes.
    pub fn check(&self, history: &Schedule) -> bool {
        match self {
            HistoryClass::Csr => mvcc_classify::is_csr(history),
            HistoryClass::Mvcsr => mvcc_classify::is_mvcsr(history),
            HistoryClass::Mvsr => mvcc_classify::is_mvsr(history),
            HistoryClass::SnapshotIsolation => true,
        }
    }
}

impl fmt::Display for HistoryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryClass::Csr => write!(f, "CSR"),
            HistoryClass::Mvcsr => write!(f, "MVCSR"),
            HistoryClass::Mvsr => write!(f, "MVSR"),
            HistoryClass::SnapshotIsolation => write!(f, "SI"),
        }
    }
}

/// Online admission control for the engine.
///
/// Implementations must be `Send`: the engine moves the certifier behind
/// its admission mutex and calls it from every session thread.
pub trait Certifier: Send {
    /// Human-readable name used in tables and reports.
    fn name(&self) -> &'static str;

    /// The class guaranteed for committed histories.
    fn class(&self) -> HistoryClass;

    /// Offers the next step in arrival order.
    fn admit(&mut self, step: Step) -> Admission;

    /// How admission may be partitioned (see [`AdmissionScope`]).  Default:
    /// one global lane, the safe choice for any stateful certifier.
    fn admission_scope(&self) -> AdmissionScope {
        AdmissionScope::Global
    }

    /// Notifies the certifier that `tx` committed.
    fn on_commit(&mut self, tx: TxId);

    /// Notifies the certifier that `tx` aborted; its admitted steps are
    /// undone.
    fn on_abort(&mut self, tx: TxId);

    /// `true` if commits must additionally pass the store-level
    /// first-committer-wins validation (snapshot isolation).
    fn validates_writes_at_commit(&self) -> bool {
        false
    }
}

/// Adapts a schedule-level [`Scheduler`] into a [`Certifier`].
///
/// Single-version schedulers (those with `is_multiversion() == false`)
/// never assign versions, so their admitted reads are served
/// [`ReadPlan::Latest`]; multiversion schedulers' version assignments are
/// forwarded as [`ReadPlan::Version`].
#[derive(Debug)]
pub struct SchedulerCertifier<S: Scheduler> {
    inner: S,
    name: &'static str,
    class: HistoryClass,
}

impl<S: Scheduler> SchedulerCertifier<S> {
    /// Wraps `scheduler`, declaring the class its committed histories
    /// belong to.
    pub fn new(scheduler: S, name: &'static str, class: HistoryClass) -> Self {
        SchedulerCertifier {
            inner: scheduler,
            name,
            class,
        }
    }
}

impl<S: Scheduler + Send> Certifier for SchedulerCertifier<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn class(&self) -> HistoryClass {
        self.class
    }

    fn admit(&mut self, step: Step) -> Admission {
        let decision = self.inner.offer(step);
        decision_to_admission(step, decision)
    }

    fn on_commit(&mut self, tx: TxId) {
        self.inner.commit(tx);
    }

    fn on_abort(&mut self, tx: TxId) {
        self.inner.abort(tx);
    }
}

/// Maps a scheduler [`Decision`](mvcc_scheduler::Decision) on `step` to the
/// engine's [`Admission`].
fn decision_to_admission(step: Step, decision: mvcc_scheduler::Decision) -> Admission {
    if !decision.is_accept() {
        return Admission::Reject;
    }
    if step.is_read() {
        match decision.read_from() {
            Some(source) => Admission::Read(ReadPlan::Version(source)),
            None => Admission::Read(ReadPlan::Latest),
        }
    } else {
        Admission::Write
    }
}

/// Snapshot isolation: every read is served from the transaction's
/// snapshot, every write is admitted, and write-write conflicts are caught
/// at commit by the store's first-committer-wins validation.
#[derive(Debug, Default)]
pub struct SnapshotCertifier;

impl SnapshotCertifier {
    /// Creates a snapshot-isolation certifier.
    pub fn new() -> Self {
        SnapshotCertifier
    }
}

impl Certifier for SnapshotCertifier {
    fn name(&self) -> &'static str {
        "si"
    }

    fn class(&self) -> HistoryClass {
        HistoryClass::SnapshotIsolation
    }

    fn admit(&mut self, step: Step) -> Admission {
        if step.is_read() {
            Admission::Read(ReadPlan::Snapshot)
        } else {
            Admission::Write
        }
    }

    fn admission_scope(&self) -> AdmissionScope {
        // FCW only needs per-entity ordering (validation happens at commit
        // against committed versions), so disjoint key ranges can be
        // admitted on disjoint lanes.
        AdmissionScope::PerShard
    }

    fn on_commit(&mut self, _tx: TxId) {}

    fn on_abort(&mut self, _tx: TxId) {}

    fn validates_writes_at_commit(&self) -> bool {
        true
    }
}

/// The certifier configurations the engine ships, one per row of the
/// paper's scheduler comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertifierKind {
    /// Strict two-phase locking (dynamic mode: locks released at commit).
    TwoPhaseLocking,
    /// Single-version timestamp ordering.
    Timestamp,
    /// Serialization-graph testing.
    Sgt,
    /// Multiversion serialization-graph testing (the paper's generic
    /// MVCSR scheduler).
    MvSgt,
    /// Multiversion timestamp ordering (Reed's scheme).
    Mvto,
    /// Snapshot isolation with first-committer-wins.
    SnapshotIsolation,
}

impl CertifierKind {
    /// All shipped configurations, in comparison-table order.
    pub fn all() -> [CertifierKind; 6] {
        [
            CertifierKind::TwoPhaseLocking,
            CertifierKind::Timestamp,
            CertifierKind::Sgt,
            CertifierKind::MvSgt,
            CertifierKind::Mvto,
            CertifierKind::SnapshotIsolation,
        ]
    }

    /// The class the configuration guarantees for committed histories.
    pub fn class(&self) -> HistoryClass {
        match self {
            CertifierKind::TwoPhaseLocking | CertifierKind::Timestamp | CertifierKind::Sgt => {
                HistoryClass::Csr
            }
            CertifierKind::MvSgt => HistoryClass::Mvcsr,
            CertifierKind::Mvto => HistoryClass::Mvsr,
            CertifierKind::SnapshotIsolation => HistoryClass::SnapshotIsolation,
        }
    }

    /// The certifier's short name (matches `Certifier::name`).
    pub fn name(&self) -> &'static str {
        match self {
            CertifierKind::TwoPhaseLocking => "2pl",
            CertifierKind::Timestamp => "tso",
            CertifierKind::Sgt => "sgt",
            CertifierKind::MvSgt => "mv-sgt",
            CertifierKind::Mvto => "mvto",
            CertifierKind::SnapshotIsolation => "si",
        }
    }

    /// Builds a fresh certifier of this kind.
    pub fn build(&self) -> Box<dyn Certifier> {
        match self {
            CertifierKind::TwoPhaseLocking => Box::new(SchedulerCertifier::new(
                TwoPhaseLockingScheduler::new_dynamic(),
                "2pl",
                HistoryClass::Csr,
            )),
            CertifierKind::Timestamp => Box::new(SchedulerCertifier::new(
                TimestampScheduler::new(),
                "tso",
                HistoryClass::Csr,
            )),
            CertifierKind::Sgt => Box::new(SchedulerCertifier::new(
                SgtScheduler::new(),
                "sgt",
                HistoryClass::Csr,
            )),
            CertifierKind::MvSgt => Box::new(SchedulerCertifier::new(
                MvSgtScheduler::new(),
                "mv-sgt",
                HistoryClass::Mvcsr,
            )),
            CertifierKind::Mvto => Box::new(SchedulerCertifier::new(
                MvtoScheduler::new(),
                "mvto",
                HistoryClass::Mvsr,
            )),
            CertifierKind::SnapshotIsolation => Box::new(SnapshotCertifier::new()),
        }
    }
}

impl fmt::Display for CertifierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::{EntityId, Schedule};

    const X: EntityId = EntityId(0);

    #[test]
    fn scheduler_certifier_forwards_decisions_and_versions() {
        let mut c = CertifierKind::Mvto.build();
        // An old reader gets the initial version explicitly (MVTO's version
        // function surfacing through the certifier).
        let s = Schedule::parse("Ra(y) Wb(x) Ra(x)").unwrap();
        assert!(matches!(
            c.admit(s.steps()[0]),
            Admission::Read(ReadPlan::Version(_))
        ));
        assert_eq!(c.admit(s.steps()[1]), Admission::Write);
        assert_eq!(
            c.admit(s.steps()[2]),
            Admission::Read(ReadPlan::Version(VersionSource::Initial))
        );
    }

    #[test]
    fn single_version_certifiers_read_latest() {
        for kind in [
            CertifierKind::TwoPhaseLocking,
            CertifierKind::Timestamp,
            CertifierKind::Sgt,
        ] {
            let mut c = kind.build();
            assert_eq!(c.class(), HistoryClass::Csr);
            assert!(!c.validates_writes_at_commit());
            assert_eq!(
                c.admit(Step::read(TxId(1), X)),
                Admission::Read(ReadPlan::Latest),
                "{kind} serves latest"
            );
        }
    }

    #[test]
    fn two_phase_certifier_releases_locks_on_commit() {
        let mut c = CertifierKind::TwoPhaseLocking.build();
        assert_eq!(c.admit(Step::write(TxId(1), X)), Admission::Write);
        assert_eq!(c.admit(Step::write(TxId(2), X)), Admission::Reject);
        c.on_commit(TxId(1));
        assert_eq!(c.admit(Step::write(TxId(2), X)), Admission::Write);
    }

    #[test]
    fn snapshot_certifier_admits_everything_until_commit() {
        let mut c = CertifierKind::SnapshotIsolation.build();
        assert!(c.validates_writes_at_commit());
        assert_eq!(
            c.admit(Step::read(TxId(1), X)),
            Admission::Read(ReadPlan::Snapshot)
        );
        assert_eq!(c.admit(Step::write(TxId(1), X)), Admission::Write);
        assert_eq!(c.admit(Step::write(TxId(2), X)), Admission::Write);
    }

    #[test]
    fn kinds_report_classes_and_names() {
        assert_eq!(CertifierKind::all().len(), 6);
        for kind in CertifierKind::all() {
            let c = kind.build();
            assert_eq!(c.name(), kind.name());
            assert_eq!(c.class(), kind.class());
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(CertifierKind::MvSgt.class().to_string(), "MVCSR");
    }

    #[test]
    fn admission_scopes_are_global_except_snapshot_isolation() {
        for kind in CertifierKind::all() {
            let expected = if kind == CertifierKind::SnapshotIsolation {
                AdmissionScope::PerShard
            } else {
                AdmissionScope::Global
            };
            assert_eq!(kind.build().admission_scope(), expected, "{kind}");
        }
    }

    #[test]
    fn history_class_checks_dispatch_to_classifiers() {
        let csr = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(x)").unwrap();
        assert!(HistoryClass::Csr.check(&csr));
        let not_even_mvsr = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
        assert!(!HistoryClass::Mvsr.check(&not_even_mvsr));
        assert!(HistoryClass::SnapshotIsolation.check(&not_even_mvsr));
    }
}
