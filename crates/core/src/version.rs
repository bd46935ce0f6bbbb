//! Version functions: the mapping from read steps to the versions they read.
//!
//! In the multiversion model each entity carries an ordered set of versions;
//! each write appends a version and each read is assigned one of the existing
//! versions.  A schedule `s` plus a version function `V` forms a *full
//! schedule* `(s, V)`.  `V` must map every read step of `s` to a *previous*
//! write step of the same entity (or to the implicit initial version written
//! by the padding transaction `T0`).
//!
//! The *standard* version function `V_s` maps every read to the last previous
//! write of the same entity — i.e. what a single-version database would do.

use crate::{CoreError, EntityId, Schedule, TxId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The origin of the version served to a read step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum VersionSource {
    /// The initial version, written by the padding transaction `T0` before
    /// the schedule starts.
    Initial,
    /// The version written by the (unique) write step of this transaction on
    /// the entity in question that precedes the read.
    Tx(TxId),
}

impl VersionSource {
    /// Converts to the padded transaction id (`T0` for the initial version).
    pub fn as_tx(self) -> TxId {
        match self {
            VersionSource::Initial => TxId::INITIAL,
            VersionSource::Tx(t) => t,
        }
    }

    /// Builds a source from a padded transaction id.
    pub fn from_tx(tx: TxId) -> Self {
        if tx == TxId::INITIAL {
            VersionSource::Initial
        } else {
            VersionSource::Tx(tx)
        }
    }
}

impl fmt::Display for VersionSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionSource::Initial => write!(f, "T0"),
            VersionSource::Tx(t) => write!(f, "{t}"),
        }
    }
}

/// A version function for a particular schedule.
///
/// Ordinary read steps are keyed by their position in the schedule.  The
/// *padded* final transaction `Tf` reads every entity after the schedule
/// ends; its reads are keyed by entity (see [`VersionFunction::assign_final`]
/// and `VersionFunction::get_final`).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VersionFunction {
    /// Assignment for each read step position of the schedule.
    assignments: BTreeMap<usize, VersionSource>,
    /// Assignment for the padded final reads (`Tf`), one per entity.
    final_reads: BTreeMap<EntityId, VersionSource>,
}

impl VersionFunction {
    /// Creates an empty version function (no reads assigned yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns the read at schedule position `pos` to `source`.
    pub fn assign(&mut self, pos: usize, source: VersionSource) {
        self.assignments.insert(pos, source);
    }

    /// Assigns the padded final read of `entity` to `source`.
    pub fn assign_final(&mut self, entity: EntityId, source: VersionSource) {
        self.final_reads.insert(entity, source);
    }

    /// The source assigned to the read at position `pos`, if any.
    pub fn get(&self, pos: usize) -> Option<VersionSource> {
        self.assignments.get(&pos).copied()
    }

    /// The source assigned to the padded final read of `entity`, if any.
    pub(crate) fn get_final(&self, entity: EntityId) -> Option<VersionSource> {
        self.final_reads.get(&entity).copied()
    }

    /// Iterates over `(position, source)` assignments of ordinary reads.
    pub fn iter(&self) -> impl Iterator<Item = (usize, VersionSource)> + '_ {
        self.assignments.iter().map(|(&p, &s)| (p, s))
    }

    /// Iterates over the padded final read assignments.
    pub(crate) fn iter_final(&self) -> impl Iterator<Item = (EntityId, VersionSource)> + '_ {
        self.final_reads.iter().map(|(&e, &s)| (e, s))
    }

    /// Number of assigned ordinary reads.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// `true` if nothing has been assigned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty() && self.final_reads.is_empty()
    }

    /// The *standard* version function `V_s` of `schedule`: every read
    /// (including the padded final reads) is assigned the last previous
    /// write of the same entity.
    pub fn standard(schedule: &Schedule) -> Self {
        let mut vf = VersionFunction::new();
        for pos in schedule.all_read_positions() {
            let entity = schedule.steps()[pos].entity;
            let source = schedule
                .last_writer_before(pos, entity)
                .map_or(VersionSource::Initial, VersionSource::Tx);
            vf.assign(pos, source);
        }
        for entity in schedule.entities_accessed() {
            let source = schedule
                .final_writer(entity)
                .map_or(VersionSource::Initial, VersionSource::Tx);
            vf.assign_final(entity, source);
        }
        vf
    }

    /// Validates this version function against `schedule`:
    ///
    /// * every read step of the schedule must be assigned;
    /// * every padded final read must be assigned;
    /// * an assignment to `Tx(t)` is only valid if `t` has a write step on
    ///   the entity *before* the read position (any write of the entity, for
    ///   the final reads). Reading a version written earlier by the *same*
    ///   transaction is allowed, exactly as in the paper's model.
    pub fn validate(&self, schedule: &Schedule) -> Result<(), CoreError> {
        for pos in schedule.all_read_positions() {
            let step = schedule.steps()[pos];
            let source = self.get(pos).ok_or(CoreError::InvalidVersionFunction {
                position: pos,
                message: format!("read {step} has no assigned version"),
            })?;
            match source {
                VersionSource::Initial => {}
                VersionSource::Tx(writer) => {
                    let has_previous_write = schedule.steps()[..pos]
                        .iter()
                        .any(|w| w.is_write() && w.entity == step.entity && w.tx == writer);
                    if !has_previous_write {
                        return Err(CoreError::InvalidVersionFunction {
                            position: pos,
                            message: format!(
                                "read {step} assigned to {writer}, which has no earlier write of {}",
                                step.entity
                            ),
                        });
                    }
                }
            }
        }
        for entity in schedule.entities_accessed() {
            let source = self
                .get_final(entity)
                .ok_or(CoreError::InvalidVersionFunction {
                    position: schedule.len(),
                    message: format!("final read of {entity} has no assigned version"),
                })?;
            if let VersionSource::Tx(writer) = source {
                let has_write = schedule
                    .steps()
                    .iter()
                    .any(|w| w.is_write() && w.entity == entity && w.tx == writer);
                if !has_write {
                    return Err(CoreError::InvalidVersionFunction {
                        position: schedule.len(),
                        message: format!(
                            "final read of {entity} assigned to {writer}, which never writes it"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// `true` if this version function extends `prefix_vf`: every assignment
    /// of `prefix_vf` is present with the same value.
    pub fn extends(&self, prefix_vf: &VersionFunction) -> bool {
        prefix_vf
            .assignments
            .iter()
            .all(|(pos, src)| self.assignments.get(pos) == Some(src))
    }

    /// Enumerates every valid version function of `schedule` (all
    /// combinations of admissible sources for every read, including the
    /// padded final reads).  Exponential; intended for small schedules in
    /// tests and exact checkers.
    pub fn enumerate_all(schedule: &Schedule) -> Vec<VersionFunction> {
        let reads = schedule.all_read_positions();
        let entities = schedule.entities_accessed();
        // Admissible sources per read.
        let mut options: Vec<Vec<VersionSource>> = Vec::new();
        for &pos in &reads {
            let step = schedule.steps()[pos];
            let mut opts = vec![VersionSource::Initial];
            let mut seen = std::collections::BTreeSet::new();
            for w in schedule.steps()[..pos].iter() {
                if w.is_write() && w.entity == step.entity && seen.insert(w.tx) {
                    opts.push(VersionSource::Tx(w.tx));
                }
            }
            options.push(opts);
        }
        let mut final_options: Vec<(EntityId, Vec<VersionSource>)> = Vec::new();
        for &entity in &entities {
            let mut opts = vec![VersionSource::Initial];
            let mut seen = std::collections::BTreeSet::new();
            for w in schedule.steps() {
                if w.is_write() && w.entity == entity && seen.insert(w.tx) {
                    opts.push(VersionSource::Tx(w.tx));
                }
            }
            final_options.push((entity, opts));
        }

        let mut out = Vec::new();
        let mut current = VersionFunction::new();
        fn rec_reads(
            reads: &[usize],
            options: &[Vec<VersionSource>],
            idx: usize,
            current: &mut VersionFunction,
            final_options: &[(EntityId, Vec<VersionSource>)],
            out: &mut Vec<VersionFunction>,
        ) {
            if idx == reads.len() {
                rec_finals(final_options, 0, current, out);
                return;
            }
            for &src in &options[idx] {
                current.assign(reads[idx], src);
                rec_reads(reads, options, idx + 1, current, final_options, out);
            }
            current.assignments.remove(&reads[idx]);
        }
        fn rec_finals(
            final_options: &[(EntityId, Vec<VersionSource>)],
            idx: usize,
            current: &mut VersionFunction,
            out: &mut Vec<VersionFunction>,
        ) {
            if idx == final_options.len() {
                out.push(current.clone());
                return;
            }
            let (entity, ref opts) = final_options[idx];
            for &src in opts {
                current.assign_final(entity, src);
                rec_finals(final_options, idx + 1, current, out);
            }
            current.final_reads.remove(&entity);
        }
        rec_reads(&reads, &options, 0, &mut current, &final_options, &mut out);
        out
    }
}

impl fmt::Display for VersionFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (pos, src) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "#{pos}←{src}")?;
        }
        for (entity, src) in self.iter_final() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "Tf({entity})←{src}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schedule;

    #[test]
    fn standard_reads_last_previous_write() {
        let s = Schedule::parse("Wa(x) Rb(x) Wc(x) Rd(x)").unwrap();
        let vf = VersionFunction::standard(&s);
        assert_eq!(vf.get(1), Some(VersionSource::Tx(TxId(1))));
        assert_eq!(vf.get(3), Some(VersionSource::Tx(TxId(3))));
        assert_eq!(vf.get_final(EntityId(0)), Some(VersionSource::Tx(TxId(3))));
        assert!(vf.validate(&s).is_ok());
    }

    #[test]
    fn standard_reads_initial_when_no_writer() {
        let s = Schedule::parse("Ra(x) Rb(y)").unwrap();
        let vf = VersionFunction::standard(&s);
        assert_eq!(vf.get(0), Some(VersionSource::Initial));
        assert_eq!(vf.get(1), Some(VersionSource::Initial));
        assert_eq!(vf.get_final(EntityId(0)), Some(VersionSource::Initial));
        assert!(vf.validate(&s).is_ok());
    }

    #[test]
    fn non_standard_assignment_to_older_version_is_valid() {
        // Wa(x) Wb(x) Rc(x): the read may be served A's version even though
        // B's is newer -- that is the whole point of multiversion schedulers.
        let s = Schedule::parse("Wa(x) Wb(x) Rc(x)").unwrap();
        let mut vf = VersionFunction::standard(&s);
        vf.assign(2, VersionSource::Tx(TxId(1)));
        assert!(vf.validate(&s).is_ok());
        vf.assign(2, VersionSource::Initial);
        assert!(vf.validate(&s).is_ok());
    }

    #[test]
    fn assignment_to_later_write_is_invalid() {
        // Rc(x) happens before Wb(x): no version function may send the read
        // to B ("a read that arrived too early", Section 3).
        let s = Schedule::parse("Wa(x) Rc(x) Wb(x)").unwrap();
        let mut vf = VersionFunction::standard(&s);
        vf.assign(1, VersionSource::Tx(TxId(2)));
        assert!(vf.validate(&s).is_err());
    }

    #[test]
    fn missing_assignment_is_invalid() {
        let s = Schedule::parse("Ra(x)").unwrap();
        let vf = VersionFunction::new();
        assert!(vf.validate(&s).is_err());
    }

    #[test]
    fn own_transaction_assignment_is_valid() {
        // A transaction that writes x and later reads x may (and, under the
        // standard version function, does) read its own version.
        let s = Schedule::parse("Wa(x) Ra(x)").unwrap();
        let vf = VersionFunction::standard(&s);
        assert_eq!(vf.get(1), Some(VersionSource::Tx(TxId(1))));
        assert!(vf.validate(&s).is_ok());
    }

    #[test]
    fn final_read_of_non_writer_is_invalid() {
        let s = Schedule::parse("Ra(x)").unwrap();
        let mut vf = VersionFunction::standard(&s);
        vf.assign_final(EntityId(0), VersionSource::Tx(TxId(1)));
        assert!(vf.validate(&s).is_err());
    }

    #[test]
    fn enumerate_all_counts() {
        // Wa(x) Wb(x) Rc(x): read has 3 options (T0, A, B); final read of x
        // has 3 options -> 9 version functions.
        let s = Schedule::parse("Wa(x) Wb(x) Rc(x)").unwrap();
        let all = VersionFunction::enumerate_all(&s);
        assert_eq!(all.len(), 9);
        assert!(all.iter().all(|vf| vf.validate(&s).is_ok()));
        // All distinct.
        let set: std::collections::BTreeSet<String> = all.iter().map(|v| v.to_string()).collect();
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn extends_and_restrict() {
        let s = Schedule::parse("Wa(x) Rb(x) Rc(x)").unwrap();
        let full = VersionFunction::standard(&s);
        // Its restriction to the first two steps: the one read, no finals.
        let mut prefix = VersionFunction::new();
        prefix.assign(1, full.get(1).unwrap());
        assert_eq!(prefix.len(), 1);
        assert!(full.extends(&prefix));
        let mut other = prefix.clone();
        other.assign(1, VersionSource::Initial);
        assert!(!full.extends(&other));
    }

    #[test]
    fn version_source_round_trip() {
        assert_eq!(VersionSource::Initial.as_tx(), TxId::INITIAL);
        assert_eq!(
            VersionSource::from_tx(TxId::INITIAL),
            VersionSource::Initial
        );
        assert_eq!(VersionSource::from_tx(TxId(3)), VersionSource::Tx(TxId(3)));
        assert_eq!(VersionSource::Tx(TxId(3)).as_tx(), TxId(3));
    }

    #[test]
    fn display_is_readable() {
        let s = Schedule::parse("Wa(x) Rb(x)").unwrap();
        let vf = VersionFunction::standard(&s);
        let text = vf.to_string();
        assert!(text.contains("#1←T1"));
        assert!(text.contains("Tf(x)←T1"));
    }
}
