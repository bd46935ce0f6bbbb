//! READ-FROM relations and views.
//!
//! The READ-FROM relation of a (full) schedule is the set of triples
//! `(reader, entity, writer)` stating that a read step of `reader` on
//! `entity` was served the version written by `writer` (or the initial
//! version, written by the padding transaction `T0`).  The padded final
//! transaction `Tf` reads every entity, so the relation also records which
//! transaction produced the *final* version of each entity.
//!
//! Two (full) schedules are *view-equivalent* iff they have identical
//! READ-FROM relations (Section 2).

use crate::{EntityId, Schedule, TxId, VersionFunction, VersionSource};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One entry of a READ-FROM relation: `reader` reads `entity` from `writer`.
///
/// `reader` is [`TxId::FINAL`] for the padded final reads; `writer` is
/// [`TxId::INITIAL`] when the initial version is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReadFrom {
    /// The transaction issuing the read (or `Tf`).
    pub reader: TxId,
    /// The entity read.
    pub entity: EntityId,
    /// The transaction whose version is read (or `T0`).
    pub writer: TxId,
}

impl fmt::Display for ReadFrom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reads {} from {}",
            self.reader, self.entity, self.writer
        )
    }
}

/// A READ-FROM relation: a set of [`ReadFrom`] triples.
///
/// Because the relation is a *set* of triples, two reads of the same entity
/// by the same transaction served by the same writer collapse into one
/// entry — exactly as in the paper, where the relation is defined as a set.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReadFromRelation {
    entries: BTreeSet<ReadFrom>,
}

impl ReadFromRelation {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an entry.
    pub fn insert(&mut self, entry: ReadFrom) {
        self.entries.insert(entry);
    }

    /// The entries in sorted order.
    pub fn entries(&self) -> impl Iterator<Item = &ReadFrom> {
        self.entries.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if the relation contains the given triple.
    pub fn contains(&self, reader: TxId, entity: EntityId, writer: TxId) -> bool {
        self.entries.contains(&ReadFrom {
            reader,
            entity,
            writer,
        })
    }

    /// The READ-FROM relation of the *padded* full schedule `(schedule, vf)`.
    ///
    /// The padding is implicit: reads assigned [`VersionSource::Initial`]
    /// produce entries with writer `T0`, and one entry per accessed entity is
    /// produced for the final transaction `Tf` using `vf`'s final-read
    /// assignments (falling back to the last writer in the schedule when the
    /// version function does not pin them, which is what the standard
    /// version function of the padded schedule would do).
    pub fn of_full_schedule(schedule: &Schedule, vf: &VersionFunction) -> Self {
        let mut rel = ReadFromRelation::new();
        for pos in schedule.all_read_positions() {
            let step = schedule.steps()[pos];
            let source = vf.get(pos).unwrap_or_else(|| {
                schedule
                    .last_writer_before(pos, step.entity)
                    .map_or(VersionSource::Initial, VersionSource::Tx)
            });
            rel.insert(ReadFrom {
                reader: step.tx,
                entity: step.entity,
                writer: source.as_tx(),
            });
        }
        for entity in schedule.entities_accessed() {
            let source = vf.get_final(entity).unwrap_or_else(|| {
                schedule
                    .final_writer(entity)
                    .map_or(VersionSource::Initial, VersionSource::Tx)
            });
            rel.insert(ReadFrom {
                reader: TxId::FINAL,
                entity,
                writer: source.as_tx(),
            });
        }
        rel
    }

    /// The READ-FROM relation of the padded schedule under its *standard*
    /// version function (i.e. the single-version semantics).
    pub fn of_schedule(schedule: &Schedule) -> Self {
        Self::of_full_schedule(schedule, &VersionFunction::standard(schedule))
    }
}

impl FromIterator<ReadFrom> for ReadFromRelation {
    fn from_iter<I: IntoIterator<Item = ReadFrom>>(iter: I) -> Self {
        ReadFromRelation {
            entries: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for ReadFromRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "READ-FROM {{")?;
        for e in &self.entries {
            writeln!(f, "  {e}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schedule;

    #[test]
    fn standard_relation_of_simple_schedule() {
        let s = Schedule::parse("Wa(x) Rb(x) Wb(y) Rc(y)").unwrap();
        let rel = ReadFromRelation::of_schedule(&s);
        assert!(rel.contains(TxId(2), EntityId(0), TxId(1)));
        assert!(rel.contains(TxId(3), EntityId(1), TxId(2)));
        // Final reads: x from A, y from B.
        assert!(rel.contains(TxId::FINAL, EntityId(0), TxId(1)));
        assert!(rel.contains(TxId::FINAL, EntityId(1), TxId(2)));
        assert_eq!(rel.len(), 4);
    }

    #[test]
    fn reads_with_no_writer_come_from_t0() {
        let s = Schedule::parse("Ra(x) Rb(x)").unwrap();
        let rel = ReadFromRelation::of_schedule(&s);
        assert!(rel.contains(TxId(1), EntityId(0), TxId::INITIAL));
        assert!(rel.contains(TxId(2), EntityId(0), TxId::INITIAL));
        assert!(rel.contains(TxId::FINAL, EntityId(0), TxId::INITIAL));
    }

    #[test]
    fn version_function_overrides_standard() {
        let s = Schedule::parse("Wa(x) Wb(x) Rc(x)").unwrap();
        let mut vf = VersionFunction::standard(&s);
        vf.assign(2, VersionSource::Tx(TxId(1)));
        vf.assign_final(EntityId(0), VersionSource::Tx(TxId(1)));
        let rel = ReadFromRelation::of_full_schedule(&s, &vf);
        assert!(rel.contains(TxId(3), EntityId(0), TxId(1)));
        assert!(rel.contains(TxId::FINAL, EntityId(0), TxId(1)));
        assert!(!rel.contains(TxId(3), EntityId(0), TxId(2)));
    }

    #[test]
    fn relation_is_a_set() {
        // Two reads of the same entity by the same reader from the same
        // writer collapse.
        let s = Schedule::parse("Wa(x) Rb(x) Rb(x)").unwrap();
        let rel = ReadFromRelation::of_schedule(&s);
        assert_eq!(rel.len(), 2); // B<-A and Tf<-A
    }

    #[test]
    fn display_mentions_every_entry() {
        let s = Schedule::parse("Wa(x) Rb(x)").unwrap();
        let rel = ReadFromRelation::of_schedule(&s);
        let text = rel.to_string();
        assert!(text.contains("T2 reads x from T1"));
        assert!(text.contains("Tf reads x from T1"));
    }

    #[test]
    fn from_iterator_collects() {
        let rel: ReadFromRelation = vec![ReadFrom {
            reader: TxId(1),
            entity: EntityId(0),
            writer: TxId::INITIAL,
        }]
        .into_iter()
        .collect();
        assert_eq!(rel.len(), 1);
        assert!(!rel.is_empty());
        assert!(ReadFromRelation::new().is_empty());
    }
}
