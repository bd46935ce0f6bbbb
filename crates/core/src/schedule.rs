//! Schedules: interleavings of the steps of a transaction system.

use crate::{
    Action, CoreError, EntityId, EntityInterner, Step, Transaction, TransactionSystem, TxId,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A schedule: a finite sequence of steps, together with the transaction
/// system it interleaves (derived from the per-transaction projections).
///
/// Any step sequence is a schedule of *some* transaction system — namely the
/// system whose transactions are the per-transaction projections of the
/// sequence — so construction never fails.  Use [`Schedule::is_shuffle_of`]
/// to check a schedule against an externally given system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    steps: Vec<Step>,
    /// Optional entity names, populated by [`Schedule::parse`].
    entities: Option<EntityInterner>,
}

impl Schedule {
    /// Creates a schedule from an explicit step sequence.
    pub fn from_steps(steps: Vec<Step>) -> Self {
        Schedule {
            steps,
            entities: None,
        }
    }

    /// Creates the empty schedule.
    pub fn empty() -> Self {
        Schedule::from_steps(Vec::new())
    }

    /// Creates the serial schedule of `system` in which transactions run in
    /// the given `order`.
    pub fn serial(system: &TransactionSystem, order: &[TxId]) -> Self {
        Schedule::from_steps(system.serial_steps(order))
    }

    /// Parses the paper's notation, e.g. `"Ra(x) Wa(x) Rb(x) Wb(y)"` or
    /// `"R1(x) W2(y)"`.
    ///
    /// * `R`/`W` (case-insensitive) selects the action;
    /// * the transaction label is either a decimal number or a letter
    ///   (`a`/`A` ↦ `T1`, `b` ↦ `T2`, ...);
    /// * the entity name is any identifier inside parentheses. The names
    ///   `x y z u v w` receive the fixed ids `0..=5` so that display
    ///   round-trips; other names are interned after them.
    pub fn parse(text: &str) -> Result<Self, CoreError> {
        let mut steps = Vec::new();
        let mut interner = EntityInterner::new();
        // Pre-intern the conventional letters so ids line up with Display.
        for name in ["x", "y", "z", "u", "v", "w"] {
            interner.intern(name);
        }
        for (idx, token) in text.split_whitespace().enumerate() {
            let token = token.trim_matches(|c| c == ',' || c == ';');
            if token.is_empty() {
                continue;
            }
            let mut chars = token.chars();
            let action = match chars.next() {
                Some('r') | Some('R') => Action::Read,
                Some('w') | Some('W') => Action::Write,
                other => {
                    return Err(CoreError::Parse {
                        position: idx,
                        message: format!("expected R or W, found {other:?}"),
                    })
                }
            };
            let rest: String = chars.collect();
            let open = rest.find('(').ok_or_else(|| CoreError::Parse {
                position: idx,
                message: "missing '('".into(),
            })?;
            let close = rest.rfind(')').ok_or_else(|| CoreError::Parse {
                position: idx,
                message: "missing ')'".into(),
            })?;
            if close < open {
                return Err(CoreError::Parse {
                    position: idx,
                    message: "')' before '('".into(),
                });
            }
            let tx_label = &rest[..open];
            let entity_name = &rest[open + 1..close];
            if entity_name.is_empty() {
                return Err(CoreError::Parse {
                    position: idx,
                    message: "empty entity name".into(),
                });
            }
            let tx = parse_tx_label(tx_label).ok_or_else(|| CoreError::Parse {
                position: idx,
                message: format!("cannot parse transaction label {tx_label:?}"),
            })?;
            let entity = interner.intern(entity_name);
            steps.push(Step { tx, action, entity });
        }
        Ok(Schedule {
            steps,
            entities: Some(interner),
        })
    }

    /// The underlying step sequence.
    #[inline]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the schedule has no steps.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The distinct transaction ids, in order of first appearance.
    pub fn tx_ids(&self) -> Vec<TxId> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for s in &self.steps {
            if seen.insert(s.tx) {
                out.push(s.tx);
            }
        }
        out
    }

    /// Number of distinct transactions.
    pub fn num_transactions(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.tx)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// The distinct entities accessed, in ascending id order.
    pub fn entities_accessed(&self) -> Vec<EntityId> {
        self.steps
            .iter()
            .map(|s| s.entity)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    /// The transaction system induced by this schedule: each transaction is
    /// the projection of the schedule onto its steps.
    pub fn tx_system(&self) -> TransactionSystem {
        let mut per_tx: BTreeMap<TxId, Vec<(Action, EntityId)>> = BTreeMap::new();
        for s in &self.steps {
            per_tx.entry(s.tx).or_default().push((s.action, s.entity));
        }
        TransactionSystem::new(
            per_tx
                .into_iter()
                .map(|(id, accesses)| Transaction::new(id, accesses))
                .collect(),
        )
    }

    /// Checks that this schedule is a shuffle of `system`: it contains
    /// exactly the steps of every transaction of the system, in program
    /// order.
    pub fn is_shuffle_of(&self, system: &TransactionSystem) -> bool {
        self.tx_system() == *system
    }

    /// `true` if any two adjacent steps of the same transaction are also
    /// adjacent in the schedule — i.e. transactions run one after another.
    pub fn is_serial(&self) -> bool {
        let mut finished: BTreeSet<TxId> = BTreeSet::new();
        let mut current: Option<TxId> = None;
        for s in &self.steps {
            match current {
                Some(tx) if tx == s.tx => {}
                _ => {
                    if finished.contains(&s.tx) {
                        return false;
                    }
                    if let Some(prev) = current {
                        finished.insert(prev);
                    }
                    current = Some(s.tx);
                }
            }
        }
        true
    }

    /// The prefix consisting of the first `n` steps.
    pub fn prefix(&self, n: usize) -> Schedule {
        Schedule {
            steps: self.steps[..n.min(self.steps.len())].to_vec(),
            entities: self.entities.clone(),
        }
    }

    /// All proper and improper prefixes, from the empty schedule to the full
    /// schedule.
    pub fn prefixes(&self) -> impl Iterator<Item = Schedule> + '_ {
        (0..=self.steps.len()).map(move |n| self.prefix(n))
    }

    /// Length of the longest common prefix with `other`.
    pub fn common_prefix_len(&self, other: &Schedule) -> usize {
        self.steps
            .iter()
            .zip(other.steps.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// Appends a step, returning the extended schedule.
    pub fn appended(&self, step: Step) -> Schedule {
        let mut steps = self.steps.clone();
        steps.push(step);
        Schedule {
            steps,
            entities: self.entities.clone(),
        }
    }

    /// Positions of all read steps on `entity`, in schedule order.
    pub fn read_positions(&self, entity: EntityId) -> Vec<usize> {
        self.positions(|s| s.is_read() && s.entity == entity)
    }

    /// Positions of all read steps, in schedule order.
    pub fn all_read_positions(&self) -> Vec<usize> {
        self.positions(|s| s.is_read())
    }

    fn positions(&self, pred: impl Fn(&Step) -> bool) -> Vec<usize> {
        self.steps
            .iter()
            .enumerate()
            .filter(|(_, s)| pred(s))
            .map(|(i, _)| i)
            .collect()
    }

    /// The position of the last write on `entity` strictly before position
    /// `pos`, or `None` if there is none (the read would read the initial
    /// version written by `T0`).
    pub(crate) fn last_write_before(&self, pos: usize, entity: EntityId) -> Option<usize> {
        self.steps[..pos.min(self.steps.len())]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, s)| s.is_write() && s.entity == entity)
            .map(|(i, _)| i)
    }

    /// The transaction that wrote the version a *single-version* database
    /// would serve to a read at position `pos` of `entity`: the last previous
    /// writer, or `None` for the initial version.
    pub fn last_writer_before(&self, pos: usize, entity: EntityId) -> Option<TxId> {
        self.last_write_before(pos, entity)
            .map(|i| self.steps[i].tx)
    }

    /// The transaction that wrote the final version of `entity`, or `None`
    /// if nobody wrote it (the final version is the initial one).
    pub fn final_writer(&self, entity: EntityId) -> Option<TxId> {
        self.steps
            .iter()
            .rev()
            .find(|s| s.is_write() && s.entity == entity)
            .map(|s| s.tx)
    }

    /// Swaps the adjacent steps at positions `i` and `i + 1`, returning the
    /// new schedule. Returns `None` if `i + 1` is out of range or the two
    /// steps belong to the same transaction (swapping them would violate
    /// program order, so the result would not be a schedule of the same
    /// transaction system).
    pub fn swap_adjacent(&self, i: usize) -> Option<Schedule> {
        if i + 1 >= self.steps.len() || self.steps[i].tx == self.steps[i + 1].tx {
            return None;
        }
        let mut steps = self.steps.clone();
        steps.swap(i, i + 1);
        Some(Schedule {
            steps,
            entities: self.entities.clone(),
        })
    }

    /// Enumerates every interleaving of the transactions of `system`.
    ///
    /// The number of interleavings is the multinomial coefficient of the
    /// transaction lengths; this is intended for the small systems used in
    /// tests, examples and the Figure 1 census.
    pub fn all_interleavings(system: &TransactionSystem) -> Vec<Schedule> {
        let txs: Vec<&Transaction> = system.transactions().iter().collect();
        let mut cursors = vec![0usize; txs.len()];
        let mut current: Vec<Step> = Vec::with_capacity(system.total_steps());
        let mut out = Vec::new();
        fn rec(
            txs: &[&Transaction],
            cursors: &mut Vec<usize>,
            current: &mut Vec<Step>,
            out: &mut Vec<Schedule>,
            total: usize,
        ) {
            if current.len() == total {
                out.push(Schedule::from_steps(current.clone()));
                return;
            }
            for (k, tx) in txs.iter().enumerate() {
                if cursors[k] < tx.len() {
                    let (action, entity) = tx.accesses[cursors[k]];
                    cursors[k] += 1;
                    current.push(Step {
                        tx: tx.id,
                        action,
                        entity,
                    });
                    rec(txs, cursors, current, out, total);
                    current.pop();
                    cursors[k] -= 1;
                }
            }
        }
        rec(
            &txs,
            &mut cursors,
            &mut current,
            &mut out,
            system.total_steps(),
        );
        out
    }

    /// Renders the schedule as the paper's two-dimensional figure layout:
    /// one row per transaction, one column per step.
    pub fn to_grid(&self) -> String {
        crate::display::grid(self)
    }
}

fn parse_tx_label(label: &str) -> Option<TxId> {
    if label.is_empty() {
        return None;
    }
    if let Ok(n) = label.parse::<u32>() {
        return Some(TxId(n));
    }
    if label.len() == 1 {
        // lint: allow(unwrap) — label is non-empty here; the empty case returned above
        let c = label.chars().next().unwrap().to_ascii_lowercase();
        if c.is_ascii_lowercase() {
            return Some(TxId((c as u32) - ('a' as u32) + 1));
        }
    }
    if let Some(rest) = label.strip_prefix('t').or_else(|| label.strip_prefix('T')) {
        if let Ok(n) = rest.parse::<u32>() {
            return Some(TxId(n));
        }
    }
    None
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for s in &self.steps {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let s = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(y)").unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.to_string(), "R1(x) W1(x) R2(x) W2(y)");
        let s2 = Schedule::parse(&s.to_string()).unwrap();
        assert_eq!(s.steps(), s2.steps());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Schedule::parse("Q1(x)").is_err());
        assert!(Schedule::parse("R1 x").is_err());
        assert!(Schedule::parse("R1()").is_err());
        assert!(Schedule::parse("R?(x)").is_err());
    }

    #[test]
    fn parse_numeric_and_t_prefixed_labels() {
        let s = Schedule::parse("R1(x) Wt2(y) rA(z)").unwrap();
        let ids: Vec<TxId> = s.steps().iter().map(|s| s.tx).collect();
        assert_eq!(ids, vec![TxId(1), TxId(2), TxId(1)]);
    }

    #[test]
    fn serial_detection() {
        let serial = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(x)").unwrap();
        assert!(serial.is_serial());

        let interleaved = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
        assert!(!interleaved.is_serial());

        // Returning to an already-finished transaction is not serial.
        let revisit = Schedule::parse("Ra(x) Rb(x) Ra(y)").unwrap();
        assert!(!revisit.is_serial());
    }

    #[test]
    fn tx_system_round_trip() {
        let s = Schedule::parse("Ra(x) Rb(y) Wa(x) Wb(y)").unwrap();
        let sys = s.tx_system();
        assert_eq!(sys.len(), 2);
        assert!(s.is_shuffle_of(&sys));
        let serial = Schedule::serial(&sys, &[TxId(2), TxId(1)]);
        assert_eq!(serial.to_string(), "R2(y) W2(y) R1(x) W1(x)");
        assert!(serial.is_shuffle_of(&sys));
        // A different system is rejected.
        let other = Schedule::parse("Ra(x)").unwrap().tx_system();
        assert!(!s.is_shuffle_of(&other));
    }

    #[test]
    fn position_queries() {
        let s = Schedule::parse("Ra(x) Wb(x) Ra(y) Wa(x) Rb(x)").unwrap();
        let x = EntityId(0);
        let y = EntityId(1);
        assert_eq!(s.read_positions(x), vec![0, 4]);
        assert_eq!(s.read_positions(y), vec![2]);
        assert_eq!(s.all_read_positions(), vec![0, 2, 4]);
        assert_eq!(s.last_write_before(0, x), None);
        assert_eq!(s.last_write_before(4, x), Some(3));
        assert_eq!(s.last_writer_before(4, x), Some(TxId(1)));
        assert_eq!(s.last_writer_before(2, x), Some(TxId(2)));
        assert_eq!(s.final_writer(x), Some(TxId(1)));
        assert_eq!(s.final_writer(y), None);
    }

    #[test]
    fn prefixes_and_common_prefix() {
        let s = Schedule::parse("Ra(x) Wa(x) Rb(x)").unwrap();
        let t = Schedule::parse("Ra(x) Wa(x) Wb(y)").unwrap();
        assert_eq!(s.prefixes().count(), 4);
        assert_eq!(s.common_prefix_len(&t), 2);
    }

    #[test]
    fn swap_adjacent_respects_program_order() {
        let s = Schedule::parse("Ra(x) Wa(x) Rb(x)").unwrap();
        assert!(s.swap_adjacent(0).is_none(), "same-transaction swap");
        let swapped = s.swap_adjacent(1).unwrap();
        assert_eq!(swapped.to_string(), "R1(x) R2(x) W1(x)");
        assert!(s.swap_adjacent(2).is_none(), "out of range");
    }

    #[test]
    fn all_interleavings_counts_match_multinomial() {
        // Two transactions with 2 steps each: C(4,2) = 6 interleavings.
        let sys = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(x)")
            .unwrap()
            .tx_system();
        let all = Schedule::all_interleavings(&sys);
        assert_eq!(all.len(), 6);
        assert!(all.iter().all(|s| s.is_shuffle_of(&sys)));
        // All interleavings are distinct.
        let set: BTreeSet<Vec<Step>> = all.iter().map(|s| s.steps().to_vec()).collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn appended_extends_schedule() {
        let s = Schedule::parse("Ra(x)").unwrap();
        let s2 = s.appended(Step::write(TxId(1), EntityId(0)));
        assert_eq!(s2.to_string(), "R1(x) W1(x)");
        assert_eq!(s.len(), 1, "original is unchanged");
    }

    #[test]
    fn empty_schedule_properties() {
        let e = Schedule::empty();
        assert!(e.is_empty());
        assert!(e.is_serial());
        assert_eq!(e.num_transactions(), 0);
        assert_eq!(e.entities_accessed(), vec![]);
        assert_eq!(e.to_string(), "");
    }
}
