//! Transactions and transaction systems.
//!
//! A *transaction* is a finite sequence of read/write steps on entities; a
//! *transaction system* `τ = {T1, ..., Tn}` is a finite set of transactions.
//! A schedule of `τ` is a sequence in the shuffle of `τ`: the steps of each
//! transaction appear in program order.

use crate::{Action, EntityId, Step};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a transaction.
///
/// Ordinary transactions use small non-negative indices.  The implicit
/// padding transactions of the paper are represented by the reserved values
/// [`TxId::INITIAL`] (`T0`, which writes every entity before the schedule)
/// and [`TxId::FINAL`] (`Tf`, which reads every entity after it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxId(pub u32);

impl TxId {
    /// The padding transaction `T0` that writes all entities before the
    /// schedule starts.
    pub const INITIAL: TxId = TxId(u32::MAX - 1);
    /// The padding transaction `Tf` that reads all entities after the
    /// schedule ends.
    pub const FINAL: TxId = TxId(u32::MAX);

    /// Returns the raw index. Panics on the reserved padding ids.
    #[inline]
    pub fn index(self) -> usize {
        debug_assert!(!self.is_padding(), "padding transactions have no index");
        self.0 as usize
    }

    /// `true` for `T0` or `Tf`.
    #[inline]
    pub fn is_padding(self) -> bool {
        self == TxId::INITIAL || self == TxId::FINAL
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == TxId::INITIAL {
            write!(f, "T0")
        } else if *self == TxId::FINAL {
            write!(f, "Tf")
        } else {
            write!(f, "T{}", self.0)
        }
    }
}

/// A transaction: an ordered sequence of accesses by a single [`TxId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Transaction {
    /// The transaction's identifier.
    pub id: TxId,
    /// The program-order sequence of (action, entity) accesses.
    pub accesses: Vec<(Action, EntityId)>,
}

impl Transaction {
    /// Creates a transaction from its id and access list.
    pub fn new(id: TxId, accesses: Vec<(Action, EntityId)>) -> Self {
        Transaction { id, accesses }
    }

    /// The steps of this transaction in program order.
    pub fn steps(&self) -> impl Iterator<Item = Step> + '_ {
        self.accesses.iter().map(move |&(action, entity)| Step {
            tx: self.id,
            action,
            entity,
        })
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// `true` if the transaction has no steps.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The read set: entities accessed by a read step (paper, Section 2).
    pub fn read_set(&self) -> BTreeSet<EntityId> {
        self.accesses
            .iter()
            .filter(|(a, _)| a.is_read())
            .map(|&(_, e)| e)
            .collect()
    }

    /// The write set: entities accessed by a write step.
    pub fn write_set(&self) -> BTreeSet<EntityId> {
        self.accesses
            .iter()
            .filter(|(a, _)| a.is_write())
            .map(|&(_, e)| e)
            .collect()
    }

    /// `true` if the transaction contains a write on an entity it never
    /// reads ("readless write").  The restricted model of \[PK84\] disallows
    /// these; DMVSR is defined by patching them (see `mvcc-classify`).
    pub(crate) fn has_readless_write(&self) -> bool {
        let reads = self.read_set();
        self.write_set().iter().any(|e| !reads.contains(e))
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.id)?;
        for step in self.steps() {
            write!(f, " {}({})", step.action, step.entity)?;
        }
        Ok(())
    }
}

/// A finite set of transactions `τ = {T1, ..., Tn}`.
///
/// Transactions are stored in `TxId` order; the system is the *program* that
/// schedules interleave.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TransactionSystem {
    transactions: Vec<Transaction>,
}

impl TransactionSystem {
    /// Builds a system from a list of transactions (sorted by id).
    pub fn new(mut transactions: Vec<Transaction>) -> Self {
        transactions.sort_by_key(|t| t.id);
        TransactionSystem { transactions }
    }

    /// The transactions in id order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// `true` if there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Finds the transaction with the given id.
    pub fn get(&self, id: TxId) -> Option<&Transaction> {
        self.transactions.iter().find(|t| t.id == id)
    }

    /// All transaction ids in order.
    pub fn tx_ids(&self) -> Vec<TxId> {
        self.transactions.iter().map(|t| t.id).collect()
    }

    /// The set of entities accessed by any transaction.
    pub fn entities(&self) -> BTreeSet<EntityId> {
        self.transactions
            .iter()
            .flat_map(|t| t.accesses.iter().map(|&(_, e)| e))
            .collect()
    }

    /// Total number of steps across all transactions.
    pub fn total_steps(&self) -> usize {
        self.transactions.iter().map(|t| t.len()).sum()
    }

    /// `true` if no transaction has a readless write (the restricted model
    /// of \[PK84\] in which MVSR is polynomial).
    pub fn is_restricted_model(&self) -> bool {
        self.transactions.iter().all(|t| !t.has_readless_write())
    }

    /// The serial schedule obtained by running the transactions in the given
    /// order, returned as a step sequence.
    pub(crate) fn serial_steps(&self, order: &[TxId]) -> Vec<Step> {
        let mut steps = Vec::with_capacity(self.total_steps());
        for &id in order {
            if let Some(tx) = self.get(id) {
                steps.extend(tx.steps());
            }
        }
        steps
    }
}

impl fmt::Display for TransactionSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.transactions {
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(id: u32, accesses: &[(Action, u32)]) -> Transaction {
        Transaction::new(
            TxId(id),
            accesses.iter().map(|&(a, e)| (a, EntityId(e))).collect(),
        )
    }

    #[test]
    fn padding_ids_are_recognised() {
        assert!(TxId::INITIAL.is_padding());
        assert!(TxId::FINAL.is_padding());
        assert!(!TxId(0).is_padding());
        assert_eq!(TxId::INITIAL.to_string(), "T0");
        assert_eq!(TxId::FINAL.to_string(), "Tf");
        assert_eq!(TxId(4).to_string(), "T4");
    }

    #[test]
    fn read_and_write_sets() {
        let t = tx(
            1,
            &[
                (Action::Read, 0),
                (Action::Write, 0),
                (Action::Read, 1),
                (Action::Write, 2),
            ],
        );
        assert_eq!(t.read_set(), [EntityId(0), EntityId(1)].into());
        assert_eq!(t.write_set(), [EntityId(0), EntityId(2)].into());
        assert!(t.has_readless_write()); // writes z without reading it
    }

    #[test]
    fn restricted_model_detection() {
        let good = tx(1, &[(Action::Read, 0), (Action::Write, 0)]);
        let bad = tx(2, &[(Action::Write, 0)]);
        assert!(!good.has_readless_write());
        assert!(bad.has_readless_write());

        let sys_good = TransactionSystem::new(vec![good.clone()]);
        let sys_bad = TransactionSystem::new(vec![good, bad]);
        assert!(sys_good.is_restricted_model());
        assert!(!sys_bad.is_restricted_model());
    }

    #[test]
    fn serial_steps_follow_requested_order() {
        let a = tx(0, &[(Action::Read, 0), (Action::Write, 0)]);
        let b = tx(1, &[(Action::Write, 1)]);
        let sys = TransactionSystem::new(vec![a, b]);
        let steps = sys.serial_steps(&[TxId(1), TxId(0)]);
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0], Step::write(TxId(1), EntityId(1)));
        assert_eq!(steps[1], Step::read(TxId(0), EntityId(0)));
    }

    #[test]
    fn system_accessors() {
        let a = tx(0, &[(Action::Read, 0)]);
        let b = tx(1, &[(Action::Write, 1), (Action::Write, 2)]);
        let sys = TransactionSystem::new(vec![b.clone(), a.clone()]);
        assert_eq!(sys.len(), 2);
        assert_eq!(sys.tx_ids(), vec![TxId(0), TxId(1)]);
        assert_eq!(sys.total_steps(), 3);
        assert_eq!(sys.get(TxId(1)), Some(&b));
        assert_eq!(sys.get(TxId(7)), None);
        assert_eq!(
            sys.entities(),
            [EntityId(0), EntityId(1), EntityId(2)].into()
        );
        assert!(!sys.is_empty());
        assert!(TransactionSystem::default().is_empty());
    }

    #[test]
    fn transaction_step_iteration_preserves_program_order() {
        let t = tx(3, &[(Action::Read, 0), (Action::Write, 1)]);
        let steps: Vec<Step> = t.steps().collect();
        assert_eq!(
            steps,
            vec![
                Step::read(TxId(3), EntityId(0)),
                Step::write(TxId(3), EntityId(1))
            ]
        );
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
