//! The one definition of a conflict arc, on a dense index shared by the
//! three polynomial tests: CSR, MVCSR (Theorem 1) and DMVSR.
//!
//! Transactions are numbered by first appearance and each entity's steps are
//! gathered into one run by sorting, so nothing on the decision path hashes,
//! formats a label or builds a [`DiGraph`].  Within an entity's run an
//! earlier step puts an arc from its transaction to a later step's, never to
//! itself, when the pair conflicts under a [`Rule`].  Acyclicity is decided
//! on `u64` predecessor masks up to 64 transactions and by Kahn's in-degree
//! pass beyond; the labelled graphs (`conflict_graph`, `mv_conflict_graph`)
//! and the witnesses read the same arcs.

use crate::serialization::distinct;
use mvcc_core::{EntityId, Schedule, TxId};
use mvcc_graph::{DiGraph, NodeId};
use std::collections::HashMap;

/// Which same-entity step pairs conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// Single-version conflicts (CSR): at least one step of the pair writes.
    Sv,
    /// Read before write: the MVCG of Theorem 1.
    Mv,
    /// The MVCG of the readless-write patching (DMVSR): a write of an
    /// entity its transaction has not accessed earlier also acts as a read
    /// at its own position — the read the patching inserts right before it.
    Patched,
}

/// One step, as the index sees it.
#[derive(Debug, Clone, Copy)]
struct Access {
    entity: EntityId,
    /// Position in the schedule.
    pos: u32,
    /// Dense number of the step's transaction.
    node: u32,
    write: bool,
    /// Acts as a read under the rule being enumerated.
    reads: bool,
}

/// The steps of a schedule bucketed per entity, over dense transaction
/// numbers.
pub(crate) struct ArcIndex {
    nodes: usize,
    /// Sorted by (entity, position): each entity's steps form one run.
    accesses: Vec<Access>,
}

impl ArcIndex {
    pub(crate) fn of(schedule: &Schedule) -> Self {
        let steps = schedule.steps();
        // Each transaction and its number, unassigned until it first steps.
        let mut txs = distinct(steps.iter().map(|step| (step.tx, u32::MAX)));
        let mut nodes = 0;
        let mut accesses: Vec<Access> = steps
            .iter()
            .enumerate()
            .map(|(pos, step)| {
                let (Ok(rank) | Err(rank)) = txs.binary_search_by_key(&step.tx, |&(tx, _)| tx);
                let node = &mut txs[rank].1;
                if *node == u32::MAX {
                    *node = nodes;
                    nodes += 1;
                }
                Access {
                    entity: step.entity,
                    pos: pos as u32,
                    node: *node,
                    write: step.is_write(),
                    reads: step.is_read(),
                }
            })
            .collect();
        accesses.sort_unstable_by_key(|a| (u64::from(a.entity.0) << 32) | u64::from(a.pos));
        ArcIndex {
            nodes: txs.len(),
            accesses,
        }
    }

    /// Calls `arc(earlier, later)` for every conflict arc under `rule`,
    /// entity by entity and later step by later step.  Under
    /// [`Rule::Patched`] it stops at a transaction's second write of an
    /// entity and returns `false`: the patched MVCG decides DMVSR only for
    /// writes-once schedules (see [`crate::dmvsr`]).
    fn for_each_arc(&mut self, rule: Rule, mut arc: impl FnMut(Access, Access)) -> bool {
        let mut start = 0;
        while let Some(first) = self.accesses.get(start) {
            let entity = first.entity;
            let end = start + self.accesses[start..].partition_point(|a| a.entity == entity);
            let run = &mut self.accesses[start..end];
            start = end;
            for j in 0..run.len() {
                let later = run[j];
                let mut accessed = false;
                for &earlier in &run[..j] {
                    if earlier.node == later.node {
                        if rule == Rule::Patched && earlier.write && later.write {
                            return false;
                        }
                        accessed = true;
                    } else if match rule {
                        Rule::Sv => earlier.write || later.write,
                        Rule::Mv | Rule::Patched => earlier.reads && later.write,
                    } {
                        arc(earlier, later);
                    }
                }
                run[j].reads |= rule == Rule::Patched && !accessed;
            }
        }
        true
    }

    /// Whether the graph of `rule`'s arcs is acyclic; `None` when
    /// [`Rule::Patched`] meets a transaction writing an entity twice.
    pub(crate) fn acyclic(mut self, rule: Rule) -> Option<bool> {
        let n = self.nodes;
        if n <= 64 {
            let mut preds = [0u64; 64];
            if !self.for_each_arc(rule, |from, to| preds[to.node as usize] |= 1 << from.node) {
                return None;
            }
            // Remove the nodes left without a remaining predecessor, round by
            // round; a cycle is what is left when no node can go.
            let mut left = if n == 64 { u64::MAX } else { (1 << n) - 1 };
            while left != 0 {
                let (mut rest, mut free) = (left, 0);
                while rest != 0 {
                    let v = rest.trailing_zeros();
                    rest &= rest - 1;
                    if preds[v as usize] & left == 0 {
                        free |= 1 << v;
                    }
                }
                if free == 0 {
                    break;
                }
                left &= !free;
            }
            return Some(left == 0);
        }
        let mut arcs: Vec<(u32, u32)> = Vec::new();
        if !self.for_each_arc(rule, |from, to| arcs.push((from.node, to.node))) {
            return None;
        }
        // Successor lists by counting sort: `first[v]..first[v + 1]`.
        let mut first = vec![0usize; n + 1];
        let mut in_degree = vec![0u32; n];
        for &(from, to) in &arcs {
            first[from as usize] += 1;
            in_degree[to as usize] += 1;
        }
        for v in 1..=n {
            first[v] += first[v - 1];
        }
        let mut succ = vec![0u32; arcs.len()];
        for &(from, to) in &arcs {
            first[from as usize] -= 1;
            succ[first[from as usize]] = to;
        }
        let mut ready: Vec<u32> = (0..n as u32)
            .filter(|&v| in_degree[v as usize] == 0)
            .collect();
        let mut removed = 0;
        while let Some(v) = ready.pop() {
            removed += 1;
            for &to in &succ[first[v as usize]..first[v as usize + 1]] {
                in_degree[to as usize] -= 1;
                if in_degree[to as usize] == 0 {
                    ready.push(to);
                }
            }
        }
        Some(removed == n)
    }
}

/// A conflict graph with one node per transaction, by first appearance,
/// labelled with the transaction's name.
pub(crate) struct Labelled {
    pub(crate) graph: DiGraph,
    pub(crate) node_of_tx: HashMap<TxId, NodeId>,
    pub(crate) tx_of_node: Vec<TxId>,
    /// `(from, to, position of the earlier step)` of every conflicting step
    /// pair, in (earlier, later) position order.
    pub(crate) arcs: Vec<(NodeId, NodeId, usize)>,
}

/// The graph of `rule`'s arcs (not [`Rule::Patched`]) with its labels.
pub(crate) fn labelled(schedule: &Schedule, rule: Rule) -> Labelled {
    let mut pairs = Vec::new();
    ArcIndex::of(schedule).for_each_arc(rule, |earlier, later| {
        pairs.push((earlier.pos, later.pos, earlier.node, later.node));
    });
    pairs.sort_unstable();
    let tx_of_node = schedule.tx_ids();
    let mut graph = DiGraph::new();
    for tx in &tx_of_node {
        graph.add_node(tx.to_string());
    }
    let arcs: Vec<_> = pairs
        .into_iter()
        .map(|(first, _, from, to)| (NodeId(from), NodeId(to), first as usize))
        .collect();
    for &(from, to, _) in &arcs {
        graph.add_arc(from, to);
    }
    Labelled {
        node_of_tx: tx_of_node
            .iter()
            .enumerate()
            .map(|(n, &tx)| (tx, NodeId(n as u32)))
            .collect(),
        tx_of_node,
        graph,
        arcs,
    }
}
