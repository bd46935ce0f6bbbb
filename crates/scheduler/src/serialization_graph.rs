//! The incremental serialization graph shared by [`crate::SgtScheduler`] and
//! [`crate::MvSgtScheduler`].
//!
//! Both schedulers keep a graph over the transactions of the accepted prefix
//! and accept a step iff the arcs it induces leave the graph acyclic; they
//! differ only in *which* earlier steps induce an arc (the `conflicts` rule
//! passed to [`SerializationGraph::offer`]) and in whether a departed
//! transaction's writes stay behind as servable versions (`keep_versions`).
//! Everything else lives here, indexed so that no operation looks at more
//! than the footprint of the transaction it concerns:
//!
//! * **per transaction** a node with its successor and predecessor lists,
//!   a committed flag and the entities it touched;
//! * **per entity** a log of the retained steps on it, in arrival order.
//!   Arrival numbers are global, so the logs merge back into the accepted
//!   schedule; nothing observable ever follows hash-map iteration order.
//!
//! **Cycle test.**  The graph is acyclic before every step and every new arc
//! points *into* the stepping transaction `T`, so a cycle through a new arc
//! `S → T` needs an old path `T ⇝ S`: one DFS from `T` over successor lists
//! that looks for any of the new sources.  A `T` without successors — the
//! common case — is decided without a search.
//!
//! **Pruning.**  A committed transaction takes no more steps and so never
//! gains a predecessor; once it has none it can never lie on a cycle, and
//! neither its node, its arcs nor its steps can influence a later decision.
//! Removing it may leave a committed successor without predecessors, which
//! goes the same way: a worklist.  The set removed is the least set closed
//! under "committed and every predecessor removed", the same one the
//! obvious fix-point loop (collect every committed source, drop them,
//! repeat) computes — in whatever order either visits it.  An abort is the
//! same removal with predecessors to unlink and nothing kept.
//!
//! **Budget per step.**  `offer`: the entity's log (steps of transactions
//! still in the graph, plus one settled version) and the subgraph reachable
//! from `T`.  `commit` / `abort`: the logs of the entities the transaction
//! touched and its own arcs, plus the same for every node the cascade
//! removes — each node is removed once, so this is amortised against the
//! step that created it.  Neither depends on the number of entities or on
//! the length of the history.

use mvcc_core::{Action, EntityId, Step, TxId, VersionSource};
use std::collections::{HashMap, HashSet};

/// One retained step in its entity's log.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Global arrival number; every log is sorted by it.
    seq: u64,
    tx: TxId,
    action: Action,
    /// The version served to a read, where the scheduler assigns one.
    read_from: Option<VersionSource>,
    /// A write whose committed writer has left the graph: still a servable
    /// version, no longer a constraint.
    settled: bool,
}

#[derive(Debug, Clone, Default)]
struct Node {
    succ: Vec<TxId>,
    pred: Vec<TxId>,
    committed: bool,
    touched: Vec<EntityId>,
}

/// See the module documentation.
#[derive(Debug, Clone)]
pub(crate) struct SerializationGraph {
    /// Whether a pruned transaction's writes stay in the logs as settled
    /// versions (the newest one per entity) or go with it.
    keep_versions: bool,
    nodes: HashMap<TxId, Node>,
    logs: HashMap<EntityId, Vec<Entry>>,
    next_seq: u64,
    retained: usize,
}

impl SerializationGraph {
    pub(crate) fn new(keep_versions: bool) -> Self {
        SerializationGraph {
            keep_versions,
            nodes: HashMap::new(),
            logs: HashMap::new(),
            next_seq: 0,
            retained: 0,
        }
    }

    /// Number of steps currently retained.
    pub(crate) fn retained_steps(&self) -> usize {
        self.retained
    }

    /// Offers `step`: every retained step on its entity by another
    /// transaction still in the graph whose action satisfies `conflicts`
    /// induces an arc into `step.tx`.  Returns `false`, leaving the graph
    /// untouched, if those arcs would close a cycle; otherwise records them
    /// and the step (with `read_from` as the version it was served).
    pub(crate) fn offer(
        &mut self,
        step: Step,
        read_from: Option<VersionSource>,
        conflicts: impl Fn(Action) -> bool,
    ) -> bool {
        let tx = step.tx;
        // A step that finds its entity's log empty has no sources and is
        // accepted, so this never leaves an empty log behind.
        let log = self.logs.entry(step.entity).or_default();
        let mut sources: Vec<TxId> = Vec::new();
        for e in log.iter() {
            if !e.settled && e.tx != tx && conflicts(e.action) && !sources.contains(&e.tx) {
                sources.push(e.tx);
            }
        }
        if !sources.is_empty() && reaches(&self.nodes, tx, |t| sources.contains(&t)) {
            return false;
        }
        // Only arcs that are new extend the adjacency lists.
        sources.retain(|s| {
            // lint: allow(unwrap) — an unsettled entry's transaction is in the graph
            let source = self.nodes.get_mut(s).expect("source is in the graph");
            let new = !source.succ.contains(&tx);
            if new {
                source.succ.push(tx);
            }
            new
        });
        let node = self.nodes.entry(tx).or_default();
        node.pred.extend(sources);
        if !node.touched.contains(&step.entity) {
            node.touched.push(step.entity);
        }
        log.push(Entry {
            seq: self.next_seq,
            tx,
            action: step.action,
            read_from,
            settled: false,
        });
        self.next_seq += 1;
        self.retained += 1;
        true
    }

    /// `true` if a non-empty path leads from `from` to a transaction
    /// satisfying `is_target`.
    pub(crate) fn reaches(&self, from: TxId, is_target: impl Fn(TxId) -> bool) -> bool {
        reaches(&self.nodes, from, is_target)
    }

    /// The writers of the retained versions of `entity`, newest first.
    pub(crate) fn writers(&self, entity: EntityId) -> impl Iterator<Item = TxId> + '_ {
        let log = self.logs.get(&entity).map_or(&[][..], Vec::as_slice);
        log.iter()
            .rev()
            .filter(|e| e.action.is_write())
            .map(|e| e.tx)
    }

    /// `tx` will take no more steps: it leaves the graph as soon as it has
    /// no predecessors (now, or when the last of them leaves).
    pub(crate) fn commit(&mut self, tx: TxId) {
        if let Some(node) = self.nodes.get_mut(&tx) {
            node.committed = true;
            if node.pred.is_empty() {
                self.remove(tx, true);
            }
        }
    }

    /// Undoes every step of `tx`.
    pub(crate) fn abort(&mut self, tx: TxId) {
        self.remove(tx, false);
    }

    /// Takes `first` out of the graph — as a committed transaction or as an
    /// aborted one — and then every committed node that leaves without
    /// predecessors.
    fn remove(&mut self, first: TxId, first_committed: bool) {
        let mut work = vec![(first, first_committed)];
        while let Some((tx, committed)) = work.pop() {
            let Some(node) = self.nodes.remove(&tx) else {
                continue;
            };
            for p in &node.pred {
                if let Some(pred) = self.nodes.get_mut(p) {
                    pred.succ.retain(|&s| s != tx);
                }
            }
            for s in &node.succ {
                if let Some(succ) = self.nodes.get_mut(s) {
                    succ.pred.retain(|&p| p != tx);
                    if succ.pred.is_empty() && succ.committed {
                        work.push((*s, true));
                    }
                }
            }
            for &entity in &node.touched {
                self.retire(tx, entity, committed && self.keep_versions);
            }
        }
    }

    /// Drops the steps of the departed `tx` from `entity`'s log.  With
    /// `settle` its writes stay as settled versions, of which only the
    /// newest per entity can ever be served again: a reader scanning
    /// newest-first stops there at the latest, because a writer that is no
    /// longer in the graph is forced after no reader.
    fn retire(&mut self, tx: TxId, entity: EntityId, settle: bool) {
        let Some(log) = self.logs.get_mut(&entity) else {
            return;
        };
        let before = log.len();
        if settle {
            log.retain_mut(|e| {
                if e.tx != tx {
                    return true;
                }
                e.settled = e.action.is_write();
                e.settled
            });
            if let Some(newest) = log.iter().rev().find(|e| e.settled).map(|e| e.seq) {
                log.retain(|e| !e.settled || e.seq == newest);
            }
        } else {
            log.retain(|e| e.tx != tx);
            // Reads that were served an undone version fall back to the
            // initial one (cascading aborts are out of scope).
            for e in log.iter_mut() {
                if e.read_from == Some(VersionSource::Tx(tx)) {
                    e.read_from = Some(VersionSource::Initial);
                }
            }
        }
        self.retained -= before - log.len();
        if log.is_empty() {
            self.logs.remove(&entity);
        }
    }

    /// The retained steps in arrival order, each with the version it was
    /// served.
    pub(crate) fn steps(&self) -> Vec<(Step, Option<VersionSource>)> {
        let mut all: Vec<(u64, Step, Option<VersionSource>)> = self
            .logs
            .iter()
            .flat_map(|(&entity, log)| {
                log.iter().map(move |e| {
                    let step = Step {
                        tx: e.tx,
                        action: e.action,
                        entity,
                    };
                    (e.seq, step, e.read_from)
                })
            })
            .collect();
        all.sort_unstable_by_key(|&(seq, ..)| seq);
        all.into_iter()
            .map(|(_, step, read_from)| (step, read_from))
            .collect()
    }
}

fn reaches(nodes: &HashMap<TxId, Node>, from: TxId, is_target: impl Fn(TxId) -> bool) -> bool {
    let succ = |n: TxId| nodes.get(&n).map_or(&[][..], |node| node.succ.as_slice());
    if succ(from).is_empty() {
        return false;
    }
    let mut seen = HashSet::from([from]);
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        for &m in succ(n) {
            if seen.insert(m) {
                if is_target(m) {
                    return true;
                }
                stack.push(m);
            }
        }
    }
    false
}
