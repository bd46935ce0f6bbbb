//! The dense schedule every classifier reads, one per call, and the one
//! definition of a conflict arc on it.
//!
//! One pass over the steps numbers the transactions by first appearance
//! (through a small hash table of ids), and a radix sort by entity gathers
//! each entity's steps into one run; entities are numbered in ascending
//! order, so the `e`-th run is entity `e`'s.  What
//! the tests read beyond the runs is derived from them once, on first use,
//! and kept in the same `DenseSchedule`:
//!
//! * the three rules' predecessor masks (up to 64 transactions), for CSR,
//!   MVCSR (Theorem 1) and DMVSR;
//! * the search tables ([`Tables`]) for the serialization search of VSR and
//!   MVSR ([`crate::serialization`]): per transaction its reads — each with
//!   `own`, its `avail` mask and its *standard source*, the last writer
//!   before it — and its first writes, and per entity the standard final
//!   writer and the mask of its writers.
//!
//! A standalone test pays for what it reads; [`crate::taxonomy::classify`]
//! builds one `DenseSchedule` for all six verdicts, so the runs, the masks
//! and the tables are built once per call.  Nothing on the decision path
//! hashes, formats a label or builds a [`DiGraph`].
//!
//! Within an entity's run an earlier step puts an arc from its transaction
//! to a later step's, never to itself, when the pair conflicts under a
//! [`Rule`].  Up to 64 transactions one sweep of each run yields the `u64`
//! predecessor masks of all three rules, and Kahn's pass removes the nodes
//! left without a predecessor from them round by round; beyond, the arcs of
//! the one rule asked are enumerated pair by pair for Kahn's in-degree
//! pass.  Either way the pass returns the order it removed the nodes in:
//! all of them iff the graph is acyclic, and then a topological order,
//! which the MVSR test checks as a candidate serialization.  The labelled
//! graphs (`conflict_graph`, `mv_conflict_graph`) and the witnesses read
//! the same arcs.

use mvcc_core::{EntityId, Schedule, TxId};
use mvcc_graph::{DiGraph, NodeId};
use std::cell::OnceCell;
use std::collections::HashMap;

/// In the dense tables: no transaction — the initial version as a read's
/// source, nobody as an entity's writer.
pub(crate) const NONE: u32 = u32::MAX;

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
}

/// One read step, as the search sees it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Read {
    /// The transactions whose first write of the entity precedes the read in
    /// the schedule — the writers that can serve it.  So `bit(w) ∈ avail`
    /// *is* the realizability test for source `w`.  Only filled while the
    /// transaction count fits the mask, and only read where `!own`.
    pub(crate) avail: u128,
    /// Position in the schedule.
    pub(crate) pos: u32,
    /// Dense number of the entity read.
    pub(crate) entity: u32,
    /// The last writer of the entity before the read ([`NONE`]: the initial
    /// version): what a single-version database serves it.
    pub(crate) standard: u32,
    /// Whether the transaction wrote the entity earlier in program order:
    /// serially the read then sees that write, whatever the order.
    pub(crate) own: bool,
}

/// A transaction's first write of an entity.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FirstWrite {
    /// Dense number of the entity.
    pub(crate) entity: u32,
    /// Position in the schedule.
    pub(crate) pos: u32,
}

/// Where a transaction's reads and first writes start in [`Tables`].
#[derive(Debug, Clone, Copy, Default)]
struct Group {
    reads: u32,
    writes: u32,
    writes_end: u32,
}

/// What the serialization search reads, over dense numbers.
pub(crate) struct Tables {
    /// Every read, grouped by transaction ([`Tables::reads_of`]), ascending
    /// by entity within a transaction.
    pub(crate) reads: Vec<Read>,
    /// Every first write, grouped the same way ([`Tables::writes_of`]).
    writes: Vec<FirstWrite>,
    /// Per transaction, and one past the last: where its groups start.
    groups: Vec<Group>,
    /// Per entity: its last writer in the schedule ([`NONE`]: unwritten).
    pub(crate) final_writer: Vec<u32>,
    /// Per entity: the transactions that write it.  Only filled while the
    /// transaction count fits the mask.
    pub(crate) writers: Vec<u128>,
}

impl Tables {
    /// Indices into [`Tables::reads`] of transaction `t`'s reads.
    pub(crate) fn reads_of(&self, t: usize) -> std::ops::Range<usize> {
        self.groups[t].reads as usize..self.groups[t + 1].reads as usize
    }

    /// Transaction `t`'s first writes, ascending by entity.
    pub(crate) fn writes_of(&self, t: usize) -> &[FirstWrite] {
        let group = self.groups[t];
        &self.writes[group.writes as usize..group.writes_end as usize]
    }

    /// Whether transaction `t`'s first write of entity `e` precedes
    /// position `pos` — the availability test beyond the `avail` masks.
    pub(crate) fn first_write_before(&self, t: usize, e: u32, pos: u32) -> bool {
        let writes = self.writes_of(t);
        writes
            .binary_search_by_key(&e, |w| w.entity)
            .is_ok_and(|k| writes[k].pos < pos)
    }

    /// The number of entities.
    pub(crate) fn entities(&self) -> usize {
        self.final_writer.len()
    }
}

/// Up to 64 transactions: the predecessor masks of the three rules.
struct Masks {
    /// Per transaction, its predecessors under [`Rule::Sv`], [`Rule::Mv`]
    /// and [`Rule::Patched`].
    preds: Vec<[u64; 3]>,
    /// Whether some transaction writes an entity twice.
    rewrites: bool,
}

/// Transaction id → dense number: open addressing with linear probing, at
/// most half full, so numbering a step is one multiply and a probe or two.
struct TxNumbers {
    /// `(id, number)`; a number of [`NONE`] marks an empty slot.
    slots: Vec<(TxId, u32)>,
}

impl TxNumbers {
    /// Room for `n` transactions.
    fn with_room(n: usize) -> Self {
        TxNumbers {
            slots: vec![(TxId(0), NONE); (2 * n).next_power_of_two().max(2)],
        }
    }

    /// The slot holding `id`, or the empty slot where it would go.
    fn slot(&self, id: TxId) -> usize {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the high bits of the product.
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = (u64::from(id.0).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        while self.slots[i].1 != NONE && self.slots[i].0 != id {
            i = (i + 1) & mask;
        }
        i
    }
}

/// `accesses`, which arrive in position order, sorted by entity — stably,
/// so each entity's steps form one run in position order: a
/// least-significant-digit radix sort over the bytes of the entity ids, as
/// many bytes as the largest id has.
fn sort_by_entity(mut accesses: Vec<Access>) -> Vec<Access> {
    let largest = accesses.iter().map(|a| a.entity.0).max().unwrap_or(0);
    let mut spare = accesses.clone();
    let mut shift = 0;
    loop {
        let digit = |a: &Access| (a.entity.0 >> shift) as usize & 0xff;
        let mut next = [0u32; 257];
        for access in &accesses {
            next[digit(access) + 1] += 1;
        }
        for d in 0..256 {
            next[d + 1] += next[d];
        }
        for access in &accesses {
            let slot = &mut next[digit(access)];
            spare[*slot as usize] = *access;
            *slot += 1;
        }
        std::mem::swap(&mut accesses, &mut spare);
        shift += 8;
        if shift == 32 || largest >> shift == 0 {
            return accesses;
        }
    }
}

/// A schedule over dense numbers: what every classifier reads.
pub(crate) struct DenseSchedule {
    /// Transaction of each dense number (by first appearance).
    pub(crate) tx_ids: Vec<TxId>,
    tx_numbers: TxNumbers,
    /// Every step, sorted by (entity, position): each entity's steps form
    /// one run.
    accesses: Vec<Access>,
    /// Whether every transaction's steps are contiguous.
    pub(crate) serial: bool,
    masks: OnceCell<Masks>,
    tables: OnceCell<Tables>,
}

impl DenseSchedule {
    pub(crate) fn of(schedule: &Schedule) -> Self {
        let steps = schedule.steps();
        let mut tx_numbers = TxNumbers::with_room(steps.len());
        let mut tx_ids = Vec::new();
        let mut serial = true;
        let accesses = steps
            .iter()
            .enumerate()
            .map(|(pos, step)| {
                let slot = tx_numbers.slot(step.tx);
                let (id, node) = &mut tx_numbers.slots[slot];
                if *node == NONE {
                    *id = step.tx;
                    *node = tx_ids.len() as u32;
                    tx_ids.push(step.tx);
                }
                // Numbered by first appearance, a serial schedule only ever
                // steps the newest transaction.
                serial &= *node as usize + 1 == tx_ids.len();
                Access {
                    entity: step.entity,
                    pos: pos as u32,
                    node: *node,
                    write: step.is_write(),
                }
            })
            .collect();
        DenseSchedule {
            tx_ids,
            tx_numbers,
            accesses: sort_by_entity(accesses),
            serial,
            masks: OnceCell::new(),
            tables: OnceCell::new(),
        }
    }

    /// The number of transactions.
    pub(crate) fn txs(&self) -> usize {
        self.tx_ids.len()
    }

    /// Dense number of transaction `id`, if the schedule has it.
    pub(crate) fn tx_number(&self, id: TxId) -> Option<u32> {
        let (_, node) = self.tx_numbers.slots[self.tx_numbers.slot(id)];
        (node != NONE).then_some(node)
    }

    /// The runs of the entities, in ascending entity order.
    fn runs(&self) -> impl Iterator<Item = &[Access]> {
        let mut rest = &self.accesses[..];
        std::iter::from_fn(move || {
            let entity = rest.first()?.entity;
            let (run, tail) = rest.split_at(rest.partition_point(|a| a.entity == entity));
            rest = tail;
            Some(run)
        })
    }

    /// The search tables, built from the runs on first use: one counting
    /// pass for the group sizes, then one sweep that keeps, per run, the
    /// transactions that wrote the entity so far and its last writer.
    pub(crate) fn tables(&self) -> &Tables {
        self.tables.get_or_init(|| {
            let n = self.txs();
            let mut groups = vec![Group::default(); n + 1];
            let mut entities = 0;
            for (k, access) in self.accesses.iter().enumerate() {
                entities += usize::from(k == 0 || self.accesses[k - 1].entity != access.entity);
                let group = &mut groups[access.node as usize + 1];
                if access.write {
                    group.writes += 1;
                } else {
                    group.reads += 1;
                }
            }
            for t in 0..n {
                groups[t + 1].reads += groups[t].reads;
                groups[t + 1].writes += groups[t].writes;
            }
            for group in &mut groups {
                group.writes_end = group.writes;
            }
            let mut reads = vec![Read::default(); groups[n].reads as usize];
            // Room for every write; only first writes are kept.
            let mut writes = vec![FirstWrite::default(); groups[n].writes as usize];
            let mut final_writer = vec![NONE; entities];
            let mut writers_of = vec![0; entities];
            // Per transaction: where its next read goes, and the last run
            // (entity number + 1) in which it wrote the run's entity.
            let mut cursor: Vec<(u32, u32)> = groups[..n].iter().map(|g| (g.reads, 0)).collect();
            let masked = n <= 128;
            for (e, run) in self.runs().enumerate() {
                let e = e as u32;
                let mut writers = 0u128;
                for access in run {
                    let t = access.node as usize;
                    let (next_read, wrote_in) = &mut cursor[t];
                    if access.write {
                        if *wrote_in != e + 1 {
                            *wrote_in = e + 1;
                            let group = &mut groups[t];
                            writes[group.writes_end as usize] = FirstWrite {
                                entity: e,
                                pos: access.pos,
                            };
                            group.writes_end += 1;
                            if masked {
                                writers |= 1 << t;
                            }
                        }
                        final_writer[e as usize] = access.node;
                    } else {
                        reads[*next_read as usize] = Read {
                            avail: writers,
                            pos: access.pos,
                            entity: e,
                            standard: final_writer[e as usize],
                            own: *wrote_in == e + 1,
                        };
                        *next_read += 1;
                    }
                }
                writers_of[e as usize] = writers;
            }
            Tables {
                reads,
                writes,
                groups,
                final_writer,
                writers: writers_of,
            }
        })
    }

    /// Calls `arc(earlier, later)` for every conflict arc under `rule`,
    /// entity by entity and later step by later step.  Under
    /// [`Rule::Patched`] it stops at a transaction's second write of an
    /// entity and returns `false`: the patched MVCG decides DMVSR only for
    /// writes-once schedules (see [`crate::dmvsr`]).
    fn for_each_arc(&self, rule: Rule, mut arc: impl FnMut(Access, Access)) -> bool {
        // Under `Rule::Patched`, per step of the run: whether it acts as a
        // read (a read, or its transaction's first access of the entity).
        let mut patched_reads = Vec::new();
        for run in self.runs() {
            patched_reads.clear();
            for (j, &later) in run.iter().enumerate() {
                let mut accessed = false;
                for (k, &earlier) in run[..j].iter().enumerate() {
                    if earlier.node == later.node {
                        if rule == Rule::Patched && earlier.write && later.write {
                            return false;
                        }
                        accessed = true;
                    } else if match rule {
                        Rule::Sv => earlier.write || later.write,
                        Rule::Mv => !earlier.write && later.write,
                        Rule::Patched => patched_reads[k] && later.write,
                    } {
                        arc(earlier, later);
                    }
                }
                if rule == Rule::Patched {
                    patched_reads.push(!later.write || !accessed);
                }
            }
        }
        true
    }

    /// Up to 64 transactions: the predecessor masks of all three rules, in
    /// one sweep of each run that keeps the transactions seen so far, the
    /// writers, the readers and the patched readers.
    fn masks(&self) -> &Masks {
        self.masks.get_or_init(|| {
            let mut preds = vec![[0u64; 3]; self.txs()];
            let mut rewrites = false;
            for run in self.runs() {
                let (mut seen, mut writers, mut readers, mut patched) = (0u64, 0u64, 0u64, 0u64);
                for step in run {
                    let me = 1u64 << step.node;
                    let pred = &mut preds[step.node as usize];
                    if step.write {
                        pred[0] |= seen & !me;
                        pred[1] |= readers & !me;
                        pred[2] |= patched & !me;
                        rewrites |= writers & me != 0;
                        writers |= me;
                        // The patching's read, right before a first access.
                        if seen & me == 0 {
                            patched |= me;
                        }
                    } else {
                        pred[0] |= writers & !me;
                        readers |= me;
                        patched |= me;
                    }
                    seen |= me;
                }
            }
            Masks { preds, rewrites }
        })
    }

    /// Kahn's pass over the graph of `rule`'s arcs: the transactions (dense
    /// numbers) in the order it removes them, every one of them iff the
    /// graph is acyclic — then a topological order.  `None` when
    /// [`Rule::Patched`] meets a transaction writing an entity twice.
    pub(crate) fn removal_order(&self, rule: Rule) -> Option<Vec<u32>> {
        let n = self.txs();
        let mut order = Vec::with_capacity(n);
        if n <= 64 {
            let masks = self.masks();
            if rule == Rule::Patched && masks.rewrites {
                return None;
            }
            let k = rule as usize;
            // Remove the nodes left without a remaining predecessor, round by
            // round; a cycle is what is left when no node can go.
            let mut left = if n == 64 { u64::MAX } else { (1 << n) - 1 };
            while left != 0 {
                let (mut rest, mut free) = (left, 0);
                while rest != 0 {
                    let v = rest.trailing_zeros();
                    rest &= rest - 1;
                    if masks.preds[v as usize][k] & left == 0 {
                        free |= 1 << v;
                        order.push(v);
                    }
                }
                if free == 0 {
                    break;
                }
                left &= !free;
            }
            return Some(order);
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
        while let Some(v) = ready.pop() {
            order.push(v);
            for &to in &succ[first[v as usize]..first[v as usize + 1]] {
                in_degree[to as usize] -= 1;
                if in_degree[to as usize] == 0 {
                    ready.push(to);
                }
            }
        }
        Some(order)
    }

    /// Whether the graph of `rule`'s arcs is acyclic: Kahn's pass removes
    /// every transaction ([`DenseSchedule::removal_order`]).  `None` when
    /// [`Rule::Patched`] meets a transaction writing an entity twice.
    pub(crate) fn acyclic(&self, rule: Rule) -> Option<bool> {
        self.removal_order(rule)
            .map(|order| order.len() == self.txs())
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
    let dense = DenseSchedule::of(schedule);
    let mut pairs = Vec::new();
    dense.for_each_arc(rule, |earlier, later| {
        pairs.push((earlier.pos, later.pos, earlier.node, later.node));
    });
    pairs.sort_unstable();
    let tx_of_node = dense.tx_ids;
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
