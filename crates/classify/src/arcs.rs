//! The dense schedule every classifier reads, and the one definition of a
//! conflict arc on it.
//!
//! One pass over the steps numbers the transactions by first appearance
//! (through a small hash table of ids), and a radix sort by entity gathers
//! each entity's steps into one run; entities are numbered in ascending
//! order, so the `e`-th run is entity `e`'s.  What
//! the tests read beyond the runs is derived from them once, on first use,
//! and kept in the same `DenseSchedule`:
//!
//! * the three rules' predecessor masks (up to 64 transactions), for CSR,
//!   MVCSR (Theorem 1) and DMVSR, and two more rows, the [`Forced`] arcs
//!   every serialization respects, on which VSR and MVSR refute before
//!   they search — and which are the search's precedence edges;
//! * the MVCG's removal order ([`DenseSchedule::mvcg`]): Kahn's pass runs
//!   once, and decides MVCSR and hands MVSR its certificate candidate;
//! * the search tables ([`Tables`]) for the serialization search of VSR and
//!   MVSR ([`crate::serialization`]): per transaction its reads — each with
//!   `own`, its `avail` mask and its *standard source*, the last writer
//!   before it — and its first writes, and per entity the standard final
//!   writer and the mask of its writers.  Only a search builds them.
//!
//! A standalone test pays for what it reads; [`crate::taxonomy::classify`]
//! builds one index for all six verdicts, so the runs, the masks, the MVCG
//! order and the tables are built at most once per call.  Nothing on the
//! decision path hashes, formats a label or builds a [`DiGraph`].
//!
//! The index is a per-thread workspace ([`with_dense`]): each call refills
//! the thread's one `DenseSchedule` in place, so its tables, masks, search
//! buffers and memo keep their capacity from call to call and a classifier
//! call on a small schedule allocates nothing.  A call made while the
//! workspace is in use — DMVSR's fallback to `is_mvsr` on the patched
//! schedule — builds a fresh one, and a buffer grown past [`RETAINED`] by
//! a long history is freed when its call ends.
//!
//! Within an entity's run an earlier step puts an arc from its transaction
//! to a later step's, never to itself, when the pair conflicts under a
//! [`Rule`].  Up to 64 transactions one sweep of each run yields the `u64`
//! predecessor masks of all three rules and the forced rows, and Kahn's
//! pass removes the nodes left without a predecessor from them round by
//! round; beyond, the arcs of the one rule asked are enumerated pair by
//! pair for Kahn's in-degree pass.  Either way the pass returns the order
//! it removed the nodes in: all of them iff the graph is acyclic, and then
//! a topological order, which the MVSR test checks as a candidate
//! serialization on the runs.  The labelled graphs (`conflict_graph`,
//! `mv_conflict_graph`) and the witnesses read the same arcs.

use crate::serialization::SearchBuffers;
use mvcc_core::{EntityId, Schedule, TxId};
use mvcc_graph::{DiGraph, NodeId};
use std::cell::{Cell, OnceCell};
use std::collections::HashMap;

/// In the dense tables: no transaction — the initial version as a read's
/// source, nobody as an entity's writer.
pub(crate) const NONE: u32 = u32::MAX;

/// The most bytes one buffer of the per-thread workspace keeps once its
/// call ends: enough for every table of a schedule of about a thousand
/// steps, so the workspace of a thread that once audited a 200 000-step
/// history holds kilobytes, not megabytes.
pub(crate) const RETAINED: usize = 64 << 10;

/// A buffer of the workspace: its capacity, and a way to free it.
pub(crate) trait Buffer {
    /// Capacity in bytes.
    fn bytes(&self) -> usize;
    /// Frees the storage.
    fn release(&mut self);
}

impl<T> Buffer for Vec<T> {
    fn bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }

    fn release(&mut self) {
        *self = Vec::new();
    }
}

/// A part of the index derived on first use, whose storage outlives the
/// value: [`Derived::reset`] forgets the value and keeps its buffers for
/// the next build.
struct Derived<T> {
    value: OnceCell<T>,
    spare: Cell<Option<T>>,
}

impl<T> Default for Derived<T> {
    fn default() -> Self {
        Derived {
            value: OnceCell::new(),
            spare: Cell::new(None),
        }
    }
}

impl<T: Default> Derived<T> {
    /// The value, built on first use by `fill` in the storage of the last
    /// one (stale contents, which `fill` overwrites).
    fn get_or_fill(&self, fill: impl FnOnce(&mut T)) -> &T {
        self.value.get_or_init(|| {
            let mut value = self.spare.take().unwrap_or_default();
            fill(&mut value);
            value
        })
    }

    /// Forgets the value; its storage is kept.
    fn reset(&mut self) {
        if let Some(value) = self.value.take() {
            *self.spare.get_mut() = Some(value);
        }
    }

    /// The storage the last [`Derived::reset`] kept.
    fn storage(&mut self) -> Option<&mut T> {
        self.spare.get_mut().as_mut()
    }
}

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

/// Arcs every serialization must respect, whatever else it does: the
/// fixed arcs a search adds before its first node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Forced {
    /// MVSR's: a read that no write of its entity precedes, which only the
    /// initial version can serve, puts its reader before every other writer
    /// of the entity.
    Mvsr,
    /// VSR's, the fixed arcs of \[P79\]'s polygraph: MVSR's, plus each
    /// read's standard source before its reader, plus every other writer of
    /// an entity before the entity's final writer.
    Vsr,
}

/// One step, as the index sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    pub(crate) entity: EntityId,
    /// Position in the schedule.
    pub(crate) pos: u32,
    /// Dense number of the step's transaction.
    pub(crate) node: u32,
    pub(crate) write: bool,
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
#[derive(Default)]
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
    /// Scratch of the build: per transaction, where its next read goes
    /// and the last run (entity number + 1) in which it wrote the entity.
    cursor: Vec<(u32, u32)>,
}

impl Tables {
    fn buffers(&mut self, f: &mut dyn FnMut(&mut dyn Buffer)) {
        f(&mut self.reads);
        f(&mut self.writes);
        f(&mut self.groups);
        f(&mut self.final_writer);
        f(&mut self.writers);
        f(&mut self.cursor);
    }

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

/// Up to 64 transactions: the predecessor masks of the three rules and of
/// the forced arcs.
#[derive(Default)]
struct Masks {
    /// Per transaction, its predecessors under [`Rule::Sv`], [`Rule::Mv`]
    /// and [`Rule::Patched`], then under [`Forced::Mvsr`] and
    /// [`Forced::Vsr`].
    preds: Vec<[u64; 5]>,
    /// Whether some transaction writes an entity twice.
    rewrites: bool,
    /// Whether some read follows its transaction's own write of the entity
    /// but its standard source is another transaction's: serially the read
    /// sees the own write, so no serial order gives it its standard source.
    own_elsewhere: bool,
}

/// Kahn's pass on masks over the `n ≤ 64` nodes whose predecessors `pred`
/// gives: removes the nodes left without a remaining predecessor, round by
/// round, calling `removed` on each, and returns the nodes it could not
/// remove — a cycle is what is left when no node can go.
fn peel(n: usize, pred: impl Fn(usize) -> u64, mut removed: impl FnMut(u32)) -> u64 {
    let mut left = if n == 64 { u64::MAX } else { (1 << n) - 1 };
    while left != 0 {
        let (mut rest, mut free) = (left, 0);
        while rest != 0 {
            let v = rest.trailing_zeros();
            rest &= rest - 1;
            if pred(v as usize) & left == 0 {
                free |= 1 << v;
                removed(v);
            }
        }
        if free == 0 {
            break;
        }
        left &= !free;
    }
    left
}

/// Transaction id → dense number: open addressing with linear probing, at
/// most half full, so numbering a step is one multiply and a probe or two.
#[derive(Default)]
struct TxNumbers {
    /// `(id, number)`; a number of [`NONE`] marks an empty slot.
    slots: Vec<(TxId, u32)>,
}

impl TxNumbers {
    /// Empties the table, with room for `n` transactions.
    fn reset(&mut self, n: usize) {
        self.slots.clear();
        self.slots
            .resize((2 * n).next_power_of_two().max(2), (TxId(0), NONE));
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
/// many bytes as the largest id has, through `spare`.  Each pass sums the
/// counts only up to its largest digit: over 8 entities, 8 buckets of 256.
fn sort_by_entity(accesses: &mut Vec<Access>, spare: &mut Vec<Access>) {
    let largest = accesses.iter().map(|a| a.entity.0).max().unwrap_or(0);
    spare.clear();
    spare.extend_from_slice(accesses);
    let mut next = [0u32; 257];
    let mut shift = 0;
    loop {
        let top = (largest >> shift).min(0xff) as usize;
        let digit = |a: &Access| (a.entity.0 >> shift) as usize & 0xff;
        next[..top + 2].fill(0);
        for access in accesses.iter() {
            next[digit(access) + 1] += 1;
        }
        for d in 0..top {
            next[d + 1] += next[d];
        }
        for access in accesses.iter() {
            let slot = &mut next[digit(access)];
            spare[*slot as usize] = *access;
            *slot += 1;
        }
        std::mem::swap(accesses, spare);
        shift += 8;
        if shift == 32 || largest >> shift == 0 {
            return;
        }
    }
}

thread_local! {
    /// This thread's workspace between two calls of [`with_dense`]; empty
    /// while a call uses it.
    static WORKSPACE: Cell<Option<Box<DenseSchedule>>> = const { Cell::new(None) };
}

/// Runs `f` on the dense index of `schedule`, built in this thread's
/// workspace: the index of the previous call is refilled in place, so its
/// buffers are reused, not reallocated.  A call nested in another finds
/// the workspace taken and builds a fresh one.  When `f` returns, the
/// derived parts are forgotten and every buffer over [`RETAINED`] bytes is
/// freed before the workspace goes back.
pub(crate) fn with_dense<R>(schedule: &Schedule, f: impl FnOnce(&DenseSchedule) -> R) -> R {
    let mut dense: Box<DenseSchedule> = WORKSPACE
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_default();
    dense.refill(schedule);
    let out = f(&dense);
    dense.reset();
    dense.buffers(&mut |buffer| {
        if buffer.bytes() > RETAINED {
            buffer.release();
        }
    });
    // At thread exit there is no workspace to return it to.
    let _ = WORKSPACE.try_with(|slot| slot.set(Some(dense)));
    out
}

/// The capacities, in bytes, of the buffers of this thread's workspace
/// (none while a call uses it).
#[cfg(test)]
pub(crate) fn workspace_buffers() -> Vec<usize> {
    let mut bytes = Vec::new();
    if let Some(mut dense) = WORKSPACE.with(Cell::take) {
        dense.buffers(&mut |buffer| bytes.push(buffer.bytes()));
        WORKSPACE.with(|slot| slot.set(Some(dense)));
    }
    bytes
}

/// A schedule over dense numbers: what every classifier reads.
#[derive(Default)]
pub(crate) struct DenseSchedule {
    /// Transaction of each dense number (by first appearance).
    pub(crate) tx_ids: Vec<TxId>,
    tx_numbers: TxNumbers,
    /// Every step, sorted by (entity, position): each entity's steps form
    /// one run.
    accesses: Vec<Access>,
    /// The radix sort's second buffer.
    spare: Vec<Access>,
    /// Whether every transaction's steps are contiguous.
    pub(crate) serial: bool,
    masks: Derived<Masks>,
    mvcg: Derived<Vec<u32>>,
    tables: Derived<Tables>,
    /// The serialization search's buffers and memo between two searches:
    /// a search takes them and gives them back when it is dropped.
    pub(crate) search: Cell<SearchBuffers>,
}

impl DenseSchedule {
    /// A fresh index of `schedule`, outside the workspace.
    #[cfg(test)]
    pub(crate) fn of(schedule: &Schedule) -> Self {
        let mut dense = DenseSchedule::default();
        dense.refill(schedule);
        dense
    }

    /// Makes this the index of `schedule`, in the storage it has.
    fn refill(&mut self, schedule: &Schedule) {
        let steps = schedule.steps();
        self.reset();
        self.tx_numbers.reset(steps.len());
        self.tx_ids.clear();
        self.accesses.clear();
        let mut serial = true;
        for (pos, step) in steps.iter().enumerate() {
            let slot = self.tx_numbers.slot(step.tx);
            let (id, node) = &mut self.tx_numbers.slots[slot];
            if *node == NONE {
                *id = step.tx;
                *node = self.tx_ids.len() as u32;
                self.tx_ids.push(step.tx);
            }
            // Numbered by first appearance, a serial schedule only ever
            // steps the newest transaction.
            serial &= *node as usize + 1 == self.tx_ids.len();
            self.accesses.push(Access {
                entity: step.entity,
                pos: pos as u32,
                node: *node,
                write: step.is_write(),
            });
        }
        sort_by_entity(&mut self.accesses, &mut self.spare);
        self.serial = serial;
    }

    /// Forgets what was derived from the runs, keeping its storage.
    fn reset(&mut self) {
        self.masks.reset();
        self.mvcg.reset();
        self.tables.reset();
    }

    /// Calls `f` on every buffer the index keeps, once it is reset.
    fn buffers(&mut self, f: &mut dyn FnMut(&mut dyn Buffer)) {
        f(&mut self.tx_ids);
        f(&mut self.tx_numbers.slots);
        f(&mut self.accesses);
        f(&mut self.spare);
        if let Some(masks) = self.masks.storage() {
            f(&mut masks.preds);
        }
        if let Some(order) = self.mvcg.storage() {
            f(order);
        }
        if let Some(tables) = self.tables.storage() {
            tables.buffers(f);
        }
        self.search.get_mut().buffers(f);
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
    pub(crate) fn runs(&self) -> impl Iterator<Item = &[Access]> {
        let mut rest = &self.accesses[..];
        std::iter::from_fn(move || {
            let entity = rest.first()?.entity;
            let (run, tail) = rest.split_at(rest.partition_point(|a| a.entity == entity));
            rest = tail;
            Some(run)
        })
    }

    /// Whether the search tables have been built.
    #[cfg(test)]
    pub(crate) fn tables_built(&self) -> bool {
        self.tables.value.get().is_some()
    }

    /// The search tables, built from the runs on first use: one counting
    /// pass for the group sizes, then one sweep that keeps, per run, the
    /// transactions that wrote the entity so far and its last writer.
    pub(crate) fn tables(&self) -> &Tables {
        self.tables.get_or_fill(|tables| {
            let Tables {
                reads,
                writes,
                groups,
                final_writer,
                writers: writers_of,
                cursor,
            } = tables;
            let n = self.txs();
            groups.clear();
            groups.resize(n + 1, Group::default());
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
            for group in groups.iter_mut() {
                group.writes_end = group.writes;
            }
            reads.clear();
            reads.resize(groups[n].reads as usize, Read::default());
            // Room for every write; only first writes are kept.
            writes.clear();
            writes.resize(groups[n].writes as usize, FirstWrite::default());
            final_writer.clear();
            final_writer.resize(entities, NONE);
            writers_of.clear();
            writers_of.resize(entities, 0);
            cursor.clear();
            cursor.extend(groups[..n].iter().map(|g| (g.reads, 0)));
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

    /// Up to 64 transactions: the predecessor masks of all three rules and
    /// of the forced arcs, in one sweep of each run that keeps the
    /// transactions seen so far, the writers, the readers, the patched
    /// readers, the readers no write precedes and the last writer.
    fn masks(&self) -> &Masks {
        self.masks.get_or_fill(|masks| {
            let preds = &mut masks.preds;
            preds.clear();
            preds.resize(self.txs(), [0; 5]);
            let (mut rewrites, mut own_elsewhere) = (false, false);
            for run in self.runs() {
                let (mut seen, mut writers, mut readers, mut patched) = (0u64, 0u64, 0u64, 0u64);
                // The readers only the initial version can serve.
                let mut initial = 0u64;
                let mut last = NONE;
                for step in run {
                    let me = 1u64 << step.node;
                    let pred = &mut preds[step.node as usize];
                    if step.write {
                        pred[0] |= seen & !me;
                        pred[1] |= readers & !me;
                        pred[2] |= patched & !me;
                        // No write precedes those readers, so they are all
                        // in by the run's first write.
                        pred[3] |= initial & !me;
                        pred[4] |= initial & !me;
                        rewrites |= writers & me != 0;
                        writers |= me;
                        last = step.node;
                        // The patching's read, right before a first access.
                        if seen & me == 0 {
                            patched |= me;
                        }
                    } else {
                        pred[0] |= writers & !me;
                        readers |= me;
                        patched |= me;
                        if last == NONE {
                            initial |= me;
                        } else if writers & me == 0 {
                            // The standard source precedes the reader.
                            pred[4] |= 1 << last;
                        } else {
                            own_elsewhere |= last != step.node;
                        }
                    }
                    seen |= me;
                }
                // Under VSR every other writer precedes the final writer.
                if last != NONE {
                    preds[last as usize][4] |= writers & !(1 << last);
                }
            }
            masks.rewrites = rewrites;
            masks.own_elsewhere = own_elsewhere;
        })
    }

    /// Whether the [`Forced`] arcs refute every serial order up to 64
    /// transactions: they close a cycle, or, for VSR, a read's standard
    /// source is not its transaction's own earlier write.  Beyond 64 it
    /// answers `false` and leaves the question to the search, whose
    /// precedence check adds the same arcs.
    pub(crate) fn refuted_by(&self, forced: Forced) -> bool {
        let n = self.txs();
        if n > 64 {
            return false;
        }
        let masks = self.masks();
        let k = 3 + forced as usize;
        forced == Forced::Vsr && masks.own_elsewhere || peel(n, |v| masks.preds[v][k], |_| {}) != 0
    }

    /// Up to 64 transactions: each transaction's predecessors under the
    /// [`Forced`] arcs — the precedence edges the serialization search
    /// starts from, in dense order.
    pub(crate) fn forced_preds(&self, forced: Forced) -> impl Iterator<Item = u64> + '_ {
        let k = 3 + forced as usize;
        self.masks().preds.iter().map(move |pred| pred[k])
    }

    /// Up to 64 transactions: Kahn's pass on the masks of `rule`, calling
    /// `removed` on each node it removes, and the nodes it could not
    /// remove.  `None` when [`Rule::Patched`] meets a transaction writing
    /// an entity twice.
    fn peel_masks(&self, rule: Rule, removed: impl FnMut(u32)) -> Option<u64> {
        let masks = self.masks();
        if rule == Rule::Patched && masks.rewrites {
            return None;
        }
        let k = rule as usize;
        Some(peel(self.txs(), |v| masks.preds[v][k], removed))
    }

    /// The MVCG's removal order, from one Kahn pass kept in the index: the
    /// transactions (dense numbers) in the order the pass removed them,
    /// all of them iff the MVCG is acyclic (Theorem 1) — then a
    /// topological order, Theorem 3's certificate candidate.
    pub(crate) fn mvcg(&self) -> &[u32] {
        self.mvcg.get_or_fill(|order| {
            order.clear();
            self.removal_order(Rule::Mv, order);
        })
    }

    /// Kahn's pass over the graph of `rule`'s arcs: pushes onto `order` the
    /// transactions (dense numbers) in the order it removes them, every one
    /// of them iff the graph is acyclic — then a topological order.
    /// `false` when [`Rule::Patched`] meets a transaction writing an entity
    /// twice.
    fn removal_order(&self, rule: Rule, order: &mut Vec<u32>) -> bool {
        let n = self.txs();
        if n <= 64 {
            return self.peel_masks(rule, |v| order.push(v)).is_some();
        }
        let mut arcs: Vec<(u32, u32)> = Vec::new();
        if !self.for_each_arc(rule, |from, to| arcs.push((from.node, to.node))) {
            return false;
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
        true
    }

    /// Whether the graph of `rule`'s arcs is acyclic: Kahn's pass removes
    /// every transaction ([`DenseSchedule::removal_order`]; on the masks
    /// without keeping the order).  `None` when [`Rule::Patched`] meets a
    /// transaction writing an entity twice.  The MVCG's pass is
    /// [`DenseSchedule::mvcg`], kept for the MVSR test.
    pub(crate) fn acyclic(&self, rule: Rule) -> Option<bool> {
        if self.txs() <= 64 {
            return self.peel_masks(rule, |_| {}).map(|left| left == 0);
        }
        let mut order = Vec::new();
        self.removal_order(rule, &mut order)
            .then(|| order.len() == self.txs())
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
    let tx_of_node = with_dense(schedule, |dense| {
        dense.for_each_arc(rule, |earlier, later| {
            pairs.push((earlier.pos, later.pos, earlier.node, later.node));
        });
        dense.tx_ids.clone()
    });
    pairs.sort_unstable();
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
