//! The common currency of the NP-complete classifiers: serializing
//! READ-FROM maps.
//!
//! For a schedule `s` of a transaction system `τ` and a *serial order* `r`
//! (a permutation of the transactions of `τ`), the standard version function
//! of the serial schedule induced by `r` determines, for every read step of
//! `τ`, the transaction it reads from.  A serial order is a **serialization**
//! of `s` (in the multiversion sense) iff that induced read-from assignment
//! is *realizable* in `s`: every read can be served the required version,
//! i.e. the required writer's write precedes the read in `s` (the initial
//! version and a transaction's own earlier writes are always available).
//!
//! * `s` is **MVSR** iff it has at least one serialization
//!   (see [`crate::mvsr`]).
//! * `s` is **VSR** iff some serialization's read-from assignment coincides
//!   with the *standard* read-froms of `s` and the final writers also match
//!   (see [`crate::vsr`]).
//! * A set of schedules is **OLS** iff, for every common prefix, the
//!   restrictions of the serializing assignments intersect
//!   (see `mvcc-reductions::ols`).
//!
//! All three are clients of the one search in this module (`SearchEngine`),
//! which reads the schedule's dense index (`arcs.rs`): serial orders
//! are grown one transaction at a time, a placement is checked against the
//! reads it determines, failed states are memoized, and what is required —
//! nothing for MVSR, the standard read-froms plus the final writers for
//! VSR, a committed prefix's read-from map for the OLS and scheduler
//! callers — becomes dense pins on the reads, which turn into precedence
//! edges, an up-front cycle check and forward-check propagation.  A failed
//! state is memoized on its placed set and on which unplaced reads the
//! current last writers serve, an exact key of fixed width (see
//! `SearchEngine::enter`).  There is no second search anywhere in the
//! crate.

use crate::arcs::{DenseSchedule, Read, Tables, NONE};
use mvcc_core::{Schedule, TransactionSystem, TxId, VersionFunction, VersionSource};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The read-from assignment induced by running the transaction system
/// serially in order `order`, expressed per read step *position of `s`*.
///
/// Also records, per entity, the final writer under `order` (used by the VSR
/// check, where the final state must match).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialReadFroms {
    /// The serial order of transactions.
    pub order: Vec<TxId>,
    /// For each read position of `s`: the version source the serial order
    /// makes that read observe.
    pub read_sources: HashMap<usize, VersionSource>,
    /// For each entity (by id): the last writer under the serial order, or
    /// `None` when nobody writes it.
    pub final_writers: HashMap<mvcc_core::EntityId, Option<TxId>>,
}

impl SerialReadFroms {
    /// Converts this assignment into a full [`VersionFunction`] for `s`
    /// (final reads assigned to the serial order's final writers).
    pub fn to_version_function(&self, s: &Schedule) -> VersionFunction {
        let mut vf = VersionFunction::new();
        for (&pos, &src) in &self.read_sources {
            vf.assign(pos, src);
        }
        for entity in s.entities_accessed() {
            let src = match self.final_writers.get(&entity) {
                Some(Some(tx)) => VersionSource::Tx(*tx),
                _ => VersionSource::Initial,
            };
            vf.assign_final(entity, src);
        }
        vf
    }
}

/// Computes the read-from assignment that the serial order `order` induces
/// on the reads of `s`, without checking realizability.
pub fn serial_read_froms(s: &Schedule, order: &[TxId]) -> SerialReadFroms {
    let sys = s.tx_system();
    serial_read_froms_of_system(s, &sys, order)
}

/// As [`serial_read_froms`], with the transaction system passed explicitly
/// (avoids recomputing it in hot loops).
pub fn serial_read_froms_of_system(
    s: &Schedule,
    sys: &TransactionSystem,
    order: &[TxId],
) -> SerialReadFroms {
    let pos_in_order: HashMap<TxId, usize> =
        order.iter().enumerate().map(|(i, &t)| (t, i)).collect();

    // For every entity, the writers in serial-order position order.
    let mut writers_by_entity: HashMap<mvcc_core::EntityId, Vec<(usize, TxId)>> = HashMap::new();
    for tx in sys.transactions() {
        if let Some(&p) = pos_in_order.get(&tx.id) {
            for e in tx.write_set() {
                writers_by_entity.entry(e).or_default().push((p, tx.id));
            }
        }
    }
    for v in writers_by_entity.values_mut() {
        v.sort();
    }

    // Per-transaction program-order index of each step of `s`.
    let mut step_index_within_tx: HashMap<TxId, usize> = HashMap::new();
    let mut read_sources = HashMap::new();

    for (pos, step) in s.steps().iter().enumerate() {
        let idx = step_index_within_tx.entry(step.tx).or_insert(0);
        let my_index = *idx;
        *idx += 1;
        if !step.is_read() {
            continue;
        }
        // Does the reading transaction itself write the entity earlier in
        // program order?  Then, serially, it reads its own latest version.
        let own_earlier_write = sys.get(step.tx).is_some_and(|t| {
            t.accesses[..my_index]
                .iter()
                .any(|&(a, e)| a.is_write() && e == step.entity)
        });
        let source = if own_earlier_write {
            VersionSource::Tx(step.tx)
        } else {
            // The last transaction strictly before `step.tx` in the serial
            // order that writes the entity.
            let my_order_pos = pos_in_order.get(&step.tx).copied();
            match my_order_pos {
                None => VersionSource::Initial,
                Some(my_pos) => writers_by_entity
                    .get(&step.entity)
                    .and_then(|ws| {
                        ws.iter()
                            .rev()
                            .find(|&&(p, w)| p < my_pos && w != step.tx)
                            .map(|&(_, w)| VersionSource::Tx(w))
                    })
                    .unwrap_or(VersionSource::Initial),
            }
        };
        read_sources.insert(pos, source);
    }

    let mut final_writers = HashMap::new();
    for entity in s.entities_accessed() {
        let w = writers_by_entity
            .get(&entity)
            .and_then(|ws| ws.last().map(|&(_, t)| t));
        final_writers.insert(entity, w);
    }

    SerialReadFroms {
        order: order.to_vec(),
        read_sources,
        final_writers,
    }
}

/// `true` if the read-from assignment `rf` is *realizable* in `s`: every
/// read can actually be served the required version, i.e. the required
/// writer has a write of that entity earlier in `s` (initial versions and a
/// transaction's own earlier writes are always available).
pub fn is_realizable(s: &Schedule, rf: &SerialReadFroms) -> bool {
    for (&pos, &src) in &rf.read_sources {
        let step = s.steps()[pos];
        match src {
            VersionSource::Initial => {}
            VersionSource::Tx(writer) if writer == step.tx => {
                // Own earlier write: guaranteed by program order.
            }
            VersionSource::Tx(writer) => {
                let available = s.steps()[..pos]
                    .iter()
                    .any(|w| w.is_write() && w.entity == step.entity && w.tx == writer);
                if !available {
                    return false;
                }
            }
        }
    }
    true
}

/// Enumerates every serialization of `s`: every permutation of its
/// transactions whose induced read-from assignment is realizable in `s`.
///
/// The search places transactions one at a time and prunes as soon as a
/// placed transaction's reads become unrealizable, which keeps the search
/// far below `n!` on most inputs (but necessarily exponential in the worst
/// case).  Set `limit` to stop early after that many serializations have
/// been found (`None` enumerates all).
pub fn serializations(s: &Schedule, limit: Option<usize>) -> Vec<SerialReadFroms> {
    serializations_extending(s, &HashMap::new(), limit)
}

/// Enumerates serializations of `s` whose induced read-from assignment agrees
/// with `required` on every read position `required` mentions.  This is the
/// work-horse of the greedy "maximal" scheduler and of Lemma 1/2 style
/// completability checks: with `limit = Some(1)` it decides, with pruning,
/// whether a prefix with committed read-froms still has a serializable
/// completion.
pub fn serializations_extending(
    s: &Schedule,
    required: &HashMap<usize, VersionSource>,
    limit: Option<usize>,
) -> Vec<SerialReadFroms> {
    // The search deals in serial orders only; the read-from assignment of
    // each is spelled out here, for the callers that return it.
    let orders = serial_orders(&DenseSchedule::of(s), Required::Map(required), limit);
    let sys = s.tx_system();
    orders
        .iter()
        .map(|order| serial_read_froms_of_system(s, &sys, order))
        .collect()
}

/// What a search requires of the serial orders it returns.
#[derive(Clone, Copy)]
pub(crate) enum Required<'r> {
    /// Nothing: the MVSR question.
    Nothing,
    /// Every read its standard source and every entity its final writer in
    /// the schedule: the VSR question.
    Standard,
    /// The source a caller's map names for each read position it mentions.
    Map(&'r HashMap<usize, VersionSource>),
}

/// The serial orders, in search order and at most `limit` of them, behind
/// every entry point of this module, [`crate::mvsr`] and [`crate::vsr`].
pub(crate) fn serial_orders(
    dense: &DenseSchedule,
    required: Required<'_>,
    limit: Option<usize>,
) -> Vec<Vec<TxId>> {
    let mut engine = SearchEngine::new(dense, limit);
    engine.require(required);
    if !engine.infeasible {
        engine.dfs(0);
    }
    engine.out
}

/// `true` iff `s` has at least one serialization agreeing with `required`.
pub fn has_serialization_extending(s: &Schedule, required: &HashMap<usize, VersionSource>) -> bool {
    !serial_orders(&DenseSchedule::of(s), Required::Map(required), Some(1)).is_empty()
}

/// As [`has_serialization_extending`], but giving up after `node_budget`
/// search nodes: `Some(answer)` when the search settled the question in
/// budget, `None` when it ran out.  Lets callers with many candidate maps
/// probe them all cheaply first (a feasible map is usually found in a
/// handful of nodes, while a refutation may need exhaustive search) and fall
/// back to full searches only when every probe was inconclusive.
pub fn has_serialization_extending_budgeted(
    s: &Schedule,
    required: &HashMap<usize, VersionSource>,
    node_budget: u64,
) -> Option<bool> {
    let dense = DenseSchedule::of(s);
    let mut engine = SearchEngine::new(&dense, Some(1));
    engine.require(Required::Map(required));
    if engine.infeasible {
        return Some(false);
    }
    engine.budget = node_budget;
    engine.dfs(0);
    if !engine.out.is_empty() {
        Some(true)
    } else if engine.budget_exhausted {
        None
    } else {
        Some(false)
    }
}

/// Enumerates the distinct restrictions to the first `prefix_len` steps of
/// the read-from assignments induced by the serializations of `s` — without
/// enumerating the serializations themselves.
///
/// The serializations of a schedule can be factorially many (any group of
/// commuting transactions permutes freely), but their *restrictions* to a
/// prefix are few: one per achievable assignment of sources to the prefix's
/// reads.  The search explores serial orders only until every transaction
/// reading inside the prefix has been placed (at which point the restriction
/// is fully determined), validates each *new* restriction with a single
/// memoized completability check, and dedups revisited search states.  This
/// is what makes the OLS checker of `mvcc-reductions` feasible on
/// Theorem 4/5 instances whose transaction count rules out enumeration.
///
/// The result is empty iff `s` has no serialization at all (i.e. `s` is not
/// MVSR); a schedule with no reads in the prefix yields the singleton set
/// containing the empty restriction.
pub fn achievable_prefix_restrictions(
    s: &Schedule,
    prefix_len: usize,
) -> BTreeSet<BTreeMap<usize, VersionSource>> {
    achievable_prefix_restrictions_bounded(s, prefix_len, None)
}

/// As [`achievable_prefix_restrictions`], stopping after `max` distinct
/// restrictions have been found (useful when the caller only needs to know
/// whether there are zero, one, or several).
pub fn achievable_prefix_restrictions_bounded(
    s: &Schedule,
    prefix_len: usize,
    max: Option<usize>,
) -> BTreeSet<BTreeMap<usize, VersionSource>> {
    let dense = DenseSchedule::of(s);
    let prefix_len = prefix_len.min(s.len());

    if dense.txs() > 128 {
        // Beyond the bitmask the dedup machinery does not apply; fall back
        // to projecting plain enumeration (instances this big are out of
        // reach for every exact NP checker in this crate anyway).  `max` is
        // honored with a growing enumeration limit, so a small bound stops
        // long before the (potentially factorial) full enumeration.
        let mut limit = max.unwrap_or(usize::MAX).max(1);
        loop {
            let sers = serializations(
                s,
                if limit == usize::MAX {
                    None
                } else {
                    Some(limit)
                },
            );
            let exhausted = sers.len() < limit;
            let out: BTreeSet<_> = sers
                .into_iter()
                .map(|rf| {
                    rf.read_sources
                        .iter()
                        .filter(|(&pos, _)| pos < prefix_len)
                        .map(|(&pos, &src)| (pos, src))
                        .collect()
                })
                .collect();
            let satisfied = max.is_some_and(|m| out.len() >= m);
            if exhausted || satisfied {
                return out;
            }
            limit = limit.saturating_mul(2);
        }
    }

    // Transactions that read inside the prefix: the restriction is fully
    // determined exactly when all of them have been placed.
    let tables = dense.tables();
    let readers_remaining = (0..dense.txs())
        .filter(|&t| {
            tables.reads[tables.reads_of(t)]
                .iter()
                .any(|r| (r.pos as usize) < prefix_len)
        })
        .count();

    let mut engine = SearchEngine::new(&dense, None);
    let mut walk = RestrictionWalk {
        max,
        restriction: vec![FREE; prefix_len],
        visited: StateSet::default(),
        found: StateSet::default(),
    };
    engine.restriction_dfs(&mut walk, readers_remaining, 0, 0);
    walk.found
        .iter()
        .map(|restriction| {
            restriction
                .iter()
                .enumerate()
                .filter(|&(_, &src)| src != FREE)
                .map(|(pos, &src)| (pos, engine.source(src)))
                .collect()
        })
        .collect()
}

/// A read that no requirement pins (and, in a prefix restriction, a
/// position that holds no placed read).
const FREE: u32 = u32::MAX - 1;
/// A read pinned to a version no serial order can serve it: a writer the
/// schedule does not contain, or the reader's own *later* write.
const UNSERVABLE: u32 = u32::MAX - 2;

fn bit(i: usize) -> u128 {
    1 << i
}

/// Hasher of the search-state sets.  Their keys are tuples of small integers
/// the search itself builds, a few machine words each, looked up once per
/// node: the default SipHash cost more than the rest of a node.
#[derive(Default)]
struct StateHasher(u64);

impl StateHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for StateHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        // The multiplication mixes upwards only; the table indexes with the
        // low bits.
        self.0.rotate_left(26)
    }
}

type StateSet<K> = HashSet<K, BuildHasherDefault<StateHasher>>;

/// The dead search states: keys of one fixed width (see
/// [`SearchEngine::enter`]) stored back to back and found by open
/// addressing, so neither a lookup nor an insertion allocates per key.
struct DeadSet {
    /// Words per key.
    width: usize,
    /// The keys, back to back.
    keys: Vec<u64>,
    /// A power-of-two table of key numbers plus one (0: an empty slot),
    /// at most half full.
    slots: Vec<u32>,
}

impl DeadSet {
    fn new(width: usize) -> Self {
        DeadSet {
            width,
            keys: Vec::with_capacity(16 * width),
            slots: Vec::new(),
        }
    }

    /// The first slot to probe for `key` in a table of `mask + 1` slots.
    fn home(key: &[u64], mask: usize) -> usize {
        let mut hasher = StateHasher::default();
        key.iter().for_each(|&word| hasher.mix(word));
        hasher.finish() as usize & mask
    }

    /// The slot holding `key`, or the empty slot where it would go.
    fn slot(&self, key: &[u64]) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(key, mask);
        while let Some(k) = self.slots[i].checked_sub(1) {
            let at = k as usize * self.width;
            if self.keys[at..at + self.width] == *key {
                break;
            }
            i = (i + 1) & mask;
        }
        i
    }

    fn contains(&self, key: &[u64]) -> bool {
        !self.slots.is_empty() && self.slots[self.slot(key)] != 0
    }

    fn insert(&mut self, key: &[u64]) {
        let len = self.keys.len() / self.width;
        if 2 * (len + 1) > self.slots.len() {
            let mut slots = vec![0u32; (2 * self.slots.len()).max(32)];
            let mask = slots.len() - 1;
            for (k, old) in self.keys.chunks_exact(self.width).enumerate() {
                let mut i = Self::home(old, mask);
                while slots[i] != 0 {
                    i = (i + 1) & mask;
                }
                slots[i] = k as u32 + 1;
            }
            self.slots = slots;
        }
        let i = self.slot(key);
        if self.slots[i] == 0 {
            self.keys.extend_from_slice(key);
            self.slots[i] = len as u32 + 1;
        }
    }
}

/// The search state over a [`DenseSchedule`].  Transactions are tried by
/// their dense number, i.e. by first appearance in `s`: serial witnesses of
/// near-serial and reduction-generated schedules correlate strongly with
/// schedule order, so the search finds them with little backtracking.
struct SearchEngine<'d> {
    dense: &'d DenseSchedule,
    tables: &'d Tables,
    limit: Option<usize>,
    /// The partial serial order, the last placed writer of each entity
    /// ([`NONE`] before any), and the entries `last_writer` held before the
    /// placements on the current path overwrote them.
    order: Vec<u32>,
    last_writer: Vec<u32>,
    undo: Vec<u32>,
    /// The serial orders found so far.
    out: Vec<Vec<TxId>>,
    /// Per read of the dense schedule: the source a requirement pins it to
    /// (a transaction's dense number, or [`NONE`] for the initial version),
    /// [`UNSERVABLE`], or [`FREE`].  Always `FREE` where the read is `own`.
    pins: Vec<u32>,
    /// States with no acceptable completion.  Only populated while the
    /// transaction count fits the bitmask; beyond that the search still
    /// runs, just without memoization.
    dead: DeadSet,
    /// The memo keys of the states on the current path, `dead.width` words
    /// each.
    path: Vec<u64>,
    /// Hard precedence constraints derived from the pins: `pred[i]` is the
    /// set of transactions that must precede transaction `i` in every
    /// acceptable serial order.  All empty unless something is required.
    pred: Vec<u128>,
    /// Set when the precedence constraints are cyclic, or a read served by
    /// its transaction's own earlier write is pinned elsewhere: no serial
    /// order satisfies the requirement at all.
    infeasible: bool,
    /// When set, only orders whose last writer of every entity is exactly
    /// this table are explored (see [`SearchEngine::require`]).
    final_writers: Option<&'d [u32]>,
    /// Remaining search-node budget (`u64::MAX` = unbounded).  When it runs
    /// out the search unwinds without an answer and sets
    /// `budget_exhausted`; dead-state memos recorded so far stay valid.
    budget: u64,
    /// Whether the last run was cut short by the node budget.
    budget_exhausted: bool,
}

/// Outcome of a search subtree.
enum Dfs {
    /// The limit was reached; unwind immediately.
    Stop,
    /// At least one serialization was emitted below this node.
    FoundSome,
    /// The subtree was exhausted without emitting anything.
    Nothing,
}

#[cfg(test)]
thread_local! {
    /// Nodes [`SearchEngine::dfs`] visited on this thread: lets tests tell
    /// whether a classifier ran the search at all.
    pub(crate) static NODES_VISITED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl<'d> SearchEngine<'d> {
    fn new(dense: &'d DenseSchedule, limit: Option<usize>) -> Self {
        let n = dense.txs();
        let tables = dense.tables();
        // The memo key: the placed set, then a bit per read.
        let width = 2 + tables.reads.len().div_ceil(64);
        SearchEngine {
            dense,
            tables,
            limit,
            order: Vec::with_capacity(n),
            last_writer: vec![NONE; tables.entities()],
            undo: Vec::new(),
            out: Vec::new(),
            pins: vec![FREE; tables.reads.len()],
            dead: DeadSet::new(width),
            path: Vec::with_capacity((n + 1) * width),
            pred: vec![0; n],
            infeasible: false,
            final_writers: None,
            budget: u64::MAX,
            budget_exhausted: false,
        }
    }

    /// The version source a dense source number stands for.
    fn source(&self, number: u32) -> VersionSource {
        if number == NONE {
            VersionSource::Initial
        } else {
            VersionSource::Tx(self.dense.tx_ids[number as usize])
        }
    }

    /// Pins every read `required` names ([`SearchEngine::pins`]), which
    /// placement enforces and the forward check propagates — a read pinned
    /// to `Initial` dies as soon as any writer of its entity is placed
    /// before its reader, and a read pinned to `Tx(w)` dies as soon as `w`
    /// stops being the entity's last writer while the reader is still
    /// unplaced.  A caller's map is converted to the same dense pins the
    /// standard sources are.
    ///
    /// [`Required::Standard`] additionally requires the serial order's last
    /// writer of every entity to be the schedule's.  That condition is
    /// enforced at placement time (see [`SearchEngine::overwrites_a_final`]),
    /// so it holds beyond the bitmask too; within the bitmask it also
    /// becomes precedence edges — the final writer of `x` follows every
    /// other writer of `x` — so the cycle check and the candidate filter
    /// prune with it.
    fn require(&mut self, required: Required<'_>) {
        let (dense, tables) = (self.dense, self.tables);
        match required {
            Required::Nothing => return,
            Required::Map(map) if map.is_empty() => return,
            Required::Standard => self.final_writers = Some(&tables.final_writer),
            Required::Map(_) => {}
        }
        // The pinned source of a read, as a dense number, if any.
        let source_of = |read: &Read| match required {
            Required::Nothing => None,
            Required::Standard => Some(read.standard),
            Required::Map(map) => map.get(&(read.pos as usize)).map(|&src| match src {
                VersionSource::Initial => NONE,
                VersionSource::Tx(w) => dense.tx_number(w).unwrap_or(UNSERVABLE),
            }),
        };
        let n = dense.txs();
        for i in 0..n {
            for r in tables.reads_of(i) {
                let read = &tables.reads[r];
                let Some(src) = source_of(read) else {
                    continue;
                };
                if read.own {
                    // Serially the read sees its transaction's own earlier
                    // write, whatever the order.
                    self.infeasible |= src != i as u32;
                } else {
                    self.pins[r] = if src == i as u32 { UNSERVABLE } else { src };
                }
            }
        }
        if self.infeasible || n > 128 {
            return;
        }

        // Hard precedence edges: a read pinned to `Tx(w)` puts `w` before
        // its reader; a read pinned to `Initial` puts its reader before
        // every writer of the entity.  A cycle among these proves the
        // requirement unsatisfiable outright — this is exactly how the
        // Theorem 4/5 constructions encode polygraph arcs, so refutations
        // that would otherwise need exhaustive search fall out of a linear
        // check.
        let mut writers_of = vec![0u128; tables.entities()];
        for j in 0..n {
            for write in tables.writes_of(j) {
                writers_of[write.entity as usize] |= bit(j);
            }
        }
        for i in 0..n {
            for r in tables.reads_of(i) {
                match self.pins[r] {
                    FREE | UNSERVABLE => {}
                    NONE => {
                        let entity = tables.reads[r].entity as usize;
                        for j in (0..n).filter(|&j| j != i && writers_of[entity] & bit(j) != 0) {
                            self.pred[j] |= bit(i);
                        }
                    }
                    w => self.pred[i] |= bit(w as usize),
                }
            }
        }
        for (e, &last) in self.final_writers.iter().copied().flatten().enumerate() {
            if last != NONE {
                self.pred[last as usize] |= writers_of[e] & !bit(last as usize);
            }
        }

        // Kahn's algorithm: if the precedence graph has a cycle, no serial
        // order satisfies the requirement.
        let mut placed = 0u128;
        let mut progressed = true;
        let mut count = 0;
        while progressed {
            progressed = false;
            for i in 0..n {
                if placed & bit(i) == 0 && self.pred[i] & !placed == 0 {
                    placed |= bit(i);
                    count += 1;
                    progressed = true;
                }
            }
        }
        if count < n {
            self.infeasible = true;
        }
    }

    /// Makes transaction `i` the last writer of everything it writes,
    /// remembering what it overwrote.
    fn place(&mut self, i: usize) {
        for write in self.tables.writes_of(i) {
            let e = write.entity as usize;
            self.undo.push(self.last_writer[e]);
            self.last_writer[e] = i as u32;
        }
    }

    /// Undoes the latest [`SearchEngine::place`], which must have been of `i`.
    fn unplace(&mut self, i: usize) {
        let writes = self.tables.writes_of(i);
        let mark = self.undo.len() - writes.len();
        for (write, &old) in writes.iter().zip(&self.undo[mark..]) {
            self.last_writer[write.entity as usize] = old;
        }
        self.undo.truncate(mark);
    }

    /// For read `r`: the current last writer of its entity, whether that
    /// writer can serve the read (it is the initial version, or its first
    /// write precedes the read), and whether it *serves* it — can, and as
    /// the read's pin requires.
    fn serving(&self, r: usize, masked: bool) -> (u32, bool, bool) {
        let read = &self.tables.reads[r];
        let last = self.last_writer[read.entity as usize];
        let realizable = last == NONE
            || if masked {
                read.avail & bit(last as usize) != 0
            } else {
                self.tables
                    .first_write_before(last as usize, read.entity, read.pos)
            };
        let pin = self.pins[r];
        (last, realizable, realizable && (pin == FREE || pin == last))
    }

    /// Whether placing transaction `i` next would overwrite an entity whose
    /// required final writer is already placed.  No writer is ever placed
    /// over a required final writer, so "placed" and "still the last
    /// writer" coincide for it.
    fn overwrites_a_final(&self, i: usize) -> bool {
        self.final_writers.is_some_and(|named| {
            self.tables.writes_of(i).iter().any(|write| {
                let e = write.entity as usize;
                named[e] != NONE && named[e] != i as u32 && self.last_writer[e] == named[e]
            })
        })
    }

    /// Whether transaction `i` can be placed next: each of its own-less
    /// reads is served by the current last writer of its entity (placed
    /// now, the read sees that writer), and it overwrites no placed
    /// required final writer.
    fn can_place(&self, i: usize) -> bool {
        let masked = self.dense.txs() <= 128;
        !self.overwrites_a_final(i)
            && self
                .tables
                .reads_of(i)
                .all(|r| self.tables.reads[r].own || self.serving(r, masked).2)
    }

    /// Enters the state with placed set `used` (within the bitmask): pushes
    /// its memo key onto [`SearchEngine::path`] and returns the unplaced
    /// transactions whose reads the current last writers all serve — the
    /// candidates — or `None` for a dead state, which leaves nothing on
    /// the path: recorded as dead, or failing the forward check.
    ///
    /// The key is the placed set, then one bit per read of an unplaced
    /// transaction: whether the current last writer of its entity *serves*
    /// it ([`SearchEngine::serving`]).  That is exact.  Placed later, a
    /// transaction's read sees either a writer placed after now, which does
    /// not depend on the current last writers, or the current last writer,
    /// which is acceptable exactly when it serves the read; a required final
    /// writer is never overwritten, so "still the last writer" is "placed"
    /// for it; and the hard predecessors depend on the placed set alone.  So
    /// two states with one key have the same acceptable completions.  The
    /// forward check — every unplaced read must still be servable by *some*
    /// completion — runs in the same pass and leaves it at the first read
    /// that fails it; such a state is not recorded, since failing the check
    /// again costs no more than finding the key.
    fn enter(&mut self, used: u128) -> Option<u128> {
        let tables = self.tables;
        let n = self.dense.txs();
        let base = self.path.len();
        self.path.resize(base + self.dead.width, 0);
        self.path[base] = used as u64;
        self.path[base + 1] = (used >> 64) as u64;
        let all = if n == 128 { u128::MAX } else { bit(n) - 1 };
        let mut candidates = all & !used;
        let mut rest = candidates;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            for r in tables.reads_of(i) {
                let read = &tables.reads[r];
                if read.own {
                    continue;
                }
                let (last, realizable, served) = self.serving(r, true);
                if served {
                    self.path[base + 2 + r / 64] |= 1 << (r % 64);
                } else {
                    candidates &= !bit(i);
                }
                // Servable later: by an available writer still unplaced,
                // and (pin propagation) `Initial` is unreachable once any
                // writer was placed, and `Tx(w)` once `w` is placed but no
                // longer the last writer.
                let viable = (realizable || read.avail & !used != 0)
                    && match self.pins[r] {
                        FREE => true,
                        UNSERVABLE => false,
                        NONE => last == NONE,
                        w => used & bit(w as usize) == 0 || last == w,
                    };
                if !viable {
                    self.path.truncate(base);
                    return None;
                }
            }
        }
        if self.dead.contains(&self.path[base..]) {
            self.path.truncate(base);
            return None;
        }
        Some(candidates)
    }

    /// Leaves the state [`SearchEngine::enter`] entered last, recording it
    /// as dead when `dead`.
    fn leave(&mut self, dead: bool) {
        let base = self.path.len() - self.dead.width;
        if dead {
            self.dead.insert(&self.path[base..]);
        }
        self.path.truncate(base);
    }

    fn dfs(&mut self, used: u128) -> Dfs {
        #[cfg(test)]
        NODES_VISITED.with(|nodes| nodes.set(nodes.get() + 1));
        if self.budget == 0 {
            self.budget_exhausted = true;
            return Dfs::Stop;
        }
        self.budget -= 1;
        let n = self.dense.txs();
        if self.order.len() == n {
            // Every placement was checked incrementally, so the induced
            // assignment is realizable and accepted, and no required final
            // writer was overwritten, by construction.
            debug_assert!(self
                .final_writers
                .map_or(true, |named| *named == self.last_writer));
            let order = self.order.iter().map(|&i| self.dense.tx_ids[i as usize]);
            self.out.push(order.collect());
            return match self.limit {
                Some(l) if self.out.len() >= l => Dfs::Stop,
                _ => Dfs::FoundSome,
            };
        }

        // Within the bitmask: the memo, and the forward check, whose failure
        // proves the whole subtree dead; the same pass finds the candidates.
        let memoize = n <= 128;
        let candidates = if memoize {
            let Some(candidates) = self.enter(used) else {
                return Dfs::Nothing;
            };
            candidates
        } else {
            u128::MAX
        };

        let mut found = false;
        for i in 0..n {
            let placeable = if memoize {
                // `pred`: a hard predecessor is still unplaced.
                candidates & bit(i) != 0 && self.pred[i] & !used == 0 && !self.overwrites_a_final(i)
            } else {
                !self.order.contains(&(i as u32)) && self.can_place(i)
            };
            if !placeable {
                continue;
            }
            self.order.push(i as u32);
            self.place(i);
            let result = self.dfs(if memoize { used | bit(i) } else { used });
            self.unplace(i);
            self.order.pop();
            match result {
                Dfs::Stop => {
                    if memoize {
                        self.leave(false);
                    }
                    return Dfs::Stop;
                }
                Dfs::FoundSome => found = true,
                Dfs::Nothing => {}
            }
        }

        if memoize {
            self.leave(!found);
        }
        if found {
            Dfs::FoundSome
        } else {
            Dfs::Nothing
        }
    }
}

/// The state [`SearchEngine::restriction_dfs`] threads through its walk.
struct RestrictionWalk {
    max: Option<usize>,
    /// Per prefix position: the source the placements so far give the read
    /// there ([`FREE`]: not a read, or its reader is unplaced).
    restriction: Vec<u32>,
    /// Search states seen: placed set, last writers, restriction so far.
    visited: StateSet<(u128, Vec<u32>, Vec<u32>)>,
    /// The achievable restrictions found.
    found: StateSet<Vec<u32>>,
}

impl SearchEngine<'_> {
    /// Whether the partial state can be completed to a full realizable
    /// serialization (existence only, nothing emitted).  Shares the dead
    /// memo with the other search modes; must only be called with nothing
    /// required, so "dead" keeps one meaning throughout.
    fn completes(&mut self, placed: usize, used: u128) -> bool {
        if placed == self.dense.txs() {
            return true;
        }
        let Some(mut candidates) = self.enter(used) else {
            return false;
        };
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            self.place(i);
            let done = self.completes(placed + 1, used | bit(i));
            self.unplace(i);
            if done {
                self.leave(false);
                return true;
            }
        }
        self.leave(true);
        false
    }

    /// Enumerates the achievable restrictions of the serializing read-from
    /// assignments to the prefix `walk.restriction` spans — see
    /// [`achievable_prefix_restrictions`].  Returns `true` when the search
    /// stopped early because `walk.max` restrictions were found.
    ///
    /// Explores serial orders only until every prefix reader is placed
    /// (which pins the restriction), then validates new restrictions with
    /// one memoized [`SearchEngine::completes`] call.  Distinct search
    /// states are deduped on (placed set, last writers, restriction so far)
    /// — the last writers themselves, not the memo key, because the
    /// restriction records them: revisiting a state cannot contribute
    /// restrictions the first visit did not.  Only correct with nothing
    /// required.
    fn restriction_dfs(
        &mut self,
        walk: &mut RestrictionWalk,
        readers_remaining: usize,
        placed: usize,
        used: u128,
    ) -> bool {
        if readers_remaining == 0 {
            if !walk.found.contains(&walk.restriction) && self.completes(placed, used) {
                walk.found.insert(walk.restriction.clone());
                return walk.max.is_some_and(|m| walk.found.len() >= m);
            }
            return false;
        }
        let Some(mut candidates) = self.enter(used) else {
            return false;
        };
        self.leave(false);
        if !walk
            .visited
            .insert((used, self.last_writer.clone(), walk.restriction.clone()))
        {
            return false;
        }

        let tables = self.tables;
        let prefix_len = walk.restriction.len();
        let in_prefix = |r: &&Read| (r.pos as usize) < prefix_len;
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            // Record the sources of this transaction's prefix reads; they
            // are pinned at placement time (only earlier transactions can
            // serve them).
            let mut reads_in_prefix = false;
            for read in tables.reads[tables.reads_of(i)].iter().filter(in_prefix) {
                reads_in_prefix = true;
                walk.restriction[read.pos as usize] = if read.own {
                    i as u32
                } else {
                    self.last_writer[read.entity as usize]
                };
            }
            self.place(i);
            let stop = self.restriction_dfs(
                walk,
                readers_remaining - usize::from(reads_in_prefix),
                placed + 1,
                used | bit(i),
            );
            self.unplace(i);
            for read in tables.reads[tables.reads_of(i)].iter().filter(in_prefix) {
                walk.restriction[read.pos as usize] = FREE;
            }
            if stop {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::{EntityId, Schedule};

    #[test]
    fn serial_read_froms_of_a_simple_chain() {
        // A writes x, B reads it. Order AB: B <- A; order BA: B <- initial.
        let s = Schedule::parse("Wa(x) Rb(x)").unwrap();
        let ab = serial_read_froms(&s, &[TxId(1), TxId(2)]);
        assert_eq!(ab.read_sources[&1], VersionSource::Tx(TxId(1)));
        assert_eq!(ab.final_writers[&EntityId(0)], Some(TxId(1)));
        let ba = serial_read_froms(&s, &[TxId(2), TxId(1)]);
        assert_eq!(ba.read_sources[&1], VersionSource::Initial);
    }

    #[test]
    fn own_write_takes_priority_in_serial_order() {
        // A: R(x) W(x) R(x): the second read observes A's own write no
        // matter where other writers sit in the serial order.
        let s = Schedule::parse("Ra(x) Wa(x) Wb(x) Ra(x)").unwrap();
        let rf = serial_read_froms(&s, &[TxId(2), TxId(1)]);
        assert_eq!(
            rf.read_sources[&0],
            VersionSource::Tx(TxId(2)),
            "first read sees B"
        );
        assert_eq!(
            rf.read_sources[&3],
            VersionSource::Tx(TxId(1)),
            "second read sees own write"
        );
    }

    #[test]
    fn realizability_requires_the_writer_to_have_written_already() {
        let s = Schedule::parse("Rb(x) Wa(x)").unwrap();
        // Serial order AB would make B read from A, but A's write comes after
        // the read in s: not realizable ("a read that arrived too early").
        let ab = serial_read_froms(&s, &[TxId(1), TxId(2)]);
        assert!(!is_realizable(&s, &ab));
        // Serial order BA has B read the initial version: realizable.
        let ba = serial_read_froms(&s, &[TxId(2), TxId(1)]);
        assert!(is_realizable(&s, &ba));
    }

    #[test]
    fn serializations_of_the_non_mvsr_example_are_empty() {
        let s = Schedule::parse("Ra(x) Rb(x) Wa(x) Wb(x)").unwrap();
        assert!(serializations(&s, None).is_empty());
    }

    #[test]
    fn serializations_of_a_serial_schedule_include_its_own_order() {
        let s = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(y)").unwrap();
        let all = serializations(&s, None);
        assert!(all.iter().any(|rf| rf.order == vec![TxId(1), TxId(2)]));
    }

    #[test]
    fn limit_stops_early() {
        let s = Schedule::parse("Ra(x) Wb(y) Rc(z)").unwrap();
        // No conflicts at all: all 6 permutations serialize.
        assert_eq!(serializations(&s, None).len(), 6);
        assert_eq!(serializations(&s, Some(2)).len(), 2);
    }

    #[test]
    fn version_function_conversion_is_valid() {
        let s = Schedule::parse("Wa(x) Rb(x) Wb(y)").unwrap();
        let all = serializations(&s, None);
        for rf in &all {
            let vf = rf.to_version_function(&s);
            assert!(vf.validate(&s).is_ok(), "order {:?}", rf.order);
        }
    }

    #[test]
    fn extending_search_respects_required_assignments() {
        use std::collections::HashMap;
        let s = Schedule::parse("Wa(x) Rb(x) Wb(y) Ra(y)").unwrap();
        // Require R_b(x) (position 1) to read the initial version: only the
        // B-before-A serialization remains, and it also fixes R_a(y).
        let mut req = HashMap::new();
        req.insert(1usize, VersionSource::Initial);
        let found = serializations_extending(&s, &req, None);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].order, vec![TxId(2), TxId(1)]);
        assert!(has_serialization_extending(&s, &req));

        // Requiring an impossible assignment yields nothing.
        let mut impossible = HashMap::new();
        impossible.insert(1usize, VersionSource::Tx(TxId(2)));
        assert!(!has_serialization_extending(&s, &impossible));
    }

    #[test]
    fn extending_search_with_empty_requirements_matches_plain_enumeration() {
        use std::collections::HashMap;
        let s = Schedule::parse("Wa(x) Rb(x) Rc(y) Wb(y) Wc(x)").unwrap();
        let plain = serializations(&s, None).len();
        let filtered = serializations_extending(&s, &HashMap::new(), None).len();
        assert_eq!(plain, filtered);
    }

    #[test]
    fn enumeration_order_is_lexicographic_in_first_appearance_order() {
        // The OLS checker and the maximal scheduler observe the *sequence*
        // `serializations` returns: the realizable serial orders, candidates
        // tried by first appearance in the schedule.
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x) Rd(y)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            let expected: Vec<Vec<TxId>> = crate::csr::permutations(&s.tx_ids())
                .into_iter()
                .filter(|order| is_realizable(&s, &serial_read_froms(&s, order)))
                .collect();
            let found = serializations(&s, None);
            let orders: Vec<Vec<TxId>> = found.iter().map(|rf| rf.order.clone()).collect();
            assert_eq!(orders, expected, "schedule {s}");
            for rf in &found {
                assert_eq!(*rf, serial_read_froms(&s, &rf.order), "schedule {s}");
            }
        }
    }

    /// Figure 1's example (1) with `n` transactions: all read `x`, then all
    /// write it, so whoever is placed second would read a write that comes
    /// too late.
    fn everyone_reads_then_writes(n: u32) -> Schedule {
        let x = EntityId(0);
        let reads = (1..=n).map(|t| mvcc_core::Step::read(TxId(t), x));
        let writes = (1..=n).map(|t| mvcc_core::Step::write(TxId(t), x));
        Schedule::from_steps(reads.chain(writes).collect())
    }

    #[test]
    fn schedules_beyond_the_bitmask_are_still_decided() {
        // 130 transactions: no memo, no forward check, no 128-bit shifts.
        let serial: Vec<_> = (1..=130)
            .flat_map(|t| {
                let x = EntityId(t % 3);
                [
                    mvcc_core::Step::read(TxId(t), x),
                    mvcc_core::Step::write(TxId(t), x),
                ]
            })
            .collect();
        let serial = Schedule::from_steps(serial);
        let found = serializations(&serial, Some(1));
        assert_eq!(found[0].order, serial.tx_ids());
        assert!(is_realizable(&serial, &found[0]));
        // Refuted in 1 + 130 nodes: every second placement fails.
        let crowd = everyone_reads_then_writes(130);
        assert!(serializations(&crowd, Some(1)).is_empty());
        assert_eq!(
            has_serialization_extending_budgeted(&crowd, &HashMap::new(), 131),
            Some(false)
        );
        assert_eq!(
            has_serialization_extending_budgeted(&crowd, &HashMap::new(), 130),
            None
        );
        // Within the mask the forward check refutes each first placement.
        assert!(serializations(&everyone_reads_then_writes(128), Some(1)).is_empty());
    }

    #[test]
    fn unwritten_entities_and_readless_transactions() {
        // z is written by nobody: every read of it sees the initial version.
        let s = Schedule::parse("Ra(z) Rb(z) Wa(x)").unwrap();
        let all = serializations(&s, None);
        assert_eq!(all.len(), 2);
        for rf in &all {
            assert_eq!(rf.read_sources[&0], VersionSource::Initial);
            assert_eq!(rf.read_sources[&1], VersionSource::Initial);
            assert_eq!(rf.final_writers[&EntityId(2)], None);
            assert_eq!(rf.final_writers[&EntityId(0)], Some(TxId(1)));
        }
        assert_eq!(achievable_prefix_restrictions(&s, 3).len(), 1);
        // No reads at all: nothing constrains the order.
        let blind = Schedule::parse("Wa(x) Wb(x) Wc(y)").unwrap();
        assert_eq!(serializations(&blind, None).len(), 6);
        let empty: BTreeSet<BTreeMap<usize, VersionSource>> = [BTreeMap::new()].into();
        assert_eq!(achievable_prefix_restrictions(&blind, 3), empty);
    }

    #[test]
    fn unservable_pins_are_refused() {
        let s = Schedule::parse("Wa(x) Rb(x) Wb(x) Rb(x)").unwrap();
        let pinned = |pos: usize, src| HashMap::from([(pos, src)]);
        // A writer the schedule does not contain.
        let unknown = pinned(1, VersionSource::Tx(TxId(9)));
        assert!(!has_serialization_extending(&s, &unknown));
        assert!(serializations_extending(&s, &unknown, None).is_empty());
        // The reader's own *later* write.
        let own_later = pinned(1, VersionSource::Tx(TxId(2)));
        assert!(!has_serialization_extending(&s, &own_later));
        // Both die at the root's forward check: one node.
        for required in [&unknown, &own_later] {
            assert_eq!(
                has_serialization_extending_budgeted(&s, required, 1),
                Some(false)
            );
            assert_eq!(has_serialization_extending_budgeted(&s, required, 0), None);
        }
        // A read after the reader's own write sees that write, and only it.
        assert!(has_serialization_extending(
            &s,
            &pinned(3, VersionSource::Tx(TxId(2)))
        ));
        assert_eq!(
            has_serialization_extending_budgeted(&s, &pinned(3, VersionSource::Tx(TxId(1))), 0),
            Some(false),
            "known infeasible before the search starts"
        );
        // Pins on positions that hold no read are ignored.
        assert!(has_serialization_extending(
            &s,
            &pinned(0, VersionSource::Tx(TxId(9)))
        ));
    }

    #[test]
    fn node_budget_counts_every_search_node() {
        // Not MVSR; the refutation takes 45 nodes (counted with the search
        // as it stood before the dense tables, and unchanged by them).
        let s = Schedule::parse(
            "R8(w) R17(x) R14(w) R11(x) R11(w) R14(w) W17(w) W8(x) \
             R5(w) R20(x) W20(x) W2(w) R5(x) R2(x)",
        )
        .unwrap();
        let nothing = HashMap::new();
        assert_eq!(has_serialization_extending_budgeted(&s, &nothing, 44), None);
        assert_eq!(
            has_serialization_extending_budgeted(&s, &nothing, 45),
            Some(false)
        );
        // Pinning R5(w) to T2 puts T2 before T5 and prunes it to 21.
        let pinned = HashMap::from([(8, VersionSource::Tx(TxId(2)))]);
        assert_eq!(has_serialization_extending_budgeted(&s, &pinned, 20), None);
        assert_eq!(
            has_serialization_extending_budgeted(&s, &pinned, 21),
            Some(false)
        );
        // MVSR, the first witness 16 nodes away (8 of them its own path).
        let s = Schedule::parse(
            "R20(x) R14(x) W5(x) R14(x) R11(x) R5(x) R2(x) R20(w) R8(x) W8(x) \
             R17(w) W17(x) W11(x) R2(w)",
        )
        .unwrap();
        assert_eq!(has_serialization_extending_budgeted(&s, &nothing, 15), None);
        assert_eq!(
            has_serialization_extending_budgeted(&s, &nothing, 16),
            Some(true)
        );
    }

    #[test]
    fn section4_schedules_have_unique_serializations() {
        let (s, s_prime) = mvcc_core::examples::section4_pair();
        let ser_s = serializations(&s, None);
        let ser_sp = serializations(&s_prime, None);
        assert_eq!(ser_s.len(), 1, "s serializes only as A B");
        assert_eq!(ser_s[0].order, vec![TxId(1), TxId(2)]);
        assert_eq!(ser_sp.len(), 1, "s' serializes only as B A");
        assert_eq!(ser_sp[0].order, vec![TxId(2), TxId(1)]);
        // And they disagree on what R_B(x) (position 2 in both) must read.
        assert_ne!(ser_s[0].read_sources[&2], ser_sp[0].read_sources[&2]);
    }
}
