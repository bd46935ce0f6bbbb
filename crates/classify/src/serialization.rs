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
//! the standard read-froms plus the final writers for VSR, a committed
//! prefix's read-from map for the OLS and scheduler callers — becomes dense
//! pins on the reads, which turn into precedence edges, an up-front cycle
//! check and forward-check propagation.  Whatever is required, MVSR's
//! nothing included, a read that no write of its entity precedes is pinned
//! to the initial version, the only one that can serve it: its reader then
//! precedes every other writer of the entity, and the cycle check refutes
//! most schedules that are not MVSR before the first node.  The search
//! state is sets of reads, one bit each, that a placement updates a word
//! at a time: which reads the current last writers serve, and which
//! belong to unplaced transactions.  A failed state is memoized on its
//! placed set and on which unplaced reads the current last writers serve,
//! an exact key of fixed width (see `SearchEngine::enter`).  There is no
//! second search anywhere in the crate.
//!
//! Up to 64 transactions, with nothing or the standard sources required,
//! the precedence edges are exactly the forced rows of the index's masks
//! sweep, and their cycle check is the index's refutation: the search takes
//! both from there instead of deriving them again.  Its buffers — the
//! pins, the read sets, the frames, the memo and the path — belong to the
//! index and keep their storage from one search to the next, and a
//! verdict's search counts the orders it finds without spelling them out,
//! so deciding allocates nothing once the per-thread index has grown to
//! the schedule's size.

use crate::arcs::{with_dense, Buffer, DenseSchedule, Forced, Read, Tables, NONE};
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
    let orders = with_dense(s, |dense| {
        serial_orders(dense, Required::Map(required), limit)
    });
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
    let mut engine = SearchEngine::new(dense, required, limit);
    if !engine.infeasible {
        engine.dfs(0);
    }
    std::mem::take(&mut engine.out)
}

/// Whether [`serial_orders`] would find an order, without spelling one
/// out: the verdicts' search, which allocates nothing.
pub(crate) fn has_serial_order(dense: &DenseSchedule, required: Required<'_>) -> bool {
    let mut engine = SearchEngine::new(dense, required, Some(1));
    engine.keep = false;
    if !engine.infeasible {
        engine.dfs(0);
    }
    engine.found > 0
}

/// `true` iff `s` has at least one serialization agreeing with `required`.
pub fn has_serialization_extending(s: &Schedule, required: &HashMap<usize, VersionSource>) -> bool {
    with_dense(s, |dense| has_serial_order(dense, Required::Map(required)))
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
    with_dense(s, |dense| {
        let mut engine = SearchEngine::new(dense, Required::Map(required), Some(1));
        if engine.infeasible {
            return Some(false);
        }
        engine.keep = false;
        engine.budget = node_budget;
        engine.dfs(0);
        if engine.found > 0 {
            Some(true)
        } else if engine.budget_exhausted {
            None
        } else {
            Some(false)
        }
    })
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
    let prefix_len = prefix_len.min(s.len());
    let masked = with_dense(s, |dense| {
        (dense.txs() <= 128).then(|| prefix_restrictions(dense, prefix_len, max))
    });
    if let Some(found) = masked {
        return found;
    }
    // Beyond the bitmask the dedup machinery does not apply; fall back to
    // projecting plain enumeration (instances this big are out of reach
    // for every exact NP checker in this crate anyway).  `max` is honored
    // with a growing enumeration limit, so a small bound stops long before
    // the (potentially factorial) full enumeration.
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

/// [`achievable_prefix_restrictions_bounded`] within the bitmask, on the
/// schedule's dense index.
fn prefix_restrictions(
    dense: &DenseSchedule,
    prefix_len: usize,
    max: Option<usize>,
) -> BTreeSet<BTreeMap<usize, VersionSource>> {
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

    let mut engine = SearchEngine::new(dense, Required::Nothing, None);
    if engine.infeasible {
        return BTreeSet::new();
    }
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
#[derive(Default)]
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
    /// Empties the set, for keys of `width` words; the storage is kept.
    fn reset(&mut self, width: usize) {
        self.width = width;
        self.keys.clear();
        self.slots.clear();
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
            // Rehashed from the keys, in place.
            let size = (2 * self.slots.len()).max(32);
            self.slots.clear();
            self.slots.resize(size, 0);
            let mask = size - 1;
            for (k, old) in self.keys.chunks_exact(self.width).enumerate() {
                let mut i = Self::home(old, mask);
                while self.slots[i] != 0 {
                    i = (i + 1) & mask;
                }
                self.slots[i] = k as u32 + 1;
            }
        }
        let i = self.slot(key);
        if self.slots[i] == 0 {
            self.keys.extend_from_slice(key);
            self.slots[i] = len as u32 + 1;
        }
    }
}

/// Per transaction, sets of reads: bitsets over [`Tables::reads`], `words`
/// words each.  Only `own`-less reads are members: an `own` read is served
/// by its reader's earlier write whatever the order.
#[derive(Default)]
struct ReadSets {
    words: usize,
    /// Transaction by transaction, its [`TX_SETS`] sets: set `k` of
    /// transaction `i` is the `i * TX_SETS + k`-th run of `words` words.
    of_tx: Vec<u64>,
    /// Across all transactions, which check the forward check runs on a
    /// read: [`CHECK_INITIAL`], [`CHECK_UNSERVABLE`] or [`CHECK_AVAIL`].
    check: Vec<u64>,
}

/// The search's buffers between two searches on one index (see
/// [`crate::arcs::with_dense`]): a [`SearchEngine`] takes them from the
/// index, reuses their storage and gives them back when dropped.
#[derive(Default)]
pub(crate) struct SearchBuffers {
    order: Vec<u32>,
    last_writer: Vec<u32>,
    undo: Vec<u32>,
    pins: Vec<u32>,
    sets: ReadSets,
    state: Vec<u64>,
    dead: DeadSet,
    path: Vec<u64>,
    pred: Vec<u128>,
}

impl SearchBuffers {
    /// Calls `f` on every buffer.
    pub(crate) fn buffers(&mut self, f: &mut dyn FnMut(&mut dyn Buffer)) {
        f(&mut self.order);
        f(&mut self.last_writer);
        f(&mut self.undo);
        f(&mut self.pins);
        f(&mut self.sets.of_tx);
        f(&mut self.sets.check);
        f(&mut self.state);
        f(&mut self.dead.keys);
        f(&mut self.dead.slots);
        f(&mut self.path);
        f(&mut self.pred);
    }
}

/// The sets of a transaction `i` in [`ReadSets::of_tx`].  [`NEED`]: the
/// reads of `i`, which it can be placed once the current last writers
/// serve; [`TOUCHES`]: the reads of the entities `i` writes, which placing
/// it decides anew; [`REALIZES`]: of those, the reads `i` can serve (its
/// first write precedes them); [`SERVES`]: the reads `i` serves as their
/// last writer — can, and as the read's pin requires; [`PINNED_TO`]: the
/// reads pinned to `i`.
const NEED: usize = 0;
const TOUCHES: usize = 1;
const REALIZES: usize = 2;
const SERVES: usize = 3;
const PINNED_TO: usize = 4;
const TX_SETS: usize = 5;

/// The read sets of one search state (see [`SearchEngine::state`]).
const SERVED: usize = 0;
const REALIZABLE: usize = 1;
const OPEN: usize = 2;
const PLACED_PINS: usize = 3;
const LOST: usize = 4;
const FRAME: usize = 5;

/// The forward checks of [`ReadSets::check`]: reads pinned to the initial
/// version, reads pinned to what no order serves, and the rest, which need a
/// servable writer left.
const CHECK_INITIAL: usize = 0;
const CHECK_UNSERVABLE: usize = 1;
const CHECK_AVAIL: usize = 2;

/// Adds read `r` to the `k`-th of the sets of `words` words in `sets`.
fn add(sets: &mut [u64], words: usize, k: usize, r: usize) {
    sets[k * words + r / 64] |= 1 << (r % 64);
}

/// The search state over a [`DenseSchedule`].  Transactions are tried by
/// their dense number, i.e. by first appearance in `s`: serial witnesses of
/// near-serial and reduction-generated schedules correlate strongly with
/// schedule order, so the search finds them with little backtracking.
struct SearchEngine<'d> {
    dense: &'d DenseSchedule,
    tables: &'d Tables,
    limit: Option<usize>,
    /// Whether the transaction count fits the `u128` bitmask: the memo, the
    /// precedence edges, the forward check and the read sets apply only
    /// then; beyond, the search still runs, without them.
    masked: bool,
    /// The partial serial order, the last placed writer of each entity
    /// ([`NONE`] before any), and the entries `last_writer` held before the
    /// placements on the current path overwrote them.
    order: Vec<u32>,
    last_writer: Vec<u32>,
    undo: Vec<u32>,
    /// The serial orders found so far, when `keep`.
    out: Vec<Vec<TxId>>,
    /// Whether found orders are kept in `out`, or only counted.
    keep: bool,
    /// How many serial orders were found.
    found: usize,
    /// Per read of the dense schedule: the source a requirement pins it to
    /// (a transaction's dense number, or [`NONE`] for the initial version),
    /// [`UNSERVABLE`], or [`FREE`].  Always `FREE` where the read is `own`.
    pins: Vec<u32>,
    /// The read sets of each transaction, from the pins.
    sets: ReadSets,
    /// One frame of [`FRAME`] read sets per placement on the current path,
    /// plus the root's; [`SearchEngine::place`] pushes one, `unplace` pops
    /// it.  In the top frame, [`SERVED`]: the reads the current last
    /// writer of their entity serves; [`REALIZABLE`]: can serve, pin or
    /// not; [`OPEN`]: the reads of unplaced transactions; [`PLACED_PINS`]:
    /// the reads pinned to a placed transaction; [`LOST`]: of those, the
    /// ones whose pin is no longer its entity's last writer, which no
    /// completion can make it again.
    state: Vec<u64>,
    /// States with no acceptable completion.  Only populated while the
    /// transaction count fits the bitmask.
    dead: DeadSet,
    /// The memo keys of the states on the current path, `dead.width` words
    /// each.
    path: Vec<u64>,
    /// Hard precedence constraints of the pins and the required final
    /// writers (see [`SearchEngine::precedence`]): `pred[i]` is the set of
    /// transactions that must precede transaction `i` in every acceptable
    /// serial order.
    pred: Vec<u128>,
    /// Set when the precedence constraints are cyclic, or a read served by
    /// its transaction's own earlier write is pinned elsewhere: no serial
    /// order satisfies the requirement at all.
    infeasible: bool,
    /// When set, only orders whose last writer of every entity is exactly
    /// this table are explored (see [`SearchEngine::new`]).
    final_writers: Option<&'d [u32]>,
    /// Remaining search-node budget (`u64::MAX` = unbounded).  When it runs
    /// out the search unwinds without an answer and sets
    /// `budget_exhausted`; dead-state memos recorded so far stay valid.
    budget: u64,
    /// Whether the last run was cut short by the node budget.
    budget_exhausted: bool,
}

impl Drop for SearchEngine<'_> {
    /// Gives the buffers back to the index, for the next search.
    fn drop(&mut self) {
        let take = std::mem::take::<Vec<u32>>;
        self.dense.search.set(SearchBuffers {
            order: take(&mut self.order),
            last_writer: take(&mut self.last_writer),
            undo: take(&mut self.undo),
            pins: take(&mut self.pins),
            sets: std::mem::take(&mut self.sets),
            state: std::mem::take(&mut self.state),
            dead: std::mem::take(&mut self.dead),
            path: std::mem::take(&mut self.path),
            pred: std::mem::take(&mut self.pred),
        });
    }
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
    static NODES_VISITED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// The count of [`NODES_VISITED`] past which every search on this
    /// thread runs out of node budget (see [`search_nodes_within`]).
    static NODE_CAP: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// Nodes the search visits on this thread while `f` runs.
#[cfg(test)]
pub(crate) fn search_nodes(f: impl FnOnce()) -> u64 {
    let before = NODES_VISITED.with(|nodes| nodes.get());
    f();
    NODES_VISITED.with(|nodes| nodes.get()) - before
}

/// Runs `f` with the searches it makes on this thread sharing a budget of
/// `budget` nodes: `f`'s result, or `None` when a search ran out of the
/// budget — it then stopped as a budgeted search stops, so `f`'s result is
/// not to be trusted.  Lets a test that searches large schedules fail in
/// seconds where a regression makes a search exponential.
#[cfg(test)]
pub(crate) fn search_nodes_within<T>(budget: u64, f: impl FnOnce() -> T) -> Option<T> {
    let before = NODES_VISITED.with(|nodes| nodes.get());
    let outer = NODE_CAP.with(|cap| cap.replace(cap.get().min(before.saturating_add(budget))));
    let out = f();
    NODE_CAP.with(|cap| cap.set(outer));
    let nodes = NODES_VISITED.with(|nodes| nodes.get()) - before;
    (nodes <= budget).then_some(out)
}

impl<'d> SearchEngine<'d> {
    /// The search for the serial orders of `dense` that meet `required`.
    ///
    /// Every read `required` names is pinned ([`SearchEngine::pins`]),
    /// which placement enforces and the forward check propagates — a read
    /// pinned to `Initial` dies as soon as any writer of its entity is
    /// placed before its reader, and a read pinned to `Tx(w)` dies as soon
    /// as `w` stops being the entity's last writer while the reader is
    /// still unplaced.  A caller's map is converted to the same dense pins
    /// the standard sources are.  Whatever is required, a read that no
    /// write of its entity precedes is pinned to `Initial` too: only the
    /// initial version can serve it, so every serialization puts its reader
    /// before every other writer of the entity — Theorem 1's read→write
    /// arcs, which on such reads are necessary, not only sufficient.  The
    /// forward check and the memo key already treat such a read exactly
    /// like an `Initial` pin; the pin adds its precedence edges.
    ///
    /// [`Required::Standard`] additionally requires the serial order's last
    /// writer of every entity to be the schedule's.  That condition is
    /// enforced at placement time (see [`SearchEngine::overwrites_a_final`]),
    /// so it holds beyond the bitmask too; within the bitmask it also
    /// becomes precedence edges — the final writer of `x` follows every
    /// other writer of `x` — so the cycle check and the candidate filter
    /// prune with it.
    /// Within the bitmask the edges are the pins' and the final writers';
    /// up to 64 transactions, with nothing or the standard sources
    /// required, they are exactly the [`Forced`] rows the index's masks
    /// sweep already holds, and their cycle check is
    /// [`DenseSchedule::refuted_by`]: both are taken from there.
    ///
    /// The engine's buffers are the index's, taken for the search and given
    /// back when it is dropped, so a search allocates nothing once the
    /// workspace has grown to the schedule's size.
    fn new(dense: &'d DenseSchedule, required: Required<'_>, limit: Option<usize>) -> Self {
        let n = dense.txs();
        let tables = dense.tables();
        let reads = tables.reads.len();
        // The memo key: the placed set, then a bit per read.
        let width = 2 + reads.div_ceil(64);
        let SearchBuffers {
            mut order,
            mut last_writer,
            mut undo,
            mut pins,
            sets,
            mut state,
            mut dead,
            mut path,
            mut pred,
        } = dense.search.take();
        order.clear();
        order.reserve(n);
        last_writer.clear();
        last_writer.resize(tables.entities(), NONE);
        undo.clear();
        pins.clear();
        pins.resize(reads, FREE);
        state.clear();
        dead.reset(width);
        path.clear();
        path.reserve((n + 1) * width);
        pred.clear();
        pred.resize(n, 0);
        let mut engine = SearchEngine {
            dense,
            tables,
            limit,
            masked: n <= 128,
            order,
            last_writer,
            undo,
            out: Vec::new(),
            keep: true,
            found: 0,
            pins,
            sets,
            state,
            dead,
            path,
            pred,
            infeasible: false,
            final_writers: None,
            budget: u64::MAX,
            budget_exhausted: false,
        };
        engine.require(required);
        if engine.masked && !engine.infeasible {
            engine.build_sets();
        }
        engine
    }

    /// The version source a dense source number stands for.
    fn source(&self, number: u32) -> VersionSource {
        if number == NONE {
            VersionSource::Initial
        } else {
            VersionSource::Tx(self.dense.tx_ids[number as usize])
        }
    }

    /// The pins, then (within the bitmask) the precedence edges and the
    /// cycle check — see [`SearchEngine::new`].
    fn require(&mut self, required: Required<'_>) {
        let (dense, tables) = (self.dense, self.tables);
        if let Required::Standard = required {
            self.final_writers = Some(&tables.final_writer);
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
                self.pins[r] = match source_of(read) {
                    // Serially the read sees its transaction's own earlier
                    // write, whatever the order.
                    Some(src) if read.own => {
                        self.infeasible |= src != i as u32;
                        continue;
                    }
                    Some(src) if src == i as u32 => UNSERVABLE,
                    Some(src) => src,
                    // No write of the entity precedes the read: only the
                    // initial version can serve it, in every serial order.
                    None if !read.own && read.standard == NONE => NONE,
                    None => continue,
                };
            }
        }
        if !self.masked {
            return;
        }
        let forced = match required {
            Required::Nothing => Some(Forced::Mvsr),
            Required::Standard => Some(Forced::Vsr),
            Required::Map(_) => None,
        };
        match forced {
            Some(forced) if n <= 64 => {
                self.pred.clear();
                self.pred.extend(dense.forced_preds(forced).map(u128::from));
                self.infeasible = dense.refuted_by(forced);
            }
            _ => {
                let mut pred = std::mem::take(&mut self.pred);
                self.infeasible |= !self.precedence(&mut pred);
                self.pred = pred;
            }
        }
    }

    /// Fills `pred` (zeroed, one entry per transaction) with the hard
    /// precedence edges of the pins and the required final writers, and
    /// answers whether they are acyclic.  A read pinned to `Tx(w)` puts
    /// `w` before its reader; a read pinned to `Initial` puts its reader
    /// before every other writer of the entity; a required final writer of
    /// `x` follows every other writer of `x`.  A cycle among these proves
    /// the requirement unsatisfiable outright — this is exactly how the
    /// Theorem 4/5 constructions encode polygraph arcs, and how most
    /// schedules that are not MVSR are refuted, so refutations that would
    /// otherwise need exhaustive search fall out of a linear check.
    fn precedence(&self, pred: &mut [u128]) -> bool {
        let (n, tables) = (self.dense.txs(), self.tables);
        for i in 0..n {
            for r in tables.reads_of(i) {
                match self.pins[r] {
                    FREE | UNSERVABLE => {}
                    NONE => {
                        let mut later = tables.writers[tables.reads[r].entity as usize] & !bit(i);
                        while later != 0 {
                            pred[later.trailing_zeros() as usize] |= bit(i);
                            later &= later - 1;
                        }
                    }
                    w => pred[i] |= bit(w as usize),
                }
            }
        }
        for (e, &last) in self.final_writers.iter().copied().flatten().enumerate() {
            if last != NONE {
                pred[last as usize] |= tables.writers[e] & !bit(last as usize);
            }
        }
        // Kahn's algorithm: what no round can remove is a cycle.
        let mut placed = 0u128;
        let mut progressed = true;
        let mut count = 0;
        while progressed {
            progressed = false;
            for (i, &before) in pred.iter().enumerate() {
                if placed & bit(i) == 0 && before & !placed == 0 {
                    placed |= bit(i);
                    count += 1;
                    progressed = true;
                }
            }
        }
        count == n
    }

    /// The read sets of every transaction, from the pins, and the root's
    /// frame: nothing placed, so the initial version is every entity's last
    /// writer, which can serve every read and serves those pinned to it or
    /// to nothing.
    fn build_sets(&mut self) {
        let (n, tables) = (self.dense.txs(), self.tables);
        let words = tables.reads.len().div_ceil(64);
        let ReadSets { of_tx, check, .. } = &mut self.sets;
        of_tx.clear();
        of_tx.resize(n * TX_SETS * words, 0);
        check.clear();
        check.resize(3 * words, 0);
        // Room for a frame per placement, so no placement reallocates.
        let root = &mut self.state;
        root.clear();
        root.reserve((n + 1) * FRAME * words);
        root.resize(FRAME * words, 0);
        for i in 0..n {
            for r in tables.reads_of(i) {
                let read = &tables.reads[r];
                if read.own {
                    continue;
                }
                let pin = self.pins[r];
                add(of_tx, words, i * TX_SETS + NEED, r);
                add(root, words, REALIZABLE, r);
                add(root, words, OPEN, r);
                let kind = match pin {
                    FREE => CHECK_AVAIL,
                    NONE => CHECK_INITIAL,
                    UNSERVABLE => CHECK_UNSERVABLE,
                    w => {
                        add(of_tx, words, w as usize * TX_SETS + PINNED_TO, r);
                        CHECK_AVAIL
                    }
                };
                add(check, words, kind, r);
                if pin == FREE || pin == NONE {
                    add(root, words, SERVED, r);
                }
                let mut writers = tables.writers[read.entity as usize];
                while writers != 0 {
                    let w = writers.trailing_zeros() as usize;
                    writers &= writers - 1;
                    add(of_tx, words, w * TX_SETS + TOUCHES, r);
                    if read.avail & bit(w) != 0 {
                        add(of_tx, words, w * TX_SETS + REALIZES, r);
                        if pin == FREE || pin == w as u32 {
                            add(of_tx, words, w * TX_SETS + SERVES, r);
                        }
                    }
                }
            }
        }
        self.sets.words = words;
    }

    /// Makes transaction `i` the last writer of everything it writes,
    /// remembering what it overwrote, and (within the bitmask) pushes the
    /// read sets of the new state.
    fn place(&mut self, i: usize) {
        for write in self.tables.writes_of(i) {
            let e = write.entity as usize;
            self.undo.push(self.last_writer[e]);
            self.last_writer[e] = i as u32;
        }
        if !self.masked {
            return;
        }
        let words = self.sets.words;
        let top = self.state.len();
        self.state.extend_from_within(top - FRAME * words..);
        let frame = &mut self.state[top..];
        let sets = &self.sets.of_tx[i * TX_SETS * words..(i + 1) * TX_SETS * words];
        for k in 0..words {
            let of_i = |set: usize| sets[set * words + k];
            let touched = of_i(TOUCHES);
            let placed_pins = frame[PLACED_PINS * words + k];
            frame[SERVED * words + k] = frame[SERVED * words + k] & !touched | of_i(SERVES);
            frame[REALIZABLE * words + k] =
                frame[REALIZABLE * words + k] & !touched | of_i(REALIZES);
            frame[OPEN * words + k] &= !of_i(NEED);
            // A placed pin loses its entity to `i`; a pin on `i` itself is
            // lost unless `i` writes the entity.
            frame[LOST * words + k] |= touched & placed_pins | of_i(PINNED_TO) & !touched;
            frame[PLACED_PINS * words + k] |= of_i(PINNED_TO);
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
        if self.masked {
            self.state
                .truncate(self.state.len() - FRAME * self.sets.words);
        }
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

    /// Beyond the bitmask: whether transaction `i` can be placed next —
    /// each of its own-less reads is served by the current last writer of
    /// its entity (it is the initial version, or its first write precedes
    /// the read, and the read's pin accepts it), and it overwrites no
    /// placed required final writer.
    fn can_place(&self, i: usize) -> bool {
        let tables = self.tables;
        !self.overwrites_a_final(i)
            && tables.reads_of(i).all(|r| {
                let read = &tables.reads[r];
                let last = self.last_writer[read.entity as usize];
                let pin = self.pins[r];
                read.own
                    || (last == NONE
                        || tables.first_write_before(last as usize, read.entity, read.pos))
                        && (pin == FREE || pin == last)
            })
    }

    /// Enters the state with placed set `used` (within the bitmask): pushes
    /// its memo key onto [`SearchEngine::path`] and returns the unplaced
    /// transactions whose hard predecessors are all placed and whose reads
    /// the current last writers all serve — the candidates — or `None` for
    /// a dead state, which leaves nothing on the path: failing the forward
    /// check, or recorded as dead.
    ///
    /// The forward check: every unplaced read must still be servable by
    /// *some* completion.  A read pinned to `Initial` is, exactly while the
    /// initial version is its entity's last writer, i.e. while it is
    /// served; an [`UNSERVABLE`] one never is; a read pinned to `Tx(w)`
    /// not once it is [`LOST`]; and every other read needs its current
    /// last writer to be able to serve it, or an available writer still
    /// unplaced — the one test left per read, on the few reads whose last
    /// writer cannot.  A state failing it is not recorded, since failing
    /// the check again costs no more than finding the key.
    ///
    /// The key is the placed set, then the [`SERVED`] reads of unplaced
    /// transactions.  That is exact.  Placed later, a transaction's read
    /// sees either a writer placed after now, which does not depend on the
    /// current last writers, or the current last writer, which is
    /// acceptable exactly when it serves the read; a required final writer
    /// is never overwritten, so "still the last writer" is "placed" for it;
    /// and the hard predecessors depend on the placed set alone.  So two
    /// states with one key have the same acceptable completions.
    fn enter(&mut self, used: u128) -> Option<u128> {
        let (tables, sets) = (self.tables, &self.sets);
        let words = sets.words;
        let frame = &self.state[self.state.len() - FRAME * words..];
        let read_set = |s: usize, k: usize| frame[s * words + k];
        let check = |c: usize, k: usize| sets.check[c * words + k];
        for k in 0..words {
            let open = read_set(OPEN, k);
            let served = read_set(SERVED, k);
            if open
                & (check(CHECK_UNSERVABLE, k)
                    | check(CHECK_INITIAL, k) & !served
                    | read_set(LOST, k))
                != 0
            {
                return None;
            }
            let mut unrealizable = open & check(CHECK_AVAIL, k) & !read_set(REALIZABLE, k);
            while unrealizable != 0 {
                let r = k * 64 + unrealizable.trailing_zeros() as usize;
                unrealizable &= unrealizable - 1;
                if tables.reads[r].avail & !used == 0 {
                    return None;
                }
            }
        }
        let base = self.path.len();
        self.path.extend([used as u64, (used >> 64) as u64]);
        self.path
            .extend((0..words).map(|k| read_set(SERVED, k) & read_set(OPEN, k)));
        if self.dead.contains(&self.path[base..]) {
            self.path.truncate(base);
            return None;
        }
        let n = self.dense.txs();
        let all = if n == 128 { u128::MAX } else { bit(n) - 1 };
        let mut candidates = all & !used;
        let mut rest = candidates;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let need = &sets.of_tx[(i * TX_SETS + NEED) * words..][..words];
            if self.pred[i] & !used != 0 || (0..words).any(|k| need[k] & !read_set(SERVED, k) != 0)
            {
                candidates &= !bit(i);
            }
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
        if NODES_VISITED.with(|nodes| {
            nodes.set(nodes.get() + 1);
            nodes.get()
        }) > NODE_CAP.with(|cap| cap.get())
        {
            self.budget = 0;
        }
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
            self.found += 1;
            if self.keep {
                let order = self.order.iter().map(|&i| self.dense.tx_ids[i as usize]);
                self.out.push(order.collect());
            }
            return match self.limit {
                Some(l) if self.found >= l => Dfs::Stop,
                _ => Dfs::FoundSome,
            };
        }

        // Within the bitmask: the memo, and the forward check, whose failure
        // proves the whole subtree dead; the same pass finds the candidates.
        let masked = self.masked;
        let candidates = if masked {
            let Some(candidates) = self.enter(used) else {
                return Dfs::Nothing;
            };
            candidates
        } else {
            u128::MAX
        };

        let mut found = false;
        for i in 0..n {
            let placeable = if masked {
                candidates & bit(i) != 0 && !self.overwrites_a_final(i)
            } else {
                !self.order.contains(&(i as u32)) && self.can_place(i)
            };
            if !placeable {
                continue;
            }
            self.order.push(i as u32);
            self.place(i);
            let result = self.dfs(if masked { used | bit(i) } else { used });
            self.unplace(i);
            self.order.pop();
            match result {
                Dfs::Stop => {
                    if masked {
                        self.leave(false);
                    }
                    return Dfs::Stop;
                }
                Dfs::FoundSome => found = true,
                Dfs::Nothing => {}
            }
        }

        if masked {
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
    use crate::testing::{benchmark_corpus, dense_random_schedule};
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
        // Within the mask the pins refute it before the search.
        assert!(serializations(&everyone_reads_then_writes(128), Some(1)).is_empty());
    }

    #[test]
    fn reads_only_the_initial_version_serves_refute_before_the_search() {
        // Figure 1's example (1): both reads precede every write of `x`, so
        // each reader precedes the other's write, a cycle.
        let example_1 = &mvcc_core::examples::figure1()[0].schedule;
        let crowds = [2, 8, 128].map(everyone_reads_then_writes);
        for s in std::iter::once(example_1).chain(&crowds) {
            assert_eq!(search_nodes(|| assert!(!crate::mvsr::is_mvsr(s))), 0, "{s}");
            assert_eq!(
                has_serialization_extending_budgeted(s, &HashMap::new(), 0),
                Some(false)
            );
            assert!(achievable_prefix_restrictions(s, s.len()).is_empty());
        }
        // The pins are exact: a read with no write before it, alone with
        // a writer that comes after it, still serializes (reader first).
        let s = Schedule::parse("Ra(x) Wb(x) Rc(x)").unwrap();
        let found = serializations(&s, None);
        assert!(!found.is_empty());
        assert!(found
            .iter()
            .all(|rf| rf.order.iter().position(|&t| t == TxId(1))
                < rf.order.iter().position(|&t| t == TxId(2))));
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
        // Not MVSR, and the reads only the initial version serves (R6(z),
        // R4(y)) close no precedence cycle: the refutation takes 44 nodes.
        let s = Schedule::parse(
            "R6(z) R4(y) W5(z) R1(z) R2(z) R3(z) W1(z) W5(z) W4(y) W2(z) R6(y) W3(z)",
        )
        .unwrap();
        let nothing = HashMap::new();
        assert_eq!(has_serialization_extending_budgeted(&s, &nothing, 43), None);
        assert_eq!(
            has_serialization_extending_budgeted(&s, &nothing, 44),
            Some(false)
        );
        // Pinning R6(y) to T4 puts T4 before T6 and prunes it to 19.
        let pinned = HashMap::from([(10, VersionSource::Tx(TxId(4)))]);
        assert_eq!(has_serialization_extending_budgeted(&s, &pinned, 18), None);
        assert_eq!(
            has_serialization_extending_budgeted(&s, &pinned, 19),
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
    fn the_forced_arcs_refute_exactly_where_the_search_is_infeasible() {
        // The benchmark's seed-1 corpus, every interleaving of small
        // systems (a plain one, one writing an entity twice, ones reading
        // their own writes), and dense random schedules on both sides of
        // the masks' 64 transactions.
        let corpus = mvcc_workload::random_interleavings(
            &mvcc_workload::WorkloadConfig {
                transactions: 8,
                steps_per_transaction: 4,
                entities: 8,
                read_ratio: 0.5,
                zipf_theta: 0.0,
                seed: 1u64.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            },
            3000,
        );
        let mut others = Vec::new();
        for system in [
            "Ra(x) Wa(x) Ra(y) Wa(y) Rb(x) Rb(y) Wb(y)",
            "Ra(x) Wa(y) Rb(y) Wb(x) Wc(y)",
            "Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)",
            "Rb(x) Rb(y) Wb(x) Wb(x) Ra(x) Ra(y) Wa(y)",
            "Wa(x) Ra(x) Wa(y) Rb(y) Wb(x) Rc(x)",
        ] {
            let sys = Schedule::parse(system).unwrap().tx_system();
            others.extend(Schedule::all_interleavings(&sys));
        }
        // At 64 and 65 transactions, where a search that has to refute can
        // take millions of nodes: over 512 entities most schedules are MVSR
        // and VSR; over 8 entities with the reads leading, forced arcs
        // refute nearly all of them.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for (txns, entities, reads_lead, cases) in [
            (8, 3, false, 300),
            (8, 3, true, 300),
            (64, 512, false, 40),
            (64, 512, true, 40),
            (64, 8, true, 40),
            (65, 512, false, 40),
            (65, 512, true, 40),
            (65, 8, true, 40),
        ] {
            for _ in 0..cases {
                others.push(dense_random_schedule(
                    &mut state, txns, 4, entities, reads_lead,
                ));
            }
        }
        // Per test: refuted on the masks, out of the schedules not in the
        // class, over the corpus.
        let mut corpus_counts = [(0, 0); 2];
        // Both searches of one schedule visit at most 624 nodes in a passing
        // run; the budget is ten times that.
        const BUDGET: u64 = 6_240;
        for (k, s) in corpus.iter().chain(&others).enumerate() {
            for (t, (forced, required)) in [
                (Forced::Mvsr, Required::Nothing),
                (Forced::Vsr, Required::Standard),
            ]
            .into_iter()
            .enumerate()
            {
                let dense = DenseSchedule::of(s);
                let refuted = dense.refuted_by(forced);
                let infeasible = SearchEngine::new(&dense, required, Some(1)).infeasible;
                if dense.txs() <= 64 {
                    assert_eq!(refuted, infeasible, "{forced:?} on {s}");
                } else {
                    assert!(!refuted, "{forced:?} on {s}");
                }
                let fresh = DenseSchedule::of(s);
                let (searched, decided) = search_nodes_within(BUDGET, || {
                    let searched = !serial_orders(&dense, required, Some(1)).is_empty();
                    let decided = match forced {
                        Forced::Mvsr => crate::mvsr::decide(&fresh),
                        Forced::Vsr => crate::vsr::decide(&fresh),
                    };
                    (searched, decided)
                })
                .unwrap_or_else(|| panic!("schedule {k}: {forced:?} ran past {BUDGET} nodes"));
                assert_eq!(decided, searched, "{forced:?} on {s}");
                if k < corpus.len() && !searched {
                    corpus_counts[t].0 += usize::from(refuted);
                    corpus_counts[t].1 += 1;
                }
            }
        }
        // MVSR: 792 of the 878 not MVSR; VSR: 2 990 of the 2 998 not VSR.
        assert_eq!(corpus_counts, [(792, 878), (2990, 2998)]);
    }

    /// The [`Forced`] arcs of `s` from their definition, on the steps and
    /// at any size: per transaction (numbered by first appearance) its
    /// predecessors, and whether a read after its own write has another
    /// transaction as its standard source (refutes VSR).
    fn forced_arcs_by_definition(s: &Schedule, forced: Forced) -> (Vec<u128>, bool) {
        let txs = s.tx_ids();
        let node = |tx: TxId| txs.iter().position(|&t| t == tx).unwrap();
        let steps = s.steps();
        let writers = |entity: EntityId, before: usize| {
            steps[..before]
                .iter()
                .filter(move |w| w.is_write() && w.entity == entity)
        };
        let mut pred = vec![0u128; txs.len()];
        let mut own_elsewhere = false;
        for (pos, read) in steps.iter().enumerate().filter(|(_, step)| step.is_read()) {
            let i = node(read.tx);
            let own = writers(read.entity, pos).any(|w| w.tx == read.tx);
            match writers(read.entity, pos).next_back() {
                None => {
                    for w in writers(read.entity, steps.len()).filter(|w| w.tx != read.tx) {
                        pred[node(w.tx)] |= bit(i);
                    }
                }
                Some(standard) if forced == Forced::Vsr => {
                    if !own {
                        pred[i] |= bit(node(standard.tx));
                    }
                    own_elsewhere |= own && standard.tx != read.tx;
                }
                Some(_) => {}
            }
        }
        if forced == Forced::Vsr {
            for entity in s.entities_accessed() {
                if let Some(last) = writers(entity, steps.len()).next_back() {
                    for w in writers(entity, steps.len()).filter(|w| w.tx != last.tx) {
                        pred[node(last.tx)] |= bit(node(w.tx));
                    }
                }
            }
        }
        (pred, own_elsewhere)
    }

    /// Whether the arcs `pred` close a cycle: what repeated removal of the
    /// nodes without a remaining predecessor cannot remove.
    fn cyclic(pred: &[u128]) -> bool {
        let mut left: Vec<usize> = (0..pred.len()).collect();
        let mut gone = 0u128;
        while let Some(k) = left.iter().position(|&v| pred[v] & !gone == 0) {
            gone |= bit(left.swap_remove(k));
        }
        !left.is_empty()
    }

    #[test]
    fn the_search_takes_its_edges_from_the_forced_rows() {
        // The benchmark's seed-1 corpus, and dense random schedules of 8
        // and 64 transactions (the masks' rows) and of 65 (past them, the
        // edges derived from the pins).
        let mut schedules = benchmark_corpus(3000);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for (txns, entities, reads_lead, cases) in [
            (8, 3, false, 200),
            (8, 3, true, 200),
            (64, 512, false, 30),
            (64, 8, true, 30),
            (65, 512, false, 30),
            (65, 8, true, 30),
        ] {
            for _ in 0..cases {
                schedules.push(dense_random_schedule(
                    &mut state, txns, 4, entities, reads_lead,
                ));
            }
        }
        let mut beyond = [0usize; 2];
        for (k, s) in schedules.iter().enumerate() {
            let dense = DenseSchedule::of(s);
            let n = dense.txs();
            for (forced, required) in [
                (Forced::Mvsr, Required::Nothing),
                (Forced::Vsr, Required::Standard),
            ] {
                // Building the engine and deriving its edges visit no
                // search node (0 on every schedule here), so the budget is 0.
                let (engine_pred, engine_infeasible, derived, acyclic) =
                    search_nodes_within(0, || {
                        let engine = SearchEngine::new(&dense, required, Some(1));
                        // The derivation from the pins, which runs for a
                        // caller's map and past 64 transactions.
                        let mut derived = vec![0; n];
                        let acyclic = engine.precedence(&mut derived);
                        (engine.pred.clone(), engine.infeasible, derived, acyclic)
                    })
                    .unwrap_or_else(|| panic!("schedule {k}: {forced:?} searched"));
                let (pred, own_elsewhere) = forced_arcs_by_definition(s, forced);
                assert_eq!(engine_pred, pred, "{forced:?} on {s}");
                let infeasible = own_elsewhere || cyclic(&pred);
                assert_eq!(engine_infeasible, infeasible, "{forced:?} on {s}");
                // The derivation gives the same rows.
                assert_eq!(derived, pred, "{forced:?} on {s}");
                assert_eq!(own_elsewhere || !acyclic, infeasible, "{forced:?} on {s}");
                if n <= 64 {
                    let rows: Vec<u128> = dense.forced_preds(forced).map(u128::from).collect();
                    assert_eq!(rows, pred, "{forced:?} on {s}");
                    assert_eq!(dense.refuted_by(forced), infeasible, "{forced:?} on {s}");
                } else {
                    beyond[usize::from(infeasible)] += 1;
                }
            }
        }
        // Past the masks the derived edges both pass and refute.
        assert!(beyond.iter().all(|&count| count > 0), "{beyond:?}");
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
