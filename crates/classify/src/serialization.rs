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
//! All three are clients of the one search in this module (`SearchEngine`):
//! serial orders are grown one transaction at a time, a placement is checked
//! against the reads it determines, failed states are memoized, and a
//! `required` read-from map — empty for MVSR, the standard read-froms plus
//! the final writers for VSR, a committed prefix for the OLS and scheduler
//! callers — turns into precedence edges, an up-front cycle check and
//! forward-check propagation.  There is no second search anywhere in the
//! crate.

use mvcc_core::{Schedule, TransactionSystem, TxId, VersionFunction, VersionSource};
use std::collections::{BTreeMap, HashMap};

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
    serializations_filtered(s, limit, &|_, _| true)
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
    search_extending(s, required, None, limit)
}

/// The first serial order (in search order) whose induced read-from
/// assignment agrees with `required` on every read position it mentions
/// *and* whose last writer of every entity is the one `final_writers` names
/// (one entry per written entity).  With the standard read-froms and the
/// final writers of `s` itself this is the VSR question — [`crate::vsr`] is
/// that client; MVSR is the same search with nothing required.
pub(crate) fn serial_order_extending(
    s: &Schedule,
    required: &HashMap<usize, VersionSource>,
    final_writers: &BTreeMap<mvcc_core::EntityId, TxId>,
) -> Option<Vec<TxId>> {
    search_extending(s, required, Some(final_writers), Some(1))
        .pop()
        .map(|rf| rf.order)
}

fn search_extending(
    s: &Schedule,
    required: &HashMap<usize, VersionSource>,
    final_writers: Option<&BTreeMap<mvcc_core::EntityId, TxId>>,
    limit: Option<usize>,
) -> Vec<SerialReadFroms> {
    let sys = s.tx_system();
    let accept = |pos: usize, src: VersionSource| required.get(&pos).map_or(true, |&r| r == src);
    let mut engine = SearchEngine::build(s, &sys, limit, &accept);
    engine.apply_required(required, final_writers);
    if engine.infeasible {
        return Vec::new();
    }
    let mut order = Vec::with_capacity(engine.txs.len());
    let mut last_writer = BTreeMap::new();
    engine.dfs(&mut order, 0, &mut last_writer);
    engine.out
}

/// `true` iff `s` has at least one serialization agreeing with `required`.
pub fn has_serialization_extending(s: &Schedule, required: &HashMap<usize, VersionSource>) -> bool {
    !serializations_extending(s, required, Some(1)).is_empty()
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
    let sys = s.tx_system();
    let accept = |pos: usize, src: VersionSource| required.get(&pos).map_or(true, |&r| r == src);
    let mut engine = SearchEngine::build(s, &sys, Some(1), &accept);
    engine.apply_required(required, None);
    if engine.infeasible {
        return Some(false);
    }
    engine.budget = node_budget;
    let mut order = Vec::with_capacity(engine.txs.len());
    let mut last_writer = BTreeMap::new();
    engine.dfs(&mut order, 0, &mut last_writer);
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
) -> std::collections::BTreeSet<std::collections::BTreeMap<usize, VersionSource>> {
    achievable_prefix_restrictions_bounded(s, prefix_len, None)
}

/// As [`achievable_prefix_restrictions`], stopping after `max` distinct
/// restrictions have been found (useful when the caller only needs to know
/// whether there are zero, one, or several).
pub fn achievable_prefix_restrictions_bounded(
    s: &Schedule,
    prefix_len: usize,
    max: Option<usize>,
) -> std::collections::BTreeSet<std::collections::BTreeMap<usize, VersionSource>> {
    let sys = s.tx_system();
    let accept = |_: usize, _: VersionSource| true;
    let mut engine = SearchEngine::build(s, &sys, None, &accept);
    let prefix_len = prefix_len.min(s.len());

    if engine.txs.len() > 128 {
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
            let out: std::collections::BTreeSet<_> = sers
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
    let readers_remaining = engine
        .txs
        .iter()
        .filter(|t| t.reads.iter().any(|&(pos, _, _)| pos < prefix_len))
        .count();

    let mut out = std::collections::BTreeSet::new();
    let mut visited = std::collections::HashSet::new();
    let mut last_writer = BTreeMap::new();
    let mut restriction = BTreeMap::new();
    engine.restriction_dfs(
        prefix_len,
        readers_remaining,
        &mut visited,
        0,
        0,
        &mut last_writer,
        &mut restriction,
        &mut out,
        max,
    );
    out
}

/// Shared implementation: enumerate serializations whose induced source for
/// every read position satisfies `accept(pos, source)`.
///
/// The search places transactions one at a time.  Placing a transaction
/// fully determines the sources of *its* reads (only the already-placed
/// transactions can serve them), so each placement is checked incrementally
/// in time proportional to that transaction's reads.  Whether a partial
/// order can still be completed depends only on (a) the *set* of placed
/// transactions and (b) the last placed writer of each entity — so search
/// states that failed are memoized on exactly that signature, which prunes
/// the factorial thrash on reduction-scale instances (Theorems 4–6 emit one
/// transaction per polygraph node).
fn serializations_filtered(
    s: &Schedule,
    limit: Option<usize>,
    accept: &dyn Fn(usize, VersionSource) -> bool,
) -> Vec<SerialReadFroms> {
    let sys = s.tx_system();
    let mut engine = SearchEngine::build(s, &sys, limit, accept);
    let mut order = Vec::with_capacity(engine.txs.len());
    let mut last_writer = BTreeMap::new();
    engine.dfs(&mut order, 0, &mut last_writer);
    engine.out
}

struct TxPlacement {
    id: TxId,
    /// Reads in program order: (schedule position, entity, reads own
    /// earlier write).
    reads: Vec<(usize, mvcc_core::EntityId, bool)>,
    writes: Vec<mvcc_core::EntityId>,
    /// For each read without an own earlier write: (schedule position,
    /// entity, bitmask of transactions whose write of the entity precedes
    /// the read in `s`).  Used by the forward check.
    open_reads: Vec<(usize, mvcc_core::EntityId, u128)>,
    /// Reads of this transaction pinned by a `required` map (see
    /// [`SearchEngine::apply_required`]): (entity, required source).
    required_reads: Vec<(mvcc_core::EntityId, VersionSource)>,
}

struct SearchEngine<'a> {
    s: &'a Schedule,
    sys: &'a TransactionSystem,
    txs: Vec<TxPlacement>,
    first_write: HashMap<(mvcc_core::EntityId, TxId), usize>,
    accept: &'a dyn Fn(usize, VersionSource) -> bool,
    limit: Option<usize>,
    out: Vec<SerialReadFroms>,
    /// States (placed set, last writer per entity) with no acceptable
    /// completion.  Only populated while the transaction count fits the
    /// bitmask; beyond that the search still runs, just without memoization.
    dead: std::collections::HashSet<(u128, Vec<(mvcc_core::EntityId, TxId)>)>,
    /// Index of each transaction in `txs` (for the required-read check).
    tx_index: HashMap<TxId, usize>,
    /// Hard precedence constraints derived from a `required` map:
    /// `pred[i]` is the set of transactions that must precede `txs[i]` in
    /// every acceptable serial order.  Empty unless `apply_required` ran.
    pred: Vec<u128>,
    /// Set when the precedence constraints are cyclic, or a read served by
    /// its transaction's own earlier write is pinned elsewhere: no serial
    /// order can satisfy the `required` map at all.
    infeasible: bool,
    /// When set, only orders whose last writer of every entity is exactly
    /// this map are explored (see [`SearchEngine::apply_required`]).
    final_writers: Option<&'a BTreeMap<mvcc_core::EntityId, TxId>>,
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

impl<'a> SearchEngine<'a> {
    /// Prepares the placement tables for `s`: per-transaction reads aligned
    /// with schedule positions, write sets, earliest-write positions and the
    /// forward-check availability masks.
    fn build(
        s: &'a Schedule,
        sys: &'a TransactionSystem,
        limit: Option<usize>,
        accept: &'a dyn Fn(usize, VersionSource) -> bool,
    ) -> Self {
        let tx_ids = sys.tx_ids();

        // Per-transaction placement info, aligning program order with
        // schedule positions.
        let mut positions_of_tx: HashMap<TxId, Vec<usize>> = HashMap::new();
        for (pos, step) in s.steps().iter().enumerate() {
            positions_of_tx.entry(step.tx).or_default().push(pos);
        }

        // Candidate order heuristic: try transactions by first appearance in
        // the schedule.  Serial witnesses of near-serial and
        // reduction-generated schedules correlate strongly with schedule
        // order, so the search finds them with little backtracking
        // (enumeration semantics are unaffected).
        let mut tx_ids_by_first_step = tx_ids.clone();
        tx_ids_by_first_step.sort_by_key(|id| {
            positions_of_tx
                .get(id)
                .and_then(|ps| ps.first().copied())
                .unwrap_or(usize::MAX)
        });

        // Earliest write position of each (entity, writer): a read at
        // position `pos` can be served by `writer` iff that write exists
        // before `pos`.
        let mut first_write: HashMap<(mvcc_core::EntityId, TxId), usize> = HashMap::new();
        for (pos, step) in s.steps().iter().enumerate() {
            if step.is_write() {
                first_write.entry((step.entity, step.tx)).or_insert(pos);
            }
        }

        let mut txs: Vec<TxPlacement> = Vec::with_capacity(tx_ids.len());
        for &id in &tx_ids_by_first_step {
            // lint: allow(unwrap) — every tx id in a schedule is in its system by construction
            let tx = sys.get(id).expect("tx of the system");
            let positions = &positions_of_tx[&id];
            let mut reads = Vec::new();
            for (k, &(action, entity)) in tx.accesses.iter().enumerate() {
                if action.is_read() {
                    let own_earlier_write = tx.accesses[..k]
                        .iter()
                        .any(|&(a, e)| a.is_write() && e == entity);
                    reads.push((positions[k], entity, own_earlier_write));
                }
            }
            txs.push(TxPlacement {
                id,
                reads,
                writes: tx.write_set().into_iter().collect(),
                open_reads: Vec::new(),
                required_reads: Vec::new(),
            });
        }

        // Availability masks for the forward check (only meaningful while
        // the transaction count fits the bitmask; the check is skipped
        // otherwise).
        if txs.len() <= 128 {
            for i in 0..txs.len() {
                let mut open = Vec::new();
                for &(pos, entity, own) in &txs[i].reads {
                    if own {
                        continue;
                    }
                    let mut mask = 0u128;
                    for (j, other) in txs.iter().enumerate() {
                        if j != i
                            && first_write
                                .get(&(entity, other.id))
                                .is_some_and(|&fp| fp < pos)
                        {
                            mask |= 1 << j;
                        }
                    }
                    open.push((pos, entity, mask));
                }
                txs[i].open_reads = open;
            }
        }

        let tx_index = txs.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
        let pred = vec![0u128; txs.len()];
        SearchEngine {
            s,
            sys,
            txs,
            first_write,
            accept,
            limit,
            out: Vec::new(),
            dead: std::collections::HashSet::new(),
            tx_index,
            pred,
            infeasible: false,
            final_writers: None,
            budget: u64::MAX,
            budget_exhausted: false,
        }
    }

    /// Registers a `required` read-from map so the forward check can
    /// propagate it: a read pinned to `Initial` dies as soon as any writer
    /// of its entity is placed before its reader, and a read pinned to
    /// `Tx(w)` dies as soon as `w` stops being the entity's last writer
    /// while the reader is still unplaced.  The `accept` predicate passed to
    /// [`SearchEngine::build`] must enforce the same map at placement time.
    ///
    /// `final_writers`, when given, additionally requires the serial order's
    /// last writer of every entity to be the one named (a writer of that
    /// entity).  That condition is enforced at placement time (see
    /// [`SearchEngine::can_place`]), so it holds beyond the bitmask too;
    /// within the bitmask it also becomes precedence edges — the final
    /// writer of `x` follows every other writer of `x` — so the cycle check
    /// and the candidate filter prune with it.
    fn apply_required(
        &mut self,
        required: &HashMap<usize, VersionSource>,
        final_writers: Option<&'a BTreeMap<mvcc_core::EntityId, TxId>>,
    ) {
        self.final_writers = final_writers;
        for i in 0..self.txs.len() {
            let own_version = VersionSource::Tx(self.txs[i].id);
            let mut pinned = Vec::new();
            for &(pos, entity, own) in &self.txs[i].reads {
                let Some(&src) = required.get(&pos) else {
                    continue;
                };
                if !own {
                    pinned.push((entity, src));
                } else if src != own_version {
                    // Serially the read sees its transaction's own earlier
                    // write, whatever the order.
                    self.infeasible = true;
                }
            }
            self.txs[i].required_reads = pinned;
        }
        if self.infeasible || self.txs.len() > 128 {
            return;
        }

        // Hard precedence edges: a read pinned to `Tx(w)` puts `w` before
        // its reader; a read pinned to `Initial` puts its reader before
        // every writer of the entity.  A cycle among these proves the map
        // unsatisfiable outright — this is exactly how the Theorem 4/5
        // constructions encode polygraph arcs, so refutations that would
        // otherwise need exhaustive search fall out of a linear check.
        let writers_of: HashMap<mvcc_core::EntityId, Vec<usize>> = {
            let mut m: HashMap<mvcc_core::EntityId, Vec<usize>> = HashMap::new();
            for (j, t) in self.txs.iter().enumerate() {
                for &e in &t.writes {
                    m.entry(e).or_default().push(j);
                }
            }
            m
        };
        for i in 0..self.txs.len() {
            for k in 0..self.txs[i].required_reads.len() {
                let (entity, src) = self.txs[i].required_reads[k];
                match src {
                    VersionSource::Tx(w) => {
                        if let Some(&wi) = self.tx_index.get(&w) {
                            if wi != i {
                                self.pred[i] |= 1 << wi;
                            }
                        }
                    }
                    VersionSource::Initial => {
                        if let Some(ws) = writers_of.get(&entity) {
                            for &j in ws {
                                if j != i {
                                    self.pred[j] |= 1 << i;
                                }
                            }
                        }
                    }
                }
            }
        }
        for (entity, last) in final_writers.into_iter().flatten() {
            if let Some(&li) = self.tx_index.get(last) {
                for &j in writers_of.get(entity).into_iter().flatten() {
                    if j != li {
                        self.pred[li] |= 1 << j;
                    }
                }
            }
        }

        // Kahn's algorithm: if the precedence graph has a cycle, no serial
        // order satisfies `required`.
        let n = self.txs.len();
        let mut placed = 0u128;
        let mut progressed = true;
        let mut count = 0;
        while progressed {
            progressed = false;
            for i in 0..n {
                if placed & (1 << i) == 0 && self.pred[i] & !placed == 0 {
                    placed |= 1 << i;
                    count += 1;
                    progressed = true;
                }
            }
        }
        if count < n {
            self.infeasible = true;
        }
    }

    fn dfs(
        &mut self,
        order: &mut Vec<TxId>,
        used: u128,
        last_writer: &mut BTreeMap<mvcc_core::EntityId, TxId>,
    ) -> Dfs {
        if self.budget == 0 {
            self.budget_exhausted = true;
            return Dfs::Stop;
        }
        self.budget -= 1;
        if order.len() == self.txs.len() {
            // Every placement was checked incrementally, so the induced
            // assignment is realizable and accepted, and no required final
            // writer was overwritten, by construction.
            debug_assert!(self.final_writers.map_or(true, |f| *f == *last_writer));
            self.out
                .push(serial_read_froms_of_system(self.s, self.sys, order));
            return match self.limit {
                Some(l) if self.out.len() >= l => Dfs::Stop,
                _ => Dfs::FoundSome,
            };
        }

        let memoize = self.txs.len() <= 128;
        let key = if memoize {
            let sig: Vec<_> = last_writer.iter().map(|(&e, &t)| (e, t)).collect();
            if self.dead.contains(&(used, sig.clone())) {
                return Dfs::Nothing;
            }
            Some((used, sig))
        } else {
            None
        };

        // Forward check: every read of every unplaced transaction must still
        // be servable by SOME completion (see `forward_check`); a failed
        // check proves the whole subtree dead.
        if memoize && !self.forward_check(used, last_writer) {
            if let Some(key) = key {
                self.dead.insert(key);
            }
            return Dfs::Nothing;
        }

        let mut found = false;
        for i in 0..self.txs.len() {
            if memoize && used & (1 << i) != 0 {
                continue;
            }
            if !memoize && order.contains(&self.txs[i].id) {
                continue;
            }
            if memoize && self.pred[i] & !used != 0 {
                // A hard predecessor is still unplaced.
                continue;
            }
            if !self.can_place(i, last_writer) {
                continue;
            }
            let tx_id = self.txs[i].id;
            order.push(tx_id);
            let saved: Vec<_> = self.txs[i]
                .writes
                .iter()
                .map(|&e| (e, last_writer.insert(e, tx_id)))
                .collect();
            let next_used = if memoize { used | (1 << i) } else { used };
            let result = self.dfs(order, next_used, last_writer);
            for (e, old) in saved {
                match old {
                    Some(w) => last_writer.insert(e, w),
                    None => last_writer.remove(&e),
                };
            }
            order.pop();
            match result {
                Dfs::Stop => return Dfs::Stop,
                Dfs::FoundSome => found = true,
                Dfs::Nothing => {}
            }
        }

        if found {
            Dfs::FoundSome
        } else {
            if let Some(key) = key {
                self.dead.insert(key);
            }
            Dfs::Nothing
        }
    }

    /// Whether transaction `i` can be placed next: each of its reads must be
    /// servable (the serially-determined source exists before the read in
    /// `s`) and pass the acceptance predicate, and it must not overwrite an
    /// entity whose required final writer is already placed.
    fn can_place(&self, i: usize, last_writer: &BTreeMap<mvcc_core::EntityId, TxId>) -> bool {
        let tx = &self.txs[i];
        if let Some(required) = self.final_writers {
            // No writer is ever placed over a required final writer, so
            // "placed" and "still the last writer" coincide for it.
            let overwrites_a_final = tx.writes.iter().any(|entity| {
                required
                    .get(entity)
                    .is_some_and(|last| *last != tx.id && last_writer.get(entity) == Some(last))
            });
            if overwrites_a_final {
                return false;
            }
        }
        tx.reads.iter().all(|&(pos, entity, own_earlier_write)| {
            let source = if own_earlier_write {
                VersionSource::Tx(tx.id)
            } else {
                match last_writer.get(&entity) {
                    Some(&w) => VersionSource::Tx(w),
                    None => VersionSource::Initial,
                }
            };
            let realizable = match source {
                VersionSource::Initial => true,
                VersionSource::Tx(w) if w == tx.id => true,
                VersionSource::Tx(w) => self
                    .first_write
                    .get(&(entity, w))
                    .is_some_and(|&fp| fp < pos),
            };
            realizable && (self.accept)(pos, source)
        })
    }
}

/// Search-state key of [`SearchEngine::restriction_dfs`]: placed set, last
/// writers, restriction so far.
type RestrictionState = (
    u128,
    Vec<(mvcc_core::EntityId, TxId)>,
    Vec<(usize, VersionSource)>,
);

impl SearchEngine<'_> {
    /// Whether the partial state can be completed to a full realizable
    /// serialization (existence only, nothing emitted).  Shares the dead
    /// memo with the other search modes; must only be called with the
    /// accept-everything predicate, so "dead" keeps one meaning throughout.
    fn completes(
        &mut self,
        placed: usize,
        used: u128,
        last_writer: &mut BTreeMap<mvcc_core::EntityId, TxId>,
    ) -> bool {
        if placed == self.txs.len() {
            return true;
        }
        let sig: Vec<_> = last_writer.iter().map(|(&e, &t)| (e, t)).collect();
        if self.dead.contains(&(used, sig.clone())) {
            return false;
        }
        if !self.forward_check(used, last_writer) {
            self.dead.insert((used, sig));
            return false;
        }
        for i in 0..self.txs.len() {
            if used & (1 << i) != 0 || !self.can_place(i, last_writer) {
                continue;
            }
            let tx_id = self.txs[i].id;
            let saved: Vec<_> = self.txs[i]
                .writes
                .iter()
                .map(|&e| (e, last_writer.insert(e, tx_id)))
                .collect();
            let done = self.completes(placed + 1, used | (1 << i), last_writer);
            for (e, old) in saved {
                match old {
                    Some(w) => last_writer.insert(e, w),
                    None => last_writer.remove(&e),
                };
            }
            if done {
                return true;
            }
        }
        self.dead.insert((used, sig));
        false
    }

    /// Necessary condition for any completion: each unplaced read without an
    /// own earlier write must still be servable — by the current last writer
    /// (if its write is early enough), by `Initial` (if no writer of the
    /// entity was placed yet), or by an available unplaced writer placed in
    /// between.
    fn forward_check(&self, used: u128, last_writer: &BTreeMap<mvcc_core::EntityId, TxId>) -> bool {
        for (i, tx) in self.txs.iter().enumerate() {
            if used & (1 << i) != 0 {
                continue;
            }
            for &(pos, entity, avail_mask) in &tx.open_reads {
                let lw_ok = match last_writer.get(&entity) {
                    None => true, // Initial is still reachable
                    Some(&w) => self
                        .first_write
                        .get(&(entity, w))
                        .is_some_and(|&fp| fp < pos),
                };
                if !lw_ok && avail_mask & !used == 0 {
                    return false;
                }
            }
            // Required-read propagation (empty unless `apply_required` ran):
            // `Initial` is unreachable once any writer was placed, and
            // `Tx(w)` is unreachable once `w` is placed but no longer the
            // last writer.
            for &(entity, src) in &tx.required_reads {
                match src {
                    VersionSource::Initial => {
                        if last_writer.contains_key(&entity) {
                            return false;
                        }
                    }
                    VersionSource::Tx(w) => {
                        if w == tx.id {
                            // Pinned to a version the reader itself writes
                            // only later in program order: never servable.
                            return false;
                        }
                        if let Some(&wi) = self.tx_index.get(&w) {
                            let placed = used & (1 << wi) != 0;
                            if placed && last_writer.get(&entity) != Some(&w) {
                                return false;
                            }
                        } else {
                            // Unknown writer: no serialization can realize it.
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Enumerates the achievable restrictions of the serializing read-from
    /// assignments to the first `prefix_len` schedule positions — see
    /// [`achievable_prefix_restrictions`].  Returns `true` when the search
    /// stopped early because `max` restrictions were found.
    ///
    /// Explores serial orders only until every prefix reader is placed
    /// (which pins the restriction), then validates new restrictions with
    /// one memoized [`SearchEngine::completes`] call.  Distinct search
    /// states are deduped on (placed set, last writers, restriction so far):
    /// revisiting one cannot contribute restrictions the first visit did
    /// not.  Only correct with the accept-everything predicate.
    #[allow(clippy::too_many_arguments)]
    fn restriction_dfs(
        &mut self,
        prefix_len: usize,
        readers_remaining: usize,
        visited: &mut std::collections::HashSet<RestrictionState>,
        placed: usize,
        used: u128,
        last_writer: &mut BTreeMap<mvcc_core::EntityId, TxId>,
        restriction: &mut BTreeMap<usize, VersionSource>,
        out: &mut std::collections::BTreeSet<BTreeMap<usize, VersionSource>>,
        max: Option<usize>,
    ) -> bool {
        if readers_remaining == 0 {
            if !out.contains(restriction) && self.completes(placed, used, last_writer) {
                out.insert(restriction.clone());
                if let Some(m) = max {
                    if out.len() >= m {
                        return true;
                    }
                }
            }
            return false;
        }
        let sig: Vec<_> = last_writer.iter().map(|(&e, &t)| (e, t)).collect();
        if self.dead.contains(&(used, sig.clone())) {
            return false;
        }
        if !self.forward_check(used, last_writer) {
            self.dead.insert((used, sig));
            return false;
        }
        let state: RestrictionState = (
            used,
            sig,
            restriction.iter().map(|(&p, &v)| (p, v)).collect(),
        );
        if !visited.insert(state) {
            return false;
        }

        for i in 0..self.txs.len() {
            if used & (1 << i) != 0 || !self.can_place(i, last_writer) {
                continue;
            }
            let tx_id = self.txs[i].id;
            // Record the sources of this transaction's prefix reads; they
            // are pinned at placement time (only earlier transactions can
            // serve them).
            let mut recorded = Vec::new();
            let mut reads_in_prefix = false;
            for &(pos, entity, own) in &self.txs[i].reads {
                if pos >= prefix_len {
                    continue;
                }
                reads_in_prefix = true;
                let source = if own {
                    VersionSource::Tx(tx_id)
                } else {
                    match last_writer.get(&entity) {
                        Some(&w) => VersionSource::Tx(w),
                        None => VersionSource::Initial,
                    }
                };
                restriction.insert(pos, source);
                recorded.push(pos);
            }
            let saved: Vec<_> = self.txs[i]
                .writes
                .iter()
                .map(|&e| (e, last_writer.insert(e, tx_id)))
                .collect();
            let stop = self.restriction_dfs(
                prefix_len,
                readers_remaining - usize::from(reads_in_prefix),
                visited,
                placed + 1,
                used | (1 << i),
                last_writer,
                restriction,
                out,
                max,
            );
            for (e, old) in saved {
                match old {
                    Some(w) => last_writer.insert(e, w),
                    None => last_writer.remove(&e),
                };
            }
            for pos in recorded {
                restriction.remove(&pos);
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
