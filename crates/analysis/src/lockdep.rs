//! Lock-order deadlock detection (lockdep).
//!
//! Every lock in the workspace is constructed through the tracked shims
//! in this module ([`TrackedMutex`] / [`TrackedRwLock`], thin wrappers
//! over the vendored `parking_lot`), each tagged with a static **lock
//! class** — one class per logical lock role (`store.txs`,
//! `engine.lane-state`, ...), declared at the construction site with
//! [`lock_class!`](crate::lock_class).  Instances of the same role share a class; the
//! dozens of per-shard `store.txs` mutexes are one node in the analysis.
//!
//! At every *blocking* acquisition the calling thread records, for each
//! lock it already holds, an arc `held-class → acquired-class` into a
//! global **lock-order graph**, together with a witness (the full held
//! chain and the acquisition site, via `#[track_caller]`).  A cycle in
//! that graph is a potential deadlock: two threads can interleave the
//! witnessed chains and block on each other forever, even if no test run
//! ever produced the fatal interleaving.  [`check_prefixes`] re-uses
//! `mvcc-graph`'s cycle machinery to search the graph and renders both
//! offending acquisition chains on failure — the same move the offline
//! classifiers make for histories (don't trust the sampled run, check
//! the recorded relation), applied to the locking hierarchy itself.
//!
//! Deliberate exceptions are *declared*, never silently ignored:
//! [`declare_order`] documents a sanctioned nesting with a reason; the
//! declared arcs are excluded from the cycle search but listed in every
//! [`LockOrderReport`], so an intentional inversion stays visible in the
//! analysis output instead of vanishing.  Holding one lock of a class
//! while blocking on another of the same class records a self-arc, which
//! is reported as a cycle.
//!
//! `try_lock` acquisitions record no ordering arc — a try-lock cannot
//! block, so it can never be the waiting edge of a deadlock — but a
//! try-acquired lock still joins the held chain, because *later*
//! blocking acquisitions under it are real ordering commitments.
//!
//! Cost: one thread-local push/pop per acquisition plus, for each held
//! lock, one probe of a thread-local seen-edge set; the global registry
//! mutex is touched only the first time a thread observes a given arc
//! (the standard lockdep trick), so steady-state tracking stays off any
//! shared cache line.

use mvcc_graph::{cycle, DiGraph, NodeId};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::panic::Location;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
// The registry guarding the lock-order graph cannot itself be a tracked
// lock (it would recurse into its own bookkeeping); it is the one
// sanctioned raw lock in the workspace, and it is never acquired while
// any tracked lock's *registry path* is active.
// lint: allow(raw-lock)
use std::sync::{Mutex as StdMutex, OnceLock, PoisonError};

/// A static lock class: one per logical lock role.  Create with
/// [`lock_class!`](crate::lock_class); identity is the class *name* (two statics with the
/// same name are the same class).
#[derive(Debug)]
pub struct LockClass {
    name: &'static str,
    /// Cached registry id + 1 (0 = not yet registered).
    slot: AtomicU32,
}

impl LockClass {
    /// Creates an unregistered class (use through [`lock_class!`](crate::lock_class)).
    pub const fn new(name: &'static str) -> Self {
        LockClass {
            name,
            slot: AtomicU32::new(0),
        }
    }

    /// The class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The dense registry id, registering on first use.
    fn id(&self) -> u32 {
        let cached = self.slot.load(Ordering::Relaxed);
        if cached != 0 {
            return cached - 1;
        }
        let id = registry().class_id(self.name);
        self.slot.store(id + 1, Ordering::Relaxed);
        id
    }
}

/// Declares a static [`LockClass`] in place and evaluates to a
/// `&'static LockClass` — the `lock_class!("store.txs")` idiom tags an
/// acquisition role at its construction site.
#[macro_export]
macro_rules! lock_class {
    ($name:expr) => {{
        static CLASS: $crate::lockdep::LockClass = $crate::lockdep::LockClass::new($name);
        &CLASS
    }};
}

/// One recorded arc of the lock-order graph, with its first witness.
#[derive(Debug, Clone)]
struct Edge {
    /// The held chain (outermost first) at the moment the target class
    /// was acquired, rendered as `class @ file:line`.
    holder_chain: Vec<String>,
    /// Where the target class was being acquired.
    acquire_site: String,
}

#[derive(Default)]
struct Inner {
    ids: BTreeMap<&'static str, u32>,
    names: Vec<&'static str>,
    edges: BTreeMap<(u32, u32), Edge>,
    /// Sanctioned `outer → inner` orders, with the documented reason.
    declared: BTreeMap<(u32, u32), &'static str>,
}

struct Registry {
    inner: StdMutex<Inner>,
}

impl Registry {
    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn class_id(&self, name: &'static str) -> u32 {
        let mut inner = self.locked();
        if let Some(&id) = inner.ids.get(name) {
            return id;
        }
        let id = inner.names.len() as u32;
        inner.names.push(name);
        inner.ids.insert(name, id);
        id
    }
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        inner: StdMutex::new(Inner::default()), // lint: allow(raw-lock)
    })
}

/// One lock currently held by the calling thread.
struct Held {
    class: u32,
    name: &'static str,
    site: &'static Location<'static>,
    token: u64,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    /// Arcs this thread has already pushed to the registry — the
    /// fast-path filter that keeps the global mutex off the hot path.
    static SEEN: RefCell<HashSet<(u32, u32)>> = RefCell::new(HashSet::new());
}

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

fn next_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// Records an acquisition: order arcs against every held lock (blocking
/// acquisitions only), then joins the held chain.  Returns the token the
/// matching release must present.
fn on_acquire(
    class: &'static LockClass,
    instance: u64,
    site: &'static Location<'static>,
    blocking: bool,
) -> u64 {
    let class_id = class.id();
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if blocking && !held.is_empty() {
            SEEN.with(|seen| {
                let mut seen = seen.borrow_mut();
                for h in held.iter() {
                    if seen.insert((h.class, class_id)) {
                        record_edge(&held, h.class, class_id, site);
                    }
                }
            });
        }
        held.push(Held {
            class: class_id,
            name: class.name,
            site,
            token,
        });
    });
    crate::hb::lock_acquired(class.name, instance);
    token
}

/// Records the arc `from → to` with a witness built from the current
/// held chain.  A declared order is recorded but excluded from the cycle
/// search (see [`check_prefixes`]).
fn record_edge(held: &[Held], from: u32, to: u32, site: &'static Location<'static>) {
    let mut inner = registry().locked();
    let witness = Edge {
        holder_chain: held
            .iter()
            .map(|h| format!("{} @ {}:{}", h.name, h.site.file(), h.site.line()))
            .collect(),
        acquire_site: format!("{}:{}", site.file(), site.line()),
    };
    inner.edges.entry((from, to)).or_insert(witness);
}

/// Removes the held-chain entry for `token` (out-of-order guard drops
/// are legal, so removal is by token, not stack discipline).
fn on_release(token: u64, class_name: &'static str, instance: u64) {
    crate::hb::lock_released(class_name, instance);
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|h| h.token == token) {
            held.remove(pos);
        }
    });
}

/// Declares a sanctioned `outer → inner` nesting with its reason.  The
/// declared arc is excluded from the cycle search but listed in every
/// [`LockOrderReport`]: the checker *documents* the intentional order
/// instead of silently ignoring it.
pub fn declare_order(outer: &'static str, inner: &'static str, reason: &'static str) {
    let from = registry().class_id(outer);
    let to = registry().class_id(inner);
    registry().locked().declared.insert((from, to), reason);
}

/// A clean bill of health from [`check_prefixes`]: what the analysis
/// covered, rendered deterministically (sorted by class id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockOrderReport {
    /// Class names in the checked subgraph, in registration order.
    pub classes: Vec<String>,
    /// Observed (undeclared) arcs `outer → inner`, as rendered strings.
    pub arcs: Vec<String>,
    /// Declared nestings `outer → inner: reason` (documented, excluded
    /// from the cycle search).
    pub documented: Vec<String>,
}

impl fmt::Display for LockOrderReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lock-order graph: {} classes, {} arcs, acyclic",
            self.classes.len(),
            self.arcs.len()
        )?;
        for arc in &self.arcs {
            writeln!(f, "  {arc}")?;
        }
        for doc in &self.documented {
            writeln!(f, "  [declared] {doc}")?;
        }
        Ok(())
    }
}

/// Checks the lock-order graph restricted to classes whose name starts
/// with any of `prefixes` (empty slice = the whole graph).  Returns the
/// acyclic report, or — on a potential deadlock — an error rendering the
/// cycle with both (or all) offending acquisition chains.
///
/// The restriction is what lets deliberately cyclic *test* scenarios
/// (class names prefixed `test.`) coexist in one process with the
/// engine-hierarchy check: each caller scopes the search to the
/// namespaces it owns.  Output is deterministic across runs: classes and
/// arcs are kept in `BTreeMap`s and rendered in id order.
pub fn check_prefixes(prefixes: &[&str]) -> Result<LockOrderReport, String> {
    let inner = registry().locked();
    let included: Vec<u32> = (0..inner.names.len() as u32)
        .filter(|&id| {
            let name = inner.names[id as usize];
            prefixes.is_empty() || prefixes.iter().any(|p| name.starts_with(p))
        })
        .collect();
    let mut graph = DiGraph::new();
    let mut node_of: BTreeMap<u32, NodeId> = BTreeMap::new();
    for &id in &included {
        node_of.insert(id, graph.add_node(inner.names[id as usize]));
    }
    let mut arcs = Vec::new();
    for (&(from, to), edge) in &inner.edges {
        let (Some(&a), Some(&b)) = (node_of.get(&from), node_of.get(&to)) else {
            continue;
        };
        if inner.declared.contains_key(&(from, to)) {
            continue;
        }
        graph.add_arc(a, b);
        arcs.push(format!(
            "{} -> {} (acquired at {})",
            inner.names[from as usize], inner.names[to as usize], edge.acquire_site
        ));
    }
    if let Some(cycle_nodes) = cycle::find_cycle(&graph) {
        let mut msg = String::from("potential deadlock: lock-order cycle\n  ");
        for node in &cycle_nodes {
            msg.push_str(graph.label(*node));
            msg.push_str(" -> ");
        }
        msg.push_str(graph.label(cycle_nodes[0]));
        msg.push('\n');
        // Render the witness of every arc along the cycle — the
        // offending acquisition chains, one per edge.
        let ids: Vec<u32> = cycle_nodes
            .iter()
            .map(|n| {
                included
                    .iter()
                    .copied()
                    .find(|id| inner.names[*id as usize] == graph.label(*n))
                    .unwrap_or(0)
            })
            .collect();
        for i in 0..ids.len() {
            let from = ids[i];
            let to = ids[(i + 1) % ids.len()];
            if let Some(edge) = inner.edges.get(&(from, to)) {
                msg.push_str(&format!(
                    "  chain for {} -> {}: acquiring {} at {} while holding [{}]\n",
                    inner.names[from as usize],
                    inner.names[to as usize],
                    inner.names[to as usize],
                    edge.acquire_site,
                    edge.holder_chain.join(", "),
                ));
            }
        }
        return Err(msg);
    }
    let documented = inner
        .declared
        .iter()
        .filter(|((from, to), _)| node_of.contains_key(from) && node_of.contains_key(to))
        .map(|((from, to), reason)| {
            format!(
                "{} -> {}: {}",
                inner.names[*from as usize], inner.names[*to as usize], reason
            )
        })
        .collect();
    Ok(LockOrderReport {
        classes: included
            .iter()
            .map(|&id| inner.names[id as usize].to_string())
            .collect(),
        arcs,
        documented,
    })
}

/// A mutex whose every acquisition feeds the lock-order graph and (when
/// a happens-before recording is active) the sync-event trace.
pub struct TrackedMutex<T: ?Sized> {
    class: &'static LockClass,
    instance: u64,
    inner: parking_lot::Mutex<T>, // lint: allow(raw-lock)
}

impl<T> TrackedMutex<T> {
    /// Creates a tracked mutex of the given class.
    pub fn new(class: &'static LockClass, value: T) -> Self {
        TrackedMutex {
            class,
            instance: next_instance(),
            inner: parking_lot::Mutex::new(value), // lint: allow(raw-lock)
        }
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquires the mutex, recording the ordering arc against every lock
    /// the calling thread already holds.
    #[track_caller]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let site = Location::caller();
        let guard = self.inner.lock();
        let token = on_acquire(self.class, self.instance, site, true);
        TrackedMutexGuard {
            guard,
            class: self.class,
            instance: self.instance,
            token,
        }
    }

    /// Attempts the mutex without blocking.  No ordering arc is recorded
    /// — a try-lock cannot be the waiting edge of a deadlock — but on
    /// success the lock joins the held chain like any other.
    #[track_caller]
    pub fn try_lock(&self) -> Option<TrackedMutexGuard<'_, T>> {
        let site = Location::caller();
        let guard = self.inner.try_lock()?;
        let token = on_acquire(self.class, self.instance, site, false);
        Some(TrackedMutexGuard {
            guard,
            class: self.class,
            instance: self.instance,
            token,
        })
    }

    /// Returns a mutable reference to the underlying data (no lock, no
    /// tracking — `&mut self` proves exclusivity statically).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("class", &self.class.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`TrackedMutex::lock`]; releases the held-chain
/// entry (and records the happens-before release event) on drop.
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    guard: parking_lot::MutexGuard<'a, T>, // lint: allow(raw-lock)
    class: &'static LockClass,
    instance: u64,
    token: u64,
}

impl<T: ?Sized> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Bookkeeping runs while the inner guard is still held (fields
        // drop after this body), so the recorded release precedes the
        // real one and the trace's per-lock order is sound.
        on_release(self.token, self.class.name, self.instance);
    }
}

/// A reader-writer lock with the same tracking discipline as
/// [`TrackedMutex`].  Read and write acquisitions share the class — a
/// read-held lock still orders everything acquired under it, and
/// writer-priority interleavings make even read-read re-entry a
/// potential deadlock, so the analysis conservatively treats both modes
/// alike (the witness records the mode).
pub struct TrackedRwLock<T: ?Sized> {
    class: &'static LockClass,
    instance: u64,
    inner: parking_lot::RwLock<T>, // lint: allow(raw-lock)
}

impl<T> TrackedRwLock<T> {
    /// Creates a tracked reader-writer lock of the given class.
    pub fn new(class: &'static LockClass, value: T) -> Self {
        TrackedRwLock {
            class,
            instance: next_instance(),
            inner: parking_lot::RwLock::new(value), // lint: allow(raw-lock)
        }
    }
}

impl<T: ?Sized> TrackedRwLock<T> {
    /// Acquires shared read access, recording ordering arcs.
    #[track_caller]
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let site = Location::caller();
        let guard = self.inner.read();
        let token = on_acquire(self.class, self.instance, site, true);
        TrackedReadGuard {
            guard,
            class: self.class,
            instance: self.instance,
            token,
        }
    }

    /// Acquires exclusive write access, recording ordering arcs.
    #[track_caller]
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let site = Location::caller();
        let guard = self.inner.write();
        let token = on_acquire(self.class, self.instance, site, true);
        TrackedWriteGuard {
            guard,
            class: self.class,
            instance: self.instance,
            token,
        }
    }

    /// Returns a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedRwLock")
            .field("class", &self.class.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared-read guard returned by [`TrackedRwLock::read`].
pub struct TrackedReadGuard<'a, T: ?Sized> {
    guard: parking_lot::RwLockReadGuard<'a, T>, // lint: allow(raw-lock)
    class: &'static LockClass,
    instance: u64,
    token: u64,
}

impl<T: ?Sized> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        on_release(self.token, self.class.name, self.instance);
    }
}

/// Exclusive-write guard returned by [`TrackedRwLock::write`].
pub struct TrackedWriteGuard<'a, T: ?Sized> {
    guard: parking_lot::RwLockWriteGuard<'a, T>, // lint: allow(raw-lock)
    class: &'static LockClass,
    instance: u64,
    token: u64,
}

impl<T: ?Sized> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        on_release(self.token, self.class.name, self.instance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn abba_is_reported_with_both_chains() {
        // The classic two-lock inversion, run *sequentially*: lockdep
        // flags the potential deadlock from the recorded orders without
        // ever needing the fatal interleaving.
        let a = Arc::new(TrackedMutex::new(lock_class!("test.abba.a"), 0u32));
        let b = Arc::new(TrackedMutex::new(lock_class!("test.abba.b"), 0u32));
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock();
        })
        .join()
        .expect("inversion thread");
        let err = check_prefixes(&["test.abba."]).expect_err("cycle must be reported");
        assert!(err.contains("potential deadlock"), "{err}");
        assert!(
            err.contains("test.abba.a") && err.contains("test.abba.b"),
            "{err}"
        );
        // Both offending acquisition chains are rendered.
        assert!(
            err.contains("chain for test.abba.a -> test.abba.b")
                && err.contains("chain for test.abba.b -> test.abba.a"),
            "{err}"
        );
        assert!(err.contains("while holding"), "{err}");
    }

    #[test]
    fn three_lock_cycle_is_reported() {
        let a = TrackedMutex::new(lock_class!("test.tri.a"), ());
        let b = TrackedMutex::new(lock_class!("test.tri.b"), ());
        let c = TrackedMutex::new(lock_class!("test.tri.c"), ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _gc = c.lock();
        }
        {
            let _gc = c.lock();
            let _ga = a.lock();
        }
        let err = check_prefixes(&["test.tri."]).expect_err("3-cycle must be reported");
        for class in ["test.tri.a", "test.tri.b", "test.tri.c"] {
            assert!(err.contains(class), "{err}");
        }
    }

    #[test]
    fn undeclared_same_class_nesting_is_a_cycle() {
        let s0 = TrackedMutex::new(lock_class!("test.selfarc.shard"), ());
        let s1 = TrackedMutex::new(lock_class!("test.selfarc.shard"), ());
        let _g0 = s0.lock();
        let _g1 = s1.lock();
        drop(_g1);
        drop(_g0);
        let err = check_prefixes(&["test.selfarc."]).expect_err("self-arc is a cycle");
        assert!(err.contains("test.selfarc.shard"), "{err}");
    }

    #[test]
    fn declared_order_is_documented_not_ignored() {
        declare_order(
            "test.doc.outer",
            "test.doc.inner",
            "inner is only reachable with outer held",
        );
        let outer = TrackedMutex::new(lock_class!("test.doc.outer"), ());
        let inner = TrackedMutex::new(lock_class!("test.doc.inner"), ());
        {
            let _go = outer.lock();
            let _gi = inner.lock();
        }
        let report = check_prefixes(&["test.doc."]).expect("declared order is clean");
        assert!(report.arcs.is_empty(), "declared arc excluded: {report}");
        assert_eq!(report.documented.len(), 1);
        assert!(
            report.documented[0].contains("inner is only reachable with outer held"),
            "{report}"
        );
    }

    #[test]
    fn try_lock_records_no_waiting_arc_but_holds_the_chain() {
        let a = TrackedMutex::new(lock_class!("test.try.a"), ());
        let b = TrackedMutex::new(lock_class!("test.try.b"), ());
        {
            // try_lock(a) under b: no b->a arc (try cannot block) ...
            let _gb = b.lock();
            let _ga = a.try_lock().expect("uncontended");
        }
        {
            // ... but a blocking lock UNDER a try-held lock is an arc.
            let _ga = a.try_lock().expect("uncontended");
            let _gb = b.lock();
        }
        let report = check_prefixes(&["test.try."]).expect("one direction only");
        assert_eq!(report.arcs.len(), 1, "{report}");
        assert!(
            report.arcs[0].starts_with("test.try.a -> test.try.b"),
            "{report}"
        );
    }

    #[test]
    fn reports_are_deterministic_across_runs() {
        let a = TrackedMutex::new(lock_class!("test.det.a"), ());
        let b = TrackedMutex::new(lock_class!("test.det.b"), ());
        let c = TrackedMutex::new(lock_class!("test.det.c"), ());
        let scenario = || {
            let _ga = a.lock();
            let _gb = b.lock();
            let _gc = c.lock();
        };
        scenario();
        let first = check_prefixes(&["test.det."]).expect("acyclic").to_string();
        scenario();
        scenario();
        let second = check_prefixes(&["test.det."]).expect("acyclic").to_string();
        assert_eq!(first, second, "same scenario, same report, run to run");
    }

    #[test]
    fn rwlock_read_and_write_share_the_class() {
        let rw = TrackedRwLock::new(lock_class!("test.rw.map"), 5u32);
        let m = TrackedMutex::new(lock_class!("test.rw.side"), ());
        {
            let _r = rw.read();
            let _g = m.lock();
        }
        {
            let _w = rw.write();
            let _g = m.lock();
        }
        assert_eq!(*rw.read(), 5);
        *rw.write() = 6;
        assert_eq!(*rw.read(), 6);
        let report = check_prefixes(&["test.rw."]).expect("acyclic");
        assert_eq!(report.arcs.len(), 1, "read and write collapse: {report}");
    }
}
