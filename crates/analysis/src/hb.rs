//! Vector-clock happens-before checking over recorded sync-event traces.
//!
//! A [`Recording`] captures every synchronization event the workspace
//! performs while it is active: tracked-lock acquire/release (emitted by
//! [`crate::lockdep`]) and named [`probe`] marks placed at the program
//! points a claim talks about.  [`Recording::finish`] runs a
//! FastTrack-style vector-clock pass over the trace — per-thread clocks,
//! joined through per-lock clocks — so that *happens-before* between any two events
//! is a decidable question about the recorded run, not an argument about
//! the code.
//!
//! This turns the repo's prose concurrency claims into executed checks:
//!
//! * `require_ordered("wal_append", "certifier_notify")` — the log is
//!   prefix-shaped: the WAL append for an admission batch
//!   happens-before every certifier notification for it;
//! * `sync_events_between(..)` — PR 7's "telemetry adds no
//!   synchronization edges": a hot-path recording burst contains zero
//!   lock events (meaningful because `mvcc-lint` forbids
//!   untracked locks workspace-wide, so an untracked edge can't hide);
//! * `require_same_critical_section(..)` — the store's begin rule:
//!   `MvStore::begin` chooses its snapshot and registers the tx under
//!   *one* acquisition of the tx-table lock.
//!
//! Recording is test-only machinery: when no recording is active every
//! hook is a single relaxed atomic load.  Recordings are serialized
//! process-wide (a global session lock) so concurrent `cargo test`
//! threads cannot interleave two traces; tracked-lock events from
//! unrelated threads may still appear in a trace and are harmless —
//! every assertion is scoped by the labels, keys, and classes the
//! asserting test itself placed.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// Recorder internals cannot use tracked locks (lockdep emits hb events
// on every tracked acquisition, which would recurse into the recorder).
// lint: allow(raw-lock)
use std::sync::{Mutex as StdMutex, MutexGuard, OnceLock, PoisonError};

/// What kind of synchronization (or observation) an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A tracked lock was acquired (read or write alike).
    Acquire,
    /// A tracked lock was released.
    Release,
    /// A named program-point mark (see [`probe`]).
    Mark,
}

/// One recorded synchronization event.
#[derive(Debug, Clone)]
struct Event {
    thread: u64,
    kind: EventKind,
    /// Class name for lock events, label for marks.
    name: &'static str,
    /// Lock instance or mark key.
    key: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn events() -> &'static StdMutex<Vec<Event>> {
    static EVENTS: OnceLock<StdMutex<Vec<Event>>> = OnceLock::new();
    EVENTS.get_or_init(|| StdMutex::new(Vec::new())) // lint: allow(raw-lock)
}

fn session() -> &'static StdMutex<()> {
    static SESSION: OnceLock<StdMutex<()>> = OnceLock::new();
    SESSION.get_or_init(|| StdMutex::new(())) // lint: allow(raw-lock)
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        let cur = id.get();
        if cur != 0 {
            return cur;
        }
        let fresh = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        id.set(fresh);
        fresh
    })
}

fn push(kind: EventKind, name: &'static str, key: u64) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let event = Event {
        thread: thread_id(),
        kind,
        name,
        key,
    };
    events()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(event);
}

/// Hook for [`crate::lockdep`]: a tracked lock of `class` was acquired.
pub(crate) fn lock_acquired(class: &'static str, instance: u64) {
    push(EventKind::Acquire, class, instance);
}

/// Hook for [`crate::lockdep`]: a tracked lock of `class` was released.
pub(crate) fn lock_released(class: &'static str, instance: u64) {
    push(EventKind::Release, class, instance);
}

/// Drops a named mark at the current program point.  `key`
/// disambiguates instances of the same claim (an LSN, a tx id): ordering
/// assertions pair marks label-to-label by equal key.
pub fn probe(label: &'static str, key: u64) {
    push(EventKind::Mark, label, key);
}

/// An active trace recording.  Created with [`Recording::start`];
/// consumed by [`Recording::finish`], which returns the analyzed
/// [`Trace`].  Only one recording exists at a time process-wide.
pub struct Recording {
    _session: MutexGuard<'static, ()>,
}

impl Recording {
    /// Starts recording synchronization events, blocking until any
    /// other in-flight recording finishes.
    pub fn start() -> Recording {
        let session = session().lock().unwrap_or_else(PoisonError::into_inner);
        events()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        ACTIVE.store(true, Ordering::SeqCst);
        Recording { _session: session }
    }

    /// Stops recording and runs the vector-clock pass over the captured
    /// events.
    pub fn finish(self) -> Trace {
        ACTIVE.store(false, Ordering::SeqCst);
        let captured =
            std::mem::take(&mut *events().lock().unwrap_or_else(PoisonError::into_inner));
        Trace::analyze(captured)
    }
}

/// A vector clock: one component per thread seen in the trace.
type Clock = Vec<u32>;

fn join(into: &mut Clock, other: &Clock) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (i, &v) in other.iter().enumerate() {
        if into[i] < v {
            into[i] = v;
        }
    }
}

/// One lock the thread held when a mark was dropped: which class, which
/// instance, and *which acquisition* of it (so two marks can be proven
/// to sit in the same critical section, not merely under the same lock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HeldSection {
    /// Lock class name.
    pub class: &'static str,
    /// Lock instance id.
    pub instance: u64,
    /// Ordinal of this acquisition of this instance within the trace.
    pub acquisition: u32,
}

/// An analyzed mark: where it sat in the trace, its vector clock, and
/// the critical sections it was dropped inside.
#[derive(Debug, Clone)]
struct MarkInfo {
    index: usize,
    thread_idx: usize,
    clock: Clock,
    held: Vec<HeldSection>,
}

/// An analyzed trace: the happens-before relation over one recorded
/// run, queryable by the marks the run dropped.
pub struct Trace {
    events: Vec<Event>,
    /// Per-event clock snapshot + dense thread index, same order.
    snapshots: Vec<(usize, Clock)>,
    /// label → key → first mark with that (label, key).
    marks: BTreeMap<&'static str, BTreeMap<u64, MarkInfo>>,
}

impl Trace {
    fn analyze(events: Vec<Event>) -> Trace {
        let mut thread_idx: BTreeMap<u64, usize> = BTreeMap::new();
        let mut clocks: Vec<Clock> = Vec::new();
        let mut lock_clocks: BTreeMap<(&'static str, u64), Clock> = BTreeMap::new();
        let mut held: BTreeMap<usize, Vec<HeldSection>> = BTreeMap::new();
        let mut acq_counts: BTreeMap<(&'static str, u64), u32> = BTreeMap::new();
        let mut snapshots = Vec::with_capacity(events.len());
        let mut marks: BTreeMap<&'static str, BTreeMap<u64, MarkInfo>> = BTreeMap::new();

        for (index, event) in events.iter().enumerate() {
            let tidx = *thread_idx.entry(event.thread).or_insert_with(|| {
                clocks.push(Clock::new());
                clocks.len() - 1
            });
            if clocks[tidx].len() <= tidx {
                clocks[tidx].resize(tidx + 1, 0);
            }
            clocks[tidx][tidx] += 1;
            if event.kind == EventKind::Acquire {
                if let Some(lc) = lock_clocks.get(&(event.name, event.key)) {
                    let lc = lc.clone();
                    join(&mut clocks[tidx], &lc);
                }
                let count = acq_counts.entry((event.name, event.key)).or_insert(0);
                *count += 1;
                held.entry(tidx).or_default().push(HeldSection {
                    class: event.name,
                    instance: event.key,
                    acquisition: *count,
                });
            }
            let snapshot = clocks[tidx].clone();
            match event.kind {
                EventKind::Release => {
                    lock_clocks.insert((event.name, event.key), snapshot.clone());
                    if let Some(stack) = held.get_mut(&tidx) {
                        if let Some(pos) = stack
                            .iter()
                            .rposition(|h| h.class == event.name && h.instance == event.key)
                        {
                            stack.remove(pos);
                        }
                    }
                }
                EventKind::Mark => {
                    marks
                        .entry(event.name)
                        .or_default()
                        .entry(event.key)
                        .or_insert_with(|| MarkInfo {
                            index,
                            thread_idx: tidx,
                            clock: snapshot.clone(),
                            held: held.get(&tidx).cloned().unwrap_or_default(),
                        });
                }
                _ => {}
            }
            snapshots.push((tidx, snapshot));
        }
        Trace {
            events,
            snapshots,
            marks,
        }
    }

    /// Number of events captured.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace captured nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn mark(&self, label: &str, key: u64) -> Result<&MarkInfo, String> {
        self.marks
            .get(label)
            .and_then(|m| m.get(&key))
            .ok_or_else(|| format!("no mark `{label}` with key {key} in trace"))
    }

    fn hb(&self, a: &MarkInfo, b: &MarkInfo) -> bool {
        let own = a.clock[a.thread_idx];
        b.clock.get(a.thread_idx).copied().unwrap_or(0) >= own && a.index < b.index
    }

    /// Checks that for every key carried by *both* labels, the
    /// `earlier` mark happens-before the `later` mark.  Errors if no
    /// key is shared (a vacuous pass would hide a missing probe) or if
    /// any pair is unordered or inverted.
    pub fn require_ordered(&self, earlier: &str, later: &str) -> Result<usize, String> {
        let (Some(first), Some(second)) = (self.marks.get(earlier), self.marks.get(later)) else {
            return Err(format!(
                "require_ordered({earlier}, {later}): a label has no marks in this trace"
            ));
        };
        let mut checked = 0;
        for (key, a) in first {
            let Some(b) = second.get(key) else { continue };
            if !self.hb(a, b) {
                return Err(format!(
                    "happens-before violation: `{earlier}` (key {key}) is not ordered \
                     before `{later}` (key {key})"
                ));
            }
            checked += 1;
        }
        if checked == 0 {
            return Err(format!(
                "require_ordered({earlier}, {later}): no shared keys — check is vacuous"
            ));
        }
        Ok(checked)
    }

    /// Checks that for every key carried by both labels, the two marks
    /// were dropped inside the *same acquisition* of a lock of `class`
    /// — the "atomic with respect to that lock" claim (e.g. `begin`
    /// chooses its snapshot and registers under one tx-table section).
    pub fn require_same_critical_section(
        &self,
        first: &str,
        second: &str,
        class: &str,
    ) -> Result<usize, String> {
        let (Some(a_marks), Some(b_marks)) = (self.marks.get(first), self.marks.get(second)) else {
            return Err(format!(
                "require_same_critical_section({first}, {second}): a label has no marks"
            ));
        };
        let mut checked = 0;
        for (key, a) in a_marks {
            let Some(b) = b_marks.get(key) else { continue };
            let shared = a.held.iter().any(|ha| {
                ha.class == class
                    && b.held.iter().any(|hb| {
                        hb.class == class
                            && hb.instance == ha.instance
                            && hb.acquisition == ha.acquisition
                    })
            });
            if !shared {
                return Err(format!(
                    "`{first}` and `{second}` (key {key}) are not inside the same \
                     `{class}` critical section: first holds {:?}, second holds {:?}",
                    a.held, b.held
                ));
            }
            checked += 1;
        }
        if checked == 0 {
            return Err(format!(
                "require_same_critical_section({first}, {second}): no shared keys"
            ));
        }
        Ok(checked)
    }

    /// Counts synchronization events (lock acquire/release) performed
    /// *by the marking thread* strictly between the
    /// `from` and `to` marks of `key`.  The "no sync edges" claim is
    /// this count being zero.
    pub fn sync_events_between(&self, from: &str, to: &str, key: u64) -> Result<usize, String> {
        let a = self.mark(from, key)?;
        let b = self.mark(to, key)?;
        if a.thread_idx != b.thread_idx {
            return Err(format!(
                "sync_events_between({from}, {to}): marks are on different threads"
            ));
        }
        if a.index >= b.index {
            return Err(format!(
                "sync_events_between({from}, {to}): `{from}` does not precede `{to}`"
            ));
        }
        Ok(self.events[a.index + 1..b.index]
            .iter()
            .zip(&self.snapshots[a.index + 1..b.index])
            .filter(|(e, (tidx, _))| {
                *tidx == a.thread_idx && matches!(e.kind, EventKind::Acquire | EventKind::Release)
            })
            .count())
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("events", &self.events.len())
            .field("labels", &self.marks.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock_class;
    use crate::lockdep::TrackedMutex;
    use std::sync::Arc;

    #[test]
    fn lock_handoff_orders_marks_across_threads() {
        let recording = Recording::start();
        let m = Arc::new(TrackedMutex::new(lock_class!("test.hb.handoff"), 0u64));
        {
            let mut g = m.lock();
            *g = 7;
            probe("hb.write", 1);
        }
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || {
            let g = m2.lock();
            assert_eq!(*g, 7);
            probe("hb.read", 1);
        })
        .join()
        .expect("reader thread");
        let trace = recording.finish();
        trace.require_ordered("hb.write", "hb.read").unwrap();
    }

    #[test]
    fn unsynchronized_marks_are_not_ordered() {
        let recording = Recording::start();
        probe("hb.solo.a", 1);
        std::thread::spawn(|| probe("hb.solo.b", 1))
            .join()
            .expect("thread");
        let trace = recording.finish();
        let err = trace
            .require_ordered("hb.solo.a", "hb.solo.b")
            .expect_err("no sync edge between the threads");
        assert!(err.contains("not ordered"), "{err}");
    }

    #[test]
    fn same_critical_section_is_distinguished_from_same_lock() {
        let recording = Recording::start();
        let m = TrackedMutex::new(lock_class!("test.hb.section"), ());
        {
            // One acquisition, both marks inside it: atomic.
            let _g = m.lock();
            probe("hb.sec.a", 1);
            probe("hb.sec.b", 1);
        }
        {
            // Same lock, split across two acquisitions: NOT atomic.
            let _g = m.lock();
            probe("hb.split.a", 2);
        }
        {
            let _g = m.lock();
            probe("hb.split.b", 2);
        }
        let trace = recording.finish();
        trace
            .require_same_critical_section("hb.sec.a", "hb.sec.b", "test.hb.section")
            .unwrap();
        let err = trace
            .require_same_critical_section("hb.split.a", "hb.split.b", "test.hb.section")
            .expect_err("separate acquisitions are not one critical section");
        assert!(err.contains("not inside the same"), "{err}");
    }

    #[test]
    fn sync_event_counting_sees_lock_traffic() {
        let recording = Recording::start();
        let m = TrackedMutex::new(lock_class!("test.hb.burst"), ());
        probe("hb.burst.start", 9);
        {
            let _g = m.lock();
        }
        probe("hb.burst.end", 9);
        probe("hb.quiet.start", 9);
        probe("hb.quiet.end", 9);
        let trace = recording.finish();
        assert_eq!(
            trace
                .sync_events_between("hb.burst.start", "hb.burst.end", 9)
                .expect("same thread"),
            2,
            "one acquire + one release"
        );
        assert_eq!(
            trace
                .sync_events_between("hb.quiet.start", "hb.quiet.end", 9)
                .expect("same thread"),
            0
        );
    }
}
