//! Layer micro-measurements: each layer's public functions timed from
//! outside, single-threaded, on the workload's own traffic shape.
//!
//! They give each layer's *floor* per transaction; what the engine spends
//! on top of the floors is reported as `engine.unattributed_ns` by the
//! traced run.  Work is fixed (op-bounded), so the counts among them —
//! reject ratios, bytes per transaction — repeat exactly for a seed.

use crate::checks::initial;
use crate::fixed::build_log;
use crate::report::Outcome;
use crate::stats::{mean, median, now};
use crate::traffic::{AccessStream, Accesses, Shape, STEPS};
use mvcc_analysis::lock_class;
use mvcc_analysis::lockdep::TrackedMutex;
use mvcc_classify::{is_csr, is_mvcsr, is_mvsr, is_vsr};
use mvcc_core::{Action, EntityId, Schedule, Step, TxId};
use mvcc_durability::{
    encode_record, read_tail, scan_log, DurabilityMode, WalCursor, WalRecord, WalWriter,
};
use mvcc_engine::{Bytes, CertifierKind};
use mvcc_replica::Replica;
use mvcc_store::{gc, MvStore, TxHandle};
use mvcc_workload::{random_interleavings, WorkloadConfig};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Concurrent virtual sessions the certifier feed interleaves.
const SESSIONS: usize = 8;
/// Transactions per certifier feed (also the audited histories' source).
pub const FEED_TXNS: usize = 5_000;
/// Transactions in the probe log the durability and replica probes replay.
const PROBE_LOG_TXNS: usize = 20_000;

/// Mean cost of one `now()`…`elapsed()` pair, ns: what per-call timing
/// adds to every sample and is subtracted again.
fn clock_overhead_ns() -> f64 {
    let rounds = 200_000;
    let started = now();
    let mut sink = 0u128;
    for _ in 0..rounds {
        sink += std::hint::black_box(now()).elapsed().as_nanos();
    }
    std::hint::black_box(sink);
    started.elapsed().as_nanos() as f64 / rounds as f64
}

/// A per-call timer that nets out the clock's own cost.
struct CallTimer {
    overhead_ns: f64,
    total_ns: f64,
    calls: u64,
}

impl CallTimer {
    fn new(overhead_ns: f64) -> Self {
        CallTimer {
            overhead_ns,
            total_ns: 0.0,
            calls: 0,
        }
    }

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = now();
        let out = f();
        self.total_ns += started.elapsed().as_nanos() as f64;
        self.calls += 1;
        out
    }

    fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            (self.total_ns / self.calls as f64 - self.overhead_ns).max(0.0)
        }
    }
}

/// What feeding a certifier a step stream measured.
pub struct Feed {
    /// Mean ns per `admit`.
    pub admit_ns: f64,
    /// Mean ns per `on_commit` / `on_abort`.
    pub finish_ns: f64,
    /// Transactions rejected ÷ transactions finished.
    pub reject_ratio: f64,
    /// Admitted steps of the transactions that finished, in admission order.
    pub committed: Schedule,
}

/// Feeds `kind.build()` the workload's step stream single-threaded:
/// [`SESSIONS`] virtual sessions offer their next step round-robin; a
/// rejected transaction is aborted and its session starts the next one;
/// the feed ends when `txns` transactions have finished either way.
pub fn feed(kind: CertifierKind, shape: Shape, seed: u64, txns: usize, overhead_ns: f64) -> Feed {
    let mut certifier = kind.build();
    let mut stream = AccessStream::new(shape, seed, 0, 0);
    let (mut admit, mut finish) = (CallTimer::new(overhead_ns), CallTimer::new(overhead_ns));
    let mut next_tx = 1u32;
    let mut open = |stream: &mut AccessStream| -> (TxId, Accesses, usize) {
        let tx = TxId(next_tx);
        next_tx += 1;
        (tx, stream.next_txn(), 0)
    };
    let mut sessions: Vec<(TxId, Accesses, usize)> =
        (0..SESSIONS).map(|_| open(&mut stream)).collect();
    let mut admitted: Vec<Step> = Vec::with_capacity(txns * STEPS);
    let mut committed: BTreeSet<TxId> = BTreeSet::new();
    let (mut finished, mut rejected) = (0usize, 0usize);
    'feed: loop {
        for session in &mut sessions {
            let (tx, accesses, at) = session;
            let (action, entity) = accesses[*at];
            let step = Step {
                tx: *tx,
                action,
                entity,
            };
            if admit.time(|| certifier.admit(step)).is_admitted() {
                admitted.push(step);
                *at += 1;
                if *at < accesses.len() {
                    continue;
                }
                finish.time(|| certifier.on_commit(*tx));
                committed.insert(*tx);
            } else {
                finish.time(|| certifier.on_abort(*tx));
                rejected += 1;
            }
            finished += 1;
            if finished == txns {
                break 'feed;
            }
            *session = open(&mut stream);
        }
    }
    admitted.retain(|s| committed.contains(&s.tx));
    Feed {
        admit_ns: admit.mean_ns(),
        finish_ns: finish.mean_ns(),
        reject_ratio: rejected as f64 / finished as f64,
        committed: Schedule::from_steps(admitted),
    }
}

/// Resident set size of this process now, bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    proc_status_kb("VmRSS:") * 1024
}

/// Peak resident set size of this process, bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    proc_status_kb("VmHWM:") * 1024
}

fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The floors of the layers the engine stacks, per transaction.
#[derive(Debug, Default, Clone, Copy)]
pub struct Floors {
    pub store_begin_ns: f64,
    pub store_read_ns: f64,
    pub store_write_ns: f64,
    pub store_commit_ns: f64,
    pub encode_ns: f64,
    pub append_ns: f64,
    pub flush_us: f64,
    pub fsync_us: f64,
}

fn run_store_txn(
    store: &MvStore,
    tx: TxId,
    accesses: &Accesses,
    timers: &mut [CallTimer; 3],
) -> TxHandle {
    let [begin, read, write] = timers;
    let handle = begin
        .time(|| store.begin(tx))
        .expect("fresh transaction id");
    for &(action, entity) in accesses {
        match action {
            Action::Read => {
                read.time(|| store.read_latest(handle, entity))
                    .expect("entity exists");
            }
            Action::Write => {
                let value = Bytes::copy_from_slice(&tx.0.to_le_bytes());
                write
                    .time(|| store.write(handle, entity, value))
                    .expect("active transaction");
            }
        }
    }
    handle
}

/// One GC pass the way the engine runs it; median of five, µs.
fn gc_pass_us(store: &MvStore) -> f64 {
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let started = now();
            let watermark = gc::watermark(store);
            std::hint::black_box(gc::collect_with_watermark(store, watermark));
            started.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&passes)
}

/// `store.*`: `MvStore` driven directly.
fn store_probe(shape: Shape, seed: u64, overhead_ns: f64, out: &mut Outcome) -> Floors {
    let store = MvStore::with_entities((0..shape.entities as u32).map(EntityId), initial());
    let mut stream = AccessStream::new(shape, seed, 0, 0);
    let mut timers = [0; 3].map(|_| CallTimer::new(overhead_ns));
    let mut commit_b1 = CallTimer::new(overhead_ns);
    let mut next_tx = 1u32;
    for _ in 0..10_000 {
        let handle = run_store_txn(&store, TxId(next_tx), &stream.next_txn(), &mut timers);
        next_tx += 1;
        commit_b1.time(|| store.commit_many(&[handle]));
    }
    let gc_10k = gc_pass_us(&store);
    let rss_10k = rss_bytes();
    // The rest in groups of eight, committed as one batch.
    let mut commit_b8 = CallTimer::new(overhead_ns);
    while next_tx <= 100_000 {
        let handles: Vec<TxHandle> = (0..8)
            .map(|_| {
                let handle = run_store_txn(&store, TxId(next_tx), &stream.next_txn(), &mut timers);
                next_tx += 1;
                handle
            })
            .collect();
        commit_b8.time(|| store.commit_many(&handles));
    }
    let gc_100k = gc_pass_us(&store);
    let rss_100k = rss_bytes();
    let [begin, read, write] = &timers;
    out.metric("store.begin_ns", begin.mean_ns(), "ns");
    out.metric("store.read_ns", read.mean_ns(), "ns");
    out.metric("store.write_ns", write.mean_ns(), "ns");
    out.metric("store.commit_many_ns.b1", commit_b1.mean_ns(), "ns");
    out.metric("store.commit_many_ns.b8", commit_b8.mean_ns() / 8.0, "ns");
    out.metric("store.gc_pass_us.10k", gc_10k, "us");
    out.metric("store.gc_pass_us.100k", gc_100k, "us");
    out.metric(
        "store.rss_bytes_per_txn",
        rss_100k.saturating_sub(rss_10k) as f64 / f64::from(next_tx - 10_001),
        "B",
    );
    Floors {
        store_begin_ns: begin.mean_ns(),
        store_read_ns: read.mean_ns(),
        store_write_ns: write.mean_ns(),
        store_commit_ns: commit_b1.mean_ns(),
        ..Floors::default()
    }
}

/// Splits a scanned log into the record groups the engine appended per
/// transaction (each ends with its commit record).
fn per_txn(records: Vec<WalRecord>) -> Vec<Vec<WalRecord>> {
    let mut groups = Vec::new();
    let mut current = Vec::new();
    for record in records {
        let ends = matches!(record, WalRecord::Commit { .. });
        current.push(record);
        if ends {
            groups.push(std::mem::take(&mut current));
        }
    }
    groups
}

fn rate(count: usize, started: Instant) -> f64 {
    count as f64 / started.elapsed().as_secs_f64()
}

/// `durability.*` and `replica.*`: a real log, written by a
/// single-threaded engine on the workload's traffic, is scanned,
/// recovered, tailed and shipped to a replica; its own records are then
/// re-encoded and re-appended to time the writer.
fn log_probe(
    shape: Shape,
    seed: u64,
    txns: usize,
    out_dir: &Path,
    floors: &mut Floors,
    out: &mut Outcome,
) {
    let dir = out_dir.join("probe-wal");
    let (engine, acked) = build_log(shape, seed, txns, &dir);
    drop(engine);

    let started = now();
    let scan = scan_log(&dir).expect("scan the probe log");
    let records = scan.records.len();
    out.metric("durability.scan_rec_s", rate(records, started), "1/s");

    let opts = crate::checks::recovery_options(shape.entities);
    let started = now();
    let state = mvcc_durability::recover(&dir, &opts).expect("recover the probe log");
    out.metric("durability.recover_rec_s", rate(records, started), "1/s");
    out.check(
        "probe log: recover returns the acknowledged commits",
        crate::checks::recovered_exactly(&acked, &state.committed),
    );
    drop(state);

    let started = now();
    let mut cursor = WalCursor::origin();
    let mut tailed = 0;
    loop {
        let batch = read_tail(&dir, &mut cursor, 512).expect("tail the probe log");
        tailed += batch.records.len();
        if batch.caught_up {
            break;
        }
    }
    out.metric("durability.tail_rec_s", rate(tailed, started), "1/s");

    let config = crate::checks::replica_config(shape.entities);
    let started = now();
    let replica = Arc::new(Replica::open(config, &dir).expect("open a replica on the probe log"));
    let receipt = replica.catch_up().expect("catch the replica up");
    let apply_s = started.elapsed().as_secs_f64();
    out.metric(
        "replica.apply_rec_s",
        receipt.records as f64 / apply_s,
        "1/s",
    );
    out.metric(
        "replica.apply_commit_us",
        apply_s * 1e6 / receipt.commits as f64,
        "us",
    );
    let mut stream = AccessStream::new(shape, seed, 1, 0);
    let mut reads_ns = 0u128;
    let sessions = 2_000;
    for _ in 0..sessions {
        let accesses = stream.next_txn();
        let mut session = replica.begin_read();
        let started = now();
        for &(_, entity) in &accesses {
            std::hint::black_box(session.read(entity).expect("entity exists"));
        }
        reads_ns += started.elapsed().as_nanos();
        session.finish();
    }
    out.metric(
        "replica.follower_read_ns",
        reads_ns as f64 / (sessions * STEPS) as f64,
        "ns",
    );
    drop(replica);

    // The writer's CPU path, on the log's own records.
    let groups = per_txn(scan.records.into_iter().map(|r| r.record).collect());
    let mut buf = Vec::with_capacity(1 << 16);
    let started = now();
    let mut encoded = 0usize;
    for group in &groups {
        buf.clear();
        for record in group {
            encode_record(encoded as u64, 0, record, &mut buf);
            encoded += 1;
        }
        std::hint::black_box(&buf);
    }
    floors.encode_ns = started.elapsed().as_nanos() as f64 / encoded as f64;
    out.metric("durability.encode_ns", floors.encode_ns, "ns");

    let copy = out_dir.join("probe-wal-copy");
    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy).expect("create the probe copy directory");
    let writer = WalWriter::open(&copy, DurabilityMode::Buffered, 8 << 20).expect("open a writer");
    let (mut append, mut flush) = (CallTimer::new(0.0), CallTimer::new(0.0));
    let mut bytes = 0u64;
    for group in &groups {
        bytes += append
            .time(|| writer.append_batch(group))
            .expect("append")
            .bytes;
        flush.time(|| writer.flush()).expect("flush");
    }
    drop(writer);
    floors.append_ns = append.total_ns / encoded as f64;
    floors.flush_us = flush.mean_ns() / 1e3;
    out.metric("durability.append_ns", floors.append_ns, "ns");
    out.metric("durability.flush_us", floors.flush_us, "us");
    out.metric(
        "durability.wal_bytes_per_txn",
        bytes as f64 / groups.len() as f64,
        "B",
    );

    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy).expect("create the probe copy directory");
    let writer = WalWriter::open(&copy, DurabilityMode::Fsync, 8 << 20).expect("open a writer");
    let fsyncs: Vec<f64> = groups
        .iter()
        .take(200)
        .map(|group| {
            writer.append_batch(group).expect("append");
            let started = now();
            writer.flush().expect("fsync");
            started.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    drop(writer);
    floors.fsync_us = median(&fsyncs);
    out.metric("durability.fsync_us", floors.fsync_us, "us");
    let _ = std::fs::remove_dir_all(&copy);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `classify.*`: each classifier alone on a small corpus, and the audits
/// of the certifier feeds' committed histories.
fn classify_probe(seed: u64, sgt: &Schedule, mv_sgt: &Schedule, out: &mut Outcome) {
    let corpus = random_interleavings(
        &WorkloadConfig {
            transactions: 8,
            steps_per_transaction: STEPS,
            entities: 8,
            read_ratio: 0.5,
            zipf_theta: 0.0,
            seed,
        },
        200,
    );
    let checkers: [(&str, fn(&Schedule) -> bool); 4] = [
        ("classify.csr_us", is_csr),
        ("classify.mvcsr_us", is_mvcsr),
        ("classify.vsr_us", is_vsr),
        ("classify.mvsr_us", is_mvsr),
    ];
    for (name, check) in checkers {
        let started = now();
        for schedule in &corpus {
            std::hint::black_box(check(std::hint::black_box(schedule)));
        }
        out.metric(
            name,
            started.elapsed().as_nanos() as f64 / 1e3 / corpus.len() as f64,
            "us",
        );
    }
    let audits: [(&str, &str, &Schedule, fn(&Schedule) -> bool); 2] = [
        (
            "classify.audit_csr_ms",
            "sgt feed: committed history in CSR",
            sgt,
            is_csr,
        ),
        (
            "classify.audit_mvcsr_ms",
            "mv-sgt feed: committed history in MVCSR",
            mv_sgt,
            is_mvcsr,
        ),
    ];
    for (name, what, history, check) in audits {
        let started = now();
        let in_class = check(std::hint::black_box(history));
        out.metric(name, started.elapsed().as_nanos() as f64 / 1e6, "ms");
        out.check(
            what,
            if in_class {
                Ok(())
            } else {
                Err(format!("{} steps out of class", history.len()))
            },
        );
    }
}

/// `analysis.*`: an uncontended lock + unlock, tracked shim against the
/// raw mutex underneath it.
fn lock_probe(out: &mut Outcome) {
    let rounds = 1_000_000u32;
    let tracked = TrackedMutex::new(lock_class!("benchmark.lock-probe"), 0u64);
    let started = now();
    for _ in 0..rounds {
        *std::hint::black_box(&tracked).lock() += 1;
    }
    out.metric(
        "analysis.tracked_lock_ns",
        started.elapsed().as_nanos() as f64 / f64::from(rounds),
        "ns",
    );
    // lint: allow(raw-lock) — the raw mutex is the thing being measured
    let raw = parking_lot::Mutex::new(0u64);
    let started = now();
    for _ in 0..rounds {
        *std::hint::black_box(&raw).lock() += 1;
    }
    out.metric(
        "analysis.raw_lock_ns",
        started.elapsed().as_nanos() as f64 / f64::from(rounds),
        "ns",
    );
    assert_eq!(*tracked.lock(), *raw.lock());
}

/// Mean certifier floors over the six certifiers, per transaction.
pub struct SchedulerFloor {
    pub admit_ns: f64,
    pub finish_ns: f64,
}

/// Runs every layer probe on `shape` (`smoke`: a tenth of the feed and of
/// the probe log); pushes the per-layer metrics and returns the floors
/// `engine.unattributed_ns` is computed against.
pub fn probe_layers(
    shape: Shape,
    seed: u64,
    out_dir: &Path,
    smoke: bool,
    out: &mut Outcome,
) -> (Floors, Vec<(CertifierKind, SchedulerFloor)>) {
    let shrink = if smoke { 10 } else { 1 };
    let overhead_ns = clock_overhead_ns();
    let mut scheduler_floors = Vec::new();
    let mut histories = Vec::new();
    for kind in CertifierKind::all() {
        let fed = feed(kind, shape, seed, FEED_TXNS / shrink, overhead_ns);
        let name = kind.name();
        out.metric(format!("scheduler.{name}.admit_ns"), fed.admit_ns, "ns");
        out.metric(format!("scheduler.{name}.finish_ns"), fed.finish_ns, "ns");
        out.metric(
            format!("scheduler.{name}.reject_ratio"),
            fed.reject_ratio,
            "ratio",
        );
        scheduler_floors.push((
            kind,
            SchedulerFloor {
                admit_ns: fed.admit_ns,
                finish_ns: fed.finish_ns,
            },
        ));
        histories.push((kind, fed.committed));
    }
    let history = |kind| {
        &histories
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("every certifier was fed")
            .1
    };
    let mut floors = store_probe(shape, seed, overhead_ns, out);
    log_probe(
        shape,
        seed,
        PROBE_LOG_TXNS / shrink,
        out_dir,
        &mut floors,
        out,
    );
    classify_probe(
        seed,
        history(CertifierKind::Sgt),
        history(CertifierKind::MvSgt),
        out,
    );
    lock_probe(out);
    out.detail.push(format!(
        "  layer probes: clock pair overhead {overhead_ns:.1} ns netted out of per-call timings; mean over certifiers: admit {:.1} ns, finish {:.1} ns",
        mean(&scheduler_floors.iter().map(|(_, f)| f.admit_ns).collect::<Vec<_>>()),
        mean(&scheduler_floors.iter().map(|(_, f)| f.finish_ns).collect::<Vec<_>>()),
    ));
    (floors, scheduler_floors)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: Shape = Shape {
        entities: 64,
        theta: 0.9,
        read_share: 0.5,
    };

    #[test]
    fn the_feed_repeats_exactly_and_stays_in_class() {
        let a = feed(CertifierKind::Sgt, HOT, 9, 400, 0.0);
        let b = feed(CertifierKind::Sgt, HOT, 9, 400, 0.0);
        assert_eq!(a.reject_ratio, b.reject_ratio);
        assert_eq!(a.committed, b.committed);
        assert!(a.reject_ratio > 0.0, "a hot feed must reject something");
        assert!(is_csr(&a.committed));
        let mv = feed(CertifierKind::MvSgt, HOT, 9, 400, 0.0);
        assert!(is_mvcsr(&mv.committed));
    }

    #[test]
    fn log_records_group_per_transaction() {
        let tx = TxId(1);
        let step = WalRecord::Read {
            tx,
            entity: EntityId(0),
        };
        let commit = WalRecord::Commit { entries: vec![] };
        let groups = per_txn(vec![
            WalRecord::Begin { tx },
            step.clone(),
            commit.clone(),
            step,
            commit,
        ]);
        assert_eq!(groups.iter().map(Vec::len).collect::<Vec<_>>(), [3, 2]);
    }

    #[test]
    fn process_memory_is_readable() {
        // Other tests allocate meanwhile: sample the current size first.
        let current = rss_bytes();
        assert!(current > 0);
        assert!(peak_rss_bytes() >= current);
    }
}
