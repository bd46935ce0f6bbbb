//! Time-bounded load slices against a fresh engine: closed loop and paced.
//!
//! New code over `Engine::new` / `Engine::begin` / `Session::{read,write,
//! commit}` only.  One slice = one certifier on a fresh engine: warm-up,
//! then a measured window; `nproc` workers, each with its own seeded
//! access stream.  An operation is complete when a transaction commits:
//! when the engine aborts an attempt the client draws the next access list
//! from its stream and tries again, so aborts show up as latency, lost
//! throughput and the per-layer retry ratio rather than as failed
//! operations.  (Retrying the *same* list is not an option today: under
//! TSO and MVTO a read can be directed at a version GC has reclaimed, and
//! it stays reclaimed until somebody overwrites the entity — two workers
//! retrying such reads livelock.  See README, "What the probe found".)

use crate::spans::{timed, Name, SpanBuf, ROOT};
use crate::stats::now;
use crate::traffic::{AccessStream, Accesses, Shape};
use mvcc_core::{Action, TxId};
use mvcc_engine::{
    Bytes, CertifierKind, DurabilityConfig, DurabilityMode, Engine, EngineConfig, GcDriver,
    MetricsSnapshot, TelemetryMode,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Store shards on every engine workload.
pub const SHARDS: usize = 2;
/// The GC period every example and harness in the repo uses.
pub const GC_PERIOD: Duration = Duration::from_millis(1);
/// Attempts after which a logical transaction is abandoned (counted as a
/// failed operation; never reached on the shipped workloads).
const MAX_ATTEMPTS: u32 = 10_000;
/// Span capacity per worker and slice (8 spans per transaction).
const SPAN_CAPACITY: usize = 1 << 19;

/// Everything that defines one slice.
#[derive(Debug, Clone)]
pub struct Slice {
    pub kind: CertifierKind,
    pub shape: Shape,
    pub durability: DurabilityMode,
    /// WAL directory (used when `durability` is on; must not exist yet).
    pub wal_dir: PathBuf,
    /// Offered transactions per second over all workers; `None` runs a
    /// closed loop (each worker starts its next transaction when the
    /// previous one completed).
    pub pace: Option<f64>,
    pub workers: usize,
    pub warmup: Duration,
    pub measure: Duration,
    pub telemetry: TelemetryMode,
    pub seed: u64,
    pub round: usize,
    /// Record spans and time GC passes from a benchmark thread.
    pub traced: bool,
}

/// What a worker saw during the measured window.
#[derive(Debug, Default)]
pub struct WorkerLog {
    /// Due time (closed loop: `begin()`) to `commit()` returning `Ok`, ns.
    pub latencies_ns: Vec<u64>,
    /// How late `begin()` ran after the due time, ns (paced only).
    pub lateness_ns: Vec<u64>,
    /// Logical transactions started inside the measured window.
    pub attempted: u64,
    /// Of those, abandoned after [`MAX_ATTEMPTS`].
    pub abandoned: u64,
    /// Engine sessions used (attempted + retries).
    pub sessions: u64,
    /// Commits by quarter of the measured window.
    pub quarter_commits: [u64; 4],
    /// Transactions whose accesses span more than one shard (traced only).
    pub cross_shard: u64,
    /// Every acknowledged commit, warm-up included (durable slices only).
    pub acked: Vec<TxId>,
}

/// The outcome of one slice.
pub struct SliceResult {
    pub kind: CertifierKind,
    pub round: usize,
    pub logs: Vec<WorkerLog>,
    /// Length of the measured window as run, seconds.
    pub seconds: f64,
    /// Set-up of the slice, seconds: from nothing to the start of the
    /// measured window — engine, GC driver, workers, warm-up.
    pub setup_s: f64,
    /// Engine counters at the end of the slice (warm-up included).
    pub metrics: MetricsSnapshot,
    pub spans: Vec<SpanBuf>,
    /// Duration of every timed GC pass, ns (traced only).
    pub gc_pass_ns: Vec<u64>,
    /// The engine, kept for the correctness checks that follow the slice.
    pub engine: Arc<Engine>,
}

impl SliceResult {
    pub fn committed(&self) -> u64 {
        self.logs.iter().map(|l| l.latencies_ns.len() as u64).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum()
    }

    pub fn abandoned(&self) -> u64 {
        self.logs.iter().map(|l| l.abandoned).sum()
    }

    /// Committed transactions per measured second.
    pub fn txn_s(&self) -> f64 {
        self.committed() as f64 / self.seconds
    }

    /// Share of measured engine sessions that were retries of an aborted
    /// attempt.
    pub fn retry_ratio(&self) -> f64 {
        let sessions: u64 = self.logs.iter().map(|l| l.sessions).sum();
        if sessions == 0 {
            0.0
        } else {
            (sessions - self.attempted()) as f64 / sessions as f64
        }
    }
}

/// The timing plan of one worker.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub start: Instant,
    pub warm_end: Instant,
    pub end: Instant,
    /// Interval between this worker's due times; `None` = closed loop.
    pub period: Option<Duration>,
}

/// The transactions a worker runs; the engine client below is the real
/// one, the unit tests substitute stubs.
pub trait Client {
    type Txn;
    /// Produces the next transaction's inputs.
    fn generate(&mut self) -> Self::Txn;
    /// Runs one operation to completion, starting with `txn`; returns the
    /// number of attempts it took, 0 when it was abandoned.  `root` is the
    /// open `txn` span when tracing.
    fn execute(&mut self, txn: Self::Txn, spans: &mut Option<&mut SpanBuf>, root: u32) -> u32;
    /// Called after each operation started inside the measured window.
    fn measured(&mut self) {}
}

fn wait_until(due: Instant) {
    loop {
        let t = now();
        if t >= due {
            return;
        }
        // Far from the deadline, give the GC thread the core; close to
        // it, spin (a sleep's wake-up slack would be charged to latency).
        if due - t > Duration::from_micros(50) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one worker's loop until the plan's end.
///
/// Paced: transaction `k` is due at `start + k·period` whatever happened
/// before, and its latency runs from that due time — a stall is charged to
/// every transaction that was due while it lasted (no coordinated
/// omission).  Closed loop: a transaction is due when its predecessor
/// completed.
pub fn drive<C: Client>(plan: Plan, client: &mut C, mut spans: Option<&mut SpanBuf>) -> WorkerLog {
    let mut log = WorkerLog::default();
    log.latencies_ns.reserve(1 << 18);
    let window = (plan.end - plan.warm_end).as_nanos().max(1);
    let mut k: u32 = 0;
    loop {
        let root = match &mut spans {
            Some(buf) => buf.open(Name::Txn, ROOT, 0),
            None => ROOT,
        };
        let txn = timed(&mut spans, Name::Gen, root, 0, || client.generate());
        let due = match plan.period {
            Some(period) => {
                let due = plan.start + period * k;
                k += 1;
                timed(&mut spans, Name::Wait, root, 0, || wait_until(due));
                due
            }
            None => now(),
        };
        if due >= plan.end {
            if let Some(buf) = &mut spans {
                buf.truncate(root);
            }
            return log;
        }
        let begun = now();
        let attempts = client.execute(txn, &mut spans, root);
        let done = now();
        if let Some(buf) = &mut spans {
            if due < plan.warm_end {
                buf.truncate(root);
            } else {
                buf.close(root);
            }
        }
        if due < plan.warm_end {
            continue;
        }
        client.measured();
        log.attempted += 1;
        if attempts == 0 {
            log.abandoned += 1;
            log.sessions += u64::from(MAX_ATTEMPTS);
            continue;
        }
        log.sessions += u64::from(attempts);
        log.latencies_ns.push((done - due).as_nanos() as u64);
        if plan.period.is_some() {
            log.lateness_ns.push((begun - due).as_nanos() as u64);
        }
        let quarter =
            (done.saturating_duration_since(plan.warm_end).as_nanos() * 4 / window) as usize;
        log.quarter_commits[quarter.min(3)] += 1;
    }
}

/// A worker's client over the real engine.
struct EngineClient {
    engine: Arc<Engine>,
    stream: AccessStream,
    /// Collect acknowledged commits (durable slices).
    ack: bool,
    acked: Vec<TxId>,
    /// Count cross-shard transactions (traced slices).
    count_shards: bool,
    last_crossed: bool,
    cross_shard: u64,
}

impl Client for EngineClient {
    type Txn = Accesses;

    fn generate(&mut self) -> Accesses {
        self.stream.next_txn()
    }

    fn execute(&mut self, mut txn: Accesses, spans: &mut Option<&mut SpanBuf>, root: u32) -> u32 {
        for attempt in 1..=MAX_ATTEMPTS {
            let mut session = timed(spans, Name::Begin, root, 0, || self.engine.begin());
            let tx = session.id();
            let mut ok = true;
            for &(action, entity) in &txn {
                let outcome = match action {
                    Action::Read => timed(spans, Name::Read, root, tx.0, || {
                        session.read(entity).map(drop)
                    }),
                    Action::Write => {
                        let value = Bytes::copy_from_slice(&tx.0.to_le_bytes());
                        timed(spans, Name::Write, root, tx.0, || {
                            session.write(entity, value)
                        })
                    }
                };
                if outcome.is_err() {
                    // The engine has already aborted the session.
                    ok = false;
                    break;
                }
            }
            if ok && timed(spans, Name::Commit, root, tx.0, || session.commit()).is_ok() {
                if let Some(buf) = spans {
                    buf.set_tx(root, tx.0);
                }
                if self.ack {
                    self.acked.push(tx);
                }
                if self.count_shards {
                    let shards = self.engine.shards();
                    let first = shards.shard_of(txn[0].1);
                    self.last_crossed = txn.iter().any(|&(_, e)| shards.shard_of(e) != first);
                }
                return attempt;
            }
            txn = timed(spans, Name::Gen, root, 0, || self.stream.next_txn());
        }
        0
    }

    fn measured(&mut self) {
        self.cross_shard += u64::from(self.last_crossed);
    }
}

/// Times every `collect_garbage` call at the GC period — the traced
/// run's stand-in for `GcDriver`.
fn timed_gc(engine: Arc<Engine>, stop: Arc<AtomicBool>, mut buf: SpanBuf) -> SpanBuf {
    while !stop.load(Ordering::Relaxed) {
        let idx = buf.open(Name::Gc, ROOT, 0);
        engine.collect_garbage();
        buf.close(idx);
        std::thread::sleep(GC_PERIOD);
    }
    buf
}

/// Runs one slice on a fresh engine.
pub fn run_slice(slice: &Slice) -> SliceResult {
    let entered = now();
    let durability = match slice.durability {
        DurabilityMode::Off => DurabilityConfig::off(),
        DurabilityMode::Buffered => DurabilityConfig::buffered(&slice.wal_dir),
        DurabilityMode::Fsync => DurabilityConfig::fsync(&slice.wal_dir),
    };
    let engine = Arc::new(Engine::new(
        slice.kind,
        EngineConfig {
            shards: SHARDS,
            entities: slice.shape.entities,
            record_history: false,
            durability,
            telemetry: slice.telemetry,
            ..EngineConfig::default()
        },
    ));
    let start = now() + Duration::from_millis(2);
    let warm_end = start + slice.warmup;
    let plan = Plan {
        start,
        warm_end,
        end: warm_end + slice.measure,
        period: slice
            .pace
            .map(|rate| Duration::from_secs_f64(slice.workers as f64 / rate)),
    };
    let stop_gc = Arc::new(AtomicBool::new(false));
    let (gc_driver, gc_thread) = if slice.traced {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop_gc);
        let buf = SpanBuf::new(start, 1 << 14);
        (
            None,
            Some(std::thread::spawn(move || timed_gc(engine, stop, buf))),
        )
    } else {
        (Some(GcDriver::start(Arc::clone(&engine), GC_PERIOD)), None)
    };
    let workers: Vec<_> = (0..slice.workers)
        .map(|worker| {
            let mut client = EngineClient {
                engine: Arc::clone(&engine),
                stream: AccessStream::new(slice.shape, slice.seed, slice.round, worker),
                ack: slice.durability != DurabilityMode::Off,
                acked: Vec::new(),
                count_shards: slice.traced,
                last_crossed: false,
                cross_shard: 0,
            };
            let mut spans = slice.traced.then(|| SpanBuf::new(start, SPAN_CAPACITY));
            std::thread::spawn(move || {
                wait_until(plan.start);
                let mut log = drive(plan, &mut client, spans.as_mut());
                log.cross_shard = client.cross_shard;
                log.acked = client.acked;
                (log, spans)
            })
        })
        .collect();
    // The window opens at `warm_end`, or once every worker exists.
    let setup_s = now().max(warm_end).duration_since(entered).as_secs_f64();
    let mut logs = Vec::new();
    let mut spans = Vec::new();
    for worker in workers {
        let (log, buf) = worker.join().expect("benchmark worker panicked");
        logs.push(log);
        spans.extend(buf);
    }
    let seconds = now().duration_since(warm_end).as_secs_f64();
    drop(gc_driver);
    stop_gc.store(true, Ordering::Relaxed);
    let mut gc_pass_ns = Vec::new();
    if let Some(handle) = gc_thread {
        let buf = handle.join().expect("benchmark GC thread panicked");
        let warm_ns = slice.warmup.as_nanos() as u64;
        gc_pass_ns = buf
            .spans()
            .iter()
            .filter(|s| s.start_ns >= warm_ns)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        spans.push(buf);
    }
    SliceResult {
        kind: slice.kind,
        round: slice.round,
        logs,
        seconds,
        setup_s,
        metrics: engine.metrics().snapshot(),
        spans,
        gc_pass_ns,
        engine,
    }
}

/// The recorded pass behind the class checks: `txns_per_worker` logical
/// transactions per worker (fixed work, not a window) on a fresh engine
/// with history recording on.
pub fn run_fixed(
    kind: CertifierKind,
    shape: Shape,
    seed: u64,
    workers: usize,
    txns_per_worker: usize,
) -> Arc<Engine> {
    let engine = Arc::new(Engine::new(
        kind,
        EngineConfig {
            shards: SHARDS,
            entities: shape.entities,
            record_history: true,
            ..EngineConfig::default()
        },
    ));
    let gc = GcDriver::start(Arc::clone(&engine), GC_PERIOD);
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let mut client = EngineClient {
                engine: Arc::clone(&engine),
                // Its own round, so the pass does not replay a measured stream.
                stream: AccessStream::new(shape, seed, 0xffff, worker),
                ack: false,
                acked: Vec::new(),
                count_shards: false,
                last_crossed: false,
                cross_shard: 0,
            };
            scope.spawn(move || {
                for _ in 0..txns_per_worker {
                    let txn = client.generate();
                    client.execute(txn, &mut None, ROOT);
                }
            });
        }
    });
    gc.stop();
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client whose `stall_at`-th transaction takes `stall`, all others
    /// nothing.
    struct Stub {
        calls: u32,
        stall_at: u32,
        stall: Duration,
    }

    impl Client for Stub {
        type Txn = ();
        fn generate(&mut self) {}
        fn execute(&mut self, _: (), _: &mut Option<&mut SpanBuf>, _: u32) -> u32 {
            self.calls += 1;
            if self.calls == self.stall_at {
                std::thread::sleep(self.stall);
            }
            1
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_transactions_due_during_it() {
        let start = now();
        let period = Duration::from_millis(1);
        let plan = Plan {
            start,
            warm_end: start,
            end: start + Duration::from_millis(120),
            period: Some(period),
        };
        let mut stub = Stub {
            calls: 0,
            stall_at: 11,
            stall: Duration::from_millis(50),
        };
        let log = drive(plan, &mut stub, None);
        assert_eq!(log.attempted, 120, "the schedule skipped transactions");
        // Transaction 10 (0-based) stalls for 50 ms; the ones due in the
        // following 50 ms start late and must be charged the wait: the one
        // due 10 ms into the stall waited about 40 ms.
        let ms = |i: usize| log.latencies_ns[i] as f64 / 1e6;
        assert!(ms(10) >= 50.0, "stalled call {}", ms(10));
        assert!(ms(20) >= 35.0, "due 10 ms into the stall: {}", ms(20));
        assert!(ms(40) >= 15.0, "due 30 ms into the stall: {}", ms(40));
        assert!(log.lateness_ns[20] >= 35_000_000);
        // Before the stall, and once the backlog has drained, latency is
        // back to (almost) nothing.
        assert!(ms(5) < 5.0, "before the stall: {}", ms(5));
        assert!(ms(110) < 5.0, "after the backlog: {}", ms(110));
    }

    #[test]
    fn a_closed_loop_starts_the_next_transaction_on_completion() {
        let start = now();
        let plan = Plan {
            start,
            warm_end: start + Duration::from_millis(5),
            end: start + Duration::from_millis(60),
            period: None,
        };
        let mut stub = Stub {
            calls: 0,
            stall_at: 1,
            stall: Duration::from_millis(20),
        };
        let log = drive(plan, &mut stub, None);
        // The 20 ms first call spans the warm-up boundary and is not
        // measured; every measured call is instant.
        assert!(log.attempted > 100);
        assert_eq!(log.attempted, log.latencies_ns.len() as u64);
        assert!(log.lateness_ns.is_empty());
        assert_eq!(log.quarter_commits.iter().sum::<u64>(), log.attempted);
        assert!(log.latencies_ns.iter().all(|&ns| ns < 5_000_000));
    }

    #[test]
    fn a_real_slice_accounts_for_every_session() {
        let slice = Slice {
            kind: CertifierKind::Sgt,
            shape: Shape {
                entities: 64,
                theta: 0.9,
                read_share: 0.5,
            },
            durability: DurabilityMode::Off,
            wal_dir: PathBuf::new(),
            pace: None,
            workers: 2,
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(100),
            telemetry: TelemetryMode::Off,
            seed: 3,
            round: 0,
            traced: true,
        };
        let result = run_slice(&slice);
        let m = &result.metrics;
        assert!(result.committed() > 0);
        assert_eq!(m.begun, m.committed + m.aborted);
        assert_eq!(result.abandoned(), 0);
        assert!(!result.gc_pass_ns.is_empty());
        // Two worker buffers and the GC buffer.
        assert_eq!(result.spans.len(), 3);
    }
}
