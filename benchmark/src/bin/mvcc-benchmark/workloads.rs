//! The seven workloads and the untraced (end-to-end) run of the five that
//! put load on the engine.
//!
//! What an *operation* is, per workload (the end-to-end metrics `ops_s` and
//! `op_tail_us` are defined over it):
//!
//! * engine workloads — one four-step transaction driven until it commits;
//!   latency runs from `begin()` of the first attempt (on `paced`: from the
//!   instant it was due) to `commit()` returning `Ok`.  A run measures every
//!   certifier of the workload in several rounds of fresh-engine slices;
//!   per certifier each number is read off its quiet round
//!   ([`quiet_round`]), and the certifiers are averaged geometrically, so
//!   that MV-SGT at 3 k txn/s has the same say as 2PL at 40 k;
//! * `restart` — one transaction replayed from the log; the latency is
//!   that of a whole restart (see `fixed.rs`);
//! * `classify` — one classification call (see `fixed.rs`).

use crate::checks;
use crate::load::{run_slice, Slice, SliceResult};
use crate::report::Outcome;
use crate::stats::{geomean, median, quantile, slowest_mean};
use crate::traffic::Shape;
use mvcc_engine::{CertifierKind, DurabilityMode, TelemetryMode};
use std::path::PathBuf;
use std::time::Duration;

/// Slices per engine run: six certifiers in two rounds (A B C D E F, then
/// the same again), or three certifiers in four, so every engine workload
/// measures twelve windows of `--seconds / 12` each.
pub const SLICES: usize = 12;
/// Offered load of `paced`, transactions per second over all workers
/// (about a quarter of this host's closed-loop capacity).
pub const PACED_RATE: f64 = 8_000.0;
/// The tail of a slice: its slowest 1 % of operations.
pub const TAIL_SHARE: f64 = 0.01;
/// A paced commit later than this after its due time is reported as late.
pub const LATE: Duration = Duration::from_millis(10);

const ALL: [CertifierKind; 6] = [
    CertifierKind::TwoPhaseLocking,
    CertifierKind::Timestamp,
    CertifierKind::Sgt,
    CertifierKind::MvSgt,
    CertifierKind::Mvto,
    CertifierKind::SnapshotIsolation,
];
/// Global-lane single-version, global-lane multiversion, per-shard lanes.
const THREE: [CertifierKind; 3] = [
    CertifierKind::TwoPhaseLocking,
    CertifierKind::Mvto,
    CertifierKind::SnapshotIsolation,
];

/// What a workload does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// Load on the engine: closed loop, or paced at `pace` txn/s.
    Engine {
        durability: DurabilityMode,
        pace: Option<f64>,
        certifiers: &'static [CertifierKind],
    },
    /// Fixed work: crash recovery and replica catch-up over a built log.
    Restart,
    /// Fixed work: the paper's classifiers over seeded schedules.
    Classify,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Why it is in the benchmark (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// The traffic it offers (for the fixed-work workloads: the traffic
    /// their inputs are built from, and the layer probes run on).
    pub shape: Shape,
    pub work: Work,
}

const UNIFORM: Shape = Shape {
    entities: 4096,
    theta: 0.0,
    read_share: 0.8,
};
const WRITE_HEAVY: Shape = Shape {
    entities: 4096,
    theta: 0.0,
    read_share: 0.5,
};

/// The workloads.  The binary runs all seven; `BENCHMARK.json` lists the
/// four whose numbers hold still on a shared host.  Not listed: `paced` (one
/// worker and a sleeping GC thread leave a vCPU idle, and how fast the host
/// hands it back is the host's business: p50 and p99 wander 15-30 % between
/// runs), `wal-fsync` (this sandbox's disk: 23-37 %) and `restart` (one
/// thread, latencies as run: 20-25 % when the host is loud).
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "uniform",
        why: "4096 rows, no skew, 80% reads, closed loop: conflicts are rare, so pipeline, store and GC do the work",
        shape: UNIFORM,
        work: Work::Engine {
            durability: DurabilityMode::Off,
            pace: None,
            certifiers: &ALL,
        },
    },
    Workload {
        name: "hot",
        why: "64 rows, zipf 0.9, 50% reads, closed loop: certifier decisions and abort/retry dominate",
        shape: Shape {
            entities: 64,
            theta: 0.9,
            read_share: 0.5,
        },
        work: Work::Engine {
            durability: DurabilityMode::Off,
            pace: None,
            certifiers: &ALL,
        },
    },
    Workload {
        name: "paced",
        why: "uniform traffic offered at a fixed 8000 txn/s by nproc-1 workers, timed from the due instant: latency and memory at equal work",
        shape: UNIFORM,
        work: Work::Engine {
            durability: DurabilityMode::Off,
            pace: Some(PACED_RATE),
            certifiers: &THREE,
        },
    },
    Workload {
        name: "wal-buffered",
        why: "50% reads with a buffered WAL: the log's CPU path (encode, append, flush to OS) does the work",
        shape: WRITE_HEAVY,
        work: Work::Engine {
            durability: DurabilityMode::Buffered,
            pace: None,
            certifiers: &THREE,
        },
    },
    Workload {
        name: "wal-fsync",
        why: "same traffic with an fsync per commit batch: the device and the group-commit window do the work",
        shape: WRITE_HEAVY,
        work: Work::Engine {
            durability: DurabilityMode::Fsync,
            pace: None,
            certifiers: &THREE,
        },
    },
    Workload {
        name: "restart",
        why: "recover a built log and catch a replica up on it: scan, decode and apply paths no load workload touches",
        shape: WRITE_HEAVY,
        work: Work::Restart,
    },
    Workload {
        name: "classify",
        why: "the paper's own objects: CSR/VSR/MVCSR/MVSR/DMVSR classifiers on seeded schedules and long-history audits",
        shape: WRITE_HEAVY,
        work: Work::Classify,
    },
];

/// The workloads `BENCHMARK.json` lists, in its order.
#[cfg(test)]
pub const LISTED: [&str; 4] = ["uniform", "hot", "wal-buffered", "classify"];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The knobs of one invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Total measured seconds of the run.
    pub seconds: f64,
    /// Short slices and small inputs: checks on, numbers not comparable.
    pub smoke: bool,
    /// Scratch directory for logs and traces (inside the checkout).
    pub out_dir: PathBuf,
    /// Worker threads (`nproc`).
    pub workers: usize,
}

impl Options {
    pub fn warmup(&self) -> Duration {
        Duration::from_millis(if self.smoke { 50 } else { 250 })
    }
}

/// What is kept of a slice once its engine is gone.
pub struct SliceSummary {
    pub kind: CertifierKind,
    pub committed: u64,
    pub attempted: u64,
    pub abandoned: u64,
    pub seconds: f64,
    pub setup_s: f64,
    pub retry_ratio: f64,
    pub latencies_ns: Vec<u64>,
    pub lateness_ns: Vec<u64>,
}

impl SliceSummary {
    fn of(result: &mut SliceResult) -> Self {
        let mut latencies_ns = Vec::new();
        let mut lateness_ns = Vec::new();
        for log in &mut result.logs {
            latencies_ns.append(&mut log.latencies_ns);
            lateness_ns.append(&mut log.lateness_ns);
        }
        SliceSummary {
            kind: result.kind,
            committed: latencies_ns.len() as u64,
            attempted: result.attempted(),
            abandoned: result.abandoned(),
            seconds: result.seconds,
            setup_s: result.setup_s,
            retry_ratio: result.retry_ratio(),
            latencies_ns,
            lateness_ns,
        }
    }
}

/// Builds the slice of `kind` in `round` of an engine workload.
pub fn slice_of(
    w: &Workload,
    opts: &Options,
    kind: CertifierKind,
    round: usize,
    measure: Duration,
) -> Slice {
    // The fixed-work workloads probe the engine on their traffic shape
    // with the plain closed loop.
    let (durability, pace) = match w.work {
        Work::Engine {
            durability, pace, ..
        } => (durability, pace),
        _ => (DurabilityMode::Off, None),
    };
    Slice {
        kind,
        shape: w.shape,
        durability,
        wal_dir: opts
            .out_dir
            .join(format!("wal-{}-{}-r{round}", w.name, kind.name())),
        pace,
        // A paced worker spins towards its due times; it gets nproc - 1
        // cores so that the engine's GC thread never queues behind the
        // generator (with nproc generators the tail was scheduler luck:
        // p99 404-712 us over ten seeds, against 405-472 us this way).
        workers: if pace.is_some() {
            (opts.workers - 1).max(1)
        } else {
            opts.workers
        },
        warmup: opts.warmup(),
        measure,
        telemetry: TelemetryMode::Off,
        seed: opts.seed,
        round,
        traced: false,
    }
}

/// Runs a slice, applies the per-slice checks and drops the engine (so
/// peak memory is that of one slice, not of the run).
pub fn checked_slice(slice: &Slice, outcome: &mut Outcome) -> SliceResult {
    if slice.durability != DurabilityMode::Off {
        let _ = std::fs::remove_dir_all(&slice.wal_dir);
    }
    let result = run_slice(slice);
    let who = format!("{} r{}", slice.kind.name(), slice.round + 1);
    outcome.check(
        format!("{who}: sessions accounted"),
        checks::sessions_accounted(&result.metrics),
    );
    if slice.durability != DurabilityMode::Off {
        checks::durable_slice(&result, &slice.wal_dir, slice.shape.entities, outcome);
    }
    result
}

/// Removes a slice's log once its engine (which holds it open) is gone.
pub fn discard_log(slice: &Slice) {
    if slice.durability != DurabilityMode::Off {
        let _ = std::fs::remove_dir_all(&slice.wal_dir);
    }
}

/// One sorted sample out of the per-slice samples `pick` selects, ns.
fn pooled_us(slices: &[&SliceSummary], pick: fn(&SliceSummary) -> &Vec<u64>) -> Vec<u64> {
    let mut all: Vec<u64> = slices
        .iter()
        .flat_map(|s| pick(s).iter().copied())
        .collect();
    all.sort_unstable();
    all
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// What one slice contributes to the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceNumbers {
    pub txn_s: f64,
    pub p50_us: f64,
    /// Mean latency of the slowest 1 % of the slice's operations.
    pub tail_us: f64,
}

impl SliceNumbers {
    fn of(s: &SliceSummary) -> Self {
        let mut sample = s.latencies_ns.clone();
        sample.sort_unstable();
        SliceNumbers {
            txn_s: s.committed as f64 / s.seconds,
            p50_us: us(quantile(&sample, 0.5)),
            tail_us: slowest_mean(&sample, TAIL_SHARE) / 1e3,
        }
    }
}

/// The quiet round of one certifier: its rounds are seeded streams offered
/// to a fresh engine for the same length of time, so they differ by what
/// the host did meanwhile, and that only ever slows a slice down.  Each
/// number is taken from the round that shows it at its best.
pub fn quiet_round(rounds: &[SliceNumbers]) -> SliceNumbers {
    let best = |pick: fn(&SliceNumbers) -> f64, better: fn(f64, f64) -> f64| {
        rounds.iter().map(pick).reduce(better).unwrap_or(f64::NAN)
    };
    SliceNumbers {
        txn_s: best(|n| n.txn_s, f64::max),
        p50_us: best(|n| n.p50_us, f64::min),
        tail_us: best(|n| n.tail_us, f64::min),
    }
}

/// The untraced run of an engine workload.
pub fn run_engine(w: &Workload, opts: &Options) -> Outcome {
    let Work::Engine {
        pace, certifiers, ..
    } = w.work
    else {
        unreachable!("run_engine is called for engine workloads only");
    };
    let mut outcome = Outcome::default();
    let rounds = SLICES / certifiers.len();
    let measure = Duration::from_secs_f64(opts.seconds / SLICES as f64);
    let mut slices: Vec<SliceSummary> = Vec::new();
    for round in 0..rounds {
        for &kind in certifiers {
            let slice = slice_of(w, opts, kind, round, measure);
            let mut result = checked_slice(&slice, &mut outcome);
            slices.push(SliceSummary::of(&mut result));
            drop(result);
            discard_log(&slice);
        }
    }
    for &kind in certifiers {
        checks::recorded_pass(kind, w.shape, opts.seed, opts.workers, &mut outcome);
    }

    let all: Vec<&SliceSummary> = slices.iter().collect();
    outcome.measured_s = all.iter().map(|s| s.seconds).sum();
    outcome.attempted = all.iter().map(|s| s.attempted).sum();
    outcome.failed = all.iter().map(|s| s.abandoned).sum();
    // A run sets an engine up once per slice.
    outcome.metric(
        "setup_s",
        median(&all.iter().map(|s| s.setup_s).collect::<Vec<_>>()),
        "s",
    );

    outcome.detail.push(format!(
        "  {} slices of {:.2} s ({} rounds x {} certifiers), {} workers, {}",
        slices.len(),
        measure.as_secs_f64(),
        rounds,
        certifiers.len(),
        opts.workers,
        match pace {
            Some(rate) => format!("paced at {rate} txn/s"),
            None => "closed loop".to_string(),
        }
    ));
    outcome.detail.push(format!(
        "  {:<14} {:>10} {:>10} {:>10}  {:>7}   per round: txn/s | p50 us | tail us",
        "quiet round", "txn/s", "p50 us", "tail us", "retries"
    ));
    let mut quiet: Vec<SliceNumbers> = Vec::new();
    for &kind in certifiers {
        let mine: Vec<&SliceSummary> = all.iter().copied().filter(|s| s.kind == kind).collect();
        let numbers: Vec<SliceNumbers> = mine.iter().map(|s| SliceNumbers::of(s)).collect();
        let q = quiet_round(&numbers);
        let list = |pick: fn(&SliceNumbers) -> f64| {
            numbers
                .iter()
                .map(|n| format!("{:.1}", pick(n)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let retries = mine.iter().map(|s| s.retry_ratio).sum::<f64>() / mine.len() as f64;
        outcome.detail.push(format!(
            "  txn_s.{:<8} {:>10.1} {:>10.2} {:>10.1}  {retries:>7.4}   {} | {} | {}",
            kind.name(),
            q.txn_s,
            q.p50_us,
            q.tail_us,
            list(|n| n.txn_s),
            list(|n| n.p50_us),
            list(|n| n.tail_us),
        ));
        quiet.push(q);
    }
    let over = |pick: fn(&SliceNumbers) -> f64| geomean(quiet.iter().map(pick));
    outcome.metric("ops_s", over(|n| n.txn_s), "1/s");
    outcome.metric("op_tail_us", over(|n| n.tail_us), "us");
    // Not an end-to-end metric: 10-50 us of CPU path follow the host's
    // speed (8-17 % spread over ten seeds, above what a bound may cover).
    outcome.detail.push(format!(
        "  op_p50_us      {:>12.2} us    (the same average over the quiet rounds' medians)",
        over(|n| n.p50_us)
    ));

    let latencies = pooled_us(&all, |s| &s.latencies_ns);
    outcome.detail.push(format!(
        "  every slice pooled: {:.1} txn/s, commit_p50_us {:.2}, commit_p99_us {:.2} ({} samples)",
        latencies.len() as f64 / outcome.measured_s,
        us(quantile(&latencies, 0.5)),
        us(quantile(&latencies, 0.99)),
        latencies.len()
    ));
    if pace.is_some() {
        let late = latencies
            .iter()
            .filter(|&&ns| ns > LATE.as_nanos() as u64)
            .count();
        let lateness = pooled_us(&all, |s| &s.lateness_ns);
        outcome.detail.push(format!(
            "  paced: {late} of {} commits later than {} ms after their due time; generator lateness p99 {:.2} us",
            latencies.len(),
            LATE.as_millis(),
            us(quantile(&lateness, 0.99))
        ));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_number_comes_from_the_round_that_shows_it_at_its_best() {
        let round = |txn_s, p50_us, tail_us| SliceNumbers {
            txn_s,
            p50_us,
            tail_us,
        };
        // The host froze during the second round and slowed the third.
        let rounds = [
            round(40_000.0, 11.0, 2_400.0),
            round(31_000.0, 10.5, 9_000.0),
            round(36_000.0, 12.0, 2_300.0),
        ];
        assert_eq!(quiet_round(&rounds), round(40_000.0, 10.5, 2_300.0));
        assert_eq!(quiet_round(&rounds[..1]), rounds[0]);
    }

    #[test]
    fn the_listed_workloads_exist() {
        for name in LISTED {
            assert!(find(name).is_some(), "{name}");
        }
        assert_eq!(SLICES % 6, 0);
        assert_eq!(SLICES % 3, 0);
    }
}
