//! The traced run: the workload's traffic once more, shorter, with driver
//! spans and a timed GC thread, plus the layer probes — every per-layer
//! metric of `BENCHMARK.json`, for every workload.
//!
//! For each certifier the run takes an untraced reference slice and a
//! traced slice of the same length (the difference is the tracing
//! overhead); the fixed-work workloads, which put no load on the engine,
//! probe it with a closed loop on their traffic shape.  End-to-end numbers
//! never come from here.

use crate::layers::{peak_rss_bytes, probe_layers, Floors, SchedulerFloor};
use crate::load::{Slice, SliceResult};
use crate::report::Outcome;
use crate::spans::{breakdown, sample_jsonl, Breakdown, SpanBuf};
use crate::stats::{mean, median, quantile};
use crate::workloads::{checked_slice, discard_log, slice_of, Options, Work, Workload, LATE};
use mvcc_engine::{CertifierKind, DurabilityMode, TelemetryMode};
use std::time::Duration;

/// Slice lengths: twelve slices (six certifiers, untraced + traced) and
/// the telemetry pair share the run's measured seconds with the probes.
const SLICE_SHARE: f64 = 1.0 / 16.0;
/// One transaction in this many has its raw spans written out.
const SAMPLE_EVERY: u32 = 64;

/// What is kept of one certifier's pair of slices.
struct Pair {
    kind: CertifierKind,
    untraced_txn_s: f64,
    traced_txn_s: f64,
    retry_ratio: f64,
    breakdown: Breakdown,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Counters summed over slices.
#[derive(Default)]
struct Totals {
    admission_batches: u64,
    admission_batch_steps: u64,
    commit_batches: u64,
    commit_batch_txns: u64,
    wal_flushes: u64,
    wal_commits: u64,
    first_quarter: u64,
    last_quarter: u64,
    cross_shard: u64,
    traced_attempted: u64,
    traced_seconds: f64,
    attempted: u64,
    abandoned: u64,
    gc_pass_ns: Vec<u64>,
    lateness_ns: Vec<u64>,
    late: u64,
    committed: u64,
}

impl Totals {
    /// `own`: the slice's certifier is one the workload itself runs.  The
    /// others are there for the per-certifier layer metrics; on `paced`
    /// MV-SGT cannot keep up with the offered rate, and its growing
    /// backlog says nothing about how late the generator ran.
    fn add_slice(&mut self, r: &SliceResult, own: bool) {
        let m = &r.metrics;
        self.admission_batches += m.admission_batches;
        self.admission_batch_steps += m.admission_batch_steps;
        self.commit_batches += m.commit_batches;
        self.commit_batch_txns += m.commit_batch_txns;
        self.wal_flushes += m.wal_flushes;
        self.wal_commits += m.wal_commits;
        self.attempted += r.attempted();
        self.abandoned += r.abandoned();
        if !own {
            return;
        }
        self.committed += r.committed();
        for log in &r.logs {
            self.lateness_ns.extend(&log.lateness_ns);
            self.late += log
                .latencies_ns
                .iter()
                .filter(|&&ns| ns > LATE.as_nanos() as u64)
                .count() as u64;
        }
    }
}

/// The engine's floor per transaction under `kind` on this workload.
fn floor_ns(
    b: &Breakdown,
    floors: &Floors,
    sched: &SchedulerFloor,
    durability: DurabilityMode,
) -> f64 {
    let steps = b.reads_per_txn + b.writes_per_txn;
    let log = match durability {
        DurabilityMode::Off => 0.0,
        // Begin + one record per step + the commit record, one flush.
        mode => {
            (steps + 2.0) * (floors.encode_ns + floors.append_ns)
                + 1e3
                    * if mode == DurabilityMode::Fsync {
                        floors.fsync_us
                    } else {
                        floors.flush_us
                    }
        }
    };
    steps * sched.admit_ns
        + sched.finish_ns
        + floors.store_begin_ns
        + b.reads_per_txn * floors.store_read_ns
        + b.writes_per_txn * floors.store_write_ns
        + floors.store_commit_ns
        + log
}

/// The traced run of any workload.
pub fn run_traced(w: &Workload, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let measure = Duration::from_secs_f64(opts.seconds * SLICE_SHARE);
    let durability = match w.work {
        Work::Engine { durability, .. } => durability,
        _ => DurabilityMode::Off,
    };
    let mut totals = Totals::default();
    let mut pairs: Vec<Pair> = Vec::new();
    let mut sampled: Vec<SpanBuf> = Vec::new();
    let mut telemetry_ratio = 0.0;
    for kind in CertifierKind::all() {
        let own = match w.work {
            Work::Engine { certifiers, .. } => certifiers.contains(&kind),
            _ => true,
        };
        let untraced: Slice = slice_of(w, opts, kind, 0, measure);
        let reference = checked_slice(&untraced, &mut out);
        totals.add_slice(&reference, own);
        for log in &reference.logs {
            totals.first_quarter += log.quarter_commits[0];
            totals.last_quarter += log.quarter_commits[3];
        }
        let untraced_txn_s = reference.txn_s();
        let reference_retries = reference.retry_ratio();
        drop(reference);
        discard_log(&untraced);

        if kind == CertifierKind::TwoPhaseLocking {
            let with_telemetry = Slice {
                telemetry: TelemetryMode::On,
                ..untraced.clone()
            };
            let on = checked_slice(&with_telemetry, &mut out);
            telemetry_ratio = on.txn_s() / untraced_txn_s;
            totals.attempted += on.attempted();
            totals.abandoned += on.abandoned();
            drop(on);
            discard_log(&with_telemetry);
        }

        let traced = Slice {
            traced: true,
            ..untraced
        };
        let mut result = checked_slice(&traced, &mut out);
        totals.add_slice(&result, own);
        totals.traced_attempted += result.attempted();
        totals.traced_seconds += result.seconds;
        totals.cross_shard += result.logs.iter().map(|l| l.cross_shard).sum::<u64>();
        totals.gc_pass_ns.append(&mut result.gc_pass_ns);
        let dropped: u64 = result.spans.iter().map(|b| b.dropped).sum();
        out.check(
            format!("{}: span buffers held every span", kind.name()),
            if dropped == 0 {
                Ok(())
            } else {
                Err(format!("{dropped} spans dropped"))
            },
        );
        pairs.push(Pair {
            kind,
            untraced_txn_s,
            traced_txn_s: result.txn_s(),
            retry_ratio: (reference_retries + result.retry_ratio()) / 2.0,
            breakdown: breakdown(&result.spans),
        });
        sampled.append(&mut result.spans);
        drop(result);
        discard_log(&traced);
    }
    out.measured_s = 0.0;
    out.attempted = totals.attempted;
    out.failed = totals.abandoned;

    let trace_path = opts.out_dir.join(format!("trace-{}.jsonl", w.name));
    out.check(
        format!("span sample written to {}", trace_path.display()),
        std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&trace_path, sample_jsonl(&sampled, SAMPLE_EVERY)))
            .map_err(|e| e.to_string()),
    );
    drop(sampled);

    let mut layer = Outcome::default();
    let (floors, scheduler_floors) =
        probe_layers(w.shape, opts.seed, &opts.out_dir, opts.smoke, &mut layer);

    // Driver and workload.
    // Across certifiers the median, so that one slow certifier (MV-SGT on
    // large tables) does not stand for all six.
    let over = |f: fn(&Breakdown) -> f64| {
        median(&pairs.iter().map(|p| f(&p.breakdown)).collect::<Vec<_>>())
    };
    out.metric("workload.gen_ns", over(|b| b.gen_ns), "ns");
    totals.lateness_ns.sort_unstable();
    out.metric(
        "driver.late_p99_us",
        if totals.lateness_ns.is_empty() {
            0.0
        } else {
            quantile(&totals.lateness_ns, 0.99) as f64 / 1e3
        },
        "us",
    );
    out.metric(
        "driver.late_share",
        ratio(totals.late, totals.committed),
        "ratio",
    );
    out.metric(
        "trace.overhead_share",
        mean(
            &pairs
                .iter()
                .map(|p| 1.0 - p.traced_txn_s / p.untraced_txn_s)
                .collect::<Vec<_>>(),
        ),
        "ratio",
    );

    // Engine: spans, counters, GC.
    out.metric("engine.begin_ns", over(|b| b.begin_ns), "ns");
    out.metric("engine.read_ns", over(|b| b.read_ns), "ns");
    out.metric("engine.write_ns", over(|b| b.write_ns), "ns");
    out.metric("engine.commit_ns", over(|b| b.commit_ns), "ns");
    out.metric("engine.commit_ns.p99", over(|b| b.commit_p99_ns), "ns");
    out.metric("engine.txn_residual_ns", over(|b| b.residual_ns), "ns");
    let unattributed: Vec<f64> = pairs
        .iter()
        .zip(&scheduler_floors)
        .map(|(p, (_, sched))| {
            p.breakdown.engine_ns() - floor_ns(&p.breakdown, &floors, sched, durability)
        })
        .collect();
    out.metric("engine.unattributed_ns", median(&unattributed), "ns");
    out.metric(
        "engine.admission_batch",
        ratio(totals.admission_batch_steps, totals.admission_batches),
        "steps",
    );
    out.metric(
        "engine.commit_batch",
        ratio(totals.commit_batch_txns, totals.commit_batches),
        "txns",
    );
    out.metric(
        "engine.wal_commits_per_flush",
        ratio(totals.wal_commits, totals.wal_flushes),
        "txns",
    );
    totals.gc_pass_ns.sort_unstable();
    let gc_busy: u64 = totals.gc_pass_ns.iter().sum();
    out.metric(
        "engine.gc_pass_us.p50",
        quantile(&totals.gc_pass_ns, 0.5) as f64 / 1e3,
        "us",
    );
    out.metric(
        "engine.gc_pass_us.max",
        quantile(&totals.gc_pass_ns, 1.0) as f64 / 1e3,
        "us",
    );
    out.metric(
        "engine.gc_busy_share",
        gc_busy as f64 / 1e9 / totals.traced_seconds,
        "ratio",
    );
    out.metric(
        "engine.decay_ratio",
        ratio(totals.last_quarter, totals.first_quarter),
        "ratio",
    );
    out.metric(
        "engine.cross_shard_share",
        ratio(totals.cross_shard, totals.traced_attempted),
        "ratio",
    );
    for p in &pairs {
        out.metric(
            format!("engine.abort_ratio.{}", p.kind.name()),
            p.retry_ratio,
            "ratio",
        );
    }
    for p in &pairs {
        out.metric(
            format!("engine.txn_s.{}", p.kind.name()),
            p.untraced_txn_s,
            "1/s",
        );
    }
    out.metric("telemetry.on_ratio", telemetry_ratio, "ratio");

    out.metrics.append(&mut layer.metrics);
    out.checks.append(&mut layer.checks);
    out.metric(
        "proc.peak_rss_mb",
        peak_rss_bytes() as f64 / (1 << 20) as f64,
        "MB",
    );

    out.detail.push(format!(
        "  traced run: per certifier one untraced and one traced slice of {:.2} s on {} workers, then the layer probes",
        measure.as_secs_f64(),
        opts.workers
    ));
    out.detail.push(
        "  the median transaction, per certifier (p45-p55 band of root spans, committed at the first attempt):".into(),
    );
    for (p, gap) in pairs.iter().zip(&unattributed) {
        let b = &p.breakdown;
        out.detail.push(format!(
            "    {:<7} root p50 {:>9.0} ns = spans {:>9.0} + residual {:>6.0} (gap {:+.2}%); engine calls {:>9.0} ns, over the layer floors by {:>9.0} ns; {} txns",
            p.kind.name(),
            b.root_p50_ns,
            b.accounted_ns() - b.residual_ns,
            b.residual_ns,
            (b.accounted_ns() / b.root_p50_ns - 1.0) * 100.0,
            b.engine_ns(),
            gap,
            b.band_txns
        ));
    }
    out.detail.append(&mut layer.detail);
    out
}
