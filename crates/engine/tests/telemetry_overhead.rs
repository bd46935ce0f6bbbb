//! The telemetry overhead guard (experiment E17's budget): per-stage
//! tracing must not cost the hot path more than 5% of throughput.
//!
//! The differential runs an uncontended workload (θ = 0 — the
//! configuration where admission itself is the serialization point,
//! i.e. where probe overhead would show first)
//! telemetry-off and telemetry-on interleaved and compares the
//! *second-best-of-N* throughput of each mode.  The noise defenses are
//! load-bearing on a timeshared single-CPU runner: the workload is
//! single-threaded (multi-threaded throughput on one CPU is a scheduler
//! lottery that swings individual runs 2-4×), each mode is scored near
//! its max over N short runs, since external interference only ever
//! slows a run down — a high order statistic approximates uncontended
//! speed where a mean or per-pair ratio does not — and the *second*
//! best is used so one freak descheduling-free outlier in either mode
//! cannot decide the verdict alone.
//!
//! The budget holds by construction, not luck: with telemetry off the
//! stage probes never read a clock (an `Option` check each), and with it
//! on, the high-frequency batch probes are sampled 1-in-32 per thread, so
//! the true overhead sits well under the 5% gate.
//!
//! A second guard applies the same harness to the continuous timeline
//! recorder (100 ms cadence) — sampling must also stay within 5% of off.

use mvcc_engine::{run_closed_loop, CertifierKind, LoadOptions, TelemetryMode};
use mvcc_workload::LoadProfile;
use std::time::Duration;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "throughput differentials are only meaningful in release builds"
)]
fn telemetry_on_stays_within_five_percent_of_telemetry_off() {
    let profile = LoadProfile {
        threads: 1,
        shards: 4,
        ops: 30_000,
        zipf_theta: 0.0,
        seed: 0x0e17,
        ..LoadProfile::default()
    };
    let throughput = |telemetry: TelemetryMode| {
        let report = run_closed_loop(
            CertifierKind::Sgt,
            &profile,
            LoadOptions {
                record_history: false,
                telemetry,
                ..LoadOptions::default()
            },
        );
        assert!(report.metrics.committed > 0);
        report.throughput_tps()
    };
    // One warm-up pair outside the measurement: first runs pay one-time
    // costs (page faults, allocator warm-up) that would bias round 1.
    let _ = throughput(TelemetryMode::Off);
    let _ = throughput(TelemetryMode::On);
    // A bounded retry keeps the gate honest without making it flaky:
    // the true overhead sits near 2%, so a clean measurement passes with
    // margin, while a real regression past the budget fails every
    // attempt — only ambient-load noise (which is uncorrelated across
    // attempts) needs the extra tries.
    const ROUNDS: usize = 12;
    const ATTEMPTS: usize = 3;
    let mut last = String::new();
    for attempt in 1..=ATTEMPTS {
        let mut offs = Vec::with_capacity(ROUNDS);
        let mut ons = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            offs.push(throughput(TelemetryMode::Off));
            ons.push(throughput(TelemetryMode::On));
        }
        let second_best = |samples: &[f64]| {
            let mut sorted = samples.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            sorted[sorted.len() - 2]
        };
        let off = second_best(&offs);
        let on = second_best(&ons);
        let ratio = on / off;
        if ratio >= 0.95 {
            return;
        }
        last = format!(
            "attempt {attempt}: second-best-of-{ROUNDS} ratio {ratio:.3} \
             (on {on:.0} / off {off:.0} txn/s; off rounds: {offs:?}; on rounds: {ons:?})"
        );
        eprintln!("overhead guard below gate, retrying — {last}");
    }
    panic!(
        "telemetry-on throughput fell below 95% of telemetry-off in all \
         {ATTEMPTS} attempts; last: {last}"
    );
}

/// The timeline recorder's budget, same harness and same 5% gate: a
/// 100 ms-cadence health monitor On vs. Off on the same workload.  The
/// budget holds by construction — the sampler reads lock-free counters
/// on its own thread ten times a second; the only shared write is the
/// ring push, which no worker thread ever touches.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "throughput differentials are only meaningful in release builds"
)]
fn timeline_recorder_stays_within_five_percent_of_off() {
    let profile = LoadProfile {
        threads: 1,
        shards: 4,
        ops: 30_000,
        zipf_theta: 0.0,
        seed: 0x0e19,
        ..LoadProfile::default()
    };
    let throughput = |monitor: bool| {
        let report = run_closed_loop(
            CertifierKind::Sgt,
            &profile,
            LoadOptions {
                record_history: false,
                monitor: monitor.then_some(Duration::from_millis(100)),
                ..LoadOptions::default()
            },
        );
        assert!(report.metrics.committed > 0);
        if monitor {
            assert!(!report.timeline.is_empty(), "monitor recorded nothing");
        }
        report.throughput_tps()
    };
    let _ = throughput(false);
    let _ = throughput(true);
    const ROUNDS: usize = 12;
    const ATTEMPTS: usize = 3;
    let mut last = String::new();
    for attempt in 1..=ATTEMPTS {
        let mut offs = Vec::with_capacity(ROUNDS);
        let mut ons = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            offs.push(throughput(false));
            ons.push(throughput(true));
        }
        let second_best = |samples: &[f64]| {
            let mut sorted = samples.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            sorted[sorted.len() - 2]
        };
        let off = second_best(&offs);
        let on = second_best(&ons);
        let ratio = on / off;
        if ratio >= 0.95 {
            return;
        }
        last = format!(
            "attempt {attempt}: second-best-of-{ROUNDS} ratio {ratio:.3} \
             (on {on:.0} / off {off:.0} txn/s; off rounds: {offs:?}; on rounds: {ons:?})"
        );
        eprintln!("timeline overhead guard below gate, retrying — {last}");
    }
    panic!(
        "monitor-on throughput fell below 95% of monitor-off in all \
         {ATTEMPTS} attempts; last: {last}"
    );
}
