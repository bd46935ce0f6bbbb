//! `mvccstat` — the cluster-observability ops surface: renders the
//! continuous metrics timeline (experiment E19) either live, from an
//! engine it drives itself, or offline, from a `timeline.jsonl` export
//! of an earlier live run.
//!
//! Subcommands:
//! * `mvccstat live [--certifier NAME] [--threads N] [--ops N]
//!   [--interval-ms MS] [--out PATH]` — builds an engine with telemetry and the
//!   classification watchdog on, attaches a [`HealthMonitor`], drives
//!   the closed loop on worker threads, and streams each timeline frame
//!   to stdout as the recorder captures it.  Ends with the aggregated
//!   [`ClusterHealth`] report (members, alarms, failover MTTR when one
//!   happened).  With `--out`, also writes the recorded frames as JSONL —
//!   the file `replay` reads.
//! * `mvccstat replay PATH [--metrics]` — parses a `timeline.jsonl`
//!   export, prints every frame in the same one-row format, re-runs the
//!   [`AnomalyDetector`] over the frames (the detector is deterministic
//!   given frames, so replay reproduces exactly the alarms a live run
//!   would have raised), and renders the final cluster-health report.
//!   With `--metrics`, also prints the Prometheus-style text exposition
//!   of the newest frame.
//!
//! Run with `cargo run -p mvcc-bench --bin mvccstat --release -- live`.

use mvcc_engine::load::drive_closed_loop;
use mvcc_engine::{
    AnomalyDetector, CertifierKind, ClusterHealth, DetectorConfig, DurabilityConfig, Engine,
    EngineConfig, HealthConfig, HealthMonitor, TelemetryMode, TimelineFrame,
};
use mvcc_telemetry::{metrics_text, parse_jsonl, write_jsonl};
use mvcc_workload::LoadProfile;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mvccstat live [--certifier NAME] [--threads N] [--ops N] [--interval-ms MS] \
         [--out PATH]\n  mvccstat replay PATH [--metrics]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("live") => live(args),
        Some("replay") => replay(args),
        _ => usage(),
    }
}

/// Streams frames from a monitored live run: engine + watchdog + health
/// monitor, closed loop on worker threads, frames printed as captured.
fn live(mut args: impl Iterator<Item = String>) {
    let mut certifier = CertifierKind::Sgt;
    let mut threads = 4usize;
    let mut ops = 200_000usize;
    let mut interval_ms = 100u64;
    let mut out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--certifier" => {
                let name = args.next().unwrap_or_else(|| usage());
                certifier = CertifierKind::all()
                    .into_iter()
                    .find(|k| k.name() == name)
                    .unwrap_or_else(|| {
                        eprintln!(
                            "unknown certifier {name}; known: {}",
                            CertifierKind::all()
                                .iter()
                                .map(|k| k.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        std::process::exit(2);
                    });
            }
            "--threads" => threads = parse_num(args.next()),
            "--ops" => ops = parse_num(args.next()),
            "--interval-ms" => interval_ms = parse_num(args.next()) as u64,
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let profile = LoadProfile {
        threads,
        shards: 4,
        ops,
        zipf_theta: 0.0,
        seed: 0x57a7,
        ..LoadProfile::default()
    };
    // A buffered WAL in a temp directory so the lsn/fsync columns carry
    // real positions — removed again on exit.
    let wal_dir = std::env::temp_dir().join(format!("mvccstat-live-{}", std::process::id()));
    std::fs::create_dir_all(&wal_dir).unwrap_or_else(|e| panic!("cannot create WAL dir: {e}"));
    let engine = Arc::new(Engine::new(
        certifier,
        EngineConfig {
            shards: profile.shards,
            entities: profile.entities,
            record_history: true,
            history_capacity: Some(512),
            durability: DurabilityConfig::buffered(&wal_dir),
            telemetry: TelemetryMode::On,
            ..EngineConfig::default()
        },
    ));
    let monitor = HealthMonitor::start(
        &engine,
        Vec::new(),
        HealthConfig {
            interval: Duration::from_millis(interval_ms),
            ..HealthConfig::default()
        },
    );
    println!("mvccstat live: {certifier}, {threads} threads, {ops} ops, {interval_ms} ms cadence");
    let driver = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || drive_closed_loop(&engine, &profile))
    };
    // Stream frames as the recorder captures them: poll the shared ring
    // at the sampling cadence and print every frame not yet shown.
    let ring = monitor.ring();
    let mut printed: Option<u64> = None;
    let mut show_new = |frames: &[TimelineFrame]| {
        for frame in frames {
            if printed.map_or(true, |last| frame.seq > last) {
                printed = Some(frame.seq);
                println!("{frame}");
            }
        }
    };
    loop {
        let done = driver.is_finished();
        show_new(&ring.frames());
        if done {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    let elapsed = driver.join().expect("load driver panicked");
    let events = engine
        .metrics_handle()
        .telemetry()
        .map(|t| t.flight().events())
        .unwrap_or_default();
    let (frames, alarms) = monitor.stop();
    // The closing frame lands at stop, after the last poll; show it too.
    show_new(&frames);
    println!();
    // lint: allow(unwrap) — the recorder always takes a closing sample
    let last = frames.last().unwrap();
    print!(
        "{}",
        ClusterHealth::from_frame(last, alarms, &events).render()
    );
    println!(
        "run: {} frames in {:.2} s",
        frames.len(),
        elapsed.as_secs_f64()
    );
    if let Some(path) = out {
        std::fs::write(&path, write_jsonl(&frames))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {} timeline frames to {path}", frames.len());
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Replays a `timeline.jsonl` export: frames rendered one per row,
/// the detector re-run over them, and the final health report.
fn replay(mut args: impl Iterator<Item = String>) {
    let mut path: Option<String> = None;
    let mut metrics = false;
    for arg in args.by_ref() {
        match arg.as_str() {
            "--metrics" => metrics = true,
            other if path.is_none() => path = Some(other.to_string()),
            _ => usage(),
        }
    }
    let path = path.unwrap_or_else(|| usage());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let frames: Vec<TimelineFrame> = match parse_jsonl(&text) {
        Ok(frames) => frames,
        Err(e) => {
            eprintln!("{path}: malformed timeline: {e}");
            std::process::exit(1);
        }
    };
    if frames.is_empty() {
        eprintln!("{path}: no frames");
        std::process::exit(1);
    }
    println!("mvccstat replay: {path} ({} frames)", frames.len());
    for frame in &frames {
        println!("{frame}");
    }
    let alarms = AnomalyDetector::replay(&frames, DetectorConfig::default());
    // lint: allow(unwrap) — non-empty checked above
    let last = frames.last().unwrap();
    println!();
    print!("{}", ClusterHealth::from_frame(last, alarms, &[]).render());
    if metrics {
        println!();
        print!("{}", metrics_text(last));
    }
}

fn parse_num(arg: Option<String>) -> usize {
    arg.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}
