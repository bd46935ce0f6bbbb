//! `mvccstat` — the ops surface: one report that answers "where did the
//! time go, why did it abort, is the history still in class", either
//! live, from an engine it drives itself, or offline, from a
//! `timeline.jsonl` export of an earlier live run.
//!
//! Subcommands:
//! * `mvccstat live [--certifier NAME] [--threads N] [--ops N]
//!   [--interval-ms MS] [--out PATH]` — builds an engine with telemetry
//!   on, starts the [`ClassificationWatchdog`] and a [`HealthMonitor`]
//!   fed by it, drives the closed loop on worker threads, and streams
//!   each timeline frame to stdout as the recorder captures it.  Ends
//!   with the engine's final metrics (stage latencies, abort reasons),
//!   the alarm list and the watchdog verdict.  With `--out`, also writes
//!   the recorded frames as JSONL — the file `replay` reads.
//! * `mvccstat replay PATH` — parses a `timeline.jsonl` export, prints
//!   every frame in the same one-row format, and re-runs the
//!   [`AnomalyDetector`] over the frames (the detector is deterministic
//!   given frames, so replay reproduces exactly the alarms the live run
//!   raised).
//!
//! Run with `cargo run -p mvcc-bench --bin mvccstat --release -- live`.

use mvcc_engine::load::drive_closed_loop;
use mvcc_engine::{
    Alarm, AnomalyDetector, CertifierKind, ClassificationWatchdog, DurabilityConfig, Engine,
    EngineConfig, EngineSampler, HealthMonitor, TelemetryMode, TimelineFrame, WatchdogConfig,
};
use mvcc_telemetry::{parse_jsonl, write_jsonl};
use mvcc_workload::LoadProfile;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mvccstat live [--certifier NAME] [--threads N] [--ops N] [--interval-ms MS] \
         [--out PATH]\n  mvccstat replay PATH"
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
    // Reject bad input before anything is created on disk.
    let invalid = profile
        .validate()
        .err()
        .or_else(|| (interval_ms == 0).then(|| "interval-ms must be positive".to_string()));
    if let Some(reason) = invalid {
        eprintln!("mvccstat live: {reason}");
        usage();
    }
    // An unwritable `--out` is bad input too: open it before the run, so
    // a long load never ends in a failed write.
    let out = out.map(|path| match std::fs::File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => {
            eprintln!("mvccstat live: cannot create {path}: {e}");
            usage();
        }
    });
    // A buffered WAL in a temp directory so the lsn/flush columns carry
    // real positions — removed again on exit.
    let wal_dir = std::env::temp_dir().join(format!("mvccstat-live-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&wal_dir) {
        eprintln!(
            "mvccstat live: cannot create WAL dir {}: {e}",
            wal_dir.display()
        );
        std::process::exit(1);
    }
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
    // The watchdog classifies the 512-step history ring on the same
    // coarse cadence `run_closed_loop` uses; its verdict counters ride
    // into every frame.
    let dog = ClassificationWatchdog::start(
        Arc::clone(&engine),
        WatchdogConfig {
            interval: Duration::from_millis(100),
            ..WatchdogConfig::default()
        },
    );
    let sampler = EngineSampler::for_engine(&engine, Vec::new()).with_watchdog(dog.stats_probe());
    let monitor = HealthMonitor::start_with(sampler, Duration::from_millis(interval_ms));
    println!("mvccstat live: {certifier}, {threads} threads, {ops} ops, {interval_ms} ms cadence");
    let driver = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || drive_closed_loop(&engine, &profile))
    };
    // Stream frames as the recorder captures them: poll the shared ring
    // and print every frame not yet shown.  The poll is at most 10 ms
    // apart, so the run ends soon after its load, whatever the cadence.
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
        std::thread::sleep(Duration::from_millis(interval_ms.min(10)));
    }
    let elapsed = driver.join().expect("load driver panicked");
    // Stop order: the watchdog first (after one final pass over the
    // settled history), then the monitor, whose closing frame reads the
    // final verdict counts through the detached probe.
    let _ = dog.check_once();
    let verdict = dog.stop();
    let (frames, alarms) = monitor.stop();
    // The closing frame lands at stop, after the last poll; show it too.
    show_new(&frames);
    println!();
    println!("{}", engine.metrics().snapshot());
    print_alarms(&alarms);
    println!(
        "watchdog: {} windows, {} violations",
        verdict.windows, verdict.violations
    );
    println!(
        "run: {} frames in {:.2} s",
        frames.len(),
        elapsed.as_secs_f64()
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
    if let Some((path, mut file)) = out {
        if let Err(e) = file.write_all(write_jsonl(&frames).as_bytes()) {
            eprintln!("mvccstat live: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {} timeline frames to {path}", frames.len());
    }
}

/// Replays a `timeline.jsonl` export: frames rendered one per row and
/// the detector re-run over them.
fn replay(mut args: impl Iterator<Item = String>) {
    let path = args.next().unwrap_or_else(|| usage());
    if args.next().is_some() {
        usage();
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{path}: cannot read: {e}");
            std::process::exit(1);
        }
    };
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
    println!();
    print_alarms(&AnomalyDetector::replay(&frames));
}

fn print_alarms(alarms: &[Alarm]) {
    let active = alarms.iter().filter(|a| a.is_active()).count();
    println!("alarms: {} raised, {active} active", alarms.len());
    for alarm in alarms {
        println!("  {alarm}");
    }
}

fn parse_num(arg: Option<String>) -> usize {
    arg.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}
