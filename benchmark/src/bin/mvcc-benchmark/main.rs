//! `mvcc-benchmark`: the repo's benchmark (see `benchmark/README.md`).
//!
//! ```text
//! mvcc-benchmark [run] --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke]
//! mvcc-benchmark agree [--seed <u64>] [--seconds <n>] [--smoke]
//! ```
//!
//! `run` prints a report for people and, as the last line of standard
//! output, one JSON object `{correct, attempted, failed, metrics}`; it
//! exits non-zero when a correctness check failed.  With `--trace 0` (the
//! default) the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones.  Run it from the repository root: scratch files go to
//! `benchmark/out/`.

mod checks;
mod fixed;
mod layers;
mod load;
mod report;
mod spans;
mod stats;
mod trace;
mod traffic;
mod workloads;

use mvcc_telemetry::json::JsonValue;
use report::{parse_result_line, Outcome, ResultLine, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Options, Work, Workload, WORKLOADS};

/// Measured seconds of a run when `--seconds` is absent (`run_seconds` in
/// `BENCHMARK.json`), and of a smoke run.
const DEFAULT_SECONDS: f64 = 24.0;
const SMOKE_SECONDS: f64 = 1.2;

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    agree: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        agree: false,
        workload: None,
        seed: fixed::DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut args = args.iter().peekable();
    match args.peek().map(|s| s.as_str()) {
        Some("run") => {
            args.next();
        }
        Some("agree") => {
            cli.agree = true;
            args.next();
        }
        _ => {}
    }
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {seconds}"));
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn options(cli: &Cli) -> Options {
    Options {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        smoke: cli.smoke,
        out_dir: PathBuf::from("benchmark/out"),
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// nproc, CPU model, rustc and build profile — a number without them is
/// not comparable to anything.
fn host_shape(workers: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug build — numbers are meaningless"
    } else {
        "release, lto=thin, codegen-units=1"
    };
    format!("host: nproc {workers}, {cpu}, {rustc}, {profile}")
}

/// `BENCHMARK.json`, parsed.
fn declaration(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    mvcc_telemetry::json::parse(&text)
}

/// The entries of one of its lists (`workloads`, `end_to_end`, `per_layer`).
fn entries<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .ok_or(format!("BENCHMARK.json has no {key} list"))
}

/// A string field of an entry.
fn text<'a>(entry: &'a JsonValue, field: &str) -> Result<&'a str, String> {
    entry
        .get(field)
        .and_then(JsonValue::as_str)
        .ok_or(format!("a BENCHMARK.json entry lacks {field}"))
}

/// The result line must carry exactly the metrics `BENCHMARK.json`
/// declares under `key`, with their units.
fn matches_declaration(outcome: &Outcome, path: &Path, key: &str) -> Result<(), String> {
    let doc = declaration(path)?;
    let declared = entries(&doc, key)?
        .iter()
        .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
        .collect::<Result<Vec<_>, String>>()?;
    let reported: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let missing: Vec<_> = declared.iter().filter(|d| !reported.contains(d)).collect();
    let extra: Vec<_> = reported.iter().filter(|r| !declared.contains(r)).collect();
    if missing.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!("not reported {missing:?}; not declared {extra:?}"))
    }
}

/// Runs one workload in this process.
fn run(w: &Workload, cli: &Cli, started: Instant) -> Outcome {
    let mut outcome = measure(w, cli, started);
    let key = if cli.trace { "per_layer" } else { "end_to_end" };
    let declaration = matches_declaration(&outcome, Path::new("BENCHMARK.json"), key);
    outcome.check(
        format!("metrics are BENCHMARK.json's {key} list"),
        declaration,
    );
    outcome
}

fn measure(w: &Workload, cli: &Cli, started: Instant) -> Outcome {
    let opts = options(cli);
    if cli.trace {
        return trace::run_traced(w, &opts);
    }
    let mut outcome = match w.work {
        Work::Engine { .. } => workloads::run_engine(w, &opts),
        Work::Restart => fixed::run_restart(w, &opts),
        Work::Classify => fixed::run_classify(w, &opts),
    };
    let peak = layers::peak_rss_bytes();
    outcome.detail.push(format!(
        "  peak_rss_mb    {:>12.1} MB",
        peak as f64 / (1 << 20) as f64
    ));
    // Everything this invocation did outside its measured windows:
    // set-up, warm-ups, teardown and every correctness pass.
    outcome.detail.push(format!(
        "  outside_s      {:>12.3} s     (wall time of the invocation outside its measured windows)",
        started.elapsed().as_secs_f64() - outcome.measured_s
    ));
    outcome
}

/// Runs one workload in a child process (its own peak memory and set-up,
/// exactly as the benchmark driver runs it) and parses its result line.
fn run_child(w: &Workload, cli: &Cli) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name, "--seed", &cli.seed.to_string()]);
    if let Some(seconds) = cli.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = parse_result_line(line, &END_TO_END)?;
    if !output.status.success() || !result.correct {
        return Err(format!("the run failed its checks ({})", output.status));
    }
    Ok(result)
}

/// What `agree` reads from `BENCHMARK.json`: the listed workloads and the
/// bound of every end-to-end metric.
fn agreement_terms(path: &Path) -> Result<(Vec<&'static Workload>, Vec<(String, f64)>), String> {
    let doc = declaration(path)?;
    let listed = entries(&doc, "workloads")?
        .iter()
        .map(|w| {
            let name = text(w, "name")?;
            workloads::find(name).ok_or(format!("BENCHMARK.json lists unknown workload {name}"))
        })
        .collect::<Result<_, String>>()?;
    let bounds = entries(&doc, "end_to_end")?
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(JsonValue::as_number);
            Ok((
                text(m, "name")?.to_string(),
                bound.ok_or("metric without a bound")?,
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok((listed, bounds))
}

/// `agree`: every listed workload twice with the same code and seed; an
/// end-to-end metric whose two values differ by more than its bound
/// (|a − b| ÷ mean) fails the command.
fn agree(cli: &Cli) -> ExitCode {
    let (listed, bounds) = match agreement_terms(Path::new("BENCHMARK.json")) {
        Ok(terms) => terms,
        Err(why) => {
            eprintln!("agree: {why} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    let mut disagreements = 0;
    println!(
        "{:<14} {:<18} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for w in listed {
        let pair = run_child(w, cli).and_then(|a| Ok((a, run_child(w, cli)?)));
        let (a, b) = match pair {
            Ok(pair) => pair,
            Err(why) => {
                println!("{:<14} FAILED: {why}", w.name);
                disagreements += 1;
                continue;
            }
        };
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            let bound = bounds
                .iter()
                .find(|(n, _)| *n == x.name)
                .map_or(0.0, |(_, b)| *b);
            let differ = stats::round_spread(x.value, y.value);
            let verdict = if differ > bound { "  DISAGREE" } else { "" };
            disagreements += usize::from(differ > bound);
            println!(
                "{:<14} {:<18} {:>16.4} {:>16.4} {:>8.1}% {:>6.0}%{verdict}",
                w.name,
                x.name,
                x.value,
                y.value,
                differ * 100.0,
                bound * 100.0
            );
        }
    }
    if disagreements == 0 {
        println!("agree: every end-to-end metric agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("agree: {disagreements} disagreements");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = stats::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("mvcc-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    if cli.agree {
        return agree(&cli);
    }
    let Some(w) = cli.workload.as_deref().and_then(workloads::find) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("mvcc-benchmark: --workload must be one of {names:?}");
        return ExitCode::from(2);
    };
    println!(
        "mvcc-benchmark {} ({}) seed {} {}",
        w.name,
        if cli.trace {
            "traced: per-layer metrics"
        } else {
            "end-to-end metrics"
        },
        cli.seed,
        if cli.smoke {
            "SMOKE (numbers not comparable)"
        } else {
            ""
        }
    );
    println!("{}", host_shape(options(&cli).workers));
    println!("  why: {}", w.why);
    let outcome = run(w, &cli, started);
    print!("{}", outcome.render());
    println!("{}", outcome.result_line());
    ExitCode::from(outcome.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_cli(&args("run --workload hot --seed 42 --seconds 24 --trace 1")).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("hot"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (42, Some(24.0), true));
        // `run` is optional, and so is everything but the workload.
        let cli = parse_cli(&args("--workload uniform")).unwrap();
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace, cli.smoke),
            (1, None, false, false)
        );
        assert!(parse_cli(&args("agree --smoke")).unwrap().agree);
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seconds 61",
            "--seed x",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad}");
        }
    }

    /// The `[profile.release]` table of a manifest, as sorted `key = value` lines.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| {
                l.split('#')
                    .next()
                    .unwrap_or("")
                    .split_whitespace()
                    .collect::<String>()
            })
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn release_profile_mirrors_the_root_manifest() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mine = std::fs::read_to_string(here.join("Cargo.toml")).unwrap();
        let root = std::fs::read_to_string(here.join("../Cargo.toml")).unwrap();
        assert!(
            !release_profile(&root).is_empty(),
            "root has no release profile"
        );
        assert_eq!(release_profile(&mine), release_profile(&root));
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = declaration(&path).unwrap();
        let names = |key: &str| -> Vec<&str> {
            entries(&doc, key)
                .unwrap()
                .iter()
                .map(|m| text(m, "name").unwrap())
                .collect()
        };
        // The listed workloads, in order, each with its reason.
        assert_eq!(names("workloads"), workloads::LISTED);
        for json in entries(&doc, "workloads").unwrap() {
            let w = workloads::find(text(json, "name").unwrap()).unwrap();
            assert_eq!(text(json, "why").unwrap(), w.why);
        }
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_number),
            Some(DEFAULT_SECONDS)
        );
        let (_, bounds) = agreement_terms(&path).unwrap();
        assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    }
}
