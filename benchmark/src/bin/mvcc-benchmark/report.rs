//! What a run reports: named metrics, correctness checks, the result line.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics` — the contract the
//! benchmark driver reads.  Everything printed above it is for people.

use mvcc_telemetry::json::{self, JsonValue};
use std::fmt::Write as _;

/// The end-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
/// Every workload reports every one of them; what an *operation* is on a
/// workload is stated in its definition (see `workloads.rs`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("ops_s", "1/s"), ("op_tail_us", "us")];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One correctness check and how it went.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    /// `Err` carries what was wrong.
    pub result: Result<(), String>,
}

/// Everything one invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics of the result line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Named detail printed above the result line: per-certifier rates,
    /// round spreads, sample counts.
    pub detail: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds spent inside measured windows (everything else the
    /// invocation did is `setup_s`).
    pub measured_s: f64,
    pub checks: Vec<Check>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, result: Result<(), String>) {
        self.checks.push(Check {
            name: name.into(),
            result,
        });
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// `true` when every check passed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.result.is_ok())
            && self.metrics.iter().all(|m| m.value.is_finite())
            && self.attempted >= 1
    }

    /// The process exit code: non-zero when a correctness check failed.
    pub fn exit_code(&self) -> u8 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    /// The machine-readable result line.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_string(&mut out, &m.name);
            out.push_str(": {\"value\": ");
            // JSON has no NaN or infinity; `correct` is already false.
            json::write_number(&mut out, if m.value.is_finite() { m.value } else { 0.0 });
            out.push_str(", \"unit\": ");
            json::write_string(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// The human-readable report (everything but the result line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.detail {
            let _ = writeln!(out, "{line}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "  operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for c in &self.checks {
            match &c.result {
                Ok(()) => {
                    let _ = writeln!(out, "  check ok    {}", c.name);
                }
                Err(why) => {
                    let _ = writeln!(out, "  check FAILED {}: {why}", c.name);
                }
            }
        }
        out
    }
}

/// A parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Parses a result line back (used by `agree` and the schema tests).
pub fn parse_result_line(
    line: &str,
    units: &[(&'static str, &'static str)],
) -> Result<ResultLine, String> {
    let doc = json::parse(line)?;
    let keys: Vec<&str> = doc
        .as_object()
        .ok_or("result line is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    let count = |key: &str| -> Result<u64, String> {
        let n = doc
            .get(key)
            .and_then(JsonValue::as_number)
            .ok_or(format!("{key} is not a number"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("{key} is not a whole number: {n}"));
        }
        Ok(n as u64)
    };
    let correct = match doc.get("correct") {
        Some(JsonValue::Bool(b)) => *b,
        _ => return Err("correct is not a boolean".into()),
    };
    let mut metrics = Vec::new();
    for (name, body) in doc
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("metrics is not an object")?
    {
        let value = body
            .get("value")
            .and_then(JsonValue::as_number)
            .ok_or(format!("{name}: value is not a number"))?;
        let unit = body
            .get("unit")
            .and_then(JsonValue::as_str)
            .ok_or(format!("{name}: unit is not a string"))?;
        let unit = units
            .iter()
            .find(|(n, u)| n == name && *u == unit)
            .map(|(_, u)| *u)
            .ok_or(format!("{name}: unknown metric or unit {unit:?}"))?;
        metrics.push(Metric::new(name.clone(), value, unit));
    }
    Ok(ResultLine {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        let mut outcome = Outcome {
            attempted: 1000,
            ..Outcome::default()
        };
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            outcome.metric(*name, 1.2034 * (i + 1) as f64, unit);
        }
        outcome.check("history in class", Ok(()));
        outcome
    }

    #[test]
    fn result_line_round_trips() {
        let outcome = sample();
        let line = outcome.result_line();
        assert!(!line.contains('\n'));
        let parsed = parse_result_line(&line, &END_TO_END).expect("parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(parsed.metrics, outcome.metrics);
        assert_eq!(outcome.exit_code(), 0);
    }

    #[test]
    fn a_failed_check_or_a_non_number_fails_the_run() {
        let mut outcome = sample();
        outcome.check("planted", Err("boom".into()));
        assert_ne!(outcome.exit_code(), 0);
        assert!(outcome.result_line().starts_with("{\"correct\": false"));
        assert!(outcome.render().contains("check FAILED planted: boom"));

        let mut outcome = sample();
        outcome.metrics[1].value = f64::NAN;
        assert_ne!(outcome.exit_code(), 0);
        assert!(parse_result_line(&outcome.result_line(), &END_TO_END).is_ok());
    }

    #[test]
    fn foreign_shapes_are_refused() {
        assert!(parse_result_line("{\"correct\": true}", &END_TO_END).is_err());
        let line = sample().result_line().replace("\"us\"", "\"ms\"");
        assert!(parse_result_line(&line, &END_TO_END).is_err());
    }
}
