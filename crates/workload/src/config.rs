//! Workload configuration.
//!
//! Two configuration surfaces live here:
//!
//! * [`WorkloadConfig`] — the schedule-level experiment workloads (E9 and
//!   friends): a fixed transaction system, replayed offline;
//! * [`LoadProfile`] — the engine load harness (experiment E12): an open
//!   system of worker threads issuing transactions against `mvcc-engine`
//!   until an operation budget is exhausted.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Parameters of a randomly generated transaction workload.
///
/// The defaults correspond to the "base" workload of experiment E9 (see
/// `EXPERIMENTS.md`); the sweep tables vary one field at a time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of transactions.
    pub transactions: usize,
    /// Steps per transaction.
    pub steps_per_transaction: usize,
    /// Number of distinct entities.
    pub entities: usize,
    /// Probability that a step is a read (as opposed to a write).
    pub read_ratio: f64,
    /// Zipfian skew of entity selection (`0.0` = uniform).
    pub zipf_theta: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            transactions: 8,
            steps_per_transaction: 4,
            entities: 16,
            read_ratio: 0.8,
            zipf_theta: 0.0,
            seed: 0x5eed,
        }
    }
}

impl WorkloadConfig {
    /// Total number of steps the workload will contain.
    pub fn total_steps(&self) -> usize {
        self.transactions * self.steps_per_transaction
    }

    /// Returns a copy with a different seed (used to generate repetitions).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A human-readable one-line description used as a table row label.
    pub fn label(&self) -> String {
        format!(
            "txns={} steps={} entities={} reads={:.0}% zipf={:.1}",
            self.transactions,
            self.steps_per_transaction,
            self.entities,
            self.read_ratio * 100.0,
            self.zipf_theta
        )
    }

    /// Basic sanity checks (non-zero sizes, ratios within range).
    pub fn validate(&self) -> Result<(), String> {
        if self.transactions == 0 || self.steps_per_transaction == 0 || self.entities == 0 {
            return Err("transactions, steps and entities must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.read_ratio) {
            return Err("read_ratio must lie in [0, 1]".into());
        }
        if self.zipf_theta < 0.0 {
            return Err("zipf_theta must be non-negative".into());
        }
        Ok(())
    }
}

/// Parameters of a closed-loop engine load run (`mvcc-engine`).
///
/// The profile round-trips through its `Display` form — a space-separated
/// `key=value` line such as
/// `threads=4 shards=2 ops=1000 entities=16 steps=4 reads=0.80 theta=0.90 seed=24269`
/// — so sweep scripts and bench tables can log and replay profiles
/// verbatim ([`LoadProfile::from_str`] parses exactly that form).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadProfile {
    /// Number of worker threads driving sessions concurrently.
    pub threads: usize,
    /// Number of store shards (entities are hashed over them).
    pub shards: usize,
    /// Total operation budget: the run stops once this many read/write
    /// steps have been claimed by workers ("duration in ops").
    pub ops: usize,
    /// Number of distinct entities.
    pub entities: usize,
    /// Steps per transaction.
    pub steps_per_transaction: usize,
    /// Probability that a step is a read (the read/write mix).
    pub read_ratio: f64,
    /// Zipfian skew of entity selection (`0.0` = uniform).
    pub zipf_theta: f64,
    /// Random seed; each worker derives its own stream from it.
    pub seed: u64,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile {
            threads: 4,
            shards: 2,
            ops: 1_000,
            entities: 16,
            steps_per_transaction: 4,
            read_ratio: 0.8,
            zipf_theta: 0.0,
            seed: 0x5eed,
        }
    }
}

impl LoadProfile {
    /// Returns a copy with a different seed (used to generate repetitions).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Basic sanity checks (non-zero sizes, ratios within range).
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 || self.shards == 0 {
            return Err("threads and shards must be positive".into());
        }
        if self.ops == 0 || self.entities == 0 || self.steps_per_transaction == 0 {
            return Err("ops, entities and steps must be positive".into());
        }
        if self.threads > self.ops {
            return Err("threads must not exceed ops: a worker with no op is a bad profile".into());
        }
        if !(0.0..=1.0).contains(&self.read_ratio) {
            return Err("read_ratio must lie in [0, 1]".into());
        }
        if self.zipf_theta < 0.0 {
            return Err("zipf_theta must be non-negative".into());
        }
        Ok(())
    }
}

impl fmt::Display for LoadProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "threads={} shards={} ops={} entities={} steps={} reads={:.2} theta={:.2} seed={}",
            self.threads,
            self.shards,
            self.ops,
            self.entities,
            self.steps_per_transaction,
            self.read_ratio,
            self.zipf_theta,
            self.seed
        )
    }
}

impl FromStr for LoadProfile {
    type Err = String;

    /// Parses the `Display` form: all eight `key=value` fields, in any
    /// order, each exactly once.
    fn from_str(text: &str) -> Result<Self, String> {
        let mut profile = LoadProfile::default();
        let mut seen = [false; 8];
        for token in text.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("malformed token {token:?} (expected key=value)"))?;
            let idx = match key {
                "threads" => 0,
                "shards" => 1,
                "ops" => 2,
                "entities" => 3,
                "steps" => 4,
                "reads" => 5,
                "theta" => 6,
                "seed" => 7,
                other => return Err(format!("unknown key {other:?}")),
            };
            if seen[idx] {
                return Err(format!("duplicate key {key:?}"));
            }
            seen[idx] = true;
            let bad = || format!("invalid value {value:?} for {key}");
            match key {
                "threads" => profile.threads = value.parse().map_err(|_| bad())?,
                "shards" => profile.shards = value.parse().map_err(|_| bad())?,
                "ops" => profile.ops = value.parse().map_err(|_| bad())?,
                "entities" => profile.entities = value.parse().map_err(|_| bad())?,
                "steps" => profile.steps_per_transaction = value.parse().map_err(|_| bad())?,
                "reads" => profile.read_ratio = value.parse().map_err(|_| bad())?,
                "theta" => profile.zipf_theta = value.parse().map_err(|_| bad())?,
                "seed" => profile.seed = value.parse().map_err(|_| bad())?,
                _ => unreachable!("key validated above"),
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            let names = [
                "threads", "shards", "ops", "entities", "steps", "reads", "theta", "seed",
            ];
            return Err(format!("missing key {:?}", names[missing]));
        }
        profile.validate()?;
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let c = WorkloadConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.total_steps(), 32);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = WorkloadConfig {
            transactions: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = WorkloadConfig {
            read_ratio: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = WorkloadConfig {
            zipf_theta: -1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn label_and_with_seed() {
        let c = WorkloadConfig::default().with_seed(42);
        assert_eq!(c.seed, 42);
        assert!(c.label().contains("txns=8"));
        assert!(c.label().contains("reads=80%"));
    }

    #[test]
    fn load_profile_display_parse_round_trip() {
        let profiles = [
            LoadProfile::default(),
            LoadProfile {
                threads: 8,
                shards: 4,
                ops: 50_000,
                entities: 256,
                steps_per_transaction: 6,
                read_ratio: 0.5,
                zipf_theta: 0.99,
                seed: 7,
            },
            LoadProfile::default().with_seed(12345),
        ];
        for p in profiles {
            let text = p.to_string();
            let parsed: LoadProfile = text.parse().unwrap();
            assert_eq!(parsed, p, "round trip through {text:?}");
        }
    }

    #[test]
    fn load_profile_parse_accepts_any_key_order() {
        let p: LoadProfile =
            "seed=1 theta=0.00 reads=1.00 steps=2 entities=3 ops=10 shards=2 threads=4"
                .parse()
                .unwrap();
        assert_eq!(p.threads, 4);
        assert_eq!(p.read_ratio, 1.0);
        assert_eq!(p.steps_per_transaction, 2);
    }

    #[test]
    fn load_profile_parse_rejects_malformed_input() {
        let default_line = LoadProfile::default().to_string();
        // Unknown key.
        assert!(format!("{default_line} bogus=1")
            .parse::<LoadProfile>()
            .is_err());
        // Duplicate key.
        assert!(format!("{default_line} threads=9")
            .parse::<LoadProfile>()
            .is_err());
        // Missing key.
        assert!("threads=4".parse::<LoadProfile>().is_err());
        // Not key=value.
        assert!(default_line
            .replace("threads=4", "threads")
            .parse::<LoadProfile>()
            .is_err());
        // Bad number.
        assert!(default_line
            .replace("ops=1000", "ops=lots")
            .parse::<LoadProfile>()
            .is_err());
        // Parses but fails validation.
        assert!(default_line
            .replace("reads=0.80", "reads=1.50")
            .parse::<LoadProfile>()
            .is_err());
        assert!(default_line
            .replace("shards=2", "shards=0")
            .parse::<LoadProfile>()
            .is_err());
    }

    #[test]
    fn load_profile_parse_rejects_invalid_domain_values() {
        let default_line = LoadProfile::default().to_string();
        // Negative Zipfian skew parses as a float but fails validation.
        let err = default_line
            .replace("theta=0.00", "theta=-0.50")
            .parse::<LoadProfile>()
            .unwrap_err();
        assert!(err.contains("zipf_theta"), "{err}");
        // Zero entities would give the Zipfian sampler an empty support.
        let err = default_line
            .replace("entities=16", "entities=0")
            .parse::<LoadProfile>()
            .unwrap_err();
        assert!(err.contains("entities"), "{err}");
        // θ = 1.0 exactly (the harmonic-series boundary: weights 1/k) is a
        // valid profile and must round-trip.
        let harmonic: LoadProfile = default_line
            .replace("theta=0.00", "theta=1.00")
            .parse()
            .unwrap();
        assert_eq!(harmonic.zipf_theta, 1.0);
        assert_eq!(
            harmonic.to_string().parse::<LoadProfile>().unwrap(),
            harmonic
        );
    }

    #[test]
    fn load_profile_validation_bounds() {
        assert!(LoadProfile::default().validate().is_ok());
        for broken in [
            LoadProfile {
                threads: 0,
                ..Default::default()
            },
            LoadProfile {
                ops: 0,
                ..Default::default()
            },
            LoadProfile {
                threads: 5,
                ops: 4,
                ..Default::default()
            },
            LoadProfile {
                read_ratio: -0.1,
                ..Default::default()
            },
            LoadProfile {
                zipf_theta: -1.0,
                ..Default::default()
            },
        ] {
            assert!(broken.validate().is_err(), "{broken} should be invalid");
        }
    }
}
