//! Named workload suites used by the experiment harness.
//!
//! Each suite is the parameter sweep behind one experiment table of
//! `EXPERIMENTS.md`; keeping them here (rather than inline in the bench
//! binaries) makes the tables reproducible from library code and testable.

use crate::WorkloadConfig;

/// The base configuration of experiment E9.
pub(crate) fn e9_base() -> WorkloadConfig {
    WorkloadConfig::default()
}

/// E9 contention sweep: the number of entities shrinks (and the hot-spot
/// skew grows) so that read-write conflicts become more frequent.
pub fn e9_contention_sweep() -> Vec<WorkloadConfig> {
    let base = e9_base();
    vec![
        WorkloadConfig {
            entities: 64,
            zipf_theta: 0.0,
            ..base
        },
        WorkloadConfig {
            entities: 16,
            zipf_theta: 0.0,
            ..base
        },
        WorkloadConfig {
            entities: 16,
            zipf_theta: 0.9,
            ..base
        },
        WorkloadConfig {
            entities: 4,
            zipf_theta: 0.0,
            ..base
        },
        WorkloadConfig {
            entities: 4,
            zipf_theta: 0.9,
            ..base
        },
    ]
}

/// E9 read-ratio sweep.
pub fn e9_read_ratio_sweep() -> Vec<WorkloadConfig> {
    [0.5, 0.8, 0.95]
        .into_iter()
        .map(|read_ratio| WorkloadConfig {
            read_ratio,
            ..e9_base()
        })
        .collect()
}

/// E9 scale sweep: more and longer transactions.
pub fn e9_scale_sweep() -> Vec<WorkloadConfig> {
    vec![
        WorkloadConfig {
            transactions: 4,
            steps_per_transaction: 4,
            ..e9_base()
        },
        WorkloadConfig {
            transactions: 8,
            steps_per_transaction: 4,
            ..e9_base()
        },
        WorkloadConfig {
            transactions: 16,
            steps_per_transaction: 4,
            ..e9_base()
        },
        WorkloadConfig {
            transactions: 8,
            steps_per_transaction: 8,
            ..e9_base()
        },
    ]
}

/// E10 classifier scaling sweep: schedule sizes for the polynomial/NP
/// separation table (the NP classifiers are only run on the small end).
pub fn e10_sizes() -> Vec<WorkloadConfig> {
    vec![
        WorkloadConfig {
            transactions: 2,
            steps_per_transaction: 4,
            entities: 4,
            ..e9_base()
        },
        WorkloadConfig {
            transactions: 4,
            steps_per_transaction: 4,
            entities: 8,
            ..e9_base()
        },
        WorkloadConfig {
            transactions: 8,
            steps_per_transaction: 4,
            entities: 8,
            ..e9_base()
        },
        WorkloadConfig {
            transactions: 16,
            steps_per_transaction: 8,
            entities: 16,
            ..e9_base()
        },
        WorkloadConfig {
            transactions: 32,
            steps_per_transaction: 8,
            entities: 32,
            ..e9_base()
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suite_configurations_are_valid() {
        for cfg in e9_contention_sweep()
            .into_iter()
            .chain(e9_read_ratio_sweep())
            .chain(e9_scale_sweep())
            .chain(e10_sizes())
            .chain(std::iter::once(e9_base()))
        {
            assert!(cfg.validate().is_ok(), "invalid config {cfg:?}");
        }
    }

    #[test]
    fn sweeps_have_multiple_points() {
        assert!(e9_contention_sweep().len() >= 4);
        assert_eq!(e9_read_ratio_sweep().len(), 3);
        assert!(e9_scale_sweep().len() >= 3);
        assert!(e10_sizes().len() >= 4);
    }

    #[test]
    fn contention_sweep_varies_entities_or_skew() {
        let sweep = e9_contention_sweep();
        let distinct: std::collections::BTreeSet<String> =
            sweep.iter().map(|c| c.label()).collect();
        assert_eq!(distinct.len(), sweep.len());
    }
}
