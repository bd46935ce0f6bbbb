//! Experiment E12: engine throughput and abort-rate scaling under real
//! concurrent load — threads × Zipfian skew θ × certifier.
//!
//! This is the paper's "enhanced performance" claim taken out of the
//! single-schedule replay harness and put under multi-threaded closed-loop
//! load: each cell runs a fresh `mvcc-engine` with one certifier from the
//! zoo and reports committed-transaction throughput, the abort breakdown
//! and tail latency.  A small validated sweep at the end re-checks the
//! committed histories with the offline classifiers.
//!
//! Run with `cargo run -p mvcc-bench --bin engine_scaling --release`.

use mvcc_bench::experiments::engine_load_table;
use mvcc_bench::Table;
use mvcc_workload::LoadProfile;

fn print_sweep(title: &str, profiles: &[LoadProfile], validate: bool) {
    println!("### {title}\n");
    for profile in profiles {
        let rows = engine_load_table(profile, validate);
        let mut table = Table::new(
            profile.to_string(),
            &[
                "certifier",
                "class",
                "throughput (txn/s)",
                "committed",
                "aborted",
                "abort rate",
                "p99 commit (µs)",
                "history in class",
            ],
        );
        for row in rows {
            table.row(&[
                row.certifier.to_string(),
                row.certifier.class().to_string(),
                format!("{:.0}", row.throughput_tps),
                row.committed.to_string(),
                row.aborted.to_string(),
                format!("{:.1}%", row.abort_ratio * 100.0),
                format!("{:.0}", row.p99_latency_us),
                match row.history_in_class {
                    Some(true) => "yes".into(),
                    Some(false) => "NO (bug!)".into(),
                    None => "unchecked".into(),
                },
            ]);
        }
        println!("{}", table.render());
    }
}

fn main() {
    let base = LoadProfile {
        ops: 20_000,
        ..LoadProfile::default()
    };
    // Thread scaling at moderate contention.
    let thread_sweep: Vec<LoadProfile> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|threads| LoadProfile {
            threads,
            shards: threads.max(2),
            zipf_theta: 0.5,
            ..base
        })
        .collect();
    print_sweep("E12a: thread scaling (θ = 0.5)", &thread_sweep, false);

    // Contention sweep at fixed parallelism.
    let theta_sweep: Vec<LoadProfile> = [0.0, 0.5, 0.9, 1.2]
        .into_iter()
        .map(|zipf_theta| LoadProfile {
            threads: 4,
            shards: 4,
            zipf_theta,
            ..base
        })
        .collect();
    print_sweep("E12b: contention sweep (4 threads)", &theta_sweep, false);

    // Small validated runs: the offline classifiers re-check the committed
    // histories (kept small because the MVTO check is the NP-complete one).
    let validated: Vec<LoadProfile> = [0.0, 0.9]
        .into_iter()
        .map(|zipf_theta| LoadProfile {
            threads: 4,
            shards: 2,
            ops: 120,
            entities: 8,
            steps_per_transaction: 3,
            zipf_theta,
            ..base
        })
        .collect();
    print_sweep(
        "E12c: theory checks the engine (validated histories)",
        &validated,
        true,
    );
}
