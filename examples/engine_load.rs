//! Drive the concurrent engine under closed-loop load and let the theory
//! check the result.
//!
//! Runs the whole certifier zoo — 2PL, TSO, SGT, MV-SGT, MVTO, snapshot
//! isolation — over the same Zipfian hot-spot profile, prints throughput
//! and abort statistics, and re-checks each committed history with the
//! offline classifiers of `mvcc-classify`.
//!
//! Run with `cargo run --example engine_load`.

use mvcc_repro::engine::{run_closed_loop, CertifierKind};
use mvcc_repro::prelude::*;

fn main() {
    let profile = LoadProfile {
        threads: 4,
        shards: 2,
        ops: 300,
        entities: 8,
        steps_per_transaction: 3,
        read_ratio: 0.7,
        zipf_theta: 0.9,
        seed: 0xe9,
    };
    println!("closed-loop engine load: {profile}\n");

    for kind in CertifierKind::all() {
        // Keep the MVTO run small: its class check (MVSR) is the exact
        // NP-complete search.
        let p = if kind == CertifierKind::Mvto {
            LoadProfile { ops: 48, ..profile }
        } else {
            profile
        };
        let report = run_closed_loop(kind, &p, LoadOptions::default());
        let m = &report.metrics;
        println!(
            "{:>6} [{:>5}]: {:>6.0} txn/s, {} committed / {} aborted ({:.0}% commit), \
             p99 {:.0} µs, gc reclaimed {}",
            kind.to_string(),
            report.class.to_string(),
            report.throughput_tps(),
            m.committed,
            m.aborted,
            m.commit_ratio() * 100.0,
            m.latency_us(0.99).unwrap_or(0.0),
            m.gc_reclaimed,
        );
        let history = report.history.committed_schedule();
        let verdict = report.history_in_class();
        println!(
            "        history: {} committed steps — offline check ({}): {}",
            history.len(),
            report.class,
            if verdict {
                "in class ✓"
            } else {
                "OUT OF CLASS ✗"
            }
        );
        assert!(verdict, "{kind}: committed history fell out of class");
    }

    println!("\nevery committed history verified by the offline classifiers.");
}
