//! Criterion benchmarks for experiment E10: the polynomial classifiers
//! (CSR, MVCSR, and DMVSR on schedules whose transactions write an entity
//! at most once) scale with the schedule — up to audits of 200 000-step
//! committed histories — while the exact NP-complete classifiers (VSR,
//! MVSR: one pruned search, two clients) are only run on small instances,
//! DMVSR beside them.  `classify_polynomial` straddles the 64-transaction
//! boundary of the acyclicity test (bitmasks up to 64×8, Kahn's pass from
//! 65×8), and `classify_corpus/*` times each test and `taxonomy::classify`
//! on 256 schedules of the end-to-end benchmark's corpus shape (divide a
//! reading by 256 for the per-call cost).
//!
//! Also covers experiment E1/E2/E3 costs: classifying the Figure 1 examples
//! and checking Theorem 1 / Theorem 2 on a fixed small schedule.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvcc_classify::dmvsr::is_dmvsr;
use mvcc_classify::swaps::serial_reachable_by_swaps;
use mvcc_classify::{is_csr, is_mvcsr, is_mvsr, is_vsr, taxonomy};
use mvcc_core::{Schedule, Step};
use mvcc_scheduler::{run_abort, MvSgtScheduler, Scheduler, SgtScheduler};
use mvcc_workload::{
    random_interleaving, random_interleavings, random_transaction_system, WorkloadConfig,
};
use std::time::Duration;

fn schedule_of(transactions: usize, steps: usize, entities: usize) -> mvcc_core::Schedule {
    let cfg = WorkloadConfig {
        transactions,
        steps_per_transaction: steps,
        entities,
        read_ratio: 0.7,
        zipf_theta: 0.3,
        seed: 0xbe9c4,
    };
    let sys = random_transaction_system(&cfg);
    random_interleaving(&sys, 42)
}

fn bench_polynomial_classifiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify_polynomial");
    group
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(20);
    for &(txns, steps) in &[
        (4usize, 4usize),
        (8, 4),
        (16, 8),
        (32, 8),
        (64, 8),
        (65, 8),
        (128, 8),
    ] {
        let s = schedule_of(txns, steps, 16);
        group.bench_with_input(
            BenchmarkId::new("csr", format!("{txns}x{steps}")),
            &s,
            |b, s| b.iter(|| is_csr(s)),
        );
        group.bench_with_input(
            BenchmarkId::new("mvcsr", format!("{txns}x{steps}")),
            &s,
            |b, s| b.iter(|| is_mvcsr(s)),
        );
        if matches!(txns, 8 | 64 | 65) {
            group.bench_with_input(
                BenchmarkId::new("dmvsr", format!("{txns}x{steps}")),
                &s,
                |b, s| b.iter(|| is_dmvsr(s)),
            );
        }
    }
    group.finish();
}

fn bench_np_classifiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify_np_complete");
    group
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    for &txns in &[3usize, 4, 5, 6, 8, 12] {
        let s = schedule_of(txns, 4, 6);
        group.bench_with_input(BenchmarkId::new("vsr", txns), &s, |b, s| {
            b.iter(|| is_vsr(s))
        });
        group.bench_with_input(BenchmarkId::new("mvsr", txns), &s, |b, s| {
            b.iter(|| is_mvsr(s))
        });
        group.bench_with_input(BenchmarkId::new("dmvsr", txns), &s, |b, s| {
            b.iter(|| is_dmvsr(s))
        });
    }
    group.finish();
}

/// 256 schedules of the shape the end-to-end benchmark's `classify`
/// workload draws (8 transactions x 4 steps over 8 entities, half reads, no
/// skew), through each standalone test and through `taxonomy::classify`,
/// which builds one dense index for all six verdicts.  A row reads the time
/// of all 256 calls; the standalone rows add up to more than the `classify`
/// row by the index builds the taxonomy shares.  The MVSR test is three
/// rows: `mvsr_mvcsr` over the MVCSR schedules (the MVCG's topological
/// order is the certificate, checked in one pass, no search),
/// `mvsr_only` over the other MVSR schedules (the search finds a witness),
/// `mvsr_out` over the rest (the refutations, most of them before the
/// first search node).
fn bench_corpus(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify_corpus");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    let corpus = random_interleavings(
        &WorkloadConfig {
            transactions: 8,
            steps_per_transaction: 4,
            entities: 8,
            read_ratio: 0.5,
            zipf_theta: 0.0,
            seed: 0x9e37_79b9_7f4a_7c15,
        },
        256,
    );
    let (mvsr_in, mvsr_out): (Vec<&Schedule>, Vec<&Schedule>) =
        corpus.iter().partition(|s| is_mvsr(s));
    let (mvsr_mvcsr, mvsr_only): (Vec<&Schedule>, Vec<&Schedule>) =
        mvsr_in.into_iter().partition(|s| is_mvcsr(s));
    let all: Vec<&Schedule> = corpus.iter().collect();
    let tests: [(&str, &[&Schedule], fn(&Schedule) -> bool); 8] = [
        ("csr", &all, is_csr),
        ("mvcsr", &all, is_mvcsr),
        ("dmvsr", &all, is_dmvsr),
        ("vsr", &all, is_vsr),
        ("mvsr_mvcsr", &mvsr_mvcsr, is_mvsr),
        ("mvsr_only", &mvsr_only, is_mvsr),
        ("mvsr_out", &mvsr_out, is_mvsr),
        ("classify", &all, |s| taxonomy::classify(s).mvsr),
    ];
    for (name, schedules, test) in tests {
        group.bench_function(name, |b| {
            b.iter(|| schedules.iter().filter(|s| test(s)).count())
        });
    }
    group.finish();
}

/// The history `scheduler` commits when eight sessions offer the steps of
/// random 4-step transactions round-robin (a rejected transaction aborts):
/// the shape of history the engine's watchdog and the benchmark's audits
/// re-prove, about `steps` long.
fn committed_history(scheduler: &mut dyn Scheduler, steps: usize, entities: usize) -> Schedule {
    const SESSIONS: usize = 8;
    const STEPS: usize = 4;
    let sys = random_transaction_system(&WorkloadConfig {
        transactions: steps / STEPS,
        steps_per_transaction: STEPS,
        entities,
        read_ratio: 0.5,
        zipf_theta: 0.0,
        seed: 0xa0d17,
    });
    let mut offered = Vec::with_capacity(steps);
    for batch in sys.transactions().chunks(SESSIONS) {
        for k in 0..STEPS {
            for tx in batch {
                let (action, entity) = tx.accesses[k];
                offered.push(Step {
                    tx: tx.id,
                    action,
                    entity,
                });
            }
        }
    }
    run_abort(scheduler, &Schedule::from_steps(offered)).committed_schedule
}

/// Whole-history audits.  The time follows the steps plus the conflicting
/// pairs, n + Σₓ kₓ² for kₓ steps on entity x — the conflict graph itself
/// has that many arcs — and no longer the n² step pairs of the whole
/// history: ten times the steps is ten times the linear part and a hundred
/// times the pairs, at either entity count.  (200 000 steps over 64
/// entities is left out: ≈ 230 M conflict arcs, gigabytes of graph.)
fn bench_audits(c: &mut Criterion) {
    let mut group = c.benchmark_group("audit");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    for &(steps, entities) in &[
        (20_000usize, 4096usize),
        (200_000, 4096),
        (2_000, 64),
        (20_000, 64),
    ] {
        let label = format!("{steps}steps_{entities}ent");
        let sgt = committed_history(&mut SgtScheduler::new(), steps, entities);
        group.bench_with_input(BenchmarkId::new("csr", &label), &sgt, |b, s| {
            b.iter(|| assert!(is_csr(s)))
        });
        let mv_sgt = committed_history(&mut MvSgtScheduler::new(), steps, entities);
        group.bench_with_input(BenchmarkId::new("mvcsr", &label), &mv_sgt, |b, s| {
            b.iter(|| assert!(is_mvcsr(s)))
        });
    }
    group.finish();
}

fn bench_figure1_and_theorems(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure1");
    group
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    let examples = mvcc_core::examples::figure1();
    group.bench_function("classify_all_examples", |b| {
        b.iter(|| {
            examples
                .iter()
                .map(|ex| taxonomy::classify(&ex.schedule))
                .collect::<Vec<_>>()
        })
    });
    let s4 = examples[3].schedule.clone();
    group.bench_function("theorem2_swap_reachability", |b| {
        b.iter(|| serial_reachable_by_swaps(&s4))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_polynomial_classifiers,
    bench_np_classifiers,
    bench_corpus,
    bench_audits,
    bench_figure1_and_theorems
);
criterion_main!(benches);
