//! Criterion benchmarks for the scheduler zoo (experiment E9): per-step
//! decision cost of every scheduler on the same random interleaving, and
//! the admit / commit cost of SGT, MV-SGT and MVTO on a warm table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvcc_core::{EntityId, Step, TxId};
use mvcc_scheduler::{
    run_abort, MvSgtScheduler, MvtoScheduler, Scheduler, SerialScheduler, SgtScheduler,
    TimestampScheduler, TwoPhaseLockingScheduler,
};
use mvcc_workload::{random_interleaving, random_transaction_system, WorkloadConfig};
use std::cell::RefCell;
use std::time::Duration;

fn workload(
    transactions: usize,
    entities: usize,
) -> (mvcc_core::TransactionSystem, mvcc_core::Schedule) {
    let cfg = WorkloadConfig {
        transactions,
        steps_per_transaction: 6,
        entities,
        read_ratio: 0.8,
        zipf_theta: 0.6,
        seed: 0x5c4ed,
    };
    let sys = random_transaction_system(&cfg);
    let s = random_interleaving(&sys, 17);
    (sys, s)
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_abort_mode");
    group
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(20);
    for &(txns, entities) in &[(8usize, 8usize), (16, 16), (32, 16)] {
        let (sys, s) = workload(txns, entities);
        let label = format!("{txns}txns_{entities}ent");
        group.bench_with_input(BenchmarkId::new("serial", &label), &s, |b, s| {
            b.iter(|| {
                let mut sched = SerialScheduler::new(&sys);
                run_abort(&mut sched, s).committed.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("2pl", &label), &s, |b, s| {
            b.iter(|| {
                let mut sched = TwoPhaseLockingScheduler::new(&sys);
                run_abort(&mut sched, s).committed.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("to", &label), &s, |b, s| {
            b.iter(|| {
                let mut sched = TimestampScheduler::new();
                run_abort(&mut sched, s).committed.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("sgt", &label), &s, |b, s| {
            b.iter(|| {
                let mut sched = SgtScheduler::new();
                run_abort(&mut sched, s).committed.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("mvto", &label), &s, |b, s| {
            b.iter(|| {
                let mut sched = MvtoScheduler::new();
                run_abort(&mut sched, s).committed.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("mv-sgt", &label), &s, |b, s| {
            b.iter(|| {
                let mut sched = MvSgtScheduler::new();
                run_abort(&mut sched, s).committed.len()
            })
        });
    }
    group.finish();
}

/// A scheduler over a pre-warmed table: 50 000 committed single-write
/// transactions, round-robin over the entities — well past the 5 000
/// transactions the benchmark's scheduler probe stops at.  MV-SGT and MVTO
/// are left holding one settled version per entity (SGT, which keeps none,
/// nothing) — if commit prunes.
struct WarmTable {
    scheduler: Box<dyn Scheduler>,
    entities: u32,
    /// Full-period generator over `0..entities` (a power of two).
    cursor: u32,
    next_tx: u32,
    open: Vec<TxId>,
}

impl WarmTable {
    const IN_FLIGHT: usize = 8;
    const STEPS: usize = 4;
    const WARM_WRITES: u32 = 50_000;

    fn new(mut scheduler: Box<dyn Scheduler>, entities: u32) -> Self {
        assert!(entities.is_power_of_two());
        for i in 0..Self::WARM_WRITES {
            let tx = TxId(i + 1);
            let step = Step::write(tx, EntityId(i % entities));
            assert!(scheduler.offer(step).is_accept());
            scheduler.commit(tx);
        }
        WarmTable {
            scheduler,
            entities,
            cursor: 0,
            next_tx: Self::WARM_WRITES + 1,
            open: Vec::with_capacity(Self::IN_FLIGHT),
        }
    }

    /// Opens eight transactions and offers their steps round-robin: two
    /// reads, then two writes, each on the generator's next entity.
    fn admit_round(&mut self) {
        let first = self.next_tx;
        self.next_tx += Self::IN_FLIGHT as u32;
        self.open.extend((first..self.next_tx).map(TxId));
        for i in 0..Self::STEPS {
            for &tx in &self.open {
                self.cursor = (self.cursor.wrapping_mul(5).wrapping_add(1)) % self.entities;
                let entity = EntityId(self.cursor);
                let step = if i < Self::STEPS / 2 {
                    Step::read(tx, entity)
                } else {
                    Step::write(tx, entity)
                };
                criterion::black_box(self.scheduler.offer(step));
            }
        }
    }

    fn commit_round(&mut self) {
        for tx in self.open.drain(..) {
            self.scheduler.commit(tx);
        }
    }
}

/// `scheduler_admit/<kind>/<entities>` times one round of 32 offered steps,
/// `scheduler_commit/...` the eight commits that end it; the other half of
/// the round runs untimed in the set-up.  Neither number should move with
/// the table size (64 vs 4096 entities).
fn bench_scheduler_layers(c: &mut Criterion) {
    let kinds: [(&str, fn() -> Box<dyn Scheduler>); 3] = [
        ("sgt", || Box::new(SgtScheduler::new())),
        ("mv-sgt", || Box::new(MvSgtScheduler::new())),
        ("mvto", || Box::new(MvtoScheduler::new())),
    ];
    for time_admit in [true, false] {
        let mut group = c.benchmark_group(if time_admit {
            "scheduler_admit"
        } else {
            "scheduler_commit"
        });
        for (name, build) in kinds {
            for entities in [64u32, 4096] {
                let table = RefCell::new(WarmTable::new(build(), entities));
                group.bench_function(BenchmarkId::new(name, entities), |b| {
                    if time_admit {
                        b.iter_with_setup(
                            || table.borrow_mut().commit_round(),
                            |()| table.borrow_mut().admit_round(),
                        )
                    } else {
                        b.iter_with_setup(
                            || table.borrow_mut().admit_round(),
                            |()| table.borrow_mut().commit_round(),
                        )
                    }
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_schedulers, bench_scheduler_layers);
criterion_main!(benches);
