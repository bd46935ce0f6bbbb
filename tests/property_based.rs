//! Property-based tests (proptest) over randomly generated schedules:
//! the paper's containments, characterisations and scheduler guarantees as
//! invariants over the whole schedule space (small sizes, exact checkers).

use mvcc_repro::classify::swaps::{serial_reachable_by_swaps, swap_neighbours};
use mvcc_repro::classify::taxonomy::classify;
use mvcc_repro::classify::vsr::{is_vsr_by_definition, is_vsr_polygraph, vsr_witness};
use mvcc_repro::classify::{is_csr, is_mvcsr, is_mvsr, is_vsr};
use mvcc_repro::prelude::*;
use proptest::prelude::*;

/// Strategy: a random schedule over at most `max_txns` transactions,
/// `max_entities` entities and exactly `steps` steps.
fn schedule_strategy(
    max_txns: u32,
    max_entities: u32,
    steps: usize,
) -> impl Strategy<Value = Schedule> {
    proptest::collection::vec((1..=max_txns, 0..max_entities, proptest::bool::ANY), steps).prop_map(
        |raw| {
            Schedule::from_steps(
                raw.into_iter()
                    .map(|(tx, entity, is_read)| {
                        if is_read {
                            Step::read(TxId(tx), EntityId(entity))
                        } else {
                            Step::write(TxId(tx), EntityId(entity))
                        }
                    })
                    .collect(),
            )
        },
    )
}

/// Strategy: a random schedule of at most `max_txns` transactions with at
/// most `max_steps` steps each (blind writers and readers of their own
/// writes included).
fn bounded_schedule_strategy(
    max_txns: u32,
    max_entities: u32,
    max_steps: usize,
) -> impl Strategy<Value = Schedule> {
    schedule_strategy(max_txns, max_entities, max_txns as usize * max_steps).prop_map(move |s| {
        let mut taken = std::collections::HashMap::new();
        Schedule::from_steps(
            s.steps()
                .iter()
                .filter(|step| {
                    let n = taken.entry(step.tx).or_insert(0usize);
                    *n += 1;
                    *n <= max_steps
                })
                .copied()
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Figure 1's containments hold for every schedule:
    /// serial ⊆ CSR ⊆ VSR ⊆ MVSR and CSR ⊆ MVCSR ⊆ MVSR, DMVSR ⊆ MVSR.
    #[test]
    fn containments_hold(s in schedule_strategy(4, 3, 8)) {
        let c = classify(&s);
        prop_assert!(c.respects_containments(), "classification {c} violates Figure 1 on {s}");
    }

    /// Theorem 1: the MVCG test equals the definition-level check.
    #[test]
    fn theorem1_graph_equals_definition(s in schedule_strategy(4, 3, 7)) {
        prop_assert_eq!(
            is_mvcsr(&s),
            mvcc_repro::classify::mvcsr::is_mvcsr_by_definition(&s)
        );
    }

    /// Theorem 2: MVCSR iff a serial schedule is reachable by legal switches.
    #[test]
    fn theorem2_swaps(s in schedule_strategy(3, 3, 7)) {
        prop_assert_eq!(serial_reachable_by_swaps(&s), is_mvcsr(&s));
    }

    /// A legal switch never changes the transaction system and never
    /// reverses a multiversion-conflicting pair of the original schedule:
    /// the original is multiversion-conflict-equivalent to every neighbour
    /// (the induction step in the proof of Theorem 2).  Note that the
    /// *neighbour* may still fall out of MVCSR — the relation is
    /// deliberately asymmetric, which is why Theorem 2 asks for a path from
    /// the schedule *to* a serial one and not the other way round.
    #[test]
    fn legal_switches_preserve_mv_conflict_order(s in schedule_strategy(4, 3, 8)) {
        for neighbour in swap_neighbours(&s) {
            prop_assert_eq!(neighbour.tx_system(), s.tx_system());
            prop_assert!(mvcc_repro::core::equivalence::mv_conflict_equivalent(&s, &neighbour));
        }
    }

    /// The two independent VSR deciders (the shared serialization search
    /// with the standard read-froms and final writers pinned, and the
    /// polygraph formulation) agree with each other and with the definition,
    /// and a witness order is view-equivalent to the schedule.
    #[test]
    fn vsr_deciders_agree(s in bounded_schedule_strategy(6, 3, 4)) {
        let witness = vsr_witness(&s);
        prop_assert_eq!(is_vsr(&s), witness.is_some());
        prop_assert_eq!(witness.is_some(), is_vsr_polygraph(&s), "polygraph on {}", s);
        prop_assert_eq!(witness.is_some(), is_vsr_by_definition(&s), "definition on {}", s);
        if let Some(order) = witness {
            let serial = Schedule::serial(&s.tx_system(), &order);
            prop_assert!(mvcc_repro::core::equivalence::view_equivalent(&s, &serial));
        }
    }

    /// The MVSR witness, when it exists, really serializes the schedule.
    #[test]
    fn mvsr_witness_is_sound(s in schedule_strategy(4, 3, 7)) {
        if let Some((order, vf)) = mvcc_repro::classify::mvsr_witness(&s) {
            prop_assert!(vf.validate(&s).is_ok());
            let serial = Schedule::serial(&s.tx_system(), &order);
            prop_assert!(mvcc_repro::core::equivalence::full_view_equivalent(
                &s,
                &vf,
                &serial,
                &VersionFunction::standard(&serial)
            ));
        }
    }

    /// The standard version function is always valid, and the READ-FROM
    /// relation it induces mentions only transactions of the schedule (or
    /// the padding transactions).
    #[test]
    fn standard_version_function_is_valid(s in schedule_strategy(5, 4, 10)) {
        let vf = VersionFunction::standard(&s);
        prop_assert!(vf.validate(&s).is_ok());
        let rel = ReadFromRelation::of_full_schedule(&s, &vf);
        let txs: std::collections::BTreeSet<TxId> = s.tx_ids().into_iter().collect();
        for entry in rel.entries() {
            prop_assert!(entry.writer == TxId::INITIAL || txs.contains(&entry.writer));
            prop_assert!(entry.reader == TxId::FINAL || txs.contains(&entry.reader));
        }
    }

    /// Single-version schedulers only commit conflict-serializable
    /// projections; the multiversion conflict-graph scheduler only commits
    /// MVCSR projections.
    #[test]
    fn scheduler_soundness(s in schedule_strategy(4, 3, 10)) {
        let mut sgt = SgtScheduler::new();
        let committed = run_abort(&mut sgt, &s).committed_schedule;
        prop_assert!(is_csr(&committed));

        let mut mvsgt = MvSgtScheduler::new();
        let committed = run_abort(&mut mvsgt, &s).committed_schedule;
        prop_assert!(is_mvcsr(&committed));

        let mut mvto = MvtoScheduler::new();
        let committed = run_abort(&mut mvto, &s).committed_schedule;
        prop_assert!(is_mvsr(&committed));
    }

    /// Prefix-mode acceptance ordering: MV-SGT accepts at least as long a
    /// prefix as SGT, which accepts at least as long a prefix as strict 2PL
    /// rejection-free operation would imply for serial prefixes.
    #[test]
    fn acceptance_ordering(s in schedule_strategy(4, 3, 10)) {
        let mut sgt = SgtScheduler::new();
        let mut mvsgt = MvSgtScheduler::new();
        let sv = run_prefix(&mut sgt, &s).accepted_steps;
        let mv = run_prefix(&mut mvsgt, &s).accepted_steps;
        prop_assert!(mv >= sv);
    }

    /// Schedule parsing round-trips through display.
    #[test]
    fn schedule_display_round_trips(s in schedule_strategy(5, 4, 12)) {
        let text = s.to_string();
        let reparsed = Schedule::parse(&text).unwrap();
        prop_assert_eq!(reparsed.steps(), s.steps());
    }

    /// A singleton set containing an MVSR schedule is always OLS; adding the
    /// identical schedule again changes nothing.
    #[test]
    fn singleton_ols(s in schedule_strategy(3, 2, 6)) {
        if is_mvsr(&s) {
            prop_assert!(is_ols(std::slice::from_ref(&s)));
            prop_assert!(is_ols(&[s.clone(), s.clone()]));
        }
    }
}

/// A named scheduler paired with the classifier characterising its output
/// class.
type ZooEntry = (&'static str, Box<dyn Scheduler>, fn(&Schedule) -> bool);

/// The scheduler zoo with, for each scheduler, the classifier characterising
/// its output class (the table of `mvcc-scheduler`'s crate docs).
fn zoo(sys: &mvcc_repro::core::TransactionSystem) -> Vec<ZooEntry> {
    fn serial_check(s: &Schedule) -> bool {
        s.is_serial()
    }
    vec![
        ("serial", Box::new(SerialScheduler::new(sys)), serial_check),
        ("2pl", Box::new(TwoPhaseLockingScheduler::new(sys)), is_csr),
        ("timestamp", Box::new(TimestampScheduler::new()), is_csr),
        ("sgt", Box::new(SgtScheduler::new()), is_csr),
        ("mv-sgt", Box::new(MvSgtScheduler::new()), is_mvcsr),
        ("mvto", Box::new(MvtoScheduler::new()), is_mvsr),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// Serial schedules land in every class of Figure 1 (the innermost
    /// region of the containment diagram).
    #[test]
    fn serial_schedules_land_in_every_class(s in schedule_strategy(4, 3, 8)) {
        let sys = s.tx_system();
        let serial = Schedule::serial(&sys, &s.tx_ids());
        let c = classify(&serial);
        prop_assert!(
            c.serial && c.csr && c.vsr && c.mvcsr && c.mvsr,
            "serial schedule classified outside some class: {c}"
        );
    }

    /// Parse/Display round-trips hold on workload-generated schedules, not
    /// just the uniform random ones.
    #[test]
    fn workload_schedules_round_trip(
        txns in 1usize..6,
        steps in 1usize..5,
        entities in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let cfg = WorkloadConfig {
            transactions: txns,
            steps_per_transaction: steps,
            entities,
            read_ratio: 0.6,
            zipf_theta: 0.5,
            seed,
        };
        let sys = mvcc_repro::workload::random_transaction_system(&cfg);
        let s = mvcc_repro::workload::random_interleaving(&sys, seed ^ 0xabcd);
        let reparsed = Schedule::parse(&s.to_string()).unwrap();
        prop_assert_eq!(reparsed.steps(), s.steps());
    }

    /// Every scheduler in the zoo only commits schedules its own classifier
    /// accepts (abort-and-continue mode).
    #[test]
    fn every_scheduler_stays_in_its_class(s in schedule_strategy(4, 3, 10)) {
        let sys = s.tx_system();
        for (name, mut sched, check) in zoo(&sys) {
            let committed = run_abort(sched.as_mut(), &s).committed_schedule;
            prop_assert!(
                check(&committed),
                "{} emitted a schedule outside its class: {}", name, committed
            );
        }
    }

    /// Prefix-recognition outputs are prefix-closed: re-offering the
    /// accepted prefix accepts all of it, and truncating the input truncates
    /// the accepted prefix accordingly.
    #[test]
    fn run_prefix_outputs_are_prefix_closed(
        s in schedule_strategy(4, 3, 10),
        cut in 0usize..=10,
    ) {
        let sys = s.tx_system();
        for idx in 0..zoo(&sys).len() {
            let (name, mut sched, _) = zoo(&sys).swap_remove(idx);
            let full = run_prefix(sched.as_mut(), &s);
            prop_assert!(full.prefix.len() == full.accepted_steps);

            let (_, mut again, _) = zoo(&sys).swap_remove(idx);
            let re = run_prefix(again.as_mut(), &full.prefix);
            prop_assert!(re.accepted_all, "{} rejected its own accepted prefix", name);

            let cut = cut.min(s.len());
            let truncated = Schedule::from_steps(s.steps()[..cut].to_vec());
            let (_, mut fresh, _) = zoo(&sys).swap_remove(idx);
            let out = run_prefix(fresh.as_mut(), &truncated);
            prop_assert_eq!(
                out.accepted_steps,
                cut.min(full.accepted_steps),
                "{} violates prefix closure at cut {}", name, cut
            );
        }
    }
}

/// Malformed step strings are rejected with a parse error, not mangled into
/// a schedule.
#[test]
fn malformed_step_strings_are_rejected() {
    for bad in [
        "Q1(x)",      // unknown action
        "1(x)",       // missing action
        "R",          // no parentheses
        "R1",         // no parentheses
        "R1(",        // unclosed
        "R1()",       // empty entity
        "R1)x(",      // reversed parentheses
        "Ra(x R2(y)", // unclosed first token
        "R(x)",       // empty transaction label
        "R?(x)",      // bad transaction label
    ] {
        assert!(
            mvcc_repro::core::Schedule::parse(bad).is_err(),
            "{bad:?} should be rejected"
        );
    }
}

/// Well-formed unconventional spellings are accepted (parser leniency is
/// intentional: lowercase actions, numeric and `T`-prefixed labels,
/// separators).
#[test]
fn lenient_but_well_formed_spellings_parse() {
    for good in ["r1(x) w2(y)", "RT1(x)", "Ra(x), Wb(y);", "R12(x) W12(x)"] {
        assert!(
            mvcc_repro::core::Schedule::parse(good).is_ok(),
            "{good:?} should parse"
        );
    }
}
