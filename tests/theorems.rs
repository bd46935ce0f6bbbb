//! Workspace-level integration tests: the paper's figure and theorems
//! exercised through the umbrella crate's public API.

use mvcc_repro::classify::swaps::serial_reachable_by_swaps;
use mvcc_repro::classify::taxonomy::{classify, Census};
use mvcc_repro::classify::{is_csr, is_mvcsr, is_mvsr, is_vsr, mvcsr_witness};
use mvcc_repro::core::equivalence::full_view_equivalent;
use mvcc_repro::core::examples::{figure1, section4_pair, Figure1Region};
use mvcc_repro::prelude::*;
use mvcc_repro::reductions::ols::{is_ols, ols_violation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Experiment E1: every example of Figure 1 lands in the region the paper
/// claims for it.
#[test]
fn figure1_examples_match_the_paper() {
    for ex in figure1() {
        let c = classify(&ex.schedule);
        assert_eq!(
            c.region(),
            ex.region,
            "example ({}) `{}` classified as {c}",
            ex.number,
            ex.schedule
        );
    }
}

/// Experiment E1 (census): over every interleaving of a small system the
/// containments of Figure 1 hold and each non-empty region is consistent
/// with the class flags.
#[test]
fn figure1_census_respects_containments() {
    let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(y)")
        .unwrap()
        .tx_system();
    let all = Schedule::all_interleavings(&sys);
    let census = Census::build(all.iter());
    assert_eq!(census.containment_violations, 0);
    assert_eq!(census.total(), all.len());
    assert!(census.count(Figure1Region::Serial) >= 6);
}

/// The first `len` schedules of the benchmark's `classify` corpus at seed 1
/// (`benchmark/…/fixed.rs::corpus_config`): 8 transactions x 4 steps over 8
/// entities, half reads, no skew.
fn benchmark_corpus(len: usize) -> Vec<Schedule> {
    mvcc_repro::workload::random_interleavings(
        &WorkloadConfig {
            transactions: 8,
            steps_per_transaction: 4,
            entities: 8,
            read_ratio: 0.5,
            zipf_theta: 0.0,
            seed: 1u64.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        },
        len,
    )
}

/// The verdict freeze: the first 250 schedules of the benchmark's `classify`
/// corpus at seed 1 (`benchmark/…/fixed.rs::corpus_config`) fall into the
/// Figure 1 regions the benchmark froze, so a classifier whose verdicts
/// change fails `cargo test` and not only the benchmark.
#[test]
fn benchmark_corpus_census_is_frozen() {
    let census = Census::build(benchmark_corpus(250).iter());
    assert_eq!(census.containment_violations, 0);
    let counts: Vec<(&str, usize)> = census.iter().collect();
    assert_eq!(
        counts,
        [("MvcsrNotSr", 92), ("MvsrOnly", 81), ("NotMvsr", 77)]
    );
}

/// Theorem 1: the MVCG acyclicity test agrees with the definition of MVCSR
/// (multiversion-conflict equivalence to some serial schedule) on every
/// interleaving of a small system.
#[test]
fn theorem1_mvcg_test_equals_definition() {
    let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)")
        .unwrap()
        .tx_system();
    for s in Schedule::all_interleavings(&sys) {
        let by_graph = is_mvcsr(&s);
        let by_definition = mvcc_repro::classify::mvcsr::is_mvcsr_by_definition(&s);
        assert_eq!(by_graph, by_definition, "Theorem 1 fails on {s}");
    }
}

/// Theorem 2: MVCSR membership coincides with reachability of a serial
/// schedule through switches of adjacent non-conflicting steps.
#[test]
fn theorem2_swap_characterisation() {
    let sys = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(y) Rc(y)")
        .unwrap()
        .tx_system();
    for s in Schedule::all_interleavings(&sys) {
        assert_eq!(
            serial_reachable_by_swaps(&s),
            is_mvcsr(&s),
            "Theorem 2 fails on {s}"
        );
    }
}

/// Theorem 3: every MVCSR schedule is MVSR, and constructively so — the
/// version function derived from the MVCG order serializes it.
#[test]
fn theorem3_mvcsr_subset_of_mvsr_constructively() {
    let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Rc(x) Wc(y)")
        .unwrap()
        .tx_system();
    // The full corpus of 90 interleavings contains 14 MVCSR schedules
    // (graph test and definition-level check agree); sampling it more
    // coarsely would drop below the `verified` threshold.
    let mut verified = 0;
    for s in Schedule::all_interleavings(&sys) {
        if !is_mvcsr(&s) {
            continue;
        }
        assert!(is_mvsr(&s), "Theorem 3 fails on {s}");
        let (order, vf) = mvcc_repro::classify::mvcsr::mvcsr_version_function(&s).unwrap();
        let serial = Schedule::serial(&s.tx_system(), &order);
        assert!(full_view_equivalent(
            &s,
            &vf,
            &serial,
            &VersionFunction::standard(&serial)
        ));
        verified += 1;
    }
    assert!(
        verified > 10,
        "the corpus should contain many MVCSR schedules"
    );
}

/// The strict-containment witnesses of Figure 1: each region separates two
/// classes.
#[test]
fn class_separations_are_witnessed() {
    let ex = figure1();
    // MVSR \ (SR ∪ MVCSR)
    assert!(is_mvsr(&ex[1].schedule) && !is_vsr(&ex[1].schedule) && !is_mvcsr(&ex[1].schedule));
    // SR \ MVCSR
    assert!(is_vsr(&ex[2].schedule) && !is_mvcsr(&ex[2].schedule));
    // MVCSR \ SR
    assert!(is_mvcsr(&ex[3].schedule) && !is_vsr(&ex[3].schedule));
    // (MVCSR ∩ SR) \ CSR
    assert!(is_mvcsr(&ex[4].schedule) && is_vsr(&ex[4].schedule) && !is_csr(&ex[4].schedule));
    // Not MVSR at all.
    assert!(!is_mvsr(&ex[0].schedule));
}

/// Section 4: the pair {s, s'} is the OLS counterexample — each schedule is
/// individually MVCSR (and hence MVSR), both have unique serializations, and
/// the pair is not on-line schedulable.
#[test]
fn section4_pair_is_the_ols_counterexample() {
    let (s, s_prime) = section4_pair();
    assert!(is_mvcsr(&s) && is_mvcsr(&s_prime));
    assert!(is_mvsr(&s) && is_mvsr(&s_prime));
    assert!(!is_ols(&[s.clone(), s_prime.clone()]));
    let violation = ols_violation(&[s.clone(), s_prime.clone()]).unwrap();
    assert_eq!(
        violation.prefix_len, 3,
        "the clash is at the shared read of x"
    );
    assert_eq!(violation.schedules, vec![0, 1]);
    // Each schedule alone is perfectly schedulable.
    assert!(is_ols(&[s]));
    assert!(is_ols(&[s_prime]));
}

/// The witness returned by the MVCSR classifier is usable end-to-end: its
/// serial order is a topological order of the MVCG.
#[test]
fn mvcsr_witness_is_topological() {
    let s = figure1()[3].schedule.clone();
    let order = mvcsr_witness(&s).unwrap();
    let g = mvcc_repro::classify::mv_conflict_graph(&s);
    let pos: std::collections::HashMap<_, _> =
        order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    for (from, to) in g.graph.arcs() {
        let from_tx = g.tx_of_node[from.index()];
        let to_tx = g.tx_of_node[to.index()];
        assert!(pos[&from_tx] < pos[&to_tx]);
    }
}

/// The verdict freeze over the whole benchmark corpus at seed 1: how many of
/// its 3 000 schedules are in each class.  The totals were counted with the
/// classifiers as they stood before the search moved to dense tables and
/// DMVSR to the MVCG test; any verdict that flips moves one of them.
#[test]
fn benchmark_corpus_verdict_totals_are_frozen() {
    let mut totals = [0usize; 5];
    for s in &benchmark_corpus(3000) {
        let c = classify(s);
        assert!(c.respects_containments(), "schedule {s}: {c}");
        for (total, member) in totals
            .iter_mut()
            .zip([c.csr, c.vsr, c.mvcsr, c.mvsr, c.dmvsr])
        {
            *total += usize::from(member);
        }
    }
    // csr, vsr, mvcsr, mvsr, dmvsr
    assert_eq!(totals, [1, 2, 1233, 2122, 80]);
}

/// The witness freeze: the serial orders `csr_witness`, `mvcsr_witness`,
/// `vsr_witness` and `mvsr_witness` return on the first 500 corpus
/// schedules, folded into one FNV-1a digest (a missing witness folds as
/// `u32::MAX`).  The digest was recorded with the classifiers as they stood
/// when each test still built its own index of the schedule, so a change to
/// the search order or to the graphs' node order moves it.
#[test]
fn benchmark_corpus_witnesses_are_frozen() {
    use mvcc_repro::classify::vsr::vsr_witness;
    use mvcc_repro::classify::{csr_witness, mvsr_witness};
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u32| digest = (digest ^ u64::from(word)).wrapping_mul(0x0100_0000_01b3);
    for s in &benchmark_corpus(500) {
        let witnesses = [
            csr_witness(s),
            mvcsr_witness(s),
            vsr_witness(s),
            mvsr_witness(s).map(|(order, _)| order),
        ];
        for witness in witnesses {
            match witness {
                None => fold(u32::MAX),
                Some(order) => {
                    fold(order.len() as u32);
                    order.iter().for_each(|tx| fold(tx.0));
                }
            }
        }
    }
    assert_eq!(digest, 0x6177_1d67_ba36_d611);
}

/// `classify` decides its six verdicts on one index of the schedule; each
/// must still equal its standalone test, on all 3 000 corpus schedules.
#[test]
fn classify_equals_the_six_standalone_tests_on_the_benchmark_corpus() {
    use mvcc_repro::classify::dmvsr::is_dmvsr;
    use mvcc_repro::classify::Classification;
    for s in &benchmark_corpus(3000) {
        let standalone = Classification {
            serial: s.is_serial(),
            csr: is_csr(s),
            vsr: is_vsr(s),
            mvcsr: is_mvcsr(s),
            mvsr: is_mvsr(s),
            dmvsr: is_dmvsr(s),
        };
        assert_eq!(classify(s), standalone, "schedule {s}");
    }
}

/// `is_mvsr` answers from the MVCG's topological order when it serves every
/// read and searches otherwise; either way its verdict must be the search's
/// alone, on all 3 000 corpus schedules (1 233 of them MVCSR) and on every
/// interleaving of three small systems.
#[test]
fn the_mvsr_certificate_never_changes_the_verdict() {
    use mvcc_repro::classify::serialization::has_serialization_extending;
    let searched = |s: &Schedule| has_serialization_extending(s, &Default::default());
    let mut systems = Vec::new();
    for system in [
        "Ra(x) Wa(x) Ra(y) Wa(y) Rb(x) Rb(y) Wb(y)",
        "Ra(x) Wa(y) Rb(y) Wb(x) Wc(y)",
        "Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)",
    ] {
        let sys = Schedule::parse(system).unwrap().tx_system();
        systems.extend(Schedule::all_interleavings(&sys));
    }
    let corpus = benchmark_corpus(3000);
    for s in corpus.iter().chain(&systems) {
        assert_eq!(is_mvsr(s), searched(s), "schedule {s}");
    }
    assert_eq!(corpus.iter().filter(|s| is_mvcsr(s)).count(), 1233);
}

/// Search nodes the MVSR test visits on `s`: the smallest node budget with
/// which the search settles whether `s` has a serialization at all.
fn mvsr_search_nodes(s: &Schedule) -> u64 {
    use mvcc_repro::classify::serialization::has_serialization_extending_budgeted;
    let settled =
        |budget| has_serialization_extending_budgeted(s, &Default::default(), budget).is_some();
    if settled(0) {
        return 0;
    }
    let mut high = 1;
    while !settled(high) {
        high *= 2;
    }
    let mut low = high / 2 + 1;
    while low < high {
        let mid = (low + high) / 2;
        if settled(mid) {
            high = mid;
        } else {
            low = mid + 1;
        }
    }
    low
}

/// A read that no write of its entity precedes can only be served the
/// initial version, so its reader precedes every other writer of the entity
/// in every serialization; the search pins such reads before it starts, and
/// the precedence cycle they close refutes most schedules that are not MVSR
/// without a single node.  Over the first 500 corpus schedules the MVSR
/// search visits at most 10.5 nodes a call (33.1 before the pins), and over
/// all 3 000 at least 790 of the 878 that are not MVSR are refuted in at
/// most one node (none before).
#[test]
fn mvsr_refutes_most_of_the_benchmark_corpus_before_it_searches() {
    let corpus = benchmark_corpus(3000);
    let nodes: Vec<u64> = corpus.iter().map(mvsr_search_nodes).collect();
    let first: u64 = nodes[..500].iter().sum();
    assert!(first * 10 <= 105 * 500, "{first} nodes over 500 calls");
    let (mut refuted, mut early) = (0, 0);
    for (s, &n) in corpus.iter().zip(&nodes) {
        if !is_mvsr(s) {
            refuted += 1;
            early += usize::from(n <= 1);
        }
    }
    assert_eq!(refuted, 878);
    assert!(
        early >= 790,
        "{early} of {refuted} refuted in at most one node"
    );
}

/// The exact classifiers against the definitions, on every interleaving of
/// three small systems: a plain one, one whose `T_b` writes `x` twice (where
/// DMVSR needs the search), one whose `T_a` reads its own earlier write.
/// DMVSR is checked as what it is defined to be — MVSR of the patched
/// schedule — once by the search and once by brute force.
#[test]
fn exact_classifiers_agree_with_the_definitions_exhaustively() {
    use mvcc_repro::classify::dmvsr::{is_dmvsr, patch_readless_writes};
    use mvcc_repro::classify::mvsr::is_mvsr_by_definition;
    use mvcc_repro::classify::vsr::is_vsr_by_definition;
    for system in [
        "Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)",
        "Rb(x) Rb(y) Wb(x) Wb(x) Ra(x) Ra(y) Wa(y)",
        "Wa(x) Ra(x) Wa(y) Rb(y) Wb(x) Rc(x)",
    ] {
        let sys = Schedule::parse(system).unwrap().tx_system();
        let mut dmvsr_not_mvcsr = 0;
        for s in Schedule::all_interleavings(&sys) {
            assert_eq!(is_mvsr(&s), is_mvsr_by_definition(&s), "schedule {s}");
            assert_eq!(is_vsr(&s), is_vsr_by_definition(&s), "schedule {s}");
            let patched = patch_readless_writes(&s);
            let dmvsr = is_dmvsr(&s);
            assert_eq!(dmvsr, is_mvsr(&patched), "schedule {s}");
            assert_eq!(dmvsr, is_mvsr_by_definition(&patched), "schedule {s}");
            dmvsr_not_mvcsr += usize::from(dmvsr && !is_mvcsr(&patched));
        }
        // Only the repeated write separates DMVSR from MVCSR of the patch.
        assert_eq!(dmvsr_not_mvcsr > 0, system.contains("Wb(x) Wb(x)"));
    }
}

/// A random interleaving of `txns` transactions of `steps` steps each over
/// `entities` entities, reads and writes equally likely: with so few
/// entities, transactions that write an entity twice and that read their
/// own writes are dense.  With `reads_lead`, nine steps in ten of the
/// first half are reads and one in ten of the second half: most reads then
/// precede every write of their entity, so only the initial version can
/// serve them.
fn dense_random_schedule(
    rng: &mut SmallRng,
    txns: usize,
    steps: usize,
    entities: u32,
    reads_lead: bool,
) -> Schedule {
    let mut left = vec![steps; txns];
    let mut out = Vec::with_capacity(txns * steps);
    while out.len() < txns * steps {
        let t = rng.gen_range(0..txns);
        if left[t] == 0 {
            continue;
        }
        left[t] -= 1;
        let (tx, entity) = (TxId(t as u32 + 1), EntityId(rng.gen_range(0..entities)));
        let read_share = match (reads_lead, 2 * out.len() < txns * steps) {
            (false, _) => 0.5,
            (true, true) => 0.9,
            (true, false) => 0.1,
        };
        out.push(if rng.gen_bool(read_share) {
            Step::read(tx, entity)
        } else {
            Step::write(tx, entity)
        });
    }
    Schedule::from_steps(out)
}

/// Every order of `txs`, lexicographic in the order given: the order in
/// which the search tries candidates when `txs` is by first appearance.
fn orders_of(txs: &[TxId]) -> Vec<Vec<TxId>> {
    if txs.is_empty() {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for (i, &first) in txs.iter().enumerate() {
        let mut rest = txs.to_vec();
        rest.remove(i);
        for mut order in orders_of(&rest) {
            order.insert(0, first);
            out.push(order);
        }
    }
    out
}

/// The search's dead-state memo is exact: every enumeration equals the
/// brute force over all orders — each order's serial read-froms, kept when
/// realizable and agreeing with the pins — in the same sequence.  Pins come
/// three ways: half the reads pinned to what a random order serves them
/// (one in five to an arbitrary source instead, an unknown writer
/// included), every read pinned to its standard source, and the standard
/// sources plus the standard final writers, which is `vsr_witness`.  The
/// schedules are the dense random ones of the DMVSR test below, where
/// repeated writes and own reads are common, then ones whose reads lead,
/// where most reads are pinned to the initial version before the search.
#[test]
fn the_search_memo_is_exact_on_dense_random_schedules() {
    use mvcc_repro::classify::serialization::{
        is_realizable, serial_read_froms_of_system, serializations, serializations_extending,
    };
    use mvcc_repro::classify::vsr::vsr_witness;
    use std::collections::HashMap;
    let mut rng = SmallRng::seed_from_u64(34);
    let (mut pinned_found, mut witnesses) = (0, 0);
    let (mut leading, mut leading_mvsr) = (0, 0);
    for (txns, steps, entities, cases, reads_lead) in [
        (2usize, 4usize, 1u32, 300, false),
        (3, 3, 1, 300, false),
        (3, 4, 2, 300, false),
        (4, 3, 2, 200, false),
        (4, 4, 3, 200, false),
        (5, 3, 3, 60, false),
        (6, 3, 2, 12, false),
        (6, 3, 3, 12, false),
        (3, 3, 1, 200, true),
        (4, 3, 2, 200, true),
        (4, 4, 3, 100, true),
        (5, 3, 2, 60, true),
        (6, 3, 3, 12, true),
    ] {
        for _ in 0..cases {
            let s = dense_random_schedule(&mut rng, txns, steps, entities, reads_lead);
            let sys = s.tx_system();
            let every: Vec<_> = orders_of(&s.tx_ids())
                .iter()
                .map(|order| serial_read_froms_of_system(&s, &sys, order))
                .collect();
            let realizable: Vec<_> = every.iter().filter(|rf| is_realizable(&s, rf)).collect();
            let agreeing = |pins: &HashMap<usize, VersionSource>| -> Vec<_> {
                realizable
                    .iter()
                    .filter(|rf| pins.iter().all(|(pos, src)| rf.read_sources[pos] == *src))
                    .map(|&rf| rf.clone())
                    .collect()
            };
            let unpinned = agreeing(&HashMap::new());
            assert_eq!(serializations(&s, None), unpinned, "{s}");
            if reads_lead {
                leading += 1;
                leading_mvsr += usize::from(!unpinned.is_empty());
            }

            let template = &every[rng.gen_range(0..every.len())];
            let mut pins = HashMap::new();
            for pos in s.all_read_positions() {
                if rng.gen_bool(0.5) {
                    let source = if rng.gen_bool(0.2) {
                        match rng.gen_range(0..=txns as u32 + 1) {
                            0 => VersionSource::Initial,
                            t => VersionSource::Tx(TxId(t)),
                        }
                    } else {
                        template.read_sources[&pos]
                    };
                    pins.insert(pos, source);
                }
            }
            let pinned = agreeing(&pins);
            pinned_found += usize::from(!pinned.is_empty() && !reads_lead);
            assert_eq!(
                serializations_extending(&s, &pins, None),
                pinned,
                "{s} {pins:?}"
            );

            let mut standard = HashMap::new();
            let mut final_writers = HashMap::new();
            for (pos, step) in s.steps().iter().enumerate() {
                let last: &mut Option<TxId> = final_writers.entry(step.entity).or_default();
                if step.is_write() {
                    *last = Some(step.tx);
                } else {
                    standard.insert(pos, last.map_or(VersionSource::Initial, VersionSource::Tx));
                }
            }
            let views = agreeing(&standard);
            assert_eq!(serializations_extending(&s, &standard, None), views, "{s}");
            let view_equivalent = views
                .into_iter()
                .find(|rf| rf.final_writers == final_writers);
            witnesses += usize::from(view_equivalent.is_some() && !reads_lead);
            assert_eq!(vsr_witness(&s), view_equivalent.map(|rf| rf.order), "{s}");
        }
    }
    // Both pinned searches say yes and no often.
    assert!(
        pinned_found > 400 && pinned_found < 1000,
        "{pinned_found} pinned"
    );
    assert!(
        witnesses > 200 && witnesses < 1000,
        "{witnesses} VSR witnesses"
    );
    // Where reads lead, MVSR says yes and no often too.
    assert!(
        leading_mvsr > leading / 10 && leading_mvsr < leading * 9 / 10,
        "{leading_mvsr} of {leading} MVSR"
    );
}

/// `is_dmvsr` is MVSR of the patched schedule on 56 000 seeded random
/// schedules over one to three entities, where transactions writing an
/// entity twice (the search branch) and reading their own writes are dense.
#[test]
fn dmvsr_is_mvsr_of_the_patched_schedule_on_dense_random_schedules() {
    use mvcc_repro::classify::dmvsr::{is_dmvsr, patch_readless_writes};
    let mut rng = SmallRng::seed_from_u64(24);
    let (mut members, mut repeated_writes) = (0, 0);
    for (txns, steps, entities) in [
        (2usize, 4usize, 1u32),
        (3, 3, 1),
        (3, 4, 2),
        (4, 3, 2),
        (3, 5, 3),
        (4, 4, 3),
        (5, 3, 3),
    ] {
        for _ in 0..8000 {
            let s = dense_random_schedule(&mut rng, txns, steps, entities, false);
            let patched = patch_readless_writes(&s);
            let (dmvsr, mvsr) = (is_dmvsr(&s), is_mvsr(&patched));
            assert_eq!(dmvsr, mvsr, "schedule {s}");
            members += usize::from(dmvsr);
            repeated_writes += usize::from(mvsr != is_mvcsr(&patched));
        }
    }
    // Both verdicts, and the repeated-write separation, are well populated.
    assert!(members > 5_000 && members < 51_000, "{members} members");
    assert!(repeated_writes > 100, "{repeated_writes} separations");
}

/// The conflict graph of `pairs`, built apart from the classifiers: one node
/// per transaction of `s` by first appearance, one arc per pair.  The pairs
/// come from `mvcc_core::conflict`, whose tests check them against the
/// all-pairs definition.
fn reference_graph(
    s: &Schedule,
    pairs: impl Iterator<Item = mvcc_repro::core::conflict::ConflictPair>,
) -> mvcc_repro::graph::DiGraph {
    use mvcc_repro::graph::{DiGraph, NodeId};
    let txs = s.tx_ids();
    let node_of: std::collections::HashMap<TxId, NodeId> = txs
        .iter()
        .enumerate()
        .map(|(n, &tx)| (tx, NodeId(n as u32)))
        .collect();
    let mut graph = DiGraph::with_nodes(txs.len());
    for pair in pairs {
        graph.add_arc(node_of[&pair.first_tx], node_of[&pair.second_tx]);
    }
    graph
}

/// The dense arc index that decides CSR, MVCSR and DMVSR against conflict
/// graphs built independently from `mvcc_core::conflict`'s pair
/// enumeration: seeded random interleavings from 3 to 300 transactions, on
/// both sides of the 64-transaction boundary between the bitmask test and
/// Kahn's pass, with entity counts spread so that every test says yes and
/// no often at every size.  The labelled graphs behind `conflict_graph`,
/// `mv_conflict_graph` and the witnesses must carry exactly the reference arcs.  The random systems
/// write no entity twice in a transaction, so DMVSR is the MVCG of the
/// patched schedule throughout.
#[test]
fn dense_deciders_agree_with_the_pair_enumeration() {
    use mvcc_repro::classify::dmvsr::{is_dmvsr, patch_readless_writes};
    use mvcc_repro::classify::{conflict_graph, mv_conflict_graph};
    use mvcc_repro::core::conflict::{mv_conflict_pairs_iter, sv_conflict_pairs_iter};
    use mvcc_repro::graph::topo::topological_sort;
    use mvcc_repro::workload::{random_interleaving, random_transaction_system};
    const CASES: u64 = 48;
    for txns in [3usize, 8, 63, 64, 65, 130, 300] {
        // Members of CSR, MVCSR and DMVSR.
        let mut members = [0u64; 3];
        for seed in 0..CASES {
            let config = WorkloadConfig {
                transactions: txns,
                steps_per_transaction: 4,
                entities: txns << (seed % 5),
                read_ratio: 0.5,
                zipf_theta: 0.0,
                seed,
            };
            let s = random_interleaving(&random_transaction_system(&config), seed);
            let patched = patch_readless_writes(&s);
            let verdicts = [is_csr(&s), is_mvcsr(&s), is_dmvsr(&s)];
            let references = [
                reference_graph(&s, sv_conflict_pairs_iter(&s)),
                reference_graph(&s, mv_conflict_pairs_iter(&s)),
                reference_graph(&patched, mv_conflict_pairs_iter(&patched)),
            ];
            let labelled = [
                conflict_graph(&s).graph,
                mv_conflict_graph(&s).graph,
                mv_conflict_graph(&patched).graph,
            ];
            for (class, ((verdict, reference), graph)) in
                verdicts.iter().zip(&references).zip(&labelled).enumerate()
            {
                assert_eq!(
                    *verdict,
                    topological_sort(reference).is_some(),
                    "{txns} txns, seed {seed}, test {class}: {s}"
                );
                assert!(
                    graph.arcs().eq(reference.arcs()),
                    "{txns} txns, seed {seed}, graph {class}: {s}"
                );
            }
            if txns <= 8 {
                assert_eq!(verdicts[2], is_mvsr(&patched), "seed {seed}: {s}");
            }
            for (total, verdict) in members.iter_mut().zip(verdicts) {
                *total += u64::from(verdict);
            }
        }
        for (class, total) in members.iter().enumerate() {
            assert!(
                (CASES / 8..=CASES - CASES / 8).contains(total),
                "{txns} txns, test {class}: {total} of {CASES} members"
            );
        }
    }
}

/// A cycle through every transaction, at 64 (the widest bitmask) and 65
/// (the first Kahn pass): `T_i` reads `x_i` and then writes `x_{i+1}`, all
/// reads first, so each `T_{i+1}` precedes `T_i` and the write of `x_1` by
/// the last transaction closes the cycle.  Writing a fresh entity instead
/// opens it into a chain.
#[test]
fn a_cycle_through_every_transaction_is_found_at_the_mask_boundary() {
    use mvcc_repro::classify::dmvsr::{is_dmvsr, patch_readless_writes};
    use mvcc_repro::classify::{conflict_graph, mv_conflict_graph};
    use mvcc_repro::graph::topo::topological_sort;
    for txns in [64u32, 65] {
        for closed in [true, false] {
            let reads = (0..txns).map(|i| Step::read(TxId(i + 1), EntityId(i)));
            let writes = (0..txns).map(|i| {
                let next = if i + 1 < txns || closed {
                    (i + 1) % txns
                } else {
                    txns
                };
                Step::write(TxId(i + 1), EntityId(next))
            });
            let s = Schedule::from_steps(reads.chain(writes).collect());
            let acyclic = !closed;
            assert_eq!(is_csr(&s), acyclic, "{txns} txns, closed {closed}");
            assert_eq!(is_mvcsr(&s), acyclic, "{txns} txns, closed {closed}");
            assert_eq!(is_dmvsr(&s), acyclic, "{txns} txns, closed {closed}");
            assert_eq!(
                topological_sort(&conflict_graph(&s).graph).is_some(),
                acyclic
            );
            assert_eq!(
                topological_sort(&mv_conflict_graph(&s).graph).is_some(),
                acyclic
            );
            let patched = mv_conflict_graph(&patch_readless_writes(&s));
            assert_eq!(topological_sort(&patched.graph).is_some(), acyclic);
        }
    }
}
