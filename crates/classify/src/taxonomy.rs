//! The combined classification and the region map of the paper's Figure 1.

use crate::arcs::{with_dense, DenseSchedule};
use crate::{csr, dmvsr, mvcsr, mvsr, vsr};
use mvcc_core::examples::Figure1Region;
use mvcc_core::Schedule;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Membership of one schedule in every class the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Classification {
    /// Transactions run back-to-back.
    pub serial: bool,
    /// Conflict-serializable.
    pub csr: bool,
    /// View-serializable (the paper's "SR").
    pub vsr: bool,
    /// Multiversion conflict-serializable (Theorem 1 test).
    pub mvcsr: bool,
    /// Multiversion serializable.
    pub mvsr: bool,
    /// DMVSR (\[PK84\], via readless-write patching).
    pub dmvsr: bool,
}

impl Classification {
    /// The Figure 1 region this classification falls into.
    pub fn region(&self) -> Figure1Region {
        if self.serial {
            Figure1Region::Serial
        } else if !self.mvsr {
            Figure1Region::NotMvsr
        } else if self.mvcsr && self.vsr {
            Figure1Region::MvcsrAndSrNotCsr
        } else if self.mvcsr {
            Figure1Region::MvcsrNotSr
        } else if self.vsr {
            Figure1Region::SrNotMvcsr
        } else {
            Figure1Region::MvsrOnly
        }
    }

    /// The containments the paper establishes (Figure 1 / Theorem 3); used
    /// as a sanity predicate in tests and in the census harness.
    pub fn respects_containments(&self) -> bool {
        // serial ⊆ CSR ⊆ VSR ⊆ MVSR, CSR ⊆ MVCSR ⊆ MVSR, DMVSR ⊆ MVSR.
        (!self.serial || self.csr)
            && (!self.csr || self.vsr)
            && (!self.vsr || self.mvsr)
            && (!self.csr || self.mvcsr)
            && (!self.mvcsr || self.mvsr)
            && (!self.dmvsr || self.mvsr)
    }
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flag = |b: bool| if b { "yes" } else { "no " };
        write!(
            f,
            "serial={} csr={} vsr={} mvcsr={} mvsr={} dmvsr={}",
            flag(self.serial),
            flag(self.csr),
            flag(self.vsr),
            flag(self.mvcsr),
            flag(self.mvsr),
            flag(self.dmvsr)
        )
    }
}

/// Classifies `schedule` with respect to every class of the paper.
///
/// CSR and MVCSR use the polynomial graph tests, and so does DMVSR unless a
/// transaction writes an entity twice (see [`crate::dmvsr`]).  MVSR checks
/// the MVCG's topological order as a serialization on the entity runs,
/// which settles every MVCSR schedule (Theorem 3, see [`crate::mvsr`]).
/// VSR and the rest of MVSR first refute on the conflict masks where their
/// forced arcs close a cycle (up to 64 transactions), and only then use
/// the exact (exponential worst-case) search, which alone builds the
/// search tables — keep schedules small, exactly as in the paper's
/// examples and reductions.
pub fn classify(schedule: &Schedule) -> Classification {
    // One index for all six tests, in this thread's workspace; each verdict
    // is still its own test.  The MVCSR test's Kahn pass, run once, is
    // MVSR's candidate order, but MVSR checks it against its own definition
    // and searches when it fails: no verdict is derived from another.
    with_dense(schedule, |dense| classify_on(schedule, dense))
}

/// The six verdicts on `schedule` and its dense index.
fn classify_on(schedule: &Schedule, dense: &DenseSchedule) -> Classification {
    Classification {
        serial: dense.serial,
        csr: csr::decide(dense),
        vsr: vsr::decide(dense),
        mvcsr: mvcsr::decide(dense),
        mvsr: mvsr::decide(dense),
        dmvsr: dmvsr::decide(schedule, dense),
    }
}

/// A census: how many schedules of a collection fall into each Figure 1
/// region (the harness prints this as the reproduction of Figure 1's
/// topography over exhaustive/random schedule populations).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Census {
    /// Schedules per region, indexed in the order of [`Figure1Region::all`].
    counts: [usize; 6],
    total: usize,
    /// Number of schedules violating the containments of Figure 1 (must be
    /// zero; recorded so the harness can prove it looked).
    pub containment_violations: usize,
}

/// Every region with its name, in alphabetical order of the names.
const BY_NAME: [(Figure1Region, &str); 6] = [
    (Figure1Region::MvcsrAndSrNotCsr, "MvcsrAndSrNotCsr"),
    (Figure1Region::MvcsrNotSr, "MvcsrNotSr"),
    (Figure1Region::MvsrOnly, "MvsrOnly"),
    (Figure1Region::NotMvsr, "NotMvsr"),
    (Figure1Region::Serial, "Serial"),
    (Figure1Region::SrNotMvcsr, "SrNotMvcsr"),
];

impl Census {
    /// Classifies every schedule of the iterator and tallies the regions.
    pub fn build<'a>(schedules: impl IntoIterator<Item = &'a Schedule>) -> Self {
        let mut census = Census::default();
        for s in schedules {
            let c = classify(s);
            if !c.respects_containments() {
                census.containment_violations += 1;
            }
            census.counts[c.region() as usize] += 1;
            census.total += 1;
        }
        census
    }

    /// Total number of schedules classified.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Count for a region (0 when the region was never seen).
    pub fn count(&self, region: Figure1Region) -> usize {
        self.counts[region as usize]
    }

    /// Iterates `(region name, count)` over the regions seen, in
    /// alphabetical order of the names.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> {
        BY_NAME
            .iter()
            .map(|&(region, name)| (name, self.count(region)))
            .filter(|&(_, count)| count > 0)
    }
}

impl fmt::Display for Census {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "census over {} schedules:", self.total)?;
        for (region, count) in self.iter() {
            writeln!(f, "  {region:<22} {count}")?;
        }
        write!(
            f,
            "  containment violations: {}",
            self.containment_violations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_core::examples::{figure1, Figure1Region};

    #[test]
    fn figure1_examples_land_in_their_regions() {
        for ex in figure1() {
            let c = classify(&ex.schedule);
            assert_eq!(
                c.region(),
                ex.region,
                "example ({}) {} classified as {c}",
                ex.number,
                ex.schedule
            );
            assert!(c.respects_containments());
        }
    }

    #[test]
    fn census_of_all_interleavings_respects_containments() {
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(y)")
            .unwrap()
            .tx_system();
        let all = Schedule::all_interleavings(&sys);
        let census = Census::build(all.iter());
        assert_eq!(census.total(), all.len());
        assert_eq!(census.containment_violations, 0);
        // Serial schedules of 3 transactions: 3! = 6.
        assert_eq!(census.count(Figure1Region::Serial), 6);
    }

    #[test]
    fn every_region_of_figure1_is_non_empty_in_a_combined_census() {
        let schedules: Vec<Schedule> = figure1().into_iter().map(|ex| ex.schedule).collect();
        let census = Census::build(schedules.iter());
        for region in Figure1Region::all() {
            assert!(census.count(region) >= 1, "region {region:?} not witnessed");
        }
    }

    #[test]
    fn display_formats() {
        let c = classify(&Schedule::parse("Ra(x) Wa(x)").unwrap());
        assert!(c.serial && c.csr && c.vsr && c.mvsr && c.mvcsr && c.dmvsr);
        let text = c.to_string();
        assert!(text.contains("serial=yes"));
        let census = Census::build(std::iter::empty());
        assert_eq!(census.total(), 0);
        assert!(census.to_string().contains("0 schedules"));
    }

    #[test]
    fn census_names_are_the_region_names_in_alphabetical_order() {
        let names: Vec<&str> = BY_NAME.iter().map(|&(_, name)| name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        for (region, name) in BY_NAME {
            assert_eq!(format!("{region:?}"), name);
            assert_eq!(Figure1Region::all()[region as usize], region);
        }
    }

    #[test]
    fn only_a_search_builds_the_search_tables() {
        use crate::arcs::Forced;
        use crate::serialization::search_nodes;
        let corpus = mvcc_workload::random_interleavings(
            &mvcc_workload::WorkloadConfig {
                transactions: 8,
                steps_per_transaction: 4,
                entities: 8,
                read_ratio: 0.5,
                zipf_theta: 0.0,
                seed: 1u64.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            },
            500,
        );
        // Schedules built the tables for: all, MvcsrNotSr, refuted by
        // MVSR's forced arcs; and the non-VSR ones, refuted by VSR's.
        let mut built = [(0, 0); 3];
        let mut vsr_refuted = (0, 0);
        for s in &corpus {
            let dense = DenseSchedule::of(s);
            let mut c = None;
            let nodes = search_nodes(|| c = Some(classify_on(s, &dense)));
            let c = c.unwrap();
            // A search visits its root, and nothing else builds the tables.
            let tables = dense.tables_built();
            assert_eq!(tables, nodes > 0, "schedule {s}");
            let kinds = [
                true,
                c.region() == Figure1Region::MvcsrNotSr,
                dense.refuted_by(Forced::Mvsr),
            ];
            for (count, kind) in built.iter_mut().zip(kinds) {
                if kind {
                    count.0 += usize::from(tables);
                    count.1 += 1;
                }
            }
            if !c.vsr {
                vsr_refuted.0 += usize::from(dense.refuted_by(Forced::Vsr));
                vsr_refuted.1 += 1;
            }
        }
        assert_eq!(vsr_refuted, (499, 500));
        // None of the 500 is VSR, and VSR's forced arcs refute all but one.
        // That one is MVCSR: the one MvcsrNotSr schedule built for, where
        // the VSR search refutes.
        assert_eq!(built, [(163, 500), (1, 189), (0, 149)]);
    }

    /// A committed history of the shape an SGT certifier admits, about
    /// `steps` long: transactions of 4 steps in rounds of 8 sessions
    /// interleaved step by step, each round's transactions on entities of
    /// their own out of 4 096 — conflict-serializable in round order.
    fn sgt_style_history(steps: usize) -> Schedule {
        use mvcc_core::{EntityId, Step, TxId};
        let mut out = Vec::with_capacity(steps);
        for round in 0..steps / 32 {
            for k in 0..4 {
                for session in 0..8 {
                    let tx = TxId((round * 8 + session + 1) as u32);
                    let entity = EntityId(((round * 32 + session * 4 + k) * 7 % 4096) as u32);
                    out.push(if k % 2 == 0 {
                        Step::read(tx, entity)
                    } else {
                        Step::write(tx, entity)
                    });
                }
            }
        }
        Schedule::from_steps(out)
    }

    #[test]
    fn a_reused_workspace_answers_like_a_fresh_index() {
        use crate::arcs::{workspace_buffers, RETAINED};
        use crate::serialization::{search_nodes, search_nodes_within, serial_orders, Required};
        use crate::testing::{benchmark_corpus, dense_random_schedule};
        // The searches of one schedule below visit at most 917 nodes in a
        // passing run; the budget is ten times that.
        const BUDGET: u64 = 9_170;
        // On this thread, through the workspace and against a fresh index:
        // every verdict, both witnesses, the search's node count and
        // whether the search tables were built.
        let same_as_fresh = |what: &str, s: &Schedule| {
            let fresh = DenseSchedule::of(s);
            let (expected, expected_nodes, reused, nodes, standalone, standalone_nodes, witnesses) =
                search_nodes_within(BUDGET, || {
                    let mut expected = None;
                    let expected_nodes = search_nodes(|| expected = Some(classify_on(s, &fresh)));
                    let mut reused = None;
                    let nodes = search_nodes(|| {
                        reused = Some(with_dense(s, |dense| {
                            (classify_on(s, dense), dense.tables_built())
                        }));
                    });
                    let mut standalone = None;
                    let standalone_nodes = search_nodes(|| standalone = Some(classify(s)));
                    let witness =
                        |required| serial_orders(&DenseSchedule::of(s), required, Some(1)).pop();
                    let mvsr = crate::mvsr::mvsr_witness(s).map(|(order, _)| order);
                    let witnesses = [
                        (mvsr, witness(Required::Nothing)),
                        (crate::vsr::vsr_witness(s), witness(Required::Standard)),
                    ];
                    (
                        expected.unwrap(),
                        expected_nodes,
                        reused,
                        nodes,
                        standalone,
                        standalone_nodes,
                        witnesses,
                    )
                })
                .unwrap_or_else(|| panic!("{what}: the searches ran past {BUDGET} nodes"));
            assert_eq!(reused, Some((expected, fresh.tables_built())), "{s}");
            assert_eq!(nodes, expected_nodes, "{s}");
            assert_eq!(standalone, Some(expected), "{s}");
            assert_eq!(standalone_nodes, nodes, "{s}");
            for (witness, searched) in witnesses {
                assert_eq!(witness, searched, "{s}");
            }
        };
        let corpus = benchmark_corpus(300);
        let each_of_the_corpus = |(k, s)| same_as_fresh(&format!("corpus schedule {k}"), s);
        corpus.iter().enumerate().for_each(each_of_the_corpus);
        // Past the masks: 65 transactions, and 130 in a chain (`T_t` reads
        // `x_(t+1)` up front, then `x_(t-1)` before writing `x_t`).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        same_as_fresh(
            "the 65-transaction schedule",
            &dense_random_schedule(&mut state, 65, 4, 512, false),
        );
        let x = mvcc_core::EntityId;
        let ahead = (1..=130).map(|t| mvcc_core::Step::read(mvcc_core::TxId(t), x(t + 1)));
        let turns = (1..=130).flat_map(|t| {
            let tx = mvcc_core::TxId(t);
            [
                mvcc_core::Step::read(tx, x(t - 1)),
                mvcc_core::Step::write(tx, x(t)),
            ]
        });
        same_as_fresh(
            "the 130-transaction chain",
            &Schedule::from_steps(ahead.chain(turns).collect()),
        );
        // A 20 000-step history through the polynomial audits; what it grew
        // past the retention bound is freed when each call ends.
        let history = sgt_style_history(20_000);
        let fresh = DenseSchedule::of(&history);
        assert!(crate::csr::decide(&fresh) && crate::mvcsr::decide(&fresh));
        assert!(crate::csr::is_csr(&history));
        let retained = workspace_buffers();
        assert!(!retained.is_empty(), "the workspace went back to its slot");
        assert!(
            retained.iter().all(|&bytes| bytes <= RETAINED),
            "{retained:?}"
        );
        assert!(crate::mvcsr::is_mvcsr(&history));
        assert!(workspace_buffers().iter().all(|&bytes| bytes <= RETAINED));
        // A transaction writing `x` twice sends DMVSR to `is_mvsr` on the
        // patching, a call nested in the one holding the workspace.
        let repeated = Schedule::parse("Rb(x) Rb(y) Wb(x) Ra(x) Wb(x) Ra(y) Wa(y)").unwrap();
        assert!(search_nodes(|| assert!(crate::dmvsr::is_dmvsr(&repeated))) > 0);
        same_as_fresh("the repeated write", &repeated);
        assert!(!workspace_buffers().is_empty());
        corpus.iter().enumerate().for_each(each_of_the_corpus);
    }

    #[test]
    fn region_assignment_priorities() {
        // Non-MVSR dominates everything except serial.
        let c = Classification {
            serial: false,
            csr: false,
            vsr: false,
            mvcsr: false,
            mvsr: false,
            dmvsr: false,
        };
        assert_eq!(c.region(), Figure1Region::NotMvsr);
        let c2 = Classification {
            serial: false,
            csr: false,
            vsr: true,
            mvcsr: false,
            mvsr: true,
            dmvsr: false,
        };
        assert_eq!(c2.region(), Figure1Region::SrNotMvcsr);
    }
}
