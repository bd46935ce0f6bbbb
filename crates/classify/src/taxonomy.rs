//! The combined classification and the region map of the paper's Figure 1.

use crate::arcs::DenseSchedule;
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
/// the MVCG's topological order as a serialization in one pass over the
/// reads, which settles every MVCSR schedule (Theorem 3, see
/// [`crate::mvsr`]); VSR and the rest of MVSR use the exact (exponential
/// worst-case) search — keep schedules small, exactly as in the paper's
/// examples and reductions.
pub fn classify(schedule: &Schedule) -> Classification {
    // One index for all six tests; each verdict is still its own test.  The
    // MVCSR test's Kahn pass is MVSR's candidate order, but MVSR checks it
    // against its own definition and searches when it fails: no verdict is
    // derived from another.
    let dense = DenseSchedule::of(schedule);
    Classification {
        serial: dense.serial,
        csr: csr::decide(&dense),
        vsr: vsr::decide(&dense),
        mvcsr: mvcsr::decide(&dense),
        mvsr: mvsr::decide(&dense),
        dmvsr: dmvsr::decide(schedule, &dense),
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
