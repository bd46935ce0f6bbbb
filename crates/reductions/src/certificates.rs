//! NP certificates and Corollary 1's forced read-froms.
//!
//! * Theorem 4's membership argument: "a succinct certificate of on-line
//!   schedulability of `{s1, s2}` consists of two version functions
//!   `V1, V2` and two serial schedules `r1, r2`; `V1` and `V2` must agree on
//!   the longest common prefix" — [`verify_ols_certificate`] checks exactly
//!   that.
//! * Corollary 1: "if the version function of a prefix of an MVSR schedule
//!   is uniquely determined then the prefix is accepted by all maximal
//!   multiversion schedulers" — [`forced_read_froms`] reports the uniquely
//!   determined read-froms (when they are unique), which the Theorem 5 and
//!   Theorem 6 constructions rely on.

use mvcc_classify::serialization::{
    achievable_prefix_restrictions, achievable_prefix_restrictions_bounded,
    serializations_extending,
};
use mvcc_core::equivalence::full_view_equivalent;
use mvcc_core::{Schedule, TxId, VersionFunction, VersionSource};
use std::collections::BTreeMap;

/// A certificate for the on-line schedulability of a pair of schedules.
#[derive(Debug, Clone)]
pub struct OlsCertificate {
    /// Version function for the first schedule.
    pub v1: VersionFunction,
    /// Serial order witnessing serializability of `(s1, v1)`.
    pub r1: Vec<TxId>,
    /// Version function for the second schedule.
    pub v2: VersionFunction,
    /// Serial order witnessing serializability of `(s2, v2)`.
    pub r2: Vec<TxId>,
}

/// Verifies an OLS certificate for the pair `{s1, s2}` exactly as in the
/// NP-membership argument of Theorem 4:
///
/// 1. `(s1, v1)` is view-equivalent to the serial schedule `r1` (and likewise
///    for `s2`), and
/// 2. `v1` and `v2` agree on every read step of the longest common prefix.
pub fn verify_ols_certificate(s1: &Schedule, s2: &Schedule, cert: &OlsCertificate) -> bool {
    let serial1 = Schedule::serial(&s1.tx_system(), &cert.r1);
    let serial2 = Schedule::serial(&s2.tx_system(), &cert.r2);
    if !full_view_equivalent(s1, &cert.v1, &serial1, &VersionFunction::standard(&serial1)) {
        return false;
    }
    if !full_view_equivalent(s2, &cert.v2, &serial2, &VersionFunction::standard(&serial2)) {
        return false;
    }
    let common = s1.common_prefix_len(s2);
    for pos in 0..common {
        if s1.steps()[pos].is_read() && cert.v1.get(pos) != cert.v2.get(pos) {
            return false;
        }
    }
    true
}

/// Produces an OLS certificate for a pair of schedules by exhaustive search,
/// or `None` if the pair is not OLS (used to cross-validate the checker and
/// to print witnesses in the experiment harness).
pub fn find_ols_certificate(s1: &Schedule, s2: &Schedule) -> Option<OlsCertificate> {
    let common = s1.common_prefix_len(s2);
    // Search over achievable prefix *restrictions* instead of pairs of full
    // serializations: two serializations agree on the common prefix iff they
    // extend the same restriction, so it suffices to enumerate one side's
    // restrictions, find one `s2` can extend too (budget-first probing, see
    // `first_shared_restriction`), and materialize a serialization per side.
    let candidates = achievable_prefix_restrictions(s1, common);
    let required = crate::ols::first_shared_restriction(&candidates, &[s2])?;
    let rf1 = serializations_extending(s1, &required, Some(1)).pop()?;
    let rf2 = serializations_extending(s2, &required, Some(1)).pop()?;
    Some(OlsCertificate {
        v1: rf1.to_version_function(s1),
        r1: rf1.order.clone(),
        v2: rf2.to_version_function(s2),
        r2: rf2.order.clone(),
    })
}

/// If every serialization of `s` induces the *same* read-from assignment,
/// returns that assignment (read position ↦ source); returns `None` when the
/// schedule is not MVSR or when two serializations disagree on some read.
///
/// This is the hypothesis of Corollary 1 ("there are no read-from choices"),
/// which the Theorem 5 construction establishes for its output schedules.
pub fn forced_read_froms(s: &Schedule) -> Option<BTreeMap<usize, VersionSource>> {
    // The read-froms are forced iff the achievable restrictions to the whole
    // schedule form a singleton — checked without enumerating the (possibly
    // factorially many) serializations behind them, and stopping as soon as
    // a second restriction turns up.
    let mut all = achievable_prefix_restrictions_bounded(s, s.len(), Some(2)).into_iter();
    let first = all.next()?;
    if all.next().is_some() {
        return None;
    }
    Some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_classify::serialization::has_serialization_extending;
    use mvcc_core::examples::section4_pair;
    use std::collections::HashMap;

    #[test]
    fn certificate_found_for_an_ols_pair() {
        let s1 = Schedule::parse("Wa(x) Rb(x) Wb(y)").unwrap();
        let s2 = Schedule::parse("Wa(x) Rb(x) Wb(y) Ra(y)").unwrap();
        let cert = find_ols_certificate(&s1, &s2).expect("pair is OLS");
        assert!(verify_ols_certificate(&s1, &s2, &cert));
    }

    #[test]
    fn no_certificate_for_the_section4_pair() {
        let (s, s_prime) = section4_pair();
        assert!(find_ols_certificate(&s, &s_prime).is_none());
    }

    #[test]
    fn tampered_certificate_is_rejected() {
        let s1 = Schedule::parse("Wa(x) Rb(x) Wb(y)").unwrap();
        let s2 = Schedule::parse("Wa(x) Rb(x) Wb(y) Ra(y)").unwrap();
        let mut cert = find_ols_certificate(&s1, &s2).unwrap();
        // Flip the shared read's assignment in one of the version functions
        // (to whichever value it does not currently hold, so the tamper is
        // never a no-op): the two halves now disagree on the common prefix.
        let flipped = match cert.v1.get(1) {
            Some(VersionSource::Initial) => VersionSource::Tx(TxId(1)),
            _ => VersionSource::Initial,
        };
        cert.v1.assign(1, flipped);
        assert!(!verify_ols_certificate(&s1, &s2, &cert));
    }

    #[test]
    fn forced_read_froms_of_a_forced_schedule() {
        // Wa(x) Rb(x) Rb(y) Wb(y): B must read x from A (reading x0 would
        // put B before A, but then the final read of x ... is unconstrained;
        // actually both orders serialize, so the read is NOT forced).
        let free = Schedule::parse("Wa(x) Rb(x)").unwrap();
        assert!(forced_read_froms(&free).is_none());

        // Ra(y) Wb(y) forces A before B, and then Wa(x) Rb(x) pins R_b(x).
        let forced = Schedule::parse("Ra(y) Wa(x) Wb(y) Rb(x)").unwrap();
        let map = forced_read_froms(&forced).expect("unique serialization");
        assert_eq!(map.get(&3), Some(&VersionSource::Tx(TxId(1))));
    }

    #[test]
    fn forced_read_froms_none_for_non_mvsr() {
        let s1 = &mvcc_core::examples::figure1()[0].schedule;
        assert!(forced_read_froms(s1).is_none());
    }

    #[test]
    fn lemma1_predicate() {
        // Lemma 1: a maximal scheduler may reject a step after accepting a
        // prefix with some read-froms only if the prefix with the step has
        // no serializable completion extending them.  After accepting
        // Wa(x) Rb(x) with R_b(x) <- A, the continuation exists (serialize
        // A B)...
        let prefix = Schedule::parse("Wa(x) Rb(x)").unwrap();
        let assigned = HashMap::from([(1, VersionSource::Tx(TxId(1)))]);
        assert!(has_serialization_extending(&prefix, &assigned));
        // ...but after also seeing W_b(x) R_a(x) with R_a(x) forced to read
        // B's version AND R_b(x) pinned to A's, no serial order works.
        let longer = Schedule::parse("Wa(x) Rb(x) Wb(x) Ra(x)").unwrap();
        let impossible = HashMap::from([
            (1, VersionSource::Tx(TxId(1))),
            (3, VersionSource::Tx(TxId(2))),
        ]);
        assert!(!has_serialization_extending(&longer, &impossible));
    }
}
