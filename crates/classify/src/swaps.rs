//! The swap characterisation of MVCSR (Theorem 2).
//!
//! Write `s ~ s'` when `s'` is obtained from `s` by switching two *adjacent*
//! steps that do **not** multiversion-conflict (and that belong to different
//! transactions, so the result is still a schedule of the same system), and
//! let `≈` be the transitive closure of `~`.  **Theorem 2**: a schedule is
//! MVCSR iff `s ≈ r` for some serial schedule `r`.
//!
//! `reachable_by_swaps` performs the (exponential-state) BFS over `≈` used
//! to validate Theorem 2 on small schedules, and [`swap_distance_to_serial`]
//! reports the length of the shortest swap sequence — the "how far from
//! serial" metric printed by the Theorem 2 table of the experiment harness.

use mvcc_core::conflict::mv_conflicts;
use mvcc_core::{Schedule, Step};
use std::collections::{HashMap, VecDeque};

/// The schedules obtainable from `s` by a single legal switch of adjacent,
/// non-multiversion-conflicting steps of different transactions.
pub fn swap_neighbours(s: &Schedule) -> Vec<Schedule> {
    let mut out = Vec::new();
    for i in 0..s.len().saturating_sub(1) {
        let a = s.steps()[i];
        let b = s.steps()[i + 1];
        if a.tx == b.tx {
            continue;
        }
        if mv_conflicts(&a, &b) {
            // Switching would reverse a multiversion conflict.
            continue;
        }
        if let Some(next) = s.swap_adjacent(i) {
            out.push(next);
        }
    }
    out
}

/// Breadth-first search over `≈` starting from `s`.  Returns, for every
/// reachable schedule, the minimal number of switches needed to reach it.
/// The state space is bounded by the number of interleavings of the
/// transaction system, so this is only for small schedules.
pub(crate) fn reachable_by_swaps(s: &Schedule) -> HashMap<Vec<Step>, usize> {
    let mut dist: HashMap<Vec<Step>, usize> = HashMap::new();
    let mut queue = VecDeque::new();
    dist.insert(s.steps().to_vec(), 0);
    queue.push_back(s.clone());
    while let Some(current) = queue.pop_front() {
        let d = dist[current.steps()];
        for next in swap_neighbours(&current) {
            if !dist.contains_key(next.steps()) {
                dist.insert(next.steps().to_vec(), d + 1);
                queue.push_back(next);
            }
        }
    }
    dist
}

/// The minimal number of legal switches needed to transform `s` into *some*
/// serial schedule, or `None` if no serial schedule is reachable (by
/// Theorem 2, exactly when `s` is not MVCSR).
pub fn swap_distance_to_serial(s: &Schedule) -> Option<usize> {
    reachable_by_swaps(s)
        .into_iter()
        .filter(|(steps, _)| Schedule::from_steps(steps.clone()).is_serial())
        .map(|(_, d)| d)
        .min()
}

/// Theorem 2 as a predicate: `true` iff some serial schedule is reachable
/// from `s` by legal switches.
pub fn serial_reachable_by_swaps(s: &Schedule) -> bool {
    swap_distance_to_serial(s).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcsr::is_mvcsr;

    #[test]
    fn serial_schedule_has_distance_zero() {
        let s = Schedule::parse("Ra(x) Wa(x) Rb(x) Wb(x)").unwrap();
        assert_eq!(swap_distance_to_serial(&s), Some(0));
    }

    #[test]
    fn one_swap_away_from_serial() {
        // R1(x) R2(y) W1(x): swapping the middle two steps (which do not
        // multiversion-conflict) yields the serial schedule.
        let s = Schedule::parse("Ra(x) Rb(y) Wa(x)").unwrap();
        assert_eq!(swap_distance_to_serial(&s), Some(1));
    }

    #[test]
    fn swap_neighbours_respect_mv_conflicts() {
        // Rb(x) Wa(x) is an MV-conflicting adjacent pair: it may NOT be
        // switched; Wa(x) Rb(x) is not an MV conflict and may be switched.
        let s = Schedule::parse("Rb(x) Wa(x)").unwrap();
        assert!(swap_neighbours(&s).is_empty());
        let t = Schedule::parse("Wa(x) Rb(x)").unwrap();
        assert_eq!(swap_neighbours(&t).len(), 1);
    }

    #[test]
    fn theorem2_agrees_with_theorem1_exhaustively() {
        // For every interleaving of a small system, "a serial schedule is
        // reachable by legal switches" iff "MVCG is acyclic".
        let sys = Schedule::parse("Ra(x) Wa(y) Rb(y) Wb(x) Wc(x)")
            .unwrap()
            .tx_system();
        for s in Schedule::all_interleavings(&sys) {
            assert_eq!(
                serial_reachable_by_swaps(&s),
                is_mvcsr(&s),
                "Theorem 2 violated on {s}"
            );
        }
    }

    #[test]
    fn non_mvcsr_schedule_reaches_no_serial_schedule() {
        let s1 = &mvcc_core::examples::figure1()[0].schedule;
        assert!(!serial_reachable_by_swaps(s1));
        assert_eq!(swap_distance_to_serial(s1), None);
    }

    #[test]
    fn reachability_distances_are_monotone_under_one_step() {
        let s = Schedule::parse("Ra(x) Rb(y) Wa(y) Wb(x)").unwrap();
        let dist = reachable_by_swaps(&s);
        for next in swap_neighbours(&s) {
            let d = dist[next.steps()];
            assert!(d <= 1, "direct neighbour at distance {d}");
        }
    }
}
