//! CNF satisfiability: the root of the paper's hardness results.
//!
//! The reduction chain of the paper is
//! `SAT → polygraph acyclicity → {OLS, maximal schedulers}`; this module
//! provides the formulas and two exact solvers (brute force and DPLL) used
//! to validate the chain end-to-end in the tests and experiment harness.
//!
//! The paper's source reduction uses *restricted* satisfiability — clauses
//! of two or three literals, each clause all-positive or all-negative —
//! which remains NP-complete; [`CnfFormula::is_restricted`] recognises that
//! fragment and the generators in `mvcc-workload` can be asked to produce
//! it, but the solvers and the polygraph reduction accept arbitrary CNF.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A literal: variable index plus polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Literal {
    /// Zero-based variable index.
    pub var: usize,
    /// `true` for the positive literal `x`, `false` for `¬x`.
    pub positive: bool,
}

impl Literal {
    /// Positive literal of `var`.
    pub fn pos(var: usize) -> Self {
        Literal {
            var,
            positive: true,
        }
    }

    /// Negative literal of `var`.
    pub fn neg(var: usize) -> Self {
        Literal {
            var,
            positive: false,
        }
    }

    /// Evaluates the literal under an assignment.
    #[cfg(test)]
    pub(crate) fn eval(&self, assignment: &[bool]) -> bool {
        assignment[self.var] == self.positive
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "x{}", self.var)
        } else {
            write!(f, "¬x{}", self.var)
        }
    }
}

/// A CNF formula.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CnfFormula {
    /// Number of variables (indices `0..num_vars`).
    pub num_vars: usize,
    /// Clauses, each a disjunction of literals.
    pub clauses: Vec<Vec<Literal>>,
}

impl CnfFormula {
    /// Creates a formula with `num_vars` variables and no clauses.
    pub fn new(num_vars: usize) -> Self {
        CnfFormula {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Adds a clause. Panics if a literal mentions an out-of-range variable
    /// or the clause is empty.
    pub fn add_clause(&mut self, clause: Vec<Literal>) {
        assert!(!clause.is_empty(), "empty clause");
        assert!(clause.iter().all(|l| l.var < self.num_vars));
        self.clauses.push(clause);
    }

    /// Evaluates the formula under a complete assignment.
    #[cfg(test)]
    pub(crate) fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses
            .iter()
            .all(|c| c.iter().any(|l| l.eval(assignment)))
    }

    /// `true` if the formula is in the restricted fragment used by the
    /// paper's source reduction: every clause has two or three literals and
    /// is either all-positive or all-negative.
    pub fn is_restricted(&self) -> bool {
        self.clauses.iter().all(|c| {
            (2..=3).contains(&c.len())
                && (c.iter().all(|l| l.positive) || c.iter().all(|l| !l.positive))
        })
    }

    /// Brute-force satisfiability check (reference implementation).
    #[cfg(test)]
    pub(crate) fn satisfiable_brute_force(&self) -> Option<Vec<bool>> {
        assert!(self.num_vars < 24, "brute force is for small formulas");
        for bits in 0..(1u64 << self.num_vars) {
            let assignment: Vec<bool> = (0..self.num_vars).map(|i| bits & (1 << i) != 0).collect();
            if self.eval(&assignment) {
                return Some(assignment);
            }
        }
        None
    }

    /// DPLL satisfiability with unit propagation and pure-literal
    /// elimination.
    pub fn satisfiable_dpll(&self) -> Option<Vec<bool>> {
        let mut assignment: Vec<Option<bool>> = vec![None; self.num_vars];
        if self.dpll(&mut assignment) {
            Some(assignment.into_iter().map(|v| v.unwrap_or(false)).collect())
        } else {
            None
        }
    }

    fn dpll(&self, assignment: &mut Vec<Option<bool>>) -> bool {
        // Evaluate clause status under the partial assignment.
        loop {
            let mut unit: Option<Literal> = None;
            for clause in &self.clauses {
                let mut satisfied = false;
                let mut unassigned: Vec<Literal> = Vec::new();
                for lit in clause {
                    match assignment[lit.var] {
                        Some(v) if v == lit.positive => {
                            satisfied = true;
                            break;
                        }
                        Some(_) => {}
                        None => unassigned.push(*lit),
                    }
                }
                if satisfied {
                    continue;
                }
                match unassigned.len() {
                    0 => return false, // conflict
                    1 => {
                        unit = Some(unassigned[0]);
                        break;
                    }
                    _ => {}
                }
            }
            match unit {
                Some(lit) => assignment[lit.var] = Some(lit.positive),
                None => break,
            }
        }
        // Pick an unassigned variable occurring in an unsatisfied clause.
        let next = self.clauses.iter().find_map(|clause| {
            let satisfied = clause.iter().any(|l| assignment[l.var] == Some(l.positive));
            if satisfied {
                None
            } else {
                clause.iter().find(|l| assignment[l.var].is_none()).copied()
            }
        });
        let Some(lit) = next else {
            return true; // every clause satisfied
        };
        for value in [lit.positive, !lit.positive] {
            let snapshot = assignment.clone();
            assignment[lit.var] = Some(value);
            if self.dpll(assignment) {
                return true;
            }
            *assignment = snapshot;
        }
        false
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let clauses: Vec<String> = self
            .clauses
            .iter()
            .map(|c| {
                let lits: Vec<String> = c.iter().map(|l| l.to_string()).collect();
                format!("({})", lits.join(" ∨ "))
            })
            .collect();
        write!(f, "{}", clauses.join(" ∧ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_formula() -> CnfFormula {
        // (x0 ∨ x1) ∧ (¬x0 ∨ ¬x1): satisfied by exactly one of them.
        let mut f = CnfFormula::new(2);
        f.add_clause(vec![Literal::pos(0), Literal::pos(1)]);
        f.add_clause(vec![Literal::neg(0), Literal::neg(1)]);
        f
    }

    fn unsat_formula() -> CnfFormula {
        // (x0) ∧ (¬x0) via two 2-literal clauses to stay in the restricted
        // fragment: (x0 ∨ x0) ∧ (¬x0 ∨ ¬x0)
        let mut f = CnfFormula::new(1);
        f.add_clause(vec![Literal::pos(0), Literal::pos(0)]);
        f.add_clause(vec![Literal::neg(0), Literal::neg(0)]);
        f
    }

    #[test]
    fn eval_and_satisfiability() {
        let f = xor_formula();
        assert!(f.eval(&[true, false]));
        assert!(!f.eval(&[true, true]));
        let a = f.satisfiable_brute_force().unwrap();
        assert!(f.eval(&a));
        let d = f.satisfiable_dpll().unwrap();
        assert!(f.eval(&d));
    }

    #[test]
    fn unsat_detected_by_both_solvers() {
        let f = unsat_formula();
        assert!(f.satisfiable_brute_force().is_none());
        assert!(f.satisfiable_dpll().is_none());
    }

    #[test]
    fn restricted_fragment_detection() {
        assert!(xor_formula().is_restricted());
        let mut mixed = CnfFormula::new(2);
        mixed.add_clause(vec![Literal::pos(0), Literal::neg(1)]);
        assert!(!mixed.is_restricted());
        let mut long = CnfFormula::new(4);
        long.add_clause(vec![
            Literal::pos(0),
            Literal::pos(1),
            Literal::pos(2),
            Literal::pos(3),
        ]);
        assert!(!long.is_restricted());
    }

    #[test]
    fn dpll_agrees_with_brute_force_on_pseudorandom_formulas() {
        let mut seed = 0xdeadbeefu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut sat_count = 0;
        let mut unsat_count = 0;
        for _ in 0..200 {
            let num_vars = 2 + (next() % 5) as usize;
            let num_clauses = 1 + (next() % 8) as usize;
            let mut f = CnfFormula::new(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let clause: Vec<Literal> = (0..len)
                    .map(|_| Literal {
                        var: (next() % num_vars as u64) as usize,
                        positive: next() % 2 == 0,
                    })
                    .collect();
                f.add_clause(clause);
            }
            let bf = f.satisfiable_brute_force().is_some();
            let dp = f.satisfiable_dpll().is_some();
            assert_eq!(bf, dp, "formula {f}");
            if bf {
                sat_count += 1;
            } else {
                unsat_count += 1;
            }
        }
        assert!(sat_count > 0 && unsat_count > 0);
    }

    #[test]
    fn display_and_counts() {
        let f = xor_formula();
        assert_eq!(f.clauses.len(), 2);
        let text = f.to_string();
        assert!(text.contains("∨"));
        assert!(text.contains("¬x1"));
    }

    #[test]
    #[should_panic(expected = "empty clause")]
    fn empty_clause_rejected() {
        CnfFormula::new(1).add_clause(vec![]);
    }
}
