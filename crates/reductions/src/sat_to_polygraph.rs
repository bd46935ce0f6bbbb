//! Reduction from CNF satisfiability to polygraph acyclicity.
//!
//! The paper relies on the reduction of [Papadimitriou 1979], which produces
//! polygraphs with three structural properties that the proofs of Theorems
//! 4–6 use:
//!
//! * **(b)** the first branches `(j, k)` of the choices form no cycle,
//! * **(c)** the mandatory arcs `(N, A)` form no cycle, and
//! * (for Theorem 6) the choices are **node-disjoint** — no node appears in
//!   two choices.
//!
//! This module implements a reduction with the same properties (documented
//! below and verified by property tests against the DPLL solver); it is a
//! streamlined variant of the original construction.
//!
//! ## Construction
//!
//! For every variable `x` we create a *variable choice* `Vx = (j, k, i)` on
//! three fresh nodes (mandatory arc `(i, j)`): selecting the first branch
//! `(j, k)` means `x = true`, selecting `(k, i)` means `x = false`.
//!
//! For every occurrence of a literal in a clause we create an *occurrence
//! choice* `Oo = (j', k', i')` on three fresh nodes: first branch `(j', k')`
//! means "this occurrence is asserted true".  Consistency arcs tie an
//! occurrence to its variable so that asserting the occurrence true while
//! the variable has the opposite value closes a 4-cycle:
//!
//! * positive occurrence of `x`: arcs `(k', k)` and `(i, j')` — cycle
//!   `j' → k' → k → i → j'` iff the occurrence is asserted true **and**
//!   `x = false`;
//! * negative occurrence: arcs `(k', j)` and `(k, j')` — cycle
//!   `j' → k' → j → k → j'` iff the occurrence is asserted true **and**
//!   `x = true`.
//!
//! Finally, for every clause the "asserted false" branches of its
//! occurrences are chained into a cycle with connector arcs
//! `(i'_t, k'_{t+1 (mod m)})`: if *every* occurrence of the clause is
//! asserted false, the selected arcs `(k'_t, i'_t)` close the cycle.
//!
//! The formula is satisfiable iff the polygraph is acyclic: a satisfying
//! assignment yields an acyclic selection (assert occurrences true exactly
//! when their literal is true), and conversely any acyclic selection must be
//! consistent (else a consistency cycle) and must satisfy every clause (else
//! a clause cycle).

use crate::sat::CnfFormula;
use mvcc_graph::{NodeId, Polygraph};

/// Book-keeping of the reduction: which choice belongs to which variable or
/// literal occurrence.
#[derive(Debug, Clone)]
pub struct SatPolygraph {
    /// The produced polygraph.
    pub polygraph: Polygraph,
    /// Choice index of each variable's choice.
    pub variable_choice: Vec<usize>,
    /// Choice index of each literal occurrence, indexed `[clause][literal]`.
    pub occurrence_choice: Vec<Vec<usize>>,
}

/// Runs the reduction on `formula`.
pub fn sat_to_polygraph(formula: &CnfFormula) -> SatPolygraph {
    let mut p = Polygraph::with_nodes(0);
    let mut variable_choice = Vec::with_capacity(formula.num_vars);
    let mut variable_nodes: Vec<(NodeId, NodeId, NodeId)> = Vec::with_capacity(formula.num_vars);

    // Variable choices.
    for v in 0..formula.num_vars {
        let j = p.add_node(format!("x{v}.j"));
        let k = p.add_node(format!("x{v}.k"));
        let i = p.add_node(format!("x{v}.i"));
        variable_choice.push(p.choice_count());
        p.add_choice(j, k, i);
        variable_nodes.push((j, k, i));
    }

    // Occurrence choices, consistency arcs and clause cycles.
    let mut occurrence_choice = Vec::with_capacity(formula.clauses.len());
    for (c_idx, clause) in formula.clauses.iter().enumerate() {
        let mut occ_nodes: Vec<(NodeId, NodeId, NodeId)> = Vec::with_capacity(clause.len());
        let mut occ_choices = Vec::with_capacity(clause.len());
        for (l_idx, lit) in clause.iter().enumerate() {
            let j = p.add_node(format!("c{c_idx}l{l_idx}.j"));
            let k = p.add_node(format!("c{c_idx}l{l_idx}.k"));
            let i = p.add_node(format!("c{c_idx}l{l_idx}.i"));
            occ_choices.push(p.choice_count());
            p.add_choice(j, k, i);
            occ_nodes.push((j, k, i));

            let (vj, vk, vi) = variable_nodes[lit.var];
            if lit.positive {
                // Forbid: occurrence true (j' -> k') while x = false (k -> i).
                p.add_arc(k, vk); // k' -> k
                p.add_arc(vi, j); // i  -> j'
            } else {
                // Forbid: occurrence true while x = true (j -> k).
                p.add_arc(k, vj); // k' -> j
                p.add_arc(vk, j); // k  -> j'
            }
        }
        // Clause cycle over the "asserted false" branches (k' -> i').
        let m = occ_nodes.len();
        for t in 0..m {
            let (_, _, i_t) = occ_nodes[t];
            let (_, k_next, _) = occ_nodes[(t + 1) % m];
            p.add_arc(i_t, k_next);
        }
        occurrence_choice.push(occ_choices);
    }

    SatPolygraph {
        polygraph: p,
        variable_choice,
        occurrence_choice,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::Literal;
    use mvcc_graph::poly_acyclic::{brute_force_acyclic, solve_polygraph};
    use mvcc_graph::topo::is_acyclic;

    fn formula(num_vars: usize, clauses: &[&[i64]]) -> CnfFormula {
        // Positive literal v+1, negative literal -(v+1).
        let mut f = CnfFormula::new(num_vars);
        for c in clauses {
            f.add_clause(
                c.iter()
                    .map(|&l| {
                        if l > 0 {
                            Literal::pos((l - 1) as usize)
                        } else {
                            Literal::neg((-l - 1) as usize)
                        }
                    })
                    .collect(),
            );
        }
        f
    }

    #[test]
    fn produced_polygraph_has_the_structural_properties() {
        let f = formula(3, &[&[1, 2], &[-1, -3], &[2, 3]]);
        let sp = sat_to_polygraph(&f);
        assert!(sp.polygraph.choices_node_disjoint(), "Theorem 6 property");
        assert!(sp.polygraph.first_branches_acyclic(), "assumption (b)");
        assert!(sp.polygraph.base_acyclic(), "assumption (c)");
        // One choice per variable plus one per literal occurrence.
        assert_eq!(
            sp.polygraph.choice_count(),
            f.num_vars + f.clauses.iter().map(Vec::len).sum::<usize>()
        );
    }

    #[test]
    fn satisfiable_formula_gives_acyclic_polygraph_with_decodable_assignment() {
        let f = formula(2, &[&[1, 2], &[-1, -2]]);
        let sp = sat_to_polygraph(&f);
        let sol = solve_polygraph(&sp.polygraph).expect("acyclic");
        // A variable is true when its choice takes the first branch.
        let assignment: Vec<bool> = sp
            .variable_choice
            .iter()
            .map(|&c| sol.selection[c])
            .collect();
        assert!(
            f.eval(&assignment),
            "decoded assignment must satisfy the formula"
        );
    }

    #[test]
    fn unsatisfiable_formula_gives_cyclic_polygraph() {
        let f = formula(1, &[&[1, 1], &[-1, -1]]);
        assert!(f.satisfiable_dpll().is_none());
        let sp = sat_to_polygraph(&f);
        assert!(solve_polygraph(&sp.polygraph).is_none());
    }

    #[test]
    fn consistent_selection_from_satisfying_assignment_is_acyclic() {
        let f = formula(3, &[&[1, 2, 3], &[-1, -2], &[2, 3]]);
        let assignment = f.satisfiable_dpll().expect("satisfiable");
        let sp = sat_to_polygraph(&f);
        // Build the selection by hand: variable choices follow the
        // assignment, occurrence choices are asserted true iff their literal
        // is true.
        let mut selection = vec![false; sp.polygraph.choice_count()];
        for (v, &c) in sp.variable_choice.iter().enumerate() {
            selection[c] = assignment[v];
        }
        for (c_idx, clause) in f.clauses.iter().enumerate() {
            for (l_idx, lit) in clause.iter().enumerate() {
                selection[sp.occurrence_choice[c_idx][l_idx]] = lit.eval(&assignment);
            }
        }
        let g = sp.polygraph.compatible_graph(&selection);
        assert!(
            is_acyclic(&g),
            "hand-built consistent selection must be acyclic"
        );
    }

    #[test]
    fn reduction_agrees_with_dpll_on_pseudorandom_formulas() {
        let mut seed = 0xabcdef12345u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut sat_seen = 0;
        let mut unsat_seen = 0;
        for _ in 0..60 {
            let num_vars = 1 + (next() % 3) as usize;
            let num_clauses = 1 + (next() % 4) as usize;
            let mut f = CnfFormula::new(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                f.add_clause(
                    (0..len)
                        .map(|_| Literal {
                            var: (next() % num_vars as u64) as usize,
                            positive: next() % 2 == 0,
                        })
                        .collect(),
                );
            }
            let sat = f.satisfiable_dpll().is_some();
            let sp = sat_to_polygraph(&f);
            let acyclic = solve_polygraph(&sp.polygraph).is_some();
            assert_eq!(sat, acyclic, "disagreement on {f}");
            if sat {
                sat_seen += 1;
            } else {
                unsat_seen += 1;
            }
        }
        assert!(sat_seen > 0 && unsat_seen > 0);
    }

    #[test]
    fn backtracking_and_brute_force_agree_on_reduction_outputs() {
        // The reduction outputs are the polygraphs the benches exercise;
        // make sure the two solvers agree on them (choice counts are small
        // enough for brute force here).
        let f = formula(2, &[&[1, 2], &[-1, -2], &[1, -2]]);
        let sp = sat_to_polygraph(&f);
        assert_eq!(
            brute_force_acyclic(&sp.polygraph).is_some(),
            solve_polygraph(&sp.polygraph).is_some()
        );
    }

    #[test]
    fn normalized_reduction_satisfies_theorem4_assumption_a() {
        let f = formula(2, &[&[1, -2]]);
        let sp = sat_to_polygraph(&f);
        assert!(
            !sp.polygraph.every_arc_has_choice(),
            "consistency arcs have no choices"
        );
        let normalized = sp.polygraph.normalized();
        assert!(normalized.satisfies_theorem4_assumptions());
        // Normalisation preserves acyclicity.
        assert_eq!(
            solve_polygraph(&normalized).is_some(),
            solve_polygraph(&sp.polygraph).is_some()
        );
    }
}
