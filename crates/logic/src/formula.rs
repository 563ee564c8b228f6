//! Formulas of the counting logic `C` over labelled graphs.

use x2v_graph::Graph;

/// A variable, identified by its index. The fragment `C^k` uses variables
/// `0..k` only (variables may be re-quantified — that is the point of the
/// finite-variable fragments).
pub type Var = usize;

/// A formula of the counting logic `C`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Formula {
    /// Adjacency atom `E(x, y)`.
    Edge(Var, Var),
    /// Equality atom `x = y`.
    Eq(Var, Var),
    /// Label atom `L_a(x)`: node `x` carries label `a`.
    Label(Var, u32),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Counting quantifier `∃^{≥p} x φ` ("at least p witnesses").
    CountExists {
        /// Quantified variable.
        var: Var,
        /// Threshold `p ≥ 1`.
        at_least: usize,
        /// Body.
        body: Box<Formula>,
    },
}

impl Formula {
    /// Plain existential `∃x φ` = `∃^{≥1} x φ`.
    pub fn exists(var: Var, body: Formula) -> Formula {
        Formula::CountExists {
            var,
            at_least: 1,
            body: Box::new(body),
        }
    }

    /// Conjunction helper.
    pub fn and(self, rhs: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction helper.
    pub fn or(self, rhs: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(rhs))
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)] // builder-style name matches and/or
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// The number of distinct variables occurring (free or bound) — the `k`
    /// of the fragment `C^k` this formula lives in is
    /// `max_variable() + 1`.
    pub fn num_variables(&self) -> usize {
        self.max_var().map_or(0, |v| v + 1)
    }

    fn max_var(&self) -> Option<Var> {
        match self {
            Formula::Edge(x, y) | Formula::Eq(x, y) => Some(*x.max(y)),
            Formula::Label(x, _) => Some(*x),
            Formula::Not(f) => f.max_var(),
            Formula::And(a, b) | Formula::Or(a, b) => match (a.max_var(), b.max_var()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            },
            Formula::CountExists { var, body, .. } => {
                Some(body.max_var().map_or(*var, |m| m.max(*var)))
            }
        }
    }

    /// Quantifier rank (maximum nesting depth of quantifiers) — the `k` of
    /// the fragment `C_k` (Theorem 4.10).
    pub fn quantifier_rank(&self) -> usize {
        match self {
            Formula::Edge(..) | Formula::Eq(..) | Formula::Label(..) => 0,
            Formula::Not(f) => f.quantifier_rank(),
            Formula::And(a, b) | Formula::Or(a, b) => a.quantifier_rank().max(b.quantifier_rank()),
            Formula::CountExists { body, .. } => 1 + body.quantifier_rank(),
        }
    }

    /// Free variables (variables used before being quantified).
    pub fn free_variables(&self) -> Vec<Var> {
        let mut free = Vec::new();
        self.collect_free(&mut Vec::new(), &mut free);
        free.sort_unstable();
        free.dedup();
        free
    }

    fn collect_free(&self, bound: &mut Vec<Var>, free: &mut Vec<Var>) {
        match self {
            Formula::Edge(x, y) | Formula::Eq(x, y) => {
                for v in [x, y] {
                    if !bound.contains(v) {
                        free.push(*v);
                    }
                }
            }
            Formula::Label(x, _) => {
                if !bound.contains(x) {
                    free.push(*x);
                }
            }
            Formula::Not(f) => f.collect_free(bound, free),
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.collect_free(bound, free);
                b.collect_free(bound, free);
            }
            Formula::CountExists { var, body, .. } => {
                let already = bound.contains(var);
                if !already {
                    bound.push(*var);
                }
                body.collect_free(bound, free);
                if !already {
                    bound.retain(|v| v != var);
                }
            }
        }
    }

    /// Whether this is a sentence (no free variables).
    pub fn is_sentence(&self) -> bool {
        self.free_variables().is_empty()
    }

    /// Evaluates the formula on `g` under `assignment` (slot `i` holds the
    /// node assigned to variable `i`; unassigned slots may hold anything if
    /// the variable does not occur free).
    pub fn eval(&self, g: &Graph, assignment: &mut Vec<usize>) -> bool {
        match self {
            Formula::Edge(x, y) => g.has_edge(assignment[*x], assignment[*y]),
            Formula::Eq(x, y) => assignment[*x] == assignment[*y],
            Formula::Label(x, a) => g.label(assignment[*x]) == *a,
            Formula::Not(f) => !f.eval(g, assignment),
            Formula::And(a, b) => a.eval(g, assignment) && b.eval(g, assignment),
            Formula::Or(a, b) => a.eval(g, assignment) || b.eval(g, assignment),
            Formula::CountExists {
                var,
                at_least,
                body,
            } => {
                let saved = assignment[*var];
                let mut witnesses = 0usize;
                for v in 0..g.order() {
                    assignment[*var] = v;
                    if body.eval(g, assignment) {
                        witnesses += 1;
                        if witnesses >= *at_least {
                            break;
                        }
                    }
                }
                assignment[*var] = saved;
                witnesses >= *at_least
            }
        }
    }

    /// Evaluates a sentence on `g`.
    ///
    /// # Panics
    /// If the formula has free variables.
    pub fn eval_sentence(&self, g: &Graph) -> bool {
        assert!(self.is_sentence(), "formula has free variables");
        let slots = self.num_variables().max(1);
        self.eval(g, &mut vec![0; slots])
    }

    /// Evaluates a formula with one free variable at node `v`.
    ///
    /// # Panics
    /// If the free variables are not exactly `{x}` for a single `x`.
    pub fn eval_at(&self, g: &Graph, v: usize) -> bool {
        let free = self.free_variables();
        assert_eq!(free.len(), 1, "expected exactly one free variable");
        let slots = self.num_variables().max(free[0] + 1);
        let mut assignment = vec![0; slots];
        assignment[free[0]] = v;
        self.eval(g, &mut assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{cycle, path, star};

    /// "There exist at least p nodes of degree ≥ d" in C².
    fn at_least_p_of_degree(p: usize, d: usize) -> Formula {
        Formula::CountExists {
            var: 0,
            at_least: p,
            body: Box::new(Formula::CountExists {
                var: 1,
                at_least: d,
                body: Box::new(Formula::Edge(0, 1)),
            }),
        }
    }

    #[test]
    fn degree_sentences() {
        // Star S3: exactly one node of degree ≥ 3.
        let s = star(3);
        assert!(at_least_p_of_degree(1, 3).eval_sentence(&s));
        assert!(!at_least_p_of_degree(2, 3).eval_sentence(&s));
        assert!(at_least_p_of_degree(4, 1).eval_sentence(&s));
        // C5: five nodes of degree ≥ 2, none of degree ≥ 3.
        let c = cycle(5);
        assert!(at_least_p_of_degree(5, 2).eval_sentence(&c));
        assert!(!at_least_p_of_degree(1, 3).eval_sentence(&c));
    }

    #[test]
    fn metrics() {
        let f = at_least_p_of_degree(2, 3);
        assert_eq!(f.num_variables(), 2);
        assert_eq!(f.quantifier_rank(), 2);
        assert!(f.is_sentence());
        let open = Formula::Edge(0, 1);
        assert_eq!(open.free_variables(), vec![0, 1]);
        assert!(!open.is_sentence());
    }

    #[test]
    fn variable_reuse_stays_in_c2() {
        // "x has a neighbour that has a neighbour" with variable reuse:
        // ∃y (E(x,y) ∧ ∃x (E(y,x))) uses only variables {0, 1}.
        let f = Formula::exists(
            1,
            Formula::Edge(0, 1).and(Formula::exists(0, Formula::Edge(1, 0))),
        );
        assert_eq!(f.num_variables(), 2);
        assert_eq!(f.free_variables(), vec![0]);
        let p = path(3);
        assert!(f.eval_at(&p, 0)); // end: neighbour 1 has neighbour 2
        assert!(f.eval_at(&p, 1));
        // An isolated node fails.
        let iso = x2v_graph::ops::disjoint_union(&path(2), &path(1));
        assert!(!f.eval_at(&iso, 2));
    }

    #[test]
    fn forall_and_labels() {
        // ∀x L_1(x) = ¬∃x ¬L_1(x): all nodes labelled 1.
        let not_l1 = Formula::Not(Box::new(Formula::Label(0, 1)));
        let f = Formula::Not(Box::new(Formula::exists(0, not_l1)));
        let g = path(2).with_labels(vec![1, 1]).unwrap();
        let h = path(2).with_labels(vec![1, 0]).unwrap();
        assert!(f.eval_sentence(&g));
        assert!(!f.eval_sentence(&h));
    }

    #[test]
    fn triangle_sentence_needs_three_variables() {
        // ∃x∃y∃z (E(x,y) ∧ E(y,z) ∧ E(x,z)).
        let f = Formula::exists(
            0,
            Formula::exists(
                1,
                Formula::exists(
                    2,
                    Formula::Edge(0, 1)
                        .and(Formula::Edge(1, 2))
                        .and(Formula::Edge(0, 2)),
                ),
            ),
        );
        assert_eq!(f.num_variables(), 3);
        assert!(f.eval_sentence(&cycle(3)));
        assert!(!f.eval_sentence(&cycle(6)));
        assert!(f.eval_sentence(&x2v_graph::generators::complete(4)));
    }

    #[test]
    fn quantifier_restores_assignment() {
        // Evaluating ∃y E(x,y) must not clobber the binding of x.
        let f = Formula::exists(1, Formula::Edge(0, 1)).and(Formula::Label(0, 0));
        let g = path(2);
        assert!(f.eval_at(&g, 0));
    }
}
