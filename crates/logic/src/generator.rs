//! Seeded random generation of formulas inside a prescribed fragment.
//!
//! The batteries produced here probe Theorem 3.1 (`C^{k+1}`-equivalence ⟺
//! k-WL-indistinguishability) and Corollary 4.15 (node-level `C²`)
//! empirically: WL-equivalent inputs must agree on *every* generated
//! formula; WL-distinguished inputs should be separated by *some* formula
//! in a large battery.

use crate::formula::Formula;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the random formula generator.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Number of variables allowed (`k` of `C^k`).
    pub num_variables: usize,
    /// Maximum quantifier rank.
    pub max_rank: usize,
    /// Maximum counting threshold `p` of `∃^{≥p}`.
    pub max_count: usize,
    /// Labels that may appear in label atoms (empty → no label atoms).
    pub labels: Vec<u32>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            num_variables: 2,
            max_rank: 3,
            max_count: 3,
            labels: Vec::new(),
        }
    }
}

/// Random formula generator.
pub struct FormulaGenerator {
    config: GeneratorConfig,
    rng: StdRng,
}

impl FormulaGenerator {
    /// Seeded generator for the given fragment.
    pub fn new(config: GeneratorConfig, seed: u64) -> Self {
        FormulaGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn atom(&mut self) -> Formula {
        let k = self.config.num_variables;
        let x = self.rng.random_range(0..k);
        let y = self.rng.random_range(0..k);
        let has_labels = !self.config.labels.is_empty();
        match self.rng.random_range(0..if has_labels { 3 } else { 2 }) {
            0 => Formula::Edge(x, y),
            1 => Formula::Eq(x, y),
            _ => {
                let l = self.config.labels[self.rng.random_range(0..self.config.labels.len())];
                Formula::Label(x, l)
            }
        }
    }

    fn formula(&mut self, rank_budget: usize, depth: usize) -> Formula {
        // Bias towards quantifiers while budget remains so formulas say
        // something non-trivial.
        let choice = if rank_budget > 0 {
            self.rng.random_range(0..10)
        } else {
            self.rng.random_range(4..10)
        };
        match choice {
            0..=3 => {
                let var = self.rng.random_range(0..self.config.num_variables);
                let at_least = self.rng.random_range(1..=self.config.max_count);
                Formula::CountExists {
                    var,
                    at_least,
                    body: Box::new(self.formula(rank_budget - 1, depth + 1)),
                }
            }
            4 | 5 if depth < 6 => self
                .formula(rank_budget, depth + 1)
                .and(self.formula(rank_budget.saturating_sub(1), depth + 1)),
            6 if depth < 6 => self
                .formula(rank_budget, depth + 1)
                .or(self.formula(rank_budget.saturating_sub(1), depth + 1)),
            7 if depth < 6 => self.formula(rank_budget, depth + 1).not(),
            _ => self.atom(),
        }
    }

    /// Generates a random sentence: all free variables are closed off by
    /// prefixed counting quantifiers.
    pub fn sentence(&mut self) -> Formula {
        let mut f = self.formula(self.config.max_rank, 0);
        for v in f.free_variables() {
            let at_least = self.rng.random_range(1..=self.config.max_count);
            f = Formula::CountExists {
                var: v,
                at_least,
                body: Box::new(f),
            };
        }
        f
    }

    /// Generates a formula with exactly one free variable (variable 0).
    fn node_formula(&mut self) -> Formula {
        loop {
            let mut f = self.formula(self.config.max_rank, 0);
            for v in f.free_variables() {
                if v != 0 {
                    let at_least = self.rng.random_range(1..=self.config.max_count);
                    f = Formula::CountExists {
                        var: v,
                        at_least,
                        body: Box::new(f),
                    };
                }
            }
            if f.free_variables() == vec![0] {
                return f;
            }
            // Otherwise variable 0 did not occur free; ensure it does by
            // conjoining a guard and retrying the closure.
            let guarded = f.and(Formula::exists(1, Formula::Edge(0, 1)).or(Formula::Eq(0, 0)));
            if guarded.free_variables() == vec![0] {
                return guarded;
            }
        }
    }

    /// A battery of `n` random sentences.
    pub fn sentences(&mut self, n: usize) -> Vec<Formula> {
        (0..n).map(|_| self.sentence()).collect()
    }

    /// A battery of `n` random single-free-variable formulas.
    pub fn node_formulas(&mut self, n: usize) -> Vec<Formula> {
        (0..n).map(|_| self.node_formula()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentences_respect_fragment() {
        let cfg = GeneratorConfig {
            num_variables: 2,
            max_rank: 3,
            max_count: 3,
            labels: vec![],
        };
        let mut gen = FormulaGenerator::new(cfg, 7);
        for f in gen.sentences(200) {
            assert!(f.is_sentence());
            assert!(f.num_variables() <= 2, "{f:?}");
            // Closing quantifiers can add at most num_variables to the rank.
            assert!(f.quantifier_rank() <= 3 + 2, "{f:?}");
        }
    }

    #[test]
    fn node_formulas_have_one_free_variable() {
        let cfg = GeneratorConfig::default();
        let mut gen = FormulaGenerator::new(cfg, 9);
        for f in gen.node_formulas(200) {
            assert_eq!(f.free_variables(), vec![0], "{f:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::default();
        let a = FormulaGenerator::new(cfg.clone(), 42).sentences(20);
        let b = FormulaGenerator::new(cfg, 42).sentences(20);
        assert_eq!(a, b);
    }

    #[test]
    fn batteries_are_evaluable() {
        let g = x2v_graph::generators::petersen();
        let cfg = GeneratorConfig {
            num_variables: 3,
            max_rank: 2,
            max_count: 4,
            labels: vec![0],
        };
        let mut gen = FormulaGenerator::new(cfg, 3);
        let mut trues = 0;
        for f in gen.sentences(100) {
            if f.eval_sentence(&g) {
                trues += 1;
            }
        }
        // Sanity: the battery is not constantly true or false.
        assert!(trues > 5 && trues < 95, "trues = {trues}");
    }
}
