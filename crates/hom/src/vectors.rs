//! Homomorphism-vector graph embeddings and the hom kernel (Section 4).
//!
//! `Hom_F(G) = (hom(F, G) | F ∈ F)` for a finite class `F`, its log-scaled
//! practical form `(1/|F|) · log hom(F, G)`, and the kernel of eq. (4.1)
//! restricted to the finite class:
//!
//! `K_F(G, H) = Σ_k (1/|F_k|) Σ_{F ∈ F_k} k^{-k} hom(F,G) · hom(F,H)`.

use crate::decomp::{hom_count_decomp, try_hom_count_with_decomposition, SITE};
use crate::treewidth::{exact_decomposition, TreeDecomposition};
use crate::{trees, walks};
use x2v_graph::dist::is_connected;
use x2v_graph::enumerate::trees_and_cycles_basis;
use x2v_graph::ops::induced_subgraph;
use x2v_graph::Graph;
use x2v_guard::Budget;

/// How [`HomBasis`] counts one pattern, chosen once from its shape.
#[derive(Debug)]
enum Plan {
    /// A tree (connected, `|E| = |V| − 1`, any labels): the tree DP.
    Tree,
    /// A cycle `C_k` whose vertices all carry one label: entry `k − 3` of
    /// closed-walk sweep `sweep`.
    Cycle { sweep: usize, k: usize },
    /// Any other pattern: the nice-decomposition DP over its stored
    /// decomposition.
    Decomp(TreeDecomposition),
}

/// A finite basis class `F`, each pattern with a counting plan chosen
/// once from its shape, so embedding many graphs pays only for the counts.
///
/// * Trees go through the tree DP, `O(|T| · (n + m))`
///   ([`trees::hom_count_tree`]).
/// * Cycles whose vertices all carry label `ℓ` are read off one
///   closed-walk sweep per target and label: `hom(C_k, G) = trace(A^k)`
///   over the induced subgraph `G[V_ℓ]` (over `G` itself when every
///   vertex of `G` carries `ℓ`), so all cycles of one label share it
///   ([`walks::cycle_profile`]).
/// * Every other pattern keeps a tree decomposition, computed here, and
///   the nice-decomposition DP, `O(n^{tw+1})` ([`crate::decomp`]).
///
/// All three are exact `u128`, so the plan never changes a count.
pub struct HomBasis {
    patterns: Vec<Graph>,
    plans: Vec<Plan>,
    /// One closed-walk sweep per distinct cycle label: `(label, longest
    /// cycle of that label)`.
    sweeps: Vec<(u32, usize)>,
}

impl HomBasis {
    /// Builds a basis from explicit patterns.
    pub fn new(patterns: Vec<Graph>) -> Self {
        let mut sweeps: Vec<(u32, usize)> = Vec::new();
        let plans = patterns
            .iter()
            .map(|f| {
                let n = f.order();
                if n == 0 || !is_connected(f) {
                    return Plan::Decomp(exact_decomposition(f));
                }
                if f.size() == n - 1 {
                    return Plan::Tree;
                }
                // Connected and 2-regular: the cycle C_n (n ≥ 3).
                let label = f.label(0);
                if (0..n).all(|v| f.degree(v) == 2 && f.label(v) == label) {
                    let sweep = match sweeps.iter().position(|&(l, _)| l == label) {
                        Some(s) => {
                            sweeps[s].1 = sweeps[s].1.max(n);
                            s
                        }
                        None => {
                            sweeps.push((label, n));
                            sweeps.len() - 1
                        }
                    };
                    return Plan::Cycle { sweep, k: n };
                }
                Plan::Decomp(exact_decomposition(f))
            })
            .collect();
        HomBasis {
            patterns,
            plans,
            sweeps,
        }
    }

    /// The paper's experimental class: `count` graphs alternating binary
    /// trees and cycles (Section 4 reports strong downstream accuracy with
    /// `count = 20`).
    pub fn trees_and_cycles(count: usize) -> Self {
        Self::new(trees_and_cycles_basis(count))
    }

    /// The basis patterns.
    pub fn patterns(&self) -> &[Graph] {
        &self.patterns
    }

    /// Dimension of the embedding.
    pub fn dimension(&self) -> usize {
        self.patterns.len()
    }

    /// The exact homomorphism vector `Hom_F(G)`.
    ///
    /// Every plan meters the ambient [`x2v_guard::Budget`] at
    /// [`crate::decomp::SITE`], so a work limit, a cancel token or an
    /// armed fault there reaches every entry; a trip or a `u128` overflow
    /// panics with its message. The cycle sweeps run first, serially, on
    /// one meter. The tree and decomposition patterns then fan out over
    /// the parallel runtime, one chunk and one meter per pattern (costs
    /// vary wildly with the plan and the treewidth, so work-stealing
    /// across single-pattern chunks is the right granularity). Work limits
    /// apply per meter, so they trip identically at every thread count,
    /// and a cooperative cancel is observed by every in-flight meter.
    pub fn hom_vector(&self, g: &Graph) -> Vec<u128> {
        let budget = x2v_guard::ambient();
        let profiles = self.cycle_profiles(g, &budget);
        x2v_par::map_items(self.patterns.len(), 1, |i| {
            let f = &self.patterns[i];
            let count = match &self.plans[i] {
                Plan::Tree => {
                    let mut meter = budget.meter(SITE);
                    trees::try_hom_count_tree(f, g, |units| meter.tick(units))
                }
                Plan::Cycle { sweep, k } => Ok(profiles[*sweep][k - 3]),
                Plan::Decomp(td) => try_hom_count_with_decomposition(f, g, td, &budget),
            };
            count.unwrap_or_else(|e| panic!("{e}"))
        })
    }

    /// The closed-walk profile `hom(C_3..C_kmax, G[V_ℓ])` of every sweep
    /// `(ℓ, kmax)`, all on one meter.
    fn cycle_profiles(&self, g: &Graph, budget: &Budget) -> Vec<Vec<u128>> {
        // No sweep, no meter: an unused meter would still use up the
        // `at`-th slot of a fault armed at the site.
        if self.sweeps.is_empty() {
            return Vec::new();
        }
        let mut meter = budget.meter(SITE);
        self.sweeps
            .iter()
            .map(|&(label, kmax)| {
                let tick = |units| meter.tick(units);
                if g.labels().iter().all(|&l| l == label) {
                    walks::try_cycle_profile(g, kmax, tick)
                } else {
                    let nodes: Vec<usize> =
                        (0..g.order()).filter(|&v| g.label(v) == label).collect();
                    walks::try_cycle_profile(&induced_subgraph(g, &nodes), kmax, tick)
                }
            })
            .collect::<x2v_guard::Result<_>>()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The log-scaled embedding `(1/|F|) · log(1 + hom(F, G))` the paper
    /// proposes for practice (counts get "tremendously large").
    pub fn embed_log(&self, g: &Graph) -> Vec<f64> {
        self.hom_vector(g)
            .iter()
            .zip(&self.patterns)
            .map(|(&c, f)| (1.0 + c as f64).ln() / f.order() as f64)
            .collect()
    }

    /// Embeds a whole dataset, fanning out one chunk per graph (the
    /// per-graph [`HomBasis::hom_vector`] calls nest and run inline on the
    /// worker).
    pub fn embed_dataset(&self, graphs: &[Graph]) -> Vec<Vec<f64>> {
        x2v_par::map_items(graphs.len(), 1, |i| self.embed_log(&graphs[i]))
    }

    /// The kernel of eq. (4.1) over the finite basis:
    /// `Σ_k (1/|F_k|) Σ_{F∈F_k} k^{-k} hom(F,G) hom(F,H)` where `F_k` is the
    /// set of basis patterns of order k. Counts are taken in log-free `f64`;
    /// the `k^{-k}` damping keeps magnitudes tame.
    pub fn kernel(&self, g: &Graph, h: &Graph) -> f64 {
        let hg = self.hom_vector(g);
        let hh = self.hom_vector(h);
        // Group by pattern order.
        let max_k = self.patterns.iter().map(Graph::order).max().unwrap_or(0);
        let mut class_size = vec![0usize; max_k + 1];
        for f in &self.patterns {
            class_size[f.order()] += 1;
        }
        let mut total = 0.0;
        for ((f, &a), &b) in self.patterns.iter().zip(&hg).zip(&hh) {
            let k = f.order();
            let damping = (k as f64).powi(-(k as i32));
            total += damping / class_size[k] as f64 * (a as f64) * (b as f64);
        }
        total
    }
}

/// Direct one-shot hom vector over an ad-hoc class (no caching).
pub fn hom_vector_over(class: &[Graph], g: &Graph) -> Vec<u128> {
    class.iter().map(|f| hom_count_decomp(f, g)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{cycle, grid, path, petersen};
    use x2v_graph::ops::{disjoint_union, permute};

    #[test]
    fn basis_20_shape() {
        let b = HomBasis::trees_and_cycles(20);
        assert_eq!(b.dimension(), 20);
    }

    #[test]
    fn plans_follow_pattern_shape() {
        let b = HomBasis::trees_and_cycles(20);
        let trees = b.plans.iter().filter(|p| matches!(p, Plan::Tree)).count();
        assert_eq!(trees, 10);
        assert_eq!(b.sweeps, vec![(0, 12)], "C3..C12 share one label-0 sweep");

        let b = HomBasis::new(vec![
            path(3).with_labels(vec![1, 0, 1]).unwrap(),
            cycle(4).with_labels(vec![1; 4]).unwrap(),
            cycle(5),
            cycle(4).with_labels(vec![0, 1, 0, 1]).unwrap(),
            grid(2, 3),
            disjoint_union(&path(2), &path(2)),
        ]);
        assert!(matches!(b.plans[0], Plan::Tree));
        assert!(matches!(b.plans[1], Plan::Cycle { sweep: 0, k: 4 }));
        assert!(matches!(b.plans[2], Plan::Cycle { sweep: 1, k: 5 }));
        for plan in &b.plans[3..] {
            assert!(
                matches!(plan, Plan::Decomp(td) if td.width <= 2),
                "{plan:?}"
            );
        }
    }

    #[test]
    fn embeddings_isomorphism_invariant() {
        let b = HomBasis::trees_and_cycles(12);
        let g = petersen();
        let h = permute(&g, &[4, 2, 8, 0, 6, 1, 9, 3, 7, 5]);
        assert_eq!(b.hom_vector(&g), b.hom_vector(&h));
        assert_eq!(b.embed_log(&g), b.embed_log(&h));
    }

    #[test]
    fn embedding_separates_structures() {
        let b = HomBasis::trees_and_cycles(12);
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        // C3 is in the basis → vectors differ.
        assert_ne!(b.hom_vector(&c6), b.hom_vector(&tt));
    }

    #[test]
    fn kernel_symmetry_and_cauchy_schwarz() {
        let b = HomBasis::trees_and_cycles(10);
        let graphs = [cycle(5), path(5), petersen()];
        for g in &graphs {
            for h in &graphs {
                let kgh = b.kernel(g, h);
                let khg = b.kernel(h, g);
                assert!((kgh - khg).abs() < 1e-9, "symmetry");
                let kg = b.kernel(g, g);
                let kh = b.kernel(h, h);
                assert!(kgh * kgh <= kg * kh * (1.0 + 1e-9), "Cauchy–Schwarz");
            }
        }
    }

    #[test]
    fn hom_vector_over_matches_basis() {
        let patterns = vec![path(2), cycle(3)];
        let b = HomBasis::new(patterns.clone());
        let g = petersen();
        assert_eq!(b.hom_vector(&g), hom_vector_over(&patterns, &g));
    }

    #[test]
    fn log_embedding_finite_on_zero_counts() {
        let b = HomBasis::new(vec![cycle(3)]);
        // Bipartite graph: hom(C3) = 0 → log(1+0) = 0, not −∞.
        let e = b.embed_log(&cycle(6));
        assert_eq!(e, vec![0.0]);
    }
}
