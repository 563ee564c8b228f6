//! The Weisfeiler-Leman subtree kernel (Section 3.5, [94]).

use x2v_core::GraphKernel;
use x2v_graph::Graph;
use x2v_wl::features::{dataset_sparse_features, SparseWlFeatures};
use x2v_wl::Refiner;

/// The t-round WL subtree kernel
/// `K^{(t)}_WL(G, H) = Σ_{i≤t} Σ_c wl(c,G) · wl(c,H)`.
///
/// The paper reports `t = 5` as the sweet spot in practice; that is the
/// default. The kernel is stateless (and therefore `Sync`, so Gram rows
/// can be evaluated from parallel workers): each evaluation refines
/// through a fresh interner. Kernel *values* don't depend on interner
/// identity — a feature dot product compares signature multisets, which
/// are intrinsic to the graphs — so this is value-identical to sharing
/// one interner across evaluations, just without the shared mutable state.
pub struct WlSubtreeKernel {
    rounds: usize,
    discounted: bool,
}

impl WlSubtreeKernel {
    /// The t-round kernel.
    pub fn new(rounds: usize) -> Self {
        WlSubtreeKernel {
            rounds,
            discounted: false,
        }
    }

    /// The paper's practical default: 5 rounds.
    pub fn default_rounds() -> Self {
        Self::new(5)
    }

    /// The discounted `K_WL` with weight `2^{-i}` per round, truncated at
    /// `rounds` (the infinite series' tail vanishes geometrically).
    pub fn discounted(rounds: usize) -> Self {
        WlSubtreeKernel {
            rounds,
            discounted: true,
        }
    }

    /// Number of refinement rounds `t`.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Whether rounds are weighted by `2^{-i}` (the discounted variant).
    pub fn is_discounted(&self) -> bool {
        self.discounted
    }

    fn dot(&self, a: &SparseWlFeatures, b: &SparseWlFeatures) -> f64 {
        if self.discounted {
            a.discounted_dot(b)
        } else {
            a.dot(b)
        }
    }
}

impl GraphKernel for WlSubtreeKernel {
    /// The pairwise reference: refines both graphs through a fresh
    /// interner and dots their histograms.
    fn eval(&self, g: &Graph, h: &Graph) -> f64 {
        let mut r = Refiner::new();
        let fg = SparseWlFeatures::compute(&mut r, g, self.rounds);
        let fh = SparseWlFeatures::compute(&mut r, h, self.rounds);
        self.dot(&fg, &fh)
    }

    /// Refines every graph once through one shared interner; each entry is
    /// then a sparse merge-join dot. Bit-identical to [`Self::eval`]: each
    /// per-round sum of count products is an integer below `2^53`, exact in
    /// `f64` in any order, and both combine rounds in ascending order.
    fn entries<'a>(
        &'a self,
        graphs: &'a [Graph],
    ) -> Box<dyn Fn(usize, usize) -> f64 + Send + Sync + 'a> {
        let feats = dataset_sparse_features(graphs, self.rounds);
        Box::new(move |i, j| self.dot(&feats[i], &feats[j]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::is_psd;
    use x2v_graph::generators::{cycle, path, star};
    use x2v_graph::ops::{disjoint_union, permute};

    #[test]
    fn gram_matches_pairwise_eval() {
        let graphs = vec![cycle(5), path(5), star(4)];
        for k in [WlSubtreeKernel::new(3), WlSubtreeKernel::discounted(4)] {
            let gram = k.gram(&graphs);
            for i in 0..3 {
                for j in 0..3 {
                    assert_eq!(
                        gram[(i, j)].to_bits(),
                        k.eval(&graphs[i], &graphs[j]).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_is_psd() {
        let graphs = vec![cycle(4), cycle(5), path(4), star(3), petersen()];
        let k = WlSubtreeKernel::default_rounds();
        assert!(is_psd(&k.gram(&graphs), 1e-8));
        let kd = WlSubtreeKernel::discounted(5);
        assert!(is_psd(&kd.gram(&graphs), 1e-8));
    }

    fn petersen() -> Graph {
        x2v_graph::generators::petersen()
    }

    #[test]
    fn isomorphism_invariance() {
        let k = WlSubtreeKernel::new(4);
        let g = petersen();
        let h = permute(&g, &[2, 4, 6, 8, 0, 1, 3, 5, 7, 9]);
        assert!((k.eval(&g, &g) - k.eval(&g, &h)).abs() < 1e-9);
    }

    #[test]
    fn wl_equivalent_graphs_maximal_kernel() {
        let k = WlSubtreeKernel::new(4);
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        // Equal feature vectors → K(G,H) = K(G,G) = K(H,H).
        let a = k.eval(&c6, &tt);
        let b = k.eval(&c6, &c6);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn kernel_is_sync_for_parallel_gram_rows() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<WlSubtreeKernel>();
    }
}
