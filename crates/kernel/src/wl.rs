//! The Weisfeiler-Leman subtree kernel (Section 3.5, \[94\]).

use x2v_core::{GraphKernel, RowEvaluator};
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

    /// Round `r`'s weight: `2^{-r}` when discounted, else 1.
    fn weight(&self, r: usize) -> f64 {
        if self.discounted {
            0.5f64.powi(r as i32)
        } else {
            1.0
        }
    }
}

/// A dataset's WL features and their transpose: for every colour, the
/// graphs that have it and how often, as CSR over colour ids.
///
/// A colour id determines its refinement round (see
/// [`SparseWlFeatures`]), so one table over all colours serves every round.
struct ColourPostings {
    feats: Vec<SparseWlFeatures>,
    /// `starts[c]..starts[c + 1]` delimits colour `c`'s postings.
    starts: Vec<usize>,
    /// `(graph, count)` pairs, ascending in `graph` within each colour.
    postings: Vec<(usize, u64)>,
}

impl ColourPostings {
    fn new(feats: Vec<SparseWlFeatures>) -> Self {
        let colours = feats
            .iter()
            .flat_map(|f| (0..f.num_rounds()).filter_map(|r| f.round(r).0.last()))
            .max()
            .map_or(0, |&c| c as usize + 1);
        let mut starts = vec![0usize; colours + 1];
        for f in &feats {
            for r in 0..f.num_rounds() {
                for &c in f.round(r).0 {
                    starts[c as usize + 1] += 1;
                }
            }
        }
        for c in 0..colours {
            starts[c + 1] += starts[c];
        }
        let mut cursor = starts.clone();
        let mut postings = vec![(0, 0); starts[colours]];
        for (g, f) in feats.iter().enumerate() {
            for r in 0..f.num_rounds() {
                let (keys, counts) = f.round(r);
                for (&c, &x) in keys.iter().zip(counts) {
                    postings[cursor[c as usize]] = (g, x);
                    cursor[c as usize] += 1;
                }
            }
        }
        ColourPostings {
            feats,
            starts,
            postings,
        }
    }

    /// `out[k] = Σ_r weight(r) · Σ_c wl(c, G_i) · wl(c, G_{i+k})`: each
    /// round's sum is accumulated in `u64` by scattering graph `i`'s count
    /// products over the postings of its colours, then converted once and
    /// added in ascending round order — the bits of the merge-join dot.
    fn fill_row(&self, i: usize, out: &mut [f64], weight: impl Fn(usize) -> f64) {
        let f = &self.feats[i];
        let mut acc = vec![0u64; out.len()];
        out.fill(0.0);
        for r in 0..f.num_rounds() {
            let (keys, counts) = f.round(r);
            for (&c, &x) in keys.iter().zip(counts) {
                let postings = &self.postings[self.starts[c as usize]..self.starts[c as usize + 1]];
                let from = postings.partition_point(|&(g, _)| g < i);
                for &(g, y) in &postings[from..] {
                    acc[g - i] += x * y;
                }
            }
            let w = weight(r);
            for (o, a) in out.iter_mut().zip(&mut acc) {
                *o += w * *a as f64;
                *a = 0;
            }
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
        fg.weighted_dot(&fh, |r| self.weight(r))
    }

    /// Refines every graph once through one shared interner and transposes
    /// the features into colour postings; row `i` is then one scatter of
    /// graph `i`'s colour counts over the postings, per round.
    /// Bit-identical to [`Self::eval`]: each per-round sum of count
    /// products is an integer below `2^53`, exact in `u64` and in `f64` in
    /// any order, and both combine rounds in ascending order.
    fn rows<'a>(&'a self, graphs: &'a [Graph]) -> RowEvaluator<'a> {
        let postings = ColourPostings::new(dataset_sparse_features(graphs, self.rounds));
        Box::new(move |i, out| postings.fill_row(i, out, |r| self.weight(r)))
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
