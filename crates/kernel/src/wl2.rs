//! A 2-WL (tuple-colour) graph kernel — the "higher-dimensional WL kernel"
//! direction of [76] (Morris–Kersting–Mutzel) the paper cites in
//! Section 3.5.
//!
//! Feature map: the histogram of stable folklore-2-WL tuple colours,
//! computed through a shared interner so colours align across graphs.
//! Strictly more expressive than the 1-WL subtree kernel — in particular it
//! sees cycle structure that leaves 1-WL blind on regular graphs — at
//! `O(n³)`-per-round cost.

use x2v_core::GraphKernel;
use x2v_graph::hash::FxHashMap;
use x2v_graph::Graph;
use x2v_wl::kwl::KwlRefiner;

/// The 2-WL tuple-colour kernel.
///
/// Stateless (and `Sync`, so Gram rows can be evaluated in parallel):
/// each evaluation runs both graphs through one fresh tuple-colour
/// interner. Colour *ids* are only ever compared between histograms
/// produced by the same interner, and equal tuple structures receive
/// equal ids in any interner, so the kernel values match the former
/// shared-interner implementation bit for bit.
pub struct Wl2Kernel {
    /// Number of refinement rounds after the atomic initialisation.
    pub rounds: usize,
}

impl Wl2Kernel {
    /// Kernel with a fixed number of refinement rounds (rounds ≈ 3 suffice
    /// for small graphs; colours are compared across graphs, so a fixed
    /// round count keeps the feature space aligned).
    pub fn new(rounds: usize) -> Self {
        Wl2Kernel { rounds }
    }
}

fn hist_dot(a: &FxHashMap<u64, u64>, b: &FxHashMap<u64, u64>) -> f64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small
        .iter()
        .filter_map(|(c, &x)| large.get(c).map(|&y| x as f64 * y as f64))
        .sum()
}

impl GraphKernel for Wl2Kernel {
    fn eval(&self, g: &Graph, h: &Graph) -> f64 {
        let mut r = KwlRefiner::new(2);
        let a = r.run_rounds(g, self.rounds).histogram();
        let b = r.run_rounds(h, self.rounds).histogram();
        hist_dot(&a, &b)
    }

    /// One shared interner for the whole dataset, so each graph is
    /// refined once; entries are dots of the aligned histograms.
    fn entries<'a>(
        &'a self,
        graphs: &'a [Graph],
    ) -> Box<dyn Fn(usize, usize) -> f64 + Send + Sync + 'a> {
        let mut r = KwlRefiner::new(2);
        let hists: Vec<FxHashMap<u64, u64>> = graphs
            .iter()
            .map(|g| r.run_rounds(g, self.rounds).histogram())
            .collect();
        Box::new(move |i, j| hist_dot(&hists[i], &hists[j]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::is_psd;
    use x2v_graph::generators::{circulant, cycle, path};
    use x2v_graph::ops::{disjoint_union, permute};

    #[test]
    fn psd_and_invariant() {
        let k = Wl2Kernel::new(2);
        let graphs = vec![cycle(5), path(5), circulant(6, &[1, 2])];
        assert!(is_psd(&k.gram(&graphs), 1e-6));
        let g = cycle(6);
        let p = permute(&g, &[5, 3, 1, 0, 2, 4]);
        assert!((k.eval(&g, &g) - k.eval(&g, &p)).abs() < 1e-9);
    }

    #[test]
    fn separates_what_1wl_cannot() {
        // C6 vs 2×C3: identical 1-WL features, different 2-WL histograms.
        let k = Wl2Kernel::new(2);
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        let self_k = k.eval(&c6, &c6);
        let cross = k.eval(&c6, &tt);
        assert_ne!(self_k, cross, "2-WL features must differ");
    }

    #[test]
    fn gram_matches_eval() {
        let k = Wl2Kernel::new(2);
        let graphs = vec![cycle(4), path(4), cycle(5)];
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
