//! Weisfeiler-Leman subtree embeddings under the X2vec traits
//! (Section 3.5).
//!
//! The WL feature map is infinite-dimensional in principle (one coordinate
//! per colour), but a dataset touches finitely many colours. `fit` runs the
//! refinement over a reference dataset to fix a dense coordinate system;
//! `embed` then projects any graph onto those coordinates (colours unseen
//! during fitting contribute nothing, mirroring how a fixed feature space
//! treats out-of-vocabulary structure).

use crate::traits::GraphEmbedding;
use x2v_graph::Graph;
use x2v_wl::features::SparseWlFeatures;
use x2v_wl::{Colour, Refiner};

/// A densified WL subtree embedding with a fixed colour vocabulary.
pub struct WlSubtreeEmbedding {
    refiner: std::sync::Mutex<Refiner>,
    rounds: usize,
    /// Dense index per (round, colour).
    index: x2v_graph::hash::FxHashMap<(usize, Colour), usize>,
}

impl WlSubtreeEmbedding {
    /// Fits the colour vocabulary on a dataset with `rounds` refinement
    /// rounds and uniform round weights (the t-round WL subtree kernel).
    pub fn fit(graphs: &[Graph], rounds: usize) -> Self {
        let mut refiner = Refiner::new();
        let mut index = x2v_graph::hash::FxHashMap::default();
        for g in graphs {
            let f = SparseWlFeatures::compute(&mut refiner, g, rounds);
            for i in 0..f.num_rounds() {
                for &c in f.round(i).0 {
                    let next = index.len();
                    index.entry((i, c)).or_insert(next);
                }
            }
        }
        WlSubtreeEmbedding {
            refiner: std::sync::Mutex::new(refiner),
            rounds,
            index,
        }
    }

    /// Number of refinement rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

impl GraphEmbedding for WlSubtreeEmbedding {
    fn embed(&self, g: &Graph) -> Vec<f64> {
        let mut refiner = self.refiner.lock().expect("wl-embed refiner lock");
        let f = SparseWlFeatures::compute(&mut refiner, g, self.rounds);
        let mut out = vec![0.0; self.index.len()];
        for i in 0..f.num_rounds() {
            let (keys, counts) = f.round(i);
            for (&c, &count) in keys.iter().zip(counts) {
                if let Some(&j) = self.index.get(&(i, c)) {
                    out[j] = count as f64;
                }
            }
        }
        out
    }

    fn dimension(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{cycle, path, star};
    use x2v_graph::ops::disjoint_union;
    use x2v_linalg::vector::dot;
    use x2v_wl::features::dataset_sparse_features;

    #[test]
    fn embedding_dot_equals_wl_kernel() {
        let graphs = vec![cycle(5), path(5), star(4), cycle(6)];
        let emb = WlSubtreeEmbedding::fit(&graphs, 3);
        let feats = dataset_sparse_features(&graphs, 3);
        for i in 0..graphs.len() {
            for j in 0..graphs.len() {
                let explicit = dot(&emb.embed(&graphs[i]), &emb.embed(&graphs[j]));
                let kernel = feats[i].dot(&feats[j]);
                assert!(
                    (explicit - kernel).abs() < 1e-9,
                    "({i},{j}): {explicit} vs {kernel}"
                );
            }
        }
    }

    #[test]
    fn wl_equivalent_graphs_embed_identically() {
        let graphs = vec![cycle(6), disjoint_union(&cycle(3), &cycle(3))];
        let emb = WlSubtreeEmbedding::fit(&graphs, 4);
        assert_eq!(emb.embed(&graphs[0]), emb.embed(&graphs[1]));
    }

    #[test]
    fn unseen_colours_project_to_zero() {
        let emb = WlSubtreeEmbedding::fit(&[path(3)], 2);
        // A star has colours never seen while fitting on a path; its
        // projection must still be a vector of the fitted dimension.
        let v = emb.embed(&star(5));
        assert_eq!(v.len(), emb.dimension());
        // Round-0 colour (unlabelled node) is shared; deeper colours are not.
        assert!(v.iter().any(|&x| x != 0.0));
    }
}
