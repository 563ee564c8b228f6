//! Homomorphism-vector embeddings under the X2vec traits (Section 4).

use crate::traits::{GraphEmbedding, NodeEmbedding};
use x2v_graph::Graph;
use x2v_hom::rooted::RootedBasis;
use x2v_hom::vectors::HomBasis;

/// The log-scaled homomorphism-vector graph embedding
/// `G ↦ ((1/|F|)·log(1 + hom(F, G)) | F ∈ F)` over a finite basis — the
/// paper's practically-recommended form of `Hom_F` (Section 4), reported to
/// classify well already with a 20-element trees-and-cycles basis.
pub struct HomVectorEmbedding {
    basis: HomBasis,
}

impl HomVectorEmbedding {
    /// The paper's default: `count` alternating binary trees and cycles.
    pub fn trees_and_cycles(count: usize) -> Self {
        HomVectorEmbedding {
            basis: HomBasis::trees_and_cycles(count),
        }
    }

    /// The underlying basis.
    pub fn basis(&self) -> &HomBasis {
        &self.basis
    }
}

impl GraphEmbedding for HomVectorEmbedding {
    fn embed(&self, g: &Graph) -> Vec<f64> {
        self.basis.embed_log(g)
    }

    fn dimension(&self) -> usize {
        self.basis.dimension()
    }
}

/// The rooted-tree homomorphism node embedding of Section 4.4 — inductive,
/// purely structural, and by Theorem 4.14 exactly as expressive as the
/// stable 1-WL colouring when the basis is unbounded.
pub struct RootedHomNodeEmbedding {
    basis: RootedBasis,
}

impl RootedHomNodeEmbedding {
    /// All rooted trees with at most `max_order` nodes.
    pub fn rooted_trees(max_order: usize) -> Self {
        RootedHomNodeEmbedding {
            basis: RootedBasis::all_rooted_trees(max_order),
        }
    }
}

impl NodeEmbedding for RootedHomNodeEmbedding {
    fn embed_nodes(&self, g: &Graph) -> Vec<Vec<f64>> {
        self.basis.embed_log(g)
    }

    fn dimension(&self) -> usize {
        self.basis.dimension()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{cycle, path, petersen};
    use x2v_graph::ops::permute;

    #[test]
    fn graph_embedding_invariance_and_dimension() {
        let e = HomVectorEmbedding::trees_and_cycles(20);
        assert_eq!(e.dimension(), 20);
        let g = petersen();
        let h = permute(&g, &[1, 0, 3, 2, 5, 4, 7, 6, 9, 8]);
        assert_eq!(e.embed(&g), e.embed(&h));
        assert_eq!(e.induced_distance(&g, &h), 0.0);
    }

    #[test]
    fn distance_separates_structure() {
        let e = HomVectorEmbedding::trees_and_cycles(16);
        let d_close = e.induced_distance(&cycle(6), &cycle(7));
        let d_far = e.induced_distance(&cycle(6), &path(7));
        assert!(d_far > 0.0 && d_close > 0.0);
    }

    #[test]
    fn node_embedding_distinguishes_wl_classes() {
        let e = RootedHomNodeEmbedding::rooted_trees(4);
        let p = path(5);
        let vecs = e.embed_nodes(&p);
        assert_eq!(vecs.len(), 5);
        assert_eq!(vecs[0].len(), e.dimension());
        assert_eq!(vecs[0], vecs[4]);
        assert_ne!(vecs[0], vecs[2]);
    }
}
