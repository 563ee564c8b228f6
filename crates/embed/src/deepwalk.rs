//! DeepWalk (Perozzi et al. \[87\]): uniform random walks + SGNS — node2vec
//! with `p = q = 1`.

use crate::node2vec::{Node2Vec, Node2VecConfig};
use x2v_core::NodeEmbedding;
use x2v_graph::Graph;

/// DeepWalk as a [`NodeEmbedding`].
pub struct DeepWalk {
    inner: Node2Vec,
}

impl DeepWalk {
    /// With default hyperparameters (`p = q = 1`).
    pub fn new() -> Self {
        Self::with_config(Node2VecConfig::default())
    }

    /// With custom walk/SGNS settings; `p`, `q` are forced to 1.
    pub fn with_config(mut config: Node2VecConfig) -> Self {
        config.walks.p = 1.0;
        config.walks.q = 1.0;
        DeepWalk {
            inner: Node2Vec::new(config),
        }
    }
}

impl DeepWalk {
    /// Trains and returns the full model, checkpointing under the
    /// `"deepwalk"` job when an ambient [`x2v_ckpt::Store`] is installed
    /// (see [`crate::word2vec::Word2Vec::train_job`]).
    pub fn train(&self, g: &Graph) -> crate::word2vec::Word2Vec {
        self.inner.train_job(g, "deepwalk")
    }
}

impl Default for DeepWalk {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeEmbedding for DeepWalk {
    fn embed_nodes(&self, g: &Graph) -> Vec<Vec<f64>> {
        self.inner.embed_nodes(g)
    }

    fn dimension(&self) -> usize {
        self.inner.dimension()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::karate_club;
    use x2v_linalg::vector::cosine;

    #[test]
    fn karate_factions_are_detectable() {
        // The classic sanity check: DeepWalk embeddings of the karate club
        // should place same-faction nodes closer on average.
        let g = karate_club();
        let mut cfg = Node2VecConfig::default();
        cfg.sgns.dim = 16;
        cfg.sgns.epochs = 3;
        cfg.walks.walks_per_node = 8;
        cfg.walks.walk_length = 20;
        cfg.walks.seed = 21;
        let vecs = DeepWalk::with_config(cfg).embed_nodes(&g);
        let mut intra = 0.0;
        let mut inter = 0.0;
        let (mut ni, mut nx) = (0, 0);
        for a in 0..g.order() {
            for b in (a + 1)..g.order() {
                let s = cosine(&vecs[a], &vecs[b]);
                if g.label(a) == g.label(b) {
                    intra += s;
                    ni += 1;
                } else {
                    inter += s;
                    nx += 1;
                }
            }
        }
        assert!(
            intra / ni as f64 > inter / nx as f64,
            "faction structure must show in the embedding"
        );
    }
}
