//! node2vec (Grover–Leskovec \[48\]): biased random walks + SGNS.

use crate::walks::{generate_walks, WalkConfig};
use crate::word2vec::{SgnsConfig, Word2Vec};
use x2v_core::NodeEmbedding;
use x2v_graph::Graph;

/// node2vec hyperparameters.
#[derive(Clone, Debug, Default)]
pub struct Node2VecConfig {
    /// Walk generation.
    pub walks: WalkConfig,
    /// SGNS training.
    pub sgns: SgnsConfig,
}

/// node2vec as a [`NodeEmbedding`]: transductive — each call trains on the
/// given graph's own walk corpus (the paper's taxonomy for shallow,
/// lookup-table embeddings).
pub struct Node2Vec {
    config: Node2VecConfig,
}

impl Node2Vec {
    /// With explicit hyperparameters.
    pub fn new(config: Node2VecConfig) -> Self {
        Node2Vec { config }
    }

    /// Trains and returns the full model (for access beyond the trait).
    pub fn train(&self, g: &Graph) -> Word2Vec {
        self.train_job(g, "node2vec")
    }

    /// [`train`](Self::train) under an explicit checkpoint job name: the
    /// underlying SGNS epochs checkpoint into the ambient
    /// [`x2v_ckpt::Store`] (when installed) and resume from it, see
    /// [`Word2Vec::train_job`]. Walk generation is deterministic and cheap
    /// relative to training, so it is simply re-run on resume.
    pub fn train_job(&self, g: &Graph, job: &str) -> Word2Vec {
        let corpus = generate_walks(g, &self.config.walks);
        Word2Vec::train_job(&corpus, g.order().max(1), &self.config.sgns, job)
    }
}

impl NodeEmbedding for Node2Vec {
    fn embed_nodes(&self, g: &Graph) -> Vec<Vec<f64>> {
        self.train(g).vectors()
    }

    fn dimension(&self) -> usize {
        self.config.sgns.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use x2v_graph::generators::sbm;
    use x2v_linalg::vector::cosine;

    #[test]
    fn communities_embed_closer_than_across() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = sbm(&[10, 10], 0.8, 0.05, &mut rng);
        let mut cfg = Node2VecConfig::default();
        cfg.sgns.dim = 16;
        cfg.sgns.epochs = 3;
        cfg.walks.walks_per_node = 8;
        cfg.walks.walk_length = 20;
        let vecs = Node2Vec::new(cfg).embed_nodes(&g);
        let mut intra = 0.0;
        let mut inter = 0.0;
        let mut ni = 0;
        let mut nx = 0;
        for a in 0..20 {
            for b in (a + 1)..20 {
                let s = cosine(&vecs[a], &vecs[b]);
                if (a < 10) == (b < 10) {
                    intra += s;
                    ni += 1;
                } else {
                    inter += s;
                    nx += 1;
                }
            }
        }
        let intra = intra / ni as f64;
        let inter = inter / nx as f64;
        assert!(
            intra > inter + 0.1,
            "intra-community similarity {intra:.3} vs inter {inter:.3}"
        );
    }

    #[test]
    fn dimension_and_shape() {
        let g = x2v_graph::generators::cycle(8);
        let mut config = Node2VecConfig::default();
        config.walks.p = 0.5;
        config.walks.q = 2.0;
        let n2v = Node2Vec::new(config);
        let vecs = n2v.embed_nodes(&g);
        assert_eq!(vecs.len(), 8);
        assert_eq!(vecs[0].len(), n2v.dimension());
    }
}
