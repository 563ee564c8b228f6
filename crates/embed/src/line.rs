//! LINE (Tang et al. \[97\], Section 2.1): large-scale information network
//! embedding by first- and second-order proximity, trained with negative
//! sampling directly on edges (no random walks).
//!
//! First-order: maximise `σ(z_u · z_v)` on edges against sampled non-edges.
//! Second-order: each node also has a context vector; `σ(z_u · c_v)` on
//! edges — nodes sharing neighbourhoods get similar `z` even when not
//! adjacent.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_core::NodeEmbedding;
use x2v_graph::Graph;
use x2v_linalg::sampling::AliasTable;
use x2v_linalg::vector::sigmoid;

/// Which proximity order to train.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proximity {
    /// Adjacent nodes embed closely.
    FirstOrder,
    /// Nodes with shared neighbourhoods embed closely.
    SecondOrder,
}

/// LINE hyperparameters.
#[derive(Clone, Debug)]
pub struct LineConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Proximity order.
    pub proximity: Proximity,
    /// Negative samples per edge.
    pub negative: usize,
    /// Edge samples drawn in total.
    pub samples: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LineConfig {
    fn default() -> Self {
        LineConfig {
            dim: 16,
            proximity: Proximity::SecondOrder,
            negative: 5,
            samples: 40_000,
            learning_rate: 0.025,
            seed: 0x11e,
        }
    }
}

/// LINE as a [`NodeEmbedding`] (transductive; trains per call).
pub struct Line {
    config: LineConfig,
}

impl Line {
    /// With explicit hyperparameters.
    pub fn new(config: LineConfig) -> Self {
        Line { config }
    }

    /// Trains and returns raw vectors.
    pub fn train(&self, g: &Graph) -> Vec<Vec<f64>> {
        let n = g.order();
        let dim = self.config.dim;
        let edges = g.edge_vec();
        assert!(!edges.is_empty(), "LINE needs at least one edge");
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut z: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| (rng.random::<f64>() - 0.5) / dim as f64)
                    .collect()
            })
            .collect();
        // Context table (second order) or alias of z (first order).
        let mut ctx: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0; dim]).collect();
        // Negative sampling ∝ degree^{3/4}.
        let weights: Vec<f64> = (0..n)
            .map(|v| (g.degree(v) as f64).powf(0.75).max(1e-9))
            .collect();
        let negatives = AliasTable::new(&weights);
        let second = self.config.proximity == Proximity::SecondOrder;
        for step in 0..self.config.samples {
            let lr = self.config.learning_rate
                * (1.0 - step as f64 / self.config.samples as f64).max(1e-3);
            let &(a, b) = &edges[rng.random_range(0..edges.len())];
            // Undirected: train both directions alternately.
            let (u, v) = if step % 2 == 0 { (a, b) } else { (b, a) };
            // Snapshot of the source vector: lets us update target rows of
            // the same table without aliasing (u ≠ v: graphs are loop-free).
            let zu: Vec<f64> = z[u].clone();
            let mut grad_u = vec![0.0; dim];
            let mut update = |target_idx: usize, positive: bool, grad_u: &mut [f64]| {
                let table = if second { &mut ctx } else { &mut z };
                let target = &mut table[target_idx];
                let dot: f64 = zu.iter().zip(target.iter()).map(|(x, y)| x * y).sum();
                let gcoef = if positive {
                    (1.0 - sigmoid(dot)) * lr
                } else {
                    -sigmoid(dot) * lr
                };
                for k in 0..dim {
                    grad_u[k] += gcoef * target[k];
                    target[k] += gcoef * zu[k];
                }
            };
            update(v, true, &mut grad_u);
            for _ in 0..self.config.negative {
                let neg = negatives.sample(&mut rng);
                if neg == v || neg == u {
                    continue;
                }
                update(neg, false, &mut grad_u);
            }
            for k in 0..dim {
                z[u][k] += grad_u[k];
            }
        }
        z
    }
}

impl NodeEmbedding for Line {
    fn embed_nodes(&self, g: &Graph) -> Vec<Vec<f64>> {
        self.train(g)
    }

    fn dimension(&self) -> usize {
        self.config.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use x2v_graph::generators::sbm;
    use x2v_linalg::vector::cosine;

    fn community_contrast(g: &Graph, z: &[Vec<f64>]) -> (f64, f64) {
        let (mut intra, mut inter) = ((0.0, 0usize), (0.0, 0usize));
        for a in 0..g.order() {
            for b in (a + 1)..g.order() {
                let s = cosine(&z[a], &z[b]);
                if g.label(a) == g.label(b) {
                    intra = (intra.0 + s, intra.1 + 1);
                } else {
                    inter = (inter.0 + s, inter.1 + 1);
                }
            }
        }
        (intra.0 / intra.1 as f64, inter.0 / inter.1 as f64)
    }

    #[test]
    fn first_order_separates_communities() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = sbm(&[10, 10], 0.7, 0.05, &mut rng);
        let line = Line::new(LineConfig {
            proximity: Proximity::FirstOrder,
            ..Default::default()
        });
        let z = line.embed_nodes(&g);
        let (intra, inter) = community_contrast(&g, &z);
        assert!(intra > inter + 0.1, "intra {intra:.3} vs inter {inter:.3}");
    }

    #[test]
    fn second_order_separates_communities() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = sbm(&[10, 10], 0.7, 0.05, &mut rng);
        let line = Line::new(LineConfig::default());
        let z = line.embed_nodes(&g);
        let (intra, inter) = community_contrast(&g, &z);
        assert!(intra > inter, "intra {intra:.3} vs inter {inter:.3}");
    }

    #[test]
    fn deterministic_and_shaped() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = sbm(&[6, 6], 0.8, 0.1, &mut rng);
        let line = Line::new(LineConfig {
            samples: 5_000,
            ..Default::default()
        });
        let a = line.embed_nodes(&g);
        let b = line.embed_nodes(&g);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        assert_eq!(a[0].len(), line.dimension());
    }
}
