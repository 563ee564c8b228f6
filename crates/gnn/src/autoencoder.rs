//! Graph autoencoders (Section 2.5, Kipf–Welling \[59\]): unsupervised
//! training of graph/node embeddings by reconstructing the adjacency
//! structure.
//!
//! Encoder: one propagation layer `Z = Â X W` with the symmetrically
//! normalised adjacency `Â = D^{−1/2}(A + I)D^{−1/2}` and one-hot inputs.
//! Decoder: `σ(z_u · z_v)`. Loss: balanced cross-entropy over all pairs.
//! Gradients are exact and hand-derived (no autograd).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_graph::Graph;
use x2v_linalg::vector::sigmoid;
use x2v_linalg::Matrix;

/// Hyperparameters of the graph autoencoder.
#[derive(Clone, Debug)]
pub struct GaeConfig {
    /// Latent dimension.
    pub dim: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed for initialisation.
    pub seed: u64,
}

impl Default for GaeConfig {
    fn default() -> Self {
        GaeConfig {
            dim: 16,
            learning_rate: 0.1,
            epochs: 200,
            seed: 0x6ae,
        }
    }
}

/// A trained graph autoencoder on one graph (transductive).
pub struct GraphAutoencoder {
    /// Node embeddings `Z` (n × dim).
    pub z: Matrix,
    /// Loss trajectory (one entry per epoch).
    pub losses: Vec<f64>,
}

/// Symmetrically normalised adjacency with self-loops.
fn normalised_adjacency(g: &Graph) -> Matrix {
    let n = g.order();
    let mut a = Matrix::from_flat(n, n, g.adjacency_flat());
    for v in 0..n {
        a[(v, v)] = 1.0;
    }
    let deg: Vec<f64> = (0..n)
        .map(|v| (0..n).map(|w| a[(v, w)]).sum::<f64>().sqrt())
        .collect();
    for v in 0..n {
        for w in 0..n {
            a[(v, w)] /= deg[v] * deg[w];
        }
    }
    a
}

impl GraphAutoencoder {
    /// Trains on `g`; with one-hot inputs the encoder is `Z = Â W` for a
    /// learnable `W ∈ ℝ^{n×d}`.
    pub fn train(g: &Graph, config: &GaeConfig) -> Self {
        let n = g.order();
        let d = config.dim;
        let a_hat = normalised_adjacency(g);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut w = Matrix::zeros(n, d);
        let scale = (1.0 / d as f64).sqrt();
        for i in 0..n {
            for j in 0..d {
                w[(i, j)] = (rng.random::<f64>() * 2.0 - 1.0) * scale;
            }
        }
        // Class balance: weight positive pairs by #neg / #pos.
        let m = g.size() as f64;
        let pairs = (n * (n - 1) / 2) as f64;
        let pos_weight = ((pairs - m) / m.max(1.0)).max(1.0);
        let mut losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            let z = a_hat.matmul(&w);
            // Loss and dL/dZ over unordered pairs.
            let mut d_z = Matrix::zeros(n, d);
            let mut loss = 0.0;
            for u in 0..n {
                for v in (u + 1)..n {
                    let dot: f64 = z.row(u).iter().zip(z.row(v)).map(|(a, b)| a * b).sum();
                    let p = sigmoid(dot);
                    let (target, weight) = if g.has_edge(u, v) {
                        (1.0, pos_weight)
                    } else {
                        (0.0, 1.0)
                    };
                    loss -= weight
                        * (target * p.max(1e-12).ln() + (1.0 - target) * (1.0 - p).max(1e-12).ln());
                    let gcoef = weight * (p - target);
                    for k in 0..d {
                        d_z[(u, k)] += gcoef * z[(v, k)];
                        d_z[(v, k)] += gcoef * z[(u, k)];
                    }
                }
            }
            losses.push(loss / pairs);
            // dL/dW = Âᵀ dZ (Â symmetric).
            let d_w = a_hat.matmul(&d_z);
            for (wi, gi) in w.as_mut_slice().iter_mut().zip(d_w.as_slice()) {
                *wi -= config.learning_rate * gi / pairs;
            }
        }
        let z = a_hat.matmul(&w);
        GraphAutoencoder { z, losses }
    }

    /// Reconstruction score of a pair (`σ(z_u · z_v)` — probability of an
    /// edge under the decoder).
    pub fn edge_score(&self, u: usize, v: usize) -> f64 {
        let dot: f64 = self
            .z
            .row(u)
            .iter()
            .zip(self.z.row(v))
            .map(|(a, b)| a * b)
            .sum();
        sigmoid(dot)
    }

    /// AUC of edge reconstruction: the probability that a random true edge
    /// scores above a random non-edge (exact, all pairs).
    #[cfg(test)]
    fn reconstruction_auc(&self, g: &Graph) -> f64 {
        let n = g.order();
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let s = self.edge_score(u, v);
                if g.has_edge(u, v) {
                    pos.push(s);
                } else {
                    neg.push(s);
                }
            }
        }
        if pos.is_empty() || neg.is_empty() {
            return 0.5;
        }
        let mut wins = 0.0;
        for &p in &pos {
            for &q in &neg {
                if p > q {
                    wins += 1.0;
                } else if p == q {
                    wins += 0.5;
                }
            }
        }
        wins / (pos.len() * neg.len()) as f64
    }

    /// The learned node embeddings as row vectors.
    pub fn embeddings(&self) -> Vec<Vec<f64>> {
        (0..self.z.rows()).map(|v| self.z.row(v).to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use x2v_graph::generators::{cycle, sbm};

    #[test]
    fn loss_decreases_and_auc_beats_chance() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = sbm(&[8, 8], 0.7, 0.08, &mut rng);
        let gae = GraphAutoencoder::train(&g, &GaeConfig::default());
        assert!(
            gae.losses.last().unwrap() < &gae.losses[0],
            "loss must drop"
        );
        let auc = gae.reconstruction_auc(&g);
        assert!(auc > 0.8, "reconstruction AUC {auc}");
        // The inner-product decoder is a symmetric edge probability.
        let s = gae.edge_score(0, 1);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(s.to_bits(), gae.edge_score(1, 0).to_bits());
    }

    #[test]
    fn communities_cluster_in_latent_space() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = sbm(&[8, 8], 0.8, 0.05, &mut rng);
        let gae = GraphAutoencoder::train(&g, &GaeConfig::default());
        let z = gae.embeddings();
        let cos = x2v_linalg::vector::cosine;
        let mut intra = (0.0, 0);
        let mut inter = (0.0, 0);
        for a in 0..16 {
            for b in (a + 1)..16 {
                let s = cos(&z[a], &z[b]);
                if (a < 8) == (b < 8) {
                    intra = (intra.0 + s, intra.1 + 1);
                } else {
                    inter = (inter.0 + s, inter.1 + 1);
                }
            }
        }
        assert!(
            intra.0 / intra.1 as f64 > inter.0 / inter.1 as f64,
            "intra-community similarity must dominate"
        );
    }

    #[test]
    fn normalised_adjacency_rows_bounded() {
        let a = normalised_adjacency(&cycle(5));
        // Symmetric, entries in [0, 1].
        for i in 0..5 {
            for j in 0..5 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
                assert!(a[(i, j)] >= 0.0 && a[(i, j)] <= 1.0);
            }
        }
    }

    #[test]
    fn deterministic() {
        let g = cycle(6);
        let cfg = GaeConfig {
            epochs: 20,
            ..Default::default()
        };
        let a = GraphAutoencoder::train(&g, &cfg);
        let b = GraphAutoencoder::train(&g, &cfg);
        assert!(a.z.approx_eq(&b.z, 0.0));
    }
}
