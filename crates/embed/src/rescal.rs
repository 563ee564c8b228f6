//! RESCAL (Nickel et al. \[83\]): each relation is a *bilinear form*
//! `β_R(x_h, x_t) = x_hᵀ B_R x_t`, trained so that `β ≈ 1` on facts and
//! `β ≈ 0` on non-facts — the paper's Section 2.3 multi-relational matrix
//! factorisation `min Σ_R ‖X B_R Xᵀ − A_R‖`.
//!
//! Trained by SGD on the squared loss over observed triples plus sampled
//! negatives.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_graph::relational::KnowledgeGraph;

/// RESCAL hyperparameters.
#[derive(Clone, Debug)]
pub struct RescalConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    /// Epochs.
    pub epochs: usize,
    /// Negative samples per positive triple per epoch.
    pub negative: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RescalConfig {
    fn default() -> Self {
        RescalConfig {
            dim: 16,
            learning_rate: 0.05,
            l2: 1e-4,
            epochs: 300,
            negative: 4,
            seed: 0x4e5ca1,
        }
    }
}

/// A trained RESCAL model.
pub struct Rescal {
    /// Entity vectors, `n × dim`.
    pub entities: Vec<Vec<f64>>,
    /// Relation matrices `B_R`, each `dim × dim` row-major.
    pub relations: Vec<Vec<f64>>,
    dim: usize,
}

impl Rescal {
    /// Trains on a knowledge graph.
    pub fn train(kg: &KnowledgeGraph, config: &RescalConfig) -> Self {
        let _timer = x2v_obs::span("embed/rescal_train");
        let dim = config.dim;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut entities: Vec<Vec<f64>> = (0..kg.n_entities())
            .map(|_| (0..dim).map(|_| rng.random::<f64>() * 0.2 - 0.1).collect())
            .collect();
        let mut relations: Vec<Vec<f64>> = (0..kg.n_relations())
            .map(|_| {
                (0..dim * dim)
                    .map(|_| rng.random::<f64>() * 0.2 - 0.1)
                    .collect()
            })
            .collect();
        let triples = kg.triples().to_vec();
        assert!(
            !triples.is_empty(),
            "cannot train on an empty knowledge graph"
        );
        let mut grad_h = vec![0.0f64; dim];
        let mut grad_t = vec![0.0f64; dim];
        for epoch in 0..config.epochs {
            x2v_obs::progress(
                "embed/rescal_epochs",
                (epoch + 1) as u64,
                config.epochs as u64,
            );
            for &(h, r, t) in &triples {
                Self::sgd_step(
                    &mut entities,
                    &mut relations,
                    h,
                    r,
                    t,
                    1.0,
                    config,
                    dim,
                    &mut grad_h,
                    &mut grad_t,
                );
                for _ in 0..config.negative {
                    let (nh, nt) = if rng.random::<f64>() < 0.5 {
                        (rng.random_range(0..kg.n_entities()), t)
                    } else {
                        (h, rng.random_range(0..kg.n_entities()))
                    };
                    if kg.contains(nh, r, nt) {
                        continue;
                    }
                    Self::sgd_step(
                        &mut entities,
                        &mut relations,
                        nh,
                        r,
                        nt,
                        0.0,
                        config,
                        dim,
                        &mut grad_h,
                        &mut grad_t,
                    );
                }
            }
        }
        Rescal {
            entities,
            relations,
            dim,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn sgd_step(
        entities: &mut [Vec<f64>],
        relations: &mut [Vec<f64>],
        h: usize,
        r: usize,
        t: usize,
        target: f64,
        config: &RescalConfig,
        dim: usize,
        grad_h: &mut [f64],
        grad_t: &mut [f64],
    ) {
        // score = x_hᵀ B x_t; error = score − target.
        let score = {
            let b = &relations[r];
            let (xh, xt) = (&entities[h], &entities[t]);
            let mut s = 0.0;
            for i in 0..dim {
                let xi = xh[i];
                if xi == 0.0 {
                    continue;
                }
                let row = &b[i * dim..(i + 1) * dim];
                s += xi * row.iter().zip(xt.iter()).map(|(a, c)| a * c).sum::<f64>();
            }
            s
        };
        let err = score - target;
        let lr = config.learning_rate;
        // ∂/∂x_h = B x_t; ∂/∂x_t = Bᵀ x_h; ∂/∂B = x_h x_tᵀ.
        {
            let b = &relations[r];
            for i in 0..dim {
                let row = &b[i * dim..(i + 1) * dim];
                grad_h[i] = row
                    .iter()
                    .zip(entities[t].iter())
                    .map(|(a, c)| a * c)
                    .sum::<f64>();
            }
            for j in 0..dim {
                grad_t[j] = (0..dim)
                    .map(|i| b[i * dim + j] * entities[h][i])
                    .sum::<f64>();
            }
        }
        {
            let b = &mut relations[r];
            for i in 0..dim {
                let xhi = entities[h][i];
                for j in 0..dim {
                    b[i * dim + j] -=
                        lr * (err * xhi * entities[t][j] + config.l2 * b[i * dim + j]);
                }
            }
        }
        // h and t may alias (self-loops are impossible in our KGs, but be
        // safe with sequential updates).
        for i in 0..dim {
            entities[h][i] -= lr * (err * grad_h[i] + config.l2 * entities[h][i]);
        }
        for j in 0..dim {
            entities[t][j] -= lr * (err * grad_t[j] + config.l2 * entities[t][j]);
        }
    }

    /// The bilinear score `x_hᵀ B_r x_t` (≈ 1 for facts, ≈ 0 otherwise).
    pub fn score(&self, h: usize, r: usize, t: usize) -> f64 {
        let b = &self.relations[r];
        let (xh, xt) = (&self.entities[h], &self.entities[t]);
        let mut s = 0.0;
        for i in 0..self.dim {
            let row = &b[i * self.dim..(i + 1) * self.dim];
            s += xh[i] * row.iter().zip(xt.iter()).map(|(a, c)| a * c).sum::<f64>();
        }
        s
    }

    /// Raw rank of the true tail for `(h, r, ?)` (higher score = better).
    pub fn tail_rank(&self, h: usize, r: usize, true_t: usize) -> usize {
        let true_score = self.score(h, r, true_t);
        1 + (0..self.entities.len())
            .filter(|&t| t != true_t && self.score(h, r, t) > true_score)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_world() -> KnowledgeGraph {
        let mut triples = Vec::new();
        for i in 0..5 {
            triples.push((i, 0, 5 + i)); // likes
            triples.push((5 + i, 1, i)); // liked_by (inverse)
        }
        KnowledgeGraph::new(10, 2, &triples).unwrap()
    }

    #[test]
    fn facts_score_higher_than_nonfacts() {
        let kg = toy_world();
        let model = Rescal::train(&kg, &RescalConfig::default());
        let mut fact = 0.0;
        let mut non = 0.0;
        for i in 0..5 {
            fact += model.score(i, 0, 5 + i);
            non += model.score(i, 0, 5 + ((i + 2) % 5));
        }
        assert!(
            fact / 5.0 > non / 5.0 + 0.3,
            "facts {:.3} vs non-facts {:.3}",
            fact / 5.0,
            non / 5.0
        );
    }

    #[test]
    fn ranking_beats_random() {
        let kg = toy_world();
        let model = Rescal::train(&kg, &RescalConfig::default());
        let mean: f64 = (0..5)
            .map(|i| model.tail_rank(i, 0, 5 + i) as f64)
            .sum::<f64>()
            / 5.0;
        assert!(mean < 3.0, "mean rank {mean}");
    }

    #[test]
    fn asymmetric_relations_supported() {
        // RESCAL's bilinear form is not symmetric — the inverse relation
        // should be learned separately and correctly.
        let kg = toy_world();
        let model = Rescal::train(&kg, &RescalConfig::default());
        let forward = model.score(0, 0, 5);
        let backward = model.score(5, 1, 0);
        assert!(forward > 0.5);
        assert!(backward > 0.5);
    }
}
