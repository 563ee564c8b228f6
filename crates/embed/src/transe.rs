//! TransE (Bordes et al. \[18\]): knowledge-graph embeddings where each
//! relation acts as a *translation* of the latent space —
//! `x_head + t_r ≈ x_tail` (the paper's Paris − France ≈ Santiago − Chile
//! example).
//!
//! Trained with the margin ranking loss
//! `Σ max(0, γ + d(h + r, t) − d(h' + r, t'))` over corrupted triples,
//! entities renormalised to the unit sphere each step.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_graph::relational::KnowledgeGraph;
use x2v_linalg::vector::normalize;

/// TransE hyperparameters.
#[derive(Clone, Debug)]
pub struct TransEConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Margin γ.
    pub margin: f64,
    /// Learning rate.
    pub learning_rate: f64,
    /// Epochs over the triple set.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransEConfig {
    fn default() -> Self {
        TransEConfig {
            dim: 24,
            margin: 1.0,
            learning_rate: 0.01,
            epochs: 200,
            seed: 0x7a5e,
        }
    }
}

/// A trained TransE model.
pub struct TransE {
    /// Entity vectors, `n_entities × dim`.
    pub entities: Vec<Vec<f64>>,
    /// Relation translation vectors, `n_relations × dim`.
    pub relations: Vec<Vec<f64>>,
}

impl TransE {
    /// Trains on a knowledge graph.
    pub fn train(kg: &KnowledgeGraph, config: &TransEConfig) -> Self {
        let _timer = x2v_obs::span("embed/transe_train");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let dim = config.dim;
        let unit = |rng: &mut StdRng| {
            let mut v: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
            normalize(&mut v);
            v
        };
        let mut entities: Vec<Vec<f64>> = (0..kg.n_entities()).map(|_| unit(&mut rng)).collect();
        let mut relations: Vec<Vec<f64>> = (0..kg.n_relations()).map(|_| unit(&mut rng)).collect();
        let triples = kg.triples().to_vec();
        assert!(
            !triples.is_empty(),
            "cannot train on an empty knowledge graph"
        );
        for epoch in 0..config.epochs {
            x2v_obs::progress(
                "embed/transe_epochs",
                (epoch + 1) as u64,
                config.epochs as u64,
            );
            for &(h, r, t) in &triples {
                // Corrupt head or tail.
                let corrupt_head = rng.random::<f64>() < 0.5;
                let (ch, ct) = loop {
                    let e = rng.random_range(0..kg.n_entities());
                    let cand = if corrupt_head { (e, t) } else { (h, e) };
                    if !kg.contains(cand.0, r, cand.1) {
                        break cand;
                    }
                };
                let pos = Self::score_vecs(&entities[h], &relations[r], &entities[t]);
                let neg = Self::score_vecs(&entities[ch], &relations[r], &entities[ct]);
                if pos + config.margin <= neg {
                    continue; // margin satisfied
                }
                // Gradient of d(h+r,t)² terms (we use squared L2 distance).
                let lr = config.learning_rate;
                for d in 0..dim {
                    let gp = 2.0 * (entities[h][d] + relations[r][d] - entities[t][d]);
                    let gn = 2.0 * (entities[ch][d] + relations[r][d] - entities[ct][d]);
                    entities[h][d] -= lr * gp;
                    entities[t][d] += lr * gp;
                    relations[r][d] -= lr * (gp - gn);
                    entities[ch][d] += lr * gn;
                    entities[ct][d] -= lr * gn;
                }
                normalize(&mut entities[h]);
                normalize(&mut entities[t]);
                normalize(&mut entities[ch]);
                normalize(&mut entities[ct]);
            }
        }
        TransE {
            entities,
            relations,
        }
    }

    fn score_vecs(h: &[f64], r: &[f64], t: &[f64]) -> f64 {
        h.iter()
            .zip(r)
            .zip(t)
            .map(|((&a, &b), &c)| {
                let d = a + b - c;
                d * d
            })
            .sum()
    }

    /// Plausibility score of a triple: squared distance `‖h + r − t‖²`
    /// (lower = more plausible).
    pub fn score(&self, h: usize, r: usize, t: usize) -> f64 {
        Self::score_vecs(&self.entities[h], &self.relations[r], &self.entities[t])
    }

    /// Rank of the true tail among all entities for query `(h, r, ?)`
    /// (1-based; *filtered* ranking would remove other true tails — this is
    /// the raw rank).
    pub fn tail_rank(&self, h: usize, r: usize, true_t: usize) -> usize {
        let true_score = self.score(h, r, true_t);
        1 + (0..self.entities.len())
            .filter(|&t| t != true_t && self.score(h, r, t) < true_score)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy "countries" world: capital_of(c_i) = n_i, located_in pairs.
    fn toy_world() -> KnowledgeGraph {
        // Entities 0..6 = capitals, 6..12 = countries.
        let mut triples = Vec::new();
        for i in 0..6 {
            triples.push((i, 0, 6 + i)); // capital_of
        }
        // relation 1: neighbour_of between consecutive countries.
        for i in 0..5 {
            triples.push((6 + i, 1, 7 + i));
            triples.push((7 + i, 1, 6 + i));
        }
        KnowledgeGraph::new(12, 2, &triples).unwrap()
    }

    #[test]
    fn true_triples_outrank_corrupted() {
        let kg = toy_world();
        let model = TransE::train(&kg, &TransEConfig::default());
        // Mean rank of true tails should beat the random baseline (6.0).
        let ranks: Vec<usize> = (0..6).map(|i| model.tail_rank(i, 0, 6 + i)).collect();
        let mean: f64 = ranks.iter().map(|&r| r as f64).sum::<f64>() / 6.0;
        assert!(mean < 3.5, "mean rank {mean} (ranks {ranks:?})");
    }

    #[test]
    fn translation_geometry_emerges() {
        // The capital_of offsets x_capital + r − x_country should be small
        // compared to random entity differences.
        let kg = toy_world();
        let model = TransE::train(&kg, &TransEConfig::default());
        let mean_true: f64 = (0..6).map(|i| model.score(i, 0, 6 + i)).sum::<f64>() / 6.0;
        let mean_wrong: f64 = (0..6)
            .map(|i| model.score(i, 0, 6 + ((i + 3) % 6)))
            .sum::<f64>()
            / 6.0;
        assert!(
            mean_true < mean_wrong,
            "true-offset norm {mean_true} vs wrong {mean_wrong}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let kg = toy_world();
        let cfg = TransEConfig {
            epochs: 20,
            ..Default::default()
        };
        let a = TransE::train(&kg, &cfg);
        let b = TransE::train(&kg, &cfg);
        assert_eq!(a.entities[0], b.entities[0]);
    }
}
