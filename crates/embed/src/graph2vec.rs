//! graph2vec (Narayanan et al. \[80\]): transductive whole-graph embeddings
//! via PV-DBOW over Weisfeiler-Leman subtree "words" (Section 2.5).
//!
//! Each graph is a document; its words are the WL colours of its nodes at
//! rounds `0..=depth` (computed through one shared interner, so the same
//! rooted subtree is the same word in every graph). Training maximises
//! `log σ(d_g · w_c)` for observed (graph, colour) pairs against sampled
//! negatives — doc2vec's distributed bag of words, exactly as graph2vec
//! prescribes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_graph::Graph;
use x2v_linalg::sampling::AliasTable;
use x2v_linalg::vector::sigmoid;
use x2v_wl::features::SparseWlFeatures;
use x2v_wl::Refiner;

/// graph2vec hyperparameters.
#[derive(Clone, Debug)]
pub struct Graph2VecConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// WL rounds (subtree depth of the words).
    pub depth: usize,
    /// Negative samples per positive.
    pub negative: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Graph2VecConfig {
    fn default() -> Self {
        Graph2VecConfig {
            dim: 32,
            depth: 3,
            negative: 5,
            epochs: 30,
            learning_rate: 0.05,
            seed: 0x617665,
        }
    }
}

/// A fitted graph2vec model: one vector per training graph (transductive —
/// the paper's Section 2.5 stresses this limitation; [`FittedGraph2Vec::infer`]
/// embeds an unseen graph by doc-vector inference with frozen word vectors).
pub struct FittedGraph2Vec {
    doc_vectors: Vec<Vec<f64>>,
    word_vectors: Vec<Vec<f64>>,
    /// (round, colour) → word id.
    word_index: x2v_graph::hash::FxHashMap<(usize, u64), usize>,
    refiner: std::sync::Mutex<Refiner>,
    config: Graph2VecConfig,
}

/// Bag of words of one graph: (word id, multiplicity).
type Bag = Vec<(usize, f64)>;

impl FittedGraph2Vec {
    /// Fits graph2vec on a dataset.
    pub fn fit(graphs: &[Graph], config: Graph2VecConfig) -> Self {
        let mut refiner = Refiner::new();
        let mut word_index = x2v_graph::hash::FxHashMap::default();
        let mut bags: Vec<Bag> = Vec::with_capacity(graphs.len());
        let mut word_freq: Vec<f64> = Vec::new();
        for g in graphs {
            let f = SparseWlFeatures::compute(&mut refiner, g, config.depth);
            let mut bag = Vec::new();
            for round in 0..f.num_rounds() {
                let (keys, counts) = f.round(round);
                for (&c, &count) in keys.iter().zip(counts) {
                    let next = word_index.len();
                    let id = *word_index.entry((round, c)).or_insert(next);
                    if id == word_freq.len() {
                        word_freq.push(0.0);
                    }
                    word_freq[id] += count as f64;
                    bag.push((id, count as f64));
                }
            }
            bags.push(bag);
        }
        let vocab = word_freq.len();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let dim = config.dim;
        let init = |rng: &mut StdRng| -> Vec<f64> {
            (0..dim)
                .map(|_| (rng.random::<f64>() - 0.5) / dim as f64)
                .collect()
        };
        let mut doc_vectors: Vec<Vec<f64>> = (0..graphs.len()).map(|_| init(&mut rng)).collect();
        let mut word_vectors: Vec<Vec<f64>> = (0..vocab).map(|_| init(&mut rng)).collect();
        let weights: Vec<f64> = word_freq.iter().map(|&f| f.powf(0.75)).collect();
        let negatives = AliasTable::new(&weights);
        let total_steps = config.epochs.max(1);
        for epoch in 0..config.epochs {
            let lr = config.learning_rate * (1.0 - epoch as f64 / total_steps as f64).max(0.05);
            for (d, bag) in bags.iter().enumerate() {
                train_document(
                    &mut doc_vectors[d],
                    &mut word_vectors,
                    bag,
                    &negatives,
                    &config,
                    lr,
                    &mut rng,
                    true,
                );
            }
        }
        FittedGraph2Vec {
            doc_vectors,
            word_vectors,
            word_index,
            refiner: std::sync::Mutex::new(refiner),
            config,
        }
    }

    /// The embedding of training graph `i`.
    pub fn vector(&self, i: usize) -> &[f64] {
        &self.doc_vectors[i]
    }

    /// All training-graph embeddings.
    pub fn vectors(&self) -> &[Vec<f64>] {
        &self.doc_vectors
    }

    /// Embedding dimension.
    pub fn dimension(&self) -> usize {
        self.config.dim
    }

    /// Infers a vector for an unseen graph: word vectors stay frozen, a
    /// fresh doc vector is trained on the graph's WL words. Words never
    /// seen in training are skipped (standard out-of-vocabulary handling).
    pub fn infer(&self, g: &Graph, seed: u64) -> Vec<f64> {
        let mut refiner = self.refiner.lock().expect("graph2vec refiner lock");
        let f = SparseWlFeatures::compute(&mut refiner, g, self.config.depth);
        let mut bag = Vec::new();
        for round in 0..f.num_rounds() {
            let (keys, counts) = f.round(round);
            for (&c, &count) in keys.iter().zip(counts) {
                if let Some(&id) = self.word_index.get(&(round, c)) {
                    bag.push((id, count as f64));
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = self.config.dim;
        let mut doc: Vec<f64> = (0..dim)
            .map(|_| (rng.random::<f64>() - 0.5) / dim as f64)
            .collect();
        let weights: Vec<f64> = vec![1.0; self.word_vectors.len().max(1)];
        let negatives = AliasTable::new(&weights);
        let mut words = self.word_vectors.clone();
        for epoch in 0..self.config.epochs {
            let lr = self.config.learning_rate
                * (1.0 - epoch as f64 / self.config.epochs.max(1) as f64).max(0.05);
            train_document(
                &mut doc,
                &mut words,
                &bag,
                &negatives,
                &self.config,
                lr,
                &mut rng,
                false,
            );
        }
        doc
    }
}

#[allow(clippy::too_many_arguments)]
fn train_document(
    doc: &mut [f64],
    words: &mut [Vec<f64>],
    bag: &Bag,
    negatives: &AliasTable,
    config: &Graph2VecConfig,
    lr: f64,
    rng: &mut StdRng,
    update_words: bool,
) {
    let dim = doc.len();
    let mut grad = vec![0.0f64; dim];
    for &(word, multiplicity) in bag {
        let weight = multiplicity.sqrt(); // damp very frequent colours
        grad.iter_mut().for_each(|g| *g = 0.0);
        {
            let w = &mut words[word];
            let dot: f64 = doc.iter().zip(w.iter()).map(|(a, b)| a * b).sum();
            let g = (1.0 - sigmoid(dot)) * lr * weight;
            for d in 0..dim {
                grad[d] += g * w[d];
                if update_words {
                    w[d] += g * doc[d];
                }
            }
        }
        for _ in 0..config.negative {
            let neg = negatives.sample(rng);
            if neg == word {
                continue;
            }
            let w = &mut words[neg];
            let dot: f64 = doc.iter().zip(w.iter()).map(|(a, b)| a * b).sum();
            let g = -sigmoid(dot) * lr * weight;
            for d in 0..dim {
                grad[d] += g * w[d];
                if update_words {
                    w[d] += g * doc[d];
                }
            }
        }
        for d in 0..dim {
            doc[d] += grad[d];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use x2v_graph::generators::{cycle, random_tree};
    use x2v_linalg::vector::cosine;

    fn cycles_vs_trees_dataset() -> (Vec<Graph>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(77);
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for n in 6..14 {
            graphs.push(cycle(n));
            labels.push(0);
            graphs.push(random_tree(n, &mut rng));
            labels.push(1);
        }
        (graphs, labels)
    }

    #[test]
    fn class_structure_visible_in_doc_vectors() {
        let (graphs, labels) = cycles_vs_trees_dataset();
        let model = FittedGraph2Vec::fit(&graphs, Graph2VecConfig::default());
        let mut intra = 0.0;
        let mut inter = 0.0;
        let (mut ni, mut nx) = (0, 0);
        for a in 0..graphs.len() {
            for b in (a + 1)..graphs.len() {
                let s = cosine(model.vector(a), model.vector(b));
                if labels[a] == labels[b] {
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
            "same-class graphs should be more similar"
        );
    }

    #[test]
    fn inference_lands_near_training_class() {
        let (graphs, _) = cycles_vs_trees_dataset();
        let model = FittedGraph2Vec::fit(&graphs, Graph2VecConfig::default());
        // Infer a new cycle: it should be closer to the average trained
        // cycle than to the average trained tree.
        let inferred = model.infer(&cycle(9), 99);
        let cycle_sim: f64 = (0..graphs.len())
            .step_by(2)
            .map(|i| cosine(&inferred, model.vector(i)))
            .sum::<f64>();
        let tree_sim: f64 = (1..graphs.len())
            .step_by(2)
            .map(|i| cosine(&inferred, model.vector(i)))
            .sum::<f64>();
        assert!(cycle_sim > tree_sim, "{cycle_sim} vs {tree_sim}");
    }

    #[test]
    fn shapes_and_determinism() {
        let (graphs, _) = cycles_vs_trees_dataset();
        let cfg = Graph2VecConfig {
            dim: 8,
            epochs: 5,
            ..Default::default()
        };
        let a = FittedGraph2Vec::fit(&graphs, cfg.clone());
        let b = FittedGraph2Vec::fit(&graphs, cfg);
        assert_eq!(a.vector(0), b.vector(0));
        assert_eq!(a.dimension(), 8);
        assert_eq!(a.vectors().len(), graphs.len());
    }
}
