//! Stacked GNN models, readouts, heads, and SGD training loops.

use crate::layer::{Activation, GnnLayer, LayerCache, LayerGrads};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_graph::Graph;
use x2v_linalg::vector::softmax;
use x2v_linalg::Matrix;

/// How the initial node states `x_v^{(0)}` are chosen (Section 2.2 / 3.6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InitialFeatures {
    /// The all-ones vector for every node — the isomorphism-invariant
    /// choice bounded by 1-WL.
    Constant,
    /// One-hot node labels (invariant; uses labels as initial colours).
    LabelOneHot,
    /// Random vectors per node — breaks the WL ceiling at the price of
    /// per-run invariance (Section 3.6).
    Random {
        /// Seed for the per-node random features.
        seed: u64,
    },
}

/// A stack of GNN layers with a configurable input featuriser.
pub struct GnnModel {
    /// The message-passing layers.
    pub layers: Vec<GnnLayer>,
    /// Input featurisation.
    pub init: InitialFeatures,
    /// Input feature dimension.
    pub in_dim: usize,
}

impl GnnModel {
    /// A model with `depth` layers of uniform width.
    pub fn new(
        in_dim: usize,
        hidden: usize,
        depth: usize,
        activation: Activation,
        init: InitialFeatures,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(depth);
        let mut d = in_dim;
        for _ in 0..depth {
            layers.push(GnnLayer::random(d, hidden, hidden, activation, &mut rng));
            d = hidden;
        }
        GnnModel {
            layers,
            init,
            in_dim,
        }
    }

    /// Builds the initial feature matrix for a graph.
    fn initial_features(&self, g: &Graph) -> Matrix {
        let n = g.order();
        match self.init {
            InitialFeatures::Constant => Matrix::filled(n, self.in_dim, 1.0),
            InitialFeatures::LabelOneHot => {
                let mut m = Matrix::zeros(n, self.in_dim);
                for v in 0..n {
                    let l = (g.label(v) as usize).min(self.in_dim - 1);
                    m[(v, l)] = 1.0;
                }
                m
            }
            InitialFeatures::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut m = Matrix::zeros(n, self.in_dim);
                for v in 0..n {
                    for j in 0..self.in_dim {
                        m[(v, j)] = rng.random::<f64>() * 2.0 - 1.0;
                    }
                }
                m
            }
        }
    }

    /// Forward pass: final node embeddings (n × hidden).
    pub fn node_embeddings(&self, g: &Graph) -> Matrix {
        let adj = Matrix::from_flat(g.order(), g.order(), g.adjacency_flat());
        let mut h = self.initial_features(g);
        for layer in &self.layers {
            let (out, _) = layer.forward(&adj, &h);
            h = out;
        }
        h
    }

    /// Forward pass with caches (for training).
    fn forward_cached(&self, adj: &Matrix, x0: Matrix) -> (Matrix, Vec<LayerCache>) {
        let mut h = x0;
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (out, cache) = layer.forward(adj, &h);
            caches.push(cache);
            h = out;
        }
        (h, caches)
    }

    /// Sum readout: the graph embedding `Σ_v x_v` (Section 2.5's simplest
    /// aggregation of GNN node embeddings into a graph embedding).
    pub fn graph_embedding(&self, g: &Graph) -> Vec<f64> {
        let h = self.node_embeddings(g);
        sum_rows(&h)
    }
}

fn sum_rows(m: &Matrix) -> Vec<f64> {
    let mut out = vec![0.0; m.cols()];
    for i in 0..m.rows() {
        for (o, &x) in out.iter_mut().zip(m.row(i)) {
            *o += x;
        }
    }
    out
}

/// A GNN graph classifier: GNN → sum readout → linear softmax head.
pub struct GnnClassifier {
    /// The message-passing backbone.
    pub model: GnnModel,
    /// Head weights (`classes × hidden`).
    pub w_out: Matrix,
    /// Head bias.
    pub b_out: Vec<f64>,
}

/// Training hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f64,
    /// Epochs.
    pub epochs: usize,
    /// Gradient clipping threshold (∞-norm per matrix).
    pub clip: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.01,
            epochs: 60,
            clip: 5.0,
        }
    }
}

impl GnnClassifier {
    /// Fresh classifier.
    pub fn new(model: GnnModel, classes: usize, seed: u64) -> Self {
        let hidden = model.layers.last().map_or(model.in_dim, GnnLayer::out_dim);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w_out = Matrix::zeros(classes, hidden);
        let scale = (1.0 / hidden as f64).sqrt();
        for i in 0..classes {
            for j in 0..hidden {
                w_out[(i, j)] = (rng.random::<f64>() * 2.0 - 1.0) * scale;
            }
        }
        GnnClassifier {
            model,
            w_out,
            b_out: vec![0.0; classes],
        }
    }

    /// Class probabilities for one graph.
    fn predict_proba(&self, g: &Graph) -> Vec<f64> {
        let r = self.model.graph_embedding(g);
        let logits: Vec<f64> = (0..self.w_out.rows())
            .map(|c| {
                self.b_out[c]
                    + self
                        .w_out
                        .row(c)
                        .iter()
                        .zip(&r)
                        .map(|(w, x)| w * x)
                        .sum::<f64>()
            })
            .collect();
        softmax(&logits)
    }

    /// Predicted class.
    pub fn predict(&self, g: &Graph) -> usize {
        x2v_linalg::vector::argmax(&self.predict_proba(g)).expect("at least one class")
    }

    /// Trains with full-batch-per-graph SGD on cross-entropy; returns the
    /// loss trajectory (one value per epoch).
    pub fn train(&mut self, graphs: &[Graph], labels: &[usize], config: &TrainConfig) -> Vec<f64> {
        let _timer = x2v_obs::span("gnn/train");
        assert_eq!(graphs.len(), labels.len(), "label length mismatch");
        let adjs: Vec<Matrix> = graphs
            .iter()
            .map(|g| Matrix::from_flat(g.order(), g.order(), g.adjacency_flat()))
            .collect();
        let mut losses = Vec::with_capacity(config.epochs);
        for epoch in 0..config.epochs {
            x2v_obs::progress("gnn/epochs", (epoch + 1) as u64, config.epochs as u64);
            let mut epoch_loss = 0.0;
            for (i, g) in graphs.iter().enumerate() {
                epoch_loss += self.sgd_step(g, &adjs[i], labels[i], config);
            }
            losses.push(epoch_loss / graphs.len() as f64);
        }
        if let Some(last) = losses.last() {
            x2v_obs::observe("gnn/final_loss", *last);
        }
        losses
    }

    fn sgd_step(&mut self, g: &Graph, adj: &Matrix, label: usize, config: &TrainConfig) -> f64 {
        let x0 = self.model.initial_features(g);
        let (h, caches) = self.model.forward_cached(adj, x0);
        let r = sum_rows(&h);
        let logits: Vec<f64> = (0..self.w_out.rows())
            .map(|c| {
                self.b_out[c]
                    + self
                        .w_out
                        .row(c)
                        .iter()
                        .zip(&r)
                        .map(|(w, x)| w * x)
                        .sum::<f64>()
            })
            .collect();
        let probs = softmax(&logits);
        let loss = -(probs[label].max(1e-12)).ln();
        // Head gradients: dlogit_c = p_c − [c = label].
        let classes = probs.len();
        let hidden = r.len();
        let mut d_r = vec![0.0; hidden];
        for c in 0..classes {
            let d = probs[c] - f64::from(c == label);
            self.b_out[c] -= config.learning_rate * d;
            for j in 0..hidden {
                d_r[j] += d * self.w_out[(c, j)];
                self.w_out[(c, j)] -= config.learning_rate * d * r[j];
            }
        }
        // Sum readout broadcasts the gradient to every node.
        let n = h.rows();
        let mut d_h = Matrix::zeros(n, hidden);
        for v in 0..n {
            d_h.row_mut(v).copy_from_slice(&d_r);
        }
        // Backprop through the layers.
        let mut grads: Vec<LayerGrads> = Vec::with_capacity(self.model.layers.len());
        let mut d_cur = d_h;
        for (layer, cache) in self.model.layers.iter().zip(&caches).rev() {
            let (d_in, g) = layer.backward(adj, cache, &d_cur);
            grads.push(g);
            d_cur = d_in;
        }
        grads.reverse();
        for (layer, mut grad) in self.model.layers.iter_mut().zip(grads) {
            clip(&mut grad.w_agg, config.clip);
            clip(&mut grad.w_up, config.clip);
            layer.apply_grads(&grad, config.learning_rate);
        }
        loss
    }
}

fn clip(m: &mut Matrix, threshold: f64) {
    for x in m.as_mut_slice() {
        *x = x.clamp(-threshold, threshold);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use x2v_graph::generators::{cycle, random_tree, star};

    #[test]
    fn forward_shapes_and_invariance() {
        let model = GnnModel::new(1, 8, 2, Activation::Tanh, InitialFeatures::Constant, 5);
        let g = cycle(6);
        let h = model.node_embeddings(&g);
        assert_eq!((h.rows(), h.cols()), (6, 8));
        // Constant input on a vertex-transitive graph: all rows equal.
        for v in 1..6 {
            for j in 0..8 {
                assert!((h[(0, j)] - h[(v, j)]).abs() < 1e-9);
            }
        }
        // Graph embedding is permutation invariant.
        let p = x2v_graph::ops::permute(&g, &[3, 1, 5, 0, 4, 2]);
        let eg = model.graph_embedding(&g);
        let ep = model.graph_embedding(&p);
        for (a, b) in eg.iter().zip(&ep) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn classifier_learns_cycles_vs_trees() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for n in 5..11 {
            graphs.push(cycle(n));
            labels.push(0);
            graphs.push(random_tree(n, &mut rng));
            labels.push(1);
        }
        let model = GnnModel::new(1, 8, 2, Activation::Tanh, InitialFeatures::Constant, 3);
        let mut clf = GnnClassifier::new(model, 2, 4);
        let losses = clf.train(
            &graphs,
            &labels,
            &TrainConfig {
                epochs: 120,
                learning_rate: 0.02,
                clip: 5.0,
            },
        );
        assert!(
            losses.last().unwrap() < &losses[0],
            "loss should decrease: {:?} -> {:?}",
            losses[0],
            losses.last().unwrap()
        );
        let correct = graphs
            .iter()
            .zip(&labels)
            .filter(|(g, &l)| clf.predict(g) == l)
            .count();
        assert!(
            correct as f64 / graphs.len() as f64 >= 0.8,
            "train accuracy {correct}/{}",
            graphs.len()
        );
    }

    #[test]
    fn label_one_hot_features() {
        let model = GnnModel::new(3, 4, 1, Activation::Relu, InitialFeatures::LabelOneHot, 1);
        let g = star(2).with_labels(vec![2, 0, 1]).unwrap();
        let x0 = model.initial_features(&g);
        assert_eq!(x0[(0, 2)], 1.0);
        assert_eq!(x0[(1, 0)], 1.0);
        assert_eq!(x0[(2, 1)], 1.0);
    }

    #[test]
    fn random_features_are_seeded() {
        let model = GnnModel::new(
            4,
            4,
            1,
            Activation::Relu,
            InitialFeatures::Random { seed: 8 },
            1,
        );
        let g = cycle(4);
        let a = model.initial_features(&g);
        let b = model.initial_features(&g);
        assert!(a.approx_eq(&b, 0.0));
    }
}
