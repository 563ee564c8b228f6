//! Higher-dimensional GNNs (Section 3.6, after Morris et al. \[78\]): the
//! "fully invariant way to increase the expressiveness of GNNs" — message
//! passing on *pairs* of vertices instead of vertices.
//!
//! A 2-GNN keeps a state per ordered pair `(u, v) ∈ V²`, initialised from
//! the pair's atomic type (equal / adjacent / non-adjacent), and updates by
//! aggregating over the exchange neighbourhoods `{(w, v)}` and `{(u, w)}`.
//! Crucially the aggregation includes a *joint* term
//! `Σ_w s(w,v) ⊙ s(u,w)` — summing the two slots separately would be the
//! oblivious variant, which collapses to 1-WL power; the multiplicative
//! pairing is what mirrors folklore 2-WL's joint colour pairs. With constant-per-type inputs it
//! is bounded by 2-WL exactly as 1-dimensional GNNs are bounded by 1-WL,
//! and it therefore separates pairs (C6 vs 2×C3) that no 1-dimensional
//! invariant GNN can.
//!
//! Forward-only (random or fixed weights): the expressiveness statements
//! the paper makes are about the function class, not about training.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_graph::Graph;
use x2v_linalg::Matrix;

/// A 2-dimensional GNN with `layers` rounds of pair message passing.
pub struct HigherOrderGnn {
    /// Per-layer weights applied to the first-slot aggregate (`d × d`).
    w_first: Vec<Matrix>,
    /// Per-layer weights applied to the second-slot aggregate (`d × d`).
    w_second: Vec<Matrix>,
    /// Per-layer weights applied to the pair's own state (`d × d`).
    w_self: Vec<Matrix>,
    /// Per-layer weights applied to the joint (elementwise-product)
    /// aggregate (`d × d`).
    w_joint: Vec<Matrix>,
    dim: usize,
}

impl HigherOrderGnn {
    /// Random model with `layers` layers and width `dim`.
    pub fn new(dim: usize, layers: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut init = || {
            let mut m = Matrix::zeros(dim, dim);
            let scale = (1.0 / dim as f64).sqrt();
            for i in 0..dim {
                for j in 0..dim {
                    m[(i, j)] = (rng.random::<f64>() * 2.0 - 1.0) * scale;
                }
            }
            m
        };
        HigherOrderGnn {
            w_first: (0..layers).map(|_| init()).collect(),
            w_second: (0..layers).map(|_| init()).collect(),
            w_self: (0..layers).map(|_| init()).collect(),
            w_joint: (0..layers).map(|_| init()).collect(),
            dim,
        }
    }

    /// Atomic-type initial state of a pair: a fixed vector per type
    /// (equal / edge / non-edge), broadcast into the model width.
    fn initial(&self, g: &Graph) -> Vec<Vec<f64>> {
        let n = g.order();
        let mut states = vec![vec![0.0; self.dim]; n * n];
        for u in 0..n {
            for v in 0..n {
                let s = &mut states[u * n + v];
                let atom = if u == v {
                    0
                } else if g.has_edge(u, v) {
                    1
                } else {
                    2
                };
                // Distinct constant patterns per atomic type.
                for (k, x) in s.iter_mut().enumerate() {
                    *x = match atom {
                        0 => 1.0,
                        1 => {
                            if k % 2 == 0 {
                                1.0
                            } else {
                                -1.0
                            }
                        }
                        _ => 0.25,
                    };
                }
            }
        }
        states
    }

    /// Runs the pair message passing and returns the sum-readout graph
    /// embedding (invariant by construction).
    pub fn graph_embedding(&self, g: &Graph) -> Vec<f64> {
        let n = g.order();
        let mut states = self.initial(g);
        let mut agg_first = vec![0.0f64; self.dim];
        let mut agg_second = vec![0.0f64; self.dim];
        let mut agg_joint = vec![0.0f64; self.dim];
        for layer in 0..self.w_first.len() {
            let mut next = vec![vec![0.0; self.dim]; n * n];
            for u in 0..n {
                for v in 0..n {
                    agg_first.iter_mut().for_each(|x| *x = 0.0);
                    agg_second.iter_mut().for_each(|x| *x = 0.0);
                    agg_joint.iter_mut().for_each(|x| *x = 0.0);
                    for w in 0..n {
                        let fst = &states[w * n + v];
                        let snd = &states[u * n + w];
                        for k in 0..self.dim {
                            agg_first[k] += fst[k];
                            agg_second[k] += snd[k];
                            agg_joint[k] += fst[k] * snd[k];
                        }
                    }
                    let own = &states[u * n + v];
                    let out = &mut next[u * n + v];
                    for i in 0..self.dim {
                        let mut acc = 0.0;
                        for k in 0..self.dim {
                            acc += self.w_self[layer][(i, k)] * own[k]
                                + self.w_first[layer][(i, k)] * agg_first[k]
                                + self.w_second[layer][(i, k)] * agg_second[k]
                                + self.w_joint[layer][(i, k)] * agg_joint[k];
                        }
                        out[i] = acc.tanh();
                    }
                }
            }
            states = next;
        }
        let mut readout = vec![0.0; self.dim];
        for s in &states {
            for (r, &x) in readout.iter_mut().zip(s) {
                *r += x;
            }
        }
        readout
    }

    /// Whether this model separates two graphs by more than `tol`.
    pub fn separates(&self, g: &Graph, h: &Graph, tol: f64) -> bool {
        x2v_linalg::vector::euclidean(&self.graph_embedding(g), &self.graph_embedding(h)) > tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::cycle;
    use x2v_graph::ops::{disjoint_union, permute};

    #[test]
    fn invariant_under_isomorphism() {
        let model = HigherOrderGnn::new(6, 2, 1);
        let g = cycle(6);
        let h = permute(&g, &[3, 5, 1, 0, 4, 2]);
        let eg = model.graph_embedding(&g);
        let eh = model.graph_embedding(&h);
        for (a, b) in eg.iter().zip(&eh) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn separates_the_1wl_blind_pair() {
        // C6 vs 2×C3: invisible to every invariant 1-dimensional GNN
        // (Section 3.6), separated by 2-dimensional models.
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        let separated = (0..5)
            .filter(|&seed| HigherOrderGnn::new(6, 2, seed).separates(&c6, &tt, 1e-6))
            .count();
        assert!(
            separated >= 4,
            "2-GNNs should separate the pair ({separated}/5)"
        );
    }

    #[test]
    fn does_not_separate_identical_graphs() {
        let g = cycle(5);
        let model = HigherOrderGnn::new(4, 2, 9);
        assert!(!model.separates(&g, &g, 1e-9));
    }
}
