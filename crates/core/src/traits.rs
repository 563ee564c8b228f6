//! The embedding and kernel traits every method in the workspace implements.

use x2v_graph::Graph;

/// A vector embedding of whole graphs: `f: G ↦ ℝ^d`.
///
/// Implementations may be *inductive* (applicable to any graph — hom
/// vectors, WL features, GNNs) or *transductive* (defined only on a fixed
/// training set — graph2vec); transductive implementations document what
/// they do on unseen graphs.
pub trait GraphEmbedding {
    /// Embeds one graph.
    fn embed(&self, g: &Graph) -> Vec<f64>;

    /// The embedding dimension.
    fn dimension(&self) -> usize;

    /// Embeds a dataset (override for batch-efficient implementations).
    fn embed_all(&self, graphs: &[Graph]) -> Vec<Vec<f64>> {
        graphs.iter().map(|g| self.embed(g)).collect()
    }

    /// The induced distance `dist_f(G, H) = ‖f(G) − f(H)‖₂` (the paper's
    /// `dist_f`).
    fn induced_distance(&self, g: &Graph, h: &Graph) -> f64 {
        x2v_linalg::vector::euclidean(&self.embed(g), &self.embed(h))
    }
}

/// A vector embedding of the nodes of a graph: `f: V(G) ↦ ℝ^d`.
pub trait NodeEmbedding {
    /// Embeds every node of `g`; `result[v]` is the vector of node `v`.
    fn embed_nodes(&self, g: &Graph) -> Vec<Vec<f64>>;

    /// The embedding dimension.
    fn dimension(&self) -> usize;
}

/// The per-dataset row evaluator of [`GraphKernel::rows`]:
/// `(i, out) ↦ out[k] = K(graphs[i], graphs[i + k])`.
pub type RowEvaluator<'a> = Box<dyn Fn(usize, &mut [f64]) + Send + Sync + 'a>;

/// A kernel function on graphs (Section 2.4): symmetric and positive
/// semidefinite, implicitly an inner product of some embedding.
pub trait GraphKernel {
    /// Evaluates `K(G, H)`.
    fn eval(&self, g: &Graph, h: &Graph) -> f64;

    /// Prepares `graphs` once and returns the row evaluator
    /// `(i, out) ↦ out[k] = K(graphs[i], graphs[i + k])`, with
    /// `out.len() == graphs.len() - i`: the upper triangle of row `i`,
    /// diagonal first. Every Gram builder fills its rows from it.
    ///
    /// The default evaluates [`GraphKernel::eval`] pair by pair. Kernels
    /// with an explicit feature map override it to extract each graph's
    /// features once and fill a row from them. An override must return
    /// exactly the bits `eval` returns for every pair: a feature-map row
    /// is exact when it sums the same products in an order that cannot
    /// change the result (integer-valued sums below `2^53`) and combines
    /// them as `eval` does.
    fn rows<'a>(&'a self, graphs: &'a [Graph]) -> RowEvaluator<'a>
    where
        Self: Sync,
    {
        Box::new(move |i, out| {
            for (o, h) in out.iter_mut().zip(&graphs[i..]) {
                *o = self.eval(&graphs[i], h);
            }
        })
    }

    /// The Gram matrix over a dataset, filled from [`GraphKernel::rows`].
    /// Row-major, symmetric.
    fn gram(&self, graphs: &[Graph]) -> x2v_linalg::Matrix
    where
        Self: Sync,
    {
        let row = self.rows(graphs);
        let n = graphs.len();
        let mut m = x2v_linalg::Matrix::zeros(n, n);
        for i in 0..n {
            row(i, &mut m.row_mut(i)[i..]);
            for j in i + 1..n {
                m[(j, i)] = m[(i, j)];
            }
        }
        m
    }
}

/// The kernel an explicit embedding `f` induces: `K(G, H) = ⟨f(G), f(H)⟩`.
///
/// Every vector embedding yields a kernel this way, which is the survey's
/// bridge from embeddings to kernel methods. Its own test asserts that it
/// is the dot product of the two embeddings.
pub struct EmbeddingKernel<E: GraphEmbedding>(pub E);

impl<E: GraphEmbedding> GraphKernel for EmbeddingKernel<E> {
    fn eval(&self, g: &Graph, h: &Graph) -> f64 {
        x2v_linalg::vector::dot(&self.0.embed(g), &self.0.embed(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{cycle, path};

    struct OrderSize;

    impl GraphEmbedding for OrderSize {
        fn embed(&self, g: &Graph) -> Vec<f64> {
            vec![g.order() as f64, g.size() as f64]
        }
        fn dimension(&self) -> usize {
            2
        }
    }

    #[test]
    fn induced_distance_is_euclidean() {
        let e = OrderSize;
        // C4: (4,4); P4: (4,3) → distance 1.
        assert!((e.induced_distance(&cycle(4), &path(4)) - 1.0).abs() < 1e-12);
        assert_eq!(e.induced_distance(&cycle(5), &cycle(5)), 0.0);
    }

    #[test]
    fn embedding_kernel_is_dot_product() {
        let k = EmbeddingKernel(OrderSize);
        assert_eq!(k.eval(&cycle(4), &path(4)), 16.0 + 12.0);
        let gram = k.gram(&[cycle(3), path(3)]);
        assert_eq!(gram[(0, 1)], gram[(1, 0)]);
        assert_eq!(gram[(0, 0)], 9.0 + 9.0);
    }
}
