//! Induced distance measures and simple geometry-based downstream tools.
//!
//! The paper's framing: an embedding `f` *induces* a distance
//! `dist_f(X, Y) = ‖f(X) − f(Y)‖`, and downstream quality of
//! nearest-neighbour-style methods certifies that the induced geometry is
//! semantically meaningful. This module provides the 1-NN classifier and
//! the accuracy measure used across examples and experiments.

use x2v_linalg::vector::euclidean;

/// 1-nearest-neighbour prediction: for each query vector, the label of the
/// closest training vector.
pub fn knn1_predict(
    train: &[Vec<f64>],
    train_labels: &[usize],
    queries: &[Vec<f64>],
) -> Vec<usize> {
    assert_eq!(train.len(), train_labels.len(), "label length mismatch");
    assert!(!train.is_empty(), "empty training set");
    queries
        .iter()
        .map(|q| {
            let best = (0..train.len())
                .min_by(|&i, &j| {
                    euclidean(q, &train[i])
                        .partial_cmp(&euclidean(q, &train[j]))
                        .expect("finite distances")
                })
                .expect("non-empty training set");
            train_labels[best]
        })
        .collect()
}

/// Classification accuracy.
pub fn accuracy(predicted: &[usize], actual: &[usize]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    let hits = predicted.iter().zip(actual).filter(|(p, a)| p == a).count();
    hits as f64 / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn1_classifies_clusters() {
        let train = vec![vec![0.0], vec![0.1], vec![10.0], vec![10.1]];
        let labels = vec![0, 0, 1, 1];
        let pred = knn1_predict(&train, &labels, &[vec![0.05], vec![9.9]]);
        assert_eq!(pred, vec![0, 1]);
    }

    #[test]
    fn accuracy_counts() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 4]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }
}
