//! Small vector helpers: dot products, norms, cosine similarity.

/// Dot product.
///
/// # Panics
/// On length mismatch.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (`ℓ₂`) norm.
#[inline]
fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean distance.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Cosine similarity `⟨a,b⟩ / (‖a‖‖b‖)`; `0.0` if either vector is zero.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = norm2(a);
    let nb = norm2(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Normalises to unit `ℓ₂` norm in place (no-op on the zero vector).
pub fn normalize(a: &mut [f64]) {
    let n = norm2(a);
    if n > 0.0 {
        for x in a {
            *x /= n;
        }
    }
}

/// Index of the maximum entry (first on ties); `None` on empty input.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if best.is_none_or(|(_, b)| v > b) {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

/// Numerically-stable softmax.
pub fn softmax(a: &[f64]) -> Vec<f64> {
    let m = a.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = a.iter().map(|&x| (x - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn cosine_cases() {
        assert!((cosine(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_and_normalize() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn softmax_and_argmax() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[2] > s[1] && s[1] > s[0]);
        assert_eq!(argmax(&[0.5, 2.0, 1.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
