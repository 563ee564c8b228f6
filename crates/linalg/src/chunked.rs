//! A chunked, autovectorizable `axpy` kernel.
//!
//! `y += alpha * x` is element-wise, so splitting the loop into chunks of
//! [`LANES`] changes no result versus the naive loop: it only breaks the
//! loop-carried bounds checks so the backend vectorises the body. The
//! output is a pure function of the inputs — the same bits on every
//! machine and at every `X2V_THREADS`, the house determinism invariant.
//!
//! Used by SGNS training (`x2v-embed`) for its gradient updates.
//! Reductions (`dot`, `sum`) deliberately stay plain sequential loops in
//! their callers: a lane-chunked reduction reorders the additions and so
//! changes result bits, and at the repo's short vector lengths (SVM
//! feature rows ~24 wide, GNN layers 16 wide) it measured slower than the
//! serial chain — a trial regressed `gnn/forward` and `kernel/gram_svm`
//! 35–57% in the bench suite.

/// Elements per chunk. Eight f64 lanes fill one AVX-512 register or two
/// AVX2 registers.
pub const LANES: usize = 8;

/// Chunked `f64` `y += alpha * x`.
///
/// Element-wise, so chunking changes no results versus the naive loop —
/// it only breaks the loop-carried bounds checks so the backend
/// vectorises the body.
///
/// # Panics
/// On length mismatch.
#[inline]
pub fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let chunks = x.len() / LANES;
    for c in 0..chunks {
        let xs = &x[c * LANES..(c + 1) * LANES];
        let ys = &mut y[c * LANES..(c + 1) * LANES];
        for l in 0..LANES {
            ys[l] += alpha * xs[l];
        }
    }
    for i in chunks * LANES..x.len() {
        y[i] += alpha * x[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_is_bit_identical_to_naive() {
        let x: Vec<f64> = (0..77).map(|i| (i as f64 * 0.3).tan()).collect();
        let mut y1: Vec<f64> = (0..77).map(|i| i as f64 * 0.01).collect();
        let mut y2 = y1.clone();
        axpy_f64(0.37, &x, &mut y1);
        for (yi, xi) in y2.iter_mut().zip(&x) {
            *yi += 0.37 * xi;
        }
        for (a, b) in y1.iter().zip(&y2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatch_panics() {
        let mut y = [0.0];
        axpy_f64(1.0, &[1.0, 2.0], &mut y);
    }
}
