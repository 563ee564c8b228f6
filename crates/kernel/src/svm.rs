//! Kernel support vector machines (Cortes–Vapnik, Section 2.4).
//!
//! They operate purely on Gram matrices — the "implicit embedding" usage of
//! kernels the paper describes: the feature vectors are never materialised.
//!
//! [`KernelSvm`] solves the C-SVC dual
//!
//! ```text
//! min_α  ½ αᵀQα − Σ α_i   s.t.  0 ≤ α_i ≤ C,  Σ y_i α_i = 0,   Q_ij = y_i y_j K_ij
//! ```
//!
//! by SMO over a maintained gradient `G = Qα − 1`, with the second-order
//! working-set selection (WSS2) of Fan, Chen & Lin, "Working Set Selection
//! Using Second Order Information for Training SVM", JMLR 6 (2005) — the
//! solver of LIBSVM. Each step picks `i` as the maximal violator among the
//! coordinates that may move up, then `j` as the coordinate whose pairing
//! with `i` decreases the objective most, moves `(α_i, α_j)` to the
//! clipped optimum of that two-variable problem, and updates `G` from Gram
//! rows `i` and `j` in `O(n)`. A non-positive curvature
//! `a_ij = K_ii + K_jj − 2K_ij` (duplicate rows of a normalised Gram give
//! `a_ij = 0`) is replaced by LIBSVM's `τ = 1e-12`. Training stops when
//! the maximal-violating-pair gap `m(α) − M(α)` is at most
//! [`SvmConfig::tol`]. The rule has no randomness: the same Gram and labels
//! give bitwise-identical `alpha` and `bias`.
//!
//! Training reports `svm/iterations` (working-set steps, one pair update
//! each) and `svm/support_vectors` to `x2v-obs`.

use x2v_guard::{Budget, GuardError};
use x2v_linalg::Matrix;

/// The guarded-site name for SMO training.
pub const SITE: &str = "svm/train";

/// LIBSVM's stand-in for a non-positive curvature `a_ij`.
const TAU: f64 = 1e-12;

/// A trained binary kernel SVM.
#[derive(Debug)]
pub struct KernelSvm {
    /// Dual coefficients `α_i` (one per training point).
    pub alpha: Vec<f64>,
    /// Bias term (LIBSVM's `−ρ`).
    pub bias: f64,
    /// Training labels in `{−1, +1}`.
    pub labels: Vec<f64>,
}

/// SVM hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct SvmConfig {
    /// Box constraint `C`.
    pub c: f64,
    /// Stopping tolerance on the maximal-violating-pair gap `m(α) − M(α)`.
    pub tol: f64,
    /// Cap on working-set steps (one two-coordinate update each). A solve
    /// still above `tol` after this many steps is non-convergent. The
    /// default is far above what any E13, E14 or `e2ebench` machine takes
    /// (at most 116 steps, at `n = 88`).
    pub max_iters: usize,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            c: 1.0,
            tol: 1e-3,
            max_iters: 100_000,
        }
    }
}

/// The outcome of one solve, converged or stopped at the step cap.
struct Solution {
    model: KernelSvm,
    converged: bool,
    steps: u64,
    gap: f64,
}

impl KernelSvm {
    /// Trains on a training Gram matrix and `±1` labels by SMO.
    ///
    /// Metered against the ambient [`Budget`]. On non-convergence the
    /// model at the step cap is returned and `guard/degraded` is recorded
    /// — use [`KernelSvm::try_train`] to surface the diagnostic instead.
    ///
    /// # Panics
    /// On shape mismatch, labels outside `{−1, +1}`, non-finite kernel
    /// values, or an ambient budget trip.
    pub fn train(gram: &Matrix, y: &[f64], config: SvmConfig) -> Self {
        let budget = x2v_guard::ambient();
        let solution = Self::solve(gram, y, config, &budget).unwrap_or_else(|e| panic!("{e}"));
        if !solution.converged {
            x2v_guard::note_degraded();
        }
        solution.model
    }

    /// Trains within `budget`, surfacing every failure as a typed error.
    ///
    /// # Errors
    /// [`GuardError::InvalidInput`] on shape/label violations,
    /// [`GuardError::NumericFailure`] on a non-finite kernel value or SMO
    /// step, [`GuardError::BudgetExhausted`] / [`GuardError::Cancelled`]
    /// when the budget trips (`n` work units per working-set step), and
    /// [`GuardError::NonConvergence`] when `max_iters` steps leave the gap
    /// above `tol`.
    pub fn try_train(
        gram: &Matrix,
        y: &[f64],
        config: SvmConfig,
        budget: &Budget,
    ) -> x2v_guard::Result<Self> {
        let solution = Self::solve(gram, y, config, budget)?;
        if !solution.converged {
            return Err(GuardError::NonConvergence {
                site: SITE,
                iterations: solution.steps,
                detail: format!(
                    "SMO hit the {}-step cap with maximal-violating-pair gap {:.3e} > tol {}; \
                     consider raising max_iters or loosening tol",
                    config.max_iters, solution.gap, config.tol
                ),
            });
        }
        Ok(solution.model)
    }

    /// SMO from `α = 0` with WSS2 pair selection, until the gap is at
    /// most `tol` or `max_iters` steps are spent.
    fn solve(
        gram: &Matrix,
        y: &[f64],
        config: SvmConfig,
        budget: &Budget,
    ) -> x2v_guard::Result<Solution> {
        let _timer = x2v_obs::span("svm/train");
        let n = y.len();
        if gram.rows() != n || !gram.is_square() {
            return Err(GuardError::invalid_input(
                SITE,
                format!(
                    "gram size mismatch: gram must be square of side {n} (got {}×{})",
                    gram.rows(),
                    gram.cols()
                ),
            ));
        }
        if !y.iter().all(|&l| l == 1.0 || l == -1.0) {
            return Err(GuardError::invalid_input(SITE, "labels must be ±1"));
        }
        if let Some(at) = gram.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(GuardError::numeric(
                SITE,
                format!("non-finite kernel value at ({}, {})", at / n, at % n),
            ));
        }
        let c = config.c;
        let diag: Vec<f64> = (0..n).map(|i| gram[(i, i)]).collect();
        let mut alpha = vec![0.0f64; n];
        let mut grad = vec![-1.0f64; n];
        let mut meter = budget.meter(SITE);
        let mut steps = 0u64;
        let (converged, gap) = loop {
            let (gap, pair) = select_working_set(gram, &diag, y, &alpha, &grad, c);
            let Some((i, j)) = pair.filter(|_| gap > config.tol) else {
                break (true, gap);
            };
            if steps == config.max_iters as u64 {
                break (false, gap);
            }
            steps += 1;
            meter.tick(n as u64)?;
            let (ri, rj) = (gram.row(i), gram.row(j));
            let a = diag[i] + diag[j] - 2.0 * ri[j];
            let quad = if a > 0.0 { a } else { TAU };
            let (old_i, old_j) = (alpha[i], alpha[j]);
            // The two-variable subproblem along the feasible direction,
            // then clipped back into the box (LIBSVM's update, C_i = C_j).
            let (new_i, new_j) = if y[i] != y[j] {
                let delta = checked_step((-grad[i] - grad[j]) / quad, i, j)?;
                let diff = old_i - old_j;
                let (mut ai, mut aj) = (old_i + delta, old_j + delta);
                if diff > 0.0 {
                    if aj < 0.0 {
                        (ai, aj) = (diff, 0.0);
                    }
                    if ai > c {
                        (ai, aj) = (c, c - diff);
                    }
                } else {
                    if ai < 0.0 {
                        (ai, aj) = (0.0, -diff);
                    }
                    if aj > c {
                        (ai, aj) = (c + diff, c);
                    }
                }
                (ai, aj)
            } else {
                let delta = checked_step((grad[i] - grad[j]) / quad, i, j)?;
                let sum = old_i + old_j;
                let (mut ai, mut aj) = (old_i - delta, old_j + delta);
                if sum > c {
                    if ai > c {
                        (ai, aj) = (c, sum - c);
                    }
                    if aj > c {
                        (ai, aj) = (sum - c, c);
                    }
                } else {
                    if aj < 0.0 {
                        (ai, aj) = (sum, 0.0);
                    }
                    if ai < 0.0 {
                        (ai, aj) = (0.0, sum);
                    }
                }
                (ai, aj)
            };
            alpha[i] = new_i;
            alpha[j] = new_j;
            // G_k += Q_ki Δα_i + Q_kj Δα_j, with Q_kl = y_k y_l K_kl.
            let (di, dj) = (y[i] * (new_i - old_i), y[j] * (new_j - old_j));
            for (k, g) in grad.iter_mut().enumerate() {
                *g += y[k] * (di * ri[k] + dj * rj[k]);
            }
        };
        x2v_obs::counter_add("svm/iterations", steps);
        let sv = alpha.iter().filter(|&&a| a > 1e-9).count();
        x2v_obs::observe("svm/support_vectors", sv as f64);
        let bias = -rho(y, &alpha, &grad, c);
        Ok(Solution {
            model: KernelSvm {
                alpha,
                bias,
                labels: y.to_vec(),
            },
            converged,
            steps,
            gap,
        })
    }

    /// Decision value for a query given its kernel row against the training
    /// set (`k_query[i] = K(train_i, query)`).
    pub fn decision(&self, k_query: &[f64]) -> f64 {
        assert_eq!(
            k_query.len(),
            self.alpha.len(),
            "kernel row length mismatch"
        );
        let mut s = self.bias;
        for i in 0..self.alpha.len() {
            if self.alpha[i] != 0.0 {
                s += self.alpha[i] * self.labels[i] * k_query[i];
            }
        }
        s
    }

    /// Predicted `±1` label.
    pub fn predict(&self, k_query: &[f64]) -> f64 {
        if self.decision(k_query) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// WSS2: returns the maximal-violating-pair gap `m(α) − M(α)` and the
/// working set `(i, j)`, or `None` when no pair can decrease the objective.
///
/// `I_up` holds the coordinates free to move in the `+y` direction
/// (`y = +1, α < C` or `y = −1, α > 0`), `I_low` those free to move in the
/// `−y` direction. `i` maximises `−y_t G_t` over `I_up`; `j` minimises the
/// second-order decrease `−b_ij² / a_ij` over the `t ∈ I_low` with
/// `b_ij = m(α) + y_t G_t > 0`. Ties go to the last index, as in LIBSVM.
fn select_working_set(
    gram: &Matrix,
    diag: &[f64],
    y: &[f64],
    alpha: &[f64],
    grad: &[f64],
    c: f64,
) -> (f64, Option<(usize, usize)>) {
    let mut m = f64::NEG_INFINITY;
    let mut i = None;
    for t in 0..y.len() {
        let up = (y[t] > 0.0 && alpha[t] < c) || (y[t] < 0.0 && alpha[t] > 0.0);
        if up && -y[t] * grad[t] >= m {
            m = -y[t] * grad[t];
            i = Some(t);
        }
    }
    let Some(i) = i else {
        return (f64::NEG_INFINITY, None);
    };
    let ri = gram.row(i);
    let mut neg_big_m = f64::NEG_INFINITY;
    let mut j = None;
    let mut best = f64::INFINITY;
    for t in 0..y.len() {
        let low = (y[t] > 0.0 && alpha[t] > 0.0) || (y[t] < 0.0 && alpha[t] < c);
        if !low {
            continue;
        }
        let yg = y[t] * grad[t];
        neg_big_m = neg_big_m.max(yg);
        let b = m + yg;
        if b > 0.0 {
            let a = diag[i] + diag[t] - 2.0 * ri[t];
            let decrease = -(b * b) / if a > 0.0 { a } else { TAU };
            if decrease <= best {
                best = decrease;
                j = Some(t);
            }
        }
    }
    (m + neg_big_m, j.map(|j| (i, j)))
}

/// The SMO step length, passed through the NaN fault hook and checked.
fn checked_step(delta: f64, i: usize, j: usize) -> x2v_guard::Result<f64> {
    let delta = x2v_guard::faults::poison_f64(SITE, delta);
    if delta.is_finite() {
        Ok(delta)
    } else {
        Err(GuardError::numeric(
            SITE,
            format!("non-finite SMO step on working set ({i}, {j})"),
        ))
    }
}

/// LIBSVM's `ρ`: the mean of `y_i G_i` over free support vectors, or,
/// when none is free, the midpoint of the interval the bounded ones allow.
fn rho(y: &[f64], alpha: &[f64], grad: &[f64], c: f64) -> f64 {
    let (mut ub, mut lb) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut free, mut sum_free) = (0usize, 0.0f64);
    for t in 0..y.len() {
        let yg = y[t] * grad[t];
        // `y = −1` at C or `y = +1` at 0 caps ρ from above; the other
        // two bounded cases cap it from below.
        let caps_above = if alpha[t] >= c {
            y[t] < 0.0
        } else if alpha[t] <= 0.0 {
            y[t] > 0.0
        } else {
            free += 1;
            sum_free += yg;
            continue;
        };
        if caps_above {
            ub = ub.min(yg);
        } else {
            lb = lb.max(yg);
        }
    }
    if free > 0 {
        sum_free / free as f64
    } else {
        // One side is unbounded only when every label is the same.
        match (ub.is_finite(), lb.is_finite()) {
            (true, true) => (ub + lb) / 2.0,
            (true, false) => ub,
            (false, true) => lb,
            (false, false) => 0.0,
        }
    }
}

/// One-vs-rest multiclass wrapper.
pub struct MulticlassSvm {
    machines: Vec<KernelSvm>,
    classes: Vec<usize>,
}

impl MulticlassSvm {
    /// Trains one binary machine per distinct class.
    pub fn train(gram: &Matrix, labels: &[usize], config: SvmConfig) -> Self {
        let _timer = x2v_obs::span("svm/train_multiclass");
        let mut classes: Vec<usize> = labels.to_vec();
        classes.sort_unstable();
        classes.dedup();
        let machines = classes
            .iter()
            .map(|&c| {
                let y: Vec<f64> = labels
                    .iter()
                    .map(|&l| if l == c { 1.0 } else { -1.0 })
                    .collect();
                KernelSvm::train(gram, &y, config)
            })
            .collect();
        MulticlassSvm { machines, classes }
    }

    /// Predicts the class with the highest decision value; on a tie, the
    /// last of the tied classes.
    pub fn predict(&self, k_query: &[f64]) -> usize {
        let (best, _) = self
            .machines
            .iter()
            .map(|m| m.decision(k_query))
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite decisions"))
            .expect("at least one class");
        self.classes[best]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear kernel Gram matrix from explicit points.
    fn gram_of(points: &[Vec<f64>]) -> Matrix {
        let n = points.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = x2v_linalg::vector::dot(&points[i], &points[j]);
            }
        }
        m
    }

    fn krow(points: &[Vec<f64>], q: &[f64]) -> Vec<f64> {
        points
            .iter()
            .map(|p| x2v_linalg::vector::dot(p, q))
            .collect()
    }

    #[test]
    fn separable_problem_solved() {
        let pts = vec![
            vec![2.0, 2.0],
            vec![2.5, 1.5],
            vec![3.0, 2.5],
            vec![-2.0, -2.0],
            vec![-2.5, -1.0],
            vec![-3.0, -2.5],
        ];
        let y = vec![1.0, 1.0, 1.0, -1.0, -1.0, -1.0];
        let svm = KernelSvm::train(&gram_of(&pts), &y, SvmConfig::default());
        for (p, &label) in pts.iter().zip(&y) {
            assert_eq!(svm.predict(&krow(&pts, p)), label);
        }
        assert_eq!(svm.predict(&krow(&pts, &[5.0, 5.0])), 1.0);
        assert_eq!(svm.predict(&krow(&pts, &[-5.0, -4.0])), -1.0);
        assert!(svm.alpha.iter().filter(|&&a| a > 1e-9).count() >= 2);
    }

    #[test]
    fn noisy_problem_soft_margin() {
        // One mislabelled point; soft margin should still get the rest.
        let pts = vec![
            vec![1.0],
            vec![1.2],
            vec![0.9],
            vec![-1.0],
            vec![-1.1],
            vec![1.05], // labelled -1 (noise)
        ];
        let y = vec![1.0, 1.0, 1.0, -1.0, -1.0, -1.0];
        let svm = KernelSvm::train(
            &gram_of(&pts),
            &y,
            SvmConfig {
                c: 0.5,
                ..Default::default()
            },
        );
        assert_eq!(svm.predict(&krow(&pts, &[2.0])), 1.0);
        assert_eq!(svm.predict(&krow(&pts, &[-2.0])), -1.0);
    }

    #[test]
    fn multiclass_one_vs_rest() {
        let pts = vec![
            vec![0.0, 5.0],
            vec![0.3, 5.2],
            vec![5.0, 0.0],
            vec![5.1, 0.4],
            vec![-5.0, -5.0],
            vec![-5.2, -4.8],
        ];
        let labels = vec![0, 0, 1, 1, 2, 2];
        let m = MulticlassSvm::train(&gram_of(&pts), &labels, SvmConfig::default());
        assert_eq!(m.predict(&krow(&pts, &[0.1, 6.0])), 0);
        assert_eq!(m.predict(&krow(&pts, &[6.0, 0.1])), 1);
        assert_eq!(m.predict(&krow(&pts, &[-6.0, -6.0])), 2);
    }

    #[test]
    #[should_panic(expected = "labels must be ±1")]
    fn bad_labels_rejected() {
        let _ = KernelSvm::train(&Matrix::identity(2), &[0.0, 1.0], SvmConfig::default());
    }

    #[test]
    fn try_train_rejects_non_square_gram() {
        let gram = Matrix::zeros(2, 3);
        let err = KernelSvm::try_train(
            &gram,
            &[1.0, -1.0],
            SvmConfig::default(),
            &Budget::unlimited(),
        )
        .unwrap_err();
        assert!(matches!(err, GuardError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn try_train_matches_infallible_when_unlimited() {
        let pts = vec![
            vec![2.0, 2.0],
            vec![3.0, 2.5],
            vec![-2.0, -2.0],
            vec![-3.0, -2.5],
        ];
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let gram = gram_of(&pts);
        let a = KernelSvm::train(&gram, &y, SvmConfig::default());
        let b = KernelSvm::try_train(&gram, &y, SvmConfig::default(), &Budget::unlimited())
            .expect("separable problem converges");
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.bias, b.bias);
    }

    #[test]
    fn budget_trips_with_typed_error() {
        let pts = vec![
            vec![2.0, 2.0],
            vec![3.0, 2.5],
            vec![-2.0, -2.0],
            vec![-3.0, -2.5],
        ];
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let err = KernelSvm::try_train(
            &gram_of(&pts),
            &y,
            SvmConfig::default(),
            &Budget::unlimited().with_work_limit(3),
        )
        .unwrap_err();
        assert!(matches!(err, GuardError::BudgetExhausted { .. }), "{err}");
    }

    /// An indefinite "Gram" matrix with clashing labels: SMO needs two
    /// working-set steps on it.
    fn hostile() -> (Matrix, Vec<f64>) {
        let mut gram = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                gram[(i, j)] = if i == j { -1.0 } else { 1.0 };
            }
        }
        (gram, vec![1.0, -1.0, 1.0, -1.0])
    }

    #[test]
    fn non_convergence_reports_step_count() {
        let (gram, y) = hostile();
        let config = SvmConfig {
            max_iters: 1,
            ..Default::default()
        };
        match KernelSvm::try_train(&gram, &y, config, &Budget::unlimited()) {
            Err(e @ GuardError::NonConvergence { iterations, .. }) => {
                assert_eq!(iterations, 1);
                assert!(
                    e.to_string().contains("failed to converge after 1 steps"),
                    "{e}"
                );
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
        let uncapped = KernelSvm::try_train(&gram, &y, SvmConfig::default(), &Budget::unlimited());
        assert!(uncapped.is_ok(), "two steps converge: {uncapped:?}");
    }

    #[test]
    fn infallible_train_degrades_instead_of_failing() {
        // Same hostile instance and cap: the panicking API must still
        // return the model at the cap (recorded as guard/degraded) rather
        // than abort.
        let (gram, y) = hostile();
        let config = SvmConfig {
            max_iters: 1,
            ..Default::default()
        };
        let model = KernelSvm::train(&gram, &y, config);
        assert_eq!(model.alpha.len(), 4);
    }

    #[test]
    fn multiclass_tie_goes_to_the_last_class() {
        let flat = |bias| KernelSvm {
            alpha: vec![0.0; 2],
            bias,
            labels: vec![1.0, -1.0],
        };
        let m = MulticlassSvm {
            machines: vec![flat(0.5), flat(0.5), flat(-1.0)],
            classes: vec![3, 5, 7],
        };
        assert_eq!(m.predict(&[0.0, 0.0]), 5);
    }
}
