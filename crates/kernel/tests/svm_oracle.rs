//! Solver-independent checks on `KernelSvm`'s SMO.
//!
//! * On seeded random PSD Grams — linear and cosine-normalised, some with
//!   duplicate rows so that `a_ij = K_ii + K_jj − 2K_ij = 0` — the trained
//!   model satisfies the box and equality constraints and the KKT
//!   conditions within `tol`.
//! * Its dual objective is at least that of simplified SMO (random second
//!   index, per-coordinate error terms recomputed in `O(n)`), kept here as
//!   the reference solver.
//! * A two-point problem has a closed-form optimum, which SMO hits exactly.
//! * Training is deterministic to the bit.
//!
//! Every instance is drawn from a fixed seed, so a failure replays as is.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_guard::Budget;
use x2v_kernel::gram::normalize;
use x2v_kernel::svm::{KernelSvm, SvmConfig};
use x2v_linalg::Matrix;

/// Slack for the floating-point drift between the solver's incrementally
/// updated gradient and decision values recomputed from scratch here.
const DRIFT: f64 = 1e-9;

struct Instance {
    gram: Matrix,
    y: Vec<f64>,
    c: f64,
}

/// A random PSD Gram `XXᵀ` of `n` points in `d` dimensions, cosine-
/// normalised on odd seeds; on seeds divisible by 3 a quarter of the points
/// duplicate an earlier one. Labels are random with both classes present.
fn instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(6..40usize);
    let d = rng.random_range(1..6usize);
    let mut points: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect();
    if seed.is_multiple_of(3) {
        for _ in 0..n / 4 {
            let (dst, src) = (rng.random_range(1..n), rng.random_range(0..n));
            points[dst] = points[src.min(dst - 1)].clone();
        }
    }
    let mut gram = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            gram[(i, j)] = points[i].iter().zip(&points[j]).map(|(a, b)| a * b).sum();
        }
    }
    if seed % 2 == 1 {
        gram = normalize(&gram);
    }
    let mut y: Vec<f64> = (0..n)
        .map(|_| {
            if rng.random_range(0..2u32) == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    y[0] = 1.0;
    y[1] = -1.0;
    let c = [0.1, 1.0, 10.0][seed as usize % 3];
    Instance { gram, y, c }
}

fn config(c: f64) -> SvmConfig {
    SvmConfig {
        c,
        ..Default::default()
    }
}

/// The dual objective `Σ α_i − ½ Σ α_i α_j y_i y_j K_ij` (to be maximised).
fn dual_objective(gram: &Matrix, y: &[f64], alpha: &[f64]) -> f64 {
    let n = y.len();
    let mut quad = 0.0;
    for i in 0..n {
        for j in 0..n {
            quad += alpha[i] * alpha[j] * y[i] * y[j] * gram[(i, j)];
        }
    }
    alpha.iter().sum::<f64>() - 0.5 * quad
}

/// Simplified SMO, the solver `KernelSvm` used before: for each KKT
/// violator `i`, a random partner `j`, error terms recomputed in `O(n)`,
/// stopping after 8 sweeps in a row change nothing (or 2000 sweeps).
fn simplified_smo(gram: &Matrix, y: &[f64], c: f64, tol: f64, seed: u64) -> Vec<f64> {
    let n = y.len();
    let mut alpha = vec![0.0f64; n];
    let mut b = 0.0f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let f = |alpha: &[f64], b: f64, i: usize| -> f64 {
        b + (0..n).map(|j| alpha[j] * y[j] * gram[(j, i)]).sum::<f64>()
    };
    let (mut passes, mut sweeps) = (0, 0);
    while passes < 8 && sweeps < 2000 {
        sweeps += 1;
        let mut changed = 0;
        for i in 0..n {
            let ei = f(&alpha, b, i) - y[i];
            let violates =
                (y[i] * ei < -tol && alpha[i] < c) || (y[i] * ei > tol && alpha[i] > 0.0);
            if !violates {
                continue;
            }
            let mut j = rng.random_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            let ej = f(&alpha, b, j) - y[j];
            let (ai_old, aj_old) = (alpha[i], alpha[j]);
            let (lo, hi) = if y[i] != y[j] {
                ((aj_old - ai_old).max(0.0), (c + aj_old - ai_old).min(c))
            } else {
                ((ai_old + aj_old - c).max(0.0), (ai_old + aj_old).min(c))
            };
            let eta = 2.0 * gram[(i, j)] - gram[(i, i)] - gram[(j, j)];
            if lo >= hi || eta >= 0.0 {
                continue;
            }
            let aj = (aj_old - y[j] * (ei - ej) / eta).clamp(lo, hi);
            if (aj - aj_old).abs() < 1e-7 {
                continue;
            }
            let ai = ai_old + y[i] * y[j] * (aj_old - aj);
            alpha[i] = ai;
            alpha[j] = aj;
            let b1 =
                b - ei - y[i] * (ai - ai_old) * gram[(i, i)] - y[j] * (aj - aj_old) * gram[(i, j)];
            let b2 =
                b - ej - y[i] * (ai - ai_old) * gram[(i, j)] - y[j] * (aj - aj_old) * gram[(j, j)];
            b = if ai > 0.0 && ai < c {
                b1
            } else if aj > 0.0 && aj < c {
                b2
            } else {
                (b1 + b2) / 2.0
            };
            changed += 1;
        }
        passes = if changed == 0 { passes + 1 } else { 0 };
    }
    alpha
}

const SEEDS: std::ops::Range<u64> = 0..60;

#[test]
fn kkt_conditions_hold_within_tol() {
    let mut zero_curvature = false;
    for seed in SEEDS {
        let Instance { gram, y, c } = instance(seed);
        let n = y.len();
        zero_curvature |=
            (0..n).any(|i| (0..i).any(|j| gram[(i, i)] + gram[(j, j)] - 2.0 * gram[(i, j)] <= 0.0));
        let cfg = config(c);
        let svm = KernelSvm::try_train(&gram, &y, cfg, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let mut balance = 0.0;
        for (i, (&a, &yi)) in svm.alpha.iter().zip(&y).enumerate() {
            assert!(
                (0.0..=c).contains(&a),
                "seed {seed}: α_{i} = {a} outside [0, {c}]"
            );
            balance += yi * a;
            let margin = yi * svm.decision(gram.row(i));
            if a < c {
                assert!(
                    margin >= 1.0 - cfg.tol - DRIFT,
                    "seed {seed}: α_{i} = {a} < C but y f = {margin}"
                );
            }
            if a > 0.0 {
                assert!(
                    margin <= 1.0 + cfg.tol + DRIFT,
                    "seed {seed}: α_{i} = {a} > 0 but y f = {margin}"
                );
            }
        }
        assert!(balance.abs() <= DRIFT, "seed {seed}: Σ y α = {balance}");
    }
    // The instances must include the `a_ij ≤ 0` case that τ handles.
    assert!(zero_curvature);
}

#[test]
fn dual_objective_at_least_simplified_smo() {
    // Both solvers stop at a tolerance, so at `tol = 1e-3` either may lead
    // the other by ~1e-8. Solved to `tol = 1e-12` instead, SMO sits at the
    // optimum, which no feasible point — simplified SMO's at its default
    // `tol` included — can beat by more than summation rounding.
    for seed in SEEDS {
        let Instance { gram, y, c } = instance(seed);
        let exact = SvmConfig {
            c,
            tol: 1e-12,
            ..Default::default()
        };
        let svm = KernelSvm::try_train(&gram, &y, exact, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let reference = simplified_smo(&gram, &y, c, SvmConfig::default().tol, 0x5eed);
        let (ours, theirs) = (
            dual_objective(&gram, &y, &svm.alpha),
            dual_objective(&gram, &y, &reference),
        );
        assert!(
            ours >= theirs - 1e-12 * theirs.abs(),
            "seed {seed}: dual objective {ours} below simplified SMO's {theirs}"
        );
    }
}

#[test]
fn two_points_hit_the_closed_form() {
    // x = 1 (label +1) and x = −3 (label −1) under the linear kernel.
    // With α_1 = α_2 = α the dual is 2α − ½α²·a, a = K_11 + K_22 − 2K_12
    // = 16, so α* = 2/a = 1/8; the margin condition f(x_1) = 1 gives
    // b = 1 − α*(K_11 − K_12) = 1/2. Every step is exact in binary.
    let gram = Matrix::from_rows(&[&[1.0, -3.0], &[-3.0, 9.0]]);
    let y = [1.0, -1.0];
    let svm = KernelSvm::train(&gram, &y, SvmConfig::default());
    assert_eq!(svm.alpha, vec![0.125, 0.125]);
    assert_eq!(svm.bias, 0.5);

    // With C = 0.1 < α* both coordinates sit at the bound and no vector is
    // free: the bias is the midpoint of the interval the bounds allow,
    // (y_1 G_1 + y_2 G_2) / −2 = (0.6 + 0.2) / 2.
    let svm = KernelSvm::train(&gram, &y, config(0.1));
    assert_eq!(svm.alpha, vec![0.1, 0.1]);
    assert!((svm.bias - 0.4).abs() < 1e-15, "bias {}", svm.bias);
}

#[test]
fn training_is_bitwise_deterministic() {
    for seed in SEEDS {
        let Instance { gram, y, c } = instance(seed);
        let a = KernelSvm::train(&gram, &y, config(c));
        let b = KernelSvm::train(&gram, &y, config(c));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.alpha), bits(&b.alpha), "seed {seed}");
        assert_eq!(a.bias.to_bits(), b.bias.to_bits(), "seed {seed}");
    }
}
