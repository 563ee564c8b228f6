//! Property-based tests of the linear-algebra substrate.

use proptest::prelude::*;
use x2v_linalg::assignment::hungarian;
use x2v_linalg::birkhoff::{is_doubly_stochastic, sinkhorn};
use x2v_linalg::eigen::sym_eigen;
use x2v_linalg::rational::Rat;
use x2v_linalg::Matrix;

fn arb_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, n * n)
        .prop_map(move |data| Matrix::from_flat(n, n, data))
}

fn arb_symmetric(n: usize) -> impl Strategy<Value = Matrix> {
    arb_matrix(n).prop_map(|m| {
        let mt = m.transpose();
        (&m + &mt).scaled(0.5)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associative(a in arb_matrix(3), b in arb_matrix(3), c in arb_matrix(3)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn eigen_reconstructs_symmetric(a in arb_symmetric(4)) {
        let e = sym_eigen(&a);
        let recon = e.vectors.matmul(&Matrix::diag(&e.values)).matmul(&e.vectors.transpose());
        prop_assert!(recon.approx_eq(&a, 1e-7));
        // Trace = sum of eigenvalues.
        let sum: f64 = e.values.iter().sum();
        prop_assert!((sum - a.trace()).abs() < 1e-7);
    }

    #[test]
    fn hungarian_beats_identity_assignment(c in arb_matrix(4)) {
        let (_, best) = hungarian(&c);
        let identity_cost: f64 = (0..4).map(|i| c[(i, i)]).sum();
        prop_assert!(best <= identity_cost + 1e-9);
    }

    #[test]
    fn sinkhorn_output_doubly_stochastic(m in proptest::collection::vec(0.1f64..5.0, 16)) {
        let x = sinkhorn(&Matrix::from_flat(4, 4, m), 1e-9, 2000);
        prop_assert!(is_doubly_stochastic(&x, 1e-6));
    }

    #[test]
    fn rational_field_axioms(an in -50i128..50, ad in 1i128..20, bn in -50i128..50, bd in 1i128..20) {
        let a = Rat::new(an, ad);
        let b = Rat::new(bn, bd);
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a + Rat::ZERO, a);
        prop_assert_eq!(a * Rat::ONE, a);
        prop_assert_eq!(a - a, Rat::ZERO);
        if !b.is_zero() {
            prop_assert_eq!((a / b) * b, a);
        }
        // Distributivity.
        let c = Rat::new(7, 3);
        prop_assert_eq!(c * (a + b), c * a + c * b);
    }

    #[test]
    fn lu_solution_satisfies_system(a in arb_matrix(4), b in proptest::collection::vec(-3.0f64..3.0, 4)) {
        if let Some(x) = x2v_linalg::solve::lu_solve(&a, &b) {
            let ax = a.matvec(&x);
            for (p, q) in ax.iter().zip(&b) {
                prop_assert!((p - q).abs() < 1e-6, "{} vs {}", p, q);
            }
        }
    }

    #[test]
    fn norms_triangle_inequality(a in arb_matrix(3), b in arb_matrix(3)) {
        use x2v_linalg::norms::{frobenius, operator_1, spectral};
        let sum = &a + &b;
        prop_assert!(frobenius(&sum) <= frobenius(&a) + frobenius(&b) + 1e-9);
        prop_assert!(operator_1(&sum) <= operator_1(&a) + operator_1(&b) + 1e-9);
        prop_assert!(spectral(&sum) <= spectral(&a) + spectral(&b) + 1e-7);
    }

    #[test]
    fn cut_norm_bounds(a in arb_matrix(4)) {
        use x2v_linalg::norms::{cut_norm_exact, cut_norm_local_search, entrywise_p};
        let cut = cut_norm_exact(&a);
        prop_assert!(cut <= entrywise_p(&a, 1.0) + 1e-9);
        prop_assert!(cut_norm_local_search(&a) <= cut + 1e-9);
    }
}
