//! Property-based tests: homomorphism-counting algorithms agree with the
//! brute-force oracle and satisfy the algebraic identities the paper uses.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use x2v_graph::generators::{cycle, gnp, grid, random_tree, star};
use x2v_graph::ops::{disjoint_union, permute};
use x2v_graph::Graph;
use x2v_hom::vectors::{hom_vector_over, HomBasis};
use x2v_hom::{brute, decomp, trees, walks};

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..=max_n, any::<u32>()).prop_map(|(n, mask)| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let edges: Vec<(usize, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask >> (i % 31) & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        Graph::from_edges_unchecked(n, &edges)
    })
}

fn arb_tree() -> impl Strategy<Value = Graph> {
    (2usize..=6, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        random_tree(n, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_dp_matches_brute(t in arb_tree(), g in arb_graph(7)) {
        prop_assert_eq!(trees::hom_count_tree(&t, &g), brute::hom_count(&t, &g));
    }

    #[test]
    fn decomposition_dp_matches_brute(f in arb_graph(5), g in arb_graph(6)) {
        prop_assert_eq!(decomp::hom_count_decomp(&f, &g), brute::hom_count(&f, &g));
    }

    #[test]
    fn path_closed_form_matches_brute(k in 1usize..=5, g in arb_graph(7)) {
        prop_assert_eq!(
            walks::hom_path(k, &g),
            brute::hom_count(&x2v_graph::generators::path(k), &g)
        );
    }

    #[test]
    fn cycle_closed_form_matches_brute(k in 3usize..=5, g in arb_graph(7)) {
        prop_assert_eq!(
            walks::hom_cycle(k, &g),
            brute::hom_count(&x2v_graph::generators::cycle(k), &g)
        );
    }

    #[test]
    fn hom_multiplicative_over_pattern_components(
        f1 in arb_tree(),
        f2 in arb_tree(),
        g in arb_graph(6),
    ) {
        let f = disjoint_union(&f1, &f2);
        let product = brute::hom_count(&f1, &g) * brute::hom_count(&f2, &g);
        prop_assert_eq!(brute::hom_count(&f, &g), product);
    }

    #[test]
    fn hom_additive_over_target_components(t in arb_tree(), g in arb_graph(5), h in arb_graph(5)) {
        // For connected patterns: hom(F, G ∪ H) = hom(F, G) + hom(F, H).
        let u = disjoint_union(&g, &h);
        prop_assert_eq!(
            trees::hom_count_tree(&t, &u),
            trees::hom_count_tree(&t, &g) + trees::hom_count_tree(&t, &h)
        );
    }

    #[test]
    fn hom_is_isomorphism_invariant(t in arb_tree(), g in arb_graph(7), seed in any::<u64>()) {
        let mut perm: Vec<usize> = (0..g.order()).collect();
        let mut s = seed | 1;
        for i in (1..perm.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            perm.swap(i, (s >> 33) as usize % (i + 1));
        }
        let h = permute(&g, &perm);
        prop_assert_eq!(trees::hom_count_tree(&t, &g), trees::hom_count_tree(&t, &h));
    }

    #[test]
    fn rooted_counts_sum_to_total(t in arb_tree(), g in arb_graph(6)) {
        let total: u128 = trees::rooted_hom_counts(&t, 0, &g).iter().sum();
        prop_assert_eq!(total, trees::hom_count_tree(&t, &g));
    }

    #[test]
    fn emb_bounded_by_hom(f in arb_graph(4), g in arb_graph(6)) {
        prop_assert!(brute::emb_count(&f, &g) <= brute::hom_count(&f, &g));
    }

    #[test]
    fn treewidth_decomposition_always_valid(g in arb_graph(7)) {
        let td = x2v_hom::treewidth::exact_decomposition(&g);
        prop_assert!(td.is_valid_for(&g));
        // Width bounds: tw ≤ n − 1; trees/forests have tw ≤ 1.
        prop_assert!(td.width < g.order());
    }
}

/// A `G(n, p)` target of order `0..=max_n` with a random density, so
/// empty, sparse, dense and disconnected targets all occur; with
/// `labelled`, every vertex draws a label from {0, 1}.
fn random_target(max_n: usize, seed: u64, labelled: bool) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.random_range(0..=max_n);
    let p = rng.random::<f64>();
    let g = gnp(n, p, &mut rng);
    if !labelled {
        return g;
    }
    let labels = (0..n).map(|_| u32::from(rng.random::<bool>())).collect();
    g.with_labels(labels).expect("one label per vertex")
}

/// The paper's 20-pattern trees-and-cycles basis, built once.
fn basis_20() -> &'static HomBasis {
    static BASIS: OnceLock<HomBasis> = OnceLock::new();
    BASIS.get_or_init(|| HomBasis::trees_and_cycles(20))
}

/// One pattern per counting plan: a labelled tree, a cycle labelled 1
/// throughout (the closed-walk sweep over `G[V_1]`), and two patterns on
/// the decomposition DP: a cycle with mixed labels and the 2×3 grid.
fn basis_every_plan() -> &'static HomBasis {
    static BASIS: OnceLock<HomBasis> = OnceLock::new();
    BASIS.get_or_init(|| {
        HomBasis::new(vec![
            star(3).with_labels(vec![1, 0, 1, 0]).unwrap(),
            cycle(4).with_labels(vec![1; 4]).unwrap(),
            cycle(5).with_labels(vec![0, 1, 0, 1, 1]).unwrap(),
            grid(2, 3),
        ])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `HomBasis` picks the tree DP, the closed-walk sweep or the
    /// decomposition DP per pattern; the vector must equal the one the
    /// decomposition DP gives for every pattern.
    #[test]
    fn basis_plans_match_decomposition_dp(seed in any::<u64>(), third in 0u8..3) {
        let g = random_target(12, seed, third == 0);
        let basis = basis_20();
        prop_assert_eq!(basis.hom_vector(&g), hom_vector_over(basis.patterns(), &g));
    }

    #[test]
    fn basis_plans_match_brute(seed in any::<u64>()) {
        let g = random_target(7, seed, true);
        let basis = basis_every_plan();
        let brute: Vec<u128> = basis
            .patterns()
            .iter()
            .map(|f| brute::hom_count(f, &g))
            .collect();
        prop_assert_eq!(basis.hom_vector(&g), brute);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The categorical-product law: `hom(F, G × H) = hom(F, G) · hom(F, H)`
    /// — the universal property of the tensor product, exercised across the
    /// ops and hom crates.
    #[test]
    fn hom_into_tensor_product_factorises(t in arb_tree(), g in arb_graph(5), h in arb_graph(5)) {
        let product = x2v_graph::ops::tensor_product(&g, &h);
        let left = trees::hom_count_tree(&t, &product);
        let right = trees::hom_count_tree(&t, &g) * trees::hom_count_tree(&t, &h);
        prop_assert_eq!(left, right);
    }
}
