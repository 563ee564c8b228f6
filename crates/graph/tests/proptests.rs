//! Property-based tests of the graph substrate.

use proptest::prelude::*;
use x2v_graph::canon::{canonical_key, tree_canonical};
use x2v_graph::dist;
use x2v_graph::generators;
use x2v_graph::iso::are_isomorphic;
use x2v_graph::ops::{complement, disjoint_union, permute};
use x2v_graph::Graph;

/// Strategy: a graph of order `n ∈ 3..=7` from an edge bitmask.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..=7, any::<u32>()).prop_map(|(n, mask)| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let edges: Vec<(usize, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask >> (i % 32) & 1 == 1 || mask >> ((i + 7) % 32) & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        Graph::from_edges_unchecked(n, &edges)
    })
}

/// Strategy: a permutation of `0..n`.
fn arb_perm(n: usize) -> impl Strategy<Value = Vec<usize>> {
    Just((0..n).collect::<Vec<usize>>()).prop_shuffle()
}

proptest! {
    #[test]
    fn permutation_preserves_isomorphism_class(g in arb_graph(), seed in any::<u64>()) {
        let mut perm: Vec<usize> = (0..g.order()).collect();
        // cheap seeded shuffle
        let mut s = seed;
        for i in (1..perm.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            perm.swap(i, (s >> 33) as usize % (i + 1));
        }
        let h = permute(&g, &perm);
        prop_assert_eq!(g.degree_sequence(), h.degree_sequence());
        prop_assert_eq!(canonical_key(&g), canonical_key(&h));
        prop_assert!(are_isomorphic(&g, &h));
    }

    #[test]
    fn complement_is_involutive(g in arb_graph()) {
        prop_assert_eq!(complement(&complement(&g)), g.clone());
        let n = g.order();
        prop_assert_eq!(g.size() + complement(&g).size(), n * (n - 1) / 2);
    }

    #[test]
    fn union_adds_orders_and_sizes(g in arb_graph(), h in arb_graph()) {
        let u = disjoint_union(&g, &h);
        prop_assert_eq!(u.order(), g.order() + h.order());
        prop_assert_eq!(u.size(), g.size() + h.size());
        // Components of the union refine into the two parts.
        let comp = dist::connected_components(&u);
        for v in 0..g.order() {
            for w in g.order()..u.order() {
                prop_assert_ne!(comp[v], comp[w]);
            }
        }
    }

    #[test]
    fn bfs_distance_is_symmetric(g in arb_graph()) {
        let n = g.order();
        let all = dist::all_pairs_distances(&g);
        for v in 0..n {
            for w in 0..n {
                prop_assert_eq!(all[v * n + w], all[w * n + v]);
            }
        }
    }

    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let total: usize = (0..g.order()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.size());
    }

    #[test]
    fn tree_canonical_is_permutation_invariant(n in 2usize..=9, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = generators::random_tree(n, &mut rng);
        let mut perm: Vec<usize> = (0..n).collect();
        let mut s = seed ^ 0xabcd;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            perm.swap(i, (s >> 33) as usize % (i + 1));
        }
        let p = permute(&t, &perm);
        prop_assert_eq!(tree_canonical(&t), tree_canonical(&p));
    }

    #[test]
    fn text_roundtrip(g in arb_graph()) {
        let parsed = x2v_graph::io::from_text(&x2v_graph::io::to_text(&g)).unwrap();
        prop_assert_eq!(g, parsed);
    }

    #[test]
    fn shuffle_strategy_gives_valid_permutation(p in arb_perm(6)) {
        let mut sorted = p.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..6).collect::<Vec<usize>>());
    }
}
