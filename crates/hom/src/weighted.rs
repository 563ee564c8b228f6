//! Weighted homomorphisms / partition functions (Section 4.2, Theorem 4.13).
//!
//! For an unweighted pattern `F` and a weighted target `G`,
//! `hom(F, G) = Σ_{h: V(F)→V(G)} Π_{uu' ∈ E(F)} α(h(u), h(u'))` — a
//! sum-product partition function. Zero-weight pairs contribute nothing, so
//! the sum effectively ranges over homomorphisms into the support graph.

use x2v_graph::{Graph, WeightedGraph};
use x2v_wl::weighted::WeightedRefiner;

/// Weighted tree homomorphism counts rooted at every target node:
/// `result[v] = hom(T, G; root ↦ v)`.
fn rooted_weighted_hom(tree: &Graph, root: usize, g: &WeightedGraph) -> Vec<f64> {
    let n = g.order();
    debug_assert_eq!(tree.size() + 1, tree.order(), "pattern must be a tree");
    // Order with parents first.
    let mut parent = vec![usize::MAX; tree.order()];
    let mut order = Vec::with_capacity(tree.order());
    let mut seen = vec![false; tree.order()];
    seen[root] = true;
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        order.push(v);
        for &w in tree.neighbours(v) {
            if !seen[w] {
                seen[w] = true;
                parent[w] = v;
                stack.push(w);
            }
        }
    }
    assert_eq!(order.len(), tree.order(), "pattern tree must be connected");
    let mut h = vec![Vec::<f64>::new(); tree.order()];
    for &u in order.iter().rev() {
        let mut hu: Vec<f64> = (0..n)
            .map(|v| {
                if tree.label(u) == g.labels()[v] {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        for &c in tree.neighbours(u) {
            if c == parent[u] {
                continue;
            }
            let hc = &h[c];
            for (v, huv) in hu.iter_mut().enumerate() {
                if *huv == 0.0 {
                    continue;
                }
                let s: f64 = g
                    .weighted_neighbours(v)
                    .iter()
                    .map(|&(w, alpha)| alpha * hc[w])
                    .sum();
                *huv *= s;
            }
        }
        h[u] = hu;
    }
    std::mem::take(&mut h[root])
}

/// `hom(T, G)` for a tree pattern and weighted target.
fn weighted_hom_tree(tree: &Graph, g: &WeightedGraph) -> f64 {
    if tree.order() == 0 {
        return 1.0;
    }
    rooted_weighted_hom(tree, 0, g).iter().sum()
}

/// Brute-force weighted hom count (oracle; `O(n^{|F|})`).
pub fn weighted_hom_brute(f: &Graph, g: &WeightedGraph) -> f64 {
    let n = g.order();
    let k = f.order();
    let mut image = vec![0usize; k];
    let mut total = 0.0;
    loop {
        // Weight of this map.
        let mut wt = 1.0;
        for (u, v) in f.edges() {
            wt *= g.weight(image[u], image[v]);
            if wt == 0.0 {
                break;
            }
        }
        if wt != 0.0 && (0..k).all(|u| f.label(u) == g.labels()[image[u]]) {
            total += wt;
        }
        // Next map in lexicographic order.
        let mut i = 0;
        loop {
            if i == k {
                return total;
            }
            image[i] += 1;
            if image[i] < n {
                break;
            }
            image[i] = 0;
            i += 1;
        }
    }
}

/// The weighted-graph side of Theorem 4.13: weighted 1-WL equivalence.
/// (Statement (1) ⟺ (2): `Hom_T(G) = Hom_T(H)` iff weighted 1-WL does not
/// distinguish `G` and `H`.)
pub fn weighted_wl_equivalent(g: &WeightedGraph, h: &WeightedGraph) -> bool {
    !WeightedRefiner::new().distinguishes(g, h)
}

/// Compares weighted tree-hom vectors over all trees up to `max_order`
/// (finite-basis check of Theorem 4.13(1)).
pub fn weighted_tree_homs_equal(
    g: &WeightedGraph,
    h: &WeightedGraph,
    max_order: usize,
    tol: f64,
) -> bool {
    for n in 1..=max_order {
        for t in x2v_graph::enumerate::free_trees(n) {
            let a = weighted_hom_tree(&t, g);
            let b = weighted_hom_tree(&t, h);
            if (a - b).abs() > tol * (1.0 + a.abs().max(b.abs())) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::enumerate::free_trees;
    use x2v_graph::generators::{cycle, path, star};

    fn weighted_example() -> WeightedGraph {
        WeightedGraph::from_weighted_edges(4, &[(0, 1, 2.0), (1, 2, 0.5), (2, 3, 3.0), (3, 0, 1.0)])
            .unwrap()
    }

    #[test]
    fn tree_dp_matches_brute_force() {
        let g = weighted_example();
        for t in free_trees(5) {
            let dp = weighted_hom_tree(&t, &g);
            let bf = weighted_hom_brute(&t, &g);
            assert!((dp - bf).abs() < 1e-9, "{t:?}: {dp} vs {bf}");
        }
    }

    #[test]
    fn unit_weights_match_unweighted_counts() {
        let base = cycle(5);
        let g = WeightedGraph::from_graph(&base);
        for t in free_trees(5) {
            let w = weighted_hom_tree(&t, &g);
            let exact = crate::trees::hom_count_tree(&t, &base) as f64;
            assert!((w - exact).abs() < 1e-9);
        }
    }

    #[test]
    fn edge_weight_is_hom_p2() {
        let g = weighted_example();
        // hom(P2) = Σ_{(u,v)} α(u,v) over ordered pairs = 2 Σ weights.
        let expected = 2.0 * (2.0 + 0.5 + 3.0 + 1.0);
        assert!((weighted_hom_tree(&path(2), &g) - expected).abs() < 1e-12);
    }

    #[test]
    fn theorem_4_13_easy_direction() {
        // WL-equivalent weighted graphs have equal weighted tree homs:
        // take a weighted C6 with constant weights vs two weighted C3s.
        let c6 = WeightedGraph::from_graph(&cycle(6));
        let tt = WeightedGraph::from_graph(&x2v_graph::ops::disjoint_union(&cycle(3), &cycle(3)));
        assert!(weighted_wl_equivalent(&c6, &tt));
        assert!(weighted_tree_homs_equal(&c6, &tt, 6, 1e-9));
    }

    #[test]
    fn theorem_4_13_separation() {
        // Different weights: weighted WL distinguishes, and some tree hom
        // differs.
        let a = WeightedGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let b = WeightedGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 0.5)]).unwrap();
        assert!(!weighted_wl_equivalent(&a, &b));
        assert!(!weighted_tree_homs_equal(&a, &b, 4, 1e-9));
    }

    #[test]
    fn negative_weights_partition_function() {
        // Signed weights: hom(P2) can cancel.
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, -1.0)]).unwrap();
        assert!((weighted_hom_tree(&path(2), &g) - 0.0).abs() < 1e-12);
        // hom(star_2 rooted at hub) = Σ_v (Σ_w α(v,w))².
        let s = weighted_hom_tree(&star(2), &g);
        let expected: f64 = [1.0f64, 0.0, -1.0].iter().map(|x| x * x).sum();
        assert!((s - expected).abs() < 1e-12);
    }
}
