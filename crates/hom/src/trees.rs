//! Tree homomorphism counting: the `O(|T| · (n + m))` dynamic program.
//!
//! For a tree `T` rooted at `r`, the count of homomorphisms mapping `u` to
//! `v` satisfies `h_u(v) = Π_{c child of u} Σ_{w ∈ N(v)} h_c(w)` — the
//! message-passing recurrence the paper identifies as the graph-theoretic
//! core of Theorem 4.14 (and the structural twin of GNN aggregation).
//!
//! Counts are exact `u128`; the `f64` variants underpin the log-scaled
//! embeddings of Section 4 where counts get "tremendously large".

use std::convert::Infallible;

use x2v_graph::Graph;

/// Orders the tree's vertices so parents precede children; returns
/// `(order, parent)`; `parent[root] = usize::MAX`.
fn root_order(tree: &Graph, root: usize) -> (Vec<usize>, Vec<usize>) {
    let n = tree.order();
    debug_assert_eq!(tree.size(), n.saturating_sub(1), "pattern is not a tree");
    let mut parent = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![root];
    let mut seen = vec![false; n];
    seen[root] = true;
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
    assert_eq!(order.len(), n, "pattern tree must be connected");
    (order, parent)
}

/// Rooted homomorphism counts: `result[v] = hom(T, G; root ↦ v)`.
///
/// # Panics
/// If `tree` is not a connected tree.
pub fn rooted_hom_counts(tree: &Graph, root: usize, g: &Graph) -> Vec<u128> {
    let Ok(counts) = try_rooted_hom_counts(tree, root, g, |_| Ok::<(), Infallible>(()));
    counts
}

/// [`rooted_hom_counts`] with a work hook: `tick(n)` runs before each
/// pattern vertex's `n` cells are filled, and an error from it stops the
/// DP. This is how [`crate::vectors::HomBasis`] meters the DP against a
/// budget.
fn try_rooted_hom_counts<E>(
    tree: &Graph,
    root: usize,
    g: &Graph,
    mut tick: impl FnMut(u64) -> Result<(), E>,
) -> Result<Vec<u128>, E> {
    let _timer = x2v_obs::span("hom/tree_dp");
    x2v_obs::counter_add("hom/tree_dp_cells", (tree.order() * g.order()) as u64);
    let (order, parent) = root_order(tree, root);
    let n = g.order();
    // h[u][v]: homs of subtree at u mapping u to v. Process children first.
    let mut h = vec![Vec::<u128>::new(); tree.order()];
    for &u in order.iter().rev() {
        tick(n as u64)?;
        let mut hu: Vec<u128> = (0..n)
            .map(|v| u128::from(tree.label(u) == g.label(v)))
            .collect();
        for &c in tree.neighbours(u) {
            if c == parent[u] {
                continue;
            }
            let hc = &h[c];
            for (v, huv) in hu.iter_mut().enumerate() {
                if *huv == 0 {
                    continue;
                }
                let s: u128 = g.neighbours(v).iter().map(|&w| hc[w]).sum();
                *huv = huv.checked_mul(s).expect("tree hom count overflowed u128");
            }
        }
        h[u] = hu;
    }
    Ok(std::mem::take(&mut h[root]))
}

/// `hom(T, G)` for a tree `T` (rooted anywhere — the total is root-free).
pub fn hom_count_tree(tree: &Graph, g: &Graph) -> u128 {
    let Ok(count) = try_hom_count_tree(tree, g, |_| Ok::<(), Infallible>(()));
    count
}

/// [`hom_count_tree`] with the work hook of [`try_rooted_hom_counts`].
pub(crate) fn try_hom_count_tree<E>(
    tree: &Graph,
    g: &Graph,
    tick: impl FnMut(u64) -> Result<(), E>,
) -> Result<u128, E> {
    if tree.order() == 0 {
        return Ok(1);
    }
    Ok(try_rooted_hom_counts(tree, 0, g, tick)?.iter().sum())
}

/// Floating-point rooted counts (for very large instances / log-embeddings).
pub fn rooted_hom_counts_f64(tree: &Graph, root: usize, g: &Graph) -> Vec<f64> {
    let (order, parent) = root_order(tree, root);
    let n = g.order();
    let mut h = vec![Vec::<f64>::new(); tree.order()];
    for &u in order.iter().rev() {
        let mut hu: Vec<f64> = (0..n)
            .map(|v| {
                if tree.label(u) == g.label(v) {
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
                let s: f64 = g.neighbours(v).iter().map(|&w| hc[w]).sum();
                *huv *= s;
            }
        }
        h[u] = hu;
    }
    std::mem::take(&mut h[root])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use x2v_graph::enumerate::free_trees;
    use x2v_graph::generators::{cycle, path, petersen, star};

    #[test]
    fn matches_brute_force_on_all_small_trees() {
        let targets = [cycle(5), petersen(), star(3), path(6)];
        for t in free_trees(6) {
            for g in &targets {
                assert_eq!(
                    hom_count_tree(&t, g),
                    brute::hom_count(&t, g),
                    "tree {t:?} into {g:?}"
                );
            }
        }
    }

    #[test]
    fn rooted_matches_brute_force() {
        let t = star(3);
        let g = petersen();
        let dp = rooted_hom_counts(&t, 0, &g);
        for v in 0..g.order() {
            assert_eq!(dp[v], brute::hom_count_rooted(&t, 0, &g, v), "v={v}");
        }
        // Rooted at a leaf instead.
        let dp_leaf = rooted_hom_counts(&t, 1, &g);
        for v in 0..g.order() {
            assert_eq!(dp_leaf[v], brute::hom_count_rooted(&t, 1, &g, v));
        }
    }

    #[test]
    fn star_closed_form() {
        // hom(S_k, G) = Σ deg^k.
        let g = petersen();
        for k in 1..=4usize {
            let expected: u128 = (0..10).map(|_| 3u128.pow(k as u32)).sum();
            assert_eq!(hom_count_tree(&star(k), &g), expected);
        }
    }

    #[test]
    fn labels_respected() {
        let t = path(2).with_labels(vec![1, 2]).unwrap();
        let g = path(3).with_labels(vec![1, 2, 1]).unwrap();
        // Maps: 0→0? label 1 ok, child 1→1 (label 2) ✓; 0→2, child→1 ✓.
        assert_eq!(hom_count_tree(&t, &g), 2);
        assert_eq!(brute::hom_count(&t, &g), 2);
    }

    #[test]
    fn f64_variant_agrees() {
        let t = free_trees(7).pop().unwrap();
        let g = petersen();
        let exact = hom_count_tree(&t, &g) as f64;
        let float: f64 = rooted_hom_counts_f64(&t, 0, &g).iter().sum();
        assert!((exact - float).abs() / exact.max(1.0) < 1e-12);
    }

    #[test]
    fn large_counts_do_not_overflow() {
        // A 12-node path into K20: counts around 20 * 19^11 ≈ 2.3e15 — fine,
        // but this exercises the checked path.
        let t = path(12);
        let g = x2v_graph::generators::complete(20);
        let c = hom_count_tree(&t, &g);
        assert_eq!(c, 20u128 * 19u128.pow(11));
    }
}
