//! Exact treewidth and tree decompositions for small pattern graphs.
//!
//! Treewidth is the parameter that governs the complexity of homomorphism
//! counting (Section 4.3, Dalmau–Jonsson): `hom(F, ·)` is polynomial iff
//! `F` ranges over a bounded-treewidth class. We compute exact treewidth by
//! the classic `O(2^n · n²)` subset dynamic program over elimination
//! prefixes, recover an optimal elimination order, and turn it into a tree
//! decomposition (and a *nice* one for the counting DP in
//! [`crate::decomp`]).

use x2v_graph::Graph;
use x2v_guard::{Budget, GuardError};

/// The guarded-site name for the exact subset DP.
pub const SITE: &str = "hom/treewidth";

/// A tree decomposition: bags plus tree edges between bag indices.
#[derive(Clone, Debug)]
pub struct TreeDecomposition {
    /// The bags (each a sorted set of pattern vertices).
    pub bags: Vec<Vec<usize>>,
    /// Edges of the decomposition tree.
    pub edges: Vec<(usize, usize)>,
    /// The width: `max |bag| − 1`.
    pub width: usize,
}

impl TreeDecomposition {
    /// Validates the three tree-decomposition axioms against `g`:
    /// all vertices covered, all edges covered, and connectivity of the set
    /// of bags containing each vertex.
    pub fn is_valid_for(&self, g: &Graph) -> bool {
        let n = g.order();
        let b = self.bags.len();
        if b == 0 {
            return n == 0;
        }
        // Tree check: connected with b-1 edges.
        if self.edges.len() + 1 != b {
            return false;
        }
        let mut adj = vec![Vec::new(); b];
        for &(x, y) in &self.edges {
            if x >= b || y >= b {
                return false;
            }
            adj[x].push(y);
            adj[y].push(x);
        }
        let mut seen = vec![false; b];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut cnt = 0;
        while let Some(x) = stack.pop() {
            cnt += 1;
            for &y in &adj[x] {
                if !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
        if cnt != b {
            return false;
        }
        // Vertex and edge coverage.
        let mut covered = vec![false; n];
        for bag in &self.bags {
            for &v in bag {
                if v >= n {
                    return false;
                }
                covered[v] = true;
            }
        }
        if !covered.iter().all(|&c| c) {
            return false;
        }
        for (u, v) in g.edges() {
            if !self
                .bags
                .iter()
                .any(|bag| bag.contains(&u) && bag.contains(&v))
            {
                return false;
            }
        }
        // Connectivity of occurrences of each vertex.
        for v in 0..n {
            let occ: Vec<usize> = (0..b).filter(|&i| self.bags[i].contains(&v)).collect();
            if occ.is_empty() {
                return false;
            }
            let mut seen = vec![false; b];
            let mut stack = vec![occ[0]];
            seen[occ[0]] = true;
            let mut reached = 0;
            while let Some(x) = stack.pop() {
                reached += 1;
                for &y in &adj[x] {
                    if !seen[y] && self.bags[y].contains(&v) {
                        seen[y] = true;
                        stack.push(y);
                    }
                }
            }
            if reached != occ.len() {
                return false;
            }
        }
        true
    }
}

/// The number of vertices outside `eliminated ∪ {v}` that `v` sees after
/// eliminating `eliminated`: neighbours of `v` reachable through eliminated
/// vertices.
fn fill_degree(g: &Graph, eliminated: u32, v: usize) -> usize {
    let n = g.order();
    let mut seen = 0u32;
    let mut stack = vec![v];
    seen |= 1 << v;
    let mut outside = 0usize;
    while let Some(x) = stack.pop() {
        for &w in g.neighbours(x) {
            if seen >> w & 1 == 1 {
                continue;
            }
            seen |= 1 << w;
            if eliminated >> w & 1 == 1 {
                stack.push(w);
            } else {
                outside += 1;
            }
        }
    }
    let _ = n;
    outside
}

/// Exact treewidth by subset DP. Limited to 24 vertices (bitmask subsets).
///
/// Returns `(treewidth, elimination_order)` where eliminating in that order
/// never creates a front larger than the treewidth.
///
/// Metered against the ambient [`Budget`]; panics with an actionable
/// message when it trips or when `g` is too large (use
/// [`treewidth_budgeted`] for automatic degradation to the greedy
/// min-degree upper bound).
pub fn exact_treewidth(g: &Graph) -> (usize, Vec<usize>) {
    let budget = x2v_guard::ambient();
    try_exact_treewidth(g, &budget).unwrap_or_else(|e| panic!("{e}"))
}

/// Exact treewidth by subset DP, within `budget`.
///
/// One work unit is one eliminated-last candidate examined in the DP
/// (`Σ_s popcount(s)` total — deterministic).
///
/// # Errors
/// [`GuardError::InvalidInput`] for graphs over 24 vertices,
/// [`GuardError::BudgetExhausted`] / [`GuardError::Cancelled`] when the
/// budget trips.
fn try_exact_treewidth(g: &Graph, budget: &Budget) -> x2v_guard::Result<(usize, Vec<usize>)> {
    let _timer = x2v_obs::span("hom/exact_treewidth");
    let n = g.order();
    if n > 24 {
        return Err(GuardError::invalid_input(
            SITE,
            format!(
                "exact treewidth is a 2^n subset DP, limited to 24 vertices (got {n}); \
                 use treewidth_upper_bound or treewidth_budgeted for larger graphs"
            ),
        ));
    }
    if n == 0 {
        return Ok((0, Vec::new()));
    }
    let full: u32 = (1u32 << n) - 1;
    let mut meter = budget.meter(SITE);
    // dp[s] = minimal max-front over orderings eliminating exactly set s
    // first; choice[s] = the vertex eliminated last within s achieving it.
    let mut dp = vec![u8::MAX; (full as usize) + 1];
    let mut choice = vec![u8::MAX; (full as usize) + 1];
    dp[0] = 0;
    for s in 1..=(full as usize) {
        let su = s as u32;
        meter.tick(su.count_ones() as u64)?;
        let mut best = u8::MAX;
        let mut best_v = u8::MAX;
        let mut bits = su;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let prev = su & !(1 << v);
            let sub = dp[prev as usize];
            if sub == u8::MAX {
                continue;
            }
            let deg = fill_degree(g, prev, v) as u8;
            let cost = sub.max(deg);
            if cost < best {
                best = cost;
                best_v = v as u8;
            }
        }
        dp[s] = best;
        choice[s] = best_v;
    }
    // Recover the elimination order.
    let mut order = Vec::with_capacity(n);
    let mut s = full;
    while s != 0 {
        let v = choice[s as usize] as usize;
        order.push(v);
        s &= !(1 << v);
    }
    order.reverse();
    Ok((dp[full as usize] as usize, order))
}

/// [`fill_degree`] without the 32-vertex mask limit: the number of
/// non-eliminated vertices reachable from `v` through eliminated ones.
fn fill_degree_any(g: &Graph, eliminated: &[bool], v: usize) -> usize {
    let mut seen = vec![false; g.order()];
    let mut stack = vec![v];
    seen[v] = true;
    let mut outside = 0usize;
    while let Some(x) = stack.pop() {
        for &w in g.neighbours(x) {
            if seen[w] {
                continue;
            }
            seen[w] = true;
            if eliminated[w] {
                stack.push(w);
            } else {
                outside += 1;
            }
        }
    }
    outside
}

/// The greedy min-degree elimination heuristic: an *upper bound* on
/// treewidth plus the elimination order achieving it. `O(n² · m)`, valid
/// for graphs of any order — the degradation target when the exact DP is
/// out of budget or out of range.
fn treewidth_upper_bound(g: &Graph) -> (usize, Vec<usize>) {
    let n = g.order();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut width = 0usize;
    for _ in 0..n {
        // Pick the remaining vertex with the smallest eliminated-aware
        // front; ties break on vertex id for determinism.
        let (v, deg) = (0..n)
            .filter(|&v| !eliminated[v])
            .map(|v| (v, fill_degree_any(g, &eliminated, v)))
            .min_by_key(|&(v, d)| (d, v))
            .expect("some vertex remains: loop runs order() times");
        width = width.max(deg);
        order.push(v);
        eliminated[v] = true;
    }
    (width, order)
}

/// How a [`treewidth_budgeted`] result was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreewidthQuality {
    /// The exact subset DP completed: the width is the true treewidth.
    Exact,
    /// The exact DP was out of budget or out of range; the width is the
    /// greedy min-degree *upper bound*.
    UpperBound,
}

/// Treewidth with graceful degradation: runs the exact DP within `budget`
/// and falls back to the greedy min-degree upper bound (recording
/// `guard/degraded`) when the budget trips or the graph exceeds the exact
/// DP's 24-vertex range. Returns `(width, elimination_order, quality)`.
///
/// The returned order always witnesses the returned width, so a tree
/// decomposition built from it is valid either way.
pub fn treewidth_budgeted(g: &Graph, budget: &Budget) -> (usize, Vec<usize>, TreewidthQuality) {
    match try_exact_treewidth(g, budget) {
        Ok((tw, order)) => (tw, order, TreewidthQuality::Exact),
        Err(_) => {
            x2v_guard::note_degraded();
            let (ub, order) = treewidth_upper_bound(g);
            (ub, order, TreewidthQuality::UpperBound)
        }
    }
}

/// Builds a tree decomposition of width `tw` from an elimination order
/// achieving it: bag of `v` = `{v} ∪ (front of v)`, attached to the bag of
/// the first later-eliminated vertex in its front.
fn decomposition_from_order(g: &Graph, order: &[usize]) -> TreeDecomposition {
    let n = g.order();
    assert!(
        n <= 32,
        "decomposition_from_order uses 32-bit elimination masks (got {n} vertices)"
    );
    if n == 0 {
        return TreeDecomposition {
            bags: vec![],
            edges: vec![],
            width: 0,
        };
    }
    let mut pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v] = i;
    }
    // front(v): vertices eliminated after v that v sees through earlier ones.
    let mut bags: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut width = 0;
    for (i, &v) in order.iter().enumerate() {
        let eliminated: u32 = order[..i].iter().map(|&u| 1u32 << u).sum();
        let mut seen = 0u32;
        let mut stack = vec![v];
        seen |= 1 << v;
        let mut front = Vec::new();
        while let Some(x) = stack.pop() {
            for &w in g.neighbours(x) {
                if seen >> w & 1 == 1 {
                    continue;
                }
                seen |= 1 << w;
                if eliminated >> w & 1 == 1 {
                    stack.push(w);
                } else {
                    front.push(w);
                }
            }
        }
        let mut bag = front.clone();
        bag.push(v);
        bag.sort_unstable();
        width = width.max(bag.len().saturating_sub(1));
        bags.push(bag);
    }
    // Tree edges: bag i (of order[i]) attaches to the bag of the earliest-
    // eliminated front member (which is eliminated later than v).
    let mut edges = Vec::new();
    for (i, &v) in order.iter().enumerate() {
        let bag = &bags[i];
        let next = bag.iter().filter(|&&u| u != v).min_by_key(|&&u| pos[u]);
        if let Some(&u) = next {
            edges.push((i, pos[u]));
        } else if i + 1 < n {
            // Isolated front: attach anywhere to keep the tree connected.
            edges.push((i, i + 1));
        }
    }
    TreeDecomposition { bags, edges, width }
}

/// Exact treewidth plus a witnessing valid tree decomposition.
pub fn exact_decomposition(g: &Graph) -> TreeDecomposition {
    let (tw, order) = exact_treewidth(g);
    let td = decomposition_from_order(g, &order);
    debug_assert_eq!(td.width, tw, "construction must match DP width");
    debug_assert!(td.is_valid_for(g), "constructed decomposition invalid");
    td
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::enumerate::free_trees;
    use x2v_graph::generators::{complete, cycle, grid, path, petersen, star};

    #[test]
    fn known_treewidths() {
        assert_eq!(exact_treewidth(&path(6)).0, 1);
        assert_eq!(exact_treewidth(&star(5)).0, 1);
        assert_eq!(exact_treewidth(&cycle(5)).0, 2);
        assert_eq!(exact_treewidth(&complete(4)).0, 3);
        assert_eq!(exact_treewidth(&complete(6)).0, 5);
        assert_eq!(exact_treewidth(&grid(3, 3)).0, 3);
        assert_eq!(exact_treewidth(&petersen()).0, 4);
    }

    #[test]
    fn trees_have_width_one() {
        for t in free_trees(7) {
            if t.order() >= 2 {
                assert_eq!(exact_treewidth(&t).0, 1, "{t:?}");
            }
        }
    }

    #[test]
    fn decomposition_valid_on_various() {
        for g in [path(5), cycle(6), complete(4), grid(2, 4), petersen()] {
            let td = exact_decomposition(&g);
            assert!(td.is_valid_for(&g), "{g:?}");
        }
    }

    #[test]
    fn decomposition_width_matches_dp() {
        for g in [cycle(7), grid(3, 3), complete(5)] {
            let (tw, order) = exact_treewidth(&g);
            let td = decomposition_from_order(&g, &order);
            assert_eq!(td.width, tw);
        }
    }

    #[test]
    fn upper_bound_never_below_exact() {
        for g in [path(6), cycle(5), complete(4), grid(3, 3), petersen()] {
            let (tw, _) = exact_treewidth(&g);
            let (ub, order) = treewidth_upper_bound(&g);
            assert!(ub >= tw, "{g:?}: upper bound {ub} < exact {tw}");
            // The order witnesses the bound: its decomposition is valid
            // with width ≤ ub.
            let td = decomposition_from_order(&g, &order);
            assert!(td.is_valid_for(&g));
            assert!(td.width <= ub);
        }
        // Min-degree is exact on trees, cycles and cliques.
        assert_eq!(treewidth_upper_bound(&path(6)).0, 1);
        assert_eq!(treewidth_upper_bound(&cycle(5)).0, 2);
        assert_eq!(treewidth_upper_bound(&complete(6)).0, 5);
    }

    #[test]
    fn budgeted_degrades_to_upper_bound() {
        let g = petersen();
        let (tw, _, q) = treewidth_budgeted(&g, &Budget::unlimited());
        assert_eq!((tw, q), (4, TreewidthQuality::Exact));
        // A one-unit budget cannot finish the 2^10-subset DP.
        let tight = Budget::unlimited().with_work_limit(1);
        let (ub, order, q) = treewidth_budgeted(&g, &tight);
        assert_eq!(q, TreewidthQuality::UpperBound);
        assert!(ub >= 4);
        let td = decomposition_from_order(&g, &order);
        assert!(td.is_valid_for(&g));
    }

    #[test]
    fn oversized_graph_rejected_with_typed_error() {
        let g = x2v_graph::generators::grid(5, 5); // 25 > 24 vertices
        match try_exact_treewidth(&g, &Budget::unlimited()) {
            Err(GuardError::InvalidInput { site, message }) => {
                assert_eq!(site, SITE);
                assert!(message.contains("24"));
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // …but the budgeted API still answers (degraded).
        let (ub, _, q) = treewidth_budgeted(&g, &Budget::unlimited());
        assert_eq!(q, TreewidthQuality::UpperBound);
        assert!(ub >= 3); // grid(5,5) has treewidth 5; min-degree ≥ exact ≥ 3
    }

    #[test]
    fn disconnected_graph_decomposition() {
        let g = x2v_graph::ops::disjoint_union(&cycle(3), &path(3));
        let td = exact_decomposition(&g);
        assert!(td.is_valid_for(&g));
        assert_eq!(td.width, 2);
    }

    #[test]
    fn validity_checker_rejects_bad_decomposition() {
        let g = cycle(4);
        // Missing edge coverage.
        let bad = TreeDecomposition {
            bags: vec![vec![0, 1], vec![2, 3]],
            edges: vec![(0, 1)],
            width: 1,
        };
        assert!(!bad.is_valid_for(&g));
        // Disconnected occurrences of vertex 0.
        let bad2 = TreeDecomposition {
            bags: vec![vec![0, 1], vec![1, 2], vec![2, 3, 0]],
            edges: vec![(0, 1), (1, 2)],
            width: 2,
        };
        assert!(!bad2.is_valid_for(&g));
    }
}
