//! Exhaustive enumeration of small combinatorial universes.
//!
//! The paper's characterisation theorems (4.2, 4.4, 4.6, 4.10, …) quantify
//! over *all* graphs of some class. To check them computationally we need the
//! complete universes: all graphs of order ≤ n up to isomorphism, all free
//! trees, all rooted trees, the cycles, the paths. Rooted trees are generated
//! by the Beyer–Hedetniemi level-sequence successor algorithm (constant
//! amortised time); free trees are deduplicated via centroid-canonical AHU
//! encodings; general graphs by edge-subset enumeration with canonical-key
//! dedup (practical to order 7).

use crate::canon::{canonical_key, tree_canonical};
use crate::hash::FxHashSet;
use crate::{Graph, GraphBuilder};

/// All graphs of order exactly `n`, up to isomorphism, unlabelled.
///
/// Counts (OEIS A000088): 1, 2, 4, 11, 34, 156, 1044 for n = 1..7.
///
/// # Panics
/// For `n > 7` (the edge-subset scan would be too slow; use a dedicated tool).
pub fn all_graphs(n: usize) -> Vec<Graph> {
    assert!(n <= 7, "exhaustive enumeration supported up to order 7");
    if n == 0 {
        return vec![Graph::empty(0)];
    }
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    let mut seen: FxHashSet<Vec<u64>> = FxHashSet::default();
    let mut out = Vec::new();
    for mask in 0u64..(1u64 << pairs.len()) {
        let edges: Vec<(usize, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        let g = Graph::from_edges_unchecked(n, &edges);
        if seen.insert(canonical_key(&g)) {
            out.push(g);
        }
    }
    out
}

/// All graphs of order between 1 and `n` inclusive, up to isomorphism,
/// ordered by (order, size) — the enumeration order used in the proof of
/// Theorem 4.2 (so that the epi matrix is lower triangular).
pub fn all_graphs_up_to(n: usize) -> Vec<Graph> {
    let mut out = Vec::new();
    for k in 1..=n {
        let mut gs = all_graphs(k);
        gs.sort_by_key(Graph::size);
        out.extend(gs);
    }
    out
}

/// All *connected* graphs of order exactly `n`, up to isomorphism.
pub fn all_connected_graphs(n: usize) -> Vec<Graph> {
    all_graphs(n)
        .into_iter()
        .filter(crate::dist::is_connected)
        .collect()
}

/// Iterator over canonical level sequences of rooted trees on `n` nodes
/// (Beyer–Hedetniemi 1980). Levels are 1-based; the first sequence is the
/// path `[1, 2, …, n]`, the last is the star `[1, 2, 2, …, 2]`.
struct LevelSequences {
    seq: Vec<usize>,
    first: bool,
    done: bool,
}

impl LevelSequences {
    fn new(n: usize) -> Self {
        LevelSequences {
            seq: (1..=n).collect(),
            first: true,
            done: n == 0,
        }
    }
}

impl Iterator for LevelSequences {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        if self.first {
            self.first = false;
            return Some(self.seq.clone());
        }
        // Find the last position p with level > 2.
        let Some(p) = self.seq.iter().rposition(|&l| l > 2) else {
            self.done = true;
            return None;
        };
        // q: the parent position — last position before p with level = seq[p] - 1.
        let q = self.seq[..p]
            .iter()
            .rposition(|&l| l == self.seq[p] - 1)
            .expect("canonical sequence has a parent level");
        let shift = p - q;
        for i in p..self.seq.len() {
            self.seq[i] = self.seq[i - shift];
        }
        Some(self.seq.clone())
    }
}

/// Converts a canonical level sequence to a tree graph rooted at node 0.
fn tree_from_level_sequence(seq: &[usize]) -> Graph {
    let n = seq.len();
    let mut b = GraphBuilder::new(n);
    // parent of i: nearest previous j with level(j) = level(i) - 1
    let mut last_at_level = vec![usize::MAX; n + 2];
    for (i, &l) in seq.iter().enumerate() {
        if l > 1 {
            let parent = last_at_level[l - 1];
            b.add_edge(parent, i).expect("tree edge");
        }
        last_at_level[l] = i;
    }
    b.build()
}

/// All rooted trees on `n` nodes up to rooted isomorphism, each returned as
/// `(tree, root)` with root 0.
///
/// Counts (OEIS A000081): 1, 1, 2, 4, 9, 20, 48, 115, 286, 719 for n = 1..10.
pub fn rooted_trees(n: usize) -> Vec<(Graph, usize)> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![(Graph::empty(1), 0)];
    }
    LevelSequences::new(n)
        .map(|seq| (tree_from_level_sequence(&seq), 0))
        .collect()
}

/// All free (unrooted) trees on `n` nodes up to isomorphism.
///
/// Counts (OEIS A000055): 1, 1, 1, 2, 3, 6, 11, 23, 47, 106 for n = 1..10.
pub fn free_trees(n: usize) -> Vec<Graph> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![Graph::empty(1)];
    }
    let mut seen: FxHashSet<String> = FxHashSet::default();
    let mut out = Vec::new();
    for (t, _) in rooted_trees(n) {
        if seen.insert(tree_canonical(&t)) {
            out.push(t);
        }
    }
    out
}

/// All free trees of order `n` with maximum degree ≤ 3 ("binary trees" as
/// free trees) — the building blocks of the paper's Section-4 experimental
/// feature class (20 binary trees and cycles).
fn binary_trees(n: usize) -> Vec<Graph> {
    free_trees(n)
        .into_iter()
        .filter(|t| (0..t.order()).all(|v| t.degree(v) <= 3))
        .collect()
}

/// The paper's Section-4 feature class: the first `count` graphs from the
/// sequence alternating binary trees (by increasing order) and cycles
/// (C3, C4, …). With `count = 20` this reproduces the "small class (of size
/// 20) of graphs consisting of binary trees and cycles".
pub fn trees_and_cycles_basis(count: usize) -> Vec<Graph> {
    let mut trees = Vec::new();
    let mut n = 1;
    while trees.len() < count {
        trees.extend(binary_trees(n));
        n += 1;
    }
    let mut out = Vec::with_capacity(count);
    let mut ti = 0;
    let mut cyc = 3;
    // Alternate: tree, cycle, tree, cycle, …
    while out.len() < count {
        if out.len() % 2 == 0 && ti < trees.len() {
            out.push(trees[ti].clone());
            ti += 1;
        } else {
            out.push(crate::generators::cycle(cyc));
            cyc += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist;
    use crate::iso::are_isomorphic;

    #[test]
    fn graph_counts_match_oeis() {
        assert_eq!(all_graphs(1).len(), 1);
        assert_eq!(all_graphs(2).len(), 2);
        assert_eq!(all_graphs(3).len(), 4);
        assert_eq!(all_graphs(4).len(), 11);
        assert_eq!(all_graphs(5).len(), 34);
    }

    #[test]
    #[ignore = "slow (~a minute in debug); run with --ignored"]
    fn graph_count_order_six() {
        assert_eq!(all_graphs(6).len(), 156);
    }

    #[test]
    fn connected_graph_counts() {
        // OEIS A001349: 1, 1, 2, 6, 21 for n = 1..5
        assert_eq!(all_connected_graphs(1).len(), 1);
        assert_eq!(all_connected_graphs(2).len(), 1);
        assert_eq!(all_connected_graphs(3).len(), 2);
        assert_eq!(all_connected_graphs(4).len(), 6);
        assert_eq!(all_connected_graphs(5).len(), 21);
    }

    #[test]
    fn up_to_ordering_is_by_order_then_size() {
        let gs = all_graphs_up_to(4);
        assert_eq!(gs.len(), 1 + 2 + 4 + 11);
        for w in gs.windows(2) {
            assert!(
                (w[0].order(), w[0].size()) <= (w[1].order(), w[1].size()),
                "enumeration must be sorted by (order, size)"
            );
        }
    }

    #[test]
    fn rooted_tree_counts_match_oeis() {
        let expected = [1usize, 1, 2, 4, 9, 20, 48, 115];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(rooted_trees(i + 1).len(), e, "n = {}", i + 1);
        }
    }

    #[test]
    fn free_tree_counts_match_oeis() {
        let expected = [1usize, 1, 1, 2, 3, 6, 11, 23, 47, 106];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(free_trees(i + 1).len(), e, "n = {}", i + 1);
        }
    }

    #[test]
    fn every_enumerated_tree_is_a_tree() {
        for t in free_trees(7) {
            assert_eq!(t.size(), t.order() - 1);
            assert!(dist::is_connected(&t));
        }
    }

    #[test]
    fn free_trees_pairwise_nonisomorphic() {
        let ts = free_trees(6);
        for i in 0..ts.len() {
            for j in (i + 1)..ts.len() {
                assert!(!are_isomorphic(&ts[i], &ts[j]), "{i} vs {j}");
            }
        }
    }

    #[test]
    fn binary_tree_counts() {
        // Free trees with max degree ≤ 3: 1, 1, 1, 2, 2, 4, 6, 11 for n = 1..8
        let expected = [1usize, 1, 1, 2, 2, 4, 6, 11];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(binary_trees(i + 1).len(), e, "n = {}", i + 1);
        }
    }

    #[test]
    fn basis_has_requested_size_and_mix() {
        let basis = trees_and_cycles_basis(20);
        assert_eq!(basis.len(), 20);
        let cycles = basis
            .iter()
            .filter(|g| g.order() >= 3 && g.order() == g.size())
            .count();
        let trees = basis.iter().filter(|g| g.size() + 1 == g.order()).count();
        assert_eq!(cycles + trees, 20);
        assert!(cycles >= 5 && trees >= 5);
    }
}
