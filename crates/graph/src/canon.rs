//! Canonical forms for small graphs.
//!
//! [`canonical_key`] returns a byte string equal for two graphs iff they are
//! isomorphic (labels respected). Used to deduplicate exhaustive graph
//! universes in [`crate::enumerate`]. The search permutes nodes within
//! equitable-partition classes only, which keeps the worst case (regular
//! graphs) to `∏ |class|!` — fine for the ≤ 8-node universes we enumerate.

use crate::iso::equitable_partition;
use crate::Graph;

/// Upper-triangle adjacency bitstring of `g` under node ordering `perm`
/// (`perm[i]` = original node placed at position `i`), packed into u64 words,
/// preceded by the label sequence.
fn key_under(g: &Graph, perm: &[usize]) -> Vec<u64> {
    let n = g.order();
    let nbits = n * (n - 1) / 2;
    let mut key = Vec::with_capacity(n + nbits.div_ceil(64));
    for &v in perm {
        key.push(g.label(v) as u64);
    }
    let mut word = 0u64;
    let mut fill = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            word <<= 1;
            if g.has_edge(perm[i], perm[j]) {
                word |= 1;
            }
            fill += 1;
            if fill == 64 {
                key.push(word);
                word = 0;
                fill = 0;
            }
        }
    }
    if fill > 0 {
        key.push(word << (64 - fill));
    }
    key
}

struct CanonSearch<'a> {
    g: &'a Graph,
    /// nodes grouped by colour class, classes in canonical colour order
    classes: Vec<Vec<usize>>,
    perm: Vec<usize>,
    best: Option<Vec<u64>>,
}

impl CanonSearch<'_> {
    fn go(&mut self, class_idx: usize, remaining: Vec<usize>) {
        if class_idx == self.classes.len() {
            let key = key_under(self.g, &self.perm);
            if self.best.as_ref().is_none_or(|b| key < *b) {
                self.best = Some(key);
            }
            return;
        }
        // Choose each remaining node of this class as next in the ordering.
        if remaining.is_empty() {
            let next_remaining = self.classes.get(class_idx + 1).cloned().unwrap_or_default();
            self.go(class_idx + 1, next_remaining);
            return;
        }
        for i in 0..remaining.len() {
            let mut rest = remaining.clone();
            let v = rest.swap_remove(i);
            self.perm.push(v);
            if rest.is_empty() {
                let next_remaining = self.classes.get(class_idx + 1).cloned().unwrap_or_default();
                self.go(class_idx + 1, next_remaining);
            } else {
                self.go(class_idx, rest);
            }
            self.perm.pop();
        }
    }
}

/// A canonical key: equal for two graphs iff they are isomorphic.
///
/// The key starts with the order `n`, then the canonical label sequence, then
/// the canonical upper-triangle adjacency bits.
pub fn canonical_key(g: &Graph) -> Vec<u64> {
    let n = g.order();
    if n == 0 {
        return vec![0];
    }
    let colour = equitable_partition(g);
    let k = colour.iter().copied().max().map_or(0, |m| m + 1);
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (v, &c) in colour.iter().enumerate() {
        classes[c].push(v);
    }
    // Smaller classes first cuts the search tree; ties broken by colour id,
    // which is canonical (see `equitable_partition`).
    classes.sort_by_key(|c| (c.len(), colour[c[0]]));
    let first = classes[0].clone();
    let mut search = CanonSearch {
        g,
        classes,
        perm: Vec::with_capacity(n),
        best: None,
    };
    search.go(0, first);
    let mut key = Vec::with_capacity(2 + n);
    key.push(n as u64);
    key.extend(search.best.expect("at least one ordering"));
    key
}

/// Canonical AHU encoding of a tree graph (must be connected and acyclic),
/// invariant under isomorphism. Two trees get the same string iff isomorphic.
pub fn tree_canonical(g: &Graph) -> String {
    let n = g.order();
    assert!(n >= 1, "empty tree has no canonical form");
    debug_assert_eq!(g.size(), n - 1, "not a tree (wrong edge count)");
    if n == 1 {
        return "()".to_string();
    }
    let centroids = tree_centroids(g);
    match centroids.as_slice() {
        [c] => ahu(g, *c, usize::MAX),
        [c1, c2] => {
            // Split at the centroid edge and combine canonically.
            let a = ahu(g, *c1, *c2);
            let b = ahu(g, *c2, *c1);
            if a <= b {
                format!("[{a}{b}]")
            } else {
                format!("[{b}{a}]")
            }
        }
        _ => unreachable!("a tree has 1 or 2 centroids"),
    }
}

/// AHU canonical string of the subtree rooted at `v`, entered from `parent`
/// (`usize::MAX` for the root). Children encodings are sorted.
fn ahu(g: &Graph, v: usize, parent: usize) -> String {
    let mut kids: Vec<String> = g
        .neighbours(v)
        .iter()
        .filter(|&&w| w != parent)
        .map(|&w| ahu(g, w, v))
        .collect();
    kids.sort();
    let mut s = String::with_capacity(2 + kids.iter().map(String::len).sum::<usize>());
    s.push('(');
    for k in &kids {
        s.push_str(k);
    }
    s.push(')');
    s
}

/// The centroid(s) of a tree: node(s) minimising the maximum component size
/// after removal. Every tree has one or two centroids.
fn tree_centroids(g: &Graph) -> Vec<usize> {
    let n = g.order();
    if n == 1 {
        return vec![0];
    }
    // subtree sizes via iterative post-order from node 0
    let mut parent = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![0usize];
    let mut seen = vec![false; n];
    seen[0] = true;
    while let Some(v) = stack.pop() {
        order.push(v);
        for &w in g.neighbours(v) {
            if !seen[w] {
                seen[w] = true;
                parent[w] = v;
                stack.push(w);
            }
        }
    }
    let mut size = vec![1usize; n];
    for &v in order.iter().rev() {
        if parent[v] != usize::MAX {
            size[parent[v]] += size[v];
        }
    }
    let mut best = n;
    let mut cents = Vec::new();
    for v in 0..n {
        let mut biggest = n - size[v]; // the component containing the parent
        for &w in g.neighbours(v) {
            if parent[w] == v {
                biggest = biggest.max(size[w]);
            }
        }
        match biggest.cmp(&best) {
            std::cmp::Ordering::Less => {
                best = biggest;
                cents = vec![v];
            }
            std::cmp::Ordering::Equal => cents.push(v),
            std::cmp::Ordering::Greater => {}
        }
    }
    cents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{balanced_binary_tree, cycle, path, star};
    use crate::iso::are_isomorphic;
    use crate::ops::{disjoint_union, permute};

    #[test]
    fn canonical_key_matches_isomorphism() {
        let g = cycle(6);
        let h = permute(&g, &[2, 4, 0, 5, 1, 3]);
        assert_eq!(canonical_key(&g), canonical_key(&h));
        let tt = disjoint_union(&cycle(3), &cycle(3));
        assert_ne!(canonical_key(&g), canonical_key(&tt));
    }

    #[test]
    fn canonical_key_respects_labels() {
        let g = path(2).with_labels(vec![0, 1]).unwrap();
        let h = path(2).with_labels(vec![1, 0]).unwrap();
        let i = path(2).with_labels(vec![0, 0]).unwrap();
        assert_eq!(canonical_key(&g), canonical_key(&h));
        assert_ne!(canonical_key(&g), canonical_key(&i));
    }

    #[test]
    fn canonical_key_separates_small_nonisomorphic() {
        // All 4-node, 3-edge graphs: P4, star, triangle+isolated
        let p4 = path(4);
        let s3 = star(3);
        let t1 = disjoint_union(&cycle(3), &path(1));
        let keys = [canonical_key(&p4), canonical_key(&s3), canonical_key(&t1)];
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        assert!(!are_isomorphic(&p4, &s3));
    }

    #[test]
    fn tree_canonical_invariance() {
        let t = balanced_binary_tree(3);
        let p = permute(&t, &[6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(tree_canonical(&t), tree_canonical(&p));
        assert_ne!(tree_canonical(&t), tree_canonical(&path(7)));
    }

    #[test]
    fn centroids_of_path() {
        assert_eq!(tree_centroids(&path(5)), vec![2]);
        let c = tree_centroids(&path(6));
        assert_eq!(c.len(), 2);
        assert!(c.contains(&2) && c.contains(&3));
    }

    #[test]
    fn centroid_of_star() {
        assert_eq!(tree_centroids(&star(5)), vec![0]);
    }

    #[test]
    fn two_centroid_trees_distinguished() {
        // P6 vs the "H" tree (two centroids each) must differ.
        let p6 = path(6);
        let h = crate::Graph::from_edges_unchecked(6, &[(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]);
        assert_ne!(tree_canonical(&p6), tree_canonical(&h));
    }
}
