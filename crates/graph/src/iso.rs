//! Ground-truth isomorphism testing for small graphs.
//!
//! Backtracking search with equitable-partition pruning. This is the oracle
//! the workspace checks WL and homomorphism-vector results against (e.g.
//! verifying that CFI pairs are genuinely non-isomorphic although k-WL cannot
//! tell them apart). It is exact but exponential in the worst case; intended
//! for graphs of a few dozen nodes.
//!
//! The equitable-partition routine here is deliberately minimal and private
//! to this crate; the fully-featured, interned, multi-graph Weisfeiler-Leman
//! implementation lives in the `x2v-wl` crate.

use crate::Graph;

/// Computes the coarsest equitable partition refining the label partition.
///
/// Colours are canonical: they are assigned by sorted signature order each
/// round, so two graphs receive comparable colour ids and the multiset of
/// colours is an isomorphism invariant.
pub fn equitable_partition(g: &Graph) -> Vec<usize> {
    let n = g.order();
    // Initial colours: rank of label among sorted distinct labels.
    let mut distinct: Vec<u32> = g.labels().to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut colour: Vec<usize> = g
        .labels()
        .iter()
        .map(|l| distinct.binary_search(l).expect("label present"))
        .collect();
    let mut num_colours = distinct.len().max(1);
    loop {
        // Signature of v: (colour(v), sorted colours of neighbours).
        let mut sigs: Vec<(Vec<usize>, usize)> = (0..n)
            .map(|v| {
                let mut s = Vec::with_capacity(g.degree(v) + 1);
                s.push(colour[v]);
                let mut nb: Vec<usize> = g.neighbours(v).iter().map(|&w| colour[w]).collect();
                nb.sort_unstable();
                s.extend_from_slice(&nb);
                (s, v)
            })
            .collect();
        sigs.sort();
        let mut new_colour = vec![0usize; n];
        let mut next = 0usize;
        for i in 0..n {
            if i > 0 && sigs[i].0 != sigs[i - 1].0 {
                next += 1;
            }
            new_colour[sigs[i].1] = next;
        }
        let new_num = next + 1;
        if new_num == num_colours {
            return new_colour;
        }
        colour = new_colour;
        num_colours = new_num;
    }
}

/// Histogram of colour-class sizes, sorted — an isomorphism invariant.
fn partition_profile(colour: &[usize]) -> Vec<(usize, usize)> {
    let k = colour.iter().copied().max().map_or(0, |m| m + 1);
    let mut count = vec![0usize; k];
    for &c in colour {
        count[c] += 1;
    }
    count.into_iter().enumerate().collect()
}

/// Verifies that `map` (node `v` of `g` ↦ `map[v]` of `h`) is an isomorphism.
pub fn is_isomorphism(g: &Graph, h: &Graph, map: &[usize]) -> bool {
    if g.order() != h.order() || map.len() != g.order() {
        return false;
    }
    let mut seen = vec![false; h.order()];
    for &im in map {
        if im >= h.order() || seen[im] {
            return false;
        }
        seen[im] = true;
    }
    for v in 0..g.order() {
        if g.label(v) != h.label(map[v]) {
            return false;
        }
    }
    for u in 0..g.order() {
        for v in (u + 1)..g.order() {
            if g.has_edge(u, v) != h.has_edge(map[u], map[v]) {
                return false;
            }
        }
    }
    true
}

struct IsoSearch<'a> {
    g: &'a Graph,
    h: &'a Graph,
    gc: Vec<usize>,
    hc: Vec<usize>,
    /// map[v] = image in h, usize::MAX if unassigned
    map: Vec<usize>,
    used: Vec<bool>,
    order: Vec<usize>,
    count_all: bool,
    found: u64,
}

impl IsoSearch<'_> {
    fn search(&mut self, depth: usize) -> bool {
        if depth == self.order.len() {
            self.found += 1;
            return !self.count_all;
        }
        let v = self.order[depth];
        for w in 0..self.h.order() {
            if self.used[w] || self.hc[w] != self.gc[v] {
                continue;
            }
            // Consistency with already-mapped nodes.
            let ok = self.order[..depth]
                .iter()
                .all(|&u| self.g.has_edge(v, u) == self.h.has_edge(w, self.map[u]));
            if !ok {
                continue;
            }
            self.map[v] = w;
            self.used[w] = true;
            if self.search(depth + 1) {
                return true;
            }
            self.used[w] = false;
            self.map[v] = usize::MAX;
        }
        false
    }
}

fn prepared_search<'a>(g: &'a Graph, h: &'a Graph, count_all: bool) -> Option<IsoSearch<'a>> {
    if g.order() != h.order() || g.size() != h.size() {
        return None;
    }
    let gc = equitable_partition(g);
    let hc = equitable_partition(h);
    if partition_profile(&gc) != partition_profile(&hc) {
        return None;
    }
    // Map nodes in order of ascending colour-class size (most constrained first).
    let k = gc.iter().copied().max().map_or(0, |m| m + 1);
    let mut class_size = vec![0usize; k];
    for &c in &gc {
        class_size[c] += 1;
    }
    let mut order: Vec<usize> = (0..g.order()).collect();
    order.sort_by_key(|&v| (class_size[gc[v]], gc[v], v));
    Some(IsoSearch {
        g,
        h,
        gc,
        hc,
        map: vec![usize::MAX; g.order()],
        used: vec![false; h.order()],
        order,
        count_all,
        found: 0,
    })
}

/// Finds an isomorphism `g → h` if one exists.
fn find_isomorphism(g: &Graph, h: &Graph) -> Option<Vec<usize>> {
    let mut s = prepared_search(g, h, false)?;
    if s.search(0) {
        Some(s.map)
    } else {
        None
    }
}

/// Whether `g` and `h` are isomorphic (exact).
pub fn are_isomorphic(g: &Graph, h: &Graph) -> bool {
    find_isomorphism(g, h).is_some()
}

/// The number of automorphisms `aut(G)` (Section 4's `aut` used in the
/// Lovász decomposition `HOM = P · D · M`).
pub fn automorphism_count(g: &Graph) -> u64 {
    match prepared_search(g, g, true) {
        Some(mut s) => {
            s.search(0);
            s.found
        }
        None => unreachable!("a graph always matches itself structurally"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, cycle, path, petersen, star};
    use crate::ops::{disjoint_union, permute};

    #[test]
    fn c6_not_isomorphic_to_two_triangles() {
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        assert!(!are_isomorphic(&c6, &tt));
    }

    #[test]
    fn permutations_are_isomorphic() {
        let g = petersen();
        let p = permute(&g, &[3, 1, 4, 0, 5, 9, 2, 6, 8, 7]);
        let map = find_isomorphism(&g, &p).expect("isomorphic");
        assert!(is_isomorphism(&g, &p, &map));
    }

    #[test]
    fn labels_block_isomorphism() {
        let g = path(2).with_labels(vec![1, 2]).unwrap();
        let h = path(2).with_labels(vec![1, 1]).unwrap();
        assert!(!are_isomorphic(&g, &h));
        let h2 = path(2).with_labels(vec![2, 1]).unwrap();
        assert!(are_isomorphic(&g, &h2));
    }

    #[test]
    fn automorphism_counts_known() {
        assert_eq!(automorphism_count(&complete(4)), 24);
        assert_eq!(automorphism_count(&cycle(5)), 10); // dihedral D5
        assert_eq!(automorphism_count(&path(4)), 2);
        assert_eq!(automorphism_count(&star(3)), 6); // leaves permute
        assert_eq!(automorphism_count(&petersen()), 120);
    }

    #[test]
    fn equitable_partition_path() {
        // P4: ends form one class, middles another.
        let p = path(4);
        let c = equitable_partition(&p);
        assert_eq!(c[0], c[3]);
        assert_eq!(c[1], c[2]);
        assert_ne!(c[0], c[1]);
    }

    #[test]
    fn equitable_partition_canonical_across_graphs() {
        // Same graph, permuted: profiles must agree class-by-class.
        let g = star(4);
        let h = permute(&g, &[4, 3, 2, 1, 0]);
        let pg = partition_profile(&equitable_partition(&g));
        let ph = partition_profile(&equitable_partition(&h));
        assert_eq!(pg, ph);
    }

    #[test]
    fn regular_graphs_single_class() {
        let c = equitable_partition(&cycle(7));
        assert!(c.iter().all(|&x| x == 0));
    }

    #[test]
    fn different_sizes_fast_reject() {
        assert!(!are_isomorphic(&path(3), &path(4)));
        assert!(!are_isomorphic(&cycle(4), &path(4)));
    }
}
