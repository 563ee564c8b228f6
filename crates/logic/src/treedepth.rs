//! Exact tree-depth (Theorem 4.10's structural parameter).
//!
//! `td(G) = 0` for the empty graph; for connected `G`,
//! `td(G) = 1 + min_v td(G − v)`; for disconnected `G` the maximum over
//! components. Computed by memoised recursion over vertex subsets
//! (bitmasks, ≤ 20 vertices — patterns in this workspace are tiny).

use x2v_graph::hash::FxHashMap;
use x2v_graph::Graph;

/// Exact tree-depth of `g`.
///
/// # Panics
/// For graphs with more than 20 vertices.
pub fn treedepth(g: &Graph) -> usize {
    let n = g.order();
    assert!(n <= 20, "exact tree-depth limited to 20 vertices");
    if n == 0 {
        return 0;
    }
    let adj: Vec<u32> = (0..n)
        .map(|v| g.neighbours(v).iter().map(|&w| 1u32 << w).sum())
        .collect();
    let full: u32 = (1u32 << n) - 1;
    let mut memo: FxHashMap<u32, usize> = FxHashMap::default();
    td_rec(&adj, full, &mut memo)
}

fn components_of(adj: &[u32], set: u32) -> Vec<u32> {
    let mut remaining = set;
    let mut comps = Vec::new();
    while remaining != 0 {
        let start = remaining.trailing_zeros();
        let mut comp = 1u32 << start;
        loop {
            let mut grown = comp;
            let mut bits = comp;
            while bits != 0 {
                let v = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                grown |= adj[v] & set;
            }
            if grown == comp {
                break;
            }
            comp = grown;
        }
        comps.push(comp);
        remaining &= !comp;
    }
    comps
}

fn td_rec(adj: &[u32], set: u32, memo: &mut FxHashMap<u32, usize>) -> usize {
    if set == 0 {
        return 0;
    }
    if set.count_ones() == 1 {
        return 1;
    }
    if let Some(&v) = memo.get(&set) {
        return v;
    }
    let comps = components_of(adj, set);
    let result = if comps.len() > 1 {
        comps
            .iter()
            .map(|&c| td_rec(adj, c, memo))
            .max()
            .expect("non-empty")
    } else {
        // Connected: 1 + min over removed vertex.
        let mut best = usize::MAX;
        let mut bits = set;
        while bits != 0 {
            let v = bits.trailing_zeros();
            bits &= bits - 1;
            let sub = td_rec(adj, set & !(1 << v), memo);
            best = best.min(1 + sub);
            if best == 2 {
                break; // cannot do better for a connected graph on ≥ 2 nodes
            }
        }
        best
    };
    memo.insert(set, result);
    result
}

/// All connected graphs of order ≤ `max_order` with tree-depth ≤ `k` — a
/// finite slice of the class `TD_k` of Theorem 4.10.
pub fn treedepth_class(max_order: usize, k: usize) -> Vec<Graph> {
    let mut out = Vec::new();
    for n in 1..=max_order {
        for g in x2v_graph::enumerate::all_connected_graphs(n) {
            if treedepth(&g) <= k {
                out.push(g);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{complete, cycle, path, star};
    use x2v_graph::ops::disjoint_union;

    #[test]
    fn known_treedepths() {
        assert_eq!(treedepth(&path(1)), 1);
        assert_eq!(treedepth(&path(2)), 2);
        assert_eq!(treedepth(&path(3)), 2);
        assert_eq!(treedepth(&path(4)), 3);
        // td(P_n) = ⌈log2(n+1)⌉.
        assert_eq!(treedepth(&path(7)), 3);
        assert_eq!(treedepth(&path(8)), 4);
        assert_eq!(treedepth(&star(5)), 2);
        assert_eq!(treedepth(&complete(4)), 4);
        assert_eq!(treedepth(&cycle(4)), 3);
        assert_eq!(treedepth(&cycle(7)), 4);
    }

    #[test]
    fn disconnected_takes_maximum() {
        let g = disjoint_union(&path(4), &star(3));
        assert_eq!(treedepth(&g), 3);
    }

    #[test]
    fn class_enumeration() {
        // TD_1: only the single vertex. TD_2: stars (P1, P2, P3=S2, stars).
        let td1 = treedepth_class(4, 1);
        assert_eq!(td1.len(), 1);
        let td2 = treedepth_class(4, 2);
        // K1, K2, P3, S3 — connected graphs of td ≤ 2 up to order 4.
        assert_eq!(td2.len(), 4);
    }
}
