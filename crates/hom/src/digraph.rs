//! Directed homomorphisms (Section 4.2): counting, enumeration of small
//! digraphs, and the machinery behind Theorem 4.11 (Lovász): homomorphism
//! counts from *directed acyclic graphs* already determine directed graphs
//! up to isomorphism.

use x2v_graph::hash::FxHashSet;
use x2v_graph::DiGraph;

/// Counts homomorphisms of directed graphs: arc-preserving maps `F → G`.
pub fn hom_count_digraph(f: &DiGraph, g: &DiGraph) -> u128 {
    let n = g.order();
    let k = f.order();
    if k == 0 {
        return 1;
    }
    // Place vertices in an order where each has an already-placed
    // in/out-neighbour when possible.
    let order = placement_order(f);
    let mut image = vec![usize::MAX; k];
    fn rec(
        f: &DiGraph,
        g: &DiGraph,
        order: &[usize],
        depth: usize,
        image: &mut [usize],
        n: usize,
    ) -> u128 {
        if depth == order.len() {
            return 1;
        }
        let u = order[depth];
        let mut total = 0u128;
        'cand: for x in 0..n {
            if f.labels()[u] != g.labels()[x] {
                continue;
            }
            for &w in f.out_neighbours(u) {
                let im = image[w];
                if im != usize::MAX && !g.has_arc(x, im) {
                    continue 'cand;
                }
            }
            for &w in f.in_neighbours(u) {
                let im = image[w];
                if im != usize::MAX && !g.has_arc(im, x) {
                    continue 'cand;
                }
            }
            image[u] = x;
            total += rec(f, g, order, depth + 1, image, n);
            image[u] = usize::MAX;
        }
        total
    }
    rec(f, g, &order, 0, &mut image, n)
}

fn placement_order(f: &DiGraph) -> Vec<usize> {
    let k = f.order();
    let mut order = Vec::with_capacity(k);
    let mut seen = vec![false; k];
    for s in 0..k {
        if seen[s] {
            continue;
        }
        seen[s] = true;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in f.out_neighbours(v).iter().chain(f.in_neighbours(v)) {
                if !seen[w] {
                    seen[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    order
}

/// Whether a digraph is acyclic.
fn is_dag(g: &DiGraph) -> bool {
    // Kahn's algorithm.
    let n = g.order();
    let mut indeg: Vec<usize> = (0..n).map(|v| g.in_neighbours(v).len()).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut removed = 0;
    while let Some(v) = queue.pop() {
        removed += 1;
        for &w in g.out_neighbours(v) {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                queue.push(w);
            }
        }
    }
    removed == n
}

/// Whether two digraphs are isomorphic (brute force over permutations —
/// intended for the tiny universes of the Theorem 4.11 experiment).
pub fn digraphs_isomorphic(g: &DiGraph, h: &DiGraph) -> bool {
    if g.order() != h.order() || g.size() != h.size() {
        return false;
    }
    let n = g.order();
    let mut perm: Vec<usize> = (0..n).collect();
    fn try_perms(perm: &mut Vec<usize>, at: usize, g: &DiGraph, h: &DiGraph) -> bool {
        let n = perm.len();
        if at == n {
            for u in 0..n {
                for v in 0..n {
                    if g.has_arc(u, v) != h.has_arc(perm[u], perm[v]) {
                        return false;
                    }
                }
            }
            return true;
        }
        for i in at..n {
            perm.swap(at, i);
            if try_perms(perm, at + 1, g, h) {
                return true;
            }
            perm.swap(at, i);
        }
        false
    }
    try_perms(&mut perm, 0, g, h)
}

/// A canonical key for small digraphs (min adjacency bitstring over all
/// permutations; `n ≤ 6`).
fn digraph_canonical_key(g: &DiGraph) -> u64 {
    let n = g.order();
    assert!(n * n <= 36, "canonical key limited to order 6");
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    fn visit(perm: &mut Vec<usize>, at: usize, g: &DiGraph, best: &mut u64) {
        let n = perm.len();
        if at == n {
            let mut key = 0u64;
            for u in 0..n {
                for v in 0..n {
                    key <<= 1;
                    if g.has_arc(perm[u], perm[v]) {
                        key |= 1;
                    }
                }
            }
            *best = (*best).min(key);
            return;
        }
        for i in at..n {
            perm.swap(at, i);
            visit(perm, at + 1, g, best);
            perm.swap(at, i);
        }
    }
    visit(&mut perm, 0, g, &mut best);
    best
}

/// All digraphs of order exactly `n` up to isomorphism (no 2-cycles
/// excluded — all simple digraphs without self-loops).
///
/// Counts (OEIS A000273): 1, 3, 16, 218 for n = 1..4.
///
/// # Panics
/// For `n > 4` (the arc-subset scan is 2^(n(n−1))).
pub fn all_digraphs(n: usize) -> Vec<DiGraph> {
    assert!(n <= 4, "digraph enumeration limited to order 4");
    let arcs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
        .collect();
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut out = Vec::new();
    for mask in 0u64..(1u64 << arcs.len()) {
        let chosen: Vec<(usize, usize)> = arcs
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, &a)| a)
            .collect();
        let g = DiGraph::from_arcs(n, &chosen).expect("valid arcs");
        if seen.insert(digraph_canonical_key(&g)) {
            out.push(g);
        }
    }
    out
}

/// All DAGs of order ≤ `n` up to isomorphism.
pub fn all_dags_up_to(n: usize) -> Vec<DiGraph> {
    let mut out = Vec::new();
    for k in 1..=n {
        out.extend(all_digraphs(k).into_iter().filter(is_dag));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dipath(n: usize) -> DiGraph {
        let arcs: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        DiGraph::from_arcs(n, &arcs).unwrap()
    }

    fn dicycle(n: usize) -> DiGraph {
        let arcs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        DiGraph::from_arcs(n, &arcs).unwrap()
    }

    #[test]
    fn directed_hom_counts_known() {
        // Directed path with 2 nodes into a directed 3-cycle: 3 arcs.
        assert_eq!(hom_count_digraph(&dipath(2), &dicycle(3)), 3);
        // Directed 3-cycle into directed 3-cycle: 3 rotations.
        assert_eq!(hom_count_digraph(&dicycle(3), &dicycle(3)), 3);
        // Directed 3-cycle into a directed path: none.
        assert_eq!(hom_count_digraph(&dicycle(3), &dipath(4)), 0);
        // Single vertex: order of the target.
        let k1 = DiGraph::from_arcs(1, &[]).unwrap();
        assert_eq!(hom_count_digraph(&k1, &dicycle(5)), 5);
    }

    #[test]
    fn orientation_matters() {
        // 2-path u→v←w vs u→v→w map differently into a 2-cycle.
        let inward = DiGraph::from_arcs(3, &[(0, 1), (2, 1)]).unwrap();
        let through = dipath(3);
        let two_cycle = DiGraph::from_arcs(2, &[(0, 1), (1, 0)]).unwrap();
        assert_eq!(hom_count_digraph(&through, &two_cycle), 2);
        assert_eq!(hom_count_digraph(&inward, &two_cycle), 2);
        // …but into the single arc 0→1 they differ: the through-path needs
        // an arc out of the sink (none), while the inward pair maps both
        // sources onto 0 and the sink onto 1.
        let arc = dipath(2);
        assert_eq!(hom_count_digraph(&through, &arc), 0);
        assert_eq!(hom_count_digraph(&inward, &arc), 1);
    }

    #[test]
    fn dag_detection() {
        assert!(is_dag(&dipath(4)));
        assert!(!is_dag(&dicycle(3)));
        let diamond = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert!(is_dag(&diamond));
    }

    #[test]
    fn digraph_enumeration_counts() {
        // OEIS A000273: digraphs on n nodes: 1, 3, 16.
        assert_eq!(all_digraphs(1).len(), 1);
        assert_eq!(all_digraphs(2).len(), 3);
        assert_eq!(all_digraphs(3).len(), 16);
    }

    #[test]
    fn dag_enumeration_counts() {
        // OEIS A003087 (acyclic digraphs up to iso): 1, 2, 6 for n = 1..3.
        assert_eq!(all_dags_up_to(1).len(), 1);
        assert_eq!(all_dags_up_to(2).len(), 3);
        assert_eq!(all_dags_up_to(3).len(), 9);
    }

    #[test]
    fn digraph_iso_basics() {
        let c = dicycle(3);
        let c2 = DiGraph::from_arcs(3, &[(1, 0), (0, 2), (2, 1)]).unwrap();
        assert!(digraphs_isomorphic(&c, &c2));
        let rev = DiGraph::from_arcs(3, &[(1, 0), (2, 1), (0, 2)]).unwrap();
        // The reversed 3-cycle is isomorphic to the 3-cycle (relabel).
        assert!(digraphs_isomorphic(&c, &rev));
        assert!(!digraphs_isomorphic(&c, &dipath(3)));
    }
}
