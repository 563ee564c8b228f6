//! The Cai–Fürer–Immerman (CFI) construction (Section 3.3, \[24\]).
//!
//! Given a connected base graph `G`, the construction produces, for each set
//! `T ⊆ E(G)` of *twisted* edges, a graph `CFI(G, T)`. Its isomorphism type
//! depends only on the parity of `|T|`: the *untwisted* graph (even parity)
//! and the *twisted* graph (odd parity) are non-isomorphic, yet k-WL cannot
//! distinguish them whenever the base graph has treewidth greater than `k`.
//! These are the canonical hard instances separating the WL hierarchy.
//!
//! Gadget layout for base vertex `v` of degree `d` and base edge `e = {u,v}`:
//!
//! * *edge nodes* `e_v^0`, `e_v^1` for each endpoint `v` of `e` — labelled by
//!   the base edge id;
//! * *inner nodes* `(v, S)` for each even-cardinality `S ⊆ E(v)` — labelled
//!   by the base vertex id; `(v, S)` is adjacent to `e_v^1` for `e ∈ S` and
//!   to `e_v^0` for `e ∈ E(v) \ S`;
//! * `e_u^a` is adjacent to `e_v^b` iff `a ⊕ b = [e ∈ T]`.

use crate::{Graph, GraphBuilder};

/// A CFI instance over a base graph.
struct CfiBuilder<'a> {
    base: &'a Graph,
}

impl<'a> CfiBuilder<'a> {
    /// Prepares the construction over a connected base graph.
    fn new(base: &'a Graph) -> Self {
        assert!(
            crate::dist::is_connected(base),
            "CFI parity argument needs a connected base"
        );
        CfiBuilder { base }
    }

    /// Builds `CFI(G, T)` where `T` is given as indices into
    /// `base.edge_vec()`.
    fn build(&self, twisted_edges: &[usize]) -> Graph {
        let base = self.base;
        let n = base.order();
        let edges = base.edge_vec();
        let m = edges.len();

        // Edge-node ids: for edge index e and endpoint side s ∈ {0 = lower
        // endpoint, 1 = higher endpoint} and bit b: 4 nodes per edge.
        let edge_node = |e: usize, side: usize, bit: usize| e * 4 + side * 2 + bit;
        let n_edge_nodes = 4 * m;

        // Incident edge indices per base vertex, with the side of v.
        let mut incident: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (e, &(u, v)) in edges.iter().enumerate() {
            incident[u].push((e, 0));
            incident[v].push((e, 1));
        }

        // Inner-node ids: for vertex v, one per even subset of its incident
        // edges, enumerated in mask order.
        let mut inner_offset = vec![0usize; n + 1];
        for v in 0..n {
            let d = incident[v].len();
            let count = if d == 0 { 1 } else { 1usize << (d - 1) };
            inner_offset[v + 1] = inner_offset[v] + count;
        }
        let total = n_edge_nodes + inner_offset[n];
        let mut b = GraphBuilder::new(total);

        // Labels: edge nodes by base edge, inner nodes by base vertex
        // (offset so labels don't collide).
        for e in 0..m {
            for side in 0..2 {
                for bit in 0..2 {
                    b.set_label(edge_node(e, side, bit), (1 + e) as u32)
                        .expect("in range");
                }
            }
        }

        // Edge-to-edge connections, twisted or straight.
        for e in 0..m {
            let twist = twisted_edges.contains(&e) as usize;
            for a in 0..2 {
                let bv = a ^ twist;
                b.add_edge(edge_node(e, 0, a), edge_node(e, 1, bv))
                    .expect("fresh");
            }
        }

        // Inner gadget nodes.
        for v in 0..n {
            let d = incident[v].len();
            let mut idx = 0usize;
            for mask in 0..(1usize << d) {
                if !(mask.count_ones() as usize).is_multiple_of(2) {
                    continue;
                }
                let node = n_edge_nodes + inner_offset[v] + idx;
                idx += 1;
                b.set_label(node, (1 + m + v) as u32).expect("in range");
                for (i, &(e, side)) in incident[v].iter().enumerate() {
                    let bit = (mask >> i) & 1;
                    b.add_edge(node, edge_node(e, side, bit)).expect("fresh");
                }
            }
        }
        b.build()
    }

    /// The untwisted CFI graph (`T = ∅`).
    fn untwisted(&self) -> Graph {
        self.build(&[])
    }

    /// The twisted CFI graph (one twisted edge; any single edge gives the
    /// same isomorphism type over a connected base).
    fn twisted(&self) -> Graph {
        self.build(&[0])
    }
}

/// Convenience: the (untwisted, twisted) CFI pair over `base`.
pub fn cfi_pair(base: &Graph) -> (Graph, Graph) {
    let b = CfiBuilder::new(base);
    (b.untwisted(), b.twisted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, cycle};
    use crate::iso::are_isomorphic;

    #[test]
    fn cfi_sizes() {
        // Base K4: 6 edges * 4 + 4 vertices * 2^(3-1) = 24 + 16 = 40 nodes.
        let (g, h) = cfi_pair(&complete(4));
        assert_eq!(g.order(), 40);
        assert_eq!(h.order(), 40);
        assert_eq!(g.size(), h.size());
        assert_eq!(g.degree_sequence(), h.degree_sequence());
    }

    #[test]
    fn twist_parity_determines_isomorphism() {
        let base = cycle(4);
        let b = CfiBuilder::new(&base);
        let even0 = b.build(&[]);
        let even2 = b.build(&[0, 2]);
        let odd1 = b.build(&[1]);
        let odd3 = b.build(&[0, 1, 3]);
        assert!(are_isomorphic(&even0, &even2));
        assert!(are_isomorphic(&odd1, &odd3));
        assert!(!are_isomorphic(&even0, &odd1));
    }

    #[test]
    fn cfi_pair_nonisomorphic_over_k4() {
        let (g, h) = cfi_pair(&complete(4));
        assert!(!are_isomorphic(&g, &h));
    }

    #[test]
    #[should_panic(expected = "connected base")]
    fn disconnected_base_rejected() {
        let base = crate::ops::disjoint_union(&cycle(3), &cycle(3));
        let _ = CfiBuilder::new(&base);
    }
}
