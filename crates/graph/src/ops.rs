//! Graph operations: disjoint union, complement, permutation, subgraphs,
//! line graphs, and the blow-up used by Section 5's distance measures.
//!
//! Operations whose arguments come from untrusted callers have fallible
//! `try_*` variants returning [`GraphError::InvalidArgument`]; the plain
//! forms panic on the same violations. Internal `expect`s are reserved for
//! genuine invariants (edges re-inserted from an already-validated
//! [`Graph`] cannot fail the builder).

use crate::{Graph, GraphBuilder, GraphError, Result};

/// Disjoint union `G ∪ H`. Nodes of `h` are shifted by `g.order()`.
pub fn disjoint_union(g: &Graph, h: &Graph) -> Graph {
    let n = g.order() + h.order();
    let shift = g.order();
    let mut b = GraphBuilder::new(n);
    for (u, v) in g.edges() {
        b.add_edge(u, v).expect("valid source edges");
    }
    for (u, v) in h.edges() {
        b.add_edge(u + shift, v + shift)
            .expect("valid source edges");
    }
    for (v, &l) in g.labels().iter().enumerate() {
        b.set_label(v, l).expect("in range");
    }
    for (v, &l) in h.labels().iter().enumerate() {
        b.set_label(v + shift, l).expect("in range");
    }
    b.build()
}

/// Disjoint union of many graphs.
pub fn disjoint_union_all<'a, I: IntoIterator<Item = &'a Graph>>(graphs: I) -> Graph {
    let mut acc = Graph::empty(0);
    for g in graphs {
        acc = disjoint_union(&acc, g);
    }
    acc
}

/// The complement graph (labels preserved).
pub fn complement(g: &Graph) -> Graph {
    let n = g.order();
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if !g.has_edge(u, v) {
                b.add_edge(u, v).expect("fresh edge");
            }
        }
    }
    for (v, &l) in g.labels().iter().enumerate() {
        b.set_label(v, l).expect("in range");
    }
    b.build()
}

/// Relabels nodes by a permutation: node `v` of `g` becomes `perm[v]`.
///
/// The result is isomorphic to `g`; this is the workhorse for
/// isomorphism-invariance property tests.
///
/// # Panics
/// If `perm` is not a permutation of `0..g.order()`.
pub fn permute(g: &Graph, perm: &[usize]) -> Graph {
    try_permute(g, perm).unwrap_or_else(|e| panic!("{e}"))
}

/// [`permute`] with argument violations surfaced as typed errors.
///
/// # Errors
/// [`GraphError::InvalidArgument`] when `perm` has the wrong length,
/// contains an out-of-range image, or repeats one.
fn try_permute(g: &Graph, perm: &[usize]) -> Result<Graph> {
    if perm.len() != g.order() {
        return Err(GraphError::InvalidArgument(format!(
            "not a permutation: length {} for a graph of order {}",
            perm.len(),
            g.order()
        )));
    }
    let mut seen = vec![false; g.order()];
    for (v, &p) in perm.iter().enumerate() {
        if p >= g.order() || seen[p] {
            return Err(GraphError::InvalidArgument(format!(
                "not a permutation: perm[{v}] = {p} is {}",
                if p >= g.order() {
                    "out of range"
                } else {
                    "repeated"
                }
            )));
        }
        seen[p] = true;
    }
    let mut b = GraphBuilder::new(g.order());
    for (u, v) in g.edges() {
        // Invariant: a bijective relabelling of a simple graph is simple.
        b.add_edge(perm[u], perm[v]).expect("permuted simple graph");
    }
    for (v, &l) in g.labels().iter().enumerate() {
        b.set_label(perm[v], l)
            .expect("permutation image is in range");
    }
    Ok(b.build())
}

/// The subgraph induced by `nodes` (which must be distinct). Node `i` of the
/// result corresponds to `nodes[i]`.
///
/// # Panics
/// On out-of-range or repeated nodes.
pub fn induced_subgraph(g: &Graph, nodes: &[usize]) -> Graph {
    try_induced_subgraph(g, nodes).unwrap_or_else(|e| panic!("{e}"))
}

/// [`induced_subgraph`] with argument violations surfaced as typed errors.
///
/// # Errors
/// [`GraphError::InvalidArgument`] when `nodes` contains an index
/// `>= g.order()` or the same index twice.
fn try_induced_subgraph(g: &Graph, nodes: &[usize]) -> Result<Graph> {
    let mut seen = vec![false; g.order()];
    for &u in nodes {
        if u >= g.order() {
            return Err(GraphError::InvalidArgument(format!(
                "induced-subgraph node {u} out of range for order {}",
                g.order()
            )));
        }
        if seen[u] {
            return Err(GraphError::InvalidArgument(format!(
                "induced-subgraph node {u} repeated"
            )));
        }
        seen[u] = true;
    }
    let mut b = GraphBuilder::new(nodes.len());
    for (i, &u) in nodes.iter().enumerate() {
        b.set_label(i, g.label(u))
            .expect("node index validated above");
        for (j, &v) in nodes.iter().enumerate().skip(i + 1) {
            if g.has_edge(u, v) {
                // Invariant: distinct (i, j) pairs are visited once each.
                b.add_edge(i, j).expect("induced simple graph");
            }
        }
    }
    Ok(b.build())
}

/// The `k`-fold blow-up: every node becomes an independent set of `k` copies,
/// every edge a complete bipartite bundle. Used to compare graphs of
/// different orders via the least common multiple (Section 5.1, after \[67\]).
///
/// # Panics
/// If `k == 0` or `g.order() * k` overflows.
pub fn blow_up(g: &Graph, k: usize) -> Graph {
    try_blow_up(g, k).unwrap_or_else(|e| panic!("{e}"))
}

/// [`blow_up`] with argument violations surfaced as typed errors.
///
/// # Errors
/// [`GraphError::InvalidArgument`] when `k == 0` (the blow-up factor must
/// be positive) or the blown-up order `g.order() * k` overflows `usize`.
fn try_blow_up(g: &Graph, k: usize) -> Result<Graph> {
    if k == 0 {
        return Err(GraphError::InvalidArgument(
            "blow-up factor must be positive".into(),
        ));
    }
    let n = g.order();
    let blown = n
        .checked_mul(k)
        .ok_or_else(|| GraphError::InvalidArgument(format!("blow-up order {n} * {k} overflows")))?;
    let mut b = GraphBuilder::new(blown);
    for (u, v) in g.edges() {
        for i in 0..k {
            for j in 0..k {
                // Invariant: copies of distinct endpoints never coincide.
                b.add_edge(u * k + i, v * k + j).expect("fresh edge");
            }
        }
    }
    for v in 0..n {
        for i in 0..k {
            b.set_label(v * k + i, g.label(v))
                .expect("copy index is in range");
        }
    }
    Ok(b.build())
}

/// Splits a graph into its connected components (as induced subgraphs, each
/// with its original-node index map).
pub fn components(g: &Graph) -> Vec<(Graph, Vec<usize>)> {
    let comps = crate::dist::connected_components(g);
    let ncomp = comps.iter().copied().max().map_or(0, |m| m + 1);
    let mut nodes_of: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for (v, &c) in comps.iter().enumerate() {
        nodes_of[c].push(v);
    }
    nodes_of
        .into_iter()
        .map(|nodes| (induced_subgraph(g, &nodes), nodes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn union_of_triangles_is_two_components() {
        let t = generators::cycle(3);
        let u = disjoint_union(&t, &t);
        assert_eq!(u.order(), 6);
        assert_eq!(u.size(), 6);
        assert_eq!(components(&u).len(), 2);
    }

    #[test]
    fn complement_involutive() {
        let g = generators::path(5);
        assert_eq!(complement(&complement(&g)), g);
    }

    #[test]
    fn complement_of_complete_is_empty() {
        let g = generators::complete(4);
        assert_eq!(complement(&g).size(), 0);
    }

    #[test]
    fn permute_preserves_degree_sequence() {
        let g = generators::star(5);
        let p = permute(&g, &[5, 4, 3, 2, 1, 0]);
        assert_eq!(g.degree_sequence(), p.degree_sequence());
        assert!(p.has_edge(5, 4));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_non_permutation() {
        let g = generators::path(3);
        permute(&g, &[0, 0, 1]);
    }

    #[test]
    fn induced_subgraph_of_cycle() {
        let c = generators::cycle(5);
        let sub = induced_subgraph(&c, &[0, 1, 2]);
        // path on 3 nodes
        assert_eq!(sub.size(), 2);
        assert_eq!(sub.degree(1), 2);
    }

    #[test]
    fn blow_up_counts() {
        let e = generators::path(2); // single edge
        let b = blow_up(&e, 3);
        assert_eq!(b.order(), 6);
        assert_eq!(b.size(), 9);
    }

    #[test]
    fn try_variants_reject_bad_arguments() {
        let g = generators::path(3);
        for (got, why) in [
            (try_permute(&g, &[0, 1]), "short permutation"),
            (try_permute(&g, &[0, 1, 3]), "out-of-range image"),
            (try_permute(&g, &[0, 0, 1]), "repeated image"),
            (try_induced_subgraph(&g, &[0, 5]), "node out of range"),
            (try_induced_subgraph(&g, &[1, 1]), "node repeated"),
            (try_blow_up(&g, 0), "zero blow-up factor"),
            (try_blow_up(&g, usize::MAX / 2), "overflowing blow-up"),
        ] {
            match got {
                Err(crate::GraphError::InvalidArgument(_)) => {}
                other => panic!("{why}: expected InvalidArgument, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_variants_match_infallible_on_valid_input() {
        let g = generators::cycle(4);
        assert_eq!(
            try_permute(&g, &[1, 2, 3, 0]).unwrap(),
            permute(&g, &[1, 2, 3, 0])
        );
        assert_eq!(
            try_induced_subgraph(&g, &[0, 1, 2]).unwrap(),
            induced_subgraph(&g, &[0, 1, 2])
        );
        assert_eq!(try_blow_up(&g, 2).unwrap(), blow_up(&g, 2));
    }
}

/// The tensor (categorical) product `G × H`: `(u, v)` adjacent to
/// `(u', v')` iff `uu' ∈ E(G)` and `vv' ∈ E(H)`. This is the categorical
/// product of graphs: homomorphisms into it are pairs of homomorphisms, so
/// `hom(F, G × H) = hom(F, G) · hom(F, H)` — the identity behind the
/// direct-product random-walk kernel.
pub fn tensor_product(g: &Graph, h: &Graph) -> Graph {
    let m = h.order();
    let mut b = GraphBuilder::new(g.order() * m);
    for (u, up) in g.edges() {
        for (v, vp) in h.edges() {
            // Both orientations of the pair of undirected edges.
            let _ = b
                .add_edge_idempotent(u * m + v, up * m + vp)
                .expect("in range");
            let _ = b
                .add_edge_idempotent(u * m + vp, up * m + v)
                .expect("in range");
        }
    }
    b.build()
}

#[cfg(test)]
mod product_tests {
    use super::*;
    use crate::generators::{complete, cycle, path};

    #[test]
    fn tensor_product_edge_count() {
        // |E(G × H)| = 2 |E(G)| |E(H)| for simple graphs without
        // degenerate identifications.
        let g = cycle(5);
        let h = path(4);
        let t = tensor_product(&g, &h);
        assert_eq!(t.size(), 2 * g.size() * h.size());
    }

    #[test]
    fn tensor_of_bipartite_disconnects() {
        // K2 × K2 = two disjoint edges.
        let k2 = complete(2);
        let t = tensor_product(&k2, &k2);
        assert_eq!(t.order(), 4);
        assert_eq!(t.size(), 2);
        assert_eq!(crate::ops::components(&t).len(), 2);
    }
}
