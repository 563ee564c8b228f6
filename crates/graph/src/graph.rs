//! Core graph types: [`Graph`], [`DiGraph`], [`WeightedGraph`], [`RootedGraph`].

use crate::{GraphError, Result};

/// An undirected simple graph in CSR (compressed sparse row) form, with
/// optional node labels.
///
/// Nodes are `0..n`. Neighbour lists are sorted, enabling `O(log deg)` edge
/// queries via binary search and deterministic iteration order. Labels are
/// small integers (`u32`); an unlabelled graph has every label equal to `0`.
///
/// This is the object the paper's Sections 3 and 4 quantify over: 1-WL
/// refines its nodes, homomorphism vectors count maps into it.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists, length `2m`.
    neighbours: Vec<usize>,
    /// One label per node (all zero for unlabelled graphs).
    labels: Vec<u32>,
}

impl Graph {
    /// Builds a graph of order `n` from an edge list. Edges may appear in any
    /// order; each unordered pair must appear at most once.
    ///
    /// # Errors
    /// Rejects out-of-range endpoints, self-loops and duplicate edges.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Like [`Graph::from_edges`] but panics on invalid input. Intended for
    /// statically-known literals in tests and generators.
    pub fn from_edges_unchecked(n: usize, edges: &[(usize, usize)]) -> Self {
        Self::from_edges(n, edges).expect("invalid static edge list")
    }

    /// The empty graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbours: Vec::new(),
            labels: vec![0; n],
        }
    }

    /// Number of nodes (the paper's `|G|`, the *order*).
    #[inline]
    pub fn order(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (the paper's `‖G‖`).
    #[inline]
    pub fn size(&self) -> usize {
        self.neighbours.len() / 2
    }

    /// Sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbours(&self, v: usize) -> &[usize] {
        &self.neighbours[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The raw CSR offset array, length `order() + 1` (see [`crate::csr`]).
    #[inline]
    pub(crate) fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated sorted neighbour array, length `2 * size()`.
    #[inline]
    pub(crate) fn csr_targets(&self) -> &[usize] {
        &self.neighbours
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Whether the unordered pair `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbours(u).binary_search(&v).is_ok()
    }

    /// Label of node `v`.
    #[inline]
    pub fn label(&self, v: usize) -> u32 {
        self.labels[v]
    }

    /// All node labels.
    #[inline]
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// True if any node carries a non-zero label.
    pub fn is_labelled(&self) -> bool {
        self.labels.iter().any(|&l| l != 0)
    }

    /// Replaces the node labels.
    ///
    /// # Errors
    /// The label vector must have length `order()`.
    pub fn set_labels(&mut self, labels: Vec<u32>) -> Result<()> {
        if labels.len() != self.order() {
            return Err(GraphError::LabelLengthMismatch {
                got: labels.len(),
                expected: self.order(),
            });
        }
        self.labels = labels;
        Ok(())
    }

    /// Returns a copy with the given labels.
    pub fn with_labels(mut self, labels: Vec<u32>) -> Result<Self> {
        self.set_labels(labels)?;
        Ok(self)
    }

    /// Iterates over all edges as ordered pairs `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.order()).flat_map(move |u| {
            self.neighbours(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Collects the edge list.
    pub fn edge_vec(&self) -> Vec<(usize, usize)> {
        self.edges().collect()
    }

    /// Dense adjacency matrix in row-major order (length `n * n`), as `f64`.
    pub fn adjacency_flat(&self) -> Vec<f64> {
        let n = self.order();
        let mut a = vec![0.0; n * n];
        for (u, v) in self.edges() {
            a[u * n + v] = 1.0;
            a[v * n + u] = 1.0;
        }
        a
    }

    /// Adjacency rows as 64-bit bitsets: `bits[v][w / 64] >> (w % 64) & 1`.
    /// Useful for O(1) adjacency tests in tight backtracking loops.
    pub fn adjacency_bits(&self) -> Vec<Vec<u64>> {
        let n = self.order();
        let words = n.div_ceil(64);
        let mut bits = vec![vec![0u64; words]; n];
        for (u, v) in self.edges() {
            bits[u][v / 64] |= 1 << (v % 64);
            bits[v][u / 64] |= 1 << (u % 64);
        }
        bits
    }

    /// The degree sequence, sorted descending.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut d: Vec<usize> = (0..self.order()).map(|v| self.degree(v)).collect();
        d.sort_unstable_by(|a, b| b.cmp(a));
        d
    }

    /// Roots the graph at `v`, producing a [`RootedGraph`] view.
    pub fn rooted(&self, v: usize) -> RootedGraph<'_> {
        assert!(v < self.order(), "root out of range");
        RootedGraph {
            graph: self,
            root: v,
        }
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, edges={:?}",
            self.order(),
            self.size(),
            self.edge_vec()
        )?;
        if self.is_labelled() {
            write!(f, ", labels={:?}", self.labels)?;
        }
        write!(f, ")")
    }
}

/// Incremental builder for [`Graph`]. Detects duplicate edges and self-loops.
pub struct GraphBuilder {
    n: usize,
    adj: Vec<Vec<usize>>,
    labels: Vec<u32>,
}

impl GraphBuilder {
    /// Starts a builder for a graph of order `n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            adj: vec![Vec::new(); n],
            labels: vec![0; n],
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    /// Rejects out-of-range endpoints, self-loops and duplicates.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<()> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                order: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                order: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if self.adj[u].contains(&v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        Ok(())
    }

    /// Adds the edge if not already present; returns whether it was added.
    pub fn add_edge_idempotent(&mut self, u: usize, v: usize) -> Result<bool> {
        match self.add_edge(u, v) {
            Ok(()) => Ok(true),
            Err(GraphError::DuplicateEdge(..)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Sets the label of a single node.
    ///
    /// # Errors
    /// Rejects out-of-range nodes.
    pub fn set_label(&mut self, v: usize, label: u32) -> Result<()> {
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                order: self.n,
            });
        }
        self.labels[v] = label;
        Ok(())
    }

    /// Finalises the builder into a CSR [`Graph`].
    pub fn build(self) -> Graph {
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0);
        let total: usize = self.adj.iter().map(Vec::len).sum();
        let mut neighbours = Vec::with_capacity(total);
        for mut list in self.adj {
            list.sort_unstable();
            neighbours.extend_from_slice(&list);
            offsets.push(neighbours.len());
        }
        Graph {
            offsets,
            neighbours,
            labels: self.labels,
        }
    }
}

/// A graph together with a distinguished root node (Section 4.4's rooted
/// graphs `(G, v)` used for homomorphism node embeddings).
#[derive(Clone, Copy)]
pub struct RootedGraph<'a> {
    /// The underlying graph.
    pub graph: &'a Graph,
    /// The distinguished node.
    pub root: usize,
}

/// A directed graph in double-CSR form (out- and in-neighbour lists).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiGraph {
    out_offsets: Vec<usize>,
    out_neighbours: Vec<usize>,
    in_offsets: Vec<usize>,
    in_neighbours: Vec<usize>,
    labels: Vec<u32>,
}

impl DiGraph {
    /// Builds a directed graph of order `n` from arcs `(u, v)` meaning `u → v`.
    ///
    /// # Errors
    /// Rejects out-of-range endpoints, self-loops and duplicate arcs.
    pub fn from_arcs(n: usize, arcs: &[(usize, usize)]) -> Result<Self> {
        let mut out = vec![Vec::new(); n];
        let mut inn = vec![Vec::new(); n];
        for &(u, v) in arcs {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, order: n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, order: n });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if out[u].contains(&v) {
                return Err(GraphError::DuplicateEdge(u, v));
            }
            out[u].push(v);
            inn[v].push(u);
        }
        let pack = |lists: Vec<Vec<usize>>| {
            let mut offsets = Vec::with_capacity(n + 1);
            offsets.push(0);
            let mut flat = Vec::new();
            for mut l in lists {
                l.sort_unstable();
                flat.extend_from_slice(&l);
                offsets.push(flat.len());
            }
            (offsets, flat)
        };
        let (out_offsets, out_neighbours) = pack(out);
        let (in_offsets, in_neighbours) = pack(inn);
        Ok(DiGraph {
            out_offsets,
            out_neighbours,
            in_offsets,
            in_neighbours,
            labels: vec![0; n],
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn order(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of arcs.
    #[inline]
    pub fn size(&self) -> usize {
        self.out_neighbours.len()
    }

    /// Sorted out-neighbours of `v`.
    #[inline]
    pub fn out_neighbours(&self, v: usize) -> &[usize] {
        &self.out_neighbours[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// Sorted in-neighbours of `v`.
    #[inline]
    pub fn in_neighbours(&self, v: usize) -> &[usize] {
        &self.in_neighbours[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Whether the arc `u → v` exists.
    #[inline]
    pub fn has_arc(&self, u: usize, v: usize) -> bool {
        self.out_neighbours(u).binary_search(&v).is_ok()
    }

    /// Node labels.
    #[inline]
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Replaces node labels.
    ///
    /// # Errors
    /// The label vector must have length `order()`.
    pub fn set_labels(&mut self, labels: Vec<u32>) -> Result<()> {
        if labels.len() != self.order() {
            return Err(GraphError::LabelLengthMismatch {
                got: labels.len(),
                expected: self.order(),
            });
        }
        self.labels = labels;
        Ok(())
    }

    /// All arcs `(u, v)`.
    pub fn arcs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.order()).flat_map(move |u| self.out_neighbours(u).iter().map(move |&v| (u, v)))
    }

    /// Forgets orientation, producing the underlying undirected simple graph.
    pub fn to_undirected(&self) -> Graph {
        let mut b = GraphBuilder::new(self.order());
        for (u, v) in self.arcs() {
            // Both orientations may exist; keep the edge once.
            let _ = b.add_edge_idempotent(u, v);
        }
        let mut g = b.build();
        g.set_labels(self.labels.clone()).expect("same order");
        g
    }
}

/// An undirected graph with real edge weights `α(u, v)` (Section 3.2).
///
/// A missing edge has weight `0`; stored edges may carry any non-zero weight
/// (including negative — the paper's weighted WL works over any commutative
/// monoid, here `(ℝ, +)`).
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedGraph {
    offsets: Vec<usize>,
    /// Pairs `(neighbour, weight)`, sorted by neighbour.
    entries: Vec<(usize, f64)>,
    labels: Vec<u32>,
}

impl WeightedGraph {
    /// Builds from weighted edges. Zero-weight edges are dropped (weight 0
    /// means "no edge" in the paper's convention).
    ///
    /// # Errors
    /// Rejects out-of-range endpoints, self-loops and duplicates.
    pub fn from_weighted_edges(n: usize, edges: &[(usize, usize, f64)]) -> Result<Self> {
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, order: n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, order: n });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if adj[u].iter().any(|&(x, _)| x == v) {
                return Err(GraphError::DuplicateEdge(u, v));
            }
            if w != 0.0 {
                adj[u].push((v, w));
                adj[v].push((u, w));
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut entries = Vec::new();
        for mut list in adj {
            list.sort_unstable_by_key(|&(x, _)| x);
            entries.extend_from_slice(&list);
            offsets.push(entries.len());
        }
        Ok(WeightedGraph {
            offsets,
            entries,
            labels: vec![0; n],
        })
    }

    /// Lifts an unweighted graph to weight 1 on every edge.
    pub fn from_graph(g: &Graph) -> Self {
        let edges: Vec<(usize, usize, f64)> = g.edges().map(|(u, v)| (u, v, 1.0)).collect();
        let mut wg = Self::from_weighted_edges(g.order(), &edges).expect("valid source graph");
        wg.labels = g.labels().to_vec();
        wg
    }

    /// Number of nodes.
    #[inline]
    pub fn order(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (non-zero) weighted edges.
    #[inline]
    pub fn size(&self) -> usize {
        self.entries.len() / 2
    }

    /// Sorted `(neighbour, weight)` slice of `v`.
    #[inline]
    pub fn weighted_neighbours(&self, v: usize) -> &[(usize, f64)] {
        &self.entries[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The weight `α(u, v)`, `0.0` if there is no edge.
    pub fn weight(&self, u: usize, v: usize) -> f64 {
        match self
            .weighted_neighbours(u)
            .binary_search_by_key(&v, |&(x, _)| x)
        {
            Ok(i) => self.weighted_neighbours(u)[i].1,
            Err(_) => 0.0,
        }
    }

    /// Node labels.
    #[inline]
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Replaces node labels.
    ///
    /// # Errors
    /// The label vector must have length `order()`.
    pub fn set_labels(&mut self, labels: Vec<u32>) -> Result<()> {
        if labels.len() != self.order() {
            return Err(GraphError::LabelLengthMismatch {
                got: labels.len(),
                expected: self.order(),
            });
        }
        self.labels = labels;
        Ok(())
    }

    /// Dense weighted adjacency matrix, row-major, length `n * n`.
    pub fn adjacency_flat(&self) -> Vec<f64> {
        let n = self.order();
        let mut a = vec![0.0; n * n];
        for v in 0..n {
            for &(w, alpha) in self.weighted_neighbours(v) {
                a[v * n + w] = alpha;
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_basics() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(g.order(), 3);
        assert_eq!(g.size(), 3);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.neighbours(1), &[0, 2]);
        assert_eq!(g.degree_sequence(), vec![2, 2, 2]);
    }

    #[test]
    fn builder_rejects_bad_input() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 0)]),
            Err(GraphError::SelfLoop(0))
        ));
        assert!(matches!(
            Graph::from_edges(2, &[(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge(1, 0))
        ));
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, order: 2 })
        ));
    }

    #[test]
    fn labels_roundtrip() {
        let g = Graph::from_edges(2, &[(0, 1)])
            .unwrap()
            .with_labels(vec![3, 7])
            .unwrap();
        assert_eq!(g.label(0), 3);
        assert_eq!(g.label(1), 7);
        assert!(g.is_labelled());
        assert!(matches!(
            g.clone().with_labels(vec![1]),
            Err(GraphError::LabelLengthMismatch {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn edges_iterator_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let e = g.edge_vec();
        assert_eq!(e.len(), 5);
        for &(u, v) in &e {
            assert!(u < v);
        }
    }

    #[test]
    fn adjacency_flat_symmetric() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let a = g.adjacency_flat();
        assert_eq!(a[1], 1.0); // (0,1)
        assert_eq!(a[3], 1.0); // (1,0)
        assert_eq!(a[2], 0.0); // (0,2)
    }

    #[test]
    fn adjacency_bits_matches_has_edge() {
        let g = Graph::from_edges(70, &[(0, 69), (3, 64), (1, 2)]).unwrap();
        let bits = g.adjacency_bits();
        for u in 0..70 {
            for v in 0..70 {
                let bit = bits[u][v / 64] >> (v % 64) & 1 == 1;
                assert_eq!(bit, g.has_edge(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn digraph_orientation() {
        let d = DiGraph::from_arcs(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(d.has_arc(0, 1));
        assert!(!d.has_arc(1, 0));
        assert_eq!(d.in_neighbours(0), &[2]);
        assert_eq!(d.out_neighbours(0), &[1]);
        let g = d.to_undirected();
        assert_eq!(g.size(), 3);
    }

    #[test]
    fn digraph_two_cycle_undirected_once() {
        let d = DiGraph::from_arcs(2, &[(0, 1), (1, 0)]).unwrap();
        assert_eq!(d.size(), 2);
        assert_eq!(d.to_undirected().size(), 1);
    }

    #[test]
    fn weighted_graph_weights() {
        let w = WeightedGraph::from_weighted_edges(3, &[(0, 1, 2.5), (1, 2, -1.0), (0, 2, 0.0)])
            .unwrap();
        assert_eq!(w.weight(0, 1), 2.5);
        assert_eq!(w.weight(1, 0), 2.5);
        assert_eq!(w.weight(1, 2), -1.0);
        // zero-weight edge dropped
        assert_eq!(w.weight(0, 2), 0.0);
        assert_eq!(w.size(), 2);
    }

    #[test]
    fn weighted_from_graph_is_unit() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let w = WeightedGraph::from_graph(&g);
        assert_eq!(w.weight(0, 1), 1.0);
        assert_eq!(w.weight(0, 2), 0.0);
    }

    #[test]
    fn rooted_view() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let r = g.rooted(1);
        assert_eq!(r.root, 1);
        assert_eq!(r.graph.order(), 2);
    }
}
