//! Compressed sparse row (CSR) adjacency: the flat `offsets`/`targets`
//! layout the hot loops scan.
//!
//! [`Graph`] stores its neighbour lists in CSR form; [`CsrView`] is the
//! zero-copy borrowed view of that layout ([`Graph::csr`]) that node2vec
//! walk generation scans — two flat arrays, no per-node indirection,
//! cache-friendly sequential scans. `offsets` has length `n + 1`, starts
//! at `0`, is non-decreasing and ends at `targets.len()`; each node's
//! target slice is sorted ascending.

use crate::Graph;

/// A borrowed CSR adjacency view: two flat slices.
///
/// `Copy`, pointer-sized, and free to construct — pass it by value into
/// hot loops instead of re-borrowing a [`Graph`] per node.
#[derive(Clone, Copy, Debug)]
pub struct CsrView<'a> {
    offsets: &'a [usize],
    targets: &'a [usize],
}

impl<'a> CsrView<'a> {
    /// Number of nodes.
    #[inline]
    pub fn order(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored target entries (2·edges for an undirected
    /// simple graph).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.targets.len()
    }

    /// Sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbours(&self, v: usize) -> &'a [usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The raw offset array, length `order() + 1`.
    #[inline]
    pub fn offsets(&self) -> &'a [usize] {
        self.offsets
    }

    /// The raw concatenated target array.
    #[inline]
    pub fn targets(&self) -> &'a [usize] {
        self.targets
    }
}

impl Graph {
    /// Zero-copy CSR view of this graph's adjacency — the representation
    /// the walk hot loop scans.
    #[inline]
    pub fn csr(&self) -> CsrView<'_> {
        CsrView {
            offsets: self.csr_offsets(),
            targets: self.csr_targets(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::generators::petersen;

    #[test]
    fn view_matches_graph_accessors() {
        let g = petersen();
        let v = g.csr();
        assert_eq!(v.order(), g.order());
        assert_eq!(v.nnz(), 2 * g.size());
        for u in 0..g.order() {
            assert_eq!(v.neighbours(u), g.neighbours(u));
            assert_eq!(v.degree(u), g.degree(u));
        }
        assert_eq!(v.offsets().len(), g.order() + 1);
    }
}
