//! WL feature vectors: the explicit feature map of the WL subtree kernel
//! (Section 3.5).
//!
//! A graph `G` refined for `t` rounds yields, per round `i`, the sparse
//! histogram `c ↦ wl(c, G)`. The t-round WL kernel is
//! `K(G, H) = Σ_{i≤t} Σ_c wl(c,G)·wl(c,H)` — a sparse dot product when both
//! graphs were refined through a shared interner — and the discounted
//! variant weights round `i` by `2^{-i}`.

use crate::refine::Refiner;
use x2v_graph::Graph;

/// Per-round colour histograms in a flat sorted-CSR layout: three dense
/// arrays instead of one hash map per round.
///
/// `round_offsets[i]..round_offsets[i + 1]` delimits round `i`'s slice of
/// `keys` (strictly increasing colours) and `counts` (their multiplicities).
/// The layout makes the kernel inner product of two graphs a *merge-join*
/// over two sorted runs — no hashing, no probing, perfectly predictable
/// scans — which is what the WL subtree kernel's pairwise `eval` runs in
/// `x2v-kernel`. Its Gram rows instead read the transpose of a whole
/// dataset's features, colour by colour.
///
/// A colour id determines its round: every round-`i` signature embeds a
/// round-`(i − 1)` colour, and round-0 signatures carry a tag of their own.
/// So within one refiner the rounds' colour sets are disjoint.
///
/// ## Bit-exactness
///
/// Per-round sums of products of node counts are integer-valued, and
/// integer-valued `f64` arithmetic below `2^53` is exact in *any* summation
/// order; the per-round sums are combined in ascending round order. Dots
/// of the same pair of graphs therefore agree bit for bit whichever
/// interner coloured them and in whichever order each round was summed,
/// which is what lets a Gram matrix built from one shared interner
/// reproduce pairwise kernel evaluation exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseWlFeatures {
    round_offsets: Vec<usize>,
    keys: Vec<u64>,
    counts: Vec<u64>,
}

impl SparseWlFeatures {
    /// Builds from per-round colour slices (`rounds[i][v]` = colour of node
    /// `v` at round `i`), as recorded by [`crate::WlHistory`].
    fn from_colour_rounds(rounds: &[Vec<u64>]) -> Self {
        // A round has at most one key per node.
        let nodes = rounds.first().map_or(0, Vec::len);
        let mut f = SparseWlFeatures {
            round_offsets: Vec::with_capacity(rounds.len() + 1),
            keys: Vec::with_capacity(nodes * rounds.len()),
            counts: Vec::with_capacity(nodes * rounds.len()),
        };
        f.round_offsets.push(0);
        let mut sorted: Vec<u64> = Vec::with_capacity(nodes);
        for colours in rounds {
            sorted.clear();
            sorted.extend_from_slice(colours);
            sorted.sort_unstable();
            let mut run = sorted.iter().copied();
            if let Some(first) = run.next() {
                let mut key = first;
                let mut count = 1u64;
                for c in run {
                    if c == key {
                        count += 1;
                    } else {
                        f.keys.push(key);
                        f.counts.push(count);
                        key = c;
                        count = 1;
                    }
                }
                f.keys.push(key);
                f.counts.push(count);
            }
            f.round_offsets.push(f.keys.len());
        }
        f
    }

    /// Computes the features of `g` with `t` refinement rounds through a
    /// shared interner-based refiner (all vectors from one refiner share a
    /// feature space).
    pub fn compute(refiner: &mut Refiner, g: &Graph, t: usize) -> Self {
        let _timer = x2v_obs::span("wl/sparse_features");
        let history = refiner.refine_rounds(g, t);
        Self::from_colour_rounds(&history.rounds)
    }

    /// Number of rounds stored (including round 0).
    pub fn num_rounds(&self) -> usize {
        self.round_offsets.len() - 1
    }

    /// Total number of non-zero features.
    pub fn nnz(&self) -> usize {
        self.keys.len()
    }

    /// Round `i`'s sorted `(keys, counts)` slices.
    ///
    /// # Panics
    /// If `i >= self.num_rounds()`.
    pub fn round(&self, i: usize) -> (&[u64], &[u64]) {
        let (lo, hi) = (self.round_offsets[i], self.round_offsets[i + 1]);
        (&self.keys[lo..hi], &self.counts[lo..hi])
    }

    /// The t-round WL kernel value `Σ_i Σ_c wl(c,G)·wl(c,H)`.
    pub fn dot(&self, other: &SparseWlFeatures) -> f64 {
        self.weighted_dot(other, |_| 1.0)
    }

    /// `Σ_i w(i) Σ_c wl(c,G)·wl(c,H)` via a sorted merge-join per round;
    /// `w(i) = 2^{-i}` gives the discounted kernel `K_WL`.
    pub fn weighted_dot<W: Fn(usize) -> f64>(&self, other: &SparseWlFeatures, w: W) -> f64 {
        let rounds = self.num_rounds().min(other.num_rounds());
        let mut total = 0.0;
        for i in 0..rounds {
            let (ka, ca) = self.round(i);
            let (kb, cb) = other.round(i);
            let mut round_sum = 0.0;
            let (mut p, mut q) = (0, 0);
            while p < ka.len() && q < kb.len() {
                match ka[p].cmp(&kb[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        round_sum += ca[p] as f64 * cb[q] as f64;
                        p += 1;
                        q += 1;
                    }
                }
            }
            total += w(i) * round_sum;
        }
        total
    }
}

/// Computes sparse feature vectors for a whole dataset through one shared
/// interner-based refiner (serial — the interner is shared mutable state).
pub fn dataset_sparse_features(graphs: &[Graph], t: usize) -> Vec<SparseWlFeatures> {
    let mut refiner = Refiner::new();
    graphs
        .iter()
        .map(|g| SparseWlFeatures::compute(&mut refiner, g, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{cycle, path, star};
    use x2v_graph::ops::{disjoint_union, permute};

    #[test]
    fn self_dot_counts_squares() {
        let mut r = Refiner::new();
        // P2 at round 0: one colour with count 2 → dot = 4; round 1: one
        // colour count 2 → total 8.
        let f = SparseWlFeatures::compute(&mut r, &path(2), 1);
        assert_eq!(f.dot(&f), 8.0);
    }

    #[test]
    fn isomorphic_graphs_same_features() {
        let fs = dataset_sparse_features(&[cycle(5), permute(&cycle(5), &[3, 1, 4, 0, 2])], 3);
        assert_eq!(fs[0], fs[1]);
        assert_eq!(fs[0].dot(&fs[1]), fs[0].dot(&fs[0]));
    }

    #[test]
    fn wl_equivalent_graphs_identical_vectors() {
        let fs = dataset_sparse_features(&[cycle(6), disjoint_union(&cycle(3), &cycle(3))], 4);
        assert_eq!(fs[0], fs[1]);
    }

    #[test]
    fn different_graphs_lower_cross_kernel() {
        let fs = dataset_sparse_features(&[path(4), star(3)], 2);
        let cross = fs[0].dot(&fs[1]);
        let self0 = fs[0].dot(&fs[0]);
        let self1 = fs[1].dot(&fs[1]);
        // Cauchy-Schwarz strictly: they share only round-0 colours.
        assert!(cross * cross < self0 * self1);
    }

    #[test]
    fn discounting_reduces_later_rounds() {
        let fs = dataset_sparse_features(&[cycle(4)], 3);
        let f = &fs[0];
        // Regular graph: each round has a single colour of count 4, so
        // plain dot = 16 * 4 rounds, discounted = 16 * (1 + 1/2 + 1/4 + 1/8).
        assert_eq!(f.dot(f), 64.0);
        assert!((f.weighted_dot(f, |i| 0.5f64.powi(i as i32)) - 16.0 * 1.875).abs() < 1e-12);
    }

    #[test]
    fn nnz_and_sparse_roundtrip() {
        let fs = dataset_sparse_features(&[path(4)], 2);
        let f = &fs[0];
        // P4 round 0: 1 colour; round 1: 2 colours; round 2: 2 colours.
        assert_eq!(f.nnz(), 5);
    }

    #[test]
    fn sparse_round_slices_are_sorted_histograms() {
        let graphs = [path(4), cycle(6), disjoint_union(&path(3), &cycle(4))];
        let mut r = Refiner::new();
        for g in &graphs {
            let history = r.refine_rounds(g, 2);
            let f = SparseWlFeatures::from_colour_rounds(&history.rounds);
            assert_eq!(f.num_rounds(), 3);
            for i in 0..f.num_rounds() {
                let (keys, counts) = f.round(i);
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "round {i} sorted");
                let mut expected: Vec<(u64, u64)> = history.histogram(i).into_iter().collect();
                expected.sort_unstable();
                let got: Vec<(u64, u64)> =
                    keys.iter().copied().zip(counts.iter().copied()).collect();
                assert_eq!(got, expected, "round {i} histogram");
            }
        }
    }

    #[test]
    fn rounds_have_disjoint_colour_sets() {
        // One refiner, several graphs: a colour seen at round i is never
        // seen at another round, in any graph.
        let graphs = [
            path(4),
            cycle(6),
            star(3),
            disjoint_union(&path(3), &cycle(4)),
        ];
        let mut r = Refiner::new();
        let mut round_of = std::collections::HashMap::new();
        for g in &graphs {
            let f = SparseWlFeatures::compute(&mut r, g, 4);
            for i in 0..f.num_rounds() {
                for &c in f.round(i).0 {
                    assert_eq!(*round_of.entry(c).or_insert(i), i, "colour {c}");
                }
            }
        }
        // Regular graphs repeat their round-(i−1) partition, yet the
        // colours are fresh each round.
        assert!(round_of.len() > graphs.len() * 2);
    }

    #[test]
    fn empty_graph_features() {
        let f = SparseWlFeatures::from_colour_rounds(&[vec![], vec![]]);
        assert_eq!(f.num_rounds(), 2);
        assert_eq!(f.nnz(), 0);
        assert_eq!(f.dot(&f), 0.0);
    }
}
