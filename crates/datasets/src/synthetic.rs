//! Synthetic graph-classification suites, ordered from easy to WL-hard.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_graph::generators;
use x2v_graph::Graph;

/// A binary/multiclass graph-classification dataset.
pub struct GraphDataset {
    /// The graphs.
    pub graphs: Vec<Graph>,
    /// Class label per graph.
    pub labels: Vec<usize>,
    /// Human-readable name.
    pub name: &'static str,
}

impl GraphDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.labels.iter().copied().max().map_or(0, |m| m + 1)
    }
}

/// Cycles vs random trees of matched sizes — the easiest structural task
/// (any cycle-aware feature separates it; 1-WL suffices).
pub fn cycles_vs_trees(per_class: usize, min_order: usize, seed: u64) -> GraphDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graphs = Vec::with_capacity(2 * per_class);
    let mut labels = Vec::with_capacity(2 * per_class);
    for i in 0..per_class {
        let n = min_order + i % 8;
        graphs.push(generators::cycle(n.max(3)));
        labels.push(0);
        graphs.push(generators::random_tree(n.max(3), &mut rng));
        labels.push(1);
    }
    GraphDataset {
        graphs,
        labels,
        name: "cycles-vs-trees",
    }
}

/// Bipartite random graphs vs the same graphs with one planted odd cycle —
/// detectable via odd-cycle counts (hom(C_{2k+1}, ·)) and by WL on
/// moderate radii.
pub fn bipartite_vs_odd(per_class: usize, side: usize, p: f64, seed: u64) -> GraphDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..per_class {
        let bip = random_bipartite(side, side, p, &mut rng);
        // Class 1: plant a triangle by adding one within-side edge chord.
        let mut with_odd_edges = bip.edge_vec();
        // choose a random within-side pair (both in the left part) that
        // shares a common right neighbour, creating an odd cycle.
        let mut planted = bip.clone();
        'plant: for _ in 0..100 {
            let a = rng.random_range(0..side);
            let b = rng.random_range(0..side);
            if a != b && !planted.has_edge(a, b) {
                with_odd_edges.push((a.min(b), a.max(b)));
                planted = Graph::from_edges_unchecked(2 * side, &with_odd_edges);
                break 'plant;
            }
        }
        graphs.push(bip);
        labels.push(0);
        graphs.push(planted);
        labels.push(1);
    }
    GraphDataset {
        graphs,
        labels,
        name: "bipartite-vs-odd",
    }
}

fn random_bipartite(a: usize, b: usize, p: f64, rng: &mut StdRng) -> Graph {
    let mut edges = Vec::new();
    for u in 0..a {
        for v in 0..b {
            if rng.random::<f64>() < p {
                edges.push((u, a + v));
            }
        }
    }
    Graph::from_edges_unchecked(a + b, &edges)
}

/// Erdős–Rényi vs preferential-attachment graphs with matched order and
/// (approximately) matched size — a degree-distribution task.
pub fn er_vs_preferential(per_class: usize, n: usize, m_attach: usize, seed: u64) -> GraphDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..per_class {
        let pa = generators::preferential_attachment(n, m_attach, &mut rng);
        let target_m = pa.size();
        let p = 2.0 * target_m as f64 / (n * (n - 1)) as f64;
        graphs.push(generators::gnp(n, p, &mut rng));
        labels.push(0);
        graphs.push(pa);
        labels.push(1);
    }
    GraphDataset {
        graphs,
        labels,
        name: "er-vs-preferential",
    }
}

/// Circulant vs random-regular graphs of the same degree and order: both
/// classes are vertex-transitive/regular, so 1-WL alone sees nothing — the
/// WL-hard end of the spectrum, separable by cycle counts and higher-order
/// structure.
fn circulant_vs_regular(per_class: usize, n: usize, seed: u64) -> GraphDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    for i in 0..per_class {
        let jump2 = 2 + (i % (n / 2 - 2).max(1));
        let jumps = [1, jump2.min(n / 2)];
        graphs.push(generators::circulant(n, &jumps));
        labels.push(0);
        graphs.push(generators::random_regular(n, 4, &mut rng));
        labels.push(1);
    }
    GraphDataset {
        graphs,
        labels,
        name: "circulant-vs-regular",
    }
}

/// Plain G(n, p) vs the same with planted K4 motifs — the motif-detection
/// task motivating subgraph-counting kernels.
pub fn motif_planted(per_class: usize, n: usize, p: f64, motifs: usize, seed: u64) -> GraphDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..per_class {
        graphs.push(generators::gnp(n, p, &mut rng));
        labels.push(0);
        // Planted: overlay cliques on random quadruples.
        let mut g = generators::gnp(n, p, &mut rng);
        for _ in 0..motifs {
            let mut quad: Vec<usize> = Vec::new();
            while quad.len() < 4 {
                let v = rng.random_range(0..n);
                if !quad.contains(&v) {
                    quad.push(v);
                }
            }
            let mut edges = g.edge_vec();
            for i in 0..4 {
                for j in (i + 1)..4 {
                    let e = (quad[i].min(quad[j]), quad[i].max(quad[j]));
                    if !edges.contains(&e) {
                        edges.push(e);
                    }
                }
            }
            g = Graph::from_edges_unchecked(n, &edges);
        }
        graphs.push(g);
        labels.push(1);
    }
    GraphDataset {
        graphs,
        labels,
        name: "motif-planted",
    }
}

/// The standard benchmark suite used by the kernel-comparison experiments.
pub fn standard_suite(seed: u64) -> Vec<GraphDataset> {
    vec![
        cycles_vs_trees(20, 6, seed),
        bipartite_vs_odd(20, 6, 0.5, seed + 1),
        er_vs_preferential(20, 20, 2, seed + 2),
        motif_planted(20, 18, 0.15, 2, seed + 3),
        circulant_vs_regular(20, 12, seed + 4),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::dist;

    #[test]
    fn cycles_vs_trees_well_formed() {
        let d = cycles_vs_trees(10, 6, 1);
        assert_eq!(d.len(), 20);
        assert_eq!(d.num_classes(), 2);
        for (g, &l) in d.graphs.iter().zip(&d.labels) {
            if l == 0 {
                assert_eq!(g.order(), g.size());
            } else {
                assert_eq!(g.order(), g.size() + 1);
            }
        }
    }

    #[test]
    fn bipartite_labels_truthful() {
        let d = bipartite_vs_odd(10, 6, 0.5, 2);
        for (g, &l) in d.graphs.iter().zip(&d.labels) {
            let bip = dist::bipartition(g).is_some();
            if l == 0 {
                assert!(bip, "class 0 must be bipartite");
            }
            // class 1 is bipartite only if planting failed (rare); allow it
        }
        let odd_count = d
            .graphs
            .iter()
            .zip(&d.labels)
            .filter(|(g, &l)| l == 1 && dist::bipartition(g).is_none())
            .count();
        assert!(odd_count >= 8, "planting should usually succeed");
    }

    #[test]
    fn regular_datasets_fool_degree_features() {
        let d = circulant_vs_regular(5, 12, 3);
        for g in &d.graphs {
            assert!((0..g.order()).all(|v| g.degree(v) == 4), "all 4-regular");
        }
    }

    #[test]
    fn er_vs_pa_sizes_close() {
        let d = er_vs_preferential(5, 20, 2, 4);
        let er_m: usize = d
            .graphs
            .iter()
            .zip(&d.labels)
            .filter(|(_, &l)| l == 0)
            .map(|(g, _)| g.size())
            .sum();
        let pa_m: usize = d
            .graphs
            .iter()
            .zip(&d.labels)
            .filter(|(_, &l)| l == 1)
            .map(|(g, _)| g.size())
            .sum();
        let ratio = er_m as f64 / pa_m as f64;
        assert!(
            (0.6..1.4).contains(&ratio),
            "edge counts should match: {ratio}"
        );
    }

    #[test]
    fn motif_planting_adds_k4s() {
        let d = motif_planted(5, 18, 0.15, 2, 5);
        let tri = |g: &Graph| dist::triangle_count(g);
        let plain: usize = d
            .graphs
            .iter()
            .zip(&d.labels)
            .filter(|(_, &l)| l == 0)
            .map(|(g, _)| tri(g))
            .sum();
        let planted: usize = d
            .graphs
            .iter()
            .zip(&d.labels)
            .filter(|(_, &l)| l == 1)
            .map(|(g, _)| tri(g))
            .sum();
        assert!(planted > plain, "planted graphs have more triangles");
    }

    #[test]
    fn suite_is_deterministic() {
        let a = standard_suite(9);
        let b = standard_suite(9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graphs, y.graphs);
            assert_eq!(x.labels, y.labels);
        }
    }
}

/// A three-class task — cycles vs trees vs near-cliques — exercising
/// multiclass pipelines (one-vs-rest SVMs, multiclass GNN heads).
pub fn three_class(per_class: usize, min_order: usize, seed: u64) -> GraphDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    for i in 0..per_class {
        let n = (min_order + i % 6).max(4);
        graphs.push(generators::cycle(n));
        labels.push(0);
        graphs.push(generators::random_tree(n, &mut rng));
        labels.push(1);
        // Dense blob: G(n, 0.85).
        graphs.push(generators::gnp(n, 0.85, &mut rng));
        labels.push(2);
    }
    GraphDataset {
        graphs,
        labels,
        name: "three-class",
    }
}

#[cfg(test)]
mod three_class_tests {
    use super::*;

    #[test]
    fn three_class_shape() {
        let d = three_class(8, 6, 1);
        assert_eq!(d.len(), 24);
        assert_eq!(d.num_classes(), 3);
        // Every class has per_class members.
        for c in 0..3 {
            assert_eq!(d.labels.iter().filter(|&&l| l == c).count(), 8);
        }
    }
}
