//! Random-walk corpora over graphs (Section 2.1).
//!
//! DeepWalk samples uniform random walks; node2vec biases the second-order
//! transition by the return parameter `p` and in-out parameter `q`:
//! stepping from `t` to `v`, the unnormalised probability of moving on to
//! `x` is `1/p` if `x = t`, `1` if `dist(t, x) = 1`, and `1/q` otherwise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_graph::Graph;

/// Walk-corpus hyperparameters.
#[derive(Clone, Debug)]
pub struct WalkConfig {
    /// Walks started per node.
    pub walks_per_node: usize,
    /// Nodes per walk.
    pub walk_length: usize,
    /// node2vec return parameter `p` (1.0 = unbiased).
    pub p: f64,
    /// node2vec in-out parameter `q` (1.0 = unbiased).
    pub q: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            walks_per_node: 10,
            walk_length: 40,
            p: 1.0,
            q: 1.0,
            seed: 7,
        }
    }
}

/// Chunk grain for parallel walk generation: walks per chunk before the
/// plan's 64-chunk ceiling kicks in. Part of the determinism contract —
/// changing it re-keys every chunk's RNG stream and shifts all corpora.
const WALK_GRAIN: usize = 256;

/// Generates the walk corpus: one sentence of node ids per walk. Nodes with
/// no neighbours yield length-1 walks.
///
/// Walks are generated in parallel over the flat walk index space
/// `w = rep·n + start` (rep-major, matching the corpus order). The index
/// space is cut by a [`x2v_par::ChunkPlan`] keyed only by its size, and
/// chunk `c` draws from the dedicated RNG stream
/// `StdRng::seed_from_u64(seed).split_stream(c)` — so the corpus is
/// bit-identical for every `X2V_THREADS`, including 1.
pub fn generate_walks(g: &Graph, config: &WalkConfig) -> Vec<Vec<usize>> {
    let _timer = x2v_obs::span("embed/generate_walks");
    let total = g.order() * config.walks_per_node;
    let plan = x2v_par::ChunkPlan::new(total, WALK_GRAIN);
    let chunks = x2v_par::map_chunks(&plan, |chunk, range| {
        generate_walk_chunk(g, config, chunk, range)
    });
    let corpus: Vec<Vec<usize>> = chunks.into_iter().flatten().collect();
    x2v_obs::counter_add(
        "embed/walk_steps",
        corpus.iter().map(|w| w.len() as u64).sum(),
    );
    corpus
}

/// The deterministic chunking of the flat walk index space: the exact
/// ranges [`generate_walks`] cuts. Exposed so an external scheduler (the
/// `x2v-fleet` runtime) can farm chunks out to worker *processes* and
/// still reproduce the single-process corpus bit-for-bit: concatenating
/// `generate_walk_chunk(g, cfg, c, ranges[c])` over `c` in order IS
/// `generate_walks(g, cfg)`.
pub fn walk_chunks(g: &Graph, config: &WalkConfig) -> Vec<std::ops::Range<usize>> {
    let total = g.order() * config.walks_per_node;
    let plan = x2v_par::ChunkPlan::new(total, WALK_GRAIN);
    (0..plan.n_chunks()).map(|c| plan.range(c)).collect()
}

/// Generates chunk `chunk` of the walk corpus: the walks with flat indices
/// `w = rep·n + start` in `range`, drawn from the chunk's dedicated RNG
/// stream `StdRng::seed_from_u64(seed).split_stream(chunk)`. Independent of
/// the thread or process executing it — the unit of work the fleet ships
/// to workers. `range` must be the chunk's range from [`walk_chunks`].
pub fn generate_walk_chunk(
    g: &Graph,
    config: &WalkConfig,
    chunk: usize,
    range: std::ops::Range<usize>,
) -> Vec<Vec<usize>> {
    let n = g.order();
    let csr = g.csr();
    let uniform = (config.p - 1.0).abs() < 1e-12 && (config.q - 1.0).abs() < 1e-12;
    let mut rng = StdRng::seed_from_u64(config.seed).split_stream(chunk as u64);
    // Scratch buffer for the biased-step weights, reused across every step
    // of every walk in the chunk: the hot loop allocates only the walks
    // themselves. No effect on the RNG draw sequence, so corpora stay
    // bit-identical to the pre-scratch implementation.
    let mut weights: Vec<f64> = Vec::new();
    range
        .map(|w| {
            let start = w % n;
            let mut walk = Vec::with_capacity(config.walk_length);
            walk.push(start);
            while walk.len() < config.walk_length {
                let cur = *walk.last().expect("non-empty walk");
                let nbrs = csr.neighbours(cur);
                if nbrs.is_empty() {
                    break;
                }
                let next = if uniform || walk.len() < 2 {
                    nbrs[rng.random_range(0..nbrs.len())]
                } else {
                    biased_step(
                        csr,
                        walk[walk.len() - 2],
                        cur,
                        config,
                        &mut rng,
                        &mut weights,
                    )
                };
                walk.push(next);
            }
            walk
        })
        .collect()
}

/// One biased second-order step from `cur`, having arrived from `prev`,
/// scanning adjacency through the CSR view with a caller-provided weight
/// scratch buffer.
fn biased_step(
    csr: x2v_graph::csr::CsrView<'_>,
    prev: usize,
    cur: usize,
    config: &WalkConfig,
    rng: &mut StdRng,
    weights: &mut Vec<f64>,
) -> usize {
    let nbrs = csr.neighbours(cur);
    let prev_nbrs = csr.neighbours(prev);
    // Unnormalised weights; rejection-free: sample by cumulative sum.
    let mut total = 0.0f64;
    weights.clear();
    for &x in nbrs {
        let w = if x == prev {
            1.0 / config.p
        } else if prev_nbrs.binary_search(&x).is_ok() {
            1.0
        } else {
            1.0 / config.q
        };
        weights.push(w);
        total += w;
    }
    let mut target = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return nbrs[i];
        }
    }
    nbrs[nbrs.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{cycle, karate_club, path, sbm, star};
    use x2v_graph::ops::disjoint_union;

    #[test]
    fn corpus_shape() {
        let g = cycle(6);
        let cfg = WalkConfig {
            walks_per_node: 3,
            walk_length: 10,
            ..Default::default()
        };
        let corpus = generate_walks(&g, &cfg);
        assert_eq!(corpus.len(), 18);
        assert!(corpus.iter().all(|w| w.len() == 10));
        // Consecutive walk nodes are adjacent.
        for walk in &corpus {
            for pair in walk.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn isolated_nodes_stop_early() {
        let g = disjoint_union(&path(2), &path(1));
        let cfg = WalkConfig {
            walks_per_node: 1,
            walk_length: 5,
            ..Default::default()
        };
        let corpus = generate_walks(&g, &cfg);
        let iso_walk = corpus.iter().find(|w| w[0] == 2).expect("walk from node 2");
        assert_eq!(iso_walk.len(), 1);
    }

    #[test]
    fn low_p_returns_often() {
        // p → 0 forces immediate backtracking: on a star, walks from a leaf
        // alternate leaf-centre-leaf…, revisiting the start leaf often.
        let g = star(6);
        let backtrack = WalkConfig {
            walks_per_node: 5,
            walk_length: 20,
            p: 0.01,
            q: 1.0,
            seed: 11,
        };
        let explore = WalkConfig {
            p: 100.0,
            ..backtrack.clone()
        };
        let count_revisits = |cfg: &WalkConfig| {
            let corpus = generate_walks(&g, cfg);
            corpus
                .iter()
                .filter(|w| w[0] != 0)
                .map(|w| w.iter().filter(|&&v| v == w[0]).count())
                .sum::<usize>()
        };
        assert!(
            count_revisits(&backtrack) > 2 * count_revisits(&explore),
            "low p must revisit the origin far more often"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = cycle(5);
        let cfg = WalkConfig::default();
        assert_eq!(generate_walks(&g, &cfg), generate_walks(&g, &cfg));
    }

    /// Upper `1 − 1e-6` quantile of chi-square with `df` degrees of
    /// freedom, by the Wilson–Hilferty cube approximation (conservative at
    /// `df = 1`: 27.5 against the exact 23.9).
    fn chi_square_critical(df: usize) -> f64 {
        const Z: f64 = 4.753_424; // standard normal quantile at 1 − 1e-6
        let k = df as f64;
        let h = 2.0 / (9.0 * k);
        k * (1.0 - h + Z * h.sqrt()).powi(3)
    }

    /// Tallies every second-order step `(t → v) → x` of `corpus` and tests
    /// each edge state against node2vec's exact law `α_pq(t, x)/Z` over
    /// `x ∈ N(v)` (`α` is `1/p` for `x = t`, `1` for `x ~ t`, `1/q`
    /// otherwise) with a chi-square test at level 1e-6 per state. States
    /// whose smallest expected count is below 5 are skipped. Returns
    /// `(states tested, states rejected)`.
    fn law_rejections(g: &Graph, corpus: &[Vec<usize>], p: f64, q: f64) -> (usize, usize) {
        let mut tally: std::collections::BTreeMap<(usize, usize), Vec<u64>> = Default::default();
        for walk in corpus {
            for w in walk.windows(3) {
                let (t, v, x) = (w[0], w[1], w[2]);
                let nbrs = g.neighbours(v);
                let counts = tally.entry((t, v)).or_insert_with(|| vec![0; nbrs.len()]);
                counts[nbrs.binary_search(&x).expect("x adjacent to v")] += 1;
            }
        }
        let (mut tested, mut rejected) = (0, 0);
        for (&(t, v), counts) in &tally {
            let alpha: Vec<f64> = g
                .neighbours(v)
                .iter()
                .map(|&x| {
                    if x == t {
                        1.0 / p
                    } else if g.has_edge(t, x) {
                        1.0
                    } else {
                        1.0 / q
                    }
                })
                .collect();
            let z: f64 = alpha.iter().sum();
            let n = counts.iter().sum::<u64>() as f64;
            let expected: Vec<f64> = alpha.iter().map(|a| n * a / z).collect();
            if counts.len() < 2 || expected.iter().any(|&e| e < 5.0) {
                continue;
            }
            let chi2: f64 = counts
                .iter()
                .zip(&expected)
                .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
                .sum();
            tested += 1;
            rejected += usize::from(chi2 > chi_square_critical(counts.len() - 1));
        }
        (tested, rejected)
    }

    /// The walker's next steps follow node2vec's exact second-order law on
    /// karate and a small SBM, unbiased and at p = 0.25, q = 4 (fixed
    /// seeds, so pass or fail is deterministic). A walker with p and q
    /// swapped fails the same test.
    #[test]
    fn biased_steps_follow_the_exact_law() {
        let mut rng = StdRng::seed_from_u64(5);
        let graphs = [
            ("karate", karate_club()),
            ("sbm", sbm(&[10, 10, 10], 0.4, 0.05, &mut rng)),
        ];
        let run = |p: f64, q: f64| WalkConfig {
            walks_per_node: 100,
            walk_length: 60,
            p,
            q,
            seed: 31,
        };
        for (name, g) in &graphs {
            for (p, q) in [(1.0, 1.0), (0.25, 4.0)] {
                let corpus = generate_walks(g, &run(p, q));
                let (tested, rejected) = law_rejections(g, &corpus, p, q);
                assert!(
                    tested * 4 >= 2 * g.size() * 3,
                    "{name} p={p} q={q}: only {tested} of {} states tested",
                    2 * g.size()
                );
                assert_eq!(
                    rejected, 0,
                    "{name} p={p} q={q}: {rejected} of {tested} states rejected"
                );
            }
            let swapped = generate_walks(g, &run(4.0, 0.25));
            let (tested, rejected) = law_rejections(g, &swapped, 0.25, 4.0);
            assert!(
                rejected * 2 > tested,
                "{name}: p/q swap rejected in only {rejected} of {tested} states"
            );
        }
    }
}
