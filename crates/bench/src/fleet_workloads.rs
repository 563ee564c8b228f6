//! Concrete [`x2v_fleet::Workload`]s for the paper's quadratic hot paths:
//! WL-kernel Gram row blocks and random-walk corpus chunks.
//!
//! Both workloads honour the fleet determinism contract: `run_task` is a
//! pure function of (kind, params, task index) — the Gram rows because the
//! WL kernel is deterministic, the walk chunks because each chunk draws
//! from its own seeded RNG stream
//! ([`x2v_embed::walks::generate_walk_chunk`]). Merging the shards in task
//! order therefore reproduces the single-process result bit for bit at any
//! worker count and under any kill schedule.
//!
//! [`from_manifest`] is the worker binary's dispatcher: given the manifest
//! `(kind, params)` it reconstructs the workload in a fresh process.

use std::ops::Range;

use x2v_ckpt::codec::{Dec, Enc};
use x2v_core::GraphKernel;
use x2v_embed::walks::{generate_walk_chunk, walk_chunks, WalkConfig};
use x2v_fleet::Workload;
use x2v_graph::Graph;
use x2v_guard::GuardError;
use x2v_kernel::wl::WlSubtreeKernel;
use x2v_linalg::Matrix;

/// Manifest kind of the WL-kernel Gram workload.
pub const GRAM_KIND: &str = "fleet-gram-wl";
/// Manifest kind of the walk-corpus workload.
pub const WALKS_KIND: &str = "fleet-walks";

/// Guarded site of workload (de)serialisation failures.
const SITE: &str = "fleet/workload";

/// Caps accepted when decoding parameter blobs (graphs, walks).
const MAX_ITEMS: usize = 1 << 24;

fn encode_graph(e: &mut Enc, g: &Graph) {
    let n = g.order();
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(g.size());
    for v in 0..n {
        for &u in g.neighbours(v) {
            if u > v {
                edges.push((v, u));
            }
        }
    }
    e.u64(n as u64).u64(edges.len() as u64);
    for (v, u) in edges {
        e.u64(v as u64).u64(u as u64);
    }
}

fn decode_graph(d: &mut Dec<'_>) -> Result<Graph, GuardError> {
    let bad = |message: String| GuardError::InvalidInput {
        site: SITE,
        message,
    };
    let n = d.u64("graph order").map_err(|e| bad(e.to_string()))? as usize;
    let m = d
        .len(MAX_ITEMS, "graph size")
        .map_err(|e| bad(e.to_string()))?;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let v = d.u64("edge endpoint").map_err(|e| bad(e.to_string()))? as usize;
        let u = d.u64("edge endpoint").map_err(|e| bad(e.to_string()))? as usize;
        edges.push((v, u));
    }
    Graph::from_edges(n, &edges).map_err(|e| bad(format!("manifest graph invalid: {e}")))
}

/// The WL-kernel Gram workload: task `t` computes rows
/// `t·block .. (t+1)·block` of the upper triangle of the `n × n` Gram
/// matrix of [`WlSubtreeKernel`] over a fixed graph list.
pub struct GramWorkload {
    rounds: usize,
    block: usize,
    graphs: Vec<Graph>,
    kernel: WlSubtreeKernel,
}

impl GramWorkload {
    /// Gram workload over `graphs` with WL refinement depth `rounds`,
    /// shipping `block` rows per task.
    ///
    /// # Panics
    /// If `block == 0`.
    pub fn new(rounds: usize, block: usize, graphs: Vec<Graph>) -> Self {
        assert!(block > 0, "row block must be non-empty");
        GramWorkload {
            rounds,
            block,
            graphs,
            kernel: WlSubtreeKernel::new(rounds),
        }
    }

    /// Number of graphs (the Gram matrix is `n × n`).
    pub fn n_graphs(&self) -> usize {
        self.graphs.len()
    }

    /// Rows per task.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Reconstructs the workload from its manifest parameter blob.
    pub fn from_params(params: &[u8]) -> Result<Self, GuardError> {
        let bad = |message: String| GuardError::InvalidInput {
            site: SITE,
            message,
        };
        let mut d = Dec::new(params);
        let rounds = d.u64("wl rounds").map_err(|e| bad(e.to_string()))? as usize;
        let block = d.u64("row block").map_err(|e| bad(e.to_string()))? as usize;
        if block == 0 {
            return Err(bad("row block must be non-empty".into()));
        }
        let n = d
            .len(MAX_ITEMS, "graph count")
            .map_err(|e| bad(e.to_string()))?;
        let mut graphs = Vec::with_capacity(n);
        for _ in 0..n {
            graphs.push(decode_graph(&mut d)?);
        }
        d.finish("gram params tail")
            .map_err(|e| bad(e.to_string()))?;
        Ok(GramWorkload::new(rounds, block, graphs))
    }
}

impl Workload for GramWorkload {
    fn kind(&self) -> &'static str {
        GRAM_KIND
    }

    fn params(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.rounds as u64)
            .u64(self.block as u64)
            .u64(self.graphs.len() as u64);
        for g in &self.graphs {
            encode_graph(&mut e, g);
        }
        e.finish()
    }

    fn num_tasks(&self) -> usize {
        self.graphs.len().div_ceil(self.block)
    }

    fn run_task(&self, task: usize) -> Result<Vec<u8>, GuardError> {
        let n = self.graphs.len();
        let r0 = task * self.block;
        let r1 = ((task + 1) * self.block).min(n);
        if r0 >= n {
            return Err(GuardError::InvalidInput {
                site: SITE,
                message: format!("gram task {task} out of range ({n} graphs)"),
            });
        }
        // Upper-triangle entries only: row i contributes n − i values, all
        // among graphs r0.. — the only ones this task prepares.
        let entry = self.kernel.entries(&self.graphs[r0..]);
        let mut entries = Vec::with_capacity((r1 - r0) * n);
        for i in 0..r1 - r0 {
            for j in i..n - r0 {
                entries.push(entry(i, j));
            }
        }
        let mut e = Enc::new();
        e.f64_slice(&entries);
        Ok(e.finish())
    }
}

/// Merges Gram row-block shards into the full symmetric matrix.
///
/// `shards[t]` is the byte payload of task `t` or `None` when the fleet
/// declared it missing. Returns the matrix (missing rows left at zero — a
/// *declared* hole, never a silently wrong value) plus the sorted row
/// indices that are missing.
///
/// # Errors
/// [`GuardError::Storage`] when a present shard fails to decode to its
/// exact expected shape — CRC-valid bytes of the wrong shape mean a
/// protocol bug, not a media fault, and must not be papered over.
pub fn merge_gram(
    n: usize,
    block: usize,
    shards: &[Option<Vec<u8>>],
) -> Result<(Matrix, Vec<usize>), GuardError> {
    let mut m = Matrix::zeros(n, n);
    let mut missing = Vec::new();
    for (t, shard) in shards.iter().enumerate() {
        let r0 = (t * block).min(n);
        let r1 = ((t + 1) * block).min(n);
        let Some(bytes) = shard else {
            missing.extend(r0..r1);
            continue;
        };
        let expect: usize = (r0..r1).map(|i| n - i).sum();
        let mut d = Dec::new(bytes);
        let entries = d
            .f64_vec(expect, "gram shard entries")
            .ok()
            .filter(|v| v.len() == expect && d.finish("gram shard tail").is_ok())
            .ok_or_else(|| GuardError::Storage {
                site: SITE,
                message: format!("gram shard {t} has the wrong shape (want {expect} entries)"),
            })?;
        let mut at = 0;
        for i in r0..r1 {
            for j in i..n {
                m[(i, j)] = entries[at];
                m[(j, i)] = entries[at];
                at += 1;
            }
        }
    }
    Ok((m, missing))
}

/// The walk-corpus workload: task `c` generates chunk `c` of the
/// rep-major walk corpus ([`x2v_embed::walks::walk_chunks`]).
pub struct WalkWorkload {
    config: WalkConfig,
    graph: Graph,
    ranges: Vec<Range<usize>>,
}

impl WalkWorkload {
    /// Walk workload over `graph` with corpus hyperparameters `config`.
    pub fn new(graph: Graph, config: WalkConfig) -> Self {
        let ranges = walk_chunks(&graph, &config);
        WalkWorkload {
            config,
            graph,
            ranges,
        }
    }

    /// Reconstructs the workload from its manifest parameter blob.
    pub fn from_params(params: &[u8]) -> Result<Self, GuardError> {
        let bad = |message: String| GuardError::InvalidInput {
            site: SITE,
            message,
        };
        let mut d = Dec::new(params);
        let walks_per_node = d.u64("walks per node").map_err(|e| bad(e.to_string()))? as usize;
        let walk_length = d.u64("walk length").map_err(|e| bad(e.to_string()))? as usize;
        let p = d.f64("node2vec p").map_err(|e| bad(e.to_string()))?;
        let q = d.f64("node2vec q").map_err(|e| bad(e.to_string()))?;
        let seed = d.u64("walk seed").map_err(|e| bad(e.to_string()))?;
        let graph = decode_graph(&mut d)?;
        d.finish("walk params tail")
            .map_err(|e| bad(e.to_string()))?;
        Ok(WalkWorkload::new(
            graph,
            WalkConfig {
                walks_per_node,
                walk_length,
                p,
                q,
                seed,
            },
        ))
    }
}

impl Workload for WalkWorkload {
    fn kind(&self) -> &'static str {
        WALKS_KIND
    }

    fn params(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.config.walks_per_node as u64)
            .u64(self.config.walk_length as u64)
            .f64(self.config.p)
            .f64(self.config.q)
            .u64(self.config.seed);
        encode_graph(&mut e, &self.graph);
        e.finish()
    }

    fn num_tasks(&self) -> usize {
        self.ranges.len()
    }

    fn run_task(&self, task: usize) -> Result<Vec<u8>, GuardError> {
        let range = self
            .ranges
            .get(task)
            .ok_or_else(|| GuardError::InvalidInput {
                site: SITE,
                message: format!("walk chunk {task} out of range ({})", self.ranges.len()),
            })?
            .clone();
        let walks = generate_walk_chunk(&self.graph, &self.config, task, range);
        let mut e = Enc::new();
        e.u64(walks.len() as u64);
        for w in &walks {
            e.u64(w.len() as u64);
            for &v in w {
                e.u64(v as u64);
            }
        }
        Ok(e.finish())
    }
}

/// Merges walk-chunk shards into the corpus: concatenation in task order,
/// which by the [`x2v_embed::walks`] contract *is*
/// `generate_walks`. Returns the walks plus the missing chunk indices
/// (their walks are simply absent from the corpus).
///
/// # Errors
/// [`GuardError::Storage`] when a present shard fails to decode.
pub fn merge_walks(
    shards: &[Option<Vec<u8>>],
) -> Result<(Vec<Vec<usize>>, Vec<usize>), GuardError> {
    let broken = |t: usize| GuardError::Storage {
        site: SITE,
        message: format!("walk shard {t} does not decode"),
    };
    let mut corpus = Vec::new();
    let mut missing = Vec::new();
    for (t, shard) in shards.iter().enumerate() {
        let Some(bytes) = shard else {
            missing.push(t);
            continue;
        };
        let mut d = Dec::new(bytes);
        let n_walks = d.len(MAX_ITEMS, "walk count").map_err(|_| broken(t))?;
        for _ in 0..n_walks {
            let len = d.len(MAX_ITEMS, "walk length").map_err(|_| broken(t))?;
            let mut walk = Vec::with_capacity(len);
            for _ in 0..len {
                walk.push(d.u64("walk node").map_err(|_| broken(t))? as usize);
            }
            corpus.push(walk);
        }
        d.finish("walk shard tail").map_err(|_| broken(t))?;
    }
    Ok((corpus, missing))
}

/// The worker binary's dispatcher: reconstructs a workload from its
/// manifest `(kind, params)`.
///
/// # Errors
/// [`GuardError::InvalidInput`] on an unknown kind or a malformed blob.
pub fn from_manifest(kind: &str, params: &[u8]) -> Result<Box<dyn Workload>, GuardError> {
    match kind {
        GRAM_KIND => Ok(Box::new(GramWorkload::from_params(params)?)),
        WALKS_KIND => Ok(Box::new(WalkWorkload::from_params(params)?)),
        other => Err(GuardError::InvalidInput {
            site: SITE,
            message: format!("unknown fleet workload kind {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_datasets::synthetic::cycles_vs_trees;
    use x2v_embed::walks::generate_walks;
    use x2v_graph::generators::cycle;

    fn run_all(w: &dyn Workload) -> Vec<Option<Vec<u8>>> {
        (0..w.num_tasks())
            .map(|t| Some(w.run_task(t).unwrap()))
            .collect()
    }

    #[test]
    fn gram_merge_is_bit_identical_to_direct_gram() {
        let data = cycles_vs_trees(10, 6, 3);
        let w = GramWorkload::new(3, 3, data.graphs.clone());
        let n = w.n_graphs();
        let (merged, missing) = merge_gram(n, w.block(), &run_all(&w)).unwrap();
        assert!(missing.is_empty());
        let direct = WlSubtreeKernel::new(3).gram(&data.graphs);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    merged[(i, j)].to_bits(),
                    direct[(i, j)].to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn gram_round_trips_through_manifest_params() {
        let data = cycles_vs_trees(8, 5, 1);
        let w = GramWorkload::new(2, 2, data.graphs);
        let back = from_manifest(w.kind(), &w.params()).unwrap();
        assert_eq!(back.num_tasks(), w.num_tasks());
        for t in 0..w.num_tasks() {
            assert_eq!(
                back.run_task(t).unwrap(),
                w.run_task(t).unwrap(),
                "task {t}"
            );
        }
    }

    #[test]
    fn gram_merge_declares_missing_rows() {
        let data = cycles_vs_trees(8, 5, 2);
        let w = GramWorkload::new(2, 3, data.graphs);
        let n = w.n_graphs();
        let mut shards = run_all(&w);
        shards[1] = None;
        let (_, missing) = merge_gram(n, w.block(), &shards).unwrap();
        assert_eq!(missing, vec![3, 4, 5], "block 1 of width 3");
        // A wrong-shape shard is a typed storage error, not a hole.
        shards[1] = Some(vec![1, 2, 3]);
        assert!(matches!(
            merge_gram(n, w.block(), &shards),
            Err(GuardError::Storage { .. })
        ));
    }

    #[test]
    fn walk_merge_is_bit_identical_to_generate_walks() {
        let g = cycle(9);
        let cfg = WalkConfig {
            walks_per_node: 4,
            walk_length: 12,
            ..Default::default()
        };
        let w = WalkWorkload::new(g.clone(), cfg.clone());
        let (merged, missing) = merge_walks(&run_all(&w)).unwrap();
        assert!(missing.is_empty());
        assert_eq!(merged, generate_walks(&g, &cfg));
        // And through the manifest round trip.
        let back = from_manifest(w.kind(), &w.params()).unwrap();
        assert_eq!(back.run_task(0).unwrap(), w.run_task(0).unwrap());
    }
}
