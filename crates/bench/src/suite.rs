//! The deterministic perf-regression suite behind the `bench_suite` and
//! `bench_diff` binaries.
//!
//! Every workload is fixed-seed, pinned to one worker thread, and spans
//! one hot subsystem of the workspace (WL-kernel Gram + SVM folds,
//! word2vec and node2vec, GNN forward, inline fleet execution), plus the
//! E21 complexity workloads behind the paper's §4.3 claims (1-WL scaling
//! in n, k-WL in k, hom(P8, G) by three algorithms, decomposition DP by
//! treewidth, one 20-graph Gram per kernel). Each is run `warmup` untimed
//! times, then `reps` timed times; the report records the **median** and
//! **MAD** (median absolute deviation) of the per-rep wall times — robust
//! location/scale estimates that one scheduler hiccup cannot move — plus
//! min/max/mean and a deterministic `work` checksum that guards against
//! accidentally benchmarking a changed computation.
//!
//! The suite only measures: it neither checkpoints nor resumes, and its
//! caller must not have an ambient [`x2v_ckpt::Store`] installed, or the
//! resumable paths it times (`gram_resumable`, `Word2Vec::train`) would
//! time their checkpoint I/O too. A killed run is simply re-run.
//!
//! Reports are schema-versioned JSON (`BENCH_<n>.json` at the repo root by
//! convention; see `docs/bench-schema.md`). [`diff_reports`] compares two
//! reports and flags median regressions beyond a threshold, which is how
//! every subsequent performance PR proves — or is caught falsifying — its
//! claimed speedup.

use crate::harness::kernel_cv_accuracy_resumable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use x2v_core::{GraphKernel, NodeEmbedding};
use x2v_datasets::synthetic::cycles_vs_trees;
use x2v_embed::node2vec::{Node2Vec, Node2VecConfig};
use x2v_embed::walks::{generate_walks, WalkConfig};
use x2v_embed::word2vec::{SgnsConfig, Word2Vec};
use x2v_gnn::layer::Activation;
use x2v_gnn::model::{GnnModel, InitialFeatures};
use x2v_graph::generators::{cycle, gnp, grid, path, random_regular};
use x2v_graph::Graph;
use x2v_hom::vectors::HomBasis;
use x2v_kernel::gram::gram_resumable;
use x2v_kernel::graphlet::GraphletKernel;
use x2v_kernel::random_walk::RandomWalkKernel;
use x2v_kernel::shortest_path::ShortestPathKernel;
use x2v_kernel::wl::WlSubtreeKernel;
use x2v_prof::json::JsonValue;
use x2v_similarity::relaxed::relaxed_distance;
use x2v_wl::kwl::KwlRefiner;
use x2v_wl::refine::Refiner;

/// Identifies the `BENCH_*.json` layout; bump when keys change meaning.
pub const BENCH_SCHEMA: &str = "x2v-bench/v1";

/// Default regression threshold for [`diff_reports`] (percent).
pub const DEFAULT_THRESHOLD_PCT: f64 = 20.0;

/// Suite execution parameters.
#[derive(Clone, Copy, Debug)]
pub struct SuiteConfig {
    /// Tiny input sizes for CI smoke runs (same bench keys either way).
    pub smoke: bool,
    /// Timed repetitions per workload.
    pub reps: usize,
    /// Untimed warmup runs per workload.
    pub warmup: usize,
}

impl SuiteConfig {
    /// The full suite: sizes that exercise each subsystem measurably.
    pub fn full() -> Self {
        SuiteConfig {
            smoke: false,
            reps: 7,
            warmup: 2,
        }
    }

    /// The smoke suite: minimal sizes, one rep — shape checks and CI.
    pub fn smoke() -> Self {
        SuiteConfig {
            smoke: true,
            reps: 1,
            warmup: 1,
        }
    }
}

/// One workload's measured statistics.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Bench key, `<subsystem>/<workload>`.
    pub name: &'static str,
    /// Timed repetitions.
    pub reps: usize,
    /// Median wall time per rep (ns).
    pub median_ns: u64,
    /// Median absolute deviation of the rep times (ns).
    pub mad_ns: u64,
    /// Mean wall time per rep (ns).
    pub mean_ns: f64,
    /// Fastest rep (ns).
    pub min_ns: u64,
    /// Slowest rep (ns).
    pub max_ns: u64,
    /// Deterministic output checksum (identical across runs on the same
    /// code; a change means the *computation* changed, not just its speed).
    pub work: u64,
}

struct Workload {
    name: &'static str,
    run: Box<dyn FnMut() -> u64>,
}

fn fold_u128(x: u128) -> u64 {
    (x as u64) ^ ((x >> 64) as u64)
}

fn fold_f64s<'a>(vals: impl IntoIterator<Item = &'a f64>) -> u64 {
    vals.into_iter()
        .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.to_bits())
}

fn fold_u64s(vals: impl IntoIterator<Item = u64>) -> u64 {
    vals.into_iter()
        .fold(0u64, |acc, h| acc.rotate_left(13) ^ h)
}

fn refine_work(g: &Graph) -> u64 {
    let h = Refiner::new().refine_to_stable(g);
    (h.num_rounds() as u64) << 32 | h.num_classes(h.num_rounds()) as u64
}

fn gram_work<K: GraphKernel + Sync + ?Sized>(kernel: &K, graphs: &[Graph], job: &str) -> u64 {
    let m = gram_resumable(kernel, graphs, job).unwrap_or_else(|e| panic!("{e}"));
    fold_f64s(m.as_slice())
}

/// Inner repeat count of the sub-10 µs workloads (see [`repeated`]).
const REPEAT: usize = 100;

/// Calls `f` [`REPEAT`] times and returns the first call's result: the
/// wrapper for workloads whose single call is too short (under ~10 µs)
/// to time on its own. `work` stays one call's output; the recorded
/// median is the time of all [`REPEAT`] calls.
fn repeated(mut f: impl FnMut() -> u64) -> u64 {
    let work = f();
    for _ in 1..REPEAT {
        std::hint::black_box(f());
    }
    work
}

/// Builds the workload list. Inputs are constructed here (untimed) and
/// moved into the closures; only the algorithm under test is measured.
fn workloads(smoke: bool) -> Vec<Workload> {
    let mut out: Vec<Workload> = Vec::new();
    let mut push = |name: &'static str, run: Box<dyn FnMut() -> u64>| {
        out.push(Workload { name, run });
    };
    let pick = |full: usize, small: usize| if smoke { small } else { full };

    // WL-subtree kernel Gram matrix + cross-validated SVM folds, via the
    // crash-safe row-block builder (identical numbers without a store).
    let ds = cycles_vs_trees(pick(24, 8), 8, 15);
    push(
        "kernel/gram_svm",
        Box::new(move || {
            let kernel = WlSubtreeKernel::new(3);
            let acc = kernel_cv_accuracy_resumable(&kernel, &ds, 3, 16, "bench-gram")
                .unwrap_or_else(|e| panic!("{e}"));
            (acc * 1e6).round() as u64
        }),
    );

    // word2vec (SGNS) training epochs over a random-walk corpus.
    let g_w2v = gnp(pick(60, 20), 0.1, &mut StdRng::seed_from_u64(17));
    let vocab = g_w2v.order();
    let corpus = generate_walks(
        &g_w2v,
        &WalkConfig {
            walks_per_node: pick(4, 2),
            walk_length: pick(20, 10),
            p: 1.0,
            q: 1.0,
            seed: 18,
        },
    );
    let sgns = SgnsConfig {
        dim: 16,
        window: 3,
        negative: 3,
        epochs: pick(2, 1),
        learning_rate: 0.025,
        seed: 19,
    };
    push(
        "embed/word2vec",
        Box::new(move || {
            let model = Word2Vec::train(&corpus, vocab, &sgns);
            fold_f64s(model.vector(0))
        }),
    );

    // node2vec biased second-order walk generation.
    let g_n2v = gnp(pick(80, 24), 0.08, &mut StdRng::seed_from_u64(20));
    let walk_cfg = WalkConfig {
        walks_per_node: pick(6, 2),
        walk_length: pick(30, 10),
        p: 0.5,
        q: 2.0,
        seed: 21,
    };
    push(
        "embed/node2vec_walks",
        Box::new(move || {
            generate_walks(&g_n2v, &walk_cfg)
                .iter()
                .map(|w| w.len() as u64)
                .sum()
        }),
    );

    // GNN forward pass (message passing + readout) over a graph batch.
    let model = GnnModel::new(4, 16, 3, Activation::Relu, InitialFeatures::Constant, 22);
    let mut rng = StdRng::seed_from_u64(23);
    let batch: Vec<_> = (0..8).map(|_| gnp(pick(40, 12), 0.1, &mut rng)).collect();
    push(
        "gnn/forward",
        Box::new(move || fold_u64s(batch.iter().map(|g| fold_f64s(&model.graph_embedding(g))))),
    );

    // Inline fleet execution of a Gram build: the coordinator/worker
    // protocol overhead (manifest publish, shard publish + validate +
    // merge through the ckpt store) on top of the same kernel math, in
    // the degenerate one-process configuration every multi-worker run
    // must reproduce bit for bit.
    let fleet_graphs = cycles_vs_trees(pick(16, 6), 8, 31).graphs;
    push(
        "fleet/gram_inline",
        Box::new(move || {
            let dir = std::env::temp_dir().join(format!("x2v-bench-fleet-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = x2v_ckpt::Store::open(&dir).unwrap_or_else(|e| panic!("{e}"));
            let w = crate::fleet_workloads::GramWorkload::new(3, 2, fleet_graphs.clone());
            let n = w.n_graphs();
            let outcome =
                x2v_fleet::run_fleet(&store, &x2v_fleet::FleetConfig::new("bench-fleet"), &w)
                    .unwrap_or_else(|e| panic!("{e}"));
            let (m, _) = crate::fleet_workloads::merge_gram(n, w.block(), &outcome.shards)
                .unwrap_or_else(|e| panic!("{e}"));
            let _ = std::fs::remove_dir_all(&dir);
            fold_f64s(m.as_slice())
        }),
    );

    // E21 (§4.3 complexity). 1-WL refinement to stability on sparse
    // G(n, 8/n): near-linear growth in n.
    for (name, n) in [
        ("wl/refine_n50", 50),
        ("wl/refine_n100", 100),
        ("wl/refine_n200", 200),
        ("wl/refine_n400", 400),
    ] {
        let n = pick(n, n / 5);
        let g = gnp(n, 8.0 / n as f64, &mut StdRng::seed_from_u64(1));
        push(name, Box::new(move || refine_work(&g)));
    }

    // k-WL cost growth in k on one 3-regular graph.
    let g_reg = random_regular(pick(10, 6), 3, &mut StdRng::seed_from_u64(2));
    for (name, k) in [("wl/kwl_k2_reg10", 2), ("wl/kwl_k3_reg10", 3)] {
        let g = g_reg.clone();
        push(
            name,
            Box::new(move || KwlRefiner::new(k).run(&g).histogram().len() as u64),
        );
    }

    // hom(P8, G) three ways: tree DP, closed-form walk count, brute force.
    // One count, so the three `work` checksums must agree. G(20, 0.2)
    // keeps a brute-force rep well under 100 ms while it stays > 10³× one
    // tree-DP call: the exponential/polynomial gap is the point.
    let g_p8 = gnp(pick(20, 8), 0.2, &mut StdRng::seed_from_u64(4));
    let p8 = path(8);
    {
        let (g, p) = (g_p8.clone(), p8.clone());
        push(
            "hom/p8_tree_dp",
            Box::new(move || repeated(|| fold_u128(x2v_hom::trees::hom_count_tree(&p, &g)))),
        );
    }
    {
        let g = g_p8.clone();
        push(
            "hom/p8_walk",
            Box::new(move || repeated(|| fold_u128(x2v_hom::walks::hom_path(8, &g)))),
        );
    }
    push(
        "hom/p8_brute",
        Box::new(move || fold_u128(x2v_hom::brute::hom_count(&p8, &g_p8))),
    );

    // Decomposition-DP hom counting by pattern treewidth (n^{tw+1}).
    let g_tw = gnp(pick(18, 8), 0.3, &mut StdRng::seed_from_u64(5));
    for (name, pattern) in [
        ("hom/decomp_tw1_path6", path(6)),
        ("hom/decomp_tw2_cycle6", cycle(6)),
        ("hom/decomp_tw2_grid2x3", grid(2, 3)),
        ("hom/decomp_tw3_grid3x3", grid(3, 3)),
    ] {
        let g = g_tw.clone();
        push(
            name,
            Box::new(move || fold_u128(x2v_hom::decomp::hom_count_decomp(&pattern, &g))),
        );
    }

    // The 20-pattern trees-and-cycles hom embedding of ten graphs.
    let mut rng = StdRng::seed_from_u64(6);
    let basis_graphs: Vec<_> = (0..10).map(|_| gnp(pick(20, 8), 0.25, &mut rng)).collect();
    let basis = HomBasis::trees_and_cycles(20);
    push(
        "hom/basis20_embed",
        Box::new(move || fold_u64s(basis_graphs.iter().map(|g| fold_f64s(&basis.embed_log(g))))),
    );

    // The paper's WL-efficiency claim: one 20-graph Gram per kernel.
    let mut rng = StdRng::seed_from_u64(7);
    let gram_graphs: Vec<_> = (0..pick(20, 4))
        .map(|_| gnp(pick(20, 8), 0.2, &mut rng))
        .collect();
    let gram_kernels: [(&'static str, Box<dyn GraphKernel + Sync>); 4] = [
        ("kernel/gram20_wl5", Box::new(WlSubtreeKernel::new(5))),
        ("kernel/gram20_sp", Box::new(ShortestPathKernel::new())),
        (
            "kernel/gram20_graphlet34",
            Box::new(GraphletKernel::three_four()),
        ),
        ("kernel/gram20_rw", Box::new(RandomWalkKernel::new(0.05, 5))),
    ];
    for (name, kernel) in gram_kernels {
        let graphs = gram_graphs.clone();
        push(name, Box::new(move || gram_work(&*kernel, &graphs, name)));
    }

    // Learned embeddings: node2vec walks + SGNS on one graph.
    let g_n2v50 = gnp(pick(50, 12), 0.1, &mut StdRng::seed_from_u64(8));
    let mut n2v_cfg = Node2VecConfig::default();
    n2v_cfg.sgns.dim = 16;
    n2v_cfg.sgns.epochs = 2;
    n2v_cfg.walks.walks_per_node = pick(5, 2);
    n2v_cfg.walks.walk_length = pick(20, 8);
    push(
        "embed/node2vec_50",
        Box::new(move || {
            let vectors = Node2Vec::new(n2v_cfg.clone()).embed_nodes(&g_n2v50);
            fold_u64s(vectors.iter().map(fold_f64s))
        }),
    );

    // Frank-Wolfe relaxed graph distance between C_n and P_n.
    let (fw_g, fw_h) = (cycle(pick(12, 5)), path(pick(12, 5)));
    push(
        "similarity/frank_wolfe_12",
        Box::new(move || relaxed_distance(&fw_g, &fw_h).to_bits()),
    );

    out
}

fn median_u64(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n == 0 {
        0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// Runs the whole suite and returns per-workload statistics, in a fixed
/// workload order. Panics if two reps disagree on the `work` checksum
/// (a nondeterministic workload would make every diff meaningless).
pub fn run_suite(cfg: &SuiteConfig) -> Vec<BenchResult> {
    let reps = cfg.reps.max(1);
    let mut results = Vec::new();
    for mut w in workloads(cfg.smoke) {
        // Every workload runs pinned to one worker thread, so timings stay
        // comparable across machines with different core counts.
        let mut run_pinned = || x2v_par::with_threads(1, &mut w.run);
        for _ in 0..cfg.warmup {
            std::hint::black_box(run_pinned());
        }
        let mut times_ns = Vec::with_capacity(reps);
        let mut work = 0u64;
        for rep in 0..reps {
            let _span = x2v_obs::span(w.name);
            let start = Instant::now();
            let out = std::hint::black_box(run_pinned());
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            times_ns.push(ns);
            x2v_obs::observe(w.name, ns as f64);
            if rep == 0 {
                work = out;
            } else {
                assert_eq!(
                    work, out,
                    "workload {} is nondeterministic across reps",
                    w.name
                );
            }
        }
        times_ns.sort_unstable();
        let median_ns = median_u64(&times_ns);
        let mut dev: Vec<u64> = times_ns.iter().map(|&t| t.abs_diff(median_ns)).collect();
        dev.sort_unstable();
        results.push(BenchResult {
            name: w.name,
            reps,
            median_ns,
            mad_ns: median_u64(&dev),
            mean_ns: times_ns.iter().sum::<u64>() as f64 / reps as f64,
            min_ns: times_ns[0],
            max_ns: times_ns[reps - 1],
            work,
        });
    }
    results
}

/// Serialises suite results as the schema-versioned `BENCH_*.json`
/// document (stable key order: benches sorted by name).
pub fn report_json(results: &[BenchResult], cfg: &SuiteConfig) -> String {
    let mut sorted: Vec<&BenchResult> = results.iter().collect();
    sorted.sort_by_key(|r| r.name);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{BENCH_SCHEMA}\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if cfg.smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(out, "  \"warmup\": {},", cfg.warmup);
    out.push_str("  \"benches\": {");
    let mut first = true;
    for r in sorted {
        if !first {
            out.push(',');
        }
        first = false;
        let mean = if r.mean_ns.is_finite() {
            format!("{:.1}", r.mean_ns)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\n    \"{}\": {{\"reps\": {}, \"median_ns\": {}, \"mad_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"work\": {}, \"threads\": 1}}",
            x2v_obs::json_escape(r.name),
            r.reps,
            r.median_ns,
            r.mad_ns,
            mean,
            r.min_ns,
            r.max_ns,
            r.work,
        );
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

/// Renders the human-readable results table.
pub fn render_table(results: &[BenchResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:>6} {:>12} {:>10} {:>12} {:>12}",
        "bench", "reps", "median", "mad", "min", "max"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:<26} {:>6} {:>12} {:>10} {:>12} {:>12}",
            r.name,
            r.reps,
            fmt_ns(r.median_ns as f64),
            fmt_ns(r.mad_ns as f64),
            fmt_ns(r.min_ns as f64),
            fmt_ns(r.max_ns as f64),
        );
    }
    out
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.2}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.3}s", ns / 1e9)
    }
}

/// Picks the first free `BENCH_<n>.json` in `dir` (`BENCH_0.json`,
/// `BENCH_1.json`, …).
pub fn next_report_path(dir: &Path) -> PathBuf {
    for n in 0.. {
        let candidate = dir.join(format!("BENCH_{n}.json"));
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("some BENCH_<n>.json index below u64::MAX is free")
}

/// One bench entry loaded back from a report.
#[derive(Clone, Copy, Debug)]
pub struct LoadedBench {
    /// Median wall time (ns).
    pub median_ns: f64,
    /// Median absolute deviation (ns).
    pub mad_ns: f64,
}

/// A `BENCH_*.json` document loaded for diffing.
#[derive(Clone, Debug)]
pub struct LoadedReport {
    /// Schema tag as found in the file.
    pub schema: String,
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// Bench entries by key.
    pub benches: BTreeMap<String, LoadedBench>,
}

/// Parses a `BENCH_*.json` document.
pub fn parse_report(text: &str) -> Result<LoadedReport, String> {
    let doc = JsonValue::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?
        .to_string();
    if !schema.starts_with("x2v-bench/") {
        return Err(format!("not a bench report (schema {schema:?})"));
    }
    let mode = doc
        .get("mode")
        .and_then(JsonValue::as_str)
        .unwrap_or("unknown")
        .to_string();
    let mut benches = BTreeMap::new();
    for (name, entry) in doc
        .get("benches")
        .and_then(JsonValue::as_obj)
        .ok_or("missing benches object")?
    {
        let median_ns = entry
            .get("median_ns")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("bench {name}: missing median_ns"))?;
        let mad_ns = entry
            .get("mad_ns")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        benches.insert(name.clone(), LoadedBench { median_ns, mad_ns });
    }
    Ok(LoadedReport {
        schema,
        mode,
        benches,
    })
}

/// Loads a `BENCH_*.json` file.
fn load_report(path: &Path) -> Result<LoadedReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_report(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One median delta beyond the noise floor.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Bench key.
    pub name: String,
    /// Baseline median (ns).
    pub old_ns: f64,
    /// Candidate median (ns).
    pub new_ns: f64,
    /// Signed percent change ((new − old) / old · 100).
    pub pct: f64,
}

/// Outcome of comparing two reports.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Median slowdowns beyond the threshold and the MAD noise floor.
    pub regressions: Vec<Delta>,
    /// Median speedups beyond the threshold (informational).
    pub improvements: Vec<Delta>,
    /// Keys present in the baseline but absent in the candidate.
    pub missing: Vec<String>,
    /// Keys present only in the candidate.
    pub added: Vec<String>,
    /// Threshold used (percent).
    pub threshold_pct: f64,
}

impl DiffReport {
    /// Whether a gating run must fail (any regression; a *missing* bench is
    /// also gating — deleting the workload would otherwise be the easiest
    /// way to hide a regression).
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty() || !self.missing.is_empty()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.regressions {
            let _ = writeln!(
                out,
                "REGRESSION  {:<24} {:>12} -> {:>12}  ({:+.1}% > {:.0}%)",
                d.name,
                fmt_ns(d.old_ns),
                fmt_ns(d.new_ns),
                d.pct,
                self.threshold_pct
            );
        }
        for d in &self.improvements {
            let _ = writeln!(
                out,
                "improvement {:<24} {:>12} -> {:>12}  ({:+.1}%)",
                d.name,
                fmt_ns(d.old_ns),
                fmt_ns(d.new_ns),
                d.pct
            );
        }
        if !self.improvements.is_empty() {
            let _ = writeln!(
                out,
                "note: {} bench(es) improved by more than {:.0}% — consider re-baselining \
                 (run bench_suite and commit the new BENCH_<n>.json) so future diffs gate \
                 against the faster medians",
                self.improvements.len(),
                self.threshold_pct
            );
        }
        for name in &self.missing {
            let _ = writeln!(out, "MISSING     {name} (present in baseline only)");
        }
        for name in &self.added {
            let _ = writeln!(out, "added       {name} (no baseline entry)");
        }
        if out.is_empty() {
            out.push_str("no significant changes\n");
        }
        out
    }
}

/// Compares candidate medians against baseline medians. A bench regresses
/// when it is more than `threshold_pct` percent slower **and** the delta
/// exceeds a noise floor of twice the summed MADs (so a 1-rep smoke diff
/// degenerates to the pure percentage rule).
pub fn diff_reports(old: &LoadedReport, new: &LoadedReport, threshold_pct: f64) -> DiffReport {
    let mut diff = DiffReport {
        threshold_pct,
        ..DiffReport::default()
    };
    for (name, o) in &old.benches {
        let Some(n) = new.benches.get(name) else {
            diff.missing.push(name.clone());
            continue;
        };
        if o.median_ns <= 0.0 {
            continue;
        }
        let pct = (n.median_ns - o.median_ns) / o.median_ns * 100.0;
        let noise_floor = 2.0 * (o.mad_ns + n.mad_ns);
        let delta = Delta {
            name: name.clone(),
            old_ns: o.median_ns,
            new_ns: n.median_ns,
            pct,
        };
        if pct > threshold_pct && (n.median_ns - o.median_ns) > noise_floor {
            diff.regressions.push(delta);
        } else if pct < -threshold_pct {
            diff.improvements.push(delta);
        }
    }
    for name in new.benches.keys() {
        if !old.benches.contains_key(name) {
            diff.added.push(name.clone());
        }
    }
    diff
}

/// Shared CLI entry for `bench_diff` / `bench_suite diff`. Returns the
/// process exit code: 0 when clean (or `--informational`), 1 on gating
/// regressions, 2 on usage/IO errors.
pub fn diff_main(args: &[String]) -> i32 {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold_pct = DEFAULT_THRESHOLD_PCT;
    let mut informational = false;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--informational" => informational = true,
            "--threshold-pct" => {
                let Some(v) = iter.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--threshold-pct requires a numeric argument");
                    return 2;
                };
                threshold_pct = v;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return 2;
            }
            _ => paths.push(a),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!(
            "usage: bench_diff <baseline.json> <candidate.json> [--threshold-pct P] [--informational]"
        );
        return 2;
    };
    let (old, new) = match (
        load_report(Path::new(old_path)),
        load_report(Path::new(new_path)),
    ) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return 2;
        }
    };
    let diff = diff_reports(&old, &new, threshold_pct);
    print!("{}", diff.render());
    if diff.failed() {
        if informational {
            println!("(informational mode: not failing the run)");
            0
        } else {
            1
        }
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(entries: &[(&str, f64, f64)]) -> LoadedReport {
        LoadedReport {
            schema: BENCH_SCHEMA.to_string(),
            mode: "test".to_string(),
            benches: entries
                .iter()
                .map(|&(n, median_ns, mad_ns)| (n.to_string(), LoadedBench { median_ns, mad_ns }))
                .collect(),
        }
    }

    #[test]
    fn identical_reports_diff_clean() {
        let r = report_with(&[("a/x", 1000.0, 10.0), ("b/y", 5000.0, 50.0)]);
        let d = diff_reports(&r, &r, 20.0);
        assert!(!d.failed());
        assert!(d.regressions.is_empty() && d.improvements.is_empty());
    }

    #[test]
    fn inflated_median_is_a_regression() {
        let old = report_with(&[("a/x", 1000.0, 10.0)]);
        let new = report_with(&[("a/x", 10_000.0, 10.0)]);
        let d = diff_reports(&old, &new, 20.0);
        assert!(d.failed());
        assert_eq!(d.regressions.len(), 1);
        assert!((d.regressions[0].pct - 900.0).abs() < 1e-9);
    }

    #[test]
    fn noise_floor_suppresses_jitter_within_mad() {
        // +30% but the MADs say the measurement is that noisy.
        let old = report_with(&[("a/x", 1000.0, 100.0)]);
        let new = report_with(&[("a/x", 1300.0, 100.0)]);
        let d = diff_reports(&old, &new, 20.0);
        assert!(!d.failed(), "within 2*(mad+mad) must not gate");
    }

    #[test]
    fn missing_bench_is_gating_added_is_not() {
        let old = report_with(&[("a/x", 1000.0, 0.0), ("a/y", 1000.0, 0.0)]);
        let new = report_with(&[("a/x", 1000.0, 0.0), ("a/z", 1000.0, 0.0)]);
        let d = diff_reports(&old, &new, 20.0);
        assert_eq!(d.missing, vec!["a/y".to_string()]);
        assert_eq!(d.added, vec!["a/z".to_string()]);
        assert!(d.failed());
    }

    #[test]
    fn improvements_are_informational() {
        let old = report_with(&[("a/x", 10_000.0, 0.0)]);
        let new = report_with(&[("a/x", 1000.0, 0.0)]);
        let d = diff_reports(&old, &new, 20.0);
        assert!(!d.failed());
        assert_eq!(d.improvements.len(), 1);
    }

    #[test]
    fn big_improvements_suggest_rebaselining_without_gating() {
        let old = report_with(&[("a/x", 10_000.0, 0.0), ("b/y", 500.0, 0.0)]);
        let new = report_with(&[("a/x", 1000.0, 0.0), ("b/y", 500.0, 0.0)]);
        let d = diff_reports(&old, &new, 20.0);
        assert!(!d.failed(), "an improvement must never gate");
        assert!(
            d.render().contains("consider re-baselining"),
            "render: {}",
            d.render()
        );
        // No improvements, no nag.
        let clean = diff_reports(&new, &new, 20.0);
        assert!(!clean.render().contains("consider re-baselining"));
    }

    #[test]
    fn report_roundtrips_through_json() {
        let results = vec![
            BenchResult {
                name: "z/last",
                reps: 3,
                median_ns: 1500,
                mad_ns: 20,
                mean_ns: 1510.5,
                min_ns: 1480,
                max_ns: 1550,
                work: 42,
            },
            BenchResult {
                name: "a/first",
                reps: 3,
                median_ns: 900,
                mad_ns: 5,
                mean_ns: 905.0,
                min_ns: 890,
                max_ns: 915,
                work: 7,
            },
        ];
        let json = report_json(&results, &SuiteConfig::smoke());
        let loaded = parse_report(&json).unwrap();
        assert_eq!(loaded.schema, BENCH_SCHEMA);
        assert_eq!(loaded.mode, "smoke");
        assert_eq!(loaded.benches.len(), 2);
        assert_eq!(loaded.benches["z/last"].median_ns, 1500.0);
        assert_eq!(loaded.benches["a/first"].mad_ns, 5.0);
        // Keys serialise sorted.
        let a = json.find("\"a/first\"").unwrap();
        let z = json.find("\"z/last\"").unwrap();
        assert!(a < z);
    }

    #[test]
    fn median_and_mad_definitions() {
        assert_eq!(median_u64(&[1, 2, 3]), 2);
        assert_eq!(median_u64(&[1, 2, 3, 10]), 2); // (2+3)/2 integer
        assert_eq!(median_u64(&[]), 0);
    }
}
