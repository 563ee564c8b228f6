//! The three closed-loop batch workloads: `wl-kernel-cv`, `hom-vector-cv`
//! and `node2vec-sgns`.
//!
//! One op is one pipeline call on a fresh input; inputs are generated in
//! set-up from the run seed and never reused within the measured part.
//! The untraced op is the public entry point a user would call (the
//! `x2v-bench` harness, or walks + `Word2Vec::train`). The traced op
//! rebuilds the same pipeline from the public calls underneath it, each
//! wrapped in [`Layers::time`], and must give a bit-identical result.

use std::time::{Duration, Instant};

use x2v_bench::harness::{embedding_cv_accuracy, kernel_cv_accuracy_resumable};
use x2v_datasets::metrics::accuracy;
use x2v_datasets::splits::stratified_folds;
use x2v_datasets::synthetic::{
    bipartite_vs_odd, cycles_vs_trees, er_vs_preferential, motif_planted, GraphDataset,
};
use x2v_embed::walks::{generate_walks, WalkConfig};
use x2v_embed::word2vec::{SgnsConfig, Word2Vec};
use x2v_graph::Graph;
use x2v_hom::vectors::HomBasis;
use x2v_kernel::gram::{gram_resumable, try_normalize};
use x2v_kernel::svm::{MulticlassSvm, SvmConfig};
use x2v_kernel::wl::WlSubtreeKernel;
use x2v_linalg::Matrix;

use crate::{
    checksum, derive_seed, median, peak_rss_mb, with_alloc_counting, Layers, Outcome, RunConfig,
    Workload, SETUP_ROUNDS,
};

/// Cross-validation folds, as in the paper's experiments.
const FOLDS: usize = 5;
/// Fold-assignment seed (fixed: the inputs already vary with the run seed).
const FOLD_SEED: u64 = 1;
/// WL refinement rounds (the paper's t = 5).
const WL_ROUNDS: usize = 5;
/// Size of the trees-and-cycles hom basis (the paper's ~20 patterns).
const HOM_PATTERNS: usize = 20;
/// `quality` is the mean over the first this many measured ops of the CV
/// workloads (of `node2vec-sgns`, whose ops take longer), so it is exact
/// for a seed however many ops the run fits in.
const QUALITY_OPS_CV: usize = 64;
const QUALITY_OPS_SGNS: usize = 8;
/// Ob-counter the SVM solver adds its SMO iterations to.
const SVM_ITERS_COUNTER: &str = "svm/iterations";

/// Layer names timed by the traced ops, with the per-layer metric each
/// one reports as. Calls without a metric of their own (fold assignment,
/// sub-Gram gathering) still count towards `bench.layer_coverage`.
const TIMED_LAYERS: [(&str, &str); 8] = [
    ("kernel.gram", "kernel.gram_ms"),
    ("kernel.normalize", "kernel.normalize_ms"),
    ("kernel.svm_train", "kernel.svm_train_ms"),
    ("kernel.svm_predict", "kernel.svm_predict_ms"),
    ("hom.embed", "hom.embed_ms"),
    ("linalg.dot_gram", "linalg.dot_gram_ms"),
    ("embed.sgns", "embed.sgns_ms"),
    ("embed.walks", "embed.walks_ms"),
];

/// Layers whose allocation counts are reported, with their metric names.
const COUNTED_LAYERS: [(&str, &str); 3] = [
    ("kernel.gram", "kernel.gram_allocs"),
    ("hom.embed", "hom.embed_allocs"),
    ("embed.sgns", "embed.sgns_allocs"),
];

/// One op's input.
enum Input {
    /// A graph-classification dataset (the two CV workloads).
    Dataset(GraphDataset),
    /// An SBM graph with its block labels (`node2vec-sgns`).
    Sbm(Graph, Vec<usize>),
}

/// One op's output, reduced to what the checks compare.
struct Answer {
    /// Bits that must repeat exactly: the CV accuracy, or the embedding
    /// checksum.
    fingerprint: u64,
    /// The CV accuracy (CV workloads), or the node vectors whose CV
    /// accuracy is `quality` (`node2vec-sgns`, evaluated outside the op).
    accuracy: Option<f64>,
    vectors: Vec<Vec<f64>>,
    /// Work items the op processed: graphs, or SGNS tokens × epochs.
    items: f64,
    /// Counts that must repeat exactly on a traced re-run: corpus tokens,
    /// SVM iterations.
    walk_tokens: u64,
    svm_iters: u64,
}

/// A batch workload's fixed parts, built in set-up.
struct Pipeline {
    workload: Workload,
    kernel: WlSubtreeKernel,
    basis: Option<HomBasis>,
}

impl Pipeline {
    fn new(workload: Workload) -> Self {
        Pipeline {
            workload,
            kernel: WlSubtreeKernel::new(WL_ROUNDS),
            basis: (workload == Workload::HomVectorCv)
                .then(|| HomBasis::trees_and_cycles(HOM_PATTERNS)),
        }
    }

    /// Inputs per run: enough for any run of up to 60 s at several times
    /// today's speed. A run that uses them all up ends early.
    fn pool_size(&self) -> usize {
        match self.workload {
            Workload::WlKernelCv => 400,
            Workload::HomVectorCv => 600,
            _ => 120,
        }
    }

    /// The input for `seed`. Every family keeps its graph orders fixed, so
    /// ops differ in the draw, not in their shape.
    fn generate(&self, seed: u64) -> Input {
        let s = |k: u64| derive_seed(seed, 1, k);
        match self.workload {
            // ~100 graphs of order 8–20 over 8 classes (E13).
            Workload::WlKernelCv => Input::Dataset(mix(vec![
                er_vs_preferential(13, 20, 2, s(0)),
                cycles_vs_trees(13, 8, s(1)),
                motif_planted(13, 20, 0.15, 2, s(2)),
                bipartite_vs_odd(13, 8, 0.3, s(3)),
            ])),
            // 40 graphs of order 8–12 over 8 classes (E14): hom cost
            // climbs steeply with order, and bipartite-vs-odd is the
            // family where hom vectors win outright.
            Workload::HomVectorCv => Input::Dataset(mix(vec![
                er_vs_preferential(5, 12, 2, s(0)),
                cycles_vs_trees(5, 8, s(1)),
                motif_planted(5, 12, 0.25, 1, s(2)),
                bipartite_vs_odd(5, 6, 0.4, s(3)),
            ])),
            // 3 blocks of 100 nodes: ≈120k walk tokens at the default
            // walk config.
            _ => {
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(s(0));
                let g = x2v_graph::generators::sbm(&[100, 100, 100], 0.08, 0.015, &mut rng);
                let labels = g.labels().iter().map(|&l| l as usize).collect();
                Input::Sbm(g, labels)
            }
        }
    }

    /// The untraced op: the public entry point.
    fn run(&self, input: &Input, op_seed: u64) -> Result<Answer, String> {
        match (self.workload, input) {
            (Workload::WlKernelCv, Input::Dataset(d)) => {
                let acc = kernel_cv_accuracy_resumable(&self.kernel, d, FOLDS, FOLD_SEED, "e2e")
                    .map_err(|e| e.to_string())?;
                Ok(cv_answer(acc, d.len()))
            }
            (Workload::HomVectorCv, Input::Dataset(d)) => {
                let basis = self.basis.as_ref().expect("hom basis built in set-up");
                let emb = basis.embed_dataset(&d.graphs);
                let acc = embedding_cv_accuracy(&emb, &d.labels, FOLDS, FOLD_SEED);
                Ok(cv_answer(acc, d.len()))
            }
            (Workload::Node2vecSgns, Input::Sbm(g, _)) => {
                let (walk_cfg, sgns_cfg) = sgns_configs(op_seed);
                let corpus = generate_walks(g, &walk_cfg);
                let model = Word2Vec::train(&corpus, g.order(), &sgns_cfg);
                Ok(sgns_answer(&corpus, model, sgns_cfg.epochs))
            }
            _ => Err("input does not match workload".to_string()),
        }
    }

    /// The traced op: the same pipeline from the calls underneath the
    /// entry point, each timed as its layer.
    fn run_traced(
        &self,
        input: &Input,
        op_seed: u64,
        layers: &mut Layers,
    ) -> Result<Answer, String> {
        match (self.workload, input) {
            (Workload::WlKernelCv, Input::Dataset(d)) => {
                let gram = layers
                    .time("kernel.gram", || {
                        gram_resumable(&self.kernel, &d.graphs, "e2e")
                    })
                    .map_err(|e| e.to_string())?;
                traced_cv(&gram, &d.labels, layers)
            }
            (Workload::HomVectorCv, Input::Dataset(d)) => {
                let basis = self.basis.as_ref().expect("hom basis built in set-up");
                let emb = layers.time("hom.embed", || basis.embed_dataset(&d.graphs));
                let gram = layers.time("linalg.dot_gram", || dot_gram(&emb));
                traced_cv(&gram, &d.labels, layers)
            }
            (Workload::Node2vecSgns, Input::Sbm(g, _)) => {
                let (walk_cfg, sgns_cfg) = sgns_configs(op_seed);
                let corpus = layers.time("embed.walks", || generate_walks(g, &walk_cfg));
                let model = layers.time("embed.sgns", || {
                    Word2Vec::train(&corpus, g.order(), &sgns_cfg)
                });
                Ok(sgns_answer(&corpus, model, sgns_cfg.epochs))
            }
            _ => Err("input does not match workload".to_string()),
        }
    }

    /// The op's `quality`: its CV accuracy, or for `node2vec-sgns` the CV
    /// accuracy of its node vectors against the SBM blocks.
    fn quality(&self, input: &Input, answer: &Answer) -> f64 {
        match (answer.accuracy, input) {
            (Some(acc), _) => acc,
            (None, Input::Sbm(_, labels)) => {
                embedding_cv_accuracy(&answer.vectors, labels, FOLDS, FOLD_SEED)
            }
            (None, Input::Dataset(_)) => f64::NAN,
        }
    }
}

/// Concatenates binary datasets into one multiclass dataset: family `f`'s
/// classes become `2f` and `2f + 1`.
fn mix(parts: Vec<GraphDataset>) -> GraphDataset {
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    for (f, part) in parts.into_iter().enumerate() {
        labels.extend(part.labels.iter().map(|&l| 2 * f + l));
        graphs.extend(part.graphs);
    }
    GraphDataset {
        graphs,
        labels,
        name: "e2e-mix",
    }
}

fn cv_answer(acc: f64, graphs: usize) -> Answer {
    Answer {
        fingerprint: acc.to_bits(),
        accuracy: Some(acc),
        vectors: Vec::new(),
        items: graphs as f64,
        walk_tokens: 0,
        svm_iters: 0,
    }
}

/// Default walk and SGNS configs, with the walk stream seeded per op.
fn sgns_configs(op_seed: u64) -> (WalkConfig, SgnsConfig) {
    let walk = WalkConfig {
        seed: op_seed,
        ..WalkConfig::default()
    };
    (walk, SgnsConfig::default())
}

fn sgns_answer(corpus: &[Vec<usize>], model: Word2Vec, epochs: usize) -> Answer {
    let tokens: usize = corpus.iter().map(Vec::len).sum();
    let vectors = model.vectors();
    Answer {
        fingerprint: checksum(vectors.iter().flatten().copied()),
        accuracy: None,
        vectors,
        items: (tokens * epochs) as f64,
        walk_tokens: tokens as u64,
        svm_iters: 0,
    }
}

/// The linear-kernel Gram of explicit embeddings, entry by entry with
/// `vector::dot` (what `embedding_cv_accuracy` does before normalising).
fn dot_gram(emb: &[Vec<f64>]) -> Matrix {
    let n = emb.len();
    let mut gram = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = x2v_linalg::vector::dot(&emb[i], &emb[j]);
            gram[(i, j)] = v;
            gram[(j, i)] = v;
        }
    }
    gram
}

/// `harness::gram_cv_accuracy` after normalisation, rebuilt from its
/// public calls: fold assignment, per-fold sub-Gram gather, SVM training
/// and prediction. SMO iterations are read from the solver's obs counter,
/// with collection switched on for the training calls only.
fn traced_cv(gram: &Matrix, labels: &[usize], layers: &mut Layers) -> Result<Answer, String> {
    let gram = layers
        .time("kernel.normalize", || try_normalize(gram))
        .map_err(|e| e.to_string())?;
    let fold_of = layers.time("datasets.folds", || {
        stratified_folds(labels, FOLDS, FOLD_SEED)
    });
    let n = labels.len();
    let mut predictions = vec![usize::MAX; n];
    let mut svm_iters = 0;
    for f in 0..FOLDS {
        let (sub, train_idx, test_idx) = layers.time("bench.fold_gather", || {
            let train_idx: Vec<usize> = (0..n).filter(|&i| fold_of[i] != f).collect();
            let test_idx: Vec<usize> = (0..n).filter(|&i| fold_of[i] == f).collect();
            let mut sub = Matrix::zeros(train_idx.len(), train_idx.len());
            for (a, &i) in train_idx.iter().enumerate() {
                let src = gram.row(i);
                for (d, &j) in sub.row_mut(a).iter_mut().zip(&train_idx) {
                    *d = src[j];
                }
            }
            (sub, train_idx, test_idx)
        });
        let train_labels: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
        let before = obs_counter(SVM_ITERS_COUNTER);
        x2v_obs::set_enabled(true);
        let svm = layers.time("kernel.svm_train", || {
            MulticlassSvm::train(&sub, &train_labels, SvmConfig::default())
        });
        x2v_obs::set_enabled(false);
        svm_iters += obs_counter(SVM_ITERS_COUNTER) - before;
        layers.time("kernel.svm_predict", || {
            let mut krow = vec![0.0f64; train_idx.len()];
            for &q in &test_idx {
                let src = gram.row(q);
                for (k, &i) in krow.iter_mut().zip(&train_idx) {
                    *k = src[i];
                }
                predictions[q] = svm.predict(&krow);
            }
        });
    }
    let mut answer = cv_answer(accuracy(&predictions, labels), n);
    answer.svm_iters = svm_iters;
    Ok(answer)
}

/// The current value of obs counter `name` (0 if never incremented).
fn obs_counter(name: &str) -> u64 {
    let (_, counters, _) = x2v_obs::global().snapshot();
    counters
        .into_iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| v)
}

/// Everything one set-up round builds.
struct Prepared {
    pipeline: Pipeline,
    warmup: Input,
    warmup_fingerprint: Result<u64, String>,
    pool: Vec<Input>,
}

/// One set-up round: the fixed model parts, every input the run uses, and
/// one untimed warm-up op.
fn prepare(config: &RunConfig) -> Prepared {
    let pipeline = Pipeline::new(config.workload);
    let warmup = pipeline.generate(derive_seed(config.seed, 0, 0));
    let pool = (0..pipeline.pool_size())
        .map(|i| pipeline.generate(derive_seed(config.seed, 2, i as u64)))
        .collect();
    let warmup_fingerprint = pipeline
        .run(&warmup, derive_seed(config.seed, 3, 0))
        .map(|a| a.fingerprint);
    Prepared {
        pipeline,
        warmup,
        warmup_fingerprint,
        pool,
    }
}

/// Runs one batch workload.
pub(crate) fn run(config: &RunConfig, process_start: Instant) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut prepared = None;
    for round in 0..SETUP_ROUNDS {
        // Drop the previous round's state first, so every round starts
        // from the same heap.
        drop(prepared.take());
        let t0 = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        prepared = Some(prepare(config));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up round");
    let mut out = if config.trace {
        measure_traced(config, &p)
    } else {
        measure(config, &p)
    };
    // The warm-up input again: its result must repeat bit for bit.
    let again = p
        .pipeline
        .run(&p.warmup, derive_seed(config.seed, 3, 0))
        .map(|a| a.fingerprint);
    if again.is_err() || again != p.warmup_fingerprint {
        eprintln!(
            "warm-up result did not repeat: {:?} vs {:?}",
            p.warmup_fingerprint, again
        );
        out.failed += 1;
        out.wrong += 1;
    }
    if !config.trace {
        out.push("setup_s", median(&setup_s), "s");
        out.push("peak_rss_mb", peak_rss_mb(), "MB");
    }
    out
}

/// The untraced measured part: ops back to back until `seconds` of op
/// time have passed or the input pool is used up.
fn measure(config: &RunConfig, p: &Prepared) -> Outcome {
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(config.seconds);
    let mut busy = Duration::ZERO;
    let mut latencies_ms = Vec::new();
    let mut items = 0.0;
    let mut qualities = Vec::new();
    let quality_ops = if config.workload == Workload::Node2vecSgns {
        QUALITY_OPS_SGNS
    } else {
        QUALITY_OPS_CV
    };
    for (i, input) in p.pool.iter().enumerate() {
        if busy >= budget {
            break;
        }
        let op_seed = derive_seed(config.seed, 4, i as u64);
        out.attempted += 1;
        let t0 = Instant::now();
        let result = p.pipeline.run(input, op_seed);
        let dt = t0.elapsed();
        busy += dt;
        match result {
            Ok(answer) => {
                latencies_ms.push(dt.as_secs_f64() * 1e3);
                items += answer.items;
                if qualities.len() < quality_ops {
                    qualities.push(p.pipeline.quality(input, &answer));
                }
            }
            Err(e) => {
                eprintln!("op {i} failed: {e}");
                out.failed += 1;
            }
        }
    }
    // A run too short to reach `quality_ops` ops finishes the quality set
    // untimed, so `quality` is the same for a seed on any machine.
    for (i, input) in p.pool.iter().enumerate().skip(qualities.len()) {
        if qualities.len() >= quality_ops {
            break;
        }
        match p.pipeline.run(input, derive_seed(config.seed, 4, i as u64)) {
            Ok(answer) => qualities.push(p.pipeline.quality(input, &answer)),
            Err(_) => qualities.push(f64::NAN),
        }
    }
    let quality = qualities.iter().sum::<f64>() / qualities.len() as f64;
    if !(0.0..=1.0).contains(&quality) {
        out.wrong += 1;
    }
    out.push("throughput", items / busy.as_secs_f64(), "1/s");
    out.push("p50_ms", median(&latencies_ms), "ms");
    out.push("quality", quality, "share");
    out
}

/// The traced measured part. Every op runs twice on the same input —
/// untraced through the entry point, then traced through its layers,
/// alternating which goes first — and the two results must be
/// bit-identical. The traced half counts allocations per layer.
fn measure_traced(config: &RunConfig, p: &Prepared) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::new(config.plant);
    let budget = Duration::from_secs_f64(config.seconds);
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut traced_ms = Vec::new();
    let mut coverage = Vec::new();
    // The first op that succeeded, by pool index, with its answer.
    let mut first: Option<(usize, Answer)> = None;
    for (i, input) in p.pool.iter().enumerate() {
        if untraced + traced >= budget {
            break;
        }
        let op_seed = derive_seed(config.seed, 4, i as u64);
        out.attempted += 1;
        let run_traced = |layers: &mut Layers| {
            let t0 = Instant::now();
            let r = with_alloc_counting(|| p.pipeline.run_traced(input, op_seed, layers));
            (r, t0.elapsed())
        };
        let run_plain = || {
            let t0 = Instant::now();
            let r = p.pipeline.run(input, op_seed);
            (r, t0.elapsed())
        };
        let ((plain, dt_plain), (with_layers, dt_traced)) = if i % 2 == 0 {
            let a = run_plain();
            (a, run_traced(&mut layers))
        } else {
            let b = run_traced(&mut layers);
            (run_plain(), b)
        };
        untraced += dt_plain;
        traced += dt_traced;
        match (plain, with_layers) {
            (Ok(a), Ok(b)) if a.fingerprint == b.fingerprint => {
                let op_ms = dt_traced.as_secs_f64() * 1e3;
                coverage.push(layers.end_op() / op_ms);
                traced_ms.push(op_ms);
                first.get_or_insert((i, b));
            }
            (Ok(_), Ok(_)) => {
                eprintln!("op {i}: traced result differs from the entry point's");
                layers.abandon_op();
                out.failed += 1;
                out.wrong += 1;
            }
            (a, b) => {
                eprintln!("op {i} failed: {:?} / {:?}", a.err(), b.err());
                layers.abandon_op();
                out.failed += 1;
            }
        }
    }
    // Noise-free counts must repeat: trace the first measured input again.
    let counts_repeat = first.as_ref().is_some_and(|(i, a)| {
        let mut again = Layers::new(None);
        let op_seed = derive_seed(config.seed, 4, *i as u64);
        let repeat =
            with_alloc_counting(|| p.pipeline.run_traced(&p.pool[*i], op_seed, &mut again));
        again.end_op();
        repeat.is_ok_and(|b| {
            a.walk_tokens == b.walk_tokens
                && a.svm_iters == b.svm_iters
                && COUNTED_LAYERS
                    .iter()
                    .all(|(l, _)| layers.first_allocs(l) == again.first_allocs(l))
        })
    });
    if !counts_repeat {
        eprintln!("per-layer counts did not repeat on a traced re-run");
        out.failed += 1;
        out.wrong += 1;
    }
    out.traced_p50_ms = Some(median(&traced_ms));
    for (layer, metric) in TIMED_LAYERS {
        out.push(metric, layers.median_ms(layer), "ms");
    }
    for (layer, metric) in COUNTED_LAYERS {
        out.push(metric, layers.first_allocs(layer) as f64, "count");
    }
    let first = first.as_ref().map(|(_, a)| a);
    out.push(
        "kernel.svm_iters",
        first.map_or(0, |a| a.svm_iters) as f64,
        "count",
    );
    out.push(
        "embed.walk_tokens",
        first.map_or(0, |a| a.walk_tokens) as f64,
        "count",
    );
    out.push("bench.ops", traced_ms.len() as f64, "count");
    out.push(
        "bench.trace_overhead",
        untraced.as_secs_f64() / traced.as_secs_f64(),
        "ratio",
    );
    out.push("bench.layer_coverage", median(&coverage), "ratio");
    out
}
