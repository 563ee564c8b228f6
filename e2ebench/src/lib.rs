//! End-to-end benchmark over the four x2vec pipelines.
//!
//! Each run is one fresh process that sets up one workload from `--seed`,
//! measures it for `--seconds`, checks its outputs, and prints one JSON
//! result line. With `--trace 0` the result carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics, timed from
//! the outside by wrapping each public call the benchmark makes into a
//! workspace crate (see [`Layers`]). `README.md` in this directory lists
//! every metric, what each workload is for, and the noise findings that
//! shaped the design.

mod batch;
mod serve;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The four workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// E13: WL subtree kernel (t = 5) Gram → 5-fold SVM cross-validation.
    WlKernelCv,
    /// E14: trees-and-cycles hom vectors → linear-kernel 5-fold SVM CV.
    HomVectorCv,
    /// node2vec walks → SGNS training on a 3-block SBM graph.
    Node2vecSgns,
    /// Open-loop `/similar` + `/embed` traffic against `x2v-serve`.
    ServeSimilar,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::WlKernelCv,
        Workload::HomVectorCv,
        Workload::Node2vecSgns,
        Workload::ServeSimilar,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WlKernelCv => "wl-kernel-cv",
            Workload::HomVectorCv => "hom-vector-cv",
            Workload::Node2vecSgns => "node2vec-sgns",
            Workload::ServeSimilar => "serve-similar",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Measured time, excluding set-up and output checks.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Test hook: sleep this long inside the wrapper of the named layer
    /// call (e.g. `kernel.svm_train`), so the attribution self-test can
    /// check that a planted delay lands in that layer alone.
    pub plant: Option<(&'static str, Duration)>,
}

/// A named metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Ops (batch) or requests (serve) attempted in the measured part.
    pub attempted: u64,
    /// Attempts that failed: an error, a wrong answer, a non-2xx response
    /// or a timeout. Output checks made after the measured part that fail
    /// also count here.
    pub failed: u64,
    /// Outputs checked and found wrong (a subset of `failed`).
    pub wrong: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Median wall time of one traced op, in ms (traced batch runs only):
    /// the quantity the per-layer times must add up to.
    pub traced_p50_ms: Option<f64>,
}

impl Outcome {
    /// Appends a metric.
    pub(crate) fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every checked output was right.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Renders `v` with all its digits (Rust's shortest round-trip form);
/// non-finite values, which JSON cannot carry, become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The end-to-end metrics, with their units, in `BENCHMARK.json` order.
/// `throughput` counts graphs (CV workloads), SGNS tokens × epochs
/// (`node2vec-sgns`) or completed requests (`serve-similar`) per second.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("p50_ms", "ms"),
    ("quality", "share"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run, with their units, in
/// `BENCHMARK.json` order. A workload that never calls a layer reports
/// it as 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("kernel.gram_ms", "ms"),
    ("kernel.gram_allocs", "count"),
    ("kernel.normalize_ms", "ms"),
    ("kernel.svm_train_ms", "ms"),
    ("kernel.svm_predict_ms", "ms"),
    ("kernel.svm_iters", "count"),
    ("hom.embed_ms", "ms"),
    ("hom.embed_allocs", "count"),
    ("linalg.dot_gram_ms", "ms"),
    ("embed.sgns_ms", "ms"),
    ("embed.sgns_allocs", "count"),
    ("embed.walks_ms", "ms"),
    ("embed.walk_tokens", "count"),
    ("serve.scan_ms", "ms"),
    ("serve.similar_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.embed_ms", "ms"),
    ("ckpt.publish_ms", "ms"),
    ("ckpt.reload_ms", "ms"),
    ("ckpt.snapshot_bytes", "bytes"),
    ("serve.shed", "count"),
    ("serve.deadline_trips", "count"),
    ("client.late_ms", "ms"),
    ("client.connect_ms", "ms"),
    ("client.p90_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("bench.ops", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.layer_coverage", "ratio"),
];

/// Runs one workload. `process_start` is taken first thing in `main`, so
/// the first set-up round counts process start-up too. The metrics come
/// back in `BENCHMARK.json` order: [`END_TO_END`] untraced, [`PER_LAYER`]
/// traced.
///
/// # Errors
/// A set-up that cannot complete (the serving daemon never got ready).
pub fn run(config: &RunConfig, process_start: Instant) -> Result<Outcome, String> {
    // Batch workloads are pinned to one worker thread: at two threads the
    // same Gram spread 3x between runs on a 2-vCPU machine. `with_threads`
    // is the in-process form of `X2V_THREADS=1`.
    let mut out = x2v_par::with_threads(1, || match config.workload {
        Workload::WlKernelCv | Workload::HomVectorCv | Workload::Node2vecSgns => {
            Ok(batch::run(config, process_start))
        }
        Workload::ServeSimilar => serve::run(config, process_start),
    })?;
    let names: &[(&'static str, &'static str)] = if config.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    out.metrics = names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: out.metric(name).unwrap_or(0.0),
            unit,
        })
        .collect();
    Ok(out)
}

/// Number of set-up rounds per run; `setup_s` is their median.
pub(crate) const SETUP_ROUNDS: usize = 3;

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub(crate) fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (NumPy's default); 0 if empty.
pub(crate) fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size so far, in MiB (0 where procfs is missing).
pub(crate) fn peak_rss_mb() -> f64 {
    x2v_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Milliseconds elapsed since `t`.
pub(crate) fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-layer timing and allocation counts for the traced run, recorded
/// from the outside: each public call the benchmark makes into a
/// workspace crate goes through [`Layers::time`], which adds the call's
/// wall time and the calling thread's allocation count to the current op.
/// All batch work runs on the calling thread (one worker thread), so the
/// thread's counts are the call's counts.
pub(crate) struct Layers {
    plant: Option<(&'static str, Duration)>,
    current_ms: BTreeMap<&'static str, f64>,
    current_allocs: BTreeMap<&'static str, u64>,
    /// Per-op totals, one entry per finished op, per layer.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Allocation counts of the first finished op, per layer.
    first_allocs: Option<BTreeMap<&'static str, u64>>,
}

impl Layers {
    /// An empty recorder, planting `plant`'s delay in its layer if set.
    pub(crate) fn new(plant: Option<(&'static str, Duration)>) -> Self {
        Layers {
            plant,
            current_ms: BTreeMap::new(),
            current_allocs: BTreeMap::new(),
            samples: BTreeMap::new(),
            first_allocs: None,
        }
    }

    /// Calls `f` as one call into layer `name`, timing it and counting its
    /// allocations.
    pub(crate) fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (_, allocs0) = x2v_prof::thread_alloc_totals();
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        if let Some((planted, delay)) = self.plant {
            if planted == name {
                std::thread::sleep(delay);
            }
        }
        let ms = ms_since(t0);
        let (_, allocs1) = x2v_prof::thread_alloc_totals();
        *self.current_ms.entry(name).or_default() += ms;
        *self.current_allocs.entry(name).or_default() += allocs1.wrapping_sub(allocs0);
        out
    }

    /// Closes the current op: its per-layer totals become one sample each.
    /// Returns the op's summed layer time in ms.
    pub(crate) fn end_op(&mut self) -> f64 {
        let mut total = 0.0;
        for (name, ms) in std::mem::take(&mut self.current_ms) {
            total += ms;
            self.samples.entry(name).or_default().push(ms);
        }
        let allocs = std::mem::take(&mut self.current_allocs);
        self.first_allocs.get_or_insert(allocs);
        total
    }

    /// Discards the current op's partial totals (an op that errored).
    pub(crate) fn abandon_op(&mut self) {
        self.current_ms.clear();
        self.current_allocs.clear();
    }

    /// Median per-op time of `layer` in ms; 0 if the workload never calls
    /// it.
    pub(crate) fn median_ms(&self, layer: &str) -> f64 {
        self.samples.get(layer).map_or(0.0, |s| median(s))
    }

    /// Allocation count of `layer` in the first finished op; 0 if the
    /// workload never calls it.
    pub(crate) fn first_allocs(&self, layer: &str) -> u64 {
        self.first_allocs
            .as_ref()
            .and_then(|m| m.get(layer).copied())
            .unwrap_or(0)
    }
}

/// Allocations counted on this thread while `f` runs, with the process
/// allocation counter switched on for the call (the counting allocator
/// comes from `x2v-prof`, linked into this binary).
pub(crate) fn with_alloc_counting<T>(f: impl FnOnce() -> T) -> T {
    x2v_prof::set_alloc_counting(true);
    let out = f();
    x2v_prof::set_alloc_counting(false);
    out
}

/// FNV-1a over the bit patterns of `values`: the checksum that must
/// repeat when the same input is trained again.
pub(crate) fn checksum(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Derives the seed of item `index` of stream `stream` from the run seed
/// (splitmix64 finaliser), so every input is a pure function of `--seed`.
pub(crate) fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_numpy() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.99) - 3.97).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        out.push("p50_ms", 1.25, "ms");
        assert_eq!(
            out.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
