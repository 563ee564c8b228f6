//! The Gram oracle battery: randomized proof that every Gram path of this
//! workspace is *exact*, not approximate.
//!
//! Every test draws a fresh randomized dataset from a battery seed and
//! asserts bit-level equality against pairwise [`GraphKernel::eval`]:
//!
//! * a hash-map dot over [`x2v_wl::WlHistory::histogram`] — an independent
//!   WL dot oracle — reproduces the WL kernel's `eval`, plain and
//!   discounted;
//! * `gram_resumable`, `GraphKernel::gram` and the merged fleet Gram
//!   reproduce `eval` entry by entry, at `X2V_THREADS ∈ {1, 2, 8}`, for the
//!   WL subtree kernel (plain and discounted), the 2-WL kernel and the
//!   log-scaled hom-vector kernel — the kernels whose
//!   [`GraphKernel::entries`] prepare features once per dataset.
//!
//! The battery seed is printed on every run (visible with `--nocapture`
//! and in any failure report) and written to
//! `target/feat_equivalence_seed.txt` for CI artifact upload. Replay a
//! failing run with `X2V_FEAT_SEED=<seed>`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use x2v_bench::fleet_workloads::{merge_gram, GramWorkload};
use x2v_core::GraphKernel;
use x2v_datasets::synthetic::cycles_vs_trees;
use x2v_fleet::Workload;
use x2v_graph::generators::gnp;
use x2v_graph::Graph;
use x2v_kernel::gram::gram_resumable;
use x2v_kernel::hom::LogHomKernel;
use x2v_kernel::wl::WlSubtreeKernel;
use x2v_kernel::wl2::Wl2Kernel;
use x2v_linalg::Matrix;
use x2v_wl::Refiner;

const THREADS: [usize; 3] = [1, 2, 8];

/// The battery seed: `X2V_FEAT_SEED` if set, otherwise drawn from the
/// clock. Printed and persisted once per process.
fn battery_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let seed = match std::env::var("X2V_FEAT_SEED") {
            Ok(s) => s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("X2V_FEAT_SEED must be a u64, got {s:?}")),
            Err(_) => std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5eed),
        };
        // Visible under --nocapture and in every failure report; also
        // persisted for CI artifact upload.
        println!("feat_equivalence battery seed: {seed} (replay: X2V_FEAT_SEED={seed})");
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/feat_equivalence_seed.txt"
        );
        let _ = std::fs::write(path, format!("{seed}\n"));
        seed
    })
}

/// A mixed randomized dataset: random sparse/denser G(n, p) graphs of
/// order `4..max_order` with random labels over alphabets of varying size,
/// plus structured cycles-vs-trees graphs. `salt` decorrelates the tests'
/// datasets.
fn mixed_dataset(salt: u64, graphs: usize, max_order: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(battery_seed() ^ salt);
    let mut out = Vec::with_capacity(graphs);
    for i in 0..graphs {
        if i % 4 == 3 {
            // Structured pair: one cycle-ish, one tree-ish graph.
            let per_class = 1 + (i % 3);
            let ds = cycles_vs_trees(per_class, 6 + i % 5, rng.random());
            out.extend(ds.graphs.into_iter().take(1));
            continue;
        }
        let n = rng.random_range(4..max_order);
        let p = [0.08, 0.2, 0.45][i % 3];
        let g = gnp(n, p, &mut rng);
        let alphabet = rng.random_range(1..5u32);
        let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..alphabet)).collect();
        out.push(g.with_labels(labels).expect("label count matches order"));
    }
    out
}

fn assert_bit_equal(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: shape");
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_eq!(
                a[(i, j)].to_bits(),
                b[(i, j)].to_bits(),
                "{what}: entry ({i},{j}) {} vs {} [seed {}]",
                a[(i, j)],
                b[(i, j)],
                battery_seed()
            );
        }
    }
}

/// Pairwise `eval` over every entry: the reference each Gram path must
/// reproduce.
fn pairwise_eval(kernel: &dyn GraphKernel, graphs: &[Graph]) -> Matrix {
    let n = graphs.len();
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = kernel.eval(&graphs[i], &graphs[j]);
        }
    }
    m
}

/// The independent WL dot oracle: refine both graphs through one fresh
/// interner and dot their per-round hash-map histograms, weighting round
/// `i` by `2^{-i}` when the kernel is discounted.
fn wl_oracle(kernel: &WlSubtreeKernel, g: &Graph, h: &Graph) -> f64 {
    let mut r = Refiner::new();
    let rounds = kernel.rounds();
    let (hg, hh) = (r.refine_rounds(g, rounds), r.refine_rounds(h, rounds));
    let mut total = 0.0;
    for i in 0..=rounds {
        let (a, b) = (hg.histogram(i), hh.histogram(i));
        let round_sum: f64 = a
            .iter()
            .filter_map(|(c, &x)| b.get(c).map(|&y| x as f64 * y as f64))
            .sum();
        if kernel.is_discounted() {
            total += 0.5f64.powi(i as i32) * round_sum;
        } else {
            total += round_sum;
        }
    }
    total
}

/// The WL kernel's `eval` must equal the hash-map histogram dot.
#[test]
fn wl_eval_bit_equals_histogram_dot_oracle() {
    let graphs = mixed_dataset(0x01, 12, 30);
    for kernel in [WlSubtreeKernel::new(3), WlSubtreeKernel::discounted(5)] {
        let want = pairwise_eval(&kernel, &graphs);
        let n = graphs.len();
        let mut oracle = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                oracle[(i, j)] = wl_oracle(&kernel, &graphs[i], &graphs[j]);
            }
        }
        assert_bit_equal(
            &want,
            &oracle,
            &format!("eval vs oracle (discounted={})", kernel.is_discounted()),
        );
    }
}

/// `gram_resumable` and `GraphKernel::gram` must equal pairwise `eval` bit
/// for bit, at every thread count, for every kernel whose entries are
/// prepared from features.
#[test]
fn every_gram_path_bit_equals_pairwise_eval() {
    let graphs = mixed_dataset(0x02, 14, 30);
    // 2-WL is cubic in the order and hom counting steep in it: smaller graphs.
    let small = mixed_dataset(0x03, 8, 12);
    let kernels: [(&str, Box<dyn GraphKernel + Sync>, &[Graph]); 4] = [
        ("wl", Box::new(WlSubtreeKernel::new(3)), &graphs),
        ("wl-disc", Box::new(WlSubtreeKernel::discounted(5)), &graphs),
        ("wl2", Box::new(Wl2Kernel::new(2)), &small),
        (
            "log-hom",
            Box::new(LogHomKernel::trees_and_cycles(8)),
            &small,
        ),
    ];
    for (name, kernel, graphs) in &kernels {
        let want = pairwise_eval(kernel.as_ref(), graphs);
        for threads in THREADS {
            let (resumable, gram) = x2v_par::with_threads(threads, || {
                (
                    gram_resumable(kernel.as_ref(), graphs, "feat-equiv").unwrap(),
                    kernel.gram(graphs),
                )
            });
            let what = format!("{name} at {threads} threads");
            assert_bit_equal(&resumable, &want, &format!("gram_resumable, {what}"));
            assert_bit_equal(&gram, &want, &format!("GraphKernel::gram, {what}"));
        }
    }
}

/// The fleet's Gram shards, merged, must equal pairwise `eval` bit for
/// bit at every thread count and for row blocks that do and do not divide
/// the dataset.
#[test]
fn merged_fleet_gram_bit_equals_pairwise_eval() {
    let graphs = mixed_dataset(0x04, 11, 30);
    let rounds = 3;
    let want = pairwise_eval(&WlSubtreeKernel::new(rounds), &graphs);
    for block in [1, 4, 11] {
        let w = GramWorkload::new(rounds, block, graphs.clone());
        for threads in THREADS {
            let shards: Vec<Option<Vec<u8>>> = x2v_par::with_threads(threads, || {
                (0..w.num_tasks())
                    .map(|t| Some(w.run_task(t).unwrap()))
                    .collect()
            });
            let (merged, missing) = merge_gram(graphs.len(), block, &shards).unwrap();
            assert!(missing.is_empty());
            assert_bit_equal(
                &merged,
                &want,
                &format!("merged fleet Gram, block {block}, {threads} threads"),
            );
        }
    }
}
