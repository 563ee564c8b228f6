//! Gram-matrix utilities: centering, cosine normalisation, PSD checks, and
//! crash-safe row-block construction ([`gram_resumable`]).

use std::hash::Hasher;
use x2v_ckpt::codec::{Dec, Enc};
use x2v_ckpt::crc32::Crc32;
use x2v_core::GraphKernel;
use x2v_graph::hash::FxHasher;
use x2v_graph::Graph;
use x2v_guard::GuardError;
use x2v_linalg::eigen::sym_eigenvalues;
use x2v_linalg::Matrix;

/// The guarded-site name for Gram-matrix post-processing.
pub const SITE: &str = "kernel/gram";

/// The guarded-site name for resumable Gram-matrix construction.
pub const BUILD_SITE: &str = "kernel/gram_build";

/// The checkpoint frame kind for partially built Gram matrices.
pub const CKPT_KIND: &str = "gram-rows";

/// Completed rows between checkpoint saves in [`gram_resumable`].
const ROW_BLOCK: usize = 8;

/// Fingerprints the dataset — every graph's order, labels and adjacency —
/// so a checkpoint built from different graphs is rejected (cold start)
/// instead of silently merged.
fn gram_fingerprint(graphs: &[Graph]) -> u32 {
    let mut c = Crc32::new();
    c.update(CKPT_KIND.as_bytes());
    c.update_u64(graphs.len() as u64);
    for g in graphs {
        // Word-at-a-time: a byte-wise CRC of every label and adjacency
        // entry costs about a seventh of a small WL Gram build.
        let mut h = FxHasher::default();
        let csr = g.csr();
        for &l in g.labels() {
            h.write_u32(l);
        }
        for &x in csr.offsets().iter().chain(csr.targets()) {
            h.write_usize(x);
        }
        c.update_u64(g.order() as u64);
        c.update_u64(h.finish());
    }
    c.finish()
}

/// Evaluates every Gram entry with [`GraphKernel::eval`], hiding the
/// wrapped kernel's [`GraphKernel::rows`] override: the pairwise
/// reference that feature-map Gram builds are checked and benchmarked
/// against.
pub struct PairwiseEval<'a, K: ?Sized>(pub &'a K);

impl<K: GraphKernel + ?Sized> GraphKernel for PairwiseEval<'_, K> {
    fn eval(&self, g: &Graph, h: &Graph) -> f64 {
        self.0.eval(g, h)
    }
}

/// Builds the Gram matrix `K[i][j] = K(graphs[i], graphs[j])` from
/// [`GraphKernel::rows`] — one preparation pass over the dataset (for a
/// feature-map kernel, one feature extraction per graph), then one row
/// evaluator call per upper-triangle row — with row-block checkpoints:
/// when an ambient [`x2v_ckpt::Store`] is installed, the partial matrix is
/// persisted under `job` every `ROW_BLOCK` (8) completed outer rows, and —
/// with [`x2v_ckpt::set_resume`] in effect — construction restarts from
/// the last completed row instead of from scratch. The checkpoint is bound
/// to every graph's labels and adjacency. The symmetric fill order
/// matches [`GraphKernel::gram`], and the evaluator is deterministic, so
/// the resumed matrix is bit-identical to an uninterrupted build.
///
/// Rows within a block are evaluated in parallel (`x2v-par`); the kernel
/// must therefore be `Sync`. Determinism survives: the row set of each
/// block is fixed by the checkpoint block boundaries, each row is computed
/// by a single worker in one row evaluator call, and rows are written
/// back in row order. The preparation pass runs as a fallible `x2v-par`
/// job too, so a panic anywhere in the build surfaces as a typed error.
///
/// The ambient [`x2v_guard::Budget`] is metered one work unit per Gram
/// entry at [`BUILD_SITE`] — *pre-charged row by row on the coordinator,
/// in row order, before the block is dispatched*, so a work-limit trip
/// cuts the build at the same row on every run, at every thread count and
/// for every kernel. Workers poll the budget's deadline/cancel between
/// rows ([`x2v_guard::Budget::poll`]), which costs no work units. The
/// preparation pass is not metered (it is linear in the dataset). A
/// partial Gram matrix is unusable downstream (CV folds need every
/// entry), so a budget trip surfaces as `Err` — but the completed rows
/// are checkpointed first, so the work is durable and a re-run with a
/// fresh budget resumes rather than recomputes.
///
/// # Errors
/// [`GuardError::BudgetExhausted`] / [`GuardError::Cancelled`] from the
/// ambient budget; [`GuardError::WorkerPanic`] if preparation or a
/// parallel row evaluation panics.
pub fn gram_resumable<K: GraphKernel + Sync + ?Sized>(
    kernel: &K,
    graphs: &[Graph],
    job: &str,
) -> x2v_guard::Result<Matrix> {
    let _timer = x2v_obs::span("kernel/gram_build");
    let n = graphs.len();
    let fingerprint = gram_fingerprint(graphs);
    let store = x2v_ckpt::ambient();
    let mut m = Matrix::zeros(n, n);
    let mut start_row = 0usize;

    if let Some(store) = store.as_deref() {
        if x2v_ckpt::resume_requested() {
            let loaded = store
                .load_latest(job, CKPT_KIND)
                .ok()
                .flatten()
                .and_then(|(_, payload)| decode_rows(&payload, n));
            match loaded {
                Some((ck_fingerprint, rows_done, entries))
                    if ck_fingerprint == fingerprint && rows_done <= n =>
                {
                    for i in 0..n {
                        for j in 0..n {
                            m[(i, j)] = entries[i * n + j];
                        }
                    }
                    start_row = rows_done;
                    x2v_ckpt::note_resumed();
                }
                _ => x2v_ckpt::note_cold_start(),
            }
        }
    }

    let save_rows = |store: &x2v_ckpt::Store, m: &Matrix, rows_done: usize| {
        let mut e = Enc::new();
        e.u32(fingerprint).u64(n as u64).u64(rows_done as u64);
        let entries: Vec<f64> = (0..n).flat_map(|i| m.row(i).to_vec()).collect();
        e.f64_slice(&entries);
        if let Err(err) = store.save(job, CKPT_KIND, &e.finish()) {
            x2v_obs::counter_add("ckpt/save_failed", 1);
            eprintln!("[x2v-kernel] checkpoint save failed for job {job:?}: {err}");
        }
    };

    // Preparation may fan out on x2v-par itself; as a one-item fallible
    // job, a worker panic there surfaces as `WorkerPanic`, not a re-panic.
    let row_of = x2v_par::try_map_items(1, 1, |_| Ok(kernel.rows(graphs)))?
        .pop()
        .expect("a one-item job returns one result");
    let budget = x2v_guard::ambient();
    let mut meter = budget.meter(BUILD_SITE);
    let mut block_start = start_row;
    while block_start < n {
        // Blocks end on global ROW_BLOCK multiples so checkpoint points
        // don't depend on where a resume happened to restart.
        let block_end = ((block_start / ROW_BLOCK + 1) * ROW_BLOCK).min(n);
        // Pre-charge each row's entries in row order on the coordinator:
        // a work-limit trip therefore cuts at a row index that is a pure
        // function of the budget and the input — never of the thread
        // count.
        let mut cut = block_end;
        let mut trip = None;
        for i in block_start..block_end {
            if let Err(e) = meter.tick((n - i) as u64) {
                cut = i;
                trip = Some(e);
                break;
            }
        }
        // Evaluate the charged rows in parallel; workers poll the
        // deadline/cancel between rows without touching work accounting.
        let outcome = x2v_par::try_map_items(cut - block_start, 1, |off| {
            let i = block_start + off;
            budget.poll(BUILD_SITE)?;
            let mut row = vec![0.0; n - i];
            row_of(i, &mut row);
            Ok(row)
        });
        match outcome {
            Ok(rows) => {
                for (off, row) in rows.into_iter().enumerate() {
                    let i = block_start + off;
                    for (jo, v) in row.into_iter().enumerate() {
                        let j = i + jo;
                        m[(i, j)] = v;
                        m[(j, i)] = v;
                    }
                }
            }
            Err(e) => {
                // A worker saw the cancel/deadline fire (or panicked):
                // persist the prefix completed in earlier blocks.
                if let Some(store) = store.as_deref() {
                    save_rows(store, &m, block_start);
                }
                return Err(e);
            }
        }
        if let Some(e) = trip {
            // Durable degradation: the rows completed before the trip are
            // persisted, so a re-run resumes instead of recomputing.
            if let Some(store) = store.as_deref() {
                save_rows(store, &m, cut);
            }
            return Err(e);
        }
        if block_end < n {
            if let Some(store) = store.as_deref() {
                save_rows(store, &m, block_end);
            }
        }
        block_start = block_end;
    }
    // The build is complete; its checkpoints are spent (best-effort —
    // a stale checkpoint would anyway re-verify against the fingerprint).
    if let Some(store) = store.as_deref() {
        let _ = store.clear_job(job);
    }
    Ok(m)
}

/// Decodes a `gram-rows` payload into `(fingerprint, rows_done, entries)`,
/// rejecting any shape other than exactly `n × n`.
fn decode_rows(payload: &[u8], n: usize) -> Option<(u32, usize, Vec<f64>)> {
    let mut d = Dec::new(payload);
    let fingerprint = d.u32("fingerprint").ok()?;
    let ck_n = d.u64("n").ok()?;
    let rows_done = d.u64("rows_done").ok()?;
    let entries = d.f64_vec(n * n, "entries").ok()?;
    d.finish("trailing").ok()?;
    if ck_n as usize != n || entries.len() != n * n {
        return None;
    }
    Some((fingerprint, rows_done as usize, entries))
}

/// Whether a symmetric matrix is positive semidefinite up to `tol`
/// (smallest eigenvalue ≥ −tol) — the defining property of a kernel
/// (Section 2.4).
pub fn is_psd(k: &Matrix, tol: f64) -> bool {
    if !k.is_square() {
        return false;
    }
    sym_eigenvalues(k)
        .last()
        .copied()
        .is_none_or(|min| min >= -tol)
}

/// Cosine-normalises a Gram matrix: `K'_ij = K_ij / √(K_ii K_jj)`.
/// Rows/columns with zero self-similarity are left at zero.
///
/// # Panics
/// On non-finite entries or a negative diagonal — see [`try_normalize`]
/// for the typed-error variant.
pub fn normalize(k: &Matrix) -> Matrix {
    try_normalize(k).unwrap_or_else(|e| panic!("{e}"))
}

/// [`normalize`] with numeric failures surfaced as typed errors.
///
/// # Errors
/// [`GuardError::NumericFailure`] when a diagonal entry is negative or
/// non-finite (its square root would silently poison the whole row with
/// NaN) or when any normalised entry comes out non-finite.
pub fn try_normalize(k: &Matrix) -> x2v_guard::Result<Matrix> {
    let _timer = x2v_obs::span("kernel/normalize");
    let n = k.rows();
    for i in 0..n {
        let d = x2v_guard::faults::poison_f64(SITE, k[(i, i)]);
        if !d.is_finite() || d < 0.0 {
            return Err(GuardError::numeric(
                SITE,
                format!("diagonal entry K[{i},{i}] = {d} is not a valid self-similarity"),
            ));
        }
    }
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let d = (k[(i, i)] * k[(j, j)]).sqrt();
            if d > 0.0 {
                let v = k[(i, j)] / d;
                if !v.is_finite() {
                    return Err(GuardError::numeric(
                        SITE,
                        format!("normalised entry K'[{i},{j}] = {v} is non-finite"),
                    ));
                }
                out[(i, j)] = v;
            }
        }
    }
    Ok(out)
}

/// Centres a Gram matrix in feature space:
/// `K' = (I − 1/n) K (I − 1/n)` — required before kernel PCA.
///
/// # Panics
/// On non-finite entries — see [`try_center`] for the typed-error variant.
pub fn center(k: &Matrix) -> Matrix {
    try_center(k).unwrap_or_else(|e| panic!("{e}"))
}

/// [`center`] with numeric failures surfaced as typed errors.
///
/// # Errors
/// [`GuardError::NumericFailure`] when a row mean is non-finite (one NaN
/// or ±∞ entry would otherwise contaminate the entire centred matrix).
pub fn try_center(k: &Matrix) -> x2v_guard::Result<Matrix> {
    let _timer = x2v_obs::span("kernel/center");
    let n = k.rows();
    let nf = n as f64;
    let row_means: Vec<f64> = (0..n).map(|i| k.row(i).iter().sum::<f64>() / nf).collect();
    for (i, &m) in row_means.iter().enumerate() {
        let m = x2v_guard::faults::poison_f64(SITE, m);
        if !m.is_finite() {
            return Err(GuardError::numeric(
                SITE,
                format!("row {i} mean is non-finite; the Gram matrix contains NaN or ±∞"),
            ));
        }
    }
    let total_mean: f64 = row_means.iter().sum::<f64>() / nf;
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            out[(i, j)] = k[(i, j)] - row_means[i] - row_means[j] + total_mean;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psd_checks() {
        assert!(is_psd(&Matrix::identity(3), 1e-12));
        let nsd = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(!is_psd(&nsd, 1e-12)); // eigenvalues ±1
        assert!(!is_psd(&Matrix::zeros(2, 3), 1e-12));
    }

    #[test]
    fn normalize_unit_diagonal() {
        let k = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 9.0]]);
        let n = normalize(&k);
        assert!((n[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((n[(1, 1)] - 1.0).abs() < 1e-12);
        assert!((n[(0, 1)] - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn centering_zeroes_feature_mean() {
        let k = Matrix::from_rows(&[&[2.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 1.0]]);
        let c = center(&k);
        // Row sums of a centred Gram matrix vanish.
        for i in 0..3 {
            let s: f64 = c.row(i).iter().sum();
            assert!(s.abs() < 1e-9, "row {i} sum {s}");
        }
        // Centering is idempotent.
        assert!(center(&c).approx_eq(&c, 1e-9));
    }

    #[test]
    fn normalize_rejects_negative_diagonal() {
        let k = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, 1.0]]);
        let err = try_normalize(&k).unwrap_err();
        assert!(
            matches!(err, x2v_guard::GuardError::NumericFailure { .. }),
            "{err}"
        );
    }

    #[test]
    fn normalize_rejects_nan_diagonal() {
        let k = Matrix::from_rows(&[&[f64::NAN, 0.0], &[0.0, 1.0]]);
        assert!(try_normalize(&k).is_err());
    }

    #[test]
    fn center_rejects_infinite_entry() {
        let k = Matrix::from_rows(&[&[1.0, f64::INFINITY], &[f64::INFINITY, 1.0]]);
        let err = try_center(&k).unwrap_err();
        assert!(
            matches!(err, x2v_guard::GuardError::NumericFailure { .. }),
            "{err}"
        );
    }

    #[test]
    fn try_variants_match_infallible_on_clean_input() {
        let k = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 9.0]]);
        assert!(try_normalize(&k).unwrap().approx_eq(&normalize(&k), 0.0));
        assert!(try_center(&k).unwrap().approx_eq(&center(&k), 0.0));
    }

    /// Order/size product — deterministic and cheap, enough to check the
    /// fill order of the resumable builder against the trait default.
    struct ToyKernel;
    impl GraphKernel for ToyKernel {
        fn eval(&self, g: &Graph, h: &Graph) -> f64 {
            (g.order() * h.order()) as f64 + 0.25 * (g.size() * h.size()) as f64
        }
    }

    #[test]
    fn gram_resumable_without_store_matches_default_gram() {
        let graphs: Vec<Graph> = (3..9).map(x2v_graph::generators::cycle).collect();
        let expected = ToyKernel.gram(&graphs);
        let got = gram_resumable(&ToyKernel, &graphs, "test-gram").unwrap();
        assert!(got.approx_eq(&expected, 0.0), "fill order must match");
    }

    #[test]
    fn gram_resumable_bit_equals_pairwise_eval() {
        use crate::wl::WlSubtreeKernel;
        use x2v_graph::generators::{cycle, path, petersen, star};
        let graphs = vec![
            cycle(5),
            path(7),
            star(4),
            petersen(),
            x2v_graph::ops::disjoint_union(&cycle(3), &path(4)),
        ];
        for kernel in [WlSubtreeKernel::new(3), WlSubtreeKernel::discounted(4)] {
            let feat = gram_resumable(&kernel, &graphs, "test-gram-feat").unwrap();
            let pairwise =
                gram_resumable(&PairwiseEval(&kernel), &graphs, "test-gram-pairwise").unwrap();
            assert_eq!(feat.as_slice().len(), pairwise.as_slice().len());
            for (a, b) in feat.as_slice().iter().zip(pairwise.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
