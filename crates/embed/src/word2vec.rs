//! Skip-gram with negative sampling — word2vec (Mikolov et al., [74]).
//!
//! Sentences are sequences of token ids in `0..vocab`. For each
//! (centre, context) pair within the window the model maximises
//! `log σ(w·c) + Σ_neg log σ(−w·c_neg)` by SGD; negatives are drawn from
//! the unigram distribution raised to `3/4` via an alias table.
//!
//! One SGD step per pair is one pass per target (`sgns_step`): the
//! negatives are drawn first, the `1 + negative` dots are taken as
//! interleaved independent accumulators, and each target then makes one
//! fused sweep `grad += g·out; out += g·in` before the step ends with
//! `in += grad`. Every result has the bits of the sequential per-target
//! loop (kept as the test oracle), at every thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_ckpt::codec::{Dec, Enc};
use x2v_ckpt::crc32::Crc32;
use x2v_linalg::sampling::AliasTable;
use x2v_linalg::vector::sigmoid;

/// SGNS hyperparameters.
#[derive(Clone, Debug)]
pub struct SgnsConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Window radius (context = up to `window` tokens each side).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed to 1e-4 of itself).
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 32,
            window: 4,
            negative: 5,
            epochs: 5,
            learning_rate: 0.025,
            seed: 0x2fec,
        }
    }
}

/// Trained SGNS model: input ("word") and output ("context") vectors.
pub struct Word2Vec {
    /// Input vectors, `vocab × dim` row-major.
    input: Vec<f64>,
    /// Output vectors, `vocab × dim` row-major.
    output: Vec<f64>,
    dim: usize,
    vocab: usize,
}

/// The guarded-site name for SGNS training.
pub const SITE: &str = "embed/word2vec";

/// The checkpoint frame kind for SGNS epoch state.
pub const CKPT_KIND: &str = "sgns-epoch";

/// Sentences per shard before the chunk plan's 64-chunk ceiling kicks in.
/// Part of the determinism contract: changing it re-keys every shard's RNG
/// stream and snapshot boundary, shifting all trained models.
const SENTENCE_GRAIN: usize = 32;

/// Epoch-granular SGNS training state, exactly what must survive a crash
/// for the resumed run to be bit-identical to an uninterrupted one: both
/// embedding matrices, the SGD step counter (which drives learning-rate
/// decay) and the full RNG stream state.
struct EpochCkpt {
    fingerprint: u32,
    epochs_done: u64,
    step: u64,
    rng: [u64; 4],
    input: Vec<f64>,
    output: Vec<f64>,
}

impl EpochCkpt {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.fingerprint).u64(self.epochs_done).u64(self.step);
        for s in self.rng {
            e.u64(s);
        }
        e.f64_slice(&self.input).f64_slice(&self.output);
        e.finish()
    }

    fn decode(payload: &[u8], matrix_len: usize) -> Option<Self> {
        let mut d = Dec::new(payload);
        let ck = EpochCkpt {
            fingerprint: d.u32("fingerprint").ok()?,
            epochs_done: d.u64("epochs_done").ok()?,
            step: d.u64("step").ok()?,
            rng: [
                d.u64("rng0").ok()?,
                d.u64("rng1").ok()?,
                d.u64("rng2").ok()?,
                d.u64("rng3").ok()?,
            ],
            input: d.f64_vec(matrix_len, "input").ok()?,
            output: d.f64_vec(matrix_len, "output").ok()?,
        };
        d.finish("trailing").ok()?;
        Some(ck)
    }
}

/// Fingerprints the training configuration and corpus shape; a checkpoint
/// whose fingerprint differs is stale (different hyperparameters or data)
/// and triggers a cold start instead of a silently-wrong resume.
fn config_fingerprint(
    config: &SgnsConfig,
    vocab: usize,
    sentences: usize,
    total_tokens: usize,
) -> u32 {
    let mut c = Crc32::new();
    c.update(CKPT_KIND.as_bytes());
    c.update_u64(config.dim as u64);
    c.update_u64(config.window as u64);
    c.update_u64(config.negative as u64);
    c.update_u64(config.epochs as u64);
    c.update_u64(config.learning_rate.to_bits());
    c.update_u64(config.seed);
    c.update_u64(vocab as u64);
    c.update_u64(sentences as u64);
    c.update_u64(total_tokens as u64);
    c.finish()
}

/// Sequential in-order dot product. Its summation order (from `-0.0`, in
/// index order) is part of the fixed-seed model-bit contract (resume
/// goldens, downstream embedding-quality seeds): [`target_dots`] keeps it
/// per accumulator, and a lane-chunked reduction, which reorders the
/// additions, must not replace it.
#[inline]
fn dot_seq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One output row an SGNS step trains the centre row against.
#[derive(Clone, Copy, Debug)]
struct Target {
    /// Offset `token · dim` of the row in the output matrix.
    row: usize,
    /// `in_row · out[row]` at the start of the step.
    dot: f64,
    /// An earlier target of the same step has this row, so its dot must
    /// be taken after that target's update.
    repeat: bool,
}

/// Fills `targets` for one (centre, context) pair: the context first
/// (label 1), then each drawn negative (label 0) in draw order. A negative
/// equal to the context is skipped, not redrawn.
fn push_targets(
    targets: &mut Vec<Target>,
    dim: usize,
    context: usize,
    negatives: impl Iterator<Item = usize>,
) {
    targets.clear();
    targets.push(Target {
        row: context * dim,
        dot: 0.0,
        repeat: false,
    });
    for neg in negatives {
        if neg == context {
            continue;
        }
        let row = neg * dim;
        let repeat = targets.iter().any(|t| t.row == row);
        targets.push(Target {
            row,
            dot: 0.0,
            repeat,
        });
    }
}

/// Dots of `x` with `N` rows as `N` interleaved accumulators. Each one
/// sums in [`dot_seq`]'s order, so each result has its bits; the chains
/// are independent, so they overlap instead of waiting on each other.
#[inline]
fn dots<const N: usize>(x: &[f64], rows: [&[f64]; N]) -> [f64; N] {
    let rows = rows.map(|r| &r[..x.len()]);
    let mut acc = [-0.0f64; N];
    for (d, &xd) in x.iter().enumerate() {
        for j in 0..N {
            acc[j] += xd * rows[j][d];
        }
    }
    acc
}

/// Sets every target's `dot` to `x · out[row]`, four rows at a time.
/// A repeated row's dot is taken too, and [`sgns_step`] retakes it.
fn target_dots(x: &[f64], out: &[f64], targets: &mut [Target]) {
    let dim = x.len();
    let row = |t: &Target| &out[t.row..t.row + dim];
    for group in targets.chunks_mut(4) {
        match group {
            [a, b, c, d] => {
                let [da, db, dc, dd] = dots(x, [row(a), row(b), row(c), row(d)]);
                (a.dot, b.dot, c.dot, d.dot) = (da, db, dc, dd);
            }
            [a, b, c] => [a.dot, b.dot, c.dot] = dots(x, [row(a), row(b), row(c)]),
            [a, b] => [a.dot, b.dot] = dots(x, [row(a), row(b)]),
            [a] => [a.dot] = dots(x, [row(a)]),
            _ => unreachable!("chunks of at most four"),
        }
    }
}

/// One SGD step of the centre row `in_row` against `targets`: the context
/// (`targets[0]`, label 1) and its negatives (label 0).
///
/// All dots are taken first, interleaved ([`target_dots`]); the input row
/// does not change until the end of the step, and each output row changes
/// only at its own update, so these equal the dots a per-target loop takes,
/// except for a repeated row, whose dot is retaken after the earlier
/// update. Then each target makes one pass `grad += g·out; out += g·in`
/// against the pre-update output element, and the step ends with
/// `in += grad`. Every trained bit equals the per-target loop's.
fn sgns_step(
    in_row: &mut [f64],
    out: &mut [f64],
    targets: &mut [Target],
    lr: f64,
    grad: &mut [f64],
) {
    let dim = in_row.len();
    target_dots(in_row, out, targets);
    grad.fill(0.0);
    for (j, t) in targets.iter().enumerate() {
        let out_row = &mut out[t.row..t.row + dim];
        let dot = if t.repeat {
            dot_seq(in_row, out_row)
        } else {
            t.dot
        };
        let g = if j == 0 {
            (1.0 - sigmoid(dot)) * lr
        } else {
            -sigmoid(dot) * lr
        };
        for ((gd, od), &xd) in grad.iter_mut().zip(out_row.iter_mut()).zip(in_row.iter()) {
            *gd += g * *od;
            *od += g * xd;
        }
    }
    for (xd, gd) in in_row.iter_mut().zip(grad.iter()) {
        *xd += gd;
    }
}

impl Word2Vec {
    /// Trains on a corpus of token-id sentences over `vocab` tokens.
    ///
    /// SGD is an anytime algorithm, so the ambient [`x2v_guard::Budget`]
    /// degrades gracefully here instead of failing: the epoch loop checks
    /// the budget cooperatively between epochs and, on a trip, returns the
    /// vectors trained so far (recording `guard/degraded` and stopping
    /// early) rather than panicking.
    ///
    /// # Panics
    /// If any token id is `≥ vocab` or the corpus is empty.
    pub fn train(corpus: &[Vec<usize>], vocab: usize, config: &SgnsConfig) -> Self {
        Self::train_job(corpus, vocab, config, "word2vec")
    }

    /// [`train`](Self::train) under an explicit checkpoint job name.
    ///
    /// When an ambient [`x2v_ckpt::Store`] is installed, the full training
    /// state (both matrices, the SGD step counter and the RNG stream state)
    /// is checkpointed under `job` after every epoch, so a crashed or
    /// budget-tripped run resumes — with [`x2v_ckpt::set_resume`] in effect
    /// — to the *bit-identical* final model an uninterrupted run produces.
    /// A checkpoint whose configuration fingerprint, matrix shape or epoch
    /// count does not match is ignored (`ckpt/fallback_cold_start`); a save
    /// failure is a logged, counted degradation (`ckpt/save_failed`), never
    /// a training failure.
    pub fn train_job(corpus: &[Vec<usize>], vocab: usize, config: &SgnsConfig, job: &str) -> Self {
        let _timer = x2v_obs::span("embed/word2vec_train");
        assert!(!corpus.is_empty(), "empty corpus");
        let mut counts = vec![0f64; vocab];
        let mut total_tokens = 0usize;
        for sentence in corpus {
            for &t in sentence {
                assert!(t < vocab, "token {t} out of vocabulary {vocab}");
                counts[t] += 1.0;
                total_tokens += 1;
            }
        }
        let weights: Vec<f64> = counts.iter().map(|&c| c.powf(0.75)).collect();
        let negatives = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let dim = config.dim;
        let scale = 0.5 / dim as f64;
        let mut input: Vec<f64> = (0..vocab * dim)
            .map(|_| (rng.random::<f64>() - 0.5) * 2.0 * scale)
            .collect();
        let mut output = vec![0.0f64; vocab * dim];
        let total_steps = (config.epochs * total_tokens).max(1);
        let mut step = 0usize;
        // Negative-sample draws accumulate locally; the registry lock is
        // taken once at the end, not inside the SGD loop.
        let mut neg_draws = 0u64;
        // Token-prefix sums per sentence: chunk `[a, b)` of sentences starts
        // at global SGD step `step + prefix[a]`, so learning-rate decay is a
        // pure function of the token's corpus position at any thread count.
        let mut prefix = Vec::with_capacity(corpus.len() + 1);
        prefix.push(0usize);
        for sentence in corpus {
            prefix.push(prefix.last().expect("non-empty prefix") + sentence.len());
        }

        // Checkpoint/resume: with an ambient store installed and `--resume`
        // in effect, restore the newest valid epoch checkpoint for this job
        // and continue from there; the RNG stream state travels with the
        // matrices, so the resumed run replays the exact token/negative
        // sequence the uninterrupted run would have seen.
        let fingerprint = config_fingerprint(config, vocab, corpus.len(), total_tokens);
        let store = x2v_ckpt::ambient();
        let mut start_epoch = 0usize;
        if let Some(store) = store.as_deref() {
            if x2v_ckpt::resume_requested() {
                let loaded = store
                    .load_latest(job, CKPT_KIND)
                    .ok()
                    .flatten()
                    .and_then(|(_, payload)| EpochCkpt::decode(&payload, vocab * dim))
                    .filter(|ck| {
                        ck.fingerprint == fingerprint
                            && ck.input.len() == vocab * dim
                            && ck.output.len() == vocab * dim
                            && ck.epochs_done as usize <= config.epochs
                            && ck.rng != [0, 0, 0, 0]
                    });
                match loaded {
                    Some(ck) => {
                        start_epoch = ck.epochs_done as usize;
                        step = ck.step as usize;
                        rng = StdRng::from_state(ck.rng);
                        input = ck.input;
                        output = ck.output;
                        x2v_ckpt::note_resumed();
                    }
                    None => x2v_ckpt::note_cold_start(),
                }
            }
        }
        let save_epoch_ckpt = |store: &x2v_ckpt::Store,
                               epochs_done: usize,
                               step: usize,
                               rng: &StdRng,
                               input: &[f64],
                               output: &[f64]| {
            let ck = EpochCkpt {
                fingerprint,
                epochs_done: epochs_done as u64,
                step: step as u64,
                rng: rng.state(),
                input: input.to_vec(),
                output: output.to_vec(),
            };
            if let Err(e) = store.save(job, CKPT_KIND, &ck.encode()) {
                x2v_obs::counter_add("ckpt/save_failed", 1);
                eprintln!("[x2v-embed] checkpoint save failed for job {job:?}: {e}");
            }
        };

        let budget = x2v_guard::ambient();
        let mut meter = budget.meter(SITE);
        for epoch in start_epoch..config.epochs {
            // Cooperative budget check between epochs (one work unit per
            // token trained): a trip stops early with the vectors learnt
            // so far — a usable partial embedding — instead of panicking.
            if meter
                .tick(total_tokens as u64)
                .and_then(|()| meter.checkpoint())
                .is_err()
            {
                x2v_guard::note_degraded();
                x2v_obs::counter_add("embed/epochs_skipped", (config.epochs - epoch) as u64);
                break;
            }
            x2v_obs::progress(
                "embed/word2vec_epochs",
                (epoch + 1) as u64,
                config.epochs as u64,
            );
            // Deterministic sharded epoch. The sentence range is cut by a
            // ChunkPlan keyed only by corpus size; each chunk trains a
            // private copy of both matrices from the epoch-start snapshot
            // using its own split RNG stream, and returns the resulting
            // parameter *delta*. Deltas are applied in chunk order, so the
            // epoch result is a pure function of (snapshot, corpus, seed) —
            // bit-identical at every `X2V_THREADS`, including 1. The master
            // RNG long-jumps once per epoch (2^192 states), leaving the
            // per-chunk jump streams (2^128 apart) collision-free, and its
            // state at each epoch boundary remains the single value the
            // checkpoint has to carry.
            let epoch_base = rng.clone();
            rng.long_jump();
            let plan = x2v_par::ChunkPlan::new(corpus.len(), SENTENCE_GRAIN);
            let shards = x2v_par::map_chunks(&plan, |chunk, range| {
                let mut rng = epoch_base.split_stream(chunk as u64);
                let mut local_in = input.clone();
                let mut local_out = output.clone();
                let mut grad = vec![0.0f64; dim];
                let mut targets = Vec::with_capacity(config.negative + 1);
                let mut draws = 0u64;
                let mut step = step + prefix[range.start];
                for sentence in &corpus[range] {
                    for (pos, &centre) in sentence.iter().enumerate() {
                        let lr = config.learning_rate
                            * (1.0 - step as f64 / total_steps as f64).max(1e-4);
                        step += 1;
                        // Randomised effective window like the reference
                        // implementation.
                        let b = rng.random_range(0..config.window.max(1));
                        let lo = pos.saturating_sub(config.window - b);
                        let hi = (pos + config.window - b + 1).min(sentence.len());
                        for ctx_pos in lo..hi {
                            if ctx_pos == pos {
                                continue;
                            }
                            let context = sentence[ctx_pos];
                            // The draws do not depend on the vectors, so
                            // drawing them all before the step consumes the
                            // RNG stream exactly as a per-target loop does.
                            let drawn = (0..config.negative).map(|_| negatives.sample(&mut rng));
                            push_targets(&mut targets, dim, context, drawn);
                            draws += config.negative as u64;
                            let wrow = centre * dim;
                            sgns_step(
                                &mut local_in[wrow..wrow + dim],
                                &mut local_out,
                                &mut targets,
                                lr,
                                &mut grad,
                            );
                        }
                    }
                }
                // Reduce each matrix to its delta against the snapshot.
                for (l, &s) in local_in.iter_mut().zip(input.iter()) {
                    *l -= s;
                }
                for (l, &s) in local_out.iter_mut().zip(output.iter()) {
                    *l -= s;
                }
                (local_in, local_out, draws)
            });
            for (delta_in, delta_out, draws) in shards {
                for (x, d) in input.iter_mut().zip(&delta_in) {
                    *x += d;
                }
                for (x, d) in output.iter_mut().zip(&delta_out) {
                    *x += d;
                }
                neg_draws += draws;
            }
            step += total_tokens;
            // Epoch boundary: persist the full training state. A budget
            // trip at the top of the next epoch then leaves this epoch's
            // work durable instead of discarding it.
            if let Some(store) = store.as_deref() {
                save_epoch_ckpt(store, epoch + 1, step, &rng, &input, &output);
            }
        }
        x2v_obs::counter_add("embed/negative_samples", neg_draws);
        Word2Vec {
            input,
            output,
            dim,
            vocab,
        }
    }

    /// The input vector of a token.
    pub fn vector(&self, token: usize) -> &[f64] {
        &self.input[token * self.dim..(token + 1) * self.dim]
    }

    /// The output ("context") vector of a token — occasionally useful for
    /// asymmetric similarity (the paper notes random-walk similarity is not
    /// symmetric; input·output products expose that asymmetry).
    pub fn context_vector(&self, token: usize) -> &[f64] {
        &self.output[token * self.dim..(token + 1) * self.dim]
    }

    /// All input vectors as rows.
    pub fn vectors(&self) -> Vec<Vec<f64>> {
        (0..self.vocab).map(|t| self.vector(t).to_vec()).collect()
    }

    /// Embedding dimension.
    pub fn dimension(&self) -> usize {
        self.dim
    }

    /// Cosine similarity of two tokens.
    pub fn similarity(&self, a: usize, b: usize) -> f64 {
        x2v_linalg::vector::cosine(self.vector(a), self.vector(b))
    }

    /// Analogy query "a is to b as c is to ?": the token whose vector is
    /// most cosine-similar to `b − a + c` (excluding a, b, c) — the
    /// vector-arithmetic regularity the paper's introduction describes with
    /// Paris − France ≈ Santiago − Chile.
    pub fn analogy(&self, a: usize, b: usize, c: usize) -> usize {
        let target: Vec<f64> = (0..self.dim)
            .map(|d| self.vector(b)[d] - self.vector(a)[d] + self.vector(c)[d])
            .collect();
        (0..self.vocab)
            .filter(|&t| t != a && t != b && t != c)
            .max_by(|&x, &y| {
                let sx = x2v_linalg::vector::cosine(self.vector(x), &target);
                let sy = x2v_linalg::vector::cosine(self.vector(y), &target);
                sx.partial_cmp(&sy).expect("finite similarity")
            })
            .expect("vocabulary larger than 3")
    }

    /// The `k` most similar tokens to `token` (excluding itself).
    pub fn most_similar(&self, token: usize, k: usize) -> Vec<(usize, f64)> {
        let mut sims: Vec<(usize, f64)> = (0..self.vocab)
            .filter(|&t| t != token)
            .map(|t| (t, self.similarity(token, t)))
            .collect();
        sims.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite similarities"));
        sims.truncate(k);
        sims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Synthetic corpus: tokens 0..5 co-occur, tokens 5..10 co-occur.
    fn two_topic_corpus(seed: u64, sentences: usize) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..sentences)
            .map(|i| {
                let base: usize = if i % 2 == 0 { 0 } else { 5 };
                (0..12)
                    .map(|_| base + rng.random_range(0..5usize))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn topic_clusters_separate() {
        let corpus = two_topic_corpus(1, 300);
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 4,
            ..Default::default()
        };
        let model = Word2Vec::train(&corpus, 10, &cfg);
        // Average intra-topic similarity must beat inter-topic similarity.
        let mut intra = 0.0;
        let mut inter = 0.0;
        let mut n_intra = 0;
        let mut n_inter = 0;
        for a in 0..10 {
            for b in (a + 1)..10 {
                let s = model.similarity(a, b);
                if (a < 5) == (b < 5) {
                    intra += s;
                    n_intra += 1;
                } else {
                    inter += s;
                    n_inter += 1;
                }
            }
        }
        let intra = intra / n_intra as f64;
        let inter = inter / n_inter as f64;
        assert!(
            intra > inter + 0.3,
            "intra {intra:.3} should clearly exceed inter {inter:.3}"
        );
    }

    #[test]
    fn most_similar_prefers_same_topic() {
        let corpus = two_topic_corpus(2, 300);
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 4,
            ..Default::default()
        };
        let model = Word2Vec::train(&corpus, 10, &cfg);
        let top: Vec<usize> = model
            .most_similar(0, 4)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        let same_topic = top.iter().filter(|&&t| t < 5).count();
        assert!(same_topic >= 3, "top-4 of token 0: {top:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = two_topic_corpus(3, 50);
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 2,
            ..Default::default()
        };
        let a = Word2Vec::train(&corpus, 10, &cfg);
        let b = Word2Vec::train(&corpus, 10, &cfg);
        assert_eq!(a.vector(3), b.vector(3));
    }

    #[test]
    fn analogy_stays_in_topic() {
        // With clean two-topic structure, "t0 : t1 :: t5 : ?" should answer
        // within topic B (tokens 5..10): the offset t1 − t0 is tiny
        // compared with the between-topic displacement.
        let corpus = two_topic_corpus(8, 400);
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 4,
            ..Default::default()
        };
        let model = Word2Vec::train(&corpus, 10, &cfg);
        let answer = model.analogy(0, 1, 5);
        assert!((5..10).contains(&answer), "answer {answer} left the topic");
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_token_rejected() {
        let _ = Word2Vec::train(&[vec![0, 99]], 10, &SgnsConfig::default());
    }

    /// The SGNS step as a sequential per-target loop, the oracle for
    /// `sgns_step`: for the context, then each drawn negative that is not
    /// the context, a sequential dot against the current output row,
    /// `grad += g·out` against the pre-update row, then `out += g·in`; the
    /// step ends with `in += 1·grad`.
    fn step_reference(
        in_row: &mut [f64],
        out: &mut [f64],
        context: usize,
        draws: &[usize],
        lr: f64,
        grad: &mut [f64],
    ) {
        fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
            }
        }
        let dim = in_row.len();
        grad.iter_mut().for_each(|g| *g = 0.0);
        let rows = std::iter::once((context, true))
            .chain(draws.iter().filter(|&&n| n != context).map(|&n| (n, false)));
        for (token, positive) in rows {
            let crow = token * dim;
            let dot = dot_seq(in_row, &out[crow..crow + dim]);
            let g = if positive {
                (1.0 - sigmoid(dot)) * lr
            } else {
                -sigmoid(dot) * lr
            };
            axpy(g, &out[crow..crow + dim], grad);
            axpy(g, in_row, &mut out[crow..crow + dim]);
        }
        axpy(1.0, grad, in_row);
    }

    fn assert_bits(what: &str, seed: u64, a: &[f64], b: &[f64]) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what} differs (case seed {seed})");
    }

    /// Seeded battery: on random rows and draw lists, `push_targets` +
    /// `sgns_step` leave `grad`, the whole output matrix and the input row
    /// bit-identical to the per-target loop. Vocabularies of 2–6 tokens
    /// make duplicate negatives and negatives equal to the context common;
    /// both are counted so the battery provably exercises them.
    #[test]
    fn step_matches_per_target_loop() {
        const BASE_SEED: u64 = 0x5_6e5;
        println!("sgns step battery base seed: {BASE_SEED}");
        let (mut with_repeat, mut with_context_draw) = (0, 0);
        let mut case = 0u64;
        for dim in [1usize, 7, 32, 33] {
            for negative in [0usize, 1, 5, 9] {
                for _ in 0..40 {
                    let seed = BASE_SEED + case;
                    case += 1;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let vocab = rng.random_range(2..7usize);
                    let context = rng.random_range(0..vocab);
                    let draws: Vec<usize> =
                        (0..negative).map(|_| rng.random_range(0..vocab)).collect();
                    let lr = rng.random_range(0.01..0.5);
                    let mut unit = || rng.random_range(-1.0..1.0);
                    let in0: Vec<f64> = (0..dim).map(|_| unit()).collect();
                    let out0: Vec<f64> = (0..vocab * dim).map(|_| unit()).collect();

                    let mut targets = Vec::new();
                    push_targets(&mut targets, dim, context, draws.iter().copied());
                    with_repeat += usize::from(targets.iter().any(|t| t.repeat));
                    with_context_draw += usize::from(draws.contains(&context));
                    let (mut in_new, mut out_new) = (in0.clone(), out0.clone());
                    let mut grad_new = vec![f64::NAN; dim];
                    sgns_step(&mut in_new, &mut out_new, &mut targets, lr, &mut grad_new);

                    let (mut in_ref, mut out_ref) = (in0, out0);
                    let mut grad_ref = vec![f64::NAN; dim];
                    step_reference(
                        &mut in_ref,
                        &mut out_ref,
                        context,
                        &draws,
                        lr,
                        &mut grad_ref,
                    );

                    assert_bits("grad", seed, &grad_new, &grad_ref);
                    assert_bits("output matrix", seed, &out_new, &out_ref);
                    assert_bits("input row", seed, &in_new, &in_ref);
                }
            }
        }
        assert!(with_repeat > 50, "{with_repeat} cases repeat a row");
        assert!(
            with_context_draw > 50,
            "{with_context_draw} cases draw the context"
        );
    }
}
