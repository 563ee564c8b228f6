//! # x2v-par — deterministic std-only parallelism for the quadratic hot paths
//!
//! Every hot path the reproduction hinges on — WL colour refinement,
//! Gram-matrix assembly, hom counting over pattern families, walk
//! generation, SGNS epochs — is embarrassingly parallel over
//! rows/nodes/patterns. This crate parallelises them **without giving up
//! bit-determinism**: the same inputs produce bit-identical outputs for
//! any `X2V_THREADS` value, including 1.
//!
//! ## The determinism contract
//!
//! 1. **Chunk decomposition is keyed by input size, never by thread
//!    count.** [`ChunkPlan::new`] splits `total` items into a fixed
//!    sequence of contiguous ranges that depends only on `total` and the
//!    call site's `grain`; threads merely race to *execute* a fixed plan.
//! 2. **Randomised chunks draw from split RNG streams**, derived with the
//!    vendored xoshiro `jump()` (`StdRng::split_stream`) from a single
//!    base state — substream `c` is a pure function of (base, `c`).
//! 3. **Reduction is ordered**: [`map_chunks`] returns chunk results in
//!    chunk-index order, so any fold over them is order-stable.
//! 4. **Budget work accounting stays on the coordinator.** Parallel call
//!    sites pre-charge their [`x2v_guard::Meter`] chunk-by-chunk in chunk
//!    order *before* dispatching, so a work-limit trip cuts the plan at
//!    the same chunk index on every run; workers only poll the
//!    (timing-dependent anyway) deadline/cancel via [`x2v_guard::Budget::poll`],
//!    which never touches fault-injection call counts.
//!
//! ## Execution model
//!
//! A process-global pool per thread count (`X2V_THREADS`, overridable in
//! process via [`with_threads`]) executes plans over per-worker lanes
//! (chunk `i` homes on lane `i mod k`) with lock-free stealing between
//! lanes. A chunk that panics is contained with `catch_unwind`: the job
//! aborts, remaining chunks are skipped, and the panic surfaces either
//! re-thrown ([`map_chunks`]) or as the typed
//! [`GuardError::WorkerPanic`] ([`try_map_items`]) — the pool itself is
//! never poisoned. The armed fault `X2V_FAULTS=panic@par/worker`
//! (`x2v_guard::faults::panic_fault`) panics a worker deliberately so this
//! containment path is itself under test.
//!
//! Observability: every executed chunk counts into `par/tasks` (and
//! `par/steals` when it ran off its home lane), pool spawns count into
//! `par/threads`, and each chunk runs under a `par/chunk` span — so
//! `x2v-prof`'s Chrome trace shows one lane per worker thread.
//!
//! Nested parallel calls from inside a worker run inline on that worker
//! (same plan, same order — same bits), so call sites never deadlock by
//! composition.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use x2v_guard::GuardError;

/// The guarded site name of the worker loop: panic faults armed at this
/// site (`X2V_FAULTS=panic@par/worker`) panic a worker mid-job, and
/// [`GuardError::WorkerPanic`] reports it.
pub const WORKER_SITE: &str = "par/worker";

/// Hard cap on chunks per plan: enough to keep 64 workers busy, small
/// enough that per-chunk bookkeeping (ordered reduction, pre-charging)
/// stays negligible.
const MAX_CHUNKS: usize = 64;

// ---------------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------------

thread_local! {
    /// In-process override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while the current thread is a pool worker executing a chunk;
    /// nested parallel calls then run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("X2V_THREADS").ok()?;
        match raw.trim().parse::<usize>() {
            Ok(0) | Err(_) => {
                eprintln!("[x2v-par] ignoring invalid X2V_THREADS={raw:?}");
                None
            }
            Ok(n) => Some(n.min(512)),
        }
    })
}

/// The worker-thread count parallel call sites will use: the innermost
/// [`with_threads`] override, else `X2V_THREADS`, else the machine's
/// available parallelism. Inside a pool worker this is 1 (nested calls run
/// inline). **Never keys any chunk decomposition** — it only sizes the
/// pool that executes a plan.
pub fn threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    if let Some(n) = OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    env_threads().unwrap_or_else(|| {
        // Cached: `available_parallelism` re-reads the cgroup cpu quota on
        // every call on Linux, which is far too slow for a per-call-site
        // resolution (hot paths resolve it once per WL round).
        static AVAIL: OnceLock<usize> = OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Runs `f` with [`threads`] forced to `n` on the current thread — the
/// in-process equivalent of setting `X2V_THREADS`, used by the
/// determinism battery to compare thread counts without re-executing the
/// test binary. Restores the previous override on exit, including on
/// panic.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(n.max(1)))));
    f()
}

// ---------------------------------------------------------------------------
// Chunk plans
// ---------------------------------------------------------------------------

/// A fixed decomposition of `0..total` into contiguous chunks.
///
/// The decomposition depends only on `total` and `grain` — never on the
/// thread count — which is the root of the crate's determinism contract:
/// every reduction, every RNG substream and every budget pre-charge is
/// keyed by the chunk index of this plan.
#[derive(Clone, Debug)]
pub struct ChunkPlan {
    total: usize,
    n_chunks: usize,
}

impl ChunkPlan {
    /// Splits `total` items into balanced chunks of at least `grain` items
    /// each (except that a non-empty input always yields at least one
    /// chunk), capped at 64 chunks.
    pub fn new(total: usize, grain: usize) -> Self {
        let grain = grain.max(1);
        let n_chunks = if total == 0 {
            0
        } else {
            (total / grain).clamp(1, MAX_CHUNKS)
        };
        ChunkPlan { total, n_chunks }
    }

    /// Number of chunks in the plan.
    pub fn n_chunks(&self) -> usize {
        self.n_chunks
    }

    /// Total number of items covered.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The half-open item range of chunk `idx`. Chunks partition
    /// `0..total` in order; sizes differ by at most one item.
    pub fn range(&self, idx: usize) -> Range<usize> {
        debug_assert!(idx < self.n_chunks);
        let base = self.total / self.n_chunks;
        let rem = self.total % self.n_chunks;
        let start = idx * base + idx.min(rem);
        let len = base + usize::from(idx < rem);
        start..start + len
    }
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

/// How one chunk (or the whole job) failed.
enum Failure {
    Guard(GuardError),
    Panic(String),
}

fn render_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One result slot, written at most once by whichever worker claims the
/// chunk, read by the coordinator only after the job completes.
struct Slot<T> {
    val: std::cell::UnsafeCell<std::mem::MaybeUninit<T>>,
    init: AtomicBool,
}

unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            val: std::cell::UnsafeCell::new(std::mem::MaybeUninit::uninit()),
            init: AtomicBool::new(false),
        }
    }

    /// # Safety
    /// Must be called at most once per slot, with no concurrent access.
    unsafe fn write(&self, v: T) {
        (*self.val.get()).write(v);
        self.init.store(true, Ordering::Release);
    }

    /// # Safety
    /// Must be called at most once, after all writers are done.
    unsafe fn take(&self) -> Option<T> {
        if self.init.swap(false, Ordering::Acquire) {
            Some((*self.val.get()).assume_init_read())
        } else {
            None
        }
    }
}

/// The typed context a job's trampoline executes against; lives on the
/// coordinator's stack for the duration of the job.
struct Ctx<'a, T, F> {
    f: &'a F,
    plan: &'a ChunkPlan,
    slots: &'a [Slot<T>],
    /// Lowest-chunk-index failure observed so far.
    fail: &'a Mutex<Option<(usize, Failure)>>,
    abort: &'a AtomicBool,
}

/// Executes chunk `idx` against a type-erased [`Ctx`]: fault check, panic
/// containment, result/failure recording. Shared by the inline path and
/// the pool workers.
///
/// # Safety
/// `ctx` must point to a live `Ctx<T, F>` of the matching type.
unsafe fn exec_chunk<T, F>(ctx: *const (), idx: usize)
where
    T: Send,
    F: Fn(usize, Range<usize>) -> Result<T, GuardError> + Sync,
{
    let ctx = &*(ctx as *const Ctx<'_, T, F>);
    if ctx.abort.load(Ordering::Relaxed) {
        return;
    }
    let range = ctx.plan.range(idx);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _span = x2v_obs::span("par/chunk");
        if x2v_guard::faults::panic_fault(WORKER_SITE) {
            panic!("injected panic fault at {WORKER_SITE} (chunk {idx})");
        }
        (ctx.f)(idx, range)
    }));
    x2v_obs::counter_add("par/tasks", 1);
    let failure = match outcome {
        Ok(Ok(v)) => {
            // Each chunk index is claimed exactly once, so this write is
            // unique to the slot.
            ctx.slots[idx].write(v);
            return;
        }
        Ok(Err(e)) => Failure::Guard(e),
        Err(payload) => Failure::Panic(render_panic(payload)),
    };
    ctx.abort.store(true, Ordering::Relaxed);
    let mut fail = ctx.fail.lock().expect("par failure lock");
    if fail.as_ref().is_none_or(|(i, _)| idx < *i) {
        *fail = Some((idx, failure));
    }
}

/// A type-erased in-flight job, shared between the coordinator and the
/// pool workers through an `Arc`.
struct JobCore {
    n_chunks: usize,
    k: usize,
    /// Per-lane claim cursors: lane `l` owns chunk indices `l + s·k`.
    lanes: Vec<AtomicUsize>,
    /// Chunks not yet executed-or-skipped; the job is done at zero.
    pending: AtomicUsize,
    run: unsafe fn(*const (), usize),
    /// Points into the coordinator's stack; never dereferenced after
    /// `pending` reaches zero (every chunk index is claimed exactly once,
    /// and the coordinator blocks until all claims are accounted).
    ctx: *const (),
    done: Mutex<bool>,
    done_cv: Condvar,
}

// Safety: `ctx` is only dereferenced through `run` while the coordinator
// keeps the pointee alive (it blocks on `done_cv` until `pending` hits 0),
// and the erased closure/result types are constrained `Sync`/`Send` at
// erasure time in `run_plan`.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

impl JobCore {
    /// Claims and executes chunks: the worker's own lane first, then the
    /// other lanes in cyclic order (stealing). Returns the number of
    /// chunks executed off-lane.
    fn run_lanes(&self, home: usize) -> u64 {
        let mut steals = 0u64;
        for offset in 0..self.k {
            let lane = (home + offset) % self.k;
            loop {
                let s = self.lanes[lane].fetch_add(1, Ordering::Relaxed);
                let idx = lane + s * self.k;
                if idx >= self.n_chunks {
                    break;
                }
                if offset != 0 {
                    steals += 1;
                }
                // Safety: idx was claimed exactly once (unique (lane, s)),
                // and pending > 0 keeps the coordinator's ctx alive.
                unsafe { (self.run)(self.ctx, idx) };
                if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let mut done = self.done.lock().expect("par done lock");
                    *done = true;
                    self.done_cv.notify_all();
                }
            }
        }
        steals
    }
}

struct PoolState {
    epoch: u64,
    job: Option<Arc<JobCore>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

/// A lazily spawned pool of `k` persistent workers. One pool per distinct
/// thread count lives for the rest of the process (workers park between
/// jobs); jobs on one pool are serialised by `submit`.
struct Pool {
    k: usize,
    shared: Arc<PoolShared>,
    submit: Mutex<()>,
}

impl Pool {
    fn spawn(k: usize) -> Arc<Pool> {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
            }),
            work_cv: Condvar::new(),
        });
        for w in 0..k {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("x2v-par/{k}.{w}"))
                .spawn(move || worker_loop(shared, w))
                .expect("spawn x2v-par worker");
        }
        x2v_obs::counter_add("par/threads", k as u64);
        Arc::new(Pool {
            k,
            shared,
            submit: Mutex::new(()),
        })
    }

    fn get(k: usize) -> Arc<Pool> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<Pool>>>> = OnceLock::new();
        let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
        let mut pools = pools.lock().expect("par pool registry lock");
        Arc::clone(pools.entry(k).or_insert_with(|| Pool::spawn(k)))
    }

    /// Runs a job to completion: posts it, wakes the workers, and blocks
    /// until every chunk has been executed or skipped.
    fn run(&self, n_chunks: usize, run: unsafe fn(*const (), usize), ctx: *const ()) {
        let _serial = self.submit.lock().expect("par submit lock");
        let job = Arc::new(JobCore {
            n_chunks,
            k: self.k,
            lanes: (0..self.k).map(|_| AtomicUsize::new(0)).collect(),
            pending: AtomicUsize::new(n_chunks),
            run,
            ctx,
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut state = self.shared.state.lock().expect("par pool lock");
            state.epoch += 1;
            state.job = Some(Arc::clone(&job));
        }
        self.shared.work_cv.notify_all();
        let mut done = job.done.lock().expect("par done lock");
        while !*done {
            done = job.done_cv.wait(done).expect("par done wait");
        }
        // Unpublish so late-waking workers don't re-enter a finished job's
        // (already drained) lanes after the coordinator frees `ctx`.
        self.shared.state.lock().expect("par pool lock").job = None;
    }
}

fn worker_loop(shared: Arc<PoolShared>, home: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("par pool lock");
            loop {
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    if let Some(job) = &state.job {
                        break Arc::clone(job);
                    }
                }
                state = shared.work_cv.wait(state).expect("par pool wait");
            }
        };
        IN_WORKER.with(|w| w.set(true));
        let steals = job.run_lanes(home);
        IN_WORKER.with(|w| w.set(false));
        if steals > 0 {
            x2v_obs::counter_add("par/steals", steals);
        }
    }
}

/// Core driver shared by the public entry points: executes `plan` with
/// `f`, inline when one thread suffices, on the pool otherwise. Results
/// come back in chunk order; the lowest-index failure wins.
fn run_plan<T, F>(plan: &ChunkPlan, f: F) -> Result<Vec<T>, Failure>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> Result<T, GuardError> + Sync,
{
    let n = plan.n_chunks();
    if n == 0 {
        return Ok(Vec::new());
    }
    let k = threads().min(n);
    if k <= 1 {
        // Serial fast path: same chunk order, same fault check, same
        // failure semantics — but none of the slot/type-erasure machinery,
        // which would otherwise dominate sub-microsecond call sites (a
        // 20-node WL round costs less than the bookkeeping).
        let mut out = Vec::with_capacity(n);
        for idx in 0..n {
            let range = plan.range(idx);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _span = x2v_obs::span("par/chunk");
                if x2v_guard::faults::panic_fault(WORKER_SITE) {
                    panic!("injected panic fault at {WORKER_SITE} (chunk {idx})");
                }
                f(idx, range)
            }));
            x2v_obs::counter_add("par/tasks", 1);
            match outcome {
                Ok(Ok(v)) => out.push(v),
                Ok(Err(e)) => return Err(Failure::Guard(e)),
                Err(payload) => return Err(Failure::Panic(render_panic(payload))),
            }
        }
        return Ok(out);
    }
    let slots: Vec<Slot<T>> = (0..n).map(|_| Slot::new()).collect();
    let fail = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let ctx = Ctx {
        f: &f,
        plan,
        slots: &slots,
        fail: &fail,
        abort: &abort,
    };
    let ctx_ptr = &ctx as *const Ctx<'_, T, F> as *const ();
    {
        let _span = x2v_obs::span("par/job");
        // Safety: `ctx` stays alive until Pool::run returns, which is
        // after every chunk is accounted; T: Send and F: Sync bound the
        // erased types.
        Pool::get(k).run(n, exec_chunk::<T, F>, ctx_ptr);
    }
    match fail.into_inner().expect("par failure lock") {
        Some((_, failure)) => {
            // Drop any chunk results that did complete.
            for slot in &slots {
                unsafe {
                    drop(slot.take());
                }
            }
            Err(failure)
        }
        None => Ok(slots
            .iter()
            .map(|slot| unsafe { slot.take() }.expect("complete job fills every slot"))
            .collect()),
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Maps `f` over the chunks of `plan`, returning per-chunk results in
/// chunk-index order. A panic inside `f` (or an armed
/// `panic@par/worker` fault) aborts the job, skips the remaining chunks
/// and re-panics on the caller — exactly like the serial loop it
/// replaces; the pool stays usable.
pub fn map_chunks<T, F>(plan: &ChunkPlan, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    match run_plan(plan, |idx, range| Ok(f(idx, range))) {
        Ok(results) => results,
        Err(Failure::Panic(detail)) => panic!("{detail}"),
        Err(Failure::Guard(_)) => unreachable!("infallible chunks cannot return GuardError"),
    }
}

/// Fallible [`map_chunks`]: a chunk returning `Err` aborts the job (the
/// remaining chunks are skipped) and the error surfaces to the caller; a
/// panicking chunk surfaces as [`GuardError::WorkerPanic`]. When several
/// chunks fail concurrently the lowest *observed* chunk index wins — call
/// sites that need a fully deterministic trip point pre-charge their
/// budget on the coordinator (see the crate docs) so worker-side errors
/// are only ever the timing-dependent deadline/cancel kind.
fn try_map_chunks<T, F>(plan: &ChunkPlan, f: F) -> Result<Vec<T>, GuardError>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> Result<T, GuardError> + Sync,
{
    match run_plan(plan, f) {
        Ok(results) => Ok(results),
        Err(Failure::Guard(e)) => Err(e),
        Err(Failure::Panic(detail)) => Err(GuardError::WorkerPanic {
            site: WORKER_SITE,
            chunk: 0,
            detail,
        }),
    }
}

/// Maps `f` over `0..total` items in parallel chunks of at least `grain`
/// items, returning the per-item results in item order.
pub fn map_items<T, F>(total: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let plan = ChunkPlan::new(total, grain);
    let chunks = map_chunks(&plan, |_, range| range.map(&f).collect::<Vec<T>>());
    let mut out = Vec::with_capacity(total);
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Fallible [`map_items`].
pub fn try_map_items<T, F>(total: usize, grain: usize, f: F) -> Result<Vec<T>, GuardError>
where
    T: Send,
    F: Fn(usize) -> Result<T, GuardError> + Sync,
{
    let plan = ChunkPlan::new(total, grain);
    let chunks = try_map_chunks(&plan, |_, range| {
        range.map(&f).collect::<Result<Vec<T>, GuardError>>()
    })?;
    let mut out = Vec::with_capacity(total);
    for chunk in chunks {
        out.extend(chunk);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_plans_partition_and_ignore_thread_count() {
        for total in [0usize, 1, 7, 64, 100, 1000, 4097] {
            for grain in [1usize, 4, 64, 1000] {
                let plan = ChunkPlan::new(total, grain);
                let mut covered = 0usize;
                for idx in 0..plan.n_chunks() {
                    let r = plan.range(idx);
                    assert_eq!(r.start, covered, "chunks must be contiguous");
                    assert!(!r.is_empty());
                    covered = r.end;
                }
                assert_eq!(covered, total, "chunks must cover 0..total");
                assert!(plan.n_chunks() <= MAX_CHUNKS);
                // No thread-count input exists: the plan is a pure
                // function of (total, grain) by construction.
            }
        }
    }

    #[test]
    fn map_items_is_identity_ordered_for_every_thread_count() {
        let expected: Vec<u64> = (0..1000u64).map(|i| i * i).collect();
        for t in [1usize, 2, 3, 8] {
            let got = with_threads(t, || map_items(1000, 8, |i| (i as u64) * (i as u64)));
            assert_eq!(got, expected, "threads={t}");
        }
    }

    #[test]
    fn try_map_surfaces_the_error_and_skips_cleanly() {
        let plan = ChunkPlan::new(100, 10);
        let err = with_threads(4, || {
            try_map_chunks(&plan, |idx, _range| {
                if idx == 3 {
                    Err(GuardError::invalid_input("par/test", "chunk 3 is bad"))
                } else {
                    Ok(idx)
                }
            })
        })
        .unwrap_err();
        assert!(matches!(err, GuardError::InvalidInput { .. }));
        // The pool is not poisoned: the next job on the same thread count
        // runs to completion.
        let ok = with_threads(4, || map_items(50, 5, |i| i + 1));
        assert_eq!(ok, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_chunk_propagates_and_pool_survives() {
        let plan = ChunkPlan::new(64, 1);
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                map_chunks(&plan, |idx, _| {
                    if idx == 7 {
                        panic!("deliberate chunk panic");
                    }
                    idx
                })
            })
        });
        let msg = render_panic(caught.unwrap_err());
        assert!(msg.contains("deliberate chunk panic"), "got {msg:?}");
        let ok = with_threads(4, || map_items(10, 1, |i| i));
        assert_eq!(ok, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let out = with_threads(4, || {
            map_items(8, 1, |i| {
                // Nested call from a worker: must take the inline path.
                let inner: usize = map_items(100, 10, |j| j).into_iter().sum();
                (i, inner, threads())
            })
        });
        for (i, inner, nested_threads) in out {
            assert_eq!(inner, 4950, "item {i}");
            assert_eq!(nested_threads, 1, "nested threads() must report inline");
        }
    }
}
