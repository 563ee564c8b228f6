//! The workspace-wide typed error for guarded computations.

use std::fmt;

/// Why a guarded computation stopped short of a full exact answer.
///
/// Every fallible `try_*` hot-path API in the workspace returns this enum,
/// so callers can match on the *kind* of failure (resource exhaustion,
/// cooperative cancellation, algorithmic non-convergence, bad input,
/// numeric breakdown) instead of parsing panic strings.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardError {
    /// The work-unit or wall-clock budget ran out before completion.
    BudgetExhausted {
        /// The guarded call site (e.g. `"hom/brute"`).
        site: &'static str,
        /// Work units consumed when the budget tripped.
        work_done: u64,
        /// The work-unit limit, if one was set.
        work_limit: Option<u64>,
        /// Milliseconds elapsed when the budget tripped, if a deadline was
        /// set.
        elapsed_ms: Option<u64>,
    },
    /// The computation observed its [`CancelToken`](crate::CancelToken)
    /// fire and unwound cooperatively.
    Cancelled {
        /// The guarded call site.
        site: &'static str,
        /// Work units consumed before cancellation was observed.
        work_done: u64,
    },
    /// An iterative algorithm hit its iteration cap without meeting its
    /// convergence criterion.
    NonConvergence {
        /// The guarded call site.
        site: &'static str,
        /// Iterations performed.
        iterations: u64,
        /// Human-readable diagnostic.
        detail: String,
    },
    /// The input violated a documented precondition.
    InvalidInput {
        /// The guarded call site.
        site: &'static str,
        /// What was wrong, phrased actionably.
        message: String,
    },
    /// A floating-point computation produced NaN/∞ or an integer count
    /// overflowed its exact type.
    NumericFailure {
        /// The guarded call site.
        site: &'static str,
        /// What broke and where, phrased actionably.
        message: String,
    },
    /// A durable-artifact operation failed: an atomic write could not
    /// complete (I/O error, disk full) or a stored artifact failed
    /// validation (bad magic, truncated frame, checksum mismatch).
    Storage {
        /// The guarded call site (e.g. `"ckpt/store"`).
        site: &'static str,
        /// What failed and on which path, phrased actionably.
        message: String,
    },
    /// A worker thread of the parallel runtime panicked while executing a
    /// chunk. The pool unwound cleanly — the remaining chunks were
    /// abandoned, no partial result escaped, and the pool itself stays
    /// usable — but the parallel call as a whole produced nothing.
    WorkerPanic {
        /// The guarded call site (e.g. `"par/worker"`).
        site: &'static str,
        /// Index of the chunk whose closure panicked.
        chunk: usize,
        /// The panic payload, rendered to a string where possible.
        detail: String,
    },
    /// One or more fleet worker *processes* failed permanently: the tasks
    /// listed exhausted their per-task retry cap (crash loops, repeated
    /// stalls, repeated shard corruption) and their result shards are
    /// missing from the merged output. The shards that did complete are
    /// durable in the checkpoint store, so a re-run with `--resume`
    /// recomputes only the missing tasks.
    WorkerFailed {
        /// The guarded call site (e.g. `"fleet/run"`).
        site: &'static str,
        /// Task indices still missing when the retry cap was reached.
        tasks: Vec<usize>,
        /// Lease revocations (retries) spent across the whole run.
        retries: u64,
        /// Human-readable diagnostic.
        detail: String,
    },
}

impl GuardError {
    /// Constructs an [`GuardError::InvalidInput`].
    pub fn invalid_input(site: &'static str, message: impl Into<String>) -> Self {
        GuardError::InvalidInput {
            site,
            message: message.into(),
        }
    }

    /// Constructs a [`GuardError::NumericFailure`].
    pub fn numeric(site: &'static str, message: impl Into<String>) -> Self {
        GuardError::NumericFailure {
            site,
            message: message.into(),
        }
    }

    /// Constructs a [`GuardError::Storage`].
    pub fn storage(site: &'static str, message: impl Into<String>) -> Self {
        GuardError::Storage {
            site,
            message: message.into(),
        }
    }

    /// The call site the error was raised from.
    pub fn site(&self) -> &'static str {
        match self {
            GuardError::BudgetExhausted { site, .. }
            | GuardError::Cancelled { site, .. }
            | GuardError::NonConvergence { site, .. }
            | GuardError::InvalidInput { site, .. }
            | GuardError::NumericFailure { site, .. }
            | GuardError::Storage { site, .. }
            | GuardError::WorkerPanic { site, .. }
            | GuardError::WorkerFailed { site, .. } => site,
        }
    }

    /// The standardized process exit code for binaries that surface this
    /// error (see [`TRIAGE`]). One code per variant, so a CI fault matrix
    /// can assert *which* failure occurred instead of just "non-zero":
    /// codes 0/1/101 keep their conventional meanings (success, generic
    /// failure, panic) and typed guard failures start at 2.
    pub fn exit_code(&self) -> i32 {
        match self {
            GuardError::InvalidInput { .. } => 2,
            GuardError::BudgetExhausted { .. } => 3,
            GuardError::Storage { .. } => 4,
            GuardError::Cancelled { .. } => 5,
            GuardError::NonConvergence { .. } => 6,
            GuardError::NumericFailure { .. } => 7,
            GuardError::WorkerPanic { .. } => 8,
            GuardError::WorkerFailed { .. } => 9,
        }
    }
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardError::BudgetExhausted {
                site,
                work_done,
                work_limit,
                elapsed_ms,
            } => {
                write!(f, "budget exhausted at {site} after {work_done} work units")?;
                if let Some(limit) = work_limit {
                    write!(f, " (limit {limit})")?;
                }
                if let Some(ms) = elapsed_ms {
                    write!(f, " ({ms} ms elapsed)")?;
                }
                write!(f, "; raise the budget or use the partial/degraded variant")
            }
            GuardError::Cancelled { site, work_done } => {
                write!(f, "cancelled at {site} after {work_done} work units")
            }
            GuardError::NonConvergence {
                site,
                iterations,
                detail,
            } => write!(
                f,
                "{site} failed to converge after {iterations} steps: {detail}"
            ),
            GuardError::InvalidInput { site, message } => {
                write!(f, "invalid input to {site}: {message}")
            }
            GuardError::NumericFailure { site, message } => {
                write!(f, "numeric failure in {site}: {message}")
            }
            GuardError::Storage { site, message } => {
                write!(f, "storage failure in {site}: {message}")
            }
            GuardError::WorkerPanic {
                site,
                chunk,
                detail,
            } => {
                write!(
                    f,
                    "worker panic at {site} while executing chunk {chunk}: {detail}"
                )
            }
            GuardError::WorkerFailed {
                site,
                tasks,
                retries,
                detail,
            } => {
                write!(
                    f,
                    "worker failure at {site}: {} task(s) {tasks:?} missing after {retries} \
                     lease revocations: {detail}",
                    tasks.len()
                )
            }
        }
    }
}

impl std::error::Error for GuardError {}

/// A short triage guide mapping each [`GuardError`] variant to its
/// standardized process exit code ([`GuardError::exit_code`]) and the fix,
/// for binaries that surface guard diagnostics to an operator. The `exp_*`
/// binaries exit with these codes (via `x2v_bench::harness::guarded_main`),
/// so scripts and the CI fault matrix can assert which failure occurred.
pub const TRIAGE: &str = "\
  exit  error            triage\n\
     2  InvalidInput     fix the input named in the message; nothing was computed\n\
     3  BudgetExhausted  raise --budget-ms / the work limit, or accept the partial variant\n\
     4  Storage          an artifact write failed or a stored artifact is corrupt; check disk\n\
                         space and the quarantine directory, then re-run (resume is safe)\n\
     5  Cancelled        expected after a CancelToken fires; the partial work is discarded\n\
     6  NonConvergence   raise max_iters or loosen the tolerance\n\
     7  NumericFailure   the input poisons floating point (NaN/inf) or overflows exact counts\n\
     8  WorkerPanic      a parallel chunk closure panicked; the pool is fine — fix the bug the\n\
                         panic message names (or the armed panic fault) and re-run\n\
     9  WorkerFailed     fleet worker processes died/stalled past the retry cap; the listed\n\
                         tasks are missing — check worker stderr and the store's quarantine,\n\
                         then re-run with --resume (completed shards are durable)\n\
  (0 = success, 1 = generic failure, 101 = unhandled panic, as usual)";
