//! Budgets, meters and cooperative cancellation.

use crate::error::GuardError;
use crate::faults::{self, FaultKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A cooperative cancellation flag, cheaply cloneable and thread-safe.
///
/// One side holds a clone and calls [`CancelToken::cancel`]; guarded hot
/// loops observe it through their [`Meter`] and unwind with
/// [`GuardError::Cancelled`] at the next check point.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[inline]
    fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A resource budget: an optional wall-clock deadline, an optional
/// work-unit limit, and an optional [`CancelToken`].
///
/// A `Budget` is an immutable *specification*; the mutable accounting for
/// one guarded operation lives in the [`Meter`] obtained from
/// [`Budget::meter`]. Work-unit limits therefore apply **per guarded
/// operation**, while the deadline is absolute.
///
/// Work units are algorithm-defined but deterministic: recursion nodes for
/// brute-force homomorphism counting, DP subset expansions for exact
/// treewidth, tuple refinements for k-WL, `n` units per working-set step
/// for the SVM. A run limited only by work units stops at an identical
/// point — and returns an identical partial result — on every execution.
#[derive(Clone, Debug)]
pub struct Budget {
    started: Instant,
    deadline: Option<Instant>,
    work_limit: Option<u64>,
    cancel: Option<CancelToken>,
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// How many work units pass between wall-clock / cancellation checks.
/// Work-limit checks happen on every tick (pure arithmetic); `Instant::now`
/// is only paid once per interval, bounding overshoot past a deadline to
/// the time 1024 work units take (microseconds for all guarded loops).
const CHECK_INTERVAL: u64 = 1024;

impl Budget {
    /// A budget that never trips.
    pub fn unlimited() -> Self {
        Budget {
            started: Instant::now(),
            deadline: None,
            work_limit: None,
            cancel: None,
        }
    }

    /// Adds a wall-clock deadline `ms` milliseconds from now.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.started = Instant::now();
        self.deadline = Some(self.started + Duration::from_millis(ms));
        self
    }

    /// Adds a per-operation work-unit limit.
    pub fn with_work_limit(mut self, units: u64) -> Self {
        self.work_limit = Some(units);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Polls the cancel token and the wall-clock deadline *without* any
    /// work accounting or fault arming — safe to call from parallel worker
    /// threads at arbitrary (thread-count-dependent) frequency, because it
    /// never advances the per-site fault-injection call counts the way
    /// [`Budget::meter`] does and never consumes work units.
    ///
    /// The work-unit limit is deliberately not checked here: exact work
    /// accounting must stay deterministic, so it lives with the single
    /// coordinator-side [`Meter`] that charges chunks in chunk order.
    pub fn poll(&self, site: &'static str) -> Result<(), GuardError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                x2v_obs::counter_add("guard/cancelled", 1);
                x2v_obs::mark("guard/cancelled");
                return Err(GuardError::Cancelled { site, work_done: 0 });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                x2v_obs::counter_add("guard/budget_exhausted", 1);
                x2v_obs::mark("guard/budget_exhausted");
                return Err(GuardError::BudgetExhausted {
                    site,
                    work_done: 0,
                    work_limit: None,
                    elapsed_ms: Some(self.started.elapsed().as_millis() as u64),
                });
            }
        }
        Ok(())
    }

    /// Starts metering one guarded operation at `site`.
    ///
    /// Site names follow the obs convention (`"hom/brute"`, `"wl/kwl"`,
    /// `"svm/train"`); they appear in errors and key fault injection.
    pub fn meter(&self, site: &'static str) -> Meter<'_> {
        let forced = faults::armed(site);
        // With a deadline or cancel token in play, poll on the very first
        // tick: operations smaller than CHECK_INTERVAL would otherwise
        // never observe the clock, and an expired ambient deadline must
        // trip the *next* guarded call, however small.
        let next_check = if self.deadline.is_some() || self.cancel.is_some() {
            1
        } else {
            CHECK_INTERVAL
        };
        Meter {
            budget: self,
            site,
            work: 0,
            next_check,
            forced,
        }
    }
}

/// The mutable accounting for one guarded operation: counts work units
/// against a [`Budget`] and trips with a typed [`GuardError`].
pub struct Meter<'a> {
    budget: &'a Budget,
    site: &'static str,
    work: u64,
    next_check: u64,
    forced: Option<FaultKind>,
}

impl Meter<'_> {
    /// Records `units` of work and checks the budget. The work-unit limit
    /// is enforced exactly (deterministically); the deadline and the
    /// cancel token are polled every [`CHECK_INTERVAL`] units.
    #[inline]
    pub fn tick(&mut self, units: u64) -> Result<(), GuardError> {
        self.work += units;
        if let Some(kind) = self.forced {
            return Err(self.forced_fault(kind));
        }
        if let Some(limit) = self.budget.work_limit {
            if self.work > limit {
                return Err(self.exhausted());
            }
        }
        if self.work >= self.next_check {
            self.next_check = self.work + CHECK_INTERVAL;
            self.check_clock_and_cancel()?;
        }
        Ok(())
    }

    /// Forces an immediate deadline/cancellation poll regardless of the
    /// check interval — call at coarse boundaries (per refinement round,
    /// per training epoch) where responsiveness matters more than cost.
    pub fn checkpoint(&mut self) -> Result<(), GuardError> {
        if let Some(kind) = self.forced {
            return Err(self.forced_fault(kind));
        }
        if let Some(limit) = self.budget.work_limit {
            if self.work > limit {
                return Err(self.exhausted());
            }
        }
        self.check_clock_and_cancel()
    }

    /// Work units recorded so far.
    pub fn work_done(&self) -> u64 {
        self.work
    }

    #[cold]
    fn forced_fault(&mut self, kind: FaultKind) -> GuardError {
        self.forced = None;
        x2v_obs::counter_add("guard/faults_injected", 1);
        x2v_obs::mark("guard/fault_injected");
        match kind {
            FaultKind::Budget => self.exhausted(),
            FaultKind::Cancel => self.cancelled(),
        }
    }

    fn check_clock_and_cancel(&self) -> Result<(), GuardError> {
        if let Some(token) = &self.budget.cancel {
            if token.is_cancelled() {
                return Err(self.cancelled());
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                return Err(self.exhausted());
            }
        }
        Ok(())
    }

    #[cold]
    fn exhausted(&self) -> GuardError {
        x2v_obs::counter_add("guard/budget_exhausted", 1);
        x2v_obs::mark("guard/budget_exhausted");
        GuardError::BudgetExhausted {
            site: self.site,
            work_done: self.work,
            work_limit: self.budget.work_limit,
            elapsed_ms: self
                .budget
                .deadline
                .map(|_| self.budget.started.elapsed().as_millis() as u64),
        }
    }

    #[cold]
    fn cancelled(&self) -> GuardError {
        x2v_obs::counter_add("guard/cancelled", 1);
        x2v_obs::mark("guard/cancelled");
        GuardError::Cancelled {
            site: self.site,
            work_done: self.work,
        }
    }
}

/// A possibly-incomplete result: the value computed within budget plus an
/// explicit completeness declaration. Returned by the degrading
/// `*_partial` / `*_budgeted` API variants, which never error on resource
/// exhaustion — they stop early and say so.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partial<T> {
    /// The (possibly partial) value.
    pub value: T,
    /// `true` iff the computation ran to completion.
    pub complete: bool,
    /// Work units consumed.
    pub work_done: u64,
}

impl<T> Partial<T> {
    /// A complete result.
    pub fn complete(value: T, work_done: u64) -> Self {
        Partial {
            value,
            complete: true,
            work_done,
        }
    }

    /// A declared-partial result (records `guard/degraded`).
    pub fn degraded(value: T, work_done: u64) -> Self {
        note_degraded();
        Partial {
            value,
            complete: false,
            work_done,
        }
    }

    /// Maps the value, preserving the completeness declaration.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Partial<U> {
        Partial {
            value: f(self.value),
            complete: self.complete,
            work_done: self.work_done,
        }
    }
}

/// Records that a guarded computation degraded (fell back to a heuristic,
/// returned a partial result, or stopped an iterative refinement early).
pub fn note_degraded() {
    x2v_obs::counter_add("guard/degraded", 1);
    x2v_obs::mark("guard/degraded");
}

/// Records one retry of a guarded computation.
pub fn note_retry() {
    x2v_obs::counter_add("guard/retries", 1);
}

static AMBIENT: Mutex<Option<Budget>> = Mutex::new(None);
static AMBIENT_SET: AtomicBool = AtomicBool::new(false);

/// Installs a process-wide ambient budget. Infallible hot-path wrappers
/// (`hom_count`, `exact_treewidth`, `KwlRefiner::run`, …) meter against it
/// and panic with an actionable [`GuardError`] message when it trips — the
/// escape hatch the `exp_*` binaries expose as `--budget-ms` /
/// `X2V_BUDGET_MS`. Library callers that want recoverable errors should
/// pass an explicit budget to the `try_*` variants instead.
pub fn install_ambient(budget: Budget) {
    *AMBIENT.lock().expect("ambient budget lock") = Some(budget);
    AMBIENT_SET.store(true, Ordering::Release);
}

/// Removes the ambient budget.
pub fn clear_ambient() {
    AMBIENT_SET.store(false, Ordering::Release);
    *AMBIENT.lock().expect("ambient budget lock") = None;
}

/// A clone of the ambient budget, or an unlimited one when none is
/// installed. One relaxed atomic load on the fast path.
pub fn ambient() -> Budget {
    if !AMBIENT_SET.load(Ordering::Acquire) {
        return Budget::unlimited();
    }
    AMBIENT
        .lock()
        .expect("ambient budget lock")
        .clone()
        .unwrap_or_else(Budget::unlimited)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        let mut m = b.meter("test/unlimited");
        for _ in 0..10_000 {
            m.tick(1).unwrap();
        }
        assert_eq!(m.work_done(), 10_000);
    }

    #[test]
    fn work_limit_trips_exactly() {
        let b = Budget::unlimited().with_work_limit(100);
        let mut m = b.meter("test/work");
        for _ in 0..100 {
            m.tick(1).unwrap();
        }
        let err = m.tick(1).unwrap_err();
        match err {
            GuardError::BudgetExhausted {
                work_done,
                work_limit,
                ..
            } => {
                assert_eq!(work_done, 101);
                assert_eq!(work_limit, Some(100));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn deadline_trips_via_checkpoint() {
        let b = Budget::unlimited().with_deadline_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        let mut m = b.meter("test/deadline");
        assert!(matches!(
            m.checkpoint(),
            Err(GuardError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn cancel_token_observed() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        let mut m = b.meter("test/cancel");
        m.checkpoint().unwrap();
        token.cancel();
        assert!(token.is_cancelled());
        assert!(matches!(m.checkpoint(), Err(GuardError::Cancelled { .. })));
    }

    #[test]
    fn ambient_round_trip() {
        clear_ambient();
        assert_eq!(ambient().work_limit, None);
        install_ambient(Budget::unlimited().with_work_limit(7));
        assert_eq!(ambient().work_limit, Some(7));
        clear_ambient();
        assert_eq!(ambient().work_limit, None);
    }

    #[test]
    fn partial_constructors() {
        let p = Partial::complete(5u32, 10);
        assert!(p.complete);
        let q = p.map(|v| v * 2);
        assert_eq!(q.value, 10);
        assert!(q.complete);
    }
}
