//! # x2v-obs — zero-dependency instrumentation for the x2vec workspace
//!
//! The paper frames every technique by its asymptotics (1-WL in
//! `O((n+m) log n)`, `hom(F,G)` in `n^{tw(F)+1}`, …); this crate turns those
//! claims into *measured* artifacts. It provides, with no dependencies
//! beyond `std`:
//!
//! * **Span timers** — [`span`] returns a drop-guard that records wall time
//!   into a process-global registry (call count, total/self/min/max/mean;
//!   `self` excludes time spent in nested child spans, so flame-style
//!   attribution sums to real wall time even under re-entrant nesting);
//! * **Counters** ([`counter_add`]) and **histograms** ([`observe`]) for
//!   domain quantities: WL rounds-to-stability, colour classes, hom-count
//!   recursion nodes, negative samples drawn, SVM sweeps, Gram entries;
//! * A hand-rolled **JSON exporter** ([`Report`], written by [`finish`])
//!   producing `target/obs/<run>.json` with stable key order, plus a
//!   human-readable table;
//! * **Progress heartbeats** ([`progress`]) for long-running training
//!   loops, routed to a pluggable handler.
//!
//! ## Cost model
//!
//! Everything is gated on the `X2V_OBS` environment variable (read once).
//! When disabled, every entry point reduces to one relaxed atomic load —
//! instrumented hot paths pay well under 5 ns per call. When enabled, a
//! span costs two `Instant` reads plus one mutex-protected hash update, so
//! instrumentation belongs at *operation* granularity (a refinement run, a
//! Gram build, a CV fold), never inside per-node inner loops; per-item
//! quantities are accumulated locally and flushed once per operation.
//!
//! ## `X2V_OBS` values
//!
//! Comma-separated flags: `1`/`on`/`collect` collect metrics; `report`
//! additionally writes the JSON run report at [`finish`]; `table`
//! additionally prints the table at [`finish`]; `progress` prints epoch
//! heartbeats to stderr. `report` and `table` imply collection. Unset,
//! empty, `0` or `off` disable everything.
//!
//! ```
//! x2v_obs::set_enabled(true);
//! {
//!     let _timer = x2v_obs::span("doc/example");
//!     x2v_obs::counter_add("doc/widgets", 3);
//!     x2v_obs::observe("doc/batch_size", 128.0);
//! }
//! let report = x2v_obs::report("doc");
//! assert_eq!(report.counters["doc/widgets"], 3);
//! x2v_obs::reset();
//! x2v_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fsio;
pub mod keys;
mod progress;
mod registry;
mod report;
pub mod window;

pub use fsio::atomic_write;
pub use progress::{progress, set_progress_handler, ProgressEvent};
pub use registry::{HistSnapshot, Histogram, Registry, SpanSnapshot};
pub use report::{json_escape, Report};
pub use window::{Window, WindowSnapshot, DEFAULT_WINDOW_S, WINDOW_ENV};

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{LazyLock, OnceLock};
use std::time::Instant;

static GLOBAL: LazyLock<Registry> = LazyLock::new(Registry::new);

/// Bit flags packed into [`STATE`]; bit 0 marks initialisation.
const INIT: u32 = 1;
const COLLECT: u32 = 1 << 1;
const REPORT: u32 = 1 << 2;
const TABLE: u32 = 1 << 3;
const PROGRESS: u32 = 1 << 4;
/// Set when a [`SpanSink`] is installed: spans fire begin/end events even
/// if aggregate collection is off.
const HOOKED: u32 = 1 << 5;

static STATE: AtomicU32 = AtomicU32::new(0);

/// A sink receiving raw span begin/end and instant events, installed once
/// per process by a tracing backend (`x2v-prof` in this workspace). The
/// sink sees every span *event* in real time, in contrast to the
/// aggregate statistics this crate accumulates; it must be cheap and must
/// not re-enter the obs API from `begin`/`end`.
pub trait SpanSink: Sync {
    /// A span named `name` opened on the calling thread.
    fn begin(&self, name: &'static str);
    /// The innermost open span named `name` closed on the calling thread.
    fn end(&self, name: &'static str);
    /// A point event (no duration) on the calling thread.
    fn instant(&self, name: &'static str);
}

static SINK: OnceLock<&'static dyn SpanSink> = OnceLock::new();

/// Installs the process-wide span sink. Returns `false` if one was already
/// installed (the first installation wins). After installation every
/// [`span`] fires `begin`/`end` on the sink regardless of whether metric
/// collection is enabled.
pub fn install_span_sink(sink: &'static dyn SpanSink) -> bool {
    if SINK.set(sink).is_err() {
        return false;
    }
    // Force env parsing first so the fetch_or below cannot be mistaken for
    // an initialised state with an unparsed environment.
    let _ = flags();
    STATE.fetch_or(HOOKED, Ordering::Relaxed);
    true
}

thread_local! {
    /// Wall time (ns) of completed child spans at the current nesting
    /// level, used to compute exclusive (`self`) time. Guards save and
    /// restore it LIFO, which matches scope-based drop order.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

fn parse_env() -> u32 {
    let mut flags = INIT;
    let Ok(value) = std::env::var("X2V_OBS") else {
        return flags;
    };
    for token in value.split(',') {
        match token.trim() {
            "" | "0" | "off" | "false" => {}
            "report" => flags |= COLLECT | REPORT,
            "table" => flags |= COLLECT | TABLE,
            "progress" => flags |= PROGRESS,
            // Any other truthy token ("1", "on", "collect", …).
            _ => flags |= COLLECT,
        }
    }
    flags
}

#[inline]
fn flags() -> u32 {
    let f = STATE.load(Ordering::Relaxed);
    if f & INIT != 0 {
        f
    } else {
        init_slow()
    }
}

#[cold]
fn init_slow() -> u32 {
    let f = parse_env();
    // Racing initialisers compute the same value; last store wins harmlessly.
    STATE.store(f, Ordering::Relaxed);
    f
}

/// Whether metric collection is on. One relaxed atomic load on the fast
/// path — safe to call in hot code.
#[inline]
pub fn enabled() -> bool {
    flags() & COLLECT != 0
}

/// Whether progress heartbeats are printed by the default handler.
pub fn progress_enabled() -> bool {
    flags() & PROGRESS != 0
}

/// Programmatically enables or disables collection, overriding `X2V_OBS`.
/// Report/table/progress flags are left as the environment set them.
pub fn set_enabled(on: bool) {
    let f = flags();
    let f = if on { f | COLLECT } else { f & !COLLECT };
    STATE.store(f | INIT, Ordering::Relaxed);
}

/// Access to the process-global registry (for advanced integrations; the
/// free functions below cover normal use).
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// A drop-guard recording the wall time between construction and drop
/// under `name`. When collection is disabled and no sink is installed the
/// guard is inert.
///
/// Guards are assumed to drop in reverse creation order (the natural
/// scope-based pattern); out-of-order drops skew the self-time split but
/// never the inclusive totals.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    /// Parent's accumulated child time, restored (plus our own total) on
    /// drop. Only meaningful when `start` is `Some`.
    parent_child_ns: u64,
    hooked: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let total_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let child_ns = CHILD_NS.get();
            let self_ns = total_ns.saturating_sub(child_ns);
            CHILD_NS.set(self.parent_child_ns.saturating_add(total_ns));
            GLOBAL.record_span_parts(self.name, total_ns, self_ns);
        }
        if self.hooked {
            if let Some(sink) = SINK.get() {
                sink.end(self.name);
            }
        }
    }
}

/// Starts a span timer. Bind it: `let _timer = x2v_obs::span("wl/refine");`.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let f = flags();
    if f & (COLLECT | HOOKED) == 0 {
        return SpanGuard {
            name,
            start: None,
            parent_child_ns: 0,
            hooked: false,
        };
    }
    span_slow(name, f)
}

fn span_slow(name: &'static str, f: u32) -> SpanGuard {
    let hooked = f & HOOKED != 0;
    if hooked {
        if let Some(sink) = SINK.get() {
            sink.begin(name);
        }
    }
    let (start, parent_child_ns) = if f & COLLECT != 0 {
        let parent = CHILD_NS.replace(0);
        (Some(Instant::now()), parent)
    } else {
        (None, 0)
    };
    SpanGuard {
        name,
        start,
        parent_child_ns,
        hooked,
    }
}

/// Emits a point event to the installed [`SpanSink`] (e.g. a budget trip or
/// a degradation). One relaxed atomic load when no sink is installed; does
/// not touch the aggregate registry — pair with [`counter_add`] when the
/// occurrence should also be counted.
#[inline]
pub fn mark(name: &'static str) {
    if flags() & HOOKED != 0 {
        if let Some(sink) = SINK.get() {
            sink.instant(name);
        }
    }
}

/// Starts a span timer (macro form, mirroring `obs::span!("wl/refine")`).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Adds `delta` to the counter `name`.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        GLOBAL.counter_add(name, delta);
    }
}

/// Records one observation of a domain quantity into histogram `name`.
#[inline]
pub fn observe(name: &'static str, value: f64) {
    if enabled() {
        GLOBAL.observe(name, value);
    }
}

/// Raises counter `name` to `value` if it is currently lower (high-water
/// mark; idempotent, safe to call from a periodic sampler).
#[inline]
pub fn counter_max(name: &'static str, value: u64) {
    if enabled() {
        GLOBAL.counter_max(name, value);
    }
}

/// The process-global window ring (see [`window`]). Metrics land in it via
/// [`windowed_counter_add`] / [`windowed_observe`]; readers merge it with
/// [`Window::merged`].
pub fn global_window() -> &'static Window {
    window::global_window()
}

/// Adds `delta` to counter `name` in **both** the lifetime registry and
/// the current window bucket, so the metric can be read as "last N
/// seconds" *and* "since start". One relaxed atomic load when disabled.
#[inline]
pub fn windowed_counter_add(name: &'static str, delta: u64) {
    if enabled() {
        GLOBAL.counter_add(name, delta);
        window::global_window().counter_add(name, delta);
    }
}

/// Records one observation into histogram `name` in **both** the lifetime
/// registry and the current window bucket. One relaxed atomic load when
/// disabled.
#[inline]
pub fn windowed_observe(name: &'static str, value: f64) {
    if enabled() {
        GLOBAL.observe(name, value);
        window::global_window().observe(name, value);
    }
}

/// Peak resident set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status`. `None` on platforms without procfs or if the field
/// is absent. Lives here (the bottom of the crate stack) so both the
/// exit-time `ObsRun` guard and live snapshot flushers can sample it.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Snapshots the global registry into a [`Report`] named `run`.
pub fn report(run: &str) -> Report {
    Report::from_registry(&GLOBAL, run)
}

/// Clears all globally recorded metrics (primarily for tests).
pub fn reset() {
    GLOBAL.reset();
}

/// Writes the JSON run report to `target/obs/<run>.json` (directory
/// overridable via `X2V_OBS_DIR`) and returns the path.
fn write_report(run: &str) -> std::io::Result<std::path::PathBuf> {
    report(run).write_json_file()
}

/// Prints the human-readable metrics table to stderr.
fn print_table(run: &str) {
    eprint!("{}", report(run).render_table());
}

/// Finalises a run: writes the JSON report if `X2V_OBS` contains `report`,
/// prints the table if it contains `table`. Call once at the end of an
/// experiment binary; a no-op otherwise.
pub fn finish(run: &str) {
    let f = flags();
    if f & TABLE != 0 {
        print_table(run);
    }
    if f & REPORT != 0 {
        match write_report(run) {
            Ok(path) => eprintln!("[x2v-obs] wrote run report {}", path.display()),
            Err(e) => eprintln!("[x2v-obs] failed to write run report: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share one process; keep them in a single #[test]
    // so they cannot interleave.
    #[test]
    fn global_collection_end_to_end() {
        set_enabled(true);
        reset();
        {
            let _timer = span("test/outer");
            let _inner = span("test/inner");
            counter_add("test/count", 2);
            counter_add("test/count", 3);
            observe("test/hist", 1.0);
            observe("test/hist", 3.0);
        }
        let r = report("unit");
        assert_eq!(r.run, "unit");
        assert_eq!(r.counters["test/count"], 5);
        assert_eq!(r.spans["test/outer"].calls, 1);
        assert_eq!(r.spans["test/inner"].calls, 1);
        let h = &r.histograms["test/hist"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert!((h.sum - 4.0).abs() < 1e-12);

        // Disabled: nothing is recorded, guards are inert.
        set_enabled(false);
        {
            let _timer = span("test/disabled");
            counter_add("test/disabled", 1);
            observe("test/disabled", 1.0);
        }
        set_enabled(true);
        let r = report("unit");
        assert!(!r.spans.contains_key("test/disabled"));
        assert!(!r.counters.contains_key("test/disabled"));
        reset();
        let r = report("unit");
        assert!(r.spans.is_empty() && r.counters.is_empty() && r.histograms.is_empty());
        set_enabled(false);
    }
}
