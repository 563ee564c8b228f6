//! Windowed metric aggregation: the *live* half of the observability
//! layer.
//!
//! The base [`Registry`](crate::Registry) is cumulative-since-start, which
//! is the right shape for batch experiments but useless for a daemon: a
//! lifetime p99 cannot show a regression that started five minutes ago.
//! This module layers a **ring of time-bucketed sub-registries** over the
//! same counter/histogram primitives, so any metric recorded through
//! [`crate::windowed_counter_add`] / [`crate::windowed_observe`] can be
//! read three ways: *last 10 s*, *last 60 s* (any span up to the ring
//! length, really), and *lifetime* (the base registry, which those entry
//! points also feed).
//!
//! ## Design
//!
//! The ring holds one bucket per wall-clock second, `X2V_OBS_WINDOW_S + 1`
//! of them (the `+1` is the currently-filling partial second). Each bucket
//! is a pair of maps — counters and [`Histogram`]s — whose **allocations
//! are never freed**: rotation zeroes values in place ([`Histogram::reset`]
//! is alloc-free by construction), so after warm-up the record path and the
//! rotation path touch no allocator at all. Rotation is lazy: whoever
//! records or reads first after a second boundary advances the ring,
//! resetting at most `min(elapsed_seconds, ring_len)` buckets — the
//! bounded-rotation contract, tested in this module.
//!
//! A merged read ([`Window::merged`]) sums the newest `N` buckets into one
//! counter map and one histogram per key, then snapshots percentiles from
//! the merged log2 buckets — the same percentile math the lifetime report
//! uses, so windowed and lifetime p50/p99 are directly comparable.
//!
//! ## Cost model
//!
//! The free functions in the crate root gate on [`crate::enabled`], so the
//! disabled fast path stays one relaxed atomic load. Enabled, a windowed
//! record is two mutex-protected hash updates (lifetime + window bucket);
//! both locks are uncontended in the intended serving workload (a handful
//! of worker threads recording at request granularity).

use std::collections::HashMap;
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

use crate::registry::{HistSnapshot, Histogram};

/// Environment variable setting the maximum window span in seconds
/// (default 60, clamped to `1..=600`). The ring holds `span + 1` one-second
/// buckets, so memory is proportional to this value.
pub const WINDOW_ENV: &str = "X2V_OBS_WINDOW_S";

/// Default maximum window span in seconds.
pub const DEFAULT_WINDOW_S: u64 = 60;

/// Upper clamp for [`WINDOW_ENV`] — bounds ring memory and worst-case
/// rotation work.
pub const MAX_WINDOW_S: u64 = 600;

/// One ring slot: the metrics recorded during a single wall-clock second.
/// Keys persist across resets so steady-state rotation never allocates.
#[derive(Default)]
struct Bucket {
    counters: HashMap<String, u64>,
    histograms: HashMap<String, Histogram>,
}

impl Bucket {
    /// Zeroes every value in place, keeping the maps' keys and capacity.
    fn reset(&mut self) {
        for v in self.counters.values_mut() {
            *v = 0;
        }
        for h in self.histograms.values_mut() {
            h.reset();
        }
    }
}

struct Inner {
    /// Ring of per-second buckets; `buckets[head]` is the current second.
    buckets: Vec<Bucket>,
    /// Ring position of the currently-filling bucket.
    head: usize,
    /// Seconds-since-epoch index the head bucket covers.
    head_sec: u64,
}

/// A merged view over the newest buckets of a [`Window`].
#[derive(Clone, Debug, Default)]
pub struct WindowSnapshot {
    /// The window span that was merged (possibly clamped to the ring span).
    pub seconds: u64,
    /// Summed counters over the window, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// Merged histograms over the window, sorted by key, with percentiles
    /// estimated from the merged buckets.
    pub histograms: Vec<(String, HistSnapshot)>,
}

impl WindowSnapshot {
    /// The summed counter `name` over the window (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The merged histogram `name` over the window, if any value was
    /// recorded in it.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }
}

/// A ring of time-bucketed metric sub-registries. The crate maintains one
/// process-global instance behind [`crate::window`]; tests construct their
/// own with a synthetic clock via [`Window::with_span`] and the `*_at`
/// methods.
pub struct Window {
    epoch: Instant,
    span_s: u64,
    inner: Mutex<Inner>,
}

impl Window {
    /// A window covering up to `span_s` seconds (clamped to
    /// `1..=`[`MAX_WINDOW_S`]).
    pub fn with_span(span_s: u64) -> Self {
        let span_s = span_s.clamp(1, MAX_WINDOW_S);
        let len = span_s as usize + 1;
        let mut buckets = Vec::with_capacity(len);
        buckets.resize_with(len, Bucket::default);
        Window {
            epoch: Instant::now(),
            span_s,
            inner: Mutex::new(Inner {
                buckets,
                head: 0,
                head_sec: 0,
            }),
        }
    }

    fn now_sec(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Advances the ring to `now_sec`, resetting every bucket that falls
    /// out of the window. Work is bounded by `min(elapsed, ring_len)`
    /// bucket resets regardless of how long the window sat idle.
    fn rotate_to(inner: &mut Inner, now_sec: u64) {
        let elapsed = now_sec.saturating_sub(inner.head_sec);
        if elapsed == 0 {
            return;
        }
        let len = inner.buckets.len();
        let steps = (elapsed as usize).min(len);
        for _ in 0..steps {
            inner.head = (inner.head + 1) % len;
            inner.buckets[inner.head].reset();
        }
        inner.head_sec = now_sec;
    }

    /// Adds `delta` to windowed counter `name` in the current bucket.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.counter_add_at(name, delta, self.now_sec());
    }

    /// Records one observation into windowed histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_at(name, value, self.now_sec());
    }

    /// [`Window::counter_add`] with an explicit second index (tests drive
    /// the clock deterministically through this).
    pub fn counter_add_at(&self, name: &str, delta: u64, now_sec: u64) {
        let mut inner = self.lock();
        Self::rotate_to(&mut inner, now_sec);
        let head = inner.head;
        match inner.buckets[head].counters.get_mut(name) {
            Some(c) => *c = c.saturating_add(delta),
            None => {
                inner.buckets[head].counters.insert(name.to_string(), delta);
            }
        }
    }

    /// [`Window::observe`] with an explicit second index.
    pub fn observe_at(&self, name: &str, value: f64, now_sec: u64) {
        let mut inner = self.lock();
        Self::rotate_to(&mut inner, now_sec);
        let head = inner.head;
        match inner.buckets[head].histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                inner.buckets[head].histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Merges the newest `window_s` buckets (clamped to the ring span,
    /// including the currently-filling partial second) into one snapshot.
    pub fn merged(&self, window_s: u64) -> WindowSnapshot {
        self.merged_at(window_s, self.now_sec())
    }

    /// [`Window::merged`] with an explicit second index.
    fn merged_at(&self, window_s: u64, now_sec: u64) -> WindowSnapshot {
        let window_s = window_s.clamp(1, self.span_s);
        let mut inner = self.lock();
        Self::rotate_to(&mut inner, now_sec);
        let len = inner.buckets.len();
        let mut counters: HashMap<&str, u64> = HashMap::new();
        let mut histograms: HashMap<&str, Histogram> = HashMap::new();
        // The current partial bucket plus `window_s` completed ones.
        for back in 0..=(window_s as usize) {
            let idx = (inner.head + len - back) % len;
            let bucket = &inner.buckets[idx];
            for (k, &v) in &bucket.counters {
                if v != 0 {
                    *counters.entry(k.as_str()).or_insert(0) += v;
                }
            }
            for (k, h) in &bucket.histograms {
                if h.count() != 0 {
                    histograms.entry(k.as_str()).or_default().merge(h);
                }
            }
        }
        let mut counters: Vec<(String, u64)> = counters
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistSnapshot)> = histograms
            .into_iter()
            .map(|(k, h)| (k.to_string(), h.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        WindowSnapshot {
            seconds: window_s,
            counters,
            histograms,
        }
    }

    /// Clears all buckets (primarily for tests).
    pub fn reset(&self) {
        let mut inner = self.lock();
        for b in inner.buckets.iter_mut() {
            b.reset();
        }
    }
}

fn span_from_env() -> u64 {
    std::env::var(WINDOW_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_WINDOW_S)
        .clamp(1, MAX_WINDOW_S)
}

static GLOBAL_WINDOW: LazyLock<Window> = LazyLock::new(|| Window::with_span(span_from_env()));

/// The process-global window ring (span from [`WINDOW_ENV`], default 60 s).
pub fn global_window() -> &'static Window {
    &GLOBAL_WINDOW
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn merge_respects_the_window_span() {
        let w = Window::with_span(60);
        w.counter_add_at("c", 1, 0);
        w.observe_at("h", 10.0, 0);
        w.counter_add_at("c", 2, 5);
        w.observe_at("h", 20.0, 5);
        // At t=8 a 10s window sees everything…
        let s = w.merged_at(10, 8);
        assert_eq!(s.counter("c"), 3);
        assert_eq!(s.histogram("h").unwrap().count, 2);
        // …a 3s window only the t=5 recordings…
        let s = w.merged_at(3, 8);
        assert_eq!(s.counter("c"), 2);
        assert_eq!(s.histogram("h").unwrap().count, 1);
        assert_eq!(s.histogram("h").unwrap().min, 20.0);
        // …and at t=90 every bucket has rotated out.
        let s = w.merged_at(60, 90);
        assert_eq!(s.counter("c"), 0);
        assert!(s.histogram("h").is_none());
    }

    #[test]
    fn windowed_percentiles_move_when_the_data_moves() {
        // "Slow period then fast period": lifetime percentiles would blur
        // them; the short window must see only the recent regime.
        let w = Window::with_span(60);
        for i in 0..100 {
            w.observe_at("lat", 1.0, 0);
            let _ = i;
        }
        for _ in 0..100 {
            w.observe_at("lat", 100.0, 30);
        }
        let recent = w.merged_at(5, 32);
        let all = w.merged_at(60, 32);
        assert!(recent.histogram("lat").unwrap().p50 > 50.0);
        assert_eq!(all.histogram("lat").unwrap().count, 200);
        assert!(all.histogram("lat").unwrap().p50 < recent.histogram("lat").unwrap().p50);
    }

    #[test]
    fn rotation_is_bounded_and_reuses_allocations() {
        let w = Window::with_span(10);
        for sec in 0..5 {
            w.counter_add_at("c", 1, sec);
            w.observe_at("h", sec as f64 + 1.0, sec);
        }
        // A huge idle gap must not cost more than ring-length resets, and
        // afterwards the window is empty but the maps still hold their keys
        // (reuse — asserted indirectly: recording again works and merge
        // sees exactly the new data).
        w.counter_add_at("c", 7, 1_000_000);
        let s = w.merged_at(10, 1_000_000);
        assert_eq!(s.counter("c"), 7);
        assert!(s.histogram("h").is_none(), "stale data must be gone");
    }

    #[test]
    fn concurrent_rotate_and_record_never_drop_a_recording() {
        // Writers hammer counter_add while a rotator advances the clock.
        // Every recorded unit must land either in a still-live bucket or a
        // rotated-out one — but the *total ever recorded* must equal the
        // sum of what merges saw plus what rotated away; with a span wider
        // than the test duration nothing rotates away, so the merged total
        // must equal the recorded total exactly (no torn read between
        // rotate and record).
        let w = Arc::new(Window::with_span(600));
        let stop = Arc::new(AtomicBool::new(false));
        let recorded = Arc::new(AtomicU64::new(0));
        let clock = Arc::new(AtomicU64::new(0));
        let rotator = {
            let w = Arc::clone(&w);
            let stop = Arc::clone(&stop);
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let sec = clock.fetch_add(1, Ordering::Relaxed) + 1;
                    // Force the rotation from the reader side too.
                    let _ = w.merged_at(600, sec);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            })
        };
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let w = Arc::clone(&w);
                let stop = Arc::clone(&stop);
                let recorded = Arc::clone(&recorded);
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let sec = clock.load(Ordering::Relaxed);
                        w.counter_add_at("units", 1, sec);
                        w.observe_at("v", 1.0, sec);
                        recorded.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        for h in writers {
            h.join().unwrap();
        }
        rotator.join().unwrap();
        let total = recorded.load(Ordering::Relaxed);
        // The rotator advanced ~250 seconds at most — well inside the
        // 600-bucket span, so nothing may have rotated out and the merged
        // totals must conserve every recording exactly.
        let s = w.merged_at(600, clock.load(Ordering::Relaxed));
        assert_eq!(
            s.counter("units"),
            total,
            "rotation dropped or tore recordings"
        );
        assert_eq!(s.histogram("v").unwrap().count, total);
    }

    #[test]
    fn env_span_parsing_clamps() {
        assert_eq!(Window::with_span(0).span_s, 1);
        assert_eq!(Window::with_span(10_000).span_s, MAX_WINDOW_S);
        assert_eq!(Window::with_span(60).span_s, 60);
    }
}
