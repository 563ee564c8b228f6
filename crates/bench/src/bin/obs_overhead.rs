//! Observability overhead check backing the x2v-obs cost claims.
//!
//! ```text
//! cargo run --release -p x2v-bench --bin obs_overhead
//! ```
//!
//! Prints the per-call cost of each obs primitive, disabled and enabled,
//! and of a WL t=5 Gram build with collection off and on. Exits 1 when
//! one of four bounds is broken:
//!
//! * a span with tracing compiled in (x2v-prof linked, `X2V_TRACE`
//!   unset) but obs disabled costs < 10 ns/call — the fast path is one
//!   relaxed atomic load;
//! * a disabled windowed counter costs < 10 ns/call (same fast path);
//! * an enabled windowed observe costs < 10 µs/call — two uncontended
//!   mutex-protected hash updates, meant for request granularity;
//! * the 30-graph WL t=5 Gram built through `gram_resumable` (the builder
//!   every pipeline runs) with obs on takes at most 1.15× as long as with
//!   obs off.
//!
//! The bounds leave headroom for shared-machine noise; the printed
//! figures carry the precise numbers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use x2v_graph::generators::gnp;
use x2v_graph::Graph;
use x2v_kernel::gram::gram_resumable;
use x2v_kernel::wl::WlSubtreeKernel;

/// Mean wall time per call of `f` over `reps` calls, after `reps / 10`
/// untimed warm-up calls.
fn per_call_ns(reps: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..reps / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

fn print_ns(name: &str, ns: f64) {
    println!("{name:<32} {ns:>12.2} ns/call");
}

fn span_call(name: &'static str) {
    let guard = x2v_obs::span(black_box(name));
    black_box(&guard);
}

/// Wall time of one WL t=5 Gram build, pinned to one worker thread.
fn gram_secs(graphs: &[Graph]) -> f64 {
    let start = Instant::now();
    let m = x2v_par::with_threads(1, || {
        gram_resumable(&WlSubtreeKernel::new(5), graphs, "obs-overhead")
    })
    .unwrap_or_else(|e| panic!("{e}"));
    black_box(m);
    start.elapsed().as_secs_f64()
}

fn main() {
    assert!(
        !x2v_prof::tracing_enabled(),
        "tracing must be off (unset X2V_TRACE) for the disabled-cost bounds"
    );
    let mut broken: Vec<String> = Vec::new();

    x2v_obs::set_enabled(false);
    let span_off = per_call_ns(2_000_000, || span_call("bench/trace_disabled"));
    print_ns("obs_span_disabled", span_off);
    if span_off >= 10.0 {
        broken.push(format!(
            "disabled span with tracer linked costs {span_off:.2} ns/call (budget 10 ns)"
        ));
    }
    print_ns(
        "obs_counter_disabled",
        per_call_ns(2_000_000, || {
            x2v_obs::counter_add(black_box("bench/disabled_counter"), 1)
        }),
    );
    let windowed_off = per_call_ns(2_000_000, || {
        x2v_obs::windowed_counter_add(black_box("bench/w_disabled"), 1)
    });
    print_ns("obs_windowed_counter_disabled", windowed_off);
    if windowed_off >= 10.0 {
        broken.push(format!(
            "disabled windowed counter costs {windowed_off:.2} ns/call (budget 10 ns)"
        ));
    }

    x2v_obs::set_enabled(true);
    print_ns(
        "obs_span_enabled",
        per_call_ns(200_000, || span_call("bench/enabled")),
    );
    print_ns(
        "obs_windowed_counter_enabled",
        per_call_ns(200_000, || {
            x2v_obs::windowed_counter_add(black_box("bench/w_enabled"), 1)
        }),
    );
    let observe_on = per_call_ns(200_000, || {
        x2v_obs::windowed_observe(black_box("bench/w_hist"), black_box(1.5))
    });
    print_ns("obs_windowed_observe_enabled", observe_on);
    if observe_on >= 10_000.0 {
        broken.push(format!(
            "enabled windowed observe costs {:.3} µs/call (budget 10 µs)",
            observe_on / 1e3
        ));
    }
    x2v_obs::set_enabled(false);
    x2v_obs::reset();
    x2v_obs::global_window().reset();

    let mut rng = StdRng::seed_from_u64(17);
    let graphs: Vec<_> = (0..30).map(|_| gnp(25, 0.2, &mut rng)).collect();
    let reps = 30;
    for _ in 0..3 {
        gram_secs(&graphs); // warm up caches and the interner allocator
    }
    // Off and on builds alternate, so drift in the machine's speed over
    // the run lands on both totals alike.
    let (mut off, mut on) = (0.0, 0.0);
    for _ in 0..reps {
        x2v_obs::set_enabled(false);
        off += gram_secs(&graphs);
        x2v_obs::set_enabled(true);
        on += gram_secs(&graphs);
    }
    x2v_obs::set_enabled(false);
    x2v_obs::reset();
    print_ns("wl_gram_obs_off", off * 1e9 / reps as f64);
    print_ns("wl_gram_obs_on", on * 1e9 / reps as f64);
    let overhead = (on - off) / off * 100.0;
    println!("wl_gram obs overhead: off {off:.4}s on {on:.4}s ({overhead:+.2}%)");
    if on > off * 1.15 {
        broken.push(format!(
            "obs-enabled Gram regressed {overhead:.1}% (budget 15%)"
        ));
    }

    if !broken.is_empty() {
        for b in &broken {
            eprintln!("obs_overhead: {b}");
        }
        std::process::exit(1);
    }
    println!("obs_overhead: all four bounds hold");
}
