//! Attribution self-test: a delay planted in the benchmark's wrapper
//! around one layer call must show up in that layer's metric and in the
//! traced op time, and in no other layer metric beyond its run-to-run
//! spread.

use std::time::{Duration, Instant};

use x2v_e2ebench::{run, Outcome, RunConfig, Workload, PER_LAYER};

const PLANTED_LAYER: &str = "kernel.svm_train";
const PLANTED_METRIC: &str = "kernel.svm_train_ms";
/// Per call; the CV pipeline trains once per fold, five times per op.
const DELAY: Duration = Duration::from_millis(60);
const CALLS_PER_OP: f64 = 5.0;

fn traced_run(plant: Option<(&'static str, Duration)>) -> Outcome {
    let config = RunConfig {
        workload: Workload::HomVectorCv,
        seed: 11,
        seconds: 3.0,
        trace: true,
        plant,
    };
    let out = run(&config, Instant::now()).expect("batch set-up cannot fail");
    assert!(out.correct(), "traced run found wrong outputs");
    assert_eq!(out.failed, 0);
    out
}

/// Run-to-run spread of a time measured as `a` and `b` by two unplanted
/// runs: three times their difference, with a floor of 30% of the value
/// (the host's speed drifts that much between runs) and a quarter of a
/// millisecond for layers too short to time steadily.
fn spread(a: f64, b: f64) -> f64 {
    (3.0 * (a - b).abs()).max(0.3 * a).max(0.25)
}

#[test]
fn planted_delay_lands_in_its_layer_only() {
    let a = traced_run(None);
    let b = traced_run(None);
    let planted = traced_run(Some((PLANTED_LAYER, DELAY)));
    let per_op_ms = DELAY.as_secs_f64() * 1e3 * CALLS_PER_OP;

    let grew = |name: &str| planted.metric(name).unwrap() - a.metric(name).unwrap();
    assert!(
        grew(PLANTED_METRIC) >= 0.9 * per_op_ms,
        "{PLANTED_METRIC} grew by {} ms, planted {per_op_ms} ms per op",
        grew(PLANTED_METRIC)
    );
    let op = |o: &Outcome| o.traced_p50_ms.unwrap();
    let op_grew = op(&planted) - op(&a);
    let op_spread = spread(op(&a), op(&b));
    assert!(
        op_spread < per_op_ms,
        "op time spread {op_spread} ms hides the plant"
    );
    assert!(
        op_grew >= per_op_ms - op_spread,
        "traced op time grew by {op_grew} ms (spread {op_spread} ms), planted {per_op_ms} ms per op"
    );

    for (name, unit) in PER_LAYER {
        if unit != "ms" || name == PLANTED_METRIC {
            continue;
        }
        let tol = spread(a.metric(name).unwrap(), b.metric(name).unwrap());
        assert!(tol < per_op_ms, "{name}: spread {tol} ms hides the plant");
        assert!(
            grew(name).abs() <= tol,
            "{name} moved by {} ms (spread {tol} ms) when only {PLANTED_METRIC} was delayed",
            grew(name)
        );
    }
}
