//! Concurrency fault drills for the x2v-par runtime.
//!
//! Programmatic scenarios (plain `cargo test`): an armed
//! `panic@par/worker` fault panics a worker mid-job and must surface as a
//! clean typed [`GuardError::WorkerPanic`] on fallible call sites (and as
//! an ordinary re-panic on infallible ones), leave the pool un-poisoned,
//! and leave the obs registry able to produce an intact report. A
//! cross-thread [`CancelToken`] must cancel a parallel Gram build
//! mid-flight.
//!
//! CI matrix leg (`X2V_FAULTS=panic@par/worker cargo test --test
//! par_faults`): the same containment path driven through the environment
//! grammar instead of the programmatic API. Fault slots are process-global
//! one-shots, so everything runs inside ONE `#[test]` which picks the
//! scenario from the environment.

use x2v_core::GraphKernel;
use x2v_datasets::synthetic::cycles_vs_trees;
use x2v_graph::generators::gnp;
use x2v_graph::Graph;
use x2v_guard::{faults, Budget, CancelToken, GuardError};
use x2v_kernel::gram::{gram_resumable, PairwiseEval};
use x2v_kernel::wl::WlSubtreeKernel;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_graphs() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(5);
    (0..10).map(|_| gnp(12, 0.25, &mut rng)).collect()
}

#[test]
fn worker_panics_are_contained_and_cancel_reaches_workers() {
    x2v_obs::set_enabled(true);
    x2v_guard::clear_ambient();
    x2v_ckpt::clear_ambient();

    if let Ok(spec) = std::env::var("X2V_FAULTS") {
        // ---- CI matrix leg: the fault is armed by the environment.
        let kind = spec.split('@').next().unwrap_or_default().trim();
        if kind != "panic" {
            eprintln!("X2V_FAULTS={spec:?} targets another drill; skipping");
            return;
        }
        assert!(
            faults::any_armed(),
            "X2V_FAULTS={spec:?} parsed to no armed fault"
        );
        env_armed_worker_panic(&spec);
        return;
    }
    faults::clear();

    let kernel = WlSubtreeKernel::new(3);
    let graphs = small_graphs();
    let clean = x2v_par::with_threads(4, || kernel.gram(&graphs));

    // ---- Fallible call site: the armed worker panic surfaces as the
    // typed error, naming the site and carrying the panic message.
    faults::inject_panic(x2v_par::WORKER_SITE, 1);
    let err = x2v_par::with_threads(4, || gram_resumable(&kernel, &graphs, "par-faults"))
        .expect_err("armed worker panic must fail the build");
    match &err {
        GuardError::WorkerPanic { site, detail, .. } => {
            assert_eq!(*site, x2v_par::WORKER_SITE);
            assert!(
                detail.contains("injected panic fault"),
                "detail must carry the panic message, got {detail:?}"
            );
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    // The error renders with triage guidance like every guard error.
    assert!(format!("{err}").contains("worker panic at par/worker"));

    // ---- No poisoned state: the very next job on the same pool completes
    // and reproduces the clean result bit for bit.
    faults::clear();
    let after = x2v_par::with_threads(4, || gram_resumable(&kernel, &graphs, "par-faults"))
        .expect("pool must survive a contained panic");
    for i in 0..graphs.len() {
        for j in 0..graphs.len() {
            assert_eq!(
                after[(i, j)].to_bits(),
                kernel.eval(&graphs[i], &graphs[j]).to_bits(),
                "post-panic gram entry ({i},{j})"
            );
        }
    }
    drop(clean);

    // ---- Infallible call site: the panic re-surfaces as a panic (the
    // serial contract), and the pool again survives.
    faults::inject_panic(x2v_par::WORKER_SITE, 1);
    let caught = std::panic::catch_unwind(|| x2v_par::with_threads(4, || kernel.gram(&graphs)));
    faults::clear();
    let payload = caught.expect_err("armed worker panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "opaque".into());
    assert!(msg.contains("injected panic fault"), "got {msg:?}");
    let survived = x2v_par::with_threads(4, || kernel.gram(&graphs));
    assert_eq!(survived.as_slice(), after.as_slice());

    // ---- Cross-thread cancellation mid-flight: a CancelToken fired from
    // another thread while the parallel Gram build is running surfaces as
    // the typed Cancelled error at the build site.
    let ds = cycles_vs_trees(60, 10, 17);
    let token = CancelToken::new();
    x2v_guard::install_ambient(Budget::unlimited().with_cancel(token.clone()));
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            token.cancel();
        })
    };
    // Pairwise evaluation keeps this build running well past the 5 ms
    // cancel; the feature-map entries would finish it in about 1 ms.
    let pairwise = PairwiseEval(&kernel);
    let res = x2v_par::with_threads(4, || gram_resumable(&pairwise, &ds.graphs, "par-cancel"));
    canceller.join().expect("canceller thread");
    x2v_guard::clear_ambient();
    assert!(
        matches!(res, Err(GuardError::Cancelled { .. })),
        "got {res:?}"
    );

    // ---- The obs registry survived all of it: the report renders, the
    // fault fired twice, and the pool counters moved.
    let report = x2v_obs::report("par-faults");
    assert!(
        report
            .counters
            .get("guard/faults_injected")
            .copied()
            .unwrap_or(0)
            >= 2
    );
    assert!(report.counters.get("par/tasks").copied().unwrap_or(0) > 0);
    assert!(!report.to_json().is_empty());
}

/// The CI leg: `X2V_FAULTS=panic@par/worker` armed through the
/// environment must take the same containment path.
fn env_armed_worker_panic(spec: &str) {
    let caught = std::panic::catch_unwind(|| {
        x2v_par::with_threads(4, || x2v_par::map_items(64, 1, |i| i * i))
    });
    match caught {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "opaque".into());
            assert!(
                msg.contains("injected panic fault"),
                "X2V_FAULTS={spec:?} produced unexpected panic {msg:?}"
            );
        }
        Ok(_) => panic!("X2V_FAULTS={spec:?} did not fire in 64 chunks"),
    }
    // One-shot: the next job runs clean on the surviving pool.
    let ok = x2v_par::with_threads(4, || x2v_par::map_items(64, 1, |i| i * i));
    assert_eq!(ok, (0..64).map(|i| i * i).collect::<Vec<_>>());
}
