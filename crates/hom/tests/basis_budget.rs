//! Budget parity for `HomBasis::hom_vector`: whichever plan counts a
//! pattern (tree DP, closed-walk sweep or decomposition DP), an armed
//! fault, a work limit or a cancel token at `hom/decomp` stops the vector
//! with the typed message, and the message is the same at 1 and 8 threads.
//!
//! Fault slots and the ambient budget are process-global, so the whole
//! sweep runs inside ONE `#[test]`, in a test binary of its own.

use std::panic::{catch_unwind, AssertUnwindSafe};

use x2v_graph::enumerate::trees_and_cycles_basis;
use x2v_graph::generators::petersen;
use x2v_graph::Graph;
use x2v_guard::faults::{self, FaultKind};
use x2v_guard::{Budget, CancelToken};
use x2v_hom::decomp;
use x2v_hom::vectors::{hom_vector_over, HomBasis};

/// The panic message of `basis.hom_vector(g)` at `threads` threads, or
/// `None` if it returned.
fn trip_message(basis: &HomBasis, g: &Graph, threads: usize) -> Option<String> {
    let res = catch_unwind(AssertUnwindSafe(|| {
        x2v_par::with_threads(threads, || basis.hom_vector(g))
    }));
    res.err().map(|payload| {
        *payload
            .downcast::<String>()
            .expect("panic payload is the formatted GuardError")
    })
}

/// Arms one trip, runs `hom_vector` at 1 and 8 threads, and checks both
/// panic with the same `hom/decomp` message of the expected kind.
fn assert_trips(name: &str, basis: &HomBasis, g: &Graph, arm: &dyn Fn(), kind: &str) {
    let mut messages = Vec::new();
    for threads in [1, 8] {
        arm();
        let msg = trip_message(basis, g, threads);
        faults::clear();
        x2v_guard::clear_ambient();
        let msg = msg.unwrap_or_else(|| panic!("{name} at {threads} threads did not trip"));
        assert!(
            msg.contains(kind) && msg.contains(decomp::SITE),
            "{name} at {threads} threads: {msg}"
        );
        messages.push(msg);
    }
    assert_eq!(
        messages[0], messages[1],
        "{name}: trips differ by thread count"
    );
}

#[test]
fn every_plan_trips_at_hom_decomp_identically_at_any_thread_count() {
    faults::clear();
    x2v_guard::clear_ambient();
    let all = trees_and_cycles_basis(20);
    let (tree_only, cycle_only): (Vec<Graph>, Vec<Graph>) =
        all.iter().cloned().partition(|f| f.size() + 1 == f.order());
    let bases = [
        ("tree-only", HomBasis::new(tree_only)),
        ("cycle-only", HomBasis::new(cycle_only)),
        ("trees-and-cycles-20", HomBasis::new(all)),
    ];
    let g = petersen();
    let cancelled = CancelToken::new();
    cancelled.cancel();

    for (name, basis) in &bases {
        // With nothing armed the vector is the decomposition DP's.
        assert_eq!(
            basis.hom_vector(&g),
            hom_vector_over(basis.patterns(), &g),
            "{name}"
        );

        let fault = || faults::inject(FaultKind::Budget, decomp::SITE, 1);
        assert_trips(name, basis, &g, &fault, "budget exhausted");

        // Fewer units than one step of any plan: every meter trips on its
        // first tick.
        let limit = || x2v_guard::install_ambient(Budget::unlimited().with_work_limit(5));
        assert_trips(name, basis, &g, &limit, "budget exhausted");

        let cancel =
            || x2v_guard::install_ambient(Budget::unlimited().with_cancel(cancelled.clone()));
        assert_trips(name, basis, &g, &cancel, "cancelled");
    }
}
