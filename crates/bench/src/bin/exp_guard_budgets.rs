//! E26 — the x2v-guard robustness layer in action.
//!
//! Demonstrates every degradation path on deliberately oversized inputs:
//!
//! 1. a wall-clock deadline stopping a hopeless brute-force hom count
//!    (10-vertex frame into a 40-vertex target ≈ 40^10 assignments) with a
//!    typed `BudgetExhausted` well within 2× the deadline;
//! 2. a work-limited partial hom count declaring itself incomplete;
//! 3. exact treewidth degrading to the greedy min-degree upper bound;
//! 4. cooperative cancellation of the same hopeless count;
//! 5. SMO non-convergence under a step cap too small for the problem.
//!
//! Run with `X2V_OBS=json` to see the `guard/*` counters in the report, or
//! pass `--budget-ms N` to bound the whole binary via the ambient budget.

use std::time::Instant;
use x2v_bench::harness::{guarded_main, print_header, print_row};
use x2v_graph::generators::{complete, grid, petersen};
use x2v_graph::ops::disjoint_union;
use x2v_guard::{Budget, CancelToken, GuardError, TRIAGE};
use x2v_hom::brute;
use x2v_hom::treewidth::{treewidth_budgeted, TreewidthQuality};
use x2v_kernel::svm::{KernelSvm, SvmConfig};
use x2v_linalg::Matrix;

fn main() {
    // Exits through the standardized typed exit codes (TRIAGE table).
    guarded_main("exp_guard_budgets", run);
}

fn run() -> Result<(), GuardError> {
    println!("E26 — budgets, cancellation, and graceful degradation\n");
    const W: &[usize] = &[32, 100];
    print_header(&["scenario", "outcome"], W);

    // An instance brute force cannot finish in any reasonable time: the
    // Petersen graph (10 vertices) mapped into a disjoint union of four
    // K_10s (40 vertices) has a 40^10 ≈ 10^16 assignment space.
    let frame = petersen();
    let target = disjoint_union(
        &disjoint_union(&complete(10), &complete(10)),
        &disjoint_union(&complete(10), &complete(10)),
    );

    // 1. Wall-clock deadline.
    let deadline_ms = 50;
    let start = Instant::now();
    let res = brute::try_hom_count(
        &frame,
        &target,
        &Budget::unlimited().with_deadline_ms(deadline_ms),
    );
    let elapsed = start.elapsed().as_millis();
    match res {
        Err(e @ GuardError::BudgetExhausted { .. }) => {
            print_row(
                &[
                    "hom count, 50 ms deadline".to_string(),
                    format!("stopped after {elapsed} ms: {e}"),
                ],
                W,
            );
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert!(
        elapsed <= 2 * u128::from(deadline_ms),
        "deadline overshoot: {elapsed} ms for a {deadline_ms} ms budget"
    );

    // 2. Declared-partial result under a work limit.
    let partial = brute::hom_count_partial(
        &frame,
        &target,
        &Budget::unlimited().with_work_limit(100_000),
    );
    print_row(
        &[
            "hom count, 100k-node work limit".to_string(),
            format!(
                "complete={} after {} nodes (partial count {})",
                partial.complete, partial.work_done, partial.value
            ),
        ],
        W,
    );
    assert!(!partial.complete);

    // 3. Treewidth degradation: the 6×6 grid (36 vertices) is beyond the
    // n ≤ 24 exact DP, so the budgeted form falls back to greedy.
    let g66 = grid(6, 6);
    let (tw, _, quality) = treewidth_budgeted(&g66, &Budget::unlimited());
    print_row(
        &[
            "treewidth of the 6x6 grid".to_string(),
            format!("{tw} ({quality:?}; exact DP would need 2^36 subsets)"),
        ],
        W,
    );
    assert_eq!(quality, TreewidthQuality::UpperBound);

    // 4. Cooperative cancellation, as a remote controller would issue it.
    let token = CancelToken::new();
    token.cancel();
    match brute::try_hom_count(&frame, &target, &Budget::unlimited().with_cancel(token)) {
        Err(e @ GuardError::Cancelled { .. }) => {
            print_row(
                &["hom count, pre-cancelled token".to_string(), e.to_string()],
                W,
            );
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }

    // 5. SMO non-convergence: an indefinite "Gram" matrix with clashing
    // labels needs two working-set steps; a one-step cap stops the solver
    // short of the KKT criterion and the typed diagnostic surfaces.
    let mut hostile = Matrix::zeros(4, 4);
    for i in 0..4 {
        for j in 0..4 {
            hostile[(i, j)] = if i == j { -1.0 } else { 1.0 };
        }
    }
    let config = SvmConfig {
        max_iters: 1,
        ..Default::default()
    };
    match KernelSvm::try_train(
        &hostile,
        &[1.0, -1.0, 1.0, -1.0],
        config,
        &Budget::unlimited(),
    ) {
        Err(e @ GuardError::NonConvergence { .. }) => {
            print_row(&["SMO under a one-step cap".to_string(), e.to_string()], W);
        }
        other => panic!("expected NonConvergence, got {other:?}"),
    }

    println!("\ntriage guide:\n{TRIAGE}");
    Ok(())
}
