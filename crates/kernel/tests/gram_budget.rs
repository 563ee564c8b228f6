//! Budget metering of the Gram builder. Lives in its own test binary
//! because the ambient budget is process-wide: installing a tight limit
//! next to unrelated parallel tests would trip them spuriously.

use x2v_graph::generators::{cycle, path, star};
use x2v_graph::Graph;
use x2v_kernel::gram::{gram_resumable, PairwiseEval};
use x2v_kernel::wl::WlSubtreeKernel;

fn graphs() -> Vec<Graph> {
    vec![cycle(5), path(7), star(4), cycle(4), path(3)]
}

/// One work unit per Gram entry whichever way entries are evaluated: an
/// entry-sized budget admits the build, one unit less trips it — at the
/// same point for the feature-map entries and the pairwise oracle.
/// Single test function so the two ambient installations never overlap.
#[test]
fn both_builders_meter_one_unit_per_entry() {
    let kernel = WlSubtreeKernel::new(2);
    let graphs = graphs();
    let n = graphs.len();
    let entries = (n * (n + 1) / 2) as u64;

    x2v_guard::install_ambient(x2v_guard::Budget::unlimited().with_work_limit(entries));
    assert!(gram_resumable(&kernel, &graphs, "budget-feat").is_ok());
    assert!(gram_resumable(&PairwiseEval(&kernel), &graphs, "budget-pair").is_ok());

    x2v_guard::install_ambient(x2v_guard::Budget::unlimited().with_work_limit(entries - 1));
    let feat = gram_resumable(&kernel, &graphs, "budget-feat");
    assert!(
        matches!(feat, Err(x2v_guard::GuardError::BudgetExhausted { .. })),
        "{feat:?}"
    );
    let pair = gram_resumable(&PairwiseEval(&kernel), &graphs, "budget-pair");
    assert!(
        matches!(pair, Err(x2v_guard::GuardError::BudgetExhausted { .. })),
        "{pair:?}"
    );
    x2v_guard::clear_ambient();
}
