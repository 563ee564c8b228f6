//! Resume safety of the Gram checkpoint: a checkpoint left by an
//! interrupted build must never be merged into a build over a different
//! dataset, even one whose graphs have the same orders and sizes. Own
//! test binary because the ambient store, resume flag and budget are
//! process-wide.

use x2v_graph::generators::{path, star};
use x2v_graph::Graph;
use x2v_guard::{Budget, GuardError};
use x2v_kernel::gram::gram_resumable;
use x2v_kernel::wl::WlSubtreeKernel;

#[test]
fn resume_on_a_same_shape_dataset_cold_starts() {
    x2v_obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("x2v-gram-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    x2v_ckpt::install_ambient(x2v_ckpt::Store::open(&dir).expect("open store"));
    x2v_ckpt::set_resume(true);

    // Dataset A: paths P_4..P_13. Each alternative keeps every graph's
    // order and size: `relabelled` changes only node labels, `rewired`
    // only the adjacency (a star on as many nodes and edges).
    let a: Vec<Graph> = (4..14).map(path).collect();
    let relabelled: Vec<Graph> = a
        .iter()
        .map(|g| {
            let labels = (0..g.order() as u32).map(|v| v % 2).collect();
            g.clone().with_labels(labels).expect("one label per node")
        })
        .collect();
    let rewired: Vec<Graph> = (3..13).map(star).collect();
    let kernel = WlSubtreeKernel::new(3);

    for (name, b) in [("relabelled", relabelled), ("rewired", rewired)] {
        for (ga, gb) in a.iter().zip(&b) {
            assert_eq!((ga.order(), ga.size()), (gb.order(), gb.size()));
        }
        let expected = gram_resumable(&kernel, &b, "gram-b-golden").unwrap();
        let resumed_before = x2v_obs::report("gram-resume")
            .counters
            .get("ckpt/resumed")
            .copied()
            .unwrap_or(0);

        // A 20-entry budget cuts A's build after two rows, which are
        // checkpointed under the job before the error surfaces.
        x2v_guard::install_ambient(Budget::unlimited().with_work_limit(20));
        let err = gram_resumable(&kernel, &a, "gram-shared-job").unwrap_err();
        x2v_guard::clear_ambient();
        assert!(matches!(err, GuardError::BudgetExhausted { .. }), "{err:?}");

        // Resuming the same job on B must ignore A's rows.
        let got = gram_resumable(&kernel, &b, "gram-shared-job").unwrap();
        let resumed_after = x2v_obs::report("gram-resume")
            .counters
            .get("ckpt/resumed")
            .copied()
            .unwrap_or(0);
        assert_eq!(
            resumed_before, resumed_after,
            "{name}: A's checkpoint was resumed"
        );
        for (i, (x, y)) in got.as_slice().iter().zip(expected.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}: entry {i}");
        }
    }

    x2v_ckpt::clear_ambient();
    let _ = std::fs::remove_dir_all(&dir);
}
