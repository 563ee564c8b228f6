//! The paper's two empirical claims as shape assertions.
//!
//! * E13 (Section 3.5, [94]): the WL subtree kernel at t = 5 is as
//!   accurate as the other kernels — here, within [`E13_EPS`] of the best
//!   of {WL t=1, t=3, t=5, 2-WL, hom-log} on the subtree-signal datasets —
//!   and it is blind exactly where 1-WL theory says it must be: on the
//!   1-WL-hard circulant-vs-regular task, which the 2-WL kernel solves.
//! * E14 (Section 4): 20-dimensional log-scaled hom vectors over trees and
//!   cycles classify bipartite-vs-odd well, and |F| = 20 beats |F| = 5.
//!
//! Every accuracy is computed exactly as `exp_kernel_table` and
//! `exp_homvec_classification` compute it: `standard_suite(42)`, 5-fold
//! stratified CV with seed 7, a one-vs-rest kernel SVM on the
//! cosine-normalised Gram. Each dataset has 40 graphs, so one
//! misclassified graph moves an accuracy by 0.025. The margin of each
//! threshold against the value measured when it was set is stated beside
//! it.

use x2v_bench::harness::{embedding_cv_accuracy, kernel_cv_accuracy};
use x2v_core::GraphKernel;
use x2v_datasets::synthetic::{standard_suite, GraphDataset};
use x2v_hom::vectors::HomBasis;
use x2v_kernel::hom::LogHomKernel;
use x2v_kernel::wl::WlSubtreeKernel;
use x2v_kernel::wl2::Wl2Kernel;

const FOLDS: usize = 5;
const SEED: u64 = 7;

/// How far WL t=5 may trail the best kernel on a subtree-signal dataset:
/// two graphs of 40. Measured gap: 0 on both datasets (WL t=5 is the best
/// at 1.0).
const E13_EPS: f64 = 0.05;

fn dataset(name: &str) -> GraphDataset {
    standard_suite(42)
        .into_iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("standard_suite has no dataset {name:?}"))
}

fn cv(kernel: &(dyn GraphKernel + Sync), data: &GraphDataset) -> f64 {
    kernel_cv_accuracy(kernel, data, FOLDS, SEED)
}

#[test]
fn e13_wl5_within_eps_of_best_kernel_on_subtree_tasks() {
    let kernels: Vec<(&str, Box<dyn GraphKernel + Sync>)> = vec![
        ("WL t=1", Box::new(WlSubtreeKernel::new(1))),
        ("WL t=3", Box::new(WlSubtreeKernel::new(3))),
        ("WL t=5", Box::new(WlSubtreeKernel::new(5))),
        ("2-WL", Box::new(Wl2Kernel::new(2))),
        ("hom-log", Box::new(LogHomKernel::trees_and_cycles(20))),
    ];
    for name in ["cycles-vs-trees", "er-vs-preferential"] {
        let data = dataset(name);
        let accs: Vec<(&str, f64)> = kernels
            .iter()
            .map(|(k, kernel)| (*k, cv(kernel.as_ref(), &data)))
            .collect();
        let wl5 = accs[2].1;
        let best = accs.iter().map(|&(_, a)| a).fold(0.0, f64::max);
        assert!(
            wl5 >= best - E13_EPS,
            "{name}: WL t=5 at {wl5} trails the best kernel ({best}) by more than {E13_EPS}: {accs:?}"
        );
    }
}

#[test]
fn e13_two_wl_solves_the_one_wl_hard_task() {
    let data = dataset("circulant-vs-regular");
    // Measured 1.0: margin 0.1 (four graphs).
    let wl2 = cv(&Wl2Kernel::new(2), &data);
    assert!(wl2 >= 0.9, "2-WL on circulant-vs-regular: {wl2}");
    // Regular graphs are 1-WL-monochromatic, so WL t=5 is at chance.
    // Measured 0.5: margin 0.1 (four graphs).
    let wl5 = cv(&WlSubtreeKernel::new(5), &data);
    assert!(wl5 <= 0.6, "WL t=5 on circulant-vs-regular: {wl5}");
}

#[test]
fn e14_twenty_hom_patterns_classify_bipartite_vs_odd() {
    let data = dataset("bipartite-vs-odd");
    let acc = |size: usize| {
        let embeds = HomBasis::trees_and_cycles(size).embed_dataset(&data.graphs);
        embedding_cv_accuracy(&embeds, &data.labels, FOLDS, SEED)
    };
    let (f5, f20) = (acc(5), acc(20));
    // Measured 0.975: margin 0.075 (three graphs).
    assert!(f20 >= 0.9, "|F| = 20 on bipartite-vs-odd: {f20}");
    // Measured 0.975 against at most 0.875: a four-graph lead.
    assert!(f20 > f5, "|F| = 20 ({f20}) must beat |F| = 5 ({f5})");
}
