//! Every SVM that E13 trains for WL t=5 converges under the default
//! `SvmConfig`: on each dataset of `standard_suite(42)`, each of the 5
//! stratified folds (seed 7) and each one-vs-rest machine, `try_train`
//! meets the gap criterion well inside `max_iters` instead of returning
//! `NonConvergence`.

use x2v_core::GraphKernel;
use x2v_datasets::splits::stratified_folds;
use x2v_datasets::synthetic::standard_suite;
use x2v_guard::Budget;
use x2v_kernel::gram::normalize;
use x2v_kernel::svm::{KernelSvm, SvmConfig};
use x2v_kernel::wl::WlSubtreeKernel;
use x2v_linalg::Matrix;

#[test]
fn every_e13_wl5_machine_converges_with_the_default_config() {
    let kernel = WlSubtreeKernel::new(5);
    let mut machines = 0;
    for data in standard_suite(42) {
        let gram = normalize(&kernel.gram(&data.graphs));
        let fold_of = stratified_folds(&data.labels, 5, 7);
        for fold in 0..5 {
            let train: Vec<usize> = (0..data.len()).filter(|&i| fold_of[i] != fold).collect();
            let mut sub = Matrix::zeros(train.len(), train.len());
            for (a, &i) in train.iter().enumerate() {
                for (b, &j) in train.iter().enumerate() {
                    sub[(a, b)] = gram[(i, j)];
                }
            }
            let mut classes: Vec<usize> = train.iter().map(|&i| data.labels[i]).collect();
            classes.sort_unstable();
            classes.dedup();
            for class in classes {
                let y: Vec<f64> = train
                    .iter()
                    .map(|&i| if data.labels[i] == class { 1.0 } else { -1.0 })
                    .collect();
                KernelSvm::try_train(&sub, &y, SvmConfig::default(), &Budget::unlimited())
                    .unwrap_or_else(|e| panic!("{} fold {fold} class {class}: {e}", data.name));
                machines += 1;
            }
        }
    }
    // 5 binary datasets × 5 folds × 2 one-vs-rest machines.
    assert_eq!(machines, 50);
}
