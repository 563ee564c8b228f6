//! E13 (Section 3.5, \[94\]): the kernel-comparison table — WL subtree
//! kernels at several depths vs shortest-path, graphlet, random-walk and
//! hom-vector kernels, 5-fold cross-validated SVM accuracy per dataset.
//!
//! Expected shape (the paper's claim): WL at t ≈ 5 performs at or near the
//! top while being the cheapest to compute.

use std::time::Instant;
use x2v_bench::harness::{kernel_cv_accuracy, pct, print_header, print_row};
use x2v_core::GraphKernel;
use x2v_datasets::synthetic::standard_suite;
use x2v_kernel::graphlet::GraphletKernel;
use x2v_kernel::hom::LogHomKernel;
use x2v_kernel::random_walk::RandomWalkKernel;
use x2v_kernel::shortest_path::ShortestPathKernel;
use x2v_kernel::wl::WlSubtreeKernel;
use x2v_kernel::wl2::Wl2Kernel;

fn main() {
    let _obs = x2v_bench::ObsRun::new("exp_kernel_table");
    println!("E13 — kernel comparison (5-fold CV accuracy, SVM)\n");
    let suite = standard_suite(42);
    let kernels: Vec<(&str, Box<dyn GraphKernel + Sync>)> = vec![
        ("WL t=1", Box::new(WlSubtreeKernel::new(1))),
        ("WL t=3", Box::new(WlSubtreeKernel::new(3))),
        ("WL t=5", Box::new(WlSubtreeKernel::new(5))),
        ("WL disc", Box::new(WlSubtreeKernel::discounted(5))),
        ("2-WL", Box::new(Wl2Kernel::new(2))),
        ("SP", Box::new(ShortestPathKernel::new())),
        ("graphlet", Box::new(GraphletKernel::three_four())),
        ("RW", Box::new(RandomWalkKernel::new(0.05, 6))),
        ("hom-log", Box::new(LogHomKernel::trees_and_cycles(20))),
    ];
    let mut widths = vec![10usize];
    widths.extend(std::iter::repeat_n(22, suite.len()));
    let mut header: Vec<&str> = vec!["kernel"];
    for d in &suite {
        header.push(d.name);
    }
    print_header(&header, &widths);
    for (name, kernel) in &kernels {
        let mut cells = vec![name.to_string()];
        for dataset in &suite {
            let start = Instant::now();
            let acc = kernel_cv_accuracy(kernel.as_ref(), dataset, 5, 7);
            let ms = start.elapsed().as_millis();
            cells.push(format!("{} ({ms} ms)", pct(acc)));
        }
        print_row(&cells, &widths);
    }
    println!(
        "\ndatasets: {} graphs each; circulant-vs-regular is the 1-WL-hard task",
        suite[0].len()
    );
    println!("(regular graphs are WL-monochromatic — subtree features see nothing,");
    println!("cycle/graphlet counts do).");
}
