//! E20 (Section 3.2 / Theorem 4.13): weighted 1-WL vs weighted tree
//! homomorphisms (partition functions) on randomised weighted graphs, plus
//! the matrix-WL dimension-reduction table of \[44\].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_bench::harness::{print_header, print_row};
use x2v_graph::generators::{cycle, gnp};
use x2v_graph::ops::{disjoint_union, permute};
use x2v_graph::WeightedGraph;
use x2v_hom::weighted::{weighted_tree_homs_equal, weighted_wl_equivalent};
use x2v_linalg::Matrix;
use x2v_wl::matrix::matrix_wl;

fn main() {
    let _obs = x2v_bench::ObsRun::new("exp_weighted_wl");
    println!("E20 — Theorem 4.13: weighted WL <=> weighted tree homs\n");
    let mut rng = StdRng::seed_from_u64(99);
    let mut pairs_checked = 0;
    let mut agreements = 0;
    // Randomised pairs: permuted copies (equivalent), reweighted copies
    // (inequivalent), structurally equivalent unit-weight pairs.
    for trial in 0..10 {
        let base = gnp(7, 0.4, &mut rng);
        let weights: Vec<(usize, usize, f64)> = base
            .edges()
            .map(|(u, v)| (u, v, (1 + (u + v + trial) % 3) as f64))
            .collect();
        let g = WeightedGraph::from_weighted_edges(7, &weights).unwrap();
        // Permuted copy.
        let perm: Vec<usize> = {
            let mut p: Vec<usize> = (0..7).collect();
            for i in (1..7).rev() {
                let j = rng.random_range(0..=i);
                p.swap(i, j);
            }
            p
        };
        let permuted_edges: Vec<(usize, usize, f64)> = weights
            .iter()
            .map(|&(u, v, w)| (perm[u], perm[v], w))
            .collect();
        let h = WeightedGraph::from_weighted_edges(7, &permuted_edges).unwrap();
        // Reweighted copy (one weight changed).
        let mut changed = weights.clone();
        if let Some(first) = changed.first_mut() {
            first.2 += 10.0;
        }
        let k = WeightedGraph::from_weighted_edges(7, &changed).unwrap();
        for (a, b) in [(&g, &h), (&g, &k)] {
            let wl = weighted_wl_equivalent(a, b);
            let homs = weighted_tree_homs_equal(a, b, 5, 1e-9);
            pairs_checked += 1;
            if wl == homs {
                agreements += 1;
            } else {
                println!("DISAGREEMENT on trial {trial}");
            }
        }
        let _ = permute(&base, &perm);
    }
    // The classic unit-weight equivalent pair.
    let c6 = WeightedGraph::from_graph(&cycle(6));
    let tt = WeightedGraph::from_graph(&disjoint_union(&cycle(3), &cycle(3)));
    assert!(weighted_wl_equivalent(&c6, &tt));
    assert!(weighted_tree_homs_equal(&c6, &tt, 6, 1e-9));
    pairs_checked += 1;
    agreements += 1;
    println!("pairs checked: {pairs_checked}; theorem agreements: {agreements}");
    assert_eq!(pairs_checked, agreements);

    println!("\nmatrix-WL dimension reduction [44] on structured matrices:");
    let widths = [26, 14, 14, 10];
    print_header(&["matrix", "original", "reduced", "rounds"], &widths);
    let cases: Vec<(&str, Matrix)> = vec![
        ("constant 8x8", Matrix::filled(8, 8, 1.0)),
        ("2-block 8x8", block_matrix(8, 2)),
        ("4-block 8x8", block_matrix(8, 4)),
        ("identity 8x8", Matrix::identity(8)),
    ];
    for (name, m) in &cases {
        let p = matrix_wl(m);
        print_row(
            &[
                name.to_string(),
                format!("{}x{}", m.rows(), m.cols()),
                format!("{}x{}", p.num_row_classes, p.num_col_classes),
                p.rounds.to_string(),
            ],
            &widths,
        );
    }
}

fn block_matrix(n: usize, blocks: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let size = n / blocks;
    for i in 0..n {
        for j in 0..n {
            if i / size == j / size {
                m[(i, j)] = (i / size + 1) as f64;
            }
        }
    }
    m
}
