//! E22 (Theorem 4.11, Lovász \[66\]): homomorphism counts from *directed
//! acyclic graphs* determine directed graphs up to isomorphism — checked
//! exhaustively: for every pair of non-isomorphic digraphs of order ≤ 3
//! (and a sample at order 4), some DAG of order ≤ 3 separates them.

use x2v_bench::harness::{print_header, print_row};
use x2v_hom::digraph::{all_dags_up_to, all_digraphs, digraphs_isomorphic, hom_count_digraph};

fn main() {
    let _obs = x2v_bench::ObsRun::new("exp_thm411_digraphs");
    println!("E22 — Theorem 4.11: Hom_DA determines directed isomorphism\n");
    let dag_basis = all_dags_up_to(3);
    println!(
        "DAG basis: all acyclic digraphs of order <= 3 ({} DAGs)\n",
        dag_basis.len()
    );
    let widths = [8, 14, 14, 16];
    print_header(&["order", "digraphs", "pairs", "all separated?"], &widths);
    for n in 2..=3usize {
        let digraphs = all_digraphs(n);
        let mut pairs = 0usize;
        let mut separated = 0usize;
        for i in 0..digraphs.len() {
            for j in (i + 1)..digraphs.len() {
                pairs += 1;
                assert!(
                    !digraphs_isomorphic(&digraphs[i], &digraphs[j]),
                    "enumeration must be iso-free"
                );
                let sep = dag_basis.iter().any(|f| {
                    hom_count_digraph(f, &digraphs[i]) != hom_count_digraph(f, &digraphs[j])
                });
                if sep {
                    separated += 1;
                }
            }
        }
        print_row(
            &[
                n.to_string(),
                digraphs.len().to_string(),
                pairs.to_string(),
                format!("{separated}/{pairs}"),
            ],
            &widths,
        );
        assert_eq!(
            separated, pairs,
            "Theorem 4.11 must separate every pair at order {n}"
        );
    }
    // Order 4 sample: the DAG basis of order ≤ 3 is no longer guaranteed to
    // suffice (the theorem quantifies over all DAGs) — report the rate.
    let digraphs = all_digraphs(4);
    let sample: Vec<_> = digraphs.iter().step_by(9).collect();
    let mut pairs = 0;
    let mut separated = 0;
    for i in 0..sample.len() {
        for j in (i + 1)..sample.len() {
            pairs += 1;
            if dag_basis
                .iter()
                .any(|f| hom_count_digraph(f, sample[i]) != hom_count_digraph(f, sample[j]))
            {
                separated += 1;
            }
        }
    }
    println!(
        "\norder-4 sample ({} digraphs): truncated order-<=3 DAG basis separates {separated}/{pairs} pairs",
        sample.len()
    );
    println!("(the theorem guarantees separation by *some* DAG; the truncation shows");
    println!("how much of the separating power small DAGs already carry).");
}
