//! Cross-crate integration tests: the paper's characterisation theorems
//! exercised through every layer at once (graph substrate → WL → hom →
//! logic → exact linear algebra).

use x2vec_suite::graph::enumerate::{all_connected_graphs, free_trees};
use x2vec_suite::graph::generators::{circulant, cycle, petersen};
use x2vec_suite::graph::iso::are_isomorphic;
use x2vec_suite::graph::ops::{disjoint_union, permute};
use x2vec_suite::hom::indist::{
    cycle_indistinguishable, iso_equations_solvable, path_indistinguishable, tree_indistinguishable,
};
use x2vec_suite::hom::rooted::RootedBasis;
use x2vec_suite::logic::equivalence::{graphs_agree_on, standard_battery};
use x2vec_suite::wl::fractional::{certificate, fractionally_isomorphic, verify_certificate};
use x2vec_suite::wl::Refiner;

/// Every implication chain of Section 4.1 on one WL-equivalent pair:
/// WL-equivalent ⇒ fractionally isomorphic (+ exact certificate) ⇒
/// tree/path-indistinguishable ⇒ C²-agreement.
#[test]
fn implication_chain_on_c6_vs_triangles() {
    let g = cycle(6);
    let h = disjoint_union(&cycle(3), &cycle(3));
    assert!(!are_isomorphic(&g, &h));
    assert!(!Refiner::new().distinguishes(&g, &h));
    assert!(fractionally_isomorphic(&g, &h));
    let cert = certificate(&g, &h).expect("certificate exists");
    assert!(verify_certificate(&g, &h, &cert));
    assert!(tree_indistinguishable(&g, &h));
    assert!(path_indistinguishable(&g, &h));
    assert!(iso_equations_solvable(&g, &h));
    assert!(!cycle_indistinguishable(&g, &h), "hom(C3) separates them");
    let battery = standard_battery(2, 3, 200, 5);
    assert!(graphs_agree_on(&battery, &g, &h));
}

/// The hierarchy of indistinguishability relations is ordered as the paper
/// says: isomorphic ⊆ WL-equivalent ⊆ path-indistinguishable, with all
/// containments checked on the full order-5 universe.
#[test]
fn indistinguishability_hierarchy_order_5() {
    let graphs = all_connected_graphs(5);
    for i in 0..graphs.len() {
        for j in i..graphs.len() {
            let (g, h) = (&graphs[i], &graphs[j]);
            let iso = are_isomorphic(g, h);
            let wl = tree_indistinguishable(g, h);
            let paths = path_indistinguishable(g, h);
            if iso {
                assert!(wl, "iso ⊆ WL: {g:?} vs {h:?}");
            }
            if wl {
                assert!(paths, "WL ⊆ paths: {g:?} vs {h:?}");
                // Theorem 4.6's system must then be solvable.
                assert!(iso_equations_solvable(g, h));
            }
        }
    }
}

/// Rooted-tree hom vectors refine exactly to the WL colours on the
/// Petersen graph (vertex-transitive: all nodes equivalent) and on a
/// perturbed version (equivalence broken).
#[test]
fn rooted_hom_node_equivalences() {
    let basis = RootedBasis::all_rooted_trees(5);
    let g = petersen();
    let e = basis.embed_exact(&g);
    for v in 1..g.order() {
        assert_eq!(e[0], e[v], "vertex-transitive graph: all nodes agree");
    }
    // Remove one edge: symmetry breaks.
    let edges: Vec<(usize, usize)> = g.edges().skip(1).collect();
    let broken = x2vec_suite::graph::Graph::from_edges(10, &edges).unwrap();
    let e2 = basis.embed_exact(&broken);
    assert!(
        (0..10).any(|v| e2[0] != e2[v]),
        "edge removal must break node equivalence"
    );
}

/// WL distinguishing power is invariant under graph isomorphism: for a
/// sample of circulants, permuted copies are never distinguished and the
/// jointly-stable histograms agree.
#[test]
fn wl_isomorphism_invariance_sample() {
    let perms: [[usize; 8]; 3] = [
        [3, 1, 4, 0, 6, 2, 7, 5],
        [7, 6, 5, 4, 3, 2, 1, 0],
        [1, 2, 3, 4, 5, 6, 7, 0],
    ];
    for jumps in [[1usize, 2], [1, 3], [2, 3]] {
        let g = circulant(8, &jumps);
        for p in &perms {
            let h = permute(&g, p);
            assert!(!Refiner::new().distinguishes(&g, &h));
        }
    }
}

/// Free-tree enumeration + tree-hom counting agree with the brute-force
/// oracle through the full pipeline (enumeration → treewidth DP → counts).
#[test]
fn enumerated_trees_count_consistently() {
    let target = petersen();
    for t in free_trees(6) {
        let dp = x2vec_suite::hom::trees::hom_count_tree(&t, &target);
        let decomp = x2vec_suite::hom::decomp::hom_count_decomp(&t, &target);
        let brute = x2vec_suite::hom::brute::hom_count(&t, &target);
        assert_eq!(dp, brute);
        assert_eq!(decomp, brute);
    }
}

/// `tw(G) ≤ td(G) − 1` on every connected graph of order 5: the exact
/// treewidth solver of x2v-hom against the treedepth of x2v-logic.
#[test]
fn treedepth_bounds_treewidth() {
    for g in all_connected_graphs(5) {
        let td = x2vec_suite::logic::treedepth::treedepth(&g);
        let (tw, _) = x2vec_suite::hom::treewidth::exact_treewidth(&g);
        assert!(tw < td, "{g:?}: tw={tw}, td={td}");
    }
}
