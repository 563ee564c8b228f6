//! Deciders for homomorphism indistinguishability over the paper's classes.
//!
//! | class                | decider                                   | paper |
//! |----------------------|-------------------------------------------|-------|
//! | paths `P`            | path profile up to `n_G + n_H + 1`; also the real-solvability LP form | Thm 4.6 |
//! | cycles `C`           | cycle profile up to `max(n_G, n_H)` ⟺ co-spectrality | Thm 4.3 |
//! | trees `T`            | 1-WL indistinguishability                  | Thm 4.4 (k = 1) |
//! | treewidth ≤ k `T_k`  | k-WL indistinguishability                  | Thm 4.4 |
//! | finite classes       | direct exact comparison                    | — |
//!
//! The profile cut-offs are sound: `hom(P_k, G) = 1ᵀA^{k−1}1` satisfies a
//! linear recurrence whose order is at most `deg(minpoly(A)) ≤ n`, so two
//! such sequences that agree on `n_G + n_H` consecutive terms agree
//! everywhere; similarly `trace(A^k) = Σ λ_i^k` is determined by the first
//! `max(n_G, n_H)` power sums (Newton's identities).

use crate::walks::{cycle_profile, path_profile};
use x2v_graph::Graph;
use x2v_linalg::rational::{Rat, RatMatrix};
use x2v_wl::kwl::KwlRefiner;
use x2v_wl::Refiner;

/// Homomorphism indistinguishability over the class of all paths
/// (`Hom_P(G) = Hom_P(H)`).
pub fn path_indistinguishable(g: &Graph, h: &Graph) -> bool {
    let kmax = g.order() + h.order() + 1;
    path_profile(g, kmax) == path_profile(h, kmax)
}

/// Homomorphism indistinguishability over the class of all cycles — by
/// Theorem 4.3 equivalent to co-spectrality.
pub fn cycle_indistinguishable(g: &Graph, h: &Graph) -> bool {
    if g.order() != h.order() {
        // Different orders can still be cycle-indistinguishable only if the
        // extra vertices contribute no closed walks at all; compare padded
        // profiles to the larger order.
        let kmax = g.order().max(h.order()).max(3);
        return cycle_profile(g, kmax) == cycle_profile(h, kmax);
    }
    let kmax = g.order().max(3);
    cycle_profile(g, kmax) == cycle_profile(h, kmax)
}

/// Homomorphism indistinguishability over all trees — by Theorem 4.4
/// equivalent to 1-WL indistinguishability.
pub fn tree_indistinguishable(g: &Graph, h: &Graph) -> bool {
    !Refiner::new().distinguishes(g, h)
}

/// Homomorphism indistinguishability over graphs of treewidth ≤ k — by
/// Theorem 4.4 equivalent to k-WL indistinguishability (`k ≥ 2`; use
/// [`tree_indistinguishable`] for k = 1).
pub fn treewidth_k_indistinguishable(g: &Graph, h: &Graph, k: usize) -> bool {
    if k == 1 {
        return tree_indistinguishable(g, h);
    }
    !KwlRefiner::new(k).distinguishes(g, h)
}

/// Direct comparison of hom-vectors over an explicit finite class.
pub fn indistinguishable_over(class: &[Graph], g: &Graph, h: &Graph) -> bool {
    class
        .iter()
        .all(|f| crate::decomp::hom_count_decomp(f, g) == crate::decomp::hom_count_decomp(f, h))
}

/// Builds the linear system (3.2)–(3.3) of the paper for graphs `g`, `h`:
/// unknowns `X_vw` (row-major `n × n`), equations `AX = XB` and all row/
/// column sums = 1. Returns `(coefficient matrix, rhs)` over ℚ.
fn iso_equations(g: &Graph, h: &Graph) -> (RatMatrix, Vec<Rat>) {
    assert_eq!(g.order(), h.order(), "system defined for equal orders");
    let n = g.order();
    let unknowns = n * n;
    let n_eq = n * n + 2 * n;
    let mut a = RatMatrix::zeros(n_eq, unknowns);
    let mut b = vec![Rat::ZERO; n_eq];
    let idx = |v: usize, w: usize| v * n + w;
    // (3.2): Σ_{v'} A_{vv'} X_{v'w} − Σ_{w'} X_{vw'} B_{w'w} = 0.
    for v in 0..n {
        for w in 0..n {
            let row = idx(v, w);
            for &vp in g.neighbours(v) {
                let cur = a.get(row, idx(vp, w));
                a.set(row, idx(vp, w), cur + Rat::ONE);
            }
            for &wp in h.neighbours(w) {
                let cur = a.get(row, idx(v, wp));
                a.set(row, idx(v, wp), cur - Rat::ONE);
            }
        }
    }
    // (3.3): row sums and column sums equal 1.
    for v in 0..n {
        let row = n * n + v;
        for w in 0..n {
            a.set(row, idx(v, w), Rat::ONE);
        }
        b[row] = Rat::ONE;
    }
    for w in 0..n {
        let row = n * n + n + w;
        for v in 0..n {
            a.set(row, idx(v, w), Rat::ONE);
        }
        b[row] = Rat::ONE;
    }
    (a, b)
}

/// Theorem 4.6's right-hand side: whether equations (3.2)–(3.3) have *a*
/// rational solution (no non-negativity). For integer systems this equals
/// real solvability.
pub fn iso_equations_solvable(g: &Graph, h: &Graph) -> bool {
    if g.order() != h.order() {
        return false;
    }
    let (a, b) = iso_equations(g, h);
    a.solve(&b).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{circulant, cycle, path, star};
    use x2v_graph::ops::{disjoint_union, permute};

    #[test]
    fn cospectral_pair_cycle_indistinguishable_but_not_path() {
        // Figure 6 / Example 4.7: K(1,4) vs C4 ∪ K1.
        let s = star(4);
        let c = disjoint_union(&cycle(4), &path(1));
        assert!(cycle_indistinguishable(&s, &c));
        assert!(!path_indistinguishable(&s, &c));
        assert!(!tree_indistinguishable(&s, &c));
    }

    #[test]
    fn c6_vs_2c3_tree_indistinguishable_not_cycle() {
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        assert!(tree_indistinguishable(&c6, &tt));
        // Both 2-regular on 6 nodes: hom(P_k) = 6·2^{k−1} for each, so they
        // are path-indistinguishable too.
        assert!(path_indistinguishable(&c6, &tt));
        // hom(C3, ·) separates them.
        assert!(!cycle_indistinguishable(&c6, &tt));
        // And 2-WL (treewidth ≤ 2 homs) separates them.
        assert!(!treewidth_k_indistinguishable(&c6, &tt, 2));
    }

    #[test]
    fn isomorphic_graphs_indistinguishable_everywhere() {
        let g = circulant(8, &[1, 2]);
        let h = permute(&g, &[3, 1, 4, 0, 6, 2, 7, 5]);
        assert!(path_indistinguishable(&g, &h));
        assert!(cycle_indistinguishable(&g, &h));
        assert!(tree_indistinguishable(&g, &h));
        assert!(treewidth_k_indistinguishable(&g, &h, 2));
        assert!(iso_equations_solvable(&g, &h));
    }

    #[test]
    fn theorem_3_2_nonneg_vs_theorem_4_6_plain_solutions() {
        // Fractionally isomorphic pairs also solve the unconstrained system.
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        assert!(iso_equations_solvable(&c6, &tt));
        // Degree-mismatched graphs solve neither.
        assert!(!iso_equations_solvable(&path(4), &star(3)));
    }

    #[test]
    fn finite_class_comparison() {
        let class = vec![path(2), path(3), cycle(3), cycle(4)];
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        // C3 ∈ class separates them.
        assert!(!indistinguishable_over(&class, &c6, &tt));
        let pclass = vec![path(2), path(3), path(4)];
        // Path counts up to P4: C6 gives 6, 12, 24, 48; 2×C3 gives 6, 12,
        // 24, 48 — equal.
        assert!(indistinguishable_over(&pclass, &c6, &tt));
    }

    #[test]
    fn equations_shape() {
        let g = cycle(4);
        let (a, b) = iso_equations(&g, &g);
        assert_eq!(a.rows(), 16 + 8);
        assert_eq!(a.cols(), 16);
        assert_eq!(b.len(), 24);
        assert!(iso_equations_solvable(&g, &g));
    }
}
