//! Closed-form homomorphism counts for paths and cycles.
//!
//! `hom(P_k, G) = 1ᵀ A^{k−1} 1` (walks with k vertices) and
//! `hom(C_k, G) = trace(A^k)` (closed walks) — the identities behind
//! Theorem 4.3 (cycle counts ⟺ co-spectrality) and Theorem 4.6 (path
//! counts ⟺ real solvability of the system (3.2)–(3.3)).
//!
//! These counters are label-blind: they read only the adjacency matrix
//! `A`, so they are spectral quantities of the unlabelled graph, and
//! [`crate::indist`] and the co-spectrality experiments rely on that.
//! A caller that wants `hom(C_k, G)` for a cycle whose vertices all carry
//! label `ℓ` passes the induced subgraph `G[V_ℓ]` instead, as
//! [`crate::vectors::HomBasis`] does.
//!
//! Each sweep works in two buffers of length `n` that swap after every
//! step, so a profile allocates `O(1)` vectors however long it runs.

use std::convert::Infallible;

use x2v_graph::Graph;

/// Exact integer matrix–vector product with the adjacency matrix:
/// `out = A · x`.
fn adj_matvec(g: &Graph, x: &[u128], out: &mut [u128]) {
    for (v, o) in out.iter_mut().enumerate() {
        *o = g.neighbours(v).iter().map(|&w| x[w]).fold(0u128, |acc, y| {
            acc.checked_add(y).expect("walk count overflowed u128")
        });
    }
}

/// `hom(P_k, G)` where `P_k` has `k ≥ 1` vertices: the number of walks with
/// `k` vertices (`k − 1` steps).
pub fn hom_path(k: usize, g: &Graph) -> u128 {
    assert!(k >= 1, "paths have at least one vertex");
    let mut x = vec![1u128; g.order()];
    let mut next = vec![0u128; g.order()];
    for _ in 0..(k - 1) {
        adj_matvec(g, &x, &mut next);
        std::mem::swap(&mut x, &mut next);
    }
    x.iter().sum()
}

/// The path homomorphism *profile* `hom(P_1..P_kmax, G)` in one sweep.
pub fn path_profile(g: &Graph, kmax: usize) -> Vec<u128> {
    let mut out = Vec::with_capacity(kmax);
    let mut x = vec![1u128; g.order()];
    let mut next = vec![0u128; g.order()];
    for _ in 0..kmax {
        out.push(x.iter().sum());
        adj_matvec(g, &x, &mut next);
        std::mem::swap(&mut x, &mut next);
    }
    out
}

/// `hom(C_k, G) = trace(A^k)` for `k ≥ 3`: exact closed-walk count.
pub fn hom_cycle(k: usize, g: &Graph) -> u128 {
    assert!(k >= 3, "cycles have at least three vertices");
    cycle_profile(g, k)[k - 3]
}

/// The cycle homomorphism profile `hom(C_3..C_kmax, G)`.
///
/// Computed column-by-column: `trace(A^k) = Σ_v (A^k)_{vv}` via `k` exact
/// mat-vecs per source vertex. `O(kmax · n · m)`.
pub fn cycle_profile(g: &Graph, kmax: usize) -> Vec<u128> {
    let Ok(profile) = try_cycle_profile(g, kmax, |_| Ok::<(), Infallible>(()));
    profile
}

/// [`cycle_profile`] with a work hook: `tick(n)` runs before each of the
/// `n · kmax` mat-vecs, and an error from it stops the sweep. This is how
/// [`crate::vectors::HomBasis`] meters the sweep against a budget.
pub(crate) fn try_cycle_profile<E>(
    g: &Graph,
    kmax: usize,
    mut tick: impl FnMut(u64) -> Result<(), E>,
) -> Result<Vec<u128>, E> {
    assert!(kmax >= 3, "cycles have at least three vertices");
    let n = g.order();
    let mut traces = vec![0u128; kmax + 1]; // traces[k] = trace(A^k)
    let mut col = vec![0u128; n];
    let mut next = vec![0u128; n];
    for v in 0..n {
        col.fill(0);
        col[v] = 1;
        for k in 1..=kmax {
            tick(n as u64)?;
            adj_matvec(g, &col, &mut next);
            std::mem::swap(&mut col, &mut next);
            traces[k] = traces[k]
                .checked_add(col[v])
                .expect("trace overflowed u128");
        }
    }
    traces.drain(..3);
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use x2v_graph::generators::{complete, cycle, path, petersen, star};
    use x2v_graph::ops::disjoint_union;

    #[test]
    fn path_counts_match_brute_force() {
        let targets = [cycle(5), star(3), petersen()];
        for g in &targets {
            for k in 1..=5usize {
                assert_eq!(hom_path(k, g), brute::hom_count(&path(k), g), "k={k}");
            }
        }
    }

    #[test]
    fn cycle_counts_match_brute_force() {
        let targets = [complete(4), petersen(), cycle(6)];
        for g in &targets {
            for k in 3..=6usize {
                assert_eq!(hom_cycle(k, g), brute::hom_count(&cycle(k), g), "k={k}");
            }
        }
    }

    #[test]
    fn triangle_count_via_trace() {
        // trace(A³) = 6 · #triangles.
        let g = complete(4);
        assert_eq!(hom_cycle(3, &g), 6 * 4);
        assert_eq!(hom_cycle(3, &cycle(6)), 0);
    }

    #[test]
    fn profiles_are_prefixes() {
        let g = petersen();
        let p = path_profile(&g, 6);
        for (i, &c) in p.iter().enumerate() {
            assert_eq!(c, hom_path(i + 1, &g));
        }
        let cp = cycle_profile(&g, 7);
        for (i, &c) in cp.iter().enumerate() {
            assert_eq!(c, hom_cycle(i + 3, &g));
        }
    }

    #[test]
    fn example_4_7_shape_star_vs_c4k1() {
        // The paper's Example 4.7: the co-spectral pair K(1,4) vs C4 ∪ K1
        // has path-hom counts 20 vs 16 for the path with 3 vertices.
        let s = star(4);
        let c4k1 = disjoint_union(&cycle(4), &path(1));
        assert_eq!(hom_path(3, &s), 20);
        assert_eq!(hom_path(3, &c4k1), 16);
        // …but equal cycle profiles (co-spectral).
        assert_eq!(cycle_profile(&s, 8), cycle_profile(&c4k1, 8));
    }
}
