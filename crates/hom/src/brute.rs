//! Brute-force homomorphism machinery — the exact oracle.
//!
//! Backtracking over vertex images with incremental edge checks. Exponential
//! (`O(n^{|F|})`), intended for small pattern graphs and as ground truth for
//! the polynomial algorithms in [`crate::trees`], [`crate::walks`] and
//! [`crate::decomp`].
//!
//! All maps respect node labels: `h(u)` must carry the same label as `u`
//! (trivially satisfied for unlabelled graphs, where all labels are 0).

use x2v_graph::Graph;
use x2v_guard::{Budget, GuardError, Meter, Partial};

/// The guarded-site name for the brute-force backtracker (errors, fault
/// injection and docs all refer to it).
pub const SITE: &str = "hom/brute";

/// Counts homomorphisms `F → G`.
///
/// Metered against the ambient [`Budget`]; panics with an actionable
/// message when it trips (use [`try_hom_count`] for a recoverable error,
/// [`hom_count_partial`] for a declared-partial count).
pub fn hom_count(f: &Graph, g: &Graph) -> u128 {
    let budget = x2v_guard::ambient();
    try_hom_count(f, g, &budget).unwrap_or_else(|e| panic!("{e}"))
}

/// Counts homomorphisms `F → G` within `budget`.
///
/// # Errors
/// [`GuardError::BudgetExhausted`] / [`GuardError::Cancelled`] when the
/// budget trips; one work unit is one backtracking node.
pub fn try_hom_count(f: &Graph, g: &Graph, budget: &Budget) -> x2v_guard::Result<u128> {
    let _timer = x2v_obs::span("hom/brute_hom_count");
    let mut total = 0u128;
    let outcome = guarded_count(f, g, budget, &mut |_| {}, &mut total);
    outcome.map(|()| total)
}

/// Counts homomorphisms `F → G` within `budget`, returning whatever was
/// counted when the budget tripped as a declared-[`Partial`] result (and
/// recording `guard/degraded`) instead of erroring.
pub fn hom_count_partial(f: &Graph, g: &Graph, budget: &Budget) -> Partial<u128> {
    let _timer = x2v_obs::span("hom/brute_hom_count");
    let mut total = 0u128;
    let mut work = 0u64;
    match guarded_count_with_work(f, g, budget, &mut |_| {}, &mut total, &mut work) {
        Ok(()) => Partial::complete(total, work),
        Err(_) => Partial::degraded(total, work),
    }
}

/// Runs the ordered backtracker under a meter, accumulating into `total`
/// so the partial count survives an early exit.
fn guarded_count<V: FnMut(&[usize])>(
    f: &Graph,
    g: &Graph,
    budget: &Budget,
    visit: &mut V,
    total: &mut u128,
) -> x2v_guard::Result<()> {
    let mut work = 0u64;
    guarded_count_with_work(f, g, budget, visit, total, &mut work)
}

fn guarded_count_with_work<V: FnMut(&[usize])>(
    f: &Graph,
    g: &Graph,
    budget: &Budget,
    visit: &mut V,
    total: &mut u128,
    work: &mut u64,
) -> x2v_guard::Result<()> {
    // Order F's vertices so each (after the first in its component) has a
    // predecessor among already-placed vertices — prunes early.
    let order = connectivity_order(f);
    let gbits = g.adjacency_bits();
    let mut image = vec![usize::MAX; f.order()];
    let mut meter = budget.meter(SITE);
    let outcome = count_rec(
        f, g, &gbits, &order, 0, &mut image, visit, &mut meter, total,
    );
    *work = meter.work_done();
    x2v_obs::counter_add("hom/recursion_nodes", meter.work_done());
    outcome
}

/// Counts homomorphisms with a pinned root: `hom(F, G; r ↦ v)`.
pub fn hom_count_rooted(f: &Graph, root: usize, g: &Graph, v: usize) -> u128 {
    let budget = x2v_guard::ambient();
    try_hom_count_rooted(f, root, g, v, &budget).unwrap_or_else(|e| panic!("{e}"))
}

/// Counts rooted homomorphisms `hom(F, G; r ↦ v)` within `budget`.
///
/// # Errors
/// [`GuardError::BudgetExhausted`] / [`GuardError::Cancelled`] when the
/// budget trips; [`GuardError::InvalidInput`] on out-of-range vertices.
fn try_hom_count_rooted(
    f: &Graph,
    root: usize,
    g: &Graph,
    v: usize,
    budget: &Budget,
) -> x2v_guard::Result<u128> {
    if root >= f.order() || v >= g.order() {
        return Err(GuardError::invalid_input(
            SITE,
            format!(
                "root {root} / image {v} out of range for |F| = {}, |G| = {}",
                f.order(),
                g.order()
            ),
        ));
    }
    if f.label(root) != g.label(v) {
        return Ok(0);
    }
    let order = connectivity_order_from(f, root);
    let gbits = g.adjacency_bits();
    let mut image = vec![usize::MAX; f.order()];
    image[root] = v;
    let mut meter = budget.meter(SITE);
    let mut total = 0u128;
    let outcome = count_rec(
        f,
        g,
        &gbits,
        &order,
        1,
        &mut image,
        &mut |_| {},
        &mut meter,
        &mut total,
    );
    x2v_obs::counter_add("hom/recursion_nodes", meter.work_done());
    outcome.map(|()| total)
}

/// Counts embeddings (injective homomorphisms) `emb(F, G)`.
pub fn emb_count(f: &Graph, g: &Graph) -> u128 {
    let budget = x2v_guard::ambient();
    try_emb_count(f, g, &budget).unwrap_or_else(|e| panic!("{e}"))
}

/// Counts embeddings `emb(F, G)` within `budget`.
///
/// # Errors
/// [`GuardError::BudgetExhausted`] / [`GuardError::Cancelled`] when the
/// budget trips.
fn try_emb_count(f: &Graph, g: &Graph, budget: &Budget) -> x2v_guard::Result<u128> {
    let _timer = x2v_obs::span("hom/brute_emb_count");
    let order = connectivity_order(f);
    let gbits = g.adjacency_bits();
    let mut image = vec![usize::MAX; f.order()];
    let mut meter = budget.meter(SITE);
    let mut total = 0u128;
    let outcome = count_injective(
        f,
        g,
        &gbits,
        &order,
        0,
        &mut image,
        &mut vec![false; g.order()],
        &mut meter,
        &mut total,
    );
    x2v_obs::counter_add("hom/recursion_nodes", meter.work_done());
    outcome.map(|()| total)
}

/// Counts epimorphisms `epi(F, G)`: homomorphisms surjective on vertices
/// *and* edges (the decomposition used in the proof of Theorem 4.2).
pub fn epi_count(f: &Graph, g: &Graph) -> u128 {
    let budget = x2v_guard::ambient();
    try_epi_count(f, g, &budget).unwrap_or_else(|e| panic!("{e}"))
}

/// Counts epimorphisms `epi(F, G)` within `budget`.
///
/// # Errors
/// [`GuardError::BudgetExhausted`] / [`GuardError::Cancelled`] when the
/// budget trips.
fn try_epi_count(f: &Graph, g: &Graph, budget: &Budget) -> x2v_guard::Result<u128> {
    let _timer = x2v_obs::span("hom/brute_epi_count");
    if f.order() < g.order() || f.size() < g.size() {
        return Ok(0);
    }
    let mut total = 0u128;
    let mut check = |image: &[usize]| {
        // Vertex surjectivity.
        let mut vertex_hit = vec![false; g.order()];
        for &x in image {
            vertex_hit[x] = true;
        }
        if !vertex_hit.iter().all(|&b| b) {
            return;
        }
        // Edge surjectivity.
        let mut edges_hit = 0usize;
        let mut seen = vec![false; g.order() * g.order()];
        for (u, v) in f.edges() {
            let (a, b) = (image[u].min(image[v]), image[u].max(image[v]));
            if !seen[a * g.order() + b] {
                seen[a * g.order() + b] = true;
                edges_hit += 1;
            }
        }
        if edges_hit == g.size() {
            total += 1;
        }
    };
    let mut hom_total = 0u128;
    guarded_count(f, g, budget, &mut check, &mut hom_total)?;
    Ok(total)
}

/// A placement order where each vertex (when possible) is adjacent to an
/// earlier one: BFS from each unvisited vertex.
fn connectivity_order(f: &Graph) -> Vec<usize> {
    let mut order = Vec::with_capacity(f.order());
    let mut seen = vec![false; f.order()];
    for s in 0..f.order() {
        if !seen[s] {
            bfs_into(f, s, &mut seen, &mut order);
        }
    }
    order
}

fn connectivity_order_from(f: &Graph, root: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(f.order());
    let mut seen = vec![false; f.order()];
    bfs_into(f, root, &mut seen, &mut order);
    for s in 0..f.order() {
        if !seen[s] {
            bfs_into(f, s, &mut seen, &mut order);
        }
    }
    order
}

fn bfs_into(f: &Graph, s: usize, seen: &mut [bool], order: &mut Vec<usize>) {
    let mut queue = std::collections::VecDeque::new();
    seen[s] = true;
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in f.neighbours(v) {
            if !seen[w] {
                seen[w] = true;
                queue.push_back(w);
            }
        }
    }
}

/// One backtracking node = one work unit; partial counts accumulate into
/// `total` so an early budget exit still reports everything found so far.
#[allow(clippy::too_many_arguments)]
fn count_rec<V: FnMut(&[usize])>(
    f: &Graph,
    g: &Graph,
    gbits: &[Vec<u64>],
    order: &[usize],
    depth: usize,
    image: &mut [usize],
    visit: &mut V,
    meter: &mut Meter<'_>,
    total: &mut u128,
) -> x2v_guard::Result<()> {
    meter.tick(1)?;
    if depth == order.len() {
        visit(image);
        *total += 1;
        return Ok(());
    }
    let u = order[depth];
    'candidates: for x in 0..g.order() {
        if f.label(u) != g.label(x) {
            continue;
        }
        // Edges to already-placed neighbours must map to edges.
        for &w in f.neighbours(u) {
            let im = image[w];
            if im != usize::MAX && gbits[x][im / 64] >> (im % 64) & 1 == 0 {
                continue 'candidates;
            }
        }
        image[u] = x;
        count_rec(f, g, gbits, order, depth + 1, image, visit, meter, total)?;
        image[u] = usize::MAX;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn count_injective(
    f: &Graph,
    g: &Graph,
    gbits: &[Vec<u64>],
    order: &[usize],
    depth: usize,
    image: &mut [usize],
    used: &mut Vec<bool>,
    meter: &mut Meter<'_>,
    total: &mut u128,
) -> x2v_guard::Result<()> {
    meter.tick(1)?;
    if depth == order.len() {
        *total += 1;
        return Ok(());
    }
    let u = order[depth];
    'candidates: for x in 0..g.order() {
        if used[x] || f.label(u) != g.label(x) {
            continue;
        }
        for &w in f.neighbours(u) {
            let im = image[w];
            if im != usize::MAX && gbits[x][im / 64] >> (im % 64) & 1 == 0 {
                continue 'candidates;
            }
        }
        image[u] = x;
        used[x] = true;
        count_injective(f, g, gbits, order, depth + 1, image, used, meter, total)?;
        used[x] = false;
        image[u] = usize::MAX;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{complete, cycle, path, star};
    use x2v_graph::ops::disjoint_union;

    #[test]
    fn hom_edge_counts_twice_per_edge() {
        // hom(K2, G) = 2m.
        let g = cycle(5);
        assert_eq!(hom_count(&path(2), &g), 10);
    }

    #[test]
    fn hom_single_vertex_counts_order() {
        assert_eq!(hom_count(&path(1), &petersen_like()), 10);
    }

    fn petersen_like() -> x2v_graph::Graph {
        x2v_graph::generators::petersen()
    }

    #[test]
    fn hom_star_is_degree_power_sum() {
        // hom(S_k, G) = Σ_v deg(v)^k (paper's Example 4.1 identity).
        let g =
            x2v_graph::Graph::from_edges_unchecked(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)]);
        for k in 1..=3usize {
            let expected: u128 = (0..g.order())
                .map(|v| (g.degree(v) as u128).pow(k as u32))
                .sum();
            assert_eq!(hom_count(&star(k), &g), expected, "k={k}");
        }
    }

    #[test]
    fn hom_path3_is_walk_count() {
        // hom(P3, G) = Σ_v deg(v)² (walks of length 2).
        let g = cycle(4);
        assert_eq!(hom_count(&path(3), &g), 16);
    }

    #[test]
    fn hom_triangle_into_bipartite_is_zero() {
        assert_eq!(hom_count(&cycle(3), &cycle(6)), 0);
        assert_eq!(hom_count(&cycle(3), &cycle(3)), 6);
        assert_eq!(hom_count(&cycle(3), &complete(4)), 24);
    }

    #[test]
    fn hom_multiplicative_over_components() {
        let f = disjoint_union(&path(2), &path(2));
        let g = cycle(5);
        assert_eq!(hom_count(&f, &g), 100); // 10 * 10
    }

    #[test]
    fn rooted_counts_sum_to_total() {
        let f = path(3);
        let g = cycle(5);
        let total: u128 = (0..g.order()).map(|v| hom_count_rooted(&f, 0, &g, v)).sum();
        assert_eq!(total, hom_count(&f, &g));
    }

    #[test]
    fn rooted_respects_labels() {
        let f = path(2).with_labels(vec![1, 0]).unwrap();
        let g = path(2).with_labels(vec![1, 0]).unwrap();
        assert_eq!(hom_count_rooted(&f, 0, &g, 0), 1);
        assert_eq!(hom_count_rooted(&f, 0, &g, 1), 0);
    }

    #[test]
    fn emb_counts_known() {
        // emb(K2, G) = 2m; emb(P3, C4) = number of ordered paths = 8… (4
        // centre choices × 2 orders of the two distinct neighbours = 8? C4:
        // centre v has 2 neighbours, ordered pairs of distinct ones: 2, so
        // 4 * 2 = 8).
        assert_eq!(emb_count(&path(2), &cycle(4)), 8);
        assert_eq!(emb_count(&path(3), &cycle(4)), 8);
        // emb(K3, K4) = 4 choose 3 * 3! = 24.
        assert_eq!(emb_count(&complete(3), &complete(4)), 24);
        // No injective map of a bigger graph into a smaller one.
        assert_eq!(emb_count(&complete(4), &complete(3)), 0);
    }

    #[test]
    fn epi_counts_known() {
        // epi(P3, P2): map ends of P3 onto opposite nodes: 2 surjective
        // homs (middle can go to either endpoint? P3=a-b-c onto x-y: b→x
        // forces a,c→y (edge xy hit, both vertices hit): 2 choices of
        // orientation).
        assert_eq!(epi_count(&path(3), &path(2)), 2);
        // epi(F, F) = aut(F) for simple graphs when |F| = |F|: every
        // surjective self-hom of a finite graph with equal size is an
        // automorphism.
        assert_eq!(epi_count(&cycle(4), &cycle(4)), 8);
        // C4 onto P2 (an edge): alternate ends: 2 maps.
        assert_eq!(epi_count(&cycle(4), &path(2)), 2);
        // C5 cannot map onto P2 (odd cycle is not bipartite).
        assert_eq!(epi_count(&cycle(5), &path(2)), 0);
        assert_eq!(epi_count(&path(2), &path(3)), 0);
    }

    #[test]
    fn try_variants_match_infallible_when_unlimited() {
        let b = Budget::unlimited();
        let (f, g) = (path(3), cycle(5));
        assert_eq!(try_hom_count(&f, &g, &b).unwrap(), hom_count(&f, &g));
        assert_eq!(try_emb_count(&f, &g, &b).unwrap(), emb_count(&f, &g));
        assert_eq!(
            try_epi_count(&path(3), &path(2), &b).unwrap(),
            epi_count(&path(3), &path(2))
        );
        let p = hom_count_partial(&f, &g, &b);
        assert!(p.complete);
        assert_eq!(p.value, hom_count(&f, &g));
    }

    #[test]
    fn work_limit_stops_deterministically() {
        let (f, g) = (path(4), complete(5));
        let b = Budget::unlimited().with_work_limit(40);
        let e1 = try_hom_count(&f, &g, &b).unwrap_err();
        let e2 = try_hom_count(&f, &g, &b).unwrap_err();
        assert_eq!(e1, e2, "identical budget must trip identically");
        let p1 = hom_count_partial(&f, &g, &b);
        let p2 = hom_count_partial(&f, &g, &b);
        assert!(!p1.complete);
        assert_eq!(p1, p2, "identical budget must give identical partials");
        assert!(p1.value < hom_count(&f, &g));
    }

    #[test]
    fn cancellation_unwinds_cleanly() {
        let token = x2v_guard::CancelToken::new();
        token.cancel();
        let b = Budget::unlimited()
            .with_cancel(token)
            .with_work_limit(u64::MAX);
        // Cancel is polled at checkpoints (every 1024 units); a big enough
        // search is guaranteed to observe it.
        let err = try_hom_count(&path(6), &complete(6), &b).unwrap_err();
        assert!(matches!(err, x2v_guard::GuardError::Cancelled { .. }));
    }

    #[test]
    fn rooted_rejects_out_of_range() {
        let b = Budget::unlimited();
        assert!(matches!(
            try_hom_count_rooted(&path(2), 5, &cycle(4), 0, &b),
            Err(x2v_guard::GuardError::InvalidInput { .. })
        ));
    }

    #[test]
    fn labels_constrain_homs() {
        let f = path(2).with_labels(vec![1, 2]).unwrap();
        let g = path(2).with_labels(vec![1, 2]).unwrap();
        assert_eq!(hom_count(&f, &g), 1);
        let g2 = path(2).with_labels(vec![1, 1]).unwrap();
        assert_eq!(hom_count(&f, &g2), 0);
    }
}

/// Counts (not necessarily induced) subgraph copies of `F` in `G`:
/// `sub(F, G) = emb(F, G) / aut(F)` — the bridge between embedding counts
/// and homomorphism counts that \[30\] (Curticapean–Dell–Marx, cited in
/// Section 4) builds its theory on.
pub fn sub_count(f: &Graph, g: &Graph) -> u128 {
    let emb = emb_count(f, g);
    let aut = u128::from(x2v_graph::iso::automorphism_count(f));
    debug_assert_eq!(emb % aut, 0, "emb is always a multiple of aut");
    emb / aut
}

/// Counts *induced* subgraph copies of `F` in `G`: placements where
/// non-edges are preserved too.
pub fn induced_sub_count(f: &Graph, g: &Graph) -> u128 {
    let aut = u128::from(x2v_graph::iso::automorphism_count(f));
    let order = connectivity_order(f);
    let gbits = g.adjacency_bits();
    let mut image = vec![usize::MAX; f.order()];
    let mut count = 0u128;
    // Enumerate injective homomorphisms, then filter non-edge preservation.
    #[allow(clippy::too_many_arguments)] // recursion state spelled out
    fn rec(
        f: &Graph,
        g: &Graph,
        gbits: &[Vec<u64>],
        order: &[usize],
        depth: usize,
        image: &mut [usize],
        used: &mut Vec<bool>,
        count: &mut u128,
    ) {
        if depth == order.len() {
            *count += 1;
            return;
        }
        let u = order[depth];
        'cand: for x in 0..g.order() {
            if used[x] || f.label(u) != g.label(x) {
                continue;
            }
            // Both edges AND non-edges to placed vertices must match.
            for w in 0..f.order() {
                let im = image[w];
                if im == usize::MAX || w == u {
                    continue;
                }
                let g_edge = gbits[x][im / 64] >> (im % 64) & 1 == 1;
                if f.has_edge(u, w) != g_edge {
                    continue 'cand;
                }
            }
            image[u] = x;
            used[x] = true;
            rec(f, g, gbits, order, depth + 1, image, used, count);
            used[x] = false;
            image[u] = usize::MAX;
        }
    }
    rec(
        f,
        g,
        &gbits,
        &order,
        0,
        &mut image,
        &mut vec![false; g.order()],
        &mut count,
    );
    count / aut
}

#[cfg(test)]
mod sub_count_tests {
    use super::*;
    use x2v_graph::generators::{complete, cycle, path, petersen};

    #[test]
    fn triangles_in_complete_graphs() {
        // sub(K3, Kn) = C(n, 3).
        assert_eq!(sub_count(&complete(3), &complete(4)), 4);
        assert_eq!(sub_count(&complete(3), &complete(6)), 20);
        assert_eq!(sub_count(&complete(3), &cycle(6)), 0);
    }

    #[test]
    fn edges_and_paths() {
        // sub(K2, G) = m; sub(P3, C5) = 5 (one per centre).
        assert_eq!(sub_count(&path(2), &petersen()), 15);
        assert_eq!(sub_count(&path(3), &cycle(5)), 5);
    }

    #[test]
    fn five_cycles_in_petersen() {
        // The Petersen graph famously contains 12 five-cycles.
        assert_eq!(sub_count(&cycle(5), &petersen()), 12);
    }

    #[test]
    fn induced_vs_plain() {
        // P3 in K3: 3 plain copies, 0 induced (the third edge is present).
        assert_eq!(sub_count(&path(3), &complete(3)), 3);
        assert_eq!(induced_sub_count(&path(3), &complete(3)), 0);
        // In C5 every P3 copy is induced.
        assert_eq!(induced_sub_count(&path(3), &cycle(5)), 5);
    }

    #[test]
    fn cross_check_with_graphlet_counter() {
        // 4-node induced-count table: C4 copies in the 3x3 grid.
        let g = x2v_graph::generators::grid(3, 3);
        let c4_induced = induced_sub_count(&cycle(4), &g);
        assert_eq!(c4_induced, 4); // the four unit squares
    }
}
