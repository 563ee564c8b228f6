//! Homomorphism counting for general pattern graphs: dynamic programming
//! over a *nice* tree decomposition, `O(poly · n^{tw+1})`.
//!
//! This realises the positive side of the Dalmau–Jonsson dichotomy the
//! paper cites in Section 4.3: entries of `Hom_F(G)` are polynomial-time
//! computable exactly when `F` has bounded treewidth. It counts any
//! pattern, and it is the oracle the specialised counters are tested
//! against. [`crate::vectors::HomBasis`] uses it only for patterns that
//! are neither trees nor uniformly labelled cycles, which the tree DP and
//! the closed-walk sweep count far more cheaply; those two plans meter
//! their work at this module's [`SITE`] too, so one budget or armed fault
//! at `hom/decomp` reaches every entry of a hom vector.

use crate::treewidth::{exact_decomposition, TreeDecomposition};
use x2v_graph::hash::FxHashMap;
use x2v_graph::Graph;
use x2v_guard::{Budget, GuardError};

/// The guarded-site name for the decomposition DP.
pub const SITE: &str = "hom/decomp";

/// A node of a nice tree decomposition.
#[derive(Clone, Debug)]
enum NiceNode {
    /// Empty-bag leaf.
    Leaf,
    /// Introduces pattern vertex `v`; child is `child`.
    Introduce { v: usize, child: usize },
    /// Forgets pattern vertex `v`; child is `child`.
    Forget { v: usize, child: usize },
    /// Joins two children with identical bags.
    Join { left: usize, right: usize },
}

/// A nice tree decomposition: nodes in topological order (children before
/// parents), with per-node bags.
struct NiceDecomposition {
    nodes: Vec<NiceNode>,
    bags: Vec<Vec<usize>>,
    root: usize,
}

/// Converts an arbitrary decomposition into a nice one rooted anywhere.
///
/// Invariant: callers pass decompositions of non-empty patterns, which
/// always have at least one bag (`hom_count_decomp` short-circuits the
/// empty pattern before decomposing).
fn make_nice(td: &TreeDecomposition) -> NiceDecomposition {
    let b = td.bags.len();
    assert!(
        b > 0,
        "make_nice requires a non-empty decomposition; handle 0-vertex patterns before decomposing"
    );
    let mut adj = vec![Vec::new(); b];
    for &(x, y) in &td.edges {
        adj[x].push(y);
        adj[y].push(x);
    }
    let mut nodes: Vec<NiceNode> = Vec::new();
    let mut bags: Vec<Vec<usize>> = Vec::new();

    // Builds the chain Leaf → introduces to reach `target` bag; returns node id.
    fn chain_from_empty(
        target: &[usize],
        nodes: &mut Vec<NiceNode>,
        bags: &mut Vec<Vec<usize>>,
    ) -> usize {
        let mut cur = {
            nodes.push(NiceNode::Leaf);
            bags.push(Vec::new());
            nodes.len() - 1
        };
        let mut have: Vec<usize> = Vec::new();
        for &v in target {
            have.push(v);
            have.sort_unstable();
            nodes.push(NiceNode::Introduce { v, child: cur });
            bags.push(have.clone());
            cur = nodes.len() - 1;
        }
        cur
    }

    // Morphs a node whose bag is `from` into bag `to` by forgetting then
    // introducing; returns the resulting node id.
    fn morph(
        mut cur: usize,
        from: &[usize],
        to: &[usize],
        nodes: &mut Vec<NiceNode>,
        bags: &mut Vec<Vec<usize>>,
    ) -> usize {
        let mut have: Vec<usize> = from.to_vec();
        for &v in from {
            if !to.contains(&v) {
                have.retain(|&x| x != v);
                nodes.push(NiceNode::Forget { v, child: cur });
                bags.push(have.clone());
                cur = nodes.len() - 1;
            }
        }
        for &v in to {
            if !have.contains(&v) {
                have.push(v);
                have.sort_unstable();
                nodes.push(NiceNode::Introduce { v, child: cur });
                bags.push(have.clone());
                cur = nodes.len() - 1;
            }
        }
        cur
    }

    // Recursive build: returns the node id whose bag equals td.bags[bag].
    fn build(
        bag: usize,
        parent: usize,
        adj: &[Vec<usize>],
        td: &TreeDecomposition,
        nodes: &mut Vec<NiceNode>,
        bags: &mut Vec<Vec<usize>>,
    ) -> usize {
        let children: Vec<usize> = adj[bag].iter().copied().filter(|&c| c != parent).collect();
        if children.is_empty() {
            return chain_from_empty(&td.bags[bag], nodes, bags);
        }
        // Each child subtree is morphed up to this bag, then joined pairwise.
        let mut upper: Vec<usize> = children
            .iter()
            .map(|&c| {
                let sub = build(c, bag, adj, td, nodes, bags);
                morph(sub, &td.bags[c].clone(), &td.bags[bag], nodes, bags)
            })
            .collect();
        while upper.len() > 1 {
            let right = upper.pop().expect("len > 1");
            let left = upper.pop().expect("len > 1");
            nodes.push(NiceNode::Join { left, right });
            bags.push(td.bags[bag].clone());
            upper.push(nodes.len() - 1);
        }
        upper[0]
    }

    let root = build(0, usize::MAX, &adj, td, &mut nodes, &mut bags);
    NiceDecomposition { nodes, bags, root }
}

/// Sparse DP table: assignment of the bag (images in bag order) → count.
type Table = FxHashMap<Vec<usize>, u128>;

/// Counts `hom(F, G)` by DP over a nice tree decomposition of `F`.
///
/// Complexity `O(|decomposition| · n^{tw+1})` with small constants; exact
/// `u128` arithmetic. Metered against the ambient [`Budget`]; panics with
/// an actionable message on budget trips or `u128` overflow (use
/// [`try_hom_count_decomp`] for recoverable errors).
pub fn hom_count_decomp(f: &Graph, g: &Graph) -> u128 {
    let budget = x2v_guard::ambient();
    try_hom_count_decomp(f, g, &budget).unwrap_or_else(|e| panic!("{e}"))
}

/// Counts `hom(F, G)` by decomposition DP within `budget`.
///
/// # Errors
/// [`GuardError::BudgetExhausted`] / [`GuardError::Cancelled`] when the
/// budget trips (one work unit per DP table entry touched), and
/// [`GuardError::NumericFailure`] if the exact count overflows `u128`.
pub fn try_hom_count_decomp(f: &Graph, g: &Graph, budget: &Budget) -> x2v_guard::Result<u128> {
    if f.order() == 0 {
        return Ok(1);
    }
    let td = exact_decomposition(f);
    try_hom_count_with_decomposition(f, g, &td, budget)
}

fn overflow(op: &str) -> GuardError {
    GuardError::numeric(
        SITE,
        format!(
            "hom count overflowed u128 during table {op}; the exact value is not representable"
        ),
    )
}

/// Fallible decomposition DP over a caller-provided decomposition (so one
/// pattern can be counted into many targets, as
/// [`crate::vectors::HomBasis`] does): the budget is ticked once per table
/// entry touched, and every `u128` step is checked.
pub fn try_hom_count_with_decomposition(
    f: &Graph,
    g: &Graph,
    td: &TreeDecomposition,
    budget: &Budget,
) -> x2v_guard::Result<u128> {
    debug_assert!(td.is_valid_for(f), "invalid decomposition for pattern");
    let nice = make_nice(td);
    let n = g.order();
    let gbits = g.adjacency_bits();
    let mut meter = budget.meter(SITE);
    let mut tables: Vec<Option<Table>> = vec![None; nice.nodes.len()];
    for (idx, node) in nice.nodes.iter().enumerate() {
        // `take().expect(…)`: children precede parents in `nice.nodes`
        // (topological construction order), and each child feeds exactly
        // one parent, so its table is present and not yet consumed.
        let table = match node {
            NiceNode::Leaf => {
                let mut t = Table::default();
                t.insert(Vec::new(), 1);
                t
            }
            NiceNode::Introduce { v, child } => {
                let child_bag = &nice.bags[*child];
                let bag = &nice.bags[idx];
                let vpos = bag
                    .iter()
                    .position(|x| x == v)
                    .expect("introduce node's bag contains the introduced vertex by construction");
                // Pattern neighbours of v inside the bag, with their child-
                // bag positions.
                let nb: Vec<usize> = f
                    .neighbours(*v)
                    .iter()
                    .filter_map(|&w| child_bag.iter().position(|&x| x == w))
                    .collect();
                let child_table = tables[*child]
                    .take()
                    .expect("child table computed before parent");
                let mut t = Table::default();
                for (assign, &count) in &child_table {
                    meter.tick(n as u64)?;
                    for x in 0..n {
                        if f.label(*v) != g.label(x) {
                            continue;
                        }
                        // Every bag-internal pattern edge at v must map to a
                        // G-edge.
                        if !nb.iter().all(|&p| {
                            let im = assign[p];
                            gbits[x][im / 64] >> (im % 64) & 1 == 1
                        }) {
                            continue;
                        }
                        let mut na = assign.clone();
                        na.insert(vpos, x);
                        let slot = t.entry(na).or_insert(0);
                        *slot = slot
                            .checked_add(count)
                            .ok_or_else(|| overflow("introduce"))?;
                    }
                }
                t
            }
            NiceNode::Forget { v, child } => {
                let child_bag = &nice.bags[*child];
                let vpos = child_bag.iter().position(|x| x == v).expect(
                    "forget node's child bag contains the forgotten vertex by construction",
                );
                let child_table = tables[*child]
                    .take()
                    .expect("child table computed before parent");
                let mut t = Table::default();
                for (assign, &count) in &child_table {
                    meter.tick(1)?;
                    let mut na = assign.clone();
                    na.remove(vpos);
                    let slot = t.entry(na).or_insert(0);
                    *slot = slot.checked_add(count).ok_or_else(|| overflow("forget"))?;
                }
                t
            }
            NiceNode::Join { left, right } => {
                let lt = tables[*left]
                    .take()
                    .expect("child table computed before parent");
                let rt = tables[*right]
                    .take()
                    .expect("child table computed before parent");
                let (small, large) = if lt.len() <= rt.len() {
                    (lt, rt)
                } else {
                    (rt, lt)
                };
                let mut t = Table::default();
                for (assign, &count) in &small {
                    meter.tick(1)?;
                    if let Some(&other) = large.get(assign) {
                        t.insert(
                            assign.clone(),
                            count.checked_mul(other).ok_or_else(|| overflow("join"))?,
                        );
                    }
                }
                t
            }
        };
        tables[idx] = Some(table);
    }
    // Forget everything above the root bag.
    let root_table = tables[nice.root]
        .take()
        .expect("root table computed last and never consumed as a child");
    x2v_obs::counter_add("hom/decomp_table_entries", meter.work_done());
    root_table.values().copied().try_fold(0u128, |acc, c| {
        acc.checked_add(c).ok_or_else(|| overflow("root sum"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use x2v_graph::enumerate::{all_connected_graphs, free_trees};
    use x2v_graph::generators::{complete, cycle, path, petersen};
    use x2v_graph::ops::disjoint_union;

    #[test]
    fn matches_brute_force_on_all_connected_order_up_to_5() {
        let targets = [cycle(5), complete(4), petersen()];
        for n in 2..=5usize {
            for f in all_connected_graphs(n) {
                for g in &targets {
                    assert_eq!(
                        hom_count_decomp(&f, g),
                        brute::hom_count(&f, g),
                        "pattern {f:?} into {g:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_tree_dp_on_trees() {
        let g = petersen();
        for t in free_trees(7) {
            assert_eq!(
                hom_count_decomp(&t, &g),
                crate::trees::hom_count_tree(&t, &g),
                "{t:?}"
            );
        }
    }

    #[test]
    fn matches_cycle_closed_form() {
        let g = complete(5);
        for k in 3..=7usize {
            assert_eq!(
                hom_count_decomp(&cycle(k), &g),
                crate::walks::hom_cycle(k, &g)
            );
        }
    }

    #[test]
    fn disconnected_patterns() {
        let f = disjoint_union(&cycle(3), &path(2));
        let g = complete(4);
        assert_eq!(hom_count_decomp(&f, &g), brute::hom_count(&f, &g));
    }

    #[test]
    fn labelled_patterns() {
        let f = cycle(4).with_labels(vec![0, 1, 0, 1]).unwrap();
        let g = cycle(8).with_labels(vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        assert_eq!(hom_count_decomp(&f, &g), brute::hom_count(&f, &g));
    }

    #[test]
    fn empty_and_singleton_patterns() {
        let g = cycle(5);
        assert_eq!(hom_count_decomp(&x2v_graph::Graph::empty(0), &g), 1);
        assert_eq!(hom_count_decomp(&path(1), &g), 5);
    }

    #[test]
    fn dense_pattern_k4_into_k6() {
        // hom(K4, K6) = 6·5·4·3 = 360.
        assert_eq!(hom_count_decomp(&complete(4), &complete(6)), 360);
    }

    #[test]
    fn budget_trips_with_typed_error() {
        use x2v_guard::{Budget, GuardError};
        let tight = Budget::unlimited().with_work_limit(3);
        match try_hom_count_decomp(&cycle(4), &complete(5), &tight) {
            Err(GuardError::BudgetExhausted { site, .. }) => assert_eq!(site, SITE),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // Unlimited budget agrees with the infallible wrapper.
        assert_eq!(
            try_hom_count_decomp(&cycle(4), &complete(5), &Budget::unlimited()).unwrap(),
            hom_count_decomp(&cycle(4), &complete(5))
        );
    }
}
