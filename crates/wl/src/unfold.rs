//! Colours as rooted unfolding trees (Section 3.5, Figure 5) and the
//! `wl(c, G)` counts of the WL subtree kernel.
//!
//! A round-`i` colour abbreviates a rooted tree of height ≤ `i`: the root
//! carries the node's label, and its subtrees are the unfolding trees of the
//! neighbours' round-`(i−1)` colours. [`unfolding_tree`] reconstructs that
//! tree from the interner's signature records; [`count_colour_tree`]
//! computes `wl(T, G)` — the number of nodes of `G` whose round-`i` colour
//! unfolds to a given tree — reproducing Example 3.3.

use crate::interner::{Colour, ColourInterner};
use crate::refine::Refiner;
use x2v_graph::{Graph, GraphBuilder};

/// A rooted tree with node labels, as (graph, root).
pub type RootedTree = (Graph, usize);

/// Reconstructs the unfolding tree of `colour` from the interner.
///
/// # Panics
/// If the colour was not produced by undirected 1-WL refinement through
/// this interner.
pub fn unfolding_tree(interner: &ColourInterner, colour: Colour) -> RootedTree {
    // First pass: count nodes.
    fn count(interner: &ColourInterner, c: Colour) -> usize {
        let sig = interner.signature(c);
        match sig[0] {
            0 => 1, // TAG_INIT
            1 => {
                1 + sig[2..]
                    .iter()
                    .map(|&ch| count(interner, ch))
                    .sum::<usize>()
            }
            t => panic!("colour {c} is not a 1-WL colour (tag {t})"),
        }
    }
    fn label_of(interner: &ColourInterner, c: Colour) -> u32 {
        let sig = interner.signature(c);
        match sig[0] {
            0 => sig[1] as u32,
            1 => label_of(interner, sig[1]),
            t => panic!("colour {c} is not a 1-WL colour (tag {t})"),
        }
    }
    fn build(
        interner: &ColourInterner,
        c: Colour,
        b: &mut GraphBuilder,
        next: &mut usize,
    ) -> usize {
        let me = *next;
        *next += 1;
        b.set_label(me, label_of(interner, c)).expect("in range");
        let sig = interner.signature(c);
        if sig[0] == 1 {
            // children are the neighbour colours of the previous round
            for &child in sig[2..].iter() {
                let kid = build(interner, child, b, next);
                b.add_edge(me, kid).expect("tree edge");
            }
        }
        me
    }
    let n = count(interner, colour);
    let mut b = GraphBuilder::new(n);
    let mut next = 0usize;
    let root = build(interner, colour, &mut b, &mut next);
    (b.build(), root)
}

/// Whether two rooted labelled trees are isomorphic as rooted trees (roots
/// must map to each other).
fn rooted_trees_isomorphic(a: &RootedTree, b: &RootedTree) -> bool {
    fn encode(g: &Graph, v: usize, parent: usize) -> String {
        let mut kids: Vec<String> = g
            .neighbours(v)
            .iter()
            .filter(|&&w| w != parent)
            .map(|&w| encode(g, w, v))
            .collect();
        kids.sort();
        format!("({}{})", g.label(v), kids.concat())
    }
    encode(&a.0, a.1, usize::MAX) == encode(&b.0, b.1, usize::MAX)
}

/// `wl(T, G)` at round `round`: the number of nodes of `g` whose round-
/// `round` colour unfolds to the rooted tree `target` (Example 3.3). Nodes
/// whose unfolding differs contribute 0; if no colour matches, the count is
/// 0 — exactly the semantics of the WL feature vector.
pub fn count_colour_tree(g: &Graph, round: usize, target: &RootedTree) -> u64 {
    let mut r = Refiner::new();
    let history = r.refine_rounds(g, round);
    let hist = history.histogram(round);
    let mut total = 0;
    for (&colour, &count) in &hist {
        let tree = unfolding_tree(r.interner(), colour);
        if rooted_trees_isomorphic(&tree, target) {
            total += count;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{cycle, path, star};

    #[test]
    fn round0_unfolds_to_single_node() {
        let mut r = Refiner::new();
        let h = r.refine_rounds(&path(3), 0);
        let (t, root) = unfolding_tree(r.interner(), h.at_round(0)[0]);
        assert_eq!(t.order(), 1);
        assert_eq!(root, 0);
    }

    #[test]
    fn round1_unfolds_to_degree_star() {
        let mut r = Refiner::new();
        let h = r.refine_rounds(&star(4), 1);
        // The centre's round-1 colour unfolds to a star with 4 leaves.
        let (t, root) = unfolding_tree(r.interner(), h.at_round(1)[0]);
        assert_eq!(t.order(), 5);
        assert_eq!(t.degree(root), 4);
        // A leaf's colour unfolds to a single edge.
        let (t2, root2) = unfolding_tree(r.interner(), h.at_round(1)[1]);
        assert_eq!(t2.order(), 2);
        assert_eq!(t2.degree(root2), 1);
    }

    #[test]
    fn round2_middle_of_p3() {
        let mut r = Refiner::new();
        let h = r.refine_rounds(&path(3), 2);
        let (t, root) = unfolding_tree(r.interner(), h.at_round(2)[1]);
        // Root with two chains of length 2: 5 nodes, root degree 2.
        assert_eq!(t.order(), 5);
        assert_eq!(t.degree(root), 2);
    }

    #[test]
    fn cycle_nodes_unfold_to_binary_chains() {
        let mut r = Refiner::new();
        let h = r.refine_rounds(&cycle(5), 2);
        let (t, root) = unfolding_tree(r.interner(), h.at_round(2)[0]);
        // Every node: root deg 2, each child deg 2 (one child each + root).
        assert_eq!(t.order(), 7);
        assert_eq!(t.degree(root), 2);
    }

    #[test]
    fn rooted_iso_respects_root() {
        // P3 rooted at the end vs rooted at the centre.
        let p = path(3);
        assert!(!rooted_trees_isomorphic(&(p.clone(), 0), &(p.clone(), 1)));
        assert!(rooted_trees_isomorphic(&(p.clone(), 0), &(p.clone(), 2)));
    }

    #[test]
    fn counting_matches_histogram() {
        // In P4 at round 1, the colour "degree-1 node attached to a
        // degree-2 node" appears twice (nodes 0 and 3): its unfolding tree
        // is the single edge rooted at an endpoint.
        let target = (path(2), 0);
        assert_eq!(count_colour_tree(&path(4), 1, &target), 2);
        // No node of C4 unfolds to the single edge at round 1.
        assert_eq!(count_colour_tree(&cycle(4), 1, &target), 0);
    }
}
