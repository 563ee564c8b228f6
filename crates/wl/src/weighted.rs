//! Weighted 1-WL (Section 3.2, after \[44\]): refinement by *sums of edge
//! weights* into each colour class rather than neighbour counts (eq. 3.1).
//!
//! Two nodes `v, w` of equal colour split if there is a colour `d` with
//! `Σ_{x of colour d} α(v, x) ≠ Σ_{x of colour d} α(w, x)`.
//!
//! Determinism note: per-class weight sums are accumulated in sorted order
//! of (colour, weight-bits), so equal multisets of weights produce bitwise
//! identical sums and interning is exact.

use crate::interner::{Colour, ColourInterner};
use crate::refine::WlHistory;
use x2v_graph::WeightedGraph;

const TAG_INIT: u64 = 10;
const TAG_WEIGHTED: u64 = 11;

/// Runs weighted 1-WL through a shared interner.
#[derive(Default)]
pub struct WeightedRefiner {
    interner: ColourInterner,
}

impl WeightedRefiner {
    /// Fresh refiner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the interner.
    pub fn interner(&self) -> &ColourInterner {
        &self.interner
    }

    fn initial(&mut self, labels: &[u32]) -> Vec<Colour> {
        labels
            .iter()
            .map(|&l| self.interner.intern(&[TAG_INIT, l as u64]))
            .collect()
    }

    fn refine_once(&mut self, g: &WeightedGraph, prev: &[Colour]) -> Vec<Colour> {
        (0..g.order())
            .map(|v| {
                // (neighbour colour, weight bits), sorted for determinism.
                let mut contrib: Vec<(Colour, u64)> = g
                    .weighted_neighbours(v)
                    .iter()
                    .map(|&(w, alpha)| (prev[w], alpha.to_bits()))
                    .collect();
                contrib.sort_unstable();
                // Per-class sums in sorted order.
                let mut sig = vec![TAG_WEIGHTED, prev[v]];
                let mut i = 0;
                while i < contrib.len() {
                    let colour = contrib[i].0;
                    let mut sum = 0.0f64;
                    while i < contrib.len() && contrib[i].0 == colour {
                        sum += f64::from_bits(contrib[i].1);
                        i += 1;
                    }
                    // A class whose weights cancel to exactly 0 contributes
                    // like "no edges into that class" per the paper's
                    // convention α = 0 ⟺ non-edge; drop it.
                    if sum != 0.0 {
                        sig.push(colour);
                        sig.push(sum.to_bits());
                    }
                }
                self.interner.intern(&sig)
            })
            .collect()
    }

    /// Runs exactly `rounds` rounds, recording each colouring.
    pub fn refine_rounds(&mut self, g: &WeightedGraph, rounds: usize) -> WlHistory {
        let mut history = vec![self.initial(g.labels())];
        let mut stable_round = None;
        let mut prev_classes = distinct(&history[0]);
        for t in 0..rounds {
            let next = self.refine_once(g, &history[t]);
            let classes = distinct(&next);
            if stable_round.is_none() && classes == prev_classes {
                stable_round = Some(t);
            }
            prev_classes = classes;
            history.push(next);
        }
        WlHistory {
            stable_round: stable_round.unwrap_or(rounds),
            rounds: history,
        }
    }

    /// Refines to stability.
    pub fn refine_to_stable(&mut self, g: &WeightedGraph) -> WlHistory {
        let n = g.order();
        let mut history = vec![self.initial(g.labels())];
        let mut prev_classes = distinct(&history[0]);
        for t in 0..=n {
            let next = self.refine_once(g, &history[t]);
            let classes = distinct(&next);
            history.push(next);
            if classes == prev_classes {
                return WlHistory {
                    stable_round: t,
                    rounds: history,
                };
            }
            prev_classes = classes;
        }
        unreachable!("partition stabilises within n rounds");
    }

    /// Refines two weighted graphs in lock-step until the joint partition
    /// stabilises; returns the jointly-stable colourings.
    pub fn joint_stable_colours(
        &mut self,
        g: &WeightedGraph,
        h: &WeightedGraph,
    ) -> (Vec<Colour>, Vec<Colour>) {
        let mut cg = self.initial(g.labels());
        let mut ch = self.initial(h.labels());
        let mut classes = joint_distinct(&cg, &ch);
        loop {
            let ng = self.refine_once(g, &cg);
            let nh = self.refine_once(h, &ch);
            let next = joint_distinct(&ng, &nh);
            cg = ng;
            ch = nh;
            if next == classes {
                return (cg, ch);
            }
            classes = next;
        }
    }

    /// Whether weighted 1-WL distinguishes two weighted graphs (different
    /// colour multisets in the jointly-stable colouring).
    pub fn distinguishes(&mut self, g: &WeightedGraph, h: &WeightedGraph) -> bool {
        if g.order() != h.order() {
            return true;
        }
        let (cg, ch) = self.joint_stable_colours(g, h);
        crate::refine::histogram_of(&cg) != crate::refine::histogram_of(&ch)
    }
}

fn distinct(colours: &[Colour]) -> usize {
    let mut v = colours.to_vec();
    v.sort_unstable();
    v.dedup();
    v.len()
}

fn joint_distinct(a: &[Colour], b: &[Colour]) -> usize {
    let mut v: Vec<Colour> = a.iter().chain(b).copied().collect();
    v.sort_unstable();
    v.dedup();
    v.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{cycle, path};
    use x2v_graph::WeightedGraph;

    fn unit(g: &x2v_graph::Graph) -> WeightedGraph {
        WeightedGraph::from_graph(g)
    }

    #[test]
    fn unit_weights_match_plain_wl_partition() {
        let mut wr = WeightedRefiner::new();
        let h = wr.refine_to_stable(&unit(&path(5)));
        let c = h.stable();
        assert_eq!(c[0], c[4]);
        assert_eq!(c[1], c[3]);
        assert_ne!(c[0], c[2]);
    }

    #[test]
    fn weights_split_otherwise_equal_nodes() {
        // C4 with one heavy edge: nodes on the heavy edge split from others.
        let light = WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
        )
        .unwrap();
        let heavy = WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1, 5.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
        )
        .unwrap();
        let mut wr = WeightedRefiner::new();
        assert_eq!(wr.refine_to_stable(&light).num_classes(1), 1);
        let h = wr.refine_to_stable(&heavy);
        let c = h.stable();
        assert_eq!(c[0], c[1]);
        assert_eq!(c[2], c[3]);
        assert_ne!(c[0], c[2]);
        assert!(wr.distinguishes(&light, &heavy));
    }

    #[test]
    fn weighted_c6_vs_2c3_still_indistinguishable() {
        let mut wr = WeightedRefiner::new();
        let c6 = unit(&cycle(6));
        let tt = unit(&x2v_graph::ops::disjoint_union(&cycle(3), &cycle(3)));
        assert!(!wr.distinguishes(&c6, &tt));
    }

    #[test]
    fn scaled_weights_distinguish() {
        let mut wr = WeightedRefiner::new();
        let a = WeightedGraph::from_weighted_edges(2, &[(0, 1, 1.0)]).unwrap();
        let b = WeightedGraph::from_weighted_edges(2, &[(0, 1, 2.0)]).unwrap();
        assert!(wr.distinguishes(&a, &b));
    }

    #[test]
    fn negative_weights_supported() {
        let mut wr = WeightedRefiner::new();
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, -1.0), (1, 2, 1.0)]).unwrap();
        let h = wr.refine_to_stable(&g);
        let c = h.stable();
        assert_ne!(c[0], c[2]);
    }
}
