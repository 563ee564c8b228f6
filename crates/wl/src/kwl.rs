//! The k-dimensional Weisfeiler-Leman algorithm for `k ≥ 2` (Section 3.3).
//!
//! We implement the *folklore* variant: tuples `t ∈ V^k` are initially
//! coloured by their atomic type (labels + equality pattern + induced
//! adjacency) and refined by the multiset, over all `w ∈ V`, of the
//! colour k-vectors `(c(t[1←w]), …, c(t[k←w]))`. This is the convention for
//! which the paper's Theorem 3.1 (`C^{k+1}`-equivalence) and Theorem 4.4
//! (homomorphism counts over treewidth ≤ k) hold, with 1-WL = colour
//! refinement as the separate k = 1 case (`crate::refine`).
//!
//! Cost is `O(n^{k+1})` per round — intended for the small hard instances
//! (CFI pairs, circulants) the paper uses to separate the hierarchy.

use crate::interner::{Colour, ColourInterner};
use x2v_graph::hash::FxHashMap;
use x2v_graph::Graph;
use x2v_guard::{Budget, GuardError, Meter};

const TAG_KWL_INIT: u64 = 20;
const TAG_KWL: u64 = 21;

/// The guarded-site name for k-WL refinement.
pub const SITE: &str = "wl/kwl";

/// A k-WL run on one graph.
#[derive(Debug)]
pub struct KwlColouring {
    /// Colour per tuple (tuples indexed in row-major order over `V^k`).
    pub colours: Vec<Colour>,
    /// Rounds performed until stability.
    pub rounds: usize,
    k: usize,
    n: usize,
}

impl KwlColouring {
    /// Colour of the tuple `t` (must have length k).
    pub fn colour_of(&self, t: &[usize]) -> Colour {
        assert_eq!(t.len(), self.k, "tuple arity mismatch");
        let mut idx = 0usize;
        for &x in t {
            assert!(x < self.n, "tuple entry out of range");
            idx = idx * self.n + x;
        }
        self.colours[idx]
    }

    /// Sparse histogram of tuple colours.
    pub fn histogram(&self) -> FxHashMap<Colour, u64> {
        let mut h = FxHashMap::default();
        for &c in &self.colours {
            *h.entry(c).or_insert(0) += 1;
        }
        h
    }
}

/// Runs folklore k-WL (`k ≥ 2`) through a shared interner.
pub struct KwlRefiner {
    interner: ColourInterner,
    k: usize,
}

impl KwlRefiner {
    /// Refiner of dimension `k ≥ 2`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "use crate::refine for 1-WL");
        KwlRefiner {
            interner: ColourInterner::new(),
            k,
        }
    }

    /// The dimension k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of k-tuples over `n` vertices, or `InvalidInput` when `n^k`
    /// does not fit the address space (the table could never be allocated).
    fn tuple_count(&self, n: usize) -> x2v_guard::Result<usize> {
        n.checked_pow(self.k as u32).ok_or_else(|| {
            GuardError::invalid_input(
                SITE,
                format!(
                    "n^k = {n}^{} overflows usize; this instance is far beyond k-WL's O(n^(k+1)) reach",
                    self.k
                ),
            )
        })
    }

    fn atomic_colours(
        &mut self,
        g: &Graph,
        meter: &mut Meter<'_>,
    ) -> x2v_guard::Result<Vec<Colour>> {
        let n = g.order();
        let k = self.k;
        let total = self.tuple_count(n)?;
        // Charge the whole init phase up front, before the O(n^k) table is
        // allocated: a work-limited budget rejects oversized instances
        // without touching memory.
        meter.tick(total as u64)?;
        let mut tuple = vec![0usize; k];
        let mut out = Vec::with_capacity(total);
        let mut sig = Vec::with_capacity(2 + k + 2);
        for idx in 0..total {
            let mut rest = idx;
            for i in (0..k).rev() {
                tuple[i] = rest % n;
                rest /= n;
            }
            // Atomic type: labels, equality pattern, adjacency pattern.
            sig.clear();
            sig.push(TAG_KWL_INIT);
            sig.push(k as u64);
            for &x in &tuple {
                sig.push(g.label(x) as u64);
            }
            let mut eq_bits = 0u64;
            let mut adj_bits = 0u64;
            let mut bit = 0;
            for i in 0..k {
                for j in (i + 1)..k {
                    if tuple[i] == tuple[j] {
                        eq_bits |= 1 << bit;
                    }
                    if g.has_edge(tuple[i], tuple[j]) {
                        adj_bits |= 1 << bit;
                    }
                    bit += 1;
                }
            }
            sig.push(eq_bits);
            sig.push(adj_bits);
            out.push(self.interner.intern(&sig));
        }
        Ok(out)
    }

    fn refine_once(
        &mut self,
        n: usize,
        prev: &[Colour],
        meter: &mut Meter<'_>,
    ) -> x2v_guard::Result<Vec<Colour>> {
        let k = self.k;
        // powers[i] = n^(k-1-i): stride of position i in the tuple index.
        let mut powers = vec![1usize; k];
        for i in (0..k - 1).rev() {
            powers[i] = powers[i + 1] * n;
        }
        let total = prev.len();
        let mut out = Vec::with_capacity(total);
        let mut rows: Vec<Vec<Colour>> = Vec::with_capacity(n);
        let mut sig = Vec::with_capacity(2 + n * k);
        for idx in 0..total {
            // One tuple refinement = one work unit (its true cost is
            // O(n·k), but unit-per-tuple keeps ticks deterministic and
            // cheap relative to the row gathering below).
            meter.tick(1)?;
            // Entry values of this tuple.
            let mut entries = vec![0usize; k];
            let mut rest = idx;
            for i in (0..k).rev() {
                entries[i] = rest % n;
                rest /= n;
            }
            rows.clear();
            for w in 0..n {
                let mut row = Vec::with_capacity(k);
                for i in 0..k {
                    let sub = idx - entries[i] * powers[i] + w * powers[i];
                    row.push(prev[sub]);
                }
                rows.push(row);
            }
            rows.sort_unstable();
            sig.clear();
            sig.push(TAG_KWL);
            sig.push(prev[idx]);
            for row in &rows {
                sig.extend_from_slice(row);
            }
            out.push(self.interner.intern(&sig));
        }
        Ok(out)
    }

    /// Runs k-WL on `g` to stability.
    ///
    /// Metered against the ambient [`Budget`]; panics with an actionable
    /// message when it trips (use [`KwlRefiner::try_run`] for a
    /// recoverable error).
    pub fn run(&mut self, g: &Graph) -> KwlColouring {
        let budget = x2v_guard::ambient();
        self.try_run(g, &budget).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs k-WL on `g` to stability within `budget`. One work unit is one
    /// tuple (re)colouring, so `n^k` units per round plus `n^k` for the
    /// atomic initialisation.
    ///
    /// # Errors
    /// [`GuardError::BudgetExhausted`] / [`GuardError::Cancelled`] when the
    /// budget trips; [`GuardError::InvalidInput`] when `n^k` overflows.
    pub fn try_run(&mut self, g: &Graph, budget: &Budget) -> x2v_guard::Result<KwlColouring> {
        let _timer = x2v_obs::span("wl/kwl_run");
        let n = g.order();
        let mut meter = budget.meter(SITE);
        let mut colours = self.atomic_colours(g, &mut meter)?;
        x2v_obs::counter_add("wl/kwl_tuples", colours.len() as u64);
        let mut classes = distinct(&colours);
        let mut rounds = 0;
        loop {
            // Deadline/cancel poll at round granularity: rounds are the
            // coarse unit of progress, and n^k ticks may be sparse checks.
            meter.checkpoint()?;
            let next = self.refine_once(n, &colours, &mut meter)?;
            let next_classes = distinct(&next);
            colours = next;
            if next_classes == classes {
                break;
            }
            classes = next_classes;
            rounds += 1;
        }
        x2v_obs::observe("wl/kwl_rounds_to_stability", rounds as f64);
        Ok(KwlColouring {
            colours,
            rounds,
            k: self.k,
            n,
        })
    }

    /// Runs exactly `rounds` refinement rounds (after atomic init).
    pub fn run_rounds(&mut self, g: &Graph, rounds: usize) -> KwlColouring {
        let budget = x2v_guard::ambient();
        self.try_run_rounds(g, rounds, &budget)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs exactly `rounds` refinement rounds within `budget`.
    ///
    /// # Errors
    /// As for [`KwlRefiner::try_run`].
    fn try_run_rounds(
        &mut self,
        g: &Graph,
        rounds: usize,
        budget: &Budget,
    ) -> x2v_guard::Result<KwlColouring> {
        let n = g.order();
        let mut meter = budget.meter(SITE);
        let mut colours = self.atomic_colours(g, &mut meter)?;
        for _ in 0..rounds {
            meter.checkpoint()?;
            colours = self.refine_once(n, &colours, &mut meter)?;
        }
        Ok(KwlColouring {
            colours,
            rounds,
            k: self.k,
            n,
        })
    }

    /// Whether k-WL distinguishes `g` and `h`. The two tuple colourings are
    /// refined in lock-step until the joint partition stabilises — each
    /// graph's own partition can stabilise before the colours of the two
    /// graphs stop diverging.
    pub fn distinguishes(&mut self, g: &Graph, h: &Graph) -> bool {
        let budget = x2v_guard::ambient();
        self.try_distinguishes(g, h, &budget)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Whether k-WL distinguishes `g` and `h`, within `budget` (shared
    /// across both graphs' refinements).
    ///
    /// # Errors
    /// As for [`KwlRefiner::try_run`].
    fn try_distinguishes(
        &mut self,
        g: &Graph,
        h: &Graph,
        budget: &Budget,
    ) -> x2v_guard::Result<bool> {
        if g.order() != h.order() {
            return Ok(true);
        }
        let n = g.order();
        let mut meter = budget.meter(SITE);
        let mut cg = self.atomic_colours(g, &mut meter)?;
        let mut ch = self.atomic_colours(h, &mut meter)?;
        let mut classes = joint_distinct(&cg, &ch);
        loop {
            meter.checkpoint()?;
            let ng = self.refine_once(n, &cg, &mut meter)?;
            let nh = self.refine_once(n, &ch, &mut meter)?;
            let next = joint_distinct(&ng, &nh);
            cg = ng;
            ch = nh;
            if next == classes {
                break;
            }
            classes = next;
        }
        Ok(histogram_of(&cg) != histogram_of(&ch))
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

fn histogram_of(colours: &[Colour]) -> FxHashMap<Colour, u64> {
    let mut h = FxHashMap::default();
    for &c in colours {
        *h.entry(c).or_insert(0) += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::cfi::cfi_pair;
    use x2v_graph::generators::{circulant, cycle, path};
    use x2v_graph::ops::disjoint_union;

    #[test]
    fn two_wl_separates_c6_from_2c3() {
        // 1-WL cannot tell these apart; 2-WL can.
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        let mut k2 = KwlRefiner::new(2);
        assert!(k2.distinguishes(&c6, &tt));
    }

    #[test]
    fn two_wl_separates_circulants() {
        let a = circulant(8, &[1, 2]);
        let b = circulant(8, &[1, 3]);
        let mut k2 = KwlRefiner::new(2);
        assert!(k2.distinguishes(&a, &b));
    }

    #[test]
    fn two_wl_invariant_under_permutation() {
        let g = cycle(5);
        let p = x2v_graph::ops::permute(&g, &[2, 0, 4, 1, 3]);
        let mut k2 = KwlRefiner::new(2);
        assert!(!k2.distinguishes(&g, &p));
    }

    #[test]
    fn cfi_over_cycle_fools_1wl_not_2wl() {
        // Base C5 has treewidth 2: the CFI pair is 1-WL-equivalent but
        // 2-WL-distinguishable.
        let (u, t) = cfi_pair(&cycle(5));
        let mut one = crate::refine::Refiner::new();
        assert!(!one.distinguishes(&u, &t));
        let mut k2 = KwlRefiner::new(2);
        assert!(k2.distinguishes(&u, &t));
    }

    #[test]
    #[ignore = "2-WL on 40-node CFI graphs; slow in debug builds"]
    fn cfi_over_k4_fools_2wl() {
        // Base K4 has treewidth 3: not even 2-WL separates the pair.
        let (u, t) = cfi_pair(&x2v_graph::generators::complete(4));
        let mut k2 = KwlRefiner::new(2);
        assert!(!k2.distinguishes(&u, &t));
    }

    #[test]
    fn colour_of_tuple_lookup() {
        let g = path(3);
        let mut k2 = KwlRefiner::new(2);
        let c = k2.run(&g);
        // (0,1) is an edge, (0,2) is not: different atomic types survive.
        assert_ne!(c.colour_of(&[0, 1]), c.colour_of(&[0, 2]));
        // Symmetric positions: (0,1) vs (2,1) are related by the end-swap
        // automorphism.
        assert_eq!(c.colour_of(&[0, 1]), c.colour_of(&[2, 1]));
    }

    #[test]
    #[should_panic(expected = "use crate::refine for 1-WL")]
    fn k1_rejected() {
        let _ = KwlRefiner::new(1);
    }

    #[test]
    fn budgeted_run_trips_and_unlimited_agrees() {
        use x2v_guard::{Budget, GuardError};
        let g = cycle(6);
        let mut k2 = KwlRefiner::new(2);
        // 6² = 36 tuples: a 10-unit budget cannot even finish atomic init.
        let err = k2
            .try_run(&g, &Budget::unlimited().with_work_limit(10))
            .unwrap_err();
        assert!(matches!(err, GuardError::BudgetExhausted { .. }));
        let full = k2.try_run(&g, &Budget::unlimited()).unwrap();
        let reference = KwlRefiner::new(2).run(&g);
        assert_eq!(full.histogram().len(), reference.histogram().len());
        assert_eq!(full.rounds, reference.rounds);
    }

    #[test]
    fn budgeted_distinguishes_matches() {
        use x2v_guard::Budget;
        let mut k2 = KwlRefiner::new(2);
        let a = circulant(8, &[1, 2]);
        let b = circulant(8, &[1, 3]);
        assert!(k2.try_distinguishes(&a, &b, &Budget::unlimited()).unwrap());
    }
}
