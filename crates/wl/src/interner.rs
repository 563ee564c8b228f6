//! Colour interning: signatures ↦ dense `u64` colour ids.

use std::collections::hash_map::Entry;
use std::hash::Hasher;
use x2v_graph::hash::{FxHashMap, FxHasher};

/// A WL colour. Colours are *structural*: a colour id identifies an
/// unfolding tree, independently of which graph produced it, as long as all
/// graphs share one [`ColourInterner`].
pub type Colour = u64;

/// End of a collision chain in [`ColourInterner`]'s `next` links.
const NO_COLOUR: Colour = Colour::MAX;

/// Interns refinement signatures into dense colour ids.
///
/// Signatures are `u64` words encoded by the refinement algorithms. The
/// interner stores each one once, in a flat arena delimited by offsets, and
/// remembers it so a colour can be *unfolded* back into its defining tree
/// (Figure 5 of the paper; see `crate::unfold`). Lookup hashes the borrowed
/// slice: `heads` maps a signature hash to the newest colour with that
/// hash, and `next[c]` links colours whose signatures share a hash, so two
/// different signatures with one hash still get different colours.
pub struct ColourInterner {
    heads: FxHashMap<u64, Colour>,
    next: Vec<Colour>,
    offsets: Vec<usize>,
    arena: Vec<u64>,
    /// Routes every signature to one hash bucket, so tests exercise the
    /// collision chain.
    #[cfg(test)]
    one_bucket: bool,
}

impl Default for ColourInterner {
    fn default() -> Self {
        ColourInterner {
            heads: FxHashMap::default(),
            next: Vec::new(),
            offsets: vec![0],
            arena: Vec::new(),
            #[cfg(test)]
            one_bucket: false,
        }
    }
}

impl ColourInterner {
    /// Fresh interner with no colours.
    pub fn new() -> Self {
        Self::default()
    }

    fn hash(&self, signature: &[u64]) -> u64 {
        #[cfg(test)]
        if self.one_bucket {
            return 0;
        }
        let mut h = FxHasher::default();
        h.write_usize(signature.len());
        for &w in signature {
            h.write_u64(w);
        }
        h.finish()
    }

    /// Returns the colour of `signature`, creating one if unseen.
    pub fn intern(&mut self, signature: &[u64]) -> Colour {
        let fresh = self.next.len() as Colour;
        let head = match self.heads.entry(self.hash(signature)) {
            Entry::Vacant(slot) => {
                slot.insert(fresh);
                NO_COLOUR
            }
            Entry::Occupied(mut slot) => {
                let head = *slot.get();
                let mut c = head;
                while c != NO_COLOUR {
                    let (lo, hi) = (self.offsets[c as usize], self.offsets[c as usize + 1]);
                    if self.arena[lo..hi] == *signature {
                        return c;
                    }
                    c = self.next[c as usize];
                }
                slot.insert(fresh);
                head
            }
        };
        self.next.push(head);
        self.arena.extend_from_slice(signature);
        self.offsets.push(self.arena.len());
        fresh
    }

    /// The signature that defines colour `c`.
    ///
    /// # Panics
    /// If `c` was not produced by this interner.
    pub fn signature(&self, c: Colour) -> &[u64] {
        let c = c as usize;
        &self.arena[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Number of distinct colours interned so far.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Whether no colour has been interned.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut i = ColourInterner::new();
        let a = i.intern(&[1, 2, 3]);
        let b = i.intern(&[1, 2, 4]);
        let a2 = i.intern(&[1, 2, 3]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.signature(a), &[1, 2, 3]);
    }

    #[test]
    fn ids_are_dense() {
        let mut i = ColourInterner::new();
        for k in 0..10u64 {
            assert_eq!(i.intern(&[k]), k);
        }
    }

    #[test]
    fn colliding_signatures_get_distinct_colours() {
        let mut i = ColourInterner {
            one_bucket: true,
            ..ColourInterner::new()
        };
        let sigs: [&[u64]; 4] = [&[1, 2, 3], &[1, 2, 4], &[], &[1, 2]];
        let colours: Vec<Colour> = sigs.iter().map(|s| i.intern(s)).collect();
        assert_eq!(colours, [0, 1, 2, 3], "one bucket, four dense ids");
        for (s, &c) in sigs.iter().zip(&colours) {
            assert_eq!(i.intern(s), c, "re-interning finds the chained colour");
            assert_eq!(i.signature(c), *s);
        }
        assert_eq!(i.len(), 4);
    }
}
