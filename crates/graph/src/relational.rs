//! Relational structures of arbitrary arity, their Gaifman and incidence
//! graphs (Section 4.2), and knowledge graphs (binary relational structures,
//! Section 2.3).

use crate::{Graph, GraphBuilder, GraphError, Result};

/// A relation symbol: a name and an arity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationSymbol {
    /// Human-readable name (e.g. `"capital_of"`).
    pub name: String,
    /// Arity `k_i ≥ 1`.
    pub arity: usize,
}

/// A relational vocabulary `σ = {R_1, …, R_m}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vocabulary {
    symbols: Vec<RelationSymbol>,
}

impl Vocabulary {
    /// Builds a vocabulary from `(name, arity)` pairs.
    pub fn new(symbols: &[(&str, usize)]) -> Self {
        Vocabulary {
            symbols: symbols
                .iter()
                .map(|&(name, arity)| RelationSymbol {
                    name: name.to_string(),
                    arity,
                })
                .collect(),
        }
    }

    /// The relation symbols.
    pub fn symbols(&self) -> &[RelationSymbol] {
        &self.symbols
    }

    /// Number of relation symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }
}

/// A finite σ-structure `A = (V(A), R_1(A), …, R_m(A))`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Structure {
    vocabulary: Vocabulary,
    universe: usize,
    /// `relations[i]` lists the tuples of `R_i(A)`, deduplicated, sorted.
    relations: Vec<Vec<Vec<usize>>>,
}

impl Structure {
    /// Creates a structure with an empty interpretation of every relation.
    pub fn new(vocabulary: Vocabulary, universe: usize) -> Self {
        let m = vocabulary.len();
        Structure {
            vocabulary,
            universe,
            relations: vec![Vec::new(); m],
        }
    }

    /// Adds a tuple to relation `rel` (index into the vocabulary).
    ///
    /// # Errors
    /// Rejects wrong arity and out-of-range elements. Duplicate tuples are
    /// ignored (relations are sets).
    pub fn add_tuple(&mut self, rel: usize, tuple: &[usize]) -> Result<()> {
        let sym = &self.vocabulary.symbols()[rel];
        if tuple.len() != sym.arity {
            return Err(GraphError::ArityMismatch {
                relation: sym.name.clone(),
                expected: sym.arity,
                got: tuple.len(),
            });
        }
        for &x in tuple {
            if x >= self.universe {
                return Err(GraphError::NodeOutOfRange {
                    node: x,
                    order: self.universe,
                });
            }
        }
        let t = tuple.to_vec();
        if !self.relations[rel].contains(&t) {
            self.relations[rel].push(t);
        }
        Ok(())
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// Tuples of relation `rel`.
    pub fn tuples(&self, rel: usize) -> &[Vec<usize>] {
        &self.relations[rel]
    }

    /// The Gaifman graph: elements adjacent iff they co-occur in some tuple.
    pub fn gaifman_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.universe);
        for tuples in &self.relations {
            for t in tuples {
                for i in 0..t.len() {
                    for j in (i + 1)..t.len() {
                        if t[i] != t[j] {
                            let _ = b.add_edge_idempotent(t[i], t[j]).expect("in range");
                        }
                    }
                }
            }
        }
        b.build()
    }

    /// The incidence graph encoding of the incidence structure `A_I`
    /// (Section 4.2), as a vertex-labelled undirected graph suitable for
    /// 1-WL / C² comparisons of structures over the same vocabulary:
    ///
    /// * one node per universe element, label `0`;
    /// * one node per tuple `(R_i, v_1, …, v_{k_i})`, label `1 + i`
    ///   (realising the unary predicates `P_i`);
    /// * the binary incidence relation `E_j` connecting position `j` of a
    ///   tuple to its element is realised by a subdivision node labelled
    ///   `1 + m + j` where `m` is the number of relation symbols — distinct
    ///   labels per position stand in for the edge-coloured relations `E_j`.
    pub fn incidence_graph(&self) -> Graph {
        let m = self.vocabulary.len();
        let n_tuples: usize = self.relations.iter().map(Vec::len).sum();
        let n_positions: usize = self
            .relations
            .iter()
            .enumerate()
            .map(|(i, ts)| ts.len() * self.vocabulary.symbols()[i].arity)
            .sum();
        let total = self.universe + n_tuples + n_positions;
        let mut b = GraphBuilder::new(total);
        let mut tuple_node = self.universe;
        let mut pos_node = self.universe + n_tuples;
        for (i, tuples) in self.relations.iter().enumerate() {
            for t in tuples {
                b.set_label(tuple_node, 1 + i as u32).expect("in range");
                for (j, &elem) in t.iter().enumerate() {
                    b.set_label(pos_node, (1 + m + j) as u32).expect("in range");
                    b.add_edge(tuple_node, pos_node).expect("fresh");
                    let _ = b.add_edge_idempotent(pos_node, elem).expect("in range");
                    pos_node += 1;
                }
                tuple_node += 1;
            }
        }
        b.build()
    }

    /// Wraps a graph as a `{E/2}`-structure (the standard encoding; each
    /// undirected edge contributes both orientations of `E`).
    pub fn from_graph(g: &Graph) -> Self {
        let vocab = Vocabulary::new(&[("E", 2)]);
        let mut s = Structure::new(vocab, g.order());
        for (u, v) in g.edges() {
            s.add_tuple(0, &[u, v]).expect("valid edge");
            s.add_tuple(0, &[v, u]).expect("valid edge");
        }
        s
    }
}

/// A knowledge graph: entities, relation types, and (head, relation, tail)
/// triples — the input of TransE and RESCAL (Section 2.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnowledgeGraph {
    n_entities: usize,
    n_relations: usize,
    triples: Vec<(usize, usize, usize)>,
}

impl KnowledgeGraph {
    /// Creates a knowledge graph from `(head, relation, tail)` triples.
    ///
    /// # Errors
    /// Rejects out-of-range entities/relations. Duplicates are dropped.
    pub fn new(
        n_entities: usize,
        n_relations: usize,
        triples: &[(usize, usize, usize)],
    ) -> Result<Self> {
        let mut kept = Vec::with_capacity(triples.len());
        for &(h, r, t) in triples {
            if h >= n_entities {
                return Err(GraphError::NodeOutOfRange {
                    node: h,
                    order: n_entities,
                });
            }
            if t >= n_entities {
                return Err(GraphError::NodeOutOfRange {
                    node: t,
                    order: n_entities,
                });
            }
            if r >= n_relations {
                return Err(GraphError::NodeOutOfRange {
                    node: r,
                    order: n_relations,
                });
            }
            if !kept.contains(&(h, r, t)) {
                kept.push((h, r, t));
            }
        }
        Ok(KnowledgeGraph {
            n_entities,
            n_relations,
            triples: kept,
        })
    }

    /// Number of entities.
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Number of relation types.
    pub fn n_relations(&self) -> usize {
        self.n_relations
    }

    /// All triples.
    pub fn triples(&self) -> &[(usize, usize, usize)] {
        &self.triples
    }

    /// Whether a triple is present.
    pub fn contains(&self, h: usize, r: usize, t: usize) -> bool {
        self.triples.contains(&(h, r, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ternary_example() -> Structure {
        // R(x, y, z) ternary, S(x) unary over a 4-element universe.
        let vocab = Vocabulary::new(&[("R", 3), ("S", 1)]);
        let mut s = Structure::new(vocab, 4);
        s.add_tuple(0, &[0, 1, 2]).unwrap();
        s.add_tuple(0, &[1, 2, 3]).unwrap();
        s.add_tuple(1, &[0]).unwrap();
        s
    }

    #[test]
    fn arity_and_range_checked() {
        let mut s = ternary_example();
        assert!(matches!(
            s.add_tuple(0, &[0, 1]),
            Err(GraphError::ArityMismatch {
                expected: 3,
                got: 2,
                ..
            })
        ));
        assert!(s.add_tuple(1, &[9]).is_err());
        // duplicates ignored
        s.add_tuple(1, &[0]).unwrap();
        assert_eq!(s.tuples(1).len(), 1);
    }

    #[test]
    fn gaifman_graph_of_ternary() {
        let s = ternary_example();
        let g = s.gaifman_graph();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.size(), 5);
    }

    #[test]
    fn incidence_graph_counts() {
        let s = ternary_example();
        let ig = s.incidence_graph();
        // 4 elements + 3 tuples + (2*3 + 1*1) position nodes
        assert_eq!(ig.order(), 4 + 3 + 7);
        // tuple nodes carry relation labels
        assert_eq!(ig.label(4), 1); // first R-tuple
        assert_eq!(ig.label(6), 2); // the S-tuple
                                    // every position node has degree 2 (tuple + element)
        for v in 7..14 {
            assert_eq!(ig.degree(v), 2, "position node {v}");
        }
    }

    #[test]
    fn graph_structure_roundtrip() {
        let g = crate::generators::cycle(4);
        let s = Structure::from_graph(&g);
        assert_eq!(s.tuples(0).len(), 8); // both orientations
        assert_eq!(s.gaifman_graph(), g);
    }

    #[test]
    fn knowledge_graph_accessors() {
        let kg = KnowledgeGraph::new(4, 2, &[(0, 0, 1), (1, 0, 2), (0, 1, 3), (0, 0, 1)]).unwrap();
        assert_eq!(kg.triples().len(), 3); // duplicate dropped
        assert!(kg.contains(0, 0, 1));
        assert!(!kg.contains(1, 1, 0));
    }

    #[test]
    fn knowledge_graph_rejects_out_of_range() {
        assert!(KnowledgeGraph::new(2, 1, &[(0, 0, 5)]).is_err());
        assert!(KnowledgeGraph::new(2, 1, &[(0, 3, 1)]).is_err());
    }
}
