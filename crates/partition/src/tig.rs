//! The Task Interaction Graph (TIG) model used by the mapping phase.

use crate::blocks::Partitioning;
use crate::comm::block_graph;
use std::collections::BTreeMap;

/// A Task Interaction Graph: one vertex per partitioned block, undirected
/// weighted edges for communication requirements (Sadayappan & Ercal's
/// model, as adopted in §IV of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tig {
    num_vertices: usize,
    /// Per-vertex computational weight (number of iterations).
    weights: Vec<u64>,
    /// Undirected edge weights keyed by `(min, max)` vertex pair.
    edges: BTreeMap<(usize, usize), u64>,
}

impl Tig {
    /// Build directly from vertex weights and edges (used for synthetic
    /// TIGs such as the paper's Fig. 8 4×4 mesh).
    pub fn from_parts(weights: Vec<u64>, edges: BTreeMap<(usize, usize), u64>) -> Tig {
        let num_vertices = weights.len();
        for &(a, b) in edges.keys() {
            assert!(a < b && b < num_vertices, "bad TIG edge ({a},{b})");
        }
        Tig {
            num_vertices,
            weights,
            edges,
        }
    }

    /// Build the TIG of a partitioning: vertex weights are block sizes,
    /// edge weights are the number of dependence arcs between the blocks
    /// (both directions folded together). See [`block_graph`] for the
    /// TIG together with the communication statistics.
    pub fn from_partitioning(p: &Partitioning) -> Tig {
        block_graph(p).1
    }

    /// The TIG of `p` from its per-ordered-pair interblock traffic.
    pub(crate) fn from_traffic(p: &Partitioning, traffic: BTreeMap<(usize, usize), u64>) -> Tig {
        let weights = p.blocks().iter().map(|b| b.len() as u64).collect();
        let mut edges: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for ((a, b), w) in traffic {
            let key = (a.min(b), a.max(b));
            *edges.entry(key).or_insert(0) += w;
        }
        Tig {
            num_vertices: p.num_blocks(),
            weights,
            edges,
        }
    }

    /// A `rows × cols` mesh TIG with unit weights (the shape of the
    /// paper's Fig. 8 example). Vertices are numbered row-major.
    pub fn mesh(rows: usize, cols: usize) -> Tig {
        let mut edges = BTreeMap::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.insert((v, v + 1), 1);
                }
                if r + 1 < rows {
                    edges.insert((v, v + cols), 1);
                }
            }
        }
        Tig {
            num_vertices: rows * cols,
            weights: vec![1; rows * cols],
            edges,
        }
    }

    /// Number of vertices (blocks).
    pub fn len(&self) -> usize {
        self.num_vertices
    }

    /// `true` iff the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.num_vertices == 0
    }

    /// Computational weight of vertex `v`.
    pub fn weight(&self, v: usize) -> u64 {
        self.weights[v]
    }

    /// All undirected edges with weights.
    pub fn edges(&self) -> impl Iterator<Item = ((usize, usize), u64)> + '_ {
        self.edges.iter().map(|(&k, &w)| (k, w))
    }

    /// Weight of the edge between `a` and `b` (0 if absent).
    pub fn edge_weight(&self, a: usize, b: usize) -> u64 {
        if a == b {
            return 0;
        }
        self.edges.get(&(a.min(b), a.max(b))).copied().unwrap_or(0)
    }

    /// Total communication volume (sum of edge weights).
    pub fn total_traffic(&self) -> u64 {
        self.edges.values().sum()
    }

    /// Neighbors of a vertex.
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        self.edges
            .keys()
            .filter_map(|&(a, b)| {
                if a == v {
                    Some(b)
                } else if b == v {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{partition, PartitionConfig};
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;

    #[test]
    fn mesh_structure() {
        let t = Tig::mesh(4, 4);
        assert_eq!(t.len(), 16);
        // 4×4 mesh: 2·4·3 = 24 edges.
        assert_eq!(t.edges().count(), 24);
        assert_eq!(t.total_traffic(), 24);
        assert_eq!(t.neighbors(0), vec![1, 4]);
        assert_eq!(t.neighbors(5).len(), 4);
        assert_eq!(t.edge_weight(0, 1), 1);
        assert_eq!(t.edge_weight(0, 5), 0);
        assert_eq!(t.edge_weight(3, 3), 0);
    }

    #[test]
    fn tig_from_l1_partitioning() {
        let p = partition(
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![vec![0, 1], vec![1, 1], vec![1, 0]],
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap();
        let t = Tig::from_partitioning(&p);
        assert_eq!(t.len(), 4);
        // Total undirected traffic equals the 12 interblock arcs.
        assert_eq!(t.total_traffic(), 12);
        // Vertex weights are block sizes summing to 16.
        let sum: u64 = (0..t.len()).map(|v| t.weight(v)).sum();
        assert_eq!(sum, 16);
    }

    #[test]
    #[should_panic(expected = "bad TIG edge")]
    fn from_parts_validates_edges() {
        let mut edges = BTreeMap::new();
        edges.insert((1, 1), 3u64);
        Tig::from_parts(vec![1, 1], edges);
    }
}
