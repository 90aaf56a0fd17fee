//! Degree-balanced edge-cut partitioning of the CSR graph.
//!
//! The engine's sharded executor (armed on `sno-engine`'s incremental
//! modes by `Simulation::configure_sync_sharding`) splits a round's
//! work — guard resolution, delta-staged writes, dirty-node
//! re-evaluation — across graph *shards*. Two properties make a
//! partition useful there:
//!
//! 1. **contiguous NodeId ranges** — every per-node engine array
//!    (configuration slots, action counts, CSR port words) splits into
//!    disjoint `&mut` chunks by plain `split_at_mut`, so shard workers
//!    borrow their slice of the world without locks, and folding
//!    per-shard results back in shard order *is* NodeId order;
//! 2. **degree balance** — a shard's round cost is dominated by the sum
//!    of its nodes' degrees (guard evaluations fan out over incident
//!    ports), so boundaries are chosen on the prefix sums of
//!    `degree + 1`, not on node counts. A hub-heavy prefix gets fewer
//!    nodes, a leaf-heavy suffix more.
//!
//! The cut is an **edge cut**: edges whose endpoints land in different
//! shards are *boundary* edges, and their endpoints are *boundary*
//! nodes. [`Partition::views`] materializes that classification per
//! shard ([`ShardView`]) — the executor treats writes at interior nodes
//! as shard-local and routes invalidation crossing a boundary through
//! its exchange step between the round's phases.

use crate::{Graph, NodeId};

/// A partition of a graph's nodes into contiguous, degree-balanced
/// NodeId ranges.
///
/// Construction is deterministic in `(graph, shards)`: the same inputs
/// produce the same boundaries on every machine and thread count — a
/// prerequisite for the engine's byte-identical sharded traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Shard `s` owns nodes `bounds[s] .. bounds[s + 1]`. Monotone,
    /// starts at 0, ends at `n`; every shard is non-empty.
    bounds: Vec<u32>,
}

impl Partition {
    /// Cuts `g` into at most `shards` contiguous ranges balanced by the
    /// per-node weight `degree + 1` (the `+ 1` keeps zero-degree nodes
    /// from collapsing a range and approximates the constant per-node
    /// cost of a guard evaluation).
    ///
    /// The requested count is clamped to `[1, n]`; fewer shards may be
    /// produced when the weight profile cannot fill them (every produced
    /// shard is non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn degree_balanced(g: &Graph, shards: usize) -> Partition {
        assert!(shards > 0, "a partition needs at least one shard");
        let n = g.node_count();
        let shards = shards.min(n).max(1);
        let total: u64 = g.nodes().map(|p| g.degree(p) as u64 + 1).sum();
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0u32);
        let mut acc = 0u64;
        let mut next_cut = 1usize; // the cut index we are looking for
        for p in g.nodes() {
            acc += g.degree(p) as u64 + 1;
            // Close shard `next_cut - 1` once its weight target is met,
            // but never so greedily that later shards would be empty.
            let remaining_nodes = n - (p.index() + 1);
            let remaining_shards = shards - next_cut;
            if next_cut < shards
                && acc * shards as u64 >= total * next_cut as u64
                && remaining_nodes >= remaining_shards
            {
                bounds.push((p.index() + 1) as u32);
                next_cut += 1;
            }
        }
        while bounds.len() < shards + 1 {
            bounds.push(n as u32);
        }
        *bounds.last_mut().expect("non-empty") = n as u32;
        // Drop degenerate (empty) trailing ranges produced by extreme
        // weight skew.
        bounds.dedup();
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Partition { bounds }
    }

    /// Extends the last shard to cover one appended node — the `O(1)`
    /// incremental repair for a `TopologyEvent::NodeJoin` (the arrival
    /// always takes `NodeId` `n`, which is contiguous with the last
    /// range). Link events need no repair at all: bounds stay a valid
    /// cover and degree balance is only a performance heuristic.
    pub fn absorb_node(&mut self) {
        *self.bounds.last_mut().expect("non-empty") += 1;
    }

    /// The trivial one-shard partition of an `n`-node graph.
    pub fn whole(n: usize) -> Partition {
        Partition {
            bounds: vec![0, n as u32],
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The node-index range owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s] as usize..self.bounds[s + 1] as usize
    }

    /// The raw boundaries (`shard_count() + 1` entries, first 0, last
    /// `n`) — the split points for chunking per-node arrays.
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// The shard owning `node` (binary search over the boundaries).
    pub fn shard_of(&self, node: NodeId) -> usize {
        let i = node.index() as u32;
        match self.bounds.binary_search(&i) {
            Ok(s) if s < self.shard_count() => s,
            Ok(s) => s - 1,
            Err(s) => s - 1,
        }
    }

    /// Splits a per-node slice into one `&mut` chunk per shard, aligned
    /// with [`Partition::range`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the partitioned node count.
    pub fn split_mut<'d, T>(&self, mut data: &'d mut [T]) -> Vec<&'d mut [T]> {
        assert_eq!(
            data.len(),
            *self.bounds.last().expect("non-empty") as usize,
            "per-node array length must match the partitioned graph"
        );
        let mut chunks = Vec::with_capacity(self.shard_count());
        for s in 0..self.shard_count() {
            let len = self.range(s).len();
            let (head, tail) = data.split_at_mut(len);
            chunks.push(head);
            data = tail;
        }
        chunks
    }

    /// Materializes the per-shard local/boundary classification.
    pub fn views(&self, g: &Graph) -> Vec<ShardView> {
        (0..self.shard_count())
            .map(|s| {
                let range = self.range(s);
                let mut boundary = Vec::new();
                let mut cut_edges = 0usize;
                let mut local_edges = 0usize;
                for u in range.clone() {
                    let u = NodeId::new(u);
                    let mut crosses = false;
                    for &v in g.neighbors(u) {
                        if range.contains(&v.index()) {
                            if u.index() < v.index() {
                                local_edges += 1;
                            }
                        } else {
                            crosses = true;
                            cut_edges += 1; // counted once per directed half-edge
                        }
                    }
                    if crosses {
                        boundary.push(u);
                    }
                }
                ShardView {
                    shard: s,
                    range,
                    boundary,
                    half_cut_edges: cut_edges,
                    local_edges,
                }
            })
            .collect()
    }
}

/// One shard's view of the cut: which of its nodes sit on the boundary
/// (have a neighbor in another shard) and how many edges stay local.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardView {
    /// The shard index.
    pub shard: usize,
    /// The owned node range.
    pub range: std::ops::Range<usize>,
    /// Owned nodes with at least one cross-shard neighbor, ascending.
    pub boundary: Vec<NodeId>,
    /// Outgoing directed half-edges crossing the cut (each undirected
    /// cut edge contributes one here and one at the other shard).
    pub half_cut_edges: usize,
    /// Undirected edges with both endpoints in this shard.
    pub local_edges: usize,
}

impl ShardView {
    /// `true` iff `node` is owned by this shard and has no cross-shard
    /// neighbor — its whole neighborhood is shard-local.
    pub fn is_interior(&self, node: NodeId) -> bool {
        self.range.contains(&node.index()) && self.boundary.binary_search(&node).is_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn partitions_cover_all_nodes_contiguously() {
        for (g, shards) in [
            (generators::path(17), 4),
            (generators::star(33), 3),
            (generators::torus(5, 5), 8),
            (generators::random_tree(40, 7), 6),
        ] {
            let p = Partition::degree_balanced(&g, shards);
            assert!(p.shard_count() >= 1 && p.shard_count() <= shards);
            let mut covered = 0usize;
            for s in 0..p.shard_count() {
                let r = p.range(s);
                assert_eq!(r.start, covered, "contiguous");
                assert!(!r.is_empty(), "non-empty shard");
                covered = r.end;
                for u in r.clone() {
                    assert_eq!(p.shard_of(NodeId::new(u)), s);
                }
            }
            assert_eq!(covered, g.node_count());
        }
    }

    #[test]
    fn shard_weights_are_balanced_on_uniform_degrees() {
        // A torus is degree-regular, so degree balance ≈ node balance.
        let g = generators::torus(8, 8);
        let p = Partition::degree_balanced(&g, 4);
        assert_eq!(p.shard_count(), 4);
        for s in 0..4 {
            let len = p.range(s).len();
            assert!((12..=20).contains(&len), "shard {s} holds {len} nodes");
        }
    }

    #[test]
    fn hub_weight_shrinks_the_hub_shard() {
        // Star: node 0 carries ~half the total weight, so the first
        // shard must be tiny in node count.
        let g = generators::star(64);
        let p = Partition::degree_balanced(&g, 4);
        assert!(p.range(0).len() < 16, "hub shard is node-light");
        let total: usize = (0..p.shard_count()).map(|s| p.range(s).len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn more_shards_than_nodes_clamps() {
        let g = generators::path(3);
        let p = Partition::degree_balanced(&g, 16);
        assert!(p.shard_count() <= 3);
        assert_eq!(p.range(p.shard_count() - 1).end, 3);
    }

    #[test]
    fn absorb_node_extends_the_last_shard() {
        let g = generators::path(9);
        let mut p = Partition::degree_balanced(&g, 3);
        let shards = p.shard_count();
        p.absorb_node();
        p.absorb_node();
        assert_eq!(p.shard_count(), shards);
        assert_eq!(p.range(shards - 1).end, 11);
        assert_eq!(p.shard_of(NodeId::new(10)), shards - 1);
        assert_eq!(*p.bounds().last().unwrap(), 11);
    }

    #[test]
    fn whole_partition_is_one_shard() {
        let p = Partition::whole(9);
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.range(0), 0..9);
        assert_eq!(p.shard_of(NodeId::new(8)), 0);
    }

    #[test]
    fn split_mut_chunks_align_with_ranges() {
        let g = generators::path(11);
        let p = Partition::degree_balanced(&g, 3);
        let mut data: Vec<u32> = (0..11).collect();
        let chunks = p.split_mut(&mut data);
        assert_eq!(chunks.len(), p.shard_count());
        for (s, c) in chunks.iter().enumerate() {
            let r = p.range(s);
            assert_eq!(c.len(), r.len());
            assert_eq!(c[0], r.start as u32);
        }
    }

    #[test]
    fn views_classify_boundary_and_local_edges() {
        let g = generators::path(10);
        let p = Partition::degree_balanced(&g, 2);
        let views = p.views(&g);
        assert_eq!(views.len(), 2);
        // A path cut once has exactly one cut edge: one boundary node
        // per side, one outgoing half-edge each.
        for v in &views {
            assert_eq!(v.boundary.len(), 1, "{v:?}");
            assert_eq!(v.half_cut_edges, 1, "{v:?}");
        }
        let total_local: usize = views.iter().map(|v| v.local_edges).sum();
        assert_eq!(total_local, g.edge_count() - 1);
        // Interior nodes are owned and off the boundary.
        let v0 = &views[0];
        assert!(v0.is_interior(NodeId::new(0)));
        assert!(!v0.is_interior(v0.boundary[0]));
        assert!(!v0.is_interior(NodeId::new(9)), "not owned");
    }

    #[test]
    fn partitions_are_deterministic() {
        let g = generators::random_connected(30, 20, 5);
        assert_eq!(
            Partition::degree_balanced(&g, 5),
            Partition::degree_balanced(&g, 5)
        );
    }
}
