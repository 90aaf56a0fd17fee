//! The port-numbered undirected graph at the heart of every simulation.

use std::collections::HashSet;
use std::fmt;

use crate::{NodeId, Port};

/// Error building or validating a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no nodes.
    Empty,
    /// An edge endpoint referred to a node index `>= n`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// An edge connected a node to itself; the model only allows simple
    /// bidirectional links between distinct processors.
    SelfLoop {
        /// The node with the self-loop.
        node: usize,
    },
    /// The same undirected edge was added twice.
    DuplicateEdge {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// A mutation named an edge the graph does not contain.
    MissingEdge {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::DuplicateEdge { a, b } => {
                write!(f, "duplicate edge between {a} and {b}")
            }
            GraphError::MissingEdge { a, b } => {
                write!(f, "no edge between {a} and {b}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected, simple, port-numbered graph.
///
/// Each node's incident edges are numbered `0..degree` in the order the
/// edges were added (its *ports*). For every port the graph also records the
/// *back port*: the port index of the same edge at the other endpoint. This
/// mirrors the paper's assumption that each processor maintains its neighbor
/// set `N_p` via an underlying protocol.
///
/// Adjacency is stored in **CSR (compressed sparse row) layout**: one flat
/// neighbor array plus per-node offsets, so [`Graph::neighbors`] and
/// [`Graph::back_ports`] are contiguous slices of one allocation. Hot loops
/// that fan out over a node's neighborhood (the engine's incremental
/// enabled-set maintenance in particular) iterate cache-line-adjacent
/// memory and never allocate.
///
/// Construct a `Graph` with [`GraphBuilder`] or [`Graph::from_edges`].
/// After construction the topology can still *mutate* — [`Graph::add_edge`],
/// [`Graph::remove_edge`], [`Graph::add_node`], [`Graph::detach_node`] —
/// with **incremental CSR repair**: each mutation splices the flat
/// arrays in place (no rebuild) and returns a
/// [`CsrDelta`](crate::mutate::CsrDelta) describing the splice so
/// aligned side tables can mirror it. See [`crate::mutate`].
///
/// # Example
///
/// ```
/// use sno_graph::{Graph, NodeId, Port};
///
/// // A triangle.
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])?;
/// assert_eq!(g.degree(NodeId::new(0)), 2);
/// let q = g.neighbor(NodeId::new(0), Port::new(0));
/// assert_eq!(q, NodeId::new(1));
/// # Ok::<(), sno_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// Node `u`'s ports occupy `flat_adj[offsets[u] .. offsets[u + 1]]`.
    offsets: Vec<u32>,
    /// Flat neighbor array: `flat_adj[offsets[u] + p]` = neighbor of `u`
    /// through port `p`.
    flat_adj: Vec<NodeId>,
    /// Flat back-port array, aligned with `flat_adj`.
    flat_back: Vec<Port>,
    /// Number of undirected edges.
    m: usize,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let adj: Vec<&[NodeId]> = self.nodes().map(|p| self.neighbors(p)).collect();
        f.debug_struct("Graph")
            .field("n", &self.node_count())
            .field("m", &self.m)
            .field("adj", &adj)
            .finish()
    }
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Ports are assigned in edge-list order: the `k`-th edge incident to a
    /// node (in list order) becomes its port `k`. This makes topology
    /// generation fully deterministic, which in turn makes every simulated
    /// execution reproducible from a seed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `n == 0`, an endpoint is out of range, an
    /// edge is a self-loop, or an edge appears twice.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.edge(u, v);
        }
        b.build()
    }

    /// Number of processors `|V|`.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of bidirectional links `|E|`.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// The CSR range of node `p`'s ports in the flat arrays.
    #[inline]
    fn range(&self, p: NodeId) -> std::ops::Range<usize> {
        self.offsets[p.index()] as usize..self.offsets[p.index() + 1] as usize
    }

    /// Iterator over all node identifiers, in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Degree `Δ_p` of node `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn degree(&self, p: NodeId) -> usize {
        self.range(p).len()
    }

    /// The maximum degree `Δ` over all nodes.
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Neighbors of `p` in port order — a contiguous slice of the CSR
    /// neighbor array.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn neighbors(&self, p: NodeId) -> &[NodeId] {
        &self.flat_adj[self.range(p)]
    }

    /// The neighbor of `p` through port `l`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `l` is out of range.
    #[inline]
    pub fn neighbor(&self, p: NodeId, l: Port) -> NodeId {
        self.neighbors(p)[l.index()]
    }

    /// The port of the edge `(p, q)` at the *other* endpoint `q`, where the
    /// edge is designated by its port `l` at `p`.
    ///
    /// If `q = neighbor(p, l)` then `neighbor(q, back_port(p, l)) == p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `l` is out of range.
    pub fn back_port(&self, p: NodeId, l: Port) -> Port {
        self.back_ports(p)[l.index()]
    }

    /// All back ports of `p`, in port order — a contiguous slice of the
    /// CSR back-port array.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn back_ports(&self, p: NodeId) -> &[Port] {
        &self.flat_back[self.range(p)]
    }

    /// The index of `(p, l)` in the flat CSR arrays — a stable dense
    /// numbering of the graph's directed half-edges in `0..csr_len()`.
    ///
    /// Engines that keep per-port side tables (the port-dirty guard cache
    /// in `sno-engine` in particular) use this to address "the port `l` of
    /// processor `p`" in one flat allocation, aligned with
    /// [`Graph::neighbors`] / [`Graph::back_ports`].
    ///
    /// # Panics
    ///
    /// Panics if `p` or `l` is out of range.
    #[inline]
    pub fn csr_index(&self, p: NodeId, l: Port) -> usize {
        let r = self.range(p);
        debug_assert!(l.index() < r.len(), "port out of range");
        r.start + l.index()
    }

    /// Total number of directed half-edges (`2m`) — the length of the flat
    /// CSR arrays and the valid range of [`Graph::csr_index`].
    pub fn csr_len(&self) -> usize {
        self.flat_adj.len()
    }

    /// The CSR index of node `p`'s first port (ports occupy
    /// `csr_base(p) .. csr_base(p) + degree(p)`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn csr_base(&self, p: NodeId) -> usize {
        self.offsets[p.index()] as usize
    }

    /// Finds the port of `p` that leads to `q`, if the edge exists.
    pub fn port_to(&self, p: NodeId, q: NodeId) -> Option<Port> {
        self.neighbors(p)
            .iter()
            .position(|&x| x == q)
            .map(Port::new)
    }

    /// Iterator over all undirected edges as `(u, v)` pairs with
    /// `u.index() < v.index()`, each edge reported once.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |v| u.index() < v.index())
                .map(move |&v| (u, v))
        })
    }

    /// `true` iff the graph is connected (the paper's model requires it).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// `true` iff the graph is a tree (`connected` and `m == n − 1`).
    pub fn is_tree(&self) -> bool {
        self.m + 1 == self.node_count() && self.is_connected()
    }

    /// `true` iff the graph contains the undirected edge `(u, v)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.node_count() && self.port_to(u, v).is_some()
    }

    /// `true` iff the graph stays connected after removing the edge
    /// `(u, v)` — i.e. the edge is **not a bridge**. Non-mutating: the
    /// connectivity probe skips the edge without touching the CSR
    /// arrays (re-adding a removed edge would renumber ports, so "remove,
    /// test, revert" is *not* an identity).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn is_connected_without(&self, u: NodeId, v: NodeId) -> bool {
        let n = self.node_count();
        assert!(u.index() < n && v.index() < n, "endpoint out of range");
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(p) = stack.pop() {
            for &q in self.neighbors(p) {
                if (p == u && q == v) || (p == v && q == u) {
                    continue;
                }
                if !seen[q.index()] {
                    seen[q.index()] = true;
                    count += 1;
                    stack.push(q);
                }
            }
        }
        count == n
    }

    // -----------------------------------------------------------------
    // Incremental mutation (see `crate::mutate` for the repair contract)
    // -----------------------------------------------------------------

    /// Adds the undirected edge `(u, v)` **in place**, appending port
    /// `degree(u)` at `u` and `degree(v)` at `v`. No existing port is
    /// renumbered. `O(csr_len)` for the two flat-array insertions plus
    /// `O(n)` for the offset shift — no rebuild, no re-hash of the edge
    /// set.
    ///
    /// Returns the [`CsrDelta`](crate::mutate::CsrDelta) naming the two
    /// inserted flat-array slots (post-mutation indices).
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`], [`GraphError::SelfLoop`], or
    /// [`GraphError::DuplicateEdge`].
    pub fn add_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
    ) -> Result<crate::mutate::CsrDelta, GraphError> {
        let n = self.node_count();
        for x in [u, v] {
            if x.index() >= n {
                return Err(GraphError::NodeOutOfRange { node: x.index(), n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u.index() });
        }
        if self.port_to(u, v).is_some() {
            return Err(GraphError::DuplicateEdge {
                a: u.index(),
                b: v.index(),
            });
        }
        // Normalize so `a` is the smaller NodeId: its range end comes no
        // later than `b`'s in the flat arrays.
        let (a, b) = if u.index() < v.index() {
            (u, v)
        } else {
            (v, u)
        };
        let deg_a = self.degree(a);
        let deg_b = self.degree(b);
        let pa = self.offsets[a.index() + 1] as usize;
        let pb = self.offsets[b.index() + 1] as usize;
        // Insert `b`'s slot first (the higher old position), so `a`'s
        // old position stays valid; the second insert shifts `b`'s new
        // slot to `pb + 1`.
        self.flat_adj.insert(pb, a);
        self.flat_back.insert(pb, Port::new(deg_a));
        self.flat_adj.insert(pa, b);
        self.flat_back.insert(pa, Port::new(deg_b));
        for i in a.index() + 1..=b.index() {
            self.offsets[i] += 1;
        }
        for o in self.offsets[b.index() + 1..].iter_mut() {
            *o += 2;
        }
        self.m += 1;
        debug_assert_eq!(self.back_port(a, Port::new(deg_a)), Port::new(deg_b));
        Ok(crate::mutate::CsrDelta {
            removed: Vec::new(),
            inserted: vec![pa, pb + 1],
        })
    }

    /// Removes the undirected edge `(u, v)` **in place**. The removed
    /// port vanishes at each endpoint and that endpoint's
    /// higher-numbered ports shift down by one (edge-log compaction
    /// order — exactly the numbering [`Graph::from_edges`] would assign
    /// without the edge); back ports naming the shifted ports are
    /// patched. `O(csr_len + Δ_u + Δ_v)`, no rebuild.
    ///
    /// Returns the [`CsrDelta`](crate::mutate::CsrDelta) naming the two
    /// removed flat-array slots (pre-mutation indices).
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] or [`GraphError::MissingEdge`].
    pub fn remove_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
    ) -> Result<crate::mutate::CsrDelta, GraphError> {
        let n = self.node_count();
        for x in [u, v] {
            if x.index() >= n {
                return Err(GraphError::NodeOutOfRange { node: x.index(), n });
            }
        }
        let (a, b) = if u.index() < v.index() {
            (u, v)
        } else {
            (v, u)
        };
        let la = self.port_to(a, b).ok_or(GraphError::MissingEdge {
            a: u.index(),
            b: v.index(),
        })?;
        let lb = self.back_port(a, la);
        let ia = self.csr_index(a, la);
        let ib = self.csr_index(b, lb);
        debug_assert!(ia < ib, "a's range precedes b's");
        // Splice out the higher slot first so the lower index stays valid.
        self.flat_adj.remove(ib);
        self.flat_back.remove(ib);
        self.flat_adj.remove(ia);
        self.flat_back.remove(ia);
        for i in a.index() + 1..=b.index() {
            self.offsets[i] -= 1;
        }
        for o in self.offsets[b.index() + 1..].iter_mut() {
            *o -= 2;
        }
        self.m -= 1;
        // Ports `la..` of `a` and `lb..` of `b` were renumbered down by
        // one: patch the back ports stored at their neighbors.
        self.fix_back_ports_from(a, la.index());
        self.fix_back_ports_from(b, lb.index());
        Ok(crate::mutate::CsrDelta {
            removed: vec![ia, ib],
            inserted: Vec::new(),
        })
    }

    /// Rewrites the back ports of `p`'s ports `from..degree(p)` at their
    /// neighbors, after those ports were renumbered by a removal.
    fn fix_back_ports_from(&mut self, p: NodeId, from: usize) {
        for l in from..self.degree(p) {
            let q = self.neighbor(p, Port::new(l));
            let bp = self.back_port(p, Port::new(l));
            let idx = self.csr_index(q, bp);
            self.flat_back[idx] = Port::new(l);
        }
    }

    /// Appends a fresh degree-0 node and returns its `NodeId` (always
    /// the previous `node_count()`). `O(1)`: one empty CSR range.
    pub fn add_node(&mut self) -> NodeId {
        let last = *self.offsets.last().expect("offsets non-empty");
        self.offsets.push(last);
        NodeId::new(self.node_count() - 1)
    }

    /// Removes every edge incident to `x` (highest port first), leaving
    /// a degree-0 zombie. `NodeId`s are stable — nothing is renumbered
    /// — so per-node arrays downstream keep their indices.
    ///
    /// Returns one [`CsrDelta`](crate::mutate::CsrDelta) per removed
    /// edge, each relative to the intermediate layout, in application
    /// order.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`].
    pub fn detach_node(&mut self, x: NodeId) -> Result<Vec<crate::mutate::CsrDelta>, GraphError> {
        let n = self.node_count();
        if x.index() >= n {
            return Err(GraphError::NodeOutOfRange { node: x.index(), n });
        }
        let mut deltas = Vec::with_capacity(self.degree(x));
        while self.degree(x) > 0 {
            let q = self.neighbor(x, Port::new(self.degree(x) - 1));
            deltas.push(self.remove_edge(x, q)?);
        }
        Ok(deltas)
    }

    /// Applies one [`TopologyEvent`](crate::mutate::TopologyEvent) and
    /// returns its full [`TopologyRepair`](crate::mutate::TopologyRepair)
    /// record (CSR splices in order + the affected processors).
    ///
    /// # Errors
    ///
    /// Any [`GraphError`] from the underlying mutation; the graph is
    /// unchanged on error for single-edge events and for `NodeJoin`
    /// (links are validated before the node is appended).
    pub fn apply_event(
        &mut self,
        event: &crate::mutate::TopologyEvent,
    ) -> Result<crate::mutate::TopologyRepair, GraphError> {
        use crate::mutate::{TopologyEvent, TopologyRepair};
        match event {
            TopologyEvent::LinkAdd { u, v } => Ok(TopologyRepair {
                deltas: vec![self.add_edge(*u, *v)?],
                endpoints: vec![*u, *v],
                joined: None,
            }),
            TopologyEvent::LinkFail { u, v } => Ok(TopologyRepair {
                deltas: vec![self.remove_edge(*u, *v)?],
                endpoints: vec![*u, *v],
                joined: None,
            }),
            TopologyEvent::NodeCrash { node } => {
                let x = *node;
                if x.index() >= self.node_count() {
                    return Err(GraphError::NodeOutOfRange {
                        node: x.index(),
                        n: self.node_count(),
                    });
                }
                let mut endpoints = vec![x];
                endpoints.extend_from_slice(self.neighbors(x));
                let deltas = self.detach_node(x)?;
                Ok(TopologyRepair {
                    deltas,
                    endpoints,
                    joined: None,
                })
            }
            TopologyEvent::NodeJoin { links } => {
                // Validate before mutating so a bad link list leaves the
                // graph untouched.
                let n = self.node_count();
                for &q in links {
                    if q.index() >= n {
                        return Err(GraphError::NodeOutOfRange { node: q.index(), n });
                    }
                }
                for (i, &q) in links.iter().enumerate() {
                    if links[..i].contains(&q) {
                        return Err(GraphError::DuplicateEdge { a: n, b: q.index() });
                    }
                }
                let x = self.add_node();
                let mut deltas = Vec::with_capacity(links.len());
                for &q in links {
                    deltas.push(self.add_edge(x, q)?);
                }
                let mut endpoints = vec![x];
                endpoints.extend_from_slice(links);
                Ok(TopologyRepair {
                    deltas,
                    endpoints,
                    joined: Some(x),
                })
            }
        }
    }
}

/// Incremental builder for [`Graph`].
///
/// # Example
///
/// ```
/// use sno_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.edge(0, 1).edge(1, 2).edge(2, 3).edge(3, 0);
/// let ring = b.build()?;
/// assert_eq!(ring.edge_count(), 4);
/// # Ok::<(), sno_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Port numbers are assigned in call order. Validation happens in
    /// [`GraphBuilder::build`].
    pub fn edge(&mut self, u: usize, v: usize) -> &mut Self {
        self.edges.push((u, v));
        self
    }

    /// Adds many edges at once.
    pub fn edges<I: IntoIterator<Item = (usize, usize)>>(&mut self, it: I) -> &mut Self {
        self.edges.extend(it);
        self
    }

    /// Validates and builds the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] for an empty node set, out-of-range endpoints,
    /// self-loops, or duplicate edges.
    pub fn build(&self) -> Result<Graph, GraphError> {
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        // First pass: validate and count degrees for the CSR offsets.
        let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(self.edges.len());
        let mut degree = vec![0u32; self.n];
        for &(u, v) in &self.edges {
            if u >= self.n {
                return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
            }
            if v >= self.n {
                return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            let key = (u.min(v), u.max(v));
            if !seen.insert(key) {
                return Err(GraphError::DuplicateEdge { a: u, b: v });
            }
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &d in &degree {
            total += d;
            offsets.push(total);
        }
        // Second pass: fill the flat arrays; `cursor[u] - offsets[u]` is the
        // next free port of `u`, so ports keep their edge-list order.
        let mut cursor: Vec<u32> = offsets[..self.n].to_vec();
        let mut flat_adj = vec![NodeId::new(0); total as usize];
        let mut flat_back = vec![Port::new(0); total as usize];
        for &(u, v) in &self.edges {
            let pu = cursor[u] - offsets[u];
            let pv = cursor[v] - offsets[v];
            flat_adj[cursor[u] as usize] = NodeId::new(v);
            flat_back[cursor[u] as usize] = Port::new(pv as usize);
            flat_adj[cursor[v] as usize] = NodeId::new(u);
            flat_back[cursor[v] as usize] = Port::new(pu as usize);
            cursor[u] += 1;
            cursor[v] += 1;
        }
        Ok(Graph {
            offsets,
            flat_adj,
            flat_back,
            m: self.edges.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn back_ports_are_symmetric() {
        let g = triangle();
        for u in g.nodes() {
            for l in 0..g.degree(u) {
                let l = Port::new(l);
                let v = g.neighbor(u, l);
                let bl = g.back_port(u, l);
                assert_eq!(g.neighbor(v, bl), u, "back port must return to origin");
                assert_eq!(g.back_port(v, bl), l, "back of back is identity");
            }
        }
    }

    #[test]
    fn port_order_is_insertion_order() {
        let g = Graph::from_edges(3, &[(0, 2), (0, 1)]).unwrap();
        assert_eq!(g.neighbor(NodeId::new(0), Port::new(0)), NodeId::new(2));
        assert_eq!(g.neighbor(NodeId::new(0), Port::new(1)), NodeId::new(1));
    }

    #[test]
    fn port_to_finds_edges() {
        let g = triangle();
        assert_eq!(
            g.port_to(NodeId::new(0), NodeId::new(2)),
            Some(Port::new(1))
        );
        let path = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(path.port_to(NodeId::new(0), NodeId::new(2)), None);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Graph::from_edges(0, &[]), Err(GraphError::Empty));
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn rejects_duplicate_edges_in_any_orientation() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge { a: 1, b: 0 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        );
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_connected());
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!disconnected.is_connected());
        let singleton = Graph::from_edges(1, &[]).unwrap();
        assert!(singleton.is_connected());
    }

    #[test]
    fn tree_detection() {
        let path = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(path.is_tree());
        assert!(!triangle().is_tree());
        let forest = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!forest.is_tree());
    }

    #[test]
    fn csr_indices_are_dense_and_aligned() {
        let g = triangle();
        assert_eq!(g.csr_len(), 2 * g.edge_count());
        let mut seen = vec![false; g.csr_len()];
        for u in g.nodes() {
            assert_eq!(g.csr_base(u), g.csr_index(u, Port::new(0)));
            for l in 0..g.degree(u) {
                let idx = g.csr_index(u, Port::new(l));
                assert!(!std::mem::replace(&mut seen[idx], true), "dense");
                // Alignment with the flat neighbor slice.
                assert_eq!(g.neighbors(u)[l], g.neighbor(u, Port::new(l)));
            }
        }
        assert!(seen.into_iter().all(|b| b), "covers 0..csr_len");
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u.index() < v.index());
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::DuplicateEdge { a: 1, b: 2 };
        assert!(e.to_string().contains("duplicate"));
        let e = GraphError::MissingEdge { a: 1, b: 2 };
        assert!(e.to_string().contains("no edge"));
    }

    // -- incremental mutation ------------------------------------------

    /// Asserts the whole CSR invariant set: offsets monotone and
    /// consistent with the flat arrays, back ports symmetric, csr
    /// indices dense.
    fn assert_csr_invariants(g: &Graph) {
        assert_eq!(g.csr_len(), 2 * g.edge_count());
        for u in g.nodes() {
            for l in 0..g.degree(u) {
                let l = Port::new(l);
                let v = g.neighbor(u, l);
                let bl = g.back_port(u, l);
                assert_eq!(g.neighbor(v, bl), u, "back port returns to origin");
                assert_eq!(g.back_port(v, bl), l, "back of back is identity");
            }
        }
    }

    #[test]
    fn add_edge_appends_ports_and_matches_rebuild() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let delta = g.add_edge(NodeId::new(3), NodeId::new(0)).unwrap();
        assert_eq!(delta.removed, Vec::<usize>::new());
        assert_eq!(delta.inserted.len(), 2);
        assert_csr_invariants(&g);
        let rebuilt = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g, rebuilt, "incremental add equals from-scratch rebuild");
        // The inserted slots hold the new edge's half-edges.
        assert_eq!(g.flat_adj[delta.inserted[0]], NodeId::new(3));
        assert_eq!(g.flat_adj[delta.inserted[1]], NodeId::new(0));
    }

    #[test]
    fn remove_edge_compacts_ports_and_matches_rebuild() {
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)];
        let mut g = Graph::from_edges(4, &edges).unwrap();
        let delta = g.remove_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        assert_eq!(delta.removed.len(), 2);
        assert!(delta.removed[0] < delta.removed[1]);
        assert_csr_invariants(&g);
        let rebuilt = Graph::from_edges(4, &[(0, 1), (0, 3), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g, rebuilt, "removal equals rebuild without the edge");
    }

    #[test]
    fn remove_then_add_round_trips_through_rebuild() {
        // Removing and re-adding renumbers ports (the re-added edge goes
        // to the *end* of each endpoint's port list) — equal to a rebuild
        // whose edge log moved the edge last.
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        g.remove_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let rebuilt = Graph::from_edges(3, &[(1, 2), (2, 0), (0, 1)]).unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn add_node_and_detach_node() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let x = g.add_node();
        assert_eq!(x, NodeId::new(3));
        assert_eq!(g.degree(x), 0);
        g.add_edge(x, NodeId::new(1)).unwrap();
        g.add_edge(x, NodeId::new(2)).unwrap();
        assert_csr_invariants(&g);

        let deltas = g.detach_node(NodeId::new(1)).unwrap();
        assert_eq!(deltas.len(), 3, "one delta per removed edge");
        assert_eq!(g.degree(NodeId::new(1)), 0, "zombie");
        assert_eq!(g.node_count(), 4, "NodeIds are stable");
        assert_csr_invariants(&g);
        let rebuilt = Graph::from_edges(4, &[(2, 0), (3, 2)]).unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn mutation_errors_leave_graph_unchanged() {
        let mut g = triangle();
        let before = g.clone();
        assert_eq!(
            g.add_edge(NodeId::new(0), NodeId::new(0)),
            Err(GraphError::SelfLoop { node: 0 })
        );
        assert_eq!(
            g.add_edge(NodeId::new(0), NodeId::new(1)),
            Err(GraphError::DuplicateEdge { a: 0, b: 1 })
        );
        assert_eq!(
            g.add_edge(NodeId::new(0), NodeId::new(9)),
            Err(GraphError::NodeOutOfRange { node: 9, n: 3 })
        );
        let mut path = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(
            path.remove_edge(NodeId::new(0), NodeId::new(2)),
            Err(GraphError::MissingEdge { a: 0, b: 2 })
        );
        assert_eq!(g, before);
    }

    #[test]
    fn apply_event_round_trips_all_variants() {
        use crate::mutate::TopologyEvent;
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let r = g
            .apply_event(&TopologyEvent::LinkAdd {
                u: NodeId::new(0),
                v: NodeId::new(2),
            })
            .unwrap();
        assert_eq!(r.endpoints, vec![NodeId::new(0), NodeId::new(2)]);
        assert_eq!(r.edits(), 2);
        let r = g
            .apply_event(&TopologyEvent::NodeJoin {
                links: vec![NodeId::new(1), NodeId::new(3)],
            })
            .unwrap();
        assert_eq!(r.joined, Some(NodeId::new(4)));
        assert_eq!(g.node_count(), 5);
        let r = g
            .apply_event(&TopologyEvent::NodeCrash {
                node: NodeId::new(2),
            })
            .unwrap();
        assert_eq!(r.joined, None);
        assert_eq!(r.deltas.len(), 3);
        assert_eq!(g.degree(NodeId::new(2)), 0);
        assert_csr_invariants(&g);
        // The zombie makes `is_connected` false; the live component is
        // still intact around it.
        assert!(!g.is_connected());
    }

    #[test]
    fn is_connected_without_detects_bridges() {
        // Triangle with a tail: 0-1-2-0, 2-3. The tail edge is a bridge,
        // the cycle edges are not.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        assert!(g.is_connected_without(NodeId::new(0), NodeId::new(1)));
        assert!(!g.is_connected_without(NodeId::new(2), NodeId::new(3)));
        // Probing must not mutate.
        let before = g.clone();
        let _ = g.is_connected_without(NodeId::new(1), NodeId::new(2));
        assert_eq!(g, before);
    }

    #[test]
    fn csr_delta_splice_mirrors_the_flat_arrays() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        // A side table aligned with the flat arrays, tagged by content.
        let mut table: Vec<NodeId> = g.flat_adj.clone();
        let d1 = g.add_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        d1.splice(&mut table, NodeId::new(999));
        let d2 = g.remove_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        d2.splice(&mut table, NodeId::new(999));
        // Every surviving slot still aligns with its flat-array entry,
        // and exactly the fresh slots carry the fill value.
        assert_eq!(table.len(), g.csr_len());
        for (i, &t) in table.iter().enumerate() {
            if t != NodeId::new(999) {
                assert_eq!(t, g.flat_adj[i], "slot {i} drifted");
            }
        }
        assert_eq!(table.iter().filter(|&&t| t == NodeId::new(999)).count(), 2);
    }
}
