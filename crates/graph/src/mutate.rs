//! Topology mutation events and their incremental-repair descriptors.
//!
//! The paper's fault model corrupts *state*; production rooted networks
//! are additionally defined by churn — links failing, links appearing,
//! processors crashing and (re)joining. This module names those events
//! ([`TopologyEvent`]) and describes exactly how each one reshapes the
//! CSR arrays ([`CsrDelta`]), so that every consumer keeping flat
//! per-half-edge side tables (the engine's port-dirty guard cache in
//! particular) can **splice** its arrays in lockstep with the graph
//! instead of rebuilding them.
//!
//! # The incremental-repair contract
//!
//! [`Graph::add_edge`](crate::Graph::add_edge),
//! [`Graph::remove_edge`](crate::Graph::remove_edge),
//! [`Graph::add_node`](crate::Graph::add_node), and
//! [`Graph::detach_node`](crate::Graph::detach_node) mutate the CSR
//! arrays in place and return deltas with this invariant: rebuilding
//! from scratch with [`Graph::from_edges`](crate::Graph::from_edges)
//! over the equivalent edge log produces a **bit-identical** graph —
//! same offsets, same flat neighbor array, same back ports, same
//! [`csr_index`](crate::Graph::csr_index) numbering. Concretely:
//!
//! * **adding** an edge appends one port at each endpoint (ports of
//!   other edges keep their numbers), inserting two slots into the flat
//!   arrays;
//! * **removing** an edge deletes one port at each endpoint and shifts
//!   that endpoint's higher-numbered ports down by one (edge-log order
//!   compaction), deleting two slots and patching the back ports that
//!   named the shifted ports;
//! * **appending** a node grows `offsets` by one empty range;
//! * **detaching** a node removes its incident edges one at a time
//!   (highest port first), leaving a degree-0 node — `NodeId`s are
//!   *stable*, departed processors become zombies rather than
//!   renumbering every per-node array downstream.
//!
//! The proptest suite (`tests/topology_mutation.rs` at the workspace
//! root) drives random event sequences and asserts the
//! incremental-vs-rebuild equality.

use std::fmt;

use crate::NodeId;

/// One dynamic-topology fault: the unit the engine applies atomically
/// between steps and the lab schedules from a [`FaultPlan`].
///
/// [`FaultPlan`]: https://docs.rs/sno-lab
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TopologyEvent {
    /// A new bidirectional link appears between two existing processors.
    LinkAdd {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// An existing bidirectional link fails.
    LinkFail {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A processor crashes: all incident links vanish and its state is
    /// dropped. The `NodeId` remains valid (a degree-0 zombie) so no
    /// per-node array anywhere needs renumbering.
    NodeCrash {
        /// The crashed processor (never the root).
        node: NodeId,
    },
    /// A fresh processor joins (at the next free `NodeId`), linking to
    /// the given existing processors. Arrivals boot with a fresh state
    /// — `random_state` under an adversarial arrival, `initial_state`
    /// otherwise.
    NodeJoin {
        /// Existing processors the arrival links to (distinct, ≥ 1).
        links: Vec<NodeId>,
    },
}

impl fmt::Display for TopologyEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyEvent::LinkAdd { u, v } => write!(f, "link-add({}-{})", u.index(), v.index()),
            TopologyEvent::LinkFail { u, v } => {
                write!(f, "link-fail({}-{})", u.index(), v.index())
            }
            TopologyEvent::NodeCrash { node } => write!(f, "node-crash({})", node.index()),
            TopologyEvent::NodeJoin { links } => {
                write!(f, "node-join([")?;
                for (i, q) in links.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", q.index())?;
                }
                write!(f, "])")
            }
        }
    }
}

/// How one CSR mutation reshaped the flat half-edge arrays — the splice
/// recipe for side tables aligned with
/// [`csr_index`](crate::Graph::csr_index).
///
/// Apply the removals first (descending over `removed`, which indexes
/// the **old** layout), then the insertions (ascending over `inserted`,
/// which indexes the **new** layout). Slots not named here keep their
/// values; only their positions shift, exactly as the graph's own flat
/// arrays shifted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CsrDelta {
    /// Flat-array slots deleted by this mutation, as indices into the
    /// **pre-mutation** layout, ascending.
    pub removed: Vec<usize>,
    /// Flat-array slots created by this mutation, as indices into the
    /// **post-mutation** layout, ascending.
    pub inserted: Vec<usize>,
}

impl CsrDelta {
    /// Number of slot edits (removals + insertions) this delta performs.
    pub fn edits(&self) -> usize {
        self.removed.len() + self.inserted.len()
    }

    /// Splices a side table aligned with the flat CSR arrays: removals
    /// first (descending, old indices), then insertions (ascending, new
    /// indices) filling fresh slots with `fill`.
    pub fn splice<T: Clone>(&self, table: &mut Vec<T>, fill: T) {
        for &i in self.removed.iter().rev() {
            table.remove(i);
        }
        for &i in &self.inserted {
            table.insert(i, fill.clone());
        }
    }
}

/// The full repair record of one applied [`TopologyEvent`]: the CSR
/// splices (in application order) plus the affected processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyRepair {
    /// CSR splices, to be mirrored **in order** into aligned side
    /// tables (a multi-edge event like `NodeCrash` produces one delta
    /// per removed edge, each relative to the intermediate layout).
    pub deltas: Vec<CsrDelta>,
    /// Processors whose port space or membership changed: link
    /// endpoints, the crashed node plus its former neighbors, or the
    /// arrival plus its link targets. (Neighbors of these may still
    /// need derived-cache refreshes downstream; this names only the
    /// direct footprint.)
    pub endpoints: Vec<NodeId>,
    /// The arrival's `NodeId` for [`TopologyEvent::NodeJoin`].
    pub joined: Option<NodeId>,
}

impl TopologyRepair {
    /// Total CSR slot edits across all deltas.
    pub fn edits(&self) -> usize {
        self.deltas.iter().map(CsrDelta::edits).sum()
    }
}
