//! Strongly-typed identifiers for processors and ports.

use std::fmt;

/// Identifier of a processor (node) in a network.
///
/// Node identifiers are only used by the *simulator* to index configurations;
/// the simulated protocols themselves are anonymous (except for the root
/// flag), exactly as in the paper's model.
///
/// # Example
///
/// ```
/// use sno_graph::NodeId;
/// let p = NodeId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "n3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node identifier from a raw index.
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// Returns the raw index of this node.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

/// A local port: the index of an incident edge in a processor's neighbor
/// list.
///
/// Ports are the only way a processor refers to its incident edges. The
/// *order* of ports at a node fixes the deterministic depth-first scan order
/// ("lowest unvisited port first") used by the token circulation substrate
/// and by the golden traversals.
///
/// # Example
///
/// ```
/// use sno_graph::Port;
/// let l = Port::new(1);
/// assert_eq!(l.index(), 1);
/// assert_eq!(l.to_string(), "p1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Port(usize);

impl Port {
    /// Creates a port from a raw index.
    pub const fn new(index: usize) -> Self {
        Port(index)
    }

    /// Returns the raw index of this port.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for Port {
    fn from(index: usize) -> Self {
        Port(index)
    }
}

impl From<Port> for usize {
    fn from(p: Port) -> Self {
        p.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let id = NodeId::new(42);
        assert_eq!(usize::from(id), 42);
        assert_eq!(NodeId::from(42usize), id);
    }

    #[test]
    fn port_round_trip() {
        let p = Port::new(7);
        assert_eq!(usize::from(p), 7);
        assert_eq!(Port::from(7usize), p);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(Port::new(0) < Port::new(1));
    }

    #[test]
    fn debug_is_never_empty() {
        assert_eq!(format!("{:?}", NodeId::new(0)), "n0");
        assert_eq!(format!("{:?}", Port::new(0)), "p0");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
        assert_eq!(Port::default(), Port::new(0));
    }
}
