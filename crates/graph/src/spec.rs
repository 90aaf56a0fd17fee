//! Nameable, serializable topology specifications.
//!
//! A [`GeneratorSpec`] is a *family* of topologies keyed by a stable
//! string name (e.g. `"ring"`, `"balanced-tree:4"`), instantiated at a
//! concrete size and seed with [`GeneratorSpec::build`]. Campaign runners
//! (`sno-lab`) put these in scenario matrices, persist them in JSON
//! reports, and parse them back from CLI arguments — which is why the
//! [`Display`](std::fmt::Display) and [`FromStr`]
//! implementations round-trip exactly.

use std::fmt;
use std::str::FromStr;

use crate::generators::{self, Topology};
use crate::Graph;

/// A named topology family, instantiated via [`GeneratorSpec::build`].
///
/// The `n` passed to `build` is a *target* size; families with structural
/// constraints (rings need ≥ 3 nodes, hypercubes are powers of two, …)
/// clamp or round exactly like [`Topology::build`] does, so the actual
/// [`Graph::node_count`] is authoritative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeneratorSpec {
    /// [`generators::path`] — the `O(h)` worst case (`h = n − 1`).
    Path,
    /// [`generators::ring`].
    Ring,
    /// [`generators::star`] — the `O(h)` best case (`h = 1`).
    Star,
    /// [`generators::complete`] (clamped to ≤ 64 nodes).
    Complete,
    /// [`generators::grid`], as square as possible.
    Grid,
    /// [`generators::torus`], as square as possible (≥ 3×3).
    Torus,
    /// [`generators::hypercube`] — rounds `n` down to a power of two.
    Hypercube,
    /// [`generators::wheel`].
    Wheel,
    /// [`generators::balanced_tree`] with this arity, deep enough to
    /// reach ≈ `n` nodes.
    BalancedTree {
        /// Children per internal node (≥ 1).
        arity: u8,
    },
    /// [`generators::caterpillar`] with this many legs per spine node.
    Caterpillar {
        /// Leaves attached to each spine node.
        legs: u8,
    },
    /// [`generators::hubs`] with this many hub nodes wired to all
    /// others — the skewed-degree family between the star and the
    /// clique (seeded port numbering).
    Hubs {
        /// Number of hub nodes (≥ 1, clamped below the node count).
        hubs: u8,
    },
    /// [`generators::random_tree`] (seeded).
    RandomTree,
    /// [`generators::random_connected`] with `extra_per_node × n` chords.
    RandomSparse {
        /// Extra edges per node beyond the spanning tree.
        extra_per_node: u8,
    },
    /// [`generators::random_connected`] with `n²/4` extra edges.
    RandomDense,
    /// [`generators::ring_with_chords`] with `n/2` chords — the shape of
    /// the paper's Figure 2.2.1.
    ChordalRing,
}

impl GeneratorSpec {
    /// A broad default sweep covering tree, sparse, dense, and
    /// skewed-degree shapes.
    pub const PRESETS: [GeneratorSpec; 9] = [
        GeneratorSpec::Path,
        GeneratorSpec::Ring,
        GeneratorSpec::Star,
        GeneratorSpec::BalancedTree { arity: 2 },
        GeneratorSpec::Hubs { hubs: 2 },
        GeneratorSpec::RandomTree,
        GeneratorSpec::RandomSparse { extra_per_node: 2 },
        GeneratorSpec::RandomDense,
        GeneratorSpec::ChordalRing,
    ];

    /// Builds a concrete connected graph with roughly `n` nodes.
    ///
    /// Deterministic in `(self, n, seed)`; families without randomness
    /// ignore `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a parameter is degenerate (`arity == 0`).
    pub fn build(self, n: usize, seed: u64) -> Graph {
        assert!(n > 0, "topologies need at least one node");
        match self {
            GeneratorSpec::Path => generators::path(n),
            GeneratorSpec::Ring => generators::ring(n.max(3)),
            GeneratorSpec::Star => generators::star(n.max(2)),
            GeneratorSpec::Complete => generators::complete(n.clamp(2, 64)),
            GeneratorSpec::Grid => {
                let w = (1..=n).rev().find(|w| w * w <= n).unwrap_or(1);
                generators::grid(w, n.div_ceil(w).max(1))
            }
            GeneratorSpec::Torus => {
                let n = n.max(9);
                let w = (3..=n).rev().find(|w| w * w <= n).unwrap_or(3);
                generators::torus(w, (n / w).max(3))
            }
            GeneratorSpec::Hypercube => {
                let d = (usize::BITS - n.max(2).leading_zeros() - 1).max(1);
                generators::hypercube(d)
            }
            GeneratorSpec::Wheel => generators::wheel(n.max(4)),
            GeneratorSpec::BalancedTree { arity } => {
                let arity = arity.max(1) as usize;
                // Smallest depth whose complete tree reaches ≈ n nodes.
                let mut depth = 0u32;
                let mut count = 1usize;
                let mut level = 1usize;
                while count < n && depth < 24 {
                    depth += 1;
                    level = level.saturating_mul(arity);
                    count = count.saturating_add(level);
                }
                generators::balanced_tree(arity, depth)
            }
            GeneratorSpec::Caterpillar { legs } => {
                let spine = (n / (1 + legs as usize)).max(1);
                generators::caterpillar(spine, legs as usize)
            }
            GeneratorSpec::Hubs { hubs } => {
                let h = (hubs.max(1) as usize).min(n.max(2) - 1);
                generators::hubs(n.max(2), h, seed)
            }
            GeneratorSpec::RandomTree => generators::random_tree(n, seed),
            GeneratorSpec::RandomSparse { extra_per_node } => {
                generators::random_connected(n.max(2), extra_per_node as usize * n, seed)
            }
            GeneratorSpec::RandomDense => generators::random_connected(n.max(2), n * n / 4, seed),
            GeneratorSpec::ChordalRing => generators::ring_with_chords(n.max(4), n / 2, seed),
        }
    }
}

impl From<Topology> for GeneratorSpec {
    fn from(t: Topology) -> Self {
        match t {
            Topology::Path => GeneratorSpec::Path,
            Topology::Ring => GeneratorSpec::Ring,
            Topology::Star => GeneratorSpec::Star,
            Topology::Complete => GeneratorSpec::Complete,
            Topology::RandomTree => GeneratorSpec::RandomTree,
            Topology::RandomSparse => GeneratorSpec::RandomSparse { extra_per_node: 2 },
            Topology::RandomDense => GeneratorSpec::RandomDense,
            Topology::Hypercube => GeneratorSpec::Hypercube,
        }
    }
}

impl fmt::Display for GeneratorSpec {
    // The rendered name round-trips exactly through `FromStr`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneratorSpec::Path => f.write_str("path"),
            GeneratorSpec::Ring => f.write_str("ring"),
            GeneratorSpec::Star => f.write_str("star"),
            GeneratorSpec::Complete => f.write_str("complete"),
            GeneratorSpec::Grid => f.write_str("grid"),
            GeneratorSpec::Torus => f.write_str("torus"),
            GeneratorSpec::Hypercube => f.write_str("hypercube"),
            GeneratorSpec::Wheel => f.write_str("wheel"),
            GeneratorSpec::BalancedTree { arity } => write!(f, "balanced-tree:{arity}"),
            GeneratorSpec::Caterpillar { legs } => write!(f, "caterpillar:{legs}"),
            GeneratorSpec::Hubs { hubs } => write!(f, "hubs:{hubs}"),
            GeneratorSpec::RandomTree => f.write_str("random-tree"),
            GeneratorSpec::RandomSparse { extra_per_node } => {
                write!(f, "random-sparse:{extra_per_node}")
            }
            GeneratorSpec::RandomDense => f.write_str("random-dense"),
            GeneratorSpec::ChordalRing => f.write_str("chordal-ring"),
        }
    }
}

/// Error returned when parsing a [`GeneratorSpec`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError(String);

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown topology spec `{}`", self.0)
    }
}

impl std::error::Error for ParseSpecError {}

impl FromStr for GeneratorSpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        let param_u8 = || -> Result<u8, ParseSpecError> {
            param
                .ok_or_else(|| ParseSpecError(s.to_string()))?
                .parse()
                .map_err(|_| ParseSpecError(s.to_string()))
        };
        let spec = match name {
            "path" => GeneratorSpec::Path,
            "ring" => GeneratorSpec::Ring,
            "star" => GeneratorSpec::Star,
            "complete" => GeneratorSpec::Complete,
            "grid" => GeneratorSpec::Grid,
            "torus" => GeneratorSpec::Torus,
            "hypercube" => GeneratorSpec::Hypercube,
            "wheel" => GeneratorSpec::Wheel,
            "balanced-tree" => GeneratorSpec::BalancedTree { arity: param_u8()? },
            "caterpillar" => GeneratorSpec::Caterpillar { legs: param_u8()? },
            "hubs" => GeneratorSpec::Hubs { hubs: param_u8()? },
            "random-tree" => GeneratorSpec::RandomTree,
            "random-sparse" => GeneratorSpec::RandomSparse {
                extra_per_node: param_u8()?,
            },
            "random-dense" => GeneratorSpec::RandomDense,
            "chordal-ring" => GeneratorSpec::ChordalRing,
            _ => return Err(ParseSpecError(s.to_string())),
        };
        // Exact round-trip: parameterized families must spell their
        // parameter, parameterless families must not carry one, and no
        // alternate spellings (e.g. zero-padded numbers) are accepted.
        if spec.to_string() != s {
            return Err(ParseSpecError(s.to_string()));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn every_preset_builds_connected_graphs() {
        for spec in GeneratorSpec::PRESETS {
            for n in [4usize, 9, 16, 33] {
                let g = spec.build(n, 7);
                assert!(g.is_connected(), "{spec} n={n}");
                assert!(g.node_count() >= 2, "{spec} n={n}");
            }
        }
    }

    #[test]
    fn display_from_str_round_trips() {
        let all = [
            GeneratorSpec::Path,
            GeneratorSpec::Ring,
            GeneratorSpec::Star,
            GeneratorSpec::Complete,
            GeneratorSpec::Grid,
            GeneratorSpec::Torus,
            GeneratorSpec::Hypercube,
            GeneratorSpec::Wheel,
            GeneratorSpec::BalancedTree { arity: 3 },
            GeneratorSpec::Caterpillar { legs: 2 },
            GeneratorSpec::Hubs { hubs: 3 },
            GeneratorSpec::RandomTree,
            GeneratorSpec::RandomSparse { extra_per_node: 4 },
            GeneratorSpec::RandomDense,
            GeneratorSpec::ChordalRing,
        ];
        for spec in all {
            let name = spec.to_string();
            assert_eq!(name.parse::<GeneratorSpec>().unwrap(), spec, "{name}");
        }
        assert!("nonsense".parse::<GeneratorSpec>().is_err());
        assert!(
            "balanced-tree".parse::<GeneratorSpec>().is_err(),
            "missing param"
        );
        assert!("balanced-tree:x".parse::<GeneratorSpec>().is_err());
        assert!("ring:5".parse::<GeneratorSpec>().is_err(), "spurious param");
        assert!(
            "random-dense:3".parse::<GeneratorSpec>().is_err(),
            "spurious param"
        );
        assert!(
            "balanced-tree:03".parse::<GeneratorSpec>().is_err(),
            "non-canonical spelling"
        );
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        for spec in [GeneratorSpec::RandomTree, GeneratorSpec::RandomDense] {
            assert_eq!(spec.build(12, 3), spec.build(12, 3));
        }
        assert_ne!(
            GeneratorSpec::RandomTree.build(12, 3),
            GeneratorSpec::RandomTree.build(12, 4)
        );
    }

    #[test]
    fn grid_and_torus_sizes_are_close_to_target() {
        let g = GeneratorSpec::Grid.build(16, 0);
        assert_eq!(g.node_count(), 16);
        let t = GeneratorSpec::Torus.build(16, 0);
        assert!(
            t.node_count() >= 12 && t.node_count() <= 16,
            "{}",
            t.node_count()
        );
    }

    #[test]
    fn balanced_tree_reaches_target_size() {
        let g = GeneratorSpec::BalancedTree { arity: 2 }.build(20, 0);
        assert!(g.node_count() >= 20, "{}", g.node_count());
        assert!(g.is_tree());
    }

    #[test]
    fn topology_conversion_is_name_stable() {
        for t in Topology::ALL {
            let spec: GeneratorSpec = t.into();
            let g = spec.build(12, 5);
            assert!(g.is_connected(), "{t}");
        }
    }

    #[test]
    fn default_root_is_always_valid() {
        for spec in GeneratorSpec::PRESETS {
            let g = spec.build(10, 1);
            assert!(NodeId::new(0).index() < g.node_count());
        }
    }
}
