//! The checked model: a protocol on a chain of topology **worlds**, a
//! fault vocabulary, seeds, and the properties to verify.
//!
//! # Worlds and layers
//!
//! Topology faults are modeled as a linear script of
//! [`TopologyEvent`]s: world 0 is the base network, world `w + 1` is
//! world `w` after its event fired. Each world enumerates its own
//! [`StateSpace`] (a link failure changes degrees, hence per-node
//! enumerations). State-corruption and crash faults are **budgeted**:
//! an execution may take at most `fault_budget` of them, so a state is
//! a triple `(world, budget-left, configuration)` packed into one `u64`
//! key — `layer = world · (budget + 1) + budget-left`, then
//! `key = layer · stride + config`.
//!
//! Program moves stay inside a layer; corrupt/crash edges step the
//! budget down; a topology edge steps the world forward, mapping the
//! configuration through [`Protocol::reattach_state`] at the event's
//! endpoints (exactly what [`Simulation::apply_topology_event`] does to
//! a live run).
//!
//! [`Simulation::apply_topology_event`]: sno_engine::Simulation
//! [`Protocol::reattach_state`]: sno_engine::Protocol::reattach_state

use sno_engine::{Enumerable, Network, Protocol};
use sno_graph::{NodeId, TopologyEvent};

use crate::space::{StateSpace, TooLarge};
use crate::symmetry::SymmetryTable;

/// One class of injected faults, modeled as extra transitions.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultClass {
    /// A transient fault replaces one processor's state with an
    /// arbitrary enumerated value (k-node corruption is `k` budgeted
    /// single-node corruptions in sequence — the daemon may interleave
    /// no program move between them).
    Corrupt,
    /// One processor reboots: its state resets to
    /// [`Protocol::initial_state`].
    Crash,
    /// One topology event fires (at most once, in script order).
    /// Restricted to link events: crashes and joins change the node
    /// count, which the product encoding deliberately does not model.
    Topology(TopologyEvent),
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultClass::Corrupt => write!(f, "corrupt"),
            FaultClass::Crash => write!(f, "crash"),
            FaultClass::Topology(TopologyEvent::LinkFail { u, v }) => {
                write!(f, "link-fail:{}-{}", u.index(), v.index())
            }
            FaultClass::Topology(TopologyEvent::LinkAdd { u, v }) => {
                write!(f, "link-add:{}-{}", u.index(), v.index())
            }
            FaultClass::Topology(e) => write!(f, "topology:{e}"),
        }
    }
}

/// Where exploration starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seeds {
    /// Every configuration of the base world (the classic exhaustive
    /// regime: convergence must hold from *anywhere*).
    AllConfigs,
    /// The legitimate configurations of the base world — with fault
    /// classes, exploration computes the **fault-reachable envelope**
    /// around the legitimate set, the paper's closure-under-faults
    /// question.
    Legitimate,
    /// The single all-initial configuration.
    Initial,
}

impl Seeds {
    /// Stable certificate name.
    pub fn name(self) -> &'static str {
        match self {
            Seeds::AllConfigs => "all",
            Seeds::Legitimate => "legitimate",
            Seeds::Initial => "initial",
        }
    }
}

/// Which daemon-fairness-aware liveness analyses to run.
///
/// This is where the paper's daemon assumptions become explicit: a
/// protocol that cycles under an **unfair** central daemon but
/// converges under the weakly fair round-robin one (`DFTNO`'s token
/// substrate, for instance) is *not* refuted by the unfair
/// counterexample — the certificate reports both verdicts side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Skip liveness (safety-only certificate).
    None,
    /// Convergence under every central schedule, including unfair ones:
    /// the reachable illegitimate region must have no cycle and no
    /// deadlock.
    Unfair,
    /// Convergence under the weakly fair central round-robin daemon:
    /// lasso detection on the deterministic `(config, cursor)` product
    /// walk.
    RoundRobin,
    /// Both of the above.
    Both,
}

impl Liveness {
    /// Whether the unfair analysis runs.
    pub fn unfair(self) -> bool {
        matches!(self, Liveness::Unfair | Liveness::Both)
    }

    /// Whether the round-robin analysis runs.
    pub fn round_robin(self) -> bool {
        matches!(self, Liveness::RoundRobin | Liveness::Both)
    }
}

/// A named safety predicate checked on every reachable state.
pub struct Invariant<'a, P: Protocol> {
    /// Certificate name.
    pub name: String,
    /// Must hold on `(world network, configuration)` for every
    /// reachable state.
    pub pred: PredFn<'a, P>,
}

/// A configuration predicate, world-network aware (a disconnection
/// detector's legitimacy depends on the *current* topology).
pub type PredFn<'a, P> = &'a (dyn Fn(&Network, &[<P as Protocol>::State]) -> bool + Sync);

/// What to verify about one protocol × topology cell.
pub struct CheckSpec<'a, P: Protocol> {
    /// Protocol label for the certificate (e.g. `"hop"`).
    pub protocol: String,
    /// Topology label for the certificate (e.g. `"ring:6"`).
    pub topology: String,
    /// The legitimacy predicate `L` of Definition 2.1.2 — drives the
    /// closure check and both liveness analyses.
    pub legit: PredFn<'a, P>,
    /// Additional named invariants checked on every reachable state.
    pub invariants: Vec<Invariant<'a, P>>,
    /// Check closure (`L` is preserved by every program move).
    pub closure: bool,
    /// Which liveness analyses to run.
    pub liveness: Liveness,
    /// Where exploration starts.
    pub seeds: Seeds,
    /// An explicit list of world-0 configuration indices to seed from,
    /// overriding the [`Seeds`] regime's scan. Lets a caller check a
    /// model whose configuration space is astronomically larger than
    /// the reachable region (the composed `DFTNO` stack) by seeding
    /// exactly the envelope of interest — e.g. the legitimate set plus
    /// its fault perturbations, computed outside the checker.
    pub seed_list: Option<Vec<u64>>,
    /// The fault vocabulary (extra transitions).
    pub faults: Vec<FaultClass>,
}

/// Tuning knobs of one check run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOptions {
    /// Fleet threads driving the sharded breadth-first search.
    pub threads: usize,
    /// Seen-set shards (results are byte-identical at any count).
    pub shards: usize,
    /// Per-world configuration-count limit.
    pub limit: u64,
    /// Budget of corrupt/crash fault transitions per execution.
    pub fault_budget: u32,
    /// Quotient the search by the protocol-admitted automorphism group
    /// (single-world models only; multi-world chains fall back to the
    /// trivial group because a topology event breaks the symmetry).
    pub symmetry: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            threads: 1,
            shards: 1,
            limit: 1 << 22,
            fault_budget: 1,
            symmetry: false,
        }
    }
}

/// One topology world: a network and its enumerated state space.
#[derive(Debug)]
pub struct World<S> {
    /// The network of this world.
    pub net: Network,
    /// Its mixed-radix configuration space.
    pub space: StateSpace<S>,
    /// Nodes whose state is mapped through `reattach_state` on the
    /// transition *into* this world (the event's endpoints).
    pub remapped: Vec<NodeId>,
}

/// The fully instantiated model: the world chain plus key packing.
pub struct Model<'a, P: Enumerable> {
    /// The checked protocol.
    pub protocol: &'a P,
    /// World 0 is the base network; world `w + 1` is world `w` after
    /// its topology event.
    pub worlds: Vec<World<P::State>>,
    /// Whether corrupt / crash fault classes are active.
    pub corrupt: bool,
    /// See [`FaultClass::Crash`].
    pub crash: bool,
    /// Corrupt/crash transitions allowed per execution.
    pub budget: u32,
    /// Per-world admitted symmetry groups (trivial when symmetry is off
    /// or the model has several worlds).
    pub sym: Vec<SymmetryTable>,
    stride: u64,
}

impl<'a, P: Enumerable> Model<'a, P> {
    /// Instantiates the model: builds the world chain by applying every
    /// [`FaultClass::Topology`] event in order and enumerating each
    /// world's space.
    ///
    /// # Errors
    ///
    /// Returns [`TooLarge`] if any world exceeds `options.limit`, or if
    /// the packed `(layer, config)` key space would overflow `u64`.
    ///
    /// # Panics
    ///
    /// Panics if a topology event is invalid for its world (the caller
    /// picks events against the base network) or changes the node count.
    pub fn new(
        net: &Network,
        protocol: &'a P,
        faults: &[FaultClass],
        options: &CheckOptions,
    ) -> Result<Self, TooLarge> {
        let mut worlds = vec![World {
            net: net.clone(),
            space: StateSpace::new(net, protocol, options.limit)?,
            remapped: Vec::new(),
        }];
        let mut corrupt = false;
        let mut crash = false;
        for f in faults {
            match f {
                FaultClass::Corrupt => corrupt = true,
                FaultClass::Crash => crash = true,
                FaultClass::Topology(event) => {
                    let (u, v) = match event {
                        TopologyEvent::LinkFail { u, v } | TopologyEvent::LinkAdd { u, v } => {
                            (*u, *v)
                        }
                        other => {
                            panic!("model-checker topology faults are link events, got {other}")
                        }
                    };
                    let prev = worlds.last().expect("world 0 exists");
                    let mut next = prev.net.clone();
                    next.apply_event(event)
                        .unwrap_or_else(|e| panic!("invalid topology fault {event}: {e}"));
                    assert_eq!(
                        next.node_count(),
                        prev.net.node_count(),
                        "link events preserve the node count"
                    );
                    let space = StateSpace::new(&next, protocol, options.limit)?;
                    worlds.push(World {
                        net: next,
                        space,
                        remapped: vec![u, v],
                    });
                }
            }
        }
        let budget = if corrupt || crash {
            options.fault_budget
        } else {
            0
        };
        let stride = worlds
            .iter()
            .map(|w| w.space.config_count())
            .max()
            .expect("at least one world");
        let layers = (worlds.len() as u64) * (u64::from(budget) + 1);
        if layers.checked_mul(stride).is_none() {
            return Err(TooLarge {
                configs: (layers as u128) * (stride as u128),
                limit: options.limit,
            });
        }
        // A topology event moves states between worlds whose groups need
        // not agree, so symmetry reduction is restricted to single-world
        // models; everything else quotients by the trivial group.
        let sym = worlds
            .iter()
            .map(|w| {
                if options.symmetry && worlds.len() == 1 {
                    SymmetryTable::build(&w.net, protocol, &w.space)
                } else {
                    SymmetryTable::trivial(&w.space)
                }
            })
            .collect();
        Ok(Model {
            protocol,
            worlds,
            corrupt,
            crash,
            budget,
            sym,
            stride,
        })
    }

    /// `true` iff some world's admitted group is non-trivial (the search
    /// is actually quotiented).
    pub fn symmetric(&self) -> bool {
        self.sym.iter().any(|t| !t.is_trivial())
    }

    /// Packs the key of the **canonical representative** of
    /// `(world, budget_left, config)`'s orbit. `digits` is reusable
    /// scratch. This is the key the explorer stores and shards by.
    pub fn canon_key(
        &self,
        world: u32,
        budget_left: u32,
        config: u64,
        digits: &mut Vec<u64>,
    ) -> u64 {
        let c = self.sym[world as usize].canon(config, digits);
        self.key(world, budget_left, c)
    }

    /// Number of `(world, budget-left)` layers.
    pub fn layer_count(&self) -> u64 {
        (self.worlds.len() as u64) * (u64::from(self.budget) + 1)
    }

    /// Packs a state key.
    pub fn key(&self, world: u32, budget_left: u32, config: u64) -> u64 {
        debug_assert!((world as usize) < self.worlds.len());
        debug_assert!(budget_left <= self.budget);
        let layer = u64::from(world) * (u64::from(self.budget) + 1) + u64::from(budget_left);
        layer * self.stride + config
    }

    /// Unpacks a state key into `(world, budget-left, config)`.
    pub fn split(&self, key: u64) -> (u32, u32, u64) {
        let layer = key / self.stride;
        let config = key % self.stride;
        let per_world = u64::from(self.budget) + 1;
        (
            (layer / per_world) as u32,
            (layer % per_world) as u32,
            config,
        )
    }

    /// The shard owning `key` under a fixed (shard-count-independent)
    /// hash — SplitMix64, so ownership never depends on insertion order
    /// or `HashMap` internals.
    pub fn owner(&self, key: u64, shards: usize) -> usize {
        (splitmix64(key) % shards as u64) as usize
    }
}

/// SplitMix64's finalization mix — a fixed, high-quality 64-bit hash.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sno_engine::examples::HopDistance;

    #[test]
    fn key_round_trips_through_split() {
        let g = sno_graph::generators::ring(4);
        let net = Network::new(g, NodeId::new(0));
        let faults = vec![
            FaultClass::Corrupt,
            FaultClass::Topology(TopologyEvent::LinkAdd {
                u: NodeId::new(0),
                v: NodeId::new(2),
            }),
        ];
        let opts = CheckOptions {
            fault_budget: 2,
            ..CheckOptions::default()
        };
        let model = Model::new(&net, &HopDistance, &faults, &opts).unwrap();
        assert_eq!(model.worlds.len(), 2);
        assert_eq!(model.budget, 2);
        assert_eq!(model.layer_count(), 6);
        for world in 0..2u32 {
            for b in 0..=2u32 {
                for config in [
                    0,
                    1,
                    17,
                    model.worlds[world as usize].space.config_count() - 1,
                ] {
                    let key = model.key(world, b, config);
                    assert_eq!(model.split(key), (world, b, config));
                }
            }
        }
        // Ownership is a pure function of the key.
        let k = model.key(1, 0, 3);
        assert_eq!(model.owner(k, 8), model.owner(k, 8));
    }

    #[test]
    fn worlds_reflect_the_event_chain() {
        let g = sno_graph::generators::path(4);
        let net = Network::new(g, NodeId::new(0));
        let faults = vec![FaultClass::Topology(TopologyEvent::LinkFail {
            u: NodeId::new(2),
            v: NodeId::new(3),
        })];
        let model = Model::new(&net, &HopDistance, &faults, &CheckOptions::default()).unwrap();
        assert_eq!(model.worlds.len(), 2);
        assert_eq!(model.budget, 0, "no corrupt/crash class, no budget");
        assert!(!model.worlds[1].net.graph().is_connected());
        assert_eq!(
            model.worlds[1].remapped,
            vec![NodeId::new(2), NodeId::new(3)]
        );
    }
}
