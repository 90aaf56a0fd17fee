//! Disconnection-aware root-path maintenance (`DCD`).
//!
//! Dynamic topology makes **disconnection** a first-class fault: a link
//! failure or a node crash can cut a processor's every path to the
//! distinguished root, and the paper's orientation protocols (whose
//! specifications presume a connected rooted network) are then vacuous on
//! the severed component. Following the silent self-stabilizing
//! distance-based detectors (arXiv:1703.03315), `DCD` lets every
//! processor *detect* whether it still has a root path, and
//! re-stabilizes across reconnection:
//!
//! * every processor maintains a believed root distance
//!   `dist ∈ {0, …, N}` where `N` (the known bound) is the **infinity
//!   sentinel** [`DcdState::inf`], plus the parent port of its believed
//!   shortest path;
//! * the root drives `dist := 0`; every other processor drives
//!   `dist := min(1 + min_q dist_q, N)` and points its parent at the
//!   *lowest* port attaining the minimum (the paper's "lowest port
//!   first" determinism);
//! * on the root component this is the classic silent BFS computation;
//!   off it, the minimum has no anchor, so every severed processor's
//!   `dist` rises each round until it **saturates at `N`** — the
//!   count-to-infinity divergence, bounded by the known `N`, becomes the
//!   detector: `dist = N` *is* the disconnection verdict
//!   ([`DcdState::is_disconnected`]);
//! * a reconnection (link add, node join) re-anchors the minimum and the
//!   fresh distances flood back in `O(diameter)` rounds — no extra
//!   mechanics, stabilization *is* the recovery.
//!
//! The protocol is deliberately not layered over the orientation stacks:
//! it is the robustness-layer primitive the dynamic-topology campaigns
//! drive (a severed `STNO` cell, for instance, is only expected to
//! re-orient once `DCD`-style detection says the component is whole
//! again).

use rand::RngCore;
use sno_engine::{Enumerable, Network, NodeCtx, NodeView, Protocol, SpaceMeasured, StateTxn};
use sno_graph::NodeId;

/// Per-processor state of [`Dcd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DcdState {
    /// The believed root distance; `n_bound` (= [`DcdState::inf`] for
    /// that network) is the infinity sentinel.
    pub dist: u32,
    /// The port toward the believed parent on the shortest root path;
    /// [`DcdState::NO_PARENT`] at the root and wherever `dist` is
    /// saturated.
    pub parent: u32,
}

impl DcdState {
    /// The parent sentinel of the root and of disconnected processors.
    pub const NO_PARENT: u32 = u32::MAX;

    /// The infinity sentinel for a network with bound `n_bound`.
    pub fn inf(n_bound: usize) -> u32 {
        n_bound as u32
    }

    /// `true` iff this processor currently *detects* disconnection from
    /// the root (its distance is saturated at the bound `N`).
    pub fn is_disconnected(&self, n_bound: usize) -> bool {
        self.dist >= Self::inf(n_bound)
    }
}

/// The single action of [`Dcd`]: adopt the recomputed distance/parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adopt;

/// The disconnection-aware root-path protocol (see module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dcd;

impl Dcd {
    /// The target `(dist, parent)` pair of the processor in `view`.
    fn target(view: &impl NodeView<DcdState>) -> DcdState {
        let ctx = view.ctx();
        if ctx.is_root {
            return DcdState {
                dist: 0,
                parent: DcdState::NO_PARENT,
            };
        }
        let inf = DcdState::inf(ctx.n_bound);
        let mut best = inf;
        let mut parent = DcdState::NO_PARENT;
        for l in ctx.ports() {
            let d = view.neighbor(l).dist.min(inf);
            if d < best {
                best = d;
                parent = l.index() as u32;
            }
        }
        let dist = best.saturating_add(1).min(inf);
        if dist >= inf {
            parent = DcdState::NO_PARENT;
        }
        DcdState { dist, parent }
    }
}

impl Protocol for Dcd {
    type State = DcdState;
    type Action = Adopt;

    fn enabled(&self, view: &impl NodeView<DcdState>, out: &mut Vec<Adopt>) {
        if *view.state() != Self::target(view) {
            out.push(Adopt);
        }
    }

    fn apply_in_place(&self, txn: &mut impl StateTxn<DcdState>, _action: &Adopt) {
        let t = Self::target(txn);
        *txn.state_mut() = t;
        txn.touch_all_ports();
        txn.commit();
    }

    fn initial_state(&self, ctx: &NodeCtx) -> DcdState {
        DcdState {
            dist: DcdState::inf(ctx.n_bound),
            parent: DcdState::NO_PARENT,
        }
    }

    fn random_state(&self, ctx: &NodeCtx, rng: &mut dyn RngCore) -> DcdState {
        let dist = rng.next_u32() % (DcdState::inf(ctx.n_bound) + 1);
        let parent = if ctx.degree == 0 {
            DcdState::NO_PARENT
        } else {
            // One value past the last port maps to "no parent", so the
            // adversary can corrupt the pointer itself.
            match rng.next_u32() % (ctx.degree as u32 + 1) {
                p if p == ctx.degree as u32 => DcdState::NO_PARENT,
                p => p,
            }
        };
        DcdState { dist, parent }
    }

    fn reattach_state(&self, ctx: &NodeCtx, old: &DcdState) -> DcdState {
        // The distance is port-free and survives; the parent is a port
        // number, which the event may have renumbered — drop it and let
        // one move re-derive it from the kept distance.
        let _ = ctx;
        DcdState {
            dist: old.dist,
            parent: DcdState::NO_PARENT,
        }
    }
}

impl Enumerable for Dcd {
    fn enumerate_states(&self, ctx: &NodeCtx) -> Vec<DcdState> {
        // dist ∈ {0, …, N}; parent ∈ {ports} ∪ {NO_PARENT} — the full
        // corruption range of `random_state`, so the model checker
        // covers every adversarial value including dangling pointers
        // (e.g. a finite dist with no parent, or a parent at a
        // saturated processor).
        let inf = DcdState::inf(ctx.n_bound);
        let mut out = Vec::with_capacity((inf as usize + 1) * (ctx.degree + 1));
        for dist in 0..=inf {
            for parent in (0..ctx.degree as u32).chain([DcdState::NO_PARENT]) {
                out.push(DcdState { dist, parent });
            }
        }
        out
    }
}

impl SpaceMeasured for Dcd {
    fn state_bits(&self, ctx: &NodeCtx) -> usize {
        let dist_bits = usize::BITS as usize - (ctx.n_bound + 1).leading_zeros() as usize;
        let parent_bits = usize::BITS as usize - (ctx.degree + 1).leading_zeros() as usize;
        dist_bits + parent_bits
    }
}

/// The legitimacy predicate of [`Dcd`] on a possibly **disconnected**
/// network: every processor on the root component holds its true BFS
/// distance and points its parent at the lowest port reaching a
/// processor one step closer; every severed processor is saturated at
/// the sentinel with no parent.
pub fn dcd_legit(net: &Network, config: &[DcdState]) -> bool {
    let g = net.graph();
    let n = g.node_count();
    if config.len() != n {
        return false;
    }
    let inf = DcdState::inf(net.n_bound());
    // BFS from the root over the *current* graph; `sno_graph`'s golden
    // traversal asserts connectivity, which mutation no longer grants.
    let mut dist = vec![inf; n];
    let mut queue = std::collections::VecDeque::new();
    dist[net.root().index()] = 0;
    queue.push_back(net.root());
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if dist[v.index()] == inf && dist[u.index()] + 1 < inf {
                dist[v.index()] = dist[u.index()] + 1;
                queue.push_back(v);
            }
        }
    }
    net.nodes().all(|p| {
        let s = &config[p.index()];
        let d = dist[p.index()];
        if s.dist != d {
            return false;
        }
        if p == net.root() || d >= inf {
            return s.parent == DcdState::NO_PARENT;
        }
        let expected = g.neighbors(p).iter().position(|q| dist[q.index()] == d - 1);
        expected.map(|l| l as u32) == Some(s.parent)
    })
}

/// The processors of `net` with no path to the root (the ground truth
/// the detector must converge to).
pub fn severed_nodes(net: &Network) -> Vec<NodeId> {
    let g = net.graph();
    let mut seen = vec![false; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    seen[net.root().index()] = true;
    queue.push_back(net.root());
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if !std::mem::replace(&mut seen[v.index()], true) {
                queue.push_back(v);
            }
        }
    }
    net.nodes().filter(|p| !seen[p.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sno_engine::daemon::{CentralRoundRobin, DistributedRandom, Synchronous};
    use sno_engine::{Simulation, TopologyEvent};
    use sno_graph::NodeId;

    fn net(n: usize) -> Network {
        Network::with_bound(sno_graph::generators::ring(n), NodeId::new(0), n + 2)
    }

    #[test]
    fn stabilizes_to_bfs_distances_from_any_configuration() {
        let g = sno_graph::generators::random_connected(14, 10, 5);
        let net = Network::new(g, NodeId::new(0));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let mut sim = Simulation::from_random(&net, Dcd, &mut rng);
            let run = sim.run_until_silent(&mut CentralRoundRobin::new(), 100_000);
            assert!(run.converged);
            assert!(dcd_legit(&net, sim.config()));
        }
    }

    #[test]
    fn detects_disconnection_after_a_bridge_fails() {
        let g = sno_graph::generators::path(6);
        let base = Network::new(g, NodeId::new(0));
        let mut sim = Simulation::from_initial(&base, Dcd);
        sim.run_until_silent(&mut CentralRoundRobin::new(), 100_000);
        assert!(dcd_legit(&base, sim.config()));

        // Cut the path in the middle: 3, 4, 5 lose the root.
        sim.apply_topology_event(
            &TopologyEvent::LinkFail {
                u: NodeId::new(2),
                v: NodeId::new(3),
            },
            None,
        )
        .unwrap();
        let run = sim.run_until_silent(&mut Synchronous::new(), 100_000);
        assert!(run.converged, "the detector must re-silence");
        let net = sim.network();
        assert_eq!(severed_nodes(net).len(), 3);
        assert!(dcd_legit(net, sim.config()));
        for p in [3, 4, 5] {
            assert!(sim.config()[p].is_disconnected(net.n_bound()), "node {p}");
        }
        for p in [0, 1, 2] {
            assert!(!sim.config()[p].is_disconnected(net.n_bound()), "node {p}");
        }
    }

    #[test]
    fn restabilizes_across_reconnection() {
        let base = net(8);
        let mut sim = Simulation::from_initial(&base, Dcd);
        sim.run_until_silent(&mut CentralRoundRobin::new(), 100_000);

        // Sever nodes 3..6 (remove both ring edges around them), let the
        // detector saturate, then reconnect elsewhere and demand full
        // re-stabilization.
        for (u, v) in [(2usize, 3usize), (6, 7)] {
            sim.apply_topology_event(
                &TopologyEvent::LinkFail {
                    u: NodeId::new(u),
                    v: NodeId::new(v),
                },
                None,
            )
            .unwrap();
        }
        let run = sim.run_until_silent(&mut CentralRoundRobin::new(), 100_000);
        assert!(run.converged);
        assert!(dcd_legit(sim.network(), sim.config()));
        assert!(sim.config()[4].is_disconnected(sim.network().n_bound()));

        sim.apply_topology_event(
            &TopologyEvent::LinkAdd {
                u: NodeId::new(0),
                v: NodeId::new(4),
            },
            None,
        )
        .unwrap();
        let run = sim.run_until_silent(&mut CentralRoundRobin::new(), 100_000);
        assert!(run.converged);
        let net = sim.network();
        assert!(severed_nodes(net).is_empty());
        assert!(dcd_legit(net, sim.config()));
        assert!(net
            .nodes()
            .all(|p| { !sim.config()[p.index()].is_disconnected(net.n_bound()) }));
    }

    #[test]
    fn churn_sequence_converges_under_a_distributed_daemon() {
        let base = net(10);
        let mut rng = StdRng::seed_from_u64(11);
        let mut sim = Simulation::from_random(&base, Dcd, &mut rng);
        let mut daemon = DistributedRandom::seeded(7);
        let events = [
            TopologyEvent::NodeJoin {
                links: vec![NodeId::new(1), NodeId::new(5)],
            },
            TopologyEvent::LinkFail {
                u: NodeId::new(0),
                v: NodeId::new(1),
            },
            TopologyEvent::NodeCrash {
                node: NodeId::new(3),
            },
            TopologyEvent::LinkAdd {
                u: NodeId::new(2),
                v: NodeId::new(8),
            },
        ];
        for event in &events {
            sim.run_until_silent(&mut daemon, 100_000);
            sim.apply_topology_event(event, Some(&mut rng)).unwrap();
        }
        let run = sim.run_until_silent(&mut daemon, 100_000);
        assert!(run.converged);
        assert!(dcd_legit(sim.network(), sim.config()));
    }
}
