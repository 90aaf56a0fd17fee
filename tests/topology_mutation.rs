//! Differential tests of **dynamic topology** across the engine modes,
//! plus the incremental-vs-rebuild proptests promised by
//! `sno-graph::mutate`.
//!
//! Two layers of guarantee:
//!
//! 1. **Mutation-trace lockstep.** The full-sweep reference, node-dirty,
//!    port-dirty, and sharded port-dirty engines are stepped in
//!    four-way lockstep while a scheduled sequence of
//!    [`TopologyEvent`]s — link failure, link appearance, a crash, a
//!    join — is applied to all four simulations at the same steps. The
//!    traces (enabled set contents *and* order, step outcomes,
//!    configurations, counters) must stay bit-identical through every
//!    mutation, and immediately after each event the incrementally
//!    repaired enabled set must equal the one a from-scratch
//!    [`Simulation`] computes on the mutated network. Runs cover the
//!    shared daemon × topology matrix for the self-stabilizing `STNO`
//!    stack and for the disconnection-aware `Dcd` root-path protocol
//!    (which keeps counting to its bound when a failure severs it from
//!    the root, so severed components exercise the engines long after a
//!    disconnecting `link-fail`).
//!
//! 2. **Incremental-vs-rebuild proptests.** Random event sequences over
//!    random graphs assert the CSR repair contract from
//!    `sno-graph::mutate`: after every event, the incrementally mutated
//!    [`Graph`] is *bit-identical* (`==` over offsets, flat adjacency,
//!    back ports) to `Graph::from_edges` over the equivalent edge log.
//!    A second proptest lifts the same check to the engine: a port-dirty
//!    simulation's repaired enabled set and port caches must match a
//!    fresh rebuild after every event of a random interleaving of daemon
//!    steps and topology events.
//!
//! The cheap PR gate runs one seed per cell; the nightly extended job
//! widens the sweep via `SNO_DIFF_SEEDS=lo:hi`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sno::core::dcd::Dcd;
use sno::core::stno::Stno;
use sno::engine::daemon::Daemon;
use sno::engine::{EngineMode, Network, Protocol, Simulation, TopologyEvent};
use sno::graph::{Graph, NodeId};
use sno::lab::DaemonSpec;
use sno::tree::BfsSpanningTree;

mod common;
use common::{seed_offsets, topologies, DAEMONS};

/// Salt mixed into per-event RNG seeds so join arrivals are adversarial
/// yet identical across the lockstepped modes.
const EVENT_SALT: u64 = 0xA11C_E5EE_D000_0000;

/// Picks an absent non-loop pair by rejection sampling, or `None` when
/// the graph is (close to) complete.
fn pick_absent_link(g: &Graph, rng: &mut StdRng) -> Option<(NodeId, NodeId)> {
    let n = g.node_count() as u64;
    for _ in 0..64 {
        let u = NodeId::new((rng.next_u64() % n) as usize);
        let v = NodeId::new((rng.next_u64() % n) as usize);
        if u != v && g.port_to(u, v).is_none() {
            return Some((u, v));
        }
    }
    None
}

/// Picks an existing edge uniformly (as a `u < v` pair), or `None` on an
/// edgeless graph.
fn pick_existing_link(g: &Graph, rng: &mut StdRng) -> Option<(NodeId, NodeId)> {
    let edges: Vec<(NodeId, NodeId)> = g
        .nodes()
        .flat_map(|u| {
            g.neighbors(u)
                .iter()
                .filter(move |&&v| u.index() < v.index())
                .map(move |&v| (u, v))
        })
        .collect();
    if edges.is_empty() {
        return None;
    }
    Some(edges[(rng.next_u64() % edges.len() as u64) as usize])
}

/// Derives the `k`-th scheduled event from the *current* graph, cycling
/// add → fail → join → crash. Returns `None` when no valid instance of
/// that kind exists (complete graph, exhausted node bound, …).
fn derive_event(g: &Graph, bound: usize, k: usize, rng: &mut StdRng) -> Option<TopologyEvent> {
    let n = g.node_count();
    match k % 4 {
        0 => pick_absent_link(g, rng).map(|(u, v)| TopologyEvent::LinkAdd { u, v }),
        1 => pick_existing_link(g, rng).map(|(u, v)| TopologyEvent::LinkFail { u, v }),
        2 => {
            if n >= bound {
                return None;
            }
            let a = NodeId::new((rng.next_u64() % n as u64) as usize);
            let mut links = vec![a];
            let b = NodeId::new((rng.next_u64() % n as u64) as usize);
            if b != a {
                links.push(b);
            }
            Some(TopologyEvent::NodeJoin { links })
        }
        _ => {
            // Never the root (node 0) — the engine forbids crashing it.
            let x = NodeId::new(1 + (rng.next_u64() % (n as u64 - 1)) as usize);
            Some(TopologyEvent::NodeCrash { node: x })
        }
    }
}

/// Steps the four engine configurations in lockstep from identical random
/// configurations, applying the same derived [`TopologyEvent`] to every
/// simulation at each scheduled step, and asserts a bit-identical trace
/// throughout — plus, after every event, that each mode's incrementally
/// repaired enabled set equals a from-scratch rebuild on the mutated
/// network.
fn assert_mutation_lockstep<P>(
    label: &str,
    net: &Network,
    protocol: P,
    daemon_spec: DaemonSpec,
    seed: u64,
    max_steps: u64,
) where
    P: Protocol + Clone,
{
    // (mode, sharded): the sharded port-dirty leg runs 3 shards on 2
    // threads.
    let modes = [
        (EngineMode::FullSweep, false),
        (EngineMode::NodeDirty, false),
        (EngineMode::PortDirty, false),
        (EngineMode::PortDirty, true),
    ];
    let mut sims: Vec<Simulation<'_, P>> = modes
        .iter()
        .map(|&(m, sharded)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = Simulation::from_random(net, protocol.clone(), &mut rng);
            s.set_mode(m);
            if sharded {
                // Force the shard-parallel phases even at these sizes.
                s.configure_sync_sharding(3, 2);
                s.set_sync_parallel_threshold(0);
            }
            s
        })
        .collect();
    let mut daemons: Vec<Box<dyn Daemon>> = (0..sims.len())
        .map(|_| daemon_spec.build(net, seed))
        .collect();

    // Events land early enough that even fast stacks are still moving,
    // spaced so each repair is exercised by real steps before the next.
    let event_steps: [u64; 6] = [4, 9, 14, 19, 24, 29];
    let mut applied = 0usize;
    for step in 0..max_steps {
        if event_steps.contains(&step) {
            let mut derive_rng = StdRng::seed_from_u64(seed ^ EVENT_SALT ^ step);
            let ev = derive_event(
                sims[0].network().graph(),
                sims[0].network().n_bound(),
                applied,
                &mut derive_rng,
            );
            applied += 1;
            if let Some(ev) = ev {
                for s in sims.iter_mut() {
                    // Identically seeded per sim: a join's adversarial
                    // arrival state must match across the modes.
                    let mut arrival = StdRng::seed_from_u64(seed ^ EVENT_SALT ^ step);
                    s.apply_topology_event(&ev, Some(&mut arrival))
                        .unwrap_or_else(|e| panic!("{label}: {ev} at step {step}: {e}"));
                }
                // Incremental repair ≡ from-scratch rebuild, per mode.
                let fresh = Simulation::new(
                    sims[0].network(),
                    protocol.clone(),
                    sims[0].config().to_vec(),
                );
                let rebuilt = fresh.enabled_nodes();
                for (s, m) in sims.iter().zip(modes) {
                    assert_eq!(
                        s.enabled_nodes(),
                        rebuilt,
                        "{label}: repaired enabled set vs rebuild under {m:?} after {ev} at step {step}"
                    );
                }
            }
        }
        let reference = sims[0].enabled_nodes();
        for (s, m) in sims.iter().zip(modes) {
            assert_eq!(
                s.enabled_nodes(),
                reference,
                "{label}: enabled set (and its NodeId order) under {m:?} at step {step}"
            );
        }
        let outcomes: Vec<_> = sims
            .iter_mut()
            .zip(daemons.iter_mut())
            .map(|(s, d)| s.step(d))
            .collect();
        let counters: Vec<_> = sims
            .iter()
            .map(|s| (s.steps(), s.moves(), s.rounds()))
            .collect();
        for (i, m) in modes.iter().enumerate().skip(1) {
            assert_eq!(
                &outcomes[0], &outcomes[i],
                "{label}: outcome under {m:?} at step {step}"
            );
            assert_eq!(
                sims[0].config(),
                sims[i].config(),
                "{label}: config under {m:?} at step {step}"
            );
            assert_eq!(
                counters[0], counters[i],
                "{label}: counters under {m:?} at step {step}"
            );
        }
        // Don't break on silence before the schedule has run dry: an
        // event can (and should) wake a silent simulation back up.
        if outcomes[0].is_silent() && step > *event_steps.last().unwrap() {
            break;
        }
    }
    assert!(
        applied == event_steps.len(),
        "{label}: schedule under-ran ({applied}/{} events derived)",
        event_steps.len()
    );
}

/// Runs the daemon × topology × seed sub-matrix for one protocol
/// builder, with join headroom in the network bound.
fn mutation_matrix<P, F>(protocol_name: &str, steps: u64, build: F)
where
    P: Protocol + Clone,
    F: Fn(&Network) -> P,
{
    for (topo, g) in topologies(10) {
        let n = g.node_count();
        let net = Network::with_bound(g, NodeId::new(0), n + 2);
        let protocol = build(&net);
        for (i, d) in DAEMONS.into_iter().enumerate() {
            for offset in seed_offsets() {
                let label = format!("{protocol_name} × {d} × {topo} × seed+{offset}");
                assert_mutation_lockstep(
                    &label,
                    &net,
                    protocol.clone(),
                    d,
                    7_300 + i as u64 + 1_000 * offset,
                    steps,
                );
            }
        }
    }
}

#[test]
fn stno_mutation_traces_are_identical() {
    mutation_matrix("stno", 400, |_| Stno::new(BfsSpanningTree));
}

#[test]
fn dcd_mutation_traces_are_identical() {
    mutation_matrix("dcd", 400, |_| Dcd);
}

// ---------------------------------------------------------------------
// Incremental-vs-rebuild proptests (the suite `sno-graph::mutate`'s docs
// point at).
// ---------------------------------------------------------------------

/// Removes one undirected pair from an edge log, either orientation.
fn log_remove(log: &mut Vec<(usize, usize)>, u: usize, v: usize) {
    let i = log
        .iter()
        .position(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u))
        .expect("removed edge present in log");
    log.remove(i);
}

/// Builds a random connected base graph *as an explicit edge log* (random
/// parent tree + chords), so the rebuild target is known exactly.
fn random_log(n: usize, extra: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut log = Vec::with_capacity(n - 1 + extra);
    for v in 1..n {
        log.push(((rng.next_u64() % v as u64) as usize, v));
    }
    for _ in 0..extra {
        let u = (rng.next_u64() % n as u64) as usize;
        let v = (rng.next_u64() % n as u64) as usize;
        let present = log
            .iter()
            .any(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u));
        if u != v && !present {
            log.push((u.min(v), u.max(v)));
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The `sno-graph::mutate` contract: after every event of a random
    /// sequence, the incrementally mutated graph is bit-identical to
    /// `from_edges` over the equivalent edge log (same offsets, flat
    /// adjacency, back ports, `csr_index` numbering — `Graph: Eq`
    /// compares them all).
    #[test]
    fn incremental_csr_repair_matches_from_edges_rebuild(
        n in 4usize..=12,
        extra in 0usize..=8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = random_log(n, extra, &mut rng);
        let mut n_now = n;
        let mut g = Graph::from_edges(n_now, &log).expect("base graph");
        let bound = n + 3;
        for k in 0..10 {
            let Some(ev) = derive_event(&g, bound, (rng.next_u64() % 4) as usize, &mut rng)
            else {
                continue;
            };
            g.apply_event(&ev).expect("derived event is valid");
            match &ev {
                TopologyEvent::LinkAdd { u, v } => log.push((u.index(), v.index())),
                TopologyEvent::LinkFail { u, v } => log_remove(&mut log, u.index(), v.index()),
                TopologyEvent::NodeCrash { node } => {
                    let x = node.index();
                    log.retain(|&(a, b)| a != x && b != x);
                }
                TopologyEvent::NodeJoin { links } => {
                    let x = n_now;
                    n_now += 1;
                    log.extend(links.iter().map(|q| (x, q.index())));
                }
            }
            let rebuilt = Graph::from_edges(n_now, &log).expect("log stays valid");
            prop_assert_eq!(
                &g, &rebuilt,
                "graph diverged from rebuild after event {} ({})", k, ev
            );
            prop_assert_eq!(g.edge_count(), log.len());
        }
    }

    /// The engine-level repair contract under the port-dirty engine: a
    /// random interleaving of daemon steps and topology events keeps the
    /// repaired simulation's enabled set and configuration equal to a
    /// from-scratch rebuild on the mutated network, after every event.
    #[test]
    fn port_cache_repair_matches_fresh_rebuild(
        n in 5usize..=10,
        extra in 0usize..=6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = sno::graph::generators::random_connected(n, extra, rng.next_u64());
        let net = Network::with_bound(g, NodeId::new(0), n + 3);
        let protocol = Stno::new(BfsSpanningTree);
        let mut init = StdRng::seed_from_u64(seed ^ 1);
        let mut sim = Simulation::from_random(&net, protocol, &mut init);
        sim.set_mode(EngineMode::PortDirty);
        let mut daemon = DaemonSpec::CentralRandom.build(&net, seed);
        for k in 0..8 {
            // A burst of daemon steps so the dirty queues are mid-flight
            // when the event lands.
            for _ in 0..(rng.next_u64() % 6) {
                sim.step(&mut daemon);
            }
            let Some(ev) = derive_event(
                sim.network().graph(),
                sim.network().n_bound(),
                (rng.next_u64() % 4) as usize,
                &mut rng,
            ) else {
                continue;
            };
            let mut arrival = StdRng::seed_from_u64(seed ^ k as u64);
            sim.apply_topology_event(&ev, Some(&mut arrival))
                .expect("derived event is valid");
            let fresh = Simulation::new(sim.network(), protocol, sim.config().to_vec());
            prop_assert_eq!(
                sim.enabled_nodes(),
                fresh.enabled_nodes(),
                "port-dirty repair diverged from rebuild after event {} ({})", k, ev
            );
        }
    }
}
