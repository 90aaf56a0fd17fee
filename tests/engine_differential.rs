//! Differential tests of the incremental enabled-set engines against the
//! full-sweep reference mode.
//!
//! The node-dirty engine re-evaluates guards only at executed processors
//! and their neighbors; the port-dirty engine refines that to individual
//! dirty *ports* for port-separable protocols; the reference mode
//! re-sweeps every guard twice per step. The three must be
//! **indistinguishable**: identical enabled sets (contents *and* NodeId
//! order — the daemons index into them), identical step outcomes,
//! configurations, and move/step/round counters, at every step, for
//! every protocol stack, daemon, and topology family.
//!
//! Coverage: 4 protocols (`DFTNO`, `STNO`, the raw token circulation, the
//! raw BFS tree) × 4 daemons × 4 topology families, stepped in six-way
//! lockstep — the sharded executor (parallel-threshold pinned to 0 so
//! even these small graphs exercise the shard-parallel phases) on the
//! port-dirty engine at two geometries — more shards than threads, and
//! fewer shards than threads — and on the node-dirty engine, against
//! the serial node-dirty, port-dirty, and full-sweep engines — plus a
//! proptest over
//! random networks and seeds asserting equal `RunResult`s and final
//! configurations.
//!
//! The cheap PR gate runs one seed per cell; the nightly extended job
//! widens the sweep via `SNO_DIFF_SEEDS=lo:hi` (each extra seed re-runs
//! the whole matrix from a different random configuration).
//!
//! Beyond trace identity, the suite diffs **clone/allocation counters**
//! across the modes through the `testalloc` shim: the in-place
//! `StateTxn` commit path must keep warmed-up single-writer steps at
//! zero heap activity in every mode (a `DftnoState` clone would
//! allocate its `π` vector, so the counter doubles as a clone counter).
//! The pin reads the measuring thread's own counter, so the tests of
//! this binary run concurrently without disturbing it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sno::core::dftno::Dftno;
use sno::core::stno::Stno;
use sno::engine::daemon::Daemon;
use sno::engine::{EngineMode, Network, Protocol, Simulation};
use sno::graph::{generators, NodeId};
use sno::lab::DaemonSpec;
use sno::token::{DfsTokenCirculation, OracleToken};
use sno::tree::BfsSpanningTree;

mod common;
use common::{seed_offsets, topologies, DAEMONS};

#[global_allocator]
static ALLOC: testalloc::CountingAlloc = testalloc::CountingAlloc::new();

/// Steps the node-dirty and port-dirty engines, serial and sharded (the
/// port-dirty one at two shard/thread geometries), and the full-sweep
/// reference in six-way lockstep from identical random configurations
/// and asserts a
/// bit-identical trace: enabled set (order included), outcome,
/// configuration, and counters after every step.
fn assert_identical_traces<P>(
    label: &str,
    net: &Network,
    protocol: P,
    daemon_spec: DaemonSpec,
    seed: u64,
    max_steps: u64,
) where
    P: Protocol + Clone,
{
    // The sharded port-dirty entries differ only in geometry: more
    // shards than threads, and fewer shards than threads (idle pool
    // participants). The sharded node-dirty entry runs the shard-parallel
    // node re-evaluation even for port-separable protocols. All must be
    // indistinguishable from the serial engines.
    let configs = [
        (EngineMode::FullSweep, None),
        (EngineMode::NodeDirty, None),
        (EngineMode::PortDirty, None),
        (EngineMode::PortDirty, Some((3, 2))),
        (EngineMode::PortDirty, Some((4, 8))),
        (EngineMode::NodeDirty, Some((3, 2))),
    ];
    let mut sims: Vec<Simulation<'_, P>> = configs
        .iter()
        .map(|&(m, sharding)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = Simulation::from_random(net, protocol.clone(), &mut rng);
            s.set_mode(m);
            if let Some((shards, threads)) = sharding {
                // Force the shard-parallel phases even at these sizes.
                s.configure_sync_sharding(shards, threads);
                s.set_sync_parallel_threshold(0);
            }
            s
        })
        .collect();
    for s in &sims[1..] {
        assert_eq!(sims[0].config(), s.config(), "{label}: same start");
    }

    let mut daemons: Vec<Box<dyn Daemon>> = (0..sims.len())
        .map(|_| daemon_spec.build(net, seed))
        .collect();
    for step in 0..max_steps {
        let reference = sims[0].enabled_nodes();
        for (s, m) in sims.iter().zip(configs) {
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
        for (o, m) in outcomes.iter().zip(configs).skip(1) {
            assert_eq!(
                &outcomes[0], o,
                "{label}: outcome under {m:?} at step {step}"
            );
        }
        let counters: Vec<_> = sims
            .iter()
            .map(|s| (s.steps(), s.moves(), s.rounds()))
            .collect();
        for (i, m) in configs.iter().enumerate().skip(1) {
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
        if outcomes[0].is_silent() {
            break;
        }
    }
}

/// Runs the whole daemon × topology × seed sub-matrix for one protocol
/// builder.
fn differential_matrix<P, F>(protocol_name: &str, steps: u64, build: F)
where
    P: Protocol + Clone,
    F: Fn(&Network) -> P,
{
    for (topo, g) in topologies(12) {
        let net = Network::new(g, NodeId::new(0));
        let protocol = build(&net);
        for (i, d) in DAEMONS.into_iter().enumerate() {
            for offset in seed_offsets() {
                let label = format!("{protocol_name} × {d} × {topo} × seed+{offset}");
                assert_identical_traces(
                    &label,
                    &net,
                    protocol.clone(),
                    d,
                    900 + i as u64 + 1_000 * offset,
                    steps,
                );
            }
        }
    }
}

#[test]
fn dftno_traces_are_identical() {
    differential_matrix("dftno", 400, |net| {
        Dftno::new(OracleToken::new(net.graph(), net.root()))
    });
}

#[test]
fn stno_traces_are_identical() {
    differential_matrix("stno", 400, |_| Stno::new(BfsSpanningTree));
}

#[test]
fn token_circulation_traces_are_identical() {
    differential_matrix("token", 400, |_| DfsTokenCirculation);
}

#[test]
fn spanning_tree_traces_are_identical() {
    differential_matrix("tree", 400, |_| BfsSpanningTree);
}

#[test]
fn three_way_lockstep_diffs_clone_counters() {
    // The modes must agree not only on traces but on their *clone
    // budget*: with the in-place commit path, a warmed-up DFTNO/oracle
    // star run performs zero heap activity per step in every mode
    // (`DftnoState`'s π vector makes any state clone an allocation, so
    // the counter is a clone counter). The runs are also diffed for
    // identical counters and final configurations — the clone-budget
    // assertion rides on a genuine three-way differential.
    let g = generators::star(96);
    let proto = Dftno::new(OracleToken::new(&g, NodeId::new(0)));
    let net = Network::new(g, NodeId::new(0));
    let modes = [
        EngineMode::FullSweep,
        EngineMode::NodeDirty,
        EngineMode::PortDirty,
    ];
    let mut results = Vec::new();
    let mut activity = Vec::new();
    for mode in modes {
        let mut sim = Simulation::from_initial(&net, proto.clone());
        sim.set_mode(mode);
        let mut daemon = DaemonSpec::CentralRoundRobin.build(&net, 0);
        // Warm up allocations (scratch, enabled list, stage pools).
        sim.run_until(&mut daemon, 2_000, |_| false);
        let before = testalloc::thread_heap_activity();
        let r = sim.run_until(&mut daemon, 3_000, |_| false);
        activity.push(testalloc::thread_heap_activity() - before);
        results.push((r, sim.config().to_vec()));
    }
    assert_eq!(results[0], results[1], "full-sweep vs node-dirty");
    assert_eq!(results[0], results[2], "full-sweep vs port-dirty");
    assert_eq!(
        activity,
        vec![0, 0, 0],
        "warmed-up steps must clone no state in any mode (allocations per 3000 steps)"
    );
}

#[test]
fn enabled_nodes_order_is_nodeid_sorted() {
    // Regression: daemons index into the enabled slice, so the engine
    // guarantees ascending NodeId order. Probe it from arbitrary (highly
    // enabled) configurations and along a run.
    let g = generators::random_connected(18, 12, 5);
    let net = Network::new(g, NodeId::new(0));
    let mut rng = StdRng::seed_from_u64(77);
    let mut sim = Simulation::from_random(&net, Stno::new(BfsSpanningTree), &mut rng);
    let mut daemon = DaemonSpec::Distributed.build(&net, 8);
    for step in 0..300 {
        let enabled = sim.enabled_nodes();
        assert!(
            enabled
                .windows(2)
                .all(|w| w[0].node.index() < w[1].node.index()),
            "enabled set not NodeId-sorted at step {step}: {enabled:?}"
        );
        if sim.step(&mut daemon).is_silent() {
            break;
        }
    }
}

fn arb_run() -> impl Strategy<Value = (usize, usize, u64, u64)> {
    // (nodes, extra edges, graph seed, run seed)
    (5usize..=16, 0usize..=12, any::<u64>(), any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for random networks and seeds, both engines report the
    /// same `RunResult` counters and final configuration after a bounded
    /// `run_until_silent` (exercising the allocation-free commit path).
    #[test]
    fn run_results_agree_on_random_networks((n, extra, gseed, seed) in arb_run()) {
        let g = generators::random_connected(n, extra, gseed);
        let net = Network::new(g, NodeId::new(0));

        let mut rng = StdRng::seed_from_u64(seed);
        let mut incremental = Simulation::from_random(&net, Stno::new(BfsSpanningTree), &mut rng);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference = Simulation::from_random(&net, Stno::new(BfsSpanningTree), &mut rng);
        reference.set_mode(EngineMode::FullSweep);

        let mut da = DaemonSpec::CentralRandom.build(&net, seed);
        let mut db = DaemonSpec::CentralRandom.build(&net, seed);
        let ra = incremental.run_until_silent(&mut da, 200_000);
        let rb = reference.run_until_silent(&mut db, 200_000);
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(incremental.config(), reference.config());
    }

    /// The same property for a non-silent stack (`DFTNO` over the oracle
    /// token) under a bounded `run_until`.
    #[test]
    fn bounded_runs_agree_on_dftno((n, extra, gseed, seed) in arb_run()) {
        let g = generators::random_connected(n, extra, gseed);
        let net = Network::new(g, NodeId::new(0));
        let proto = Dftno::new(OracleToken::new(net.graph(), net.root()));

        let mut rng = StdRng::seed_from_u64(seed);
        let mut incremental = Simulation::from_random(&net, proto.clone(), &mut rng);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference = Simulation::from_random(&net, proto, &mut rng);
        reference.set_mode(EngineMode::FullSweep);

        let mut da = DaemonSpec::Distributed.build(&net, seed);
        let mut db = DaemonSpec::Distributed.build(&net, seed);
        let budget = 500 + (seed % 500);
        let ra = incremental.run_until(&mut da, budget, |_| false);
        let rb = reference.run_until(&mut db, budget, |_| false);
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(incremental.config(), reference.config());
        prop_assert_eq!(incremental.enabled_nodes(), reference.enabled_nodes());
    }
}
