//! The zero-allocation hot-path assertions, measured through the
//! `testalloc` shim's counting global allocator.
//!
//! Three claims are enforced:
//!
//! 1. the **engine's step loop** performs zero heap allocations per step
//!    once warmed up (reusable scratch, incremental enabled set, port
//!    cache) — measured with `Copy`-state protocols so no protocol-level
//!    clone can hide an engine regression, in every engine mode;
//! 2. a **port-dirty `DFTNO` hub step is copy-free end to end**: with
//!    the in-place `StateTxn` write API a star `n = 512` step performs
//!    **zero** heap allocations and therefore **zero** `State` clones
//!    (every `DftnoState` clone would allocate its `O(Δ)` `π` vector,
//!    so a zero allocation count is a zero clone count) — the
//!    api-redesign acceptance gate that retired the cloning
//!    `Protocol::apply` contract;
//! 3. the **layered protocols' guard evaluations** (`Dftno::enabled`,
//!    `Stno::enabled` — the ROADMAP "per-guard-evaluation allocation"
//!    item) perform zero allocations through `enabled_into` once their
//!    `Scratch` arena is warm.
//!
//! Every pin reads [`testalloc::thread_heap_activity`], the measuring
//! thread's own counter: all measured work runs on the caller's thread
//! (the sync-round pin keeps the engine at its default single shard),
//! so concurrent tests and harness threads cannot land in a window.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sno::core::dftno::Dftno;
use sno::core::stno::Stno;
use sno::engine::daemon::CentralRoundRobin;
use sno::engine::examples::HopDistance;
use sno::engine::protocol::{ConfigView, Scratch};
use sno::engine::{EngineMode, Network, Protocol, Simulation};
use sno::graph::{generators, NodeId};
use sno::token::OracleToken;
use sno::tree::{BfsSpanningTree, OracleSpanningTree};

#[global_allocator]
static ALLOC: testalloc::CountingAlloc = testalloc::CountingAlloc::new();

/// Runs `steps` warmed-up daemon selections and returns the heap
/// activity (allocations + reallocations) they performed.
fn step_activity<P: Protocol + Clone>(
    net: &Network,
    protocol: P,
    mode: EngineMode,
    steps: u64,
) -> u64 {
    let mut sim = Simulation::from_initial(net, protocol);
    sim.set_mode(mode);
    let mut daemon = CentralRoundRobin::new();
    // Warm-up: let every scratch buffer, arena slot, and list reach its
    // steady capacity.
    sim.run_until(&mut daemon, 2_000, |_| false);
    let before = testalloc::thread_heap_activity();
    sim.run_until(&mut daemon, steps, |_| false);
    testalloc::thread_heap_activity() - before
}

#[test]
fn engine_step_loop_is_allocation_free_for_copy_states() {
    // OracleToken (state u64) on the star: the hub workload the
    // port-dirty engine targets. HopDistance (state u32) on a path: the
    // generic sparse workload. Neither protocol's apply allocates, so
    // any count here is the engine's.
    let star = Network::new(generators::star(64), NodeId::new(0));
    let oracle = OracleToken::new(star.graph(), star.root());
    let path = Network::new(generators::path(64), NodeId::new(0));
    for mode in [
        EngineMode::FullSweep,
        EngineMode::NodeDirty,
        EngineMode::PortDirty,
    ] {
        let a = step_activity(&star, oracle.clone(), mode, 4_000);
        assert_eq!(a, 0, "oracle token / star allocates under {mode:?}");
        let b = step_activity(&path, HopDistance, mode, 4_000);
        assert_eq!(b, 0, "hop distance / path allocates under {mode:?}");
    }
}

#[test]
fn dftno_port_dirty_hub_steps_are_clone_and_allocation_free() {
    // The api-redesign acceptance gate. Under the old clone-based
    // `Protocol::apply`, every hub move cloned DFTNO's whole state —
    // including the `O(Δ)` `π` vector, one heap allocation per step.
    // The in-place `StateTxn` path must perform **zero** heap
    // allocations per warmed-up port-dirty step, which (π being
    // heap-backed) certifies **zero** `State` clones. Pinned on the
    // gated star size, `n = 512`, and a smaller one.
    for n in [16usize, 512] {
        let net = Network::new(generators::star(n), NodeId::new(0));
        let oracle = OracleToken::new(net.graph(), net.root());
        let steps = 2_000u64;
        let activity = step_activity(&net, Dftno::new(oracle), EngineMode::PortDirty, steps);
        assert_eq!(
            activity, 0,
            "star n={n}: {activity} heap operations over {steps} port-dirty steps \
             (expected zero allocations and zero state clones)"
        );
    }
}

#[test]
fn dftno_sync_round_multi_writer_steps_are_clone_and_allocation_free() {
    // The delta-staging acceptance pin: synchronous-daemon DFTNO steps
    // select *every* enabled processor — the multi-writer path that
    // used to `clone_from` each writer's whole `O(Δ)` state into a
    // pooled staging slot (one heap-backed π copy per writer per step).
    // The copy-on-write ConfigStore must commit those rounds with zero
    // heap activity once warm: repairs are read-free or η-only readers,
    // so preservations are rare and pooled, and in-place writes clone
    // nothing. Warm-up replays the exact seeds the measured window
    // re-runs, so every pool (stash, records, profiles, enabled list)
    // is at its high-water mark before counting starts.
    let net = Network::new(generators::torus(6, 6), NodeId::new(0));
    let oracle = OracleToken::new(net.graph(), net.root());
    let mut sim = Simulation::from_initial(&net, Dftno::new(oracle));
    sim.set_mode(EngineMode::PortDirty);
    let mut daemon = sno::engine::daemon::Synchronous::new();
    let seeds = 0..4u64;
    for seed in seeds.clone() {
        let mut rng = StdRng::seed_from_u64(seed);
        sim.reinit_random(&mut rng);
        sim.run_until(&mut daemon, 300, |_| false);
    }
    let mut activity = 0;
    let mut moves = 0;
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        // Re-initialization itself builds fresh random states (it
        // allocates by design) — the measured window is the steps.
        sim.reinit_random(&mut rng);
        let before = testalloc::thread_heap_activity();
        let run = sim.run_until(&mut daemon, 300, |_| false);
        activity += testalloc::thread_heap_activity() - before;
        moves += run.moves;
    }
    assert!(moves > 1_200, "dense multi-writer rounds actually ran");
    assert_eq!(
        activity, 0,
        "synchronous DFTNO rounds must stage without clones \
         ({activity} heap operations observed)"
    );
}

#[test]
fn dftno_node_dirty_steps_stay_o1() {
    // The node-dirty engine re-evaluates the hub's whole neighborhood
    // but must still write states in place: zero allocations per step
    // there too (single-writer steps never stage).
    let net = Network::new(generators::star(64), NodeId::new(0));
    let oracle = OracleToken::new(net.graph(), net.root());
    let activity = step_activity(&net, Dftno::new(oracle), EngineMode::NodeDirty, 2_000);
    assert_eq!(activity, 0, "node-dirty DFTNO steps must not allocate");
}

#[test]
fn layered_guard_evaluation_is_allocation_free_with_warm_scratch() {
    // The ROADMAP item verbatim: `Dftno::enabled` and `Stno::enabled`
    // built a temporary substrate-action Vec per guard evaluation.
    // Through `enabled_into` with a warmed arena they must not allocate.
    let g = generators::random_connected(24, 12, 9);
    let root = NodeId::new(0);

    // DFTNO over the oracle walker.
    let oracle = OracleToken::new(&g, root);
    let net = Network::new(g.clone(), root);
    let dftno = Dftno::new(oracle);
    let mut rng = StdRng::seed_from_u64(3);
    let config: Vec<_> = net
        .nodes()
        .map(|p| dftno.random_state(net.ctx(p), &mut rng))
        .collect();
    let mut arena = Scratch::new();
    let mut out = Vec::with_capacity(8);
    for p in net.nodes() {
        // Warm pass per node shape, then the measured pass.
        let view = ConfigView::new(&net, p, &config);
        out.clear();
        dftno.enabled_into(&view, &mut out, &mut arena);
        let before = testalloc::thread_heap_activity();
        out.clear();
        dftno.enabled_into(&view, &mut out, &mut arena);
        assert_eq!(
            testalloc::thread_heap_activity() - before,
            0,
            "Dftno::enabled_into allocated at node {p}"
        );
    }

    // STNO over both a frozen and a live substrate.
    let bfs = sno::graph::traverse::bfs(&g, root);
    let tree = sno::graph::RootedTree::from_parents(&g, root, &bfs.parent).unwrap();
    let oracle_tree = OracleSpanningTree::from_graph(&g, &tree);
    let stno = Stno::new(oracle_tree);
    let mut rng = StdRng::seed_from_u64(4);
    let config: Vec<_> = net
        .nodes()
        .map(|p| stno.random_state(net.ctx(p), &mut rng))
        .collect();
    for p in net.nodes() {
        let view = ConfigView::new(&net, p, &config);
        out.clear();
        let mut stno_out = Vec::with_capacity(8);
        stno.enabled_into(&view, &mut stno_out, &mut arena);
        let before = testalloc::thread_heap_activity();
        stno_out.clear();
        stno.enabled_into(&view, &mut stno_out, &mut arena);
        assert_eq!(
            testalloc::thread_heap_activity() - before,
            0,
            "Stno::enabled_into (oracle tree) allocated at node {p}"
        );
    }

    let stno_live = Stno::new(BfsSpanningTree);
    let mut rng = StdRng::seed_from_u64(5);
    let config: Vec<_> = net
        .nodes()
        .map(|p| stno_live.random_state(net.ctx(p), &mut rng))
        .collect();
    let mut live_out = Vec::with_capacity(8);
    for p in net.nodes() {
        let view = ConfigView::new(&net, p, &config);
        live_out.clear();
        stno_live.enabled_into(&view, &mut live_out, &mut arena);
        let before = testalloc::thread_heap_activity();
        live_out.clear();
        stno_live.enabled_into(&view, &mut live_out, &mut arena);
        assert_eq!(
            testalloc::thread_heap_activity() - before,
            0,
            "Stno::enabled_into (BFS tree) allocated at node {p}"
        );
    }
}

#[test]
fn counting_allocator_actually_counts() {
    // Sanity: the hook sees an obvious allocation (the zero assertions
    // above would be vacuous against a broken counter), on this thread
    // and process-wide, and another thread's allocation stays out of
    // this thread's count.
    let before = testalloc::allocation_count();
    let mine = testalloc::thread_heap_activity();
    let v: Vec<u64> = Vec::with_capacity(1024);
    std::hint::black_box(&v);
    assert!(testalloc::allocation_count() > before);
    assert_eq!(testalloc::thread_heap_activity(), mine + 1);
    drop(v);
    let mine = testalloc::thread_heap_activity();
    std::thread::scope(|s| {
        s.spawn(|| {
            let start = testalloc::thread_heap_activity();
            for _ in 0..100 {
                std::hint::black_box(Vec::<u64>::with_capacity(1024));
            }
            assert_eq!(testalloc::thread_heap_activity() - start, 100);
        });
    });
    // The spawn itself allocates a few bookkeeping objects here; the
    // worker's 100 allocations must not.
    assert!(
        testalloc::thread_heap_activity() - mine < 100,
        "a worker's allocations must not count against the spawning thread"
    );
}
