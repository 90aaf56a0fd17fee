//! Deterministic-telemetry contract tests.
//!
//! Four claims are enforced:
//!
//! 1. **Schedule independence** — the sharded synchronous executor's
//!    counters are byte-identical across shard and worker-thread counts
//!    (every meter hook is issued from serial sections with
//!    schedule-independent aggregates);
//! 2. **Cross-mode golden counters** — on a fixed seed every engine mode
//!    computes the same trajectory (same moves/steps/commits), while the
//!    *work* counters decompose the modes' cost: `FullSweep` whole-node
//!    guard evaluations dwarf `PortDirty`'s, which pays per-port
//!    evaluations instead. The exact values are pinned: any engine
//!    change that silently adds or removes work fails here.
//! 3. **Metered stepping stays allocation-free** — `CounterMeter` stores
//!    its counters and histograms inline, so turning telemetry on does
//!    not cost the hot loop its zero-alloc pin (and the `NoopMeter`
//!    default remains pinned too) — measured on the caller's own
//!    allocation counter, so the sharded-trace test's pool workers
//!    allocating concurrently cannot land in the window;
//! 4. **Phase traces are well-formed** — the sharded executor's tracer
//!    emits Chrome trace-event JSON with one named lane per shard plus a
//!    control lane, and balanced structure.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sno::engine::daemon::Synchronous;
use sno::engine::examples::HopDistance;
use sno::engine::{Counter, CounterMeter, EngineMode, Metric, Network, NoopMeter, Simulation};
use sno::engine::{Meter, TraceBuffer};
use sno::graph::{generators, NodeId};

#[global_allocator]
static ALLOC: testalloc::CountingAlloc = testalloc::CountingAlloc::new();

/// Runs the canonical metered scenario — `HopDistance` on a 3-hub graph
/// from a seeded random configuration under the synchronous daemon —
/// and returns the meter.
fn metered_run(shards: usize, threads: usize) -> CounterMeter {
    let net = Network::new(generators::hubs(24, 3, 1), NodeId::new(0));
    let mut rng = StdRng::seed_from_u64(7);
    let mut sim =
        Simulation::from_random_with_meter(&net, HopDistance, &mut rng, CounterMeter::new());
    sim.set_mode(EngineMode::PortDirty);
    sim.configure_sync_sharding(shards, threads);
    sim.set_sync_parallel_threshold(0);
    let run = sim.run_until_silent(&mut Synchronous, 10_000);
    assert!(run.converged, "scenario must converge at {shards} shards");
    sim.meter().clone()
}

#[test]
fn sync_sharded_counters_are_schedule_independent() {
    let reference = metered_run(1, 1);
    for shards in [1, 2, 4, 8] {
        for threads in [1, 2, 4, 8] {
            let m = metered_run(shards, threads);
            assert_eq!(
                reference, m,
                "counters and histograms must be byte-identical at \
                 {shards} shards / {threads} threads"
            );
        }
    }
}

/// The golden scenario: the same network and seed as [`metered_run`],
/// but under the **central round-robin** daemon — one writer per step,
/// many steps, so the per-step cost difference between the modes has
/// room to show.
fn golden_run(mode: EngineMode) -> CounterMeter {
    let net = Network::new(generators::hubs(24, 3, 1), NodeId::new(0));
    let mut rng = StdRng::seed_from_u64(7);
    let mut sim =
        Simulation::from_random_with_meter(&net, HopDistance, &mut rng, CounterMeter::new());
    sim.set_mode(mode);
    let run = sim.run_until_silent(&mut sno::engine::daemon::CentralRoundRobin::new(), 10_000);
    assert!(run.converged, "scenario must converge under {mode:?}");
    sim.meter().clone()
}

#[test]
fn per_mode_golden_counters_decompose_the_work() {
    let full = golden_run(EngineMode::FullSweep);
    let node = golden_run(EngineMode::NodeDirty);
    let port = golden_run(EngineMode::PortDirty);

    // The trajectory-derived counters are mode-invariant: every mode
    // computes the identical execution, so commits (= moves) and the
    // enabled-set accounting agree byte-for-byte.
    for (name, m) in [("node", &node), ("port", &port)] {
        assert_eq!(
            m.get(Counter::TxnCommits),
            full.get(Counter::TxnCommits),
            "{name}"
        );
        assert_eq!(
            m.get(Counter::EnabledNodes),
            full.get(Counter::EnabledNodes),
            "{name}"
        );
        assert_eq!(
            m.histogram(Metric::EnabledPerStep),
            full.histogram(Metric::EnabledPerStep),
            "{name}"
        );
        assert_eq!(
            m.histogram(Metric::WritersPerStep),
            full.histogram(Metric::WritersPerStep),
            "{name}"
        );
    }

    // The golden decomposition (hubs(24, 3), seed 7, central
    // round-robin to silence). Update these ONLY for a deliberate
    // engine-work change, never to quiet a regression:
    //
    //   mode  guard_evals  port_evals  dirty(push/pop)  invalidations
    //   full      1224          0           0/0               0
    //   node       228          0         156/156             0
    //   port        48        132           0/0             132
    //
    // `FullSweep` re-evaluates all 24 guards every step (1224 ≫ 48 =
    // the port engine's one-time cache build — its step loop performs
    // *zero* whole-node evaluations, paying 132 per-port ones instead).
    let pins: [(&str, &CounterMeter, [u64; 5]); 3] = [
        ("full", &full, [1224, 0, 0, 0, 0]),
        ("node", &node, [228, 0, 156, 156, 0]),
        ("port", &port, [48, 132, 0, 0, 132]),
    ];
    for (name, m, [guards, ports, pushes, pops, invalidations]) in pins {
        assert_eq!(m.get(Counter::GuardEvals), guards, "{name} guard_evals");
        assert_eq!(m.get(Counter::PortEvals), ports, "{name} port_evals");
        assert_eq!(m.get(Counter::DirtyPushes), pushes, "{name} dirty_pushes");
        assert_eq!(m.get(Counter::DirtyPops), pops, "{name} dirty_pops");
        assert_eq!(
            m.get(Counter::PortInvalidations),
            invalidations,
            "{name} port_invalidations"
        );
        assert_eq!(m.get(Counter::TxnCommits), 24, "{name} txn_commits");
        assert_eq!(m.get(Counter::EnabledNodes), 298, "{name} enabled_nodes");
    }
    assert!(
        full.get(Counter::GuardEvals) >= 25 * port.get(Counter::GuardEvals),
        "the sweep engine's whole-node evaluations must dwarf the port engine's"
    );
}

#[test]
fn metered_stepping_is_allocation_free() {
    let net = Network::new(generators::star(64), NodeId::new(0));
    fn activity<M: Meter>(net: &Network, mode: EngineMode, meter: M) -> u64 {
        let mut sim = Simulation::from_initial_with_meter(net, HopDistance, meter);
        sim.set_mode(mode);
        let mut daemon = sno::engine::daemon::CentralRoundRobin::new();
        sim.run_until(&mut daemon, 2_000, |_| false);
        let before = testalloc::thread_heap_activity();
        sim.run_until(&mut daemon, 5_000, |_| false);
        testalloc::thread_heap_activity() - before
    }
    for mode in [
        EngineMode::FullSweep,
        EngineMode::NodeDirty,
        EngineMode::PortDirty,
    ] {
        assert_eq!(
            activity(&net, mode, NoopMeter),
            0,
            "no-op meter must keep the zero-alloc pin in {mode:?}"
        );
        assert_eq!(
            activity(&net, mode, CounterMeter::new()),
            0,
            "counter meter must be inline (heap-free) in {mode:?}"
        );
    }
}

#[test]
fn sharded_phase_trace_is_well_formed_chrome_json() {
    let net = Network::new(generators::hubs(24, 3, 1), NodeId::new(0));
    let mut rng = StdRng::seed_from_u64(7);
    let mut sim = Simulation::from_random(&net, HopDistance, &mut rng);
    sim.configure_sync_sharding(4, 4);
    sim.set_sync_parallel_threshold(0);
    sim.set_tracer(TraceBuffer::new());
    let run = sim.run_until_silent(&mut Synchronous, 10_000);
    assert!(run.converged);
    let tracer = sim.take_tracer().expect("tracer attached");
    assert!(!tracer.is_empty(), "parallel phases must have been traced");
    let doc = tracer.to_chrome_json();
    assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
    assert!(doc.ends_with("]}"), "{doc}");
    for needle in [
        "\"name\":\"thread_name\"",
        "\"ph\":\"M\"",
        "\"ph\":\"X\"",
        "\"shard 0\"",
        "\"shard 3\"",
        "\"control\"",
        "\"name\":\"resolve\"",
        "\"name\":\"write\"",
        "\"name\":\"port-refresh\"",
        "\"name\":\"exchange\"",
        "\"name\":\"port-reeval\"",
        "\"name\":\"barrier\"",
        "\"cat\":\"sync-sharded\"",
        "\"pid\":1",
    ] {
        assert!(doc.contains(needle), "missing {needle} in {doc}");
    }
    // No string value in the document contains braces or brackets, so
    // plain counting is a fair well-formedness check (same convention as
    // the lab's JSON tests).
    assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    assert_eq!(doc.matches('[').count(), doc.matches(']').count());
}
