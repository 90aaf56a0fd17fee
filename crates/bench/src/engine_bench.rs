//! The engine microbenchmark: steps/sec of the incremental engines
//! (node-dirty and port-dirty) vs the full-sweep reference, on a
//! sparse-enabled workload.
//!
//! The workload is the regime the paper's move-complexity analysis lives
//! in: `DFTNO` over the golden token substrate *after* stabilization, so
//! the only activity is a single token walking an otherwise-silent
//! network. A full-sweep engine still pays two `O(n)` guard sweeps per
//! step there; the node-dirty engine pays for the executed node's
//! neighborhood — which on a star is still `O(n)` (the hub's guard and
//! its `n − 1` dirtied leaves); the port-dirty engine pays only for the
//! dirty *ports*, making hub steps `o(n)`. Measured on path / star /
//! random-tree / torus across sizes, emitted as `BENCH_engine.json`
//! (`sno-engine-bench/v6` — v5 added per-mode deterministic work
//! counters from the telemetry `Meter`; v6 re-anchors the sync-round
//! speedups to a node-dirty serial baseline and adds the executor /
//! threads / thread-spawns columns of the persistent worker pool), and
//! gated in CI:
//!
//! * node-dirty must never lose to the sweep on the `n = 512` star and
//!   must beat it ≥ 5× on the large path (the PR-2 gates);
//! * port-dirty must beat the sweep ≥ 40× on the `n = 512` star
//!   ([`STAR_PORT_GATE`], ratcheted from the pre-`StateTxn` 10× — the
//!   in-place commit path removed both the `O(Δ)` apply clone and the
//!   `O(Δ)` selection-time guard re-sweep) — and, when a committed
//!   baseline is supplied, its speedup ratio must stay within 30% of
//!   the committed one (ratios are hardware-portable; absolute
//!   steps/sec are not);
//! * the per-mode work counters on the `n = 512` star are ratcheted
//!   **exactly** against the committed baseline ([`check_counter_baseline`]):
//!   counters are deterministic, so unlike wall-clock ratios there is
//!   no noise to tolerate — any increase in guard re-evaluations, port
//!   evaluations, or cache invalidations per step is a real algorithmic
//!   regression and fails CI outright;
//! * the `star-apply` row additionally counts heap operations per mode
//!   through the `testalloc` shim and gates port-dirty hub steps at
//!   **zero** state clones ([`star_apply_violations`]);
//! * the `sync_rounds` section ([`sync_round_bench`]) measures the
//!   opposite regime — dense synchronous rounds from random
//!   configurations — across the [`SYNC_CONFIGS`] executor matrix
//!   (node-dirty serial baseline, sharded-serial, and the pooled
//!   executor at 2/4/8 shards) on torus / random-tree / hubs, verifies every
//!   configuration trace-identical, gates the sharded-serial row at
//!   zero heap operations (the delta-staging acceptance criterion),
//!   every pooled row at **zero thread spawns** inside the timed
//!   windows (the persistent pool's acceptance criterion), and, on
//!   machines with ≥ 8 hardware threads, the 8-shard pooled rows at
//!   ≥ [`SYNC_SPEEDUP_GATE`]× (torus) and ≥ [`HUBS_SYNC_GATE`]×
//!   (hubs — the skewed-degree family the sharded port cache exists
//!   for) the node-serial baseline ([`sync_gate_violations`], plus the
//!   baseline-relative [`check_sync_baseline`] and the
//!   [`scaling_violations`] monotonicity curve).

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sno_core::dftno::Dftno;
use sno_engine::daemon::{CentralRoundRobin, Synchronous};
use sno_engine::{Counter, CounterMeter, EngineMode, Network, Simulation};
use sno_graph::{GeneratorSpec, NodeId};
use sno_token::OracleToken;

use crate::cells;
use crate::table::Table;

/// Seed for the seeded topology families.
const GRAPH_SEED: u64 = 42;

/// The topology families the bench sweeps.
pub const TOPOLOGIES: [(GeneratorSpec, &str); 4] = [
    (GeneratorSpec::Path, "path"),
    (GeneratorSpec::Star, "star"),
    (GeneratorSpec::RandomTree, "random-tree"),
    (GeneratorSpec::Torus, "torus"),
];

/// One measured cell of the engine bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineBenchRow {
    /// Topology family name.
    pub topology: &'static str,
    /// Node count of the instantiated graph.
    pub n: usize,
    /// Steps timed per mode.
    pub steps: u64,
    /// Wall time of the full-sweep reference engine.
    pub full_sweep_ns: u128,
    /// Wall time of the node-dirty incremental engine (PR 2's engine)
    /// over the identical trace.
    pub node_dirty_ns: u128,
    /// Wall time of the port-dirty engine over the identical trace.
    pub port_dirty_ns: u128,
    /// Whole-node guard evaluations of the full-sweep run over the
    /// timed window (from the deterministic telemetry counters; setup
    /// work excluded — these describe steady-state per-step cost).
    pub full_guard_evals: u64,
    /// Whole-node guard evaluations of the node-dirty run.
    pub node_guard_evals: u64,
    /// Whole-node guard evaluations of the port-dirty run — zero in
    /// steady state: its step loop re-evaluates *ports*, not nodes.
    pub port_guard_evals: u64,
    /// Per-port guard evaluations of the port-dirty run.
    pub port_port_evals: u64,
    /// Port-cache invalidations of the port-dirty run.
    pub port_invalidations: u64,
}

impl EngineBenchRow {
    /// Steps per second of the full-sweep reference.
    pub fn full_steps_per_sec(&self) -> f64 {
        self.steps as f64 / (self.full_sweep_ns as f64 / 1e9)
    }

    /// Steps per second of the node-dirty engine.
    pub fn node_steps_per_sec(&self) -> f64 {
        self.steps as f64 / (self.node_dirty_ns as f64 / 1e9)
    }

    /// Steps per second of the port-dirty engine.
    pub fn port_steps_per_sec(&self) -> f64 {
        self.steps as f64 / (self.port_dirty_ns as f64 / 1e9)
    }

    /// `node-dirty / full-sweep` throughput ratio.
    pub fn node_speedup(&self) -> f64 {
        self.full_sweep_ns as f64 / self.node_dirty_ns.max(1) as f64
    }

    /// `port-dirty / full-sweep` throughput ratio.
    pub fn port_speedup(&self) -> f64 {
        self.full_sweep_ns as f64 / self.port_dirty_ns.max(1) as f64
    }

    /// A counter scaled to per-step cost (the ratchet gate compares
    /// per-step values so baselines survive a change of `steps`).
    pub fn per_step(&self, counter: u64) -> f64 {
        counter as f64 / self.steps.max(1) as f64
    }
}

/// Measures one cell: settle the token circulation, then time `steps`
/// daemon selections in all three engine modes from identical states and
/// verify the runs were trace-identical.
fn bench_cell(spec: GeneratorSpec, name: &'static str, n: usize, steps: u64) -> EngineBenchRow {
    let g = spec.build(n, GRAPH_SEED);
    let n = g.node_count();
    let root = NodeId::new(0);
    let oracle = OracleToken::new(&g, root);
    let net = Network::new(g, root);
    let mut sim = Simulation::from_initial(&net, Dftno::new(oracle));
    let mut daemon = CentralRoundRobin::new();
    // Settle: a few complete token circulations (one is `2n − 1` daemon
    // selections, plus the label repairs they trigger) assign the names
    // and fix the labels, after which only the token's holder is enabled —
    // the sparse-enabled steady state.
    let circulation = 2 * n as u64 - 1;
    sim.run_until(&mut daemon, 6 * circulation, |_| false);
    assert!(
        sim.enabled_nodes().len() <= 2,
        "{name} n={n}: steady state must be sparse-enabled"
    );

    let timed = |mode: EngineMode| {
        let mut run_sim = sim.clone();
        run_sim.set_mode(mode);
        let mut run_daemon = daemon.clone();
        let t0 = Instant::now();
        let r = run_sim.run_until(&mut run_daemon, steps, |_| false);
        let ns = t0.elapsed().as_nanos();
        assert_eq!(r.steps, steps, "{name} n={n}: the token never goes silent");
        (r, run_sim, ns)
    };
    let (r_full, full, full_sweep_ns) = timed(EngineMode::FullSweep);
    let (r_node, node, node_dirty_ns) = timed(EngineMode::NodeDirty);
    let (r_port, port, port_dirty_ns) = timed(EngineMode::PortDirty);
    assert!(
        port.is_port_dirty_active(),
        "{name} n={n}: DFTNO/oracle must be port-separable"
    );

    // The three timed runs double as a differential check at scale.
    assert_eq!(r_full, r_node, "{name} n={n}: identical counters");
    assert_eq!(r_full, r_port, "{name} n={n}: identical counters");
    assert_eq!(
        full.config(),
        node.config(),
        "{name} n={n}: identical configs"
    );
    assert_eq!(
        full.config(),
        port.config(),
        "{name} n={n}: identical configs"
    );

    // Untimed metered replay per mode: the deterministic work counters
    // behind the same window the wall clocks measured. The meter is
    // zeroed after construction so one-time setup (cache builds, mode
    // switch) does not pollute the steady-state per-step figures —
    // same convention as the lab's campaign meters.
    let metered = |mode: EngineMode| -> CounterMeter {
        let mut m_sim = Simulation::with_meter(
            &net,
            sim.protocol().clone(),
            sim.config().to_vec(),
            CounterMeter::new(),
        );
        m_sim.set_mode(mode);
        *m_sim.meter_mut() = CounterMeter::new();
        let mut m_daemon = daemon.clone();
        let r = m_sim.run_until(&mut m_daemon, steps, |_| false);
        // `rounds` is omitted: a freshly-constructed simulation starts a
        // new round tracker while the timed clones inherited the settle
        // run's mid-round state, so only the trajectory is compared.
        assert_eq!(
            (r.steps, r.moves),
            (r_full.steps, r_full.moves),
            "{name} n={n}: the metered replay must retrace the timed run"
        );
        assert_eq!(
            m_sim.config(),
            full.config(),
            "{name} n={n}: identical configs"
        );
        m_sim.meter().clone()
    };
    let m_full = metered(EngineMode::FullSweep);
    let m_node = metered(EngineMode::NodeDirty);
    let m_port = metered(EngineMode::PortDirty);

    EngineBenchRow {
        topology: name,
        n,
        steps,
        full_sweep_ns,
        node_dirty_ns,
        port_dirty_ns,
        full_guard_evals: m_full.get(Counter::GuardEvals),
        node_guard_evals: m_node.get(Counter::GuardEvals),
        port_guard_evals: m_port.get(Counter::GuardEvals),
        port_port_evals: m_port.get(Counter::PortEvals),
        port_invalidations: m_port.get(Counter::PortInvalidations),
    }
}

/// Runs the sweep: every topology family × every size, `steps` timed
/// selections each.
pub fn engine_bench(sizes: &[usize], steps: u64) -> Vec<EngineBenchRow> {
    let mut rows = Vec::new();
    for (spec, name) in TOPOLOGIES {
        for &n in sizes {
            rows.push(bench_cell(spec, name, n, steps));
        }
    }
    rows
}

/// The `star-apply` measurement: steps/sec of the gated star workload
/// **plus per-step heap-activity (≙ state-clone) counts** per engine
/// mode, read through the `testalloc` counting-allocator shim.
///
/// A `DftnoState` clone allocates its `O(Δ)` `π` vector, so with the
/// in-place `StateTxn` commit path the per-step count must be exactly
/// zero — the bench gate behind the api redesign. Counts are only
/// meaningful when the process runs under `testalloc::CountingAlloc`
/// (the `engine_bench` binary installs it); `counting` records whether
/// it was live.
#[derive(Debug, Clone, PartialEq)]
pub struct StarApplyRow {
    /// Node count of the star.
    pub n: usize,
    /// Steps timed per mode.
    pub steps: u64,
    /// Wall time per mode (full sweep, node-dirty, port-dirty).
    pub mode_ns: [u128; 3],
    /// Heap activity (allocations + reallocations) per mode over the
    /// timed window.
    pub mode_allocs: [u64; 3],
    /// Whether a counting allocator was actually installed (false ⇒ the
    /// counts are vacuously zero and must not be gated on).
    pub counting: bool,
}

impl StarApplyRow {
    /// Port-dirty steps per second.
    pub fn port_steps_per_sec(&self) -> f64 {
        self.steps as f64 / (self.mode_ns[2] as f64 / 1e9)
    }

    /// Heap operations (≙ clones) per port-dirty step.
    pub fn port_allocs_per_step(&self) -> f64 {
        self.mode_allocs[2] as f64 / self.steps as f64
    }
}

/// Probes whether a counting global allocator is live: a fresh heap
/// allocation must move the shim's counter.
fn counting_alloc_live() -> bool {
    let before = testalloc::allocation_count();
    let v: Vec<u64> = Vec::with_capacity(64);
    std::hint::black_box(&v);
    testalloc::allocation_count() > before
}

/// Measures the `star-apply` row on the gated `n = 512` star (DFTNO over
/// the oracle walker, steady state, central round robin).
pub fn star_apply_row(n: usize, steps: u64) -> StarApplyRow {
    let g = GeneratorSpec::Star.build(n, GRAPH_SEED);
    let n = g.node_count();
    let root = NodeId::new(0);
    let oracle = OracleToken::new(&g, root);
    let net = Network::new(g, root);
    let mut sim = Simulation::from_initial(&net, Dftno::new(oracle));
    let mut daemon = CentralRoundRobin::new();
    let circulation = 2 * n as u64 - 1;
    sim.run_until(&mut daemon, 6 * circulation, |_| false);

    let counting = counting_alloc_live();
    let mut mode_ns = [0u128; 3];
    let mut mode_allocs = [0u64; 3];
    for (k, mode) in [
        EngineMode::FullSweep,
        EngineMode::NodeDirty,
        EngineMode::PortDirty,
    ]
    .into_iter()
    .enumerate()
    {
        let mut run_sim = sim.clone();
        run_sim.set_mode(mode);
        let mut run_daemon = daemon.clone();
        // Warm the mode's own scratch before opening the counter window.
        run_sim.run_until(&mut run_daemon, 1_000, |_| false);
        let allocs_before = testalloc::heap_activity();
        let t0 = Instant::now();
        let r = run_sim.run_until(&mut run_daemon, steps, |_| false);
        mode_ns[k] = t0.elapsed().as_nanos();
        mode_allocs[k] = testalloc::heap_activity() - allocs_before;
        assert_eq!(r.steps, steps, "star-apply: the token never goes silent");
    }
    StarApplyRow {
        n,
        steps,
        mode_ns,
        mode_allocs,
        counting,
    }
}

/// The clone-count gate of the `star-apply` row: under the port-dirty
/// engine a hub step must perform **zero** heap operations — and
/// therefore zero state clones. Empty when the gate holds (or when no
/// counting allocator is installed, in which case there is nothing to
/// measure).
pub fn star_apply_violations(row: &StarApplyRow) -> Vec<String> {
    let mut out = Vec::new();
    if row.counting && row.mode_allocs[2] > 0 {
        out.push(format!(
            "star-apply n={}: {} heap operations over {} port-dirty steps \
             (hub steps must perform zero state clones)",
            row.n, row.mode_allocs[2], row.steps
        ));
    }
    out
}

/// The topology families of the synchronous-round bench: the
/// degree-regular torus (the gated cell), a random tree, and the
/// `hubs` skewed-degree family the star gate only proxies.
pub const SYNC_TOPOLOGIES: [(GeneratorSpec, &str); 3] = [
    (GeneratorSpec::Torus, "torus"),
    (GeneratorSpec::RandomTree, "random-tree"),
    (GeneratorSpec::Hubs { hubs: 3 }, "hubs:3"),
];

/// One executor configuration of the synchronous-round sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncConfig {
    /// Executor label: `node-serial` (the node-dirty engine — the best
    /// serial engine before the sharded executor existed, and the
    /// baseline every speedup in the document divides by), `serial`
    /// (`PortDirty` at one shard: the sharded *algorithm* without
    /// parallelism — its win over node-serial is the composed port
    /// cache), or `pooled` (`PortDirty` sharded over the persistent
    /// worker pool).
    pub executor: &'static str,
    /// Shard count (1 = the serial step path).
    pub shards: usize,
    /// Engine worker threads.
    pub threads: usize,
}

/// The executor × shard matrix the synchronous-round bench sweeps per
/// topology family.
pub const SYNC_CONFIGS: [SyncConfig; 5] = [
    SyncConfig {
        executor: "node-serial",
        shards: 1,
        threads: 1,
    },
    SyncConfig {
        executor: "serial",
        shards: 1,
        threads: 1,
    },
    SyncConfig {
        executor: "pooled",
        shards: 2,
        threads: 2,
    },
    SyncConfig {
        executor: "pooled",
        shards: 4,
        threads: 4,
    },
    SyncConfig {
        executor: "pooled",
        shards: 8,
        threads: 8,
    },
];

/// One measured cell of the synchronous-round bench: DFTNO over the
/// oracle walker, re-started from random configurations, driven by the
/// synchronous daemon under the given [`SyncConfig`]. The timed window
/// covers only the steps (re-seeding allocates by design); the
/// sharded-serial torus row is gated at zero heap operations (the
/// delta-staging acceptance criterion) and every pooled row at zero
/// thread spawns (the persistent pool's acceptance criterion) —
/// measured rather than assumed.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncRoundRow {
    /// Topology family name.
    pub topology: &'static str,
    /// Node count of the instantiated graph.
    pub n: usize,
    /// Shard count (1 for the serial rows).
    pub shards: usize,
    /// Executor label (see [`SyncConfig::executor`]).
    pub executor: &'static str,
    /// Engine worker threads.
    pub threads: usize,
    /// OS threads spawned inside the timed windows (from the fleet's
    /// process-global spawn counter — exactly zero for a warmed pool).
    pub thread_spawns: u64,
    /// Synchronous daemon selections timed.
    pub steps: u64,
    /// Complete rounds those steps closed.
    pub rounds: u64,
    /// Individual action executions (writers summed over the steps).
    pub moves: u64,
    /// Wall time of the timed step windows.
    pub wall_ns: u128,
    /// Heap operations inside the timed windows (meaningful only when
    /// `counting`).
    pub allocs: u64,
    /// Copy-on-write preservations the delta-staged commits performed.
    pub stage_clones: u64,
    /// Whether a counting allocator was live.
    pub counting: bool,
}

impl SyncRoundRow {
    /// Synchronous steps per second.
    pub fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Complete rounds per second.
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Individual moves (writer executions) per second.
    pub fn moves_per_sec(&self) -> f64 {
        self.moves as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Measures the synchronous-round sweep at size `n`: every
/// [`SYNC_TOPOLOGIES`] family × every [`SYNC_CONFIGS`] entry,
/// `restarts` random re-seeds × `steps_per_restart` timed synchronous
/// steps each (plus one untimed warm-up restart per configuration so
/// pools — worker threads included — reach their high-water marks
/// before counting). Each family's configurations are verified
/// trace-identical — counters and final configurations must match the
/// node-serial baseline exactly, making the bench a determinism check
/// at scale on top of a measurement.
pub fn sync_round_bench(n: usize, restarts: u64, steps_per_restart: u64) -> Vec<SyncRoundRow> {
    let mut rows = Vec::new();
    for (spec, name) in SYNC_TOPOLOGIES {
        let g = spec.build(n, GRAPH_SEED);
        let n_actual = g.node_count();
        let root = NodeId::new(0);
        let oracle = OracleToken::new(&g, root);
        let net = Network::new(g, root);
        // Per-restart counters + final configuration of the baseline
        // run, diffed against every other configuration.
        let mut reference = None;
        for cfg in SYNC_CONFIGS {
            let mut sim = Simulation::from_initial(&net, Dftno::new(oracle.clone()));
            if cfg.executor == "node-serial" {
                sim.set_mode(EngineMode::NodeDirty);
            } else {
                sim.set_mode(EngineMode::PortDirty);
                sim.configure_sync_sharding(cfg.shards, cfg.threads);
            }
            let mut daemon = Synchronous::new();
            // Warm-up restart (untimed): stash, records, lists — and the
            // pool's worker threads, so the timed spawn delta isolates
            // per-step spawning.
            let mut rng = StdRng::seed_from_u64(0);
            sim.reinit_random(&mut rng);
            sim.run_until(&mut daemon, steps_per_restart, |_| false);

            let clones_before = sim.stage_clone_count();
            let spawns_before = sno_fleet::thread_spawns();
            let mut wall_ns = 0u128;
            let mut allocs = 0u64;
            // Accumulated across restarts (`reinit_random` zeroes the
            // simulation counters per re-seed): the row's rates divide
            // by the wall time of *all* timed windows, so its counters
            // must span them too.
            let mut moves = 0u64;
            let mut rounds = 0u64;
            let mut trace = Vec::with_capacity(restarts as usize);
            for seed in 0..restarts {
                let mut rng = StdRng::seed_from_u64(seed);
                sim.reinit_random(&mut rng);
                let a0 = testalloc::heap_activity();
                let t0 = Instant::now();
                let r = sim.run_until(&mut daemon, steps_per_restart, |_| false);
                wall_ns += t0.elapsed().as_nanos();
                allocs += testalloc::heap_activity() - a0;
                assert_eq!(
                    r.steps, steps_per_restart,
                    "{name} n={n_actual}: the token never goes silent"
                );
                moves += r.moves;
                rounds += r.rounds;
                trace.push((r, sim.config().to_vec()));
            }
            let thread_spawns = sno_fleet::thread_spawns() - spawns_before;
            match &reference {
                None => reference = Some(trace),
                Some(r) => {
                    assert_eq!(
                        &trace, r,
                        "{name} n={n_actual} executor={} shards={}: every restart's \
                         counters and final configuration must match the baseline run",
                        cfg.executor, cfg.shards
                    );
                }
            }
            rows.push(SyncRoundRow {
                topology: name,
                n: n_actual,
                shards: cfg.shards,
                executor: cfg.executor,
                threads: cfg.threads,
                thread_spawns,
                steps: restarts * steps_per_restart,
                rounds,
                moves,
                wall_ns,
                allocs,
                stage_clones: sim.stage_clone_count() - clones_before,
                counting: counting_alloc_live(),
            });
        }
    }
    rows
}

/// Renders the synchronous-round rows as an ASCII table.
pub fn sync_round_table(rows: &[SyncRoundRow]) -> Table {
    let mut t = Table::new(
        "Synchronous-round throughput vs executor and shard count \
         (DFTNO/oracle from random configurations, synchronous daemon; \
         speedups relative to the node-serial baseline row)",
        &[
            "topology",
            "n",
            "executor",
            "shards",
            "threads",
            "steps",
            "steps/s",
            "rounds/s",
            "moves/s",
            "speedup",
            "allocs",
            "spawns",
            "stage clones",
        ],
    );
    for r in rows {
        t.row(cells!(
            r.topology,
            r.n,
            r.executor,
            r.shards,
            r.threads,
            r.steps,
            format!("{:.0}", r.steps_per_sec()),
            format!("{:.0}", r.rounds_per_sec()),
            format!("{:.0}", r.moves_per_sec()),
            format!(
                "{:.2}x",
                sync_speedup(rows, r.topology, r.n, r.executor, r.shards).unwrap_or(1.0)
            ),
            r.allocs,
            r.thread_spawns,
            r.stage_clones
        ));
    }
    t
}

/// The step-throughput ratio of a row over its family's `node-serial`
/// baseline row — the best serial engine, so every ratio in the
/// document answers "how much faster than just running the node-dirty
/// engine is this configuration, end to end".
pub fn sync_speedup(
    rows: &[SyncRoundRow],
    topology: &str,
    n: usize,
    executor: &str,
    shards: usize,
) -> Option<f64> {
    let base = rows
        .iter()
        .find(|r| r.topology == topology && r.n == n && r.executor == "node-serial")?;
    let row = rows.iter().find(|r| {
        r.topology == topology && r.n == n && r.executor == executor && r.shards == shards
    })?;
    Some(row.steps_per_sec() / base.steps_per_sec().max(f64::MIN_POSITIVE))
}

/// The parallel sync-round gate on the degree-regular torus: ≥ this
/// speedup for the pooled 8-shard row over the node-serial baseline —
/// enforced only on machines with at least 8 hardware threads (the
/// ratio is meaningless on fewer; the baseline-relative gate still
/// applies there).
pub const SYNC_SPEEDUP_GATE: f64 = 3.0;

/// The ratcheted hub gate: on `hubs:3` the pooled 8-shard row must beat
/// the node-serial baseline ≥ 6× — the persistent pool removes the
/// spawn tax and the sharded port cache removes the `O(Δ)` hub
/// re-evaluations, so the composition must clear twice the old 3× bar.
pub const HUBS_SYNC_GATE: f64 = 6.0;

/// The synchronous-round CI gates:
///
/// * the sharded-serial (`executor == "serial"`) torus row must perform
///   **zero** heap operations per timed window (delta staging's
///   zero-clone acceptance criterion, measured under the binary's
///   counting allocator);
/// * every pooled row must spawn **zero** OS threads inside its timed
///   windows — exact and machine-independent: the pool's workers are
///   started before the window, so any spawn is the per-phase spawn tax
///   the pool exists to remove;
/// * with ≥ 8 hardware threads available, the pooled 8-shard rows must
///   beat the node-serial baseline ≥ [`SYNC_SPEEDUP_GATE`]× on the
///   torus and ≥ [`HUBS_SYNC_GATE`]× on `hubs:3` (skipped — not
///   failed — on smaller machines, where the baseline-relative check
///   in [`check_sync_baseline`] still holds the ratio).
pub fn sync_gate_violations(rows: &[SyncRoundRow], parallelism: usize) -> Vec<String> {
    let mut out = Vec::new();
    let Some(serial) = rows
        .iter()
        .filter(|r| r.topology == "torus" && r.executor == "serial")
        .max_by_key(|r| r.n)
    else {
        out.push("sync gate requires a sharded-serial torus row".into());
        return out;
    };
    if serial.counting && serial.allocs > 0 {
        out.push(format!(
            "sync-round torus n={} executor=serial: {} heap operations over {} steps \
             (delta-staged synchronous rounds must perform zero state clones)",
            serial.n, serial.allocs, serial.steps
        ));
    }
    for r in rows.iter().filter(|r| r.executor == "pooled") {
        if r.thread_spawns > 0 {
            out.push(format!(
                "sync-round {} n={} shards={} executor=pooled: {} OS threads spawned \
                 inside the timed windows (a warmed worker pool must spawn zero — \
                 this is the per-phase spawn tax the pool exists to remove)",
                r.topology, r.n, r.shards, r.thread_spawns
            ));
        }
    }
    for (topology, gate) in [("torus", SYNC_SPEEDUP_GATE), ("hubs:3", HUBS_SYNC_GATE)] {
        match sync_speedup(rows, topology, serial.n, "pooled", 8) {
            Some(speedup) if parallelism >= 8 && speedup < gate => {
                out.push(format!(
                    "sync-round {topology} n={}: {speedup:.2}x for the pooled 8-shard \
                     row over node-serial, below the {gate}x gate (machine has \
                     {parallelism} hardware threads)",
                    serial.n
                ));
            }
            Some(_) => {}
            None => out.push(format!(
                "sync gate requires a pooled 8-shard {topology} n={} row",
                serial.n
            )),
        }
    }
    out
}

/// The scaling-curve gates of the `scaling-curve` CI job (enforced only
/// with ≥ 8 hardware threads, like the absolute speedup gates):
///
/// * **monotonicity** — per topology, the pooled speedup must not
///   *drop* as shards double (serial → 2 → 4 → 8), with a 5% noise
///   allowance; a falling curve means added threads are making rounds
///   slower, the classic symptom of a barrier or false-sharing
///   regression that absolute gates on a single point would miss;
/// * **baseline regression** — with a committed `BENCH_engine.json`,
///   every pooled row's speedup must stay within 15% of the committed
///   one (tighter than the 30% single-point gate: the curve job runs on
///   the dedicated runner class, so its ratios are less noisy).
pub fn scaling_violations(
    rows: &[SyncRoundRow],
    parallelism: usize,
    baseline_json: Option<&str>,
) -> Vec<String> {
    let mut out = Vec::new();
    if parallelism < 8 {
        return out;
    }
    for (_, name) in SYNC_TOPOLOGIES {
        let Some(base) = rows
            .iter()
            .find(|r| r.topology == name && r.executor == "node-serial")
        else {
            continue;
        };
        let n = base.n;
        let mut curve: Vec<(usize, f64)> = Vec::new();
        if let Some(s) = sync_speedup(rows, name, n, "serial", 1) {
            curve.push((1, s));
        }
        for shards in [2, 4, 8] {
            if let Some(s) = sync_speedup(rows, name, n, "pooled", shards) {
                curve.push((shards, s));
            }
        }
        for w in curve.windows(2) {
            let ((s0, v0), (s1, v1)) = (w[0], w[1]);
            if s1 <= parallelism && v1 < 0.95 * v0 {
                out.push(format!(
                    "scaling curve on {name} n={n}: speedup fell from {v0:.2}x at \
                     {s0} shard(s) to {v1:.2}x at {s1} shards — adding threads must \
                     not make synchronous rounds slower (5% noise allowance)"
                ));
            }
        }
        if let Some(doc) = baseline_json {
            for &(shards, measured) in curve.iter().filter(|(s, _)| *s > 1) {
                let anchor = format!(
                    "\"topology\":\"{name}\",\"n\":{n},\"shards\":{shards},\"executor\":\"pooled\","
                );
                let Some(committed) = anchored_field(doc, &anchor, "speedup") else {
                    continue;
                };
                if committed > 0.0 && measured < 0.85 * committed {
                    out.push(format!(
                        "scaling curve on {name} n={n} shards={shards}: pooled speedup \
                         regressed more than 15% vs the committed baseline: \
                         {measured:.2}x < 0.85 x {committed:.2}x"
                    ));
                }
            }
        }
    }
    out
}

/// Names every multi-core gate that is **dormant** (skipped, not
/// passed) at the given hardware parallelism, so the binary can print
/// an explicit `dormant (N hardware threads)` marker per gate instead
/// of silently folding "skipped" into "no violation". Empty on machines
/// where every gate is live.
pub fn dormant_gates(parallelism: usize) -> Vec<String> {
    if parallelism >= 8 {
        return Vec::new();
    }
    vec![
        format!("sync-round absolute speedup gate ({SYNC_SPEEDUP_GATE}x torus, pooled 8-shard)"),
        format!("sync-round absolute speedup gate ({HUBS_SYNC_GATE}x hubs:3, pooled 8-shard)"),
        "scaling-curve monotonicity gate (serial -> 2 -> 4 -> 8 shards)".to_string(),
        "scaling-curve committed-baseline regression gate (15% band)".to_string(),
    ]
}

/// Renders the `sno-scaling-curve/v1` artifact the `scaling-curve` CI
/// job uploads: one record per sync-round row, with the node-serial
/// relative speedup and the timed-window thread-spawn count.
pub fn scaling_curve_json(rows: &[SyncRoundRow], parallelism: usize) -> String {
    let mut out =
        format!("{{\"schema\":\"sno-scaling-curve/v1\",\"parallelism\":{parallelism},\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"topology\":\"{}\",\"n\":{},\"shards\":{},\"executor\":\"{}\",\
             \"threads\":{},\"steps_per_sec\":{:.0},\"speedup\":{:.2},\
             \"thread_spawns\":{}}}",
            r.topology,
            r.n,
            r.shards,
            r.executor,
            r.threads,
            r.steps_per_sec(),
            sync_speedup(rows, r.topology, r.n, r.executor, r.shards).unwrap_or(1.0),
            r.thread_spawns
        );
    }
    out.push_str("]}");
    out
}

/// Extracts `"key":<number>` from the JSON object slice that starts at
/// `anchor` — the shared field reader of the baseline gates (the
/// offline build has no JSON parser dependency; the emitters above
/// write fields in a fixed order, so a literal anchor pins the row).
fn anchored_field(json: &str, anchor: &str, key: &str) -> Option<f64> {
    let row = &json[json.find(anchor)?..];
    let row = &row[..row.find('}').unwrap_or(row.len())];
    let field = format!("\"{key}\":");
    let rest = &row[row.find(&field)? + field.len()..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The baseline-relative synchronous-round gate: the pooled 8-shard
/// torus speedup ratio (over node-serial) must stay within 30% of the
/// committed `BENCH_engine.json` — like the star gate, ratios (not
/// absolute steps/sec) are compared so the gate is portable across
/// differently-powered runners.
pub fn check_sync_baseline(rows: &[SyncRoundRow], baseline_json: &str) -> BaselineOutcome {
    let Some(serial) = rows
        .iter()
        .filter(|r| r.topology == "torus" && r.shards == 1)
        .max_by_key(|r| r.n)
    else {
        return BaselineOutcome::Regressed("sync baseline gate requires a torus row".into());
    };
    let Some(measured) = sync_speedup(rows, "torus", serial.n, "pooled", 8) else {
        return BaselineOutcome::Regressed(
            "sync baseline gate requires a pooled 8-shard torus row".into(),
        );
    };
    let anchor = format!(
        "\"topology\":\"torus\",\"n\":{},\"shards\":8,\"executor\":\"pooled\",",
        serial.n
    );
    let committed = anchored_field(baseline_json, &anchor, "speedup");
    match committed {
        Some(committed) if committed > 0.0 => {
            if measured < 0.7 * committed {
                BaselineOutcome::Regressed(format!(
                    "sync-round speedup on torus n={} regressed more than 30% vs the \
                     committed baseline: {measured:.2}x < 0.7 x {committed:.2}x",
                    serial.n
                ))
            } else {
                BaselineOutcome::Passed
            }
        }
        _ => BaselineOutcome::Incomparable(format!(
            "baseline document has no comparable sync-round torus n={} shards=8 \
             executor=pooled speedup field (pre-v6 baseline?)",
            serial.n
        )),
    }
}

/// The default size sweep.
pub const FULL_SIZES: [usize; 5] = [64, 128, 256, 512, 1024];
/// The CI smoke sweep: small enough to be quick, still covering the
/// gated `n = 512` cases.
pub const QUICK_SIZES: [usize; 2] = [64, 512];

/// Renders the rows as the bench crate's ASCII table format.
pub fn engine_bench_table(rows: &[EngineBenchRow]) -> Table {
    let mut t = Table::new(
        "Engine throughput: node-dirty and port-dirty engines vs full-sweep reference \
         (DFTNO/oracle steady state, central round robin; ge = whole-node guard evals, \
         pe = per-port evals — deterministic counters over the timed window)",
        &[
            "topology",
            "n",
            "steps",
            "full sweep steps/s",
            "node-dirty steps/s",
            "port-dirty steps/s",
            "node x",
            "port x",
            "full ge/step",
            "node ge/step",
            "port pe/step",
            "port inval/step",
        ],
    );
    for r in rows {
        t.row(cells!(
            r.topology,
            r.n,
            r.steps,
            format!("{:.0}", r.full_steps_per_sec()),
            format!("{:.0}", r.node_steps_per_sec()),
            format!("{:.0}", r.port_steps_per_sec()),
            format!("{:.1}x", r.node_speedup()),
            format!("{:.1}x", r.port_speedup()),
            format!("{:.1}", r.per_step(r.full_guard_evals)),
            format!("{:.1}", r.per_step(r.node_guard_evals)),
            format!("{:.2}", r.per_step(r.port_port_evals)),
            format!("{:.2}", r.per_step(r.port_invalidations))
        ));
    }
    t
}

/// Renders the `sno-engine-bench/v6` JSON document (v3 added the
/// optional `star_apply` clone-count section, v4 the `sync_rounds`
/// shard-scaling section, v5 the per-mode deterministic work counters
/// appended to each row, v6 the sync-round executor matrix — executor /
/// threads / thread-spawns columns, speedups re-anchored to the
/// node-serial baseline; the leading `rows` fields are unchanged from
/// v2, so the baseline ratio gates read all of them).
pub fn engine_bench_json_with(
    rows: &[EngineBenchRow],
    star_apply: Option<&StarApplyRow>,
    sync_rows: &[SyncRoundRow],
) -> String {
    let mut out = String::from("{\"schema\":\"sno-engine-bench/v6\",\"workload\":");
    out.push_str("\"dftno/oracle-token steady state, central-round-robin\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"topology\":\"{}\",\"n\":{},\"steps\":{},\"full_sweep_ns\":{},\
             \"node_dirty_ns\":{},\"port_dirty_ns\":{},\"full_steps_per_sec\":{:.0},\
             \"node_steps_per_sec\":{:.0},\"port_steps_per_sec\":{:.0},\
             \"node_speedup\":{:.2},\"port_speedup\":{:.2},\
             \"full_guard_evals\":{},\"node_guard_evals\":{},\"port_guard_evals\":{},\
             \"port_port_evals\":{},\"port_invalidations\":{}}}",
            r.topology,
            r.n,
            r.steps,
            r.full_sweep_ns,
            r.node_dirty_ns,
            r.port_dirty_ns,
            r.full_steps_per_sec(),
            r.node_steps_per_sec(),
            r.port_steps_per_sec(),
            r.node_speedup(),
            r.port_speedup(),
            r.full_guard_evals,
            r.node_guard_evals,
            r.port_guard_evals,
            r.port_port_evals,
            r.port_invalidations
        );
    }
    out.push(']');
    if let Some(sa) = star_apply {
        let _ = write!(
            out,
            ",\"star_apply\":{{\"n\":{},\"steps\":{},\"counting\":{},\
             \"full_sweep_ns\":{},\"node_dirty_ns\":{},\"port_dirty_ns\":{},\
             \"full_sweep_allocs\":{},\"node_dirty_allocs\":{},\"port_dirty_allocs\":{},\
             \"port_allocs_per_step\":{:.4}}}",
            sa.n,
            sa.steps,
            sa.counting,
            sa.mode_ns[0],
            sa.mode_ns[1],
            sa.mode_ns[2],
            sa.mode_allocs[0],
            sa.mode_allocs[1],
            sa.mode_allocs[2],
            sa.port_allocs_per_step()
        );
    }
    if !sync_rows.is_empty() {
        out.push_str(",\"sync_rounds\":[");
        for (i, r) in sync_rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"topology\":\"{}\",\"n\":{},\"shards\":{},\"executor\":\"{}\",\
                 \"threads\":{},\"steps\":{},\
                 \"rounds\":{},\"moves\":{},\"wall_ns\":{},\"steps_per_sec\":{:.0},\
                 \"rounds_per_sec\":{:.0},\"moves_per_sec\":{:.0},\"speedup\":{:.2},\
                 \"allocs\":{},\"thread_spawns\":{},\"stage_clones\":{},\"counting\":{}}}",
                r.topology,
                r.n,
                r.shards,
                r.executor,
                r.threads,
                r.steps,
                r.rounds,
                r.moves,
                r.wall_ns,
                r.steps_per_sec(),
                r.rounds_per_sec(),
                r.moves_per_sec(),
                sync_speedup(sync_rows, r.topology, r.n, r.executor, r.shards).unwrap_or(1.0),
                r.allocs,
                r.thread_spawns,
                r.stage_clones,
                r.counting
            );
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// [`engine_bench_json_with`] without the optional sections.
pub fn engine_bench_json(rows: &[EngineBenchRow]) -> String {
    engine_bench_json_with(rows, None, &[])
}

/// The smallest gated row of a family (`n >= 512`), if present.
fn gated_row<'r>(rows: &'r [EngineBenchRow], topology: &str) -> Option<&'r EngineBenchRow> {
    rows.iter()
        .filter(|r| r.topology == topology && r.n >= 512)
        .min_by_key(|r| r.n)
}

/// The ratcheted star gate: the PR-3 engine held ≥ 10× on the `n = 512`
/// star; with the in-place `StateTxn` commit path (no `O(Δ)` apply
/// clone, no `O(Δ)` selection-time guard re-sweep) the same cell
/// measures ≈ 150–250×, so the gate ratchets to 40× — comfortably above
/// the old architecture's ceiling, comfortably below the new one's
/// noise floor.
pub const STAR_PORT_GATE: f64 = 40.0;

/// The CI gates. The PR-2 gates keep holding the node-dirty engine to
/// its bar (never lose on the star, ≥ 5× on the largest path); the
/// port-dirty engine must win ≥ [`STAR_PORT_GATE`]× on the `n = 512`
/// star — the hub worst case the port-separable interface exists for.
/// Returns a list of violations, empty when the gates hold.
pub fn gate_violations(rows: &[EngineBenchRow]) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(star) = gated_row(rows, "star") {
        if star.node_speedup() < 1.0 {
            out.push(format!(
                "node-dirty engine slower than full sweep on star n={}: {:.2}x",
                star.n,
                star.node_speedup()
            ));
        }
        if star.port_speedup() < STAR_PORT_GATE {
            out.push(format!(
                "port-dirty engine below {STAR_PORT_GATE}x on star n={}: {:.2}x",
                star.n,
                star.port_speedup()
            ));
        }
    } else {
        out.push("gate requires a star row with n >= 512".into());
    }
    if let Some(path) = rows
        .iter()
        .filter(|r| r.topology == "path" && r.n >= 512)
        .max_by_key(|r| r.n)
    {
        if path.node_speedup() < 5.0 {
            out.push(format!(
                "node-dirty engine below 5x on path n={}: {:.2}x",
                path.n,
                path.node_speedup()
            ));
        }
    } else {
        out.push("gate requires a path row with n >= 512".into());
    }
    out
}

/// Extracts `"key":<number>` from the JSON object slice that contains
/// `"topology":"<topology>","n":<n>,` — a minimal field reader for the
/// committed `BENCH_engine.json` (the offline build has no JSON parser
/// dependency, and the emitter above writes the fields in a fixed
/// order).
fn baseline_field(json: &str, topology: &str, n: usize, key: &str) -> Option<f64> {
    anchored_field(
        json,
        &format!("\"topology\":\"{topology}\",\"n\":{n},"),
        key,
    )
}

/// Outcome of the committed-baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineOutcome {
    /// Within tolerance of the committed document.
    Passed,
    /// The baseline cannot be compared (pre-v2 schema, missing row);
    /// reported as a note, not a failure.
    Incomparable(String),
    /// A genuine regression against the committed document.
    Regressed(String),
}

/// The regression gate against a committed `BENCH_engine.json`: the
/// port-dirty **speedup ratio** on the gated `n = 512` star must not
/// fall below 70% of the committed ratio.
///
/// The ratio — not absolute steps/sec — is compared deliberately: both
/// its numerator and denominator are measured on the *same* machine in
/// the same run, so the gate is portable across developer hardware and
/// shared CI runners, while still catching the failure it exists for (a
/// change that erodes the port-dirty engine's advantage over the sweep
/// relative to what was committed).
pub fn check_baseline(rows: &[EngineBenchRow], baseline_json: &str) -> BaselineOutcome {
    let Some(star) = gated_row(rows, "star") else {
        return BaselineOutcome::Regressed(
            "baseline gate requires a star row with n >= 512".into(),
        );
    };
    match baseline_field(baseline_json, "star", star.n, "port_speedup") {
        Some(committed) if committed > 0.0 => {
            let measured = star.port_speedup();
            if measured < 0.7 * committed {
                BaselineOutcome::Regressed(format!(
                    "port-dirty speedup on star n={} regressed more than 30% vs the \
                     committed baseline: {measured:.2}x < 0.7 x {committed:.2}x",
                    star.n
                ))
            } else {
                BaselineOutcome::Passed
            }
        }
        _ => BaselineOutcome::Incomparable(format!(
            "baseline document has no comparable star n={} port_speedup field \
             (pre-v2 baseline?)",
            star.n
        )),
    }
}

/// The **exact** counter ratchet against a committed `BENCH_engine.json`:
/// on the gated `n = 512` star, no per-step work counter may exceed the
/// committed value. Period — no 30% slop.
///
/// The wall-clock gates above need tolerance because time is noisy; the
/// telemetry counters are deterministic functions of the workload, so an
/// increase is by construction an algorithmic change, not runner jitter.
/// Per-*step* values are compared (not totals) so the gate survives a
/// change of the step budget; improvements (decreases) re-arm the
/// ratchet the next time the baseline document is regenerated.
pub fn check_counter_baseline(rows: &[EngineBenchRow], baseline_json: &str) -> BaselineOutcome {
    let Some(star) = gated_row(rows, "star") else {
        return BaselineOutcome::Regressed(
            "counter ratchet requires a star row with n >= 512".into(),
        );
    };
    let Some(committed_steps) =
        baseline_field(baseline_json, "star", star.n, "steps").filter(|s| *s > 0.0)
    else {
        return BaselineOutcome::Incomparable(format!(
            "baseline document has no star n={} row; counter ratchet skipped",
            star.n
        ));
    };
    let fields: [(&str, u64); 5] = [
        ("full_guard_evals", star.full_guard_evals),
        ("node_guard_evals", star.node_guard_evals),
        ("port_guard_evals", star.port_guard_evals),
        ("port_port_evals", star.port_port_evals),
        ("port_invalidations", star.port_invalidations),
    ];
    let mut compared = 0;
    for (key, measured) in fields {
        let Some(committed) = baseline_field(baseline_json, "star", star.n, key) else {
            continue;
        };
        compared += 1;
        let measured_per_step = star.per_step(measured);
        let committed_per_step = committed / committed_steps;
        if measured_per_step > committed_per_step {
            return BaselineOutcome::Regressed(format!(
                "star n={} {key} per step regressed vs the committed baseline: \
                 {measured_per_step:.4} > {committed_per_step:.4} — counters are \
                 deterministic, so this is a real work increase, not noise",
                star.n
            ));
        }
    }
    if compared == 0 {
        return BaselineOutcome::Incomparable(format!(
            "baseline star n={} row has no counter fields (pre-v5 baseline?); \
             counter ratchet skipped",
            star.n
        ));
    }
    BaselineOutcome::Passed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dormant_gates_name_every_skipped_multi_core_gate() {
        let dormant = dormant_gates(4);
        assert_eq!(dormant.len(), 4);
        assert!(dormant.iter().any(|g| g.contains("torus")));
        assert!(dormant.iter().any(|g| g.contains("hubs:3")));
        assert!(dormant.iter().any(|g| g.contains("monotonicity")));
        assert!(dormant.iter().any(|g| g.contains("baseline")));
        assert!(dormant_gates(8).is_empty());
        assert!(dormant_gates(64).is_empty());
    }

    #[test]
    fn bench_cells_are_trace_identical_and_render() {
        // Tiny sizes: the point here is the cross-mode assertions inside
        // `bench_cell` and the emitters, not the timings.
        let rows = engine_bench(&[16], 500);
        assert_eq!(rows.len(), TOPOLOGIES.len());
        for r in &rows {
            // The metered replay must have seen real steady-state work:
            // the sweep re-evaluates every guard every step, the port
            // engine's step loop evaluates ports (whole-node evals stay
            // at the one-time setup we excluded — i.e. zero here).
            assert!(
                r.full_guard_evals >= r.steps * r.n as u64,
                "{}: sweep must pay O(n) guard evals per step",
                r.topology
            );
            assert!(
                r.port_port_evals > 0,
                "{}: port engine evaluates ports",
                r.topology
            );
            assert_eq!(
                r.port_guard_evals, 0,
                "{}: the port engine's steady-state step loop performs no \
                 whole-node evaluations",
                r.topology
            );
            assert!(
                r.full_guard_evals > r.node_guard_evals,
                "{}: node-dirty must re-evaluate fewer guards than the sweep",
                r.topology
            );
        }
        let json = engine_bench_json(&rows);
        assert!(json.contains("\"schema\":\"sno-engine-bench/v6\""));
        assert!(json.contains("\"topology\":\"torus\""));
        assert!(json.contains("\"port_dirty_ns\""));
        assert!(json.contains("\"full_guard_evals\""));
        assert!(json.contains("\"port_invalidations\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = engine_bench_table(&rows);
        assert_eq!(table.rows.len(), rows.len());
    }

    #[test]
    fn sync_round_bench_measures_deterministically_and_renders() {
        // Tiny size: the value here is the cross-configuration trace
        // assertions inside `sync_round_bench` plus the emitters and
        // gates, not the timings.
        let rows = sync_round_bench(48, 2, 12);
        assert_eq!(rows.len(), SYNC_TOPOLOGIES.len() * SYNC_CONFIGS.len());
        for r in &rows {
            assert_eq!(r.steps, 24);
            assert!(r.rounds > 0, "{r:?}");
            if r.executor == "pooled" {
                // The warmed pool's invariant holds on any machine.
                assert_eq!(r.thread_spawns, 0, "{r:?}");
            }
        }
        let json = engine_bench_json_with(&[], None, &rows);
        assert!(json.contains("\"sync_rounds\":["));
        assert!(json.contains("\"topology\":\"hubs:3\""));
        assert!(json.contains("\"executor\":\"node-serial\""));
        assert!(json.contains("\"executor\":\"pooled\""));
        assert!(json.contains("\"thread_spawns\""));
        assert!(json.contains("\"stage_clones\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = sync_round_table(&rows);
        assert_eq!(table.rows.len(), rows.len());
        // No counting allocator in the test binary: the alloc gate is
        // vacuous, the speedup/curve gates are skipped below 8 threads,
        // and the spawn gate just held above.
        assert!(sync_gate_violations(&rows, 1).is_empty());
        assert!(scaling_violations(&rows, 1, None).is_empty());
        let curve = scaling_curve_json(&rows, 1);
        assert!(curve.contains("\"schema\":\"sno-scaling-curve/v1\""));
        assert!(curve.contains("\"executor\":\"pooled\""));
        assert_eq!(curve.matches('{').count(), curve.matches('}').count());
    }

    fn sync_row(
        topology: &'static str,
        executor: &'static str,
        shards: usize,
        wall_ns: u128,
        allocs: u64,
        thread_spawns: u64,
    ) -> SyncRoundRow {
        SyncRoundRow {
            topology,
            n: 4096,
            shards,
            executor,
            threads: shards,
            thread_spawns,
            steps: 100,
            rounds: 90,
            moves: 5_000,
            wall_ns,
            allocs,
            stage_clones: 0,
            counting: true,
        }
    }

    #[test]
    fn sync_gates_fire_on_allocs_spawns_and_slow_speedups() {
        // Node-serial at 120k ns; torus pooled-8 at 24k ns = 5x (≥ 3x
        // gate); hubs pooled-8 at 15k ns = 8x (≥ 6x gate).
        let good = vec![
            sync_row("torus", "node-serial", 1, 120_000, 300, 0),
            sync_row("torus", "serial", 1, 100_000, 0, 0),
            sync_row("torus", "pooled", 8, 24_000, 500, 0),
            sync_row("hubs:3", "node-serial", 1, 120_000, 300, 0),
            sync_row("hubs:3", "pooled", 8, 15_000, 500, 0),
        ];
        assert!(sync_gate_violations(&good, 8).is_empty());
        // Parallel-path allocations are expected; sharded-serial ones
        // are not.
        let mut leaky = good.clone();
        leaky[1].allocs = 7;
        let v = sync_gate_violations(&leaky, 8);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("zero state clones"), "{v:?}");
        // A pooled row that spawned threads inside its timed windows:
        // the spawn tax is back, and the gate is machine-independent.
        let mut spawning = good.clone();
        spawning[2].thread_spawns = 48;
        let v = sync_gate_violations(&spawning, 1);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("spawn zero"), "{v:?}");
        // Torus 2x (< 3x) and hubs 4x (< 6x): both fire on a big
        // machine…
        let mut slow = good.clone();
        slow[2].wall_ns = 60_000;
        slow[4].wall_ns = 30_000;
        assert_eq!(sync_gate_violations(&slow, 8).len(), 2);
        // …but are skipped on a small one.
        assert!(sync_gate_violations(&slow, 2).is_empty());
    }

    #[test]
    fn sync_baseline_gate_compares_speedup_ratios() {
        // measured pooled-8 speedup over node-serial = 2x.
        let rows = vec![
            sync_row("torus", "node-serial", 1, 80_000, 0, 0),
            sync_row("torus", "serial", 1, 70_000, 0, 0),
            sync_row("torus", "pooled", 8, 40_000, 0, 0),
        ];
        let fast = r#"{"sync_rounds":[{"topology":"torus","n":4096,"shards":8,"executor":"pooled","speedup":4.00}]}"#;
        assert!(matches!(
            check_sync_baseline(&rows, fast),
            BaselineOutcome::Regressed(_)
        ));
        let close = r#"{"sync_rounds":[{"topology":"torus","n":4096,"shards":8,"executor":"pooled","speedup":2.50}]}"#;
        assert_eq!(check_sync_baseline(&rows, close), BaselineOutcome::Passed);
        // Pre-v6 documents keyed rows by shards alone: incomparable, not
        // a failure.
        let v5 = r#"{"sync_rounds":[{"topology":"torus","n":4096,"shards":8,"speedup":2.50}]}"#;
        assert!(matches!(
            check_sync_baseline(&rows, v5),
            BaselineOutcome::Incomparable(_)
        ));
        let v3 = r#"{"schema":"sno-engine-bench/v3","rows":[]}"#;
        assert!(matches!(
            check_sync_baseline(&rows, v3),
            BaselineOutcome::Incomparable(_)
        ));
    }

    #[test]
    fn scaling_curve_gates_fire_on_dips_and_baseline_regressions() {
        // A healthy curve: 1.2x (serial) → 2x → 3.5x → 6x.
        let curve = |w2: u128, w4: u128, w8: u128| {
            vec![
                sync_row("torus", "node-serial", 1, 120_000, 0, 0),
                sync_row("torus", "serial", 1, 100_000, 0, 0),
                sync_row("torus", "pooled", 2, w2, 0, 0),
                sync_row("torus", "pooled", 4, w4, 0, 0),
                sync_row("torus", "pooled", 8, w8, 0, 0),
            ]
        };
        let good = curve(60_000, 34_000, 20_000);
        assert!(scaling_violations(&good, 8, None).is_empty());
        // 4-shard slower than 2-shard beyond the 5% allowance: fires…
        let dipped = curve(40_000, 60_000, 20_000);
        let v = scaling_violations(&dipped, 8, None);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("fell from"), "{v:?}");
        // …except on a machine too small to expect scaling at all.
        assert!(scaling_violations(&dipped, 4, None).is_empty());
        // Committed baseline says 8 shards reached 8x; measuring 6x is
        // a 25% regression, beyond the 15% curve tolerance.
        let committed = r#"{"sync_rounds":[
            {"topology":"torus","n":4096,"shards":2,"executor":"pooled","speedup":2.00},
            {"topology":"torus","n":4096,"shards":4,"executor":"pooled","speedup":3.50},
            {"topology":"torus","n":4096,"shards":8,"executor":"pooled","speedup":8.00}]}"#;
        let v = scaling_violations(&good, 8, Some(committed));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("regressed more than 15%"), "{v:?}");
    }

    #[test]
    fn star_apply_row_measures_and_renders() {
        let row = star_apply_row(32, 400);
        assert_eq!(row.steps, 400);
        // The test binary installs no counting allocator: counts are
        // vacuous and must be flagged as such (and never gated on).
        if !row.counting {
            assert!(star_apply_violations(&row).is_empty());
        }
        let json = engine_bench_json_with(&[], Some(&row), &[]);
        assert!(json.contains("\"star_apply\":{"));
        assert!(json.contains("\"port_allocs_per_step\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn star_apply_gate_fires_on_nonzero_clone_counts() {
        let row = StarApplyRow {
            n: 512,
            steps: 100,
            mode_ns: [3, 2, 1],
            mode_allocs: [500, 100, 7],
            counting: true,
        };
        let v = star_apply_violations(&row);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("zero state clones"), "{v:?}");
        let clean = StarApplyRow {
            mode_allocs: [500, 100, 0],
            ..row
        };
        assert!(star_apply_violations(&clean).is_empty());
    }

    fn row(topology: &'static str, n: usize, full: u128, node: u128, port: u128) -> EngineBenchRow {
        EngineBenchRow {
            topology,
            n,
            steps: 100,
            full_sweep_ns: full,
            node_dirty_ns: node,
            port_dirty_ns: port,
            full_guard_evals: 102_500,
            node_guard_evals: 51_300,
            port_guard_evals: 0,
            port_port_evals: 400,
            port_invalidations: 200,
        }
    }

    #[test]
    fn gates_detect_missing_rows_and_regressions() {
        assert!(!gate_violations(&[]).is_empty());
        let good = vec![
            row("star", 512, 50_000, 10_000, 1_000),
            row("path", 512, 100_000, 10_000, 1_000),
        ];
        assert!(gate_violations(&good).is_empty());
        let mut slow = good.clone();
        slow[0].node_dirty_ns = 60_000; // star: node-dirty lost to the sweep
        slow[0].port_dirty_ns = 3_000; // star: port-dirty below the 40x ratchet
        slow[1].node_dirty_ns = 90_000; // path: below 5x
        let v = gate_violations(&slow);
        assert_eq!(v.len(), 3, "{v:?}");
    }

    #[test]
    fn baseline_gate_compares_speedup_ratios() {
        // measured port speedup = 20_000 / 1_000 = 20x.
        let rows = vec![row("star", 512, 20_000, 10_000, 1_000)];
        // 20 < 0.7 × 40: regression.
        let committed_fast = r#"{"schema":"sno-engine-bench/v2","rows":[
            {"topology":"star","n":512,"steps":100,"port_speedup":40.00}]}"#;
        assert!(matches!(
            check_baseline(&rows, committed_fast),
            BaselineOutcome::Regressed(_)
        ));
        // 20 ≥ 0.7 × 25: within tolerance.
        let committed_close = r#"{"topology":"star","n":512,"port_speedup":25.00,"#;
        assert_eq!(
            check_baseline(&rows, committed_close),
            BaselineOutcome::Passed
        );
    }

    #[test]
    fn counter_ratchet_is_exact_and_per_step() {
        let rows = vec![row("star", 512, 20_000, 10_000, 1_000)];
        // Identical per-step counters (same steps): passes.
        let same = r#"{"schema":"sno-engine-bench/v5","rows":[
            {"topology":"star","n":512,"steps":100,"port_speedup":40.00,
             "full_guard_evals":102500,"node_guard_evals":51300,
             "port_guard_evals":0,"port_port_evals":400,"port_invalidations":200}]}"#;
        assert_eq!(check_counter_baseline(&rows, same), BaselineOutcome::Passed);
        // A different step budget with the same per-step cost: still passes.
        let rescaled = r#"{"rows":[
            {"topology":"star","n":512,"steps":200,"port_speedup":40.00,
             "full_guard_evals":205000,"node_guard_evals":102600,
             "port_guard_evals":0,"port_port_evals":800,"port_invalidations":400}]}"#;
        assert_eq!(
            check_counter_baseline(&rows, rescaled),
            BaselineOutcome::Passed
        );
        // One extra port eval per step in the measurement: no slop, fails.
        let tighter = r#"{"rows":[
            {"topology":"star","n":512,"steps":100,
             "full_guard_evals":102500,"node_guard_evals":51300,
             "port_guard_evals":0,"port_port_evals":399,"port_invalidations":200}]}"#;
        assert!(matches!(
            check_counter_baseline(&rows, tighter),
            BaselineOutcome::Regressed(_)
        ));
        // Improvements pass (the ratchet re-arms on regeneration).
        let looser = r#"{"rows":[
            {"topology":"star","n":512,"steps":100,
             "full_guard_evals":110000,"node_guard_evals":60000,
             "port_guard_evals":50,"port_port_evals":500,"port_invalidations":300}]}"#;
        assert_eq!(
            check_counter_baseline(&rows, looser),
            BaselineOutcome::Passed
        );
        // Pre-v5 baselines (row exists, no counter fields): a note, not a failure.
        let v4 = r#"{"schema":"sno-engine-bench/v4","rows":[
            {"topology":"star","n":512,"steps":100,"port_speedup":40.00}]}"#;
        assert!(matches!(
            check_counter_baseline(&rows, v4),
            BaselineOutcome::Incomparable(_)
        ));
        // No star row at all: also incomparable.
        let empty = r#"{"schema":"sno-engine-bench/v5","rows":[]}"#;
        assert!(matches!(
            check_counter_baseline(&rows, empty),
            BaselineOutcome::Incomparable(_)
        ));
    }

    #[test]
    fn v1_baselines_are_incomparable_not_failures() {
        let rows = vec![row("star", 512, 20_000, 10_000, 1_000)];
        let v1 = r#"{"schema":"sno-engine-bench/v1","rows":[
            {"topology":"star","n":512,"speedup":2.52}]}"#;
        assert!(matches!(
            check_baseline(&rows, v1),
            BaselineOutcome::Incomparable(_)
        ));
    }
}
