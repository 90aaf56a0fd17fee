//! The simulation loop: computations, moves, steps, and rounds.
//!
//! # The incremental enabled-set engine
//!
//! In the guarded-command model a guard is a function of the processor's
//! static context, its own variables, and its neighbors' variables — the
//! [`NodeView`](crate::protocol::NodeView) type makes any other dependence
//! impossible. Locality has a powerful consequence: **a processor's enabled
//! status can only change when it or one of its neighbors executes.**
//!
//! [`Simulation`] exploits this by maintaining the enabled set
//! *incrementally*: a per-node cache of enabled-action counts plus a
//! NodeId-sorted enabled list. After a step it re-evaluates guards only for
//! the executed processors and their neighbors (the *dirty* nodes, seeded
//! from the graph's CSR adjacency), instead of sweeping all `n` guards
//! twice per step as a naive engine does. On sparse-enabled workloads —
//! the regime of the paper's move-complexity analysis, where a single
//! token walks an otherwise-silent network — this turns an `O(n)` step
//! into an `O(Δ_dirty)` step.
//!
//! # The port-dirty engine
//!
//! Node-granular invalidation still has a worst case: a **hub**. When a
//! degree-`Δ` processor executes, all `Δ` neighbors are dirtied and the
//! hub's own guard re-evaluation is `O(Δ)`, so a star network pays `O(n)`
//! per step either way. For protocols that opt into the
//! [port-separable interface](crate::protocol::Protocol::port_separable),
//! [`EngineMode::PortDirty`] refines the unit of dirtiness from *nodes* to
//! *ports*:
//!
//! * **write side** — an executed processor *declares, while writing*,
//!   which of its ports carry a guard-relevant change (the
//!   [`StateTxn`](crate::protocol::StateTxn) touch calls recorded during
//!   [`apply_in_place`](crate::protocol::Protocol::apply_in_place)); a
//!   token hand-off dirties one port instead of `Δ`;
//!
//! Writes themselves are **in place**: a single-writer step (any central
//! daemon) splits the configuration around the writer and hands the
//! protocol a zero-copy [`WriteTxn`], so a hub step performs no state
//! clone and no heap traffic at all. Multi-writer steps (distributed and
//! synchronous daemons) stage each writer's post-state in a pooled slot
//! first — composite atomicity demands every statement read pre-step
//! values — and swap the batch in together.
//! * **read side** — a dirtied neighbor re-evaluates **only the single
//!   back-port** pointing at the writer
//!   ([`reevaluate_port`](crate::protocol::Protocol::reevaluate_port)),
//!   against a small engine-owned per-port cache, instead of re-reading
//!   its whole neighborhood.
//!
//! A hub step then costs `O(dirty ports)` rather than `O(Σ deg(u))`.
//! Protocols that do not opt in (or report
//! [`PortVerdict::Whole`](crate::protocol::PortVerdict)) fall back to the
//! node-dirty behavior per node, so the mode is always safe to enable.
//!
//! # Delta-staged multi-writer commits
//!
//! Steps selecting `k > 1` writers (the distributed and synchronous
//! daemons) used to stage each writer's post-state via `clone_from` into
//! pooled slots — an `O(Δ)` whole-state copy per writer, paid exactly in
//! the dense synchronous rounds the paper's round-complexity analyses
//! live in. The configuration now lives in a generation-stamped
//! [`ConfigStore`]: writers mutate their slots **in place**, readers
//! resolve through the round's copy-on-write stash, and a pre-round copy
//! is made only when a later writer's declared [`ApplyProfile`] reads
//! actually conflict with an earlier writer's declared writes
//! (readers execute before non-readers, so declared-read-free statements
//! can never force a copy). Commit is the next round's bulk epoch bump.
//!
//! # The sharded synchronous executor
//!
//! Sharding is configuration, not a mode: once
//! [`Simulation::configure_sync_sharding`] sets more than one shard, the
//! incremental modes ([`EngineMode::NodeDirty`] and
//! [`EngineMode::PortDirty`]) run the expensive phases of a dense round
//! — guard **resolution** of the selected writers, the **write phase**
//! of read-free writers, and the dirty-node guard (or port)
//! **re-evaluation** — in parallel over contiguous, degree-balanced
//! graph shards ([`sno_graph::Partition`]), on a persistent `sno-fleet`
//! [`WorkerPool`]. Everything order-sensitive (daemon selection, the
//! reader write sub-phase, the enabled-list fold) stays serial and runs
//! in NodeId order, and per-shard results fold back in shard (= NodeId)
//! order, so traces are **byte-identical for any shard and thread
//! count** — the campaign determinism CI gates hold for every shard
//! count exactly as they do across the three modes. Sparse steps fall
//! back to the serial incremental path (identical semantics), so
//! sharding is safe for any daemon, not just the synchronous one.
//! [`EngineMode::FullSweep`], the reference, ignores the partition.
//!
//! The daemon-visible enabled set is kept in ascending NodeId order, the
//! same order a full sweep produces, so every daemon selection — and hence
//! every trace, counter, and campaign report — is bit-for-bit identical
//! across all three [`EngineMode`]s. The differential test suites
//! (`tests/engine_differential.rs`, `tests/port_separability.rs`) step the
//! modes in lockstep and assert identical traces.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use rand::RngCore;
use sno_fleet::WorkerPool;
use sno_graph::{GraphError, NodeId, Partition, Port, TopologyEvent, TopologyRepair};
use sno_telemetry::{
    Counter, ExchangeBreakdown, ExchangeStats, Meter, Metric, NoopMeter, TraceBuffer,
};

use crate::daemon::{Daemon, EnabledNode};
use crate::network::Network;
use crate::protocol::{
    ApplyProfile, ConfigView, PortCache, PortVerdict, Protocol, ReadScope, Scratch, TouchRecord,
    TouchScope, WriteTxn,
};
use crate::store::{ConfigStore, ShardTxn};

/// Which guard-invalidation strategy a [`Simulation`] runs.
///
/// All modes produce bit-for-bit identical executions; they differ only in
/// how much work a step costs. Sharding is orthogonal to the mode:
/// [`Simulation::configure_sync_sharding`] parallelizes the dense steps
/// of the incremental modes. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Re-evaluate every guard twice per step, like a naive engine — the
    /// differential-testing oracle and microbenchmark baseline.
    FullSweep,
    /// Incremental enabled set with node-granular dirtiness: re-evaluate
    /// executed processors and their whole neighborhoods.
    NodeDirty,
    /// Incremental enabled set with **port-granular** dirtiness for
    /// protocols implementing the port-separable interface; silently
    /// behaves like [`EngineMode::NodeDirty`] for protocols that don't.
    /// The default.
    #[default]
    PortDirty,
}

/// Writers (or dirty nodes) below this count take the serial path even
/// on a sharded simulation — a phase handoff to the pool's workers
/// costs more than a sparse step does. Tunable per simulation
/// via [`Simulation::set_sync_parallel_threshold`] (tests and benches pin
/// it to 0 to force the parallel phases on small graphs).
pub const DEFAULT_SYNC_THRESHOLD: usize = 192;

/// What happened in one computation step.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome<A> {
    /// No processor was enabled — the configuration is *terminal* (for
    /// silent protocols, the stabilized fixpoint).
    Silent,
    /// The listed processors executed the listed actions (evaluated against
    /// the pre-step configuration, written atomically together).
    ///
    /// This vector materializes only for the public single-step API; the
    /// bounded-run loops ([`Simulation::run_until`] and friends) use an
    /// internal allocation-free commit path.
    Executed(Vec<(NodeId, A)>),
}

impl<A> StepOutcome<A> {
    /// `true` iff no action was executed because none was enabled.
    pub fn is_silent(&self) -> bool {
        matches!(self, StepOutcome::Silent)
    }
}

/// Outcome of a bounded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Whether the stop condition was met within the step budget.
    pub converged: bool,
    /// Daemon selections performed during this run.
    pub steps: u64,
    /// Individual action executions during this run.
    pub moves: u64,
    /// Complete asynchronous rounds elapsed during this run.
    pub rounds: u64,
}

/// A running instance of a protocol on a network.
///
/// Owns the current configuration (one state per processor) and the
/// move/step/round accounting. The protocol and network are borrowed so
/// many simulations can share them.
///
/// # Example
///
/// ```
/// use sno_engine::{Network, Simulation};
/// use sno_engine::daemon::Synchronous;
/// use sno_engine::examples::HopDistance;
///
/// let net = Network::new(sno_graph::generators::star(6), sno_graph::NodeId::new(0));
/// let mut sim = Simulation::from_initial(&net, HopDistance);
/// let run = sim.run_until_silent(&mut Synchronous::new(), 100);
/// assert!(run.converged);
/// ```
#[derive(Debug, Clone)]
pub struct Simulation<'a, P: Protocol, M: Meter = NoopMeter> {
    /// The network, copy-on-write: constructed borrowed (many simulations
    /// share one immutable network), upgraded to an owned clone the first
    /// time a [`TopologyEvent`] mutates the topology mid-run.
    net: Cow<'a, Network>,
    protocol: P,
    /// The telemetry sink. The default [`NoopMeter`] monomorphizes every
    /// hook into nothing — the disabled path is the uninstrumented hot
    /// loop, bit for bit. Hooks are issued from serial sections only,
    /// with schedule-independent aggregates, so an enabled meter's
    /// counters are byte-identical across thread and shard counts.
    meter: M,
    /// Optional wall-clock span collection for the sharded synchronous
    /// executor's phases (diagnostic only — never feeds counters).
    tracer: Option<TraceBuffer>,
    /// The configuration: generation-stamped slots with copy-on-write
    /// delta staging for multi-writer rounds.
    store: ConfigStore<P::State>,
    steps: u64,
    moves: u64,
    rounds: u64,
    /// Processors enabled at the start of the current round that have not
    /// yet executed or been neutralized. Invariant: whenever
    /// `frontier_count == 0`, every bit is false.
    round_frontier: Vec<bool>,
    frontier_count: usize,
    /// The active guard-invalidation strategy.
    mode: EngineMode,
    /// `true` iff the port-dirty machinery is live: mode is
    /// [`EngineMode::PortDirty`] *and* the protocol opted in.
    port_cache_active: bool,
    // --- Incremental enabled-set cache (authoritative when the mode is
    // not FullSweep) ---
    /// `action_count[p]` = number of enabled actions at processor `p`.
    action_count: Vec<u32>,
    /// Processors with `action_count > 0`, in ascending NodeId order —
    /// exactly what a full sweep would produce.
    enabled_list: Vec<EnabledNode>,
    /// Dirty-node scratch queue of the current step (deduplicated).
    dirty: Vec<u32>,
    /// `dirty_mark[p] == epoch` iff `p` is already queued this step.
    dirty_mark: Vec<u64>,
    epoch: u64,
    /// The most recent [`TopologyEvent`] applied to this simulation, kept
    /// for diagnostics (campaign panic messages cite it to localize
    /// dynamic-topology failures).
    last_topology_event: Option<TopologyEvent>,
    // --- Port-separable guard cache (allocated iff `port_cache_active`).
    // One word per directed half-edge (CSR-aligned with the graph's flat
    // adjacency) plus `node_stride` words per node; the protocol defines
    // the contents (see `crate::protocol::PortCache`). ---
    port_words: Vec<u64>,
    node_words: Vec<u64>,
    node_stride: usize,
    /// Dirty-port queue: `node << 32 | port`, deduplicated per step.
    dirty_ports: Vec<u64>,
    /// `port_mark[csr_index] == epoch` iff that port is already queued.
    port_mark: Vec<u64>,
    /// `full_mark[p] == epoch` iff `p` was fully re-evaluated this step
    /// (its cache is current; pending port entries can be skipped).
    full_mark: Vec<u64>,
    /// Nodes whose action count was rewritten this step (port mode), for
    /// the deferred enabled-list / round-frontier fold.
    touched: Vec<u32>,
    touched_mark: Vec<u64>,
    /// One pooled [`TouchRecord`] per writer of the current step: the
    /// write-scope and self-note declarations each `apply_in_place`
    /// transaction made, consumed by the port-dirty pass.
    txn_recs: Vec<TouchRecord>,
    /// Per-writer [`ApplyProfile`]s of the current multi-writer step
    /// (aligned with `scratch_pending`).
    pending_profiles: Vec<ApplyProfile>,
    // --- Sharded executor of the incremental modes. Serial by default;
    // `configure_sync_sharding` arms the parallel phases. ---
    /// The degree-balanced contiguous partition (`None` until sharding
    /// is configured with more than one shard).
    sync_partition: Option<Partition>,
    /// Minimum writers (or dirty nodes) before a phase goes parallel;
    /// below it the serial path is cheaper than a phase handoff.
    sync_threshold: usize,
    /// Per-shard writer buckets of the current step's parallel
    /// resolution: `(node, daemon action index)`.
    shard_jobs: Vec<Vec<(u32, u32)>>,
    /// Per-shard resolution outputs, aligned with `shard_jobs`: the
    /// materialized action (taken during the ordered stitch) and its
    /// [`ApplyProfile`].
    shard_resolved: Vec<Vec<(Option<P::Action>, ApplyProfile)>>,
    /// `resolve_order[k]` = (shard, index) of pending writer `k` in
    /// `shard_resolved`, for the k-ordered serial sub-phases.
    resolve_order: Vec<(u32, u32)>,
    /// Per-shard guard-evaluation scratch (arena + action buffer) so
    /// workers never contend.
    shard_scratch: Vec<Scratch>,
    shard_actions: Vec<Vec<P::Action>>,
    /// Per-shard pools of transaction records for the parallel write
    /// phase — one record per read-free writer in bucket order, swapped
    /// back into `txn_recs` afterwards so the port-dirty pass consumes
    /// a single authoritative record array regardless of executor.
    shard_recs: Vec<Vec<TouchRecord>>,
    /// Per-shard buckets of read-free writers (indices into
    /// `scratch_pending`) for the parallel write phase.
    shard_writers: Vec<Vec<u32>>,
    /// Per-shard dirty-node buckets for the parallel re-evaluation.
    shard_dirty: Vec<Vec<u32>>,
    /// The persistent worker pool driving the parallel phases; its
    /// thread count is the phases' worker count (1 = the inline pool,
    /// which runs them on the caller and never spawns). Shared (`Arc`)
    /// so a lab campaign can run many cells on one pool.
    sync_pool: Arc<WorkerPool>,
    // --- Sharded port-dirty pass scratch (a sharded PortDirty
    // simulation of a port-separable protocol): the writer-side refresh
    // and the reader-side port re-evaluations run shard-parallel,
    // bridged by a serial boundary exchange that reconstructs the
    // canonical dirty-port queue. ---
    /// Per-writer-shard buckets of pending indices (all writers, not
    /// just read-free ones), in selection order.
    shard_port_jobs: Vec<Vec<u32>>,
    /// `shard_port_pos[k]` = (shard, index) of pending writer `k` in
    /// `shard_port_jobs`, for the canonical-order boundary exchange.
    shard_port_pos: Vec<(u32, u32)>,
    /// Per-writer-shard raw dirty-port candidates (`reader << 32 |
    /// back_port`), in per-writer segments.
    shard_port_out: Vec<Vec<u64>>,
    /// Per-writer-shard segment ends into `shard_port_out` (one entry
    /// per writer in the shard's bucket).
    shard_port_bounds: Vec<Vec<u32>>,
    /// Per-reader-shard buckets of the canonical dirty-port queue,
    /// preserving canonical order within each shard.
    shard_ports: Vec<Vec<u64>>,
    /// Per-reader-shard touched-node output of the parallel port pass.
    shard_touched: Vec<Vec<u32>>,
    /// Cumulative boundary-exchange statistics of the sharded port
    /// pass (diagnostic — partition-dependent, so deliberately *not* a
    /// [`Counter`]: meters stay schedule-independent).
    exchange_stats: ExchangeStats,
    /// Boundary hand-offs received per destination shard (same
    /// diagnostic caveat as `exchange_stats`).
    exchange_per_shard: Vec<u64>,
    // --- Reusable buffers: campaign fleets (sno-lab) run millions of
    // steps per simulation object, so the hot path must not allocate. ---
    scratch_enabled: Vec<EnabledNode>,
    scratch_actions: Vec<P::Action>,
    scratch_node_mask: Vec<bool>,
    scratch_chosen: Vec<bool>,
    scratch_choices: Vec<crate::daemon::Choice>,
    /// The step's resolved `(writer, action)` pairs.
    scratch_pending: Vec<(u32, P::Action)>,
    /// Arena for protocol-internal guard-evaluation temporaries
    /// ([`Protocol::enabled_into`]).
    scratch_arena: Scratch,
}

impl<'a, P: Protocol> Simulation<'a, P> {
    /// Starts a simulation from an explicit configuration (with the
    /// zero-overhead [`NoopMeter`]; see [`Simulation::with_meter`] for
    /// an instrumented simulation).
    ///
    /// # Panics
    ///
    /// Panics if `config.len()` differs from the network size.
    pub fn new(net: &'a Network, protocol: P, config: Vec<P::State>) -> Self {
        Self::with_meter(net, protocol, config, NoopMeter)
    }

    /// Starts from the protocol's canonical initial state at every node.
    pub fn from_initial(net: &'a Network, protocol: P) -> Self {
        let config = net
            .nodes()
            .map(|p| protocol.initial_state(net.ctx(p)))
            .collect();
        Self::new(net, protocol, config)
    }

    /// Starts from an adversarially arbitrary configuration — the
    /// self-stabilization entry point ("irrespective of the initial
    /// state").
    pub fn from_random(net: &'a Network, protocol: P, rng: &mut dyn RngCore) -> Self {
        let config = net
            .nodes()
            .map(|p| protocol.random_state(net.ctx(p), rng))
            .collect();
        Self::new(net, protocol, config)
    }
}

impl<'a, P: Protocol, M: Meter> Simulation<'a, P, M> {
    /// Starts a simulation from an explicit configuration with an
    /// explicit telemetry [`Meter`] (e.g.
    /// [`CounterMeter`](sno_telemetry::CounterMeter)).
    ///
    /// # Panics
    ///
    /// Panics if `config.len()` differs from the network size.
    pub fn with_meter(net: &'a Network, protocol: P, config: Vec<P::State>, meter: M) -> Self {
        assert_eq!(
            config.len(),
            net.node_count(),
            "configuration size mismatch"
        );
        let n = net.node_count();
        let port_cache_active = protocol.port_separable();
        let stride = if port_cache_active {
            let layout = protocol.port_layout();
            assert!(
                layout.port_bits <= 64,
                "layered port-cache layout needs {} bits, the port word holds 64",
                layout.port_bits
            );
            layout.node_words
        } else {
            0
        };
        let csr = if port_cache_active {
            net.graph().csr_len()
        } else {
            0
        };
        let mut sim = Simulation {
            net: Cow::Borrowed(net),
            protocol,
            meter,
            tracer: None,
            store: ConfigStore::new(config),
            steps: 0,
            moves: 0,
            rounds: 0,
            round_frontier: vec![false; n],
            frontier_count: 0,
            mode: EngineMode::PortDirty,
            port_cache_active,
            action_count: vec![0; n],
            enabled_list: Vec::new(),
            dirty: Vec::new(),
            dirty_mark: vec![0; n],
            epoch: 0,
            last_topology_event: None,
            port_words: vec![0; csr],
            node_words: vec![0; n * stride],
            node_stride: stride,
            dirty_ports: Vec::new(),
            port_mark: vec![0; csr],
            full_mark: vec![0; if port_cache_active { n } else { 0 }],
            touched: Vec::new(),
            touched_mark: vec![0; if port_cache_active { n } else { 0 }],
            txn_recs: Vec::new(),
            pending_profiles: Vec::new(),
            sync_partition: None,
            sync_threshold: DEFAULT_SYNC_THRESHOLD,
            shard_jobs: Vec::new(),
            shard_resolved: Vec::new(),
            resolve_order: Vec::new(),
            shard_scratch: Vec::new(),
            shard_actions: Vec::new(),
            shard_recs: Vec::new(),
            shard_writers: Vec::new(),
            shard_dirty: Vec::new(),
            sync_pool: Arc::new(WorkerPool::new(1)),
            shard_port_jobs: Vec::new(),
            shard_port_pos: Vec::new(),
            shard_port_out: Vec::new(),
            shard_port_bounds: Vec::new(),
            shard_ports: Vec::new(),
            shard_touched: Vec::new(),
            exchange_stats: ExchangeStats::default(),
            exchange_per_shard: Vec::new(),
            scratch_enabled: Vec::new(),
            scratch_actions: Vec::new(),
            scratch_node_mask: vec![false; n],
            scratch_chosen: Vec::new(),
            scratch_choices: Vec::new(),
            scratch_pending: Vec::new(),
            scratch_arena: Scratch::new(),
        };
        sim.rebuild_enabled_cache();
        sim.reset_round_frontier();
        sim
    }

    /// [`Simulation::from_initial`] with an explicit meter.
    pub fn from_initial_with_meter(net: &'a Network, protocol: P, meter: M) -> Self {
        let config = net
            .nodes()
            .map(|p| protocol.initial_state(net.ctx(p)))
            .collect();
        Self::with_meter(net, protocol, config, meter)
    }

    /// [`Simulation::from_random`] with an explicit meter.
    pub fn from_random_with_meter(
        net: &'a Network,
        protocol: P,
        rng: &mut dyn RngCore,
        meter: M,
    ) -> Self {
        let config = net
            .nodes()
            .map(|p| protocol.random_state(net.ctx(p), rng))
            .collect();
        Self::with_meter(net, protocol, config, meter)
    }

    /// The telemetry meter (its counters, when collecting).
    pub fn meter(&self) -> &M {
        &self.meter
    }

    /// Mutable access to the telemetry meter (e.g. to reset or merge).
    pub fn meter_mut(&mut self) -> &mut M {
        &mut self.meter
    }

    /// Attaches a wall-clock phase tracer. The sharded synchronous
    /// executor records per-shard spans for its parallel phases (guard
    /// resolution, read-free writes, dirty re-evaluation) plus the
    /// implicit-join barrier wait of each shard, on one lane per shard.
    /// Tracing never feeds counters — timings stay diagnostic.
    pub fn set_tracer(&mut self, tracer: TraceBuffer) {
        self.tracer = Some(tracer);
    }

    /// Detaches and returns the tracer (e.g. to export its spans).
    pub fn take_tracer(&mut self) -> Option<TraceBuffer> {
        self.tracer.take()
    }

    /// The network this simulation runs on. After a topology event this is
    /// the simulation's own mutated copy, not the network it was built
    /// from — legitimacy predicates must evaluate against it.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The most recently applied [`TopologyEvent`], if any.
    pub fn last_topology_event(&self) -> Option<&TopologyEvent> {
        self.last_topology_event.as_ref()
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current configuration (states indexed by node).
    pub fn config(&self) -> &[P::State] {
        self.store.slice()
    }

    /// The state of one processor.
    pub fn state(&self, p: NodeId) -> &P::State {
        &self.store.slice()[p.index()]
    }

    /// Overwrites the state of one processor (used by the fault injector;
    /// resets the round accounting since the adversary struck).
    pub fn set_state(&mut self, p: NodeId, s: P::State) {
        self.store.slots_mut()[p.index()] = s;
        // The write can flip guards at `p` and its neighbors only. In
        // reference mode the cache is unused (and rebuilt on mode exit),
        // so skip the refresh there. An adversarial write is *not* an
        // `apply` transition, so the port-separable `write_scope` contract
        // does not cover it: refresh the whole neighborhood and rebuild
        // its port caches conservatively.
        if self.mode != EngineMode::FullSweep {
            let deg = self.net.graph().degree(p);
            let neighborhood = 1 + deg as u64;
            self.meter.add(Counter::GuardEvals, neighborhood);
            let mut actions = std::mem::take(&mut self.scratch_actions);
            let mut list = std::mem::take(&mut self.enabled_list);
            self.refresh_node(p.index(), &mut actions, &mut list);
            for l in 0..deg {
                let q = self.net.graph().neighbor(p, Port::new(l));
                self.refresh_node(q.index(), &mut actions, &mut list);
            }
            self.scratch_actions = actions;
            self.enabled_list = list;
            if self.port_cache_active {
                self.meter.add(Counter::GuardEvals, neighborhood);
                self.reinit_port_cache_node(p.index());
                for l in 0..deg {
                    let q = self.net.graph().neighbor(p, Port::new(l));
                    self.reinit_port_cache_node(q.index());
                }
            }
        }
        self.reset_round_frontier();
    }

    /// Applies one [`TopologyEvent`] to the running simulation with
    /// **incremental repair** — no engine structure is rebuilt from
    /// scratch on this path:
    ///
    /// 1. the network is upgraded to an owned copy (first event only) and
    ///    mutated in place, splicing its CSR arrays
    ///    ([`Network::apply_event`]);
    /// 2. the engine-owned CSR-aligned arrays (`port_words`, `port_mark`)
    ///    are spliced by the same deltas, whenever they are allocated —
    ///    even while another mode runs, because [`Simulation::set_mode`]
    ///    re-allocates only on a length mismatch and a stale
    ///    right-length array would be silently reused;
    /// 3. a `NodeJoin` grows every per-node array, pushes one
    ///    configuration slot ([`ConfigStore::push_slot`]), and extends
    ///    the sharded executor's partition ([`Partition::absorb_node`]);
    /// 4. state semantics: a crashed processor's state is dropped (the
    ///    zombie keeps a fresh [`Protocol::initial_state`] so its guards
    ///    stay silent), an arrival boots from
    ///    [`Protocol::random_state`] when `rng` is given (the adversary
    ///    picks the join state, as self-stabilization demands) or
    ///    [`Protocol::initial_state`] otherwise, and every other
    ///    endpoint passes through [`Protocol::reattach_state`] (its
    ///    port numbering may have shifted);
    /// 5. the dirty footprint — the endpoints plus their **current**
    ///    neighborhoods, exactly the processors whose guards can have
    ///    flipped — is re-evaluated and its port caches rebuilt, in
    ///    every [`EngineMode`] (the reference mode sweeps on its own);
    /// 6. the round frontier is re-seeded: a topology event is an
    ///    adversarial action, so round accounting restarts like it does
    ///    for [`Simulation::set_state`].
    ///
    /// Emits [`Counter::TopoEvents`], [`Counter::CsrRepairs`] (CSR table
    /// edits), and [`Counter::CacheRepairs`] (footprint nodes) — all
    /// schedule-independent, so enabled meters stay byte-identical
    /// across shard and thread counts.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the graph mutation; the simulation
    /// is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if the event crashes the root or joins beyond the bound
    /// `N` (see [`Network::apply_event`]).
    pub fn apply_topology_event(
        &mut self,
        event: &TopologyEvent,
        rng: Option<&mut dyn RngCore>,
    ) -> Result<TopologyRepair, GraphError> {
        let repair = self.net.to_mut().apply_event(event)?;
        self.meter.add(Counter::TopoEvents, 1);
        self.meter.add(Counter::CsrRepairs, repair.edits() as u64);

        // 2. Splice the CSR-aligned cache arrays (stale contents are fine
        // — the footprint pass below rebuilds every affected node — but
        // the *layout* must track the graph).
        if self.port_cache_active || !self.port_words.is_empty() {
            for delta in &repair.deltas {
                delta.splice(&mut self.port_words, 0u64);
                delta.splice(&mut self.port_mark, 0u64);
            }
        }

        // 3. An arrival grows every per-node engine array by one slot.
        if let Some(x) = repair.joined {
            debug_assert_eq!(x.index() + 1, self.net.node_count());
            self.round_frontier.push(false);
            self.action_count.push(0);
            self.dirty_mark.push(0);
            self.scratch_node_mask.push(false);
            if !self.full_mark.is_empty() {
                self.full_mark.push(0);
                self.touched_mark.push(0);
            }
            self.node_words
                .extend(std::iter::repeat_n(0, self.node_stride));
            let state = {
                let ctx = self.net.ctx(x);
                match rng {
                    Some(r) => self.protocol.random_state(ctx, r),
                    None => self.protocol.initial_state(ctx),
                }
            };
            self.store.push_slot(state);
            if let Some(p) = self.sync_partition.as_mut() {
                p.absorb_node();
            }
        }

        // 4. Departure/reattachment state semantics.
        if let TopologyEvent::NodeCrash { node } = event {
            let s = self.protocol.initial_state(self.net.ctx(*node));
            self.store.slots_mut()[node.index()] = s;
        }
        for &p in &repair.endpoints {
            if Some(p) == repair.joined {
                continue; // just booted above
            }
            if matches!(event, TopologyEvent::NodeCrash { node } if *node == p) {
                continue; // the zombie keeps its fresh initial state
            }
            let s = self
                .protocol
                .reattach_state(self.net.ctx(p), &self.store.slice()[p.index()]);
            self.store.slots_mut()[p.index()] = s;
        }

        // 5. Re-evaluate the mutation footprint: endpoints (ports and
        // states changed) plus their current neighbors (they observe
        // those states). Deduplicated through the node-mask scratch.
        let mut footprint: Vec<u32> = Vec::new();
        for &p in &repair.endpoints {
            let i = p.index();
            if !std::mem::replace(&mut self.scratch_node_mask[i], true) {
                footprint.push(i as u32);
            }
            for l in 0..self.net.graph().degree(p) {
                let q = self.net.graph().neighbor(p, Port::new(l)).index();
                if !std::mem::replace(&mut self.scratch_node_mask[q], true) {
                    footprint.push(q as u32);
                }
            }
        }
        for &i in &footprint {
            self.scratch_node_mask[i as usize] = false;
        }
        // Counted in every mode (the footprint is mode-independent), so
        // campaign determinism gates can compare it across modes too.
        self.meter
            .add(Counter::CacheRepairs, footprint.len() as u64);
        if self.mode != EngineMode::FullSweep {
            self.meter.add(Counter::GuardEvals, footprint.len() as u64);
            let mut actions = std::mem::take(&mut self.scratch_actions);
            let mut list = std::mem::take(&mut self.enabled_list);
            for &i in &footprint {
                self.refresh_node(i as usize, &mut actions, &mut list);
            }
            self.scratch_actions = actions;
            self.enabled_list = list;
            if self.port_cache_active {
                self.meter.add(Counter::GuardEvals, footprint.len() as u64);
                for &i in &footprint {
                    self.reinit_port_cache_node(i as usize);
                }
            }
        }

        self.last_topology_event = Some(event.clone());
        self.reset_round_frontier();
        Ok(repair)
    }

    /// Rebuilds one node's port cache from the current configuration via
    /// [`Protocol::init_ports`]. `action_count` must already be current.
    fn reinit_port_cache_node(&mut self, idx: usize) {
        debug_assert!(self.port_cache_active);
        let node = NodeId::new(idx);
        let g = self.net.graph();
        let base = g.csr_base(node);
        let deg = g.degree(node);
        let view = ConfigView::new(&self.net, node, self.store.slice());
        let mut cache = PortCache::new(
            &mut self.port_words[base..base + deg],
            &mut self.node_words[idx * self.node_stride..(idx + 1) * self.node_stride],
        );
        let count = self.protocol.init_ports(&view, &mut cache);
        debug_assert_eq!(
            count, self.action_count[idx],
            "init_ports count must match the enabled sweep at node {idx}"
        );
        let _ = count;
    }

    /// Total daemon selections so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total action executions so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Total complete asynchronous rounds so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Zeroes the step/move/round counters (e.g. to measure only the phase
    /// after an underlying layer has stabilized, as the paper's bounds do).
    pub fn reset_counters(&mut self) {
        self.steps = 0;
        self.moves = 0;
        self.rounds = 0;
        self.reset_round_frontier();
    }

    /// Re-starts this simulation from a fresh adversarially arbitrary
    /// configuration, reusing every allocation (configuration vector,
    /// round frontier, enabled cache, step scratch). Equivalent to building
    /// a new [`Simulation::from_random`] on the same network and protocol —
    /// campaign fleets use this to run thousands of seeds without
    /// re-allocating.
    pub fn reinit_random(&mut self, rng: &mut dyn RngCore) {
        for p in self.net.nodes() {
            self.store.slots_mut()[p.index()] = self.protocol.random_state(self.net.ctx(p), rng);
        }
        self.steps = 0;
        self.moves = 0;
        self.rounds = 0;
        self.rebuild_enabled_cache();
        self.reset_round_frontier();
    }

    /// Re-starts from the protocol's canonical initial state, reusing every
    /// allocation (the in-place analogue of [`Simulation::from_initial`]).
    pub fn reinit_initial(&mut self) {
        for p in self.net.nodes() {
            self.store.slots_mut()[p.index()] = self.protocol.initial_state(self.net.ctx(p));
        }
        self.steps = 0;
        self.moves = 0;
        self.rounds = 0;
        self.rebuild_enabled_cache();
        self.reset_round_frontier();
    }

    /// Switches the guard-invalidation strategy. All modes produce
    /// bit-for-bit identical executions; see [`EngineMode`].
    ///
    /// Safe at any point of a run: leaving [`EngineMode::FullSweep`]
    /// rebuilds the incremental cache, and entering
    /// [`EngineMode::PortDirty`] re-initializes the per-port guard cache
    /// (both went stale while unused).
    pub fn set_mode(&mut self, mode: EngineMode) {
        if self.mode == mode {
            return;
        }
        let was_full = self.mode == EngineMode::FullSweep;
        self.mode = mode;
        // The port cache composes with the sharded executor: sparse
        // sharded steps run the serial port-dirty pass, dense ones its
        // shard-parallel counterpart — either way the o(Δ) port win
        // applies, which is what makes hub-heavy sharded rounds fast.
        self.port_cache_active = mode == EngineMode::PortDirty && self.protocol.port_separable();
        if self.port_cache_active && self.port_words.len() != self.net.graph().csr_len() {
            // First entry into port mode on this simulation: allocate the
            // cache arrays (off the hot path).
            let n = self.net.node_count();
            let layout = self.protocol.port_layout();
            assert!(
                layout.port_bits <= 64,
                "layered port-cache layout needs {} bits, the port word holds 64",
                layout.port_bits
            );
            self.node_stride = layout.node_words;
            self.port_words = vec![0; self.net.graph().csr_len()];
            self.node_words = vec![0; n * self.node_stride];
            self.port_mark = vec![0; self.net.graph().csr_len()];
            self.full_mark = vec![0; n];
            self.touched_mark = vec![0; n];
        }
        if was_full {
            // The incremental cache went stale while the reference mode
            // ran; this also re-initializes the port cache when active.
            self.rebuild_enabled_cache();
        } else if self.port_cache_active {
            // Counts stayed current under node-dirty stepping, but the
            // per-port words did not.
            for i in 0..self.net.node_count() {
                self.reinit_port_cache_node(i);
            }
        }
    }

    /// The active guard-invalidation strategy.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// `true` iff the port-granular cache is live (port-dirty mode *and*
    /// the protocol opted into the port-separable interface).
    pub fn is_port_dirty_active(&self) -> bool {
        self.port_cache_active
    }

    /// Arms the sharded executor's parallel phases: partition the graph
    /// into `shards` contiguous degree-balanced ranges
    /// ([`Partition::degree_balanced`]) and run the dense rounds of the
    /// incremental modes ([`EngineMode::NodeDirty`],
    /// [`EngineMode::PortDirty`]) on a [`WorkerPool`] of `threads`
    /// participants. With `shards <= 1` (the default) stepping stays
    /// fully serial. [`EngineMode::FullSweep`] ignores the partition: the
    /// reference engine always sweeps serially.
    ///
    /// Safe at any time; affects only how much a step costs, never what
    /// it computes — traces are byte-identical for every `(shards,
    /// threads)` choice.
    pub fn configure_sync_sharding(&mut self, shards: usize, threads: usize) {
        // Reuse the existing pool when the thread count matches (its
        // workers are warm); otherwise build a fresh one, which spawns
        // nothing until its first parallel phase.
        let pool = if self.sync_pool.threads() == threads.max(1) {
            Arc::clone(&self.sync_pool)
        } else {
            Arc::new(WorkerPool::new(threads))
        };
        self.configure_sync_sharding_with_pool(shards, pool);
    }

    /// [`Simulation::configure_sync_sharding`] with an externally shared
    /// [`WorkerPool`]: the thread count comes from the pool, and many
    /// simulations (e.g. a lab campaign's cells) can hand phases to the
    /// same parked workers — concurrent callers serialize whole phases
    /// inside the pool, so this is always safe.
    pub fn configure_sync_sharding_with_pool(&mut self, shards: usize, pool: Arc<WorkerPool>) {
        let shards = shards.clamp(1, self.net.node_count());
        self.sync_pool = pool;
        if shards > 1 {
            let p = Partition::degree_balanced(self.net.graph(), shards);
            let count = p.shard_count();
            self.sync_partition = Some(p);
            self.shard_scratch.resize_with(count, Scratch::new);
            self.shard_actions.resize_with(count, Vec::new);
            self.shard_recs.resize_with(count, Vec::new);
            self.shard_jobs.resize_with(count, Vec::new);
            self.shard_resolved.resize_with(count, Vec::new);
            self.shard_writers.resize_with(count, Vec::new);
            self.shard_dirty.resize_with(count, Vec::new);
            self.shard_port_jobs.resize_with(count, Vec::new);
            self.shard_port_out.resize_with(count, Vec::new);
            self.shard_port_bounds.resize_with(count, Vec::new);
            self.shard_ports.resize_with(count, Vec::new);
            self.shard_touched.resize_with(count, Vec::new);
        } else {
            self.sync_partition = None;
        }
    }

    /// Cumulative boundary-exchange statistics of the sharded port-dirty
    /// pass. Diagnostic only: the local/boundary split depends on the
    /// partition, so these deliberately never feed a [`Meter`] (whose
    /// counters must stay byte-identical across shard counts).
    pub fn exchange_stats(&self) -> ExchangeStats {
        self.exchange_stats
    }

    /// [`Simulation::exchange_stats`] plus the per-destination-shard
    /// boundary hand-off counts — the full phase-level picture of the
    /// exchange phase (`sno-lab run --metrics` surfaces it). Same
    /// diagnostic caveat: partition-dependent, never fed to a meter.
    pub fn exchange_breakdown(&self) -> ExchangeBreakdown {
        ExchangeBreakdown {
            stats: self.exchange_stats,
            per_shard: self.exchange_per_shard.clone(),
        }
    }

    /// Overrides the writer/dirty-count threshold below which sharded
    /// steps stay serial (default [`DEFAULT_SYNC_THRESHOLD`]). Benches
    /// tune it; differential tests pin it to 0 to force the parallel
    /// phases on small graphs.
    pub fn set_sync_parallel_threshold(&mut self, threshold: usize) {
        self.sync_threshold = threshold;
    }

    /// `true` iff a dense step may take the sharded executor's parallel
    /// phases: an incremental mode (the full sweep ignores the
    /// partition), more than one shard, and more than one pool
    /// participant.
    fn sharding_armed(&self) -> bool {
        self.mode != EngineMode::FullSweep
            && self.sync_partition.is_some()
            && self.sync_pool.threads() > 1
    }

    /// The number of shards the sharded executor is configured with
    /// (1 = serial).
    pub fn sync_shard_count(&self) -> usize {
        self.sync_partition
            .as_ref()
            .map(Partition::shard_count)
            .unwrap_or(1)
    }

    /// Total copy-on-write preservations the delta-staged multi-writer
    /// commits have performed — each is exactly one whole-state copy,
    /// and a protocol whose [`ApplyProfile`]s never conflict keeps this
    /// at zero through arbitrarily dense synchronous rounds.
    pub fn stage_clone_count(&self) -> u64 {
        self.store.clone_count()
    }

    /// The processors with at least one enabled action, with action
    /// counts, **in ascending NodeId order**.
    pub fn enabled_nodes(&self) -> Vec<EnabledNode> {
        if self.mode == EngineMode::FullSweep {
            let mut actions = Vec::new();
            let mut arena = Scratch::new();
            let mut out = Vec::new();
            self.fill_enabled(&mut actions, &mut out, &mut arena);
            out
        } else {
            self.enabled_list.clone()
        }
    }

    /// Writes the full-sweep enabled set into `out` using `actions` and
    /// `arena` as guard scratch. Nodes are visited — and therefore
    /// emitted — in ascending NodeId order.
    fn fill_enabled(
        &self,
        actions: &mut Vec<P::Action>,
        out: &mut Vec<EnabledNode>,
        arena: &mut Scratch,
    ) {
        out.clear();
        for p in self.net.nodes() {
            actions.clear();
            let view = ConfigView::new(&self.net, p, self.store.slice());
            self.protocol.enabled_into(&view, actions, arena);
            if !actions.is_empty() {
                out.push(EnabledNode {
                    node: p,
                    action_count: actions.len(),
                });
            }
        }
    }

    /// The enabled actions of one processor in the current configuration.
    pub fn enabled_actions(&self, p: NodeId) -> Vec<P::Action> {
        let mut out = Vec::new();
        let view = ConfigView::new(&self.net, p, self.store.slice());
        self.protocol.enabled(&view, &mut out);
        out
    }

    /// Rebuilds the per-node action counts and the sorted enabled list
    /// with one full sweep (plus the port cache when active). Only used
    /// off the hot path (construction, re-initialization, leaving the
    /// reference mode).
    fn rebuild_enabled_cache(&mut self) {
        // One whole-node guard evaluation per node for the sweep, and a
        // second one per node when the port cache is rebuilt on top —
        // re-initialization work is real work, and counting it keeps
        // `GuardEvals` meaningful in every mode (campaign fleets rebuild
        // once per seed).
        self.meter
            .add(Counter::GuardEvals, self.net.node_count() as u64);
        if self.port_cache_active {
            self.meter
                .add(Counter::GuardEvals, self.net.node_count() as u64);
        }
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let mut arena = std::mem::take(&mut self.scratch_arena);
        self.enabled_list.clear();
        for p in self.net.nodes() {
            actions.clear();
            let view = ConfigView::new(&self.net, p, self.store.slice());
            self.protocol.enabled_into(&view, &mut actions, &mut arena);
            let count = actions.len() as u32;
            self.action_count[p.index()] = count;
            if count > 0 {
                self.enabled_list.push(EnabledNode {
                    node: p,
                    action_count: count as usize,
                });
            }
        }
        self.scratch_actions = actions;
        self.scratch_arena = arena;
        if self.port_cache_active {
            for i in 0..self.net.node_count() {
                self.reinit_port_cache_node(i);
            }
        }
    }

    /// Re-evaluates the guards of one processor and folds the delta into
    /// `list` (the sorted enabled list, temporarily taken out of `self`).
    /// Returns the new enabled-action count.
    fn refresh_node(
        &mut self,
        idx: usize,
        actions: &mut Vec<P::Action>,
        list: &mut Vec<EnabledNode>,
    ) -> u32 {
        let node = NodeId::new(idx);
        actions.clear();
        let view = ConfigView::new(&self.net, node, self.store.slice());
        self.protocol
            .enabled_into(&view, actions, &mut self.scratch_arena);
        let new = actions.len() as u32;
        let old = std::mem::replace(&mut self.action_count[idx], new);
        if new != old {
            Self::fold_count_into_list(node, new, list);
        }
        new
    }

    /// Folds one node's new action count into the NodeId-sorted enabled
    /// list: present nodes are updated or removed, absent nodes inserted
    /// when the count is positive. Idempotent — safe for the port-dirty
    /// pass, which may fold a node whose count did not actually change.
    fn fold_count_into_list(node: NodeId, new: u32, list: &mut Vec<EnabledNode>) {
        match list.binary_search_by_key(&node.index(), |e| e.node.index()) {
            Ok(pos) => {
                if new == 0 {
                    list.remove(pos);
                } else {
                    list[pos].action_count = new as usize;
                }
            }
            Err(pos) => {
                if new > 0 {
                    list.insert(
                        pos,
                        EnabledNode {
                            node,
                            action_count: new as usize,
                        },
                    );
                }
            }
        }
    }

    /// Queues `node` for guard re-evaluation, deduplicating via the epoch
    /// stamp. An associated fn over the disjoint fields it needs, so call
    /// sites can hold a borrow of the network across it.
    fn mark_dirty(
        meter: &mut M,
        dirty_mark: &mut [u64],
        epoch: u64,
        node: NodeId,
        dirty: &mut Vec<u32>,
    ) {
        // Counted as an *attempt*: the dedup-suppressed pushes are the
        // interesting part of the queue's behavior.
        meter.add(Counter::DirtyPushes, 1);
        let i = node.index();
        if dirty_mark[i] != epoch {
            dirty_mark[i] = epoch;
            dirty.push(i as u32);
        }
    }

    /// Re-seeds the round frontier from the authoritative enabled set.
    fn reset_round_frontier(&mut self) {
        self.round_frontier.iter_mut().for_each(|b| *b = false);
        self.frontier_count = 0;
        if self.mode == EngineMode::FullSweep {
            let mut enabled = std::mem::take(&mut self.scratch_enabled);
            let mut actions = std::mem::take(&mut self.scratch_actions);
            let mut arena = std::mem::take(&mut self.scratch_arena);
            self.fill_enabled(&mut actions, &mut enabled, &mut arena);
            self.frontier_count = enabled.len();
            for e in &enabled {
                self.round_frontier[e.node.index()] = true;
            }
            self.scratch_enabled = enabled;
            self.scratch_actions = actions;
            self.scratch_arena = arena;
        } else {
            self.frontier_count = self.enabled_list.len();
            for e in &self.enabled_list {
                self.round_frontier[e.node.index()] = true;
            }
        }
    }

    /// Performs one computation step driven by `daemon`.
    ///
    /// Guards are evaluated against the pre-step configuration; all selected
    /// writes are committed together (composite atomicity under the
    /// distributed daemon).
    ///
    /// # Panics
    ///
    /// Panics if the daemon violates its contract (empty selection,
    /// duplicate nodes, or out-of-range indices).
    pub fn step(&mut self, daemon: &mut impl Daemon) -> StepOutcome<P::Action> {
        let mut executed = Vec::new();
        if self.step_into(daemon, Some(&mut executed)) {
            StepOutcome::Executed(executed)
        } else {
            StepOutcome::Silent
        }
    }

    /// The allocation-free commit path used by the bounded-run loops:
    /// identical to [`Simulation::step`] but does not materialize the
    /// executed-action vector. Returns `false` on silence.
    fn step_commit(&mut self, daemon: &mut impl Daemon) -> bool {
        self.step_into(daemon, None)
    }

    /// One computation step; records `(node, action)` pairs into `record`
    /// when provided. Returns `false` iff the configuration is silent.
    fn step_into(
        &mut self,
        daemon: &mut impl Daemon,
        mut record: Option<&mut Vec<(NodeId, P::Action)>>,
    ) -> bool {
        let full_sweep = self.mode == EngineMode::FullSweep;
        // `port_cache_active` is only ever set in PortDirty mode.
        let use_ports = self.port_cache_active;
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let mut arena = std::mem::take(&mut self.scratch_arena);
        // The daemon-visible enabled set: a fresh sweep in reference mode,
        // the incrementally maintained list otherwise (same contents, same
        // NodeId order).
        let mut enabled = if full_sweep {
            let mut enabled = std::mem::take(&mut self.scratch_enabled);
            self.fill_enabled(&mut actions, &mut enabled, &mut arena);
            self.meter
                .add(Counter::GuardEvals, self.net.node_count() as u64);
            enabled
        } else {
            std::mem::take(&mut self.enabled_list)
        };
        if enabled.is_empty() {
            self.restore_enabled(enabled);
            self.scratch_actions = actions;
            self.scratch_arena = arena;
            return false;
        }
        self.meter.add(Counter::EnabledNodes, enabled.len() as u64);
        self.meter
            .record(Metric::EnabledPerStep, enabled.len() as u64);

        let mut choices = std::mem::take(&mut self.scratch_choices);
        daemon.select_into(&enabled, &mut choices);
        assert!(!choices.is_empty(), "daemon must select a non-empty subset");
        self.meter
            .record(Metric::WritersPerStep, choices.len() as u64);

        // Resolve choices to (node, action) pairs against the pre-step
        // configuration (guards are evaluated before any write lands).
        // With the port cache live, the chosen processor's action list
        // comes straight from its cache words (`enabled_from_cache`) —
        // without this, a hub selection would pay an `O(Δ)` guard
        // re-sweep that the o(Δ) invalidation machinery just avoided.
        let mut pending = std::mem::take(&mut self.scratch_pending);
        debug_assert!(pending.is_empty());
        let multi = choices.len() > 1;
        self.pending_profiles.clear();
        // The sharded executor's parallel phases only pay off on dense
        // steps; sparse ones run the identical serial code below.
        let sharded_par = multi && self.sharding_armed() && choices.len() >= self.sync_threshold;
        self.scratch_chosen.clear();
        self.scratch_chosen.resize(enabled.len(), false);
        let mut chosen = std::mem::take(&mut self.scratch_chosen);
        if sharded_par {
            // Validate the selection serially (cheap), then resolve the
            // writers' action lists shard-parallel.
            for c in &choices {
                assert!(c.enabled_index < enabled.len(), "daemon index out of range");
                assert!(
                    !std::mem::replace(&mut chosen[c.enabled_index], true),
                    "daemon selected the same processor twice"
                );
            }
            self.resolve_parallel(&enabled, &choices, &mut pending);
            if let Some(out) = record.as_deref_mut() {
                for (i, action) in &pending {
                    out.push((NodeId::new(*i as usize), action.clone()));
                }
            }
        } else {
            for c in &choices {
                assert!(c.enabled_index < enabled.len(), "daemon index out of range");
                assert!(
                    !std::mem::replace(&mut chosen[c.enabled_index], true),
                    "daemon selected the same processor twice"
                );
                let node = enabled[c.enabled_index].node;
                let view = ConfigView::new(&self.net, node, self.store.slice());
                actions.clear();
                let mut from_cache = false;
                if use_ports {
                    let g = self.net.graph();
                    let base = g.csr_base(node);
                    let deg = g.degree(node);
                    let i = node.index();
                    let mut cache = PortCache::new(
                        &mut self.port_words[base..base + deg],
                        &mut self.node_words[i * self.node_stride..(i + 1) * self.node_stride],
                    );
                    from_cache = self.protocol.enabled_from_cache(
                        &view,
                        &mut cache,
                        &mut actions,
                        &mut arena,
                    );
                }
                if !from_cache {
                    actions.clear();
                    self.protocol.enabled_into(&view, &mut actions, &mut arena);
                    self.meter.add(Counter::GuardEvals, 1);
                }
                debug_assert!(
                    self.mode == EngineMode::FullSweep
                        || actions.len() == self.action_count[node.index()] as usize,
                    "materialized action list disagrees with the cached count"
                );
                assert!(
                    c.action_index < actions.len(),
                    "daemon action index out of range"
                );
                let action = actions.swap_remove(c.action_index);
                if multi {
                    // The delta-staged commit needs every writer's
                    // declared read/write footprint (single-writer
                    // steps write in place unconditionally).
                    self.pending_profiles
                        .push(self.protocol.apply_profile(&view, &action));
                }
                if let Some(out) = record.as_deref_mut() {
                    out.push((node, action.clone()));
                }
                pending.push((node.index() as u32, action));
            }
        }
        self.scratch_chosen = chosen;

        // Commit all writes atomically through in-place transactions and
        // remove executed processors from the round frontier. A single
        // writer (any central daemon — the port-dirty hot path) mutates
        // its configuration slot directly: zero clones, zero heap
        // traffic. Multiple writers commit through the ConfigStore's
        // copy-on-write delta staging (see the module docs): in-place
        // writes, readers before non-readers, pre-round copies only for
        // declared read/write conflicts.
        // Node-dirty mode seeds the dirty-node queue (executed nodes plus
        // their CSR neighborhoods); port-dirty mode instead consumes the
        // touch declarations the transactions recorded.
        self.epoch += 1;
        // `M::ENABLED` is a monomorphization-time constant: the read
        // below (and its pairing delta after the commit) compiles away
        // entirely for the no-op meter.
        let precopies_before = if M::ENABLED {
            self.store.clone_count()
        } else {
            0
        };
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.clear();
        while self.txn_recs.len() < pending.len() {
            self.txn_recs.push(TouchRecord::new());
        }
        if pending.len() == 1 {
            let (i, action) = &pending[0];
            let i = *i as usize;
            let node = NodeId::new(i);
            if std::mem::replace(&mut self.round_frontier[i], false) {
                self.frontier_count -= 1;
            }
            self.txn_recs[0].reset();
            {
                let mut txn = WriteTxn::split(
                    &self.net,
                    node,
                    self.store.slots_mut(),
                    &mut self.txn_recs[0],
                );
                self.protocol.apply_in_place(&mut txn, action);
            }
            debug_assert!(
                self.txn_recs[0].is_committed(),
                "apply_in_place must commit its transaction"
            );
            if !full_sweep && !use_ports {
                Self::mark_dirty(
                    &mut self.meter,
                    &mut self.dirty_mark,
                    self.epoch,
                    node,
                    &mut dirty,
                );
                for &q in self.net.graph().neighbors(node) {
                    Self::mark_dirty(
                        &mut self.meter,
                        &mut self.dirty_mark,
                        self.epoch,
                        q,
                        &mut dirty,
                    );
                }
            }
        } else {
            self.commit_multi_delta(&pending, sharded_par);
            for (i, _) in &pending {
                let i = *i as usize;
                if std::mem::replace(&mut self.round_frontier[i], false) {
                    self.frontier_count -= 1;
                }
                if !full_sweep && !use_ports {
                    let node = NodeId::new(i);
                    Self::mark_dirty(
                        &mut self.meter,
                        &mut self.dirty_mark,
                        self.epoch,
                        node,
                        &mut dirty,
                    );
                    for &q in self.net.graph().neighbors(node) {
                        Self::mark_dirty(
                            &mut self.meter,
                            &mut self.dirty_mark,
                            self.epoch,
                            q,
                            &mut dirty,
                        );
                    }
                }
            }
        }
        self.meter.add(Counter::TxnCommits, pending.len() as u64);
        if M::ENABLED {
            self.meter.add(
                Counter::StagePrecopies,
                self.store.clone_count() - precopies_before,
            );
        }
        self.steps += 1;
        self.moves += choices.len() as u64;
        self.scratch_choices = {
            choices.clear();
            choices
        };

        if !full_sweep && !use_ports {
            // Node-dirty re-evaluation work, counted as aggregates over
            // the deduplicated queue — identical for the serial and
            // shard-parallel paths below by construction.
            self.meter.add(Counter::DirtyPops, dirty.len() as u64);
            self.meter
                .record(Metric::DirtyNodesPerStep, dirty.len() as u64);
            self.meter.add(Counter::GuardEvals, dirty.len() as u64);
        }
        if full_sweep {
            // Reference mode: full re-sweep, neutralize frontier
            // processors that are no longer enabled.
            if self.frontier_count > 0 {
                self.fill_enabled(&mut actions, &mut enabled, &mut arena);
                self.meter
                    .add(Counter::GuardEvals, self.net.node_count() as u64);
                let mut enabled_mask = std::mem::take(&mut self.scratch_node_mask);
                enabled_mask.iter_mut().for_each(|b| *b = false);
                for e in &enabled {
                    enabled_mask[e.node.index()] = true;
                }
                for (frontier, enabled) in self.round_frontier.iter_mut().zip(&enabled_mask) {
                    if *frontier && !enabled {
                        *frontier = false;
                        self.frontier_count -= 1;
                    }
                }
                self.scratch_node_mask = enabled_mask;
            }
        } else if use_ports {
            if sharded_par {
                // Dense sharded step of a port-separable protocol: the
                // writer refresh and the reader port re-evaluations run
                // shard-parallel around a serial boundary exchange —
                // counters and traces byte-identical to the serial pass.
                self.port_dirty_pass_sharded(&mut enabled, &pending);
            } else {
                self.port_dirty_pass(&mut enabled, &pending);
            }
        } else if self.sharding_armed()
            && dirty.len() >= self.sync_threshold
            && dirty.len() * 4 >= self.net.node_count()
        {
            // Dense dirty set under the sharded executor: re-evaluate
            // guards shard-parallel (each worker writes its own chunk of
            // the count array), then neutralize the frontier and rebuild
            // the sorted list serially — both deterministic in the
            // counts alone, so the schedule cannot leak into the trace.
            // Both conditions matter: the absolute threshold amortizes
            // the phase handoff, and the density ratio (the same
            // test the serial dense path uses) keeps a large graph's
            // sparse steps on the o(n) incremental sorted-list path
            // instead of paying this branch's O(n) rebuild.
            self.reeval_parallel(&dirty);
            for &d in &dirty {
                let d = d as usize;
                if self.action_count[d] == 0 && self.round_frontier[d] {
                    self.round_frontier[d] = false;
                    self.frontier_count -= 1;
                }
            }
            enabled.clear();
            enabled.extend(
                self.action_count
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| EnabledNode {
                        node: NodeId::new(i),
                        action_count: c as usize,
                    }),
            );
        } else if dirty.len() * 4 >= self.net.node_count() {
            // Dense dirty set (e.g. the synchronous daemon mid-
            // stabilization): per-node sorted inserts/removes would
            // memmove `O(dirty · |enabled|)` entries. Update the counts,
            // then rebuild the sorted list in one O(n) pass over the
            // count array — no guard is evaluated more than once either
            // way, so the result is identical.
            for &d in &dirty {
                let d = d as usize;
                let node = NodeId::new(d);
                actions.clear();
                let view = ConfigView::new(&self.net, node, self.store.slice());
                self.protocol.enabled_into(&view, &mut actions, &mut arena);
                let new = actions.len() as u32;
                self.action_count[d] = new;
                if new == 0 && self.round_frontier[d] {
                    self.round_frontier[d] = false;
                    self.frontier_count -= 1;
                }
            }
            enabled.clear();
            enabled.extend(
                self.action_count
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| EnabledNode {
                        node: NodeId::new(i),
                        action_count: c as usize,
                    }),
            );
        } else {
            // Sparse dirty set: re-evaluate guards of dirty nodes only
            // and fold each delta into the sorted list. A frontier
            // processor can only have become disabled if it is dirty, so
            // the same loop neutralizes the frontier.
            self.scratch_arena = arena;
            for &d in &dirty {
                let d = d as usize;
                let new = self.refresh_node(d, &mut actions, &mut enabled);
                if new == 0 && self.round_frontier[d] {
                    self.round_frontier[d] = false;
                    self.frontier_count -= 1;
                }
            }
            arena = std::mem::take(&mut self.scratch_arena);
        }
        self.dirty = dirty;
        pending.clear();
        self.scratch_pending = pending;
        self.restore_enabled(enabled);
        self.scratch_actions = actions;
        self.scratch_arena = arena;

        if self.frontier_count == 0 {
            self.rounds += 1;
            if full_sweep {
                self.reset_round_frontier();
            } else {
                // Every frontier bit is false here (each was individually
                // cleared), so seeding costs O(|enabled|), not O(n).
                self.frontier_count = self.enabled_list.len();
                for e in &self.enabled_list {
                    self.round_frontier[e.node.index()] = true;
                }
            }
        }
        true
    }

    /// The port-dirty evaluation pass of one step (see the module docs):
    ///
    /// 1. for every writer, [`Protocol::refresh_self`] — fed the
    ///    [`StateTxn::note_self`](crate::protocol::StateTxn::note_self)
    ///    bits its transaction recorded — updates the cached quantities
    ///    that depend on its own state, and the transaction's touch
    ///    declarations become dirty *ports* at the neighbors that can
    ///    observe the write (no old-vs-new diff, no retained pre-state);
    /// 2. every dirty port is re-evaluated at its reader via
    ///    [`Protocol::reevaluate_port`] — `O(1)`-ish per port instead of
    ///    `O(Δ)` per neighborhood;
    /// 3. the final action counts are folded into the sorted enabled list
    ///    and newly disabled frontier processors are neutralized.
    ///
    /// Verdicts of [`PortVerdict::Whole`] fall back to a full
    /// [`Protocol::init_ports`] re-evaluation for that node only.
    fn port_dirty_pass(&mut self, enabled: &mut Vec<EnabledNode>, pending: &[(u32, P::Action)]) {
        let net = &*self.net;
        let g = net.graph();
        let epoch = self.epoch;
        let stride = self.node_stride;
        let mut dirty_ports = std::mem::take(&mut self.dirty_ports);
        let mut touched = std::mem::take(&mut self.touched);
        dirty_ports.clear();
        touched.clear();

        // Phase 1: writers — self refresh from the transactions' note
        // bits, dirty ports from their declared write scopes.
        for (k, (i, _)) in pending.iter().enumerate() {
            let i = *i as usize;
            let node = NodeId::new(i);
            if self.touched_mark[i] != epoch {
                self.touched_mark[i] = epoch;
                touched.push(i as u32);
            }
            let base = g.csr_base(node);
            let deg = g.degree(node);
            let bits = self.txn_recs[k].self_bits();
            let verdict = {
                let view = ConfigView::new(net, node, self.store.slice());
                let mut cache = PortCache::new(
                    &mut self.port_words[base..base + deg],
                    &mut self.node_words[i * stride..(i + 1) * stride],
                );
                self.protocol.refresh_self(&view, bits, &mut cache)
            };
            self.meter.add(Counter::SelfRefreshes, 1);
            match verdict {
                PortVerdict::Unchanged => {}
                PortVerdict::Count(c) => self.action_count[i] = c,
                PortVerdict::Whole => {
                    let view = ConfigView::new(net, node, self.store.slice());
                    let mut cache = PortCache::new(
                        &mut self.port_words[base..base + deg],
                        &mut self.node_words[i * stride..(i + 1) * stride],
                    );
                    self.action_count[i] = self.protocol.init_ports(&view, &mut cache);
                    self.full_mark[i] = epoch;
                    self.meter.add(Counter::GuardEvals, 1);
                }
            }
            match self.txn_recs[k].scope() {
                TouchScope::Unobservable => {}
                TouchScope::Ports(ports) => {
                    for &l in ports {
                        debug_assert!(l.index() < deg, "touched port out of range");
                        let q = g.neighbor(node, l);
                        let back = g.back_port(node, l);
                        let slot = g.csr_index(q, back);
                        if self.port_mark[slot] != epoch {
                            self.port_mark[slot] = epoch;
                            dirty_ports.push(((q.index() as u64) << 32) | back.index() as u64);
                        }
                    }
                }
                TouchScope::All => {
                    for l in (0..deg).map(Port::new) {
                        let q = g.neighbor(node, l);
                        let back = g.back_port(node, l);
                        let slot = g.csr_index(q, back);
                        if self.port_mark[slot] != epoch {
                            self.port_mark[slot] = epoch;
                            dirty_ports.push(((q.index() as u64) << 32) | back.index() as u64);
                        }
                    }
                }
            }
        }

        // Phase 2: readers — one port-local re-evaluation per dirty port.
        self.meter
            .add(Counter::PortInvalidations, dirty_ports.len() as u64);
        self.meter
            .record(Metric::DirtyPortsPerStep, dirty_ports.len() as u64);
        for &entry in &dirty_ports {
            let u = (entry >> 32) as usize;
            let l = Port::new((entry & u64::from(u32::MAX)) as usize);
            if self.full_mark[u] == epoch {
                continue; // already rebuilt against the post-step config
            }
            let node = NodeId::new(u);
            let base = g.csr_base(node);
            let deg = g.degree(node);
            let verdict = {
                let view = ConfigView::new(net, node, self.store.slice());
                let mut cache = PortCache::new(
                    &mut self.port_words[base..base + deg],
                    &mut self.node_words[u * stride..(u + 1) * stride],
                );
                self.protocol.reevaluate_port(&view, l, &mut cache)
            };
            self.meter.add(Counter::PortEvals, 1);
            match verdict {
                PortVerdict::Unchanged => continue,
                PortVerdict::Count(c) => self.action_count[u] = c,
                PortVerdict::Whole => {
                    let view = ConfigView::new(net, node, self.store.slice());
                    let mut cache = PortCache::new(
                        &mut self.port_words[base..base + deg],
                        &mut self.node_words[u * stride..(u + 1) * stride],
                    );
                    self.action_count[u] = self.protocol.init_ports(&view, &mut cache);
                    self.full_mark[u] = epoch;
                    self.meter.add(Counter::GuardEvals, 1);
                }
            }
            if self.touched_mark[u] != epoch {
                self.touched_mark[u] = epoch;
                touched.push(u as u32);
            }
        }

        self.fold_touched(enabled, &touched);

        self.dirty_ports = dirty_ports;
        self.touched = touched;
    }

    /// The final phase of a port-dirty pass (serial or sharded): fold
    /// the final counts into the sorted list; a frontier processor can
    /// only have become disabled if it was touched, so the same loop
    /// neutralizes the frontier (deliberately deferred — counts may
    /// change more than once within a step, and only the final value may
    /// neutralize). Order-independent in `touched`: the counts are
    /// settled, the dense branch rebuilds from the count array, and the
    /// sparse folds are idempotent.
    fn fold_touched(&mut self, enabled: &mut Vec<EnabledNode>, touched: &[u32]) {
        if touched.len() * 4 >= self.net.node_count() {
            for &t in touched {
                let t = t as usize;
                if self.action_count[t] == 0
                    && std::mem::replace(&mut self.round_frontier[t], false)
                {
                    self.frontier_count -= 1;
                }
            }
            enabled.clear();
            enabled.extend(
                self.action_count
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| EnabledNode {
                        node: NodeId::new(i),
                        action_count: c as usize,
                    }),
            );
        } else {
            for &t in touched {
                let t = t as usize;
                let c = self.action_count[t];
                Self::fold_count_into_list(NodeId::new(t), c, enabled);
                if c == 0 && std::mem::replace(&mut self.round_frontier[t], false) {
                    self.frontier_count -= 1;
                }
            }
        }
    }

    /// The sharded counterpart of [`Simulation::port_dirty_pass`] for
    /// dense synchronous steps — same three phases, same counters, same
    /// trace, shard-parallel where the work is:
    ///
    /// * **refresh** (parallel by *writer* shard): every writer's
    ///   [`Protocol::refresh_self`] plus the raw dirty-port candidates
    ///   from its declared write scope, into per-shard buffers. All
    ///   per-node state a worker touches (`action_count`, `full_mark`,
    ///   port/node cache words) is owned by the node's shard, so the
    ///   chunked `&mut` hand-out is race-free by construction.
    /// * **exchange** (serial): the boundary hand-off. Candidate
    ///   segments are merged back in pending (selection) order and
    ///   deduplicated through the global `port_mark` stamps — exactly
    ///   the serial pass's canonical dirty-port queue, byte for byte —
    ///   then bucketed by *reader* shard, preserving canonical order
    ///   within each bucket. Cross-shard hand-offs are tallied into
    ///   [`ExchangeStats`] (diagnostic only).
    /// * **reeval** (parallel by *reader* shard): per-port
    ///   [`Protocol::reevaluate_port`] against shard-local cache words.
    ///   A node's entries keep their canonical relative order inside
    ///   its shard's bucket, so the `full_mark` skip pattern — and with
    ///   it every counter — matches the serial pass exactly.
    ///
    /// The serial fold ([`Simulation::fold_touched`]) finishes the step.
    fn port_dirty_pass_sharded(
        &mut self,
        enabled: &mut Vec<EnabledNode>,
        pending: &[(u32, P::Action)],
    ) {
        let epoch = self.epoch;
        let stride = self.node_stride;
        let partition = self.sync_partition.as_ref().expect("sharding configured");
        let shard_count = partition.shard_count();
        let bounds = partition.bounds();
        let net = &*self.net;
        let g = net.graph();
        let protocol = &self.protocol;
        let config = self.store.slice();
        let recs = &self.txn_recs;
        let tracing = self.tracer.is_some();

        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();

        // Serial prologue: bucket all writers by owning shard in pending
        // order, and mark them touched (every writer is, in the serial
        // pass's phase 1 — do it here so the reader phase's dedup sees
        // the same marks).
        for b in self.shard_port_jobs.iter_mut() {
            b.clear();
        }
        self.shard_port_pos.clear();
        for (k, (i, _)) in pending.iter().enumerate() {
            let i = *i as usize;
            let s = partition.shard_of(NodeId::new(i));
            self.shard_port_pos
                .push((s as u32, self.shard_port_jobs[s].len() as u32));
            self.shard_port_jobs[s].push(k as u32);
            if self.touched_mark[i] != epoch {
                self.touched_mark[i] = epoch;
                touched.push(i as u32);
            }
        }

        let csr_bounds = csr_offsets(g, bounds);
        let word_bounds: Vec<usize> = bounds.iter().map(|&b| b as usize * stride).collect();
        let pool = &*self.sync_pool;

        // Phase "port-refresh": writers, parallel by writer shard.
        let phase_start = tracing.then(Instant::now);
        {
            for (s, b) in self.shard_port_out.iter_mut().enumerate() {
                b.clear();
                self.shard_port_bounds[s].clear();
            }
            let counts = partition.split_mut(&mut self.action_count);
            let fulls = partition.split_mut(&mut self.full_mark);
            let pw = split_at_offsets(&mut self.port_words, &csr_bounds);
            let nw = split_at_offsets(&mut self.node_words, &word_bounds);
            let mut items: Vec<PortRefreshShard<'_>> = counts
                .into_iter()
                .zip(fulls)
                .zip(pw.into_iter().zip(nw))
                .zip(self.shard_port_jobs.iter())
                .zip(
                    self.shard_port_out
                        .iter_mut()
                        .zip(self.shard_port_bounds.iter_mut()),
                )
                .enumerate()
                .map(
                    |(s, ((((counts, full), (ports, words)), ks), (out, ends)))| PortRefreshShard {
                        ks,
                        counts,
                        full,
                        chunk: PortChunk {
                            ports,
                            words,
                            lo: bounds[s] as usize,
                            csr_lo: csr_bounds[s],
                        },
                        out,
                        ends,
                        whole: 0,
                        span: None,
                    },
                )
                .collect();
            pool.run_mut(&mut items, |_, it| {
                let t0 = tracing.then(Instant::now);
                let n_lo = it.chunk.lo;
                let c_lo = it.chunk.csr_lo;
                for &k in it.ks {
                    let k = k as usize;
                    let i = pending[k].0 as usize;
                    let node = NodeId::new(i);
                    let base = g.csr_base(node);
                    let deg = g.degree(node);
                    let bits = recs[k].self_bits();
                    let verdict = {
                        let view = ConfigView::new(net, node, config);
                        let mut cache = PortCache::new(
                            &mut it.chunk.ports[base - c_lo..base - c_lo + deg],
                            &mut it.chunk.words[(i - n_lo) * stride..(i - n_lo + 1) * stride],
                        );
                        protocol.refresh_self(&view, bits, &mut cache)
                    };
                    match verdict {
                        PortVerdict::Unchanged => {}
                        PortVerdict::Count(c) => it.counts[i - n_lo] = c,
                        PortVerdict::Whole => {
                            let view = ConfigView::new(net, node, config);
                            let mut cache = PortCache::new(
                                &mut it.chunk.ports[base - c_lo..base - c_lo + deg],
                                &mut it.chunk.words[(i - n_lo) * stride..(i - n_lo + 1) * stride],
                            );
                            it.counts[i - n_lo] = protocol.init_ports(&view, &mut cache);
                            it.full[i - n_lo] = epoch;
                            it.whole += 1;
                        }
                    }
                    match recs[k].scope() {
                        TouchScope::Unobservable => {}
                        TouchScope::Ports(ports) => {
                            for &l in ports {
                                debug_assert!(l.index() < deg, "touched port out of range");
                                let q = g.neighbor(node, l);
                                let back = g.back_port(node, l);
                                it.out
                                    .push(((q.index() as u64) << 32) | back.index() as u64);
                            }
                        }
                        TouchScope::All => {
                            for l in (0..deg).map(Port::new) {
                                let q = g.neighbor(node, l);
                                let back = g.back_port(node, l);
                                it.out
                                    .push(((q.index() as u64) << 32) | back.index() as u64);
                            }
                        }
                    }
                    it.ends.push(it.out.len() as u32);
                }
                if let Some(t0) = t0 {
                    it.span = Some((t0, Instant::now()));
                }
            });
            self.meter.add(Counter::SelfRefreshes, pending.len() as u64);
            let whole: u64 = items.iter().map(|it| it.whole).sum();
            self.meter.add(Counter::GuardEvals, whole);
            if let Some(tracer) = self.tracer.as_mut() {
                let spans: Vec<_> = items.iter().map(|it| it.span).collect();
                emit_phase_spans(tracer, "port-refresh", phase_start, &spans);
            }
        }

        // Serial boundary exchange: reconstruct the canonical dirty-port
        // queue (pending order, `port_mark` dedup — identical to the
        // serial pass) and bucket it by reader shard, preserving order.
        let t_ex = tracing.then(Instant::now);
        for b in self.shard_ports.iter_mut() {
            b.clear();
        }
        let mut total_ports = 0u64;
        let (mut local, mut boundary) = (0u64, 0u64);
        for k in 0..pending.len() {
            let (s, j) = self.shard_port_pos[k];
            let (s, j) = (s as usize, j as usize);
            let start = if j == 0 {
                0
            } else {
                self.shard_port_bounds[s][j - 1] as usize
            };
            let end = self.shard_port_bounds[s][j] as usize;
            for &packed in &self.shard_port_out[s][start..end] {
                let q = NodeId::new((packed >> 32) as usize);
                let back = Port::new((packed & u64::from(u32::MAX)) as usize);
                let slot = g.csr_index(q, back);
                if self.port_mark[slot] != epoch {
                    self.port_mark[slot] = epoch;
                    total_ports += 1;
                    let rs = partition.shard_of(q);
                    if rs == s {
                        local += 1;
                    } else {
                        boundary += 1;
                        if self.exchange_per_shard.len() <= rs {
                            self.exchange_per_shard.resize(rs + 1, 0);
                        }
                        self.exchange_per_shard[rs] += 1;
                    }
                    self.shard_ports[rs].push(packed);
                }
            }
        }
        self.exchange_stats.local_ports += local;
        self.exchange_stats.boundary_ports += boundary;
        self.exchange_stats.exchanges += 1;
        self.meter.add(Counter::PortInvalidations, total_ports);
        self.meter.record(Metric::DirtyPortsPerStep, total_ports);
        if let Some(tracer) = self.tracer.as_mut() {
            let control = shard_count as u64;
            tracer.name_lane(control, "control");
            if let Some(t0) = t_ex {
                tracer.push_span("exchange", "control", control, t0, Instant::now());
            }
        }

        // Phase "port-reeval": readers, parallel by reader shard.
        let phase_start = tracing.then(Instant::now);
        {
            for b in self.shard_touched.iter_mut() {
                b.clear();
            }
            let counts = partition.split_mut(&mut self.action_count);
            let fulls = partition.split_mut(&mut self.full_mark);
            let tmarks = partition.split_mut(&mut self.touched_mark);
            let pw = split_at_offsets(&mut self.port_words, &csr_bounds);
            let nw = split_at_offsets(&mut self.node_words, &word_bounds);
            let mut items: Vec<PortEvalShard<'_>> = counts
                .into_iter()
                .zip(fulls.into_iter().zip(tmarks))
                .zip(pw.into_iter().zip(nw))
                .zip(self.shard_ports.iter())
                .zip(self.shard_touched.iter_mut())
                .enumerate()
                .map(
                    |(s, ((((counts, (full, tmark)), (ports, words)), queue), touched_out))| {
                        PortEvalShard {
                            queue,
                            counts,
                            full,
                            tmark,
                            chunk: PortChunk {
                                ports,
                                words,
                                lo: bounds[s] as usize,
                                csr_lo: csr_bounds[s],
                            },
                            touched_out,
                            evals: 0,
                            whole: 0,
                            span: None,
                        }
                    },
                )
                .collect();
            pool.run_mut(&mut items, |_, it| {
                let t0 = tracing.then(Instant::now);
                let n_lo = it.chunk.lo;
                let c_lo = it.chunk.csr_lo;
                for &entry in it.queue {
                    let u = (entry >> 32) as usize;
                    let l = Port::new((entry & u64::from(u32::MAX)) as usize);
                    if it.full[u - n_lo] == epoch {
                        continue; // already rebuilt against the post-step config
                    }
                    let node = NodeId::new(u);
                    let base = g.csr_base(node);
                    let deg = g.degree(node);
                    let verdict = {
                        let view = ConfigView::new(net, node, config);
                        let mut cache = PortCache::new(
                            &mut it.chunk.ports[base - c_lo..base - c_lo + deg],
                            &mut it.chunk.words[(u - n_lo) * stride..(u - n_lo + 1) * stride],
                        );
                        protocol.reevaluate_port(&view, l, &mut cache)
                    };
                    it.evals += 1;
                    match verdict {
                        PortVerdict::Unchanged => continue,
                        PortVerdict::Count(c) => it.counts[u - n_lo] = c,
                        PortVerdict::Whole => {
                            let view = ConfigView::new(net, node, config);
                            let mut cache = PortCache::new(
                                &mut it.chunk.ports[base - c_lo..base - c_lo + deg],
                                &mut it.chunk.words[(u - n_lo) * stride..(u - n_lo + 1) * stride],
                            );
                            it.counts[u - n_lo] = protocol.init_ports(&view, &mut cache);
                            it.full[u - n_lo] = epoch;
                            it.whole += 1;
                        }
                    }
                    if it.tmark[u - n_lo] != epoch {
                        it.tmark[u - n_lo] = epoch;
                        it.touched_out.push(u as u32);
                    }
                }
                if let Some(t0) = t0 {
                    it.span = Some((t0, Instant::now()));
                }
            });
            let evals: u64 = items.iter().map(|it| it.evals).sum();
            let whole: u64 = items.iter().map(|it| it.whole).sum();
            self.meter.add(Counter::PortEvals, evals);
            self.meter.add(Counter::GuardEvals, whole);
            if let Some(tracer) = self.tracer.as_mut() {
                let spans: Vec<_> = items.iter().map(|it| it.span).collect();
                emit_phase_spans(tracer, "port-reeval", phase_start, &spans);
            }
        }
        for s in 0..shard_count {
            let extra = std::mem::take(&mut self.shard_touched[s]);
            touched.extend_from_slice(&extra);
            self.shard_touched[s] = extra;
        }

        self.fold_touched(enabled, &touched);
        self.touched = touched;
    }

    /// Shard-parallel resolution of a dense step's validated selection:
    /// choices are bucketed by owning shard, each worker materializes
    /// its writers' action lists and [`ApplyProfile`]s against the
    /// shared pre-step configuration (shard-local scratch, no locks),
    /// and the results are stitched back into `pending` in selection
    /// order — bit-identical to the serial loop for any thread count.
    fn resolve_parallel(
        &mut self,
        enabled: &[EnabledNode],
        choices: &[crate::daemon::Choice],
        pending: &mut Vec<(u32, P::Action)>,
    ) {
        let partition = self.sync_partition.as_ref().expect("sharding configured");
        self.resolve_order.clear();
        for jobs in self.shard_jobs.iter_mut() {
            jobs.clear();
        }
        for out in self.shard_resolved.iter_mut() {
            out.clear();
        }
        for c in choices {
            let node = enabled[c.enabled_index].node;
            let s = partition.shard_of(node);
            self.resolve_order
                .push((s as u32, self.shard_jobs[s].len() as u32));
            self.shard_jobs[s].push((node.index() as u32, c.action_index as u32));
        }

        let net = &*self.net;
        let g = net.graph();
        let protocol = &self.protocol;
        let config = self.store.slice();
        let stride = self.node_stride;
        let use_ports = self.port_cache_active;
        #[cfg(debug_assertions)]
        let counts = &self.action_count;
        let tracing = self.tracer.is_some();
        let phase_start = tracing.then(Instant::now);
        // With an active port cache the workers resolve straight from
        // their shard's cache words (`enabled_from_cache`) and only fall
        // back to a fresh guard evaluation on a miss — the per-shard
        // miss totals are what GuardEvals charges for this phase, which
        // sums to exactly what the serial port path would have charged.
        let bounds = partition.bounds();
        let mut port_chunks: Vec<Option<PortChunk<'_>>> = if use_ports {
            let csr_bounds = csr_offsets(g, bounds);
            let word_bounds: Vec<usize> = bounds.iter().map(|&b| b as usize * stride).collect();
            split_at_offsets(&mut self.port_words, &csr_bounds)
                .into_iter()
                .zip(split_at_offsets(&mut self.node_words, &word_bounds))
                .enumerate()
                .map(|(s, (ports, words))| {
                    Some(PortChunk {
                        ports,
                        words,
                        lo: bounds[s] as usize,
                        csr_lo: csr_bounds[s],
                    })
                })
                .collect()
        } else {
            self.shard_jobs.iter().map(|_| None).collect()
        };
        let mut items: Vec<ResolveShard<'_, P::Action>> = self
            .shard_resolved
            .iter_mut()
            .zip(self.shard_scratch.iter_mut())
            .zip(self.shard_actions.iter_mut())
            .zip(self.shard_jobs.iter())
            .zip(port_chunks.drain(..))
            .map(|((((out, scratch), actions), jobs), chunk)| ResolveShard {
                jobs,
                out,
                scratch,
                actions,
                chunk,
                misses: 0,
                span: None,
            })
            .collect();
        self.sync_pool.run_mut(&mut items, |_, it| {
            let t0 = tracing.then(Instant::now);
            for &(node, action_index) in it.jobs {
                let node = NodeId::new(node as usize);
                let view = ConfigView::new(net, node, config);
                it.actions.clear();
                let mut from_cache = false;
                if let Some(chunk) = it.chunk.as_mut() {
                    let i = node.index();
                    let base = g.csr_base(node);
                    let deg = g.degree(node);
                    let mut cache = PortCache::new(
                        &mut chunk.ports[base - chunk.csr_lo..base - chunk.csr_lo + deg],
                        &mut chunk.words[(i - chunk.lo) * stride..(i - chunk.lo + 1) * stride],
                    );
                    from_cache =
                        protocol.enabled_from_cache(&view, &mut cache, it.actions, it.scratch);
                }
                if !from_cache {
                    it.actions.clear();
                    protocol.enabled_into(&view, it.actions, it.scratch);
                    it.misses += 1;
                }
                #[cfg(debug_assertions)]
                debug_assert_eq!(
                    it.actions.len(),
                    counts[node.index()] as usize,
                    "materialized action list disagrees with the cached count"
                );
                assert!(
                    (action_index as usize) < it.actions.len(),
                    "daemon action index out of range"
                );
                let action = it.actions.swap_remove(action_index as usize);
                let profile = protocol.apply_profile(&view, &action);
                it.out.push((Some(action), profile));
            }
            if let Some(t0) = t0 {
                it.span = Some((t0, Instant::now()));
            }
        });
        if use_ports {
            let misses: u64 = items.iter().map(|it| it.misses).sum();
            self.meter.add(Counter::GuardEvals, misses);
        } else {
            self.meter.add(Counter::GuardEvals, choices.len() as u64);
        }
        if let Some(tracer) = self.tracer.as_mut() {
            let spans: Vec<_> = items.iter().map(|it| it.span).collect();
            emit_phase_spans(tracer, "resolve", phase_start, &spans);
        }

        // Stitch back in selection order.
        for k in 0..choices.len() {
            let (s, idx) = self.resolve_order[k];
            let (s, idx) = (s as usize, idx as usize);
            let node = self.shard_jobs[s][idx].0;
            let entry = &mut self.shard_resolved[s][idx];
            pending.push((node, entry.0.take().expect("worker resolved this job")));
            self.pending_profiles.push(entry.1);
        }
    }

    /// The delta-staged multi-writer commit (see the module docs):
    /// copy-on-write planning, then the reader writers in selection
    /// order, then the read-free writers — serially, or shard-parallel
    /// when `parallel` is set (the read-free writers observe nothing and
    /// are observed by nothing, so chunked in-place application is safe
    /// and order-free).
    fn commit_multi_delta(&mut self, pending: &[(u32, P::Action)], parallel: bool) {
        let net = &*self.net;
        let g = net.graph();
        debug_assert_eq!(self.pending_profiles.len(), pending.len());
        self.store.begin_round();
        // Plan pass, simulating the readers' write order: a slot is
        // preserved iff a later reader's declared read mask intersects
        // an earlier reader's declared write mask on it. Read-free
        // writers execute after every read, so they never participate.
        for (k, (i, _)) in pending.iter().enumerate() {
            let prof = self.pending_profiles[k];
            if !prof.is_reader() {
                continue;
            }
            let node = NodeId::new(*i as usize);
            match prof.reads {
                ReadScope::One(p) => {
                    let q = g.neighbor(node, p).index();
                    if self.store.planned_conflict(q, prof.read_mask) {
                        self.store.preserve(q);
                    }
                }
                ReadScope::All => {
                    for &q in g.neighbors(node) {
                        if self.store.planned_conflict(q.index(), prof.read_mask) {
                            self.store.preserve(q.index());
                        }
                    }
                }
                ReadScope::None => unreachable!("is_reader excluded None"),
            }
            self.store.plan_write(*i as usize, prof.write_mask);
        }
        // Write pass A: readers, in selection order, stamping each slot
        // so later readers resolve it through the stash.
        for (k, (i, action)) in pending.iter().enumerate() {
            let prof = self.pending_profiles[k];
            if !prof.is_reader() {
                continue;
            }
            let i = *i as usize;
            self.txn_recs[k].reset();
            {
                let mut txn =
                    self.store
                        .delta_txn(net, NodeId::new(i), prof.reads, &mut self.txn_recs[k]);
                self.protocol.apply_in_place(&mut txn, action);
            }
            debug_assert!(
                self.txn_recs[k].is_committed(),
                "apply_in_place must commit its transaction"
            );
            self.store.stamp_write(i);
        }
        // Write pass B: read-free writers (unstamped — nothing reads
        // them after the readers already ran).
        if parallel && self.sync_partition.is_some() {
            self.commit_nonreaders_parallel(pending);
        } else {
            for (k, (i, action)) in pending.iter().enumerate() {
                if self.pending_profiles[k].is_reader() {
                    continue;
                }
                let i = *i as usize;
                self.txn_recs[k].reset();
                {
                    let mut txn = self.store.delta_txn(
                        net,
                        NodeId::new(i),
                        ReadScope::None,
                        &mut self.txn_recs[k],
                    );
                    self.protocol.apply_in_place(&mut txn, action);
                }
                debug_assert!(
                    self.txn_recs[k].is_committed(),
                    "apply_in_place must commit its transaction"
                );
            }
        }
    }

    /// The parallel half of write pass B: read-free writers bucketed by
    /// shard, each worker applying into its own chunk of the slots
    /// through [`ShardTxn`] (which panics on any neighbor read — the
    /// declaration's enforcement *and* the reason no other chunk is
    /// needed).
    fn commit_nonreaders_parallel(&mut self, pending: &[(u32, P::Action)]) {
        let partition = self.sync_partition.as_ref().expect("sharding configured");
        for w in self.shard_writers.iter_mut() {
            w.clear();
        }
        for (k, (i, _)) in pending.iter().enumerate() {
            if self.pending_profiles[k].is_reader() {
                continue;
            }
            let s = partition.shard_of(NodeId::new(*i as usize));
            self.shard_writers[s].push(k as u32);
        }
        // Size each shard's record pool (grow-only — keeps the Vec<Port>
        // capacity inside retired records warm across steps).
        for (s, ks) in self.shard_writers.iter().enumerate() {
            let recs = &mut self.shard_recs[s];
            while recs.len() < ks.len() {
                recs.push(TouchRecord::new());
            }
        }
        let net = &*self.net;
        let protocol = &self.protocol;
        let bounds = partition.bounds();
        let chunks = self.store.split_shards(bounds);
        let tracing = self.tracer.is_some();
        let phase_start = tracing.then(Instant::now);
        let mut items: Vec<WriteShard<'_, P::State>> = chunks
            .into_iter()
            .zip(self.shard_writers.iter())
            .zip(self.shard_recs.iter_mut())
            .enumerate()
            .map(|(s, ((chunk, ks), recs))| WriteShard {
                lo: bounds[s] as usize,
                chunk,
                ks,
                recs,
                span: None,
            })
            .collect();
        self.sync_pool.run_mut(&mut items, |_, it| {
            let t0 = tracing.then(Instant::now);
            let lo = it.lo;
            for (j, &k) in it.ks.iter().enumerate() {
                let (i, action) = &pending[k as usize];
                let i = *i as usize;
                let ctx = net.ctx(NodeId::new(i));
                let rec = &mut it.recs[j];
                rec.reset();
                {
                    let mut txn = ShardTxn::new(ctx, &mut it.chunk[i - lo], rec);
                    protocol.apply_in_place(&mut txn, action);
                }
                debug_assert!(
                    rec.is_committed(),
                    "apply_in_place must commit its transaction"
                );
            }
            if let Some(t0) = t0 {
                it.span = Some((t0, Instant::now()));
            }
        });
        if let Some(tracer) = self.tracer.as_mut() {
            let spans: Vec<_> = items.iter().map(|it| it.span).collect();
            emit_phase_spans(tracer, "write", phase_start, &spans);
        }
        // Swap each writer's record into the authoritative `txn_recs[k]`
        // slot so downstream passes (the port-dirty phases) read records
        // from one place regardless of which executor produced them.
        for (s, ks) in self.shard_writers.iter().enumerate() {
            for (j, &k) in ks.iter().enumerate() {
                std::mem::swap(&mut self.txn_recs[k as usize], &mut self.shard_recs[s][j]);
            }
        }
    }

    /// Shard-parallel dirty-node guard re-evaluation: dirty nodes are
    /// bucketed by owning shard and each worker rewrites its own chunk
    /// of the action-count array against the shared post-step
    /// configuration. Pure per-node work — the final counts (and hence
    /// the rebuilt enabled list) are independent of the schedule.
    fn reeval_parallel(&mut self, dirty: &[u32]) {
        let partition = self.sync_partition.as_ref().expect("sharding configured");
        for b in self.shard_dirty.iter_mut() {
            b.clear();
        }
        for &d in dirty {
            let s = partition.shard_of(NodeId::new(d as usize));
            self.shard_dirty[s].push(d);
        }
        let net = &*self.net;
        let protocol = &self.protocol;
        let config = self.store.slice();
        let bounds = partition.bounds();
        let counts = partition.split_mut(&mut self.action_count);
        let tracing = self.tracer.is_some();
        let phase_start = tracing.then(Instant::now);
        let mut items: Vec<EvalShard<'_, P::Action>> = counts
            .into_iter()
            .zip(self.shard_dirty.iter())
            .zip(self.shard_scratch.iter_mut())
            .zip(self.shard_actions.iter_mut())
            .enumerate()
            .map(|(s, (((counts, nodes), scratch), actions))| EvalShard {
                lo: bounds[s] as usize,
                counts,
                nodes,
                scratch,
                actions,
                span: None,
            })
            .collect();
        self.sync_pool.run_mut(&mut items, |_, it| {
            let t0 = tracing.then(Instant::now);
            let lo = it.lo;
            for &d in it.nodes {
                let node = NodeId::new(d as usize);
                let view = ConfigView::new(net, node, config);
                it.actions.clear();
                protocol.enabled_into(&view, it.actions, it.scratch);
                it.counts[d as usize - lo] = it.actions.len() as u32;
            }
            if let Some(t0) = t0 {
                it.span = Some((t0, Instant::now()));
            }
        });
        if let Some(tracer) = self.tracer.as_mut() {
            let spans: Vec<_> = items.iter().map(|it| it.span).collect();
            emit_phase_spans(tracer, "reeval", phase_start, &spans);
        }
    }

    /// Puts the taken enabled vector back where it came from.
    fn restore_enabled(&mut self, enabled: Vec<EnabledNode>) {
        if self.mode == EngineMode::FullSweep {
            self.scratch_enabled = enabled;
        } else {
            self.enabled_list = enabled;
        }
    }

    /// Runs until `stop` holds on the configuration or `max_steps` elapse.
    ///
    /// Returns counters for *this run only*. A terminal (silent)
    /// configuration that does not satisfy `stop` reports
    /// `converged == false`.
    pub fn run_until(
        &mut self,
        daemon: &mut impl Daemon,
        max_steps: u64,
        mut stop: impl FnMut(&[P::State]) -> bool,
    ) -> RunResult {
        let (s0, m0, r0) = (self.steps, self.moves, self.rounds);
        let mut converged = stop(self.store.slice());
        let mut budget = max_steps;
        while !converged && budget > 0 {
            if !self.step_commit(daemon) {
                break;
            }
            budget -= 1;
            converged = stop(self.store.slice());
        }
        RunResult {
            converged,
            steps: self.steps - s0,
            moves: self.moves - m0,
            rounds: self.rounds - r0,
        }
    }

    /// Runs until no processor is enabled (silence) or `max_steps` elapse.
    pub fn run_until_silent(&mut self, daemon: &mut impl Daemon, max_steps: u64) -> RunResult {
        let (s0, m0, r0) = (self.steps, self.moves, self.rounds);
        let mut converged = false;
        for _ in 0..max_steps {
            if !self.step_commit(daemon) {
                converged = true;
                break;
            }
        }
        // A freshly silent configuration may not have been probed yet.
        if !converged && self.enabled_nodes().is_empty() {
            converged = true;
        }
        RunResult {
            converged,
            steps: self.steps - s0,
            moves: self.moves - m0,
            rounds: self.rounds - r0,
        }
    }

    /// Runs for exactly `k` complete rounds (or until silent/`max_steps`).
    pub fn run_rounds(&mut self, daemon: &mut impl Daemon, k: u64, max_steps: u64) -> RunResult {
        let (s0, m0, r0) = (self.steps, self.moves, self.rounds);
        let target = self.rounds + k;
        let mut silent = false;
        let mut budget = max_steps;
        while self.rounds < target && budget > 0 {
            if !self.step_commit(daemon) {
                silent = true;
                break;
            }
            budget -= 1;
        }
        RunResult {
            converged: self.rounds >= target || silent,
            steps: self.steps - s0,
            moves: self.moves - m0,
            rounds: self.rounds - r0,
        }
    }
}

/// One shard's work item of the parallel resolution phase: its writer
/// jobs plus exclusive output/scratch buffers. Items are disjoint by
/// construction, which is what makes handing them to fleet workers
/// safe without locks.
struct ResolveShard<'x, A> {
    jobs: &'x [(u32, u32)],
    out: &'x mut Vec<(Option<A>, ApplyProfile)>,
    scratch: &'x mut Scratch,
    actions: &'x mut Vec<A>,
    /// The shard's slice of the port-cache words, present when the port
    /// cache composes with the sharded executor.
    chunk: Option<PortChunk<'x>>,
    /// Jobs that missed the port cache and fell back to a fresh guard
    /// evaluation — the phase's GuardEvals charge.
    misses: u64,
    /// The worker's busy window, captured only while a tracer is
    /// attached.
    span: Option<(Instant, Instant)>,
}

/// One shard's work item of the parallel write phase: the shard's chunk
/// of the configuration slots plus the read-free writers that land in
/// it.
struct WriteShard<'x, S> {
    lo: usize,
    chunk: &'x mut [S],
    ks: &'x [u32],
    /// One record per writer in `ks` order, swapped back into the
    /// step's `txn_recs` after the phase.
    recs: &'x mut [TouchRecord],
    /// The worker's busy window, captured only while a tracer is
    /// attached.
    span: Option<(Instant, Instant)>,
}

/// One shard's slice of the port-cache state: per-half-edge port words
/// and per-node summary words, with the offsets needed to rebase global
/// node/CSR indices into the slices.
struct PortChunk<'x> {
    ports: &'x mut [u64],
    words: &'x mut [u64],
    /// First node of the shard (rebases node indices).
    lo: usize,
    /// CSR slot of the shard's first half-edge (rebases CSR slots).
    csr_lo: usize,
}

/// One shard's work item of the parallel port-refresh phase: the
/// shard's writers plus its slices of the per-node state, producing raw
/// dirty-port candidates into per-writer segments of `out`.
struct PortRefreshShard<'x> {
    ks: &'x [u32],
    counts: &'x mut [u32],
    full: &'x mut [u64],
    chunk: PortChunk<'x>,
    out: &'x mut Vec<u64>,
    /// Per-writer segment ends into `out`, in `ks` order.
    ends: &'x mut Vec<u32>,
    /// Whole-rebuild verdicts — the phase's GuardEvals charge.
    whole: u64,
    /// The worker's busy window, captured only while a tracer is
    /// attached.
    span: Option<(Instant, Instant)>,
}

/// One shard's work item of the parallel port-reeval phase: the shard's
/// bucket of the canonical dirty-port queue plus its slices of the
/// per-node state.
struct PortEvalShard<'x> {
    queue: &'x [u64],
    counts: &'x mut [u32],
    full: &'x mut [u64],
    tmark: &'x mut [u64],
    chunk: PortChunk<'x>,
    touched_out: &'x mut Vec<u32>,
    /// Per-port re-evaluations — the phase's PortEvals charge.
    evals: u64,
    /// Whole-rebuild verdicts — the phase's GuardEvals charge.
    whole: u64,
    /// The worker's busy window, captured only while a tracer is
    /// attached.
    span: Option<(Instant, Instant)>,
}

/// One shard's work item of the parallel dirty re-evaluation: its chunk
/// of the action-count array plus the dirty nodes that land in it.
struct EvalShard<'x, A> {
    lo: usize,
    counts: &'x mut [u32],
    nodes: &'x [u32],
    scratch: &'x mut Scratch,
    actions: &'x mut Vec<A>,
    /// The worker's busy window, captured only while a tracer is
    /// attached.
    span: Option<(Instant, Instant)>,
}

/// CSR slot offsets of a partition's node bounds. Shards own contiguous
/// node ranges, so each shard's half-edges are a contiguous CSR range —
/// which is what lets the flat port-word array split into disjoint
/// per-shard `&mut` chunks.
fn csr_offsets(g: &sno_graph::Graph, bounds: &[u32]) -> Vec<usize> {
    let n = *bounds.last().expect("partition bounds are non-empty") as usize;
    bounds
        .iter()
        .map(|&b| {
            let b = b as usize;
            if b < n {
                g.csr_base(NodeId::new(b))
            } else {
                g.csr_len()
            }
        })
        .collect()
}

/// Splits `data` into consecutive `&mut` chunks at the given absolute
/// offsets (first `0`, last `data.len()`, non-decreasing) — the
/// variable-width analogue of [`Partition::split_mut`] for arrays that
/// are not one-slot-per-node.
fn split_at_offsets<'d, T>(mut data: &'d mut [T], offsets: &[usize]) -> Vec<&'d mut [T]> {
    debug_assert_eq!(offsets.first(), Some(&0));
    debug_assert_eq!(offsets.last(), Some(&data.len()));
    let mut out = Vec::with_capacity(offsets.len().saturating_sub(1));
    for w in offsets.windows(2) {
        let (head, tail) = data.split_at_mut(w[1] - w[0]);
        out.push(head);
        data = tail;
    }
    out
}

/// Emits one sharded phase's spans into `tracer`: each shard's busy
/// window plus its wait at the phase's implicit join barrier (busy end →
/// phase end) on the shard's own lane, and the phase extent on the
/// control lane — the Perfetto view where barrier imbalance is visible
/// as staggered `barrier` blocks.
fn emit_phase_spans(
    tracer: &mut TraceBuffer,
    phase: &'static str,
    phase_start: Option<Instant>,
    spans: &[Option<(Instant, Instant)>],
) {
    let phase_end = Instant::now();
    for (s, span) in spans.iter().enumerate() {
        let tid = s as u64;
        tracer.name_lane(tid, &format!("shard {s}"));
        if let Some((t0, t1)) = *span {
            tracer.push_span(phase, "sync-sharded", tid, t0, t1);
            tracer.push_span("barrier", "sync-sharded", tid, t1, phase_end);
        }
    }
    let control = spans.len() as u64;
    tracer.name_lane(control, "control");
    if let Some(t0) = phase_start {
        tracer.push_span(phase, "control", control, t0, phase_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{CentralRoundRobin, DistributedRandom, Synchronous};
    use crate::examples::{hop_distance_legit, HopDistance};

    fn net(n: usize) -> Network {
        Network::new(sno_graph::generators::path(n), NodeId::new(0))
    }

    #[test]
    fn silent_when_nothing_enabled() {
        let net = net(3);
        // Already-correct distances: nothing to do.
        let mut sim = Simulation::new(&net, HopDistance, vec![0, 1, 2]);
        assert!(sim.step(&mut CentralRoundRobin::new()).is_silent());
        assert_eq!(sim.steps(), 0);
    }

    #[test]
    fn counters_accumulate() {
        let net = net(5);
        let mut sim = Simulation::from_initial(&net, HopDistance);
        let run = sim.run_until_silent(&mut Synchronous::new(), 1_000);
        assert!(run.converged);
        assert!(run.moves >= run.steps, "moves dominate steps");
        assert_eq!(sim.steps(), run.steps);
    }

    #[test]
    fn rounds_advance_under_round_robin() {
        let net = net(6);
        let mut sim = Simulation::from_initial(&net, HopDistance);
        let run = sim.run_until_silent(&mut CentralRoundRobin::new(), 10_000);
        assert!(run.converged);
        // Distance propagation on a path takes about one round per hop.
        assert!(run.rounds >= 1, "at least one round elapsed");
        assert!(
            run.rounds <= 12,
            "rounds bounded by O(n): got {}",
            run.rounds
        );
    }

    #[test]
    fn synchronous_converges_in_height_rounds() {
        let g = sno_graph::generators::path(8);
        let net = Network::new(g, NodeId::new(0));
        let mut sim = Simulation::from_initial(&net, HopDistance);
        let run = sim.run_until_silent(&mut Synchronous::new(), 100);
        assert!(run.converged);
        // One synchronous step is exactly one round here.
        assert!(run.steps <= 8, "steps {} within height bound", run.steps);
        assert!(hop_distance_legit(&net, sim.config()));
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let net = net(6);
        let mut sim = Simulation::from_initial(&net, HopDistance);
        let run = sim.run_until(&mut CentralRoundRobin::new(), 10_000, |c| c[1] == 1);
        assert!(run.converged);
    }

    #[test]
    fn run_until_reports_failure_on_budget() {
        let net = net(6);
        let mut sim = Simulation::from_initial(&net, HopDistance);
        let run = sim.run_until(&mut CentralRoundRobin::new(), 1, |c| c[5] == 5);
        assert!(!run.converged);
    }

    #[test]
    fn distributed_daemon_commits_simultaneous_writes() {
        let net = net(10);
        let mut sim = Simulation::from_initial(&net, HopDistance);
        let mut daemon = DistributedRandom::seeded(5);
        let run = sim.run_until_silent(&mut daemon, 100_000);
        assert!(run.converged);
        assert!(hop_distance_legit(&net, sim.config()));
    }

    #[test]
    fn set_state_resets_round_accounting() {
        let net = net(4);
        let mut sim = Simulation::from_initial(&net, HopDistance);
        sim.run_until_silent(&mut CentralRoundRobin::new(), 1_000);
        sim.set_state(NodeId::new(2), 99);
        assert!(!sim.enabled_nodes().is_empty(), "fault re-enables work");
        let run = sim.run_until_silent(&mut CentralRoundRobin::new(), 1_000);
        assert!(run.converged);
        assert!(hop_distance_legit(&net, sim.config()));
    }

    #[test]
    fn reinit_random_matches_fresh_from_random() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let net = net(7);
        let mut fresh_rng = StdRng::seed_from_u64(5);
        let mut fresh = Simulation::from_random(&net, HopDistance, &mut fresh_rng);
        let fresh_run = fresh.run_until_silent(&mut CentralRoundRobin::new(), 10_000);

        // A simulation that already ran something else, then re-armed.
        let mut reused = Simulation::from_initial(&net, HopDistance);
        reused.run_until_silent(&mut CentralRoundRobin::new(), 10_000);
        let mut reused_rng = StdRng::seed_from_u64(5);
        reused.reinit_random(&mut reused_rng);
        let reused_run = reused.run_until_silent(&mut CentralRoundRobin::new(), 10_000);

        assert_eq!(fresh_run, reused_run, "identical counters from equal seeds");
        assert_eq!(fresh.config(), reused.config(), "identical final configs");
        assert_eq!(reused.steps(), reused_run.steps, "counters were zeroed");
    }

    #[test]
    fn reinit_initial_matches_from_initial() {
        use rand::SeedableRng;

        let net = net(5);
        let mut reused =
            Simulation::from_random(&net, HopDistance, &mut rand::rngs::StdRng::seed_from_u64(9));
        reused.run_until_silent(&mut Synchronous::new(), 1_000);
        reused.reinit_initial();
        let mut fresh = Simulation::from_initial(&net, HopDistance);
        assert_eq!(fresh.config(), reused.config());
        let a = fresh.run_until_silent(&mut Synchronous::new(), 1_000);
        let b = reused.run_until_silent(&mut Synchronous::new(), 1_000);
        assert_eq!(a, b);
    }

    #[test]
    fn simulation_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation<'static, HopDistance>>();
    }

    #[test]
    fn run_rounds_runs_requested_rounds() {
        let net = net(12);
        let mut sim = Simulation::from_initial(&net, HopDistance);
        let run = sim.run_rounds(&mut CentralRoundRobin::new(), 2, 10_000);
        assert!(run.converged);
        assert!(run.rounds >= 2 || sim.enabled_nodes().is_empty());
    }

    #[test]
    fn enabled_cache_tracks_full_sweep_every_step() {
        // The cross-mode invariant, probed directly: after every step the
        // incremental list equals a fresh full sweep.
        let net = net(9);
        let mut sim = Simulation::from_initial(&net, HopDistance);
        let mut daemon = DistributedRandom::seeded(11);
        for _ in 0..200 {
            let mut scratch = Vec::new();
            let mut arena = crate::protocol::Scratch::new();
            let mut swept = Vec::new();
            sim.fill_enabled(&mut scratch, &mut swept, &mut arena);
            assert_eq!(sim.enabled_nodes(), swept, "cache == sweep");
            if sim.step(&mut daemon).is_silent() {
                break;
            }
        }
    }

    #[test]
    fn engine_modes_produce_identical_traces() {
        // Three-way lockstep of the mode matrix on the engine's own
        // example protocol (which opts into the port interface).
        let net = net(11);
        let mut sims: Vec<_> = [
            EngineMode::FullSweep,
            EngineMode::NodeDirty,
            EngineMode::PortDirty,
        ]
        .into_iter()
        .map(|m| {
            use rand::SeedableRng as _;
            let mut rng = rand::rngs::StdRng::seed_from_u64(17);
            let mut s = Simulation::from_random(&net, HopDistance, &mut rng);
            s.set_mode(m);
            assert_eq!(s.mode(), m);
            s
        })
        .collect();
        let mut daemons: Vec<_> = (0..3).map(|_| DistributedRandom::seeded(4)).collect();
        loop {
            let outcomes: Vec<_> = sims
                .iter_mut()
                .zip(daemons.iter_mut())
                .map(|(s, d)| s.step(d))
                .collect();
            assert_eq!(outcomes[0], outcomes[1]);
            assert_eq!(outcomes[0], outcomes[2]);
            assert_eq!(sims[0].config(), sims[1].config());
            assert_eq!(sims[0].config(), sims[2].config());
            assert_eq!(
                (sims[0].steps(), sims[0].moves(), sims[0].rounds()),
                (sims[2].steps(), sims[2].moves(), sims[2].rounds())
            );
            if outcomes[0].is_silent() {
                break;
            }
        }
    }

    #[test]
    fn mode_switching_rebuilds_caches_consistently() {
        let net = net(13);
        let mut sim = Simulation::from_initial(&net, HopDistance);
        let mut daemon = CentralRoundRobin::new();
        let modes = [
            EngineMode::PortDirty,
            EngineMode::NodeDirty,
            EngineMode::FullSweep,
            EngineMode::PortDirty,
            EngineMode::FullSweep,
            EngineMode::NodeDirty,
            EngineMode::PortDirty,
        ];
        for (i, m) in modes.into_iter().cycle().take(40).enumerate() {
            sim.set_mode(m);
            let mut scratch = Vec::new();
            let mut arena = crate::protocol::Scratch::new();
            let mut swept = Vec::new();
            sim.fill_enabled(&mut scratch, &mut swept, &mut arena);
            assert_eq!(sim.enabled_nodes(), swept, "cache == sweep at step {i}");
            if sim.step(&mut daemon).is_silent() {
                break;
            }
        }
        sim.set_mode(EngineMode::PortDirty);
        let run = sim.run_until_silent(&mut daemon, 10_000);
        assert!(run.converged);
        assert!(hop_distance_legit(&net, sim.config()));
    }

    #[test]
    fn sync_sharded_matches_other_modes_with_forced_parallelism() {
        // Threshold 0 forces the parallel resolve/write/re-eval phases
        // on every multi-writer step, even on this tiny graph — the
        // lockstep then covers the sharded machinery itself: the
        // sharded port pass under PortDirty, and the sharded node
        // re-evaluation under NodeDirty.
        let g = sno_graph::generators::torus(4, 3);
        let net = Network::new(g, NodeId::new(0));
        let legs = [
            (EngineMode::FullSweep, None),
            (EngineMode::NodeDirty, None),
            (EngineMode::PortDirty, None),
            (EngineMode::PortDirty, Some((3, 2))),
            (EngineMode::NodeDirty, Some((3, 2))),
        ];
        for daemon_seed in [3u64, 9] {
            let mut sims: Vec<_> = legs
                .iter()
                .map(|&(m, sharding)| {
                    use rand::SeedableRng as _;
                    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
                    let mut s = Simulation::from_random(&net, HopDistance, &mut rng);
                    s.set_mode(m);
                    if let Some((shards, threads)) = sharding {
                        s.configure_sync_sharding(shards, threads);
                        s.set_sync_parallel_threshold(0);
                        assert_eq!(s.sync_shard_count(), 3);
                    }
                    s
                })
                .collect();
            let mut daemons: Vec<_> = (0..sims.len())
                .map(|_| DistributedRandom::seeded(daemon_seed))
                .collect();
            loop {
                let outcomes: Vec<_> = sims
                    .iter_mut()
                    .zip(daemons.iter_mut())
                    .map(|(s, d)| s.step(d))
                    .collect();
                for o in &outcomes[1..] {
                    assert_eq!(&outcomes[0], o);
                }
                for s in &sims[1..] {
                    assert_eq!(sims[0].config(), s.config());
                    assert_eq!(sims[0].enabled_nodes(), s.enabled_nodes());
                }
                if outcomes[0].is_silent() {
                    break;
                }
            }
        }
    }

    #[test]
    fn sync_sharded_is_shard_and_thread_count_invariant() {
        use rand::SeedableRng as _;
        let g = sno_graph::generators::torus(4, 4);
        let net = Network::new(g, NodeId::new(0));
        let run = |shards: usize, threads: usize, threshold: usize| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut sim = Simulation::from_random(&net, HopDistance, &mut rng);
            sim.configure_sync_sharding(shards, threads);
            sim.set_sync_parallel_threshold(threshold);
            let r = sim.run_until_silent(&mut Synchronous::new(), 10_000);
            (r, sim.config().to_vec())
        };
        let reference = run(1, 1, usize::MAX);
        for (shards, threads, threshold) in [(2, 2, 0), (4, 2, 0), (5, 3, 0), (4, 4, 2)] {
            assert_eq!(
                run(shards, threads, threshold),
                reference,
                "shards={shards} threads={threads} threshold={threshold}"
            );
        }
    }

    #[test]
    fn sync_sharded_synchronous_rounds_do_not_clone_under_oracle_dftno_like_profiles() {
        // HopDistance's conservative profile *does* preserve (adjacent
        // synchronous writers genuinely read each other), so the clone
        // counter must be positive here — the counter's sanity check.
        use rand::SeedableRng as _;
        let g = sno_graph::generators::path(12);
        let net = Network::new(g, NodeId::new(0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut sim = Simulation::from_random(&net, HopDistance, &mut rng);
        sim.run_until_silent(&mut Synchronous::new(), 10_000);
        assert!(
            sim.stage_clone_count() > 0,
            "conservative profiles must preserve on adjacent writers"
        );
    }

    #[test]
    fn port_dirty_handles_faults_conservatively() {
        let net = net(8);
        let mut sim = Simulation::from_initial(&net, HopDistance);
        assert!(sim.is_port_dirty_active(), "HopDistance opts in");
        sim.run_until_silent(&mut CentralRoundRobin::new(), 10_000);
        // An adversarial write is not an `apply` transition; set_state
        // must rebuild the port caches so subsequent steps stay exact.
        sim.set_state(NodeId::new(4), 0);
        let run = sim.run_until_silent(&mut CentralRoundRobin::new(), 10_000);
        assert!(run.converged);
        assert!(hop_distance_legit(&net, sim.config()));
    }

    #[test]
    fn full_sweep_mode_matches_incremental_exactly() {
        let net = net(10);
        let mut a = Simulation::from_initial(&net, HopDistance);
        let mut b = Simulation::from_initial(&net, HopDistance);
        b.set_mode(EngineMode::FullSweep);
        assert_eq!(
            (a.mode(), b.mode()),
            (EngineMode::PortDirty, EngineMode::FullSweep)
        );
        let mut da = DistributedRandom::seeded(3);
        let mut db = DistributedRandom::seeded(3);
        loop {
            let oa = a.step(&mut da);
            let ob = b.step(&mut db);
            assert_eq!(oa, ob, "identical step outcomes");
            assert_eq!(a.config(), b.config());
            assert_eq!(
                (a.steps(), a.moves(), a.rounds()),
                (b.steps(), b.moves(), b.rounds())
            );
            if oa.is_silent() {
                break;
            }
        }
    }

    #[test]
    fn topology_repair_matches_a_fresh_rebuild_after_every_event() {
        // The incremental-repair contract at the engine level: after each
        // event, the repaired enabled cache (and port caches, exercised by
        // continuing to step) must equal those of a simulation freshly
        // built over the mutated network with the same configuration.
        let g = sno_graph::generators::ring(8);
        let base = Network::with_bound(g, NodeId::new(0), 10);
        let mut sim = Simulation::from_initial(&base, HopDistance);
        sim.run_until_silent(&mut CentralRoundRobin::new(), 10_000);
        let events = [
            TopologyEvent::LinkAdd {
                u: NodeId::new(0),
                v: NodeId::new(4),
            },
            TopologyEvent::NodeJoin {
                links: vec![NodeId::new(2), NodeId::new(6)],
            },
            TopologyEvent::LinkFail {
                u: NodeId::new(0),
                v: NodeId::new(1),
            },
            TopologyEvent::NodeCrash {
                node: NodeId::new(3),
            },
        ];
        for event in events {
            sim.apply_topology_event(&event, None).unwrap();
            assert_eq!(sim.last_topology_event(), Some(&event));
            let fresh = Simulation::new(sim.network(), HopDistance, sim.config().to_vec());
            assert_eq!(sim.enabled_nodes(), fresh.enabled_nodes(), "{event}");
            let run = sim.run_until_silent(&mut CentralRoundRobin::new(), 10_000);
            assert!(run.converged, "reconverges after {event}");
        }
    }

    #[test]
    fn topology_events_keep_all_modes_in_lockstep() {
        use rand::SeedableRng as _;
        let g = sno_graph::generators::torus(4, 3);
        let base = Network::with_bound(g, NodeId::new(0), 14);
        let legs = [
            (EngineMode::FullSweep, false),
            (EngineMode::NodeDirty, false),
            (EngineMode::PortDirty, false),
            (EngineMode::PortDirty, true),
        ];
        let schedule: [(u64, TopologyEvent); 4] = [
            (
                2,
                TopologyEvent::LinkFail {
                    u: NodeId::new(0),
                    v: NodeId::new(1),
                },
            ),
            (
                5,
                TopologyEvent::NodeJoin {
                    links: vec![NodeId::new(3), NodeId::new(7)],
                },
            ),
            (
                8,
                TopologyEvent::LinkAdd {
                    u: NodeId::new(2),
                    v: NodeId::new(9),
                },
            ),
            (
                11,
                TopologyEvent::NodeCrash {
                    node: NodeId::new(5),
                },
            ),
        ];
        let mut sims: Vec<_> = legs
            .iter()
            .map(|&(m, sharded)| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(21);
                let mut s = Simulation::from_random(&base, HopDistance, &mut rng);
                s.set_mode(m);
                if sharded {
                    s.configure_sync_sharding(3, 2);
                    s.set_sync_parallel_threshold(0);
                }
                s
            })
            .collect();
        let mut daemons: Vec<_> = (0..sims.len())
            .map(|_| DistributedRandom::seeded(13))
            .collect();
        let mut step = 0u64;
        loop {
            if let Some((_, event)) = schedule.iter().find(|(at, _)| *at == step) {
                for sim in sims.iter_mut() {
                    // A seeded join-state rng per sim keeps arrivals
                    // identical across modes.
                    let mut rng = rand::rngs::StdRng::seed_from_u64(step);
                    sim.apply_topology_event(event, Some(&mut rng)).unwrap();
                }
            }
            let outcomes: Vec<_> = sims
                .iter_mut()
                .zip(daemons.iter_mut())
                .map(|(s, d)| s.step(d))
                .collect();
            for o in &outcomes[1..] {
                assert_eq!(&outcomes[0], o, "step {step}");
            }
            for s in &sims[1..] {
                assert_eq!(sims[0].config(), s.config(), "step {step}");
                assert_eq!(sims[0].enabled_nodes(), s.enabled_nodes(), "step {step}");
            }
            step += 1;
            if outcomes[0].is_silent() && step > 11 {
                break;
            }
            assert!(step < 10_000, "must reconverge");
        }
    }

    #[test]
    fn toggling_full_sweep_mid_run_stays_consistent() {
        let net = net(12);
        let mut sim = Simulation::from_initial(&net, HopDistance);
        let mut daemon = CentralRoundRobin::new();
        for i in 0..50 {
            sim.set_mode(if i % 3 == 0 {
                EngineMode::FullSweep
            } else {
                EngineMode::PortDirty
            });
            if sim.step(&mut daemon).is_silent() {
                break;
            }
        }
        sim.set_mode(EngineMode::PortDirty);
        let run = sim.run_until_silent(&mut daemon, 10_000);
        assert!(run.converged);
        assert!(hop_distance_legit(&net, sim.config()));
    }
}
