//! Campaign execution: expand a matrix, fan seed chunks out over a
//! worker pool, aggregate per-cell statistics.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sno_core::dftno::Dftno;
use sno_core::orientation::{golden_dfs_orientation, Orientation};
use sno_core::stno::{stno_oriented, Stno};
use sno_engine::daemon::Daemon;
use sno_engine::faults::corrupt_random;
use sno_engine::{
    CounterMeter, ExchangeBreakdown, Meter, Network, NoopMeter, Protocol, Simulation,
    TopologyEvent, TraceBuffer,
};
use sno_fleet::WorkerPool;
use sno_graph::{traverse, Graph, NodeId, Port, RootedTree};
use sno_token::{DfsTokenCirculation, OracleToken};
use sno_tree::{BfsSpanningTree, CdSpanningTree, OracleSpanningTree};
use std::sync::Arc;

use crate::matrix::{CellSpec, ScenarioMatrix};
use crate::report::{CampaignReport, CellReport};
use crate::spec::{FaultPlan, ProtocolSpec, TokenSubstrate, TreeSubstrate};

/// Decorrelates the daemon's RNG stream from the initial-configuration
/// stream derived from the same run seed.
const DAEMON_SALT: u64 = 0xDAE1_B0A7_5EED_0001;
/// Decorrelates the fault injector's RNG stream likewise.
const FAULT_SALT: u64 = 0xFA17_B0A7_5EED_0002;
/// Decorrelates the topology-event derivation stream likewise.
const TOPO_SALT: u64 = 0x70B0_B0A7_5EED_0003;

/// Counters of one simulation run within a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRecord {
    /// The run seed (initial configuration + daemon randomness).
    pub seed: u64,
    /// Whether the run reached its goal within the step budget.
    pub converged: bool,
    /// Action executions until the goal (or budget exhaustion).
    pub moves: u64,
    /// Daemon selections likewise.
    pub steps: u64,
    /// Complete asynchronous rounds likewise.
    pub rounds: u64,
    /// The re-convergence phase after an injected fault, when the cell's
    /// fault plan calls for one and the first phase converged.
    pub recovery: Option<Recovery>,
    /// Detection latency of a disconnecting plan (`churn-any`): daemon
    /// steps, summed over the run's perturbation windows, until every
    /// severed processor's detector flagged the disconnection. `None`
    /// for every other plan (and when no window ran).
    pub detection: Option<u64>,
}

/// Counters of a post-fault re-convergence phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Whether the run re-converged within the step budget.
    pub converged: bool,
    /// Action executions of the recovery phase.
    pub moves: u64,
    /// Daemon selections of the recovery phase.
    pub steps: u64,
    /// Complete rounds of the recovery phase.
    pub rounds: u64,
}

/// The raw result of one cell: the instantiated network's dimensions and
/// every run's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The cell that was run.
    pub cell: CellSpec,
    /// Actual node count of the instantiated topology.
    pub nodes: usize,
    /// Edge count of the instantiated topology.
    pub edges: usize,
    /// One record per seed, in seed order.
    pub runs: Vec<RunRecord>,
    /// Deterministic engine counters summed over every run of the cell
    /// (convergence and recovery phases alike). `None` unless the
    /// campaign ran with [`EngineOptions::metrics`] — the default
    /// campaign path is monomorphized over the no-op meter and collects
    /// nothing.
    pub metrics: Option<CounterMeter>,
    /// Boundary-traffic breakdown of the sharded port-dirty executor:
    /// cross-shard port hand-offs per exchange phase plus per-destination
    /// shard counts. Populated only for metered campaigns that actually
    /// ran the sharded executor and crossed a boundary — partition
    /// diagnostics, deliberately kept out of [`CounterMeter`] so the
    /// counter totals stay partition-independent.
    pub exchange: Option<ExchangeBreakdown>,
}

/// How a protocol stack's convergence is detected.
enum Mode {
    /// Run until a goal predicate holds on the configuration (used for
    /// `DFTNO`, whose token keeps circulating after orientation).
    Goal,
    /// Run until no action is enabled, then require the legitimacy
    /// predicate (used for `STNO`, which is silent).
    Silence,
}

/// Engine configuration a campaign applies to every simulation it
/// drives: the guard-invalidation mode and the shard count of the
/// incremental modes' sharded executor.
///
/// `None` fields fall back to the environment
/// (`SNO_ENGINE_MODE` / `SNO_SYNC_SHARDS`), which itself falls back to
/// the engine default. The `sno-lab run --mode/--shards` flags populate
/// this; reports are byte-identical under every choice — only the cost of a
/// step changes, never its result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineOptions {
    /// Explicit engine mode (overrides the environment).
    pub mode: Option<sno_engine::EngineMode>,
    /// Shard count for the sharded executor (engine worker threads
    /// follow the shard count). Above 1 it arms the parallel phases of
    /// the resolved incremental mode; the full-sweep reference ignores
    /// it.
    pub shards: Option<usize>,
    /// Collect deterministic engine counters
    /// ([`sno_engine::CounterMeter`]) for every cell. Off by default:
    /// the unmetered campaign is monomorphized over
    /// [`sno_engine::NoopMeter`], so reports — and the committed
    /// `BENCH_campaign.json` — stay byte-identical whether this build
    /// even knows about telemetry. With metrics on, the counter totals
    /// themselves are deterministic: byte-identical across thread
    /// counts, shard counts, and seed chunkings.
    pub metrics: bool,
}

impl EngineOptions {
    /// Resolves the effective mode: explicit option, then environment,
    /// then `None` (engine default).
    fn resolved_mode(&self) -> Option<sno_engine::EngineMode> {
        self.mode.or_else(engine_mode_from_env)
    }

    /// Resolves the effective shard count likewise.
    fn resolved_shards(&self) -> usize {
        self.shards
            .or_else(sync_shards_from_env)
            .unwrap_or(1)
            .max(1)
    }
}

/// Runs a whole campaign on the default number of worker threads.
///
/// Results are bit-for-bit deterministic in the matrix alone — thread
/// count and scheduling cannot affect them.
///
/// # Panics
///
/// Panics if the matrix fails [`ScenarioMatrix::validate`].
pub fn run_campaign(matrix: &ScenarioMatrix) -> CampaignReport {
    run_campaign_with_threads(matrix, sno_fleet::default_threads())
}

/// One persistent engine worker pool for the whole campaign, one
/// participant per shard: every cell's sharded simulations hand their
/// phases to the same parked workers instead of each spawning a pool of
/// its own (concurrent cells serialize whole phases inside the pool,
/// which is always safe). Workers start on the first parallel phase, so
/// a campaign that never shards spawns nothing.
fn campaign_pool(options: &EngineOptions) -> Arc<WorkerPool> {
    Arc::new(WorkerPool::new(options.resolved_shards()))
}

/// Applies the campaign's resolved engine options to one simulation,
/// wiring the shared campaign pool into sharded executors.
fn configure_engine<P: Protocol, M: Meter>(
    sim: &mut Simulation<'_, P, M>,
    options: &EngineOptions,
    pool: &Arc<WorkerPool>,
) {
    if let Some(mode) = options.resolved_mode() {
        sim.set_mode(mode);
    }
    let shards = options.resolved_shards();
    if shards > 1 {
        sim.configure_sync_sharding_with_pool(shards, Arc::clone(pool));
    }
}

/// One unit of pool work: a contiguous seed sub-range of one cell, plus
/// the slot its outcome lands in.
///
/// A matrix with few heavy cells would underutilize a cell-granular
/// pool, so the runner splits each cell's seed range into chunks and
/// re-assembles the per-cell records in seed order afterwards. Every
/// `(cell, seed)` run derives all of its randomness from the run seed
/// alone, so chunk boundaries (and therefore the thread count) cannot
/// leak into the report.
#[derive(Debug)]
struct SeedChunk {
    cell_index: usize,
    seed_lo: u64,
    seed_hi: u64,
    outcome: Option<CellOutcome>,
}

/// Picks the per-cell chunk size: whole cells when there are already
/// enough of them to keep the fleet busy, otherwise split so the campaign
/// yields at least ~2 work items per worker (but never below one seed).
fn seed_chunk_size(seeds_per_cell: u64, cell_count: usize, threads: usize) -> u64 {
    if threads <= 1 || cell_count >= threads.saturating_mul(2) {
        return seeds_per_cell.max(1);
    }
    let chunks_per_cell = ((threads * 2).div_ceil(cell_count.max(1))).max(1) as u64;
    seeds_per_cell.div_ceil(chunks_per_cell).max(1)
}

/// [`run_campaign`] with an explicit worker-thread count.
///
/// # Panics
///
/// Panics if the matrix fails [`ScenarioMatrix::validate`].
pub fn run_campaign_with_threads(matrix: &ScenarioMatrix, threads: usize) -> CampaignReport {
    run_campaign_with_options(matrix, threads, &EngineOptions::default())
}

/// [`run_campaign_with_threads`] with explicit [`EngineOptions`] — the
/// `sno-lab run --mode/--shards` entry point.
///
/// # Panics
///
/// Panics if the matrix fails [`ScenarioMatrix::validate`].
pub fn run_campaign_with_options(
    matrix: &ScenarioMatrix,
    threads: usize,
    options: &EngineOptions,
) -> CampaignReport {
    if let Err(e) = matrix.validate() {
        panic!("invalid scenario matrix: {e}");
    }
    let cells = matrix.cells();
    let chunk = seed_chunk_size(matrix.seeds_per_cell, cells.len(), threads);
    let seed_end = matrix.seed_start + matrix.seeds_per_cell;
    let mut items: Vec<SeedChunk> = Vec::new();
    for (cell_index, _) in cells.iter().enumerate() {
        let mut lo = matrix.seed_start;
        while lo < seed_end {
            let hi = (lo + chunk).min(seed_end);
            items.push(SeedChunk {
                cell_index,
                seed_lo: lo,
                seed_hi: hi,
                outcome: None,
            });
            lo = hi;
        }
    }
    // Two pools: this one fans seed chunks out, `campaign_pool` runs the
    // sharded engine phases inside them. They must stay separate —
    // `run_mut` holds a pool's phase lock across its barrier, so a chunk
    // starting an engine phase on the pool that is running the chunk
    // would wait for itself.
    let engine_pool = campaign_pool(options);
    WorkerPool::new(threads).run_mut_labeled(
        &mut items,
        |_, it| {
            it.outcome = Some(run_cell_seeds(
                &cells[it.cell_index],
                matrix,
                it.seed_lo,
                it.seed_hi,
                options,
                &engine_pool,
            ));
        },
        // Evaluated only when a worker panics: name the scenario cell
        // and seed sub-range so the failing run is attributable without
        // a single-threaded re-run.
        |_, it| {
            format!(
                "{} seeds {}..{}",
                cells[it.cell_index], it.seed_lo, it.seed_hi
            )
        },
    );
    // Stitch chunk outcomes back into whole cells. Items were generated
    // cell-major with ascending seed ranges and each holds its own
    // outcome, so plain concatenation restores seed order.
    let mut outcomes: Vec<CellOutcome> = Vec::with_capacity(cells.len());
    for it in items {
        let partial = it.outcome.expect("every seed chunk ran");
        match outcomes.last_mut() {
            Some(prev) if it.seed_lo != matrix.seed_start => {
                prev.runs.extend(partial.runs);
                // Counter merge is exact u64 addition — commutative and
                // associative — so the chunked total equals the
                // unchunked one and chunk boundaries still cannot leak
                // into the report.
                if let (Some(acc), Some(m)) = (prev.metrics.as_mut(), partial.metrics.as_ref()) {
                    acc.merge(m);
                }
                // Exchange breakdowns merge the same way (exact u64
                // sums, shard vectors zip-added), so chunking cannot
                // leak here either.
                match (prev.exchange.as_mut(), partial.exchange) {
                    (Some(acc), Some(b)) => acc.merge(&b),
                    (None, Some(b)) => prev.exchange = Some(b),
                    _ => {}
                }
            }
            _ => outcomes.push(partial),
        }
    }
    debug_assert_eq!(outcomes.len(), cells.len());
    let cell_reports: Vec<CellReport> = outcomes.iter().map(CellReport::from_outcome).collect();
    CampaignReport::new(matrix, cell_reports)
}

/// Runs every seed of one cell, reusing the network, simulation, and
/// daemon allocations across seeds.
pub fn run_cell(cell: &CellSpec, matrix: &ScenarioMatrix) -> CellOutcome {
    let options = EngineOptions::default();
    let pool = campaign_pool(&options);
    run_cell_seeds(
        cell,
        matrix,
        matrix.seed_start,
        matrix.seed_start + matrix.seeds_per_cell,
        &options,
        &pool,
    )
}

/// Runs the seeds `seed_lo .. seed_hi` of one cell.
///
/// The meter choice is made once here, outside the hot loops: the
/// metered and unmetered campaigns are separate monomorphizations of
/// [`drive`], so the default path carries no telemetry branches at all.
fn run_cell_seeds(
    cell: &CellSpec,
    matrix: &ScenarioMatrix,
    seed_lo: u64,
    seed_hi: u64,
    options: &EngineOptions,
    pool: &Arc<WorkerPool>,
) -> CellOutcome {
    if options.metrics {
        dispatch_stack(
            cell,
            matrix,
            DriveVisitor::<CounterMeter> {
                cell,
                matrix,
                seed_lo,
                seed_hi,
                options,
                pool,
                _meter: std::marker::PhantomData,
            },
        )
    } else {
        dispatch_stack(
            cell,
            matrix,
            DriveVisitor::<NoopMeter> {
                cell,
                matrix,
                seed_lo,
                seed_hi,
                options,
                pool,
                _meter: std::marker::PhantomData,
            },
        )
    }
}

/// Rank-2 dispatch from a cell's [`ProtocolSpec`] to its concrete
/// protocol stack: builds the topology, network, and goal predicate and
/// hands the visitor the monomorphic pieces. The campaign runner
/// ([`run_cell_seeds`]) and the `--trace` re-run ([`trace_first_cell`])
/// share it, so the spec-to-stack table exists exactly once.
trait StackVisitor {
    /// What the visitor produces from the concrete stack.
    type Out;
    /// Called with exactly one concrete `(protocol, detection mode,
    /// legitimacy predicate)` triple. The `Clone` bound lets
    /// topology-mutating fault plans build a fresh simulation per seed
    /// (every protocol value here is a small copyable struct). `detect`
    /// is the stack's disconnection-detection probe — `Some` only for
    /// stacks that can ride a disconnecting fault plan (`dcd`), where it
    /// holds once every severed processor has flagged the cut.
    fn visit<P, L>(
        self,
        net: &Network,
        protocol: P,
        mode: Mode,
        legit: L,
        detect: Option<Probe<'_, P>>,
    ) -> Self::Out
    where
        P: Protocol + Clone,
        L: Fn(&Network, &[P::State]) -> bool;
}

/// A borrowed state-typed predicate over `(current network, config)` —
/// the shape of both detection probes and legitimacy checks when they
/// have to cross the type-erased [`StackVisitor`] boundary.
type Probe<'a, P> = &'a dyn Fn(&Network, &[<P as Protocol>::State]) -> bool;

fn dispatch_stack<V: StackVisitor>(cell: &CellSpec, matrix: &ScenarioMatrix, v: V) -> V::Out {
    let g = cell.topology.build(cell.n, matrix.graph_seed);
    let root = NodeId::new(0);
    match cell.protocol {
        ProtocolSpec::Dftno(substrate) => {
            let oracle_walker = OracleToken::new(&g, root);
            let net = Network::new(g, root);
            // `DFTNO` converges to the golden first-DFS orientation under
            // both substrates; precomputing it makes the per-step goal
            // check allocation-free.
            let golden = golden_dfs_orientation(&net);
            match substrate {
                TokenSubstrate::Oracle => v.visit(
                    &net,
                    Dftno::new(oracle_walker),
                    Mode::Goal,
                    |net, c| dftno_matches(&golden, net, c),
                    None,
                ),
                TokenSubstrate::Dftc => v.visit(
                    &net,
                    Dftno::new(DfsTokenCirculation),
                    Mode::Goal,
                    |net, c| dftno_matches(&golden, net, c),
                    None,
                ),
            }
        }
        ProtocolSpec::Stno(substrate) => {
            let bfs = traverse::bfs(&g, root);
            let tree = RootedTree::from_parents(&g, root, &bfs.parent)
                .expect("BFS parents of a connected graph form a tree");
            let oracle_tree = OracleSpanningTree::from_graph(&g, &tree);
            // Node-arrival fault plans need room in the known bound `N`
            // for the joining processor; without headroom the bound is
            // exactly the node count, i.e. `Network::new`.
            let bound = g.node_count() + cell.fault.join_headroom();
            let net = Network::with_bound(g, root, bound);
            match substrate {
                TreeSubstrate::Oracle => v.visit(
                    &net,
                    Stno::new(oracle_tree),
                    Mode::Silence,
                    stno_oriented,
                    None,
                ),
                TreeSubstrate::Bfs => v.visit(
                    &net,
                    Stno::new(BfsSpanningTree),
                    Mode::Silence,
                    stno_oriented,
                    None,
                ),
                TreeSubstrate::CdDfs => v.visit(
                    &net,
                    Stno::new(CdSpanningTree),
                    Mode::Silence,
                    stno_oriented,
                    None,
                ),
            }
        }
        ProtocolSpec::Dcd => {
            let bound = g.node_count() + cell.fault.join_headroom();
            let net = Network::with_bound(g, root, bound);
            // The detector's detection probe: every processor the
            // *current* topology actually severs from the root holds a
            // saturated distance. Holds vacuously while the network is
            // whole, so a non-disconnecting window costs zero detection
            // steps.
            let probe = |net: &Network, c: &[sno_core::dcd::DcdState]| {
                let nb = net.n_bound();
                sno_core::dcd::severed_nodes(net)
                    .iter()
                    .all(|p| c[p.index()].is_disconnected(nb))
            };
            v.visit(
                &net,
                sno_core::dcd::Dcd,
                Mode::Silence,
                sno_core::dcd::dcd_legit,
                Some(&probe),
            )
        }
    }
}

/// The campaign visitor: drives every seed of the sub-range under the
/// meter type `M`.
struct DriveVisitor<'a, M> {
    cell: &'a CellSpec,
    matrix: &'a ScenarioMatrix,
    seed_lo: u64,
    seed_hi: u64,
    options: &'a EngineOptions,
    pool: &'a Arc<WorkerPool>,
    _meter: std::marker::PhantomData<M>,
}

impl<M: Meter + Default> StackVisitor for DriveVisitor<'_, M> {
    type Out = CellOutcome;

    fn visit<P, L>(
        self,
        net: &Network,
        protocol: P,
        mode: Mode,
        legit: L,
        detect: Option<Probe<'_, P>>,
    ) -> CellOutcome
    where
        P: Protocol + Clone,
        L: Fn(&Network, &[P::State]) -> bool,
    {
        drive::<P, L, M>(
            net,
            protocol,
            mode,
            legit,
            detect,
            self.cell,
            self.matrix,
            self.seed_lo,
            self.seed_hi,
            self.options,
            self.pool,
        )
    }
}

/// Allocation-free equality of a configuration's orientation variables
/// against a precomputed golden orientation.
fn dftno_matches<S>(
    golden: &Orientation,
    _net: &Network,
    config: &[sno_core::dftno::DftnoState<S>],
) -> bool {
    config
        .iter()
        .zip(golden.names.iter().zip(&golden.labels))
        .all(|(s, (&name, labels))| s.eta == name && s.pi == *labels)
}

/// Runs one concrete protocol stack over the seeds `seed_lo .. seed_hi`.
#[allow(clippy::too_many_arguments)]
fn drive<P, L, M>(
    net: &Network,
    protocol: P,
    mode: Mode,
    legit: L,
    detect: Option<Probe<'_, P>>,
    cell: &CellSpec,
    matrix: &ScenarioMatrix,
    seed_lo: u64,
    seed_hi: u64,
    options: &EngineOptions,
    pool: &Arc<WorkerPool>,
) -> CellOutcome
where
    P: Protocol + Clone,
    L: Fn(&Network, &[P::State]) -> bool,
    M: Meter + Default,
{
    if cell.fault.mutates_topology() {
        // Topology events mutate the simulation's copy-on-write network;
        // reusing one simulation across seeds would leak one seed's
        // mutations into the next, so these plans build fresh per seed.
        return drive_topology::<P, L, M>(
            net, protocol, mode, legit, detect, cell, matrix, seed_lo, seed_hi, options, pool,
        );
    }
    // Built from the campaign-wide seed (not the chunk's), so a chunked
    // and an unchunked fleet construct identical daemons.
    let mut daemon = cell.daemon.build(net, matrix.seed_start ^ DAEMON_SALT);
    let mut sim = Simulation::from_initial_with_meter(net, protocol, M::default());
    // Differential hooks: `--mode` (via `EngineOptions`) or
    // `SNO_ENGINE_MODE={full-sweep,node-dirty,port-dirty}` pins the
    // engine mode for the whole campaign, and `--shards` (via
    // `EngineOptions`) or `SNO_SYNC_SHARDS` its shard count. Reports
    // must come out byte-identical under every mode, shard count, and
    // thread count — CI regenerates `BENCH_campaign.json` under all of
    // them. Sharded simulations share the campaign pool.
    configure_engine(&mut sim, options, pool);
    // Setup work (simulation construction, the mode switch above)
    // happens once per *seed chunk*, so letting it into the counters
    // would leak the fleet's chunking into the report. Campaign metrics
    // measure the seeds' work only: zero the meter here, so per-chunk
    // totals are exact sums of per-seed work and merge chunk-count- and
    // thread-count-independently.
    *sim.meter_mut() = M::default();
    let mut runs = Vec::with_capacity((seed_hi - seed_lo) as usize);
    for seed in seed_lo..seed_hi {
        let mut one_seed = || -> RunRecord {
            let mut rng = StdRng::seed_from_u64(seed);
            sim.reinit_random(&mut rng);
            daemon.reset(seed ^ DAEMON_SALT);
            if let FaultPlan::AtStep { step, hits } = cell.fault {
                // Mid-run corruption: at most `step` selections before the
                // hit (a run that converges sooner is hit while silent),
                // then re-convergence, reported as the recovery phase. The
                // record's totals span both segments.
                let (_, am, a_steps, ar) = run_phase(
                    &mut sim,
                    &mut daemon,
                    &mode,
                    &legit,
                    net,
                    u64::from(step).min(matrix.max_steps),
                );
                let hits = (hits as usize).min(net.node_count());
                let mut fault_rng = StdRng::seed_from_u64(seed ^ FAULT_SALT);
                corrupt_random(&mut sim, hits, &mut fault_rng);
                sim.reset_counters();
                let (rc, rm, rs, rr) =
                    run_phase(&mut sim, &mut daemon, &mode, &legit, net, matrix.max_steps);
                return RunRecord {
                    seed,
                    converged: rc,
                    moves: am + rm,
                    steps: a_steps + rs,
                    rounds: ar + rr,
                    recovery: Some(Recovery {
                        converged: rc,
                        moves: rm,
                        steps: rs,
                        rounds: rr,
                    }),
                    detection: None,
                };
            }
            let (converged, moves, steps, rounds) =
                run_phase(&mut sim, &mut daemon, &mode, &legit, net, matrix.max_steps);

            let mut recovery = None;
            if converged {
                // `hits == 0` never reaches here: `ScenarioMatrix::validate`
                // rejects it, so the cap below only shrinks oversized plans.
                if let FaultPlan::AfterConvergence { hits } = cell.fault {
                    let hits = (hits as usize).min(net.node_count());
                    let mut fault_rng = StdRng::seed_from_u64(seed ^ FAULT_SALT);
                    corrupt_random(&mut sim, hits, &mut fault_rng);
                    sim.reset_counters();
                    let (rc, rm, rs, rr) =
                        run_phase(&mut sim, &mut daemon, &mode, &legit, net, matrix.max_steps);
                    recovery = Some(Recovery {
                        converged: rc,
                        moves: rm,
                        steps: rs,
                        rounds: rr,
                    });
                }
            }
            RunRecord {
                seed,
                converged,
                moves,
                steps,
                rounds,
                recovery,
                detection: None,
            }
        };
        let record = if M::ENABLED {
            // Metered campaigns catch per-seed panics to enrich the
            // message with the counter snapshot at the point of death,
            // then re-raise; `WorkerPool::run_mut_labeled` adds the cell
            // and seed-range label on top. The unmetered path keeps its
            // zero-overhead unwinding.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut one_seed)) {
                Ok(record) => record,
                Err(payload) => {
                    // The closure holds `&mut sim`; end it so the meter
                    // can be read for the snapshot.
                    #[allow(clippy::drop_non_drop)]
                    drop(one_seed);
                    let msg = sno_fleet::payload_message(payload.as_ref());
                    let counters = sim
                        .meter()
                        .counters()
                        .map_or_else(|| "unavailable".to_string(), |c| c.render());
                    let topo = topology_suffix(sim.last_topology_event());
                    panic!("seed {seed} panicked: {msg} [counters: {counters}]{topo}");
                }
            }
        } else {
            one_seed()
        };
        runs.push(record);
    }
    let metrics = sim.meter().counters().cloned();
    let exchange = exchange_of(&sim, metrics.is_some());
    CellOutcome {
        cell: *cell,
        nodes: net.node_count(),
        edges: net.graph().edge_count(),
        runs,
        metrics,
        exchange,
    }
}

/// Extracts the sharded executor's boundary-traffic breakdown from a
/// finished simulation — `None` for unmetered campaigns (keeps the
/// default report byte-identical) and when the executor never crossed a
/// shard boundary (serial modes, single-shard runs).
fn exchange_of<P: Protocol, M: Meter>(
    sim: &Simulation<'_, P, M>,
    metered: bool,
) -> Option<ExchangeBreakdown> {
    if !metered {
        return None;
    }
    let b = sim.exchange_breakdown();
    (!b.is_empty()).then_some(b)
}

/// The `[last topology event: …]` fragment of a metered panic message —
/// empty when the run never mutated its topology.
fn topology_suffix(event: Option<&TopologyEvent>) -> String {
    event.map_or_else(String::new, |e| format!(" [last topology event: {e}]"))
}

/// Runs one topology-mutating protocol stack over `seed_lo .. seed_hi`,
/// building a fresh simulation per seed (see [`drive`]). Every scheduled
/// event is derived from the run seed alone, so chunk boundaries and
/// thread counts still cannot leak into the report.
#[allow(clippy::too_many_arguments)]
fn drive_topology<P, L, M>(
    net: &Network,
    protocol: P,
    mode: Mode,
    legit: L,
    detect: Option<Probe<'_, P>>,
    cell: &CellSpec,
    matrix: &ScenarioMatrix,
    seed_lo: u64,
    seed_hi: u64,
    options: &EngineOptions,
    pool: &Arc<WorkerPool>,
) -> CellOutcome
where
    P: Protocol + Clone,
    L: Fn(&Network, &[P::State]) -> bool,
    M: Meter + Default,
{
    let mut daemon = cell.daemon.build(net, matrix.seed_start ^ DAEMON_SALT);
    let mut runs = Vec::with_capacity((seed_hi - seed_lo) as usize);
    let mut metrics: Option<CounterMeter> = None;
    let mut exchange: Option<ExchangeBreakdown> = None;
    for seed in seed_lo..seed_hi {
        let mut sim = Simulation::from_initial_with_meter(net, protocol.clone(), M::default());
        configure_engine(&mut sim, options, pool);
        // As in `drive`: construction and the mode switch are setup, not
        // the seed's work.
        *sim.meter_mut() = M::default();
        let mut one_seed = || -> RunRecord {
            let mut rng = StdRng::seed_from_u64(seed);
            sim.reinit_random(&mut rng);
            daemon.reset(seed ^ DAEMON_SALT);
            let mut topo_rng = StdRng::seed_from_u64(seed ^ TOPO_SALT);
            match cell.fault {
                FaultPlan::Churn { rate, seed: salt } => {
                    let (converged, moves, steps, rounds) =
                        run_phase(&mut sim, &mut daemon, &mode, &legit, net, matrix.max_steps);
                    let mut recovery = None;
                    if converged {
                        let mut churn_rng = StdRng::seed_from_u64(seed ^ salt ^ TOPO_SALT);
                        let (mut all_ok, mut tm, mut ts, mut tr) = (true, 0, 0, 0);
                        for _ in 0..rate {
                            apply_churn_window(&mut sim, &mut churn_rng);
                            sim.reset_counters();
                            let (rc, rm, rs, rr) = run_phase(
                                &mut sim,
                                &mut daemon,
                                &mode,
                                &legit,
                                net,
                                matrix.max_steps,
                            );
                            all_ok &= rc;
                            tm += rm;
                            ts += rs;
                            tr += rr;
                            if !rc {
                                break;
                            }
                        }
                        recovery = Some(Recovery {
                            converged: all_ok,
                            moves: tm,
                            steps: ts,
                            rounds: tr,
                        });
                    }
                    RunRecord {
                        seed,
                        converged,
                        moves,
                        steps,
                        rounds,
                        recovery,
                        detection: None,
                    }
                }
                FaultPlan::ChurnAny { rate, seed: salt } => {
                    let (converged, moves, steps, rounds) =
                        run_phase(&mut sim, &mut daemon, &mode, &legit, net, matrix.max_steps);
                    let mut recovery = None;
                    let mut detection = None;
                    if converged {
                        let mut churn_rng = StdRng::seed_from_u64(seed ^ salt ^ TOPO_SALT);
                        let (mut all_ok, mut tm, mut ts, mut tr) = (true, 0, 0, 0);
                        let mut detect_steps = 0u64;
                        for _ in 0..rate {
                            apply_any_churn_window(&mut sim, &mut churn_rng);
                            sim.reset_counters();
                            // Phase 1 — detection: drive until every
                            // severed processor flags the cut (zero steps
                            // when the window did not disconnect anything
                            // or the verdicts already agree). Counted into
                            // the window's recovery totals: detection is
                            // the first half of recovering.
                            let (mut dm, mut ds, mut dr) = (0, 0, 0);
                            let mut detected = true;
                            if let Some(probe) = detect {
                                // Snapshot the post-window topology: the
                                // ground truth is fixed for the phase, and
                                // `run_until`'s predicate cannot borrow the
                                // simulation it is driving.
                                let cur = sim.network().clone();
                                let r = sim
                                    .run_until(&mut daemon, matrix.max_steps, |c| probe(&cur, c));
                                detect_steps += r.steps;
                                (dm, ds, dr) = (r.moves, r.steps, r.rounds);
                                detected = r.converged;
                            }
                            // Phase 2 — full re-stabilization on top.
                            let (rc, rm, rs, rr) = if detected {
                                run_phase(
                                    &mut sim,
                                    &mut daemon,
                                    &mode,
                                    &legit,
                                    net,
                                    matrix.max_steps,
                                )
                            } else {
                                (false, 0, 0, 0)
                            };
                            all_ok &= rc;
                            tm += dm + rm;
                            ts += ds + rs;
                            tr += dr + rr;
                            if !rc {
                                break;
                            }
                        }
                        recovery = Some(Recovery {
                            converged: all_ok,
                            moves: tm,
                            steps: ts,
                            rounds: tr,
                        });
                        detection = detect.is_some().then_some(detect_steps);
                    }
                    RunRecord {
                        seed,
                        converged,
                        moves,
                        steps,
                        rounds,
                        recovery,
                        detection,
                    }
                }
                FaultPlan::LinkFail { step }
                | FaultPlan::LinkAdd { step }
                | FaultPlan::NodeCrash { step }
                | FaultPlan::NodeJoin { step } => {
                    // Segment A up to the scheduled step, the event, then
                    // re-convergence (reported as recovery, like `hit:K@S`).
                    let (_, am, a_steps, ar) = run_phase(
                        &mut sim,
                        &mut daemon,
                        &mode,
                        &legit,
                        net,
                        u64::from(step).min(matrix.max_steps),
                    );
                    apply_scheduled_event(&mut sim, &cell.fault, &mut topo_rng);
                    sim.reset_counters();
                    let (rc, rm, rs, rr) =
                        run_phase(&mut sim, &mut daemon, &mode, &legit, net, matrix.max_steps);
                    RunRecord {
                        seed,
                        converged: rc,
                        moves: am + rm,
                        steps: a_steps + rs,
                        rounds: ar + rr,
                        recovery: Some(Recovery {
                            converged: rc,
                            moves: rm,
                            steps: rs,
                            rounds: rr,
                        }),
                        detection: None,
                    }
                }
                _ => unreachable!("drive_topology only receives topology-mutating plans"),
            }
        };
        let record = if M::ENABLED {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut one_seed)) {
                Ok(record) => record,
                Err(payload) => {
                    #[allow(clippy::drop_non_drop)]
                    drop(one_seed);
                    let msg = sno_fleet::payload_message(payload.as_ref());
                    let counters = sim
                        .meter()
                        .counters()
                        .map_or_else(|| "unavailable".to_string(), |c| c.render());
                    let topo = topology_suffix(sim.last_topology_event());
                    panic!("seed {seed} panicked: {msg} [counters: {counters}]{topo}");
                }
            }
        } else {
            one_seed()
        };
        runs.push(record);
        if let Some(c) = sim.meter().counters() {
            match metrics.as_mut() {
                Some(acc) => acc.merge(c),
                None => metrics = Some(c.clone()),
            }
        }
        // Fresh sim per seed, so the breakdown is per-seed here and has
        // to be accumulated across the chunk.
        if let Some(b) = exchange_of(&sim, metrics.is_some()) {
            match exchange.as_mut() {
                Some(acc) => acc.merge(&b),
                None => exchange = Some(b),
            }
        }
    }
    CellOutcome {
        cell: *cell,
        nodes: net.node_count(),
        edges: net.graph().edge_count(),
        runs,
        metrics,
        exchange,
    }
}

/// Applies the single scheduled topology event of a `link-fail@S` /
/// `link-add@S` / `node-crash@S` / `node-join@S` plan, derived from the
/// run's topology RNG against the *current* (possibly already mutated)
/// graph. Plans whose precondition has vanished (no absent link to add,
/// no removable link, no room to join) degrade to a no-op rather than
/// fail the run.
fn apply_scheduled_event<P: Protocol, M: Meter>(
    sim: &mut Simulation<'_, P, M>,
    plan: &FaultPlan,
    rng: &mut dyn RngCore,
) {
    match plan {
        FaultPlan::LinkAdd { .. } => {
            if let Some((u, v)) = pick_absent_link(sim.network().graph(), rng) {
                sim.apply_topology_event(&TopologyEvent::LinkAdd { u, v }, None)
                    .expect("derived link addition is valid");
            }
        }
        FaultPlan::LinkFail { .. } => {
            if let Some((u, v)) = pick_removable_link(sim.network().graph(), rng) {
                sim.apply_topology_event(&TopologyEvent::LinkFail { u, v }, None)
                    .expect("derived link failure is valid");
            }
        }
        FaultPlan::NodeCrash { .. } => {
            // Restart semantics: the processor loses its state and links
            // atomically, then rejoins with the same links — a processor
            // reboot, which keeps the network connected without having to
            // search for a non-articulation victim.
            let n = sim.network().node_count();
            if n < 2 {
                return;
            }
            let x = NodeId::new(1 + (rng.next_u64() as usize) % (n - 1));
            let g = sim.network().graph();
            let links: Vec<NodeId> = (0..g.degree(x))
                .map(|l| g.neighbor(x, Port::new(l)))
                .collect();
            sim.apply_topology_event(&TopologyEvent::NodeCrash { node: x }, None)
                .expect("non-root crash is valid");
            for v in links {
                sim.apply_topology_event(&TopologyEvent::LinkAdd { u: x, v }, None)
                    .expect("re-adding a dropped link is valid");
            }
        }
        FaultPlan::NodeJoin { .. } => {
            let n = sim.network().node_count();
            if n >= sim.network().n_bound() {
                return;
            }
            let a = NodeId::new((rng.next_u64() as usize) % n);
            let mut links = vec![a];
            if n > 1 {
                let b = NodeId::new((rng.next_u64() as usize) % n);
                if b != a {
                    links.push(b);
                }
            }
            sim.apply_topology_event(&TopologyEvent::NodeJoin { links }, Some(rng))
                .expect("derived join is valid");
        }
        _ => unreachable!("not a single scheduled topology event"),
    }
}

/// One churn perturbation: a new link appears between two non-adjacent
/// processors and a non-bridge link fails, in that order (the addition
/// can turn a former bridge into a removable link). Either half degrades
/// to a no-op when the graph has no candidate.
fn apply_churn_window<P: Protocol, M: Meter>(
    sim: &mut Simulation<'_, P, M>,
    rng: &mut dyn RngCore,
) {
    if let Some((u, v)) = pick_absent_link(sim.network().graph(), rng) {
        sim.apply_topology_event(&TopologyEvent::LinkAdd { u, v }, None)
            .expect("derived link addition is valid");
    }
    if let Some((u, v)) = pick_removable_link(sim.network().graph(), rng) {
        sim.apply_topology_event(&TopologyEvent::LinkFail { u, v }, None)
            .expect("derived link failure is valid");
    }
}

/// One *unrestricted* churn perturbation (`churn-any`): a new link
/// appears between two non-adjacent processors and then any link —
/// bridges included — fails, so the window may disconnect processors
/// from the root. Only disconnection-aware stacks ride this
/// ([`ScenarioMatrix::validate`] enforces it).
fn apply_any_churn_window<P: Protocol, M: Meter>(
    sim: &mut Simulation<'_, P, M>,
    rng: &mut dyn RngCore,
) {
    if let Some((u, v)) = pick_absent_link(sim.network().graph(), rng) {
        sim.apply_topology_event(&TopologyEvent::LinkAdd { u, v }, None)
            .expect("derived link addition is valid");
    }
    if let Some((u, v)) = pick_any_link(sim.network().graph(), rng) {
        sim.apply_topology_event(&TopologyEvent::LinkFail { u, v }, None)
            .expect("derived link failure is valid");
    }
}

/// A uniformly-ish sampled absent link (bounded rejection sampling —
/// `None` on tiny or near-complete graphs).
fn pick_absent_link(g: &Graph, rng: &mut dyn RngCore) -> Option<(NodeId, NodeId)> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    for _ in 0..64 {
        let u = NodeId::new((rng.next_u64() as usize) % n);
        let v = NodeId::new((rng.next_u64() as usize) % n);
        if u == v {
            continue;
        }
        let adjacent = (0..g.degree(u)).any(|l| g.neighbor(u, Port::new(l)) == v);
        if !adjacent {
            return Some((u, v));
        }
    }
    None
}

/// A uniformly chosen link, bridge or not — `None` only on an edgeless
/// graph. The `churn-any` counterpart of [`pick_removable_link`].
fn pick_any_link(g: &Graph, rng: &mut dyn RngCore) -> Option<(NodeId, NodeId)> {
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(g.edge_count());
    for u in g.nodes() {
        for l in 0..g.degree(u) {
            let v = g.neighbor(u, Port::new(l));
            if u.index() < v.index() {
                edges.push((u, v));
            }
        }
    }
    if edges.is_empty() {
        return None;
    }
    Some(edges[(rng.next_u64() as usize) % edges.len()])
}

/// A randomly chosen link whose failure keeps the network connected —
/// `None` when every link is a bridge (e.g. on a tree).
fn pick_removable_link(g: &Graph, rng: &mut dyn RngCore) -> Option<(NodeId, NodeId)> {
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(g.edge_count());
    for u in g.nodes() {
        for l in 0..g.degree(u) {
            let v = g.neighbor(u, Port::new(l));
            if u.index() < v.index() {
                edges.push((u, v));
            }
        }
    }
    if edges.is_empty() {
        return None;
    }
    let start = (rng.next_u64() as usize) % edges.len();
    (0..edges.len())
        .map(|i| edges[(start + i) % edges.len()])
        .find(|&(u, v)| g.is_connected_without(u, v))
}

/// Renders the sharded executor's phase trace of the first seed of the
/// matrix's first cell as a Chrome trace-event JSON document
/// (`chrome://tracing` / Perfetto) — the `sno-lab run --trace` backend.
///
/// The re-run always uses [`EngineMode::PortDirty`](sno_engine::EngineMode::PortDirty)
/// with the options' resolved shard count (raised to at least 2 — a
/// one-shard trace has nothing to attribute) and a parallel-activation
/// threshold of zero, so the guard/write/re-eval phases fan out over the
/// shard fleet (one trace lane per shard) even at lab-scale instances.
/// Steps with a single writer still run the serial path — pair the flag
/// with a daemon that selects many writers (`synchronous`,
/// `distributed`) for a meaningful trace.
/// Engine modes agree bit-for-bit on every trajectory, so the traced run
/// computes exactly what the campaign's run of the same seed computed.
///
/// Returns `None` for an empty matrix.
pub fn trace_first_cell(matrix: &ScenarioMatrix, options: &EngineOptions) -> Option<String> {
    let cells = matrix.cells();
    let cell = cells.first()?;
    Some(dispatch_stack(
        cell,
        matrix,
        TraceVisitor {
            cell,
            matrix,
            seed: matrix.seed_start,
            shards: options.resolved_shards().max(2),
        },
    ))
}

/// The `--trace` visitor: one seed, sharded executor, tracer attached.
struct TraceVisitor<'a> {
    cell: &'a CellSpec,
    matrix: &'a ScenarioMatrix,
    seed: u64,
    shards: usize,
}

impl StackVisitor for TraceVisitor<'_> {
    type Out = String;

    fn visit<P, L>(
        self,
        net: &Network,
        protocol: P,
        mode: Mode,
        legit: L,
        _detect: Option<Probe<'_, P>>,
    ) -> String
    where
        P: Protocol + Clone,
        L: Fn(&Network, &[P::State]) -> bool,
    {
        let mut daemon = self
            .cell
            .daemon
            .build(net, self.matrix.seed_start ^ DAEMON_SALT);
        let mut sim = Simulation::from_initial(net, protocol);
        sim.set_mode(sno_engine::EngineMode::PortDirty);
        sim.configure_sync_sharding(self.shards, self.shards);
        sim.set_sync_parallel_threshold(0);
        sim.set_tracer(TraceBuffer::new());
        let mut rng = StdRng::seed_from_u64(self.seed);
        sim.reinit_random(&mut rng);
        daemon.reset(self.seed ^ DAEMON_SALT);
        let _ = run_phase(
            &mut sim,
            &mut daemon,
            &mode,
            &legit,
            net,
            self.matrix.max_steps,
        );
        sim.take_tracer()
            .expect("tracer was attached above")
            .to_chrome_json()
    }
}

/// The engine-mode label campaigns started with these options will run
/// under — printed in the `sno-lab run` report header (next to the
/// thread count) so cross-mode campaign diffs in CI are
/// self-describing.
pub fn engine_mode_label(options: &EngineOptions) -> String {
    use sno_engine::EngineMode;
    let mode = match options.resolved_mode() {
        // The reference engine ignores any shard count.
        Some(EngineMode::FullSweep) => return "full-sweep".to_string(),
        Some(EngineMode::NodeDirty) => "node-dirty",
        Some(EngineMode::PortDirty) => "port-dirty",
        None => "port-dirty (default)",
    };
    match options.resolved_shards() {
        1 => mode.to_string(),
        k => format!("{mode}, shards {k}"),
    }
}

/// The engine mode requested via the `SNO_ENGINE_MODE` environment
/// variable, if any. Unknown names panic — a silently ignored
/// differential hook would make the CI determinism gates vacuous.
fn engine_mode_from_env() -> Option<sno_engine::EngineMode> {
    use sno_engine::EngineMode;
    let v = std::env::var("SNO_ENGINE_MODE").ok()?;
    match v.as_str() {
        "full-sweep" => Some(EngineMode::FullSweep),
        "node-dirty" => Some(EngineMode::NodeDirty),
        "port-dirty" => Some(EngineMode::PortDirty),
        other => panic!(
            "unknown SNO_ENGINE_MODE {other:?} (expected full-sweep, node-dirty, or port-dirty)"
        ),
    }
}

/// The shard count requested via `SNO_SYNC_SHARDS`, if any (the
/// `--shards` flag overrides it).
fn sync_shards_from_env() -> Option<usize> {
    let v = std::env::var("SNO_SYNC_SHARDS").ok()?;
    Some(
        v.parse()
            .unwrap_or_else(|_| panic!("SNO_SYNC_SHARDS must be a positive integer, got {v:?}")),
    )
}

/// One convergence phase under the cell's detection mode.
fn run_phase<P, L, M>(
    sim: &mut Simulation<'_, P, M>,
    daemon: &mut Box<dyn Daemon>,
    mode: &Mode,
    legit: &L,
    net: &Network,
    max_steps: u64,
) -> (bool, u64, u64, u64)
where
    P: Protocol,
    L: Fn(&Network, &[P::State]) -> bool,
    M: Meter,
{
    match mode {
        Mode::Goal => {
            let r = sim.run_until(daemon, max_steps, |c| legit(net, c));
            (r.converged, r.moves, r.steps, r.rounds)
        }
        Mode::Silence => {
            let r = sim.run_until_silent(daemon, max_steps);
            // Evaluated against the simulation's own network, not the
            // `net` the cell was built from: under a topology-mutating
            // fault plan the two differ, and legitimacy is a property of
            // the *current* topology.
            let ok = r.converged && legit(sim.network(), sim.config());
            (ok, r.moves, r.steps, r.rounds)
        }
    }
}

/// Convenience for benches: one run of one cell, returning its record.
pub fn converge_once(cell: &CellSpec, seed: u64, max_steps: u64) -> RunRecord {
    let matrix = ScenarioMatrix::new("once")
        .topologies([cell.topology])
        .sizes([cell.n])
        .protocols([cell.protocol])
        .daemons([cell.daemon])
        .faults([cell.fault])
        .seeds(seed, 1)
        .max_steps(max_steps);
    if let Err(e) = matrix.validate() {
        panic!("invalid cell for converge_once: {e}");
    }
    let outcome = run_cell(cell, &matrix);
    outcome.runs[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DaemonSpec;
    use sno_core::dftno::dftno_orientation;
    use sno_graph::GeneratorSpec;

    fn tiny_matrix() -> ScenarioMatrix {
        ScenarioMatrix::new("tiny")
            .topologies([GeneratorSpec::Ring, GeneratorSpec::Star])
            .sizes([6])
            .protocols([
                ProtocolSpec::Dftno(TokenSubstrate::Oracle),
                ProtocolSpec::Stno(TreeSubstrate::Oracle),
            ])
            .daemons([DaemonSpec::CentralRandom])
            .seeds(0, 3)
            .max_steps(500_000)
    }

    #[test]
    fn tiny_campaign_fully_converges() {
        let report = run_campaign_with_threads(&tiny_matrix(), 2);
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.total_runs, 12);
        assert_eq!(report.total_converged, 12);
        for cell in &report.cells {
            assert_eq!(cell.convergence_rate, 1.0);
            assert!(cell.moves.is_some());
        }
    }

    #[test]
    fn campaigns_are_deterministic_across_thread_counts() {
        let m = tiny_matrix();
        let a = run_campaign_with_threads(&m, 1);
        let b = run_campaign_with_threads(&m, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_chunk_size_policy() {
        // Plenty of cells: keep whole cells as the work unit.
        assert_eq!(seed_chunk_size(100, 64, 8), 100);
        // A single heavy cell on 4 threads splits into ≥ 8 chunks.
        assert!(seed_chunk_size(100, 1, 4) <= 13);
        // Never degenerates below one seed per chunk.
        assert_eq!(seed_chunk_size(1, 1, 8), 1);
        // Single-threaded fleets do not pay the chunking overhead.
        assert_eq!(seed_chunk_size(100, 1, 1), 100);
    }

    #[test]
    fn seed_chunking_splits_heavy_cells_and_stays_byte_identical() {
        // One cell, 13 seeds: cell-granular work would serialize on one
        // worker, so this exercises the chunked path — and the report
        // must not depend on how (or whether) the range was split.
        let m = ScenarioMatrix::new("heavy-cell")
            .topologies([GeneratorSpec::Ring])
            .sizes([8])
            .protocols([ProtocolSpec::Stno(TreeSubstrate::Oracle)])
            .daemons([DaemonSpec::Distributed])
            .seeds(3, 13)
            .max_steps(1_000_000);
        let a = run_campaign_with_threads(&m, 1);
        let b = run_campaign_with_threads(&m, 4);
        let c = run_campaign_with_threads(&m, 7);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.to_json(), c.to_json(), "byte-identical JSON");
        assert_eq!(a.cells[0].runs, 13);
        let seeds: Vec<u64> = run_cell(&m.cells()[0], &m)
            .runs
            .iter()
            .map(|r| r.seed)
            .collect();
        assert_eq!(seeds, (3..16).collect::<Vec<u64>>(), "seed order");
    }

    #[test]
    fn metered_campaigns_are_deterministic_and_additive_only() {
        use sno_engine::Counter;
        let m = tiny_matrix();
        let metered = EngineOptions {
            metrics: true,
            ..EngineOptions::default()
        };
        let a = run_campaign_with_options(&m, 1, &metered);
        let b = run_campaign_with_options(&m, 4, &metered);
        // Counter totals are byte-identical across thread counts (and
        // with them seed chunkings) — the whole report compares equal,
        // metrics included.
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        for cell in &a.cells {
            let metrics = cell.metrics.as_ref().expect("metrics collected");
            assert!(
                metrics.get(Counter::GuardEvals) > 0,
                "guards were evaluated"
            );
            assert!(metrics.get(Counter::TxnCommits) > 0, "moves were committed");
            let moves = cell.moves.as_ref().expect("all runs converged");
            assert_eq!(
                metrics.get(Counter::TxnCommits),
                (moves.mean * moves.count as f64).round() as u64,
                "one transaction commit per move"
            );
        }
        assert!(a
            .to_json()
            .contains("\"metrics\":{\"counters\":{\"guard_evals\":"));
        assert!(a.to_markdown().contains("### Metrics"));

        // The unmetered campaign computes the same runs and renders the
        // same (metrics-free) sections — the meter only ever adds.
        let plain = run_campaign_with_threads(&m, 2);
        assert!(plain.cells.iter().all(|c| c.metrics.is_none()));
        assert!(plain.cells.iter().all(|c| c.exchange.is_none()));
        assert!(!plain.to_json().contains("\"metrics\""));
        assert!(!plain.to_json().contains("\"exchange\""));
        assert!(!plain.to_markdown().contains("### Metrics"));
        assert!(!plain.to_markdown().contains("### Exchange"));
        for (metered_cell, plain_cell) in a.cells.iter().zip(&plain.cells) {
            assert_eq!(metered_cell.moves, plain_cell.moves);
            assert_eq!(metered_cell.steps, plain_cell.steps);
            assert_eq!(metered_cell.rounds, plain_cell.rounds);
            assert_eq!(metered_cell.converged, plain_cell.converged);
        }
    }

    #[test]
    fn metered_sharded_campaign_reports_exchange_breakdown() {
        // Large enough that the synchronous enabled set clears the
        // sharded executor's dense-step threshold — smaller instances
        // fall back to the serial step and record no exchanges.
        let m = ScenarioMatrix::new("exchange")
            .topologies([GeneratorSpec::Hubs { hubs: 3 }])
            .sizes([256])
            .protocols([ProtocolSpec::Stno(TreeSubstrate::Oracle)])
            .daemons([DaemonSpec::Synchronous])
            .seeds(0, 2)
            .max_steps(100_000);
        let options = EngineOptions {
            mode: Some(sno_engine::EngineMode::PortDirty),
            shards: Some(4),
            metrics: true,
        };
        let a = run_campaign_with_options(&m, 1, &options);
        let b = run_campaign_with_options(&m, 4, &options);
        // For a fixed mode and shard count the breakdown is
        // deterministic: fleet threads and seed chunkings cannot leak.
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let ex = a.cells[0]
            .exchange
            .as_ref()
            .expect("sharded hub run crosses boundaries");
        assert!(ex.stats.exchanges > 0, "exchange phases ran");
        assert!(
            ex.stats.boundary_ports > 0,
            "hub topology hands ports across shards"
        );
        assert_eq!(
            ex.per_shard.iter().sum::<u64>(),
            ex.stats.boundary_ports,
            "per-shard counts partition the boundary total"
        );
        assert!(a.to_json().contains("\"exchange\":{\"local_ports\":"));
        assert!(a.to_markdown().contains("### Exchange boundary traffic"));
    }

    #[test]
    fn trace_renders_shard_lanes_for_the_first_cell() {
        let m = ScenarioMatrix::new("trace")
            .topologies([GeneratorSpec::Hubs { hubs: 3 }])
            .sizes([24])
            .protocols([ProtocolSpec::Stno(TreeSubstrate::Oracle)])
            .daemons([DaemonSpec::Synchronous])
            .seeds(0, 1)
            .max_steps(100_000);
        let options = EngineOptions {
            shards: Some(4),
            ..EngineOptions::default()
        };
        let doc = trace_first_cell(&m, &options).expect("non-empty matrix");
        assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
        for needle in [
            "\"ph\":\"M\"",
            "\"name\":\"thread_name\"",
            "\"shard 0\"",
            "\"shard 3\"",
            "\"control\"",
            "\"ph\":\"X\"",
            "\"name\":\"resolve\"",
            "\"name\":\"write\"",
            "\"name\":\"barrier\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
    }

    #[test]
    fn dftno_matches_agrees_with_full_predicate() {
        use sno_core::dftno::dftno_golden;
        use sno_engine::daemon::CentralRoundRobin;

        let g = GeneratorSpec::ChordalRing.build(8, 5);
        let root = NodeId::new(0);
        let oracle = OracleToken::new(&g, root);
        let net = Network::new(g, root);
        let golden = golden_dfs_orientation(&net);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sim = Simulation::from_random(&net, Dftno::new(oracle), &mut rng);
        let mut daemon = CentralRoundRobin::new();
        for _ in 0..50_000 {
            assert_eq!(
                dftno_matches(&golden, &net, sim.config()),
                dftno_golden(&net, sim.config()),
                "predicates must agree on every visited configuration"
            );
            if dftno_golden(&net, sim.config()) {
                break;
            }
            sim.step(&mut daemon);
        }
        assert!(dftno_golden(&net, sim.config()), "run must converge");
        // The extraction helper agrees as well.
        assert_eq!(dftno_orientation(sim.config()), golden);
    }

    #[test]
    fn fault_plans_measure_recovery() {
        let m = ScenarioMatrix::new("faulty")
            .topologies([GeneratorSpec::Path])
            .sizes([8])
            .protocols([ProtocolSpec::Stno(TreeSubstrate::Bfs)])
            .daemons([DaemonSpec::CentralRoundRobin])
            .faults([FaultPlan::AfterConvergence { hits: 2 }])
            .seeds(0, 3)
            .max_steps(2_000_000);
        let report = run_campaign_with_threads(&m, 2);
        let cell = &report.cells[0];
        assert_eq!(cell.convergence_rate, 1.0);
        let rec = cell.recovery_moves.as_ref().expect("recovery measured");
        assert_eq!(rec.count, 3);
        assert_eq!(cell.recovered, 3);
    }

    #[test]
    fn at_step_plans_hit_mid_run_and_measure_recovery() {
        let m = ScenarioMatrix::new("mid-run")
            .topologies([GeneratorSpec::Ring])
            .sizes([8])
            .protocols([ProtocolSpec::Stno(TreeSubstrate::Bfs)])
            .daemons([DaemonSpec::CentralRoundRobin])
            .faults([FaultPlan::AtStep { step: 25, hits: 2 }])
            .seeds(0, 3)
            .max_steps(2_000_000);
        let report = run_campaign_with_threads(&m, 2);
        let cell = &report.cells[0];
        assert_eq!(cell.convergence_rate, 1.0);
        assert_eq!(cell.recovered, 3);
        // The record's totals span both segments, so they dominate the
        // recovery phase alone.
        let rec = cell.recovery_steps.as_ref().expect("recovery measured");
        let all = cell.steps.as_ref().expect("steps measured");
        assert!(all.mean >= rec.mean);
    }

    fn topology_matrix(faults: &[FaultPlan]) -> ScenarioMatrix {
        ScenarioMatrix::new("topo")
            .topologies([GeneratorSpec::Hubs { hubs: 2 }, GeneratorSpec::RandomTree])
            .sizes([10])
            .protocols([ProtocolSpec::Stno(TreeSubstrate::Bfs)])
            .daemons([DaemonSpec::Distributed])
            .faults(faults.iter().copied())
            .seeds(0, 3)
            .max_steps(2_000_000)
    }

    #[test]
    fn topology_fault_plans_converge_after_every_event() {
        let m = topology_matrix(&[
            FaultPlan::LinkFail { step: 30 },
            FaultPlan::LinkAdd { step: 30 },
            FaultPlan::NodeCrash { step: 30 },
            FaultPlan::NodeJoin { step: 30 },
            FaultPlan::Churn { rate: 3, seed: 5 },
        ]);
        let report = run_campaign_with_threads(&m, 2);
        assert_eq!(report.cells.len(), 10);
        for cell in &report.cells {
            let label = format!("{} fault={}", cell.topology, cell.fault);
            assert_eq!(cell.convergence_rate, 1.0, "{label}");
            assert_eq!(cell.recovered, 3, "{label}");
        }
    }

    #[test]
    fn topology_campaigns_are_deterministic_across_threads_and_modes() {
        let m = topology_matrix(&[
            FaultPlan::NodeJoin { step: 20 },
            FaultPlan::Churn { rate: 2, seed: 9 },
        ]);
        let a = run_campaign_with_threads(&m, 1);
        let b = run_campaign_with_threads(&m, 4);
        assert_eq!(a, b);
        // Engine modes agree byte-for-byte even across topology events —
        // the JSON is the CI determinism artifact.
        for mode in [
            sno_engine::EngineMode::FullSweep,
            sno_engine::EngineMode::NodeDirty,
            sno_engine::EngineMode::PortDirty,
        ] {
            let options = EngineOptions {
                mode: Some(mode),
                shards: Some(3),
                ..EngineOptions::default()
            };
            let c = run_campaign_with_options(&m, 2, &options);
            assert_eq!(a.to_json(), c.to_json(), "{mode:?}");
        }
    }

    #[test]
    fn churn_any_campaign_measures_detection_latency_deterministically() {
        // On a random tree every link is a bridge, so unrestricted churn
        // windows genuinely sever processors and the detector has real
        // work to do.
        let m = ScenarioMatrix::new("churn-any-test")
            .topologies([GeneratorSpec::RandomTree])
            .sizes([10])
            .protocols([ProtocolSpec::Dcd])
            .daemons([DaemonSpec::Distributed])
            .faults([FaultPlan::ChurnAny { rate: 2, seed: 3 }])
            .seeds(0, 4)
            .max_steps(2_000_000);
        let a = run_campaign_with_threads(&m, 1);
        let b = run_campaign_with_threads(&m, 4);
        assert_eq!(a, b, "detection latency is seed-derived, thread-free");
        let cell = &a.cells[0];
        assert_eq!(cell.convergence_rate, 1.0, "dcd rides out every window");
        assert_eq!(cell.recovered, 4, "every run's windows re-converged");
        let d = cell
            .detection_steps
            .as_ref()
            .expect("churn-any reports detection latency");
        assert_eq!(d.count, 4, "one detection total per converged run");
        assert!(
            d.max > 0,
            "at least one window severed processors and made the detector count"
        );
        assert!(a.to_json().contains("\"detection_steps\""));
        assert!(a.to_markdown().contains("### Detection latency"));
        // Restricted churn cells don't grow the new column.
        assert!(!run_campaign_with_threads(
            &ScenarioMatrix::new("plain-churn")
                .topologies([GeneratorSpec::RandomTree])
                .sizes([10])
                .protocols([ProtocolSpec::Stno(TreeSubstrate::Bfs)])
                .daemons([DaemonSpec::Distributed])
                .faults([FaultPlan::Churn { rate: 1, seed: 3 }])
                .seeds(0, 2)
                .max_steps(2_000_000),
            1,
        )
        .to_json()
        .contains("detection_steps"));
    }

    #[test]
    fn churn_preset_is_a_valid_topology_campaign() {
        let m = crate::matrix::churn_preset();
        m.validate().unwrap();
        assert!(m.seeds_per_cell >= 32);
        let rates: std::collections::HashSet<u8> = m
            .faults
            .iter()
            .map(|f| match f {
                FaultPlan::Churn { rate, .. } => *rate,
                other => panic!("non-churn plan {other} in the churn preset"),
            })
            .collect();
        assert!(rates.len() >= 3, "at least three churn rates");
    }

    #[test]
    fn converge_once_matches_campaign_cell() {
        let m = tiny_matrix();
        let cells = m.cells();
        let outcome = run_cell(&cells[0], &m);
        let single = converge_once(&cells[0], m.seed_start, m.max_steps);
        assert_eq!(outcome.runs[0], single);
    }
}
