//! Misuse and equivalence tests of the engine's state-transaction write
//! API.
//!
//! Two layers:
//!
//! * **misuse** — the `StateTxn` contract is enforced loudly: committing
//!   twice always panics; out-of-range `touch_port` and use-after-commit
//!   are debug-asserted (the whole workspace tests with debug
//!   assertions on);
//! * **equivalence** — a proptest drives the in-place engine (all three
//!   invalidation modes) in lockstep against a reference that replays
//!   every step through the clone-based `apply_via_clone` shim onto a
//!   `EngineMode::FullSweep` simulation, asserting identical configurations at
//!   every step. This is the migration's ground truth: the transaction
//!   API must be observationally identical to the old
//!   `apply(&self, view, action) -> State` contract.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sno::core::dftno::Dftno;
use sno::core::stno::Stno;
use sno::engine::daemon::Daemon;
use sno::engine::examples::HopDistance;
use sno::engine::protocol::{
    apply_via_clone, ConfigView, StateTxn as _, TouchRecord, TouchScope, WriteTxn,
};
use sno::engine::{EngineMode, Network, NodeView, Protocol, Simulation};
use sno::graph::{generators, NodeId, Port};
use sno::lab::DaemonSpec;
use sno::token::OracleToken;
use sno::tree::BfsSpanningTree;

fn path_net(n: usize) -> Network {
    Network::new(generators::path(n), NodeId::new(0))
}

// --- Misuse ---

#[test]
#[should_panic(expected = "committed twice")]
fn double_commit_panics() {
    let net = path_net(2);
    let mut states = vec![0u32, 5];
    let mut rec = TouchRecord::new();
    let mut txn = WriteTxn::split(&net, NodeId::new(1), &mut states, &mut rec);
    txn.commit();
    txn.commit();
}

#[test]
#[should_panic(expected = "touch_port out of range")]
fn out_of_range_port_touch_panics_in_debug() {
    let net = path_net(2);
    let mut states = vec![0u32, 5];
    let mut rec = TouchRecord::new();
    let mut txn = WriteTxn::split(&net, NodeId::new(1), &mut states, &mut rec);
    // Node 1 of a 2-path has degree 1: port 3 does not exist.
    txn.touch_port(Port::new(3));
}

#[test]
#[should_panic(expected = "after commit")]
fn write_after_commit_panics_in_debug() {
    let net = path_net(2);
    let mut states = vec![0u32, 5];
    let mut rec = TouchRecord::new();
    let mut txn = WriteTxn::split(&net, NodeId::new(1), &mut states, &mut rec);
    txn.commit();
    *txn.state_mut() = 1;
}

#[test]
#[should_panic(expected = "after commit")]
fn touch_after_commit_panics_in_debug() {
    let net = path_net(2);
    let mut states = vec![0u32, 5];
    let mut rec = TouchRecord::new();
    let mut txn = WriteTxn::split(&net, NodeId::new(1), &mut states, &mut rec);
    txn.commit();
    txn.touch_all_ports();
}

#[test]
fn scope_resolution_rules() {
    let net = path_net(3);
    let mut states = vec![0u32, 5, 9];
    let mut rec = TouchRecord::new();
    {
        let mut txn = WriteTxn::split(&net, NodeId::new(1), &mut states, &mut rec);
        *txn.state_mut() = 1;
        txn.commit();
    }
    // An undeclared write is conservatively visible everywhere.
    assert_eq!(rec.scope(), TouchScope::All);

    rec.reset();
    {
        let mut txn = WriteTxn::split(&net, NodeId::new(1), &mut states, &mut rec);
        *txn.state_mut() = 2;
        txn.mark_unobservable();
        txn.commit();
    }
    assert_eq!(rec.scope(), TouchScope::Ports(&[]));

    rec.reset();
    {
        let mut txn = WriteTxn::split(&net, NodeId::new(1), &mut states, &mut rec);
        *txn.state_mut() = 3;
        txn.touch_port(Port::new(1));
        txn.commit();
    }
    assert_eq!(rec.scope(), TouchScope::Ports(&[Port::new(1)]));
}

// --- Equivalence: a txn replayed against a full-sweep simulation reproduces
// the cloned-`apply` reference states ---

/// Steps `sim` (the in-place engine) with `daemon`, mirroring every
/// executed action onto `shadow` via the clone-based reference shim,
/// and asserts the configurations agree. Returns `false` on silence.
fn lockstep_against_clone_shim<P>(
    net: &Network,
    protocol: &P,
    sim: &mut Simulation<'_, P>,
    daemon: &mut Box<dyn Daemon>,
    shadow: &mut [P::State],
) -> bool
where
    P: Protocol,
    P::State: PartialEq + std::fmt::Debug,
{
    use sno::engine::StepOutcome;
    match sim.step(daemon) {
        StepOutcome::Silent => false,
        StepOutcome::Executed(moves) => {
            // Resolve every write against the *pre-step* shadow, then
            // commit the batch — the composite atomicity the in-place
            // engine must preserve even though it writes live slots.
            let staged: Vec<_> = moves
                .iter()
                .map(|(p, a)| (*p, apply_via_clone(protocol, net, *p, shadow, a)))
                .collect();
            for (p, s) in staged {
                shadow[p.index()] = s;
            }
            assert_eq!(
                sim.config(),
                &shadow[..],
                "in-place diverged from clone shim"
            );
            true
        }
    }
}

fn assert_clone_shim_equivalence<P>(net: &Network, protocol: P, daemon: DaemonSpec, seed: u64)
where
    P: Protocol + Clone,
    P::State: PartialEq + std::fmt::Debug,
{
    for (mode, sharded) in [
        (EngineMode::FullSweep, false),
        (EngineMode::NodeDirty, false),
        (EngineMode::PortDirty, false),
        (EngineMode::PortDirty, true),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim = Simulation::from_random(net, protocol.clone(), &mut rng);
        sim.set_mode(mode);
        if sharded {
            // Force the shard-parallel phases even on small graphs so
            // the replay covers them, not just the serial fallback.
            sim.configure_sync_sharding(3, 2);
            sim.set_sync_parallel_threshold(0);
        }
        let mut shadow = sim.config().to_vec();
        let mut d = daemon.build(net, seed);
        for _ in 0..200 {
            if !lockstep_against_clone_shim(net, &protocol, &mut sim, &mut d, &mut shadow) {
                break;
            }
        }
    }
}

/// The delta-staging acceptance matrix: multi-writer synchronous steps
/// replayed through the copy-on-write commit against the clone-based
/// shim, for every daemon family × four topology families, under both
/// the serial and the forced-parallel sharded executor. `DFTNO` (precise
/// [`ApplyProfile`]s over the oracle walker) and `STNO` over the live
/// BFS tree (mixed precise/conservative profiles) cover both ends of
/// the declaration spectrum.
#[test]
fn multi_writer_sync_steps_match_clone_shim_across_daemons_and_topologies() {
    let daemons = [
        DaemonSpec::Synchronous,
        DaemonSpec::Distributed,
        DaemonSpec::LocallyCentral,
        DaemonSpec::CentralRandom,
        DaemonSpec::CentralRoundRobin,
    ];
    let topologies: [(&str, sno::graph::Graph); 4] = [
        ("path", generators::path(12)),
        ("star", generators::star(12)),
        ("random-tree", generators::random_tree(12, 31)),
        ("torus", generators::torus(4, 3)),
    ];
    for (name, g) in topologies {
        let net = Network::new(g.clone(), NodeId::new(0));
        for (i, d) in daemons.into_iter().enumerate() {
            let seed = 400 + i as u64;
            let dftno = Dftno::new(OracleToken::new(&g, NodeId::new(0)));
            assert_clone_shim_equivalence(&net, dftno, d, seed);
            assert_clone_shim_equivalence(&net, Stno::new(BfsSpanningTree), d, seed);
            let _ = name;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn txn_replay_matches_clone_shim_hop_distance((n, extra, gseed, seed) in arb_case()) {
        let g = generators::random_connected(n, extra, gseed);
        let net = Network::new(g, NodeId::new(0));
        assert_clone_shim_equivalence(&net, HopDistance, DaemonSpec::Distributed, seed);
    }

    #[test]
    fn txn_replay_matches_clone_shim_dftno((n, extra, gseed, seed) in arb_case()) {
        let g = generators::random_connected(n, extra, gseed);
        let proto = Dftno::new(OracleToken::new(&g, NodeId::new(0)));
        let net = Network::new(g, NodeId::new(0));
        assert_clone_shim_equivalence(&net, proto, DaemonSpec::Synchronous, seed);
    }

    #[test]
    fn txn_replay_matches_clone_shim_stno_live((n, extra, gseed, seed) in arb_case()) {
        let g = generators::random_connected(n, extra, gseed);
        let net = Network::new(g, NodeId::new(0));
        assert_clone_shim_equivalence(
            &net,
            Stno::new(BfsSpanningTree),
            DaemonSpec::CentralRandom,
            seed,
        );
    }
}

fn arb_case() -> impl Strategy<Value = (usize, usize, u64, u64)> {
    (4usize..=12, 0usize..=8, any::<u64>(), any::<u64>())
}

#[test]
fn apply_via_clone_agrees_with_engine_single_steps() {
    // Deterministic spot check without proptest: drive DFTNO/oracle with
    // the central round robin (the zero-clone hub path) and diff every
    // step against the shim.
    let g = generators::star(24);
    let proto = Dftno::new(OracleToken::new(&g, NodeId::new(0)));
    let net = Network::new(g, NodeId::new(0));
    let mut rng = StdRng::seed_from_u64(11);
    let mut sim = Simulation::from_random(&net, proto.clone(), &mut rng);
    let mut shadow = sim.config().to_vec();
    let mut daemon = DaemonSpec::CentralRoundRobin.build(&net, 0);
    for _ in 0..500 {
        if !lockstep_against_clone_shim(&net, &proto, &mut sim, &mut daemon, &mut shadow) {
            break;
        }
    }
    assert!(sim.steps() > 0);
}

#[test]
fn enabled_views_and_txn_views_agree() {
    // The WriteTxn's NodeView face must report exactly what ConfigView
    // reports before any write.
    let g = generators::random_connected(9, 5, 3);
    let net = Network::new(g, NodeId::new(0));
    let mut states: Vec<u32> = (0..9).map(|i| i * 3 % 7).collect();
    for p in net.nodes() {
        let deg = net.graph().degree(p);
        let reference: Vec<u32> = {
            let view = ConfigView::new(&net, p, &states);
            (0..deg).map(|l| *view.neighbor(Port::new(l))).collect()
        };
        let own = states[p.index()];
        let mut rec = TouchRecord::new();
        let mut txn = WriteTxn::split(&net, p, &mut states, &mut rec);
        assert_eq!(*txn.state(), own);
        for (l, want) in reference.iter().enumerate() {
            assert_eq!(txn.neighbor(Port::new(l)), want);
        }
        txn.commit();
    }
}

// --- The zero-clone pin ---
//
// Delta staging's headline claim: a statement that declares
// `ReadScope::None` can never force a copy-on-write preservation, so a
// protocol made of such statements commits arbitrarily dense
// multi-writer synchronous rounds with **zero** whole-state clones —
// not just zero allocations. The state type below counts every
// `clone`/`clone_from` it suffers, which pins the claim exactly.

use std::sync::atomic::{AtomicU64, Ordering};

use sno::engine::ApplyProfile;

static STATE_COPIES: AtomicU64 = AtomicU64::new(0);

#[derive(Debug, PartialEq, Eq, Hash)]
struct CountedState(u32);

impl Clone for CountedState {
    fn clone(&self) -> Self {
        STATE_COPIES.fetch_add(1, Ordering::Relaxed);
        CountedState(self.0)
    }

    fn clone_from(&mut self, source: &Self) {
        STATE_COPIES.fetch_add(1, Ordering::Relaxed);
        self.0 = source.0;
    }
}

/// Every processor counts its own variable down, reading no neighbor —
/// the pure `ReadScope::None` regime (DFTNO's repair rounds are the
/// realistic approximation of it).
#[derive(Debug, Clone, Copy)]
struct LocalCountdown;

impl Protocol for LocalCountdown {
    type State = CountedState;
    type Action = ();

    fn enabled(&self, view: &impl sno::engine::NodeView<CountedState>, out: &mut Vec<()>) {
        if view.state().0 > 0 {
            out.push(());
        }
    }

    fn apply_profile(
        &self,
        _view: &impl sno::engine::NodeView<CountedState>,
        _action: &(),
    ) -> ApplyProfile {
        ApplyProfile::local(1)
    }

    fn apply_in_place(&self, txn: &mut impl sno::engine::StateTxn<CountedState>, _action: &()) {
        txn.state_mut().0 -= 1;
        txn.touch_all_ports();
        txn.commit();
    }

    fn initial_state(&self, _ctx: &sno::engine::NodeCtx) -> CountedState {
        CountedState(0)
    }

    fn random_state(
        &self,
        _ctx: &sno::engine::NodeCtx,
        rng: &mut dyn rand::RngCore,
    ) -> CountedState {
        CountedState(rng.next_u32() % 8 + 1)
    }
}

#[test]
fn read_free_multi_writer_sync_rounds_perform_zero_state_clones() {
    let g = generators::torus(5, 5);
    let net = Network::new(g, NodeId::new(0));
    for (mode, shards, threads) in [
        (EngineMode::NodeDirty, 1, 1),
        (EngineMode::PortDirty, 1, 1),
        (EngineMode::PortDirty, 4, 2),
    ] {
        let mut rng = StdRng::seed_from_u64(13);
        let mut sim = Simulation::from_random(&net, LocalCountdown, &mut rng);
        sim.set_mode(mode);
        if shards > 1 {
            sim.configure_sync_sharding(shards, threads);
            sim.set_sync_parallel_threshold(0);
        }
        // Every node starts enabled: the first synchronous steps are
        // maximal 25-writer rounds.
        let copies_before = STATE_COPIES.load(Ordering::Relaxed);
        let run = sim.run_until_silent(&mut sno::engine::daemon::Synchronous::new(), 1_000);
        assert!(run.converged);
        assert!(run.moves >= 25, "dense rounds actually happened");
        assert_eq!(
            STATE_COPIES.load(Ordering::Relaxed) - copies_before,
            0,
            "{mode:?} shards={shards}: read-free writers must never clone state"
        );
        assert_eq!(sim.stage_clone_count(), 0, "{mode:?}: no preservations");
    }
}
