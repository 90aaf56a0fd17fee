//! `sno-check`: a fleet-parallel explicit-state model checker for
//! self-stabilizing network-orientation protocols, with fault-class
//! exploration and machine-readable certificates.
//!
//! The source paper's claims are *closure* and *convergence* theorems
//! (Definition 2.1.2): the legitimate set is preserved by every move,
//! and every execution reaches it. The differential test suites sample
//! those properties; this crate **proves** them on bounded instances by
//! exhausting the state space — the successor of the retired serial
//! checker in `sno_engine::modelcheck`, rebuilt to scale and to model
//! faults:
//!
//! * **Fleet-parallel sharded BFS** ([`explore()`]) on the
//!   [`sno_fleet::WorkerPool`], deterministic at any shard/thread
//!   count — certificates are byte-identical no matter how they were
//!   computed.
//! * **Fault classes as transitions** ([`FaultClass`]): budgeted k-node
//!   state corruption and crashes, plus
//!   [`TopologyEvent`](sno_graph::TopologyEvent) link failures and
//!   additions explored as a chain of topology *worlds*.
//! * **Daemon-fairness-aware liveness** ([`analysis`]): an unfair-daemon
//!   cycle is not a round-robin counterexample; both verdicts are
//!   first-class.
//! * **Certificates and minimized counterexamples** ([`certificate`]):
//!   deterministic JSON records of what was explored and what held,
//!   with replayable traces when something did not.
//!
//! # Example
//!
//! ```
//! use sno_check::{check, CheckOptions, CheckSpec, Liveness, Seeds};
//! use sno_engine::examples::{hop_distance_legit, HopDistance};
//! use sno_engine::Network;
//! use sno_fleet::WorkerPool;
//! use sno_graph::NodeId;
//!
//! let net = Network::new(sno_graph::generators::path(3), NodeId::new(0));
//! let spec = CheckSpec {
//!     protocol: "hop".into(),
//!     topology: "path:3".into(),
//!     legit: &hop_distance_legit,
//!     invariants: Vec::new(),
//!     closure: true,
//!     liveness: Liveness::Both,
//!     seeds: Seeds::AllConfigs,
//!     seed_list: None,
//!     faults: Vec::new(),
//! };
//! let pool = WorkerPool::new(2);
//! let cert = check(&net, &HopDistance, &spec, &CheckOptions::default(), &pool).unwrap();
//! assert!(cert.all_hold());
//! assert_eq!(cert.states, 64);
//! ```

pub mod analysis;
pub mod certificate;
pub mod explore;
pub mod hash;
pub mod model;
pub mod space;
pub mod symmetry;

pub use analysis::{check_round_robin, check_unfair, Lasso, MoveStep, Verdict};
pub use certificate::{
    counterexample_for_closure, counterexample_from_lasso, counterexample_to_state, Certificate,
    Counterexample, PropertyReport, TraceStep, WorldInfo,
};
pub use explore::{explore, kind_name, ExploreResult, Meta};
pub use hash::{FxBuildHasher, FxHasher};
pub use model::{
    CheckOptions, CheckSpec, FaultClass, Invariant, Liveness, Model, PredFn, Seeds, World,
};
pub use space::{StateSpace, Succ, TooLarge};
pub use symmetry::{SymElem, SymmetryTable};

use sno_engine::{Enumerable, Network};
// Re-exported so downstream callers (the facade crate's examples, the
// `sno-lab check` CLI) can build the fleet without naming `sno-fleet`.
pub use sno_fleet::WorkerPool;

/// Runs the full pipeline — model instantiation, sharded exploration,
/// safety verdicts, fairness-aware liveness — and assembles the
/// deterministic [`Certificate`].
///
/// # Errors
///
/// Returns [`TooLarge`] if any world's configuration space exceeds
/// `options.limit`.
pub fn check<P: Enumerable>(
    net: &Network,
    protocol: &P,
    spec: &CheckSpec<'_, P>,
    options: &CheckOptions,
    pool: &WorkerPool,
) -> Result<Certificate, TooLarge> {
    let model = Model::new(net, protocol, &spec.faults, options)?;
    let result = explore(&model, spec, pool, options.shards);

    let mut properties = Vec::new();
    if spec.closure {
        let counterexample = result
            .closure_violation
            .map(|(src, succ)| counterexample_for_closure(&model, &result, src, succ));
        properties.push(PropertyReport {
            name: "closure".into(),
            kind: "safety",
            daemon: "any",
            holds: counterexample.is_none(),
            counterexample,
        });
    }
    for (ii, inv) in spec.invariants.iter().enumerate() {
        let counterexample = result.invariant_violations[ii]
            .map(|key| counterexample_to_state(&model, &result, key));
        properties.push(PropertyReport {
            name: format!("invariant:{}", inv.name),
            kind: "safety",
            daemon: "any",
            holds: counterexample.is_none(),
            counterexample,
        });
    }
    if spec.liveness.unfair() {
        let verdict = check_unfair(&model, spec, &result.reachable);
        properties.push(liveness_report("unfair", &model, &result, verdict));
    }
    if spec.liveness.round_robin() {
        let verdict = check_round_robin(&model, spec, &result.reachable);
        properties.push(liveness_report("round-robin", &model, &result, verdict));
    }

    Ok(Certificate {
        protocol: spec.protocol.clone(),
        topology: spec.topology.clone(),
        seeds: spec.seeds.name(),
        fault_budget: model.budget,
        faults: spec.faults.iter().map(|f| f.to_string()).collect(),
        worlds: model
            .worlds
            .iter()
            .enumerate()
            .map(|(wi, w)| WorldInfo {
                nodes: w.net.node_count(),
                edges: w.net.graph().edge_count(),
                configs: w.space.config_count(),
                reachable: result.raw_configs[wi],
                quotient: result.quotient_configs[wi],
            })
            .collect(),
        states: result.stats.states,
        transitions: result.stats.transitions,
        fault_transitions: result.stats.fault_transitions,
        dedup_hits: result.stats.dedup_hits,
        skipped_mappings: result.skipped_mappings,
        legitimate: result.legitimate,
        diameter: result.diameter,
        frontier: result.frontier.clone(),
        seen_entries: result.seen_entries,
        symmetry_enabled: options.symmetry,
        group_orders: model.sym.iter().map(|t| t.group_order()).collect(),
        raw_states: result.raw_states,
        properties,
    })
}

fn liveness_report<P: Enumerable>(
    daemon: &'static str,
    model: &Model<'_, P>,
    result: &ExploreResult,
    verdict: Verdict,
) -> PropertyReport {
    let counterexample = match &verdict {
        Verdict::Converges => None,
        Verdict::Diverges(lasso) => Some(counterexample_from_lasso(model, result, lasso)),
    };
    PropertyReport {
        name: "convergence".into(),
        kind: "liveness",
        daemon,
        holds: counterexample.is_none(),
        counterexample,
    }
}
