//! # sno-engine
//!
//! A simulation engine for **self-stabilizing distributed protocols** in the
//! shared-variable / guarded-command model of Chapter 2 of the paper:
//!
//! * a protocol is a finite set of actions `⟨label⟩ :: ⟨guard⟩ → ⟨statement⟩`
//!   per processor, where a guard reads the processor's own variables and
//!   its neighbors' variables, and the statement writes only the
//!   processor's own variables;
//! * guard evaluation and statement execution are **composite-atomic**;
//! * executions are driven by a **daemon** that, at every computation step,
//!   selects a non-empty subset of enabled processors (the *distributed
//!   daemon*), each of which executes one enabled action — with central,
//!   synchronous, randomized, and adversarial specializations;
//! * convergence is measured in *moves* (individual action executions),
//!   *steps* (daemon selections), and *rounds* (the standard asynchronous
//!   round: every processor enabled at the start of the round has executed
//!   or become disabled by its end).
//!
//! The engine also ships a transient-fault injector and a bounded exhaustive
//! **model checker** that verifies Definition 2.1.2 (closure + convergence)
//! on small instances by enumerating every configuration.
//!
//! # Example
//!
//! ```
//! use sno_engine::{Network, Simulation, daemon::CentralRoundRobin};
//! use sno_engine::examples::HopDistance;
//!
//! let g = sno_graph::generators::ring(5);
//! let net = Network::new(g, sno_graph::NodeId::new(0));
//! let mut sim = Simulation::from_initial(&net, HopDistance);
//! let mut daemon = CentralRoundRobin::new();
//! let run = sim.run_until_silent(&mut daemon, 10_000);
//! assert!(run.converged);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod daemon;
pub mod dijkstra;
pub mod examples;
pub mod faults;
pub mod measure;
pub mod modelcheck;
pub mod network;
pub mod protocol;
pub mod sim;
pub mod spec;
pub mod store;

pub use compose::{EnumerableLayer, Layered, LayeredAction, UpperLayer};
pub use network::{Network, NodeCtx};
pub use protocol::{
    apply_via_clone, ApplyProfile, Enumerable, LayerLayout, LayerTxn, NodeView, PortCache,
    PortVerdict, Protocol, ReadScope, Scratch, SpaceMeasured, StateTxn, TouchRecord, TouchScope,
    WriteTxn,
};
pub use sim::{EngineMode, RunResult, Simulation, StepOutcome, DEFAULT_SYNC_THRESHOLD};
pub use sno_graph::{CsrDelta, TopologyEvent, TopologyRepair};
pub use store::{ConfigStore, DeltaTxn, ShardTxn};

/// Deterministic engine telemetry (re-exported from `sno-telemetry`):
/// the [`Meter`] trait the simulation is generic over, the zero-overhead
/// [`NoopMeter`] default, the collecting [`CounterMeter`], mergeable
/// log-bucketed histograms, exact digests, and Chrome trace-event
/// export.
pub use sno_telemetry as telemetry;
pub use sno_telemetry::{
    Counter, CounterMeter, ExchangeBreakdown, ExchangeStats, ExploreStats, Meter, Metric,
    NoopMeter, TraceBuffer,
};
