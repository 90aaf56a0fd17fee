//! # sno-lab
//!
//! The **scenario-fleet** subsystem: declarative matrices of
//! self-stabilization experiments, executed in parallel, aggregated into
//! per-cell statistics.
//!
//! The paper's complexity claims — `DFTNO` stabilizes in `O(n)` steps
//! once its token circulation is stable, `STNO` in `O(h)` once its tree
//! is stable — are *empirical* statements about fleets of runs: many
//! topologies, sizes, daemons, fault patterns, and seeds. This crate
//! turns such a fleet into one value:
//!
//! 1. [`ScenarioMatrix`] declares the cross product
//!    topology family × size × protocol stack × daemon × fault plan,
//!    measured over a seed range;
//! 2. [`run_campaign`] expands it into cells, drives every run on a
//!    `sno-fleet` worker pool (persistent `std::thread` workers claiming
//!    seed chunks from an atomic cursor — a stand-in for rayon, which
//!    this offline build cannot fetch), reusing the network, simulation,
//!    and daemon allocations across a cell's seeds;
//! 3. [`CampaignReport`] aggregates each cell into
//!    `min/mean/p50/p95/max` summaries of moves, steps, and rounds plus
//!    convergence rates, and renders the repo's `BENCH_*.json` format
//!    ([`CampaignReport::to_json`]) or a Markdown table
//!    ([`CampaignReport::to_markdown`]).
//!
//! Reports are **bit-for-bit deterministic** in the matrix: every run
//! seeds its own RNGs from the run seed, and results are aggregated in
//! matrix order regardless of the parallel schedule.
//!
//! # Example
//!
//! ```
//! use sno_graph::GeneratorSpec;
//! use sno_lab::{DaemonSpec, ProtocolSpec, ScenarioMatrix, TreeSubstrate};
//!
//! let matrix = ScenarioMatrix::new("doc")
//!     .topologies([GeneratorSpec::Star, GeneratorSpec::Ring])
//!     .sizes([8])
//!     .protocols([ProtocolSpec::Stno(TreeSubstrate::Oracle)])
//!     .daemons([DaemonSpec::Synchronous])
//!     .seeds(0, 4)
//!     .max_steps(100_000);
//! let report = sno_lab::run_campaign(&matrix);
//! assert_eq!(report.total_runs, 8);
//! assert_eq!(report.total_converged, 8, "STNO over a frozen tree always stabilizes");
//! assert!(report.to_json().contains("\"schema\":\"sno-lab/v1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod cli;
pub mod matrix;
pub mod report;
pub mod runner;
pub mod spec;
pub mod stats;

pub use matrix::{CellSpec, ScenarioMatrix};
pub use report::{CampaignReport, CellReport};
pub use runner::{
    converge_once, engine_mode_label, run_campaign, run_campaign_with_options,
    run_campaign_with_threads, trace_first_cell, CellOutcome, EngineOptions, Recovery, RunRecord,
};
pub use spec::{DaemonSpec, FaultPlan, ProtocolSpec, TokenSubstrate, TreeSubstrate};
pub use stats::Summary;
