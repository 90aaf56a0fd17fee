//! The `campaign-sparse` workload: `sno_lab` scenario matrices run
//! through `run_campaign_with_options`, checked run by run and byte for
//! byte.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sno_engine::telemetry::Counter;
use sno_engine::{EngineMode, Network};
use sno_graph::{GeneratorSpec, NodeId};
use sno_lab::{
    CampaignReport, CellReport, DaemonSpec, EngineOptions, FaultPlan, ProtocolSpec, ScenarioMatrix,
    TokenSubstrate, TreeSubstrate,
};

use crate::{
    closed_loop, log_times, median, percentile, secs, thread_budget, timed, Outcome, SetupTimer,
    Stopwatch,
};

/// One campaign workload: the matrices one repetition runs on the
/// port-dirty engine.
pub struct Campaign {
    matrices: Vec<ScenarioMatrix>,
}

/// Fleet threads: cells run two at a time.
const THREADS: usize = 2;

/// Graph seeds one `campaign-sparse` repetition covers. The hub churn
/// cell alone is its matrix's critical path, and its cost moves by a
/// quarter with both the graph and the run seed; four independent
/// (graph, run) seed pairs average that out, where four run seeds on one
/// graph do not.
const SPARSE_GRAPHS: u64 = 4;

fn topologies(names: &[&str]) -> Vec<GeneratorSpec> {
    names
        .iter()
        .map(|t| t.parse().expect("topology names are valid"))
        .collect()
}

/// `campaign-sparse`: central and distributed daemons on the default
/// port-dirty engine, 2 fleet threads. A steady matrix (no fault, or a
/// 32-processor hit after convergence) plus a churn matrix (8 link
/// add/fail windows after convergence), each instantiated for
/// [`SPARSE_GRAPHS`] graph seeds with one run seed per cell.
pub fn sparse(seed: u64) -> Campaign {
    let mut matrices = Vec::new();
    for g in 0..SPARSE_GRAPHS {
        let s = seed * SPARSE_GRAPHS + g;
        let base = ScenarioMatrix::new("campaign-sparse")
            .topologies(topologies(&["hubs:3", "random-tree", "random-sparse:2"]))
            .sizes([1024])
            .daemons([DaemonSpec::CentralRandom, DaemonSpec::Distributed])
            .seeds(s, 1)
            .graph_seed(s);
        matrices.push(
            base.clone()
                .protocols([
                    ProtocolSpec::Dftno(TokenSubstrate::Oracle),
                    ProtocolSpec::Stno(TreeSubstrate::Bfs),
                    ProtocolSpec::Dcd,
                ])
                .faults([FaultPlan::None, FaultPlan::AfterConvergence { hits: 32 }]),
        );
        matrices.push(
            base.protocols([ProtocolSpec::Stno(TreeSubstrate::Bfs), ProtocolSpec::Dcd])
                .faults([FaultPlan::Churn { rate: 8, seed: s }]),
        );
    }
    Campaign { matrices }
}

impl Campaign {
    fn options(&self, metrics: bool) -> EngineOptions {
        EngineOptions {
            mode: Some(EngineMode::PortDirty),
            shards: Some(1),
            metrics,
        }
    }

    /// The work a campaign does before its first simulation step:
    /// matrix validation and expansion, and every graph and network.
    fn setup(&self) {
        for m in &self.matrices {
            m.validate().expect("benchmark matrices are valid");
            black_box(m.cells());
            for t in &m.topologies {
                for &n in &m.sizes {
                    let g = t.build(n, m.graph_seed);
                    black_box(Network::new(g, NodeId::new(0)));
                }
            }
        }
    }

    /// One repetition: every matrix's report and its JSON artifact.
    fn rep(&self, options: &EngineOptions) -> (Vec<CampaignReport>, Vec<String>, LayerTimes) {
        let clock = Stopwatch::start();
        let mut times = LayerTimes::default();
        let mut reports = Vec::new();
        let mut jsons = Vec::new();
        for m in &self.matrices {
            let t0 = Instant::now();
            let r = sno_lab::run_campaign_with_options(m, THREADS, options);
            let t1 = Instant::now();
            jsons.push(r.to_json());
            times.report_s += secs(t1);
            times.campaign_s += t1.duration_since(t0).as_secs_f64();
            reports.push(r);
        }
        times.cpu_s = clock.read().1;
        (reports, jsons, times)
    }
}

#[derive(Default)]
struct LayerTimes {
    campaign_s: f64,
    report_s: f64,
    /// Process CPU time of the repetition, every thread.
    cpu_s: f64,
}

impl LayerTimes {
    fn wall(&self) -> f64 {
        self.campaign_s + self.report_s
    }
}

/// Runs that did not converge, plus converged runs of a fault cell
/// that did not recover.
fn failed_runs(r: &CampaignReport) -> u64 {
    r.cells
        .iter()
        .map(|c| {
            let lost = c.runs - c.converged;
            let unrecovered = if c.fault == "none" {
                0
            } else {
                c.converged - c.recovered
            };
            (lost + unrecovered) as u64
        })
        .sum()
}

fn total_runs(reports: &[CampaignReport]) -> u64 {
    reports.iter().map(|r| r.total_runs as u64).sum()
}

/// Exact sum of a summary's samples (its mean times its count).
fn summary_total(s: &Option<sno_lab::Summary>) -> u64 {
    s.as_ref()
        .map_or(0, |s| (s.mean * s.count as f64).round() as u64)
}

/// Convergence and recovery moves over every run of `reports`.
fn moves(reports: &[CampaignReport]) -> (u64, u64) {
    let cells = || reports.iter().flat_map(|r| &r.cells);
    (
        cells().map(|c| summary_total(&c.moves)).sum(),
        cells().map(|c| summary_total(&c.recovery_moves)).sum(),
    )
}

/// A cell's report with its metered-only sections removed.
fn unmetered(c: &CellReport) -> CellReport {
    CellReport {
        metrics: None,
        exchange: None,
        ..c.clone()
    }
}

/// Runs `campaign` for `seconds` and reports its end-to-end metrics
/// (`trace` false) or its per-layer metrics (`trace` true).
pub fn run(campaign: &Campaign, seconds: f64, trace: bool) -> Result<Outcome, String> {
    thread_budget("fleet threads", THREADS)?;
    // `sno_lab::runner::run_cell` takes its engine mode from the environment.
    std::env::set_var("SNO_ENGINE_MODE", "port-dirty");

    let plain = campaign.options(false);
    let mut first: Option<Vec<String>> = None;
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    let mut times: Vec<LayerTimes> = Vec::new();
    let mut spawns = Vec::new();
    let mut last_reports = Vec::new();
    // One checked, untraced repetition.
    let mut untraced = |out: &mut Outcome| {
        let s0 = sno_fleet::thread_spawns();
        let (reports, jsons, t) = campaign.rep(&plain);
        spawns.push((sno_fleet::thread_spawns() - s0) as f64);
        let runs = total_runs(&reports);
        let mut failed: u64 = reports.iter().map(failed_runs).sum();
        match &first {
            None => first = Some(jsons),
            Some(f) if *f != jsons => failed = runs,
            Some(_) => {}
        }
        out.attempted += runs;
        out.failed += failed;
        times.push(t);
        last_reports = reports;
    };

    if !trace {
        let mut setup = SetupTimer::new(|| campaign.setup());
        setup.group();
        closed_loop(seconds, 2, || {
            untraced(&mut out);
            setup.group();
        });
        let setup_s = setup.median();
        let (m, r) = moves(&last_reports);
        let walls: Vec<f64> = times.iter().map(LayerTimes::wall).collect();
        let cpus: Vec<f64> = times.iter().map(|t| t.cpu_s).collect();
        log_times("untraced wall_s", &walls);
        log_times("untraced cpu_s", &cpus);
        let cpu_s = median(timed(&cpus));
        out.metrics.insert("cpu_s", cpu_s);
        out.metrics.insert("setup_s", setup_s);
        out.metrics.insert("work_per_cpu_s", (m + r) as f64 / cpu_s);
        return Ok(out);
    }

    // Traced run: untraced and metered repetitions alternate, so the
    // overhead compares neighbours in time. The first pair warms up.
    let metered = campaign.options(true);
    let mut traced_walls = Vec::new();
    let mut metered_reports = Vec::new();
    let peaks = closed_loop(seconds, 2, || {
        untraced(&mut out);
        let (reports, _, t) = campaign.rep(&metered);
        traced_walls.push(t.wall());
        metered_reports = reports;
    });
    // Metering must not change any result.
    for (m, u) in metered_reports.iter().zip(&last_reports) {
        if !m.cells.iter().map(unmetered).eq(u.cells.iter().cloned()) {
            out.failed += u.total_runs as u64;
        }
    }
    // Per-cell time of `sno_lab::runner::run_cell`, checked against the report.
    let mut cell_ms = Vec::new();
    for (m, r) in campaign.matrices.iter().zip(&last_reports) {
        for (cell, expect) in m.cells().iter().zip(&r.cells) {
            let t0 = Instant::now();
            let outcome = sno_lab::runner::run_cell(cell, m);
            cell_ms.push(secs(t0) * 1e3);
            out.attempted += outcome.runs.len() as u64;
            if CellReport::from_outcome(&outcome) != *expect {
                out.failed += outcome.runs.len() as u64;
            }
        }
    }

    // Graph construction, summed over every matrix's (topology, n) pairs.
    let build_s = median(
        &(0..5)
            .map(|_| {
                let t0 = Instant::now();
                for m in &campaign.matrices {
                    for t in &m.topologies {
                        for &n in &m.sizes {
                            black_box(t.build(n, m.graph_seed));
                        }
                    }
                }
                secs(t0)
            })
            .collect::<Vec<_>>(),
    );

    let (mv, rec) = moves(&last_reports);
    let runs = total_runs(&last_reports) as f64;
    let walls: Vec<f64> = times.iter().map(LayerTimes::wall).collect();
    log_times("untraced wall_s", &walls);
    log_times("traced wall_s", &traced_walls);
    let wall_s = median(timed(&walls));
    let traced_s = median(timed(&traced_walls));
    let mut counters = sno_engine::CounterMeter::new();
    for r in &metered_reports {
        if let Some(c) = r.merged_metrics() {
            counters.merge(&c);
        }
    }
    let m = &mut out.metrics;
    for (name, c) in [
        ("engine.guard_evals", Counter::GuardEvals),
        ("engine.port_evals", Counter::PortEvals),
        ("engine.port_invalidations", Counter::PortInvalidations),
        ("engine.dirty_pushes", Counter::DirtyPushes),
        ("engine.txn_commits", Counter::TxnCommits),
        ("engine.stage_precopies", Counter::StagePrecopies),
        ("engine.topo_events", Counter::TopoEvents),
        ("engine.csr_repairs", Counter::CsrRepairs),
        ("engine.cache_repairs", Counter::CacheRepairs),
    ] {
        m.insert(name, counters.get(c) as f64);
    }
    m.insert(
        "engine.guard_evals_per_move",
        counters.get(Counter::GuardEvals) as f64 / (mv + rec) as f64,
    );
    m.insert("graph.build.s", build_s);
    m.insert("lab.cell.p50_ms", percentile(&cell_ms, 50));
    m.insert("lab.cell.p95_ms", percentile(&cell_ms, 95));
    m.insert("lab.cell.samples", cell_ms.len() as f64);
    m.insert(
        "lab.report.s",
        median(timed(&times.iter().map(|t| t.report_s).collect::<Vec<_>>())),
    );
    m.insert("lab.runs", runs);
    m.insert("lab.moves", mv as f64);
    m.insert("lab.recovery_moves", rec as f64);
    m.insert("lab.moves_per_s", (mv + rec) as f64 / wall_s);
    m.insert("lab.runs_per_s", runs / wall_s);
    m.insert("fleet.spawns", median(timed(&spawns)));
    m.insert("peak_heap_mb", median(&peaks));
    m.insert("trace.overhead_frac", traced_s / wall_s - 1.0);
    m.insert("trace.wall_s", traced_s);
    m.insert("trace.untraced_wall_s", wall_s);
    Ok(out)
}
