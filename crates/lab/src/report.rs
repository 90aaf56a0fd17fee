//! Aggregated campaign reports and their JSON / Markdown emitters.
//!
//! The JSON layout (`schema = "sno-lab/v1"`) is the interchange format of
//! the repo's `BENCH_*.json` artifacts: a campaign header, the echoed
//! matrix, and one object per cell with `min/mean/p50/p95/max` summaries
//! of moves, steps, and rounds plus the convergence rate.

use std::fmt::Write as _;

use sno_telemetry::{escape_json, Counter, CounterMeter, ExchangeBreakdown, Histogram, Metric};

use crate::matrix::ScenarioMatrix;
use crate::runner::CellOutcome;
use crate::stats::Summary;

/// Per-cell aggregate statistics.
///
/// The `moves`/`steps`/`rounds` summaries cover **converged runs only**
/// (budget-exhausted runs would poison the percentiles with the budget
/// value); the convergence rate reports how many runs that is. Recovery
/// summaries likewise cover runs whose recovery phase re-converged.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Topology family name (a [`GeneratorSpec`](sno_graph::GeneratorSpec) rendering).
    pub topology: String,
    /// Requested target size.
    pub n: usize,
    /// Actual node count of the instantiated graph.
    pub nodes: usize,
    /// Edge count of the instantiated graph.
    pub edges: usize,
    /// Protocol stack name.
    pub protocol: String,
    /// Daemon name.
    pub daemon: String,
    /// Fault plan name.
    pub fault: String,
    /// Runs performed.
    pub runs: usize,
    /// Runs that reached the goal within budget.
    pub converged: usize,
    /// `converged / runs`.
    pub convergence_rate: f64,
    /// Moves to convergence (converged runs only).
    pub moves: Option<Summary>,
    /// Daemon steps to convergence (converged runs only).
    pub steps: Option<Summary>,
    /// Rounds to convergence (converged runs only).
    pub rounds: Option<Summary>,
    /// Recovery phases that re-converged (fault campaigns only).
    pub recovered: usize,
    /// Moves of re-convergence after the injected fault.
    pub recovery_moves: Option<Summary>,
    /// Steps of re-convergence.
    pub recovery_steps: Option<Summary>,
    /// Rounds of re-convergence.
    pub recovery_rounds: Option<Summary>,
    /// Detection latency of disconnecting plans (`churn-any`): daemon
    /// steps per run (summed over its perturbation windows) until every
    /// severed processor's detector flagged the cut. `None` for every
    /// other fault plan, keeping their reports byte-identical.
    pub detection_steps: Option<Summary>,
    /// Deterministic engine counters and per-step histograms summed over
    /// every run of the cell. `None` unless the campaign ran with
    /// metrics collection ([`EngineOptions::metrics`]); absent metrics
    /// render nothing, keeping default reports byte-identical to
    /// pre-telemetry ones.
    ///
    /// [`EngineOptions::metrics`]: crate::runner::EngineOptions
    pub metrics: Option<CounterMeter>,
    /// Sharded-executor boundary traffic (ports handed across shard
    /// boundaries per exchange phase, with per-destination-shard
    /// counts). Present only for metered campaigns whose cells actually
    /// ran the sharded executor and crossed a boundary; a
    /// partition-dependent diagnostic, deterministic for a fixed mode
    /// and shard count.
    pub exchange: Option<ExchangeBreakdown>,
}

impl CellReport {
    /// Aggregates one cell's run records.
    pub fn from_outcome(outcome: &CellOutcome) -> CellReport {
        let runs = outcome.runs.len();
        let converged_runs: Vec<_> = outcome.runs.iter().filter(|r| r.converged).collect();
        let converged = converged_runs.len();
        let mut moves: Vec<u64> = converged_runs.iter().map(|r| r.moves).collect();
        let mut steps: Vec<u64> = converged_runs.iter().map(|r| r.steps).collect();
        let mut rounds: Vec<u64> = converged_runs.iter().map(|r| r.rounds).collect();

        let recoveries: Vec<_> = outcome
            .runs
            .iter()
            .filter_map(|r| r.recovery.as_ref())
            .filter(|rec| rec.converged)
            .collect();
        let mut rec_moves: Vec<u64> = recoveries.iter().map(|r| r.moves).collect();
        let mut rec_steps: Vec<u64> = recoveries.iter().map(|r| r.steps).collect();
        let mut rec_rounds: Vec<u64> = recoveries.iter().map(|r| r.rounds).collect();
        let mut detections: Vec<u64> = outcome.runs.iter().filter_map(|r| r.detection).collect();

        CellReport {
            topology: outcome.cell.topology.to_string(),
            n: outcome.cell.n,
            nodes: outcome.nodes,
            edges: outcome.edges,
            protocol: outcome.cell.protocol.to_string(),
            daemon: outcome.cell.daemon.to_string(),
            fault: outcome.cell.fault.to_string(),
            runs,
            converged,
            convergence_rate: if runs == 0 {
                0.0
            } else {
                converged as f64 / runs as f64
            },
            moves: Summary::from_samples(&mut moves),
            steps: Summary::from_samples(&mut steps),
            rounds: Summary::from_samples(&mut rounds),
            recovered: recoveries.len(),
            recovery_moves: Summary::from_samples(&mut rec_moves),
            recovery_steps: Summary::from_samples(&mut rec_steps),
            recovery_rounds: Summary::from_samples(&mut rec_rounds),
            detection_steps: Summary::from_samples(&mut detections),
            metrics: outcome.metrics.clone(),
            exchange: outcome.exchange.clone(),
        }
    }
}

/// A finished campaign: the echoed matrix plus per-cell aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// The matrix that produced this report.
    pub matrix: ScenarioMatrix,
    /// Total simulations run.
    pub total_runs: usize,
    /// Total simulations that converged.
    pub total_converged: usize,
    /// One aggregate per cell, in matrix expansion order.
    pub cells: Vec<CellReport>,
}

impl CampaignReport {
    /// Assembles the report from the matrix and its cell aggregates.
    pub fn new(matrix: &ScenarioMatrix, cells: Vec<CellReport>) -> CampaignReport {
        CampaignReport {
            name: matrix.name.clone(),
            matrix: matrix.clone(),
            total_runs: cells.iter().map(|c| c.runs).sum(),
            total_converged: cells.iter().map(|c| c.converged).sum(),
            cells,
        }
    }

    /// Overall convergence rate across every run of the campaign.
    pub fn convergence_rate(&self) -> f64 {
        if self.total_runs == 0 {
            0.0
        } else {
            self.total_converged as f64 / self.total_runs as f64
        }
    }

    /// Exact merge of every cell's counter meter, or `None` when the
    /// campaign collected no metrics. Counter merge is plain `u64`
    /// addition and histogram merge is bucket-wise addition, so the
    /// campaign total is independent of cell order and chunking.
    pub fn merged_metrics(&self) -> Option<CounterMeter> {
        let mut acc: Option<CounterMeter> = None;
        for cell in &self.cells {
            if let Some(m) = &cell.metrics {
                match acc.as_mut() {
                    Some(a) => a.merge(m),
                    None => acc = Some(m.clone()),
                }
            }
        }
        acc
    }

    /// Exact merge of every cell's exchange breakdown, or `None` when no
    /// cell crossed a shard boundary (unmetered campaigns, serial
    /// modes). Element-wise `u64` addition, so the total is independent
    /// of cell order and chunking.
    pub fn merged_exchange(&self) -> Option<ExchangeBreakdown> {
        let mut acc: Option<ExchangeBreakdown> = None;
        for cell in &self.cells {
            if let Some(b) = &cell.exchange {
                match acc.as_mut() {
                    Some(a) => a.merge(b),
                    None => acc = Some(b.clone()),
                }
            }
        }
        acc
    }

    /// Renders the `sno-lab/v1` JSON document.
    ///
    /// Campaigns run without metrics collection produce exactly the
    /// pre-telemetry document — the `metrics` fields (per cell and the
    /// campaign-level merge) appear only when a meter actually ran, so
    /// the committed `BENCH_campaign.json` stays byte-identical.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        w.string_field("schema", "sno-lab/v1");
        w.string_field("name", &self.name);
        w.raw_field("matrix", &matrix_json(&self.matrix));
        w.int_field("total_runs", self.total_runs as u64);
        w.int_field("total_converged", self.total_converged as u64);
        w.num_field("convergence_rate", self.convergence_rate());
        w.array_field("cells", self.cells.iter().map(cell_json));
        if let Some(m) = self.merged_metrics() {
            w.raw_field("metrics", &metrics_json(&m));
        }
        if let Some(b) = self.merged_exchange() {
            w.raw_field("exchange", &exchange_json(&b));
        }
        w.close_object();
        w.finish()
    }

    /// Writes [`CampaignReport::to_json`] to `path` (with a trailing
    /// newline, as the `BENCH_*.json` artifacts are committed).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }

    /// Renders a Markdown table of the per-cell aggregates.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Campaign `{}`", self.name);
        let _ = writeln!(
            out,
            "\n{} runs across {} cells — {:.1}% converged\n",
            self.total_runs,
            self.cells.len(),
            100.0 * self.convergence_rate()
        );
        let _ = writeln!(
            out,
            "| topology | n | protocol | daemon | fault | conv | moves p50 | moves p95 | steps p50 | rounds p50 |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
        for c in &self.cells {
            let p = |s: &Option<Summary>, f: fn(&Summary) -> u64| {
                s.as_ref()
                    .map(|s| f(s).to_string())
                    .unwrap_or_else(|| "—".into())
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {}/{} | {} | {} | {} | {} |",
                c.topology,
                c.nodes,
                c.protocol,
                c.daemon,
                c.fault,
                c.converged,
                c.runs,
                p(&c.moves, |s| s.p50),
                p(&c.moves, |s| s.p95),
                p(&c.steps, |s| s.p50),
                p(&c.rounds, |s| s.p50),
            );
        }
        // Disconnecting churn gets its own table: the detection-latency
        // column only exists for `churn-any` cells, and the main
        // table's shape stays stable.
        if self.cells.iter().any(|c| c.detection_steps.is_some()) {
            let _ = writeln!(out, "\n### Detection latency (disconnecting churn)\n");
            let _ = writeln!(
                out,
                "| topology | n | protocol | daemon | fault | detected | steps p50 | steps p95 | steps max |"
            );
            let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
            for c in self.cells.iter().filter(|c| c.detection_steps.is_some()) {
                let d = c.detection_steps.as_ref().expect("filtered to Some");
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {}/{} | {} | {} | {} |",
                    c.topology,
                    c.nodes,
                    c.protocol,
                    c.daemon,
                    c.fault,
                    d.count,
                    c.runs,
                    d.p50,
                    d.p95,
                    d.max,
                );
            }
        }
        // Metered campaigns get a second table rather than wider rows:
        // the main table's shape is stable whether metrics ran or not.
        if self.cells.iter().any(|c| c.metrics.is_some()) {
            let _ = writeln!(out, "\n### Metrics (deterministic engine counters)\n");
            let _ = writeln!(
                out,
                "| topology | n | protocol | daemon | guard evals | port evals | dirty pushes | \
                 invalidations | commits | pre-copies | enabled/step p50 | enabled/step p95 |"
            );
            let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|---|");
            for c in self.cells.iter().filter(|c| c.metrics.is_some()) {
                let m = c.metrics.as_ref().expect("filtered to Some");
                let enabled = m.histogram(Metric::EnabledPerStep);
                let q = |p: u32| {
                    enabled
                        .quantile(p)
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "—".into())
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                    c.topology,
                    c.nodes,
                    c.protocol,
                    c.daemon,
                    m.get(Counter::GuardEvals),
                    m.get(Counter::PortEvals),
                    m.get(Counter::DirtyPushes),
                    m.get(Counter::PortInvalidations),
                    m.get(Counter::TxnCommits),
                    m.get(Counter::StagePrecopies),
                    q(50),
                    q(95),
                );
            }
        }
        if self.cells.iter().any(|c| c.exchange.is_some()) {
            let _ = writeln!(out, "\n### Exchange boundary traffic (sharded executor)\n");
            let _ = writeln!(
                out,
                "| topology | n | protocol | daemon | exchanges | local ports | boundary ports | \
                 ports/exchange | per-shard |"
            );
            let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
            for c in self.cells.iter().filter(|c| c.exchange.is_some()) {
                let b = c.exchange.as_ref().expect("filtered to Some");
                let per_exchange = if b.stats.exchanges == 0 {
                    "—".to_string()
                } else {
                    format!(
                        "{:.1}",
                        b.stats.boundary_ports as f64 / b.stats.exchanges as f64
                    )
                };
                let shards: Vec<String> = b.per_shard.iter().map(|v| v.to_string()).collect();
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                    c.topology,
                    c.nodes,
                    c.protocol,
                    c.daemon,
                    b.stats.exchanges,
                    b.stats.local_ports,
                    b.stats.boundary_ports,
                    per_exchange,
                    shards.join(" "),
                );
            }
        }
        out
    }
}

fn matrix_json(m: &ScenarioMatrix) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    w.array_field(
        "topologies",
        m.topologies.iter().map(|t| json_string(&t.to_string())),
    );
    w.array_field("sizes", m.sizes.iter().map(|n| n.to_string()));
    w.array_field(
        "protocols",
        m.protocols.iter().map(|p| json_string(&p.to_string())),
    );
    w.array_field(
        "daemons",
        m.daemons.iter().map(|d| json_string(&d.to_string())),
    );
    w.array_field(
        "faults",
        m.faults.iter().map(|f| json_string(&f.to_string())),
    );
    w.int_field("seed_start", m.seed_start);
    w.int_field("seeds_per_cell", m.seeds_per_cell);
    w.int_field("graph_seed", m.graph_seed);
    w.int_field("max_steps", m.max_steps);
    w.close_object();
    w.finish()
}

fn summary_json(s: &Option<Summary>) -> String {
    match s {
        None => "null".to_string(),
        Some(s) => {
            let mut w = JsonWriter::new();
            w.open_object();
            w.int_field("count", s.count as u64);
            w.int_field("min", s.min);
            w.num_field("mean", s.mean);
            w.int_field("p50", s.p50);
            w.int_field("p95", s.p95);
            w.int_field("max", s.max);
            w.close_object();
            w.finish()
        }
    }
}

fn cell_json(c: &CellReport) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    w.string_field("topology", &c.topology);
    w.int_field("n", c.n as u64);
    w.int_field("nodes", c.nodes as u64);
    w.int_field("edges", c.edges as u64);
    w.string_field("protocol", &c.protocol);
    w.string_field("daemon", &c.daemon);
    w.string_field("fault", &c.fault);
    w.int_field("runs", c.runs as u64);
    w.int_field("converged", c.converged as u64);
    w.num_field("convergence_rate", c.convergence_rate);
    w.raw_field("moves", &summary_json(&c.moves));
    w.raw_field("steps", &summary_json(&c.steps));
    w.raw_field("rounds", &summary_json(&c.rounds));
    w.int_field("recovered", c.recovered as u64);
    w.raw_field("recovery_moves", &summary_json(&c.recovery_moves));
    w.raw_field("recovery_steps", &summary_json(&c.recovery_steps));
    w.raw_field("recovery_rounds", &summary_json(&c.recovery_rounds));
    // Present only for disconnecting plans, so every pre-existing
    // campaign document stays byte-identical.
    if c.detection_steps.is_some() {
        w.raw_field("detection_steps", &summary_json(&c.detection_steps));
    }
    if let Some(m) = &c.metrics {
        w.raw_field("metrics", &metrics_json(m));
    }
    if let Some(b) = &c.exchange {
        w.raw_field("exchange", &exchange_json(b));
    }
    w.close_object();
    w.finish()
}

/// Renders an [`ExchangeBreakdown`]: aggregate local/boundary/phase
/// totals plus the per-destination-shard boundary counts.
fn exchange_json(b: &ExchangeBreakdown) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    w.int_field("local_ports", b.stats.local_ports);
    w.int_field("boundary_ports", b.stats.boundary_ports);
    w.int_field("exchanges", b.stats.exchanges);
    w.array_field("per_shard", b.per_shard.iter().map(|v| v.to_string()));
    w.close_object();
    w.finish()
}

/// Renders a [`CounterMeter`]: a `counters` object (every counter, in
/// stable order, even when zero) and a `histograms` object (one entry
/// per per-step metric; empty histograms render as `null`).
fn metrics_json(m: &CounterMeter) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    let mut c = JsonWriter::new();
    c.open_object();
    for counter in Counter::ALL {
        c.int_field(counter.name(), m.get(counter));
    }
    c.close_object();
    w.raw_field("counters", &c.finish());
    let mut h = JsonWriter::new();
    h.open_object();
    for metric in Metric::ALL {
        h.raw_field(metric.name(), &histogram_json(m.histogram(metric)));
    }
    h.close_object();
    w.raw_field("histograms", &h.finish());
    w.close_object();
    w.finish()
}

/// Renders a log-bucketed histogram's exact moments and quantile
/// estimates (`p50`/`p95` resolve to bucket bounds, not exact ranks).
fn histogram_json(h: &Histogram) -> String {
    if h.is_empty() {
        return "null".to_string();
    }
    let mut w = JsonWriter::new();
    w.open_object();
    w.int_field("count", h.count());
    w.int_field("min", h.min().unwrap_or(0));
    w.num_field("mean", h.mean().unwrap_or(0.0));
    w.int_field("p50", h.quantile(50).unwrap_or(0));
    w.int_field("p95", h.quantile(95).unwrap_or(0));
    w.int_field("max", h.max().unwrap_or(0));
    w.close_object();
    w.finish()
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

/// A minimal JSON document builder (this offline build has no serde).
struct JsonWriter {
    buf: String,
    needs_comma: bool,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter {
            buf: String::new(),
            needs_comma: false,
        }
    }

    fn sep(&mut self) {
        if self.needs_comma {
            self.buf.push(',');
        }
        self.needs_comma = true;
    }

    fn open_object(&mut self) {
        self.buf.push('{');
        self.needs_comma = false;
    }

    fn close_object(&mut self) {
        self.buf.push('}');
        self.needs_comma = true;
    }

    fn string_field(&mut self, key: &str, value: &str) {
        self.sep();
        let _ = write!(self.buf, "{}:{}", json_string(key), json_string(value));
    }

    /// Writes a number; non-finite values become `null` (JSON has no NaN).
    fn num_field(&mut self, key: &str, value: f64) {
        self.sep();
        if value.is_finite() {
            let _ = write!(self.buf, "{}:{}", json_string(key), value);
        } else {
            let _ = write!(self.buf, "{}:null", json_string(key));
        }
    }

    /// Writes an unsigned integer exactly (not through `f64`, which would
    /// round values above 2^53 — seeds and step budgets reach there).
    fn int_field(&mut self, key: &str, value: u64) {
        self.sep();
        let _ = write!(self.buf, "{}:{}", json_string(key), value);
    }

    fn raw_field(&mut self, key: &str, raw: &str) {
        self.sep();
        let _ = write!(self.buf, "{}:{}", json_string(key), raw);
    }

    fn array_field(&mut self, key: &str, items: impl Iterator<Item = String>) {
        self.sep();
        let _ = write!(self.buf, "{}:[", json_string(key));
        let mut first = true;
        for item in items {
            if !first {
                self.buf.push(',');
            }
            first = false;
            self.buf.push_str(&item);
        }
        self.buf.push(']');
    }

    fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CellSpec;
    use crate::runner::{Recovery, RunRecord};
    use crate::spec::{DaemonSpec, FaultPlan, ProtocolSpec, TokenSubstrate};
    use sno_graph::GeneratorSpec;

    fn outcome() -> CellOutcome {
        CellOutcome {
            cell: CellSpec {
                topology: GeneratorSpec::Ring,
                n: 8,
                protocol: ProtocolSpec::Dftno(TokenSubstrate::Oracle),
                daemon: DaemonSpec::CentralRandom,
                fault: FaultPlan::AfterConvergence { hits: 1 },
            },
            nodes: 8,
            edges: 8,
            runs: vec![
                RunRecord {
                    seed: 0,
                    converged: true,
                    moves: 10,
                    steps: 10,
                    rounds: 2,
                    recovery: Some(Recovery {
                        converged: true,
                        moves: 4,
                        steps: 4,
                        rounds: 1,
                    }),
                    detection: None,
                },
                RunRecord {
                    seed: 1,
                    converged: true,
                    moves: 30,
                    steps: 28,
                    rounds: 5,
                    recovery: Some(Recovery {
                        converged: false,
                        moves: 99,
                        steps: 99,
                        rounds: 9,
                    }),
                    detection: None,
                },
                RunRecord {
                    seed: 2,
                    converged: false,
                    moves: 1000,
                    steps: 1000,
                    rounds: 100,
                    recovery: None,
                    detection: None,
                },
            ],
            metrics: None,
            exchange: None,
        }
    }

    #[test]
    fn aggregates_cover_converged_runs_only() {
        let r = CellReport::from_outcome(&outcome());
        assert_eq!(r.runs, 3);
        assert_eq!(r.converged, 2);
        let moves = r.moves.unwrap();
        assert_eq!((moves.min, moves.max, moves.count), (10, 30, 2));
        assert_eq!(r.recovered, 1, "failed recoveries are excluded");
        assert_eq!(r.recovery_moves.unwrap().max, 4);
        assert!((r.convergence_rate - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let matrix = crate::ScenarioMatrix::new("json-test")
            .topologies([GeneratorSpec::Ring])
            .sizes([8])
            .protocols([ProtocolSpec::Dftno(TokenSubstrate::Oracle)])
            .daemons([DaemonSpec::CentralRandom])
            .faults([FaultPlan::AfterConvergence { hits: 1 }]);
        let report = CampaignReport::new(&matrix, vec![CellReport::from_outcome(&outcome())]);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for needle in [
            "\"schema\":\"sno-lab/v1\"",
            "\"name\":\"json-test\"",
            "\"topology\":\"ring\"",
            "\"protocol\":\"dftno/oracle-token\"",
            "\"p95\":30",
            "\"recovery_moves\":{",
            "\"total_runs\":3",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Balanced braces/brackets (no string in this document contains
        // either, so plain counting is a fair well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced objects"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "balanced arrays"
        );
    }

    #[test]
    fn empty_summaries_render_as_null() {
        let mut o = outcome();
        for r in &mut o.runs {
            r.converged = false;
            r.recovery = None;
        }
        let cell = CellReport::from_outcome(&o);
        assert_eq!(cell.moves, None);
        assert!(summary_json(&cell.moves) == "null");
    }

    #[test]
    fn markdown_renders_a_row_per_cell() {
        let matrix = crate::ScenarioMatrix::new("md")
            .topologies([GeneratorSpec::Ring])
            .sizes([8])
            .protocols([ProtocolSpec::Dftno(TokenSubstrate::Oracle)])
            .daemons([DaemonSpec::CentralRandom]);
        let report = CampaignReport::new(&matrix, vec![CellReport::from_outcome(&outcome())]);
        let md = report.to_markdown();
        assert!(md.contains("| ring | 8 | dftno/oracle-token |"), "{md}");
        assert!(md.lines().any(|l| l.starts_with("|---")));
    }

    #[test]
    fn large_integers_survive_json_exactly() {
        // Seeds and budgets above 2^53 must not round through f64.
        let matrix = crate::ScenarioMatrix::new("big-seed")
            .topologies([GeneratorSpec::Ring])
            .sizes([8])
            .protocols([ProtocolSpec::Dftno(TokenSubstrate::Oracle)])
            .daemons([DaemonSpec::CentralRandom])
            .seeds(0x9E37_79B9_7F4A_7C15, 1);
        let report = CampaignReport::new(&matrix, vec![]);
        let json = report.to_json();
        assert!(
            json.contains("\"seed_start\":11400714819323198485"),
            "{json}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
