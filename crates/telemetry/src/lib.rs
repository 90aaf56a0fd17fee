//! Deterministic engine telemetry: counters, mergeable histograms, exact
//! digests, and Chrome trace-event export.
//!
//! The crate has three pillars, mirroring what the engine needs to make
//! the paper's complexity measures *observable* rather than only
//! reported as end-of-run totals:
//!
//! 1. **Deterministic counters** behind the [`Meter`] trait. The engine
//!    is generic over a meter; the default [`NoopMeter`] monomorphizes
//!    every hook into nothing (empty inlined bodies, no branches), so
//!    the disabled path is bit-for-bit the uninstrumented hot loop.
//!    [`CounterMeter`] stores its counters and histograms inline (fixed
//!    arrays, no heap), so even *metered* stepping stays
//!    allocation-free. Counters count **work**, never wall-clock time:
//!    they are byte-identical across engine modes' thread and shard
//!    counts because every increment is issued from serial code using
//!    schedule-independent aggregates.
//! 2. **Mergeable log-bucketed [`Histogram`]s** — constant memory, exact
//!    merge (bucket-wise addition plus exact count/sum/min/max), with
//!    nearest-rank quantile *estimates* resolved to a bucket bound.
//!    These are the streaming-aggregation substrate for per-step
//!    distributions (enabled-set size, writers, queue depths) and for
//!    campaign-scale roll-ups.
//! 3. **[`TraceBuffer`]** — span events exported as Chrome trace-event
//!    JSON (loadable in Perfetto / `chrome://tracing`), one lane per
//!    shard, used by the sharded synchronous executor to attribute
//!    phase time and barrier waits.
//!
//! [`SummaryStats`] is the *exact* (sample-sorting) digest shared by the
//! lab's per-cell summaries and the engine's `StabilizationStats`; the
//! log-bucketed [`Histogram`] is the *constant-memory* counterpart for
//! streams too large to keep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// The deterministic work counters the engine's step loop can increment.
///
/// Every counter measures *logical work* (a guard evaluated, a queue
/// entry processed, a transaction committed) — never time — so for a
/// fixed seed the values are byte-identical across thread and shard
/// counts, and comparable across [`EngineMode`]s (that comparison is the
/// point: `FullSweep` guard re-evaluations ≫ `PortDirty` ones is the
/// engine's whole value proposition, now measurable).
///
/// [`EngineMode`]: https://docs.rs/sno-engine
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Whole-node guard evaluations performed as step work
    /// (`enabled_into` sweeps, dirty-node re-evaluations, and
    /// `init_ports` whole-node rebuilds).
    GuardEvals,
    /// Port-granular guard re-evaluations (`reevaluate_port`).
    PortEvals,
    /// Writer self-refreshes of the port cache (`refresh_self`).
    SelfRefreshes,
    /// Dirty-node enqueue *attempts* (including ones suppressed by the
    /// epoch-stamp dedup).
    DirtyPushes,
    /// Dirty-node queue entries processed by a re-evaluation pass.
    DirtyPops,
    /// Port-cache word invalidations (deduplicated dirty-port entries).
    PortInvalidations,
    /// State transactions committed (one per writer per step).
    TxnCommits,
    /// Conflict-triggered copy-on-write preservations made by the
    /// delta-staged multi-writer commit (each is one whole-state copy).
    StagePrecopies,
    /// Sum of the enabled-set size over all non-silent steps.
    EnabledNodes,
    /// Topology events applied (`Simulation::apply_topology_event`).
    TopoEvents,
    /// CSR flat-array slot edits performed by incremental topology
    /// repair (removals + insertions, summed over every applied delta).
    CsrRepairs,
    /// Per-node derived-cache repairs forced by topology events (guard
    /// refreshes + port-cache rebuilds over the mutation footprint).
    CacheRepairs,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 12;

    /// Every counter, in stable rendering order.
    pub const ALL: [Counter; Self::COUNT] = [
        Counter::GuardEvals,
        Counter::PortEvals,
        Counter::SelfRefreshes,
        Counter::DirtyPushes,
        Counter::DirtyPops,
        Counter::PortInvalidations,
        Counter::TxnCommits,
        Counter::StagePrecopies,
        Counter::EnabledNodes,
        Counter::TopoEvents,
        Counter::CsrRepairs,
        Counter::CacheRepairs,
    ];

    /// Stable snake_case name (used in JSON reports and baselines).
    pub fn name(self) -> &'static str {
        match self {
            Counter::GuardEvals => "guard_evals",
            Counter::PortEvals => "port_evals",
            Counter::SelfRefreshes => "self_refreshes",
            Counter::DirtyPushes => "dirty_pushes",
            Counter::DirtyPops => "dirty_pops",
            Counter::PortInvalidations => "port_invalidations",
            Counter::TxnCommits => "txn_commits",
            Counter::StagePrecopies => "stage_precopies",
            Counter::EnabledNodes => "enabled_nodes",
            Counter::TopoEvents => "topo_events",
            Counter::CsrRepairs => "csr_repairs",
            Counter::CacheRepairs => "cache_repairs",
        }
    }

    /// Dense index into a `[u64; Counter::COUNT]` array.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The per-step distributions the engine can record into histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Enabled-set size at each non-silent step.
    EnabledPerStep,
    /// Writers selected by the daemon at each step.
    WritersPerStep,
    /// Dirty-node queue depth consumed by each node-dirty re-evaluation.
    DirtyNodesPerStep,
    /// Dirty-port queue depth consumed by each port-dirty pass.
    DirtyPortsPerStep,
}

impl Metric {
    /// Number of metrics.
    pub const COUNT: usize = 4;

    /// Every metric, in stable rendering order.
    pub const ALL: [Metric; Self::COUNT] = [
        Metric::EnabledPerStep,
        Metric::WritersPerStep,
        Metric::DirtyNodesPerStep,
        Metric::DirtyPortsPerStep,
    ];

    /// Stable snake_case name (used in JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            Metric::EnabledPerStep => "enabled_per_step",
            Metric::WritersPerStep => "writers_per_step",
            Metric::DirtyNodesPerStep => "dirty_nodes_per_step",
            Metric::DirtyPortsPerStep => "dirty_ports_per_step",
        }
    }

    /// Dense index into a `[Histogram; Metric::COUNT]` array.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The instrumentation sink the engine is generic over.
///
/// The engine calls [`Meter::add`] and [`Meter::record`] from its
/// **serial** sections only, with schedule-independent values, so any
/// meter observes byte-identical streams for a fixed seed regardless of
/// thread or shard count. The default implementations are empty and
/// `#[inline(always)]`: a simulation monomorphized over [`NoopMeter`]
/// compiles every hook away — no branch, no call, no data dependence —
/// which is what keeps the zero-alloc/zero-clone pins and the bench
/// gates byte-for-byte intact when telemetry is off.
pub trait Meter: Clone + std::fmt::Debug + Send {
    /// `true` iff this meter actually collects anything. Lets the
    /// engine `if M::ENABLED`-guard the few hooks that need a read
    /// (e.g. a counter delta) without costing the disabled path a
    /// runtime branch.
    const ENABLED: bool = false;

    /// Adds `n` to `counter`.
    #[inline(always)]
    fn add(&mut self, counter: Counter, n: u64) {
        let _ = (counter, n);
    }

    /// Records one sample of `metric`.
    #[inline(always)]
    fn record(&mut self, metric: Metric, value: u64) {
        let _ = (metric, value);
    }

    /// The collected counters, when this meter has any (lets generic
    /// callers — the lab's campaign driver, panic enrichment — extract
    /// a snapshot without knowing the concrete meter type).
    #[inline]
    fn counters(&self) -> Option<&CounterMeter> {
        None
    }
}

/// The zero-overhead default meter: collects nothing, compiles to
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopMeter;

impl Meter for NoopMeter {}

/// A collecting meter: one `u64` per [`Counter`] plus one log-bucketed
/// [`Histogram`] per [`Metric`], all stored **inline** (no heap), so
/// metered stepping is as allocation-free as unmetered stepping.
///
/// Mergeable: [`CounterMeter::merge`] is exact (`+` on counters,
/// bucket-wise `+` on histograms), associative, and commutative — the
/// aggregation substrate for campaign fleets stitching per-chunk
/// results back into per-cell totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterMeter {
    counters: [u64; Counter::COUNT],
    histograms: [Histogram; Metric::COUNT],
}

impl CounterMeter {
    /// A meter with every counter at zero and every histogram empty.
    pub fn new() -> Self {
        CounterMeter {
            counters: [0; Counter::COUNT],
            histograms: [Histogram::new(); Metric::COUNT],
        }
    }

    /// The current value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The histogram of one metric.
    pub fn histogram(&self, metric: Metric) -> &Histogram {
        &self.histograms[metric.index()]
    }

    /// Exact merge of another meter into this one.
    pub fn merge(&mut self, other: &CounterMeter) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.histograms.iter_mut().zip(&other.histograms) {
            a.merge(b);
        }
    }

    /// `true` iff nothing has been counted or recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.histograms.iter().all(Histogram::is_empty)
    }

    /// One-line `name=value` rendering of the non-zero counters, for
    /// panic messages and logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            let v = self.get(c);
            if v == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push_str(", ");
            }
            out.push_str(c.name());
            out.push('=');
            out.push_str(&v.to_string());
        }
        if out.is_empty() {
            out.push_str("all zero");
        }
        out
    }
}

impl Default for CounterMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl Meter for CounterMeter {
    const ENABLED: bool = true;

    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        self.counters[counter.index()] += n;
    }

    #[inline]
    fn record(&mut self, metric: Metric, value: u64) {
        self.histograms[metric.index()].record(value);
    }

    #[inline]
    fn counters(&self) -> Option<&CounterMeter> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Number of buckets in a [`Histogram`]: bucket 0 holds the value 0,
/// bucket `b ≥ 1` holds values with bit length `b`, i.e. the range
/// `[2^(b-1), 2^b)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A constant-memory log-bucketed histogram of `u64` samples with an
/// **exact merge**.
///
/// Count, sum, min, and max are exact; quantiles are nearest-rank
/// *estimates* resolved to the upper bound of the chosen bucket (and
/// clamped to the exact `[min, max]` envelope), so the estimate of a
/// `p`-quantile is never below the true value's bucket and at most one
/// power of two above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The inclusive value range `[lo, hi]` of bucket `b`.
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        assert!(b < HISTOGRAM_BUCKETS);
        if b == 0 {
            (0, 0)
        } else if b == 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (b - 1), (1 << b) - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Exact merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// `true` iff no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank quantile estimate for `percentile ∈ 1..=100`:
    /// the upper bound of the bucket holding the nearest-rank sample,
    /// clamped to the exact `[min, max]` envelope. `None` when empty.
    pub fn quantile(&self, percentile: u32) -> Option<u64> {
        assert!((1..=100).contains(&percentile), "percentile out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((percentile as u128 * self.count as u128).div_ceil(100)).max(1);
        let mut seen: u128 = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c as u128;
            if seen >= rank {
                let (_, hi) = Self::bucket_bounds(b);
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Exact digests
// ---------------------------------------------------------------------------

/// Five-number summary (plus mean) of a set of `u64` samples — the
/// **exact** digest shared by the lab's per-cell summaries and the
/// engine's stabilization statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// Maximum.
    pub max: u64,
}

impl SummaryStats {
    /// Summarizes `samples` (sorted in place); `None` when empty.
    pub fn from_samples(samples: &mut [u64]) -> Option<SummaryStats> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let count = samples.len();
        let sum: u128 = samples.iter().map(|&v| v as u128).sum();
        Some(SummaryStats {
            count,
            min: samples[0],
            mean: sum as f64 / count as f64,
            p50: nearest_rank(samples, 50),
            p95: nearest_rank(samples, 95),
            max: samples[count - 1],
        })
    }
}

/// Nearest-rank percentile of an ascending-sorted non-empty slice.
pub fn nearest_rank(sorted: &[u64], percentile: u32) -> u64 {
    debug_assert!(!sorted.is_empty() && (1..=100).contains(&percentile));
    let rank = (percentile as usize * sorted.len()).div_ceil(100);
    sorted[rank.max(1) - 1]
}

// ---------------------------------------------------------------------------
// Diagnostic (schedule-dependent) statistics
// ---------------------------------------------------------------------------

/// Boundary-exchange statistics of a sharded port-dirty pass: how many
/// dirty-port hand-offs stayed inside the writer's own shard versus
/// crossing a shard boundary (the serial exchange phase's traffic).
///
/// These depend on the partition — a different shard count gives
/// different numbers for the *same* execution — so they are deliberately
/// **not** [`Counter`]s: a [`Meter`]'s counters must stay byte-identical
/// across shard and thread counts, and the campaign-determinism gates
/// enforce exactly that. Diagnostics like this one ride next to the
/// trace buffer instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Dirty-port candidates whose reader lives in the writer's shard.
    pub local_ports: u64,
    /// Dirty-port candidates handed across a shard boundary by the
    /// serial exchange phase.
    pub boundary_ports: u64,
    /// Serial exchange phases executed (one per dense sharded step of a
    /// port-separable protocol).
    pub exchanges: u64,
}

impl ExchangeStats {
    /// Merges another instance (campaign aggregation across cells).
    pub fn merge(&mut self, other: &ExchangeStats) {
        self.local_ports += other.local_ports;
        self.boundary_ports += other.boundary_ports;
        self.exchanges += other.exchanges;
    }
}

/// [`ExchangeStats`] broken down per destination shard: the boundary
/// dirty-port hand-offs each shard *received* from the serial exchange
/// phase, plus the aggregate totals.
///
/// Like [`ExchangeStats`], this is a partition-dependent diagnostic —
/// the same execution under a different shard count yields different
/// numbers — so it rides outside the deterministic [`Counter`] set. For
/// a *fixed* mode and shard count it is still fully deterministic
/// (byte-identical across thread counts and seed chunkings), which is
/// what lets metered campaign reports include it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExchangeBreakdown {
    /// The aggregate local/boundary/phase totals.
    pub stats: ExchangeStats,
    /// Boundary hand-offs received per destination shard
    /// (`per_shard[s]` = candidates whose reader lives in shard `s`).
    pub per_shard: Vec<u64>,
}

impl ExchangeBreakdown {
    /// `true` iff no exchange phase ever ran.
    pub fn is_empty(&self) -> bool {
        self.stats.exchanges == 0
    }

    /// Merges another breakdown (exact element-wise addition; the
    /// per-shard vectors are aligned by padding the shorter one).
    pub fn merge(&mut self, other: &ExchangeBreakdown) {
        self.stats.merge(&other.stats);
        if self.per_shard.len() < other.per_shard.len() {
            self.per_shard.resize(other.per_shard.len(), 0);
        }
        for (a, b) in self.per_shard.iter_mut().zip(&other.per_shard) {
            *a += b;
        }
    }
}

/// Deterministic statistics of one explicit-state exploration
/// (`sno-check`'s sharded breadth-first search).
///
/// Every field counts *logical work* — states discovered, transitions
/// generated, duplicate hits on the sharded seen-set — never wall-clock
/// time, so for a fixed model the totals are byte-identical across
/// fleet thread counts **and** shard counts (the checker's certificate
/// gates in CI `cmp` exactly that). Throughput (states/sec) is derived
/// by the CLI from a wall clock at print time and never stored here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states discovered (inserted into a seen-set shard).
    pub states: u64,
    /// Protocol transitions generated (central-daemon single moves).
    pub transitions: u64,
    /// Fault transitions generated (corruption, crash, topology).
    pub fault_transitions: u64,
    /// Generated transitions whose target was already known — the
    /// dedup hit rate of the sharded seen-set.
    pub dedup_hits: u64,
}

impl ExploreStats {
    /// Merges another instance (exact addition — shard-count and
    /// thread-count independent).
    pub fn merge(&mut self, other: &ExploreStats) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.fault_transitions += other.fault_transitions;
        self.dedup_hits += other.dedup_hits;
    }
}

// ---------------------------------------------------------------------------
// Trace export
// ---------------------------------------------------------------------------

/// One complete (`ph: "X"`) span in the Chrome trace-event model.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name (e.g. the phase: `"resolve"`, `"write"`, `"reeval"`,
    /// `"barrier"`).
    pub name: &'static str,
    /// Category, used by trace viewers for filtering.
    pub cat: &'static str,
    /// Start, microseconds since the buffer's origin.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Lane (one per shard, plus a control lane).
    pub tid: u64,
}

/// An in-memory span buffer exported as Chrome trace-event JSON
/// (loadable in Perfetto or `chrome://tracing`).
///
/// Lanes (`tid`s) can be named via [`TraceBuffer::name_lane`]; names
/// become `thread_name` metadata events so viewers label the rows.
/// Wall-clock timings live **only** here — never in [`Counter`]s — so
/// traces are diagnostic while counters stay deterministic.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    origin: Instant,
    lanes: Vec<(u64, String)>,
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// An empty buffer whose clock starts now.
    pub fn new() -> Self {
        TraceBuffer {
            origin: Instant::now(),
            lanes: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The instant all spans are measured relative to.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Names a lane (idempotent; the first name wins).
    pub fn name_lane(&mut self, tid: u64, name: &str) {
        if !self.lanes.iter().any(|(t, _)| *t == tid) {
            self.lanes.push((tid, name.to_string()));
        }
    }

    /// Pushes one complete span measured between two instants. Spans
    /// that start before the buffer's origin are clamped to it.
    pub fn push_span(
        &mut self,
        name: &'static str,
        cat: &'static str,
        tid: u64,
        start: Instant,
        end: Instant,
    ) {
        let start = start.max(self.origin);
        let ts_us = start.duration_since(self.origin).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.events.push(TraceEvent {
            name,
            cat,
            ts_us,
            dur_us,
            tid,
        });
    }

    /// The recorded spans.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the buffer as a Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (tid, name) in &self.lanes {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            ));
        }
        for e in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                escape_json(e.name),
                escape_json(e.cat),
                e.ts_us,
                e.dur_us,
                e.tid
            ));
        }
        out.push_str("]}");
        out
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new()
    }
}

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters — `\n`, `\r` and `\t` in their short
/// forms). Shared by every hand-rolled JSON writer in the workspace so
/// their escaping never drifts apart.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_uses_short_forms_for_common_controls() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape_json("\r\t"), "\\r\\t");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn counter_names_are_stable_and_dense() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
        for (i, m) in Metric::ALL.into_iter().enumerate() {
            assert_eq!(m.index(), i);
            assert!(!m.name().is_empty());
        }
    }

    #[test]
    fn noop_meter_reports_disabled() {
        const { assert!(!NoopMeter::ENABLED) };
        let mut m = NoopMeter;
        m.add(Counter::GuardEvals, 7);
        m.record(Metric::EnabledPerStep, 7);
        assert!(m.counters().is_none());
    }

    #[test]
    fn counter_meter_counts_and_merges_exactly() {
        let mut a = CounterMeter::new();
        assert!(a.is_empty());
        a.add(Counter::GuardEvals, 3);
        a.add(Counter::GuardEvals, 4);
        a.record(Metric::EnabledPerStep, 5);
        let mut b = CounterMeter::new();
        b.add(Counter::GuardEvals, 10);
        b.add(Counter::TxnCommits, 2);
        b.record(Metric::EnabledPerStep, 9);
        a.merge(&b);
        assert_eq!(a.get(Counter::GuardEvals), 17);
        assert_eq!(a.get(Counter::TxnCommits), 2);
        assert_eq!(a.histogram(Metric::EnabledPerStep).count(), 2);
        assert_eq!(a.histogram(Metric::EnabledPerStep).sum(), 14);
        assert!(a.counters().is_some());
        let rendered = a.render();
        assert!(rendered.contains("guard_evals=17"), "{rendered}");
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_bounds(11), (1024, 2047));
        assert_eq!(Histogram::bucket_bounds(64).1, u64::MAX);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut all = Histogram::new();
        let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        for v in 0..300u64 {
            all.record(v * v);
            parts[(v % 3) as usize].record(v * v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, all, "merge must be exact, not approximate");
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // True p50 is 50 (bucket [32,63]); the estimate is the bucket's
        // upper bound clamped to [min, max].
        assert_eq!(h.quantile(50), Some(63));
        assert_eq!(h.quantile(100), Some(100));
        assert_eq!(h.quantile(1), Some(1));
        assert_eq!(Histogram::new().quantile(50), None);
        // Constant streams are exact.
        let mut c = Histogram::new();
        for _ in 0..10 {
            c.record(42);
        }
        assert_eq!(c.quantile(50), Some(42));
        assert_eq!(c.quantile(95), Some(42));
    }

    #[test]
    fn exchange_breakdown_and_explore_stats_merge_exactly() {
        let mut a = ExchangeBreakdown {
            stats: ExchangeStats {
                local_ports: 3,
                boundary_ports: 5,
                exchanges: 2,
            },
            per_shard: vec![1, 4],
        };
        assert!(!a.is_empty());
        let b = ExchangeBreakdown {
            stats: ExchangeStats {
                local_ports: 7,
                boundary_ports: 1,
                exchanges: 1,
            },
            per_shard: vec![0, 1, 9],
        };
        a.merge(&b);
        assert_eq!(a.stats.local_ports, 10);
        assert_eq!(a.stats.boundary_ports, 6);
        assert_eq!(a.stats.exchanges, 3);
        assert_eq!(a.per_shard, vec![1, 5, 9]);
        assert!(ExchangeBreakdown::default().is_empty());

        let mut s = ExploreStats {
            states: 10,
            transitions: 40,
            fault_transitions: 3,
            dedup_hits: 25,
        };
        s.merge(&ExploreStats {
            states: 5,
            transitions: 10,
            fault_transitions: 1,
            dedup_hits: 2,
        });
        assert_eq!(
            s,
            ExploreStats {
                states: 15,
                transitions: 50,
                fault_transitions: 4,
                dedup_hits: 27,
            }
        );
    }

    #[test]
    fn summary_stats_match_nearest_rank_semantics() {
        let mut v: Vec<u64> = (1..=100).collect();
        let s = SummaryStats::from_samples(&mut v).unwrap();
        assert_eq!((s.min, s.p50, s.p95, s.max), (1, 50, 95, 100));
        assert_eq!(s.mean, 50.5);
        assert_eq!(SummaryStats::from_samples(&mut []), None);
        let mut v = vec![10, 20, 30, 40];
        let s = SummaryStats::from_samples(&mut v).unwrap();
        assert_eq!((s.p50, s.p95), (20, 40));
    }

    #[test]
    fn trace_buffer_exports_well_formed_chrome_json() {
        let mut t = TraceBuffer::new();
        let a = t.origin();
        let b = a + std::time::Duration::from_micros(250);
        t.name_lane(0, "shard 0");
        t.name_lane(0, "ignored duplicate");
        t.name_lane(9, "control \"lane\"");
        t.push_span("resolve", "sync-sharded", 0, a, b);
        t.push_span("barrier", "sync-sharded", 0, b, b);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"resolve\""));
        assert!(json.contains("shard 0"));
        assert!(json.contains("control \\\"lane\\\""));
        assert!(!json.contains("ignored duplicate"));
        // Balanced braces/brackets — a cheap well-formedness check the
        // CI smoke job repeats with a real JSON parser.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
