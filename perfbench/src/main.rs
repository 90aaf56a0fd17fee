//! Benchmark of the `sno` workspace: campaign and model-checker
//! workloads driven through the crates' public entry points, timed
//! layer by layer from outside the crates.
//!
//! ```sh
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload check-sym --seed 1 --seconds 37 --trace 0
//! ```
//!
//! The benchmark is one process and a closed-loop batch client: each
//! call starts after the previous one returns. The first repetition
//! warms up and is left out of the timings. `--trace 0` prints the
//! end-to-end metrics of untraced repetitions; `--trace 1` prints the
//! per-layer metrics of a separate traced run. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`
//! for the workloads and what each metric should move.

mod campaign;
mod checker;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// End-to-end metrics, printed by `--trace 0` for every workload.
const END_TO_END: &[(&str, &str)] = &[("cpu_s", "s"), ("setup_s", "s"), ("work_per_cpu_s", "1/s")];

/// Per-layer metrics, printed by `--trace 1` for every workload. A
/// layer the workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    // sno-check
    ("check.model.s", "s"),
    ("check.symmetry.group_order", "count"),
    ("check.explore.s", "s"),
    ("check.explore.states", "count"),
    ("check.explore.transitions", "count"),
    ("check.explore.dedup_hits", "count"),
    ("check.explore.levels", "count"),
    ("check.explore.seen_entries", "count"),
    ("check.explore.dedup_ratio", "ratio"),
    ("check.quotient_factor", "ratio"),
    ("check.symmetry.canon_ns", "ns"),
    ("check.space.succ_ns", "ns"),
    ("check.probe.samples", "count"),
    ("check.analysis.unfair.s", "s"),
    ("check.analysis.round_robin.s", "s"),
    ("check.analysis.reachable", "count"),
    ("check.certificate.s", "s"),
    ("check.certificate.bytes", "bytes"),
    ("check.states_per_s", "1/s"),
    ("check.raw_states_per_s", "1/s"),
    // sno-engine
    ("engine.guard_evals", "count"),
    ("engine.port_evals", "count"),
    ("engine.port_invalidations", "count"),
    ("engine.dirty_pushes", "count"),
    ("engine.txn_commits", "count"),
    ("engine.stage_precopies", "count"),
    ("engine.guard_evals_per_move", "ratio"),
    // sno-graph
    ("graph.build.s", "s"),
    ("engine.topo_events", "count"),
    ("engine.csr_repairs", "count"),
    ("engine.cache_repairs", "count"),
    // sno-lab
    ("lab.cell.p50_ms", "ms"),
    ("lab.cell.p95_ms", "ms"),
    ("lab.cell.samples", "count"),
    ("lab.report.s", "s"),
    ("lab.runs", "count"),
    ("lab.moves", "count"),
    ("lab.recovery_moves", "count"),
    ("lab.moves_per_s", "1/s"),
    ("lab.runs_per_s", "1/s"),
    // sno-fleet
    ("fleet.spawns", "count"),
    // process
    ("peak_heap_mb", "MB"),
    // tracing
    ("trace.overhead_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
];

/// The workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["campaign-sparse", "check-raw", "check-sym"];

/// Untimed setup batches before each timed group: they warm the code
/// and the heap after a repetition.
const SETUP_WARMUP: usize = 2;
/// Timed setup batches per group. A group runs before the first
/// repetition and after each one, so the samples spread over the run;
/// `setup_s` is the median of all of them.
const SETUP_BATCHES: usize = 10;
/// Each setup batch repeats the setup until this much time has passed,
/// so sub-millisecond setups are timed over many calls.
const SETUP_BATCH_S: f64 = 0.02;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What one workload reports: operation counts and named metric values.
pub struct Outcome {
    /// Operations attempted (campaign runs, or certificates).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Metric name → value; names come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                // Campaign seed ranges start at a multiple of the seed.
                let s: u32 = value
                    .parse()
                    .map_err(|_| format!("--seed must be an integer below 2^32, got {value}"))?;
                seed = Some(u64::from(s));
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Refuses a configuration that would run more busy threads than the
/// machine has hardware threads: oversubscription measures the OS
/// scheduler, not the program.
pub fn thread_budget(what: &str, busy: usize) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if busy > nproc {
        return Err(format!(
            "{what} needs {busy} busy threads but this machine has {nproc}"
        ));
    }
    Ok(())
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile of `v`, `p` in `0..=100`.
pub fn percentile(v: &[f64], p: usize) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len()).div_ceil(100).max(1);
    s[rank - 1]
}

/// CPU time the whole process has used, every thread, user and system,
/// in seconds.
pub fn cpu_time() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and process CPU time since it was started.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_time(),
        }
    }

    /// Wall seconds and CPU seconds elapsed.
    pub fn read(&self) -> (f64, f64) {
        (secs(self.wall), cpu_time() - self.cpu)
    }
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `rep` in a closed loop for about `seconds`, and at least
/// `min_reps` times: it stops before a repetition that, at the mean
/// repetition time so far, would end after `seconds`. Returns each
/// repetition's peak live heap in MiB.
pub fn closed_loop(seconds: f64, min_reps: usize, mut rep: impl FnMut()) -> Vec<f64> {
    let t0 = Instant::now();
    let mut peaks = Vec::new();
    loop {
        let done = peaks.len();
        if done >= min_reps && secs(t0) * (done + 1) as f64 / done as f64 > seconds {
            return peaks;
        }
        PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
        rep();
        peaks.push(PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0));
    }
}

/// The repetitions that count: all but the first, which warms caches and
/// faults in the heap, unless it is the only one.
pub fn timed<T>(reps: &[T]) -> &[T] {
    if reps.len() > 1 {
        &reps[1..]
    } else {
        reps
    }
}

/// Prints each repetition's time to standard error.
pub fn log_times(what: &str, times: &[f64]) {
    let list: Vec<String> = times.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!("perfbench: {what} per repetition: {}", list.join(" "));
}

/// Per-call times of a setup, timed in groups spread over a run.
pub struct SetupTimer<F: FnMut()> {
    setup: F,
    per_call: Vec<f64>,
}

impl<F: FnMut()> SetupTimer<F> {
    pub fn new(setup: F) -> Self {
        SetupTimer {
            setup,
            per_call: Vec::new(),
        }
    }

    /// Runs [`SETUP_WARMUP`] untimed and [`SETUP_BATCHES`] timed
    /// batches, each repeating the setup for at least [`SETUP_BATCH_S`].
    pub fn group(&mut self) {
        for i in 0..SETUP_WARMUP + SETUP_BATCHES {
            let t0 = Instant::now();
            let mut calls = 0u32;
            while calls == 0 || secs(t0) < SETUP_BATCH_S {
                (self.setup)();
                calls += 1;
            }
            if i >= SETUP_WARMUP {
                self.per_call.push(secs(t0) / f64::from(calls));
            }
        }
    }

    /// The median per-call time over every timed batch.
    pub fn median(&self) -> f64 {
        median(&self.per_call)
    }
}

/// The system allocator, counting the live bytes of large heap blocks
/// and their peak.
///
/// The process's resident-set size on this allocator is dominated, for
/// the small campaign workloads, by how many per-thread malloc arenas
/// happen to be alive at once — it jumps by half between identical
/// runs. The live bytes of large blocks (graphs, caches, seen-sets,
/// frontiers) are what the program itself holds. Blocks below
/// [`LARGE_BLOCK`] are not counted: the checker allocates small blocks
/// at a rate where two shared counters slow it by a third.
struct CountingAlloc;

/// Smallest block size the allocator counts.
const LARGE_BLOCK: usize = 4096;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    if size >= LARGE_BLOCK {
        let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn note_dealloc(size: usize) {
    if size >= LARGE_BLOCK {
        LIVE_BYTES.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    for name in outcome.metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in this mode's metric table"
        );
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Keeps freed heap memory in the process: glibc malloc neither trims
/// the heap nor serves large blocks with `mmap`.
///
/// By default every repetition of a checker workload faults in its
/// seen-sets afresh, hundreds of MB, and returns them on exit. What a
/// page fault costs in a VM depends on how hard the host is pressed for
/// memory by other tenants, so that cost moved the time of identical
/// repetitions. With the heap kept, only the warm-up repetition faults
/// its pages in.
fn keep_heap() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: `mallopt` only sets allocator tunables; it is called before
    // the process starts a second thread.
    let ok = unsafe { mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_MAX, 0) == 1 };
    assert!(ok, "mallopt refused a tunable");
}

fn main() {
    keep_heap();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "campaign-sparse" => campaign::run(&campaign::sparse(args.seed), args.seconds, args.trace),
        "check-raw" => checker::run(false, args.seed, args.seconds, args.trace),
        "check-sym" => checker::run(true, args.seed, args.seconds, args.trace),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&outcome, table));
}
