//! The `check-*` workloads: `sno_check` proving closure and unfair and
//! round-robin convergence of `hop` on every configuration of
//! `hubs:2:7`, with the symmetry quotient off (`check-raw`) or on
//! (`check-sym`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sno_check::{
    check_round_robin, check_unfair, counterexample_for_closure, counterexample_from_lasso,
    explore, Certificate, CheckOptions, CheckSpec, ExploreResult, Liveness, Model, PropertyReport,
    Seeds, Verdict, WorkerPool, WorldInfo,
};
use sno_engine::examples::{hop_distance_legit, HopDistance};
use sno_engine::Network;
use sno_graph::{GeneratorSpec, NodeId};

use crate::{
    closed_loop, log_times, median, secs, thread_budget, timed, Outcome, SetupTimer, Stopwatch,
};

/// Checker fleet threads and seen-set shards. One thread: on a shared
/// 2-vCPU host, the level barriers of a two-thread exploration wait for
/// whichever vCPU another tenant holds, and two-thread runs of identical
/// work spread by up to 0.4 of their median.
const THREADS: usize = 1;
const SHARDS: usize = 2;
/// Every configuration of `hop` on 7 processors (`8^7`).
const RAW_STATES: u64 = 2_097_152;
/// Reachable keys sampled by the canonicalization and successor probes.
const PROBE_SAMPLES: usize = 4096;
/// Timed passes over the probe sample.
const PROBE_PASSES: usize = 31;

/// The counts a certificate must reproduce on either graph seed (the
/// hubs generator's seed only permutes ports).
struct Pins {
    states: u64,
    transitions: u64,
    group_order: u64,
}

fn pins(symmetry: bool) -> Pins {
    if symmetry {
        Pins {
            states: 50_688,
            transitions: 310_464,
            group_order: 120,
        }
    } else {
        Pins {
            states: RAW_STATES,
            transitions: 12_845_056,
            group_order: 1,
        }
    }
}

fn network(seed: u64) -> Network {
    let g = GeneratorSpec::Hubs { hubs: 2 }.build(7, seed);
    Network::new(g, NodeId::new(0))
}

fn spec() -> CheckSpec<'static, HopDistance> {
    CheckSpec {
        protocol: "hop".into(),
        topology: "hubs:2:7".into(),
        legit: &hop_distance_legit,
        invariants: Vec::new(),
        closure: true,
        liveness: Liveness::Both,
        seeds: Seeds::AllConfigs,
        seed_list: None,
        faults: Vec::new(),
    }
}

fn options(symmetry: bool) -> CheckOptions {
    CheckOptions {
        threads: THREADS,
        shards: SHARDS,
        symmetry,
        ..CheckOptions::default()
    }
}

/// `true` iff every verdict holds and every pinned count matches.
fn verify(cert: &Certificate, pins: &Pins) -> bool {
    let daemons: Vec<&str> = cert.properties.iter().map(|p| p.daemon).collect();
    cert.all_hold()
        && daemons == ["any", "unfair", "round-robin"]
        && cert.states == pins.states
        && cert.transitions == pins.transitions
        && cert.raw_states == RAW_STATES
        && cert.group_orders == [pins.group_order]
}

fn liveness_report(
    daemon: &'static str,
    model: &Model<'_, HopDistance>,
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

/// Busy time of each public call `sno_check::check` makes.
#[derive(Default)]
struct Phases {
    model_s: f64,
    explore_s: f64,
    unfair_s: f64,
    round_robin_s: f64,
    certificate_s: f64,
}

impl Phases {
    fn wall(&self) -> f64 {
        self.model_s + self.explore_s + self.unfair_s + self.round_robin_s + self.certificate_s
    }
}

/// One traced repetition: the pipeline of `sno_check::check`, call by
/// call, each call timed. Its certificate must equal the untraced one.
fn traced<'m>(
    net: &Network,
    spec: &CheckSpec<'_, HopDistance>,
    opts: &CheckOptions,
    pool: &WorkerPool,
    phases: &mut Phases,
) -> (Model<'m, HopDistance>, ExploreResult, String) {
    let t = Instant::now();
    let model = Model::new(net, &HopDistance, &spec.faults, opts).expect("instance fits the limit");
    phases.model_s = secs(t);
    let t = Instant::now();
    let result = explore(&model, spec, pool, opts.shards);
    phases.explore_s = secs(t);
    let t = Instant::now();
    let unfair = check_unfair(&model, spec, &result.reachable);
    phases.unfair_s = secs(t);
    let t = Instant::now();
    let round_robin = check_round_robin(&model, spec, &result.reachable);
    phases.round_robin_s = secs(t);

    let t = Instant::now();
    let closure_cx = result
        .closure_violation
        .map(|(src, succ)| counterexample_for_closure(&model, &result, src, succ));
    let properties = vec![
        PropertyReport {
            name: "closure".into(),
            kind: "safety",
            daemon: "any",
            holds: closure_cx.is_none(),
            counterexample: closure_cx,
        },
        liveness_report("unfair", &model, &result, unfair),
        liveness_report("round-robin", &model, &result, round_robin),
    ];
    let cert = Certificate {
        protocol: spec.protocol.clone(),
        topology: spec.topology.clone(),
        seeds: spec.seeds.name(),
        fault_budget: model.budget,
        faults: Vec::new(),
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
        symmetry_enabled: opts.symmetry,
        group_orders: model.sym.iter().map(|t| t.group_order()).collect(),
        raw_states: result.raw_states,
        properties,
    };
    let json = cert.to_json();
    phases.certificate_s = secs(t);
    (model, result, json)
}

/// A deterministic, seed-derived sample of reachable configurations
/// (splitmix64 draws with replacement).
fn probe_sample(reachable: &[u64], seed: u64) -> Vec<u64> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..PROBE_SAMPLES)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            reachable[(z % reachable.len() as u64) as usize]
        })
        .collect()
}

/// Median over [`PROBE_PASSES`] passes of `sample` of the mean ns per
/// call of `f`.
fn probe_ns(sample: &[u64], mut f: impl FnMut(usize, u64)) -> f64 {
    let passes: Vec<f64> = (0..PROBE_PASSES)
        .map(|_| {
            let t = Instant::now();
            for (i, &key) in sample.iter().enumerate() {
                f(i, black_box(key));
            }
            secs(t) * 1e9 / sample.len() as f64
        })
        .collect();
    median(&passes)
}

/// Mean ns per call of `SymmetryTable::canon` and of
/// `StateSpace::successors_into` over `sample`.
fn probes(model: &Model<'_, HopDistance>, sample: &[u64]) -> (f64, f64) {
    let world = &model.worlds[0];
    let mut digits = Vec::new();
    let canon_ns = probe_ns(sample, |_, key| {
        black_box(model.sym[0].canon(key, &mut digits));
    });
    let configs: Vec<Vec<u32>> = sample.iter().map(|&k| world.space.decode(k)).collect();
    let mut actions = Vec::new();
    let mut succs = Vec::new();
    let succ_ns = probe_ns(sample, |i, key| {
        succs.clear();
        world.space.successors_into(
            &world.net,
            &HopDistance,
            key,
            &configs[i],
            &mut actions,
            &mut succs,
        );
        black_box(&succs);
    });
    (canon_ns, succ_ns)
}

/// Runs the checker workload for `seconds` and reports its end-to-end
/// metrics (`trace` false) or its per-layer metrics (`trace` true).
pub fn run(symmetry: bool, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    thread_budget("checker threads", THREADS)?;
    let pins = pins(symmetry);
    let spec = spec();
    let opts = options(symmetry);

    let net = network(seed);
    let pool = WorkerPool::new(THREADS);
    // The pool spawns its workers on first use; do that before timing.
    pool.run_mut(&mut [(); THREADS], |_, _| {});

    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    let mut first: Option<String> = None;
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut spawns = Vec::new();
    let mut untraced = |out: &mut Outcome| {
        let s0 = sno_fleet::thread_spawns();
        let clock = Stopwatch::start();
        let cert = sno_check::check(&net, &HopDistance, &spec, &opts, &pool)
            .expect("instance fits the limit");
        let json = cert.to_json();
        let (wall, cpu) = clock.read();
        walls.push(wall);
        cpus.push(cpu);
        spawns.push((sno_fleet::thread_spawns() - s0) as f64);
        out.attempted += 1;
        let same = first.get_or_insert_with(|| json.clone()) == &json;
        if !(same && verify(&cert, &pins)) {
            out.failed += 1;
        }
        json
    };

    if !trace {
        let mut setup = SetupTimer::new(|| {
            let net = network(seed);
            black_box(WorkerPool::new(THREADS));
            black_box(Model::new(&net, &HopDistance, &spec.faults, &opts).expect("instance fits"));
        });
        setup.group();
        closed_loop(seconds, 2, || {
            untraced(&mut out);
            setup.group();
        });
        let setup_s = setup.median();
        log_times("untraced wall_s", &walls);
        log_times("untraced cpu_s", &cpus);
        let cpu_s = median(timed(&cpus));
        out.metrics.insert("cpu_s", cpu_s);
        out.metrics.insert("setup_s", setup_s);
        out.metrics
            .insert("work_per_cpu_s", RAW_STATES as f64 / cpu_s);
        return Ok(out);
    }

    // Traced run: untraced and traced repetitions alternate. The first
    // pair warms up.
    let mut phase_runs: Vec<Phases> = Vec::new();
    let mut last = None;
    let peaks = closed_loop(seconds, 2, || {
        // Free the previous pair's reachable set before this pair runs.
        last = None;
        let expect = untraced(&mut out);
        let mut phases = Phases::default();
        let (model, result, json) = traced(&net, &spec, &opts, &pool, &mut phases);
        out.attempted += 1;
        if json != expect {
            out.failed += 1;
        }
        phase_runs.push(phases);
        last = Some((model, result, json));
    });
    let (model, result, json) = last.expect("the traced loop runs at least once");
    let sample = probe_sample(&result.reachable[0], seed);
    let (canon_ns, succ_ns) = probes(&model, &sample);

    let phase_runs = timed(&phase_runs);
    let med = |f: fn(&Phases) -> f64| median(&phase_runs.iter().map(f).collect::<Vec<_>>());
    let traced_walls: Vec<f64> = phase_runs.iter().map(Phases::wall).collect();
    log_times("untraced wall_s", &walls);
    log_times("traced wall_s", &traced_walls);
    let wall_s = median(timed(&walls));
    let traced_s = median(&traced_walls);
    let stats = &result.stats;
    let m = &mut out.metrics;
    m.insert("check.model.s", med(|p| p.model_s));
    m.insert(
        "check.symmetry.group_order",
        model.sym[0].group_order() as f64,
    );
    m.insert("check.explore.s", med(|p| p.explore_s));
    m.insert("check.explore.states", stats.states as f64);
    m.insert("check.explore.transitions", stats.transitions as f64);
    m.insert("check.explore.dedup_hits", stats.dedup_hits as f64);
    m.insert("check.explore.levels", result.frontier.len() as f64);
    m.insert("check.explore.seen_entries", result.seen_entries as f64);
    m.insert(
        "check.explore.dedup_ratio",
        stats.dedup_hits as f64 / stats.transitions as f64,
    );
    m.insert(
        "check.quotient_factor",
        result.raw_states as f64 / stats.states as f64,
    );
    m.insert("check.symmetry.canon_ns", canon_ns);
    m.insert("check.space.succ_ns", succ_ns);
    m.insert("check.probe.samples", sample.len() as f64);
    m.insert("check.analysis.unfair.s", med(|p| p.unfair_s));
    m.insert("check.analysis.round_robin.s", med(|p| p.round_robin_s));
    m.insert(
        "check.analysis.reachable",
        result.reachable.iter().map(Vec::len).sum::<usize>() as f64,
    );
    m.insert("check.certificate.s", med(|p| p.certificate_s));
    m.insert("check.certificate.bytes", json.len() as f64);
    m.insert("check.states_per_s", pins.states as f64 / wall_s);
    m.insert("check.raw_states_per_s", RAW_STATES as f64 / wall_s);
    m.insert("fleet.spawns", median(timed(&spawns)));
    m.insert("peak_heap_mb", median(&peaks));
    m.insert("trace.overhead_frac", traced_s / wall_s - 1.0);
    m.insert("trace.wall_s", traced_s);
    m.insert("trace.untraced_wall_s", wall_s);
    Ok(out)
}
