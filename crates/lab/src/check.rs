//! `sno-lab check`: command-line model checking over the repo's
//! enumerable protocol stacks.
//!
//! The `sno-check` crate is generic in the protocol; this module is the
//! **registry** that closes the loop for the CLI: each stack name pairs
//! an [`Enumerable`] protocol constructor with its legitimacy predicate
//! (the `L` of Definition 2.1.2), so a certificate run is one command:
//!
//! ```sh
//! sno-lab check --stack hop --topology path --size 7 --liveness unfair
//! sno-lab check --suite --threads 4 --shards 8 --json suite.json
//! ```
//!
//! The **certificate suite** ([`cert_suite`]) is the bounded CI gate:
//! cells covering every property kind the checker knows — closure,
//! unfair and round-robin convergence, a budgeted corruption envelope,
//! a disconnecting [`TopologyEvent`] world chain, and symmetry-reduced
//! regimes — each with its expected verdicts pinned. The suite JSON ([`suite_json`]) is
//! deterministic, so CI `cmp`s the artifact byte-for-byte across fleet
//! thread and shard counts. States/second is printed to stdout only;
//! no wall-clock value ever reaches the JSON.

use std::time::Instant;

use sno_check::{check, Certificate, CheckOptions, CheckSpec, FaultClass, Liveness, Seeds};
use sno_engine::dijkstra::DijkstraRing;
use sno_engine::examples::{hop_distance_legit, HopDistance};
use sno_engine::{Enumerable, Network};
use sno_fleet::WorkerPool;
use sno_graph::{GeneratorSpec, NodeId, RootedTree, TopologyEvent};

/// The stack names [`run_cell`] can instantiate.
pub const STACKS: [&str; 8] = [
    "hop",
    "bfs-tree",
    "cd-token",
    "fixed-token",
    "fairness-witness",
    "dcd",
    "dijkstra-ring",
    "dftno",
];

/// One protocol × topology × regime cell to check.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckCell {
    /// Stack name (one of [`STACKS`]).
    pub stack: String,
    /// Topology family.
    pub topology: GeneratorSpec,
    /// Target node count.
    pub size: usize,
    /// Topology-instantiation seed.
    pub graph_seed: u64,
    /// Where exploration starts.
    pub seeds: Seeds,
    /// Which liveness analyses to run.
    pub liveness: Liveness,
    /// Fault classes explored as extra transitions.
    pub faults: Vec<FaultClass>,
    /// Quotient the search by the protocol-admitted automorphism group.
    pub symmetry: bool,
    /// Per-cell override of the configuration-count limit (the composed
    /// `dftno` space dwarfs the default; its seed list keeps the
    /// *reachable* set bounded).
    pub limit: Option<u64>,
}

impl CheckCell {
    fn new(stack: &str, topology: GeneratorSpec, size: usize) -> Self {
        CheckCell {
            stack: stack.into(),
            topology,
            size,
            graph_seed: 0,
            seeds: Seeds::AllConfigs,
            liveness: Liveness::Both,
            faults: Vec::new(),
            symmetry: false,
            limit: None,
        }
    }
}

/// Parses a fault-class name: `corrupt`, `crash`, `link-fail:U-V`,
/// `link-add:U-V` (node indices against the built topology).
///
/// # Errors
///
/// Returns a human-readable message on unknown classes or bad endpoints.
pub fn parse_fault(s: &str) -> Result<FaultClass, String> {
    match s {
        "corrupt" => return Ok(FaultClass::Corrupt),
        "crash" => return Ok(FaultClass::Crash),
        _ => {}
    }
    let (kind, rest) = s
        .split_once(':')
        .ok_or_else(|| format!("unknown fault class `{s}`"))?;
    let (u, v) = rest
        .split_once('-')
        .ok_or_else(|| format!("bad fault endpoints `{rest}` (want U-V)"))?;
    let u: usize = u.parse().map_err(|_| format!("bad node index `{u}`"))?;
    let v: usize = v.parse().map_err(|_| format!("bad node index `{v}`"))?;
    let (u, v) = (NodeId::new(u), NodeId::new(v));
    match kind {
        "link-fail" => Ok(FaultClass::Topology(TopologyEvent::LinkFail { u, v })),
        "link-add" => Ok(FaultClass::Topology(TopologyEvent::LinkAdd { u, v })),
        other => Err(format!("unknown fault class `{other}`")),
    }
}

/// Parses a seed-regime name (`all`, `legitimate`, `initial`).
///
/// # Errors
///
/// Returns a message naming the valid regimes otherwise.
pub fn parse_seeds(s: &str) -> Result<Seeds, String> {
    match s {
        "all" => Ok(Seeds::AllConfigs),
        "legitimate" => Ok(Seeds::Legitimate),
        "initial" => Ok(Seeds::Initial),
        other => Err(format!(
            "unknown start regime `{other}` (expected all, legitimate, or initial)"
        )),
    }
}

/// Parses a liveness selection (`none`, `unfair`, `round-robin`, `both`).
///
/// # Errors
///
/// Returns a message naming the valid selections otherwise.
pub fn parse_liveness(s: &str) -> Result<Liveness, String> {
    match s {
        "none" => Ok(Liveness::None),
        "unfair" => Ok(Liveness::Unfair),
        "round-robin" => Ok(Liveness::RoundRobin),
        "both" => Ok(Liveness::Both),
        other => Err(format!(
            "unknown liveness `{other}` (expected none, unfair, round-robin, or both)"
        )),
    }
}

/// Stable display name of a liveness selection.
pub fn liveness_name(l: Liveness) -> &'static str {
    match l {
        Liveness::None => "none",
        Liveness::Unfair => "unfair",
        Liveness::RoundRobin => "round-robin",
        Liveness::Both => "both",
    }
}

fn run_with<P: Enumerable>(
    net: &Network,
    protocol: &P,
    legit: sno_check::PredFn<'_, P>,
    cell: &CheckCell,
    options: &CheckOptions,
    pool: &WorkerPool,
    seed_list: Option<Vec<u64>>,
) -> Result<Certificate, String> {
    let spec = CheckSpec {
        protocol: cell.stack.clone(),
        topology: format!("{}:{}", cell.topology, cell.size),
        legit,
        invariants: Vec::new(),
        closure: true,
        liveness: cell.liveness,
        seeds: cell.seeds,
        seed_list,
        faults: cell.faults.clone(),
    };
    check(net, protocol, &spec, options, pool).map_err(|e| e.to_string())
}

/// Computes the forward-closed legitimate cycle of the composed `DFTNO`
/// stack: converge from the protocol's initial configuration under a
/// round-robin schedule, then close the converged configuration under
/// program moves (legitimate configurations are sequential, so this is
/// the entire circulation cycle). The sorted indices both seed the
/// checker's corruption-from-`L` envelope (no scan of the
/// astronomically large product space) and *define* `L` extensionally:
/// the golden-orientation predicate alone is **not** closed, because a
/// corrupted `Max` still satisfies it yet mislabels `η` on the next
/// `Forward` — the cycle set is the largest invariant inside it.
fn dftno_legit_cycle(
    net: &Network,
    proto: &sno_core::Dftno<sno_token::DfsTokenCirculation>,
    limit: u64,
) -> Result<
    (
        sno_check::StateSpace<sno_core::dftno::DftnoState<sno_token::dftc::DftcState>>,
        Vec<u64>,
    ),
    String,
> {
    use sno_engine::Protocol as _;
    type S = sno_core::dftno::DftnoState<sno_token::dftc::DftcState>;
    let space: sno_check::StateSpace<S> =
        sno_check::StateSpace::new(net, proto, limit).map_err(|e| e.to_string())?;
    let legit = |c: &[S]| {
        if !sno_core::dftno::dftno_golden(net, c) {
            return false;
        }
        let toks: Vec<sno_token::dftc::DftcState> = c.iter().map(|s| s.token.clone()).collect();
        sno_token::dftc::dftc_legit(net, &toks)
    };
    let init: Vec<S> = net
        .nodes()
        .map(|p| proto.initial_state(net.ctx(p)))
        .collect();
    let mut idx = space
        .encode(&init)
        .ok_or("initial configuration is not enumerated")?;
    let n = net.node_count();
    let mut rr = 0usize;
    let mut steps = 0u32;
    while !legit(&space.decode(idx)) {
        steps += 1;
        if steps > 200_000 {
            return Err("DFTNO did not converge within the step cap".into());
        }
        let moved = (0..n).find_map(|off| {
            let node = ((rr + off) % n) as u32;
            space
                .apply_move(net, proto, idx, node, 0)
                .map(|next| (node, next))
        });
        let Some((node, next)) = moved else {
            return Err("DFTNO deadlocked before reaching L".into());
        };
        idx = next;
        rr = (node as usize + 1) % n;
    }
    let mut seen = std::collections::BTreeSet::new();
    seen.insert(idx);
    let mut stack = vec![idx];
    let mut actions = Vec::new();
    let mut succs = Vec::new();
    while let Some(cur) = stack.pop() {
        let cfg = space.decode(cur);
        succs.clear();
        space.successors_into(net, proto, cur, &cfg, &mut actions, &mut succs);
        for s in &succs {
            if seen.contains(&s.next) {
                continue;
            }
            if !legit(&space.decode(s.next)) {
                return Err("legitimate set is not closed under program moves".into());
            }
            seen.insert(s.next);
            stack.push(s.next);
        }
        if seen.len() > 100_000 {
            return Err("legitimate cycle exceeds the seed cap".into());
        }
    }
    Ok((space, seen.into_iter().collect()))
}

/// Instantiates `cell`'s stack and runs the checker.
///
/// # Errors
///
/// Returns a message on unknown stacks, fault endpoints outside the
/// topology, stack/topology mismatches (`dijkstra-ring` needs `ring`),
/// or a state space over `options.limit`.
pub fn run_cell(
    cell: &CheckCell,
    options: &CheckOptions,
    pool: &WorkerPool,
) -> Result<Certificate, String> {
    let mut options = *options;
    options.symmetry = options.symmetry || cell.symmetry;
    if let Some(l) = cell.limit {
        options.limit = l;
    }
    let options = &options;
    let g = cell.topology.build(cell.size, cell.graph_seed);
    let n = g.node_count();
    for f in &cell.faults {
        if let FaultClass::Topology(
            TopologyEvent::LinkFail { u, v } | TopologyEvent::LinkAdd { u, v },
        ) = f
        {
            if u.index() >= n || v.index() >= n {
                return Err(format!(
                    "fault `{f}` references a node outside the {n}-node topology"
                ));
            }
        }
    }
    let root = NodeId::new(0);
    match cell.stack.as_str() {
        "hop" => {
            let net = Network::new(g, root);
            run_with(
                &net,
                &HopDistance,
                &hop_distance_legit,
                cell,
                options,
                pool,
                None,
            )
        }
        "bfs-tree" => {
            let net = Network::new(g, root);
            run_with(
                &net,
                &sno_tree::BfsSpanningTree,
                &sno_tree::bfs_legit,
                cell,
                options,
                pool,
                None,
            )
        }
        "cd-token" => {
            let net = Network::new(g, root);
            run_with(
                &net,
                &sno_token::CollinDolev,
                &sno_token::cd::cd_legit,
                cell,
                options,
                pool,
                None,
            )
        }
        "fairness-witness" => {
            let net = Network::new(g, root);
            run_with(
                &net,
                &sno_engine::examples::FairnessWitness,
                &sno_engine::examples::fairness_witness_legit,
                cell,
                options,
                pool,
                None,
            )
        }
        "fixed-token" => {
            let dfs = sno_graph::traverse::first_dfs(&g, root);
            let tree = RootedTree::from_parents(&g, root, &dfs.parent)
                .map_err(|e| format!("fixed-token needs a spanning tree: {e:?}"))?;
            let proto = sno_token::FixedTreeToken::from_graph(&g, &tree);
            let net = Network::new(g, root);
            let legit = |_: &Network, c: &[sno_token::tok::TokState]| proto.is_legitimate(c);
            run_with(&net, &proto, &legit, cell, options, pool, None)
        }
        "dcd" => {
            // No joins in the checked world chain, so the tight bound:
            // dist saturates at n = "disconnected".
            let net = Network::with_bound(g, root, n);
            run_with(
                &net,
                &sno_core::dcd::Dcd,
                &sno_core::dcd::dcd_legit,
                cell,
                options,
                pool,
                None,
            )
        }
        "dijkstra-ring" => {
            if cell.topology != GeneratorSpec::Ring {
                return Err("the dijkstra-ring stack needs `--topology ring`".into());
            }
            let net = Network::new(g, root);
            let proto = DijkstraRing::on_ring(&net, net.node_count() as u32);
            let legit = |net: &Network, c: &[u32]| proto.count_privileges(net, c) == 1;
            run_with(&net, &proto, &legit, cell, options, pool, None)
        }
        "dftno" => {
            // The full composed stack: orientation over the
            // self-stabilizing DFS token circulation. Its product space
            // is far beyond exhaustive seeding, so the cell seeds from
            // the explicit legitimate cycle (corruption-from-`L`), and
            // `L` is that cycle — see `dftno_legit_cycle` for why the
            // intensional golden predicate is not closed.
            let net = Network::new(g, root);
            let proto = sno_core::Dftno::new(sno_token::DfsTokenCirculation);
            let (space, seeds) = dftno_legit_cycle(&net, &proto, options.limit)?;
            let seed_list = seeds.clone();
            let legit = move |_: &Network,
                              c: &[sno_core::dftno::DftnoState<sno_token::dftc::DftcState>]| {
                space
                    .encode(c)
                    .is_some_and(|i| seeds.binary_search(&i).is_ok())
            };
            run_with(&net, &proto, &legit, cell, options, pool, Some(seed_list))
        }
        other => Err(format!(
            "unknown stack `{other}` (expected one of {})",
            STACKS.join(", ")
        )),
    }
}

/// A certificate-suite cell with its expected verdicts, in certificate
/// property order (closure, then unfair, then round-robin as enabled).
#[derive(Debug, Clone)]
pub struct SuiteCell {
    /// The cell to check.
    pub cell: CheckCell,
    /// Expected `holds` per property.
    pub expect: &'static [bool],
}

/// The bounded CI certificate suite.
///
/// One cell per property regime the checker supports:
///
/// 1. `hop` / `path:4` — the baseline: closure plus both convergences.
/// 2. `bfs-tree` / `ring:3` — a cyclic topology (E11's triangle).
/// 3. `cd-token` / `path:3` — the Collin–Dolev DFS words.
/// 4. `fixed-token` / `star:4` — the never-silent token wave: both
///    convergences hold on the star (the wave merges tokens under any
///    central schedule here), certifying more than the legacy checker's
///    round-robin-only E11 verdict.
/// 5. `fairness-witness` / `star:3` — the **fairness split**: closure
///    holds, the unfair daemon starves a latch behind the root spinner
///    (expected `fail`, with a lasso counterexample in the certificate),
///    and the weakly fair round-robin daemon converges — exactly the
///    daemon distinction the paper draws between `DFTNO` and `STNO`.
/// 6. `dcd` / `path:4` + `link-fail:2-3` — a **disconnecting** topology
///    world chain; legitimacy is world-aware (severed processors must
///    saturate at the sentinel).
/// 7. `hop` / `star:5` + `corrupt` from the legitimate set — the
///    budgeted fault-reachable envelope.
/// 8. `hop` / `star:6` with **symmetry reduction** — the leaf group
///    `S_5` (order 120) quotients the breadth-first search; verdicts
///    must match the unquotiented regime cell for cell.
/// 9. `hop` / `ring:5` with symmetry reduction — the root-fixing ring
///    group is just the reflection (order 2), the information-theoretic
///    ceiling on a ring; kept as the honest small-group cell.
/// 10. `dftno` / `path:3` + `corrupt` from the legitimate cycle
///     (release builds only) — the full composed stack of Algorithm
///     3.1.1 over the self-stabilizing token circulation, seeded by the
///     explicit legitimate cycle because its product space (~10^11
///     configurations) cannot be scanned; `L` is that cycle
///     (extensionally — see `dftno_legit_cycle`'s closure caveat) and
///     the pinned verdict is its closure/containment under the
///     corruption envelope.
pub fn cert_suite() -> Vec<SuiteCell> {
    let mut dcd = CheckCell::new("dcd", GeneratorSpec::Path, 4);
    dcd.liveness = Liveness::Unfair;
    dcd.faults = vec![FaultClass::Topology(TopologyEvent::LinkFail {
        u: NodeId::new(2),
        v: NodeId::new(3),
    })];
    let mut envelope = CheckCell::new("hop", GeneratorSpec::Star, 5);
    envelope.seeds = Seeds::Legitimate;
    envelope.liveness = Liveness::Unfair;
    envelope.faults = vec![FaultClass::Corrupt];
    let mut cells = vec![
        SuiteCell {
            cell: CheckCell::new("hop", GeneratorSpec::Path, 4),
            expect: &[true, true, true],
        },
        SuiteCell {
            cell: CheckCell::new("bfs-tree", GeneratorSpec::Ring, 3),
            expect: &[true, true, true],
        },
        SuiteCell {
            cell: CheckCell::new("cd-token", GeneratorSpec::Path, 3),
            expect: &[true, true, true],
        },
        SuiteCell {
            cell: CheckCell::new("fixed-token", GeneratorSpec::Star, 4),
            expect: &[true, true, true],
        },
        SuiteCell {
            cell: CheckCell::new("fairness-witness", GeneratorSpec::Star, 3),
            expect: &[true, false, true],
        },
        SuiteCell {
            cell: dcd,
            expect: &[true, true],
        },
        SuiteCell {
            cell: envelope,
            expect: &[true, true],
        },
    ];
    let mut sym_star = CheckCell::new("hop", GeneratorSpec::Star, 6);
    sym_star.symmetry = true;
    cells.push(SuiteCell {
        cell: sym_star,
        expect: &[true, true, true],
    });
    let mut sym_ring = CheckCell::new("hop", GeneratorSpec::Ring, 5);
    sym_ring.symmetry = true;
    cells.push(SuiteCell {
        cell: sym_ring,
        expect: &[true, true, true],
    });
    if !cfg!(debug_assertions) {
        // The composed-stack envelope explores millions of states; only
        // release builds (the CI modelcheck job, `--suite` runs of the
        // installed binary) carry it.
        let mut dftno = CheckCell::new("dftno", GeneratorSpec::Path, 3);
        dftno.seeds = Seeds::Legitimate;
        dftno.liveness = Liveness::None;
        dftno.faults = vec![FaultClass::Corrupt];
        dftno.limit = Some(1 << 39);
        cells.push(SuiteCell {
            cell: dftno,
            expect: &[true],
        });
    }
    cells
}

/// Renders a deterministic `sno-check-suite/v1` JSON document embedding
/// each certificate verbatim — the CI `cmp` artifact.
pub fn suite_json(certs: &[Certificate]) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\n\"schema\": \"sno-check-suite/v1\",\n\"certificates\": [\n");
    for (i, c) in certs.iter().enumerate() {
        s.push_str(c.to_json().trim_end());
        if i + 1 < certs.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("]\n}\n");
    s
}

/// Parsed arguments of `sno-lab check`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckArgs {
    /// Run the pinned [`cert_suite`] instead of a single cell.
    pub suite: bool,
    /// The single cell (`None` iff `suite`).
    pub cell: Option<CheckCell>,
    /// Fleet threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Checker tuning (`threads` is overwritten at run time).
    pub options: CheckOptions,
    /// `--symmetry on|off`: force symmetry reduction on or off for every
    /// cell (overriding the per-cell suite defaults); `None` keeps them.
    pub symmetry: Option<bool>,
    /// Write the certificate (or suite document) here.
    pub json: Option<String>,
}

fn render_cell_header(cell: &CheckCell, cert: &Certificate, secs: f64) -> String {
    let faults = if cert.faults.is_empty() {
        String::new()
    } else {
        format!(", faults {}", cert.faults.join("+"))
    };
    let rate = if secs > 0.0 {
        (cert.states as f64 / secs) as u64
    } else {
        0
    };
    let sym = if cert.symmetry_enabled {
        format!(
            ", symmetry |G|={} ({} raw -> {} orbits)",
            cert.group_orders
                .iter()
                .map(|g| g.to_string())
                .collect::<Vec<_>>()
                .join("+"),
            cert.raw_states,
            cert.states
        )
    } else {
        String::new()
    };
    format!(
        "{} on {} [{}, {}{}]: {} states, {} transitions ({} fault), \
         {} legitimate, diameter {}{} — {} states/s",
        cell.stack,
        cert.topology,
        cert.seeds,
        liveness_name(cell.liveness),
        faults,
        cert.states,
        cert.transitions,
        cert.fault_transitions,
        cert.legitimate,
        cert.diameter,
        sym,
        rate
    )
}

fn render_properties(cert: &Certificate) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for p in &cert.properties {
        let _ = writeln!(
            out,
            "  {:<24} ({:<11}) {}",
            p.name,
            p.daemon,
            if p.holds { "pass" } else { "FAIL" }
        );
    }
    out
}

/// Runs a parsed `sno-lab check` invocation, printing per-cell verdict
/// blocks (and a states/second telemetry figure — never JSON) to `out`.
/// Returns the process exit code: `0` when every verdict matches
/// (suite) or every property holds (single cell), `1` otherwise.
pub fn run_check_command(args: &CheckArgs, out: &mut dyn std::fmt::Write) -> i32 {
    let threads = args.threads.unwrap_or_else(sno_fleet::default_threads);
    let pool = WorkerPool::new(threads);
    let mut options = args.options;
    options.threads = threads;
    let _ = writeln!(
        out,
        "sno-check | threads: {} | shards: {} | budget: {}",
        threads, options.shards, options.fault_budget
    );
    if args.suite {
        let mut certs = Vec::new();
        let mut mismatches = Vec::new();
        for sc in cert_suite() {
            let mut cell = sc.cell.clone();
            if let Some(sym) = args.symmetry {
                cell.symmetry = sym;
            }
            let started = Instant::now();
            let cert = match run_cell(&cell, &options, &pool) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {}: {e}", cell.stack);
                    return 1;
                }
            };
            let _ = writeln!(
                out,
                "{}",
                render_cell_header(&cell, &cert, started.elapsed().as_secs_f64())
            );
            let _ = out.write_str(&render_properties(&cert));
            let got: Vec<bool> = cert.properties.iter().map(|p| p.holds).collect();
            if got != sc.expect {
                mismatches.push(format!(
                    "{} on {}: expected verdicts {:?}, got {:?}",
                    cell.stack, cert.topology, sc.expect, got
                ));
            }
            certs.push(cert);
        }
        if let Some(path) = &args.json {
            if let Err(e) = std::fs::write(path, suite_json(&certs)) {
                eprintln!("error: cannot write suite JSON to `{path}`: {e}");
                return 1;
            }
            let _ = writeln!(out, "suite certificates written to {path}");
        }
        if mismatches.is_empty() {
            let _ = writeln!(
                out,
                "cert-suite: {} cells, all verdicts as pinned",
                certs.len()
            );
            0
        } else {
            for m in &mismatches {
                eprintln!("error: verdict drift: {m}");
            }
            1
        }
    } else {
        let mut cell = args
            .cell
            .clone()
            .expect("non-suite invocations carry a cell");
        if let Some(sym) = args.symmetry {
            cell.symmetry = sym;
        }
        let cell = &cell;
        let started = Instant::now();
        let cert = match run_cell(cell, &options, &pool) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        let _ = writeln!(
            out,
            "{}",
            render_cell_header(cell, &cert, started.elapsed().as_secs_f64())
        );
        let _ = out.write_str(&render_properties(&cert));
        if let Some(path) = &args.json {
            if let Err(e) = std::fs::write(path, cert.to_json()) {
                eprintln!("error: cannot write certificate to `{path}`: {e}");
                return 1;
            }
            let _ = writeln!(out, "certificate written to {path}");
        }
        i32::from(!cert.all_hold())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(threads: usize, shards: usize) -> CheckOptions {
        CheckOptions {
            threads,
            shards,
            ..CheckOptions::default()
        }
    }

    #[test]
    fn fault_grammar_round_trips() {
        assert_eq!(parse_fault("corrupt").unwrap(), FaultClass::Corrupt);
        assert_eq!(parse_fault("crash").unwrap(), FaultClass::Crash);
        let f = parse_fault("link-fail:2-3").unwrap();
        assert_eq!(f.to_string(), "link-fail:2-3");
        let f = parse_fault("link-add:0-4").unwrap();
        assert_eq!(f.to_string(), "link-add:0-4");
        assert!(parse_fault("meteor").is_err());
        assert!(parse_fault("link-fail:2").is_err());
        assert!(parse_fault("link-fail:a-b").is_err());
    }

    #[test]
    fn cell_errors_are_reported_not_panicked() {
        let pool = WorkerPool::new(1);
        let mut cell = CheckCell::new("warp", GeneratorSpec::Path, 3);
        let e = run_cell(&cell, &opts(1, 1), &pool).unwrap_err();
        assert!(e.contains("unknown stack"), "{e}");
        cell.stack = "dijkstra-ring".into();
        let e = run_cell(&cell, &opts(1, 1), &pool).unwrap_err();
        assert!(e.contains("ring"), "{e}");
        cell.stack = "hop".into();
        cell.faults = vec![parse_fault("link-fail:2-9").unwrap()];
        let e = run_cell(&cell, &opts(1, 1), &pool).unwrap_err();
        assert!(e.contains("outside"), "{e}");
    }

    #[test]
    fn certificates_are_byte_identical_across_threads_and_shards() {
        let cell = CheckCell::new("hop", GeneratorSpec::Path, 3);
        let pool1 = WorkerPool::new(1);
        let pool4 = WorkerPool::new(4);
        let base = run_cell(&cell, &opts(1, 1), &pool1).unwrap().to_json();
        for (pool, shards) in [(&pool1, 5), (&pool4, 1), (&pool4, 8)] {
            let cert = run_cell(&cell, &opts(4, shards), pool).unwrap();
            assert_eq!(cert.to_json(), base, "shards={shards}");
        }
    }

    #[test]
    fn cert_suite_verdicts_match_their_pins() {
        let pool = WorkerPool::new(4);
        let mut certs = Vec::new();
        for sc in cert_suite() {
            let cert = run_cell(&sc.cell, &opts(4, 4), &pool)
                .unwrap_or_else(|e| panic!("{}: {e}", sc.cell.stack));
            let got: Vec<bool> = cert.properties.iter().map(|p| p.holds).collect();
            assert_eq!(got, sc.expect, "{} on {}", sc.cell.stack, cert.topology);
            certs.push(cert);
        }
        // The fairness split is present: one liveness property fails
        // under the unfair daemon while round-robin passes on the same
        // cell, and the failing one carries a replayable lasso.
        let split = &certs[4];
        let unfair = split
            .properties
            .iter()
            .find(|p| p.daemon == "unfair")
            .unwrap();
        assert!(!unfair.holds);
        let cx = unfair.counterexample.as_ref().unwrap();
        assert!(cx.deadlock || !cx.cycle.is_empty());
        assert!(split
            .properties
            .iter()
            .any(|p| p.daemon == "round-robin" && p.holds));
        // The disconnecting world chain is present and explored.
        assert_eq!(certs[5].worlds.len(), 2);
        assert!(certs[5].fault_transitions > 0);
        // The symmetry-reduced cells really quotient: the star's leaf
        // group has order 120, the ring's reflection group order 2, and
        // the orbit-expanded raw count matches the unquotiented space.
        let star = &certs[7];
        assert!(star.symmetry_enabled);
        assert_eq!(star.group_orders, vec![120]);
        assert_eq!(star.raw_states, 117_649);
        assert!(star.raw_states >= 5 * star.states, "≥5x reduction on star");
        let ring = &certs[8];
        assert_eq!(ring.group_orders, vec![2]);
        assert_eq!(ring.raw_states, 7_776);
        // The suite document embeds every certificate and is a pure
        // function of the verdicts.
        let doc = suite_json(&certs);
        assert!(doc.starts_with("{\n\"schema\": \"sno-check-suite/v1\""));
        assert_eq!(
            doc.matches("\"schema\": \"sno-check/v1\"").count(),
            cert_suite().len()
        );
        assert_eq!(doc, suite_json(&certs));
    }

    #[test]
    fn dftno_seed_cycle_is_legitimate_and_closed() {
        use sno_engine::Protocol as _;
        let g = GeneratorSpec::Path.build(3, 0);
        let net = Network::new(g, NodeId::new(0));
        let proto = sno_core::Dftno::new(sno_token::DfsTokenCirculation);
        let (space, seeds) = dftno_legit_cycle(&net, &proto, 1 << 39).unwrap();
        assert!(!seeds.is_empty());
        assert!(seeds.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
        // Every seed is a golden-oriented legitimate configuration, and
        // the protocol's initial configuration is NOT one of them (the
        // cycle is reached, not assumed).
        for &s in &seeds {
            let cfg = space.decode(s);
            assert!(sno_core::dftno::dftno_golden(&net, &cfg));
        }
        let init: Vec<_> = net
            .nodes()
            .map(|p| proto.initial_state(net.ctx(p)))
            .collect();
        let init = space.encode(&init).unwrap();
        assert!(seeds.binary_search(&init).is_err());
    }

    /// Satellite property: on random small instances of every CLI stack
    /// and topology, the quotiented run returns the same verdicts as the
    /// unquotiented one, explores no more states, and its orbit-expanded
    /// raw count equals the raw run's state count exactly.
    fn sym_cell(stack: &str, pick: usize) -> CheckCell {
        use GeneratorSpec::{Path, Ring, Star};
        let (topo, size) = match stack {
            "hop" => [(Path, 4), (Ring, 4), (Star, 5)][pick % 3],
            "bfs-tree" => [(Ring, 3), (Path, 3), (Star, 4)][pick % 3],
            "cd-token" => [(Path, 3), (Ring, 3), (Star, 3)][pick % 3],
            "fixed-token" => [(Path, 3), (Star, 3), (Ring, 3)][pick % 3],
            "fairness-witness" => [(Star, 4), (Ring, 5), (Path, 4)][pick % 3],
            "dcd" => [(Path, 3), (Ring, 4), (Star, 4)][pick % 3],
            "dijkstra-ring" => [(Ring, 3), (Ring, 4), (Ring, 5)][pick % 3],
            other => panic!("no symmetry case for {other}"),
        };
        CheckCell::new(stack, topo, size)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        #[test]
        fn quotiented_runs_agree_with_raw_runs(stack_i in 0usize..7, pick in 0usize..3) {
            use proptest::prelude::prop_assert_eq;
            let pool = WorkerPool::new(2);
            let mut cell = sym_cell(STACKS[stack_i], pick);
            let raw = run_cell(&cell, &opts(2, 3), &pool).unwrap();
            cell.symmetry = true;
            let sym = run_cell(&cell, &opts(2, 3), &pool).unwrap();
            prop_assert_eq!(sym.raw_states, raw.states);
            assert!(sym.states <= raw.states, "quotient never exceeds raw");
            prop_assert_eq!(sym.properties.len(), raw.properties.len());
            for (a, b) in sym.properties.iter().zip(raw.properties.iter()) {
                prop_assert_eq!(
                    (a.holds, &a.name, a.daemon),
                    (b.holds, &b.name, b.daemon)
                );
            }
            for (ws, wr) in sym.worlds.iter().zip(raw.worlds.iter()) {
                prop_assert_eq!(ws.reachable, wr.reachable);
            }
        }
    }
}
