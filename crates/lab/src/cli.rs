//! The `sno-lab` command line: ad-hoc campaigns without writing Rust.
//!
//! Every scenario coordinate already has a stable string name with a
//! `Display`/`FromStr` round-trip ([`GeneratorSpec`], [`ProtocolSpec`],
//! [`DaemonSpec`], [`FaultPlan`]), so a campaign is fully describable on a
//! command line:
//!
//! ```sh
//! sno-lab run --topologies ring,star --sizes 16,32 \
//!     --protocols dftno/oracle-token,stno/bfs-tree \
//!     --daemons central-random --seeds 0:8 --threads 4 --json out.json
//! sno-lab list   # print every known coordinate name
//! ```
//!
//! Parsing lives here (not in the binary) so it is unit-testable; the
//! `sno-lab` binary is a thin `main` over [`main_with_args`].

use std::str::FromStr;

use sno_graph::GeneratorSpec;

use crate::check::{CheckArgs, CheckCell};
use crate::matrix::ScenarioMatrix;
use crate::runner::{
    engine_mode_label, run_campaign_with_options, trace_first_cell, EngineOptions,
};
use crate::spec::{DaemonSpec, FaultPlan, ProtocolSpec};

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `sno-lab run …`: execute a campaign.
    Run(Box<RunArgs>),
    /// `sno-lab check …`: run the model checker on one cell or the
    /// pinned certificate suite.
    Check(Box<CheckArgs>),
    /// `sno-lab list`: print the known coordinate names.
    List,
    /// `sno-lab help` / `--help`.
    Help,
}

/// Arguments of `sno-lab run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The campaign to execute.
    pub matrix: ScenarioMatrix,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Engine mode / shard overrides (`--mode`, `--shards`); `None`
    /// fields fall back to the environment, then the engine default.
    pub engine: EngineOptions,
    /// Write the `sno-lab/v1` JSON document here.
    pub json: Option<String>,
    /// Write a Chrome trace-event JSON of the first cell's first seed
    /// (re-run on the sharded executor) here.
    pub trace: Option<String>,
}

/// The usage text printed by `help` and on parse errors.
pub const USAGE: &str = "\
sno-lab — declarative scenario-fleet campaigns

USAGE:
    sno-lab run [OPTIONS]     execute a campaign, print the Markdown table
    sno-lab churn [OPTIONS]   execute the churn preset (recovery cost vs. churn
                              rate; hubs + random-tree, stno/bfs-tree, 32 seeds);
                              accepts the run options as overrides
    sno-lab churn --any       unrestricted churn: failing links may be bridges
                              (disconnecting), the dcd detector stack rides it,
                              and the report adds a detection-latency table
    sno-lab check [OPTIONS]   model-check one enumerable stack exhaustively and
                              print its certificate verdicts
    sno-lab check --suite     run the pinned certificate suite (the CI gate);
                              exit 1 on any verdict drift
    sno-lab list              print every known topology/protocol/daemon name
    sno-lab help              show this text

RUN OPTIONS (comma-separated lists):
    --topologies LIST     topology families, e.g. ring,star,random-sparse:2 (required)
    --sizes LIST          target node counts, e.g. 16,64 (required)
    --protocols LIST      protocol stacks, e.g. dftno/oracle-token (required)
    --daemons LIST        daemons, e.g. central-random,distributed (required)
    --faults LIST         fault plans                      [default: none]
                            none         no injected fault
                            hit:K        corrupt K processors after convergence
                            hit:K@S      corrupt K processors after S daemon steps
                            link-fail@S  fail a non-bridge link after S steps
                            link-add@S   add an absent link after S steps
                            node-crash@S restart a non-root processor after S steps
                            node-join@S  a fresh processor joins after S steps
                            churn:R:SEED R add+fail windows after convergence
                            churn-any:R:SEED like churn, but the failing link
                                         may be a bridge (requires dcd)
                          (topology plans require stno/bfs-tree,
                           stno/cd-dfs-tree, or dcd)
    --seeds START:COUNT   seed range                       [default: 0:8]
    --graph-seed N        topology-instantiation seed
    --max-steps N         per-run step budget
    --name NAME           campaign name                    [default: cli]
    --threads N           worker threads                   [default: all cores]
    --mode MODE           engine mode: full|node|port      [default: SNO_ENGINE_MODE, else port]
    --shards N            shards for the node/port engines [default: SNO_SYNC_SHARDS, else 1]
    --json PATH           also write the sno-lab/v1 JSON document to PATH
    --metrics             collect deterministic engine counters per cell (adds a
                          Metrics table and a `metrics` JSON section)
    --trace PATH          write a Chrome trace-event JSON (Perfetto-loadable) of the
                          first cell's first seed, re-run on the port-dirty
                          engine's sharded executor with one lane per shard

CHECK OPTIONS:
    --stack NAME          enumerable stack: hop, bfs-tree, cd-token, fixed-token,
                          fairness-witness, dcd, dijkstra-ring, dftno
                          (required unless --suite)
    --topology FAMILY     topology family, e.g. path, ring, star (required)
    --size N              node count (required)
    --graph-seed N        topology-instantiation seed        [default: 0]
    --start REGIME        exploration seeds: all|legitimate|initial [default: all]
    --liveness WHICH      none|unfair|round-robin|both       [default: both]
    --faults LIST         fault classes explored as transitions:
                          corrupt, crash, link-fail:U-V, link-add:U-V
    --budget K            corrupt/crash transitions per execution [default: 1]
    --limit N             per-world configuration limit      [default: 4194304]
    --symmetry on|off     force automorphism-group symmetry reduction on or off
                          for every cell (default: per-cell suite settings)
    --threads N           fleet threads                      [default: all cores]
    --shards N            seen-set shards                    [default: 1]
    --json PATH           write the certificate (or suite document) to PATH

Certificates are byte-identical for every --threads/--shards choice; the
states/second figure is printed to stdout only, never written to JSON.

Reports are byte-identical for every --mode/--shards/--threads choice;
the flags only change what a step costs. Metrics are deterministic too:
counter totals are byte-identical across thread, shard, and chunking
choices. Only --trace records wall-clock time.
";

fn parse_list<T: FromStr>(what: &str, s: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.parse::<T>().map_err(|e| format!("bad {what}: {e}")))
        .collect()
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns a human-readable message (print it with [`USAGE`]) on unknown
/// subcommands, unknown flags, missing values, or unparsable coordinates.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    match sub {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "list" => return Ok(Command::List),
        "check" => return parse_check(&args[1..]),
        "run" | "churn" => {}
        other => return Err(format!("unknown subcommand `{other}`")),
    }

    // `churn` starts from the preset matrix (so every dimension has a
    // value) and accepts the same flags as overrides. `--any` swaps in
    // the unrestricted-churn preset (bridge links may fail, the `dcd`
    // detector stack, detection-latency reporting); resolved before the
    // flag loop so later overrides still apply on top.
    let preset = sub == "churn";
    let any = args.iter().any(|a| a == "--any");
    if any && !preset {
        return Err("`--any` is only valid with the `churn` subcommand".into());
    }
    let mut matrix = if any {
        crate::matrix::churn_any_preset()
    } else if preset {
        crate::matrix::churn_preset()
    } else {
        ScenarioMatrix::new("cli")
    };
    let mut threads = None;
    let mut engine = EngineOptions::default();
    let mut json = None;
    let mut trace = None;
    // topologies, sizes, protocols, daemons — all pre-filled by the preset
    let mut saw = (preset, preset, preset, preset);
    while let Some(flag) = it.next() {
        // Accept both `--flag value` and `--flag=value`.
        let (flag, inline) = match flag.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (flag.as_str(), None),
        };
        let mut value = || -> Result<String, String> {
            match &inline {
                Some(v) => Ok(v.clone()),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("`{flag}` needs a value")),
            }
        };
        match flag {
            "--topologies" => {
                matrix.topologies = parse_list::<GeneratorSpec>("topology", &value()?)?;
                saw.0 = true;
            }
            "--sizes" => {
                matrix.sizes = parse_list::<usize>("size", &value()?)?;
                saw.1 = true;
            }
            "--protocols" => {
                matrix.protocols = parse_list::<ProtocolSpec>("protocol", &value()?)?;
                saw.2 = true;
            }
            "--daemons" => {
                matrix.daemons = parse_list::<DaemonSpec>("daemon", &value()?)?;
                saw.3 = true;
            }
            "--faults" => matrix.faults = parse_list::<FaultPlan>("fault plan", &value()?)?,
            "--seeds" => {
                let v = value()?;
                let (start, count) = v
                    .split_once(':')
                    .ok_or_else(|| format!("bad seed range `{v}` (want START:COUNT)"))?;
                matrix.seed_start = start
                    .parse()
                    .map_err(|_| format!("bad seed start `{start}`"))?;
                matrix.seeds_per_cell = count
                    .parse()
                    .map_err(|_| format!("bad seed count `{count}`"))?;
            }
            "--graph-seed" => {
                let v = value()?;
                matrix.graph_seed = v.parse().map_err(|_| format!("bad graph seed `{v}`"))?;
            }
            "--max-steps" => {
                let v = value()?;
                matrix.max_steps = v.parse().map_err(|_| format!("bad step budget `{v}`"))?;
            }
            "--name" => matrix.name = value()?,
            "--threads" => {
                let v = value()?;
                let t: usize = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                if t == 0 {
                    return Err("`--threads` must be at least 1".into());
                }
                threads = Some(t);
            }
            "--mode" => {
                let v = value()?;
                engine.mode = Some(match v.as_str() {
                    "full" | "full-sweep" => sno_engine::EngineMode::FullSweep,
                    "node" | "node-dirty" => sno_engine::EngineMode::NodeDirty,
                    "port" | "port-dirty" => sno_engine::EngineMode::PortDirty,
                    other => {
                        return Err(format!(
                            "unknown engine mode `{other}` (expected full, node, or port)"
                        ))
                    }
                });
            }
            "--shards" => {
                let v = value()?;
                let k: usize = v.parse().map_err(|_| format!("bad shard count `{v}`"))?;
                if k == 0 {
                    return Err("`--shards` must be at least 1".into());
                }
                engine.shards = Some(k);
            }
            "--json" => json = Some(value()?),
            "--metrics" => {
                if inline.is_some() {
                    return Err("`--metrics` takes no value".into());
                }
                engine.metrics = true;
            }
            "--trace" => trace = Some(value()?),
            "--any" => {
                // Already resolved by the pre-scan above.
                if inline.is_some() {
                    return Err("`--any` takes no value".into());
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let missing = [
        (!saw.0).then_some("--topologies"),
        (!saw.1).then_some("--sizes"),
        (!saw.2).then_some("--protocols"),
        (!saw.3).then_some("--daemons"),
    ];
    let missing: Vec<&str> = missing.into_iter().flatten().collect();
    if !missing.is_empty() {
        return Err(format!("missing required {}", missing.join(", ")));
    }
    // The full-sweep reference never shards, so an explicit
    // `--mode full` with shards is a contradiction. A full sweep that
    // comes from the SNO_ENGINE_MODE fallback just ignores the shards.
    if engine.mode == Some(sno_engine::EngineMode::FullSweep)
        && engine.shards.is_some_and(|k| k > 1)
    {
        return Err("`--shards` above 1 requires `--mode node` or `--mode port`".into());
    }
    matrix.validate()?;
    Ok(Command::Run(Box::new(RunArgs {
        matrix,
        threads,
        engine,
        json,
        trace,
    })))
}

/// Parses the flags of `sno-lab check` (everything after the
/// subcommand word).
fn parse_check(args: &[String]) -> Result<Command, String> {
    let mut suite = false;
    let mut stack = None;
    let mut topology = None;
    let mut size = None;
    let mut graph_seed = 0;
    let mut seeds = sno_check::Seeds::AllConfigs;
    let mut liveness = sno_check::Liveness::Both;
    let mut faults = Vec::new();
    let mut threads = None;
    let mut options = sno_check::CheckOptions::default();
    let mut symmetry = None;
    let mut json = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let (flag, inline) = match flag.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (flag.as_str(), None),
        };
        let mut value = || -> Result<String, String> {
            match &inline {
                Some(v) => Ok(v.clone()),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("`{flag}` needs a value")),
            }
        };
        match flag {
            "--suite" => {
                if inline.is_some() {
                    return Err("`--suite` takes no value".into());
                }
                suite = true;
            }
            "--stack" => stack = Some(value()?),
            "--topology" => {
                let v = value()?;
                topology = Some(
                    v.parse::<GeneratorSpec>()
                        .map_err(|e| format!("bad topology: {e}"))?,
                );
            }
            "--size" => {
                let v = value()?;
                size = Some(v.parse::<usize>().map_err(|_| format!("bad size `{v}`"))?);
            }
            "--graph-seed" => {
                let v = value()?;
                graph_seed = v.parse().map_err(|_| format!("bad graph seed `{v}`"))?;
            }
            "--start" => seeds = crate::check::parse_seeds(&value()?)?,
            "--liveness" => liveness = crate::check::parse_liveness(&value()?)?,
            "--faults" => {
                let v = value()?;
                faults = v
                    .split(',')
                    .filter(|p| !p.is_empty())
                    .map(crate::check::parse_fault)
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--budget" => {
                let v = value()?;
                options.fault_budget = v.parse().map_err(|_| format!("bad fault budget `{v}`"))?;
            }
            "--limit" => {
                let v = value()?;
                options.limit = v.parse().map_err(|_| format!("bad state limit `{v}`"))?;
            }
            "--threads" => {
                let v = value()?;
                let t: usize = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                if t == 0 {
                    return Err("`--threads` must be at least 1".into());
                }
                threads = Some(t);
            }
            "--shards" => {
                let v = value()?;
                let k: usize = v.parse().map_err(|_| format!("bad shard count `{v}`"))?;
                if k == 0 {
                    return Err("`--shards` must be at least 1".into());
                }
                options.shards = k;
            }
            "--symmetry" => {
                let v = value()?;
                symmetry = Some(match v.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("bad `--symmetry` value `{other}` (want on|off)")),
                });
            }
            "--json" => json = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let cell = if suite {
        if stack.is_some() || topology.is_some() || size.is_some() {
            return Err("`--suite` runs the pinned cells; drop --stack/--topology/--size".into());
        }
        None
    } else {
        let stack = stack.ok_or("missing required --stack (or use --suite)")?;
        let topology = topology.ok_or("missing required --topology")?;
        let size = size.ok_or("missing required --size")?;
        if !crate::check::STACKS.contains(&stack.as_str()) {
            return Err(format!(
                "unknown stack `{stack}` (expected one of {})",
                crate::check::STACKS.join(", ")
            ));
        }
        Some(CheckCell {
            stack,
            topology,
            size,
            graph_seed,
            seeds,
            liveness,
            faults,
            symmetry: false,
            limit: None,
        })
    };
    Ok(Command::Check(Box::new(CheckArgs {
        suite,
        cell,
        threads,
        options,
        symmetry,
        json,
    })))
}

/// The coordinate listing printed by `sno-lab list`.
pub fn coordinate_listing() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "topologies (parameterized families accept `name:K`):");
    for t in GeneratorSpec::PRESETS {
        let _ = writeln!(out, "  {t}");
    }
    let _ = writeln!(out, "protocols:");
    for p in ProtocolSpec::ALL {
        let _ = writeln!(out, "  {p}");
    }
    let _ = writeln!(out, "daemons:");
    for d in DaemonSpec::ALL {
        let _ = writeln!(out, "  {d}");
    }
    let _ = writeln!(out, "fault plans:");
    let _ = writeln!(out, "  none");
    let _ = writeln!(
        out,
        "  hit:K         corrupt K processors after convergence"
    );
    let _ = writeln!(
        out,
        "  hit:K@S       corrupt K processors after S daemon steps"
    );
    let _ = writeln!(out, "  link-fail@S   fail a non-bridge link after S steps");
    let _ = writeln!(out, "  link-add@S    add an absent link after S steps");
    let _ = writeln!(
        out,
        "  node-crash@S  restart a non-root processor after S steps"
    );
    let _ = writeln!(out, "  node-join@S   a fresh processor joins after S steps");
    let _ = writeln!(out, "  churn:R:SEED  R add+fail windows after convergence");
    let _ = writeln!(
        out,
        "  churn-any:R:SEED like churn, but may fail bridges (requires dcd)"
    );
    let _ = writeln!(out, "check stacks (enumerable, for `sno-lab check`):");
    for s in crate::check::STACKS {
        let _ = writeln!(out, "  {s}");
    }
    out
}

/// Parses `args`, runs the requested command, prints its output, and
/// returns the process exit code. The `sno-lab` binary delegates here.
pub fn main_with_args(args: &[String]) -> i32 {
    let cmd = match parse_args(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            0
        }
        Command::List => {
            print!("{}", coordinate_listing());
            0
        }
        Command::Check(check) => crate::check::run_check_command(&check),
        Command::Run(run) => {
            let threads = run.threads.unwrap_or_else(sno_fleet::default_threads);
            // Cross-mode campaign diffs in CI compare these reports; the
            // header names the active engine and the thread count so each
            // run is self-describing. (The JSON artifact deliberately
            // omits both — byte-identity across modes, shard counts, and
            // thread counts is a CI invariant.)
            // The telemetry flags are echoed here too (and only here):
            // metrics change the report only by *adding* sections, and
            // the trace is a side artifact, so the JSON byte-identity
            // invariant above is untouched in the default configuration.
            // The active fault plan(s) are echoed too: a recovery table
            // is meaningless without knowing what was injected, and the
            // plans are a matrix property, so the header stays identical
            // across modes and thread counts.
            let faults: Vec<String> = run.matrix.faults.iter().map(|f| f.to_string()).collect();
            let mut header = format!(
                "engine mode: {} | threads: {} | faults: {}",
                engine_mode_label(&run.engine),
                threads,
                faults.join(",")
            );
            if run.engine.metrics {
                header.push_str(" | metrics: on");
            }
            if let Some(path) = &run.trace {
                header.push_str(&format!(" | trace: {path}"));
            }
            println!("{header}");
            let report = run_campaign_with_options(&run.matrix, threads, &run.engine);
            print!("{}", report.to_markdown());
            if let Some(path) = run.json {
                if let Err(e) = report.write_json(&path) {
                    eprintln!("error: cannot write campaign JSON to `{path}`: {e}");
                    return 1;
                }
                println!("campaign JSON written to {path}");
            }
            if let Some(path) = run.trace {
                let doc = trace_first_cell(&run.matrix, &run.engine)
                    .expect("validated matrices have at least one cell");
                if let Err(e) = std::fs::write(&path, doc + "\n") {
                    eprintln!("error: cannot write trace to `{path}`: {e}");
                    return 1;
                }
                println!("phase trace written to {path}");
            }
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{TokenSubstrate, TreeSubstrate};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_run_invocation() {
        let cmd = parse_args(&args(
            "run --topologies ring,random-sparse:2 --sizes 8,16 \
             --protocols dftno/oracle-token,stno/bfs-tree \
             --daemons central-random --faults none,hit:2 \
             --seeds 5:3 --graph-seed 9 --max-steps 1000 \
             --name demo --threads 2 --json out.json",
        ))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert_eq!(run.threads, Some(2));
        assert_eq!(run.json.as_deref(), Some("out.json"));
        let m = &run.matrix;
        assert_eq!(m.name, "demo");
        assert_eq!(
            m.topologies,
            vec![
                GeneratorSpec::Ring,
                GeneratorSpec::RandomSparse { extra_per_node: 2 }
            ]
        );
        assert_eq!(m.sizes, vec![8, 16]);
        assert_eq!(
            m.protocols,
            vec![
                ProtocolSpec::Dftno(TokenSubstrate::Oracle),
                ProtocolSpec::Stno(TreeSubstrate::Bfs)
            ]
        );
        assert_eq!(m.daemons, vec![DaemonSpec::CentralRandom]);
        assert_eq!(
            m.faults,
            vec![FaultPlan::None, FaultPlan::AfterConvergence { hits: 2 }]
        );
        assert_eq!((m.seed_start, m.seeds_per_cell), (5, 3));
        assert_eq!(m.graph_seed, 9);
        assert_eq!(m.max_steps, 1000);
    }

    #[test]
    fn equals_form_flags_parse_too() {
        let cmd = parse_args(&args(
            "run --topologies=star --sizes=8 --protocols=stno/oracle-tree \
             --daemons=synchronous --seeds=0:2",
        ))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert_eq!(run.matrix.topologies, vec![GeneratorSpec::Star]);
        assert_eq!(run.matrix.seeds_per_cell, 2);
    }

    #[test]
    fn rejects_missing_dimensions_and_bad_coordinates() {
        let e = parse_args(&args("run --topologies ring")).unwrap_err();
        assert!(e.contains("--sizes") && e.contains("--protocols"), "{e}");
        let e = parse_args(&args(
            "run --topologies mobius --sizes 8 --protocols stno/oracle-tree --daemons synchronous",
        ))
        .unwrap_err();
        assert!(e.contains("mobius"), "{e}");
        let e = parse_args(&args("fly")).unwrap_err();
        assert!(e.contains("fly"), "{e}");
        let e = parse_args(&args(
            "run --topologies ring --sizes 8 --protocols stno/oracle-tree \
             --daemons synchronous --seeds 0:0",
        ))
        .unwrap_err();
        assert!(e.contains("seed"), "{e}");
    }

    #[test]
    fn parses_engine_mode_and_shards() {
        let cmd = parse_args(&args(
            "run --topologies torus --sizes 16 --protocols dftno/oracle-token \
             --daemons synchronous --mode node --shards 8",
        ))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert_eq!(run.engine.mode, Some(sno_engine::EngineMode::NodeDirty));
        assert_eq!(run.engine.shards, Some(8));

        for (name, mode) in [
            ("full", sno_engine::EngineMode::FullSweep),
            ("node", sno_engine::EngineMode::NodeDirty),
            ("port", sno_engine::EngineMode::PortDirty),
            ("port-dirty", sno_engine::EngineMode::PortDirty),
        ] {
            let cmd = parse_args(&args(&format!(
                "run --topologies ring --sizes 8 --protocols stno/oracle-tree \
                 --daemons synchronous --mode {name}"
            )))
            .unwrap();
            let Command::Run(run) = cmd else {
                panic!("expected run");
            };
            assert_eq!(run.engine.mode, Some(mode), "{name}");
        }

        let e = parse_args(&args(
            "run --topologies ring --sizes 8 --protocols stno/oracle-tree \
             --daemons synchronous --mode warp",
        ))
        .unwrap_err();
        assert!(e.contains("warp"), "{e}");
        // The sharded executor is configuration of the incremental
        // modes, not a mode of its own.
        let e = parse_args(&args(
            "run --topologies ring --sizes 8 --protocols stno/oracle-tree \
             --daemons synchronous --mode sync",
        ))
        .unwrap_err();
        assert!(e.contains("expected full, node, or port"), "{e}");
        // The full-sweep reference never shards.
        let e = parse_args(&args(
            "run --topologies ring --sizes 8 --protocols stno/oracle-tree \
             --daemons synchronous --mode full --shards 4",
        ))
        .unwrap_err();
        assert!(e.contains("--shards"), "{e}");
        let cmd = parse_args(&args(
            "run --topologies ring --sizes 8 --protocols stno/oracle-tree \
             --daemons synchronous --mode full --shards 1",
        ))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert_eq!(run.engine.mode, Some(sno_engine::EngineMode::FullSweep));
        // With no --mode the shards arm the resolved (env or default)
        // incremental mode.
        let cmd = parse_args(&args(
            "run --topologies ring --sizes 8 --protocols stno/oracle-tree \
             --daemons synchronous --shards 4",
        ))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert_eq!(run.engine.shards, Some(4));
        assert_eq!(run.engine.mode, None);
        let e = parse_args(&args(
            "run --topologies ring --sizes 8 --protocols stno/oracle-tree \
             --daemons synchronous --mode port --shards 0",
        ))
        .unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
    }

    #[test]
    fn parses_metrics_and_trace_flags() {
        let cmd = parse_args(&args(
            "run --topologies hubs:3 --sizes 24 --protocols stno/oracle-tree \
             --daemons synchronous --shards 4 --metrics --trace out.json",
        ))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert!(run.engine.metrics);
        assert_eq!(run.trace.as_deref(), Some("out.json"));

        // Defaults stay off: the unflagged campaign collects nothing.
        let cmd = parse_args(&args(
            "run --topologies ring --sizes 8 --protocols stno/oracle-tree --daemons synchronous",
        ))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert!(!run.engine.metrics);
        assert_eq!(run.trace, None);

        let e = parse_args(&args(
            "run --topologies ring --sizes 8 --protocols stno/oracle-tree \
             --daemons synchronous --metrics=yes",
        ))
        .unwrap_err();
        assert!(e.contains("no value"), "{e}");
    }

    #[test]
    fn churn_subcommand_starts_from_the_preset() {
        let cmd = parse_args(&args("churn")).unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert_eq!(run.matrix, crate::matrix::churn_preset());
        run.matrix.validate().unwrap();
        assert!(run
            .matrix
            .faults
            .iter()
            .all(|f| matches!(f, FaultPlan::Churn { .. })));

        // Overrides apply on top of the preset.
        let cmd = parse_args(&args("churn --seeds 0:2 --sizes 12 --threads 3")).unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert_eq!(run.matrix.seeds_per_cell, 2);
        assert_eq!(run.matrix.sizes, vec![12]);
        assert_eq!(run.threads, Some(3));
        assert_eq!(run.matrix.name, "churn");
    }

    #[test]
    fn churn_any_flag_swaps_in_the_disconnecting_preset() {
        let cmd = parse_args(&args("churn --any")).unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert_eq!(run.matrix, crate::matrix::churn_any_preset());
        run.matrix.validate().unwrap();
        assert!(run
            .matrix
            .faults
            .iter()
            .all(|f| matches!(f, FaultPlan::ChurnAny { .. })));
        assert_eq!(run.matrix.protocols, vec![ProtocolSpec::Dcd]);

        // Overrides still apply on top, in either flag order.
        let cmd = parse_args(&args("churn --seeds 0:2 --any --sizes 12")).unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert_eq!(run.matrix.name, "churn-any");
        assert_eq!(run.matrix.seeds_per_cell, 2);
        assert_eq!(run.matrix.sizes, vec![12]);

        // Outside `churn` the flag is rejected.
        assert!(parse_args(&args("run --any"))
            .unwrap_err()
            .contains("churn"));
    }

    #[test]
    fn parses_check_invocations() {
        let cmd = parse_args(&args(
            "check --stack dcd --topology path --size 4 --start legitimate \
             --liveness unfair --faults corrupt,link-fail:2-3 --budget 2 \
             --limit 100000 --threads 4 --shards 8 --json cert.json",
        ))
        .unwrap();
        let Command::Check(check) = cmd else {
            panic!("expected check");
        };
        assert!(!check.suite);
        assert_eq!(check.threads, Some(4));
        assert_eq!(check.options.shards, 8);
        assert_eq!(check.options.fault_budget, 2);
        assert_eq!(check.options.limit, 100_000);
        assert_eq!(check.json.as_deref(), Some("cert.json"));
        let cell = check.cell.unwrap();
        assert_eq!(cell.stack, "dcd");
        assert_eq!(cell.topology, GeneratorSpec::Path);
        assert_eq!(cell.size, 4);
        assert_eq!(cell.seeds, sno_check::Seeds::Legitimate);
        assert_eq!(cell.liveness, sno_check::Liveness::Unfair);
        assert_eq!(cell.faults.len(), 2);

        assert_eq!(check.symmetry, None);

        let cmd = parse_args(&args("check --suite --threads 2")).unwrap();
        let Command::Check(check) = cmd else {
            panic!("expected check");
        };
        assert!(check.suite);
        assert_eq!(check.cell, None);
        assert_eq!(check.symmetry, None);

        let cmd = parse_args(&args("check --suite --symmetry on")).unwrap();
        let Command::Check(check) = cmd else {
            panic!("expected check");
        };
        assert_eq!(check.symmetry, Some(true));
        let cmd = parse_args(&args(
            "check --stack hop --topology star --size 6 --symmetry off",
        ))
        .unwrap();
        let Command::Check(check) = cmd else {
            panic!("expected check");
        };
        assert_eq!(check.symmetry, Some(false));
        let e = parse_args(&args("check --suite --symmetry maybe")).unwrap_err();
        assert!(e.contains("maybe"), "{e}");

        let e = parse_args(&args("check --topology ring --size 5")).unwrap_err();
        assert!(e.contains("--stack"), "{e}");
        let e = parse_args(&args("check --stack warp --topology ring --size 5")).unwrap_err();
        assert!(e.contains("warp"), "{e}");
        let e = parse_args(&args("check --suite --stack hop")).unwrap_err();
        assert!(e.contains("--suite"), "{e}");
        let e = parse_args(&args(
            "check --stack hop --topology ring --size 5 --faults asteroid",
        ))
        .unwrap_err();
        assert!(e.contains("asteroid"), "{e}");
        let e = parse_args(&args(
            "check --stack hop --topology ring --size 5 --liveness sometimes",
        ))
        .unwrap_err();
        assert!(e.contains("sometimes"), "{e}");
    }

    #[test]
    fn parses_topology_fault_plans() {
        let cmd = parse_args(&args(
            "run --topologies ring --sizes 8 --protocols stno/bfs-tree \
             --daemons synchronous --faults link-fail@40,churn:2:7,hit:1@100",
        ))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert_eq!(
            run.matrix.faults,
            vec![
                FaultPlan::LinkFail { step: 40 },
                FaultPlan::Churn { rate: 2, seed: 7 },
                FaultPlan::AtStep { step: 100, hits: 1 },
            ]
        );
        // Oracle substrates cannot ride topology mutation — validation
        // rejects the pairing with a pointed message.
        let e = parse_args(&args(
            "run --topologies ring --sizes 8 --protocols stno/oracle-tree \
             --daemons synchronous --faults link-fail@40",
        ))
        .unwrap_err();
        assert!(e.contains("self-stabilizing"), "{e}");
    }

    #[test]
    fn header_echoes_fault_plans() {
        // The fault echo lives in `main_with_args`' header; keep its
        // ingredients stable: every plan renders its spec-grammar name.
        let m = crate::matrix::churn_preset();
        let names: Vec<String> = m.faults.iter().map(|f| f.to_string()).collect();
        assert_eq!(
            names.join(","),
            "churn:1:49374,churn:2:49374,churn:4:49374,churn:8:49374"
        );
    }

    #[test]
    fn help_and_list_commands() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&args("list")).unwrap(), Command::List);
        let listing = coordinate_listing();
        for needle in ["ring", "dftno/oracle-token", "central-random", "hit:K"] {
            assert!(listing.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn run_executes_a_tiny_campaign() {
        let cmd = parse_args(&args(
            "run --topologies ring --sizes 6 --protocols stno/oracle-tree \
             --daemons synchronous --seeds 0:2 --max-steps 100000 --threads 2",
        ))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        let report = run_campaign_with_options(&run.matrix, run.threads.unwrap(), &run.engine);
        assert_eq!(report.total_runs, 2);
        assert_eq!(report.total_converged, 2);
    }
}
