//! Golden reports for every fault plan.
//!
//! `tests/golden/fault_plans.json` is a JSON array of two `sno-lab/v1`
//! documents, exactly as `sno-lab run --json` writes them for the two
//! invocations below: every corruption, scheduled-event and churn plan
//! on `stno/bfs-tree` and `dcd`, then the disconnecting `churn-any`
//! plan on `dcd`. CI regenerates both with the binary and `cmp`s the
//! array against the same file. Any change to how a plan perturbs a
//! run, which RNG draws it consumes, or what its record totals span
//! shows up here as a byte difference.
//!
//! Regenerate (only for a deliberate change of measured behaviour):
//!
//! ```sh
//! sno-lab run <FAULT_PLANS args> --json a.json
//! sno-lab run <CHURN_ANY args> --json b.json
//! printf '[%s,%s]\n' "$(cat a.json)" "$(cat b.json)" > tests/golden/fault_plans.json
//! ```

use sno::lab::cli::{parse_args, Command};
use sno::lab::{run_campaign_with_options, EngineOptions, ScenarioMatrix};

/// Every plan the connected-network stacks ride.
const FAULT_PLANS: &str = "run --name fault-plans --topologies random-tree,hubs:2 --sizes 12 \
     --protocols stno/bfs-tree,dcd --daemons distributed,central-random \
     --faults none,hit:2,hit:2@40,link-fail@40,link-add@40,node-crash@40,node-join@40,churn:3:5 \
     --seeds 0:6";

/// The disconnecting churn plan, which only `dcd` may ride.
const CHURN_ANY: &str = "run --name fault-plans-any --topologies random-tree,hubs:2 --sizes 12 \
     --protocols dcd --daemons distributed,central-random --faults churn-any:2:3 --seeds 0:6";

const GOLDEN: &str = include_str!("golden/fault_plans.json");

fn matrix(cmdline: &str) -> ScenarioMatrix {
    let args: Vec<String> = cmdline.split_whitespace().map(String::from).collect();
    match parse_args(&args).expect("golden command line parses") {
        Command::Run(run) => run.matrix,
        other => panic!("expected a run command, got {other:?}"),
    }
}

/// Both reports, rendered as the golden file's array.
fn golden_document(threads: usize, options: &EngineOptions) -> String {
    let docs: Vec<String> = [FAULT_PLANS, CHURN_ANY]
        .iter()
        .map(|c| run_campaign_with_options(&matrix(c), threads, options).to_json())
        .collect();
    format!("[{}]\n", docs.join(","))
}

/// Panics with the first differing byte's context instead of dumping
/// two 45 KB documents.
fn assert_golden(doc: &str, leg: &str) {
    if doc == GOLDEN {
        return;
    }
    let at = doc
        .bytes()
        .zip(GOLDEN.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(doc.len().min(GOLDEN.len()));
    let window = |s: &str| {
        s.get(at.saturating_sub(80)..(at + 80).min(s.len()))
            .map(String::from)
    };
    panic!(
        "fault-plan reports drifted from tests/golden/fault_plans.json ({leg}) at byte {at}:\n\
         got:    {:?}\nwanted: {:?}",
        window(doc),
        window(GOLDEN)
    );
}

#[test]
fn fault_plan_reports_match_the_golden_file() {
    for threads in [1, 3] {
        assert_golden(
            &golden_document(threads, &EngineOptions::default()),
            &format!("{threads} threads"),
        );
    }
}

#[test]
fn fault_plan_reports_match_the_golden_file_on_sharded_port_dirty() {
    let options = EngineOptions {
        mode: Some(sno::engine::EngineMode::PortDirty),
        shards: Some(3),
        ..EngineOptions::default()
    };
    assert_golden(&golden_document(2, &options), "port-dirty, 3 shards");
}
