//! E4–E6: the paper's analytic complexity claims, measured.
//!
//! E4 and E5 are expressed as `sno-lab` scenario matrices — the bench
//! crate declares *what* to sweep and renders the aggregated cells; the
//! lab owns execution, parallelism, and statistics.

use sno_core::dftno::dftno_orientation_bits;
use sno_core::stno::stno_orientation_bits;
use sno_engine::{Network, SpaceMeasured};
use sno_graph::{generators, traverse, GeneratorSpec, NodeId};
use sno_lab::{
    run_campaign, CellSpec, DaemonSpec, FaultPlan, ProtocolSpec, ScenarioMatrix, TokenSubstrate,
    TreeSubstrate,
};
use sno_token::{DfsTokenCirculation, OracleToken};
use sno_tree::BfsSpanningTree;

use crate::cells;
use crate::table::Table;

/// Seed used to instantiate random topologies in E4/E5.
const GRAPH_SEED: u64 = 77;

/// **E4 / Theorem 3.2.3, §3.2.3** — `DFTNO` stabilizes in `O(n)` steps
/// after the token circulation stabilizes: moves-to-orientation from
/// arbitrary orientation variables over the golden substrate, across
/// sizes and topologies. The `moves/n` column should stay near a small
/// constant for sparse graphs (the `Edgelabel` repairs add an `O(m)`
/// term, visible on dense rows — see EXPERIMENTS.md).
pub fn e4_dftno_linear() -> Table {
    let mut t = Table::new(
        "E4 (§3.2.3): DFTNO moves to orientation after the token layer is stable (avg of 3 seeds)",
        &["topology", "n", "m", "moves", "moves/n", "rounds"],
    );
    let matrix = ScenarioMatrix::new("e4-dftno-linear")
        .topologies([
            GeneratorSpec::Path,
            GeneratorSpec::Ring,
            GeneratorSpec::RandomTree,
            GeneratorSpec::RandomSparse { extra_per_node: 2 },
            GeneratorSpec::RandomDense,
        ])
        .sizes([8, 16, 32, 64, 128])
        .protocols([ProtocolSpec::Dftno(TokenSubstrate::Oracle)])
        .daemons([DaemonSpec::CentralRandom])
        .seeds(1000, 3)
        .graph_seed(GRAPH_SEED)
        .max_steps(80_000_000);
    let report = run_campaign(&matrix);
    for cell in &report.cells {
        assert_eq!(
            cell.convergence_rate, 1.0,
            "E4 {} n={} must converge",
            cell.topology, cell.n
        );
        let moves = cell.moves.as_ref().expect("converged cell has stats");
        let rounds = cell.rounds.as_ref().expect("converged cell has stats");
        t.row(cells!(
            cell.topology,
            cell.nodes,
            cell.edges,
            format!("{:.0}", moves.mean),
            format!("{:.2}", moves.mean / cell.nodes as f64),
            format!("{:.0}", rounds.mean)
        ));
    }
    t
}

/// **E5 / Theorem 4.2.3, §4.2.3** — `STNO` stabilizes in `O(h)` steps
/// after the tree stabilizes: synchronous steps (= rounds) to silence
/// from arbitrary orientation variables over a frozen tree. Linear in the
/// height `h`, flat in `n` at fixed `h`.
pub fn e5_stno_height() -> Table {
    let mut t = Table::new(
        "E5 (§4.2.3): STNO synchronous rounds to silence over a frozen tree (avg of 3 seeds)",
        &["topology", "n", "h", "rounds", "rounds/h"],
    );
    // Rows vary (family, n) jointly, so each is its own single-cell sweep.
    let rows: Vec<(&str, GeneratorSpec, usize)> = vec![
        ("star (h=1)", GeneratorSpec::Star, 64),
        ("4-ary tree", GeneratorSpec::BalancedTree { arity: 4 }, 85),
        ("binary tree", GeneratorSpec::BalancedTree { arity: 2 }, 63),
        ("caterpillar", GeneratorSpec::Caterpillar { legs: 3 }, 64),
        ("path (h=n−1)", GeneratorSpec::Path, 64),
        // Fixed h ≈ 8, growing n: rounds must stay flat.
        (
            "caterpillar h≈8",
            GeneratorSpec::Caterpillar { legs: 1 },
            16,
        ),
        (
            "caterpillar h≈8",
            GeneratorSpec::Caterpillar { legs: 3 },
            32,
        ),
        (
            "caterpillar h≈8",
            GeneratorSpec::Caterpillar { legs: 7 },
            64,
        ),
        (
            "caterpillar h≈8",
            GeneratorSpec::Caterpillar { legs: 15 },
            128,
        ),
    ];
    for (name, spec, n) in rows {
        let matrix = ScenarioMatrix::new("e5-stno-height")
            .topologies([spec])
            .sizes([n])
            .protocols([ProtocolSpec::Stno(TreeSubstrate::Oracle)])
            .daemons([DaemonSpec::Synchronous])
            .seeds(2000, 3)
            .graph_seed(GRAPH_SEED)
            .max_steps(1_000_000);
        let report = run_campaign(&matrix);
        let cell = &report.cells[0];
        assert_eq!(cell.convergence_rate, 1.0, "E5 {name} must converge");
        let h = {
            let g = spec.build(n, GRAPH_SEED);
            traverse::bfs(&g, NodeId::new(0)).height().max(1)
        };
        let steps = cell.steps.as_ref().expect("converged cell has stats");
        t.row(cells!(
            name,
            cell.nodes,
            h,
            format!("{:.1}", steps.mean),
            format!("{:.2}", steps.mean / h as f64)
        ));
    }
    t
}

/// **E6 / §3.2.3 + §4.2.3 + Ch. 5** — space per processor in bits:
/// both orientation layers are `O(Δ × log N)`; `STNO` pays an extra
/// `O(Δ × log N)` for its tree while `DFTNO`'s substrate of \[10\] needs
/// only `O(log N)` (our Collin–Dolev substitute costs more — the
/// documented deviation, shown in its own column).
pub fn e6_space() -> Table {
    let mut t = Table::new(
        "E6 (§3.2.3/§4.2.3): max bits per processor (n = 32, tight N)",
        &[
            "topology",
            "Δ",
            "log N",
            "DFTNO orient",
            "STNO orient",
            "token [10] model",
            "token (ours, CD)",
            "tree (BFS)",
        ],
    );
    for topo in generators::Topology::ALL {
        let g = topo.build(32, 5);
        let root = NodeId::new(0);
        let oracle = OracleToken::new(&g, root);
        let net = Network::new(g, root);
        let log_n = (usize::BITS - net.n_bound().leading_zeros()) as usize;
        let max_over = |f: &dyn Fn(&sno_engine::NodeCtx) -> usize| {
            net.nodes().map(|p| f(net.ctx(p))).max().unwrap_or(0)
        };
        t.row(cells!(
            topo,
            net.graph().max_degree(),
            log_n,
            max_over(&dftno_orientation_bits),
            max_over(&stno_orientation_bits),
            max_over(&|c: &sno_engine::NodeCtx| oracle.state_bits(c)),
            max_over(&|c: &sno_engine::NodeCtx| DfsTokenCirculation.state_bits(c)),
            max_over(&|c: &sno_engine::NodeCtx| BfsSpanningTree.state_bits(c))
        ));
    }
    t
}

/// The E4 cell: one `DFTNO` stabilization over the golden substrate on
/// a sparse random graph.
pub fn dftno_cell(n: usize) -> CellSpec {
    CellSpec {
        topology: GeneratorSpec::RandomSparse { extra_per_node: 2 },
        n,
        protocol: ProtocolSpec::Dftno(TokenSubstrate::Oracle),
        daemon: DaemonSpec::CentralRandom,
        fault: FaultPlan::None,
    }
}

/// The E5 cell: one `STNO` stabilization over a frozen tree of the given
/// family.
pub fn stno_cell(topology: GeneratorSpec, n: usize) -> CellSpec {
    CellSpec {
        topology,
        n,
        protocol: ProtocolSpec::Stno(TreeSubstrate::Oracle),
        daemon: DaemonSpec::Synchronous,
        fault: FaultPlan::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sno_lab::converge_once;

    #[test]
    fn e4_scaling_is_linearish_on_sparse() {
        // A cheap shape check: path moves/n at n=64 within 4x of n=8.
        let ratio = |n: usize| {
            let cell = CellSpec {
                topology: GeneratorSpec::Path,
                ..dftno_cell(n)
            };
            let run = converge_once(&cell, 1, 80_000_000);
            assert!(run.converged);
            run.moves as f64 / n as f64
        };
        let r8 = ratio(8);
        let r64 = ratio(64);
        assert!(
            r64 < 4.0 * r8,
            "moves/n should stay near-constant: {r8} vs {r64}"
        );
    }

    #[test]
    fn e5_flat_at_fixed_height() {
        let rounds = |legs: u8, n: usize| {
            let run = converge_once(
                &stno_cell(GeneratorSpec::Caterpillar { legs }, n),
                3,
                1_000_000,
            );
            assert!(run.converged);
            run.steps
        };
        let small = rounds(1, 16);
        let large = rounds(15, 128);
        // n grows 8x; rounds may wiggle by a constant, not by 8x.
        assert!(
            large <= small + 10,
            "rounds flat at fixed h: {small} vs {large}"
        );
    }

    #[test]
    fn e6_renders() {
        let t = e6_space();
        assert_eq!(t.rows.len(), generators::Topology::ALL.len());
    }
}
