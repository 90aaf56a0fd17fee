//! Nameable coordinates of a scenario: protocol stack, daemon, fault plan.
//!
//! Everything here is a small copyable value with a stable string name
//! (`Display`/`FromStr` round-trip), so scenario matrices can be echoed
//! into JSON reports and parsed back from command lines.

use std::fmt;
use std::str::FromStr;

use sno_engine::daemon::{
    CentralFixedPriority, CentralRandom, CentralRoundRobin, Daemon, DistributedRandom,
    LocallyCentralRandom, Synchronous,
};
use sno_engine::Network;

/// Which token-circulation substrate `DFTNO` runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenSubstrate {
    /// The golden, non-stabilizing Euler-tour walker
    /// ([`sno_token::OracleToken`]) — the paper's "after the token
    /// circulation stabilizes" regime behind the `O(n)` claim.
    Oracle,
    /// The full self-stabilizing circulation
    /// ([`sno_token::DfsTokenCirculation`]).
    Dftc,
}

/// Which spanning-tree substrate `STNO` runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeSubstrate {
    /// A frozen golden BFS tree ([`sno_tree::OracleSpanningTree`]) — the
    /// "after the tree stabilizes" regime behind the `O(h)` claim.
    Oracle,
    /// The self-stabilizing BFS tree ([`sno_tree::BfsSpanningTree`]).
    Bfs,
    /// The Collin–Dolev DFS tree ([`sno_tree::CdSpanningTree`]), under
    /// which `STNO` names nodes exactly like `DFTNO` (experiment E9).
    CdDfs,
}

/// One of the paper's two orientation protocols plus its substrate, or
/// the disconnection-aware robustness layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolSpec {
    /// `DFTNO` (Algorithm 3.1.1) over the given token substrate.
    Dftno(TokenSubstrate),
    /// `STNO` (Algorithm 4.1.2) over the given tree substrate.
    Stno(TreeSubstrate),
    /// The disconnection-aware root-path detector
    /// ([`sno_core::dcd::Dcd`]) — the only stack whose specification
    /// survives a *disconnecting* topology fault, and therefore the only
    /// one [`FaultPlan::ChurnAny`] is allowed to ride.
    Dcd,
}

impl ProtocolSpec {
    /// Every protocol × substrate combination.
    pub const ALL: [ProtocolSpec; 6] = [
        ProtocolSpec::Dftno(TokenSubstrate::Oracle),
        ProtocolSpec::Dftno(TokenSubstrate::Dftc),
        ProtocolSpec::Stno(TreeSubstrate::Oracle),
        ProtocolSpec::Stno(TreeSubstrate::Bfs),
        ProtocolSpec::Stno(TreeSubstrate::CdDfs),
        ProtocolSpec::Dcd,
    ];

    /// The two oracle-substrate stacks the paper's step bounds refer to.
    pub const ORACLES: [ProtocolSpec; 2] = [
        ProtocolSpec::Dftno(TokenSubstrate::Oracle),
        ProtocolSpec::Stno(TreeSubstrate::Oracle),
    ];
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolSpec::Dftno(TokenSubstrate::Oracle) => "dftno/oracle-token",
            ProtocolSpec::Dftno(TokenSubstrate::Dftc) => "dftno/dftc",
            ProtocolSpec::Stno(TreeSubstrate::Oracle) => "stno/oracle-tree",
            ProtocolSpec::Stno(TreeSubstrate::Bfs) => "stno/bfs-tree",
            ProtocolSpec::Stno(TreeSubstrate::CdDfs) => "stno/cd-dfs-tree",
            ProtocolSpec::Dcd => "dcd",
        };
        f.write_str(s)
    }
}

impl FromStr for ProtocolSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, ParseError> {
        ProtocolSpec::ALL
            .into_iter()
            .find(|p| p.to_string() == s)
            .ok_or_else(|| ParseError::new("protocol", s))
    }
}

/// A scheduler family, instantiated per run via [`DaemonSpec::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DaemonSpec {
    /// Weakly fair central daemon (rotating).
    CentralRoundRobin,
    /// Central daemon with uniformly random choices.
    CentralRandom,
    /// **Unfair** central daemon (lowest node id first) — the adversarial
    /// scheduler of the paper's impossibility discussions.
    Adversarial,
    /// Every enabled processor executes each step.
    Synchronous,
    /// The paper's distributed daemon: random non-empty subsets.
    Distributed,
    /// Random independent subsets (no two neighbors per step).
    LocallyCentral,
}

impl DaemonSpec {
    /// Every daemon family.
    pub const ALL: [DaemonSpec; 6] = [
        DaemonSpec::CentralRoundRobin,
        DaemonSpec::CentralRandom,
        DaemonSpec::Adversarial,
        DaemonSpec::Synchronous,
        DaemonSpec::Distributed,
        DaemonSpec::LocallyCentral,
    ];

    /// Builds the daemon for `net`, seeded with `seed`. Re-arm the returned
    /// daemon for further runs with [`Daemon::reset`] instead of
    /// rebuilding — construction is the only allocating step.
    pub fn build(self, net: &Network, seed: u64) -> Box<dyn Daemon> {
        match self {
            DaemonSpec::CentralRoundRobin => Box::new(CentralRoundRobin::new()),
            DaemonSpec::CentralRandom => Box::new(CentralRandom::seeded(seed)),
            DaemonSpec::Adversarial => Box::new(CentralFixedPriority::new()),
            DaemonSpec::Synchronous => Box::new(Synchronous::new()),
            DaemonSpec::Distributed => Box::new(DistributedRandom::seeded(seed)),
            DaemonSpec::LocallyCentral => Box::new(LocallyCentralRandom::seeded(seed, net)),
        }
    }
}

impl fmt::Display for DaemonSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DaemonSpec::CentralRoundRobin => "central-round-robin",
            DaemonSpec::CentralRandom => "central-random",
            DaemonSpec::Adversarial => "adversarial",
            DaemonSpec::Synchronous => "synchronous",
            DaemonSpec::Distributed => "distributed",
            DaemonSpec::LocallyCentral => "locally-central",
        };
        f.write_str(s)
    }
}

impl FromStr for DaemonSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, ParseError> {
        DaemonSpec::ALL
            .into_iter()
            .find(|d| d.to_string() == s)
            .ok_or_else(|| ParseError::new("daemon", s))
    }
}

/// What the adversary does to a run: nothing, state corruption, or a
/// dynamic-topology fault ([`sno_engine::TopologyEvent`]s scheduled by
/// the runner).
///
/// Every plan runs the same schedule: **segment A** converges from an
/// arbitrary configuration, then the plan's **windows** each perturb
/// the run and re-converge, stopping at the first window that fails to
/// re-converge. Windows run only if segment A converged, except for the
/// step-scheduled (`@S`) plans, whose single window fires at step `S`
/// whether or not A has converged by then. `max_steps` is the matrix's
/// per-phase step budget.
///
/// | plan | segment A runs up to | windows | perturbation | record totals span | `recovery` | `detection` |
/// |---|---|---|---|---|---|---|
/// | `none` | `max_steps` | 0 | — | A | `None` | `None` |
/// | `hit:K` | `max_steps` | 1 | corrupt `K` processors | A | `Some` iff A converged | `None` |
/// | `hit:K@S` | `min(S, max_steps)` | 1 | corrupt `K` processors | A + recovery | always `Some` | `None` |
/// | `link-fail@S`, `link-add@S`, `node-crash@S`, `node-join@S` | `min(S, max_steps)` | 1 | the topology event | A + recovery | always `Some` | `None` |
/// | `churn:R:SEED` | `max_steps` | `R` | add a link, fail a non-bridge link | A | `Some` iff A converged | `None` |
/// | `churn-any:R:SEED` | `max_steps` | `R` | add a link, fail any link | A | `Some` iff A converged | `Some` iff A converged and the stack has a probe |
///
/// For the step-scheduled plans the record's `converged` is the
/// recovery verdict; for every other plan it is segment A's. Recovery
/// totals sum every window that ran. A `churn-any` window first runs a
/// detection phase (until every severed processor's detector flags the
/// cut); its steps count into the window's recovery totals, and
/// `detection` sums them over the windows.
///
/// Topology-mutating plans are restricted to fully self-stabilizing
/// stacks (`stno/bfs-tree`, `stno/cd-dfs-tree`, `dcd`): oracle substrates and
/// `DFTNO`'s golden-orientation goal are precomputed from the initial
/// graph and would silently go stale under mutation —
/// [`ScenarioMatrix::validate`](crate::ScenarioMatrix::validate) rejects
/// the combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPlan {
    /// No injected faults: measure stabilization from an arbitrary
    /// initial configuration only.
    None,
    /// After convergence, corrupt this many uniformly chosen processors
    /// with arbitrary states and measure re-convergence.
    AfterConvergence {
        /// Number of processors hit (capped at the network size).
        hits: u8,
    },
    /// Mid-run corruption: after `step` daemon selections (or at
    /// convergence, whichever comes first), corrupt `hits` uniformly
    /// chosen processors.
    AtStep {
        /// Daemon selections before the hit.
        step: u32,
        /// Number of processors hit (capped at the network size).
        hits: u8,
    },
    /// After `step` daemon selections, a non-bridge link fails
    /// (connectivity is preserved; a tree has none, making this a no-op).
    LinkFail {
        /// Daemon selections before the failure.
        step: u32,
    },
    /// After `step` daemon selections, a new link appears between two
    /// non-adjacent processors (a no-op on complete graphs).
    LinkAdd {
        /// Daemon selections before the new link.
        step: u32,
    },
    /// After `step` daemon selections, a non-root processor restarts:
    /// it crashes (state reset, links dropped) and immediately rejoins
    /// with the same links.
    NodeCrash {
        /// Daemon selections before the restart.
        step: u32,
    },
    /// After `step` daemon selections, a fresh processor joins with
    /// links to one or two existing processors. Cells with this plan
    /// instantiate their network with one node of bound headroom.
    NodeJoin {
        /// Daemon selections before the arrival.
        step: u32,
    },
    /// Churn: after convergence, `rate` consecutive perturbations, each
    /// adding an absent link and failing a non-bridge link.
    Churn {
        /// Number of perturbation windows per run.
        rate: u8,
        /// Extra salt decorrelating the churn stream from the run seed.
        seed: u64,
    },
    /// Unrestricted churn: like [`FaultPlan::Churn`], but the failing
    /// link is drawn from **all** links — bridges included — so a window
    /// may disconnect processors from the root. Restricted to the
    /// disconnection-aware [`ProtocolSpec::Dcd`] stack (every other
    /// stack's specification presumes a connected rooted network).
    ChurnAny {
        /// Number of perturbation windows per run.
        rate: u8,
        /// Extra salt decorrelating the churn stream from the run seed.
        seed: u64,
    },
}

impl FaultPlan {
    /// Whether this plan schedules [`sno_engine::TopologyEvent`]s (and
    /// therefore needs a fresh simulation per seed and a self-stabilizing
    /// protocol stack).
    pub fn mutates_topology(&self) -> bool {
        matches!(
            self,
            FaultPlan::LinkFail { .. }
                | FaultPlan::LinkAdd { .. }
                | FaultPlan::NodeCrash { .. }
                | FaultPlan::NodeJoin { .. }
                | FaultPlan::Churn { .. }
                | FaultPlan::ChurnAny { .. }
        )
    }

    /// Whether this plan may *disconnect* processors from the root
    /// (only [`FaultPlan::ChurnAny`] — every other plan preserves
    /// reachability by construction).
    pub fn may_disconnect(&self) -> bool {
        matches!(self, FaultPlan::ChurnAny { .. })
    }

    /// The step `S` of a step-scheduled plan (`hit:K@S`, `link-fail@S`,
    /// `link-add@S`, `node-crash@S`, `node-join@S`), whose single window
    /// fires after segment A's first `S` daemon selections.
    pub(crate) fn scheduled_step(&self) -> Option<u32> {
        match *self {
            FaultPlan::AtStep { step, .. }
            | FaultPlan::LinkFail { step }
            | FaultPlan::LinkAdd { step }
            | FaultPlan::NodeCrash { step }
            | FaultPlan::NodeJoin { step } => Some(step),
            _ => None,
        }
    }

    /// The number of perturb-and-re-converge windows a run gets after
    /// segment A (see the table above).
    pub(crate) fn windows(&self) -> u32 {
        match *self {
            FaultPlan::None => 0,
            FaultPlan::Churn { rate, .. } | FaultPlan::ChurnAny { rate, .. } => u32::from(rate),
            _ => 1,
        }
    }

    /// How many processors beyond the instantiated topology the network
    /// bound `N` must leave room for (node arrivals).
    pub fn join_headroom(&self) -> usize {
        match self {
            FaultPlan::NodeJoin { .. } => 1,
            _ => 0,
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlan::None => f.write_str("none"),
            FaultPlan::AfterConvergence { hits } => write!(f, "hit:{hits}"),
            FaultPlan::AtStep { step, hits } => write!(f, "hit:{hits}@{step}"),
            FaultPlan::LinkFail { step } => write!(f, "link-fail@{step}"),
            FaultPlan::LinkAdd { step } => write!(f, "link-add@{step}"),
            FaultPlan::NodeCrash { step } => write!(f, "node-crash@{step}"),
            FaultPlan::NodeJoin { step } => write!(f, "node-join@{step}"),
            FaultPlan::Churn { rate, seed } => write!(f, "churn:{rate}:{seed}"),
            FaultPlan::ChurnAny { rate, seed } => write!(f, "churn-any:{rate}:{seed}"),
        }
    }
}

impl FromStr for FaultPlan {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, ParseError> {
        if s == "none" {
            return Ok(FaultPlan::None);
        }
        if let Some(rest) = s.strip_prefix("hit:") {
            if let Some((hits, step)) = rest.split_once('@') {
                if let (Ok(hits), Ok(step)) = (hits.parse(), step.parse()) {
                    return Ok(FaultPlan::AtStep { step, hits });
                }
            } else if let Ok(hits) = rest.parse() {
                return Ok(FaultPlan::AfterConvergence { hits });
            }
        }
        type Make = fn(u32) -> FaultPlan;
        for (name, make) in [
            ("link-fail@", (|step| FaultPlan::LinkFail { step }) as Make),
            ("link-add@", |step| FaultPlan::LinkAdd { step }),
            ("node-crash@", |step| FaultPlan::NodeCrash { step }),
            ("node-join@", |step| FaultPlan::NodeJoin { step }),
        ] {
            if let Some(step) = s.strip_prefix(name) {
                if let Ok(step) = step.parse() {
                    return Ok(make(step));
                }
            }
        }
        if let Some(rest) = s.strip_prefix("churn:") {
            if let Some((rate, seed)) = rest.split_once(':') {
                if let (Ok(rate), Ok(seed)) = (rate.parse(), seed.parse()) {
                    return Ok(FaultPlan::Churn { rate, seed });
                }
            }
        }
        if let Some(rest) = s.strip_prefix("churn-any:") {
            if let Some((rate, seed)) = rest.split_once(':') {
                if let (Ok(rate), Ok(seed)) = (rate.parse(), seed.parse()) {
                    return Ok(FaultPlan::ChurnAny { rate, seed });
                }
            }
        }
        Err(ParseError::new("fault plan", s))
    }
}

/// Error for any failed spec parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    what: &'static str,
    input: String,
}

impl ParseError {
    fn new(what: &'static str, input: &str) -> Self {
        ParseError {
            what,
            input: input.to_string(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} `{}`", self.what, self.input)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names_round_trip() {
        for p in ProtocolSpec::ALL {
            assert_eq!(p.to_string().parse::<ProtocolSpec>().unwrap(), p);
        }
        assert!("dftno".parse::<ProtocolSpec>().is_err());
    }

    #[test]
    fn daemon_names_round_trip() {
        for d in DaemonSpec::ALL {
            assert_eq!(d.to_string().parse::<DaemonSpec>().unwrap(), d);
        }
        assert!("chaotic".parse::<DaemonSpec>().is_err());
    }

    #[test]
    fn fault_plans_round_trip() {
        for f in [
            FaultPlan::None,
            FaultPlan::AfterConvergence { hits: 3 },
            FaultPlan::AtStep { step: 500, hits: 2 },
            FaultPlan::LinkFail { step: 40 },
            FaultPlan::LinkAdd { step: 0 },
            FaultPlan::NodeCrash { step: 17 },
            FaultPlan::NodeJoin { step: 9 },
            FaultPlan::Churn { rate: 4, seed: 11 },
            FaultPlan::ChurnAny { rate: 2, seed: 7 },
        ] {
            assert_eq!(f.to_string().parse::<FaultPlan>().unwrap(), f);
        }
        for bad in [
            "hit:",
            "hit:2@",
            "link-fail",
            "churn:4",
            "churn::3",
            "churn-any:4",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad}");
        }
    }

    #[test]
    fn fault_plan_classification() {
        assert!(!FaultPlan::None.mutates_topology());
        assert!(!FaultPlan::AtStep { step: 5, hits: 1 }.mutates_topology());
        assert!(FaultPlan::LinkFail { step: 5 }.mutates_topology());
        assert!(FaultPlan::Churn { rate: 2, seed: 0 }.mutates_topology());
        assert!(FaultPlan::ChurnAny { rate: 2, seed: 0 }.mutates_topology());
        assert!(FaultPlan::ChurnAny { rate: 2, seed: 0 }.may_disconnect());
        assert!(!FaultPlan::Churn { rate: 2, seed: 0 }.may_disconnect());
        assert_eq!(FaultPlan::NodeJoin { step: 5 }.join_headroom(), 1);
        assert_eq!(FaultPlan::Churn { rate: 2, seed: 0 }.join_headroom(), 0);
        assert_eq!(FaultPlan::None.windows(), 0);
        assert_eq!(FaultPlan::AfterConvergence { hits: 3 }.windows(), 1);
        assert_eq!(FaultPlan::NodeCrash { step: 7 }.windows(), 1);
        assert_eq!(FaultPlan::ChurnAny { rate: 5, seed: 0 }.windows(), 5);
        assert_eq!(
            FaultPlan::AtStep { step: 9, hits: 1 }.scheduled_step(),
            Some(9)
        );
        assert_eq!(FaultPlan::LinkAdd { step: 4 }.scheduled_step(), Some(4));
        assert_eq!(
            FaultPlan::AfterConvergence { hits: 1 }.scheduled_step(),
            None
        );
        assert_eq!(FaultPlan::Churn { rate: 2, seed: 0 }.scheduled_step(), None);
    }

    #[test]
    fn daemons_build_for_any_network() {
        let g = sno_graph::generators::ring(5);
        let net = Network::new(g, sno_graph::NodeId::new(0));
        for d in DaemonSpec::ALL {
            let mut daemon = d.build(&net, 3);
            daemon.reset(4);
            assert!(!daemon.name().is_empty());
        }
    }
}
