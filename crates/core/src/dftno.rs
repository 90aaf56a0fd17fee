//! **Algorithm 3.1.1 — `DFTNO`**: network orientation using depth-first
//! token circulation.
//!
//! The protocol runs on top of any [`TokenCirculation`] substrate and adds
//! three orientation variables per processor: the name `η_p`, the running
//! maximum `Max_p`, and the edge labels `π_p[l]`. Its actions are hooked
//! onto the substrate's guards exactly as in the paper:
//!
//! ```text
//! Forward(p)   → Nodelabel_p     (η, Max := 0 at the root;
//!                                 η := Max_{A_p} + 1, Max := η otherwise)
//! Backtrack(p) → UpdateMax_p     (Max_p := Max_{D_p})
//! ¬Forward(p) ∧ ¬Backtrack(p) ∧ InvalidEdgelabel(p) → Edgelabel_p
//! ```
//!
//! The token acts as a counter: each first visit hands out the next free
//! name, so after one complete round every `η_p` is the node's rank in the
//! deterministic depth-first order, and the edge-label action then repairs
//! `π_p[l] = (η_p − η_q) mod N`. Stabilization takes `O(n)` steps after
//! the substrate stabilizes (Theorem 3.2.3 and §3.2.3), measured in
//! experiment E4.

use std::hash::Hash;

use rand::Rng as _;
use rand::RngCore;
use sno_engine::protocol::ProjectedView;
use sno_engine::{
    ApplyProfile, Enumerable, LayerLayout, LayerTxn, Network, NodeCtx, NodeView, PortCache,
    PortVerdict, Protocol, ReadScope, Scratch, SpaceMeasured, StateTxn,
};
use sno_graph::Port;
use sno_token::{TokenCirculation, TokenKind};

use crate::orientation::{chordal_label, chordal_label_valid, golden_dfs_orientation, Orientation};

/// Per-processor state: the substrate's variables plus the orientation
/// variables of Algorithm 3.1.1.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct DftnoState<S> {
    /// The token-circulation substrate's variables.
    pub token: S,
    /// The node name `η_p ∈ {0, …, N−1}`.
    pub eta: u32,
    /// The running maximum `Max_p` — the largest name this node knows.
    pub max: u32,
    /// The edge labels `π_p[l]`, one per port.
    pub pi: Vec<u32>,
}

/// Manual so `clone_from` is field-wise: the engine's copy-on-write
/// stash pools pre-round copies, and `pi.clone_from` reusing its
/// capacity is what keeps a rare multi-writer preservation
/// allocation-free (the derive would fall back to a fresh `O(Δ)`
/// allocation per copy).
impl<S: Clone> Clone for DftnoState<S> {
    fn clone(&self) -> Self {
        DftnoState {
            token: self.token.clone(),
            eta: self.eta,
            max: self.max,
            pi: self.pi.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.token.clone_from(&source.token);
        self.eta = source.eta;
        self.max = source.max;
        self.pi.clone_from(&source.pi);
    }
}

/// Actions of `DFTNO`: substrate actions (with orientation side effects on
/// `Forward`/`Backtrack`) plus the standalone edge-label repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DftnoAction<A> {
    /// A substrate action; `Forward` additionally runs `Nodelabel`,
    /// `Backtrack` additionally runs `UpdateMax`.
    Token(A),
    /// `Edgelabel_p`: rewrite every inconsistent `π_p[l]`.
    EdgeLabel,
}

/// The `DFTNO` protocol over a token-circulation substrate `T`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dftno<T> {
    token: T,
}

fn token_of<S>(s: &DftnoState<S>) -> &S {
    &s.token
}

fn token_of_mut<S>(s: &mut DftnoState<S>) -> &mut S {
    &mut s.token
}

type TokenView<'a, S, V> = ProjectedView<'a, DftnoState<S>, V, fn(&DftnoState<S>) -> &S>;

/// [`StateTxn::note_self`] bit: `η` changed (label bits must rebuild).
const NOTE_ETA: u64 = 1;
/// Note bit: `π` changed.
const NOTE_PI: u64 = 1 << 1;
/// Note bit: the substrate moved (its notes sit above [`NOTE_SHIFT`]).
const NOTE_TOKEN: u64 = 1 << 2;
/// The substrate's note bits start here.
const NOTE_SHIFT: u32 = 3;

impl<T: TokenCirculation> Dftno<T> {
    /// Wraps the substrate `token`.
    pub fn new(token: T) -> Self {
        Dftno { token }
    }

    /// The wrapped substrate.
    pub fn token(&self) -> &T {
        &self.token
    }

    fn project<'a, V: NodeView<DftnoState<T::State>>>(view: &'a V) -> TokenView<'a, T::State, V> {
        ProjectedView::new(view, token_of as fn(&DftnoState<T::State>) -> &T::State)
    }

    /// `InvalidEdgelabel(p)`: some incident label violates the chordal
    /// equation against the *current* names.
    fn invalid_edge_label(view: &impl NodeView<DftnoState<T::State>>) -> bool {
        let ctx = view.ctx();
        let n = ctx.n_bound as u32;
        let me = view.state();
        (0..ctx.degree).any(|l| {
            let q = view.neighbor(Port::new(l));
            me.pi[l] != chordal_label(me.eta, q.eta, n)
        })
    }

    /// Recomputes every cached per-port label-validity bit (and the
    /// invalid count in `node[0]`) against the current view — `O(Δ)`,
    /// used by cache (re)initialization and own-η/π changes.
    fn rebuild_label_bits(view: &impl NodeView<DftnoState<T::State>>, cache: &mut PortCache<'_>) {
        let ctx = view.ctx();
        let n = ctx.n_bound as u32;
        let me = view.state();
        let mut invalid = 0u64;
        for l in 0..ctx.degree {
            let q = view.neighbor(Port::new(l));
            let bad = !chordal_label_valid(me.pi[l], me.eta, q.eta, n);
            cache.set_port(l, (cache.port(l) & !1) | u64::from(bad));
            invalid += u64::from(bad);
        }
        cache.node[0] = invalid;
    }

    /// The exact enabled-action count from the cache words: the (single)
    /// `Edgelabel` repair iff any label bit is set, plus the substrate's
    /// cached action count — matching `enabled`'s emission order.
    fn count_from_cache(cache: &PortCache<'_>) -> u32 {
        u32::from(cache.node[0] > 0) + cache.node[1] as u32
    }
}

impl<T: TokenCirculation> Protocol for Dftno<T> {
    type State = DftnoState<T::State>;
    type Action = DftnoAction<T::Action>;

    fn enabled(&self, view: &impl NodeView<Self::State>, out: &mut Vec<Self::Action>) {
        self.enabled_into(view, out, &mut Scratch::new());
    }

    fn enabled_into(
        &self,
        view: &impl NodeView<Self::State>,
        out: &mut Vec<Self::Action>,
        scratch: &mut Scratch,
    ) {
        // The paper's third action is guarded by ¬Forward ∧ ¬Backtrack ∧
        // InvalidEdgelabel. Under daemons that deterministically run a
        // node's first enabled action, that conjunct starves the repair: a
        // hub whose token action is pending whenever the schedule reaches
        // it never gets to fix its labels (the E12 `∞` rows of an earlier
        // revision). The repair is therefore *priority-ordered* instead:
        // it is offered whenever the labels are invalid and listed first,
        // so deterministic-action daemons repair before circulating. The
        // repair disables itself after one execution, so the token is
        // delayed by at most one selection per invalid labeling and the
        // stabilized behavior is unchanged (valid labels never re-enable
        // the repair).
        if Self::invalid_edge_label(view) {
            out.push(DftnoAction::EdgeLabel);
        }
        let proj = Self::project(view);
        let mut tok_actions = scratch.take_vec::<T::Action>();
        self.token.enabled_into(&proj, &mut tok_actions, scratch);
        out.extend(tok_actions.drain(..).map(DftnoAction::Token));
        scratch.put_vec(tok_actions);
    }

    // --- Port-separable interface, live when the substrate's is
    // (`DFTNO` over the oracle walker in practice). Cache layout,
    // declared through `LayerLayout`: the wrapper claims one port-word
    // bit (the per-port label-validity flag, the low bit of its window)
    // and two node words — `node[0]` the invalid-label count, `node[1]`
    // the substrate's cached action count — then hands the substrate the
    // rest (`cache.layer(2, 1)`). ---

    fn port_separable(&self) -> bool {
        self.token.port_separable()
    }

    fn port_layout(&self) -> LayerLayout {
        self.token.port_layout().stacked(1, 2)
    }

    fn enabled_from_cache(
        &self,
        view: &impl NodeView<Self::State>,
        cache: &mut PortCache<'_>,
        out: &mut Vec<Self::Action>,
        scratch: &mut Scratch,
    ) -> bool {
        // Mirrors `enabled_into`'s emission order without the O(Δ)
        // `InvalidEdgelabel` scan: the cache's invalid-label count
        // already answers it.
        if cache.node[0] > 0 {
            out.push(DftnoAction::EdgeLabel);
        }
        let proj = Self::project(view);
        let mut tok_actions = scratch.take_vec::<T::Action>();
        let ok = {
            let mut sub = cache.layer(2, 1);
            self.token
                .enabled_from_cache(&proj, &mut sub, &mut tok_actions, scratch)
        };
        if !ok {
            tok_actions.clear();
            scratch.put_vec(tok_actions);
            out.clear();
            return false;
        }
        out.extend(tok_actions.drain(..).map(DftnoAction::Token));
        scratch.put_vec(tok_actions);
        true
    }

    fn init_ports(&self, view: &impl NodeView<Self::State>, cache: &mut PortCache<'_>) -> u32 {
        Self::rebuild_label_bits(view, cache);
        let proj = Self::project(view);
        let mut sub = cache.layer(2, 1);
        let tok = self.token.init_ports(&proj, &mut sub);
        cache.node[1] = u64::from(tok);
        Self::count_from_cache(cache)
    }

    fn refresh_self(
        &self,
        view: &impl NodeView<Self::State>,
        touched: u64,
        cache: &mut PortCache<'_>,
    ) -> PortVerdict {
        // The label bits read own η and π; recompute them only when the
        // transaction noted one of those changed (a token move leaves
        // both alone, so a steady-state hub step stays o(Δ) guard
        // evaluations).
        if touched & (NOTE_ETA | NOTE_PI) != 0 {
            Self::rebuild_label_bits(view, cache);
        }
        if touched & NOTE_TOKEN != 0 {
            let proj = Self::project(view);
            let mut sub = cache.layer(2, 1);
            match self
                .token
                .refresh_self(&proj, touched >> NOTE_SHIFT, &mut sub)
            {
                PortVerdict::Whole => return PortVerdict::Whole,
                PortVerdict::Count(c) => cache.node[1] = u64::from(c),
                PortVerdict::Unchanged => {}
            }
        }
        PortVerdict::Count(Self::count_from_cache(cache))
    }

    fn reevaluate_port(
        &self,
        view: &impl NodeView<Self::State>,
        port: Port,
        cache: &mut PortCache<'_>,
    ) -> PortVerdict {
        let ctx = view.ctx();
        let n = ctx.n_bound as u32;
        let me = view.state();
        let q = view.neighbor(port);
        let bad = !chordal_label_valid(me.pi[port.index()], me.eta, q.eta, n);
        let was = cache.port(port.index()) & 1 != 0;
        if bad != was {
            cache.set_port(port.index(), cache.port(port.index()) ^ 1);
            cache.node[0] = cache.node[0] + u64::from(bad) - u64::from(was);
        }
        {
            let proj = Self::project(view);
            let mut sub = cache.layer(2, 1);
            match self.token.reevaluate_port(&proj, port, &mut sub) {
                PortVerdict::Whole => return PortVerdict::Whole,
                PortVerdict::Count(c) => cache.node[1] = u64::from(c),
                PortVerdict::Unchanged => {}
            }
        }
        PortVerdict::Count(Self::count_from_cache(cache))
    }

    fn apply_profile(
        &self,
        view: &impl NodeView<Self::State>,
        action: &Self::Action,
    ) -> ApplyProfile {
        // Aspect vocabulary of the delta-staged commit (coarser than the
        // note bits need to be): `NOTE_ETA` the name, `NOTE_PI` the edge
        // labels, `NOTE_TOKEN` everything token-adjacent — the substrate
        // variables *and* `Max`, which only token statements read or
        // write. This is what makes dense synchronous repair rounds
        // copy-free: an `Edgelabel` statement reads neighbor η (never
        // written by other `Edgelabel`s, whose writes are π-only), so
        // the only conflict left is a token hand-off adjacent to a
        // same-step repair.
        match action {
            DftnoAction::EdgeLabel => ApplyProfile::reading(ReadScope::All, NOTE_ETA, NOTE_PI),
            DftnoAction::Token(a) => {
                let proj = Self::project(view);
                // The substrate's own reads, coarsened to the one
                // token aspect (substrate-substrate conflicts stay
                // conservative; cross-layer ones stay precise).
                let sub = self.token.apply_profile(&proj, a);
                let sub = ApplyProfile::reading(
                    sub.reads,
                    if sub.is_reader() { NOTE_TOKEN } else { 0 },
                    NOTE_TOKEN,
                );
                let own = match self.token.classify(&proj, a) {
                    TokenKind::Forward => {
                        let reads = if view.ctx().is_root {
                            (ReadScope::None, 0)
                        } else {
                            match self.token.parent_port(&proj) {
                                // Nodelabel consults the parent's Max.
                                Some(pp) => (ReadScope::One(pp), NOTE_TOKEN),
                                None => (ReadScope::None, 0),
                            }
                        };
                        ApplyProfile::reading(reads.0, reads.1, NOTE_TOKEN | NOTE_ETA)
                    }
                    TokenKind::Backtrack { child } => {
                        // UpdateMax consults the descendant's Max.
                        ApplyProfile::reading(ReadScope::One(child), NOTE_TOKEN, NOTE_TOKEN)
                    }
                    TokenKind::Internal => ApplyProfile::local(NOTE_TOKEN),
                };
                own.union(sub)
            }
        }
    }

    fn apply_in_place(&self, txn: &mut impl StateTxn<Self::State>, action: &Self::Action) {
        let ctx_is_root = txn.ctx().is_root;
        let n = txn.ctx().n_bound as u32;
        // Write-scope accounting (replacing the old old-vs-new diff):
        // neighbor guards read exactly two things of this node — its η
        // (their per-port label checks) and its substrate variables
        // (their token guards, declared by the substrate's own
        // sub-transaction). `Max` and `π` are consulted only inside
        // statements, never by a guard, so changing them dirties nothing
        // — this is what makes a hub's `Edgelabel` repair free for its Δ
        // neighbors.
        match action {
            DftnoAction::Token(a) => {
                // Classification and the parent port are read against the
                // pre-move substrate state, then the substrate moves and
                // the orientation side effect lands in the same atomic
                // step, as in Algorithm 3.1.1.
                let (kind, parent_port) = {
                    let mut sub = LayerTxn::new(txn, token_of, token_of_mut, NOTE_SHIFT);
                    let kind = self.token.classify(&sub, a);
                    let pp = self.token.parent_port(&sub);
                    self.token.apply_in_place(&mut sub, a);
                    (kind, pp)
                };
                txn.note_self(NOTE_TOKEN);
                match kind {
                    TokenKind::Forward => {
                        let new_eta = if ctx_is_root {
                            0
                        } else {
                            // Nodelabel: consult the parent for the
                            // current maximum. While the substrate is
                            // still stabilizing the parent may be unknown;
                            // fall back to the local Max (repaired next
                            // round).
                            let parent_max = parent_port
                                .map(|l| txn.neighbor(l).max)
                                .unwrap_or(txn.state().max);
                            (parent_max + 1) % n
                        };
                        let me = txn.state_mut();
                        let eta_changed = me.eta != new_eta;
                        me.eta = new_eta;
                        me.max = new_eta;
                        if eta_changed {
                            txn.note_self(NOTE_ETA);
                            txn.touch_all_ports();
                        }
                    }
                    TokenKind::Backtrack { child } => {
                        // UpdateMax: adopt the maximum of the descendant
                        // the token returned from. Unobservable (no
                        // neighbor guard reads Max).
                        let m = txn.neighbor(child).max % n;
                        txn.state_mut().max = m;
                    }
                    TokenKind::Internal => {}
                }
            }
            DftnoAction::EdgeLabel => {
                let deg = txn.ctx().degree;
                for l in 0..deg {
                    let q_eta = txn.neighbor(Port::new(l)).eta;
                    let me = txn.state_mut();
                    me.pi[l] = chordal_label(me.eta, q_eta, n);
                }
                txn.note_self(NOTE_PI);
                // π is read by no neighbor guard.
                txn.mark_unobservable();
            }
        }
        txn.commit();
    }

    fn initial_state(&self, ctx: &NodeCtx) -> Self::State {
        DftnoState {
            token: self.token.initial_state(ctx),
            eta: 0,
            max: 0,
            pi: vec![0; ctx.degree],
        }
    }

    fn random_state(&self, ctx: &NodeCtx, rng: &mut dyn RngCore) -> Self::State {
        let n = ctx.n_bound as u32;
        DftnoState {
            token: self.token.random_state(ctx, rng),
            eta: rng.random_range(0..n),
            max: rng.random_range(0..n),
            pi: (0..ctx.degree).map(|_| rng.random_range(0..n)).collect(),
        }
    }
}

impl<T> Enumerable for Dftno<T>
where
    T: TokenCirculation + Enumerable,
{
    fn enumerate_states(&self, ctx: &NodeCtx) -> Vec<Self::State> {
        // The substrate's space times the orientation variables. Every
        // value the protocol ever writes stays inside it: `Nodelabel`
        // and `UpdateMax` reduce mod N, `Edgelabel` writes chordal
        // labels (already mod N) — so the exhaustive checker's successor
        // closure holds. Substrate-major order keeps the token layer in
        // the low digits.
        let toks = self.token.enumerate_states(ctx);
        let n = ctx.n_bound as u64;
        let deg = ctx.degree;
        let labelings = n.pow(deg as u32);
        let mut out = Vec::with_capacity(toks.len() * (n * n * labelings) as usize);
        for token in &toks {
            for eta in 0..n as u32 {
                for max in 0..n as u32 {
                    for labeling in 0..labelings {
                        let mut code = labeling;
                        let mut pi = Vec::with_capacity(deg);
                        for _ in 0..deg {
                            pi.push((code % n) as u32);
                            code /= n;
                        }
                        out.push(DftnoState {
                            token: token.clone(),
                            eta,
                            max,
                            pi,
                        });
                    }
                }
            }
        }
        out
    }
}

impl<T> SpaceMeasured for Dftno<T>
where
    T: TokenCirculation + SpaceMeasured,
{
    fn state_bits(&self, ctx: &NodeCtx) -> usize {
        // §3.2.3: η and Max need log N bits each, π needs Δ·log N — total
        // O(Δ × log N) — plus whatever the substrate keeps.
        let log_n = (usize::BITS - ctx.n_bound.leading_zeros()) as usize;
        (2 + ctx.degree) * log_n + self.token.state_bits(ctx)
    }
}

/// The orientation bits of `DFTNO`'s space usage alone (excluding the
/// substrate) — the quantity §3.2.3 reports as `O(Δ × log N)`.
pub fn dftno_orientation_bits(ctx: &NodeCtx) -> usize {
    let log_n = (usize::BITS - ctx.n_bound.leading_zeros()) as usize;
    (2 + ctx.degree) * log_n
}

/// Extracts the orientation variables from a configuration.
pub fn dftno_orientation<S>(config: &[DftnoState<S>]) -> Orientation {
    Orientation {
        names: config.iter().map(|s| s.eta).collect(),
        labels: config.iter().map(|s| s.pi.clone()).collect(),
    }
}

/// The specification `SP_NO`: unique names and chordal labels.
pub fn dftno_oriented<S>(net: &Network, config: &[DftnoState<S>]) -> bool {
    dftno_orientation(config).satisfies_spec(net)
}

/// The stronger golden predicate: names equal the first-DFS ranks (what
/// the algorithm actually converges to) and all labels are chordal.
pub fn dftno_golden<S>(net: &Network, config: &[DftnoState<S>]) -> bool {
    dftno_orientation(config) == golden_dfs_orientation(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sno_engine::daemon::{CentralRoundRobin, DistributedRandom, Synchronous};
    use sno_engine::Simulation;
    use sno_graph::{generators, NodeId};
    use sno_token::{DfsTokenCirculation, OracleToken};

    /// DFTNO over the golden substrate, from arbitrary orientation
    /// variables — the regime of the paper's complexity claim.
    fn oracle_fixture(g: sno_graph::Graph) -> (Network, Dftno<OracleToken>) {
        let root = NodeId::new(0);
        let oracle = OracleToken::new(&g, root);
        (Network::new(g, root), Dftno::new(oracle))
    }

    #[test]
    fn orients_paper_example_to_figure_names() {
        let (net, proto) = oracle_fixture(generators::paper_example_dftno());
        let mut rng = StdRng::seed_from_u64(5);
        let mut sim = Simulation::from_random(&net, proto, &mut rng);
        let run = sim.run_until(&mut CentralRoundRobin::new(), 100_000, |c| {
            dftno_golden(&net, c)
        });
        assert!(run.converged);
        let o = dftno_orientation(sim.config());
        // Figure 3.1.1: r=0, a=4, b=1, c=3, d=2.
        assert_eq!(o.names, vec![0, 4, 1, 3, 2]);
    }

    #[test]
    fn orients_many_topologies_from_arbitrary_states() {
        // A randomized central daemon: strongly fair with probability 1.
        // (Weakly fair daemons also converge since the repair-priority fix;
        // see `repair_priority_defeats_round_robin_resonance` below.)
        for (i, t) in generators::Topology::ALL.into_iter().enumerate() {
            let g = t.build(14, 3);
            let (net, proto) = oracle_fixture(g);
            let mut rng = StdRng::seed_from_u64(40 + i as u64);
            let mut sim = Simulation::from_random(&net, proto, &mut rng);
            let mut daemon = sno_engine::daemon::CentralRandom::seeded(i as u64);
            let run = sim.run_until(&mut daemon, 1_000_000, |c| dftno_golden(&net, c));
            assert!(run.converged, "topology {t}");
        }
    }

    #[test]
    fn repair_priority_defeats_round_robin_resonance() {
        // Regression for a reproduction finding: with the paper's literal
        // Edgelabel guard (¬Forward ∧ ¬Backtrack ∧ InvalidEdgelabel) the
        // weakly fair round-robin schedule *resonated* with the token on a
        // star — it served the hub only at moments its token action was
        // the enabled one, so the hub's labels were never repaired (names
        // converged, SP2 did not). Priority-ordering the repair action in
        // `Dftno::enabled` removes the resonance; the same instance now
        // converges under round robin, the synchronous daemon, and a
        // randomized daemon alike.
        let (net, proto) = oracle_fixture(generators::star(14));
        let mut rng = StdRng::seed_from_u64(42);
        let mut sim = Simulation::from_random(&net, proto.clone(), &mut rng);
        let run = sim.run_until(&mut CentralRoundRobin::new(), 200_000, |c| {
            dftno_golden(&net, c)
        });
        assert!(run.converged, "round robin no longer starves the repair");

        let mut rng = StdRng::seed_from_u64(42);
        let mut sim = Simulation::from_random(&net, proto.clone(), &mut rng);
        let run = sim.run_until(&mut Synchronous::new(), 200_000, |c| dftno_golden(&net, c));
        assert!(run.converged, "synchronous daemon converges");

        let mut rng = StdRng::seed_from_u64(42);
        let mut sim = Simulation::from_random(&net, proto, &mut rng);
        let mut daemon = sno_engine::daemon::CentralRandom::seeded(1);
        let run = sim.run_until(&mut daemon, 200_000, |c| dftno_golden(&net, c));
        assert!(run.converged, "randomized daemon converges");
    }

    #[test]
    fn stabilizes_in_linear_moves_after_token_stabilizes() {
        // §3.2.3: O(n) steps after the token circulation stabilizes. With
        // the oracle substrate every move is charged to DFTNO's phase:
        // ≤ 2 rounds of token moves + edge-label repairs.
        for n in [8usize, 16, 32, 64] {
            let g = generators::random_tree(n, 77);
            let (net, proto) = oracle_fixture(g);
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut sim = Simulation::from_random(&net, proto, &mut rng);
            let run = sim.run_until(&mut CentralRoundRobin::new(), 10_000_000, |c| {
                dftno_golden(&net, c)
            });
            assert!(run.converged);
            let bound = 10 * n as u64 + 20;
            assert!(
                run.moves <= bound,
                "n={n}: {} moves exceeds linear bound {bound}",
                run.moves
            );
        }
    }

    #[test]
    fn closure_orientation_survives_continued_circulation() {
        let (net, proto) = oracle_fixture(generators::random_connected(10, 7, 8));
        let mut rng = StdRng::seed_from_u64(2);
        let mut sim = Simulation::from_random(&net, proto, &mut rng);
        let run = sim.run_until(&mut CentralRoundRobin::new(), 1_000_000, |c| {
            dftno_golden(&net, c)
        });
        assert!(run.converged);
        // The token keeps circulating; the orientation must never regress.
        let mut daemon = CentralRoundRobin::new();
        for _ in 0..2_000 {
            sim.step(&mut daemon);
            assert!(dftno_oriented(&net, sim.config()), "SP_NO closure");
            assert!(dftno_golden(&net, sim.config()), "names stay golden");
        }
    }

    #[test]
    fn full_stack_self_stabilizes_from_arbitrary_states() {
        // DFTNO over the *self-stabilizing* substrate: everything random.
        let g = generators::paper_example_dftno();
        let net = Network::new(g, NodeId::new(0));
        let proto = Dftno::new(DfsTokenCirculation);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sim = Simulation::from_random(&net, proto, &mut rng);
            let run = sim.run_until(&mut CentralRoundRobin::new(), 4_000_000, |c| {
                dftno_golden(&net, c)
            });
            assert!(run.converged, "seed {seed}");
        }
    }

    #[test]
    fn full_stack_works_under_distributed_daemon() {
        let g = generators::random_connected(8, 5, 12);
        let net = Network::new(g, NodeId::new(0));
        let proto = Dftno::new(DfsTokenCirculation);
        let mut rng = StdRng::seed_from_u64(3);
        let mut sim = Simulation::from_random(&net, proto, &mut rng);
        let run = sim.run_until(&mut DistributedRandom::seeded(5), 4_000_000, |c| {
            dftno_golden(&net, c)
        });
        assert!(run.converged);
    }

    #[test]
    fn full_stack_works_under_synchronous_daemon() {
        let g = generators::ring(7);
        let net = Network::new(g, NodeId::new(0));
        let proto = Dftno::new(DfsTokenCirculation);
        let mut rng = StdRng::seed_from_u64(6);
        let mut sim = Simulation::from_random(&net, proto, &mut rng);
        let run = sim.run_until(&mut Synchronous::new(), 4_000_000, |c| {
            dftno_golden(&net, c)
        });
        assert!(run.converged);
    }

    #[test]
    fn loose_bound_names_stay_dense_and_labels_mod_n() {
        // N = 2n: names are still 0..n−1 (DFS ranks) but labels mod N.
        let g = generators::paper_example_dftno();
        let net = Network::with_bound(g, NodeId::new(0), 10);
        let oracle = OracleToken::new(net.graph(), NodeId::new(0));
        let proto = Dftno::new(oracle);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sim = Simulation::from_random(&net, proto, &mut rng);
        let run = sim.run_until(&mut CentralRoundRobin::new(), 100_000, |c| {
            dftno_golden(&net, c)
        });
        assert!(run.converged);
        let o = dftno_orientation(sim.config());
        assert!(o.names.iter().all(|&e| e < 5));
        assert!(o.sp1(10));
    }

    #[test]
    fn space_accounting_matches_paper_breakdown() {
        let g = generators::star(9);
        let net = Network::new(g, NodeId::new(0));
        let hub = net.ctx(NodeId::new(0));
        let leaf = net.ctx(NodeId::new(3));
        // η + Max + Δ·π, log N = 4 bits for N = 9.
        assert_eq!(dftno_orientation_bits(hub), (2 + 8) * 4);
        assert_eq!(dftno_orientation_bits(leaf), (2 + 1) * 4);
    }
}
