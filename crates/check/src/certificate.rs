//! Machine-readable closure/convergence certificates and replayable,
//! minimized counterexample traces.
//!
//! A certificate is the checker's durable artifact: what was explored
//! (worlds, state counts, BFS depth profile), what was checked, and the
//! verdict per property × daemon — emitted as **deterministic** JSON
//! (fixed field order, no floats, no timestamps), so CI can `cmp`
//! certificates produced at different thread and shard counts
//! byte-for-byte.
//!
//! Counterexamples are two-part: a **stem** from a seed to the witness
//! state (extracted from canonical BFS parents, then greedily
//! shortcut-minimized over program edges) and, for liveness violations,
//! the repeating **cycle**. Every step names the moving processor and
//! action index, so a trace replays against the engine move by move.
//!
//! With symmetry reduction on, BFS parents connect **orbit
//! representatives**: the stored edge from `C` to `C'` means some raw
//! successor `s` of `C` satisfies `canon(s) = C'`, so consecutive
//! representatives are generally *not* connected by the named move.
//! `realized_steps` repairs this by accumulating the canonicalization
//! witnesses along the stem and mapping every configuration, processor,
//! and digit back through the group — the emitted trace replays
//! move-for-move on a live simulation, and its endpoint is pinned to
//! the exact witness configuration (identity anchor for safety, the
//! lasso's raw start for liveness).

use sno_engine::Enumerable;
use sno_telemetry::escape_json;

use crate::analysis::Lasso;
use crate::explore::{kind_name, ExploreResult, KIND_CORRUPT, KIND_CRASH, KIND_PROGRAM, KIND_SEED};
use crate::model::Model;
use crate::symmetry::{SymElem, SymmetryTable};

/// One state of a trace, annotated with the edge that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// World the state lives in.
    pub world: u32,
    /// Edge kind (`seed`, `program`, `corrupt`, `crash`, `topology`).
    pub kind: &'static str,
    /// Moving / faulted processor (`None` for seed and topology edges).
    pub node: Option<u32>,
    /// Action index (program), or target digit (corrupt/crash).
    pub action: u32,
    /// The reached configuration, rendered.
    pub config: String,
}

/// A replayable, minimized witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// From a seed (first entry) to the witness state (last entry).
    pub stem: Vec<TraceStep>,
    /// The repeating moves, ending back at the cycle's first state
    /// (empty for safety violations and deadlocks).
    pub cycle: Vec<TraceStep>,
    /// The witness is a stuck illegitimate configuration.
    pub deadlock: bool,
    /// Stem length before minimization (≥ `stem.len()`).
    pub stem_full_len: usize,
}

/// Verdict on one checked property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyReport {
    /// Property name (`closure`, `invariant:<name>`, `convergence`).
    pub name: String,
    /// `safety` or `liveness`.
    pub kind: &'static str,
    /// Daemon the verdict is relative to (`any`, `unfair`,
    /// `round-robin`).
    pub daemon: &'static str,
    /// `true` iff the property holds.
    pub holds: bool,
    /// Witness when it does not.
    pub counterexample: Option<Counterexample>,
}

/// Shape of one topology world in the certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldInfo {
    /// Processor count.
    pub nodes: usize,
    /// Link count.
    pub edges: usize,
    /// Enumerated configuration count.
    pub configs: u64,
    /// Distinct reachable raw configurations (orbit-expanded when
    /// symmetry is on, so it never depends on the symmetry setting).
    pub reachable: u64,
    /// Distinct reachable orbits (equals `reachable` for the trivial
    /// group).
    pub quotient: u64,
}

/// The complete, deterministic record of one check run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Protocol label.
    pub protocol: String,
    /// Topology label.
    pub topology: String,
    /// Seed regime name.
    pub seeds: &'static str,
    /// Corrupt/crash transitions allowed per execution.
    pub fault_budget: u32,
    /// Fault-class labels, in model order.
    pub faults: Vec<String>,
    /// World chain (world 0 first).
    pub worlds: Vec<WorldInfo>,
    /// Reachable states (product keys).
    pub states: u64,
    /// Program transitions generated.
    pub transitions: u64,
    /// Fault transitions generated.
    pub fault_transitions: u64,
    /// Edges landing on already-seen states.
    pub dedup_hits: u64,
    /// Dropped cross-world mappings.
    pub skipped_mappings: u64,
    /// Reachable states with a legitimate configuration.
    pub legitimate: u64,
    /// Maximum BFS depth.
    pub diameter: u32,
    /// States newly discovered per BFS depth.
    pub frontier: Vec<u64>,
    /// Total seen-set entries across shards at termination (the sets
    /// never evict, so this is their peak; a cross-check for `states`).
    pub seen_entries: u64,
    /// Whether symmetry reduction was requested for this run.
    pub symmetry_enabled: bool,
    /// Per-world admitted automorphism-group order (1 = trivial).
    pub group_orders: Vec<u64>,
    /// Orbit-expanded state count — what an unquotiented run stores.
    /// Equals `states` when every group is trivial.
    pub raw_states: u64,
    /// Verdicts, in check order.
    pub properties: Vec<PropertyReport>,
}

impl Certificate {
    /// `true` iff every checked property holds.
    pub fn all_hold(&self) -> bool {
        self.properties.iter().all(|p| p.holds)
    }

    /// Renders the certificate as deterministic pretty JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"sno-check/v1\",\n");
        s.push_str(&format!(
            "  \"protocol\": \"{}\",\n",
            escape_json(&self.protocol)
        ));
        s.push_str(&format!(
            "  \"topology\": \"{}\",\n",
            escape_json(&self.topology)
        ));
        s.push_str(&format!("  \"seeds\": \"{}\",\n", self.seeds));
        s.push_str(&format!("  \"fault_budget\": {},\n", self.fault_budget));
        s.push_str("  \"faults\": [");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\"", escape_json(f)));
        }
        s.push_str("],\n");
        s.push_str("  \"worlds\": [");
        for (i, w) in self.worlds.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"nodes\": {}, \"edges\": {}, \"configs\": {}, \"reachable\": {}, \"quotient\": {}}}",
                w.nodes, w.edges, w.configs, w.reachable, w.quotient
            ));
        }
        s.push_str("],\n");
        s.push_str(&format!("  \"states\": {},\n", self.states));
        s.push_str(&format!("  \"transitions\": {},\n", self.transitions));
        s.push_str(&format!(
            "  \"fault_transitions\": {},\n",
            self.fault_transitions
        ));
        s.push_str(&format!("  \"dedup_hits\": {},\n", self.dedup_hits));
        s.push_str(&format!(
            "  \"skipped_mappings\": {},\n",
            self.skipped_mappings
        ));
        s.push_str(&format!("  \"legitimate\": {},\n", self.legitimate));
        s.push_str(&format!("  \"diameter\": {},\n", self.diameter));
        s.push_str("  \"frontier\": [");
        for (i, f) in self.frontier.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&f.to_string());
        }
        s.push_str("],\n");
        s.push_str(&format!("  \"seen_entries\": {},\n", self.seen_entries));
        s.push_str(&format!(
            "  \"symmetry\": {{\"enabled\": {}, \"group\": [",
            self.symmetry_enabled
        ));
        for (i, g) in self.group_orders.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&g.to_string());
        }
        s.push_str(&format!(
            "], \"raw_states\": {}, \"quotient_states\": {}}},\n",
            self.raw_states, self.states
        ));
        s.push_str("  \"properties\": [\n");
        for (i, p) in self.properties.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!(
                "\"name\": \"{}\", \"kind\": \"{}\", \"daemon\": \"{}\", \"verdict\": \"{}\"",
                escape_json(&p.name),
                p.kind,
                p.daemon,
                if p.holds { "pass" } else { "fail" }
            ));
            if let Some(cx) = &p.counterexample {
                s.push_str(", \"counterexample\": ");
                write_counterexample(&mut s, cx);
            }
            s.push('}');
            if i + 1 < self.properties.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

fn write_counterexample(s: &mut String, cx: &Counterexample) {
    s.push_str(&format!(
        "{{\"deadlock\": {}, \"stem_full_len\": {}, \"stem\": [",
        cx.deadlock, cx.stem_full_len
    ));
    for (i, t) in cx.stem.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write_step(s, t);
    }
    s.push_str("], \"cycle\": [");
    for (i, t) in cx.cycle.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write_step(s, t);
    }
    s.push_str("]}");
}

fn write_step(s: &mut String, t: &TraceStep) {
    s.push_str(&format!(
        "{{\"world\": {}, \"kind\": \"{}\", \"node\": ",
        t.world, t.kind
    ));
    match t.node {
        Some(n) => s.push_str(&n.to_string()),
        None => s.push_str("null"),
    }
    s.push_str(&format!(
        ", \"action\": {}, \"config\": \"{}\"}}",
        t.action,
        escape_json(&t.config)
    ));
}

/// An edge-annotated key on a stem (edge is the one *into* `key`).
#[derive(Debug, Clone, Copy)]
struct StemStep {
    key: u64,
    kind: u8,
    node: u32,
    action: u32,
}

/// Extracts the canonical-parent stem from a seed to `key`.
fn raw_stem<P: Enumerable>(
    model: &Model<'_, P>,
    result: &ExploreResult,
    key: u64,
) -> Vec<StemStep> {
    let mut rev = Vec::new();
    let mut cur = key;
    loop {
        let meta = result
            .meta(model, cur)
            .expect("stem states are reachable by construction");
        rev.push(StemStep {
            key: cur,
            kind: meta.kind,
            node: meta.node,
            action: meta.action,
        });
        if meta.kind == KIND_SEED {
            break;
        }
        assert_ne!(meta.parent, cur, "only seeds are their own parent");
        cur = meta.parent;
    }
    rev.reverse();
    rev
}

/// Greedy shortcut minimization: repeatedly replace a stem span with a
/// single program move when one exists. Program edges never change the
/// `(world, budget)` layer, so fault edges are preserved exactly — the
/// minimized stem spends the same budget as the original.
fn minimize_stem<P: Enumerable>(model: &Model<'_, P>, stem: &mut Vec<StemStep>) {
    let mut digits = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i + 2 < stem.len() {
            let (world, budget_left, cidx) = model.split(stem[i].key);
            let w = &model.worlds[world as usize];
            let config = w.space.decode(cidx);
            let mut actions = Vec::new();
            let mut succs = Vec::new();
            w.space.successors_into(
                &w.net,
                model.protocol,
                cidx,
                &config,
                &mut actions,
                &mut succs,
            );
            let mut best: Option<(usize, u32, u32)> = None;
            for s in &succs {
                // Stem keys are canonical; compare like with like.
                let skey = model.canon_key(world, budget_left, s.next, &mut digits);
                // The longest forward jump wins; scan back to front.
                for j in (i + 2..stem.len()).rev() {
                    if stem[j].key == skey {
                        if best.is_none_or(|(bj, _, _)| j > bj) {
                            best = Some((j, s.node, s.action));
                        }
                        break;
                    }
                }
            }
            if let Some((j, node, action)) = best {
                stem[j].kind = KIND_PROGRAM;
                stem[j].node = node;
                stem[j].action = action;
                stem.drain(i + 1..j);
                changed = true;
            }
            i += 1;
        }
    }
}

fn render_key<P: Enumerable>(model: &Model<'_, P>, key: u64) -> (u32, String) {
    let (world, _, cidx) = model.split(key);
    let config = model.worlds[world as usize].space.decode(cidx);
    (world, format!("{config:?}"))
}

fn stem_to_steps<P: Enumerable>(model: &Model<'_, P>, stem: &[StemStep]) -> Vec<TraceStep> {
    stem.iter()
        .map(|s| {
            let (world, config) = render_key(model, s.key);
            TraceStep {
                world,
                kind: kind_name(s.kind),
                node: (s.node != u32::MAX).then_some(s.node),
                action: s.action,
                config,
            }
        })
        .collect()
}

/// The canonicalization witness of the edge `prev → cur`: the group
/// element `w` with `w(s) = cur`, where `s` is the raw successor of
/// `prev` under `cur`'s incoming edge.
fn witness_for<P: Enumerable>(
    model: &Model<'_, P>,
    table: &SymmetryTable,
    prev: &StemStep,
    cur: &StemStep,
    digits: &mut Vec<u64>,
) -> SymElem {
    let (world, _, pidx) = model.split(prev.key);
    let w = &model.worlds[world as usize];
    let s = match cur.kind {
        KIND_PROGRAM => w
            .space
            .apply_move(&w.net, model.protocol, pidx, cur.node, cur.action)
            .expect("stored program edges replay on their raw predecessor"),
        KIND_CORRUPT | KIND_CRASH => {
            w.space
                .with_digit(pidx, cur.node as usize, u64::from(cur.action))
        }
        other => unreachable!("symmetric stems have no {} edges", kind_name(other)),
    };
    let (canon, wi) = table.canon_witness(s, digits);
    let (_, _, cur_cidx) = model.split(cur.key);
    debug_assert_eq!(canon, cur_cidx, "the stored edge target is canonical");
    table.elems()[wi].clone()
}

/// The enabled-action index at `node` taking `from` to `to` in world 0.
fn matching_action<P: Enumerable>(model: &Model<'_, P>, from: u64, node: u32, to: u64) -> u32 {
    let w = &model.worlds[0];
    for a in 0.. {
        match w.space.apply_move(&w.net, model.protocol, from, node, a) {
            Some(next) if next == to => return a,
            Some(_) => {}
            None => break,
        }
    }
    panic!("transported program moves stay enabled (bisimulation contract)")
}

/// Renders a canonical stem as a **realized** trace: every
/// configuration, processor, and digit is mapped through an accumulated
/// group element `h_i` so consecutive rendered configurations are
/// genuine protocol/fault successors, and the final one equals
/// `target(C_end)` exactly. The accumulation rule is
/// `h_i = h_{i-1} ∘ w_i⁻¹` (with `w_i` the canonicalization witness of
/// step `i`), and `h_0` is solved backwards so the final element lands
/// on `target`. For models with only trivial groups this degrades to
/// plain rendering.
fn realized_steps<P: Enumerable>(
    model: &Model<'_, P>,
    stem: &[StemStep],
    target: &SymElem,
) -> Vec<TraceStep> {
    if !model.symmetric() {
        return stem_to_steps(model, stem);
    }
    // Non-trivial groups exist only for single-world models, so every
    // step lives in world 0 and one table serves the whole stem.
    let table = &model.sym[0];
    let mut digits = Vec::new();

    // Pass 1: collect the per-step witnesses and their accumulated
    // product `f` (the total drift of a forward pass started at the
    // identity).
    let mut witnesses: Vec<Option<SymElem>> = vec![None];
    let mut f = table.elems()[table.identity_index()].clone();
    for i in 1..stem.len() {
        let w = witness_for(model, table, &stem[i - 1], &stem[i], &mut digits);
        f = SymElem::after(&f, &w.inverse());
        witnesses.push(Some(w));
    }

    // Pass 2: anchor `h_0 = target ∘ f⁻¹` so `h_end = target`, then
    // render.
    let mut h = SymElem::after(target, &f.inverse());
    let space = &model.worlds[0].space;
    let mut steps = Vec::with_capacity(stem.len());
    let mut prev_realized: Option<u64> = None;
    for (i, s) in stem.iter().enumerate() {
        let (world, _, cidx) = model.split(s.key);
        debug_assert_eq!(world, 0, "symmetric models are single-world");
        if let Some(w) = &witnesses[i] {
            h = SymElem::after(&h, &w.inverse());
        }
        let realized = table.apply(&h, cidx, &mut digits);
        let (kind, node, action) = match s.kind {
            KIND_SEED => (KIND_SEED, u32::MAX, 0),
            KIND_PROGRAM => {
                let rv = h.sigma[s.node as usize];
                let prev = prev_realized.expect("program steps have a predecessor");
                (KIND_PROGRAM, rv, matching_action(model, prev, rv, realized))
            }
            KIND_CORRUPT | KIND_CRASH => {
                let rv = h.sigma[s.node as usize];
                let rd = h.digit_map[s.node as usize][s.action as usize];
                if let Some(prev) = prev_realized {
                    debug_assert_eq!(
                        space.with_digit(prev, rv as usize, u64::from(rd)),
                        realized,
                        "realized fault edges chain"
                    );
                }
                (s.kind, rv, rd)
            }
            other => unreachable!("symmetric stems have no {} edges", kind_name(other)),
        };
        prev_realized = Some(realized);
        steps.push(TraceStep {
            world,
            kind: kind_name(kind),
            node: (node != u32::MAX).then_some(node),
            action,
            config: format!("{:?}", space.decode(realized)),
        });
    }
    steps
}

/// Builds a safety counterexample: a minimized stem ending at `key`.
pub fn counterexample_to_state<P: Enumerable>(
    model: &Model<'_, P>,
    result: &ExploreResult,
    key: u64,
) -> Counterexample {
    let mut stem = raw_stem(model, result, key);
    let full = stem.len();
    minimize_stem(model, &mut stem);
    // Identity anchor: the realized trace ends at exactly the stored
    // witness configuration (where the predicate was evaluated).
    let (world, _, _) = model.split(key);
    let table = &model.sym[world as usize];
    let id = table.elems()[table.identity_index()].clone();
    Counterexample {
        stem: realized_steps(model, &stem, &id),
        cycle: Vec::new(),
        deadlock: false,
        stem_full_len: full,
    }
}

/// Builds a closure counterexample: a minimized stem to the legitimate
/// source `src`, plus the single program move to the illegitimate
/// successor `succ`.
pub fn counterexample_for_closure<P: Enumerable>(
    model: &Model<'_, P>,
    result: &ExploreResult,
    src: u64,
    succ: u64,
) -> Counterexample {
    let mut cx = counterexample_to_state(model, result, src);
    let (world, budget_left, cidx) = model.split(src);
    let w = &model.worlds[world as usize];
    let config = w.space.decode(cidx);
    let mut actions = Vec::new();
    let mut succs = Vec::new();
    w.space.successors_into(
        &w.net,
        model.protocol,
        cidx,
        &config,
        &mut actions,
        &mut succs,
    );
    let mut digits = Vec::new();
    let edge = succs
        .iter()
        .find(|s| model.canon_key(world, budget_left, s.next, &mut digits) == succ)
        .expect("closure violations are witnessed by a program edge");
    // Render the *raw* successor — the one the shard evaluated the
    // legitimacy predicate on — so the appended move replays on the
    // realized stem's final configuration.
    let (world, config) = render_key(model, model.key(world, budget_left, edge.next));
    cx.stem.push(TraceStep {
        world,
        kind: kind_name(KIND_PROGRAM),
        node: Some(edge.node),
        action: edge.action,
        config,
    });
    cx.stem_full_len += 1;
    cx
}

/// Builds a liveness counterexample from a [`Lasso`]: a minimized BFS
/// stem from a seed to the lasso's start configuration, the walked
/// prefix, and the repeating cycle.
pub fn counterexample_from_lasso<P: Enumerable>(
    model: &Model<'_, P>,
    result: &ExploreResult,
    lasso: &Lasso,
) -> Counterexample {
    let start_key = result
        .min_key(model, lasso.world, lasso.start)
        .expect("lasso start is a reachable configuration");
    let mut stem = raw_stem(model, result, start_key);
    let full = stem.len();
    minimize_stem(model, &mut stem);
    // Anchor the realized stem so its final configuration is the
    // lasso's *raw* start: if `w(start) = canon(start)`, the target is
    // `w⁻¹`. The cycle below then replays verbatim on raw configs.
    let table = &model.sym[lasso.world as usize];
    let mut digits = Vec::new();
    let (_, wi) = table.canon_witness(lasso.start, &mut digits);
    let target = table.elems()[wi].inverse();
    let mut stem_steps = realized_steps(model, &stem, &target);
    debug_assert_eq!(
        stem_steps.last().map(|s| s.config.clone()),
        Some(format!(
            "{:?}",
            model.worlds[lasso.world as usize].space.decode(lasso.start)
        )),
        "the realized stem ends at the lasso's raw start"
    );

    // Replay the walk: prefix extends the stem, suffix is the cycle.
    let w = &model.worlds[lasso.world as usize];
    let mut cur = lasso.start;
    let mut cycle = Vec::new();
    for (k, mv) in lasso.steps.iter().enumerate() {
        debug_assert_eq!(mv.config, cur, "lasso steps chain");
        cur = w
            .space
            .apply_move(&w.net, model.protocol, cur, mv.node, mv.action)
            .expect("lasso moves replay");
        let step = TraceStep {
            world: lasso.world,
            kind: kind_name(KIND_PROGRAM),
            node: Some(mv.node),
            action: mv.action,
            config: format!("{:?}", w.space.decode(cur)),
        };
        if k < lasso.cycle_at {
            stem_steps.push(step);
        } else {
            cycle.push(step);
        }
    }
    Counterexample {
        stem: stem_steps,
        cycle,
        deadlock: lasso.deadlock,
        stem_full_len: full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::model::{CheckOptions, CheckSpec, FaultClass, Liveness, Seeds};
    use sno_engine::examples::HopDistance;
    use sno_engine::Network;
    use sno_fleet::WorkerPool;
    use sno_graph::NodeId;

    use sno_engine::examples::hop_distance_legit as hop_legit;

    #[test]
    fn stems_replay_and_minimize() {
        let g = sno_graph::generators::path(4);
        let net = Network::new(g, NodeId::new(0));
        let model = Model::new(
            &net,
            &HopDistance,
            &[FaultClass::Corrupt],
            &CheckOptions::default(),
        )
        .unwrap();
        let spec = CheckSpec {
            protocol: "hop".into(),
            topology: "path:4".into(),
            legit: &hop_legit,
            invariants: Vec::new(),
            closure: true,
            liveness: Liveness::None,
            seeds: Seeds::Legitimate,
            seed_list: None,
            faults: vec![FaultClass::Corrupt],
        };
        let pool = WorkerPool::new(2);
        let r = explore(&model, &spec, &pool, 3);
        // Pick the deepest state and extract its stem.
        let (&deep_key, _) = r
            .seen
            .iter()
            .flat_map(|m| m.iter())
            .max_by_key(|(k, m)| (m.depth, std::cmp::Reverse(**k)))
            .unwrap();
        let cx = counterexample_to_state(&model, &r, deep_key);
        assert!(!cx.stem.is_empty());
        assert!(cx.stem.len() <= cx.stem_full_len);
        assert_eq!(cx.stem[0].kind, "seed");
        // Exactly one corrupt edge can appear (budget 1), and it must
        // survive minimization when the target needs it.
        let corrupts = cx.stem.iter().filter(|s| s.kind == "corrupt").count();
        assert!(corrupts <= 1);
    }

    #[test]
    fn certificate_json_is_stable_shape() {
        let cert = Certificate {
            protocol: "hop".into(),
            topology: "path:2".into(),
            seeds: "all",
            fault_budget: 0,
            faults: Vec::new(),
            worlds: vec![WorldInfo {
                nodes: 2,
                edges: 1,
                configs: 9,
                reachable: 9,
                quotient: 9,
            }],
            states: 9,
            transitions: 12,
            fault_transitions: 0,
            dedup_hits: 3,
            skipped_mappings: 0,
            legitimate: 1,
            diameter: 2,
            frontier: vec![9],
            seen_entries: 9,
            symmetry_enabled: false,
            group_orders: vec![1],
            raw_states: 9,
            properties: vec![PropertyReport {
                name: "closure".into(),
                kind: "safety",
                daemon: "any",
                holds: true,
                counterexample: None,
            }],
        };
        let json = cert.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"sno-check/v1\""));
        assert!(json.contains("\"verdict\": \"pass\""));
        assert!(json.contains(
            "\"symmetry\": {\"enabled\": false, \"group\": [1], \
             \"raw_states\": 9, \"quotient_states\": 9}"
        ));
        assert!(json.ends_with("}\n"));
        assert_eq!(json, cert.to_json(), "rendering is a pure function");
    }
}
