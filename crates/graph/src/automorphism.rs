//! Root-fixing graph automorphisms, for symmetry-reduced model checking.
//!
//! A (port-aware) automorphism of a graph is a node bijection `σ`
//! preserving adjacency; because ports address edges, `σ` also induces a
//! **port map** at every node: port `l` of `u` corresponds to the port
//! of `σ(u)` leading to `σ(neighbor(u, l))`. The model checker quotients
//! its state space by the subgroup *fixing the root* (the paper's
//! distinguished processor `r` breaks full symmetry, so only `σ` with
//! `σ(r) = r` map executions to bisimilar executions).
//!
//! Two ways to obtain the group:
//!
//! * [`family_generators`] — exact closed-form generator sets for the
//!   structured families (path, ring, star, hubs, torus), each candidate
//!   *verified* against the built graph before it is returned, closed
//!   into the full group by [`close_group`];
//! * [`automorphism_group`] — a generic backtracking search with degree
//!   and adjacency refinement, enumerating the full root-fixing group of
//!   an arbitrary graph.
//!
//! Both are exact on their domain and the search is the fallback for
//! everything else; a size cap bounds the work, degrading to the
//! (always sound) trivial group rather than failing.

use crate::{Graph, NodeId, Port};

/// A verified automorphism: the node bijection plus the induced
/// per-node port maps.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Automorphism {
    /// `node[u]` = `σ(u)`.
    node: Vec<u32>,
    /// `ports[u][l]` = the port of `σ(u)` whose edge is the image of
    /// `u`'s port `l` (i.e. it leads to `σ(neighbor(u, l))`).
    ports: Vec<Vec<Port>>,
}

impl Automorphism {
    /// The identity automorphism of `g`.
    pub fn identity(g: &Graph) -> Automorphism {
        Automorphism {
            node: (0..g.node_count() as u32).collect(),
            ports: g
                .nodes()
                .map(|u| (0..g.degree(u)).map(Port::new).collect())
                .collect(),
        }
    }

    /// Verifies that `sigma` is an automorphism of `g` and derives its
    /// port maps; `None` if `sigma` is not a bijection or does not
    /// preserve adjacency.
    pub fn from_nodes(g: &Graph, sigma: &[u32]) -> Option<Automorphism> {
        let n = g.node_count();
        if sigma.len() != n {
            return None;
        }
        let mut hit = vec![false; n];
        for &v in sigma {
            let v = v as usize;
            if v >= n || std::mem::replace(&mut hit[v], true) {
                return None;
            }
        }
        let mut ports = Vec::with_capacity(n);
        for u in g.nodes() {
            let su = NodeId::new(sigma[u.index()] as usize);
            if g.degree(su) != g.degree(u) {
                return None;
            }
            let mut pm = Vec::with_capacity(g.degree(u));
            for &q in g.neighbors(u) {
                let sq = NodeId::new(sigma[q.index()] as usize);
                pm.push(g.port_to(su, sq)?);
            }
            ports.push(pm);
        }
        Some(Automorphism {
            node: sigma.to_vec(),
            ports,
        })
    }

    /// `σ(u)`.
    pub fn node(&self, u: usize) -> u32 {
        self.node[u]
    }

    /// The full node map.
    pub fn node_map(&self) -> &[u32] {
        &self.node
    }

    /// The port map at `u` (`map[l]` = image of port `l` at `σ(u)`).
    pub fn port_map(&self, u: usize) -> &[Port] {
        &self.ports[u]
    }

    /// `true` iff this is the identity.
    pub fn is_identity(&self) -> bool {
        self.node.iter().enumerate().all(|(u, &v)| u as u32 == v)
    }

    /// The composition "`self` after `other`" (apply `other` first).
    pub fn after(&self, other: &Automorphism) -> Automorphism {
        let node: Vec<u32> = other.node.iter().map(|&v| self.node[v as usize]).collect();
        let ports = other
            .ports
            .iter()
            .enumerate()
            .map(|(u, pm)| {
                let mid = other.node[u] as usize;
                pm.iter().map(|&l| self.ports[mid][l.index()]).collect()
            })
            .collect();
        Automorphism { node, ports }
    }

    /// The inverse automorphism.
    pub fn inverse(&self) -> Automorphism {
        let n = self.node.len();
        let mut node = vec![0u32; n];
        for (u, &v) in self.node.iter().enumerate() {
            node[v as usize] = u as u32;
        }
        let mut ports: Vec<Vec<Port>> = self
            .ports
            .iter()
            .map(|pm| vec![Port::new(0); pm.len()])
            .collect();
        for (u, pm) in self.ports.iter().enumerate() {
            let v = self.node[u] as usize;
            for (l, &sl) in pm.iter().enumerate() {
                ports[v][sl.index()] = Port::new(l);
            }
        }
        Automorphism { node, ports }
    }
}

/// Exact closed-form generator candidates for the structured topology
/// families, **verified** against the built graph (a candidate that is
/// not an automorphism of `g`, or does not fix `root`, is silently
/// dropped — so a seeded `hubs` port numbering or an off-family graph
/// degrades to fewer generators, never to an unsound one).
///
/// Families and their root-fixing generators (root `r`):
///
/// * **path** — trivial (the reversal moves the root unless `r` is the
///   midpoint);
/// * **ring** — the reflection through `r`;
/// * **star** — adjacent-leaf transpositions (generating the symmetric
///   group on the leaves, minus the root if it is a leaf);
/// * **hubs** — adjacent hub–hub and spoke–spoke transpositions;
/// * **torus** — the x- and y-reflections through `r`, plus the
///   diagonal transpose when the torus is square.
pub fn family_generators(
    spec: &crate::GeneratorSpec,
    g: &Graph,
    root: NodeId,
) -> Vec<Automorphism> {
    let n = g.node_count();
    let idmap: Vec<u32> = (0..n as u32).collect();
    let mut candidates: Vec<Vec<u32>> = Vec::new();
    let transpose = |a: usize, b: usize, candidates: &mut Vec<Vec<u32>>| {
        let mut s = idmap.clone();
        s.swap(a, b);
        candidates.push(s);
    };
    match spec {
        crate::GeneratorSpec::Path => {
            // Only the reversal is non-trivial; emit it and let
            // verification drop it unless the root is the midpoint.
            candidates.push((0..n as u32).rev().collect());
        }
        crate::GeneratorSpec::Ring => {
            // Reflection through the root: r + k ↦ r − k (mod n).
            let r = root.index();
            candidates.push((0..n).map(|u| ((2 * n + 2 * r - u) % n) as u32).collect());
        }
        crate::GeneratorSpec::Star => {
            // Node 0 is the hub; adjacent leaf transpositions skipping
            // the root generate the full leaf symmetric group.
            for i in 1..n.saturating_sub(1) {
                if NodeId::new(i) != root && NodeId::new(i + 1) != root {
                    transpose(i, i + 1, &mut candidates);
                }
            }
            // Bridge over the root when it is an interior leaf.
            if root.index() >= 2 && root.index() + 1 < n {
                transpose(root.index() - 1, root.index() + 1, &mut candidates);
            }
        }
        crate::GeneratorSpec::Hubs { hubs } => {
            let h = (*hubs as usize).clamp(1, n.saturating_sub(1));
            for i in 0..h.saturating_sub(1) {
                if NodeId::new(i) != root && NodeId::new(i + 1) != root {
                    transpose(i, i + 1, &mut candidates);
                }
            }
            for j in h..n.saturating_sub(1) {
                if NodeId::new(j) != root && NodeId::new(j + 1) != root {
                    transpose(j, j + 1, &mut candidates);
                }
            }
        }
        crate::GeneratorSpec::Torus => {
            // Mirror `generators::torus` via the spec's own dimension
            // choice: as square as possible, w × h = n.
            let (w, h) = torus_dims(n);
            if w * h == n && w >= 3 && h >= 3 {
                let (x0, y0) = (root.index() % w, root.index() / w);
                let xflip = |x: usize, y: usize| (y * w + (2 * w + 2 * x0 - x) % w) as u32;
                let yflip = |x: usize, y: usize| (((2 * h + 2 * y0 - y) % h) * w + x) as u32;
                candidates.push(grid_map(w, h, xflip));
                candidates.push(grid_map(w, h, yflip));
                if w == h {
                    // Transpose about the root: swap the x and y offsets.
                    let diag = |x: usize, y: usize| {
                        (((y0 + w + x - x0) % h) * w + (x0 + h + y - y0) % w) as u32
                    };
                    candidates.push(grid_map(w, h, diag));
                }
            }
        }
        _ => {}
    }
    candidates
        .into_iter()
        .filter_map(|s| {
            (s[root.index()] == root.index() as u32)
                .then(|| Automorphism::from_nodes(g, &s))
                .flatten()
        })
        .collect()
}

/// The torus dimensions `generators::torus`-style callers use for `n`
/// nodes: the most square `w × h = n` factorization with both sides ≥ 3.
pub fn torus_dims(n: usize) -> (usize, usize) {
    let mut best = (n, 1);
    let mut w = 1;
    while w * w <= n {
        if n.is_multiple_of(w) {
            best = (n / w, w);
        }
        w += 1;
    }
    best
}

fn grid_map(w: usize, h: usize, f: impl Fn(usize, usize) -> u32) -> Vec<u32> {
    let mut s = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            s.push(f(x, y));
        }
    }
    s
}

/// Closes `gens` into the full generated group (identity included), or
/// `None` if the group would exceed `cap` elements. Deterministic: the
/// result is sorted by node map.
pub fn close_group(g: &Graph, gens: &[Automorphism], cap: usize) -> Option<Vec<Automorphism>> {
    let mut elems = vec![Automorphism::identity(g)];
    let mut frontier = elems.clone();
    while let Some(e) = frontier.pop() {
        for gen in gens {
            let prod = gen.after(&e);
            if !elems.contains(&prod) {
                if elems.len() >= cap {
                    return None;
                }
                elems.push(prod.clone());
                frontier.push(prod);
            }
        }
    }
    elems.sort();
    Some(elems)
}

/// Enumerates the full root-fixing automorphism group of `g` by
/// backtracking search with degree and adjacency pruning, in
/// deterministic (node-map-sorted) order.
///
/// Exact for every graph whose group fits in `cap` elements; when the
/// group (or the search work) exceeds the cap the function returns the
/// **trivial group** `{identity}` — a sound under-approximation for
/// symmetry reduction, never an unsound over-approximation.
pub fn automorphism_group(g: &Graph, root: NodeId, cap: usize) -> Vec<Automorphism> {
    match search_group(g, root, cap) {
        Some(elems) => elems,
        None => vec![Automorphism::identity(g)],
    }
}

/// The exhaustive search behind [`automorphism_group`]; `None` when the
/// group size or the explored search-tree size exceeds its caps.
pub fn search_group(g: &Graph, root: NodeId, cap: usize) -> Option<Vec<Automorphism>> {
    let n = g.node_count();
    assert!(root.index() < n, "root out of range");
    // Assign images in BFS order from the root: every non-root node is
    // adjacent to an earlier one, so each partial image is constrained
    // to the neighborhood structure already fixed — the refinement that
    // keeps the search tree near the group size. Detached (degree-0)
    // nodes follow at the end.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([root]);
    seen[root.index()] = true;
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in g.neighbors(u) {
            if !std::mem::replace(&mut seen[v.index()], true) {
                queue.push_back(v);
            }
        }
    }
    for u in g.nodes() {
        if !seen[u.index()] {
            order.push(u);
        }
    }

    let mut sigma: Vec<u32> = vec![u32::MAX; n];
    let mut used = vec![false; n];
    sigma[root.index()] = root.index() as u32;
    used[root.index()] = true;
    let mut out: Vec<Vec<u32>> = Vec::new();
    let mut steps: usize = 0;
    let complete = extend(
        g, &order, 1, &mut sigma, &mut used, &mut out, cap, &mut steps,
    );
    if !complete {
        return None;
    }
    let mut elems: Vec<Automorphism> = out
        .iter()
        .map(|s| Automorphism::from_nodes(g, s).expect("search emits verified automorphisms"))
        .collect();
    elems.sort();
    Some(elems)
}

/// Search-tree-size cap: structured families' groups are found in time
/// proportional to their order, so this only trips on adversarial
/// near-symmetric graphs, where the trivial-group fallback is the right
/// trade.
const SEARCH_STEP_CAP: usize = 1_000_000;

#[allow(clippy::too_many_arguments)]
fn extend(
    g: &Graph,
    order: &[NodeId],
    k: usize,
    sigma: &mut Vec<u32>,
    used: &mut Vec<bool>,
    out: &mut Vec<Vec<u32>>,
    cap: usize,
    steps: &mut usize,
) -> bool {
    if k == order.len() {
        if out.len() >= cap {
            return false;
        }
        out.push(sigma.clone());
        return true;
    }
    let u = order[k];
    for v in g.nodes() {
        *steps += 1;
        if *steps > SEARCH_STEP_CAP {
            return false;
        }
        if used[v.index()] || g.degree(v) != g.degree(u) {
            continue;
        }
        // Adjacency must be preserved against every node already
        // mapped: u ~ w ⇔ v ~ σ(w).
        let ok = order[..k].iter().all(|&w| {
            let sw = NodeId::new(sigma[w.index()] as usize);
            g.has_edge(u, w) == g.has_edge(v, sw)
        });
        if !ok {
            continue;
        }
        sigma[u.index()] = v.index() as u32;
        used[v.index()] = true;
        let complete = extend(g, order, k + 1, sigma, used, out, cap, steps);
        sigma[u.index()] = u32::MAX;
        used[v.index()] = false;
        if !complete {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GeneratorSpec;

    fn assert_is_group(elems: &[Automorphism]) {
        assert!(elems.iter().any(|e| e.is_identity()), "identity present");
        for a in elems {
            assert!(elems.contains(&a.inverse()), "closed under inverse");
            for b in elems {
                assert!(elems.contains(&a.after(b)), "closed under composition");
            }
        }
    }

    #[test]
    fn identity_and_port_maps_round_trip() {
        let g = generators::ring(5);
        let id = Automorphism::identity(&g);
        assert!(id.is_identity());
        assert_eq!(id.after(&id), id);
        assert_eq!(id.inverse(), id);
        for u in g.nodes() {
            for l in 0..g.degree(u) {
                assert_eq!(id.port_map(u.index())[l], Port::new(l));
            }
        }
    }

    #[test]
    fn from_nodes_rejects_non_automorphisms() {
        let g = generators::path(4);
        assert!(Automorphism::from_nodes(&g, &[0, 2, 1, 3]).is_none());
        assert!(Automorphism::from_nodes(&g, &[0, 0, 2, 3]).is_none());
        assert!(Automorphism::from_nodes(&g, &[3, 2, 1, 0]).is_some());
    }

    #[test]
    fn port_maps_commute_with_adjacency() {
        // adj[σ(u)][π_u(l)] == σ(adj[u][l]) for a nontrivial element.
        let g = generators::star(5);
        let a = Automorphism::from_nodes(&g, &[0, 2, 1, 3, 4]).unwrap();
        for u in g.nodes() {
            let su = NodeId::new(a.node(u.index()) as usize);
            for l in 0..g.degree(u) {
                let q = g.neighbor(u, Port::new(l));
                let via_ports = g.neighbor(su, a.port_map(u.index())[l]);
                assert_eq!(via_ports.index() as u32, a.node(q.index()));
            }
        }
    }

    #[test]
    fn ring_group_is_the_root_reflection() {
        for n in [3usize, 4, 6, 9] {
            let g = generators::ring(n);
            let elems = automorphism_group(&g, NodeId::new(0), 720);
            assert_eq!(elems.len(), 2, "ring:{n} fixes root: id + reflection");
            assert_is_group(&elems);
            let fam = family_generators(&GeneratorSpec::Ring, &g, NodeId::new(0));
            assert_eq!(close_group(&g, &fam, 720).unwrap(), elems);
        }
    }

    #[test]
    fn star_group_is_leaf_symmetric_group() {
        let g = generators::star(6);
        let elems = automorphism_group(&g, NodeId::new(0), 720);
        assert_eq!(elems.len(), 120, "S_5 on the leaves");
        assert_is_group(&elems);
        let fam = family_generators(&GeneratorSpec::Star, &g, NodeId::new(0));
        assert_eq!(close_group(&g, &fam, 720).unwrap(), elems);
        // Rooted at a leaf: the other 4 leaves still permute.
        let leaf_elems = automorphism_group(&g, NodeId::new(3), 720);
        assert_eq!(leaf_elems.len(), 24);
        let fam = family_generators(&GeneratorSpec::Star, &g, NodeId::new(3));
        assert_eq!(close_group(&g, &fam, 720).unwrap(), leaf_elems);
    }

    #[test]
    fn path_group_is_trivial_off_midpoint() {
        let g = generators::path(5);
        assert_eq!(automorphism_group(&g, NodeId::new(0), 720).len(), 1);
        // The midpoint of an odd path is fixed by the reversal.
        let elems = automorphism_group(&g, NodeId::new(2), 720);
        assert_eq!(elems.len(), 2);
        let fam = family_generators(&GeneratorSpec::Path, &g, NodeId::new(2));
        assert_eq!(close_group(&g, &fam, 720).unwrap(), elems);
        assert!(family_generators(&GeneratorSpec::Path, &g, NodeId::new(0)).is_empty());
    }

    #[test]
    fn hubs_generators_match_search() {
        // Seed 0 keeps hub ports orderly enough that the verified
        // transpositions generate the same group the search finds.
        let g = generators::hubs(6, 2, 0);
        let elems = automorphism_group(&g, NodeId::new(0), 720);
        assert_is_group(&elems);
        // Root is hub 0: the other hub is pinned, spokes permute: S_4.
        assert_eq!(elems.len(), 24);
        let fam = family_generators(&GeneratorSpec::Hubs { hubs: 2 }, &g, NodeId::new(0));
        assert_eq!(close_group(&g, &fam, 720).unwrap(), elems);
    }

    #[test]
    fn torus_generators_match_search() {
        let g = generators::torus(3, 3);
        let elems = automorphism_group(&g, NodeId::new(0), 720);
        assert_is_group(&elems);
        let fam = family_generators(&GeneratorSpec::Torus, &g, NodeId::new(0));
        let closed = close_group(&g, &fam, 720).unwrap();
        // The verified reflections + transpose generate a subgroup of
        // the full root-fixing group (tori also have e.g. glide
        // symmetries); every closed-form element must appear in the
        // searched group.
        assert!(closed.len() >= 8, "x/y flips and transpose: ≥ D4");
        for e in &closed {
            assert!(elems.contains(e));
        }
    }

    #[test]
    fn caps_degrade_to_trivial_group() {
        let g = generators::star(9);
        // S_8 has 40320 elements — over a cap of 100.
        let elems = automorphism_group(&g, NodeId::new(0), 100);
        assert_eq!(elems.len(), 1);
        assert!(elems[0].is_identity());
    }

    #[test]
    fn compose_and_inverse_act_consistently() {
        let g = generators::star(5);
        let elems = automorphism_group(&g, NodeId::new(0), 720);
        for a in &elems {
            assert!(a.after(&a.inverse()).is_identity());
            for b in &elems {
                let ab = a.after(b);
                for u in 0..g.node_count() {
                    assert_eq!(ab.node(u), a.node(b.node(u) as usize));
                }
            }
        }
    }
}
