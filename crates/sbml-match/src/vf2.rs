//! VF2-style subgraph monomorphism search over [`MatchGraph`]s.
//!
//! An **embedding** of a query graph `Q` into a target graph `G` is an
//! injective node map `m` such that every query node is key-compatible
//! with its image and every query edge `(u, v, k)` has *some* target edge
//! `(m(u), m(v), k')` with `k = k'` (a multigraph may satisfy several
//! parallel query edges with one target edge — "the query network occurs
//! in the model", not an induced or edge-injective isomorphism).
//!
//! The search follows the VF2 discipline: grow a partial map one query
//! node at a time in a connectivity-first order, generate candidates from
//! the already-mapped neighbourhood (falling back to the target's
//! node-key index for the first node of each component), and backtrack on
//! the first infeasibility. Two cheap whole-graph rejections run first —
//! the pigeonhole test (each node key needs at least as many carriers in
//! the target as in the query) and the edge-key test (every query edge
//! key must occur in the target at all).
//!
//! The search is deterministic (candidates ascend by target node id) and
//! bounded by a step `budget`; an exhausted budget reports
//! [`SearchOutcome::BudgetExhausted`] rather than looping on adversarial
//! self-similar graphs. [`find_embedding_limited`] additionally accepts a
//! wall-clock deadline ([`SearchLimits`]), checked every
//! [`DEADLINE_CHECK_INTERVAL`] steps, which exhausts the search the same
//! way — the outcome vocabulary stays the same, only the cause differs.
//!
//! # Forced embeddings
//!
//! When every query node's key has exactly one carrier in the target, at
//! most one key-compatible injective node map exists: each query node
//! goes to its key's sole carrier (distinct keys have distinct carriers,
//! so the map is injective). The embedding, if any, is that *forced*
//! map, and VF2 — a complete search — returns it or reports
//! [`SearchOutcome::NotFound`]. [`find_embedding_limited`] therefore
//! **certifies** the forced map instead of searching for it: after the
//! pigeonhole and edge-key tests it checks every query edge against the
//! map in one pass and answers `Found(map)` or `NotFound`, exactly VF2's
//! answer.
//!
//! The answers must also agree on exhaustion, so certification stands in
//! for VF2 only where VF2 provably finishes within its limits. With keys
//! forced, every candidate but the forced image fails the key test, so
//! VF2 walks the one forced path and tries, per query node, at most the
//! candidates of that node: one from the key index when no neighbour is
//! mapped yet, else the adjacency of a mapped neighbour's image. The sum
//! over query nodes of `max(1, largest such adjacency)` bounds VF2's
//! steps. Certification runs only when that bound is within the step
//! budget and, under a deadline, below [`DEADLINE_CHECK_INTERVAL`] — VF2
//! would then read the clock once, at its first step, and the certifier
//! reads it at the same point: a deadline already passed yields
//! [`SearchOutcome::BudgetExhausted`]. Every other case — an ambiguous
//! key, a bound over the limits — runs VF2.

use std::time::Instant;

use crate::graph::MatchGraph;

/// Result of one embedding search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchOutcome {
    /// An embedding exists; `mapping[q]` is the target node of query
    /// node `q`.
    Found(Vec<u32>),
    /// No embedding exists.
    NotFound,
    /// The step budget (or the wall-clock deadline of
    /// [`SearchLimits`]) ran out before the search space was exhausted.
    BudgetExhausted,
}

/// Steps between wall-clock checks in a deadline-bounded search: rare
/// enough that `Instant::now()` never shows up in profiles, frequent
/// enough to bound overrun to microseconds of feasibility work.
pub const DEADLINE_CHECK_INTERVAL: u64 = 1024;

/// Resource limits for one embedding search.
#[derive(Debug, Clone, Copy)]
pub struct SearchLimits {
    /// Feasibility-step budget (as in [`find_embedding`]).
    pub budget: u64,
    /// Optional absolute wall-clock cutoff.
    pub deadline: Option<Instant>,
}

impl SearchOutcome {
    /// The mapping, if an embedding was found.
    pub fn mapping(&self) -> Option<&[u32]> {
        match self {
            SearchOutcome::Found(m) => Some(m),
            _ => None,
        }
    }
}

/// Search order: start each connected component at its node with the
/// fewest target candidates, then grow connectivity-first (most mapped
/// neighbours first; ties by fewer target candidates, then by node id).
fn search_order(query: &MatchGraph, target: &MatchGraph) -> Vec<u32> {
    let n = query.node_count();
    let mut ordered: Vec<u32> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let candidates = |q: u32| target.nodes_with_key(query.node_key(q)).len();
    while ordered.len() < n {
        // Mapped-neighbour counts of every unplaced node.
        let mut best: Option<(usize, usize, u32)> = None; // (-connectivity, candidates, id)
        for q in 0..n as u32 {
            if placed[q as usize] {
                continue;
            }
            let connectivity = query
                .out_edges(q)
                .iter()
                .chain(query.in_edges(q))
                .filter(|(nbr, _)| placed[*nbr as usize])
                .count();
            let score = (usize::MAX - connectivity, candidates(q), q);
            if best.map_or(true, |b| score < b) {
                best = Some(score);
            }
        }
        let (_, _, q) = best.expect("unplaced node exists");
        placed[q as usize] = true;
        ordered.push(q);
    }
    ordered
}

struct Search<'a> {
    query: &'a MatchGraph,
    target: &'a MatchGraph,
    order: &'a [u32],
    /// query node → target node (u32::MAX = unmapped).
    mapping: Vec<u32>,
    used: Vec<bool>,
    budget: u64,
    deadline: Option<Instant>,
    /// Steps until the next deadline check.
    until_check: u64,
}

const UNMAPPED: u32 = u32::MAX;

impl Search<'_> {
    /// Is mapping `qn → tn` consistent with the partial map?
    fn feasible(&mut self, qn: u32, tn: u32) -> bool {
        if self.used[tn as usize] || self.query.node_key(qn) != self.target.node_key(tn) {
            return false;
        }
        // Every query edge between qn and an already-mapped node (or qn
        // itself — a self-loop) needs a key-equal target edge between the
        // images.
        for &(nbr, e) in self.query.out_edges(qn) {
            let t_nbr = if nbr == qn { tn } else { self.mapping[nbr as usize] };
            if t_nbr == UNMAPPED {
                continue;
            }
            let key = &self.query.edge(e).key;
            if !self
                .target
                .out_edges(tn)
                .iter()
                .any(|&(t2, te)| t2 == t_nbr && &self.target.edge(te).key == key)
            {
                return false;
            }
        }
        for &(nbr, e) in self.query.in_edges(qn) {
            if nbr == qn {
                continue; // self-loop already checked from the out side
            }
            let t_nbr = self.mapping[nbr as usize];
            if t_nbr == UNMAPPED {
                continue;
            }
            let key = &self.query.edge(e).key;
            if !self
                .target
                .in_edges(tn)
                .iter()
                .any(|&(t2, te)| t2 == t_nbr && &self.target.edge(te).key == key)
            {
                return false;
            }
        }
        true
    }

    /// Candidate target nodes for query node `qn`, ascending: the
    /// key-compatible neighbourhood of a mapped query neighbour when one
    /// exists (the smallest such adjacency list), the node-key index
    /// otherwise.
    fn candidates(&self, qn: u32) -> Vec<u32> {
        let mut anchored: Option<Vec<u32>> = None;
        for &(nbr, _) in self.query.out_edges(qn) {
            if nbr == qn || self.mapping[nbr as usize] == UNMAPPED {
                continue;
            }
            let from_t = self.target.in_edges(self.mapping[nbr as usize]);
            if anchored.as_ref().map_or(true, |a| from_t.len() < a.len()) {
                anchored = Some(from_t.iter().map(|&(n, _)| n).collect());
            }
        }
        for &(nbr, _) in self.query.in_edges(qn) {
            if nbr == qn || self.mapping[nbr as usize] == UNMAPPED {
                continue;
            }
            let from_t = self.target.out_edges(self.mapping[nbr as usize]);
            if anchored.as_ref().map_or(true, |a| from_t.len() < a.len()) {
                anchored = Some(from_t.iter().map(|&(n, _)| n).collect());
            }
        }
        let mut cands = match anchored {
            Some(c) => c,
            None => self.target.nodes_with_key(self.query.node_key(qn)).to_vec(),
        };
        cands.sort_unstable();
        cands.dedup();
        cands
    }

    /// Extend the partial map at `depth`; `Ok(true)` = embedding
    /// completed, `Err(())` = budget exhausted.
    fn extend(&mut self, depth: usize) -> Result<bool, ()> {
        if depth == self.order.len() {
            return Ok(true);
        }
        let qn = self.order[depth];
        for tn in self.candidates(qn) {
            if self.budget == 0 {
                return Err(());
            }
            self.budget -= 1;
            if let Some(deadline) = self.deadline {
                self.until_check = self.until_check.saturating_sub(1);
                if self.until_check == 0 {
                    if Instant::now() >= deadline {
                        return Err(());
                    }
                    self.until_check = DEADLINE_CHECK_INTERVAL;
                }
            }
            if !self.feasible(qn, tn) {
                continue;
            }
            self.mapping[qn as usize] = tn;
            self.used[tn as usize] = true;
            let done = self.extend(depth + 1)?;
            if done {
                return Ok(true);
            }
            self.mapping[qn as usize] = UNMAPPED;
            self.used[tn as usize] = false;
        }
        Ok(false)
    }
}

/// Search for an embedding of `query` in `target` within `budget`
/// feasibility steps; see the [module docs](self).
pub fn find_embedding(query: &MatchGraph, target: &MatchGraph, budget: u64) -> SearchOutcome {
    find_embedding_limited(query, target, SearchLimits { budget, deadline: None })
}

/// [`find_embedding`] under full [`SearchLimits`]: a step budget plus an
/// optional wall-clock deadline. A passed deadline reports
/// [`SearchOutcome::BudgetExhausted`], exactly like an exhausted step
/// budget — callers degrade the same way for both.
pub fn find_embedding_limited(
    query: &MatchGraph,
    target: &MatchGraph,
    limits: SearchLimits,
) -> SearchOutcome {
    match screen(query, target) {
        Screen::Empty => SearchOutcome::Found(Vec::new()),
        Screen::Rejected => SearchOutcome::NotFound,
        Screen::Forced(forced) => certify(query, target, forced, limits)
            .unwrap_or_else(|| search(query, target, limits)),
        Screen::Open => search(query, target, limits),
    }
}

/// What the whole-graph tests leave to decide.
enum Screen {
    /// The query has no nodes: it embeds anywhere.
    Empty,
    /// The pigeonhole or edge-key test failed: no embedding exists.
    Rejected,
    /// Every query node's key has exactly one carrier in the target;
    /// here is the forced map (see the [module docs](self)).
    Forced(Vec<u32>),
    /// Some key is ambiguous: only a search decides.
    Open,
}

/// The whole-graph tests that run before any search: the pigeonhole
/// test (each node key needs at least as many carriers in the target as
/// in the query — the node map is injective) and the edge-key test
/// (every query edge key occurs in the target), plus, in the same pass
/// over the query's node keys, the forced map when no key is ambiguous.
fn screen(query: &MatchGraph, target: &MatchGraph) -> Screen {
    if query.node_count() == 0 {
        return Screen::Empty;
    }
    let mut forced = Some(vec![UNMAPPED; query.node_count()]);
    for (key, nodes) in query.node_key_groups() {
        let carriers = target.nodes_with_key(key);
        if carriers.len() < nodes.len() {
            return Screen::Rejected;
        }
        match (&mut forced, nodes, carriers) {
            (Some(mapping), &[q], &[t]) => mapping[q as usize] = t,
            _ => forced = None,
        }
    }
    for key in query.edge_keys() {
        if !target.has_edge_key(key) {
            return Screen::Rejected;
        }
    }
    match forced {
        Some(mapping) => Screen::Forced(mapping),
        None => Screen::Open,
    }
}

/// Decide a forced map without searching — VF2's exact answer, or
/// `None` when VF2 might hit `limits` first (see the
/// [module docs](self)).
fn certify(
    query: &MatchGraph,
    target: &MatchGraph,
    forced: Vec<u32>,
    limits: SearchLimits,
) -> Option<SearchOutcome> {
    let bound = step_bound(query, target, &forced);
    if bound > limits.budget {
        return None;
    }
    if let Some(deadline) = limits.deadline {
        if bound >= DEADLINE_CHECK_INTERVAL {
            return None;
        }
        if Instant::now() >= deadline {
            return Some(SearchOutcome::BudgetExhausted);
        }
    }
    // Every query edge needs a key-equal target edge between the images
    // (a self-loop included: both ends map to the same node).
    for q in 0..query.node_count() as u32 {
        let tq = forced[q as usize];
        for &(nbr, e) in query.out_edges(q) {
            let (t_nbr, key) = (forced[nbr as usize], &query.edge(e).key);
            if !target
                .out_edges(tq)
                .iter()
                .any(|&(t2, te)| t2 == t_nbr && &target.edge(te).key == key)
            {
                return Some(SearchOutcome::NotFound);
            }
        }
    }
    Some(SearchOutcome::Found(forced))
}

/// Upper bound on the steps VF2 takes over a forced map: per query node,
/// the most candidates it can be offered — one from the key index, or
/// the adjacency of a neighbour's image (out-neighbours offer the
/// image's in-adjacency, in-neighbours its out-adjacency).
fn step_bound(query: &MatchGraph, target: &MatchGraph, forced: &[u32]) -> u64 {
    (0..query.node_count() as u32)
        .map(|q| {
            let offered_out = query
                .out_edges(q)
                .iter()
                .filter(|&&(nbr, _)| nbr != q)
                .map(|&(nbr, _)| target.in_edges(forced[nbr as usize]).len());
            let offered_in = query
                .in_edges(q)
                .iter()
                .filter(|&&(nbr, _)| nbr != q)
                .map(|&(nbr, _)| target.out_edges(forced[nbr as usize]).len());
            offered_out.chain(offered_in).fold(1, usize::max) as u64
        })
        .sum()
}

/// The VF2 search proper, for a query that passed [`screen`].
fn search(query: &MatchGraph, target: &MatchGraph, limits: SearchLimits) -> SearchOutcome {
    let SearchLimits { budget, deadline } = limits;
    let order = search_order(query, target);
    let mut search = Search {
        query,
        target,
        order: &order,
        mapping: vec![UNMAPPED; query.node_count()],
        used: vec![false; target.node_count()],
        budget,
        deadline,
        // First check on the first step: an already-passed deadline must
        // cut the search off promptly, not after one full interval.
        until_check: 1,
    };
    match search.extend(0) {
        Err(()) => SearchOutcome::BudgetExhausted,
        Ok(true) => SearchOutcome::Found(search.mapping),
        Ok(false) => SearchOutcome::NotFound,
    }
}

#[cfg(test)]
mod certified_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::MatchSemantics;
    use sbml_compose::ComposeOptions;
    use sbml_model::builder::ModelBuilder;
    use sbml_model::Model;

    fn graph(m: &Model, options: &ComposeOptions) -> MatchGraph {
        MatchGraph::build(m, &MatchSemantics::from_options(options), options, None)
    }

    fn chain(id: &str, names: &[&str]) -> Model {
        let mut b = ModelBuilder::new(id).compartment("cell", 1.0);
        for n in names {
            b = b.species(n, 1.0);
        }
        b = b.parameter("k", 1.0);
        for w in names.windows(2) {
            b = b.reaction(
                &format!("r_{}_{}", w[0], w[1]),
                &[w[0]],
                &[w[1]],
                &format!("k*{}", w[0]),
            );
        }
        b.build()
    }

    #[test]
    fn model_embeds_in_itself() {
        for options in [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
        {
            let m = chain("self", &["A", "B", "C"]);
            let g = graph(&m, &options);
            let found = find_embedding(&g, &g, 10_000);
            let mapping = found.mapping().expect("self-embedding must exist");
            assert_eq!(mapping, &[0, 1, 2], "distinct keys force the identity");
        }
    }

    #[test]
    fn fragment_embeds_in_superchain() {
        let options = ComposeOptions::none();
        let host = chain("host", &["A", "B", "C", "D"]);
        let frag = chain("frag", &["B", "C"]);
        let (hg, fg) = (graph(&host, &options), graph(&frag, &options));
        let mapping = find_embedding(&fg, &hg, 10_000).mapping().unwrap().to_vec();
        assert_eq!(mapping, vec![1, 2]);
        // The reverse direction cannot embed: the host has nodes the
        // fragment lacks.
        assert_eq!(find_embedding(&hg, &fg, 10_000), SearchOutcome::NotFound);
    }

    #[test]
    fn edge_labels_gate_matching() {
        let options = ComposeOptions::none();
        let host = chain("host", &["A", "B"]);
        // Same species, different reaction id: under none-semantics the
        // edge labels differ, so no embedding.
        let mut other = chain("other", &["A", "B"]);
        other.reactions[0].id = "different".into();
        let (hg, og) = (graph(&host, &options), graph(&other, &options));
        assert_eq!(find_embedding(&og, &hg, 10_000), SearchOutcome::NotFound);
        // Heavy semantics compares content keys — identical kinetics and
        // participants match regardless of the reaction id.
        let heavy = ComposeOptions::heavy();
        let (hg, og) = (graph(&host, &heavy), graph(&other, &heavy));
        assert!(find_embedding(&og, &hg, 10_000).mapping().is_some());
    }

    #[test]
    fn empty_query_embeds_anywhere() {
        let options = ComposeOptions::none();
        let host = chain("host", &["A"]);
        let empty = Model::new("empty");
        let (hg, eg) = (graph(&host, &options), graph(&empty, &options));
        assert_eq!(find_embedding(&eg, &hg, 10), SearchOutcome::Found(Vec::new()));
    }

    #[test]
    fn pigeonhole_rejects_duplicate_keys_fast() {
        let options = ComposeOptions::light();
        // Two query species normalise to the same key; the target carries
        // only one node with it.
        let query = ModelBuilder::new("q")
            .compartment("cell", 1.0)
            .species_named("a", "glucose", 1.0)
            .species_named("b", "dextrose", 1.0)
            .build();
        let target = ModelBuilder::new("t")
            .compartment("cell", 1.0)
            .species_named("x", "Glucose", 1.0)
            .build();
        let (qg, tg) = (graph(&query, &options), graph(&target, &options));
        assert_eq!(find_embedding(&qg, &tg, 10_000), SearchOutcome::NotFound);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let options = ComposeOptions::none();
        let m = chain("m", &["A", "B", "C", "D", "E"]);
        let g = graph(&m, &options);
        assert_eq!(find_embedding(&g, &g, 1), SearchOutcome::BudgetExhausted);
    }

    #[test]
    fn passed_deadline_exhausts_the_search() {
        let options = ComposeOptions::none();
        let m = chain("m", &["A", "B", "C", "D", "E"]);
        let g = graph(&m, &options);
        let limits = SearchLimits { budget: u64::MAX, deadline: Some(Instant::now()) };
        assert_eq!(find_embedding_limited(&g, &g, limits), SearchOutcome::BudgetExhausted);
        // No deadline: same limits type, normal completion.
        let open = SearchLimits { budget: 10_000, deadline: None };
        assert!(find_embedding_limited(&g, &g, open).mapping().is_some());
    }
}
