//! The matcher's view of one model: the extracted species/reaction graph
//! with every node and edge label resolved to its canonical key under a
//! [`MatchSemantics`], plus adjacency lists and a node-key index so the
//! VF2 refiner never touches raw labels or linear scans.

use std::sync::Arc;

use bio_graph::extract::{model_graph, modifier_edge_label, EdgeRole};
use sbml_compose::equality::MatchContext;
use sbml_compose::index::{FastMap, FastSet};
use sbml_compose::ComposeOptions;
use sbml_model::Model;

use crate::semantics::MatchSemantics;

/// One keyed edge of a [`MatchGraph`].
#[derive(Debug, Clone)]
pub(crate) struct EdgeRec {
    pub(crate) from: u32,
    pub(crate) to: u32,
    /// Canonical edge key: the extracted edge label under none/light
    /// semantics, the reaction content key (`mod:`-prefixed for
    /// regulatory edges) under heavy semantics.
    pub(crate) key: Arc<str>,
}

/// The serialisable skeleton of a [`MatchGraph`]: exactly the state that
/// cannot be derived in O(nodes + edges) — canonical node keys (synonym
/// closure is *not* re-run at load), keyed edges, and which model
/// reaction each edge came from. See [`MatchGraph::to_raw`] /
/// [`MatchGraph::from_raw`].
#[derive(Debug, Clone, Default)]
pub struct RawGraph {
    /// Canonical node key per node (node `i` is `model.species[i]`).
    pub node_keys: Vec<Arc<str>>,
    /// Edges as `(from, to, canonical key)` in extraction order.
    pub edges: Vec<(u32, u32, Arc<str>)>,
    /// Edge `e` came from `model.reactions[edge_reaction[e]]`.
    pub edge_reaction: Vec<usize>,
}

/// A model's graph prepared for matching; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct MatchGraph {
    /// Canonical node key per node.
    node_keys: Vec<Arc<str>>,
    edges: Vec<EdgeRec>,
    /// Out-adjacency: node → `(neighbour, edge index)` in edge order.
    out: Vec<Vec<(u32, u32)>>,
    /// In-adjacency: node → `(neighbour, edge index)` in edge order.
    inc: Vec<Vec<(u32, u32)>>,
    /// Node key → nodes carrying it, ascending.
    by_key: FastMap<Arc<str>, Vec<u32>>,
    /// Distinct edge keys present.
    edge_key_set: FastSet<Arc<str>>,
    /// Edge `e` came from `model.reactions[edge_reaction[e]]`. (Node `i`
    /// *is* `model.species[i]` — see [`bio_graph::extract::ModelGraph`].)
    edge_reaction: Vec<usize>,
}

impl MatchGraph {
    /// Build the match graph of `model` under `semantics`. For heavy
    /// semantics, `reaction_keys` supplies the canonical reaction content
    /// keys positional with `model.reactions` (a prepared corpus model
    /// passes its cached [`sbml_compose::PreparedModel::reaction_content_keys`];
    /// pass `None` to derive them fresh under `options` — the query side).
    pub fn build(
        model: &Model,
        semantics: &MatchSemantics,
        options: &ComposeOptions,
        reaction_keys: Option<&[Arc<str>]>,
    ) -> MatchGraph {
        let mg = model_graph(model);
        let n = mg.graph.node_count();

        let mut node_keys = Vec::with_capacity(n);
        let mut by_key: FastMap<Arc<str>, Vec<u32>> = FastMap::default();
        for id in mg.graph.node_ids() {
            let key = semantics.node_key_shared(mg.graph.node_label(id));
            by_key.entry(Arc::clone(&key)).or_default().push(id.0);
            node_keys.push(key);
        }

        // Heavy semantics: resolve each edge to its reaction's content
        // key, computed once per reaction (and once more `mod:`-prefixed
        // if the reaction also has regulatory edges).
        let content_keys: Option<Vec<Arc<str>>> = semantics.content_key_edges().then(|| {
            match reaction_keys {
                Some(keys) => {
                    assert_eq!(
                        keys.len(),
                        model.reactions.len(),
                        "reaction keys must be positional with model.reactions"
                    );
                    keys.to_vec()
                }
                None => {
                    let ctx = MatchContext::new(options);
                    model
                        .reactions
                        .iter()
                        .map(|r| Arc::from(ctx.reaction_key(r, false).as_str()))
                        .collect()
                }
            }
        });
        let mut mod_keys: FastMap<usize, Arc<str>> = FastMap::default();

        let mut edges = Vec::with_capacity(mg.graph.edge_count());
        let mut out: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut inc: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut edge_key_set: FastSet<Arc<str>> = FastSet::default();
        for (e, id) in mg.graph.edge_ids().enumerate() {
            let (from, to, label) = mg.graph.edge(id);
            let ri = mg.edge_reaction[e];
            let key: Arc<str> = match &content_keys {
                None => Arc::from(label),
                Some(keys) => match mg.edge_role[e] {
                    EdgeRole::Conversion => Arc::clone(&keys[ri]),
                    EdgeRole::Regulation => Arc::clone(
                        mod_keys
                            .entry(ri)
                            .or_insert_with(|| Arc::from(modifier_edge_label(&keys[ri]).as_str())),
                    ),
                },
            };
            edge_key_set.insert(Arc::clone(&key));
            out[from.0 as usize].push((to.0, e as u32));
            inc[to.0 as usize].push((from.0, e as u32));
            edges.push(EdgeRec { from: from.0, to: to.0, key });
        }

        MatchGraph {
            node_keys,
            edges,
            out,
            inc,
            by_key,
            edge_key_set,
            edge_reaction: mg.edge_reaction,
        }
    }

    /// Decompose into the serialisable skeleton: node keys, edges (with
    /// their canonical keys) and the edge→reaction map. Adjacency lists,
    /// the node-key index and the edge-key set are all derivable in
    /// O(nodes + edges) and are therefore *not* part of the skeleton —
    /// [`MatchGraph::from_raw`] rebuilds them.
    pub fn to_raw(&self) -> RawGraph {
        RawGraph {
            node_keys: self.node_keys.clone(),
            edges: self.edges.iter().map(|e| (e.from, e.to, Arc::clone(&e.key))).collect(),
            edge_reaction: self.edge_reaction.clone(),
        }
    }

    /// Check a skeleton's structural claims — length agreement and edge
    /// endpoints in range — without building anything. A skeleton that
    /// passes can be handed to [`MatchGraph::from_validated`] later (the
    /// snapshot load path validates everything up front, then defers the
    /// actual build until a query touches the graph). Violations are
    /// reported as errors, never panics — the input may come from a
    /// corrupt snapshot.
    pub fn validate_raw(raw: &RawGraph) -> Result<(), String> {
        let n = raw.node_keys.len();
        if raw.edge_reaction.len() != raw.edges.len() {
            return Err(format!(
                "match graph skeleton inconsistent: {} edges but {} edge-reaction entries",
                raw.edges.len(),
                raw.edge_reaction.len()
            ));
        }
        for (e, (from, to, _)) in raw.edges.iter().enumerate() {
            if *from as usize >= n || *to as usize >= n {
                return Err(format!(
                    "match graph skeleton inconsistent: edge {e} connects {from}->{to} \
                     but the graph has {n} nodes"
                ));
            }
        }
        Ok(())
    }

    /// Rebuild a graph from a skeleton that [`MatchGraph::validate_raw`]
    /// has accepted, deriving adjacency, the node-key index and the
    /// edge-key set. Infallible and panic-free: an out-of-range endpoint
    /// (impossible for validated input) drops that edge instead of
    /// indexing out of bounds.
    pub fn from_validated(raw: RawGraph) -> MatchGraph {
        let n = raw.node_keys.len();
        let mut by_key: FastMap<Arc<str>, Vec<u32>> = FastMap::default();
        for (i, key) in raw.node_keys.iter().enumerate() {
            by_key.entry(Arc::clone(key)).or_default().push(i as u32);
        }
        // Degrees are counted first so the adjacency vectors allocate
        // exactly once.
        let mut out_deg = vec![0u32; n];
        let mut in_deg = vec![0u32; n];
        for (from, to, _) in &raw.edges {
            if (*from as usize) < n && (*to as usize) < n {
                out_deg[*from as usize] += 1;
                in_deg[*to as usize] += 1;
            }
        }
        let mut edges = Vec::with_capacity(raw.edges.len());
        let mut out: Vec<Vec<(u32, u32)>> =
            out_deg.iter().map(|&d| Vec::with_capacity(d as usize)).collect();
        let mut inc: Vec<Vec<(u32, u32)>> =
            in_deg.iter().map(|&d| Vec::with_capacity(d as usize)).collect();
        let mut edge_key_set: FastSet<Arc<str>> = FastSet::default();
        for (e, (from, to, key)) in raw.edges.into_iter().enumerate() {
            if from as usize >= n || to as usize >= n {
                continue;
            }
            edge_key_set.insert(Arc::clone(&key));
            out[from as usize].push((to, e as u32));
            inc[to as usize].push((from, e as u32));
            edges.push(EdgeRec { from, to, key });
        }
        MatchGraph {
            node_keys: raw.node_keys,
            edges,
            out,
            inc,
            by_key,
            edge_key_set,
            edge_reaction: raw.edge_reaction,
        }
    }

    /// Validate a skeleton and rebuild the graph in one step.
    ///
    /// # Errors
    /// Whatever [`MatchGraph::validate_raw`] rejects.
    pub fn from_raw(raw: RawGraph) -> Result<MatchGraph, String> {
        MatchGraph::validate_raw(&raw)?;
        Ok(MatchGraph::from_validated(raw))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_keys.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Canonical key of node `n`.
    pub(crate) fn node_key(&self, n: u32) -> &Arc<str> {
        &self.node_keys[n as usize]
    }

    pub(crate) fn edge(&self, e: u32) -> &EdgeRec {
        &self.edges[e as usize]
    }

    pub(crate) fn out_edges(&self, n: u32) -> &[(u32, u32)] {
        &self.out[n as usize]
    }

    pub(crate) fn in_edges(&self, n: u32) -> &[(u32, u32)] {
        &self.inc[n as usize]
    }

    /// Nodes carrying `key`, ascending (empty if the key is absent).
    pub(crate) fn nodes_with_key(&self, key: &str) -> &[u32] {
        self.by_key.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Distinct node keys with the nodes carrying each, ascending.
    pub(crate) fn node_key_groups(&self) -> impl Iterator<Item = (&Arc<str>, &[u32])> {
        self.by_key.iter().map(|(k, nodes)| (k, nodes.as_slice()))
    }

    /// Distinct edge keys present.
    pub(crate) fn edge_keys(&self) -> impl Iterator<Item = &Arc<str>> {
        self.edge_key_set.iter()
    }

    /// Is `key` the key of at least one edge?
    pub(crate) fn has_edge_key(&self, key: &str) -> bool {
        self.edge_key_set.contains(key)
    }

    /// The model reaction index edge `e` came from.
    pub(crate) fn reaction_of(&self, e: u32) -> usize {
        self.edge_reaction[e as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_model::builder::ModelBuilder;

    fn two_step() -> Model {
        ModelBuilder::new("m")
            .compartment("cell", 1.0)
            .species_named("glc", "glucose", 1.0)
            .species("G6P", 0.0)
            .species("F6P", 0.0)
            .parameter("k1", 0.4)
            .parameter("k2", 0.3)
            .reaction("hex", &["glc"], &["G6P"], "k1*glc")
            .reaction("iso", &["G6P"], &["F6P"], "k2*G6P")
            .build()
    }

    #[test]
    fn light_graph_uses_label_keys() {
        let m = two_step();
        let options = ComposeOptions::light();
        let g = MatchGraph::build(&m, &MatchSemantics::from_options(&options), &options, None);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        // "glucose" display name canonicalises; dextrose finds the same node.
        assert_eq!(g.nodes_with_key("glucose"), &[0]);
        assert!(g.has_edge_key("hex"));
        assert!(!g.has_edge_key("rxn-key"));
        assert_eq!(g.reaction_of(0), 0);
    }

    #[test]
    fn heavy_graph_uses_reaction_content_keys() {
        let m = two_step();
        let options = ComposeOptions::heavy();
        let g = MatchGraph::build(&m, &MatchSemantics::from_options(&options), &options, None);
        let ctx = MatchContext::new(&options);
        let key = ctx.reaction_key(&m.reactions[0], false);
        assert!(g.has_edge_key(&key), "heavy edges carry reaction content keys");
        assert!(!g.has_edge_key("hex"), "raw reaction ids are not heavy edge keys");
        // Supplying prepared keys gives the identical graph.
        let p = sbml_compose::PreparedModel::new(&m, &options);
        let g2 = MatchGraph::build(
            &m,
            &MatchSemantics::from_options(&options),
            &options,
            Some(p.reaction_content_keys()),
        );
        assert_eq!(g2.edge(0).key, g.edge(0).key);
    }

    #[test]
    fn raw_round_trip_rebuilds_derived_state() {
        let m = two_step();
        for options in
            [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
        {
            let g = MatchGraph::build(&m, &MatchSemantics::from_options(&options), &options, None);
            let r = MatchGraph::from_raw(g.to_raw()).expect("skeleton is consistent");
            assert_eq!(r.node_count(), g.node_count());
            assert_eq!(r.edge_count(), g.edge_count());
            for n in 0..g.node_count() as u32 {
                assert_eq!(r.node_key(n), g.node_key(n));
                assert_eq!(r.out_edges(n), g.out_edges(n));
                assert_eq!(r.in_edges(n), g.in_edges(n));
                assert_eq!(r.nodes_with_key(g.node_key(n)), g.nodes_with_key(g.node_key(n)));
            }
            for e in 0..g.edge_count() as u32 {
                assert_eq!(r.edge(e).key, g.edge(e).key);
                assert_eq!(r.reaction_of(e), g.reaction_of(e));
            }
            assert_eq!(r.edge_keys().count(), g.edge_keys().count());
        }
    }

    #[test]
    fn inconsistent_raw_graph_is_rejected() {
        let m = two_step();
        let options = ComposeOptions::none();
        let g = MatchGraph::build(&m, &MatchSemantics::from_options(&options), &options, None);
        let mut raw = g.to_raw();
        raw.edges[0].0 = 99; // endpoint out of range
        assert!(MatchGraph::from_raw(raw).is_err());
        let mut raw = g.to_raw();
        raw.edge_reaction.pop();
        assert!(MatchGraph::from_raw(raw).is_err());
    }

    #[test]
    fn adjacency_is_directional() {
        let m = two_step();
        let options = ComposeOptions::none();
        let g = MatchGraph::build(&m, &MatchSemantics::from_options(&options), &options, None);
        // none semantics: node keys are raw labels.
        assert_eq!(g.nodes_with_key("glucose"), &[0]);
        assert_eq!(g.out_edges(0), &[(1, 0)]);
        assert_eq!(g.in_edges(0), &[]);
        assert_eq!(g.in_edges(1), &[(0, 0)]);
        assert_eq!(g.node_key(1).as_ref(), "G6P");
        assert_eq!(g.node_key_groups().count(), 3);
        assert_eq!(g.edge_keys().count(), 2);
    }
}
