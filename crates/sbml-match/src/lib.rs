//! **sbml-match** — biochemical network *matching*: find where a query
//! subnetwork occurs inside a model, and which models of a corpus contain
//! it.
//!
//! The source paper is titled *"Biochemical network matching and
//! composition"*; the sibling crate [`sbml_compose`] reproduces the
//! composition half, and this crate completes the matching half at the
//! subnetwork level (motivated by Holme et al.'s subnetwork hierarchies:
//! pathways recur as fragments of larger models, not as whole-model
//! identities). It answers two questions:
//!
//! * **embedding** — does the query network occur in *this* model, and
//!   under which concrete species/reaction mapping? ([`MatchIndex::query_model`],
//!   the VF2-style refiner in [`vf2`])
//! * **corpus search** — which models of a prepared corpus contain the
//!   query, ranked approximately when none does?
//!   ([`MatchIndex::query_corpus`])
//!
//! Matching runs over the same artefacts composition already maintains: a
//! corpus of [`sbml_compose::PreparedModel`]s (their cached canonical
//! content keys become the index postings) and the
//! [`bio_graph::extract::model_graph`] species/reaction graph (modifier
//! edges included, so regulatory structure participates). Semantics are
//! pluggable ([`MatchSemantics`]): exact labels, synonym-closed labels
//! ([`bio_synonyms`]), or heavy content-key equality reusing the compose
//! engine's reaction keys. The data flow is
//! **candidate generation → VF2 refinement → ranking**; see the
//! [`index`] module docs for the posting-list layout.
//!
//! The index is *mutable in place* — [`MatchIndex::insert`] appends one
//! model's postings without a rebuild, [`MatchIndex::remove`] tombstones
//! a model behind a deletion bitmap (compacted once the tombstone
//! fraction crosses [`MatchIndex::with_compaction_threshold`]) — and
//! *sharded*: [`MatchIndex::with_shards`] partitions the posting lists
//! into [`IndexShard`]s whose candidate generation and refinement fan
//! out shard-per-worker and merge by a rank-stable gather. Both are
//! answer-preserving: a mutated or sharded index is property-tested to
//! answer every query identically to a fresh single-shard build over the
//! same live models.
//!
//! # Querying a corpus
//!
//! ```
//! use sbml_compose::{BatchComposer, ComposeOptions, Composer};
//! use sbml_match::MatchIndex;
//! use sbml_model::builder::ModelBuilder;
//!
//! // A two-model corpus: upper glycolysis and a TCA fragment.
//! let glycolysis = ModelBuilder::new("glycolysis")
//!     .compartment("cell", 1.0)
//!     .species_named("glc", "glucose", 5.0)
//!     .species("G6P", 0.0)
//!     .species("F6P", 0.0)
//!     .parameter("k1", 0.4)
//!     .parameter("k2", 0.3)
//!     .reaction("hexokinase", &["glc"], &["G6P"], "k1*glc")
//!     .reaction("isomerase", &["G6P"], &["F6P"], "k2*G6P")
//!     .build();
//! let tca = ModelBuilder::new("tca")
//!     .compartment("cell", 1.0)
//!     .species("citrate", 1.0)
//!     .species("isocitrate", 0.0)
//!     .parameter("k", 0.1)
//!     .reaction("aconitase", &["citrate"], &["isocitrate"], "k*citrate")
//!     .build();
//!
//! let options = ComposeOptions::default();
//! let batch = BatchComposer::new(Composer::new(options.clone()));
//! let corpus = batch.prepare_corpus(&[glycolysis, tca]);
//! let index = MatchIndex::build(&corpus, &options);
//!
//! // "Where does glucose -> G6P occur?"
//! let query = ModelBuilder::new("query")
//!     .compartment("cell", 1.0)
//!     .species_named("glc", "glucose", 5.0)
//!     .species("G6P", 0.0)
//!     .parameter("k1", 0.4)
//!     .reaction("hexokinase", &["glc"], &["G6P"], "k1*glc")
//!     .build();
//! let matches = index.query_corpus(&query);
//! assert_eq!(matches.exact.len(), 1);
//! let hit = &matches.exact[0];
//! assert_eq!(hit.model, 0, "only glycolysis contains the step");
//! assert!(hit.embedding.species().any(|pair| pair == ("glc", "glc")));
//! assert!(hit.embedding.reactions().any(|pair| pair == ("hexokinase", "hexokinase")));
//! ```

pub mod graph;
pub mod index;
pub mod lazy;
pub mod semantics;
pub mod vf2;

pub use graph::{MatchGraph, RawGraph};
pub use index::{
    scope_hash, scope_keys, ApproxHit, CorpusHit, CorpusMatches, Embedding, IndexShard,
    MatchIndex, PreparedQuery, RawIndex, RawShard, DEFAULT_BUDGET, DEFAULT_COMPACTION_THRESHOLD,
};
pub use lazy::{IdDirectory, LazyModel, ModelIds, ModelImage, Stored};
pub use semantics::MatchSemantics;
pub use vf2::{find_embedding, SearchOutcome};
