//! **sbml-serve** — the corpus as a *service*: persistent prepared-corpus
//! snapshots and a long-running match/compose daemon.
//!
//! Everything else in this workspace is one-shot: each CLI invocation
//! re-parses the corpus, re-prepares every model and rebuilds the
//! [`sbml_match::MatchIndex`] before answering a single query — the
//! opposite of the "repository of curated models queried by many users"
//! deployment the paper envisions. This crate closes that gap in two
//! layers:
//!
//! * **[`snapshot`]** — a versioned binary on-disk format
//!   ([`Snapshot`]) that persists a prepared corpus (each
//!   [`sbml_compose::PreparedModel`]'s canonical content keys and
//!   initial values) together with the full
//!   index skeleton (match graphs + posting lists). `Snapshot::load` is
//!   a single file read, a checksum pass and a decode of the index
//!   skeleton — no XML parsing, no re-canonicalisation, no re-analysis,
//!   and each model decoded only when a query first needs it — and
//!   every corruption mode (truncation, bit flips, hostile counts)
//!   surfaces as a structured [`SnapshotError`], never a panic or an
//!   OOM.
//! * **[`server`]** — `sbmlcompose serve`: a daemon on
//!   `std::net::TcpListener` (the workspace is offline — no HTTP
//!   crates) speaking a length-prefixed frame protocol
//!   ([`protocol`]: `MATCH`, `QUERY`, `COMPOSE`, `UPSERT`, `REMOVE`,
//!   `STATS`, `SHUTDOWN`) from a bounded worker pool. The index stays
//!   hot behind an `RwLock` and mutates *in place* — `UPSERT` appends
//!   postings, `REMOVE` tombstones — with no rebuild and no restart;
//!   each request runs under a [`sbml_compose::Budget`] so a hostile
//!   query gets a structured `ERR budget` frame while the daemon keeps
//!   serving; answers are cached by canonical content keys with LRU
//!   eviction ([`cache`]); usage is metered ([`metrics`]) and exposed
//!   via `STATS`.
//!
//! [`client`] is the matching blocking client (`sbmlcompose client`).
//! [`report`] holds the one renderer per read grammar, which the
//! one-shot CLI, the daemon and the `sbml-cluster` coordinator all
//! render through — which is what makes their answers bit-identical
//! for the same request. [`service`] is the request core the daemon
//! and the coordinator share: the frame handler, the metered cache
//! path, `COMPOSE`, and the write answers and errors.
//!
//! # Snapshot → serve, end to end
//!
//! ```
//! use std::sync::Arc;
//! use sbml_compose::{BatchComposer, ComposeOptions, Composer};
//! use sbml_match::MatchIndex;
//! use sbml_model::builder::ModelBuilder;
//! use sbml_serve::Snapshot;
//!
//! let options = ComposeOptions::default();
//! let models = vec![
//!     ModelBuilder::new("m0")
//!         .compartment("cell", 1.0)
//!         .species("A", 1.0)
//!         .species("B", 0.0)
//!         .parameter("k", 0.1)
//!         .reaction("r", &["A"], &["B"], "k*A")
//!         .build(),
//! ];
//! let batch = BatchComposer::new(Composer::new(options.clone()));
//! let corpus = batch.prepare_corpus(&models);
//! let index = MatchIndex::build(&corpus, &options);
//!
//! // Persist, then reload without re-preparing anything.
//! let bytes = Snapshot::encode(&index, &options);
//! let loaded = sbml_serve::Snapshot::load_bytes(&bytes, &options, 0).unwrap();
//! assert_eq!(loaded.corpus.len(), 1);
//! assert_eq!(loaded.index.posting_stats(), index.posting_stats());
//! ```

pub mod cache;
pub mod client;
pub mod codec;
pub mod metrics;
pub mod protocol;
pub mod report;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod wire;

pub use cache::QueryCache;
pub use client::Client;
pub use metrics::{Metrics, MetricsReport};
pub use protocol::{read_frame, write_frame, ErrKind, Request, Response, MAX_FRAME};
pub use report::{format_candidates, format_matches, MatchRows, Witness};
pub use server::{serve_frames, FrameHandler, FrameOutcome, Server, ServerConfig, ShardIdentity};
pub use service::Service;
pub use snapshot::{
    preset_options, semantics_from_token, semantics_token, ClusterInfo, LoadStages, LoadedSnapshot,
    Snapshot, SnapshotError, SnapshotInfo, SnapshotShardInfo, FORMAT_VERSION, MAGIC,
};
pub use wire::{PartialCandidates, PartialMatches};
