//! **sbml-cluster** — the corpus as a *fleet*: multi-process shard
//! daemons behind a scatter-gather coordinator.
//!
//! One `sbmlcompose serve` process holds the whole index. At the 10k+
//! model scale the corpus-scale tiers exercise, that is a single
//! address space, a single page cache, and a single machine's cores.
//! This crate splits the daemon into `n` **shard processes** plus one
//! **coordinator** that speaks the unmodified client protocol, with one
//! invariant as the north star:
//!
//! > Every answer through the coordinator is **bit-identical** to the
//! > answer a single-process daemon over the same live corpus would
//! > give, at every shard count.
//!
//! # Topology
//!
//! ```text
//!                        sbmlcompose client
//!                               │ frames (MATCH/QUERY/UPSERT/…)
//!                               ▼
//!                    ┌─────────────────────┐
//!                    │     coordinator     │  sbmlcompose coordinator
//!                    │  route / scatter /  │
//!                    │   gather / merge    │
//!                    └──┬───────┬───────┬──┘
//!              PMATCH / │       │       │  UPSERT slot=s → shard s%n
//!              PQUERY   ▼       ▼       ▼
//!                 ┌────────┐┌────────┐┌────────┐
//!                 │shard 0 ││shard 1 ││shard 2 │  sbmlcompose serve
//!                 │slots ≡0││slots ≡1││slots ≡2│  <file>.shard<i>
//!                 └────────┘└────────┘└────────┘
//! ```
//!
//! Ownership is the same deterministic rule the in-process
//! [`sbml_match::MatchIndex`] shards by: global slot `s` lives on shard
//! `s % n`. Each shard daemon runs an ordinary single-shard index over
//! *its* residue class, remapped to a dense local slot space
//! ([`carve()`] in memory; on disk, the parts `snapshot split` writes
//! with the same cut, [`sbml_match::MatchIndex::carve_shard`]), plus
//! a positional table mapping local ranks back to global slots. Because
//! slots are allocated monotonically and each residue class preserves
//! order, local rank order *is* global slot order — which is what makes
//! merging a sort, not a negotiation.
//!
//! # Merge semantics ([`merge`])
//!
//! Shards answer the cluster-internal `PMATCH`/`PQUERY` verbs with
//! binary [`sbml_serve::wire`] bodies keyed by global slot. The
//! coordinator re-sorts gathered entries — slot-ascending for exact
//! hits, candidates and partial verdicts; `(score desc, slot asc)` with
//! a top-k cut for approximate hits, discarding every approximate list
//! as soon as any shard reports an exact hit — exactly reproducing the
//! single-process gather order. The merged lists are then rendered by
//! the daemon's own renderers ([`sbml_serve::MatchRows`] and
//! [`sbml_serve::format_candidates`]), through the request core the
//! daemon and the coordinator share ([`sbml_serve::service`]).
//!
//! # Failure ladder ([`coordinator`])
//!
//! * Reads (`MATCH`/`QUERY`) **degrade**: a dead shard's share is
//!   dropped, the answer is marked partial (`OK 4`, the CLI partial
//!   exit code) and prefixed with `dead shard <i> (<addr>): <detail>`
//!   lines naming every missing shard. Partial answers are never
//!   cached.
//! * Writes (`UPSERT`/`REMOVE`) **fail loudly** (`ERR budget`, naming
//!   the shard): a write that silently skipped a shard would fork the
//!   cluster's idea of the corpus.
//! * All shards dead, or a dead shard at bind handshake: structured
//!   `ERR` naming the first unreachable shard.
//!
//! Every shard call retries with backoff under the coordinator's
//! [`RetryPolicy`] and rides the request deadline via
//! [`sbml_compose::Budget`] ([`link`]).

pub mod carve;
pub mod coordinator;
pub mod link;
pub mod merge;

pub use carve::{carve, carve_all};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use link::{RetryPolicy, ShardLink};
pub use merge::{merge_candidates, merge_matches};
