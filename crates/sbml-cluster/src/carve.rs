//! Partitioning an in-memory index into per-shard daemon states.
//!
//! [`carve`] pairs one shard cut by [`MatchIndex::carve_shard`] — the
//! only code that cuts a shard, which `snapshot split` runs too — with
//! the [`ShardIdentity`] [`sbml_serve::Server::bind_shard`] needs to map
//! the local live corpus back to global slots.

use sbml_compose::ComposeOptions;
use sbml_match::MatchIndex;
use sbml_serve::{ClusterInfo, ShardIdentity};

/// Carve shard `shard` out of `index` (whose physical shard count
/// defines the cluster width): a dense local single-shard index over
/// the owned models plus the identity tying it back to the global slot
/// space. `threads` bounds the carved index's query pool.
pub fn carve(
    index: &MatchIndex,
    options: &ComposeOptions,
    threads: usize,
    shard: usize,
) -> Result<(MatchIndex, ShardIdentity), String> {
    let local = index.carve_shard(shard, options, threads)?;
    let cluster = ClusterInfo {
        shard,
        shards: index.shard_count(),
        universe: index.slot_universe() as u64,
    };
    let identity = ShardIdentity {
        shard,
        shards: cluster.shards,
        global_slots: cluster.global_slots(&local),
        universe: cluster.universe,
    };
    Ok((local, identity))
}

/// [`carve`] every shard of `index`, in shard order — one entry per
/// daemon process of the cluster.
pub fn carve_all(
    index: &MatchIndex,
    options: &ComposeOptions,
    threads: usize,
) -> Result<Vec<(MatchIndex, ShardIdentity)>, String> {
    (0..index.shard_count()).map(|i| carve(index, options, threads, i)).collect()
}
