//! Partitioning an in-memory index into per-shard daemon states.
//!
//! [`carve`] extracts one physical shard of a [`MatchIndex`] as a
//! standalone single-shard index over only the models that shard owns,
//! remapped to a dense local slot space, plus the [`ShardIdentity`]
//! ([`sbml_serve::Server::bind_shard`] needs) that maps the local live
//! corpus back to global slots. The disk-based equivalent is
//! [`sbml_serve::Snapshot::load_shard`]; this path serves in-process
//! tests and benches that already hold the full index.

use sbml_compose::ComposeOptions;
use sbml_match::{LazyModel, MatchIndex};
use sbml_serve::ShardIdentity;

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
    let shards = index.shard_count();
    let raw = index.to_raw();
    let (local_raw, global) = raw.carve_shard(shard)?;
    let corpus = index.corpus();
    let live = index.live_slots();
    if live.len() != corpus.len() {
        return Err(format!(
            "{} live slot(s) for {} corpus model(s)",
            live.len(),
            corpus.len(),
        ));
    }
    // Handing a model on decodes nothing: the carved index shares the
    // handle, and with it any decode either side later does.
    let owned: Vec<LazyModel> = live
        .iter()
        .zip(corpus.iter())
        .filter(|&(&slot, _)| slot as usize % shards == shard)
        .map(|(_, model)| model.clone())
        .collect();
    let local = MatchIndex::from_raw(local_raw, &owned, options, threads)?;
    let identity = ShardIdentity {
        shard,
        shards,
        global_slots: global.iter().map(|&s| u64::from(s)).collect(),
        universe: index.slot_universe() as u64,
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
