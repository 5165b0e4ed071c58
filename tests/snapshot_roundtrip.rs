//! Snapshot round-trip fidelity: write → load must yield bit-identical
//! match, query and compose results at every semantics level — a loaded
//! corpus is the *same* corpus, not a re-derived approximation.

use std::sync::Arc;

use sbmlcompose::compose::{
    BatchComposer, ComposeOptions, Composer, CompositionSession, PreparedModel, SemanticsLevel,
};
use sbmlcompose::corpus::{corpus_slice, query_fragment, synonym_variant};
use sbmlcompose::matching::MatchIndex;
use sbmlcompose::model::{write_sbml, Model};
use sbmlcompose::serve::{format_matches, preset_options, Snapshot, SnapshotError};

const LEVELS: [SemanticsLevel; 3] =
    [SemanticsLevel::Heavy, SemanticsLevel::Light, SemanticsLevel::None];

fn build(options: &ComposeOptions, models: &[Model]) -> (Vec<Arc<PreparedModel>>, MatchIndex) {
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(models);
    let index = MatchIndex::build(&prepared, options);
    (prepared, index)
}

fn queries(models: &[Model]) -> Vec<Model> {
    let mut queries = vec![
        query_fragment(&models[3], 1, 1),
        query_fragment(&models[7], 2, 2),
        synonym_variant(&query_fragment(&models[0], 0, 1)),
        Model::new("unrelated"), // definitive miss
    ];
    // A whole corpus model embeds trivially — the strongest exact hit.
    queries.push(models[5].clone());
    queries
}

#[test]
fn loaded_snapshot_answers_match_queries_bit_identically() {
    let models = corpus_slice(58..70);
    for semantics in LEVELS {
        let options = preset_options(semantics);
        let (prepared, index) = build(&options, &models);
        let ids: Vec<String> = models.iter().map(|m| m.id.clone()).collect();

        let bytes = Snapshot::encode(&index, &options);
        let loaded = Snapshot::load_bytes(&bytes, &options, 0)
            .unwrap_or_else(|e| panic!("{semantics:?}: load failed: {e}"));
        assert_eq!(loaded.corpus.len(), prepared.len());
        assert_eq!(loaded.info.models, prepared.len());
        assert_eq!(loaded.index.posting_stats(), index.posting_stats(), "{semantics:?}");

        for (qi, query) in queries(&models).iter().enumerate() {
            let fresh = format_matches(&index.query_corpus(query), &ids, &ids);
            let reloaded = format_matches(&loaded.index.query_corpus(query), &ids, &ids);
            assert_eq!(fresh, reloaded, "{semantics:?} query {qi}: answers must be bit-identical");
            assert_eq!(
                index.candidates(query),
                loaded.index.candidates(query),
                "{semantics:?} query {qi}: candidate sets must agree"
            );
        }
    }
}

#[test]
fn loaded_prepared_models_compose_bit_identically() {
    let models = corpus_slice(60..66);
    for semantics in LEVELS {
        let options = preset_options(semantics);
        let (prepared, index) = build(&options, &models);
        let bytes = Snapshot::encode(&index, &options);
        let loaded = Snapshot::load_bytes(&bytes, &options, 0).expect("load");

        // Fold the same chain once through the original preparations and
        // once through the reloaded ones.
        let mut fresh = CompositionSession::new(&options);
        for p in &prepared {
            fresh.push_prepared(p);
        }
        let mut reloaded = CompositionSession::new(&options);
        for p in &loaded.corpus {
            reloaded.push_prepared(p.prepared().expect("a verified record decodes"));
        }
        assert_eq!(
            write_sbml(&fresh.finish().model),
            write_sbml(&reloaded.finish().model),
            "{semantics:?}: composition through reloaded preparations must be bit-identical"
        );
    }
}

#[test]
fn snapshot_encoding_is_deterministic_and_idempotent() {
    let models = corpus_slice(60..68);
    let options = ComposeOptions::heavy();
    let (_, index) = build(&options, &models);
    let bytes = Snapshot::encode(&index, &options);
    assert_eq!(bytes, Snapshot::encode(&index, &options), "same inputs, same bytes");

    // Snapshotting a loaded snapshot reproduces the file exactly: the
    // decode loses nothing the encode needs.
    let loaded = Snapshot::load_bytes(&bytes, &options, 0).expect("load");
    let again = Snapshot::encode(&loaded.index, &loaded.options);
    assert_eq!(bytes, again, "load → encode must be the identity on snapshot bytes");
}

#[test]
fn mutated_sharded_snapshot_round_trips() {
    let models = corpus_slice(58..70);
    let options = ComposeOptions::heavy();
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&models);
    let mut index = MatchIndex::build(&prepared[..8], &options).with_shards(3);
    index.insert(Arc::clone(&prepared[8]));
    index.insert(Arc::clone(&prepared[9]));
    assert!(index.remove(2).is_some());

    let bytes = Snapshot::encode(&index, &options);
    let loaded = Snapshot::load_bytes(&bytes, &options, 0).expect("load");
    assert_eq!(loaded.index.len(), index.len());
    assert_eq!(loaded.index.shard_count(), 3);
    assert_eq!(loaded.index.generation(), index.generation());
    assert_eq!(loaded.index.tombstoned_len(), index.tombstoned_len());
    let ids: Vec<String> = index.corpus().iter().map(|p| p.model().id.clone()).collect();
    for (qi, query) in queries(&models).iter().enumerate() {
        assert_eq!(
            format_matches(&index.query_corpus(query), &ids, &ids),
            format_matches(&loaded.index.query_corpus(query), &ids, &ids),
            "query {qi}: a mutated sharded index must reload bit-identically"
        );
    }
}

#[test]
fn encode_update_reuses_unchanged_shard_sections() {
    let models = corpus_slice(58..68);
    let options = ComposeOptions::heavy();
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&models);
    let mut index = MatchIndex::build(&prepared[..9], &options).with_shards(4);

    let before = Snapshot::encode(&index, &options);
    index.insert(Arc::clone(&prepared[9]));
    let (after, reused) = Snapshot::encode_update(&index, &options, Some(&before));
    assert_eq!(reused, 3, "an insert touches one shard; the other three splice through");
    assert_eq!(
        after,
        Snapshot::encode(&index, &options),
        "shard-section reuse must be byte-transparent"
    );

    // An unreadable previous file disables reuse without corrupting the
    // output — incremental writes always fall back to a full encode.
    let (full, reused) = Snapshot::encode_update(&index, &options, Some(b"not a snapshot"));
    assert_eq!(reused, 0);
    assert_eq!(full, after);
}

#[test]
fn fingerprint_mismatch_is_a_structured_error() {
    let models = corpus_slice(60..64);
    let options = ComposeOptions::heavy();
    let (_, index) = build(&options, &models);
    let bytes = Snapshot::encode(&index, &options);

    let wrong = ComposeOptions::light();
    match Snapshot::load_bytes(&bytes, &wrong, 0) {
        Err(SnapshotError::FingerprintMismatch { expected, found }) => {
            assert_eq!(expected, wrong.fingerprint().stable_hash());
            assert_eq!(found, options.fingerprint().stable_hash());
        }
        Err(other) => panic!("expected FingerprintMismatch, got {other:?}"),
        Ok(_) => panic!("expected FingerprintMismatch, got a successful load"),
    }

    // Same semantics level, different knobs: still a mismatch — the
    // fingerprint covers every option that shapes preparation.
    let mut tweaked = ComposeOptions::heavy();
    tweaked.cache_patterns = !tweaked.cache_patterns;
    assert!(
        matches!(
            Snapshot::load_bytes(&bytes, &tweaked, 0),
            Err(SnapshotError::FingerprintMismatch { .. })
        ),
        "a single toggled option must be rejected"
    );
}

#[test]
fn inspect_reports_the_header_without_decoding() {
    let models = corpus_slice(60..65);
    let options = ComposeOptions::light();
    let (_, index) = build(&options, &models);
    let bytes = Snapshot::encode(&index, &options);

    let info = Snapshot::inspect_bytes(&bytes).expect("inspect");
    assert_eq!(info.version, sbmlcompose::serve::FORMAT_VERSION);
    assert_eq!(info.semantics, SemanticsLevel::Light);
    assert_eq!(info.fingerprint, options.fingerprint().stable_hash());
    assert_eq!(info.models, 5);
    assert_eq!(info.generation, index.generation());
    assert_eq!(info.bytes, bytes.len());
    let (nodes, edges, participants) = index.posting_stats();
    assert_eq!(info.node_postings, nodes);
    assert_eq!(info.edge_postings, edges);
    assert_eq!(info.participant_postings, participants);
    assert_eq!(info.shards.len(), 1, "a default build is single-shard");
    assert_eq!(info.shards[0].live, 5);
    assert_eq!(info.shards[0].dead, 0);
    assert_eq!(info.shards[0].tombstone_fraction(), 0.0);
}

/// A split part, loaded, is exactly the in-memory carve of the same
/// shard: same cluster identity, same local corpus, bit-identical
/// answers.
#[test]
fn loaded_split_part_matches_the_in_memory_carve() {
    let models = corpus_slice(58..70);
    let options = ComposeOptions::heavy();
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&models);
    let mut index = MatchIndex::build_sharded(&prepared, &options, 0, 3);
    // A tombstone keeps the slot universe honest: slots are never
    // reused, so universe stays at 12 while only 11 models live.
    index.remove(4);
    let bytes = Snapshot::encode(&index, &options);
    let parts = Snapshot::split_bytes(&bytes).expect("split");
    assert_eq!(parts.len(), 3);

    for (shard, part) in parts.iter().enumerate() {
        let (local, identity) = sbmlcompose::cluster::carve(&index, &options, 0, shard)
            .unwrap_or_else(|e| panic!("carve shard {shard}: {e}"));
        let loaded = Snapshot::load_bytes(part, &options, 0)
            .unwrap_or_else(|e| panic!("load part {shard}: {e}"));
        let cluster = loaded.cluster.unwrap_or_else(|| panic!("shard {shard} identity"));
        assert_eq!((cluster.shard, cluster.shards), (shard, 3));
        assert_eq!((identity.shard, identity.shards), (shard, 3));
        assert_eq!(cluster.universe, 12, "the tombstoned slot stays in the universe");
        assert_eq!(cluster.universe, identity.universe, "slot universe agrees");
        assert_eq!(
            cluster.global_slots(&loaded.index),
            identity.global_slots,
            "shard {shard}: global slot maps agree"
        );
        assert_eq!(loaded.index.len(), local.len(), "shard {shard}: corpus size");
        let ids: Vec<String> =
            loaded.index.corpus().iter().map(|p| p.model().id.clone()).collect();
        let carved_ids: Vec<String> =
            local.corpus().iter().map(|p| p.model().id.clone()).collect();
        assert_eq!(ids, carved_ids, "shard {shard}: same models in the same order");
        for (qi, query) in queries(&models).iter().enumerate() {
            assert_eq!(
                format_matches(&loaded.index.query_corpus(query), &ids, &ids),
                format_matches(&local.query_corpus(query), &ids, &ids),
                "shard {shard} query {qi}: answers must be bit-identical"
            );
        }
    }
    // An out-of-range shard is a structured error, not a silently empty
    // shard.
    assert!(sbmlcompose::cluster::carve(&index, &options, 0, 3).is_err());
}

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// The split parts of a fixed mutated, tombstoned 3-shard index are
/// pinned byte for byte: the format is fixed, so however the parts are
/// cut, the bytes must not move.
#[test]
fn split_parts_are_pinned() {
    let models = corpus_slice(58..70);
    let options = ComposeOptions::heavy();
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&models);
    let mut index = MatchIndex::build_sharded(&prepared[..10], &options, 0, 3);
    index.insert(Arc::clone(&prepared[10]));
    index.insert(Arc::clone(&prepared[11]));
    assert!(index.remove(4).is_some());
    let parts = Snapshot::split_bytes(&Snapshot::encode(&index, &options)).expect("split");
    let digests: Vec<(usize, u64)> = parts.iter().map(|p| (p.len(), fnv(p))).collect();
    assert_eq!(digests, SPLIT_DIGESTS);
}

/// `(length, FNV-1a)` of each split part of the fixture above.
const SPLIT_DIGESTS: [(usize, u64); 3] = [
    (87553, 0xdf9e16292e27b50b),
    (72004, 0x9df471d19b67eb4c),
    (93352, 0xa450b44bbf8553a6),
];

/// `split` emits one self-contained snapshot per shard: each loads on
/// its own, remembers its place in the cluster, and together they cover
/// the corpus exactly once.
#[test]
fn split_files_load_standalone_and_partition_the_corpus() {
    let models = corpus_slice(58..68);
    let options = ComposeOptions::light();
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&models);
    let index = MatchIndex::build_sharded(&prepared, &options, 0, 4);
    let bytes = Snapshot::encode(&index, &options);

    let parts = Snapshot::split_bytes(&bytes).expect("split");
    assert_eq!(parts.len(), 4, "one file per physical shard");
    let mut seen: Vec<String> = Vec::new();
    for (shard, part) in parts.iter().enumerate() {
        let info = Snapshot::cluster_info_bytes(part)
            .expect("readable part")
            .unwrap_or_else(|| panic!("part {shard} must carry its identity"));
        assert_eq!((info.shard, info.shards, info.universe), (shard, 4, 10));
        let loaded = Snapshot::load_bytes(part, &options, 0)
            .unwrap_or_else(|e| panic!("part {shard}: {e}"));
        assert_eq!(loaded.cluster, Some(info), "identity survives the load");
        for p in loaded.index.corpus() {
            seen.push(p.model().id.clone());
        }
        // Every model in this part belongs to this residue class.
        for (rank, p) in loaded.index.corpus().iter().enumerate() {
            let global = info.global_slot(rank as u32) as usize;
            assert_eq!(global % 4, shard, "{} owned by the wrong shard", p.model().id);
        }
    }
    seen.sort();
    let mut all: Vec<String> = models.iter().map(|m| m.id.clone()).collect();
    all.sort();
    assert_eq!(seen, all, "the parts partition the corpus exactly");

    // A full snapshot has no cluster identity to report.
    assert_eq!(Snapshot::cluster_info_bytes(&bytes).expect("readable"), None);
}

/// Rewriting a snapshot file in place goes through a temporary file
/// renamed over the target: nothing is left behind, and the result
/// loads.
#[test]
fn write_update_replaces_the_file_atomically() {
    let dir = std::env::temp_dir().join(format!("sbmlsnap_atomic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("corpus.snap");
    let models = corpus_slice(58..66);
    let options = ComposeOptions::heavy();
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&models);
    let mut index = MatchIndex::build(&prepared[..7], &options).with_shards(2);
    Snapshot::write(&path, &index, &options).expect("first write");

    index.insert(Arc::clone(&prepared[7]));
    let reused = Snapshot::write_update(&path, &index, &options).expect("rewrite");
    assert_eq!(reused, 1, "the untouched shard splices through");
    let names: Vec<_> = std::fs::read_dir(&dir)
        .expect("list scratch dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    assert_eq!(names, ["corpus.snap"], "no temporary file is left behind");
    let loaded = Snapshot::load(&path, &options, 0).expect("the rewritten file loads");
    assert_eq!(loaded.index.len(), 8);
    assert_eq!(std::fs::read(&path).expect("read back"), Snapshot::encode(&index, &options));
    let _ = std::fs::remove_dir_all(&dir);
}
