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
    let (prepared, index) = build(&options, &models);
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
    let (prepared, index) = build(&options, &models);
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
    let (prepared, index) = build(&options, &models);
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

/// The two ways to stand up a shard daemon's corpus — carving the
/// in-memory index and slicing the snapshot bytes — must agree exactly:
/// same cluster identity, same local corpus, bit-identical answers.
#[test]
fn load_shard_matches_the_in_memory_carve() {
    let models = corpus_slice(58..70);
    let options = ComposeOptions::heavy();
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&models);
    let mut index = MatchIndex::build_sharded(&prepared, &options, 0, 3);
    // A tombstone keeps the slot universe honest: slots are never
    // reused, so universe stays at 12 while only 11 models live.
    index.remove(4);
    let bytes = Snapshot::encode(&index, &options);

    for shard in 0..3 {
        let carved = sbmlcompose::cluster::carve(&index, &options, 0, shard)
            .unwrap_or_else(|e| panic!("carve shard {shard}: {e}"));
        let loaded = Snapshot::load_shard_bytes(&bytes, &options, 0, shard, 3)
            .unwrap_or_else(|e| panic!("load shard {shard}: {e}"));
        let (local, identity) = carved;
        let cluster = loaded.cluster.unwrap_or_else(|| panic!("shard {shard} identity"));
        assert_eq!(cluster.shard, shard);
        assert_eq!(cluster.shards, 3);
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
    // Out-of-range and mismatched widths are structured errors, not
    // silently empty shards.
    assert!(Snapshot::load_shard_bytes(&bytes, &options, 0, 3, 3).is_err());
    assert!(Snapshot::load_shard_bytes(&bytes, &options, 0, 0, 2).is_err());
}

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
