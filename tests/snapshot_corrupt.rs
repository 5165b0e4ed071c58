//! Corrupt-snapshot hardening: *no* sequence of bytes handed to the
//! snapshot loader may panic, abort or allocate absurdly — every
//! truncation, bit flip and hostile length field must come back as a
//! structured [`SnapshotError`]. A daemon loads snapshots from disk at
//! startup; a half-written or bit-rotted file must produce a clean
//! diagnostic, not a crash.
//!
//! Models decode lazily, after the load's checksum pass, so the forged
//! cases go one step further: bytes altered *and* resealed (section and
//! header checksums recomputed, as a buggy or hostile writer would) must
//! still never panic, and a model whose record was altered must fail its
//! first decode — never answer from the altered bytes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sbmlcompose::compose::{BatchComposer, ComposeOptions, Composer};
use sbmlcompose::corpus::{corpus_slice, query_fragment};
use sbmlcompose::matching::MatchIndex;
use sbmlcompose::model::Model;
use sbmlcompose::serve::codec::checksum;
use sbmlcompose::serve::{Snapshot, SnapshotError};

/// Deterministic xorshift-style LCG — the mutation schedule must be
/// reproducible across runs (no process-dependent randomness).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

const MODELS: std::ops::Range<usize> = 60..66;

fn snapshot_bytes() -> (Vec<u8>, ComposeOptions) {
    let options = ComposeOptions::heavy();
    let models = corpus_slice(MODELS);
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&models);
    // Shard the index: corruption must surface cleanly in the per-shard
    // header entries and section payloads too, not just a monolith.
    let index = MatchIndex::build(&prepared, &options).with_shards(3);
    (Snapshot::encode(&index, &options), options)
}

/// Feed `bytes` through every decode entry point; the only acceptable
/// outcomes are `Ok` (a benign mutation) or a structured error.
fn must_not_panic(bytes: &[u8], options: &ComposeOptions, what: &str) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = Snapshot::inspect_bytes(bytes);
        let _ = Snapshot::load_bytes(bytes, options, 1);
    }));
    assert!(result.is_ok(), "decoder panicked on {what}");
}

#[test]
fn every_truncation_yields_a_structured_error() {
    let (bytes, options) = snapshot_bytes();
    // Every prefix: the header declares the payload lengths, which must
    // fill the file exactly, so each cut fails before any payload is
    // hashed or decoded.
    for len in 0..bytes.len() {
        let cut = &bytes[..len];
        let result = catch_unwind(AssertUnwindSafe(|| Snapshot::load_bytes(cut, &options, 1)));
        match result {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("a snapshot cut to {len}/{} bytes loaded", bytes.len()),
            Err(_) => panic!("decoder panicked on truncation to {len} bytes"),
        }
    }
    // Trailing bytes are corruption too.
    let mut longer = bytes.clone();
    longer.push(0);
    assert!(Snapshot::load_bytes(&longer, &options, 1).is_err());
}

#[test]
fn random_byte_flips_never_panic() {
    let (bytes, options) = snapshot_bytes();
    let mut rng = Lcg(0x5eed_cafe);
    for round in 0..300 {
        let mut mutated = bytes.clone();
        // 1–4 independent single-byte corruptions per round.
        let flips = 1 + (rng.next() as usize % 4);
        for _ in 0..flips {
            let at = rng.next() as usize % mutated.len();
            let bit = 1u8 << (rng.next() % 8);
            mutated[at] ^= bit;
        }
        must_not_panic(&mutated, &options, &format!("bit-flip round {round}"));
        // Every byte is under a checksum, so a flip anywhere — header,
        // section table, any payload, any model record — fails the load
        // itself, not a later query. (Two flips of one bit cancel.)
        if mutated != bytes {
            assert!(
                Snapshot::load_bytes(&mutated, &options, 1).is_err(),
                "bit-flip round {round} loaded"
            );
        }
    }
}

#[test]
fn hostile_length_fields_cannot_cause_huge_allocations() {
    let (bytes, options) = snapshot_bytes();
    let mut rng = Lcg(0xdead_2bad);
    // Overwrite 4- and 8-byte windows with all-ones and huge values:
    // every count and section length the format declares must be capped
    // against the bytes actually present before anything allocates.
    for round in 0..200 {
        let mut mutated = bytes.clone();
        let at = rng.next() as usize % mutated.len().saturating_sub(8);
        let value: u64 = match round % 3 {
            0 => u64::MAX,
            1 => u64::from(u32::MAX),
            _ => rng.next() | (1 << 40),
        };
        let width = if round % 2 == 0 { 8 } else { 4 };
        mutated[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        must_not_panic(&mutated, &options, &format!("length-bomb round {round} at {at}"));
        if mutated != bytes {
            assert!(
                Snapshot::load_bytes(&mutated, &options, 1).is_err(),
                "length-bomb round {round} at {at} loaded"
            );
        }
    }
}

#[test]
fn garbage_and_empty_inputs_error_cleanly() {
    let (_, options) = snapshot_bytes();
    must_not_panic(&[], &options, "empty input");
    assert!(Snapshot::load_bytes(&[], &options, 1).is_err());

    let mut rng = Lcg(42);
    for len in [1usize, 7, 8, 9, 64, 4096] {
        let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        must_not_panic(&garbage, &options, &format!("{len} bytes of garbage"));
        assert!(Snapshot::load_bytes(&garbage, &options, 1).is_err());
    }
}

/// Where things are in a format-3 snapshot, read the way the module
/// docs lay it out — what a forging writer would need.
struct Layout {
    /// Byte length of the header up to (not including) its checksum.
    header_len: usize,
    /// Per section: table entry offset and payload range.
    sections: Vec<(usize, std::ops::Range<usize>)>,
    /// Per model: its record's byte range (checksum + payload).
    records: Vec<std::ops::Range<usize>>,
    /// Per model: the byte offset of its offset-table entry.
    entries: Vec<usize>,
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize
}

fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")) as usize
}

fn layout(bytes: &[u8]) -> Layout {
    // magic, version, semantics, fingerprint, models, generation.
    let mut at = 8 + 4 + 1 + 8 + 4 + 8;
    let shards = u32_at(bytes, at);
    at += 4 + 28 * shards;
    let count = u32_at(bytes, at);
    at += 4;
    let header_len = at + 17 * count;
    let mut offset = header_len + 8;
    let mut sections = Vec::new();
    for i in 0..count {
        let entry = at + 17 * i;
        let len = u64_at(bytes, entry + 1);
        sections.push((entry, offset..offset + len));
        offset += len;
    }
    assert_eq!(offset, bytes.len(), "sections fill the file");
    // MODELS is the first section: count, (end u64, id) entries, records.
    let models = sections[0].1.clone();
    let n = u32_at(bytes, models.start);
    let mut at = models.start + 4;
    let mut entries = Vec::new();
    let mut ends = Vec::new();
    for _ in 0..n {
        entries.push(at);
        ends.push(u64_at(bytes, at));
        at += 8;
        at += 4 + u32_at(bytes, at);
    }
    let mut start = 0;
    let records = ends
        .into_iter()
        .map(|end| {
            let range = at + start..at + end;
            start = end;
            range
        })
        .collect();
    Layout { header_len, sections, records, entries }
}

/// Recompute every section checksum and the header checksum — what a
/// writer that forges (rather than damages) bytes would do. `layout` is
/// the unforged file's: forging changes no section length.
fn reseal(bytes: &mut [u8], layout: &Layout) {
    for (entry, range) in &layout.sections {
        let sum = checksum(&bytes[range.clone()]);
        bytes[entry + 9..entry + 17].copy_from_slice(&sum.to_le_bytes());
    }
    let sum = checksum(&bytes[..layout.header_len]);
    bytes[layout.header_len..layout.header_len + 8].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn resealing_an_unaltered_snapshot_is_the_identity() {
    // Pins the test's reading of the layout to the writer's.
    let (bytes, _) = snapshot_bytes();
    let mut resealed = bytes.clone();
    reseal(&mut resealed, &layout(&bytes));
    assert_eq!(resealed, bytes);
    assert_eq!(layout(&bytes).records.len(), MODELS.len());
}

/// A byte flipped inside one model's record, with the MODELS section and
/// header checksums recomputed: the load succeeds (everything it checks
/// is consistent), but the model's own record checksum catches the flip
/// the first time anything reads the model — a structured error, the
/// candidate reported failed, never an answer from the altered bytes.
#[test]
fn a_resealed_flip_inside_a_model_fails_its_first_decode() {
    let (bytes, options) = snapshot_bytes();
    let models = corpus_slice(MODELS);
    let layout = layout(&bytes);
    let mut rng = Lcg(0x0bad_5eed);
    for round in 0..60 {
        let target = round % layout.records.len();
        let record = &layout.records[target];
        let mut forged = bytes.clone();
        let at = record.start + rng.next() as usize % record.len();
        forged[at] ^= 1 << (rng.next() % 8);
        reseal(&mut forged, &layout);

        let loaded = Snapshot::load_bytes(&forged, &options, 1)
            .unwrap_or_else(|e| panic!("round {round}: a resealed file loads: {e}"));
        assert!(
            loaded.corpus.iter().all(|m| !m.is_decoded()),
            "round {round}: loading decodes no model"
        );
        // A query that hits the altered model reports it failed.
        let query = query_fragment(&models[target], round, 1);
        if !query.species.is_empty() {
            let answer = catch_unwind(AssertUnwindSafe(|| loaded.index.query_corpus(&query)))
                .unwrap_or_else(|_| panic!("round {round}: the query panicked"));
            assert!(
                answer.exact.iter().all(|hit| hit.model != target),
                "round {round}: model {target} answered from altered bytes"
            );
            if answer.candidates.contains(&target) {
                assert!(answer.failed.contains(&target), "round {round}: {answer:?}");
            }
        }
        for (i, model) in loaded.corpus.iter().enumerate() {
            match model.prepared() {
                Ok(_) => assert_ne!(i, target, "round {round}: the altered record decoded"),
                Err(error) => {
                    assert_eq!(i, target, "round {round}: model {i} failed: {error}");
                    assert!(error.contains("checksum"), "round {round}: {error}");
                }
            }
        }
        // Re-encoding copies the record as it is: the damage is not
        // laundered into a fresh checksum.
        let again = Snapshot::encode(&loaded.index, &options);
        let reloaded = Snapshot::load_bytes(&again, &options, 1).expect("re-encoded file loads");
        assert!(reloaded.corpus[target].prepared().is_err(), "round {round}: laundered");
    }
}

/// Forged bytes past every checksum — record checksums recomputed too —
/// exercise the lazy decoder itself: flips, hostile counts and hostile
/// offset-table entries must come back as structured errors (at load or
/// at first decode), never a panic or an absurd allocation.
#[test]
fn forged_records_and_offset_tables_never_panic() {
    let (bytes, options) = snapshot_bytes();
    let layout = layout(&bytes);
    let mut rng = Lcg(0xf0_4ced);
    for round in 0..240 {
        let mut forged = bytes.clone();
        let target = rng.next() as usize % layout.records.len();
        let record = layout.records[target].clone();
        match round % 3 {
            // Flip a payload byte and recompute the record checksum.
            0 => {
                let at = record.start + 8 + rng.next() as usize % (record.len() - 8);
                forged[at] ^= 1 << (rng.next() % 8);
            }
            // A length bomb inside the payload.
            1 => {
                let at = record.start + 8 + rng.next() as usize % (record.len() - 12);
                forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
            // A hostile record end in the offset table.
            _ => {
                let at = layout.entries[target];
                let end = [u64::MAX, 1 << 40, rng.next() % 64][round / 3 % 3];
                forged[at..at + 8].copy_from_slice(&end.to_le_bytes());
            }
        }
        if round % 3 != 2 {
            let sum = checksum(&forged[record.start + 8..record.end]);
            forged[record.start..record.start + 8].copy_from_slice(&sum.to_le_bytes());
        }
        reseal(&mut forged, &layout);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match Snapshot::load_bytes(&forged, &options, 1) {
                Err(SnapshotError::Corrupt(_)) => {}
                Err(other) => panic!("round {round}: unexpected error kind {other:?}"),
                Ok(loaded) => {
                    for model in &loaded.corpus {
                        let _ = model.prepared();
                        let _ = model.model();
                    }
                    let _ = loaded.index.query_corpus(&Model::new("empty"));
                    let _ = Snapshot::encode(&loaded.index, &options);
                }
            }
        }));
        assert!(outcome.is_ok(), "round {round}: forged record {target} panicked");
    }
}
