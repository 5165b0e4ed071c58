//! Versioned binary corpus snapshots.
//!
//! A snapshot persists a *prepared* corpus — every
//! [`PreparedModel`]'s model, canonical content keys and initial
//! values — plus the full [`MatchIndex`] skeleton (graphs and posting
//! lists), so a daemon restart is one copy of the file into memory, a
//! checksum pass and a decode of the index skeleton, instead of
//! re-parsing, re-canonicalising and re-indexing the corpus. State that
//! is a pure function of the model (free-reference sets, per-kind lookup
//! indexes, graph adjacency) is *not* stored: the loaded corpus
//! re-derives it lazily on first use.
//!
//! # On-disk layout (format version 3)
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic  "SBMLSNAP"                                   8 bytes  │
//! │ format version (u32 le)                             4 bytes  │
//! │ semantics level (u8: 0 heavy, 1 light, 2 none)      1 byte   │
//! │ options fingerprint (stable FNV-1a, u64 le)         8 bytes  │
//! │ live model count (u32 le)                           4 bytes  │
//! │ index generation (u64 le)                           8 bytes  │
//! │ shard count (u32 le)                                4 bytes  │
//! │ per shard: generation u64, live u32, dead u32,               │
//! │            node / edge / participant postings 3×u32          │
//! │ section count (u32 le)                              4 bytes  │
//! │ section table: (tag u8, byte length u64,                     │
//! │                 payload checksum u64) × n                    │
//! │ header checksum (u64, over every byte above)        8 bytes  │
//! │ section payloads, in table order, filling the file exactly   │
//! │   tag 0 MODELS — model count u32; per model (record end u64, │
//! │                  model id); then the records, back to back:  │
//! │                  record checksum u64, then the payload:      │
//! │                  the id directory (species and reaction      │
//! │                  counts, u32 end offsets, id bytes), then    │
//! │                  RawPrepared                                 │
//! │   tag 2 LAYOUT — live slot list + per-model match graphs     │
//! │   tag 3 SHARD  — one per shard: membership + posting lists   │
//! │   tag 4 CLUSTER — per-shard files only: shard identity       │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Checksums are [`crate::codec::checksum`]. A load verifies the header
//! checksum and every section's checksum before it decodes anything, so
//! truncation and bit flips anywhere in the file fail the load itself,
//! never a later query.
//!
//! # What is lazy
//!
//! [`Snapshot::load_bytes`] copies the file once into a shared
//! `Arc<[u8]>` image. The LAYOUT and SHARD sections (graph skeletons
//! and posting lists) are decoded at load, but no model is: the MODELS
//! offset table becomes one [`LazyModel`] per live model — its id, the
//! byte range of its record in the image, and once-cells. Candidate
//! generation and refinement read only the index. A hit's witness needs
//! only the target's species and reaction ids, which the handle reads
//! in place from the record's id directory. The first reader that needs
//! the model itself (a near miss's score, a compose, a caller of
//! [`LazyModel::prepared`]) decodes the record with
//! [`PreparedModel::from_raw`], exactly what an eager load ran, and
//! every later reader shares the result. Writing a snapshot decodes
//! nothing either: a model from an image is written by copying its
//! record.
//!
//! Answers therefore cannot change: every section is verified before
//! anything is served; each record is self-contained (its own interning
//! dictionary) and decoded by the same function whenever it is first
//! needed, so a lazily loaded model is bit-identical to an eagerly
//! decoded one; and the id directory is written from the same model,
//! which the decode checks it against. A record also carries its own
//! checksum, which the id read and the decode both re-check, so a model
//! whose bytes were altered after the load's checks (or written with a
//! forged section checksum) fails its first query with a structured
//! error — the candidate is reported `failed` — instead of answering
//! from wrong bytes.
//!
//! Every section carries its **own** string-interning dictionary (every
//! model record too), so a SHARD section or a model record is a
//! self-contained byte range: when only one shard of a mutated index
//! changed, [`Snapshot::write_update`] re-encodes that shard and splices
//! the other shards' bytes and checksums from the previous file
//! verbatim (generation counters in the header say which is which), and
//! every model that came from an image is written by copying its record.
//! Per-shard stats — generation, live/tombstoned models, posting counts
//! per family — live in the fixed header, so `sbmlcompose snapshot
//! inspect` reports them without touching any payload.
//!
//! All integers are little-endian; every list is length-prefixed; every
//! declared length is validated against the bytes actually present
//! before any allocation (see [`crate::codec`]). Loading never panics on
//! hostile input: truncation, bit flips and impossible counts surface as
//! [`SnapshotError::Corrupt`], a wrong options fingerprint as
//! [`SnapshotError::FingerprintMismatch`].

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sbml_compose::{ComposeOptions, PreparedModel, RawPrepared, SemanticsLevel, WorkerPool};
use sbml_match::{
    IdDirectory, LazyModel, MatchIndex, ModelImage, RawGraph, RawIndex, RawShard, Stored,
};

use crate::codec::{checksum, read_model, write_model, Reader, Writer};

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: [u8; 8] = *b"SBMLSNAP";

/// Current snapshot format version. Version 2 introduced sharded
/// indexes: per-shard self-contained sections, per-shard header stats,
/// and the live-slot layout section. Version 3 added the header and
/// per-section checksums and made every model record self-contained
/// behind an offset table, so models decode on first touch. Older
/// files are not readable by this build — regenerate with
/// `sbmlcompose snapshot build`.
pub const FORMAT_VERSION: u32 = 3;

const SECTION_MODELS: u8 = 0;
const SECTION_LAYOUT: u8 = 2;
const SECTION_SHARD: u8 = 3;
/// Cluster identity of a per-shard snapshot emitted by
/// [`Snapshot::split_bytes`]: which residue class of which global slot
/// space this file holds. Old readers skip the unknown tag and load the
/// file as an ordinary standalone snapshot.
const SECTION_CLUSTER: u8 = 4;

/// Why a snapshot could not be written or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file is a snapshot, but of a format this build cannot read.
    UnsupportedVersion(u32),
    /// The snapshot was built under different [`ComposeOptions`] than
    /// the caller supplied — its cached keys would be meaningless.
    FingerprintMismatch {
        /// Fingerprint of the caller's options.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
    /// Truncated or bit-flipped content; the detail says where.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})")
            }
            SnapshotError::FingerprintMismatch { expected, found } => write!(
                f,
                "options fingerprint mismatch: snapshot was built under {found:#018x}, \
                 caller options hash to {expected:#018x}",
            ),
            SnapshotError::Corrupt(detail) => write!(f, "corrupt snapshot: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

fn corrupt(detail: String) -> SnapshotError {
    SnapshotError::Corrupt(detail)
}

/// Per-shard facts stored in the fixed snapshot header — available to
/// `sbmlcompose snapshot inspect` without decoding any payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotShardInfo {
    /// The shard's mutation counter at write time.
    pub generation: u64,
    /// Live models the shard owns.
    pub live: usize,
    /// Tombstoned models the shard owns (slots stay reserved so slot
    /// ids survive save/mutate/save cycles).
    pub dead: usize,
    /// Distinct node-key posting lists in the shard.
    pub node_postings: usize,
    /// Distinct edge-key posting lists.
    pub edge_postings: usize,
    /// Distinct participant-key posting lists.
    pub participant_postings: usize,
}

impl SnapshotShardInfo {
    /// Fraction of the shard's slot ownership that is tombstoned:
    /// `dead / (live + dead)` (0.0 for an empty shard). Written
    /// snapshots are always compacted, so this measures membership
    /// history, not pending posting garbage.
    pub fn tombstone_fraction(&self) -> f64 {
        let total = self.live + self.dead;
        if total == 0 {
            return 0.0;
        }
        self.dead as f64 / total as f64
    }
}

/// Header facts about a snapshot, without decoding its payload. What
/// `sbmlcompose snapshot inspect` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version of the file.
    pub version: u32,
    /// Semantics level the corpus was prepared under.
    pub semantics: SemanticsLevel,
    /// Stable hash of the build options ([`sbml_compose::OptionsFingerprint::stable_hash`]).
    pub fingerprint: u64,
    /// Number of live prepared models in the corpus.
    pub models: usize,
    /// Index-wide mutation counter at write time.
    pub generation: u64,
    /// Per-shard stats, in shard order.
    pub shards: Vec<SnapshotShardInfo>,
    /// Distinct node-key posting lists, summed across shards.
    pub node_postings: usize,
    /// Distinct edge-key posting lists, summed across shards.
    pub edge_postings: usize,
    /// Distinct participant-key posting lists, summed across shards.
    pub participant_postings: usize,
    /// Total snapshot size in bytes.
    pub bytes: usize,
}

/// Cluster identity of a per-shard snapshot: which slot residue class
/// this file holds out of a global slot universe. Written as the
/// CLUSTER section by [`Snapshot::split_bytes`] and read back by every
/// load of such a file. Because global slots are allocated densely
/// from 0, shard `i` of `n` owns exactly the slots `{i, i+n, i+2n, ...}`
/// below `universe`, so a local (dense) slot `l` maps to global slot
/// `i + n*l` — no explicit slot table is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterInfo {
    /// Which residue class this file holds (`0 <= shard < shards`).
    pub shard: usize,
    /// Total shard processes in the cluster.
    pub shards: usize,
    /// Size of the *global* slot universe (live + tombstoned slots
    /// across every shard) at split time.
    pub universe: u64,
}

impl ClusterInfo {
    /// Translate a shard-local slot id to its global slot id.
    pub fn global_slot(&self, local: u32) -> u64 {
        self.shard as u64 + self.shards as u64 * local as u64
    }

    /// The global slot ids of a shard-local index's live models, in
    /// live (rank) order — ascending, because local slots ascend.
    pub fn global_slots(&self, index: &MatchIndex) -> Vec<u64> {
        index.live_slots().iter().map(|&l| self.global_slot(l)).collect()
    }

    /// How many global slots this shard owns: `|{s < universe : s ≡
    /// shard (mod shards)}|`. A per-shard file whose local slot
    /// universe disagrees with this is corrupt — the shard would
    /// silently drop or invent slots it is responsible for.
    pub fn owned_slots(&self) -> u64 {
        let (i, n) = (self.shard as u64, self.shards as u64);
        if self.universe <= i {
            0
        } else {
            (self.universe - i).div_ceil(n)
        }
    }
}

/// How long each stage of one load took, in seconds — what the
/// `serve_snapshot` bench reports per stage. A two-lane load runs the
/// SHARD stage (and its sections' checksums) beside the others, so the
/// stages can add up to more than the load's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadStages {
    /// Copying the file into the shared image, then verifying the header
    /// and every section checksum.
    pub checksums_s: f64,
    /// Reading the MODELS offset table into lazy model handles.
    pub models_s: f64,
    /// Decoding the LAYOUT section (live slots and graph skeletons).
    pub layout_s: f64,
    /// Decoding the SHARD sections (membership and posting lists).
    pub shards_s: f64,
    /// Validating the skeleton and assembling the [`MatchIndex`].
    pub index_s: f64,
}

/// A loaded snapshot: the shared corpus and the hot index over it, ready
/// to serve queries.
pub struct LoadedSnapshot {
    /// The live corpus, in live order; each model decodes on first
    /// touch, and the index holds clones of the same handles (a model
    /// decoded through one is decoded for both).
    pub corpus: Vec<LazyModel>,
    /// The match index rebuilt from the stored skeleton.
    pub index: MatchIndex,
    /// The options the snapshot was built (and now loaded) under.
    pub options: ComposeOptions,
    /// Header facts.
    pub info: SnapshotInfo,
    /// Cluster identity, when this is one shard of a partitioned
    /// corpus (a file written by [`Snapshot::split`]).
    /// `None` for ordinary standalone snapshots.
    pub cluster: Option<ClusterInfo>,
    /// Where the load's time went.
    pub stages: LoadStages,
}

/// The preset [`ComposeOptions`] a snapshot's semantics byte denotes.
/// Snapshots built through the CLI always use a preset; a snapshot built
/// through the library with bespoke options can still be loaded by
/// passing those options to [`Snapshot::load`] explicitly.
pub fn preset_options(semantics: SemanticsLevel) -> ComposeOptions {
    match semantics {
        SemanticsLevel::Heavy => ComposeOptions::heavy(),
        SemanticsLevel::Light => ComposeOptions::light(),
        SemanticsLevel::None => ComposeOptions::none(),
    }
}

fn semantics_tag(level: SemanticsLevel) -> u8 {
    match level {
        SemanticsLevel::Heavy => 0,
        SemanticsLevel::Light => 1,
        SemanticsLevel::None => 2,
    }
}

fn semantics_from_tag(tag: u8) -> Result<SemanticsLevel, SnapshotError> {
    match tag {
        0 => Ok(SemanticsLevel::Heavy),
        1 => Ok(SemanticsLevel::Light),
        2 => Ok(SemanticsLevel::None),
        other => Err(corrupt(format!("invalid semantics byte {other}"))),
    }
}

/// The canonical lowercase token for a semantics level — what the CLI's
/// `--semantics` flag accepts and what daemon STATS / `snapshot inspect`
/// print. The coordinator's handshake compares these tokens across
/// shards, so they must stay stable.
pub fn semantics_token(level: SemanticsLevel) -> &'static str {
    match level {
        SemanticsLevel::Heavy => "heavy",
        SemanticsLevel::Light => "light",
        SemanticsLevel::None => "none",
    }
}

/// Parse a [`semantics_token`] back to its level.
pub fn semantics_from_token(token: &str) -> Option<SemanticsLevel> {
    match token {
        "heavy" => Some(SemanticsLevel::Heavy),
        "light" => Some(SemanticsLevel::Light),
        "none" => Some(SemanticsLevel::None),
        _ => None,
    }
}

// Key families are written through the codec's interning dictionary
// ([`Writer::key`]): canonical content keys repeat heavily across the
// models of a corpus (the same species, compartments and reaction
// patterns recur), so each distinct string is stored once and decoded
// to `Arc` clones of a single allocation.

fn write_key_family(w: &mut Writer, keys: &[Arc<str>]) {
    w.count(keys.len());
    for k in keys {
        w.key(k);
    }
}

fn read_key_family(r: &mut Reader<'_>, what: &str) -> Result<Vec<Arc<str>>, String> {
    let n = r.count(4, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.key(what)?);
    }
    Ok(out)
}

// Free-reference sets are deliberately NOT part of the format: they are
// a pure function of the model (no canonicalisation), so the preparation
// re-derives them lazily on first compose use instead of spending disk
// and decode time on them.
fn write_prepared(w: &mut Writer, raw: &RawPrepared) {
    write_model(w, &raw.model);
    write_key_family(w, &raw.function_keys);
    write_key_family(w, &raw.unit_keys);
    write_key_family(w, &raw.compartment_type_keys);
    write_key_family(w, &raw.species_type_keys);
    write_key_family(w, &raw.compartment_keys);
    write_key_family(w, &raw.species_keys);
    write_key_family(w, &raw.rule_keys);
    write_key_family(w, &raw.constraint_keys);
    write_key_family(w, &raw.reaction_keys);
    write_key_family(w, &raw.event_keys);
    w.count(raw.initial_values.len());
    for (symbol, value) in &raw.initial_values {
        w.key(symbol);
        w.f64(*value);
    }
}

fn read_prepared(r: &mut Reader<'_>) -> Result<RawPrepared, String> {
    let model = read_model(r)?;
    let function_keys = read_key_family(r, "function keys")?;
    let unit_keys = read_key_family(r, "unit keys")?;
    let compartment_type_keys = read_key_family(r, "compartment type keys")?;
    let species_type_keys = read_key_family(r, "species type keys")?;
    let compartment_keys = read_key_family(r, "compartment keys")?;
    let species_keys = read_key_family(r, "species keys")?;
    let rule_keys = read_key_family(r, "rule keys")?;
    let constraint_keys = read_key_family(r, "constraint keys")?;
    let reaction_keys = read_key_family(r, "reaction keys")?;
    let event_keys = read_key_family(r, "event keys")?;
    let n = r.count(12, "initial values")?;
    let mut initial_values = Vec::with_capacity(n);
    for _ in 0..n {
        let symbol = r.key_string("initial value symbol")?;
        let value = r.f64("initial value")?;
        initial_values.push((symbol, value));
    }
    Ok(RawPrepared {
        model,
        function_keys,
        unit_keys,
        compartment_type_keys,
        species_type_keys,
        compartment_keys,
        species_keys,
        rule_keys,
        constraint_keys,
        reaction_keys,
        event_keys,
        initial_values,
    })
}

/// Encode one model record: the checksum of the payload, then the
/// payload — the model's [`IdDirectory`] followed by a [`RawPrepared`]
/// written through its own interning dictionary, so the record decodes
/// on its own and a witness can read target ids in place.
fn write_record(out: &mut Vec<u8>, prepared: &PreparedModel) {
    let mut payload = Vec::new();
    IdDirectory::write(&mut payload, prepared.model());
    let mut w = Writer::new();
    write_prepared(&mut w, &prepared.to_raw());
    payload.extend_from_slice(&w.into_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// The payload of a record whose own checksum holds.
fn checked_payload(record: &[u8]) -> Result<&[u8], String> {
    let mut r = Reader::new(record);
    let stored = r.u64("record checksum")?;
    let payload = r.bytes(r.remaining(), "record payload")?;
    if checksum(payload) != stored {
        return Err("record checksum mismatch".into());
    }
    Ok(payload)
}

/// Check a record's own checksum and say where its id directory starts
/// (right after the checksum) — the [`sbml_match::lazy::IdsFn`] of
/// every loaded image.
fn record_ids(record: &[u8]) -> Result<usize, String> {
    checked_payload(record)?;
    Ok(8)
}

/// Decode one model record written by [`write_record`] — the
/// [`sbml_match::lazy::DecodeFn`] of every loaded image. The record's
/// own checksum is re-checked first, and the id directory must be the
/// one the decoded model writes.
fn read_record(record: &[u8], options: &ComposeOptions) -> Result<PreparedModel, String> {
    let payload = checked_payload(record)?;
    let (_, len) = IdDirectory::read(payload)?;
    let (directory, rest) = payload.split_at(len);
    let mut r = Reader::new(rest);
    let raw = read_prepared(&mut r)?;
    if !r.is_done() {
        return Err(format!("record holds {} undecoded trailing byte(s)", r.remaining()));
    }
    let mut expected = Vec::with_capacity(len);
    IdDirectory::write(&mut expected, &raw.model);
    if expected != directory {
        return Err("id directory disagrees with the model".into());
    }
    PreparedModel::from_raw(raw, options)
}

/// The MODELS section: the model count, an offset table of (record end,
/// model id) pairs, then the records back to back. A model that came
/// from an image is written by copying its record.
fn write_models(corpus: &[LazyModel]) -> Vec<u8> {
    let mut table = Writer::new();
    table.count(corpus.len());
    let mut records: Vec<u8> = Vec::new();
    for model in corpus {
        match model.stored() {
            Stored::Record(record) => records.extend_from_slice(record),
            Stored::Prepared(prepared) => write_record(&mut records, prepared),
        }
        table.u64(records.len() as u64);
        table.str(model.id());
    }
    let mut out = table.into_bytes();
    out.extend_from_slice(&records);
    out
}

/// Read the MODELS section at `section` of the image into lazy handles.
/// Only the offset table is decoded; the record ranges are checked to
/// tile the record area exactly.
fn read_models(
    image: &Arc<ModelImage>,
    section: Range<usize>,
    expected: usize,
) -> Result<Vec<LazyModel>, String> {
    let payload = image.bytes().get(section.clone()).unwrap_or_default();
    let mut r = Reader::new(payload);
    // Each table entry is at least a u64 end and a u32 id length.
    let n = r.count(12, "model count")?;
    if n != expected {
        return Err(format!("MODELS section holds {n} model(s), header says {expected}"));
    }
    let mut table = Vec::with_capacity(n);
    for _ in 0..n {
        let end = r.u64("record end")?;
        table.push((end, r.str("model id")?));
    }
    let records = section.start + (payload.len() - r.remaining());
    let area = r.remaining() as u64;
    let mut corpus = Vec::new();
    let mut start = 0u64;
    for (i, (end, id)) in table.into_iter().enumerate() {
        // A record holds at least its checksum.
        if end < start.saturating_add(8) || end > area {
            return Err(format!(
                "model {i}: record ends at {end}, after a record ending at {start}, \
                 in a {area}-byte record area",
            ));
        }
        let range = records + start as usize..records + end as usize;
        corpus.push(LazyModel::encoded(id, image, range)?);
        start = end;
    }
    if start != area {
        return Err(format!("MODELS section holds {} byte(s) past its last record", area - start));
    }
    Ok(corpus)
}

fn write_postings_arc(w: &mut Writer, postings: &[(Arc<str>, Vec<u32>)]) {
    w.count(postings.len());
    for (key, ids) in postings {
        w.key(key);
        w.count(ids.len());
        for id in ids {
            w.u32(*id);
        }
    }
}

fn read_postings_arc(
    r: &mut Reader<'_>,
    what: &str,
) -> Result<Vec<(Arc<str>, Vec<u32>)>, String> {
    let n = r.count(8, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.key(what)?;
        let m = r.count(4, what)?;
        out.push((key, r.u32_list(m, what)?));
    }
    Ok(out)
}

/// The LAYOUT section: the live slot list plus every live model's match
/// graph, in live order. Self-contained (own interning dictionary).
/// Per-model participant-key lists are deliberately NOT part of the
/// format: they are a pure function of the prepared model and the
/// semantics, so the index re-derives them lazily on first ranked use.
fn write_layout(raw: &RawIndex) -> Vec<u8> {
    let mut w = Writer::new();
    w.count(raw.live.len());
    for slot in &raw.live {
        w.u32(*slot);
    }
    w.count(raw.graphs.len());
    for g in &raw.graphs {
        write_key_family(&mut w, &g.node_keys);
        w.count(g.edges.len());
        for (from, to, key) in &g.edges {
            w.u32(*from);
            w.u32(*to);
            w.key(key);
        }
        w.count(g.edge_reaction.len());
        for rx in &g.edge_reaction {
            w.u32(*rx as u32);
        }
    }
    w.into_bytes()
}

fn read_layout(r: &mut Reader<'_>) -> Result<(Vec<u32>, Vec<RawGraph>), String> {
    let nl = r.count(4, "live slots")?;
    let live = r.u32_list(nl, "live slots")?;
    let ng = r.count(12, "graphs")?;
    let mut graphs = Vec::with_capacity(ng);
    for _ in 0..ng {
        let node_keys = read_key_family(r, "graph node keys")?;
        let ne = r.count(12, "graph edges")?;
        let mut edges = Vec::with_capacity(ne);
        for _ in 0..ne {
            let from = r.u32("edge from")?;
            let to = r.u32("edge to")?;
            let key = r.key("edge key")?;
            edges.push((from, to, key));
        }
        let nr = r.count(4, "edge reactions")?;
        let edge_reaction =
            r.u32_list(nr, "edge reactions")?.into_iter().map(|v| v as usize).collect();
        graphs.push(RawGraph { node_keys, edges, edge_reaction });
    }
    Ok((live, graphs))
}

/// One SHARD section: the shard's membership and its three posting
/// families. Self-contained — its own interning dictionary and no
/// references into other sections — so [`Snapshot::write_update`] can
/// splice an unchanged shard's bytes verbatim from a previous file.
/// (The shard generation lives in the header, not here.)
fn write_shard(raw: &RawShard) -> Vec<u8> {
    let mut w = Writer::new();
    w.count(raw.members.len());
    for slot in &raw.members {
        w.u32(*slot);
    }
    w.count(raw.dead.len());
    for slot in &raw.dead {
        w.u32(*slot);
    }
    write_postings_arc(&mut w, &raw.node_postings);
    write_postings_arc(&mut w, &raw.edge_postings);
    write_postings_arc(&mut w, &raw.participant_postings);
    w.into_bytes()
}

fn read_shard(r: &mut Reader<'_>) -> Result<RawShard, String> {
    let nm = r.count(4, "shard members")?;
    let members = r.u32_list(nm, "shard members")?;
    let nd = r.count(4, "shard tombstones")?;
    let dead = r.u32_list(nd, "shard tombstones")?;
    let node_postings = read_postings_arc(r, "node postings")?;
    let edge_postings = read_postings_arc(r, "edge postings")?;
    let participant_postings = read_postings_arc(r, "participant postings")?;
    Ok(RawShard {
        generation: 0, // filled from the header by the caller
        members,
        dead,
        node_postings,
        edge_postings,
        participant_postings,
    })
}

/// Decode a CLUSTER section payload: shard index u32, shard count u32,
/// global slot universe u64.
fn read_cluster(section: &[u8]) -> Result<ClusterInfo, SnapshotError> {
    let mut r = Reader::new(section);
    let shard = r.u32("cluster shard").map_err(corrupt)? as usize;
    let shards = r.u32("cluster shard count").map_err(corrupt)? as usize;
    let universe = r.u64("cluster universe").map_err(corrupt)?;
    if !r.is_done() {
        return Err(corrupt(format!(
            "CLUSTER section holds {} undecoded trailing byte(s)",
            r.remaining(),
        )));
    }
    if shards == 0 || shard >= shards {
        return Err(corrupt(format!(
            "CLUSTER section names shard {shard} of {shards}",
        )));
    }
    Ok(ClusterInfo { shard, shards, universe })
}

/// One entry of the section table: the payload's tag, its byte range in
/// the file and its stored checksum.
#[derive(Debug, Clone)]
struct Section {
    tag: u8,
    range: Range<usize>,
    checksum: u64,
}

/// The sections a load reads, picked out of the table.
struct Parts {
    models: Range<usize>,
    layout: Range<usize>,
    shards: Vec<Range<usize>>,
    cluster: Option<Range<usize>>,
}

impl Parts {
    fn find(sections: &[Section], info: &SnapshotInfo) -> Result<Parts, SnapshotError> {
        let (mut models, mut layout, mut cluster) = (None, None, None);
        let mut shards = Vec::new();
        for section in sections {
            let range = section.range.clone();
            match section.tag {
                SECTION_MODELS => models = Some(range),
                SECTION_LAYOUT => layout = Some(range),
                SECTION_SHARD => shards.push(range),
                SECTION_CLUSTER => cluster = Some(range),
                // Unknown sections are skipped: a future writer may
                // append new ones without breaking this reader.
                _ => {}
            }
        }
        if shards.len() != info.shards.len() {
            return Err(corrupt(format!(
                "{} SHARD section(s) but the header declares {} shard(s)",
                shards.len(),
                info.shards.len(),
            )));
        }
        Ok(Parts {
            models: models.ok_or_else(|| corrupt("missing MODELS section".into()))?,
            layout: layout.ok_or_else(|| corrupt("missing LAYOUT section".into()))?,
            shards,
            cluster,
        })
    }
}

/// A file opened for loading: header and options checked, copied into
/// the shared image, sections located. No payload is verified or
/// decoded yet.
struct Opened {
    image: Arc<ModelImage>,
    info: SnapshotInfo,
    sections: Vec<Section>,
    parts: Parts,
    /// Seconds spent opening: the header check and the copy.
    copy_s: f64,
}

impl Opened {
    fn bytes(&self, range: &Range<usize>) -> &[u8] {
        self.image.bytes().get(range.clone()).unwrap_or_default()
    }

    /// Check the payload checksum of every section whose tag `which`
    /// selects.
    fn verify(&self, which: impl Fn(u8) -> bool) -> Result<(), SnapshotError> {
        Snapshot::verify(self.image.bytes(), self.sections.iter().filter(|s| which(s.tag)))
    }
}

/// Run `a` on the calling thread and `b` beside it on a pool worker when
/// `threads` allows two lanes (`0` = one per core), else `a` then `b`
/// inline. Both always run to completion; `a`'s error wins.
fn side_by_side<A, B: Send>(
    threads: usize,
    a: impl FnOnce() -> Result<A, SnapshotError>,
    b: impl FnOnce() -> Result<B, SnapshotError> + Send,
) -> Result<(A, B), SnapshotError> {
    let lanes = match threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    if lanes < 2 {
        let a = a();
        let b = b();
        return Ok((a?, b?));
    }
    let (mut out_a, mut out_b) = (None, None);
    WorkerPool::new(2).run_scoped(|| out_a = Some(a()), vec![Box::new(|| out_b = Some(b()))]);
    let missing = || corrupt("a decode lane did not run".into());
    let a = out_a.ok_or_else(missing)?;
    let b = out_b.ok_or_else(missing)?;
    Ok((a?, b?))
}

/// Decode the LAYOUT section: live slots and graph skeletons.
fn decode_layout(section: &[u8]) -> Result<(Vec<u32>, Vec<RawGraph>), SnapshotError> {
    let mut r = Reader::new(section);
    let layout = read_layout(&mut r).map_err(corrupt)?;
    // Forward compatibility lives at the section level (unknown tags
    // are skipped); *within* a section, bytes left over after a full
    // decode mean the payload and the decoder disagree.
    if !r.is_done() {
        return Err(corrupt(format!(
            "LAYOUT section holds {} undecoded trailing byte(s)",
            r.remaining(),
        )));
    }
    Ok(layout)
}

/// Decode SHARD section `i` and check it against its header entry.
fn decode_shard(
    i: usize,
    section: &[u8],
    si: &SnapshotShardInfo,
) -> Result<RawShard, SnapshotError> {
    let mut r = Reader::new(section);
    let mut shard = read_shard(&mut r).map_err(|e| corrupt(format!("shard {i}: {e}")))?;
    if !r.is_done() {
        return Err(corrupt(format!(
            "SHARD section {i} holds {} undecoded trailing byte(s)",
            r.remaining(),
        )));
    }
    // The payload must agree with the header stats — they gate
    // shard-section reuse on the next incremental write.
    if shard.members.len() != si.live || shard.dead.len() != si.dead {
        return Err(corrupt(format!(
            "shard {i} holds {} live / {} dead slot(s), header says {} / {}",
            shard.members.len(),
            shard.dead.len(),
            si.live,
            si.dead,
        )));
    }
    let stats =
        (shard.node_postings.len(), shard.edge_postings.len(), shard.participant_postings.len());
    if stats != (si.node_postings, si.edge_postings, si.participant_postings) {
        return Err(corrupt(format!(
            "shard {i} posting counts {stats:?} disagree with header ({}, {}, {})",
            si.node_postings, si.edge_postings, si.participant_postings,
        )));
    }
    shard.generation = si.generation;
    Ok(shard)
}

/// A previous file's SHARD section bytes and their stored checksum,
/// spliced verbatim into a new encode.
type Splice<'a> = (&'a [u8], u64);

/// Seconds since `*mark`, moving the mark to now.
fn lap(mark: &mut Instant) -> f64 {
    let now = Instant::now();
    let seconds = now.duration_since(*mark).as_secs_f64();
    *mark = now;
    seconds
}

/// Entry points for writing and reading snapshot files; see the
/// [module docs](self) for the format.
pub struct Snapshot;

impl Snapshot {
    /// Encode an index — its live corpus ([`MatchIndex::corpus`]) plus
    /// the full skeleton — into snapshot bytes. Deterministic: the same
    /// index state and options always produce the same bytes (postings
    /// and key sets are sorted on the way out, and a model's record is
    /// a function of the model alone, whether copied from the image it
    /// was loaded from or encoded afresh). Encoding decodes no model.
    pub fn encode(index: &MatchIndex, options: &ComposeOptions) -> Vec<u8> {
        Snapshot::encode_update(index, options, None).0
    }

    /// [`Snapshot::encode`] with incremental shard reuse: when
    /// `previous` holds the bytes of a snapshot written from an earlier
    /// state of the *same* index (same options, same shard count), every
    /// shard whose generation and header stats are unchanged, and whose
    /// previous section still matches its checksum, is spliced into the
    /// output verbatim with that checksum — only mutated shards
    /// re-encode. Returns the bytes and how many shard sections were
    /// reused.
    pub fn encode_update(
        index: &MatchIndex,
        options: &ComposeOptions,
        previous: Option<&[u8]>,
    ) -> (Vec<u8>, usize) {
        Snapshot::encode_with(index, options, previous, None)
    }

    /// [`Snapshot::encode_update`] plus an optional CLUSTER section
    /// stamping the bytes as one shard of a partitioned corpus.
    fn encode_with(
        index: &MatchIndex,
        options: &ComposeOptions,
        previous: Option<&[u8]>,
        cluster: Option<&ClusterInfo>,
    ) -> (Vec<u8>, usize) {
        let raw = index.to_raw();
        let reusable: Vec<Option<Splice<'_>>> = previous
            .and_then(|bytes| Snapshot::reusable_shards(bytes, options, &raw))
            .unwrap_or_default();

        let mut payloads: Vec<(u8, Vec<u8>, u64)> = Vec::with_capacity(3 + raw.shards.len());
        let fresh = |tag: u8, bytes: Vec<u8>| {
            let sum = checksum(&bytes);
            (tag, bytes, sum)
        };
        payloads.push(fresh(SECTION_MODELS, write_models(index.corpus())));
        payloads.push(fresh(SECTION_LAYOUT, write_layout(&raw)));
        let mut reused = 0usize;
        for (i, rs) in raw.shards.iter().enumerate() {
            payloads.push(match reusable.get(i).copied().flatten() {
                Some((bytes, sum)) => {
                    reused += 1;
                    (SECTION_SHARD, bytes.to_vec(), sum)
                }
                None => fresh(SECTION_SHARD, write_shard(rs)),
            });
        }
        if let Some(c) = cluster {
            let mut cw = Writer::new();
            cw.u32(c.shard as u32);
            cw.u32(c.shards as u32);
            cw.u64(c.universe);
            payloads.push(fresh(SECTION_CLUSTER, cw.into_bytes()));
        }

        let mut w = Writer::new();
        for b in MAGIC {
            w.u8(b);
        }
        w.u32(FORMAT_VERSION);
        w.u8(semantics_tag(options.semantics));
        w.u64(options.fingerprint().stable_hash());
        w.count(index.len());
        w.u64(raw.generation);
        w.count(raw.shards.len());
        for rs in &raw.shards {
            w.u64(rs.generation);
            w.count(rs.members.len());
            w.count(rs.dead.len());
            w.count(rs.node_postings.len());
            w.count(rs.edge_postings.len());
            w.count(rs.participant_postings.len());
        }
        w.count(payloads.len());
        for (tag, bytes, sum) in &payloads {
            w.u8(*tag);
            w.u64(bytes.len() as u64);
            w.u64(*sum);
        }
        let mut bytes = w.into_bytes();
        let header_sum = checksum(&bytes);
        bytes.extend_from_slice(&header_sum.to_le_bytes());
        for (_, payload, _) in &payloads {
            bytes.extend_from_slice(payload);
        }
        (bytes, reused)
    }

    /// Which of `raw`'s shards can reuse their encoded section (and its
    /// checksum) from a previous snapshot's bytes: the previous file's
    /// header must verify and carry the same fingerprint and shard
    /// count, the shard's generation and header stats must be
    /// unchanged, and its section must still match its checksum. Any
    /// mismatch (or an unreadable previous file) simply disables reuse —
    /// never an error.
    fn reusable_shards<'a>(
        bytes: &'a [u8],
        options: &ComposeOptions,
        raw: &RawIndex,
    ) -> Option<Vec<Option<Splice<'a>>>> {
        let (info, sections) = Snapshot::header(bytes).ok()?;
        if info.fingerprint != options.fingerprint().stable_hash()
            || info.shards.len() != raw.shards.len()
        {
            return None;
        }
        let shard_sections: Vec<(&[u8], u64)> = sections
            .iter()
            .filter(|section| section.tag == SECTION_SHARD)
            .map(|section| (bytes.get(section.range.clone()).unwrap_or_default(), section.checksum))
            .collect();
        if shard_sections.len() != info.shards.len() {
            return None;
        }
        Some(
            raw.shards
                .iter()
                .zip(info.shards.iter().zip(shard_sections))
                .map(|(rs, (si, (section, sum)))| {
                    (si.generation == rs.generation
                        && si.live == rs.members.len()
                        && si.dead == rs.dead.len()
                        && si.node_postings == rs.node_postings.len()
                        && si.edge_postings == rs.edge_postings.len()
                        && si.participant_postings == rs.participant_postings.len()
                        && checksum(section) == sum)
                        .then_some((section, sum))
                })
                .collect(),
        )
    }

    /// Write a snapshot file (full encode), atomically as
    /// [`Snapshot::write_bytes`] does.
    pub fn write(
        path: impl AsRef<Path>,
        index: &MatchIndex,
        options: &ComposeOptions,
    ) -> Result<(), SnapshotError> {
        Snapshot::write_bytes(path, &Snapshot::encode(index, options))?;
        Ok(())
    }

    /// Replace the file at `path` with `bytes` so that a crash leaves
    /// either the old file or the new one, never a truncated mix: the
    /// bytes go to a temporary file in the same directory, which is
    /// synced to disk and then renamed over `path`; the directory is
    /// synced last, so the rename itself survives a crash.
    pub fn write_bytes(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = path.as_ref();
        let mut temp = path.as_os_str().to_owned();
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        temp.push(format!(".{}.{unique}.tmp", std::process::id()));
        let written = fs::File::create(&temp).and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        });
        let renamed = written.and_then(|()| fs::rename(&temp, path));
        if renamed.is_err() {
            let _ = fs::remove_file(&temp);
        }
        renamed?;
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    }

    /// Rewrite a snapshot file incrementally: shard sections whose
    /// generation is unchanged since the file was last written are
    /// copied from it byte-for-byte instead of re-encoded (a mutated
    /// shard rewrites alone). A missing or stale previous file falls
    /// back to a full write. The file is replaced atomically, as
    /// [`Snapshot::write_bytes`] does. Returns how many shard sections
    /// were reused.
    pub fn write_update(
        path: impl AsRef<Path>,
        index: &MatchIndex,
        options: &ComposeOptions,
    ) -> Result<usize, SnapshotError> {
        let path = path.as_ref();
        let previous = fs::read(path).ok();
        let (bytes, reused) = Snapshot::encode_update(index, options, previous.as_deref());
        Snapshot::write_bytes(path, &bytes)?;
        Ok(reused)
    }

    /// Decode the header and section table and verify the header
    /// checksum; returns the info plus every section's tag, byte range
    /// and stored checksum. The payload lengths must fill the file
    /// exactly. Payload checksums are not checked here (see
    /// [`Snapshot::verify`]).
    fn header(bytes: &[u8]) -> Result<(SnapshotInfo, Vec<Section>), SnapshotError> {
        let mut r = Reader::new(bytes);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = r.u8("magic").map_err(|_| SnapshotError::BadMagic)?;
        }
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32("version").map_err(corrupt)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let semantics = semantics_from_tag(r.u8("semantics").map_err(corrupt)?)?;
        let fingerprint = r.u64("fingerprint").map_err(corrupt)?;
        let models = r.count(0, "model count").map_err(corrupt)?;
        let generation = r.u64("index generation").map_err(corrupt)?;
        // Each shard entry is 8 + 5×4 = 28 header bytes, so the count is
        // bounded by the bytes actually present before any allocation.
        let nshards = r.count(28, "shard count").map_err(corrupt)?;
        let mut shards = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            shards.push(SnapshotShardInfo {
                generation: r.u64("shard generation").map_err(corrupt)?,
                live: r.count(0, "shard live count").map_err(corrupt)?,
                dead: r.count(0, "shard tombstone count").map_err(corrupt)?,
                node_postings: r.count(0, "shard node posting count").map_err(corrupt)?,
                edge_postings: r.count(0, "shard edge posting count").map_err(corrupt)?,
                participant_postings: r
                    .count(0, "shard participant posting count")
                    .map_err(corrupt)?,
            });
        }
        // Each table entry is 1 + 8 + 8 = 17 bytes.
        let nsec = r.count(17, "section count").map_err(corrupt)?;
        let mut table = Vec::with_capacity(nsec);
        let mut declared: u64 = 0;
        for _ in 0..nsec {
            let tag = r.u8("section tag").map_err(corrupt)?;
            let len = r.u64("section length").map_err(corrupt)?;
            let sum = r.u64("section checksum").map_err(corrupt)?;
            declared = declared.saturating_add(len);
            table.push((tag, len, sum));
        }
        let header_len = bytes.len() - r.remaining();
        let stored = r.u64("header checksum").map_err(corrupt)?;
        if checksum(bytes.get(..header_len).unwrap_or_default()) != stored {
            return Err(corrupt("header checksum mismatch".into()));
        }
        // Every declared section length is capped against the bytes
        // actually in the file before anything is sliced or allocated,
        // and together they must account for every byte that follows.
        if declared != r.remaining() as u64 {
            return Err(corrupt(format!(
                "section table declares {declared} payload byte(s) but {} follow the header",
                r.remaining(),
            )));
        }
        let mut offset = bytes.len() - r.remaining();
        let mut sections = Vec::with_capacity(table.len());
        for (tag, len, sum) in table {
            sections.push(Section { tag, range: offset..offset + len as usize, checksum: sum });
            offset += len as usize;
        }
        let sum = |f: fn(&SnapshotShardInfo) -> usize| shards.iter().map(f).sum();
        let info = SnapshotInfo {
            version,
            semantics,
            fingerprint,
            models,
            generation,
            node_postings: sum(|s| s.node_postings),
            edge_postings: sum(|s| s.edge_postings),
            participant_postings: sum(|s| s.participant_postings),
            shards,
            bytes: bytes.len(),
        };
        Ok((info, sections))
    }

    /// Check each section's payload against its stored checksum.
    fn verify<'s>(
        bytes: &[u8],
        sections: impl IntoIterator<Item = &'s Section>,
    ) -> Result<(), SnapshotError> {
        for section in sections {
            let payload = bytes.get(section.range.clone()).unwrap_or_default();
            if checksum(payload) != section.checksum {
                return Err(corrupt(format!(
                    "section at bytes {:?} (tag {}) fails its checksum",
                    section.range, section.tag
                )));
            }
        }
        Ok(())
    }

    /// Read the header of a snapshot file — version, fingerprint, model
    /// and posting counts — without decoding the payload.
    pub fn inspect(path: impl AsRef<Path>) -> Result<SnapshotInfo, SnapshotError> {
        Snapshot::inspect_bytes(&fs::read(path)?)
    }

    /// [`Snapshot::inspect`] over bytes already in memory.
    pub fn inspect_bytes(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
        Ok(Snapshot::header(bytes)?.0)
    }

    /// Load a snapshot file under explicitly supplied options (they must
    /// fingerprint-match the snapshot). `threads` bounds the query
    /// thread pool of the rebuilt index (`0` = one per core).
    pub fn load(
        path: impl AsRef<Path>,
        options: &ComposeOptions,
        threads: usize,
    ) -> Result<LoadedSnapshot, SnapshotError> {
        Snapshot::load_bytes(&fs::read(path)?, options, threads)
    }

    /// Load a snapshot file using the preset options its semantics byte
    /// denotes — the CLI path, where options always come from
    /// `--semantics`.
    pub fn load_auto(
        path: impl AsRef<Path>,
        threads: usize,
    ) -> Result<LoadedSnapshot, SnapshotError> {
        let bytes = fs::read(path)?;
        let (info, _) = Snapshot::header(&bytes)?;
        let options = preset_options(info.semantics);
        Snapshot::load_bytes(&bytes, &options, threads)
    }

    /// Check the header and the options, copy `bytes` into a shared
    /// image and locate the sections; the payload checksums are left to
    /// the caller, which verifies each section before decoding it.
    fn open(bytes: &[u8], options: &ComposeOptions) -> Result<Opened, SnapshotError> {
        let started = Instant::now();
        let (info, sections) = Snapshot::header(bytes)?;
        let expected = options.fingerprint().stable_hash();
        if info.fingerprint != expected {
            return Err(SnapshotError::FingerprintMismatch {
                expected,
                found: info.fingerprint,
            });
        }
        if options.semantics != info.semantics {
            return Err(corrupt(
                "semantics byte disagrees with options of the same fingerprint".into(),
            ));
        }
        let parts = Parts::find(&sections, &info)?;
        // One copy, then every check reads the copy: what is verified is
        // exactly what the lazy models will decode from.
        let image = ModelImage::new(Arc::from(bytes), options, read_record, record_ids);
        let copy_s = started.elapsed().as_secs_f64();
        Ok(Opened { image, info, sections, parts, copy_s })
    }

    /// [`Snapshot::load`] over bytes already in memory — the corruption
    /// property tests drive this directly. The bytes are copied once
    /// into the image the loaded models decode from; no model is
    /// decoded here (see the [module docs](self)). The posting side
    /// (SHARD sections) and the rest (MODELS table, LAYOUT) are
    /// independent byte ranges, so with two lanes (`threads` 0 on a
    /// multi-core host, or ≥ 2) each side verifies and decodes its own
    /// sections beside the other.
    pub fn load_bytes(
        bytes: &[u8],
        options: &ComposeOptions,
        threads: usize,
    ) -> Result<LoadedSnapshot, SnapshotError> {
        let opened = Snapshot::open(bytes, options)?;
        let info = &opened.info;
        let parts = &opened.parts;
        let front = || {
            let mut mark = Instant::now();
            opened.verify(|tag| tag != SECTION_SHARD)?;
            let checksums_s = lap(&mut mark);
            let cluster = parts.cluster.as_ref().map(|c| read_cluster(opened.bytes(c)));
            let corpus = read_models(&opened.image, parts.models.clone(), info.models)
                .map_err(corrupt)?;
            let models_s = lap(&mut mark);
            let layout = decode_layout(opened.bytes(&parts.layout))?;
            Ok((cluster.transpose()?, corpus, layout, [checksums_s, models_s, lap(&mut mark)]))
        };
        let back = || {
            let mut mark = Instant::now();
            opened.verify(|tag| tag == SECTION_SHARD)?;
            let checksums_s = lap(&mut mark);
            let decoded = (parts.shards.iter().zip(&info.shards).enumerate())
                .map(|(i, (section, si))| decode_shard(i, opened.bytes(section), si))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((decoded, [checksums_s, lap(&mut mark)]))
        };
        let ((cluster, corpus, (live, graphs), front_s), (raw_shards, back_s)) =
            side_by_side(threads, front, back)?;
        let [front_checks_s, models_s, layout_s] = front_s;
        let [back_checks_s, shards_s] = back_s;
        let mut mark = Instant::now();

        let raw_index =
            RawIndex { generation: info.generation, live, graphs, shards: raw_shards };
        let index = MatchIndex::from_raw(raw_index, &corpus, options, threads)
            .map_err(|e| corrupt(format!("index: {e}")))?;
        if let Some(c) = &cluster {
            // The file's local slot universe must account for exactly
            // the global slots its residue class owns — anything else
            // means the shard would drop or invent slot ownership.
            let local = index.slot_universe() as u64;
            if local != c.owned_slots() {
                return Err(corrupt(format!(
                    "CLUSTER section claims shard {}/{} of a {}-slot universe \
                     (owning {} slot(s)) but the file holds {local} slot(s)",
                    c.shard,
                    c.shards,
                    c.universe,
                    c.owned_slots(),
                )));
            }
        }
        let index_s = lap(&mut mark);
        let checksums_s = opened.copy_s + front_checks_s + back_checks_s;
        let stages = LoadStages { checksums_s, models_s, layout_s, shards_s, index_s };
        Ok(LoadedSnapshot {
            corpus,
            index,
            options: options.clone(),
            info: opened.info,
            cluster,
            stages,
        })
    }

    /// Read just the CLUSTER identity of a snapshot file, if it has one
    /// — `None` for ordinary standalone snapshots. Decodes only the
    /// header and the (16-byte) CLUSTER payload.
    pub fn cluster_info(path: impl AsRef<Path>) -> Result<Option<ClusterInfo>, SnapshotError> {
        Snapshot::cluster_info_bytes(&fs::read(path)?)
    }

    /// [`Snapshot::cluster_info`] over bytes already in memory.
    pub fn cluster_info_bytes(bytes: &[u8]) -> Result<Option<ClusterInfo>, SnapshotError> {
        let (_, sections) = Snapshot::header(bytes)?;
        let Some(section) = sections.iter().find(|section| section.tag == SECTION_CLUSTER) else {
            return Ok(None);
        };
        Snapshot::verify(bytes, [section])?;
        read_cluster(bytes.get(section.range.clone()).unwrap_or_default()).map(Some)
    }

    /// Split a full snapshot into one standalone per-shard snapshot per
    /// physical shard. Each output is an ordinary single-shard file
    /// (loadable by any reader of this format) plus a CLUSTER section
    /// recording its identity, so a shard daemon (`sbmlcompose serve
    /// <part>`) starts from it without reading the other partitions at
    /// all. The owned models' records are copied, not decoded.
    pub fn split(path: impl AsRef<Path>) -> Result<Vec<Vec<u8>>, SnapshotError> {
        Snapshot::split_bytes(&fs::read(path)?)
    }

    /// [`Snapshot::split`] over bytes already in memory: one verified
    /// load, then each shard cut by [`MatchIndex::carve_shard`] and
    /// encoded with its CLUSTER identity.
    pub fn split_bytes(bytes: &[u8]) -> Result<Vec<Vec<u8>>, SnapshotError> {
        let (info, _) = Snapshot::header(bytes)?;
        let loaded = Snapshot::load_bytes(bytes, &preset_options(info.semantics), 1)?;
        let (index, options) = (&loaded.index, &loaded.options);
        let shards = index.shard_count();
        let universe = index.slot_universe() as u64;
        (0..shards)
            .map(|shard| {
                let part = index
                    .carve_shard(shard, options, 1)
                    .map_err(|e| corrupt(format!("shard {shard}: {e}")))?;
                let cluster = ClusterInfo { shard, shards, universe };
                Ok(Snapshot::encode_with(&part, options, None, Some(&cluster)).0)
            })
            .collect()
    }
}
