//! Corpus models decoded on first touch.
//!
//! A [`MatchIndex`](crate::MatchIndex) loaded from a persisted image
//! does not need every model's preparation to start answering: candidate
//! generation and refinement read only the posting lists and the match
//! graphs, and a model's preparation is needed only once the model is a
//! hit to render, a near miss to score, or a shard to carve. So each
//! corpus slot holds a [`LazyModel`]: either a preparation already in
//! memory (built, inserted), or the byte range of the model's record in
//! a shared [`ModelImage`] plus a once-cell that the first reader fills
//! with the decoded [`PreparedModel`]. Every reader decodes through that
//! one cell, so a model is decoded at most once however many threads or
//! carved indexes share it (clones of a handle share the cell), and the
//! decode is the image's own function — the same one an eager load
//! would run — so a lazily decoded model is exactly the model the image
//! stores.
//!
//! A hit's witness needs only the target's species and reaction ids,
//! so the handle also answers [`LazyModel::ids`] from the record's id
//! directory ([`IdDirectory`], which the image's own function locates
//! and this module checks once), read in place with no allocation and
//! without building the preparation. A corpus that is only ever searched
//! therefore never holds decoded models at all.
//!
//! A record that fails to decode is reported, never papered over: the
//! failure is cached with the handle and every later reader gets the
//! same error.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use sbml_compose::{ComposeOptions, OptionsFingerprint, PreparedModel};
use sbml_model::Model;

/// Decodes one model record of a [`ModelImage`] under the image's
/// options. Must not panic on any input.
pub type DecodeFn = fn(&[u8], &ComposeOptions) -> Result<PreparedModel, String>;

/// Checks one model record of a [`ModelImage`] and returns the byte
/// offset of its [`IdDirectory`] within the record, without decoding
/// the model. Must not panic on any input; the directory itself is
/// checked by [`IdDirectory::read`].
pub type IdsFn = fn(&[u8]) -> Result<usize, String>;

/// A model's species and reaction ids laid out for reading in place:
/// the species count and the reaction count (u32 each), one u32 end
/// offset per id (species first, then reactions, relative to the first
/// id byte), then the ids' UTF-8 bytes back to back — all
/// little-endian. Id `i` is found in O(1) with no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdDirectory {
    species: u32,
    reactions: u32,
}

impl IdDirectory {
    /// Append `model`'s id directory to `out`.
    pub fn write(out: &mut Vec<u8>, model: &Model) {
        let ids = || {
            let species = model.species.iter().map(|s| s.id.as_str());
            species.chain(model.reactions.iter().map(|r| r.id.as_str()))
        };
        out.extend_from_slice(&(model.species.len() as u32).to_le_bytes());
        out.extend_from_slice(&(model.reactions.len() as u32).to_le_bytes());
        let mut end = 0u32;
        for id in ids() {
            end += id.len() as u32;
            out.extend_from_slice(&end.to_le_bytes());
        }
        for id in ids() {
            out.extend_from_slice(id.as_bytes());
        }
    }

    /// Check the directory at the start of `bytes` — counts and offsets
    /// within the bytes present, offsets ascending, every id UTF-8 — and
    /// return it with its length in bytes.
    ///
    /// # Errors
    /// If any of those checks fails.
    pub fn read(bytes: &[u8]) -> Result<(IdDirectory, usize), String> {
        let word = |at: usize| -> Result<usize, String> {
            let b = bytes.get(at..at + 4).ok_or("id directory: truncated")?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
        };
        let (species, reactions) = (word(0)?, word(4)?);
        let ids = species.checked_add(reactions).ok_or("id directory: count overflow")?;
        let data = ids
            .checked_mul(4)
            .and_then(|table| table.checked_add(8))
            .filter(|&data| data <= bytes.len())
            .ok_or("id directory: offset table exceeds the record")?;
        let mut start = 0;
        for i in 0..ids {
            let end = word(8 + 4 * i)?;
            let id = (start <= end)
                .then(|| bytes.get(data + start..data + end))
                .flatten()
                .ok_or_else(|| format!("id directory: id {i} ends at {end}, outside its bytes"))?;
            std::str::from_utf8(id).map_err(|_| format!("id directory: id {i} is not UTF-8"))?;
            start = end;
        }
        let directory = IdDirectory { species: species as u32, reactions: reactions as u32 };
        Ok((directory, data + start))
    }

    /// Id `i` (species, then reactions) of the directory at the start of
    /// `bytes`, which [`IdDirectory::read`] accepted; empty out of range.
    fn id(self, bytes: &[u8], i: usize) -> &str {
        let ids = self.species as usize + self.reactions as usize;
        let end = |k: usize| -> Option<usize> {
            let b = bytes.get(8 + 4 * k..12 + 4 * k)?;
            Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
        };
        let data = 8 + 4 * ids;
        let range = match i {
            i if i >= ids => None,
            0 => end(0).map(|e| data..data + e),
            i => end(i - 1).zip(end(i)).map(|(s, e)| data + s..data + e),
        };
        range
            .and_then(|r| bytes.get(r))
            .and_then(|id| std::str::from_utf8(id).ok())
            .unwrap_or_default()
    }
}

/// A shared byte image holding encoded corpus models, the options they
/// were prepared under, and the functions that decode one record and
/// find its ids.
pub struct ModelImage {
    bytes: Arc<[u8]>,
    options: ComposeOptions,
    fingerprint: OptionsFingerprint,
    decode: DecodeFn,
    ids: IdsFn,
}

impl ModelImage {
    /// Wrap `bytes`, whose model records decode with `decode` under
    /// `options` and keep their ids where `ids` says.
    pub fn new(
        bytes: Arc<[u8]>,
        options: &ComposeOptions,
        decode: DecodeFn,
        ids: IdsFn,
    ) -> Arc<ModelImage> {
        Arc::new(ModelImage {
            bytes,
            options: options.clone(),
            fingerprint: options.fingerprint(),
            decode,
            ids,
        })
    }

    /// The whole image.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// A corpus model, decoded the first time something reads it; see the
/// [module docs](self). Cloning shares the handle (and its decode).
#[derive(Clone)]
pub struct LazyModel(Handle);

#[derive(Clone)]
enum Handle {
    /// Born decoded: built or inserted from a preparation.
    Prepared(Arc<PreparedModel>),
    /// A record in an image, decoded on first touch.
    Encoded(Arc<Encoded>),
}

struct Encoded {
    id: Box<str>,
    image: Arc<ModelImage>,
    range: Range<usize>,
    decoded: OnceLock<Result<Arc<PreparedModel>, Box<Failure>>>,
    /// The checked id directory and its offset in the record.
    ids: OnceLock<Result<(usize, IdDirectory), String>>,
}

/// A record that did not decode: the error, and an empty model carrying
/// only the id for [`LazyModel::model`].
struct Failure {
    error: String,
    stub: Model,
}

impl From<Arc<PreparedModel>> for LazyModel {
    fn from(prepared: Arc<PreparedModel>) -> LazyModel {
        LazyModel(Handle::Prepared(prepared))
    }
}

impl LazyModel {
    /// The model `id` whose record is `range` of `image`, not decoded
    /// yet.
    ///
    /// # Errors
    /// If `range` does not lie inside the image.
    pub fn encoded(
        id: impl Into<Box<str>>,
        image: &Arc<ModelImage>,
        range: Range<usize>,
    ) -> Result<LazyModel, String> {
        let id = id.into();
        if range.start > range.end || range.end > image.bytes.len() {
            return Err(format!(
                "model {id:?}: record {range:?} lies outside the {}-byte image",
                image.bytes.len()
            ));
        }
        Ok(LazyModel(Handle::Encoded(Arc::new(Encoded {
            id,
            image: Arc::clone(image),
            range,
            decoded: OnceLock::new(),
            ids: OnceLock::new(),
        }))))
    }

    /// The model's id — known without decoding.
    pub fn id(&self) -> &str {
        match &self.0 {
            Handle::Prepared(p) => &p.model().id,
            Handle::Encoded(e) => &e.id,
        }
    }

    /// The fingerprint of the options the model was prepared under —
    /// known without decoding.
    pub fn fingerprint(&self) -> OptionsFingerprint {
        match &self.0 {
            Handle::Prepared(p) => p.fingerprint(),
            Handle::Encoded(e) => e.image.fingerprint,
        }
    }

    /// The preparation, decoding it on the first call.
    ///
    /// # Errors
    /// If the model's record does not decode, or decodes to a model with
    /// another id. The failure is cached: every call returns it.
    pub fn prepared(&self) -> Result<&Arc<PreparedModel>, &str> {
        match &self.0 {
            Handle::Prepared(p) => Ok(p),
            Handle::Encoded(e) => match e.decoded.get_or_init(|| e.decode()) {
                Ok(p) => Ok(p),
                Err(failure) => Err(&failure.error),
            },
        }
    }

    /// The model, decoding it on the first call. A model whose record
    /// does not decode reads as an empty model carrying only its id:
    /// readers whose answer depends on the contents go through
    /// [`LazyModel::prepared`], which reports the failure.
    pub fn model(&self) -> &Model {
        match &self.0 {
            Handle::Prepared(p) => p.model(),
            Handle::Encoded(e) => match e.decoded.get_or_init(|| e.decode()) {
                Ok(p) => p.model(),
                Err(failure) => &failure.stub,
            },
        }
    }

    /// The model's species and reaction ids, read from its record's id
    /// directory on the first call — no preparation is built.
    ///
    /// # Errors
    /// If the record's id directory cannot be read (the failure is
    /// cached).
    pub fn ids(&self) -> Result<ModelIds<'_>, &str> {
        match &self.0 {
            Handle::Prepared(p) => Ok(ModelIds(IdSource::Model(p.model()))),
            Handle::Encoded(e) => {
                let found = e.ids.get_or_init(|| {
                    let record = e.record();
                    let at = (e.image.ids)(record)?;
                    let (directory, _) = IdDirectory::read(record.get(at..).unwrap_or_default())?;
                    Ok((at, directory))
                });
                match found {
                    Ok((at, directory)) => Ok(ModelIds(IdSource::Record(
                        e.record().get(*at..).unwrap_or_default(),
                        *directory,
                    ))),
                    Err(error) => Err(error),
                }
            }
        }
    }

    /// True once the preparation is in memory (always for a model that
    /// was never encoded).
    pub fn is_decoded(&self) -> bool {
        match &self.0 {
            Handle::Prepared(_) => true,
            Handle::Encoded(e) => matches!(e.decoded.get(), Some(Ok(_))),
        }
    }

    /// How the model is held, without decoding it: its encoded record
    /// when it came from an image (what a writer of the same format
    /// copies instead of re-encoding), else its preparation.
    pub fn stored(&self) -> Stored<'_> {
        match &self.0 {
            Handle::Prepared(p) => Stored::Prepared(p),
            Handle::Encoded(e) => Stored::Record(e.record()),
        }
    }
}

/// A model's species and reaction ids by position, borrowed from the
/// model or read in place from its record; see [`LazyModel::ids`].
#[derive(Clone, Copy)]
pub struct ModelIds<'a>(IdSource<'a>);

#[derive(Clone, Copy)]
enum IdSource<'a> {
    Model(&'a Model),
    /// The directory's bytes (from its start) and the checked directory.
    Record(&'a [u8], IdDirectory),
}

impl<'a> ModelIds<'a> {
    /// How many species the model has.
    pub fn species_count(&self) -> usize {
        match self.0 {
            IdSource::Model(m) => m.species.len(),
            IdSource::Record(_, directory) => directory.species as usize,
        }
    }

    /// How many reactions the model has.
    pub fn reaction_count(&self) -> usize {
        match self.0 {
            IdSource::Model(m) => m.reactions.len(),
            IdSource::Record(_, directory) => directory.reactions as usize,
        }
    }

    /// The id of species `i` (empty past [`ModelIds::species_count`]).
    pub fn species(&self, i: usize) -> &'a str {
        match self.0 {
            IdSource::Model(m) => m.species.get(i).map_or("", |s| s.id.as_str()),
            IdSource::Record(bytes, directory) if i < directory.species as usize => {
                directory.id(bytes, i)
            }
            IdSource::Record(..) => "",
        }
    }

    /// The id of reaction `i` (empty past [`ModelIds::reaction_count`]).
    pub fn reaction(&self, i: usize) -> &'a str {
        match self.0 {
            IdSource::Model(m) => m.reactions.get(i).map_or("", |r| r.id.as_str()),
            IdSource::Record(bytes, directory) if i < directory.reactions as usize => {
                directory.id(bytes, directory.species as usize + i)
            }
            IdSource::Record(..) => "",
        }
    }
}

/// What [`LazyModel::stored`] returns.
pub enum Stored<'a> {
    /// The model's record in its image, decoded or not.
    Record(&'a [u8]),
    /// A preparation that was never encoded.
    Prepared(&'a Arc<PreparedModel>),
}

impl Encoded {
    fn record(&self) -> &[u8] {
        // In bounds: `LazyModel::encoded` checked the range.
        &self.image.bytes[self.range.clone()]
    }

    fn decode(&self) -> Result<Arc<PreparedModel>, Box<Failure>> {
        let image = &self.image;
        let checked = (image.decode)(self.record(), &image.options).and_then(|p| {
            if p.model().id == *self.id {
                Ok(Arc::new(p))
            } else {
                Err(format!("record decodes to model {:?}", p.model().id))
            }
        });
        checked.map_err(|error| {
            Box::new(Failure {
                error: format!("model {:?}: {error}", self.id),
                stub: Model::new(self.id.to_string()),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_model::builder::ModelBuilder;

    /// A toy record format: the model id as UTF-8, which is also the id
    /// of the model's one species.
    fn decode_id(record: &[u8], options: &ComposeOptions) -> Result<PreparedModel, String> {
        let id = std::str::from_utf8(record).map_err(|_| "invalid UTF-8".to_owned())?;
        if id.is_empty() {
            return Err("empty record".into());
        }
        let model = ModelBuilder::new(id).compartment("c", 1.0).species(id, 0.0).build();
        Ok(PreparedModel::from_model(model, options))
    }

    /// The bare-id toy format has no id directory.
    fn no_directory(_: &[u8]) -> Result<usize, String> {
        Err("no id directory".into())
    }

    fn image(bytes: &[u8]) -> Arc<ModelImage> {
        ModelImage::new(Arc::from(bytes), &ComposeOptions::default(), decode_id, no_directory)
    }

    /// A toy record format with a directory: the directory of a model
    /// whose id is its one species, then nothing.
    fn directory_record(record: &[u8], options: &ComposeOptions) -> Result<PreparedModel, String> {
        let (directory, len) = IdDirectory::read(record)?;
        if len != record.len() || directory.species != 1 {
            return Err("not a one-species directory".into());
        }
        decode_id(directory.id(record, 0).as_bytes(), options)
    }

    fn at_start(_: &[u8]) -> Result<usize, String> {
        Ok(0)
    }

    fn one_species(id: &str) -> Vec<u8> {
        let model = ModelBuilder::new(id).compartment("c", 1.0).species(id, 0.0).build();
        let mut out = Vec::new();
        IdDirectory::write(&mut out, &model);
        out
    }

    #[test]
    fn decodes_once_on_first_touch_and_shares_the_decode() -> Result<(), String> {
        let (m0, m1) = (one_species("m0"), one_species("m1"));
        let bytes = [m0.as_slice(), m1.as_slice()].concat();
        let image = ModelImage::new(
            Arc::from(bytes.as_slice()),
            &ComposeOptions::default(),
            directory_record,
            at_start,
        );
        let model = LazyModel::encoded("m1", &image, m0.len()..bytes.len())?;
        let twin = model.clone();
        assert_eq!(model.id(), "m1");
        assert!(!model.is_decoded(), "construction decodes nothing");
        assert!(matches!(model.stored(), Stored::Record(r) if r == m1.as_slice()));
        let ids = model.ids()?;
        assert_eq!((ids.species_count(), ids.species(0), ids.species(1)), (1, "m1", ""));
        assert_eq!((ids.reaction_count(), ids.reaction(0)), (0, ""));
        assert!(!model.is_decoded(), "ids are read in place");
        let first = model.prepared()?;
        assert!(twin.is_decoded(), "clones share the decode");
        assert!(Arc::ptr_eq(first, twin.prepared()?), "decoded exactly once");
        assert_eq!(model.model().id, "m1");
        Ok(())
    }

    #[test]
    fn failures_are_reported_and_cached_never_substituted() -> Result<(), String> {
        let image = image(b"m0\xffm2");
        let bad = LazyModel::encoded("m1", &image, 2..3)?;
        let error = bad.prepared().err().unwrap_or_default();
        assert!(error.contains("\"m1\"") && error.contains("UTF-8"), "{error}");
        assert_eq!(bad.prepared().err(), Some(error), "the failure is cached");
        assert!(!bad.is_decoded());
        assert_eq!(bad.model().id, "m1", "the stub keeps the id");
        assert!(bad.model().species.is_empty());
        assert!(bad.ids().is_err_and(|e| e.contains("no id directory")), "ids fail too");

        // A record that decodes to another model is a failure too.
        let renamed = LazyModel::encoded("m1", &image, 0..2)?;
        let error = renamed.prepared().err().unwrap_or_default();
        assert!(error.contains("\"m0\""), "{error}");

        assert!(LazyModel::encoded("m9", &image, 3..9).is_err(), "range past the end");
        Ok(())
    }

    #[test]
    fn id_directories_round_trip_and_reject_damage() -> Result<(), String> {
        let model = ModelBuilder::new("m")
            .compartment("c", 1.0)
            .species("A", 1.0)
            .species("glucose_ext", 0.0)
            .parameter("k", 0.1)
            .reaction("r1", &["A"], &["glucose_ext"], "k*A")
            .build();
        let mut bytes = Vec::new();
        IdDirectory::write(&mut bytes, &model);
        let (directory, len) = IdDirectory::read(&bytes)?;
        assert_eq!(len, bytes.len());
        let ids = ModelIds(IdSource::Record(&bytes, directory));
        assert_eq!((ids.species_count(), ids.reaction_count()), (2, 1));
        assert_eq!((ids.species(0), ids.species(1), ids.reaction(0)), ("A", "glucose_ext", "r1"));
        assert_eq!((ids.species(2), ids.reaction(1)), ("", ""));
        for cut in 0..bytes.len() {
            assert!(IdDirectory::read(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut backwards = bytes.clone();
        backwards[12..16].copy_from_slice(&0u32.to_le_bytes());
        assert!(IdDirectory::read(&backwards).is_err(), "offsets must ascend");
        let mut huge = bytes.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(IdDirectory::read(&huge).is_err(), "hostile count");
        let mut garbled = bytes;
        let last = garbled.len() - 1;
        garbled[last] = 0xff;
        assert!(IdDirectory::read(&garbled).is_err(), "ids must be UTF-8");
        Ok(())
    }

    #[test]
    fn born_decoded_models_need_no_image() {
        let options = ComposeOptions::default();
        let p = Arc::new(PreparedModel::from_model(ModelBuilder::new("p").build(), &options));
        let model = LazyModel::from(Arc::clone(&p));
        assert!(model.is_decoded());
        assert_eq!(model.id(), "p");
        assert!(matches!(model.stored(), Stored::Prepared(q) if Arc::ptr_eq(q, &p)));
        assert_eq!(model.fingerprint(), options.fingerprint());
        assert!(model.ids().is_ok_and(|ids| ids.species_count() == 0));
        assert!(model.prepared().is_ok_and(|q| Arc::ptr_eq(q, &p)));
    }
}
