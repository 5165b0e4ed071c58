//! The in-process reference: what a single daemon answers, computed by
//! calling each layer's public functions directly. It is the byte-for-byte
//! oracle for every captured answer, and — with a tracer — the traced
//! replay that yields the per-layer spans.

use std::sync::Arc;

use sbml_compose::{BatchComposer, ComposeOptions, Composer};
use sbml_match::MatchIndex;
use sbml_model::parse_sbml;
use sbml_serve::server::cache_key;
use sbml_serve::{format_matches, QueryCache, Response};

use crate::trace::{SpanId, Tracer};

/// Exact counts the replay accumulates; they must repeat for one seed.
#[derive(Default, Clone, PartialEq, Debug)]
pub struct MatchCounts {
    pub queries: u64,
    pub cache_hits: u64,
    pub candidates: u64,
    pub exact_hits: u64,
    pub compactions: u64,
}

pub struct Reference {
    index: MatchIndex,
    ids: Vec<String>,
    options: ComposeOptions,
    cache: QueryCache,
    batch: BatchComposer,
    pub counts: MatchCounts,
}

fn encode(code: u8, body: Vec<u8>) -> Arc<[u8]> {
    Arc::from(Response::Ok { code, body }.encode().into_boxed_slice())
}

impl Reference {
    /// A reference over `index`, mirroring a daemon whose result cache
    /// holds `cache_capacity` entries (`0`: every MATCH computes).
    pub fn new(index: MatchIndex, options: &ComposeOptions, cache_capacity: usize) -> Reference {
        let ids = index
            .corpus()
            .iter()
            .map(|p| p.model().id.clone())
            .collect();
        Reference {
            index,
            ids,
            options: options.clone(),
            cache: QueryCache::new(cache_capacity),
            batch: BatchComposer::new(Composer::new(options.clone())).with_threads(1),
            counts: MatchCounts::default(),
        }
    }

    /// The daemon's MATCH: parse, cache key, cache lookup, and on a miss
    /// prepare → candidates → match → format. Returns the encoded answer
    /// and whether the daemon's cache would have hit. The candidate
    /// generation is also timed on its own, as `sbml-match.candidates`;
    /// `query_corpus_prepared` repeats it internally.
    pub fn matches(&mut self, xml: &str, tr: &mut Tracer, parent: SpanId) -> (Arc<[u8]>, bool) {
        let query = tr.time("sbml-model.parse", parent, || parse_sbml(xml));
        let Ok(query) = query else {
            return (
                encode(255, b"reference could not parse the query".to_vec()),
                false,
            );
        };
        let key = tr.time("sbml-serve.cache_key", parent, || {
            cache_key("MATCH", &query, &self.options)
        });
        self.counts.queries += 1;
        if let Some(hit) = self.cache.get(&key) {
            self.counts.cache_hits += 1;
            return (hit, true);
        }
        let index = &self.index;
        let prepared = tr.time("sbml-match.prepare_query", parent, || {
            index.prepare_query(&query)
        });
        let candidates = tr.time("sbml-match.candidates", parent, || {
            index.candidates_prepared(&prepared)
        });
        let result = tr.time("sbml-match.query_corpus", parent, || {
            index.query_corpus_prepared(&prepared)
        });
        assert_eq!(
            result.candidates.len(),
            candidates.len(),
            "candidate generation is deterministic"
        );
        self.counts.candidates += candidates.len() as u64;
        self.counts.exact_hits += result.exact.len() as u64;
        let ids = &self.ids;
        let (code, text) = tr.time("sbml-serve.format", parent, || {
            format_matches(&result, ids, ids)
        });
        let answer = encode(code, text.into_bytes());
        self.cache.put(key, Arc::clone(&answer));
        (answer, false)
    }

    /// The daemon's UPSERT: parse, prepare, replace any same-id model,
    /// insert; clears the cache.
    pub fn upsert(&mut self, xml: &str, tr: &mut Tracer, parent: SpanId) -> Arc<[u8]> {
        let Ok(model) = tr.time("sbml-model.parse", parent, || parse_sbml(xml)) else {
            return encode(255, b"reference could not parse the model".to_vec());
        };
        let batch = &self.batch;
        let prepared = tr.time("sbml-compose.prepare", parent, || {
            batch.prepare_corpus(std::slice::from_ref(&model))
        });
        let prepared = prepared
            .into_iter()
            .next()
            .expect("one model in, one preparation out");
        let replaced = self.ids.iter().position(|id| *id == model.id);
        if let Some(rank) = replaced {
            self.remove_rank(rank, tr, parent);
        }
        let index = &mut self.index;
        let rank = tr.time("sbml-match.insert", parent, || index.insert(prepared));
        self.ids.push(model.id.clone());
        self.cache.clear();
        let verb = if replaced.is_some() {
            "replaced"
        } else {
            "inserted"
        };
        encode(
            0,
            format!("{verb} {} model {rank}\n", model.id).into_bytes(),
        )
    }

    /// The daemon's REMOVE by model id; clears the cache on a hit.
    pub fn remove(&mut self, id: &str, tr: &mut Tracer, parent: SpanId) -> Arc<[u8]> {
        let Some(rank) = self.ids.iter().position(|known| known == id) else {
            return encode(1, format!("no such model {id}\n").into_bytes());
        };
        self.remove_rank(rank, tr, parent);
        self.cache.clear();
        encode(0, format!("removed {id}\n").into_bytes())
    }

    fn remove_rank(&mut self, rank: usize, tr: &mut Tracer, parent: SpanId) {
        let pending = |index: &MatchIndex| -> Vec<usize> {
            index
                .shards()
                .iter()
                .map(|s| s.pending_tombstones())
                .collect()
        };
        let before = pending(&self.index);
        let index = &mut self.index;
        tr.time("sbml-match.remove", parent, || index.remove(rank));
        let after = pending(&self.index);
        self.counts.compactions += before.iter().zip(&after).filter(|(b, a)| a < b).count() as u64;
        self.ids.remove(rank);
    }
}
