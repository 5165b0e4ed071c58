//! Binary partial-result bodies for the cluster-internal `PMATCH` /
//! `PQUERY` verbs ([`crate::protocol::Request::PartialMatch`] /
//! [`crate::protocol::Request::PartialQuery`]).
//!
//! A shard daemon owns a contiguous *local* rank space but a sparse
//! residue class of the *global* slot space (`slot % n == shard`).
//! Rendered text answers index models by local rank, which is
//! meaningless to a coordinator; these bodies instead carry every hit as
//! a `(global slot, model id, payload)` tuple, encoded with the
//! bounds-checked [`crate::codec`] primitives. Because global slots
//! totally order the cluster-wide corpus, a coordinator can merge shard
//! answers by plain sorting — slot-ascending for exact hits and
//! candidates, `(score desc, slot asc)` for approximate hits — and
//! reproduce the single-process [`sbml_match::MatchIndex`] gather
//! bit-for-bit without ranks ever crossing the wire.
//!
//! Decoding is written against hostile peers (a confused or malicious
//! shard): counts are validated against remaining bytes before
//! allocation, strings must be UTF-8, and trailing bytes are an error.

use sbml_match::CorpusMatches;

use crate::codec::{Reader, Writer};

/// A model reference in a partial answer: its global slot and SBML id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotEntry {
    /// Global slot id (totally ordered across the cluster).
    pub slot: u64,
    /// The model's SBML id, used verbatim as its label in merged output.
    pub id: String,
}

/// An exact embedding found by one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactEntry {
    /// Global slot of the matched corpus model.
    pub slot: u64,
    /// The matched model's SBML id.
    pub id: String,
    /// Witness species mapping, query id → target id, in witness order.
    pub species: Vec<(String, String)>,
    /// Witness reaction mapping, query id → target id, in witness order.
    pub reactions: Vec<(String, String)>,
}

/// One approximately ranked hit from a shard's local top-k.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxEntry {
    /// Global slot of the scored corpus model.
    pub slot: u64,
    /// The scored model's SBML id.
    pub id: String,
    /// Combined score (mean of Jaccard and mapped fraction).
    pub score: f64,
    /// Content-key Jaccard similarity.
    pub jaccard: f64,
    /// Fraction of query keys present in the model.
    pub mapped_fraction: f64,
}

/// One shard's share of a `MATCH` answer.
///
/// Invariants the producing daemon upholds (a merging coordinator
/// re-sorts rather than trusting them, so a hostile shard can skew only
/// its own answers): `exact`, `truncated` and `failed` ascend by slot;
/// `approximate` is the shard's local top-k in `(score desc, slot asc)`
/// order and is non-empty only when the shard found no exact hit — the
/// same "rank only on a miss" rule the single-process gather applies
/// globally, which the coordinator restores by discarding every
/// approximate list as soon as any shard reports an exact hit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartialMatches {
    /// Exact embeddings, slot-ascending.
    pub exact: Vec<ExactEntry>,
    /// Candidates whose refinement ran out of budget/deadline.
    pub truncated: Vec<SlotEntry>,
    /// Candidates whose refinement panicked (contained).
    pub failed: Vec<SlotEntry>,
    /// Local top-k approximate hits; empty when `exact` is non-empty.
    pub approximate: Vec<ApproxEntry>,
}

/// One shard's share of a `QUERY` answer: the candidates surviving its
/// posting-list intersection, slot-ascending.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartialCandidates {
    /// Live models this shard serves.
    pub live: u64,
    /// Surviving candidates, slot-ascending.
    pub candidates: Vec<SlotEntry>,
}

fn write_slot_entries(w: &mut Writer, entries: &[SlotEntry]) {
    w.count(entries.len());
    for e in entries {
        w.u64(e.slot);
        w.str(&e.id);
    }
}

fn read_slot_entries(r: &mut Reader<'_>, what: &str) -> Result<Vec<SlotEntry>, String> {
    let n = r.count(12, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(SlotEntry { slot: r.u64(what)?, id: r.str(what)? });
    }
    Ok(out)
}

fn write_pairs(w: &mut Writer, pairs: &[(String, String)]) {
    w.count(pairs.len());
    for (q, t) in pairs {
        // Query-side ids repeat across every hit of one answer — interned.
        w.key(q);
        w.str(t);
    }
}

fn read_pairs(r: &mut Reader<'_>, what: &str) -> Result<Vec<(String, String)>, String> {
    let n = r.count(8, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let q = r.key_string(what)?;
        let t = r.str(what)?;
        out.push((q, t));
    }
    Ok(out)
}

/// Borrowed id pairs as owned ones.
fn owned<'p>(pairs: impl Iterator<Item = (&'p str, &'p str)>) -> Vec<(String, String)> {
    pairs.map(|(q, t)| (q.to_owned(), t.to_owned())).collect()
}

impl PartialMatches {
    /// Translate a shard-local [`CorpusMatches`] into the wire form.
    /// `ids[m]` / `slots[m]` are the id and global slot of local rank
    /// `m` — the daemon's positional tables, kept in lockstep with its
    /// index.
    pub fn from_result(result: &CorpusMatches, ids: &[String], slots: &[u64]) -> PartialMatches {
        let entry = |m: usize| SlotEntry { slot: slots[m], id: ids[m].clone() };
        PartialMatches {
            exact: result
                .exact
                .iter()
                .map(|hit| ExactEntry {
                    slot: slots[hit.model],
                    id: ids[hit.model].clone(),
                    species: owned(hit.embedding.species()),
                    reactions: owned(hit.embedding.reactions()),
                })
                .collect(),
            truncated: result.truncated.iter().map(|&m| entry(m)).collect(),
            failed: result.failed.iter().map(|&m| entry(m)).collect(),
            approximate: result
                .approximate
                .iter()
                .map(|hit| ApproxEntry {
                    slot: slots[hit.model],
                    id: ids[hit.model].clone(),
                    score: hit.score,
                    jaccard: hit.jaccard,
                    mapped_fraction: hit.mapped_fraction,
                })
                .collect(),
        }
    }

    /// Encode as a response body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.count(self.exact.len());
        for e in &self.exact {
            w.u64(e.slot);
            w.str(&e.id);
            write_pairs(&mut w, &e.species);
            write_pairs(&mut w, &e.reactions);
        }
        write_slot_entries(&mut w, &self.truncated);
        write_slot_entries(&mut w, &self.failed);
        w.count(self.approximate.len());
        for a in &self.approximate {
            w.u64(a.slot);
            w.str(&a.id);
            w.f64(a.score);
            w.f64(a.jaccard);
            w.f64(a.mapped_fraction);
        }
        w.into_bytes()
    }

    /// Decode a response body; the exact inverse of
    /// [`PartialMatches::encode`]. Trailing bytes are an error.
    pub fn decode(bytes: &[u8]) -> Result<PartialMatches, String> {
        let mut r = Reader::new(bytes);
        let n = r.count(20, "exact hits")?;
        let mut exact = Vec::with_capacity(n);
        for _ in 0..n {
            exact.push(ExactEntry {
                slot: r.u64("exact slot")?,
                id: r.str("exact id")?,
                species: read_pairs(&mut r, "exact species pair")?,
                reactions: read_pairs(&mut r, "exact reaction pair")?,
            });
        }
        let truncated = read_slot_entries(&mut r, "truncated entry")?;
        let failed = read_slot_entries(&mut r, "failed entry")?;
        let n = r.count(36, "approximate hits")?;
        let mut approximate = Vec::with_capacity(n);
        for _ in 0..n {
            approximate.push(ApproxEntry {
                slot: r.u64("approx slot")?,
                id: r.str("approx id")?,
                score: r.f64("approx score")?,
                jaccard: r.f64("approx jaccard")?,
                mapped_fraction: r.f64("approx mapped fraction")?,
            });
        }
        if !r.is_done() {
            return Err(format!("partial match body: {} trailing byte(s)", r.remaining()));
        }
        Ok(PartialMatches { exact, truncated, failed, approximate })
    }
}

impl PartialCandidates {
    /// Build from a shard-local candidate list (local ranks, ascending).
    pub fn from_candidates(candidates: &[usize], ids: &[String], slots: &[u64]) -> PartialCandidates {
        PartialCandidates {
            live: slots.len() as u64,
            candidates: candidates
                .iter()
                .map(|&m| SlotEntry { slot: slots[m], id: ids[m].clone() })
                .collect(),
        }
    }

    /// Encode as a response body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.live);
        write_slot_entries(&mut w, &self.candidates);
        w.into_bytes()
    }

    /// Decode a response body. Trailing bytes are an error.
    pub fn decode(bytes: &[u8]) -> Result<PartialCandidates, String> {
        let mut r = Reader::new(bytes);
        let live = r.u64("partial live count")?;
        let candidates = read_slot_entries(&mut r, "candidate entry")?;
        if !r.is_done() {
            return Err(format!("partial candidates body: {} trailing byte(s)", r.remaining()));
        }
        Ok(PartialCandidates { live, candidates })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matches() -> PartialMatches {
        PartialMatches {
            exact: vec![ExactEntry {
                slot: 4,
                id: "BIOMD4".into(),
                species: vec![("a".into(), "x".into()), ("b".into(), "y".into())],
                reactions: vec![("r".into(), "s".into())],
            }],
            truncated: vec![SlotEntry { slot: 8, id: "BIOMD8".into() }],
            failed: vec![],
            approximate: vec![ApproxEntry {
                slot: 12,
                id: "BIOMD12".into(),
                score: 0.625,
                jaccard: 0.5,
                mapped_fraction: 0.75,
            }],
        }
    }

    #[test]
    fn partial_matches_round_trip() {
        let part = sample_matches();
        let bytes = part.encode();
        assert_eq!(PartialMatches::decode(&bytes).as_ref(), Ok(&part));
        // Empty answers round-trip too (the common "this shard has
        // nothing" frame).
        let empty = PartialMatches::default();
        assert_eq!(PartialMatches::decode(&empty.encode()).as_ref(), Ok(&empty));
    }

    #[test]
    fn partial_candidates_round_trip() {
        let part = PartialCandidates {
            live: 5,
            candidates: vec![
                SlotEntry { slot: 0, id: "m0".into() },
                SlotEntry { slot: 15, id: "m15".into() },
            ],
        };
        assert_eq!(PartialCandidates::decode(&part.encode()).as_ref(), Ok(&part));
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = sample_matches().encode();
        for cut in 0..bytes.len() {
            assert!(PartialMatches::decode(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(PartialMatches::decode(&padded).is_err(), "trailing byte");
    }

    #[test]
    fn from_result_translates_ranks_to_slots() {
        use sbml_match::{ApproxHit, CorpusHit, CorpusMatches, Embedding};
        let result = CorpusMatches {
            exact: vec![CorpusHit {
                model: 1,
                embedding: Embedding::from_pairs(&[("q", "t")], &[]),
            }],
            approximate: vec![ApproxHit { model: 0, score: 0.5, jaccard: 0.5, mapped_fraction: 0.5 }],
            candidates: vec![0, 1],
            truncated: vec![0],
            failed: vec![],
        };
        let ids = vec!["m0".to_owned(), "m1".to_owned()];
        let slots = vec![2u64, 5u64];
        let part = PartialMatches::from_result(&result, &ids, &slots);
        assert_eq!(part.exact[0].slot, 5);
        assert_eq!(part.exact[0].id, "m1");
        assert_eq!(part.truncated[0].slot, 2);
        assert_eq!(part.approximate[0].slot, 2);
        let cand = PartialCandidates::from_candidates(&result.candidates, &ids, &slots);
        assert_eq!(
            cand.candidates.iter().map(|e| e.slot).collect::<Vec<_>>(),
            vec![2, 5],
        );
    }
}
