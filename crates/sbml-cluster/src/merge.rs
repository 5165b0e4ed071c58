//! Gathering per-shard partial answers into the single-process answer.
//!
//! The contract: [`merge_matches`] over the shards' `PMATCH` bodies
//! renders **byte-identical** text (and the same exit code) to
//! [`sbml_serve::format_matches`] over the single-process
//! [`sbml_match::MatchIndex`] result for the same live corpus, labels
//! and ids both being model ids. The ordering argument:
//!
//! * Global slots totally order the cluster corpus, and the
//!   single-process gather sorts exact hits, candidates, truncated and
//!   failed lists by slot before remapping to ranks — so re-sorting the
//!   union of shard lists by slot reproduces it exactly.
//! * Approximate ranking orders by `(score desc, slot asc)` and cuts to
//!   top-k. Each shard ships its local top-k under the same total
//!   order, and the global top-k is a subset of the union of per-shard
//!   top-k lists, so merge-sort-then-truncate is exact. The
//!   single-process index ranks only when *no* exact hit exists
//!   globally; a shard knows only its own corpus, so shards rank on
//!   local misses and the merge discards every approximate list once
//!   any shard reports an exact hit.
//!
//! This module only merges and orders. The merged lists are rendered by
//! the renderers the daemon itself answers through
//! ([`sbml_serve::MatchRows::render`] and
//! [`sbml_serve::format_candidates`]), so each response grammar is
//! written once. The tests in this module check the merge against
//! [`sbml_serve::format_matches`] over the unsplit result.

use sbml_serve::wire::{ApproxEntry, ExactEntry, PartialCandidates, PartialMatches, SlotEntry};
use sbml_serve::{format_candidates, MatchRows, Witness};

/// Merge shard `PMATCH` answers and render the cluster-wide `MATCH`
/// response. `top_k` must equal the shards' configured top-k (the
/// coordinator hands both out of one config). Returns the CLI exit
/// code (0 hit, 1 miss, 4 partial) and the report text.
pub fn merge_matches(parts: &[PartialMatches], top_k: usize) -> (u8, String) {
    merge_match_rows(parts, top_k).render()
}

/// [`merge_matches`] before rendering: the cluster-wide rows.
pub(crate) fn merge_match_rows(parts: &[PartialMatches], top_k: usize) -> MatchRows<'_> {
    let mut exact: Vec<&ExactEntry> = parts.iter().flat_map(|p| p.exact.iter()).collect();
    let mut truncated: Vec<&SlotEntry> =
        parts.iter().flat_map(|p| p.truncated.iter()).collect();
    let mut failed: Vec<&SlotEntry> = parts.iter().flat_map(|p| p.failed.iter()).collect();
    exact.sort_by_key(|e| e.slot);
    truncated.sort_by_key(|e| e.slot);
    failed.sort_by_key(|e| e.slot);
    // "Rank only on a miss" is a *global* property: one exact hit
    // anywhere voids every shard's local approximate ranking.
    let mut approximate: Vec<&ApproxEntry> = if exact.is_empty() {
        parts.iter().flat_map(|p| p.approximate.iter()).collect()
    } else {
        Vec::new()
    };
    approximate.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.slot.cmp(&b.slot)));
    approximate.truncate(top_k);

    // The services label every model by its id.
    MatchRows {
        truncated: truncated.iter().map(|e| (&e.id[..], &e.id[..])).collect(),
        failed: failed.iter().map(|e| (&e.id[..], &e.id[..])).collect(),
        exact: exact
            .iter()
            .map(|e| ((&e.id[..], &e.id[..]), Witness::Pairs(&e.species, &e.reactions)))
            .collect(),
        approximate: approximate
            .iter()
            .map(|a| ((&a.id[..], &a.id[..]), [a.score, a.jaccard, a.mapped_fraction]))
            .collect(),
    }
}

/// Merge shard `PQUERY` answers and render the cluster-wide `QUERY`
/// response: the survivors in global (slot) order, out of the summed
/// live total.
pub fn merge_candidates(parts: &[PartialCandidates]) -> (u8, String) {
    let total: u64 = parts.iter().map(|p| p.live).sum();
    let mut candidates: Vec<&SlotEntry> =
        parts.iter().flat_map(|p| p.candidates.iter()).collect();
    candidates.sort_by_key(|e| e.slot);
    format_candidates(candidates.iter().map(|e| e.id.as_str()), total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_match::{ApproxHit, CorpusHit, CorpusMatches, Embedding};
    use sbml_serve::format_matches;

    /// Split `result` across `n` shards the way the cluster would
    /// (slot = rank here: a freshly built corpus), then check the merge
    /// reproduces the single-process bytes of `want` — `result` with
    /// its approximate list cut to `top_k`, which is what the
    /// single-process index itself would have returned.
    fn shard_and_merge(result: &CorpusMatches, ids: &[String], n: usize, top_k: usize) {
        let mut want = result.clone();
        want.approximate.truncate(top_k);
        let (want_code, want_text) = format_matches(&want, ids, ids);
        let slots: Vec<u64> = (0..ids.len() as u64).collect();
        let parts: Vec<PartialMatches> = (0..n)
            .map(|shard| {
                // A shard sees only its residue class, with local ranks.
                let owned: Vec<usize> =
                    (0..ids.len()).filter(|m| m % n == shard).collect();
                let local = |m: usize| owned.iter().position(|&o| o == m);
                let sub = CorpusMatches {
                    exact: result
                        .exact
                        .iter()
                        .filter_map(|h| {
                            local(h.model).map(|m| CorpusHit {
                                model: m,
                                embedding: h.embedding.clone(),
                            })
                        })
                        .collect(),
                    // Local miss ⇒ the shard ranks it own corpus; the
                    // global result's approx list restricted to this
                    // shard is exactly what its local ranking yields.
                    approximate: result
                        .approximate
                        .iter()
                        .filter_map(|h| {
                            local(h.model).map(|m| ApproxHit { model: m, ..*h })
                        })
                        .collect(),
                    candidates: result
                        .candidates
                        .iter()
                        .filter_map(|&m| local(m))
                        .collect(),
                    truncated: result
                        .truncated
                        .iter()
                        .filter_map(|&m| local(m))
                        .collect(),
                    failed: result.failed.iter().filter_map(|&m| local(m)).collect(),
                };
                let ids_local: Vec<String> =
                    owned.iter().map(|&m| ids[m].clone()).collect();
                let slots_local: Vec<u64> = owned.iter().map(|&m| slots[m]).collect();
                PartialMatches::from_result(&sub, &ids_local, &slots_local)
            })
            .collect();
        let (code, text) = merge_matches(&parts, top_k);
        assert_eq!((code, text.as_str()), (want_code, want_text.as_str()), "{n} shards");
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("BIOMD{i}")).collect()
    }

    #[test]
    fn exact_hits_merge_bit_identically_at_every_shard_count() {
        let embedding = |q: &str, t: &str| Embedding::from_pairs(&[(q, t)], &[("r", "s")]);
        let result = CorpusMatches {
            exact: vec![
                CorpusHit { model: 1, embedding: embedding("a", "x") },
                CorpusHit { model: 4, embedding: embedding("b", "y") },
                CorpusHit { model: 5, embedding: embedding("c", "z") },
            ],
            approximate: vec![],
            candidates: vec![1, 4, 5],
            truncated: vec![0],
            failed: vec![3],
            // Ranking suppressed by the exact hits.
        };
        for n in [1, 2, 3, 4] {
            shard_and_merge(&result, &names(6), n, 10);
        }
    }

    #[test]
    fn approx_ranking_merges_with_topk_cut_and_slot_tiebreak() {
        let hit = |m: usize, s: f64| ApproxHit {
            model: m,
            score: s,
            jaccard: s,
            mapped_fraction: s,
        };
        let result = CorpusMatches {
            exact: vec![],
            // Ties on 0.5 break by ascending model — the merge must
            // reproduce that via slots.
            approximate: vec![hit(2, 0.75), hit(0, 0.5), hit(3, 0.5), hit(5, 0.25)],
            candidates: vec![0, 2, 3, 5],
            truncated: vec![],
            failed: vec![],
        };
        for n in [1, 2, 3] {
            shard_and_merge(&result, &names(6), n, 3);
        }
    }

    #[test]
    fn clean_and_partial_misses_keep_their_exit_codes() {
        let clean = CorpusMatches {
            exact: vec![],
            approximate: vec![],
            candidates: vec![],
            truncated: vec![],
            failed: vec![],
        };
        for n in [1, 2] {
            shard_and_merge(&clean, &names(4), n, 10);
        }
        let partial = CorpusMatches { truncated: vec![2], ..clean };
        for n in [1, 2, 3] {
            shard_and_merge(&partial, &names(4), n, 10);
        }
    }

    #[test]
    fn one_shards_exact_hit_voids_every_approx_list() {
        // Shard 0 missed (and ranked); shard 1 found an exact hit. The
        // merged answer must contain no approx lines at all.
        let parts = vec![
            PartialMatches {
                approximate: vec![ApproxEntry {
                    slot: 0,
                    id: "m0".into(),
                    score: 0.9,
                    jaccard: 0.9,
                    mapped_fraction: 0.9,
                }],
                ..PartialMatches::default()
            },
            PartialMatches {
                exact: vec![ExactEntry {
                    slot: 1,
                    id: "m1".into(),
                    species: vec![("a".into(), "x".into())],
                    reactions: vec![],
                }],
                ..PartialMatches::default()
            },
        ];
        let (code, text) = merge_matches(&parts, 10);
        assert_eq!(code, 0);
        assert_eq!(text, "exact m1 (m1): species [a->x] reactions []\n");
    }

    #[test]
    fn candidates_merge_in_slot_order_with_summed_total() {
        let entry = |slot: u64, id: &str| SlotEntry { slot, id: id.into() };
        let parts = vec![
            PartialCandidates { live: 3, candidates: vec![entry(0, "m0"), entry(4, "m4")] },
            PartialCandidates { live: 4, candidates: vec![entry(1, "m1")] },
        ];
        let (code, body) = merge_candidates(&parts);
        assert_eq!(code, 0);
        assert_eq!(body, "candidates 3/7\ncandidate m0\ncandidate m1\ncandidate m4\n");
        let (code, body) = merge_candidates(&[PartialCandidates {
            live: 5,
            candidates: vec![],
        }]);
        assert_eq!(code, 1);
        assert_eq!(body, "candidates 0/5\n");
    }
}
