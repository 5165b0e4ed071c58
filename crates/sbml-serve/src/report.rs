//! The one renderer for each read answer's grammar.
//!
//! A `MATCH` answer is rendered by [`MatchRows::render`] and a `QUERY`
//! answer by [`format_candidates`], whoever computed it: the one-shot
//! CLI (`sbmlcompose match`), the daemon, and the cluster coordinator
//! merging shard partials. So a daemon answer is bit-identical to a
//! one-shot answer whenever the two label models the same way (the CLI
//! labels by file path, the daemon by model id — pass the same labels to
//! get the same bytes), and a coordinator answer is bit-identical to a
//! daemon's over the same live corpus. The exit code follows the CLI
//! contract: 0 when an exact hit exists, 1 on a definitive miss, 4 when
//! truncated/failed candidates make the answer partial.

use std::fmt::Write as _;

use sbml_match::{CorpusMatches, Embedding};

/// A `MATCH` answer as borrowed rows, each list in display order. Every
/// row starts with the model's (display label, model id).
#[derive(Debug)]
pub struct MatchRows<'a> {
    /// Candidates the refiner could not decide (budget/deadline ran out).
    pub truncated: Vec<(&'a str, &'a str)>,
    /// Candidates whose refinement panicked (contained).
    pub failed: Vec<(&'a str, &'a str)>,
    /// Exact hits with their witnesses.
    pub exact: Vec<((&'a str, &'a str), Witness<'a>)>,
    /// Ranked near misses (score, Jaccard, mapped fraction), rendered
    /// only when there is no exact hit.
    pub approximate: Vec<((&'a str, &'a str), [f64; 3])>,
}

/// An exact hit's witness: its species and its reaction query id →
/// target id pairs, in witness order.
#[derive(Debug, Clone, Copy)]
pub enum Witness<'a> {
    /// A refiner's embedding, read through its id iterators.
    Embedding(&'a Embedding),
    /// Species and reaction pairs decoded from a shard's `PMATCH` body.
    Pairs(&'a [(String, String)], &'a [(String, String)]),
}

impl MatchRows<'_> {
    /// The model id of every row, in display order.
    pub fn ids(&self) -> impl Iterator<Item = &str> + '_ {
        let rows = self.truncated.iter().chain(&self.failed).copied();
        let rows = rows.chain(self.exact.iter().map(|(row, _)| *row));
        rows.chain(self.approximate.iter().map(|(row, _)| *row)).map(|(_, id)| id)
    }

    /// Render as report text plus the CLI exit code.
    pub fn render(&self) -> (u8, String) {
        let mut out = String::new();
        // Partial verdicts first.
        for (label, id) in &self.truncated {
            let _ = writeln!(
                out,
                "truncated {label} ({id}): refinement budget exhausted before a verdict"
            );
        }
        for (label, id) in &self.failed {
            let _ = writeln!(out, "failed {label} ({id}): refinement panicked");
        }
        if self.exact.is_empty() {
            out.push_str("no exact embedding found\n");
            if self.approximate.is_empty() {
                out.push_str("no approximate match shares any key with the query\n");
            }
            for ((label, id), [score, jaccard, mapped]) in &self.approximate {
                let _ = writeln!(
                    out,
                    "approx {label} ({id}): score {score:.3} (jaccard {jaccard:.3}, mapped {mapped:.3})"
                );
            }
            // Undecided candidates make "no hit" a partial answer, not a
            // definitive miss — signal that distinctly.
            let code = if self.truncated.is_empty() && self.failed.is_empty() { 1 } else { 4 };
            return (code, out);
        }
        for ((label, id), witness) in &self.exact {
            let _ = write!(out, "exact {label} ({id}): species [");
            match witness {
                Witness::Embedding(e) => push_pairs(&mut out, e.species()),
                Witness::Pairs(species, _) => push_pairs(&mut out, as_strs(species)),
            }
            out.push_str("] reactions [");
            match witness {
                Witness::Embedding(e) => push_pairs(&mut out, e.reactions()),
                Witness::Pairs(_, reactions) => push_pairs(&mut out, as_strs(reactions)),
            }
            out.push_str("]\n");
        }
        (0, out)
    }
}

/// Owned id pairs as borrowed ones.
fn as_strs(pairs: &[(String, String)]) -> impl Iterator<Item = (&str, &str)> {
    pairs.iter().map(|(q, t)| (q.as_str(), t.as_str()))
}

/// `q->t, q->t, ...`
fn push_pairs<'p>(out: &mut String, pairs: impl Iterator<Item = (&'p str, &'p str)>) {
    for (i, (q, t)) in pairs.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(q);
        out.push_str("->");
        out.push_str(t);
    }
}

/// Render a match result as report text plus the CLI exit code.
/// `labels[m]` names corpus model `m` in the output (a file path for the
/// CLI, a model id for the daemon); `ids[m]` is always the model id.
pub fn format_matches(result: &CorpusMatches, labels: &[String], ids: &[String]) -> (u8, String) {
    let row = |m: usize| (labels[m].as_str(), ids[m].as_str());
    MatchRows {
        truncated: result.truncated.iter().map(|&m| row(m)).collect(),
        failed: result.failed.iter().map(|&m| row(m)).collect(),
        exact: result
            .exact
            .iter()
            .map(|h| (row(h.model), Witness::Embedding(&h.embedding)))
            .collect(),
        approximate: result
            .approximate
            .iter()
            .map(|h| (row(h.model), [h.score, h.jaccard, h.mapped_fraction]))
            .collect(),
    }
    .render()
}

/// Render a `QUERY` answer: `candidates <k>/<total>` then one
/// `candidate <id>` line per surviving candidate, in the given order.
/// Exit 0 when any candidate survived, 1 otherwise.
pub fn format_candidates<'a>(
    ids: impl ExactSizeIterator<Item = &'a str>,
    total: u64,
) -> (u8, String) {
    let code = if ids.len() == 0 { 1 } else { 0 };
    let mut body = format!("candidates {}/{total}\n", ids.len());
    for id in ids {
        body.push_str("candidate ");
        body.push_str(id);
        body.push('\n');
    }
    (code, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_match::{ApproxHit, CorpusHit};

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("m{i}")).collect()
    }

    #[test]
    fn exact_hits_format_with_exit_zero() {
        let result = CorpusMatches {
            exact: vec![CorpusHit {
                model: 1,
                embedding: Embedding::from_pairs(&[("a", "x")], &[("r", "s")]),
            }],
            approximate: vec![],
            candidates: vec![1],
            truncated: vec![],
            failed: vec![],
        };
        let (code, text) = format_matches(&result, &names(3), &names(3));
        assert_eq!(code, 0);
        assert_eq!(text, "exact m1 (m1): species [a->x] reactions [r->s]\n");
    }

    #[test]
    fn truncated_miss_is_partial_exit_four() {
        let result = CorpusMatches {
            exact: vec![],
            approximate: vec![ApproxHit { model: 0, score: 0.5, jaccard: 0.25, mapped_fraction: 0.75 }],
            candidates: vec![0, 2],
            truncated: vec![2],
            failed: vec![],
        };
        let (code, text) = format_matches(&result, &names(3), &names(3));
        assert_eq!(code, 4);
        assert!(text.starts_with("truncated m2 (m2):"));
        assert!(text.contains("no exact embedding found\n"));
        assert!(text.contains("approx m0 (m0): score 0.500 (jaccard 0.250, mapped 0.750)\n"));
    }

    #[test]
    fn clean_miss_is_exit_one() {
        let result = CorpusMatches {
            exact: vec![],
            approximate: vec![],
            candidates: vec![],
            truncated: vec![],
            failed: vec![],
        };
        let (code, text) = format_matches(&result, &names(1), &names(1));
        assert_eq!(code, 1);
        assert!(text.contains("no approximate match shares any key with the query\n"));
    }
}
