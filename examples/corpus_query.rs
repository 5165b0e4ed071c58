//! Corpus query: find a pathway fragment across a model corpus, then
//! compose the best hit.
//!
//! The paper's title promises matching *and* composition; this example
//! runs them end to end over a slice of the synthetic BioModels corpus:
//!
//! 1. carve a connected query fragment out of one corpus model
//!    (`biomodels_corpus::query_fragment` — the "pathway of interest"),
//! 2. build a [`MatchIndex`] over the prepared corpus and search it
//!    (candidate generation → VF2 refinement → ranking),
//! 3. compose the best hit with another corpus model — reusing the very
//!    preparations the index already holds, so nothing is re-analysed.
//!
//! Run with: `cargo run --example corpus_query`
//!
//! [`MatchIndex`]: sbmlcompose::matching::MatchIndex

use sbmlcompose::compose::{BatchComposer, ComposeOptions, Composer};
use sbmlcompose::corpus::{corpus_slice, query_fragment};
use sbmlcompose::matching::MatchIndex;

fn main() {
    // A 12-model slice of the Figure 8 corpus (deterministic).
    let models = corpus_slice(40..52);
    let options = ComposeOptions::default();
    let composer = Composer::new(options.clone());
    let batch = BatchComposer::new(composer.clone());
    let prepared = batch.prepare_corpus(&models);

    // The pathway of interest: a 1-hop fragment of corpus model 45.
    let fragment = query_fragment(&models[5], 3, 1);
    println!(
        "query fragment {}: {} species, {} reactions",
        fragment.id,
        fragment.species.len(),
        fragment.reactions.len()
    );

    // Index the corpus and search it.
    let index = MatchIndex::build(&prepared, &options);
    let (nodes, edges, participants) = index.posting_stats();
    println!(
        "index over {} models: {} node keys, {} edge keys, {} participant keys",
        index.len(),
        nodes,
        edges,
        participants
    );
    let matches = index.query_corpus(&fragment);
    println!(
        "candidates after posting intersection: {} of {}",
        matches.candidates.len(),
        index.len()
    );
    for hit in &matches.exact {
        println!(
            "  exact hit in {} ({} mapped species, {} mapped reactions)",
            models[hit.model].id,
            hit.embedding.species().len(),
            hit.embedding.reactions().len()
        );
    }
    assert!(
        matches.exact.iter().any(|h| h.model == 5),
        "the fragment must at least hit its own host"
    );

    // Compose the best hit with a *different* corpus model — the
    // "assemble from what the search found" step, straight off the
    // prepared corpus the index already shares.
    let best = matches.exact[0].model;
    let partner = if best == 0 { 1 } else { 0 };
    let merged = composer.compose_prepared(&prepared[best], &prepared[partner]);
    println!(
        "composed best hit {} with {}: {} species, {} reactions ({})",
        models[best].id,
        models[partner].id,
        merged.model.species.len(),
        merged.model.reactions.len(),
        merged.log.stats()
    );
    assert!(merged.model.species.len() >= models[best].species.len());
}
