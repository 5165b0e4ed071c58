//! **Semantics-level ablation** (the paper's §5): "We plan on reducing the
//! semantic reliability of the current SBML method to only require light
//! semantics ... This comparison can be further extended by creating a
//! generic method that requires no semantics."
//!
//! Composes corpus pairs under heavy / light / no semantics and reports
//! both cost (time) and matching power (how many of the second model's
//! species were recognised as shared). Also runs the fully generic
//! label-graph composition from `bio-graph` as the no-SBML-at-all extreme.
//!
//! Usage: `cargo run --release -p compose-bench --bin ablation_semantics`
//! Output: `results/ablation_semantics.csv`.

use bio_graph::{compose as graph_compose, species_reaction_graph, LightSemantics, NoSemantics};
use compose_bench::{sample, write_csv};
use sbml_compose::{ComposeOptions, Composer};

fn main() {
    let corpus = biomodels_corpus::corpus_187();
    // Overlapping neighbour pairs across the size range.
    let picks = [10usize, 40, 80, 120, 150, 180];

    let engines = [
        ("heavy", ComposeOptions::heavy()),
        ("light", ComposeOptions::light()),
        ("none", ComposeOptions::none()),
    ];

    let mut rows = Vec::new();
    println!(
        "{:>5} {:>5}  {:>10} {:>8}  {:>10} {:>8}  {:>10} {:>8}  {:>10}",
        "sizeA", "sizeB", "heavy_ms", "shared", "light_ms", "shared", "none_ms", "shared", "graph_ms"
    );
    for &i in &picks {
        let a = &corpus[i];
        let b = &corpus[i - 1];
        let mut cols: Vec<(f64, usize)> = Vec::new();
        for (_, opts) in &engines {
            let composer = Composer::new(opts.clone());
            let secs = sample(5, |_| composer.compose(a, b)).median;
            let result = composer.compose(a, b);
            // Matching power: species of b recognised as already present.
            let shared = a.species.len() + b.species.len() - result.model.species.len();
            cols.push((secs * 1e3, shared));
        }
        // Generic graph composition (no SBML semantics at all).
        let (ga, gb) = (species_reaction_graph(a), species_reaction_graph(b));
        let g_light = LightSemantics::with_builtins();
        let graph_secs = sample(5, |_| graph_compose(&ga, &gb, &g_light)).median;
        let _ = graph_compose(&ga, &gb, &NoSemantics); // exercise both matchers

        let (sa, sb, graph_ms) = (a.size(), b.size(), graph_secs * 1e3);
        let [(heavy_ms, heavy), (light_ms, light), (none_ms, none)] = [cols[0], cols[1], cols[2]];
        println!(
            "{sa:>5} {sb:>5}  {heavy_ms:>10.4} {heavy:>8}  {light_ms:>10.4} {light:>8}  {none_ms:>10.4} {none:>8}  {graph_ms:>10.4}"
        );
        rows.push(format!(
            "{sa},{sb},{heavy_ms:.6},{heavy},{light_ms:.6},{light},{none_ms:.6},{none},{graph_ms:.6}"
        ));
    }
    let path = write_csv(
        "ablation_semantics.csv",
        "size_a,size_b,heavy_ms,heavy_shared,light_ms,light_shared,none_ms,none_shared,graph_ms",
        &rows,
    );
    println!("series written to {}", path.display());

    // ------------------------------------------------------------------
    // Matching power on synonym-divergent twins: the same pathway curated
    // independently (ids prefixed, names replaced by synonyms, commutative
    // operands reversed). Heavy semantics should recover full sharing;
    // id-based matching should recover none.
    // ------------------------------------------------------------------
    println!("\nsynonym-divergent twins (matching power):");
    println!(
        "{:>8} {:>9} {:>14} {:>14} {:>14}",
        "model", "species", "heavy_shared", "light_shared", "none_shared"
    );
    let mut twin_rows = Vec::new();
    for &i in &[20usize, 60, 100, 140] {
        let a = &corpus[i];
        let b = biomodels_corpus::synonym_variant(a);
        let mut shared_counts = Vec::new();
        for (_, opts) in &engines {
            let composer = Composer::new(opts.clone());
            let result = composer.compose(a, &b);
            let shared = a.species.len() + b.species.len() - result.model.species.len();
            shared_counts.push(shared);
        }
        println!(
            "{:>8} {:>9} {:>14} {:>14} {:>14}",
            i,
            a.species.len(),
            shared_counts[0],
            shared_counts[1],
            shared_counts[2]
        );
        twin_rows.push(format!(
            "{},{},{},{},{}",
            i, a.species.len(), shared_counts[0], shared_counts[1], shared_counts[2]
        ));
    }
    let twin_path = write_csv(
        "ablation_semantics_twins.csv",
        "model,species,heavy_shared,light_shared,none_shared",
        &twin_rows,
    );
    println!("series written to {}", twin_path.display());
}
