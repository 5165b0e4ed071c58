//! **Figure 9**: log10(composition time in ms) for semanticSBML vs
//! SBMLCompose, composing each of the 17 small annotated models with every
//! other, in ascending size order.
//!
//! The paper's finding: "SBMLCompose is at least an order of magnitude
//! faster than semanticSBML, and this is visible even for small models",
//! attributed to the baseline's per-run 54,929-entry database load and its
//! multiple passes over the XML.
//!
//! Usage: `cargo run --release -p compose-bench --bin fig9`
//! Output: `results/fig9.csv`, one row per ordered pair and engine timing.
//! The summary also splits the baseline's cost: the annotation database
//! load against annotating one model.

use compose_bench::{compare, log10_ms, sample, stats, write_csv};
use sbml_compose::Composer;
use semantic_baseline::annotate::annotate;
use semantic_baseline::{AnnotationDb, SemanticBaseline};

fn main() {
    let mut models = biomodels_corpus::corpus_17();
    models.sort_by_key(|m| m.size());
    let composer = Composer::default();
    let baseline = SemanticBaseline::default();

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut ours_all = Vec::new();
    let mut theirs_all = Vec::new();

    eprintln!("composing {}x{} ordered pairs with both engines ...", models.len(), models.len());
    let mut pair = 0usize;
    for i in 0..models.len() {
        for j in 0..models.len() {
            let (a, b) = (&models[i], &models[j]);
            let c = compare(3, |_| baseline.merge(a, b), |_| composer.compose(a, b));
            let (ours, theirs, speedup) = (c.b.median, c.a.median, c.ratio.median);
            rows.push(format!(
                "{pair},{i},{j},{},{},{:.6},{:.6},{:.4},{:.4},{:.1}",
                a.size(),
                b.size(),
                ours * 1e3,
                theirs * 1e3,
                log10_ms(ours),
                log10_ms(theirs),
                speedup
            ));
            speedups.push(speedup);
            ours_all.push(ours * 1e3);
            theirs_all.push(theirs * 1e3);
            pair += 1;
        }
        eprintln!("  model {i:2} done");
    }

    let path = write_csv(
        "fig9.csv",
        "pair,i,j,size_i,size_j,sbmlcompose_ms,semanticsbml_ms,log10_sbmlcompose_ms,log10_semanticsbml_ms,speedup",
        &rows,
    );

    let ours = stats(&ours_all);
    let theirs = stats(&theirs_all);
    let sp = stats(&speedups);
    println!("Figure 9 — SBMLCompose vs semanticSBML on the 17-model corpus");
    println!("  pairs composed            : {pair}");
    println!("  SBMLCompose time (ms)     : min {:.4}  median {:.4}  max {:.4}", ours.min, ours.median, ours.max);
    println!("  semanticSBML time (ms)    : min {:.2}  median {:.2}  max {:.2}", theirs.min, theirs.median, theirs.max);
    println!("  speedup (per pair)        : min {:.0}×  median {:.0}×  max {:.0}×", sp.min, sp.median, sp.max);
    println!(
        "  paper's claim             : ≥ 10× — {}",
        if sp.median >= 10.0 { "REPRODUCED" } else { "NOT reproduced" }
    );

    // Where the baseline's time goes: mostly the per-run database load.
    let load = sample(5, |_| AnnotationDb::load());
    let db = AnnotationDb::load();
    let annotating = sample(5, |_| annotate(&models[7], &db));
    println!(
        "  semanticSBML cost (ms)    : database load {:.2}  annotate one model {:.3}",
        load.median * 1e3,
        annotating.median * 1e3
    );
    println!("  series written to         : {}", path.display());
}
