//! **Figure 8**: log10(time in ms) to compose each model with every other
//! model, 187-model corpus, in ascending size order (size = nodes + edges).
//!
//! The paper composes every ordered pair starting from
//! (smallest, smallest) up to (largest, largest) and reports per-pair
//! composition time; the observed complexity is O(nm).
//!
//! Usage: `cargo run --release -p compose-bench --bin fig8 [--quick]`
//! (`--quick` strides the pair grid 7× for a fast smoke run.)
//!
//! Output: `results/fig8.csv` with one row per composed pair. The summary
//! also times the SBML text round trip around the merge (writing and
//! parsing one large model).

use compose_bench::{correlation, log10_ms, sample, stats, write_csv};
use sbml_compose::Composer;
use sbml_model::{parse_sbml, write_sbml};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let stride = if quick { 7 } else { 1 };

    eprintln!("generating the 187-model corpus ...");
    let corpus = biomodels_corpus::corpus_187();
    let sizes: Vec<usize> = corpus.iter().map(|m| m.size()).collect();
    let composer = Composer::default();

    let mut rows = Vec::new();
    let mut nm_series = Vec::new();
    let mut time_series = Vec::new();
    let total = (corpus.len() / stride) * (corpus.len() / stride);
    eprintln!("composing ~{total} ordered pairs (stride {stride}) ...");

    let mut pair_index = 0usize;
    for i in (0..corpus.len()).step_by(stride) {
        for j in (0..corpus.len()).step_by(stride) {
            let (a, b) = (&corpus[i], &corpus[j]);
            // Fast pairs are repeated for a stable median; slow ones once.
            let runs = if sizes[i] + sizes[j] < 100 { 5 } else { 1 };
            let secs = sample(runs, |_| composer.compose(a, b)).median;
            let nm = (sizes[i].max(1) * sizes[j].max(1)) as f64;
            rows.push(format!(
                "{pair_index},{i},{j},{},{},{nm},{:.6},{:.4}",
                sizes[i],
                sizes[j],
                secs * 1e3,
                log10_ms(secs)
            ));
            nm_series.push(nm);
            time_series.push(secs);
            pair_index += 1;
        }
        if i % 21 == 0 {
            let timed: f64 = time_series.iter().sum();
            eprintln!("  outer model {i:3} (size {:3}) done, {timed:.1}s composing", sizes[i]);
        }
    }

    let path = write_csv(
        "fig8.csv",
        "pair,i,j,size_i,size_j,nm,time_ms,log10_time_ms",
        &rows,
    );

    // Summary: the paper's claim is O(nm) growth.
    let t = stats(&time_series.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let r_nm = correlation(&nm_series, &time_series);
    let log_nm: Vec<f64> = nm_series.iter().map(|v| v.log10()).collect();
    let log_t: Vec<f64> = time_series.iter().map(|s| log10_ms(*s)).collect();
    let r_log = correlation(&log_nm, &log_t);

    println!("Figure 8 — all-pairs composition over the 187-model corpus");
    println!("  pairs composed      : {pair_index}");
    println!("  time per pair (ms)  : min {:.4}  median {:.4}  mean {:.4}  max {:.3}", t.min, t.median, t.mean, t.max);
    println!("  corr(time, n*m)     : {r_nm:.3}");
    println!("  corr(log t, log nm) : {r_log:.3}   (≈1 ⇒ power-law in n·m, the paper's O(nm))");

    // The paper's pipeline reads and writes SBML text around the merge.
    let large = &corpus[150];
    let text = write_sbml(large);
    let write = sample(20, |_| write_sbml(large));
    let parse = sample(20, |_| parse_sbml(&text).expect("written SBML parses"));
    println!(
        "  XML round trip (ms) : write {:.3}  parse {:.3}  (model size {})",
        write.median * 1e3,
        parse.median * 1e3,
        large.size()
    );
    println!("  series written to   : {}", path.display());
}
