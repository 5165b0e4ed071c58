//! `sbmlcompose` — command-line interface to the composition engine.
//!
//! ```text
//! sbmlcompose compose  <a.xml> <b.xml> [<c.xml>...] [-o merged.xml] [--log log.txt]
//!                      [--semantics heavy|light|none] [--index hash|btree|linear]
//!                      [--deadline-ms N] [--max-steps N]
//! sbmlcompose match    <query.xml> <corpus.xml>... [--semantics heavy|light|none]
//!                      [--top K] [--threads N] [--deadline-ms N] [--max-steps N]
//! sbmlcompose split    <model.xml> [-o prefix]
//! sbmlcompose zoom     <model.xml> --seed <species>[,<species>...] [--radius N] [-o out.xml]
//! sbmlcompose validate <model.xml>
//! sbmlcompose simulate <model.xml> [--t-end T] [--dt DT] [-o trace.csv]
//! sbmlcompose check    <model.xml> --property "<PLTL>" [--runs N] [--t-end T] [--theta P]
//! sbmlcompose diff     <a.xml> <b.xml>
//! sbmlcompose snapshot build <corpus-dir> -o <file> [--semantics heavy|light|none] [--threads N]
//!                      [--shards N]
//! sbmlcompose snapshot inspect <file>
//! sbmlcompose serve    <snapshot> [--addr host:port] [--threads N] [--cache N] [--top K]
//!                      [--deadline-ms N] [--max-steps N]
//! sbmlcompose client   <addr> match|query <query.xml> | compose <a.xml> <b.xml>... |
//!                      upsert <model.xml> | remove <model-id> | stats | shutdown
//! ```
//!
//! `match` (alias: `query`) searches a corpus for a query subnetwork: the
//! corpus files are prepared once each, a match index is built over their
//! canonical content keys ([`MatchIndex`]), and every exact embedding is
//! reported with its concrete species/reaction mapping. When no corpus
//! model embeds the query, the top `--top` (default 10) approximate
//! matches are ranked by content-key Jaccard + mapped fraction instead.
//! `--semantics` selects the matching level (heavy: reaction content-key
//! edges; light: synonym-closed labels; none: exact labels) and
//! `--threads` bounds the parallel corpus search (0 = one per core).
//! `--max-steps` caps the VF2 step budget per candidate and
//! `--deadline-ms` bounds each query's refinement wall-clock; candidates
//! still undecided when a limit trips are reported as `truncated` lines.
//! Exit status: 0 when at least one exact hit exists, 1 on a definitive
//! miss, 4 when there is no exact hit but some candidates were truncated
//! or failed (a partial answer, not a verdict).
//!
//! `compose` takes **two or more** input files and folds them left to
//! right (the first file is the base; its model id survives). Two files
//! run the paper's pairwise algorithm directly; three or more are each
//! analysed once into a prepared model ([`Composer::prepare`]) and folded
//! through a single [`CompositionSession`], so no step re-derives a
//! model's content keys, indexes or initial values — output is identical
//! to the pairwise fold either way. `--semantics` picks the §5 matching
//! level (default `heavy`: synonyms, commutative math patterns, unit
//! conversion, initial-value evaluation); `--index` the lookup structure
//! (default `hash`). Any other `--` argument is a usage error. Without
//! `-o` the merged SBML goes to stdout; without `--log` the decision log
//! (duplicates, mappings, renames, conflicts) goes to stderr.
//!
//! `--deadline-ms` / `--max-steps` put the whole compose run under a
//! [`Budget`]: pushes are merged through a guarded session ([fault
//! containment and rollback](sbmlcompose::compose::guard)), and if the
//! budget runs out (or a push panics) the models merged so far are still
//! written, flagged partial via exit 4.
//!
//! `snapshot build` prepares every `.xml` model in a directory once,
//! builds the match index (`--shards` partitions its posting lists for
//! scatter-gather queries; answers are identical at every shard count),
//! and persists both to a versioned binary snapshot ([`Snapshot`]);
//! `snapshot inspect` prints a snapshot's header — format version,
//! semantics, options fingerprint, model count, index generation, and
//! one line per shard (generation, live/tombstoned models, tombstone
//! fraction, posting counts per family) — without decoding the payload.
//! `serve` loads a snapshot in milliseconds — no re-parsing, no
//! re-analysis — and answers
//! `MATCH`/`QUERY`/`COMPOSE`/`UPSERT`/`REMOVE`/`STATS`/`SHUTDOWN`
//! requests over a plain TCP frame protocol from a bounded worker pool,
//! with an LRU result cache keyed by canonical content keys and every
//! request under the same budget flags as the one-shot commands.
//! `UPSERT` and `REMOVE` mutate the live index in place (append /
//! tombstone — no rebuild, no restart) and evict the cached answers the
//! write can change.
//! `client` sends one request and exits with the code the one-shot
//! command would have used (`ERR budget` → 4, `ERR parse` → 3,
//! `ERR proto` → 2).
//!
//! Exit status: 0 on success (for `check`: property satisfied; for `diff`:
//! equivalent), 1 on failure / unsatisfied / different, 2 on usage errors,
//! 3 on unreadable or malformed input files, 4 on partial results
//! (budget or deadline exhausted).
//!
//! [`Budget`]: sbmlcompose::compose::Budget
//!
//! [`Composer::prepare`]: sbmlcompose::compose::Composer::prepare
//! [`CompositionSession`]: sbmlcompose::compose::CompositionSession
//! [`MatchIndex`]: sbmlcompose::matching::MatchIndex
//! [`Snapshot`]: sbmlcompose::serve::Snapshot

use std::fs;
use std::process::ExitCode;

use sbmlcompose::compose::{
    Budget, ComposeOptions, Composer, CompositionSession, ExecError, IndexKind, SemanticsLevel,
};
use sbmlcompose::mc2::{check_probability, Formula};
use sbmlcompose::model::{parse_sbml, validate, write_sbml, Model, Severity};

/// What went wrong before the command could run, mapped to a distinct
/// exit code so scripts can tell "you called me wrong" (2) from "your
/// file is unreadable or not SBML" (3). Exit 4 is reserved for *partial*
/// results (a budget/deadline cut the work short) and is returned by the
/// commands themselves, not through this type.
enum CliError {
    /// Bad flags or arguments — exit 2.
    Usage(String),
    /// Unreadable, unwritable or malformed files — exit 3.
    Input(String),
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Usage(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::Usage(message.to_owned())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
        Err(CliError::Input(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(3)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(ExitCode::from(2));
    };
    let rest = &args[1..];
    match command.as_str() {
        "compose" => cmd_compose(rest),
        "match" | "query" => cmd_match(rest),
        "split" => cmd_split(rest),
        "zoom" => cmd_zoom(rest),
        "validate" => cmd_validate(rest),
        "simulate" => cmd_simulate(rest),
        "check" => cmd_check(rest),
        "diff" => cmd_diff(rest),
        "snapshot" => cmd_snapshot(rest),
        "serve" => cmd_serve(rest),
        "coordinator" => cmd_coordinator(rest),
        "cluster" => cmd_cluster(rest),
        "client" => cmd_client(rest),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?} (try --help)").into()),
    }
}

fn print_usage() {
    eprintln!(
        "sbmlcompose — biochemical network matching and composition (EDBT 2010)\n\
         \n\
         usage:\n\
         \x20 sbmlcompose compose  <a.xml> <b.xml> [<c.xml>...] [-o merged.xml] [--log log.txt]\n\
         \x20                      [--semantics heavy|light|none] [--index hash|btree|linear]\n\
         \x20                      [--deadline-ms N] [--max-steps N]\n\
         \x20        composes two or more models left to right (first file is the base).\n\
         \x20        3+ files are analysed once each (prepared models) and folded through\n\
         \x20        one composition session; output is identical to the pairwise fold.\n\
         \x20        -o: merged SBML (default stdout); --log: decision log (default stderr)\n\
         \x20        --deadline-ms/--max-steps: wall-clock/work budget; when it runs out\n\
         \x20        (or a push panics) the models merged so far are written and the\n\
         \x20        exit code is 4; any other --flag is a usage error (exit 2)\n\
         \x20 sbmlcompose match    <query.xml> <corpus.xml>... [--semantics heavy|light|none]\n\
         \x20                      [--top K] [--threads N] [--deadline-ms N] [--max-steps N]\n\
         \x20        (alias: query) searches the corpus for the query subnetwork: exact\n\
         \x20        embeddings are reported with their species/reaction mappings; when\n\
         \x20        none exists the top K (default 10) approximate matches are ranked\n\
         \x20        by content-key Jaccard + mapped fraction. --threads bounds the\n\
         \x20        parallel corpus search (0 = cores); --max-steps/--deadline-ms bound\n\
         \x20        each candidate's VF2 search (undecided candidates print as\n\
         \x20        'truncated'). exit 0 iff an exact hit exists; 4 = partial answer\n\
         \x20 exit codes: 0 success/hit, 1 miss/failure, 2 usage, 3 bad input, 4 partial\n\
         \x20 sbmlcompose split    <model.xml> [-o prefix]\n\
         \x20 sbmlcompose zoom     <model.xml> --seed <ids> [--radius N] [-o out.xml]\n\
         \x20 sbmlcompose validate <model.xml>\n\
         \x20 sbmlcompose simulate <model.xml> [--t-end T] [--dt DT] [-o trace.csv]\n\
         \x20 sbmlcompose check    <model.xml> --property '<PLTL>' [--runs N] [--t-end T] [--theta P]\n\
         \x20 sbmlcompose diff     <a.xml> <b.xml>\n\
         \x20 sbmlcompose snapshot build <corpus-dir> -o <file> [--semantics heavy|light|none]\n\
         \x20                      [--threads N] [--shards N]\n\
         \x20        prepares every .xml model in the directory, builds the match index\n\
         \x20        (--shards partitions its posting lists; answers are identical at\n\
         \x20        every shard count), and persists both to a binary snapshot\n\
         \x20 sbmlcompose snapshot inspect <file> [--shard I]\n\
         \x20        prints the snapshot header (version, semantics, fingerprint, model\n\
         \x20        count, index generation, per-shard stats, posting counts) without\n\
         \x20        decoding the payload; --shard I describes one shard (its stats plus\n\
         \x20        the slots it owns); split files also print their cluster identity;\n\
         \x20        exit 3 if corrupt\n\
         \x20 sbmlcompose snapshot split <file> [-o prefix]\n\
         \x20        carves a full snapshot into one self-contained file per physical\n\
         \x20        shard (prefix.shard0, prefix.shard1, ...); each loads standalone as\n\
         \x20        a shard daemon corpus and records its i/n identity and slot universe\n\
         \x20 sbmlcompose serve    <snapshot> [--addr host:port] [--threads N]\n\
         \x20                      [--cache N] [--top K] [--deadline-ms N] [--max-steps N]\n\
         \x20        loads the snapshot (no re-analysis) and serves MATCH/QUERY/COMPOSE/\n\
         \x20        UPSERT/REMOVE/STATS/SHUTDOWN over plain TCP frames; prints the bound\n\
         \x20        address. UPSERT/REMOVE mutate the live index in place (no restart).\n\
         \x20        A `snapshot split` part carries its identity and serves as that\n\
         \x20        shard of its cluster. --cache: LRU result-cache entries (default 256,\n\
         \x20        0 disables); --deadline-ms/--max-steps: per-request budget (hostile\n\
         \x20        requests get a structured budget error; the daemon keeps serving)\n\
         \x20 sbmlcompose coordinator --shards addr,addr,... [--addr host:port]\n\
         \x20                      [--threads N] [--cache N] [--top K] [--deadline-ms N]\n\
         \x20                      [--max-steps N] [--retry-attempts N] [--retry-backoff-ms N]\n\
         \x20        serves the same client protocol over a cluster of shard daemons:\n\
         \x20        routes UPSERT/REMOVE by slot ownership, scatters MATCH/QUERY to all\n\
         \x20        shards and merges answers bit-identically to a single process. A\n\
         \x20        dead shard degrades reads to a partial answer (exit 4, shard named)\n\
         \x20        and fails writes loudly\n\
         \x20 sbmlcompose cluster  status <addr>\n\
         \x20        prints the coordinator's aggregated STATS (cluster identity plus\n\
         \x20        each shard's counters, or a dead marker naming the shard)\n\
         \x20 sbmlcompose client   <addr> match <query.xml> | query <query.xml> |\n\
         \x20                      compose <a.xml> <b.xml>... | upsert <model.xml> |\n\
         \x20                      remove <model-id> | stats | shutdown\n\
         \x20        sends one request; prints the response body and exits with the\n\
         \x20        one-shot command's code (budget error -> 4, parse error -> 3)"
    );
}

/// Pull `--flag value` out of an argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        return None;
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

fn load_model(path: &str) -> Result<Model, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
    parse_sbml(&text).map_err(|e| CliError::Input(format!("{path}: {e}")))
}

/// Write a file, classifying failure as an I/O (exit 3) error.
fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    fs::write(path, contents).map_err(|e| CliError::Input(format!("cannot write {path}: {e}")))
}

/// Parse the shared `--deadline-ms N` / `--max-steps N` budget flags.
fn take_budget_flags(args: &mut Vec<String>) -> Result<(Option<u64>, Option<u64>), CliError> {
    let deadline_ms = take_flag(args, "--deadline-ms")
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad --deadline-ms {v:?}")))
        .transpose()?;
    let max_steps = take_flag(args, "--max-steps")
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad --max-steps {v:?}")))
        .transpose()?;
    Ok((deadline_ms, max_steps))
}

fn cmd_compose(args: &[String]) -> Result<ExitCode, CliError> {
    let mut args = args.to_vec();
    let out = take_flag(&mut args, "-o");
    let log_path = take_flag(&mut args, "--log");
    let (deadline_ms, max_steps) = take_budget_flags(&mut args)?;
    let semantics = match take_flag(&mut args, "--semantics").as_deref() {
        None | Some("heavy") => SemanticsLevel::Heavy,
        Some("light") => SemanticsLevel::Light,
        Some("none") => SemanticsLevel::None,
        Some(other) => return Err(format!("unknown semantics level {other:?}").into()),
    };
    let index = match take_flag(&mut args, "--index").as_deref() {
        None | Some("hash") => IndexKind::HashMap,
        Some("btree") => IndexKind::BTree,
        Some("linear") => IndexKind::LinearScan,
        Some(other) => return Err(format!("unknown index kind {other:?}").into()),
    };
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("compose: unknown flag {flag}").into());
    }
    if args.len() < 2 {
        return Err("compose needs at least two input files".into());
    }

    let models = args.iter().map(|path| load_model(path)).collect::<Result<Vec<_>, _>>()?;
    let mut options = match semantics {
        SemanticsLevel::Heavy => ComposeOptions::heavy(),
        SemanticsLevel::Light => ComposeOptions::light(),
        SemanticsLevel::None => ComposeOptions::none(),
    };
    options.index = index;
    let (result, guard_fault) = if deadline_ms.is_some() || max_steps.is_some() {
        // Budgeted run: fold through a guarded session. A push that
        // exhausts the budget (or panics) is rolled back and stops the
        // fold; everything merged before it is still written out, flagged
        // as partial via exit code 4.
        let mut budget = Budget::unlimited();
        if let Some(ms) = deadline_ms {
            budget = budget.with_deadline_ms(ms);
        }
        if let Some(steps) = max_steps {
            budget = budget.with_max_steps(steps);
        }
        let meter = budget.start();
        let mut session = CompositionSession::new(&options);
        let mut fault: Option<ExecError> = None;
        for (path, model) in args.iter().zip(&models) {
            if let Err(error) = session.push_guarded(model, Some(&meter)) {
                eprintln!("warning: stopped before {path}: {error}");
                fault = Some(error);
                break;
            }
        }
        (session.finish(), fault)
    } else if let [a, b] = models.as_slice() {
        // One-shot pair: no reuse to amortise a preparation over.
        (Composer::new(options).compose(a, b), None)
    } else {
        // Longer chains run through one session over prepared models, so
        // no step re-derives a model's analysis.
        let composer = Composer::new(options);
        let prepared: Vec<_> = models.iter().map(|m| composer.prepare(m)).collect();
        (sbmlcompose::compose::compose_many_prepared(&composer, &prepared), None)
    };

    let xml = write_sbml(&result.model);
    let chain = models.iter().map(|m| m.id.as_str()).collect::<Vec<_>>().join(" + ");
    match out {
        Some(path) => {
            write_file(&path, &xml)?;
            eprintln!(
                "composed {} -> {} ({} species, {} reactions; {})",
                chain,
                path,
                result.model.species.len(),
                result.model.reactions.len(),
                result.log.stats()
            );
        }
        None => println!("{xml}"),
    }
    match log_path {
        Some(path) => write_file(&path, &result.log.to_text())?,
        None => eprint!("{}", result.log.to_text()),
    }
    match guard_fault {
        Some(fault) => {
            eprintln!("compose: output is partial: {fault}");
            Ok(ExitCode::from(4))
        }
        None => Ok(ExitCode::SUCCESS),
    }
}

fn cmd_match(args: &[String]) -> Result<ExitCode, CliError> {
    use sbmlcompose::compose::{BatchComposer, Composer as MatchComposer};
    use sbmlcompose::matching::MatchIndex;

    let mut args = args.to_vec();
    let semantics = match take_flag(&mut args, "--semantics").as_deref() {
        None | Some("heavy") => SemanticsLevel::Heavy,
        Some("light") => SemanticsLevel::Light,
        Some("none") => SemanticsLevel::None,
        Some(other) => return Err(format!("unknown semantics level {other:?}").into()),
    };
    let (deadline_ms, max_steps) = take_budget_flags(&mut args)?;
    let top: usize = take_flag(&mut args, "--top")
        .map(|v| v.parse().map_err(|_| format!("bad --top {v:?}")))
        .transpose()?
        .unwrap_or(10);
    let threads: usize = take_flag(&mut args, "--threads")
        .map(|v| v.parse().map_err(|_| format!("bad --threads {v:?}")))
        .transpose()?
        .unwrap_or(0);
    if args.len() < 2 {
        return Err("match needs a query file and at least one corpus file".into());
    }
    let query = load_model(&args[0])?;
    let corpus_paths = &args[1..];
    let corpus =
        corpus_paths.iter().map(|path| load_model(path)).collect::<Result<Vec<_>, _>>()?;

    let options = match semantics {
        SemanticsLevel::Heavy => ComposeOptions::heavy(),
        SemanticsLevel::Light => ComposeOptions::light(),
        SemanticsLevel::None => ComposeOptions::none(),
    };
    let batch = BatchComposer::new(MatchComposer::new(options.clone())).with_threads(threads);
    let prepared = batch.prepare_corpus(&corpus);
    let mut index = MatchIndex::build_with_threads(&prepared, &options, threads).with_top_k(top);
    if let Some(steps) = max_steps {
        index = index.with_budget(steps);
    }
    if let Some(ms) = deadline_ms {
        index = index.with_deadline_ms(ms);
    }
    let result = index.query_corpus(&query);

    eprintln!(
        "query {} ({} species, {} reactions) against {} corpus model(s): {} candidate(s)",
        query.id,
        query.species.len(),
        query.reactions.len(),
        corpus.len(),
        result.candidates.len()
    );
    // The same formatter renders one-shot and daemon answers, which is
    // what keeps `sbmlcompose match` and a served MATCH bit-identical
    // for the same labels.
    let labels = corpus_paths.to_vec();
    let ids: Vec<String> = corpus.iter().map(|m| m.id.clone()).collect();
    let (code, text) = sbmlcompose::serve::format_matches(&result, &labels, &ids);
    print!("{text}");
    Ok(ExitCode::from(code))
}

fn cmd_split(args: &[String]) -> Result<ExitCode, CliError> {
    let mut args = args.to_vec();
    let prefix = take_flag(&mut args, "-o").unwrap_or_else(|| "part".to_owned());
    let [path] = args.as_slice() else {
        return Err("split needs exactly one input file".into());
    };
    let model = load_model(path)?;
    let parts = sbmlcompose::compose::split_components(&model);
    eprintln!("{} component(s)", parts.len());
    for (i, part) in parts.iter().enumerate() {
        let out = format!("{prefix}_{i}.xml");
        write_file(&out, &write_sbml(part))?;
        eprintln!("  {out}: {} species, {} reactions", part.species.len(), part.reactions.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_zoom(args: &[String]) -> Result<ExitCode, CliError> {
    let mut args = args.to_vec();
    let seeds_raw =
        take_flag(&mut args, "--seed").ok_or("zoom needs --seed <species>[,<species>...]")?;
    let radius: usize = take_flag(&mut args, "--radius")
        .map(|r| r.parse().map_err(|_| format!("bad radius {r:?}")))
        .transpose()?
        .unwrap_or(1);
    let out = take_flag(&mut args, "-o");
    let [path] = args.as_slice() else {
        return Err("zoom needs exactly one input file".into());
    };
    let model = load_model(path)?;
    let seeds: Vec<&str> = seeds_raw.split(',').map(str::trim).collect();
    let sub = sbmlcompose::compose::extract_submodel(&model, &seeds, radius);
    eprintln!(
        "zoom radius {radius} around {:?}: {} species, {} reactions",
        seeds,
        sub.species.len(),
        sub.reactions.len()
    );
    let xml = write_sbml(&sub);
    match out {
        Some(p) => write_file(&p, &xml)?,
        None => println!("{xml}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_validate(args: &[String]) -> Result<ExitCode, CliError> {
    let [path] = args else {
        return Err("validate needs exactly one input file".into());
    };
    let model = load_model(path)?;
    let issues = validate(&model);
    for issue in &issues {
        println!("{issue}");
    }
    let errors = issues.iter().filter(|i| i.severity == Severity::Error).count();
    println!(
        "{}: {} error(s), {} warning(s)",
        path,
        errors,
        issues.len() - errors
    );
    Ok(if errors == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_simulate(args: &[String]) -> Result<ExitCode, CliError> {
    let mut args = args.to_vec();
    let t_end: f64 = take_flag(&mut args, "--t-end")
        .map(|v| v.parse().map_err(|_| format!("bad --t-end {v:?}")))
        .transpose()?
        .unwrap_or(10.0);
    let dt: f64 = take_flag(&mut args, "--dt")
        .map(|v| v.parse().map_err(|_| format!("bad --dt {v:?}")))
        .transpose()?
        .unwrap_or(0.01);
    let out = take_flag(&mut args, "-o");
    let [path] = args.as_slice() else {
        return Err("simulate needs exactly one input file".into());
    };
    let model = load_model(path)?;
    let trace = sbmlcompose::sim::ode::simulate_rk4(&model, t_end, dt)
        .map_err(|e| format!("simulation failed: {e}"))?;
    let csv = trace.to_csv();
    match out {
        Some(p) => {
            write_file(&p, &csv)?;
            eprintln!("{} samples x {} species -> {}", trace.len(), trace.species.len(), p);
        }
        None => print!("{csv}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, CliError> {
    let mut args = args.to_vec();
    let property = take_flag(&mut args, "--property").ok_or("check needs --property '<PLTL>'")?;
    let runs: usize = take_flag(&mut args, "--runs")
        .map(|v| v.parse().map_err(|_| format!("bad --runs {v:?}")))
        .transpose()?
        .unwrap_or(50);
    let t_end: f64 = take_flag(&mut args, "--t-end")
        .map(|v| v.parse().map_err(|_| format!("bad --t-end {v:?}")))
        .transpose()?
        .unwrap_or(10.0);
    let theta: f64 = take_flag(&mut args, "--theta")
        .map(|v| v.parse().map_err(|_| format!("bad --theta {v:?}")))
        .transpose()?
        .unwrap_or(0.95);
    let [path] = args.as_slice() else {
        return Err("check needs exactly one input file".into());
    };
    let model = load_model(path)?;
    let phi = Formula::parse(&property).map_err(|e| format!("bad property: {e}"))?;
    let verdict = check_probability(&model, &phi, runs, t_end, theta)?;
    println!(
        "P({property}) ≈ {:.3} (95% CI {:.3}–{:.3}, {}/{} runs) vs θ={theta} → {}",
        verdict.estimate,
        verdict.interval.0,
        verdict.interval.1,
        verdict.satisfying,
        verdict.runs,
        if verdict.satisfied { "SATISFIED" } else { "VIOLATED" }
    );
    Ok(if verdict.satisfied { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, CliError> {
    let [a_path, b_path] = args else {
        return Err("diff needs exactly two input files".into());
    };
    let a = fs::read_to_string(a_path)
        .map_err(|e| CliError::Input(format!("cannot read {a_path}: {e}")))?;
    let b = fs::read_to_string(b_path)
        .map_err(|e| CliError::Input(format!("cannot read {b_path}: {e}")))?;
    let equivalent =
        sbmlcompose::textdiff::sbml_equivalent(&a, &b)
            .map_err(|e| CliError::Input(e.to_string()))?;
    if equivalent {
        println!("equivalent (under SBML ordering rules)");
        Ok(ExitCode::SUCCESS)
    } else {
        print!("{}", sbmlcompose::textdiff::sbml_text_diff(&a, &b).map_err(|e| CliError::Input(e.to_string()))?);
        Ok(ExitCode::FAILURE)
    }
}

fn semantics_name(level: SemanticsLevel) -> &'static str {
    match level {
        SemanticsLevel::Heavy => "heavy",
        SemanticsLevel::Light => "light",
        SemanticsLevel::None => "none",
    }
}

fn cmd_snapshot(args: &[String]) -> Result<ExitCode, CliError> {
    use sbmlcompose::compose::BatchComposer;
    use sbmlcompose::matching::MatchIndex;
    use sbmlcompose::serve::Snapshot;

    let Some(sub) = args.first() else {
        return Err("snapshot needs a subcommand: build or inspect".into());
    };
    let rest = &args[1..];
    match sub.as_str() {
        "build" => {
            let mut args = rest.to_vec();
            let out = take_flag(&mut args, "-o").ok_or("snapshot build needs -o <file>")?;
            let semantics = match take_flag(&mut args, "--semantics").as_deref() {
                None | Some("heavy") => SemanticsLevel::Heavy,
                Some("light") => SemanticsLevel::Light,
                Some("none") => SemanticsLevel::None,
                Some(other) => return Err(format!("unknown semantics level {other:?}").into()),
            };
            let threads: usize = take_flag(&mut args, "--threads")
                .map(|v| v.parse().map_err(|_| format!("bad --threads {v:?}")))
                .transpose()?
                .unwrap_or(0);
            let shards: usize = take_flag(&mut args, "--shards")
                .map(|v| v.parse().map_err(|_| format!("bad --shards {v:?}")))
                .transpose()?
                .unwrap_or(1);
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            let [dir] = args.as_slice() else {
                return Err("snapshot build needs exactly one corpus directory".into());
            };
            let entries = fs::read_dir(dir)
                .map_err(|e| CliError::Input(format!("cannot read {dir}: {e}")))?;
            let mut paths: Vec<String> = entries
                .filter_map(|entry| {
                    let path = entry.ok()?.path();
                    (path.extension().is_some_and(|ext| ext == "xml"))
                        .then(|| path.to_string_lossy().into_owned())
                })
                .collect();
            paths.sort();
            if paths.is_empty() {
                return Err(CliError::Input(format!("{dir}: no .xml models found")));
            }
            let models =
                paths.iter().map(|path| load_model(path)).collect::<Result<Vec<_>, _>>()?;
            let options = sbmlcompose::serve::preset_options(semantics);
            let composer = Composer::new(options.clone());
            let batch = BatchComposer::new(composer).with_threads(threads);
            let prepared = batch.prepare_corpus(&models);
            let index = MatchIndex::build_sharded(&prepared, &options, threads, shards);
            Snapshot::write(&out, &index, &options)
                .map_err(|e| CliError::Input(format!("cannot write {out}: {e}")))?;
            let info = Snapshot::inspect(&out)
                .map_err(|e| CliError::Input(format!("{out}: {e}")))?;
            eprintln!(
                "snapshot {out}: {} model(s), {} shard(s), {} bytes, semantics {}, \
                 fingerprint {:016x}",
                info.models,
                info.shards.len(),
                info.bytes,
                semantics_name(info.semantics),
                info.fingerprint,
            );
            Ok(ExitCode::SUCCESS)
        }
        "split" => {
            let mut args = rest.to_vec();
            let prefix = take_flag(&mut args, "-o");
            let [path] = args.as_slice() else {
                return Err("snapshot split needs exactly one file".into());
            };
            let prefix = prefix.unwrap_or_else(|| path.clone());
            let parts =
                Snapshot::split(path).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
            let n = parts.len();
            for (i, bytes) in parts.iter().enumerate() {
                let out = format!("{prefix}.shard{i}");
                Snapshot::write_bytes(&out, bytes)
                    .map_err(|e| CliError::Input(format!("cannot write {out}: {e}")))?;
                eprintln!("shard {i}/{n}: {out} ({} bytes)", bytes.len());
            }
            Ok(ExitCode::SUCCESS)
        }
        "inspect" => {
            let mut args = rest.to_vec();
            let shard_filter: Option<usize> = take_flag(&mut args, "--shard")
                .map(|v| v.parse().map_err(|_| format!("bad --shard {v:?}")))
                .transpose()?;
            let [path] = args.as_slice() else {
                return Err("snapshot inspect needs exactly one file".into());
            };
            let info = Snapshot::inspect(path)
                .map_err(|e| CliError::Input(format!("{path}: {e}")))?;
            let cluster = Snapshot::cluster_info(path)
                .map_err(|e| CliError::Input(format!("{path}: {e}")))?;
            if let Some(i) = shard_filter {
                if i >= info.shards.len() {
                    return Err(CliError::Input(format!(
                        "shard {i} out of range: snapshot has {} shard(s)",
                        info.shards.len(),
                    )));
                }
                let shard = &info.shards[i];
                println!("shard {i}/{}", info.shards.len());
                println!("generation {}", shard.generation);
                println!("live {}", shard.live);
                println!("dead {}", shard.dead);
                println!("owned_slots {}", shard.live + shard.dead);
                println!("tombstone_fraction {:.3}", shard.tombstone_fraction());
                println!("node_postings {}", shard.node_postings);
                println!("edge_postings {}", shard.edge_postings);
                println!("participant_postings {}", shard.participant_postings);
                if let Some(c) = cluster {
                    println!("cluster_shard {}/{}", c.shard, c.shards);
                    println!("cluster_universe {}", c.universe);
                }
                return Ok(ExitCode::SUCCESS);
            }
            println!("version {}", info.version);
            println!("semantics {}", semantics_name(info.semantics));
            println!("fingerprint {:016x}", info.fingerprint);
            println!("models {}", info.models);
            println!("generation {}", info.generation);
            println!("shards {}", info.shards.len());
            for (i, shard) in info.shards.iter().enumerate() {
                println!(
                    "shard {i} generation {} live {} dead {} tombstone_fraction {:.3} \
                     node_postings {} edge_postings {} participant_postings {}",
                    shard.generation,
                    shard.live,
                    shard.dead,
                    shard.tombstone_fraction(),
                    shard.node_postings,
                    shard.edge_postings,
                    shard.participant_postings,
                );
            }
            println!("node_postings {}", info.node_postings);
            println!("edge_postings {}", info.edge_postings);
            println!("participant_postings {}", info.participant_postings);
            println!("bytes {}", info.bytes);
            if let Some(c) = cluster {
                println!("cluster_shard {}/{}", c.shard, c.shards);
                println!("cluster_universe {}", c.universe);
            }
            Ok(ExitCode::SUCCESS)
        }
        other => {
            Err(format!("unknown snapshot subcommand {other:?} (build|inspect|split)").into())
        }
    }
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, CliError> {
    use sbmlcompose::serve::{Server, ServerConfig, ShardIdentity, Snapshot};

    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let threads: usize = take_flag(&mut args, "--threads")
        .map(|v| v.parse().map_err(|_| format!("bad --threads {v:?}")))
        .transpose()?
        .unwrap_or(0);
    let cache_capacity: usize = take_flag(&mut args, "--cache")
        .map(|v| v.parse().map_err(|_| format!("bad --cache {v:?}")))
        .transpose()?
        .unwrap_or(256);
    let top_k: usize = take_flag(&mut args, "--top")
        .map(|v| v.parse().map_err(|_| format!("bad --top {v:?}")))
        .transpose()?
        .unwrap_or(10);
    let (deadline_ms, max_steps) = take_budget_flags(&mut args)?;
    let [snapshot_path] = args.as_slice() else {
        return Err("serve needs exactly one snapshot file".into());
    };
    // A split file's CLUSTER section makes this daemon a shard.
    let loaded = Snapshot::load_auto(snapshot_path, threads)
        .map_err(|e| CliError::Input(format!("{snapshot_path}: {e}")))?;
    let sbmlcompose::serve::LoadedSnapshot { index, options, info, cluster, .. } = loaded;
    let config =
        ServerConfig { threads, cache_capacity, max_steps, deadline_ms, top_k };
    let identity = cluster.map(|c| ShardIdentity {
        shard: c.shard,
        shards: c.shards,
        global_slots: c.global_slots(&index),
        universe: c.universe,
    });
    let role = match &identity {
        Some(id) => format!(", shard {}/{}", id.shard, id.shards),
        None => String::new(),
    };
    let server = match identity {
        Some(id) => Server::bind_shard(addr.as_str(), index, options, config, id),
        None => Server::bind(addr.as_str(), index, options, config),
    }
    .map_err(|e| CliError::Input(format!("cannot bind {addr}: {e}")))?;
    println!(
        "listening on {} ({} model(s), semantics {}{role})",
        server.local_addr(),
        info.models,
        semantics_name(info.semantics),
    );
    // Scripts wait for the address line before connecting; stdout may be
    // a pipe, so push it out before blocking in the accept loop.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    server.run().map_err(|e| CliError::Input(format!("serve failed: {e}")))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_coordinator(args: &[String]) -> Result<ExitCode, CliError> {
    use sbmlcompose::cluster::{Coordinator, CoordinatorConfig, RetryPolicy};

    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7979".to_owned());
    let shards_flag = take_flag(&mut args, "--shards")
        .ok_or("coordinator needs --shards addr,addr,... (one per shard, in order)")?;
    let shard_addrs: Vec<String> = shards_flag
        .split(',')
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect();
    if shard_addrs.is_empty() {
        return Err("--shards needs at least one address".into());
    }
    let threads: usize = take_flag(&mut args, "--threads")
        .map(|v| v.parse().map_err(|_| format!("bad --threads {v:?}")))
        .transpose()?
        .unwrap_or(0);
    let cache_capacity: usize = take_flag(&mut args, "--cache")
        .map(|v| v.parse().map_err(|_| format!("bad --cache {v:?}")))
        .transpose()?
        .unwrap_or(256);
    let top_k: usize = take_flag(&mut args, "--top")
        .map(|v| v.parse().map_err(|_| format!("bad --top {v:?}")))
        .transpose()?
        .unwrap_or(10);
    let (deadline_ms, max_steps) = take_budget_flags(&mut args)?;
    let mut retry = RetryPolicy::default();
    if let Some(v) = take_flag(&mut args, "--retry-attempts") {
        retry.attempts = v.parse().map_err(|_| format!("bad --retry-attempts {v:?}"))?;
    }
    if let Some(v) = take_flag(&mut args, "--retry-backoff-ms") {
        retry.backoff_ms = v.parse().map_err(|_| format!("bad --retry-backoff-ms {v:?}"))?;
    }
    if let Some(stray) = args.first() {
        return Err(format!("unexpected coordinator argument {stray:?}").into());
    }
    let config = CoordinatorConfig {
        threads,
        cache_capacity,
        max_steps,
        deadline_ms,
        top_k,
        retry,
        options: None,
    };
    let coordinator = Coordinator::bind(addr.as_str(), &shard_addrs, config)
        .map_err(|e| CliError::Input(format!("cannot start coordinator on {addr}: {e}")))?;
    println!(
        "listening on {} (coordinator, {} shard(s), {} model(s))",
        coordinator.local_addr(),
        coordinator.shards(),
        coordinator.live_models(),
    );
    // Scripts wait for the address line before connecting.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    coordinator.run().map_err(|e| CliError::Input(format!("coordinator failed: {e}")))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_cluster(args: &[String]) -> Result<ExitCode, CliError> {
    use sbmlcompose::serve::{Client, Request, Response};

    let Some(sub) = args.first() else {
        return Err("cluster needs a subcommand: status <addr>".into());
    };
    match sub.as_str() {
        "status" => {
            let [addr] = &args[1..] else {
                return Err("cluster status needs exactly one coordinator address".into());
            };
            let mut client = Client::connect(addr.as_str())
                .map_err(|e| CliError::Input(format!("cannot connect to {addr}: {e}")))?;
            let response = client
                .roundtrip(&Request::Stats)
                .map_err(|e| CliError::Input(format!("{addr}: {e}")))?;
            match response {
                Response::Ok { body, .. } => {
                    let _ = std::io::Write::write_all(&mut std::io::stdout(), &body);
                    Ok(ExitCode::SUCCESS)
                }
                Response::Err { kind, message } => {
                    eprintln!("error ({}): {message}", kind.token());
                    Ok(ExitCode::from(kind.exit_code()))
                }
            }
        }
        other => Err(format!("unknown cluster subcommand {other:?} (status)").into()),
    }
}

fn cmd_client(args: &[String]) -> Result<ExitCode, CliError> {
    use sbmlcompose::serve::{Client, Request, Response};

    if args.len() < 2 {
        return Err(
            "client needs <addr> and a verb: match|query <file>, compose <files...>, \
             upsert <file>, remove <model-id>, stats, shutdown"
                .into(),
        );
    }
    let addr = &args[0];
    let rest = &args[2..];
    let read_doc = |path: &String| {
        fs::read_to_string(path)
            .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))
    };
    let request = match args[1].as_str() {
        "match" => {
            let [path] = rest else { return Err("client match needs one query file".into()) };
            Request::Match { query_xml: read_doc(path)? }
        }
        "query" => {
            let [path] = rest else { return Err("client query needs one query file".into()) };
            Request::Query { query_xml: read_doc(path)? }
        }
        "compose" => {
            if rest.len() < 2 {
                return Err("client compose needs at least two model files".into());
            }
            let models_xml = rest.iter().map(read_doc).collect::<Result<Vec<_>, _>>()?;
            Request::Compose { models_xml }
        }
        "upsert" => {
            let [path] = rest else { return Err("client upsert needs one model file".into()) };
            Request::Upsert { model_xml: read_doc(path)?, slot: None }
        }
        "remove" => {
            let [model_id] = rest else {
                return Err("client remove needs one model id".into());
            };
            Request::Remove { model_id: model_id.clone() }
        }
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown client verb {other:?}").into()),
    };
    let mut client = Client::connect(addr.as_str())
        .map_err(|e| CliError::Input(format!("cannot connect to {addr}: {e}")))?;
    let response = client
        .roundtrip(&request)
        .map_err(|e| CliError::Input(format!("{addr}: {e}")))?;
    match response {
        Response::Ok { code, body } => {
            let _ = std::io::Write::write_all(&mut std::io::stdout(), &body);
            Ok(ExitCode::from(code))
        }
        Response::Err { kind, message } => {
            eprintln!("error ({}): {message}", kind.token());
            Ok(ExitCode::from(kind.exit_code()))
        }
    }
}
