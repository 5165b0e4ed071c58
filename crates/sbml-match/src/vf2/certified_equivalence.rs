//! Certified ≡ VF2: wherever [`find_embedding_limited`] certifies a
//! forced map instead of searching, its answer is exactly what the VF2
//! search returns under the same limits — `Found` with the same map,
//! `NotFound`, or `BudgetExhausted` — over corpus fragments at every
//! semantics level and every budget up to one past the step bound.

use std::time::{Duration, Instant};

use biomodels_corpus::{corpus_187, corpus_conflict, corpus_scale, query_fragment, synonym_variant};
use sbml_compose::ComposeOptions;
use sbml_model::builder::ModelBuilder;
use sbml_model::Model;

use super::*;
use crate::index::DEFAULT_BUDGET;
use crate::semantics::MatchSemantics;

/// The VF2 answer: the whole-graph tests, then the search — never a
/// certification.
fn vf2(query: &MatchGraph, target: &MatchGraph, limits: SearchLimits) -> SearchOutcome {
    match screen(query, target) {
        Screen::Empty => SearchOutcome::Found(Vec::new()),
        Screen::Rejected => SearchOutcome::NotFound,
        Screen::Forced(_) | Screen::Open => search(query, target, limits),
    }
}

fn graph(model: &Model, options: &ComposeOptions) -> MatchGraph {
    MatchGraph::build(model, &MatchSemantics::from_options(options), options, None)
}

fn levels() -> [ComposeOptions; 3] {
    [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
}

/// What the certifier saw over a set of (query, target) pairs.
#[derive(Default)]
struct Tally {
    /// Pairs whose keys were all forced.
    forced: usize,
    /// Forced pairs the certifier answered `Found` at the default budget.
    found: usize,
}

/// Compare both paths on one pair under every limit the suite sweeps.
fn assert_equivalent(query: &MatchGraph, target: &MatchGraph, what: &str, tally: &mut Tally) {
    let mut budgets = vec![DEFAULT_BUDGET];
    if let Screen::Forced(forced) = screen(query, target) {
        let bound = step_bound(query, target, &forced);
        budgets.extend(1..=bound + 1);
        tally.forced += 1;
        let open = SearchLimits { budget: DEFAULT_BUDGET, deadline: None };
        if find_embedding_limited(query, target, open).mapping().is_some() {
            tally.found += 1;
        }
    } else {
        budgets.extend([1, 2, 3]);
    }
    for budget in budgets {
        let limits = SearchLimits { budget, deadline: None };
        assert_eq!(
            find_embedding_limited(query, target, limits),
            vf2(query, target, limits),
            "{what}: budget {budget}"
        );
    }
    for deadline in [Instant::now(), Instant::now() + Duration::from_secs(3600)] {
        let limits = SearchLimits { budget: DEFAULT_BUDGET, deadline: Some(deadline) };
        assert_eq!(
            find_embedding_limited(query, target, limits),
            vf2(query, target, limits),
            "{what}: deadline"
        );
    }
}

/// Radius-1 and radius-2 fragments of each host and of its synonym
/// twin, against the host, the twin and the next host, at every level.
fn sweep(name: &str, hosts: &[Model]) -> Tally {
    let mut tally = Tally::default();
    for (h, host) in hosts.iter().enumerate() {
        let twin = synonym_variant(host);
        let next = &hosts[(h + 1) % hosts.len()];
        let queries: Vec<Model> = [host, &twin]
            .into_iter()
            .flat_map(|m| [1, 2].map(|radius| query_fragment(m, h, radius)))
            .collect();
        for options in levels() {
            let targets = [host, &twin, next].map(|m| (m.id.as_str(), graph(m, &options)));
            for query in &queries {
                let qg = graph(query, &options);
                for (target_id, tg) in &targets {
                    let what = format!(
                        "{name}: {} in {target_id} under {:?}",
                        query.id, options.semantics
                    );
                    assert_equivalent(&qg, tg, &what, &mut tally);
                }
            }
        }
    }
    tally
}

#[test]
fn certified_equals_vf2_on_corpus_187_fragments() {
    let corpus = corpus_187();
    let hosts: Vec<Model> = corpus.into_iter().skip(40).step_by(21).collect();
    let tally = sweep("corpus_187", &hosts);
    assert!(tally.found > 0, "some fragments certify as found");
}

#[test]
fn certified_equals_vf2_on_scale_fragments() {
    let hosts: Vec<Model> = corpus_scale(96).into_iter().step_by(11).collect();
    let tally = sweep("corpus_scale", &hosts);
    // Scale-tier keys are mostly unique in a host: every host certifies
    // its own fragments at all three levels, and more besides.
    assert!(tally.found >= hosts.len() * 6, "{} of {} pairs certified", tally.found, hosts.len() * 36);
}

#[test]
fn certified_equals_vf2_on_conflict_fragments() {
    let tally = sweep("corpus_conflict", &corpus_conflict(3));
    assert!(tally.forced > 0, "some conflict pairs are forced");
}

fn chain(id: &str, species: &[&str], steps: &[(&str, &str)]) -> Model {
    let mut b = ModelBuilder::new(id).compartment("cell", 1.0).parameter("k", 1.0);
    for s in species {
        b = b.species(s, 1.0);
    }
    for (from, to) in steps {
        b = b.reaction(&format!("r_{from}_{to}"), &[from], &[to], &format!("k*{from}"));
    }
    b.build()
}

#[test]
fn forced_map_missing_one_edge_is_not_found() {
    let options = ComposeOptions::none();
    let query = graph(&chain("q", &["A", "B", "C"], &[("A", "B"), ("B", "C")]), &options);
    // Same species and both reaction labels, but B -> C is wired A -> C.
    let mut host = chain("t", &["A", "B", "C"], &[("A", "B"), ("A", "C")]);
    host.reactions[1].id = "r_B_C".into();
    let target = graph(&host, &options);
    assert!(matches!(screen(&query, &target), Screen::Forced(_)), "keys are unique");
    let limits = SearchLimits { budget: DEFAULT_BUDGET, deadline: None };
    assert_eq!(find_embedding_limited(&query, &target, limits), SearchOutcome::NotFound);
    assert_eq!(vf2(&query, &target, limits), SearchOutcome::NotFound);
}

#[test]
fn self_loops_are_certified_like_any_edge() {
    let options = ComposeOptions::none();
    let looped = chain("q", &["A", "B"], &[("A", "A"), ("A", "B")]);
    let query = graph(&looped, &options);
    let with_loop = graph(&chain("t", &["A", "B", "C"], &[("A", "A"), ("A", "B")]), &options);
    let mut relabelled = chain("u", &["A", "B"], &[("A", "B"), ("B", "B")]);
    relabelled.reactions[1].id = "r_A_A".into(); // the loop moved to B
    let without_loop = graph(&relabelled, &options);
    let limits = SearchLimits { budget: DEFAULT_BUDGET, deadline: None };
    assert_eq!(find_embedding_limited(&query, &with_loop, limits), SearchOutcome::Found(vec![0, 1]));
    assert_eq!(find_embedding_limited(&query, &without_loop, limits), SearchOutcome::NotFound);
    let mut tally = Tally::default();
    assert_equivalent(&query, &with_loop, "loop kept", &mut tally);
    assert_equivalent(&query, &without_loop, "loop moved", &mut tally);
    assert_eq!((tally.forced, tally.found), (2, 1));
}

#[test]
fn repeated_keys_take_the_vf2_path() {
    let options = ComposeOptions::light();
    // "glucose" and "dextrose" share one light key, on both sides.
    let pair = |id: &str| {
        ModelBuilder::new(id)
            .compartment("cell", 1.0)
            .parameter("k", 1.0)
            .species_named("a", "glucose", 1.0)
            .species_named("b", "dextrose", 1.0)
            .reaction("r", &["a"], &["b"], "k*a")
            .build()
    };
    let (query, target) = (graph(&pair("q"), &options), graph(&pair("t"), &options));
    assert!(matches!(screen(&query, &target), Screen::Open), "one key, two carriers");
    let mut tally = Tally::default();
    assert_equivalent(&query, &target, "repeated key", &mut tally);
    assert_eq!(tally.forced, 0);
    let limits = SearchLimits { budget: DEFAULT_BUDGET, deadline: None };
    assert!(find_embedding_limited(&query, &target, limits).mapping().is_some());

    // One query node, two carriers: the first carrier lacks the edge,
    // so only a search finds the second.
    let query = graph(
        &ModelBuilder::new("q")
            .compartment("cell", 1.0)
            .parameter("k", 1.0)
            .species_named("a", "glucose", 1.0)
            .species("b", 1.0)
            .reaction("r", &["a"], &["b"], "k*a")
            .build(),
        &options,
    );
    let target = graph(
        &ModelBuilder::new("t")
            .compartment("cell", 1.0)
            .parameter("k", 1.0)
            .species_named("a1", "glucose", 1.0)
            .species_named("a2", "dextrose", 1.0)
            .species("b", 1.0)
            .reaction("r", &["a2"], &["b"], "k*a2")
            .build(),
        &options,
    );
    assert!(matches!(screen(&query, &target), Screen::Open), "one key, two carriers");
    assert_equivalent(&query, &target, "second carrier", &mut tally);
    assert_eq!(find_embedding_limited(&query, &target, limits), SearchOutcome::Found(vec![1, 2]));
}
