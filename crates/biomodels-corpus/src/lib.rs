//! Deterministic synthetic stand-in for the BioModels corpus.
//!
//! The paper's Figure 8 composes "187 models ... sourced from the BioModels
//! database. Model size ranged from 0 to 194 nodes and 0 to 313 edges",
//! every model with every other in ascending size order. The real curated
//! files are not redistributable here, so this crate generates a corpus
//! with the same *shape*:
//!
//! * exactly **187 models**, sizes spanning **0–194 nodes** and **0–313
//!   edges** with the right-skewed distribution real BioModels has (many
//!   small models, a long tail of large ones),
//! * species drawn from a shared pool (plus common biochemical vocabulary),
//!   so distinct models overlap and composition actually *shares* nodes,
//! * kinetic laws spanning the paper's Figures 10–12: first- and
//!   second-order mass action, reversible mass action, explicit
//!   Michaelis–Menten and Michaelis–Menten via a function definition,
//! * a sprinkling of events, rules, initial assignments and unit
//!   definitions so every Fig. 4 pipeline stage does real work,
//!
//! plus the **17-model corpus** of the Figure 9 comparison ("only 17 test
//! models ... with all models already annotated biologically", 4–7 nodes,
//! 0–3 edges — names resolvable in the annotation database).
//!
//! Everything is seeded: `corpus_187()` returns byte-identical models on
//! every call, which the benches rely on.
//!
//! For index-scale workloads there is additionally a **scale tier**
//! ([`corpus_scale`]): an arbitrarily large deterministic corpus of
//! motif-sharing models (most tiny, a right-skewed tail of large ones)
//! whose posting lists genuinely collide — the input of the 10k-model
//! incremental/sharded index benches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbml_model::builder::ModelBuilder;
use sbml_model::Model;

/// Names shared with the annotation database / synonym tables, so the
/// baselines' lookups and SBMLCompose's synonym matching both get hits.
pub const COMMON_SPECIES: &[&str] = &[
    "glucose", "ATP", "ADP", "NAD", "NADH", "pyruvate", "lactate", "citrate", "oxygen",
    "water", "phosphate", "fructose", "G6P", "F6P", "PEP", "G3P",
];

/// Number of models in the Figure 8 corpus.
pub const CORPUS_SIZE: usize = 187;
/// Maximum node count, as in the paper.
pub const MAX_NODES: usize = 194;
/// Maximum edge count, as in the paper.
pub const MAX_EDGES: usize = 313;

/// The planned (nodes, edges) of corpus model `i`, following a right-skewed
/// ramp from (0, 0) to exactly (194, 313).
pub fn planned_size(index: usize) -> (usize, usize) {
    assert!(index < CORPUS_SIZE, "corpus has {CORPUS_SIZE} models");
    let frac = index as f64 / (CORPUS_SIZE - 1) as f64;
    // Right-skew: most models small (BioModels reality), tail to the max.
    let nodes = (MAX_NODES as f64 * frac.powf(1.6)).round() as usize;
    let edges = (MAX_EDGES as f64 * frac.powf(1.6)).round() as usize;
    (nodes, edges)
}

/// Generate corpus model `index` (deterministic).
pub fn generate_model(index: usize) -> Model {
    let (nodes, edges) = planned_size(index);
    let mut rng = StdRng::seed_from_u64(0xB10_0000 + index as u64);
    build_model(&format!("BIOMD{index:04}"), nodes, edges, &mut rng, index)
}

/// The full 187-model Figure 8 corpus, in ascending size order.
pub fn corpus_187() -> Vec<Model> {
    (0..CORPUS_SIZE).map(generate_model).collect()
}

/// A contiguous slice `range` of the Figure 8 ramp, generated without
/// materialising the rest of the corpus — what batch smoke runs and
/// examples want (`corpus_slice(0..CORPUS_SIZE)` equals [`corpus_187`]).
pub fn corpus_slice(range: std::ops::Range<usize>) -> Vec<Model> {
    assert!(range.end <= CORPUS_SIZE, "corpus has {CORPUS_SIZE} models");
    range.map(generate_model).collect()
}

/// The 17 small annotated models of the Figure 9 comparison
/// (4–7 nodes, 0–3 edges, all species named from the common vocabulary).
pub fn corpus_17() -> Vec<Model> {
    (0..17)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0x5E_17 + i as u64);
            let nodes = 4 + (i % 4); // 4..=7
            let edges = i % 4; // 0..=3
            build_small_annotated(&format!("SEMSBML{i:02}"), nodes, edges, &mut rng, i)
        })
        .collect()
}

/// Number of shared reaction motifs the scale tier draws from: every
/// scale-tier model carries at least one motif family's chain verbatim
/// (same species labels, same kinetics), so index postings collide the
/// way conserved pathways make real BioModels entries collide.
pub const SCALE_MOTIF_FAMILIES: usize = 48;

/// Species pool of the scale tier (wider than the Fig. 8 pool so 10k
/// models do not degenerate into one fully-connected key space).
pub const SCALE_SPECIES_POOL: usize = 600;

/// A deterministic `n`-model corpus for the 10k+ **scale tier** —
/// the index growth/sharding benches' input. Same generator idioms as
/// [`corpus_187`] (seeded [`StdRng`] per model, overlapping species
/// pool, mass-action kinetics) but shaped for indexing at corpus scale:
///
/// * **size-skewed**: most models are motif-sized (3–8 species), with a
///   right-skewed tail of larger ones — so per-model analysis cost is
///   CI-sane at 10 000 models;
/// * **shared-motif families**: model `i` embeds motif family
///   `i % `[`SCALE_MOTIF_FAMILIES`] — a fixed 3-step reaction chain over
///   fixed pool species with fixed kinetics — so posting lists genuinely
///   collide (~`n / 48` models per family key) and candidate generation
///   has real pruning work at every semantics level;
/// * **unique tails**: larger models add private species and random
///   reactions, giving every model distinguishing postings too.
///
/// `scale_model(i)` is independent of `n`: growing the corpus appends
/// models without changing existing ones, which the incremental-append
/// bench relies on.
pub fn corpus_scale(n: usize) -> Vec<Model> {
    (0..n).map(scale_model).collect()
}

/// Scale-tier model `i` (deterministic, independent of corpus size).
pub fn scale_model(i: usize) -> Model {
    let mut rng = StdRng::seed_from_u64(0x5CA1E_0000 + i as u64);
    let family = i % SCALE_MOTIF_FAMILIES;
    let mut b = ModelBuilder::new(format!("SCALE{i:05}"))
        .name(format!("scale-tier entry {i}, motif family {family}"))
        .compartment("cell", 1.0);

    // Collect the pool species first (deduplicated), add them to the
    // builder in one pass, then wire the reactions over their ids.
    let mut pool_slots: Vec<usize> = Vec::new();
    let add_slot = |pool_slots: &mut Vec<usize>, slot: usize| -> String {
        let slot = slot % SCALE_SPECIES_POOL;
        if !pool_slots.contains(&slot) {
            pool_slots.push(slot);
        }
        pool_species(slot).0
    };

    // The family motif: a fixed 3-step chain over the family's own pool
    // slice with fixed per-family kinetics — identical in every model of
    // the family, so node, edge, participant and heavy content keys all
    // collide across the family.
    let base = family * 12;
    let chain: Vec<String> = (0..4).map(|j| add_slot(&mut pool_slots, base + j)).collect();

    // Cross-family overlap: a couple of species from the rolling Fig. 8
    // style offset, connecting neighbouring models outside their family.
    for j in 0..2 {
        add_slot(&mut pool_slots, i * 3 + j);
    }

    let mut ids: Vec<String> = Vec::new();
    for slot in pool_slots {
        let (sid, name) = pool_species(slot);
        b = match name {
            Some(display) => b.species_named(&sid, &display, (slot % 10) as f64),
            None => b.species(&sid, (slot % 10) as f64),
        };
        ids.push(sid);
    }

    for j in 0..3 {
        let k_id = format!("kf{family}_{j}");
        let k_val = round3(0.05 + ((family * 7 + j * 3) % 190) as f64 / 100.0);
        b = b.parameter(&k_id, k_val).reaction(
            &format!("m{family}_r{j}"),
            &[chain[j].as_str()],
            &[chain[j + 1].as_str()],
            &format!("{k_id}*{}", chain[j]),
        );
    }

    // Right-skewed unique tail: most models stop at the motif; a few
    // grow private species and random mass-action reactions on top.
    let frac = rng.gen_range(0.0..1.0_f64);
    let extra = (48.0 * frac.powf(6.0)).round() as usize;
    for j in 0..extra {
        let sid = format!("u{i}_{j}");
        b = b.species(&sid, j as f64);
        ids.push(sid);
    }
    for r in 0..extra / 3 {
        let from = ids[rng.gen_range(0..ids.len())].clone();
        let to = ids[rng.gen_range(0..ids.len())].clone();
        if from == to {
            continue;
        }
        let k_id = format!("ku{r}");
        b = b.parameter(&k_id, round3(rng.gen_range(0.01..2.0))).reaction(
            &format!("u{i}_r{r}"),
            &[from.as_str()],
            &[to.as_str()],
            &format!("{k_id}*{from}"),
        );
    }
    b.build()
}

/// Species id for pool slot `n`: common vocabulary first, then generic.
fn pool_species(n: usize) -> (String, Option<String>) {
    if n < COMMON_SPECIES.len() {
        let display = COMMON_SPECIES[n];
        // ids must be simple; display names keep their natural form
        let id = display.to_lowercase().replace([' ', '-'], "_");
        (id, Some(display.to_owned()))
    } else {
        (format!("sp_{n:03}"), None)
    }
}

fn build_model(id: &str, nodes: usize, edges: usize, rng: &mut StdRng, index: usize) -> Model {
    let mut b = ModelBuilder::new(id).name(format!("synthetic BioModels entry {index}"));
    if nodes == 0 {
        // The paper's corpus includes size-0 models; they are legal SBML.
        return b.build();
    }
    b = b.compartment("cell", 1.0);

    // Species from an overlapping pool: model i starts at offset i*3 so
    // neighbouring models share a suffix/prefix of the pool.
    let pool_size = 420usize;
    let offset = (index * 3) % pool_size;
    let mut ids: Vec<String> = Vec::with_capacity(nodes);
    for j in 0..nodes {
        let (sid, name) = pool_species((offset + j) % pool_size);
        let amount = rng.gen_range(0.0..100.0_f64).round();
        b = match name {
            Some(display) => b.species_named(&sid, &display, amount),
            None => b.species(&sid, amount),
        };
        ids.push(sid);
    }

    // A Michaelis–Menten function definition for some models (exercises
    // function-definition merging; Fig. 12 kinetics).
    let has_mm_fn = index.is_multiple_of(5);
    if has_mm_fn {
        b = b.function("mm", &["S", "Vmax", "Km"], "Vmax*S/(Km+S)");
    }

    // Reactions until the planned edge budget is consumed.
    let mut remaining = edges;
    let mut r_idx = 0usize;
    while remaining > 0 {
        let bimolecular = remaining >= 2 && nodes >= 3 && rng.gen_bool(0.2);
        let kind = rng.gen_range(0..10);
        let s = |rng: &mut StdRng| ids[rng.gen_range(0..ids.len())].clone();
        let k_id = format!("k{r_idx}");
        let k_val = round3(rng.gen_range(0.01..2.0));
        if bimolecular {
            // A + B -> C : 2 reactants × 1 product = 2 edges.
            let (a, bb, c) = (s(rng), s(rng), s(rng));
            if a == bb {
                continue; // avoid accidental homodimer complicating counts
            }
            b = b.parameter(&k_id, k_val).reaction(
                &format!("r{r_idx}"),
                &[a.as_str(), bb.as_str()],
                &[c.as_str()],
                &format!("{k_id}*{a}*{bb}"),
            );
            remaining -= 2;
        } else {
            let (from, to) = (s(rng), s(rng));
            b = match kind {
                // reversible mass action (paper Fig. 11)
                0 => {
                    let kr_id = format!("kr{r_idx}");
                    let kr_val = round3(rng.gen_range(0.01..1.0));
                    b.parameter(&k_id, k_val).parameter(&kr_id, kr_val).reversible_reaction(
                        &format!("r{r_idx}"),
                        &[from.as_str()],
                        &[to.as_str()],
                        &format!("{k_id}*{from} - {kr_id}*{to}"),
                    )
                }
                // explicit Michaelis–Menten (paper Fig. 12)
                1 => {
                    let vmax = format!("Vmax{r_idx}");
                    let km = format!("Km{r_idx}");
                    b.parameter(&vmax, round3(rng.gen_range(0.5..10.0)))
                        .parameter(&km, round3(rng.gen_range(1.0..20.0)))
                        .reaction(
                            &format!("r{r_idx}"),
                            &[from.as_str()],
                            &[to.as_str()],
                            &format!("{vmax}*{from}/({km}+{from})"),
                        )
                }
                // MM via the shared function definition
                2 if has_mm_fn => {
                    let vmax = format!("Vmax{r_idx}");
                    let km = format!("Km{r_idx}");
                    b.parameter(&vmax, round3(rng.gen_range(0.5..10.0)))
                        .parameter(&km, round3(rng.gen_range(1.0..20.0)))
                        .reaction(
                            &format!("r{r_idx}"),
                            &[from.as_str()],
                            &[to.as_str()],
                            &format!("mm({from}, {vmax}, {km})"),
                        )
                }
                // degradation (1 edge by the nodes+edges metric)
                3 => b.parameter(&k_id, k_val).reaction(
                    &format!("r{r_idx}"),
                    &[from.as_str()],
                    &[],
                    &format!("{k_id}*{from}"),
                ),
                // plain first-order mass action (paper Fig. 10)
                _ => b.parameter(&k_id, k_val).reaction(
                    &format!("r{r_idx}"),
                    &[from.as_str()],
                    &[to.as_str()],
                    &format!("{k_id}*{from}"),
                ),
            };
            remaining -= 1;
        }
        r_idx += 1;
    }

    // Occasional extra component kinds so every merge stage is exercised.
    if index.is_multiple_of(7) && nodes >= 2 {
        b = b.initial_assignment(&ids[0].clone(), "2 * 5");
    }
    if index.is_multiple_of(11) && nodes >= 2 {
        let first = ids[0].clone();
        b = b.constraint(&format!("{first} >= 0"), Some("non-negative"));
    }
    if index.is_multiple_of(13) && nodes >= 1 {
        let first = ids[0].clone();
        b = b.event(
            &format!("pulse_{index}"),
            "time >= 50",
            &[(first.as_str(), &format!("{first} + 10") as &str)],
        );
    }
    if index.is_multiple_of(17) {
        use sbml_units::{Unit, UnitDefinition, UnitKind};
        b = b.unit_definition(UnitDefinition::new(
            "per_second",
            vec![Unit::of(UnitKind::Second).pow(-1)],
        ));
    }

    b.build()
}

fn build_small_annotated(
    id: &str,
    nodes: usize,
    edges: usize,
    rng: &mut StdRng,
    index: usize,
) -> Model {
    let mut b = ModelBuilder::new(id)
        .name(format!("annotated comparison model {index}"))
        .compartment("cell", 1.0);
    // All species from the common vocabulary (rotating window) so that the
    // baseline's database lookups resolve, as the paper's 17 models did.
    let mut ids = Vec::with_capacity(nodes);
    for j in 0..nodes {
        let (sid, name) = pool_species((index + j) % COMMON_SPECIES.len());
        let display = name.expect("common species have names");
        let amount = rng.gen_range(1.0..50.0_f64).round();
        b = b.species_named(&sid, &display, amount);
        ids.push(sid);
    }
    for e in 0..edges {
        let from = ids[e % ids.len()].clone();
        let to = ids[(e + 1) % ids.len()].clone();
        if from == to {
            continue;
        }
        let k = format!("k{e}");
        b = b.parameter(&k, round3(rng.gen_range(0.05..1.0))).reaction(
            &format!("r{e}"),
            &[from.as_str()],
            &[to.as_str()],
            &format!("{k}*{from}"),
        );
    }
    b.build()
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Number of shared-id parameters every [`corpus_conflict`] model carries
/// (each pair of models disagrees on all of their values).
pub const CONFLICT_SHARED_PARAMS: usize = 16;

/// Number of name-mapped alias species per [`corpus_conflict`] model.
pub const CONFLICT_ALIASES: usize = 8;

/// A deterministic **conflict-heavy corpus**: `n` models of identical
/// shape built so that *every* pair forces renames and records mappings —
/// the workload where per-pair cost is dominated by revalidating cached
/// content keys under live ID mappings:
///
/// * **parameters** share ids (`k{j}`) with values that diverge per model,
///   so every pair conflicts on every shared parameter — the incoming one
///   is renamed (`k{j}_1`) and the rename recorded as a mapping;
/// * **alias species** carry per-model ids under shared display names, so
///   every pair unifies them *by name* and records a mapping per alias;
/// * the bulk species share ids and values (plain id-hit duplicates), and
///   **reactions, rules, constraints and events** carry model-unique ids
///   and *large* commutative formulas (≈ two dozen operand groups) that
///   reference one or two mapped aliases amid dozens of untouched shared
///   species. Every such formula fails the clean-references fast path —
///   its cached key must be revalidated under the pair's mappings, after
///   which most components content-match the base model's — while only a
///   leaf or two of each actually changed: the exact shape that separates
///   incremental key renaming (O(touched leaves), dirty commutative
///   groups only) from full re-canonicalisation (O(formula));
/// * every eighth reaction references a conflicted `k{j}` instead, so its
///   mapped kinetics match nothing and the full insert path (rename the
///   maths, claim the id, extend the indexes) stays exercised too.
///
/// Deterministic and RNG-free: `corpus_conflict(n)` returns byte-identical
/// models on every call. Each model has 257 keyed components (64 + 8
/// species, 64 reactions, 48 rules, 24 constraints, 32 events, 16
/// functions, one compartment), which also clears the default
/// `parallel_push_threshold` of 256.
pub fn corpus_conflict(n: usize) -> Vec<Model> {
    (0..n).map(conflict_model).collect()
}

fn conflict_model(i: usize) -> Model {
    use sbml_math::infix;
    use sbml_model::{Event, EventAssignment, FunctionDefinition, Rule};

    const SPECIES: usize = 64;
    const REACTIONS: usize = 64;
    const RULES: usize = 48;
    const CONSTRAINTS: usize = 24;
    const EVENTS: usize = 32;
    const FUNCTIONS: usize = 16;

    // Shared-id species: id hits in every pair, never mapped — the
    // untouched operands of every formula.
    let sp = |j: usize| format!("cs{}", j % SPECIES);
    let al = |j: usize| format!("alias{i}_{}", j % CONFLICT_ALIASES);
    let k = |j: usize| format!("k{}", j % CONFLICT_SHARED_PARAMS);
    // A wide commutative sum of species products: `groups` untouched
    // operand groups seeded by `salt`, plus the caller-chosen head term.
    let wide = |head: String, salt: usize, groups: usize| -> String {
        let mut terms = vec![head];
        terms.extend((0..groups).map(|t| format!("{} * {}", sp(salt + t), sp(salt + 5 * t + 2))));
        terms.join(" + ")
    };

    let mut b = ModelBuilder::new(format!("CONF{i:03}")).compartment("cell", 1.0);
    for j in 0..SPECIES {
        b = b.species(&sp(j), (j % 9) as f64);
    }
    for j in 0..CONFLICT_ALIASES {
        // Divergent ids under shared names -> Mapped in every pair.
        b = b.species_named(&al(j), &format!("conf_alias{j}"), 2.0 + j as f64);
    }
    for j in 0..CONFLICT_SHARED_PARAMS {
        // Shared ids, divergent values -> conflict + rename in every pair.
        b = b.parameter(&k(j), round3(0.1 * (j + 1) as f64 + 0.013 * (i + 1) as f64));
    }
    for j in 0..REACTIONS {
        // Most reactions content-match the base once the alias mapping is
        // applied; every eighth references a conflicted parameter instead
        // and must be inserted with rewritten maths.
        let head = if j % 8 == 0 {
            format!("{} * {}", k(j), sp(j + 3))
        } else {
            format!("{} * {}", al(j), sp(j + 3))
        };
        let law = wide(head, j, 40);
        let (a, c) = (sp(j), sp(j + 1));
        b = b.reaction(&format!("r{i}_{j}"), &[a.as_str()], &[c.as_str()], &law);
    }
    let mut m = b.build();
    for j in 0..FUNCTIONS {
        // Model-unique ids and bodies (the trailing constant differs per
        // model), so pairs neither id- nor content-match: pure insert
        // work.
        m.function_definitions.push(FunctionDefinition::new(
            format!("f{i}_{j}"),
            vec!["x".into(), "y".into()],
            infix::parse(&format!("x*y + x*{j} + y + {i}")).unwrap(),
        ));
    }
    for j in 0..RULES {
        // Algebraic (variable-free) so the mapped rule content-matches.
        let math = wide(format!("{} * {}", al(j), sp(j + 7)), j + 11, 32);
        m.rules.push(Rule::Algebraic { math: infix::parse(&math).unwrap() });
    }
    for j in 0..CONSTRAINTS {
        let sum = wide(al(j), j + 29, 24);
        m.constraints.push(sbml_model::rule::Constraint {
            math: infix::parse(&format!("{sum} >= 0")).unwrap(),
            message: None,
        });
    }
    for j in 0..EVENTS {
        let trigger = wide(al(j), j + 41, 16);
        let mut ev = Event::new(infix::parse(&format!("{trigger} > 3")).unwrap());
        ev.id = Some(format!("e{i}_{j}"));
        for t in 0..2 {
            let sum = wide(format!("{} * {}", al(j + t), sp(j + t + 1)), j + t + 53, 12);
            ev.assignments.push(EventAssignment {
                variable: sp(j + t),
                math: infix::parse(&sum).unwrap(),
            });
        }
        m.events.push(ev);
    }
    m
}

/// A deterministic connected **query fragment** of a model — the kind of
/// subnetwork a corpus search starts from ("find this pathway fragment
/// across the corpus"). The fragment is the radius-`radius` reaction-hop
/// neighbourhood ([`sbml_compose::extract_submodel`]) of one seed species
/// (chosen by `seed` modulo the species count), so it keeps the host's
/// ids, names and kinetics verbatim: by construction it *embeds* in its
/// host under every semantics level, which is exactly what the matching
/// benches and property tests exercise. A species-free model yields an
/// empty fragment.
pub fn query_fragment(model: &Model, seed: usize, radius: usize) -> Model {
    let mut fragment = match model.species.len() {
        0 => Model::new(""),
        n => {
            let species = &model.species[seed % n];
            sbml_compose::extract_submodel(model, &[species.id.as_str()], radius)
        }
    };
    fragment.id = format!("{}_q{}r{}", model.id, seed, radius);
    fragment
}

/// Synonym groups used by [`synonym_variant`]: pairs of (canonical, alias)
/// drawn from the builtin synonym table, so heavy-semantics matching can
/// unify the variant with the original while id-based matching cannot.
const SYNONYM_ALIASES: &[(&str, &str)] = &[
    ("glucose", "dextrose"),
    ("ATP", "adenosine triphosphate"),
    ("ADP", "adenosine diphosphate"),
    ("NAD", "NAD+"),
    ("pyruvate", "pyruvic acid"),
    ("lactate", "lactic acid"),
    ("citrate", "citric acid"),
    ("oxygen", "O2"),
    ("water", "H2O"),
    ("phosphate", "Pi"),
    ("G6P", "glucose 6-phosphate"),
    ("F6P", "fructose 6-phosphate"),
    ("PEP", "phosphoenolpyruvate"),
    ("G3P", "glyceraldehyde 3-phosphate"),
];

/// Produce a *synonym-divergent* twin of a model, as if a second group had
/// curated the same pathway independently:
///
/// * every species id gets a `v2_` prefix (no id-level matches possible),
/// * species named with common vocabulary are renamed to a registered
///   synonym (`glucose` → `dextrose`, ...), so only synonym-aware matching
///   recovers the correspondence,
/// * commutative kinetic-law operands are reversed (`k*A` stays, `k*A*B`
///   becomes `B*A*k` structurally), exercising the Fig. 7 pattern,
/// * reaction and parameter ids get a `v2_` prefix too.
///
/// Heavy semantics should merge the twin back into the original with full
/// sharing; no-semantics should share nothing.
pub fn synonym_variant(model: &Model) -> Model {
    let mut twin = model.clone();
    twin.id = format!("{}_v2", model.id);

    // Batch-rename every global id with a v2_ prefix.
    let mut renames = std::collections::HashMap::new();
    for id in model.global_ids() {
        if id == "cell" {
            continue; // shared compartment keeps its identity
        }
        renames.insert(id.clone(), format!("v2_{id}"));
    }
    sbml_compose::rename::apply_renames(&mut twin, &renames);

    // Swap display names to synonyms where we have them. Unnamed species
    // get their original id as a display name — a second curator typically
    // preserves the biological label even while minting fresh ids, and
    // name-based matching is exactly what the paper's synonym tables feed.
    for (s, original) in twin.species.iter_mut().zip(&model.species) {
        match &s.name {
            Some(name) => {
                if let Some((_, alias)) =
                    SYNONYM_ALIASES.iter().find(|(canon, _)| canon.eq_ignore_ascii_case(name))
                {
                    s.name = Some((*alias).to_owned());
                }
            }
            None => s.name = Some(original.id.clone()),
        }
    }

    // Reverse commutative operand order in every kinetic law.
    for r in &mut twin.reactions {
        if let Some(kl) = &mut r.kinetic_law {
            kl.math = reverse_commutative(&kl.math);
        }
    }
    twin
}

/// Recursively reverse the operand order of commutative applications.
fn reverse_commutative(expr: &sbml_math::MathExpr) -> sbml_math::MathExpr {
    use sbml_math::MathExpr;
    match expr {
        MathExpr::Apply { op, args } => {
            let mut new_args: Vec<MathExpr> = args.iter().map(reverse_commutative).collect();
            if op.is_commutative() {
                new_args.reverse();
            }
            MathExpr::Apply { op: *op, args: new_args }
        }
        MathExpr::Call { function, args } => MathExpr::Call {
            function: function.clone(),
            args: args.iter().map(reverse_commutative).collect(),
        },
        MathExpr::Piecewise { pieces, otherwise } => MathExpr::Piecewise {
            pieces: pieces
                .iter()
                .map(|(v, c)| (reverse_commutative(v), reverse_commutative(c)))
                .collect(),
            otherwise: otherwise.as_ref().map(|o| Box::new(reverse_commutative(o))),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_tier_is_deterministic_and_collides() {
        let corpus = corpus_scale(200);
        assert_eq!(corpus.len(), 200);
        // Deterministic and independent of corpus size: regenerating a
        // prefix yields byte-identical models.
        assert_eq!(corpus_scale(50), corpus[..50], "prefix-stable generation");
        // Family members share the motif chain verbatim: same species
        // ids and same reaction kinetics.
        let (a, b) = (&corpus[3], &corpus[3 + SCALE_MOTIF_FAMILIES]);
        let motif = |m: &Model| -> Vec<_> {
            m.reactions
                .iter()
                .filter(|r| r.id.starts_with("m3_"))
                .map(|r| (r.id.clone(), r.reactants.clone(), r.products.clone()))
                .collect()
        };
        assert_eq!(motif(a).len(), 3, "every model carries its family's 3-step chain");
        assert_eq!(motif(a), motif(b), "family members share the chain verbatim");
        // Size skew: most models are motif-sized, some grow a tail.
        let sizes: Vec<usize> = corpus.iter().map(|m| m.species.len()).collect();
        let small = sizes.iter().filter(|&&s| s <= 10).count();
        assert!(small > corpus.len() / 2, "most models are motif-sized");
        assert!(sizes.iter().any(|&s| s > 20), "a right-skewed tail exists");
    }

    #[test]
    fn corpus_has_documented_shape() {
        let corpus = corpus_187();
        assert_eq!(corpus.len(), CORPUS_SIZE);
        let nodes: Vec<usize> = corpus.iter().map(Model::nodes).collect();
        let edges: Vec<usize> = corpus.iter().map(Model::edges).collect();
        assert_eq!(*nodes.first().unwrap(), 0, "smallest model has 0 nodes");
        assert_eq!(*nodes.iter().max().unwrap(), MAX_NODES, "largest hits 194 nodes");
        assert_eq!(*edges.iter().max().unwrap(), MAX_EDGES, "largest hits 313 edges");
        // ascending size order (nodes+edges), as the experiment requires
        let sizes: Vec<usize> = corpus.iter().map(Model::size).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted, "corpus must come out in ascending size order");
    }

    #[test]
    fn deterministic() {
        let a = generate_model(42);
        let b = generate_model(42);
        assert_eq!(a, b);
        let c = generate_model(43);
        assert_ne!(a, c);
    }

    #[test]
    fn planned_sizes_are_exact() {
        for i in [0, 1, 50, 100, 186] {
            let (n, e) = planned_size(i);
            let m = generate_model(i);
            assert_eq!(m.nodes(), n, "model {i} nodes");
            assert_eq!(m.edges(), e, "model {i} edges");
        }
    }

    #[test]
    fn models_are_valid_sbml() {
        for i in [0, 1, 13, 35, 70, 119, 186] {
            let m = generate_model(i);
            let issues = sbml_model::validate(&m);
            let errors: Vec<_> = issues
                .iter()
                .filter(|x| x.severity == sbml_model::Severity::Error)
                .collect();
            assert!(errors.is_empty(), "model {i}: {errors:?}");
            // and they round-trip through SBML text
            let text = sbml_model::write_sbml(&m);
            let back = sbml_model::parse_sbml(&text).unwrap();
            assert_eq!(back, m, "model {i} round trip");
        }
    }

    #[test]
    fn corpus_17_shape() {
        let models = corpus_17();
        assert_eq!(models.len(), 17);
        for m in &models {
            assert!((4..=7).contains(&m.nodes()), "nodes {} out of 4–7", m.nodes());
            assert!(m.edges() <= 3, "edges {} out of 0–3", m.edges());
            // all species annotated (names from the common vocabulary)
            for s in &m.species {
                assert!(s.name.is_some());
            }
        }
    }

    #[test]
    fn models_overlap_for_composition() {
        // Neighbouring corpus models share species (pool overlap), so
        // composition has real work to do.
        let a = generate_model(100);
        let b = generate_model(101);
        let ids_a: std::collections::BTreeSet<_> =
            a.species.iter().map(|s| s.id.clone()).collect();
        let shared = b.species.iter().filter(|s| ids_a.contains(&s.id)).count();
        assert!(shared > 0, "adjacent models must overlap");
    }

    #[test]
    fn corpus_slice_matches_full_corpus() {
        let slice = corpus_slice(40..44);
        let full = corpus_187();
        assert_eq!(slice.as_slice(), &full[40..44]);
    }

    #[test]
    fn batch_all_pairs_on_corpus_equals_raw_pairs() {
        // The Fig. 8 workload in miniature: prepared batch composition
        // over a corpus slice must match raw pairwise composition.
        let models = corpus_slice(38..43);
        let composer = sbml_compose::Composer::default();
        let batch = sbml_compose::BatchComposer::new(composer.clone()).with_threads(2);
        let prepared = batch.prepare_corpus(&models);
        let results = batch.all_pairs_with(&prepared, |i, j, result| (i, j, result));
        assert_eq!(results.len(), 5 * 4 / 2);
        for (i, j, result) in &results {
            let raw = composer.compose(&models[*i], &models[*j]);
            assert_eq!(result.model, raw.model, "pair ({i},{j})");
            assert_eq!(result.log.events, raw.log.events, "pair ({i},{j})");
            assert_eq!(result.mappings, raw.mappings, "pair ({i},{j})");
        }
    }

    #[test]
    fn corpus_models_compose_cleanly() {
        let composer = sbml_compose::Composer::default();
        let a = generate_model(30);
        let b = generate_model(31);
        let result = composer.compose(&a, &b);
        // No validity errors in the composed model.
        let issues = sbml_model::validate(&result.model);
        let errors: Vec<_> = issues
            .iter()
            .filter(|x| x.severity == sbml_model::Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}\n{}", result.log.to_text());
    }

    #[test]
    fn conflict_corpus_is_deterministic_and_conflict_heavy() {
        let a = corpus_conflict(3);
        let b = corpus_conflict(3);
        assert_eq!(a, b, "corpus must be byte-identical across calls");
        assert_eq!(a.len(), 3);

        // Every pair must force renames AND mappings.
        let composer = sbml_compose::Composer::default();
        let result = composer.compose(&a[0], &a[1]);
        use sbml_compose::EventKind;
        let mapped = result.log.of_kind(EventKind::Mapped).count();
        let renamed = result.log.of_kind(EventKind::Renamed).count();
        assert!(mapped >= CONFLICT_ALIASES, "alias species should map by name ({mapped})");
        assert!(renamed >= CONFLICT_SHARED_PARAMS, "all shared parameters should rename ({renamed})");
        assert!(
            result.mappings.len() >= CONFLICT_SHARED_PARAMS + CONFLICT_ALIASES,
            "every pair records param renames and alias mappings ({})",
            result.mappings.len()
        );
    }

    #[test]
    fn conflict_corpus_key_rename_equals_full_recompute() {
        let models = corpus_conflict(2);
        let full_opts = sbml_compose::ComposeOptions::default()
            .with_parallel_push_threshold(0)
            .with_incremental_key_rename(false);
        let rename_opts = sbml_compose::ComposeOptions::default().with_parallel_push_threshold(0);
        let full = sbml_compose::Composer::new(full_opts).compose(&models[0], &models[1]);
        let renamed = sbml_compose::Composer::new(rename_opts).compose(&models[0], &models[1]);
        assert_eq!(renamed.model, full.model);
        assert_eq!(renamed.log.events, full.log.events);
        assert_eq!(renamed.mappings, full.mappings);
    }

    #[test]
    fn query_fragments_are_deterministic_verbatim_subsets() {
        let m = generate_model(120);
        let a = query_fragment(&m, 7, 1);
        let b = query_fragment(&m, 7, 1);
        assert_eq!(a, b, "fragments must be deterministic");
        assert!(!a.species.is_empty());
        assert!(a.species.len() < m.species.len(), "a fragment is a proper subset");
        // Every fragment component is the host's, verbatim.
        for s in &a.species {
            assert_eq!(m.species_by_id(&s.id), Some(s));
        }
        for r in &a.reactions {
            assert_eq!(m.reaction_by_id(&r.id), Some(r));
        }
        // Larger radius never shrinks the fragment.
        let wider = query_fragment(&m, 7, 2);
        assert!(wider.species.len() >= a.species.len());
        // Species-free hosts produce empty fragments.
        assert!(query_fragment(&Model::new("void"), 0, 1).species.is_empty());
    }

    #[test]
    fn largest_model_simulates() {
        // The biggest corpus model must at least compile into a system and
        // take a few ODE steps without error.
        let m = generate_model(186);
        let trace = bio_sim::ode::simulate_rk4(&m, 0.1, 0.01).unwrap();
        assert!(trace.len() > 5);
    }
}

#[cfg(test)]
mod synonym_variant_tests {
    use super::*;

    #[test]
    fn variant_shares_nothing_by_id_everything_by_synonym() {
        let original = corpus_17()[4].clone();
        let twin = synonym_variant(&original);
        // No species id survives verbatim.
        let orig_ids: std::collections::BTreeSet<_> =
            original.species.iter().map(|s| s.id.clone()).collect();
        assert!(twin.species.iter().all(|s| !orig_ids.contains(&s.id)));

        // Heavy semantics re-unifies all species; none-semantics cannot.
        let heavy = sbml_compose::Composer::default().compose(&original, &twin);
        assert_eq!(
            heavy.model.species.len(),
            original.species.len(),
            "heavy semantics must unify every synonym pair\n{}",
            heavy.log.to_text()
        );
        let none = sbml_compose::Composer::new(sbml_compose::ComposeOptions::none())
            .compose(&original, &twin);
        assert_eq!(
            none.model.species.len(),
            original.species.len() + twin.species.len(),
            "no-semantics must share nothing"
        );
    }

    #[test]
    fn variant_is_valid_and_deterministic() {
        let m = generate_model(50);
        let t1 = synonym_variant(&m);
        let t2 = synonym_variant(&m);
        assert_eq!(t1, t2);
        let issues = sbml_model::validate(&t1);
        assert!(
            issues.iter().all(|i| i.severity != sbml_model::Severity::Error),
            "{issues:?}"
        );
    }

    #[test]
    fn commutative_reversal_preserves_patterns() {
        use sbml_math::pattern::Pattern;
        let m = generate_model(60);
        for r in &m.reactions {
            if let Some(kl) = &r.kinetic_law {
                let reversed = reverse_commutative(&kl.math);
                assert_eq!(Pattern::of(&kl.math), Pattern::of(&reversed), "{}", r.id);
            }
        }
    }
}
