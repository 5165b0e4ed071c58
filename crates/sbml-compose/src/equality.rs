//! Component equality under the configured semantics level.
//!
//! Every component kind gets a *content key*: a canonical string such that
//! two components denote the same entity iff their keys match. Under heavy
//! semantics keys use synonym canonicalisation, commutative math patterns
//! and unit signatures; light semantics drops the math/unit intelligence;
//! no-semantics keys are raw identifiers and raw structure.

use sbml_math::pattern::Pattern;
use sbml_math::rewrite::{self, Resolver};
use sbml_math::MathExpr;
use sbml_model::{Event, FunctionDefinition, Reaction, Rule};
use sbml_units::UnitDefinition;

use crate::index::FastMap;
use crate::options::{ComposeOptions, SemanticsLevel};

/// Relative tolerance for numeric value agreement.
pub const VALUE_TOLERANCE: f64 = 1e-9;

/// The ID mapping table (second-model id → composed-model id). A fast
/// non-SipHash map: it is probed for every identifier of every compared
/// component.
pub type MappingTable = FastMap<String, String>;

/// The empty mapping: first-model content is already in composed id space,
/// so its keys are built with this resolver.
pub(crate) struct NoMap;

impl Resolver for NoMap {
    fn resolve(&self, _id: &str) -> Option<&str> {
        None
    }

    fn is_identity(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// Canonical key derivation, generic over the mapping lookup. The merge
// passes hand in whatever mapping structure they run over — the per-push
// table, a view of it with kinetic-law locals hidden, [`NoMap`] for
// merged-side content — and every path produces byte-identical keys.
// ---------------------------------------------------------------------

/// Map an id through the resolver (identity when unmapped).
pub(crate) fn resolve_id<'a, R: Resolver + ?Sized>(maps: &'a R, id: &'a str) -> &'a str {
    maps.resolve(id).unwrap_or(id)
}

/// Canonical key for an entity name — see [`MatchContext::name_key`].
pub(crate) fn name_key(options: &ComposeOptions, id: &str, name: Option<&str>) -> String {
    match options.semantics {
        SemanticsLevel::None => id.to_owned(),
        SemanticsLevel::Light | SemanticsLevel::Heavy => {
            let label = name.unwrap_or(id);
            options.synonyms.match_key(label)
        }
    }
}

/// Canonical key for mathematics under `maps`.
pub(crate) fn math_key<R: Resolver + ?Sized>(
    options: &ComposeOptions,
    math: &MathExpr,
    maps: &R,
) -> String {
    match options.semantics {
        // Heavy: the paper's Fig. 7 commutativity-aware pattern.
        SemanticsLevel::Heavy => Pattern::of_resolved(math, maps).as_str().to_owned(),
        // Light: structural form with mappings but no canonicalisation.
        SemanticsLevel::Light => {
            let renamed = rewrite::rename_resolved(math, maps);
            structural_string(&renamed)
        }
        // None: raw structure, raw ids.
        SemanticsLevel::None => structural_string(math),
    }
}

/// Canonical key for a unit definition — mapping-independent.
pub(crate) fn unit_key(options: &ComposeOptions, def: &UnitDefinition) -> String {
    match options.semantics {
        SemanticsLevel::Heavy => def.signature().key(),
        SemanticsLevel::Light | SemanticsLevel::None => {
            let mut parts: Vec<String> = def
                .units
                .iter()
                .map(|u| format!("{}^{}@{}x{}", u.kind.name(), u.exponent, u.scale, u.multiplier))
                .collect();
            parts.sort();
            parts.join(",")
        }
    }
}

/// Canonical key for a function definition.
pub(crate) fn function_key<R: Resolver + ?Sized>(
    options: &ComposeOptions,
    f: &FunctionDefinition,
    maps: &R,
) -> String {
    let lambda = f.as_lambda();
    format!("fn:{}:{}", f.params.len(), math_key(options, &lambda, maps))
}

/// Canonical key for a rule.
pub(crate) fn rule_key<R: Resolver + ?Sized>(
    options: &ComposeOptions,
    rule: &Rule,
    maps: &R,
) -> String {
    match rule {
        Rule::Algebraic { math } => format!("alg:{}", math_key(options, math, maps)),
        Rule::Assignment { variable, math } => {
            format!("asg:{}:{}", resolve_id(maps, variable), math_key(options, math, maps))
        }
        Rule::Rate { variable, math } => {
            format!("rate:{}:{}", resolve_id(maps, variable), math_key(options, math, maps))
        }
    }
}

/// Canonical key for a constraint.
pub(crate) fn constraint_key<R: Resolver + ?Sized>(
    options: &ComposeOptions,
    math: &MathExpr,
    maps: &R,
) -> String {
    format!("con:{}", math_key(options, math, maps))
}

/// Canonical key for a reaction.
pub(crate) fn reaction_key<R: Resolver + ?Sized>(
    options: &ComposeOptions,
    r: &Reaction,
    maps: &R,
) -> String {
    let mut parts = Vec::with_capacity(4);
    for (tag, refs) in [("R", &r.reactants), ("P", &r.products), ("M", &r.modifiers)] {
        let mut items: Vec<String> = refs
            .iter()
            .map(|sr| format!("{}*{}", resolve_id(maps, &sr.species), sr.stoichiometry))
            .collect();
        items.sort();
        parts.push(format!("{tag}[{}]", items.join(",")));
    }
    let math = match &r.kinetic_law {
        Some(kl) => math_key(options, &kl.math, maps),
        None => "-".to_owned(),
    };
    parts.push(format!("K[{math}]"));
    format!("rxn:{}:rev={}", parts.join(";"), r.reversible)
}

/// Canonical key for an event.
pub(crate) fn event_key<R: Resolver + ?Sized>(
    options: &ComposeOptions,
    ev: &Event,
    maps: &R,
) -> String {
    let trigger = math_key(options, &ev.trigger, maps);
    let delay = ev.delay.as_ref().map(|d| math_key(options, d, maps)).unwrap_or_default();
    // Assignment order is semantic — keep it.
    let assignments: Vec<String> = ev
        .assignments
        .iter()
        .map(|a| format!("{}={}", resolve_id(maps, &a.variable), math_key(options, &a.math, maps)))
        .collect();
    format!("ev:{trigger}|{delay}|{}", assignments.join(";"))
}

/// Do two optional numeric values agree within tolerance?
pub(crate) fn values_agree(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            if x == y {
                return true;
            }
            let scale = x.abs().max(y.abs());
            (x - y).abs() <= scale * VALUE_TOLERANCE
        }
        _ => false,
    }
}

/// Matching context: options plus the ID mappings accumulated so far
/// (second-model id → composed-model id).
pub struct MatchContext<'o> {
    /// Composition options.
    pub options: &'o ComposeOptions,
    /// Accumulated mappings, applied to second-model content before
    /// comparison (the paper's "add mapping" step).
    pub mappings: MappingTable,
}

impl<'o> MatchContext<'o> {
    /// Fresh context with no mappings.
    pub fn new(options: &'o ComposeOptions) -> MatchContext<'o> {
        MatchContext { options, mappings: MappingTable::default() }
    }

    /// Record a mapping `from → to`.
    pub fn add_mapping(&mut self, from: impl Into<String>, to: impl Into<String>) {
        let (from, to) = (from.into(), to.into());
        if from != to {
            self.mappings.insert(from, to);
        }
    }

    /// Map a second-model id into composed-model id space.
    pub fn map_id<'a>(&'a self, id: &'a str) -> &'a str {
        self.mappings.get(id).map(String::as_str).unwrap_or(id)
    }

    /// Canonical key for an entity name (species, compartments, types):
    /// display name preferred over id, run through the synonym table under
    /// heavy/light semantics.
    pub fn name_key(&self, id: &str, name: Option<&str>) -> String {
        name_key(self.options, id, name)
    }

    /// Canonical key for mathematics. `mapped` applies the accumulated ID
    /// mappings (use for second-model content; first-model content is
    /// already in composed id space).
    pub fn math_key(&self, math: &MathExpr, mapped: bool) -> String {
        if mapped {
            math_key(self.options, math, &self.mappings)
        } else {
            math_key(self.options, math, &NoMap)
        }
    }

    /// Canonical key for a unit definition (heavy: dimension + factor
    /// signature, litre == 0.001 m³; light/none: the normalised factor
    /// list).
    pub fn unit_key(&self, def: &UnitDefinition) -> String {
        unit_key(self.options, def)
    }

    /// Canonical key for a function definition (α-equivalence comes free
    /// from the pattern's positional bound variables under heavy semantics).
    pub fn function_key(&self, f: &FunctionDefinition, mapped: bool) -> String {
        if mapped {
            function_key(self.options, f, &self.mappings)
        } else {
            function_key(self.options, f, &NoMap)
        }
    }

    /// Canonical key for a rule.
    pub fn rule_key(&self, rule: &Rule, mapped: bool) -> String {
        if mapped {
            rule_key(self.options, rule, &self.mappings)
        } else {
            rule_key(self.options, rule, &NoMap)
        }
    }

    /// Canonical key for a constraint.
    pub fn constraint_key(&self, math: &MathExpr, mapped: bool) -> String {
        if mapped {
            constraint_key(self.options, math, &self.mappings)
        } else {
            constraint_key(self.options, math, &NoMap)
        }
    }

    /// Canonical key for a reaction: participant multisets (mapped into
    /// composed id space) plus the kinetic-law math key.
    pub fn reaction_key(&self, r: &Reaction, mapped: bool) -> String {
        if mapped {
            reaction_key(self.options, r, &self.mappings)
        } else {
            reaction_key(self.options, r, &NoMap)
        }
    }

    /// Canonical key for an event.
    pub fn event_key(&self, ev: &Event, mapped: bool) -> String {
        if mapped {
            event_key(self.options, ev, &self.mappings)
        } else {
            event_key(self.options, ev, &NoMap)
        }
    }

    /// Do two optional numeric values agree within tolerance?
    pub fn values_agree(&self, a: Option<f64>, b: Option<f64>) -> bool {
        values_agree(a, b)
    }
}

/// A plain structural rendering of math (no commutative canonicalisation) —
/// the light/none-semantics comparison form.
fn structural_string(math: &MathExpr) -> String {
    // The infix printer is deterministic and structure-faithful.
    sbml_math::writer::to_infix(math)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_math::infix;
    use sbml_model::SpeciesReference;

    fn heavy() -> ComposeOptions {
        ComposeOptions::heavy()
    }

    #[test]
    fn math_keys_by_semantics() {
        let heavy_opts = heavy();
        let light_opts = ComposeOptions::light();
        let none_opts = ComposeOptions::none();
        let heavy_ctx = MatchContext::new(&heavy_opts);
        let light_ctx = MatchContext::new(&light_opts);
        let none_ctx = MatchContext::new(&none_opts);

        let a = infix::parse("k1*A*B").unwrap();
        let b = infix::parse("B*k1*A").unwrap();
        assert_eq!(heavy_ctx.math_key(&a, false), heavy_ctx.math_key(&b, false));
        assert_ne!(light_ctx.math_key(&a, false), light_ctx.math_key(&b, false));
        assert_ne!(none_ctx.math_key(&a, false), none_ctx.math_key(&b, false));
    }

    #[test]
    fn mappings_affect_second_model_keys_only() {
        let opts = heavy();
        let mut ctx = MatchContext::new(&opts);
        ctx.add_mapping("k1", "kf");
        let b_math = infix::parse("k1*X").unwrap();
        let a_math = infix::parse("kf*X").unwrap();
        assert_eq!(ctx.math_key(&b_math, true), ctx.math_key(&a_math, false));
        assert_ne!(ctx.math_key(&b_math, false), ctx.math_key(&a_math, false));
    }

    #[test]
    fn name_keys() {
        let opts = heavy();
        let ctx = MatchContext::new(&opts);
        assert_eq!(ctx.name_key("s1", Some("glucose")), ctx.name_key("s2", Some("dextrose")));
        assert_ne!(ctx.name_key("s1", Some("glucose")), ctx.name_key("s2", Some("ATP")));
        // id fallback when unnamed
        assert_eq!(ctx.name_key("glucose", None), ctx.name_key("x", Some("Glucose")));

        let none_opts = ComposeOptions::none();
        let none_ctx = MatchContext::new(&none_opts);
        assert_ne!(none_ctx.name_key("s1", Some("glucose")), none_ctx.name_key("s2", Some("dextrose")));
    }

    #[test]
    fn unit_keys() {
        use sbml_units::{Unit, UnitKind};
        let litre = UnitDefinition::new("l", vec![Unit::of(UnitKind::Litre)]);
        let milli_m3 = UnitDefinition::new("mm3", vec![Unit::of(UnitKind::Metre).pow(3).times(0.1)]);
        let opts = heavy();
        let ctx = MatchContext::new(&opts);
        assert_eq!(ctx.unit_key(&litre), ctx.unit_key(&milli_m3), "heavy: dimensional");

        let light_opts = ComposeOptions::light();
        let light_ctx = MatchContext::new(&light_opts);
        assert_ne!(light_ctx.unit_key(&litre), light_ctx.unit_key(&milli_m3), "light: literal");
    }

    #[test]
    fn reaction_keys_ignore_participant_order() {
        let opts = heavy();
        let ctx = MatchContext::new(&opts);
        let mut r1 = Reaction::new("r1");
        r1.reactants = vec![SpeciesReference::new("A"), SpeciesReference::new("B")];
        r1.products = vec![SpeciesReference::new("C")];
        let mut r2 = Reaction::new("other_id");
        r2.reactants = vec![SpeciesReference::new("B"), SpeciesReference::new("A")];
        r2.products = vec![SpeciesReference::new("C")];
        assert_eq!(ctx.reaction_key(&r1, false), ctx.reaction_key(&r2, false));

        r2.reactants[0].stoichiometry = 2.0;
        assert_ne!(ctx.reaction_key(&r1, false), ctx.reaction_key(&r2, false));
    }

    #[test]
    fn reaction_keys_include_kinetics_and_reversibility() {
        let opts = heavy();
        let ctx = MatchContext::new(&opts);
        let mut r1 = Reaction::new("r");
        r1.reactants = vec![SpeciesReference::new("A")];
        r1.kinetic_law = Some(sbml_model::KineticLaw::new(infix::parse("k*A").unwrap()));
        let mut r2 = r1.clone();
        assert_eq!(ctx.reaction_key(&r1, false), ctx.reaction_key(&r2, false));
        r2.kinetic_law = Some(sbml_model::KineticLaw::new(infix::parse("k2*A").unwrap()));
        assert_ne!(ctx.reaction_key(&r1, false), ctx.reaction_key(&r2, false));
        let mut r3 = r1.clone();
        r3.reversible = true;
        assert_ne!(ctx.reaction_key(&r1, false), ctx.reaction_key(&r3, false));
    }

    #[test]
    fn function_alpha_equivalence_heavy_only() {
        let f = FunctionDefinition::new("f", vec!["x".into()], infix::parse("x*2").unwrap());
        let g = FunctionDefinition::new("g", vec!["y".into()], infix::parse("y*2").unwrap());
        let opts = heavy();
        let ctx = MatchContext::new(&opts);
        assert_eq!(ctx.function_key(&f, false), ctx.function_key(&g, false));

        let light_opts = ComposeOptions::light();
        let light_ctx = MatchContext::new(&light_opts);
        assert_ne!(light_ctx.function_key(&f, false), light_ctx.function_key(&g, false));
    }

    #[test]
    fn rule_and_event_keys() {
        let opts = heavy();
        let mut ctx = MatchContext::new(&opts);
        ctx.add_mapping("x2", "x");
        let a = Rule::Assignment { variable: "x".into(), math: infix::parse("a+b").unwrap() };
        let b = Rule::Assignment { variable: "x2".into(), math: infix::parse("b+a").unwrap() };
        assert_eq!(ctx.rule_key(&a, false), ctx.rule_key(&b, true));

        let mut e1 = Event::new(infix::parse("time >= 5").unwrap());
        e1.assignments.push(sbml_model::EventAssignment {
            variable: "x".into(),
            math: infix::parse("1").unwrap(),
        });
        let mut e2 = Event::new(infix::parse("time >= 5").unwrap());
        e2.assignments.push(sbml_model::EventAssignment {
            variable: "x2".into(),
            math: infix::parse("1").unwrap(),
        });
        assert_eq!(ctx.event_key(&e1, false), ctx.event_key(&e2, true));
        assert_ne!(ctx.event_key(&e1, false), ctx.event_key(&e2, false));
    }

    #[test]
    fn value_agreement() {
        let opts = heavy();
        let ctx = MatchContext::new(&opts);
        assert!(ctx.values_agree(None, None));
        assert!(ctx.values_agree(Some(1.0), Some(1.0)));
        assert!(ctx.values_agree(Some(1.0), Some(1.0 + 1e-12)));
        assert!(!ctx.values_agree(Some(1.0), Some(1.1)));
        assert!(!ctx.values_agree(Some(1.0), None));
        assert!(ctx.values_agree(Some(0.0), Some(0.0)));
        assert!(ctx.values_agree(Some(6.022e23), Some(6.022e23 * (1.0 + 1e-12))));
    }

    #[test]
    fn identity_mapping_not_stored() {
        let opts = heavy();
        let mut ctx = MatchContext::new(&opts);
        ctx.add_mapping("same", "same");
        assert!(ctx.mappings.is_empty());
    }
}
