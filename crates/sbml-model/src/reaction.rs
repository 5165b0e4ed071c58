//! Reactions, species references and kinetic laws.

use sbml_math::MathExpr;

use crate::components::Parameter;

/// A (reactant or product) species reference with stoichiometry.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeciesReference {
    /// Referenced species id.
    pub species: String,
    /// Stoichiometric coefficient (default 1).
    pub stoichiometry: f64,
}

impl SpeciesReference {
    /// Reference with stoichiometry 1.
    pub fn new(species: impl Into<String>) -> SpeciesReference {
        SpeciesReference { species: species.into(), stoichiometry: 1.0 }
    }

    /// Builder: set the stoichiometry.
    #[must_use]
    pub fn with_stoichiometry(mut self, stoichiometry: f64) -> SpeciesReference {
        self.stoichiometry = stoichiometry;
        self
    }
}

/// A kinetic law: rate math plus local parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct KineticLaw {
    /// The rate expression.
    pub math: MathExpr,
    /// Local parameters scoped to this law (shadow globals).
    pub parameters: Vec<Parameter>,
}

impl KineticLaw {
    /// A law with no local parameters.
    pub fn new(math: MathExpr) -> KineticLaw {
        KineticLaw { math, parameters: Vec::new() }
    }
}

/// A chemical reaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Reaction {
    /// Unique id.
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
    /// Whether the reaction runs in both directions (default true in SBML;
    /// the corpus generator always sets it explicitly).
    pub reversible: bool,
    /// SBML `fast` flag (timescale separation hint).
    pub fast: bool,
    /// Consumed species.
    pub reactants: Vec<SpeciesReference>,
    /// Produced species.
    pub products: Vec<SpeciesReference>,
    /// Catalysts/effectors appearing in the math but not consumed.
    pub modifiers: Vec<SpeciesReference>,
    /// Rate law.
    pub kinetic_law: Option<KineticLaw>,
}

impl Reaction {
    /// An irreversible reaction with no participants yet.
    pub fn new(id: impl Into<String>) -> Reaction {
        Reaction {
            id: id.into(),
            name: None,
            reversible: false,
            fast: false,
            reactants: Vec::new(),
            products: Vec::new(),
            modifiers: Vec::new(),
            kinetic_law: None,
        }
    }

    /// Total number of reactant molecules (stoichiometry sum, rounded), the
    /// input to the paper's Fig. 6 reaction-order classification.
    pub fn reactant_molecule_count(&self) -> u32 {
        self.reactants.iter().map(|r| r.stoichiometry.max(0.0)).sum::<f64>().round() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{model_with, parse_body, reread, structure_error};
    use sbml_math::infix;

    fn mass_action() -> Reaction {
        let mut r = Reaction::new("r1");
        r.name = Some("A to B".into());
        r.reactants.push(SpeciesReference::new("A"));
        r.products.push(SpeciesReference::new("B").with_stoichiometry(2.0));
        r.modifiers.push(SpeciesReference::new("E"));
        r.kinetic_law = Some(KineticLaw::new(infix::parse("k1*A*E").unwrap()));
        r
    }

    #[test]
    fn reaction_round_trip() {
        let mut r = mass_action();
        r.fast = true;
        let m = model_with(|m| m.reactions.push(r));
        assert_eq!(reread(&m), m);
    }

    #[test]
    fn kinetic_law_with_local_parameters() {
        let mut r = mass_action();
        r.kinetic_law.as_mut().unwrap().parameters.push(Parameter::new("k1", 0.7));
        let back = reread(&model_with(|m| m.reactions.push(r)));
        let law = back.reactions[0].kinetic_law.as_ref().unwrap();
        assert_eq!(law.parameters[0].value, Some(0.7));
    }

    #[test]
    fn defaults_from_sparse_xml() {
        let m = parse_body(r#"<listOfReactions><reaction id="r"/></listOfReactions>"#).unwrap();
        let r = &m.reactions[0];
        assert!(r.reversible, "SBML default is reversible=true");
        assert!(!r.fast);
        assert!(r.reactants.is_empty());
        assert!(r.kinetic_law.is_none());
    }

    #[test]
    fn stoichiometry_default_one() {
        let m = parse_body(
            r#"<listOfReactions><reaction id="r"><listOfReactants><speciesReference species="X"/></listOfReactants></reaction></listOfReactions>"#,
        )
        .unwrap();
        assert_eq!(m.reactions[0].reactants[0].stoichiometry, 1.0);
    }

    #[test]
    fn reactant_molecule_count() {
        let mut r = Reaction::new("r");
        assert_eq!(r.reactant_molecule_count(), 0);
        r.reactants.push(SpeciesReference::new("A"));
        assert_eq!(r.reactant_molecule_count(), 1);
        r.reactants.push(SpeciesReference::new("B"));
        assert_eq!(r.reactant_molecule_count(), 2);
        r.reactants[1].stoichiometry = 2.0;
        assert_eq!(r.reactant_molecule_count(), 3);
    }

    #[test]
    fn kinetic_law_requires_math() {
        let detail = structure_error(
            r#"<listOfReactions><reaction id="r"><kineticLaw/></reaction></listOfReactions>"#,
        );
        assert_eq!(detail, "reaction \"r\" kineticLaw: missing <math> child");
    }
}
