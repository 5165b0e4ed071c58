//! SBML text → [`Model`], bound straight off the [`sbml_xml::Reader`].
//!
//! Each component is read from its start tag's attributes and its
//! children as they stream past; no element tree is built. The rules:
//!
//! * in every container only the first element of each kind counts (the
//!   first `listOfSpecies`, the first `<math>`, the first `<trigger>`,
//!   ...); later ones and unknown elements are skipped with their
//!   subtrees;
//! * comments, processing instructions and whitespace are ignored;
//! * text content (`message`, MathML tokens) is the trimmed concatenation
//!   of all text and CDATA inside the element;
//! * a bare `<model>` root is accepted in place of `<sbml>`.
//!
//! A document that is not well formed reports its first XML error even
//! when a binding error comes earlier in the text: on a binding error the
//! rest of the input is still drained through the tokenizer. Binding
//! errors are reported in document order.

use sbml_math::MathExpr;
use sbml_xml::{Attrs, Reader, Tag, XmlError};

use crate::components::{Compartment, CompartmentType, Parameter, Species, SpeciesType};
use crate::document::SbmlDocument;
use crate::error::ModelError;
use crate::event::{Event, EventAssignment};
use crate::function::FunctionDefinition;
use crate::model::{InitialAssignment, Model};
use crate::reaction::{KineticLaw, Reaction, SpeciesReference};
use crate::rule::{Constraint, Rule};
use crate::units_xml::read_unit_definition;
use crate::xmlutil::{
    bool_attr, leaf, opt_attr, opt_f64, opt_i32, read_list, read_math, read_math_only,
    require_math, req_attr,
};

type Result<T> = std::result::Result<T, ModelError>;

/// Parse a whole SBML document (an `<sbml>` root or a bare `<model>`).
pub(crate) fn read_document(text: &str) -> Result<SbmlDocument> {
    let mut r = Reader::new(text);
    let bound = match r.root() {
        Some(root) => read_root(&mut r, &root),
        None => Err(XmlError::NoRootElement.into()),
    };
    // Drain the rest: a malformed document reports its XML error first.
    r.finish()?;
    bound
}

fn read_root<'a>(r: &mut Reader<'a>, root: &Tag<'a>) -> Result<SbmlDocument> {
    if root.name == "model" {
        // Tolerate bare models (useful in tests and fragments).
        return Ok(SbmlDocument::new(read_model(r)?));
    }
    if root.name != "sbml" {
        return Err(ModelError::structure(format!("expected <sbml> root, found <{}>", root.name)));
    }
    let attrs = r.attrs();
    let level = attrs.get("level").and_then(|v| v.parse().ok()).unwrap_or(2);
    let version = attrs.get("version").and_then(|v| v.parse().ok()).unwrap_or(4);
    let mut model = None;
    while let Some(tag) = r.next_child() {
        if tag.name == "model" && model.is_none() {
            model = Some(read_model(r)?);
        } else {
            r.skip();
        }
    }
    let model = model.ok_or_else(|| ModelError::structure("<sbml> has no <model> child"))?;
    Ok(SbmlDocument { level, version, model })
}

/// A `<model>` element.
fn read_model(r: &mut Reader<'_>) -> Result<Model> {
    let attrs = r.attrs();
    let mut model = Model {
        id: opt_attr(&attrs, "id").unwrap_or_default(),
        name: opt_attr(&attrs, "name"),
        ..Model::default()
    };
    // Which listOf* kinds have been read: only the first of each counts.
    let mut seen = [false; 12];
    while let Some(list) = r.next_child() {
        let kind = match list.name {
            "listOfFunctionDefinitions" => 0,
            "listOfUnitDefinitions" => 1,
            "listOfCompartmentTypes" => 2,
            "listOfSpeciesTypes" => 3,
            "listOfCompartments" => 4,
            "listOfSpecies" => 5,
            "listOfParameters" => 6,
            "listOfInitialAssignments" => 7,
            "listOfRules" => 8,
            "listOfConstraints" => 9,
            "listOfReactions" => 10,
            "listOfEvents" => 11,
            _ => {
                r.skip();
                continue;
            }
        };
        if std::mem::replace(&mut seen[kind], true) {
            r.skip();
            continue;
        }
        let m = &mut model;
        match kind {
            0 => read_list(r, "functionDefinition", &mut m.function_definitions, read_function)?,
            1 => read_list(r, "unitDefinition", &mut m.unit_definitions, read_unit_definition)?,
            2 => read_list(r, "compartmentType", &mut m.compartment_types, |r| {
                leaf(r, |a| Ok(CompartmentType { id: req_attr(a, "id")?, name: opt_attr(a, "name") }))
            })?,
            3 => read_list(r, "speciesType", &mut m.species_types, |r| {
                leaf(r, |a| Ok(SpeciesType { id: req_attr(a, "id")?, name: opt_attr(a, "name") }))
            })?,
            4 => read_list(r, "compartment", &mut m.compartments, |r| leaf(r, compartment))?,
            5 => read_list(r, "species", &mut m.species, |r| leaf(r, species))?,
            6 => read_list(r, "parameter", &mut m.parameters, |r| leaf(r, parameter))?,
            7 => read_list(r, "initialAssignment", &mut m.initial_assignments, |r| {
                let symbol = req_attr(&r.attrs(), "symbol")?;
                let math = read_math_only(r, || "initialAssignment".to_owned())?;
                Ok(InitialAssignment { symbol, math })
            })?,
            8 => {
                // Every child of listOfRules must be a rule.
                while let Some(rule) = r.next_child() {
                    m.rules.push(read_rule(r, rule)?);
                }
            }
            9 => read_list(r, "constraint", &mut m.constraints, read_constraint)?,
            10 => read_list(r, "reaction", &mut m.reactions, read_reaction)?,
            _ => read_list(r, "event", &mut m.events, read_event)?,
        }
    }
    Ok(model)
}

fn read_function(r: &mut Reader<'_>) -> Result<FunctionDefinition> {
    let attrs = r.attrs();
    let id = req_attr(&attrs, "id")?;
    let name = opt_attr(&attrs, "name");
    let math = read_math_only(r, || format!("functionDefinition {id:?}"))?;
    let MathExpr::Lambda { params, body } = math else {
        return Err(ModelError::structure(format!(
            "functionDefinition {id:?} math must be a <lambda>"
        )));
    };
    Ok(FunctionDefinition { id, name, params, body: *body })
}

fn compartment(attrs: &Attrs<'_, '_>) -> Result<Compartment> {
    let spatial_dimensions = match attrs.get("spatialDimensions") {
        None => 3,
        Some(raw) => raw.parse::<u32>().map_err(|_| {
            ModelError::structure(format!("compartment spatialDimensions={raw:?}"))
        })?,
    };
    if spatial_dimensions > 3 {
        return Err(ModelError::structure(format!(
            "compartment spatialDimensions={spatial_dimensions} > 3"
        )));
    }
    Ok(Compartment {
        id: req_attr(attrs, "id")?,
        name: opt_attr(attrs, "name"),
        compartment_type: opt_attr(attrs, "compartmentType"),
        spatial_dimensions,
        size: opt_f64(attrs, "size")?,
        units: opt_attr(attrs, "units"),
        outside: opt_attr(attrs, "outside"),
        constant: bool_attr(attrs, "constant", true)?,
    })
}

fn species(attrs: &Attrs<'_, '_>) -> Result<Species> {
    let initial_amount = opt_f64(attrs, "initialAmount")?;
    let initial_concentration = opt_f64(attrs, "initialConcentration")?;
    if initial_amount.is_some() && initial_concentration.is_some() {
        return Err(ModelError::structure(format!(
            "species {:?} sets both initialAmount and initialConcentration",
            attrs.get("id").unwrap_or("?")
        )));
    }
    Ok(Species {
        id: req_attr(attrs, "id")?,
        name: opt_attr(attrs, "name"),
        species_type: opt_attr(attrs, "speciesType"),
        compartment: req_attr(attrs, "compartment")?,
        initial_amount,
        initial_concentration,
        substance_units: opt_attr(attrs, "substanceUnits"),
        has_only_substance_units: bool_attr(attrs, "hasOnlySubstanceUnits", false)?,
        boundary_condition: bool_attr(attrs, "boundaryCondition", false)?,
        charge: opt_i32(attrs, "charge")?,
        constant: bool_attr(attrs, "constant", false)?,
    })
}

fn parameter(attrs: &Attrs<'_, '_>) -> Result<Parameter> {
    Ok(Parameter {
        id: req_attr(attrs, "id")?,
        name: opt_attr(attrs, "name"),
        value: opt_f64(attrs, "value")?,
        units: opt_attr(attrs, "units"),
        constant: bool_attr(attrs, "constant", true)?,
    })
}

fn species_reference(attrs: &Attrs<'_, '_>) -> Result<SpeciesReference> {
    Ok(SpeciesReference {
        species: req_attr(attrs, "species")?,
        stoichiometry: opt_f64(attrs, "stoichiometry")?.unwrap_or(1.0),
    })
}

fn read_rule<'a>(r: &mut Reader<'a>, tag: Tag<'a>) -> Result<Rule> {
    let context = || tag.name.to_owned();
    match tag.name {
        "algebraicRule" => Ok(Rule::Algebraic { math: read_math_only(r, context)? }),
        "assignmentRule" => {
            let variable = req_attr(&r.attrs(), "variable")?;
            Ok(Rule::Assignment { variable, math: read_math_only(r, context)? })
        }
        "rateRule" => {
            let variable = req_attr(&r.attrs(), "variable")?;
            Ok(Rule::Rate { variable, math: read_math_only(r, context)? })
        }
        other => Err(ModelError::structure(format!("unknown rule element <{other}>"))),
    }
}

fn read_constraint(r: &mut Reader<'_>) -> Result<Constraint> {
    let context = || "constraint".to_owned();
    let mut math = None;
    let mut message = None;
    while let Some(tag) = r.next_child() {
        if tag.name == "math" && math.is_none() {
            math = Some(read_math(r, tag, context)?);
        } else if tag.name == "message" && message.is_none() {
            message = Some(r.text().trim().to_owned());
        } else {
            r.skip();
        }
    }
    Ok(Constraint { math: require_math(math, context)?, message })
}

fn read_reaction(r: &mut Reader<'_>) -> Result<Reaction> {
    let attrs = r.attrs();
    let mut reaction = Reaction {
        id: req_attr(&attrs, "id")?,
        name: opt_attr(&attrs, "name"),
        reversible: bool_attr(&attrs, "reversible", true)?,
        fast: bool_attr(&attrs, "fast", false)?,
        reactants: Vec::new(),
        products: Vec::new(),
        modifiers: Vec::new(),
        kinetic_law: None,
    };
    // Which of reactants, products, modifiers, kineticLaw have been read.
    let mut seen = [false; 4];
    while let Some(child) = r.next_child() {
        let slot = match child.name {
            "listOfReactants" => 0,
            "listOfProducts" => 1,
            "listOfModifiers" => 2,
            "kineticLaw" => 3,
            _ => {
                r.skip();
                continue;
            }
        };
        if std::mem::replace(&mut seen[slot], true) {
            r.skip();
            continue;
        }
        let rx = &mut reaction;
        let reference = |r: &mut Reader<'_>| leaf(r, species_reference);
        match slot {
            0 => read_list(r, "speciesReference", &mut rx.reactants, reference)?,
            1 => read_list(r, "speciesReference", &mut rx.products, reference)?,
            2 => read_list(r, "modifierSpeciesReference", &mut rx.modifiers, reference)?,
            _ => rx.kinetic_law = Some(read_kinetic_law(r, &rx.id)?),
        }
    }
    Ok(reaction)
}

fn read_kinetic_law(r: &mut Reader<'_>, reaction_id: &str) -> Result<KineticLaw> {
    let context = || format!("reaction {reaction_id:?} kineticLaw");
    let mut math = None;
    let mut parameters = Vec::new();
    let mut seen_parameters = false;
    while let Some(tag) = r.next_child() {
        if tag.name == "math" && math.is_none() {
            math = Some(read_math(r, tag, context)?);
        } else if tag.name == "listOfParameters" && !std::mem::replace(&mut seen_parameters, true) {
            read_list(r, "parameter", &mut parameters, |r| leaf(r, parameter))?;
        } else {
            r.skip();
        }
    }
    Ok(KineticLaw { math: require_math(math, context)?, parameters })
}

fn read_event(r: &mut Reader<'_>) -> Result<Event> {
    let attrs = r.attrs();
    let (id, name) = (opt_attr(&attrs, "id"), opt_attr(&attrs, "name"));
    let mut trigger = None;
    let mut delay = None;
    let mut assignments = Vec::new();
    let mut seen_assignments = false;
    while let Some(child) = r.next_child() {
        match child.name {
            "trigger" if trigger.is_none() => {
                trigger = Some(read_math_only(r, || "event trigger".to_owned())?);
            }
            "delay" if delay.is_none() => {
                delay = Some(read_math_only(r, || "event delay".to_owned())?);
            }
            "listOfEventAssignments" if !std::mem::replace(&mut seen_assignments, true) => {
                read_list(r, "eventAssignment", &mut assignments, |r| {
                    let variable = req_attr(&r.attrs(), "variable")?;
                    let math = read_math_only(r, || "eventAssignment".to_owned())?;
                    Ok(EventAssignment { variable, math })
                })?;
            }
            _ => r.skip(),
        }
    }
    let trigger = trigger.ok_or_else(|| ModelError::structure("event missing <trigger>"))?;
    Ok(Event { id, name, trigger, delay, assignments })
}

#[cfg(test)]
mod tests {
    use crate::error::ModelError;
    use crate::testutil::{parse_body, structure_error};

    #[test]
    fn attribute_values_are_parsed_and_checked() {
        let m = parse_body(
            r#"<listOfSpecies><species id="a" compartment="c" initialAmount=" 2.5 " charge="3" boundaryCondition="1" constant="0"/></listOfSpecies>"#,
        )
        .unwrap();
        let s = &m.species[0];
        assert_eq!((s.initial_amount, s.charge, s.boundary_condition, s.constant), (Some(2.5), Some(3), true, false));
        for (attr, what) in [
            (r#"initialAmount="abc""#, "is not a number"),
            (r#"boundaryCondition="maybe""#, "is not a boolean"),
            (r#"charge="1.5""#, "is not an integer"),
        ] {
            let body = format!(r#"<listOfSpecies><species id="a" compartment="c" {attr}/></listOfSpecies>"#);
            assert!(structure_error(&body).contains(what), "{attr}");
        }
    }

    #[test]
    fn math_errors_carry_their_context() {
        let err = parse_body(
            r#"<listOfRules><rateRule variable="x"><math><apply><divide/><cn>1</cn></apply></math></rateRule></listOfRules>"#,
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::Math { ref context, .. } if context == "rateRule"), "{err:?}");
        let missing = structure_error(r#"<listOfRules><rateRule variable="x"/></listOfRules>"#);
        assert_eq!(missing, "rateRule: missing <math> child");
    }

    #[test]
    fn only_the_first_container_of_each_kind_counts() {
        let m = parse_body(
            r#"<listOfSpecies><species id="a" compartment="c"/></listOfSpecies><listOfSpecies><species/></listOfSpecies><listOfEvents><event><trigger><math><true/></math></trigger><trigger/></event></listOfEvents>"#,
        )
        .unwrap();
        assert_eq!(m.species.len(), 1);
        assert_eq!(m.events.len(), 1);
    }

    #[test]
    fn xml_errors_win_over_earlier_binding_errors() {
        let err = parse_body(r#"<listOfSpecies><species id="A"/></listOfSpecies><x>"#).unwrap_err();
        assert!(matches!(err, ModelError::Xml(sbml_xml::XmlError::MismatchedTag { .. })), "{err:?}");
    }
}
