//! [`Model`] → SBML text, streamed into one [`XmlWriter`].
//!
//! Nothing is cloned and no element tree is built: every component writes
//! its start tag, attributes and children straight into the output. Only
//! non-default attributes are written, and empty `listOf*` containers are
//! omitted.

use sbml_math::writer::{write_math, write_math_lambda, Number};
use sbml_xml::XmlWriter;

use crate::components::{Compartment, Parameter, Species};
use crate::document::SBML_NS;
use crate::event::Event;
use crate::model::Model;
use crate::reaction::{Reaction, SpeciesReference};
use crate::rule::{Constraint, Rule};
use crate::units_xml::write_unit_definition;

/// A pretty-printed SBML document: declaration, `<sbml>` wrapper, model.
pub(crate) fn write_document(level: u32, version: u32, model: &Model) -> String {
    let mut w = XmlWriter::new(Some(2));
    w.declaration("version=\"1.0\" encoding=\"UTF-8\"");
    w.start("sbml");
    w.attr("xmlns", SBML_NS);
    w.attr_display("level", level);
    w.attr_display("version", version);
    write_model(&mut w, model);
    w.end();
    w.finish()
}

pub(crate) fn opt(w: &mut XmlWriter, key: &str, value: &Option<String>) {
    if let Some(v) = value {
        w.attr(key, v);
    }
}

fn opt_number(w: &mut XmlWriter, key: &str, value: Option<f64>) {
    if let Some(v) = value {
        w.attr_display(key, Number(v));
    }
}

/// An element holding only a `<math>` child.
fn math_element(w: &mut XmlWriter, name: &str, math: &sbml_math::MathExpr) {
    w.start(name);
    write_math(w, math);
    w.end();
}

/// A `listOf*` container, omitted when there are no items.
pub(crate) fn list<T>(w: &mut XmlWriter, name: &str, items: &[T], mut item: impl FnMut(&mut XmlWriter, &T)) {
    if items.is_empty() {
        return;
    }
    w.start(name);
    for x in items {
        item(w, x);
    }
    w.end();
}

fn write_model(w: &mut XmlWriter, m: &Model) {
    w.start("model");
    if !m.id.is_empty() {
        w.attr("id", &m.id);
    }
    opt(w, "name", &m.name);
    list(w, "listOfFunctionDefinitions", &m.function_definitions, |w, f| {
        w.start("functionDefinition");
        w.attr("id", &f.id);
        opt(w, "name", &f.name);
        write_math_lambda(w, &f.params, &f.body);
        w.end();
    });
    list(w, "listOfUnitDefinitions", &m.unit_definitions, write_unit_definition);
    list(w, "listOfCompartmentTypes", &m.compartment_types, |w, t| {
        w.start("compartmentType");
        w.attr("id", &t.id);
        opt(w, "name", &t.name);
        w.end();
    });
    list(w, "listOfSpeciesTypes", &m.species_types, |w, t| {
        w.start("speciesType");
        w.attr("id", &t.id);
        opt(w, "name", &t.name);
        w.end();
    });
    list(w, "listOfCompartments", &m.compartments, write_compartment);
    list(w, "listOfSpecies", &m.species, write_species);
    list(w, "listOfParameters", &m.parameters, write_parameter);
    list(w, "listOfInitialAssignments", &m.initial_assignments, |w, ia| {
        w.start("initialAssignment");
        w.attr("symbol", &ia.symbol);
        write_math(w, &ia.math);
        w.end();
    });
    list(w, "listOfRules", &m.rules, write_rule);
    list(w, "listOfConstraints", &m.constraints, write_constraint);
    list(w, "listOfReactions", &m.reactions, write_reaction);
    list(w, "listOfEvents", &m.events, write_event);
    w.end();
}

fn write_compartment(w: &mut XmlWriter, c: &Compartment) {
    w.start("compartment");
    w.attr("id", &c.id);
    opt(w, "name", &c.name);
    opt(w, "compartmentType", &c.compartment_type);
    if c.spatial_dimensions != 3 {
        w.attr_display("spatialDimensions", c.spatial_dimensions);
    }
    opt_number(w, "size", c.size);
    opt(w, "units", &c.units);
    opt(w, "outside", &c.outside);
    if !c.constant {
        w.attr("constant", "false");
    }
    w.end();
}

fn write_species(w: &mut XmlWriter, s: &Species) {
    w.start("species");
    w.attr("id", &s.id);
    w.attr("compartment", &s.compartment);
    opt(w, "name", &s.name);
    opt(w, "speciesType", &s.species_type);
    opt_number(w, "initialAmount", s.initial_amount);
    opt_number(w, "initialConcentration", s.initial_concentration);
    opt(w, "substanceUnits", &s.substance_units);
    if s.has_only_substance_units {
        w.attr("hasOnlySubstanceUnits", "true");
    }
    if s.boundary_condition {
        w.attr("boundaryCondition", "true");
    }
    if let Some(charge) = s.charge {
        w.attr_display("charge", charge);
    }
    if s.constant {
        w.attr("constant", "true");
    }
    w.end();
}

fn write_parameter(w: &mut XmlWriter, p: &Parameter) {
    w.start("parameter");
    w.attr("id", &p.id);
    opt(w, "name", &p.name);
    opt_number(w, "value", p.value);
    opt(w, "units", &p.units);
    if !p.constant {
        w.attr("constant", "false");
    }
    w.end();
}

fn write_rule(w: &mut XmlWriter, rule: &Rule) {
    let (name, variable) = match rule {
        Rule::Algebraic { .. } => ("algebraicRule", None),
        Rule::Assignment { variable, .. } => ("assignmentRule", Some(variable)),
        Rule::Rate { variable, .. } => ("rateRule", Some(variable)),
    };
    w.start(name);
    if let Some(variable) = variable {
        w.attr("variable", variable);
    }
    write_math(w, rule.math());
    w.end();
}

fn write_constraint(w: &mut XmlWriter, c: &Constraint) {
    w.start("constraint");
    write_math(w, &c.math);
    if let Some(msg) = &c.message {
        w.start("message");
        w.text(msg);
        w.end();
    }
    w.end();
}

fn write_reaction(w: &mut XmlWriter, r: &Reaction) {
    w.start("reaction");
    w.attr("id", &r.id);
    opt(w, "name", &r.name);
    w.attr("reversible", if r.reversible { "true" } else { "false" });
    if r.fast {
        w.attr("fast", "true");
    }
    let reference = |tag: &'static str| {
        move |w: &mut XmlWriter, s: &SpeciesReference| {
            w.start(tag);
            w.attr("species", &s.species);
            if s.stoichiometry != 1.0 {
                w.attr_display("stoichiometry", Number(s.stoichiometry));
            }
            w.end();
        }
    };
    list(w, "listOfReactants", &r.reactants, reference("speciesReference"));
    list(w, "listOfProducts", &r.products, reference("speciesReference"));
    list(w, "listOfModifiers", &r.modifiers, reference("modifierSpeciesReference"));
    if let Some(kl) = &r.kinetic_law {
        w.start("kineticLaw");
        write_math(w, &kl.math);
        list(w, "listOfParameters", &kl.parameters, write_parameter);
        w.end();
    }
    w.end();
}

fn write_event(w: &mut XmlWriter, ev: &Event) {
    w.start("event");
    opt(w, "id", &ev.id);
    opt(w, "name", &ev.name);
    math_element(w, "trigger", &ev.trigger);
    if let Some(delay) = &ev.delay {
        math_element(w, "delay", delay);
    }
    list(w, "listOfEventAssignments", &ev.assignments, |w, a| {
        w.start("eventAssignment");
        w.attr("variable", &a.variable);
        write_math(w, &a.math);
        w.end();
    });
    w.end();
}
