//! An SBML Level-2 style data model for biochemical networks.
//!
//! This is the substrate the EDBT 2010 paper's merge algorithm operates on:
//! a [`Model`] holds the eleven component lists the paper's Fig. 4 pipeline
//! composes, in the same order — function definitions, unit definitions,
//! compartment types, species types, compartments, species, parameters,
//! (initial assignments,) rules, constraints, reactions and events.
//!
//! * [`model`] — the [`Model`] container and size metrics (`nodes`/`edges`
//!   as used for Figure 8's model ordering),
//! * [`components`] — compartments, species, parameters and the two `*Type`
//!   kinds,
//! * [`reaction`] — reactions, species references, kinetic laws with local
//!   parameters,
//! * [`rule`], [`event`], [`function`] — the remaining math-bearing kinds,
//! * [`document`] — SBML XML reading/writing (`<sbml><model>...`): text is
//!   bound straight into a [`Model`] off a borrowing pull reader, and a
//!   model streams straight back out as text — no XML tree either way,
//! * [`validate`](mod@validate) — the semantic checks a merged model must satisfy,
//! * [`builder`] — an ergonomic construction API used by the examples and
//!   the synthetic corpus generator.
//!
//! # Example
//!
//! ```
//! use sbml_model::builder::ModelBuilder;
//!
//! // Paper Fig. 1(a): A -> B <-> C with rate constants k1, k2, k3.
//! let model = ModelBuilder::new("fig1a")
//!     .compartment("cell", 1.0)
//!     .species("A", 10.0)
//!     .species("B", 0.0)
//!     .species("C", 0.0)
//!     .parameter("k1", 0.1)
//!     .parameter("k2", 0.05)
//!     .parameter("k3", 0.02)
//!     .reaction("r1", &["A"], &["B"], "k1*A")
//!     .reaction("r2", &["B"], &["C"], "k2*B")
//!     .reaction("r3", &["C"], &["B"], "k3*C")
//!     .build();
//! assert_eq!(model.nodes(), 3);
//! assert_eq!(model.edges(), 3);
//!
//! // Round-trip through SBML XML.
//! let xml = sbml_model::document::write_sbml(&model);
//! let back = sbml_model::document::parse_sbml(&xml).unwrap();
//! assert_eq!(back.species.len(), 3);
//! ```

pub mod builder;
pub mod components;
#[cfg(test)]
mod testutil;
pub mod document;
pub mod error;
pub mod event;
pub mod function;
pub mod model;
mod read;
pub mod reaction;
pub mod rule;
mod units_xml;
pub mod validate;
mod write;
mod xmlutil;

pub use components::{Compartment, CompartmentType, Parameter, Species, SpeciesType};
pub use document::{parse_sbml, write_sbml, SbmlDocument};
pub use error::ModelError;
pub use event::{Event, EventAssignment};
pub use function::FunctionDefinition;
pub use model::{InitialAssignment, Model};
pub use reaction::{KineticLaw, Reaction, SpeciesReference};
pub use rule::Rule;
pub use validate::{validate, Severity, ValidationIssue};
