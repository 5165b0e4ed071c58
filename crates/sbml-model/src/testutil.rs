//! Helpers for the crate's unit tests: SBML text round trips.

use crate::document::{parse_sbml, write_sbml};
use crate::error::ModelError;
use crate::model::Model;

/// Write `model` as SBML text and read it back.
pub(crate) fn reread(model: &Model) -> Model {
    parse_sbml(&write_sbml(model)).expect("written SBML reads back")
}

/// A model `m` holding just what `fill` adds.
pub(crate) fn model_with(fill: impl FnOnce(&mut Model)) -> Model {
    let mut m = Model::new("m");
    fill(&mut m);
    m
}

/// Parse `<model id="m">{body}</model>`.
pub(crate) fn parse_body(body: &str) -> Result<Model, ModelError> {
    parse_sbml(&format!("<model id=\"m\">{body}</model>"))
}

/// The detail of the structure error `body` must raise.
pub(crate) fn structure_error(body: &str) -> String {
    match parse_body(body) {
        Err(ModelError::Structure { detail }) => detail,
        other => panic!("{body}: expected a structure error, got {other:?}"),
    }
}
