//! SBML document wrapper: `<sbml level="2" version="4"><model .../></sbml>`.
//!
//! Reading binds straight off the [`sbml_xml::Reader`] token stream;
//! writing streams into one [`sbml_xml::XmlWriter`] output string. Neither
//! builds an XML element tree.

use crate::error::ModelError;
use crate::model::Model;

/// The SBML Level 2 namespace (version 4).
pub const SBML_NS: &str = "http://www.sbml.org/sbml/level2/version4";

/// A parsed SBML document.
#[derive(Debug, Clone, PartialEq)]
pub struct SbmlDocument {
    /// SBML level (2 for everything this library produces).
    pub level: u32,
    /// SBML version within the level.
    pub version: u32,
    /// The model.
    pub model: Model,
}

impl SbmlDocument {
    /// Wrap a model in a Level 2 Version 4 document.
    pub fn new(model: Model) -> SbmlDocument {
        SbmlDocument { level: 2, version: 4, model }
    }

    /// Parse SBML text (an `<sbml>` document or a bare `<model>`).
    pub fn parse(text: &str) -> Result<SbmlDocument, ModelError> {
        crate::read::read_document(text)
    }

    /// Serialize to SBML text (pretty-printed).
    pub fn to_xml(&self) -> String {
        crate::write::write_document(self.level, self.version, &self.model)
    }
}

/// Parse SBML text directly into a [`Model`].
pub fn parse_sbml(text: &str) -> Result<Model, ModelError> {
    Ok(SbmlDocument::parse(text)?.model)
}

/// Serialize a [`Model`] as a complete SBML document string.
pub fn write_sbml(model: &Model) -> String {
    crate::write::write_document(2, 4, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;

    #[test]
    fn document_round_trip() {
        let model = ModelBuilder::new("doc_test")
            .compartment("cell", 1.0)
            .species("A", 5.0)
            .parameter("k", 0.3)
            .reaction("r", &["A"], &[], "k*A")
            .build();
        let text = write_sbml(&model);
        assert!(text.contains("<?xml"));
        assert!(text.contains("<sbml"));
        assert!(text.contains("level=\"2\""));
        let back = parse_sbml(&text).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn bare_model_tolerated() {
        let doc = SbmlDocument::parse("<model id=\"m\"/>").unwrap();
        assert_eq!(doc.model.id, "m");
        assert_eq!(doc.level, 2);
    }

    #[test]
    fn wrong_root_rejected() {
        assert!(SbmlDocument::parse("<html/>").is_err());
        assert!(SbmlDocument::parse("<sbml level=\"2\" version=\"4\"/>").is_err());
    }

    #[test]
    fn level_version_read() {
        let doc = SbmlDocument::parse(
            "<sbml level=\"2\" version=\"3\"><model id=\"x\"/></sbml>",
        )
        .unwrap();
        assert_eq!(doc.level, 2);
        assert_eq!(doc.version, 3);
    }

    #[test]
    fn to_xml_writes_level_and_version() {
        let doc = SbmlDocument { level: 2, version: 3, model: Model::new("m") };
        assert_eq!(
            doc.to_xml(),
            format!(
                "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<sbml xmlns=\"{SBML_NS}\" level=\"2\" version=\"3\">\n  <model id=\"m\"/>\n</sbml>\n"
            )
        );
        assert_eq!(SbmlDocument::parse(&doc.to_xml()).unwrap(), doc);
    }

    #[test]
    fn malformed_xml_surfaces_as_xml_error() {
        let err = SbmlDocument::parse("<sbml><model></sbml>").unwrap_err();
        assert!(matches!(err, ModelError::Xml(_)));
    }
}
