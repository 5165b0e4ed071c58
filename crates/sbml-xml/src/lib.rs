//! From-scratch XML parsing and serialization for SBML documents.
//!
//! The EDBT 2010 paper ("Biochemical network matching and composition")
//! operates on biochemical models encoded in SBML, an XML dialect. The Rust
//! ecosystem has no SBML-aware XML layer, so this crate provides one built
//! from first principles:
//!
//! * [`tokenizer`] — the one tokenizer: a byte-scanning pull lexer whose
//!   [`tokenizer::Token`]s borrow from the input (`Cow` payloads own data
//!   only when unescaping rewrote them), with line/column positions. It
//!   also checks well-formedness and bounds nesting at [`MAX_DEPTH`],
//! * [`reader`] — a small pull reader over the tokens, used to bind
//!   documents straight into typed data (`sbml-model`, MathML in
//!   `sbml-math`) with no tree in between,
//! * [`writer`] — the one serializer, [`XmlWriter`], streaming compact or
//!   pretty output into one `String`,
//! * [`dom`] — an ordered-attribute DOM ([`Element`]/[`Node`]) built from the
//!   same tokens and printed by the same writer, for tools that need a whole
//!   tree (`textdiff`),
//! * [`escape`] — entity escaping/unescaping including numeric character
//!   references.
//!
//! The parser is deliberately a *subset* of XML 1.0 sufficient for SBML and
//! MathML: elements, attributes, text, CDATA, comments, processing
//! instructions and the XML declaration. DOCTYPE internal subsets are
//! skipped. Namespace prefixes are preserved verbatim in names (SBML merging
//! compares qualified names textually, so prefix-rewriting is not needed).
//!
//! # Example
//!
//! ```
//! use sbml_xml::parse_document;
//!
//! let doc = parse_document(
//!     "<model id=\"m1\"><listOfSpecies><species id=\"A\"/></listOfSpecies></model>",
//! )
//! .unwrap();
//! assert_eq!(doc.root.name, "model");
//! assert_eq!(doc.root.attr("id"), Some("m1"));
//! assert_eq!(doc.root.find_descendants("species").count(), 1);
//! ```

pub mod dom;
pub mod error;
pub mod escape;
pub mod reader;
pub mod tokenizer;
pub mod writer;

pub use dom::{Document, Element, Node};
pub use error::{Position, XmlError};
pub use reader::{Attrs, Event, Reader, Tag};
pub use tokenizer::{Token, Tokenizer, MAX_DEPTH};
pub use writer::{write_compact, write_pretty, WriteOptions, XmlWriter};

/// Parse a complete XML document into a DOM [`Document`].
///
/// Returns an error when the input is not well formed (mismatched tags,
/// bad entities, stray content after the root element, ...).
pub fn parse_document(input: &str) -> Result<Document, XmlError> {
    dom::Document::parse(input)
}

/// Parse a single XML element (fragment); leading/trailing whitespace,
/// comments and processing instructions around it are permitted.
pub fn parse_element(input: &str) -> Result<Element, XmlError> {
    Ok(dom::Document::parse(input)?.root)
}
