//! An ordered-attribute DOM built from the token stream.
//!
//! The SBML read and write paths do not use it: `sbml-model` binds straight
//! off the [`crate::reader`] and streams through the
//! [`crate::writer::XmlWriter`]. The tree is for consumers that need a whole
//! document at once — `textdiff`'s order-insensitive normaliser. [`Element`]
//! keeps attributes in document order in a `Vec` (few attributes; linear
//! scans beat hashing) and has builder-style constructors.

use crate::error::{Position, XmlError};
use crate::tokenizer::{Token, Tokenizer};

/// A node in the element tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// A run of character data (already unescaped).
    Text(String),
    /// A CDATA section (kept verbatim, serialized back as CDATA).
    CData(String),
    /// A comment.
    Comment(String),
}

impl Node {
    /// This node as an element, if it is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Text payload of text/CDATA nodes.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) | Node::CData(t) => Some(t),
            _ => None,
        }
    }
}

/// An XML element: qualified name, ordered attributes, ordered children.
///
/// Equality is structural — `position` (provenance only) is ignored.
#[derive(Debug, Clone, Default)]
pub struct Element {
    /// Qualified tag name (namespace prefix preserved verbatim).
    pub name: String,
    /// Attributes in document order; values are unescaped.
    pub attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
    /// Source position of the opening tag (`Position::START` for built trees).
    pub position: Position,
}

impl PartialEq for Element {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.attrs == other.attrs && self.children == other.children
    }
}

impl Eq for Element {}

impl Element {
    /// Create an empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
            position: Position::START,
        }
    }

    /// Look up an attribute value by name.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Set (replace or append) an attribute.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.attrs.push((key, value));
        }
    }

    /// Iterate over element children only.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// First element child with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Depth-first iterator over all descendant elements (not including
    /// `self`) whose name matches.
    pub fn find_descendants<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        let mut stack: Vec<&Element> = self.child_elements().collect();
        stack.reverse();
        std::iter::from_fn(move || {
            while let Some(e) = stack.pop() {
                let mut kids: Vec<&Element> = e.child_elements().collect();
                kids.reverse();
                stack.extend(kids);
                if e.name == name {
                    return Some(e);
                }
            }
            None
        })
    }

}

/// A parsed document: optional XML declaration plus a single root element.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Raw pseudo-attribute text of the `<?xml ...?>` declaration, if present.
    pub declaration: Option<String>,
    /// The root element.
    pub root: Element,
}

impl Document {
    /// Parse a full document from text. The [`Tokenizer`] checks
    /// well-formedness; this only assembles the tree.
    pub fn parse(input: &str) -> Result<Document, XmlError> {
        let mut tokens = Tokenizer::new(input);
        let mut declaration = None;
        let mut root: Option<Element> = None;
        // Stack of open elements; the bottom one becomes the root.
        let mut stack: Vec<Element> = Vec::new();

        while let Some(token) = tokens.next_token()? {
            // Content outside the root is whitespace or a comment (the
            // tokenizer rejects anything else); it is dropped.
            let node = match token {
                Token::Declaration { content, .. } => {
                    declaration = Some(content.to_owned());
                    continue;
                }
                Token::DoctypeSkipped { .. } | Token::ProcessingInstruction { .. } => continue,
                Token::Comment { content, .. } => Node::Comment(content.to_owned()),
                Token::Text { content, .. } => Node::Text(content.into_owned()),
                Token::CData { content, .. } => Node::CData(content.to_owned()),
                Token::StartTag { name, self_closing, at } => {
                    let attrs = tokens.attrs().iter();
                    let element = Element {
                        name: name.to_owned(),
                        attrs: attrs.map(|(k, v)| ((*k).to_owned(), v.to_string())).collect(),
                        children: Vec::new(),
                        position: at,
                    };
                    if !self_closing {
                        stack.push(element);
                        continue;
                    }
                    Node::Element(element)
                }
                Token::EndTag { .. } => match stack.pop() {
                    Some(done) => Node::Element(done),
                    None => continue,
                },
            };
            match (stack.last_mut(), node) {
                (Some(parent), node) => parent.children.push(node),
                (None, Node::Element(done)) => root = Some(done),
                (None, _) => {}
            }
        }
        let root = root.ok_or(XmlError::NoRootElement)?;
        Ok(Document { declaration, root })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_nested() {
        let doc = Document::parse("<a><b><c/></b><b/></a>").unwrap();
        assert_eq!(doc.root.name, "a");
        assert_eq!(doc.root.child_elements().filter(|e| e.name == "b").count(), 2);
        assert!(doc.root.child("b").unwrap().child("c").is_some());
    }

    #[test]
    fn declaration_captured() {
        let doc = Document::parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<r/>").unwrap();
        assert!(doc.declaration.unwrap().contains("UTF-8"));
    }

    #[test]
    fn attribute_helpers() {
        let mut e = Element::new("species");
        e.set_attr("id", "A");
        e.set_attr("name", "glc");
        assert_eq!(e.attr("id"), Some("A"));
        assert_eq!(e.attr("missing"), None);
        e.set_attr("id", "B");
        assert_eq!(e.attr("id"), Some("B"));
        assert_eq!(e.attrs.len(), 2, "set_attr must replace, not append");
    }

    #[test]
    fn find_descendants_depth_first_document_order() {
        let doc = Document::parse(
            "<m><l1><s id='1'/><s id='2'/></l1><l2><x><s id='3'/></x></l2></m>",
        )
        .unwrap();
        let ids: Vec<_> = doc.root.find_descendants("s").filter_map(|e| e.attr("id")).collect();
        assert_eq!(ids, ["1", "2", "3"]);
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(matches!(
            Document::parse("<a><b></a></b>").unwrap_err(),
            XmlError::MismatchedTag { .. }
        ));
        assert!(matches!(Document::parse("<a>").unwrap_err(), XmlError::UnclosedTag { .. }));
        assert!(matches!(Document::parse("</a>").unwrap_err(), XmlError::UnopenedTag { .. }));
    }

    #[test]
    fn root_constraints() {
        assert!(matches!(Document::parse("  \n ").unwrap_err(), XmlError::NoRootElement));
        assert!(matches!(
            Document::parse("<a/><b/>").unwrap_err(),
            XmlError::MultipleRoots { .. }
        ));
        assert!(matches!(
            Document::parse("stray<a/>").unwrap_err(),
            XmlError::ContentOutsideRoot { .. }
        ));
    }

    #[test]
    fn prolog_comment_and_doctype_ok() {
        let doc =
            Document::parse("<!-- header --><!DOCTYPE sbml><r><!-- kept --></r>").unwrap();
        assert_eq!(doc.root.children.len(), 1);
        assert!(matches!(&doc.root.children[0], Node::Comment(c) if c == " kept "));
    }

    #[test]
    fn too_deep_rejected_without_building() {
        let deep = format!("{}{}", "<a>".repeat(100_000), "</a>".repeat(100_000));
        assert!(matches!(Document::parse(&deep).unwrap_err(), XmlError::TooDeep { .. }));
    }

    #[test]
    fn whitespace_text_inside_elements_preserved() {
        let doc = Document::parse("<a> <b/> </a>").unwrap();
        // two whitespace text nodes plus the element
        assert_eq!(doc.root.children.len(), 3);
    }
}
