//! A small pull reader over the [`Tokenizer`] for binding documents
//! straight into typed data, with no intermediate tree.
//!
//! The reader hands out start tags ([`Tag`]) one element at a time. A
//! binder that receives a tag owns that element: it reads the tag's
//! attributes with [`Reader::attrs`] first (the borrow ends before the
//! reader moves on), then consumes the element with exactly one of
//! [`Reader::next_child`] (until it returns `None`), [`Reader::skip`] or
//! [`Reader::text`]. Self-closing tags behave like an element with no
//! content. Text, CDATA, comments, processing instructions and the prolog
//! are passed over unless asked for. Nothing is allocated per element.
//!
//! XML errors are *sticky*: the first one the tokenizer reports is kept,
//! and from then on the reader behaves as if every open element had
//! ended. Binders therefore only deal with their own (semantic) errors;
//! the caller ends with [`Reader::finish`], which drains the rest of the
//! input and returns the first XML error of the whole document, if any —
//! a malformed document is reported as such even when a binder gave up
//! earlier.
//!
//! ```
//! use sbml_xml::Reader;
//!
//! let mut r = Reader::new("<list><item id=\"a\"/><skip><deep/></skip><item id=\"b\"/></list>");
//! let root = r.root().unwrap();
//! assert_eq!(root.name, "list");
//! let mut ids = Vec::new();
//! while let Some(tag) = r.next_child() {
//!     if tag.name == "item" {
//!         ids.push(r.attrs().get("id").unwrap().to_owned());
//!     }
//!     r.skip();
//! }
//! r.finish().unwrap();
//! assert_eq!(ids, ["a", "b"]);
//! ```

use std::borrow::Cow;

use crate::error::{Position, XmlError};
use crate::tokenizer::{Attr, Token, Tokenizer};

/// A start tag handed to a binder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tag<'a> {
    /// Qualified element name.
    pub name: &'a str,
    /// Position of the tag's `<`.
    pub at: Position,
}

/// The attributes of the tag a [`Reader`] handed out last.
#[derive(Debug, Clone, Copy)]
pub struct Attrs<'r, 'a> {
    /// Name of the element they belong to.
    pub name: &'a str,
    /// Attributes in document order, values unescaped.
    pub list: &'r [Attr<'a>],
}

impl<'r> Attrs<'r, '_> {
    /// Look up an attribute value by name.
    pub fn get(&self, key: &str) -> Option<&'r str> {
        self.list.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_ref())
    }
}

/// One step of [`Reader::next`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// A child element starts.
    Start(Tag<'a>),
    /// The innermost open element ends.
    End,
    /// Character data or a CDATA section.
    Text(Cow<'a, str>),
}

/// Pull reader over one document.
pub struct Reader<'a> {
    tokens: Tokenizer<'a>,
    /// The first XML error; once set, the reader reports end of input.
    error: Option<XmlError>,
    /// The last tag handed out was self-closing: its `End` is next.
    pending_end: bool,
    /// Name of the last tag handed out.
    last_tag: &'a str,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Reader { tokens: Tokenizer::new(input), error: None, pending_end: false, last_tag: "" }
    }

    /// Pull the next token, recording an error instead of returning it.
    fn token(&mut self) -> Option<Token<'a>> {
        match self.tokens.next_token() {
            Ok(token) => token,
            Err(e) => {
                self.error.get_or_insert(e);
                None
            }
        }
    }

    /// The root element's start tag, skipping the prolog. `None` when the
    /// document has no root or the prolog is malformed ([`Reader::finish`]
    /// says which).
    pub fn root(&mut self) -> Option<Tag<'a>> {
        loop {
            match self.next()? {
                Event::Start(tag) => return Some(tag),
                Event::End | Event::Text(_) => {}
            }
        }
    }

    /// The attributes of the tag handed out last. Read them before moving
    /// the reader on.
    pub fn attrs(&self) -> Attrs<'_, 'a> {
        Attrs { name: self.last_tag, list: self.tokens.attrs() }
    }

    /// The next content event. `None` at the end of input or after an XML
    /// error.
    pub fn next(&mut self) -> Option<Event<'a>> {
        if std::mem::take(&mut self.pending_end) {
            return Some(Event::End);
        }
        loop {
            match self.token()? {
                Token::StartTag { name, self_closing, at } => {
                    self.pending_end = self_closing;
                    self.last_tag = name;
                    return Some(Event::Start(Tag { name, at }));
                }
                Token::EndTag { .. } => return Some(Event::End),
                Token::Text { content, .. } => return Some(Event::Text(content)),
                Token::CData { content, .. } => return Some(Event::Text(Cow::Borrowed(content))),
                Token::Declaration { .. }
                | Token::Comment { .. }
                | Token::ProcessingInstruction { .. }
                | Token::DoctypeSkipped { .. } => {}
            }
        }
    }

    /// The next child element of the current element, or `None` once the
    /// current element has ended (its end tag is consumed). Text between
    /// children is passed over.
    pub fn next_child(&mut self) -> Option<Tag<'a>> {
        loop {
            match self.next()? {
                Event::Start(tag) => return Some(tag),
                Event::End => return None,
                Event::Text(_) => {}
            }
        }
    }

    /// Consume the rest of the current element, descendants included.
    pub fn skip(&mut self) {
        let mut depth = 0usize;
        while let Some(event) = self.next() {
            match event {
                Event::Start(_) => depth += 1,
                Event::End if depth == 0 => return,
                Event::End => depth -= 1,
                Event::Text(_) => {}
            }
        }
    }

    /// Consume the rest of the current element and return the
    /// concatenation of all its text and CDATA, descendants included.
    /// Borrows from the input when there is a single run.
    pub fn text(&mut self) -> Cow<'a, str> {
        let mut text = Cow::Borrowed("");
        let mut depth = 0usize;
        while let Some(event) = self.next() {
            match event {
                Event::Start(_) => depth += 1,
                Event::End if depth == 0 => break,
                Event::End => depth -= 1,
                Event::Text(run) => append(&mut text, run),
            }
        }
        text
    }

    /// Drain the rest of the input and return the document's first XML
    /// error, if any.
    pub fn finish(mut self) -> Result<(), XmlError> {
        while self.error.is_none() && self.token().is_some() {}
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Append `run` to `text`, borrowing while `text` is still empty.
pub fn append<'a>(text: &mut Cow<'a, str>, run: Cow<'a, str>) {
    if text.is_empty() {
        *text = run;
    } else {
        text.to_mut().push_str(&run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_text_and_skip() {
        let mut r = Reader::new("<a><b>x<c>y</c><![CDATA[z]]></b><!-- c --><d/><e>t</e></a>");
        let a = r.root().unwrap();
        assert_eq!(a.name, "a");
        let b = r.next_child().unwrap();
        assert_eq!(b.name, "b");
        assert_eq!(r.text(), "xyz");
        let d = r.next_child().unwrap();
        assert_eq!(d.name, "d");
        assert_eq!(r.next_child(), None, "self-closing <d/> has no children");
        assert_eq!(r.next_child().unwrap().name, "e");
        r.skip();
        assert_eq!(r.next_child(), None);
        r.finish().unwrap();
    }

    #[test]
    fn single_run_text_borrows() {
        let mut r = Reader::new("<ci> k1 </ci>");
        r.root().unwrap();
        assert!(matches!(r.text(), Cow::Borrowed(" k1 ")));
    }

    #[test]
    fn finish_reports_errors_after_an_early_stop() {
        let mut r = Reader::new("<a><b/></a><c>");
        r.root().unwrap();
        // The binder stops here; the trailing second root is still found.
        assert!(matches!(r.finish(), Err(XmlError::MultipleRoots { .. })));
    }

    #[test]
    fn errors_are_sticky_and_end_every_element() {
        let mut r = Reader::new("<a><b>&bogus;</b><c/></a>");
        r.root().unwrap();
        r.next_child().unwrap();
        assert_eq!(r.text(), "");
        assert_eq!(r.next_child(), None);
        assert!(matches!(r.finish(), Err(XmlError::BadEntity { .. })));
    }

    #[test]
    fn empty_input_has_no_root() {
        let mut r = Reader::new("<!-- only a comment -->");
        assert_eq!(r.root(), None);
        assert_eq!(r.finish(), Err(XmlError::NoRootElement));
    }

    #[test]
    fn tag_attr_lookup() {
        let mut r = Reader::new(r#"<p a="1" b='x&amp;y'><q/></p>"#);
        r.root().unwrap();
        assert_eq!(r.attrs().get("b"), Some("x&y"));
        assert_eq!(r.attrs().get("c"), None);
        assert_eq!(r.attrs().name, "p");
        r.next_child().unwrap();
        assert_eq!((r.attrs().name, r.attrs().list.len()), ("q", 0));
    }
}
