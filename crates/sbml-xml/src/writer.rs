//! Serialization to XML text.
//!
//! [`XmlWriter`] is the one serializer: it streams start tags, attributes,
//! text and end tags into a single output `String`, escaping in place.
//! Two styles are provided: compact (no added whitespace; suitable for
//! canonical comparison) and pretty (indented; suitable for human
//! inspection and the paper's §4.1.1 textual evaluation).
//! [`write_compact`], [`write_pretty`] and [`element_to_string`] are walks
//! of a DOM [`Document`]/[`Element`] over the same writer.
//!
//! Pretty-printing rules: an element with no content is written `<a/>`;
//! an element whose content holds text (or CDATA) is written inline — its
//! whole subtree without added whitespace — so indentation never corrupts
//! text; any other element puts each child on its own indented line. In
//! pretty output a whitespace-only text node is not content (indentation
//! re-creates it).

use std::fmt::{self, Write as _};

use crate::dom::{Document, Element, Node};
use crate::escape::escape_into;

/// Options controlling serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOptions {
    /// Indent nested elements; `None` means compact output.
    pub indent: Option<usize>,
    /// Emit the `<?xml ...?>` declaration when the document has one.
    pub declaration: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions { indent: Some(2), declaration: true }
    }
}

/// One open element of an [`XmlWriter`].
struct Open {
    /// Where the element's name starts in `XmlWriter::names`.
    name_start: usize,
    /// No content written yet (still closable as `<a/>`).
    empty: bool,
    /// Opened inside inline content (or by a compact writer): the whole
    /// element is written without added whitespace.
    compact: bool,
    /// Its content is written without added whitespace.
    inline: bool,
}

impl Open {
    fn flat(&self) -> bool {
        self.compact || self.inline
    }
}

/// A streaming XML serializer writing into one `String`.
///
/// Call [`start`](XmlWriter::start), then any [`attr`](XmlWriter::attr)s,
/// then content (child elements, [`text`](XmlWriter::text), ...), then
/// [`end`](XmlWriter::end). Whether an element's content is inline is
/// decided by its first content item (text or CDATA make it inline); an
/// element with mixed content must call
/// [`inline_content`](XmlWriter::inline_content) before its first child.
///
/// ```
/// use sbml_xml::XmlWriter;
///
/// let mut w = XmlWriter::new(Some(2));
/// w.start("a");
/// w.attr("k", "x<y");
/// w.start("b");
/// w.text("t");
/// w.end();
/// w.start("c");
/// w.end();
/// w.end();
/// assert_eq!(w.finish(), "<a k=\"x&lt;y\">\n  <b>t</b>\n  <c/>\n</a>\n");
/// ```
pub struct XmlWriter {
    out: String,
    indent: Option<usize>,
    /// Names of the open elements, concatenated.
    names: String,
    open: Vec<Open>,
    /// The innermost start tag still lacks its closing `>`.
    tag_open: bool,
    /// Reused buffer for [`fmt::Display`] values.
    scratch: String,
}

impl XmlWriter {
    /// A writer indenting by `indent` spaces per level, or compact for
    /// `None`.
    pub fn new(indent: Option<usize>) -> Self {
        XmlWriter {
            out: String::with_capacity(256),
            indent,
            names: String::new(),
            open: Vec::new(),
            tag_open: false,
            scratch: String::new(),
        }
    }

    /// Write the `<?xml ...?>` declaration (before the root element).
    pub fn declaration(&mut self, content: &str) {
        self.out.push_str("<?xml ");
        self.out.push_str(content);
        self.out.push_str("?>");
        if self.indent.is_some() {
            self.out.push('\n');
        }
    }

    /// Content written now gets no added whitespace.
    fn flat(&self) -> bool {
        match self.open.last() {
            Some(open) => open.flat(),
            None => self.indent.is_none(),
        }
    }

    fn pad(&mut self, depth: usize) {
        let width = self.indent.unwrap_or(0) * depth;
        self.out.extend(std::iter::repeat_n(' ', width));
    }

    /// Close the pending start tag and mark the current element as having
    /// content; `text` content makes an untouched element inline.
    fn content(&mut self, text: bool) {
        if self.tag_open {
            self.out.push('>');
            self.tag_open = false;
        }
        if let Some(open) = self.open.last_mut() {
            if open.empty && text {
                open.inline = true;
            }
            open.empty = false;
        }
    }

    /// Begin a block-level item (element or comment) at the current depth.
    fn block_item(&mut self) {
        self.content(false);
        if !self.flat() {
            if !self.open.is_empty() {
                self.out.push('\n');
            }
            self.pad(self.open.len());
        }
    }

    /// Open an element.
    pub fn start(&mut self, name: &str) {
        self.block_item();
        let compact = self.flat();
        self.out.push('<');
        self.out.push_str(name);
        self.open.push(Open { name_start: self.names.len(), empty: true, compact, inline: false });
        self.names.push_str(name);
        self.tag_open = true;
    }

    /// The current element is written without added whitespace.
    fn flat_element(&self) -> bool {
        self.open.last().is_none_or(|open| open.compact)
    }

    /// Write the current element's content inline (for mixed content).
    pub fn inline_content(&mut self) {
        if let Some(open) = self.open.last_mut() {
            open.inline = true;
        }
    }

    /// Add an attribute to the element just started.
    pub fn attr(&mut self, key: &str, value: &str) {
        debug_assert!(self.tag_open, "attribute outside a start tag");
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push_str("=\"");
        escape_into(&mut self.out, value, true);
        self.out.push('"');
    }

    /// [`attr`](XmlWriter::attr) with a displayed value.
    pub fn attr_display(&mut self, key: &str, value: impl fmt::Display) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let _ = write!(scratch, "{value}");
        self.attr(key, &scratch);
        self.scratch = scratch;
    }

    /// Write one text node (escaped). In pretty output a whitespace-only
    /// node is dropped, except inside inline content.
    pub fn text(&mut self, text: &str) {
        self.text_parts(&[text]);
    }

    /// Write one text node made of several pieces.
    pub fn text_parts(&mut self, parts: &[&str]) {
        if !self.flat_element() && parts.iter().all(|p| p.trim().is_empty()) {
            return;
        }
        self.content(true);
        for part in parts {
            escape_into(&mut self.out, part, false);
        }
    }

    /// [`text`](XmlWriter::text) with a displayed value.
    pub fn text_display(&mut self, value: impl fmt::Display) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let _ = write!(scratch, "{value}");
        self.text(&scratch);
        self.scratch = scratch;
    }

    /// Write a CDATA section (verbatim).
    pub fn cdata(&mut self, text: &str) {
        self.content(true);
        self.out.push_str("<![CDATA[");
        self.out.push_str(text);
        self.out.push_str("]]>");
    }

    /// Write a comment (verbatim).
    pub fn comment(&mut self, text: &str) {
        self.block_item();
        self.out.push_str("<!--");
        self.out.push_str(text);
        self.out.push_str("-->");
    }

    /// Close the innermost open element.
    pub fn end(&mut self) {
        let Some(open) = self.open.pop() else {
            debug_assert!(false, "end() without an open element");
            return;
        };
        if open.empty {
            self.out.push_str("/>");
        } else {
            if !open.flat() {
                self.out.push('\n');
                self.pad(self.open.len());
            }
            self.out.push_str("</");
            self.out.push_str(&self.names[open.name_start..]);
            self.out.push('>');
        }
        self.names.truncate(open.name_start);
        self.tag_open = false;
    }

    /// The finished text (pretty output ends with a newline).
    pub fn finish(mut self) -> String {
        if self.indent.is_some() {
            self.out.push('\n');
        }
        self.out
    }
}

/// Serialize a document compactly (no inserted whitespace).
pub fn write_compact(doc: &Document) -> String {
    write_with(doc, WriteOptions { indent: None, declaration: true })
}

/// Serialize a document with 2-space indentation.
pub fn write_pretty(doc: &Document) -> String {
    write_with(doc, WriteOptions::default())
}

/// Serialize with explicit options.
pub fn write_with(doc: &Document, opts: WriteOptions) -> String {
    let mut w = XmlWriter::new(opts.indent);
    if opts.declaration {
        if let Some(decl) = &doc.declaration {
            w.declaration(decl);
        }
    }
    write_element(&mut w, &doc.root);
    w.finish()
}

/// Serialize a single element (compact). Useful for canonical signatures of
/// subtrees, e.g. kinetic-law math during merging.
pub fn element_to_string(element: &Element) -> String {
    let mut w = XmlWriter::new(None);
    write_element(&mut w, element);
    w.out
}

fn write_element(w: &mut XmlWriter, e: &Element) {
    w.start(&e.name);
    for (k, v) in &e.attrs {
        w.attr(k, v);
    }
    let flat = w.flat_element();
    if e.children.iter().any(|n| match n {
        Node::Text(t) => flat || !t.trim().is_empty(),
        Node::CData(_) => true,
        _ => false,
    }) {
        w.inline_content();
    }
    for node in &e.children {
        match node {
            Node::Element(child) => write_element(w, child),
            Node::Text(t) => w.text(t),
            Node::CData(t) => w.cdata(t),
            Node::Comment(t) => w.comment(t),
        }
    }
    w.end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Document;

    fn round_trip_compact(xml: &str) -> String {
        let doc = Document::parse(xml).unwrap();
        write_with(&doc, WriteOptions { indent: None, declaration: false })
    }

    fn pretty(xml: &str) -> String {
        let doc = Document::parse(xml).unwrap();
        write_with(&doc, WriteOptions { indent: Some(2), declaration: false })
    }

    #[test]
    fn compact_round_trip_is_stable() {
        let xml = r#"<model id="m"><listOfSpecies><species id="A" compartment="c"/></listOfSpecies></model>"#;
        let once = round_trip_compact(xml);
        assert_eq!(once, xml);
        assert_eq!(round_trip_compact(&once), once, "idempotent");
    }

    #[test]
    fn escaping_survives_round_trip() {
        let xml = r#"<p name="a&lt;b&amp;c">x &lt; y</p>"#;
        let doc = Document::parse(xml).unwrap();
        assert_eq!(doc.root.attr("name"), Some("a<b&c"));
        let out = round_trip_compact(xml);
        let doc2 = Document::parse(&out).unwrap();
        assert_eq!(doc, doc2);
    }

    #[test]
    fn pretty_indents_pure_element_content() {
        assert_eq!(pretty("<a><b><c/></b></a>"), "<a>\n  <b>\n    <c/>\n  </b>\n</a>\n");
    }

    #[test]
    fn pretty_keeps_text_inline() {
        assert_eq!(pretty("<a><b>text</b></a>"), "<a>\n  <b>text</b>\n</a>\n");
    }

    #[test]
    fn pretty_writes_mixed_content_subtrees_compactly() {
        assert_eq!(
            pretty("<a><p><b> <i/> </b>t</p><!--c--></a>"),
            "<a>\n  <p><b> <i/> </b>t</p>\n  <!--c-->\n</a>\n"
        );
    }

    #[test]
    fn pretty_drops_whitespace_only_text() {
        assert_eq!(pretty("<a>\n  <b>  </b>\n</a>"), "<a>\n  <b/>\n</a>\n");
        assert_eq!(round_trip_compact("<a> <b> </b> </a>"), "<a> <b> </b> </a>");
    }

    #[test]
    fn declaration_emitted() {
        let doc = Document::parse("<?xml version=\"1.0\"?><r/>").unwrap();
        let s = write_pretty(&doc);
        assert_eq!(s, "<?xml version=\"1.0\"?>\n<r/>\n");
        let s2 = write_with(&doc, WriteOptions { indent: Some(2), declaration: false });
        assert!(!s2.contains("<?xml"));
        assert_eq!(write_compact(&doc), "<?xml version=\"1.0\"?><r/>");
    }

    #[test]
    fn cdata_preserved() {
        let xml = "<r><![CDATA[a < b && c]]></r>";
        assert_eq!(round_trip_compact(xml), xml);
    }

    #[test]
    fn comments_preserved_in_elements() {
        let xml = "<r><!--note--><x/></r>";
        assert_eq!(round_trip_compact(xml), xml);
    }

    #[test]
    fn element_to_string_subtree() {
        let doc = Document::parse("<a><b k=\"v\">t</b></a>").unwrap();
        let b = doc.root.child("b").unwrap();
        assert_eq!(element_to_string(b), "<b k=\"v\">t</b>");
    }

    #[test]
    fn display_values_are_escaped() {
        let mut w = XmlWriter::new(None);
        w.start("n");
        w.attr_display("v", 1.5);
        w.text_display("a&b");
        w.end();
        assert_eq!(w.finish(), "<n v=\"1.5\">a&amp;b</n>");
    }

    #[test]
    fn text_parts_form_one_node() {
        let mut w = XmlWriter::new(Some(2));
        w.start("m");
        w.start("ci");
        w.text_parts(&[" ", "", " "]);
        w.end();
        w.start("ci");
        w.text_parts(&[" ", "x", " "]);
        w.end();
        w.end();
        assert_eq!(w.finish(), "<m>\n  <ci/>\n  <ci> x </ci>\n</m>\n");
    }

    #[test]
    fn pretty_parse_round_trip_preserves_structure() {
        let xml = r#"<model id="m"><listOfReactions><reaction id="r1" reversible="false"><listOfReactants><speciesReference species="A"/></listOfReactants></reaction></listOfReactions></model>"#;
        let doc = Document::parse(xml).unwrap();
        let pretty = write_pretty(&doc);
        let reparsed = Document::parse(&pretty).unwrap();
        // Compare compact forms after stripping whitespace text nodes.
        fn strip(e: &mut crate::dom::Element) {
            e.children.retain(|n| !matches!(n, crate::dom::Node::Text(t) if t.trim().is_empty()));
            for node in &mut e.children {
                if let crate::dom::Node::Element(child) = node {
                    strip(child);
                }
            }
        }
        let mut a = doc.root.clone();
        let mut b = reparsed.root.clone();
        strip(&mut a);
        strip(&mut b);
        assert_eq!(a, b);
    }
}
