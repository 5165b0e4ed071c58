//! Pull tokenizer for the XML subset used by SBML.
//!
//! The tokenizer walks the input bytes once and yields [`Token`]s that
//! borrow from the input: names, comments, CDATA and PI payloads are
//! `&str` slices, and attribute values and text are `Cow`s that own a
//! `String` only when entity unescaping rewrote them. Runs of ordinary
//! bytes are found with slice scans, and the line/column position is
//! advanced once per skipped run.
//!
//! It is also the one well-formedness checker: it tracks the open-element
//! stack, so mismatched, unopened and unclosed tags, content outside the
//! root, a second root, a missing root and nesting deeper than
//! [`MAX_DEPTH`] are reported here, in document order, for every consumer
//! (the [`crate::reader`] binders and the [`crate::dom`] builder alike).

use std::borrow::Cow;

use crate::error::{Position, XmlError};
use crate::escape::unescape;

/// The deepest element nesting a document may have. Every consumer of the
/// token stream walks nested elements recursively (MathML, the DOM and
/// everything downstream of a parsed model), so this bound keeps any
/// input, however deep, from exhausting a thread's stack.
pub const MAX_DEPTH: usize = 256;

/// An attribute: name and unescaped value.
pub type Attr<'a> = (&'a str, Cow<'a, str>);

/// One lexical event in an XML document.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `<?xml version="1.0" ...?>` — payload is the raw pseudo-attribute text.
    Declaration {
        /// Raw text between `<?xml` and `?>`, trimmed.
        content: &'a str,
        /// Start position.
        at: Position,
    },
    /// An opening tag, possibly self-closing (`<a x="1">` or `<a/>`). Its
    /// attributes are [`Tokenizer::attrs`] until the next token is pulled.
    StartTag {
        /// Qualified element name (prefix preserved).
        name: &'a str,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
        /// Start position of `<`.
        at: Position,
    },
    /// A closing tag `</a>`.
    EndTag {
        /// Qualified element name.
        name: &'a str,
        /// Start position of `<`.
        at: Position,
    },
    /// Character data between tags, already unescaped.
    Text {
        /// Unescaped content.
        content: Cow<'a, str>,
        /// Start position of the run.
        at: Position,
    },
    /// `<![CDATA[...]]>` content, verbatim.
    CData {
        /// Verbatim content.
        content: &'a str,
        /// Start position of `<`.
        at: Position,
    },
    /// `<!-- ... -->` content, verbatim.
    Comment {
        /// Verbatim content.
        content: &'a str,
        /// Start position of `<`.
        at: Position,
    },
    /// `<?target data?>` (other than the XML declaration).
    ProcessingInstruction {
        /// PI target.
        target: &'a str,
        /// PI data (may be empty), trimmed.
        data: &'a str,
        /// Start position of `<`.
        at: Position,
    },
    /// A `<!DOCTYPE ...>` that was recognised and skipped.
    DoctypeSkipped {
        /// Start position of `<`.
        at: Position,
    },
}

impl Token<'_> {
    /// The source position where this token starts.
    pub fn position(&self) -> Position {
        match self {
            Token::Declaration { at, .. }
            | Token::StartTag { at, .. }
            | Token::EndTag { at, .. }
            | Token::Text { at, .. }
            | Token::CData { at, .. }
            | Token::Comment { at, .. }
            | Token::ProcessingInstruction { at, .. }
            | Token::DoctypeSkipped { at } => *at,
        }
    }
}

/// Streaming tokenizer over a borrowed input string.
pub struct Tokenizer<'a> {
    input: &'a str,
    /// Byte offset where the current token starts (always a char
    /// boundary); `line`/`column` are its position.
    pos: usize,
    line: u32,
    column: u32,
    /// Scan cursor inside the current token.
    cur: usize,
    /// Open elements, innermost last, with the positions of their tags.
    open: Vec<(&'a str, Position)>,
    /// Attributes of the last start tag (one buffer, reused).
    attrs: Vec<Attr<'a>>,
    /// The root element has been closed.
    root_closed: bool,
    /// End of input was reached or an error was returned; no more tokens.
    done: bool,
}

/// Bytes that may continue an ASCII name (`[A-Za-z0-9_:.-]`).
fn ascii_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'.' | b'-')
}

impl<'a> Tokenizer<'a> {
    /// Create a tokenizer at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            pos: 0,
            line: 1,
            column: 1,
            cur: 0,
            open: Vec::new(),
            attrs: Vec::new(),
            root_closed: false,
            done: false,
        }
    }

    /// Current position (1-based line/column) of the scan cursor.
    pub fn current_position(&self) -> Position {
        self.position_at(self.cur)
    }

    /// True when the whole input has been consumed.
    pub fn at_eof(&self) -> bool {
        self.cur >= self.input.len()
    }

    /// Attributes of the last [`Token::StartTag`] in document order,
    /// values unescaped.
    pub fn attrs(&self) -> &[Attr<'a>] {
        &self.attrs
    }

    /// Line and column after moving from the token start over
    /// `bytes[pos..end]`.
    fn walk(&self, end: usize) -> (u32, u32) {
        let run = &self.input.as_bytes()[self.pos..end];
        let (mut line, mut column) = (self.line, self.column);
        let tail = match run.iter().rposition(|&b| b == b'\n') {
            Some(last) => {
                line += run[..=last].iter().filter(|&&b| b == b'\n').count() as u32;
                column = 1;
                &run[last + 1..]
            }
            None => run,
        };
        // Columns count characters: skip UTF-8 continuation bytes.
        column += if tail.is_ascii() {
            tail.len()
        } else {
            tail.iter().filter(|&&b| b & 0xC0 != 0x80).count()
        } as u32;
        (line, column)
    }

    /// Position of byte offset `at` of the current token (a char
    /// boundary at or after the token start).
    fn position_at(&self, at: usize) -> Position {
        let (line, column) = self.walk(at);
        Position { line, column }
    }

    /// End the current token at the cursor: advance line and column over
    /// the skipped run.
    fn commit(&mut self) {
        (self.line, self.column) = self.walk(self.cur);
        self.pos = self.cur;
    }

    fn rest(&self) -> &'a str {
        &self.input[self.cur..]
    }

    fn peek_byte(&self) -> Option<u8> {
        self.input.as_bytes().get(self.cur).copied()
    }

    /// Move the cursor to the next occurrence of `byte` (or the end of
    /// input); returns the skipped slice.
    fn scan_to(&mut self, byte: u8) -> &'a str {
        let start = self.cur;
        let len = self.input.as_bytes()[start..]
            .iter()
            .position(|&b| b == byte)
            .unwrap_or(self.input.len() - start);
        self.cur += len;
        &self.input[start..self.cur]
    }

    fn skip_whitespace(&mut self) {
        while self.peek_byte().is_some_and(|b| b.is_ascii_whitespace()) {
            self.cur += 1;
        }
    }

    fn unexpected(&self, expected: &'static str, context: &'static str) -> XmlError {
        let at = self.current_position();
        match self.rest().chars().next() {
            Some(found) => XmlError::UnexpectedChar { found, expected, at },
            None => XmlError::UnexpectedEof { context, at },
        }
    }

    fn eat(&mut self, expected: u8, what: &'static str) -> Result<(), XmlError> {
        if self.peek_byte() == Some(expected) {
            self.cur += 1;
            Ok(())
        } else {
            Err(self.unexpected(what, what))
        }
    }

    /// Length in bytes of the name character at the cursor + `offset`,
    /// if there is one (`start` selects the name-start rules).
    fn name_char_len(&self, offset: usize, start: bool) -> Option<usize> {
        let b = *self.input.as_bytes().get(self.cur + offset)?;
        if b.is_ascii() {
            let ok = if start {
                b.is_ascii_alphabetic() || b == b'_' || b == b':'
            } else {
                ascii_name_char(b)
            };
            return ok.then_some(1);
        }
        let c = self.input[self.cur + offset..].chars().next()?;
        c.is_alphabetic().then(|| c.len_utf8())
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let Some(mut len) = self.name_char_len(0, true) else {
            return Err(self.unexpected("a name", "a name"));
        };
        let bytes = self.input.as_bytes();
        loop {
            match bytes.get(self.cur + len) {
                Some(&b) if ascii_name_char(b) => len += 1,
                Some(&b) if !b.is_ascii() => match self.name_char_len(len, false) {
                    Some(n) => len += n,
                    None => break,
                },
                _ => break,
            }
        }
        let name = &self.input[self.cur..self.cur + len];
        self.cur += len;
        Ok(name)
    }

    /// Pull the next token, or `Ok(None)` at end of input. After an error
    /// or the end of input every further call returns `Ok(None)`.
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>, XmlError> {
        if self.done {
            return Ok(None);
        }
        let token = self.lex();
        match token {
            Ok(Some(_)) => self.commit(),
            _ => self.done = true,
        }
        token
    }

    fn lex(&mut self) -> Result<Option<Token<'a>>, XmlError> {
        if self.at_eof() {
            if let Some(&(name, at)) = self.open.last() {
                return Err(XmlError::UnclosedTag { name: name.to_owned(), at });
            }
            if !self.root_closed {
                return Err(XmlError::NoRootElement);
            }
            return Ok(None);
        }
        let at = Position { line: self.line, column: self.column };
        if self.peek_byte() != Some(b'<') {
            let raw = self.scan_to(b'<');
            let content = unescape(raw, at)?;
            if self.open.is_empty() && !content.trim().is_empty() {
                return Err(XmlError::ContentOutsideRoot { at });
            }
            return Ok(Some(Token::Text { content, at }));
        }
        // A markup construct.
        let rest = self.rest();
        match rest.as_bytes().get(1) {
            Some(b'/') => return self.read_end_tag(at).map(Some),
            Some(b'?') => return self.read_pi(at).map(Some),
            Some(b'!') if rest.starts_with("<!--") => {
                let content = self.read_delimited(4, "-->", "a comment", at)?;
                return Ok(Some(Token::Comment { content, at }));
            }
            Some(b'!') if rest.starts_with("<![CDATA[") => {
                let content = self.read_delimited(9, "]]>", "a CDATA section", at)?;
                if self.open.is_empty() {
                    return Err(XmlError::ContentOutsideRoot { at });
                }
                return Ok(Some(Token::CData { content, at }));
            }
            Some(b'!') if rest.starts_with("<!DOCTYPE") => return self.read_doctype(at).map(Some),
            _ => {}
        }
        self.read_start_tag(at).map(Some)
    }

    /// Skip an `open`-byte opener, return the text up to `close` and move
    /// past it.
    fn read_delimited(
        &mut self,
        open: usize,
        close: &str,
        context: &'static str,
        at: Position,
    ) -> Result<&'a str, XmlError> {
        self.cur += open;
        let Some(end) = self.rest().find(close) else {
            return Err(XmlError::UnexpectedEof { context, at });
        };
        let content = &self.rest()[..end];
        self.cur += end + close.len();
        Ok(content)
    }

    fn read_doctype(&mut self, at: Position) -> Result<Token<'a>, XmlError> {
        self.cur += 9; // "<!DOCTYPE"
        // Skip to the matching '>', tracking '[' ... ']' internal subsets.
        let mut depth = 0i32;
        for (i, &b) in self.input.as_bytes()[self.cur..].iter().enumerate() {
            match b {
                b'[' => depth += 1,
                b']' => depth -= 1,
                b'>' if depth <= 0 => {
                    self.cur += i + 1;
                    return Ok(Token::DoctypeSkipped { at });
                }
                _ => {}
            }
        }
        Err(XmlError::UnexpectedEof { context: "a DOCTYPE", at })
    }

    fn read_pi(&mut self, at: Position) -> Result<Token<'a>, XmlError> {
        self.cur += 2; // "<?"
        let target = self.read_name()?;
        let Some(end) = self.rest().find("?>") else {
            return Err(XmlError::UnexpectedEof { context: "a processing instruction", at });
        };
        let data = self.rest()[..end].trim();
        self.cur += end + 2;
        if target.eq_ignore_ascii_case("xml") {
            Ok(Token::Declaration { content: data, at })
        } else {
            Ok(Token::ProcessingInstruction { target, data, at })
        }
    }

    fn read_end_tag(&mut self, at: Position) -> Result<Token<'a>, XmlError> {
        self.cur += 2; // "</"
        let name = self.read_name()?;
        self.skip_whitespace();
        self.eat(b'>', "'>' closing an end tag")?;
        let Some((open, _)) = self.open.pop() else {
            return Err(XmlError::UnopenedTag { name: name.to_owned(), at });
        };
        if open != name {
            return Err(XmlError::MismatchedTag {
                open: open.to_owned(),
                close: name.to_owned(),
                at,
            });
        }
        self.root_closed |= self.open.is_empty();
        Ok(Token::EndTag { name, at })
    }

    fn read_start_tag(&mut self, at: Position) -> Result<Token<'a>, XmlError> {
        self.cur += 1; // "<"
        let name = self.read_name()?;
        let mut attrs = std::mem::take(&mut self.attrs);
        attrs.clear();
        let self_closing = self.read_attrs(&mut attrs);
        self.attrs = attrs;
        let self_closing = self_closing?;
        if self.root_closed && self.open.is_empty() {
            return Err(XmlError::MultipleRoots { at });
        }
        if self.open.len() >= MAX_DEPTH {
            return Err(XmlError::TooDeep { limit: MAX_DEPTH, at });
        }
        if self_closing {
            self.root_closed |= self.open.is_empty();
        } else {
            self.open.push((name, at));
        }
        Ok(Token::StartTag { name, self_closing, at })
    }

    /// Read a start tag's attributes into `attrs`, up to and including its
    /// `>` or `/>`; returns whether it was self-closing.
    fn read_attrs(&mut self, attrs: &mut Vec<Attr<'a>>) -> Result<bool, XmlError> {
        loop {
            self.skip_whitespace();
            match self.peek_byte() {
                Some(b'>') => {
                    self.cur += 1;
                    return Ok(false);
                }
                Some(b'/') => {
                    self.cur += 1;
                    self.eat(b'>', "'>' after '/'")?;
                    return Ok(true);
                }
                Some(_) if self.name_char_len(0, true).is_some() => {
                    // Attribute positions are only worked out for errors.
                    let attr_start = self.cur;
                    let key = self.read_name()?;
                    self.skip_whitespace();
                    self.eat(b'=', "'=' in an attribute")?;
                    self.skip_whitespace();
                    let value = self.read_attr_value(attr_start)?;
                    if attrs.iter().any(|(k, _)| *k == key) {
                        let at = self.position_at(attr_start);
                        return Err(XmlError::DuplicateAttribute { name: key.to_owned(), at });
                    }
                    attrs.push((key, value));
                }
                Some(_) => return Err(self.unexpected("an attribute, '>' or '/>'", "a start tag")),
                None => {
                    let at = Position { line: self.line, column: self.column };
                    return Err(XmlError::UnexpectedEof { context: "a start tag", at });
                }
            }
        }
    }

    fn read_attr_value(&mut self, attr_start: usize) -> Result<Cow<'a, str>, XmlError> {
        let quote = match self.peek_byte() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.unexpected("a quoted attribute value", "an attribute value")),
        };
        self.cur += 1;
        let raw = self.scan_to(quote);
        if self.at_eof() {
            let at = self.position_at(attr_start);
            return Err(XmlError::UnexpectedEof { context: "an attribute value", at });
        }
        self.cur += 1;
        // The start position only matters for an error: retry with it then.
        unescape(raw, Position::START).or_else(|_| unescape(raw, self.position_at(attr_start)))
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Result<Token<'a>, XmlError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_token().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(input: &str) -> Vec<Token<'_>> {
        Tokenizer::new(input).collect::<Result<Vec<_>, _>>().unwrap()
    }

    fn first_error(input: &str) -> XmlError {
        Tokenizer::new(input).collect::<Result<Vec<_>, _>>().unwrap_err()
    }

    #[test]
    fn simple_element() {
        let toks = all("<a>hi</a>");
        assert_eq!(toks.len(), 3);
        assert!(matches!(&toks[0], Token::StartTag { name: "a", self_closing: false, .. }));
        assert!(matches!(&toks[1], Token::Text { content, .. } if content == "hi"));
        assert!(matches!(&toks[2], Token::EndTag { name: "a", .. }));
    }

    /// The attributes of the first start tag in `input`.
    fn first_attrs(input: &str) -> Vec<Attr<'_>> {
        let mut t = Tokenizer::new(input);
        while let Some(token) = t.next_token().unwrap() {
            if matches!(token, Token::StartTag { .. }) {
                return t.attrs().to_vec();
            }
        }
        panic!("no start tag in {input:?}");
    }

    #[test]
    fn self_closing_with_attrs() {
        let toks = all(r#"<species id="A" name="glucose"/>"#);
        assert!(matches!(&toks[0], Token::StartTag { name: "species", self_closing: true, .. }));
        let attrs = first_attrs(r#"<species id="A" name="glucose"/>"#);
        assert_eq!(attrs, [("id", Cow::Borrowed("A")), ("name", Cow::Borrowed("glucose"))]);
    }

    #[test]
    fn payloads_borrow_unless_rewritten() {
        let attrs = first_attrs(r#"<p a="plain" b="x&amp;y">t &lt; u</p>"#);
        assert!(matches!(attrs[0].1, Cow::Borrowed("plain")));
        assert!(matches!(&attrs[1].1, Cow::Owned(v) if v == "x&y"));
        let toks = all(r#"<p a="plain" b="x&amp;y">t &lt; u</p>"#);
        assert!(matches!(&toks[1], Token::Text { content: Cow::Owned(t), .. } if t == "t < u"));
    }

    #[test]
    fn attr_value_entities_unescaped() {
        assert_eq!(first_attrs(r#"<p v="a&lt;b&amp;c"/>"#)[0].1, "a<b&c");
    }

    #[test]
    fn single_quoted_attr() {
        assert_eq!(first_attrs(r#"<p v='x "y"'/>"#)[0].1, "x \"y\"");
    }

    #[test]
    fn attrs_belong_to_the_last_start_tag() {
        let mut t = Tokenizer::new(r#"<a x="1"><b/></a>"#);
        t.next_token().unwrap();
        assert_eq!(t.attrs().len(), 1);
        t.next_token().unwrap();
        assert!(t.attrs().is_empty());
    }

    #[test]
    fn error_positions_inside_a_tag() {
        let err = first_error("<a\n  x=\"&q;\"/>");
        assert_eq!(err, XmlError::BadEntity { entity: "q".into(), at: Position::new(2, 3) });
        let err = first_error("<a x='1'\n y='2' x='3'/>");
        assert!(matches!(err, XmlError::DuplicateAttribute { at, .. } if at == Position::new(2, 8)));
        let err = first_error("<a>\n <b x=1/>");
        assert_eq!(err, XmlError::UnexpectedChar { found: '1', expected: "a quoted attribute value", at: Position::new(2, 7) });
    }

    #[test]
    fn declaration_and_pi() {
        let toks = all("<?xml version=\"1.0\"?><?mypi some data?><r/>");
        assert!(matches!(&toks[0], Token::Declaration { content, .. } if content.contains("version")));
        assert!(matches!(
            &toks[1],
            Token::ProcessingInstruction { target: "mypi", data: "some data", .. }
        ));
    }

    #[test]
    fn comment_and_cdata() {
        let toks = all("<r><!-- a <comment> --><![CDATA[x < y && z]]></r>");
        assert!(matches!(&toks[1], Token::Comment { content: " a <comment> ", .. }));
        assert!(matches!(&toks[2], Token::CData { content: "x < y && z", .. }));
    }

    #[test]
    fn doctype_skipped_with_subset() {
        let toks = all("<!DOCTYPE sbml [ <!ENTITY x \"y\"> ]><r/>");
        assert!(matches!(&toks[0], Token::DoctypeSkipped { .. }));
        assert!(matches!(&toks[1], Token::StartTag { .. }));
    }

    #[test]
    fn positions_tracked_across_lines() {
        let mut t = Tokenizer::new("<a>\n  <b/>\n</a>");
        let _ = t.next_token().unwrap(); // <a>
        let _ = t.next_token().unwrap(); // text
        let tok = t.next_token().unwrap().unwrap(); // <b/>
        assert_eq!(tok.position(), Position::new(2, 3));
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let mut t = Tokenizer::new("<a>αβ<b/></a>");
        let _ = t.next_token().unwrap();
        let _ = t.next_token().unwrap();
        let tok = t.next_token().unwrap().unwrap();
        assert_eq!(tok.position(), Position::new(1, 6));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = first_error(r#"<a x="1" x="2"/>"#);
        assert!(matches!(err, XmlError::DuplicateAttribute { ref name, .. } if name == "x"));
    }

    #[test]
    fn eof_errors() {
        for bad in ["<a", "<a href=", "<a href=\"x", "<!-- never closed", "<![CDATA[open", "</"] {
            let res = Tokenizer::new(bad).collect::<Result<Vec<_>, _>>();
            assert!(res.is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn namespaced_names_kept_verbatim() {
        let toks = all(r#"<math xmlns="http://www.w3.org/1998/Math/MathML"><m:ci xmlns:m="u">x</m:ci></math>"#);
        assert!(matches!(&toks[1], Token::StartTag { name: "m:ci", .. }));
    }

    #[test]
    fn unicode_text() {
        let toks = all("<été>αβγ→δ</été>");
        assert!(matches!(&toks[0], Token::StartTag { name: "été", .. }));
        assert!(matches!(&toks[1], Token::Text { content, .. } if content == "αβγ→δ"));
    }

    #[test]
    fn bad_entity_in_text() {
        assert!(matches!(first_error("<a>&nope;</a>"), XmlError::BadEntity { .. }));
    }

    #[test]
    fn well_formedness_checked_in_document_order() {
        assert!(matches!(first_error("<a><b></a></b>"), XmlError::MismatchedTag { .. }));
        assert!(matches!(first_error("<a>"), XmlError::UnclosedTag { ref name, .. } if name == "a"));
        assert!(matches!(first_error("</a>"), XmlError::UnopenedTag { .. }));
        assert!(matches!(first_error("  \n "), XmlError::NoRootElement));
        assert!(matches!(first_error("<a/><b/>"), XmlError::MultipleRoots { .. }));
        assert!(matches!(first_error("stray<a/>"), XmlError::ContentOutsideRoot { .. }));
        assert!(matches!(first_error("<a/><![CDATA[]]>"), XmlError::ContentOutsideRoot { .. }));
        // The lexical error inside the second root's tag comes first.
        assert!(matches!(first_error("<a/><b x=1/>"), XmlError::UnexpectedChar { .. }));
    }

    #[test]
    fn no_tokens_after_an_error() {
        let mut t = Tokenizer::new("<a>&bad;</a>");
        let _ = t.next_token().unwrap();
        assert!(t.next_token().is_err());
        assert_eq!(t.next_token(), Ok(None));
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let at_limit = format!("{}{}", "<a>".repeat(MAX_DEPTH), "</a>".repeat(MAX_DEPTH));
        assert!(Tokenizer::new(&at_limit).all(|t| t.is_ok()));
        let leaf_at_limit =
            format!("{}<b/>{}", "<a>".repeat(MAX_DEPTH - 1), "</a>".repeat(MAX_DEPTH - 1));
        assert!(Tokenizer::new(&leaf_at_limit).all(|t| t.is_ok()));

        let over = format!("{}<b/>{}", "<a>".repeat(MAX_DEPTH), "</a>".repeat(MAX_DEPTH));
        let err = first_error(&over);
        assert_eq!(
            err,
            XmlError::TooDeep { limit: MAX_DEPTH, at: Position::new(1, 3 * MAX_DEPTH as u32 + 1) }
        );
    }
}
