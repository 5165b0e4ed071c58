//! Error and source-position types for the XML layer.

use std::fmt;

/// A line/column position inside the source text (both 1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Position {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in characters, not bytes).
    pub column: u32,
}

impl Position {
    /// The start of a document.
    pub const START: Position = Position { line: 1, column: 1 };

    /// Create a position.
    pub fn new(line: u32, column: u32) -> Self {
        Position { line, column }
    }
}

impl Default for Position {
    fn default() -> Self {
        Position::START
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Errors produced while tokenizing: lexical errors and well-formedness
/// violations (tag nesting, root rules, the nesting-depth limit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Input ended in the middle of a construct.
    UnexpectedEof {
        /// What the parser was reading when input ran out.
        context: &'static str,
        /// Where the construct started.
        at: Position,
    },
    /// A character that cannot start/continue the current construct.
    UnexpectedChar {
        /// The offending character.
        found: char,
        /// What was expected instead.
        expected: &'static str,
        /// Where the character was found.
        at: Position,
    },
    /// `</b>` closing `<a>`.
    MismatchedTag {
        /// Name of the element that was open.
        open: String,
        /// Name found in the closing tag.
        close: String,
        /// Position of the closing tag.
        at: Position,
    },
    /// A closing tag with no matching open element.
    UnopenedTag {
        /// Name found in the stray closing tag.
        name: String,
        /// Position of the closing tag.
        at: Position,
    },
    /// Elements left open at end of input.
    UnclosedTag {
        /// Name of the innermost unclosed element.
        name: String,
        /// Where it was opened.
        at: Position,
    },
    /// An attribute appeared twice on one element.
    DuplicateAttribute {
        /// The repeated attribute name.
        name: String,
        /// Position of the second occurrence.
        at: Position,
    },
    /// `&name;` with an unknown entity name, or a malformed reference.
    BadEntity {
        /// The raw entity text (without `&`/`;`).
        entity: String,
        /// Position of the reference.
        at: Position,
    },
    /// Non-whitespace content outside the root element.
    ContentOutsideRoot {
        /// Position of the stray content.
        at: Position,
    },
    /// The document contains no root element at all.
    NoRootElement,
    /// More than one top-level element.
    MultipleRoots {
        /// Position of the second root.
        at: Position,
    },
    /// An element nested deeper than [`crate::MAX_DEPTH`] levels.
    TooDeep {
        /// The nesting limit that was exceeded.
        limit: usize,
        /// Position of the start tag that crossed it.
        at: Position,
    },
}

impl XmlError {
    /// The source position most relevant to the error, if known.
    pub fn position(&self) -> Option<Position> {
        match self {
            XmlError::UnexpectedEof { at, .. }
            | XmlError::UnexpectedChar { at, .. }
            | XmlError::MismatchedTag { at, .. }
            | XmlError::UnopenedTag { at, .. }
            | XmlError::UnclosedTag { at, .. }
            | XmlError::DuplicateAttribute { at, .. }
            | XmlError::BadEntity { at, .. }
            | XmlError::ContentOutsideRoot { at }
            | XmlError::MultipleRoots { at }
            | XmlError::TooDeep { at, .. } => Some(*at),
            XmlError::NoRootElement => None,
        }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof { context, at } => {
                write!(f, "{at}: unexpected end of input while reading {context}")
            }
            XmlError::UnexpectedChar { found, expected, at } => {
                write!(f, "{at}: unexpected character {found:?}, expected {expected}")
            }
            XmlError::MismatchedTag { open, close, at } => {
                write!(f, "{at}: closing tag </{close}> does not match open element <{open}>")
            }
            XmlError::UnopenedTag { name, at } => {
                write!(f, "{at}: closing tag </{name}> has no matching open element")
            }
            XmlError::UnclosedTag { name, at } => {
                write!(f, "{at}: element <{name}> is never closed")
            }
            XmlError::DuplicateAttribute { name, at } => {
                write!(f, "{at}: duplicate attribute {name:?}")
            }
            XmlError::BadEntity { entity, at } => {
                write!(f, "{at}: unknown or malformed entity reference &{entity};")
            }
            XmlError::ContentOutsideRoot { at } => {
                write!(f, "{at}: non-whitespace content outside the root element")
            }
            XmlError::NoRootElement => write!(f, "document has no root element"),
            XmlError::MultipleRoots { at } => {
                write!(f, "{at}: document has more than one root element")
            }
            XmlError::TooDeep { limit, at } => {
                write!(f, "{at}: elements nested deeper than {limit} levels")
            }
        }
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_display() {
        assert_eq!(Position::new(3, 14).to_string(), "3:14");
        assert_eq!(Position::START.to_string(), "1:1");
        assert_eq!(Position::default(), Position::START);
    }

    #[test]
    fn error_display_mentions_position() {
        let e = XmlError::MismatchedTag {
            open: "a".into(),
            close: "b".into(),
            at: Position::new(2, 5),
        };
        let s = e.to_string();
        assert!(s.contains("2:5"), "{s}");
        assert!(s.contains("</b>"), "{s}");
        assert!(s.contains("<a>"), "{s}");
    }

    #[test]
    fn position_accessor() {
        assert_eq!(XmlError::NoRootElement.position(), None);
        let e = XmlError::ContentOutsideRoot { at: Position::new(9, 1) };
        assert_eq!(e.position(), Some(Position::new(9, 1)));
    }
}
