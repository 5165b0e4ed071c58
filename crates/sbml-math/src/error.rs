//! Error type shared by the MathML parser, infix parser and evaluator.

use std::fmt;

/// Errors from parsing or evaluating mathematics.
#[derive(Debug, Clone, PartialEq)]
pub enum MathError {
    /// Content MathML contained an element we do not understand.
    UnknownElement {
        /// Offending element name.
        name: String,
    },
    /// An `<apply>` had no operator or an operator with bad argument count.
    BadApply {
        /// Human-readable description.
        detail: String,
    },
    /// A `<cn>` payload failed to parse as a number.
    BadNumber {
        /// The raw text.
        text: String,
    },
    /// Infix formula syntax error.
    Syntax {
        /// Byte offset in the formula string.
        offset: usize,
        /// Description of what went wrong.
        detail: String,
    },
    /// Evaluation referenced an identifier missing from the environment.
    UnknownIdentifier {
        /// The identifier.
        name: String,
    },
    /// Evaluation called an unknown function definition.
    UnknownFunction {
        /// The function id.
        name: String,
    },
    /// A function call had the wrong number of arguments.
    WrongArgCount {
        /// The function id.
        function: String,
        /// Expected parameter count.
        expected: usize,
        /// Provided argument count.
        got: usize,
    },
    /// Recursion limit hit while expanding function definitions (cycle).
    RecursionLimit {
        /// The function id where the limit tripped.
        function: String,
    },
    /// A piecewise expression had no true branch and no otherwise.
    NoBranchTaken,
    /// MathML text that is not well-formed XML.
    Xml(sbml_xml::XmlError),
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::UnknownElement { name } => {
                write!(f, "unknown MathML element <{name}>")
            }
            MathError::BadApply { detail } => write!(f, "malformed <apply>: {detail}"),
            MathError::BadNumber { text } => write!(f, "malformed <cn> number: {text:?}"),
            MathError::Syntax { offset, detail } => {
                write!(f, "formula syntax error at byte {offset}: {detail}")
            }
            MathError::UnknownIdentifier { name } => {
                write!(f, "unknown identifier {name:?} during evaluation")
            }
            MathError::UnknownFunction { name } => {
                write!(f, "call of unknown function definition {name:?}")
            }
            MathError::WrongArgCount { function, expected, got } => {
                write!(f, "function {function:?} expects {expected} argument(s), got {got}")
            }
            MathError::RecursionLimit { function } => {
                write!(f, "recursion limit expanding function {function:?} (cyclic definition?)")
            }
            MathError::NoBranchTaken => {
                write!(f, "piecewise expression: no condition true and no <otherwise>")
            }
            MathError::Xml(e) => write!(f, "malformed MathML: {e}"),
        }
    }
}

impl std::error::Error for MathError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let cases: Vec<(MathError, &str)> = vec![
            (MathError::UnknownElement { name: "blob".into() }, "blob"),
            (MathError::BadNumber { text: "1.2.3".into() }, "1.2.3"),
            (MathError::UnknownIdentifier { name: "k9".into() }, "k9"),
            (
                MathError::WrongArgCount { function: "f".into(), expected: 2, got: 3 },
                "expects 2",
            ),
            (MathError::NoBranchTaken, "otherwise"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
