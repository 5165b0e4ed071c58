//! MathML-content mathematics for SBML models.
//!
//! SBML expresses every formula (kinetic laws, rules, initial assignments,
//! constraints, events, function definitions) as *content MathML*. The EDBT
//! 2010 paper's central technical device is a **commutativity-aware pattern**
//! extracted from MathML trees (paper Fig. 7) so that `k1*[A]*[B]` and
//! `[B]*k1*[A]` are recognised as the same kinetic law during model merging.
//!
//! This crate provides:
//!
//! * [`ast`] — the expression tree ([`MathExpr`], [`Op`], [`Constant`]),
//! * [`parser`] — content-MathML → AST, read straight off an
//!   [`sbml_xml::Reader`] (inside a larger document) or from text,
//! * [`writer`] — AST → content-MathML streamed into an
//!   [`sbml_xml::XmlWriter`], and human-readable infix text,
//! * [`infix`] — an infix formula parser (`"Vmax*S/(Km+S)"` → AST), the
//!   ergonomic construction path used by the corpus generator and examples,
//! * [`pattern`] — the paper's Fig. 7 canonical pattern with ID mappings,
//! * [`eval`] — a numeric evaluator over variable environments (substituting
//!   for the BeanShell interpreter the paper embedded),
//! * [`rewrite`] — identifier collection/renaming/substitution used by the
//!   merge engine when components are renamed.
//!
//! # Example
//!
//! ```
//! use sbml_math::{infix, pattern::Pattern};
//!
//! let a = infix::parse("k1*A*B").unwrap();
//! let b = infix::parse("B*k1*A").unwrap();
//! // Different operand order, same canonical pattern (paper Fig. 7).
//! assert_eq!(Pattern::of(&a), Pattern::of(&b));
//!
//! let c = infix::parse("A/(k1*B)").unwrap();
//! assert_ne!(Pattern::of(&a), Pattern::of(&c));
//! ```

pub mod ast;
pub mod error;
pub mod eval;
pub mod infix;
pub mod parser;
pub mod pattern;
pub mod rewrite;
pub mod writer;

pub use ast::{Constant, CsymbolKind, MathExpr, Op};
pub use error::MathError;
pub use eval::{evaluate, Env};
pub use pattern::Pattern;

/// Parse content MathML text (a `<math>` element or a bare operand
/// element) into an expression tree.
pub fn parse_mathml(text: &str) -> Result<MathExpr, MathError> {
    parser::parse_str(text)
}

/// Serialize an expression tree as compact `<math>` text with the standard
/// MathML namespace.
pub fn to_mathml(expr: &MathExpr) -> String {
    writer::to_mathml_string(expr)
}
