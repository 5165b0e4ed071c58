//! [`MathExpr`] → content MathML and infix text.
//!
//! MathML is streamed into an [`XmlWriter`], so it lands directly in the
//! enclosing document's output.

use std::fmt;

use sbml_xml::XmlWriter;

use crate::ast::{MathExpr, Op};

/// The MathML 2.0 namespace SBML requires on `<math>` elements.
pub const MATHML_NS: &str = "http://www.w3.org/1998/Math/MathML";

/// Write an expression wrapped in a namespaced `<math>` element.
pub fn write_math(w: &mut XmlWriter, expr: &MathExpr) {
    w.start("math");
    w.attr("xmlns", MATHML_NS);
    write_node(w, expr);
    w.end();
}

/// Write `<math><lambda>...</lambda></math>` for a function definition's
/// parameters and body (what [`write_math`] writes for the equivalent
/// [`MathExpr::Lambda`], without building it).
pub fn write_math_lambda(w: &mut XmlWriter, params: &[String], body: &MathExpr) {
    w.start("math");
    w.attr("xmlns", MATHML_NS);
    write_lambda(w, params, body);
    w.end();
}

/// Compact MathML text for an expression (`<math xmlns=...>...</math>`).
pub fn to_mathml_string(expr: &MathExpr) -> String {
    let mut w = XmlWriter::new(None);
    write_math(&mut w, expr);
    w.finish()
}

/// An identifier as MathML writes it: padded with one space each side.
fn padded(w: &mut XmlWriter, name: &str) {
    w.text_parts(&[" ", name, " "]);
}

fn leaf(w: &mut XmlWriter, name: &str) {
    w.start(name);
    w.end();
}

fn wrapped(w: &mut XmlWriter, name: &str, expr: &MathExpr) {
    w.start(name);
    write_node(w, expr);
    w.end();
}

/// Write one expression node (without the `<math>` wrapper).
pub fn write_node(w: &mut XmlWriter, expr: &MathExpr) {
    match expr {
        MathExpr::Num(v) => {
            w.start("cn");
            w.text_display(Number(*v));
            w.end();
        }
        MathExpr::Ci(name) => {
            w.start("ci");
            padded(w, name);
            w.end();
        }
        MathExpr::Csymbol { kind, name } => {
            w.start("csymbol");
            w.attr("encoding", "text");
            w.attr("definitionURL", kind.definition_url());
            padded(w, name);
            w.end();
        }
        MathExpr::Const(c) => leaf(w, c.mathml_name()),
        MathExpr::Apply { op, args } => {
            w.start("apply");
            leaf(w, op.mathml_name());
            let mut rest: &[MathExpr] = args;
            // Re-materialise qualifiers so parse(write(x)) == x.
            let qualifier = match op {
                Op::Root => Some(("degree", 2.0)),
                Op::Log => Some(("logbase", 10.0)),
                _ => None,
            };
            if let (Some((name, default)), Some((first, tail))) = (qualifier, args.split_first()) {
                if first != &MathExpr::Num(default) {
                    wrapped(w, name, first);
                }
                rest = tail;
            }
            for arg in rest {
                write_node(w, arg);
            }
            w.end();
        }
        MathExpr::Call { function, args } => {
            w.start("apply");
            w.start("ci");
            padded(w, function);
            w.end();
            for arg in args {
                write_node(w, arg);
            }
            w.end();
        }
        MathExpr::Piecewise { pieces, otherwise } => {
            w.start("piecewise");
            for (value, cond) in pieces {
                w.start("piece");
                write_node(w, value);
                write_node(w, cond);
                w.end();
            }
            if let Some(other) = otherwise {
                wrapped(w, "otherwise", other);
            }
            w.end();
        }
        MathExpr::Lambda { params, body } => write_lambda(w, params, body),
    }
}

fn write_lambda(w: &mut XmlWriter, params: &[String], body: &MathExpr) {
    w.start("lambda");
    for p in params {
        w.start("bvar");
        w.start("ci");
        padded(w, p);
        w.end();
        w.end();
    }
    write_node(w, body);
    w.end();
}

/// Shortest round-trip decimal representation of a number, as
/// [`fmt::Display`]: integral values below 1e15 print without a fraction,
/// `-0` prints as `0`.
#[derive(Debug, Clone, Copy)]
pub struct Number(pub f64);

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v == 0.0 {
            // normalise -0.0
            f.write_str("0")
        } else if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
            write!(f, "{}", v as i64)
        } else {
            write!(f, "{v}")
        }
    }
}

/// Shortest round-trip decimal representation of a number.
pub fn format_number(v: f64) -> String {
    Number(v).to_string()
}

/// Render an expression as human-readable infix text (parseable back by
/// [`crate::infix::parse`]).
pub fn to_infix(expr: &MathExpr) -> String {
    let mut out = String::with_capacity(32);
    write_infix(expr, 0, &mut out);
    out
}

// Precedence levels: 1 or, 2 and, 3 not, 4 relational, 5 add, 6 mul,
// 7 unary minus, 8 power, 9 atom.
fn write_infix(expr: &MathExpr, parent_prec: u8, out: &mut String) {
    match expr {
        MathExpr::Num(v) => out.push_str(&format_number(*v)),
        MathExpr::Ci(name) => out.push_str(name),
        MathExpr::Csymbol { kind, .. } => out.push_str(match kind {
            crate::ast::CsymbolKind::Time => "time",
            crate::ast::CsymbolKind::Avogadro => "avogadro",
            crate::ast::CsymbolKind::Delay => "delay",
        }),
        MathExpr::Const(c) => out.push_str(c.mathml_name()),
        MathExpr::Apply { op, args } => write_infix_apply(*op, args, parent_prec, out),
        MathExpr::Call { function, args } => {
            out.push_str(function);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_infix(a, 0, out);
            }
            out.push(')');
        }
        MathExpr::Piecewise { pieces, otherwise } => {
            out.push_str("piecewise(");
            let mut first = true;
            for (v, c) in pieces {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                write_infix(v, 0, out);
                out.push_str(", ");
                write_infix(c, 0, out);
            }
            if let Some(other) = otherwise {
                if !first {
                    out.push_str(", ");
                }
                write_infix(other, 0, out);
            }
            out.push(')');
        }
        MathExpr::Lambda { params, body } => {
            out.push_str("lambda(");
            for p in params {
                out.push_str(p);
                out.push_str(", ");
            }
            write_infix(body, 0, out);
            out.push(')');
        }
    }
}

fn write_infix_apply(op: Op, args: &[MathExpr], parent_prec: u8, out: &mut String) {
    let (symbol, prec): (&str, u8) = match op {
        Op::Plus => (" + ", 5),
        Op::Minus if args.len() == 2 => (" - ", 5),
        Op::Minus => ("-", 7), // unary
        Op::Times => (" * ", 6),
        Op::Divide => (" / ", 6),
        Op::Power => ("^", 8),
        Op::Eq => (" == ", 4),
        Op::Neq => (" != ", 4),
        Op::Gt => (" > ", 4),
        Op::Lt => (" < ", 4),
        Op::Geq => (" >= ", 4),
        Op::Leq => (" <= ", 4),
        Op::And => (" && ", 2),
        Op::Or => (" || ", 1),
        Op::Xor => ("", 0),
        Op::Not => ("!", 3),
        _ => ("", 0),
    };

    match op {
        Op::Minus if args.len() == 1 => {
            let need = parent_prec > prec;
            if need {
                out.push('(');
            }
            out.push('-');
            write_infix(&args[0], prec + 1, out);
            if need {
                out.push(')');
            }
        }
        Op::Not => {
            let need = parent_prec > prec;
            if need {
                out.push('(');
            }
            out.push('!');
            write_infix(&args[0], prec + 1, out);
            if need {
                out.push(')');
            }
        }
        Op::Plus
        | Op::Minus
        | Op::Times
        | Op::Divide
        | Op::Power
        | Op::Eq
        | Op::Neq
        | Op::Gt
        | Op::Lt
        | Op::Geq
        | Op::Leq
        | Op::And
        | Op::Or => {
            let need = parent_prec > prec || (parent_prec == prec && !op.is_associative());
            if need {
                out.push('(');
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(symbol);
                }
                // Right operand of -, /, ^ needs tighter binding.
                let child_prec = if i == 0 { prec } else { prec + 1 };
                write_infix(a, child_prec, out);
            }
            if need {
                out.push(')');
            }
        }
        // Everything else renders as a function call.
        other => {
            out.push_str(match other {
                Op::Root => "root",
                Op::Log => "log",
                other => other.mathml_name(),
            });
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_infix(a, 0, out);
            }
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Constant;
    use crate::parser::parse_str;

    fn round_trip(expr: &MathExpr) -> MathExpr {
        parse_str(&to_mathml_string(expr)).unwrap()
    }

    #[test]
    fn mathml_round_trip_basics() {
        let cases = vec![
            MathExpr::num(3.5),
            MathExpr::num(-0.0),
            MathExpr::num(1e-9),
            MathExpr::ci("k1"),
            MathExpr::Const(Constant::Pi),
            MathExpr::apply(Op::Times, vec![MathExpr::ci("k1"), MathExpr::ci("A")]),
            MathExpr::apply(Op::Minus, vec![MathExpr::ci("x")]),
            MathExpr::apply(Op::Root, vec![MathExpr::num(3.0), MathExpr::ci("x")]),
            MathExpr::apply(Op::Root, vec![MathExpr::num(2.0), MathExpr::ci("x")]),
            MathExpr::apply(Op::Log, vec![MathExpr::num(2.0), MathExpr::ci("x")]),
            MathExpr::Call { function: "f".into(), args: vec![MathExpr::num(1.0)] },
            MathExpr::Piecewise {
                pieces: vec![(
                    MathExpr::num(1.0),
                    MathExpr::apply(Op::Lt, vec![MathExpr::ci("x"), MathExpr::num(2.0)]),
                )],
                otherwise: Some(Box::new(MathExpr::num(0.0))),
            },
            MathExpr::Lambda {
                params: vec!["x".into()],
                body: Box::new(MathExpr::apply(
                    Op::Plus,
                    vec![MathExpr::ci("x"), MathExpr::num(1.0)],
                )),
            },
        ];
        for expr in cases {
            let back = round_trip(&expr);
            // -0.0 normalises to 0.
            if let MathExpr::Num(v) = expr {
                if v == 0.0 {
                    assert_eq!(back, MathExpr::num(0.0));
                    continue;
                }
            }
            assert_eq!(back, expr);
        }
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(0.0), "0");
        assert_eq!(format_number(-0.0), "0");
        assert_eq!(format_number(5.0), "5");
        assert_eq!(format_number(-5.0), "-5");
        assert_eq!(format_number(0.5), "0.5");
        assert_eq!(format_number(1e20), "100000000000000000000");
        assert_eq!(format_number(6.022e23), "602200000000000000000000");
    }

    #[test]
    fn infix_precedence() {
        let e = MathExpr::apply(
            Op::Times,
            vec![
                MathExpr::apply(Op::Plus, vec![MathExpr::ci("a"), MathExpr::ci("b")]),
                MathExpr::ci("c"),
            ],
        );
        assert_eq!(to_infix(&e), "(a + b) * c");

        let f = MathExpr::apply(
            Op::Minus,
            vec![
                MathExpr::ci("a"),
                MathExpr::apply(Op::Minus, vec![MathExpr::ci("b"), MathExpr::ci("c")]),
            ],
        );
        assert_eq!(to_infix(&f), "a - (b - c)");
    }

    #[test]
    fn infix_unary_and_power() {
        let e = MathExpr::apply(
            Op::Power,
            vec![MathExpr::ci("x"), MathExpr::num(2.0)],
        );
        assert_eq!(to_infix(&e), "x^2");
        let neg = MathExpr::apply(Op::Minus, vec![MathExpr::ci("x")]);
        assert_eq!(to_infix(&neg), "-x");
        let prod = MathExpr::apply(Op::Times, vec![MathExpr::num(2.0), neg]);
        assert_eq!(to_infix(&prod), "2 * -x"); // re-parses identically
    }

    #[test]
    fn infix_functions() {
        let e = MathExpr::apply(Op::Sin, vec![MathExpr::ci("x")]);
        assert_eq!(to_infix(&e), "sin(x)");
        let call = MathExpr::Call {
            function: "mm".into(),
            args: vec![MathExpr::ci("S"), MathExpr::ci("V")],
        };
        assert_eq!(to_infix(&call), "mm(S, V)");
    }

    #[test]
    fn math_element_is_namespaced() {
        assert_eq!(
            to_mathml_string(&MathExpr::num(1.0)),
            format!("<math xmlns=\"{MATHML_NS}\"><cn>1</cn></math>")
        );
    }

    #[test]
    fn mathml_text_forms() {
        let expr = MathExpr::apply(
            Op::Root,
            vec![MathExpr::num(2.0), MathExpr::Call { function: "f".into(), args: vec![] }],
        );
        assert_eq!(
            to_mathml_string(&expr),
            format!("<math xmlns=\"{MATHML_NS}\"><apply><root/><apply><ci> f </ci></apply></apply></math>")
        );
        let lambda = MathExpr::Lambda { params: vec!["x".into()], body: Box::new(MathExpr::ci("x")) };
        let mut w = XmlWriter::new(None);
        write_math_lambda(&mut w, &["x".into()], &MathExpr::ci("x"));
        assert_eq!(w.finish(), to_mathml_string(&lambda));
    }

    #[test]
    fn malformed_apply_writes_without_panicking() {
        let expr = MathExpr::Apply { op: Op::Log, args: vec![] };
        assert!(to_mathml_string(&expr).contains("<apply><log/></apply>"));
    }
}
