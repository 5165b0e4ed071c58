//! Content-MathML → [`MathExpr`] parsing.
//!
//! Accepts the SBML subset of MathML 2.0 content markup: `cn` (including
//! `integer`, `real`, `e-notation` and `rational` types), `ci`, `csymbol`,
//! named constants, `apply` with built-in operators or function-definition
//! calls, `degree`/`logbase` qualifiers, `piecewise` and `lambda`.
//! Namespace prefixes on element names are ignored (`m:apply` == `apply`).

use std::borrow::Cow;

use sbml_xml::reader::append;
use sbml_xml::{Event, Reader, Tag};

use crate::ast::{Constant, CsymbolKind, MathExpr, Op};
use crate::error::MathError;

/// Strip any namespace prefix from a qualified name.
pub fn local_name(qualified: &str) -> &str {
    match qualified.rfind(':') {
        Some(idx) => &qualified[idx + 1..],
        None => qualified,
    }
}

/// Parse MathML text: a `<math>` element or a bare operand element.
pub fn parse_str(text: &str) -> Result<MathExpr, MathError> {
    let mut r = Reader::new(text);
    let expr = match r.root() {
        Some(tag) => read(&mut r, tag),
        None => Err(MathError::BadApply { detail: "no MathML element".to_owned() }),
    };
    r.finish().map_err(MathError::Xml)?;
    expr
}

/// Read a `<math>` wrapper or a bare MathML operand element whose start
/// tag `tag` the reader just returned. On success the element has been
/// consumed; on an error the caller abandons the reader.
pub fn read<'a>(r: &mut Reader<'a>, tag: Tag<'a>) -> Result<MathExpr, MathError> {
    if local_name(tag.name) != "math" {
        return read_node(r, tag);
    }
    let Some(first) = r.next_child() else {
        return Err(MathError::BadApply { detail: "<math> has no child".to_owned() });
    };
    let expr = read_node(r, first)?;
    if r.next_child().is_some() {
        return Err(MathError::BadApply { detail: "<math> has more than one child".to_owned() });
    }
    Ok(expr)
}

/// Text content of the current element, trimmed and owned.
fn trimmed_text(r: &mut Reader<'_>) -> String {
    r.text().trim().to_owned()
}

/// The first child element of the current element, read as an operand;
/// the rest of the element is skipped. `None` when it has no child.
fn read_only_child(r: &mut Reader<'_>) -> Option<Result<MathExpr, MathError>> {
    let inner = r.next_child()?;
    let expr = read_node(r, inner);
    if expr.is_ok() {
        r.skip();
    }
    Some(expr)
}

fn read_node<'a>(r: &mut Reader<'a>, tag: Tag<'a>) -> Result<MathExpr, MathError> {
    match local_name(tag.name) {
        "cn" => read_cn(r),
        "ci" => Ok(MathExpr::Ci(trimmed_text(r))),
        "csymbol" => {
            let url = r.attrs().get("definitionURL").unwrap_or("");
            let Some(kind) = CsymbolKind::from_definition_url(url) else {
                return Err(MathError::UnknownElement { name: format!("csymbol[{url}]") });
            };
            Ok(MathExpr::Csymbol { kind, name: trimmed_text(r) })
        }
        "apply" => read_apply(r),
        "piecewise" => read_piecewise(r),
        "lambda" => read_lambda(r),
        other => match Constant::from_mathml_name(other) {
            Some(c) => {
                r.skip();
                Ok(MathExpr::Const(c))
            }
            None => Err(MathError::UnknownElement { name: other.to_owned() }),
        },
    }
}

/// `<cn>`: the number is all of its text (descendants included), or for
/// `e-notation`/`rational` the two direct text parts around `<sep/>`.
fn read_cn(r: &mut Reader<'_>) -> Result<MathExpr, MathError> {
    let e_notation = match r.attrs().get("type") {
        Some("e-notation") => true,
        Some("rational") => false,
        // "integer" | "real" | anything else: single payload
        _ => {
            let text = r.text();
            return number(&text).map(MathExpr::Num);
        }
    };
    let mut text = Cow::Borrowed("");
    let mut parts = vec![Cow::Borrowed("")];
    let mut depth = 0usize;
    while let Some(event) = r.next() {
        match event {
            Event::Start(child) => {
                if depth == 0 && local_name(child.name) == "sep" {
                    parts.push(Cow::Borrowed(""));
                }
                depth += 1;
            }
            Event::End if depth == 0 => break,
            Event::End => depth -= 1,
            Event::Text(run) => {
                if let (0, Some(part)) = (depth, parts.last_mut()) {
                    append(part, run.clone());
                }
                append(&mut text, run);
            }
        }
    }
    let [a, b] = parts.as_slice() else {
        return Err(MathError::BadNumber { text: text.trim().to_owned() });
    };
    let bad = |_| MathError::BadNumber { text: text.trim().to_owned() };
    let (a, b) = (number(a).map_err(bad)?, number(b).map_err(bad)?);
    Ok(MathExpr::Num(if e_notation { a * 10f64.powf(b) } else { a / b }))
}

/// A `<cn>` payload; the error carries the trimmed text.
fn number(text: &str) -> Result<f64, MathError> {
    let trimmed = text.trim();
    trimmed.parse().map_err(|_| MathError::BadNumber { text: trimmed.to_owned() })
}

fn read_apply(r: &mut Reader<'_>) -> Result<MathExpr, MathError> {
    let Some(head) = r.next_child() else {
        return Err(MathError::BadApply { detail: "<apply> is empty".to_owned() });
    };

    // Function-definition call: <apply><ci>f</ci> args...</apply>
    let op_name = local_name(head.name);
    if op_name == "ci" {
        let function = trimmed_text(r);
        let mut args = Vec::new();
        while let Some(arg) = r.next_child() {
            args.push(read_node(r, arg)?);
        }
        return Ok(MathExpr::Call { function, args });
    }

    let Some(op) = Op::from_mathml_name(op_name) else {
        return Err(MathError::UnknownElement { name: op_name.to_owned() });
    };
    r.skip();

    // Qualifiers: <degree> (root) and <logbase> (log) become the first arg.
    let mut args: Vec<MathExpr> = Vec::new();
    let mut qualifier: Option<MathExpr> = None;
    while let Some(child) = r.next_child() {
        match local_name(child.name) {
            name @ ("degree" | "logbase") => {
                let inner = read_only_child(r).ok_or_else(|| MathError::BadApply {
                    detail: format!("empty <{name}>"),
                })?;
                qualifier = Some(inner?);
            }
            _ => args.push(read_node(r, child)?),
        }
    }
    if let Some(q) = qualifier {
        args.insert(0, q);
    } else if op == Op::Root {
        args.insert(0, MathExpr::Num(2.0)); // default square root
    } else if op == Op::Log {
        args.insert(0, MathExpr::Num(10.0)); // default base-10 log
    }

    let (min, max) = op.arity();
    if args.len() < min || args.len() > max {
        return Err(MathError::BadApply {
            detail: format!("<{op_name}> applied to {} operand(s)", args.len()),
        });
    }
    Ok(MathExpr::Apply { op, args })
}

fn read_piecewise(r: &mut Reader<'_>) -> Result<MathExpr, MathError> {
    let mut pieces = Vec::new();
    let mut otherwise = None;
    while let Some(child) = r.next_child() {
        match local_name(child.name) {
            "piece" => {
                let mut parts = Vec::with_capacity(2);
                let mut count = 0usize;
                while let Some(part) = r.next_child() {
                    count += 1;
                    if count <= 2 {
                        parts.push(read_node(r, part)?);
                    } else {
                        r.skip();
                    }
                }
                let (Some(cond), Some(value), 2) = (parts.pop(), parts.pop(), count) else {
                    return Err(MathError::BadApply {
                        detail: format!("<piece> needs 2 children, has {count}"),
                    });
                };
                pieces.push((value, cond));
            }
            "otherwise" => {
                let inner = read_only_child(r).ok_or_else(|| MathError::BadApply {
                    detail: "empty <otherwise>".to_owned(),
                })?;
                otherwise = Some(Box::new(inner?));
            }
            other => return Err(MathError::UnknownElement { name: other.to_owned() }),
        }
    }
    Ok(MathExpr::Piecewise { pieces, otherwise })
}

fn read_lambda(r: &mut Reader<'_>) -> Result<MathExpr, MathError> {
    let mut params = Vec::new();
    let mut body = None;
    while let Some(child) = r.next_child() {
        if local_name(child.name) == "bvar" {
            if r.next_child().is_none() {
                return Err(MathError::BadApply { detail: "empty <bvar>".to_owned() });
            }
            params.push(trimmed_text(r));
            r.skip();
        } else {
            if body.is_some() {
                return Err(MathError::BadApply {
                    detail: "<lambda> has multiple bodies".to_owned(),
                });
            }
            body = Some(read_node(r, child)?);
        }
    }
    let Some(body) = body else {
        return Err(MathError::BadApply { detail: "<lambda> has no body".to_owned() });
    };
    Ok(MathExpr::Lambda { params, body: Box::new(body) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(xml: &str) -> MathExpr {
        parse_str(xml).unwrap()
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("<cn>3.5</cn>"), MathExpr::Num(3.5));
        assert_eq!(parse("<cn type=\"integer\">42</cn>"), MathExpr::Num(42.0));
        assert_eq!(parse("<cn type=\"e-notation\">2<sep/>3</cn>"), MathExpr::Num(2000.0));
        assert_eq!(parse("<cn type=\"rational\">1<sep/>4</cn>"), MathExpr::Num(0.25));
        assert_eq!(parse("<cn> -1e-3 </cn>"), MathExpr::Num(-0.001));
    }

    #[test]
    fn bad_numbers_rejected() {
        for bad in ["<cn>abc</cn>", "<cn type=\"e-notation\">2</cn>", "<cn/>"] {
            assert!(parse_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn identifiers_and_constants() {
        assert_eq!(parse("<ci> k1 </ci>"), MathExpr::ci("k1"));
        assert_eq!(parse("<pi/>"), MathExpr::Const(Constant::Pi));
        assert_eq!(parse("<true/>"), MathExpr::Const(Constant::True));
    }

    #[test]
    fn csymbol_time() {
        let e = parse(
            "<csymbol definitionURL=\"http://www.sbml.org/sbml/symbols/time\">t</csymbol>",
        );
        assert_eq!(e, MathExpr::Csymbol { kind: CsymbolKind::Time, name: "t".into() });
    }

    #[test]
    fn apply_nary_times() {
        let e = parse("<apply><times/><ci>k1</ci><ci>A</ci><ci>B</ci></apply>");
        assert_eq!(
            e,
            MathExpr::apply(
                Op::Times,
                vec![MathExpr::ci("k1"), MathExpr::ci("A"), MathExpr::ci("B")]
            )
        );
    }

    #[test]
    fn math_wrapper() {
        let e = parse(
            "<math xmlns=\"http://www.w3.org/1998/Math/MathML\"><apply><plus/><cn>1</cn><cn>2</cn></apply></math>",
        );
        assert_eq!(e, MathExpr::apply(Op::Plus, vec![MathExpr::num(1.0), MathExpr::num(2.0)]));
    }

    #[test]
    fn function_call() {
        let e = parse("<apply><ci>mm</ci><ci>S</ci><ci>Vmax</ci><ci>Km</ci></apply>");
        assert_eq!(
            e,
            MathExpr::Call {
                function: "mm".into(),
                args: vec![MathExpr::ci("S"), MathExpr::ci("Vmax"), MathExpr::ci("Km")]
            }
        );
    }

    #[test]
    fn root_with_default_and_explicit_degree() {
        let sqrt = parse("<apply><root/><ci>x</ci></apply>");
        assert_eq!(sqrt, MathExpr::apply(Op::Root, vec![MathExpr::num(2.0), MathExpr::ci("x")]));
        let cbrt = parse("<apply><root/><degree><cn>3</cn></degree><ci>x</ci></apply>");
        assert_eq!(cbrt, MathExpr::apply(Op::Root, vec![MathExpr::num(3.0), MathExpr::ci("x")]));
    }

    #[test]
    fn log_with_base() {
        let lg = parse("<apply><log/><ci>x</ci></apply>");
        assert_eq!(lg, MathExpr::apply(Op::Log, vec![MathExpr::num(10.0), MathExpr::ci("x")]));
        let l2 = parse("<apply><log/><logbase><cn>2</cn></logbase><ci>x</ci></apply>");
        assert_eq!(l2, MathExpr::apply(Op::Log, vec![MathExpr::num(2.0), MathExpr::ci("x")]));
    }

    #[test]
    fn piecewise() {
        let e = parse(
            "<piecewise><piece><cn>1</cn><apply><lt/><ci>x</ci><cn>5</cn></apply></piece><otherwise><cn>0</cn></otherwise></piecewise>",
        );
        match e {
            MathExpr::Piecewise { pieces, otherwise } => {
                assert_eq!(pieces.len(), 1);
                assert_eq!(pieces[0].0, MathExpr::num(1.0));
                assert_eq!(*otherwise.unwrap(), MathExpr::num(0.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lambda() {
        let e = parse(
            "<lambda><bvar><ci>x</ci></bvar><bvar><ci>y</ci></bvar><apply><plus/><ci>x</ci><ci>y</ci></apply></lambda>",
        );
        match e {
            MathExpr::Lambda { params, body } => {
                assert_eq!(params, vec!["x".to_owned(), "y".to_owned()]);
                assert_eq!(
                    *body,
                    MathExpr::apply(Op::Plus, vec![MathExpr::ci("x"), MathExpr::ci("y")])
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn namespaced_elements_accepted() {
        let e = parse("<m:apply><m:plus/><m:cn>1</m:cn><m:cn>2</m:cn></m:apply>");
        assert_eq!(e, MathExpr::apply(Op::Plus, vec![MathExpr::num(1.0), MathExpr::num(2.0)]));
    }

    #[test]
    fn ignored_content_is_skipped() {
        // Only the first child of a qualifier, <otherwise> or <bvar> counts;
        // comments and the children of operator and constant elements are
        // passed over.
        let e = parse(
            "<apply><root/><degree><cn>3</cn><bogus/></degree><apply><plus><x/></plus><pi><y/></pi><ci>x</ci></apply></apply>",
        );
        assert_eq!(
            e,
            MathExpr::apply(
                Op::Root,
                vec![
                    MathExpr::num(3.0),
                    MathExpr::apply(Op::Plus, vec![MathExpr::Const(Constant::Pi), MathExpr::ci("x")]),
                ]
            )
        );
        let l = parse("<lambda><bvar><ci>x</ci><bogus/></bvar><ci>x</ci></lambda>");
        assert_eq!(l, MathExpr::Lambda { params: vec!["x".into()], body: Box::new(MathExpr::ci("x")) });
    }

    #[test]
    fn text_is_the_trimmed_concatenation_of_text_and_cdata() {
        assert_eq!(parse("<ci> k<!-- c --><![CDATA[_1]]> </ci>"), MathExpr::ci("k_1"));
        assert_eq!(parse("<cn>1<b>2</b></cn>"), MathExpr::num(12.0));
        assert_eq!(parse("<cn type=\"rational\">1<b>9</b><sep>5</sep>4</cn>"), MathExpr::num(0.25));
        assert_eq!(
            parse_str("<cn type=\"e-notation\">1<sep>x</sep></cn>"),
            Err(MathError::BadNumber { text: "1x".into() })
        );
    }

    #[test]
    fn structural_errors() {
        let bad_apply = |xml: &str| match parse_str(xml) {
            Err(MathError::BadApply { detail }) => detail,
            other => panic!("{xml}: {other:?}"),
        };
        assert_eq!(bad_apply("<math/>"), "<math> has no child");
        assert_eq!(bad_apply("<math><cn>1</cn><cn>2</cn></math>"), "<math> has more than one child");
        assert_eq!(bad_apply("<apply><root/><degree/><ci>x</ci></apply>"), "empty <degree>");
        assert_eq!(
            bad_apply("<piecewise><piece><cn>1</cn><cn>2</cn><cn>3</cn></piece></piecewise>"),
            "<piece> needs 2 children, has 3"
        );
        assert_eq!(bad_apply("<piecewise><otherwise/></piecewise>"), "empty <otherwise>");
        assert_eq!(bad_apply("<lambda><bvar/><ci>x</ci></lambda>"), "empty <bvar>");
        assert_eq!(bad_apply("<lambda><ci>x</ci><ci>y</ci></lambda>"), "<lambda> has multiple bodies");
        assert_eq!(bad_apply("<lambda><bvar><ci>x</ci></bvar></lambda>"), "<lambda> has no body");
        assert!(matches!(parse_str("<apply><cn>1</cn></apply>"), Err(MathError::UnknownElement { .. })));
        assert!(matches!(parse_str("<math><ci>x</math>"), Err(MathError::Xml(_))));
    }

    #[test]
    fn arity_violations() {
        for bad in [
            "<apply><divide/><cn>1</cn></apply>",
            "<apply><not/><cn>1</cn><cn>2</cn></apply>",
            "<apply/>",
            "<apply><power/><cn>1</cn><cn>2</cn><cn>3</cn></apply>",
        ] {
            assert!(parse_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn unknown_elements() {
        assert!(matches!(
            parse_str("<matrix/>"),
            Err(MathError::UnknownElement { .. })
        ));
        assert!(parse_str("<csymbol definitionURL=\"urn:x\">q</csymbol>").is_err());
    }
}
