//! Shared helpers for binding SBML elements off the [`sbml_xml::Reader`]:
//! typed attribute access, `listOf*` containers and `<math>` children.

use sbml_math::MathExpr;
use sbml_xml::{Attrs, Reader, Tag};

use crate::error::ModelError;

type Result<T> = std::result::Result<T, ModelError>;

/// Required string attribute.
pub(crate) fn req_attr(attrs: &Attrs<'_, '_>, key: &str) -> Result<String> {
    attrs.get(key).map(str::to_owned).ok_or_else(|| {
        ModelError::structure(format!("<{}> missing required attribute {key:?}", attrs.name))
    })
}

/// Optional string attribute.
pub(crate) fn opt_attr(attrs: &Attrs<'_, '_>, key: &str) -> Option<String> {
    attrs.get(key).map(str::to_owned)
}

/// Optional f64 attribute.
pub(crate) fn opt_f64(attrs: &Attrs<'_, '_>, key: &str) -> Result<Option<f64>> {
    match attrs.get(key) {
        None => Ok(None),
        Some(raw) => raw.trim().parse::<f64>().map(Some).map_err(|_| {
            ModelError::structure(format!("<{}> attribute {key}={raw:?} is not a number", attrs.name))
        }),
    }
}

/// Optional bool attribute with a default.
pub(crate) fn bool_attr(attrs: &Attrs<'_, '_>, key: &str, default: bool) -> Result<bool> {
    match attrs.get(key) {
        None => Ok(default),
        Some("true") | Some("1") => Ok(true),
        Some("false") | Some("0") => Ok(false),
        Some(other) => Err(ModelError::structure(format!(
            "<{}> attribute {key}={other:?} is not a boolean",
            attrs.name
        ))),
    }
}

/// Optional i32 attribute.
pub(crate) fn opt_i32(attrs: &Attrs<'_, '_>, key: &str) -> Result<Option<i32>> {
    match attrs.get(key) {
        None => Ok(None),
        Some(raw) => raw.trim().parse::<i32>().map(Some).map_err(|_| {
            ModelError::structure(format!("<{}> attribute {key}={raw:?} is not an integer", attrs.name))
        }),
    }
}

/// A childless component bound from its attributes alone; the element's
/// content is skipped.
pub(crate) fn leaf<T>(r: &mut Reader<'_>, bind: impl FnOnce(&Attrs<'_, '_>) -> Result<T>) -> Result<T> {
    let bound = bind(&r.attrs());
    r.skip();
    bound
}

/// Read the items of a `listOf*` container: children named `item` are
/// bound with `read`, anything else is skipped.
pub(crate) fn read_list<'a, T>(
    r: &mut Reader<'a>,
    item: &str,
    out: &mut Vec<T>,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<T>,
) -> Result<()> {
    while let Some(tag) = r.next_child() {
        if tag.name == item {
            out.push(read(r)?);
        } else {
            r.skip();
        }
    }
    Ok(())
}

/// The content of an element whose only child that counts is its first
/// `<math>`; `context` names the element in errors.
pub(crate) fn read_math_only(r: &mut Reader<'_>, context: impl Fn() -> String) -> Result<MathExpr> {
    let mut math = None;
    while let Some(tag) = r.next_child() {
        if tag.name == "math" && math.is_none() {
            math = Some(read_math(r, tag, &context)?);
        } else {
            r.skip();
        }
    }
    require_math(math, context)
}

/// Read a `<math>` element, with `context` for errors.
pub(crate) fn read_math<'a>(
    r: &mut Reader<'a>,
    tag: Tag<'a>,
    context: impl Fn() -> String,
) -> Result<MathExpr> {
    sbml_math::parser::read(r, tag)
        .map_err(|source| ModelError::Math { context: context(), source })
}

pub(crate) fn require_math(math: Option<MathExpr>, context: impl Fn() -> String) -> Result<MathExpr> {
    math.ok_or_else(|| ModelError::structure(format!("{}: missing <math> child", context())))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` on the root element of `xml`, then check the document.
    fn with_root<T>(xml: &str, f: impl FnOnce(&mut Reader<'_>, Tag<'_>) -> T) -> T {
        let mut r = Reader::new(xml);
        let root = r.root().expect("a root element");
        let out = f(&mut r, root);
        r.finish().expect("well formed");
        out
    }

    #[test]
    fn attribute_parsing() {
        with_root(r#"<x id="a" v="2.5" n="3" flag="true"/>"#, |r, _| {
            let e = r.attrs();
            assert_eq!(req_attr(&e, "id").unwrap(), "a");
            assert!(req_attr(&e, "missing").is_err());
            assert_eq!(opt_f64(&e, "v").unwrap(), Some(2.5));
            assert_eq!(opt_f64(&e, "absent").unwrap(), None);
            assert_eq!(opt_i32(&e, "n").unwrap(), Some(3));
            assert!(bool_attr(&e, "flag", false).unwrap());
            assert!(!bool_attr(&e, "off", false).unwrap());
            r.skip();
        });
    }

    #[test]
    fn bad_values_rejected() {
        with_root(r#"<x v="abc" flag="maybe" n="1.5"/>"#, |r, _| {
            let e = r.attrs();
            assert!(opt_f64(&e, "v").is_err());
            assert!(bool_attr(&e, "flag", false).is_err());
            assert!(opt_i32(&e, "n").is_err());
            r.skip();
        });
    }

    #[test]
    fn math_child_parsing() {
        let context = || "test".to_owned();
        let m = with_root(
            "<kineticLaw><notes/><math><ci>k</ci></math><math><bogus/></math></kineticLaw>",
            |r, _| read_math_only(r, context).unwrap(),
        );
        assert_eq!(m, MathExpr::ci("k"));
        let missing = with_root("<kineticLaw/>", |r, _| read_math_only(r, context));
        assert_eq!(missing, Err(ModelError::structure("test: missing <math> child")));
    }
}
