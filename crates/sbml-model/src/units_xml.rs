//! XML binding for unit definitions (`sbml-units` stays XML-free).

use sbml_math::writer::Number;
use sbml_units::{Unit, UnitDefinition, UnitKind};
use sbml_xml::{Attrs, Reader, XmlWriter};

use crate::error::ModelError;
use crate::write::{list, opt};
use crate::xmlutil::{leaf, opt_attr, opt_f64, opt_i32, read_list, req_attr};

type Result<T> = std::result::Result<T, ModelError>;

/// Read `<unitDefinition>`.
pub(crate) fn read_unit_definition(r: &mut Reader<'_>) -> Result<UnitDefinition> {
    let attrs = r.attrs();
    let id = req_attr(&attrs, "id")?;
    let name = opt_attr(&attrs, "name");
    let mut units = Vec::new();
    let mut seen = false;
    while let Some(list) = r.next_child() {
        if list.name != "listOfUnits" || std::mem::replace(&mut seen, true) {
            r.skip();
            continue;
        }
        read_list(r, "unit", &mut units, |r| leaf(r, |a| unit(a, &id)))?;
    }
    let mut def = UnitDefinition::new(id, units);
    def.name = name;
    Ok(def)
}

fn unit(attrs: &Attrs<'_, '_>, definition: &str) -> Result<Unit> {
    let kind_raw = attrs.get("kind").ok_or_else(|| {
        ModelError::structure(format!("<{}> missing required attribute \"kind\"", attrs.name))
    })?;
    let kind = UnitKind::parse(kind_raw).ok_or_else(|| {
        ModelError::structure(format!(
            "unitDefinition {definition:?}: unknown unit kind {kind_raw:?}"
        ))
    })?;
    Ok(Unit {
        kind,
        exponent: opt_i32(attrs, "exponent")?.unwrap_or(1),
        scale: opt_i32(attrs, "scale")?.unwrap_or(0),
        multiplier: opt_f64(attrs, "multiplier")?.unwrap_or(1.0),
    })
}

/// Write `<unitDefinition>`.
pub(crate) fn write_unit_definition(w: &mut XmlWriter, def: &UnitDefinition) {
    w.start("unitDefinition");
    w.attr("id", &def.id);
    opt(w, "name", &def.name);
    list(w, "listOfUnits", &def.units, |w, u| {
        w.start("unit");
        w.attr("kind", u.kind.name());
        if u.exponent != 1 {
            w.attr_display("exponent", u.exponent);
        }
        if u.scale != 0 {
            w.attr_display("scale", u.scale);
        }
        if u.multiplier != 1.0 {
            w.attr_display("multiplier", Number(u.multiplier));
        }
        w.end();
    });
    w.end();
}

#[cfg(test)]
mod tests {
    use sbml_units::{Unit, UnitDefinition, UnitKind};

    use crate::testutil::{model_with, parse_body, reread, structure_error};

    #[test]
    fn round_trip() {
        let def = UnitDefinition::new(
            "per_mM_per_s",
            vec![
                Unit::of(UnitKind::Mole).pow(-1).scaled(-3),
                Unit::of(UnitKind::Litre),
                Unit::of(UnitKind::Second).pow(-1).times(60.0),
            ],
        )
        .named("per millimolar per second");
        let m = model_with(|m| m.unit_definitions.push(def));
        assert_eq!(reread(&m), m);
    }

    fn units(kind: &str) -> String {
        format!(
            r#"<listOfUnitDefinitions><unitDefinition id="u"><listOfUnits><unit kind="{kind}"/></listOfUnits></unitDefinition></listOfUnitDefinitions>"#
        )
    }

    #[test]
    fn defaults() {
        let m = parse_body(&units("mole")).unwrap();
        let u = &m.unit_definitions[0].units[0];
        assert_eq!(u.exponent, 1);
        assert_eq!(u.scale, 0);
        assert_eq!(u.multiplier, 1.0);
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(structure_error(&units("cubit")).contains("unknown unit kind \"cubit\""));
    }
}
