//! Non-math-bearing model components: compartment/species types,
//! compartments, species and parameters.

/// A compartment type (SBML L2 grouping label for compartments).
#[derive(Debug, Clone, PartialEq)]
pub struct CompartmentType {
    /// Unique id.
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
}

/// A species type (SBML L2 grouping label for species).
#[derive(Debug, Clone, PartialEq)]
pub struct SpeciesType {
    /// Unique id.
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
}

/// A compartment: a bounded volume species live in.
#[derive(Debug, Clone, PartialEq)]
pub struct Compartment {
    /// Unique id.
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
    /// Optional reference to a [`CompartmentType`].
    pub compartment_type: Option<String>,
    /// Spatial dimensions (0–3; default 3).
    pub spatial_dimensions: u32,
    /// Size (volume for 3-D compartments), if set.
    pub size: Option<f64>,
    /// Units id for the size.
    pub units: Option<String>,
    /// Enclosing compartment id.
    pub outside: Option<String>,
    /// Whether the size is fixed over time (default true).
    pub constant: bool,
}

impl Compartment {
    /// A 3-D constant compartment of the given size.
    pub fn new(id: impl Into<String>, size: f64) -> Compartment {
        Compartment {
            id: id.into(),
            name: None,
            compartment_type: None,
            spatial_dimensions: 3,
            size: Some(size),
            units: None,
            outside: None,
            constant: true,
        }
    }
}

/// A chemical species.
#[derive(Debug, Clone, PartialEq)]
pub struct Species {
    /// Unique id.
    pub id: String,
    /// Optional display name (the paper's synonym matching uses this).
    pub name: Option<String>,
    /// Optional reference to a [`SpeciesType`].
    pub species_type: Option<String>,
    /// Compartment the species lives in.
    pub compartment: String,
    /// Initial amount (mutually exclusive with concentration).
    pub initial_amount: Option<f64>,
    /// Initial concentration (mutually exclusive with amount).
    pub initial_concentration: Option<f64>,
    /// Units id for the substance.
    pub substance_units: Option<String>,
    /// Interpret the species value as an amount even in concentration
    /// contexts (default false).
    pub has_only_substance_units: bool,
    /// Whether the species sits on the boundary (not changed by reactions).
    pub boundary_condition: bool,
    /// Electrical charge (deprecated in later SBML levels, still common).
    pub charge: Option<i32>,
    /// Whether the value is fixed over time (default false).
    pub constant: bool,
}

impl Species {
    /// A non-constant species with an initial amount.
    pub fn new(id: impl Into<String>, compartment: impl Into<String>, amount: f64) -> Species {
        Species {
            id: id.into(),
            name: None,
            species_type: None,
            compartment: compartment.into(),
            initial_amount: Some(amount),
            initial_concentration: None,
            substance_units: None,
            has_only_substance_units: false,
            boundary_condition: false,
            charge: None,
            constant: false,
        }
    }

    /// The initial value (amount preferred, then concentration), if any.
    pub fn initial_value(&self) -> Option<f64> {
        self.initial_amount.or(self.initial_concentration)
    }
}

/// A global or local (kinetic-law) parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Parameter {
    /// Unique id (global scope, or kinetic-law scope for local parameters).
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
    /// Numeric value, if set directly.
    pub value: Option<f64>,
    /// Units id.
    pub units: Option<String>,
    /// Whether the value is fixed over time (default true).
    pub constant: bool,
}

impl Parameter {
    /// A constant parameter with a value.
    pub fn new(id: impl Into<String>, value: f64) -> Parameter {
        Parameter { id: id.into(), name: None, value: Some(value), units: None, constant: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{model_with, parse_body, reread, structure_error};

    #[test]
    fn compartment_round_trip() {
        let m = model_with(|m| {
            m.compartments.push(Compartment {
                id: "cell".into(),
                name: Some("Cell".into()),
                compartment_type: Some("ct".into()),
                spatial_dimensions: 2,
                size: Some(1.5),
                units: Some("volume".into()),
                outside: Some("env".into()),
                constant: false,
            })
        });
        assert_eq!(reread(&m), m);
    }

    #[test]
    fn compartment_defaults() {
        let m = parse_body(r#"<listOfCompartments><compartment id="c"/></listOfCompartments>"#);
        let c = &m.unwrap().compartments[0];
        assert_eq!(c.spatial_dimensions, 3);
        assert!(c.constant);
        assert_eq!(c.size, None);
    }

    #[test]
    fn compartment_bad_dimensions() {
        for dims in ["4", "-1"] {
            let body = format!(
                r#"<listOfCompartments><compartment id="c" spatialDimensions="{dims}"/></listOfCompartments>"#
            );
            assert!(structure_error(&body).contains("spatialDimensions"), "{dims}");
        }
    }

    #[test]
    fn species_round_trip() {
        let m = model_with(|m| {
            m.species.push(Species {
                id: "glc".into(),
                name: Some("glucose".into()),
                species_type: Some("sugar".into()),
                compartment: "cell".into(),
                initial_amount: None,
                initial_concentration: Some(5.5),
                substance_units: Some("mole".into()),
                has_only_substance_units: true,
                boundary_condition: true,
                charge: Some(-2),
                constant: true,
            })
        });
        assert_eq!(reread(&m), m);
    }

    #[test]
    fn species_requires_compartment() {
        let detail = structure_error(r#"<listOfSpecies><species id="A"/></listOfSpecies>"#);
        assert_eq!(detail, "<species> missing required attribute \"compartment\"");
    }

    #[test]
    fn species_amount_and_concentration_exclusive() {
        let detail = structure_error(
            r#"<listOfSpecies><species id="A" compartment="c" initialAmount="1" initialConcentration="2"/></listOfSpecies>"#,
        );
        assert!(detail.contains("both initialAmount and initialConcentration"), "{detail}");
    }

    #[test]
    fn species_initial_value_preference() {
        let mut s = Species::new("A", "c", 3.0);
        assert_eq!(s.initial_value(), Some(3.0));
        s.initial_amount = None;
        s.initial_concentration = Some(0.5);
        assert_eq!(s.initial_value(), Some(0.5));
        s.initial_concentration = None;
        assert_eq!(s.initial_value(), None);
    }

    #[test]
    fn parameter_round_trip() {
        let m = model_with(|m| {
            m.parameters.push(Parameter {
                id: "k1".into(),
                name: Some("rate".into()),
                value: Some(0.25),
                units: Some("per_second".into()),
                constant: false,
            })
        });
        assert_eq!(reread(&m), m);
    }

    #[test]
    fn parameter_defaults() {
        let m = parse_body(r#"<listOfParameters><parameter id="k"/></listOfParameters>"#).unwrap();
        assert!(m.parameters[0].constant);
        assert_eq!(m.parameters[0].value, None);
    }

    #[test]
    fn types_round_trip() {
        let m = model_with(|m| {
            m.compartment_types.push(CompartmentType { id: "ct".into(), name: Some("organelles".into()) });
            m.species_types.push(SpeciesType { id: "st".into(), name: None });
        });
        assert_eq!(reread(&m), m);
    }
}
