//! Helpers shared by the integration tests.

/// An SBML document whose one kinetic law is `levels` nested unary
/// minuses around `x`: valid MathML whose deepest element sits at depth
/// `levels + 7` (sbml, model, listOfReactions, reaction, kineticLaw, math,
/// the applies, then `<minus/>`/`<ci>`).
pub fn nested_kinetic_law(levels: usize) -> String {
    format!(
        concat!(
            r#"<sbml level="2" version="4"><model id="deep">"#,
            r#"<listOfCompartments><compartment id="c" size="1"/></listOfCompartments>"#,
            r#"<listOfSpecies><species id="x" compartment="c" initialAmount="1"/></listOfSpecies>"#,
            r#"<listOfReactions><reaction id="r" reversible="false">"#,
            r#"<listOfReactants><speciesReference species="x"/></listOfReactants>"#,
            r#"<kineticLaw><math xmlns="http://www.w3.org/1998/Math/MathML">{}<ci>x</ci>{}</math>"#,
            r#"</kineticLaw></reaction></listOfReactions></model></sbml>"#,
        ),
        "<apply><minus/>".repeat(levels),
        "</apply>".repeat(levels),
    )
}
