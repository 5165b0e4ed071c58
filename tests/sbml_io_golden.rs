//! Golden pins for SBML reading and writing.
//!
//! The values below were recorded from the DOM-based reader and writer
//! that the streaming ones replaced: the writer must produce the same
//! bytes for whole corpora, and the reader must return the same `Model`
//! (or the same error) for hand-written documents that exercise its odd
//! corners. A change here is a change of observable behaviour.

use sbmlcompose::corpus::{corpus_187, corpus_conflict, corpus_scale, query_fragment, synonym_variant};
use sbmlcompose::model::{parse_sbml, write_sbml, Model};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// FNV-1a of the concatenated `write_sbml` output of `models`.
fn digest<'a>(models: impl IntoIterator<Item = &'a Model>) -> u64 {
    models.into_iter().fold(FNV_OFFSET, |h, m| fnv(write_sbml(m).as_bytes(), h))
}

#[test]
fn fig8_corpus_writes_identical_bytes() {
    assert_eq!(digest(&corpus_187()), 0xb5c7c9787271898f);
}

#[test]
fn conflict_corpus_writes_identical_bytes() {
    assert_eq!(digest(&corpus_conflict(32)), 0x5e7919e70fa083a2);
}

#[test]
fn scale_fragments_and_synonym_twins_write_identical_bytes() {
    let fragments: Vec<Model> =
        corpus_scale(64).iter().enumerate().map(|(i, m)| query_fragment(m, i, 1)).collect();
    assert_eq!(digest(&fragments), 0xcc5b4a0e437520bc);
    let twins: Vec<Model> = fragments.iter().map(synonym_variant).collect();
    assert_eq!(digest(&twins), 0xaf1fda48dc086071);
}

/// Hand-written documents exercising the reader's odd corners.
const ODD_DOCS: &[(&str, &str)] = &[
    (
        "reordered_and_duplicated_lists",
        r#"<sbml level="2" version="3"><model id="m1" name="Reordered">
<listOfReactions><reaction id="r1" reversible="false"><listOfProducts><speciesReference species="B" stoichiometry="2"/></listOfProducts><listOfReactants><speciesReference species="A"/></listOfReactants><kineticLaw><listOfParameters><parameter id="kl" value="3"/></listOfParameters><math xmlns="http://www.w3.org/1998/Math/MathML"><apply><times/><ci>kl</ci><ci>A</ci></apply></math></kineticLaw></reaction></listOfReactions>
<listOfSpecies><species id="A" compartment="c" initialAmount="1"/><species id="B" compartment="c" initialConcentration="0.5"/></listOfSpecies>
<listOfCompartments><compartment id="c" size="2"/></listOfCompartments>
<listOfSpecies><species id="IGNORED" compartment="nowhere"/><species/></listOfSpecies>
<listOfParameters><parameter id="k" value="1e-3" constant="false"/></listOfParameters>
<listOfReactions><reaction/></listOfReactions>
</model><model id="second"/></sbml>"#,
    ),
    (
        "unknown_nested_elements",
        r#"<sbml xmlns="http://www.sbml.org/sbml/level2/version4" level="2" version="4"><notes><p>The <model id="fake"/> is not here</p></notes><annotation><listOfSpecies><species/></listOfSpecies></annotation><model id="m2"><notes><body xmlns="http://www.w3.org/1999/xhtml"><p>free <b>text</b></p></body></notes><annotation><rdf:RDF xmlns:rdf="u"><rdf:li/></rdf:RDF></annotation><listOfSpecies><annotation/><species id="S" compartment="c"><annotation><math><bogus/></math></annotation></species><notSpecies id="x"/></listOfSpecies><listOfCompartments><compartment id="c"><unknown><deeper><deepest/></deeper></unknown></compartment></listOfCompartments><listOfReactions><reaction id="r"><listOfReactants><speciesReference species="S"><stoichiometryMath><cn>2</cn></stoichiometryMath></speciesReference><junk/></listOfReactants><kineticLaw><notes/><math><ci>S</ci></math><math><bogus/></math></kineticLaw><kineticLaw/></reaction></listOfReactions></model></sbml>"#,
    ),
    (
        "comments_pis_whitespace",
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- leading comment -->\n<?editor hint=\"x\"?>\n<!DOCTYPE sbml [ <!ENTITY foo \"bar\"> ]>\n<sbml level=\"2\" version=\"4\">\n  <!-- before model -->\n  <model id=\"m3\">\n    <?pi inside?>\n    <listOfParameters>\n      <!-- a comment -->\n      <parameter id=\"p1\" value=\" 4.5 \"/>\n      <?another pi?>\n      <parameter id=\"p2\"/>\n    </listOfParameters>\n    <listOfRules>\n      <!-- rules -->\n      <assignmentRule variable=\"p2\"><!-- c --><math><!-- c --><apply><!-- c --><plus/><ci> p1 </ci><!-- c --><cn> 1 </cn></apply></math></assignmentRule>\n    </listOfRules>\n  </model>\n</sbml>\n<!-- trailing -->\n",
    ),
    (
        "cdata_and_split_text",
        r#"<model id="m4"><listOfConstraints><constraint><math><apply><lt/><ci><![CDATA[ S1 ]]></ci><cn><![CDATA[10]]></cn></apply></math><message><p xmlns="http://www.w3.org/1999/xhtml">S1 must <b>stay</b> &lt; 10<![CDATA[ & <ok> ]]></p></message></constraint><constraint><math><apply><geq/><ci>S<!-- split -->1</ci><cn>0</cn></apply></math></constraint></listOfConstraints></model>"#,
    ),
    (
        "entities_and_character_references",
        r#"<model id="m&#95;5" name="caf&#xE9; &amp; bar"><listOfSpecies><species id="A" name="&lt;alpha&gt; &#945;&#x3B2; &quot;q&quot; &apos;s&apos;" compartment="c" charge="-2"/></listOfSpecies><listOfParameters><parameter id="k" value="&#49;.5"/></listOfParameters><listOfRules><rateRule variable="A"><math><apply><minus/><ci>k&#95;1</ci></apply></math></rateRule></listOfRules></model>"#,
    ),
    (
        "single_quotes",
        r#"<sbml level='2' version='1'><model id='m6' name='it"s'><listOfCompartments><compartment id='c' spatialDimensions='2' size='0.5' constant='0' outside='env'/></listOfCompartments><listOfSpecies><species id='X' compartment='c' hasOnlySubstanceUnits='1' boundaryCondition='true' constant='false' initialAmount='7'/></listOfSpecies></model></sbml>"#,
    ),
    (
        "prefixed_mathml",
        r#"<model id="m7"><listOfFunctionDefinitions><functionDefinition id="f"><math xmlns:m="http://www.w3.org/1998/Math/MathML"><m:lambda><m:bvar><m:ci>x</m:ci></m:bvar><m:bvar><m:ci> y </m:ci></m:bvar><m:apply><m:power/><m:ci>x</m:ci><m:ci>y</m:ci></m:apply></m:lambda></math></functionDefinition></listOfFunctionDefinitions><listOfEvents><event id="e"><trigger><math><m:apply xmlns:m="u"><m:gt/><m:csymbol encoding="text" definitionURL="http://www.sbml.org/sbml/symbols/time"> t </m:csymbol><m:cn>5</m:cn></m:apply></math></trigger><delay><math><apply><root/><degree><cn>3</cn><cn>ignored</cn></degree><apply><log/><logbase><cn type="integer">2</cn></logbase><ci>x</ci></apply></apply></math></delay><listOfEventAssignments><eventAssignment variable="x"><math><piecewise><piece><cn>1</cn><apply><lt/><ci>x</ci><pi/></apply></piece><otherwise><exponentiale/></otherwise></piecewise></math></eventAssignment></listOfEventAssignments></event></listOfEvents></model>"#,
    ),
    (
        "cn_forms_and_units",
        r#"<model id="m8"><listOfInitialAssignments><initialAssignment symbol="a"><math><cn type="e-notation"> 1.5 <sep/> -3 </cn></math></initialAssignment><initialAssignment symbol="b"><math><cn type="rational"> 1 <sep/> 4 </cn></math></initialAssignment><initialAssignment symbol="c"><math><cn type="integer"> 42 </cn></math></initialAssignment><initialAssignment symbol="d"><math><cn>-2.5E2</cn></math></initialAssignment><initialAssignment symbol="e"><math><apply><ci>f</ci><cn type="real">1<!-- x -->0</cn><true/></apply></math></initialAssignment></listOfInitialAssignments><listOfUnitDefinitions><unitDefinition id="u" name="per mM"><listOfUnits><unit kind="mole" exponent="-1" scale="-3"/><unit kind="second" multiplier="60"/></listOfUnits></unitDefinition></listOfUnitDefinitions></model>"#,
    ),
    (
        "bare_model",
        "\n  <model id=\"bare\"><listOfCompartmentTypes><compartmentType id=\"ct\" name=\"organelle\"/></listOfCompartmentTypes><listOfSpeciesTypes><speciesType id=\"st\"/></listOfSpeciesTypes></model>\n",
    ),
    ("empty_bare_model", "<model/>"),
    (
        "xml_error_after_structural_error",
        r#"<sbml><model id="e1"><listOfSpecies><species id="A"/></listOfSpecies></model><oops></sbml>"#,
    ),
    (
        "structural_error",
        r#"<model id="e2"><listOfSpecies><species id="A" compartment="c" initialAmount="1" initialConcentration="2"/></listOfSpecies></model>"#,
    ),
    (
        "math_error",
        r#"<model id="e3"><listOfReactions><reaction id="r"><kineticLaw><math><apply><divide/><cn>1</cn></apply></math></kineticLaw></reaction></listOfReactions></model>"#,
    ),
    ("wrong_root", r#"<html><model id="x"/></html>"#),
    ("sbml_without_model", r#"<sbml level="x"><listOfSpecies/></sbml>"#),
    (
        "prefixed_math_wrapper_is_not_math",
        r#"<model id="p"><listOfRules><algebraicRule><m:math xmlns:m="u"><m:ci>x</m:ci></m:math></algebraicRule></listOfRules></model>"#,
    ),
    ("unknown_rule_element", r#"<model id="q"><listOfRules><weirdRule/></listOfRules></model>"#),
    ("bad_entity", r#"<model id="m" name="a & b"/>"#),
];

/// Per document of [`ODD_DOCS`]: the `{:?}` of `parse_sbml`, and the
/// FNV-1a of `write_sbml` of the parsed model (0 for an error).
const EXPECTED: &[(&str, &str, u64)] = &[
    (
        "reordered_and_duplicated_lists",
        "Ok(Model { id: \"m1\", name: Some(\"Reordered\"), function_definitions: [], unit_definitions: [], compartment_types: [], species_types: [], compartments: [Compartment { id: \"c\", name: None, compartment_type: None, spatial_dimensions: 3, size: Some(2.0), units: None, outside: None, constant: true }], species: [Species { id: \"A\", name: None, species_type: None, compartment: \"c\", initial_amount: Some(1.0), initial_concentration: None, substance_units: None, has_only_substance_units: false, boundary_condition: false, charge: None, constant: false }, Species { id: \"B\", name: None, species_type: None, compartment: \"c\", initial_amount: None, initial_concentration: Some(0.5), substance_units: None, has_only_substance_units: false, boundary_condition: false, charge: None, constant: false }], parameters: [Parameter { id: \"k\", name: None, value: Some(0.001), units: None, constant: false }], initial_assignments: [], rules: [], constraints: [], reactions: [Reaction { id: \"r1\", name: None, reversible: false, fast: false, reactants: [SpeciesReference { species: \"A\", stoichiometry: 1.0 }], products: [SpeciesReference { species: \"B\", stoichiometry: 2.0 }], modifiers: [], kinetic_law: Some(KineticLaw { math: Apply { op: Times, args: [Ci(\"kl\"), Ci(\"A\")] }, parameters: [Parameter { id: \"kl\", name: None, value: Some(3.0), units: None, constant: true }] }) }], events: [] })",
        0xb9a31114f7050369,
    ),
    (
        "unknown_nested_elements",
        "Ok(Model { id: \"m2\", name: None, function_definitions: [], unit_definitions: [], compartment_types: [], species_types: [], compartments: [Compartment { id: \"c\", name: None, compartment_type: None, spatial_dimensions: 3, size: None, units: None, outside: None, constant: true }], species: [Species { id: \"S\", name: None, species_type: None, compartment: \"c\", initial_amount: None, initial_concentration: None, substance_units: None, has_only_substance_units: false, boundary_condition: false, charge: None, constant: false }], parameters: [], initial_assignments: [], rules: [], constraints: [], reactions: [Reaction { id: \"r\", name: None, reversible: true, fast: false, reactants: [SpeciesReference { species: \"S\", stoichiometry: 1.0 }], products: [], modifiers: [], kinetic_law: Some(KineticLaw { math: Ci(\"S\"), parameters: [] }) }], events: [] })",
        0xe69e1de64d7fc2a2,
    ),
    (
        "comments_pis_whitespace",
        "Ok(Model { id: \"m3\", name: None, function_definitions: [], unit_definitions: [], compartment_types: [], species_types: [], compartments: [], species: [], parameters: [Parameter { id: \"p1\", name: None, value: Some(4.5), units: None, constant: true }, Parameter { id: \"p2\", name: None, value: None, units: None, constant: true }], initial_assignments: [], rules: [Assignment { variable: \"p2\", math: Apply { op: Plus, args: [Ci(\"p1\"), Num(1.0)] } }], constraints: [], reactions: [], events: [] })",
        0x78b52e99192fe3c7,
    ),
    (
        "cdata_and_split_text",
        "Ok(Model { id: \"m4\", name: None, function_definitions: [], unit_definitions: [], compartment_types: [], species_types: [], compartments: [], species: [], parameters: [], initial_assignments: [], rules: [], constraints: [Constraint { math: Apply { op: Lt, args: [Ci(\"S1\"), Num(10.0)] }, message: Some(\"S1 must stay < 10 & <ok>\") }, Constraint { math: Apply { op: Geq, args: [Ci(\"S1\"), Num(0.0)] }, message: None }], reactions: [], events: [] })",
        0xbc85666544b07a3a,
    ),
    (
        "entities_and_character_references",
        "Ok(Model { id: \"m_5\", name: Some(\"café & bar\"), function_definitions: [], unit_definitions: [], compartment_types: [], species_types: [], compartments: [], species: [Species { id: \"A\", name: Some(\"<alpha> αβ \\\"q\\\" 's'\"), species_type: None, compartment: \"c\", initial_amount: None, initial_concentration: None, substance_units: None, has_only_substance_units: false, boundary_condition: false, charge: Some(-2), constant: false }], parameters: [Parameter { id: \"k\", name: None, value: Some(1.5), units: None, constant: true }], initial_assignments: [], rules: [Rate { variable: \"A\", math: Apply { op: Minus, args: [Ci(\"k_1\")] } }], constraints: [], reactions: [], events: [] })",
        0x3685614657c4a611,
    ),
    (
        "single_quotes",
        "Ok(Model { id: \"m6\", name: Some(\"it\\\"s\"), function_definitions: [], unit_definitions: [], compartment_types: [], species_types: [], compartments: [Compartment { id: \"c\", name: None, compartment_type: None, spatial_dimensions: 2, size: Some(0.5), units: None, outside: Some(\"env\"), constant: false }], species: [Species { id: \"X\", name: None, species_type: None, compartment: \"c\", initial_amount: Some(7.0), initial_concentration: None, substance_units: None, has_only_substance_units: true, boundary_condition: true, charge: None, constant: false }], parameters: [], initial_assignments: [], rules: [], constraints: [], reactions: [], events: [] })",
        0x831665594ca803d5,
    ),
    (
        "prefixed_mathml",
        "Ok(Model { id: \"m7\", name: None, function_definitions: [FunctionDefinition { id: \"f\", name: None, params: [\"x\", \"y\"], body: Apply { op: Power, args: [Ci(\"x\"), Ci(\"y\")] } }], unit_definitions: [], compartment_types: [], species_types: [], compartments: [], species: [], parameters: [], initial_assignments: [], rules: [], constraints: [], reactions: [], events: [Event { id: Some(\"e\"), name: None, trigger: Apply { op: Gt, args: [Csymbol { kind: Time, name: \"t\" }, Num(5.0)] }, delay: Some(Apply { op: Root, args: [Num(3.0), Apply { op: Log, args: [Num(2.0), Ci(\"x\")] }] }), assignments: [EventAssignment { variable: \"x\", math: Piecewise { pieces: [(Num(1.0), Apply { op: Lt, args: [Ci(\"x\"), Const(Pi)] })], otherwise: Some(Const(ExponentialE)) } }] }] })",
        0x829f330c3805eeb8,
    ),
    (
        "cn_forms_and_units",
        "Ok(Model { id: \"m8\", name: None, function_definitions: [], unit_definitions: [UnitDefinition { id: \"u\", name: Some(\"per mM\"), units: [Unit { kind: Mole, exponent: -1, scale: -3, multiplier: 1.0 }, Unit { kind: Second, exponent: 1, scale: 0, multiplier: 60.0 }] }], compartment_types: [], species_types: [], compartments: [], species: [], parameters: [], initial_assignments: [InitialAssignment { symbol: \"a\", math: Num(0.0015) }, InitialAssignment { symbol: \"b\", math: Num(0.25) }, InitialAssignment { symbol: \"c\", math: Num(42.0) }, InitialAssignment { symbol: \"d\", math: Num(-250.0) }, InitialAssignment { symbol: \"e\", math: Call { function: \"f\", args: [Num(10.0), Const(True)] } }], rules: [], constraints: [], reactions: [], events: [] })",
        0x2a8d688dccc16291,
    ),
    (
        "bare_model",
        "Ok(Model { id: \"bare\", name: None, function_definitions: [], unit_definitions: [], compartment_types: [CompartmentType { id: \"ct\", name: Some(\"organelle\") }], species_types: [SpeciesType { id: \"st\", name: None }], compartments: [], species: [], parameters: [], initial_assignments: [], rules: [], constraints: [], reactions: [], events: [] })",
        0x255d569b1b3a501c,
    ),
    (
        "empty_bare_model",
        "Ok(Model { id: \"\", name: None, function_definitions: [], unit_definitions: [], compartment_types: [], species_types: [], compartments: [], species: [], parameters: [], initial_assignments: [], rules: [], constraints: [], reactions: [], events: [] })",
        0x8843def0621e562c,
    ),
    (
        "xml_error_after_structural_error",
        "Err(Xml(MismatchedTag { open: \"oops\", close: \"sbml\", at: Position { line: 1, column: 84 } }))",
        0,
    ),
    (
        "structural_error",
        "Err(Structure { detail: \"species \\\"A\\\" sets both initialAmount and initialConcentration\" })",
        0,
    ),
    (
        "math_error",
        "Err(Math { context: \"reaction \\\"r\\\" kineticLaw\", source: BadApply { detail: \"<divide> applied to 1 operand(s)\" } })",
        0,
    ),
    (
        "wrong_root",
        "Err(Structure { detail: \"expected <sbml> root, found <html>\" })",
        0,
    ),
    (
        "sbml_without_model",
        "Err(Structure { detail: \"<sbml> has no <model> child\" })",
        0,
    ),
    (
        "prefixed_math_wrapper_is_not_math",
        "Err(Structure { detail: \"algebraicRule: missing <math> child\" })",
        0,
    ),
    (
        "unknown_rule_element",
        "Err(Structure { detail: \"unknown rule element <weirdRule>\" })",
        0,
    ),
    (
        "bad_entity",
        "Err(Xml(BadEntity { entity: \" b\", at: Position { line: 1, column: 15 } }))",
        0,
    ),
];

#[test]
fn odd_documents_parse_and_write_as_pinned() {
    assert_eq!(ODD_DOCS.len(), EXPECTED.len());
    for ((name, doc), (expected_name, debug, written)) in ODD_DOCS.iter().zip(EXPECTED) {
        assert_eq!(name, expected_name);
        let parsed = parse_sbml(doc);
        assert_eq!(format!("{parsed:?}"), *debug, "{name}");
        let digest = parsed.as_ref().map_or(0, |m| fnv(write_sbml(m).as_bytes(), FNV_OFFSET));
        assert_eq!(digest, *written, "{name}");
    }
}
