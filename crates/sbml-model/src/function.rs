//! SBML function definitions (named lambdas reusable in model math).

use sbml_math::MathExpr;

/// A function definition: `id(params...) = body`.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDefinition {
    /// Unique id (the call target in math).
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
    /// Parameter names, in order.
    pub params: Vec<String>,
    /// Body expression over the parameters.
    pub body: MathExpr,
}

impl FunctionDefinition {
    /// Define a function from parameter names and a body.
    pub fn new(
        id: impl Into<String>,
        params: Vec<String>,
        body: MathExpr,
    ) -> FunctionDefinition {
        FunctionDefinition { id: id.into(), name: None, params, body }
    }

    /// The lambda form used by the math evaluator.
    pub fn as_lambda(&self) -> MathExpr {
        MathExpr::Lambda { params: self.params.clone(), body: Box::new(self.body.clone()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{model_with, reread, structure_error};
    use sbml_math::infix;

    #[test]
    fn round_trip() {
        let f = FunctionDefinition::new(
            "mm",
            vec!["S".into(), "Vmax".into(), "Km".into()],
            infix::parse("Vmax*S/(Km+S)").unwrap(),
        );
        let m = model_with(|m| m.function_definitions.push(f));
        assert_eq!(reread(&m), m);
    }

    #[test]
    fn lambda_required() {
        let detail = structure_error(
            r#"<listOfFunctionDefinitions><functionDefinition id="f"><math><cn>1</cn></math></functionDefinition></listOfFunctionDefinitions>"#,
        );
        assert_eq!(detail, "functionDefinition \"f\" math must be a <lambda>");
    }

    #[test]
    fn as_lambda_matches_evaluator_expectations() {
        let f = FunctionDefinition::new("sq", vec!["x".into()], infix::parse("x*x").unwrap());
        let env = sbml_math::Env::new().with_function("sq", f.as_lambda());
        let v = sbml_math::evaluate(&infix::parse("sq(4)").unwrap(), &env).unwrap();
        assert_eq!(v, 16.0);
    }
}
