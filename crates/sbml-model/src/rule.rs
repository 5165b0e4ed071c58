//! Rules: algebraic, assignment and rate rules.

use sbml_math::MathExpr;

/// An SBML rule constraining model variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// `0 = math` — an implicit constraint.
    Algebraic {
        /// The expression equal to zero.
        math: MathExpr,
    },
    /// `variable = math` — holds at all times.
    Assignment {
        /// The determined variable (species, parameter or compartment id).
        variable: String,
        /// The defining expression.
        math: MathExpr,
    },
    /// `d(variable)/dt = math`.
    Rate {
        /// The driven variable.
        variable: String,
        /// The derivative expression.
        math: MathExpr,
    },
}

impl Rule {
    /// The variable determined by this rule, if any.
    pub fn variable(&self) -> Option<&str> {
        match self {
            Rule::Algebraic { .. } => None,
            Rule::Assignment { variable, .. } | Rule::Rate { variable, .. } => Some(variable),
        }
    }

    /// The rule's math.
    pub fn math(&self) -> &MathExpr {
        match self {
            Rule::Algebraic { math } | Rule::Assignment { math, .. } | Rule::Rate { math, .. } => {
                math
            }
        }
    }

    /// Mutable access to the rule's math (for merge-time renaming).
    pub fn math_mut(&mut self) -> &mut MathExpr {
        match self {
            Rule::Algebraic { math } | Rule::Assignment { math, .. } | Rule::Rate { math, .. } => {
                math
            }
        }
    }
}

/// A constraint: a condition that should remain true during simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The condition.
    pub math: MathExpr,
    /// Message shown when violated.
    pub message: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{model_with, reread, structure_error};
    use sbml_math::infix;

    #[test]
    fn rule_round_trips() {
        let m = model_with(|m| {
            m.rules.push(Rule::Algebraic { math: infix::parse("x + y - 10").unwrap() });
            m.rules.push(Rule::Assignment { variable: "x".into(), math: infix::parse("2*y").unwrap() });
            m.rules.push(Rule::Rate { variable: "y".into(), math: infix::parse("-0.1*y").unwrap() });
        });
        assert_eq!(reread(&m), m);
    }

    #[test]
    fn rule_accessors() {
        let r = Rule::Assignment { variable: "x".into(), math: infix::parse("1").unwrap() };
        assert_eq!(r.variable(), Some("x"));
        assert_eq!(r.math(), &sbml_math::MathExpr::num(1.0));
        let a = Rule::Algebraic { math: infix::parse("1").unwrap() };
        assert_eq!(a.variable(), None);
    }

    #[test]
    fn math_mut_allows_rewrite() {
        let mut r = Rule::Rate { variable: "y".into(), math: infix::parse("k*y").unwrap() };
        let mut map = std::collections::HashMap::new();
        map.insert("k".to_owned(), "k_renamed".to_owned());
        *r.math_mut() = sbml_math::rewrite::rename(r.math(), &map);
        assert_eq!(r.math(), &infix::parse("k_renamed*y").unwrap());
    }

    #[test]
    fn constraint_round_trip() {
        let m = model_with(|m| {
            m.constraints.push(Constraint {
                math: infix::parse("S >= 0").unwrap(),
                message: Some("S must stay non-negative".into()),
            });
            m.constraints.push(Constraint { math: infix::parse("x < 10").unwrap(), message: None });
        });
        assert_eq!(reread(&m), m);
    }

    #[test]
    fn unknown_rule_rejected() {
        let detail = structure_error("<listOfRules><weirdRule/></listOfRules>");
        assert_eq!(detail, "unknown rule element <weirdRule>");
    }
}
