//! Discrete events: trigger, optional delay, assignments.

use sbml_math::MathExpr;

/// One variable update fired by an event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventAssignment {
    /// The updated variable id.
    pub variable: String,
    /// The new-value expression, evaluated at firing time.
    pub math: MathExpr,
}

/// A discrete event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Optional id (events may be anonymous in SBML; merging synthesises
    /// ids when needed).
    pub id: Option<String>,
    /// Optional display name.
    pub name: Option<String>,
    /// Boolean trigger expression (fires on false→true transition).
    pub trigger: MathExpr,
    /// Optional delay between trigger and assignment execution.
    pub delay: Option<MathExpr>,
    /// Assignments executed when the event fires.
    pub assignments: Vec<EventAssignment>,
}

impl Event {
    /// An event with the given trigger and no assignments.
    pub fn new(trigger: MathExpr) -> Event {
        Event { id: None, name: None, trigger, delay: None, assignments: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{model_with, reread, structure_error};
    use sbml_math::infix;

    #[test]
    fn event_round_trip() {
        let ev = Event {
            id: Some("e1".into()),
            name: Some("spike".into()),
            trigger: infix::parse("time >= 10").unwrap(),
            delay: Some(infix::parse("2").unwrap()),
            assignments: vec![EventAssignment {
                variable: "A".into(),
                math: infix::parse("A + 100").unwrap(),
            }],
        };
        let m = model_with(|m| m.events.push(ev));
        assert_eq!(reread(&m), m);
    }

    #[test]
    fn minimal_event() {
        let m = model_with(|m| m.events.push(Event::new(infix::parse("x > 1").unwrap())));
        let back = reread(&m);
        assert_eq!(back, m);
        assert!(back.events[0].id.is_none());
        assert!(back.events[0].delay.is_none());
        assert!(back.events[0].assignments.is_empty());
    }

    #[test]
    fn trigger_required() {
        let detail = structure_error(r#"<listOfEvents><event id="e"/></listOfEvents>"#);
        assert_eq!(detail, "event missing <trigger>");
    }
}
