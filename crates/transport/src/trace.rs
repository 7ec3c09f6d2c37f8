//! Delivery tracing.

use std::fmt::{self, Write as _};

/// What happened to one delivery attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Delivered; for requests, the handler produced a response.
    Delivered,
    /// Dropped by injected loss.
    Dropped,
    /// No endpoint registered at the target URI.
    NoEndpoint,
    /// The endpoint refuses inbound connections (firewalled consumer).
    Refused,
    /// The handler returned a SOAP fault.
    Faulted(String),
}

impl DeliveryOutcome {
    /// A short machine-readable tag (`delivered`, `dropped`,
    /// `no_endpoint`, `refused`, `faulted`).
    pub fn tag(&self) -> &'static str {
        match self {
            DeliveryOutcome::Delivered => "delivered",
            DeliveryOutcome::Dropped => "dropped",
            DeliveryOutcome::NoEndpoint => "no_endpoint",
            DeliveryOutcome::Refused => "refused",
            DeliveryOutcome::Faulted(_) => "faulted",
        }
    }
}

impl fmt::Display for DeliveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryOutcome::Delivered => write!(f, "delivered"),
            DeliveryOutcome::Dropped => write!(f, "dropped"),
            DeliveryOutcome::NoEndpoint => write!(f, "no endpoint"),
            DeliveryOutcome::Refused => write!(f, "refused (firewalled)"),
            DeliveryOutcome::Faulted(r) => write!(f, "faulted: {r}"),
        }
    }
}

/// One traced delivery attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time at delivery (after latency); for a posted send, at
    /// its post.
    pub time_ms: u64,
    /// Target endpoint URI.
    pub to: String,
    /// The `wsa:Action` of the message if one was present (any WSA
    /// version), else the body element's local name.
    pub label: String,
    /// Whether this was a request/response exchange (vs one-way).
    pub two_way: bool,
    /// Outcome.
    pub outcome: DeliveryOutcome,
    /// Name of the thread that made the attempt: the sender of a
    /// blocking send, the poster of a posted one — the publishing or
    /// test thread either way. `(unnamed)` for anonymous threads.
    pub worker: String,
}

impl TraceRecord {
    /// The record as one JSON object (no trailing newline).
    ///
    /// Every field is deterministic for a seeded scenario on the
    /// virtual clock (no wall-clock values), which is what lets the
    /// chaos CI job diff two runs' exports byte for byte.
    ///
    /// The label and a fault's reason come off the wire, so every
    /// string is escaped: a backslash, a line break or any other
    /// control character is written as its JSON escape, and the record
    /// stays one valid object on one line whatever a sender put in its
    /// `wsa:Action`. A double quote is written as `'` rather than
    /// `\"`, as this export always has.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(out, "{{\"time_ms\":{},\"to\":\"", self.time_ms);
        escape_into(&mut out, &self.to);
        out.push_str("\",\"label\":\"");
        escape_into(&mut out, &self.label);
        let _ = write!(
            out,
            "\",\"two_way\":{},\"outcome\":\"{}\"",
            self.two_way,
            self.outcome.tag(),
        );
        if let DeliveryOutcome::Faulted(reason) = &self.outcome {
            out.push_str(",\"reason\":\"");
            escape_into(&mut out, reason);
            out.push('"');
        }
        out.push_str(",\"worker\":\"");
        escape_into(&mut out, &self.worker);
        out.push_str("\"}");
        out
    }
}

/// Append `s` as the inside of a JSON string (see
/// [`TraceRecord::to_json`] for the one non-standard mapping).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push('\''),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_json_is_one_deterministic_object() {
        let r = TraceRecord {
            time_ms: 42,
            to: "http://c".into(),
            label: "urn:go".into(),
            two_way: false,
            outcome: DeliveryOutcome::Faulted("no \"thanks\"".into()),
            worker: "main".into(),
        };
        let json = r.to_json();
        assert_eq!(json, r.to_json());
        assert!(json.starts_with("{\"time_ms\":42,"));
        assert!(json.contains("\"outcome\":\"faulted\""));
        assert!(json.contains("\"reason\":\"no 'thanks'\""));
        assert!(json.ends_with("\"worker\":\"main\"}"));
    }

    #[test]
    fn record_json_escapes_what_the_wire_can_carry() {
        let r = TraceRecord {
            time_ms: 1,
            to: "http://c".into(),
            label: "a\\b\nc\td\u{1}\u{7f}".into(),
            two_way: true,
            outcome: DeliveryOutcome::Faulted("line one\r\nline two".into()),
            worker: "main".into(),
        };
        let json = r.to_json();
        assert!(!json.contains(['\n', '\r', '\t', '\u{1}', '\u{7f}']));
        assert!(
            json.contains(r#""label":"a\\b\nc\td\u0001\u007f""#),
            "{json}"
        );
        assert!(
            json.contains(r#""reason":"line one\r\nline two""#),
            "{json}"
        );
    }

    #[test]
    fn outcome_display() {
        assert_eq!(DeliveryOutcome::Delivered.to_string(), "delivered");
        assert_eq!(
            DeliveryOutcome::Faulted("x".into()).to_string(),
            "faulted: x"
        );
        assert!(DeliveryOutcome::Refused.to_string().contains("firewalled"));
    }
}
