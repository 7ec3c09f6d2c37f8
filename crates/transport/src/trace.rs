//! Delivery tracing: the one record of a send attempt.
//!
//! The trace ring stores [`TraceRecord`]s and readers get the same
//! records back: their strings are shared handles (`ThinStr`),
//! their outcome is one byte, so recording a delivered send allocates
//! nothing and reading the ring only bumps reference counts.

use std::borrow::Borrow;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;
use wsm_obs::export::escape_into;

/// What happened to one delivery attempt. A fault's reason is kept in
/// the record beside it ([`TraceRecord::reason`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    Faulted,
}

impl DeliveryOutcome {
    /// A short machine-readable tag (`delivered`, `dropped`,
    /// `no_endpoint`, `refused`, `faulted`).
    pub fn tag(self) -> &'static str {
        match self {
            DeliveryOutcome::Delivered => "delivered",
            DeliveryOutcome::Dropped => "dropped",
            DeliveryOutcome::NoEndpoint => "no_endpoint",
            DeliveryOutcome::Refused => "refused",
            DeliveryOutcome::Faulted => "faulted",
        }
    }
}

/// A shared string behind one thin pointer — half the size of an
/// `Arc<str>` — for the trace record's strings and the endpoint table
/// keys they share. It hashes and compares as the `str` it holds, so
/// the table is looked up by `&str`.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct ThinStr(pub(crate) Arc<String>);

impl From<&str> for ThinStr {
    fn from(s: &str) -> Self {
        ThinStr(Arc::new(s.to_string()))
    }
}

impl Deref for ThinStr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for ThinStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl Hash for ThinStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        str::hash(&self.0, state);
    }
}

impl fmt::Debug for ThinStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        str::fmt(&self.0, f)
    }
}

thread_local! {
    /// This thread's name, as the trace attributes deliveries to it.
    static WORKER: ThinStr = ThinStr::from(std::thread::current().name().unwrap_or("(unnamed)"));
}

/// One traced delivery attempt, as the trace ring stores it and as
/// every reader gets it. `to` is the endpoint table's own key, `label`
/// comes from a per-thread cache of the labels that thread sent,
/// `worker` is a per-thread handle on the thread's name; only a fault's
/// reason, off the delivered path, is allocated per record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    pub(crate) time_ms: u64,
    pub(crate) to: ThinStr,
    pub(crate) label: ThinStr,
    pub(crate) worker: ThinStr,
    /// A fault's reason; `None` for every other outcome.
    pub(crate) reason: Option<ThinStr>,
    pub(crate) outcome: DeliveryOutcome,
    pub(crate) two_way: bool,
}

// A busy broker fills the ring: at the trace's 8 192 records every
// byte of the record is 8 KiB of resident memory.
const _: () = assert!(std::mem::size_of::<TraceRecord>() <= 48);

impl TraceRecord {
    /// A record of an attempt made on this thread at virtual time
    /// `time_ms`, delivered until the network says otherwise.
    pub(crate) fn stamp(time_ms: u64, to: ThinStr, label: ThinStr, two_way: bool) -> Self {
        TraceRecord {
            time_ms,
            to,
            label,
            worker: WORKER
                .try_with(ThinStr::clone)
                .unwrap_or_else(|_| ThinStr::from("(exiting)")),
            reason: None,
            outcome: DeliveryOutcome::Delivered,
            two_way,
        }
    }

    /// Virtual time at delivery (after latency); for a posted send, at
    /// its post.
    pub fn time_ms(&self) -> u64 {
        self.time_ms
    }

    /// Target endpoint URI.
    pub fn to(&self) -> &str {
        &self.to
    }

    /// The `wsa:Action` of the message if one was present (any WSA
    /// version), else the body element's local name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether this was a request/response exchange (vs one-way).
    pub fn two_way(&self) -> bool {
        self.two_way
    }

    /// What happened to the attempt.
    pub fn outcome(&self) -> DeliveryOutcome {
        self.outcome
    }

    /// The SOAP fault's reason when the outcome is
    /// [`DeliveryOutcome::Faulted`], else `None`.
    pub fn reason(&self) -> Option<&str> {
        self.reason.as_deref()
    }

    /// Name of the thread that made the attempt: the sender of a
    /// blocking send, the poster of a posted one — the publishing or
    /// test thread either way. `(unnamed)` for anonymous threads.
    pub fn worker(&self) -> &str {
        &self.worker
    }

    /// Append the record to `out` as one JSON object (no trailing
    /// newline).
    ///
    /// Every field is deterministic for a seeded scenario on the
    /// virtual clock (no wall-clock values), which is what lets the
    /// chaos suite pin a run's export against a golden file.
    ///
    /// The label and a fault's reason come off the wire, so every
    /// string goes through `wsm_obs::export::escape_into`: the record
    /// stays one valid object on one line whatever a sender put in its
    /// `wsa:Action`.
    pub(crate) fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"time_ms\":{},\"to\":\"", self.time_ms);
        escape_into(out, &self.to);
        out.push_str("\",\"label\":\"");
        escape_into(out, &self.label);
        let _ = write!(
            out,
            "\",\"two_way\":{},\"outcome\":\"{}\"",
            self.two_way,
            self.outcome.tag(),
        );
        if let Some(reason) = &self.reason {
            out.push_str(",\"reason\":\"");
            escape_into(out, reason);
            out.push('"');
        }
        out.push_str(",\"worker\":\"");
        escape_into(out, &self.worker);
        out.push_str("\"}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A faulted record of a one-way send to `http://c` made by `main`.
    fn faulted(time_ms: u64, label: &str, reason: &str) -> TraceRecord {
        TraceRecord {
            reason: Some(ThinStr::from(reason)),
            outcome: DeliveryOutcome::Faulted,
            worker: ThinStr::from("main"),
            ..TraceRecord::stamp(
                time_ms,
                ThinStr::from("http://c"),
                ThinStr::from(label),
                false,
            )
        }
    }

    fn json_of(r: &TraceRecord) -> String {
        let mut out = String::new();
        r.write_json(&mut out);
        out
    }

    #[test]
    fn record_json_is_one_deterministic_object() {
        let r = faulted(42, "urn:go", "no \"thanks\"");
        let json = json_of(&r);
        assert_eq!(json, json_of(&r));
        assert!(json.starts_with("{\"time_ms\":42,"));
        assert!(json.contains("\"outcome\":\"faulted\""));
        assert!(json.contains("\"reason\":\"no 'thanks'\""));
        assert!(json.ends_with("\"worker\":\"main\"}"));
    }

    #[test]
    fn record_json_escapes_what_the_wire_can_carry() {
        let r = TraceRecord {
            two_way: true,
            ..faulted(1, "a\\b\nc\td\u{1}\u{7f}", "line one\r\nline two")
        };
        let json = json_of(&r);
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
}
