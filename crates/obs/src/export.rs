//! Exporters: Prometheus-style text exposition, and JSONL for any
//! bounded log ([`Ring`]) — the broker's spans and the network's sends.

use crate::metrics::{Metric, MetricsRegistry};
use crate::span::{Ring, SpanRecord, SpanRing};
use std::fmt::Write as _;

/// Escape `# HELP` text: backslash and newline (quotes are legal
/// there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a registry as Prometheus text exposition.
///
/// Every metric emits a `# TYPE` line, preceded by a `# HELP` line
/// when help text was registered via
/// [`MetricsRegistry::describe`]. Counters and gauges emit a single
/// sample; histograms emit cumulative `_bucket{le="..."}` samples
/// (upper bounds in the histogram's native unit), `_sum`, `_count`,
/// and a `+Inf` bucket.
pub fn prometheus(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, metric) in registry.snapshot() {
        if let Some(help) = registry.help(&name) {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&help));
        }
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", g.get());
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let counts = h.bucket_counts();
                let mut cum = 0u64;
                for (i, c) in counts.iter().enumerate() {
                    cum += c;
                    if i < h.bounds().len() {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", h.bounds()[i]);
                    } else {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                    }
                }
                let _ = writeln!(out, "{name}_sum {}", h.sum());
                let _ = writeln!(out, "{name}_count {}", h.count());
            }
        }
    }
    out
}

/// Append `s` as the inside of a JSON string. A backslash, a line
/// break or any other control character is written as its JSON escape,
/// so a record stays one valid object on one line whatever its strings
/// hold — a send's label and a fault's reason come off the wire. A
/// double quote is written as `'` rather than `\"`, as the transport's
/// trace export always has.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Append each record as `write` writes it, one per line.
fn lines<'a, T: 'a>(
    out: &mut String,
    records: impl IntoIterator<Item = &'a T>,
    mut write: impl FnMut(&mut String, &T),
) {
    for record in records {
        write(out, record);
        out.push('\n');
    }
}

/// A [`Ring`] as JSONL: the held records, oldest first, one per line
/// as `write` writes it, then a trailing gauge line carrying the ring's
/// eviction count — `{"gauge":"<gauge>","value":N}` — so a reader can
/// tell a complete log from a truncated one. The records and the count
/// are read under the ring's lock, so they agree.
pub fn jsonl<T>(ring: &Ring<T>, gauge: &str, write: impl FnMut(&mut String, &T)) -> String {
    ring.read(|records| {
        let mut out = String::with_capacity(records.len() * 96 + 48);
        lines(&mut out, records, write);
        let _ = writeln!(
            out,
            "{{\"gauge\":\"{gauge}\",\"value\":{}}}",
            ring.dropped()
        );
        out
    })
}

/// Append one span as a JSON object.
fn write_span(out: &mut String, span: &SpanRecord) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"stage\":\"{}\",\"at_ms\":{},\"dur_ns\":{},\"items\":{}",
        span.seq,
        span.stage.name(),
        span.at_ms,
        span.dur_ns,
        span.items
    );
    if let Some(sub) = &span.subscriber {
        out.push_str(",\"subscriber\":\"");
        escape_into(out, sub);
        let _ = write!(out, "\",\"attempt\":{}", span.attempt);
    }
    if let Some(o) = span.outcome {
        let _ = write!(out, ",\"outcome\":\"{}\"", o.name());
    }
    out.push('}');
}

/// One span as a single JSON object (no trailing newline).
pub fn span_json(span: &SpanRecord) -> String {
    let mut out = String::new();
    write_span(&mut out, span);
    out
}

/// Spans as JSONL: one JSON object per line.
pub fn spans_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    lines(&mut out, spans, write_span);
    out
}

/// A whole [`SpanRing`] as JSONL ([`jsonl`]), ending with the
/// `{"gauge":"spans_dropped","value":N}` line.
pub fn ring_jsonl(ring: &SpanRing) -> String {
    jsonl(ring, "spans_dropped", write_span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Outcome, Stage, TraceContext};

    #[test]
    fn prometheus_exposition_shapes() {
        let r = MetricsRegistry::new();
        r.counter("a_total").add(3);
        r.describe("a_total", "Things counted so far.");
        r.gauge("b").set(-2);
        let h = r.histogram_with("lat", || vec![10, 100]);
        h.record(5);
        h.record(50);
        h.record(500);
        let text = prometheus(&r);
        assert!(text.contains("# HELP a_total Things counted so far."));
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 3"));
        assert!(text.contains("b -2"));
        assert!(text.contains("lat_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_bucket{le=\"100\"} 2"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_sum 555"));
        assert!(text.contains("lat_count 3"));
    }

    #[test]
    fn jsonl_one_line_per_span() {
        let doc = spans_jsonl(&[
            SpanRecord::new(7, Stage::Deliver, 12, 900, 2),
            SpanRecord::new(8, Stage::Match, 13, 100, 5),
        ]);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"stage\":\"deliver\""));
        assert!(lines[1].contains("\"seq\":8"));
        assert!(doc.ends_with('\n'));
    }

    #[test]
    fn attempt_spans_serialize_causal_fields() {
        let ctx = TraceContext::new(3, "sub-9", 2);
        let span =
            SpanRecord::for_attempt(ctx, Stage::Resolve, 44, 0, 44).with_outcome(Outcome::Expired);
        let line = span_json(&span);
        assert!(line.contains("\"stage\":\"resolve\""));
        assert!(line.contains("\"subscriber\":\"sub-9\""));
        assert!(line.contains("\"attempt\":2"));
        assert!(line.contains("\"outcome\":\"expired\""));
    }

    #[test]
    fn ring_jsonl_reports_span_loss() {
        let ring = SpanRing::new(2);
        for seq in 0..5 {
            ring.push(SpanRecord::new(seq, Stage::Match, 0, 1, 1));
        }
        let doc = ring_jsonl(&ring);
        let last = doc.lines().last().unwrap();
        assert_eq!(last, "{\"gauge\":\"spans_dropped\",\"value\":3}");
        assert_eq!(doc.lines().count(), 3, "2 spans + 1 gauge line");
    }

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn escape_writes_what_the_wire_can_carry_as_escapes() {
        assert_eq!(escaped("a\\b\nc\td\u{1}\u{7f}"), r"a\\b\nc\td\u0001\u007f");
        assert_eq!(escaped("line one\r\nline two"), r"line one\r\nline two");
        assert_eq!(escaped("no \"thanks\""), "no 'thanks'");
        assert_eq!(escaped("wsm-7 ünïcode"), "wsm-7 ünïcode");
    }

    #[test]
    fn a_hostile_subscriber_id_stays_on_its_line() {
        let ring = SpanRing::new(4);
        let ctx = TraceContext::new(1, "a\"b\nc\r", 0);
        ring.push(SpanRecord::for_attempt(ctx, Stage::Retry, 0, 0, 0));
        let doc = ring_jsonl(&ring);
        assert_eq!(doc.lines().count(), 2, "one span + 1 gauge line");
        assert!(
            doc.contains(r#""subscriber":"a'b\nc\r","attempt":0"#),
            "{doc}"
        );
    }
}
