//! Exporters: Prometheus-style text exposition and JSONL span events.

use crate::metrics::{Metric, MetricsRegistry};
use crate::slo::SloReport;
use crate::span::{SpanRecord, SpanRing};
use parking_lot::Mutex;
use std::fmt::Write as _;

/// Escape a Prometheus label *value*: backslash, double quote, and
/// newline must be escaped per the text exposition format.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

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

/// One exposition family of the SLO report: name, help text, and the
/// per-report sample value.
type SloFamily = (&'static str, &'static str, fn(&SloReport) -> String);

/// Render SLO reports as Prometheus text exposition: one family per
/// quantity, one sample per objective labeled `slo="<name>"` (label
/// values escaped).
pub fn slo_prometheus(reports: &[SloReport]) -> String {
    if reports.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let families: [SloFamily; 5] = [
        (
            "wsm_slo_target_ms",
            "Latency target of the objective's quantile, virtual ms.",
            |r| r.target_ms.to_string(),
        ),
        (
            "wsm_slo_latency_ms",
            "Measured end-to-end latency at the objective's quantile, virtual ms.",
            |r| format!("{:.3}", r.measured_ms),
        ),
        (
            "wsm_slo_bad_fraction",
            "Fraction of deliveries in the window that were slow or undelivered.",
            |r| format!("{:.6}", r.bad_fraction),
        ),
        (
            "wsm_slo_burn_rate",
            "Error-budget burn rate (1.0 = burning exactly at budget).",
            |r| format!("{:.6}", r.burn_rate),
        ),
        (
            "wsm_slo_pass",
            "1 when the objective currently holds, 0 when violated.",
            |r| if r.pass { "1" } else { "0" }.to_string(),
        ),
    ];
    for (family, help, value) in families {
        let _ = writeln!(out, "# HELP {family} {}", escape_help(help));
        let _ = writeln!(out, "# TYPE {family} gauge");
        for r in reports {
            let _ = writeln!(
                out,
                "{family}{{slo=\"{}\"}} {}",
                escape_label_value(&r.name),
                value(r)
            );
        }
    }
    out
}

/// One SLO report as a single JSON object (no trailing newline).
pub fn slo_json(r: &SloReport) -> String {
    format!(
        "{{\"slo\":\"{}\",\"quantile\":{},\"target_ms\":{},\"window_ms\":{},\"measured_ms\":{:.3},\"total\":{},\"bad\":{},\"bad_fraction\":{:.6},\"error_budget\":{},\"burn_rate\":{:.6},\"pass\":{}}}",
        escape_json(&r.name),
        r.quantile,
        r.target_ms,
        r.window_ms,
        r.measured_ms,
        r.total,
        r.bad,
        r.bad_fraction,
        r.error_budget,
        r.burn_rate,
        r.pass
    )
}

fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One span as a single JSON object (no trailing newline).
pub fn span_json(span: &SpanRecord) -> String {
    let mut out = format!(
        "{{\"seq\":{},\"stage\":\"{}\",\"at_ms\":{},\"dur_ns\":{},\"items\":{}",
        span.seq,
        span.stage.name(),
        span.at_ms,
        span.dur_ns,
        span.items
    );
    if let Some(w) = &span.worker {
        let _ = write!(out, ",\"worker\":\"{}\"", escape_json(w));
    }
    if let Some(sub) = &span.subscriber {
        let _ = write!(
            out,
            ",\"subscriber\":\"{}\",\"attempt\":{}",
            escape_json(sub),
            span.attempt
        );
    }
    if let Some(o) = span.outcome {
        let _ = write!(out, ",\"outcome\":\"{}\"", o.name());
    }
    out.push('}');
    out
}

/// Spans as JSONL: one JSON object per line.
pub fn spans_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&span_json(s));
        out.push('\n');
    }
    out
}

/// A whole [`SpanRing`] as JSONL: the buffered spans, then a trailing
/// gauge line surfacing how many spans were silently evicted —
/// `{"gauge":"spans_dropped","value":N}` — so downstream consumers can
/// tell a complete trace from a truncated one.
pub fn ring_jsonl(ring: &SpanRing) -> String {
    let mut out = spans_jsonl(&ring.snapshot());
    let _ = writeln!(
        out,
        "{{\"gauge\":\"spans_dropped\",\"value\":{}}}",
        ring.dropped()
    );
    out
}

/// An in-memory JSONL event sink.
///
/// Spans append as serialized lines; [`JsonlSink::dump`] yields the
/// accumulated document and [`JsonlSink::write_to`] streams it to any
/// writer (a file, a socket). The sink takes its own lock per append,
/// so fan-out workers can feed it directly.
#[derive(Debug, Default)]
pub struct JsonlSink {
    lines: Mutex<Vec<String>>,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// Append one span event.
    pub fn push(&self, span: &SpanRecord) {
        self.lines.lock().push(span_json(span));
    }

    /// Append many span events.
    pub fn extend(&self, spans: &[SpanRecord]) {
        let mut lines = self.lines.lock();
        lines.extend(spans.iter().map(span_json));
    }

    /// Append a gauge line (`{"gauge":NAME,"value":V}`), e.g. the
    /// span-loss count accompanying a ring dump.
    pub fn push_gauge(&self, name: &str, value: u64) {
        self.lines.lock().push(format!(
            "{{\"gauge\":\"{}\",\"value\":{value}}}",
            escape_json(name)
        ));
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.lines.lock().len()
    }

    /// Is the sink empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The accumulated JSONL document.
    pub fn dump(&self) -> String {
        let lines = self.lines.lock();
        let mut out = String::new();
        for l in lines.iter() {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Stream the accumulated document to `w` and clear the sink.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        let lines: Vec<String> = std::mem::take(&mut *self.lines.lock());
        for l in lines {
            writeln!(w, "{l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{SloEngine, SloSpec};
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
    fn slo_exposition_escapes_label_values() {
        let engine = SloEngine::new();
        engine.set_objectives(vec![SloSpec::p99("odd\"name\\with\nnoise", 50, 1_000)]);
        engine.observe(0, 5, true);
        let text = slo_prometheus(&engine.reports(10));
        assert!(text.contains("# TYPE wsm_slo_burn_rate gauge"));
        assert!(
            text.contains("{slo=\"odd\\\"name\\\\with\\nnoise\"}"),
            "label value must be escaped: {text}"
        );
        assert!(text.contains("wsm_slo_pass"));
    }

    #[test]
    fn jsonl_one_line_per_span() {
        let sink = JsonlSink::new();
        let mut s = SpanRecord::new(7, Stage::Deliver, 12, 900, 2);
        s.worker = Some("wsm-push-1".into());
        sink.push(&s);
        sink.extend(&[SpanRecord::new(8, Stage::Match, 13, 100, 5)]);
        let doc = sink.dump();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"stage\":\"deliver\""));
        assert!(lines[0].contains("\"worker\":\"wsm-push-1\""));
        assert!(lines[1].contains("\"seq\":8"));
        let mut buf = Vec::new();
        sink.write_to(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), doc);
        assert!(sink.is_empty(), "write_to drains");
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
}
