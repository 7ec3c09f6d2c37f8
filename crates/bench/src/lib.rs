#![warn(missing_docs)]
//! # wsm-bench — benchmark harness support
//!
//! Shared workload generators for the Criterion benches and the
//! table/figure regeneration binaries (`table1`, `table2`, `table3`,
//! `figures`, `msgdiff`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use wsm_eventing::{EventSink, SubscribeRequest, Subscriber, WseVersion};
use wsm_messenger::WsMessenger;
use wsm_notification::{
    NotificationConsumer, WsnClient, WsnFilter, WsnSubscribeRequest, WsnVersion,
};
use wsm_transport::Network;
use wsm_xml::Element;

/// Smoke-test mode: `WSM_BENCH_QUICK=1` shrinks the measurement window
/// so CI can exercise the bench binaries (and their `BENCH_*.json`
/// emission) in seconds. The vendored criterion substitute has no CLI
/// filtering, so the env var is the only knob.
pub fn quick_mode() -> bool {
    std::env::var_os("WSM_BENCH_QUICK").is_some()
}

/// The throughput measurement window: ~200ms normally, ~10ms in
/// [`quick_mode`].
pub fn measure_window() -> Duration {
    if quick_mode() {
        Duration::from_millis(10)
    } else {
        Duration::from_millis(200)
    }
}

// ---------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------

/// A counting wrapper around the system allocator, for the
/// allocation-regression harness (`benches/codec.rs`).
///
/// Install it in a bench binary with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;` and
/// read the counters through [`alloc_counters`] / [`measure_allocs`].
/// Counters are global relaxed atomics, so allocations made on fan-out
/// worker threads are counted too.
pub struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counter updates have
// no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative `(allocations, bytes)` since process start. Only
/// meaningful in binaries that installed [`CountingAlloc`]; elsewhere
/// both stay zero.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Per-operation allocation statistics from [`measure_allocs`].
#[derive(Debug, Clone, Copy)]
pub struct AllocSample {
    /// Heap allocations per operation (allocs + reallocs).
    pub allocs_per_op: f64,
    /// Bytes newly requested per operation.
    pub bytes_per_op: f64,
}

/// Measure a workload's allocation rate: warm up (filling buffer pools
/// and interner tables, which are one-time costs by design), then run
/// `iters` iterations and average the counter deltas.
pub fn measure_allocs(iters: u64, f: &mut dyn FnMut()) -> AllocSample {
    for _ in 0..8 {
        f();
    }
    let (a0, b0) = alloc_counters();
    for _ in 0..iters {
        f();
    }
    let (a1, b1) = alloc_counters();
    AllocSample {
        allocs_per_op: (a1 - a0) as f64 / iters as f64,
        bytes_per_op: (b1 - b0) as f64 / iters as f64,
    }
}

/// A synthetic Grid-monitoring event: `<event sev=".." seq="..">
/// <source>gridftp-N</source><detail>...</detail></event>`.
///
/// The shape matters: it has an attribute the content filters compare
/// (`sev`), a child the string filters search (`source`), and filler
/// so serialized sizes are realistic (a few hundred bytes, like the
/// notification payloads in the paper's Grid scenarios).
pub fn make_event(seq: u64) -> Element {
    Element::local("event")
        .with_attr("sev", ((seq % 7) + 1).to_string())
        .with_attr("seq", seq.to_string())
        .with_child(Element::local("source").with_text(format!("gridftp-{}", seq % 13)))
        .with_child(Element::local("job").with_text(format!("job-{seq}")))
        .with_child(
            Element::local("detail")
                .with_text("transfer completed; bytes=1073741824 duration=42s checksum=ok"),
        )
}

/// Topic names used by topic-based workloads, cycling through a small
/// tree.
pub fn topic_for(seq: u64) -> &'static str {
    const TOPICS: [&str; 6] = [
        "jobs/status",
        "jobs/errors",
        "storms/tornado",
        "storms/hail",
        "transfers/complete",
        "transfers/failed",
    ];
    TOPICS[(seq % 6) as usize]
}

/// One measured throughput point for the machine-readable bench
/// reports (`BENCH_*.json` at the repo root).
pub struct ThroughputSample {
    /// Workload name, e.g. `publish_all_match`.
    pub scenario: String,
    /// Engine configuration, e.g. `sequential` / `parallel`.
    pub mode: String,
    /// The swept parameter (subscriber count, batch size, ...).
    pub param: u64,
    /// Measured throughput.
    pub events_per_sec: f64,
}

/// Measure a workload's throughput: warm up, then time enough
/// iterations to fill ~200ms. `events_per_iter` scales the result for
/// closures that publish several events per call.
pub fn measure_events_per_sec(events_per_iter: u64, f: &mut dyn FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let window = measure_window();
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= window {
            return (iters * events_per_iter) as f64 / elapsed.as_secs_f64();
        }
        iters = iters.saturating_mul(4);
    }
}

/// A broker with `n` push subscribers, half WS-Eventing (topicless)
/// and half WS-Notification filtered on `topic` — the standard
/// mediation population the scaling and observability benches share.
pub fn broker_with_subscribers(n: usize, topic: &str) -> (Network, WsMessenger) {
    let net = Network::new();
    let broker = WsMessenger::start(&net, "http://broker");
    let wse = Subscriber::new(&net, WseVersion::Aug2004);
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    for i in 0..n {
        if i % 2 == 0 {
            let sink = EventSink::start(
                &net,
                format!("http://sink-{i}").as_str(),
                WseVersion::Aug2004,
            );
            wse.subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
                .unwrap();
        } else {
            let c = NotificationConsumer::start(
                &net,
                format!("http://nc-{i}").as_str(),
                WsnVersion::V1_3,
            );
            wsn.subscribe(
                broker.uri(),
                &WsnSubscribeRequest::new(c.epr()).with_filter(WsnFilter::topic(topic)),
            )
            .unwrap();
        }
    }
    (net, broker)
}

/// One pipeline stage's duration statistics for the machine-readable
/// reports, in microseconds.
pub struct StageBreakdown {
    /// Stage name: `publish`, `detect`, `match`, `render`, `deliver` —
    /// or `send_latency` for the per-subscriber delivery histogram.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Mean duration (µs).
    pub mean_us: f64,
    /// Median (µs).
    pub p50_us: f64,
    /// 95th percentile (µs).
    pub p95_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
}

impl StageBreakdown {
    /// Convert one stage's nanosecond histogram stats to the report
    /// shape.
    pub fn from_stats(name: &str, stats: &wsm_messenger::HistogramStats) -> Self {
        StageBreakdown {
            name: name.to_string(),
            count: stats.count,
            mean_us: stats.mean / 1_000.0,
            p50_us: stats.p50 / 1_000.0,
            p95_us: stats.p95 / 1_000.0,
            p99_us: stats.p99 / 1_000.0,
        }
    }
}

/// Every stage of a broker's [`ObsSnapshot`](wsm_messenger::ObsSnapshot)
/// plus the per-subscriber send-latency histogram, as report rows.
pub fn stage_breakdowns(snap: &wsm_messenger::ObsSnapshot) -> Vec<StageBreakdown> {
    let mut out: Vec<StageBreakdown> = snap
        .stages
        .iter()
        .filter(|(_, s)| s.count > 0)
        .map(|(name, s)| StageBreakdown::from_stats(name, s))
        .collect();
    if snap.delivery_latency.count > 0 {
        out.push(StageBreakdown::from_stats(
            "send_latency",
            &snap.delivery_latency,
        ));
    }
    out
}

/// One measured subscription-matching point: mean per-publication
/// match cost at a registry size (the `"matching"` section of
/// `BENCH_scaling.json`).
pub struct MatchingSample {
    /// Workload name, e.g. `matching_fixed64`.
    pub scenario: String,
    /// Registered subscriptions.
    pub param: u64,
    /// How many of them match each publication.
    pub matched: u64,
    /// Mean `Registry::matching` cost per publication, nanoseconds.
    pub mean_ns: f64,
}

/// Serialize samples as `BENCH_<name>.json` at the workspace root so
/// tooling can track bench trends without parsing human-oriented
/// Criterion output.
pub fn write_bench_json(bench: &str, samples: &[ThroughputSample]) -> PathBuf {
    write_bench_json_with_stages(bench, samples, &[], None)
}

/// [`write_bench_json`] plus per-stage duration breakdowns (a
/// `"stages"` object keyed by stage name) and, when measured, the
/// throughput cost of live instrumentation
/// (`"instrumentation_overhead_pct"`).
pub fn write_bench_json_with_stages(
    bench: &str,
    samples: &[ThroughputSample],
    stages: &[StageBreakdown],
    instrumentation_overhead_pct: Option<f64>,
) -> PathBuf {
    write_bench_json_full(bench, samples, stages, &[], instrumentation_overhead_pct)
}

/// [`write_bench_json_with_stages`] plus the subscription-matching
/// scaling curve (a `"matching"` array of
/// `{scenario, param, matched, mean_ns}` rows).
pub fn write_bench_json_full(
    bench: &str,
    samples: &[ThroughputSample],
    stages: &[StageBreakdown],
    matching: &[MatchingSample],
    instrumentation_overhead_pct: Option<f64>,
) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{bench}.json"));
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"bench\": \"{bench}\",\n  \"samples\": [\n"));
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"mode\": \"{}\", \"param\": {}, \"events_per_sec\": {:.1}}}{}\n",
            s.scenario,
            s.mode,
            s.param,
            s.events_per_sec,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    if !stages.is_empty() {
        out.push_str(",\n  \"stages\": {\n");
        for (i, st) in stages.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"mean_us\": {:.2}, \"p50_us\": {:.2}, \"p95_us\": {:.2}, \"p99_us\": {:.2}}}{}\n",
                st.name,
                st.count,
                st.mean_us,
                st.p50_us,
                st.p95_us,
                st.p99_us,
                if i + 1 < stages.len() { "," } else { "" }
            ));
        }
        out.push_str("  }");
    }
    if !matching.is_empty() {
        out.push_str(",\n  \"matching\": [\n");
        for (i, m) in matching.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"param\": {}, \"matched\": {}, \"mean_ns\": {:.0}}}{}\n",
                m.scenario,
                m.param,
                m.matched,
                m.mean_ns,
                if i + 1 < matching.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]");
    }
    if let Some(pct) = instrumentation_overhead_pct {
        out.push_str(&format!(",\n  \"instrumentation_overhead_pct\": {pct:.2}"));
    }
    out.push_str("\n}\n");
    let mut file = std::fs::File::create(&path).expect("create bench json");
    file.write_all(out.as_bytes()).expect("write bench json");
    path
}

/// One `"stages"` row of a `BENCH_*.json` report, as the CI gates
/// read it back.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageRow {
    /// Samples recorded.
    pub count: u64,
    /// Mean duration (µs).
    pub mean_us: f64,
    /// Median (µs).
    pub p50_us: f64,
}

/// The fields of a `BENCH_*.json` report the gate binaries
/// (`scaling_check`, `federation_check`) consume.
#[derive(Debug, Default)]
pub struct BenchReport {
    /// `(scenario, mode, param) → events_per_sec`.
    pub samples: HashMap<(String, String, u64), f64>,
    /// `stage name → {count, mean_us, p50_us}`.
    pub stages: HashMap<String, StageRow>,
    /// Rows in the `"matching"` array.
    pub matching_rows: usize,
}

/// Extract a `"key": "value"` string field from one JSON line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract a `"key": 123.4` numeric field from one JSON line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `"name":` key opening a stage line, e.g. `"deliver": {...}`.
fn str_prefix_key(line: &str) -> Option<String> {
    let rest = line.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Parse the line-oriented report [`write_bench_json_full`] writes (one
/// sample per line, one stage per line). Unknown lines are ignored, so
/// the reader tolerates additive report growth.
pub fn parse_bench_report(text: &str) -> BenchReport {
    let mut report = BenchReport::default();
    let mut in_stages = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("\"stages\"") {
            in_stages = true;
            continue;
        }
        if in_stages {
            if trimmed.starts_with('}') {
                in_stages = false;
                continue;
            }
            if let (Some(name), Some(count)) =
                (str_prefix_key(trimmed), num_field(trimmed, "count"))
            {
                let row = StageRow {
                    count: count as u64,
                    mean_us: num_field(trimmed, "mean_us").unwrap_or(0.0),
                    p50_us: num_field(trimmed, "p50_us").unwrap_or(0.0),
                };
                report.stages.insert(name, row);
            }
            continue;
        }
        if let (Some(scenario), Some(mode), Some(param), Some(eps)) = (
            str_field(trimmed, "scenario"),
            str_field(trimmed, "mode"),
            num_field(trimmed, "param"),
            num_field(trimmed, "events_per_sec"),
        ) {
            report.samples.insert((scenario, mode, param as u64), eps);
        }
        if trimmed.contains("\"mean_ns\"") {
            report.matching_rows += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_vary_and_parse() {
        let a = make_event(1);
        let b = make_event(2);
        assert_ne!(a, b);
        assert!(a.attr("sev").is_some());
        let xml = wsm_xml::to_string(&a);
        assert!(xml.len() > 100, "realistic size, got {}", xml.len());
        assert_eq!(wsm_xml::parse(&xml).unwrap(), a);
    }

    #[test]
    fn topics_cycle() {
        assert_eq!(topic_for(0), topic_for(6));
        assert_ne!(topic_for(0), topic_for(1));
    }

    #[test]
    fn throughput_measurement_is_positive() {
        let mut x = 0u64;
        let eps = measure_events_per_sec(2, &mut || x = x.wrapping_add(1));
        assert!(eps > 0.0);
    }
}
