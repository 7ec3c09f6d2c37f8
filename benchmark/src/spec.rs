//! The benchmark's contract as data: every metric it prints, with
//! unit, better-direction and (end to end) regression bound. The same
//! tables drive the printed result, `compare`, and the test that keeps
//! `BENCHMARK.json` in step with the code.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How the values of the fresh processes of one measurement become
/// the measurement's value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// The median process.
    Median,
    /// The best process. For timings: the host is a shared machine
    /// whose neighbours slow it for seconds at a time and never speed
    /// it up, so the least disturbed of three processes is the best
    /// estimate of the system's own speed, and it takes all three being
    /// disturbed to spoil it.
    Best,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: f64,
    /// How processes are combined (end-to-end metrics only).
    pub combine: Combine,
}

impl MetricDef {
    /// The measurement's value from its processes' values.
    pub fn combined(&self, runs: &[f64]) -> f64 {
        let best = |a: f64, b: f64| match self.better {
            Better::Lower => a.min(b),
            Better::Higher => a.max(b),
        };
        match self.combine {
            Combine::Median => crate::hist::median(runs),
            Combine::Best => runs.iter().copied().reduce(best).unwrap_or(f64::NAN),
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    combine: Combine,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        combine,
    }
}

/// The end-to-end metrics, printed by every workload with `--trace 0`.
///
/// The eleventh end-to-end number, `failed_share`, is 0 on every
/// accepted run, so it travels as the result line's `failed` and
/// `attempted` (and `correct`) instead of as a bounded metric.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Combine::Median),
    e2e(
        "deliveries_per_s",
        "1/s",
        Better::Higher,
        0.25,
        Combine::Best,
    ),
    e2e("publish_p50_us", "us", Better::Lower, 0.25, Combine::Best),
    e2e("publish_p99_us", "us", Better::Lower, 0.25, Combine::Best),
    e2e("delivery_p50_us", "us", Better::Lower, 0.25, Combine::Best),
    e2e("delivery_p99_us", "us", Better::Lower, 0.25, Combine::Best),
    e2e("subscribe_p50_us", "us", Better::Lower, 0.25, Combine::Best),
    e2e(
        "allocs_per_delivery",
        "count",
        Better::Lower,
        0.03,
        Combine::Median,
    ),
    e2e(
        "alloc_bytes_per_delivery",
        "B",
        Better::Lower,
        0.03,
        Combine::Median,
    ),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05, Combine::Median),
];

/// Layers that report `<layer>.ns` and `<layer>.allocs`, self time and
/// self allocations per publication (per operation for the three
/// control layers).
pub const TIMED_LAYERS: [&str; 20] = [
    "xml.parse",
    "xml.write",
    "soap.from_xml",
    "soap.to_xml",
    "soap.xml_len",
    "notification.parse_notify",
    "notification.notify",
    "eventing.notification",
    "core.detect",
    "topics.match",
    "xpath.compile",
    "xpath.eval",
    "core.event",
    "core.registry.match",
    "core.render",
    "transport.send",
    "consumer.handle",
    "core.registry.subscribe",
    "core.registry.renew",
    "core.registry.unsubscribe",
];

/// Layers on the publish path whose self times should add up to the
/// publisher's wall; each also reports `<layer>.share` of that wall.
pub const CHAIN_LAYERS: [&str; 8] = [
    "soap.from_xml",
    "core.detect",
    "notification.parse_notify",
    "core.event",
    "core.registry.match",
    "core.render",
    "transport.send",
    "consumer.handle",
];

/// Layers that run several times per publication and report
/// `<layer>.count` per publication.
pub const COUNTED_LAYERS: [&str; 6] = [
    "soap.xml_len",
    "topics.match",
    "xpath.eval",
    "core.render",
    "transport.send",
    "consumer.handle",
];

/// Per-layer metrics that are not of the `.ns/.allocs/.share/.count`
/// families: `(name, unit, better)`.
pub const OTHER_LAYER_METRICS: [(&str, &str, Better); 16] = [
    ("core.registry.match.matched", "count", Better::Lower),
    ("core.registry.match.ns_2thr", "ns", Better::Lower),
    (
        "core.registry.match.contention_ratio",
        "ratio",
        Better::Lower,
    ),
    ("transport.send.ns_2thr", "ns", Better::Lower),
    ("transport.send.contention_ratio", "ratio", Better::Lower),
    ("core.delivery.residual.ns", "ns", Better::Lower),
    ("core.federation.admit.ns", "ns", Better::Lower),
    ("core.federation.flush_wait.ns", "ns", Better::Lower),
    ("core.federation.queue_depth_max", "count", Better::Lower),
    ("core.federation.shed", "count", Better::Lower),
    ("obs.overhead_share", "ratio", Better::Lower),
    ("ledger.accounted_share", "ratio", Better::Higher),
    ("ledger.unaccounted_share", "ratio", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.spans", "count", Better::Lower),
    ("trace.spans_dropped", "count", Better::Lower),
];

/// Every per-layer metric, printed by every workload with `--trace 1`
/// (0 where a layer does not run in that workload).
pub fn per_layer() -> &'static [MetricDef] {
    static TABLE: std::sync::OnceLock<Vec<MetricDef>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut out = Vec::new();
        let mut push = |name: String, unit: &'static str, better: Better| {
            out.push(MetricDef {
                // Built once; the table lives for the whole process.
                name: Box::leak(name.into_boxed_str()),
                unit,
                better,
                bound: 0.0,
                combine: Combine::Median,
            });
        };
        for layer in TIMED_LAYERS {
            push(format!("{layer}.ns"), "ns", Better::Lower);
            push(format!("{layer}.allocs"), "count", Better::Lower);
        }
        for layer in CHAIN_LAYERS {
            push(format!("{layer}.share"), "ratio", Better::Lower);
        }
        for layer in COUNTED_LAYERS {
            push(format!("{layer}.count"), "count", Better::Lower);
        }
        for (name, unit, better) in OTHER_LAYER_METRICS {
            push(name.to_string(), unit, better);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` at the repository root says exactly what the
    /// code prints.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let str_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").unwrap().items();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "why"), want.why);
            assert!(want.why.len() <= 200 && !want.why.contains('\n'));
        }

        let e2e = doc.get("end_to_end").unwrap().items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "unit"), want.unit);
            assert_eq!(str_of(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
            assert!(want.bound > 0.0 && want.bound <= 0.25);
        }

        let layers = per_layer();
        assert!(layers.len() <= 128);
        let listed = doc.get("per_layer").unwrap().items();
        assert_eq!(listed.len(), layers.len());
        for (got, want) in listed.iter().zip(layers) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "unit"), want.unit);
            assert_eq!(str_of(got, "better"), want.better.as_str());
            assert!(want.name.len() <= 64 && want.unit.len() <= 16);
        }
    }
}
