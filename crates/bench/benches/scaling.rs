//! X-B4b: broker scaling with subscriber count.
//!
//! The paper's §VII goal for WS-Messenger is "a scalable, reliable and
//! efficient WS-based message broker"; this bench sweeps the consumer
//! population and measures per-publication cost, mixing the two spec
//! families half-and-half so every publication exercises mediation.
//!
//! Expectation: cost grows linearly with the number of *matching*
//! subscribers (every delivery is a render + send), and filtering
//! subscribers out (non-matching topic) costs only the filter
//! evaluation.
//!
//! Throughput is measured in two regimes:
//!
//! * **inline** — the seed's zero-cost in-process sends. Here a
//!   delivery is pure CPU and there is no wait to overlap: each send
//!   lands as it is posted, on the publishing thread.
//! * **wire** — each send pays a real 100µs delay
//!   ([`Network::set_send_delay_us`]), modeling the HTTP notification
//!   latency a deployed broker pays. The broker posts every send of a
//!   publication and waits once for the last to land, so a publication
//!   costs about one delay, not one per subscriber.
//!
//! [`Network::set_send_delay_us`]: wsm_transport::Network::set_send_delay_us

use std::hint::black_box;
use wsm_addressing::EndpointReference;
use wsm_bench::{
    broker_with_subscribers as setup, make_event, measure_events_per_sec, stage_breakdowns,
    write_bench_json_full, MatchingSample, StageBreakdown, ThroughputSample,
};
use wsm_eventing::WseVersion;
use wsm_messenger::registry::Registry;
use wsm_messenger::{BrokerDeliveryMode, InternalEvent, SpecDialect, UnifiedFilters};
use wsm_topics::TopicExpression;

/// Per-send wire latency for the `wire` regime, in microseconds.
const WIRE_DELAY_US: u64 = 100;

/// The row label of every throughput sample: one broker, whose
/// fan-out posts every send.
const MODE: &str = "posted";

/// Publications per second at fan-out `n` on a wire of `delay_us`.
fn throughput(n: u64, delay_us: u64) -> f64 {
    let (net, broker) = setup(n as usize, "jobs/status");
    net.set_send_delay_us(delay_us);
    let mut seq = 0u64;
    measure_events_per_sec(1, &mut || {
        seq += 1;
        broker.publish_on("jobs/status", &make_event(seq));
    })
}

/// Per-stage pipeline breakdown from a fixed-publication run at the
/// heaviest grid point (256 subscribers, wire latency).
///
/// The same 96 publications in quick and full mode, measured first in
/// `main` before any grid has run, keep the histogram's composition
/// and the process state identical across both, so the CI gate
/// (`scaling_check`) can compare the fresh quick-mode `deliver` mean
/// against the committed full-mode baseline. Eight warm-up
/// publications with observability off warm the render cache and
/// allocator first, keeping that one-time cost out of the mean.
fn deliver_pass() -> Vec<StageBreakdown> {
    let (net, broker) = setup(256, "jobs/status");
    net.set_send_delay_us(WIRE_DELAY_US);
    broker.set_obs_enabled(false);
    for seq in 0..8 {
        broker.publish_on("jobs/status", &make_event(seq));
    }
    broker.set_obs_enabled(true);
    for seq in 0..96 {
        broker.publish_on("jobs/status", &make_event(seq));
    }
    stage_breakdowns(&broker.obs_snapshot())
}

/// The `deliver` mean of a breakdown, µs.
fn deliver_mean(stages: &[StageBreakdown]) -> f64 {
    (stages.iter())
        .find(|s| s.name == "deliver")
        .map_or(f64::NAN, |s| s.mean_us)
}

/// Of three [`deliver_pass`]es, in quick and full mode alike, the one
/// whose `deliver` mean is the median: one pass's mean spreads about
/// 1.7× on a shared host, wider than the gate's 1.25× bound.
fn deliver_breakdown() -> Vec<StageBreakdown> {
    let mut passes: Vec<Vec<StageBreakdown>> = (0..3).map(|_| deliver_pass()).collect();
    passes.sort_by(|a, b| deliver_mean(a).total_cmp(&deliver_mean(b)));
    passes.swap_remove(1)
}

/// Insert one subscription directly into a registry (bypassing SOAP
/// `Subscribe`, which would dominate setup at the million scale).
fn insert_sub(r: &Registry, filters: UnifiedFilters) {
    r.insert(
        SpecDialect::Wse(WseVersion::Aug2004),
        EndpointReference::new("http://sink"),
        None,
        filters,
        BrokerDeliveryMode::Push,
        false,
        None,
    );
}

fn topic_filters(expr: &str) -> UnifiedFilters {
    UnifiedFilters {
        topics: vec![TopicExpression::concrete(expr).unwrap()],
        content: vec![],
        producer_props: vec![],
    }
}

/// A registry with `matched` subscriptions on the hot topic and
/// `total - matched` on distinct cold topics — the shape where index
/// quality shows: a linear scan pays for every cold subscription,
/// the trie never visits them.
fn matching_registry(total: u64, matched: u64) -> Registry {
    let r = Registry::new();
    for _ in 0..matched {
        insert_sub(&r, topic_filters("hot/t"));
    }
    for i in 0..total - matched {
        insert_sub(&r, topic_filters(&format!("cold/t{i}")));
    }
    r
}

/// Mean `Registry::matching` cost per publication, in nanoseconds.
fn mean_match_ns(registry: &Registry) -> f64 {
    let mut seq = 0u64;
    let eps = measure_events_per_sec(1, &mut || {
        seq += 1;
        let event = InternalEvent::on_topic("hot/t", make_event(seq));
        black_box(registry.matching(&event, None, 0));
    });
    1e9 / eps
}

/// The matching-scaling curve (the tentpole's acceptance numbers):
/// sweep registry size with (a) a fixed matching population and (b) a
/// fixed 1% match rate, plus the seed's 256-subscriber mediation mix,
/// asserting the in-binary budgets so CI fails on an index regression.
fn measure_matching() -> Vec<MatchingSample> {
    let mut out = Vec::new();
    // The 1M point is a dev-machine measurement; CI's quick mode stops
    // at 64k to keep the smoke run in seconds.
    let sizes: &[u64] = if wsm_bench::quick_mode() {
        &[256, 4096, 65536]
    } else {
        &[256, 4096, 65536, 1_048_576]
    };

    let mut fixed64 = std::collections::HashMap::new();
    for &n in sizes {
        let registry = matching_registry(n, 64);
        let mean = mean_match_ns(&registry);
        fixed64.insert(n, mean);
        out.push(MatchingSample {
            scenario: "matching_fixed64".into(),
            param: n,
            matched: 64,
            mean_ns: mean,
        });
    }
    // Budget: with the matching population held constant, growing the
    // cold population 256× may cost at most 3× (the index must not
    // degrade toward a linear scan). The 1µs floor absorbs timer noise
    // on sub-microsecond means.
    let base = fixed64[&256].max(1_000.0);
    let at_64k = fixed64[&65536];
    assert!(
        at_64k <= 3.0 * base,
        "matching_fixed64 regressed: 64k mean {at_64k:.0}ns > 3x 256 mean {base:.0}ns"
    );

    let mut rate = std::collections::HashMap::new();
    for &n in sizes {
        let matched = n / 100;
        let registry = matching_registry(n, matched);
        let mean = mean_match_ns(&registry);
        rate.insert(n, mean / matched as f64);
        out.push(MatchingSample {
            scenario: "matching_rate_1pct".into(),
            param: n,
            matched,
            mean_ns: mean,
        });
    }
    // At a fixed match *rate* total cost necessarily grows with the
    // matched population, so the budget is per matched subscription.
    let base = rate[&256].max(500.0);
    let at_64k = rate[&65536];
    assert!(
        at_64k <= 3.0 * base,
        "matching_rate_1pct regressed: 64k per-match {at_64k:.0}ns > 3x 256 per-match {base:.0}ns"
    );
    // The 1M point (full mode only) gets its own per-match budget. A
    // million-entry registry's tables live far past the last-level
    // cache, so every hash probe is a DRAM (and likely TLB) miss — the
    // old match path paid that *twice* per hit (trie walk, then a
    // separate liveness probe), which is what inflated this point to
    // ~4.8µs per match against a flat ~1µs everywhere smaller. The
    // single-probe rewrite collects the subscription on the first
    // probe; what remains is the one unavoidable miss, budgeted here
    // as ≤ 4× the in-cache 64k per-match cost.
    if let Some(&per_match_1m) = rate.get(&1_048_576) {
        let in_cache = at_64k.max(500.0);
        assert!(
            per_match_1m <= 4.0 * in_cache,
            "matching_rate_1pct regressed at 1M: per-match {per_match_1m:.0}ns > \
             4x 64k per-match {in_cache:.0}ns — is the match path probing twice again?"
        );
    }

    // The seed's mediation population: 128 topicless WSE subscriptions
    // (broadcast placement) + 128 WSN subscriptions on one topic. The
    // seed's linear scan spent 173µs matching a publication here.
    let registry = Registry::new();
    for i in 0..256u64 {
        if i % 2 == 0 {
            insert_sub(&registry, UnifiedFilters::default());
        } else {
            insert_sub(&registry, topic_filters("jobs/status"));
        }
    }
    let mut seq = 0u64;
    let eps = measure_events_per_sec(1, &mut || {
        seq += 1;
        let event = InternalEvent::on_topic("jobs/status", make_event(seq));
        black_box(registry.matching(&event, None, 0));
    });
    let mean = 1e9 / eps;
    assert!(
        mean < 173_000.0,
        "matching_mediation_256 regressed: mean {mean:.0}ns >= seed's 173us"
    );
    out.push(MatchingSample {
        scenario: "matching_mediation_256".into(),
        param: 256,
        matched: 256,
        mean_ns: mean,
    });
    out
}

/// Emit `BENCH_scaling.json`: events/sec against subscriber count, one
/// row per scenario and fan-out, in both the zero-cost
/// `publish_inline` regime and the 100µs-per-send `publish_wire`
/// regime (see the module docs) — plus a per-stage pipeline breakdown
/// from the largest wire-regime population and the subscription-
/// matching scaling curve.
fn main() {
    let stages = deliver_breakdown();
    let mut samples = Vec::new();
    for (scenario, delay_us) in [("publish_inline", 0u64), ("publish_wire", WIRE_DELAY_US)] {
        for n in [1u64, 8, 64, 256] {
            samples.push(ThroughputSample {
                scenario: scenario.into(),
                mode: MODE.into(),
                param: n,
                events_per_sec: throughput(n, delay_us),
            });
        }
    }
    let matching = measure_matching();
    let path = write_bench_json_full("scaling", &samples, &stages, &matching, None);
    println!("wrote {}", path.display());
}
