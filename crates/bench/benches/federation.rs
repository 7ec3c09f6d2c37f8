//! X-B6: federation scaling — topic-partitioned broker shards under a
//! Zipf fan-out workload.
//!
//! §VII of the paper argues a single broker is the scalability
//! bottleneck of both specification families; the federation layer
//! partitions the topic space across N in-process shards behind a
//! routing front (`FederatedMessenger`). This bench sweeps the shard
//! count (1/2/4/8) against the subscriber population (10k/100k/1M) and
//! measures end-to-end publication throughput of one publisher in the
//! **wire regime** (100µs per send, the deployed-broker model the
//! scaling bench established).
//!
//! The front hands each publication to its owner shard on the
//! publisher's thread, and the shard posts the publication's 32 sends
//! on that thread's landing, so they overlap: a publication costs about
//! one wire delay plus its match and render, whatever the shard count.
//! So **shard count does not change one publisher's throughput** in
//! this regime; every column of the grid reads about the same. What the
//! grid guards is that throughput (the `federation_check` gate holds
//! every column at or above 4.0× the 1-shard throughput of the
//! buffered links this layer once had) and that matching stays flat in
//! the registry size at every shard count.
//!
//! The workload is **fan-out bound and Zipf skewed**: `subs / 32`
//! topics, exactly 32 push subscribers per topic, and a publication
//! stream whose topic choice is Zipf(1.0)-distributed — hot topics
//! dominate the event stream the way hot job queues dominate a Grid
//! monitoring feed.
//!
//! Per-shard match budgets are asserted in-binary at every grid point:
//! the worst shard's mean `match` stage cost must stay under
//! [`FED_MATCH_BUDGET_NS`] even with a million registered
//! subscriptions, or the bench (and the CI smoke job) fails.

use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_bench::{
    make_event, measure_events_per_sec, stage_breakdowns, write_bench_json_full, MatchingSample,
    StageBreakdown, ThroughputSample,
};
use wsm_eventing::WseVersion;
use wsm_messenger::registry::Registry;
use wsm_messenger::{BrokerDeliveryMode, FederatedMessenger, SpecDialect, UnifiedFilters};
use wsm_soap::{Envelope, Fault};
use wsm_topics::TopicExpression;
use wsm_transport::{Network, SoapHandler};

/// Per-send wire latency, matching the scaling bench's wire regime.
const WIRE_DELAY_US: u64 = 100;

/// Push subscribers per topic — every publication fans out to exactly
/// this many consumers, so the workload is delivery-bound by design.
const MATCHED_PER_TOPIC: u64 = 32;

/// Distinct discarding consumer endpoints the subscriptions cycle
/// through. A shared pool (rather than one endpoint per subscription)
/// keeps the million-subscriber grid point's network table small; the
/// broker's delivery cost does not depend on endpoint identity.
const SINKS: u64 = 64;

/// Publications per measured iteration.
const EVENTS_PER_ITER: u64 = 32;

/// Budget for the worst shard's mean `match`-stage cost, ns, over each
/// grid point's run (one publisher, so no registry-lock waits land in
/// the span). The topic-trie index holds this flat in the
/// registry size; the seed's linear scan paid 173µs at just 256
/// subscriptions and would pay ~0.7s at the million-subscriber grid
/// point.
const FED_MATCH_BUDGET_NS: f64 = 100_000.0;

/// A consumer endpoint that accepts and discards every notification.
struct NullSink;

impl SoapHandler for NullSink {
    fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
        Ok(None)
    }
}

/// Deterministic LCG (same constants as the chaos suites), mapped to
/// uniform f64 in [0, 1).
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// Zipf(s=1) sampler over `n` ranks via inverse CDF lookup.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / (k as f64 + 1.0);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn topic_filters(root: &str) -> UnifiedFilters {
    UnifiedFilters {
        topics: vec![TopicExpression::concrete(root).unwrap()],
        content: vec![],
        producer_props: vec![],
    }
}

/// Insert one push subscription directly into a shard registry —
/// bypassing SOAP `Subscribe`, which would dominate setup at the
/// million scale (the scaling bench seeds its registries the same way).
fn insert_sub(r: &Registry, root: &str, sink: u64) {
    r.insert(
        SpecDialect::Wse(WseVersion::Aug2004),
        EndpointReference::new(format!("http://sink-{sink}")),
        None,
        topic_filters(root),
        BrokerDeliveryMode::Push,
        false,
        None,
    );
}

/// A federation with `subs / 32` topics and exactly 32 subscribers per
/// topic, each placed on the shard the partition rule routes its topic
/// root to (`shard_for_topic` — where a SOAP-routed subscription would
/// land).
fn federation_with_population(net: &Network, shards: usize, subs: u64) -> FederatedMessenger {
    let fed = FederatedMessenger::start(net, "http://fed", shards);
    for i in 0..SINKS {
        net.register(format!("http://sink-{i}"), Arc::new(NullSink));
    }
    let topics = (subs / MATCHED_PER_TOPIC) as usize;
    for t in 0..topics {
        let root = format!("z{t}");
        let registry = fed.shards()[fed.shard_for_topic(&root)].registry();
        for j in 0..MATCHED_PER_TOPIC {
            insert_sub(registry, &root, (t as u64 * MATCHED_PER_TOPIC + j) % SINKS);
        }
    }
    fed
}

/// One grid point: measured events/sec plus the worst shard's mean
/// match cost (ns) and, on request, the stage breakdown (`federate`
/// hop from the front, pipeline stages from shard 0).
fn grid_point(shards: usize, subs: u64, capture_stages: bool) -> (f64, f64, Vec<StageBreakdown>) {
    let net = Network::new();
    let fed = federation_with_population(&net, shards, subs);
    net.set_send_delay_us(WIRE_DELAY_US);

    let topics = (subs / MATCHED_PER_TOPIC) as usize;
    let zipf = Zipf::new(topics);
    // Seed depends only on the population, so every shard count
    // publishes the *same* Zipf event stream.
    let mut rng = Lcg(0x5eed ^ subs);
    let mut seq = 0u64;
    let eps = measure_events_per_sec(EVENTS_PER_ITER, &mut || {
        for _ in 0..EVENTS_PER_ITER {
            seq += 1;
            let t = zipf.sample(rng.next_f64());
            fed.publish_on(&format!("z{t}/readings"), &make_event(seq));
        }
    });
    net.set_send_delay_us(0);

    let mut stages = Vec::new();
    if capture_stages {
        stages = stage_breakdowns(&fed.federation_snapshot());
        stages.extend(stage_breakdowns(&fed.shards()[0].obs_snapshot()));
    }

    let worst_match_ns = (fed.shards().iter())
        .filter_map(|shard| shard.obs_snapshot().stage("match").map(|st| st.mean))
        .fold(0.0f64, f64::max);
    assert!(
        worst_match_ns <= FED_MATCH_BUDGET_NS,
        "per-shard match budget exceeded at {shards} shards / {subs} subs: worst shard mean \
         {worst_match_ns:.0}ns > {FED_MATCH_BUDGET_NS:.0}ns — did the topic index degrade?"
    );
    (eps, worst_match_ns, stages)
}

/// Emit `BENCH_federation.json`: the shards × subscribers throughput
/// grid (scenario `fanout_zipf`, mode `shards-N`, param = subscriber
/// count), the worst-shard match means, and the flagship grid point's
/// stage breakdown. Quick mode trims the grid to the 10k-subscriber
/// column so CI smoke stays in seconds; `federation_check` validates
/// the full committed grid and holds this fresh quick output to the
/// same throughput floor.
fn main() {
    let shard_grid = [1usize, 2, 4, 8];
    let sub_grid: &[u64] = if wsm_bench::quick_mode() {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let flagship = (*shard_grid.last().unwrap(), *sub_grid.last().unwrap());

    let mut samples = Vec::new();
    let mut matching = Vec::new();
    let mut stages = Vec::new();
    for &subs in sub_grid {
        for &shards in &shard_grid {
            let capture = (shards, subs) == flagship;
            let (eps, match_ns, point_stages) = grid_point(shards, subs, capture);
            println!("  fanout_zipf shards-{shards} subs={subs}: {eps:.0} events/sec");
            samples.push(ThroughputSample {
                scenario: "fanout_zipf".into(),
                mode: format!("shards-{shards}"),
                param: subs,
                events_per_sec: eps,
            });
            matching.push(MatchingSample {
                scenario: format!("fed_match_shards{shards}"),
                param: subs,
                matched: MATCHED_PER_TOPIC,
                mean_ns: match_ns,
            });
            if capture {
                stages = point_stages;
            }
        }
    }
    let path = write_bench_json_full("federation", &samples, &stages, &matching, None);
    println!("wrote {}", path.display());
}
