#![warn(missing_docs)]
//! # wsm-workload — the open-workload scenario matrix
//!
//! The paper's evaluation (§VII) drives its brokers with a single
//! closed loop: one publisher, a fixed subscriber population, publish
//! → wait → measure. Real notification traffic is none of those
//! things, and the ROADMAP asks for the matrix this crate provides:
//! seeded, named scenarios that stress the broker the way deployments
//! do — skewed topic popularity, churning subscriber populations,
//! flash-crowd bursts, firewalled pull consumers, mixed-dialect
//! mediation, and the slow/flaky endpoints that drive the PR-3
//! circuit breakers.
//!
//! Every scenario runs on the simulated network's **virtual clock**
//! with a seeded [`rand::StdRng`], so a run is a pure function of
//! `(seed, quick-mode)`. Each scenario names its latency
//! [`Objective`]s as plain data and is *judged*, not just measured:
//! its result carries the end-to-end p50/p95/p99 (publish → terminal
//! resolution, virtual milliseconds) plus one pass/fail [`Verdict`]
//! per objective, all read from the broker's own end-to-end histogram
//! and outcome counts. [`write_workload_json`] serializes the matrix
//! as `BENCH_workload.json` at the repo root, which CI greps.
//!
//! `WSM_BENCH_QUICK=1` shrinks event counts so the matrix finishes in
//! seconds; the scenario *shapes* are identical.

use rand::{Rng, StdRng};
use std::io::Write as _;
use std::path::PathBuf;
use wsm_addressing::EndpointReference;
use wsm_eventing::{DeliveryMode, EventSink, Expires, SubscribeRequest, Subscriber, WseVersion};
use wsm_messenger::{FaultTolerance, WsMessenger};
use wsm_notification::{
    NotificationConsumer, NotificationMessage, WsnClient, WsnCodec, WsnFilter, WsnSubscribeRequest,
    WsnVersion,
};
use wsm_topics::TopicPath;
use wsm_transport::{EndpointFaults, EndpointOptions, FaultPlan, Network};
use wsm_xml::Element;

/// Smoke-test mode: `WSM_BENCH_QUICK=1` shrinks the per-scenario event
/// counts so CI can run the whole matrix in seconds.
pub fn quick_mode() -> bool {
    std::env::var_os("WSM_BENCH_QUICK").is_some()
}

/// Events a scenario publishes: `full` normally, a reduced count in
/// [`quick_mode`].
fn events(full: u64) -> u64 {
    if quick_mode() {
        (full / 10).max(40)
    } else {
        full
    }
}

/// A named latency objective over a scenario's terminal outcomes:
/// the end-to-end `quantile` must be at or under `target_ms`, and at
/// most `budget` of the (event, subscriber) pairs may end undelivered.
#[derive(Debug, Clone, Copy)]
pub struct Objective {
    /// Objective name.
    pub name: &'static str,
    /// The quantile the target applies to (e.g. `0.99`).
    pub quantile: f64,
    /// Latency target, virtual ms.
    pub target_ms: u64,
    /// Allowed undelivered share (dead-lettered or expired).
    pub budget: f64,
}

impl Objective {
    /// Judge the objective against a measured quantile (virtual ms)
    /// and an undelivered share.
    pub fn judge(&self, measured_ms: f64, undelivered: f64) -> Verdict {
        Verdict {
            objective: *self,
            measured_ms,
            bad_fraction: undelivered,
            pass: measured_ms <= self.target_ms as f64 && undelivered <= self.budget,
        }
    }
}

/// One objective's verdict inside a scenario result.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The objective judged.
    pub objective: Objective,
    /// Measured end-to-end quantile, virtual ms.
    pub measured_ms: f64,
    /// Undelivered share: `(dead_lettered + expired) / (delivered +
    /// dead_lettered + expired)`.
    pub bad_fraction: f64,
    /// Did the objective hold?
    pub pass: bool,
}

impl Verdict {
    /// The worse of two verdicts on the same objective: the larger
    /// measurement and share, and a pass only if both passed.
    fn worst(self, other: Verdict) -> Verdict {
        Verdict {
            objective: self.objective,
            measured_ms: self.measured_ms.max(other.measured_ms),
            bad_fraction: self.bad_fraction.max(other.bad_fraction),
            pass: self.pass && other.pass,
        }
    }
}

/// The share of resolved (event, subscriber) pairs that never reached
/// their consumer (0 when nothing resolved).
fn undelivered_share(delivered: u64, dead_lettered: u64, expired: u64) -> f64 {
    let bad = dead_lettered + expired;
    match delivered + bad {
        0 => 0.0,
        total => bad as f64 / total as f64,
    }
}

/// One scenario's judged outcome.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (stable, used by CI grep gates).
    pub name: &'static str,
    /// Publications driven into the broker.
    pub events: u64,
    /// (event, subscriber) pairs terminally resolved as delivered.
    pub delivered: u64,
    /// Pairs resolved by dead-lettering.
    pub dead_lettered: u64,
    /// Pairs abandoned (subscription evicted/unsubscribed).
    pub expired: u64,
    /// End-to-end median, virtual ms.
    pub p50_ms: f64,
    /// End-to-end 95th percentile, virtual ms.
    pub p95_ms: f64,
    /// End-to-end 99th percentile, virtual ms.
    pub p99_ms: f64,
    /// One verdict per objective.
    pub slos: Vec<Verdict>,
}

impl ScenarioResult {
    /// Did every objective hold?
    pub fn all_pass(&self) -> bool {
        self.slos.iter().all(|s| s.pass)
    }

    /// Fold another shard's result into this one: outcome counts sum,
    /// quantiles and verdicts keep the worse of the two.
    fn merge_shard(self, other: ScenarioResult) -> ScenarioResult {
        ScenarioResult {
            delivered: self.delivered + other.delivered,
            dead_lettered: self.dead_lettered + other.dead_lettered,
            expired: self.expired + other.expired,
            p50_ms: self.p50_ms.max(other.p50_ms),
            p95_ms: self.p95_ms.max(other.p95_ms),
            p99_ms: self.p99_ms.max(other.p99_ms),
            slos: (self.slos.into_iter().zip(other.slos))
                .map(|(a, b)| a.worst(b))
                .collect(),
            ..self
        }
    }
}

/// Collect a finished scenario's result off the broker, each
/// objective judged against its end-to-end histogram and outcome
/// counts.
fn judge(
    name: &'static str,
    events: u64,
    broker: &WsMessenger,
    objectives: &[Objective],
) -> ScenarioResult {
    let snap = broker.obs_snapshot();
    let dead_lettered = broker.stats().dead_lettered;
    let undelivered =
        undelivered_share(snap.outcome_delivered, dead_lettered, snap.outcome_expired);
    ScenarioResult {
        name,
        events,
        delivered: snap.outcome_delivered,
        dead_lettered,
        expired: snap.outcome_expired,
        p50_ms: snap.e2e_latency_ms.p50,
        p95_ms: snap.e2e_latency_ms.p95,
        p99_ms: snap.e2e_latency_ms.p99,
        slos: objectives
            .iter()
            .map(|o| o.judge(broker.e2e_quantile_ms(o.quantile), undelivered))
            .collect(),
    }
}

/// An objective: `quantile` of end-to-end latency at or under
/// `target_ms`, at most `budget` undelivered.
const fn objective(name: &'static str, quantile: f64, target_ms: u64, budget: f64) -> Objective {
    Objective {
        name,
        quantile,
        target_ms,
        budget,
    }
}

/// A realistic event payload, distinguishable by sequence number.
fn payload(seq: u64) -> Element {
    Element::local("event")
        .with_attr("seq", seq.to_string())
        .with_child(Element::local("source").with_text(format!("sensor-{}", seq % 17)))
        .with_child(Element::local("detail").with_text("reading committed; checksum=ok"))
}

// --------------------------------------------------------------- zipf

/// An inverse-CDF sampler over Zipf-distributed ranks: rank `i` (of
/// `n`) has weight `1 / (i + 1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Sample a rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= u)
    }
}

// ---------------------------------------------------------- scenarios

/// Skewed topic popularity: 32 topics under a Zipf(1.1) law, WSN
/// subscribers concentrated on the popular topics the same way, every
/// consumer healthy. The baseline the rest of the matrix degrades
/// from.
pub fn zipf_topics(seed: u64) -> ScenarioResult {
    // Fan-out serializes on the virtual clock (each hop advances it),
    // so per-event e2e scales with the matched population.
    const OBJECTIVES: &[Objective] = &[
        objective("zipf_p99_e2e", 0.99, 60, 0.01),
        objective("zipf_p50_e2e", 0.5, 30, 0.01),
    ];
    let net = Network::new();
    net.set_latency_ms(3);
    let broker = WsMessenger::start(&net, "http://broker");
    let mut rng = StdRng::seed_from_u64(seed);
    let topics: Vec<String> = (0..32).map(|i| format!("grid/node-{i}")).collect();
    let zipf = Zipf::new(topics.len(), 1.1);
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    for i in 0..24 {
        let uri = format!("http://consumer-{i}");
        let c = NotificationConsumer::start(&net, &uri, WsnVersion::V1_3);
        let topic = &topics[zipf.sample(&mut rng)];
        wsn.subscribe(
            broker.uri(),
            &WsnSubscribeRequest::new(c.epr()).with_filter(WsnFilter::topic(topic)),
        )
        .expect("subscribe");
    }
    let n = events(2_000);
    for seq in 0..n {
        let topic = &topics[zipf.sample(&mut rng)];
        broker.publish_on(topic, &payload(seq));
        net.clock().advance_ms(1);
    }
    judge("zipf_topics", n, &broker, OBJECTIVES)
}

/// Subscriber churn: a WS-Eventing population where, between
/// publications, random subscribers leave and fresh ones join — the
/// registry, match index, and per-subscriber delivery state never
/// settle.
pub fn subscriber_churn(seed: u64) -> ScenarioResult {
    const OBJECTIVES: &[Objective] = &[objective("churn_p99_e2e", 0.99, 150, 0.02)];
    let net = Network::new();
    net.set_latency_ms(3);
    let broker = WsMessenger::start(&net, "http://broker");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1);
    let sub = Subscriber::new(&net, WseVersion::Aug2004);
    let mut handles = Vec::new();
    let mut next_id = 0u64;
    let mut join = |handles: &mut Vec<_>| {
        let uri = format!("http://churn-{next_id}");
        next_id += 1;
        let sink = EventSink::start(&net, &uri, WseVersion::Aug2004);
        let h = sub
            .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
            .expect("subscribe");
        handles.push((h, sink));
    };
    for _ in 0..16 {
        join(&mut handles);
    }
    let n = events(1_200);
    for seq in 0..n {
        broker.publish_on("grid/jobs", &payload(seq));
        net.clock().advance_ms(2);
        // ~1 churn event per 4 publications, leave/join balanced.
        if rng.gen_bool(0.25) {
            if (rng.gen_bool(0.5) && handles.len() > 4) || handles.len() >= 28 {
                let idx = rng.gen_range(0..handles.len());
                let (h, _sink) = handles.swap_remove(idx);
                sub.unsubscribe(&h).expect("unsubscribe");
            } else {
                join(&mut handles);
            }
        }
    }
    judge("subscriber_churn", n, &broker, OBJECTIVES)
}

/// Flash crowd: a quiet population, then a storm — a tight burst of
/// publications on one hot topic while two consumers suffer injected
/// latency spikes, inflating the tail the p99 objective watches.
pub fn flash_crowd(seed: u64) -> ScenarioResult {
    const OBJECTIVES: &[Objective] = &[
        objective("flash_p99_e2e", 0.99, 250, 0.05),
        // "Even mid-storm, half the fan-out stays timely".
        objective("flash_p50_e2e", 0.5, 150, 0.5),
    ];
    let net = Network::new();
    net.set_latency_ms(2);
    let broker = WsMessenger::start(&net, "http://broker");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2);
    let sub = Subscriber::new(&net, WseVersion::Aug2004);
    let mut sinks = Vec::new();
    for i in 0..32 {
        let uri = format!("http://crowd-{i}");
        let sink = EventSink::start(&net, &uri, WseVersion::Aug2004);
        sub.subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
            .expect("subscribe");
        sinks.push(uri);
    }
    let n = events(600);
    // Calm phase: sparse traffic.
    for seq in 0..n / 3 {
        broker.publish_on("storms/watch", &payload(seq));
        net.clock().advance_ms(20);
    }
    // The storm: every remaining event lands back to back, with two
    // randomly chosen consumers hit by 40ms latency spikes.
    for uri in [
        &sinks[rng.gen_range(0..sinks.len())],
        &sinks[rng.gen_range(0..sinks.len())],
    ] {
        net.latency_spike_next(uri.as_str(), 40, (n / 6) as usize);
    }
    for seq in n / 3..n {
        broker.publish_on("storms/warning", &payload(seq));
    }
    judge("flash_crowd", n, &broker, OBJECTIVES)
}

/// Firewalled pull consumers: subscribers that refuse inbound
/// connections (the paper's motivating case for pull delivery) park
/// events in broker-side queues and poll on an interval — end-to-end
/// latency is dominated by the poll period, which the objective's
/// target acknowledges.
pub fn firewalled_pull(seed: u64) -> ScenarioResult {
    const POLL_MS: u64 = 50;
    // Worst case: published just after a poll, collected ~POLL_MS
    // later (plus hop latency).
    const OBJECTIVES: &[Objective] = &[objective("pull_p99_e2e", 0.99, 2 * POLL_MS, 0.02)];
    let net = Network::new();
    net.set_latency_ms(3);
    let broker = WsMessenger::start(&net, "http://broker");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3);
    let sub = Subscriber::new(&net, WseVersion::Aug2004);
    struct Walled;
    impl wsm_transport::SoapHandler for Walled {
        fn handle(
            &self,
            _req: wsm_soap::Envelope,
        ) -> Result<Option<wsm_soap::Envelope>, wsm_soap::Fault> {
            Ok(None)
        }
    }
    let mut handles = Vec::new();
    for i in 0..8 {
        let uri = format!("http://walled-{i}");
        net.register_with(
            &uri,
            std::sync::Arc::new(Walled),
            EndpointOptions { firewalled: true },
        );
        let h = sub
            .subscribe(
                broker.uri(),
                SubscribeRequest::push(EndpointReference::new(&uri)).with_mode(DeliveryMode::Pull),
            )
            .expect("subscribe");
        handles.push(h);
    }
    let n = events(800);
    let mut published = 0u64;
    let mut collected = 0usize;
    while published < n {
        // A poll period's worth of publications at random offsets…
        let burst = rng.gen_range(1..6).min(n - published);
        for _ in 0..burst {
            broker.publish_on("grid/pull", &payload(published));
            published += 1;
            net.clock().advance_ms(POLL_MS / 8);
        }
        net.clock()
            .advance_ms(POLL_MS - (burst * POLL_MS / 8).min(POLL_MS));
        // …then every consumer polls.
        for h in &handles {
            collected += sub.pull(h, usize::MAX).expect("pull").len();
        }
    }
    for h in &handles {
        collected += sub.pull(h, usize::MAX).expect("pull").len();
    }
    assert_eq!(collected as u64, n * 8, "every queued event was pulled");
    judge("firewalled_pull", n, &broker, OBJECTIVES)
}

/// Mixed dialects: WS-Notification `Notify` traffic fanned out to a
/// half-WSE/half-WSN population, so most deliveries cross
/// specification families and pay the mediation path.
pub fn mixed_dialects(seed: u64) -> ScenarioResult {
    const OBJECTIVES: &[Objective] = &[objective("mixed_p99_e2e", 0.99, 100, 0.01)];
    let net = Network::new();
    net.set_latency_ms(3);
    let broker = WsMessenger::start(&net, "http://broker");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4);
    let sub = Subscriber::new(&net, WseVersion::Aug2004);
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    for i in 0..20 {
        if i % 2 == 0 {
            let sink = EventSink::start(
                &net,
                format!("http://wse-{i}").as_str(),
                WseVersion::Aug2004,
            );
            sub.subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
                .expect("subscribe");
        } else {
            let c = NotificationConsumer::start(
                &net,
                format!("http://wsn-{i}").as_str(),
                WsnVersion::V1_3,
            );
            wsn.subscribe(
                broker.uri(),
                &WsnSubscribeRequest::new(c.epr()).with_filter(WsnFilter::topic("grid/mixed")),
            )
            .expect("subscribe");
        }
    }
    let codec = WsnCodec::new(WsnVersion::V1_3);
    let to = EndpointReference::new(broker.uri());
    let n = events(1_200);
    for seq in 0..n {
        let env = codec.notify(
            &to,
            &[NotificationMessage::new(
                TopicPath::parse("grid/mixed"),
                payload(seq),
            )],
        );
        net.send(broker.uri(), env).expect("notify");
        net.clock().advance_ms(rng.gen_range(1..4));
    }
    judge("mixed_dialects", n, &broker, OBJECTIVES)
}

/// The overlapped delivery path under sustained workload: a mid-size
/// healthy population fanned out over a 50 µs wire, where every
/// publication posts its sends and lands them itself once their delay
/// has passed. The scenario proves two things the unit tests can't:
/// the landing holds up across a thousand consecutive publications on
/// one network, and its judged end-to-end
/// latency stays inside the same envelope sequential delivery meets.
/// Fan-out still serializes on the virtual clock (every hop advances
/// it), so the target scales with the population, not with wall-clock
/// parallelism.
pub fn sharded_fanout(seed: u64) -> ScenarioResult {
    // 32 hops × 3 virtual ms ≈ 96ms worst case for the last
    // subscriber of a publication; 150ms leaves room for hop
    // jitter without ever excusing a stuck shard.
    const OBJECTIVES: &[Objective] = &[objective("sharded_p99_e2e", 0.99, 150, 0.02)];
    let net = Network::new();
    net.set_latency_ms(3);
    let broker = WsMessenger::start(&net, "http://broker");
    net.set_send_delay_us(50);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5);
    let sub = Subscriber::new(&net, WseVersion::Aug2004);
    for i in 0..32 {
        let sink = EventSink::start(
            &net,
            format!("http://shard-{i}").as_str(),
            WseVersion::Aug2004,
        );
        sub.subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
            .expect("subscribe");
    }
    let n = events(1_000);
    for seq in 0..n {
        broker.publish_on("grid/sharded", &payload(seq));
        net.clock().advance_ms(rng.gen_range(1..3));
    }
    let result = judge("sharded_fanout", n, &broker, OBJECTIVES);
    assert_eq!(
        result.delivered,
        n * 32,
        "every (event, subscriber) pair must resolve as delivered"
    );
    result
}

/// Slow and flaky consumers: fault-tolerant delivery against a
/// population where some endpoints drop 30% of traffic, one flaps on
/// a duty cycle, and one answers only SOAP faults — redelivery
/// queues, breakers, and the dead-letter store all engage. The tight
/// objective (and its small budget) is *designed to fail*: the
/// matrix must prove verdicts can go red.
pub fn slow_flaky_consumers(seed: u64) -> ScenarioResult {
    const OBJECTIVES: &[Objective] = &[
        // The tight objective is designed to go red: a 40ms p99 with a
        // 1% budget cannot survive 30% drop rates and breaker trips.
        objective("flaky_p99_e2e", 0.99, 40, 0.01),
        // The generous one asks only for *eventual* delivery: p90
        // within 30 virtual seconds, with up to 30% undelivered.
        objective("flaky_eventual", 0.90, 30_000, 0.30),
    ];
    let net = Network::new();
    net.set_latency_ms(3);
    let broker = WsMessenger::start(&net, "http://broker");
    broker.set_fault_tolerance(Some(FaultTolerance {
        base_backoff_ms: 20,
        max_backoff_ms: 400,
        seed,
        max_redeliveries: 6,
        poison_budget: 2,
        breaker: wsm_messenger::BreakerConfig {
            failure_threshold: 3,
            open_ms: 200,
            max_open_ms: 2_000,
        },
        ..FaultTolerance::default()
    }));
    let sub = Subscriber::new(&net, WseVersion::Aug2004);
    let mut plan = FaultPlan::seeded(seed);
    for i in 0..12 {
        let uri = format!("http://flaky-{i}");
        EventSink::start(&net, &uri, WseVersion::Aug2004);
        match i % 4 {
            // Lossy: drops ~30% of deliveries.
            0 | 2 => {
                plan = plan.with_endpoint(&uri, EndpointFaults::new().with_drop_rate(0.3));
            }
            // Flapping: dark 200ms out of every 800ms.
            1 => {
                plan = plan.with_endpoint(&uri, EndpointFaults::new().with_flapping(800, 200));
            }
            // Healthy.
            _ => {}
        }
        sub.subscribe(
            broker.uri(),
            SubscribeRequest::push(EndpointReference::new(&uri)),
        )
        .expect("subscribe");
    }
    // The poison endpoint: alive, but faults every request.
    let poison_uri = "http://flaky-poison";
    EventSink::start(&net, poison_uri, WseVersion::Aug2004);
    plan = plan.with_endpoint(poison_uri, EndpointFaults::new().with_fault_next(u32::MAX));
    sub.subscribe(
        broker.uri(),
        SubscribeRequest::push(EndpointReference::new(poison_uri)),
    )
    .expect("subscribe");
    net.set_fault_plan(plan);

    let n = events(400);
    for seq in 0..n {
        broker.publish_on("grid/flaky", &payload(seq));
        net.clock().advance_ms(5);
        if seq % 16 == 15 {
            // Let backoffs land while traffic continues.
            broker.drain_redeliveries(200);
        }
    }
    // Drain to quiescence so every (event, subscriber) pair reaches a
    // terminal outcome — poison probes are gated by their breaker's
    // open window, so this can span many virtual minutes.
    for _ in 0..20 {
        if broker.redelivery_depth() == 0 {
            break;
        }
        broker.drain_redeliveries(600_000);
    }
    judge("slow_flaky_consumers", n, &broker, OBJECTIVES)
}

/// Wrapped-batch consumers: the whole population subscribes in
/// WS-Eventing `Wrap` delivery mode, so the broker parks every matched
/// event in per-subscriber wrap buffers and a periodic
/// [`WsMessenger::flush_wrapped`] ships them as one `<wse:Notifications>`
/// batch per consumer — the same wrapper the federation layer rides
/// between shards. End-to-end latency is dominated by the flush
/// period, which the objective's target acknowledges (the worst-placed
/// event waits out the full buffer window before its batch departs).
pub fn wrapped_batch(seed: u64) -> ScenarioResult {
    // Eight 2ms-spaced publications buffer between flushes (~16ms of
    // hold for the worst-placed event), and each flush ships sixteen
    // consumer batches over a 3ms wire, so the tail rides the full
    // buffer window plus the fan-out of its own flush.
    const FLUSH_EVERY: u64 = 8;
    const OBJECTIVES: &[Objective] = &[
        objective("wrapped_p99_e2e", 0.99, 80, 0.02),
        // A median objective: half the population rides out the full
        // buffer window.
        objective("wrapped_p50_e2e", 0.5, 45, 0.5),
    ];
    let net = Network::new();
    net.set_latency_ms(3);
    let broker = WsMessenger::start(&net, "http://broker");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6);
    let sub = Subscriber::new(&net, WseVersion::Aug2004);
    const CONSUMERS: u64 = 16;
    for i in 0..CONSUMERS {
        let sink = EventSink::start(
            &net,
            format!("http://wrapped-{i}").as_str(),
            WseVersion::Aug2004,
        );
        sub.subscribe(
            broker.uri(),
            SubscribeRequest::push(sink.epr()).with_mode(DeliveryMode::Wrapped),
        )
        .expect("subscribe");
    }
    let n = events(1_200);
    let mut batches = 0usize;
    for seq in 0..n {
        broker.publish_on("grid/batched", &payload(seq));
        net.clock().advance_ms(rng.gen_range(1..4));
        if seq % FLUSH_EVERY == FLUSH_EVERY - 1 {
            batches += broker.flush_wrapped();
        }
    }
    batches += broker.flush_wrapped();
    assert!(
        batches as u64 >= n / FLUSH_EVERY,
        "wrap buffers flushed as batches throughout the run"
    );
    let result = judge("wrapped_batch", n, &broker, OBJECTIVES);
    assert_eq!(
        result.delivered,
        n * CONSUMERS,
        "every buffered (event, subscriber) pair left in a batch"
    );
    result
}

/// Renewal and expiry churn: short-lived WS-Eventing subscriptions
/// whose holders keep some alive with `Renew` while the rest lapse
/// mid-publication and are reaped by the registry's expiry sweep (the
/// deadline heap, not a registry scan), with fresh joins replacing the
/// dead — the management plane the other scenarios never exercise
/// while traffic is flowing.
pub fn renewal_churn(seed: u64) -> ScenarioResult {
    const OBJECTIVES: &[Objective] = &[objective("renewal_p99_e2e", 0.99, 120, 0.02)];
    let net = Network::new();
    net.set_latency_ms(3);
    let broker = WsMessenger::start(&net, "http://broker");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7);
    let sub = Subscriber::new(&net, WseVersion::Aug2004);
    let mut created = 0u64;
    let mut join = |handles: &mut Vec<_>| {
        let uri = format!("http://leased-{created}");
        let sink = EventSink::start(&net, &uri, WseVersion::Aug2004);
        created += 1;
        // Leases are short relative to the run (~2.4s of virtual time),
        // so an unrenewed subscription lapses mid-traffic.
        let lease = Expires::Duration(80 + (created % 5) * 30);
        let h = sub
            .subscribe(
                broker.uri(),
                SubscribeRequest::push(sink.epr()).with_expires(lease),
            )
            .expect("subscribe");
        handles.push((h, sink));
    };
    let mut handles = Vec::new();
    for _ in 0..16 {
        join(&mut handles);
    }
    let n = events(1_000);
    for seq in 0..n {
        broker.publish_on("grid/leased", &payload(seq));
        net.clock().advance_ms(rng.gen_range(1..4));
        // Renew a random half of the population's leases each beat;
        // the unlucky half drifts toward expiry. A renewal that races
        // the reaper loses cleanly (the manager faults on an unknown
        // subscription), and the holder rejoins like any new
        // subscriber would.
        if seq % 8 == 7 {
            handles.retain(|(h, _sink)| {
                !rng.gen_bool(0.5) || sub.renew(h, Some(Expires::Duration(200))).is_ok()
            });
            while handles.len() < 16 {
                join(&mut handles);
            }
        }
    }
    assert!(
        (broker.subscription_count() as u64) < created,
        "unrenewed leases expired during the run ({created} created)"
    );
    judge("renewal_churn", n, &broker, OBJECTIVES)
}

/// The federation under an open workload at population scale: a
/// 100 000-subscriber registry spread across 8 topic-sharded brokers
/// behind a [`wsm_messenger::FederatedMessenger`] front, a Zipf(1.1)
/// publication stream handed to each event's owner shard on the
/// publisher's thread, and every shard's end-to-end tail judged against
/// the same objectives. The scenario proves the federation at a scale
/// its unit tests never reach: every publication must fan out to its
/// topic's full 32-subscriber population on the owning shard, with
/// nothing left queued between the front and the shards at the end of
/// the run.
pub fn federated_zipf(seed: u64) -> ScenarioResult {
    const SHARDS: usize = 8;
    const SUBSCRIBERS: u64 = 100_000;
    const MATCHED_PER_TOPIC: u64 = 32;
    /// Shared discarding endpoints the population cycles through (the
    /// shards' delivery cost does not depend on endpoint identity).
    const SINK_POOL: u64 = 64;
    struct Discard;
    impl wsm_transport::SoapHandler for Discard {
        fn handle(
            &self,
            _req: wsm_soap::Envelope,
        ) -> Result<Option<wsm_soap::Envelope>, wsm_soap::Fault> {
            Ok(None)
        }
    }
    // Each hop advances the virtual clock 1 ms, so the last of a
    // publication's 32 deliveries resolves about 32 ms after its
    // ingest.
    const OBJECTIVES: &[Objective] = &[
        objective("federated_p99_e2e", 0.99, 400, 0.02),
        objective("federated_p50_e2e", 0.5, 200, 0.5),
    ];
    let net = Network::new();
    net.set_latency_ms(1);
    let fed = wsm_messenger::FederatedMessenger::start(&net, "http://fed", SHARDS);
    for i in 0..SINK_POOL {
        net.register(
            format!("http://fsink-{i}"),
            std::sync::Arc::new(Discard) as std::sync::Arc<dyn wsm_transport::SoapHandler>,
        );
    }
    // Seed the registries directly (SOAP `Subscribe` at 100k would
    // dominate the scenario), each subscription on the shard the
    // partition rule routes its topic root to — exactly where a routed
    // subscription would land.
    let topics = (SUBSCRIBERS / MATCHED_PER_TOPIC) as usize;
    for t in 0..topics {
        let root = format!("fz{t}");
        let registry = fed.shards()[fed.shard_for_topic(&root)].registry();
        for j in 0..MATCHED_PER_TOPIC {
            registry.insert(
                wsm_messenger::SpecDialect::Wse(WseVersion::Aug2004),
                EndpointReference::new(format!(
                    "http://fsink-{}",
                    (t as u64 * MATCHED_PER_TOPIC + j) % SINK_POOL
                )),
                None,
                wsm_messenger::UnifiedFilters {
                    topics: vec![wsm_topics::TopicExpression::concrete(&root).expect("topic")],
                    content: vec![],
                    producer_props: vec![],
                },
                wsm_messenger::BrokerDeliveryMode::Push,
                false,
                None,
            );
        }
    }
    assert_eq!(fed.subscription_count() as u64, SUBSCRIBERS);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x8);
    let zipf = Zipf::new(topics, 1.1);
    let n = events(2_000);
    for seq in 0..n {
        let t = zipf.sample(&mut rng);
        fed.publish_on(&format!("fz{t}/readings"), &payload(seq));
        net.clock().advance_ms(1);
    }
    assert_eq!(
        fed.link_queue_depth(),
        0,
        "nothing queued between front and shards"
    );

    // Judge across the shards: outcomes sum; for the latency quantiles
    // the scenario reports the *worst* shard (the tail the objectives
    // exist to catch). Each shard is judged on its own traffic, so a
    // verdict aggregates as all-shards-must-pass with the worst
    // measured quantile and undelivered share.
    let result = fed
        .shards()
        .iter()
        .map(|s| judge("federated_zipf", n, s, OBJECTIVES))
        .reduce(ScenarioResult::merge_shard)
        .expect("at least one shard");
    assert_eq!(
        result.delivered,
        n * MATCHED_PER_TOPIC,
        "every publication fanned out to its topic's full population"
    );
    result
}

/// Run the whole matrix under one seed, in a stable order.
pub fn run_matrix(seed: u64) -> Vec<ScenarioResult> {
    vec![
        zipf_topics(seed),
        subscriber_churn(seed),
        flash_crowd(seed),
        firewalled_pull(seed),
        mixed_dialects(seed),
        sharded_fanout(seed),
        slow_flaky_consumers(seed),
        wrapped_batch(seed),
        renewal_churn(seed),
        federated_zipf(seed),
    ]
}

// ------------------------------------------------------------- report

/// Render the matrix report: a `"scenarios"` array of `{name, events,
/// delivered, dead_lettered, expired, e2e_ms, slo}` rows.
pub fn render_workload_json(seed: u64, results: &[ScenarioResult]) -> String {
    let mut out = String::from("{\n  \"bench\": \"workload\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"delivered\": {}, \"dead_lettered\": {}, \"expired\": {},\n",
            r.name, r.events, r.delivered, r.dead_lettered, r.expired
        ));
        out.push_str(&format!(
            "     \"e2e_ms\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}},\n",
            r.p50_ms, r.p95_ms, r.p99_ms
        ));
        out.push_str("     \"slo\": [\n");
        for (j, s) in r.slos.iter().enumerate() {
            out.push_str(&format!(
                "       {{\"name\": \"{}\", \"quantile\": {}, \"target_ms\": {}, \"budget\": {}, \"measured_ms\": {:.1}, \"bad_fraction\": {:.4}, \"pass\": {}}}{}\n",
                s.objective.name,
                s.objective.quantile,
                s.objective.target_ms,
                s.objective.budget,
                s.measured_ms,
                s.bad_fraction,
                s.pass,
                if j + 1 < r.slos.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "     ]}}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serialize the matrix as `BENCH_workload.json` at the repo root.
pub fn write_workload_json(seed: u64, results: &[ScenarioResult]) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_workload.json");
    let out = render_workload_json(seed, results);
    let mut file = std::fs::File::create(&path).expect("create BENCH_workload.json");
    file.write_all(out.as_bytes())
        .expect("write BENCH_workload.json");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let zipf = Zipf::new(16, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 16];
        for _ in 0..4_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[8] && counts[0] > counts[15]);
        assert!(counts.iter().sum::<u64>() == 4_000);
    }

    #[test]
    fn a_verdict_goes_red_on_latency_or_on_loss() {
        let o = objective("p99", 0.99, 40, 0.01);
        // At or under both bounds: green.
        assert!(o.judge(40.0, 0.01).pass);
        assert!(o.judge(3.0, 0.0).pass);
        // The quantile over its target: red, whatever the loss.
        assert!(!o.judge(40.5, 0.0).pass);
        // The undelivered share over its budget: red, however fast.
        assert!(!o.judge(3.0, 0.011).pass);

        // The share counts dead letters and expiries against every
        // resolved pair.
        assert_eq!(undelivered_share(0, 0, 0), 0.0);
        assert_eq!(undelivered_share(97, 2, 1), 0.03);
        let v = o.judge(3.0, undelivered_share(99, 1, 0));
        assert!(v.pass && v.bad_fraction == 0.01);
        assert!(!o.judge(3.0, undelivered_share(98, 1, 1)).pass);
    }
}
