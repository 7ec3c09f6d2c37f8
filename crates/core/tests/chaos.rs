//! Deterministic chaos suite: seeded fault plans driving the
//! fault-tolerant delivery path end to end.
//!
//! Every scenario is keyed on `WSM_CHAOS_SEED` (default 42) and runs
//! entirely on the virtual clock with each send landed by the
//! publishing thread in post order, so two runs of the same binary
//! produce byte-identical transport traces.
//! The CI chaos job runs this suite twice with `WSM_CHAOS_TRACE`
//! pointing at different files and diffs the exports.

use wsm_eventing::{EventSink, SubscribeRequest, Subscriber, WseVersion};
use wsm_messenger::render::WSM_NS;
use wsm_messenger::{FaultTolerance, MediationStats, Stage, WsMessenger};
use wsm_soap::{Envelope, SoapVersion};
use wsm_transport::{EndpointFaults, FaultPlan, Network};
use wsm_xml::Element;

/// The suite-wide seed: `WSM_CHAOS_SEED` or 42.
fn chaos_seed() -> u64 {
    std::env::var("WSM_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn event(seq: usize) -> Element {
    Element::local("reading").with_attr("seq", seq.to_string())
}

fn seqs_of(received: &[Element]) -> Vec<u64> {
    received
        .iter()
        .map(|e| e.attr("seq").expect("seq attr").parse().expect("numeric"))
        .collect()
}

/// A broker with fault tolerance on and one WSE push subscriber.
fn reliable_broker(net: &Network, seed: u64) -> (WsMessenger, EventSink) {
    let broker = WsMessenger::start(net, "http://broker");
    broker.set_fault_tolerance(Some(FaultTolerance {
        base_backoff_ms: 25,
        max_backoff_ms: 400,
        seed,
        ..FaultTolerance::default()
    }));
    let sink = EventSink::start(net, "http://sink", WseVersion::Aug2004);
    Subscriber::new(net, WseVersion::Aug2004)
        .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
        .expect("subscribe");
    (broker, sink)
}

/// The acceptance scenario: an endpoint dark for 30% of virtual time
/// (300ms out of every 1000ms), 200 sequentially published messages.
/// Every message must eventually arrive, exactly once, in order, with
/// the subscription never evicted.
#[test]
fn flapping_subscriber_receives_every_message_after_recovery() {
    let seed = chaos_seed();
    let net = Network::new();
    net.set_latency_ms(7);
    let (broker, sink) = reliable_broker(&net, seed);
    net.set_fault_plan(FaultPlan::seeded(seed).with_endpoint(
        "http://sink",
        EndpointFaults::new().with_flapping(1000, 300),
    ));

    const N: usize = 200;
    for i in 0..N {
        broker.publish_on("storms", &event(i));
        net.clock().advance_ms(13);
    }
    broker.drain_redeliveries(600_000);

    let seqs = seqs_of(&sink.received());
    assert_eq!(seqs.len(), N, "100% eventual delivery (>= the 99% bar)");
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "exactly once, in publication order"
    );
    assert_eq!(broker.subscription_count(), 1, "zero evictions");
    assert!(sink.ends().is_empty(), "no SubscriptionEnd sent");

    let stats = broker.stats();
    assert_eq!(stats.delivered_wse, N as u64);
    assert_eq!(stats.failed, 0, "nothing dead-lettered");
    assert_eq!(stats.dead_lettered, 0);
    assert!(
        stats.redelivered > 0,
        "the flap forced redeliveries: {stats:?}"
    );
    assert_eq!(broker.redelivery_depth(), 0, "queue fully drained");
    assert_eq!(broker.dead_letter_count(), 0);
}

/// One full chaos run over a two-subscriber scenario mixing every
/// injection kind; returns the transport trace and the final stats.
fn mixed_chaos_run(seed: u64) -> (String, MediationStats) {
    let net = Network::new();
    net.set_latency_ms(5);
    let (broker, flappy) = reliable_broker(&net, seed);
    let lossy = EventSink::start(&net, "http://lossy", WseVersion::Jan2004);
    Subscriber::new(&net, WseVersion::Jan2004)
        .subscribe(broker.uri(), SubscribeRequest::push(lossy.epr()))
        .expect("subscribe lossy");
    net.set_fault_plan(
        FaultPlan::seeded(seed)
            .with_endpoint(
                "http://sink",
                EndpointFaults::new()
                    .with_flapping(800, 240)
                    .with_latency_spikes(90, 3),
            )
            .with_endpoint(
                "http://lossy",
                EndpointFaults::new().with_drop_rate(0.3).with_fault_next(2),
            ),
    );
    for i in 0..60 {
        broker.publish_on("storms", &event(i));
        net.clock().advance_ms(11);
    }
    broker.drain_redeliveries(600_000);
    assert_eq!(flappy.received().len(), 60);
    assert_eq!(lossy.received().len(), 60);
    (net.trace_jsonl(), broker.stats())
}

/// The same seed must reproduce the same trace bit for bit — the
/// property the CI chaos job checks across two whole processes by
/// diffing `WSM_CHAOS_TRACE` exports.
#[test]
fn chaos_trace_is_deterministic() {
    let seed = chaos_seed();
    let (trace_a, stats_a) = mixed_chaos_run(seed);
    let (trace_b, stats_b) = mixed_chaos_run(seed);
    assert_eq!(trace_a, trace_b, "same seed, byte-identical trace");
    assert_eq!(stats_a, stats_b, "same seed, same counters");
    assert!(
        trace_a.lines().count() > 1,
        "delivery records before the trace_dropped trailer"
    );
    if let Ok(path) = std::env::var("WSM_CHAOS_TRACE") {
        std::fs::write(&path, &trace_a).expect("export chaos trace");
    }
}

/// Poison responses burn the small poison budget, land the message in
/// the dead-letter store without evicting the subscriber, and the
/// store is queryable and drainable over the broker-extension SOAP
/// operations.
#[test]
fn poison_messages_dead_letter_and_redeliver_over_soap() {
    let seed = chaos_seed();
    let net = Network::new();
    net.set_latency_ms(3);
    let broker = WsMessenger::start(&net, "http://broker");
    broker.set_fault_tolerance(Some(FaultTolerance {
        base_backoff_ms: 10,
        poison_budget: 2,
        seed,
        ..FaultTolerance::default()
    }));
    let sink = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
        .expect("subscribe");

    // The endpoint answers the next several deliveries with SOAP
    // faults: two strikes exhaust the poison budget.
    net.fault_next("http://sink", 8);
    broker.publish_on("storms", &event(7));
    broker.drain_redeliveries(600_000);

    assert!(sink.received().is_empty());
    assert_eq!(broker.dead_letter_count(), 1);
    assert_eq!(broker.subscription_count(), 1, "poison never evicts");
    let stats = broker.stats();
    assert_eq!(stats.dead_lettered, 1);
    assert_eq!(stats.failed, 1);

    // GetDeadLetters over SOAP: the letter carries its provenance and
    // the undeliverable payload itself.
    let resp = net
        .request(
            "http://broker",
            Envelope::new(SoapVersion::V11).with_body(Element::ns(WSM_NS, "GetDeadLetters", "wsm")),
        )
        .expect("GetDeadLetters");
    let body = resp.body().expect("response body");
    let letters: Vec<&Element> = body
        .children
        .iter()
        .filter_map(|c| c.as_element())
        .filter(|e| e.name.is(WSM_NS, "DeadLetter"))
        .collect();
    assert_eq!(letters.len(), 1);
    let dl = letters[0];
    assert_eq!(dl.attr("Address"), Some("http://sink"));
    assert!(dl.attr("Reason").unwrap().contains("poison"));
    assert!(
        dl.children.iter().any(|c| c.as_element().is_some()),
        "the dead letter embeds the undeliverable payload"
    );

    // Heal the endpoint, requeue the dead letter over SOAP, drain: the
    // message finally arrives and the store empties.
    net.set_fault_plan(FaultPlan::seeded(seed));
    let resp = net
        .request(
            "http://broker",
            Envelope::new(SoapVersion::V11).with_body(Element::ns(
                WSM_NS,
                "RedeliverDeadLetters",
                "wsm",
            )),
        )
        .expect("RedeliverDeadLetters");
    assert_eq!(
        resp.body().and_then(|b| b.attr("Count")),
        Some("1"),
        "one letter requeued"
    );
    broker.drain_redeliveries(600_000);
    assert_eq!(broker.dead_letter_count(), 0);
    let seqs = seqs_of(&sink.received());
    assert_eq!(seqs, vec![7], "the poisoned message finally arrived");
    // The redelivered letter still counts for its consumer's family.
    let stats = broker.stats();
    assert_eq!(stats.delivered_wse, 1);
    assert_eq!(stats.delivered_wsn, 0);
}

/// Breaker, queue-depth, dead-letter, and backoff instruments all
/// surface through the metrics exposition.
#[test]
fn reliability_metrics_appear_in_exposition() {
    let seed = chaos_seed();
    let net = Network::new();
    net.set_latency_ms(3);
    let (broker, sink) = reliable_broker(&net, seed);
    net.drop_next("http://sink", 4);
    broker.publish_on("storms", &event(0));
    assert!(broker.redelivery_depth() > 0, "first attempt was dropped");

    let text = broker.metrics_text();
    for metric in [
        "wsm_redelivery_depth",
        "wsm_breakers_open",
        "wsm_dead_letters_total",
        "wsm_backoff_delay_ms",
    ] {
        assert!(text.contains(metric), "{metric} missing from:\n{text}");
    }
    assert!(
        text.contains("wsm_redelivery_depth 1"),
        "depth gauge reflects the queued message:\n{text}"
    );

    broker.drain_redeliveries(600_000);
    assert_eq!(seqs_of(&sink.received()), vec![0]);
    assert!(broker.metrics_text().contains("wsm_redelivery_depth 0"));
}

mod ordering {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Under any seeded loss profile, every message is delivered
        /// exactly once and per-subscriber order survives redelivery.
        #[test]
        fn redelivery_preserves_order_under_seeded_fault_plans(
            seed in 0u64..1_000_000,
            drop_pct in 0u32..60,
            n in 10usize..40,
        ) {
            let net = Network::new();
            net.set_latency_ms(3);
            let (broker, sink) = reliable_broker(&net, seed);
            net.set_fault_plan(FaultPlan::seeded(seed).with_endpoint(
                "http://sink",
                EndpointFaults::new().with_drop_rate(drop_pct as f64 / 100.0),
            ));
            for i in 0..n {
                broker.publish_on("storms", &event(i));
                net.clock().advance_ms(5);
            }
            broker.drain_redeliveries(600_000);
            let seqs = seqs_of(&sink.received());
            prop_assert_eq!(seqs.len(), n, "every message delivered");
            prop_assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "no duplicates, order preserved: {:?}",
                seqs
            );
            prop_assert_eq!(broker.subscription_count(), 1);
            prop_assert_eq!(broker.stats().failed, 0);
        }
    }
}

/// Engine drain/shutdown under the overlapped path. A seeded churn
/// thread unsubscribes consumers and silently kills their endpoints
/// while a publisher drives the delivery engine (on the 100 µs wire
/// each publication posts its sends and waits for them to land) —
/// every in-flight (event, subscriber) delivery must still
/// reach exactly one terminal `Resolve` outcome: delivered,
/// dead-lettered (endpoint gone), or expired (subscription torn down
/// with messages pending). A lost span or a lost landing wakeup fails
/// (or hangs) this test; the CI chaos job runs it under a job timeout.
#[test]
fn sharded_churn_resolves_every_inflight_delivery() {
    const SINKS: usize = 12;
    const EVENTS: usize = 40;
    let seed = chaos_seed();
    let net = Network::new();
    let broker = WsMessenger::start(&net, "http://broker");
    broker.set_fault_tolerance(Some(FaultTolerance {
        base_backoff_ms: 20,
        max_backoff_ms: 200,
        max_redeliveries: 3,
        seed,
        ..FaultTolerance::default()
    }));
    // Real per-send time so the churn genuinely lands mid-fan-out.
    net.set_send_delay_us(100);

    let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
    let mut sinks = Vec::new();
    let mut handles = Vec::new();
    for i in 0..SINKS {
        let uri = format!("http://churn-sink-{i}");
        let sink = EventSink::start(&net, &uri, WseVersion::Aug2004);
        let handle = subscriber
            .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
            .expect("subscribe");
        sinks.push(sink);
        handles.push((handle, uri));
    }

    let publisher = {
        let broker = broker.clone();
        let net = net.clone();
        std::thread::spawn(move || {
            for i in 0..EVENTS {
                broker.publish_on("storms", &event(i));
                net.clock().advance_ms(7);
            }
        })
    };
    // Seeded LCG decides each victim's fate: unsubscribe (clean
    // teardown → pending deliveries expire) or endpoint vanishing
    // without unsubscribing (dead consumer → dead-letter path).
    let churn = {
        let net = net.clone();
        let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
        std::thread::spawn(move || {
            let mut rng = seed.wrapping_mul(2).wrapping_add(1);
            let mut step = || {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) as usize
            };
            for (k, (handle, uri)) in handles.into_iter().enumerate() {
                std::thread::sleep(std::time::Duration::from_micros(400));
                if k >= SINKS / 2 {
                    continue; // half the consumers stay healthy
                }
                if step() % 3 == 0 {
                    net.unregister(&uri); // dies silently, stays subscribed
                } else {
                    subscriber.unsubscribe(&handle).expect("unsubscribe");
                }
            }
        })
    };
    publisher.join().expect("publisher thread");
    churn.join().expect("churn thread");
    broker.drain_redeliveries(600_000);
    net.set_send_delay_us(0);

    // Healthy consumers saw every event exactly once, in order.
    for sink in &sinks[SINKS / 2..] {
        let seqs = seqs_of(&sink.received());
        assert_eq!(seqs.len(), EVENTS, "healthy consumer got every event");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "in order, no dupes");
    }

    let snap = broker.obs_snapshot();
    assert_eq!(snap.spans_evicted, 0, "ring large enough for the run");
    assert!(
        broker
            .trace_spans()
            .iter()
            .any(|s| s.stage == Stage::Handoff),
        "at least one publication was overlapped"
    );
    let stories = broker.delivery_stories();
    assert!(!stories.is_empty());
    let unresolved: Vec<_> = stories
        .iter()
        .filter(|s| s.outcome.is_none())
        .map(|s| (s.seq, s.subscriber.clone()))
        .collect();
    assert!(
        unresolved.is_empty(),
        "every in-flight delivery reached a terminal outcome, missing: {unresolved:?}"
    );
    assert_eq!(
        stories.len() as u64,
        snap.outcome_delivered + broker.stats().dead_lettered + snap.outcome_expired,
        "outcome counters agree with reconstructed stories"
    );
}
