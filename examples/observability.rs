//! Watching the broker work: causal timelines, end-to-end latency, exports.
//!
//! A fault-tolerant broker feeds a mixed population — healthy
//! consumers plus one that swallows every delivery — and the
//! observability layer answers four questions:
//!
//! 1. **Where does a publication's time go?** Per-stage latency
//!    histograms (publish → match → render → deliver, plus the
//!    retry/dead-letter stages) with p50/p95/p99.
//! 2. **What happened to THIS event?** The span ring is causal, not
//!    just flat: every (event, subscriber) pair reconstructs into a
//!    [`DeliveryStory`] — first attempt, each backed-off retry, the
//!    dead-letter move, and a terminal outcome with true end-to-end
//!    latency (publish → resolution, not publish → first send).
//! 3. **Is the service *good*?** The end-to-end histogram (publish →
//!    terminal outcome, virtual ms) and the outcome counts say how
//!    long delivery took and how much of it got through.
//! 4. **How do I scrape it?** Prometheus text and SOAP (`GetMetrics`
//!    / `GetTrace` in the broker's extension namespace) carry the
//!    same data, span-loss gauge included.
//!
//! Run with `cargo run --example observability`.

use ws_messenger_suite::eventing::{EventSink, SubscribeRequest, Subscriber, WseVersion};
use ws_messenger_suite::messenger::{FaultTolerance, Outcome, WsMessenger};
use ws_messenger_suite::soap::{Envelope, SoapVersion};
use ws_messenger_suite::transport::{EndpointFaults, FaultPlan, Network};
use ws_messenger_suite::xml::Element;

fn main() {
    let net = Network::new();
    net.set_latency_ms(5);
    let broker = WsMessenger::start(&net, "http://broker");
    broker.set_fault_tolerance(Some(FaultTolerance {
        base_backoff_ms: 25,
        max_backoff_ms: 400,
        seed: 7,
        max_redeliveries: 4,
        ..FaultTolerance::default()
    }));

    // Four healthy consumers and one black hole that drops every push.
    let wse = Subscriber::new(&net, WseVersion::Aug2004);
    for i in 0..4 {
        let sink = EventSink::start(&net, &format!("http://sink-{i}"), WseVersion::Aug2004);
        wse.subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
            .unwrap();
    }
    EventSink::start(&net, "http://blackhole", WseVersion::Aug2004);
    wse.subscribe(
        broker.uri(),
        SubscribeRequest::push(ws_messenger_suite::addressing::EndpointReference::new(
            "http://blackhole",
        )),
    )
    .unwrap();
    net.set_fault_plan(FaultPlan::seeded(7).with_endpoint(
        "http://blackhole",
        EndpointFaults::new().with_drop_rate(1.0),
    ));

    net.drain_trace();
    for i in 0..20 {
        broker.publish_on(
            "storms",
            &Element::local("reading").with_attr("n", i.to_string()),
        );
        net.clock().advance_ms(10);
    }
    // Let the redelivery queue run its backoffs to quiescence: every
    // (event, subscriber) pair reaches a terminal outcome.
    broker.drain_redeliveries(600_000);

    // 1. Per-stage latency: where a publication's time goes.
    let snap = broker.obs_snapshot();
    let ledger = broker.stats();
    println!("pipeline stages over {} publications:", ledger.published);
    println!(
        "  {:<12} {:>6} {:>10} {:>10}",
        "stage", "count", "p50 µs", "p99 µs"
    );
    for (name, stats) in &snap.stages {
        if stats.count == 0 {
            continue;
        }
        println!(
            "  {:<12} {:>6} {:>10.2} {:>10.2}",
            name,
            stats.count,
            stats.p50 / 1000.0,
            stats.p99 / 1000.0
        );
    }
    println!();

    // 2. One event's complete delivery story: the black hole's first
    // event retried with backoff until the redelivery budget ran out,
    // then moved to the dead-letter store.
    let stories = broker.delivery_stories();
    let doomed = stories
        .iter()
        .find(|s| s.outcome == Some(Outcome::DeadLettered))
        .expect("the black hole produced a dead letter");
    println!(
        "causal timeline of event #{} → {} (published t={}ms):",
        doomed.seq,
        doomed.subscriber,
        doomed.published_at_ms.unwrap()
    );
    for s in &doomed.spans {
        println!(
            "  t={:>5}ms {:<12} attempt {}{}",
            s.at_ms,
            s.stage.name(),
            s.attempt,
            s.outcome
                .map(|o| format!("  ⇒ {}", o.name()))
                .unwrap_or_default()
        );
    }
    println!(
        "  attempts {:?}, end-to-end {}ms (the retry chain, not the first send)\n",
        doomed.attempts(),
        doomed.e2e_ms().unwrap()
    );

    // 3. End to end: how long each (event, subscriber) pair took from
    // publish to its terminal outcome, and how many got through. The
    // black hole's dead letters sit in the tail, paced by its breaker.
    let e2e = &snap.e2e_latency_ms;
    println!(
        "end-to-end (publish to terminal outcome, {} pairs):",
        e2e.count
    );
    println!(
        "  p50 {:.0}ms, p99 {:.0}ms; {} delivered, {} dead-lettered, {} expired",
        e2e.p50, e2e.p99, snap.outcome_delivered, ledger.dead_lettered, snap.outcome_expired
    );

    // 4. Scraping: the same data over Prometheus text and SOAP.
    let metrics = broker.metrics_text();
    println!("\nselected Prometheus samples:");
    for line in metrics.lines().filter(|l| {
        l.starts_with("wsm_outcome_")
            || l.starts_with("wsm_e2e_latency_ms_count")
            || l.starts_with("wsm_spans_dropped")
    }) {
        println!("  {line}");
    }
    let resp = net
        .request(
            "http://broker",
            Envelope::new(SoapVersion::V11).with_body(Element::ns(
                ws_messenger_suite::messenger::render::WSM_NS,
                "GetTrace",
                "wsm",
            )),
        )
        .unwrap();
    println!(
        "\nGetTrace over SOAP returned {} spans",
        resp.body().unwrap().elements().count()
    );
}
