//! Fault-tolerant delivery under a seeded chaos plan, end to end.
//!
//! A broker with the reliability layer switched on faces two badly
//! behaved consumers, and the walkthrough shows each mechanism doing
//! its job:
//!
//! 1. **Redelivery queue + backoff** — a flapping endpoint (dark 300ms
//!    of every virtual second) loses deliveries; instead of evicting
//!    the subscription, the broker parks the messages in a
//!    per-subscriber FIFO and retries on an exponential schedule with
//!    seeded jitter. Every message arrives, exactly once, in order.
//! 2. **Circuit breaker** — consecutive failures trip the breaker
//!    open, so the broker stops hammering a dead endpoint and probes
//!    it half-open on a doubling window instead.
//! 3. **Dead-letter store** — an endpoint that *answers* with SOAP
//!    faults is poison, not an outage; after a small strike budget the
//!    message moves to the dead-letter store, inspectable and
//!    redeliverable over SOAP (`GetDeadLetters` /
//!    `RedeliverDeadLetters` in the broker's extension namespace).
//! 4. **Observability** — breaker state, queue depth, dead letters and
//!    backoff delays all surface in the Prometheus exposition.
//!
//! Everything runs on the virtual clock with a seeded `FaultPlan`, so
//! the run is deterministic: same seed, same trace, same output. The
//! CI chaos job leans on exactly this property.
//!
//! Run with `cargo run --example chaos`.

use ws_messenger_suite::eventing::{EventSink, SubscribeRequest, Subscriber, WseVersion};
use ws_messenger_suite::messenger::{FaultTolerance, WsMessenger};
use ws_messenger_suite::transport::{EndpointFaults, FaultPlan, Network};
use ws_messenger_suite::xml::Element;

fn main() {
    let seed = 42;
    let net = Network::new();
    net.set_latency_ms(5);

    let broker = WsMessenger::start(&net, "http://broker");
    broker.set_fault_tolerance(Some(FaultTolerance {
        base_backoff_ms: 25,
        max_backoff_ms: 400,
        seed,
        ..FaultTolerance::default()
    }));

    // --- Act 1: a flapping consumer -------------------------------
    // Up 700ms, dark 300ms, every virtual second.
    let flappy = EventSink::start(&net, "http://flappy", WseVersion::Aug2004);
    let sub = Subscriber::new(&net, WseVersion::Aug2004);
    let handle = sub
        .subscribe(broker.uri(), SubscribeRequest::push(flappy.epr()))
        .expect("subscribe");
    net.set_fault_plan(FaultPlan::seeded(seed).with_endpoint(
        "http://flappy",
        EndpointFaults::new().with_flapping(1_000, 300),
    ));

    println!("== flapping consumer: 100 messages through 30% downtime ==");
    for seq in 0..100u32 {
        broker.publish_on(
            "storms",
            &Element::local("reading").with_attr("seq", seq.to_string()),
        );
        net.clock().advance_ms(13);
    }
    println!(
        "after the burst: {} queued for redelivery, breaker {:?}",
        broker.redelivery_depth(),
        broker.breaker_state(&handle.id),
    );

    // Walk the virtual clock forward until the queue drains; each step
    // jumps straight to the next due redelivery.
    let report = broker.drain_redeliveries(600_000);
    let seqs: Vec<u64> = flappy
        .received()
        .iter()
        .map(|e| e.attr("seq").unwrap().parse().unwrap())
        .collect();
    println!(
        "drained: {} redelivery attempts, {} delivered, {} requeues along the way",
        report.attempted, report.delivered, report.requeued
    );
    println!(
        "sink saw {} messages, in order: {}, duplicates: {}",
        seqs.len(),
        seqs.windows(2).all(|w| w[0] < w[1]),
        seqs.len() != 100,
    );
    // A drained channel with a re-closed breaker is retired entirely,
    // so the census reports live trouble only — `None` here means
    // "healthy, nothing tracked".
    println!(
        "subscription survived: {} active, breaker {:?}\n",
        broker.subscription_count(),
        broker.breaker_state(&handle.id),
    );

    // --- Act 2: a poison consumer ---------------------------------
    // This endpoint is alive but rejects the message with a SOAP fault
    // every time. That is not an outage to wait out — after
    // `poison_budget` strikes the message is dead-lettered and the
    // subscription (and queue) move on.
    let picky = EventSink::start(&net, "http://picky", WseVersion::Aug2004);
    sub.subscribe(broker.uri(), SubscribeRequest::push(picky.epr()))
        .expect("subscribe");
    net.fault_next("http://picky", 16);

    println!("== poison consumer: SOAP-faulting endpoint ==");
    broker.publish_on(
        "storms",
        &Element::local("reading").with_attr("seq", "poison-1"),
    );
    broker.drain_redeliveries(600_000);
    println!(
        "dead letters after strikes exhausted: {}",
        broker.dead_letter_count()
    );
    for dl in broker.dead_letters() {
        println!(
            "  to {} — {} (poison strikes {}, transient attempts {})",
            dl.address, dl.reason, dl.strikes, dl.attempts
        );
    }

    // Heal the endpoint and requeue the store — the same operation the
    // SOAP `RedeliverDeadLetters` extension performs.
    net.set_fault_plan(FaultPlan::seeded(seed));
    let requeued = broker.redeliver_dead_letters();
    broker.drain_redeliveries(600_000);
    println!(
        "healed and redelivered: {requeued} requeued, sink now holds {}, store holds {}\n",
        picky.received().len(),
        broker.dead_letter_count()
    );

    // --- Act 3: what the metrics saw ------------------------------
    println!("== reliability metrics in the exposition ==");
    for line in broker.metrics_text().lines() {
        if line.contains("wsm_dead_letters")
            || line.contains("wsm_redelivery_depth")
            || line.contains("wsm_breakers_open")
            || line.contains("wsm_backoff_delay_ms_count")
        {
            println!("  {line}");
        }
    }
}
