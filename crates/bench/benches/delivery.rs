//! X-B3: delivery-mode comparison.
//!
//! Both spec families offer push, pull and wrapped delivery (Table 1);
//! this bench measures the per-event cost of each through a WS-Eventing
//! source, with wrapped mode swept over batch sizes — quantifying the
//! batching amortization that motivates the mode ("pack several
//! notification messages into one message for efficient delivery",
//! paper §V.3).
//!
//! Expectation: wrapped-64 < wrapped-8 < push per event (amortized
//! envelope overhead); a pull round-trip of 8 events pays one poll
//! exchange per eight enqueues.
//!
//! A plain `main` (`harness = false`): `cargo bench -p wsm-bench
//! --bench delivery` rewrites `BENCH_delivery.json` at the repo root.

use wsm_bench::{
    broker_with_subscribers, make_event, measure_events_per_sec, stage_breakdowns,
    write_bench_json_full, ThroughputSample,
};
use wsm_eventing::{
    DeliveryMode, EventSink, EventSource, SubscribeRequest, Subscriber, WseVersion,
};
use wsm_messenger::{FaultTolerance, WsMessenger};
use wsm_transport::{EndpointFaults, FaultPlan, Network};

fn setup(
    mode: DeliveryMode,
) -> (
    Network,
    EventSource,
    EventSink,
    wsm_eventing::SubscriptionHandle,
) {
    let net = Network::new();
    let source = EventSource::start(&net, "http://src", WseVersion::Aug2004);
    let sink = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
    let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
    let h = subscriber
        .subscribe(
            source.uri(),
            SubscribeRequest::push(sink.epr()).with_mode(mode),
        )
        .unwrap();
    (net, source, sink, h)
}

/// Emit `BENCH_delivery.json`: per-mode delivery throughput, the
/// broker's per-stage pipeline breakdown on a 256-subscriber inline
/// fan-out, and the measured throughput cost of live instrumentation.
fn main() {
    let mut samples = Vec::new();

    let (_net, source, _sink, _h) = setup(DeliveryMode::Push);
    let mut seq = 0u64;
    let events_per_sec = measure_events_per_sec(1, &mut || {
        seq += 1;
        source.publish(&make_event(seq));
    });
    samples.push(ThroughputSample {
        scenario: "push".into(),
        mode: "per_event".into(),
        param: 1,
        events_per_sec,
    });

    for batch in [8u64, 64] {
        let (_net, source, _sink, _h) = setup(DeliveryMode::Wrapped);
        let mut seq = 0u64;
        let events_per_sec = measure_events_per_sec(batch, &mut || {
            for _ in 0..batch {
                seq += 1;
                source.publish(&make_event(seq));
            }
            source.flush_wrapped();
        });
        samples.push(ThroughputSample {
            scenario: "wrapped".into(),
            mode: "batch".into(),
            param: batch,
            events_per_sec,
        });
    }

    // Pull: eight enqueues and one poll round-trip that takes them, for
    // a firewalled sink (the paper's motivating scenario for the mode).
    let net = Network::new();
    let source = EventSource::start(&net, "http://src", WseVersion::Aug2004);
    let fw_sink = EventSink::start_firewalled(&net, "http://fw", WseVersion::Aug2004);
    let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
    let h = subscriber
        .subscribe(
            source.uri(),
            SubscribeRequest::push(fw_sink.epr()).with_mode(DeliveryMode::Pull),
        )
        .unwrap();
    let mut seq = 0u64;
    let events_per_sec = measure_events_per_sec(8, &mut || {
        for _ in 0..8 {
            seq += 1;
            source.publish(&make_event(seq));
        }
        let pulled = subscriber.pull(&h, 8).unwrap();
        assert_eq!(pulled.len(), 8, "a pull takes the eight queued events");
    });
    samples.push(ThroughputSample {
        scenario: "pull".into(),
        mode: "roundtrip".into(),
        param: 8,
        events_per_sec,
    });

    // Broker publish path, 256 subscribers, inline regime: where does
    // a publication's time go, and what does recording that cost? The
    // overhead comparison runs in one binary — obs enabled against the
    // same broker with recording disabled at runtime — so it isolates
    // the instrumentation itself, not a rebuild.
    let (_net, broker) = broker_with_subscribers(256, "jobs/status");
    let mut seq = 0u64;
    let mut publish = |broker: &wsm_messenger::WsMessenger| {
        seq += 1;
        broker.publish_on("jobs/status", &make_event(seq));
    };
    // Alternate A/B rounds and keep each mode's peak, so pool warm-up
    // and scheduler noise don't land on one side of the comparison.
    let (mut enabled_eps, mut disabled_eps) = (0.0f64, 0.0f64);
    let mut stages = Vec::new();
    for _ in 0..3 {
        broker.set_obs_enabled(true);
        enabled_eps = enabled_eps.max(measure_events_per_sec(1, &mut || publish(&broker)));
        stages = stage_breakdowns(&broker.obs_snapshot());
        broker.set_obs_enabled(false);
        disabled_eps = disabled_eps.max(measure_events_per_sec(1, &mut || publish(&broker)));
    }
    samples.push(ThroughputSample {
        scenario: "broker_publish_inline".into(),
        mode: "obs_enabled".into(),
        param: 256,
        events_per_sec: enabled_eps,
    });
    samples.push(ThroughputSample {
        scenario: "broker_publish_inline".into(),
        mode: "obs_disabled".into(),
        param: 256,
        events_per_sec: disabled_eps,
    });
    let overhead_pct = (disabled_eps - enabled_eps) / disabled_eps * 100.0;

    // A consumer losing 20% of its traffic (seeded), behind the
    // fault-tolerant redelivery queue. Quantifies what the queue,
    // breaker, and backoff bookkeeping cost on the publish path when
    // the endpoint actually misbehaves.
    let (net, broker) = flaky_broker(42);
    let mut seq = 0u64;
    let events_per_sec = measure_events_per_sec(1, &mut || {
        seq += 1;
        broker.publish_on("jobs/status", &make_event(seq));
        // Advance virtual time so backoff schedules come due and the
        // piggybacked pump gets to redeliver.
        net.clock().advance_ms(1);
    });
    broker.drain_redeliveries(60_000);
    samples.push(ThroughputSample {
        scenario: "flaky_20pct_loss".into(),
        mode: "fault_tolerant".into(),
        param: 20,
        events_per_sec,
    });

    let path = write_bench_json_full("delivery", &samples, &stages, &[], Some(overhead_pct));
    println!("wrote {}", path.display());
    println!(
        "instrumentation overhead on 256-subscriber inline publish: {overhead_pct:.2}% \
         ({enabled_eps:.0} vs {disabled_eps:.0} events/s)"
    );
}

/// A broker with one push subscriber behind a 20%-loss link and the
/// fault-tolerant redelivery queue.
fn flaky_broker(seed: u64) -> (Network, WsMessenger) {
    let net = Network::new();
    let broker = WsMessenger::start(&net, "http://broker");
    broker.set_fanout_workers(1);
    let sink = EventSink::start(&net, "http://flaky", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
        .unwrap();
    broker.set_fault_tolerance(Some(FaultTolerance {
        base_backoff_ms: 2,
        max_backoff_ms: 64,
        seed,
        ..FaultTolerance::default()
    }));
    net.set_fault_plan(
        FaultPlan::seeded(seed)
            .with_endpoint("http://flaky", EndpointFaults::new().with_drop_rate(0.2)),
    );
    (net, broker)
}
