//! The overlapped delivery path under concurrent load: publisher
//! threads racing subscribe/unsubscribe/expiry churn must lose no
//! deliveries, duplicate none, keep each publisher's events in order at
//! every subscriber, and keep `MediationStats` exact.
//!
//! Every scenario runs on a wire with a 20 µs send delay: with no delay
//! a broker streams each fan-out on its publisher, and the overlapped
//! path (posted sends, landed by the publisher once their delay has
//! passed) would never run.

use std::thread;
use wsm_eventing::{EventSink, Expires, SubscribeRequest, Subscriber, WseVersion};
use wsm_messenger::{Stage, WsMessenger};
use wsm_notification::{
    NotificationConsumer, WsnClient, WsnFilter, WsnSubscribeRequest, WsnVersion,
};
use wsm_transport::Network;
use wsm_xml::Element;

/// Real per-send delay, µs: enough to put fan-outs on the overlapped
/// path.
const WIRE_US: u64 = 20;

const PUBLISHERS: usize = 4;
const EVENTS_PER_PUBLISHER: usize = 100;

fn event(publisher: usize, seq: usize) -> Element {
    Element::local("e")
        .with_attr("t", publisher.to_string())
        .with_attr("n", seq.to_string())
}

/// Per-publisher sequence numbers in `payloads` must each be strictly
/// increasing — the per-subscriber ordering guarantee.
fn assert_publisher_order(payloads: &[Element], who: &str) {
    let mut last = [-1i64; PUBLISHERS];
    for p in payloads {
        let t: usize = p.attr("t").unwrap().parse().unwrap();
        let n: i64 = p.attr("n").unwrap().parse().unwrap();
        assert!(
            n > last[t],
            "{who}: publisher {t} went backwards ({n} after {})",
            last[t]
        );
        last[t] = n;
    }
}

/// Twenty fresh brokers, not one: the publisher race this guards
/// against (one publisher's event fanned out on another publisher's
/// thread, after the owner had moved on) needs a particular
/// interleaving, and a single round only hits it about one run in five.
#[test]
fn concurrent_publish_with_churn_keeps_exact_accounting() {
    for _ in 0..20 {
        publish_with_churn_round();
    }
}

fn publish_with_churn_round() {
    let net = Network::new();
    net.set_send_delay_us(WIRE_US);
    let broker = WsMessenger::start(&net, "http://broker");

    // Stable consumers, half per dialect family, all seeing every event.
    let wse_sinks: Vec<EventSink> = (0..4)
        .map(|i| {
            let sink = EventSink::start(
                &net,
                format!("http://wse-{i}").as_str(),
                WseVersion::Aug2004,
            );
            Subscriber::new(&net, WseVersion::Aug2004)
                .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
                .unwrap();
            sink
        })
        .collect();
    let wsn_consumers: Vec<NotificationConsumer> = (0..4)
        .map(|i| {
            let consumer = NotificationConsumer::start(
                &net,
                format!("http://wsn-{i}").as_str(),
                WsnVersion::V1_3,
            );
            WsnClient::new(&net, WsnVersion::V1_3)
                .subscribe(
                    broker.uri(),
                    &WsnSubscribeRequest::new(consumer.epr())
                        .with_filter(WsnFilter::topic("storms")),
                )
                .unwrap();
            consumer
        })
        .collect();

    let publishers: Vec<_> = (0..PUBLISHERS)
        .map(|t| {
            let broker = broker.clone();
            thread::spawn(move || {
                for n in 0..EVENTS_PER_PUBLISHER {
                    broker.publish_on("storms", &event(t, n));
                }
            })
        })
        .collect();

    // Churn: short-lived subscriptions appearing, vanishing (explicit
    // unsubscribe) and expiring (already-past Expires swept mid-run),
    // while the publishers hammer the broker.
    let churn = {
        let net = net.clone();
        let broker = broker.clone();
        thread::spawn(move || {
            let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
            let mut churn_sinks = Vec::new();
            for i in 0..24 {
                let sink = EventSink::start(
                    &net,
                    format!("http://churn-{i}").as_str(),
                    WseVersion::Aug2004,
                );
                let expires = if i % 3 == 0 {
                    Some(Expires::At(net.clock().now_ms()))
                } else {
                    None
                };
                let mut req = SubscribeRequest::push(sink.epr());
                if let Some(e) = expires {
                    req = req.with_expires(e);
                }
                let handle = subscriber.subscribe(broker.uri(), req).unwrap();
                if expires.is_none() {
                    subscriber.unsubscribe(&handle).unwrap();
                }
                churn_sinks.push(sink);
            }
            churn_sinks
        })
    };

    for p in publishers {
        p.join().unwrap();
    }
    let churn_sinks = churn.join().unwrap();

    // Any manager operation sweeps expired subscriptions, so the final
    // registry census below sees only the stable set.
    {
        let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
        let sink = EventSink::start(&net, "http://sweeper", WseVersion::Aug2004);
        let handle = subscriber
            .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
            .unwrap();
        subscriber.unsubscribe(&handle).unwrap();
    }

    let total = (PUBLISHERS * EVENTS_PER_PUBLISHER) as u64;
    let stats = broker.stats();
    assert_eq!(stats.published, total);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.retried, 0);
    assert_eq!(
        stats.mediated, 0,
        "in-process publishes have no wire origin"
    );

    // No lost or duplicated deliveries at the stable consumers...
    for (i, sink) in wse_sinks.iter().enumerate() {
        let got = sink.received();
        assert_eq!(got.len() as u64, total, "wse sink {i}");
        assert_publisher_order(&got, &format!("wse sink {i}"));
    }
    for (i, consumer) in wsn_consumers.iter().enumerate() {
        let got: Vec<Element> = consumer
            .notifications()
            .into_iter()
            .map(|n| n.message)
            .collect();
        assert_eq!(got.len() as u64, total, "wsn consumer {i}");
        assert_publisher_order(&got, &format!("wsn consumer {i}"));
    }

    // ...and the stats agree exactly with what every consumer —
    // including the churn set — actually observed.
    let churn_received: u64 = churn_sinks.iter().map(|s| s.received().len() as u64).sum();
    for sink in &churn_sinks {
        assert_publisher_order(&sink.received(), "churn sink");
    }
    assert_eq!(
        stats.delivered_wse,
        wse_sinks.len() as u64 * total + churn_received
    );
    assert_eq!(stats.delivered_wsn, wsn_consumers.len() as u64 * total);
    assert_eq!(
        broker.subscription_count(),
        wse_sinks.len() + wsn_consumers.len()
    );
}

#[test]
fn sequential_and_parallel_fanout_agree() {
    let run = |workers: usize| {
        let net = Network::new();
        net.set_send_delay_us(WIRE_US);
        let broker = WsMessenger::start(&net, "http://broker");
        broker.set_fanout_workers(workers);
        let sinks: Vec<EventSink> = (0..8)
            .map(|i| {
                let sink =
                    EventSink::start(&net, format!("http://s-{i}").as_str(), WseVersion::Aug2004);
                Subscriber::new(&net, WseVersion::Aug2004)
                    .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
                    .unwrap();
                sink
            })
            .collect();
        for n in 0..20 {
            broker.publish_on("storms", &event(0, n));
        }
        let overlapped = (broker.trace_spans().iter())
            .filter(|s| s.stage == Stage::Handoff)
            .count();
        assert_eq!(
            overlapped,
            if workers > 1 { 20 } else { 0 },
            "workers={workers}"
        );
        let received: Vec<Vec<String>> = sinks
            .iter()
            .map(|s| {
                s.received()
                    .iter()
                    .map(|e| e.attr("n").unwrap().to_string())
                    .collect()
            })
            .collect();
        (broker.stats(), received)
    };
    let (seq_stats, seq_received) = run(1);
    let (par_stats, par_received) = run(8);
    assert_eq!(seq_stats, par_stats);
    assert_eq!(seq_received, par_received);
}
