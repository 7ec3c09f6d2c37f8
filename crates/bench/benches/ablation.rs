//! Ablation benches for the design choices DESIGN.md §6 calls out.
//!
//! * **Filter placement** (§6.3): broker-side filtering (WS-style)
//!   vs no filtering with consumer-side discard (CORBA-Event-style).
//!   Broker-side wins as selectivity drops because unmatched events
//!   never cross the (simulated) wire.
//! * **Spec auto-detection** (§6.4): the per-message namespace sniff
//!   that fronts every WS-Messenger request.
//! * **Backend hop** (§6.1 companion): in-memory backend vs the JMS
//!   wrap, isolating the cost of riding an external pub/sub system.
//! * **Delivery engine** (§6.5): parallel vs sequential push fan-out
//!   at 64 subscribers, and per-event render cache on vs off over a
//!   mixed WSE/WSN consumer pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use wsm_bench::make_event;
use wsm_eventing::{EventSink, Filter, SubscribeRequest, Subscriber, WseCodec, WseVersion};
use wsm_jms::JmsProvider;
use wsm_messenger::{
    render_notification, render_notification_cached, BrokerDeliveryMode, BrokerSubscription,
    InternalEvent, JmsBackend, RenderCache, SpecDialect, UnifiedFilters, WsMessenger,
};
use wsm_notification::{WsnCodec, WsnFilter, WsnSubscribeRequest, WsnVersion};
use wsm_transport::Network;
use wsm_xpath::XPath;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(15);

    // --- filter placement, at three selectivities.
    // `sev` cycles 1..=7; thresholds pick ~all / ~half / ~none.
    for (label, threshold) in [("all", 0u32), ("half", 4), ("none", 8)] {
        // Broker-side: XPath filter in the subscription.
        let net = Network::new();
        let broker = WsMessenger::start(&net, "http://broker");
        let sub = Subscriber::new(&net, WseVersion::Aug2004);
        for i in 0..8 {
            let sink = EventSink::start(&net, format!("http://s{i}").as_str(), WseVersion::Aug2004);
            sub.subscribe(
                broker.uri(),
                SubscribeRequest::push(sink.epr())
                    .with_filter(Filter::xpath(format!("/event[@sev > {threshold}]"))),
            )
            .unwrap();
        }
        let mut seq = 0u64;
        group.bench_with_input(
            BenchmarkId::new("broker_side_filter", label),
            &threshold,
            |b, _| {
                b.iter(|| {
                    seq += 1;
                    black_box(broker.publish_raw(&make_event(seq)))
                })
            },
        );

        // Consumer-side: no broker filter; every event is delivered and
        // the consumer evaluates the same predicate after the fact.
        let net2 = Network::new();
        let broker2 = WsMessenger::start(&net2, "http://broker");
        let sub2 = Subscriber::new(&net2, WseVersion::Aug2004);
        let mut sinks = Vec::new();
        for i in 0..8 {
            let sink =
                EventSink::start(&net2, format!("http://s{i}").as_str(), WseVersion::Aug2004);
            sub2.subscribe(broker2.uri(), SubscribeRequest::push(sink.epr()))
                .unwrap();
            sinks.push(sink);
        }
        let client_filter = XPath::compile(&format!("/event[@sev > {threshold}]")).unwrap();
        group.bench_with_input(
            BenchmarkId::new("consumer_side_filter", label),
            &threshold,
            |b, _| {
                b.iter(|| {
                    seq += 1;
                    broker2.publish_raw(&make_event(seq));
                    // Each consumer discards what it did not want.
                    let mut kept = 0;
                    for s in &sinks {
                        for e in s.received() {
                            if client_filter.matches(&e) {
                                kept += 1;
                            }
                        }
                        s.clear();
                    }
                    black_box(kept)
                })
            },
        );
    }

    // --- spec auto-detection cost.
    let wse_env = WseCodec::new(WseVersion::Aug2004).subscribe(
        "http://b",
        &SubscribeRequest::push(wsm_addressing::EndpointReference::new("http://s")),
    );
    let wsn_env = WsnCodec::new(WsnVersion::V1_3).subscribe(
        "http://b",
        &WsnSubscribeRequest::new(wsm_addressing::EndpointReference::new("http://s"))
            .with_filter(WsnFilter::topic("t")),
    );
    group.bench_function("detect_dialect", |b| {
        b.iter(|| {
            black_box(SpecDialect::detect(&wse_env));
            black_box(SpecDialect::detect(&wsn_env))
        })
    });

    // --- backend hop: in-memory vs JMS wrap (1 consumer, no filters).
    let mk = |jms: bool| {
        let net = Network::new();
        let broker = if jms {
            WsMessenger::start_with_backend(
                &net,
                "http://broker",
                Arc::new(JmsBackend::new(JmsProvider::new(), "relay")),
            )
        } else {
            WsMessenger::start(&net, "http://broker")
        };
        let sink = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
            .unwrap();
        (net, broker)
    };
    let (_n1, mem_broker) = mk(false);
    let mut seq = 0u64;
    group.bench_function("backend_in_memory", |b| {
        b.iter(|| {
            seq += 1;
            black_box(mem_broker.publish_raw(&make_event(seq)))
        })
    });
    let (_n2, jms_broker) = mk(true);
    group.bench_function("backend_jms_wrap", |b| {
        b.iter(|| {
            seq += 1;
            black_box(jms_broker.publish_raw(&make_event(seq)))
        })
    });

    // --- delivery engine: parallel vs sequential fan-out at 64 subs,
    // with a real 100µs wire delay per send (the regime the pool is
    // for — overlapping delivery latency, not CPU work).
    let net = Network::new();
    let broker = WsMessenger::start(&net, "http://broker");
    let sub = Subscriber::new(&net, WseVersion::Aug2004);
    for i in 0..64 {
        let sink = EventSink::start(
            &net,
            format!("http://fan-{i}").as_str(),
            WseVersion::Aug2004,
        );
        sub.subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
            .unwrap();
    }
    net.set_send_delay_us(100);
    let mut seq = 0u64;
    broker.set_fanout_workers(1);
    group.bench_function("fanout_sequential_64", |b| {
        b.iter(|| {
            seq += 1;
            black_box(broker.publish_raw(&make_event(seq)))
        })
    });
    broker.set_fanout_workers(4);
    group.bench_function("fanout_parallel_64", |b| {
        b.iter(|| {
            seq += 1;
            black_box(broker.publish_raw(&make_event(seq)))
        })
    });

    // --- render cache on vs off: 64 renders (32 WSE raw + 32 WSN
    // wrapped) of one event, serialized as the transport would.
    let manager = wsm_addressing::EndpointReference::new("http://broker/subscriptions");
    let consumer = wsm_addressing::EndpointReference::new("http://c");
    let subs: Vec<BrokerSubscription> = (0..64)
        .map(|i| BrokerSubscription {
            id: format!("wsm-{i}").into(),
            spec: if i % 2 == 0 {
                SpecDialect::Wse(WseVersion::Aug2004)
            } else {
                SpecDialect::Wsn(WsnVersion::V1_3)
            },
            consumer: consumer.clone(),
            end_to: None,
            filters: UnifiedFilters::default(),
            mode: BrokerDeliveryMode::Push,
            use_raw: false,
        })
        .collect();
    let event = InternalEvent::on_topic("jobs/status", make_event(1));
    group.bench_function("render_cache_off_64", |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            for s in &subs {
                bytes += render_notification(s, &event, "http://broker", &manager)
                    .to_xml()
                    .len();
            }
            black_box(bytes)
        })
    });
    group.bench_function("render_cache_on_64", |b| {
        b.iter(|| {
            let cache = RenderCache::new(&event);
            let mut bytes = 0usize;
            for s in &subs {
                bytes += render_notification_cached(
                    &cache,
                    s,
                    &event,
                    "http://broker",
                    "http://broker/subs",
                )
                .to_xml()
                .len();
            }
            black_box(bytes)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
