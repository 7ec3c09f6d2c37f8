//! End-to-end observability: pipeline-stage tracing across a mediated
//! publish, the SOAP `GetMetrics`/`GetTrace` extension operations, and
//! per-worker delivery attribution in the transport trace.

use std::sync::Arc;
use wsm_eventing::{EventSink, SubscribeRequest, Subscriber, WseVersion};
use wsm_messenger::WsMessenger;
use wsm_notification::{
    NotificationConsumer, NotificationMessage, WsnClient, WsnCodec, WsnSubscribeRequest, WsnVersion,
};
use wsm_soap::{Envelope, SoapVersion};
use wsm_topics::TopicPath;
use wsm_transport::{DeliveryOutcome, EndpointOptions, Network, SoapHandler};
use wsm_xml::Element;

fn broker_with_wse_sink(net: &Network) -> (WsMessenger, EventSink) {
    let broker = WsMessenger::start(net, "http://broker");
    let sink = EventSink::start(net, "http://sink", WseVersion::Aug2004);
    Subscriber::new(net, WseVersion::Aug2004)
        .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
        .unwrap();
    (broker, sink)
}

/// A WSN `Notify` carrying one message on `topic`.
fn notify_envelope(topic: &str, payload: Element) -> Envelope {
    let codec = WsnCodec::new(WsnVersion::V1_3);
    let to = wsm_addressing::EndpointReference::new("http://broker");
    codec.notify(
        &to,
        &[NotificationMessage::new(TopicPath::parse(topic), payload)],
    )
}

mod spans {
    use super::*;

    /// The tentpole trace: a WSN publication mediated to a WS-Eventing
    /// consumer leaves one span per pipeline stage, all sharing the
    /// request's trace seq, in pipeline order.
    #[test]
    fn mediated_publish_traces_every_stage() {
        let net = Network::new();
        let (broker, sink) = broker_with_wse_sink(&net);
        broker.drain_trace_spans(); // discard the Subscribe request's Detect span

        net.send(
            "http://broker",
            notify_envelope("storms", Element::local("alert")),
        )
        .unwrap();
        assert_eq!(sink.received().len(), 1);
        assert_eq!(broker.stats().mediated, 1, "WSN->WSE crossing is mediated");

        let spans = broker.drain_trace_spans();
        let seq = spans
            .iter()
            .find(|s| s.stage.name() == "deliver")
            .expect("a deliver span")
            .seq;
        let stages: Vec<&str> = spans
            .iter()
            .filter(|s| s.seq == seq)
            .map(|s| s.stage.name())
            .collect();
        assert_eq!(
            stages,
            ["detect", "publish", "match", "render", "deliver", "resolve"],
            "one span per pipeline stage plus the terminal resolution, \
             in causal order, sharing the trace seq"
        );
        let matched = spans
            .iter()
            .find(|s| s.seq == seq && s.stage.name() == "match")
            .unwrap();
        assert_eq!(matched.items, 1, "one subscription matched");
        let delivered = spans
            .iter()
            .find(|s| s.seq == seq && s.stage.name() == "deliver")
            .unwrap();
        assert_eq!(delivered.items, 1, "one push delivery");
        let resolve = spans
            .iter()
            .find(|s| s.seq == seq && s.stage.name() == "resolve")
            .unwrap();
        assert!(
            resolve.subscriber.is_some(),
            "resolution names the subscriber"
        );
        assert_eq!(resolve.outcome, Some(wsm_messenger::Outcome::Delivered));
    }

    #[test]
    fn stage_histograms_and_latency_populate_snapshot() {
        let net = Network::new();
        let (broker, _sink) = broker_with_wse_sink(&net);
        for i in 0..10 {
            broker.publish_on("storms", &Element::local(format!("e{i}")));
        }
        let stats = broker.stats();
        assert_eq!(stats.published, 10);
        assert_eq!(stats.delivered_wse, 10);
        assert_eq!(stats.failed, 0);
        let snap = broker.obs_snapshot();
        for (name, stats) in &snap.stages {
            // In-process publishes skip the SOAP handler (no detect),
            // a healthy sink never exercises the attempt stages, a
            // fan-out over a wire with no delay is never overlapped,
            // and a standalone broker makes no federation hops.
            if matches!(
                *name,
                "detect" | "retry" | "dead_letter" | "resolve" | "handoff" | "federate"
            ) {
                continue;
            }
            assert_eq!(stats.count, 10, "stage {name} recorded every publish");
            assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99);
        }
        assert_eq!(snap.delivery_latency.count, 10);
        assert!(snap.delivery_latency.max as f64 >= snap.delivery_latency.p50);
        assert_eq!(snap.outcome_delivered, 10, "every delivery resolved");
        assert_eq!(
            snap.e2e_latency_ms.count, 10,
            "e2e histogram fed per resolution"
        );
    }

    /// Switched off, the broker stops timing and tracing but never
    /// stops counting: no spans and no stage samples, while the
    /// ledger and its exposition keep moving.
    #[test]
    fn kill_switch_stops_recording() {
        let net = Network::new();
        let (broker, sink) = broker_with_wse_sink(&net);
        broker.publish_on("storms", &Element::local("loud"));
        broker.drain_trace_spans();
        let timed = broker.obs_snapshot().stage("match").unwrap().count;
        broker.set_obs_enabled(false);
        broker.publish_on("storms", &Element::local("quiet"));
        assert_eq!(sink.received().len(), 2, "delivery is unaffected");
        assert!(
            broker.trace_spans().is_empty(),
            "no spans while recording is disabled"
        );
        assert_eq!(
            broker.obs_snapshot().stage("match").unwrap().count,
            timed,
            "no stage samples while recording is disabled"
        );
        assert_eq!(broker.stats().published, 2, "the count moved");
        // Switched off is still an answer, not a fault: GetMetrics
        // serves the exposition through the same handler that keeps
        // mediating traffic, its counters current.
        let req = Envelope::new(SoapVersion::V11).with_body(Element::ns(
            wsm_messenger::render::WSM_NS,
            "GetMetrics",
            "wsm",
        ));
        let resp = net.request("http://broker", req).unwrap();
        let text = resp
            .body()
            .unwrap()
            .child_ns(wsm_messenger::render::WSM_NS, "Exposition")
            .unwrap()
            .text();
        assert!(text.contains("wsm_published_total 2"), "got:\n{text}");
        assert!(text.contains("wsm_delivered_wse_total 2"), "got:\n{text}");
        assert!(
            text.contains("wsm_outcome_delivered_total 2"),
            "got:\n{text}"
        );
        broker.set_obs_enabled(true);
        broker.publish_on("storms", &Element::local("loud again"));
        assert_eq!(broker.stats().published, 3);
        assert!(!broker.trace_spans().is_empty());
    }

    #[test]
    fn get_metrics_soap_roundtrip() {
        let net = Network::new();
        let (broker, _sink) = broker_with_wse_sink(&net);
        broker.publish_on("storms", &Element::local("alert"));
        let req = Envelope::new(SoapVersion::V11).with_body(Element::ns(
            wsm_messenger::render::WSM_NS,
            "GetMetrics",
            "wsm",
        ));
        let resp = net.request("http://broker", req).unwrap();
        let body = resp.body().unwrap();
        assert!(body
            .name
            .is(wsm_messenger::render::WSM_NS, "GetMetricsResponse"));
        let text = body
            .child_ns(wsm_messenger::render::WSM_NS, "Exposition")
            .unwrap()
            .text();
        assert!(text.contains("wsm_published_total 1"), "got:\n{text}");
        assert!(text.contains("wsm_delivered_wse_total 1"));
        assert!(text.contains("wsm_delivered_wsn_total 0"));
        assert!(
            text.contains("wsm_subscriptions 1"),
            "gauge refreshed at scrape"
        );
        assert!(text.contains("wsm_stage_match_ns_bucket"));
    }

    #[test]
    fn get_trace_soap_roundtrip_and_drain() {
        let net = Network::new();
        let (broker, _sink) = broker_with_wse_sink(&net);
        broker.drain_trace_spans();
        broker.publish_on("storms", &Element::local("alert"));

        let trace_req = || {
            Envelope::new(SoapVersion::V11).with_body(
                Element::ns(wsm_messenger::render::WSM_NS, "GetTrace", "wsm")
                    .with_attr("Drain", "true"),
            )
        };
        let resp = net.request("http://broker", trace_req()).unwrap();
        let body = resp.body().unwrap();
        assert!(body
            .name
            .is(wsm_messenger::render::WSM_NS, "GetTraceResponse"));
        let stages: Vec<String> = body
            .elements()
            .map(|s| s.attr("Stage").unwrap().to_string())
            .collect();
        assert_eq!(stages, ["publish", "match", "render", "deliver", "resolve"]);
        for span in body.elements() {
            assert!(span.attr("Seq").is_some());
            assert!(span.attr("DurNs").unwrap().parse::<u64>().is_ok());
        }
        let resolve = body
            .elements()
            .find(|s| s.attr("Stage") == Some("resolve"))
            .unwrap();
        assert!(resolve.attr("Subscriber").is_some());
        assert_eq!(resolve.attr("Outcome"), Some("delivered"));
        assert_eq!(resolve.attr("Attempt"), Some("0"));

        // Drain="true" emptied the ring.
        let resp = net.request("http://broker", trace_req()).unwrap();
        assert_eq!(resp.body().unwrap().elements().count(), 0);
    }

    /// The acceptance chaos test: an event whose consumer swallows
    /// every delivery traverses multiple retries and lands in the
    /// dead-letter store — and the ring can reconstruct its complete
    /// causal timeline: every attempt ordinal in order, the
    /// dead-letter move, and a terminal outcome whose end-to-end
    /// latency spans publish→dead-letter, not just the first send.
    #[test]
    fn retried_then_dead_lettered_event_has_a_complete_story() {
        let net = Network::new();
        net.set_latency_ms(5);
        let broker = WsMessenger::start(&net, "http://broker");
        broker.set_fault_tolerance(Some(wsm_messenger::FaultTolerance {
            base_backoff_ms: 25,
            max_backoff_ms: 400,
            seed: 7,
            max_redeliveries: 4,
            ..Default::default()
        }));
        EventSink::start(&net, "http://blackhole", WseVersion::Aug2004);
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(
                broker.uri(),
                SubscribeRequest::push(wsm_addressing::EndpointReference::new("http://blackhole")),
            )
            .unwrap();
        net.set_fault_plan(wsm_transport::FaultPlan::seeded(7).with_endpoint(
            "http://blackhole",
            wsm_transport::EndpointFaults::new().with_drop_rate(1.0),
        ));

        let published_at = net.clock().now_ms();
        broker.publish_on("storms", &Element::local("doomed"));
        broker.drain_redeliveries(600_000);
        assert_eq!(broker.dead_letters().len(), 1, "the event dead-lettered");

        let stories = broker.delivery_stories();
        let story = stories
            .iter()
            .find(|s| s.outcome == Some(wsm_messenger::Outcome::DeadLettered))
            .expect("a dead-lettered story");

        // Every attempt is present, in causal order, starting from the
        // original fan-out attempt.
        let attempts = story.attempts();
        assert!(
            attempts.len() >= 3,
            "first attempt plus >=2 retries, got {attempts:?}"
        );
        assert_eq!(attempts[0], 0, "the original fan-out attempt is span 0");
        assert!(
            attempts.windows(2).all(|w| w[0] < w[1]),
            "attempt ordinals strictly increase: {attempts:?}"
        );
        let at: Vec<u64> = story.spans.iter().map(|s| s.at_ms).collect();
        assert!(
            at.windows(2).all(|w| w[0] <= w[1]),
            "spans are in causal order: {at:?}"
        );

        // The timeline terminates: a dead-letter move, then a resolve
        // span carrying the outcome.
        assert!(story
            .spans
            .iter()
            .any(|s| s.stage == wsm_messenger::Stage::DeadLetter));
        let last = story.spans.last().unwrap();
        assert_eq!(last.stage, wsm_messenger::Stage::Resolve);
        assert_eq!(last.outcome, Some(wsm_messenger::Outcome::DeadLettered));

        // End-to-end latency covers the whole retry chain (backoffs
        // included), not just the 5ms first send.
        let e2e = story.e2e_ms().expect("terminal latency");
        assert_eq!(story.published_at_ms, Some(published_at));
        assert_eq!(
            e2e,
            story.resolved_at_ms.unwrap() - published_at,
            "resolve span carries publish->dead-letter latency"
        );
        assert!(e2e >= 50, "covers the backoff chain, got {e2e}ms");
        assert_eq!(broker.stats().dead_lettered, 1);
        assert_eq!(
            broker.obs_snapshot().e2e_latency_ms.max,
            e2e,
            "the e2e histogram saw the full publish->dead-letter latency"
        );
    }

    /// Satellite: overflowing the span ring is not silent — the
    /// eviction count surfaces as a gauge in the Prometheus exposition
    /// AND as the trailing gauge line of the JSONL export, and both
    /// agree with the snapshot.
    #[test]
    fn span_ring_overflow_surfaces_drop_count_in_both_exporters() {
        let net = Network::new();
        let (broker, _sink) = broker_with_wse_sink(&net);
        // Each mediated publish leaves 5 spans (publish, match, render,
        // deliver, resolve); 1000 publishes overflow the 4096-span ring.
        for i in 0..1000 {
            broker.publish_on("storms", &Element::local("e").with_attr("i", i.to_string()));
        }
        let snap = broker.obs_snapshot();
        assert!(
            snap.spans_evicted > 0,
            "ring overflowed ({} buffered)",
            snap.spans_buffered
        );

        let prom = broker.metrics_text();
        let gauge_line = prom
            .lines()
            .find(|l| l.starts_with("wsm_spans_dropped "))
            .expect("span-loss gauge exposed to Prometheus");
        let prom_value: u64 = gauge_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(prom_value, snap.spans_evicted);

        let jsonl = broker.spans_jsonl();
        let trailer = jsonl.lines().last().expect("non-empty JSONL");
        assert_eq!(
            trailer,
            format!(
                "{{\"gauge\":\"spans_dropped\",\"value\":{}}}",
                snap.spans_evicted
            ),
            "JSONL trailer distinguishes a truncated trace"
        );
    }

    /// Satellite: the Prometheus text the broker actually serves is
    /// well-formed — every sample family carries `# HELP` and `# TYPE`
    /// lines, and histogram buckets are cumulative (monotone, `+Inf`
    /// equal to `_count`).
    #[test]
    fn prometheus_exposition_is_well_formed() {
        let net = Network::new();
        let (broker, _sink) = broker_with_wse_sink(&net);
        for _ in 0..20 {
            broker.publish_on("storms", &Element::local("alert"));
            net.clock().advance_ms(3);
        }
        let text = broker.metrics_text();

        // Families named by `# TYPE` each have a help line and at
        // least one sample.
        let mut families = 0;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("# TYPE ") else {
                continue;
            };
            families += 1;
            let name = rest.split_whitespace().next().unwrap();
            assert!(
                text.lines()
                    .any(|l| l.starts_with(&format!("# HELP {name} "))),
                "{name}: missing # HELP"
            );
            assert!(
                text.lines().any(|l| {
                    !l.starts_with('#')
                        && (l.starts_with(&format!("{name} "))
                            || l.starts_with(&format!("{name}_"))
                            || l.starts_with(&format!("{name}{{")))
                }),
                "{name}: no sample line"
            );
        }
        assert!(families > 10, "a real exposition, got {families} families");

        // Histogram buckets are cumulative and consistent.
        let mut checked = 0;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("# TYPE ") else {
                continue;
            };
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next().unwrap(), parts.next().unwrap());
            if kind != "histogram" {
                continue;
            }
            let counts: Vec<u64> = text
                .lines()
                .filter(|l| l.starts_with(&format!("{name}_bucket{{")))
                .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
                .collect();
            assert!(!counts.is_empty(), "{name}: histogram without buckets");
            assert!(
                counts.windows(2).all(|w| w[0] <= w[1]),
                "{name}: buckets are cumulative: {counts:?}"
            );
            let count: u64 = text
                .lines()
                .find(|l| l.starts_with(&format!("{name}_count ")))
                .and_then(|l| l.split_whitespace().nth(1))
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(
                *counts.last().unwrap(),
                count,
                "{name}: +Inf bucket equals _count"
            );
            checked += 1;
        }
        assert!(checked > 3, "several histograms checked, got {checked}");
    }

    /// The federation front's exposition carries one hop sample per
    /// publication and no link-queue metrics: there is no link queue.
    #[test]
    fn federation_exposition_reports_one_hop_per_publication() {
        let net = Network::new();
        let fed = wsm_messenger::FederatedMessenger::start(&net, "http://fed", 2);
        fed.set_obs_enabled(true);
        let sink = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(fed.uri(), SubscribeRequest::push(sink.epr()))
            .unwrap();

        fed.set_link_policy(wsm_messenger::BatchPolicy::Adaptive {
            min: 4,
            max: 4,
            deadline_ms: u64::MAX,
        });
        for i in 0..3 {
            fed.publish_on("storms", &Element::local(format!("e{i}")));
        }
        assert_eq!(
            sink.received().len(),
            3,
            "delivered before publish returned"
        );
        assert_eq!(fed.link_queue_depth(), 0);
        let text = fed.metrics_text();
        assert!(
            text.contains("wsm_stage_federate_ns_count 3"),
            "one federate hop per publication: {text}"
        );
        assert!(
            !text.contains("wsm_fed_"),
            "no link-queue gauge or flush-size histogram: {text}"
        );
    }
}

/// A consumer that accepts everything and notes which thread ran it.
#[derive(Default)]
struct Named(parking_lot::Mutex<Vec<String>>);
impl SoapHandler for Named {
    fn handle(&self, _req: Envelope) -> Result<Option<Envelope>, wsm_soap::Fault> {
        let name = std::thread::current().name().unwrap_or("").to_string();
        self.0.lock().push(name);
        Ok(None)
    }
}

/// The overlapped fan-out path records one transport trace record per
/// attempt, covering delivered, dropped, refused, and missing-endpoint
/// outcomes. Every record names the publishing thread, which posted
/// the send and, once its delay had passed, ran its handler.
#[test]
fn parallel_fanout_trace_attributes_workers_and_outcomes() {
    let net = Network::new();
    let broker = WsMessenger::start(&net, "http://broker");

    let subscribe = |addr: &str| {
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(
                broker.uri(),
                SubscribeRequest::push(wsm_addressing::EndpointReference::new(addr)),
            )
            .unwrap();
    };
    let mut healthy = Vec::new();
    for i in 0..5 {
        let uri = format!("http://good-{i}");
        let handler = Arc::new(Named::default());
        net.register(uri.as_str(), handler.clone());
        healthy.push(handler);
        subscribe(&uri);
    }
    // Then one of each failure mode.
    net.register_with(
        "http://walled",
        Arc::new(Named::default()),
        EndpointOptions { firewalled: true },
    );
    subscribe("http://walled");
    net.register("http://flaky", Arc::new(Named::default()));
    net.drop_next("http://flaky", 1);
    subscribe("http://flaky");
    subscribe("http://missing");

    // Discard the subscribe round-trips, then publish over a wire slow
    // enough to put the fan-out on the overlapped path.
    net.drain_trace();
    broker.drain_trace_spans();
    net.set_send_delay_us(2_000);
    broker.publish_raw(&Element::local("alert"));
    net.set_send_delay_us(0);
    let publisher = std::thread::current()
        .name()
        .unwrap_or("(unnamed)")
        .to_string();
    for handler in &healthy {
        assert_eq!(
            *handler.0.lock(),
            [publisher.as_str()],
            "landed once, by the publisher"
        );
    }
    assert!(
        broker
            .drain_trace_spans()
            .iter()
            .any(|s| s.stage == wsm_messenger::Stage::Handoff),
        "the publication was overlapped"
    );

    let fanout: Vec<_> = net
        .drain_trace()
        .into_iter()
        .filter(|r| !r.two_way)
        .collect();
    assert_eq!(fanout.len(), 8, "one record per push attempt");
    assert!(
        fanout.iter().all(|r| r.worker == publisher),
        "every record names the publishing thread, got {:?}",
        fanout.iter().map(|r| r.worker.clone()).collect::<Vec<_>>()
    );
    let outcome_of = |to: &str| &fanout.iter().find(|r| r.to == to).unwrap().outcome;
    assert_eq!(*outcome_of("http://walled"), DeliveryOutcome::Refused);
    assert_eq!(*outcome_of("http://flaky"), DeliveryOutcome::Dropped);
    assert_eq!(*outcome_of("http://missing"), DeliveryOutcome::NoEndpoint);
    assert_eq!(
        fanout
            .iter()
            .filter(|r| r.outcome == DeliveryOutcome::Delivered)
            .count(),
        5
    );
}

/// The broker keeps one ledger of what it mediated: each `stats()`
/// field is one counter, exposed as its `wsm_*_total` line, counting
/// first-round sends and redeliveries alike, whether or not
/// observability is recording.
mod ledgers {
    use super::*;
    use wsm_eventing::DeliveryMode;
    use wsm_messenger::{FaultTolerance, FederatedMessenger, MediationStats};

    fn fault_tolerant(poison_budget: u32) -> (Network, WsMessenger, EventSink) {
        let net = Network::new();
        let (broker, sink) = broker_with_wse_sink(&net);
        broker.set_fault_tolerance(Some(FaultTolerance {
            poison_budget,
            ..FaultTolerance::default()
        }));
        (net, broker, sink)
    }

    fn metric(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{name} missing from\n{text}"))
            .parse()
            .unwrap()
    }

    #[test]
    fn each_dead_letter_is_counted_once() {
        let (net, broker, _sink) = fault_tolerant(1);
        net.fault_next("http://sink", 1);
        broker.publish_raw(&Element::local("e"));
        assert_eq!(broker.stats().dead_lettered, 1);
        assert_eq!(metric(&broker.metrics_text(), "wsm_dead_letters_total"), 1);
    }

    #[test]
    fn redeliveries_reach_the_delivery_counters() {
        let (net, broker, sink) = fault_tolerant(3);
        net.drop_next("http://sink", 1);
        // A WSN publication to a WS-Eventing consumer: mediated.
        net.send(
            "http://broker",
            notify_envelope("storms", Element::local("alert")),
        )
        .unwrap();
        broker.drain_redeliveries(60_000);
        assert_eq!(sink.received().len(), 1);
        let stats = broker.stats();
        assert_eq!(stats.redelivered, 1);
        let text = broker.metrics_text();
        assert_eq!(
            metric(&text, "wsm_delivered_wse_total") + metric(&text, "wsm_delivered_wsn_total"),
            stats.delivered_wse + stats.delivered_wsn
        );
        assert_eq!(stats.delivered_wse, 1);
        assert_eq!(metric(&text, "wsm_mediated_total"), stats.mediated);
        assert_eq!(stats.mediated, 1);
    }

    #[test]
    fn a_dead_letter_from_the_pump_reaches_the_failed_counter() {
        // The first fault requeues, the redelivery's fault dead-letters.
        let (net, broker, _sink) = fault_tolerant(2);
        net.fault_next("http://sink", 2);
        broker.publish_raw(&Element::local("e"));
        assert_eq!(broker.stats().failed, 0, "held, not failed yet");
        broker.drain_redeliveries(60_000);
        let stats = broker.stats();
        assert_eq!(stats.dead_lettered, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(
            metric(&broker.metrics_text(), "wsm_failed_total"),
            stats.failed
        );
    }

    /// Each ledger count beside the name of its exposition line.
    fn ledger(s: MediationStats) -> [(&'static str, u64); 8] {
        [
            ("wsm_published_total", s.published),
            ("wsm_delivered_wse_total", s.delivered_wse),
            ("wsm_delivered_wsn_total", s.delivered_wsn),
            ("wsm_mediated_total", s.mediated),
            ("wsm_failed_total", s.failed),
            ("wsm_retried_total", s.retried),
            ("wsm_redelivered_total", s.redelivered),
            ("wsm_dead_letters_total", s.dead_lettered),
        ]
    }

    /// Assert every `stats()` field equals its exposition line, and
    /// return the stats.
    fn assert_ledger_is_exposed(broker: &WsMessenger) -> MediationStats {
        let stats = broker.stats();
        let text = broker.metrics_text();
        for (name, count) in ledger(stats) {
            assert_eq!(metric(&text, name), count, "{name}");
        }
        stats
    }

    #[test]
    fn counts_survive_the_kill_switch() {
        let net = Network::new();
        let (broker, sink) = broker_with_wse_sink(&net);
        broker.set_obs_enabled(false);
        broker.publish_raw(&Element::local("quiet"));
        assert_eq!(sink.received().len(), 1);
        let stats = assert_ledger_is_exposed(&broker);
        assert_eq!((stats.published, stats.delivered_wse), (1, 1));
    }

    /// The ledger lives on each shard; the front moves none of its
    /// counts, so it exposes none of them.
    #[test]
    fn front_exposes_no_frozen_broker_counters() {
        let net = Network::new();
        let fed = FederatedMessenger::start(&net, "http://fed", 2);
        let sink = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(fed.uri(), SubscribeRequest::push(sink.epr()))
            .unwrap();
        for i in 0..5 {
            fed.publish_on("storms", &Element::local(format!("e{i}")));
        }
        fed.flush();
        assert_eq!(sink.received().len(), 5);
        let published: u64 = fed
            .shards()
            .iter()
            .map(|s| metric(&s.metrics_text(), "wsm_published_total"))
            .sum();
        assert_eq!(published, 5, "the shards count what they ingest");
        let text = fed.metrics_text();
        for (name, _) in ledger(MediationStats::default()) {
            assert!(
                !text.lines().any(|l| l.starts_with(&format!("{name} "))),
                "the front exposes {name}:\n{text}"
            );
        }
    }

    /// One mix that moves every count: a poisoned and a twice-dropped
    /// push with fault tolerance on, a WSN publication mediated to the
    /// WS-Eventing consumer, a WSN consumer, a pulled and a flushed
    /// wrapped WS-Eventing subscriber, and a dead letter redelivered on
    /// request.
    #[test]
    fn every_stat_is_its_exposition_line() {
        let net = Network::new();
        let (broker, sink) = broker_with_wse_sink(&net);
        broker.set_fault_tolerance(Some(FaultTolerance {
            poison_budget: 1,
            ..FaultTolerance::seeded(42)
        }));
        let consumer = NotificationConsumer::start(&net, "http://nc", WsnVersion::V1_3);
        WsnClient::new(&net, WsnVersion::V1_3)
            .subscribe(broker.uri(), &WsnSubscribeRequest::new(consumer.epr()))
            .unwrap();
        let subscribe = |addr: &str, mode| {
            let epr = wsm_addressing::EndpointReference::new(addr);
            Subscriber::new(&net, WseVersion::Aug2004)
                .subscribe(broker.uri(), SubscribeRequest::push(epr).with_mode(mode))
                .unwrap()
        };
        let puller = subscribe("http://puller", DeliveryMode::Pull);
        let wrapped = EventSink::start(&net, "http://wrapped", WseVersion::Aug2004);
        subscribe("http://wrapped", DeliveryMode::Wrapped);

        net.fault_next("http://sink", 1);
        broker.publish_raw(&Element::local("poisoned"));
        net.drop_next("http://sink", 2);
        broker.publish_raw(&Element::local("dropped twice"));
        // Held behind the dropped event, then mediated by the pump.
        net.send(
            "http://broker",
            notify_envelope("storms", Element::local("mediated")),
        )
        .unwrap();
        broker.drain_redeliveries(600_000);
        let pulled = Subscriber::new(&net, WseVersion::Aug2004)
            .pull(&puller, 10)
            .unwrap();
        assert_eq!(pulled.len(), 3);
        assert_eq!(broker.flush_wrapped(), 1);
        assert!(!wrapped.received().is_empty());
        let redeliver = Envelope::new(SoapVersion::V11).with_body(Element::ns(
            wsm_messenger::render::WSM_NS,
            "RedeliverDeadLetters",
            "wsm",
        ));
        let resp = net.request("http://broker", redeliver).unwrap();
        assert_eq!(resp.body().and_then(|b| b.attr("Count")), Some("1"));
        broker.drain_redeliveries(600_000);
        assert_eq!(sink.received().len(), 3);
        assert_eq!(consumer.notifications().len(), 3);

        let stats = assert_ledger_is_exposed(&broker);
        assert_eq!(
            stats,
            MediationStats {
                published: 3,
                delivered_wse: 3,
                delivered_wsn: 3,
                mediated: 1,
                failed: 1,
                retried: 1,
                redelivered: 3,
                dead_lettered: 1,
            }
        );
    }

    /// A push attempt is a first send exactly when its event was never
    /// attempted before, whichever path sends it.
    #[test]
    fn first_and_retry_sends_are_told_apart_at_the_broker() {
        let (net, broker, sink) = fault_tolerant(3);
        let sends = || {
            let m = net.metrics();
            (
                m.counter("net_sends_first_total").get(),
                m.counter("net_sends_retry_total").get(),
            )
        };
        let (first0, retry0) = sends();
        let since = || {
            let (f, r) = sends();
            (f - first0, r - retry0)
        };

        net.drop_next("http://sink", 1);
        broker.publish_raw(&Element::local("e1"));
        broker.drain_redeliveries(60_000);
        assert_eq!(sink.received().len(), 1);
        assert_eq!(since(), (1, 1), "a dropped send, then its redelivery");

        // e2's send is dropped and held; e3 is held behind it by the
        // gate and never attempted until the pump sends it.
        net.drop_next("http://sink", 1);
        broker.publish_raw(&Element::local("e2"));
        broker.publish_raw(&Element::local("e3"));
        assert_eq!(since(), (2, 1), "e3 waits behind e2 unsent");
        broker.drain_redeliveries(60_000);
        assert_eq!(sink.received().len(), 3);
        assert_eq!(since(), (3, 2), "the pump sends e2 as a retry, e3 first");
    }
}
