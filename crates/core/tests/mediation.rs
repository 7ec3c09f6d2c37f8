//! End-to-end mediation tests: the §VII claims, exercised over the wire.

use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_eventing::{
    DeliveryMode, EventSink, Expires, Filter, SubscribeRequest, Subscriber, WseVersion,
};
use wsm_jms::JmsProvider;
use wsm_messenger::{FaultTolerance, InternalEvent, JmsBackend, SpecDialect, WsMessenger};
use wsm_notification::{
    NotificationConsumer, Termination, WsnClient, WsnCodec, WsnFilter, WsnSubscribeRequest,
    WsnVersion,
};
use wsm_transport::Network;
use wsm_xml::Element;

fn setup() -> (Network, WsMessenger) {
    let net = Network::new();
    let broker = WsMessenger::start(&net, "http://broker");
    (net, broker)
}

#[test]
fn wsn_publisher_reaches_wse_consumer() {
    let (net, broker) = setup();
    let sink = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(
            broker.uri(),
            SubscribeRequest::push(sink.epr()).with_filter(Filter::xpath("/alert[@sev > 2]")),
        )
        .unwrap();

    // A WSN publisher posts a wrapped Notify to the broker.
    let codec = WsnCodec::new(WsnVersion::V1_3);
    let msg = wsm_notification::NotificationMessage {
        topic: wsm_topics::TopicPath::parse("storms"),
        producer: Some(EndpointReference::new("http://publisher")),
        subscription: None,
        message: Element::local("alert").with_attr("sev", "4"),
    };
    net.send(
        broker.uri(),
        codec.notify(&EndpointReference::new(broker.uri()), &[msg]),
    )
    .unwrap();

    let got = sink.received();
    assert_eq!(got.len(), 1, "WSN publication delivered to WSE consumer");
    assert_eq!(got[0].attr("sev"), Some("4"));
    let stats = broker.stats();
    assert_eq!(stats.delivered_wse, 1);
    assert_eq!(
        stats.mediated, 1,
        "cross-family delivery counted as mediated"
    );
}

#[test]
fn wse_raw_publication_reaches_wsn_consumer() {
    let (net, broker) = setup();
    let consumer = NotificationConsumer::start(&net, "http://nc", WsnVersion::V1_3);
    WsnClient::new(&net, WsnVersion::V1_3)
        .subscribe(
            broker.uri(),
            &WsnSubscribeRequest::new(consumer.epr()).with_filter(WsnFilter::content("/job")),
        )
        .unwrap();

    // A WSE-style producer posts the raw payload.
    broker.publish_event(
        InternalEvent::raw(Element::local("job").with_text("done"))
            .with_origin(SpecDialect::Wse(WseVersion::Aug2004)),
    );

    let got = consumer.notifications();
    assert_eq!(
        got.len(),
        1,
        "raw publication wrapped into Notify for WSN consumer"
    );
    assert_eq!(got[0].message.text(), "done");
    assert!(
        got[0].producer.is_some(),
        "broker fills in a producer reference"
    );
    assert_eq!(broker.stats().mediated, 1);
}

#[test]
fn both_families_subscribe_side_by_side() {
    let (net, broker) = setup();
    let wse_sink = EventSink::start(&net, "http://s1", WseVersion::Aug2004);
    let wse_old_sink = EventSink::start(&net, "http://s2", WseVersion::Jan2004);
    let wsn_consumer = NotificationConsumer::start(&net, "http://s3", WsnVersion::V1_3);
    let wsn_old_consumer = NotificationConsumer::start(&net, "http://s4", WsnVersion::V1_0);

    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(broker.uri(), SubscribeRequest::push(wse_sink.epr()))
        .unwrap();
    Subscriber::new(&net, WseVersion::Jan2004)
        .subscribe(broker.uri(), SubscribeRequest::push(wse_old_sink.epr()))
        .unwrap();
    WsnClient::new(&net, WsnVersion::V1_3)
        .subscribe(broker.uri(), &WsnSubscribeRequest::new(wsn_consumer.epr()))
        .unwrap();
    WsnClient::new(&net, WsnVersion::V1_0)
        .subscribe(
            broker.uri(),
            &WsnSubscribeRequest::new(wsn_old_consumer.epr()).with_filter(WsnFilter::topic("t")),
        )
        .unwrap();
    assert_eq!(broker.subscription_count(), 4);

    broker.publish_on("t", &Element::local("ev"));
    assert_eq!(wse_sink.received().len(), 1);
    assert_eq!(wse_old_sink.received().len(), 1);
    assert_eq!(wsn_consumer.notifications().len(), 1);
    assert_eq!(wsn_old_consumer.notifications().len(), 1);
    let stats = broker.stats();
    assert_eq!(stats.delivered_wse, 2);
    assert_eq!(stats.delivered_wsn, 2);
}

#[test]
fn responses_follow_request_specification() {
    // The subscribe response to a WSE 08/2004 client must carry the id
    // in ReferenceParameters; to a WSN 1.0 client in ReferenceProperties.
    let (net, broker) = setup();
    let wse_codec = wsm_eventing::WseCodec::new(WseVersion::Aug2004);
    let env = wse_codec.subscribe(
        broker.uri(),
        &SubscribeRequest::push(EndpointReference::new("http://sink")),
    );
    let resp = net.request(broker.uri(), env).unwrap();
    let xml = resp.to_xml();
    assert!(xml.contains(WseVersion::Aug2004.ns()), "{xml}");
    assert!(xml.contains("ReferenceParameters"), "{xml}");

    let wsn_codec = WsnCodec::new(WsnVersion::V1_0);
    let env = wsn_codec.subscribe(
        broker.uri(),
        &WsnSubscribeRequest::new(EndpointReference::new("http://sink2"))
            .with_filter(WsnFilter::topic("t")),
    );
    let resp = net.request(broker.uri(), env).unwrap();
    let xml = resp.to_xml();
    assert!(xml.contains(WsnVersion::V1_0.ns()), "{xml}");
    assert!(xml.contains("ReferenceProperties"), "{xml}");
}

#[test]
fn wse_management_against_the_broker() {
    let (net, broker) = setup();
    let sink = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
    let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
    let h = subscriber
        .subscribe(
            broker.uri(),
            SubscribeRequest::push(sink.epr()).with_expires(Expires::Duration(60_000)),
        )
        .unwrap();
    assert_eq!(
        subscriber.get_status(&h).unwrap(),
        Some(Expires::At(60_000))
    );
    subscriber
        .renew(&h, Some(Expires::Duration(120_000)))
        .unwrap();
    assert_eq!(
        subscriber.get_status(&h).unwrap(),
        Some(Expires::At(120_000))
    );
    subscriber.unsubscribe(&h).unwrap();
    assert_eq!(broker.subscription_count(), 0);
}

#[test]
fn wsn_13_and_10_management_against_the_broker() {
    let (net, broker) = setup();
    // 1.3: native ops.
    let c13 = NotificationConsumer::start(&net, "http://c13", WsnVersion::V1_3);
    let client13 = WsnClient::new(&net, WsnVersion::V1_3);
    let h13 = client13
        .subscribe(
            broker.uri(),
            &WsnSubscribeRequest::new(c13.epr()).with_termination(Termination::Duration(1_000)),
        )
        .unwrap();
    client13.renew(&h13, Termination::Duration(5_000)).unwrap();
    client13.pause(&h13).unwrap();
    broker.publish_raw(&Element::local("x"));
    assert!(c13.notifications().is_empty(), "paused");
    client13.resume(&h13).unwrap();
    broker.publish_raw(&Element::local("y"));
    assert_eq!(c13.notifications().len(), 1);
    client13.unsubscribe(&h13).unwrap();

    // 1.0: WSRF ops.
    let c10 = NotificationConsumer::start(&net, "http://c10", WsnVersion::V1_0);
    let client10 = WsnClient::new(&net, WsnVersion::V1_0);
    let h10 = client10
        .subscribe(
            broker.uri(),
            &WsnSubscribeRequest::new(c10.epr()).with_filter(WsnFilter::topic("t")),
        )
        .unwrap();
    client10.renew(&h10, Termination::At(9_000)).unwrap(); // → SetTerminationTime
    let tt = client10.get_status_wsrf(&h10, "TerminationTime").unwrap();
    assert_eq!(tt.as_deref(), Some("1970-01-01T00:00:09Z"));
    client10.unsubscribe(&h10).unwrap(); // → Destroy
    assert_eq!(broker.subscription_count(), 0);
}

#[test]
fn wse_pull_mode_through_broker() {
    let (net, broker) = setup();
    let fw_sink = EventSink::start_firewalled(&net, "http://fw", WseVersion::Aug2004);
    let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
    let h = subscriber
        .subscribe(
            broker.uri(),
            SubscribeRequest::push(fw_sink.epr()).with_mode(DeliveryMode::Pull),
        )
        .unwrap();
    broker.publish_on("t", &Element::local("e1"));
    broker.publish_raw(&Element::local("e2"));
    assert!(fw_sink.received().is_empty());
    let events = subscriber.pull(&h, 10).unwrap();
    assert_eq!(events.len(), 2);
}

#[test]
fn wse_wrapped_mode_through_broker() {
    let (net, broker) = setup();
    let sink = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(
            broker.uri(),
            SubscribeRequest::push(sink.epr()).with_mode(DeliveryMode::Wrapped),
        )
        .unwrap();
    broker.publish_raw(&Element::local("a"));
    broker.publish_raw(&Element::local("b"));
    assert!(sink.received().is_empty());
    assert_eq!(broker.flush_wrapped(), 1);
    assert_eq!(sink.received().len(), 2);
}

#[test]
fn failed_wrapped_flush_expires_its_events() {
    let (net, broker) = setup();
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(
            broker.uri(),
            SubscribeRequest::push(EndpointReference::new("http://nowhere"))
                .with_mode(DeliveryMode::Wrapped),
        )
        .unwrap();
    broker.publish_raw(&Element::local("a"));
    broker.publish_raw(&Element::local("b"));
    assert_eq!(broker.flush_wrapped(), 0);
    assert_eq!(broker.subscription_count(), 0, "the failed batch evicts");
    let stories = broker.delivery_stories();
    assert_eq!(stories.len(), 2, "one story per buffered event");
    assert!(stories
        .iter()
        .all(|s| s.outcome == Some(wsm_messenger::Outcome::Expired)));
}

#[test]
fn delivery_failure_ends_wse_subscription_with_notice() {
    let (net, broker) = setup();
    let end_sink = EventSink::start(&net, "http://end", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(
            broker.uri(),
            SubscribeRequest::push(EndpointReference::new("http://dead"))
                .with_end_to(end_sink.epr()),
        )
        .unwrap();
    broker.publish_raw(&Element::local("x"));
    assert_eq!(broker.subscription_count(), 0);
    let ends = end_sink.ends();
    assert_eq!(ends.len(), 1);
    assert_eq!(ends[0].0, wsm_eventing::EndStatus::DeliveryFailure);
    assert_eq!(broker.stats().failed, 1);
}

#[test]
fn get_current_message_served_cross_spec() {
    let (net, broker) = setup();
    // Publication arrives via WSE-style raw publish with a topic.
    broker.publish_on("storms", &Element::local("latest").with_text("v2"));
    let client = WsnClient::new(&net, WsnVersion::V1_3);
    let topic = wsm_topics::TopicExpression::concrete("storms").unwrap();
    let got = client
        .get_current_message(broker.uri(), &topic)
        .unwrap()
        .unwrap();
    assert_eq!(got.text(), "v2");
}

#[test]
fn jms_backend_carries_mediated_traffic() {
    let net = Network::new();
    let provider = JmsProvider::new();
    let broker = WsMessenger::start_with_backend(
        &net,
        "http://broker",
        Arc::new(JmsBackend::new(provider.clone(), "wsm.relay")),
    );
    assert_eq!(broker.backend_name(), "jms");
    let sink = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
        .unwrap();
    broker.publish_on("t", &Element::local("through-jms").with_text("ok"));
    let got = sink.received();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].text(), "ok");
    // The relay topic exists in the JMS provider (the wrap is real).
    assert_eq!(provider.subscriber_count("wsm.relay"), 1);
}

#[test]
fn expiry_is_honored_for_both_families() {
    let (net, broker) = setup();
    let sink = EventSink::start(&net, "http://s", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(
            broker.uri(),
            SubscribeRequest::push(sink.epr()).with_expires(Expires::Duration(500)),
        )
        .unwrap();
    let consumer = NotificationConsumer::start(&net, "http://c", WsnVersion::V1_3);
    WsnClient::new(&net, WsnVersion::V1_3)
        .subscribe(
            broker.uri(),
            &WsnSubscribeRequest::new(consumer.epr()).with_termination(Termination::Duration(500)),
        )
        .unwrap();
    net.clock().advance_ms(1_000);
    broker.publish_raw(&Element::local("late"));
    assert!(sink.received().is_empty());
    assert!(consumer.notifications().is_empty());
    assert_eq!(broker.subscription_count(), 0);
}

#[test]
fn publisher_registration_accepted() {
    let (net, broker) = setup();
    let codec = WsnCodec::new(WsnVersion::V1_3);
    let env = codec.register_publisher(
        broker.uri(),
        Some(&EndpointReference::new("http://pub")),
        &[wsm_topics::TopicExpression::concrete("storms").unwrap()],
        false,
    );
    let resp = net.request(broker.uri(), env).unwrap();
    assert!(resp.to_xml().contains("PublisherRegistrationReference"));
    assert_eq!(broker.publisher_registration_count(), 1);
}

#[test]
fn topic_and_content_filters_combine_in_mediation() {
    let (net, broker) = setup();
    let consumer = NotificationConsumer::start(&net, "http://c", WsnVersion::V1_3);
    WsnClient::new(&net, WsnVersion::V1_3)
        .subscribe(
            broker.uri(),
            &WsnSubscribeRequest::new(consumer.epr())
                .with_filter(WsnFilter::topic("jobs"))
                .with_filter(WsnFilter::content("/job[@state='done']")),
        )
        .unwrap();
    broker.publish_on("jobs", &Element::local("job").with_attr("state", "running"));
    broker.publish_on("jobs", &Element::local("job").with_attr("state", "done"));
    broker.publish_on("other", &Element::local("job").with_attr("state", "done"));
    assert_eq!(consumer.notifications().len(), 1);
}

#[test]
fn unknown_message_treated_as_raw_publication() {
    let (net, broker) = setup();
    let sink = EventSink::start(&net, "http://s", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
        .unwrap();
    // A bare application payload posted straight to the broker.
    let env = wsm_soap::Envelope::new(wsm_soap::SoapVersion::V11)
        .with_body(Element::ns("urn:app", "reading", "app").with_text("42"));
    net.send(broker.uri(), env).unwrap();
    assert_eq!(sink.received().len(), 1);
    assert_eq!(sink.received()[0].text(), "42");
}

#[test]
fn retry_policy_absorbs_transient_loss() {
    let (net, broker) = setup();
    broker.set_fault_tolerance(Some(FaultTolerance::default()));
    let sink = EventSink::start(&net, "http://flaky", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
        .unwrap();
    // Two transient drops: the first send and the first redelivery are
    // lost, the second redelivery lands.
    net.drop_next("http://flaky", 2);
    broker.publish_raw(&Element::local("e1"));
    assert!(sink.received().is_empty(), "the first send was dropped");
    broker.drain_redeliveries(60_000);
    assert_eq!(sink.received().len(), 1, "redelivery delivered it");
    assert_eq!(broker.subscription_count(), 1, "subscription survives");
    let stats = broker.stats();
    assert_eq!(stats.retried, 1, "one failed redelivery attempt");
    assert_eq!(stats.redelivered, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn no_retry_by_default() {
    let (net, broker) = setup();
    let sink = EventSink::start(&net, "http://once", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
        .unwrap();
    net.drop_next("http://once", 1);
    broker.publish_raw(&Element::local("e"));
    assert_eq!(broker.subscription_count(), 0, "single attempt by default");
    assert_eq!(broker.stats().retried, 0);
}

#[test]
fn must_understand_header_in_unknown_namespace_faults() {
    let (net, broker) = setup();
    let env =
        wsm_soap::Envelope::new(wsm_soap::SoapVersion::V12).with_body(Element::local("payload"));
    // Mark an alien header mustUnderstand.
    let alien = env.must_understand(Element::ns("urn:wise-security", "Token", "sec"));
    let env = env.with_header(alien);
    match net.send(broker.uri(), env) {
        Err(wsm_transport::TransportError::Fault(f)) => {
            assert_eq!(f.code, wsm_soap::FaultCode::MustUnderstand);
        }
        other => panic!("expected MustUnderstand fault, got {other:?}"),
    }
    // WSA headers marked mustUnderstand are fine — the broker speaks WSA.
    let mut env2 =
        wsm_soap::Envelope::new(wsm_soap::SoapVersion::V12).with_body(Element::local("payload"));
    let wsa_hdr = env2.must_understand(
        Element::ns("http://www.w3.org/2005/08/addressing", "Action", "wsa").with_text("urn:a"),
    );
    env2.add_header(wsa_hdr);
    net.send(broker.uri(), env2).unwrap();
    assert_eq!(broker.stats().published, 1);
}
