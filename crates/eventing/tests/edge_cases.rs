//! Edge cases around the WS-Eventing services.

use wsm_addressing::EndpointReference;
use wsm_eventing::{
    DeliveryMode, EventSink, EventSource, Expires, Filter, SubscribeRequest, Subscriber, WseVersion,
};
use wsm_transport::{Network, TransportError};
use wsm_xml::Element;

fn setup(v: WseVersion) -> (Network, EventSource, EventSink, Subscriber) {
    let net = Network::new();
    let source = EventSource::start(&net, "http://src", v);
    let sink = EventSink::start(&net, "http://sink", v);
    let subscriber = Subscriber::new(&net, v);
    (net, source, sink, subscriber)
}

#[test]
fn absolute_expiry_subscribe() {
    let (net, source, sink, subscriber) = setup(WseVersion::Aug2004);
    net.clock().advance_ms(1_000);
    subscriber
        .subscribe(
            source.uri(),
            SubscribeRequest::push(sink.epr()).with_expires(Expires::At(2_000)),
        )
        .unwrap();
    source.publish(&Element::local("in-time"));
    net.clock().advance_ms(1_500);
    source.publish(&Element::local("too-late"));
    assert_eq!(sink.received().len(), 1);
}

#[test]
fn renew_to_indefinite() {
    let (net, source, sink, subscriber) = setup(WseVersion::Aug2004);
    let h = subscriber
        .subscribe(
            source.uri(),
            SubscribeRequest::push(sink.epr()).with_expires(Expires::Duration(100)),
        )
        .unwrap();
    // Renew with no Expires: the lease becomes indefinite.
    subscriber.renew(&h, None).unwrap();
    net.clock().advance_ms(1_000_000);
    source.publish(&Element::local("still-here"));
    assert_eq!(sink.received().len(), 1);
    assert_eq!(
        subscriber.get_status(&h).unwrap(),
        None,
        "no expiry reported"
    );
}

#[test]
fn filters_that_inspect_structure_and_text() {
    let (_net, source, sink, subscriber) = setup(WseVersion::Aug2004);
    subscriber
        .subscribe(
            source.uri(),
            SubscribeRequest::push(sink.epr()).with_filter(Filter::xpath(
                "count(/batch/item) >= 2 and contains(/batch/item[1], 'urgent')",
            )),
        )
        .unwrap();
    source.publish(
        &Element::local("batch")
            .with_child(Element::local("item").with_text("urgent: disk"))
            .with_child(Element::local("item").with_text("info: ok")),
    );
    source.publish(&Element::local("batch").with_child(Element::local("item").with_text("urgent")));
    assert_eq!(sink.received().len(), 1);
}

#[test]
fn two_sinks_one_source_mixed_modes() {
    let (net, source, push_sink, subscriber) = setup(WseVersion::Aug2004);
    let pull_sink = EventSink::start_firewalled(&net, "http://pull", WseVersion::Aug2004);
    subscriber
        .subscribe(source.uri(), SubscribeRequest::push(push_sink.epr()))
        .unwrap();
    let pull_h = subscriber
        .subscribe(
            source.uri(),
            SubscribeRequest::push(pull_sink.epr()).with_mode(DeliveryMode::Pull),
        )
        .unwrap();
    let stats = source.publish(&Element::local("e"));
    assert_eq!(stats.pushed, 1);
    assert_eq!(stats.queued, 1);
    assert_eq!(push_sink.received().len(), 1);
    assert_eq!(subscriber.pull(&pull_h, 10).unwrap().len(), 1);
}

#[test]
fn pull_respects_max_elements() {
    let (_net, source, _sink, subscriber) = setup(WseVersion::Aug2004);
    let fw = EventSink::start_firewalled(&_net, "http://fw", WseVersion::Aug2004);
    let h = subscriber
        .subscribe(
            source.uri(),
            SubscribeRequest::push(fw.epr()).with_mode(DeliveryMode::Pull),
        )
        .unwrap();
    for i in 0..10 {
        source.publish(&Element::local(format!("e{i}")));
    }
    assert_eq!(subscriber.pull(&h, 3).unwrap().len(), 3);
    assert_eq!(subscriber.pull(&h, 3).unwrap().len(), 3);
    assert_eq!(subscriber.pull(&h, 100).unwrap().len(), 4);
}

#[test]
fn subscribing_at_a_missing_source_fails_cleanly() {
    let net = Network::new();
    let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
    let err = subscriber
        .subscribe(
            "http://nowhere",
            SubscribeRequest::push(EndpointReference::new("http://s")),
        )
        .unwrap_err();
    assert!(matches!(err, TransportError::NoEndpoint(_)));
}

#[test]
fn double_unsubscribe_faults() {
    let (_net, source, sink, subscriber) = setup(WseVersion::Aug2004);
    let h = subscriber
        .subscribe(source.uri(), SubscribeRequest::push(sink.epr()))
        .unwrap();
    subscriber.unsubscribe(&h).unwrap();
    assert!(matches!(
        subscriber.unsubscribe(&h),
        Err(TransportError::Fault(_))
    ));
}

#[test]
fn jan2004_manager_is_the_source_endpoint() {
    let (_net, source, sink, subscriber) = setup(WseVersion::Jan2004);
    let h = subscriber
        .subscribe(source.uri(), SubscribeRequest::push(sink.epr()))
        .unwrap();
    assert_eq!(h.manager.address, source.uri());
    // And the id is NOT a reference parameter (01/2004 returns it as a
    // separate element).
    assert!(h.manager.reference_parameters.is_empty());
    assert!(h.manager.reference_properties.is_empty());
    subscriber
        .renew(&h, Some(Expires::Duration(1_000)))
        .unwrap();
    subscriber.unsubscribe(&h).unwrap();
}

#[test]
fn wrapped_flush_with_no_events_sends_nothing() {
    let (_net, source, sink, subscriber) = setup(WseVersion::Aug2004);
    subscriber
        .subscribe(
            source.uri(),
            SubscribeRequest::push(sink.epr()).with_mode(DeliveryMode::Wrapped),
        )
        .unwrap();
    assert_eq!(source.flush_wrapped(), 0);
    assert!(sink.received().is_empty());
}

#[test]
fn filter_rejecting_everything_never_delivers() {
    let (_net, source, sink, subscriber) = setup(WseVersion::Aug2004);
    subscriber
        .subscribe(
            source.uri(),
            SubscribeRequest::push(sink.epr()).with_filter(Filter::xpath("false()")),
        )
        .unwrap();
    for i in 0..5 {
        source.publish(&Element::local(format!("e{i}")));
    }
    assert!(sink.received().is_empty());
    assert_eq!(
        source.subscription_count(),
        1,
        "subscription stays; it just filters"
    );
}

/// An endpoint that counts the `wse:Identifier` headers of each request
/// and forwards it to `target`.
struct IdentifierSpy {
    net: Network,
    target: String,
    seen: std::sync::Mutex<Vec<usize>>,
}

impl wsm_transport::SoapHandler for IdentifierSpy {
    fn handle(
        &self,
        request: wsm_soap::Envelope,
    ) -> Result<Option<wsm_soap::Envelope>, wsm_soap::Fault> {
        let ns = WseVersion::Aug2004.ns();
        let headers = request.headers();
        let ids = headers.filter(|h| h.name.is(ns, "Identifier")).count();
        self.seen.lock().unwrap().push(ids);
        match self.net.request(&self.target, request) {
            Ok(reply) => Ok(Some(reply)),
            Err(TransportError::Fault(f)) => Err(*f),
            Err(other) => Err(wsm_soap::Fault::receiver(other.to_string())),
        }
    }
}

#[test]
fn an_aug2004_subscription_manager_carries_one_identifier() {
    let v = WseVersion::Aug2004;
    let (net, source, sink, subscriber) = setup(v);
    let mut handle = subscriber
        .subscribe(source.uri(), SubscribeRequest::push(sink.epr()))
        .unwrap();
    let identifiers = handle
        .manager
        .all_reference_data()
        .filter(|e| e.name.is(v.ns(), "Identifier"))
        .count();
    assert_eq!(identifiers, 1);

    let spy = std::sync::Arc::new(IdentifierSpy {
        net: net.clone(),
        target: handle.manager.address.clone(),
        seen: Default::default(),
    });
    net.register("http://spy", spy.clone());
    handle.manager.address = "http://spy".into();
    subscriber.unsubscribe(&handle).unwrap();
    assert_eq!(*spy.seen.lock().unwrap(), [1]);
    assert_eq!(source.subscription_count(), 0);
}
