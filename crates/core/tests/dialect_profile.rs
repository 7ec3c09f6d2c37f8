//! Each dialect's profile (`SpecDialect::profile`) against the wire.
//!
//! A Subscribe and a SubscribeResponse built by the family codecs, a
//! notification rendered by the broker, and the faults a broker answers
//! over SOAP must show every message fact the profile states: SOAP and
//! WS-Addressing versions, the body namespace, the notification's shape
//! and where its topic lands, the fault subcodes and the label. One test
//! per dialect; any change to a dialect fact must keep them green.

use wsm_eventing::{EventSource, Filter, SubscribeRequest, SubscriptionHandle, WseCodec};
use wsm_messenger::registry::{BrokerDeliveryMode, BrokerSubscription, UnifiedFilters};
use wsm_messenger::render::{render_notification, WSM_NS};
use wsm_messenger::{InternalEvent, NotificationShape, SpecDialect, WsMessenger};
use wsm_notification::{
    NotificationProducer, WsnCodec, WsnFilter, WsnSubscribeRequest, WsnVersion,
};
use wsm_soap::{Envelope, Fault};
use wsm_transport::{Network, TransportError};
use wsm_xml::Element;

const BROKER: &str = "http://broker";
const NATIVE: &str = "http://native";
const CONSUMER: &str = "http://consumer";
const TOPIC: &str = "storms";

/// A Subscribe in dialect `d` with a content filter over `xpath` (and,
/// for WS-Notification, the topic 1.0 requires).
fn subscribe(d: SpecDialect, xpath: &str) -> Envelope {
    let consumer = wsm_addressing::EndpointReference::new(CONSUMER);
    match d {
        SpecDialect::Wse(v) => WseCodec::new(v).subscribe(
            BROKER,
            &SubscribeRequest::push(consumer).with_filter(Filter::xpath(xpath)),
        ),
        SpecDialect::Wsn(v) => WsnCodec::new(v).subscribe(
            BROKER,
            &WsnSubscribeRequest::new(consumer)
                .with_filter(WsnFilter::topic(TOPIC))
                .with_filter(WsnFilter::content(xpath)),
        ),
    }
}

/// The SubscribeResponse for subscription `id` at `manager`.
fn subscribe_response(d: SpecDialect, manager: &str, id: &str) -> Envelope {
    match d {
        SpecDialect::Wse(v) => WseCodec::new(v).subscribe_response(&SubscriptionHandle {
            manager: d.manager_epr(manager, id),
            id: id.into(),
            expires: None,
            version: v,
        }),
        SpecDialect::Wsn(v) => WsnCodec::new(v).subscribe_response(manager, id, 0, None),
    }
}

/// An Unsubscribe (WSRF Destroy in WSN 1.0) for subscription `id`.
fn unsubscribe(d: SpecDialect, manager: &str, id: &str) -> Envelope {
    let epr = d.manager_epr(manager, id);
    match d {
        SpecDialect::Wse(v) => WseCodec::new(v).unsubscribe(&SubscriptionHandle {
            manager: epr,
            id: id.into(),
            expires: None,
            version: v,
        }),
        SpecDialect::Wsn(WsnVersion::V1_0) => WsnCodec::new(WsnVersion::V1_0).wsrf_destroy(&epr),
        SpecDialect::Wsn(v) => WsnCodec::new(v).unsubscribe(&epr),
    }
}

/// A request for an operation the dialect does not define, in its own
/// namespace: WS-Eventing has no pause, WS-Notification no GetStatus.
fn undefined_operation(d: SpecDialect) -> Envelope {
    let local = match d {
        SpecDialect::Wse(_) => "PauseSubscription",
        SpecDialect::Wsn(_) => "GetStatus",
    };
    Envelope::new(d.profile().soap).with_body(Element::ns(d.profile().ns, local, "x"))
}

/// The broker's rendering of one topic publication for a subscription
/// in `d`.
fn notification(d: SpecDialect, use_raw: bool) -> Envelope {
    let sub = BrokerSubscription {
        id: "s-1".into(),
        spec: d,
        consumer: wsm_addressing::EndpointReference::new(CONSUMER),
        end_to: None,
        filters: UnifiedFilters::default(),
        mode: BrokerDeliveryMode::Push,
        use_raw,
    };
    let event = InternalEvent::on_topic(TOPIC, Element::ns("urn:wx", "alert", "wx"));
    let manager = d.manager_epr("http://broker/subscriptions", "s-1");
    render_notification(&sub, &event, BROKER, &manager)
}

/// The fault a broker answers `request` with.
fn fault(net: &Network, to: &str, request: Envelope) -> Fault {
    match net.request(to, request) {
        Err(TransportError::Fault(f)) => *f,
        other => panic!("expected a fault, got {other:?}"),
    }
}

/// Every envelope `d` sends states the profile's SOAP and WS-Addressing
/// versions: the envelope's own, and the namespace of its `wsa:Action`.
fn assert_versions(d: SpecDialect, what: &str, env: &Envelope) {
    let p = d.profile();
    assert_eq!(env.version(), p.soap, "{} {what}: SOAP", p.label);
    let action = env.headers().find(|h| h.name.local == "Action");
    let action = action.unwrap_or_else(|| panic!("{} {what}: no wsa:Action", p.label));
    assert_eq!(
        action.name.ns.as_deref(),
        Some(p.wsa.ns()),
        "{} {what}: WS-Addressing",
        p.label
    );
}

fn profile_agrees_with_the_wire(d: SpecDialect) {
    let p = d.profile();

    // Subscribe and SubscribeResponse: versions, body namespace, and
    // the namespace detection attributes to the dialect.
    let sub = subscribe(d, "/alert");
    let resp = subscribe_response(d, "http://broker/subscriptions", "s-1");
    for (what, env) in [("Subscribe", &sub), ("SubscribeResponse", &resp)] {
        assert_versions(d, what, env);
        let body = env.body().expect("body");
        assert_eq!(body.name.ns.as_deref(), Some(p.ns), "{} {what}", p.label);
        assert_eq!(SpecDialect::detect(env), Some(d), "{} {what}", p.label);
    }

    // The notification's shape, and where its topic landed.
    let wrapped = notification(d, false);
    assert_versions(d, "notification", &wrapped);
    let body = wrapped.body().expect("body");
    let topic_header = wrapped.header(WSM_NS, "Topic").map(|t| t.text());
    let topic_in_body = body.descendant_ns(p.ns, "Topic").map(|t| t.text());
    match p.notification {
        NotificationShape::RawWithTopicHeader => {
            assert!(body.name.is("urn:wx", "alert"), "{}: raw body", p.label);
            assert_eq!(topic_header.as_deref(), Some(TOPIC), "{}", p.label);
            assert_eq!(topic_in_body, None, "{}", p.label);
        }
        NotificationShape::Notify => {
            assert!(body.name.is(p.ns, "Notify"), "{}: Notify body", p.label);
            assert_eq!(topic_in_body.as_deref(), Some(TOPIC), "{}", p.label);
            assert_eq!(topic_header, None, "{}", p.label);
            // UseRaw: the bare payload, no topic anywhere.
            let raw = notification(d, true);
            assert_versions(d, "raw notification", &raw);
            assert!(raw.body().expect("body").name.is("urn:wx", "alert"));
            assert!(raw.header(WSM_NS, "Topic").is_none(), "{}", p.label);
        }
    }

    // The brokered namespace: where WS-BrokeredNotification's
    // operations live; WS-Eventing has none.
    let brokered = match d {
        SpecDialect::Wse(_) => None,
        SpecDialect::Wsn(v) => {
            let create = WsnCodec::new(v).create_pull_point(BROKER);
            create
                .body()
                .and_then(|b| b.name.ns.as_deref().map(str::to_owned))
        }
    };
    assert_eq!(brokered.as_deref(), p.brokered_ns, "{}", p.label);

    // The faults, over SOAP, at the broker and at the family's own
    // service (an `EventSource` or a `NotificationProducer`, which state
    // their subcodes themselves): a filter neither can compile and a
    // subscription neither knows.
    let net = Network::new();
    let broker = WsMessenger::start(&net, BROKER);
    let (native, native_manager) = match d {
        SpecDialect::Wse(v) => {
            let source = EventSource::start(&net, NATIVE, v);
            (source.uri().to_owned(), source.manager_uri().to_owned())
        }
        SpecDialect::Wsn(v) => {
            let producer = NotificationProducer::start(&net, NATIVE, v);
            (producer.uri().to_owned(), producer.manager_uri().to_owned())
        }
    };
    for (to, manager) in [(BROKER, broker.manager_uri()), (&native, &native_manager)] {
        let bad_filter = fault(&net, to, subscribe(d, "/alert["));
        assert_eq!(
            bad_filter.subcode.as_deref(),
            Some(p.invalid_filter_subcode),
            "{} at {to}: invalid filter ({})",
            p.label,
            bad_filter.reason
        );
        let id = "no-such-subscription";
        let unknown = fault(&net, manager, unsubscribe(d, manager, id));
        assert_eq!(
            unknown.subcode.as_deref(),
            p.unknown_subscription_subcode,
            "{} at {manager}: unknown subscription ({})",
            p.label,
            unknown.reason
        );
        assert!(unknown.reason.contains(id), "{}", unknown.reason);
    }

    // The label, in the broker's refusal of an operation the dialect
    // lacks.
    let undefined = fault(&net, BROKER, undefined_operation(d));
    assert!(
        undefined.reason.starts_with(p.label),
        "{}: {}",
        p.label,
        undefined.reason
    );
}

#[test]
fn wse_jan2004_profile_agrees_with_the_wire() {
    profile_agrees_with_the_wire(SpecDialect::ALL[0]);
}

#[test]
fn wse_aug2004_profile_agrees_with_the_wire() {
    profile_agrees_with_the_wire(SpecDialect::ALL[1]);
}

#[test]
fn wsn_1_0_profile_agrees_with_the_wire() {
    profile_agrees_with_the_wire(SpecDialect::ALL[2]);
}

#[test]
fn wsn_1_3_profile_agrees_with_the_wire() {
    profile_agrees_with_the_wire(SpecDialect::ALL[3]);
}
