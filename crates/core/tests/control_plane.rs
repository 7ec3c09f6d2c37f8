//! The control plane, characterised: every management operation in each
//! of the four dialects, sent over SOAP to one `WsMessenger` and to a
//! three-shard `FederatedMessenger` front.
//!
//! In both setups an operation the dialect defines must succeed with the
//! same reply shape and the same effect on later deliveries, and an
//! operation it does not define must fault. The version gaps are paper
//! Table 2's: WS-Eventing has no Pause/Resume, GetCurrentMessage or
//! RegisterPublisher; WS-Eventing 01/2004 has no GetStatus and no pull
//! delivery; WS-BaseNotification 1.0 renews and unsubscribes only
//! through WSRF; WS-Notification has no GetStatus and no Pull; and only
//! WS-Notification 1.3 has PullPoints (Table 1).
//!
//! The two WS-BrokeredNotification features a broker serves are driven
//! end to end in both setups too: a PullPoint from `CreatePullPoint`, and
//! a demand-based publisher that publishes only while a subscription
//! wants its topics.
//!
//! Any change to a broker or front handler must keep this file green.

use wsm_addressing::{EndpointReference, MessageHeaders};
use wsm_eventing::{
    DeliveryMode, EventSink, Expires, SubscribeRequest, Subscriber, SubscriptionHandle, WseCodec,
    WseVersion,
};
use wsm_messenger::render::WSM_NS;
use wsm_messenger::{FaultTolerance, FederatedMessenger, WsMessenger};
use wsm_notification::{
    NotificationConsumer, NotificationProducer, PullPoint, Termination, WsnClient, WsnCodec,
    WsnFilter, WsnSubscribeRequest, WsnVersion,
};
use wsm_soap::{Envelope, FaultCode, SoapVersion};
use wsm_topics::TopicExpression;
use wsm_transport::{Network, TransportError};
use wsm_wsrf::{WSRF_RL_NS, WSRF_RP_NS};
use wsm_xml::Element;

const BROKER: &str = "http://broker";
const TOPIC: &str = "storms";

/// The system under test.
enum Setup {
    Broker(WsMessenger),
    Front(FederatedMessenger),
}

impl Setup {
    fn start(net: &Network, federated: bool) -> Self {
        if federated {
            Setup::Front(FederatedMessenger::start(net, BROKER, 3))
        } else {
            Setup::Broker(WsMessenger::start(net, BROKER))
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Setup::Broker(_) => "broker",
            Setup::Front(_) => "front",
        }
    }

    fn publish(&self, payload: &Element) {
        match self {
            Setup::Broker(b) => b.publish_on(TOPIC, payload),
            Setup::Front(f) => f.publish_on(TOPIC, payload),
        };
    }

    fn set_fault_tolerance(&self, config: FaultTolerance) {
        match self {
            Setup::Broker(b) => b.set_fault_tolerance(Some(config)),
            Setup::Front(f) => f.set_fault_tolerance(Some(config)),
        }
    }

    fn drain_redeliveries(&self) {
        match self {
            Setup::Broker(b) => b.drain_redeliveries(600_000),
            Setup::Front(f) => f.drain_redeliveries(600_000),
        };
    }

    fn dead_letter_count(&self) -> usize {
        match self {
            Setup::Broker(b) => b.dead_letter_count(),
            Setup::Front(f) => f.dead_letter_count(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Dialect {
    Wse(WseVersion),
    Wsn(WsnVersion),
}

/// Column order of [`DEFINED`].
const DIALECTS: [Dialect; 4] = [
    Dialect::Wse(WseVersion::Jan2004),
    Dialect::Wse(WseVersion::Aug2004),
    Dialect::Wsn(WsnVersion::V1_0),
    Dialect::Wsn(WsnVersion::V1_3),
];

/// Which dialects define each operation, in [`DIALECTS`] order. WSE
/// 01/2004 `Pull` is left out here: it is `wse_jan2004_pull_faults`.
const DEFINED: &[(&str, [bool; 4])] = &[
    ("Subscribe", [true, true, true, true]),
    ("Renew", [true, true, false, true]),
    ("SetTerminationTime", [false, false, true, true]),
    ("GetStatus", [false, true, false, false]),
    ("GetResourceProperty", [false, false, true, true]),
    ("PauseSubscription", [false, false, true, true]),
    ("ResumeSubscription", [false, false, true, true]),
    ("GetCurrentMessage", [false, false, true, true]),
    ("RegisterPublisher", [false, false, true, true]),
    ("CreatePullPoint", [false, false, false, true]),
    ("Pull", [false, true, false, false]),
    ("Unsubscribe", [true, true, false, true]),
    ("Destroy", [false, false, true, true]),
];

/// A subscription as its subscriber holds it.
enum Handle {
    Wse(SubscriptionHandle),
    Wsn(EndpointReference),
}

impl Handle {
    fn manager(&self) -> &str {
        match self {
            Handle::Wse(h) => &h.manager.address,
            Handle::Wsn(r) => &r.address,
        }
    }
}

/// A consumer endpoint of the dialect's family.
enum Consumer {
    Wse(EventSink),
    Wsn(NotificationConsumer),
}

impl Consumer {
    fn start(net: &Network, d: Dialect) -> Self {
        match d {
            Dialect::Wse(v) => Consumer::Wse(EventSink::start(net, "http://consumer", v)),
            Dialect::Wsn(v) => {
                Consumer::Wsn(NotificationConsumer::start(net, "http://consumer", v))
            }
        }
    }

    fn epr(&self) -> EndpointReference {
        match self {
            Consumer::Wse(s) => s.epr(),
            Consumer::Wsn(c) => c.epr(),
        }
    }

    fn received(&self) -> usize {
        match self {
            Consumer::Wse(s) => s.received().len(),
            Consumer::Wsn(c) => c.notifications().len(),
        }
    }
}

/// The element names of a reply, nested, with leaf text — except the
/// addresses and subscription ids, which name the answering broker.
fn shape(e: &Element) -> String {
    let local = e.name.local.as_str();
    let children: Vec<String> = e.elements().map(shape).collect();
    if !children.is_empty() {
        return format!("{local}({})", children.join(","));
    }
    let text = e.text();
    match local {
        "Address" | "Identifier" | "Id" | "SubscriptionId" => format!("{local}=#"),
        _ if text.trim().is_empty() => local.to_string(),
        _ => format!("{local}={}", text.trim()),
    }
}

/// `Some(shape)` of a reply, `None` for a SOAP fault; any other
/// transport error is reported as such (and matches no expectation).
fn outcome(result: Result<Envelope, TransportError>) -> Option<String> {
    match result {
        Ok(reply) => Some(reply.body().map_or_else(|| "(empty)".into(), shape)),
        Err(TransportError::Fault(_)) => None,
        Err(other) => Some(format!("transport error: {other}")),
    }
}

/// Subscribe at the broker URI; returns the handle and the reply's shape.
fn subscribe(
    net: &Network,
    d: Dialect,
    consumer: EndpointReference,
    lease: bool,
) -> (Handle, String) {
    match d {
        Dialect::Wse(v) => {
            let codec = WseCodec::new(v);
            let mut req = SubscribeRequest::push(consumer);
            if lease {
                req = req.with_expires(Expires::Duration(1_000));
            } else if v == WseVersion::Aug2004 {
                req = req.with_mode(DeliveryMode::Pull);
            }
            let reply = net
                .request(BROKER, codec.subscribe(BROKER, &req))
                .expect("WSE Subscribe");
            let handle = codec.parse_subscribe_response(&reply).expect("handle");
            (
                Handle::Wse(handle),
                shape(reply.body().expect("reply body")),
            )
        }
        Dialect::Wsn(v) => {
            let codec = WsnCodec::new(v);
            let mut req = WsnSubscribeRequest::new(consumer).with_filter(WsnFilter::topic(TOPIC));
            if lease {
                // 1.0 accepts only absolute termination times.
                req = req.with_termination(Termination::At(1_000));
            }
            let reply = net
                .request(BROKER, codec.subscribe(BROKER, &req))
                .expect("WSN Subscribe");
            let (reference, _) = codec.parse_subscribe_response(&reply).expect("reference");
            (
                Handle::Wsn(reference),
                shape(reply.body().expect("reply body")),
            )
        }
    }
}

/// A WS-Eventing request for an operation its codec does not build: the
/// body plus the management addressing every WSE request carries.
fn wse_request(
    v: WseVersion,
    handle: &SubscriptionHandle,
    op: &str,
    mut body: Element,
) -> Envelope {
    if v == WseVersion::Jan2004 {
        body.push(Element::ns(v.ns(), "Id", "wse").with_text(handle.id.as_str()));
    }
    let mut env = Envelope::new(SoapVersion::V12).with_body(body);
    MessageHeaders::to_epr(&handle.manager, v.action(op)).apply(&mut env, v.wsa());
    env
}

fn set_termination_body() -> Element {
    Element::ns(WSRF_RL_NS, "SetTerminationTime", "wsrf-rl").with_child(
        Element::ns(WSRF_RL_NS, "RequestedTerminationTime", "wsrf-rl")
            .with_text(Termination::At(60_000).to_lexical()),
    )
}

/// The request for operation `op` on `handle` in dialect `d`, and the
/// URI it goes to.
fn request(d: Dialect, handle: &Handle, op: &str) -> (String, Envelope) {
    let topic = TopicExpression::concrete(TOPIC).expect("concrete topic");
    let to_broker = matches!(
        op,
        "GetCurrentMessage" | "RegisterPublisher" | "CreatePullPoint"
    );
    let to = if to_broker { BROKER } else { handle.manager() }.to_string();
    let env = match (d, handle) {
        (Dialect::Wse(v), Handle::Wse(h)) => {
            let codec = WseCodec::new(v);
            let el = |local: &str| Element::ns(v.ns(), local, "wse");
            match op {
                "Renew" => codec.renew(h, Some(Expires::Duration(60_000))),
                "GetStatus" => codec.get_status(h),
                "Pull" => codec.pull(h, 10),
                "Unsubscribe" => codec.unsubscribe(h),
                "SetTerminationTime" => wse_request(v, h, op, set_termination_body()),
                "Destroy" => wse_request(v, h, op, Element::ns(WSRF_RL_NS, op, "wsrf-rl")),
                "GetResourceProperty" => wse_request(
                    v,
                    h,
                    op,
                    Element::ns(WSRF_RP_NS, op, "wsrf-rp").with_text("wsnt:TerminationTime"),
                ),
                "GetCurrentMessage" | "RegisterPublisher" | "CreatePullPoint" => {
                    let body = el(op).with_child(el("Topic").with_text(TOPIC));
                    let mut env = Envelope::new(SoapVersion::V12).with_body(body);
                    MessageHeaders::request(BROKER, v.action(op)).apply(&mut env, v.wsa());
                    env
                }
                _ => wse_request(v, h, op, el(op)),
            }
        }
        (Dialect::Wsn(v), Handle::Wsn(r)) => {
            let codec = WsnCodec::new(v);
            let el = |local: &str| Element::ns(v.ns(), local, "wsnt");
            match op {
                "Renew" => codec.renew(r, Termination::Duration(60_000)),
                "Unsubscribe" => codec.unsubscribe(r),
                "PauseSubscription" => codec.pause(r),
                "ResumeSubscription" => codec.resume(r),
                "SetTerminationTime" => codec.wsrf_set_termination_time(r, Termination::At(60_000)),
                "Destroy" => codec.wsrf_destroy(r),
                "GetResourceProperty" => codec.wsrf_get_property(r, "TerminationTime"),
                "GetCurrentMessage" => codec.get_current_message(BROKER, &topic),
                "RegisterPublisher" => codec.register_publisher(
                    BROKER,
                    Some(&EndpointReference::new("http://publisher")),
                    &[topic],
                    false,
                ),
                "CreatePullPoint" => codec.create_pull_point(BROKER),
                _ => codec.management(r, op, el(op)),
            }
        }
        _ => unreachable!("a handle is always of its dialect's family"),
    };
    (to, env)
}

/// Drive every operation of dialect `d` against a fresh setup. Returns
/// `(row, outcome)` in order: each operation's reply shape (or `None`
/// for a fault), interleaved with the deliveries a publication then
/// makes — the effect of the operations before it.
fn exercise(federated: bool, d: Dialect) -> (&'static str, Vec<(String, Option<String>)>) {
    let net = Network::new();
    let setup = Setup::start(&net, federated);
    let consumer = Consumer::start(&net, d);
    let mut rows = Vec::new();
    let mut published = 0;
    let mut publish = |rows: &mut Vec<(String, Option<String>)>, after: &str| {
        let before = consumer.received();
        published += 1;
        setup.publish(&Element::local("event").with_attr("n", published.to_string()));
        let got = consumer.received() - before;
        rows.push((format!("delivered after {after}"), Some(got.to_string())));
    };
    let call = |rows: &mut Vec<(String, Option<String>)>, handle: &Handle, op: &str| {
        let (to, env) = request(d, handle, op);
        rows.push((op.to_string(), outcome(net.request(&to, env))));
    };

    // `a` has a one-second lease and is the subject of the lifetime and
    // pause operations; `b` is what Pull drains (pull-mode where the
    // dialect has pull delivery) and what Destroy removes.
    let (a, replied) = subscribe(&net, d, consumer.epr(), true);
    rows.push(("Subscribe".into(), Some(replied)));
    let (b, replied) = subscribe(&net, d, consumer.epr(), false);
    rows.push(("Subscribe".into(), Some(replied)));
    for op in [
        "Renew",
        "SetTerminationTime",
        "GetStatus",
        "GetResourceProperty",
    ] {
        call(&mut rows, &a, op);
    }
    // Past the original lease: only a renewal keeps `a` delivering.
    net.clock().advance_ms(5_000);
    publish(&mut rows, "the lifetime operations");
    call(&mut rows, &a, "PauseSubscription");
    publish(&mut rows, "PauseSubscription");
    call(&mut rows, &a, "ResumeSubscription");
    publish(&mut rows, "ResumeSubscription");
    call(&mut rows, &a, "GetCurrentMessage");
    call(&mut rows, &a, "RegisterPublisher");
    call(&mut rows, &a, "CreatePullPoint");
    if d != Dialect::Wse(WseVersion::Jan2004) {
        call(&mut rows, &b, "Pull");
    }
    call(&mut rows, &a, "Unsubscribe");
    publish(&mut rows, "Unsubscribe");
    call(&mut rows, &b, "Destroy");
    publish(&mut rows, "Destroy");
    (setup.name(), rows)
}

#[test]
fn every_operation_behaves_alike_on_a_broker_and_a_federation_front() {
    for (column, d) in DIALECTS.into_iter().enumerate() {
        let (_, broker) = exercise(false, d);
        let (_, front) = exercise(true, d);
        for (op, defined) in DEFINED {
            if let Some((_, got)) = broker.iter().find(|(row, _)| row == op) {
                assert_eq!(
                    got.is_some(),
                    defined[column],
                    "{d:?} {op}: answered {got:?} at the broker"
                );
            }
        }
        assert_eq!(broker, front, "{d:?}: broker and front disagree");
    }
}

#[test]
fn a_wse_renew_whose_expires_does_not_parse_faults_and_keeps_the_lease() {
    for federated in [false, true] {
        for v in [WseVersion::Jan2004, WseVersion::Aug2004] {
            let net = Network::new();
            let setup = Setup::start(&net, federated);
            let sink = EventSink::start(&net, "http://consumer", v);
            let (Handle::Wse(h), _) = subscribe(&net, Dialect::Wse(v), sink.epr(), true) else {
                unreachable!()
            };
            let mut renew = WseCodec::new(v).renew(&h, None);
            renew
                .body_first_mut()
                .expect("Renew body")
                .push(Element::ns(v.ns(), "Expires", "wse").with_text("whenever"));
            match net.request(&h.manager.address, renew) {
                Err(TransportError::Fault(f)) => assert_eq!(
                    f.subcode.as_deref(),
                    Some("wse:InvalidExpirationTime"),
                    "{} {v:?}",
                    setup.name()
                ),
                other => panic!("{} {v:?}: expected a fault, got {other:?}", setup.name()),
            }
            net.clock().advance_ms(2_000);
            setup.publish(&Element::local("late"));
            assert!(
                sink.received().is_empty(),
                "{} {v:?}: the one-second lease still ran out",
                setup.name()
            );
        }
    }
}

#[test]
fn wse_jan2004_pull_faults() {
    for federated in [false, true] {
        let net = Network::new();
        let setup = Setup::start(&net, federated);
        let v = WseVersion::Jan2004;
        let sink = EventSink::start(&net, "http://consumer", v);
        let (Handle::Wse(h), _) = subscribe(&net, Dialect::Wse(v), sink.epr(), true) else {
            unreachable!()
        };
        let pulled = net.request(&h.manager.address, WseCodec::new(v).pull(&h, 10));
        assert!(
            matches!(pulled, Err(TransportError::Fault(_))),
            "{}: 01/2004 defines no pull delivery, got {pulled:?}",
            setup.name()
        );
    }
}

#[test]
fn subscription_managers_check_must_understand() {
    for federated in [false, true] {
        let net = Network::new();
        let setup = Setup::start(&net, federated);
        let v = WseVersion::Aug2004;
        let sink = EventSink::start(&net, "http://consumer", v);
        let (Handle::Wse(h), _) = subscribe(&net, Dialect::Wse(v), sink.epr(), true) else {
            unreachable!()
        };
        let mut renew = WseCodec::new(v).renew(&h, Some(Expires::Duration(60_000)));
        let alien = renew.must_understand(Element::ns("urn:alien", "Token", "x"));
        renew.add_header(alien);
        match net.request(&h.manager.address, renew) {
            Err(TransportError::Fault(f)) => {
                assert_eq!(f.code, FaultCode::MustUnderstand, "{}", setup.name())
            }
            other => panic!("{}: expected MustUnderstand, got {other:?}", setup.name()),
        }
    }
}

#[test]
fn extension_operations_are_answered_and_never_published() {
    for federated in [false, true] {
        let net = Network::new();
        let setup = Setup::start(&net, federated);
        setup.set_fault_tolerance(FaultTolerance {
            base_backoff_ms: 10,
            poison_budget: 2,
            ..FaultTolerance::default()
        });
        let v = WseVersion::Aug2004;
        let poisoned = EventSink::start(&net, "http://poisoned", v);
        let watcher = EventSink::start(&net, "http://watcher", v);
        for sink in [&poisoned, &watcher] {
            Subscriber::new(&net, v)
                .subscribe(BROKER, SubscribeRequest::push(sink.epr()))
                .expect("Subscribe");
        }
        net.fault_next("http://poisoned", 8);
        setup.publish(&Element::local("event"));
        setup.drain_redeliveries();
        assert_eq!(setup.dead_letter_count(), 1, "{}", setup.name());
        let seen = watcher.received().len();

        let ask = |op: &str| {
            let env = Envelope::new(SoapVersion::V11).with_body(Element::ns(WSM_NS, op, "wsm"));
            let reply = net
                .request(BROKER, env)
                .unwrap_or_else(|e| panic!("{}: {op}: {e}", setup.name()));
            let body = reply.body().expect("reply body").clone();
            assert!(
                body.name.is(WSM_NS, &format!("{op}Response")),
                "{}: {op} answered {}",
                setup.name(),
                body.name.clark()
            );
            body
        };
        let metrics = ask("GetMetrics");
        let exposition = metrics.child_ns(WSM_NS, "Exposition").expect("Exposition");
        assert!(!exposition.text().is_empty(), "{}", setup.name());
        ask("GetTrace");
        let letters = ask("GetDeadLetters");
        assert_eq!(letters.elements().count(), 1, "{}", setup.name());
        let redelivered = ask("RedeliverDeadLetters");
        assert_eq!(redelivered.attr("Count"), Some("1"), "{}", setup.name());
        assert_eq!(
            watcher.received().len(),
            seen,
            "{}: an extension request was delivered as an event",
            setup.name()
        );
    }
}

#[test]
fn a_pull_point_from_create_pull_point_is_delivered_to_and_drained_with_get_messages() {
    let v = WsnVersion::V1_3;
    let codec = WsnCodec::new(v);
    for federated in [false, true] {
        let net = Network::new();
        let setup = Setup::start(&net, federated);
        let reply = net
            .request(BROKER, codec.create_pull_point(BROKER))
            .unwrap_or_else(|e| panic!("{}: CreatePullPoint: {e}", setup.name()));
        let pull_point = codec
            .parse_create_pull_point_response(&reply)
            .expect("a PullPoint reference");
        // The pull point is the consumer: to the broker it is a push
        // consumer like any other (paper §V.3).
        subscribe(&net, Dialect::Wsn(v), pull_point.clone(), false);
        setup.publish(&Element::local("event"));
        let got = PullPoint::get_messages_remote(&net, v, &pull_point, 10)
            .unwrap_or_else(|e| panic!("{}: GetMessages: {e}", setup.name()));
        assert_eq!(got.len(), 1, "{}", setup.name());
        assert_eq!(got[0].message.name.local, "event", "{}", setup.name());
        let again = PullPoint::get_messages_remote(&net, v, &pull_point, 10).expect("GetMessages");
        assert!(again.is_empty(), "{}: GetMessages drains", setup.name());
    }
}

#[test]
fn a_demand_based_publisher_publishes_only_while_a_subscription_wants_its_topics() {
    for v in [WsnVersion::V1_0, WsnVersion::V1_3] {
        for federated in [false, true] {
            let net = Network::new();
            let setup = Setup::start(&net, federated);
            let name = format!("{} {v:?}", setup.name());
            let publisher = NotificationProducer::start(&net, "http://publisher", v);
            let consumer = NotificationConsumer::start(&net, "http://consumer", v);
            let codec = WsnCodec::new(v);
            let topic = TopicExpression::concrete(TOPIC).expect("concrete topic");
            let register = codec.register_publisher(
                BROKER,
                Some(&EndpointReference::new(publisher.uri())),
                &[topic],
                true,
            );
            net.request(BROKER, register)
                .unwrap_or_else(|e| panic!("{name}: RegisterPublisher: {e}"));
            assert_eq!(
                publisher.subscription_count(),
                1,
                "{name}: one subscription"
            );
            // What the publisher delivers to the broker: 0 while the
            // broker's subscription at it is paused.
            let mut n = 0;
            let mut publish = || {
                n += 1;
                let reading = Element::local("reading").with_attr("n", n.to_string());
                publisher.publish_on(TOPIC, &reading)
            };
            assert_eq!(publish(), 0, "{name}: paused from the start");

            let client = WsnClient::new(&net, v);
            let wanting =
                |t: &str| WsnSubscribeRequest::new(consumer.epr()).with_filter(WsnFilter::topic(t));
            client
                .subscribe(BROKER, &wanting("traffic"))
                .expect("Subscribe");
            assert_eq!(publish(), 0, "{name}: another topic creates no demand");

            let h = client
                .subscribe(BROKER, &wanting(TOPIC))
                .expect("Subscribe");
            assert_eq!(publish(), 1, "{name}: resumed by a matching Subscribe");
            assert_eq!(consumer.notifications().len(), 1, "{name}: forwarded");

            client.unsubscribe(&h).expect("Unsubscribe");
            assert_eq!(publish(), 0, "{name}: paused again by Unsubscribe");
            assert_eq!(consumer.notifications().len(), 1, "{name}");
        }
    }
}

#[test]
fn a_registration_is_addressed_at_the_broker_or_front_that_took_it() {
    let v = WsnVersion::V1_3;
    let codec = WsnCodec::new(v);
    let topic = TopicExpression::concrete(TOPIC).expect("concrete topic");
    for federated in [false, true] {
        let net = Network::new();
        let setup = Setup::start(&net, federated);
        for n in 1..=2 {
            let register =
                codec.register_publisher(BROKER, None, std::slice::from_ref(&topic), false);
            let reply = net.request(BROKER, register).expect("RegisterPublisher");
            let registration = reply
                .body()
                .and_then(|b| b.child_ns(v.brokered_ns(), "PublisherRegistrationReference"))
                .and_then(|e| EndpointReference::from_element(e, v.wsa()))
                .expect("a registration reference");
            assert_eq!(
                registration.address,
                format!("{BROKER}/registrations/{n}"),
                "{}",
                setup.name()
            );
        }
    }
}

/// The `wse:Identifier` reference parameters of an EPR.
fn identifiers(epr: &EndpointReference) -> usize {
    let ns = WseVersion::Aug2004.ns();
    epr.all_reference_data()
        .filter(|e| e.name.is(ns, "Identifier"))
        .count()
}

/// An endpoint that counts the `wse:Identifier` headers of each request
/// and forwards it to `target`.
struct IdentifierSpy {
    net: Network,
    target: String,
    seen: std::sync::Mutex<Vec<usize>>,
}

impl wsm_transport::SoapHandler for IdentifierSpy {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, wsm_soap::Fault> {
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
fn a_wse_aug2004_subscription_manager_carries_one_identifier() {
    let v = WseVersion::Aug2004;
    for federated in [false, true] {
        let net = Network::new();
        let setup = Setup::start(&net, federated);
        let sink = EventSink::start(&net, "http://consumer", v);
        let subscriber = Subscriber::new(&net, v);
        let mut handle = subscriber
            .subscribe(BROKER, SubscribeRequest::push(sink.epr()))
            .expect("Subscribe");
        assert_eq!(identifiers(&handle.manager), 1, "{}", setup.name());

        let spy = std::sync::Arc::new(IdentifierSpy {
            net: net.clone(),
            target: handle.manager.address.clone(),
            seen: Default::default(),
        });
        net.register("http://spy", spy.clone());
        handle.manager.address = "http://spy".into();
        subscriber.unsubscribe(&handle).expect("Unsubscribe");
        assert_eq!(*spy.seen.lock().unwrap(), [1], "{}", setup.name());
        setup.publish(&Element::local("after"));
        assert!(sink.received().is_empty(), "{}: unsubscribed", setup.name());
    }
}
