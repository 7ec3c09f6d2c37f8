//! Every call the benchmark makes into the broker's crates, one adapter
//! per layer. No other file of the benchmark names a `wsm_*` crate, so
//! this file *is* the public surface the benchmark pins (listed in the
//! README): a change that keeps these functions compiling keeps the
//! benchmark running.
//!
//! `DispatchMode`, `LinkMode`, `OverflowPolicy`, `set_batch_max` and
//! `Registry::insert` are deliberately not used: the workloads run the
//! broker's defaults and subscribe through real SOAP round-trips.

use crate::gen::{EventFacts, Family, SubSpec, DETAIL};
use crate::sink::Sink;
use crate::trace::HandlerCell;
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_eventing::{
    Expires, Filter, SubscribeRequest, Subscriber, SubscriptionHandle, WseCodec, WseVersion,
};
use wsm_messenger::{
    render_notification_cached, BatchPolicy, BrokerSubscription, FederatedMessenger, InternalEvent,
    RenderCache, SpecDialect, WsMessenger,
};
use wsm_notification::{
    NotificationMessage, Termination, WsnClient, WsnCodec, WsnFilter, WsnSubscribeRequest,
    WsnSubscriptionHandle, WsnVersion,
};
use wsm_soap::{Envelope, Fault};
use wsm_topics::{TopicExpression, TopicPath};
use wsm_transport::{Network, SoapHandler};
use wsm_xml::{Element, SharedElement};
use wsm_xpath::XPath;

/// The simulated network.
pub type Net = Network;
/// An XML element (event payloads).
pub type Payload = Element;
/// A SOAP envelope.
pub type Message = Envelope;
/// The broker's internal event.
pub type Event = InternalEvent;
/// Subscriptions a publication matched.
pub type Matched = Vec<Arc<BrokerSubscription>>;
/// A detected specification dialect.
pub type Dialect = SpecDialect;
/// A compiled XPath filter.
pub type Compiled = XPath;

/// Lease asked for by every Renew, in virtual ms. The virtual clock
/// never advances in these workloads, so no lease runs out.
const LEASE_MS: u64 = 3_600_000;

/// A fresh network.
pub fn network() -> Net {
    Network::new()
}

/// Per-send wire delay (real time), 0 for none.
pub fn set_wire_delay_us(net: &Net, us: u64) {
    net.set_send_delay_us(us);
}

/// Drop the transport's (unbounded) send trace.
pub fn clear_transport_trace(net: &Net) {
    net.clear_trace();
}

// ------------------------------------------------------------ brokers

/// The system under test: one broker, or a federation front.
pub enum Broker {
    /// A single `WsMessenger`.
    Single(WsMessenger),
    /// A `FederatedMessenger` over several shards.
    Federated(FederatedMessenger),
}

impl Broker {
    /// One broker at `uri` with `workers` fan-out workers.
    pub fn single(net: &Net, uri: &str, workers: usize) -> Self {
        let b = WsMessenger::start(net, uri);
        b.set_fanout_workers(workers);
        Broker::Single(b)
    }

    /// A federation of `shards` shards behind `uri`, each with
    /// `workers` fan-out workers. Links batch 4–8 events with a
    /// 5 virtual-ms deadline.
    pub fn federated(net: &Net, uri: &str, shards: usize, workers: usize) -> Self {
        let f = FederatedMessenger::start(net, uri, shards);
        f.set_fanout_workers(workers);
        f.set_link_policy(BatchPolicy::Adaptive {
            min: 4,
            max: 8,
            deadline_ms: 5,
        });
        Broker::Federated(f)
    }

    /// The endpoint publishers and subscribers talk to.
    pub fn uri(&self) -> &str {
        match self {
            Broker::Single(b) => b.uri(),
            Broker::Federated(f) => f.uri(),
        }
    }

    /// The in-process publisher call. A single broker returns the
    /// deliveries made; a federation returns events sealed (admission
    /// only — deliveries happen on the flushers).
    pub fn publish_on(&self, topic: &str, payload: &Payload) -> usize {
        match self {
            Broker::Single(b) => b.publish_on(topic, payload),
            Broker::Federated(f) => f.publish_on(topic, payload),
        }
    }

    /// Wait until everything admitted is delivered (federation only).
    pub fn flush(&self) {
        if let Broker::Federated(f) = self {
            f.flush();
        }
    }

    /// Switch the broker's own instrumentation on or off.
    pub fn set_obs_enabled(&self, on: bool) {
        match self {
            Broker::Single(b) => b.set_obs_enabled(on),
            Broker::Federated(f) => f.set_obs_enabled(on),
        }
    }

    /// Events waiting in federation link queues (0 for one broker).
    pub fn link_queue_depth(&self) -> usize {
        match self {
            Broker::Single(_) => 0,
            Broker::Federated(f) => f.link_queue_depth(),
        }
    }

    /// Events a full link made the publisher deliver itself.
    pub fn shed_events(&self) -> u64 {
        match self {
            Broker::Single(_) => 0,
            Broker::Federated(f) => f.shed_events(),
        }
    }

    /// The broker that owns `topic`: the broker itself, or the shard
    /// the federation routes the topic's root to.
    fn owner(&self, topic: Option<&TopicPath>) -> &WsMessenger {
        match self {
            Broker::Single(b) => b,
            Broker::Federated(f) => {
                let shard = topic.map_or(0, |t| f.shard_for_topic(t.root()));
                &f.shards()[shard]
            }
        }
    }
}

// ------------------------------------------------------- control plane

/// The two subscriber clients.
pub struct Clients {
    wse: Subscriber,
    wsn: WsnClient,
}

/// What a successful Subscribe returned.
pub enum Handle {
    /// WS-Eventing subscription.
    Wse(SubscriptionHandle),
    /// WS-Notification subscription.
    Wsn(WsnSubscriptionHandle),
}

impl Clients {
    /// Clients for WS-Eventing 08/2004 and WS-Notification 1.3.
    pub fn new(net: &Net) -> Self {
        Clients {
            wse: Subscriber::new(net, WseVersion::Aug2004),
            wsn: WsnClient::new(net, WsnVersion::V1_3),
        }
    }

    /// `core.registry.subscribe`: one SOAP Subscribe round-trip.
    pub fn subscribe(
        &self,
        broker_uri: &str,
        spec: &SubSpec,
        consumer_uri: &str,
    ) -> Option<Handle> {
        let consumer = EndpointReference::new(consumer_uri);
        match spec.family {
            Family::WseAug2004 => {
                assert!(
                    spec.topic.is_none(),
                    "WS-Eventing subscriptions are topicless"
                );
                let mut req = SubscribeRequest::push(consumer);
                if let Some(c) = spec.content {
                    req = req.with_filter(Filter::xpath(c.xpath()));
                }
                self.wse.subscribe(broker_uri, req).ok().map(Handle::Wse)
            }
            Family::Wsn13 => {
                let mut req = WsnSubscribeRequest::new(consumer);
                if let Some(t) = &spec.topic {
                    req = req.with_filter(WsnFilter::topic(t));
                }
                if let Some(c) = spec.content {
                    req = req.with_filter(WsnFilter::content(c.xpath()));
                }
                self.wsn.subscribe(broker_uri, &req).ok().map(Handle::Wsn)
            }
        }
    }

    /// `core.registry.renew`: one Renew round-trip.
    pub fn renew(&self, handle: &Handle) -> bool {
        match handle {
            Handle::Wse(h) => self.wse.renew(h, Some(Expires::Duration(LEASE_MS))).is_ok(),
            Handle::Wsn(h) => self.wsn.renew(h, Termination::Duration(LEASE_MS)).is_ok(),
        }
    }

    /// `core.registry.unsubscribe`: one Unsubscribe round-trip.
    pub fn unsubscribe(&self, handle: &Handle) -> bool {
        match handle {
            Handle::Wse(h) => self.wse.unsubscribe(h).is_ok(),
            Handle::Wsn(h) => self.wsn.unsubscribe(h).is_ok(),
        }
    }
}

// ------------------------------------------------------------ payloads

/// The event payload for `facts` (about 200 bytes serialized).
pub fn event_payload(facts: &EventFacts) -> Payload {
    Element::local("event")
        .with_attr("sev", facts.sev.to_string())
        .with_attr("seq", facts.seq.to_string())
        .with_child(Element::local("source").with_text(format!("gridftp-{}", facts.source)))
        .with_child(Element::local("job").with_text(format!("job-{}", facts.job)))
        .with_child(Element::local("detail").with_text(DETAIL))
}

/// The dialect a wire publisher speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireDialect {
    /// WS-Notification 1.3 `Notify`.
    Wsn13,
    /// WS-Notification 1.0 `Notify`.
    Wsn10,
    /// A bare payload as the SOAP body (WS-Eventing style; the broker
    /// ingests it as a topicless publication).
    Bare,
}

/// A publication as the serialized SOAP message a remote publisher
/// would put on the wire. A bare publication carries no topic.
pub fn publication_bytes(
    dialect: WireDialect,
    broker_uri: &str,
    topic: Option<&str>,
    payload: &Payload,
) -> String {
    match dialect {
        WireDialect::Wsn13 => notify(WsnVersion::V1_3, broker_uri, topic, payload),
        WireDialect::Wsn10 => notify(WsnVersion::V1_0, broker_uri, topic, payload),
        WireDialect::Bare => eventing_notification(broker_uri, payload),
    }
    .to_xml()
}

// ----------------------------------------------------------- endpoints

struct ConsumerEndpoint {
    sub: u32,
    sink: Arc<Sink>,
}

impl SoapHandler for ConsumerEndpoint {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        let entered = self.sink.now_ns();
        consumer_handle(&self.sink, self.sub, &request, entered);
        Ok(None)
    }
}

/// Serve consumer `sub` of `sink` at `uri`.
pub fn register_consumer(net: &Net, uri: &str, sub: u32, sink: &Arc<Sink>) {
    net.register(
        uri,
        Arc::new(ConsumerEndpoint {
            sub,
            sink: Arc::clone(sink),
        }),
    );
}

/// `consumer.handle`: what the validating sink does with one message.
pub fn consumer_handle(sink: &Sink, sub: u32, message: &Message, entered_ns: u64) {
    match seq_of(message) {
        Some(seq) => sink.on_delivery(sub, seq, entered_ns),
        None => sink.on_unreadable(),
    }
}

/// The publication sequence number carried by a delivered message:
/// the `seq` attribute of the payload, which is either the body itself
/// (raw delivery) or `Notify/NotificationMessage/Message/*`.
pub fn seq_of(message: &Message) -> Option<u64> {
    let body = message.body()?;
    let event = if body.name.local.as_ref() == "Notify" {
        body.elements()
            .find(|e| e.name.local.as_ref() == "NotificationMessage")?
            .elements()
            .find(|e| e.name.local.as_ref() == "Message")?
            .elements()
            .next()?
    } else {
        body
    };
    event.attr("seq")?.parse().ok()
}

/// The endpoint replayed sends go to: it runs the sink's reading of
/// the message (so `consumer.handle` nests inside `transport.send`
/// as it does in a real delivery) without touching the sink's state,
/// and leaves its own start, end and allocations in `cell`.
struct ReplayEndpoint {
    cell: Arc<HandlerCell>,
}

impl SoapHandler for ReplayEndpoint {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        self.cell.enter();
        std::hint::black_box(seq_of(&request));
        self.cell.leave();
        Ok(None)
    }
}

/// Serve the replay endpoint at `uri`.
pub fn register_replay_consumer(net: &Net, uri: &str, cell: &Arc<HandlerCell>) {
    net.register(
        uri,
        Arc::new(ReplayEndpoint {
            cell: Arc::clone(cell),
        }),
    );
}

// ------------------------------------------------------- layer adapters

/// `xml.parse`
pub fn xml_parse(xml: &str) -> Option<Payload> {
    wsm_xml::parse(xml).ok()
}

/// `xml.write`
pub fn xml_write(element: &Payload) -> String {
    wsm_xml::to_string(element)
}

/// `soap.from_xml`
pub fn soap_from_xml(xml: &str) -> Option<Message> {
    Envelope::from_xml(xml).ok()
}

/// `soap.to_xml`
pub fn soap_to_xml(message: &Message) -> String {
    message.to_xml()
}

/// `soap.xml_len` — what the transport computes for every send.
pub fn soap_xml_len(message: &Message) -> usize {
    message.xml_len()
}

/// A wrapped `Notify` to `to`, carrying one message.
fn notify(version: WsnVersion, to: &str, topic: Option<&str>, payload: &Payload) -> Message {
    let topic = topic.and_then(TopicPath::parse);
    WsnCodec::new(version).notify(
        &EndpointReference::new(to),
        &[NotificationMessage::new(topic, payload.clone())],
    )
}

/// `notification.notify` (1.3).
pub fn notification_notify(to: &str, topic: Option<&str>, payload: &Payload) -> Message {
    notify(WsnVersion::V1_3, to, topic, payload)
}

/// `eventing.notification`: the payload as the SOAP body.
pub fn eventing_notification(to: &str, payload: &Payload) -> Message {
    WseCodec::new(WseVersion::Aug2004).notification(&EndpointReference::new(to), payload)
}

/// `core.detect`
pub fn core_detect(message: &Message) -> Option<Dialect> {
    SpecDialect::detect(message)
}

/// `notification.parse_notify`: the messages of a `Notify` in the
/// detected dialect, `None` when the message is not a `Notify`.
pub fn notification_parse_notify(
    message: &Message,
    dialect: Option<Dialect>,
) -> Option<Vec<NotificationMessage>> {
    match dialect {
        Some(SpecDialect::Wsn(v)) => WsnCodec::new(v).parse_notify(message),
        _ => None,
    }
}

/// `core.event` on the wire path: the event the broker builds from an
/// ingested message — the first `Notify` message, or the bare body.
pub fn core_event_from_wire(
    message: &Message,
    dialect: Option<Dialect>,
    parsed: Option<Vec<NotificationMessage>>,
) -> Option<Event> {
    match parsed.and_then(|m| m.into_iter().next()) {
        Some(m) => Some(InternalEvent {
            topic: m.topic,
            payload: SharedElement::new(m.message),
            producer: m.producer,
            origin: dialect,
        }),
        None => message.body().map(|b| InternalEvent::raw(b.clone())),
    }
}

/// `core.event` on the in-process path (what `publish_on` builds).
pub fn core_event(topic: &str, payload: &Payload) -> Event {
    InternalEvent::on_topic(topic, payload.clone())
}

/// The payload element of an event.
pub fn event_element(event: &Event) -> &Payload {
    event.payload_element()
}

/// `core.registry.match` on the broker that owns the event's topic.
pub fn registry_match(net: &Net, broker: &Broker, event: &Event) -> Matched {
    let now = net.clock().now_ms();
    broker
        .owner(event.topic.as_ref())
        .registry()
        .matching(event, None, now)
}

/// `topics.match`: every topic expression of the matched
/// subscriptions against the event's topic; returns evaluations made.
pub fn topics_match(matched: &Matched, event: &Event) -> usize {
    let Some(topic) = &event.topic else { return 0 };
    let mut n = 0;
    for sub in matched {
        for expr in &sub.filters.topics {
            std::hint::black_box(TopicExpression::matches(expr, topic));
            n += 1;
        }
    }
    n
}

/// `xpath.compile`
pub fn xpath_compile(source: &str) -> Option<Compiled> {
    XPath::compile(source).ok()
}

/// `xpath.eval`
pub fn xpath_eval(filter: &Compiled, payload: &Payload) -> bool {
    filter.matches(payload)
}

/// `core.render`: one envelope per matched subscription, from one
/// per-publication render cache, as the broker's fan-out does.
pub fn core_render(broker: &Broker, event: &Event, matched: &Matched) -> Vec<Message> {
    let owner = broker.owner(event.topic.as_ref());
    let cache = RenderCache::new(event);
    matched
        .iter()
        .map(|sub| render_notification_cached(&cache, sub, event, owner.uri(), owner.manager_uri()))
        .collect()
}

/// `transport.send`: a one-way send; `true` when it was delivered.
pub fn transport_send(net: &Net, to: &str, message: Message) -> bool {
    net.send(to, message).is_ok()
}

/// The wire publisher's call: parse the bytes, send to the broker.
pub fn ingest_bytes(net: &Net, broker_uri: &str, bytes: &str) -> bool {
    soap_from_xml(bytes).is_some_and(|message| transport_send(net, broker_uri, message))
}

struct NullEndpoint;

impl SoapHandler for NullEndpoint {
    fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
        Ok(None)
    }
}

/// Serve an endpoint at `uri` that accepts and discards everything.
pub fn register_null(net: &Net, uri: &str) {
    net.register(uri, Arc::new(NullEndpoint));
}
