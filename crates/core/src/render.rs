//! Consumer-native rendering of notifications.
//!
//! "When delivering notification messages, WS-Messenger makes sure that
//! notification messages follow the expected specifications of the
//! target event consumers" (§VII). This module is that guarantee: one
//! [`InternalEvent`] in, an envelope in the subscription's dialect out.
//!
//! The fan-out renders through a per-publication [`RenderCache`]: one
//! template per dialect class, lent out by reference from a write-once
//! slot (no lock, whichever thread asks). A template holds the parts of
//! a delivery the publication fixes — `wsa:Action`, the topic, the
//! `Notify` pieces, the payload — as shared subtrees, each serialized
//! at most once. A delivery's envelope is pointer copies of those plus
//! the few nodes that differ per subscriber: `wsa:To`, the consumer's
//! echoed reference data, and for wrapped WS-Notification the
//! containers that hold the subscription id. Nothing after the render
//! copies the tree again. [`render_notification`] builds the same
//! envelope from scratch and is the byte-identity reference.

use crate::detect::{NotificationShape, SpecDialect};
use crate::event::InternalEvent;
use crate::registry::BrokerSubscription;
use std::sync::{Arc, OnceLock};
use wsm_addressing::{EndpointReference, MessageHeaders};
use wsm_eventing::WseCodec;
use wsm_notification::{NotificationMessage, SharedNotificationMessage, WsnCodec};
use wsm_soap::Envelope;
use wsm_xml::{Element, Node, SharedElement};

/// Namespace for broker-defined header extensions (the topic header on
/// WS-Eventing deliveries — §V.4(6): WSE "needs to place it in the SOAP
/// header if needed", the spec defining no body slot for it).
pub const WSM_NS: &str = "urn:ws-messenger:broker";

/// Per-publication render state, shared across the whole fan-out.
///
/// Two levels of reuse:
///
/// * The **payload subtree** — the only part of a notification that
///   grows with event size — is wrapped in one [`SharedElement`] whose
///   compact serialization is computed once and spliced into every
///   outgoing envelope, so a publication serializes its payload once
///   instead of once per subscriber.
/// * **Class templates** — the parts of a delivery fixed by the event
///   and the `(spec version, raw-mode)` equivalence class are built
///   once per class as shared subtrees: the `wsa:Action` and WSE topic
///   headers, and for wrapped WSN the `Topic`, `ProducerReference` and
///   `Message` (around the shared payload) of the
///   `NotificationMessage` and the subscription manager's
///   `wsa:Address`. Per subscriber the render copies pointers to those
///   and builds only what the subscription fixes: a `wsa:To`, the
///   consumer EPR's echoed reference data, and for wrapped WSN the
///   containers from `Notify` down to the subscription id. A raw
///   delivery shares its whole body with its class.
///
/// Nothing here is per subscription: a subscription holds no tree, so
/// the registry's footprint does not grow with the render.
///
/// There are at most eight classes (four dialects, raw or wrapped),
/// so the templates live in eight write-once slots: the cache is
/// `Sync` and lends out `&ClassTemplate` with no lock and no copy,
/// whichever thread renders.
pub struct RenderCache {
    payload: Arc<SharedElement>,
    classes: [OnceLock<ClassTemplate>; CLASSES],
}

/// Four dialects, each raw or wrapped.
const CLASSES: usize = 2 * SpecDialect::ALL.len();

/// One equivalence class's shared pieces.
struct ClassTemplate {
    /// A delivery to an empty placeholder consumer, without its
    /// `wsa:To`: its SOAP version, its body — shared as it stands by
    /// every raw delivery — and the header blocks after `wsa:To`, each
    /// a shared subtree.
    proto: Envelope,
    /// `wsa:To` with no text yet.
    to: Element,
    /// Index into `proto`'s headers where a consumer's echoed
    /// reference data belongs: after the MAPs (`Action`), before
    /// extension headers such as the WSE topic header.
    echo_at: usize,
    /// Wrapped WSN only: the `Notify` body's pieces.
    notify: Option<NotifyTemplate>,
}

/// A wrapped WSN class's `Notify` body, cut along the path from
/// `Notify` down to the subscription id. The containers on that path
/// are childless shells, filled per delivery; everything beside the
/// path is a shared subtree.
struct NotifyTemplate {
    notify: Element,
    message: Element,
    /// The `NotificationMessage`'s children after its
    /// `SubscriptionReference`: `Topic`, `ProducerReference`, `Message`.
    rest: Vec<Node>,
    sub_ref: Element,
    /// The subscription manager's `wsa:Address`.
    address: Node,
    /// `ReferenceParameters` (or 1.0's `ReferenceProperties`).
    container: Element,
    id: Element,
}

impl NotifyTemplate {
    /// The `Notify` body for subscription `id`, exactly as
    /// [`WsnCodec::notify`] writes it for the manager EPR
    /// [`WsnCodec::manager_epr`] mints.
    fn body(&self, id: &str) -> Element {
        let id = shell(&self.id, vec![Node::Text(id.to_string())]);
        let container = shell(&self.container, vec![Node::Element(id)]);
        let sub_ref = shell(
            &self.sub_ref,
            vec![self.address.clone(), Node::Element(container)],
        );
        let mut children = Vec::with_capacity(1 + self.rest.len());
        children.push(Node::Element(sub_ref));
        children.extend_from_slice(&self.rest);
        let message = shell(&self.message, children);
        shell(&self.notify, vec![Node::Element(message)])
    }
}

/// `e`'s name and attributes over `children`.
fn shell(e: &Element, children: Vec<Node>) -> Element {
    Element {
        name: e.name.clone(),
        prefix_hint: e.prefix_hint.clone(),
        attrs: e.attrs.clone(),
        children,
    }
}

/// `node` as a shared subtree.
fn share(node: &Node) -> Node {
    match node {
        Node::Element(e) => Node::Shared(SharedElement::new(e.clone())),
        other => other.clone(),
    }
}

/// The one child element of `e`, where a template's shape has one.
fn first_child(e: &Element) -> &Element {
    e.elements()
        .next()
        .expect("template containers have a child")
}

impl RenderCache {
    /// A cache for one publication of `event`.
    ///
    /// O(1): the event already carries its payload as a shared subtree,
    /// so the cache takes a reference instead of deep-cloning the tree
    /// (which made cache construction O(payload size) in the seed).
    pub fn new(event: &InternalEvent) -> Self {
        RenderCache {
            payload: Arc::clone(&event.payload),
            classes: Default::default(),
        }
    }

    /// The shared payload subtree.
    pub fn payload(&self) -> &Arc<SharedElement> {
        &self.payload
    }

    /// How many equivalence classes have been rendered so far.
    pub fn class_count(&self) -> usize {
        self.classes.iter().filter(|c| c.get().is_some()).count()
    }

    fn template(
        &self,
        event: &InternalEvent,
        broker_uri: &str,
        manager_uri: &str,
        spec: SpecDialect,
        use_raw: bool,
    ) -> &ClassTemplate {
        let slot = 2 * spec.index() + usize::from(use_raw);
        self.classes[slot].get_or_init(|| {
            let placeholder = EndpointReference::new("");
            let (mut proto, echo_at, notify) = match (spec, wrapped(spec, use_raw)) {
                (SpecDialect::Wsn(v), true) => {
                    let message = SharedNotificationMessage {
                        topic: event.topic.clone(),
                        producer: event
                            .producer
                            .clone()
                            .or_else(|| Some(EndpointReference::new(broker_uri.to_string()))),
                        subscription: None,
                        message: Arc::clone(&self.payload),
                    };
                    let codec = WsnCodec::new(v);
                    let proto = codec.notify_shared(&placeholder, &[message]);
                    let notify = proto.body().expect("a Notify has a body");
                    let message = first_child(notify);
                    // The manager EPR with no id text yet: its shape is
                    // `[Address, <reference container>[identifier]]`.
                    let manager = codec.manager_epr(manager_uri, "");
                    let sub_ref = codec.subscription_reference(&manager);
                    let container = sub_ref
                        .elements()
                        .nth(1)
                        .expect("a manager EPR holds its id in a container");
                    let notify = NotifyTemplate {
                        notify: shell(notify, Vec::new()),
                        message: shell(message, Vec::new()),
                        rest: message.children.iter().map(share).collect(),
                        address: share(sub_ref.children.first().expect("an EPR has an Address")),
                        sub_ref: shell(&sub_ref, Vec::new()),
                        container: shell(container, Vec::new()),
                        id: shell(first_child(container), Vec::new()),
                    };
                    let echo_at = proto.header_nodes().len();
                    (proto, echo_at, Some(notify))
                }
                _ => {
                    let payload = Node::Shared(Arc::clone(&self.payload));
                    let (proto, echo_at) = raw(spec, &placeholder, payload, event);
                    (proto, echo_at, None)
                }
            };
            // `wsa:To` is always the first header the MAPs applied.
            let to = shell(
                proto.headers().next().expect("MAPs apply wsa:To"),
                Vec::new(),
            );
            let after_to: Vec<Node> = proto.header_nodes()[1..].iter().map(share).collect();
            proto.set_header_nodes(after_to);
            ClassTemplate {
                proto,
                to,
                echo_at: echo_at - 1,
                notify,
            }
        })
    }
}

/// Does `spec` deliver to this subscription wrapped in a `Notify`?
fn wrapped(spec: SpecDialect, use_raw: bool) -> bool {
    spec.profile().notification == NotificationShape::Notify && !use_raw
}

/// A raw delivery of `payload` to `to` in `spec`'s SOAP and
/// WS-Addressing versions, with the topic header where the dialect
/// carries its topic in one; and the header index where `to`'s echoed
/// reference data ends (before the topic header).
fn raw(
    spec: SpecDialect,
    to: &EndpointReference,
    payload: Node,
    event: &InternalEvent,
) -> (Envelope, usize) {
    let p = spec.profile();
    let mut env = MessageHeaders::raw_delivery(p.soap, p.wsa, to, payload);
    let echo_end = env.header_nodes().len();
    if let (NotificationShape::RawWithTopicHeader, Some(t)) = (p.notification, &event.topic) {
        env.add_header(Element::ns(WSM_NS, "Topic", "wsm").with_text(t.to_string()));
    }
    (env, echo_end)
}

/// Render one event for one subscription through the per-publication
/// cache. Produces envelopes byte-identical to [`render_notification`]
/// over the subscription-manager EPR the broker mints
/// ([`SpecDialect::manager_epr`]).
///
/// Per subscriber this builds a header list of pointer copies of the
/// class's shared headers around a fresh `wsa:To` and the consumer's
/// echoed reference data, and — for wrapped WSN — a `Notify` body whose
/// only fresh nodes are the containers holding the subscription id. A
/// raw delivery shares its class's body.
pub fn render_notification_cached(
    cache: &RenderCache,
    sub: &BrokerSubscription,
    event: &InternalEvent,
    broker_uri: &str,
    manager_uri: &str,
) -> Envelope {
    let t = cache.template(event, broker_uri, manager_uri, sub.spec, sub.use_raw);
    let shared = t.proto.header_nodes();
    let to = shell(&t.to, vec![Node::Text(sub.consumer.address.clone())]);
    // The consumer EPR's reference data goes after the MAPs, before
    // any extension headers (the WSE topic header), as the plain path
    // puts it. Every part has an exact length, so the list is stored
    // in one allocation.
    let echo = sub.consumer.all_reference_data().cloned();
    let headers = std::iter::once(Node::Element(to))
        .chain(shared[..t.echo_at].iter().cloned())
        .chain(echo.map(Node::Element))
        .chain(shared[t.echo_at..].iter().cloned());
    let mut env = t.proto.clone();
    env.set_header_nodes(headers);
    if let Some(notify) = &t.notify {
        env.set_body(notify.body(&sub.id));
    }
    env
}

/// Render one event for one subscription.
pub fn render_notification(
    sub: &BrokerSubscription,
    event: &InternalEvent,
    broker_uri: &str,
    subscription_epr: &EndpointReference,
) -> Envelope {
    match (sub.spec, wrapped(sub.spec, sub.use_raw)) {
        (SpecDialect::Wsn(v), true) => {
            let msg = NotificationMessage {
                topic: event.topic.clone(),
                producer: event
                    .producer
                    .clone()
                    .or_else(|| Some(EndpointReference::new(broker_uri.to_string()))),
                subscription: Some(subscription_epr.clone()),
                message: event.payload_element().clone(),
            };
            WsnCodec::new(v).notify(&sub.consumer, &[msg])
        }
        _ => {
            let payload = Node::Element(event.payload_element().clone());
            raw(sub.spec, &sub.consumer, payload, event).0
        }
    }
}

/// Render a wrapped batch for one subscription. Payloads arrive as the
/// shared subtrees the wrap buffer accumulated, so each one splices its
/// cached serialization into the batch envelope.
pub fn render_batch(
    sub: &BrokerSubscription,
    payloads: &[Arc<SharedElement>],
    broker_uri: &str,
    subscription_epr: &EndpointReference,
) -> Envelope {
    match sub.spec {
        SpecDialect::Wse(v) => {
            WseCodec::new(v).wrapped_notification_shared(&sub.consumer, payloads)
        }
        SpecDialect::Wsn(v) => {
            let codec = WsnCodec::new(v);
            let msgs: Vec<SharedNotificationMessage> = payloads
                .iter()
                .map(|p| SharedNotificationMessage {
                    topic: None,
                    producer: Some(EndpointReference::new(broker_uri.to_string())),
                    subscription: Some(subscription_epr.clone()),
                    message: Arc::clone(p),
                })
                .collect();
            codec.notify_shared(&sub.consumer, &msgs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{BrokerDeliveryMode, UnifiedFilters};
    use wsm_addressing::WsaVersion;
    use wsm_eventing::WseVersion;
    use wsm_notification::WsnVersion;

    fn sub(spec: SpecDialect, use_raw: bool) -> BrokerSubscription {
        BrokerSubscription {
            id: "wsm-1".into(),
            spec,
            consumer: EndpointReference::new("http://c"),
            end_to: None,
            filters: UnifiedFilters::default(),
            mode: BrokerDeliveryMode::Push,
            use_raw,
        }
    }

    fn ev() -> InternalEvent {
        InternalEvent::on_topic("storms", Element::local("alert").with_text("x"))
    }

    fn mgr() -> EndpointReference {
        EndpointReference::new("http://b/subscriptions")
    }

    #[test]
    fn wse_render_is_raw_with_topic_header() {
        let env = render_notification(
            &sub(SpecDialect::Wse(WseVersion::Aug2004), false),
            &ev(),
            "http://b",
            &mgr(),
        );
        assert_eq!(env.body().unwrap().name.local, "alert", "raw body");
        let topic = env.header(WSM_NS, "Topic").unwrap();
        assert_eq!(topic.text(), "storms");
    }

    #[test]
    fn wsn_render_is_wrapped_notify() {
        let env = render_notification(
            &sub(SpecDialect::Wsn(WsnVersion::V1_3), false),
            &ev(),
            "http://b",
            &mgr(),
        );
        let body = env.body().unwrap();
        assert_eq!(body.name.local, "Notify");
        let parsed = WsnCodec::new(WsnVersion::V1_3).parse_notify(&env).unwrap();
        assert_eq!(parsed[0].topic.as_ref().unwrap().to_string(), "storms");
        assert_eq!(parsed[0].producer.as_ref().unwrap().address, "http://b");
    }

    #[test]
    fn wsn_raw_render() {
        let env = render_notification(
            &sub(SpecDialect::Wsn(WsnVersion::V1_3), true),
            &ev(),
            "http://b",
            &mgr(),
        );
        assert_eq!(env.body().unwrap().name.local, "alert");
    }

    #[test]
    fn batches_per_dialect() {
        let payloads = vec![
            SharedElement::new(Element::local("a")),
            SharedElement::new(Element::local("b")),
        ];
        let wse = render_batch(
            &sub(SpecDialect::Wse(WseVersion::Aug2004), false),
            &payloads,
            "http://b",
            &mgr(),
        );
        assert_eq!(wse.body().unwrap().name.local, "Notifications");
        assert_eq!(wse.body().unwrap().element_count(), 2);
        let wsn = render_batch(
            &sub(SpecDialect::Wsn(WsnVersion::V1_3), false),
            &payloads,
            "http://b",
            &mgr(),
        );
        assert_eq!(wsn.body().unwrap().name.local, "Notify");
        assert_eq!(wsn.body().unwrap().element_count(), 2);
    }

    #[test]
    fn cached_render_is_byte_identical_per_class() {
        // A payload in no namespace, and payloads in the namespaces the
        // envelopes themselves bind: each WSN version's `wsnt` and two
        // WS-Addressing versions' `wsa`.
        let mut payloads = vec![Element::local("alert").with_text("x")];
        for v in [WsnVersion::V1_0, WsnVersion::V1_3] {
            payloads.push(
                Element::ns(v.ns(), "Custom", "wsnt")
                    .with_child(Element::ns(v.ns(), "Detail", "wsnt").with_text("d")),
            );
        }
        for wsa in [WsaVersion::V200408, WsaVersion::V200508] {
            payloads.push(Element::ns(wsa.ns(), "Custom", "wsa").with_text("a"));
        }
        let mut shapes: Vec<(SpecDialect, bool)> =
            SpecDialect::ALL.iter().map(|d| (*d, false)).collect();
        shapes.extend(
            SpecDialect::ALL
                .iter()
                .filter(|d| matches!(d, SpecDialect::Wsn(_)))
                .map(|d| (*d, true)),
        );
        let classes = shapes.len();
        // Each payload on a topic, and one topicless publication.
        let mut events: Vec<InternalEvent> = payloads
            .into_iter()
            .map(|p| InternalEvent::on_topic("storms", p))
            .collect();
        events.push(InternalEvent::raw(Element::local("alert")));
        for event in events {
            let cache = RenderCache::new(&event);
            // Each class, to a consumer without and with reference
            // data to echo.
            let subs = shapes.iter().flat_map(|&(spec, raw)| {
                let mut echoing = sub(spec, raw);
                echoing.consumer = echoing.consumer.with_reference(
                    spec.profile().wsa,
                    Element::ns("urn:app", "Key", "app").with_text("k1"),
                );
                [sub(spec, raw), echoing]
            });
            for s in subs {
                let (spec, raw) = (s.spec, s.use_raw);
                // The plain path receives the same subscription-manager
                // EPR the cached path mints from (manager_uri, sub.id).
                let epr = spec.manager_epr("http://b/subscriptions", &s.id);
                let plain = render_notification(&s, &event, "http://b", &epr).to_xml();
                let cached = render_notification_cached(
                    &cache,
                    &s,
                    &event,
                    "http://b",
                    "http://b/subscriptions",
                );
                let name = &event.payload_element().name;
                assert_eq!(cached.to_xml(), plain, "{spec:?} raw={raw} {name:?}");
                // A second subscriber of the same class reuses the
                // template.
                let again = render_notification_cached(
                    &cache,
                    &s,
                    &event,
                    "http://b",
                    "http://b/subscriptions",
                );
                assert_eq!(again.to_xml(), plain);
            }
            assert_eq!(cache.class_count(), classes);
        }
    }

    #[test]
    fn cached_render_patches_distinct_subscription_ids() {
        let event = ev();
        let cache = RenderCache::new(&event);
        for id in ["wsm-1", "wsm-2"] {
            let mut s = sub(SpecDialect::Wsn(WsnVersion::V1_3), false);
            s.id = id.into();
            let env = render_notification_cached(&cache, &s, &event, "http://b", "http://b/subs");
            let parsed = WsnCodec::new(WsnVersion::V1_3).parse_notify(&env).unwrap();
            let epr = parsed[0].subscription.as_ref().unwrap();
            assert_eq!(epr.address, "http://b/subs");
            let item = epr
                .reference_item(
                    WsnVersion::V1_3.ns(),
                    wsm_notification::messages::SUBSCRIPTION_ID_LOCAL,
                )
                .expect("identifier patched in");
            assert_eq!(item.text(), id);
        }
    }

    #[test]
    fn original_producer_preserved_through_mediation() {
        let event = ev().from_producer(EndpointReference::new("http://origin"));
        let env = render_notification(
            &sub(SpecDialect::Wsn(WsnVersion::V1_3), false),
            &event,
            "http://b",
            &mgr(),
        );
        let parsed = WsnCodec::new(WsnVersion::V1_3).parse_notify(&env).unwrap();
        assert_eq!(
            parsed[0].producer.as_ref().unwrap().address,
            "http://origin"
        );
    }
}
