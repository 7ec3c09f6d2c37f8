//! Consumer-native rendering of notifications.
//!
//! "When delivering notification messages, WS-Messenger makes sure that
//! notification messages follow the expected specifications of the
//! target event consumers" (§VII). This module is that guarantee: one
//! [`InternalEvent`] in, an envelope in the subscription's dialect out.
//!
//! The fan-out renders through a per-publication [`RenderCache`]: one
//! prototype envelope per dialect class, lent out by reference from a
//! write-once slot (no lock, whichever thread asks), cloned
//! copy-on-write per subscriber and patched in place. What a delivery
//! copies is one header vector, plus the `Notify` body for wrapped
//! WS-Notification; nothing after the render copies the tree again.

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
/// * **Prototype envelopes** — a complete envelope is built once per
///   `(spec version, raw-mode)` equivalence class, addressed to a
///   placeholder consumer. Per subscriber the prototype is cloned —
///   two reference bumps, the envelope is copy-on-write — and only the
///   subscriber-dependent parts are patched in: the `wsa:To` text, the
///   consumer EPR's echoed reference data, and — for wrapped WSN — the
///   `SubscriptionReference` inside the `NotificationMessage`. The
///   first header patch copies the header vector (names are static
///   handles, so that is element and text copies only); the body is
///   copied only when it is patched, i.e. for wrapped WSN, and a
///   WS-Eventing or raw delivery never copies its body at all.
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

/// One equivalence class's prebuilt envelope plus the patch points.
struct ClassTemplate {
    /// The full envelope, addressed to an empty placeholder consumer
    /// (blank `wsa:To`, no echoed reference data, and for wrapped WSN
    /// no `SubscriptionReference`).
    proto: Envelope,
    /// Header index where a consumer's echoed reference data belongs:
    /// after the MAPs (`To`, `Action`), before extension headers such
    /// as the WSE topic header.
    echo_at: usize,
    /// Wrapped WSN only: prototype `SubscriptionReference` addressing
    /// the subscription manager, its identifier element still empty.
    /// Per subscriber it is cloned, the id text patched in, and the
    /// result spliced into the `NotificationMessage` — replacing a
    /// per-subscriber EPR construction and serialization.
    sub_ref: Option<Element>,
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
            match (spec, wrapped(spec, use_raw)) {
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
                    // The manager EPR with no id text yet: its shape is
                    // `[Address, <reference container>[identifier]]`, so
                    // the per-subscriber patch finds the id by position.
                    let manager = codec.manager_epr(manager_uri, "");
                    ClassTemplate {
                        echo_at: proto.headers().len(),
                        proto,
                        sub_ref: Some(codec.subscription_reference(&manager)),
                    }
                }
                _ => {
                    let payload = Node::Shared(Arc::clone(&self.payload));
                    let (proto, echo_at) = raw(spec, &placeholder, payload, event);
                    ClassTemplate {
                        proto,
                        echo_at,
                        sub_ref: None,
                    }
                }
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
    let echo_end = env.headers().len();
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
/// Per subscriber this takes a copy-on-write clone of the class
/// prototype and patches the three subscriber-dependent spots — the
/// `wsa:To` text, the consumer's echoed reference data, and (wrapped
/// WSN) the subscription id inside the prototype
/// `SubscriptionReference` — instead of rebuilding the tree: the header
/// vector is copied once, the body only where it is patched.
pub fn render_notification_cached(
    cache: &RenderCache,
    sub: &BrokerSubscription,
    event: &InternalEvent,
    broker_uri: &str,
    manager_uri: &str,
) -> Envelope {
    let t = cache.template(event, broker_uri, manager_uri, sub.spec, sub.use_raw);
    let mut env = t.proto.clone();
    // Patch wsa:To — always the first header the MAPs applied.
    if let Some(to) = env.header_at_mut(0) {
        to.children.clear();
        to.push_text(sub.consumer.address.clone());
    }
    // Echo the consumer EPR's reference data after the MAPs, before any
    // extension headers (the WSE topic header), as the plain path does.
    for (at, item) in (t.echo_at..).zip(sub.consumer.all_reference_data()) {
        env.insert_header(at, item.clone());
    }
    if let Some(proto) = &t.sub_ref {
        let mut sub_ref = proto.clone();
        // Proto shape is [Address, <container>[identifier[""]]]; write
        // this subscription's id into the identifier's text.
        if let Some(Node::Text(id)) = sub_ref
            .children
            .get_mut(1)
            .and_then(Node::as_element_mut)
            .and_then(|c| c.children.get_mut(0).and_then(Node::as_element_mut))
            .and_then(|id_el| id_el.children.first_mut())
        {
            id.push_str(&sub.id);
        }
        // Notify > NotificationMessage: the reference is its first
        // child, exactly where `notify_envelope` places it.
        if let Some(nm) = env
            .body_first_mut()
            .and_then(|b| b.children.iter_mut().find_map(Node::as_element_mut))
        {
            nm.children.insert(0, Node::Element(sub_ref));
        }
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
        let event = ev();
        let cache = RenderCache::new(&event);
        let mut shapes: Vec<(SpecDialect, bool)> =
            SpecDialect::ALL.iter().map(|d| (*d, false)).collect();
        shapes.extend(
            SpecDialect::ALL
                .iter()
                .filter(|d| matches!(d, SpecDialect::Wsn(_)))
                .map(|d| (*d, true)),
        );
        let classes = shapes.len();
        for (spec, raw) in shapes {
            let s = sub(spec, raw);
            // The plain path receives the same subscription-manager EPR
            // the cached path mints from (manager_uri, sub.id).
            let epr = spec.manager_epr("http://b/subscriptions", &s.id);
            let plain = render_notification(&s, &event, "http://b", &epr);
            let cached = render_notification_cached(
                &cache,
                &s,
                &event,
                "http://b",
                "http://b/subscriptions",
            );
            assert_eq!(cached.to_xml(), plain.to_xml(), "{spec:?} raw={raw}");
            // A second subscriber of the same class reuses the template.
            let again = render_notification_cached(
                &cache,
                &s,
                &event,
                "http://b",
                "http://b/subscriptions",
            );
            assert_eq!(again.to_xml(), plain.to_xml());
        }
        assert_eq!(cache.class_count(), classes);
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
