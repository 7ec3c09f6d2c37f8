//! The broker's neutral internal event model.
//!
//! Mediation needs a representation that is *neither* spec's wire
//! format: inbound publications (WSE raw bodies, WSN `Notify`
//! messages, plain payload posts) normalize into [`InternalEvent`],
//! and outbound rendering re-encodes per consumer dialect. The
//! re-encode cost is what bench X-B1 measures.

use crate::detect::SpecDialect;
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_topics::TopicPath;
use wsm_xml::{Element, SharedElement};

/// One publication, spec-neutral.
///
/// The payload is held as a shared, immutable subtree from the moment
/// the event enters the broker: every downstream stage — render cache,
/// pull queues, wrapped-delivery buffers, the current-message store —
/// clones an `Arc`, never the tree, and the payload's compact
/// serialization is computed at most once per publication no matter how
/// many consumers it fans out to.
#[derive(Debug, Clone, PartialEq)]
pub struct InternalEvent {
    /// The topic, when the inbound dialect carries one (WSN) or the
    /// publisher supplied one out-of-band.
    pub topic: Option<TopicPath>,
    /// The payload subtree, shared across the fan-out.
    pub payload: Arc<SharedElement>,
    /// The original producer, when known (brokered WSN).
    pub producer: Option<EndpointReference>,
    /// The dialect the publication arrived in, when it arrived over
    /// the wire — deliveries to consumers of the *other* family count
    /// as mediated in [`crate::broker::MediationStats`].
    pub origin: Option<SpecDialect>,
}

impl InternalEvent {
    /// An event with no topic (the WS-Eventing publication shape).
    pub fn raw(payload: Element) -> Self {
        InternalEvent {
            topic: None,
            payload: SharedElement::new(payload),
            producer: None,
            origin: None,
        }
    }

    /// An event on a topic.
    pub fn on_topic(topic: &str, payload: Element) -> Self {
        InternalEvent {
            topic: TopicPath::parse(topic),
            payload: SharedElement::new(payload),
            producer: None,
            origin: None,
        }
    }

    /// The payload as a plain element (filter evaluation, tests).
    pub fn payload_element(&self) -> &Element {
        self.payload.element()
    }

    /// Builder-style producer reference.
    pub fn from_producer(mut self, producer: EndpointReference) -> Self {
        self.producer = Some(producer);
        self
    }

    /// Builder-style origin dialect.
    pub fn with_origin(mut self, origin: SpecDialect) -> Self {
        self.origin = Some(origin);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let e = InternalEvent::raw(Element::local("x"));
        assert!(e.topic.is_none());
        assert_eq!(e.payload_element().name.local, "x");
        let e = InternalEvent::on_topic("a/b", Element::local("x"))
            .from_producer(EndpointReference::new("http://p"));
        assert_eq!(e.topic.unwrap().to_string(), "a/b");
        assert_eq!(e.producer.unwrap().address, "http://p");
    }

    #[test]
    fn bad_topic_is_none() {
        let e = InternalEvent::on_topic("", Element::local("x"));
        assert!(e.topic.is_none());
    }

    #[test]
    fn clone_shares_the_payload() {
        let e = InternalEvent::raw(Element::local("x"));
        let f = e.clone();
        assert!(Arc::ptr_eq(&e.payload, &f.payload));
        assert_eq!(e, f);
    }
}
