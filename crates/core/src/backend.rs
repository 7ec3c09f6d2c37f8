//! Pluggable underlying pub/sub backends.
//!
//! Paper §VII: "Besides using the default message filtering,
//! WS-Messenger provides a generic interface that can use existing
//! publish/subscribe systems as the underlying message systems. In this
//! way, WS-Messenger provides Web service interfaces to existing
//! messaging systems."
//!
//! The broker hands every normalized [`InternalEvent`] to the backend's
//! one hop, [`MessagingBackend::relay`], and fans out exactly what that
//! call hands back. With [`InMemoryBackend`] the hop is the identity;
//! with [`JmsBackend`] events genuinely round-trip through the
//! `wsm-jms` provider (serialized XML in a `TextMessage`, topic in a
//! property), demonstrating the wrap.

use crate::event::InternalEvent;
use parking_lot::Mutex;
use wsm_jms::{JmsMessage, JmsProvider};
use wsm_xml::Element;

/// The generic pub/sub interface the broker rides on.
pub trait MessagingBackend: Send + Sync {
    /// Pass one event through the backend and return what the backend
    /// delivers for *this* call, in delivery order.
    ///
    /// The hop must be atomic with respect to other callers: a
    /// concurrent `relay` never receives this call's event, and
    /// nothing is left behind for a later call to pick up. The broker
    /// fans the returned events out on the calling thread before
    /// `publish_*` returns, which is what keeps one publisher's events
    /// in order at every subscriber.
    fn relay(&self, event: InternalEvent) -> Vec<InternalEvent>;
    /// Backend name (for stats/logging).
    fn name(&self) -> &'static str;
}

/// The default backend: no underlying system, the event comes straight
/// back.
#[derive(Default)]
pub struct InMemoryBackend;

impl InMemoryBackend {
    /// A fresh backend.
    pub fn new() -> Self {
        InMemoryBackend
    }
}

impl MessagingBackend for InMemoryBackend {
    fn relay(&self, event: InternalEvent) -> Vec<InternalEvent> {
        vec![event]
    }

    fn name(&self) -> &'static str {
        "in-memory"
    }
}

/// A backend that routes events through a JMS provider topic.
pub struct JmsBackend {
    provider: JmsProvider,
    /// The relay's receiving end. The lock is the hop's critical
    /// section: a publisher takes it before its provider `publish` and
    /// keeps it until it has received its event back, so concurrent
    /// publishers cannot take each other's. It covers nothing else —
    /// not the XML encode/decode, and never the fan-out.
    subscription: Mutex<wsm_jms::TopicSubscription>,
    topic: String,
}

impl JmsBackend {
    /// Wrap a JMS provider, using `topic` as the relay destination.
    pub fn new(provider: JmsProvider, topic: &str) -> Self {
        let subscription = provider.create_durable_subscriber(topic, "ws-messenger-relay", None);
        JmsBackend {
            provider,
            subscription: Mutex::new(subscription),
            topic: topic.to_string(),
        }
    }

    fn encode(event: &InternalEvent) -> JmsMessage {
        let mut m = JmsMessage::text(event.payload.xml().to_string());
        if let Some(t) = &event.topic {
            m = m.with_property("wsmTopic", t.to_string().as_str());
        }
        if let Some(p) = &event.producer {
            m = m.with_property("wsmProducer", p.address.as_str());
        }
        if let Some(o) = event.origin {
            m = m.with_property("wsmOrigin", o.label());
        }
        m
    }

    fn decode(m: &JmsMessage) -> Option<InternalEvent> {
        let text = match &m.body {
            wsm_jms::JmsBody::Text(t) => t,
            _ => return None,
        };
        let payload: Element = wsm_xml::parse(text).ok()?;
        let topic = match m.resolve("wsmTopic") {
            wsm_jms::JmsValue::String(s) => wsm_topics::TopicPath::parse(&s),
            _ => None,
        };
        let producer = match m.resolve("wsmProducer") {
            wsm_jms::JmsValue::String(s) => Some(wsm_addressing::EndpointReference::new(s)),
            _ => None,
        };
        let origin = match m.resolve("wsmOrigin") {
            wsm_jms::JmsValue::String(s) => crate::detect::SpecDialect::ALL
                .into_iter()
                .find(|d| d.label() == s),
            _ => None,
        };
        Some(InternalEvent {
            topic,
            payload: wsm_xml::SharedElement::new(payload),
            producer,
            origin,
        })
    }
}

impl MessagingBackend for JmsBackend {
    fn relay(&self, event: InternalEvent) -> Vec<InternalEvent> {
        let message = Self::encode(&event);
        let received: Vec<JmsMessage> = {
            let subscription = self.subscription.lock();
            self.provider.publish(&self.topic, message);
            std::iter::from_fn(|| subscription.receive()).collect()
        };
        received.iter().filter_map(Self::decode).collect()
    }

    fn name(&self) -> &'static str {
        "jms"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_relay_is_the_identity() {
        let b = InMemoryBackend::new();
        let a = InternalEvent::raw(Element::local("a"));
        let t = InternalEvent::on_topic("t", Element::local("b"));
        assert_eq!(b.relay(a.clone()), vec![a]);
        assert_eq!(b.relay(t.clone()), vec![t]);
        assert_eq!(b.name(), "in-memory");
    }

    #[test]
    fn jms_backend_roundtrips_events() {
        let provider = JmsProvider::new();
        let b = JmsBackend::new(provider.clone(), "wsm.relay");
        let ev = InternalEvent::on_topic("storms/hail", Element::local("alert").with_text("x"))
            .from_producer(wsm_addressing::EndpointReference::new("http://pub"))
            .with_origin(crate::detect::SpecDialect::Wsn(
                wsm_notification::WsnVersion::V1_3,
            ));
        // The event really goes through the JMS provider: the relay is
        // a durable subscriber there, and what comes back was decoded
        // from the provider's message.
        assert_eq!(provider.subscriber_count("wsm.relay"), 1);
        assert_eq!(b.relay(ev.clone()), vec![ev]);
        assert_eq!(b.name(), "jms");
    }

    #[test]
    fn jms_backend_preserves_payload_markup() {
        let b = JmsBackend::new(JmsProvider::new(), "t");
        let payload =
            wsm_xml::parse(r#"<e:alert xmlns:e="urn:wx" sev="4">h &amp; m</e:alert>"#).unwrap();
        let got = b.relay(InternalEvent::raw(payload.clone()));
        assert_eq!(got[0].payload_element(), &payload);
    }

    #[test]
    fn jms_relay_returns_each_thread_exactly_its_own_events() {
        const PER_THREAD: usize = 500;
        let b = JmsBackend::new(JmsProvider::new(), "t");
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for who in ["a", "b"] {
                let (b, start) = (&b, &start);
                s.spawn(move || {
                    start.wait();
                    for n in 0..PER_THREAD {
                        let ev =
                            InternalEvent::raw(Element::local(who).with_attr("n", n.to_string()));
                        assert_eq!(b.relay(ev.clone()), vec![ev], "thread {who}, event {n}");
                    }
                });
            }
        });
    }
}
