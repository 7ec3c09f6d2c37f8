//! The NotificationProducer and its subscription manager (paper Fig. 2).

use crate::messages::WsnCodec;
use crate::model::{NotificationMessage, Termination, WsnSubscribeRequest};
use crate::store::{CompiledFilters, WsnSubscriptionStore};
use crate::version::WsnVersion;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_soap::{Envelope, Fault};
use wsm_topics::{TopicExpression, TopicPath, TopicSpace};
use wsm_transport::{Network, SoapHandler, TransportError};
use wsm_wsrf::{ResourceHome, ResourceProperties};
use wsm_xml::Element;

/// What a successful WS-Notification subscribe returns.
#[derive(Debug, Clone, PartialEq)]
pub struct WsnSubscriptionHandle {
    /// The subscription reference EPR (the id rides inside it —
    /// ReferenceProperties in 1.0, ReferenceParameters in 1.3).
    pub reference: EndpointReference,
    /// The subscription id.
    pub id: String,
    /// Spec version.
    pub version: WsnVersion,
}

struct ProducerInner {
    codec: WsnCodec,
    net: Network,
    uri: String,
    manager_uri: String,
    store: WsnSubscriptionStore,
    topic_space: Mutex<TopicSpace>,
    /// Last message per concrete topic (for GetCurrentMessage).
    current: Mutex<HashMap<String, Element>>,
    /// The producer's property document (targets of ProducerProperties
    /// filters).
    properties: Mutex<Element>,
    /// WSRF resource view of subscriptions (1.0 — "subscriptions are
    /// WS-Resources").
    resources: ResourceHome,
}

/// A WS-Notification producer: accepts subscriptions, publishes
/// messages on topics, answers `GetCurrentMessage`.
#[derive(Clone)]
pub struct NotificationProducer {
    inner: Arc<ProducerInner>,
}

impl NotificationProducer {
    /// Start a producer (and its subscription-manager endpoint at
    /// `<uri>/subscriptions`).
    pub fn start(net: &Network, uri: &str, version: WsnVersion) -> Self {
        let inner = Arc::new(ProducerInner {
            codec: WsnCodec::new(version),
            net: net.clone(),
            uri: uri.to_string(),
            manager_uri: format!("{uri}/subscriptions"),
            store: WsnSubscriptionStore::new(),
            topic_space: Mutex::new(TopicSpace::new()),
            current: Mutex::new(HashMap::new()),
            properties: Mutex::new(Element::local("ProducerProperties")),
            resources: ResourceHome::new(),
        });
        net.register(
            uri,
            Arc::new(ProducerHandler {
                inner: Arc::clone(&inner),
            }),
        );
        net.register(
            inner.manager_uri.clone(),
            Arc::new(ManagerHandler {
                inner: Arc::clone(&inner),
            }),
        );
        NotificationProducer { inner }
    }

    /// The spec version this producer speaks.
    pub fn version(&self) -> WsnVersion {
        self.inner.codec.version
    }

    /// The producer endpoint URI.
    pub fn uri(&self) -> &str {
        &self.inner.uri
    }

    /// The subscription-manager URI.
    pub fn manager_uri(&self) -> &str {
        &self.inner.manager_uri
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.inner.store.len()
    }

    /// Declare a topic in the producer's topic space.
    pub fn add_topic(&self, path: &str) {
        self.inner.topic_space.lock().add_str(path);
    }

    /// Set a producer property (ProducerProperties filters see it).
    pub fn set_property(&self, name: &str, value: &str) {
        let mut props = self.inner.properties.lock();
        // Replace an existing child of the same name.
        props
            .children
            .retain(|c| c.as_element().map(|e| e.name.local != name).unwrap_or(true));
        props.push(Element::local(name).with_text(value));
    }

    /// Publish a message on a topic. Returns the number of successful
    /// deliveries.
    pub fn publish(&self, topic: Option<&TopicPath>, payload: &Element) -> usize {
        publish_message(&self.inner, topic, payload)
    }

    /// Publish on a topic given as a string path.
    pub fn publish_on(&self, topic: &str, payload: &Element) -> usize {
        let t = TopicPath::parse(topic);
        self.publish(t.as_ref(), payload)
    }
}

fn publish_message(inner: &ProducerInner, topic: Option<&TopicPath>, payload: &Element) -> usize {
    let now = inner.net.clock().now_ms();
    for s in inner.store.sweep_expired(now) {
        inner.resources.destroy(&s.id);
    }
    if let Some(t) = topic {
        inner.topic_space.lock().add(t);
        inner.current.lock().insert(t.to_string(), payload.clone());
    }
    let props = inner.properties.lock().clone();
    let mut delivered = 0;
    let mut failed: Vec<String> = Vec::new();
    for sub in inner.store.matching(topic, payload, Some(&props), now) {
        let env = if sub.use_raw {
            inner.codec.raw_notification(&sub.consumer, payload)
        } else {
            let msg = NotificationMessage {
                topic: topic.cloned(),
                producer: Some(EndpointReference::new(inner.uri.clone())),
                subscription: Some(inner.codec.manager_epr(&inner.manager_uri, &sub.id)),
                message: payload.clone(),
            };
            inner.codec.notify(&sub.consumer, &[msg])
        };
        match inner.net.send(&sub.consumer.address, env) {
            Ok(()) => delivered += 1,
            Err(_) => failed.push(sub.id.clone()),
        }
    }
    for id in &failed {
        if let Some(sub) = inner.store.remove(id) {
            inner.resources.destroy(id);
            // 1.0: the WSRF TerminationNotification stands in for a
            // SubscriptionEnd (paper Table 2).
            if inner.codec.version == WsnVersion::V1_0 {
                let note = wsm_wsrf::home::termination_notification(
                    id,
                    wsm_wsrf::TerminationReason::Destroyed,
                );
                let env = inner.codec.raw_notification(&sub.consumer, &note);
                let _ = inner.net.send(&sub.consumer.address, env);
            }
        }
    }
    delivered
}

fn handle_subscribe(inner: &ProducerInner, request: &Envelope) -> Result<Envelope, Fault> {
    let req = inner.codec.parse_subscribe(request)?;
    let filters = CompiledFilters::compile(&req).map_err(|why| {
        Fault::sender(format!("invalid filter: {why}")).with_subcode("wsnt:InvalidFilterFault")
    })?;
    let now = inner.net.clock().now_ms();
    let termination = req.initial_termination.map(|t| t.absolute(now));
    let id = inner
        .store
        .insert(req.consumer.clone(), filters, termination, req.use_raw);

    // 1.0: expose the subscription as a WS-Resource.
    if inner.codec.version.requires_wsrf() {
        let mut props = ResourceProperties::new();
        let ns = inner.codec.version.ns();
        props.insert(
            Element::ns(ns, "ConsumerReference", "wsnt").with_text(req.consumer.address.clone()),
        );
        props.insert(Element::ns(ns, "Paused", "wsnt").with_text("false"));
        if let Some(t) = termination {
            props.insert(
                Element::ns(ns, "TerminationTime", "wsnt")
                    .with_text(wsm_xml::xsd::format_datetime(t)),
            );
        }
        inner.resources.create(id.clone(), props);
        if let Some(t) = termination {
            inner.resources.set_termination_time(&id, Some(t));
        }
    }
    Ok(inner
        .codec
        .subscribe_response(&inner.manager_uri, &id, now, termination))
}

fn handle_get_current_message(
    inner: &ProducerInner,
    request: &Envelope,
) -> Result<Envelope, Fault> {
    let expr = inner.codec.parse_get_current_message(request)?;
    let space = inner.topic_space.lock();
    let current = inner.current.lock();
    let last = space
        .expand(&expr)
        .into_iter()
        .rev()
        .find_map(|t| current.get(&t.to_string()).cloned());
    match last {
        Some(m) => Ok(inner.codec.get_current_message_response(Some(&m))),
        None => Err(Fault::sender("no current message on that topic")
            .with_subcode("wsnt:NoCurrentMessageOnTopicFault")),
    }
}

struct ProducerHandler {
    inner: Arc<ProducerInner>,
}

impl SoapHandler for ProducerHandler {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        let inner = &self.inner;
        let ns = inner.codec.version.ns();
        let body = request.body().ok_or_else(|| Fault::sender("empty body"))?;
        if body.name.is(ns, "Subscribe") {
            handle_subscribe(inner, &request).map(Some)
        } else if body.name.is(ns, "GetCurrentMessage") {
            handle_get_current_message(inner, &request).map(Some)
        } else {
            Err(Fault::sender(format!(
                "unsupported operation {}",
                body.name.clark()
            )))
        }
    }
}

struct ManagerHandler {
    inner: Arc<ProducerInner>,
}

impl SoapHandler for ManagerHandler {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        handle_management(&self.inner, &request).map(Some)
    }
}

fn handle_management(inner: &ProducerInner, request: &Envelope) -> Result<Envelope, Fault> {
    let version = inner.codec.version;
    let ns = version.ns();
    let body = request.body().ok_or_else(|| Fault::sender("empty body"))?;
    let id = inner
        .codec
        .extract_subscription_id(request)
        .ok_or_else(|| Fault::sender("no SubscriptionId in request"))?;
    let now = inner.net.clock().now_ms();
    let unknown = || {
        Fault::sender(format!("unknown subscription {id}"))
            .with_subcode("wsnt:ResourceUnknownFault")
    };

    if body.name.is(ns, "Renew") {
        if !version.has_native_renew_unsubscribe() {
            return Err(Fault::sender(
                "WS-BaseNotification 1.0 has no Renew; use WSRF SetTerminationTime",
            ));
        }
        inner.store.get(&id).ok_or_else(unknown)?;
        let t = body
            .child_ns(ns, "TerminationTime")
            .and_then(|e| Termination::parse(&e.text()))
            .ok_or_else(|| Fault::sender("Renew requires a TerminationTime"))?;
        let abs = t.absolute(now);
        inner.store.set_termination(&id, Some(abs));
        let mut env_body = Element::ns(ns, "RenewResponse", "wsnt");
        env_body.push(
            Element::ns(ns, "TerminationTime", "wsnt")
                .with_text(wsm_xml::xsd::format_datetime(abs)),
        );
        env_body.push(
            Element::ns(ns, "CurrentTime", "wsnt").with_text(wsm_xml::xsd::format_datetime(now)),
        );
        Ok(Envelope::new(wsm_soap::SoapVersion::V11).with_body(env_body))
    } else if body.name.is(ns, "Unsubscribe") {
        if !version.has_native_renew_unsubscribe() {
            return Err(Fault::sender(
                "WS-BaseNotification 1.0 has no Unsubscribe; use WSRF Destroy",
            ));
        }
        inner.store.remove(&id).ok_or_else(unknown)?;
        inner.resources.destroy(&id);
        Ok(inner.codec.management_response("Unsubscribe"))
    } else if body.name.is(ns, "PauseSubscription") {
        if !inner.store.set_paused(&id, true) {
            return Err(unknown());
        }
        inner.resources.with_properties(&id, |p| {
            p.update(Element::ns(ns, "Paused", "wsnt").with_text("true"));
        });
        Ok(inner.codec.management_response("PauseSubscription"))
    } else if body.name.is(ns, "ResumeSubscription") {
        if !inner.store.set_paused(&id, false) {
            return Err(unknown());
        }
        inner.resources.with_properties(&id, |p| {
            p.update(Element::ns(ns, "Paused", "wsnt").with_text("false"));
        });
        Ok(inner.codec.management_response("ResumeSubscription"))
    } else if body.name.is(wsm_wsrf::WSRF_RL_NS, "Destroy") {
        if !version.requires_wsrf() {
            return Err(Fault::sender(
                "WSRF lifetime is not exposed by this 1.3 producer",
            ));
        }
        inner.store.remove(&id).ok_or_else(unknown)?;
        inner.resources.destroy(&id);
        Ok(inner.codec.wsrf_destroy_response())
    } else if body.name.is(wsm_wsrf::WSRF_RL_NS, "SetTerminationTime") {
        if !version.requires_wsrf() {
            return Err(Fault::sender(
                "WSRF lifetime is not exposed by this 1.3 producer",
            ));
        }
        inner.store.get(&id).ok_or_else(unknown)?;
        let t = body
            .child_ns(wsm_wsrf::WSRF_RL_NS, "RequestedTerminationTime")
            .and_then(|e| Termination::parse(&e.text()))
            .ok_or_else(|| Fault::sender("missing RequestedTerminationTime"))?;
        let abs = t.absolute(now);
        inner.store.set_termination(&id, Some(abs));
        inner.resources.set_termination_time(&id, Some(abs));
        inner.resources.with_properties(&id, |p| {
            p.update(
                Element::ns(ns, "TerminationTime", "wsnt")
                    .with_text(wsm_xml::xsd::format_datetime(abs)),
            );
        });
        Ok(inner.codec.wsrf_set_termination_time_response(abs))
    } else if body.name.is(wsm_wsrf::WSRF_RP_NS, "GetResourceProperty") {
        if !version.requires_wsrf() {
            return Err(Fault::sender(
                "WSRF properties are not exposed by this 1.3 producer",
            ));
        }
        let resource = inner.resources.get(&id).ok_or_else(unknown)?;
        let wanted = body.text();
        let local = wanted.trim().rsplit(':').next().unwrap_or("").to_string();
        let values = resource.properties.get(&wsm_xml::QName::ns(ns, local));
        Ok(inner
            .codec
            .wsrf_get_property_response(values.into_iter().cloned()))
    } else {
        Err(Fault::sender(format!(
            "unsupported operation {}",
            body.name.clark()
        )))
    }
}

// ------------------------------------------------------------- client

/// Client-side helper: the *subscriber* entity of Fig. 2, driving
/// Subscribe and subscription management against producers/brokers.
#[derive(Clone)]
pub struct WsnClient {
    net: Network,
    codec: WsnCodec,
}

impl WsnClient {
    /// A client speaking `version`.
    pub fn new(net: &Network, version: WsnVersion) -> Self {
        WsnClient {
            net: net.clone(),
            codec: WsnCodec::new(version),
        }
    }

    /// Subscribe at a producer or broker.
    pub fn subscribe(
        &self,
        producer_uri: &str,
        req: &WsnSubscribeRequest,
    ) -> Result<WsnSubscriptionHandle, TransportError> {
        let env = self.codec.subscribe(producer_uri, req);
        let resp = self.net.request(producer_uri, env)?;
        let (reference, id) = self
            .codec
            .parse_subscribe_response(&resp)
            .map_err(|f| TransportError::Fault(Box::new(f)))?;
        Ok(WsnSubscriptionHandle {
            reference,
            id,
            version: self.codec.version,
        })
    }

    /// Renew: native in 1.3, WSRF `SetTerminationTime` in 1.0 — the
    /// client routes per version exactly as Table 2 maps.
    pub fn renew(
        &self,
        handle: &WsnSubscriptionHandle,
        t: Termination,
    ) -> Result<(), TransportError> {
        let env = if self.codec.version.has_native_renew_unsubscribe() {
            self.codec.renew(&handle.reference, t)
        } else {
            self.codec.wsrf_set_termination_time(&handle.reference, t)
        };
        self.net.request(&handle.reference.address, env).map(|_| ())
    }

    /// Unsubscribe: native in 1.3, WSRF `Destroy` in 1.0.
    pub fn unsubscribe(&self, handle: &WsnSubscriptionHandle) -> Result<(), TransportError> {
        let env = if self.codec.version.has_native_renew_unsubscribe() {
            self.codec.unsubscribe(&handle.reference)
        } else {
            self.codec.wsrf_destroy(&handle.reference)
        };
        self.net.request(&handle.reference.address, env).map(|_| ())
    }

    /// Pause a subscription.
    pub fn pause(&self, handle: &WsnSubscriptionHandle) -> Result<(), TransportError> {
        let env = self.codec.pause(&handle.reference);
        self.net.request(&handle.reference.address, env).map(|_| ())
    }

    /// Resume a subscription.
    pub fn resume(&self, handle: &WsnSubscriptionHandle) -> Result<(), TransportError> {
        let env = self.codec.resume(&handle.reference);
        self.net.request(&handle.reference.address, env).map(|_| ())
    }

    /// Read a subscription's status via WSRF (1.0's GetStatus stand-in).
    pub fn get_status_wsrf(
        &self,
        handle: &WsnSubscriptionHandle,
        property: &str,
    ) -> Result<Option<String>, TransportError> {
        let env = self.codec.wsrf_get_property(&handle.reference, property);
        let resp = self.net.request(&handle.reference.address, env)?;
        Ok(resp
            .body()
            .and_then(|b| b.elements().next())
            .map(|e| e.text().trim().to_string()))
    }

    /// Fetch the last message on a topic.
    pub fn get_current_message(
        &self,
        producer_uri: &str,
        topic: &TopicExpression,
    ) -> Result<Option<Element>, TransportError> {
        let env = self.codec.get_current_message(producer_uri, topic);
        let resp = self.net.request(producer_uri, env)?;
        Ok(resp.body().and_then(|b| b.elements().next()).cloned())
    }
}
