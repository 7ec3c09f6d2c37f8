//! SOAP message codecs for WS-BaseNotification 1.0 and 1.3 (plus the
//! brokered RegisterPublisher exchange).
//!
//! WS-Notification traffic is built on SOAP 1.1 (its published examples
//! and the Globus/OASIS toolchains of the period used SOAP 1.1
//! bindings), in deliberate contrast to the SOAP 1.2 used by our
//! WS-Eventing codec — the §V.4 "versions of underlying specifications"
//! difference shows up for real in the message-diff experiment.

use crate::model::{
    topic_dialect_uri, NotificationMessage, Termination, WsnFilter, WsnSubscribeRequest,
};
use crate::version::WsnVersion;
use std::sync::Arc;
use wsm_addressing::{EndpointReference, MessageHeaders};
use wsm_soap::{Envelope, Fault, SoapVersion};
use wsm_topics::{TopicExpression, TopicPath};
use wsm_xml::{Element, Node, SharedElement};

/// A notification whose payload is a [`SharedElement`] — the broker's
/// fan-out shape, where one event's payload subtree (and its cached
/// serialization) is shared across every consumer-facing envelope.
#[derive(Debug, Clone)]
pub struct SharedNotificationMessage {
    /// The topic the message was published on.
    pub topic: Option<TopicPath>,
    /// The original producer.
    pub producer: Option<EndpointReference>,
    /// The subscription this delivery answers.
    pub subscription: Option<EndpointReference>,
    /// The shared payload subtree.
    pub message: Arc<SharedElement>,
}

impl SharedNotificationMessage {
    /// A subscription-less message — the shape inter-broker federation
    /// hops batch into one `Notify` envelope ([`WsnCodec::notify_shared`]),
    /// where the receiving broker re-matches against its own registry.
    pub fn new(
        topic: Option<TopicPath>,
        producer: Option<EndpointReference>,
        message: Arc<SharedElement>,
    ) -> Self {
        SharedNotificationMessage {
            topic,
            producer,
            subscription: None,
            message,
        }
    }

    /// Decompose into `(topic, producer, payload)` — the zero-reparse
    /// federation fast path hands these straight to the peer shard's
    /// ingest, moving the `Arc` instead of serializing a `Notify`
    /// envelope the peer would only re-parse.
    pub fn into_parts(
        self,
    ) -> (
        Option<TopicPath>,
        Option<EndpointReference>,
        Arc<SharedElement>,
    ) {
        (self.topic, self.producer, self.message)
    }
}

/// The `xsd:boolean` value of element `el`, a sender fault when it has
/// none.
fn boolean(el: &Element, what: &str) -> Result<bool, Fault> {
    wsm_xml::xsd::parse_boolean(&el.text())
        .ok_or_else(|| Fault::sender(format!("{what} is not an xsd:boolean")))
}

/// The element name that carries a subscription id inside the
/// subscription-manager EPR. Its *container* differs by version —
/// `ReferenceProperties` in 1.0 vs `ReferenceParameters` in 1.3 — which
/// is the paper's §V.4 category-1 example, observed against
/// WS-Eventing's `Identifier`.
pub const SUBSCRIPTION_ID_LOCAL: &str = "SubscriptionId";

/// WS-Notification's published examples use the SOAP 1.1 envelope.
const SOAP: SoapVersion = SoapVersion::V11;

/// Message builder/parser for one WS-Notification version.
#[derive(Debug, Clone, Copy)]
pub struct WsnCodec {
    /// The spec version this codec speaks.
    pub version: WsnVersion,
}

impl WsnCodec {
    /// A codec for `version`.
    pub fn new(version: WsnVersion) -> Self {
        WsnCodec { version }
    }

    fn el(&self, local: &str) -> Element {
        Element::ns(self.version.ns(), local, "wsnt")
    }

    /// The `wsnt:SubscriptionReference` element for `epr`, exactly as a
    /// `NotificationMessage` built by [`WsnCodec::notify`] embeds it.
    /// The broker's render cuts its per-class template from this, so
    /// the shape it rebuilds per subscriber cannot drift.
    pub fn subscription_reference(&self, epr: &EndpointReference) -> Element {
        epr.to_named_element(self.version.wsa(), self.el("SubscriptionReference"))
    }

    /// The EPR of the subscription manager at `address` managing
    /// subscription `id`: the id is a `wsnt:SubscriptionId` in the
    /// reference container of the version's WS-Addressing
    /// (`ReferenceProperties` in 1.0, `ReferenceParameters` in 1.3).
    pub fn manager_epr(&self, address: &str, id: &str) -> EndpointReference {
        EndpointReference::new(address).with_reference(
            self.version.wsa(),
            self.el(SUBSCRIPTION_ID_LOCAL).with_text(id),
        )
    }

    fn br_el(&self, local: &str) -> Element {
        Element::ns(self.version.brokered_ns(), local, "wsn-br")
    }

    fn envelope(&self) -> Envelope {
        Envelope::new(SOAP)
    }

    fn apply_maps(&self, env: &mut Envelope, maps: MessageHeaders) {
        maps.apply(env, self.version.wsa());
    }

    fn topic_expression_element(&self, local: &str, expr: &TopicExpression) -> Element {
        self.el(local)
            .with_attr("Dialect", topic_dialect_uri(expr))
            .with_text(expr.text())
    }

    fn parse_topic_expression(el: &Element) -> Result<TopicExpression, Fault> {
        let dialect = el
            .attr("Dialect")
            .unwrap_or(wsm_topics::expression::CONCRETE_DIALECT);
        TopicExpression::compile_uri(dialect, el.text().trim()).map_err(|e| {
            Fault::sender(format!("invalid topic expression: {e}"))
                .with_subcode("wsnt:InvalidTopicExpressionFault")
        })
    }

    // ------------------------------------------------------ Subscribe

    /// Build a `Subscribe` envelope addressed to a producer/broker.
    pub fn subscribe(&self, to: &str, req: &WsnSubscribeRequest) -> Envelope {
        let wsa = self.version.wsa();
        let mut body = self.el("Subscribe");
        body.push(
            req.consumer
                .to_named_element(wsa, self.el("ConsumerReference")),
        );
        match self.version {
            WsnVersion::V1_0 => {
                // Bare filter children; TopicExpression is mandatory.
                for f in &req.filters {
                    match f {
                        WsnFilter::Topic(t) => {
                            body.push(self.topic_expression_element("TopicExpression", t))
                        }
                        WsnFilter::ProducerProperties(x) => body.push(
                            self.el("ProducerProperties")
                                .with_attr("Dialect", crate::XPATH_DIALECT)
                                .with_text(x.clone()),
                        ),
                        WsnFilter::MessageContent {
                            dialect,
                            expression,
                        } => body.push(
                            self.el("Selector")
                                .with_attr("Dialect", dialect.clone())
                                .with_text(expression.clone()),
                        ),
                    }
                }
                if req.use_raw {
                    body.push(self.el("UseNotify").with_text("false"));
                }
            }
            WsnVersion::V1_3 => {
                if !req.filters.is_empty() {
                    let mut filter = self.el("Filter");
                    for f in &req.filters {
                        match f {
                            WsnFilter::Topic(t) => {
                                filter.push(self.topic_expression_element("TopicExpression", t))
                            }
                            WsnFilter::ProducerProperties(x) => filter.push(
                                self.el("ProducerProperties")
                                    .with_attr("Dialect", crate::XPATH_DIALECT)
                                    .with_text(x.clone()),
                            ),
                            WsnFilter::MessageContent {
                                dialect,
                                expression,
                            } => filter.push(
                                self.el("MessageContent")
                                    .with_attr("Dialect", dialect.clone())
                                    .with_text(expression.clone()),
                            ),
                        }
                    }
                    body.push(filter);
                }
                if req.use_raw {
                    body.push(self.el("SubscriptionPolicy").with_child(self.el("UseRaw")));
                }
            }
        }
        if let Some(t) = req.initial_termination {
            body.push(self.el("InitialTerminationTime").with_text(t.to_lexical()));
        }
        let mut env = self.envelope().with_body(body);
        self.apply_maps(
            &mut env,
            MessageHeaders::request(to, self.version.action("Subscribe")),
        );
        env
    }

    /// Parse a `Subscribe` body.
    pub fn parse_subscribe(&self, env: &Envelope) -> Result<WsnSubscribeRequest, Fault> {
        let ns = self.version.ns();
        let wsa = self.version.wsa();
        let body = env
            .body()
            .filter(|b| b.name.is(ns, "Subscribe"))
            .ok_or_else(|| Fault::sender("expected wsnt:Subscribe"))?;
        let consumer = body
            .child_ns(ns, "ConsumerReference")
            .and_then(|e| EndpointReference::from_element(e, wsa))
            .ok_or_else(|| Fault::sender("missing wsnt:ConsumerReference"))?;

        let mut filters = Vec::new();
        let mut use_raw = false;
        match self.version {
            WsnVersion::V1_0 => {
                for te in body.children_ns(ns, "TopicExpression") {
                    filters.push(WsnFilter::Topic(Self::parse_topic_expression(te)?));
                }
                for pp in body.children_ns(ns, "ProducerProperties") {
                    filters.push(WsnFilter::ProducerProperties(pp.text().trim().to_string()));
                }
                for sel in body.children_ns(ns, "Selector") {
                    filters.push(WsnFilter::MessageContent {
                        dialect: sel
                            .attr("Dialect")
                            .unwrap_or(crate::XPATH_DIALECT)
                            .to_string(),
                        expression: sel.text().trim().to_string(),
                    });
                }
                if let Some(un) = body.child_ns(ns, "UseNotify") {
                    use_raw = !boolean(un, "UseNotify")?;
                }
                if self.version.requires_topic()
                    && !filters.iter().any(|f| matches!(f, WsnFilter::Topic(_)))
                {
                    return Err(Fault::sender(
                        "WS-BaseNotification 1.0 requires a TopicExpression in every Subscribe",
                    )
                    .with_subcode("wsnt:TopicExpressionRequired"));
                }
            }
            WsnVersion::V1_3 => {
                if let Some(filter) = body.child_ns(ns, "Filter") {
                    for te in filter.children_ns(ns, "TopicExpression") {
                        filters.push(WsnFilter::Topic(Self::parse_topic_expression(te)?));
                    }
                    for pp in filter.children_ns(ns, "ProducerProperties") {
                        filters.push(WsnFilter::ProducerProperties(pp.text().trim().to_string()));
                    }
                    for mc in filter.children_ns(ns, "MessageContent") {
                        filters.push(WsnFilter::MessageContent {
                            dialect: mc
                                .attr("Dialect")
                                .unwrap_or(crate::XPATH_DIALECT)
                                .to_string(),
                            expression: mc.text().trim().to_string(),
                        });
                    }
                }
                use_raw = body
                    .child_ns(ns, "SubscriptionPolicy")
                    .is_some_and(|p| p.child_ns(ns, "UseRaw").is_some());
            }
        }

        let initial_termination = match body.child_ns(ns, "InitialTerminationTime") {
            Some(e) => {
                let t = Termination::parse(&e.text()).ok_or_else(|| {
                    Fault::sender("invalid InitialTerminationTime")
                        .with_subcode("wsnt:UnacceptableInitialTerminationTimeFault")
                })?;
                if matches!(t, Termination::Duration(_)) && !self.version.supports_duration_expiry()
                {
                    return Err(Fault::sender(
                        "WS-BaseNotification 1.0 only accepts absolute termination times",
                    )
                    .with_subcode("wsnt:UnacceptableInitialTerminationTimeFault"));
                }
                Some(t)
            }
            None => None,
        };

        Ok(WsnSubscribeRequest {
            consumer,
            filters,
            initial_termination,
            use_raw,
        })
    }

    /// Build a `SubscribeResponse` pointing at subscription
    /// `subscription_id` of the subscription manager at `manager`.
    pub fn subscribe_response(
        &self,
        manager: &str,
        subscription_id: &str,
        now_ms: u64,
        termination_ms: Option<u64>,
    ) -> Envelope {
        let epr = self.manager_epr(manager, subscription_id);
        let mut body = self
            .el("SubscribeResponse")
            .with_child(self.subscription_reference(&epr));
        if self.version == WsnVersion::V1_3 {
            body.push(
                self.el("CurrentTime")
                    .with_text(wsm_xml::xsd::format_datetime(now_ms)),
            );
            if let Some(t) = termination_ms {
                body.push(
                    self.el("TerminationTime")
                        .with_text(wsm_xml::xsd::format_datetime(t)),
                );
            }
        }
        let mut env = self.envelope().with_body(body);
        self.apply_maps(
            &mut env,
            MessageHeaders {
                action: Some(self.version.action("SubscribeResponse")),
                ..Default::default()
            },
        );
        env
    }

    /// Parse a `SubscribeResponse` into (subscription EPR, id).
    pub fn parse_subscribe_response(
        &self,
        env: &Envelope,
    ) -> Result<(EndpointReference, String), Fault> {
        let ns = self.version.ns();
        let body = env
            .body()
            .filter(|b| b.name.is(ns, "SubscribeResponse"))
            .ok_or_else(|| Fault::sender("expected wsnt:SubscribeResponse"))?;
        let epr = body
            .child_ns(ns, "SubscriptionReference")
            .and_then(|e| EndpointReference::from_element(e, self.version.wsa()))
            .ok_or_else(|| Fault::sender("missing wsnt:SubscriptionReference"))?;
        let id = epr
            .reference_item(ns, SUBSCRIPTION_ID_LOCAL)
            .map(|e| e.text().trim().to_string())
            .ok_or_else(|| Fault::sender("missing SubscriptionId reference data"))?;
        Ok((epr, id))
    }

    // ------------------------------------------- subscription management

    /// Build a management request addressed at the subscription EPR.
    /// `op` is `Renew`, `Unsubscribe`, `PauseSubscription`,
    /// `ResumeSubscription` (1.3 native ops + pause/resume), or the
    /// WSRF ops `Destroy`/`SetTerminationTime` used by 1.0.
    pub fn management(
        &self,
        subscription: &EndpointReference,
        op: &str,
        body: Element,
    ) -> Envelope {
        let mut env = self.envelope().with_body(body);
        self.apply_maps(
            &mut env,
            MessageHeaders::to_epr(subscription, self.version.action(op)),
        );
        env
    }

    /// 1.3 `Renew`.
    pub fn renew(&self, subscription: &EndpointReference, t: Termination) -> Envelope {
        let body = self
            .el("Renew")
            .with_child(self.el("TerminationTime").with_text(t.to_lexical()));
        self.management(subscription, "Renew", body)
    }

    /// 1.3 `Unsubscribe`.
    pub fn unsubscribe(&self, subscription: &EndpointReference) -> Envelope {
        self.management(subscription, "Unsubscribe", self.el("Unsubscribe"))
    }

    /// `PauseSubscription` (defined in both versions).
    pub fn pause(&self, subscription: &EndpointReference) -> Envelope {
        self.management(
            subscription,
            "PauseSubscription",
            self.el("PauseSubscription"),
        )
    }

    /// `ResumeSubscription`.
    pub fn resume(&self, subscription: &EndpointReference) -> Envelope {
        self.management(
            subscription,
            "ResumeSubscription",
            self.el("ResumeSubscription"),
        )
    }

    /// WSRF `Destroy` (how 1.0 unsubscribes — Table 2's mapping).
    pub fn wsrf_destroy(&self, subscription: &EndpointReference) -> Envelope {
        let body = Element::ns(wsm_wsrf::WSRF_RL_NS, "Destroy", "wsrf-rl");
        self.management(subscription, "Destroy", body)
    }

    /// WSRF `SetTerminationTime` (how 1.0 renews).
    pub fn wsrf_set_termination_time(
        &self,
        subscription: &EndpointReference,
        t: Termination,
    ) -> Envelope {
        let body = Element::ns(wsm_wsrf::WSRF_RL_NS, "SetTerminationTime", "wsrf-rl").with_child(
            Element::ns(wsm_wsrf::WSRF_RL_NS, "RequestedTerminationTime", "wsrf-rl")
                .with_text(t.to_lexical()),
        );
        self.management(subscription, "SetTerminationTime", body)
    }

    /// WSRF `GetResourceProperty` (how 1.0 reads subscription status).
    pub fn wsrf_get_property(&self, subscription: &EndpointReference, prop: &str) -> Envelope {
        let body = Element::ns(wsm_wsrf::WSRF_RP_NS, "GetResourceProperty", "wsrf-rp")
            .with_text(format!("wsnt:{prop}"));
        self.management(subscription, "GetResourceProperty", body)
    }

    /// WSRF `DestroyResponse`.
    pub fn wsrf_destroy_response(&self) -> Envelope {
        let body = Element::ns(wsm_wsrf::WSRF_RL_NS, "DestroyResponse", "wsrf-rl");
        self.envelope().with_body(body)
    }

    /// WSRF `SetTerminationTimeResponse`, reporting the instant set.
    pub fn wsrf_set_termination_time_response(&self, at_ms: u64) -> Envelope {
        let rl = wsm_wsrf::WSRF_RL_NS;
        let body = Element::ns(rl, "SetTerminationTimeResponse", "wsrf-rl").with_child(
            Element::ns(rl, "NewTerminationTime", "wsrf-rl")
                .with_text(wsm_xml::xsd::format_datetime(at_ms)),
        );
        self.envelope().with_body(body)
    }

    /// WSRF `GetResourcePropertyResponse` carrying the property values.
    pub fn wsrf_get_property_response(
        &self,
        values: impl IntoIterator<Item = Element>,
    ) -> Envelope {
        let rp = wsm_wsrf::WSRF_RP_NS;
        let mut body = Element::ns(rp, "GetResourcePropertyResponse", "wsrf-rp");
        body.children.extend(values.into_iter().map(Node::Element));
        self.envelope().with_body(body)
    }

    /// A generic empty management response.
    pub fn management_response(&self, op: &str) -> Envelope {
        let mut env = self.envelope().with_body(self.el(&format!("{op}Response")));
        self.apply_maps(
            &mut env,
            MessageHeaders {
                action: Some(self.version.action(&format!("{op}Response"))),
                ..Default::default()
            },
        );
        env
    }

    /// Identify the subscription a management request refers to (echoed
    /// `SubscriptionId` header).
    pub fn extract_subscription_id(&self, env: &Envelope) -> Option<String> {
        env.headers()
            .find(|h| h.name.is(self.version.ns(), SUBSCRIPTION_ID_LOCAL))
            .map(|h| h.text().trim().to_string())
    }

    // ------------------------------------------------ GetCurrentMessage

    /// `GetCurrentMessage` request.
    pub fn get_current_message(&self, to: &str, topic: &TopicExpression) -> Envelope {
        let body = self
            .el("GetCurrentMessage")
            .with_child(self.topic_expression_element("Topic", topic));
        let mut env = self.envelope().with_body(body);
        self.apply_maps(
            &mut env,
            MessageHeaders::request(to, self.version.action("GetCurrentMessage")),
        );
        env
    }

    /// Parse a `GetCurrentMessage` request into the topic it asks about.
    pub fn parse_get_current_message(&self, env: &Envelope) -> Result<TopicExpression, Fault> {
        let ns = self.version.ns();
        let topic = env
            .body()
            .filter(|b| b.name.is(ns, "GetCurrentMessage"))
            .and_then(|b| b.child_ns(ns, "Topic"))
            .ok_or_else(|| Fault::sender("GetCurrentMessage requires a Topic"))?;
        let dialect = topic
            .attr("Dialect")
            .unwrap_or(wsm_topics::expression::CONCRETE_DIALECT);
        TopicExpression::compile_uri(dialect, topic.text().trim())
            .map_err(|e| Fault::sender(format!("invalid topic: {e}")))
    }

    /// `GetCurrentMessageResponse` carrying the last message (if any).
    pub fn get_current_message_response(&self, message: Option<&Element>) -> Envelope {
        let mut body = self.el("GetCurrentMessageResponse");
        if let Some(m) = message {
            body.push(m.clone());
        }
        let mut env = self.envelope().with_body(body);
        self.apply_maps(
            &mut env,
            MessageHeaders {
                action: Some(self.version.action("GetCurrentMessageResponse")),
                ..Default::default()
            },
        );
        env
    }

    // ---------------------------------------------------------- Notify

    /// Build a wrapped `Notify` message (the format WS-Notification
    /// *defines*, unlike WS-Eventing — Table 1's "Define Wrapped message
    /// format" row).
    pub fn notify(&self, to: &EndpointReference, messages: &[NotificationMessage]) -> Envelope {
        self.notify_envelope(
            to,
            messages.iter().map(|m| {
                (
                    m.topic.as_ref(),
                    m.producer.as_ref(),
                    m.subscription.as_ref(),
                    Node::Element(m.message.clone()),
                )
            }),
        )
    }

    /// Build a `Notify` whose payloads are shared subtrees, so every
    /// envelope carrying the same event reuses one cached payload
    /// serialization. Output is byte-identical to [`WsnCodec::notify`]
    /// over the equivalent plain messages.
    pub fn notify_shared(
        &self,
        to: &EndpointReference,
        messages: &[SharedNotificationMessage],
    ) -> Envelope {
        self.notify_envelope(
            to,
            messages.iter().map(|m| {
                (
                    m.topic.as_ref(),
                    m.producer.as_ref(),
                    m.subscription.as_ref(),
                    Node::Shared(Arc::clone(&m.message)),
                )
            }),
        )
    }

    fn notify_envelope<'a>(
        &self,
        to: &EndpointReference,
        messages: impl Iterator<
            Item = (
                Option<&'a TopicPath>,
                Option<&'a EndpointReference>,
                Option<&'a EndpointReference>,
                Node,
            ),
        >,
    ) -> Envelope {
        let mut body = self.el("Notify");
        for (topic, producer, subscription, message) in messages {
            body.push(self.notification_message(topic, producer, subscription, message));
        }
        let mut env = self.envelope().with_body(body);
        self.apply_maps(
            &mut env,
            MessageHeaders::to_epr(to, self.version.action("Notify")),
        );
        env
    }

    /// One `NotificationMessage`: the subscription it answers, its
    /// topic, its producer and the payload, in that order.
    fn notification_message(
        &self,
        topic: Option<&TopicPath>,
        producer: Option<&EndpointReference>,
        subscription: Option<&EndpointReference>,
        message: Node,
    ) -> Element {
        let wsa = self.version.wsa();
        let mut nm = self.el("NotificationMessage");
        if let Some(sub) = subscription {
            nm.push(self.subscription_reference(sub));
        }
        if let Some(t) = topic {
            nm.push(
                self.el("Topic")
                    .with_attr("Dialect", wsm_topics::expression::CONCRETE_DIALECT)
                    .with_text(t.segments.join("/")),
            );
        }
        if let Some(p) = producer {
            nm.push(p.to_named_element(wsa, self.el("ProducerReference")));
        }
        let mut msg = self.el("Message");
        msg.children.push(message);
        nm.push(msg);
        nm
    }

    /// Build a raw notification (just the payload in the body).
    pub fn raw_notification(&self, to: &EndpointReference, message: &Element) -> Envelope {
        let message = Node::Element(message.clone());
        MessageHeaders::raw_delivery(SOAP, self.version.wsa(), to, message)
    }

    /// Parse a `Notify` body into its notification messages, copying
    /// each payload out of the envelope.
    pub fn parse_notify(&self, env: &Envelope) -> Option<Vec<NotificationMessage>> {
        let ns = self.version.ns();
        let body = env.body().filter(|b| b.name.is(ns, "Notify"))?;
        body.children_ns(ns, "NotificationMessage")
            .map(|nm| {
                let payload = nm.child_ns(ns, "Message")?.elements().next()?.clone();
                Some(self.read_notification_message(nm, payload))
            })
            .collect()
    }

    /// [`WsnCodec::parse_notify`] for a receiver that owns the request:
    /// each payload is moved out of the envelope instead of copied (a
    /// payload the envelope shares with other holders is still copied).
    pub fn into_notify(&self, env: Envelope) -> Option<Vec<NotificationMessage>> {
        let ns = self.version.ns();
        let body = env.into_body().filter(|b| b.name.is(ns, "Notify"))?;
        body.children
            .into_iter()
            .filter_map(Node::into_element)
            .filter(|nm| nm.name.is(ns, "NotificationMessage"))
            .map(|mut nm| {
                let at = nm
                    .children
                    .iter()
                    .position(|c| c.as_element().is_some_and(|e| e.name.is(ns, "Message")))?;
                let message = std::mem::replace(&mut nm.children[at], Node::Text(String::new()))
                    .into_element()?;
                let payload = message.children.into_iter().find_map(Node::into_element)?;
                Some(self.read_notification_message(&nm, payload))
            })
            .collect()
    }

    /// One `NotificationMessage` around `payload`: the topic, producer
    /// and subscription references `nm` carries.
    fn read_notification_message(&self, nm: &Element, payload: Element) -> NotificationMessage {
        let ns = self.version.ns();
        let wsa = self.version.wsa();
        let reference = |name| {
            nm.child_ns(ns, name)
                .and_then(|e| EndpointReference::from_element(e, wsa))
        };
        NotificationMessage {
            topic: nm
                .child_ns(ns, "Topic")
                .and_then(|t| TopicPath::parse(t.text().trim())),
            producer: reference("ProducerReference"),
            subscription: reference("SubscriptionReference"),
            message: payload,
        }
    }

    // -------------------------------------------------------- PullPoint

    /// 1.3 `CreatePullPoint`.
    pub fn create_pull_point(&self, to: &str) -> Envelope {
        let mut env = self.envelope().with_body(self.br_el("CreatePullPoint"));
        self.apply_maps(
            &mut env,
            MessageHeaders::request(to, self.version.action("CreatePullPoint")),
        );
        env
    }

    /// `CreatePullPointResponse` with the new pull point's EPR.
    pub fn create_pull_point_response(&self, pull_point: &EndpointReference) -> Envelope {
        let body = self
            .br_el("CreatePullPointResponse")
            .with_child(pull_point.to_named_element(self.version.wsa(), self.br_el("PullPoint")));
        self.envelope().with_body(body)
    }

    /// Parse a `CreatePullPointResponse`.
    pub fn parse_create_pull_point_response(&self, env: &Envelope) -> Option<EndpointReference> {
        env.body()?
            .child_ns(self.version.brokered_ns(), "PullPoint")
            .and_then(|e| EndpointReference::from_element(e, self.version.wsa()))
    }

    /// `GetMessages` request to a pull point.
    pub fn get_messages(&self, pull_point: &EndpointReference, max: usize) -> Envelope {
        let body = self
            .el("GetMessages")
            .with_child(self.el("MaximumNumber").with_text(max.to_string()));
        self.management(pull_point, "GetMessages", body)
    }

    /// `GetMessagesResponse` with queued notification messages.
    pub fn get_messages_response(&self, messages: &[NotificationMessage]) -> Envelope {
        let mut body = self.el("GetMessagesResponse");
        for m in messages {
            body.push(self.notification_message(
                m.topic.as_ref(),
                m.producer.as_ref(),
                None,
                Node::Element(m.message.clone()),
            ));
        }
        self.envelope().with_body(body)
    }

    /// Parse a `GetMessagesResponse`.
    pub fn parse_get_messages_response(&self, env: &Envelope) -> Vec<NotificationMessage> {
        let ns = self.version.ns();
        let wsa = self.version.wsa();
        let Some(body) = env.body().filter(|b| b.name.is(ns, "GetMessagesResponse")) else {
            return Vec::new();
        };
        body.children_ns(ns, "NotificationMessage")
            .filter_map(|nm| {
                let message = nm.child_ns(ns, "Message")?.elements().next()?.clone();
                Some(NotificationMessage {
                    topic: nm
                        .child_ns(ns, "Topic")
                        .and_then(|t| TopicPath::parse(t.text().trim())),
                    producer: nm
                        .child_ns(ns, "ProducerReference")
                        .and_then(|e| EndpointReference::from_element(e, wsa)),
                    subscription: None,
                    message,
                })
            })
            .collect()
    }

    // ------------------------------------------------- RegisterPublisher

    /// Brokered `RegisterPublisher`.
    pub fn register_publisher(
        &self,
        to: &str,
        publisher: Option<&EndpointReference>,
        topics: &[TopicExpression],
        demand: bool,
    ) -> Envelope {
        let wsa = self.version.wsa();
        let mut body = self.br_el("RegisterPublisher");
        if let Some(p) = publisher {
            body.push(p.to_named_element(wsa, self.br_el("PublisherReference")));
        }
        for t in topics {
            body.push(self.topic_expression_element("Topic", t));
        }
        if demand {
            body.push(self.br_el("Demand").with_text("true"));
        }
        let mut env = self.envelope().with_body(body);
        self.apply_maps(
            &mut env,
            MessageHeaders::request(to, self.version.action("RegisterPublisher")),
        );
        env
    }

    /// Parse a `RegisterPublisher` body into (publisher EPR, topics,
    /// demand flag).
    pub fn parse_register_publisher(
        &self,
        env: &Envelope,
    ) -> Result<(Option<EndpointReference>, Vec<TopicExpression>, bool), Fault> {
        let brns = self.version.brokered_ns();
        let ns = self.version.ns();
        let wsa = self.version.wsa();
        let body = env
            .body()
            .filter(|b| b.name.is(brns, "RegisterPublisher"))
            .ok_or_else(|| Fault::sender("expected RegisterPublisher"))?;
        let publisher = body
            .child_ns(brns, "PublisherReference")
            .and_then(|e| EndpointReference::from_element(e, wsa));
        let mut topics = Vec::new();
        for t in body.children_ns(ns, "Topic") {
            topics.push(Self::parse_topic_expression(t)?);
        }
        let demand = (body.child_ns(brns, "Demand"))
            .map(|d| boolean(d, "Demand"))
            .transpose()?;
        Ok((publisher, topics, demand.unwrap_or(false)))
    }

    /// `RegisterPublisherResponse` with the registration EPR.
    pub fn register_publisher_response(&self, registration: &EndpointReference) -> Envelope {
        let body =
            self.br_el("RegisterPublisherResponse")
                .with_child(registration.to_named_element(
                    self.version.wsa(),
                    self.br_el("PublisherRegistrationReference"),
                ));
        self.envelope().with_body(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consumer() -> EndpointReference {
        EndpointReference::new("http://consumer.example.org/nc")
    }

    #[test]
    fn subscribe_roundtrip_both_versions() {
        for v in [WsnVersion::V1_0, WsnVersion::V1_3] {
            let codec = WsnCodec::new(v);
            let req = WsnSubscribeRequest::new(consumer())
                .with_filter(WsnFilter::topic("storms/tornado"))
                .with_filter(WsnFilter::content("/e[@sev > 2]"))
                .with_termination(Termination::At(600_000));
            let env = codec.subscribe("http://producer", &req);
            let back = codec
                .parse_subscribe(&Envelope::from_xml(&env.to_xml()).unwrap())
                .unwrap();
            assert_eq!(back, req, "{v:?}");
        }
    }

    #[test]
    fn v10_requires_topic() {
        let codec = WsnCodec::new(WsnVersion::V1_0);
        let req = WsnSubscribeRequest::new(consumer());
        let env = codec.subscribe("http://p", &req);
        let fault = codec.parse_subscribe(&env).unwrap_err();
        assert!(fault.reason.contains("TopicExpression"), "{}", fault.reason);
        // 1.3 accepts a topicless subscribe.
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let env = codec.subscribe("http://p", &WsnSubscribeRequest::new(consumer()));
        assert!(codec.parse_subscribe(&env).is_ok());
    }

    #[test]
    fn v10_rejects_duration_termination() {
        let codec = WsnCodec::new(WsnVersion::V1_0);
        let req = WsnSubscribeRequest::new(consumer())
            .with_filter(WsnFilter::topic("a"))
            .with_termination(Termination::Duration(60_000));
        let env = codec.subscribe("http://p", &req);
        let fault = codec.parse_subscribe(&env).unwrap_err();
        assert_eq!(
            fault.subcode.as_deref(),
            Some("wsnt:UnacceptableInitialTerminationTimeFault")
        );
        // 1.3 accepts durations (a convergence with WS-Eventing).
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let req =
            WsnSubscribeRequest::new(consumer()).with_termination(Termination::Duration(60_000));
        let env = codec.subscribe("http://p", &req);
        assert!(codec.parse_subscribe(&env).is_ok());
    }

    #[test]
    fn filter_wrapper_only_in_13() {
        let with_filter = |v: WsnVersion| {
            let codec = WsnCodec::new(v);
            let req = WsnSubscribeRequest::new(consumer()).with_filter(WsnFilter::topic("storms"));
            codec.subscribe("http://p", &req).to_xml()
        };
        let x10 = with_filter(WsnVersion::V1_0);
        assert!(!x10.contains("Filter"), "{x10}");
        let x13 = with_filter(WsnVersion::V1_3);
        assert!(x13.contains("Filter"), "{x13}");
    }

    #[test]
    fn subscription_id_container_differs_by_version() {
        // 1.0 → ReferenceProperties (the paper's exact observation);
        // 1.3 → ReferenceParameters.
        let mgr = "http://p/subs";
        let c10 = WsnCodec::new(WsnVersion::V1_0);
        let x10 = c10.subscribe_response(mgr, "s-1", 0, None).to_xml();
        assert!(x10.contains("ReferenceProperties"), "{x10}");
        assert!(!x10.contains("ReferenceParameters"), "{x10}");
        let c13 = WsnCodec::new(WsnVersion::V1_3);
        let x13 = c13.subscribe_response(mgr, "s-1", 0, None).to_xml();
        assert!(x13.contains("ReferenceParameters"), "{x13}");
        assert!(!x13.contains("ReferenceProperties"), "{x13}");
    }

    #[test]
    fn subscribe_response_roundtrip() {
        for v in [WsnVersion::V1_0, WsnVersion::V1_3] {
            let codec = WsnCodec::new(v);
            let env = codec.subscribe_response("http://p/subs", "s-42", 1_000, Some(90_000));
            let (epr, id) = codec
                .parse_subscribe_response(&Envelope::from_xml(&env.to_xml()).unwrap())
                .unwrap();
            assert_eq!(id, "s-42");
            assert_eq!(epr.address, "http://p/subs");
        }
    }

    #[test]
    fn management_identifier_echo() {
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let mgr = codec.manager_epr("http://p/subs", "s-7");
        let env = codec.renew(&mgr, Termination::Duration(60_000));
        let reparsed = Envelope::from_xml(&env.to_xml()).unwrap();
        assert_eq!(
            codec.extract_subscription_id(&reparsed).as_deref(),
            Some("s-7")
        );
    }

    #[test]
    fn notify_roundtrip() {
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let msgs = vec![
            NotificationMessage {
                topic: TopicPath::parse("storms/tornado"),
                producer: Some(EndpointReference::new("http://p")),
                subscription: Some(EndpointReference::new("http://p/subs")),
                message: Element::ns("urn:wx", "alert", "wx").with_text("F5"),
            },
            NotificationMessage::new(None, Element::local("plain")),
        ];
        let env = codec.notify(&consumer(), &msgs);
        let back = codec
            .parse_notify(&Envelope::from_xml(&env.to_xml()).unwrap())
            .unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back[0].topic.as_ref().unwrap().to_string(),
            "storms/tornado"
        );
        assert_eq!(back[0].message.text(), "F5");
        assert!(back[1].topic.is_none());
    }

    #[test]
    fn wrapped_structure_matches_paper_description() {
        // §V.4(5): payload inside NotificationMessage inside Notify.
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let msgs = vec![NotificationMessage::new(None, Element::local("payload"))];
        let env = codec.notify(&consumer(), &msgs);
        let body = env.body().unwrap();
        assert_eq!(body.name.local, "Notify");
        let nm = body.elements().next().unwrap();
        assert_eq!(nm.name.local, "NotificationMessage");
        let msg = nm.child("Message").unwrap();
        assert_eq!(msg.elements().next().unwrap().name.local, "payload");
    }

    #[test]
    fn raw_notification_is_bare() {
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let env = codec.raw_notification(&consumer(), &Element::local("payload"));
        assert_eq!(env.body().unwrap().name.local, "payload");
    }

    #[test]
    fn get_current_message_roundtrip() {
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let topic = TopicExpression::concrete("storms").unwrap();
        let env = codec.get_current_message("http://p", &topic);
        assert!(env.to_xml().contains("GetCurrentMessage"));
        let resp = codec.get_current_message_response(Some(&Element::local("last")));
        assert_eq!(
            resp.body().unwrap().elements().next().unwrap().name.local,
            "last"
        );
        let empty = codec.get_current_message_response(None);
        assert_eq!(empty.body().unwrap().element_count(), 0);
    }

    #[test]
    fn pull_point_messages_roundtrip() {
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let pp = EndpointReference::new("http://broker/pp/1");
        let env = codec.create_pull_point_response(&pp);
        let back = codec
            .parse_create_pull_point_response(&Envelope::from_xml(&env.to_xml()).unwrap())
            .unwrap();
        assert_eq!(back.address, pp.address);
        let msgs = vec![NotificationMessage::new(
            TopicPath::parse("a/b"),
            Element::local("m1"),
        )];
        let env = codec.get_messages_response(&msgs);
        let got = codec.parse_get_messages_response(&Envelope::from_xml(&env.to_xml()).unwrap());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].message.name.local, "m1");
    }

    #[test]
    fn register_publisher_roundtrip() {
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let publisher = EndpointReference::new("http://pub");
        let topics = vec![TopicExpression::concrete("storms").unwrap()];
        let env = codec.register_publisher("http://broker", Some(&publisher), &topics, true);
        let (p, t, demand) = codec
            .parse_register_publisher(&Envelope::from_xml(&env.to_xml()).unwrap())
            .unwrap();
        assert_eq!(p.unwrap().address, "http://pub");
        assert_eq!(t.len(), 1);
        assert!(demand);
    }

    /// `env` with the text of its body's `local` child replaced.
    fn with_child_text(mut env: Envelope, local: &str, text: &str) -> Envelope {
        let body = env.body_first_mut().unwrap();
        let child = body
            .children
            .iter_mut()
            .filter_map(|n| match n {
                Node::Element(e) if e.name.local == local => Some(e),
                _ => None,
            })
            .next()
            .unwrap();
        child.children = vec![Node::Text(text.into())];
        env
    }

    #[test]
    fn demand_reads_every_xsd_boolean_form() {
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let env = codec.register_publisher("http://broker", None, &[], true);
        for (text, demand) in [
            ("1", true),
            (" true ", true),
            ("0", false),
            ("false", false),
        ] {
            let (_, _, got) = codec
                .parse_register_publisher(&with_child_text(env.clone(), "Demand", text))
                .unwrap();
            assert_eq!(got, demand, "Demand `{text}`");
        }
        let fault = codec
            .parse_register_publisher(&with_child_text(env, "Demand", "yes"))
            .unwrap_err();
        assert_eq!(fault.code, wsm_soap::FaultCode::Sender);
    }

    #[test]
    fn use_notify_reads_every_xsd_boolean_form() {
        let codec = WsnCodec::new(WsnVersion::V1_0);
        let req = WsnSubscribeRequest::new(consumer())
            .with_filter(WsnFilter::topic("t"))
            .raw();
        let env = codec.subscribe("http://p", &req);
        for (text, use_raw) in [("0", true), ("false", true), ("1", false), (" true", false)] {
            let got = codec
                .parse_subscribe(&with_child_text(env.clone(), "UseNotify", text))
                .unwrap();
            assert_eq!(got.use_raw, use_raw, "UseNotify `{text}`");
        }
        let fault = codec
            .parse_subscribe(&with_child_text(env, "UseNotify", "no"))
            .unwrap_err();
        assert_eq!(fault.code, wsm_soap::FaultCode::Sender);
    }

    #[test]
    fn wsrf_operations_for_10() {
        let codec = WsnCodec::new(WsnVersion::V1_0);
        let sub = EndpointReference::new("http://p/subs");
        let x = codec.wsrf_destroy(&sub).to_xml();
        assert!(x.contains("Destroy"), "{x}");
        let x = codec
            .wsrf_set_termination_time(&sub, Termination::At(5_000))
            .to_xml();
        assert!(x.contains("SetTerminationTime"), "{x}");
        let x = codec.wsrf_get_property(&sub, "TerminationTime").to_xml();
        assert!(x.contains("GetResourceProperty"), "{x}");
    }

    #[test]
    fn soap_version_is_11() {
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let env = codec.subscribe("http://p", &WsnSubscribeRequest::new(consumer()));
        assert_eq!(env.version(), SoapVersion::V11);
    }
}
