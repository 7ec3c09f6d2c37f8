//! SOAP message codecs for both WS-Eventing versions.
//!
//! Everything on the wire goes through this module, so the §V.4
//! message-format experiment can compare real artifacts. WS-Eventing
//! messages are built on SOAP 1.2 (its published examples use the SOAP
//! 1.2 envelope), in contrast to WS-Notification's SOAP 1.1 — one of
//! the "versions of underlying specifications" differences.

use crate::model::{
    DeliveryMode, EndStatus, Expires, Filter, SubscribeRequest, SubscriptionHandle,
};
use crate::version::WseVersion;
use std::sync::Arc;
use wsm_addressing::{EndpointReference, MessageHeaders};
use wsm_soap::{Envelope, Fault, SoapVersion};
use wsm_xml::{Element, Node, SharedElement};

/// WS-Eventing's published examples use the SOAP 1.2 envelope.
const SOAP: SoapVersion = SoapVersion::V12;

/// Message builder/parser for one WS-Eventing version.
#[derive(Debug, Clone, Copy)]
pub struct WseCodec {
    /// The spec version this codec speaks.
    pub version: WseVersion,
}

impl WseCodec {
    /// A codec for `version`.
    pub fn new(version: WseVersion) -> Self {
        WseCodec { version }
    }

    fn el(&self, local: &str) -> Element {
        Element::ns(self.version.ns(), local, "wse")
    }

    fn envelope(&self) -> Envelope {
        Envelope::new(SOAP)
    }

    fn apply_maps(&self, env: &mut Envelope, maps: MessageHeaders) {
        maps.apply(env, self.version.wsa());
    }

    /// The EPR of the subscription manager at `address` managing
    /// subscription `id`: 08/2004 plants the id as a `wse:Identifier`
    /// reference parameter, 01/2004 returns it beside the EPR as
    /// `wse:Id` and leaves the EPR bare.
    pub fn manager_epr(&self, address: &str, id: &str) -> EndpointReference {
        let epr = EndpointReference::new(address);
        if !self.version.id_in_reference_parameters() {
            return epr;
        }
        epr.with_reference(self.version.wsa(), self.el("Identifier").with_text(id))
    }

    // ------------------------------------------------------ Subscribe

    /// Build a `Subscribe` envelope addressed to an event source.
    pub fn subscribe(&self, to: &str, req: &SubscribeRequest) -> Envelope {
        let wsa = self.version.wsa();
        let mut body = self.el("Subscribe");
        if let Some(end_to) = &req.end_to {
            body.push(end_to.to_named_element(wsa, self.el("EndTo")));
        }
        match self.version {
            WseVersion::Jan2004 => {
                // 01/2004: NotifyTo directly inside Subscribe; push only.
                body.push(req.notify_to.to_named_element(wsa, self.el("NotifyTo")));
            }
            WseVersion::Aug2004 => {
                let mut delivery = self.el("Delivery");
                if req.mode != DeliveryMode::Push {
                    delivery.set_attr(wsm_xml::QName::local("Mode"), req.mode.uri(self.version));
                }
                delivery.push(req.notify_to.to_named_element(wsa, self.el("NotifyTo")));
                body.push(delivery);
            }
        }
        if let Some(exp) = req.expires {
            body.push(self.el("Expires").with_text(exp.to_lexical()));
        }
        if let Some(f) = &req.filter {
            body.push(
                self.el("Filter")
                    .with_attr("Dialect", f.dialect.clone())
                    .with_text(f.expression.clone()),
            );
        }
        let mut env = self.envelope().with_body(body);
        self.apply_maps(
            &mut env,
            MessageHeaders::request(to, self.version.action("Subscribe")),
        );
        env
    }

    /// Parse a `Subscribe` body.
    pub fn parse_subscribe(&self, env: &Envelope) -> Result<SubscribeRequest, Fault> {
        let ns = self.version.ns();
        let wsa = self.version.wsa();
        let body = env
            .body()
            .filter(|b| b.name.is(ns, "Subscribe"))
            .ok_or_else(|| Fault::sender("expected wse:Subscribe"))?;

        let end_to = body
            .child_ns(ns, "EndTo")
            .and_then(|e| EndpointReference::from_element(e, wsa));

        let (notify_to, mode) = match self.version {
            WseVersion::Jan2004 => {
                let nt = body
                    .child_ns(ns, "NotifyTo")
                    .and_then(|e| EndpointReference::from_element(e, wsa))
                    .ok_or_else(|| Fault::sender("missing wse:NotifyTo"))?;
                (nt, DeliveryMode::Push)
            }
            WseVersion::Aug2004 => {
                let delivery = body
                    .child_ns(ns, "Delivery")
                    .ok_or_else(|| Fault::sender("missing wse:Delivery"))?;
                let mode = match delivery.attr("Mode") {
                    None => DeliveryMode::Push,
                    Some(uri) => DeliveryMode::from_uri(uri, self.version).ok_or_else(|| {
                        Fault::sender("the requested delivery mode is not supported")
                            .with_subcode("wse:DeliveryModeRequestedUnavailable")
                    })?,
                };
                let nt = delivery
                    .child_ns(ns, "NotifyTo")
                    .and_then(|e| EndpointReference::from_element(e, wsa))
                    .ok_or_else(|| Fault::sender("missing wse:NotifyTo"))?;
                (nt, mode)
            }
        };

        let expires = self.requested_expiry(body)?;

        let filters: Vec<&Element> = body.children_ns(ns, "Filter").collect();
        if filters.len() > self.version.max_filters() {
            return Err(Fault::sender("WS-Eventing allows at most one filter"));
        }
        let filter = filters.first().map(|f| Filter {
            dialect: f
                .attr("Dialect")
                .unwrap_or(crate::XPATH_DIALECT)
                .to_string(),
            expression: f.text().trim().to_string(),
        });

        Ok(SubscribeRequest {
            notify_to,
            end_to,
            mode,
            expires,
            filter,
        })
    }

    /// The `wse:Expires` a request body asks for, if any; one that does
    /// not parse faults with `wse:InvalidExpirationTime`.
    fn requested_expiry(&self, body: &Element) -> Result<Option<Expires>, Fault> {
        body.child_ns(self.version.ns(), "Expires")
            .map(|e| {
                Expires::parse(&e.text()).ok_or_else(|| {
                    Fault::sender("invalid wse:Expires").with_subcode("wse:InvalidExpirationTime")
                })
            })
            .transpose()
    }

    /// Build a `SubscribeResponse`, with `handle.manager` written as
    /// given (mint it with [`WseCodec::manager_epr`]).
    ///
    /// The enclosing element for the subscription id is *the* concrete
    /// difference the paper calls out: 08/2004 plants `wse:Identifier`
    /// in the manager EPR's `ReferenceParameters`; 01/2004 returns a
    /// separate `wse:Id` element.
    pub fn subscribe_response(&self, handle: &SubscriptionHandle) -> Envelope {
        let mut body = self.el("SubscribeResponse").with_child(
            handle
                .manager
                .to_named_element(self.version.wsa(), self.el("SubscriptionManager")),
        );
        if !self.version.id_in_reference_parameters() {
            body.push(self.el("Id").with_text(handle.id.clone()));
        }
        if let Some(exp) = handle.expires {
            body.push(self.el("Expires").with_text(exp.to_lexical()));
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

    /// Parse a `SubscribeResponse`.
    pub fn parse_subscribe_response(&self, env: &Envelope) -> Result<SubscriptionHandle, Fault> {
        let ns = self.version.ns();
        let wsa = self.version.wsa();
        let body = env
            .body()
            .filter(|b| b.name.is(ns, "SubscribeResponse"))
            .ok_or_else(|| Fault::sender("expected wse:SubscribeResponse"))?;
        let mgr_el = body
            .child_ns(ns, "SubscriptionManager")
            .ok_or_else(|| Fault::sender("missing wse:SubscriptionManager"))?;
        let manager = EndpointReference::from_element(mgr_el, wsa)
            .ok_or_else(|| Fault::sender("invalid SubscriptionManager EPR"))?;
        let id = match self.version {
            WseVersion::Jan2004 => body
                .child_ns(ns, "Id")
                .map(|e| e.text().trim().to_string())
                .ok_or_else(|| Fault::sender("missing wse:Id"))?,
            WseVersion::Aug2004 => manager
                .reference_item(ns, "Identifier")
                .map(|e| e.text().trim().to_string())
                .ok_or_else(|| Fault::sender("missing wse:Identifier reference parameter"))?,
        };
        let expires = body
            .child_ns(ns, "Expires")
            .and_then(|e| Expires::parse(&e.text()));
        Ok(SubscriptionHandle {
            manager,
            id,
            expires,
            version: self.version,
        })
    }

    // ------------------------------------------- subscription management

    /// Build a management request (`Renew`, `GetStatus`, `Unsubscribe`,
    /// or the modeled `Pull`) addressed at the subscription manager.
    fn management_request(
        &self,
        handle: &SubscriptionHandle,
        op: &str,
        mut body: Element,
    ) -> Envelope {
        if self.version == WseVersion::Jan2004 {
            // 01/2004 carries the id in the body.
            body.push(self.el("Id").with_text(handle.id.clone()));
        }
        let mut env = self.envelope().with_body(body);
        // to_epr echoes the Identifier reference parameter for 08/2004.
        self.apply_maps(
            &mut env,
            MessageHeaders::to_epr(&handle.manager, self.version.action(op)),
        );
        env
    }

    /// `Renew` request.
    pub fn renew(&self, handle: &SubscriptionHandle, expires: Option<Expires>) -> Envelope {
        let mut body = self.el("Renew");
        if let Some(e) = expires {
            body.push(self.el("Expires").with_text(e.to_lexical()));
        }
        self.management_request(handle, "Renew", body)
    }

    /// Parse a `Renew` body into the expiry it asks for (`None`: no
    /// expiry). An `Expires` that does not parse faults exactly as it
    /// does in `Subscribe`.
    pub fn parse_renew(&self, env: &Envelope) -> Result<Option<Expires>, Fault> {
        let body = env
            .body()
            .filter(|b| b.name.is(self.version.ns(), "Renew"))
            .ok_or_else(|| Fault::sender("expected wse:Renew"))?;
        self.requested_expiry(body)
    }

    /// `GetStatus` request (08/2004 only; callers guard on the version).
    pub fn get_status(&self, handle: &SubscriptionHandle) -> Envelope {
        self.management_request(handle, "GetStatus", self.el("GetStatus"))
    }

    /// `Unsubscribe` request.
    pub fn unsubscribe(&self, handle: &SubscriptionHandle) -> Envelope {
        self.management_request(handle, "Unsubscribe", self.el("Unsubscribe"))
    }

    /// The modeled `Pull` request: retrieve up to `max` queued events
    /// for a pull-mode subscription.
    pub fn pull(&self, handle: &SubscriptionHandle, max: usize) -> Envelope {
        let body = self.el("Pull").with_attr("MaxElements", max.to_string());
        self.management_request(handle, "Pull", body)
    }

    /// Identify the subscription a management request refers to:
    /// the echoed `wse:Identifier` header (08/2004) or the body's
    /// `wse:Id` child (01/2004).
    pub fn extract_subscription_id(&self, env: &Envelope) -> Option<String> {
        let ns = self.version.ns();
        match self.version {
            WseVersion::Aug2004 => env
                .headers()
                .find(|h| h.name.is(ns, "Identifier"))
                .map(|h| h.text().trim().to_string()),
            WseVersion::Jan2004 => env
                .body()
                .and_then(|b| b.child_ns(ns, "Id"))
                .map(|e| e.text().trim().to_string()),
        }
    }

    /// Response to `Renew`/`GetStatus` (both return an `Expires`) or
    /// `Unsubscribe` (empty response).
    pub fn management_response(&self, op: &str, expires: Option<Expires>) -> Envelope {
        let mut body = self.el(&format!("{op}Response"));
        if let Some(e) = expires {
            body.push(self.el("Expires").with_text(e.to_lexical()));
        }
        let mut env = self.envelope().with_body(body);
        self.apply_maps(
            &mut env,
            MessageHeaders {
                action: Some(self.version.action(&format!("{op}Response"))),
                ..Default::default()
            },
        );
        env
    }

    /// Parse the `Expires` out of a management response.
    pub fn parse_expires(&self, env: &Envelope) -> Option<Expires> {
        env.body()
            .and_then(|b| b.child_ns(self.version.ns(), "Expires"))
            .and_then(|e| Expires::parse(&e.text()))
    }

    /// Build a `PullResponse` containing queued events.
    pub fn pull_response(&self, events: &[Element]) -> Envelope {
        self.pull_response_envelope(events.iter().cloned().map(Node::Element))
    }

    /// Build a `PullResponse` over shared event subtrees: each queued
    /// event splices its cached serialization instead of deep-cloning
    /// into the wrapper. Byte-identical to [`WseCodec::pull_response`]
    /// over the same elements.
    pub fn pull_response_shared(&self, events: &[Arc<SharedElement>]) -> Envelope {
        self.pull_response_envelope(events.iter().cloned().map(Node::Shared))
    }

    fn pull_response_envelope(&self, events: impl Iterator<Item = Node>) -> Envelope {
        let mut body = self.el("PullResponse");
        body.children.extend(events);
        let mut env = self.envelope().with_body(body);
        self.apply_maps(
            &mut env,
            MessageHeaders {
                action: Some(self.version.action("PullResponse")),
                ..Default::default()
            },
        );
        env
    }

    /// Parse the events out of a `PullResponse`.
    pub fn parse_pull_response(&self, env: &Envelope) -> Vec<Element> {
        env.body()
            .filter(|b| b.name.is(self.version.ns(), "PullResponse"))
            .map(|b| b.elements().cloned().collect())
            .unwrap_or_default()
    }

    // -------------------------------------------------- notifications

    /// A raw (unwrapped) notification: the event element *is* the SOAP
    /// body — WS-Eventing's only defined encapsulation, per the paper's
    /// message-encapsulation comparison.
    pub fn notification(&self, to: &EndpointReference, event: &Element) -> Envelope {
        MessageHeaders::raw_delivery(SOAP, self.version.wsa(), to, Node::Element(event.clone()))
    }

    /// A wrapped notification batch. 08/2004 allows the mode but does
    /// not define the wrapper; we define `<wse:Notifications>` and say
    /// so loudly (reproducing the spec gap the paper highlights).
    pub fn wrapped_notification(&self, to: &EndpointReference, events: &[Element]) -> Envelope {
        self.wrapped(to, events.iter().cloned().map(Node::Element))
    }

    /// A wrapped notification batch over shared event subtrees, so
    /// every envelope carrying the same events reuses their cached
    /// serializations. Byte-identical to
    /// [`WseCodec::wrapped_notification`] over the same elements.
    pub fn wrapped_notification_shared(
        &self,
        to: &EndpointReference,
        events: &[Arc<SharedElement>],
    ) -> Envelope {
        self.wrapped(to, events.iter().cloned().map(Node::Shared))
    }

    fn wrapped(&self, to: &EndpointReference, events: impl Iterator<Item = Node>) -> Envelope {
        let mut wrapper = self.el("Notifications");
        wrapper.children.extend(events);
        let mut env = self.envelope().with_body(wrapper);
        self.apply_maps(
            &mut env,
            MessageHeaders::to_epr(to, self.version.delivery_mode_uri("Wrap")),
        );
        env
    }

    /// Build a `SubscriptionEnd` message.
    pub fn subscription_end(
        &self,
        to: &EndpointReference,
        manager: &EndpointReference,
        status: EndStatus,
        reason: Option<&str>,
    ) -> Envelope {
        let wsa = self.version.wsa();
        let mut body = self.el("SubscriptionEnd");
        body.push(manager.to_named_element(wsa, self.el("SubscriptionManager")));
        body.push(
            self.el("Status")
                .with_text(format!("wse:{}", status.wire_name())),
        );
        if let Some(r) = reason {
            body.push(self.el("Reason").with_text(r));
        }
        let mut env = self.envelope().with_body(body);
        self.apply_maps(
            &mut env,
            MessageHeaders::to_epr(to, self.version.action("SubscriptionEnd")),
        );
        env
    }

    /// Parse a `SubscriptionEnd`.
    pub fn parse_subscription_end(&self, env: &Envelope) -> Option<(EndStatus, Option<String>)> {
        let ns = self.version.ns();
        let body = env.body().filter(|b| b.name.is(ns, "SubscriptionEnd"))?;
        let status = EndStatus::from_wire(&body.child_ns(ns, "Status")?.text())?;
        let reason = body.child_ns(ns, "Reason").map(|r| r.text());
        Some((status, reason))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink_epr() -> EndpointReference {
        EndpointReference::new("http://sink.example.org/s1")
    }

    fn handle(v: WseVersion) -> SubscriptionHandle {
        let address = if v.has_separate_subscription_manager() {
            "http://src/mgr"
        } else {
            "http://src"
        };
        SubscriptionHandle {
            manager: WseCodec::new(v).manager_epr(address, "sub-1"),
            id: "sub-1".into(),
            expires: Some(Expires::Duration(60_000)),
            version: v,
        }
    }

    #[test]
    fn subscribe_roundtrip_both_versions() {
        for v in [WseVersion::Jan2004, WseVersion::Aug2004] {
            let codec = WseCodec::new(v);
            let req = SubscribeRequest::push(sink_epr())
                .with_filter(Filter::xpath("/event[@sev > 3]"))
                .with_expires(Expires::Duration(30_000))
                .with_end_to(EndpointReference::new("http://sink/end"));
            let env = codec.subscribe("http://src", &req);
            let reparsed = Envelope::from_xml(&env.to_xml()).unwrap();
            let back = codec.parse_subscribe(&reparsed).unwrap();
            assert_eq!(back, req, "version {v:?}");
        }
    }

    #[test]
    fn subscribe_carries_version_action() {
        let codec = WseCodec::new(WseVersion::Aug2004);
        let env = codec.subscribe("http://src", &SubscribeRequest::push(sink_epr()));
        let maps = MessageHeaders::extract(&env, WseVersion::Aug2004.wsa());
        assert_eq!(
            maps.action.as_deref(),
            Some("http://schemas.xmlsoap.org/ws/2004/08/eventing/Subscribe")
        );
        assert_eq!(maps.to.as_deref(), Some("http://src"));
    }

    #[test]
    fn non_push_mode_in_aug() {
        let codec = WseCodec::new(WseVersion::Aug2004);
        let req = SubscribeRequest::push(sink_epr()).with_mode(DeliveryMode::Pull);
        let env = codec.subscribe("http://src", &req);
        let back = codec
            .parse_subscribe(&Envelope::from_xml(&env.to_xml()).unwrap())
            .unwrap();
        assert_eq!(back.mode, DeliveryMode::Pull);
    }

    #[test]
    fn unknown_mode_faults_with_spec_subcode() {
        let codec = WseCodec::new(WseVersion::Aug2004);
        let mut body = codec.el("Subscribe");
        let mut delivery = codec.el("Delivery");
        delivery.set_attr(wsm_xml::QName::local("Mode"), "urn:bogus");
        delivery.push(sink_epr().to_named_element(WseVersion::Aug2004.wsa(), codec.el("NotifyTo")));
        body.push(delivery);
        let env = Envelope::new(SoapVersion::V12).with_body(body);
        let fault = codec.parse_subscribe(&env).unwrap_err();
        assert_eq!(
            fault.subcode.as_deref(),
            Some("wse:DeliveryModeRequestedUnavailable")
        );
    }

    #[test]
    fn subscribe_response_id_placement_differs() {
        // 08/2004: Identifier inside ReferenceParameters.
        let aug = WseCodec::new(WseVersion::Aug2004);
        let xml = aug
            .subscribe_response(&handle(WseVersion::Aug2004))
            .to_xml();
        assert!(xml.contains("ReferenceParameters"), "{xml}");
        assert!(xml.contains("Identifier"), "{xml}");
        // 01/2004: separate wse:Id element.
        let jan = WseCodec::new(WseVersion::Jan2004);
        let xml = jan
            .subscribe_response(&handle(WseVersion::Jan2004))
            .to_xml();
        assert!(!xml.contains("ReferenceParameters"), "{xml}");
        assert!(xml.contains(">sub-1</"), "{xml}");
    }

    #[test]
    fn subscribe_response_roundtrip() {
        for v in [WseVersion::Jan2004, WseVersion::Aug2004] {
            let codec = WseCodec::new(v);
            let h = handle(v);
            let env = codec.subscribe_response(&h);
            let back = codec
                .parse_subscribe_response(&Envelope::from_xml(&env.to_xml()).unwrap())
                .unwrap();
            assert_eq!(back.id, "sub-1");
            assert_eq!(back.expires, h.expires);
            // The manager EPR comes back as minted: one identifier.
            assert_eq!(back.manager, h.manager);
        }
    }

    #[test]
    fn management_identifier_extraction() {
        for v in [WseVersion::Jan2004, WseVersion::Aug2004] {
            let codec = WseCodec::new(v);
            let env = codec.renew(&handle(v), Some(Expires::Duration(10_000)));
            let reparsed = Envelope::from_xml(&env.to_xml()).unwrap();
            assert_eq!(
                codec.extract_subscription_id(&reparsed).as_deref(),
                Some("sub-1"),
                "{v:?}"
            );
        }
    }

    #[test]
    fn management_response_expires() {
        let codec = WseCodec::new(WseVersion::Aug2004);
        let env = codec.management_response("Renew", Some(Expires::At(99_000)));
        assert_eq!(codec.parse_expires(&env), Some(Expires::At(99_000)));
        let env = codec.management_response("Unsubscribe", None);
        assert_eq!(codec.parse_expires(&env), None);
        assert_eq!(env.body().unwrap().name.local, "UnsubscribeResponse");
    }

    #[test]
    fn raw_notification_body_is_the_event() {
        let codec = WseCodec::new(WseVersion::Aug2004);
        let event = Element::ns("urn:wx", "storm", "wx").with_text("F5");
        let env = codec.notification(&sink_epr(), &event);
        assert_eq!(env.body().unwrap(), &event);
        // Action derived from the event name.
        let maps = MessageHeaders::extract(&env, WseVersion::Aug2004.wsa());
        assert_eq!(maps.action.as_deref(), Some("urn:wx/storm"));
    }

    #[test]
    fn wrapped_notification_batches() {
        let codec = WseCodec::new(WseVersion::Aug2004);
        let events = vec![Element::local("a"), Element::local("b")];
        let env = codec.wrapped_notification(&sink_epr(), &events);
        let body = env.body().unwrap();
        assert_eq!(body.name.local, "Notifications");
        assert_eq!(body.element_count(), 2);
    }

    #[test]
    fn subscription_end_roundtrip() {
        let codec = WseCodec::new(WseVersion::Aug2004);
        let env = codec.subscription_end(
            &sink_epr(),
            &EndpointReference::new("http://src/mgr"),
            EndStatus::DeliveryFailure,
            Some("sink unreachable"),
        );
        let (status, reason) = codec
            .parse_subscription_end(&Envelope::from_xml(&env.to_xml()).unwrap())
            .unwrap();
        assert_eq!(status, EndStatus::DeliveryFailure);
        assert_eq!(reason.as_deref(), Some("sink unreachable"));
    }

    #[test]
    fn pull_roundtrip() {
        let codec = WseCodec::new(WseVersion::Aug2004);
        let env = codec.pull(&handle(WseVersion::Aug2004), 10);
        assert_eq!(env.body().unwrap().attr("MaxElements"), Some("10"));
        let resp = codec.pull_response(&[Element::local("e1"), Element::local("e2")]);
        let events = codec.parse_pull_response(&Envelope::from_xml(&resp.to_xml()).unwrap());
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn jan_subscribe_has_no_delivery_wrapper() {
        let codec = WseCodec::new(WseVersion::Jan2004);
        let xml = codec
            .subscribe("http://src", &SubscribeRequest::push(sink_epr()))
            .to_xml();
        assert!(!xml.contains("Delivery"), "{xml}");
        assert!(xml.contains("NotifyTo"), "{xml}");
    }

    #[test]
    fn two_filters_rejected() {
        let codec = WseCodec::new(WseVersion::Aug2004);
        let req = SubscribeRequest::push(sink_epr()).with_filter(Filter::xpath("/a"));
        let env = codec.subscribe("http://src", &req);
        // Manually add a second Filter to the body.
        let mut el = env.to_element();
        let ns = WseVersion::Aug2004.ns().to_string();
        let body = el
            .elements_mut()
            .find(|e| e.name.local == "Body")
            .unwrap()
            .elements_mut()
            .next()
            .unwrap();
        body.push(Element::ns(&ns, "Filter", "wse").with_text("/b"));
        let doctored = Envelope::from_element(&el).unwrap();
        assert!(codec.parse_subscribe(&doctored).is_err());
    }
}
