//! Message-addressing properties as SOAP headers.

use crate::epr::EndpointReference;
use crate::WsaVersion;
use wsm_soap::{Envelope, SoapVersion};
use wsm_xml::{Element, Node};

/// The WS-Addressing message-addressing properties (MAPs) of one
/// message: `To`, `Action`, `MessageID`, `RelatesTo`, `ReplyTo`,
/// `FaultTo`, plus any reference data echoed to the target EPR.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MessageHeaders {
    /// Destination URI (`wsa:To`).
    pub to: Option<String>,
    /// Action URI (`wsa:Action`) — the per-operation values are one of
    /// the §V.4 "message contents" differences between the spec families.
    pub action: Option<String>,
    /// Unique id (`wsa:MessageID`).
    pub message_id: Option<String>,
    /// Correlation (`wsa:RelatesTo`).
    pub relates_to: Option<String>,
    /// Where to send the reply.
    pub reply_to: Option<EndpointReference>,
    /// Where to send faults.
    pub fault_to: Option<EndpointReference>,
    /// Reference properties/parameters of the destination EPR, echoed
    /// as top-level headers per the WSA binding rules.
    pub echoed_reference_data: Vec<Element>,
}

impl MessageHeaders {
    /// Headers for a request to `to` with the given action.
    pub fn request(to: impl Into<String>, action: impl Into<String>) -> Self {
        MessageHeaders {
            to: Some(to.into()),
            action: Some(action.into()),
            ..Default::default()
        }
    }

    /// Headers addressed at a full EPR: destination address plus echoed
    /// reference data (this is how `Renew`/`Unsubscribe` reach the right
    /// subscription in both spec families).
    pub fn to_epr(epr: &EndpointReference, action: impl Into<String>) -> Self {
        MessageHeaders {
            to: Some(epr.address.clone()),
            action: Some(action.into()),
            echoed_reference_data: epr.all_reference_data().cloned().collect(),
            ..Default::default()
        }
    }

    /// A raw (unwrapped) delivery: `event`, a plain or shared element,
    /// is the whole SOAP body, addressed at `to` under [`raw_action`].
    /// WS-Eventing's notification and WS-Notification's `UseRaw`
    /// delivery are this one envelope in different SOAP and
    /// WS-Addressing versions.
    pub fn raw_delivery(
        soap: SoapVersion,
        wsa: WsaVersion,
        to: &EndpointReference,
        event: Node,
    ) -> Envelope {
        let action = event.as_element().map(raw_action).unwrap_or_default();
        let mut env = Envelope::new(soap).with_body_node(event);
        MessageHeaders::to_epr(to, action).apply(&mut env, wsa);
        env
    }

    /// Builder-style message id.
    pub fn with_message_id(mut self, id: impl Into<String>) -> Self {
        self.message_id = Some(id.into());
        self
    }

    /// Builder-style reply-to.
    pub fn with_reply_to(mut self, epr: EndpointReference) -> Self {
        self.reply_to = Some(epr);
        self
    }

    /// Builder-style relates-to.
    pub fn with_relates_to(mut self, id: impl Into<String>) -> Self {
        self.relates_to = Some(id.into());
        self
    }

    /// Attach these MAPs to an envelope in the given WSA version.
    pub fn apply(&self, env: &mut Envelope, version: WsaVersion) {
        let ns = version.ns();
        let text_header = |name: &str, value: &str| Element::ns(ns, name, "wsa").with_text(value);
        let mut headers = Vec::new();
        if let Some(to) = &self.to {
            headers.push(text_header("To", to));
        }
        if let Some(action) = &self.action {
            headers.push(text_header("Action", action));
        }
        if let Some(id) = &self.message_id {
            headers.push(text_header("MessageID", id));
        }
        if let Some(rel) = &self.relates_to {
            headers.push(text_header("RelatesTo", rel));
        }
        if let Some(epr) = &self.reply_to {
            headers.push(epr.to_named_element(version, Element::ns(ns, "ReplyTo", "wsa")));
        }
        if let Some(epr) = &self.fault_to {
            headers.push(epr.to_named_element(version, Element::ns(ns, "FaultTo", "wsa")));
        }
        headers.extend(self.echoed_reference_data.iter().cloned());
        env.extend_headers(headers.into_iter().map(Node::Element));
    }

    /// Extract the MAPs present in an envelope for a given WSA version.
    ///
    /// Headers that are not WSA headers of this version are collected as
    /// echoed reference data, which is where subscription identifiers
    /// surface on the subscription-manager side.
    pub fn extract(env: &Envelope, version: WsaVersion) -> Self {
        let ns = version.ns();
        let mut maps = MessageHeaders::default();
        for h in env.headers() {
            if h.name.ns.as_deref() == Some(ns) {
                match h.name.local.as_str() {
                    "To" => maps.to = Some(h.text().trim().to_string()),
                    "Action" => maps.action = Some(h.text().trim().to_string()),
                    "MessageID" => maps.message_id = Some(h.text().trim().to_string()),
                    "RelatesTo" => maps.relates_to = Some(h.text().trim().to_string()),
                    "ReplyTo" => maps.reply_to = EndpointReference::from_element(h, version),
                    "FaultTo" => maps.fault_to = EndpointReference::from_element(h, version),
                    _ => maps.echoed_reference_data.push(h.clone()),
                }
            } else if !is_soap_or_wsa_header(h) {
                maps.echoed_reference_data.push(h.clone());
            }
        }
        maps
    }

    /// Detect which WSA version an envelope's headers use, by the
    /// namespace of its `Action` (or `To`) header.
    pub fn detect_version(env: &Envelope) -> Option<WsaVersion> {
        for h in env.headers() {
            if matches!(h.name.local.as_str(), "Action" | "To" | "MessageID") {
                if let Some(ns) = h.name.ns.as_deref() {
                    if let Some(v) = WsaVersion::from_ns(ns) {
                        return Some(v);
                    }
                }
            }
        }
        None
    }
}

/// The implied WS-Addressing action of a raw event delivery: the event
/// element's expanded name as a URI, `urn:wsm:event/<local>` when it
/// has no namespace.
pub fn raw_action(event: &Element) -> String {
    match &event.name.ns {
        Some(ns) => format!("{ns}/{}", event.name.local),
        None => format!("urn:wsm:event/{}", event.name.local),
    }
}

fn is_soap_or_wsa_header(h: &Element) -> bool {
    h.name
        .ns
        .as_deref()
        .is_some_and(|ns| ns.contains("soap") || WsaVersion::from_ns(ns).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_soap::SoapVersion;

    fn roundtrip(version: WsaVersion) {
        let maps = MessageHeaders::request("http://svc", "urn:op")
            .with_message_id("uuid:1")
            .with_relates_to("uuid:0")
            .with_reply_to(EndpointReference::new("http://me"));
        let mut env = Envelope::new(SoapVersion::V12).with_body(Element::local("x"));
        maps.apply(&mut env, version);
        let env2 = Envelope::from_xml(&env.to_xml()).unwrap();
        let back = MessageHeaders::extract(&env2, version);
        assert_eq!(back, maps);
        assert_eq!(MessageHeaders::detect_version(&env2), Some(version));
    }

    #[test]
    fn roundtrip_all_versions() {
        roundtrip(WsaVersion::V200303);
        roundtrip(WsaVersion::V200408);
        roundtrip(WsaVersion::V200508);
    }

    #[test]
    fn epr_reference_data_echoed_as_headers() {
        let epr = EndpointReference::new("http://mgr").with_reference(
            WsaVersion::V200408,
            Element::ns("urn:wse", "Identifier", "wse").with_text("sub-9"),
        );
        let maps = MessageHeaders::to_epr(&epr, "urn:renew");
        let mut env = Envelope::new(SoapVersion::V12).with_body(Element::local("Renew"));
        maps.apply(&mut env, WsaVersion::V200408);
        let env2 = Envelope::from_xml(&env.to_xml()).unwrap();
        // The manager finds its identifier among the headers.
        let found = env2
            .headers()
            .find(|h| h.name.is("urn:wse", "Identifier"))
            .expect("identifier echoed");
        assert_eq!(found.text(), "sub-9");
        let back = MessageHeaders::extract(&env2, WsaVersion::V200408);
        assert_eq!(back.echoed_reference_data.len(), 1);
    }

    #[test]
    fn wrong_version_extracts_nothing() {
        let maps = MessageHeaders::request("http://svc", "urn:op");
        let mut env = Envelope::new(SoapVersion::V12).with_body(Element::local("x"));
        maps.apply(&mut env, WsaVersion::V200408);
        let back = MessageHeaders::extract(&env, WsaVersion::V200508);
        assert_eq!(back.to, None);
        assert_eq!(back.action, None);
    }

    #[test]
    fn detect_version_none_without_wsa() {
        let env = Envelope::new(SoapVersion::V12).with_body(Element::local("x"));
        assert_eq!(MessageHeaders::detect_version(&env), None);
    }
}
