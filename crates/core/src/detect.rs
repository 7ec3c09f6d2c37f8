//! Specification auto-detection.

use wsm_eventing::WseVersion;
use wsm_notification::WsnVersion;
use wsm_soap::Envelope;

/// Which specification (and version) a message speaks.
///
/// WS-Messenger's mediation starts here: "WS-Messenger automatically
/// detects which specification the incoming SOAP messages use"
/// (paper §VII). Namespaces are disjoint across the four versions, so
/// sniffing the body element's namespace (falling back to header
/// namespaces for reference-parameter-only messages) is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecDialect {
    /// WS-Eventing, January 2004.
    Wse(WseVersion),
    /// WS-Notification (base or brokered), 1.0 or 1.3.
    Wsn(WsnVersion),
}

impl SpecDialect {
    /// All four dialects, for table generation.
    pub const ALL: [SpecDialect; 4] = [
        SpecDialect::Wse(WseVersion::Jan2004),
        SpecDialect::Wse(WseVersion::Aug2004),
        SpecDialect::Wsn(WsnVersion::V1_0),
        SpecDialect::Wsn(WsnVersion::V1_3),
    ];

    /// Human label ("WSE 08/2004", "WSN 1.3").
    pub fn label(self) -> &'static str {
        match self {
            SpecDialect::Wse(v) => v.label(),
            SpecDialect::Wsn(v) => v.label(),
        }
    }

    /// The dialect's base specification namespace.
    pub(crate) fn ns(self) -> &'static str {
        match self {
            SpecDialect::Wse(v) => v.ns(),
            SpecDialect::Wsn(v) => v.ns(),
        }
    }

    /// Does a namespace belong to this dialect?
    fn owns_ns(self, ns: &str) -> bool {
        match self {
            SpecDialect::Wse(v) => ns == v.ns(),
            SpecDialect::Wsn(v) => ns == v.ns() || ns == v.brokered_ns(),
        }
    }

    /// Detect the dialect of an envelope.
    ///
    /// Looks at the body element's namespace first (`wse:Subscribe` vs
    /// `wsnt:Subscribe` etc.), then at descendants of the body (raw
    /// WSRF ops carry the subscription id in a header instead), then at
    /// the headers (management messages whose body is WSRF-namespaced
    /// still echo a spec-namespaced identifier).
    pub fn detect(env: &Envelope) -> Option<SpecDialect> {
        // 1. Body element namespaces (including nested, for Filter
        //    wrappers etc.).
        for body in env.body_elements() {
            if let Some(ns) = body.name.ns.as_deref() {
                for d in SpecDialect::ALL {
                    if d.owns_ns(ns) {
                        return Some(d);
                    }
                }
            }
        }
        // 2. Header namespaces (echoed Identifier / SubscriptionId).
        for h in env.headers() {
            if let Some(ns) = h.name.ns.as_deref() {
                for d in SpecDialect::ALL {
                    if d.owns_ns(ns) {
                        return Some(d);
                    }
                }
            }
        }
        // 3. Descendant elements of the body.
        for body in env.body_elements() {
            for d in SpecDialect::ALL {
                if has_descendant_in_ns(body, d.ns()) {
                    return Some(d);
                }
            }
        }
        None
    }
}

fn has_descendant_in_ns(el: &wsm_xml::Element, ns: &str) -> bool {
    for child in el.elements() {
        if child.name.ns.as_deref() == Some(ns) || has_descendant_in_ns(child, ns) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_addressing::EndpointReference;
    use wsm_eventing::{SubscribeRequest, WseCodec};
    use wsm_notification::{WsnCodec, WsnFilter, WsnSubscribeRequest};

    fn epr() -> EndpointReference {
        EndpointReference::new("http://sink")
    }

    #[test]
    fn detects_all_four_subscribes() {
        for v in [WseVersion::Jan2004, WseVersion::Aug2004] {
            let env = WseCodec::new(v).subscribe("http://b", &SubscribeRequest::push(epr()));
            assert_eq!(SpecDialect::detect(&env), Some(SpecDialect::Wse(v)));
        }
        for v in [WsnVersion::V1_0, WsnVersion::V1_3] {
            let env = WsnCodec::new(v).subscribe(
                "http://b",
                &WsnSubscribeRequest::new(epr()).with_filter(WsnFilter::topic("t")),
            );
            assert_eq!(SpecDialect::detect(&env), Some(SpecDialect::Wsn(v)));
        }
    }

    #[test]
    fn detects_notify_and_management() {
        let codec = WsnCodec::new(WsnVersion::V1_3);
        let notify = codec.notify(
            &epr(),
            &[wsm_notification::NotificationMessage::new(
                None,
                wsm_xml::Element::local("x"),
            )],
        );
        assert_eq!(
            SpecDialect::detect(&notify),
            Some(SpecDialect::Wsn(WsnVersion::V1_3))
        );
        // A 1.0 WSRF Destroy: body is WSRF-namespaced; the echoed
        // SubscriptionId header gives it away.
        let codec10 = WsnCodec::new(WsnVersion::V1_0);
        let sub_epr = EndpointReference::new("http://b/subscriptions").with_reference(
            WsnVersion::V1_0.wsa(),
            wsm_xml::Element::ns(WsnVersion::V1_0.ns(), "SubscriptionId", "wsnt").with_text("s1"),
        );
        let destroy = codec10.wsrf_destroy(&sub_epr);
        let reparsed = Envelope::from_xml(&destroy.to_xml()).unwrap();
        assert_eq!(
            SpecDialect::detect(&reparsed),
            Some(SpecDialect::Wsn(WsnVersion::V1_0))
        );
    }

    #[test]
    fn detects_wse_management_by_identifier_header() {
        let codec = WseCodec::new(WseVersion::Aug2004);
        let handle = wsm_eventing::SubscriptionHandle {
            manager: EndpointReference::new("http://b/mgr").with_reference(
                WseVersion::Aug2004.wsa(),
                wsm_xml::Element::ns(WseVersion::Aug2004.ns(), "Identifier", "wse").with_text("s1"),
            ),
            id: "s1".into(),
            expires: None,
            version: WseVersion::Aug2004,
        };
        let env = codec.unsubscribe(&handle);
        assert_eq!(
            SpecDialect::detect(&env),
            Some(SpecDialect::Wse(WseVersion::Aug2004))
        );
    }

    #[test]
    fn unknown_message_is_none() {
        let env =
            Envelope::new(wsm_soap::SoapVersion::V12).with_body(wsm_xml::Element::local("mystery"));
        assert_eq!(SpecDialect::detect(&env), None);
    }

    #[test]
    fn labels() {
        assert_eq!(SpecDialect::Wse(WseVersion::Aug2004).label(), "WSE 08/2004");
        assert_eq!(SpecDialect::Wsn(WsnVersion::V1_3).label(), "WSN 1.3");
    }
}
