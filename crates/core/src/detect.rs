//! Specification auto-detection, and each dialect's facts in one row.

use wsm_addressing::{EndpointReference, WsaVersion};
use wsm_eventing::{WseCodec, WseVersion};
use wsm_notification::{WsnCodec, WsnVersion};
use wsm_soap::{Envelope, SoapVersion};

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

/// How a dialect hands a notification to a consumer: paper §V.4's
/// structure (category 5) and content-location (category 6) facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotificationShape {
    /// The payload is the whole SOAP body and the topic rides in a
    /// `wsm:Topic` header: WS-Eventing defines no body slot for it.
    RawWithTopicHeader,
    /// A `Notify` whose `NotificationMessage` names the topic; a
    /// subscription that asked for `UseRaw` gets the bare payload.
    Notify,
}

/// One dialect's message facts, sorted as paper §V.4 sorts the
/// differences between the dialects. [`SpecDialect::profile`] is the
/// only place they are stated; the family codecs build what these
/// describe, and the profile tests check the two agree on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DialectProfile {
    /// Human label matching the paper's column headers ("WSN 1.3").
    pub label: &'static str,
    /// The base specification namespace (category 2).
    pub ns: &'static str,
    /// The WS-BrokeredNotification namespace; WS-Eventing has none.
    pub brokered_ns: Option<&'static str>,
    /// The WS-Addressing version the dialect binds to (category 3).
    pub wsa: WsaVersion,
    /// The SOAP version of its messages (category 3).
    pub soap: SoapVersion,
    /// How a notification reaches a consumer (categories 5 and 6).
    pub notification: NotificationShape,
    /// The subcode of the fault for a request naming no live
    /// subscription.
    pub unknown_subscription_subcode: Option<&'static str>,
    /// The subcode of the fault for a filter the broker cannot apply.
    pub invalid_filter_subcode: &'static str,
    /// Table 1 "Support Wrapped delivery mode": 08/2004 added the mode
    /// (without defining its format); WS-Notification's `Notify` is one.
    pub supports_wrapped_delivery: bool,
    /// Table 1 "Filter element in Subscription message": `wse:Filter`
    /// in both WS-Eventing versions; WS-Notification added its
    /// `Filter` wrapper in 1.3.
    pub has_filter_element: bool,
    /// Table 1 "Specify XPath dialect": WS-Eventing's default dialect;
    /// WS-Notification added its XPath MessageContent dialect in 1.3.
    pub supports_xpath_dialect: bool,
    /// Table 1 "Require Pause/Resume subscriptions": required of
    /// implementations in WSN 1.0 only; WS-Eventing has neither.
    pub requires_pause_resume: bool,
    /// Table 1 "Define Wrapped message format": only WS-Notification
    /// defines one, the WS-Eventing gap the paper highlights.
    pub defines_wrapped_format: bool,
}

/// The profiles, in [`SpecDialect::ALL`] order.
const PROFILES: [DialectProfile; 4] = [
    DialectProfile {
        label: "WSE 01/2004",
        ns: WseVersion::Jan2004.ns(),
        brokered_ns: None,
        wsa: WseVersion::Jan2004.wsa(),
        soap: SoapVersion::V12,
        notification: NotificationShape::RawWithTopicHeader,
        unknown_subscription_subcode: None,
        invalid_filter_subcode: "wse:FilteringNotSupported",
        supports_wrapped_delivery: false,
        has_filter_element: true,
        supports_xpath_dialect: true,
        requires_pause_resume: false,
        defines_wrapped_format: false,
    },
    DialectProfile {
        label: "WSE 08/2004",
        ns: WseVersion::Aug2004.ns(),
        brokered_ns: None,
        wsa: WseVersion::Aug2004.wsa(),
        soap: SoapVersion::V12,
        notification: NotificationShape::RawWithTopicHeader,
        unknown_subscription_subcode: None,
        invalid_filter_subcode: "wse:FilteringNotSupported",
        supports_wrapped_delivery: true,
        has_filter_element: true,
        supports_xpath_dialect: true,
        requires_pause_resume: false,
        defines_wrapped_format: false,
    },
    DialectProfile {
        label: "WSN 1.0",
        ns: WsnVersion::V1_0.ns(),
        brokered_ns: Some(WsnVersion::V1_0.brokered_ns()),
        wsa: WsnVersion::V1_0.wsa(),
        soap: SoapVersion::V11,
        notification: NotificationShape::Notify,
        unknown_subscription_subcode: Some("wsnt:ResourceUnknownFault"),
        invalid_filter_subcode: "wsnt:InvalidFilterFault",
        supports_wrapped_delivery: true,
        has_filter_element: false,
        supports_xpath_dialect: false,
        requires_pause_resume: true,
        defines_wrapped_format: true,
    },
    DialectProfile {
        label: "WSN 1.3",
        ns: WsnVersion::V1_3.ns(),
        brokered_ns: Some(WsnVersion::V1_3.brokered_ns()),
        wsa: WsnVersion::V1_3.wsa(),
        soap: SoapVersion::V11,
        notification: NotificationShape::Notify,
        unknown_subscription_subcode: Some("wsnt:ResourceUnknownFault"),
        invalid_filter_subcode: "wsnt:InvalidFilterFault",
        supports_wrapped_delivery: true,
        has_filter_element: true,
        supports_xpath_dialect: true,
        requires_pause_resume: false,
        defines_wrapped_format: true,
    },
];

impl SpecDialect {
    /// All four dialects, for table generation.
    pub const ALL: [SpecDialect; 4] = [
        SpecDialect::Wse(WseVersion::Jan2004),
        SpecDialect::Wse(WseVersion::Aug2004),
        SpecDialect::Wsn(WsnVersion::V1_0),
        SpecDialect::Wsn(WsnVersion::V1_3),
    ];

    /// This dialect's position in [`SpecDialect::ALL`]: its profile row,
    /// and the render cache's class slot.
    pub(crate) const fn index(self) -> usize {
        match self {
            SpecDialect::Wse(WseVersion::Jan2004) => 0,
            SpecDialect::Wse(WseVersion::Aug2004) => 1,
            SpecDialect::Wsn(WsnVersion::V1_0) => 2,
            SpecDialect::Wsn(WsnVersion::V1_3) => 3,
        }
    }

    /// This dialect's facts.
    pub const fn profile(self) -> &'static DialectProfile {
        &PROFILES[self.index()]
    }

    /// Human label ("WSE 08/2004", "WSN 1.3").
    pub fn label(self) -> &'static str {
        self.profile().label
    }

    /// Does a namespace belong to this dialect?
    fn owns_ns(self, ns: &str) -> bool {
        let p = self.profile();
        ns == p.ns || p.brokered_ns == Some(ns)
    }

    /// The EPR of the subscription manager at `address` managing
    /// subscription `id`, as this dialect's codec mints it.
    pub fn manager_epr(self, address: &str, id: &str) -> EndpointReference {
        match self {
            SpecDialect::Wse(v) => WseCodec::new(v).manager_epr(address, id),
            SpecDialect::Wsn(v) => WsnCodec::new(v).manager_epr(address, id),
        }
    }

    /// Detect the dialect of an envelope.
    ///
    /// Looks at the body element's namespace first (`wse:Subscribe` vs
    /// `wsnt:Subscribe` etc.), then at the headers (management messages
    /// whose body is WSRF-namespaced still echo a spec-namespaced
    /// identifier), then at descendants of the body.
    pub fn detect(env: &Envelope) -> Option<SpecDialect> {
        let owner = |el: &wsm_xml::Element| {
            let ns = el.name.ns.as_deref()?;
            SpecDialect::ALL.into_iter().find(|d| d.owns_ns(ns))
        };
        // 1. Body element namespaces.
        if let Some(d) = env.body_elements().find_map(owner) {
            return Some(d);
        }
        // 2. Header namespaces (echoed Identifier / SubscriptionId).
        if let Some(d) = env.headers().find_map(owner) {
            return Some(d);
        }
        // 3. Descendant elements of the body.
        for body in env.body_elements() {
            for d in SpecDialect::ALL {
                if has_descendant_in_ns(body, d.profile().ns) {
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
        let sub_epr = codec10.manager_epr("http://b/subscriptions", "s1");
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
            manager: codec.manager_epr("http://b/mgr", "s1"),
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

    #[test]
    fn profiles_follow_all_and_differ() {
        for (i, d) in SpecDialect::ALL.into_iter().enumerate() {
            assert_eq!(d.index(), i);
            for e in &SpecDialect::ALL[i + 1..] {
                assert_ne!(d.profile().label, e.profile().label);
                assert_ne!(d.profile().ns, e.profile().ns);
            }
        }
    }

    /// The Table 1 cells only the profile states, as the paper prints
    /// them.
    #[test]
    fn table_1_capabilities_match_the_paper() {
        let [wse_old, wse_new, wsn_old, wsn_new] = SpecDialect::ALL.map(SpecDialect::profile);
        assert!(!wse_old.supports_wrapped_delivery && wse_new.supports_wrapped_delivery);
        assert!(wsn_old.supports_wrapped_delivery && wsn_new.supports_wrapped_delivery);
        assert!(!wsn_old.has_filter_element && wsn_new.has_filter_element);
        assert!(wse_old.has_filter_element && wse_new.has_filter_element);
        assert!(!wsn_old.supports_xpath_dialect && wsn_new.supports_xpath_dialect);
        assert!(wse_old.supports_xpath_dialect && wse_new.supports_xpath_dialect);
        assert!(wsn_old.requires_pause_resume && !wsn_new.requires_pause_resume);
        assert!(!wse_old.requires_pause_resume && !wse_new.requires_pause_resume);
        assert!(wsn_old.defines_wrapped_format && wsn_new.defines_wrapped_format);
        assert!(!wse_old.defines_wrapped_format && !wse_new.defines_wrapped_format);
    }
}
