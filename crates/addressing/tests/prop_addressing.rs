//! Property tests: EPRs and message-addressing headers round-trip in
//! every WS-Addressing version.

use proptest::prelude::*;
use wsm_addressing::{EndpointReference, MessageHeaders, WsaVersion};
use wsm_soap::{Envelope, SoapVersion};
use wsm_xml::Element;

fn version_strategy() -> impl Strategy<Value = WsaVersion> {
    prop_oneof![
        Just(WsaVersion::V200303),
        Just(WsaVersion::V200408),
        Just(WsaVersion::V200508),
    ]
}

fn uri_strategy() -> impl Strategy<Value = String> {
    "[a-z]{2,8}".prop_map(|host| format!("http://{host}.example.org/svc"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// EPR → element → EPR is the identity, per version, with reference
    /// data in the version-appropriate container.
    #[test]
    fn epr_roundtrip(
        version in version_strategy(),
        address in uri_strategy(),
        ids in prop::collection::vec(("[A-Za-z]{1,10}", "[a-z0-9-]{1,12}"), 0..3),
    ) {
        let mut epr = EndpointReference::new(address);
        for (name, value) in ids {
            epr = epr.with_reference(
                version,
                Element::ns("urn:ids", name, "ids").with_text(value),
            );
        }
        let el = epr.to_element(version);
        let xml = wsm_xml::to_string(&el);
        let reparsed = wsm_xml::parse(&xml).unwrap();
        let back = EndpointReference::from_element(&reparsed, version).unwrap();
        prop_assert_eq!(back, epr, "{}", xml);
    }

    /// MAPs applied to an envelope extract to the same MAPs, and the
    /// detected version matches.
    #[test]
    fn maps_roundtrip(
        version in version_strategy(),
        to in uri_strategy(),
        action in "[a-z:/.]{1,30}",
        msg_id in proptest::option::of("[a-f0-9-]{8,16}"),
    ) {
        let mut maps = MessageHeaders::request(to, action);
        if let Some(id) = msg_id {
            maps = maps.with_message_id(format!("uuid:{id}"));
        }
        let mut env = Envelope::new(SoapVersion::V11).with_body(Element::local("op"));
        maps.apply(&mut env, version);
        let reparsed = Envelope::from_xml(&env.to_xml()).unwrap();
        prop_assert_eq!(MessageHeaders::detect_version(&reparsed), Some(version));
        let back = MessageHeaders::extract(&reparsed, version);
        prop_assert_eq!(back, maps);
    }

    /// Reference data echoed to a target EPR always comes back as
    /// headers, whatever the container it rode in.
    #[test]
    fn reference_data_echo(version in version_strategy(), value in "[a-z0-9-]{1,16}") {
        let epr = EndpointReference::new("http://mgr").with_reference(
            version,
            Element::ns("urn:ids", "Token", "ids").with_text(value.clone()),
        );
        let maps = MessageHeaders::to_epr(&epr, "urn:act");
        let mut env = Envelope::new(SoapVersion::V11).with_body(Element::local("op"));
        maps.apply(&mut env, version);
        let reparsed = Envelope::from_xml(&env.to_xml()).unwrap();
        let token = reparsed
            .headers()
            .find(|h| h.name.is("urn:ids", "Token"))
            .expect("echoed token header");
        prop_assert_eq!(token.text(), value);
    }
}
