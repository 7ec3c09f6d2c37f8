//! The WS-Messenger WSDL describes what the broker serves: every
//! request-response operation it advertises is one the control plane
//! answers in WS-Eventing 08/2004 or WS-Notification 1.3, the two
//! versions the description merges.

use ws_messenger_suite::eventing::WseVersion;
use ws_messenger_suite::messenger::{OpKind, SpecDialect, WsMessenger};
use ws_messenger_suite::notification::{
    WsnClient, WsnCodec, WsnFilter, WsnSubscribeRequest, WsnVersion,
};
use ws_messenger_suite::transport::Network;
use ws_messenger_suite::wsdl::messenger_definitions;
use ws_messenger_suite::xml::Element;

const BROKER: &str = "http://broker";

#[test]
fn every_advertised_operation_is_one_the_broker_serves() {
    let defs = messenger_definitions(BROKER);
    let dialects = [
        SpecDialect::Wse(WseVersion::Aug2004),
        SpecDialect::Wsn(WsnVersion::V1_3),
    ];
    for op in defs.all_operations() {
        if op.output.is_none() {
            // One-way: what the broker sends its consumers.
            assert!(
                matches!(op.name.as_str(), "Notify" | "SubscriptionEnd"),
                "one-way {}",
                op.name
            );
            continue;
        }
        if op.name == "GetMessages" {
            // Answered by the PullPoint, not the broker: see below.
            continue;
        }
        let input = (defs.messages.iter())
            .find(|m| m.name == op.input)
            .expect("the input message is declared");
        let served = OpKind::ALL.into_iter().any(|kind| {
            dialects.iter().any(|&d| {
                d.supports(kind)
                    && kind.name() == input.element_local
                    && kind.ns(d) == input.element_ns
            })
        });
        assert!(served, "{} is advertised but not served", op.name);
    }
}

#[test]
fn get_messages_is_answered_at_the_pull_point_create_pull_point_returned() {
    let net = Network::new();
    let broker = WsMessenger::start(&net, BROKER);
    let codec = WsnCodec::new(WsnVersion::V1_3);
    let reply = net
        .request(BROKER, codec.create_pull_point(BROKER))
        .unwrap();
    let pull_point = codec.parse_create_pull_point_response(&reply).unwrap();
    WsnClient::new(&net, WsnVersion::V1_3)
        .subscribe(
            BROKER,
            &WsnSubscribeRequest::new(pull_point.clone()).with_filter(WsnFilter::topic("jobs")),
        )
        .unwrap();
    broker.publish_on("jobs", &Element::local("done"));
    let answer = net
        .request(&pull_point.address, codec.get_messages(&pull_point, 10))
        .unwrap();
    let messages = codec.parse_get_messages_response(&answer);
    assert_eq!(messages.len(), 1);
    assert_eq!(messages[0].message.name.local, "done");
}
