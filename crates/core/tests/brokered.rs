//! WS-BrokeredNotification edges at WS-Messenger, the one broker that
//! serves them: publications a network publisher sends, publisher
//! registration and GetCurrentMessage. The end-to-end demand and
//! PullPoint scenarios are in `control_plane.rs`, which drives them
//! against a broker and a federation front alike.

use wsm_addressing::EndpointReference;
use wsm_messenger::{FederatedMessenger, WsMessenger};
use wsm_notification::{
    NotificationConsumer, NotificationMessage, WsnClient, WsnCodec, WsnFilter, WsnSubscribeRequest,
    WsnVersion,
};
use wsm_topics::{TopicExpression, TopicPath};
use wsm_transport::{Network, TransportError};
use wsm_xml::Element;

const BROKER: &str = "http://broker";
const V: WsnVersion = WsnVersion::V1_3;

/// A broker with one WS-Notification consumer subscribed to `topic`.
fn subscribed(topic: &str) -> (Network, WsMessenger, NotificationConsumer) {
    let net = Network::new();
    let broker = WsMessenger::start(&net, BROKER);
    let consumer = NotificationConsumer::start(&net, "http://consumer", V);
    WsnClient::new(&net, V)
        .subscribe(
            BROKER,
            &WsnSubscribeRequest::new(consumer.epr()).with_filter(WsnFilter::topic(topic)),
        )
        .unwrap();
    (net, broker, consumer)
}

#[test]
fn a_publishers_producer_reference_survives_the_broker() {
    let (net, _broker, consumer) = subscribed("storms");
    let message = NotificationMessage {
        topic: TopicPath::parse("storms"),
        producer: Some(EndpointReference::new("http://some-publisher")),
        subscription: None,
        message: Element::local("alert").with_text("hail"),
    };
    let notify = WsnCodec::new(V).notify(&EndpointReference::new(BROKER), &[message]);
    net.send(BROKER, notify).unwrap();
    let got = consumer.notifications();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].message.text(), "hail");
    let producer = got[0].producer.as_ref().expect("a producer reference");
    assert_eq!(producer.address, "http://some-publisher");
}

#[test]
fn a_notify_batch_from_a_publisher_is_delivered_message_by_message() {
    let (net, _broker, consumer) = subscribed("t");
    let messages: Vec<NotificationMessage> = (0..3)
        .map(|i| NotificationMessage::new(TopicPath::parse("t"), Element::local(format!("m{i}"))))
        .collect();
    let notify = WsnCodec::new(V).notify(&EndpointReference::new(BROKER), &messages);
    net.send(BROKER, notify).unwrap();
    let got: Vec<String> = (consumer.notifications().iter())
        .map(|n| n.message.name.local.to_string())
        .collect();
    assert_eq!(got, ["m0", "m1", "m2"]);
}

#[test]
fn a_demand_based_registration_without_a_publisher_reference_faults() {
    let storms = TopicExpression::concrete("storms").unwrap();
    let register = WsnCodec::new(V).register_publisher(BROKER, None, &[storms], true);
    for federated in [false, true] {
        let net = Network::new();
        if federated {
            FederatedMessenger::start(&net, BROKER, 3);
        } else {
            WsMessenger::start(&net, BROKER);
        }
        match net.request(BROKER, register.clone()) {
            Err(TransportError::Fault(f)) => assert_eq!(
                f.subcode.as_deref(),
                Some("wsn-br:PublisherRegistrationFailedFault"),
                "federated: {federated}"
            ),
            other => panic!("federated: {federated}: expected a fault, got {other:?}"),
        }
    }
}

#[test]
fn get_current_message_on_a_topic_nothing_was_published_on_faults() {
    let (net, broker, _consumer) = subscribed("storms");
    broker.publish_on("storms", &Element::local("latest"));
    let client = WsnClient::new(&net, V);
    let storms = TopicExpression::concrete("storms").unwrap();
    let got = client.get_current_message(BROKER, &storms).unwrap();
    assert_eq!(
        got.map(|m| m.name.local.to_string()).as_deref(),
        Some("latest")
    );
    let nothing = TopicExpression::concrete("nothing").unwrap();
    assert!(client.get_current_message(BROKER, &nothing).is_err());
}
