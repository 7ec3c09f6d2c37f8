//! Edge cases around the WS-Notification services.

use wsm_notification::{
    NotificationConsumer, NotificationProducer, Termination, WsnClient, WsnFilter,
    WsnSubscribeRequest, WsnVersion,
};
use wsm_topics::TopicExpression;
use wsm_transport::Network;
use wsm_xml::Element;

fn setup(
    v: WsnVersion,
) -> (
    Network,
    NotificationProducer,
    NotificationConsumer,
    WsnClient,
) {
    let net = Network::new();
    let p = NotificationProducer::start(&net, "http://p", v);
    let c = NotificationConsumer::start(&net, "http://c", v);
    let client = WsnClient::new(&net, v);
    (net, p, c, client)
}

#[test]
fn get_current_message_with_wildcard_expression() {
    let (_net, producer, _c, client) = setup(WsnVersion::V1_3);
    producer.publish_on("storms/hail", &Element::local("h"));
    producer.publish_on("storms/tornado", &Element::local("t"));
    // A Full-dialect wildcard returns the most recent matching topic's
    // message.
    let expr = TopicExpression::full("storms/*").unwrap();
    let got = client
        .get_current_message(producer.uri(), &expr)
        .unwrap()
        .unwrap();
    assert!(got.name.local == "h" || got.name.local == "t");
}

#[test]
fn double_pause_and_double_resume_are_idempotent() {
    let (_net, producer, consumer, client) = setup(WsnVersion::V1_3);
    let h = client
        .subscribe(
            producer.uri(),
            &WsnSubscribeRequest::new(consumer.epr()).with_filter(WsnFilter::topic("t")),
        )
        .unwrap();
    client.pause(&h).unwrap();
    client.pause(&h).unwrap();
    producer.publish_on("t", &Element::local("m1"));
    client.resume(&h).unwrap();
    client.resume(&h).unwrap();
    producer.publish_on("t", &Element::local("m2"));
    assert_eq!(consumer.notifications().len(), 1);
}

#[test]
fn renew_with_absolute_time_in_the_past_expires_immediately() {
    let (net, producer, consumer, client) = setup(WsnVersion::V1_3);
    net.clock().advance_ms(10_000);
    let h = client
        .subscribe(
            producer.uri(),
            &WsnSubscribeRequest::new(consumer.epr()).with_filter(WsnFilter::topic("t")),
        )
        .unwrap();
    client.renew(&h, Termination::At(5_000)).unwrap(); // already past
    producer.publish_on("t", &Element::local("m"));
    assert!(consumer.notifications().is_empty());
    assert_eq!(producer.subscription_count(), 0);
}

#[test]
fn management_after_expiry_faults() {
    let (net, producer, consumer, client) = setup(WsnVersion::V1_3);
    let h = client
        .subscribe(
            producer.uri(),
            &WsnSubscribeRequest::new(consumer.epr())
                .with_filter(WsnFilter::topic("t"))
                .with_termination(Termination::Duration(100)),
        )
        .unwrap();
    net.clock().advance_ms(200);
    // Expired: the producer sweeps on the next publish...
    producer.publish_on("t", &Element::local("m"));
    // ...after which management requests hit an unknown subscription.
    assert!(client.pause(&h).is_err());
}

#[test]
fn multiple_topic_filters_or_within_kind() {
    let (_net, producer, consumer, client) = setup(WsnVersion::V1_3);
    client
        .subscribe(
            producer.uri(),
            &WsnSubscribeRequest::new(consumer.epr())
                .with_filter(WsnFilter::topic("storms"))
                .with_filter(WsnFilter::topic("traffic")),
        )
        .unwrap();
    producer.publish_on("storms", &Element::local("a"));
    producer.publish_on("traffic", &Element::local("b"));
    producer.publish_on("sports", &Element::local("c"));
    assert_eq!(consumer.notifications().len(), 2);
}

#[test]
fn several_subscriptions_same_consumer() {
    let (_net, producer, consumer, client) = setup(WsnVersion::V1_3);
    let h1 = client
        .subscribe(
            producer.uri(),
            &WsnSubscribeRequest::new(consumer.epr()).with_filter(WsnFilter::topic("a")),
        )
        .unwrap();
    let h2 = client
        .subscribe(
            producer.uri(),
            &WsnSubscribeRequest::new(consumer.epr()).with_filter(WsnFilter::topic("b")),
        )
        .unwrap();
    assert_ne!(h1.id, h2.id);
    producer.publish_on("a", &Element::local("m"));
    assert_eq!(
        consumer.notifications().len(),
        1,
        "only the matching subscription fires"
    );
    // Each is managed independently.
    client.unsubscribe(&h1).unwrap();
    producer.publish_on("a", &Element::local("m2"));
    producer.publish_on("b", &Element::local("m3"));
    assert_eq!(consumer.notifications().len(), 2);
    client.unsubscribe(&h2).unwrap();
}

#[test]
fn wsrf_resource_view_tracks_pause_state_in_10() {
    let (_net, producer, consumer, client) = setup(WsnVersion::V1_0);
    let h = client
        .subscribe(
            producer.uri(),
            &WsnSubscribeRequest::new(consumer.epr()).with_filter(WsnFilter::topic("t")),
        )
        .unwrap();
    assert_eq!(
        client.get_status_wsrf(&h, "Paused").unwrap().as_deref(),
        Some("false")
    );
    client.pause(&h).unwrap();
    assert_eq!(
        client.get_status_wsrf(&h, "Paused").unwrap().as_deref(),
        Some("true")
    );
    client.resume(&h).unwrap();
    assert_eq!(
        client.get_status_wsrf(&h, "Paused").unwrap().as_deref(),
        Some("false")
    );
    // ConsumerReference is also exposed as a resource property.
    assert_eq!(
        client
            .get_status_wsrf(&h, "ConsumerReference")
            .unwrap()
            .as_deref(),
        Some("http://c")
    );
}
