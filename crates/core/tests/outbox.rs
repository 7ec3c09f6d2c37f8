//! Where an undelivered event waits, and how it leaves.
//!
//! Every event the broker holds for a subscriber — a pull queue entry,
//! a wrapped-mode buffer entry, a push retry — must reach exactly one
//! terminal outcome, also when the subscription ends first: by
//! Unsubscribe, by its lease lapsing, or by a fault-tolerance change.
//! Each test drives one such exit through the public API and reads the
//! outcome from the broker's own delivery stories.

use wsm_eventing::{
    DeliveryMode, EventSink, Expires, SubscribeRequest, Subscriber, SubscriptionHandle, WseVersion,
};
use wsm_messenger::render::WSM_NS;
use wsm_messenger::{FaultTolerance, Outcome, WsMessenger};
use wsm_soap::{Envelope, SoapVersion};
use wsm_transport::Network;
use wsm_xml::Element;

const V: WseVersion = WseVersion::Aug2004;

fn event(seq: usize) -> Element {
    Element::local("reading").with_attr("seq", seq.to_string())
}

/// A broker on one fan-out worker, optionally fault tolerant.
fn broker(net: &Network, ft: Option<FaultTolerance>) -> WsMessenger {
    let broker = WsMessenger::start(net, "http://broker");
    broker.set_fanout_workers(1);
    broker.set_fault_tolerance(ft);
    broker
}

fn subscribe(net: &Network, broker: &WsMessenger, req: SubscribeRequest) -> SubscriptionHandle {
    Subscriber::new(net, V)
        .subscribe(broker.uri(), req)
        .expect("subscribe")
}

/// The terminal outcome of every delivery story of subscription `id`,
/// in publication order.
fn outcomes(broker: &WsMessenger, id: &str) -> Vec<Option<Outcome>> {
    broker
        .delivery_stories()
        .into_iter()
        .filter(|s| s.subscriber == id)
        .map(|s| s.outcome)
        .collect()
}

/// A fault-tolerant broker with one WSE push subscriber whose first
/// delivery is dropped, so one retry is held.
fn one_pending_retry(
    net: &Network,
    lease: Option<Expires>,
) -> (WsMessenger, EventSink, SubscriptionHandle) {
    let broker = broker(net, Some(FaultTolerance::seeded(42)));
    let sink = EventSink::start(net, "http://sink", V);
    let mut req = SubscribeRequest::push(sink.epr());
    if let Some(lease) = lease {
        req = req.with_expires(lease);
    }
    let h = subscribe(net, &broker, req);
    net.drop_next("http://sink", 1);
    broker.publish_raw(&event(1));
    assert_eq!(broker.redelivery_depth(), 1, "the dropped send is held");
    (broker, sink, h)
}

#[test]
fn push_retry_expires_with_its_lease() {
    let net = Network::new();
    let (broker, sink, h) = one_pending_retry(&net, Some(Expires::Duration(100)));
    net.clock().advance_ms(200);
    // This publication sweeps the lapsed subscription.
    broker.publish_raw(&event(2));
    broker.drain_redeliveries(600_000);
    assert!(sink.received().is_empty(), "nothing after the lease ended");
    assert_eq!(broker.redelivery_depth(), 0);
    assert_eq!(outcomes(&broker, &h.id), vec![Some(Outcome::Expired)]);
}

/// A Pull naming a push subscription takes nothing from its outbox: the
/// held retry stays held and goes out on the next drain.
#[test]
fn pull_on_a_push_subscription_leaves_its_retry() {
    let net = Network::new();
    let (broker, sink, h) = one_pending_retry(&net, None);
    let pulled = Subscriber::new(&net, V).pull(&h, 10).expect("pull");
    assert!(pulled.is_empty());
    assert_eq!(broker.redelivery_depth(), 1);
    assert_eq!(outcomes(&broker, &h.id), vec![None], "not resolved");
    broker.drain_redeliveries(600_000);
    assert_eq!(sink.received().len(), 1);
    assert_eq!(outcomes(&broker, &h.id), vec![Some(Outcome::Delivered)]);
}

/// A subscription in `mode` holding two events.
fn holding_two(
    net: &Network,
    mode: DeliveryMode,
    lease: Option<Expires>,
) -> (WsMessenger, SubscriptionHandle) {
    let broker = broker(net, None);
    let sink = EventSink::start(net, "http://sink", V);
    let mut req = SubscribeRequest::push(sink.epr()).with_mode(mode);
    if let Some(lease) = lease {
        req = req.with_expires(lease);
    }
    let h = subscribe(net, &broker, req);
    broker.publish_raw(&event(1));
    broker.publish_raw(&event(2));
    assert!(sink.received().is_empty(), "held, not pushed");
    (broker, h)
}

const BOTH_EXPIRED: [Option<Outcome>; 2] = [Some(Outcome::Expired), Some(Outcome::Expired)];

#[test]
fn unsubscribed_pull_queue_expires() {
    let net = Network::new();
    let (broker, h) = holding_two(&net, DeliveryMode::Pull, None);
    Subscriber::new(&net, V)
        .unsubscribe(&h)
        .expect("unsubscribe");
    assert_eq!(broker.subscription_count(), 0);
    assert_eq!(outcomes(&broker, &h.id), BOTH_EXPIRED);
}

#[test]
fn lapsed_pull_queue_expires() {
    let net = Network::new();
    let (broker, h) = holding_two(&net, DeliveryMode::Pull, Some(Expires::Duration(100)));
    net.clock().advance_ms(200);
    broker.publish_raw(&event(3));
    assert_eq!(broker.subscription_count(), 0);
    assert_eq!(outcomes(&broker, &h.id), BOTH_EXPIRED);
}

#[test]
fn unsubscribed_wrap_buffer_expires() {
    let net = Network::new();
    let (broker, h) = holding_two(&net, DeliveryMode::Wrapped, None);
    Subscriber::new(&net, V)
        .unsubscribe(&h)
        .expect("unsubscribe");
    assert_eq!(broker.flush_wrapped(), 0);
    assert_eq!(outcomes(&broker, &h.id), BOTH_EXPIRED);
}

/// A Pull naming a wrapped subscription leaves its buffer whole for the
/// next flush.
#[test]
fn pull_on_a_wrapped_subscription_leaves_its_buffer() {
    let net = Network::new();
    let (broker, h) = holding_two(&net, DeliveryMode::Wrapped, None);
    let pulled = Subscriber::new(&net, V).pull(&h, 10).expect("pull");
    assert!(pulled.is_empty());
    assert_eq!(broker.flush_wrapped(), 1);
    assert_eq!(
        outcomes(&broker, &h.id),
        vec![Some(Outcome::Delivered), Some(Outcome::Delivered)]
    );
}

/// The sweep a management request runs ends a lapsed subscription the
/// same way a publication's does.
#[test]
fn wrap_buffer_lapsed_under_a_management_request_expires() {
    let net = Network::new();
    let (broker, h) = holding_two(&net, DeliveryMode::Wrapped, Some(Expires::Duration(100)));
    let other = subscribe(
        &net,
        &broker,
        SubscribeRequest::push(wsm_addressing::EndpointReference::new("http://other")),
    );
    net.clock().advance_ms(200);
    Subscriber::new(&net, V)
        .get_status(&other)
        .expect("GetStatus of the live subscription");
    assert_eq!(broker.subscription_count(), 1);
    assert_eq!(broker.flush_wrapped(), 0);
    assert_eq!(outcomes(&broker, &h.id), BOTH_EXPIRED);
}

#[test]
fn turning_fault_tolerance_off_expires_held_retries() {
    let net = Network::new();
    let (broker, sink, h) = one_pending_retry(&net, None);
    broker.set_fault_tolerance(None);
    assert_eq!(broker.redelivery_depth(), 0);
    assert_eq!(outcomes(&broker, &h.id), vec![Some(Outcome::Expired)]);
    broker.publish_raw(&event(2));
    assert_eq!(sink.received().len(), 1, "later events still push");
}

#[test]
fn reconfiguring_fault_tolerance_keeps_retries_and_dead_letters() {
    let net = Network::new();
    let broker = broker(
        &net,
        Some(FaultTolerance {
            poison_budget: 1,
            ..FaultTolerance::seeded(42)
        }),
    );
    let sink = EventSink::start(&net, "http://sink", V);
    subscribe(&net, &broker, SubscribeRequest::push(sink.epr()));
    net.fault_next("http://sink", 1);
    broker.publish_raw(&event(1));
    net.drop_next("http://sink", 1);
    broker.publish_raw(&event(2));
    assert_eq!(broker.dead_letter_count(), 1, "the poisoned event");
    assert_eq!(broker.redelivery_depth(), 1, "the dropped event");

    broker.set_fault_tolerance(Some(FaultTolerance::seeded(7)));
    assert_eq!(broker.dead_letter_count(), 1);
    assert_eq!(broker.redelivery_depth(), 1);
    broker.drain_redeliveries(600_000);
    assert_eq!(sink.received().len(), 1, "the held retry went out");
    assert_eq!(broker.redeliver_dead_letters(), 1);
    broker.drain_redeliveries(600_000);
    assert_eq!(sink.received().len(), 2, "and then the dead letter");
}

#[test]
fn dead_letters_of_an_unsubscribed_consumer_are_not_redelivered() {
    let net = Network::new();
    let broker = broker(
        &net,
        Some(FaultTolerance {
            poison_budget: 1,
            ..FaultTolerance::seeded(42)
        }),
    );
    let sink = EventSink::start(&net, "http://sink", V);
    let h = subscribe(&net, &broker, SubscribeRequest::push(sink.epr()));
    net.fault_next("http://sink", 1);
    broker.publish_raw(&event(1));
    assert_eq!(broker.dead_letter_count(), 1);
    Subscriber::new(&net, V)
        .unsubscribe(&h)
        .expect("unsubscribe");

    let resp = net
        .request(
            "http://broker",
            Envelope::new(SoapVersion::V11).with_body(Element::ns(
                WSM_NS,
                "RedeliverDeadLetters",
                "wsm",
            )),
        )
        .expect("RedeliverDeadLetters");
    assert_eq!(resp.body().and_then(|b| b.attr("Count")), Some("0"));
    broker.drain_redeliveries(600_000);
    assert!(sink.received().is_empty(), "nothing to a gone consumer");
    assert_eq!(broker.dead_letter_count(), 1, "the letter stays listed");
}
