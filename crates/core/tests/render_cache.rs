//! The render cache's core claim, measured: one publication serializes
//! each shared piece once, not once per subscriber — asserted against
//! the process-global shared-subtree serialization counter.
//!
//! The shared pieces are the payload and each dialect class's
//! template: the `wsa:Action` and WSE topic headers, and for wrapped
//! WS-Notification the `Topic`, `ProducerReference` and `Message` of the
//! `NotificationMessage` and the subscription manager's `wsa:Address`.
//!
//! The simulated wire hands envelopes over as trees, so the broker's
//! send path serializes nothing at all; the serialization a real HTTP
//! wire would do happens here, in the test, by calling `to_xml()` on
//! every envelope the consumers received. That is where the cache has
//! to pay off: all of one publication's envelopes share those pieces,
//! and only the first `to_xml()` serializes each of them.
//!
//! This file must stay the only test binary in the crate that asserts
//! on `wsm_xml::shared_serialization_count()` deltas: the counter is
//! process-global, and Rust runs each test *file* as its own process.
//! (The tests below serialize their measured sections with a mutex
//! for the same reason.)

use std::sync::{Arc, Mutex};
use wsm_addressing::EndpointReference;
use wsm_eventing::{SubscribeRequest, Subscriber, WseVersion};
use wsm_messenger::WsMessenger;
use wsm_notification::{WsnClient, WsnFilter, WsnSubscribeRequest, WsnVersion};
use wsm_soap::{Envelope, Fault};
use wsm_transport::{Network, SoapHandler};
use wsm_xml::{shared_serialization_count, Element};

static COUNTER_GUARD: Mutex<()> = Mutex::new(());

/// A consumer endpoint that keeps every envelope it is handed.
#[derive(Default)]
struct Recorder(Mutex<Vec<Envelope>>);

impl SoapHandler for Recorder {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        self.0.lock().unwrap().push(request);
        Ok(None)
    }
}

impl Recorder {
    /// Put every received envelope on the wire, as an HTTP transport
    /// would; returns how many there were.
    fn serialize_all(&self) -> usize {
        let received = self.0.lock().unwrap();
        for envelope in received.iter() {
            assert!(!envelope.to_xml().is_empty());
        }
        received.len()
    }
}

/// Publish once on `storms` to `per_family` WSE 08/2004 and as many
/// WSN 1.3 subscribers, and put every envelope on the wire. Returns the
/// deliveries and the shared serializations made while publishing and
/// in all.
fn publish_to_both_families(per_family: usize) -> (usize, u64, u64) {
    let net = Network::new();
    let broker = WsMessenger::start(&net, "http://broker");
    let recorder = Arc::new(Recorder::default());
    for i in 0..per_family {
        let address = format!("http://wse-{i}");
        net.register(address.as_str(), recorder.clone());
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(
                broker.uri(),
                SubscribeRequest::push(EndpointReference::new(address)),
            )
            .unwrap();
    }
    for i in 0..per_family {
        let address = format!("http://wsn-{i}");
        net.register(address.as_str(), recorder.clone());
        WsnClient::new(&net, WsnVersion::V1_3)
            .subscribe(
                broker.uri(),
                &WsnSubscribeRequest::new(EndpointReference::new(address))
                    .with_filter(WsnFilter::topic("storms")),
            )
            .unwrap();
    }

    let payload = Element::local("alert").with_child(Element::local("detail").with_text("hail"));
    let guard = COUNTER_GUARD.lock().unwrap();
    let before = shared_serialization_count();
    let delivered = broker.publish_on("storms", &payload);
    let on_send_path = shared_serialization_count() - before;
    assert_eq!(recorder.serialize_all(), delivered);
    let on_the_wire = shared_serialization_count() - before;
    drop(guard);
    (delivered, on_send_path, on_the_wire)
}

#[test]
fn publish_serializes_each_shared_piece_once_across_all_subscribers() {
    // Two equivalence classes are rendered (WSE 08/2004 and wrapped
    // WSN 1.3), sharing one payload: 1 payload + 2 WSE pieces (Action,
    // topic header) + 5 WSN pieces (Action, Topic, ProducerReference,
    // Message, manager Address) = 8 serializations.
    for per_family in [16, 32] {
        let (delivered, on_send_path, on_the_wire) = publish_to_both_families(per_family);
        assert_eq!(delivered, 2 * per_family);
        assert_eq!(on_send_path, 0, "the send path serializes nothing");
        assert_eq!(
            on_the_wire, 8,
            "{delivered} envelopes of both dialect classes share 8 serializations"
        );
    }
}

#[test]
fn each_publication_serializes_its_own_payload_once() {
    let net = Network::new();
    let broker = WsMessenger::start(&net, "http://broker");
    let recorder = Arc::new(Recorder::default());
    for i in 0..8 {
        let address = format!("http://s-{i}");
        net.register(address.as_str(), recorder.clone());
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(
                broker.uri(),
                SubscribeRequest::push(EndpointReference::new(address)),
            )
            .unwrap();
    }
    let guard = COUNTER_GUARD.lock().unwrap();
    let before = shared_serialization_count();
    for n in 0..10 {
        broker.publish_raw(&Element::local("e").with_attr("n", n.to_string()));
    }
    let on_send_path = shared_serialization_count() - before;
    let serialized = recorder.serialize_all();
    let on_the_wire = shared_serialization_count() - before;
    drop(guard);
    assert_eq!(serialized, 8 * 10);
    assert_eq!(on_send_path, 0, "the send path serializes nothing");
    // Per publication: the payload and its class's `wsa:Action` (a raw
    // delivery's Action names the payload, so it is per publication).
    assert_eq!(
        on_the_wire,
        2 * 10,
        "two shared serializations per publication, not per subscriber"
    );
}
