//! The render cache's core claim, measured: one publication serializes
//! its payload once, not once per subscriber — asserted against the
//! process-global shared-subtree serialization counter.
//!
//! The simulated wire hands envelopes over as trees, so the broker's
//! send path serializes nothing at all; the serialization a real HTTP
//! wire would do happens here, in the test, by calling `to_xml()` on
//! every envelope the consumers received. That is where the cache has
//! to pay off: all of one publication's envelopes share one payload
//! subtree, and only the first `to_xml()` serializes it.
//!
//! This file must stay the only test binary in the crate that asserts
//! on `wsm_xml::shared_serialization_count()` deltas: the counter is
//! process-global, and Rust runs each test *file* as its own process.
//! (The two tests below serialize their measured sections with a mutex
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

#[test]
fn publish_serializes_payload_once_across_all_subscribers() {
    let net = Network::new();
    let broker = WsMessenger::start(&net, "http://broker");
    let recorder = Arc::new(Recorder::default());

    // 16 WSE + 16 WSN subscribers: 32 envelopes per publish, spanning
    // both dialect families.
    for i in 0..16 {
        let address = format!("http://wse-{i}");
        net.register(address.as_str(), recorder.clone());
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(
                broker.uri(),
                SubscribeRequest::push(EndpointReference::new(address)),
            )
            .unwrap();
    }
    for i in 0..16 {
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
    let serialized = recorder.serialize_all();
    let on_the_wire = shared_serialization_count() - before;
    drop(guard);

    assert_eq!(delivered, 32);
    assert_eq!(serialized, 32);
    assert_eq!(on_send_path, 0, "the send path serializes nothing");
    // Two equivalence classes were rendered (WSE Aug2004 and WSN 1.3
    // wrapped), so the ceiling is 2 — and payload sharing across
    // classes brings the actual count down to 1.
    assert_eq!(
        on_the_wire, 1,
        "32 envelopes of both dialect classes share one payload serialization"
    );
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
    assert_eq!(
        on_the_wire, 10,
        "one payload serialization per publication, not per subscriber"
    );
}
