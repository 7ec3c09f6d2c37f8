//! Concurrency: the broker shared across publisher and subscriber
//! threads keeps its accounting exact.

use std::thread;
use wsm_eventing::{EventSink, SubscribeRequest, Subscriber, WseVersion};
use wsm_messenger::WsMessenger;
use wsm_transport::Network;
use wsm_xml::Element;

#[test]
fn broker_survives_concurrent_publish_and_subscribe() {
    let net = Network::new();
    let broker = WsMessenger::start(&net, "http://broker");
    // Pre-register half the sinks.
    let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
    for i in 0..4 {
        let sink = EventSink::start(
            &net,
            format!("http://pre-{i}").as_str(),
            WseVersion::Aug2004,
        );
        subscriber
            .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
            .unwrap();
    }

    let publisher = {
        let broker = broker.clone();
        thread::spawn(move || {
            for i in 0..500 {
                broker.publish_raw(&Element::local("e").with_attr("n", i.to_string()));
            }
        })
    };
    let joiner = {
        let net = net.clone();
        let broker = broker.clone();
        thread::spawn(move || {
            let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
            for i in 0..4 {
                let sink = EventSink::start(
                    &net,
                    format!("http://late-{i}").as_str(),
                    WseVersion::Aug2004,
                );
                subscriber
                    .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
                    .unwrap();
            }
        })
    };
    publisher.join().unwrap();
    joiner.join().unwrap();
    assert_eq!(broker.subscription_count(), 8);
    // Everything the stats counted the network counted delivered.
    let stats = broker.stats();
    assert_eq!(stats.published, 500);
    assert_eq!(
        net.metrics().counter("net_outcome_delivered_total").get(),
        // Subscribes are request/response deliveries too (8 of them).
        stats.delivered_wse + 8
    );
}
