//! Federation links: wire equivalence, exactly-once and per-publisher
//! order.
//!
//! Two contracts guard the hop from the front to a shard:
//!
//! * **Wire equivalence.** The zero-reparse structured hop must be
//!   indistinguishable to consumers from the encoded hop a remote
//!   broker would make — each event sent to its owning shard as a WSN
//!   1.3 `Notify` envelope. For any seeded Zipf workload, every
//!   subscriber receives the *same set of envelope bytes* either way
//!   (property-tested below; the encoded hop lives only here, as the
//!   reference).
//! * **Exactly once, in each publisher's order.** Publishers racing on
//!   one front over a delayed wire hand each event to its shard on
//!   their own threads: every subscriber receives every event it
//!   matches exactly once, one publisher's events in the order that
//!   publisher published them, and nothing is ever left queued between
//!   the front and the shards.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use wsm_eventing::{EventSink, SubscribeRequest, Subscriber, WseVersion};
use wsm_messenger::{BatchPolicy, FederatedMessenger};
use wsm_notification::{
    NotificationConsumer, SharedNotificationMessage, WsnClient, WsnCodec, WsnFilter,
    WsnSubscribeRequest, WsnVersion,
};
use wsm_soap::{Envelope, Fault};
use wsm_topics::TopicPath;
use wsm_transport::Network;
use wsm_xml::{Element, SharedElement};

/// Seeded LCG (same constants as the chaos suites).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Zipf-ish topic pick over `n` roots: root 0 is hottest (the same
/// hot-shard skew the federation bench drives).
fn zipf_pick(rng: &mut Lcg, n: usize) -> usize {
    let r = rng.next() as usize % 100;
    match r {
        0..=49 => 0,
        50..=74 => 1 % n,
        75..=87 => 2 % n,
        _ => 3 + (rng.next() as usize % n.saturating_sub(3).max(1)),
    }
    .min(n - 1)
}

/// A raw SOAP endpoint that records the exact serialized bytes of
/// every envelope delivered to it.
struct CaptureSink {
    got: Mutex<Vec<String>>,
}

impl CaptureSink {
    fn start(net: &Network, uri: &str) -> Arc<Self> {
        let sink = Arc::new(CaptureSink {
            got: Mutex::new(Vec::new()),
        });
        net.register(
            uri,
            Arc::clone(&sink) as Arc<dyn wsm_transport::SoapHandler>,
        );
        sink
    }

    fn sorted(&self) -> Vec<String> {
        let mut v = self.got.lock().unwrap().clone();
        v.sort();
        v
    }
}

impl wsm_transport::SoapHandler for CaptureSink {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        self.got.lock().unwrap().push(request.to_xml());
        Ok(None)
    }
}

const ROOTS: [&str; 8] = [
    "storms",
    "jobs",
    "transfers",
    "compute",
    "radar",
    "alerts",
    "grid",
    "t7",
];

/// How a workload's events reach their owning shard.
#[derive(Clone, Copy)]
enum Hop {
    /// Through the federation front.
    Links,
    /// The reference: each event encoded as the `Notify` envelope a
    /// remote broker would send, posted to the owning shard's endpoint.
    EncodedNotify,
}

/// Run one seeded workload through a federation over `hop`, returning
/// each capture sink's sorted envelope bytes: a topic-rooted WSN
/// consumer per root-pair plus one broadcast WSE sink.
fn run_workload(hop: Hop, seed: u64, shards: usize, events: usize) -> Vec<Vec<String>> {
    let net = Network::new();
    let fed = FederatedMessenger::start(&net, "http://fed", shards);

    let mut sinks = Vec::new();
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    for (i, root) in ROOTS.iter().enumerate().take(4) {
        let uri = format!("http://cap-wsn-{i}");
        let sink = CaptureSink::start(&net, &uri);
        wsn.subscribe(
            fed.uri(),
            &WsnSubscribeRequest::new(wsm_addressing::EndpointReference::new(uri))
                .with_filter(WsnFilter::topic(root)),
        )
        .unwrap();
        sinks.push(sink);
    }
    let broadcast = CaptureSink::start(&net, "http://cap-wse");
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(
            fed.uri(),
            SubscribeRequest::push(wsm_addressing::EndpointReference::new("http://cap-wse")),
        )
        .unwrap();
    sinks.push(broadcast);

    let codec = WsnCodec::new(WsnVersion::V1_3);
    let mut rng = Lcg(seed);
    for i in 0..events {
        let root = ROOTS[zipf_pick(&mut rng, ROOTS.len())];
        let payload = Element::local("event")
            .with_attr("seq", i.to_string())
            .with_text(format!("v{}", rng.next() % 1000));
        let topic = format!("{root}/readings");
        match hop {
            Hop::Links => {
                fed.publish_on(&topic, &payload);
            }
            Hop::EncodedNotify => {
                let shard = &fed.shards()[fed.shard_for_topic(&topic)];
                let msg = SharedNotificationMessage::new(
                    TopicPath::parse(&topic),
                    None,
                    SharedElement::new(payload),
                );
                let env = codec.notify_shared(
                    &wsm_addressing::EndpointReference::new(shard.uri()),
                    std::slice::from_ref(&msg),
                );
                net.send(shard.uri(), env).unwrap();
            }
        }
        if rng.next().is_multiple_of(4) {
            net.clock().advance_ms(1);
        }
    }
    sinks.iter().map(|s| s.sorted()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any seeded Zipf workload, the structured links and the
    /// encoded `Notify` hop hand every subscriber byte-identical
    /// envelopes.
    #[test]
    fn structured_links_match_encoded_notify_hop_byte_for_byte(
        seed in any::<u64>(),
        shards in 1usize..5,
        events in 1usize..48,
    ) {
        let fast = run_workload(Hop::Links, seed, shards, events);
        let wire = run_workload(Hop::EncodedNotify, seed, shards, events);
        prop_assert_eq!(fast.len(), wire.len());
        // The broadcast sink matches every event, so the workload
        // genuinely exercised both paths.
        prop_assert_eq!(fast.last().unwrap().len(), events);
        for (i, (f, w)) in fast.iter().zip(wire.iter()).enumerate() {
            prop_assert_eq!(f, w, "sink {} envelopes diverge between hops", i);
        }
    }
}

/// The `(publisher, index)` each received payload carries, in arrival
/// order.
fn origins<'a>(payloads: impl Iterator<Item = &'a Element>) -> Vec<(usize, usize)> {
    let attr = |e: &Element, name: &str| -> usize {
        let value = e.attr(name).unwrap_or_else(|| panic!("{name} attr"));
        value.parse().expect("numeric")
    };
    payloads.map(|e| (attr(e, "pub"), attr(e, "i"))).collect()
}

/// `got` holds every event of `expected` exactly once, each
/// publisher's events in the order it published them.
fn assert_exactly_once_in_order(got: &[(usize, usize)], expected: &[(usize, usize)], who: &str) {
    let mut sorted = got.to_vec();
    sorted.sort_unstable();
    assert_eq!(sorted, expected, "{who}: every matching event exactly once");
    for p in 0..2 {
        let order: Vec<usize> = got.iter().filter(|o| o.0 == p).map(|o| o.1).collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "{who}: publisher {p}'s events arrived out of order: {order:?}"
        );
    }
}

/// Two publisher threads race Zipf topics through a 4-shard front over
/// a 100 µs wire. Each event reaches its shard on its publisher's
/// thread: a broadcast subscriber and one subscriber per hot root get
/// every event they match exactly once and in each publisher's order,
/// and there is never anything for `flush()` to drain. The link policy
/// is installed first and changes none of this.
#[test]
fn racing_publishers_deliver_exactly_once_in_publisher_order() {
    const PUBS: usize = 2;
    const PER_PUB: usize = 300;
    const ROOTED: usize = 4;
    let net = Network::new();
    let fed = FederatedMessenger::start(&net, "http://fed", 4);
    fed.set_link_policy(BatchPolicy::Adaptive {
        min: 4,
        max: 8,
        deadline_ms: 5,
    });
    let wse = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(fed.uri(), SubscribeRequest::push(wse.epr()))
        .unwrap();
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    let rooted: Vec<NotificationConsumer> = ROOTS[..ROOTED]
        .iter()
        .enumerate()
        .map(|(i, root)| {
            let consumer =
                NotificationConsumer::start(&net, &format!("http://wsn-{i}"), WsnVersion::V1_3);
            wsn.subscribe(
                fed.uri(),
                &WsnSubscribeRequest::new(consumer.epr()).with_filter(WsnFilter::topic(root)),
            )
            .unwrap();
            consumer
        })
        .collect();
    net.set_send_delay_us(100);

    // Each publisher returns the root it published each event on.
    let publishers: Vec<_> = (0..PUBS)
        .map(|p| {
            let fed = fed.clone();
            let mut rng = Lcg(42 + p as u64);
            std::thread::spawn(move || {
                (0..PER_PUB)
                    .map(|i| {
                        let root = zipf_pick(&mut rng, ROOTS.len());
                        let event = Element::local("event")
                            .with_attr("pub", p.to_string())
                            .with_attr("i", i.to_string());
                        assert_eq!(fed.publish_on(ROOTS[root], &event), 1);
                        root
                    })
                    .collect::<Vec<usize>>()
            })
        })
        .collect();
    let roots: Vec<Vec<usize>> = publishers
        .into_iter()
        .map(|p| p.join().expect("publisher thread"))
        .collect();
    net.set_send_delay_us(0);
    assert_eq!((fed.flush(), fed.link_queue_depth()), (0, 0));

    let published_on = |want: Option<usize>| -> Vec<(usize, usize)> {
        let mut all = Vec::new();
        for (p, roots) in roots.iter().enumerate() {
            for (i, root) in roots.iter().enumerate() {
                if want.is_none_or(|w| w == *root) {
                    all.push((p, i));
                }
            }
        }
        all
    };
    let everything = published_on(None);
    assert_eq!(everything.len(), PUBS * PER_PUB);
    assert_exactly_once_in_order(&origins(wse.received().iter()), &everything, "broadcast");
    for (r, consumer) in rooted.iter().enumerate() {
        let got = consumer.notifications();
        let expected = published_on(Some(r));
        assert!(!expected.is_empty(), "root {r} was published on");
        let who = format!("subscriber on {}", ROOTS[r]);
        assert_exactly_once_in_order(&origins(got.iter().map(|m| &m.message)), &expected, &who);
    }
}
