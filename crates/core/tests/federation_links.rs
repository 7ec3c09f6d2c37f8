//! Pipelined federation links: wire equivalence and backpressure.
//!
//! Two contracts guard the link layer:
//!
//! * **Wire equivalence.** The zero-reparse structured hop must be
//!   indistinguishable to consumers from the encoded hop a remote
//!   broker would make — each event sent to its owning shard as a WSN
//!   1.3 `Notify` envelope. For any seeded Zipf workload, every
//!   subscriber receives the *same set of envelope bytes* either way
//!   (property-tested below; the encoded hop lives only here, as the
//!   reference).
//! * **Lossless backpressure.** The links share one bound of 1 024
//!   admitted-but-undelivered events. A publisher that finds it reached
//!   seals every pending link and parks until the flushers make room,
//!   and every published event still reaches every matching subscriber
//!   exactly once; nothing is ever dropped.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use wsm_eventing::{EventSink, SubscribeRequest, Subscriber, WseVersion};
use wsm_messenger::{BatchPolicy, FederatedMessenger};
use wsm_notification::{
    SharedNotificationMessage, WsnClient, WsnCodec, WsnFilter, WsnSubscribeRequest, WsnVersion,
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

/// Seal after exactly `n` events, with no deadline.
fn pinned(n: usize) -> BatchPolicy {
    BatchPolicy::Adaptive {
        min: n,
        max: n,
        deadline_ms: u64::MAX,
    }
}

/// How a workload's events reach their owning shard.
#[derive(Clone, Copy)]
enum Hop {
    /// Through the federation's own pipelined links.
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

    // Batched pipelined delivery on the links: the equivalence claim
    // covers the whole link layer, not just the inline path.
    fed.set_link_policy(pinned(4));
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
    fed.flush();
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

fn seq_event(i: usize) -> Element {
    Element::local("event").with_attr("seq", i.to_string())
}

fn sorted_seqs(received: &[Element]) -> Vec<usize> {
    let mut seqs: Vec<usize> = received
        .iter()
        .map(|e| e.attr("seq").expect("seq attr").parse().expect("numeric"))
        .collect();
    seqs.sort_unstable();
    seqs
}

/// Full-queue backpressure never drops an event: two publishers
/// together admit more events than the links' bound while slow sends
/// hold the flushers back, and the broadcast subscriber still sees
/// every event exactly once.
#[test]
fn park_backpressure_never_drops_events() {
    const PUBS: usize = 2;
    const PER_PUB: usize = 800;
    /// The links' shared bound on admitted-but-undelivered events.
    const BOUND: usize = 1024;
    let seed: u64 = std::env::var("WSM_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let net = Network::new();
    let fed = FederatedMessenger::start(&net, "http://fed", 2);
    let wse = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(fed.uri(), SubscribeRequest::push(wse.epr()))
        .unwrap();

    // A batch target above the whole run and no deadline: no link
    // seals on its own, so only a publisher that found the bound
    // reached (seal everything and park) can hand work to a flusher.
    fed.set_link_policy(pinned(2 * PUBS * PER_PUB));
    net.set_send_delay_us(100);

    let publishers: Vec<_> = (0..PUBS)
        .map(|p| {
            let fed = fed.clone();
            let mut rng = Lcg(seed.wrapping_add(p as u64));
            std::thread::spawn(move || {
                for i in 0..PER_PUB {
                    let root = ROOTS[zipf_pick(&mut rng, ROOTS.len())];
                    fed.publish_on(&format!("{root}/r"), &seq_event(p * PER_PUB + i));
                }
            })
        })
        .collect();
    for p in publishers {
        p.join().expect("publisher thread");
    }
    // Every event past the bound was admitted only after a flusher
    // delivered one that the park rule had sealed.
    let before_flush = wse.received().len();
    assert!(
        before_flush >= PUBS * PER_PUB - BOUND,
        "the park rule sealed and delivered {before_flush} events before flush()"
    );
    fed.flush();
    net.set_send_delay_us(0);

    assert_eq!(fed.link_queue_depth(), 0, "flush drains the links");
    let seqs = sorted_seqs(&wse.received());
    assert_eq!(
        seqs,
        (0..PUBS * PER_PUB).collect::<Vec<_>>(),
        "every event delivered exactly once through the full-queue chaos"
    );
}

/// Stealing: with every sealed batch parked on one hot link, idle
/// flushers from other links drain it — the backlog clears even though
/// the hot link has only one "home" flusher.
#[test]
fn idle_flushers_steal_hot_link_backlog() {
    let net = Network::new();
    let fed = FederatedMessenger::start(&net, "http://fed", 4);
    let wse = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(fed.uri(), SubscribeRequest::push(wse.epr()))
        .unwrap();

    // Everything lands on one root → one link; batches of 2 seal 32
    // sealed batches onto that single link.
    fed.set_link_policy(pinned(2));
    for i in 0..64 {
        fed.publish_on("storms/r", &seq_event(i));
    }
    fed.flush();
    let seqs = sorted_seqs(&wse.received());
    assert_eq!(
        seqs,
        (0..64).collect::<Vec<_>>(),
        "hot-link backlog drained"
    );
}
