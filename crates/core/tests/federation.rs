//! Federation routing under churn: seeded subscribe/renew/unsubscribe
//! traffic across shards while a publisher drives cross-shard
//! federation hops.
//!
//! The invariants under test are the federation layer's contract:
//!
//! * **Consistent routing.** Every registration a shard holds is
//!   reachable through exactly one federated route entry — churn never
//!   orphans a shard-local registration (a leak the subscriber could
//!   no longer renew or cancel).
//! * **Exactly-once.** A broadcast-replicated subscription receives
//!   each publication exactly once however many shards it lives on,
//!   because each event is federated to exactly one owner shard.
//! * **Terminal outcomes.** Every in-flight (event, subscriber)
//!   delivery reaches a terminal `Resolve` outcome on its shard.
//! * **One answer from many shards.** A Pull through the front takes at
//!   most `MaxElements` events in all, and `flush_wrapped` sends one
//!   batch per shard that holds wrapped events.

use wsm_addressing::EndpointReference;
use wsm_eventing::{DeliveryMode, EventSink, Expires, SubscribeRequest, Subscriber, WseVersion};
use wsm_messenger::FederatedMessenger;
use wsm_notification::{
    NotificationConsumer, Termination, WsnClient, WsnFilter, WsnSubscribeRequest, WsnVersion,
};
use wsm_transport::Network;
use wsm_xml::Element;

const SHARDS: usize = 4;
const EVENTS: usize = 120;
const CHURN_TOPICS: usize = 12;

/// The suite-wide seed: `WSM_CHAOS_SEED` or 42.
fn chaos_seed() -> u64 {
    std::env::var("WSM_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn event(seq: usize) -> Element {
    Element::local("reading").with_attr("seq", seq.to_string())
}

fn seqs_of(received: &[Element]) -> Vec<u64> {
    received
        .iter()
        .map(|e| e.attr("seq").expect("seq attr").parse().expect("numeric"))
        .collect()
}

/// Seeded LCG (same constants as the single-broker chaos suite).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }
}

#[test]
fn multi_shard_churn_leaves_no_orphans_and_resolves_every_delivery() {
    let seed = chaos_seed();
    let net = Network::new();
    let fed = FederatedMessenger::start(&net, "http://fed", SHARDS);
    fed.set_obs_enabled(true);
    // Real per-send time so the churn genuinely lands mid-publication.
    net.set_send_delay_us(50);

    // Two consumers that live through the whole run: a broadcast WSE
    // sink (replicated to every shard) and a topic-rooted WSN consumer
    // (placed on one shard).
    let stable_wse = EventSink::start(&net, "http://stable-wse", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(fed.uri(), SubscribeRequest::push(stable_wse.epr()))
        .expect("stable WSE subscribe");
    let stable_wsn = NotificationConsumer::start(&net, "http://stable-wsn", WsnVersion::V1_3);
    WsnClient::new(&net, WsnVersion::V1_3)
        .subscribe(
            fed.uri(),
            &WsnSubscribeRequest::new(stable_wsn.epr()).with_filter(WsnFilter::topic("stable")),
        )
        .expect("stable WSN subscribe");

    // One shared consumer endpoint for all churned subscriptions: the
    // churn is about registration routing, not endpoint health.
    let churn_sink = NotificationConsumer::start(&net, "http://churn-sink", WsnVersion::V1_3);
    let churn_wse_sink = EventSink::start(&net, "http://churn-sink-wse", WseVersion::Aug2004);

    let publisher = {
        let fed = fed.clone();
        let net = net.clone();
        std::thread::spawn(move || {
            for i in 0..EVENTS {
                // Every event lands on the stable broadcast sub; every
                // third also matches the stable topic sub; the rest
                // spread over the churned topic space (and so over the
                // shards).
                let topic = if i % 3 == 0 {
                    "stable/readings".to_string()
                } else {
                    format!("t{}/readings", i % CHURN_TOPICS)
                };
                fed.publish_on(&topic, &event(i));
                net.clock().advance_ms(3);
            }
        })
    };

    // Churn thread: seeded subscribe / renew / unsubscribe across the
    // shards, mid-publication.
    let churner = {
        let net = net.clone();
        let fed = fed.clone();
        let wsn_epr = churn_sink.epr();
        let wse_epr = churn_wse_sink.epr();
        std::thread::spawn(move || {
            let wsn = WsnClient::new(&net, WsnVersion::V1_3);
            let wsn_10 = WsnClient::new(&net, WsnVersion::V1_0);
            let wse = Subscriber::new(&net, WseVersion::Aug2004);
            let mut rng = Lcg(seed.wrapping_mul(3).wrapping_add(7));
            let mut wsn_handles = Vec::new();
            let mut wse_handles = Vec::new();
            for step in 0..80 {
                std::thread::sleep(std::time::Duration::from_micros(200));
                match rng.next() % 5 {
                    // Topic-rooted WSN subscription → one shard.
                    0 | 1 => {
                        let topic = format!("t{}", rng.next() % CHURN_TOPICS);
                        let client = if step % 2 == 0 { &wsn } else { &wsn_10 };
                        let h = client
                            .subscribe(
                                fed.uri(),
                                &WsnSubscribeRequest::new(wsn_epr.clone())
                                    .with_filter(WsnFilter::topic(&topic)),
                            )
                            .expect("churn WSN subscribe");
                        wsn_handles.push((h, step % 2 == 0));
                    }
                    // WSE subscription → broadcast to every shard.
                    2 => {
                        let h = wse
                            .subscribe(fed.uri(), SubscribeRequest::push(wse_epr.clone()))
                            .expect("churn WSE subscribe");
                        wse_handles.push(h);
                    }
                    // Renew something (must reach every placement).
                    3 => {
                        if let Some((h, v13)) = wsn_handles.last() {
                            let client = if *v13 { &wsn } else { &wsn_10 };
                            client
                                .renew(h, Termination::Duration(600_000))
                                .expect("churn WSN renew");
                        } else if let Some(h) = wse_handles.last() {
                            wse.renew(h, Some(Expires::Duration(600_000)))
                                .expect("churn WSE renew");
                        }
                    }
                    // Unsubscribe something (must remove every placement).
                    _ => {
                        if rng.next().is_multiple_of(2) {
                            if let Some((h, v13)) = wsn_handles.pop() {
                                let client = if v13 { &wsn } else { &wsn_10 };
                                client.unsubscribe(&h).expect("churn WSN unsubscribe");
                            }
                        } else if let Some(h) = wse_handles.pop() {
                            wse.unsubscribe(&h).expect("churn WSE unsubscribe");
                        }
                    }
                }
                // Invariant holds at every step, not just at the end:
                // shard registrations and route entries never diverge
                // by more than the stable pair's fixed placements.
                if step % 16 == 0 {
                    let subs = fed.subscription_count();
                    let routed = fed.route_entry_count();
                    assert_eq!(
                        subs, routed,
                        "no orphaned shard registrations mid-churn (step {step})"
                    );
                }
            }
            (wsn_handles, wse_handles)
        })
    };

    publisher.join().expect("publisher thread");
    let (wsn_left, wse_left) = churner.join().expect("churn thread");
    net.set_send_delay_us(0);

    // Routing consistency after churn: every shard registration is
    // reachable through exactly one route entry.
    assert_eq!(
        fed.subscription_count(),
        fed.route_entry_count(),
        "no orphaned registrations after churn"
    );

    // Tear down the survivors; the federation must empty completely.
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    let wsn_10 = WsnClient::new(&net, WsnVersion::V1_0);
    for (h, v13) in &wsn_left {
        let client = if *v13 { &wsn } else { &wsn_10 };
        client.unsubscribe(h).expect("final WSN unsubscribe");
    }
    let wse = Subscriber::new(&net, WseVersion::Aug2004);
    for h in &wse_left {
        wse.unsubscribe(h).expect("final WSE unsubscribe");
    }
    assert_eq!(fed.route_count(), 2, "only the stable pair remains routed");
    assert_eq!(
        fed.subscription_count(),
        fed.route_entry_count(),
        "stable pair placements all accounted for"
    );

    // Exactly-once across shards: the broadcast sub saw every event
    // exactly once, in publication order, despite living on 4 shards.
    let seqs = seqs_of(&stable_wse.received());
    assert_eq!(seqs.len(), EVENTS, "broadcast consumer got every event");
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "exactly once, in order: {seqs:?}"
    );
    // The topic-rooted sub saw exactly the `stable/...` publications.
    let stable_events = (0..EVENTS).filter(|i| i % 3 == 0).count();
    assert_eq!(stable_wsn.notifications().len(), stable_events);

    let mut terminal = 0u64;
    for shard in fed.shards() {
        let snap = shard.obs_snapshot();
        assert_eq!(snap.spans_evicted, 0, "span ring large enough");
        let stories = shard.delivery_stories();
        let unresolved: Vec<_> = stories
            .iter()
            .filter(|s| s.outcome.is_none())
            .map(|s| (s.seq, s.subscriber.clone()))
            .collect();
        assert!(
            unresolved.is_empty(),
            "every in-flight delivery reached a terminal outcome, missing: {unresolved:?}"
        );
        terminal += snap.outcome_delivered + shard.stats().dead_lettered + snap.outcome_expired;
    }
    assert!(terminal >= EVENTS as u64, "at least one outcome per event");
    // Federation hops were recorded and each carried one event
    // (the link policy is `Immediate` in this scenario).
    let fed_spans = fed.federation_spans();
    let hops: u64 = fed_spans
        .iter()
        .filter(|s| s.stage == wsm_messenger::Stage::Federate)
        .map(|s| s.items)
        .sum();
    assert_eq!(hops, EVENTS as u64, "one federated event per publication");
}

/// One root per shard, in shard order: publishing on each puts one
/// event on every shard.
fn root_per_shard(fed: &FederatedMessenger) -> Vec<String> {
    let mut roots: Vec<Option<String>> = vec![None; SHARDS];
    for i in 0.. {
        let root = format!("t{i}");
        let slot = &mut roots[fed.shard_for_topic(&root)];
        if slot.is_none() {
            *slot = Some(root);
        }
        if roots.iter().all(Option::is_some) {
            return roots.into_iter().flatten().collect();
        }
    }
    unreachable!("some root maps to every shard")
}

/// A Pull through the front honours `MaxElements`: a WS-Eventing pull
/// subscription is broadcast residue, so every shard holds some of its
/// events, and one Pull still returns at most the number asked for.
/// A larger Pull takes the rest from every shard that holds some, with
/// no loss and no duplicate.
#[test]
fn front_pull_honours_max_elements() {
    let net = Network::new();
    let fed = FederatedMessenger::start(&net, "http://fed", SHARDS);
    let sub = Subscriber::new(&net, WseVersion::Aug2004);
    let h = sub
        .subscribe(
            fed.uri(),
            SubscribeRequest::push(EndpointReference::new("http://puller"))
                .with_mode(DeliveryMode::Pull),
        )
        .unwrap();
    for (i, root) in root_per_shard(&fed).iter().enumerate() {
        fed.publish_on(root, &event(i));
    }

    let mut pulled = sub.pull(&h, 1).unwrap();
    assert_eq!(pulled.len(), 1, "pull(1) takes one event");
    let rest = sub.pull(&h, 10).unwrap();
    assert_eq!(rest.len(), SHARDS - 1, "one Pull spans every shard");
    pulled.extend(rest);
    assert!(sub.pull(&h, 10).unwrap().is_empty(), "all drained");
    let mut seqs = seqs_of(&pulled);
    seqs.sort_unstable();
    assert_eq!(seqs, (0..SHARDS as u64).collect::<Vec<_>>());
}

/// Wrapped delivery through the front: a WS-Eventing `Wrapped`
/// subscription lands on every shard, each shard buffers the events it
/// owns, and `flush_wrapped` sends one batch per shard that holds
/// some. The consumer sees each event exactly once.
#[test]
fn front_flush_wrapped_sends_one_batch_per_holding_shard() {
    let net = Network::new();
    let fed = FederatedMessenger::start(&net, "http://fed", SHARDS);
    let sink = EventSink::start(&net, "http://wrapped", WseVersion::Aug2004);
    Subscriber::new(&net, WseVersion::Aug2004)
        .subscribe(
            fed.uri(),
            SubscribeRequest::push(sink.epr()).with_mode(DeliveryMode::Wrapped),
        )
        .unwrap();
    assert_eq!(fed.subscription_count(), SHARDS, "broadcast residue");

    // Two events on each of the first two shards' roots; the other
    // shards hold nothing.
    let roots = root_per_shard(&fed);
    for i in 0..4 {
        fed.publish_on(&roots[i % 2], &event(i));
    }
    assert!(
        sink.received().is_empty(),
        "wrapped events wait for a flush"
    );
    assert_eq!(fed.flush_wrapped(), 2, "one batch per shard holding events");
    let mut seqs = seqs_of(&sink.received());
    seqs.sort_unstable();
    assert_eq!(seqs, vec![0, 1, 2, 3], "each event exactly once");
    assert_eq!(fed.flush_wrapped(), 0, "nothing left to send");
}
