//! Sharded multi-broker federation: a topic-partitioned network of
//! [`WsMessenger`] shards behind one routing front.
//!
//! The paper's WS-BrokeredNotification discussion (§VI) anticipates
//! *networks* of brokers rather than a single mediator, and the CORBA
//! notification-service lineage it cites survived real control-system
//! load only by federating channels. This module reproduces that
//! topology in-process:
//!
//! * **Partitioning.** The topic space is split across N broker shards
//!   by hashing the *topic root* (the first path segment) with FNV-1a.
//!   A publication on `storms/tornado` is owned by
//!   `shard_of_root("storms")`, and every subscription whose topic
//!   filters open with literal roots
//!   ([`wsm_topics::TopicExpression::index_roots`] returns `Some`) is
//!   placed on exactly the shards that own those roots.
//! * **Broadcast residue.** Subscriptions the partition rule cannot
//!   place — WS-Eventing subscriptions (no topic filter), wildcard-
//!   rooted topic expressions (`//*`), and content-only filters — are
//!   replicated to *every* shard. Exactly-once delivery still holds
//!   because each publication is routed to exactly **one** shard (its
//!   topic root's owner; topicless events round-robin), so a
//!   replicated subscription sees each event exactly once.
//! * **Unbuffered links.** A publication is handed to its owner shard
//!   on the publisher's own thread, and the shard's fan-out posts its
//!   sends on that thread's pipeline (`crate::delivery`). There is no
//!   link queue and no thread: `publish_on` returns once the sends are
//!   posted, and the thread lands them during its later calls, at
//!   [`FederatedMessenger::flush`], when it holds 1 024 sends in
//!   flight, or when it ends. One pipeline lands in post order, so each
//!   subscriber sees one publisher's events in the order it published
//!   them, by construction, and a thread's publications overlap on a
//!   delayed wire across shards. A send posted before a management
//!   request (an Unsubscribe, say) may land after its response, as on
//!   a real wire.
//! * **Zero-reparse hop.** The event crosses to its shard as the same
//!   [`InternalEvent`] — the `Arc`'d payload subtree is neither
//!   serialized nor reparsed — accounted as if it had arrived in the
//!   WSN 1.3 `Notify` a remote broker would receive. Consumer
//!   deliveries are byte-identical to sending the shard that encoded
//!   `Notify` ([`wsm_notification::WsnCodec::notify_shared`];
//!   property-tested in `tests/federation_links.rs`). The
//!   [`Stage::Federate`] span times the handoff; delivery cost shows
//!   up in the owning shard's own pipeline stages, where it belongs.
//! * **Shard autonomy.** Each shard is a full [`WsMessenger`]: its own
//!   registry, delivery engine, reliability layer, and WSE↔WSN
//!   mediation. The front only routes.
//! * **Control plane.** The front decodes each management request once
//!   (`crate::control`) and places it: a Subscribe on the shards that
//!   own its topic roots (every shard for the broadcast residue), a
//!   management operation on the shards its route table names. It calls
//!   those shards' `apply` directly under each shard's own subscription
//!   id and merges their replies — nothing is re-encoded or re-parsed
//!   for the hop — then answers once, with its own manager URI and
//!   federated id. The broker's `wsm:` operations are answered too:
//!   metrics and trace from the front's own, dead letters from the
//!   shards'. Publisher registrations and PullPoints are the front's
//!   own: it subscribes at a demand-based publisher once, as the
//!   consumer, and ORs its shards' demand.
//!
//! [`FederatedMessenger::set_link_policy`] and
//! [`FederatedMessenger::shed_events`] are kept as no-ops for callers
//! written against the buffered links this module once had.
//!
//! ```
//! use wsm_messenger::{BatchPolicy, FederatedMessenger};
//! use wsm_transport::Network;
//! use wsm_eventing::{EventSink, Subscriber, SubscribeRequest, WseVersion};
//! use wsm_notification::{NotificationConsumer, WsnClient, WsnFilter, WsnSubscribeRequest, WsnVersion};
//! use wsm_xml::Element;
//!
//! let net = Network::new();
//! let fed = FederatedMessenger::start(&net, "http://fed", 4);
//!
//! // A topic-rooted WSN subscription lands on one shard; a WS-Eventing
//! // subscription (no topic filter) replicates to all four.
//! let wsn = NotificationConsumer::start(&net, "http://sink-wsn", WsnVersion::V1_3);
//! WsnClient::new(&net, WsnVersion::V1_3)
//!     .subscribe(fed.uri(), &WsnSubscribeRequest::new(wsn.epr())
//!         .with_filter(WsnFilter::topic("storms"))).unwrap();
//! let wse = EventSink::start(&net, "http://sink-wse", WseVersion::Aug2004);
//! Subscriber::new(&net, WseVersion::Aug2004)
//!     .subscribe(fed.uri(), SubscribeRequest::push(wse.epr())).unwrap();
//!
//! // Each publication is federated to exactly one shard, so both
//! // consumers see it exactly once.
//! fed.publish_on("storms", &Element::local("alert"));
//! fed.publish_on("jobs/status", &Element::local("done"));
//! assert_eq!(wsn.notifications().len(), 1);
//! assert_eq!(wse.received().len(), 2);
//!
//! // A link policy changes nothing, and on a wire with no send delay
//! // every send lands as it is posted: nothing is left for `flush()`.
//! fed.set_link_policy(BatchPolicy::Adaptive { min: 2, max: 64, deadline_ms: 5 });
//! for _ in 0..10 {
//!     fed.publish_on("storms", &Element::local("alert"));
//! }
//! assert_eq!(wsn.notifications().len(), 11);
//! assert_eq!(wse.received().len(), 12);
//! assert_eq!((fed.flush(), fed.link_queue_depth()), (0, 0));
//!
//! // On a delayed wire `publish_on` returns once the sends are posted;
//! // this thread lands them later, at the latest when it flushes.
//! net.set_send_delay_us(100);
//! for _ in 0..10 {
//!     fed.publish_on("storms", &Element::local("alert"));
//! }
//! assert!(fed.link_queue_depth() > 0, "sends still in flight");
//! let landed = wsn.notifications().len() + wse.received().len() - 23;
//! assert_eq!(fed.flush(), 20 - landed);
//! assert_eq!((wsn.notifications().len(), wse.received().len()), (21, 22));
//! assert_eq!(fed.link_queue_depth(), 0);
//! ```

use crate::broker::WsMessenger;
use crate::brokered::Brokered;
use crate::control::{unknown_subscription, ControlOp, Endpoint, Manage, Reply, Subscribed};
use crate::delivery::{self, IN_FLIGHT_CAP};
use crate::detect::SpecDialect;
use crate::event::InternalEvent;
use crate::obs::{BrokerObs, Stage};
use crate::registry;
use crate::reliability::{FaultTolerance, PumpReport};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use wsm_notification::WsnVersion;
use wsm_soap::Fault;
use wsm_topics::{TopicExpression, TopicPath};
use wsm_transport::Network;
use wsm_xml::Element;

/// FNV-1a over the topic root, reduced mod the shard count. FNV is
/// deliberate: it is stable across processes and Rust versions (unlike
/// `DefaultHasher`), so a bench or an operator can recompute the
/// placement of any root.
pub fn shard_of_root(root: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in root.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// The dialect a federated hop is accounted as: the event crosses the
/// link in WSN 1.3 shape, so mediation statistics are what an encoded
/// `Notify` to the owning shard would produce.
const FED_ORIGIN: SpecDialect = SpecDialect::Wsn(WsnVersion::V1_3);

/// A link batching policy, from when federation links buffered
/// publications. Links no longer buffer, so
/// [`FederatedMessenger::set_link_policy`] accepts it and changes
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Once: seal a link's batch at `max` events or after
    /// `deadline_ms` of virtual time.
    Adaptive {
        /// Not read.
        min: usize,
        /// Not read.
        max: usize,
        /// Not read.
        deadline_ms: u64,
    },
}

/// One placement of a federated subscription: a shard and the key its
/// registry minted the local id `wsm-{key}` from, packed in one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement(u64);

/// Bits of a [`Placement`] that hold the registry key; the shard index
/// takes the rest.
const KEY_BITS: u32 = 48;

impl Placement {
    fn new(shard: usize, key: u64) -> Placement {
        assert!(key < 1 << KEY_BITS, "registry key {key} out of range");
        Placement((shard as u64) << KEY_BITS | key)
    }

    fn shard(self) -> usize {
        (self.0 >> KEY_BITS) as usize
    }

    /// The shard's own id for the subscription, built only for a
    /// management request.
    fn local_id(self) -> String {
        registry::minted_id(self.0 & ((1 << KEY_BITS) - 1))
    }
}

/// Federated id → the placements behind it, keyed by the `n` of the
/// `fed-{n}` id the front minted. A route with one placement, the
/// common case, is one 16-byte entry; the broadcast residue and
/// multi-root filters keep a boxed slice in a map of their own.
#[derive(Default)]
struct Routes {
    one: HashMap<u64, Placement>,
    many: HashMap<u64, Box<[Placement]>>,
}

impl Routes {
    fn insert(&mut self, n: u64, placements: Vec<Placement>) {
        match placements[..] {
            [one] => {
                self.one.insert(n, one);
            }
            _ => {
                self.many.insert(n, placements.into_boxed_slice());
            }
        }
    }

    /// The placements of route `n` as `(shard, local id)`, removed
    /// with it when `remove` is set.
    fn placements(&mut self, n: u64, remove: bool) -> Option<Vec<(usize, String)>> {
        let placed: Vec<Placement> = if remove {
            (self.one.remove(&n).map(|p| vec![p]))
                .or_else(|| self.many.remove(&n).map(Vec::from))?
        } else {
            (self.one.get(&n).map(|p| vec![*p]))
                .or_else(|| self.many.get(&n).map(|ps| ps.to_vec()))?
        };
        Some(placed.iter().map(|p| (p.shard(), p.local_id())).collect())
    }

    fn len(&self) -> usize {
        self.one.len() + self.many.len()
    }

    fn placement_count(&self) -> usize {
        self.one.len() + self.many.values().map(|ps| ps.len()).sum::<usize>()
    }
}

struct FederationInner {
    uri: String,
    manager_uri: String,
    /// The front mints `fed-{n}` ids so a subscriber holds one handle
    /// however many shards back it.
    routes: Mutex<Routes>,
    next_id: AtomicU64,
    /// Sends a publishing thread may hold in flight.
    cap: usize,
    /// Round-robin cursor for topicless publications.
    round_robin: AtomicUsize,
    /// Publishers registered at the front, and its PullPoints.
    brokered: Brokered,
    net: Network,
    shards: Vec<WsMessenger>,
    /// The front's own observability: the [`Stage::Federate`] hop
    /// spans.
    obs: BrokerObs,
}

/// The routing front of a sharded broker federation.
///
/// Cloneable handle, like [`WsMessenger`]. See the module docs for the
/// partitioning and exactly-once rules.
#[derive(Clone)]
pub struct FederatedMessenger {
    inner: Arc<FederationInner>,
}

impl FederatedMessenger {
    /// Start a federation of `shards` broker shards (clamped to
    /// 1..=65 536) behind a routing front at `uri`. Shard `i` is a full
    /// [`WsMessenger`] at `{uri}/shard-{i}`; the front's subscription
    /// manager answers at `{uri}/subscriptions`.
    pub fn start(net: &Network, uri: &str, shards: usize) -> Self {
        Self::start_capped(net, uri, shards, IN_FLIGHT_CAP)
    }

    /// [`Self::start`], with a publishing thread holding at most `cap`
    /// sends in flight (at least 1).
    pub(crate) fn start_capped(net: &Network, uri: &str, shards: usize, cap: usize) -> Self {
        let n = shards.clamp(1, 1 << (64 - KEY_BITS));
        let shard_brokers: Vec<WsMessenger> = (0..n)
            .map(|i| WsMessenger::start(net, &format!("{uri}/shard-{i}")))
            .collect();
        let front = FederatedMessenger {
            inner: Arc::new(FederationInner {
                uri: uri.to_string(),
                manager_uri: format!("{uri}/subscriptions"),
                routes: Mutex::new(Routes::default()),
                next_id: AtomicU64::new(0),
                cap: cap.max(1),
                round_robin: AtomicUsize::new(0),
                brokered: Brokered::default(),
                net: net.clone(),
                shards: shard_brokers,
                obs: BrokerObs::new(),
            }),
        };
        let endpoint = Arc::new(Endpoint::Front(front.clone()));
        net.register(uri, endpoint.clone());
        net.register(front.inner.manager_uri.clone(), endpoint);
        front
    }

    /// The front's broker endpoint URI.
    pub fn uri(&self) -> &str {
        &self.inner.uri
    }

    /// The front's subscription-manager URI (every federated
    /// subscription handle points here).
    pub fn manager_uri(&self) -> &str {
        &self.inner.manager_uri
    }

    /// The shard brokers, in shard order. Benches seed registries and
    /// tests inspect per-shard state through these.
    pub fn shards(&self) -> &[WsMessenger] {
        &self.inner.shards
    }

    /// Which shard owns publications on `topic` — the partition rule,
    /// exposed so benches can pre-place direct registry insertions
    /// exactly where a routed subscription would land.
    pub fn shard_for_topic(&self, topic: &str) -> usize {
        match TopicPath::parse(topic) {
            Some(p) => shard_of_root(p.root(), self.inner.shards.len()),
            None => 0,
        }
    }

    /// Live subscriptions summed across shards. A broadcast
    /// subscription counts once per shard it is replicated to.
    pub fn subscription_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.subscription_count())
            .sum()
    }

    /// Federated subscriptions the front is routing.
    pub fn route_count(&self) -> usize {
        self.inner.routes.lock().len()
    }

    /// Total `(shard, local_id)` placements behind all federated
    /// subscriptions — equals [`Self::subscription_count`] when no
    /// registration is orphaned and none was inserted out-of-band.
    pub fn route_entry_count(&self) -> usize {
        self.inner.routes.lock().placement_count()
    }

    /// Does nothing: links do not buffer (see [`BatchPolicy`]). Kept
    /// because `benchmark/` calls it.
    pub fn set_link_policy(&self, policy: BatchPolicy) {
        let _ = policy;
    }

    /// Sends the calling thread has posted and not yet landed, through
    /// this front or any other broker (`crate::delivery`): what
    /// [`Self::flush`] would land now. Nothing is ever queued between
    /// the front and the shards.
    pub fn link_queue_depth(&self) -> usize {
        delivery::in_flight()
    }

    /// Events shed around a full link queue: always 0, because there is
    /// no link queue. Kept because `benchmark/` calls it.
    pub fn shed_events(&self) -> u64 {
        0
    }

    /// Publish an event on a topic through the federation. Returns 1:
    /// unlike [`WsMessenger::publish_on`], the return value counts
    /// federated *events*, not per-subscriber deliveries. The owning
    /// shard posts one send per push subscriber on this thread's
    /// pipeline and returns; with no send delay each lands before this
    /// returns, else this thread lands them during its later calls or at
    /// [`Self::flush`] (see the module docs).
    pub fn publish_on(&self, topic: &str, payload: &Element) -> usize {
        self.publish_event(InternalEvent::on_topic(topic, payload.clone()))
    }

    /// Publish a topicless event (round-robined across shards, since
    /// only broadcast-replicated subscriptions can match it).
    pub fn publish_raw(&self, payload: &Element) -> usize {
        self.publish_event(InternalEvent::raw(payload.clone()))
    }

    /// Publish a fully-specified internal event: hand it, as if it had
    /// arrived in a WSN 1.3 `Notify`, to its owner shard on this thread
    /// (see [`Self::publish_on`]).
    pub fn publish_event(&self, event: InternalEvent) -> usize {
        let inner = &self.inner;
        let shards = inner.shards.len();
        let shard = match &event.topic {
            Some(t) => shard_of_root(t.root(), shards),
            None => inner.round_robin.fetch_add(1, Ordering::Relaxed) % shards,
        };
        let seq = inner.obs.next_seq();
        let timer = inner.obs.start();
        let event = event.with_origin(FED_ORIGIN);
        // The Federate span covers exactly the handoff; the shard's own
        // pipeline stages time the delivery that follows.
        inner
            .obs
            .stage(Stage::Federate, seq, timer, inner.net.clock().now_ms(), 1);
        inner.shards[shard].publish_posted(event, inner.cap);
        1
    }

    /// Land every send the calling thread has posted and not yet
    /// landed — through this front or any other broker — waiting out
    /// their delays, and settle each with its shard. Returns how many
    /// landed; another thread's sends are its own to land.
    pub fn flush(&self) -> usize {
        delivery::land_all()
    }

    /// Flush wrapped-mode consumer buffers on every shard; returns
    /// batches sent.
    pub fn flush_wrapped(&self) -> usize {
        self.inner.shards.iter().map(|s| s.flush_wrapped()).sum()
    }

    /// Does nothing, like [`WsMessenger::set_fanout_workers`]. Kept
    /// because `benchmark/` calls it.
    pub fn set_fanout_workers(&self, workers: usize) {
        let _ = workers;
    }

    /// Switch fault-tolerant delivery on or off on every shard.
    pub fn set_fault_tolerance(&self, config: Option<FaultTolerance>) {
        for s in &self.inner.shards {
            s.set_fault_tolerance(config.clone());
        }
    }

    /// Observability kill-switch for the front's federation spans and
    /// every shard's pipeline obs.
    pub fn set_obs_enabled(&self, on: bool) {
        self.inner.obs.set_enabled(on);
        for s in &self.inner.shards {
            s.set_obs_enabled(on);
        }
    }

    /// Drain every shard's redelivery queue within `horizon_ms`.
    pub fn drain_redeliveries(&self, horizon_ms: u64) -> PumpReport {
        let mut total = PumpReport::default();
        for s in &self.inner.shards {
            total.absorb(s.drain_redeliveries(horizon_ms));
        }
        total
    }

    /// Dead letters summed across shards.
    pub fn dead_letter_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.dead_letter_count())
            .sum()
    }

    /// The front's own span snapshot: the [`Stage::Federate`] hops.
    pub fn federation_spans(&self) -> Vec<crate::obs::SpanRecord> {
        self.inner.obs.spans()
    }

    /// Aggregate statistics of the front's obs (only the `federate`
    /// stage accumulates here; per-shard pipelines report on the shards
    /// themselves).
    pub fn federation_snapshot(&self) -> crate::obs::ObsSnapshot {
        self.inner.obs.snapshot()
    }

    /// Prometheus-style text exposition of the front's federation
    /// metrics: the `federate` stage histogram. Per-shard pipeline
    /// metrics come from each shard's own [`WsMessenger::metrics_text`].
    pub fn metrics_text(&self) -> String {
        self.inner.obs.prometheus()
    }
}

// ------------------------------------------------------ control plane

/// Which shards a subscription must live on: the owners of its literal
/// topic roots, or every shard when a topic filter is wildcard-rooted or
/// none constrains it — the broadcast residue, which includes every
/// WS-Eventing subscription.
fn target_shards(topics: &[TopicExpression], shards: usize) -> Vec<usize> {
    // `None` as soon as one filter is wildcard-rooted.
    let roots: Option<Vec<Vec<&str>>> = topics.iter().map(|t| t.index_roots()).collect();
    let mut targets: Vec<usize> = (roots.into_iter().flatten().flatten())
        .map(|r| shard_of_root(r, shards))
        .collect();
    if targets.is_empty() {
        return (0..shards).collect();
    }
    targets.sort_unstable();
    targets.dedup();
    targets
}

impl FederatedMessenger {
    /// Re-evaluate the demand-based publishers registered at the front:
    /// one is wanted while some shard wants its topics.
    pub(crate) fn refresh_demand(&self) {
        let inner = &self.inner;
        inner.brokered.refresh(&inner.net, |topics| {
            inner.shards.iter().any(|s| s.wants(topics))
        });
    }

    /// Apply one decoded control operation: place it on the shards that
    /// hold its state, apply it there under each shard's own id, and
    /// merge what they reply. The front's own metrics and trace answer
    /// `wsm:GetMetrics` and `wsm:GetTrace`; publisher registration and
    /// PullPoints are the front's own too.
    pub(crate) fn apply(&self, op: ControlOp) -> Result<Reply, Fault> {
        let inner = &self.inner;
        let shards = &inner.shards;
        let n = shards.len();
        match op {
            // Placed on every shard it needs, under one federated id.
            ControlOp::Subscribe(s) => {
                let targets = target_shards(&s.filters.topics, n);
                let (&last, rest) = targets.split_last().expect("a subscription has a shard");
                let mut entries = Vec::with_capacity(targets.len());
                for &i in rest {
                    entries.push(Placement::new(
                        i,
                        shards[i].subscribe(s.as_ref().clone()).key,
                    ));
                }
                let placed = shards[last].subscribe(*s);
                entries.push(Placement::new(last, placed.key));
                let n = inner.next_id.fetch_add(1, Ordering::Relaxed) + 1;
                inner.routes.lock().insert(n, entries);
                let id = format!("fed-{n}");
                self.refresh_demand();
                let manager = inner.manager_uri.clone();
                Ok(Reply::Subscribed(Subscribed {
                    manager,
                    id,
                    ..placed
                }))
            }
            ControlOp::Manage(dialect, id, manage) => {
                // Unsubscribe and Destroy end the route with its placements.
                let end = matches!(manage, Manage::End(_));
                let entries = registry::minted_number(&id, "fed-")
                    .and_then(|n| inner.routes.lock().placements(n, end))
                    .ok_or_else(|| unknown_subscription(dialect, &id))?;
                let reply = match manage {
                    Manage::Pull(max) => self.pull(dialect, entries, max),
                    manage => self.on_shards(entries.into_iter().map(|(shard, local)| {
                        (shard, ControlOp::Manage(dialect, local, manage.clone()))
                    })),
                };
                self.refresh_demand();
                reply
            }
            // Current-message state lives where publications on the
            // topic are ingested: the root's owner shard.
            ControlOp::GetCurrentMessage(ref topic) => {
                let owner = TopicPath::parse(topic.text()).map(|p| shard_of_root(p.root(), n));
                let shards = (0..n).filter(|s| owner.is_none_or(|o| o == *s));
                self.on_shards(shards.map(|s| (s, op.clone())))
            }
            // The registration is the front's, under its own address;
            // every shard's topic space learns the topics.
            ControlOp::RegisterPublisher(r) => {
                for s in shards {
                    s.seed_topics(&r.topics);
                }
                let address = inner.brokered.register(&inner.net, &inner.uri, *r)?;
                self.refresh_demand();
                Ok(Reply::Registered(address))
            }
            ControlOp::CreatePullPoint(v) => inner
                .brokered
                .create_pull_point(&inner.net, &inner.uri, v)
                .map(Reply::PullPoint),
            ControlOp::GetMetrics => Ok(Reply::Metrics(self.metrics_text())),
            ControlOp::GetTrace(true) => Ok(Reply::Trace(inner.obs.drain_spans())),
            ControlOp::GetTrace(false) => Ok(Reply::Trace(self.federation_spans())),
            // Dead letters live on the shards.
            op => self.on_shards((0..n).map(|s| (s, op.clone()))),
        }
    }

    /// Apply each `(shard, op)` and [`merge`] the shards' replies.
    fn on_shards(&self, ops: impl Iterator<Item = (usize, ControlOp)>) -> Result<Reply, Fault> {
        ops.map(|(shard, op)| self.inner.shards[shard].apply(op))
            .reduce(merge)
            .unwrap_or_else(|| Err(Fault::receiver("no shard answered")))
    }

    /// Pull from a subscription's placements in shard order, each with
    /// the budget the earlier ones left, and stop once `max` events are
    /// taken: one Pull returns at most `max` events however many shards
    /// hold some. Replies [`merge`] as in [`Self::on_shards`].
    fn pull(
        &self,
        dialect: SpecDialect,
        placements: Vec<(usize, String)>,
        max: usize,
    ) -> Result<Reply, Fault> {
        let mut merged: Option<Result<Reply, Fault>> = None;
        for (shard, local) in placements {
            let left = match &merged {
                Some(Ok(Reply::Pulled(taken))) if taken.len() >= max => break,
                Some(Ok(Reply::Pulled(taken))) => max - taken.len(),
                _ => max,
            };
            let op = ControlOp::Manage(dialect, local, Manage::Pull(left));
            let reply = self.inner.shards[shard].apply(op);
            merged = Some(match merged {
                Some(m) => merge(m, reply),
                None => reply,
            });
        }
        merged.unwrap_or_else(|| Err(Fault::receiver("no shard answered")))
    }
}

/// Merge two shards' replies: pulled events and dead letters
/// concatenate, redelivery counts add, and otherwise the first answer
/// stands. Faults only when both faulted, with the first fault.
fn merge(a: Result<Reply, Fault>, b: Result<Reply, Fault>) -> Result<Reply, Fault> {
    match (a, b) {
        (Ok(Reply::Pulled(mut a)), Ok(Reply::Pulled(b))) => {
            a.extend(b);
            Ok(Reply::Pulled(a))
        }
        (Ok(Reply::DeadLetters(mut a)), Ok(Reply::DeadLetters(b))) => {
            a.extend(b);
            Ok(Reply::DeadLetters(a))
        }
        (Ok(Reply::Redelivered(a)), Ok(Reply::Redelivered(b))) => Ok(Reply::Redelivered(a + b)),
        (Ok(r), _) | (Err(_), Ok(r)) => Ok(r),
        (Err(f), Err(_)) => Err(f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::WsMessenger;
    use wsm_eventing::{EventSink, SubscribeRequest, Subscriber, WseVersion};
    use wsm_notification::{NotificationConsumer, WsnClient, WsnFilter, WsnSubscribeRequest};

    fn payload(n: u64) -> Element {
        Element::local("event").with_text(format!("e{n}"))
    }

    #[test]
    fn partition_rule_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 8] {
            for root in ["storms", "jobs", "transfers", "compute", "t123"] {
                let s = shard_of_root(root, n);
                assert!(s < n);
                assert_eq!(s, shard_of_root(root, n), "placement must be stable");
            }
        }
        // The hash actually spreads roots at 8 shards.
        let placed: std::collections::HashSet<usize> = (0..64)
            .map(|i| shard_of_root(&format!("t{i}"), 8))
            .collect();
        assert!(placed.len() > 4, "FNV-1a should use most of 8 shards");
    }

    #[test]
    fn wsn_routing_places_concrete_roots_and_broadcasts_residue() {
        let concrete = vec![TopicExpression::concrete("storms/tornado").unwrap()];
        assert_eq!(
            target_shards(&concrete, 4),
            vec![shard_of_root("storms", 4)]
        );
        let union = vec![
            TopicExpression::concrete("storms").unwrap(),
            TopicExpression::concrete("jobs").unwrap(),
        ];
        let t = target_shards(&union, 4);
        assert!(t.contains(&shard_of_root("storms", 4)));
        assert!(t.contains(&shard_of_root("jobs", 4)));
        // Wildcard-rooted and content-only subscriptions replicate.
        let wild = vec![TopicExpression::full("//storms").unwrap()];
        assert_eq!(target_shards(&wild, 4), vec![0, 1, 2, 3]);
        assert_eq!(target_shards(&[], 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn federated_delivery_is_exactly_once() {
        let net = Network::new();
        let fed = FederatedMessenger::start(&net, "http://fed", 4);

        let wsn = NotificationConsumer::start(&net, "http://c-wsn", WsnVersion::V1_3);
        WsnClient::new(&net, WsnVersion::V1_3)
            .subscribe(
                fed.uri(),
                &WsnSubscribeRequest::new(wsn.epr()).with_filter(WsnFilter::topic("storms")),
            )
            .unwrap();
        let wse = EventSink::start(&net, "http://c-wse", WseVersion::Aug2004);
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(fed.uri(), SubscribeRequest::push(wse.epr()))
            .unwrap();

        // Concrete-rooted sub lands on exactly one shard; the WSE sub
        // replicates to all four.
        assert_eq!(fed.subscription_count(), 5);
        assert_eq!(fed.route_entry_count(), 5);

        for i in 0..3 {
            fed.publish_on("storms", &payload(i));
        }
        fed.publish_on("jobs/status", &payload(99));
        fed.publish_raw(&payload(100));

        assert_eq!(wsn.notifications().len(), 3, "topic sub: its topic only");
        assert_eq!(wse.received().len(), 5, "broadcast sub: every event, once");
    }

    /// Subscribes seven times at `uri` (WSN 1.3), then checks that
    /// `minted` answers GetStatus and each of `others` the
    /// unknown-subscription fault, through `apply`.
    fn only_minted_answers(
        net: &Network,
        uri: &str,
        apply: impl Fn(ControlOp) -> Result<Reply, Fault>,
        minted: &str,
        others: &[&str],
    ) {
        let wsn = NotificationConsumer::start(net, "http://c-wsn", WsnVersion::V1_3);
        let client = WsnClient::new(net, WsnVersion::V1_3);
        for _ in 0..7 {
            let request =
                WsnSubscribeRequest::new(wsn.epr()).with_filter(WsnFilter::topic("storms"));
            client.subscribe(uri, &request).unwrap();
        }
        let dialect = SpecDialect::Wsn(WsnVersion::V1_3);
        let status =
            |id: &str| apply(ControlOp::Manage(dialect, id.into(), Manage::GetStatus)).map(|_| ());
        assert!(status(minted).is_ok());
        for &id in others {
            let fault = status(id).expect_err(id);
            let unknown = unknown_subscription(dialect, id);
            assert_eq!(
                (fault.subcode, fault.reason),
                (unknown.subcode, unknown.reason),
                "{id} answers the unknown-subscription fault"
            );
        }
    }

    #[test]
    fn only_the_minted_spelling_of_a_federated_id_names_its_route() {
        let net = Network::new();
        let fed = FederatedMessenger::start(&net, "http://fed", 2);
        let others = [
            "fed-007", "fed-07", "fed-+7", "fed-x", "fed-", "fed-8", "wsm-7", "7",
        ];
        only_minted_answers(&net, fed.uri(), |op| fed.apply(op), "fed-7", &others);
    }

    #[test]
    fn only_the_minted_spelling_of_a_broker_id_names_its_subscription() {
        let net = Network::new();
        let broker = WsMessenger::start(&net, "http://broker");
        let others = [
            "wsm-007", "wsm-07", "wsm-+7", "wsm-x", "wsm-", "wsm-8", "fed-7", "7",
        ];
        only_minted_answers(&net, broker.uri(), |op| broker.apply(op), "wsm-7", &others);
    }

    /// `(publisher, index)` of each received payload, in arrival order.
    fn origins(payloads: impl Iterator<Item = Element>) -> Vec<(usize, usize)> {
        let attr = |e: &Element, name: &str| -> usize { e.attr(name).unwrap().parse().unwrap() };
        payloads.map(|e| (attr(&e, "pub"), attr(&e, "i"))).collect()
    }

    /// `got` is `expected` (sorted) exactly once, each publisher's
    /// events in the order it published them.
    fn assert_exactly_once_in_order(got: &[(usize, usize)], expected: &[(usize, usize)]) {
        let mut sorted = got.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, expected, "every matching event exactly once");
        for p in 0..2 {
            let order: Vec<usize> = got.iter().filter(|o| o.0 == p).map(|o| o.1).collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "{p}: {order:?}");
        }
    }

    /// The racing-publishers scenario of `tests/federation_links.rs`
    /// at a cap of one send in flight: each post first lands the send
    /// before it, and every subscriber still gets each matching event
    /// once, in each publisher's order.
    #[test]
    fn racing_publishers_deliver_exactly_once_in_publisher_order_at_a_cap_of_one() {
        const ROOTS: [&str; 6] = ["storms", "jobs", "transfers", "compute", "t4", "t5"];
        let net = Network::new();
        let fed = FederatedMessenger::start_capped(&net, "http://fed", 4, 1);
        let wse = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(fed.uri(), SubscribeRequest::push(wse.epr()))
            .unwrap();
        let client = WsnClient::new(&net, WsnVersion::V1_3);
        let rooted: Vec<NotificationConsumer> = (ROOTS[..4].iter().enumerate())
            .map(|(i, root)| {
                let c =
                    NotificationConsumer::start(&net, &format!("http://wsn-{i}"), WsnVersion::V1_3);
                let request = WsnSubscribeRequest::new(c.epr()).with_filter(WsnFilter::topic(root));
                client.subscribe(fed.uri(), &request).unwrap();
                c
            })
            .collect();
        net.set_send_delay_us(100);
        let publishers: Vec<_> = (0..2usize)
            .map(|p| {
                let fed = fed.clone();
                std::thread::spawn(move || {
                    (0..300usize)
                        .map(|i| {
                            let root = (i * 7 + p * 3) % ROOTS.len();
                            let event = Element::local("event")
                                .with_attr("pub", p.to_string())
                                .with_attr("i", i.to_string());
                            fed.publish_on(ROOTS[root], &event);
                            assert!(fed.link_queue_depth() <= 1, "the cap holds");
                            root
                        })
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        let roots: Vec<Vec<usize>> = publishers.into_iter().map(|p| p.join().unwrap()).collect();
        net.set_send_delay_us(0);
        let published_on = |want: Option<usize>| -> Vec<(usize, usize)> {
            (roots.iter().enumerate())
                .flat_map(|(p, rs)| rs.iter().enumerate().map(move |(i, r)| (p, i, *r)))
                .filter(|(_, _, r)| want.is_none_or(|w| w == *r))
                .map(|(p, i, _)| (p, i))
                .collect()
        };
        assert_exactly_once_in_order(&origins(wse.received().into_iter()), &published_on(None));
        for (r, c) in rooted.iter().enumerate() {
            let got = origins(c.notifications().into_iter().map(|m| m.message));
            assert_exactly_once_in_order(&got, &published_on(Some(r)));
        }
    }

    /// Publishes each notification it receives on `echo` through the
    /// front, from inside the handler, while the publisher's pipeline
    /// is landing the send that reached it.
    struct Echo(parking_lot::Mutex<Option<FederatedMessenger>>);
    impl wsm_transport::SoapHandler for Echo {
        fn handle(&self, _req: wsm_soap::Envelope) -> Result<Option<wsm_soap::Envelope>, Fault> {
            let front = self.0.lock().clone();
            if let Some(front) = front {
                front.publish_on("echo", &Element::local("echoed"));
            }
            Ok(None)
        }
    }

    #[test]
    fn a_consumer_that_publishes_through_the_front_as_its_send_lands_loses_nothing() {
        let net = Network::new();
        let fed = FederatedMessenger::start(&net, "http://fed", 4);
        let echo = Arc::new(Echo(parking_lot::Mutex::new(Some(fed.clone()))));
        net.register("http://echo", echo.clone());
        let client = WsnClient::new(&net, WsnVersion::V1_3);
        let subscribe = |uri: &str, topic: &str| {
            let epr = wsm_addressing::EndpointReference::new(uri);
            let request = WsnSubscribeRequest::new(epr).with_filter(WsnFilter::topic(topic));
            client.subscribe(fed.uri(), &request).unwrap();
        };
        subscribe("http://echo", "storms");
        let sink = NotificationConsumer::start(&net, "http://sink", WsnVersion::V1_3);
        subscribe("http://sink", "echo");
        net.set_send_delay_us(200);
        for i in 0..20 {
            fed.publish_on("storms", &payload(i));
        }
        fed.flush();
        assert_eq!(
            sink.notifications().len(),
            20,
            "every nested publication landed"
        );
        assert_eq!(fed.link_queue_depth(), 0);
        // At no delay the nested publication lands inside the outer one.
        net.set_send_delay_us(0);
        fed.publish_on("storms", &payload(20));
        assert_eq!(sink.notifications().len(), 21);
        echo.0.lock().take(); // the handler holds the front
    }

    #[test]
    fn a_thread_mixing_front_and_broker_publications_keeps_each_consumers_fifo() {
        let net = Network::new();
        let fed = FederatedMessenger::start(&net, "http://fed", 4);
        let broker = WsMessenger::start(&net, "http://broker");
        let sink = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
        let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
        subscriber
            .subscribe(fed.uri(), SubscribeRequest::push(sink.epr()))
            .unwrap();
        subscriber
            .subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
            .unwrap();
        net.set_send_delay_us(500);
        for i in 0..30 {
            let event = payload(i);
            if i % 3 == 2 {
                // Returns once its own send has landed, and so every
                // earlier posted one too.
                assert_eq!(broker.publish_on("jobs", &event), 1);
                assert_eq!(fed.link_queue_depth(), 0);
            } else {
                fed.publish_on("storms", &event);
            }
        }
        let got: Vec<String> = sink.received().iter().map(|e| e.text()).collect();
        let sent: Vec<String> = (0..30).map(|i| format!("e{i}")).collect();
        assert_eq!(got, sent, "one consumer, one thread: publication order");
    }

    #[test]
    fn management_ops_route_consistently_and_unsubscribe_leaves_no_orphans() {
        let net = Network::new();
        let fed = FederatedMessenger::start(&net, "http://fed", 4);
        let client = WsnClient::new(&net, WsnVersion::V1_3);
        let wsn = NotificationConsumer::start(&net, "http://c-wsn", WsnVersion::V1_3);
        let h = client
            .subscribe(
                fed.uri(),
                &WsnSubscribeRequest::new(wsn.epr()).with_filter(WsnFilter::topic("storms")),
            )
            .unwrap();
        assert!(h.id.starts_with("fed-"), "the front mints federated ids");

        let sub = Subscriber::new(&net, WseVersion::Aug2004);
        let wse = EventSink::start(&net, "http://c-wse", WseVersion::Aug2004);
        let hw = sub
            .subscribe(fed.uri(), SubscribeRequest::push(wse.epr()))
            .unwrap();

        // Renew reaches every placement (a broadcast sub must stay
        // alive on all shards), GetStatus answers, and Unsubscribe
        // removes all placements and the route.
        sub.renew(&hw, Some(wsm_eventing::Expires::Duration(60_000)))
            .unwrap();
        sub.get_status(&hw).unwrap();
        client.unsubscribe(&h).unwrap();
        sub.unsubscribe(&hw).unwrap();
        assert_eq!(fed.subscription_count(), 0, "no orphaned registrations");
        assert_eq!(fed.route_count(), 0);

        // A management call on the dead handle now faults.
        assert!(sub.get_status(&hw).is_err());
    }
}
