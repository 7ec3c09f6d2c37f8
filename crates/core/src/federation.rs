//! Sharded multi-broker federation: a topic-partitioned network of
//! [`WsMessenger`] shards behind one routing front, connected by
//! **pipelined federation links**.
//!
//! The paper's WS-BrokeredNotification discussion (§VI) anticipates
//! *networks* of brokers rather than a single mediator, and the CORBA
//! notification-service lineage it cites survived real control-system
//! load only by federating channels with batched inter-broker traffic.
//! This module reproduces that topology in-process:
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
//! * **Pipelined links.** Each (front → owner shard) link is a
//!   double-buffered batch queue drained by a persistent flusher
//!   thread: publishers *enqueue and return* instead of carrying the
//!   inter-broker hop themselves. Under [`BatchPolicy::Adaptive`] a
//!   link seals a batch when it holds `max` events or when its oldest
//!   event has waited `deadline_ms` of virtual time. All links share one
//!   bound of 1 024 admitted-but-undelivered events: a publisher that
//!   finds it reached seals every pending link and parks until the
//!   flushers make room, so backpressure never drops an event. The
//!   default policy is [`BatchPolicy::Immediate`]: every publication
//!   is delivered synchronously on the publisher's thread, in
//!   publication order, and no flusher threads exist.
//! * **Zero-reparse hop.** A federated batch is handed to the owning
//!   shard as structured [`SharedNotificationMessage`] values — the
//!   `Arc`'d payload subtree crosses the hop without being serialized
//!   or reparsed, and the [`Stage::Federate`] span times exactly the
//!   structured handoff (batch → [`InternalEvent`] conversion);
//!   delivery cost then shows up in the owning shard's own pipeline
//!   stages, where it belongs. Consumer deliveries are byte-identical
//!   to sending the shard the multi-message `Notify` envelope
//!   ([`wsm_notification::WsnCodec::notify_shared`]) a remote broker would receive
//!   (property-tested in `tests/federation_links.rs`).
//! * **Shard autonomy.** Each shard is a full [`WsMessenger`]: its own
//!   registry, staged delivery engine, reliability layer, and WSE↔WSN
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
//! Flusher threads are lazily spawned the first time a buffering
//! [`BatchPolicy`] is installed and then live as long as the process —
//! they are kept alive by the `Network` → handler → federation
//! reference cycle and simply park on a condvar when idle.
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
//! // Pipelined mode: publications buffer per link, persistent flushers
//! // deliver each batch once it holds 64 events or its oldest has waited
//! // 5 virtual ms, and flush() is the barrier that drains every link.
//! fed.set_link_policy(BatchPolicy::Adaptive { min: 2, max: 64, deadline_ms: 5 });
//! for _ in 0..10 {
//!     fed.publish_on("storms", &Element::local("alert"));
//! }
//! fed.flush();
//! assert_eq!(wsn.notifications().len(), 11);
//! assert_eq!(wse.received().len(), 12);
//! ```

use crate::broker::WsMessenger;
use crate::brokered::Brokered;
use crate::control::{unknown_subscription, ControlOp, Endpoint, Manage, Reply, Subscribed};
use crate::detect::SpecDialect;
use crate::event::InternalEvent;
use crate::obs::{BrokerObs, Stage};
use crate::reliability::{FaultTolerance, PumpReport};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use wsm_notification::{SharedNotificationMessage, WsnVersion};
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

/// The dialect a federated hop is accounted as: the batch crosses the
/// link in WSN 1.3 shape, so mediation statistics are what an encoded
/// `Notify` to the owning shard would produce.
const FED_ORIGIN: SpecDialect = SpecDialect::Wsn(WsnVersion::V1_3);

/// When a link seals its pending events into a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// No buffering: every publication is delivered synchronously on
    /// the publisher's thread, in publication order. The default, and
    /// the only policy with no flusher threads.
    Immediate,
    /// Nagle-style sealing: a link seals its pending events once it
    /// holds `max` of them (at least 1), or once the oldest has waited
    /// `deadline_ms` of virtual time. The deadline is checked on each
    /// arrival, so no timer thread exists and runs stay deterministic;
    /// `deadline_ms: u64::MAX` seals after exactly `max` events.
    Adaptive {
        /// Not read by sealing: a batch seals at `max` events.
        min: usize,
        /// Events that seal a batch.
        max: usize,
        /// Max virtual ms an event may wait before its batch seals.
        deadline_ms: u64,
    },
}

impl BatchPolicy {
    /// Whether a link holding `pending` events, the oldest of which has
    /// waited `waited_ms`, seals them now. `Immediate` always seals: a
    /// publisher that saw buffering on just before the policy switched
    /// back still hands its event to a flusher.
    fn seals(self, pending: usize, waited_ms: u64) -> bool {
        match self {
            BatchPolicy::Immediate => true,
            BatchPolicy::Adaptive {
                max, deadline_ms, ..
            } => pending >= max.max(1) || waited_ms >= deadline_ms,
        }
    }
}

/// Admitted-but-undelivered events the links hold between them before
/// a publisher parks.
const LINK_CAPACITY: usize = 1024;

/// One inter-shard link's double-buffered batch queue.
struct LinkQueue {
    /// Events accumulating toward the next seal.
    pending: Vec<SharedNotificationMessage>,
    /// The recycled buffer `pending` swaps to at seal time, returned
    /// here by the flusher after delivery — steady state allocates no
    /// new batch vectors.
    spare: Vec<SharedNotificationMessage>,
    /// Sealed batches awaiting a flusher.
    sealed: VecDeque<Vec<SharedNotificationMessage>>,
    /// Virtual arrival time of the oldest pending event (deadline
    /// sealing); meaningless while `pending` is empty.
    oldest_ms: u64,
}

impl LinkQueue {
    fn new() -> Self {
        LinkQueue {
            pending: Vec::new(),
            spare: Vec::new(),
            sealed: VecDeque::new(),
            oldest_ms: 0,
        }
    }
}

/// Everything the link hub guards under one lock: per-link queues and
/// the shared accounting the condvars wait on.
struct HubState {
    links: Vec<LinkQueue>,
    /// Events admitted but not yet delivered (pending, sealed or in a
    /// flusher's hands), bounded by [`LINK_CAPACITY`]. A batch leaves
    /// it only once delivered, and no sealed batch is empty, so
    /// `queued == 0` means no batch is in flight either.
    queued: usize,
    policy: BatchPolicy,
    flushers_running: bool,
}

/// Shared context of the link hub: the hub state plus everything a
/// flusher needs to deliver a batch without the lock.
struct LinkCtx {
    state: Mutex<HubState>,
    /// Signals flushers: a batch was sealed.
    work: Condvar,
    /// Signals parked publishers: a batch was delivered, room exists.
    room: Condvar,
    /// Signals `flush()` barriers: the hub may have drained.
    idle: Condvar,
    net: Network,
    shards: Vec<WsMessenger>,
    /// The front's own observability: `Stage::Federate` hop spans and
    /// `Stage::FederateEnqueue` publisher-side spans.
    obs: BrokerObs,
    /// Fast-path dispatch flag: false ⇔ policy is `Immediate`.
    buffering: AtomicBool,
    /// Set from `HubState::queued` at scrape time only.
    queue_depth: Arc<wsm_obs::Gauge>,
    flush_size: Arc<wsm_obs::Histogram>,
}

/// Seal `shard`'s pending events into one batch (double-buffer swap:
/// `pending` becomes the recycled `spare`). Returns the sealed count.
fn seal_link(state: &mut HubState, shard: usize) -> usize {
    let lq = &mut state.links[shard];
    if lq.pending.is_empty() {
        return 0;
    }
    let batch = std::mem::replace(&mut lq.pending, std::mem::take(&mut lq.spare));
    let n = batch.len();
    lq.sealed.push_back(batch);
    n
}

/// The one inter-shard hop: hand a batch to its owning shard, with no
/// hub lock held — a sealed batch in flusher context, or a batch of one
/// on the publisher's thread (the `Immediate` policy). Returns the
/// emptied vector so the flusher can recycle it as the link's spare
/// buffer.
fn deliver_batch(
    ctx: &LinkCtx,
    shard: usize,
    mut batch: Vec<SharedNotificationMessage>,
) -> Vec<SharedNotificationMessage> {
    let n = batch.len() as u64;
    if n == 0 {
        return batch;
    }
    let seq = ctx.obs.next_seq();
    ctx.flush_size.record(n);
    let timer = ctx.obs.start();
    let events: Vec<InternalEvent> = batch
        .drain(..)
        .map(|m| InternalEvent::from_shared_notification(m, FED_ORIGIN))
        .collect();
    // The Federate span covers exactly the structured handoff; the
    // shard's own pipeline stages time the delivery that follows.
    ctx.obs
        .stage(Stage::Federate, seq, timer, ctx.net.clock().now_ms(), n);
    for ev in events {
        ctx.shards[shard].publish_event(ev);
    }
    batch
}

/// One persistent flusher. `home` is the link it prefers; when home has
/// no sealed batch it *steals* the next sealed batch from any other
/// link (scan order `(home + k) % n`), so a hot shard's backlog is
/// drained by every idle flusher, not just its own.
fn flusher_loop(ctx: Arc<LinkCtx>, home: usize) {
    let n = ctx.shards.len();
    let mut state = ctx.state.lock();
    loop {
        let mut found = None;
        for k in 0..n {
            let i = (home + k) % n;
            if let Some(batch) = state.links[i].sealed.pop_front() {
                found = Some((i, batch));
                break;
            }
        }
        let Some((shard, batch)) = found else {
            ctx.work.wait(&mut state);
            continue;
        };
        drop(state);
        let delivered = batch.len();
        let empty = deliver_batch(&ctx, shard, batch);
        state = ctx.state.lock();
        state.queued -= delivered;
        let lq = &mut state.links[shard];
        if lq.spare.capacity() < empty.capacity() {
            lq.spare = empty;
        }
        ctx.room.notify_all();
        if state.queued == 0 {
            ctx.idle.notify_all();
        }
    }
}

struct FederationInner {
    uri: String,
    manager_uri: String,
    /// Federated id → the `(shard, local id)` placements behind it. The
    /// front mints `fed-{n}` ids so a subscriber holds one handle however
    /// many shards back it.
    routes: Mutex<HashMap<String, Vec<(usize, String)>>>,
    next_id: AtomicU64,
    /// Round-robin cursor for topicless publications.
    round_robin: AtomicUsize,
    /// Publishers registered at the front, and its PullPoints.
    brokered: Brokered,
    /// The link hub: shards, queues, flusher coordination.
    ctx: Arc<LinkCtx>,
}

/// The routing front of a sharded broker federation.
///
/// Cloneable handle, like [`WsMessenger`]. See the module docs for the
/// partitioning, link-pipelining and exactly-once rules.
#[derive(Clone)]
pub struct FederatedMessenger {
    inner: Arc<FederationInner>,
}

impl FederatedMessenger {
    /// Start a federation of `shards` broker shards (clamped to ≥ 1)
    /// behind a routing front at `uri`. Shard `i` is a full
    /// [`WsMessenger`] at `{uri}/shard-{i}`; the front's subscription
    /// manager answers at `{uri}/subscriptions`.
    pub fn start(net: &Network, uri: &str, shards: usize) -> Self {
        let n = shards.max(1);
        let shard_brokers: Vec<WsMessenger> = (0..n)
            .map(|i| WsMessenger::start(net, &format!("{uri}/shard-{i}")))
            .collect();
        let obs = BrokerObs::new();
        let (queue_depth, flush_size) = {
            let r = obs.registry();
            r.describe(
                "wsm_fed_link_queue_depth",
                "Events buffered across federation link queues (admitted, not yet delivered).",
            );
            r.describe(
                "wsm_fed_flush_size",
                "Events per federation link flush (batch size at delivery).",
            );
            (
                r.gauge("wsm_fed_link_queue_depth"),
                r.histogram_with("wsm_fed_flush_size", || {
                    vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
                }),
            )
        };
        let ctx = Arc::new(LinkCtx {
            state: Mutex::new(HubState {
                links: (0..n).map(|_| LinkQueue::new()).collect(),
                queued: 0,
                policy: BatchPolicy::Immediate,
                flushers_running: false,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            idle: Condvar::new(),
            net: net.clone(),
            shards: shard_brokers,
            obs,
            buffering: AtomicBool::new(false),
            queue_depth,
            flush_size,
        });
        let front = FederatedMessenger {
            inner: Arc::new(FederationInner {
                uri: uri.to_string(),
                manager_uri: format!("{uri}/subscriptions"),
                routes: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(0),
                round_robin: AtomicUsize::new(0),
                brokered: Brokered::default(),
                ctx,
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
        &self.inner.ctx.shards
    }

    /// Which shard owns publications on `topic` — the partition rule,
    /// exposed so benches can pre-place direct registry insertions
    /// exactly where a routed subscription would land.
    pub fn shard_for_topic(&self, topic: &str) -> usize {
        match TopicPath::parse(topic) {
            Some(p) => shard_of_root(p.root(), self.inner.ctx.shards.len()),
            None => 0,
        }
    }

    /// Live subscriptions summed across shards. A broadcast
    /// subscription counts once per shard it is replicated to.
    pub fn subscription_count(&self) -> usize {
        self.inner
            .ctx
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
        self.inner.routes.lock().values().map(Vec::len).sum()
    }

    /// Spawn the persistent flushers (one per link) if they are not
    /// already running. Called before any buffering policy becomes
    /// visible to publishers, so an enqueued event always has a
    /// consumer.
    fn ensure_flushers(&self) {
        let ctx = &self.inner.ctx;
        let mut state = ctx.state.lock();
        if state.flushers_running {
            return;
        }
        state.flushers_running = true;
        for i in 0..ctx.shards.len() {
            let ctx = Arc::clone(ctx);
            std::thread::Builder::new()
                .name(format!("wsm-fed-{i}"))
                .spawn(move || flusher_loop(ctx, i))
                .expect("spawn federation flusher");
        }
    }

    /// Install the batch policy on every link. Switching to a buffering
    /// policy lazily spawns the persistent flushers; switching back to
    /// [`BatchPolicy::Immediate`] drains whatever is queued first.
    pub fn set_link_policy(&self, policy: BatchPolicy) {
        let ctx = &self.inner.ctx;
        let buffering = !matches!(policy, BatchPolicy::Immediate);
        if buffering {
            self.ensure_flushers();
        }
        ctx.state.lock().policy = policy;
        ctx.buffering.store(buffering, Ordering::Relaxed);
        if !buffering {
            self.flush();
        }
    }

    /// Events admitted to the link queues and not yet delivered.
    pub fn link_queue_depth(&self) -> usize {
        self.inner.ctx.state.lock().queued
    }

    /// Events publishers delivered around a full link queue: always 0,
    /// because a publisher that finds the queue full parks and nothing
    /// sheds.
    pub fn shed_events(&self) -> u64 {
        0
    }

    /// Publish an event on a topic through the federation.
    ///
    /// Under [`BatchPolicy::Immediate`] (the default) the event is
    /// delivered synchronously and this returns 1. Under a buffering
    /// policy the event is enqueued on its owner link and the return
    /// value is the number of events *sealed* into a batch by this call
    /// (0 while the batch is still filling — the persistent flushers
    /// deliver it asynchronously). Unlike [`WsMessenger::publish_on`],
    /// the return value counts federated *events*, not per-subscriber
    /// deliveries — those happen inside the owning shard.
    pub fn publish_on(&self, topic: &str, payload: &Element) -> usize {
        self.publish_event(InternalEvent::on_topic(topic, payload.clone()))
    }

    /// Publish a topicless event (round-robined across shards, since
    /// only broadcast-replicated subscriptions can match it).
    pub fn publish_raw(&self, payload: &Element) -> usize {
        self.publish_event(InternalEvent::raw(payload.clone()))
    }

    /// Publish a fully-specified internal event (see
    /// [`Self::publish_on`] for the buffering contract).
    pub fn publish_event(&self, event: InternalEvent) -> usize {
        let inner = &self.inner;
        let ctx = &inner.ctx;
        let shard = match &event.topic {
            Some(t) => shard_of_root(t.root(), ctx.shards.len()),
            None => inner.round_robin.fetch_add(1, Ordering::Relaxed) % ctx.shards.len(),
        };
        let msg = SharedNotificationMessage::new(event.topic, event.producer, event.payload);
        if !ctx.buffering.load(Ordering::Relaxed) {
            deliver_batch(ctx, shard, vec![msg]);
            return 1;
        }
        self.enqueue_buffered(shard, msg)
    }

    /// The buffered publish path: admit under the queue bound (parking
    /// while it is reached), push onto the owner link, seal when the
    /// policy says so. The whole publisher-side cost — including any
    /// time parked on backpressure — is one `Stage::FederateEnqueue`
    /// span.
    fn enqueue_buffered(&self, shard: usize, msg: SharedNotificationMessage) -> usize {
        let ctx = &self.inner.ctx;
        let seq = ctx.obs.next_seq();
        let timer = ctx.obs.start();
        let mut state = ctx.state.lock();
        while state.queued >= LINK_CAPACITY {
            // A full queue overrides the seal rule: seal everything
            // pending so the flushers can make room, then wait for them.
            // This guarantees progress even when no link would seal yet.
            let mut sealed_any = false;
            for i in 0..state.links.len() {
                sealed_any |= seal_link(&mut state, i) > 0;
            }
            if sealed_any {
                ctx.work.notify_all();
            }
            ctx.room.wait(&mut state);
        }
        let now = ctx.net.clock().now_ms();
        let policy = state.policy;
        let lq = &mut state.links[shard];
        if lq.pending.is_empty() {
            lq.oldest_ms = now;
        }
        lq.pending.push(msg);
        state.queued += 1;
        let lq = &state.links[shard];
        let sealed = if policy.seals(lq.pending.len(), now.saturating_sub(lq.oldest_ms)) {
            let n = seal_link(&mut state, shard);
            ctx.work.notify_one();
            n
        } else {
            0
        };
        drop(state);
        ctx.obs.stage(
            Stage::FederateEnqueue,
            seq,
            timer,
            ctx.net.clock().now_ms(),
            1,
        );
        sealed
    }

    /// Drain the links: seal everything pending, wake every flusher,
    /// and wait until all admitted events are delivered (including
    /// batches already in flight). Returns the number of events that
    /// were still queued when the flush began; under
    /// [`BatchPolicy::Immediate`] nothing ever queues, so this
    /// returns 0.
    pub fn flush(&self) -> usize {
        let ctx = &self.inner.ctx;
        let mut state = ctx.state.lock();
        let total = state.queued;
        if total == 0 {
            return 0;
        }
        for i in 0..state.links.len() {
            seal_link(&mut state, i);
        }
        if state.queued > 0 {
            ctx.work.notify_all();
        }
        while state.queued > 0 {
            ctx.idle.wait(&mut state);
        }
        total
    }

    /// Flush wrapped-mode consumer buffers on every shard; returns
    /// batches sent.
    pub fn flush_wrapped(&self) -> usize {
        self.inner
            .ctx
            .shards
            .iter()
            .map(|s| s.flush_wrapped())
            .sum()
    }

    /// Set the push fan-out worker count on every shard.
    pub fn set_fanout_workers(&self, workers: usize) {
        for s in &self.inner.ctx.shards {
            s.set_fanout_workers(workers);
        }
    }

    /// Switch fault-tolerant delivery on or off on every shard.
    pub fn set_fault_tolerance(&self, config: Option<FaultTolerance>) {
        for s in &self.inner.ctx.shards {
            s.set_fault_tolerance(config.clone());
        }
    }

    /// Observability kill-switch for the front's federation spans and
    /// every shard's pipeline obs.
    pub fn set_obs_enabled(&self, on: bool) {
        self.inner.ctx.obs.set_enabled(on);
        for s in &self.inner.ctx.shards {
            s.set_obs_enabled(on);
        }
    }

    /// Drain every shard's redelivery queue within `horizon_ms`.
    pub fn drain_redeliveries(&self, horizon_ms: u64) -> PumpReport {
        let mut total = PumpReport::default();
        for s in &self.inner.ctx.shards {
            total.absorb(s.drain_redeliveries(horizon_ms));
        }
        total
    }

    /// Dead letters summed across shards.
    pub fn dead_letter_count(&self) -> usize {
        self.inner
            .ctx
            .shards
            .iter()
            .map(|s| s.dead_letter_count())
            .sum()
    }

    /// The front's own span snapshot: the [`Stage::Federate`] hops and
    /// [`Stage::FederateEnqueue`] publisher-side enqueues.
    pub fn federation_spans(&self) -> Vec<crate::obs::SpanRecord> {
        self.inner.ctx.obs.spans()
    }

    /// Aggregate statistics of the front's obs (only the `federate` /
    /// `federate_enqueue` stages accumulate here; per-shard pipelines
    /// report on the shards themselves).
    pub fn federation_snapshot(&self) -> crate::obs::ObsSnapshot {
        self.inner.ctx.obs.snapshot()
    }

    /// Prometheus-style text exposition of the front's federation
    /// metrics: the `federate` / `federate_enqueue` stage histograms,
    /// the link queue-depth gauge (refreshed at scrape time) and the
    /// per-flush batch-size histogram. Per-shard pipeline metrics come
    /// from each shard's own [`WsMessenger::metrics_text`].
    pub fn metrics_text(&self) -> String {
        let ctx = &self.inner.ctx;
        ctx.queue_depth.set(ctx.state.lock().queued as i64);
        ctx.obs.prometheus()
    }

    /// Install declarative latency objectives on every shard's SLO
    /// engine (replacing any previous set).
    pub fn set_slos(&self, specs: Vec<crate::obs::SloSpec>) {
        for s in &self.inner.ctx.shards {
            s.set_slos(specs.clone());
        }
    }

    /// Evaluate every installed objective on every shard, concatenated
    /// in shard order.
    pub fn slo_reports(&self) -> Vec<crate::obs::SloReport> {
        self.inner
            .ctx
            .shards
            .iter()
            .flat_map(|s| s.slo_reports())
            .collect()
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
        let ctx = &self.inner.ctx;
        self.inner.brokered.refresh(&ctx.net, |topics| {
            ctx.shards.iter().any(|s| s.wants(topics))
        });
    }

    /// Apply one decoded control operation: place it on the shards that
    /// hold its state, apply it there under each shard's own id, and
    /// merge what they reply. The front's own metrics and trace answer
    /// `wsm:GetMetrics` and `wsm:GetTrace`; publisher registration and
    /// PullPoints are the front's own too.
    pub(crate) fn apply(&self, op: ControlOp) -> Result<Reply, Fault> {
        let inner = &self.inner;
        let shards = &inner.ctx.shards;
        let n = shards.len();
        match op {
            // Placed on every shard it needs, under one federated id.
            ControlOp::Subscribe(s) => {
                let targets = target_shards(&s.filters.topics, n);
                let (&last, rest) = targets.split_last().expect("a subscription has a shard");
                let mut entries = Vec::with_capacity(targets.len());
                for &i in rest {
                    entries.push((i, shards[i].subscribe(s.as_ref().clone()).id));
                }
                let placed = shards[last].subscribe(*s);
                entries.push((last, placed.id));
                let id = format!("fed-{}", inner.next_id.fetch_add(1, Ordering::Relaxed) + 1);
                inner.routes.lock().insert(id.clone(), entries);
                self.refresh_demand();
                let manager = inner.manager_uri.clone();
                Ok(Reply::Subscribed(Subscribed {
                    manager,
                    id,
                    ..placed
                }))
            }
            ControlOp::Manage(dialect, id, manage) => {
                let mut routes = inner.routes.lock();
                // Unsubscribe and Destroy end the route with its placements.
                let entries = match manage {
                    Manage::End(_) => routes.remove(&id),
                    _ => routes.get(&id).cloned(),
                };
                drop(routes);
                let entries = entries.ok_or_else(|| unknown_subscription(dialect, &id))?;
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
                let address = inner.brokered.register(&inner.ctx.net, &inner.uri, *r)?;
                self.refresh_demand();
                Ok(Reply::Registered(address))
            }
            ControlOp::CreatePullPoint(v) => inner
                .brokered
                .create_pull_point(&inner.ctx.net, &inner.uri, v)
                .map(Reply::PullPoint),
            ControlOp::GetMetrics => Ok(Reply::Metrics(self.metrics_text())),
            ControlOp::GetTrace(true) => Ok(Reply::Trace(inner.ctx.obs.drain_spans())),
            ControlOp::GetTrace(false) => Ok(Reply::Trace(self.federation_spans())),
            // Dead letters live on the shards.
            op => self.on_shards((0..n).map(|s| (s, op.clone()))),
        }
    }

    /// Apply each `(shard, op)` and [`merge`] the shards' replies.
    fn on_shards(&self, ops: impl Iterator<Item = (usize, ControlOp)>) -> Result<Reply, Fault> {
        ops.map(|(shard, op)| self.inner.ctx.shards[shard].apply(op))
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
            let reply = self.inner.ctx.shards[shard].apply(op);
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

    #[test]
    fn in_process_batching_amortizes_hops() {
        let net = Network::new();
        let fed = FederatedMessenger::start(&net, "http://fed", 2);
        fed.set_obs_enabled(true);
        let wse = EventSink::start(&net, "http://c", WseVersion::Aug2004);
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(fed.uri(), SubscribeRequest::push(wse.epr()))
            .unwrap();

        fed.set_link_policy(BatchPolicy::Adaptive {
            min: 8,
            max: 8,
            deadline_ms: u64::MAX,
        });
        let mut flushed = 0;
        for i in 0..6 {
            flushed += fed.publish_on("storms", &payload(i));
        }
        assert_eq!(flushed, 0, "below the batch target nothing seals");
        assert_eq!(fed.link_queue_depth(), 6, "all six buffered on the link");
        assert_eq!(wse.received().len(), 0);
        assert_eq!(fed.flush(), 6);
        assert_eq!(fed.link_queue_depth(), 0, "flush drains the link");
        assert_eq!(wse.received().len(), 6);

        let spans = fed.federation_spans();
        let federate: Vec<_> = spans
            .iter()
            .filter(|s| s.stage == crate::obs::Stage::Federate)
            .collect();
        assert_eq!(federate.len(), 1, "one hop for the whole batch");
        assert_eq!(federate[0].items, 6, "items carries the batch size");
        let enqueues = spans
            .iter()
            .filter(|s| s.stage == crate::obs::Stage::FederateEnqueue)
            .count();
        assert_eq!(enqueues, 6, "each buffered publish records an enqueue");
    }

    #[test]
    fn pinned_policy_seals_and_delivers_at_target() {
        let net = Network::new();
        let fed = FederatedMessenger::start(&net, "http://fed", 2);
        let wse = EventSink::start(&net, "http://c", WseVersion::Aug2004);
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(fed.uri(), SubscribeRequest::push(wse.epr()))
            .unwrap();

        fed.set_link_policy(BatchPolicy::Adaptive {
            min: 4,
            max: 4,
            deadline_ms: u64::MAX,
        });
        let mut sealed = 0;
        for i in 0..4 {
            sealed += fed.publish_on("storms", &payload(i));
        }
        assert_eq!(sealed, 4, "the fourth publish seals the batch");
        fed.flush();
        assert_eq!(wse.received().len(), 4);
        // Back to Immediate: delivery is synchronous again.
        fed.set_link_policy(BatchPolicy::Immediate);
        assert_eq!(fed.publish_on("storms", &payload(9)), 1);
        assert_eq!(wse.received().len(), 5);
    }

    #[test]
    fn adaptive_deadline_seals_partial_batches() {
        let net = Network::new();
        let fed = FederatedMessenger::start(&net, "http://fed", 1);
        fed.set_obs_enabled(true);
        let wse = EventSink::start(&net, "http://c", WseVersion::Aug2004);
        Subscriber::new(&net, WseVersion::Aug2004)
            .subscribe(fed.uri(), SubscribeRequest::push(wse.epr()))
            .unwrap();

        fed.set_link_policy(BatchPolicy::Adaptive {
            min: 2,
            max: 64,
            deadline_ms: 5,
        });
        // Arrivals 2 virtual ms apart: far below `max`, but at the
        // fourth arrival the oldest event has waited 6 ms ≥ the 5 ms
        // deadline, so the batch seals at 4.
        let mut sealed = 0;
        for i in 0..4 {
            sealed += fed.publish_on("storms", &payload(i));
            net.clock().advance_ms(2);
        }
        assert_eq!(sealed, 4, "the deadline seals a partial batch");
        fed.flush();
        assert_eq!(wse.received().len(), 4);

        let federate: Vec<_> = fed
            .federation_spans()
            .into_iter()
            .filter(|s| s.stage == crate::obs::Stage::Federate)
            .collect();
        assert_eq!(federate.len(), 1, "deadline sealing made one hop");
        assert_eq!(federate[0].items, 4);
    }
}
