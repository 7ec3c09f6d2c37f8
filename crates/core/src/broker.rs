//! The WS-Messenger broker itself.
//!
//! Publications arrive in process ([`WsMessenger::publish_event`]) or
//! over SOAP, and fan out through the registry, the render cache and
//! the delivery engine. Every SOAP request — at the broker URI or the
//! subscription manager's — enters through the control plane's one
//! endpoint (`crate::control`), which hands publications to ingest and
//! every management request, decoded once, to `WsMessenger::apply`:
//! the one place the broker's registry is changed on a subscriber's
//! behalf.
//!
//! The registry holds match state only. Every event the broker holds
//! for a subscriber — pull queue, wrapped buffer, push retry — waits in
//! that subscription's outbox (`crate::outbox`), kept beside the
//! registry behind one lock, and a subscription leaves through one
//! function, `retire`, which resolves whatever its outbox still held.

use crate::backend::{InMemoryBackend, MessagingBackend};
use crate::brokered::Brokered;
use crate::control::{
    unknown_subscription, ControlOp, Endpoint, Manage, OpKind, Reply, Subscribed, Subscription,
};
use crate::delivery::{self, FailKind, Fates, PushJob, Return, Settle, StatsDelta};
use crate::detect::SpecDialect;
use crate::event::InternalEvent;
use crate::obs::{BrokerObs, Outcome, Stage};
use crate::outbox::{self, Held, Outboxes, Queued};
use crate::registry::{BrokerDeliveryMode, BrokerSubscription, Registry};
use crate::reliability::{
    BreakerState, DeadLetter, FaultTolerance, PumpEvent, PumpEventKind, PumpReport,
};
use crate::render::{render_batch, render_notification_cached, RenderCache};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use wsm_eventing::{EndStatus, Expires, WseCodec};
use wsm_obs::{Counter, MetricsRegistry};
use wsm_soap::Fault;
use wsm_topics::{TopicExpression, TopicPath, TopicSpace};
use wsm_transport::{AttemptClass, Network};
use wsm_xml::{Element, SharedElement};

/// Counters describing the broker's mediation activity: a snapshot of
/// the broker's one ledger, each field of which is also exposed as a
/// `wsm_*_total` line of [`WsMessenger::metrics_text`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediationStats {
    /// Publications ingested.
    pub published: u64,
    /// Notifications delivered to WS-Eventing consumers.
    pub delivered_wse: u64,
    /// Notifications delivered to WS-Notification consumers.
    pub delivered_wsn: u64,
    /// Deliveries whose inbound dialect family differed from the
    /// consumer's — the mediated traffic.
    pub mediated: u64,
    /// Deliveries that failed for good: in legacy mode the
    /// subscription was dropped, in fault-tolerant mode the message
    /// was dead-lettered.
    pub failed: u64,
    /// Failed redelivery attempts: held events the redelivery pump
    /// tried and could not deliver (each then requeued or
    /// dead-lettered). A first-round send is never retried in line.
    pub retried: u64,
    /// Successful deliveries that came off the redelivery queue.
    pub redelivered: u64,
    /// Messages moved to the dead-letter store.
    pub dead_lettered: u64,
}

/// The broker's one ledger: a counter per [`MediationStats`] field,
/// registered in the broker's metrics registry, so `stats()` and the
/// `wsm_*_total` exposition lines read the same cells. Each is one
/// relaxed atomic: a snapshot never blocks a publishing thread, and the
/// observability kill switch never stops a count.
struct Ledger {
    published: Arc<Counter>,
    delivered_wse: Arc<Counter>,
    delivered_wsn: Arc<Counter>,
    mediated: Arc<Counter>,
    failed: Arc<Counter>,
    retried: Arc<Counter>,
    redelivered: Arc<Counter>,
    dead_lettered: Arc<Counter>,
}

impl Ledger {
    fn new(registry: &MetricsRegistry) -> Self {
        let counter = |name: &str, help: &str| {
            registry.describe(name, help);
            registry.counter(name)
        };
        Ledger {
            published: counter("wsm_published_total", "Publications ingested."),
            delivered_wse: counter(
                "wsm_delivered_wse_total",
                "Push deliveries to WS-Eventing consumers, first-round and redelivered.",
            ),
            delivered_wsn: counter(
                "wsm_delivered_wsn_total",
                "Push deliveries to WS-Notification consumers, first-round and redelivered.",
            ),
            mediated: counter(
                "wsm_mediated_total",
                "Deliveries that crossed specification families.",
            ),
            failed: counter("wsm_failed_total", "Push deliveries that failed for good."),
            retried: counter("wsm_retried_total", "Failed redelivery attempts."),
            redelivered: counter(
                "wsm_redelivered_total",
                "Successful deliveries that came off the redelivery queue.",
            ),
            dead_lettered: counter(
                "wsm_dead_letters_total",
                "Messages moved to the dead-letter store.",
            ),
        }
    }

    /// Book one batch of delivery outcomes, a fan-out's or a pump
    /// pass's.
    fn book(&self, delta: &StatsDelta) {
        self.delivered_wse.add(delta.delivered_wse);
        self.delivered_wsn.add(delta.delivered_wsn);
        self.mediated.add(delta.mediated);
        self.failed.add(delta.failed);
        self.retried.add(delta.retried);
        self.redelivered.add(delta.redelivered);
        self.dead_lettered.add(delta.dead_lettered);
    }

    fn snapshot(&self) -> MediationStats {
        MediationStats {
            published: self.published.get(),
            delivered_wse: self.delivered_wse.get(),
            delivered_wsn: self.delivered_wsn.get(),
            mediated: self.mediated.get(),
            failed: self.failed.get(),
            retried: self.retried.get(),
            redelivered: self.redelivered.get(),
            dead_lettered: self.dead_lettered.get(),
        }
    }
}

struct MessengerInner {
    net: Network,
    uri: String,
    manager_uri: String,
    registry: Registry,
    backend: Arc<dyn MessagingBackend>,
    topic_space: Mutex<TopicSpace>,
    /// The last payload published on each concrete topic, for
    /// `GetCurrentMessage`.
    current: Mutex<HashMap<TopicPath, Arc<SharedElement>>>,
    /// The ProducerProperties document, copy-on-write: `set_property`
    /// edits through `Arc::make_mut`, so a publication holding the
    /// previous document keeps it and each publication takes a
    /// reference rather than a copy.
    properties: Mutex<Arc<Element>>,
    ledger: Ledger,
    obs: BrokerObs,
    brokered: Brokered,
    /// Every subscription's held events, the fault-tolerance config
    /// and the dead-letter store. Taken before the registry's lock,
    /// never after it (`crate::outbox`, "The race rule").
    outboxes: Mutex<Outboxes>,
}

/// The dual-specification mediation broker (paper §VII).
#[derive(Clone)]
pub struct WsMessenger {
    inner: Arc<MessengerInner>,
}

impl WsMessenger {
    /// Start a broker with the default in-memory backend.
    pub fn start(net: &Network, uri: &str) -> Self {
        Self::start_with_backend(net, uri, Arc::new(InMemoryBackend::new()))
    }

    /// Start a broker over an explicit pub/sub backend (e.g.
    /// [`crate::backend::JmsBackend`] wrapping a JMS provider).
    pub fn start_with_backend(
        net: &Network,
        uri: &str,
        backend: Arc<dyn MessagingBackend>,
    ) -> Self {
        let obs = BrokerObs::new();
        let inner = Arc::new(MessengerInner {
            net: net.clone(),
            uri: uri.to_string(),
            manager_uri: format!("{uri}/subscriptions"),
            registry: Registry::new(),
            backend,
            topic_space: Mutex::new(TopicSpace::new()),
            current: Mutex::new(HashMap::new()),
            properties: Mutex::new(Arc::new(Element::local("ProducerProperties"))),
            ledger: Ledger::new(obs.registry()),
            obs,
            brokered: Brokered::default(),
            outboxes: Mutex::new(Outboxes::default()),
        });
        let broker = WsMessenger { inner };
        let endpoint = Arc::new(Endpoint::Broker(broker.clone()));
        net.register(uri, endpoint.clone());
        net.register(broker.inner.manager_uri.clone(), endpoint);
        broker
    }

    /// The broker endpoint URI.
    pub fn uri(&self) -> &str {
        &self.inner.uri
    }

    /// The subscription-manager endpoint URI.
    pub fn manager_uri(&self) -> &str {
        &self.inner.manager_uri
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.inner.registry.len()
    }

    /// Direct access to the subscription registry. Million-subscriber
    /// benches seed populations here, skipping the SOAP `Subscribe`
    /// round-trip that would dominate setup at that scale.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Number of registered publishers.
    pub fn publisher_registration_count(&self) -> u64 {
        self.inner.brokered.registrations()
    }

    /// Mediation statistics so far: the ledger's counters, the cells
    /// the `wsm_*_total` exposition lines read (a lock-free snapshot;
    /// never blocks a publishing thread).
    pub fn stats(&self) -> MediationStats {
        self.inner.ledger.snapshot()
    }

    /// Runtime observability kill-switch: `false` stops the stage
    /// timers, the histograms and the span ring without recompiling.
    /// It never stops a count: [`WsMessenger::stats`] and every
    /// `*_total` counter keep moving.
    pub fn set_obs_enabled(&self, on: bool) {
        self.inner.obs.set_enabled(on);
    }

    /// Does nothing; kept because `benchmark/` calls it. There is one
    /// fan-out: the publisher posts every send of a publication and
    /// lands each itself, so on a network with a send delay
    /// ([`Network::set_send_delay_us`]) a publication waits about one
    /// delay whatever `workers` says (see `crate::delivery`).
    pub fn set_fanout_workers(&self, workers: usize) {
        let _ = workers;
    }

    /// Switch fault-tolerant delivery on (`Some(config)`) or back to
    /// the seed's drop-on-failure semantics (`None`).
    ///
    /// With fault tolerance on, a failed push never evicts the
    /// subscription. The message re-enqueues with exponential backoff
    /// and deterministic seeded jitter (transient failures) until
    /// [`FaultTolerance::max_redeliveries`], a circuit breaker per
    /// subscriber sheds load from endpoints that keep failing, and
    /// messages that exhaust their budget — or provoke
    /// [`FaultTolerance::poison_budget`] SOAP-fault responses — land
    /// in the dead-letter store ([`WsMessenger::dead_letters`],
    /// queryable over SOAP via `wsm:GetDeadLetters`).
    ///
    /// A new config replaces the policy only: held retries and dead
    /// letters stay. Switching off resolves every held retry expired
    /// and keeps the dead letters listed.
    pub fn set_fault_tolerance(&self, config: Option<FaultTolerance>) {
        let released = self.inner.outboxes.lock().configure(config);
        for (id, held) in released {
            resolve_held(&self.inner, &id, &[held], Outcome::Expired);
        }
    }

    /// Attempt every due redelivery at the current virtual time.
    /// Returns what the pass did. A no-op (empty report) when fault
    /// tolerance is off or nothing is due.
    pub fn pump_redeliveries(&self) -> PumpReport {
        pump(&self.inner).unwrap_or_default()
    }

    /// Drain the redelivery queue by advancing the virtual clock to
    /// each due time within `horizon_ms` of now and pumping, until the
    /// queue is empty, every breaker holds, or the horizon passes.
    /// Returns the accumulated outcomes.
    pub fn drain_redeliveries(&self, horizon_ms: u64) -> PumpReport {
        let mut total = PumpReport::default();
        let deadline = self.inner.net.clock().now_ms().saturating_add(horizon_ms);
        loop {
            let due = self.inner.outboxes.lock().next_due_ms();
            match due {
                Some(due) if due <= deadline => self.inner.net.clock().set_ms(due),
                _ => return total,
            }
            total.absorb(self.pump_redeliveries());
        }
    }

    /// Messages waiting in the redelivery queue.
    pub fn redelivery_depth(&self) -> usize {
        self.inner.outboxes.lock().depth()
    }

    /// Snapshot of the dead-letter store.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.inner.outboxes.lock().dead().to_vec()
    }

    /// Dead letters currently stored.
    pub fn dead_letter_count(&self) -> usize {
        self.inner.outboxes.lock().dead().len()
    }

    /// Move every dead letter whose subscription is still live back
    /// into its outbox with a fresh budget; the others stay listed.
    /// Returns how many were requeued; drive them with
    /// [`WsMessenger::drain_redeliveries`]. 0 while fault tolerance is
    /// off.
    pub fn redeliver_dead_letters(&self) -> usize {
        let now = self.inner.net.clock().now_ms();
        let mut outboxes = self.inner.outboxes.lock();
        outboxes.redeliver_dead(&self.inner.registry, now)
    }

    /// The circuit-breaker state guarding one subscription, if fault
    /// tolerance is on and the subscriber has an outbox.
    pub fn breaker_state(&self, sub_id: &str) -> Option<BreakerState> {
        let now = self.inner.net.clock().now_ms();
        self.inner.outboxes.lock().breaker_state(sub_id, now)
    }

    /// The backend name.
    pub fn backend_name(&self) -> &'static str {
        self.inner.backend.name()
    }

    /// Prometheus-style text exposition of the broker metrics. The
    /// gauges are read from the state they describe here, at scrape
    /// time, and nowhere else.
    pub fn metrics_text(&self) -> String {
        self.inner
            .obs
            .set_subscriptions(self.inner.registry.len() as i64);
        refresh_reliability_gauges(&self.inner);
        self.inner.obs.prometheus()
    }

    /// Snapshot of the buffered pipeline-stage spans, oldest first.
    pub fn trace_spans(&self) -> Vec<crate::obs::SpanRecord> {
        self.inner.obs.spans()
    }

    /// Take the buffered pipeline-stage spans, leaving the ring empty.
    pub fn drain_trace_spans(&self) -> Vec<crate::obs::SpanRecord> {
        self.inner.obs.drain_spans()
    }

    /// Aggregate per-stage and per-delivery latency statistics.
    pub fn obs_snapshot(&self) -> crate::obs::ObsSnapshot {
        self.inner.obs.snapshot()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of end-to-end latency —
    /// publish to terminal outcome (delivery, dead-lettering or
    /// expiry), virtual ms — read from the `wsm_e2e_latency_ms`
    /// histogram behind [`WsMessenger::obs_snapshot`]'s p50/p95/p99.
    pub fn e2e_quantile_ms(&self, q: f64) -> f64 {
        self.inner.obs.e2e_quantile_ms(q)
    }

    /// Reconstruct complete per-(event, subscriber) delivery stories
    /// from the buffered spans: every attempt in causal order plus the
    /// terminal outcome, if one was reached.
    pub fn delivery_stories(&self) -> Vec<crate::obs::DeliveryStory> {
        crate::obs::reconstruct(&self.inner.obs.spans())
    }

    /// The buffered spans plus a trailing span-loss gauge, as JSONL.
    pub fn spans_jsonl(&self) -> String {
        self.inner.obs.spans_jsonl()
    }

    /// Set a broker/producer property (ProducerProperties filters).
    pub fn set_property(&self, name: &str, value: &str) {
        let mut current = self.inner.properties.lock();
        let props = Arc::make_mut(&mut current);
        props
            .children
            .retain(|c| c.as_element().map(|e| e.name.local != name).unwrap_or(true));
        props.push(Element::local(name).with_text(value));
    }

    /// Publish an event on a topic (in-process publisher API).
    pub fn publish_on(&self, topic: &str, payload: &Element) -> usize {
        self.publish_event(InternalEvent::on_topic(topic, payload.clone()))
    }

    /// Publish a topicless event (the WS-Eventing shape).
    pub fn publish_raw(&self, payload: &Element) -> usize {
        self.publish_event(InternalEvent::raw(payload.clone()))
    }

    /// Publish a fully-specified internal event. Returns once every
    /// send it made has landed, with the deliveries made.
    pub fn publish_event(&self, event: InternalEvent) -> usize {
        ingest(&self.inner, event, Return::Landed)
    }

    /// Publish `event` as a federation shard: return once its sends are
    /// posted, holding at most `cap` of this thread's sends in flight
    /// (`crate::delivery`).
    pub(crate) fn publish_posted(&self, event: InternalEvent, cap: usize) {
        ingest(&self.inner, event, Return::Posted { cap });
    }

    /// Flush wrapped-mode buffers; returns batches sent.
    pub fn flush_wrapped(&self) -> usize {
        let inner = &self.inner;
        let mut batches = 0;
        let buffers = inner.outboxes.lock().take_wrapped();
        for (sub, held) in buffers {
            let epr = sub.spec.manager_epr(&inner.manager_uri, &sub.id);
            let payloads: Vec<_> = held.iter().map(|h| h.payload().clone()).collect();
            let env = render_batch(&sub, &payloads, &inner.uri, &epr);
            if inner.net.send(&sub.consumer.address, env).is_ok() {
                batches += 1;
                resolve_held(inner, &sub.id, &held, Outcome::Delivered);
            } else {
                // A failed batch evicts the subscription, as a failed
                // push does: its events' stories end expired.
                resolve_held(inner, &sub.id, &held, Outcome::Expired);
                retire(inner, [&*sub.id], Some(EndStatus::DeliveryFailure));
            }
        }
        batches
    }
}

// ---------------------------------------------------------- ingestion

fn ingest(inner: &Arc<MessengerInner>, event: InternalEvent, until: Return) -> usize {
    let seq = inner.obs.next_seq();
    ingest_seq(inner, event, seq, until)
}

/// Ingest one publication under an already-minted trace sequence
/// number (a SOAP publication's messages and its `detect` span share
/// one trace id).
fn ingest_seq(inner: &Arc<MessengerInner>, event: InternalEvent, seq: u64, until: Return) -> usize {
    let timer = inner.obs.start();
    if let Some(t) = &event.topic {
        inner.topic_space.lock().add(t);
        let mut current = inner.current.lock();
        // The path is cloned only the first time its topic is seen.
        if let Some(last) = current.get_mut(t) {
            *last = event.payload.clone();
        } else {
            current.insert(t.clone(), event.payload.clone());
        }
    }
    inner.ledger.published.inc();
    let relayed = inner.backend.relay(event);
    inner
        .obs
        .stage(Stage::Publish, seq, timer, inner.net.clock().now_ms(), 1);
    let mut delivered = 0;
    for ev in &relayed {
        delivered += fan_out(inner, ev, seq, until);
    }
    // Piggyback a redelivery pass on every publication: held retries
    // whose backoff elapsed (the sends above advanced the virtual
    // clock) go out now. A cheap no-op when nothing is due or fault
    // tolerance is off.
    pump(inner);
    delivered
}

/// The broker's render source: an iterator that renders each matched
/// push subscriber's envelope as the delivery engine pulls it, so each
/// job is posted as soon as it is rendered.
/// With fault tolerance on, per-subscriber gating (FIFO behind held
/// retries) happens here too: a gated job is held in the subscriber's
/// outbox and the source moves on to the next subscriber, which is why
/// the size hint's lower bound is zero.
struct RenderSource<'a> {
    inner: &'a MessengerInner,
    cache: &'a RenderCache,
    event: &'a InternalEvent,
    ft: bool,
    subs: std::vec::IntoIter<Arc<BrokerSubscription>>,
    seq: u64,
    now: u64,
    /// Jobs actually yielded (excludes reliability-gated ones).
    rendered: u64,
    /// Accumulated render time, recorded as the `render` stage span
    /// once the fan-out completes.
    render_ns: u64,
}

impl Iterator for RenderSource<'_> {
    type Item = PushJob;

    fn next(&mut self) -> Option<PushJob> {
        loop {
            let sub = self.subs.next()?;
            let render_started = std::time::Instant::now();
            let envelope = render_notification_cached(
                self.cache,
                &sub,
                self.event,
                &self.inner.uri,
                &self.inner.manager_uri,
            );
            self.render_ns += render_started.elapsed().as_nanos() as u64;
            let job = PushJob {
                mediated: self
                    .event
                    .origin
                    .is_some_and(|o| family(o) != family(sub.spec)),
                sub,
                envelope,
                seq: self.seq,
                published_at_ms: self.now,
            };
            let job = if self.ft {
                self.inner.outboxes.lock().gate(job, self.now)
            } else {
                Some(job)
            };
            let Some(job) = job else {
                continue;
            };
            self.rendered += 1;
            return Some(job);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.subs.len()))
    }
}

/// Match `event`, hold it for pull and wrapped subscribers, and post a
/// rendered send to each push subscriber (`crate::delivery`). Returns
/// the deliveries made: held events, plus the pushes that landed
/// ([`Return::Landed`]) or were posted ([`Return::Posted`]).
fn fan_out(inner: &Arc<MessengerInner>, event: &InternalEvent, seq: u64, until: Return) -> usize {
    delivery::land_due();
    let now = inner.net.clock().now_ms();
    let match_timer = inner.obs.start();
    let swept = inner.registry.sweep_expired(now);
    retire(inner, swept.iter().map(|s| &*s.id), None);
    let props = inner.properties.lock().clone();
    let subs = inner.registry.matching(event, Some(&props), now);
    inner
        .obs
        .stage(Stage::Match, seq, match_timer, now, subs.len() as u64);
    // Pull and wrapped subscribers' events wait in their outboxes; push
    // subscribers feed the streaming render source below.
    let mut push_subs: Vec<Arc<BrokerSubscription>> = Vec::with_capacity(subs.len());
    let mut queued = Vec::new();
    for sub in subs {
        if sub.mode == BrokerDeliveryMode::Push {
            push_subs.push(sub);
        } else {
            queued.push(sub);
        }
    }
    let mut delivered = queued.len();
    // One outbox lock reads the fault-tolerance switch and holds every
    // queued event.
    let (ft, gone) = {
        let mut outboxes = inner.outboxes.lock();
        let gone = outboxes.hold(&inner.registry, queued, &event.payload, seq, now);
        (outboxes.ft().is_some(), gone)
    };
    for (sub, held) in &gone {
        resolve_held(inner, &sub.id, std::slice::from_ref(held), Outcome::Expired);
    }
    delivered -= gone.len();
    // With fault tolerance on, a failed send must be held before the
    // subscriber's next event is gated behind it, so the fan-out lands
    // its own sends before it returns.
    let until = if ft { Return::Landed } else { until };
    let cache = RenderCache::new(event);
    let mut source = RenderSource {
        inner,
        cache: &cache,
        event,
        ft,
        subs: push_subs.into_iter(),
        seq,
        now,
        rendered: 0,
        render_ns: 0,
    };
    let deliver_timer = inner.obs.start();
    let owner: Arc<dyn Settle> = inner.clone();
    let fan_out = delivery::execute(&inner.net, &owner, &mut source, until);
    let after_ms = inner.net.clock().now_ms();
    let pushed = match until {
        Return::Landed => fan_out.delivered,
        Return::Posted { .. } => fan_out.jobs,
    };
    // Render happened inside the deliver window (the source renders
    // as the engine pulls jobs); record its accumulated time first so
    // ring order stays publish → match → render → deliver, then the
    // deliver span — whose duration *includes* the rendering — and
    // the publisher's wait for sends to land.
    inner
        .obs
        .stage_dur(Stage::Render, seq, source.render_ns, now, source.rendered);
    inner
        .obs
        .stage(Stage::Deliver, seq, deliver_timer, after_ms, pushed as u64);
    if fan_out.waited_ns > 0 {
        inner.obs.stage_dur(
            Stage::Handoff,
            seq,
            fan_out.waited_ns,
            after_ms,
            fan_out.jobs as u64,
        );
    }
    delivery::land_due();
    delivered + pushed
}

/// The one settle path of a landed push, whether its fan-out waited
/// for it or returned once it was posted (`crate::delivery`).
impl Settle for MessengerInner {
    fn settle(&self, fates: &mut Fates) {
        let inner = self;
        inner.obs.record_latencies(&fates.latencies_ns);
        let now = inner.net.clock().now_ms();
        // Every first-round success is a terminal outcome: resolve its
        // causal timeline (and feed the e2e histogram) now, in one pass.
        inner.obs.resolve_delivered(&fates.resolved, now);
        let mut delta = fates.delta;
        let ft = !fates.failures.is_empty() && inner.outboxes.lock().ft().is_some();
        if ft {
            // Fault-tolerant mode: a failed push is not "failed" yet —
            // it is held with backoff, and only dead-lettering counts
            // against the broker.
            delta.failed = 0;
            for (kind, job) in &fates.failures {
                let event = inner
                    .outboxes
                    .lock()
                    .admit_failure(&inner.registry, *kind, job, now);
                if event.kind == PumpEventKind::DeadLettered {
                    delta.failed += 1;
                    delta.dead_lettered += 1;
                }
                trace_attempt(inner, &event);
            }
        } else if !fates.failures.is_empty() {
            // Legacy mode evicts the subscription: the message's story
            // ends here, unresolved-by-delivery.
            let failed = fates.failures.iter().map(|(_, job)| job.sub_id());
            retire(inner, failed, Some(EndStatus::DeliveryFailure));
            for (_, job) in &fates.failures {
                resolve_job(inner, job, now, Outcome::Expired);
            }
        }
        inner.ledger.book(&delta);
    }
}

/// Attempt every due redelivery at the current virtual time, booking
/// outcomes into the broker's ledger. `None` while fault tolerance is
/// off.
///
/// The one place a push is sent blocking; the fan-out posts its sends
/// instead, each a first attempt. A held event's attempt 0 (its first
/// try) is classed [`AttemptClass::First`], any later one
/// [`AttemptClass::Retry`].
fn pump(inner: &MessengerInner) -> Option<PumpReport> {
    let now = inner.net.clock().now_ms();
    let report = outbox::pump(
        &inner.outboxes,
        &inner.registry,
        now,
        |sub, env, attempt| {
            let class = if attempt == 0 {
                AttemptClass::First
            } else {
                AttemptClass::Retry
            };
            inner
                .net
                .send_class(&sub.consumer.address, env, class)
                .map_err(|e| FailKind::of(&e))
        },
    )?;
    for event in &report.events {
        trace_attempt(inner, event);
    }
    inner.ledger.book(&report.delta);
    Some(report)
}

/// Record one attempt on a held message: its retry or dead-letter span
/// and, when it ended, its resolution.
fn trace_attempt(inner: &MessengerInner, e: &PumpEvent) {
    let obs = &inner.obs;
    let outcome = match e.kind {
        PumpEventKind::Redelivered => Outcome::Delivered,
        PumpEventKind::Requeued { backoff_ms } => {
            obs.record_backoff(backoff_ms);
            obs.retry(e.seq, &e.sub_id, e.attempt, e.at_ms, e.dur_ns);
            return;
        }
        PumpEventKind::DeadLettered => {
            obs.dead_letter(e.seq, &e.sub_id, e.attempt.saturating_add(1), e.at_ms);
            Outcome::DeadLettered
        }
        PumpEventKind::Expired => Outcome::Expired,
    };
    obs.resolve(
        e.seq,
        &e.sub_id,
        e.attempt,
        e.published_at_ms,
        e.at_ms,
        outcome,
    );
}

/// Set the redelivery-depth and open-breaker gauges from the outboxes
/// (at scrape time: [`WsMessenger::metrics_text`]).
fn refresh_reliability_gauges(inner: &MessengerInner) {
    let now = inner.net.clock().now_ms();
    let (depth, (open, _)) = {
        let outboxes = inner.outboxes.lock();
        (outboxes.depth(), outboxes.breaker_census(now))
    };
    inner.obs.set_redelivery_depth(depth as i64);
    inner.obs.set_breakers_open(open as i64);
}

fn family(d: SpecDialect) -> u8 {
    match d {
        SpecDialect::Wse(_) => 0,
        SpecDialect::Wsn(_) => 1,
    }
}

/// Resolve held events of subscription `id` now.
fn resolve_held<B>(inner: &MessengerInner, id: &str, held: &[Held<B>], outcome: Outcome) {
    let now = inner.net.clock().now_ms();
    for h in held {
        inner
            .obs
            .resolve(h.seq, id, h.attempt(), h.published_at_ms, now, outcome);
    }
}

/// Resolve a push job that was never held.
fn resolve_job(inner: &MessengerInner, job: &PushJob, now: u64, outcome: Outcome) {
    inner
        .obs
        .resolve(job.seq, job.sub_id(), 0, job.published_at_ms, now, outcome);
}

/// The one exit of a subscription (`crate::outbox`, "One exit"): remove
/// each of `ids` from the registry (a sweep has already), then take its
/// outbox and resolve what it held expired, then send WS-Eventing's
/// `SubscriptionEnd` with status `end` to a subscriber that asked for
/// one. Demand is re-evaluated once. Returns how many registry entries
/// this call removed.
fn retire<'a>(
    inner: &MessengerInner,
    ids: impl IntoIterator<Item = &'a str>,
    end: Option<EndStatus>,
) -> usize {
    let mut any = false;
    let mut removed = 0;
    for id in ids {
        any = true;
        let sub = inner.registry.remove(id);
        let held = inner.outboxes.lock().retire(id);
        resolve_held(inner, id, &held, Outcome::Expired);
        let Some(sub) = sub else { continue };
        removed += 1;
        if let (Some(status), SpecDialect::Wse(v), Some(end_to)) = (end, sub.spec, &sub.end_to) {
            let manager = sub.spec.manager_epr(&inner.manager_uri, &sub.id);
            let env = WseCodec::new(v).subscription_end(
                end_to,
                &manager,
                status,
                Some("the broker could not deliver notifications"),
            );
            let _ = inner.net.send(&end_to.address, env);
        }
    }
    if any {
        demand_changed(inner);
    }
    removed
}

// ------------------------------------------------------- control plane

impl WsMessenger {
    /// Ingest one inbound SOAP publication as one trace, however many
    /// messages it carries: its first span is the dialect detection the
    /// endpoint timed (`detect_ns`).
    pub(crate) fn ingest(&self, events: impl Iterator<Item = InternalEvent>, detect_ns: u64) {
        let inner = &self.inner;
        let seq = inner.obs.next_seq();
        let now = inner.net.clock().now_ms();
        inner.obs.stage_dur(Stage::Detect, seq, detect_ns, now, 1);
        for ev in events {
            ingest_seq(inner, ev, seq, Return::Landed);
        }
    }

    /// Register one decoded subscription.
    pub(crate) fn subscribe(&self, s: Subscription) -> Subscribed {
        let inner = &self.inner;
        self.seed_topics(&s.filters.topics);
        let now = inner.net.clock().now_ms();
        let expires_at = s.lease.map(|l| l.absolute(now));
        let (id, key) = inner.registry.insert_keyed(
            s.dialect, s.consumer, s.end_to, s.filters, s.mode, s.use_raw, expires_at,
        );
        Subscribed {
            manager: inner.manager_uri.clone(),
            id,
            key,
            requested: s.lease,
            now_ms: now,
            expires_at,
        }
    }

    /// Does a live, unpaused subscription want one of `topics`? One with
    /// no topic filter wants every topic; otherwise a topic the broker
    /// knows must match both one of `topics` and the subscription's
    /// filter.
    pub(crate) fn wants(&self, topics: &[TopicExpression]) -> bool {
        wants(&self.inner, topics)
    }

    /// Apply one decoded control operation.
    pub(crate) fn apply(&self, op: ControlOp) -> Result<Reply, Fault> {
        let inner = &self.inner;
        Ok(match op {
            ControlOp::Subscribe(s) => {
                let subscribed = self.subscribe(*s);
                demand_changed(inner);
                Reply::Subscribed(subscribed)
            }
            ControlOp::Manage(dialect, id, op) => {
                manage(inner, &id, op).ok_or_else(|| unknown_subscription(dialect, &id))?
            }
            ControlOp::GetCurrentMessage(topic) => {
                let space = inner.topic_space.lock();
                let current = inner.current.lock();
                let last = space
                    .expand(&topic)
                    .into_iter()
                    .rev()
                    .find_map(|t| current.get(&t).cloned())
                    .ok_or_else(|| {
                        Fault::sender("no current message on that topic")
                            .with_subcode("wsnt:NoCurrentMessageOnTopicFault")
                    })?;
                Reply::CurrentMessage(last)
            }
            ControlOp::RegisterPublisher(r) => {
                self.seed_topics(&r.topics);
                let address = inner.brokered.register(&inner.net, &inner.uri, *r)?;
                demand_changed(inner);
                Reply::Registered(address)
            }
            ControlOp::CreatePullPoint(v) => {
                let address = inner
                    .brokered
                    .create_pull_point(&inner.net, &inner.uri, v)?;
                Reply::PullPoint(address)
            }
            ControlOp::GetMetrics => Reply::Metrics(self.metrics_text()),
            ControlOp::GetTrace(true) => Reply::Trace(self.drain_trace_spans()),
            ControlOp::GetTrace(false) => Reply::Trace(self.trace_spans()),
            ControlOp::GetDeadLetters => Reply::DeadLetters(self.dead_letters()),
            ControlOp::RedeliverDeadLetters => Reply::Redelivered(self.redeliver_dead_letters()),
        })
    }

    /// Add the concrete ones among `topics` to the topic space, so that
    /// GetCurrentMessage and the demand check see them.
    pub(crate) fn seed_topics(&self, topics: &[TopicExpression]) {
        let mut space = self.inner.topic_space.lock();
        for t in topics {
            if let Some(p) = TopicPath::parse(t.text()) {
                space.add(&p);
            }
        }
    }
}

/// See [`WsMessenger::wants`].
fn wants(inner: &MessengerInner, topics: &[TopicExpression]) -> bool {
    let known: Vec<TopicPath> = {
        let space = inner.topic_space.lock();
        topics.iter().flat_map(|t| space.expand(t)).collect()
    };
    inner.registry.wants_any(&known, inner.net.clock().now_ms())
}

/// Re-evaluate the demand-based publishers after the subscriptions
/// changed.
fn demand_changed(inner: &MessengerInner) {
    inner
        .brokered
        .refresh(&inner.net, |topics| wants(inner, topics));
}

/// Apply a management operation to subscription `id`; `None` when no
/// live subscription has that id. Every operation first sweeps expired
/// subscriptions; Unsubscribe, Destroy, Pause, Resume and a lease
/// change also change who wants what.
fn manage(inner: &MessengerInner, id: &str, op: Manage) -> Option<Reply> {
    let registry = &inner.registry;
    let now = inner.net.clock().now_ms();
    let swept = registry.sweep_expired(now);
    retire(inner, swept.iter().map(|s| &*s.id), None);
    match op {
        Manage::Lease(kind, lease) => {
            let at = lease.map(|l| l.absolute(now));
            // WS-Eventing's Renew echoes the lease asked for; WSRF's
            // SetTerminationTime answers with the instant it set.
            let told = if kind == OpKind::Renew {
                lease
            } else {
                at.map(Expires::At)
            };
            registry.set_expiry(id, at).then(|| {
                demand_changed(inner);
                Reply::Ack(kind, told)
            })
        }
        Manage::Pause(kind) => registry.set_paused(id, kind == OpKind::Pause).then(|| {
            demand_changed(inner);
            Reply::Ack(kind, None)
        }),
        Manage::End(kind) => (retire(inner, [id], None) > 0).then_some(Reply::Ack(kind, None)),
        Manage::GetStatus => registry
            .status(id)
            .map(|s| Reply::Ack(OpKind::GetStatus, s.expires_at_ms.map(Expires::At))),
        Manage::Pull(max) => {
            registry.get(id)?;
            let held = inner.outboxes.lock().take(id, max);
            // Handing the events to the puller is the terminal outcome
            // for a pull subscription: resolve each one's causal timeline.
            resolve_held(inner, id, &held, Outcome::Delivered);
            let pulled = held.into_iter().map(Queued::into_payload).collect();
            Some(Reply::Pulled(pulled))
        }
        Manage::Property(name) => {
            let sub = registry.get(id)?;
            let status = registry.status(id)?;
            Some(Reply::Property(match name.as_str() {
                "Paused" => Some(("Paused", status.paused.to_string())),
                "TerminationTime" => status
                    .expires_at_ms
                    .map(|t| ("TerminationTime", wsm_xml::xsd::format_datetime(t))),
                "ConsumerReference" => Some(("ConsumerReference", sub.consumer.address.clone())),
                _ => None,
            }))
        }
    }
}

#[cfg(test)]
impl WsMessenger {
    /// Outboxes currently kept.
    pub(crate) fn outbox_count(&self) -> usize {
        self.inner.outboxes.lock().count()
    }
}
