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

use crate::backend::{InMemoryBackend, MessagingBackend};
use crate::brokered::Brokered;
use crate::control::{
    unknown_subscription, ControlOp, Endpoint, Manage, OpKind, Reply, Subscribed, Subscription,
};
use crate::delivery::{self, DeliveryEngine, FailKind, PushJob, StatsDelta};
use crate::detect::SpecDialect;
use crate::event::InternalEvent;
use crate::obs::{BrokerObs, Outcome, Stage};
use crate::registry::{BrokerDeliveryMode, BrokerSubscription, Registry};
use crate::reliability::{
    Admitted, BreakerState, DeadLetter, FaultTolerance, PumpReport, ReliabilityState,
};
use crate::render::{render_batch, render_notification_cached, RenderCache};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_eventing::{EndStatus, Expires, WseCodec};
use wsm_soap::Fault;
use wsm_topics::{TopicExpression, TopicPath, TopicSpace};
use wsm_transport::{AttemptClass, Network};
use wsm_xml::{Element, SharedElement};

/// Counters describing the broker's mediation activity.
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
    /// Retries performed by the delivery engine and the redelivery
    /// pump.
    pub retried: u64,
    /// Successful deliveries that came off the redelivery queue.
    pub redelivered: u64,
    /// Messages moved to the dead-letter store.
    pub dead_lettered: u64,
}

/// The broker's live mediation counters: one relaxed atomic per field,
/// so `stats()` snapshots without ever blocking a publishing thread
/// (the seed kept these behind a `Mutex<MediationStats>`, which a
/// snapshot reader could contend with mid-publication).
#[derive(Debug, Default)]
struct StatsCells {
    published: AtomicU64,
    delivered_wse: AtomicU64,
    delivered_wsn: AtomicU64,
    mediated: AtomicU64,
    failed: AtomicU64,
    retried: AtomicU64,
    redelivered: AtomicU64,
    dead_lettered: AtomicU64,
}

impl StatsCells {
    fn inc_published(&self) {
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge one publication's accumulated delivery outcomes: a single
    /// pass of relaxed adds, once per publish.
    fn merge(&self, delta: &StatsDelta) {
        self.delivered_wse
            .fetch_add(delta.delivered_wse, Ordering::Relaxed);
        self.delivered_wsn
            .fetch_add(delta.delivered_wsn, Ordering::Relaxed);
        self.mediated.fetch_add(delta.mediated, Ordering::Relaxed);
        self.failed.fetch_add(delta.failed, Ordering::Relaxed);
        self.retried.fetch_add(delta.retried, Ordering::Relaxed);
        self.redelivered
            .fetch_add(delta.redelivered, Ordering::Relaxed);
        self.dead_lettered
            .fetch_add(delta.dead_lettered, Ordering::Relaxed);
    }

    fn snapshot(&self) -> MediationStats {
        MediationStats {
            published: self.published.load(Ordering::Relaxed),
            delivered_wse: self.delivered_wse.load(Ordering::Relaxed),
            delivered_wsn: self.delivered_wsn.load(Ordering::Relaxed),
            mediated: self.mediated.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            redelivered: self.redelivered.load(Ordering::Relaxed),
            dead_lettered: self.dead_lettered.load(Ordering::Relaxed),
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
    current: Mutex<HashMap<String, Arc<SharedElement>>>,
    /// The ProducerProperties document, copy-on-write: `set_property`
    /// edits through `Arc::make_mut`, so a publication holding the
    /// previous document keeps it and each publication takes a
    /// reference rather than a copy.
    properties: Mutex<Arc<Element>>,
    stats: StatsCells,
    obs: BrokerObs,
    brokered: Brokered,
    /// Delivery attempts per notification before the subscription is
    /// dropped (the broker's "reliable" knob; 1 = no retry).
    delivery_attempts: AtomicU32,
    /// Worker threads for push fan-out; 0 or 1 delivers sequentially.
    fanout_workers: AtomicUsize,
    /// Persistent push worker pool (threads spawn lazily on the first
    /// large-enough fan-out).
    engine: DeliveryEngine,
    /// Fault-tolerant delivery state (redelivery queue, breakers,
    /// dead-letter store); `None` keeps the seed's drop-on-failure
    /// semantics.
    reliability: RwLock<Option<Arc<ReliabilityState>>>,
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
        let inner = Arc::new(MessengerInner {
            net: net.clone(),
            uri: uri.to_string(),
            manager_uri: format!("{uri}/subscriptions"),
            registry: Registry::new(),
            backend,
            topic_space: Mutex::new(TopicSpace::new()),
            current: Mutex::new(HashMap::new()),
            properties: Mutex::new(Arc::new(Element::local("ProducerProperties"))),
            stats: StatsCells::default(),
            obs: BrokerObs::new(),
            brokered: Brokered::default(),
            delivery_attempts: AtomicU32::new(1),
            fanout_workers: AtomicUsize::new(delivery::default_workers()),
            engine: DeliveryEngine::new(),
            reliability: RwLock::new(None),
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

    /// Mediation statistics so far (a lock-free snapshot of relaxed
    /// per-field atomics; never blocks a publishing thread).
    pub fn stats(&self) -> MediationStats {
        self.inner.stats.snapshot()
    }

    /// Runtime observability kill-switch: `false` stops metric and
    /// span recording without recompiling.
    pub fn set_obs_enabled(&self, on: bool) {
        self.inner.obs.set_enabled(on);
    }

    /// Set how many delivery attempts each notification gets before the
    /// broker gives up on the subscription (minimum 1). The retry is
    /// immediate — the simulated network has no transient backoff — but
    /// it absorbs injected loss, which is how the tests model flaky
    /// consumers.
    pub fn set_delivery_attempts(&self, attempts: u32) {
        self.inner
            .delivery_attempts
            .store(attempts.max(1), Ordering::Relaxed);
    }

    /// Set the push fan-out worker count. `0` or `1` delivers
    /// sequentially on the publishing thread; the default is one worker
    /// per available core. Small fan-outs are delivered inline either
    /// way — the pool only spins up when a publication has enough push
    /// jobs to amortize it.
    pub fn set_fanout_workers(&self, workers: usize) {
        self.inner.fanout_workers.store(workers, Ordering::Relaxed);
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
    pub fn set_fault_tolerance(&self, config: Option<FaultTolerance>) {
        *self.inner.reliability.write() = config.map(|c| Arc::new(ReliabilityState::new(c)));
    }

    /// Whether fault-tolerant delivery is active.
    pub fn fault_tolerance_enabled(&self) -> bool {
        self.inner.reliability.read().is_some()
    }

    /// Attempt every due redelivery at the current virtual time.
    /// Returns what the pass did. A no-op (empty report) when fault
    /// tolerance is off or nothing is due.
    pub fn pump_redeliveries(&self) -> PumpReport {
        pump_reliability(&self.inner)
    }

    /// Drain the redelivery queue by advancing the virtual clock to
    /// each due time within `horizon_ms` of now and pumping, until the
    /// queue is empty, every breaker holds, or the horizon passes.
    /// Returns the accumulated outcomes.
    pub fn drain_redeliveries(&self, horizon_ms: u64) -> PumpReport {
        let mut total = PumpReport::default();
        let Some(rel) = self.inner.reliability.read().clone() else {
            return total;
        };
        let deadline = self.inner.net.clock().now_ms().saturating_add(horizon_ms);
        while let Some(due) = rel.next_due_ms() {
            if due > deadline {
                break;
            }
            self.inner.net.clock().set_ms(due);
            total.absorb(pump_reliability(&self.inner));
        }
        total
    }

    /// Messages waiting in the redelivery queue.
    pub fn redelivery_depth(&self) -> usize {
        self.inner
            .reliability
            .read()
            .as_ref()
            .map_or(0, |r| r.depth())
    }

    /// Snapshot of the dead-letter store.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.inner
            .reliability
            .read()
            .as_ref()
            .map_or_else(Vec::new, |r| r.dead_letters())
    }

    /// Dead letters currently stored.
    pub fn dead_letter_count(&self) -> usize {
        self.inner
            .reliability
            .read()
            .as_ref()
            .map_or(0, |r| r.dead_count())
    }

    /// Move every dead letter back into its subscriber's redelivery
    /// channel with a fresh budget. Returns how many were requeued;
    /// drive them with [`WsMessenger::drain_redeliveries`].
    pub fn redeliver_dead_letters(&self) -> usize {
        let Some(rel) = self.inner.reliability.read().clone() else {
            return 0;
        };
        rel.redeliver_dead(self.inner.net.clock().now_ms())
    }

    /// The circuit-breaker state guarding one subscription, if fault
    /// tolerance is on and the subscriber has a redelivery channel.
    pub fn breaker_state(&self, sub_id: &str) -> Option<BreakerState> {
        let rel = self.inner.reliability.read().clone()?;
        rel.breaker_state(sub_id, self.inner.net.clock().now_ms())
    }

    /// The backend name.
    pub fn backend_name(&self) -> &'static str {
        self.inner.backend.name()
    }

    /// Prometheus-style text exposition of the broker metrics
    /// (refreshes the live-subscription gauge at scrape time).
    pub fn metrics_text(&self) -> String {
        self.inner
            .obs
            .set_subscriptions(self.inner.registry.len() as i64);
        if let Some(rel) = self.inner.reliability.read().clone() {
            refresh_reliability_gauges(&self.inner, &rel);
        }
        let mut text = self.inner.obs.prometheus();
        text.push_str(
            &self
                .inner
                .obs
                .slo_prometheus(self.inner.net.clock().now_ms()),
        );
        text
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

    /// Install declarative latency objectives on the broker's SLO
    /// engine (replacing any previous set). Objectives are judged
    /// against *terminal* end-to-end outcomes — publish to final
    /// delivery, dead-lettering, or expiry — on the virtual clock.
    pub fn set_slos(&self, specs: Vec<crate::obs::SloSpec>) {
        self.inner.obs.set_slos(specs);
    }

    /// Evaluate every installed objective as of the current virtual
    /// time: measured quantile, error-budget burn rate, pass/fail.
    pub fn slo_reports(&self) -> Vec<crate::obs::SloReport> {
        self.inner.obs.slo_reports(self.inner.net.clock().now_ms())
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

    /// Declare a topic.
    pub fn add_topic(&self, path: &str) {
        self.inner.topic_space.lock().add_str(path);
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

    /// Publish a fully-specified internal event.
    pub fn publish_event(&self, event: InternalEvent) -> usize {
        ingest(&self.inner, event)
    }

    /// Flush wrapped-mode buffers; returns batches sent.
    pub fn flush_wrapped(&self) -> usize {
        let inner = &self.inner;
        let mut batches = 0;
        for (id, events) in inner.registry.take_wrap_buffers() {
            if let Some(sub) = inner.registry.get(&id) {
                let epr = subscription_epr(&inner.manager_uri, &sub.id, sub.spec);
                let payloads: Vec<_> = events.iter().map(|e| e.payload.clone()).collect();
                let env = render_batch(&sub, &payloads, &inner.uri, &epr);
                // A failed batch evicts the subscription, as a failed
                // push does: its events' stories end expired.
                let outcome = if inner.net.send(&sub.consumer.address, env).is_ok() {
                    batches += 1;
                    Outcome::Delivered
                } else {
                    drop_failed(inner, &sub.id);
                    Outcome::Expired
                };
                let now = inner.net.clock().now_ms();
                for ev in &events {
                    inner
                        .obs
                        .resolve(ev.seq, &sub.id, 0, ev.queued_at_ms, now, outcome);
                }
            }
        }
        batches
    }
}

// ---------------------------------------------------------- ingestion

fn ingest(inner: &MessengerInner, event: InternalEvent) -> usize {
    let seq = inner.obs.next_seq();
    ingest_seq(inner, event, seq)
}

/// Ingest one publication under an already-minted trace sequence
/// number (a SOAP publication's messages and its `detect` span share
/// one trace id).
fn ingest_seq(inner: &MessengerInner, event: InternalEvent, seq: u64) -> usize {
    let timer = inner.obs.start();
    if let Some(t) = &event.topic {
        inner.topic_space.lock().add(t);
        inner
            .current
            .lock()
            .insert(t.to_string(), event.payload.clone());
    }
    inner.stats.inc_published();
    inner.obs.record_publication();
    let relayed = inner.backend.relay(event);
    inner
        .obs
        .stage(Stage::Publish, seq, timer, inner.net.clock().now_ms(), 1);
    let mut delivered = 0;
    for ev in &relayed {
        delivered += fan_out(inner, ev, seq);
    }
    // Piggyback a redelivery pass on every publication: queued
    // messages whose backoff elapsed (the sends above advanced the
    // virtual clock) go out now. A cheap no-op when nothing is due.
    if inner.reliability.read().is_some() {
        pump_reliability(inner);
    }
    delivered
}

/// The broker's render source: an iterator that renders each matched
/// push subscriber's envelope as the delivery engine pulls it. The
/// streaming path sends each job as soon as it is rendered; the pool
/// path renders the whole publication before handing it over.
/// Per-subscriber reliability gating (FIFO behind pending
/// redeliveries) happens here too: a gated job is enqueued to the
/// redelivery channel and the source moves on to the next subscriber,
/// which is why the size hint's lower bound is zero.
struct RenderSource<'a> {
    inner: &'a MessengerInner,
    cache: &'a RenderCache,
    event: &'a InternalEvent,
    rel: Option<Arc<ReliabilityState>>,
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
                attempt: 0,
            };
            // FIFO per subscriber: while redeliveries are pending
            // (or the breaker is open) a fresh message queues
            // behind them instead of overtaking on the wire.
            if let Some(rel) = self
                .rel
                .as_ref()
                .filter(|r| r.must_enqueue(job.sub_id(), self.now))
            {
                rel.enqueue_new(job, self.now);
                continue;
            }
            self.rendered += 1;
            return Some(job);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.subs.len()))
    }
}

fn fan_out(inner: &MessengerInner, event: &InternalEvent, seq: u64) -> usize {
    let now = inner.net.clock().now_ms();
    let match_timer = inner.obs.start();
    if !inner.registry.sweep_expired(now).is_empty() {
        demand_changed(inner);
    }
    let props = inner.properties.lock().clone();
    let subs = inner.registry.matching(event, Some(&props), now);
    inner
        .obs
        .stage(Stage::Match, seq, match_timer, now, subs.len() as u64);
    let rel = inner.reliability.read().clone();
    let mut delivered = 0;
    // Pre-pass: queue-backed modes (pull, wrapped) resolve inline;
    // push subscribers feed the streaming render source below.
    let mut push_subs: Vec<Arc<BrokerSubscription>> = Vec::with_capacity(subs.len());
    for sub in subs {
        match sub.mode {
            BrokerDeliveryMode::Push => push_subs.push(sub),
            BrokerDeliveryMode::Pull => {
                if inner
                    .registry
                    .queue_event(&sub.id, event.payload.clone(), seq, now)
                {
                    delivered += 1;
                }
            }
            BrokerDeliveryMode::Wrapped => {
                if inner
                    .registry
                    .buffer_wrapped(&sub.id, event.payload.clone(), seq, now)
                {
                    delivered += 1;
                }
            }
        }
    }
    let cache = RenderCache::new(event);
    let workers = inner.fanout_workers.load(Ordering::Relaxed);
    let mut source = RenderSource {
        inner,
        cache: &cache,
        event,
        rel: rel.clone(),
        subs: push_subs.into_iter(),
        seq,
        now,
        rendered: 0,
        render_ns: 0,
    };
    let deliver_timer = inner.obs.start();
    let report = inner.engine.execute(
        &inner.net,
        inner.delivery_attempts.load(Ordering::Relaxed),
        workers,
        &mut source,
    );
    let after_ms = inner.net.clock().now_ms();
    // Render happened inside the deliver window (the source renders
    // as the engine pulls jobs); record its accumulated time first so
    // ring order stays publish → match → render → deliver, then the
    // deliver span — whose duration *includes* the rendering — and
    // the publisher's handoff wait.
    inner
        .obs
        .stage_dur(Stage::Render, seq, source.render_ns, now, source.rendered);
    inner.obs.stage(
        Stage::Deliver,
        seq,
        deliver_timer,
        after_ms,
        report.delivered as u64,
    );
    if report.mode == "sharded" {
        inner.obs.stage_dur(
            Stage::Handoff,
            seq,
            report.join_wait_ns,
            after_ms,
            workers as u64,
        );
    }
    inner.obs.record_latencies(&report.latencies_ns);
    delivered += report.delivered;
    // Every first-round success is a terminal outcome: resolve the
    // publication's causal timelines (and feed the e2e histogram + SLO
    // engine) now, in one pass.
    inner
        .obs
        .resolve_delivered(&report.resolved, inner.net.clock().now_ms());
    let mut delta = report.delta;
    match rel {
        Some(rel) => {
            // Fault-tolerant mode: a failed push is not "failed" yet —
            // it re-enqueues with backoff, and only dead-lettering
            // counts against the broker.
            delta.failed = 0;
            let now = inner.net.clock().now_ms();
            for (kind, job) in &report.failures {
                match rel.admit_failure(*kind, job, now) {
                    Admitted::Requeued { backoff_ms, .. } => {
                        inner.obs.record_backoff(backoff_ms);
                        inner.obs.retry(job.seq, job.sub_id(), job.attempt, now, 0);
                    }
                    Admitted::DeadLettered => {
                        delta.failed += 1;
                        delta.dead_lettered += 1;
                        inner.obs.record_dead_letter();
                        inner.obs.dead_letter(
                            job.seq,
                            job.sub_id(),
                            job.attempt.saturating_add(1),
                            now,
                        );
                        inner.obs.resolve(
                            job.seq,
                            job.sub_id(),
                            job.attempt,
                            job.published_at_ms,
                            now,
                            crate::obs::Outcome::DeadLettered,
                        );
                    }
                }
            }
            refresh_reliability_gauges(inner, &rel);
        }
        None => {
            let now = inner.net.clock().now_ms();
            for (_, job) in &report.failures {
                drop_failed(inner, job.sub_id());
                // Legacy mode evicts the subscription: the message's
                // story ends here, unresolved-by-delivery.
                inner.obs.resolve(
                    job.seq,
                    job.sub_id(),
                    job.attempt,
                    job.published_at_ms,
                    now,
                    crate::obs::Outcome::Expired,
                );
            }
        }
    }
    inner
        .obs
        .record_outcomes(report.delivered as u64, delta.failed, delta.mediated);
    inner.stats.merge(&delta);
    delivered
}

/// Attempt every due redelivery at the current virtual time, merging
/// outcomes into the broker's stats and metrics.
fn pump_reliability(inner: &MessengerInner) -> PumpReport {
    let Some(rel) = inner.reliability.read().clone() else {
        return PumpReport::default();
    };
    let now = inner.net.clock().now_ms();
    let report = rel.pump(now, &|to, env, is_retry| {
        let class = if is_retry {
            AttemptClass::Retry
        } else {
            AttemptClass::First
        };
        inner
            .net
            .send_class(to, env, class)
            .map_err(|e| FailKind::of(&e))
    });
    for b in &report.backoffs_ms {
        inner.obs.record_backoff(*b);
    }
    for _ in 0..report.dead_lettered {
        inner.obs.record_dead_letter();
    }
    for ev in &report.events {
        use crate::reliability::PumpEventKind;
        match ev.kind {
            PumpEventKind::Redelivered => inner.obs.resolve(
                ev.seq,
                &ev.sub_id,
                ev.attempt,
                ev.published_at_ms,
                ev.at_ms,
                crate::obs::Outcome::Delivered,
            ),
            PumpEventKind::Requeued { .. } => {
                inner
                    .obs
                    .retry(ev.seq, &ev.sub_id, ev.attempt, ev.at_ms, ev.dur_ns);
            }
            PumpEventKind::DeadLettered => {
                inner
                    .obs
                    .dead_letter(ev.seq, &ev.sub_id, ev.attempt.saturating_add(1), ev.at_ms);
                inner.obs.resolve(
                    ev.seq,
                    &ev.sub_id,
                    ev.attempt,
                    ev.published_at_ms,
                    ev.at_ms,
                    crate::obs::Outcome::DeadLettered,
                );
            }
        }
    }
    inner.stats.merge(&report.delta);
    refresh_reliability_gauges(inner, &rel);
    report
}

/// Push the redelivery-depth and open-breaker gauges.
fn refresh_reliability_gauges(inner: &MessengerInner, rel: &ReliabilityState) {
    inner.obs.set_redelivery_depth(rel.depth() as i64);
    let (open, _) = rel.breaker_census(inner.net.clock().now_ms());
    inner.obs.set_breakers_open(open as i64);
}

fn family(d: SpecDialect) -> u8 {
    match d {
        SpecDialect::Wse(_) => 0,
        SpecDialect::Wsn(_) => 1,
    }
}

/// Forget a removed subscription's redelivery channel (if any),
/// resolving any pending deliveries it still held as expired.
fn forget_reliability(inner: &MessengerInner, id: &str) {
    if let Some(rel) = inner.reliability.read().as_ref() {
        let now = inner.net.clock().now_ms();
        for p in rel.forget(id) {
            inner.obs.resolve(
                p.seq,
                id,
                p.attempts + p.strikes,
                p.published_at_ms,
                now,
                crate::obs::Outcome::Expired,
            );
        }
    }
}

/// Remove a subscription after a delivery failure, sending the WSE
/// `SubscriptionEnd` when the subscriber asked for one.
fn drop_failed(inner: &MessengerInner, id: &str) {
    forget_reliability(inner, id);
    if let Some(sub) = inner.registry.remove(id) {
        if let (SpecDialect::Wse(v), Some(end_to)) = (sub.spec, &sub.end_to) {
            let codec = WseCodec::new(v);
            let manager = subscription_epr(&inner.manager_uri, &sub.id, sub.spec);
            let env = codec.subscription_end(
                end_to,
                &manager,
                EndStatus::DeliveryFailure,
                Some("the broker could not deliver notifications"),
            );
            let _ = inner.net.send(&end_to.address, env);
        }
        demand_changed(inner);
    }
}

/// The EPR a subscriber manages subscription `id` through, at `manager`.
pub(crate) fn subscription_epr(manager: &str, id: &str, spec: SpecDialect) -> EndpointReference {
    let epr = EndpointReference::new(manager.to_string());
    match spec {
        SpecDialect::Wse(v) if v.id_in_reference_parameters() => epr.with_reference(
            v.wsa(),
            Element::ns(v.ns(), "Identifier", "wse").with_text(id),
        ),
        SpecDialect::Wse(_) => epr,
        // Kept in lockstep with the cached render path, which patches
        // the same EPR shape into its SubscriptionReference prototype.
        SpecDialect::Wsn(v) => crate::render::wsn_subscription_epr(v, manager, id),
    }
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
            ingest_seq(inner, ev, seq);
        }
    }

    /// Register one decoded subscription.
    pub(crate) fn subscribe(&self, s: Subscription) -> Subscribed {
        let inner = &self.inner;
        self.seed_topics(&s.filters.topics);
        let now = inner.net.clock().now_ms();
        let expires_at = s.lease.map(|l| l.absolute(now));
        let id = inner.registry.insert(
            s.dialect, s.consumer, s.end_to, s.filters, s.mode, s.use_raw, expires_at,
        );
        Subscribed {
            manager: inner.manager_uri.clone(),
            id,
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
            // Every management operation sweeps expired subscriptions;
            // Unsubscribe, Destroy, Pause, Resume and a lease change
            // also change who wants what.
            ControlOp::Manage(dialect, id, op) => {
                let reply = manage(inner, &id, op);
                demand_changed(inner);
                reply.ok_or_else(|| unknown_subscription(dialect, &id))?
            }
            ControlOp::GetCurrentMessage(topic) => {
                let space = inner.topic_space.lock();
                let current = inner.current.lock();
                let last = space
                    .expand(&topic)
                    .into_iter()
                    .rev()
                    .find_map(|t| current.get(&t.to_string()).cloned())
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
/// live subscription has that id.
fn manage(inner: &MessengerInner, id: &str, op: Manage) -> Option<Reply> {
    let registry = &inner.registry;
    let now = inner.net.clock().now_ms();
    registry.sweep_expired(now);
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
            registry
                .set_expiry(id, at)
                .then_some(Reply::Ack(kind, told))
        }
        Manage::Pause(kind) => registry
            .set_paused(id, kind == OpKind::Pause)
            .then_some(Reply::Ack(kind, None)),
        Manage::End(kind) => {
            registry.remove(id)?;
            forget_reliability(inner, id);
            Some(Reply::Ack(kind, None))
        }
        Manage::GetStatus => registry
            .status(id)
            .map(|s| Reply::Ack(OpKind::GetStatus, s.expires_at_ms.map(Expires::At))),
        Manage::Pull(max) => {
            registry.get(id)?;
            let events = registry.drain_queue(id, max);
            // Handing the events to the puller is the terminal outcome
            // for a pull subscription: resolve each one's causal timeline.
            let obs = &inner.obs;
            for ev in &events {
                obs.resolve(ev.seq, id, 0, ev.queued_at_ms, now, Outcome::Delivered);
            }
            let pulled = events.into_iter().map(|e| e.payload).collect();
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
