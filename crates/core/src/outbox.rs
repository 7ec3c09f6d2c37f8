//! One outbox per subscription: every event the broker holds for a
//! subscriber, in one structure, with one way out.
//!
//! An event that is not pushed the moment it is published waits in its
//! subscription's outbox as a [`Held`] entry. The subscription's
//! delivery mode, fixed at Subscribe, decides which kind of outbox it
//! gets, and the types keep the kinds apart:
//!
//! * **pull** and **wrapped** — a [`Queue`] of payloads ([`Queued`]).
//!   [`Outboxes::take`] answers a WS-Eventing `Pull` from a pull queue
//!   only, and the pulled events are delivered;
//!   [`Outboxes::take_wrapped`] hands every wrapped queue to the
//!   broker's `flush_wrapped`, which sends one batch per subscriber;
//! * **push with fault tolerance on** — [`Retries`]: rendered envelopes
//!   behind a circuit breaker. [`pump`] resends them oldest first, in
//!   subscription-id order, under the backoff, breaker and dead-letter
//!   rules of [`crate::reliability`]. A fresh push for a subscriber with
//!   held retries or an open breaker is held behind them
//!   ([`Outboxes::gate`]), so per-subscriber order survives redelivery.
//!   Push with fault tolerance off holds nothing here; it only reads the
//!   fault-tolerance switch.
//!
//! A push outbox exists only while it holds something, has an attempt
//! on the wire, or its breaker is not closed, and a wrapped one only
//! while it holds something, so a subscription that keeps up costs
//! nothing here. A pull queue, once made, stays until its subscription
//! leaves.
//!
//! # One exit
//!
//! A subscription leaves the broker only through the broker's `retire`
//! (Unsubscribe, Destroy, either expiry sweep, a delivery failure with
//! fault tolerance off, a failed wrapped flush). It removes the
//! registry entry first, then takes the outbox with
//! [`Outboxes::retire`] and resolves everything it held `Expired`.
//!
//! **The race rule.** `retire` removes the registry entry before it
//! takes the outbox lock, and an insert ([`Outboxes::hold`], `gate`,
//! `admit_failure`, a failed pump attempt, `redeliver_dead`) runs under
//! the outbox lock:
//!
//! * into an outbox that exists, it needs no check: `retire` has not
//!   taken that outbox yet, so it will resolve the event;
//! * an insert that would make the outbox first checks that the
//!   subscription is still registered, and otherwise hands the event
//!   back to be resolved `Expired`, so no outbox is made after `retire`
//!   took the last one.
//!
//! Either way the event is resolved exactly once, and a retry expires
//! only when its subscription left or fault tolerance was switched off.
//! Locks are taken outbox first, then registry, never the reverse.
//!
//! **Configuration.** [`Outboxes::configure`] with a new config
//! replaces the policy only: held retries and dead letters stay. With
//! `None` it hands back every held retry to be resolved `Expired`; the
//! dead letters stay listed. Dead letters are requeued only for
//! subscriptions still registered.

use crate::delivery::{FailKind, PushJob};
use crate::detect::SpecDialect;
use crate::registry::{BrokerDeliveryMode, BrokerSubscription, Registry};
use crate::reliability::{
    BreakerConfig, BreakerState, CircuitBreaker, DeadLetter, FaultTolerance, PumpEvent,
    PumpEventKind, PumpReport,
};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;
use wsm_soap::Envelope;
use wsm_xml::SharedElement;

/// One undelivered event: what it carries, `B`, and its causal
/// coordinates.
#[derive(Debug)]
pub(crate) struct Held<B> {
    body: B,
    /// Publication sequence number (the trace id).
    pub(crate) seq: u64,
    /// Virtual time the event was published.
    pub(crate) published_at_ms: u64,
    /// Transient delivery failures so far.
    attempts: u32,
    /// Poison (SOAP-fault) responses so far.
    strikes: u32,
    /// Whether the delivery crosses specification families.
    mediated: bool,
}

/// A pull or wrapped event: the payload, rendered when it leaves.
pub(crate) type Queued = Held<Arc<SharedElement>>;

/// A push retry: the envelope as first rendered.
type Retry = Held<Envelope>;

impl<B> Held<B> {
    /// An event not yet attempted.
    fn new(body: B, seq: u64, published_at_ms: u64, mediated: bool) -> Held<B> {
        Held {
            body,
            seq,
            published_at_ms,
            attempts: 0,
            strikes: 0,
            mediated,
        }
    }

    /// Attempt ordinal: every failure so far was one delivery round.
    pub(crate) fn attempt(&self) -> u32 {
        self.attempts + self.strikes
    }

    /// Its coordinates alone, to resolve its story by.
    fn story(&self) -> Held<()> {
        Held {
            body: (),
            seq: self.seq,
            published_at_ms: self.published_at_ms,
            attempts: self.attempts,
            strikes: self.strikes,
            mediated: self.mediated,
        }
    }

    /// Count one more failed attempt of `kind`.
    fn charge(&mut self, kind: FailKind) {
        match kind {
            FailKind::Transient => self.attempts += 1,
            FailKind::Poison => self.strikes += 1,
        }
    }
}

impl Queued {
    /// The event's payload.
    pub(crate) fn payload(&self) -> &Arc<SharedElement> {
        &self.body
    }

    /// The event's payload, taken out.
    pub(crate) fn into_payload(self) -> Arc<SharedElement> {
        self.body
    }
}

impl Retry {
    /// A push job's envelope, not yet attempted.
    fn rendered(job: &PushJob) -> Retry {
        Held::new(
            job.envelope.clone(),
            job.seq,
            job.published_at_ms,
            job.mediated,
        )
    }
}

/// A pull or wrapped subscription's outbox: its events, waiting to be
/// taken.
struct Queue {
    sub: Arc<BrokerSubscription>,
    held: VecDeque<Queued>,
}

/// A push subscription's outbox: its held retries, the breaker guarding
/// its endpoint, and the virtual time it is next due for a pump.
struct Retries {
    sub: Arc<BrokerSubscription>,
    held: VecDeque<Retry>,
    breaker: CircuitBreaker,
    next_due_ms: u64,
    /// Retries a pump has popped and is sending.
    in_flight: u32,
}

impl Retries {
    /// Holding or sending retries, or tripped: worth keeping.
    fn busy(&self, now_ms: u64) -> bool {
        !self.held.is_empty()
            || self.in_flight > 0
            || self.breaker.state(now_ms) != BreakerState::Closed
    }
}

/// Every outbox of one broker, the fault-tolerance config and the
/// dead-letter store. The broker keeps it behind one lock. A
/// subscription has at most one outbox: a [`Queue`] if it pulls or is
/// wrapped, [`Retries`] if it is pushed to.
#[derive(Default)]
pub(crate) struct Outboxes {
    ft: Option<FaultTolerance>,
    queues: HashMap<Arc<str>, Queue>,
    retries: HashMap<Arc<str>, Retries>,
    dead: Vec<DeadLetter>,
    /// Held push retries across all outboxes.
    depth: usize,
}

impl Outboxes {
    /// The fault-tolerance config, if fault tolerance is on.
    pub(crate) fn ft(&self) -> Option<&FaultTolerance> {
        self.ft.as_ref()
    }

    /// Held push retries.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// The dead-letter store.
    pub(crate) fn dead(&self) -> &[DeadLetter] {
        &self.dead
    }

    /// Install `ft` (module docs, "Configuration"). Returns, in
    /// subscription-id order, the held retries fault tolerance going off
    /// releases, for the caller to resolve `Expired`.
    pub(crate) fn configure(&mut self, ft: Option<FaultTolerance>) -> Vec<(Arc<str>, Held<()>)> {
        let off = ft.is_none();
        self.ft = ft;
        if !off {
            return Vec::new();
        }
        self.depth = 0;
        let mut released: Vec<(Arc<str>, Held<()>)> = self
            .retries
            .drain()
            .flat_map(|(id, r)| r.held.into_iter().map(move |h| (id.clone(), h.story())))
            .collect();
        // Stable: each outbox's retries keep their order.
        released.sort_by(|a, b| a.0.cmp(&b.0));
        released
    }

    /// Push subscription `sub`'s outbox, made on first use.
    fn retries_for(&mut self, sub: &Arc<BrokerSubscription>, now_ms: u64) -> &mut Retries {
        let breaker = self
            .ft
            .as_ref()
            .map_or_else(BreakerConfig::default, |ft| ft.breaker);
        self.retries
            .entry(sub.id.clone())
            .or_insert_with(|| Retries {
                sub: sub.clone(),
                held: VecDeque::new(),
                breaker: CircuitBreaker::new(breaker),
                next_due_ms: now_ms,
                in_flight: 0,
            })
    }

    /// Hold one publication's event at the back of the outbox of each
    /// of `subs`, pull or wrapped. Returns, with its event, each
    /// subscription that has no outbox and has left the registry (the
    /// race rule), for the caller to resolve `Expired`.
    pub(crate) fn hold(
        &mut self,
        registry: &Registry,
        subs: Vec<Arc<BrokerSubscription>>,
        payload: &Arc<SharedElement>,
        seq: u64,
        published_at_ms: u64,
    ) -> Vec<(Arc<BrokerSubscription>, Queued)> {
        let mut gone = Vec::new();
        for sub in subs {
            let held = Held::new(payload.clone(), seq, published_at_ms, false);
            if let Some(queue) = self.queues.get_mut(&sub.id) {
                queue.held.push_back(held);
            } else if registry.get(&sub.id).is_some() {
                let held = VecDeque::from([held]);
                self.queues.insert(sub.id.clone(), Queue { sub, held });
            } else {
                gone.push((sub, held));
            }
        }
        gone
    }

    /// Hold a retry at the back of `sub`'s outbox, which exists or
    /// which the caller has checked `sub` is registered for.
    fn hold_retry(&mut self, sub: &Arc<BrokerSubscription>, held: Retry, now_ms: u64) {
        let outbox = self.retries_for(sub, now_ms);
        outbox.held.push_back(held);
        // An open breaker defers the outbox to its probe time.
        outbox.next_due_ms = outbox
            .next_due_ms
            .max(outbox.breaker.next_allowed_ms(now_ms));
        self.depth += 1;
    }

    /// A fresh push for a subscriber with held retries or an open
    /// breaker is held behind them instead of overtaking on the wire:
    /// `None`. Otherwise the job comes back, to be sent now.
    pub(crate) fn gate(&mut self, job: PushJob, now_ms: u64) -> Option<PushJob> {
        let blocked = self
            .retries
            .get(job.sub_id())
            .is_some_and(|r| !r.held.is_empty() || r.breaker.state(now_ms) == BreakerState::Open);
        if !blocked {
            return Some(job);
        }
        // Into an outbox that exists: no registry check (the race rule).
        self.hold_retry(&job.sub, Retry::rendered(&job), now_ms);
        None
    }

    /// Take in a push the fan-out failed: charge the failure to the
    /// breaker, then hold the message at the *front* of the outbox — it
    /// is older than anything held while the fan-out was in flight —
    /// with backoff, or dead-letter it.
    pub(crate) fn admit_failure(
        &mut self,
        registry: &Registry,
        kind: FailKind,
        job: &PushJob,
        now_ms: u64,
    ) -> PumpEvent {
        let mut held = Retry::rendered(job);
        held.charge(kind);
        PumpEvent {
            seq: job.seq,
            sub_id: job.sub_id().to_string(),
            attempt: job.attempt,
            at_ms: now_ms,
            dur_ns: 0,
            published_at_ms: job.published_at_ms,
            kind: self.fail(registry, job.sub_id(), held, now_ms),
        }
    }

    /// Charge a failed attempt of `held` to subscription `id`'s breaker
    /// and put it back at the front of its outbox with its next backoff,
    /// or dead-letter it if its budget is spent. `Expired` when fault
    /// tolerance is off, or when the subscription has no outbox and has
    /// left the registry (the race rule).
    fn fail(&mut self, registry: &Registry, id: &str, held: Retry, now_ms: u64) -> PumpEventKind {
        let Some(ft) = self.ft.clone() else {
            return PumpEventKind::Expired;
        };
        let outbox = self.retries.get(id).map(|r| r.sub.clone());
        let Some(sub) = outbox.or_else(|| registry.get(id)) else {
            return PumpEventKind::Expired;
        };
        let outbox = self.retries_for(&sub, now_ms);
        outbox.breaker.on_failure(now_ms);
        if ft.exhausted(held.attempts, held.strikes) {
            let letter = dead_letter(&sub, held, now_ms);
            self.dead.push(letter);
            return PumpEventKind::DeadLettered;
        }
        let backoff_ms = ft.backoff_ms(id, held.attempts.max(1));
        outbox.next_due_ms = (now_ms + backoff_ms).max(outbox.breaker.next_allowed_ms(now_ms));
        outbox.held.push_front(held);
        self.depth += 1;
        PumpEventKind::Requeued { backoff_ms }
    }

    /// Take up to `max` held events of pull subscription `id`; nothing
    /// for a subscription of another mode. The queue stays, emptied,
    /// until its subscription leaves, so a consumer that polls keeps
    /// its capacity.
    pub(crate) fn take(&mut self, id: &str, max: usize) -> Vec<Queued> {
        let Some(queue) = self
            .queues
            .get_mut(id)
            .filter(|q| q.sub.mode == BrokerDeliveryMode::Pull)
        else {
            return Vec::new();
        };
        let n = max.min(queue.held.len());
        queue.held.drain(..n).collect()
    }

    /// Take every wrapped subscription's held events, in id order.
    pub(crate) fn take_wrapped(&mut self) -> Vec<(Arc<BrokerSubscription>, Vec<Queued>)> {
        let mut ids: Vec<Arc<str>> = self
            .queues
            .iter()
            .filter(|(_, q)| q.sub.mode == BrokerDeliveryMode::Wrapped)
            .map(|(id, _)| id.clone())
            .collect();
        ids.sort();
        ids.iter()
            .filter_map(|id| self.queues.remove(id))
            .map(|q| (q.sub, q.held.into()))
            .collect()
    }

    /// Remove subscription `id`'s outbox as it leaves, returning what it
    /// held.
    pub(crate) fn retire(&mut self, id: &str) -> Vec<Held<()>> {
        let mut ended: Vec<Held<()>> = self
            .queues
            .remove(id)
            .map_or_else(Vec::new, |q| q.held.iter().map(Held::story).collect());
        if let Some(r) = self.retries.remove(id) {
            self.depth -= r.held.len();
            ended.extend(r.held.iter().map(Held::story));
        }
        ended
    }

    /// Requeue, with a fresh budget, every dead letter whose
    /// subscription is still registered; the others stay listed.
    /// Returns how many were requeued.
    pub(crate) fn redeliver_dead(&mut self, registry: &Registry, now_ms: u64) -> usize {
        if self.ft.is_none() {
            return 0;
        }
        let mut requeued = 0;
        for letter in std::mem::take(&mut self.dead) {
            let Some(sub) = registry.get(&letter.sub_id) else {
                self.dead.push(letter);
                continue;
            };
            let held = Held::new(
                letter.envelope,
                letter.seq,
                letter.published_at_ms,
                letter.mediated,
            );
            self.hold_retry(&sub, held, now_ms);
            requeued += 1;
        }
        requeued
    }

    /// Per-state breaker census: `(open, half_open)` as of `now_ms`.
    pub(crate) fn breaker_census(&self, now_ms: u64) -> (usize, usize) {
        let states = self.retries.values().map(|r| r.breaker.state(now_ms));
        let count = |s| states.clone().filter(|&t| t == s).count();
        (count(BreakerState::Open), count(BreakerState::HalfOpen))
    }

    /// The breaker guarding push subscription `id`, while fault
    /// tolerance is on and it has an outbox.
    pub(crate) fn breaker_state(&self, id: &str, now_ms: u64) -> Option<BreakerState> {
        self.ft.as_ref()?;
        Some(self.retries.get(id)?.breaker.state(now_ms))
    }

    /// The earliest virtual time a push outbox with held retries is due.
    pub(crate) fn next_due_ms(&self) -> Option<u64> {
        self.retries
            .values()
            .filter(|r| !r.held.is_empty())
            .map(|r| r.next_due_ms.max(r.breaker.next_allowed_ms(0)))
            .min()
    }

    /// Outboxes currently kept.
    #[cfg(test)]
    pub(crate) fn count(&self) -> usize {
        self.queues.len() + self.retries.len()
    }
}

fn dead_letter(sub: &BrokerSubscription, held: Retry, now_ms: u64) -> DeadLetter {
    let reason = if held.strikes > 0 && held.attempts == 0 {
        "poison: the endpoint answered with SOAP faults".to_string()
    } else {
        format!("exhausted {} delivery attempts", held.attempts)
    };
    DeadLetter {
        sub_id: sub.id.to_string(),
        address: sub.consumer.address.clone(),
        envelope: held.body,
        wse: matches!(sub.spec, SpecDialect::Wse(_)),
        mediated: held.mediated,
        reason,
        attempts: held.attempts,
        strikes: held.strikes,
        at_ms: now_ms,
        seq: held.seq,
        published_at_ms: held.published_at_ms,
    }
}

/// Pump every due push outbox once, in subscription-id order: attempt
/// the head retry and, on success, keep draining until a failure or the
/// outbox empties. `send(sub, envelope, is_retry)` performs one attempt
/// and runs with the lock released, so a consumer that publishes back
/// into the broker cannot deadlock against it; the outbox counts the
/// attempt as in flight meanwhile, so a concurrent pump keeps it. A
/// failed attempt goes back through the race rule. `None` while fault
/// tolerance is off.
pub(crate) fn pump(
    outboxes: &Mutex<Outboxes>,
    registry: &Registry,
    now_ms: u64,
    send: impl Fn(&BrokerSubscription, Envelope, bool) -> Result<(), FailKind>,
) -> Option<PumpReport> {
    let due: Vec<Arc<str>> = {
        let o = outboxes.lock();
        o.ft.as_ref()?;
        let mut due: Vec<Arc<str>> = o
            .retries
            .iter()
            .filter(|(_, r)| !r.held.is_empty() && now_ms >= r.next_due_ms)
            .map(|(id, _)| id.clone())
            .collect();
        due.sort();
        due
    };
    let mut report = PumpReport::default();
    for id in due {
        loop {
            // Pop the head under the lock, send unlocked.
            let (sub, mut held) = {
                let mut o = outboxes.lock();
                let Some(outbox) = o.retries.get_mut(&id) else {
                    break;
                };
                if !outbox.breaker.allow(now_ms) {
                    outbox.next_due_ms = outbox.breaker.next_allowed_ms(now_ms);
                    break;
                }
                let Some(held) = outbox.held.pop_front() else {
                    break;
                };
                outbox.in_flight += 1;
                let sub = outbox.sub.clone();
                o.depth -= 1;
                (sub, held)
            };
            report.attempted += 1;
            let started = Instant::now();
            let outcome = send(&sub, held.body.clone(), held.attempt() > 0);
            let mut event = PumpEvent {
                seq: held.seq,
                sub_id: id.to_string(),
                attempt: held.attempt(),
                at_ms: now_ms,
                dur_ns: started.elapsed().as_nanos() as u64,
                published_at_ms: held.published_at_ms,
                kind: PumpEventKind::Redelivered,
            };
            let mut o = outboxes.lock();
            if let Some(outbox) = o.retries.get_mut(&id) {
                // Saturating: fault tolerance switched off and on again
                // mid-send may have made this a fresh outbox.
                outbox.in_flight = outbox.in_flight.saturating_sub(1);
            }
            let kind = match outcome {
                Ok(()) => {
                    report.delivered += 1;
                    report.delta.redelivered += 1;
                    if matches!(sub.spec, SpecDialect::Wse(_)) {
                        report.delta.delivered_wse += 1;
                    } else {
                        report.delta.delivered_wsn += 1;
                    }
                    report.delta.mediated += held.mediated as u64;
                    report.events.push(event);
                    let Some(outbox) = o.retries.get_mut(&id) else {
                        break;
                    };
                    outbox.breaker.on_success();
                    outbox.next_due_ms = now_ms;
                    if outbox.held.is_empty() {
                        break;
                    }
                    // Success: keep draining this outbox.
                    continue;
                }
                Err(kind) => kind,
            };
            report.delta.retried += 1;
            held.charge(kind);
            event.kind = o.fail(registry, &id, held, now_ms);
            match event.kind {
                PumpEventKind::DeadLettered => {
                    report.dead_lettered += 1;
                    report.delta.dead_lettered += 1;
                    report.delta.failed += 1;
                }
                PumpEventKind::Requeued { backoff_ms } => {
                    report.requeued += 1;
                    report.backoffs_ms.push(backoff_ms);
                }
                _ => {}
            }
            report.events.push(event);
            // A failed head ends this outbox's turn.
            break;
        }
    }
    // Drop idle outboxes with closed breakers so the census reflects
    // live trouble, not history.
    outboxes.lock().retries.retain(|_, r| r.busy(now_ms));
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::UnifiedFilters;
    use crate::{Stage, WsMessenger};
    use std::thread;
    use std::time::Duration;
    use wsm_addressing::EndpointReference;
    use wsm_eventing::{DeliveryMode, EventSink, SubscribeRequest, Subscriber, WseVersion};
    use wsm_soap::SoapVersion;
    use wsm_transport::{EndpointFaults, FaultPlan, Network};
    use wsm_xml::Element;

    /// A WS-Eventing subscription at `address` in `mode`, registered.
    fn sub(reg: &Registry, address: &str, mode: BrokerDeliveryMode) -> Arc<BrokerSubscription> {
        let id = reg.insert(
            SpecDialect::Wse(WseVersion::Aug2004),
            EndpointReference::new(address),
            None,
            UnifiedFilters::default(),
            mode,
            false,
            None,
        );
        reg.get(&id).unwrap()
    }

    fn push_sub(reg: &Registry, address: &str) -> Arc<BrokerSubscription> {
        sub(reg, address, BrokerDeliveryMode::Push)
    }

    fn job(sub: &Arc<BrokerSubscription>, seq: u64) -> PushJob {
        PushJob {
            sub: sub.clone(),
            envelope: Envelope::new(SoapVersion::V11)
                .with_body(Element::local("e").with_attr("seq", seq.to_string())),
            mediated: false,
            seq,
            published_at_ms: 0,
            attempt: 0,
        }
    }

    fn fault_tolerant(ft: FaultTolerance) -> Mutex<Outboxes> {
        let mut outboxes = Outboxes::default();
        outboxes.configure(Some(ft));
        Mutex::new(outboxes)
    }

    #[test]
    fn fresh_messages_queue_behind_pending_redeliveries() {
        let reg = Registry::new();
        let s = push_sub(&reg, "http://s");
        let o = fault_tolerant(FaultTolerance::default());
        let backoff_ms = FaultTolerance::default().backoff_ms(&s.id, 1);
        let admitted = o
            .lock()
            .admit_failure(&reg, FailKind::Transient, &job(&s, 1), 0);
        assert_eq!(admitted.kind, PumpEventKind::Requeued { backoff_ms });
        assert_eq!(o.lock().next_due_ms(), Some(backoff_ms));
        assert!(
            o.lock().gate(job(&s, 2), 0).is_none(),
            "pending head forces FIFO"
        );
        assert_eq!(o.lock().depth(), 2);

        // Pump at the due time: both deliver, oldest first.
        let due = o.lock().next_due_ms().unwrap();
        let seen = Mutex::new(Vec::new());
        let report = pump(&o, &reg, due, |_, env, _| {
            seen.lock()
                .push(env.body().unwrap().attr("seq").unwrap().to_string());
            Ok(())
        })
        .unwrap();
        assert_eq!(report.delivered, 2);
        assert_eq!(*seen.lock(), vec!["1".to_string(), "2".to_string()]);
        assert_eq!(o.lock().depth(), 0);
        assert!(o.lock().next_due_ms().is_none());
    }

    #[test]
    fn poison_budget_dead_letters_quickly() {
        let reg = Registry::new();
        let s = push_sub(&reg, "http://s");
        let o = fault_tolerant(FaultTolerance {
            poison_budget: 2,
            ..FaultTolerance::default()
        });
        o.lock()
            .admit_failure(&reg, FailKind::Poison, &job(&s, 1), 0);
        assert_eq!(o.lock().depth(), 1);
        let due = o.lock().next_due_ms().unwrap();
        let report = pump(&o, &reg, due, |_, _, _| Err(FailKind::Poison)).unwrap();
        assert_eq!(report.dead_lettered, 1, "second strike kills it");
        let o = o.lock();
        assert_eq!(o.dead().len(), 1);
        assert_eq!(o.dead()[0].sub_id, *s.id);
        assert!(
            o.dead()[0].reason.contains("poison"),
            "{}",
            o.dead()[0].reason
        );
    }

    #[test]
    fn transient_budget_dead_letters_eventually() {
        let reg = Registry::new();
        let s = push_sub(&reg, "http://s");
        let o = fault_tolerant(FaultTolerance {
            max_redeliveries: 3,
            base_backoff_ms: 10,
            jitter_pct: 0,
            ..FaultTolerance::default()
        });
        o.lock()
            .admit_failure(&reg, FailKind::Transient, &job(&s, 1), 0);
        let mut now = 0;
        for _ in 0..8 {
            let Some(due) = o.lock().next_due_ms() else {
                break;
            };
            now = due.max(now);
            pump(&o, &reg, now, |_, _, _| Err(FailKind::Transient));
        }
        let o = o.lock();
        assert_eq!(o.dead().len(), 1);
        assert_eq!(o.depth(), 0);
        assert_eq!(o.dead()[0].attempts, 3);
    }

    #[test]
    fn redeliver_dead_requeues_with_fresh_budget() {
        let reg = Registry::new();
        let s = push_sub(&reg, "http://s");
        let o = fault_tolerant(FaultTolerance {
            poison_budget: 1,
            ..FaultTolerance::default()
        });
        o.lock()
            .admit_failure(&reg, FailKind::Poison, &job(&s, 1), 0);
        assert_eq!(o.lock().dead().len(), 1);
        assert_eq!(o.lock().redeliver_dead(&reg, 100), 1);
        assert_eq!(o.lock().dead().len(), 0);
        assert_eq!(o.lock().depth(), 1);
        let report = pump(&o, &reg, 100, |_, _, _| Ok(())).unwrap();
        assert_eq!(report.delivered, 1);
    }

    #[test]
    fn retire_takes_the_outbox_and_its_depth() {
        let reg = Registry::new();
        let s = push_sub(&reg, "http://s");
        let o = fault_tolerant(FaultTolerance::default());
        o.lock()
            .admit_failure(&reg, FailKind::Transient, &job(&s, 1), 0);
        assert!(o.lock().gate(job(&s, 2), 0).is_none(), "held");
        assert_eq!(o.lock().depth(), 2);
        assert_eq!(o.lock().retire(&s.id).len(), 2, "everything held leaves");
        assert_eq!(o.lock().depth(), 0);
        assert!(o.lock().next_due_ms().is_none());
    }

    #[test]
    fn breaker_census_counts_open_outboxes() {
        let reg = Registry::new();
        let (a, b) = (push_sub(&reg, "http://a"), push_sub(&reg, "http://b"));
        let o = fault_tolerant(FaultTolerance {
            breaker: BreakerConfig {
                failure_threshold: 1,
                open_ms: 1_000,
                max_open_ms: 1_000,
            },
            ..FaultTolerance::default()
        });
        let mut o = o.lock();
        o.admit_failure(&reg, FailKind::Transient, &job(&a, 1), 0);
        o.admit_failure(&reg, FailKind::Transient, &job(&b, 1), 0);
        assert_eq!(o.breaker_census(10), (2, 0));
        assert_eq!(o.breaker_census(1_000), (0, 2), "windows elapsed");
        assert_eq!(o.breaker_state(&a.id, 10), Some(BreakerState::Open));
        assert_eq!(o.breaker_state("zz", 10), None);
    }

    #[test]
    fn queues_and_buffers() {
        let reg = Registry::new();
        let pull = sub(&reg, "http://p", BrokerDeliveryMode::Pull);
        let wrapped = sub(&reg, "http://w", BrokerDeliveryMode::Wrapped);
        let mut o = Outboxes::default();
        let mut hold = |sub: &Arc<BrokerSubscription>, name: &str, seq| {
            let payload = SharedElement::new(Element::local(name));
            assert!(o.hold(&reg, vec![sub.clone()], &payload, seq, 0).is_empty());
        };
        hold(&pull, "a", 1);
        hold(&pull, "b", 2);
        hold(&wrapped, "c", 3);
        let head = o.take(&pull.id, 1);
        assert_eq!(head.len(), 1);
        assert_eq!(head[0].seq, 1, "FIFO keeps causal coordinates");
        assert_eq!(o.take(&pull.id, 10).len(), 1);
        let buffers = o.take_wrapped();
        assert_eq!(buffers.len(), 1);
        assert_eq!(buffers[0].1.len(), 1);
        assert_eq!(
            o.count(),
            1,
            "a pull queue stays until its subscription leaves"
        );
        assert!(o.retire(&pull.id).is_empty());
        assert_eq!(o.count(), 0);
        assert_eq!(o.depth(), 0, "pull and wrapped events are not retries");
    }

    /// The race rule, between `retire`'s two steps: once a subscription
    /// has left the registry, an insert into the outbox `retire` has yet
    /// to take lands there and leaves with it, and an insert that would
    /// make an outbox hands its event back instead.
    #[test]
    fn inserts_after_removal_land_or_are_handed_back() {
        let reg = Registry::new();
        let pull = sub(&reg, "http://p", BrokerDeliveryMode::Pull);
        let s = push_sub(&reg, "http://s");
        let o = fault_tolerant(FaultTolerance::default());
        let mut o = o.lock();
        o.admit_failure(&reg, FailKind::Transient, &job(&s, 1), 0);
        reg.remove(&pull.id);
        reg.remove(&s.id);
        assert!(o.gate(job(&s, 2), 0).is_none(), "held behind the retry");
        let late = o.admit_failure(&reg, FailKind::Transient, &job(&s, 3), 0);
        assert!(matches!(late.kind, PumpEventKind::Requeued { .. }));
        assert_eq!(o.retire(&s.id).len(), 3, "all three leave with it");
        let payload = SharedElement::new(Element::local("a"));
        assert_eq!(o.hold(&reg, vec![pull], &payload, 1, 0).len(), 1);
        let after = o.admit_failure(&reg, FailKind::Transient, &job(&s, 4), 0);
        assert_eq!(after.kind, PumpEventKind::Expired);
        assert_eq!(o.count(), 0, "no outbox made after removal");
        assert_eq!(o.depth(), 0);
    }

    /// A Pull naming a wrapped or push subscription takes nothing from
    /// its outbox.
    #[test]
    fn take_answers_pull_outboxes_only() {
        let reg = Registry::new();
        let wrapped = sub(&reg, "http://w", BrokerDeliveryMode::Wrapped);
        let s = push_sub(&reg, "http://s");
        let o = fault_tolerant(FaultTolerance::default());
        let mut o = o.lock();
        let payload = SharedElement::new(Element::local("a"));
        assert!(o
            .hold(&reg, vec![wrapped.clone()], &payload, 1, 0)
            .is_empty());
        o.admit_failure(&reg, FailKind::Transient, &job(&s, 1), 0);
        assert!(o.take(&wrapped.id, 10).is_empty());
        assert!(o.take(&s.id, 10).is_empty());
        assert_eq!(o.depth(), 1);
        assert_eq!(o.take_wrapped()[0].1.len(), 1, "the buffer stays whole");
        assert_eq!(o.retire(&s.id).len(), 1, "the retry stays held");
    }

    /// A second pump that runs while the first one's send is on the
    /// wire keeps the outbox, so the failed attempt is requeued and
    /// charged to the same breaker.
    #[test]
    fn a_failing_send_survives_a_concurrent_pump() {
        let reg = Registry::new();
        let s = push_sub(&reg, "http://s");
        let o = fault_tolerant(FaultTolerance {
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_ms: 1_000,
                max_open_ms: 1_000,
            },
            ..FaultTolerance::default()
        });
        o.lock()
            .admit_failure(&reg, FailKind::Transient, &job(&s, 1), 0);
        let due = o.lock().next_due_ms().unwrap();
        let report = pump(&o, &reg, due, |_, _, _| {
            // The head is popped: nothing is held, one attempt is on
            // the wire, and the breaker is still closed.
            let other = pump(&o, &reg, due, |_, _, _| Ok(())).unwrap();
            assert_eq!(other.attempted, 0);
            assert_eq!(o.lock().count(), 1, "the outbox is kept");
            Err(FailKind::Transient)
        })
        .unwrap();
        assert_eq!(report.requeued, 1, "{:?}", report.events);
        let o = o.lock();
        assert_eq!(o.depth(), 1);
        assert_eq!(
            o.breaker_state(&s.id, due),
            Some(BreakerState::Open),
            "both failures count"
        );
    }

    /// Retire while fan-outs are in flight: pull, wrapped and flaky push
    /// subscribers unsubscribe while two publishers run, with fault
    /// tolerance on. Every (event, subscriber) story ends exactly once,
    /// nothing stays held, and no outbox outlives its subscription.
    #[test]
    fn churn_resolves_every_held_event_once() {
        const CHURNERS: usize = 12;
        const EVENTS: usize = 30;
        let v = WseVersion::Aug2004;
        let net = Network::new();
        let broker = WsMessenger::start(&net, "http://broker");
        broker.set_fanout_workers(2);
        broker.set_fault_tolerance(Some(FaultTolerance {
            base_backoff_ms: 5,
            max_backoff_ms: 40,
            max_redeliveries: 3,
            ..FaultTolerance::seeded(42)
        }));
        net.set_send_delay_us(50);
        let subscriber = Subscriber::new(&net, v);
        let healthy = EventSink::start(&net, "http://healthy", v);
        subscriber
            .subscribe(broker.uri(), SubscribeRequest::push(healthy.epr()))
            .expect("subscribe");
        let mut plan = FaultPlan::seeded(42);
        let mut sinks = Vec::new();
        let mut churners = Vec::new();
        for k in 0..CHURNERS {
            let uri = format!("http://churner-{k}");
            let mode = [
                DeliveryMode::Pull,
                DeliveryMode::Wrapped,
                DeliveryMode::Push,
            ][k % 3];
            if mode == DeliveryMode::Push {
                plan = plan.with_endpoint(&uri, EndpointFaults::new().with_drop_rate(0.5));
            }
            sinks.push(EventSink::start(&net, &uri, v));
            let req = SubscribeRequest::push(sinks[k].epr()).with_mode(mode);
            let handle = subscriber.subscribe(broker.uri(), req).expect("subscribe");
            churners.push((handle, mode));
        }
        net.set_fault_plan(plan);

        let publishers: Vec<_> = (0..2)
            .map(|p| {
                let (broker, net) = (broker.clone(), net.clone());
                thread::spawn(move || {
                    for i in 0..EVENTS {
                        broker.publish_raw(&Element::local("e").with_attr("n", format!("{p}-{i}")));
                        net.clock().advance_ms(3);
                    }
                })
            })
            .collect();
        let churn = {
            let (broker, net) = (broker.clone(), net.clone());
            thread::spawn(move || {
                let subscriber = Subscriber::new(&net, v);
                for (handle, mode) in churners {
                    thread::sleep(Duration::from_millis(1));
                    match mode {
                        DeliveryMode::Pull => {
                            subscriber.pull(&handle, 2).expect("pull");
                        }
                        DeliveryMode::Wrapped => {
                            broker.flush_wrapped();
                        }
                        DeliveryMode::Push => {}
                    }
                    subscriber.unsubscribe(&handle).expect("unsubscribe");
                }
            })
        };
        for p in publishers {
            p.join().expect("publisher thread");
        }
        churn.join().expect("churn thread");
        broker.drain_redeliveries(600_000);
        net.set_send_delay_us(0);

        assert_eq!(healthy.received().len(), 2 * EVENTS);
        assert_eq!(broker.obs_snapshot().spans_evicted, 0, "ring holds the run");
        let stories = broker.delivery_stories();
        assert!(stories.len() > 2 * EVENTS, "the churners held events too");
        for s in &stories {
            let ends = s.spans.iter().filter(|sp| sp.stage == Stage::Resolve);
            assert_eq!(
                ends.count(),
                1,
                "{} for {}: {:?}",
                s.seq,
                s.subscriber,
                s.spans
            );
        }
        assert_eq!(broker.redelivery_depth(), 0);
        assert_eq!(broker.outbox_count(), 0);
    }
}
