//! Fault-tolerant delivery: redelivery queue, circuit breakers, and
//! the dead-letter store.
//!
//! The seed broker's failure handling was binary: retry a failed push
//! a fixed number of times back-to-back, then *permanently drop* the
//! subscription — one transient network blip evicted a subscriber.
//! This module replaces that with the delivery-guarantee machinery the
//! paper inherits from CORBA Notification QoS and JMS redelivery
//! semantics:
//!
//! * a **redelivery queue** — failed pushes re-enqueue per subscriber
//!   with exponential backoff and deterministic, seeded jitter against
//!   the virtual clock, so chaos runs replay bit-for-bit;
//! * a **per-subscriber circuit breaker** (closed → open → half-open)
//!   that stops burning delivery attempts on a flapping endpoint and
//!   probes it once per open window instead;
//! * a **dead-letter store** for messages that exhaust their budget:
//!   [`FaultTolerance::max_redeliveries`] transient attempts, or —
//!   per the poison/transient distinction in
//!   [`crate::delivery::FailKind`] — a much smaller
//!   [`FaultTolerance::poison_budget`] of SOAP-fault responses.
//!
//! Ordering is preserved per subscriber: each subscriber has one FIFO
//! channel, a new notification enqueues *behind* any pending
//! redeliveries for that subscriber, and the pump never delivers entry
//! *n+1* before entry *n* has been delivered or dead-lettered.
//!
//! Nothing here runs on its own thread — the clock is virtual. The
//! broker pumps the queue on every publication it ingests, and tests
//! or embedders drive [`crate::WsMessenger::drain_redeliveries`] to
//! advance the clock to each due time until the queue empties.

use crate::delivery::{FailKind, PushJob, StatsDelta};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use wsm_soap::Envelope;

// ------------------------------------------------------------- config

/// Tuning for the fault-tolerant delivery path. Installed with
/// [`WsMessenger::set_fault_tolerance`](crate::WsMessenger::set_fault_tolerance);
/// `None` keeps the seed behavior (drop the subscription on failure).
#[derive(Debug, Clone)]
pub struct FaultTolerance {
    /// First-retry backoff in virtual milliseconds (minimum 1).
    pub base_backoff_ms: u64,
    /// Backoff ceiling (the exponential doubling caps here).
    pub max_backoff_ms: u64,
    /// Jitter amplitude as a percentage of the computed delay
    /// (`0..=100`). Jitter is derived from `seed`, the subscription id
    /// and the attempt ordinal — deterministic, not random.
    pub jitter_pct: u64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
    /// Transient attempts a message gets before it is dead-lettered.
    pub max_redeliveries: u32,
    /// Poison (SOAP-fault) responses a message may provoke before it
    /// is dead-lettered. Poison responses mean the endpoint is alive
    /// and rejecting, so this budget is much smaller.
    pub poison_budget: u32,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        FaultTolerance {
            base_backoff_ms: 100,
            max_backoff_ms: 10_000,
            jitter_pct: 20,
            seed: 0,
            max_redeliveries: 24,
            poison_budget: 3,
            breaker: BreakerConfig::default(),
        }
    }
}

impl FaultTolerance {
    /// A config with an explicit jitter seed.
    pub fn seeded(seed: u64) -> Self {
        FaultTolerance {
            seed,
            ..FaultTolerance::default()
        }
    }

    /// The backoff delay before attempt `attempt` (1-based) of the
    /// channel keyed by `key`: exponential from
    /// [`base_backoff_ms`](Self::base_backoff_ms), capped at
    /// [`max_backoff_ms`](Self::max_backoff_ms), plus deterministic
    /// jitter of ±[`jitter_pct`](Self::jitter_pct)%.
    pub fn backoff_ms(&self, key: &str, attempt: u32) -> u64 {
        let base = self.base_backoff_ms.max(1);
        let exp = attempt.saturating_sub(1).min(32);
        let delay = base
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ms.max(base));
        let span = delay * self.jitter_pct.min(100) / 100;
        if span == 0 {
            return delay;
        }
        let j = mix(self.seed, fnv(key), attempt as u64) % (2 * span + 1);
        delay - span + j
    }
}

/// Splitmix64-style finalizer: the deterministic jitter source.
fn mix(seed: u64, key: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(key.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(n.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ------------------------------------------------------------ breaker

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a closed breaker open.
    pub failure_threshold: u32,
    /// Initial open window in virtual milliseconds.
    pub open_ms: u64,
    /// Ceiling for the open window (doubles on each failed probe).
    pub max_open_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_ms: 500,
            max_open_ms: 8_000,
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Deliveries flow normally.
    Closed,
    /// The endpoint is shedding load; no deliveries until the open
    /// window elapses.
    Open,
    /// The open window elapsed; the next delivery is a probe.
    HalfOpen,
}

/// One subscriber's circuit breaker on the virtual clock.
///
/// Closed until [`BreakerConfig::failure_threshold`] *consecutive*
/// failures, then open for an exponentially growing window; the first
/// attempt after the window is a half-open probe whose outcome either
/// re-closes the breaker (and resets the window) or re-opens it with
/// the window doubled (capped at [`BreakerConfig::max_open_ms`]).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until_ms: u64,
    current_open_ms: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        let current_open_ms = config.open_ms.max(1);
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until_ms: 0,
            current_open_ms,
        }
    }

    /// The state as of `now_ms` (an open breaker whose window elapsed
    /// reports half-open).
    pub fn state(&self, now_ms: u64) -> BreakerState {
        match self.state {
            BreakerState::Open if now_ms >= self.open_until_ms => BreakerState::HalfOpen,
            s => s,
        }
    }

    /// May a delivery be attempted at `now_ms`? Transitions an
    /// expired open window to half-open.
    pub fn allow(&mut self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now_ms >= self.open_until_ms {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Virtual time when an open breaker next allows a probe (`now`
    /// for closed/half-open breakers).
    pub fn next_allowed_ms(&self, now_ms: u64) -> u64 {
        match self.state {
            BreakerState::Open => self.open_until_ms.max(now_ms),
            _ => now_ms,
        }
    }

    /// Record a successful delivery: re-close and reset.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.current_open_ms = self.config.open_ms.max(1);
    }

    /// Record a failed delivery at `now_ms`. A closed breaker trips
    /// after the threshold; a failed half-open probe re-opens with the
    /// window doubled.
    pub fn on_failure(&mut self, now_ms: u64) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold.max(1) {
                    self.state = BreakerState::Open;
                    self.open_until_ms = now_ms + self.current_open_ms;
                }
            }
            BreakerState::HalfOpen => {
                self.current_open_ms =
                    (self.current_open_ms * 2).min(self.config.max_open_ms.max(1));
                self.state = BreakerState::Open;
                self.open_until_ms = now_ms + self.current_open_ms;
            }
            BreakerState::Open => {
                // A failure reported while open (e.g. from a fan-out
                // racing the trip) just extends nothing.
            }
        }
    }
}

// ------------------------------------------------------- queue + DLQ

/// One message waiting for redelivery.
#[derive(Debug, Clone)]
pub struct PendingDelivery {
    /// The rendered envelope, ready to resend.
    pub envelope: Envelope,
    /// Whether the consumer is WS-Eventing (for the per-family stat).
    pub wse: bool,
    /// Whether the delivery crosses specification families.
    pub mediated: bool,
    /// Transient attempts so far.
    pub attempts: u32,
    /// Poison (SOAP-fault) responses provoked so far.
    pub strikes: u32,
    /// Virtual time the message first entered the queue.
    pub enqueued_at_ms: u64,
    /// Publication sequence number of the event being carried.
    pub seq: u64,
    /// Virtual time the event was originally published.
    pub published_at_ms: u64,
}

/// A message that exhausted its delivery budget.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// Subscription the message was for.
    pub sub_id: String,
    /// Consumer address.
    pub address: String,
    /// The undeliverable envelope.
    pub envelope: Envelope,
    /// Whether the consumer is WS-Eventing (for the per-family stat
    /// when the letter is redelivered).
    pub wse: bool,
    /// Whether the delivery crosses specification families.
    pub mediated: bool,
    /// Why it was dead-lettered.
    pub reason: String,
    /// Transient attempts spent.
    pub attempts: u32,
    /// Poison responses provoked.
    pub strikes: u32,
    /// Virtual time of dead-lettering.
    pub at_ms: u64,
    /// Publication sequence number of the event being carried.
    pub seq: u64,
    /// Virtual time the event was originally published.
    pub published_at_ms: u64,
}

/// One subscriber's redelivery channel: a FIFO of pending messages,
/// the breaker guarding the endpoint, and the next virtual time the
/// channel is due for a pump.
#[derive(Debug)]
struct SubChannel {
    address: String,
    queue: VecDeque<PendingDelivery>,
    breaker: CircuitBreaker,
    next_due_ms: u64,
}

#[derive(Default)]
struct RelInner {
    channels: HashMap<String, SubChannel>,
    dead: Vec<DeadLetter>,
    /// Messages currently queued across all channels.
    depth: usize,
}

/// What happened when a failed fan-out job was admitted to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// Enqueued for redelivery; the channel is due at the given
    /// virtual time.
    Requeued {
        /// When the channel will next attempt it.
        due_ms: u64,
        /// The backoff delay that produced `due_ms`.
        backoff_ms: u64,
    },
    /// The message exhausted its budget and moved to the dead-letter
    /// store.
    DeadLettered,
}

/// How one pump attempt ended, for the broker's causal trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpEventKind {
    /// The attempt delivered the message.
    Redelivered,
    /// The attempt failed; the message was requeued with the given
    /// backoff delay.
    Requeued {
        /// The backoff delay scheduled for the next attempt.
        backoff_ms: u64,
    },
    /// The attempt failed and exhausted the budget; the message moved
    /// to the dead-letter store.
    DeadLettered,
}

/// One pump attempt, reported back so the broker can record the
/// per-attempt span and, on a terminal outcome, the end-to-end
/// resolution for the (event, subscriber) pair.
#[derive(Debug, Clone)]
pub struct PumpEvent {
    /// Publication sequence number of the event.
    pub seq: u64,
    /// Subscription the attempt was for.
    pub sub_id: String,
    /// Attempt ordinal at send time (0 = the first-ever delivery
    /// round for this (event, subscriber) pair).
    pub attempt: u32,
    /// Virtual time of the attempt.
    pub at_ms: u64,
    /// Wall-clock duration of the send, nanoseconds.
    pub dur_ns: u64,
    /// Virtual time the event was originally published.
    pub published_at_ms: u64,
    /// How the attempt ended.
    pub kind: PumpEventKind,
}

/// One pump pass's outcomes, for the broker to merge into its stats
/// and metrics.
#[derive(Debug, Default)]
pub struct PumpReport {
    /// Deliveries attempted.
    pub attempted: u64,
    /// Deliveries that succeeded (stat increments included in
    /// `delta`).
    pub delivered: u64,
    /// Messages put back with a new backoff.
    pub requeued: u64,
    /// Messages moved to the dead-letter store.
    pub dead_lettered: u64,
    /// Stat increments for the broker's mediation counters.
    pub delta: StatsDelta,
    /// Backoff delays scheduled during the pass (for the backoff
    /// histogram).
    pub backoffs_ms: Vec<u64>,
    /// Per-attempt outcomes for the causal trace.
    pub events: Vec<PumpEvent>,
}

impl PumpReport {
    /// Fold another pass's outcomes into this one.
    pub fn absorb(&mut self, other: PumpReport) {
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.requeued += other.requeued;
        self.dead_lettered += other.dead_lettered;
        self.delta.delivered_wse += other.delta.delivered_wse;
        self.delta.delivered_wsn += other.delta.delivered_wsn;
        self.delta.mediated += other.delta.mediated;
        self.delta.failed += other.delta.failed;
        self.delta.retried += other.delta.retried;
        self.delta.redelivered += other.delta.redelivered;
        self.delta.dead_lettered += other.delta.dead_lettered;
        self.backoffs_ms.extend(other.backoffs_ms);
        self.events.extend(other.events);
    }
}

/// The broker's fault-tolerance state: per-subscriber redelivery
/// channels, breakers, and the dead-letter store.
pub struct ReliabilityState {
    config: FaultTolerance,
    inner: Mutex<RelInner>,
}

impl ReliabilityState {
    /// Fresh state under `config`.
    pub fn new(config: FaultTolerance) -> Self {
        ReliabilityState {
            config,
            inner: Mutex::new(RelInner::default()),
        }
    }

    /// The active config.
    pub fn config(&self) -> &FaultTolerance {
        &self.config
    }

    /// Messages queued for redelivery across all subscribers.
    pub fn depth(&self) -> usize {
        self.inner.lock().depth
    }

    /// Dead letters currently stored.
    pub fn dead_count(&self) -> usize {
        self.inner.lock().dead.len()
    }

    /// Snapshot of the dead-letter store.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.inner.lock().dead.clone()
    }

    /// Per-state breaker census: `(open, half_open)` counts as of
    /// `now_ms`.
    pub fn breaker_census(&self, now_ms: u64) -> (usize, usize) {
        let inner = self.inner.lock();
        let mut open = 0;
        let mut half = 0;
        for ch in inner.channels.values() {
            match ch.breaker.state(now_ms) {
                BreakerState::Open => open += 1,
                BreakerState::HalfOpen => half += 1,
                BreakerState::Closed => {}
            }
        }
        (open, half)
    }

    /// The breaker state for one subscription, if it has a channel.
    pub fn breaker_state(&self, sub_id: &str, now_ms: u64) -> Option<BreakerState> {
        self.inner
            .lock()
            .channels
            .get(sub_id)
            .map(|ch| ch.breaker.state(now_ms))
    }

    /// The earliest virtual time any non-empty channel is due, if any.
    pub fn next_due_ms(&self) -> Option<u64> {
        let inner = self.inner.lock();
        inner
            .channels
            .values()
            .filter(|ch| !ch.queue.is_empty())
            .map(|ch| ch.next_due_ms.max(ch.breaker.next_allowed_ms(0)))
            .min()
    }

    /// Must a fresh notification for `sub_id` bypass the fan-out
    /// engine and enqueue instead? True when the subscriber already
    /// has pending redeliveries (FIFO order would break otherwise) or
    /// its breaker is shedding load.
    pub fn must_enqueue(&self, sub_id: &str, now_ms: u64) -> bool {
        let inner = self.inner.lock();
        match inner.channels.get(sub_id) {
            Some(ch) => {
                !ch.queue.is_empty() || matches!(ch.breaker.state(now_ms), BreakerState::Open)
            }
            None => false,
        }
    }

    /// Append a fresh notification to `sub_id`'s channel (behind any
    /// pending redeliveries).
    pub fn enqueue_new(&self, job: PushJob, now_ms: u64) {
        let mut inner = self.inner.lock();
        let breaker_cfg = self.config.breaker;
        let ch = inner
            .channels
            .entry(job.sub_id().to_string())
            .or_insert_with(|| SubChannel {
                address: job.address().to_string(),
                queue: VecDeque::new(),
                breaker: CircuitBreaker::new(breaker_cfg),
                next_due_ms: now_ms,
            });
        ch.queue.push_back(PendingDelivery {
            wse: job.wse(),
            envelope: job.envelope,
            mediated: job.mediated,
            attempts: 0,
            strikes: 0,
            enqueued_at_ms: now_ms,
            seq: job.seq,
            published_at_ms: job.published_at_ms,
        });
        // An open breaker defers the channel to its probe time.
        ch.next_due_ms = ch.next_due_ms.max(ch.breaker.next_allowed_ms(now_ms));
        inner.depth += 1;
    }

    /// Admit a job the fan-out engine failed: charge the failure to
    /// the breaker and either requeue the message with backoff or
    /// dead-letter it. The job is only read — the queue keeps a clone
    /// of its copy-on-write envelope — so the caller still has the
    /// coordinates to trace the outcome with.
    pub fn admit_failure(&self, kind: FailKind, job: &PushJob, now_ms: u64) -> Admitted {
        let mut inner = self.inner.lock();
        let breaker_cfg = self.config.breaker;
        let ch = inner
            .channels
            .entry(job.sub_id().to_string())
            .or_insert_with(|| SubChannel {
                address: job.address().to_string(),
                queue: VecDeque::new(),
                breaker: CircuitBreaker::new(breaker_cfg),
                next_due_ms: now_ms,
            });
        ch.breaker.on_failure(now_ms);
        let pending = PendingDelivery {
            envelope: job.envelope.clone(),
            wse: job.wse(),
            mediated: job.mediated,
            attempts: if kind == FailKind::Transient { 1 } else { 0 },
            strikes: if kind == FailKind::Poison { 1 } else { 0 },
            enqueued_at_ms: now_ms,
            seq: job.seq,
            published_at_ms: job.published_at_ms,
        };
        if self.exhausted(&pending) {
            let dl = dead_letter_of(job.sub_id(), &ch.address, pending, now_ms);
            inner.dead.push(dl);
            return Admitted::DeadLettered;
        }
        let backoff_ms = self
            .config
            .backoff_ms(job.sub_id(), pending.attempts.max(1));
        // The failed message is older than anything a later
        // publication enqueued while the fan-out was in flight, so it
        // goes to the *front* of the channel.
        let due_ms = now_ms + backoff_ms;
        let breaker_due = ch.breaker.next_allowed_ms(now_ms);
        ch.next_due_ms = due_ms.max(breaker_due);
        ch.queue.push_front(pending);
        inner.depth += 1;
        Admitted::Requeued { due_ms, backoff_ms }
    }

    fn exhausted(&self, p: &PendingDelivery) -> bool {
        p.strikes >= self.config.poison_budget.max(1)
            || p.attempts >= self.config.max_redeliveries.max(1)
    }

    /// Channels due for a delivery attempt at `now_ms`.
    fn due_channels(&self, now_ms: u64) -> Vec<String> {
        let inner = self.inner.lock();
        let mut due: Vec<String> = inner
            .channels
            .iter()
            .filter(|(_, ch)| !ch.queue.is_empty() && now_ms >= ch.next_due_ms)
            .map(|(id, _)| id.clone())
            .collect();
        // Deterministic pump order regardless of hash-map iteration.
        due.sort();
        due
    }

    /// Pump every due channel once: attempt the head message (and on
    /// success keep draining until a failure or the queue empties).
    ///
    /// `send` performs one delivery attempt — the `bool` argument is
    /// true when the attempt is a re-send rather than the message's
    /// first-ever delivery round — and reports how it went; the pump
    /// owns all bookkeeping. The send runs *outside* the state lock so
    /// a consumer handler that publishes back into the broker cannot
    /// deadlock against it.
    pub fn pump(
        &self,
        now_ms: u64,
        send: &dyn Fn(&str, Envelope, bool) -> Result<(), FailKind>,
    ) -> PumpReport {
        let mut report = PumpReport::default();
        for sub_id in self.due_channels(now_ms) {
            loop {
                // Pop the head under the lock, send unlocked.
                let (address, pending) = {
                    let mut inner = self.inner.lock();
                    let Some(ch) = inner.channels.get_mut(&sub_id) else {
                        break;
                    };
                    if !ch.breaker.allow(now_ms) {
                        ch.next_due_ms = ch.breaker.next_allowed_ms(now_ms);
                        break;
                    }
                    let Some(p) = ch.queue.pop_front() else { break };
                    inner.depth -= 1;
                    let address = inner.channels[&sub_id].address.clone();
                    (address, p)
                };
                report.attempted += 1;
                // Attempt ordinal: every prior failure (transient or
                // poison) was one delivery round.
                let attempt = pending.attempts + pending.strikes;
                let send_started = std::time::Instant::now();
                let outcome = send(&address, pending.envelope.clone(), attempt > 0);
                let dur_ns = send_started.elapsed().as_nanos() as u64;
                let mut event = PumpEvent {
                    seq: pending.seq,
                    sub_id: sub_id.clone(),
                    attempt,
                    at_ms: now_ms,
                    dur_ns,
                    published_at_ms: pending.published_at_ms,
                    kind: PumpEventKind::Redelivered,
                };
                let mut inner = self.inner.lock();
                let Some(ch) = inner.channels.get_mut(&sub_id) else {
                    break;
                };
                match outcome {
                    Ok(()) => {
                        ch.breaker.on_success();
                        ch.next_due_ms = now_ms;
                        report.delivered += 1;
                        report.delta.redelivered += 1;
                        if pending.wse {
                            report.delta.delivered_wse += 1;
                        } else {
                            report.delta.delivered_wsn += 1;
                        }
                        if pending.mediated {
                            report.delta.mediated += 1;
                        }
                        report.events.push(event);
                        if ch.queue.is_empty() {
                            break;
                        }
                        // Success: keep draining this channel.
                    }
                    Err(kind) => {
                        ch.breaker.on_failure(now_ms);
                        let mut p = pending;
                        match kind {
                            FailKind::Transient => p.attempts += 1,
                            FailKind::Poison => p.strikes += 1,
                        }
                        report.delta.retried += 1;
                        if self.exhausted(&p) {
                            let dl = dead_letter_of(&sub_id, &ch.address, p, now_ms);
                            inner.dead.push(dl);
                            report.dead_lettered += 1;
                            report.delta.dead_lettered += 1;
                            report.delta.failed += 1;
                            event.kind = PumpEventKind::DeadLettered;
                            report.events.push(event);
                            // The head is gone; the next message may
                            // be attempted on the channel's next turn,
                            // not in this burst.
                        } else {
                            let backoff_ms = self.config.backoff_ms(&sub_id, p.attempts.max(1));
                            let due = now_ms + backoff_ms;
                            ch.next_due_ms = due.max(ch.breaker.next_allowed_ms(now_ms));
                            ch.queue.push_front(p);
                            inner.depth += 1;
                            report.requeued += 1;
                            report.backoffs_ms.push(backoff_ms);
                            event.kind = PumpEventKind::Requeued { backoff_ms };
                            report.events.push(event);
                        }
                        break;
                    }
                }
            }
        }
        // Drop drained channels with closed breakers so the census
        // reflects live trouble, not history.
        let mut inner = self.inner.lock();
        inner.channels.retain(|_, ch| {
            !ch.queue.is_empty() || ch.breaker.state(now_ms) != BreakerState::Closed
        });
        report
    }

    /// Move every dead letter back into its subscriber's channel with
    /// a fresh budget. Returns how many were requeued.
    pub fn redeliver_dead(&self, now_ms: u64) -> usize {
        let mut inner = self.inner.lock();
        let dead = std::mem::take(&mut inner.dead);
        let n = dead.len();
        let breaker_cfg = self.config.breaker;
        for dl in dead {
            let ch = inner
                .channels
                .entry(dl.sub_id.clone())
                .or_insert_with(|| SubChannel {
                    address: dl.address.clone(),
                    queue: VecDeque::new(),
                    breaker: CircuitBreaker::new(breaker_cfg),
                    next_due_ms: now_ms,
                });
            ch.queue.push_back(PendingDelivery {
                envelope: dl.envelope,
                wse: dl.wse,
                mediated: dl.mediated,
                attempts: 0,
                strikes: 0,
                enqueued_at_ms: now_ms,
                seq: dl.seq,
                published_at_ms: dl.published_at_ms,
            });
            inner.depth += 1;
        }
        n
    }

    /// Forget a subscriber's channel (unsubscribe/expiry cleanup).
    /// Returns the pending deliveries that were discarded, so the
    /// caller can resolve their causal timelines as expired.
    pub fn forget(&self, sub_id: &str) -> Vec<PendingDelivery> {
        let mut inner = self.inner.lock();
        match inner.channels.remove(sub_id) {
            Some(ch) => {
                inner.depth -= ch.queue.len();
                ch.queue.into()
            }
            None => Vec::new(),
        }
    }
}

fn dead_letter_of(sub_id: &str, address: &str, p: PendingDelivery, now_ms: u64) -> DeadLetter {
    let reason = if p.strikes > 0 && p.attempts == 0 {
        "poison: the endpoint answered with SOAP faults".to_string()
    } else {
        format!("exhausted {} delivery attempts", p.attempts)
    };
    DeadLetter {
        sub_id: sub_id.to_string(),
        address: address.to_string(),
        envelope: p.envelope,
        wse: p.wse,
        mediated: p.mediated,
        reason,
        attempts: p.attempts,
        strikes: p.strikes,
        at_ms: now_ms,
        seq: p.seq,
        published_at_ms: p.published_at_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_soap::SoapVersion;
    use wsm_xml::Element;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_ms: 500,
            max_open_ms: 2_000,
        }
    }

    #[test]
    fn breaker_trips_after_threshold() {
        let mut b = CircuitBreaker::new(cfg());
        assert_eq!(b.state(0), BreakerState::Closed);
        b.on_failure(10);
        b.on_failure(20);
        assert_eq!(b.state(20), BreakerState::Closed, "below threshold");
        assert!(b.allow(20));
        b.on_failure(30);
        assert_eq!(b.state(30), BreakerState::Open);
        assert!(!b.allow(30), "open breaker sheds load");
        assert_eq!(b.next_allowed_ms(30), 530);
    }

    #[test]
    fn breaker_half_open_probe_recloses_on_success() {
        let mut b = CircuitBreaker::new(cfg());
        for t in [0, 1, 2] {
            b.on_failure(t);
        }
        assert!(!b.allow(100));
        // Window elapses → half-open, one probe allowed.
        assert!(b.allow(502));
        assert_eq!(b.state(502), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(502), BreakerState::Closed);
        // Reset: tripping again uses the initial window, not a
        // doubled one.
        for t in [600, 601, 602] {
            b.on_failure(t);
        }
        assert_eq!(b.next_allowed_ms(602), 602 + 500);
    }

    #[test]
    fn breaker_failed_probe_doubles_the_window() {
        let mut b = CircuitBreaker::new(cfg());
        for t in [0, 0, 0] {
            b.on_failure(t);
        }
        assert!(b.allow(500), "first probe at 500");
        b.on_failure(500);
        assert_eq!(b.state(500), BreakerState::Open);
        assert!(!b.allow(1400), "doubled window: 500 + 1000");
        assert!(b.allow(1500));
        b.on_failure(1500);
        assert!(!b.allow(3400), "2000 cap: 1500 + 2000");
        assert!(b.allow(3500));
        b.on_success();
        assert_eq!(b.state(3500), BreakerState::Closed);
    }

    #[test]
    fn breaker_success_resets_consecutive_count() {
        let mut b = CircuitBreaker::new(cfg());
        b.on_failure(0);
        b.on_failure(0);
        b.on_success();
        b.on_failure(0);
        b.on_failure(0);
        assert_eq!(b.state(0), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let ft = FaultTolerance {
            base_backoff_ms: 100,
            max_backoff_ms: 1_000,
            jitter_pct: 20,
            seed: 42,
            ..FaultTolerance::default()
        };
        for attempt in 1..=8 {
            let d1 = ft.backoff_ms("wsm-1", attempt);
            let d2 = ft.backoff_ms("wsm-1", attempt);
            assert_eq!(d1, d2, "jitter is a pure function");
            let nominal = (100u64 << (attempt - 1)).min(1_000);
            let span = nominal / 5;
            assert!(
                (nominal - span..=nominal + span).contains(&d1),
                "attempt {attempt}: {d1} outside {nominal}±{span}"
            );
        }
        // Different subscribers decorrelate.
        assert_ne!(ft.backoff_ms("wsm-1", 1), ft.backoff_ms("wsm-2", 1));
    }

    fn job(sub: &str, seq: u64) -> PushJob {
        PushJob {
            sub: crate::registry::test_sub(sub, &format!("http://{sub}"), true),
            envelope: Envelope::new(SoapVersion::V11)
                .with_body(Element::local("e").with_attr("seq", seq.to_string())),
            mediated: false,
            seq,
            published_at_ms: 0,
            attempt: 0,
        }
    }

    #[test]
    fn fresh_messages_queue_behind_pending_redeliveries() {
        let state = ReliabilityState::new(FaultTolerance::default());
        assert_eq!(
            state.admit_failure(FailKind::Transient, &job("s", 1), 0),
            Admitted::Requeued {
                due_ms: state.config.backoff_ms("s", 1),
                backoff_ms: state.config.backoff_ms("s", 1),
            }
        );
        assert!(state.must_enqueue("s", 0), "pending head forces FIFO");
        state.enqueue_new(job("s", 2), 0);
        assert_eq!(state.depth(), 2);

        // Pump at the due time: both deliver, oldest first.
        let due = state.next_due_ms().unwrap();
        let seen = Mutex::new(Vec::new());
        let report = state.pump(due, &|_, env, _| {
            seen.lock()
                .push(env.body().unwrap().attr("seq").unwrap().to_string());
            Ok(())
        });
        assert_eq!(report.delivered, 2);
        assert_eq!(*seen.lock(), vec!["1".to_string(), "2".to_string()]);
        assert_eq!(state.depth(), 0);
        assert!(state.next_due_ms().is_none());
    }

    #[test]
    fn poison_budget_dead_letters_quickly() {
        let ft = FaultTolerance {
            poison_budget: 2,
            ..FaultTolerance::default()
        };
        let state = ReliabilityState::new(ft);
        state.admit_failure(FailKind::Poison, &job("s", 1), 0);
        assert_eq!(state.depth(), 1);
        let due = state.next_due_ms().unwrap();
        let report = state.pump(due, &|_, _, _| Err(FailKind::Poison));
        assert_eq!(report.dead_lettered, 1, "second strike kills it");
        assert_eq!(state.dead_count(), 1);
        let dl = &state.dead_letters()[0];
        assert_eq!(dl.sub_id, "s");
        assert!(dl.reason.contains("poison"), "{}", dl.reason);
    }

    #[test]
    fn transient_budget_dead_letters_eventually() {
        let ft = FaultTolerance {
            max_redeliveries: 3,
            base_backoff_ms: 10,
            jitter_pct: 0,
            ..FaultTolerance::default()
        };
        let state = ReliabilityState::new(ft);
        state.admit_failure(FailKind::Transient, &job("s", 1), 0);
        let mut now = 0;
        for _ in 0..8 {
            let Some(due) = state.next_due_ms() else {
                break;
            };
            now = due.max(now);
            state.pump(now, &|_, _, _| Err(FailKind::Transient));
        }
        assert_eq!(state.dead_count(), 1);
        assert_eq!(state.depth(), 0);
        assert_eq!(state.dead_letters()[0].attempts, 3);
    }

    #[test]
    fn redeliver_dead_requeues_with_fresh_budget() {
        let ft = FaultTolerance {
            poison_budget: 1,
            ..FaultTolerance::default()
        };
        let state = ReliabilityState::new(ft);
        state.admit_failure(FailKind::Poison, &job("s", 1), 0);
        assert_eq!(state.dead_count(), 1);
        assert_eq!(state.redeliver_dead(100), 1);
        assert_eq!(state.dead_count(), 0);
        assert_eq!(state.depth(), 1);
        let report = state.pump(100, &|_, _, _| Ok(()));
        assert_eq!(report.delivered, 1);
    }

    #[test]
    fn forget_clears_channel_and_depth() {
        let state = ReliabilityState::new(FaultTolerance::default());
        state.admit_failure(FailKind::Transient, &job("s", 1), 0);
        state.enqueue_new(job("s", 2), 0);
        assert_eq!(state.depth(), 2);
        state.forget("s");
        assert_eq!(state.depth(), 0);
        assert!(state.next_due_ms().is_none());
    }

    #[test]
    fn breaker_census_counts_open_channels() {
        let cfgd = FaultTolerance {
            breaker: BreakerConfig {
                failure_threshold: 1,
                open_ms: 1_000,
                max_open_ms: 1_000,
            },
            ..FaultTolerance::default()
        };
        let state = ReliabilityState::new(cfgd);
        state.admit_failure(FailKind::Transient, &job("a", 1), 0);
        state.admit_failure(FailKind::Transient, &job("b", 1), 0);
        assert_eq!(state.breaker_census(10), (2, 0));
        assert_eq!(state.breaker_census(1_000), (0, 2), "windows elapsed");
        assert_eq!(state.breaker_state("a", 10), Some(BreakerState::Open));
        assert_eq!(state.breaker_state("zz", 10), None);
    }
}
