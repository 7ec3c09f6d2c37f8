//! Fault-tolerance policy: the redelivery budget and backoff, the
//! circuit breaker, and the shape of a dead letter.
//!
//! By default the broker's failure handling is binary: a failed push
//! *permanently drops* the subscription — one transient network blip
//! evicts a subscriber. With [`FaultTolerance`] installed the broker
//! instead applies the delivery-guarantee machinery the paper inherits
//! from CORBA Notification QoS and JMS redelivery semantics:
//!
//! * **exponential backoff** with deterministic, seeded jitter against
//!   the virtual clock ([`FaultTolerance::backoff_ms`]), so chaos runs
//!   replay bit-for-bit;
//! * a **per-subscriber circuit breaker** ([`CircuitBreaker`]: closed →
//!   open → half-open) that stops burning delivery attempts on a
//!   flapping endpoint and probes it once per open window instead;
//! * a **budget** ([`FaultTolerance::exhausted`]):
//!   [`FaultTolerance::max_redeliveries`] transient attempts, or — per
//!   the poison/transient distinction in [`crate::delivery::FailKind`]
//!   — a much smaller [`FaultTolerance::poison_budget`] of SOAP-fault
//!   responses, after which a message becomes a [`DeadLetter`].
//!
//! This module is policy only. Where a held retry waits, in what order
//! it leaves and what happens to it when its subscription ends is the
//! broker's per-subscription outbox (`crate::outbox`); this module
//! decides only *when* to try again and *when* to give up.

use crate::delivery::StatsDelta;
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

    /// Has a message that provoked `strikes` poison responses after
    /// `attempts` transient failures used up its budget?
    pub fn exhausted(&self, attempts: u32, strikes: u32) -> bool {
        strikes >= self.poison_budget.max(1) || attempts >= self.max_redeliveries.max(1)
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

// ----------------------------------------------------- dead letters

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

/// How one delivery attempt of a held message ended — a pump attempt,
/// or a failed fan-out send taken into the outbox — for the broker's
/// causal trace.
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
    /// The attempt failed after its subscription had ended: the
    /// message leaves with the subscription.
    Expired,
}

/// One attempt, reported back so the broker can record the
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
        self.delta.merge(&other.delta);
        self.events.extend(other.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
