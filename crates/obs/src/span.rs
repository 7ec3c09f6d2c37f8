//! Pipeline-stage spans, delivery-attempt spans, and the bounded log
//! ([`Ring`]) they collect into.
//!
//! PR 2 introduced flat per-stage spans keyed by publication `seq`.
//! This module now also models the *causal* side of delivery: once the
//! fault-tolerance layer takes over, an event's trip is no longer one
//! Deliver span but a chain of attempts — retries, a possible
//! dead-letter move, and exactly one terminal [`Outcome`] per
//! (event, subscriber) pair. Those attempt spans carry a
//! [`TraceContext`] (`seq`, `subscriber_id`, `attempt`) so the
//! [`SpanRing`] contents can be re-assembled into complete delivery
//! stories by [`crate::timeline`].

use crate::metrics::Gauge;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// A stage of the broker's mediation pipeline
/// (publish → detect → match → render → deliver), or one of the
/// per-subscriber delivery-attempt stages layered on top
/// (retry → dead-letter → resolve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Ingesting a publication (the whole publish call).
    Publish,
    /// Sniffing the specification dialect of an inbound envelope.
    Detect,
    /// Evaluating subscriptions against the event.
    Match,
    /// Rendering consumer-native envelopes.
    Render,
    /// Executing the push fan-out (the send phase).
    Deliver,
    /// One redelivery attempt for one subscriber (queued send from the
    /// reliability layer; `items` carries the attempt ordinal).
    Retry,
    /// The event was moved to the dead-letter store for this
    /// subscriber (`items` carries the attempts spent).
    DeadLetter,
    /// Terminal span of one (event, subscriber) delivery: carries the
    /// final [`Outcome`], and `items` is the end-to-end latency in
    /// virtual milliseconds (publish → this resolution).
    Resolve,
    /// Time the publishing thread spent waiting, once every send of a
    /// publication was posted, for those still in flight to land
    /// (`items` carries the sends posted). Not recorded when none was
    /// in flight, as on a wire with no send delay.
    Handoff,
    /// One inter-broker hop on the federation path: the structured
    /// handoff of an event to its owner shard (`items` is 1).
    Federate,
}

impl Stage {
    /// Every stage: the five pipeline stages in order, the
    /// per-subscriber delivery-attempt stages (retry, dead-letter,
    /// resolve), then the publisher's handoff wait and the federation
    /// hop.
    pub const ALL: [Stage; 10] = [
        Stage::Publish,
        Stage::Detect,
        Stage::Match,
        Stage::Render,
        Stage::Deliver,
        Stage::Retry,
        Stage::DeadLetter,
        Stage::Resolve,
        Stage::Handoff,
        Stage::Federate,
    ];

    /// The per-publication pipeline stages, in pipeline order.
    pub const PIPELINE: [Stage; 5] = [
        Stage::Publish,
        Stage::Detect,
        Stage::Match,
        Stage::Render,
        Stage::Deliver,
    ];

    /// Stable lowercase name (metric labels, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Publish => "publish",
            Stage::Detect => "detect",
            Stage::Match => "match",
            Stage::Render => "render",
            Stage::Deliver => "deliver",
            Stage::Retry => "retry",
            Stage::DeadLetter => "dead_letter",
            Stage::Resolve => "resolve",
            Stage::Handoff => "handoff",
            Stage::Federate => "federate",
        }
    }
}

/// The terminal fate of one (event, subscriber) delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The consumer acknowledged the send (push) or drained the event
    /// (pull/wrapped).
    Delivered,
    /// Retry budgets were exhausted; the event moved to the
    /// dead-letter store.
    DeadLettered,
    /// The delivery was abandoned without reaching the consumer — the
    /// subscription was dropped, expired, or forgotten while the event
    /// was still pending.
    Expired,
}

impl Outcome {
    /// Stable lowercase name (metric labels, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Delivered => "delivered",
            Outcome::DeadLettered => "dead_lettered",
            Outcome::Expired => "expired",
        }
    }
}

/// Causal coordinates of one delivery attempt: which publication
/// (`seq`), which subscriber, and which attempt ordinal (0 = the
/// original fan-out send, 1.. = redeliveries).
///
/// The broker builds one whenever it records an attempt span, from the
/// publication seq and subscription id that the queued send or held
/// event carries, so every span a delivery produces lands in the ring
/// with the same coordinates and the event's whole story can be
/// reconstructed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Publication sequence number (the trace id).
    pub seq: u64,
    /// Subscription id of the consumer this delivery targets — shared
    /// with the subscription it names, so a span built from a context
    /// copies a pointer, not the id.
    pub subscriber_id: Arc<str>,
    /// Attempt ordinal: 0 for the original send, counting up across
    /// redeliveries.
    pub attempt: u32,
}

impl TraceContext {
    /// Build a context for `attempt` of delivering `seq` to
    /// `subscriber_id`.
    pub fn new(seq: u64, subscriber_id: impl Into<Arc<str>>, attempt: u32) -> Self {
        TraceContext {
            seq,
            subscriber_id: subscriber_id.into(),
            attempt,
        }
    }
}

/// One closed span: a stage of one publication's trip through the
/// pipeline, or one delivery attempt for one subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Publication sequence number (mints one trace id per ingested
    /// publication; every stage of the same publication shares it).
    pub seq: u64,
    /// Which pipeline stage closed.
    pub stage: Stage,
    /// Virtual-clock time when the span closed, in milliseconds.
    pub at_ms: u64,
    /// Measured wall-clock duration, in nanoseconds.
    pub dur_ns: u64,
    /// Stage cardinality: subscriptions matched, envelopes rendered,
    /// deliveries made — whatever the stage counts. For
    /// [`Stage::Retry`] this is the attempt ordinal, for
    /// [`Stage::DeadLetter`] the attempts spent, and for
    /// [`Stage::Resolve`] the end-to-end latency in virtual ms.
    pub items: u64,
    /// Subscriber this span belongs to, for per-subscriber
    /// delivery-attempt stages; `None` for pipeline-wide stages. The
    /// id is the [`TraceContext`]'s, shared by reference.
    pub subscriber: Option<Arc<str>>,
    /// Attempt ordinal within this (event, subscriber) delivery
    /// (0 = original fan-out send). Always 0 for pipeline-wide stages.
    pub attempt: u32,
    /// Terminal outcome; set only on [`Stage::Resolve`] spans.
    pub outcome: Option<Outcome>,
}

impl SpanRecord {
    /// A pipeline-wide span with no subscriber attribution.
    pub fn new(seq: u64, stage: Stage, at_ms: u64, dur_ns: u64, items: u64) -> Self {
        SpanRecord {
            seq,
            stage,
            at_ms,
            dur_ns,
            items,
            subscriber: None,
            attempt: 0,
            outcome: None,
        }
    }

    /// A per-subscriber delivery-attempt span carrying the causal
    /// coordinates of `ctx` (taken by value: the span keeps the
    /// context's subscriber id rather than copying it).
    pub fn for_attempt(
        ctx: TraceContext,
        stage: Stage,
        at_ms: u64,
        dur_ns: u64,
        items: u64,
    ) -> Self {
        SpanRecord {
            seq: ctx.seq,
            stage,
            at_ms,
            dur_ns,
            items,
            subscriber: Some(ctx.subscriber_id),
            attempt: ctx.attempt,
            outcome: None,
        }
    }

    /// Attach a terminal outcome (builder-style, for
    /// [`Stage::Resolve`] spans).
    pub fn with_outcome(mut self, outcome: Outcome) -> Self {
        self.outcome = Some(outcome);
        self
    }
}

/// A bounded log, safe for concurrent producers via a short critical
/// section per push: a push never fails and never grows the log past
/// its capacity — when full, the oldest record is evicted and counted.
/// The broker's spans ([`SpanRing`]) and the network's send trace are
/// both one. Draining or clearing keeps the storage and the count.
#[derive(Debug)]
pub struct Ring<T> {
    cap: usize,
    buf: Mutex<VecDeque<T>>,
    /// Records evicted so far, bumped under the lock. A registry's
    /// gauge when the ring was made by [`Ring::counted_by`], so every
    /// scrape reads the live count.
    dropped: Arc<Gauge>,
}

/// The broker's span log.
pub type SpanRing = Ring<SpanRecord>;

impl<T> Ring<T> {
    /// A ring holding at most `cap` records (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        Ring::counted_by(cap, Arc::default())
    }

    /// [`Ring::new`], counting evictions in `dropped` (a registry's
    /// gauge).
    pub fn counted_by(cap: usize, dropped: Arc<Gauge>) -> Self {
        Ring {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::new()),
            dropped,
        }
    }

    /// Append a record, evicting the oldest when full. The evicted
    /// record is dropped once the lock is released: dropping it may
    /// write reference counts it shares.
    pub fn push(&self, record: T) {
        let evicted = self.admit(&mut self.buf.lock(), record);
        drop(evicted);
    }

    /// Append every record of `records`, in order, under one lock —
    /// what a publication that resolves hundreds of deliveries at once
    /// uses instead of taking the lock per subscriber. Eviction is per
    /// record, exactly as that many [`Ring::push`] calls would do it,
    /// but the records it evicts are dropped under the lock.
    pub fn push_all(&self, records: impl IntoIterator<Item = T>) {
        let mut buf = self.buf.lock();
        for record in records {
            self.admit(&mut buf, record);
        }
    }

    fn admit(&self, buf: &mut VecDeque<T>, record: T) -> Option<T> {
        let evicted = (buf.len() == self.cap).then(|| buf.pop_front()).flatten();
        if evicted.is_some() {
            self.dropped.add(1);
        }
        buf.push_back(record);
        evicted
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// How many records have been evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.get() as u64
    }

    /// `f` of the held records, oldest first, under the ring's lock.
    pub fn read<R>(&self, f: impl FnOnce(&VecDeque<T>) -> R) -> R {
        f(&self.buf.lock())
    }

    /// Take the held records, oldest first, leaving the ring empty.
    pub fn drain(&self) -> Vec<T> {
        self.buf.lock().drain(..).collect()
    }

    /// Drop the held records.
    pub fn clear(&self) {
        self.buf.lock().clear();
    }
}

impl<T: Clone> Ring<T> {
    /// Copy out the held records, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.read(|buf| buf.iter().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_evicts_oldest() {
        let ring = SpanRing::new(3);
        for seq in 0..5 {
            ring.push(SpanRecord::new(seq, Stage::Match, 0, 10, 1));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(ring.drain().len(), 3);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "drain keeps the eviction count");
    }

    #[test]
    fn a_ring_counted_by_a_gauge_shows_every_eviction_there() {
        let gauge = Arc::new(Gauge::new());
        let ring = Ring::counted_by(2, Arc::clone(&gauge));
        ring.push_all(0..5u32);
        assert_eq!((gauge.get(), ring.dropped()), (3, 3));
        ring.clear();
        assert!(ring.is_empty());
        ring.push(5);
        assert_eq!(ring.snapshot(), [5]);
        assert_eq!(gauge.get(), 3, "clear keeps the eviction count");
    }

    #[test]
    fn push_all_is_that_many_pushes() {
        let one_by_one = SpanRing::new(3);
        let at_once = SpanRing::new(3);
        let spans =
            |from: u64| (from..from + 4).map(|seq| SpanRecord::new(seq, Stage::Resolve, 0, 0, 1));
        for round in [0, 4] {
            for span in spans(round) {
                one_by_one.push(span);
            }
            at_once.push_all(spans(round));
        }
        assert_eq!(at_once.snapshot(), one_by_one.snapshot());
        assert_eq!(at_once.dropped(), one_by_one.dropped());
        assert_eq!(at_once.dropped(), 5);
    }

    #[test]
    fn stage_names_are_pipeline_ordered() {
        let names: Vec<&str> = Stage::PIPELINE.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["publish", "detect", "match", "render", "deliver"]
        );
        let all: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            all,
            vec![
                "publish",
                "detect",
                "match",
                "render",
                "deliver",
                "retry",
                "dead_letter",
                "resolve",
                "handoff",
                "federate"
            ]
        );
    }

    #[test]
    fn attempt_spans_carry_causal_coordinates() {
        let ctx = TraceContext::new(7, "sub-1", 2);
        let span = SpanRecord::for_attempt(ctx.clone(), Stage::Retry, 120, 5_000, 2);
        assert_eq!(span.seq, 7);
        assert_eq!(span.subscriber.as_deref(), Some("sub-1"));
        assert_eq!(span.attempt, 2);
        assert_eq!(span.outcome, None);

        let terminal = SpanRecord::for_attempt(ctx, Stage::Resolve, 130, 0, 130)
            .with_outcome(Outcome::DeadLettered);
        assert_eq!(terminal.outcome, Some(Outcome::DeadLettered));
        assert_eq!(terminal.outcome.unwrap().name(), "dead_lettered");
    }
}
