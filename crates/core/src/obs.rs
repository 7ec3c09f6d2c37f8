//! Broker observability: the instrumentation facade the pipeline
//! records into.
//!
//! This wraps a `wsm-obs` [`MetricsRegistry`] (counters + per-stage
//! latency histograms) and a bounded [`SpanRing`] of pipeline-stage
//! spans, timestamped on the network's virtual clock.
//!
//! Beyond the five pipeline stages, the facade records the *causal*
//! side of delivery: per-subscriber attempt spans (retry, dead-letter)
//! and exactly one terminal resolve span per (event, subscriber) pair,
//! which feeds the end-to-end latency histogram (virtual ms,
//! publish → final resolution).
//!
//! The runtime kill-switch ([`BrokerObs::set_enabled`]) is the one
//! way to stop recording: it stops the stage timers, the histograms
//! and the span ring — which is how the bench harness measures the
//! overhead of live instrumentation against the same binary with
//! recording skipped. It never stops a count: the outcome
//! counters here and the broker's ledger (`MediationStats`, whose
//! counters the broker registers in this registry) move either way.

use crate::delivery::ResolvedMark;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wsm_obs::{Counter, Gauge, Histogram, HistogramStats, MetricsRegistry, SpanRing, TraceContext};

pub use wsm_obs::{reconstruct, DeliveryStory, Outcome, SpanRecord, Stage};

/// Wall-clock handle for one open stage (`None` when recording is
/// disabled, so a disabled broker skips even the `Instant` read).
pub type StageTimer = Option<Instant>;

/// How many spans the trace ring retains before overwriting the
/// oldest (documented in DESIGN.md §8).
pub const SPAN_RING_CAPACITY: usize = 4096;

/// One broker's observability state.
pub struct BrokerObs {
    registry: MetricsRegistry,
    ring: SpanRing,
    enabled: AtomicBool,
    seq: AtomicU64,
    subscriptions: Arc<Gauge>,
    /// Indexed by `Stage as usize` (pipeline order, then the
    /// per-subscriber attempt stages and the engine handoff stage).
    stages: [Arc<Histogram>; 10],
    delivery_latency: Arc<Histogram>,
    redelivery_depth: Arc<Gauge>,
    breakers_open: Arc<Gauge>,
    backoff_delay: Arc<Histogram>,
    e2e_latency: Arc<Histogram>,
    outcome_delivered: Arc<Counter>,
    outcome_expired: Arc<Counter>,
}

impl Default for BrokerObs {
    fn default() -> Self {
        Self::new()
    }
}

impl BrokerObs {
    /// Fresh metrics and an empty span ring; recording enabled.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let stages = Stage::ALL.map(|s| {
            let name = format!("wsm_stage_{}_ns", s.name());
            registry.describe(&name, "Duration of this pipeline stage, wall ns.");
            registry.histogram(&name)
        });
        registry.describe(
            "wsm_spans_dropped",
            "Trace spans evicted from the bounded ring (silent span loss).",
        );
        registry.describe(
            "wsm_e2e_latency_ms",
            "Publish to final resolution per (event, subscriber), virtual ms.",
        );
        registry.describe(
            "wsm_outcome_delivered_total",
            "Deliveries that terminally resolved as delivered.",
        );
        registry.describe(
            "wsm_outcome_expired_total",
            "Deliveries abandoned before reaching the consumer.",
        );
        registry.describe("wsm_subscriptions", "Live subscriptions.");
        registry.describe(
            "wsm_delivery_latency_ns",
            "Per-subscriber send latency, wall ns.",
        );
        registry.describe(
            "wsm_redelivery_depth",
            "Messages waiting in the redelivery queue.",
        );
        registry.describe("wsm_breakers_open", "Circuit breakers currently open.");
        registry.describe(
            "wsm_backoff_delay_ms",
            "Scheduled redelivery backoff delays, virtual ms.",
        );
        BrokerObs {
            subscriptions: registry.gauge("wsm_subscriptions"),
            delivery_latency: registry.histogram("wsm_delivery_latency_ns"),
            redelivery_depth: registry.gauge("wsm_redelivery_depth"),
            breakers_open: registry.gauge("wsm_breakers_open"),
            backoff_delay: registry.histogram("wsm_backoff_delay_ms"),
            e2e_latency: registry.histogram_with("wsm_e2e_latency_ms", wsm_obs::metrics::ms_bounds),
            outcome_delivered: registry.counter("wsm_outcome_delivered_total"),
            outcome_expired: registry.counter("wsm_outcome_expired_total"),
            stages,
            ring: SpanRing::counted_by(SPAN_RING_CAPACITY, registry.gauge("wsm_spans_dropped")),
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            registry,
        }
    }

    /// Is recording on?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Runtime kill-switch: `false` stops the stage timers, the
    /// histograms and the span ring; the outcome counters keep
    /// counting.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Mint the next publication sequence number (trace id).
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Open a stage timer (`None` while disabled).
    #[inline]
    pub fn start(&self) -> StageTimer {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a stage: record its duration into the stage histogram
    /// and append a span (virtual-clock position `at_ms`, `items`
    /// the stage's cardinality). Thread attribution lives in the
    /// transport trace, which records the delivering thread name.
    pub fn stage(&self, stage: Stage, seq: u64, timer: StageTimer, at_ms: u64, items: u64) {
        let Some(t) = timer else { return };
        let dur_ns = t.elapsed().as_nanos() as u64;
        self.stages[stage as usize].record(dur_ns);
        self.ring
            .push(SpanRecord::new(seq, stage, at_ms, dur_ns, items));
    }

    /// Close a stage whose duration was accumulated externally
    /// (e.g. render time summed across the staged engine's lazy
    /// per-subscriber renders, or the publisher's handoff wait):
    /// same histogram + span as [`BrokerObs::stage`], but the
    /// caller supplies `dur_ns` directly.
    pub fn stage_dur(&self, stage: Stage, seq: u64, dur_ns: u64, at_ms: u64, items: u64) {
        if !self.enabled() {
            return;
        }
        self.stages[stage as usize].record(dur_ns);
        self.ring
            .push(SpanRecord::new(seq, stage, at_ms, dur_ns, items));
    }

    /// Record one redelivery attempt for one subscriber: a
    /// [`Stage::Retry`] span carrying the attempt's causal
    /// coordinates, with `items` = the attempt ordinal.
    pub fn retry(&self, seq: u64, subscriber: &str, attempt: u32, at_ms: u64, dur_ns: u64) {
        if !self.enabled() {
            return;
        }
        self.stages[Stage::Retry as usize].record(dur_ns);
        let ctx = TraceContext::new(seq, subscriber, attempt);
        self.ring.push(SpanRecord::for_attempt(
            ctx,
            Stage::Retry,
            at_ms,
            dur_ns,
            attempt as u64,
        ));
    }

    /// Record the move of one (event, subscriber) delivery into the
    /// dead-letter store: a [`Stage::DeadLetter`] span (`items` =
    /// attempts spent). The broker's ledger counts the move.
    pub fn dead_letter(&self, seq: u64, subscriber: &str, attempt: u32, at_ms: u64) {
        if !self.enabled() {
            return;
        }
        let ctx = TraceContext::new(seq, subscriber, attempt);
        self.ring.push(SpanRecord::for_attempt(
            ctx,
            Stage::DeadLetter,
            at_ms,
            0,
            attempt as u64,
        ));
    }

    /// Record the terminal resolution of one (event, subscriber)
    /// delivery: a [`Stage::Resolve`] span whose `items` is the
    /// end-to-end latency (publish → now, virtual ms) and the
    /// end-to-end histogram, plus the per-outcome counter, which
    /// counts with recording off too. A dead letter's count is the
    /// ledger's `wsm_dead_letters_total`.
    pub fn resolve(
        &self,
        seq: u64,
        subscriber: &str,
        attempt: u32,
        published_at_ms: u64,
        at_ms: u64,
        outcome: Outcome,
    ) {
        match outcome {
            Outcome::Delivered => self.outcome_delivered.inc(),
            Outcome::Expired => self.outcome_expired.inc(),
            Outcome::DeadLettered => {}
        }
        if !self.enabled() {
            return;
        }
        let e2e_ms = at_ms.saturating_sub(published_at_ms);
        self.e2e_latency.record(e2e_ms);
        let ctx = TraceContext::new(seq, subscriber, attempt);
        self.ring.push(
            SpanRecord::for_attempt(ctx, Stage::Resolve, at_ms, 0, e2e_ms).with_outcome(outcome),
        );
    }

    /// Record every first-round success of one publication as
    /// resolved at `at_ms`: exactly what one
    /// [`BrokerObs::resolve`]`(.., Outcome::Delivered)` per mark
    /// records — the same spans in the same order, histogram samples
    /// and outcome count — but the spans go into the ring under one
    /// lock and carry the marks' subscriber ids by reference.
    pub fn resolve_delivered(&self, marks: &[ResolvedMark], at_ms: u64) {
        self.outcome_delivered.add(marks.len() as u64);
        if !self.enabled() {
            return;
        }
        let e2e_ms = |m: &ResolvedMark| at_ms.saturating_sub(m.published_at_ms);
        for m in marks {
            self.e2e_latency.record(e2e_ms(m));
        }
        self.ring.push_all(marks.iter().map(|m| {
            let ctx = TraceContext::new(m.seq, Arc::clone(&m.sub_id), 0);
            SpanRecord::for_attempt(ctx, Stage::Resolve, at_ms, 0, e2e_ms(m))
                .with_outcome(Outcome::Delivered)
        }));
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the end-to-end latency
    /// histogram, virtual ms (0 before the first resolution).
    pub fn e2e_quantile_ms(&self, q: f64) -> f64 {
        self.e2e_latency.quantile(q).unwrap_or(0.0)
    }

    /// Record per-subscriber delivery latencies from one fan-out.
    pub fn record_latencies(&self, latencies_ns: &[u64]) {
        if !self.enabled() {
            return;
        }
        for &ns in latencies_ns {
            self.delivery_latency.record(ns);
        }
    }

    /// Update the live-subscription gauge (called at scrape time).
    pub fn set_subscriptions(&self, n: i64) {
        self.subscriptions.set(n);
    }

    /// Record one scheduled backoff delay (virtual ms).
    #[inline]
    pub fn record_backoff(&self, delay_ms: u64) {
        if self.enabled() {
            self.backoff_delay.record(delay_ms);
        }
    }

    /// Update the redelivery-queue depth gauge.
    pub fn set_redelivery_depth(&self, n: i64) {
        self.redelivery_depth.set(n);
    }

    /// Update the open-circuit-breaker gauge.
    pub fn set_breakers_open(&self, n: i64) {
        self.breakers_open.set(n);
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Prometheus text exposition of the broker metrics. The span
    /// ring counts its evictions in the `wsm_spans_dropped` gauge, so
    /// silent span loss is visible to every scrape.
    pub fn prometheus(&self) -> String {
        wsm_obs::export::prometheus(&self.registry)
    }

    /// The buffered spans plus the span-loss count, as JSONL (the
    /// trailing gauge line distinguishes a complete trace from a
    /// truncated one).
    pub fn spans_jsonl(&self) -> String {
        wsm_obs::export::ring_jsonl(&self.ring)
    }

    /// Snapshot of the buffered spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.snapshot()
    }

    /// Take the buffered spans, leaving the ring empty.
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        self.ring.drain()
    }

    /// Aggregate per-stage and per-delivery statistics.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            stages: Stage::ALL
                .iter()
                .map(|s| (s.name(), self.stages[*s as usize].stats()))
                .collect(),
            delivery_latency: self.delivery_latency.stats(),
            e2e_latency_ms: self.e2e_latency.stats(),
            outcome_delivered: self.outcome_delivered.get(),
            outcome_expired: self.outcome_expired.get(),
            spans_buffered: self.ring.len(),
            spans_evicted: self.ring.dropped(),
        }
    }
}

/// Point-in-time aggregate of a broker's pipeline metrics, in the
/// shape the bench emitters serialize.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// `(stage name, duration stats in ns)` in [`Stage::ALL`] order
    /// (the five pipeline stages, then retry/dead_letter/resolve, then
    /// handoff/federate).
    pub stages: Vec<(&'static str, HistogramStats)>,
    /// Per-subscriber send latency (ns).
    pub delivery_latency: HistogramStats,
    /// End-to-end latency per (event, subscriber): publish → final
    /// resolution, in virtual ms.
    pub e2e_latency_ms: HistogramStats,
    /// Deliveries terminally resolved as delivered.
    pub outcome_delivered: u64,
    /// Deliveries terminally resolved as expired (abandoned).
    pub outcome_expired: u64,
    /// Spans currently buffered in the ring.
    pub spans_buffered: usize,
    /// Spans evicted to stay within the ring bound.
    pub spans_evicted: u64,
}

impl ObsSnapshot {
    /// Stats for one stage by name (`"match"`, `"render"`, ...).
    pub fn stage(&self, name: &str) -> Option<HistogramStats> {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_delivered_records_what_one_resolve_per_mark_records() {
        let marks: Vec<ResolvedMark> = (0..300u64)
            .map(|i| ResolvedMark {
                seq: 7 + i / 100,
                sub_id: format!("wsm-{i}").into(),
                published_at_ms: i % 40,
            })
            .collect();
        let at_ms = 45;

        let one_by_one = BrokerObs::new();
        for m in &marks {
            one_by_one.resolve(
                m.seq,
                &m.sub_id,
                0,
                m.published_at_ms,
                at_ms,
                Outcome::Delivered,
            );
        }
        let at_once = BrokerObs::new();
        at_once.resolve_delivered(&marks, at_ms);

        assert_eq!(at_once.spans(), one_by_one.spans());
        assert_eq!(at_once.spans().len(), marks.len());
        let (a, b) = (at_once.snapshot(), one_by_one.snapshot());
        assert_eq!(a.e2e_latency_ms.count, marks.len() as u64);
        assert_eq!(a.e2e_latency_ms, b.e2e_latency_ms);
        assert_eq!(a.outcome_delivered, marks.len() as u64);
        assert_eq!(a.outcome_delivered, b.outcome_delivered);
        // The spans carry the marks' own ids, not copies of them.
        let first = at_once.spans().remove(0).subscriber.unwrap();
        assert!(Arc::ptr_eq(&first, &marks[0].sub_id));

        // Switched off, it records nothing but the count.
        let off = BrokerObs::new();
        off.set_enabled(false);
        off.resolve_delivered(&marks, at_ms);
        assert!(off.spans().is_empty());
        let snap = off.snapshot();
        assert_eq!(snap.e2e_latency_ms.count, 0);
        assert_eq!(snap.outcome_delivered, marks.len() as u64);
    }
}
