#![warn(missing_docs)]
//! # wsm-obs — broker-wide observability primitives
//!
//! The WS-Messenger broker is a mediation *pipeline* — detect dialect →
//! match subscriptions → render per-dialect → deliver — and the paper's
//! scalability claims (§VII) are claims about where time goes inside
//! that pipeline. This crate provides the measurement substrate the
//! rest of the workspace instruments itself with:
//!
//! * a **metrics registry** ([`MetricsRegistry`]) of lock-free
//!   [`Counter`]s, [`Gauge`]s and fixed-bucket latency [`Histogram`]s
//!   (p50/p95/p99 by bucket interpolation) cheap enough to sit on the
//!   publish hot path — recording is a couple of relaxed atomic adds,
//!   and the registry lock is only touched at registration time;
//! * **pipeline-stage spans** ([`SpanRecord`], [`Stage`]) collected
//!   into a bounded log ([`SpanRing`], a [`Ring`] of spans) that
//!   tolerates concurrent writers — every thread that publishes or
//!   redelivers — and evicts oldest-first when full, counting what it
//!   evicted, so tracing can stay on permanently without unbounded
//!   memory (the transport keeps its send trace in a [`Ring`] too);
//! * **causal delivery timelines**: per-attempt spans carrying a
//!   [`TraceContext`] (`seq`, `subscriber_id`, `attempt`) plus a
//!   terminal [`Outcome`] per (event, subscriber) pair, reconstructed
//!   into complete [`DeliveryStory`]s by [`timeline::reconstruct`];
//! * **exporters**: a Prometheus-style text exposition
//!   ([`export::prometheus`]) and JSONL documents: any [`Ring`] through
//!   one writer ([`export::jsonl`]: a line per record, then the
//!   eviction count) and one string escaper ([`export::escape_into`]),
//!   and span documents ([`export::spans_jsonl`], [`export::ring_jsonl`]).
//!
//! Timestamps are supplied by the caller (the workspace's virtual clock
//! `wsm_transport::clock::SimClock` for span positions, wall-clock
//! `Instant` deltas for durations), keeping this crate free of any
//! transport dependency so both `wsm-transport` and `wsm-messenger`
//! can layer on top of it.
//!
//! ```
//! use wsm_obs::{MetricsRegistry, Stage, SpanRing, SpanRecord};
//!
//! let registry = MetricsRegistry::new();
//! let published = registry.counter("wsm_published_total");
//! let latency = registry.histogram("wsm_delivery_latency_ns");
//! published.inc();
//! latency.record(42_000);
//! assert!(wsm_obs::export::prometheus(&registry).contains("wsm_published_total 1"));
//!
//! let ring = SpanRing::new(1024);
//! ring.push(SpanRecord::new(1, Stage::Match, 0, 12_000, 3));
//! assert_eq!(ring.snapshot()[0].stage, Stage::Match);
//! ```

pub mod export;
pub mod metrics;
pub mod span;
pub mod timeline;

pub use metrics::{Counter, Gauge, Histogram, HistogramStats, MetricsRegistry};
pub use span::{Outcome, Ring, SpanRecord, SpanRing, Stage, TraceContext};
pub use timeline::{reconstruct, DeliveryStory};
