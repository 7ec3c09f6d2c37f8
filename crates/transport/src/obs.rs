//! Send-path instrumentation facade over `wsm-obs`.

use crate::network::AttemptClass;
use crate::trace::DeliveryOutcome;
use std::sync::Arc;
use std::time::Instant;
use wsm_obs::{Counter, Histogram, MetricsRegistry};

/// Metrics for the network send/latency path: attempt totals (split
/// by first-attempt vs retry), per-outcome counters and a send-latency
/// histogram. The registry also holds the trace ring's eviction
/// gauge, `net_trace_dropped`, which the ring itself bumps.
pub struct NetObs {
    registry: MetricsRegistry,
    sends: Arc<Counter>,
    sends_first: Arc<Counter>,
    sends_retry: Arc<Counter>,
    send_ns: Arc<Histogram>,
    delivered: Arc<Counter>,
    dropped: Arc<Counter>,
    no_endpoint: Arc<Counter>,
    refused: Arc<Counter>,
    faulted: Arc<Counter>,
}

impl Default for NetObs {
    fn default() -> Self {
        Self::new()
    }
}

impl NetObs {
    /// A fresh set of network metrics.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        registry.describe("net_sends_total", "Delivery attempts, any class.");
        registry.describe(
            "net_sends_first_total",
            "First delivery attempts (one per message per consumer).",
        );
        registry.describe(
            "net_sends_retry_total",
            "Re-send attempts: redeliveries of messages already attempted.",
        );
        registry.describe("net_send_ns", "Wall-clock send latency, nanoseconds.");
        registry.describe(
            "net_trace_dropped",
            "Trace records evicted from the bounded delivery trace.",
        );
        NetObs {
            sends: registry.counter("net_sends_total"),
            sends_first: registry.counter("net_sends_first_total"),
            sends_retry: registry.counter("net_sends_retry_total"),
            send_ns: registry.histogram("net_send_ns"),
            delivered: registry.counter("net_outcome_delivered_total"),
            dropped: registry.counter("net_outcome_dropped_total"),
            no_endpoint: registry.counter("net_outcome_no_endpoint_total"),
            refused: registry.counter("net_outcome_refused_total"),
            faulted: registry.counter("net_outcome_faulted_total"),
            registry,
        }
    }

    /// Record one finished delivery attempt that began at `started`.
    pub fn observe(&self, started: Instant, outcome: DeliveryOutcome, class: AttemptClass) {
        self.send_ns.record(started.elapsed().as_nanos() as u64);
        self.sends.inc();
        match class {
            AttemptClass::First => self.sends_first.inc(),
            AttemptClass::Retry => self.sends_retry.inc(),
        }
        match outcome {
            DeliveryOutcome::Delivered => self.delivered.inc(),
            DeliveryOutcome::Dropped => self.dropped.inc(),
            DeliveryOutcome::NoEndpoint => self.no_endpoint.inc(),
            DeliveryOutcome::Refused => self.refused.inc(),
            DeliveryOutcome::Faulted => self.faulted.inc(),
        }
    }

    /// The underlying registry (for exporters).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}
