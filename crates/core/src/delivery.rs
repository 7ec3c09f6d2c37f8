//! Push fan-out: every matched push subscriber of one publication gets
//! exactly one send, streamed on the publishing thread or overlapped on
//! the wire.
//!
//! [`execute`] takes the publication as an iterator of rendered
//! [`PushJob`]s and runs one of two paths:
//!
//! * **streaming** — pull one job, send it, repeat, on the publishing
//!   thread, so each envelope goes out while still hot from its render.
//!   With `set_fanout_workers(0|1)`, on a network with no send delay,
//!   or for a publication with at most one push subscriber (there is
//!   no wait to overlap), this is the path: the sequential baseline,
//!   sending in match order.
//! * **overlapped** — post each job on a [`Landing`] as the source
//!   yields it, then wait once for all of them to land (the `handoff`
//!   stage). The publisher lands each send itself once its delay has
//!   passed — between renders if it is due by then, else after
//!   sleeping until it is — so a publication of *n* sends waits about
//!   one delay rather than *n*. No thread is parked per send, so
//!   overlapping needs no cores.
//!
//! Either way the outcomes are tallied on the publishing thread in
//! match order, so a [`FanOutReport`] reads the same whichever path ran,
//! and a publication returns only after its last send has landed:
//! subscriber *S* always observes a publisher's event *n* before its
//! event *n+1*. The broker applies one [`StatsDelta`] per publication
//! and drops failed subscriptions after the fan-out.
//!
//! Every push attempt, a first-round send here or a redelivery from an
//! outbox (`crate::outbox`), is made by `send` or posted here, one
//! attempt each. A failed first-round send is handed back in the
//! [`FanOutReport`]; the broker decides its fate.

use crate::detect::SpecDialect;
use crate::registry::BrokerSubscription;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsm_soap::Envelope;
use wsm_transport::{AttemptClass, Landing, Network, TransportError};

/// How a delivery failed — the distinction that decides its fate.
///
/// A SOAP fault from a live-but-rejecting consumer and a dropped
/// datagram are different problems. A **transient** failure (loss,
/// missing endpoint, no response) means *try again later*; a
/// **poison** response (SOAP fault, refused connection) means the
/// endpoint is alive and saying no, and only these count toward the
/// small
/// [`poison_budget`](crate::reliability::FaultTolerance::poison_budget)
/// that dead-letters a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The message may succeed if simply sent again later.
    Transient,
    /// The endpoint actively rejected the message.
    Poison,
}

impl FailKind {
    /// Classify a transport error.
    pub fn of(err: &TransportError) -> FailKind {
        match err {
            TransportError::Fault(_) | TransportError::Refused(_) => FailKind::Poison,
            TransportError::NoEndpoint(_)
            | TransportError::Dropped(_)
            | TransportError::NoResponse(_) => FailKind::Transient,
        }
    }
}

/// Make one push attempt: send `envelope` to `to`, classed
/// [`AttemptClass::First`] exactly when `attempt` is 0 (the original
/// fan-out send, or a held event's first try) and
/// [`AttemptClass::Retry`] otherwise. The one place a push is sent
/// blocking, for the streaming fan-out and the redelivery pump alike;
/// the overlapped fan-out posts its sends instead, each a first
/// attempt.
pub(crate) fn send(
    net: &Network,
    to: &str,
    envelope: Envelope,
    attempt: u32,
) -> Result<(), FailKind> {
    let class = if attempt == 0 {
        AttemptClass::First
    } else {
        AttemptClass::Retry
    };
    net.send_class(to, envelope, class)
        .map_err(|e| FailKind::of(&e))
}

/// One rendered push delivery, ready to send.
///
/// The job borrows the subscription it answers instead of copying
/// facts out of it: the id, the consumer address and the family are
/// read through [`PushJob::sub_id`], [`PushJob::address`] and
/// `sub.spec`, so building a job allocates nothing and cloning one
/// (the failure path) is reference bumps.
#[derive(Debug, Clone)]
pub struct PushJob {
    /// Subscription the delivery answers (dropped on failure).
    pub sub: Arc<BrokerSubscription>,
    /// The rendered envelope.
    pub envelope: Envelope,
    /// Whether the delivery crosses specification families.
    pub mediated: bool,
    /// Publication sequence number (the trace id — threads the causal
    /// trace context through queues and retries).
    pub seq: u64,
    /// Virtual time the publication was ingested, for end-to-end
    /// latency at terminal resolution.
    pub published_at_ms: u64,
}

impl PushJob {
    /// Id of the subscription the delivery answers.
    pub fn sub_id(&self) -> &str {
        &self.sub.id
    }

    /// Consumer address.
    pub fn address(&self) -> &str {
        &self.sub.consumer.address
    }

    /// The coordinates of a successful send of this job.
    fn resolved(&self) -> ResolvedMark {
        ResolvedMark {
            seq: self.seq,
            sub_id: Arc::clone(&self.sub.id),
            published_at_ms: self.published_at_ms,
        }
    }
}

/// Stat increments accumulated over one fan-out, merged into
/// [`crate::broker::MediationStats`] by the caller.
#[derive(Debug, Default, Clone, Copy)]
pub struct StatsDelta {
    /// Deliveries to WS-Eventing consumers.
    pub delivered_wse: u64,
    /// Deliveries to WS-Notification consumers.
    pub delivered_wsn: u64,
    /// Deliveries that crossed specification families.
    pub mediated: u64,
    /// Deliveries that failed for good.
    pub failed: u64,
    /// Failed redelivery attempts.
    pub retried: u64,
    /// Successful deliveries that came off the redelivery queue.
    pub redelivered: u64,
    /// Messages moved to the dead-letter store.
    pub dead_lettered: u64,
}

impl StatsDelta {
    pub(crate) fn merge(&mut self, o: &StatsDelta) {
        self.delivered_wse += o.delivered_wse;
        self.delivered_wsn += o.delivered_wsn;
        self.mediated += o.mediated;
        self.failed += o.failed;
        self.retried += o.retried;
        self.redelivered += o.redelivered;
        self.dead_lettered += o.dead_lettered;
    }

    /// Count one successful delivery to `sub`, per family and, if it
    /// crossed families, as mediated.
    pub(crate) fn count_delivered(&mut self, sub: &BrokerSubscription, mediated: bool) {
        if matches!(sub.spec, SpecDialect::Wse(_)) {
            self.delivered_wse += 1;
        } else {
            self.delivered_wsn += 1;
        }
        self.mediated += mediated as u64;
    }
}

/// Identity of one first-round success, handed back so the broker can
/// record its terminal resolution span without keeping the (heavier)
/// job alive past the send.
#[derive(Debug, Clone)]
pub struct ResolvedMark {
    /// Publication sequence number (the trace id).
    pub seq: u64,
    /// Subscription the delivery answered (the subscription's own id,
    /// shared by reference).
    pub sub_id: Arc<str>,
    /// Virtual ingest time, for the end-to-end latency.
    pub published_at_ms: u64,
}

/// What one publication's fan-out did.
#[derive(Default)]
pub struct FanOutReport {
    /// Successful deliveries.
    pub delivered: usize,
    /// Total push jobs the source yielded.
    pub jobs: usize,
    /// Which path ran: `"inline"` (streaming on the publishing thread)
    /// or `"overlapped"` (posted, then waited for once).
    pub mode: &'static str,
    /// Wall time the publishing thread spent waiting for its posted
    /// sends to land (overlapped path only; the broker records it as
    /// the `handoff` stage).
    pub join_wait_ns: u64,
    /// Stat increments to merge.
    pub delta: StatsDelta,
    /// Failed jobs, classified and handed back intact so the broker
    /// can re-enqueue them (fault-tolerant mode) or drop the
    /// subscription (legacy mode).
    pub failures: Vec<(FailKind, PushJob)>,
    /// First-round successes, identified so the broker can record
    /// their terminal resolution spans.
    pub resolved: Vec<ResolvedMark>,
    /// Wall-clock duration of each job's one send, for the
    /// broker's per-subscriber delivery-latency histogram.
    pub latencies_ns: Vec<u64>,
}

impl FanOutReport {
    /// Record one send of `job` that took `elapsed`. A failed job is
    /// kept for the broker; a delivered one leaves only its mark.
    fn tally(&mut self, job: PushJob, elapsed: Duration, result: Result<(), FailKind>) {
        self.jobs += 1;
        self.latencies_ns.push(elapsed.as_nanos() as u64);
        match result {
            Ok(()) => {
                self.delivered += 1;
                self.delta.count_delivered(&job.sub, job.mediated);
                self.resolved.push(job.resolved());
            }
            Err(kind) => {
                self.delta.failed += 1;
                self.failures.push((kind, job));
            }
        }
    }
}

/// Execute a publication's push fan-out: streamed on the publishing
/// thread when `workers <= 1`, the network has no send delay or the
/// source holds at most one job (nothing to overlap), otherwise
/// overlapped on the wire (see the module docs). `jobs` may render
/// lazily; each job is sent or posted as soon as it is pulled.
pub fn execute(net: &Network, workers: usize, jobs: impl Iterator<Item = PushJob>) -> FanOutReport {
    let several = jobs.size_hint().1.is_none_or(|most| most > 1);
    if workers > 1 && several && net.send_delay_us() > 0 {
        execute_overlapped(net, jobs)
    } else {
        execute_streaming(net, jobs)
    }
}

/// The streaming path: pull one job, send it, repeat — no
/// intermediate batch `Vec`, and each envelope is sent while still hot
/// from its render. Sends go out in iteration order on the publishing
/// thread, which is what chaos scenarios pinning `workers = 1` rely on
/// for a deterministic trace.
fn execute_streaming(net: &Network, jobs: impl Iterator<Item = PushJob>) -> FanOutReport {
    let mut report = FanOutReport {
        mode: "inline",
        ..FanOutReport::default()
    };
    for job in jobs {
        let started = Instant::now();
        let result = send(net, job.address(), job.envelope.clone(), 0);
        report.tally(job, started.elapsed(), result);
    }
    report
}

/// The overlapped path: post each job as the source yields it, wait
/// once for every send to land, then tally the fates in match order.
fn execute_overlapped(net: &Network, jobs: impl Iterator<Item = PushJob>) -> FanOutReport {
    // Sized from the upper bound: a filtering source reports a lower
    // bound of zero.
    let expected = jobs.size_hint().1.unwrap_or_default();
    let mut landing = Landing::new(net, expected);
    let mut posted = Vec::with_capacity(expected);
    for job in jobs {
        let _ = landing.post(job.address(), job.envelope.clone());
        posted.push(job);
    }
    let waited = Instant::now();
    let landed = landing.wait();
    let mut report = FanOutReport {
        mode: "overlapped",
        join_wait_ns: waited.elapsed().as_nanos() as u64,
        resolved: Vec::with_capacity(posted.len()),
        latencies_ns: Vec::with_capacity(posted.len()),
        ..FanOutReport::default()
    };
    for (job, landed) in posted.into_iter().zip(landed) {
        let result = landed.result.map_err(|e| FailKind::of(&e));
        report.tally(job, landed.elapsed, result);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::test_sub;
    use wsm_soap::SoapVersion;
    use wsm_transport::SoapHandler;
    use wsm_xml::Element;

    /// Counts deliveries and names the threads that handled them.
    #[derive(Default)]
    struct Counter(parking_lot::Mutex<Vec<String>>);
    impl Counter {
        fn count(&self) -> usize {
            self.0.lock().len()
        }
    }
    impl SoapHandler for Counter {
        fn handle(&self, _req: Envelope) -> Result<Option<Envelope>, wsm_soap::Fault> {
            let name = std::thread::current().name().unwrap_or("").to_string();
            self.0.lock().push(name);
            Ok(None)
        }
    }

    fn jobs(n: usize, address: &str) -> Vec<PushJob> {
        jobs_at(n, |_| address.to_string())
    }

    fn jobs_at(n: usize, address: impl Fn(usize) -> String) -> Vec<PushJob> {
        (0..n)
            .map(|i| PushJob {
                sub: test_sub(&format!("wsm-{i}"), &address(i), i % 2 == 0),
                envelope: Envelope::new(SoapVersion::V11).with_body(Element::local("e")),
                mediated: false,
                seq: 1,
                published_at_ms: 0,
            })
            .collect()
    }

    /// A network with a counting endpoint at `http://c` and a real
    /// per-send delay of `delay_us`.
    fn wire(delay_us: u64) -> (Network, Arc<Counter>) {
        let net = Network::new();
        let counter = Arc::new(Counter::default());
        net.register("http://c", counter.clone());
        net.set_send_delay_us(delay_us);
        (net, counter)
    }

    #[test]
    fn parallel_and_sequential_agree() {
        for workers in [1, 4] {
            let (net, counter) = wire(20);
            let report = execute(&net, workers, jobs(16, "http://c").into_iter());
            let mode = if workers == 1 { "inline" } else { "overlapped" };
            assert_eq!(report.mode, mode);
            assert_eq!(report.delivered, 16, "workers={workers}");
            assert_eq!(report.jobs, 16);
            assert_eq!(report.delta.delivered_wse, 8);
            assert_eq!(report.delta.delivered_wsn, 8);
            assert_eq!(report.delta.failed, 0);
            assert!(report.failures.is_empty());
            assert_eq!(counter.count(), 16);
        }
    }

    /// Yields `left` jobs, noting at each pull how many sends the
    /// counter endpoint has already handled.
    struct ProbeSource {
        left: Vec<PushJob>,
        counter: Arc<Counter>,
        sent_at_pull: Vec<usize>,
    }
    impl Iterator for ProbeSource {
        type Item = PushJob;
        fn next(&mut self) -> Option<PushJob> {
            self.sent_at_pull.push(self.counter.count());
            self.left.pop()
        }
    }

    #[test]
    fn single_worker_streams_pulls_between_sends() {
        let (net, counter) = wire(0);
        let mut source = ProbeSource {
            left: jobs(8, "http://c"),
            counter,
            sent_at_pull: Vec::new(),
        };
        let report = execute(&net, 1, &mut source);
        assert_eq!(report.delivered, 8);
        assert_eq!(
            source.sent_at_pull,
            (0..=8).collect::<Vec<usize>>(),
            "each job is sent before the next is pulled, with no barrier"
        );
    }

    #[test]
    fn nothing_to_overlap_streams_whatever_the_workers() {
        // No wire delay, or a single send: the publisher sends itself.
        for (delay_us, n) in [(0, 16), (20, 1)] {
            let (net, counter) = wire(delay_us);
            let report = execute(&net, 4, jobs(n, "http://c").into_iter());
            assert_eq!(report.mode, "inline");
            assert_eq!(report.delivered, n);
            assert_eq!(counter.count(), n);
        }
    }

    #[test]
    fn overlapped_matches_sequential_outcomes() {
        // Mixed good/missing endpoints, overlapped on the wire, must
        // report exactly what a sequential send loop reports: the same
        // counts, and failures, marks and latencies in match order.
        let addr = |i: usize| {
            if i % 4 == 3 {
                "http://nowhere".to_string()
            } else {
                "http://c".to_string()
            }
        };
        let run = |workers: usize| {
            let (net, counter) = wire(20);
            let report = execute(&net, workers, jobs_at(32, addr).into_iter());
            assert_eq!(counter.count(), 24);
            report
        };
        let (seq, over) = (run(1), run(4));
        assert_eq!((seq.mode, over.mode), ("inline", "overlapped"));
        for report in [&seq, &over] {
            assert_eq!(report.jobs, 32);
            assert_eq!(report.delivered, 24);
            assert_eq!(report.delta.failed, 8);
            assert_eq!(report.latencies_ns.len(), 32);
            assert!(report.failures.iter().all(|(kind, job)| {
                *kind == FailKind::Transient && job.address() == "http://nowhere"
            }));
        }
        let failed = |r: &FanOutReport| -> Vec<String> {
            r.failures
                .iter()
                .map(|(_, j)| j.sub_id().to_string())
                .collect()
        };
        let resolved = |r: &FanOutReport| -> Vec<Arc<str>> {
            r.resolved.iter().map(|m| m.sub_id.clone()).collect()
        };
        assert_eq!(failed(&seq), failed(&over));
        assert_eq!(resolved(&seq), resolved(&over));
        assert!(seq.join_wait_ns == 0 && over.join_wait_ns > 0);
    }

    #[test]
    fn an_overlapped_fan_out_waits_about_one_delay() {
        // Sixteen 2 ms sends: 32 ms back to back, one delay overlapped.
        let (net, counter) = wire(2_000);
        let started = Instant::now();
        let report = execute(&net, 4, jobs(16, "http://c").into_iter());
        let took = started.elapsed();
        assert_eq!(report.delivered, 16);
        assert!(took < Duration::from_millis(16), "took {took:?}");
        let me = std::thread::current().name().map(str::to_string);
        let names = counter.0.lock().clone();
        assert!(
            names.iter().all(|n| Some(n) == me.as_ref()),
            "the publisher ran every handler: {names:?}"
        );
    }

    #[test]
    fn failures_reported_with_retry_budget() {
        // No handler registered: every send fails.
        for workers in [1, 4] {
            let (net, _) = wire(20);
            let report = execute(&net, workers, jobs(8, "http://nowhere").into_iter());
            assert_eq!(report.delivered, 0);
            assert_eq!(report.delta.failed, 8);
            assert_eq!(report.failures.len(), 8);
            for (kind, job) in &report.failures {
                assert_eq!(*kind, FailKind::Transient, "missing endpoint is transient");
                assert_eq!(job.address(), "http://nowhere", "job handed back intact");
            }
        }
    }

    struct Faulty;
    impl SoapHandler for Faulty {
        fn handle(&self, _req: Envelope) -> Result<Option<Envelope>, wsm_soap::Fault> {
            Err(wsm_soap::Fault::receiver("always rejects"))
        }
    }

    #[test]
    fn poison_responses_skip_the_retry_budget() {
        for workers in [1, 4] {
            let (net, _) = wire(20);
            net.register("http://faulty", Arc::new(Faulty));
            let report = execute(&net, workers, jobs(2, "http://faulty").into_iter());
            assert_eq!(report.delivered, 0);
            assert_eq!(report.delta.failed, 2);
            assert!(report
                .failures
                .iter()
                .all(|(kind, _)| *kind == FailKind::Poison));
        }
    }

    #[test]
    fn send_classifies_each_attempt_and_its_failure() {
        let net = Network::new();
        net.register("http://faulty", Arc::new(Faulty));
        let env = || Envelope::new(SoapVersion::V11).with_body(Element::local("e"));
        assert_eq!(
            send(&net, "http://nowhere", env(), 0),
            Err(FailKind::Transient),
            "a missing endpoint is transient"
        );
        assert_eq!(
            send(&net, "http://faulty", env(), 1),
            Err(FailKind::Poison),
            "a SOAP fault is poison"
        );
        let m = net.metrics();
        assert_eq!(
            (
                m.counter("net_sends_first_total").get(),
                m.counter("net_sends_retry_total").get()
            ),
            (1, 1),
            "attempt 0 is the first send, any later one a retry"
        );
    }
}
