//! Push fan-out: every matched push subscriber of one publication gets
//! exactly one send, posted on the publishing thread's [`Landing`].
//!
//! [`execute`] takes the publication as an iterator of rendered
//! [`PushJob`]s and runs one loop: post each job as the source yields
//! it, tally every fate that has landed by then, and once the source is
//! spent wait for the sends still in flight (the `handoff` stage).
//!
//! * On a wire with no send delay a post lands before it returns, so
//!   each job is sent and tallied before the next is pulled: the
//!   envelope goes out while still hot from its render, and nothing is
//!   left to wait for.
//! * On a delayed wire ([`Network::set_send_delay_us`]) the publisher
//!   lands each send itself once its delay has passed — between renders
//!   if it is due by then, else in the final wait — so a publication of
//!   *n* sends waits about one delay rather than *n*. No thread is
//!   parked per send, so overlapping needs no cores.
//!
//! Fates land in post order, so outcomes are tallied in match order,
//! and a publication returns only after its last send has landed:
//! subscriber *S* always observes a publisher's event *n* before its
//! event *n+1*. The jobs in flight and the landing's queues are
//! per-thread buffers reused across publications, so a fan-out
//! allocates no per-job bookkeeping once its thread has warmed up. The
//! broker applies one [`StatsDelta`] per publication and drops failed
//! subscriptions after the fan-out.
//!
//! Every push attempt, a first-round send posted here or a redelivery
//! from an outbox (`crate::outbox`) made by `send`, is one attempt. A
//! failed first-round send is handed back in the [`FanOutReport`]; the
//! broker decides its fate.

use crate::detect::SpecDialect;
use crate::registry::BrokerSubscription;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use wsm_soap::Envelope;
use wsm_transport::{AttemptClass, Landed, Landing, Network, TransportError};

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
/// blocking: the redelivery pump's. The fan-out posts its sends
/// instead, each a first attempt.
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
    /// Wall time the publishing thread spent waiting, once the source
    /// was spent, for the sends still in flight to land; 0 when none
    /// was (the broker then records no `handoff` stage).
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
    /// Record the landed fate of the oldest job in flight, which it
    /// answers (fates land in post order). A failed job is kept for the
    /// broker; a delivered one leaves only its mark.
    fn tally(&mut self, in_flight: &mut VecDeque<PushJob>, landed: Landed) {
        let job = in_flight
            .pop_front()
            .expect("each fate answers a posted job");
        self.jobs += 1;
        self.latencies_ns.push(landed.elapsed.as_nanos() as u64);
        match landed.result {
            Ok(()) => {
                self.delivered += 1;
                self.delta.count_delivered(&job.sub, job.mediated);
                self.resolved.push(job.resolved());
            }
            Err(err) => {
                self.delta.failed += 1;
                self.failures.push((FailKind::of(&err), job));
            }
        }
    }
}

thread_local! {
    /// The jobs of this thread's last fan-out that were posted and not
    /// yet tallied, emptied, so that its next fan-out reuses the
    /// capacity.
    static IN_FLIGHT: Cell<VecDeque<PushJob>> = const { Cell::new(VecDeque::new()) };
}

/// Execute a publication's push fan-out (see the module docs): post
/// each job as soon as it is pulled from `jobs`, which may render
/// lazily, tally each fate as soon as it lands, and wait once at the
/// end for the sends still in flight.
pub fn execute(net: &Network, jobs: impl Iterator<Item = PushJob>) -> FanOutReport {
    // Sized from the upper bound: a filtering source reports a lower
    // bound of zero.
    let most = jobs.size_hint().1.unwrap_or_default();
    let mut report = FanOutReport {
        resolved: Vec::with_capacity(most),
        latencies_ns: Vec::with_capacity(most),
        ..FanOutReport::default()
    };
    let mut in_flight = IN_FLIGHT.take();
    let mut landing = Landing::new(net);
    for job in jobs {
        landing.post(job.address(), job.envelope.clone());
        in_flight.push_back(job);
        while let Some(landed) = landing.take_landed() {
            report.tally(&mut in_flight, landed);
        }
    }
    if !in_flight.is_empty() {
        let waited = Instant::now();
        for landed in landing {
            report.tally(&mut in_flight, landed);
        }
        report.join_wait_ns = waited.elapsed().as_nanos() as u64;
    }
    IN_FLIGHT.set(in_flight);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::test_sub;
    use std::time::Duration;
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
    fn every_job_is_delivered_on_either_wire() {
        for delay_us in [0, 20] {
            let (net, counter) = wire(delay_us);
            let report = execute(&net, jobs(16, "http://c").into_iter());
            assert_eq!(report.delivered, 16, "delay {delay_us} us");
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
    fn a_zero_delay_wire_sends_each_job_before_pulling_the_next() {
        let (net, counter) = wire(0);
        let mut source = ProbeSource {
            left: jobs(8, "http://c"),
            counter,
            sent_at_pull: Vec::new(),
        };
        let report = execute(&net, &mut source);
        assert_eq!(report.delivered, 8);
        assert_eq!(
            source.sent_at_pull,
            (0..=8).collect::<Vec<usize>>(),
            "each job is sent before the next is pulled, with no barrier"
        );
        assert_eq!(report.join_wait_ns, 0, "nothing was left to wait for");
    }

    #[test]
    fn a_delayed_wire_waits_once_even_for_one_send() {
        let (net, counter) = wire(20);
        let report = execute(&net, jobs(1, "http://c").into_iter());
        assert_eq!((report.delivered, counter.count()), (1, 1));
        assert!(report.join_wait_ns > 0, "the send was still in flight");
    }

    #[test]
    fn a_delayed_wire_reports_what_a_zero_delay_wire_reports() {
        // Mixed good/missing endpoints: overlapped on a delayed wire,
        // the fan-out must report exactly what it reports when every
        // send lands at once: the same counts, and failures, marks and
        // latencies in match order.
        let addr = |i: usize| {
            if i % 4 == 3 {
                "http://nowhere".to_string()
            } else {
                "http://c".to_string()
            }
        };
        let run = |delay_us: u64| {
            let (net, counter) = wire(delay_us);
            let report = execute(&net, jobs_at(32, addr).into_iter());
            assert_eq!(counter.count(), 24);
            report
        };
        let (at_once, delayed) = (run(0), run(20));
        for report in [&at_once, &delayed] {
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
        assert_eq!(failed(&at_once), failed(&delayed));
        assert_eq!(resolved(&at_once), resolved(&delayed));
        assert!(at_once.join_wait_ns == 0 && delayed.join_wait_ns > 0);
    }

    #[test]
    fn a_delayed_fan_out_waits_about_one_delay() {
        // Sixteen 2 ms sends: 32 ms back to back, one delay overlapped.
        let (net, counter) = wire(2_000);
        let started = Instant::now();
        let report = execute(&net, jobs(16, "http://c").into_iter());
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
        for delay_us in [0, 20] {
            let (net, _) = wire(delay_us);
            let report = execute(&net, jobs(8, "http://nowhere").into_iter());
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
        for delay_us in [0, 20] {
            let (net, _) = wire(delay_us);
            net.register("http://faulty", Arc::new(Faulty));
            let report = execute(&net, jobs(2, "http://faulty").into_iter());
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
