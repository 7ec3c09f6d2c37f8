//! Push fan-out: every matched push subscriber of one publication gets
//! exactly one send, posted on the publishing thread's pipeline.
//!
//! Each thread has one **pipeline**: the sends it has posted
//! ([`Network::post`]) and not yet landed, oldest first, each tagged
//! with the broker that posted it, then the run of landed fates one
//! broker has yet to settle. `execute` takes a publication as an iterator of
//! rendered [`PushJob`]s and runs one loop: post each job as the source
//! yields it, landing whatever is due by then. The pipeline outlives
//! the publication, and a send lands at whichever comes first:
//!
//! * a later post on the same thread, or the entry to its next
//!   publication, once the send is due;
//! * a fan-out that returns only once its own sends have landed
//!   (`Return::Landed`, a standalone broker's `publish_on`): it lands
//!   everything posted before its last send too;
//! * `FederatedMessenger::flush`, which lands everything;
//! * the cap: a thread holds at most `IN_FLIGHT_CAP` sends in flight,
//!   and a post at the cap first lands the oldest, waiting for it;
//! * the thread ending: the pipeline lands what it still holds.
//!
//! A federation shard's fan-out (`Return::Posted`) returns once its
//! sends are posted, so one thread's publications overlap on the wire.
//! On a wire with no send delay a post lands before it returns, so each
//! job is sent before the next is pulled and nothing is left in flight.
//! No thread is parked per send, so overlapping needs no cores.
//!
//! Sends land in post order, whoever lands them, so subscriber *S*
//! always observes a thread's event *n* before its event *n+1*, across
//! publications, shards and brokers. Each landed fate is settled by the
//! broker that posted it (`Settle`): ledger, latency histogram,
//! resolve marks, and legacy eviction or fault-tolerant admission, one
//! call per run of consecutive fates from one broker, through buffers
//! the pipeline reuses. A fate joins its run as it lands, so a
//! delivered job is dropped at once; only the run's settle waits.
//!
//! A send posted before a control operation (an Unsubscribe, say) may
//! land after its response, as on a real wire: control operations do
//! not land the pipeline.
//!
//! The pipeline is never borrowed while a handler runs, so a consumer
//! that publishes from its handler posts on the same pipeline, behind
//! the sends already in flight.
//!
//! Every push attempt, a first-round send posted here or a redelivery
//! from an outbox (`crate::outbox`) made by `send`, is one attempt. A
//! failed first-round send is handed back in the [`Fates`]; the broker
//! decides its fate.

use crate::detect::SpecDialect;
use crate::registry::BrokerSubscription;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use wsm_soap::Envelope;
use wsm_transport::{AttemptClass, Flight, Landed, Network, TransportError};

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

/// Landed fates of one broker's sends, settled as one run by that
/// broker (`Settle`). The pipeline keeps one and reuses it, so
/// settling allocates nothing once a thread has warmed up.
#[derive(Default)]
pub struct Fates {
    /// Stat increments to merge.
    pub delta: StatsDelta,
    /// Failed jobs, classified and handed back intact so the broker
    /// can re-enqueue them (fault-tolerant mode) or drop the
    /// subscription (legacy mode).
    pub failures: Vec<(FailKind, PushJob)>,
    /// First-round successes, identified so the broker can record
    /// their terminal resolution spans.
    pub resolved: Vec<ResolvedMark>,
    /// Wall-clock duration of each send, post to landing, for the
    /// broker's per-subscriber delivery-latency histogram.
    pub latencies_ns: Vec<u64>,
}

impl Fates {
    /// Record the fate `landed` of `job`. A failed job is kept for the
    /// broker; a delivered one leaves only its mark.
    fn add(&mut self, job: PushJob, landed: Landed) {
        self.latencies_ns.push(landed.elapsed.as_nanos() as u64);
        match landed.result {
            Ok(()) => {
                self.delta.count_delivered(&job.sub, job.mediated);
                self.resolved.push(job.resolved());
            }
            Err(err) => {
                self.delta.failed += 1;
                self.failures.push((FailKind::of(&err), job));
            }
        }
    }

    /// Empty every buffer, keeping its capacity.
    fn clear(&mut self) {
        self.delta = StatsDelta::default();
        self.failures.clear();
        self.resolved.clear();
        self.latencies_ns.clear();
    }
}

/// The broker a send was posted for, which settles its fate once it
/// lands: its ledger, latency histogram, resolve marks, and legacy
/// eviction or fault-tolerant admission.
pub(crate) trait Settle {
    /// Book a run of this broker's landed fates, in landing order.
    fn settle(&self, fates: &mut Fates);
}

/// Sends one thread may hold in flight. At the cap, a post first lands
/// the oldest, waiting for it if it is not due yet.
pub(crate) const IN_FLIGHT_CAP: usize = 1_024;

/// When a fan-out returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Return {
    /// Once its last send has landed, so its deliveries are counted (a
    /// standalone broker's `publish_on`).
    Landed,
    /// Once its sends are posted, holding at most `cap` of this
    /// thread's sends in flight (a federation shard's fan-out).
    Posted {
        /// The in-flight cap.
        cap: usize,
    },
}

/// What one fan-out did by the time it returned.
#[derive(Debug, Default)]
pub(crate) struct FanOut {
    /// Jobs the source yielded, each posted.
    pub(crate) jobs: usize,
    /// Of those, the deliveries that succeeded; counted only for
    /// `Return::Landed`, whose jobs have all landed by then.
    pub(crate) delivered: usize,
    /// Wall time the publishing thread slept for sends to land: for
    /// its last send (`Return::Landed`) or at the cap; 0 when it
    /// never did (the broker then records no `handoff` stage).
    pub(crate) waited_ns: u64,
}

/// One send in flight, with what settling its fate needs.
struct InFlight {
    flight: Flight,
    job: PushJob,
    owner: Arc<dyn Settle>,
    /// The slot in [`Pipeline::awaited`] of the publication that waits
    /// for this send, if one does.
    awaited: Option<usize>,
}

/// A thread's sends between post and settle (see the module docs).
#[derive(Default)]
struct Pipeline {
    /// Posted and not yet landed, oldest first.
    in_flight: VecDeque<InFlight>,
    /// The broker whose landed fates `fates` holds, not yet settled: a
    /// run ends when a send of another broker lands.
    run: Option<Arc<dyn Settle>>,
    fates: Fates,
    /// Sends this pipeline has posted, and of those landed.
    posts: u64,
    landings: u64,
    /// Deliveries counted so far for each publication on this thread
    /// that waits for its sends, innermost last.
    awaited: Vec<usize>,
}

thread_local! {
    /// This thread's pipeline.
    static PIPELINE: RefCell<Pipeline> = RefCell::new(Pipeline::default());
}

/// Run `f` on this thread's pipeline. A thread whose locals are being
/// torn down gets a fresh pipeline, landed and settled before this
/// returns.
fn with_pipeline<R>(f: impl FnOnce(&RefCell<Pipeline>) -> R) -> R {
    let mut f = Some(f);
    match PIPELINE.try_with(|pipe| (f.take().expect("called once"))(pipe)) {
        Ok(out) => out,
        Err(_) => {
            let pipe = RefCell::new(Pipeline::default());
            let out = (f.take().expect("not called"))(&pipe);
            land_all_on(&pipe);
            out
        }
    }
}

/// Land the oldest send in flight if it is due, or whenever `wait` is
/// set (sleeping out its delay). The pipeline is not borrowed while
/// the handler runs, so a handler may publish in turn. Returns whether
/// a send landed.
fn land_oldest(pipe: &RefCell<Pipeline>, wait: bool) -> bool {
    let next = {
        let mut p = pipe.borrow_mut();
        let due = p
            .in_flight
            .front()
            .is_some_and(|s| wait || s.flight.due() <= Instant::now());
        if due {
            p.in_flight.pop_front()
        } else {
            None
        }
    };
    let Some(InFlight {
        flight,
        job,
        owner,
        awaited,
    }) = next
    else {
        return false;
    };
    record_landing(pipe, &owner, job, awaited, flight.land());
    true
}

/// Count a landed send, credit a delivery to the publication waiting
/// on it, if one is, and add its fate to `owner`'s run, settling the
/// run of another broker first.
fn record_landing(
    pipe: &RefCell<Pipeline>,
    owner: &Arc<dyn Settle>,
    job: PushJob,
    awaited: Option<usize>,
    landed: Landed,
) {
    let other = (pipe.borrow().run.as_ref()).is_some_and(|run| !Arc::ptr_eq(run, owner));
    if other {
        settle(pipe);
    }
    let mut p = pipe.borrow_mut();
    p.landings += 1;
    if let (Some(slot), Ok(())) = (awaited, &landed.result) {
        if let Some(n) = p.awaited.get_mut(slot) {
            *n += 1;
        }
    }
    if p.run.is_none() {
        p.run = Some(Arc::clone(owner));
    }
    p.fates.add(job, landed);
}

/// Settle the run of landed fates, if any. Its buffers are taken out
/// meanwhile, so a settle that sends (a `SubscriptionEnd`) may publish
/// in turn.
fn settle(pipe: &RefCell<Pipeline>) {
    let (owner, mut fates) = {
        let mut p = pipe.borrow_mut();
        let Some(owner) = p.run.take() else {
            return;
        };
        (owner, std::mem::take(&mut p.fates))
    };
    owner.settle(&mut fates);
    fates.clear();
    let mut p = pipe.borrow_mut();
    // A run that began meanwhile keeps its own buffers.
    if p.run.is_none() {
        p.fates = fates;
    }
}

/// Land every send in flight, waiting for each, then settle them all.
fn land_all_on(pipe: &RefCell<Pipeline>) -> usize {
    let before = pipe.borrow().landings;
    while land_oldest(pipe, true) {}
    settle(pipe);
    (pipe.borrow().landings - before) as usize
}

/// Land and settle the sends of this thread that are due by now. Called
/// on entry to each publication, so that a due send does not wait
/// while the publisher matches and renders, and on its exit, once its
/// own spans are recorded.
pub(crate) fn land_due() {
    with_pipeline(|pipe| {
        while land_oldest(pipe, false) {}
        settle(pipe);
    });
}

/// Land and settle every send this thread holds in flight, waiting for
/// each; returns how many landed.
pub(crate) fn land_all() -> usize {
    with_pipeline(land_all_on)
}

/// Sends this thread has posted and not yet landed.
pub(crate) fn in_flight() -> usize {
    with_pipeline(|pipe| pipe.borrow().in_flight.len())
}

/// Execute a publication's push fan-out (see the module docs): post
/// each job on this thread's pipeline as soon as it is pulled from
/// `jobs`, which may render lazily; land whatever is due as it goes;
/// then, for `Return::Landed`, land up to this publication's last
/// send. The fates of `owner`'s sends are settled at the next
/// [`land_due`] (or flush), which the caller makes once it has
/// recorded the publication's own spans.
pub(crate) fn execute(
    net: &Network,
    owner: &Arc<dyn Settle>,
    jobs: impl Iterator<Item = PushJob>,
    until: Return,
) -> FanOut {
    with_pipeline(|pipe| {
        let (cap, awaited) = match until {
            Return::Landed => {
                let mut p = pipe.borrow_mut();
                p.awaited.push(0);
                (IN_FLIGHT_CAP, Some(p.awaited.len() - 1))
            }
            Return::Posted { cap } => (cap.max(1), None),
        };
        let mut out = FanOut::default();
        for job in jobs {
            out.jobs += 1;
            post(pipe, net, owner, job, awaited, cap, &mut out);
        }
        if awaited.is_some() {
            let last = pipe.borrow().posts;
            if pipe.borrow().landings < last {
                let waited = Instant::now();
                while pipe.borrow().landings < last && land_oldest(pipe, true) {}
                out.waited_ns += waited.elapsed().as_nanos() as u64;
            }
            out.delivered = pipe.borrow_mut().awaited.pop().unwrap_or_default();
        }
        out
    })
}

/// Post one job: with no send delay and nothing in flight, send it at
/// once; else land what is due, make room under `cap`, and queue it.
fn post(
    pipe: &RefCell<Pipeline>,
    net: &Network,
    owner: &Arc<dyn Settle>,
    job: PushJob,
    awaited: Option<usize>,
    cap: usize,
    out: &mut FanOut,
) {
    if net.send_delay_us() == 0 && pipe.borrow().in_flight.is_empty() {
        let started = Instant::now();
        let result = net.send(job.address(), job.envelope.clone());
        let landed = Landed {
            result,
            elapsed: started.elapsed(),
        };
        pipe.borrow_mut().posts += 1;
        record_landing(pipe, owner, job, awaited, landed);
        return;
    }
    while land_oldest(pipe, false) {}
    if pipe.borrow().in_flight.len() >= cap {
        let waited = Instant::now();
        while pipe.borrow().in_flight.len() >= cap && land_oldest(pipe, true) {}
        out.waited_ns += waited.elapsed().as_nanos() as u64;
    }
    let flight = net.post(job.address(), job.envelope.clone());
    let mut p = pipe.borrow_mut();
    p.posts += 1;
    p.in_flight.push_back(InFlight {
        flight,
        job,
        owner: Arc::clone(owner),
        awaited,
    });
}

/// A thread that ends lands and settles what it still holds.
impl Drop for Pipeline {
    fn drop(&mut self) {
        if self.in_flight.is_empty() && self.run.is_none() {
            return;
        }
        land_all_on(&RefCell::new(std::mem::take(self)));
    }
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

    /// An owner that keeps every fate it settles, and how many runs.
    #[derive(Default)]
    struct Kept(parking_lot::Mutex<(Fates, usize)>);
    impl Settle for Kept {
        fn settle(&self, fates: &mut Fates) {
            let (kept, runs) = &mut *self.0.lock();
            *runs += 1;
            kept.delta.merge(&fates.delta);
            kept.failures.append(&mut fates.failures);
            kept.resolved.append(&mut fates.resolved);
            kept.latencies_ns.append(&mut fates.latencies_ns);
        }
    }
    impl Kept {
        fn settled(&self) -> usize {
            self.0.lock().0.latencies_ns.len()
        }
    }

    /// Fan `jobs` out for a fresh [`Kept`] owner, returning once they
    /// have landed and settled, as a standalone broker does.
    fn execute_kept(net: &Network, jobs: Vec<PushJob>) -> (FanOut, Arc<Kept>) {
        let kept = Arc::new(Kept::default());
        let owner: Arc<dyn Settle> = kept.clone();
        let out = execute(net, &owner, jobs.into_iter(), Return::Landed);
        land_due();
        (out, kept)
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
            let (out, kept) = execute_kept(&net, jobs(16, "http://c"));
            assert_eq!((out.jobs, out.delivered), (16, 16), "delay {delay_us} us");
            let (fates, runs) = &*kept.0.lock();
            assert_eq!(fates.delta.delivered_wse, 8);
            assert_eq!(fates.delta.delivered_wsn, 8);
            assert_eq!(fates.delta.failed, 0);
            assert!(fates.failures.is_empty());
            assert_eq!(*runs, 1, "one publication's fates settle as one run");
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
        let owner: Arc<dyn Settle> = Arc::new(Kept::default());
        let out = execute(&net, &owner, &mut source, Return::Landed);
        assert_eq!(out.delivered, 8);
        assert_eq!(
            source.sent_at_pull,
            (0..=8).collect::<Vec<usize>>(),
            "each job is sent before the next is pulled, with no barrier"
        );
        assert_eq!(out.waited_ns, 0, "nothing was left to wait for");
    }

    #[test]
    fn a_delayed_wire_waits_once_even_for_one_send() {
        let (net, counter) = wire(20);
        let (out, _) = execute_kept(&net, jobs(1, "http://c"));
        assert_eq!((out.delivered, counter.count()), (1, 1));
        assert!(out.waited_ns > 0, "the send was still in flight");
    }

    #[test]
    fn a_delayed_wire_settles_what_a_zero_delay_wire_settles() {
        // Mixed good/missing endpoints: overlapped on a delayed wire,
        // the fan-out must settle exactly what it settles when every
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
            let (out, kept) = execute_kept(&net, jobs_at(32, addr));
            assert_eq!(counter.count(), 24);
            assert_eq!((out.jobs, out.delivered), (32, 24));
            (out, kept)
        };
        let ((at_once, instant), (delayed, late)) = (run(0), run(20));
        for kept in [&instant, &late] {
            let (fates, _) = &*kept.0.lock();
            assert_eq!(fates.delta.failed, 8);
            assert_eq!(fates.latencies_ns.len(), 32);
            assert!(fates.failures.iter().all(|(kind, job)| {
                *kind == FailKind::Transient && job.address() == "http://nowhere"
            }));
        }
        let failed = |k: &Kept| -> Vec<String> {
            (k.0.lock().0.failures.iter())
                .map(|(_, j)| j.sub_id().to_string())
                .collect()
        };
        let resolved = |k: &Kept| -> Vec<Arc<str>> {
            (k.0.lock().0.resolved.iter())
                .map(|m| m.sub_id.clone())
                .collect()
        };
        assert_eq!(failed(&instant), failed(&late));
        assert_eq!(resolved(&instant), resolved(&late));
        assert!(at_once.waited_ns == 0 && delayed.waited_ns > 0);
    }

    #[test]
    fn a_delayed_fan_out_waits_about_one_delay() {
        // Sixteen 2 ms sends: 32 ms back to back, one delay overlapped.
        let (net, counter) = wire(2_000);
        let started = Instant::now();
        let (out, _) = execute_kept(&net, jobs(16, "http://c"));
        let took = started.elapsed();
        assert_eq!(out.delivered, 16);
        assert!(took < Duration::from_millis(16), "took {took:?}");
        let me = std::thread::current().name().map(str::to_string);
        let names = counter.0.lock().clone();
        assert!(
            names.iter().all(|n| Some(n) == me.as_ref()),
            "the publisher ran every handler: {names:?}"
        );
    }

    /// Post `jobs` for `owner` and return once they are posted, as a
    /// federation shard does.
    fn post_all(net: &Network, owner: &Arc<Kept>, jobs: Vec<PushJob>, cap: usize) -> FanOut {
        let owner: Arc<dyn Settle> = owner.clone();
        let out = execute(net, &owner, jobs.into_iter(), Return::Posted { cap });
        land_due();
        out
    }

    #[test]
    fn a_posted_fan_out_returns_before_its_sends_land_and_a_flush_lands_them() {
        let (net, counter) = wire(20_000);
        let kept = Arc::new(Kept::default());
        let out = post_all(&net, &kept, jobs(4, "http://c"), IN_FLIGHT_CAP);
        assert_eq!((out.jobs, out.delivered, out.waited_ns), (4, 0, 0));
        assert_eq!((counter.count(), kept.settled(), in_flight()), (0, 0, 4));
        assert_eq!(land_all(), 4);
        assert_eq!((counter.count(), kept.settled(), in_flight()), (4, 4, 0));
        assert_eq!(kept.0.lock().0.delta.delivered_wse, 2);
    }

    #[test]
    fn a_later_post_lands_the_sends_that_are_due() {
        let (net, counter) = wire(1_000);
        let kept = Arc::new(Kept::default());
        post_all(&net, &kept, jobs(3, "http://c"), IN_FLIGHT_CAP);
        std::thread::sleep(Duration::from_millis(2));
        post_all(&net, &kept, jobs(1, "http://c"), IN_FLIGHT_CAP);
        assert_eq!((counter.count(), kept.settled(), in_flight()), (3, 3, 1));
        assert_eq!(land_all(), 1);
    }

    #[test]
    fn at_the_cap_a_post_first_lands_the_oldest() {
        let (net, counter) = wire(5_000);
        let kept = Arc::new(Kept::default());
        let out = post_all(&net, &kept, jobs(3, "http://c"), 2);
        assert!(counter.count() >= 1, "the third post landed the first");
        assert!(out.waited_ns > 0, "it waited for it");
        assert!(in_flight() <= 2);
        let out = post_all(&net, &kept, jobs(1, "http://c"), 1);
        assert_eq!((counter.count(), in_flight()), (3, 1));
        assert!(out.waited_ns > 0);
        assert_eq!(land_all(), 1);
    }

    #[test]
    fn a_landed_fan_out_lands_every_earlier_posted_send_first() {
        // Posted sends of one owner, then a publication that waits for
        // its own: the consumer sees them all in post order, and each
        // owner settles its own fates.
        let net = Network::new();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        struct Log(Arc<parking_lot::Mutex<Vec<String>>>);
        impl SoapHandler for Log {
            fn handle(&self, req: Envelope) -> Result<Option<Envelope>, wsm_soap::Fault> {
                let body = req.body().expect("a body");
                self.0.lock().push(body.name.local.to_string());
                Ok(None)
            }
        }
        net.register("http://c", Arc::new(Log(seen.clone())));
        net.set_send_delay_us(2_000);
        let named = |name: &str| {
            let mut job = jobs(1, "http://c").remove(0);
            job.envelope = Envelope::new(SoapVersion::V11).with_body(Element::local(name));
            job
        };
        let posted = Arc::new(Kept::default());
        post_all(&net, &posted, vec![named("a"), named("b")], IN_FLIGHT_CAP);
        let (out, landed) = execute_kept(&net, vec![named("c")]);
        assert_eq!(*seen.lock(), ["a", "b", "c"]);
        assert_eq!(
            (out.delivered, posted.settled(), landed.settled()),
            (1, 2, 1)
        );
        assert_eq!(in_flight(), 0);
    }

    #[test]
    fn a_thread_that_ends_lands_what_it_still_holds() {
        let (net, counter) = wire(5_000);
        let kept = Arc::new(Kept::default());
        std::thread::spawn({
            let (net, kept) = (net.clone(), kept.clone());
            move || {
                post_all(&net, &kept, jobs(8, "http://c"), IN_FLIGHT_CAP);
                assert_eq!(in_flight(), 8);
            }
        })
        .join()
        .unwrap();
        assert_eq!((counter.count(), kept.settled()), (8, 8));
    }

    /// On each delivery, posts one more job to `http://c` from inside
    /// the handler, while the pipeline is landing.
    struct Republish {
        net: Network,
        owner: Arc<Kept>,
    }
    impl SoapHandler for Republish {
        fn handle(&self, _req: Envelope) -> Result<Option<Envelope>, wsm_soap::Fault> {
            post_all(&self.net, &self.owner, jobs(1, "http://c"), IN_FLIGHT_CAP);
            Ok(None)
        }
    }

    #[test]
    fn a_handler_that_publishes_while_its_send_lands_posts_on_the_same_pipeline() {
        let (net, counter) = wire(1_000);
        let nested = Arc::new(Kept::default());
        let relay = Republish {
            net: net.clone(),
            owner: nested.clone(),
        };
        net.register("http://relay", Arc::new(relay));
        let outer = Arc::new(Kept::default());
        post_all(&net, &outer, jobs(5, "http://relay"), IN_FLIGHT_CAP);
        // Each of the five landings posts one more send; the flush lands
        // those too, since they join the queue it is emptying.
        assert_eq!(land_all(), 10);
        assert_eq!(
            (counter.count(), outer.settled(), nested.settled()),
            (5, 5, 5)
        );
        net.unregister("http://relay"); // the relay holds the network
    }

    #[test]
    fn failures_reported_with_retry_budget() {
        // No handler registered: every send fails.
        for delay_us in [0, 20] {
            let (net, _) = wire(delay_us);
            let (out, kept) = execute_kept(&net, jobs(8, "http://nowhere"));
            assert_eq!(out.delivered, 0);
            let (fates, _) = &*kept.0.lock();
            assert_eq!(fates.delta.failed, 8);
            assert_eq!(fates.failures.len(), 8);
            for (kind, job) in &fates.failures {
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
            let (out, kept) = execute_kept(&net, jobs(2, "http://faulty"));
            assert_eq!(out.delivered, 0);
            let (fates, _) = &*kept.0.lock();
            assert_eq!(fates.delta.failed, 2);
            assert!(fates
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
