//! Push fan-out: a streaming inline path and a persistent worker
//! pool, with a governor choosing between them per publication.
//!
//! The broker's push deliveries are independent of each other within a
//! single publication — each matched subscriber gets exactly one
//! envelope — so the delivery engine may overlap the sends across a
//! worker pool without touching the ordering guarantee: a publication
//! blocks until its whole fan-out completes, so subscriber *S* always
//! observes a publisher's event *n* before its event *n+1*.
//!
//! [`DeliveryEngine::execute`] takes the publication as an iterator of
//! rendered [`PushJob`]s and runs one of two paths:
//!
//! * **streaming** — pull one job, send it, repeat, on the publishing
//!   thread, so each envelope goes out while still hot from its render.
//!   With `set_fanout_workers(0|1)` or a fan-out under four jobs this
//!   is the only path: the sequential baseline, sending in match order.
//! * **pool** — the publisher renders the whole publication into one
//!   `PubWork` and sends the same `Arc` to every pool worker. Every
//!   sending thread, the publisher included, claims runs of `step` jobs
//!   by advancing one shared cursor until it passes the end, then
//!   merges its outcomes once into one gather; the publisher waits for
//!   the last merge. One `fetch_add` per claim is the whole protocol.
//!
//! Every push attempt, a first-round send here or a redelivery from an
//! outbox (`crate::outbox`), goes through one function, `send`, which
//! makes exactly one attempt. A failed first-round send is handed back
//! in the [`FanOutReport`]; the broker decides its fate.
//!
//! The governor keeps a per-size-bucket EWMA of observed per-job cost
//! for both paths and picks the cheaper, probing the loser
//! occasionally so a regime change (e.g. wire latency appearing) is
//! noticed.
//!
//! The pool is **persistent and lazy**: worker threads spawn the first
//! time a publication goes to the pool and then park on their
//! per-worker channel between publications. Workers report
//! per-delivery outcomes into a per-publication `Gather` merged once
//! under one lock, so the broker applies one [`StatsDelta`] per
//! publication and drops failed subscriptions *after* the fan-out
//! completes — worker threads never take registry locks.

use crate::detect::SpecDialect;
use crate::registry::BrokerSubscription;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread;
use std::time::Instant;
use wsm_soap::Envelope;
use wsm_transport::{AttemptClass, Network, TransportError};

/// How many push jobs a publication needs before parallel dispatch is
/// worth considering. Below this the engine always streams inline on
/// the publishing thread.
const PARALLEL_THRESHOLD: usize = 4;

/// The most jobs one claim takes from the hand-off: large enough that
/// a large fan-out's atomic traffic is 1/CLAIM of per-job hand-off,
/// small enough that the other senders can still take over the rest
/// of a slow run.
const CLAIM: usize = 8;

/// The default worker count: one per available core.
pub fn default_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

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
/// [`AttemptClass::Retry`] otherwise. The one place a push is sent,
/// for the fan-out and the redelivery pump alike.
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

/// Per-thread accumulator of one fan-out's outcomes; workers each keep
/// one and merge it exactly once per publication.
#[derive(Default)]
struct Gather {
    delivered: usize,
    delta: StatsDelta,
    failures: Vec<(FailKind, PushJob)>,
    resolved: Vec<ResolvedMark>,
    latencies_ns: Vec<u64>,
}

impl Gather {
    fn merge(&mut self, other: Gather) {
        self.delivered += other.delivered;
        self.delta.merge(&other.delta);
        self.failures.extend(other.failures);
        self.resolved.extend(other.resolved);
        self.latencies_ns.extend(other.latencies_ns);
    }

    /// Record one send of `job`, begun at `started`. The job stays
    /// where it is (the publisher's hands, or the shared hand-off), so
    /// the rare failure clones out — reference bumps: a job is a
    /// subscription handle, a copy-on-write envelope and a few numbers.
    fn tally(&mut self, job: &PushJob, started: Instant, result: Result<(), FailKind>) {
        self.latencies_ns.push(started.elapsed().as_nanos() as u64);
        match result {
            Ok(()) => {
                self.delivered += 1;
                self.delta.count_delivered(&job.sub, job.mediated);
                self.resolved.push(job.resolved());
            }
            Err(kind) => {
                self.delta.failed += 1;
                self.failures.push((kind, job.clone()));
            }
        }
    }
}

/// What one publication's fan-out did.
pub struct FanOutReport {
    /// Successful deliveries.
    pub delivered: usize,
    /// Total push jobs the source yielded.
    pub jobs: usize,
    /// Which dispatch path ran: `"inline"` (streaming on the
    /// publishing thread) or `"sharded"` (worker pool).
    pub mode: &'static str,
    /// Wall time the publishing thread spent waiting for workers to
    /// finish after its own claims ran dry (pool path only; the broker
    /// records it as the `handoff` stage).
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
    fn from_gather(gather: Gather, jobs: usize, mode: &'static str) -> FanOutReport {
        FanOutReport {
            delivered: gather.delivered,
            jobs,
            mode,
            join_wait_ns: 0,
            delta: gather.delta,
            failures: gather.failures,
            resolved: gather.resolved,
            latencies_ns: gather.latencies_ns,
        }
    }
}

// --------------------------------------------------------- hand-off

/// One publication's hand-off to the pool: the fully rendered jobs, a
/// claim cursor shared by every sending thread, and the gather they
/// merge into.
///
/// Protocol: the publisher builds this with every job in place, sends
/// the same `Arc` to each pool worker and claims alongside them. A
/// claim advances `cursor` by `step`; a thread whose claim starts past
/// the end has nothing left to take, merges its outcomes once and, if
/// it is the last pool worker to merge, wakes the publisher. Every job
/// is therefore sent by exactly one thread, and the publisher returns
/// only after every worker has merged.
struct PubWork {
    jobs: Vec<PushJob>,
    /// Jobs per claim: `jobs / (4 × (workers + 1))` clamped to
    /// `1..=CLAIM`, so each sending thread gets about four claims and
    /// a small slow fan-out is still shared rather than taken whole by
    /// the first thread to claim.
    step: usize,
    cursor: AtomicUsize,
    /// Pool workers that will merge into `sync` (the publisher merges
    /// its own claims separately).
    workers: usize,
    sync: StdMutex<Collected>,
    cv: Condvar,
}

#[derive(Default)]
struct Collected {
    merged: usize,
    gather: Gather,
}

impl PubWork {
    fn new(jobs: Vec<PushJob>, workers: usize) -> PubWork {
        PubWork {
            step: (jobs.len() / (4 * (workers + 1))).clamp(1, CLAIM),
            jobs,
            cursor: AtomicUsize::new(0),
            workers,
            sync: StdMutex::new(Collected::default()),
            cv: Condvar::new(),
        }
    }

    /// Send claimed runs of `step` jobs until the cursor passes the end.
    /// The cursor publishes no data (the jobs reached every thread with
    /// the `Arc`, through the channel), so `Relaxed` suffices.
    fn claim(&self, net: &Network, local: &mut Gather) {
        loop {
            let start = self.cursor.fetch_add(self.step, Ordering::Relaxed);
            if start >= self.jobs.len() {
                return;
            }
            let end = (start + self.step).min(self.jobs.len());
            for job in &self.jobs[start..end] {
                let started = Instant::now();
                let result = send(net, job.address(), job.envelope.clone(), 0);
                local.tally(job, started, result);
            }
        }
    }

    /// A pool worker's whole participation in this publication: claim
    /// until drained, then merge exactly once; the last merger wakes
    /// the publisher.
    fn run_worker(&self, net: &Network) {
        let mut local = Gather::default();
        self.claim(net, &mut local);
        let mut c = self.sync.lock().expect("pubwork mutex");
        c.merged += 1;
        c.gather.merge(local);
        let all = c.merged == self.workers;
        drop(c);
        if all {
            self.cv.notify_all();
        }
    }

    /// Publisher-side rendezvous: block until every pool worker has
    /// merged, then take the combined results. The predicate is read
    /// under the lock the last merger writes it under, so no wakeup
    /// can be lost.
    fn wait_merged(&self) -> Gather {
        let c = self.sync.lock().expect("pubwork mutex");
        let mut c = self
            .cv
            .wait_while(c, |c| c.merged < self.workers)
            .expect("pubwork condvar");
        std::mem::take(&mut c.gather)
    }
}

// --------------------------------------------------------- governor

const MODE_INLINE: usize = 0;
const MODE_SHARDED: usize = 1;
/// Every `PROBE_PERIOD`-th governed publication in a bucket runs the
/// currently-losing mode so its EWMA tracks regime changes.
const PROBE_PERIOD: u64 = 64;
/// Probe cadence when the losing mode is losing by ≥ 1.5×: each probe is
/// then pure overhead paid on a path we are already confident about,
/// and at the default cadence that tax shows up as a systematic
/// few-percent throughput loss at small fan-outs (one ~50µs sharded
/// handoff amortized over 64 ~20µs inline publications).
const PROBE_PERIOD_LANDSLIDE: u64 = PROBE_PERIOD * 8;
/// Publications each path runs (per bucket) before its estimate is
/// trusted. A single-sample bootstrap proved fragile: one anomalous
/// sharded run — a scheduler hiccup during the handoff — mispriced
/// the path for hundreds of publications, because after bootstrap the
/// loser is only re-sampled on sparse probes blended at α = 1/8.
const BOOTSTRAP_SAMPLES: u64 = 3;

/// The governor's memory: an EWMA (α = 1/8) of observed per-job
/// nanoseconds for each dispatch path, in three fan-out size buckets
/// (the crossover depends on batch size: handoff amortizes over more
/// jobs as fan-out grows). Zero means "never measured" and forces a
/// bootstrap run of that path.
struct Governor {
    ewma: [[AtomicU64; 3]; 2],
    /// Samples observed per mode per bucket; gates bootstrap.
    seeds: [[AtomicU64; 3]; 2],
    ticks: [AtomicU64; 3],
}

impl Governor {
    fn new() -> Governor {
        Governor {
            ewma: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            seeds: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            ticks: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn bucket(jobs: usize) -> usize {
        if jobs < 16 {
            0
        } else if jobs < 128 {
            1
        } else {
            2
        }
    }

    /// Pick a path for a fan-out of `jobs`: bootstrap unmeasured paths
    /// first, then the cheaper EWMA, probing the loser periodically.
    fn choose(&self, jobs: usize) -> usize {
        let b = Self::bucket(jobs);
        if self.seeds[MODE_INLINE][b].load(Ordering::Relaxed) < BOOTSTRAP_SAMPLES {
            return MODE_INLINE;
        }
        if self.seeds[MODE_SHARDED][b].load(Ordering::Relaxed) < BOOTSTRAP_SAMPLES {
            return MODE_SHARDED;
        }
        let inline = self.ewma[MODE_INLINE][b].load(Ordering::Relaxed);
        let sharded = self.ewma[MODE_SHARDED][b].load(Ordering::Relaxed);
        // Sharded must *earn* dispatch by beating inline by more than
        // 25% estimated: at equal cost the streaming path is strictly
        // cheaper in side effects (no handoff, no worker wakeups), and
        // without the bias a near-tie flaps between modes on EWMA
        // noise — each flap paying a handoff the regime can't repay.
        let winner = if sharded < inline - inline / 4 {
            MODE_SHARDED
        } else {
            MODE_INLINE
        };
        let (won, lost) = if winner == MODE_INLINE {
            (inline, sharded)
        } else {
            (sharded, inline)
        };
        let t = self.ticks[b].fetch_add(1, Ordering::Relaxed);
        // A close race probes often (the crossover may genuinely flip);
        // a landslide — the loser estimated ≥1.5× the winner — probes
        // rarely, because there the probe itself is the only cost.
        let period = if lost > won + won / 2 {
            PROBE_PERIOD_LANDSLIDE
        } else {
            PROBE_PERIOD
        };
        if t % period == period - 1 {
            1 - winner
        } else {
            winner
        }
    }

    fn observe(&self, mode: usize, jobs: usize, elapsed_ns: u64) {
        let b = Self::bucket(jobs);
        let sample = (elapsed_ns / jobs.max(1) as u64).max(1);
        let seen = self.seeds[mode][b].fetch_add(1, Ordering::Relaxed);
        let cell = &self.ewma[mode][b];
        let old = cell.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else if seen < BOOTSTRAP_SAMPLES {
            // Seeding: average the bootstrap runs at half weight so
            // one anomalous run can't misprice the path.
            old / 2 + sample / 2
        } else if sample < old / 2 {
            // Fast attack: a sample under half the estimate is a
            // regime change, not noise — snap to it instead of
            // waiting ~10 sparse probes of 1/8-blend to converge.
            sample
        } else {
            old - old / 8 + sample / 8
        };
        cell.store(new, Ordering::Relaxed);
    }
}

// ----------------------------------------------------------- engine

/// A broker's delivery engine: a streaming inline path and a
/// persistent worker pool, with a governor choosing between the two.
pub struct DeliveryEngine {
    pool: Mutex<Option<Pool>>,
    governor: Governor,
}

/// One queue per worker: a publication enqueues exactly one
/// `Arc<PubWork>` to each, so steady-state dispatch is `workers`
/// channel hops per *publication* (not per message).
struct Pool {
    txs: Vec<Sender<Arc<PubWork>>>,
}

impl Default for DeliveryEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DeliveryEngine {
    /// An engine with no worker threads yet (they spawn on demand).
    pub fn new() -> Self {
        DeliveryEngine {
            pool: Mutex::new(None),
            governor: Governor::new(),
        }
    }

    /// Execute a publication's push fan-out. `jobs` renders lazily if
    /// it likes; its `size_hint` upper bound sizes the decision.
    /// Streamed inline when `workers <= 1`, the fan-out is small or the
    /// governor prefers it (each job sent as soon as it is pulled),
    /// otherwise rendered in full and handed to the worker pool.
    pub fn execute(
        &self,
        net: &Network,
        workers: usize,
        jobs: impl Iterator<Item = PushJob>,
    ) -> FanOutReport {
        let (low, high) = jobs.size_hint();
        let expected = high.unwrap_or(low);
        if workers <= 1 || expected < PARALLEL_THRESHOLD {
            return execute_streaming(net, jobs);
        }
        let pick = self.governor.choose(expected);
        let started = Instant::now();
        let report = if pick == MODE_INLINE {
            execute_streaming(net, jobs)
        } else {
            // Sized from the upper bound: `collect` would grow from the
            // lower one, which a filtering source reports as zero.
            let mut all = Vec::with_capacity(expected);
            all.extend(jobs);
            self.execute_sharded(net, workers, all)
        };
        self.governor
            .observe(pick, report.jobs, started.elapsed().as_nanos() as u64);
        report
    }

    /// The pool path: hand `jobs` to every worker, claim alongside
    /// them, and wait for the last merge.
    fn execute_sharded(&self, net: &Network, workers: usize, jobs: Vec<PushJob>) -> FanOutReport {
        let total = jobs.len();
        let txs = self.pool_senders(net, workers);
        let work = Arc::new(PubWork::new(jobs, workers));
        for tx in &txs {
            tx.send(Arc::clone(&work))
                .expect("delivery pool alive while engine exists");
        }
        let mut local = Gather::default();
        work.claim(net, &mut local);
        let join_started = Instant::now();
        let mut gather = work.wait_merged();
        let join_wait_ns = join_started.elapsed().as_nanos() as u64;
        gather.merge(local);
        let mut report = FanOutReport::from_gather(gather, total, "sharded");
        report.join_wait_ns = join_wait_ns;
        report
    }

    /// The per-worker queues for a pool of exactly `workers` threads,
    /// spawning or resizing the pool as needed. On resize the old
    /// queues' senders drop here, so the old workers drain their
    /// queues (merging any in-flight publication) and exit.
    fn pool_senders(&self, net: &Network, workers: usize) -> Vec<Sender<Arc<PubWork>>> {
        let mut pool = self.pool.lock();
        if let Some(p) = pool.as_ref() {
            if p.txs.len() == workers {
                return p.txs.clone();
            }
        }
        let mut txs = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = unbounded::<Arc<PubWork>>();
            let net = net.clone();
            // Named threads so the transport trace can attribute each
            // delivery to the worker that sent it.
            thread::Builder::new()
                .name(format!("wsm-push-{i}"))
                .spawn(move || {
                    for work in rx.iter() {
                        work.run_worker(&net);
                    }
                })
                .expect("spawn delivery worker");
            txs.push(tx);
        }
        *pool = Some(Pool { txs: txs.clone() });
        txs
    }
}

/// The streaming inline path: pull one job, send it, repeat — no
/// intermediate batch `Vec`, and each envelope is sent while still hot
/// from its render. Sends go out in iteration order on the publishing
/// thread, which is what chaos scenarios pinning `workers = 1` rely on
/// for a deterministic trace.
fn execute_streaming(net: &Network, jobs: impl Iterator<Item = PushJob>) -> FanOutReport {
    let mut gather = Gather::default();
    let mut total = 0usize;
    for job in jobs {
        total += 1;
        let started = Instant::now();
        let result = send(net, job.address(), job.envelope.clone(), 0);
        gather.tally(&job, started, result);
    }
    FanOutReport::from_gather(gather, total, "inline")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::test_sub;
    use wsm_soap::SoapVersion;
    use wsm_transport::SoapHandler;
    use wsm_xml::Element;

    struct Counter(parking_lot::Mutex<u32>);
    impl SoapHandler for Counter {
        fn handle(&self, _req: Envelope) -> Result<Option<Envelope>, wsm_soap::Fault> {
            *self.0.lock() += 1;
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

    #[test]
    fn parallel_and_sequential_agree() {
        for workers in [1, 4] {
            let net = Network::new();
            let counter = std::sync::Arc::new(Counter(parking_lot::Mutex::new(0)));
            net.register("http://c", counter.clone());
            let engine = DeliveryEngine::new();
            let report = engine.execute(&net, workers, jobs(16, "http://c").into_iter());
            assert_eq!(report.delivered, 16, "workers={workers}");
            assert_eq!(report.jobs, 16);
            assert_eq!(report.delta.delivered_wse, 8);
            assert_eq!(report.delta.delivered_wsn, 8);
            assert_eq!(report.delta.failed, 0);
            assert!(report.failures.is_empty());
            assert_eq!(*counter.0.lock(), 16);
        }
    }

    /// Yields `left` jobs, noting at each pull how many sends the
    /// counter endpoint has already handled.
    struct ProbeSource {
        left: Vec<PushJob>,
        counter: std::sync::Arc<Counter>,
        sent_at_pull: Vec<u32>,
    }
    impl Iterator for ProbeSource {
        type Item = PushJob;
        fn next(&mut self) -> Option<PushJob> {
            self.sent_at_pull.push(*self.counter.0.lock());
            self.left.pop()
        }
    }

    #[test]
    fn single_worker_streams_pulls_between_sends() {
        let net = Network::new();
        let counter = std::sync::Arc::new(Counter(parking_lot::Mutex::new(0)));
        net.register("http://c", counter.clone());
        let mut source = ProbeSource {
            left: jobs(8, "http://c"),
            counter,
            sent_at_pull: Vec::new(),
        };
        let report = DeliveryEngine::new().execute(&net, 1, &mut source);
        assert_eq!(report.delivered, 8);
        assert_eq!(
            source.sent_at_pull,
            (0..=8).collect::<Vec<u32>>(),
            "each job is sent before the next is pulled, with no barrier"
        );
    }

    #[test]
    fn sharded_matches_sequential_outcomes() {
        // Mixed good/missing endpoints, sent through the pool, must
        // report exactly what a sequential send loop would.
        let net = Network::new();
        let counter = std::sync::Arc::new(Counter(parking_lot::Mutex::new(0)));
        net.register("http://c", counter.clone());
        let addr = |i: usize| {
            if i % 4 == 3 {
                "http://nowhere".to_string()
            } else {
                "http://c".to_string()
            }
        };
        let report = DeliveryEngine::new().execute_sharded(&net, 4, jobs_at(32, addr));
        assert_eq!(report.mode, "sharded");
        assert_eq!(report.jobs, 32);
        assert_eq!(report.delivered, 24);
        assert_eq!(report.delta.failed, 8);
        assert_eq!(report.failures.len(), 8);
        assert!(report
            .failures
            .iter()
            .all(|(kind, job)| *kind == FailKind::Transient && job.address() == "http://nowhere"));
        assert_eq!(*counter.0.lock(), 24);
        assert_eq!(report.resolved.len(), 24);
        assert_eq!(report.latencies_ns.len(), 32);
    }

    struct Sleepy(std::time::Duration);
    impl SoapHandler for Sleepy {
        fn handle(&self, _req: Envelope) -> Result<Option<Envelope>, wsm_soap::Fault> {
            std::thread::sleep(self.0);
            Ok(None)
        }
    }

    /// Records the name of every thread that handles a delivery.
    struct SlowNamed(parking_lot::Mutex<Vec<String>>);
    impl SoapHandler for SlowNamed {
        fn handle(&self, _req: Envelope) -> Result<Option<Envelope>, wsm_soap::Fault> {
            let name = std::thread::current().name().unwrap_or("").to_string();
            self.0.lock().push(name);
            std::thread::sleep(std::time::Duration::from_millis(2));
            Ok(None)
        }
    }

    #[test]
    fn small_slow_fan_out_is_shared() {
        // Eight 2 ms sends across four workers: the claim step must be
        // small enough that the publisher, which claims first, cannot
        // take the whole fan-out before the workers wake.
        let net = Network::new();
        let handler = std::sync::Arc::new(SlowNamed(parking_lot::Mutex::new(Vec::new())));
        net.register("http://slow", handler.clone());
        let report = DeliveryEngine::new().execute_sharded(&net, 4, jobs(8, "http://slow"));
        assert_eq!(report.delivered, 8);
        let mut names = handler.0.lock().clone();
        assert_eq!(names.len(), 8);
        names.sort();
        names.dedup();
        assert!(
            names.len() >= 2,
            "the fan-out stayed on one thread: {names:?}"
        );
    }

    #[test]
    fn adaptive_governor_converges_to_sharded_under_wire_latency() {
        // With a real per-send delay, overlapping sends across threads
        // wins even on one core; after both paths' bootstrap runs
        // (BOOTSTRAP_SAMPLES each, inline first) the governor must
        // keep choosing the sharded path.
        let net = Network::new();
        net.register(
            "http://wire",
            std::sync::Arc::new(Sleepy(std::time::Duration::from_micros(200))),
        );
        let engine = DeliveryEngine::new();
        let mut modes = Vec::new();
        let boot = BOOTSTRAP_SAMPLES as usize;
        for _ in 0..(2 * boot + 4) {
            let report = engine.execute(&net, 4, jobs(64, "http://wire").into_iter());
            assert_eq!(report.delivered, 64);
            modes.push(report.mode);
        }
        assert!(
            modes[..boot].iter().all(|m| *m == "inline"),
            "inline bootstraps first, got {modes:?}"
        );
        assert!(
            modes[boot..].iter().all(|m| *m == "sharded"),
            "EWMA should favor overlap under wire latency, got {modes:?}"
        );
    }

    #[test]
    fn pool_persists_across_publications() {
        let net = Network::new();
        let counter = std::sync::Arc::new(Counter(parking_lot::Mutex::new(0)));
        net.register("http://c", counter.clone());
        let engine = DeliveryEngine::new();
        for _ in 0..10 {
            let report = engine.execute_sharded(&net, 4, jobs(8, "http://c"));
            assert_eq!(report.delivered, 8);
        }
        assert_eq!(*counter.0.lock(), 80);
        assert_eq!(
            engine.pool.lock().as_ref().map(|p| p.txs.len()),
            Some(4),
            "one persistent queue per worker"
        );
    }

    #[test]
    fn pool_resizes_between_publications() {
        let net = Network::new();
        let counter = std::sync::Arc::new(Counter(parking_lot::Mutex::new(0)));
        net.register("http://c", counter.clone());
        let engine = DeliveryEngine::new();
        let mut sent = 0;
        for workers in [4, 2, 3] {
            let report = engine.execute_sharded(&net, workers, jobs(24, "http://c"));
            sent += 24;
            assert_eq!(report.delivered, 24, "workers={workers}");
            assert_eq!(*counter.0.lock(), sent, "each job sent once");
            let mut ids: Vec<_> = report.resolved.iter().map(|m| m.sub_id.clone()).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), 24, "each job resolved once");
        }
        assert_eq!(
            engine.pool.lock().as_ref().map(|p| p.txs.len()),
            Some(3),
            "the pool ends at the last size"
        );
    }

    #[test]
    fn failures_reported_with_retry_budget() {
        let net = Network::new();
        // No handler registered: every send fails.
        let engine = DeliveryEngine::new();
        for report in [
            engine.execute(&net, 1, jobs(8, "http://nowhere").into_iter()),
            engine.execute_sharded(&net, 4, jobs(8, "http://nowhere")),
        ] {
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
        let net = Network::new();
        net.register("http://faulty", std::sync::Arc::new(Faulty));
        let engine = DeliveryEngine::new();
        let report = engine.execute(&net, 1, jobs(2, "http://faulty").into_iter());
        assert_eq!(report.delivered, 0);
        assert_eq!(report.mode, "inline");
        assert_eq!(report.delta.failed, 2);
        assert!(report
            .failures
            .iter()
            .all(|(kind, _)| *kind == FailKind::Poison));
    }

    #[test]
    fn send_classifies_each_attempt_and_its_failure() {
        let net = Network::new();
        net.register("http://faulty", std::sync::Arc::new(Faulty));
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

    #[test]
    fn small_batches_stay_inline() {
        // Past both paths' bootstrap, a governed fan-out this size
        // would have tried the pool by now.
        let net = Network::new();
        let counter = std::sync::Arc::new(Counter(parking_lot::Mutex::new(0)));
        net.register("http://c", counter.clone());
        let engine = DeliveryEngine::new();
        for _ in 0..2 * BOOTSTRAP_SAMPLES + 2 {
            let report = engine.execute(
                &net,
                4,
                jobs(PARALLEL_THRESHOLD - 1, "http://c").into_iter(),
            );
            assert_eq!(report.delivered, PARALLEL_THRESHOLD - 1);
            assert_eq!(report.mode, "inline");
        }
        assert!(
            engine.pool.lock().is_none(),
            "no threads spawned below the threshold"
        );
    }
}
