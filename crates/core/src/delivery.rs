//! Staged push fan-out with sharded batch handoff.
//!
//! The broker's push deliveries are independent of each other within a
//! single publication — each matched subscriber gets exactly one
//! envelope — so the delivery engine may overlap the
//! serialize-send-retry work across a worker pool without touching the
//! ordering guarantee: a publication blocks until its whole fan-out
//! completes, so subscriber *S* always observes a publisher's event *n*
//! before its event *n+1*.
//!
//! The first engine handed **one job per subscriber** across a shared
//! channel; at mid fan-out the per-message channel hop cost more than
//! the send it dispatched and parallel lost to sequential. This engine
//! hands off **one `PubWork` per worker per publication**:
//!
//! * the publication's jobs are pre-partitioned into per-worker
//!   **shards**, filled and sealed incrementally while the broker's
//!   [`EventSource`] is still rendering — so rendering overlaps with
//!   delivery instead of barriering per publication;
//! * workers **batch-claim** runs of `CLAIM` jobs from their home
//!   shard with one atomic `fetch_add`, then **steal** from the other
//!   shards in round-robin order when theirs runs dry, so a slow
//!   endpoint in one shard cannot idle the rest of the pool;
//! * the publishing thread seals the last shard and then participates
//!   in claiming itself, so the engine never waits on a parked worker
//!   to finish work the publisher could do.
//!
//! Which path a publication takes is decided per publication by a
//! [`DispatchMode`]: `Sharded` forces the pool, `Inline` forces a
//! streaming single-thread send loop, and the default `Adaptive` mode
//! keeps a per-size-bucket EWMA of observed per-job cost for both and
//! picks the cheaper, probing the loser occasionally so a regime
//! change (e.g. wire latency appearing) is noticed. With
//! `set_fanout_workers(0|1)` there is no pool to hand off to, so every
//! publication streams on the publishing thread — the sequential
//! baseline, sending in match order.
//!
//! The pool is **persistent and lazy**: worker threads spawn the first
//! time a sharded publication runs and then park on their per-worker
//! channel between publications. Workers report per-delivery outcomes
//! into a per-publication `Gather` merged once under one lock, so
//! the broker applies one [`StatsDelta`] per publication and drops
//! failed subscriptions *after* the fan-out completes — worker threads
//! never take registry locks.

use crate::detect::SpecDialect;
use crate::registry::BrokerSubscription;
use crate::stage::{EventSource, NetworkSink, SendReport, VecSource};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};
use wsm_soap::Envelope;
use wsm_transport::{Network, TransportError};

/// How many push jobs a publication needs before parallel dispatch is
/// worth considering. Below this the engine always streams inline on
/// the publishing thread.
const PARALLEL_THRESHOLD: usize = 4;

/// How many jobs one claim takes from a shard: large enough that a
/// worker's atomic traffic is 1/CLAIM of per-job handoff, small enough
/// that stealing can still rebalance a slow shard.
const CLAIM: usize = 8;

/// The default worker count: one per available core.
pub fn default_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How a delivery failed — the distinction that decides its fate.
///
/// The seed conflated these: a SOAP fault from a live-but-rejecting
/// consumer and a dropped datagram both counted as "failed" and burned
/// the same retry budget. They are different problems. A **transient**
/// failure (loss, missing endpoint, no response) means *try again
/// later*; a **poison** response (SOAP fault, refused connection)
/// means the endpoint is alive and saying no — retrying back-to-back
/// is pointless, and only these count toward the small
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

/// One rendered push delivery, ready to send.
///
/// The job borrows the subscription it answers instead of copying
/// facts out of it: the id, the consumer address and the family are
/// read through [`PushJob::sub_id`], [`PushJob::address`] and
/// [`PushJob::wse`], so building a job allocates nothing and cloning
/// one (the failure path) is reference bumps.
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
    /// Attempt ordinal for this send: 0 for the original fan-out, 1..
    /// for queued redeliveries.
    pub attempt: u32,
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

    /// Whether the consumer is WS-Eventing (for the per-family stat).
    pub fn wse(&self) -> bool {
        matches!(self.sub.spec, SpecDialect::Wse(_))
    }

    /// The coordinates of a successful send of this job.
    fn resolved(&self) -> ResolvedMark {
        ResolvedMark {
            seq: self.seq,
            sub_id: Arc::clone(&self.sub.id),
            attempt: self.attempt,
            published_at_ms: self.published_at_ms,
        }
    }
}

/// How the engine dispatches a publication's fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Per-size-bucket EWMA of observed per-job cost picks streaming
    /// vs sharded per publication, probing the loser occasionally.
    #[default]
    Adaptive,
    /// Always stream on the publishing thread (render → send per job).
    Inline,
    /// Always hand off to the sharded worker pool.
    Sharded,
}

impl DispatchMode {
    fn as_u8(self) -> u8 {
        match self {
            DispatchMode::Adaptive => 0,
            DispatchMode::Inline => 1,
            DispatchMode::Sharded => 2,
        }
    }

    fn from_u8(v: u8) -> DispatchMode {
        match v {
            1 => DispatchMode::Inline,
            2 => DispatchMode::Sharded,
            _ => DispatchMode::Adaptive,
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
    /// Deliveries that exhausted their attempt budget.
    pub failed: u64,
    /// Retries performed.
    pub retried: u64,
    /// Successful deliveries that came off the redelivery queue.
    pub redelivered: u64,
    /// Messages moved to the dead-letter store.
    pub dead_lettered: u64,
}

impl StatsDelta {
    fn merge(&mut self, o: &StatsDelta) {
        self.delivered_wse += o.delivered_wse;
        self.delivered_wsn += o.delivered_wsn;
        self.mediated += o.mediated;
        self.failed += o.failed;
        self.retried += o.retried;
        self.redelivered += o.redelivered;
        self.dead_lettered += o.dead_lettered;
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
    /// Attempt ordinal of the successful send.
    pub attempt: u32,
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

    /// Record one send of `job`. The job stays where it is (the
    /// publisher's hands, or the shared shard), so the rare failure
    /// clones out — reference bumps: a job is a subscription handle,
    /// a copy-on-write envelope and a few numbers.
    fn tally(&mut self, job: &PushJob, rep: &SendReport) {
        self.delta.retried += rep.retried;
        self.latencies_ns.push(rep.elapsed_ns);
        match rep.result {
            Ok(()) => {
                self.count_delivered(job);
                self.resolved.push(job.resolved());
            }
            Err(kind) => {
                self.delta.failed += 1;
                self.failures.push((kind, job.clone()));
            }
        }
    }

    fn count_delivered(&mut self, job: &PushJob) {
        self.delivered += 1;
        if job.wse() {
            self.delta.delivered_wse += 1;
        } else {
            self.delta.delivered_wsn += 1;
        }
        if job.mediated {
            self.delta.mediated += 1;
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
    /// Jobs claimed from a non-home shard (sharded path only).
    pub steals: u64,
    /// Wall time the publishing thread spent waiting for workers to
    /// finish after it sealed the last shard and drained its own
    /// claims (sharded path only; the broker records it as the
    /// `handoff` stage).
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
    /// Wall-clock send duration per job (including retries), for the
    /// broker's per-subscriber delivery-latency histogram.
    pub latencies_ns: Vec<u64>,
}

impl FanOutReport {
    fn from_gather(gather: Gather, jobs: usize, mode: &'static str) -> FanOutReport {
        FanOutReport {
            delivered: gather.delivered,
            jobs,
            mode,
            steals: 0,
            join_wait_ns: 0,
            delta: gather.delta,
            failures: gather.failures,
            resolved: gather.resolved,
            latencies_ns: gather.latencies_ns,
        }
    }
}

// ------------------------------------------------------ sharded work

/// One worker's slice of a publication: the jobs land exactly once
/// (sealed through the `OnceLock`), then any thread claims batches by
/// advancing `cursor`.
struct Shard {
    jobs: OnceLock<Vec<PushJob>>,
    cursor: AtomicUsize,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            jobs: OnceLock::new(),
            cursor: AtomicUsize::new(0),
        }
    }
}

/// One publication's handoff to the pool: a single `Arc` enqueued to
/// every worker, holding the per-worker shards and the completion
/// rendezvous.
///
/// Protocol: the publisher fills and seals shards while workers are
/// already claiming from the sealed ones; after sealing the last
/// shard it sets `done_publishing`, helps claim, and then waits on the
/// condvar until every worker has merged its local results. Workers
/// that find nothing claimable before `done_publishing` wait on the
/// same condvar (with a 1 ms belt against lost wakeups) for the next
/// seal.
struct PubWork {
    shards: Vec<Shard>,
    attempts: u32,
    /// Pool workers that will merge into `sync` (the publisher merges
    /// its own claims separately).
    workers: usize,
    done_publishing: AtomicBool,
    /// Shards sealed so far — the wait predicate for idle workers.
    sealed: AtomicUsize,
    steals: AtomicU64,
    sync: StdMutex<Collected>,
    cv: Condvar,
}

#[derive(Default)]
struct Collected {
    merged: usize,
    gather: Gather,
}

impl PubWork {
    fn new(workers: usize, attempts: u32) -> PubWork {
        PubWork {
            shards: (0..workers).map(|_| Shard::new()).collect(),
            attempts,
            workers,
            done_publishing: AtomicBool::new(false),
            sealed: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            sync: StdMutex::new(Collected::default()),
            cv: Condvar::new(),
        }
    }

    /// Publish shard `idx`'s jobs and wake anything waiting for work.
    /// The empty lock bracket orders the wakeup after any waiter's
    /// predicate check, so a worker that just saw the old seal count
    /// under the lock cannot then miss this notify.
    fn seal(&self, idx: usize, jobs: Vec<PushJob>) {
        if self.shards[idx].jobs.set(jobs).is_err() {
            unreachable!("shard sealed twice");
        }
        self.sealed.fetch_add(1, Ordering::Release);
        drop(self.sync.lock().expect("pubwork mutex"));
        self.cv.notify_all();
    }

    /// One pass over every shard, home first then stealing round-robin:
    /// claim batches of [`CLAIM`] jobs until nothing sealed has work
    /// left. Returns whether anything was claimed.
    fn claim_pass(
        &self,
        home: usize,
        sink: &NetworkSink,
        local: &mut Gather,
        stolen: &mut u64,
    ) -> bool {
        let n = self.shards.len();
        let mut claimed_any = false;
        for off in 0..n {
            let shard = &self.shards[(home + off) % n];
            let Some(jobs) = shard.jobs.get() else {
                continue;
            };
            loop {
                let start = shard.cursor.fetch_add(CLAIM, Ordering::Relaxed);
                if start >= jobs.len() {
                    break;
                }
                let end = (start + CLAIM).min(jobs.len());
                for job in &jobs[start..end] {
                    let rep = sink.send_event(job);
                    local.tally(job, &rep);
                }
                claimed_any = true;
                if off != 0 {
                    *stolen += (end - start) as u64;
                }
            }
        }
        claimed_any
    }

    /// A pool worker's whole participation in this publication: claim
    /// until drained, then merge local results exactly once; the last
    /// merger wakes the publisher.
    fn run_worker(&self, home: usize, sink: &NetworkSink) {
        let mut local = Gather::default();
        let mut stolen = 0u64;
        loop {
            let sealed_before = self.sealed.load(Ordering::Acquire);
            let claimed = self.claim_pass(home, sink, &mut local, &mut stolen);
            if !claimed {
                if self.done_publishing.load(Ordering::Acquire) {
                    // Every shard is sealed and an empty pass found no
                    // unclaimed job: this publication is drained.
                    break;
                }
                let guard = self.sync.lock().expect("pubwork mutex");
                if self.sealed.load(Ordering::Acquire) == sealed_before
                    && !self.done_publishing.load(Ordering::Acquire)
                {
                    // Nothing new since the empty pass; sleep until the
                    // next seal (1 ms timeout as a lost-wakeup belt).
                    let _ = self
                        .cv
                        .wait_timeout(guard, Duration::from_millis(1))
                        .expect("pubwork condvar");
                }
            }
        }
        if stolen > 0 {
            self.steals.fetch_add(stolen, Ordering::Relaxed);
        }
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
    /// merged, then take the combined results.
    fn wait_merged(&self) -> Gather {
        let mut c = self.sync.lock().expect("pubwork mutex");
        while c.merged < self.workers {
            let (guard, _) = self
                .cv
                .wait_timeout(c, Duration::from_millis(1))
                .expect("pubwork condvar");
            c = guard;
        }
        std::mem::take(&mut c.gather)
    }
}

// --------------------------------------------------------- governor

const MODE_INLINE: usize = 0;
const MODE_SHARDED: usize = 1;
/// Every `PROBE_PERIOD`-th adaptive publication in a bucket runs the
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

/// Adaptive mode's memory: an EWMA (α = 1/8) of observed per-job
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

/// A broker's delivery engine: a streaming inline path and a sharded
/// persistent worker pool, with an adaptive governor choosing between
/// the two.
pub struct DeliveryEngine {
    pool: Mutex<Option<Pool>>,
    mode: AtomicU8,
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
            mode: AtomicU8::new(DispatchMode::Adaptive.as_u8()),
            governor: Governor::new(),
        }
    }

    /// Force (or restore) the dispatch policy for parallel fan-outs.
    pub fn set_mode(&self, mode: DispatchMode) {
        self.mode.store(mode.as_u8(), Ordering::Relaxed);
    }

    /// The current dispatch policy.
    pub fn mode(&self) -> DispatchMode {
        DispatchMode::from_u8(self.mode.load(Ordering::Relaxed))
    }

    /// Execute a publication's already-rendered push jobs (see
    /// [`DeliveryEngine::execute_source`] for the streaming form).
    pub fn execute(
        &self,
        net: &Network,
        attempts: u32,
        workers: usize,
        jobs: Vec<PushJob>,
    ) -> FanOutReport {
        self.execute_source(net, attempts, workers, VecSource::new(jobs))
    }

    /// Execute a publication's push fan-out from a streaming source:
    /// streamed inline when `workers <= 1`, the batch is small or the
    /// governor prefers it, otherwise sharded across the worker pool
    /// (overlapping the source's rendering with delivery).
    pub fn execute_source<S: EventSource>(
        &self,
        net: &Network,
        attempts: u32,
        workers: usize,
        mut source: S,
    ) -> FanOutReport {
        let attempts = attempts.max(1);
        if workers <= 1 || source.expected() < PARALLEL_THRESHOLD {
            return execute_streaming(net, attempts, &mut source);
        }
        match self.mode() {
            DispatchMode::Inline => execute_streaming(net, attempts, &mut source),
            DispatchMode::Sharded => self.execute_sharded(net, attempts, workers, &mut source),
            DispatchMode::Adaptive => {
                let pick = self.governor.choose(source.expected());
                let started = Instant::now();
                let report = if pick == MODE_INLINE {
                    execute_streaming(net, attempts, &mut source)
                } else {
                    self.execute_sharded(net, attempts, workers, &mut source)
                };
                self.governor
                    .observe(pick, report.jobs, started.elapsed().as_nanos() as u64);
                report
            }
        }
    }

    fn execute_sharded(
        &self,
        net: &Network,
        attempts: u32,
        workers: usize,
        source: &mut dyn EventSource,
    ) -> FanOutReport {
        let txs = self.pool_senders(net, workers);
        let work = Arc::new(PubWork::new(workers, attempts));
        // Hand the publication to every worker *before* filling, so
        // delivery of early shards overlaps rendering of later ones.
        for tx in &txs {
            tx.send(Arc::clone(&work))
                .expect("delivery pool alive while engine exists");
        }
        let chunk = source.expected().div_ceil(workers).max(1);
        let mut total = 0usize;
        let mut idx = 0usize;
        let mut buf: Vec<PushJob> = Vec::with_capacity(chunk);
        while let Some(job) = source.next_event() {
            buf.push(job);
            total += 1;
            if buf.len() >= chunk && idx + 1 < workers {
                work.seal(idx, std::mem::replace(&mut buf, Vec::with_capacity(chunk)));
                idx += 1;
            }
        }
        work.seal(idx, buf);
        for k in idx + 1..workers {
            work.seal(k, Vec::new());
        }
        work.done_publishing.store(true, Ordering::Release);
        drop(work.sync.lock().expect("pubwork mutex"));
        work.cv.notify_all();
        // The publishing thread helps drain, starting from the shard
        // it sealed last (the one least likely to be claimed yet).
        let sink = NetworkSink::new(net.clone(), attempts);
        let mut local = Gather::default();
        let mut stolen = 0u64;
        work.claim_pass(workers - 1, &sink, &mut local, &mut stolen);
        let join_started = Instant::now();
        let mut gather = work.wait_merged();
        let join_wait_ns = join_started.elapsed().as_nanos() as u64;
        gather.merge(local);
        let steals = work.steals.load(Ordering::Relaxed) + stolen;
        let mut report = FanOutReport::from_gather(gather, total, "sharded");
        report.steals = steals;
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
                        let sink = NetworkSink::new(net.clone(), work.attempts);
                        work.run_worker(i, &sink);
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
/// from its render. Sends go out in source order on the publishing
/// thread, which is what chaos scenarios pinning `workers = 1` rely on
/// for a deterministic trace.
fn execute_streaming(net: &Network, attempts: u32, source: &mut dyn EventSource) -> FanOutReport {
    let sink = NetworkSink::new(net.clone(), attempts);
    let mut gather = Gather::default();
    let mut total = 0usize;
    while let Some(job) = source.next_event() {
        total += 1;
        let rep = sink.send_event(&job);
        gather.tally(&job, &rep);
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
                attempt: 0,
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
            let report = engine.execute(&net, 1, workers, jobs(16, "http://c"));
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
    impl EventSource for ProbeSource {
        fn next_event(&mut self) -> Option<PushJob> {
            self.sent_at_pull.push(*self.counter.0.lock());
            self.left.pop()
        }
        fn expected(&self) -> usize {
            self.left.len()
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
        let report = DeliveryEngine::new().execute_source(&net, 1, 1, &mut source);
        assert_eq!(report.delivered, 8);
        assert_eq!(
            source.sent_at_pull,
            (0..=8).collect::<Vec<u32>>(),
            "each job is sent before the next is pulled, with no barrier"
        );
    }

    #[test]
    fn sharded_matches_sequential_outcomes() {
        // Mixed good/missing endpoints, forced through the sharded
        // path, must report exactly what a sequential send loop would.
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
        let engine = DeliveryEngine::new();
        engine.set_mode(DispatchMode::Sharded);
        let report = engine.execute(&net, 2, 4, jobs_at(32, addr));
        assert_eq!(report.mode, "sharded");
        assert_eq!(report.jobs, 32);
        assert_eq!(report.delivered, 24);
        assert_eq!(report.delta.failed, 8);
        assert_eq!(report.delta.retried, 8, "one in-line retry per miss");
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

    #[test]
    fn workers_steal_from_slow_shards() {
        // The first shard's endpoint is slow; everyone else finishes
        // their own shard and must take over part of the slow one.
        let net = Network::new();
        net.register(
            "http://slow",
            std::sync::Arc::new(Sleepy(Duration::from_millis(2))),
        );
        let counter = std::sync::Arc::new(Counter(parking_lot::Mutex::new(0)));
        net.register("http://fast", counter.clone());
        let addr = |i: usize| {
            if i < 16 {
                "http://slow".to_string()
            } else {
                "http://fast".to_string()
            }
        };
        let engine = DeliveryEngine::new();
        engine.set_mode(DispatchMode::Sharded);
        let report = engine.execute(&net, 1, 4, jobs_at(64, addr));
        assert_eq!(report.delivered, 64);
        assert!(
            report.steals > 0,
            "idle workers should claim from the slow shard"
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
            std::sync::Arc::new(Sleepy(Duration::from_micros(200))),
        );
        let engine = DeliveryEngine::new();
        let mut modes = Vec::new();
        let boot = BOOTSTRAP_SAMPLES as usize;
        for _ in 0..(2 * boot + 4) {
            let report = engine.execute(&net, 1, 4, jobs(64, "http://wire"));
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
        engine.set_mode(DispatchMode::Sharded);
        for _ in 0..10 {
            let report = engine.execute(&net, 1, 4, jobs(8, "http://c"));
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
    fn failures_reported_with_retry_budget() {
        let net = Network::new();
        // No handler registered: every send fails.
        let engine = DeliveryEngine::new();
        for mode in [DispatchMode::Inline, DispatchMode::Sharded] {
            engine.set_mode(mode);
            let report = engine.execute(&net, 3, 4, jobs(8, "http://nowhere"));
            assert_eq!(report.delivered, 0);
            assert_eq!(report.delta.failed, 8);
            assert_eq!(
                report.delta.retried, 16,
                "attempts-1 retries per failed job ({mode:?})"
            );
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
        let report = engine.execute(&net, 3, 1, jobs(2, "http://faulty"));
        assert_eq!(report.delivered, 0);
        assert_eq!(report.mode, "inline");
        assert_eq!(report.delta.failed, 2);
        assert_eq!(
            report.delta.retried, 0,
            "a SOAP fault short-circuits the immediate retries"
        );
        assert!(report
            .failures
            .iter()
            .all(|(kind, _)| *kind == FailKind::Poison));
    }

    #[test]
    fn small_batches_stay_inline() {
        let net = Network::new();
        let counter = std::sync::Arc::new(Counter(parking_lot::Mutex::new(0)));
        net.register("http://c", counter.clone());
        let engine = DeliveryEngine::new();
        engine.set_mode(DispatchMode::Sharded);
        let report = engine.execute(&net, 1, 4, jobs(PARALLEL_THRESHOLD - 1, "http://c"));
        assert_eq!(report.delivered, PARALLEL_THRESHOLD - 1);
        assert_eq!(report.mode, "inline");
        assert!(
            engine.pool.lock().is_none(),
            "no threads spawned below the threshold"
        );
    }
}
