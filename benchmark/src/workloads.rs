//! The five workloads: what each sets up, the operations its one
//! generator thread issues, and the closed loop that times them.
//!
//! Closed loop, one publisher thread: the next call is made when the
//! previous one returned. Inputs are generated in blocks of up to
//! 1 024 operations *between* timed sections, so neither the clock nor
//! the allocation counts see input generation.

use crate::alloc::AllocSnapshot;
use crate::gen::{Content, EventFacts, Family, Lcg, SubSpec, Zipf, FANOUT_TOPIC};
use crate::layers::{self, Broker, Clients, Handle, Net, Payload, WireDialect};
use crate::oracle::ChurnerLife;
use crate::sink::Sink;
use crate::trace::{SpanId, Tracer};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Name and reason of one workload, as `BENCHMARK.json` lists them.
pub struct WorkloadDef {
    /// Workload name.
    pub name: &'static str,
    /// Why it is in the set (one line).
    pub why: &'static str,
}

/// The workloads, in the order they run.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "fanout_inline",
        why: "256 push subscribers of both families, no wire delay: pure CPU where render, transport and consumer do nearly all the work and matching almost none - the cost of one delivery",
    },
    WorkloadDef {
        name: "fanout_wire",
        why: "same shape at 64 subscribers with 100 us per send: time is wire wait overlapped by the dispatch pool, so CPU savings in codec or transport should leave it flat - the control for fanout_inline",
    },
    WorkloadDef {
        name: "selective_ingest",
        why: "20000 subscriptions, publications arrive as SOAP bytes in three dialects, about 4 deliveries each: parse, detect, registry match and ~100 XPath evaluations dominate - the inverse of fanout_inline",
    },
    WorkloadDef {
        name: "churn_interleaved",
        why: "same registry with a Subscribe, Renew or Unsubscribe after every second publication: a matcher made fast by making writes expensive shows here as subscribe_p50_us",
    },
    WorkloadDef {
        name: "federated_wire",
        why: "4 shards, 16000 subscriptions, Zipf(1.0) topics, 100 us wire: the only workload where links, flushers, stealing and back-pressure carry the load, and the only skewed key distribution",
    },
];

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `fanout_inline`
    FanoutInline,
    /// `fanout_wire`
    FanoutWire,
    /// `selective_ingest`
    SelectiveIngest,
    /// `churn_interleaved`
    ChurnInterleaved,
    /// `federated_wire`
    FederatedWire,
}

impl Kind {
    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        use Kind::*;
        [
            FanoutInline,
            FanoutWire,
            SelectiveIngest,
            ChurnInterleaved,
            FederatedWire,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }
}

/// Sizes of one workload. `quick` is a tenth of the full scale and
/// exists only for the crate's own tests; its results are marked not
/// comparable.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// Fixed subscriptions.
    pub subs: u32,
    /// Topics (grid topics, or federated roots).
    pub topics: u32,
    /// Consumer endpoints kept for churner subscriptions.
    pub churn_slots: u32,
    /// Churner subscriptions alive at any time.
    pub churners_live: u32,
    /// Fan-out workers of the broker (of each shard when federated).
    pub workers: usize,
    /// Real-time delay per send, µs.
    pub wire_us: u64,
    /// Federation shards, 0 for one broker.
    pub shards: usize,
    /// Untimed warm-up publications.
    pub warmup: u64,
    /// Timed publications of a fixed-count run (`run`, `repeat`).
    pub full_ops: u64,
    /// Control operations timed on their own after every block of
    /// publications, for workloads whose loop carries none: spread over
    /// the run, so that one burst of interference cannot hit them all.
    pub control_per_block: u64,
    /// The oracle checks one publication in `1 << sample_bits` in full.
    pub sample_bits: u32,
    /// Publications per input block; call and delivery latency
    /// quantiles are taken per block.
    pub block: u64,
    /// Publications per rate window (about 50 ms of work); the
    /// delivery rate is taken per window. Divides `block`.
    pub window: u64,
    /// Does the system promise each subscriber its publisher's order?
    /// A federation under a buffering link policy does not (idle
    /// flushers steal sealed batches of a busy link and deliver them
    /// concurrently), so there out-of-order deliveries are counted and
    /// printed but are not failures.
    pub ordered: bool,
}

impl Plan {
    /// The plan for `kind` at full or tenth scale.
    pub fn new(kind: Kind, quick: bool) -> Plan {
        let div = if quick { 10 } else { 1 };
        let grid = Plan {
            kind,
            subs: 20_000 / div as u32,
            topics: 2_500 / div as u32,
            churn_slots: 128,
            churners_live: 64,
            workers: 2,
            wire_us: 0,
            shards: 0,
            warmup: 2_000 / div,
            full_ops: 0,
            control_per_block: 128,
            sample_bits: if quick { 3 } else { 6 },
            block: 1_024,
            window: 256,
            ordered: true,
        };
        match kind {
            Kind::FanoutInline => Plan {
                subs: 256,
                topics: 1,
                warmup: 500 / div,
                full_ops: 6_000 / div,
                block: 512,
                window: 32,
                control_per_block: 256,
                ..grid
            },
            Kind::FanoutWire => Plan {
                subs: 64,
                topics: 1,
                workers: 4,
                wire_us: 100,
                warmup: 200 / div,
                full_ops: 3_000 / div,
                block: 512,
                window: 16,
                ..grid
            },
            Kind::SelectiveIngest => Plan {
                full_ops: 80_000 / div,
                ..grid
            },
            Kind::ChurnInterleaved => Plan {
                full_ops: 40_000 / div,
                control_per_block: 0,
                window: 128,
                ..grid
            },
            Kind::FederatedWire => Plan {
                subs: 16_000 / div as u32,
                topics: 1_000 / div as u32,
                workers: 1,
                wire_us: 100,
                shards: 4,
                warmup: 3_072 / div,
                full_ops: 24_000 / div,
                window: 64,
                control_per_block: 64,
                ordered: false,
                ..grid
            },
        }
    }

    fn is_grid(&self) -> bool {
        matches!(self.kind, Kind::SelectiveIngest | Kind::ChurnInterleaved)
    }

    /// Fixed subscription `i`.
    pub fn sub(&self, i: u32) -> SubSpec {
        match self.kind {
            Kind::FanoutInline | Kind::FanoutWire => crate::gen::fanout_sub(i),
            Kind::SelectiveIngest | Kind::ChurnInterleaved => crate::gen::grid_sub(i, self.topics),
            Kind::FederatedWire => crate::gen::fed_sub(i, self.topics),
        }
    }

    /// Name of topic id `t`.
    pub fn topic_name(&self, t: u32) -> String {
        match self.kind {
            Kind::FanoutInline | Kind::FanoutWire => FANOUT_TOPIC.to_string(),
            Kind::SelectiveIngest | Kind::ChurnInterleaved => crate::gen::grid_topic(t),
            Kind::FederatedWire => crate::gen::fed_topic(t),
        }
    }
}

/// One operation of the generator thread.
#[derive(Clone)]
pub enum Op {
    /// `publish_on(topic, payload)`.
    Publish {
        /// What was published.
        facts: EventFacts,
        /// Topic name.
        topic: String,
        /// Event payload.
        payload: Payload,
    },
    /// `Envelope::from_xml(bytes)` then `Network::send(broker, env)`.
    Ingest {
        /// What was published.
        facts: EventFacts,
        /// Topic name, `None` for a bare publication.
        topic: Option<String>,
        /// The serialized SOAP message.
        bytes: String,
    },
    /// Subscribe a churner; its spec is `lives[life].spec`.
    Subscribe {
        /// Index into the run's churner lives.
        life: usize,
        /// Consumer endpoint of the churner's slot.
        consumer: String,
    },
    /// Renew the newest churner.
    Renew,
    /// Unsubscribe the oldest churner.
    Unsubscribe,
}

/// Everything a workload run holds.
pub struct Run {
    /// Sizes.
    pub plan: Plan,
    seed: u64,
    /// The network.
    pub net: Net,
    /// The broker or federation.
    pub broker: Broker,
    clients: Clients,
    /// The validating consumer.
    pub sink: Arc<Sink>,
    /// Fixed population, index = subscriber index.
    pub population: Vec<SubSpec>,
    /// Churner lives, in subscription order.
    pub lives: Vec<ChurnerLife>,
    live: VecDeque<(Handle, usize)>,
    /// Facts of every recorded publication, contiguous in `seq`.
    pub facts: Vec<EventFacts>,
    rng: Lcg,
    zipf: Option<Zipf>,
    next_seq: u64,
    next_churner: u32,
    control_cycle: u64,
    /// Window and block samples of the recorded sections.
    pub samples: Samples,
    /// Publisher-call latencies not yet folded into `samples`, ns.
    pending_publish: Vec<u64>,
    /// Control-operation latencies not yet folded into `samples`, ns.
    pending_control: Vec<u64>,
    /// Σ of `publish_on` return values in recorded sections.
    pub returned: u64,
    failed_calls: u64,
    /// Deepest federation link queue seen (sampled when tracing).
    pub queue_depth_max: usize,
    /// Traced publications waiting to be replayed, with their root span.
    pub replay_queue: Vec<(Op, SpanId)>,
}

/// What the recorded sections sampled. Every reported timing is the
/// median of one of these lists, so a burst of interference from the
/// host spoils a few windows or one block, not the result.
#[derive(Default)]
pub struct Samples {
    /// Deliveries per second, one value per rate window.
    pub rate: Vec<f64>,
    /// Mean publisher-call latency, one value per rate window, ns.
    pub call_mean: Vec<f64>,
    /// Publisher-call latency quantiles, one value per block, ns.
    pub publish_p50: Vec<f64>,
    /// See `publish_p50`.
    pub publish_p99: Vec<f64>,
    /// Delivery latency quantiles, one value per block, ns.
    pub delivery_p50: Vec<f64>,
    /// See `delivery_p50`.
    pub delivery_p99: Vec<f64>,
    /// Control-operation latency median, one value per fold, ns.
    pub control_p50: Vec<f64>,
    /// Publisher calls behind the publish quantiles.
    pub publish_count: u64,
    /// Deliveries behind the delivery quantiles.
    pub delivery_count: u64,
    /// Control operations behind `control_p50`.
    pub control_count: u64,
}

/// Fewest call latencies a p50 and p99 are taken of; fewer are
/// carried over into the next block.
const MIN_FOLD: usize = 256;
/// Fewest control-operation latencies a median is taken of.
const MIN_FOLD_CONTROL: usize = 64;

/// The `q`-quantile of an ascending slice, smoothed: the mean of the
/// values whose rank lies within `half_width` (a share of `n`) of
/// rank ⌈q·n⌉, the plain quantile. When a distribution has a step
/// right at `q` — the call latencies of `selective_ingest` have one
/// at 50.0 %: 33.3 % bare + 16.7 % on topics nobody listens to cost
/// 75 µs, the next class 110 µs — the plain quantile jumps between the
/// two sides with the seed; the smoothed one moves in proportion.
fn smoothed_quantile(sorted: &[u64], q: f64, half_width: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let reach = (half_width * n as f64) as usize;
    let slice = &sorted[rank.saturating_sub(reach + 1)..(rank + reach).min(n)];
    slice.iter().sum::<u64>() as f64 / slice.len() as f64
}

/// Totals of one timed section.
#[derive(Clone, Copy, Debug, Default)]
pub struct Section {
    /// Σ timed wall, ns (input generation excluded).
    pub wall_ns: u64,
    /// Publications made.
    pub publications: u64,
    /// Control operations made.
    pub control_ops: u64,
    /// Allocations of all threads during the timed wall.
    pub allocs: AllocSnapshot,
    /// Wall per publication, ns: the median over this section's rate
    /// windows of window wall ÷ window publications (`add` leaves it
    /// alone). Unlike `wall_ns ÷ publications` it does not count a
    /// federation's queue: what was queued when the section began and
    /// is delivered inside it, or the final drain.
    pub pub_wall_ns: f64,
}

impl Section {
    /// Add another section's totals.
    pub fn add(&mut self, o: &Section) {
        self.wall_ns += o.wall_ns;
        self.publications += o.publications;
        self.control_ops += o.control_ops;
        self.allocs.add(o.allocs);
    }
}

/// When a timed section stops, whichever comes first.
#[derive(Clone, Copy, Debug)]
pub struct Limit {
    /// Publications (or control operations, for a control tail).
    pub ops: u64,
    /// Timed wall seconds.
    pub seconds: f64,
    /// End a federation's section with `flush()` inside the timed
    /// window. The warm-up leaves the link queues full instead, so
    /// that measuring starts in the steady state: it takes about three
    /// queue lengths of publications until the queued events settle on
    /// the Zipf-hot link and admission latency stops drifting.
    pub drain: bool,
}

/// Where replayed sends go (see `layers::register_replay_consumer`).
pub const REPLAY_URI: &str = "http://replay/consumer";
/// An endpoint that discards everything.
pub const NULL_URI: &str = "http://replay/null";
/// Largest `Plan::block`.
const BLOCK_MAX: usize = 1_024;
/// The traced pass replays one publication in `1 << REPLAY_BITS` by
/// hand, picked by the same hash as the oracle's samples.
pub const REPLAY_BITS: u32 = 4;
const CLEAR_TRACE_EVERY: u64 = 256;

impl Run {
    /// Build the workload: network, broker, consumer endpoints, and
    /// every subscription through a real SOAP `Subscribe` round-trip.
    /// Returns `None` if a Subscribe fails.
    pub fn set_up(plan: Plan, seed: u64) -> Option<Run> {
        let net = layers::network();
        let uri = "http://broker";
        let broker = if plan.shards > 0 {
            Broker::federated(&net, uri, plan.shards, plan.workers)
        } else {
            Broker::single(&net, uri, plan.workers)
        };
        let endpoints = plan.subs + plan.churn_slots;
        let sink = Arc::new(Sink::new(endpoints, plan.subs, plan.sample_bits));
        for i in 0..endpoints {
            layers::register_consumer(&net, &consumer_uri(i), i, &sink);
        }
        layers::register_null(&net, NULL_URI);
        let clients = Clients::new(&net);
        let population: Vec<SubSpec> = (0..plan.subs).map(|i| plan.sub(i)).collect();
        for (i, spec) in population.iter().enumerate() {
            clients.subscribe(broker.uri(), spec, &consumer_uri(i as u32))?;
        }
        let mut run = Run {
            plan,
            seed,
            net,
            broker,
            clients,
            sink,
            population,
            lives: Vec::new(),
            live: VecDeque::with_capacity(plan.churn_slots as usize),
            facts: Vec::new(),
            rng: Lcg::new(seed),
            zipf: (plan.kind == Kind::FederatedWire).then(|| Zipf::new(plan.topics as usize)),
            next_seq: 1,
            next_churner: 0,
            control_cycle: 0,
            samples: Samples::default(),
            pending_publish: Vec::with_capacity(4 * BLOCK_MAX),
            pending_control: Vec::with_capacity(4 * BLOCK_MAX),
            returned: 0,
            failed_calls: 0,
            queue_depth_max: 0,
            replay_queue: Vec::new(),
        };
        // Churners alive from the start, so the first Unsubscribe of
        // the loop has something to remove.
        for _ in 0..plan.churners_live {
            let op = run.next_subscribe(run.next_seq);
            run.execute(&op, false, None);
        }
        if run.failed_calls > 0 {
            return None;
        }
        layers::set_wire_delay_us(&run.net, plan.wire_us);
        Some(run)
    }

    /// Calls that failed or returned an error so far.
    pub fn failed_calls(&self) -> u64 {
        self.failed_calls
    }

    /// Topic id of publication `seq`.
    fn topic_of(&mut self, seq: u64) -> u32 {
        match self.plan.kind {
            Kind::FanoutInline | Kind::FanoutWire => 0,
            Kind::SelectiveIngest | Kind::ChurnInterleaved => self.grid_topic_of(seq),
            Kind::FederatedWire => {
                let u = self.rng.next_f64();
                self.zipf
                    .as_ref()
                    .expect("federated runs have a sampler")
                    .sample(u) as u32
            }
        }
    }

    /// Uniform over the whole index: the working set is every topic.
    fn grid_topic_of(&self, seq: u64) -> u32 {
        ((seq.wrapping_mul(7_919).wrapping_add(self.seed)) % u64::from(self.plan.topics)) as u32
    }

    fn next_publication(&mut self, seq: u64) -> Op {
        let t = self.topic_of(seq);
        let bare = self.plan.kind == Kind::SelectiveIngest && seq % 3 == 2;
        let facts = EventFacts::of(seq, (!bare).then_some(t), self.plan.subs);
        let payload = layers::event_payload(&facts);
        let topic = self.plan.topic_name(t);
        if self.plan.kind == Kind::SelectiveIngest {
            let dialect = match seq % 3 {
                0 => WireDialect::Wsn13,
                1 => WireDialect::Wsn10,
                _ => WireDialect::Bare,
            };
            let topic = (!bare).then_some(topic);
            let bytes =
                layers::publication_bytes(dialect, self.broker.uri(), topic.as_deref(), &payload);
            Op::Ingest {
                facts,
                topic,
                bytes,
            }
        } else {
            Op::Publish {
                facts,
                topic,
                payload,
            }
        }
    }

    /// A churner Subscribe, to be made when publication `at_seq` is the
    /// next one. Its filter will admit a publication a few calls
    /// later, so that most churners receive something in life.
    fn next_subscribe(&mut self, at_seq: u64) -> Op {
        let c = self.next_churner;
        self.next_churner += 1;
        let spec = if self.plan.is_grid() {
            let ahead = at_seq + 8;
            let t = self.grid_topic_of(ahead);
            let site = format!("grid/site{}/*", t % 50);
            match c % 4 {
                0 => wsn(Some(crate::gen::grid_topic(t)), None),
                1 => wsn(
                    Some(crate::gen::grid_topic(t)),
                    Some(Content::SevAbove((c % 7) as u8)),
                ),
                2 => SubSpec {
                    family: Family::WseAug2004,
                    topic: None,
                    content: Some(Content::JobIs(
                        EventFacts::of(ahead, None, self.plan.subs).job,
                    )),
                },
                _ => wsn(Some(site), Some(Content::SourceAndSevere((c % 13) as u8))),
            }
        } else {
            // Nothing is ever published under `control/`.
            wsn(Some(format!("control/probe{}", c % 16)), None)
        };
        let slot = self.plan.subs + c % self.plan.churn_slots;
        self.lives.push(ChurnerLife {
            sub: slot,
            spec,
            first_seq: u64::MAX,
            last_seq: u64::MAX,
        });
        Op::Subscribe {
            life: self.lives.len() - 1,
            consumer: consumer_uri(slot),
        }
    }

    /// Subscribe / Renew / Unsubscribe in turn: the churner count stays
    /// at `churners_live` (one more between a Subscribe and the next
    /// Unsubscribe).
    fn next_control(&mut self, at_seq: u64) -> Op {
        self.control_cycle += 1;
        match self.control_cycle % 3 {
            1 => self.next_subscribe(at_seq),
            2 => Op::Renew,
            _ => Op::Unsubscribe,
        }
    }

    /// Up to `n` publications starting at `next_seq`, with the control
    /// operations the workload interleaves.
    fn block(&mut self, n: u64) -> Vec<Op> {
        let mut ops = Vec::with_capacity(n as usize * 3 / 2 + 1);
        for k in 0..n {
            let op = self.next_publication(self.next_seq + k);
            ops.push(op);
            if self.plan.kind == Kind::ChurnInterleaved && k % 2 == 1 {
                let c = self.next_control(self.next_seq + k + 1);
                ops.push(c);
            }
        }
        ops
    }

    /// Make one call. `record` adds its latency to the pending samples
    /// and its facts to the oracle's input; a tracer gets a root span,
    /// which is returned. A failed call is counted in `failed_calls`.
    fn execute(
        &mut self,
        op: &Op,
        record: bool,
        mut tracer: Option<&mut Tracer>,
    ) -> Option<SpanId> {
        let seq = self.next_seq;
        let (name, seq) = match op {
            Op::Publish { facts, .. } | Op::Ingest { facts, .. } if self.plan.shards > 0 => {
                ("core.federation.admit", facts.seq)
            }
            Op::Publish { facts, .. } | Op::Ingest { facts, .. } => ("publish", facts.seq),
            Op::Subscribe { .. } => ("core.registry.subscribe", seq),
            Op::Renew => ("core.registry.renew", seq),
            Op::Unsubscribe => ("core.registry.unsubscribe", seq),
        };
        // The churner a Renew or Unsubscribe is about; without one
        // there is nothing to do.
        let oldest = match op {
            Op::Unsubscribe => Some(self.live.pop_front()?),
            Op::Renew if self.live.is_empty() => return None,
            _ => None,
        };

        let span = tracer.as_deref_mut().map(|t| t.begin(name, None, seq));
        let t0 = self.sink.now_ns();
        let (mut delivered, mut subscribed) = (0, None);
        let ok = match op {
            Op::Publish { topic, payload, .. } => {
                self.sink.mark_start(seq, t0);
                delivered = self.broker.publish_on(topic, payload) as u64;
                true
            }
            Op::Ingest { bytes, .. } => {
                self.sink.mark_start(seq, t0);
                layers::ingest_bytes(&self.net, self.broker.uri(), bytes)
            }
            Op::Subscribe { life, consumer } => {
                subscribed =
                    self.clients
                        .subscribe(self.broker.uri(), &self.lives[*life].spec, consumer);
                subscribed.is_some()
            }
            Op::Renew => {
                let (newest, _) = self.live.back().expect("checked above");
                self.clients.renew(newest)
            }
            Op::Unsubscribe => {
                let (handle, _) = oldest.as_ref().expect("popped above");
                self.clients.unsubscribe(handle)
            }
        };
        let elapsed = self.sink.now_ns() - t0;
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id);
        }

        match op {
            Op::Publish { facts, .. } | Op::Ingest { facts, .. } => {
                if record {
                    self.returned += delivered;
                    self.facts.push(*facts);
                    self.pending_publish.push(elapsed);
                }
                self.next_seq = seq + 1;
            }
            Op::Subscribe { life, .. } => {
                if let Some(handle) = subscribed {
                    self.lives[*life].first_seq = seq;
                    self.live.push_back((handle, *life));
                }
            }
            Op::Renew => {}
            Op::Unsubscribe => {
                let (_, life) = oldest.expect("popped above");
                self.lives[life].last_seq = seq - 1;
            }
        }
        if record && !matches!(op, Op::Publish { .. } | Op::Ingest { .. }) {
            self.pending_control.push(elapsed);
        }
        if !ok {
            self.failed_calls += 1;
        }
        span
    }

    /// Turn the latencies gathered since the last fold into one sample
    /// per quantile (clock stopped). With `all` unset, lists shorter
    /// than [`MIN_FOLD`] wait for the next block.
    fn fold_latencies(&mut self, all: bool) {
        let enough = |n: usize| n >= MIN_FOLD || (all && n > 0);
        if enough(self.pending_publish.len()) {
            self.pending_publish.sort_unstable();
            let s = &mut self.samples;
            s.publish_p50
                .push(smoothed_quantile(&self.pending_publish, 0.5, 0.1));
            s.publish_p99
                .push(smoothed_quantile(&self.pending_publish, 0.99, 0.005));
            s.publish_count += self.pending_publish.len() as u64;
            self.pending_publish.clear();
            let h = self.sink.latency();
            if let (Some(p50), Some(p99)) = (h.quantile(0.5), h.quantile(0.99)) {
                s.delivery_p50.push(p50);
                s.delivery_p99.push(p99);
                s.delivery_count += h.count();
                h.reset();
            }
        }
        if self.pending_control.len() >= MIN_FOLD_CONTROL
            || (all && !self.pending_control.is_empty())
        {
            self.pending_control.sort_unstable();
            self.samples
                .control_p50
                .push(smoothed_quantile(&self.pending_control, 0.5, 0.1));
            self.samples.control_count += self.pending_control.len() as u64;
            self.pending_control.clear();
        }
    }

    /// The timed closed loop: publications (with the workload's
    /// interleaved control operations) until `limit`; a federation is
    /// flushed at the end, inside the timed window. With a tracer,
    /// every call gets a root span and one publication in 16 is kept
    /// in `replay_queue` (see [`REPLAY_BITS`]), to be replayed by hand
    /// once the section is over and the broker quiescent.
    pub fn publish_section(
        &mut self,
        limit: Limit,
        record: bool,
        mut tracer: Option<&mut Tracer>,
    ) -> Section {
        let mut total = Section::default();
        let budget_ns = (limit.seconds * 1e9) as u64;
        let mut picked: Vec<(usize, SpanId)> = Vec::with_capacity(BLOCK_MAX);
        let mut window_walls: Vec<f64> = Vec::new();
        while total.publications < limit.ops && total.wall_ns < budget_ns {
            let ops = self.block(self.plan.block.min(limit.ops - total.publications));
            self.facts.reserve(ops.len());
            self.samples.rate.reserve(ops.len());
            self.samples.call_mean.reserve(ops.len());
            window_walls.reserve(ops.len());
            picked.clear();
            let before = AllocSnapshot::now();
            let started = Instant::now();
            let mut window = (started, self.sink.deliveries(), 0u64);
            let mut folded = self.pending_publish.len();
            for (i, op) in ops.iter().enumerate() {
                if !matches!(op, Op::Publish { .. } | Op::Ingest { .. }) {
                    self.execute(op, record, tracer.as_deref_mut());
                    total.control_ops += 1;
                    continue;
                }
                let span = self.execute(op, record, tracer.as_deref_mut());
                total.publications += 1;
                if total.publications % CLEAR_TRACE_EVERY == 0 {
                    layers::clear_transport_trace(&self.net);
                }
                if let Some(id) = span {
                    self.queue_depth_max = self.queue_depth_max.max(self.broker.link_queue_depth());
                    if crate::sink::picked(self.next_seq - 1, REPLAY_BITS) {
                        picked.push((i, id));
                    }
                }
                window.2 += 1;
                if window.2 == self.plan.window {
                    let (now, delivered) = (Instant::now(), self.sink.deliveries());
                    let secs = now.duration_since(window.0).as_secs_f64();
                    window_walls.push(secs * 1e9 / window.2 as f64);
                    if record {
                        self.samples.rate.push((delivered - window.1) as f64 / secs);
                        let calls = &self.pending_publish[folded..];
                        self.samples
                            .call_mean
                            .push(calls.iter().sum::<u64>() as f64 / calls.len() as f64);
                        folded = self.pending_publish.len();
                    }
                    window = (now, delivered, 0);
                }
                if total.wall_ns + started.elapsed().as_nanos() as u64 >= budget_ns {
                    break;
                }
            }
            total.wall_ns += started.elapsed().as_nanos() as u64;
            total.allocs.add(AllocSnapshot::now().since(before));
            if record {
                self.fold_latencies(false);
                let control = self.control_block(tracer.as_deref_mut());
                total.control_ops += control;
            }
            // Input generation for the next block takes about a
            // thousandth of a block's run time, so what the federation's
            // flushers deliver meanwhile, unclocked, is negligible.
            self.replay_queue
                .extend(picked.iter().map(|&(i, id)| (ops[i].clone(), id)));
        }
        if self.plan.shards > 0 && limit.drain {
            let before = AllocSnapshot::now();
            let started = Instant::now();
            let span = tracer
                .as_deref_mut()
                .map(|t| t.begin("core.federation.flush_wait", None, self.next_seq));
            self.broker.flush();
            if let (Some(t), Some(id)) = (tracer, span) {
                t.end(id);
            }
            total.wall_ns += started.elapsed().as_nanos() as u64;
            total.allocs.add(AllocSnapshot::now().since(before));
        }
        if record {
            self.fold_latencies(true);
        }
        total.pub_wall_ns = if window_walls.is_empty() {
            total.wall_ns as f64 / total.publications.max(1) as f64
        } else {
            crate::hist::median(&window_walls)
        };
        total
    }

    /// `control_per_block` control operations, timed on their own
    /// (outside the publish wall); returns how many were made. The
    /// fan-out, ingest and federated loops carry no control operation,
    /// and every workload reports `subscribe_p50_us`.
    fn control_block(&mut self, mut tracer: Option<&mut Tracer>) -> u64 {
        let ops: Vec<Op> = (0..self.plan.control_per_block)
            .map(|_| self.next_control(self.next_seq))
            .collect();
        for op in &ops {
            self.execute(op, true, tracer.as_deref_mut());
        }
        ops.len() as u64
    }
}

fn wsn(topic: Option<String>, content: Option<Content>) -> SubSpec {
    SubSpec {
        family: Family::Wsn13,
        topic,
        content,
    }
}

/// Consumer endpoint of subscriber `i`.
pub fn consumer_uri(i: u32) -> String {
    format!("http://c/{i}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothed_quantile_is_the_plain_one_at_width_zero_and_ramps_over_a_step() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(smoothed_quantile(&v, 0.5, 0.0), 50.0);
        assert_eq!(smoothed_quantile(&v, 0.99, 0.0), 99.0);
        assert_eq!(smoothed_quantile(&v, 0.5, 0.1), 50.0, "ranks 40..=60");
        assert_eq!(
            smoothed_quantile(&v, 0.99, 0.05),
            97.0,
            "clipped at the top: 94..=100"
        );
        // A step at the median: 49 or 51 cheap calls out of 100.
        let step = |cheap: usize| -> Vec<u64> {
            (0..100).map(|i| if i < cheap { 75 } else { 110 }).collect()
        };
        assert_eq!(smoothed_quantile(&step(49), 0.5, 0.0), 110.0);
        assert_eq!(smoothed_quantile(&step(51), 0.5, 0.0), 75.0);
        let (a, b) = (
            smoothed_quantile(&step(49), 0.5, 0.1),
            smoothed_quantile(&step(51), 0.5, 0.1),
        );
        assert!((a - b).abs() < 4.0 && a > 85.0 && b < 100.0, "{a} {b}");
    }
}
