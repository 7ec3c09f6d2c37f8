//! Allocation budgets for the fan-out, batch-encode and ingest paths,
//! counted.
//!
//! Four budgets and one guard share one counter:
//! - one delivery's render: a publication to 128 WS-Eventing 08/2004
//!   and 128 WS-Notification 1.3 push subscribers — the shape of the
//!   judged benchmark's `fanout_inline` — rendered through one
//!   [`RenderCache`], class templates included, divided by the
//!   deliveries;
//! - one whole mediated publication to that population through a
//!   broker: match, render, send and the consumers' handlers;
//! - one 16-message wrapped `Notify` encode over shared payloads;
//! - one wire publication's ingest: a WSN 1.3 `Notify` from bytes
//!   through `Envelope::from_xml` and `Network::send` to a broker
//!   holding the judged benchmark's `selective_ingest` content-filter
//!   shapes — parse, detect, match and its few deliveries;
//! - the guard: a publication's fan-out costs a delayed wire no more
//!   allocations or bytes per delivery than a wire with no delay, so
//!   the bookkeeping of sends in flight is reused, not made afresh.
//!
//! Counted per thread, calls and requested bytes, by an allocator local
//! to this file: the test harness's own threads allocate whenever they
//! like, and a process-wide count would see them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_eventing::{EventSink, SubscribeRequest, Subscriber, WseVersion};
use wsm_messenger::{
    render_notification_cached, BrokerDeliveryMode, BrokerSubscription, InternalEvent, RenderCache,
    SpecDialect, UnifiedFilters, WsMessenger,
};
use wsm_notification::{
    NotificationConsumer, NotificationMessage, SharedNotificationMessage, WsnClient, WsnCodec,
    WsnFilter, WsnSubscribeRequest, WsnVersion,
};
use wsm_soap::{Envelope, Fault};
use wsm_topics::TopicPath;
use wsm_transport::{Network, SoapHandler};
use wsm_xml::{Element, SharedElement};

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls requested (a reallocation's new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one call on this thread that requested `bytes`.
fn count(bytes: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

struct CountingPerThread;

// SAFETY: defers every operation to `System`; the counters are
// const-initialised thread-locals without a destructor, so touching
// them never allocates and is valid for the whole life of the thread.
unsafe impl GlobalAlloc for CountingPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingPerThread = CountingPerThread;

const BROKER: &str = "http://broker";
const MANAGER: &str = "http://broker/subscriptions";

/// The benchmark's subscriber mix: `per_family` topicless WSE 08/2004
/// push subscribers, then as many WSN 1.3 ones.
fn subscribers(per_family: usize) -> Vec<Arc<BrokerSubscription>> {
    let dialects = [
        SpecDialect::Wse(WseVersion::Aug2004),
        SpecDialect::Wsn(WsnVersion::V1_3),
    ];
    (0..2 * per_family)
        .map(|i| {
            Arc::new(BrokerSubscription {
                id: format!("wsm-{i}").into(),
                spec: dialects[i / per_family],
                consumer: EndpointReference::new(format!("http://c/{i}")),
                end_to: None,
                filters: UnifiedFilters::default(),
                mode: BrokerDeliveryMode::Push,
                use_raw: false,
            })
        })
        .collect()
}

/// The benchmark's payload shape, publication `seq`.
fn payload(seq: u64) -> Element {
    Element::local("event")
        .with_attr("sev", "3")
        .with_attr("seq", seq.to_string())
        .with_child(Element::local("source").with_text("gridftp-4"))
        .with_child(Element::local("job").with_text("job-17"))
        .with_child(Element::local("detail").with_text("transfer complete"))
}

fn event(seq: u64) -> InternalEvent {
    InternalEvent::on_topic("jobs/status", payload(seq))
}

/// Mean allocations and requested bytes this thread makes per call of
/// `op`, over `iters` calls after eight warm-up calls (the interner and
/// buffer pools fill once; the steady state is what a running broker
/// pays).
fn usage_per_op(iters: u64, mut op: impl FnMut()) -> (f64, f64) {
    for _ in 0..8 {
        op();
    }
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    for _ in 0..iters {
        op();
    }
    let calls = ALLOCS.with(Cell::get) - before.0;
    let bytes = BYTES.with(Cell::get) - before.1;
    (calls as f64 / iters as f64, bytes as f64 / iters as f64)
}

/// Mean allocations this thread makes per call of `op` (see
/// [`usage_per_op`]).
fn allocs_per_op(iters: u64, op: impl FnMut()) -> f64 {
    usage_per_op(iters, op).0
}

/// Allocations this thread makes rendering one publication of `ev` to
/// every subscriber in `subs`, the per-publication cache included.
fn render_publication(subs: &[Arc<BrokerSubscription>], ev: &InternalEvent) -> u64 {
    let mut out: Vec<Envelope> = Vec::with_capacity(subs.len());
    let before = ALLOCS.with(Cell::get);
    let cache = RenderCache::new(ev);
    for sub in subs {
        out.push(render_notification_cached(&cache, sub, ev, BROKER, MANAGER));
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(out.len(), subs.len());
    allocs
}

#[test]
fn a_delivery_renders_in_at_most_eight_allocations() {
    let subs = subscribers(128);
    // Warm the interner and this thread's caches first: the steady
    // state is what a running broker pays.
    render_publication(&subs, &event(0));
    let ev = event(1);
    let allocs = render_publication(&subs, &ev);
    let per_delivery = allocs as f64 / subs.len() as f64;
    assert!(
        per_delivery <= 8.0,
        "{allocs} allocations for {} deliveries: {per_delivery:.2} each",
        subs.len()
    );
}

/// A broker with `per_family` topicless WSE 08/2004 push subscribers
/// and as many WSN 1.3 ones filtered on `jobs/status`, each a live
/// consumer endpoint that parses what it receives. The publisher lands
/// every send itself, so the counter sees the whole publication.
fn mediating_broker(per_family: usize) -> (Network, WsMessenger) {
    let net = Network::new();
    let broker = WsMessenger::start(&net, BROKER);
    let wse = Subscriber::new(&net, WseVersion::Aug2004);
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    for i in 0..per_family {
        let sink = EventSink::start(&net, &format!("http://sink-{i}"), WseVersion::Aug2004);
        wse.subscribe(broker.uri(), SubscribeRequest::push(sink.epr()))
            .unwrap();
        let c = NotificationConsumer::start(&net, &format!("http://nc-{i}"), WsnVersion::V1_3);
        wsn.subscribe(
            broker.uri(),
            &WsnSubscribeRequest::new(c.epr()).with_filter(WsnFilter::topic("jobs/status")),
        )
        .unwrap();
    }
    (net, broker)
}

/// One mediated publication to 256 subscribers, consumers' parse work
/// included, reads about 5 900 allocations (23 a subscriber). A second
/// per-subscriber tree copy, about 22 allocations each, breaks the
/// budget.
#[test]
fn a_mediated_publication_to_256_subscribers_stays_under_11000_allocations() {
    const BUDGET: f64 = 11_000.0;
    let (_net, broker) = mediating_broker(128);
    let mut seq = 0;
    let allocs = allocs_per_op(40, || {
        seq += 1;
        let delivered = broker.publish_on("jobs/status", &payload(seq));
        assert_eq!(delivered, 256);
    });
    assert!(
        allocs <= BUDGET,
        "{allocs:.1} allocations per mediated publication (budget {BUDGET}): a deep clone \
         or a per-subscriber serialization crept into the fan-out path"
    );
}

/// On a 100 µs wire a publication's 64 sends are in flight together,
/// and the fan-out keeps them, and the landing their fates, in
/// per-thread buffers reused across publications. So a delivery there
/// costs no more than on a wire with no delay, where each send lands as
/// it is posted: at most 0.1 more allocations and 16 more bytes. Both
/// read about 19.4 allocations and 3 470 bytes.
#[test]
fn a_delayed_wire_allocates_no_more_per_delivery_than_an_instant_one() {
    const DELIVERIES: f64 = 64.0;
    let (net, broker) = mediating_broker(32);
    let mut seq = 0;
    let mut per_delivery = |delay_us: u64| {
        net.set_send_delay_us(delay_us);
        let (calls, bytes) = usage_per_op(40, || {
            seq += 1;
            assert_eq!(broker.publish_on("jobs/status", &payload(seq)), 64);
        });
        (calls / DELIVERIES, bytes / DELIVERIES)
    };
    let instant = per_delivery(0);
    let delayed = per_delivery(100);
    assert!(
        delayed.0 <= instant.0 + 0.1 && delayed.1 <= instant.1 + 16.0,
        "per delivery: {:.2} allocations and {:.0} bytes on a 100 us wire against {:.2} and \
         {:.0} with no delay: the fan-out's in-flight bookkeeping is allocated per publication",
        delayed.0,
        delayed.1,
        instant.0,
        instant.1,
    );
}

/// A 16-message wrapped `Notify` over shared payloads — the encode a
/// wrapped-mode flush runs — reads about 350 allocations. Every QName
/// of the wrapped vocabulary is pre-seeded in the interner and each
/// payload is shared by `Arc`, so re-interning or deep-cloning a
/// payload per message breaks the budget.
#[test]
fn a_16_message_shared_notify_encodes_in_at_most_400_allocations() {
    const BUDGET: f64 = 400.0;
    let wsn = WsnCodec::new(WsnVersion::V1_3);
    let batch: Vec<SharedNotificationMessage> = (0..16u64)
        .map(|i| {
            SharedNotificationMessage::new(
                wsm_topics::TopicPath::parse(&format!("t{}/readings", i % 4)),
                Some(EndpointReference::new("http://fed")),
                SharedElement::new(payload(i)),
            )
        })
        .collect();
    let to = EndpointReference::new("http://fed/shard-0");
    let allocs = allocs_per_op(40, || {
        std::hint::black_box(wsn.notify_shared(&to, &batch).to_xml());
    });
    assert!(
        allocs <= BUDGET,
        "{allocs:.1} allocations per 16-message Notify encode (budget {BUDGET}): the batch \
         encode fell off the interner's fast path or began deep-cloning payloads"
    );
}

/// A consumer that accepts every delivery and keeps nothing.
struct Discard;

impl SoapHandler for Discard {
    fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
        Ok(None)
    }
}

/// `selective_ingest`'s topic naming, over 2 sites.
fn grid_topic(t: u32) -> String {
    format!("grid/site{}/node{t}", t % 2)
}

/// A broker holding the benchmark's two content-filter shapes on 16
/// topics: per topic a WSN 1.3 subscription to the topic with
/// `/event[@sev>N]` (N = 0..6), and one to the topic's site wildcard
/// with `/event[source='gridftp-K' and @sev>5]`. Each consumer discards
/// what it receives; the whole ingest runs on the calling thread.
fn ingest_broker() -> (Network, WsMessenger) {
    let net = Network::new();
    let broker = WsMessenger::start(&net, BROKER);
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    for t in 0..16u32 {
        let shapes = [
            (grid_topic(t), format!("/event[@sev>{}]", t % 7)),
            (
                format!("grid/site{}/*", t % 2),
                format!("/event[source='gridftp-{}' and @sev>5]", t % 13),
            ),
        ];
        for (k, (topic, content)) in shapes.into_iter().enumerate() {
            let uri = format!("http://consumer-{t}-{k}");
            net.register(&uri, Arc::new(Discard));
            wsn.subscribe(
                broker.uri(),
                &WsnSubscribeRequest::new(EndpointReference::new(uri))
                    .with_filter(WsnFilter::topic(&topic))
                    .with_filter(WsnFilter::content(content)),
            )
            .unwrap();
        }
    }
    (net, broker)
}

/// The benchmark's payload for publication `seq`: severity, source and
/// job cycle with it.
fn grid_payload(seq: u64) -> Element {
    Element::local("event")
        .with_attr("sev", ((seq % 7) + 1).to_string())
        .with_attr("seq", seq.to_string())
        .with_child(Element::local("source").with_text(format!("gridftp-{}", seq % 13)))
        .with_child(Element::local("job").with_text(format!("job-{}", seq % 97)))
        .with_child(
            Element::local("detail")
                .with_text("transfer completed; bytes=1073741824 duration=42s checksum=ok"),
        )
}

/// One wire publication — a WSN 1.3 `Notify` parsed from its bytes and
/// sent to the broker, which detects it, takes its payload, matches it
/// against 32 content filters and delivers it to the few that admit it
/// (0.8 a publication) — reads 93.5 allocations, 26 of them the parse.
/// Copying the parsed header and body blocks instead of moving them
/// (about 20 more) breaks the budget, as does copying the payload or a
/// match stage that allocates per XPath step.
#[test]
fn a_wire_publication_is_ingested_in_at_most_100_allocations() {
    const BUDGET: f64 = 100.0;
    let (net, broker) = ingest_broker();
    let codec = WsnCodec::new(WsnVersion::V1_3);
    let to = EndpointReference::new(BROKER);
    // Serialized before counting: the publisher's encode is not ingest.
    let wire: Vec<String> = (0..256u64)
        .map(|seq| {
            let topic = TopicPath::parse(&grid_topic(seq as u32 % 16));
            let message = NotificationMessage::new(topic, grid_payload(seq));
            codec.notify(&to, &[message]).to_xml()
        })
        .collect();
    let mut next = wire.iter().cycle();
    let published = broker.stats().published;
    let allocs = allocs_per_op(200, || {
        let envelope = Envelope::from_xml(next.next().unwrap()).unwrap();
        net.send(BROKER, envelope).unwrap();
    });
    assert_eq!(broker.stats().published - published, 208);
    assert!(
        allocs <= BUDGET,
        "{allocs:.1} allocations per ingested publication (budget {BUDGET}): the ingest path \
         copies what it could move, or the match stage allocates per evaluation"
    );
}
