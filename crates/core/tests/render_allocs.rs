//! Allocation budgets for the fan-out and batch-encode paths, counted.
//!
//! Three budgets share one counter:
//! - one delivery's render: a publication to 128 WS-Eventing 08/2004
//!   and 128 WS-Notification 1.3 push subscribers — the shape of the
//!   judged benchmark's `fanout_inline` — rendered through one
//!   [`RenderCache`], class templates included, divided by the
//!   deliveries;
//! - one whole mediated publication to that population through a
//!   broker: match, render, send and the consumers' handlers;
//! - one 16-message wrapped `Notify` encode over shared payloads.
//!
//! Counted per thread, by an allocator local to this file: the test
//! harness's own threads allocate whenever they like, and a
//! process-wide count would see them.

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
    NotificationConsumer, SharedNotificationMessage, WsnClient, WsnCodec, WsnFilter,
    WsnSubscribeRequest, WsnVersion,
};
use wsm_soap::Envelope;
use wsm_transport::Network;
use wsm_xml::{Element, SharedElement};

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingPerThread;

// SAFETY: defers every operation to `System`; the counter is a
// const-initialised thread-local without a destructor, so touching it
// never allocates and is valid for the whole life of the thread.
unsafe impl GlobalAlloc for CountingPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
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

/// Mean allocations this thread makes per call of `op`, over `iters`
/// calls after eight warm-up calls (the interner and buffer pools fill
/// once; the steady state is what a running broker pays).
fn allocs_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    for _ in 0..8 {
        op();
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..iters {
        op();
    }
    (ALLOCS.with(Cell::get) - before) as f64 / iters as f64
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
/// consumer endpoint that parses what it receives. One fan-out worker
/// keeps every publication inline, on the calling thread, where the
/// counter sees all of it.
fn mediating_broker(per_family: usize) -> (Network, WsMessenger) {
    let net = Network::new();
    let broker = WsMessenger::start(&net, BROKER);
    broker.set_fanout_workers(1);
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
