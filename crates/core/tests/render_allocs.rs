//! What one delivery's render allocates, counted.
//!
//! A publication to 128 WS-Eventing 08/2004 and 128 WS-Notification 1.3
//! push subscribers — the shape of the judged benchmark's
//! `fanout_inline` — is rendered through one [`RenderCache`], class
//! templates included, and the allocations are divided by the
//! deliveries. Counted per thread, by an allocator local to this file:
//! the test harness's own threads allocate whenever they like, and a
//! process-wide count would see them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_eventing::WseVersion;
use wsm_messenger::{
    render_notification_cached, BrokerDeliveryMode, BrokerSubscription, InternalEvent, RenderCache,
    SpecDialect, UnifiedFilters,
};
use wsm_notification::WsnVersion;
use wsm_soap::Envelope;
use wsm_xml::Element;

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
fn event(seq: u64) -> InternalEvent {
    InternalEvent::on_topic(
        "jobs/status",
        Element::local("event")
            .with_attr("sev", "3")
            .with_attr("seq", seq.to_string())
            .with_child(Element::local("source").with_text("gridftp-4"))
            .with_child(Element::local("job").with_text("job-17"))
            .with_child(Element::local("detail").with_text("transfer complete")),
    )
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
