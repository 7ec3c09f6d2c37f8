//! A publication's cost must not grow with the events a subscription
//! already holds.
//!
//! Pull and wrapped subscriptions buffer every event until the
//! subscriber pulls or the source flushes. A publish reads only where
//! and how to deliver, so with hundreds of events held it allocates no
//! more bytes than the first publish did. Snapshotting each matched
//! subscription whole, its buffered events included, made buffering N
//! events cost O(N²) and breaks this.
//!
//! Counted per thread, by an allocator local to this file: the test
//! harness's own threads allocate whenever they like.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wsm_eventing::{
    DeliveryMode, EventSink, EventSource, SubscribeRequest, Subscriber, WseVersion,
};
use wsm_transport::Network;
use wsm_xml::Element;

thread_local! {
    /// Bytes requested by this thread's allocations and reallocations.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingPerThread;

// SAFETY: defers every operation to `System`; the counter is a
// const-initialised thread-local without a destructor, so touching it
// never allocates and is valid for the whole life of the thread.
unsafe impl GlobalAlloc for CountingPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingPerThread = CountingPerThread;

/// An event of about 200 serialized bytes.
fn event(seq: u64) -> Element {
    Element::local("event")
        .with_attr("seq", seq.to_string())
        .with_child(Element::local("source").with_text("gridftp-4"))
        .with_child(Element::local("detail").with_text("transfer completed; bytes=1073741824"))
}

/// Bytes this thread allocates publishing `ev`.
fn publish_bytes(source: &EventSource, ev: &Element) -> u64 {
    let before = BYTES.with(Cell::get);
    source.publish(ev);
    BYTES.with(Cell::get) - before
}

#[test]
fn a_publish_costs_no_more_with_hundreds_of_events_held() {
    for mode in [DeliveryMode::Pull, DeliveryMode::Wrapped] {
        let net = Network::new();
        let v = WseVersion::Aug2004;
        let source = EventSource::start(&net, "http://src", v);
        let sink = EventSink::start(&net, "http://sink", v);
        Subscriber::new(&net, v)
            .subscribe(
                source.uri(),
                SubscribeRequest::push(sink.epr()).with_mode(mode),
            )
            .unwrap();
        let events: Vec<Element> = (0..301).map(event).collect();

        let first = publish_bytes(&source, &events[0]);
        // Hold 300 events. The buffer last doubled at its 257th, so the
        // measured publish below pays for no growth of its own.
        for ev in &events[1..300] {
            source.publish(ev);
        }
        let held = publish_bytes(&source, &events[300]);
        assert!(
            held <= first,
            "{mode:?}: a publish with 300 events held allocated {held} bytes, the first {first}"
        );
    }
}
