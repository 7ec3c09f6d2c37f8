//! A delivered send, blocking or posted, allocates nothing inside the
//! transport.
//!
//! Counted per thread, by an allocator local to this file: the test
//! harness's own threads allocate whenever they like, and a
//! process-wide count would see them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use wsm_soap::{Envelope, Fault, SoapVersion};
use wsm_transport::{Network, SoapHandler};
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

struct Discard;

impl SoapHandler for Discard {
    fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
        Ok(None)
    }
}

/// Two actions in turn, as a mediated fan-out sends them: a label
/// cache of one would miss — and allocate — on every send.
fn messages() -> Vec<Envelope> {
    ["urn:wse:notify", "urn:wsn:Notify"]
        .into_iter()
        .map(|action| {
            Envelope::new(SoapVersion::V12)
                .with_header(
                    Element::ns("http://www.w3.org/2005/08/addressing", "Action", "wsa")
                        .with_text(action),
                )
                .with_body(Element::local("event"))
        })
        .collect()
}

/// Allocations this thread makes over `SENDS` delivered sends made by
/// `send`, in steady state: the thread's label cache and name handle
/// exist, and the trace ring has grown to hold this many records
/// (clearing it keeps its storage). The ring holds exactly those sends.
fn steady_state_allocs(send: impl Fn(&Network, Envelope)) -> u64 {
    const SENDS: usize = 1_000;
    let net = Network::new();
    net.register("http://consumer/0", Arc::new(Discard));
    let messages = messages();
    let send_all = || {
        for i in 0..SENDS {
            // A clone of a copy-on-write envelope is reference bumps.
            send(&net, messages[i % messages.len()].clone());
        }
    };
    send_all();
    net.clear_trace();

    let before = ALLOCS.get();
    send_all();
    let allocs = ALLOCS.get() - before;
    let trace = net.trace();
    assert_eq!(trace.len(), SENDS);
    assert!(trace.iter().all(|r| r.outcome.tag() == "delivered"));
    allocs
}

#[test]
fn a_delivered_send_allocates_nothing_in_steady_state() {
    let allocs =
        steady_state_allocs(|net, message| net.send("http://consumer/0", message).unwrap());
    assert_eq!(allocs, 0, "allocations over 1 000 delivered sends");
}

#[test]
fn a_delivered_posted_send_allocates_nothing_in_steady_state() {
    let allocs = steady_state_allocs(|net, message| {
        net.post("http://consumer/0", message)
            .land()
            .result
            .unwrap()
    });
    assert_eq!(allocs, 0, "allocations over 1 000 posted and landed sends");
}
