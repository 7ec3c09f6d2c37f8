//! Concurrency tests: the network and its endpoints are shared across
//! threads by every broker in the workspace; these tests hammer them
//! from multiple threads and check the accounting stays exact.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use wsm_soap::{Envelope, Fault, SoapVersion};
use wsm_transport::{Network, SoapHandler};
use wsm_xml::Element;

struct Counter(AtomicUsize);

impl SoapHandler for Counter {
    fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(None)
    }
}

fn env(n: usize) -> Envelope {
    Envelope::new(SoapVersion::V12).with_body(Element::local("m").with_attr("n", n.to_string()))
}

#[test]
fn concurrent_sends_are_all_delivered() {
    let net = Network::new();
    let counter = Arc::new(Counter(AtomicUsize::new(0)));
    net.register("http://sink", Arc::clone(&counter) as Arc<dyn SoapHandler>);

    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let net = net.clone();
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    net.send("http://sink", env(t * PER_THREAD + i)).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.0.load(Ordering::SeqCst), THREADS * PER_THREAD);
    assert_eq!(
        net.metrics().counter("net_outcome_delivered_total").get(),
        (THREADS * PER_THREAD) as u64
    );
}

#[test]
fn concurrent_register_unregister_is_safe() {
    let net = Network::new();
    let sink = Arc::new(Counter(AtomicUsize::new(0)));
    let stop = Arc::new(AtomicUsize::new(0));

    let churner = {
        let net = net.clone();
        let sink = Arc::clone(&sink) as Arc<dyn SoapHandler>;
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut i = 0;
            while stop.load(Ordering::SeqCst) == 0 {
                net.register(format!("http://ep/{}", i % 16), Arc::clone(&sink));
                net.unregister(&format!("http://ep/{}", (i + 8) % 16));
                i += 1;
            }
        })
    };
    let sender = {
        let net = net.clone();
        thread::spawn(move || {
            let mut ok = 0;
            for i in 0..2_000 {
                if net.send(&format!("http://ep/{}", i % 16), env(i)).is_ok() {
                    ok += 1;
                }
            }
            ok
        })
    };
    let delivered = sender.join().unwrap();
    stop.store(1, Ordering::SeqCst);
    churner.join().unwrap();
    // Deliveries succeed only against registered endpoints; the handler
    // count equals the sender's success count exactly.
    assert_eq!(sink.0.load(Ordering::SeqCst), delivered);
}

#[test]
fn clock_is_monotonic_under_concurrent_advances() {
    let net = Network::new();
    let clock = net.clock().clone();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let clock = clock.clone();
            thread::spawn(move || {
                for _ in 0..1_000 {
                    clock.advance_ms(1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(clock.now_ms(), 4_000);
}
