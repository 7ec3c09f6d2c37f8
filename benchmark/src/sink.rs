//! The validating consumer: the state behind every `http://c/<i>`
//! endpoint. It counts instead of keeping messages, so the consumer is
//! a small, fixed part of every measured delivery.
//!
//! On every delivery it checks per-subscriber order (sequence numbers
//! of one publisher must arrive strictly increasing: a repeat is a
//! duplicate, a smaller one is out of order), records the latency from
//! the publisher's call start, and keeps a receipt for one publication
//! in `1 << sample_bits` — one in 64 at full scale — and for every
//! delivery to a churner, for the oracle.

use crate::hist::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Is publication `seq` among the one in `1 << bits` (`bits` < 64;
/// 0 picks every publication) picked by a
/// multiplicative hash of its number? A plain stride would alias with
/// the workloads' own arithmetic — topic, severity and dialect are all
/// `seq` modulo something — and always pick the same kind of
/// publication.
pub fn picked(seq: u64, bits: u32) -> bool {
    bits == 0 || seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits) == 0
}

/// Call-start ring size; must exceed the publications that can be
/// admitted but undelivered at once (bounded by the link queues).
const RING: usize = 1 << 16;

/// One kept delivery: `(publication seq, subscriber index)`.
pub type Receipt = (u64, u32);

/// Shared consumer state; one instance serves all endpoints of a run.
pub struct Sink {
    epoch: Instant,
    /// Per subscriber: last delivered `seq + 1`, 0 before the first.
    last: Vec<AtomicU64>,
    /// Subscribers at or past this index keep every receipt.
    keep_all_from: u32,
    /// Receipts are kept for publications `picked(seq, sample_bits)`.
    sample_bits: u32,
    total: AtomicU64,
    duplicated: AtomicU64,
    out_of_order: AtomicU64,
    unreadable: AtomicU64,
    starts: Vec<AtomicU64>,
    latency: Histogram,
    receipts: Mutex<Vec<Receipt>>,
}

/// Totals read from the sink after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkTotals {
    /// Deliveries whose sequence number could be read.
    pub deliveries: u64,
    /// Same sequence number twice in a row at one subscriber.
    pub duplicated: u64,
    /// A smaller sequence number after a larger one at one subscriber.
    pub out_of_order: u64,
    /// Messages without a readable `seq`.
    pub unreadable: u64,
}

impl Sink {
    /// State for `subscribers` endpoints; indices from `keep_all_from`
    /// on (the churner slots) keep a receipt for every delivery, the
    /// others for one publication in `1 << sample_bits`.
    pub fn new(subscribers: u32, keep_all_from: u32, sample_bits: u32) -> Self {
        Sink {
            epoch: Instant::now(),
            last: (0..subscribers).map(|_| AtomicU64::new(0)).collect(),
            keep_all_from,
            sample_bits,
            total: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            out_of_order: AtomicU64::new(0),
            unreadable: AtomicU64::new(0),
            starts: (0..RING).map(|_| AtomicU64::new(0)).collect(),
            latency: Histogram::new(),
            // Room for the sampled receipts of a long run, so the vector
            // does not grow inside a timed section.
            receipts: Mutex::new(Vec::with_capacity(1 << 20)),
        }
    }

    /// Nanoseconds since the sink was made; the one clock shared by the
    /// publisher and the delivery threads.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The publisher notes when its call for `seq` starts.
    pub fn mark_start(&self, seq: u64, at_ns: u64) {
        // Relaxed is enough: the delivery that reads this slot happens
        // after the publish call that follows, which synchronises through
        // the broker's own queues and locks.
        self.starts[seq as usize % RING].store(at_ns.max(1), Ordering::Relaxed);
    }

    /// One delivery of publication `seq` entered subscriber `sub`'s
    /// handler at `entered_ns`.
    pub fn on_delivery(&self, sub: u32, seq: u64, entered_ns: u64) {
        let started = self.starts[seq as usize % RING].load(Ordering::Relaxed);
        if started != 0 {
            self.latency.record(entered_ns.saturating_sub(started));
        }
        self.total.fetch_add(1, Ordering::Relaxed);
        let prev = self.last[sub as usize].swap(seq + 1, Ordering::Relaxed);
        if prev == seq + 1 {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
        } else if prev > seq + 1 {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        if picked(seq, self.sample_bits) || sub >= self.keep_all_from {
            self.receipts
                .lock()
                .expect("no sink method panics while holding the receipts")
                .push((seq, sub));
        }
    }

    /// A message arrived whose sequence number could not be read.
    pub fn on_unreadable(&self) {
        self.unreadable.fetch_add(1, Ordering::Relaxed);
    }

    /// Deliveries counted so far.
    pub fn deliveries(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// All counters.
    pub fn totals(&self) -> SinkTotals {
        SinkTotals {
            deliveries: self.total.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            out_of_order: self.out_of_order.load(Ordering::Relaxed),
            unreadable: self.unreadable.load(Ordering::Relaxed),
        }
    }

    /// Delivery-latency histogram (publisher call start → handler entry).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Forget warm-up deliveries: zero the latency histogram and the
    /// counters, keep the per-subscriber order state.
    pub fn start_measuring(&self) {
        self.latency.reset();
        self.total.store(0, Ordering::Relaxed);
        self.receipts
            .lock()
            .expect("no sink method panics while holding the receipts")
            .clear();
    }

    /// Take the kept receipts, sorted by `(seq, subscriber)`.
    pub fn take_receipts(&self) -> Vec<Receipt> {
        let mut r = std::mem::take(
            &mut *self
                .receipts
                .lock()
                .expect("no sink method panics while holding the receipts"),
        );
        r.sort_unstable();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_violations_are_counted_and_samples_kept() {
        let s = Sink::new(4, 3, 6);
        let sampled = |q: u64| picked(q, 6);
        let kept = (100..).find(|&q| sampled(q)).unwrap();
        let skipped = (kept + 1..).find(|&q| !sampled(q)).unwrap();
        s.mark_start(kept, 10);
        s.on_delivery(0, kept - 1, 20);
        s.on_delivery(0, kept, 30);
        s.on_delivery(0, kept, 40); // duplicate
        s.on_delivery(0, 7, 50); // out of order
        s.on_delivery(3, skipped, 60); // churner slot keeps everything
        let t = s.totals();
        assert_eq!((t.deliveries, t.duplicated, t.out_of_order), (5, 1, 1));
        let mut want = vec![(kept, 0), (kept, 0), (skipped, 3)];
        want.sort_unstable();
        assert_eq!(s.take_receipts(), want);
        // Only `kept` had a start mark: two latencies, 20 and 30 ns.
        assert_eq!(s.latency().count(), 2);
        // About one publication in 64 is sampled.
        let n = (0..64_000).filter(|&q| sampled(q)).count();
        assert!((900..1100).contains(&n), "{n}");
    }
}
