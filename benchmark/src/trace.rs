//! Spans recorded by the benchmark itself, around its calls into each
//! layer. Nothing is recorded inside the broker's crates.
//!
//! A span has a name, a start, an end, the span that caused it, the
//! publication it belongs to, and the allocations made while it was
//! open. Spans stay in memory and are written out when the workload
//! ends. A layer's *self* time is its spans' duration minus the part
//! their child spans cover.

use crate::alloc::AllocSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Index of a span in the tracer's buffer.
pub type SpanId = u32;

/// Returned by [`Tracer::begin`] when the buffer is full.
const NO_SPAN: SpanId = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `core.render`.
    pub name: &'static str,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Sequence number of the publication (or control operation).
    pub publication: u64,
    /// Allocation calls while the span was open (all threads).
    pub allocs: u64,
    /// Bytes requested while the span was open (all threads).
    pub bytes: u64,
    /// Calls of the layer's function made inside the span (1 unless
    /// the span covers a loop over subscriptions or envelopes).
    pub items: u32,
}

/// In-memory span buffer, used by the one generator thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(SpanId, AllocSnapshot)>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer with room for `capacity` spans; the buffer never grows,
    /// so recording never reallocates inside a span.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    /// The instant all span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Bytes held by the span buffer.
    pub fn buffer_bytes(&self) -> usize {
        self.spans.capacity() * std::mem::size_of::<Span>()
    }

    /// Open a span.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        publication: u64,
    ) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            publication,
            allocs: 0,
            bytes: 0,
            items: 1,
        });
        self.open.push((id, AllocSnapshot::now()));
        // Read the clock last, so the bookkeeping above is outside.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    /// Close the span opened last (spans close in LIFO order).
    pub fn end(&mut self, id: SpanId) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        if id == NO_SPAN {
            return;
        }
        let (open_id, before) = self.open.pop().expect("end() follows a begin()");
        assert_eq!(open_id, id, "spans close in the order they nest");
        let delta = AllocSnapshot::now().since(before);
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.allocs = delta.allocs;
        span.bytes = delta.bytes;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        publication: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.begin(name, parent, publication);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Record a span measured elsewhere (a handler called back from
    /// inside the transport), as a child of `parent`.
    pub fn record_cell(
        &mut self,
        name: &'static str,
        parent: SpanId,
        publication: u64,
        cell: &HandlerCell,
    ) {
        if parent == NO_SPAN || self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: cell.start.load(Ordering::Relaxed),
            end_ns: cell.end.load(Ordering::Relaxed),
            parent: Some(parent),
            publication,
            allocs: cell.allocs.load(Ordering::Relaxed),
            bytes: cell.bytes.load(Ordering::Relaxed),
            items: 1,
        });
    }

    /// Say how many calls span `id` covered.
    pub fn set_items(&mut self, id: SpanId, items: u32) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.items = items;
        }
    }

    /// Everything recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"publication\":{},\"allocs\":{},\"bytes\":{},\"items\":{}}}",
                s.name, s.start_ns, s.end_ns, s.publication, s.allocs, s.bytes, s.items
            );
        }
        out
    }
}

/// Where a handler that the transport calls back leaves its own
/// timing, for the generator thread to pick up after the send returns.
pub struct HandlerCell {
    epoch: Instant,
    start: AtomicU64,
    end: AtomicU64,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl HandlerCell {
    /// A cell on the tracer's clock.
    pub fn new(epoch: Instant) -> Self {
        HandlerCell {
            epoch,
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The handler was entered. Relaxed throughout: the handler runs
    /// on the thread that reads the cell, inside its own `send` call.
    pub fn enter(&self) {
        let a = AllocSnapshot::now();
        self.allocs.store(a.allocs, Ordering::Relaxed);
        self.bytes.store(a.bytes, Ordering::Relaxed);
        self.start
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// The handler is about to return.
    pub fn leave(&self) {
        self.end
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let a = AllocSnapshot::now();
        self.allocs.store(
            a.allocs - self.allocs.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.bytes.store(
            a.bytes - self.bytes.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }
}

/// Totals of one layer over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of this layer.
    pub count: u64,
    /// Σ (duration − children's duration).
    pub self_ns: u64,
    /// Σ (allocations − children's allocations).
    pub self_allocs: u64,
}

/// Per-layer self time and self allocations of `spans`.
pub fn self_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            child_allocs[p as usize] += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += s
            .end_ns
            .saturating_sub(s.start_ns)
            .saturating_sub(child_ns[i]);
        t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
    }
    out
}

/// Σ `items` per layer name.
pub fn items_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += u64::from(s.items);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |name, start, end, parent| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            publication: 1,
            allocs: 10,
            bytes: 0,
            items: 2,
        };
        let spans = vec![
            span("send", 0, 100, None),
            span("handle", 20, 50, Some(0)),
            span("send", 100, 160, None),
        ];
        let t = self_totals(&spans);
        assert_eq!(t["send"].count, 2);
        assert_eq!(t["send"].self_ns, 70 + 60);
        assert_eq!(t["send"].self_allocs, 10);
        assert_eq!(t["handle"].self_ns, 30);
        assert_eq!(items_by_name(&spans)["send"], 4);
    }

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::new(2);
        let bytes = t.buffer_bytes();
        let (_, a) = t.span("a", None, 1, || ());
        let (_, _) = t.span("b", Some(a), 1, || ());
        let (v, c) = t.span("c", None, 2, || 7);
        assert_eq!((v, c), (7, NO_SPAN));
        assert_eq!((t.spans().len(), t.dropped), (2, 1));
        assert_eq!(t.buffer_bytes(), bytes);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
