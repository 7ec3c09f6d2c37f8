//! The endpoint registry and delivery engine.
//!
//! # What a delivered send costs
//!
//! Every delivery attempt — whatever its fate — goes through one
//! function, `deliver`, which decides, counts and traces it. On
//! the delivered path with no fault configured that function takes no
//! exclusive lock but the trace ring's (it resolves the endpoint under
//! the table's read lock) and allocates nothing:
//!
//! * **Faults.** The [`FaultPlan`] sits behind a mutex, but a flag
//!   beside it says whether the plan names any endpoint at all. Every
//!   mutator ([`Network::drop_next`], [`Network::fault_next`],
//!   [`Network::latency_spike_next`], [`Network::set_flapping`],
//!   [`Network::set_fault_plan`]) re-derives the flag while it holds
//!   the plan lock; a send reads the flag first and locks the plan only
//!   when it is set. A plan that names no endpoint answers "deliver, no
//!   extra latency" for every URI and changes nothing, so skipping it
//!   is exact, not an approximation.
//! * **Clock.** The virtual clock is advanced only by a non-zero hop
//!   latency; a zero-latency send just reads it.
//! * **Trace.** The ring stores a private compact record whose strings
//!   are shared: `to` is the endpoint table's own key, `label` comes
//!   from a per-thread cache of the last few labels that thread sent,
//!   `worker` is a per-thread handle on the thread's name. Readers
//!   ([`Network::trace`], [`Network::drain_trace`],
//!   [`Network::trace_jsonl`]) build the public [`TraceRecord`], with
//!   its owned `String`s, on the way out — so what they return, and
//!   every exported byte, is what it always was.
//!
//! The error arms (no endpoint, refused, dropped, faulted) build their
//! `String`s as before: they are not the path a broker is sized for.

use crate::clock::SimClock;
use crate::faults::{FaultPlan, Injected, Injection};
use crate::obs::NetObs;
use crate::trace::{DeliveryOutcome, TraceRecord};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsm_soap::{Envelope, Fault};
use wsm_xml::Node;

/// A SOAP endpoint: receives a request envelope, returns `Ok(Some(_))`
/// for a response, `Ok(None)` for one-way accept (HTTP 202), or a fault.
pub trait SoapHandler: Send + Sync {
    /// Process one incoming envelope.
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault>;
}

/// Whether a delivery attempt is the first try for its message or a
/// retry (a redelivery of a message already attempted). Transport metrics
/// split send totals by this class so delivery success rates stay
/// honest under heavy redelivery traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttemptClass {
    /// The message's first delivery attempt.
    #[default]
    First,
    /// Any subsequent attempt for the same message.
    Retry,
}

/// Per-endpoint registration options.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndpointOptions {
    /// A firewalled endpoint cannot receive *inbound* traffic; it can
    /// still originate requests (the pull-delivery scenario).
    pub firewalled: bool,
}

/// A delivery error as seen by the sender.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// No endpoint at the target URI.
    NoEndpoint(String),
    /// The target refuses inbound connections.
    Refused(String),
    /// Injected loss dropped the message.
    Dropped(String),
    /// The handler answered with a SOAP fault. Boxed so the error arm
    /// doesn't inflate every `Result` on the hot send path.
    Fault(Box<Fault>),
    /// A two-way exchange got no response body.
    NoResponse(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::NoEndpoint(u) => write!(f, "no endpoint at {u}"),
            TransportError::Refused(u) => write!(f, "{u} refuses inbound connections"),
            TransportError::Dropped(u) => write!(f, "message to {u} was dropped"),
            TransportError::Fault(fault) => write!(f, "SOAP fault: {}", fault.reason),
            TransportError::NoResponse(u) => write!(f, "{u} returned no response"),
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// The trace outcome of a delivery attempt that ended in this
    /// error. `NoResponse` is decided after the attempt (the handler
    /// accepted the message, it just had no response body), so the
    /// attempt itself counts as delivered.
    fn outcome(&self) -> DeliveryOutcome {
        match self {
            TransportError::NoEndpoint(_) => DeliveryOutcome::NoEndpoint,
            TransportError::Refused(_) => DeliveryOutcome::Refused,
            TransportError::Dropped(_) => DeliveryOutcome::Dropped,
            TransportError::Fault(fault) => DeliveryOutcome::Faulted(fault.reason.clone()),
            TransportError::NoResponse(_) => DeliveryOutcome::Delivered,
        }
    }
}

#[derive(Clone)]
struct Endpoint {
    handler: Arc<dyn SoapHandler>,
    options: EndpointOptions,
}

/// What the trace ring stores per attempt: a [`TraceRecord`] whose
/// strings are shared handles (see the module docs), so recording a
/// delivered send allocates nothing.
struct Traced {
    time_ms: u64,
    to: Arc<str>,
    label: Arc<str>,
    two_way: bool,
    outcome: DeliveryOutcome,
    worker: Arc<str>,
}

impl Traced {
    /// The public record readers get.
    fn record(&self) -> TraceRecord {
        TraceRecord {
            time_ms: self.time_ms,
            to: self.to.to_string(),
            label: self.label.to_string(),
            two_way: self.two_way,
            outcome: self.outcome.clone(),
            worker: self.worker.to_string(),
        }
    }
}

/// How many distinct labels a thread remembers. A broker thread sends a
/// handful of actions in turn (one per consumer dialect on a mediated
/// fan-out), so a single entry would miss on every send.
const LABEL_CACHE: usize = 8;

thread_local! {
    /// The last [`LABEL_CACHE`] distinct labels this thread sent, oldest
    /// first.
    static LABELS: RefCell<VecDeque<Arc<str>>> = const { RefCell::new(VecDeque::new()) };
    /// This thread's name, as the trace attributes deliveries to it.
    static WORKER: Arc<str> = Arc::from(std::thread::current().name().unwrap_or("(unnamed)"));
}

/// A shared handle on `label`: this thread's cached one when it sent
/// the same label recently, else a fresh one that pushes the oldest
/// out of the cache. A miss only costs the allocation a hit saves; the
/// label recorded is `label` either way.
fn shared_label(label: &str) -> Arc<str> {
    LABELS.with_borrow_mut(|cache| {
        if let Some(hit) = cache.iter().find(|l| &***l == label) {
            return Arc::clone(hit);
        }
        let fresh: Arc<str> = Arc::from(label);
        if cache.len() == LABEL_CACHE {
            cache.pop_front();
        }
        cache.push_back(Arc::clone(&fresh));
        fresh
    })
}

/// How many delivery attempts the trace keeps. The largest in-repo
/// reader looks at a few thousand records; past this the oldest record
/// is evicted and counted in the `net_trace_dropped` gauge.
const TRACE_CAPACITY: usize = 65_536;

struct Inner {
    endpoints: RwLock<HashMap<Arc<str>, Endpoint>>,
    faults: Mutex<FaultPlan>,
    /// True iff the plan in `faults` names any endpoint. Written only
    /// by `edit_faults`, under the plan lock; read by every send
    /// *before* the lock, which it then takes only when this is set.
    faults_armed: AtomicBool,
    trace: Mutex<VecDeque<Traced>>,
    clock: SimClock,
    /// Simulated per-hop latency added to the clock on every delivery.
    /// An atomic, not a mutex: every delivery reads it, and a lock
    /// here would serialize concurrent federation-link flushers on a
    /// value that changes only when a test reconfigures the network.
    latency_ms: AtomicU64,
    /// Real wall-clock delay per delivery, in microseconds. Zero (the
    /// default) keeps sends instantaneous; benches set it to model wire
    /// time that concurrent senders can overlap.
    send_delay_us: AtomicU64,
    /// Send-path metrics.
    obs: NetObs,
}

/// The simulated network. Cheap to clone; clones share all state.
#[derive(Clone)]
pub struct Network(Arc<Inner>);

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// A fresh network with its own clock and no latency.
    pub fn new() -> Self {
        Network(Arc::new(Inner {
            endpoints: RwLock::new(HashMap::new()),
            faults: Mutex::new(FaultPlan::default()),
            faults_armed: AtomicBool::new(false),
            trace: Mutex::new(VecDeque::new()),
            clock: SimClock::new(),
            latency_ms: AtomicU64::new(0),
            send_delay_us: AtomicU64::new(0),
            obs: NetObs::new(),
        }))
    }

    /// The network's virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.0.clock
    }

    /// Set the simulated per-hop latency (added to the clock per delivery).
    pub fn set_latency_ms(&self, ms: u64) {
        self.0.latency_ms.store(ms, Ordering::Relaxed);
    }

    /// Set a *real* wall-clock delay per delivery, in microseconds.
    ///
    /// Unlike [`set_latency_ms`](Self::set_latency_ms), which only
    /// advances the virtual clock, this makes each delivery actually
    /// take time — modeling the wire and remote-handler latency that a
    /// deployed broker pays per HTTP notification. Deliveries on
    /// different threads overlap their delays, so this is what makes
    /// parallel fan-out measurably different from sequential fan-out in
    /// the benches. Zero (the default) disables it.
    pub fn set_send_delay_us(&self, us: u64) {
        self.0.send_delay_us.store(us, Ordering::Relaxed);
    }

    /// Register a handler at `uri` with default options.
    pub fn register(&self, uri: impl Into<String>, handler: Arc<dyn SoapHandler>) {
        self.register_with(uri, handler, EndpointOptions::default());
    }

    /// Register a handler with explicit options.
    pub fn register_with(
        &self,
        uri: impl Into<String>,
        handler: Arc<dyn SoapHandler>,
        options: EndpointOptions,
    ) {
        self.0
            .endpoints
            .write()
            .insert(Arc::from(uri.into()), Endpoint { handler, options });
    }

    /// Remove an endpoint. Returns true if one was registered.
    pub fn unregister(&self, uri: &str) -> bool {
        self.0.endpoints.write().remove(uri).is_some()
    }

    /// Is an endpoint registered at `uri`?
    pub fn has_endpoint(&self, uri: &str) -> bool {
        self.0.endpoints.read().contains_key(uri)
    }

    /// Change the fault plan and re-derive the "plan names an
    /// endpoint" flag from the result, both under the plan lock — the
    /// one way the plan is ever written, so the flag cannot drift from
    /// it. A send that read the flag as clear just before an edit is a
    /// send that ran before the edit.
    fn edit_faults(&self, edit: impl FnOnce(&mut FaultPlan)) {
        let mut plan = self.0.faults.lock();
        edit(&mut plan);
        self.0
            .faults_armed
            .store(plan.names_an_endpoint(), Ordering::SeqCst);
    }

    /// Drop the next `n` deliveries addressed to `uri`.
    pub fn drop_next(&self, uri: impl Into<String>, n: u32) {
        self.edit_faults(|plan| plan.endpoint_mut(uri).drop_next = n);
    }

    /// Answer the next `n` deliveries to `uri` with an injected SOAP
    /// fault — a *poison* response, as opposed to transient loss.
    pub fn fault_next(&self, uri: impl Into<String>, n: u32) {
        self.edit_faults(|plan| plan.endpoint_mut(uri).fault_next = n);
    }

    /// Add `n` latency spikes of `ms` extra virtual milliseconds to the
    /// upcoming deliveries addressed to `uri`.
    pub fn latency_spike_next(&self, uri: impl Into<String>, ms: u64, n: usize) {
        self.edit_faults(|plan| {
            plan.endpoint_mut(uri)
                .latency_spikes_ms
                .extend(std::iter::repeat_n(ms, n))
        });
    }

    /// Make `uri` flap: unreachable for `down_ms` out of every
    /// `period_ms` of virtual time.
    pub fn set_flapping(&self, uri: impl Into<String>, period_ms: u64, down_ms: u64) {
        self.edit_faults(|plan| {
            plan.endpoint_mut(uri).flap = Some(crate::faults::Flap {
                period_ms,
                down_ms,
                phase_ms: 0,
            })
        });
    }

    /// Install a whole [`FaultPlan`], replacing any existing faults
    /// (including pending `drop_next` budgets).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.edit_faults(|current| *current = plan);
    }

    /// One-way send (fire-and-forget notification delivery), counted
    /// as a first attempt.
    pub fn send(&self, to: &str, envelope: Envelope) -> Result<(), TransportError> {
        self.send_class(to, envelope, AttemptClass::First)
    }

    /// One-way send with an explicit attempt class — a redelivery of
    /// a message already attempted uses [`AttemptClass::Retry`] so send
    /// metrics attribute re-sends separately from first attempts.
    pub fn send_class(
        &self,
        to: &str,
        envelope: Envelope,
        class: AttemptClass,
    ) -> Result<(), TransportError> {
        self.deliver(to, envelope, false, class).map(|_| ())
    }

    /// Two-way request/response exchange.
    pub fn request(&self, to: &str, envelope: Envelope) -> Result<Envelope, TransportError> {
        self.deliver(to, envelope, true, AttemptClass::First)?
            .ok_or_else(|| TransportError::NoResponse(to.to_string()))
    }

    /// One delivery attempt: decide its fate, count it and trace it.
    fn deliver(
        &self,
        to: &str,
        envelope: Envelope,
        two_way: bool,
        class: AttemptClass,
    ) -> Result<Option<Envelope>, TransportError> {
        let started = Instant::now();
        // Consult the fault plan before the hop: it decides this
        // delivery's fate and any extra injected latency. A plan that
        // names no endpoint decides "deliver" for every URI and keeps
        // no state about the asking, so it is not even locked.
        let injected = if self.0.faults_armed.load(Ordering::SeqCst) {
            self.0.faults.lock().on_delivery(to, self.0.clock.now_ms())
        } else {
            Injected::CLEAN
        };
        let latency = self.0.latency_ms.load(Ordering::Relaxed) + injected.extra_latency_ms;
        if latency > 0 {
            self.0.clock.advance_ms(latency);
        }
        let delay = self.0.send_delay_us.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(Duration::from_micros(delay));
        }
        let label = shared_label(&label_of(&envelope));

        // The attempt's fate, and — where an endpoint was found — the
        // endpoint table's key for the trace to share.
        let (result, key) = match injected.action {
            Injection::Drop => (Err(TransportError::Dropped(to.to_string())), None),
            Injection::Fault => (
                Err(TransportError::Fault(Box::new(Fault::receiver(
                    "injected fault",
                )))),
                None,
            ),
            Injection::Deliver => {
                // Resolved under the table's read lock, which is released
                // before the handler runs.
                let resolved = (self.0.endpoints.read())
                    .get_key_value(to)
                    .map(|(key, ep)| (Arc::clone(key), ep.clone()));
                match resolved {
                    None => (Err(TransportError::NoEndpoint(to.to_string())), None),
                    Some((key, ep)) if ep.options.firewalled => {
                        (Err(TransportError::Refused(to.to_string())), Some(key))
                    }
                    Some((key, ep)) => (
                        ep.handler
                            .handle(envelope)
                            .map_err(|fault| TransportError::Fault(Box::new(fault))),
                        Some(key),
                    ),
                }
            }
        };

        // Every attempt, whatever its fate, is counted and traced here
        // and nowhere else.
        let outcome = match &result {
            Ok(_) => DeliveryOutcome::Delivered,
            Err(err) => err.outcome(),
        };
        self.0.obs.observe(started, &outcome, class);
        let to = key.unwrap_or_else(|| Arc::from(to));
        let worker = WORKER.with(Arc::clone);
        let evicted = {
            let mut trace = self.0.trace.lock();
            let evicted = if trace.len() == TRACE_CAPACITY {
                self.0.obs.trace_dropped.add(1);
                trace.pop_front()
            } else {
                None
            };
            trace.push_back(Traced {
                time_ms: self.0.clock.now_ms(),
                to,
                label,
                two_way,
                outcome,
                worker,
            });
            evicted
        };
        // Released outside the lock: dropping a record writes to the
        // reference counts it shares.
        drop(evicted);
        result
    }

    /// Snapshot of the delivery trace, oldest first. The trace is a
    /// bounded ring: this and every other reader below see at most the
    /// last `TRACE_CAPACITY` (65 536) attempts; older records are
    /// evicted and counted in the `net_trace_dropped` gauge.
    pub fn trace(&self) -> Vec<TraceRecord> {
        self.0.trace.lock().iter().map(Traced::record).collect()
    }

    /// Take the delivery trace, leaving it empty — the cheap way for
    /// tests to assert exactly the records one scenario produced,
    /// including per-worker records from the parallel fan-out path.
    /// The eviction count is kept.
    pub fn drain_trace(&self) -> Vec<TraceRecord> {
        let drained = std::mem::take(&mut *self.0.trace.lock());
        drained.iter().map(Traced::record).collect()
    }

    /// Clear the trace (benches do this between runs). The eviction
    /// count is kept.
    pub fn clear_trace(&self) {
        self.0.trace.lock().clear();
    }

    /// The delivery trace as JSONL, one record per line, then a
    /// trailing `{"gauge":"trace_dropped","value":N}` line (the shape
    /// `wsm_obs::export::ring_jsonl` uses) so a reader can tell a
    /// complete trace from one the ring truncated.
    ///
    /// Every field is derived from the virtual clock and message
    /// content — no wall-clock durations — so two runs of the same
    /// seeded scenario produce byte-identical documents. The chaos CI
    /// job diffs this export across back-to-back runs.
    pub fn trace_jsonl(&self) -> String {
        let trace = self.0.trace.lock();
        let mut out = String::with_capacity(trace.len() * 96 + 48);
        for r in trace.iter() {
            out.push_str(&r.record().to_json());
            out.push('\n');
        }
        let dropped = self.0.obs.trace_dropped.get();
        let _ = writeln!(out, "{{\"gauge\":\"trace_dropped\",\"value\":{dropped}}}");
        out
    }

    /// Send-path metrics registry (attempt/outcome counters and the
    /// `net_send_ns` latency histogram).
    pub fn metrics(&self) -> &wsm_obs::MetricsRegistry {
        self.0.obs.registry()
    }

    /// Send-path metrics as Prometheus text exposition.
    pub fn metrics_text(&self) -> String {
        wsm_obs::export::prometheus(self.0.obs.registry())
    }
}

/// Label a message for tracing: its `wsa:Action` text in any WSA
/// version, else the first body element's local name. Borrowed from
/// the envelope wherever the text is one node, which is every message
/// this workspace builds or parses.
fn label_of(env: &Envelope) -> Cow<'_, str> {
    for h in env.headers() {
        if h.name.local == "Action" {
            if let Some(ns) = h.name.ns.as_deref() {
                if ns.contains("addressing") {
                    let mut texts = h.children.iter().filter_map(Node::as_text);
                    return match (texts.next(), texts.next()) {
                        (Some(only), None) => Cow::Borrowed(only.trim()),
                        _ => Cow::Owned(h.text().trim().to_string()),
                    };
                }
            }
        }
    }
    Cow::Borrowed(env.body().map_or("(empty)", |b| b.name.local.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_soap::SoapVersion;
    use wsm_xml::Element;

    struct Echo;
    impl SoapHandler for Echo {
        fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
            Ok(Some(request))
        }
    }

    struct Sink;
    impl SoapHandler for Sink {
        fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
            Ok(None)
        }
    }

    struct Grumpy;
    impl SoapHandler for Grumpy {
        fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
            Err(Fault::sender("no thanks"))
        }
    }

    fn env() -> Envelope {
        Envelope::new(SoapVersion::V12).with_body(Element::local("Ping"))
    }

    #[test]
    fn request_response() {
        let net = Network::new();
        net.register("http://a", Arc::new(Echo));
        let resp = net.request("http://a", env()).unwrap();
        assert_eq!(resp.body().unwrap().name.local, "Ping");
    }

    #[test]
    fn one_way_send() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.send("http://a", env()).unwrap();
        assert_eq!(tally(&net, "delivered"), 1);
    }

    #[test]
    fn two_way_to_one_way_handler_is_no_response() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        assert!(matches!(
            net.request("http://a", env()),
            Err(TransportError::NoResponse(_))
        ));
    }

    #[test]
    fn missing_endpoint() {
        let net = Network::new();
        assert!(matches!(
            net.send("http://nope", env()),
            Err(TransportError::NoEndpoint(_))
        ));
        assert_eq!(tally(&net, "no_endpoint"), 1);
    }

    #[test]
    fn firewalled_endpoint_refuses_inbound() {
        let net = Network::new();
        net.register_with(
            "http://fw",
            Arc::new(Echo),
            EndpointOptions { firewalled: true },
        );
        assert!(matches!(
            net.send("http://fw", env()),
            Err(TransportError::Refused(_))
        ));
        // ... but the network still knows it exists.
        assert!(net.has_endpoint("http://fw"));
    }

    #[test]
    fn drop_next_injects_loss_then_recovers() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.drop_next("http://a", 2);
        assert!(matches!(
            net.send("http://a", env()),
            Err(TransportError::Dropped(_))
        ));
        assert!(matches!(
            net.send("http://a", env()),
            Err(TransportError::Dropped(_))
        ));
        assert!(net.send("http://a", env()).is_ok());
        assert_eq!(tally(&net, "dropped"), 2);
    }

    #[test]
    fn handler_fault_propagates() {
        let net = Network::new();
        net.register("http://g", Arc::new(Grumpy));
        match net.request("http://g", env()) {
            Err(TransportError::Fault(f)) => assert_eq!(f.reason, "no thanks"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn latency_advances_clock() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.set_latency_ms(5);
        net.send("http://a", env()).unwrap();
        net.send("http://a", env()).unwrap();
        assert_eq!(net.clock().now_ms(), 10);
        let t = net.trace();
        assert_eq!(t[0].time_ms, 5);
        assert_eq!(t[1].time_ms, 10);
    }

    #[test]
    fn send_delay_takes_real_time() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.set_send_delay_us(2_000);
        let start = std::time::Instant::now();
        net.send("http://a", env()).unwrap();
        net.send("http://a", env()).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(4));
        // Real delay leaves the virtual clock alone.
        assert_eq!(net.clock().now_ms(), 0);
        net.set_send_delay_us(0);
        let start = std::time::Instant::now();
        net.send("http://a", env()).unwrap();
        assert!(start.elapsed() < Duration::from_millis(4));
    }

    #[test]
    fn trace_labels_use_action_or_body() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.send("http://a", env()).unwrap();
        let mut with_action = env();
        with_action.add_header(
            Element::ns("http://www.w3.org/2005/08/addressing", "Action", "wsa")
                .with_text("urn:go"),
        );
        net.send("http://a", with_action).unwrap();
        let t = net.trace();
        assert_eq!(t[0].label, "Ping");
        assert_eq!(t[1].label, "urn:go");
    }

    /// A flat JSON object, checked the way a line-oriented reader
    /// would: strings closed, escapes legal, no raw control character,
    /// nothing after the closing brace.
    fn is_one_json_object(line: &str) -> bool {
        let mut chars = line.chars();
        if chars.next() != Some('{') {
            return false;
        }
        let mut in_string = false;
        while let Some(c) = chars.next() {
            match c {
                c if c.is_control() => return false,
                '\\' if in_string => match chars.next() {
                    Some('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') => {}
                    Some('u') => {
                        if !(0..4).all(|_| chars.next().is_some_and(|h| h.is_ascii_hexdigit())) {
                            return false;
                        }
                    }
                    _ => return false,
                },
                '"' => in_string = !in_string,
                '}' if !in_string => return chars.next().is_none(),
                '{' if !in_string => return false,
                _ => {}
            }
        }
        false
    }

    #[test]
    fn jsonl_stays_one_object_per_line_whatever_the_action_says() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.register("http://g", Arc::new(Grumpy));
        let mut hostile = env();
        hostile.add_header(
            Element::ns("http://www.w3.org/2005/08/addressing", "Action", "wsa")
                .with_text("a\\b\nc"),
        );
        net.send("http://a", hostile.clone()).unwrap();
        net.send("http://g", hostile).unwrap_err();
        assert_eq!(net.trace()[0].label, "a\\b\nc", "the record keeps the text");
        let jsonl = net.trace_jsonl();
        assert_eq!(jsonl.lines().count(), 3, "two records and the gauge");
        for line in jsonl.lines() {
            assert!(is_one_json_object(line), "{line:?}");
        }
        assert!(jsonl.contains(r#""label":"a\\b\nc""#), "{jsonl}");
        assert!(
            !is_one_json_object("{\"label\":\"a\\b\nc\"}"),
            "the checker checks"
        );
    }

    /// How many sends ended with the outcome tagged `tag`, from the
    /// `net_outcome_*_total` counters (the trace ring may have been
    /// drained or evicted).
    fn tally(net: &Network, tag: &str) -> u64 {
        net.metrics()
            .counter(&format!("net_outcome_{tag}_total"))
            .get()
    }

    #[test]
    fn fault_plan_is_consulted_exactly_when_it_names_an_endpoint() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        // Nothing configured: a thousand clean sends.
        for _ in 0..1_000 {
            net.send("http://a", env()).unwrap();
        }
        // Arming takes effect on the very next send, and for exactly
        // the budget asked for.
        net.drop_next("http://a", 2);
        for _ in 0..2 {
            assert!(matches!(
                net.send("http://a", env()),
                Err(TransportError::Dropped(_))
            ));
        }
        net.send("http://a", env()).unwrap();
        assert_eq!(tally(&net, "dropped"), 2);
        assert_eq!(tally(&net, "delivered"), 1_001);

        // Every mutator arms; an empty plan disarms.
        type Arm = fn(&Network);
        let arms: [(Arm, &str); 4] = [
            (|n| n.fault_next("http://a", 1), "faulted"),
            (|n| n.set_flapping("http://a", 10, 10), "dropped"),
            (
                |n| {
                    let always = crate::EndpointFaults::new().with_drop_rate(1.0);
                    n.set_fault_plan(FaultPlan::new().with_endpoint("http://a", always));
                },
                "dropped",
            ),
            (|n| n.latency_spike_next("http://a", 7, 1), "delivered"),
        ];
        for (arm, fate) in arms {
            net.set_fault_plan(FaultPlan::new());
            let fated = tally(&net, fate);
            let before = net.clock().now_ms();
            arm(&net);
            let _ = net.send("http://a", env());
            assert_eq!(tally(&net, fate) - fated, 1, "{fate}");
            let spiked = u64::from(fate == "delivered") * 7;
            assert_eq!(net.clock().now_ms() - before, spiked);
            // Disarmed again: whatever budget was left is gone.
            net.set_fault_plan(FaultPlan::new());
            net.send("http://a", env()).unwrap();
        }
    }

    #[test]
    fn a_fault_armed_under_a_running_sender_is_spent_exactly() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        let running = std::sync::Barrier::new(2);
        let faults_seen = std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let send = || net.send("http://a", env());
                // Send until the three faults the other thread arms
                // somewhere in the middle of this loop have all come
                // back, then enough more to show no fourth follows.
                let mut faulted = 0;
                let mut sent = 0u32;
                while faulted < 3 {
                    if sent == 100 {
                        running.wait();
                    }
                    faulted += u32::from(send().is_err());
                    sent += 1;
                    assert!(sent < 50_000_000, "the armed plan was never seen");
                }
                for _ in 0..1_000 {
                    faulted += u32::from(send().is_err());
                }
                faulted
            });
            // The sender is in its loop, on a plan it has only ever
            // seen unarmed.
            running.wait();
            net.fault_next("http://a", 3);
            sender.join().unwrap()
        });
        assert_eq!(faults_seen, 3);
        assert_eq!(tally(&net, "faulted"), 3);
    }

    #[test]
    fn more_labels_than_a_thread_caches_still_label_every_record() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        let actions: Vec<String> = (0..LABEL_CACHE + 2)
            .map(|i| format!("urn:act:{i}"))
            .collect();
        let messages: Vec<Envelope> = actions
            .iter()
            .map(|a| {
                env().with_header(
                    Element::ns("http://www.w3.org/2005/08/addressing", "Action", "wsa")
                        .with_text(a.as_str()),
                )
            })
            .collect();
        for _ in 0..3 {
            for m in &messages {
                net.send("http://a", m.clone()).unwrap();
            }
        }
        // Inside what the cache keeps, a repeat shares its label.
        net.send("http://a", messages.last().unwrap().clone())
            .unwrap();
        let labels: Vec<String> = net.trace().into_iter().map(|r| r.label).collect();
        let mut want: Vec<&str> = Vec::new();
        for _ in 0..3 {
            want.extend(actions.iter().map(String::as_str));
        }
        want.push(actions.last().unwrap());
        assert_eq!(labels, want);
        let ring = net.0.trace.lock();
        let last_two: Vec<&Arc<str>> = ring.iter().rev().take(2).map(|r| &r.label).collect();
        assert!(
            Arc::ptr_eq(last_two[0], last_two[1]),
            "a hit shares the handle"
        );
    }

    #[test]
    fn every_fate_is_traced_and_counted_exactly_once() {
        fn plain(n: &Network) {
            n.register("http://x", Arc::new(Sink));
        }
        type Setup = fn(&Network);
        let fates: [(Setup, DeliveryOutcome); 6] = [
            (plain, DeliveryOutcome::Delivered),
            (
                |n| {
                    plain(n);
                    n.drop_next("http://x", 1);
                },
                DeliveryOutcome::Dropped,
            ),
            (
                |n| {
                    plain(n);
                    n.fault_next("http://x", 1);
                },
                DeliveryOutcome::Faulted("injected fault".into()),
            ),
            (
                |n| n.register("http://x", Arc::new(Grumpy)),
                DeliveryOutcome::Faulted("no thanks".into()),
            ),
            (|_| {}, DeliveryOutcome::NoEndpoint),
            (
                |n| {
                    let options = EndpointOptions { firewalled: true };
                    n.register_with("http://x", Arc::new(Sink), options);
                },
                DeliveryOutcome::Refused,
            ),
        ];
        for (arm, outcome) in fates {
            let net = Network::new();
            arm(&net);
            let result = net.send("http://x", env());
            assert_eq!(result.is_ok(), outcome == DeliveryOutcome::Delivered);
            let trace = net.trace();
            assert_eq!(trace.len(), 1, "{outcome}: one trace record");
            assert_eq!(trace[0].outcome, outcome, "{outcome}");
            let metrics = net.metrics();
            assert_eq!(metrics.counter("net_sends_total").get(), 1, "{outcome}");
            assert_eq!(
                metrics.histogram("net_send_ns").stats().count,
                1,
                "{outcome}"
            );
            for t in ["delivered", "dropped", "faulted", "no_endpoint", "refused"] {
                let counted = metrics.counter(&format!("net_outcome_{t}_total")).get();
                assert_eq!(
                    counted,
                    u64::from(t == outcome.tag()),
                    "{outcome}: net_outcome_{t}"
                );
            }
        }
    }

    #[test]
    fn trace_is_a_bounded_ring_that_counts_evictions() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.set_latency_ms(1);
        for _ in 0..TRACE_CAPACITY + 10 {
            net.send("http://a", env()).unwrap();
        }
        let trace = net.trace();
        assert_eq!(trace.len(), TRACE_CAPACITY);
        // Send k is stamped k ms: the ten oldest are the ones gone.
        assert_eq!(trace[0].time_ms, 11);
        assert_eq!(trace.last().unwrap().time_ms, (TRACE_CAPACITY + 10) as u64);
        assert!(net.metrics_text().contains("\nnet_trace_dropped 10\n"));
        let sends = net.metrics().counter("net_sends_total").get();
        assert_eq!(sends, (TRACE_CAPACITY + 10) as u64);
        let jsonl = net.trace_jsonl();
        assert_eq!(jsonl.lines().count(), TRACE_CAPACITY + 1);
        assert_eq!(
            jsonl.lines().last(),
            Some("{\"gauge\":\"trace_dropped\",\"value\":10}")
        );
        // Draining empties the ring but keeps the eviction count.
        assert_eq!(net.drain_trace().len(), TRACE_CAPACITY);
        assert!(net.trace().is_empty());
        assert_eq!(net.metrics().gauge("net_trace_dropped").get(), 10);
    }

    #[test]
    fn unregister_removes() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        assert!(net.unregister("http://a"));
        assert!(!net.unregister("http://a"));
        assert!(!net.has_endpoint("http://a"));
    }

    #[test]
    fn clones_share_state() {
        let net = Network::new();
        let net2 = net.clone();
        net.register("http://a", Arc::new(Sink));
        assert!(net2.has_endpoint("http://a"));
        net2.send("http://a", env()).unwrap();
        assert_eq!(net.trace().len(), 1);
    }

    #[test]
    fn clear_trace() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.send("http://a", env()).unwrap();
        net.clear_trace();
        assert!(net.trace().is_empty());
    }

    #[test]
    fn drain_trace_takes_and_empties() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.send("http://a", env()).unwrap();
        let _ = net.send("http://missing", env());
        let drained = net.drain_trace();
        assert_eq!(drained.len(), 2);
        assert!(net.trace().is_empty());
        assert!(net.drain_trace().is_empty());
        // Every record carries the delivering thread's name.
        assert!(drained.iter().all(|r| !r.worker.is_empty()));
    }

    #[test]
    fn send_metrics_count_attempts_and_outcomes() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.send("http://a", env()).unwrap();
        net.send("http://a", env()).unwrap();
        let _ = net.send("http://missing", env());
        net.drop_next("http://a", 1);
        let _ = net.send("http://a", env());
        net.send_class("http://a", env(), AttemptClass::Retry)
            .unwrap();
        let text = net.metrics_text();
        assert!(text.contains("net_sends_total 5"), "{text}");
        assert!(text.contains("net_sends_first_total 4"), "{text}");
        assert!(text.contains("net_sends_retry_total 1"), "{text}");
        assert!(text.contains("net_outcome_delivered_total 3"));
        assert!(text.contains("net_outcome_no_endpoint_total 1"));
        assert!(text.contains("net_outcome_dropped_total 1"));
        assert!(text.contains("net_send_ns_count 5"));
        let h = net.metrics().histogram("net_send_ns");
        assert!(h.quantile(0.5).is_some());
    }
}
