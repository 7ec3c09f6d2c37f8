//! The endpoint registry and delivery engine.
//!
//! # What a delivered send costs
//!
//! Every delivery attempt — whatever its fate, blocking or posted — is
//! decided by one function and counted and traced by another
//! (`Inner::decide`, `Inner::record`). On the delivered path with no
//! fault configured a send takes no exclusive lock but the trace
//! ring's (it resolves the endpoint under the table's read lock) and
//! allocates nothing:
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
//! * **Trace.** The trace is a `wsm_obs::Ring`, the bounded log the
//!   broker keeps its spans in. It stores a private compact record of
//!   at most 48 bytes whose strings are shared, each behind one thin
//!   pointer: `to` is the endpoint table's own key, `label` comes from
//!   a per-thread cache of the last few labels that thread sent,
//!   `worker` is a per-thread handle on the thread's name. The outcome
//!   is a one-byte tag, set straight from the attempt's `Result`; only
//!   a fault's reason, off the delivered path, is boxed beside it.
//!   Readers ([`Network::trace`], [`Network::drain_trace`],
//!   [`Network::trace_jsonl`]) build the public [`TraceRecord`], with
//!   its owned `String`s, on the way out — so what they return, and
//!   every exported byte, is what it always was.
//!
//! The error arms (no endpoint, refused, dropped, faulted) build their
//! `String`s as before: they are not the path a broker is sized for.
//!
//! # Posted sends
//!
//! A send has three parts. *Decide* consults the fault plan and
//! advances the virtual clock by the hop latency. *Resolve* looks the
//! endpoint up. *Land* runs the handler, counts the attempt and traces
//! it. [`Network::send`], [`Network::send_class`] and
//! [`Network::request`] do all three on the caller, sleeping the real
//! send delay ([`Network::set_send_delay_us`]) between decide and
//! resolve.
//!
//! [`Network::post`] lets a caller overlap the delays of many sends.
//! It decides a send at once and hands back a [`Flight`], due at post
//! time plus the send delay; [`Flight::land`] resolves, runs, counts
//! and traces it. The caller keeps its flights in post order and lands
//! each once it is due — between its own other work, or sleeping until
//! [`Flight::due`] — so a batch of *n* sends takes about one delay
//! rather than *n*, and no other thread is involved: a handler runs on
//! the thread that lands its send, as it would for a blocking send.
//! The rules:
//!
//! * **Never early.** [`Flight::land`] sleeps out whatever is left of
//!   the delay, so a send lands no earlier than its post time plus the
//!   delay, whoever lands it.
//! * **Resolved on landing.** An endpoint unregistered while a send is
//!   in flight answers `NoEndpoint`, as it would to a blocking send
//!   made after the unregistration.
//! * **Traced as posted.** The record carries the virtual time of the
//!   post, so it does not depend on when the owner got round to
//!   landing the send.
//! * **Nothing allocated.** The endpoint key, the label and the thread
//!   name a flight carries are shared handles.

use crate::clock::SimClock;
use crate::faults::{FaultPlan, Injected, Injection};
use crate::obs::NetObs;
use crate::trace::{DeliveryOutcome, TraceRecord};
use parking_lot::{Mutex, RwLock};
use std::borrow::{Borrow, Cow};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsm_obs::Ring;
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

#[derive(Clone)]
struct Endpoint {
    handler: Arc<dyn SoapHandler>,
    options: EndpointOptions,
}

/// A shared string behind one thin pointer — half the size of an
/// `Arc<str>` — for the trace record's strings and the endpoint table
/// keys they share. It hashes and compares as the `str` it holds, so
/// the table is looked up by `&str`.
#[derive(Clone, PartialEq, Eq)]
struct ThinStr(Arc<String>);

impl From<&str> for ThinStr {
    fn from(s: &str) -> Self {
        ThinStr(Arc::new(s.to_string()))
    }
}

impl Deref for ThinStr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for ThinStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl Hash for ThinStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        str::hash(&self.0, state);
    }
}

/// A [`DeliveryOutcome`] without its fault reason: one byte.
#[derive(Clone, Copy)]
pub(crate) enum Fate {
    Delivered,
    Dropped,
    NoEndpoint,
    Refused,
    Faulted,
}

/// What the trace ring stores per attempt: a [`TraceRecord`] whose
/// strings are shared handles and whose outcome is a tag (see the
/// module docs), so recording a delivered send allocates nothing.
struct Traced {
    time_ms: u64,
    to: ThinStr,
    label: ThinStr,
    worker: ThinStr,
    /// A fault's reason; `None` for every other fate.
    reason: Option<ThinStr>,
    fate: Fate,
    two_way: bool,
}

// A busy broker fills the ring: at `TRACE_CAPACITY` records every
// byte of the record is 8 KiB of resident memory.
const _: () = assert!(std::mem::size_of::<Traced>() <= 48);

impl Traced {
    /// A record of an attempt made on this thread at virtual time
    /// `time_ms`, delivered until `Inner::record` says otherwise.
    fn stamp(time_ms: u64, to: ThinStr, label: ThinStr, two_way: bool) -> Traced {
        Traced {
            time_ms,
            to,
            label,
            worker: WORKER
                .try_with(ThinStr::clone)
                .unwrap_or_else(|_| ThinStr::from("(exiting)")),
            reason: None,
            fate: Fate::Delivered,
            two_way,
        }
    }

    /// The public record readers get.
    fn record(&self) -> TraceRecord {
        let outcome = match self.fate {
            Fate::Delivered => DeliveryOutcome::Delivered,
            Fate::Dropped => DeliveryOutcome::Dropped,
            Fate::NoEndpoint => DeliveryOutcome::NoEndpoint,
            Fate::Refused => DeliveryOutcome::Refused,
            Fate::Faulted => {
                DeliveryOutcome::Faulted(self.reason.as_deref().unwrap_or_default().to_string())
            }
        };
        TraceRecord {
            time_ms: self.time_ms,
            to: self.to.to_string(),
            label: self.label.to_string(),
            two_way: self.two_way,
            outcome,
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
    static LABELS: RefCell<VecDeque<ThinStr>> = const { RefCell::new(VecDeque::new()) };
    /// This thread's name, as the trace attributes deliveries to it.
    static WORKER: ThinStr = ThinStr::from(std::thread::current().name().unwrap_or("(unnamed)"));
}

/// A shared handle on `label`: this thread's cached one when it sent
/// the same label recently, else a fresh one that pushes the oldest
/// out of the cache. A miss only costs the allocation a hit saves; the
/// label recorded is `label` either way.
fn shared_label(label: &str) -> ThinStr {
    // A send made while the thread's locals are torn down (a landing
    // at thread exit) just pays for its own label.
    LABELS
        .try_with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(hit) = cache.iter().find(|l| &***l == label) {
                return hit.clone();
            }
            let fresh = ThinStr::from(label);
            if cache.len() == LABEL_CACHE {
                cache.pop_front();
            }
            cache.push_back(fresh.clone());
            fresh
        })
        .unwrap_or_else(|_| ThinStr::from(label))
}

/// How many delivery attempts the trace keeps: at most 384 KiB of
/// records. The largest in-repo reader looks at a thousand; past this
/// the oldest record is evicted and counted in the `net_trace_dropped`
/// gauge.
const TRACE_CAPACITY: usize = 8_192;

struct Inner {
    endpoints: RwLock<HashMap<ThinStr, Endpoint>>,
    faults: Mutex<FaultPlan>,
    /// True iff the plan in `faults` names any endpoint. Written only
    /// by `edit_faults`, under the plan lock; read by every send
    /// *before* the lock, which it then takes only when this is set.
    faults_armed: AtomicBool,
    /// The send trace; evictions count in the `net_trace_dropped`
    /// gauge.
    trace: Ring<Traced>,
    clock: SimClock,
    /// Simulated per-hop latency added to the clock on every delivery.
    /// An atomic, not a mutex: every delivery reads it, and a lock
    /// here would serialize concurrent publishers on a value that
    /// changes only when a test reconfigures the network.
    latency_ms: AtomicU64,
    /// Real wall-clock delay per delivery, in microseconds. Zero (the
    /// default) keeps sends instantaneous; benches set it to model wire
    /// time that posted sends overlap.
    send_delay_us: AtomicU64,
    /// Send-path metrics.
    obs: NetObs,
}

impl Inner {
    /// The *decide* part of a send: what the fault plan says about it,
    /// with the virtual clock advanced by the hop latency. A plan that
    /// names no endpoint decides "deliver" for every URI and keeps no
    /// state about the asking, so it is not even locked.
    fn decide(&self, to: &str) -> Injection {
        let injected = if self.faults_armed.load(Ordering::SeqCst) {
            self.faults.lock().on_delivery(to, self.clock.now_ms())
        } else {
            Injected::CLEAN
        };
        let latency = self.latency_ms.load(Ordering::Relaxed) + injected.extra_latency_ms;
        if latency > 0 {
            self.clock.advance_ms(latency);
        }
        injected.action
    }

    /// The *resolve* and *land* parts: the attempt's fate and — where
    /// an endpoint was found — the endpoint table's key for the trace
    /// to share. The endpoint is looked up under the table's read
    /// lock, which is released before the handler runs.
    fn land(
        &self,
        to: &str,
        envelope: Envelope,
        injection: Injection,
    ) -> (Result<Option<Envelope>, TransportError>, Option<ThinStr>) {
        match injection {
            Injection::Drop => (Err(TransportError::Dropped(to.to_string())), None),
            Injection::Fault => (
                Err(TransportError::Fault(Box::new(Fault::receiver(
                    "injected fault",
                )))),
                None,
            ),
            Injection::Deliver => {
                let resolved = (self.endpoints.read())
                    .get_key_value(to)
                    .map(|(key, ep)| (key.clone(), ep.clone()));
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
        }
    }

    /// Count and trace one finished attempt — every attempt, whatever
    /// its fate, is counted and traced here and nowhere else. `entry`
    /// is the trace record; its fate is taken from `result`.
    fn record<T>(
        &self,
        started: Instant,
        result: &Result<T, TransportError>,
        class: AttemptClass,
        mut entry: Traced,
    ) {
        (entry.fate, entry.reason) = match result {
            // Decided after the attempt: the handler accepted the
            // message, it just had no response body.
            Ok(_) | Err(TransportError::NoResponse(_)) => (Fate::Delivered, None),
            Err(TransportError::Dropped(_)) => (Fate::Dropped, None),
            Err(TransportError::NoEndpoint(_)) => (Fate::NoEndpoint, None),
            Err(TransportError::Refused(_)) => (Fate::Refused, None),
            Err(TransportError::Fault(fault)) => {
                (Fate::Faulted, Some(ThinStr::from(&*fault.reason)))
            }
        };
        self.obs.observe(started, entry.fate, class);
        self.trace.push(entry);
    }
}

/// What became of one posted send.
#[derive(Debug)]
pub struct Landed {
    /// The send's fate, as [`Network::send`] would have returned it.
    pub result: Result<(), TransportError>,
    /// Wall time from the post to the end of the landing: the wire
    /// delay plus the handler.
    pub elapsed: Duration,
}

/// One send between its post ([`Network::post`]) and its landing
/// ([`Flight::land`]); see the module docs.
#[must_use = "a posted send reaches its endpoint only once it is landed"]
pub struct Flight {
    net: Network,
    /// The send lands no earlier than this.
    due: Instant,
    envelope: Envelope,
    injection: Injection,
    started: Instant,
    /// The trace record, stamped at post time; its fate is filled in
    /// on landing. Its `to` is the endpoint table's key for the target
    /// (the target itself when the table had no such endpoint at post
    /// time), and the send is resolved by it.
    entry: Traced,
}

impl Flight {
    /// The instant the send may land: its post time plus the send
    /// delay in force then.
    pub fn due(&self) -> Instant {
        self.due
    }

    /// Land the send on this thread: sleep out what is left of its
    /// delay, resolve the endpoint, run its handler, count and trace
    /// the attempt, as a first attempt.
    pub fn land(self) -> Landed {
        let Flight {
            net,
            due,
            envelope,
            injection,
            started,
            entry,
        } = self;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let inner = &net.0;
        let (result, _) = inner.land(&entry.to, envelope, injection);
        inner.record(started, &result, AttemptClass::First, entry);
        Landed {
            result: result.map(|_| ()),
            elapsed: started.elapsed(),
        }
    }
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
        let obs = NetObs::new();
        let dropped = obs.registry().gauge("net_trace_dropped");
        Network(Arc::new(Inner {
            endpoints: RwLock::new(HashMap::new()),
            faults: Mutex::new(FaultPlan::default()),
            faults_armed: AtomicBool::new(false),
            trace: Ring::counted_by(TRACE_CAPACITY, dropped),
            clock: SimClock::new(),
            latency_ms: AtomicU64::new(0),
            send_delay_us: AtomicU64::new(0),
            obs,
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
    /// deployed broker pays per HTTP notification, and what makes an
    /// overlapped fan-out measurably different from a sequential one in
    /// the benches. A blocking send ([`send`](Self::send),
    /// [`request`](Self::request)) sleeps it on the caller; sends
    /// [`post`](Self::post)ed together overlap their delays. Zero (the
    /// default) disables it, and a posted send is then due at once.
    pub fn set_send_delay_us(&self, us: u64) {
        self.0.send_delay_us.store(us, Ordering::Relaxed);
    }

    /// The real per-delivery delay, in microseconds (see
    /// [`set_send_delay_us`](Self::set_send_delay_us)).
    pub fn send_delay_us(&self) -> u64 {
        self.0.send_delay_us.load(Ordering::Relaxed)
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
            .insert(ThinStr(Arc::new(uri.into())), Endpoint { handler, options });
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

    /// Post a one-way first-attempt send to `to` (see the module
    /// docs): the fault plan and the virtual clock are consulted now;
    /// the endpoint is resolved and its handler run when the returned
    /// flight is landed, no earlier than the send delay from now.
    pub fn post(&self, to: &str, envelope: Envelope) -> Flight {
        let started = Instant::now();
        let inner = &self.0;
        let injection = inner.decide(to);
        let to = match inner.endpoints.read().get_key_value(to) {
            Some((key, _)) => key.clone(),
            None => ThinStr::from(to),
        };
        let label = shared_label(&label_of(&envelope));
        let entry = Traced::stamp(inner.clock.now_ms(), to, label, false);
        Flight {
            net: self.clone(),
            due: started + Duration::from_micros(self.send_delay_us()),
            envelope,
            injection,
            started,
            entry,
        }
    }

    /// Two-way request/response exchange.
    pub fn request(&self, to: &str, envelope: Envelope) -> Result<Envelope, TransportError> {
        self.deliver(to, envelope, true, AttemptClass::First)?
            .ok_or_else(|| TransportError::NoResponse(to.to_string()))
    }

    /// One blocking delivery attempt: decide its fate, sleep the send
    /// delay, then resolve, land, count and trace it on the caller.
    fn deliver(
        &self,
        to: &str,
        envelope: Envelope,
        two_way: bool,
        class: AttemptClass,
    ) -> Result<Option<Envelope>, TransportError> {
        let started = Instant::now();
        let injection = self.0.decide(to);
        let delay = self.send_delay_us();
        if delay > 0 {
            std::thread::sleep(Duration::from_micros(delay));
        }
        let label = shared_label(&label_of(&envelope));
        let (result, key) = self.0.land(to, envelope, injection);
        let to = key.unwrap_or_else(|| ThinStr::from(to));
        let entry = Traced::stamp(self.0.clock.now_ms(), to, label, two_way);
        self.0.record(started, &result, class, entry);
        result
    }

    /// Snapshot of the delivery trace, oldest first. The trace is a
    /// bounded ring: this and every other reader below see at most the
    /// last `TRACE_CAPACITY` (8 192) attempts; older records are
    /// evicted and counted in the `net_trace_dropped` gauge.
    pub fn trace(&self) -> Vec<TraceRecord> {
        self.0
            .trace
            .read(|t| t.iter().map(Traced::record).collect())
    }

    /// Take the delivery trace, leaving it empty — the cheap way for
    /// tests to assert exactly the records one scenario produced,
    /// posted sends included.
    /// The eviction count is kept.
    pub fn drain_trace(&self) -> Vec<TraceRecord> {
        self.0.trace.drain().iter().map(Traced::record).collect()
    }

    /// Clear the trace (benches do this between runs). The eviction
    /// count is kept, and so is the ring's storage.
    pub fn clear_trace(&self) {
        self.0.trace.clear();
    }

    /// The delivery trace as JSONL (`wsm_obs::export::jsonl`): one
    /// record per line, then a trailing
    /// `{"gauge":"trace_dropped","value":N}` line so a reader can tell
    /// a complete trace from one the ring truncated.
    ///
    /// Every field is derived from the virtual clock and message
    /// content — no wall-clock durations — so two runs of the same
    /// seeded scenario produce byte-identical documents; the chaos
    /// suite pins one run's export against a golden file.
    pub fn trace_jsonl(&self) -> String {
        wsm_obs::export::jsonl(&self.0.trace, "trace_dropped", |out, r| {
            out.push_str(&r.record().to_json())
        })
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
        let shared = net.0.trace.read(|ring| {
            let last_two: Vec<&ThinStr> = ring.iter().rev().take(2).map(|r| &r.label).collect();
            Arc::ptr_eq(&last_two[0].0, &last_two[1].0)
        });
        assert!(shared, "a hit shares the handle");
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
        // Each fate once blocking, once posted on a delayed wire.
        for (arm, outcome, posted) in fates
            .iter()
            .flat_map(|(a, o)| [(a, o, false), (a, o, true)])
        {
            let net = Network::new();
            arm(&net);
            let result = if posted {
                net.set_send_delay_us(50);
                net.post("http://x", env()).land().result
            } else {
                net.send("http://x", env())
            };
            let outcome = outcome.clone();
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

    /// Records when each delivery entered the handler.
    #[derive(Default)]
    struct Clocked(parking_lot::Mutex<Vec<Instant>>);
    impl SoapHandler for Clocked {
        fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
            self.0.lock().push(Instant::now());
            Ok(None)
        }
    }

    /// Land each flight at the front of `in_flight` that is due by now,
    /// in post order, as a poster does between its posts.
    fn land_due(in_flight: &mut VecDeque<Flight>, landed: &mut Vec<Landed>) {
        while in_flight.front().is_some_and(|f| f.due() <= Instant::now()) {
            landed.push(in_flight.pop_front().expect("just read").land());
        }
    }

    #[test]
    fn no_posted_send_lands_before_its_deadline() {
        const DELAY: Duration = Duration::from_micros(300);
        let net = Network::new();
        let handler = Arc::new(Clocked::default());
        net.register("http://a", handler.clone());
        net.set_send_delay_us(DELAY.as_micros() as u64);
        let (mut in_flight, mut landed) = (VecDeque::new(), Vec::new());
        let mut posted_at = Vec::new();
        for i in 0..200 {
            posted_at.push(Instant::now());
            in_flight.push_back(net.post("http://a", env()));
            land_due(&mut in_flight, &mut landed);
            if i % 50 == 49 {
                // Let some deadlines pass, so later posts land them.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(!landed.is_empty(), "some sends landed between posts");
        landed.extend(in_flight.into_iter().map(Flight::land));
        assert_eq!(landed.len(), 200);
        assert!(landed
            .iter()
            .all(|l| l.result.is_ok() && l.elapsed >= DELAY));
        let entered = handler.0.lock().clone();
        assert_eq!(entered.len(), 200, "every send landed once");
        for (i, (posted, entered)) in posted_at.iter().zip(&entered).enumerate() {
            assert!(*entered >= *posted + DELAY, "send {i} landed early");
        }
    }

    #[test]
    fn a_flight_landed_early_sleeps_out_its_delay() {
        const DELAY: Duration = Duration::from_micros(2_000);
        let net = Network::new();
        let handler = Arc::new(Clocked::default());
        net.register("http://a", handler.clone());
        net.set_send_delay_us(DELAY.as_micros() as u64);
        let posted = Instant::now();
        let flight = net.post("http://a", env());
        assert!(flight.due() >= posted + DELAY);
        assert!(handler.0.lock().is_empty(), "nothing runs at the post");
        assert!(flight.land().result.is_ok());
        assert!(handler.0.lock()[0] >= posted + DELAY);
    }

    #[test]
    fn a_posted_batch_overlaps_its_delays() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.set_send_delay_us(2_000);
        let started = Instant::now();
        let flights: Vec<Flight> = (0..64).map(|_| net.post("http://a", env())).collect();
        let landed: Vec<Landed> = flights.into_iter().map(Flight::land).collect();
        let took = started.elapsed();
        assert_eq!(landed.iter().filter(|l| l.result.is_ok()).count(), 64);
        // Sequential sends would take 64 × 2 ms = 128 ms.
        assert!(took < Duration::from_millis(16 * 2), "took {took:?}");
        assert_eq!(tally(&net, "delivered"), 64);
    }

    #[test]
    fn an_endpoint_unregistered_in_flight_is_no_endpoint() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.set_send_delay_us(20_000);
        let flight = net.post("http://a", env());
        assert!(net.unregister("http://a"));
        assert!(matches!(
            &flight.land().result,
            Err(TransportError::NoEndpoint(to)) if to == "http://a"
        ));
        assert_eq!(net.trace()[0].outcome, DeliveryOutcome::NoEndpoint);
    }

    #[test]
    fn a_posted_record_is_stamped_at_its_post() {
        let net = Network::new();
        net.register("http://a", Arc::new(Sink));
        net.set_latency_ms(5);
        net.set_send_delay_us(1_000);
        let flights: Vec<Flight> = (0..3).map(|_| net.post("http://a", env())).collect();
        // The clock moved at each post, not at each landing.
        assert_eq!(net.clock().now_ms(), 15);
        net.set_latency_ms(100);
        flights.into_iter().for_each(|f| drop(f.land()));
        let trace = net.trace();
        let times: Vec<u64> = trace.iter().map(|r| r.time_ms).collect();
        assert_eq!(times, [5, 10, 15]);
        let me = std::thread::current()
            .name()
            .unwrap_or("(unnamed)")
            .to_string();
        assert!(trace.iter().all(|r| r.worker == me && !r.two_way));
    }

    #[test]
    fn a_send_posted_without_a_delay_is_due_at_once_and_lands_on_the_caller() {
        let net = Network::new();
        let handler = Arc::new(Clocked::default());
        net.register("http://a", handler.clone());
        let flight = net.post("http://a", env());
        assert!(flight.due() <= Instant::now());
        assert!(flight.land().result.is_ok());
        assert_eq!(handler.0.lock().len(), 1);
        let me = std::thread::current();
        assert_eq!(net.trace()[0].worker, me.name().unwrap_or("(unnamed)"));
    }

    /// Posts and lands its own batch of four sends to `http://a` from
    /// inside a handler: a fan-out nested in a delivery.
    struct Relay(Network);
    impl SoapHandler for Relay {
        fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
            let flights: Vec<Flight> = (0..4).map(|_| self.0.post("http://a", env())).collect();
            assert!(flights.into_iter().all(|f| f.land().result.is_ok()));
            Ok(None)
        }
    }

    /// Blocks until `http://a` has handled `until` sends (or a
    /// generous timeout passes, so a regression fails, not hangs).
    struct Waits {
        seen: Arc<Clocked>,
        until: usize,
    }
    impl SoapHandler for Waits {
        fn handle(&self, _request: Envelope) -> Result<Option<Envelope>, Fault> {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.seen.0.lock().len() < self.until && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
            if self.seen.0.lock().len() < self.until {
                return Err(Fault::receiver("the other poster's sends never landed"));
            }
            Ok(None)
        }
    }

    #[test]
    fn a_handler_that_blocks_or_posts_in_turn_stalls_only_its_own_poster() {
        let net = Network::new();
        let seen = Arc::new(Clocked::default());
        net.register("http://a", seen.clone());
        net.register("http://relay", Arc::new(Relay(net.clone())));
        // Waits for the other poster's eight sends and the relay's four.
        let waits = Waits {
            seen: seen.clone(),
            until: 12,
        };
        net.register("http://blocks", Arc::new(waits));
        net.set_send_delay_us(200);
        let blocked = std::thread::spawn({
            let net = net.clone();
            move || net.post("http://blocks", env()).land().result
        });
        let mut flights: Vec<Flight> = (0..8).map(|_| net.post("http://a", env())).collect();
        flights.push(net.post("http://relay", env()));
        assert!(flights.into_iter().all(|f| f.land().result.is_ok()));
        assert_eq!(blocked.join().unwrap(), Ok(()));
        assert_eq!(seen.0.lock().len(), 12);
        net.unregister("http://relay"); // the relay holds the network
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
