//! The control plane: every SOAP request a broker or a federation front
//! receives goes through one endpoint, and every management request in
//! it is decoded once, applied once and answered once.
//!
//! * **Decode.** [`decode`] maps a request body to an [`OpKind`] (this
//!   module is the only place that knows which element names which
//!   operation) and parses it with the family codec into a
//!   [`ControlOp`]: a Subscribe's filters arrive compiled, a lease
//!   arrives as the lease asked for, a management request names its
//!   subscription id.
//! * **Version gaps are data.** Paper Table 2 maps WS-Eventing's
//!   operations onto WS-BaseNotification and names the gaps: operations
//!   one family lacks, and the ones WSN 1.0 performs through WSRF.
//!   [`SpecDialect::supports`] states them, derived from the family
//!   crates' version predicates, and `decode` refuses every operation
//!   the requesting dialect does not define.
//! * **Apply.** A broker applies an operation to its registry
//!   ([`WsMessenger::apply`]). A federation front places it: Subscribe
//!   on the shards that own its topic roots (all of them for the
//!   broadcast residue), management on the shards its route table
//!   names, under each shard's own id. It calls the shards' `apply`
//!   directly and merges their [`Reply`]s; nothing is re-encoded for the
//!   hop. Publisher registration and PullPoints are each one's own
//!   (`crate::brokered`).
//! * **Encode.** [`encode`] words a reply in the requesting dialect with
//!   the family codec; the front answers with its own manager URI and
//!   federated id.
//!
//! Publications (a WSN `Notify` or a bare payload) take the ingest path
//! unchanged.

use crate::broker::WsMessenger;
use crate::brokered::Registration;
use crate::detect::SpecDialect;
use crate::event::InternalEvent;
use crate::federation::FederatedMessenger;
use crate::obs::SpanRecord;
use crate::registry::{BrokerDeliveryMode, UnifiedFilters};
use crate::reliability::DeadLetter;
use crate::render::WSM_NS;
use std::sync::Arc;
use std::time::Instant;
use wsm_addressing::EndpointReference;
use wsm_eventing::{Expires, SubscriptionHandle, WseCodec};
use wsm_notification::{Termination, WsnCodec, WsnFilter, WsnVersion};
use wsm_soap::{Envelope, Fault, SoapVersion};
use wsm_topics::TopicExpression;
use wsm_transport::SoapHandler;
use wsm_wsrf::{WSRF_RL_NS, WSRF_RP_NS};
use wsm_xml::{Element, QName, SharedElement};

/// A specification operation a broker answers: those of paper Table 2,
/// the WSRF arms WS-BaseNotification 1.0 manages subscriptions through,
/// publisher registration and PullPoint creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Create a subscription.
    Subscribe,
    /// Extend a subscription's lease.
    Renew,
    /// End a subscription.
    Unsubscribe,
    /// Read a subscription's expiry (WS-Eventing).
    GetStatus,
    /// Suspend deliveries (WS-Notification).
    Pause,
    /// Resume deliveries (WS-Notification).
    Resume,
    /// Drain a pull-mode subscription's queue (WS-Eventing).
    Pull,
    /// WSRF resource lifetime: end a subscription.
    Destroy,
    /// WSRF resource lifetime: set a subscription's expiry.
    SetTerminationTime,
    /// WSRF resource properties: read one subscription property.
    GetResourceProperty,
    /// The last message published on a topic (WS-Notification).
    GetCurrentMessage,
    /// Register a publisher (WS-BrokeredNotification).
    RegisterPublisher,
    /// Create a PullPoint (WS-Notification 1.3).
    CreatePullPoint,
}

impl OpKind {
    /// Every operation.
    pub const ALL: [OpKind; 13] = [
        OpKind::Subscribe,
        OpKind::Renew,
        OpKind::Unsubscribe,
        OpKind::GetStatus,
        OpKind::Pause,
        OpKind::Resume,
        OpKind::Pull,
        OpKind::Destroy,
        OpKind::SetTerminationTime,
        OpKind::GetResourceProperty,
        OpKind::GetCurrentMessage,
        OpKind::RegisterPublisher,
        OpKind::CreatePullPoint,
    ];

    /// The local name of the request's body element.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Subscribe => "Subscribe",
            OpKind::Renew => "Renew",
            OpKind::Unsubscribe => "Unsubscribe",
            OpKind::GetStatus => "GetStatus",
            OpKind::Pause => "PauseSubscription",
            OpKind::Resume => "ResumeSubscription",
            OpKind::Pull => "Pull",
            OpKind::Destroy => "Destroy",
            OpKind::SetTerminationTime => "SetTerminationTime",
            OpKind::GetResourceProperty => "GetResourceProperty",
            OpKind::GetCurrentMessage => "GetCurrentMessage",
            OpKind::RegisterPublisher => "RegisterPublisher",
            OpKind::CreatePullPoint => "CreatePullPoint",
        }
    }

    /// The namespace of the request's body element in `dialect`.
    pub fn ns(self, dialect: SpecDialect) -> &'static str {
        let p = dialect.profile();
        match self {
            OpKind::Destroy | OpKind::SetTerminationTime => WSRF_RL_NS,
            OpKind::GetResourceProperty => WSRF_RP_NS,
            OpKind::RegisterPublisher | OpKind::CreatePullPoint => p.brokered_ns.unwrap_or(p.ns),
            _ => p.ns,
        }
    }
}

impl SpecDialect {
    /// Does this dialect define `op`? Paper Table 2's version gaps as
    /// data: WS-Eventing has no pause/resume, GetCurrentMessage,
    /// publisher registration, PullPoints or WSRF arms, and 01/2004 no
    /// GetStatus or pull delivery; WS-Notification has no GetStatus or
    /// Pull, 1.0 renews and unsubscribes only through WSRF
    /// `SetTerminationTime` and `Destroy`, and only 1.3 has PullPoints
    /// (Table 1).
    pub fn supports(self, op: OpKind) -> bool {
        use OpKind::*;
        match self {
            SpecDialect::Wse(v) => match op {
                Subscribe | Renew | Unsubscribe => true,
                GetStatus => v.has_get_status(),
                Pull => v.supports_pull_delivery(),
                _ => false,
            },
            SpecDialect::Wsn(v) => match op {
                Renew | Unsubscribe => v.has_native_renew_unsubscribe(),
                GetCurrentMessage => v.has_get_current_message(),
                CreatePullPoint => v.has_pull_point(),
                GetStatus | Pull => false,
                _ => true,
            },
        }
    }
}

/// Every namespace a broker or front processes: each dialect's base
/// and brokered namespaces and WS-Addressing version, WSRF, and the
/// broker's own extension namespace.
static UNDERSTOOD_NAMESPACES: [&str; 15] = {
    let mut understood = [WSM_NS; 15];
    (understood[1], understood[2]) = (WSRF_RL_NS, WSRF_RP_NS);
    let mut i = 0;
    while i < SpecDialect::ALL.len() {
        let p = SpecDialect::ALL[i].profile();
        understood[3 + 3 * i] = p.ns;
        understood[4 + 3 * i] = p.wsa.ns();
        if let Some(ns) = p.brokered_ns {
            understood[5 + 3 * i] = ns;
        }
        i += 1;
    }
    understood
};

/// A subscription request, decoded and with its filters compiled.
#[derive(Clone)]
pub(crate) struct Subscription {
    pub(crate) dialect: SpecDialect,
    pub(crate) consumer: EndpointReference,
    pub(crate) end_to: Option<EndpointReference>,
    pub(crate) filters: UnifiedFilters,
    pub(crate) mode: BrokerDeliveryMode,
    pub(crate) use_raw: bool,
    /// The lease asked for (see [`lease`]).
    pub(crate) lease: Option<Expires>,
}

/// An operation on one existing subscription.
#[derive(Clone)]
pub(crate) enum Manage {
    /// Renew or SetTerminationTime; `None` asks for no expiry (WS-Eventing).
    Lease(OpKind, Option<Expires>),
    /// Pause or Resume.
    Pause(OpKind),
    /// Unsubscribe or Destroy.
    End(OpKind),
    GetStatus,
    /// At most this many events.
    Pull(usize),
    /// The property's local name.
    Property(String),
}

/// One decoded control request.
#[derive(Clone)]
pub(crate) enum ControlOp {
    Subscribe(Box<Subscription>),
    /// An operation on the subscription a request in this dialect named
    /// by this id; a front applies it on each shard under the shard's id.
    Manage(SpecDialect, String, Manage),
    GetCurrentMessage(TopicExpression),
    /// Boxed, like a Subscribe: every management request moves this
    /// enum, so no rare variant may widen it.
    RegisterPublisher(Box<Registration>),
    CreatePullPoint(WsnVersion),
    GetMetrics,
    /// `true` empties the span ring.
    GetTrace(bool),
    GetDeadLetters,
    RedeliverDeadLetters,
}

/// A new subscription: where it is managed, under which id, and the
/// lease it was given.
pub(crate) struct Subscribed {
    pub(crate) manager: String,
    pub(crate) id: String,
    /// The registry key behind `id` (`wsm-{key}`) on the broker that
    /// placed the subscription.
    pub(crate) key: u64,
    /// The lease the request asked for, echoed by WS-Eventing.
    pub(crate) requested: Option<Expires>,
    pub(crate) now_ms: u64,
    pub(crate) expires_at: Option<u64>,
}

/// What applying a [`ControlOp`] produced.
pub(crate) enum Reply {
    Subscribed(Subscribed),
    /// A management acknowledgement, with the lease it reports: the one
    /// asked for (Renew), the instant set (SetTerminationTime) or the
    /// expiry (GetStatus).
    Ack(OpKind, Option<Expires>),
    Pulled(Vec<Arc<SharedElement>>),
    /// The property asked for and its value, if the subscription has it.
    Property(Option<(&'static str, String)>),
    CurrentMessage(Arc<SharedElement>),
    /// The registration's address.
    Registered(String),
    /// The new PullPoint's address.
    PullPoint(String),
    Metrics(String),
    Trace(Vec<SpanRecord>),
    DeadLetters(Vec<DeadLetter>),
    Redelivered(usize),
}

/// The fault for a management request naming no live subscription.
pub(crate) fn unknown_subscription(dialect: SpecDialect, id: &str) -> Fault {
    Fault {
        subcode: dialect
            .profile()
            .unknown_subscription_subcode
            .map(Into::into),
        ..Fault::sender(format!("unknown subscription {id}"))
    }
}

/// The broker's own `wsm:` operations, which every dialect shares.
fn decode_extension(body: &Element) -> Option<ControlOp> {
    Some(match (body.name.ns.as_deref(), body.name.local.as_str()) {
        (Some(WSM_NS), "GetMetrics") => ControlOp::GetMetrics,
        (Some(WSM_NS), "GetTrace") => ControlOp::GetTrace(body.attr("Drain") == Some("true")),
        (Some(WSM_NS), "GetDeadLetters") => ControlOp::GetDeadLetters,
        (Some(WSM_NS), "RedeliverDeadLetters") => ControlOp::RedeliverDeadLetters,
        _ => return None,
    })
}

/// Decode a control request in `dialect`, refusing any operation the
/// dialect does not define.
pub(crate) fn decode(dialect: SpecDialect, request: &Envelope) -> Result<ControlOp, Fault> {
    let body = request.body().ok_or_else(|| Fault::sender("empty body"))?;
    let undefined = || Fault::sender(format!("{} has no {}", dialect.label(), body.name.clark()));
    let kind = OpKind::ALL
        .into_iter()
        .find(|k| body.name.is(k.ns(dialect), k.name()))
        .filter(|k| dialect.supports(*k))
        .ok_or_else(undefined)?;
    let op = match (kind, dialect) {
        (OpKind::Subscribe, _) => return subscription(dialect, request).map(ControlOp::Subscribe),
        (OpKind::GetCurrentMessage, SpecDialect::Wsn(v)) => {
            let topic = WsnCodec::new(v).parse_get_current_message(request)?;
            return Ok(ControlOp::GetCurrentMessage(topic));
        }
        (OpKind::RegisterPublisher, SpecDialect::Wsn(version)) => {
            let (publisher, topics, demand) =
                WsnCodec::new(version).parse_register_publisher(request)?;
            return Ok(ControlOp::RegisterPublisher(Box::new(Registration {
                version,
                publisher,
                topics,
                demand,
            })));
        }
        (OpKind::CreatePullPoint, SpecDialect::Wsn(v)) => return Ok(ControlOp::CreatePullPoint(v)),
        (OpKind::Renew, SpecDialect::Wse(v)) => {
            Manage::Lease(kind, WseCodec::new(v).parse_renew(request)?)
        }
        (OpKind::Renew, SpecDialect::Wsn(_)) => {
            let lease = termination(body, dialect.profile().ns, "TerminationTime")?;
            Manage::Lease(kind, Some(lease))
        }
        (OpKind::SetTerminationTime, _) => {
            let lease = termination(body, WSRF_RL_NS, "RequestedTerminationTime")?;
            Manage::Lease(kind, Some(lease))
        }
        (OpKind::Pause | OpKind::Resume, _) => Manage::Pause(kind),
        (OpKind::Unsubscribe | OpKind::Destroy, _) => Manage::End(kind),
        (OpKind::GetStatus, _) => Manage::GetStatus,
        (OpKind::Pull, _) => Manage::Pull(
            body.attr("MaxElements")
                .and_then(|m| m.parse().ok())
                .unwrap_or(usize::MAX),
        ),
        (OpKind::GetResourceProperty, _) => {
            Manage::Property(body.text().trim().rsplit(':').next().unwrap_or("").into())
        }
        // `supports` refused these.
        (
            OpKind::GetCurrentMessage | OpKind::RegisterPublisher | OpKind::CreatePullPoint,
            SpecDialect::Wse(_),
        ) => return Err(undefined()),
    };
    let id = match dialect {
        SpecDialect::Wse(v) => WseCodec::new(v).extract_subscription_id(request),
        SpecDialect::Wsn(v) => WsnCodec::new(v).extract_subscription_id(request),
    }
    .ok_or_else(|| Fault::sender("no subscription identifier in request"))?;
    Ok(ControlOp::Manage(dialect, id, op))
}

/// A WSN termination time child of `body`, as the lease it asks for.
fn termination(body: &Element, ns: &str, local: &str) -> Result<Expires, Fault> {
    body.child_ns(ns, local)
        .and_then(|e| Termination::parse(&e.text()))
        .map(lease)
        .ok_or_else(|| Fault::sender(format!("missing or invalid {local}")))
}

/// WSN's `Termination` as the lease it asks for: the two map one to one
/// onto WS-Eventing's `Expires`, which speaks for both here.
fn lease(t: Termination) -> Expires {
    match t {
        Termination::At(ms) => Expires::At(ms),
        Termination::Duration(ms) => Expires::Duration(ms),
    }
}

/// Decode a Subscribe and compile its filters, once: every later match,
/// on every shard the subscription is placed on, shares the programs.
fn subscription(dialect: SpecDialect, request: &Envelope) -> Result<Box<Subscription>, Fault> {
    let (mut sub, filters) = match dialect {
        SpecDialect::Wse(v) => {
            let req = WseCodec::new(v).parse_subscribe(request)?;
            let sub = Subscription {
                dialect,
                consumer: req.notify_to,
                end_to: req.end_to,
                filters: UnifiedFilters::default(),
                mode: req.mode,
                use_raw: false,
                lease: req.expires,
            };
            // WS-Eventing's one filter is a message-content filter.
            let filters = req.filter.map(|f| WsnFilter::MessageContent {
                dialect: f.dialect,
                expression: f.expression,
            });
            (sub, Vec::from_iter(filters))
        }
        SpecDialect::Wsn(v) => {
            let req = WsnCodec::new(v).parse_subscribe(request)?;
            let sub = Subscription {
                dialect,
                consumer: req.consumer,
                end_to: None,
                filters: UnifiedFilters::default(),
                mode: BrokerDeliveryMode::Push,
                use_raw: req.use_raw,
                lease: req.initial_termination.map(lease),
            };
            (sub, req.filters)
        }
    };
    let subcode = dialect.profile().invalid_filter_subcode;
    let compile = |what: &str, expression: &str| {
        wsm_xpath::CompiledFilter::compile(expression)
            .map(Arc::new)
            .map_err(|e| Fault::sender(format!("invalid {what}: {e}")).with_subcode(subcode))
    };
    for f in &filters {
        match f {
            // An exact-size copy: the parsed expression carries the
            // parser's spare capacity, and the registry keeps it for the
            // subscription's lifetime.
            WsnFilter::Topic(t) => sub.filters.topics.push(t.clone()),
            WsnFilter::ProducerProperties(x) => sub
                .filters
                .producer_props
                .push(compile("ProducerProperties filter", x)?),
            WsnFilter::MessageContent { dialect, .. }
                if dialect != wsm_notification::XPATH_DIALECT =>
            {
                return Err(
                    Fault::sender("the requested filter dialect is not supported")
                        .with_subcode(subcode),
                )
            }
            WsnFilter::MessageContent { expression, .. } => sub
                .filters
                .content
                .push(compile("content filter", expression)?),
        }
    }
    Ok(Box::new(sub))
}

/// Word `reply` in the requesting dialect; `None` is the broker's own
/// extension namespace, which answers the `wsm:` operations.
pub(crate) fn encode(dialect: Option<SpecDialect>, reply: Reply) -> Envelope {
    let wsm = |local: &str| Element::ns(WSM_NS, local, "wsm");
    let body = match (reply, dialect) {
        (Reply::Subscribed(s), Some(d @ SpecDialect::Wse(v))) => {
            return WseCodec::new(v).subscribe_response(&SubscriptionHandle {
                manager: d.manager_epr(&s.manager, &s.id),
                id: s.id,
                expires: s.requested,
                version: v,
            })
        }
        (Reply::Subscribed(s), Some(SpecDialect::Wsn(v))) => {
            return WsnCodec::new(v).subscribe_response(&s.manager, &s.id, s.now_ms, s.expires_at)
        }
        (Reply::Ack(OpKind::Destroy, _), Some(SpecDialect::Wsn(v))) => {
            return WsnCodec::new(v).wsrf_destroy_response()
        }
        (
            Reply::Ack(OpKind::SetTerminationTime, Some(Expires::At(at))),
            Some(SpecDialect::Wsn(v)),
        ) => return WsnCodec::new(v).wsrf_set_termination_time_response(at),
        (Reply::Ack(kind, lease), Some(SpecDialect::Wse(v))) => {
            return WseCodec::new(v).management_response(kind.name(), lease)
        }
        (Reply::Ack(kind, _), Some(SpecDialect::Wsn(v))) => {
            return WsnCodec::new(v).management_response(kind.name())
        }
        (Reply::Pulled(events), Some(SpecDialect::Wse(v))) => {
            return WseCodec::new(v).pull_response_shared(&events)
        }
        (Reply::Property(property), Some(SpecDialect::Wsn(v))) => {
            let value =
                property.map(|(name, value)| Element::ns(v.ns(), name, "wsnt").with_text(value));
            return WsnCodec::new(v).wsrf_get_property_response(value);
        }
        (Reply::CurrentMessage(m), Some(SpecDialect::Wsn(v))) => {
            return WsnCodec::new(v).get_current_message_response(Some(m.element()))
        }
        (Reply::Registered(address), Some(SpecDialect::Wsn(v))) => {
            return WsnCodec::new(v).register_publisher_response(&EndpointReference::new(address))
        }
        (Reply::PullPoint(address), Some(SpecDialect::Wsn(v))) => {
            return WsnCodec::new(v).create_pull_point_response(&EndpointReference::new(address))
        }
        (Reply::Metrics(text), _) => {
            wsm("GetMetricsResponse").with_child(wsm("Exposition").with_text(text))
        }
        (Reply::Trace(spans), _) => {
            let mut resp = wsm("GetTraceResponse");
            for s in spans {
                let mut span = wsm("Span")
                    .with_attr("Seq", s.seq.to_string())
                    .with_attr("Stage", s.stage.name())
                    .with_attr("AtMs", s.at_ms.to_string())
                    .with_attr("DurNs", s.dur_ns.to_string())
                    .with_attr("Items", s.items.to_string());
                if let Some(sub) = &s.subscriber {
                    span = span
                        .with_attr("Subscriber", &**sub)
                        .with_attr("Attempt", s.attempt.to_string());
                }
                if let Some(o) = s.outcome {
                    span = span.with_attr("Outcome", o.name());
                }
                resp.push(span);
            }
            resp
        }
        (Reply::DeadLetters(letters), _) => {
            let mut resp = wsm("GetDeadLettersResponse");
            for dl in letters {
                let mut letter = wsm("DeadLetter")
                    .with_attr("Sub", dl.sub_id)
                    .with_attr("Address", dl.address)
                    .with_attr("Reason", dl.reason)
                    .with_attr("Attempts", dl.attempts.to_string())
                    .with_attr("Strikes", dl.strikes.to_string())
                    .with_attr("AtMs", dl.at_ms.to_string());
                if let Some(body) = dl.envelope.body() {
                    letter.push(body.clone());
                }
                resp.push(letter);
            }
            resp
        }
        (Reply::Redelivered(count), _) => {
            wsm("RedeliverDeadLettersResponse").with_attr("Count", count.to_string())
        }
        // `decode` refuses every operation a dialect does not define, so
        // no other reply meets a dialect that cannot word it.
        (_, dialect) => unreachable!("no {dialect:?} reply to this operation"),
    };
    Envelope::new(SoapVersion::V11).with_body(body)
}

/// The one SOAP endpoint type: a broker registers it at its broker and
/// subscription-manager URIs, a federation front at its own two.
pub(crate) enum Endpoint {
    Broker(WsMessenger),
    Front(FederatedMessenger),
}

impl Endpoint {
    fn apply(&self, op: ControlOp) -> Result<Reply, Fault> {
        match self {
            Endpoint::Broker(b) => b.apply(op),
            Endpoint::Front(f) => f.apply(op),
        }
    }

    /// Hand a publication to ingest. A front federates its events, each
    /// posted on this thread's pipeline before `publish_event` returns
    /// (`crate::delivery`). Its shards may have swept expired
    /// subscriptions meanwhile, so it then re-evaluates its
    /// demand-based publishers.
    fn ingest(&self, events: impl Iterator<Item = InternalEvent>, detect_ns: u64) {
        match self {
            Endpoint::Broker(b) => b.ingest(events, detect_ns),
            Endpoint::Front(f) => {
                for ev in events {
                    f.publish_event(ev);
                }
                f.refresh_demand();
            }
        }
    }
}

impl SoapHandler for Endpoint {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        wsm_soap::check_must_understand(&request, &UNDERSTOOD_NAMESPACES)?;
        let body = request.body().ok_or_else(|| Fault::sender("empty body"))?;
        // The broker's own operations are read before dialect detection:
        // they must not perturb the pipeline they report on.
        if let Some(op) = decode_extension(body) {
            return self.apply(op).map(|reply| Some(encode(None, reply)));
        }
        let started = Instant::now();
        let dialect = SpecDialect::detect(&request);
        let detect_ns = started.elapsed().as_nanos() as u64;
        // A publication is moved out of the request it arrived in.
        let Some(dialect) = dialect else {
            // A bare payload: a raw publication.
            let body = request
                .into_body()
                .ok_or_else(|| Fault::sender("empty body"))?;
            self.ingest(std::iter::once(InternalEvent::raw(body)), detect_ns);
            return Ok(None);
        };
        if let SpecDialect::Wsn(v) = dialect {
            if body.name.is(v.ns(), "Notify") {
                // A Notify it cannot read is answered as `decode`
                // answers any body it has no operation for.
                let messages = WsnCodec::new(v).into_notify(request).ok_or_else(|| {
                    let notify = QName::ns(v.ns(), "Notify");
                    Fault::sender(format!("{} has no {}", dialect.label(), notify.clark()))
                })?;
                self.ingest(
                    messages.into_iter().map(|m| InternalEvent {
                        topic: m.topic,
                        payload: SharedElement::new(m.message),
                        producer: m.producer,
                        origin: Some(dialect),
                    }),
                    detect_ns,
                );
                return Ok(None);
            }
        }
        let reply = self.apply(decode(dialect, &request)?)?;
        Ok(Some(encode(Some(dialect), reply)))
    }
}
