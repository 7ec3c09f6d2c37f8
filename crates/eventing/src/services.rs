//! The WS-Eventing runtime entities: event source, subscription
//! manager, event sink, subscriber (paper Fig. 1).

use crate::messages::WseCodec;
use crate::model::{DeliveryMode, EndStatus, Expires, SubscribeRequest, SubscriptionHandle};
use crate::store::{CompiledFilter, SubscriptionStore};
use crate::version::WseVersion;
use parking_lot::Mutex;
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_soap::{Envelope, Fault};
use wsm_transport::{EndpointOptions, Network, SoapHandler, TransportError};
use wsm_xml::{Element, Node};

/// Statistics from one `publish` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Notifications pushed successfully.
    pub pushed: usize,
    /// Events queued for pull subscribers.
    pub queued: usize,
    /// Events buffered for wrapped delivery.
    pub buffered: usize,
    /// Subscriptions terminated due to delivery failure.
    pub failed: usize,
}

struct SourceInner {
    codec: WseCodec,
    net: Network,
    uri: String,
    manager_uri: String,
    store: SubscriptionStore,
}

/// An event source: accepts subscriptions, publishes events.
///
/// For the January 2004 version the source *is* the subscription
/// manager (one endpoint); for August 2004 a separate manager endpoint
/// is registered at `<uri>/manager` — the architectural separation the
/// paper's first Table 1 highlight records.
#[derive(Clone)]
pub struct EventSource {
    inner: Arc<SourceInner>,
}

impl EventSource {
    /// Start an event source (and its subscription manager) on the
    /// network.
    pub fn start(net: &Network, uri: &str, version: WseVersion) -> Self {
        let manager_uri = if version.has_separate_subscription_manager() {
            format!("{uri}/manager")
        } else {
            uri.to_string()
        };
        let inner = Arc::new(SourceInner {
            codec: WseCodec::new(version),
            net: net.clone(),
            uri: uri.to_string(),
            manager_uri,
            store: SubscriptionStore::new(),
        });
        let source = EventSource {
            inner: Arc::clone(&inner),
        };
        net.register(
            uri,
            Arc::new(SourceHandler {
                inner: Arc::clone(&inner),
            }),
        );
        if version.has_separate_subscription_manager() {
            net.register(
                inner.manager_uri.clone(),
                Arc::new(ManagerHandler {
                    inner: Arc::clone(&inner),
                }),
            );
        }
        source
    }

    /// The spec version this source speaks.
    pub fn version(&self) -> WseVersion {
        self.inner.codec.version
    }

    /// The source endpoint URI.
    pub fn uri(&self) -> &str {
        &self.inner.uri
    }

    /// The subscription manager URI (equals [`EventSource::uri`] for
    /// 01/2004).
    pub fn manager_uri(&self) -> &str {
        &self.inner.manager_uri
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.inner.store.len()
    }

    /// Direct access to the store (used by the mediation broker and
    /// the benches).
    pub fn store(&self) -> &SubscriptionStore {
        &self.inner.store
    }

    /// Publish an event: evaluate filters, deliver per mode.
    pub fn publish(&self, event: &Element) -> PublishStats {
        publish_event(&self.inner, event)
    }

    /// Flush wrapped-mode buffers as batch messages. Returns the number
    /// of batches sent.
    pub fn flush_wrapped(&self) -> usize {
        let inner = &self.inner;
        let mut batches = 0;
        for (id, events) in inner.store.take_wrap_buffers() {
            if let Some(sub) = inner.store.get(&id) {
                let env = inner.codec.wrapped_notification(&sub.notify_to, &events);
                if inner.net.send(&sub.notify_to.address, env).is_ok() {
                    batches += 1;
                } else {
                    end_subscription(
                        inner,
                        &sub.id,
                        sub.end_to.as_ref(),
                        EndStatus::DeliveryFailure,
                        "wrapped delivery failed",
                    );
                    inner.store.remove(&id);
                }
            }
        }
        batches
    }

    /// Orderly shutdown: send `SubscriptionEnd(SourceShuttingDown)` to
    /// every subscription that asked for it, then drop them all.
    pub fn shutdown(&self) {
        for sub in self.inner.store.drain_all() {
            end_subscription(
                &self.inner,
                &sub.id,
                sub.end_to.as_ref(),
                EndStatus::SourceShuttingDown,
                "source shutting down",
            );
        }
        self.inner.net.unregister(&self.inner.uri);
        if self.inner.codec.version.has_separate_subscription_manager() {
            self.inner.net.unregister(&self.inner.manager_uri);
        }
    }

    /// Cancel one subscription from the source side
    /// (`SubscriptionEnd(SourceCancelling)`).
    pub fn cancel(&self, id: &str, reason: &str) -> bool {
        match self.inner.store.remove(id) {
            Some(sub) => {
                end_subscription(
                    &self.inner,
                    &sub.id,
                    sub.end_to.as_ref(),
                    EndStatus::SourceCancelling,
                    reason,
                );
                true
            }
            None => false,
        }
    }
}

fn publish_event(inner: &SourceInner, event: &Element) -> PublishStats {
    let now = inner.net.clock().now_ms();
    inner.store.sweep_expired(now);
    let mut stats = PublishStats::default();
    for sub in inner.store.matching(event, now) {
        match sub.mode {
            DeliveryMode::Push => {
                let env = inner.codec.notification(&sub.notify_to, event);
                match inner.net.send(&sub.notify_to.address, env) {
                    Ok(()) => stats.pushed += 1,
                    Err(_) => {
                        stats.failed += 1;
                        inner.store.remove(&sub.id);
                        end_subscription(
                            inner,
                            &sub.id,
                            sub.end_to.as_ref(),
                            EndStatus::DeliveryFailure,
                            "delivery failed",
                        );
                    }
                }
            }
            DeliveryMode::Pull => {
                if inner.store.queue_event(&sub.id, event.clone()) {
                    stats.queued += 1;
                }
            }
            DeliveryMode::Wrapped => {
                if inner.store.buffer_wrapped(&sub.id, event.clone()) {
                    stats.buffered += 1;
                }
            }
        }
    }
    stats
}

/// Send `SubscriptionEnd` for a terminated subscription (only when the
/// subscriber supplied `EndTo` — the paper notes the message is simply
/// not generated otherwise).
fn end_subscription(
    inner: &SourceInner,
    id: &str,
    end_to: Option<&EndpointReference>,
    status: EndStatus,
    reason: &str,
) {
    if let Some(end_to) = end_to {
        let manager = inner.codec.manager_epr(&inner.manager_uri, id);
        let env = inner
            .codec
            .subscription_end(end_to, &manager, status, Some(reason));
        let _ = inner.net.send(&end_to.address, env);
    }
}

/// Endpoint handler for the event source.
struct SourceHandler {
    inner: Arc<SourceInner>,
}

impl SoapHandler for SourceHandler {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        let inner = &self.inner;
        let ns = inner.codec.version.ns();
        let body = request.body().ok_or_else(|| Fault::sender("empty body"))?;
        if body.name.is(ns, "Subscribe") {
            return subscribe(inner, &request).map(Some);
        }
        // 01/2004: the source endpoint is also the manager.
        if !inner.codec.version.has_separate_subscription_manager() {
            return manage(inner, &request);
        }
        Err(Fault::sender(format!(
            "unsupported operation {}",
            body.name.clark()
        )))
    }
}

/// Endpoint handler for the (separate) subscription manager.
struct ManagerHandler {
    inner: Arc<SourceInner>,
}

impl SoapHandler for ManagerHandler {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        manage(&self.inner, &request)
    }
}

fn subscribe(inner: &SourceInner, request: &Envelope) -> Result<Envelope, Fault> {
    let req = inner.codec.parse_subscribe(request)?;
    let filter = match req.filter.clone() {
        Some(f) => Some(CompiledFilter::compile(f).ok_or_else(|| {
            Fault::sender("the requested filter dialect is not supported")
                .with_subcode("wse:FilteringNotSupported")
        })?),
        None => None,
    };
    if req.mode != DeliveryMode::Push && !inner.codec.version.supports_pull_delivery() {
        return Err(
            Fault::sender("only push delivery is defined in this version")
                .with_subcode("wse:DeliveryModeRequestedUnavailable"),
        );
    }
    let now = inner.net.clock().now_ms();
    let expires_at = req.expires.map(|e| e.absolute(now));
    let id = inner
        .store
        .insert(req.notify_to, req.end_to, req.mode, expires_at, filter);
    let handle = SubscriptionHandle {
        manager: inner.codec.manager_epr(&inner.manager_uri, &id),
        id,
        expires: req.expires,
        version: inner.codec.version,
    };
    Ok(inner.codec.subscribe_response(&handle))
}

fn manage(inner: &SourceInner, request: &Envelope) -> Result<Option<Envelope>, Fault> {
    let ns = inner.codec.version.ns();
    let body = request.body().ok_or_else(|| Fault::sender("empty body"))?;
    let id = inner
        .codec
        .extract_subscription_id(request)
        .ok_or_else(|| Fault::sender("no subscription identifier in request"))?;
    let now = inner.net.clock().now_ms();
    inner.store.sweep_expired(now);
    let unknown = || Fault::sender(format!("unknown subscription {id}"));

    if body.name.is(ns, "Renew") {
        inner.store.get(&id).ok_or_else(unknown)?;
        let requested = inner.codec.parse_renew(request)?;
        let expires_at = requested.map(|e| e.absolute(now));
        inner.store.set_expiry(&id, expires_at);
        Ok(Some(inner.codec.management_response("Renew", requested)))
    } else if body.name.is(ns, "GetStatus") {
        if !inner.codec.version.has_get_status() {
            return Err(Fault::sender("GetStatus is not defined in this version"));
        }
        let sub = inner.store.get(&id).ok_or_else(unknown)?;
        Ok(Some(inner.codec.management_response(
            "GetStatus",
            sub.expires_at_ms.map(Expires::At),
        )))
    } else if body.name.is(ns, "Unsubscribe") {
        inner.store.remove(&id).ok_or_else(unknown)?;
        Ok(Some(inner.codec.management_response("Unsubscribe", None)))
    } else if body.name.is(ns, "Pull") {
        if !inner.codec.version.supports_pull_delivery() {
            return Err(Fault::sender(
                "pull delivery is not defined in this version",
            ));
        }
        inner.store.get(&id).ok_or_else(unknown)?;
        let max = body
            .attr("MaxElements")
            .and_then(|m| m.parse().ok())
            .unwrap_or(usize::MAX);
        let events = inner.store.drain_queue(&id, max);
        Ok(Some(inner.codec.pull_response(&events)))
    } else {
        Err(Fault::sender(format!(
            "unsupported operation {}",
            body.name.clark()
        )))
    }
}

// -------------------------------------------------------------- sink

struct SinkInner {
    /// Received events as the nodes they arrived in: a shared subtree
    /// is kept shared, and `received()` builds the `Element`s.
    received: Mutex<Vec<Node>>,
    ends: Mutex<Vec<(EndStatus, Option<String>)>>,
    codec: WseCodec,
    uri: String,
}

/// An event sink: receives notifications (raw or wrapped) and
/// `SubscriptionEnd` notices.
#[derive(Clone)]
pub struct EventSink {
    inner: Arc<SinkInner>,
}

impl EventSink {
    /// Start a sink endpoint.
    pub fn start(net: &Network, uri: &str, version: WseVersion) -> Self {
        Self::start_with(net, uri, version, EndpointOptions::default())
    }

    /// Start a sink behind a firewall (inbound blocked) — it can only
    /// receive events by pulling.
    pub fn start_firewalled(net: &Network, uri: &str, version: WseVersion) -> Self {
        Self::start_with(net, uri, version, EndpointOptions { firewalled: true })
    }

    fn start_with(net: &Network, uri: &str, version: WseVersion, options: EndpointOptions) -> Self {
        let inner = Arc::new(SinkInner {
            received: Mutex::new(Vec::new()),
            ends: Mutex::new(Vec::new()),
            codec: WseCodec::new(version),
            uri: uri.to_string(),
        });
        net.register_with(
            uri,
            Arc::new(SinkHandler {
                inner: Arc::clone(&inner),
            }),
            options,
        );
        EventSink { inner }
    }

    /// This sink's EPR (what goes into `NotifyTo`).
    pub fn epr(&self) -> EndpointReference {
        EndpointReference::new(self.inner.uri.clone())
    }

    /// Events received so far.
    pub fn received(&self) -> Vec<Element> {
        let got = self.inner.received.lock();
        got.iter().filter_map(Node::as_element).cloned().collect()
    }

    /// `SubscriptionEnd` notices received so far.
    pub fn ends(&self) -> Vec<(EndStatus, Option<String>)> {
        self.inner.ends.lock().clone()
    }

    /// Record events obtained out-of-band (e.g. by pulling).
    pub fn accept_events(&self, events: Vec<Element>) {
        let events = events.into_iter().map(Node::Element);
        self.inner.received.lock().extend(events);
    }

    /// Drop all recorded state.
    pub fn clear(&self) {
        self.inner.received.lock().clear();
        self.inner.ends.lock().clear();
    }
}

struct SinkHandler {
    inner: Arc<SinkInner>,
}

impl SoapHandler for SinkHandler {
    fn handle(&self, request: Envelope) -> Result<Option<Envelope>, Fault> {
        let ns = self.inner.codec.version.ns();
        if let Some((status, reason)) = self.inner.codec.parse_subscription_end(&request) {
            self.inner.ends.lock().push((status, reason));
            return Ok(None);
        }
        let body = request
            .into_body_node()
            .ok_or_else(|| Fault::sender("empty notification"))?;
        let mut received = self.inner.received.lock();
        match body {
            // A wrapped batch: its children, moved out of a plain
            // wrapper or shared from a shared one (`received()` reads
            // only the elements).
            Node::Element(batch) if batch.name.is(ns, "Notifications") => {
                received.extend(batch.children)
            }
            Node::Shared(batch) if batch.element().name.is(ns, "Notifications") => {
                received.extend(batch.element().children.iter().cloned())
            }
            event => received.push(event),
        }
        Ok(None)
    }
}

// --------------------------------------------------------- subscriber

/// The subscriber entity: creates and manages subscriptions on behalf
/// of sinks (separated from the sink exactly as both specs prescribe).
#[derive(Clone)]
pub struct Subscriber {
    net: Network,
    codec: WseCodec,
}

impl Subscriber {
    /// A subscriber speaking `version`.
    pub fn new(net: &Network, version: WseVersion) -> Self {
        Subscriber {
            net: net.clone(),
            codec: WseCodec::new(version),
        }
    }

    /// Subscribe at an event source.
    pub fn subscribe(
        &self,
        source_uri: &str,
        req: SubscribeRequest,
    ) -> Result<SubscriptionHandle, TransportError> {
        let env = self.codec.subscribe(source_uri, &req);
        let resp = self.net.request(source_uri, env)?;
        self.codec
            .parse_subscribe_response(&resp)
            .map_err(|f| TransportError::Fault(Box::new(f)))
    }

    /// Renew a subscription; returns the granted expiry.
    pub fn renew(
        &self,
        handle: &SubscriptionHandle,
        expires: Option<Expires>,
    ) -> Result<Option<Expires>, TransportError> {
        let env = self.codec.renew(handle, expires);
        let resp = self.net.request(&handle.manager.address, env)?;
        Ok(self.codec.parse_expires(&resp))
    }

    /// Query the status (expiry) of a subscription (08/2004 only).
    pub fn get_status(
        &self,
        handle: &SubscriptionHandle,
    ) -> Result<Option<Expires>, TransportError> {
        let env = self.codec.get_status(handle);
        let resp = self.net.request(&handle.manager.address, env)?;
        Ok(self.codec.parse_expires(&resp))
    }

    /// Unsubscribe.
    pub fn unsubscribe(&self, handle: &SubscriptionHandle) -> Result<(), TransportError> {
        let env = self.codec.unsubscribe(handle);
        self.net.request(&handle.manager.address, env).map(|_| ())
    }

    /// Pull up to `max` queued events (pull-mode subscriptions).
    pub fn pull(
        &self,
        handle: &SubscriptionHandle,
        max: usize,
    ) -> Result<Vec<Element>, TransportError> {
        let env = self.codec.pull(handle, max);
        let resp = self.net.request(&handle.manager.address, env)?;
        Ok(self.codec.parse_pull_response(&resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Filter;

    fn setup(version: WseVersion) -> (Network, EventSource, EventSink, Subscriber) {
        let net = Network::new();
        let source = EventSource::start(&net, "http://src", version);
        let sink = EventSink::start(&net, "http://sink", version);
        let subscriber = Subscriber::new(&net, version);
        (net, source, sink, subscriber)
    }

    #[test]
    fn the_sink_keeps_shared_events_shared() {
        let net = Network::new();
        let sink = EventSink::start(&net, "http://sink", WseVersion::Aug2004);
        let codec = WseCodec::new(WseVersion::Aug2004);
        let shared = |n: &str| wsm_xml::SharedElement::new(Element::local("ev").with_attr("n", n));
        let (one, two, three) = (shared("1"), shared("2"), shared("3"));
        let raw = codec.notification(&sink.epr(), &Element::local("x"));
        let raw = raw.with_shared_body(Arc::clone(&one));
        let batch = codec.wrapped_notification_shared(&sink.epr(), &[two.clone(), three.clone()]);
        let plain =
            codec.wrapped_notification(&sink.epr(), &[Element::local("ev").with_attr("n", "4")]);
        for env in [raw, batch, plain] {
            net.send("http://sink", env).unwrap();
        }
        let seen: Vec<_> = sink
            .received()
            .iter()
            .map(|e| e.attr("n").unwrap().to_string())
            .collect();
        assert_eq!(seen, ["1", "2", "3", "4"]);
        let kept = sink.inner.received.lock();
        let kept: Vec<_> = kept.iter().filter(|n| n.as_element().is_some()).collect();
        for (node, original) in kept.iter().zip([&one, &two, &three]) {
            assert!(
                matches!(node, Node::Shared(s) if Arc::ptr_eq(s, original)),
                "a shared event is kept as the same subtree, not copied"
            );
        }
        assert!(matches!(kept[3], Node::Element(_)));
    }

    #[test]
    fn end_to_end_push_both_versions() {
        for v in [WseVersion::Jan2004, WseVersion::Aug2004] {
            let (_net, source, sink, subscriber) = setup(v);
            let h = subscriber
                .subscribe(source.uri(), SubscribeRequest::push(sink.epr()))
                .unwrap();
            assert_eq!(source.subscription_count(), 1);
            let stats = source.publish(&Element::local("ev").with_text("1"));
            assert_eq!(stats.pushed, 1);
            assert_eq!(sink.received().len(), 1);
            subscriber.unsubscribe(&h).unwrap();
            assert_eq!(source.subscription_count(), 0);
        }
    }

    #[test]
    fn manager_separation_matches_version() {
        let (_, src_old, ..) = {
            let (n, s, k, u) = setup(WseVersion::Jan2004);
            (n, s, k, u)
        };
        assert_eq!(src_old.uri(), src_old.manager_uri(), "01/2004: same entity");
        let (_n, src_new, _k, _u) = setup(WseVersion::Aug2004);
        assert_ne!(
            src_new.uri(),
            src_new.manager_uri(),
            "08/2004: separate manager"
        );
    }

    #[test]
    fn filter_screens_events() {
        let (_net, source, sink, subscriber) = setup(WseVersion::Aug2004);
        subscriber
            .subscribe(
                source.uri(),
                SubscribeRequest::push(sink.epr())
                    .with_filter(Filter::xpath("/job[@state='done']")),
            )
            .unwrap();
        source.publish(&Element::local("job").with_attr("state", "running"));
        source.publish(&Element::local("job").with_attr("state", "done"));
        let got = sink.received();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].attr("state"), Some("done"));
    }

    #[test]
    fn unsupported_filter_dialect_faults() {
        let (_net, source, sink, subscriber) = setup(WseVersion::Aug2004);
        let req = SubscribeRequest::push(sink.epr()).with_filter(Filter {
            dialect: "urn:sql92".into(),
            expression: "sev > 3".into(),
        });
        match subscriber.subscribe(source.uri(), req) {
            Err(TransportError::Fault(f)) => {
                assert_eq!(f.subcode.as_deref(), Some("wse:FilteringNotSupported"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expiry_and_renew() {
        let (net, source, sink, subscriber) = setup(WseVersion::Aug2004);
        let h = subscriber
            .subscribe(
                source.uri(),
                SubscribeRequest::push(sink.epr()).with_expires(Expires::Duration(1_000)),
            )
            .unwrap();
        net.clock().advance_ms(500);
        source.publish(&Element::local("e1"));
        assert_eq!(sink.received().len(), 1);
        // Renew for another second.
        subscriber
            .renew(&h, Some(Expires::Duration(1_000)))
            .unwrap();
        net.clock().advance_ms(800);
        source.publish(&Element::local("e2"));
        assert_eq!(sink.received().len(), 2, "renewed subscription still live");
        net.clock().advance_ms(300);
        source.publish(&Element::local("e3"));
        assert_eq!(sink.received().len(), 2, "expired subscription dropped");
        assert_eq!(source.subscription_count(), 0);
    }

    #[test]
    fn renew_with_an_unparseable_expires_faults_and_keeps_the_lease() {
        for v in [WseVersion::Jan2004, WseVersion::Aug2004] {
            let (net, source, sink, subscriber) = setup(v);
            let h = subscriber
                .subscribe(
                    source.uri(),
                    SubscribeRequest::push(sink.epr()).with_expires(Expires::Duration(1_000)),
                )
                .unwrap();
            let mut renew = WseCodec::new(v).renew(&h, None);
            renew
                .body_first_mut()
                .unwrap()
                .push(Element::ns(v.ns(), "Expires", "wse").with_text("whenever"));
            match net.request(&h.manager.address, renew) {
                Err(TransportError::Fault(f)) => {
                    assert_eq!(f.subcode.as_deref(), Some("wse:InvalidExpirationTime"))
                }
                other => panic!("{v:?}: {other:?}"),
            }
            net.clock().advance_ms(2_000);
            source.publish(&Element::local("late"));
            assert!(sink.received().is_empty(), "{v:?}: the lease still ran out");
        }
    }

    #[test]
    fn get_status_only_in_aug() {
        let (_net, source, sink, subscriber) = setup(WseVersion::Aug2004);
        let h = subscriber
            .subscribe(
                source.uri(),
                SubscribeRequest::push(sink.epr()).with_expires(Expires::Duration(60_000)),
            )
            .unwrap();
        let status = subscriber.get_status(&h).unwrap();
        assert_eq!(status, Some(Expires::At(60_000)));

        let (_net, source, sink, subscriber) = setup(WseVersion::Jan2004);
        let h = subscriber
            .subscribe(source.uri(), SubscribeRequest::push(sink.epr()))
            .unwrap();
        assert!(
            subscriber.get_status(&h).is_err(),
            "01/2004 has no GetStatus"
        );
    }

    #[test]
    fn delivery_failure_sends_subscription_end() {
        let (net, source, _sink, subscriber) = setup(WseVersion::Aug2004);
        // Sink that exists, plus an end-sink that records SubscriptionEnd.
        let end_sink = EventSink::start(&net, "http://end", WseVersion::Aug2004);
        let dead = EndpointReference::new("http://dead");
        subscriber
            .subscribe(
                source.uri(),
                SubscribeRequest::push(dead).with_end_to(end_sink.epr()),
            )
            .unwrap();
        let stats = source.publish(&Element::local("e"));
        assert_eq!(stats.failed, 1);
        assert_eq!(
            source.subscription_count(),
            0,
            "failed subscription removed"
        );
        let ends = end_sink.ends();
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].0, EndStatus::DeliveryFailure);
    }

    #[test]
    fn no_end_to_no_subscription_end() {
        let (net, source, _sink, subscriber) = setup(WseVersion::Aug2004);
        subscriber
            .subscribe(
                source.uri(),
                SubscribeRequest::push(EndpointReference::new("http://dead")),
            )
            .unwrap();
        source.publish(&Element::local("e"));
        // No EndTo: the failed push is the only send to no endpoint.
        assert_eq!(
            net.metrics().counter("net_outcome_no_endpoint_total").get(),
            1
        );
    }

    #[test]
    fn shutdown_notifies_subscribers() {
        let (net, source, sink, subscriber) = setup(WseVersion::Aug2004);
        let end_sink = EventSink::start(&net, "http://end", WseVersion::Aug2004);
        subscriber
            .subscribe(
                source.uri(),
                SubscribeRequest::push(sink.epr()).with_end_to(end_sink.epr()),
            )
            .unwrap();
        source.shutdown();
        assert_eq!(end_sink.ends()[0].0, EndStatus::SourceShuttingDown);
        assert!(!net.has_endpoint("http://src"));
    }

    #[test]
    fn pull_delivery_for_firewalled_sink() {
        let (net, source, _s, subscriber) = setup(WseVersion::Aug2004);
        let fw_sink = EventSink::start_firewalled(&net, "http://fw-sink", WseVersion::Aug2004);
        let h = subscriber
            .subscribe(
                source.uri(),
                SubscribeRequest::push(fw_sink.epr()).with_mode(DeliveryMode::Pull),
            )
            .unwrap();
        source.publish(&Element::local("e1"));
        source.publish(&Element::local("e2"));
        assert!(
            fw_sink.received().is_empty(),
            "nothing pushed through the firewall"
        );
        let events = subscriber.pull(&h, 10).unwrap();
        assert_eq!(events.len(), 2);
        fw_sink.accept_events(events);
        assert_eq!(fw_sink.received().len(), 2);
        assert!(subscriber.pull(&h, 10).unwrap().is_empty(), "queue drained");
    }

    #[test]
    fn pull_rejected_in_jan2004() {
        let (_net, source, sink, subscriber) = setup(WseVersion::Jan2004);
        // Jan codec can't even express pull in Subscribe; drive the Aug codec
        // against the old source to simulate a version-mismatched client.
        let _ = sink;
        let aug_sub = Subscriber::new(&_net_of(&subscriber), WseVersion::Aug2004);
        let req = SubscribeRequest::push(EndpointReference::new("http://sink"))
            .with_mode(DeliveryMode::Pull);
        assert!(aug_sub.subscribe(source.uri(), req).is_err());
    }

    // Access the subscriber's network for the cross-version test above.
    fn _net_of(s: &Subscriber) -> Network {
        s.net.clone()
    }

    #[test]
    fn wrapped_delivery_batches() {
        let (_net, source, sink, subscriber) = setup(WseVersion::Aug2004);
        subscriber
            .subscribe(
                source.uri(),
                SubscribeRequest::push(sink.epr()).with_mode(DeliveryMode::Wrapped),
            )
            .unwrap();
        source.publish(&Element::local("a"));
        source.publish(&Element::local("b"));
        source.publish(&Element::local("c"));
        assert!(sink.received().is_empty(), "buffered until flush");
        assert_eq!(source.flush_wrapped(), 1, "one batch");
        assert_eq!(sink.received().len(), 3, "all three events in the batch");
    }

    #[test]
    fn cancel_sends_source_cancelling() {
        let (net, source, sink, subscriber) = setup(WseVersion::Aug2004);
        let end_sink = EventSink::start(&net, "http://end", WseVersion::Aug2004);
        let h = subscriber
            .subscribe(
                source.uri(),
                SubscribeRequest::push(sink.epr()).with_end_to(end_sink.epr()),
            )
            .unwrap();
        assert!(source.cancel(&h.id, "admin request"));
        assert!(!source.cancel(&h.id, "again"));
        assert_eq!(end_sink.ends()[0].0, EndStatus::SourceCancelling);
    }

    #[test]
    fn unknown_subscription_faults() {
        let (_net, source, _sink, subscriber) = setup(WseVersion::Aug2004);
        let bogus = SubscriptionHandle {
            manager: EndpointReference::new(source.manager_uri()).with_reference(
                WseVersion::Aug2004.wsa(),
                Element::ns(WseVersion::Aug2004.ns(), "Identifier", "wse").with_text("sub-999"),
            ),
            id: "sub-999".into(),
            expires: None,
            version: WseVersion::Aug2004,
        };
        assert!(matches!(
            subscriber.renew(&bogus, None),
            Err(TransportError::Fault(_))
        ));
        assert!(matches!(
            subscriber.unsubscribe(&bogus),
            Err(TransportError::Fault(_))
        ));
    }
}
