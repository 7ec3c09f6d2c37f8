//! The subscription registry shared by event source and subscription
//! manager.

use crate::model::{DeliveryMode, Filter};
use crate::XPATH_DIALECT;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_xml::Element;
use wsm_xpath::CompiledFilter as CompiledXPath;

/// A filter compiled at `Subscribe` time (brokers evaluate it per
/// published event).
///
/// The XPath program is lowered once here and shared behind an `Arc`;
/// cloning the subscription (the store hands out snapshots) bumps a
/// refcount instead of re-parsing the expression.
#[derive(Debug, Clone)]
pub struct CompiledFilter {
    /// The declared filter.
    pub filter: Filter,
    xpath: Option<Arc<CompiledXPath>>,
}

impl CompiledFilter {
    /// Compile a filter; `None` result means the dialect is
    /// unsupported (callers turn that into a `FilteringNotSupported`
    /// fault, the spec's named fault for this).
    pub fn compile(filter: Filter) -> Option<Self> {
        if filter.dialect == XPATH_DIALECT {
            let xpath = CompiledXPath::compile(&filter.expression).ok()?;
            Some(CompiledFilter {
                filter,
                xpath: Some(Arc::new(xpath)),
            })
        } else {
            None
        }
    }

    /// Does this filter pass the event?
    pub fn matches(&self, event: &Element) -> bool {
        match &self.xpath {
            Some(x) => x.matches(event),
            None => true,
        }
    }
}

/// One live subscription.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Identifier (minted by the store).
    pub id: String,
    /// Where notifications go.
    pub notify_to: EndpointReference,
    /// Where `SubscriptionEnd` goes, if requested.
    pub end_to: Option<EndpointReference>,
    /// Delivery mode.
    pub mode: DeliveryMode,
    /// Absolute expiry on the virtual clock; `None` = indefinite.
    pub expires_at_ms: Option<u64>,
    /// Compiled filter, if any.
    pub filter: Option<CompiledFilter>,
    /// Queued events (pull mode).
    pub queue: VecDeque<Element>,
    /// Buffered events awaiting a wrapped flush.
    pub wrap_buffer: Vec<Element>,
}

impl Subscription {
    /// Is the subscription expired at `now`?
    pub fn expired(&self, now_ms: u64) -> bool {
        self.expires_at_ms.is_some_and(|t| t <= now_ms)
    }

    /// Does the subscription's filter accept the event?
    pub fn accepts(&self, event: &Element) -> bool {
        self.filter
            .as_ref()
            .map(|f| f.matches(event))
            .unwrap_or(true)
    }
}

/// What a publication needs of a subscription it delivers to: where
/// the event goes, how, and who hears if the delivery fails. Unlike a
/// [`Subscription`] snapshot it carries no filter and none of the
/// events the subscription buffers, so a publish costs the same however
/// many events are already queued or wrapped.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Subscription identifier.
    pub id: String,
    /// Where notifications go.
    pub notify_to: EndpointReference,
    /// Where `SubscriptionEnd` goes, if requested.
    pub end_to: Option<EndpointReference>,
    /// Delivery mode.
    pub mode: DeliveryMode,
}

/// Thread-safe registry of subscriptions.
#[derive(Clone, Default)]
pub struct SubscriptionStore {
    inner: Arc<Mutex<StoreInner>>,
}

#[derive(Default)]
struct StoreInner {
    subs: HashMap<String, Subscription>,
    next_id: u64,
}

impl SubscriptionStore {
    /// An empty store.
    pub fn new() -> Self {
        SubscriptionStore::default()
    }

    /// Mint an id and insert a subscription built by `build`.
    pub fn insert(
        &self,
        notify_to: EndpointReference,
        end_to: Option<EndpointReference>,
        mode: DeliveryMode,
        expires_at_ms: Option<u64>,
        filter: Option<CompiledFilter>,
    ) -> String {
        let mut inner = self.inner.lock();
        inner.next_id += 1;
        let id = format!("sub-{}", inner.next_id);
        inner.subs.insert(
            id.clone(),
            Subscription {
                id: id.clone(),
                notify_to,
                end_to,
                mode,
                expires_at_ms,
                filter,
                queue: VecDeque::new(),
                wrap_buffer: Vec::new(),
            },
        );
        id
    }

    /// Snapshot one subscription.
    pub fn get(&self, id: &str) -> Option<Subscription> {
        self.inner.lock().subs.get(id).cloned()
    }

    /// Update the expiry of a subscription. Returns false if unknown.
    pub fn set_expiry(&self, id: &str, expires_at_ms: Option<u64>) -> bool {
        let mut inner = self.inner.lock();
        match inner.subs.get_mut(id) {
            Some(s) => {
                s.expires_at_ms = expires_at_ms;
                true
            }
            None => false,
        }
    }

    /// Remove a subscription, returning it.
    pub fn remove(&self, id: &str) -> Option<Subscription> {
        self.inner.lock().subs.remove(id)
    }

    /// Remove all expired subscriptions, returning them.
    pub fn sweep_expired(&self, now_ms: u64) -> Vec<Subscription> {
        let mut inner = self.inner.lock();
        let ids: Vec<String> = inner
            .subs
            .values()
            .filter(|s| s.expired(now_ms))
            .map(|s| s.id.clone())
            .collect();
        ids.iter().filter_map(|id| inner.subs.remove(id)).collect()
    }

    /// Remove everything (source shutdown), returning the subscriptions.
    pub fn drain_all(&self) -> Vec<Subscription> {
        let mut inner = self.inner.lock();
        inner.subs.drain().map(|(_, s)| s).collect()
    }

    /// The delivery facts of every live subscription that accepts
    /// `event` at `now`.
    pub fn matching(&self, event: &Element, now_ms: u64) -> Vec<Delivery> {
        self.inner
            .lock()
            .subs
            .values()
            .filter(|s| !s.expired(now_ms) && s.accepts(event))
            .map(|s| Delivery {
                id: s.id.clone(),
                notify_to: s.notify_to.clone(),
                end_to: s.end_to.clone(),
                mode: s.mode,
            })
            .collect()
    }

    /// Queue an event on a pull subscription.
    pub fn queue_event(&self, id: &str, event: Element) -> bool {
        let mut inner = self.inner.lock();
        match inner.subs.get_mut(id) {
            Some(s) => {
                s.queue.push_back(event);
                true
            }
            None => false,
        }
    }

    /// Drain up to `max` queued events from a pull subscription.
    pub fn drain_queue(&self, id: &str, max: usize) -> Vec<Element> {
        let mut inner = self.inner.lock();
        match inner.subs.get_mut(id) {
            Some(s) => {
                let n = max.min(s.queue.len());
                s.queue.drain(..n).collect()
            }
            None => Vec::new(),
        }
    }

    /// Buffer an event for wrapped delivery.
    pub fn buffer_wrapped(&self, id: &str, event: Element) -> bool {
        let mut inner = self.inner.lock();
        match inner.subs.get_mut(id) {
            Some(s) => {
                s.wrap_buffer.push(event);
                true
            }
            None => false,
        }
    }

    /// Take the wrapped buffer of every subscription (id, buffer).
    pub fn take_wrap_buffers(&self) -> Vec<(String, Vec<Element>)> {
        let mut inner = self.inner.lock();
        inner
            .subs
            .values_mut()
            .filter(|s| !s.wrap_buffer.is_empty())
            .map(|s| (s.id.clone(), std::mem::take(&mut s.wrap_buffer)))
            .collect()
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.inner.lock().subs.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epr() -> EndpointReference {
        EndpointReference::new("http://sink")
    }

    #[test]
    fn insert_mints_unique_ids() {
        let store = SubscriptionStore::new();
        let a = store.insert(epr(), None, DeliveryMode::Push, None, None);
        let b = store.insert(epr(), None, DeliveryMode::Push, None, None);
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn expiry_and_sweep() {
        let store = SubscriptionStore::new();
        let a = store.insert(epr(), None, DeliveryMode::Push, Some(100), None);
        let _b = store.insert(epr(), None, DeliveryMode::Push, None, None);
        assert!(store.get(&a).unwrap().expired(100));
        assert!(!store.get(&a).unwrap().expired(99));
        let swept = store.sweep_expired(150);
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].id, a);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn renewal_extends() {
        let store = SubscriptionStore::new();
        let a = store.insert(epr(), None, DeliveryMode::Push, Some(100), None);
        assert!(store.set_expiry(&a, Some(500)));
        assert!(store.sweep_expired(150).is_empty());
        assert!(!store.set_expiry("nope", None));
    }

    #[test]
    fn filter_matching() {
        let store = SubscriptionStore::new();
        let f = CompiledFilter::compile(Filter::xpath("/e[@sev > 3]")).unwrap();
        store.insert(epr(), None, DeliveryMode::Push, None, Some(f));
        store.insert(epr(), None, DeliveryMode::Push, None, None);
        let hot = Element::local("e").with_attr("sev", "5");
        let cold = Element::local("e").with_attr("sev", "1");
        assert_eq!(store.matching(&hot, 0).len(), 2);
        assert_eq!(store.matching(&cold, 0).len(), 1, "filtered sub rejects");
    }

    #[test]
    fn unsupported_dialect_does_not_compile() {
        assert!(CompiledFilter::compile(Filter {
            dialect: "urn:other-dialect".into(),
            expression: "x".into()
        })
        .is_none());
        assert!(
            CompiledFilter::compile(Filter::xpath("][")).is_none(),
            "bad xpath"
        );
    }

    #[test]
    fn pull_queue() {
        let store = SubscriptionStore::new();
        let a = store.insert(epr(), None, DeliveryMode::Pull, None, None);
        for i in 0..5 {
            assert!(store.queue_event(&a, Element::local(format!("e{i}"))));
        }
        let got = store.drain_queue(&a, 3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].name.local, "e0");
        assert_eq!(store.drain_queue(&a, 10).len(), 2);
        assert!(store.drain_queue("zzz", 1).is_empty());
    }

    #[test]
    fn wrapped_buffers() {
        let store = SubscriptionStore::new();
        let a = store.insert(epr(), None, DeliveryMode::Wrapped, None, None);
        store.buffer_wrapped(&a, Element::local("x"));
        store.buffer_wrapped(&a, Element::local("y"));
        let taken = store.take_wrap_buffers();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].1.len(), 2);
        assert!(store.take_wrap_buffers().is_empty(), "buffers are drained");
    }

    #[test]
    fn drain_all() {
        let store = SubscriptionStore::new();
        store.insert(epr(), None, DeliveryMode::Push, None, None);
        store.insert(epr(), None, DeliveryMode::Push, None, None);
        assert_eq!(store.drain_all().len(), 2);
        assert!(store.is_empty());
    }
}
