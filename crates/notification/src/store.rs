//! The WS-Notification subscription registry.

use crate::model::{WsnFilter, WsnSubscribeRequest};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_topics::{TopicExpression, TopicPath};
use wsm_xml::Element;
use wsm_xpath::CompiledFilter;

/// Filters compiled once at `Subscribe` time.
///
/// XPath filters are lowered to shared [`CompiledFilter`] programs —
/// cloning a subscription bumps refcounts, and every evaluation reuses
/// the compiled form.
#[derive(Debug, Clone, Default)]
pub struct CompiledFilters {
    /// Topic expressions (any match admits the message).
    pub topics: Vec<TopicExpression>,
    /// Producer-properties predicates (evaluated over the producer's
    /// property document).
    pub producer_props: Vec<Arc<CompiledFilter>>,
    /// Message-content predicates (evaluated over the payload).
    pub content: Vec<Arc<CompiledFilter>>,
}

impl CompiledFilters {
    /// Compile the filters of a subscribe request. Returns `Err` with
    /// the offending expression when a filter does not compile.
    pub fn compile(req: &WsnSubscribeRequest) -> Result<Self, String> {
        let mut out = CompiledFilters::default();
        for f in &req.filters {
            match f {
                WsnFilter::Topic(t) => out.topics.push(t.clone()),
                WsnFilter::ProducerProperties(x) => out.producer_props.push(Arc::new(
                    CompiledFilter::compile(x)
                        .map_err(|e| format!("ProducerProperties `{x}`: {e}"))?,
                )),
                WsnFilter::MessageContent {
                    dialect,
                    expression,
                } => {
                    if dialect != crate::XPATH_DIALECT {
                        return Err(format!("unsupported MessageContent dialect `{dialect}`"));
                    }
                    out.content.push(Arc::new(
                        CompiledFilter::compile(expression)
                            .map_err(|e| format!("MessageContent `{expression}`: {e}"))?,
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Do all filter kinds pass? (Per the spec, *each supplied filter*
    /// must admit the message; multiple expressions of one kind are
    /// OR-ed within the kind here, matching broker practice.)
    pub fn admit(
        &self,
        topic: Option<&TopicPath>,
        payload: &Element,
        producer_properties: Option<&Element>,
    ) -> bool {
        if !self.topics.is_empty() {
            match topic {
                Some(t) => {
                    if !self.topics.iter().any(|e| e.matches(t)) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        if !self.content.is_empty() && !self.content.iter().any(|x| x.matches(payload)) {
            return false;
        }
        if !self.producer_props.is_empty() {
            match producer_properties {
                Some(doc) => {
                    if !self.producer_props.iter().any(|x| x.matches(doc)) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }
}

/// One live WS-Notification subscription.
#[derive(Debug, Clone)]
pub struct WsnSubscription {
    /// Identifier minted by the store.
    pub id: String,
    /// Where notifications go.
    pub consumer: EndpointReference,
    /// Compiled filters.
    pub filters: CompiledFilters,
    /// Absolute termination time (virtual clock), `None` = indefinite.
    pub termination_ms: Option<u64>,
    /// Paused subscriptions receive nothing until resumed.
    pub paused: bool,
    /// Deliver raw payloads instead of wrapped `Notify` messages.
    pub use_raw: bool,
}

impl WsnSubscription {
    /// Is the subscription past its termination time?
    pub fn expired(&self, now_ms: u64) -> bool {
        self.termination_ms.is_some_and(|t| t <= now_ms)
    }
}

/// Thread-safe registry of WS-Notification subscriptions.
#[derive(Clone, Default)]
pub struct WsnSubscriptionStore {
    inner: Arc<Mutex<StoreInner>>,
}

#[derive(Default)]
struct StoreInner {
    subs: HashMap<String, WsnSubscription>,
    next_id: u64,
}

impl WsnSubscriptionStore {
    /// An empty store.
    pub fn new() -> Self {
        WsnSubscriptionStore::default()
    }

    /// Insert a subscription, minting an id.
    pub fn insert(
        &self,
        consumer: EndpointReference,
        filters: CompiledFilters,
        termination_ms: Option<u64>,
        use_raw: bool,
    ) -> String {
        let mut inner = self.inner.lock();
        inner.next_id += 1;
        let id = format!("wsn-sub-{}", inner.next_id);
        inner.subs.insert(
            id.clone(),
            WsnSubscription {
                id: id.clone(),
                consumer,
                filters,
                termination_ms,
                paused: false,
                use_raw,
            },
        );
        id
    }

    /// Snapshot one subscription.
    pub fn get(&self, id: &str) -> Option<WsnSubscription> {
        self.inner.lock().subs.get(id).cloned()
    }

    /// Set the termination time. Returns false when unknown.
    pub fn set_termination(&self, id: &str, termination_ms: Option<u64>) -> bool {
        match self.inner.lock().subs.get_mut(id) {
            Some(s) => {
                s.termination_ms = termination_ms;
                true
            }
            None => false,
        }
    }

    /// Pause or resume. Returns false when unknown.
    pub fn set_paused(&self, id: &str, paused: bool) -> bool {
        match self.inner.lock().subs.get_mut(id) {
            Some(s) => {
                s.paused = paused;
                true
            }
            None => false,
        }
    }

    /// Remove a subscription.
    pub fn remove(&self, id: &str) -> Option<WsnSubscription> {
        self.inner.lock().subs.remove(id)
    }

    /// Remove expired subscriptions, returning them.
    pub fn sweep_expired(&self, now_ms: u64) -> Vec<WsnSubscription> {
        let mut inner = self.inner.lock();
        let ids: Vec<String> = inner
            .subs
            .values()
            .filter(|s| s.expired(now_ms))
            .map(|s| s.id.clone())
            .collect();
        ids.iter().filter_map(|id| inner.subs.remove(id)).collect()
    }

    /// Live, unpaused subscriptions admitting the message.
    pub fn matching(
        &self,
        topic: Option<&TopicPath>,
        payload: &Element,
        producer_properties: Option<&Element>,
        now_ms: u64,
    ) -> Vec<WsnSubscription> {
        self.inner
            .lock()
            .subs
            .values()
            .filter(|s| {
                !s.paused
                    && !s.expired(now_ms)
                    && s.filters.admit(topic, payload, producer_properties)
            })
            .cloned()
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
    use crate::model::WsnFilter;

    fn epr() -> EndpointReference {
        EndpointReference::new("http://c")
    }

    fn compile(filters: Vec<WsnFilter>) -> CompiledFilters {
        CompiledFilters::compile(&WsnSubscribeRequest {
            consumer: epr(),
            filters,
            initial_termination: None,
            use_raw: false,
        })
        .unwrap()
    }

    #[test]
    fn topic_filtering() {
        let f = compile(vec![WsnFilter::topic("storms/*")]);
        let payload = Element::local("x");
        assert!(f.admit(TopicPath::parse("storms/hail").as_ref(), &payload, None));
        assert!(!f.admit(TopicPath::parse("traffic").as_ref(), &payload, None));
        assert!(!f.admit(None, &payload, None), "topic filter needs a topic");
    }

    #[test]
    fn content_filtering() {
        let f = compile(vec![WsnFilter::content("/e[@sev > 3]")]);
        assert!(f.admit(None, &Element::local("e").with_attr("sev", "5"), None));
        assert!(!f.admit(None, &Element::local("e").with_attr("sev", "2"), None));
    }

    #[test]
    fn producer_properties_filtering() {
        let f = compile(vec![WsnFilter::ProducerProperties(
            "/props/site = 'bloomington'".into(),
        )]);
        let props =
            Element::local("props").with_child(Element::local("site").with_text("bloomington"));
        assert!(f.admit(None, &Element::local("x"), Some(&props)));
        let other =
            Element::local("props").with_child(Element::local("site").with_text("elsewhere"));
        assert!(!f.admit(None, &Element::local("x"), Some(&other)));
        assert!(!f.admit(None, &Element::local("x"), None));
    }

    #[test]
    fn all_filter_kinds_must_pass() {
        let f = compile(vec![
            WsnFilter::topic("storms"),
            WsnFilter::content("/e[@sev > 3]"),
        ]);
        let hot = Element::local("e").with_attr("sev", "9");
        assert!(f.admit(TopicPath::parse("storms").as_ref(), &hot, None));
        assert!(!f.admit(TopicPath::parse("traffic").as_ref(), &hot, None));
        let cold = Element::local("e").with_attr("sev", "1");
        assert!(!f.admit(TopicPath::parse("storms").as_ref(), &cold, None));
    }

    #[test]
    fn bad_filters_fail_compilation() {
        let req = WsnSubscribeRequest::new(epr()).with_filter(WsnFilter::MessageContent {
            dialect: "urn:unknown".into(),
            expression: "x".into(),
        });
        assert!(CompiledFilters::compile(&req).is_err());
        let req = WsnSubscribeRequest::new(epr()).with_filter(WsnFilter::content("]["));
        assert!(CompiledFilters::compile(&req).is_err());
    }

    #[test]
    fn store_lifecycle() {
        let store = WsnSubscriptionStore::new();
        let id = store.insert(epr(), CompiledFilters::default(), Some(100), false);
        assert_eq!(store.len(), 1);
        assert!(store.get(&id).is_some());
        assert!(store.set_termination(&id, Some(500)));
        assert!(store.sweep_expired(200).is_empty());
        assert_eq!(store.sweep_expired(500).len(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn paused_subscriptions_do_not_match() {
        let store = WsnSubscriptionStore::new();
        let id = store.insert(epr(), CompiledFilters::default(), None, false);
        let payload = Element::local("x");
        assert_eq!(store.matching(None, &payload, None, 0).len(), 1);
        store.set_paused(&id, true);
        assert_eq!(store.matching(None, &payload, None, 0).len(), 0);
        store.set_paused(&id, false);
        assert_eq!(store.matching(None, &payload, None, 0).len(), 1);
        assert!(!store.set_paused("zzz", true));
    }
}
