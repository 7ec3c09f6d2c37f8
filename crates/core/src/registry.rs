//! The broker's unified subscription registry and match index.
//!
//! The registry holds match state only: each subscription's immutable
//! facts, its pause flag and lease, the shared filter programs and the
//! index over them. Events waiting for a subscriber live in the
//! broker's outboxes (`crate::outbox`), not here.
//!
//! Each subscription remembers which dialect created it ("the
//! specification type of a target event consumer is determined by the
//! subscription request message type", §VII) plus a *unified* compiled
//! filter set covering both specs' filter models: WS-Eventing's single
//! XPath filter compiles into `content`; WS-Notification's three filter
//! kinds compile into `topics` / `content` / `producer_props`. Filters
//! are compiled once at `Subscribe` time ([`CompiledFilter`]) and the
//! `Arc` handle is cached on the subscription.
//!
//! # Shared programs
//!
//! Filters are shared by canonical form: [`Registry::insert`] swaps each
//! content and producer-properties filter for the registry's one copy
//! of its program — equal iff the lowered, folded programs are equal
//! (`CompiledFilter`'s `Eq`), so `/event[@sev>3]` and
//! `/event[ @sev > 3 ]` are one program. Each distinct program holds a
//! dense slot and a reference count; removal, expiry and failure drops
//! release it, so the table never outlives the subscriptions using it.
//! Per publication, [`Registry::matching`] memoises one verdict per
//! slot and document (payload, producer properties): a program is run
//! at most once per publication however many candidates carry it.
//!
//! # The match index
//!
//! The seed evaluated every publication against every subscription, so
//! match cost grew linearly with registry size. The registry now
//! routes each subscription, at insert time, into one of three
//! structures chosen by what its filters can *prove*:
//!
//! * **topic trie** — every subscription with topic filters goes into a
//!   [`TopicTrie`] keyed by its expressions. A publication's topic
//!   walks the trie once and returns exactly the subscriptions whose
//!   topic filter matches; for those candidates the topic check is
//!   already proven and [`UnifiedFilters`] only evaluates the remaining
//!   content/producer-properties filters.
//! * **literal buckets** — a topicless subscription whose only filter
//!   is `path = 'literal'` (the S-ToPSS-style equality predicate) is
//!   grouped by the path's canonical signature and bucketed by
//!   literal. Per publication, each group evaluates its path *once*;
//!   the selected string-values look up buckets directly, so ten
//!   thousand `source = '...'` subscriptions cost one path evaluation
//!   plus a hash probe per value — and a bucket hit is a full proof,
//!   no filter re-runs at all.
//! * **broadcast** — everything the index cannot reason about
//!   (topicless subscriptions with complex content filters, or none).
//!   These still run the full check, now prefiltered by the
//!   required-name bitset and over a shared [`EvalDoc`] built once per
//!   publication (the producer-properties document only when a
//!   candidate first needs it), through the verdict memo.
//!
//! Match cost therefore scales with *matching* subscriptions (plus the
//! broadcast residue), not with registry size.

use crate::detect::SpecDialect;
use crate::event::InternalEvent;
use parking_lot::Mutex;
use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_topics::{TopicExpression, TopicPath, TopicTrie};
use wsm_xml::Element;
use wsm_xpath::{CompiledFilter, EvalDoc};

/// Unified compiled filters.
#[derive(Debug, Clone, Default)]
pub struct UnifiedFilters {
    /// Topic expressions (WSN). Any match admits; an event *without* a
    /// topic fails a topic filter.
    pub topics: Vec<TopicExpression>,
    /// Content predicates (WSE default filter, WSN MessageContent),
    /// compiled once. Once registered, these are the [`Registry`]'s
    /// shared programs: every subscription whose filter has the same
    /// canonical (lowered, folded) form holds the same `Arc`, whatever
    /// its source text.
    pub content: Vec<Arc<CompiledFilter>>,
    /// Producer-properties predicates (WSN only), shared the same way.
    pub producer_props: Vec<Arc<CompiledFilter>>,
}

/// Which document a filter is evaluated against.
#[derive(Clone, Copy)]
enum Doc {
    Payload = 0,
    Props = 1,
}

/// A filter's verdict on an indexed document, `false` without one.
fn run(f: &CompiledFilter, doc: Option<&EvalDoc>) -> bool {
    doc.is_some_and(|d| f.may_match(d) && f.matches_doc(d))
}

impl UnifiedFilters {
    /// Does the event pass every supplied filter kind?
    ///
    /// Checks run cheapest-first — the topic comparison (segment
    /// equality) before any XPath evaluation — and each XPath filter is
    /// prefiltered by its required-name bitset before being run.
    pub fn admit(&self, event: &InternalEvent, producer_properties: Option<&Element>) -> bool {
        let payload = EvalDoc::new(event.payload_element());
        let props = producer_properties.map(EvalDoc::new);
        self.admit_by(event.topic.as_ref(), false, |doc, _, f| match doc {
            Doc::Payload => run(f, Some(&payload)),
            Doc::Props => run(f, props.as_ref()),
        })
    }

    /// The admission rule, optionally skipping the topic check when an
    /// index has already proven it. `decide(doc, n, filter)` gives one
    /// XPath filter's verdict; `n` counts the content filters, then the
    /// producer-properties ones (a registered subscription's slot
    /// order). A missing producer-properties document decides `false`.
    fn admit_by(
        &self,
        topic: Option<&TopicPath>,
        topic_proven: bool,
        mut decide: impl FnMut(Doc, usize, &CompiledFilter) -> bool,
    ) -> bool {
        if !topic_proven && !self.topics.is_empty() {
            match topic {
                Some(t) => {
                    if !self.topics.iter().any(|e| e.matches(t)) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        let content = self.content.len();
        if content > 0
            && !self
                .content
                .iter()
                .enumerate()
                .any(|(n, f)| decide(Doc::Payload, n, f))
        {
            return false;
        }
        self.producer_props.is_empty()
            || self
                .producer_props
                .iter()
                .enumerate()
                .any(|(n, f)| decide(Doc::Props, content + n, f))
    }
}

/// How the consumer wants messages delivered: WS-Eventing's three
/// delivery modes, which a WS-Notification subscription (always push)
/// shares.
pub type BrokerDeliveryMode = wsm_eventing::DeliveryMode;

/// One live broker subscription: the immutable facts fixed at
/// `Subscribe` time.
///
/// Mutable per-subscription state (pause flag, expiry) lives inside the
/// registry, so matching hands out `Arc<BrokerSubscription>` clones — a
/// refcount bump per match instead of a deep copy of filters and
/// endpoint references.
#[derive(Debug, Clone)]
pub struct BrokerSubscription {
    /// Identifier minted by the registry. Shared by reference with
    /// everything that names the subscription per delivery — push
    /// jobs, resolve marks, trace spans — so none of them copies it.
    pub id: Arc<str>,
    /// The dialect the subscription was created in — and therefore the
    /// dialect its notifications are rendered in.
    pub spec: SpecDialect,
    /// Where notifications go.
    pub consumer: EndpointReference,
    /// Where WSE `SubscriptionEnd` notices go (WSE only).
    pub end_to: Option<EndpointReference>,
    /// Unified filters.
    pub filters: UnifiedFilters,
    /// Delivery mode.
    pub mode: BrokerDeliveryMode,
    /// WSN raw-payload delivery (`UseRaw`).
    pub use_raw: bool,
}

/// Mutable status of a subscription (see [`Registry::status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionStatus {
    /// Paused (WSN pause/resume).
    pub paused: bool,
    /// Absolute expiry on the virtual clock.
    pub expires_at_ms: Option<u64>,
}

/// Registry entry: the shared immutable core plus mutable state.
struct SubEntry {
    core: Arc<BrokerSubscription>,
    /// Program-table slot of each XPath filter: content, then
    /// producer properties.
    slots: Box<[u32]>,
    paused: bool,
    expires_at_ms: Option<u64>,
}

impl SubEntry {
    fn expired(&self, now_ms: u64) -> bool {
        self.expires_at_ms.is_some_and(|t| t <= now_ms)
    }

    fn live(&self, now_ms: u64) -> bool {
        !self.paused && !self.expired(now_ms)
    }
}

/// Thread-safe registry with a match index (see the module docs).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

#[derive(Default)]
struct RegistryInner {
    /// Entries keyed by the numeric part of the minted id
    /// ([`minted_id`]); an id is turned back into its key by parsing
    /// it ([`key_of`]).
    by_key: HashMap<u64, SubEntry>,
    next_id: u64,
    index: MatchIndex,
    programs: Programs,
    /// `(expires_at_ms, key)` min-heap arming the expiry sweep. Lazy:
    /// renewals leave the old deadline in place and push a new one;
    /// the sweep re-checks the entry's real deadline at pop time. This
    /// is what keeps the per-publication sweep O(due) instead of
    /// O(registry) — at a million registrations a full-scan sweep cost
    /// more than the match itself.
    expiry: BinaryHeap<Reverse<(u64, u64)>>,
}

/// Every distinct filter program of the live subscriptions, held once
/// (module docs, "Shared programs"), plus the per-publication verdict
/// memo indexed by slot.
#[derive(Default)]
struct Programs {
    /// Program → slot, keyed by program identity (`CompiledFilter`'s
    /// `Eq`/`Hash`), so whitespace variants find one entry.
    slot_of: HashMap<Arc<CompiledFilter>, u32>,
    /// References per slot; 0 marks a free slot.
    refs: Vec<u32>,
    /// Free slots, reused before the table grows.
    free: Vec<u32>,
    /// Two verdict stamps per slot, one per [`Doc`]: `epoch << 1 |
    /// verdict`. A stamp of an earlier publication is stale, so
    /// starting a publication is one increment rather than a clear.
    memo: Vec<u32>,
    epoch: u32,
}

impl Programs {
    /// The table's copy of `f` and its slot, taking one reference.
    fn acquire(&mut self, f: &Arc<CompiledFilter>) -> (Arc<CompiledFilter>, u32) {
        if let Some((shared, &slot)) = self.slot_of.get_key_value(f) {
            self.refs[slot as usize] += 1;
            return (shared.clone(), slot);
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.refs.push(0);
            self.memo.extend([0, 0]);
            u32::try_from(self.refs.len() - 1).expect("fewer than 2^32 distinct programs")
        });
        self.refs[slot as usize] = 1;
        self.slot_of.insert(f.clone(), slot);
        (f.clone(), slot)
    }

    /// Drop one reference to `f`'s slot; the last one frees it.
    fn release(&mut self, f: &CompiledFilter, slot: u32) {
        let refs = &mut self.refs[slot as usize];
        *refs -= 1;
        if *refs == 0 {
            self.slot_of.remove(f);
            self.free.push(slot);
        }
    }

    /// Start a publication: every memoised verdict goes stale.
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX >> 1 {
            self.memo.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// The verdict of `slot`'s program on `doc` for this publication,
    /// running `eval` only the first time it is asked.
    fn verdict(&mut self, slot: u32, doc: Doc, eval: impl FnOnce() -> bool) -> bool {
        let cell = &mut self.memo[slot as usize * 2 + doc as usize];
        if *cell >> 1 == self.epoch {
            return *cell & 1 == 1;
        }
        let verdict = eval();
        *cell = self.epoch << 1 | verdict as u32;
        verdict
    }
}

/// Subscriptions bucketed by filters sharing one `path = 'literal'`
/// signature. `rep` is any member's compiled filter; equal signatures
/// select the same nodes, so one evaluation of `rep`'s path serves the
/// whole group.
struct LiteralGroup {
    rep: Arc<CompiledFilter>,
    buckets: HashMap<String, Vec<u64>>,
}

#[derive(Default)]
struct MatchIndex {
    trie: TopicTrie,
    /// `BTreeMap` (not `HashMap`): the match path iterates groups, and
    /// the chaos suite diffs delivery traces across two processes, so
    /// iteration order must not depend on per-process hasher seeds.
    literal_groups: BTreeMap<String, LiteralGroup>,
    /// Keys the index cannot reason about; always fully checked.
    broadcast: Vec<u64>,
}

/// Where a subscription lives in the match index.
enum Placement {
    Trie,
    Literal { signature: String, value: String },
    Broadcast,
}

fn placement(filters: &UnifiedFilters) -> Placement {
    if !filters.topics.is_empty() {
        return Placement::Trie;
    }
    if filters.producer_props.is_empty() && filters.content.len() == 1 {
        if let Some((sig, val)) = filters.content[0].literal_eq() {
            return Placement::Literal {
                signature: sig.to_string(),
                value: val.to_string(),
            };
        }
    }
    Placement::Broadcast
}

impl RegistryInner {
    fn link(&mut self, key: u64, sub: &BrokerSubscription) {
        match placement(&sub.filters) {
            Placement::Trie => {
                for expr in &sub.filters.topics {
                    self.index.trie.insert(expr, key);
                }
            }
            Placement::Literal { signature, value } => {
                let group = self
                    .index
                    .literal_groups
                    .entry(signature)
                    .or_insert_with(|| LiteralGroup {
                        rep: sub.filters.content[0].clone(),
                        buckets: HashMap::new(),
                    });
                group.buckets.entry(value).or_default().push(key);
            }
            Placement::Broadcast => self.index.broadcast.push(key),
        }
    }

    fn unlink(&mut self, key: u64, sub: &BrokerSubscription) {
        match placement(&sub.filters) {
            Placement::Trie => {
                for expr in &sub.filters.topics {
                    self.index.trie.remove(expr, key);
                }
            }
            Placement::Literal { signature, value } => {
                if let Some(group) = self.index.literal_groups.get_mut(&signature) {
                    if let Some(bucket) = group.buckets.get_mut(&value) {
                        bucket.retain(|&k| k != key);
                        if bucket.is_empty() {
                            group.buckets.remove(&value);
                        }
                    }
                    if group.buckets.is_empty() {
                        self.index.literal_groups.remove(&signature);
                    }
                }
            }
            Placement::Broadcast => self.index.broadcast.retain(|&k| k != key),
        }
    }

    fn remove_entry(&mut self, id: &str) -> Option<SubEntry> {
        let key = key_of(id)?;
        let entry = self.by_key.remove(&key)?;
        self.unlink(key, &entry.core);
        let filters = &entry.core.filters;
        let programs = filters.content.iter().chain(&filters.producer_props);
        for (f, &slot) in programs.zip(entry.slots.iter()) {
            self.programs.release(f, slot);
        }
        Some(entry)
    }
}

/// The id a registry mints for `key`.
pub(crate) fn minted_id(key: u64) -> String {
    format!("wsm-{key}")
}

/// The key of an id spelled as [`minted_id`] spells it.
fn key_of(id: &str) -> Option<u64> {
    minted_number(id, "wsm-")
}

/// The `n` of an id `{prefix}{n}` spelled as it was minted: digits
/// only, no sign and no leading zero, so no other spelling names the
/// same entry.
pub(crate) fn minted_number(id: &str, prefix: &str) -> Option<u64> {
    let digits = id.strip_prefix(prefix)?;
    let canonical = !digits.is_empty()
        && !digits.starts_with('0')
        && digits.bytes().all(|b| b.is_ascii_digit());
    canonical.then(|| digits.parse().ok()).flatten()
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Insert a subscription (id is minted here). Its XPath filters are
    /// swapped for the registry's shared programs (module docs).
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &self,
        spec: SpecDialect,
        consumer: EndpointReference,
        end_to: Option<EndpointReference>,
        filters: UnifiedFilters,
        mode: BrokerDeliveryMode,
        use_raw: bool,
        expires_at_ms: Option<u64>,
    ) -> String {
        self.insert_keyed(
            spec,
            consumer,
            end_to,
            filters,
            mode,
            use_raw,
            expires_at_ms,
        )
        .0
    }

    /// [`Registry::insert`], also returning the key the id was minted
    /// from (the id is `wsm-{key}`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_keyed(
        &self,
        spec: SpecDialect,
        consumer: EndpointReference,
        end_to: Option<EndpointReference>,
        mut filters: UnifiedFilters,
        mode: BrokerDeliveryMode,
        use_raw: bool,
        expires_at_ms: Option<u64>,
    ) -> (String, u64) {
        let mut inner = self.inner.lock();
        let slots = filters
            .content
            .iter_mut()
            .chain(&mut filters.producer_props)
            .map(|f| {
                let (shared, slot) = inner.programs.acquire(f);
                *f = shared;
                slot
            })
            .collect();
        inner.next_id += 1;
        let key = inner.next_id;
        let id = minted_id(key);
        let core = Arc::new(BrokerSubscription {
            id: Arc::from(id.as_str()),
            spec,
            consumer,
            end_to,
            filters,
            mode,
            use_raw,
        });
        inner.link(key, &core);
        if let Some(t) = expires_at_ms {
            inner.expiry.push(Reverse((t, key)));
        }
        inner.by_key.insert(
            key,
            SubEntry {
                core,
                slots,
                paused: false,
                expires_at_ms,
            },
        );
        (id, key)
    }

    fn with_entry<T>(&self, id: &str, f: impl FnOnce(&mut SubEntry) -> T) -> Option<T> {
        self.inner.lock().by_key.get_mut(&key_of(id)?).map(f)
    }

    /// The shared immutable core of one subscription.
    pub fn get(&self, id: &str) -> Option<Arc<BrokerSubscription>> {
        self.with_entry(id, |e| e.core.clone())
    }

    /// The mutable status of one subscription.
    pub fn status(&self, id: &str) -> Option<SubscriptionStatus> {
        self.with_entry(id, |e| SubscriptionStatus {
            paused: e.paused,
            expires_at_ms: e.expires_at_ms,
        })
    }

    /// Remove one subscription.
    pub fn remove(&self, id: &str) -> Option<Arc<BrokerSubscription>> {
        self.inner.lock().remove_entry(id).map(|e| e.core)
    }

    /// Update expiry. False when unknown.
    pub fn set_expiry(&self, id: &str, expires_at_ms: Option<u64>) -> bool {
        let inner = &mut *self.inner.lock();
        let Some(key) = key_of(id) else { return false };
        let Some(e) = inner.by_key.get_mut(&key) else {
            return false;
        };
        e.expires_at_ms = expires_at_ms;
        if let Some(t) = expires_at_ms {
            inner.expiry.push(Reverse((t, key)));
        }
        true
    }

    /// Pause / resume. False when unknown.
    pub fn set_paused(&self, id: &str, paused: bool) -> bool {
        self.with_entry(id, |e| e.paused = paused).is_some()
    }

    /// Remove expired subscriptions, returning them.
    pub fn sweep_expired(&self, now_ms: u64) -> Vec<Arc<BrokerSubscription>> {
        let mut inner = self.inner.lock();
        // Drain only heap deadlines that are due; a popped key whose
        // entry was renewed past `now_ms` re-arms at its live deadline
        // (the heap's entry for it was stale), and a key that was
        // unsubscribed is simply dropped.
        let mut ids: Vec<Arc<str>> = Vec::new();
        while let Some(&Reverse((t, key))) = inner.expiry.peek() {
            if t > now_ms {
                break;
            }
            inner.expiry.pop();
            let rearm = match inner.by_key.get(&key) {
                Some(e) if e.expired(now_ms) => {
                    ids.push(e.core.id.clone());
                    None
                }
                Some(e) => e.expires_at_ms.map(|live| (live, key)),
                None => None,
            };
            if let Some((live, key)) = rearm {
                // Only re-arm if no fresher deadline is already queued
                // — set_expiry pushed one when it renewed the entry —
                // so repeated sweeps cannot grow the heap unboundedly.
                if live > t {
                    inner.expiry.push(Reverse((live, key)));
                }
            }
        }
        // Deterministic sweep order for the chaos suite's trace diff.
        ids.sort();
        ids.iter()
            .filter_map(|id| inner.remove_entry(id).map(|e| e.core))
            .collect()
    }

    /// Live, unpaused subscriptions admitting `event`, in id order.
    ///
    /// Candidates come from the match index (module docs): trie hits
    /// arrive with their topic check proven and only re-run content /
    /// producer-properties filters; literal-bucket hits are full
    /// proofs and run nothing; broadcast entries run the whole check.
    /// Each distinct program runs at most once per document: later
    /// candidates carrying it read its memoised verdict. The index is
    /// sound — it only ever *skips* work the structures have already
    /// decided — so results are identical to scanning every
    /// subscription with [`UnifiedFilters::admit`].
    pub fn matching(
        &self,
        event: &InternalEvent,
        producer_properties: Option<&Element>,
        now_ms: u64,
    ) -> Vec<Arc<BrokerSubscription>> {
        let mut guard = self.inner.lock();
        let RegistryInner {
            by_key,
            index,
            programs,
            ..
        } = &mut *guard;
        programs.next_epoch();
        // One shared document index per publication, reused by every
        // candidate filter evaluation and literal-group path. Each is
        // built when the first candidate or literal group asks for it:
        // a publication that only topic-only subscriptions match never
        // indexes its payload.
        let payload_doc = OnceCell::new();
        let payload = || payload_doc.get_or_init(|| EvalDoc::new(event.payload_element()));
        let props = OnceCell::new();
        let mut admit = |e: &SubEntry, topic_proven: bool| {
            e.live(now_ms)
                && e.core
                    .filters
                    .admit_by(event.topic.as_ref(), topic_proven, |doc, n, f| {
                        programs.verdict(e.slots[n], doc, || match doc {
                            Doc::Payload => run(f, Some(payload())),
                            Doc::Props => run(
                                f,
                                props
                                    .get_or_init(|| producer_properties.map(EvalDoc::new))
                                    .as_ref(),
                            ),
                        })
                    })
        };
        // The subscription `Arc` is cloned on the *first* table probe:
        // at large registrations the candidate keys land all over the
        // `by_key` table, and re-probing every hit after the sort was
        // the dominant cost of the match stage (each probe a fresh
        // cache/TLB miss). One probe per candidate, then sort the
        // (key, Arc) pairs by key.
        let mut hits: Vec<(u64, Arc<BrokerSubscription>)> = Vec::new();

        if let Some(topic) = &event.topic {
            for key in index.trie.matches(topic) {
                if let Some(e) = by_key.get(&key).filter(|e| admit(e, true)) {
                    hits.push((key, e.core.clone()));
                }
            }
        }

        for group in index.literal_groups.values() {
            let mut values = group.rep.eval_literal_path(payload());
            values.sort_unstable();
            values.dedup();
            for value in values {
                if let Some(bucket) = group.buckets.get(value.as_ref()) {
                    for &key in bucket {
                        if let Some(e) = by_key.get(&key).filter(|e| e.live(now_ms)) {
                            hits.push((key, e.core.clone()));
                        }
                    }
                }
            }
        }

        for &key in &index.broadcast {
            if let Some(e) = by_key.get(&key).filter(|e| admit(e, false)) {
                hits.push((key, e.core.clone()));
            }
        }

        // Numeric id order: stable across processes (no hasher seeds
        // involved) and equal to subscription age.
        hits.sort_unstable_by_key(|(key, _)| *key);
        hits.dedup_by_key(|(key, _)| *key);
        hits.into_iter().map(|(_, core)| core).collect()
    }

    /// Does a live, unpaused subscription want one of `topics`? One
    /// without a topic filter wants every topic; the others are found
    /// through the topic trie.
    pub(crate) fn wants_any(&self, topics: &[TopicPath], now_ms: u64) -> bool {
        let inner = self.inner.lock();
        let live = |key: &u64| inner.by_key.get(key).is_some_and(|e| e.live(now_ms));
        let index = &inner.index;
        let literal = index
            .literal_groups
            .values()
            .flat_map(|g| g.buckets.values().flatten());
        index.broadcast.iter().chain(literal).any(live)
            || topics
                .iter()
                .any(|t| index.trie.matches(t).iter().any(live))
    }

    /// Subscription count.
    pub fn len(&self) -> usize {
        self.inner.lock().by_key.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot all subscriptions.
    pub fn all(&self) -> Vec<Arc<BrokerSubscription>> {
        self.inner
            .lock()
            .by_key
            .values()
            .map(|e| e.core.clone())
            .collect()
    }
}

#[cfg(test)]
impl Registry {
    /// Distinct filter programs in the program table.
    pub(crate) fn program_count(&self) -> usize {
        self.inner.lock().programs.slot_of.len()
    }
}

/// A push subscription with no filters, for tests that need a
/// [`crate::delivery::PushJob`] but no registry: `wse` picks the
/// consumer's family (WS-Eventing 08/2004 or WS-Notification 1.3).
#[cfg(test)]
pub(crate) fn test_sub(id: &str, address: &str, wse: bool) -> Arc<BrokerSubscription> {
    Arc::new(BrokerSubscription {
        id: id.into(),
        spec: if wse {
            SpecDialect::Wse(wsm_eventing::WseVersion::Aug2004)
        } else {
            SpecDialect::Wsn(wsm_notification::WsnVersion::V1_3)
        },
        consumer: EndpointReference::new(address),
        end_to: None,
        filters: UnifiedFilters::default(),
        mode: BrokerDeliveryMode::Push,
        use_raw: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_eventing::WseVersion;

    fn epr() -> EndpointReference {
        EndpointReference::new("http://c")
    }

    fn spec() -> SpecDialect {
        SpecDialect::Wse(WseVersion::Aug2004)
    }

    fn xp(src: &str) -> Arc<CompiledFilter> {
        Arc::new(CompiledFilter::compile(src).unwrap())
    }

    #[test]
    fn unified_filters_combine_kinds() {
        let f = UnifiedFilters {
            topics: vec![TopicExpression::concrete("storms").unwrap()],
            content: vec![xp("/e[@sev > 3]")],
            producer_props: vec![],
        };
        let hot = InternalEvent::on_topic("storms", Element::local("e").with_attr("sev", "5"));
        let cold = InternalEvent::on_topic("storms", Element::local("e").with_attr("sev", "1"));
        let off_topic =
            InternalEvent::on_topic("traffic", Element::local("e").with_attr("sev", "5"));
        let topicless = InternalEvent::raw(Element::local("e").with_attr("sev", "5"));
        assert!(f.admit(&hot, None));
        assert!(!f.admit(&cold, None));
        assert!(!f.admit(&off_topic, None));
        assert!(!f.admit(&topicless, None), "topic filter needs a topic");
    }

    #[test]
    fn registry_lifecycle() {
        let r = Registry::new();
        let id = r.insert(
            spec(),
            epr(),
            None,
            UnifiedFilters::default(),
            BrokerDeliveryMode::Push,
            false,
            Some(100),
        );
        assert_eq!(r.len(), 1);
        assert!(r.get(&id).is_some());
        assert_eq!(
            r.status(&id),
            Some(SubscriptionStatus {
                paused: false,
                expires_at_ms: Some(100)
            })
        );
        assert!(r.set_expiry(&id, Some(500)));
        assert!(r.sweep_expired(200).is_empty());
        assert_eq!(r.sweep_expired(600).len(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn paused_subscriptions_excluded() {
        let r = Registry::new();
        let id = r.insert(
            spec(),
            epr(),
            None,
            UnifiedFilters::default(),
            BrokerDeliveryMode::Push,
            false,
            None,
        );
        let ev = InternalEvent::raw(Element::local("x"));
        assert_eq!(r.matching(&ev, None, 0).len(), 1);
        r.set_paused(&id, true);
        assert_eq!(r.matching(&ev, None, 0).len(), 0);
        r.set_paused(&id, false);
        assert_eq!(r.matching(&ev, None, 0).len(), 1);
    }

    fn topic_filters(expr: TopicExpression) -> UnifiedFilters {
        UnifiedFilters {
            topics: vec![expr],
            content: vec![],
            producer_props: vec![],
        }
    }

    fn insert_with(r: &Registry, filters: UnifiedFilters) -> String {
        r.insert(
            spec(),
            epr(),
            None,
            filters,
            BrokerDeliveryMode::Push,
            false,
            None,
        )
    }

    #[test]
    fn topic_index_routes_each_event_shape() {
        let r = Registry::new();
        let rooted = insert_with(
            &r,
            topic_filters(TopicExpression::concrete("storms/hail").unwrap()),
        );
        let union = insert_with(
            &r,
            topic_filters(TopicExpression::full("storms/* | traffic").unwrap()),
        );
        let wild = insert_with(&r, topic_filters(TopicExpression::full("//hail").unwrap()));
        let open = insert_with(&r, UnifiedFilters::default());

        let ids = |ev: &InternalEvent| -> Vec<String> {
            let mut v: Vec<String> = r
                .matching(ev, None, 0)
                .into_iter()
                .map(|s| s.id.to_string())
                .collect();
            v.sort();
            v
        };

        let hail = InternalEvent::on_topic("storms/hail", Element::local("e"));
        let mut expect = vec![rooted.clone(), union.clone(), wild.clone(), open.clone()];
        expect.sort();
        assert_eq!(ids(&hail), expect);

        let traffic = InternalEvent::on_topic("traffic", Element::local("e"));
        let mut expect = vec![union.clone(), open.clone()];
        expect.sort();
        assert_eq!(ids(&traffic), expect);

        // A root no expression opens with reaches only wildcard +
        // unfiltered candidates.
        let deep_hail = InternalEvent::on_topic("alerts/hail", Element::local("e"));
        let mut expect = vec![wild.clone(), open.clone()];
        expect.sort();
        assert_eq!(ids(&deep_hail), expect);

        // Topicless events bypass every topic-filtered subscription.
        let topicless = InternalEvent::raw(Element::local("e"));
        assert_eq!(ids(&topicless), vec![open.clone()]);

        // Removal unlinks from every trie terminal it was linked into.
        r.remove(&union);
        let mut expect = vec![rooted, wild, open];
        expect.sort();
        assert_eq!(ids(&hail), expect);
    }

    #[test]
    fn literal_buckets_route_equality_filters() {
        let r = Registry::new();
        let mut on_source: Vec<String> = Vec::new();
        for i in 0..8 {
            on_source.push(insert_with(
                &r,
                UnifiedFilters {
                    topics: vec![],
                    content: vec![xp(&format!("/event/source = 'gridftp-{i}'"))],
                    producer_props: vec![],
                },
            ));
        }
        // Same signature, different literal; plus an unindexable filter.
        let complex = insert_with(
            &r,
            UnifiedFilters {
                topics: vec![],
                content: vec![xp("contains(/event/source, 'ftp-3')")],
                producer_props: vec![],
            },
        );

        let ev = InternalEvent::raw(
            Element::local("event")
                .with_child(Element::local("source").with_text("gridftp-3".to_string())),
        );
        let mut got: Vec<String> = r
            .matching(&ev, None, 0)
            .into_iter()
            .map(|s| s.id.to_string())
            .collect();
        got.sort();
        let mut want = vec![on_source[3].clone(), complex.clone()];
        want.sort();
        assert_eq!(got, want);

        // Unlinking empties the bucket; the complex one still matches.
        r.remove(&on_source[3]);
        let got: Vec<String> = r
            .matching(&ev, None, 0)
            .into_iter()
            .map(|s| s.id.to_string())
            .collect();
        assert_eq!(got, vec![complex]);
    }

    #[test]
    fn index_matches_linear_scan_semantics() {
        // The index must be invisible: for a mixed population and a
        // set of events, matching() equals a brute-force admit() scan.
        let r = Registry::new();
        let filters: Vec<UnifiedFilters> = vec![
            UnifiedFilters::default(),
            topic_filters(TopicExpression::simple("storms").unwrap()),
            topic_filters(TopicExpression::full("storms//*").unwrap()),
            UnifiedFilters {
                topics: vec![TopicExpression::concrete("storms/hail").unwrap()],
                content: vec![xp("/e/@sev > 3")],
                producer_props: vec![],
            },
            UnifiedFilters {
                topics: vec![],
                content: vec![xp("/e/kind = 'alert'")],
                producer_props: vec![],
            },
            UnifiedFilters {
                topics: vec![],
                content: vec![xp("count(/e/*) > 1")],
                producer_props: vec![],
            },
            UnifiedFilters {
                topics: vec![],
                content: vec![],
                producer_props: vec![xp("/props/site = 'anl'")],
            },
        ];
        let mut ids = Vec::new();
        for f in &filters {
            ids.push(insert_with(&r, f.clone()));
        }
        let props =
            Element::local("props").with_child(Element::local("site").with_text("anl".to_string()));
        let events = [
            InternalEvent::raw(Element::local("e").with_attr("sev", "5")),
            InternalEvent::on_topic("storms/hail", Element::local("e").with_attr("sev", "5")),
            InternalEvent::on_topic("storms/hail", Element::local("e").with_attr("sev", "1")),
            InternalEvent::raw(
                Element::local("e")
                    .with_child(Element::local("kind").with_text("alert".to_string())),
            ),
            InternalEvent::on_topic(
                "traffic",
                Element::local("e")
                    .with_child(Element::local("kind").with_text("alert".to_string()))
                    .with_child(Element::local("x")),
            ),
        ];
        for (ei, ev) in events.iter().enumerate() {
            for props_opt in [None, Some(&props)] {
                let got: Vec<String> = r
                    .matching(ev, props_opt, 0)
                    .into_iter()
                    .map(|s| s.id.to_string())
                    .collect();
                let want: Vec<String> = ids
                    .iter()
                    .zip(&filters)
                    .filter(|(_, f)| f.admit(ev, props_opt))
                    .map(|(id, _)| id.clone())
                    .collect();
                assert_eq!(got, want, "event {ei}, props {}", props_opt.is_some());
            }
        }
    }

    #[test]
    fn program_table_is_bounded_by_live_subscriptions() {
        // The selective grid's K3 population: 200 subscriptions over 13
        // filters, every other one spelled with extra spaces.
        let r = Registry::new();
        let k3 = |i: usize| {
            let k = i % 13;
            if i.is_multiple_of(2) {
                format!("/event[source='gridftp-{k}' and @sev>5]")
            } else {
                format!("/event[ source = 'gridftp-{k}' and @sev > 5 ]")
            }
        };
        let ids: Vec<String> = (0..200)
            .map(|i| {
                let filters = UnifiedFilters {
                    topics: vec![TopicExpression::full(&format!("grid/site{}/*", i % 50)).unwrap()],
                    content: vec![xp(&k3(i))],
                    producer_props: vec![],
                };
                let expires = i.is_multiple_of(3).then_some(100);
                r.insert(
                    spec(),
                    epr(),
                    None,
                    filters,
                    BrokerDeliveryMode::Push,
                    false,
                    expires,
                )
            })
            .collect();
        assert_eq!(r.program_count(), 13, "whitespace variants add none");
        let (a, b) = (r.get(&ids[0]).unwrap(), r.get(&ids[13]).unwrap());
        assert!(
            Arc::ptr_eq(&a.filters.content[0], &b.filters.content[0]),
            "both spellings hold the one shared program"
        );

        // Remove the leased-forever ones, then let the rest expire.
        for (i, id) in ids.iter().enumerate() {
            if !i.is_multiple_of(3) {
                assert!(r.remove(id).is_some());
            }
        }
        assert_eq!(r.program_count(), 13, "every program still has a holder");
        assert_eq!(r.sweep_expired(100).len(), 67);
        assert_eq!(r.program_count(), 0);
        assert_eq!(r.inner.lock().programs.refs.len(), 13);

        // A re-subscribe takes a freed slot instead of growing the table.
        let again = insert_with(
            &r,
            UnifiedFilters {
                topics: vec![],
                content: vec![xp("/event[@sev>3]")],
                producer_props: vec![],
            },
        );
        assert_eq!(r.program_count(), 1);
        assert_eq!(r.inner.lock().programs.refs.len(), 13);
        let ev = InternalEvent::raw(Element::local("event").with_attr("sev", "5"));
        assert_eq!(r.matching(&ev, None, 200).len(), 1);
        assert_eq!(*r.matching(&ev, None, 200)[0].id, *again);
    }

    #[test]
    fn sweep_unlinks_from_topic_index() {
        let r = Registry::new();
        let id = r.insert(
            spec(),
            epr(),
            None,
            topic_filters(TopicExpression::simple("storms").unwrap()),
            BrokerDeliveryMode::Push,
            false,
            Some(10),
        );
        let ev = InternalEvent::on_topic("storms", Element::local("e"));
        assert_eq!(r.matching(&ev, None, 0).len(), 1);
        let swept = r.sweep_expired(20);
        assert_eq!(swept.len(), 1);
        assert_eq!(*swept[0].id, *id);
        assert!(r.matching(&ev, None, 30).is_empty());
    }
}
