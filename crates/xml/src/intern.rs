//! Global string interning for XML names.
//!
//! A SOAP broker sees the same handful of names on every message: the
//! envelope namespaces, the WS-Addressing header names, the WSE/WSN
//! operation vocabularies, and the application payload's tags. The seed
//! allocated a fresh `String` for every namespace URI, local name and
//! prefix on every parse and every tree construction — the dominant
//! allocation source on the parse→render→serialize hot path.
//!
//! [`Interned`] replaces those `String`s with handles on `&'static str`
//! entries of one process-wide table: each distinct name is allocated
//! once, every later occurrence copies a pointer and a length, and
//! equality of two interned names is (in the overwhelmingly common
//! case) a single pointer comparison.
//!
//! A name is **leaked** at its first insert and lives as long as the
//! process. That is the memory behaviour the table always had — it is
//! insert-only and never evicted, so an entry was never freed either —
//! but a handle now carries no reference count: cloning, dropping,
//! parsing and rendering a tree write to no shared cache line, where a
//! counted handle did an atomic read-modify-write on a process-wide
//! counter per name per clone and per drop, from every thread at once.
//!
//! The table is sharded to keep writer contention off the hot path:
//! lookups take a per-shard read lock (shared, so concurrent parsers
//! never serialize against each other), and only the *first* occurrence
//! of a name in the process takes the shard's write lock. The
//! well-known SOAP/WSA/WSE/WSN names are pre-seeded so even that first
//! occurrence is a read-path hit.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{OnceLock, RwLock};

/// Number of interner shards. A power of two so the shard pick is a
/// mask; 16 is far more shards than the broker has simultaneously
/// *inserting* threads, so write-lock collisions are rare even under
/// the concurrent-interner stress test.
const SHARDS: usize = 16;

/// Names every WS-* message carries, seeded at table construction so
/// the first message a process parses already takes the read path.
const WELL_KNOWN: &[&str] = &[
    "",
    // SOAP envelope vocabulary.
    "http://schemas.xmlsoap.org/soap/envelope/",
    "http://www.w3.org/2003/05/soap-envelope",
    "Envelope",
    "Header",
    "Body",
    "Fault",
    "mustUnderstand",
    "soap",
    "s",
    // WS-Addressing.
    "http://schemas.xmlsoap.org/ws/2003/03/addressing",
    "http://schemas.xmlsoap.org/ws/2004/08/addressing",
    "http://www.w3.org/2005/08/addressing",
    "wsa",
    "To",
    "From",
    "ReplyTo",
    "Action",
    "MessageID",
    "RelatesTo",
    "Address",
    "ReferenceParameters",
    "ReferenceProperties",
    "EndpointReference",
    // WS-Eventing.
    "http://schemas.xmlsoap.org/ws/2004/01/eventing",
    "http://schemas.xmlsoap.org/ws/2004/08/eventing",
    "wse",
    "Subscribe",
    "SubscribeResponse",
    "SubscriptionManager",
    "SubscriptionEnd",
    "Identifier",
    "Expires",
    "Delivery",
    "NotifyTo",
    "EndTo",
    "Filter",
    "Mode",
    "Dialect",
    "Renew",
    "RenewResponse",
    "Unsubscribe",
    "GetStatus",
    "Notifications",
    // WS-Notification.
    "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-BaseNotification-1.0",
    "http://docs.oasis-open.org/wsn/b-2",
    "http://docs.oasis-open.org/wsn/br-2",
    "wsnt",
    "Notify",
    "NotificationMessage",
    "Topic",
    "Message",
    "ProducerReference",
    "SubscriptionReference",
    "ConsumerReference",
    "TopicExpression",
    "MessageContent",
    "UseRaw",
    "GetCurrentMessage",
    "GetMessages",
    "CurrentTime",
    "TerminationTime",
    "SubscriptionId",
    "PauseSubscription",
    "ResumeSubscription",
    "RegisterPublisher",
    "RegisterPublisherResponse",
    "PublisherReference",
    "wsn-br",
    // The reserved XML namespaces and prefixes.
    crate::name::XML_NS,
    crate::name::XMLNS_NS,
    "xml",
    "xmlns",
    "lang",
    // Broker extension vocabulary and synthesized prefixes.
    "urn:ws-messenger:broker",
    "wsm",
    "ns0",
    "ns1",
    // WS-Topics dialect URIs and the topic vocabulary the broker's
    // trie index keys on. Trie edges are HashMap<Interned, _>, so
    // seeding the common topic words lets both Subscribe-time edge
    // creation and publish-time lookups hit the pointer-equality fast
    // path instead of taking a shard write lock on first use.
    "http://docs.oasis-open.org/wsn/t-1",
    "http://docs.oasis-open.org/wsn/t-1/TopicExpression/Simple",
    "http://docs.oasis-open.org/wsn/t-1/TopicExpression/Concrete",
    "http://docs.oasis-open.org/wsn/t-1/TopicExpression/Full",
    "wstop",
    "storms",
    "tornado",
    "hail",
    "traffic",
    "jobs",
    "transfers",
    "gridftp",
    "compute",
    "started",
    "finished",
    "failed",
    "status",
    "alerts",
    "weather",
    "experiments",
    "wsmsg",
    // Federation vocabulary: the wrapped-notification batch the
    // inter-broker hop encodes re-uses the WSN names above, and the
    // shard topic roots below keep million-subscriber bench setups and
    // cross-shard `Notify` encodes on the ptr-eq fast path (asserted
    // by the 16-message encode budget in wsm-messenger's
    // `tests/render_allocs.rs`).
    "readings",
    "stable",
    "event",
    "reading",
    "fanout",
];

struct Interner {
    shards: [RwLock<HashSet<&'static str>>; SHARDS],
}

static INTERNER: OnceLock<Interner> = OnceLock::new();

fn interner() -> &'static Interner {
    INTERNER.get_or_init(|| {
        let it = Interner {
            shards: std::array::from_fn(|_| RwLock::new(HashSet::new())),
        };
        for s in WELL_KNOWN {
            let shard = &it.shards[shard_of(s)];
            shard.write().unwrap().insert(s);
        }
        it
    })
}

fn shard_of(s: &str) -> usize {
    // FNV-1a over the bytes: fast, decent spread, and independent of
    // the per-HashSet SipHash keys so one bad distribution cannot
    // degrade both levels at once.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) & (SHARDS - 1)
}

/// Intern `s`, returning the process-wide shared handle for it.
///
/// The first call for a given string takes a shard write lock and
/// leaks one copy of it; every later call (from any thread) takes the
/// shard read lock and copies the entry's pointer.
pub fn intern(s: &str) -> Interned {
    let shard = &interner().shards[shard_of(s)];
    if let Some(hit) = shard.read().unwrap().get(s) {
        return Interned(hit);
    }
    let mut table = shard.write().unwrap();
    // Double-checked: another thread may have inserted between our
    // read unlock and write lock.
    if let Some(hit) = table.get(s) {
        return Interned(hit);
    }
    let entry: &'static str = Box::leak(Box::from(s));
    table.insert(entry);
    Interned(entry)
}

/// Number of distinct strings currently interned, across all shards.
///
/// Used by the stress tests to prove the table stays bounded: interning
/// the same name set from many threads must not grow it past the
/// number of distinct names.
pub fn interned_count() -> usize {
    interner()
        .shards
        .iter()
        .map(|s| s.read().unwrap().len())
        .sum()
}

/// An interned string: a handle on an entry of the global table.
///
/// Two `Interned` values produced from equal strings always share one
/// allocation, so equality short-circuits on the pointer. The type
/// dereferences to `str`, compares against `&str`/`String` directly,
/// and orders/hashes by content, so it drops into `String`'s place in
/// the tree model without changing any observable behavior.
///
/// `Clone` but deliberately not `Copy`: the handle is two words and
/// would qualify, but `Copy` turns every existing `.clone()` of a name
/// into a `clippy::clone_on_copy` finding for no gain.
#[derive(Clone)]
pub struct Interned(&'static str);

impl Interned {
    /// The interned text.
    pub fn as_str(&self) -> &str {
        self.0
    }

    /// Do two handles share one table entry? Always true for equal
    /// strings that both came from [`intern`]; the general equality
    /// below falls back to content comparison anyway.
    pub fn ptr_eq(a: &Interned, b: &Interned) -> bool {
        std::ptr::eq(a.0, b.0)
    }
}

impl Deref for Interned {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for Interned {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl Borrow<str> for Interned {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl PartialEq for Interned {
    fn eq(&self, other: &Self) -> bool {
        // Pointer compare first: interning guarantees equal strings
        // share storage, so this is the path taken by every name
        // comparison on the hot path. The content fallback keeps `Eq`
        // honest even for hypothetical handles from different tables.
        Interned::ptr_eq(self, other) || self.0 == other.0
    }
}

impl Eq for Interned {}

impl PartialEq<str> for Interned {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Interned {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for Interned {
    fn eq(&self, other: &String) -> bool {
        self.0 == other.as_str()
    }
}

impl PartialEq<Interned> for str {
    fn eq(&self, other: &Interned) -> bool {
        self == other.0
    }
}

impl PartialEq<Interned> for &str {
    fn eq(&self, other: &Interned) -> bool {
        *self == other.0
    }
}

impl PartialEq<Interned> for String {
    fn eq(&self, other: &Interned) -> bool {
        self.as_str() == other.0
    }
}

// Content hash, consistent with `Borrow<str>` and with content
// equality, so `HashMap<Interned, _>` lookups by `&str` work.
impl Hash for Interned {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl PartialOrd for Interned {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Interned {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Interned::ptr_eq(self, other) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl fmt::Display for Interned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for Interned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl From<&str> for Interned {
    fn from(s: &str) -> Self {
        intern(s)
    }
}

impl From<&String> for Interned {
    fn from(s: &String) -> Self {
        intern(s)
    }
}

impl From<String> for Interned {
    fn from(s: String) -> Self {
        intern(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_strings_share_storage() {
        let a = intern("urn:intern-test:shared");
        let b = intern("urn:intern-test:shared");
        assert!(Interned::ptr_eq(&a, &b));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_strings_differ() {
        assert_ne!(intern("urn:intern-test:a"), intern("urn:intern-test:b"));
    }

    #[test]
    fn str_comparisons_work_both_ways() {
        let i = intern("Envelope");
        assert_eq!(i, "Envelope");
        assert_eq!("Envelope", i);
        assert_eq!(i, String::from("Envelope"));
        assert_ne!(i, "Body");
    }

    #[test]
    fn orders_and_hashes_by_content() {
        use std::collections::HashMap;
        assert!(intern("a") < intern("b"));
        assert_eq!(intern("x").cmp(&intern("x")), std::cmp::Ordering::Equal);
        let mut m: HashMap<Interned, u32> = HashMap::new();
        m.insert(intern("key"), 7);
        // Borrow<str> lets callers look up without constructing a handle.
        assert_eq!(m.get("key"), Some(&7));
    }

    // Tests that compare `interned_count()` before and after live in
    // `tests/process_wide_counts.rs`: the count is process-wide, and
    // beside this crate's other unit tests — which intern new names
    // all the time — they went red about one run in ten.

    #[test]
    fn display_and_debug_delegate_to_str() {
        let i = intern("a<b");
        assert_eq!(format!("{i}"), "a<b");
        assert_eq!(format!("{i:?}"), "\"a<b\"");
    }
}
