//! The element tree: [`Element`], [`Node`], [`Attribute`],
//! [`SharedElement`].

use crate::intern::{intern, Interned};
use crate::name::QName;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A node in element content.
#[derive(Debug, Clone)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// An immutable element subtree shared between documents, with a
    /// cached serialization (see [`SharedElement`]).
    Shared(Arc<SharedElement>),
    /// Character data (entities already expanded).
    Text(String),
    /// A CDATA section; identical to text for matching purposes but
    /// round-trips as `<![CDATA[...]]>`.
    CData(String),
    /// A comment.
    Comment(String),
    /// A processing instruction.
    Pi {
        /// PI target.
        target: String,
        /// PI data (may be empty).
        data: String,
    },
}

impl Node {
    /// The element inside this node, if it is one (including shared
    /// subtrees).
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Shared(s) => Some(s.element()),
            _ => None,
        }
    }

    /// The element inside this node, by value: moved out of a plain
    /// element, copied out of a shared subtree.
    pub fn into_element(self) -> Option<Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Shared(s) => Some(s.element().clone()),
            _ => None,
        }
    }

    /// Mutable variant of [`Node::as_element`].
    ///
    /// A [`Node::Shared`] subtree is immutable by construction, so this
    /// returns `None` for it; callers that need to mutate must clone
    /// the inner element into a regular [`Node::Element`] first.
    pub fn as_element_mut(&mut self) -> Option<&mut Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// The textual content if this node is text or CDATA.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) | Node::CData(t) => Some(t),
            _ => None,
        }
    }
}

/// Equality treats a shared subtree exactly like the element it wraps:
/// sharing is a serialization optimization, not a semantic difference.
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Node::Text(a), Node::Text(b)) => a == b,
            (Node::CData(a), Node::CData(b)) => a == b,
            (Node::Comment(a), Node::Comment(b)) => a == b,
            (
                Node::Pi {
                    target: at,
                    data: ad,
                },
                Node::Pi {
                    target: bt,
                    data: bd,
                },
            ) => at == bt && ad == bd,
            _ => match (self.as_element(), other.as_element()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

/// Counts every *actual* serialization of a [`SharedElement`] (cache
/// misses). The render-cache tests use this to prove a payload is
/// serialized once per event rather than once per subscriber.
static SHARED_SERIALIZATIONS: AtomicU64 = AtomicU64::new(0);

/// Total number of [`SharedElement`] serializations performed by this
/// process (monotonic; cache hits do not count).
pub fn shared_serialization_count() -> u64 {
    SHARED_SERIALIZATIONS.load(Ordering::Relaxed)
}

/// An immutable element subtree that can be spliced into many
/// documents, serializing at most once.
///
/// The cached form is the *standalone* compact serialization: every
/// namespace the subtree uses is declared within it. With it the first
/// serialization records the `(prefix, uri)` pairs those declarations
/// bind. The writer splices the cached bytes into a compact document
/// only where they are exactly what writing the element in place would
/// produce: no default namespace is in force (it could capture the
/// subtree's unprefixed names), and the enclosing scope binds none of
/// the recorded pairs (writing in place would leave that declaration
/// out). Anywhere else — and in pretty-print mode — the writer falls
/// back to recursively writing the wrapped element.
#[derive(Debug)]
pub struct SharedElement {
    element: Element,
    cached: OnceLock<Cached>,
}

/// A [`SharedElement`]'s standalone serialization and what it declares.
#[derive(Debug)]
pub(crate) struct Cached {
    /// The standalone compact serialization.
    pub(crate) xml: String,
    /// Every `(prefix, uri)` pair the serialization declares, in
    /// first-declared order; `None` is the default namespace.
    pub(crate) decls: Box<[(Option<Interned>, Interned)]>,
    /// The serialization invented a prefix (`ns0`, ...): the writer's
    /// choice depends on the enclosing document, so it is never spliced.
    pub(crate) generated: bool,
}

impl SharedElement {
    /// Wrap an element for sharing.
    pub fn new(element: Element) -> Arc<Self> {
        Arc::new(SharedElement {
            element,
            cached: OnceLock::new(),
        })
    }

    /// The wrapped element.
    pub fn element(&self) -> &Element {
        &self.element
    }

    /// The standalone compact serialization, rendered on first use and
    /// cached for the lifetime of the subtree.
    pub fn xml(&self) -> &str {
        &self.cached().xml
    }

    /// The cached serialization and its declarations.
    pub(crate) fn cached(&self) -> &Cached {
        self.cached.get_or_init(|| {
            SHARED_SERIALIZATIONS.fetch_add(1, Ordering::Relaxed);
            crate::writer::standalone(&self.element)
        })
    }

    /// Byte length of the cached serialization — a capacity hint for
    /// callers sizing an output buffer that will embed this subtree
    /// (forces the one-time serialization if it has not happened yet).
    pub fn serialized_len(&self) -> usize {
        self.xml().len()
    }
}

impl PartialEq for SharedElement {
    fn eq(&self, other: &Self) -> bool {
        self.element == other.element
    }
}

/// An attribute: expanded name, original prefix (for round-tripping) and
/// value with entities expanded.
///
/// Equality ignores `prefix_hint`: two attributes are equal when their
/// expanded names and values are — prefixes are serialization detail.
#[derive(Debug, Clone)]
pub struct Attribute {
    /// Expanded name. Per the Namespaces spec, unprefixed attributes are
    /// in *no* namespace (they do not inherit the default namespace).
    pub name: QName,
    /// The prefix the attribute was written with, kept as a
    /// serialization hint.
    pub prefix_hint: Option<Interned>,
    /// Attribute value, entities expanded.
    pub value: String,
}

/// An XML element.
///
/// Namespace *declarations* are not stored as attributes; the parser
/// resolves them into the expanded [`QName`]s and records the original
/// prefixes as hints, and the writer re-synthesizes declarations. This
/// keeps the model canonical: two documents that differ only in prefix
/// spelling produce identical trees, which is the footing the §V.4
/// message-diff experiment needs. Accordingly, `Element` equality
/// ignores the prefix hints.
#[derive(Debug, Clone)]
pub struct Element {
    /// Expanded element name.
    pub name: QName,
    /// The prefix this element was written with (or should be written
    /// with); `None` requests the default namespace or no prefix.
    pub prefix_hint: Option<Interned>,
    /// Attributes in document order.
    pub attrs: Vec<Attribute>,
    /// Children in document order.
    pub children: Vec<Node>,
}

impl PartialEq for Attribute {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.value == other.value
    }
}

impl PartialEq for Element {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.attrs == other.attrs && self.children == other.children
    }
}

impl Element {
    /// Create an empty element with the given expanded name.
    pub fn new(name: QName) -> Self {
        Element {
            name,
            prefix_hint: None,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Create an element in namespace `ns` with a preferred prefix.
    ///
    /// This is the constructor the WS-* codecs use: each spec mandates a
    /// namespace and conventionally a prefix (`wse`, `wsnt`, `wsa`...).
    pub fn ns(ns: impl AsRef<str>, local: impl AsRef<str>, prefix: impl AsRef<str>) -> Self {
        Element {
            name: QName::ns(ns, local),
            prefix_hint: Some(intern(prefix.as_ref())),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Create an element in no namespace.
    pub fn local(local: impl AsRef<str>) -> Self {
        Element::new(QName::local(local))
    }

    // ---- builder-style composition -------------------------------------

    /// Add an attribute in no namespace (builder style).
    pub fn with_attr(mut self, local: impl AsRef<str>, value: impl Into<String>) -> Self {
        self.set_attr(QName::local(local), value);
        self
    }

    /// Add a namespaced attribute (builder style).
    pub fn with_attr_ns(
        mut self,
        ns: impl AsRef<str>,
        local: impl AsRef<str>,
        prefix: impl AsRef<str>,
        value: impl Into<String>,
    ) -> Self {
        self.attrs.push(Attribute {
            name: QName::ns(ns, local),
            prefix_hint: Some(intern(prefix.as_ref())),
            value: value.into(),
        });
        self
    }

    /// Add a child element (builder style).
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Add a text child (builder style).
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Set (replace or append) an attribute by expanded name.
    pub fn set_attr(&mut self, name: QName, value: impl Into<String>) {
        let value = value.into();
        if let Some(a) = self.attrs.iter_mut().find(|a| a.name == name) {
            a.value = value;
        } else {
            self.attrs.push(Attribute {
                name,
                prefix_hint: None,
                value,
            });
        }
    }

    /// Append a child element.
    pub fn push(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Append a text node.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    /// Append a shared child subtree, splicing its cached serialization
    /// instead of deep-copying the tree.
    pub fn push_shared(&mut self, child: Arc<SharedElement>) {
        self.children.push(Node::Shared(child));
    }

    // ---- accessors ------------------------------------------------------

    /// Value of the attribute with local name `local` in no namespace.
    pub fn attr(&self, local: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| a.name.ns.is_none() && a.name.local == local)
            .map(|a| a.value.as_str())
    }

    /// Value of the attribute with expanded name (`ns`, `local`).
    pub fn attr_ns(&self, ns: &str, local: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| a.name.is(ns, local))
            .map(|a| a.value.as_str())
    }

    /// Iterator over child elements in document order.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Mutable iterator over child elements.
    pub fn elements_mut(&mut self) -> impl Iterator<Item = &mut Element> {
        self.children.iter_mut().filter_map(Node::as_element_mut)
    }

    /// First child element with the given local name (any namespace).
    pub fn child(&self, local: &str) -> Option<&Element> {
        self.elements().find(|e| e.name.local == local)
    }

    /// First child element with the given expanded name.
    pub fn child_ns(&self, ns: &str, local: &str) -> Option<&Element> {
        self.elements().find(|e| e.name.is(ns, local))
    }

    /// All child elements with the given expanded name.
    pub fn children_ns<'a>(
        &'a self,
        ns: &'a str,
        local: &'a str,
    ) -> impl Iterator<Item = &'a Element> + 'a {
        self.elements().filter(move |e| e.name.is(ns, local))
    }

    /// Concatenated text of the *direct* text/CDATA children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            if let Some(t) = c.as_text() {
                out.push_str(t);
            }
        }
        out
    }

    /// Concatenated text of all descendant text nodes, in document
    /// order — the XPath `string()` value of the element.
    pub fn deep_text(&self) -> String {
        fn walk(e: &Element, out: &mut String) {
            for c in &e.children {
                if let Some(t) = c.as_text() {
                    out.push_str(t);
                } else if let Some(child) = c.as_element() {
                    walk(child, out);
                }
            }
        }
        let mut out = String::new();
        walk(self, &mut out);
        out
    }

    /// Depth-first search for the first descendant (not self) with the
    /// given expanded name.
    pub fn descendant_ns(&self, ns: &str, local: &str) -> Option<&Element> {
        for e in self.elements() {
            if e.name.is(ns, local) {
                return Some(e);
            }
            if let Some(found) = e.descendant_ns(ns, local) {
                return Some(found);
            }
        }
        None
    }

    /// Number of element children.
    pub fn element_count(&self) -> usize {
        self.elements().count()
    }

    /// True when the element has no children at all.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::ns("urn:s", "root", "s")
            .with_attr("a", "1")
            .with_attr_ns("urn:x", "b", "x", "2")
            .with_child(Element::local("kid").with_text("hello"))
            .with_child(Element::ns("urn:s", "kid", "s").with_text(" world"))
    }

    #[test]
    fn builder_and_accessors() {
        let e = sample();
        assert_eq!(e.attr("a"), Some("1"));
        assert_eq!(
            e.attr("b"),
            None,
            "namespaced attr must not match plain lookup"
        );
        assert_eq!(e.attr_ns("urn:x", "b"), Some("2"));
        assert_eq!(e.element_count(), 2);
        assert_eq!(e.child("kid").unwrap().text(), "hello");
        assert_eq!(e.child_ns("urn:s", "kid").unwrap().text(), " world");
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::local("e");
        e.set_attr(QName::local("k"), "1");
        e.set_attr(QName::local("k"), "2");
        assert_eq!(e.attrs.len(), 1);
        assert_eq!(e.attr("k"), Some("2"));
    }

    #[test]
    fn deep_text_concatenates_in_order() {
        let e = sample();
        assert_eq!(e.deep_text(), "hello world");
    }

    #[test]
    fn descendant_search() {
        let tree = Element::local("a").with_child(
            Element::local("b").with_child(Element::ns("urn:d", "deep", "d").with_text("x")),
        );
        assert_eq!(tree.descendant_ns("urn:d", "deep").unwrap().text(), "x");
        assert!(tree.descendant_ns("urn:d", "nope").is_none());
    }

    #[test]
    fn children_ns_filters() {
        let e = sample();
        assert_eq!(e.children_ns("urn:s", "kid").count(), 1);
    }

    #[test]
    fn text_ignores_elements() {
        let e = Element::local("e")
            .with_text("a")
            .with_child(Element::local("x").with_text("IGNORED"))
            .with_text("b");
        assert_eq!(e.text(), "ab");
    }
}
