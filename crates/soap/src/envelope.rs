//! The envelope model.
//!
//! An [`Envelope`] is **copy-on-write** and **element-granular**. Its
//! header list and its body are each a slice of [`Node`]s behind an
//! `Arc` — one allocation apiece — so `clone()` is two reference bumps
//! and a clone shares both lists with its original until one of them
//! is written. A write copies the one list it changes if (and only if)
//! someone else still holds it; replacing a whole list copies nothing,
//! a shared one is simply left to its other holders. Each entry may
//! itself be a [`Node::Shared`] subtree, so one header or body element
//! can sit in many envelopes at once; the mutators that hand out
//! `&mut Element` ([`Envelope::header_at_mut`],
//! [`Envelope::body_first_mut`]) turn a shared entry into a private
//! copy first.
//!
//! The broker leans on this per delivery. Its render builds each
//! envelope from pieces fixed per publication — the `wsa:Action`, topic
//! and `Notify` parts are shared subtrees — so a delivery's header list
//! is pointer copies plus one fresh `wsa:To`, and a raw delivery shares
//! its body with every other subscriber of its class. The sink clones
//! the finished envelope for `SoapHandler::handle(&self, Envelope)`,
//! and the redelivery queue keeps another; both are free. Equality,
//! serialization and parsing see only the contents.

use std::fmt;
use std::sync::Arc;
use wsm_xml::{parse, Element, Node, QName, SharedElement, XmlError};

/// SOAP 1.1 envelope namespace.
pub const SOAP11_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";
/// SOAP 1.2 envelope namespace.
pub const SOAP12_NS: &str = "http://www.w3.org/2003/05/soap-envelope";

/// The SOAP version of a message.
///
/// WS-Eventing examples bind to SOAP 1.2 while much deployed
/// WS-Notification tooling used SOAP 1.1; the mediation broker must
/// speak both, so everything here is version-parameterized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SoapVersion {
    /// SOAP 1.1.
    V11,
    /// SOAP 1.2.
    V12,
}

impl SoapVersion {
    /// The envelope namespace for this version.
    pub fn ns(self) -> &'static str {
        match self {
            SoapVersion::V11 => SOAP11_NS,
            SoapVersion::V12 => SOAP12_NS,
        }
    }

    /// The conventional envelope prefix (`soap` for 1.1, `s` for 1.2 —
    /// mirrors what the specs' examples use, which matters for the
    /// byte-level fidelity of the message-diff experiment).
    pub fn prefix(self) -> &'static str {
        match self {
            SoapVersion::V11 => "soap",
            SoapVersion::V12 => "s",
        }
    }

    /// The value the `mustUnderstand` attribute takes for "true".
    pub fn must_understand_true(self) -> &'static str {
        match self {
            SoapVersion::V11 => "1",
            SoapVersion::V12 => "true",
        }
    }
}

impl fmt::Display for SoapVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoapVersion::V11 => write!(f, "SOAP 1.1"),
            SoapVersion::V12 => write!(f, "SOAP 1.2"),
        }
    }
}

/// Errors raised while interpreting a SOAP message.
#[derive(Debug, Clone, PartialEq)]
pub enum SoapError {
    /// Not XML at all.
    Xml(XmlError),
    /// The root element is not an Envelope in a known SOAP namespace.
    NotAnEnvelope(String),
    /// Structural problem (missing Body, Header after Body, ...).
    Structure(String),
}

impl fmt::Display for SoapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoapError::Xml(e) => write!(f, "invalid XML: {e}"),
            SoapError::NotAnEnvelope(got) => write!(f, "root element {got} is not a SOAP envelope"),
            SoapError::Structure(s) => write!(f, "invalid SOAP structure: {s}"),
        }
    }
}

impl std::error::Error for SoapError {}

impl From<XmlError> for SoapError {
    fn from(e: XmlError) -> Self {
        SoapError::Xml(e)
    }
}

/// A SOAP envelope: optional header blocks and a body.
///
/// Header and body entries are [`Node`]s so a broker fanning one
/// publication out to many subscribers can splice a [`SharedElement`]
/// — owned once, serialized once — into every per-subscriber envelope,
/// building only the entries that differ per subscriber. Node equality
/// treats shared and plain subtrees identically, so this is invisible
/// to comparisons and round-trips.
///
/// Cloning is cheap (see the module docs): the clone shares the header
/// and body lists until either side writes to one.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    version: SoapVersion,
    headers: Arc<[Node]>,
    body: Arc<[Node]>,
}

/// The element in `node`, made private first if it is a shared
/// subtree, so writing to it changes this one envelope only.
fn unshared(node: &mut Node) -> Option<&mut Element> {
    if let Node::Shared(shared) = node {
        *node = Node::Element(shared.element().clone());
    }
    node.as_element_mut()
}

impl Envelope {
    /// An empty envelope of the given version.
    pub fn new(version: SoapVersion) -> Self {
        Envelope {
            version,
            headers: Arc::default(),
            body: Arc::default(),
        }
    }

    /// This envelope's SOAP version.
    pub fn version(&self) -> SoapVersion {
        self.version
    }

    /// Append a header block.
    pub fn add_header(&mut self, header: Element) {
        self.extend_headers([Node::Element(header)]);
    }

    /// Append header blocks, plain or shared subtrees, in one copy of
    /// the list however many.
    pub fn extend_headers(&mut self, headers: impl IntoIterator<Item = Node>) {
        // The blocks already here are moved into the copy when this
        // envelope is their only holder, and cloned otherwise.
        let mut list: Vec<Node> = match Arc::get_mut(&mut self.headers) {
            Some(owned) => owned
                .iter_mut()
                .map(|n| std::mem::replace(n, Node::Text(String::new())))
                .collect(),
            None => self.headers.to_vec(),
        };
        list.extend(headers);
        self.headers = list.into();
    }

    /// Replace every header block at once, storing them in one
    /// allocation where the iterator knows its exact length. Like a
    /// whole-body replacement this copies nothing: a shared header list
    /// is left to its other holders.
    pub fn set_header_nodes(&mut self, headers: impl IntoIterator<Item = Node>) {
        self.headers = headers.into_iter().collect();
    }

    /// Builder-style [`Envelope::add_header`].
    pub fn with_header(mut self, header: Element) -> Self {
        self.add_header(header);
        self
    }

    /// Mutable access to the header block at `index`, if any. A shared
    /// block is copied into this envelope first.
    pub fn header_at_mut(&mut self, index: usize) -> Option<&mut Element> {
        // Probe first: an out-of-range index must not cost a copy.
        if index >= self.headers.len() {
            return None;
        }
        unshared(&mut Arc::make_mut(&mut self.headers)[index])
    }

    /// Mutable access to the first body element (the usual case). A
    /// shared element is copied into this envelope first.
    pub fn body_first_mut(&mut self) -> Option<&mut Element> {
        let at = self.body.iter().position(|n| n.as_element().is_some())?;
        unshared(&mut Arc::make_mut(&mut self.body)[at])
    }

    /// Replace the body content with a single element.
    pub fn set_body(&mut self, body: Element) {
        self.replace_body(Node::Element(body));
    }

    /// Builder-style [`Envelope::set_body`].
    pub fn with_body(mut self, body: Element) -> Self {
        self.set_body(body);
        self
    }

    /// Replace the body content with a shared subtree whose
    /// serialization is cached across every envelope that embeds it.
    pub fn set_shared_body(&mut self, body: Arc<SharedElement>) {
        self.replace_body(Node::Shared(body));
    }

    /// The write half of copy-on-write for a whole-body replacement:
    /// the old content is going away, so a shared list is left to its
    /// other holders rather than copied first.
    fn replace_body(&mut self, node: Node) {
        self.body = Arc::from([node]);
    }

    /// Builder-style [`Envelope::set_shared_body`].
    pub fn with_shared_body(mut self, body: Arc<SharedElement>) -> Self {
        self.set_shared_body(body);
        self
    }

    /// Builder-style: the body is `node`, a plain or a shared subtree.
    pub fn with_body_node(mut self, node: Node) -> Self {
        self.replace_body(node);
        self
    }

    /// All header blocks, shared subtrees included.
    pub fn headers(&self) -> impl Iterator<Item = &Element> {
        self.headers.iter().filter_map(Node::as_element)
    }

    /// All header blocks as the nodes this envelope holds: copying one
    /// is a reference bump where it is a shared subtree.
    pub fn header_nodes(&self) -> &[Node] {
        &self.headers
    }

    /// The first header block with the given expanded name.
    pub fn header(&self, ns: &str, local: &str) -> Option<&Element> {
        self.headers().find(|h| h.name.is(ns, local))
    }

    /// The first body element (the usual case).
    pub fn body(&self) -> Option<&Element> {
        self.body.iter().find_map(Node::as_element)
    }

    /// All body elements, shared subtrees included.
    pub fn body_elements(&self) -> impl Iterator<Item = &Element> {
        self.body.iter().filter_map(Node::as_element)
    }

    /// Mark a header block mustUnderstand=true, version-appropriately.
    pub fn must_understand(&self, mut header: Element) -> Element {
        header.attrs.push(wsm_xml::tree::Attribute {
            name: QName::ns(self.version.ns(), "mustUnderstand"),
            prefix_hint: Some(wsm_xml::intern(self.version.prefix())),
            value: self.version.must_understand_true().to_string(),
        });
        header
    }

    /// Serialize to an element tree.
    pub fn to_element(&self) -> Element {
        let ns = self.version.ns();
        let p = self.version.prefix();
        let mut env = Element::ns(ns, "Envelope", p);
        if !self.headers.is_empty() {
            let mut header = Element::ns(ns, "Header", p);
            header.children.extend(self.headers.iter().cloned());
            env.push(header);
        }
        let mut body = Element::ns(ns, "Body", p);
        for b in self.body.iter() {
            body.children.push(b.clone());
        }
        env.push(body);
        env
    }

    /// Serialize to compact XML text.
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.xml_size_hint());
        self.write_xml_into(&mut out);
        out
    }

    /// Serialize compactly by appending to an existing buffer — the
    /// allocation-lean path the fan-out workers use with a pooled
    /// buffer from [`wsm_xml::with_buffer`].
    pub fn write_xml_into(&self, out: &mut String) {
        wsm_xml::write_into(&self.to_element(), out, wsm_xml::WriteOptions::default());
    }

    /// Estimated serialized size, used to right-size output buffers on
    /// first use. Shared body subtrees report their exact cached length;
    /// headers and plain bodies are estimated.
    pub fn xml_size_hint(&self) -> usize {
        let mut hint = 192 + self.headers.len() * 128;
        for b in self.body.iter() {
            hint += match b {
                Node::Shared(s) => s.serialized_len(),
                _ => 256,
            };
        }
        hint
    }

    /// Byte length of the compact serialization, computed in a pooled
    /// buffer so callers that only need the size (delivery accounting,
    /// content-length headers) allocate nothing in steady state.
    pub fn xml_len(&self) -> usize {
        wsm_xml::with_buffer(self.xml_size_hint(), |buf| {
            self.write_xml_into(buf);
            buf.len()
        })
    }

    /// Parse an envelope from XML text, detecting the SOAP version from
    /// the envelope namespace. The parsed header and body blocks are
    /// moved into the envelope, not copied.
    pub fn from_xml(xml: &str) -> Result<Self, SoapError> {
        Self::from_root(parse(xml)?)
    }

    /// Interpret an already-parsed element as an envelope: the reading
    /// [`Envelope::from_xml`] makes, applied to a copy of `root`.
    pub fn from_element(root: &Element) -> Result<Self, SoapError> {
        Self::from_root(root.clone())
    }

    /// Take an envelope element apart into the header and body lists,
    /// moving its blocks. Nodes between the blocks that are not
    /// elements (whitespace, comments) are dropped.
    fn from_root(root: Element) -> Result<Self, SoapError> {
        let version = if root.name.is(SOAP11_NS, "Envelope") {
            SoapVersion::V11
        } else if root.name.is(SOAP12_NS, "Envelope") {
            SoapVersion::V12
        } else {
            return Err(SoapError::NotAnEnvelope(root.name.clark()));
        };
        let ns = version.ns();
        let mut headers: Arc<[Node]> = Arc::default();
        let mut body = None;
        for child in root.children.into_iter().filter_map(Node::into_element) {
            if child.name.is(ns, "Header") {
                if body.is_some() {
                    return Err(SoapError::Structure("Header after Body".into()));
                }
                if !headers.is_empty() {
                    return Err(SoapError::Structure("multiple Header elements".into()));
                }
                headers = element_list(child);
            } else if child.name.is(ns, "Body") {
                if body.is_some() {
                    return Err(SoapError::Structure("multiple Body elements".into()));
                }
                body = Some(element_list(child));
            } else {
                return Err(SoapError::Structure(format!(
                    "unexpected envelope child {}",
                    child.name.clark()
                )));
            }
        }
        let body = body.ok_or_else(|| SoapError::Structure("missing Body".into()))?;
        Ok(Envelope {
            version,
            headers,
            body,
        })
    }

    /// The first body element, moved out of this envelope when it is
    /// the only holder of its body list, and copied otherwise — the
    /// owned counterpart of [`Envelope::body`] for a receiver that
    /// keeps the payload.
    pub fn into_body(self) -> Option<Element> {
        self.into_body_node()?.into_element()
    }

    /// The first body element as the node this envelope holds it in,
    /// moved out when this envelope is the only holder of its body
    /// list and cloned otherwise. A shared subtree stays shared either
    /// way, so keeping it costs a reference count, not a copy.
    pub fn into_body_node(self) -> Option<Node> {
        let mut body = self.body;
        let at = body.iter().position(|n| n.as_element().is_some())?;
        match Arc::get_mut(&mut body) {
            Some(list) => Some(std::mem::replace(&mut list[at], Node::Text(String::new()))),
            None => Some(body[at].clone()),
        }
    }
}

/// The element children of a `Header` or `Body` block, moved into one
/// exactly sized list.
fn element_list(block: Element) -> Arc<[Node]> {
    let mut children = block.children;
    children.retain(|n| n.as_element().is_some());
    children.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_both_versions() {
        for v in [SoapVersion::V11, SoapVersion::V12] {
            let env = Envelope::new(v)
                .with_header(Element::ns("urn:h", "H", "h").with_text("hv"))
                .with_body(Element::ns("urn:b", "B", "b").with_text("bv"));
            let xml = env.to_xml();
            let back = Envelope::from_xml(&xml).unwrap();
            assert_eq!(back, env, "{xml}");
            assert_eq!(back.version(), v);
        }
    }

    #[test]
    fn version_detection() {
        let e11 = Envelope::new(SoapVersion::V11).with_body(Element::local("x"));
        assert_eq!(
            Envelope::from_xml(&e11.to_xml()).unwrap().version(),
            SoapVersion::V11
        );
        let e12 = Envelope::new(SoapVersion::V12).with_body(Element::local("x"));
        assert_eq!(
            Envelope::from_xml(&e12.to_xml()).unwrap().version(),
            SoapVersion::V12
        );
    }

    #[test]
    fn not_an_envelope() {
        let err = Envelope::from_xml("<r/>").unwrap_err();
        assert!(matches!(err, SoapError::NotAnEnvelope(_)));
    }

    #[test]
    fn missing_body_rejected() {
        let xml = format!(r#"<s:Envelope xmlns:s="{SOAP12_NS}"><s:Header/></s:Envelope>"#);
        assert!(matches!(
            Envelope::from_xml(&xml).unwrap_err(),
            SoapError::Structure(_)
        ));
    }

    #[test]
    fn header_after_body_rejected() {
        let xml = format!(r#"<s:Envelope xmlns:s="{SOAP12_NS}"><s:Body/><s:Header/></s:Envelope>"#);
        assert!(matches!(
            Envelope::from_xml(&xml).unwrap_err(),
            SoapError::Structure(_)
        ));
    }

    #[test]
    fn empty_body_is_fine() {
        let xml = format!(r#"<s:Envelope xmlns:s="{SOAP12_NS}"><s:Body/></s:Envelope>"#);
        let env = Envelope::from_xml(&xml).unwrap();
        assert!(env.body().is_none());
    }

    #[test]
    fn header_lookup() {
        let env = Envelope::new(SoapVersion::V12)
            .with_header(Element::ns("urn:a", "To", "a").with_text("x"))
            .with_header(Element::ns("urn:b", "To", "b").with_text("y"));
        assert_eq!(env.header("urn:b", "To").unwrap().text(), "y");
        assert!(env.header("urn:c", "To").is_none());
    }

    #[test]
    fn must_understand_values_differ_by_version() {
        let e11 = Envelope::new(SoapVersion::V11);
        let h = e11.must_understand(Element::ns("urn:x", "H", "x"));
        assert_eq!(h.attr_ns(SOAP11_NS, "mustUnderstand"), Some("1"));
        let e12 = Envelope::new(SoapVersion::V12);
        let h = e12.must_understand(Element::ns("urn:x", "H", "x"));
        assert_eq!(h.attr_ns(SOAP12_NS, "mustUnderstand"), Some("true"));
    }

    #[test]
    fn multiple_body_elements_preserved() {
        let mut env = Envelope::new(SoapVersion::V11);
        env.body = Arc::from([
            Node::Element(Element::local("a")),
            Node::Element(Element::local("b")),
        ]);
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        assert_eq!(back.body_elements().count(), 2);
    }

    #[test]
    fn shared_body_round_trips_and_compares_like_plain() {
        let payload = Element::ns("urn:app", "ev", "app").with_text("x & y");
        let shared_env = Envelope::new(SoapVersion::V12)
            .with_header(Element::ns("urn:h", "To", "h").with_text("a"))
            .with_shared_body(SharedElement::new(payload.clone()));
        let plain_env = Envelope::new(SoapVersion::V12)
            .with_header(Element::ns("urn:h", "To", "h").with_text("a"))
            .with_body(payload);
        assert_eq!(shared_env, plain_env);
        assert_eq!(shared_env.to_xml(), plain_env.to_xml());
        assert_eq!(Envelope::from_xml(&shared_env.to_xml()).unwrap(), plain_env);
        assert_eq!(shared_env.body().unwrap().name.local, "ev");
    }

    #[test]
    fn a_clone_shares_storage_until_written() {
        let original = Envelope::new(SoapVersion::V12)
            .with_header(Element::ns("urn:h", "To", "h").with_text("a"))
            .with_header(Element::ns("urn:h", "Action", "h").with_text("urn:go"))
            .with_body(Element::ns("urn:b", "B", "b").with_child(Element::local("c")));
        let xml = original.to_xml();

        let copy = original.clone();
        assert!(Arc::ptr_eq(&copy.headers, &original.headers));
        assert!(Arc::ptr_eq(&copy.body, &original.body));
        // Reading, and a write that has nothing to write to, copy nothing.
        let mut probe = original.clone();
        assert!(probe.header_at_mut(9).is_none());
        assert_eq!(probe.to_xml(), xml);
        assert!(Arc::ptr_eq(&probe.headers, &original.headers));

        // Each mutator copies the one vector it writes, and only for
        // the envelope it was called on.
        type Write = fn(&mut Envelope);
        let writes: [(&str, Write, bool); 5] = [
            ("add_header", |e| e.add_header(Element::local("x")), true),
            (
                "header_at_mut",
                |e| e.header_at_mut(0).unwrap().push_text("!"),
                true,
            ),
            (
                "body_first_mut",
                |e| e.body_first_mut().unwrap().push_text("!"),
                false,
            ),
            ("set_body", |e| e.set_body(Element::local("x")), false),
            (
                "set_shared_body",
                |e| e.set_shared_body(SharedElement::new(Element::local("x"))),
                false,
            ),
        ];
        for (name, write, writes_headers) in writes {
            let mut copy = original.clone();
            write(&mut copy);
            assert_ne!(copy.to_xml(), xml, "{name} wrote");
            assert_eq!(original.to_xml(), xml, "{name} left the original alone");
            assert_eq!(
                Arc::ptr_eq(&copy.headers, &original.headers),
                !writes_headers,
                "{name}: headers"
            );
            assert_eq!(
                Arc::ptr_eq(&copy.body, &original.body),
                writes_headers,
                "{name}: body"
            );
        }
    }

    #[test]
    fn a_shared_entry_is_made_private_before_a_write() {
        let action = SharedElement::new(Element::ns("urn:h", "Action", "h").with_text("urn:go"));
        let body = SharedElement::new(Element::ns("urn:b", "B", "b"));
        let mut env = Envelope::new(SoapVersion::V12).with_shared_body(Arc::clone(&body));
        env.extend_headers([Node::Shared(Arc::clone(&action))]);
        let other = env.clone();
        let xml = env.to_xml();
        // Shared and plain blocks read alike.
        assert_eq!(env.header("urn:h", "Action").unwrap().text(), "urn:go");
        assert_eq!(env.headers().count(), 1);

        env.header_at_mut(0).unwrap().push_text("!");
        env.body_first_mut().unwrap().push_text("!");
        assert!(matches!(env.header_nodes()[0], Node::Element(_)));
        assert_eq!(action.element().text(), "urn:go");
        assert!(body.element().is_empty());
        assert_eq!(other.to_xml(), xml);
        assert_eq!(
            Envelope::from_xml(&env.to_xml()).unwrap(),
            Envelope::new(SoapVersion::V12)
                .with_header(Element::ns("urn:h", "Action", "h").with_text("urn:go!"))
                .with_body(Element::ns("urn:b", "B", "b").with_text("!"))
        );
    }

    #[test]
    fn foreign_envelope_child_rejected() {
        let xml = format!(r#"<s:Envelope xmlns:s="{SOAP12_NS}"><weird/><s:Body/></s:Envelope>"#);
        assert!(Envelope::from_xml(&xml).is_err());
    }
}

/// Check the mustUnderstand headers of an envelope against the
/// namespaces a node actually understands.
///
/// Per the SOAP processing model, a node receiving a header marked
/// `mustUnderstand` in a namespace it does not process must fault with
/// the `MustUnderstand` code rather than silently ignore it. Handlers
/// call this with the namespaces they implement (their own spec's, the
/// WS-Addressing versions, ...).
pub fn check_must_understand(
    env: &Envelope,
    understood_namespaces: &[&str],
) -> Result<(), crate::fault::Fault> {
    let soap_ns = env.version().ns();
    let mu_true = env.version().must_understand_true();
    for h in env.headers() {
        let marked = h
            .attr_ns(soap_ns, "mustUnderstand")
            .map(|v| v == mu_true || v == "1" || v == "true")
            .unwrap_or(false);
        if !marked {
            continue;
        }
        let ns = h.name.ns.as_deref().unwrap_or("");
        if !understood_namespaces.contains(&ns) {
            return Err(crate::fault::Fault {
                code: crate::fault::FaultCode::MustUnderstand,
                subcode: None,
                reason: format!(
                    "header {} is marked mustUnderstand but this node does not process its namespace",
                    h.name.clark()
                ),
                detail: None,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod mu_tests {
    use super::*;
    use crate::fault::FaultCode;

    #[test]
    fn understood_namespaces_pass() {
        let env = Envelope::new(SoapVersion::V12).with_body(Element::local("b"));
        let h = env.must_understand(Element::ns("urn:known", "H", "k"));
        let env = env.with_header(h);
        assert!(check_must_understand(&env, &["urn:known"]).is_ok());
    }

    #[test]
    fn not_understood_faults_with_mu_code() {
        let env = Envelope::new(SoapVersion::V12).with_body(Element::local("b"));
        let h = env.must_understand(Element::ns("urn:alien", "H", "a"));
        let env = env.with_header(h);
        let fault = check_must_understand(&env, &["urn:known"]).unwrap_err();
        assert_eq!(fault.code, FaultCode::MustUnderstand);
    }

    #[test]
    fn unmarked_headers_are_ignored() {
        let env = Envelope::new(SoapVersion::V12)
            .with_body(Element::local("b"))
            .with_header(Element::ns("urn:alien", "H", "a"));
        assert!(check_must_understand(&env, &[]).is_ok());
    }

    #[test]
    fn v11_numeric_marker_accepted() {
        let env = Envelope::new(SoapVersion::V11).with_body(Element::local("b"));
        let h = env.must_understand(Element::ns("urn:alien", "H", "a"));
        let env = env.with_header(h);
        assert!(check_must_understand(&env, &[]).is_err());
    }
}
