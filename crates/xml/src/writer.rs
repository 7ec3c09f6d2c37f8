//! Serialization with automatic namespace-declaration management.
//!
//! The writer is allocation-lean by design: tag names are pairs of
//! interned handles (cloning one is a pointer copy, and the
//! open tag is reused verbatim for the close tag), namespace scopes
//! hold interned prefixes/URIs, and text/attribute escaping goes
//! through the `Cow` fast path in [`crate::escape`] so clean content is
//! appended directly from the tree. Callers that serialize repeatedly
//! should prefer [`write_into`] with a buffer from
//! [`crate::pool::with_buffer`] so even the output `String` is reused.

use crate::escape::{escape_attr, escape_text};
use crate::intern::{intern, Interned};
use crate::name::XML_NS;
use crate::tree::{Cached, Element, Node};

/// Serialization options.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOptions {
    /// Emit `<?xml version="1.0" encoding="utf-8"?>` first.
    pub xml_decl: bool,
    /// `Some(n)` pretty-prints with `n`-space indentation. Elements with
    /// text content are kept inline so character data is never altered.
    pub indent: Option<usize>,
}

/// Serialize compactly (no XML declaration, no added whitespace).
pub fn to_string(root: &Element) -> String {
    write_with(root, WriteOptions::default())
}

/// Serialize pretty-printed with two-space indentation.
pub fn to_pretty_string(root: &Element) -> String {
    write_with(
        root,
        WriteOptions {
            xml_decl: false,
            indent: Some(2),
        },
    )
}

/// Serialize with explicit [`WriteOptions`].
pub fn write_with(root: &Element, opts: WriteOptions) -> String {
    let mut out = String::with_capacity(256);
    write_into(root, &mut out, opts);
    out
}

/// Serialize `root` by appending to an existing buffer.
///
/// This is the allocation-free entry point: with a pooled, pre-sized
/// buffer the serializer performs no output allocation beyond what the
/// document's namespace bookkeeping strictly requires.
pub fn write_into(root: &Element, out: &mut String, opts: WriteOptions) {
    if opts.xml_decl {
        out.push_str("<?xml version=\"1.0\" encoding=\"utf-8\"?>");
        if opts.indent.is_some() {
            out.push('\n');
        }
    }
    let mut w = Writer {
        out,
        opts,
        scopes: Vec::new(),
        gen_counter: 0,
        record: None,
    };
    w.element(root, 0);
}

/// The standalone compact serialization of `root` a
/// [`crate::SharedElement`] caches, with the declarations it makes.
pub(crate) fn standalone(root: &Element) -> Cached {
    let mut xml = String::with_capacity(256);
    let mut w = Writer {
        out: &mut xml,
        opts: WriteOptions::default(),
        scopes: Vec::new(),
        gen_counter: 0,
        record: Some(Record::default()),
    };
    w.element(root, 0);
    let record = w.record.take().unwrap_or_default();
    Cached {
        xml,
        decls: record.decls.into_boxed_slice(),
        generated: record.generated,
    }
}

/// What a standalone serialization declared (see [`Cached`]).
#[derive(Default)]
struct Record {
    decls: Vec<(Option<Interned>, Interned)>,
    generated: bool,
}

impl Record {
    fn declared(&mut self, pair: &(Option<Interned>, Interned)) {
        if !self.decls.contains(pair) {
            self.decls.push(pair.clone());
        }
    }
}

/// A resolved lexical tag name. Both halves are interned handles, so a
/// `Tag` is cheap to build, and the element writer reuses the same
/// value for the open and close tags instead of formatting a `String`
/// per tag as the seed did.
enum Tag {
    /// `local`
    Plain(Interned),
    /// `prefix:local`
    Prefixed(Interned, Interned),
}

impl Tag {
    fn push_to(&self, out: &mut String) {
        match self {
            Tag::Plain(local) => out.push_str(local),
            Tag::Prefixed(prefix, local) => {
                out.push_str(prefix);
                out.push(':');
                out.push_str(local);
            }
        }
    }
}

struct Writer<'a> {
    out: &'a mut String,
    opts: WriteOptions,
    /// In-scope declarations, innermost last: `(prefix, uri)`.
    /// `prefix == None` is the default namespace; an empty uri
    /// represents an un-declaration.
    scopes: Vec<(Option<Interned>, Interned)>,
    gen_counter: usize,
    /// Set only while serializing a shared subtree's cached form.
    record: Option<Record>,
}

impl Writer<'_> {
    /// URI currently bound to `prefix` (innermost wins).
    fn binding_of(&self, prefix: Option<&str>) -> Option<&Interned> {
        self.scopes
            .iter()
            .rev()
            .find(|(p, _)| p.as_deref() == prefix)
            .map(|(_, u)| u)
    }

    /// An in-scope, unshadowed prefix bound to `uri`. When `allow_default`
    /// is false (attributes), the default namespace does not count.
    ///
    /// Returns an owned prefix handle so callers can keep
    /// it across later scope mutations.
    fn prefix_for(&self, uri: &str, allow_default: bool) -> Option<Option<Interned>> {
        for (p, u) in self.scopes.iter().rev() {
            if *u == uri {
                if !allow_default && p.is_none() {
                    continue;
                }
                // Check that this binding is not shadowed by an inner one.
                if self.binding_of(p.as_deref()).is_some_and(|b| b == uri) {
                    return Some(p.clone());
                }
            }
        }
        if uri == XML_NS {
            return Some(Some(intern("xml")));
        }
        None
    }

    fn fresh_prefix(&mut self) -> Interned {
        loop {
            let cand = format!("ns{}", self.gen_counter);
            self.gen_counter += 1;
            if let Some(record) = &mut self.record {
                record.generated = true;
            }
            if self.binding_of(Some(&cand)).is_none() {
                return intern(&cand);
            }
        }
    }

    fn element(&mut self, e: &Element, depth: usize) {
        let scope_base = self.scopes.len();
        // Declarations this element must carry: (prefix, uri).
        let mut decls: Vec<(Option<Interned>, Interned)> = Vec::new();

        // Resolve the element's own name.
        let tag = self.qualify(
            &e.name.ns,
            e.prefix_hint.as_ref(),
            true,
            &mut decls,
            &e.name.local,
        );

        // Resolve attribute names (values are escaped at write time).
        let mut attr_tags: Vec<Tag> = Vec::with_capacity(e.attrs.len());
        for a in &e.attrs {
            let aname = match &a.name.ns {
                None => Tag::Plain(a.name.local.clone()),
                Some(_) => self.qualify(
                    &a.name.ns,
                    a.prefix_hint.as_ref(),
                    false,
                    &mut decls,
                    &a.name.local,
                ),
            };
            attr_tags.push(aname);
        }

        if let Some(record) = &mut self.record {
            for pair in &decls {
                record.declared(pair);
            }
        }
        self.out.push('<');
        tag.push_to(self.out);
        for (p, u) in &decls {
            match p {
                None => {
                    self.out.push_str(" xmlns=\"");
                }
                Some(p) => {
                    self.out.push_str(" xmlns:");
                    self.out.push_str(p);
                    self.out.push_str("=\"");
                }
            }
            self.out.push_str(&escape_attr(u));
            self.out.push('"');
        }
        for (a, aname) in e.attrs.iter().zip(&attr_tags) {
            self.out.push(' ');
            aname.push_to(self.out);
            self.out.push_str("=\"");
            self.out.push_str(&escape_attr(&a.value));
            self.out.push('"');
        }

        if e.children.is_empty() {
            self.out.push_str("/>");
            self.scopes.truncate(scope_base);
            return;
        }
        self.out.push('>');

        let indent_children = self.opts.indent.is_some()
            && e.children
                .iter()
                .all(|c| !matches!(c, Node::Text(_) | Node::CData(_)));
        for c in &e.children {
            if indent_children {
                self.newline_indent(depth + 1);
            }
            match c {
                Node::Element(child) => self.element(child, depth + 1),
                Node::Shared(shared) => {
                    // Pretty mode re-renders so indentation stays right.
                    let cached = (self.opts.indent.is_none())
                        .then(|| shared.cached())
                        .filter(|cached| self.splices(cached));
                    match cached {
                        Some(cached) => {
                            self.out.push_str(&cached.xml);
                            if let Some(record) = &mut self.record {
                                cached.decls.iter().for_each(|pair| record.declared(pair));
                                record.generated |= cached.generated;
                            }
                        }
                        None => self.element(shared.element(), depth + 1),
                    }
                }
                Node::Text(t) => self.out.push_str(&escape_text(t)),
                Node::CData(t) => {
                    self.out.push_str("<![CDATA[");
                    self.out.push_str(t);
                    self.out.push_str("]]>");
                }
                Node::Comment(t) => {
                    self.out.push_str("<!--");
                    self.out.push_str(t);
                    self.out.push_str("-->");
                }
                Node::Pi { target, data } => {
                    self.out.push_str("<?");
                    self.out.push_str(target);
                    if !data.is_empty() {
                        self.out.push(' ');
                        self.out.push_str(data);
                    }
                    self.out.push_str("?>");
                }
            }
        }
        if indent_children {
            self.newline_indent(depth);
        }
        self.out.push_str("</");
        tag.push_to(self.out);
        self.out.push('>');
        self.scopes.truncate(scope_base);
    }

    /// Are `cached`'s bytes exactly what writing its element here would
    /// produce? They are where every lookup the element's writing makes
    /// answers as it did standalone: no default namespace can capture
    /// an unprefixed name, no recorded prefix is already bound to its
    /// URI here (writing in place would not declare it again), no
    /// recorded default-namespace URI has a prefix here (writing in
    /// place would use it), and no prefix was invented.
    fn splices(&self, cached: &Cached) -> bool {
        !cached.generated
            && self.binding_of(None).is_none_or(|u| u.is_empty())
            && cached.decls.iter().all(|(p, u)| match p {
                Some(p) => self.binding_of(Some(p)) != Some(u),
                None => self.prefix_for(u, true).is_none(),
            })
    }

    fn newline_indent(&mut self, depth: usize) {
        if let Some(n) = self.opts.indent {
            self.out.push('\n');
            for _ in 0..depth * n {
                self.out.push(' ');
            }
        }
    }

    /// Produce the lexical tag name for (`ns`, `local`), adding any
    /// declaration needed to `decls` and the scope stack.
    fn qualify(
        &mut self,
        ns: &Option<Interned>,
        hint: Option<&Interned>,
        allow_default: bool,
        decls: &mut Vec<(Option<Interned>, Interned)>,
        local: &Interned,
    ) -> Tag {
        match ns {
            None => {
                // For elements, make sure no default namespace captures us.
                if allow_default {
                    if let Some(u) = self.binding_of(None) {
                        if !u.is_empty() {
                            let empty = intern("");
                            decls.push((None, empty.clone()));
                            self.scopes.push((None, empty));
                        }
                    }
                }
                Tag::Plain(local.clone())
            }
            Some(uri) => {
                if *uri == XML_NS {
                    return Tag::Prefixed(intern("xml"), local.clone());
                }
                // Prefer the hint when it is already correctly bound.
                if let Some(h) = hint {
                    if self.binding_of(Some(h.as_str())).is_some_and(|b| b == uri) {
                        return Tag::Prefixed(h.clone(), local.clone());
                    }
                }
                if hint.is_none() {
                    if let Some(binding) = self.prefix_for(uri, allow_default) {
                        return match binding {
                            None => Tag::Plain(local.clone()),
                            Some(p) => Tag::Prefixed(p, local.clone()),
                        };
                    }
                }
                // Need a new declaration.
                let prefix = match hint {
                    Some(h) if !h.is_empty() => h.clone(),
                    _ => {
                        if let Some(binding) = self.prefix_for(uri, allow_default) {
                            return match binding {
                                None => Tag::Plain(local.clone()),
                                Some(p) => Tag::Prefixed(p, local.clone()),
                            };
                        }
                        if allow_default {
                            // No hint on an element: declare the default
                            // namespace rather than inventing a prefix.
                            decls.push((None, uri.clone()));
                            self.scopes.push((None, uri.clone()));
                            return Tag::Plain(local.clone());
                        }
                        self.fresh_prefix()
                    }
                };
                decls.push((Some(prefix.clone()), uri.clone()));
                self.scopes.push((Some(prefix.clone()), uri.clone()));
                Tag::Prefixed(prefix, local.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::QName;

    fn roundtrip(doc: &str) -> Element {
        let e = parse(doc).unwrap();
        let s = to_string(&e);
        let e2 = parse(&s).unwrap_or_else(|err| panic!("reparse of `{s}` failed: {err}"));
        assert_eq!(e, e2, "serialized form `{s}` changed the tree");
        e
    }

    #[test]
    fn simple_roundtrips() {
        roundtrip("<r/>");
        roundtrip("<r a=\"1\">text</r>");
        roundtrip("<r><a/><b>x</b></r>");
    }

    #[test]
    fn namespace_roundtrips() {
        roundtrip(r#"<p:r xmlns:p="urn:a"><p:c/><q:d xmlns:q="urn:b"/></p:r>"#);
        roundtrip(r#"<r xmlns="urn:a"><c/><d xmlns="">plain</d></r>"#);
        roundtrip(r#"<r xmlns:x="urn:x" x:a="1" b="2"/>"#);
    }

    #[test]
    fn builder_tree_gets_declarations() {
        let e = Element::ns("urn:s", "Envelope", "s").with_child(
            Element::ns("urn:s", "Body", "s").with_child(
                Element::ns("urn:app", "op", "app").with_attr_ns("urn:x", "id", "x", "7"),
            ),
        );
        let s = to_string(&e);
        assert!(s.contains("xmlns:s=\"urn:s\""), "{s}");
        assert!(s.contains("xmlns:app=\"urn:app\""), "{s}");
        assert!(s.contains("xmlns:x=\"urn:x\""), "{s}");
        // Inner s:Body reuses the outer declaration.
        assert_eq!(s.matches("xmlns:s=").count(), 1, "{s}");
        let back = parse(&s).unwrap();
        assert_eq!(back.name, QName::ns("urn:s", "Envelope"));
        assert_eq!(
            back.child("Body")
                .unwrap()
                .child("op")
                .unwrap()
                .attr_ns("urn:x", "id"),
            Some("7")
        );
    }

    #[test]
    fn missing_hint_uses_default_namespace() {
        let e = Element::new(QName::ns("urn:z", "thing"));
        let s = to_string(&e);
        let back = parse(&s).unwrap();
        assert_eq!(back.name, QName::ns("urn:z", "thing"));
    }

    #[test]
    fn attr_never_uses_default_namespace() {
        // Element uses default ns; attribute in same ns must get a prefix.
        let mut e = Element::new(QName::ns("urn:a", "r"));
        e.attrs.push(crate::tree::Attribute {
            name: QName::ns("urn:a", "k"),
            prefix_hint: None,
            value: "v".into(),
        });
        let s = to_string(&e);
        let back = parse(&s).unwrap();
        assert_eq!(back.attr_ns("urn:a", "k"), Some("v"));
    }

    #[test]
    fn unprefixed_child_of_defaulted_parent_undeclares() {
        let e = parse(r#"<r xmlns="urn:a"><c xmlns="">x</c></r>"#).unwrap();
        let s = to_string(&e);
        assert!(s.contains("xmlns=\"\""), "{s}");
        let back = parse(&s).unwrap();
        assert_eq!(back.elements().next().unwrap().name, QName::local("c"));
    }

    #[test]
    fn text_escaped_on_output() {
        let e = Element::local("r").with_text("a < b & c");
        assert_eq!(to_string(&e), "<r>a &lt; b &amp; c</r>");
    }

    #[test]
    fn cdata_comment_pi_roundtrip() {
        roundtrip("<r><![CDATA[a < b]]><!-- note --><?target stuff?></r>");
    }

    #[test]
    fn pretty_print_indents_element_only_content() {
        let e = parse("<r><a><b/></a><c/></r>").unwrap();
        let s = to_pretty_string(&e);
        assert_eq!(s, "<r>\n  <a>\n    <b/>\n  </a>\n  <c/>\n</r>");
    }

    #[test]
    fn pretty_print_keeps_text_inline() {
        let e = parse("<r><a>text</a></r>").unwrap();
        let s = to_pretty_string(&e);
        assert!(s.contains("<a>text</a>"), "{s}");
    }

    #[test]
    fn xml_decl_option() {
        let e = Element::local("r");
        let s = write_with(
            &e,
            WriteOptions {
                xml_decl: true,
                indent: None,
            },
        );
        assert!(s.starts_with("<?xml version=\"1.0\""), "{s}");
    }

    #[test]
    fn write_into_appends_to_existing_buffer() {
        let mut buf = String::from("PREFIX|");
        write_into(
            &Element::local("r").with_text("x"),
            &mut buf,
            WriteOptions::default(),
        );
        assert_eq!(buf, "PREFIX|<r>x</r>");
    }

    #[test]
    fn hint_collision_rebinds_locally() {
        // Parent binds p->urn:a; child insists on p->urn:b. Legal XML:
        // the child carries its own xmlns:p.
        let e = Element::ns("urn:a", "r", "p").with_child(Element::ns("urn:b", "c", "p"));
        let s = to_string(&e);
        let back = parse(&s).unwrap();
        assert_eq!(back.name, QName::ns("urn:a", "r"));
        assert_eq!(
            back.elements().next().unwrap().name,
            QName::ns("urn:b", "c")
        );
    }

    #[test]
    fn shared_subtree_writes_identically_to_plain() {
        use crate::tree::SharedElement;
        let payload = Element::ns("urn:app", "alert", "app")
            .with_attr("sev", "3")
            .with_child(Element::ns("urn:app", "src", "app").with_text("x < y & z"))
            .with_child(Element::local("plain").with_text("t"));
        let mut with_plain = Element::ns("urn:s", "Body", "s");
        with_plain.children.push(Node::Element(payload.clone()));
        let mut with_shared = Element::ns("urn:s", "Body", "s");
        let shared = SharedElement::new(payload);
        with_shared.children.push(Node::Shared(shared.clone()));
        assert_eq!(to_string(&with_shared), to_string(&with_plain));
        // Parsing the spliced form recovers the same tree.
        assert_eq!(parse(&to_string(&with_shared)).unwrap(), with_plain);
        // Pretty mode falls back to recursive writing and matches too.
        assert_eq!(
            to_pretty_string(&with_shared),
            to_pretty_string(&with_plain)
        );
    }

    #[test]
    fn shared_subtree_under_default_namespace_is_not_spliced() {
        use crate::tree::SharedElement;
        // The no-namespace child would be captured by the active
        // default namespace if the cached standalone form were spliced.
        let payload = Element::local("note").with_text("hi");
        let mut root = Element::new(QName::ns("urn:outer", "r"));
        root.children
            .push(Node::Shared(SharedElement::new(payload)));
        let back = parse(&to_string(&root)).unwrap();
        assert_eq!(back.elements().next().unwrap().name, QName::local("note"));
    }

    #[test]
    fn shared_subtree_whose_binding_is_in_scope_writes_like_plain() {
        use crate::tree::SharedElement;
        let outer = |child: Node| {
            // The unhinted attribute makes the writer invent `ns0` here.
            let mut body = Element::ns("urn:a", "Body", "a").with_attr_ns("urn:y", "t", "", "1");
            body.children.push(child);
            Element::ns("urn:s", "Envelope", "s").with_child(body)
        };
        let payloads = [
            // Its own prefix and URI are already bound: no redeclaration.
            Element::ns("urn:a", "Custom", "a").with_child(Element::ns("urn:a", "In", "a")),
            // Unhinted: writing in place reuses the outer `a` prefix.
            Element::new(QName::ns("urn:a", "Bare")),
            // An invented attribute prefix depends on the document.
            Element::local("r").with_attr_ns("urn:x", "k", "", "v"),
            // A pair declared below the root counts too.
            Element::ns("urn:b", "Other", "b").with_child(Element::ns("urn:a", "In", "a")),
            // Nothing it declares is bound here: the cached bytes are
            // spliced.
            Element::ns("urn:b", "Other", "b").with_child(Element::local("plain")),
        ];
        for payload in payloads {
            let plain = to_string(&outer(Node::Element(payload.clone())));
            let shared = to_string(&outer(Node::Shared(SharedElement::new(payload))));
            assert_eq!(shared, plain);
            assert_eq!(parse(&shared).unwrap(), parse(&plain).unwrap());
        }
    }

    // `shared_subtree_serializes_once_across_documents` lives in
    // `tests/process_wide_counts.rs`: it reads a process-wide counter
    // that the tests around it move.

    #[test]
    fn xml_namespace_never_declared() {
        let mut e = Element::local("r");
        e.attrs.push(crate::tree::Attribute {
            name: QName::ns(crate::name::XML_NS, "lang"),
            prefix_hint: Some(crate::intern::intern("xml")),
            value: "en".into(),
        });
        let s = to_string(&e);
        assert_eq!(s, r#"<r xml:lang="en"/>"#);
    }
}
