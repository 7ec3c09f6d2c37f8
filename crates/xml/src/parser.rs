//! A hand-written, non-validating, namespace-aware XML parser.
//!
//! Scope: everything SOAP traffic contains — elements, attributes,
//! namespace declarations, text with the predefined entities and
//! character references, CDATA, comments, processing instructions and an
//! (ignored) XML declaration / DOCTYPE. No DTD processing beyond
//! skipping, no external entities (which is also the secure choice).

use crate::error::{ErrorKind, XmlError, XmlResult};
use crate::escape::unescape;
use crate::intern::{intern, Interned};
use crate::name::{is_name_char, is_name_start, split_prefixed, QName, XML_NS};
use crate::tree::{Attribute, Element, Node};
use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::Range;

/// Maximum element nesting depth accepted by [`parse`].
///
/// SOAP messages are shallow; a depth bound turns adversarial
/// deeply-nested documents from a stack overflow into a parse error.
pub const MAX_DEPTH: usize = 256;

/// Parse a complete XML document and return its document element.
///
/// Leading/trailing comments, PIs and whitespace around the document
/// element are accepted and discarded; anything else outside the root is
/// an error.
pub fn parse(input: &str) -> XmlResult<Element> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        scratch: SCRATCH.try_with(RefCell::take).unwrap_or_default(),
    };
    let out = p.document();
    let mut scratch = p.scratch;
    if scratch.nodes.capacity() <= MAX_RETAINED_NODES {
        // Whatever an error left behind is cleared before reuse.
        scratch.scopes.clear();
        scratch.nodes.clear();
        scratch.attrs.clear();
        // A thread tearing down keeps nothing.
        let _ = SCRATCH.try_with(|s| s.replace(scratch));
    }
    out
}

/// Node-stack capacity beyond which a thread does not keep its scratch:
/// one pathological document must not pin its size per thread.
const MAX_RETAINED_NODES: usize = 1024;

thread_local! {
    /// Each thread's parse scratch, reused from one document to the
    /// next, so a warm thread's parse allocates only the tree it returns.
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            scopes: Vec::new(),
            nodes: Vec::new(),
            attrs: Vec::new(),
        })
    };
}

/// A parser's working stacks.
#[derive(Default)]
struct Scratch {
    /// In-scope namespace declarations, innermost last. A frame is
    /// popped by truncating to the length recorded when the element was
    /// entered. Both parts are interned: the same prefixes and URIs
    /// recur on every message, so pushing a scope is two pointer
    /// copies, not two `String`s.
    scopes: Vec<(Option<Interned>, Interned)>,
    /// Children of the open elements, innermost last. An element's
    /// children are pushed here as they are parsed and moved into its
    /// `children` in one exactly sized allocation when it closes, so a
    /// parsed tree holds no spare capacity: a broker that keeps a
    /// payload keeps only its bytes.
    nodes: Vec<Node>,
    /// The current start tag's attributes before namespace resolution
    /// (emptied after each tag).
    attrs: Vec<RawAttr>,
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    scratch: Scratch,
}

/// Raw attribute before namespace resolution, held as positions in the
/// input so a thread's scratch can outlive one document.
struct RawAttr {
    /// The qualified name; its start is the attribute's position.
    name: Range<usize>,
    /// The value as written.
    value: Range<usize>,
    /// The value with entities expanded, where expansion changed it.
    expanded: Option<String>,
}

impl<'a> Parser<'a> {
    /// The document element, with the prolog and trailing misc around it.
    fn document(&mut self) -> XmlResult<Element> {
        self.skip_prolog()?;
        if self.at_end() {
            return Err(self.err(ErrorKind::Empty, "input contains no element"));
        }
        let root = self.parse_element()?;
        self.skip_misc()?;
        if !self.at_end() {
            return Err(self.err(
                ErrorKind::TrailingContent,
                "unexpected content after document element",
            ));
        }
        Ok(root)
    }

    fn err(&self, kind: ErrorKind, detail: impl Into<String>) -> XmlError {
        XmlError::new(kind, self.pos, detail)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, s: &str) -> XmlResult<()> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else if self.at_end() {
            Err(self.err(ErrorKind::UnexpectedEof, format!("expected `{s}`")))
        } else {
            let got: String = self.input[self.pos..].chars().take(12).collect();
            Err(self.err(
                ErrorKind::Malformed,
                format!("expected `{s}`, found `{got}`"),
            ))
        }
    }

    /// Skip `<?xml ...?>`, DOCTYPE, comments, PIs and whitespace before
    /// the document element.
    fn skip_prolog(&mut self) -> XmlResult<()> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            self.skip_until("?>")?;
        }
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skip comments/PIs/whitespace after the document element.
    fn skip_misc(&mut self) -> XmlResult<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> XmlResult<()> {
        match self.input[self.pos..].find(end) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.err(
                ErrorKind::UnexpectedEof,
                format!("unterminated construct, expected `{end}`"),
            )),
        }
    }

    /// Skip a DOCTYPE declaration, honouring a bracketed internal subset.
    fn skip_doctype(&mut self) -> XmlResult<()> {
        let mut depth = 0usize;
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => return Ok(()),
                _ => {}
            }
        }
        Err(self.err(ErrorKind::UnexpectedEof, "unterminated DOCTYPE"))
    }

    fn read_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        let mut chars = self.input[self.pos..].char_indices();
        match chars.next() {
            Some((_, c)) if is_name_start(c) || c == ':' => {}
            _ => return Err(self.err(ErrorKind::Malformed, "expected a name")),
        }
        let mut end = self.input.len();
        for (i, c) in chars {
            if !(is_name_char(c) || c == ':') {
                end = self.pos + i;
                break;
            }
        }
        self.pos = end;
        Ok(&self.input[start..end])
    }

    fn resolve(&self, prefix: Option<&str>, for_attr: bool) -> XmlResult<Option<Interned>> {
        match prefix {
            Some("xml") => Ok(Some(intern(XML_NS))),
            Some(p) => {
                for (pref, uri) in self.scratch.scopes.iter().rev() {
                    if pref.as_deref() == Some(p) {
                        if uri.is_empty() {
                            return Err(XmlError::new(
                                ErrorKind::UndeclaredPrefix,
                                self.pos,
                                format!("prefix `{p}` undeclared (empty URI)"),
                            ));
                        }
                        return Ok(Some(uri.clone()));
                    }
                }
                Err(XmlError::new(
                    ErrorKind::UndeclaredPrefix,
                    self.pos,
                    format!("prefix `{p}`"),
                ))
            }
            None => {
                if for_attr {
                    // Unprefixed attributes are in no namespace.
                    return Ok(None);
                }
                for (pref, uri) in self.scratch.scopes.iter().rev() {
                    if pref.is_none() {
                        return Ok(if uri.is_empty() {
                            None
                        } else {
                            Some(uri.clone())
                        });
                    }
                }
                Ok(None)
            }
        }
    }

    fn parse_element(&mut self) -> XmlResult<Element> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(
                ErrorKind::Malformed,
                format!("element nesting exceeds {MAX_DEPTH}"),
            ));
        }
        let out = self.parse_element_inner();
        self.depth -= 1;
        out
    }

    fn parse_element_inner(&mut self) -> XmlResult<Element> {
        self.expect("<")?;
        let raw_name = self.read_name()?;
        let name_pos = self.pos;

        // Collect raw attributes and namespace declarations.
        let scope_base = self.scratch.scopes.len();
        debug_assert!(self.scratch.attrs.is_empty());
        let self_closing;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    self_closing = true;
                    break;
                }
                Some(b'>') => {
                    self.pos += 1;
                    self_closing = false;
                    break;
                }
                Some(_) => {
                    let attr_pos = self.pos;
                    let raw = self.read_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let (raw_value, value) = self.read_attr_value()?;
                    let (prefix, local) = split_prefixed(raw);
                    if prefix == Some("xmlns") {
                        self.scratch
                            .scopes
                            .push((Some(intern(local)), intern(&value)));
                    } else if prefix.is_none() && local == "xmlns" {
                        self.scratch.scopes.push((None, intern(&value)));
                    } else {
                        self.scratch.attrs.push(RawAttr {
                            name: attr_pos..attr_pos + raw.len(),
                            value: raw_value,
                            expanded: match value {
                                Cow::Borrowed(_) => None,
                                Cow::Owned(expanded) => Some(expanded),
                            },
                        });
                    }
                }
                None => return Err(self.err(ErrorKind::UnexpectedEof, "inside start tag")),
            }
        }

        // Resolve names now that the element's own declarations are in scope.
        let (eprefix, elocal) = split_prefixed(raw_name);
        let ens = self.resolve(eprefix, false).map_err(|mut e| {
            e.position = name_pos;
            e
        })?;
        let mut element = Element {
            name: QName {
                ns: ens,
                local: intern(elocal),
            },
            prefix_hint: eprefix.map(intern),
            attrs: Vec::with_capacity(self.scratch.attrs.len()),
            children: Vec::new(),
        };
        let mut raw_attrs = std::mem::take(&mut self.scratch.attrs);
        let resolved = self.resolve_attrs(&mut element, raw_attrs.drain(..));
        // The drained scratch goes back for the next start tag.
        self.scratch.attrs = raw_attrs;
        resolved?;

        if !self_closing {
            let base = self.scratch.nodes.len();
            self.parse_content(raw_name)?;
            // Collecting a drain sizes the vector exactly.
            element.children = self.scratch.nodes.drain(base..).collect();
        }
        self.scratch.scopes.truncate(scope_base);
        Ok(element)
    }

    /// Resolve the start tag's raw attributes into `element`.
    fn resolve_attrs(
        &self,
        element: &mut Element,
        raw_attrs: impl Iterator<Item = RawAttr>,
    ) -> XmlResult<()> {
        for ra in raw_attrs {
            let pos = ra.name.start;
            let (prefix, local) = split_prefixed(&self.input[ra.name]);
            let ns = self.resolve(prefix, true).map_err(|mut e| {
                e.position = pos;
                e
            })?;
            let name = QName {
                ns,
                local: intern(local),
            };
            if element.attrs.iter().any(|a| a.name == name) {
                return Err(XmlError::new(
                    ErrorKind::DuplicateAttribute,
                    pos,
                    name.clark(),
                ));
            }
            element.attrs.push(Attribute {
                name,
                prefix_hint: prefix.map(intern),
                value: ra
                    .expanded
                    .unwrap_or_else(|| self.input[ra.value].to_string()),
            });
        }
        Ok(())
    }

    /// An attribute value: where it is written, and its text with
    /// entities expanded (borrowed from the input where nothing was).
    fn read_attr_value(&mut self) -> XmlResult<(Range<usize>, Cow<'a, str>)> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err(ErrorKind::Malformed, "expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        match self.input[self.pos..].find(quote as char) {
            Some(i) => {
                let raw = &self.input[start..start + i];
                self.pos = start + i + 1;
                Ok((start..start + i, unescape(raw, start)?))
            }
            None => Err(self.err(ErrorKind::UnexpectedEof, "unterminated attribute value")),
        }
    }

    /// Parse an element's content up to and including its end tag,
    /// pushing each child onto the node stack.
    fn parse_content(&mut self, raw_name: &str) -> XmlResult<()> {
        loop {
            if self.at_end() {
                return Err(self.err(ErrorKind::UnexpectedEof, format!("inside <{raw_name}>")));
            }
            if self.starts_with("</") {
                self.pos += 2;
                let end_name = self.read_name()?;
                if end_name != raw_name {
                    return Err(self.err(
                        ErrorKind::MismatchedTag,
                        format!("expected </{raw_name}>, found </{end_name}>"),
                    ));
                }
                self.skip_ws();
                self.expect(">")?;
                return Ok(());
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                let start = self.pos;
                match self.input[self.pos..].find("]]>") {
                    Some(i) => {
                        self.scratch
                            .nodes
                            .push(Node::CData(self.input[start..start + i].to_string()));
                        self.pos = start + i + 3;
                    }
                    None => return Err(self.err(ErrorKind::UnexpectedEof, "unterminated CDATA")),
                }
            } else if self.starts_with("<!--") {
                self.pos += 4;
                let start = self.pos;
                match self.input[self.pos..].find("-->") {
                    Some(i) => {
                        self.scratch
                            .nodes
                            .push(Node::Comment(self.input[start..start + i].to_string()));
                        self.pos = start + i + 3;
                    }
                    None => return Err(self.err(ErrorKind::UnexpectedEof, "unterminated comment")),
                }
            } else if self.starts_with("<?") {
                self.pos += 2;
                let target = self.read_name()?.to_string();
                let start = self.pos;
                match self.input[self.pos..].find("?>") {
                    Some(i) => {
                        let data = self.input[start..start + i].trim().to_string();
                        self.scratch.nodes.push(Node::Pi { target, data });
                        self.pos = start + i + 2;
                    }
                    None => {
                        return Err(self.err(
                            ErrorKind::UnexpectedEof,
                            "unterminated processing instruction",
                        ))
                    }
                }
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element()?;
                self.scratch.nodes.push(Node::Element(child));
            } else {
                // Text run up to the next '<'.
                let start = self.pos;
                let rel = self.input[self.pos..]
                    .find('<')
                    .unwrap_or(self.input.len() - self.pos);
                let raw = &self.input[start..start + rel];
                self.pos = start + rel;
                let text = unescape(raw, start)?;
                if !text.is_empty() {
                    self.scratch.nodes.push(Node::Text(text.into_owned()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_document() {
        let e = parse("<r/>").unwrap();
        assert_eq!(e.name, QName::local("r"));
        assert!(e.is_empty());
    }

    #[test]
    fn xml_decl_doctype_comments_pis_in_prolog() {
        let e = parse(
            "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n<!-- hi --><!DOCTYPE r [ <!ELEMENT r ANY> ]>\n<?pi data?><r/><!-- bye -->",
        )
        .unwrap();
        assert_eq!(e.name.local, "r");
    }

    #[test]
    fn default_namespace_applies_to_elements_not_attrs() {
        let e = parse(r#"<r xmlns="urn:d" a="1"><c/></r>"#).unwrap();
        assert_eq!(e.name, QName::ns("urn:d", "r"));
        assert_eq!(
            e.attrs[0].name,
            QName::local("a"),
            "attrs do not take default ns"
        );
        assert_eq!(e.elements().next().unwrap().name, QName::ns("urn:d", "c"));
    }

    #[test]
    fn prefixed_namespaces_and_scoping() {
        let e =
            parse(r#"<a:r xmlns:a="urn:a"><a:c xmlns:a="urn:b"><a:g/></a:c><a:d/></a:r>"#).unwrap();
        assert_eq!(e.name, QName::ns("urn:a", "r"));
        let c = e.elements().next().unwrap();
        assert_eq!(c.name, QName::ns("urn:b", "c"), "inner redeclaration wins");
        assert_eq!(c.elements().next().unwrap().name, QName::ns("urn:b", "g"));
        let d = e.elements().nth(1).unwrap();
        assert_eq!(d.name, QName::ns("urn:a", "d"), "outer scope restored");
    }

    #[test]
    fn default_ns_undeclaration() {
        let e = parse(r#"<r xmlns="urn:d"><c xmlns=""><g/></c></r>"#).unwrap();
        let c = e.elements().next().unwrap();
        assert_eq!(c.name, QName::local("c"));
        assert_eq!(c.elements().next().unwrap().name, QName::local("g"));
    }

    #[test]
    fn undeclared_prefix_is_an_error() {
        let err = parse("<x:r/>").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UndeclaredPrefix);
    }

    #[test]
    fn undeclared_attr_prefix_is_an_error() {
        let err = parse(r#"<r x:a="1"/>"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UndeclaredPrefix);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = parse(r#"<r a="1" a="2"/>"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateAttribute);
        // Same expanded name via different prefixes is also a duplicate.
        let err = parse(r#"<r xmlns:p="urn:a" xmlns:q="urn:a" p:a="1" q:a="2"/>"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateAttribute);
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert_eq!(err.kind, ErrorKind::MismatchedTag);
    }

    #[test]
    fn text_entities_expanded() {
        let e = parse("<r>1 &lt; 2 &amp;&amp; 3 &gt; 2</r>").unwrap();
        assert_eq!(e.text(), "1 < 2 && 3 > 2");
    }

    #[test]
    fn attr_entities_expanded() {
        let e = parse(r#"<r a="&quot;x&quot; &#65;"/>"#).unwrap();
        assert_eq!(e.attr("a"), Some("\"x\" A"));
    }

    #[test]
    fn cdata_sections() {
        let e = parse("<r><![CDATA[a <raw> & b]]></r>").unwrap();
        assert_eq!(e.text(), "a <raw> & b");
        assert!(matches!(e.children[0], Node::CData(_)));
    }

    #[test]
    fn comments_and_pis_in_content() {
        let e = parse("<r><!-- c --><?t d ?>x</r>").unwrap();
        assert_eq!(e.children.len(), 3);
        assert!(matches!(&e.children[0], Node::Comment(c) if c == " c "));
        assert!(
            matches!(&e.children[1], Node::Pi { target, data } if target == "t" && data == "d")
        );
        assert_eq!(e.text(), "x");
    }

    #[test]
    fn trailing_content_rejected() {
        let err = parse("<r/><r2/>").unwrap_err();
        assert_eq!(err.kind, ErrorKind::TrailingContent);
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(parse("").unwrap_err().kind, ErrorKind::Empty);
        assert_eq!(parse("   \n ").unwrap_err().kind, ErrorKind::Empty);
    }

    #[test]
    fn unterminated_everything() {
        for bad in [
            "<r",
            "<r>",
            "<r><c></c>",
            "<r><![CDATA[x",
            "<r><!-- x",
            "<r a=\"1",
            "<r>&amp",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn soap_like_document() {
        let doc = r#"<?xml version="1.0"?>
<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope"
            xmlns:wsa="http://www.w3.org/2005/08/addressing">
  <s:Header>
    <wsa:Action s:mustUnderstand="true">urn:op</wsa:Action>
  </s:Header>
  <s:Body><payload xmlns="urn:app"><value>42</value></payload></s:Body>
</s:Envelope>"#;
        let env = parse(doc).unwrap();
        assert_eq!(env.name.local, "Envelope");
        let header = env.child("Header").unwrap();
        let action = header.child("Action").unwrap();
        assert_eq!(action.text(), "urn:op");
        assert_eq!(
            action.attr_ns("http://www.w3.org/2003/05/soap-envelope", "mustUnderstand"),
            Some("true")
        );
        let body = env.child("Body").unwrap();
        let payload = body.child_ns("urn:app", "payload").unwrap();
        assert_eq!(payload.child("value").unwrap().text(), "42");
    }

    #[test]
    fn whitespace_in_end_tag() {
        let e = parse("<r>x</r >").unwrap();
        assert_eq!(e.text(), "x");
    }

    #[test]
    fn single_quoted_attributes() {
        let e = parse("<r a='it is \"fine\"'/>").unwrap();
        assert_eq!(e.attr("a"), Some("it is \"fine\""));
    }

    #[test]
    fn xml_prefix_predeclared() {
        let e = parse(r#"<r xml:lang="en"/>"#).unwrap();
        assert_eq!(
            e.attr_ns("http://www.w3.org/XML/1998/namespace", "lang"),
            Some("en")
        );
    }

    #[test]
    fn parsed_lists_hold_no_spare_capacity() {
        fn check(e: &Element) {
            assert_eq!(
                e.children.capacity(),
                e.children.len(),
                "<{}>",
                e.name.local
            );
            assert_eq!(e.attrs.capacity(), e.attrs.len(), "<{}>", e.name.local);
            e.elements().for_each(check);
        }
        let doc = r#"<s:Envelope xmlns:s="urn:s" xmlns:a="urn:a"><s:Header><a:To>x</a:To><a:Action>y</a:Action><a:MessageID>z</a:MessageID></s:Header><s:Body><ev a="1" b="2" c="3" d="4" e="5"><k>1</k><k>2</k><k>3</k><k>4</k><k>5</k><k>6</k><!-- c --><?p d?>tail<e/></ev></s:Body></s:Envelope>"#;
        // Twice: the second parse reuses the first one's scratch.
        for _ in 0..2 {
            check(&parse(doc).unwrap());
        }
    }

    #[test]
    fn a_failed_parse_leaves_no_scratch_behind() {
        assert!(parse(r#"<r xmlns:p="urn:p"><a x="1"><b p:y="2">t<c"#).is_err());
        let e = parse(r#"<r><a x="1"/>t</r>"#).unwrap();
        assert_eq!(e.children.len(), 2);
        assert_eq!(e.child("a").unwrap().attrs.len(), 1);
    }

    #[test]
    fn multibyte_text_and_names() {
        let e = parse("<r>héllo — 世界</r>").unwrap();
        assert_eq!(e.text(), "héllo — 世界");
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let depth = MAX_DEPTH + 10;
        let mut doc = String::new();
        for i in 0..depth {
            doc.push_str(&format!("<e{i}>"));
        }
        for i in (0..depth).rev() {
            doc.push_str(&format!("</e{i}>"));
        }
        let err = parse(&doc).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Malformed);
        assert!(err.detail.contains("nesting"));
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let depth = MAX_DEPTH;
        let mut doc = String::new();
        for _ in 0..depth {
            doc.push_str("<e>");
        }
        for _ in 0..depth {
            doc.push_str("</e>");
        }
        assert!(parse(&doc).is_ok());
    }
}
