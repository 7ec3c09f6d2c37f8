//! Compile-once lowering of parsed XPath into a reusable program.
//!
//! [`CompiledFilter::compile`] performs, once at `Subscribe` time, all
//! of the work the old interpreter repeated on every publication:
//!
//! * **prefix resolution** — every name test's namespace prefix is
//!   resolved against the subscription's bindings and replaced by the
//!   interned URI (an unbound prefix becomes a test that statically
//!   matches nothing, preserving interpreter semantics);
//! * **interning** — local names and URIs become [`Interned`] handles
//!   so evaluation compares pointers, not strings;
//! * **function resolution** — call sites are lowered from
//!   `(name, arity)` strings to an enum dispatch;
//! * **constant folding** — context-free pure subexpressions
//!   (`2 * 3 < 7`, `contains('ab', 'a')`, `not(false())`, ...) are
//!   evaluated at compile time and replaced by their value;
//! * **fact extraction** — conservative facts the registry's match
//!   index uses to reject candidates without running the filter: a
//!   required-name bitset and, for simple `path = 'literal'` filters,
//!   a canonical literal-equality form;
//! * **program identity** — a hash of the lowered, folded program, so
//!   filters that compile to the same program compare equal however
//!   their source text was spelled (see [`CompiledFilter`]'s `Eq`).

use crate::ast::{Axis, BinOp, Expr, LocationPath, NodeTest, Step};
use crate::eval::{v_bool, EvalDoc, V};
use crate::parser::{self, XPathError};
use crate::program::{
    const_verdict, name_bit, run_path_strings, run_root, CExpr, CPath, CStep, CTest, Func, Num,
};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;
use wsm_xml::intern::{intern, Interned};
use wsm_xml::{Element, QName};

/// A filter compiled once and evaluated against many documents.
///
/// Produced by [`CompiledFilter::compile`]; evaluated either directly
/// against an [`Element`] or — the broker fast path — against a shared
/// [`EvalDoc`] so one document index serves every candidate filter.
///
/// Equality and hashing are by *program*, not by source text: two
/// filters are equal iff their lowered, folded programs are, so
/// `/event[@sev>3]` equals `/event[ @sev > 3 ]` and `/a > 2 + 1` equals
/// `/a > 3`, while one text compiled under bindings that map a prefix
/// to different URIs gives two different filters. Equal filters select
/// the same documents, which is what lets a registry keep one shared
/// program per distinct filter. The hash is computed once, at compile
/// time.
#[derive(Debug, Clone)]
pub struct CompiledFilter {
    source: String,
    prog: CExpr,
    /// Hash of `prog` under [`identity_keys`]: the O(1) half of
    /// program identity.
    identity: u64,
    required_mask: u64,
    literal_eq: Option<LiteralEq>,
}

impl PartialEq for CompiledFilter {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other) || (self.identity == other.identity && self.prog == other.prog)
    }
}

impl Eq for CompiledFilter {}

impl Hash for CompiledFilter {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.identity)
    }
}

/// Canonical form of a `path = 'literal'` filter.
#[derive(Debug, Clone)]
pub(crate) struct LiteralEq {
    /// Canonical path text, e.g. `/event/source` or `/event/@sev`,
    /// with namespaced names in Clark form. Filters with equal
    /// signatures select the same nodes, so a match index can evaluate
    /// one representative path per signature and bucket subscriptions
    /// by expected value.
    pub(crate) signature: String,
    /// The literal the node's string-value must equal.
    pub(crate) value: String,
    /// The compiled path, for evaluating the representative.
    pub(crate) path: CPath,
}

impl CompiledFilter {
    /// Compile `source` with no namespace bindings.
    pub fn compile(source: &str) -> Result<Self, XPathError> {
        Self::compile_with_namespaces(source, &[])
    }

    /// Compile with namespace bindings for prefixes used in the
    /// expression (as carried by the subscription message's in-scope
    /// declarations). Prefixes are resolved here, once.
    pub fn compile_with_namespaces(
        source: &str,
        namespaces: &[(&str, &str)],
    ) -> Result<Self, XPathError> {
        let ast = parser::parse(source)?;
        Ok(Self::from_ast(source, &ast, namespaces))
    }

    /// Lower an already-parsed expression.
    pub fn from_ast(source: &str, ast: &Expr, namespaces: &[(&str, &str)]) -> Self {
        let lowered = lower_expr(ast, namespaces);
        let prog = fold(lowered);
        let required_mask = required_names(&prog);
        let literal_eq = extract_literal_eq(&prog);
        CompiledFilter {
            source: source.to_string(),
            identity: identity_keys().hash_one(&prog),
            prog,
            required_mask,
            literal_eq,
        }
    }

    /// The original expression text. Equal filters may differ here: a
    /// program shared by equality carries one of its spellings.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Evaluate against a shared pre-indexed document.
    pub fn evaluate_doc(&self, doc: &EvalDoc) -> Value {
        doc.idx.value(run_root(doc, &self.prog))
    }

    /// Filter semantics against a shared pre-indexed document: the
    /// boolean value of the result, with no `Value` materialization.
    pub fn matches_doc(&self, doc: &EvalDoc) -> bool {
        if let Some(b) = const_verdict(&self.prog) {
            return b;
        }
        v_bool(&run_root(doc, &self.prog))
    }

    /// Evaluate against `root`, indexing the document first.
    /// Single-use convenience; batch callers should share an
    /// [`EvalDoc`].
    pub fn evaluate(&self, root: &Element) -> Value {
        self.evaluate_doc(&EvalDoc::new(root))
    }

    /// Filter semantics against `root` (see [`Self::matches_doc`]).
    pub fn matches(&self, root: &Element) -> bool {
        self.matches_doc(&EvalDoc::new(root))
    }

    /// Name-presence bits this filter requires to be true.
    ///
    /// Sound prefilter: if `required_mask() & doc.name_mask() !=
    /// required_mask()`, then `matches_doc(doc)` is `false`. The
    /// converse does not hold — a passing mask only makes the filter a
    /// candidate.
    pub fn required_mask(&self) -> u64 {
        self.required_mask
    }

    /// Can this filter possibly match `doc`, judged by names alone?
    pub fn may_match(&self, doc: &EvalDoc) -> bool {
        self.required_mask & doc.name_mask() == self.required_mask
    }

    /// If this filter is exactly `path = 'literal'` over a simple
    /// absolute child path (optionally ending in an attribute), its
    /// `(signature, literal)` pair. Filters sharing a signature can be
    /// bucketed by literal and decided with one path evaluation.
    pub fn literal_eq(&self) -> Option<(&str, &str)> {
        self.literal_eq
            .as_ref()
            .map(|le| (le.signature.as_str(), le.value.as_str()))
    }

    /// Evaluate the literal-equality path against a document, returning
    /// the string-values of the selected nodes, borrowed from the
    /// document where it can lend them. Empty when this filter has no
    /// literal-equality form.
    pub fn eval_literal_path<'a>(&self, doc: &EvalDoc<'a>) -> Vec<Cow<'a, str>> {
        match &self.literal_eq {
            Some(le) => run_path_strings(doc, &le.path),
            None => Vec::new(),
        }
    }
}

/// One random hash key per process, like a `HashMap`'s own: filters
/// come from subscribers, and fixed keys would let crafted programs
/// collide in a registry's program table.
fn identity_keys() -> &'static RandomState {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new)
}

// -------------------------------------------------------------- lowering

fn resolve(namespaces: &[(&str, &str)], prefix: &str) -> Option<Interned> {
    namespaces
        .iter()
        .find(|(p, _)| *p == prefix)
        .map(|(_, u)| intern(u))
}

fn lower_expr(e: &Expr, ns: &[(&str, &str)]) -> CExpr {
    match e {
        Expr::Number(n) => CExpr::Number(Num(*n)),
        Expr::Literal(s) => CExpr::Literal(s.clone()),
        // No variable bindings are defined by the WS filter dialects;
        // an unbound variable selects nothing.
        Expr::Variable(_) => CExpr::EmptySet,
        Expr::Negate(x) => CExpr::Negate(Box::new(lower_expr(x, ns))),
        Expr::Binary(op, l, r) => CExpr::Binary(
            *op,
            Box::new(lower_expr(l, ns)),
            Box::new(lower_expr(r, ns)),
        ),
        Expr::Call { name, args } => CExpr::Call(
            Func::resolve(name, args.len()),
            args.iter().map(|a| lower_expr(a, ns)).collect(),
        ),
        Expr::Path(lp) => CExpr::Path(lower_path(lp, ns)),
        Expr::Filtered {
            primary,
            predicates,
            path,
        } => CExpr::Filtered {
            primary: Box::new(lower_expr(primary, ns)),
            predicates: predicates.iter().map(|p| lower_expr(p, ns)).collect(),
            path: path.as_ref().map(|lp| lower_path(lp, ns)),
        },
    }
}

fn lower_path(lp: &LocationPath, ns: &[(&str, &str)]) -> CPath {
    CPath {
        absolute: lp.absolute,
        steps: lp.steps.iter().map(|s| lower_step(s, ns)).collect(),
    }
}

fn lower_step(step: &Step, ns: &[(&str, &str)]) -> CStep {
    CStep {
        axis: step.axis,
        test: lower_test(&step.test, ns),
        predicates: step.predicates.iter().map(|p| lower_expr(p, ns)).collect(),
    }
}

fn lower_test(test: &NodeTest, ns: &[(&str, &str)]) -> CTest {
    match test {
        NodeTest::AnyNode => CTest::AnyNode,
        NodeTest::Text => CTest::Text,
        NodeTest::Comment => CTest::Comment,
        NodeTest::AnyName => CTest::AnyName,
        NodeTest::NamespaceWildcard(prefix) => match resolve(ns, prefix) {
            Some(uri) => CTest::NsWildcard(uri),
            // Unbound prefix: matches nothing, resolved statically.
            None => CTest::Nothing,
        },
        NodeTest::Name { prefix, local } => match prefix {
            // XPath 1.0: an unprefixed name test selects nodes in NO
            // namespace (there is no default namespace for XPath).
            None => CTest::Name {
                ns: None,
                local: intern(local),
            },
            Some(p) => match resolve(ns, p) {
                Some(uri) => CTest::Name {
                    ns: Some(uri),
                    local: intern(local),
                },
                None => CTest::Nothing,
            },
        },
    }
}

// -------------------------------------------------------------- folding

/// Is `e` free of document, position and size context — i.e. does it
/// evaluate to the same scalar for every evaluation context?
fn is_pure(e: &CExpr) -> bool {
    match e {
        CExpr::Number(_) | CExpr::Literal(_) | CExpr::Bool(_) => true,
        // The empty node-set is constant too, but folding it would turn
        // a node-set into a scalar and change comparison semantics.
        CExpr::EmptySet => false,
        // Union yields a node-set; everything else below yields B/N/S.
        CExpr::Binary(BinOp::Union, _, _) => false,
        CExpr::Binary(_, l, r) => is_pure(l) && is_pure(r),
        CExpr::Negate(x) => is_pure(x),
        CExpr::Call(f, args) => f.is_context_free() && args.iter().all(is_pure),
        CExpr::Path(_) | CExpr::Filtered { .. } => false,
    }
}

/// Fold constant subexpressions bottom-up. Pure subtrees are evaluated
/// against a dummy document (their value cannot depend on it) and
/// replaced by a literal program node.
fn fold(e: CExpr) -> CExpr {
    let rebuilt = match e {
        CExpr::Negate(x) => CExpr::Negate(Box::new(fold(*x))),
        CExpr::Binary(op, l, r) => CExpr::Binary(op, Box::new(fold(*l)), Box::new(fold(*r))),
        CExpr::Call(f, args) => CExpr::Call(f, args.into_iter().map(fold).collect()),
        CExpr::Path(mut p) => {
            for step in &mut p.steps {
                let preds = std::mem::take(&mut step.predicates);
                step.predicates = preds.into_iter().map(fold).collect();
            }
            CExpr::Path(p)
        }
        CExpr::Filtered {
            primary,
            predicates,
            path,
        } => CExpr::Filtered {
            primary: Box::new(fold(*primary)),
            predicates: predicates.into_iter().map(fold).collect(),
            path: path.map(|mut p| {
                for step in &mut p.steps {
                    let preds = std::mem::take(&mut step.predicates);
                    step.predicates = preds.into_iter().map(fold).collect();
                }
                p
            }),
        },
        leaf => leaf,
    };
    let already_leaf = matches!(
        rebuilt,
        CExpr::Number(_) | CExpr::Literal(_) | CExpr::Bool(_)
    );
    if already_leaf || !is_pure(&rebuilt) {
        return rebuilt;
    }
    let dummy = Element::new(QName::local("x"));
    let doc = EvalDoc::new(&dummy);
    let folded = match run_root(&doc, &rebuilt) {
        V::B(b) => Some(CExpr::Bool(b)),
        V::N(n) => Some(CExpr::Number(Num(n))),
        V::S(s) => Some(CExpr::Literal(s.into_owned())),
        // Pure expressions never yield node-sets; keep the program
        // unchanged if that invariant is ever violated.
        V::Nodes(_) => None,
    };
    folded.unwrap_or(rebuilt)
}

// ------------------------------------------------------- fact extraction

/// Names that must be present in a document for the program's boolean
/// value to possibly be `true`.
///
/// Conservative by construction: every rule only fires where "result is
/// true ⇒ the path selected at least one node". Comparisons against
/// booleans are deliberately excluded (`/a = false()` is *true* when
/// `/a` is absent), as are `not(...)`, `!=` between node-sets, and any
/// shape not listed.
fn required_names(e: &CExpr) -> u64 {
    match e {
        // A top-level path: truth requires a selected node.
        CExpr::Path(p) => path_names(p),
        CExpr::Binary(BinOp::And, l, r) => required_names(l) | required_names(r),
        // Either branch may carry the truth, so only names required by
        // both are required overall.
        CExpr::Binary(BinOp::Or, l, r) => required_names(l) & required_names(r),
        // Existential comparison of a node-set against a number or
        // string literal: true requires a node on the path side. This
        // holds for `!=` too (some node must differ).
        CExpr::Binary(
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq,
            l,
            r,
        ) => match (&**l, &**r) {
            (CExpr::Path(p), CExpr::Number(_) | CExpr::Literal(_))
            | (CExpr::Number(_) | CExpr::Literal(_), CExpr::Path(p)) => path_names(p),
            _ => 0,
        },
        CExpr::Call(Func::Boolean, args) => args.first().map(required_names).unwrap_or(0),
        _ => 0,
    }
}

/// All name-test bits along a path's steps (plus requirements of its
/// predicates). For the path to select anything, each named step must
/// match a node bearing that local name — on any axis — so the name
/// must appear somewhere in the document.
fn path_names(p: &CPath) -> u64 {
    let mut mask = 0u64;
    for step in &p.steps {
        if let CTest::Name { local, .. } = &step.test {
            mask |= name_bit(local);
        }
        for pred in &step.predicates {
            mask |= required_names(pred);
        }
    }
    mask
}

/// Recognize `path = 'literal'` (either operand order) where `path` is
/// absolute, uses only child steps with plain name tests — optionally a
/// final attribute step — and has no predicates.
fn extract_literal_eq(e: &CExpr) -> Option<LiteralEq> {
    let (path, value) = match e {
        CExpr::Binary(BinOp::Eq, l, r) => match (&**l, &**r) {
            (CExpr::Path(p), CExpr::Literal(s)) | (CExpr::Literal(s), CExpr::Path(p)) => (p, s),
            _ => return None,
        },
        _ => return None,
    };
    if !path.absolute || path.steps.is_empty() {
        return None;
    }
    let mut signature = String::new();
    let last = path.steps.len() - 1;
    for (i, step) in path.steps.iter().enumerate() {
        if !step.predicates.is_empty() {
            return None;
        }
        let attr_ok = i == last && step.axis == Axis::Attribute;
        if step.axis != Axis::Child && !attr_ok {
            return None;
        }
        let CTest::Name { ns, local } = &step.test else {
            return None;
        };
        signature.push('/');
        if step.axis == Axis::Attribute {
            signature.push('@');
        }
        if let Some(uri) = ns {
            signature.push('{');
            signature.push_str(uri);
            signature.push('}');
        }
        signature.push_str(local);
    }
    Some(LiteralEq {
        signature,
        value: value.clone(),
        path: path.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_xml::parse as xml;

    fn cf(src: &str) -> CompiledFilter {
        CompiledFilter::compile(src).unwrap()
    }

    #[test]
    fn compiled_matches_agree_with_interpreter() {
        let doc = xml("<event><severity>5</severity><source>gridftp-7</source></event>").unwrap();
        let shared = EvalDoc::new(&doc);
        for (src, want) in [
            ("/event/severity > 3", true),
            ("/event/severity > 7", false),
            ("contains(/event/source, 'gridftp')", true),
            ("/event/missing", false),
            ("not(/event/missing)", true),
        ] {
            assert_eq!(cf(src).matches_doc(&shared), want, "{src}");
        }
    }

    #[test]
    fn constant_folding_collapses_pure_subtrees() {
        // The whole expression is context-free: it folds to a constant
        // verdict that never touches the document.
        let f = cf("2 * 3 < 7 and contains('abc', 'b')");
        assert_eq!(const_verdict_of(&f), Some(true));
        let f2 = cf("1 > 2");
        assert_eq!(const_verdict_of(&f2), Some(false));
        // Context-dependent parts survive.
        let f3 = cf("/a/b = 'x'");
        assert_eq!(const_verdict_of(&f3), None);
    }

    fn const_verdict_of(f: &CompiledFilter) -> Option<bool> {
        const_verdict(&f.prog)
    }

    #[test]
    fn folded_constants_keep_value_semantics() {
        let doc = xml("<r/>").unwrap();
        assert_eq!(cf("2 + 3 * 4").evaluate(&doc), Value::Number(14.0));
        assert_eq!(
            cf("concat('a', 'b', 'c')").evaluate(&doc),
            Value::String("abc".into())
        );
        assert_eq!(cf("not(1 = 2)").evaluate(&doc), Value::Boolean(true));
    }

    #[test]
    fn prefixes_resolve_at_compile_time() {
        let doc = xml(r#"<e:ev xmlns:e="urn:ev"><e:kind>done</e:kind></e:ev>"#).unwrap();
        let f =
            CompiledFilter::compile_with_namespaces("/n:ev/n:kind = 'done'", &[("n", "urn:ev")])
                .unwrap();
        assert!(f.matches(&doc));
        let wrong =
            CompiledFilter::compile_with_namespaces("/n:ev/n:kind = 'done'", &[("n", "urn:other")])
                .unwrap();
        assert!(!wrong.matches(&doc));
        // Unbound prefix statically matches nothing.
        let unbound = CompiledFilter::compile("/n:ev").unwrap();
        let d2 = xml("<ev/>").unwrap();
        assert!(!unbound.matches(&d2));
    }

    #[test]
    fn required_mask_is_sound_and_useful() {
        let doc = xml("<event><severity>5</severity></event>").unwrap();
        let shared = EvalDoc::new(&doc);
        let hit = cf("/event/severity > 3");
        assert!(hit.may_match(&shared));
        assert!(hit.matches_doc(&shared));
        // A filter naming an absent element is rejected by mask alone.
        let miss = cf("/event/temperature > 3");
        assert!(!miss.may_match(&shared));
        // Boolean comparison must NOT require the path: /a = false()
        // is true when /a is absent.
        let absent_true = cf("/nope = false()");
        assert_eq!(absent_true.required_mask(), 0);
        assert!(absent_true.matches_doc(&shared));
        // Or-branches intersect; and-branches union.
        let either = cf("/event/severity > 3 or /alarm");
        assert!(either.may_match(&shared));
        let both = cf("/event and /alarm");
        assert!(!both.may_match(&shared));
    }

    #[test]
    fn literal_eq_extraction() {
        let f = cf("/event/source = 'gridftp-7'");
        let (sig, val) = f.literal_eq().expect("literal form");
        assert_eq!(sig, "/event/source");
        assert_eq!(val, "gridftp-7");
        // Flipped operand order and attribute tails normalize too.
        let flipped = cf("'x' = /a/@k");
        assert_eq!(flipped.literal_eq().unwrap().0, "/a/@k");
        // Number comparisons, predicates and descendants do not qualify.
        assert!(cf("/a/b = 7").literal_eq().is_none());
        assert!(cf("/a[b]/c = 'x'").literal_eq().is_none());
        assert!(cf("//a = 'x'").literal_eq().is_none());
        assert!(cf("/a != 'x'").literal_eq().is_none());
    }

    #[test]
    fn literal_path_evaluation_matches_filter() {
        let f = cf("/event/source = 'gridftp-7'");
        let hit = xml("<event><source>gridftp-7</source></event>").unwrap();
        let miss = xml("<event><source>other</source></event>").unwrap();
        let hd = EvalDoc::new(&hit);
        let md = EvalDoc::new(&miss);
        assert_eq!(f.eval_literal_path(&hd), vec!["gridftp-7"]);
        assert!(f.matches_doc(&hd));
        assert_eq!(f.eval_literal_path(&md), vec!["other"]);
        assert!(!f.matches_doc(&md));
    }

    #[test]
    fn identity_is_the_folded_program() {
        // Spacing, operand spelling and foldable constants vanish in
        // the lowered program: one identity.
        let spaced = [
            ("/event[@sev>3]", "/event[ @sev > 3 ]"),
            ("/event[@sev>3]", "/child::event[attribute::sev > 3]"),
            ("/a > 2 + 1", "/a>3"),
            ("/e/source = 'x'", "/e/source='x'"),
        ];
        for (a, b) in spaced {
            assert_eq!(cf(a), cf(b), "{a} vs {b}");
            assert_eq!(cf(a).identity, cf(b).identity, "{a} vs {b}");
        }
        // A different literal or number is a different program.
        assert_ne!(cf("/e/source = 'x'"), cf("/e/source = 'y'"));
        assert_ne!(cf("/event[@sev>3]"), cf("/event[@sev>4]"));
        assert_ne!(cf("/a div 0"), cf("/a div -0"), "-0 is not 0");
        // The same text under bindings to different URIs is not.
        let under = |uri| {
            CompiledFilter::compile_with_namespaces("/n:ev/n:kind = 'done'", &[("n", uri)]).unwrap()
        };
        assert_eq!(under("urn:ev"), under("urn:ev"));
        assert_ne!(under("urn:ev"), under("urn:other"));
        assert_ne!(under("urn:ev").identity, under("urn:other").identity);
        // Another prefix bound to the same URI names the same nodes.
        let other_prefix =
            CompiledFilter::compile_with_namespaces("/m:ev/m:kind = 'done'", &[("m", "urn:ev")])
                .unwrap();
        assert_eq!(under("urn:ev"), other_prefix);
    }

    #[test]
    fn shared_doc_serves_many_filters() {
        let doc = xml("<event><severity>5</severity><source>gridftp-7</source></event>").unwrap();
        let shared = EvalDoc::new(&doc);
        let filters = [
            cf("/event/severity > 3"),
            cf("/event/source = 'gridftp-7'"),
            cf("starts-with(/event/source, 'grid')"),
        ];
        assert!(filters.iter().all(|f| f.matches_doc(&shared)));
    }
}
