//! Evaluation of compiled expressions over `wsm-xml` trees.
//!
//! The tree is first indexed into an arena with parent links and
//! document-order ids, which is what gives us the `parent`, `ancestor`
//! and sibling axes plus cheap document-order node-set merging.

use crate::ast::{Axis, BinOp, Expr, LocationPath, NodeTest, Step};
use crate::program::name_bit;
use crate::value::{number_to_string, str_to_number, Value};
use std::borrow::Cow;
use wsm_xml::tree::{Attribute, Node};
use wsm_xml::{Element, QName};

/// Evaluate `expr` against the document whose root element is `root`.
pub fn evaluate(expr: &Expr, root: &Element) -> Value {
    evaluate_with_namespaces(expr, root, &[])
}

/// Evaluate with namespace bindings for prefixes in the expression.
pub fn evaluate_with_namespaces(expr: &Expr, root: &Element, namespaces: &[(&str, &str)]) -> Value {
    let doc = DocIndex::build(root);
    let ctx = Ctx {
        doc: &doc,
        namespaces,
        node: ROOT,
        position: 1,
        size: 1,
    };
    match eval(&ctx, expr) {
        V::B(b) => Value::Boolean(b),
        V::N(n) => Value::Number(n),
        V::S(s) => Value::String(s),
        V::Nodes(ids) => Value::NodeSet(
            ids.iter()
                .map(|&id| doc.string_value(id).into_owned())
                .collect(),
        ),
    }
}

pub(crate) const ROOT: usize = 0;

/// One indexed node.
pub(crate) enum NodeData<'a> {
    /// The document root (parent of the document element).
    Root,
    /// An element.
    Element { el: &'a Element, parent: usize },
    /// An attribute.
    Attr { attr: &'a Attribute, parent: usize },
    /// A text or CDATA node.
    Text { text: &'a str, parent: usize },
    /// A comment.
    Comment { text: &'a str, parent: usize },
}

pub(crate) struct DocIndex<'a> {
    pub(crate) nodes: Vec<NodeData<'a>>,
    /// Children (element/text/comment — not attributes) per node id.
    pub(crate) children: Vec<Vec<usize>>,
    /// Attribute node ids per node id.
    pub(crate) attrs: Vec<Vec<usize>>,
    /// Name-presence bitset: the OR of [`name_bit`] over every element
    /// and attribute local name in the document. A compiled filter
    /// whose required mask is not a subset of this can never match.
    pub(crate) name_mask: u64,
}

impl<'a> DocIndex<'a> {
    pub(crate) fn build(root: &'a Element) -> Self {
        let mut idx = DocIndex {
            nodes: Vec::new(),
            children: Vec::new(),
            attrs: Vec::new(),
            name_mask: 0,
        };
        idx.push(NodeData::Root);
        let root_id = idx.add_element(root, ROOT);
        idx.children[ROOT].push(root_id);
        idx
    }

    fn push(&mut self, data: NodeData<'a>) -> usize {
        self.nodes.push(data);
        self.children.push(Vec::new());
        self.attrs.push(Vec::new());
        self.nodes.len() - 1
    }

    fn add_element(&mut self, el: &'a Element, parent: usize) -> usize {
        let id = self.push(NodeData::Element { el, parent });
        self.name_mask |= name_bit(&el.name.local);
        for a in &el.attrs {
            self.name_mask |= name_bit(&a.name.local);
            let aid = self.push(NodeData::Attr {
                attr: a,
                parent: id,
            });
            self.attrs[id].push(aid);
        }
        for c in &el.children {
            let cid = match c {
                Node::Element(child) => self.add_element(child, id),
                Node::Shared(shared) => self.add_element(shared.element(), id),
                Node::Text(t) | Node::CData(t) => self.push(NodeData::Text {
                    text: t,
                    parent: id,
                }),
                Node::Comment(t) => self.push(NodeData::Comment {
                    text: t,
                    parent: id,
                }),
                Node::Pi { .. } => continue,
            };
            self.children[id].push(cid);
        }
        id
    }

    pub(crate) fn parent(&self, id: usize) -> Option<usize> {
        match &self.nodes[id] {
            NodeData::Root => None,
            NodeData::Element { parent, .. }
            | NodeData::Attr { parent, .. }
            | NodeData::Text { parent, .. }
            | NodeData::Comment { parent, .. } => Some(*parent),
        }
    }

    /// The XPath string-value of a node, borrowed from the document
    /// for attributes, text and comments, and for elements whose only
    /// child is one text node — the common shape of a filtered field.
    /// Mixed or nested content is concatenated into a new string.
    pub(crate) fn string_value(&self, id: usize) -> Cow<'a, str> {
        match &self.nodes[id] {
            NodeData::Root => match self.children[ROOT].first() {
                Some(&r) => self.string_value(r),
                None => Cow::Borrowed(""),
            },
            NodeData::Element { el, .. } => match el.children.as_slice() {
                [] => Cow::Borrowed(""),
                [Node::Text(t) | Node::CData(t)] => Cow::Borrowed(t),
                _ => Cow::Owned(el.deep_text()),
            },
            NodeData::Attr { attr, .. } => Cow::Borrowed(&attr.value),
            NodeData::Text { text, .. } | NodeData::Comment { text, .. } => Cow::Borrowed(text),
        }
    }

    fn expanded_name(&self, id: usize) -> Option<(Option<&str>, &str)> {
        match &self.nodes[id] {
            NodeData::Element { el, .. } => Some((el.name.ns.as_deref(), &el.name.local)),
            NodeData::Attr { attr, .. } => Some((attr.name.ns.as_deref(), &attr.name.local)),
            _ => None,
        }
    }

    /// The interned name of an element or attribute node.
    pub(crate) fn qname(&self, id: usize) -> Option<&QName> {
        match &self.nodes[id] {
            NodeData::Element { el, .. } => Some(&el.name),
            NodeData::Attr { attr, .. } => Some(&attr.name),
            _ => None,
        }
    }
}

/// A pre-indexed document shared across many compiled-filter
/// evaluations of one publication.
///
/// Building the arena index is the per-document cost the old
/// `evaluate()` path paid once *per filter*; wrapping it here lets the
/// broker's match stage pay it once per publication regardless of how
/// many candidate filters run.
pub struct EvalDoc<'a> {
    pub(crate) idx: DocIndex<'a>,
}

impl<'a> EvalDoc<'a> {
    /// Index the document rooted at `root`.
    pub fn new(root: &'a Element) -> Self {
        EvalDoc {
            idx: DocIndex::build(root),
        }
    }

    /// The document's name-presence bitset (see
    /// [`CompiledFilter::required_mask`](crate::CompiledFilter::required_mask)).
    pub fn name_mask(&self) -> u64 {
        self.idx.name_mask
    }
}

/// Internal value with live node ids.
pub(crate) enum V {
    B(bool),
    N(f64),
    S(String),
    Nodes(Vec<usize>),
}

struct Ctx<'a, 'd> {
    doc: &'d DocIndex<'a>,
    namespaces: &'d [(&'d str, &'d str)],
    node: usize,
    position: usize,
    size: usize,
}

impl<'a, 'd> Ctx<'a, 'd> {
    fn with_node(&self, node: usize, position: usize, size: usize) -> Ctx<'a, 'd> {
        Ctx {
            doc: self.doc,
            namespaces: self.namespaces,
            node,
            position,
            size,
        }
    }

    fn resolve_prefix(&self, prefix: &str) -> Option<&str> {
        self.namespaces
            .iter()
            .find(|(p, _)| *p == prefix)
            .map(|(_, u)| *u)
    }
}

fn eval(ctx: &Ctx, expr: &Expr) -> V {
    match expr {
        Expr::Number(n) => V::N(*n),
        Expr::Literal(s) => V::S(s.clone()),
        // No variable bindings are defined by the WS filter dialects;
        // an unbound variable selects nothing.
        Expr::Variable(_) => V::Nodes(Vec::new()),
        Expr::Negate(e) => V::N(-to_number(ctx, eval(ctx, e))),
        Expr::Binary(op, l, r) => eval_binary(ctx, *op, l, r),
        Expr::Call { name, args } => eval_call(ctx, name, args),
        Expr::Path(lp) => V::Nodes(eval_path(ctx, lp, None)),
        Expr::Filtered {
            primary,
            predicates,
            path,
        } => {
            let base = match eval(ctx, primary) {
                V::Nodes(ids) => ids,
                // Predicating a non-node-set is a type error in XPath;
                // we yield the empty node-set.
                _ => Vec::new(),
            };
            let mut filtered = base;
            for pred in predicates {
                filtered = apply_predicate(ctx, filtered, pred, false);
            }
            match path {
                Some(lp) => V::Nodes(eval_path(ctx, lp, Some(filtered))),
                None => V::Nodes(filtered),
            }
        }
    }
}

/// Numeric coercion against a document index. Shared by the AST
/// interpreter and the compiled-program evaluator.
pub(crate) fn v_number(doc: &DocIndex, v: V) -> f64 {
    match v {
        V::B(true) => 1.0,
        V::B(false) => 0.0,
        V::N(n) => n,
        V::S(s) => str_to_number(&s),
        V::Nodes(ids) => match ids.first() {
            Some(&id) => str_to_number(&doc.string_value(id)),
            None => f64::NAN,
        },
    }
}

/// String coercion against a document index.
pub(crate) fn v_string(doc: &DocIndex, v: V) -> String {
    match v {
        V::B(b) => b.to_string(),
        V::N(n) => number_to_string(n),
        V::S(s) => s,
        V::Nodes(ids) => match ids.first() {
            Some(&id) => doc.string_value(id).into_owned(),
            None => String::new(),
        },
    }
}

/// Boolean coercion (needs no document).
pub(crate) fn v_bool(v: &V) -> bool {
    match v {
        V::B(b) => *b,
        V::N(n) => *n != 0.0 && !n.is_nan(),
        V::S(s) => !s.is_empty(),
        V::Nodes(ids) => !ids.is_empty(),
    }
}

fn to_number(ctx: &Ctx, v: V) -> f64 {
    v_number(ctx.doc, v)
}

fn to_string_v(ctx: &Ctx, v: V) -> String {
    v_string(ctx.doc, v)
}

fn to_bool(_ctx: &Ctx, v: &V) -> bool {
    v_bool(v)
}

fn eval_binary(ctx: &Ctx, op: BinOp, l: &Expr, r: &Expr) -> V {
    match op {
        BinOp::Or => {
            if to_bool(ctx, &eval(ctx, l)) {
                return V::B(true);
            }
            V::B(to_bool(ctx, &eval(ctx, r)))
        }
        BinOp::And => {
            if !to_bool(ctx, &eval(ctx, l)) {
                return V::B(false);
            }
            V::B(to_bool(ctx, &eval(ctx, r)))
        }
        BinOp::Eq | BinOp::NotEq => V::B(compare_eq(
            ctx.doc,
            op == BinOp::NotEq,
            eval(ctx, l),
            eval(ctx, r),
        )),
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            V::B(compare_rel(ctx.doc, op, eval(ctx, l), eval(ctx, r)))
        }
        BinOp::Add => V::N(to_number(ctx, eval(ctx, l)) + to_number(ctx, eval(ctx, r))),
        BinOp::Sub => V::N(to_number(ctx, eval(ctx, l)) - to_number(ctx, eval(ctx, r))),
        BinOp::Mul => V::N(to_number(ctx, eval(ctx, l)) * to_number(ctx, eval(ctx, r))),
        BinOp::Div => V::N(to_number(ctx, eval(ctx, l)) / to_number(ctx, eval(ctx, r))),
        BinOp::Mod => V::N(to_number(ctx, eval(ctx, l)) % to_number(ctx, eval(ctx, r))),
        BinOp::Union => {
            let mut ids = match eval(ctx, l) {
                V::Nodes(i) => i,
                _ => Vec::new(),
            };
            if let V::Nodes(more) = eval(ctx, r) {
                ids.extend(more);
            }
            ids.sort_unstable();
            ids.dedup();
            V::Nodes(ids)
        }
    }
}

/// XPath 1.0 `=`/`!=` semantics including existential node-set rules.
pub(crate) fn compare_eq(doc: &DocIndex, negate: bool, l: V, r: V) -> bool {
    let res = match (&l, &r) {
        (V::Nodes(a), V::Nodes(b)) => {
            let bs: Vec<Cow<str>> = b.iter().map(|&id| doc.string_value(id)).collect();
            a.iter().any(|&ia| {
                let sa = doc.string_value(ia);
                bs.iter()
                    .any(|sb| if negate { *sb != sa } else { *sb == sa })
            })
        }
        (V::Nodes(a), V::N(n)) | (V::N(n), V::Nodes(a)) => a.iter().any(|&id| {
            let v = str_to_number(&doc.string_value(id));
            if negate {
                v != *n
            } else {
                v == *n
            }
        }),
        (V::Nodes(a), V::S(s)) | (V::S(s), V::Nodes(a)) => a.iter().any(|&id| {
            let v = doc.string_value(id);
            if negate {
                v != *s
            } else {
                v == *s
            }
        }),
        (V::Nodes(a), V::B(b)) | (V::B(b), V::Nodes(a)) => {
            let nb = !a.is_empty();
            if negate {
                nb != *b
            } else {
                nb == *b
            }
        }
        (V::B(_), _) | (_, V::B(_)) => {
            let (lb, rb) = (v_bool(&l), v_bool(&r));
            if negate {
                lb != rb
            } else {
                lb == rb
            }
        }
        (V::N(_), _) | (_, V::N(_)) => {
            let (ln, rn) = (num_of(doc, &l), num_of(doc, &r));
            if negate {
                ln != rn
            } else {
                ln == rn
            }
        }
        (V::S(a), V::S(b)) => {
            if negate {
                a != b
            } else {
                a == b
            }
        }
    };
    res
}

fn num_of(doc: &DocIndex, v: &V) -> f64 {
    match v {
        V::B(true) => 1.0,
        V::B(false) => 0.0,
        V::N(n) => *n,
        V::S(s) => str_to_number(s),
        V::Nodes(ids) => match ids.first() {
            Some(&id) => str_to_number(&doc.string_value(id)),
            None => f64::NAN,
        },
    }
}

pub(crate) fn compare_rel(doc: &DocIndex, op: BinOp, l: V, r: V) -> bool {
    let cmp = |a: f64, b: f64| match op {
        BinOp::Lt => a < b,
        BinOp::LtEq => a <= b,
        BinOp::Gt => a > b,
        BinOp::GtEq => a >= b,
        _ => unreachable!(),
    };
    match (&l, &r) {
        (V::Nodes(a), V::Nodes(b)) => a.iter().any(|&ia| {
            let na = str_to_number(&doc.string_value(ia));
            b.iter()
                .any(|&ib| cmp(na, str_to_number(&doc.string_value(ib))))
        }),
        (V::Nodes(a), _) => {
            let rn = num_of(doc, &r);
            a.iter()
                .any(|&id| cmp(str_to_number(&doc.string_value(id)), rn))
        }
        (_, V::Nodes(b)) => {
            let ln = num_of(doc, &l);
            b.iter()
                .any(|&id| cmp(ln, str_to_number(&doc.string_value(id))))
        }
        _ => cmp(num_of(doc, &l), num_of(doc, &r)),
    }
}

// ---------------------------------------------------------------- paths

fn eval_path(ctx: &Ctx, lp: &LocationPath, start: Option<Vec<usize>>) -> Vec<usize> {
    let mut current: Vec<usize> = match start {
        Some(ids) => ids,
        None if lp.absolute => vec![ROOT],
        None => vec![ctx.node],
    };
    for step in &lp.steps {
        let mut next: Vec<usize> = Vec::new();
        for &node in &current {
            let mut candidates = walk_axis(ctx.doc, node, step.axis).into_owned();
            candidates.retain(|&id| node_test_matches(ctx, id, step));
            // Predicates use proximity positions along the axis.
            for pred in &step.predicates {
                candidates = apply_predicate(ctx, candidates, pred, is_reverse_axis(step.axis));
            }
            next.extend(candidates);
        }
        next.sort_unstable();
        next.dedup();
        current = next;
    }
    current
}

pub(crate) fn is_reverse_axis(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf | Axis::PrecedingSibling
    )
}

/// Nodes on `axis` from `node`, in axis order (reverse axes are returned
/// nearest-first, which is their proximity order). The child and
/// attribute axes are lent straight from the index.
pub(crate) fn walk_axis<'d>(doc: &'d DocIndex, node: usize, axis: Axis) -> Cow<'d, [usize]> {
    let out = match axis {
        Axis::Child => return Cow::Borrowed(&doc.children[node]),
        Axis::Attribute => return Cow::Borrowed(&doc.attrs[node]),
        Axis::Descendant => {
            let mut out = Vec::new();
            descend(doc, node, &mut out);
            out
        }
        Axis::DescendantOrSelf => {
            let mut out = vec![node];
            descend(doc, node, &mut out);
            out
        }
        Axis::SelfAxis => vec![node],
        Axis::Parent => doc.parent(node).into_iter().collect(),
        Axis::Ancestor => {
            let mut out = Vec::new();
            let mut cur = doc.parent(node);
            while let Some(p) = cur {
                out.push(p);
                cur = doc.parent(p);
            }
            out
        }
        Axis::AncestorOrSelf => {
            let mut out = vec![node];
            let mut cur = doc.parent(node);
            while let Some(p) = cur {
                out.push(p);
                cur = doc.parent(p);
            }
            out
        }
        Axis::FollowingSibling => match doc.parent(node) {
            Some(p) => {
                let sibs = &doc.children[p];
                match sibs.iter().position(|&s| s == node) {
                    Some(i) => sibs[i + 1..].to_vec(),
                    None => Vec::new(), // attributes have no siblings
                }
            }
            None => Vec::new(),
        },
        Axis::PrecedingSibling => match doc.parent(node) {
            Some(p) => {
                let sibs = &doc.children[p];
                match sibs.iter().position(|&s| s == node) {
                    Some(i) => sibs[..i].iter().rev().copied().collect(),
                    None => Vec::new(),
                }
            }
            None => Vec::new(),
        },
    };
    Cow::Owned(out)
}

fn descend(doc: &DocIndex, node: usize, out: &mut Vec<usize>) {
    for &c in &doc.children[node] {
        out.push(c);
        descend(doc, c, out);
    }
}

fn node_test_matches(ctx: &Ctx, id: usize, step: &Step) -> bool {
    let doc = ctx.doc;
    let is_attr_axis = step.axis == Axis::Attribute;
    match &step.test {
        NodeTest::AnyNode => {
            // On the attribute axis the principal node type is attributes;
            // node() there still means any attribute node.
            if is_attr_axis {
                matches!(doc.nodes[id], NodeData::Attr { .. })
            } else {
                true
            }
        }
        NodeTest::Text => matches!(doc.nodes[id], NodeData::Text { .. }),
        NodeTest::Comment => matches!(doc.nodes[id], NodeData::Comment { .. }),
        NodeTest::AnyName => {
            if is_attr_axis {
                matches!(doc.nodes[id], NodeData::Attr { .. })
            } else {
                matches!(doc.nodes[id], NodeData::Element { .. })
            }
        }
        NodeTest::NamespaceWildcard(prefix) => {
            let want = ctx.resolve_prefix(prefix);
            if want.is_none() {
                return false;
            }
            let principal = if is_attr_axis {
                matches!(doc.nodes[id], NodeData::Attr { .. })
            } else {
                matches!(doc.nodes[id], NodeData::Element { .. })
            };
            principal && doc.expanded_name(id).is_some_and(|(ns, _)| ns == want)
        }
        NodeTest::Name { prefix, local } => {
            let principal = if is_attr_axis {
                matches!(doc.nodes[id], NodeData::Attr { .. })
            } else {
                matches!(doc.nodes[id], NodeData::Element { .. })
            };
            if !principal {
                return false;
            }
            let want_ns: Option<&str> = match prefix {
                // XPath 1.0: an unprefixed name test selects nodes in NO
                // namespace (there is no default namespace for XPath).
                None => None,
                Some(p) => match ctx.resolve_prefix(p) {
                    Some(u) => Some(u),
                    None => return false, // unbound prefix matches nothing
                },
            };
            doc.expanded_name(id)
                .is_some_and(|(ns, l)| l == local && ns == want_ns)
        }
    }
}

/// Filter `candidates` by `pred`, giving each candidate its proximity
/// position. `candidates` must already be in axis order.
fn apply_predicate(ctx: &Ctx, candidates: Vec<usize>, pred: &Expr, _reverse: bool) -> Vec<usize> {
    let size = candidates.len();
    let mut out = Vec::with_capacity(size);
    for (i, &id) in candidates.iter().enumerate() {
        let sub = ctx.with_node(id, i + 1, size);
        let keep = match eval(&sub, pred) {
            // A numeric predicate selects by position.
            V::N(n) => n == (i + 1) as f64,
            other => to_bool(&sub, &other),
        };
        if keep {
            out.push(id);
        }
    }
    out
}

// ------------------------------------------------------------ functions

fn eval_call(ctx: &Ctx, name: &str, args: &[Expr]) -> V {
    let arg = |i: usize| eval(ctx, &args[i]);
    match (name, args.len()) {
        ("true", 0) => V::B(true),
        ("false", 0) => V::B(false),
        ("not", 1) => V::B(!to_bool(ctx, &arg(0))),
        ("boolean", 1) => V::B(to_bool(ctx, &arg(0))),
        ("number", 0) => V::N(str_to_number(&ctx.doc.string_value(ctx.node))),
        ("number", 1) => V::N(to_number(ctx, arg(0))),
        ("string", 0) => V::S(ctx.doc.string_value(ctx.node).into_owned()),
        ("string", 1) => V::S(to_string_v(ctx, arg(0))),
        ("concat", n) if n >= 2 => {
            let mut s = String::new();
            for i in 0..n {
                s.push_str(&to_string_v(ctx, arg(i)));
            }
            V::S(s)
        }
        ("starts-with", 2) => V::B(to_string_v(ctx, arg(0)).starts_with(&to_string_v(ctx, arg(1)))),
        ("contains", 2) => V::B(to_string_v(ctx, arg(0)).contains(&to_string_v(ctx, arg(1)))),
        ("substring-before", 2) => {
            let s = to_string_v(ctx, arg(0));
            let pat = to_string_v(ctx, arg(1));
            V::S(s.find(&pat).map(|i| s[..i].to_string()).unwrap_or_default())
        }
        ("substring-after", 2) => {
            let s = to_string_v(ctx, arg(0));
            let pat = to_string_v(ctx, arg(1));
            V::S(
                s.find(&pat)
                    .map(|i| s[i + pat.len()..].to_string())
                    .unwrap_or_default(),
            )
        }
        ("substring", 2 | 3) => {
            let s = to_string_v(ctx, arg(0));
            let chars: Vec<char> = s.chars().collect();
            let start = to_number(ctx, arg(1));
            let len = if args.len() == 3 {
                to_number(ctx, arg(2))
            } else {
                f64::INFINITY
            };
            if start.is_nan() || len.is_nan() {
                return V::S(String::new());
            }
            // XPath positions are 1-based and rounded.
            let begin = start.round();
            let end = begin + len.round();
            let out: String = chars
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let pos = (*i + 1) as f64;
                    pos >= begin && pos < end
                })
                .map(|(_, c)| *c)
                .collect();
            V::S(out)
        }
        ("string-length", 0) => V::N(ctx.doc.string_value(ctx.node).chars().count() as f64),
        ("string-length", 1) => V::N(to_string_v(ctx, arg(0)).chars().count() as f64),
        ("normalize-space", 0) => V::S(normalize_space(&ctx.doc.string_value(ctx.node))),
        ("normalize-space", 1) => V::S(normalize_space(&to_string_v(ctx, arg(0)))),
        ("translate", 3) => {
            let s = to_string_v(ctx, arg(0));
            let from: Vec<char> = to_string_v(ctx, arg(1)).chars().collect();
            let to: Vec<char> = to_string_v(ctx, arg(2)).chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            V::S(out)
        }
        ("count", 1) => match arg(0) {
            V::Nodes(ids) => V::N(ids.len() as f64),
            _ => V::N(0.0),
        },
        ("sum", 1) => match arg(0) {
            V::Nodes(ids) => V::N(
                ids.iter()
                    .map(|&id| str_to_number(&ctx.doc.string_value(id)))
                    .sum(),
            ),
            _ => V::N(f64::NAN),
        },
        ("position", 0) => V::N(ctx.position as f64),
        ("last", 0) => V::N(ctx.size as f64),
        ("floor", 1) => V::N(to_number(ctx, arg(0)).floor()),
        ("ceiling", 1) => V::N(to_number(ctx, arg(0)).ceil()),
        ("round", 1) => {
            let n = to_number(ctx, arg(0));
            // XPath round(): .5 rounds toward +inf.
            V::N((n + 0.5).floor())
        }
        ("local-name", 0) => V::S(local_name_of(ctx, ctx.node)),
        ("local-name", 1) => match arg(0) {
            V::Nodes(ids) => V::S(
                ids.first()
                    .map(|&id| local_name_of(ctx, id))
                    .unwrap_or_default(),
            ),
            _ => V::S(String::new()),
        },
        ("namespace-uri", 0) => V::S(namespace_of(ctx, ctx.node)),
        ("namespace-uri", 1) => match arg(0) {
            V::Nodes(ids) => V::S(
                ids.first()
                    .map(|&id| namespace_of(ctx, id))
                    .unwrap_or_default(),
            ),
            _ => V::S(String::new()),
        },
        ("name", 0) => V::S(local_name_of(ctx, ctx.node)),
        ("name", 1) => match arg(0) {
            V::Nodes(ids) => V::S(
                ids.first()
                    .map(|&id| local_name_of(ctx, id))
                    .unwrap_or_default(),
            ),
            _ => V::S(String::new()),
        },
        // Unknown function or wrong arity: empty — filters must not
        // crash brokers on bad expressions at evaluation time.
        _ => V::Nodes(Vec::new()),
    }
}

fn local_name_of(ctx: &Ctx, id: usize) -> String {
    ctx.doc
        .expanded_name(id)
        .map(|(_, l)| l.to_string())
        .unwrap_or_default()
}

fn namespace_of(ctx: &Ctx, id: usize) -> String {
    ctx.doc
        .expanded_name(id)
        .and_then(|(ns, _)| ns.map(str::to_string))
        .unwrap_or_default()
}

fn normalize_space(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse as xp;
    use wsm_xml::parse as xml;

    fn ev(expr: &str, doc: &str) -> Value {
        let e = xp(expr).unwrap();
        let d = xml(doc).unwrap();
        evaluate(&e, &d)
    }

    fn evb(expr: &str, doc: &str) -> bool {
        ev(expr, doc).boolean()
    }

    fn evn(expr: &str, doc: &str) -> f64 {
        ev(expr, doc).number()
    }

    fn evs(expr: &str, doc: &str) -> String {
        ev(expr, doc).string()
    }

    const DOC: &str = "<order id='9'><item price='5' sku='a'>widget</item><item price='7' sku='b'>gadget</item><note>rush</note></order>";

    #[test]
    fn simple_selection() {
        assert!(evb("/order/item", DOC));
        assert!(!evb("/order/missing", DOC));
        assert_eq!(evn("count(/order/item)", DOC), 2.0);
    }

    #[test]
    fn attributes() {
        assert_eq!(evs("/order/@id", DOC), "9");
        assert!(evb("/order/item[@price=7]", DOC));
        assert!(!evb("/order/item[@price=8]", DOC));
        assert_eq!(evn("count(/order/item/@*)", DOC), 4.0);
    }

    #[test]
    fn descendants() {
        assert_eq!(evn("count(//item)", DOC), 2.0);
        assert_eq!(evs("//note", DOC), "rush");
        assert_eq!(
            evn("count(/descendant-or-self::node())", DOC),
            8.0,
            "root-elem+3 elems+... text nodes"
        );
    }

    #[test]
    fn positional_predicates() {
        assert_eq!(evs("/order/item[1]", DOC), "widget");
        assert_eq!(evs("/order/item[2]", DOC), "gadget");
        assert_eq!(evs("/order/item[last()]", DOC), "gadget");
        assert_eq!(evs("/order/item[position()=1]", DOC), "widget");
        assert!(!evb("/order/item[3]", DOC));
    }

    #[test]
    fn parent_and_ancestor() {
        assert_eq!(evs("//note/../@id", DOC), "9");
        assert!(evb("//item/ancestor::order", DOC));
        assert_eq!(evs("//item[1]/parent::*/@id", DOC), "9");
    }

    #[test]
    fn siblings() {
        assert_eq!(evs("/order/item[1]/following-sibling::item", DOC), "gadget");
        assert_eq!(
            evs("/order/note/preceding-sibling::item[1]", DOC),
            "gadget",
            "nearest first"
        );
    }

    #[test]
    fn text_nodes() {
        assert_eq!(evs("/order/item[1]/text()", DOC), "widget");
        assert_eq!(evn("count(//text())", DOC), 3.0);
    }

    #[test]
    fn existential_comparisons() {
        // Any item with price > 6 exists.
        assert!(evb("/order/item/@price > 6", DOC));
        assert!(!evb("/order/item/@price > 7", DOC));
        // = is existential, != is too (some node differs).
        assert!(evb("/order/item = 'widget'", DOC));
        assert!(evb("/order/item != 'widget'", DOC));
        // But a single-node set != works as expected.
        assert!(!evb("/order/note != 'rush'", DOC));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(evn("1 + 2 * 3", DOC), 7.0);
        assert_eq!(evn("10 div 4", DOC), 2.5);
        assert_eq!(evn("10 mod 4", DOC), 2.0);
        assert_eq!(evn("-(3)", DOC), -3.0);
        assert_eq!(evn("sum(/order/item/@price)", DOC), 12.0);
    }

    #[test]
    fn boolean_ops_and_functions() {
        assert!(evb("true() and not(false())", DOC));
        assert!(evb("false() or /order", DOC));
        assert!(evb("boolean(/order/note)", DOC));
        assert!(!evb("boolean(/order/zzz)", DOC));
    }

    #[test]
    fn string_functions() {
        assert!(evb("contains(/order/item[1], 'idge')", DOC));
        assert!(evb("starts-with(/order/item[2], 'gad')", DOC));
        assert_eq!(evs("concat('a', 'b', 'c')", DOC), "abc");
        assert_eq!(evs("substring('12345', 2, 3)", DOC), "234");
        assert_eq!(evs("substring('12345', 2)", DOC), "2345");
        assert_eq!(evs("substring-before('a=b', '=')", DOC), "a");
        assert_eq!(evs("substring-after('a=b', '=')", DOC), "b");
        assert_eq!(evn("string-length('héllo')", DOC), 5.0);
        assert_eq!(evs("normalize-space('  a   b ')", DOC), "a b");
        assert_eq!(evs("translate('abc', 'ab', 'AB')", DOC), "ABc");
        assert_eq!(evs("translate('abc', 'b', '')", DOC), "ac");
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(evn("floor(2.7)", DOC), 2.0);
        assert_eq!(evn("ceiling(2.1)", DOC), 3.0);
        assert_eq!(evn("round(2.5)", DOC), 3.0);
        assert_eq!(evn("round(-2.5)", DOC), -2.0, "XPath rounds .5 toward +inf");
    }

    #[test]
    fn name_functions() {
        assert_eq!(evs("local-name(/order/*[1])", DOC), "item");
        assert_eq!(evs("name(//note)", DOC), "note");
        let nsdoc = r#"<e:v xmlns:e="urn:e"><e:k>1</e:k></e:v>"#;
        let e = xp("namespace-uri(/*)").unwrap();
        let d = xml(nsdoc).unwrap();
        assert_eq!(evaluate(&e, &d).string(), "urn:e");
    }

    #[test]
    fn namespaced_name_tests() {
        let nsdoc = r#"<e:v xmlns:e="urn:e"><e:k>go</e:k><plain>x</plain></e:v>"#;
        let d = xml(nsdoc).unwrap();
        let e = xp("/w:v/w:k").unwrap();
        assert_eq!(
            evaluate_with_namespaces(&e, &d, &[("w", "urn:e")]).string(),
            "go"
        );
        // Unprefixed test matches only no-namespace nodes.
        let e2 = xp("//plain").unwrap();
        assert!(evaluate(&e2, &d).boolean());
        let e3 = xp("//k").unwrap();
        assert!(
            !evaluate(&e3, &d).boolean(),
            "no default namespace in XPath 1.0"
        );
        // prefix:* wildcard
        let e4 = xp("count(/w:v/w:*)").unwrap();
        assert_eq!(
            evaluate_with_namespaces(&e4, &d, &[("w", "urn:e")]).number(),
            1.0
        );
    }

    #[test]
    fn union() {
        assert_eq!(evn("count(/order/item | /order/note)", DOC), 3.0);
        assert_eq!(
            evn("count(/order/item | /order/item)", DOC),
            2.0,
            "union dedups"
        );
    }

    #[test]
    fn filter_expr_positional() {
        assert_eq!(evs("(//item)[2]", DOC), "gadget");
        assert_eq!(evs("(//item)[1]/@sku", DOC), "a");
    }

    #[test]
    fn unknown_function_yields_empty_not_panic() {
        assert!(!evb("frobnicate(1, 2)", DOC));
        assert!(!evb("$undefined", DOC));
    }

    #[test]
    fn root_path() {
        assert!(evb("/", DOC));
        assert_eq!(evs("/", DOC), "widgetgadgetrush");
    }

    #[test]
    fn nested_predicates() {
        assert!(evb("/order[item[@price=5]]", DOC));
        assert!(!evb("/order[item[@price=6]]", DOC));
    }

    #[test]
    fn self_axis() {
        assert!(evb("//item/self::item", DOC));
        assert!(!evb("//item/self::note", DOC));
    }
}

#[cfg(test)]
mod numeric_edge_tests {
    use super::*;
    use crate::parser::parse as xp;
    use wsm_xml::parse as xml;

    fn evn(expr: &str) -> f64 {
        evaluate(&xp(expr).unwrap(), &xml("<r/>").unwrap()).number()
    }

    fn evb(expr: &str) -> bool {
        evaluate(&xp(expr).unwrap(), &xml("<r/>").unwrap()).boolean()
    }

    #[test]
    fn division_by_zero_is_infinity() {
        assert_eq!(evn("1 div 0"), f64::INFINITY);
        assert_eq!(evn("-1 div 0"), f64::NEG_INFINITY);
        assert!(evn("0 div 0").is_nan());
    }

    #[test]
    fn nan_comparisons_are_false() {
        assert!(!evb("(0 div 0) = (0 div 0)"));
        assert!(!evb("(0 div 0) < 1"));
        assert!(!evb("(0 div 0) > 1"));
        assert!(evb("(0 div 0) != (0 div 0)"), "NaN != NaN is true");
    }

    #[test]
    fn string_to_number_coercions() {
        assert_eq!(evn("'  42 ' + 0"), 42.0);
        assert!(evn("'x' + 1").is_nan());
        assert_eq!(evn("number(true())"), 1.0);
    }

    #[test]
    fn mod_follows_xpath_semantics() {
        assert_eq!(evn("5 mod 2"), 1.0);
        assert_eq!(evn("-5 mod 2"), -1.0, "sign follows the dividend");
        assert_eq!(evn("5 mod -2"), 1.0);
    }

    #[test]
    fn boolean_arithmetic() {
        assert_eq!(evn("true() + true()"), 2.0);
        assert_eq!(evn("false() * 9"), 0.0);
    }

    #[test]
    fn comparison_chains_left_associate() {
        // (1 < 2) < 3  →  true() < 3  →  1 < 3  →  true
        assert!(evb("1 < 2 < 3"));
        // (3 < 2) < 1  →  false() < 1  →  0 < 1  →  true (XPath quirk)
        assert!(evb("3 < 2 < 1"));
    }
}
