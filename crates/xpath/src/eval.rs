//! Evaluation of compiled expressions over `wsm-xml` trees.
//!
//! The tree is first indexed into an arena with parent links and
//! document-order ids, which is what gives us the `parent`, `ancestor`
//! and sibling axes plus cheap document-order node-set merging.

use crate::ast::{Axis, BinOp, Expr, LocationPath, NodeTest, Step};
use crate::program::name_bit;
use crate::value::{number_to_string, str_to_number, Value};
use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use wsm_xml::tree::{Attribute, Node};
use wsm_xml::{Element, QName};

/// Evaluate `expr` against the document whose root element is `root`.
pub fn evaluate(expr: &Expr, root: &Element) -> Value {
    evaluate_with_namespaces(expr, root, &[])
}

/// Evaluate with namespace bindings for prefixes in the expression.
pub fn evaluate_with_namespaces(expr: &Expr, root: &Element, namespaces: &[(&str, &str)]) -> Value {
    let doc = EvalDoc::new(root);
    let ctx = Ctx {
        doc: &doc.idx,
        pool: &doc.pool,
        namespaces,
        node: ROOT,
        position: 1,
        size: 1,
    };
    doc.idx.value(eval(&ctx, expr))
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

/// A node of the index and where its edges are.
struct Slot<'a> {
    data: NodeData<'a>,
    /// Start of this node's attribute ids, followed by its child ids,
    /// in [`DocIndex::edges`].
    first: usize,
    attrs: usize,
    kids: usize,
}

/// The document as one node array in document order.
///
/// Built in two allocations whatever the document: the node array and
/// one edge array, both sized exactly by a counting pass. Each node's
/// attribute ids and then its child ids (element, text and comment —
/// not processing instructions) sit in one contiguous range of
/// `edges`, so the child and attribute axes are lent as slices.
pub(crate) struct DocIndex<'a> {
    nodes: Vec<Slot<'a>>,
    edges: Vec<usize>,
    /// Name-presence bitset: the OR of [`name_bit`] over every element
    /// and attribute local name in the document. A compiled filter
    /// whose required mask is not a subset of this can never match.
    pub(crate) name_mask: u64,
}

/// Index nodes under `el`, itself and its attributes included.
fn count_nodes(el: &Element) -> usize {
    let mut n = 1 + el.attrs.len();
    for c in &el.children {
        n += match c {
            Node::Element(child) => count_nodes(child),
            Node::Shared(shared) => count_nodes(shared.element()),
            Node::Text(_) | Node::CData(_) | Node::Comment(_) => 1,
            Node::Pi { .. } => 0,
        };
    }
    n
}

impl<'a> DocIndex<'a> {
    pub(crate) fn build(root: &'a Element) -> Self {
        // Every node but the root is exactly one edge of its parent.
        let nodes = 1 + count_nodes(root);
        let mut idx = DocIndex {
            nodes: Vec::with_capacity(nodes),
            edges: vec![0; nodes - 1],
            name_mask: 0,
        };
        idx.nodes.push(Slot {
            data: NodeData::Root,
            first: 0,
            attrs: 0,
            kids: 1,
        });
        let mut next_edge = 1;
        idx.edges[0] = idx.add_element(root, ROOT, &mut next_edge);
        debug_assert_eq!(idx.nodes.len(), nodes);
        idx
    }

    fn push(&mut self, data: NodeData<'a>) -> usize {
        self.nodes.push(Slot {
            data,
            first: 0,
            attrs: 0,
            kids: 0,
        });
        self.nodes.len() - 1
    }

    /// Add `el` and its subtree; `next_edge` is the first unreserved
    /// slot of `edges`. Each element reserves its whole edge range
    /// before its children reserve theirs, so ranges never overlap.
    fn add_element(&mut self, el: &'a Element, parent: usize, next_edge: &mut usize) -> usize {
        let id = self.nodes.len();
        let kids = el
            .children
            .iter()
            .filter(|c| !matches!(c, Node::Pi { .. }))
            .count();
        let first = *next_edge;
        *next_edge += el.attrs.len() + kids;
        self.nodes.push(Slot {
            data: NodeData::Element { el, parent },
            first,
            attrs: el.attrs.len(),
            kids,
        });
        self.name_mask |= name_bit(&el.name.local);
        let mut edge = first;
        for a in &el.attrs {
            self.name_mask |= name_bit(&a.name.local);
            self.edges[edge] = self.push(NodeData::Attr {
                attr: a,
                parent: id,
            });
            edge += 1;
        }
        for c in &el.children {
            self.edges[edge] = match c {
                Node::Element(child) => self.add_element(child, id, next_edge),
                Node::Shared(shared) => self.add_element(shared.element(), id, next_edge),
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
            edge += 1;
        }
        id
    }

    /// What node `id` is.
    pub(crate) fn data(&self, id: usize) -> &NodeData<'a> {
        &self.nodes[id].data
    }

    /// Attribute ids of node `id`, in document order.
    pub(crate) fn attrs(&self, id: usize) -> &[usize] {
        let s = &self.nodes[id];
        &self.edges[s.first..s.first + s.attrs]
    }

    /// Child ids of node `id`, in document order.
    pub(crate) fn children(&self, id: usize) -> &[usize] {
        let s = &self.nodes[id];
        let first = s.first + s.attrs;
        &self.edges[first..first + s.kids]
    }

    pub(crate) fn parent(&self, id: usize) -> Option<usize> {
        match self.data(id) {
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
        match self.data(id) {
            NodeData::Root => match self.children(ROOT).first() {
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

    /// The interned name of an element or attribute node.
    pub(crate) fn qname(&self, id: usize) -> Option<&'a QName> {
        match *self.data(id) {
            NodeData::Element { el, .. } => Some(&el.name),
            NodeData::Attr { attr, .. } => Some(&attr.name),
            _ => None,
        }
    }

    /// An internal value as the public [`Value`].
    pub(crate) fn value(&self, v: V) -> Value {
        match v {
            V::B(b) => Value::Boolean(b),
            V::N(n) => Value::Number(n),
            V::S(s) => Value::String(s.into_owned()),
            V::Nodes(ids) => Value::NodeSet(
                ids.iter()
                    .map(|&id| self.string_value(id).into_owned())
                    .collect(),
            ),
        }
    }
}

/// A pre-indexed document shared across many compiled-filter
/// evaluations of one publication.
///
/// Building the arena index is the per-document cost the old
/// `evaluate()` path paid once *per filter*; wrapping it here lets the
/// broker's match stage pay it once per publication regardless of how
/// many candidate filters run. It also owns the node-set buffers those
/// evaluations work in: the compiled programs are shared and
/// immutable, the scratch belongs to the document, so the first
/// evaluations of a publication allocate its buffers and the rest
/// reuse them.
pub struct EvalDoc<'a> {
    pub(crate) idx: DocIndex<'a>,
    pub(crate) pool: Pool,
}

impl<'a> EvalDoc<'a> {
    /// Index the document rooted at `root`.
    pub fn new(root: &'a Element) -> Self {
        EvalDoc {
            idx: DocIndex::build(root),
            pool: Pool::default(),
        }
    }

    /// The document's name-presence bitset (see
    /// [`CompiledFilter::required_mask`](crate::CompiledFilter::required_mask)).
    pub fn name_mask(&self) -> u64 {
        self.idx.name_mask
    }
}

/// Free node-id buffers of one document's evaluations.
///
/// Every node-set an evaluation builds — a path step's result, a
/// candidate list, a predicate's survivors — lives in a buffer taken
/// from here and handed back, cleared, when its [`Ids`] is dropped.
#[derive(Default)]
pub(crate) struct Pool {
    free: RefCell<Vec<Vec<usize>>>,
}

impl Pool {
    /// An empty buffer, reused where one is free.
    pub(crate) fn take(&self) -> Ids<'_> {
        Ids {
            ids: self.free.borrow_mut().pop().unwrap_or_default(),
            pool: self,
        }
    }

    /// `ids` as a buffer of this pool.
    pub(crate) fn adopt(&self, ids: Vec<usize>) -> Ids<'_> {
        Ids { ids, pool: self }
    }
}

/// A node-id list that returns its buffer to its [`Pool`] when dropped.
pub(crate) struct Ids<'p> {
    ids: Vec<usize>,
    pool: &'p Pool,
}

impl Ids<'_> {
    /// Keep only the first occurrence of each id, in document order.
    pub(crate) fn sort_dedup(&mut self) {
        self.ids.sort_unstable();
        self.ids.dedup();
    }
}

impl Deref for Ids<'_> {
    type Target = Vec<usize>;

    fn deref(&self) -> &Vec<usize> {
        &self.ids
    }
}

impl DerefMut for Ids<'_> {
    fn deref_mut(&mut self) -> &mut Vec<usize> {
        &mut self.ids
    }
}

impl Drop for Ids<'_> {
    fn drop(&mut self) {
        if self.ids.capacity() > 0 {
            let mut ids = std::mem::take(&mut self.ids);
            ids.clear();
            self.pool.free.borrow_mut().push(ids);
        }
    }
}

/// Internal value with live node ids. Strings borrow from the program
/// (literals) or the document (string-values) wherever they can.
pub(crate) enum V<'s, 'p> {
    B(bool),
    N(f64),
    S(Cow<'s, str>),
    Nodes(Ids<'p>),
}

struct Ctx<'a, 'd> {
    doc: &'d DocIndex<'a>,
    pool: &'d Pool,
    namespaces: &'d [(&'d str, &'d str)],
    node: usize,
    position: usize,
    size: usize,
}

impl<'a, 'd> Ctx<'a, 'd> {
    fn with_node(&self, node: usize, position: usize, size: usize) -> Ctx<'a, 'd> {
        Ctx {
            doc: self.doc,
            pool: self.pool,
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

    fn nodes(&self, ids: Vec<usize>) -> V<'a, 'd> {
        V::Nodes(self.pool.adopt(ids))
    }
}

fn eval<'a, 'd>(ctx: &Ctx<'a, 'd>, expr: &'a Expr) -> V<'a, 'd> {
    match expr {
        Expr::Number(n) => V::N(*n),
        Expr::Literal(s) => V::S(Cow::Borrowed(s)),
        // No variable bindings are defined by the WS filter dialects;
        // an unbound variable selects nothing.
        Expr::Variable(_) => ctx.nodes(Vec::new()),
        Expr::Negate(e) => V::N(-to_number(ctx, eval(ctx, e))),
        Expr::Binary(op, l, r) => eval_binary(ctx, *op, l, r),
        Expr::Call { name, args } => eval_call(ctx, name, args),
        Expr::Path(lp) => ctx.nodes(eval_path(ctx, lp, None)),
        Expr::Filtered {
            primary,
            predicates,
            path,
        } => {
            let base = match eval(ctx, primary) {
                V::Nodes(ids) => ids.to_vec(),
                // Predicating a non-node-set is a type error in XPath;
                // we yield the empty node-set.
                _ => Vec::new(),
            };
            let mut filtered = base;
            for pred in predicates {
                filtered = apply_predicate(ctx, filtered, pred);
            }
            match path {
                Some(lp) => ctx.nodes(eval_path(ctx, lp, Some(filtered))),
                None => ctx.nodes(filtered),
            }
        }
    }
}

/// Numeric coercion against a document index. Shared by the AST
/// interpreter and the compiled-program evaluator.
pub(crate) fn v_number(doc: &DocIndex, v: V) -> f64 {
    num_of(doc, &v)
}

/// String coercion against a document index, borrowing wherever the
/// value or the document can lend the string.
pub(crate) fn v_string<'s>(doc: &DocIndex<'s>, v: V<'s, '_>) -> Cow<'s, str> {
    match v {
        V::B(b) => Cow::Borrowed(if b { "true" } else { "false" }),
        V::N(n) => Cow::Owned(number_to_string(n)),
        V::S(s) => s,
        V::Nodes(ids) => match ids.first() {
            Some(&id) => doc.string_value(id),
            None => Cow::Borrowed(""),
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

fn to_string_v<'a>(ctx: &Ctx<'a, '_>, v: V<'a, '_>) -> Cow<'a, str> {
    v_string(ctx.doc, v)
}

fn to_bool(_ctx: &Ctx, v: &V) -> bool {
    v_bool(v)
}

fn eval_binary<'a, 'd>(ctx: &Ctx<'a, 'd>, op: BinOp, l: &'a Expr, r: &'a Expr) -> V<'a, 'd> {
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
                _ => ctx.pool.take(),
            };
            if let V::Nodes(more) = eval(ctx, r) {
                ids.extend_from_slice(&more);
            }
            ids.sort_dedup();
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

fn eval_path<'a>(ctx: &Ctx<'a, '_>, lp: &'a LocationPath, start: Option<Vec<usize>>) -> Vec<usize> {
    let mut current: Vec<usize> = match start {
        Some(ids) => ids,
        None if lp.absolute => vec![ROOT],
        None => vec![ctx.node],
    };
    let mut axis_buf = Vec::new();
    for step in &lp.steps {
        let mut next: Vec<usize> = Vec::new();
        for &node in &current {
            let mut candidates = walk_axis(ctx.doc, node, step.axis, &mut axis_buf).to_vec();
            candidates.retain(|&id| node_test_matches(ctx, id, step));
            // Predicates use proximity positions along the axis.
            for pred in &step.predicates {
                candidates = apply_predicate(ctx, candidates, pred);
            }
            next.extend(candidates);
        }
        next.sort_unstable();
        next.dedup();
        current = next;
    }
    current
}

/// Nodes on `axis` from `node`, in axis order (reverse axes are returned
/// nearest-first, which is their proximity order). The child and
/// attribute axes are lent straight from the index; the others are
/// written into `buf`, which is cleared first.
pub(crate) fn walk_axis<'r>(
    doc: &'r DocIndex,
    node: usize,
    axis: Axis,
    buf: &'r mut Vec<usize>,
) -> &'r [usize] {
    buf.clear();
    match axis {
        Axis::Child => return doc.children(node),
        Axis::Attribute => return doc.attrs(node),
        Axis::Descendant => descend(doc, node, buf),
        Axis::DescendantOrSelf => {
            buf.push(node);
            descend(doc, node, buf);
        }
        Axis::SelfAxis => buf.push(node),
        Axis::Parent => buf.extend(doc.parent(node)),
        Axis::Ancestor | Axis::AncestorOrSelf => {
            if axis == Axis::AncestorOrSelf {
                buf.push(node);
            }
            let mut cur = doc.parent(node);
            while let Some(p) = cur {
                buf.push(p);
                cur = doc.parent(p);
            }
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            // Attributes have no siblings: they are not among their
            // parent's children.
            if let Some(p) = doc.parent(node) {
                let sibs = doc.children(p);
                if let Some(i) = sibs.iter().position(|&s| s == node) {
                    if axis == Axis::FollowingSibling {
                        buf.extend_from_slice(&sibs[i + 1..]);
                    } else {
                        buf.extend(sibs[..i].iter().rev());
                    }
                }
            }
        }
    }
    buf
}

fn descend(doc: &DocIndex, node: usize, out: &mut Vec<usize>) {
    for &c in doc.children(node) {
        out.push(c);
        descend(doc, c, out);
    }
}

fn node_test_matches(ctx: &Ctx, id: usize, step: &Step) -> bool {
    let doc = ctx.doc;
    let is_attr_axis = step.axis == Axis::Attribute;
    let principal = if is_attr_axis {
        matches!(doc.data(id), NodeData::Attr { .. })
    } else {
        matches!(doc.data(id), NodeData::Element { .. })
    };
    match &step.test {
        // On the attribute axis the principal node type is attributes;
        // node() there still means any attribute node.
        NodeTest::AnyNode => !is_attr_axis || principal,
        NodeTest::Text => matches!(doc.data(id), NodeData::Text { .. }),
        NodeTest::Comment => matches!(doc.data(id), NodeData::Comment { .. }),
        NodeTest::AnyName => principal,
        NodeTest::NamespaceWildcard(prefix) => {
            let want = ctx.resolve_prefix(prefix);
            if want.is_none() {
                return false;
            }
            principal && doc.qname(id).is_some_and(|q| q.ns.as_deref() == want)
        }
        NodeTest::Name { prefix, local } => {
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
            doc.qname(id)
                .is_some_and(|q| q.local.as_str() == local && q.ns.as_deref() == want_ns)
        }
    }
}

/// Filter `candidates` by `pred`, giving each candidate its proximity
/// position. `candidates` must already be in axis order.
fn apply_predicate<'a>(ctx: &Ctx<'a, '_>, candidates: Vec<usize>, pred: &'a Expr) -> Vec<usize> {
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

fn eval_call<'a, 'd>(ctx: &Ctx<'a, 'd>, name: &str, args: &'a [Expr]) -> V<'a, 'd> {
    let arg = |i: usize| eval(ctx, &args[i]);
    match (name, args.len()) {
        ("true", 0) => V::B(true),
        ("false", 0) => V::B(false),
        ("not", 1) => V::B(!to_bool(ctx, &arg(0))),
        ("boolean", 1) => V::B(to_bool(ctx, &arg(0))),
        ("number", 0) => V::N(str_to_number(&ctx.doc.string_value(ctx.node))),
        ("number", 1) => V::N(to_number(ctx, arg(0))),
        ("string", 0) => V::S(ctx.doc.string_value(ctx.node)),
        ("string", 1) => V::S(to_string_v(ctx, arg(0))),
        ("concat", n) if n >= 2 => {
            let mut s = String::new();
            for i in 0..n {
                s.push_str(&to_string_v(ctx, arg(i)));
            }
            V::S(Cow::Owned(s))
        }
        ("starts-with", 2) => {
            V::B(to_string_v(ctx, arg(0)).starts_with(&*to_string_v(ctx, arg(1))))
        }
        ("contains", 2) => V::B(to_string_v(ctx, arg(0)).contains(&*to_string_v(ctx, arg(1)))),
        ("substring-before", 2) => {
            let s = to_string_v(ctx, arg(0));
            let pat = to_string_v(ctx, arg(1));
            V::S(Cow::Owned(
                s.find(&*pat)
                    .map(|i| s[..i].to_string())
                    .unwrap_or_default(),
            ))
        }
        ("substring-after", 2) => {
            let s = to_string_v(ctx, arg(0));
            let pat = to_string_v(ctx, arg(1));
            V::S(Cow::Owned(
                s.find(&*pat)
                    .map(|i| s[i + pat.len()..].to_string())
                    .unwrap_or_default(),
            ))
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
                return V::S(Cow::Borrowed(""));
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
            V::S(Cow::Owned(out))
        }
        ("string-length", 0) => V::N(ctx.doc.string_value(ctx.node).chars().count() as f64),
        ("string-length", 1) => V::N(to_string_v(ctx, arg(0)).chars().count() as f64),
        ("normalize-space", 0) => {
            V::S(Cow::Owned(normalize_space(&ctx.doc.string_value(ctx.node))))
        }
        ("normalize-space", 1) => V::S(Cow::Owned(normalize_space(&to_string_v(ctx, arg(0))))),
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
            V::S(Cow::Owned(out))
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
        ("local-name", 0) | ("name", 0) => V::S(local_name_of(ctx.doc, ctx.node)),
        ("local-name", 1) | ("name", 1) => match arg(0) {
            V::Nodes(ids) => V::S(first_of(&ids, |id| local_name_of(ctx.doc, id))),
            _ => V::S(Cow::Borrowed("")),
        },
        ("namespace-uri", 0) => V::S(namespace_of(ctx.doc, ctx.node)),
        ("namespace-uri", 1) => match arg(0) {
            V::Nodes(ids) => V::S(first_of(&ids, |id| namespace_of(ctx.doc, id))),
            _ => V::S(Cow::Borrowed("")),
        },
        // Unknown function or wrong arity: empty — filters must not
        // crash brokers on bad expressions at evaluation time.
        _ => ctx.nodes(Vec::new()),
    }
}

/// `f` of the first node of `ids`, `""` for the empty node-set.
pub(crate) fn first_of<'s>(ids: &[usize], f: impl Fn(usize) -> Cow<'s, str>) -> Cow<'s, str> {
    ids.first().map_or(Cow::Borrowed(""), |&id| f(id))
}

/// The local name of an element or attribute node, `""` for others.
pub(crate) fn local_name_of<'a>(doc: &DocIndex<'a>, id: usize) -> Cow<'a, str> {
    Cow::Borrowed(doc.qname(id).map_or("", |q| q.local.as_str()))
}

/// The namespace URI of an element or attribute node, `""` for others.
pub(crate) fn namespace_of<'a>(doc: &DocIndex<'a>, id: usize) -> Cow<'a, str> {
    Cow::Borrowed(doc.qname(id).and_then(|q| q.ns.as_deref()).unwrap_or(""))
}

pub(crate) fn normalize_space(s: &str) -> String {
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
