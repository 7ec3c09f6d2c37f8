//! The lowered, compile-once filter program and its evaluator.
//!
//! [`crate::compile`] lowers a parsed [`crate::ast::Expr`] into the
//! [`CExpr`] program form defined here: namespace prefixes are resolved
//! to interned URIs at compile time, function names become a dispatch
//! enum, and constant subexpressions are pre-folded. The evaluator in
//! this module runs a program over an [`EvalDoc`] that the caller built
//! once per document, so applying many compiled filters to one
//! publication shares a single indexing pass — the shape a broker's
//! match stage needs. The program is shared and never written; the
//! evaluation's scratch belongs to the document: node-sets live in
//! buffers of the document's pool, and literals are lent from the
//! program, so a warm document evaluates a filter without allocating.

use crate::ast::{Axis, BinOp};
use crate::eval::{
    compare_eq, compare_rel, first_of, local_name_of, namespace_of, normalize_space, v_bool,
    v_number, v_string, walk_axis, DocIndex, EvalDoc, Ids, NodeData, Pool, ROOT, V,
};
use crate::value::str_to_number;
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use wsm_xml::intern::Interned;

/// A node test with its namespace prefix already resolved.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CTest {
    /// A name test; `ns` is the resolved namespace URI (or `None` for
    /// names in no namespace — XPath 1.0 has no default namespace).
    Name {
        ns: Option<Interned>,
        local: Interned,
    },
    /// `prefix:*` with the prefix resolved.
    NsWildcard(Interned),
    /// `*`
    AnyName,
    /// `node()`
    AnyNode,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// A test that can never match: the expression used a prefix the
    /// subscription bound no namespace to. Kept explicit so the
    /// compiled program preserves the interpreter's "unbound prefix
    /// matches nothing" semantics without a per-evaluation lookup.
    Nothing,
}

/// One lowered location step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CStep {
    pub(crate) axis: Axis,
    pub(crate) test: CTest,
    pub(crate) predicates: Vec<CExpr>,
}

/// A lowered location path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CPath {
    pub(crate) absolute: bool,
    pub(crate) steps: Vec<CStep>,
}

/// Core-library functions, resolved (name, arity) → variant at compile
/// time so evaluation dispatches on an enum instead of matching
/// strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Func {
    True,
    False,
    Not,
    Boolean,
    Number0,
    Number1,
    String0,
    String1,
    Concat,
    StartsWith,
    Contains,
    SubstringBefore,
    SubstringAfter,
    Substring2,
    Substring3,
    StringLength0,
    StringLength1,
    NormalizeSpace0,
    NormalizeSpace1,
    Translate,
    Count,
    Sum,
    Position,
    Last,
    Floor,
    Ceiling,
    Round,
    LocalName0,
    LocalName1,
    NamespaceUri0,
    NamespaceUri1,
    Name0,
    Name1,
    /// Unknown function or wrong arity: evaluates to the empty
    /// node-set, never a panic (filters must not crash brokers).
    Unknown,
}

impl Func {
    /// Resolve a call site. Unknown names and wrong arities lower to
    /// [`Func::Unknown`], matching the interpreter's behavior.
    pub(crate) fn resolve(name: &str, arity: usize) -> Func {
        match (name, arity) {
            ("true", 0) => Func::True,
            ("false", 0) => Func::False,
            ("not", 1) => Func::Not,
            ("boolean", 1) => Func::Boolean,
            ("number", 0) => Func::Number0,
            ("number", 1) => Func::Number1,
            ("string", 0) => Func::String0,
            ("string", 1) => Func::String1,
            ("concat", n) if n >= 2 => Func::Concat,
            ("starts-with", 2) => Func::StartsWith,
            ("contains", 2) => Func::Contains,
            ("substring-before", 2) => Func::SubstringBefore,
            ("substring-after", 2) => Func::SubstringAfter,
            ("substring", 2) => Func::Substring2,
            ("substring", 3) => Func::Substring3,
            ("string-length", 0) => Func::StringLength0,
            ("string-length", 1) => Func::StringLength1,
            ("normalize-space", 0) => Func::NormalizeSpace0,
            ("normalize-space", 1) => Func::NormalizeSpace1,
            ("translate", 3) => Func::Translate,
            ("count", 1) => Func::Count,
            ("sum", 1) => Func::Sum,
            ("position", 0) => Func::Position,
            ("last", 0) => Func::Last,
            ("floor", 1) => Func::Floor,
            ("ceiling", 1) => Func::Ceiling,
            ("round", 1) => Func::Round,
            ("local-name", 0) => Func::LocalName0,
            ("local-name", 1) => Func::LocalName1,
            ("namespace-uri", 0) => Func::NamespaceUri0,
            ("namespace-uri", 1) => Func::NamespaceUri1,
            ("name", 0) => Func::Name0,
            ("name", 1) => Func::Name1,
            _ => Func::Unknown,
        }
    }

    /// Is this function free of evaluation context (no document, no
    /// position/size)? Only such calls are constant-foldable.
    pub(crate) fn is_context_free(self) -> bool {
        !matches!(
            self,
            Func::Number0
                | Func::String0
                | Func::StringLength0
                | Func::NormalizeSpace0
                | Func::LocalName0
                | Func::NamespaceUri0
                | Func::Name0
                | Func::Position
                | Func::Last
                | Func::Unknown
        )
    }
}

/// A number constant of a program, compared and hashed by its bits:
/// program equality is then an equivalence (a folded `0 div 0` equals
/// itself), and `-0` stays apart from `0` (`1 div -0` is `-Infinity`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Num(pub(crate) f64);

impl PartialEq for Num {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for Num {}

impl Hash for Num {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state)
    }
}

/// A lowered expression program.
///
/// Equality is structural over the lowered, folded form, so two filters
/// whose source texts differ only in spacing — or in a constant
/// subexpression that folds to the same value — are the same program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CExpr {
    Number(Num),
    Literal(String),
    /// A pre-folded boolean constant (`true()`, `1 < 2`, ...).
    Bool(bool),
    /// The empty node-set: what unbound variables lower to.
    EmptySet,
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    Negate(Box<CExpr>),
    Call(Func, Vec<CExpr>),
    Path(CPath),
    Filtered {
        primary: Box<CExpr>,
        predicates: Vec<CExpr>,
        path: Option<CPath>,
    },
}

/// The 64-bit name-presence bit for a local name.
///
/// Both sides of the prefilter handshake use it: document indexing ORs
/// the bit of every element/attribute local name into the document's
/// mask, and compilation ORs the bits of names a filter *requires* into
/// [`crate::compile::CompiledFilter::required_mask`]. FNV-1a, reduced
/// to 64 buckets — collisions only make the prefilter admit more, never
/// reject a possible match.
pub(crate) fn name_bit(local: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in local.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    1u64 << (h & 63)
}

/// Evaluation context for a compiled program: the shared document index
/// and its buffer pool, plus the context node / position / size triple.
#[derive(Clone, Copy)]
pub(crate) struct PCtx<'s, 'd> {
    pub(crate) doc: &'d DocIndex<'s>,
    pub(crate) pool: &'d Pool,
    pub(crate) node: usize,
    pub(crate) position: usize,
    pub(crate) size: usize,
}

impl<'s, 'd> PCtx<'s, 'd> {
    /// The entry context: the document root with position 1 of 1,
    /// exactly like the interpreter's.
    pub(crate) fn root(doc: &'d EvalDoc<'s>) -> Self {
        PCtx {
            doc: &doc.idx,
            pool: &doc.pool,
            node: ROOT,
            position: 1,
            size: 1,
        }
    }

    fn with_node(&self, node: usize, position: usize, size: usize) -> PCtx<'s, 'd> {
        PCtx {
            node,
            position,
            size,
            ..*self
        }
    }
}

/// Run a compiled program from the document root.
pub(crate) fn run_root<'s, 'd>(doc: &'d EvalDoc<'s>, prog: &'s CExpr) -> V<'s, 'd> {
    run(&PCtx::root(doc), prog)
}

pub(crate) fn run<'s, 'd>(ctx: &PCtx<'s, 'd>, e: &'s CExpr) -> V<'s, 'd> {
    match e {
        CExpr::Number(n) => V::N(n.0),
        CExpr::Literal(s) => V::S(Cow::Borrowed(s)),
        CExpr::Bool(b) => V::B(*b),
        CExpr::EmptySet => V::Nodes(ctx.pool.take()),
        CExpr::Negate(x) => V::N(-v_number(ctx.doc, run(ctx, x))),
        CExpr::Binary(op, l, r) => run_binary(ctx, *op, l, r),
        CExpr::Call(f, args) => run_call(ctx, *f, args),
        CExpr::Path(p) => V::Nodes(run_path(ctx, p, None)),
        CExpr::Filtered {
            primary,
            predicates,
            path,
        } => {
            let mut filtered = match run(ctx, primary) {
                V::Nodes(ids) => ids,
                _ => ctx.pool.take(),
            };
            for pred in predicates {
                apply_predicate(ctx, &mut filtered, pred);
            }
            match path {
                Some(p) => V::Nodes(run_path(ctx, p, Some(filtered))),
                None => V::Nodes(filtered),
            }
        }
    }
}

fn run_binary<'s, 'd>(ctx: &PCtx<'s, 'd>, op: BinOp, l: &'s CExpr, r: &'s CExpr) -> V<'s, 'd> {
    match op {
        BinOp::Or => {
            if v_bool(&run(ctx, l)) {
                return V::B(true);
            }
            V::B(v_bool(&run(ctx, r)))
        }
        BinOp::And => {
            if !v_bool(&run(ctx, l)) {
                return V::B(false);
            }
            V::B(v_bool(&run(ctx, r)))
        }
        BinOp::Eq | BinOp::NotEq => V::B(compare_eq(
            ctx.doc,
            op == BinOp::NotEq,
            run(ctx, l),
            run(ctx, r),
        )),
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            V::B(compare_rel(ctx.doc, op, run(ctx, l), run(ctx, r)))
        }
        BinOp::Add => V::N(v_number(ctx.doc, run(ctx, l)) + v_number(ctx.doc, run(ctx, r))),
        BinOp::Sub => V::N(v_number(ctx.doc, run(ctx, l)) - v_number(ctx.doc, run(ctx, r))),
        BinOp::Mul => V::N(v_number(ctx.doc, run(ctx, l)) * v_number(ctx.doc, run(ctx, r))),
        BinOp::Div => V::N(v_number(ctx.doc, run(ctx, l)) / v_number(ctx.doc, run(ctx, r))),
        BinOp::Mod => V::N(v_number(ctx.doc, run(ctx, l)) % v_number(ctx.doc, run(ctx, r))),
        BinOp::Union => {
            let mut ids = match run(ctx, l) {
                V::Nodes(i) => i,
                _ => ctx.pool.take(),
            };
            if let V::Nodes(more) = run(ctx, r) {
                ids.extend_from_slice(&more);
            }
            ids.sort_dedup();
            V::Nodes(ids)
        }
    }
}

// ---------------------------------------------------------------- paths

/// The nodes `p` selects from the context node, or from `start` when
/// the path continues a filter expression. Every list here — the
/// current and next step sets, an axis walk, a step's candidates — is
/// a pooled buffer, so a warm document evaluates a path without
/// allocating.
fn run_path<'s, 'd>(ctx: &PCtx<'s, 'd>, p: &'s CPath, start: Option<Ids<'d>>) -> Ids<'d> {
    let pool = ctx.pool;
    let mut current = start.unwrap_or_else(|| {
        let mut ids = pool.take();
        ids.push(if p.absolute { ROOT } else { ctx.node });
        ids
    });
    let mut next = pool.take();
    let mut axis_buf = pool.take();
    let mut candidates = pool.take();
    for step in &p.steps {
        next.clear();
        for &node in current.iter() {
            let axis = walk_axis(ctx.doc, node, step.axis, &mut axis_buf);
            let tested = axis
                .iter()
                .copied()
                .filter(|&id| test_matches(ctx.doc, id, step.axis, &step.test));
            if step.predicates.is_empty() {
                next.extend(tested);
                continue;
            }
            candidates.clear();
            candidates.extend(tested);
            for pred in &step.predicates {
                apply_predicate(ctx, &mut candidates, pred);
            }
            next.extend_from_slice(&candidates);
        }
        next.sort_dedup();
        std::mem::swap(&mut current, &mut next);
        if current.is_empty() {
            break;
        }
    }
    current
}

fn test_matches(doc: &DocIndex, id: usize, axis: Axis, test: &CTest) -> bool {
    let is_attr_axis = axis == Axis::Attribute;
    let principal = if is_attr_axis {
        matches!(doc.data(id), NodeData::Attr { .. })
    } else {
        matches!(doc.data(id), NodeData::Element { .. })
    };
    match test {
        CTest::AnyNode => !is_attr_axis || principal,
        CTest::Text => matches!(doc.data(id), NodeData::Text { .. }),
        CTest::Comment => matches!(doc.data(id), NodeData::Comment { .. }),
        CTest::AnyName => principal,
        CTest::NsWildcard(ns) => {
            // Interned namespace compare: a pointer check on the hot path.
            principal && doc.qname(id).is_some_and(|q| q.ns.as_ref() == Some(ns))
        }
        CTest::Name { ns, local } => {
            principal
                && doc
                    .qname(id)
                    .is_some_and(|q| q.local == *local && q.ns == *ns)
        }
        CTest::Nothing => false,
    }
}

/// Keep the `candidates` that satisfy `pred`, in place, giving each its
/// proximity position among all of them.
fn apply_predicate<'s>(ctx: &PCtx<'s, '_>, candidates: &mut Ids, pred: &'s CExpr) {
    let size = candidates.len();
    let mut kept = 0;
    for i in 0..size {
        let id = candidates[i];
        let sub = ctx.with_node(id, i + 1, size);
        let keep = match run(&sub, pred) {
            V::N(n) => n == (i + 1) as f64,
            other => v_bool(&other),
        };
        if keep {
            candidates[kept] = id;
            kept += 1;
        }
    }
    candidates.truncate(kept);
}

// ------------------------------------------------------------ functions

fn run_call<'s, 'd>(ctx: &PCtx<'s, 'd>, f: Func, args: &'s [CExpr]) -> V<'s, 'd> {
    let doc = ctx.doc;
    let arg = |i: usize| run(ctx, &args[i]);
    let s_of = |v: V<'s, 'd>| v_string(doc, v);
    let n_of = |v: V| v_number(doc, v);
    match f {
        Func::True => V::B(true),
        Func::False => V::B(false),
        Func::Not => V::B(!v_bool(&arg(0))),
        Func::Boolean => V::B(v_bool(&arg(0))),
        Func::Number0 => V::N(str_to_number(&doc.string_value(ctx.node))),
        Func::Number1 => V::N(n_of(arg(0))),
        Func::String0 => V::S(doc.string_value(ctx.node)),
        Func::String1 => V::S(s_of(arg(0))),
        Func::Concat => {
            let mut s = String::new();
            for i in 0..args.len() {
                s.push_str(&s_of(arg(i)));
            }
            V::S(Cow::Owned(s))
        }
        Func::StartsWith => V::B(s_of(arg(0)).starts_with(&*s_of(arg(1)))),
        Func::Contains => V::B(s_of(arg(0)).contains(&*s_of(arg(1)))),
        Func::SubstringBefore => {
            let s = s_of(arg(0));
            let pat = s_of(arg(1));
            V::S(Cow::Owned(
                s.find(&*pat)
                    .map(|i| s[..i].to_string())
                    .unwrap_or_default(),
            ))
        }
        Func::SubstringAfter => {
            let s = s_of(arg(0));
            let pat = s_of(arg(1));
            V::S(Cow::Owned(
                s.find(&*pat)
                    .map(|i| s[i + pat.len()..].to_string())
                    .unwrap_or_default(),
            ))
        }
        Func::Substring2 | Func::Substring3 => {
            let s = s_of(arg(0));
            let chars: Vec<char> = s.chars().collect();
            let start = n_of(arg(1));
            let len = if f == Func::Substring3 {
                n_of(arg(2))
            } else {
                f64::INFINITY
            };
            if start.is_nan() || len.is_nan() {
                return V::S(Cow::Borrowed(""));
            }
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
        Func::StringLength0 => V::N(doc.string_value(ctx.node).chars().count() as f64),
        Func::StringLength1 => V::N(s_of(arg(0)).chars().count() as f64),
        Func::NormalizeSpace0 => V::S(Cow::Owned(normalize_space(&doc.string_value(ctx.node)))),
        Func::NormalizeSpace1 => V::S(Cow::Owned(normalize_space(&s_of(arg(0))))),
        Func::Translate => {
            let s = s_of(arg(0));
            let from: Vec<char> = s_of(arg(1)).chars().collect();
            let to: Vec<char> = s_of(arg(2)).chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&fc| fc == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            V::S(Cow::Owned(out))
        }
        Func::Count => match arg(0) {
            V::Nodes(ids) => V::N(ids.len() as f64),
            _ => V::N(0.0),
        },
        Func::Sum => match arg(0) {
            V::Nodes(ids) => V::N(
                ids.iter()
                    .map(|&id| str_to_number(&doc.string_value(id)))
                    .sum(),
            ),
            _ => V::N(f64::NAN),
        },
        Func::Position => V::N(ctx.position as f64),
        Func::Last => V::N(ctx.size as f64),
        Func::Floor => V::N(n_of(arg(0)).floor()),
        Func::Ceiling => V::N(n_of(arg(0)).ceil()),
        Func::Round => {
            let n = n_of(arg(0));
            V::N((n + 0.5).floor())
        }
        Func::LocalName0 | Func::Name0 => V::S(local_name_of(doc, ctx.node)),
        Func::LocalName1 | Func::Name1 => match arg(0) {
            V::Nodes(ids) => V::S(first_of(&ids, |id| local_name_of(doc, id))),
            _ => V::S(Cow::Borrowed("")),
        },
        Func::NamespaceUri0 => V::S(namespace_of(doc, ctx.node)),
        Func::NamespaceUri1 => match arg(0) {
            V::Nodes(ids) => V::S(first_of(&ids, |id| namespace_of(doc, id))),
            _ => V::S(Cow::Borrowed("")),
        },
        Func::Unknown => V::Nodes(ctx.pool.take()),
    }
}

/// Evaluate the string-values of the nodes a path program selects —
/// the primitive behind the match index's literal-equality buckets.
/// Values are borrowed from the document wherever its index can lend
/// them.
pub(crate) fn run_path_strings<'a>(doc: &EvalDoc<'a>, p: &CPath) -> Vec<Cow<'a, str>> {
    run_path(&PCtx::root(doc), p, None)
        .iter()
        .map(|&id| doc.idx.string_value(id))
        .collect()
}

/// Does the program's boolean value convert a folded constant to a
/// constant verdict? `Some(b)` when the whole program folded away.
pub(crate) fn const_verdict(prog: &CExpr) -> Option<bool> {
    match prog {
        CExpr::Bool(b) => Some(*b),
        CExpr::Number(Num(n)) => Some(*n != 0.0 && !n.is_nan()),
        CExpr::Literal(s) => Some(!s.is_empty()),
        CExpr::EmptySet => Some(false),
        _ => None,
    }
}
