//! XPath abstract syntax.

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `or`
    Or,
    /// `and`
    And,
    /// `=`
    Eq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `mod`
    Mod,
    /// `|` node-set union
    Union,
}

/// Axes supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `child::` (the default axis)
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::` (what `//` expands to)
    DescendantOrSelf,
    /// `self::`
    SelfAxis,
    /// `parent::`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `attribute::` / `@`
    Attribute,
    /// `following-sibling::`
    FollowingSibling,
    /// `preceding-sibling::`
    PrecedingSibling,
}

/// A node test within a step.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeTest {
    /// A (possibly prefixed) name; prefix resolved at evaluation time.
    Name {
        /// The lexical prefix, if any.
        prefix: Option<String>,
        /// The local part.
        local: String,
    },
    /// `*` — any element (or any attribute on the attribute axis).
    AnyName,
    /// `prefix:*` — any name in the prefix's namespace.
    NamespaceWildcard(String),
    /// `node()`
    AnyNode,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
}

/// One step of a location path.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Axis to walk.
    pub axis: Axis,
    /// Which nodes on the axis qualify.
    pub test: NodeTest,
    /// Predicates applied in order.
    pub predicates: Vec<Expr>,
}

/// A location path.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationPath {
    /// True when the path starts at the document root (`/...`).
    pub absolute: bool,
    /// The steps.
    pub steps: Vec<Step>,
}

/// An XPath expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Number literal.
    Number(f64),
    /// String literal.
    Literal(String),
    /// Variable reference (evaluates to an error-ish empty value: the
    /// WS filter dialects do not define variable bindings).
    Variable(String),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Negate(Box<Expr>),
    /// Function call.
    Call {
        /// Function name (core library only).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// A location path.
    Path(LocationPath),
    /// A filter expression with a trailing relative path:
    /// `(expr)[pred]/rest...`.
    Filtered {
        /// The primary expression.
        primary: Box<Expr>,
        /// Predicates on the primary's node-set.
        predicates: Vec<Expr>,
        /// Optional continuation path (relative steps).
        path: Option<LocationPath>,
    },
}
