//! Compiled-program ≡ AST-interpreter equivalence.
//!
//! The compiled path ([`CompiledFilter`]) must be observationally
//! identical to the reference interpreter ([`evaluate`]) for every
//! expression the grammar can produce — same `Value`, same boolean
//! filter verdict — and the required-name bitset must be *sound*: it
//! may only reject documents the full evaluation would reject too.
//! Expressions and documents are both generated.
//!
//! One more property pins the ingest path that hands the match stage
//! its documents: parsing an envelope straight from text, which moves
//! the parsed blocks, reads the same envelope as interpreting a parsed
//! tree, which copies them.

use proptest::prelude::*;
use wsm_soap::{Envelope, SoapVersion};
use wsm_xml::{Element, Node};
use wsm_xpath::{evaluate, parser, CompiledFilter, EvalDoc, Value};

/// Random small trees over a fixed tag vocabulary, with numeric `v`
/// attributes and text content the string functions can chew on.
fn tree_strategy() -> impl Strategy<Value = Element> {
    let leaf = (
        prop_oneof![Just("a"), Just("b"), Just("c")],
        0u8..9,
        prop_oneof![
            Just(""),
            Just("x"),
            Just("gridftp-7"),
            Just("3"),
            Just("  pad  ")
        ],
    )
        .prop_map(|(n, v, t)| {
            Element::local(n)
                .with_attr("v", v.to_string())
                .with_text(t.to_string())
        });
    leaf.prop_recursive(3, 24, 3, |inner| {
        (
            prop_oneof![Just("a"), Just("b"), Just("r")],
            0u8..9,
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(n, v, kids)| {
                let mut e = Element::local(n).with_attr("v", v.to_string());
                for k in kids {
                    e.push(k);
                }
                e
            })
    })
}

/// A random location path: optional absolute/descendant start, 1–3
/// steps over the document vocabulary, optional simple predicate.
fn path_strategy() -> impl Strategy<Value = String> {
    let step = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("r".to_string()),
        Just("*".to_string()),
        Just("@v".to_string()),
        Just("..".to_string()),
        Just(".".to_string()),
    ];
    let pred = prop_oneof![
        Just(String::new()),
        Just("[1]".to_string()),
        Just("[last()]".to_string()),
        Just("[@v > 3]".to_string()),
        Just("[b]".to_string()),
        Just("[position() != 2]".to_string()),
    ];
    (
        prop_oneof![Just("/"), Just("//"), Just("")],
        prop::collection::vec(step, 1..4),
        prop_oneof![Just("/"), Just("//")],
        pred,
    )
        .prop_map(|(start, steps, sep, pred)| {
            let mut s = String::from(start);
            for (i, st) in steps.iter().enumerate() {
                if i > 0 {
                    s.push_str(sep);
                }
                s.push_str(st);
            }
            // A predicate is only grammatical on a name/wildcard step.
            if !pred.is_empty() && !s.ends_with('.') {
                s.push_str(&pred);
            }
            s
        })
}

/// Random expressions over the full supported grammar: paths, literals,
/// arithmetic/comparison/boolean operators and the core functions.
fn expr_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        path_strategy(),
        (0u8..10).prop_map(|n| n.to_string()),
        prop_oneof![
            Just("'x'".to_string()),
            Just("'3'".to_string()),
            Just("''".to_string()),
            Just("'gridftp-7'".to_string())
        ],
        Just("true()".to_string()),
        Just("false()".to_string()),
        path_strategy().prop_map(|p| format!("count({p})")),
        path_strategy().prop_map(|p| format!("sum({p})")),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        let op = prop_oneof![
            Just("and"),
            Just("or"),
            Just("="),
            Just("!="),
            Just("<"),
            Just("<="),
            Just(">"),
            Just(">="),
            Just("+"),
            Just("-"),
            Just("*"),
            Just("div"),
            Just("mod"),
        ];
        prop_oneof![
            (inner.clone(), op, inner.clone()).prop_map(|(l, op, r)| format!("({l} {op} {r})")),
            inner.clone().prop_map(|e| format!("not({e})")),
            inner.clone().prop_map(|e| format!("boolean({e})")),
            inner
                .clone()
                .prop_map(|e| format!("string-length(string({e}))")),
            inner
                .clone()
                .prop_map(|e| format!("normalize-space(string({e}))")),
            inner
                .clone()
                .prop_map(|e| format!("contains(string({e}), 'x')")),
            inner
                .clone()
                .prop_map(|e| format!("starts-with(string({e}), 'g')")),
            inner
                .clone()
                .prop_map(|e| format!("concat(string({e}), '!')")),
            inner
                .clone()
                .prop_map(|e| format!("substring(string({e}), 2)")),
            inner
                .clone()
                .prop_map(|e| format!("translate(string({e}), 'abc', 'xyz')")),
            inner.clone().prop_map(|e| format!("floor(number({e}))")),
            inner.clone().prop_map(|e| format!("ceiling(number({e}))")),
            inner.clone().prop_map(|e| format!("round(number({e}))")),
            inner.prop_map(|e| format!("-({e})")),
        ]
    })
}

/// One child of a generated SOAP envelope element.
#[derive(Debug, Clone)]
enum Block {
    Header(Vec<Element>),
    Body(Vec<Element>),
    /// A comment between blocks, which the envelope reading skips.
    Comment,
    /// A child that is neither: the reading must reject it.
    Foreign(Element),
}

/// Envelope elements of either SOAP version: half of them one optional
/// header and one body over generated blocks, half any sequence of
/// blocks (body first, two bodies, a foreign child), written compactly
/// or pretty-printed (whitespace between every block).
fn envelope_xml_strategy() -> impl Strategy<Value = String> {
    let block = prop_oneof![
        prop::collection::vec(tree_strategy(), 0..3).prop_map(Block::Header),
        prop::collection::vec(tree_strategy(), 0..3).prop_map(Block::Body),
        Just(Block::Comment),
        tree_strategy().prop_map(Block::Foreign),
    ];
    let well_formed = (
        prop::option::of(prop::collection::vec(tree_strategy(), 0..3)),
        prop::collection::vec(tree_strategy(), 0..3),
    )
        .prop_map(|(header, body)| {
            header
                .map(Block::Header)
                .into_iter()
                .chain([Block::Body(body)])
                .collect::<Vec<_>>()
        });
    let blocks = prop_oneof![well_formed, prop::collection::vec(block, 0..4)];
    (any::<bool>(), blocks, any::<bool>()).prop_map(|(v11, blocks, pretty)| {
        let v = if v11 {
            SoapVersion::V11
        } else {
            SoapVersion::V12
        };
        let el = |local: &str| Element::ns(v.ns(), local, v.prefix());
        let mut env = el("Envelope");
        for b in blocks {
            let node = match b {
                Block::Header(kids) => {
                    Node::Element(kids.into_iter().fold(el("Header"), Element::with_child))
                }
                Block::Body(kids) => {
                    Node::Element(kids.into_iter().fold(el("Body"), Element::with_child))
                }
                Block::Comment => Node::Comment(" between ".into()),
                Block::Foreign(e) => Node::Element(e),
            };
            env.children.push(node);
        }
        if pretty {
            wsm_xml::to_pretty_string(&env)
        } else {
            wsm_xml::to_string(&env)
        }
    })
}

/// Value equality with NaN ≡ NaN (both engines produce NaN for the
/// same inputs; IEEE `==` would report spurious mismatches).
fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => (x.is_nan() && y.is_nan()) || x == y,
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The compiled program and the AST interpreter agree on the full
    /// `Value` and on the boolean filter verdict, for every generated
    /// (expression, document) pair.
    #[test]
    fn compiled_agrees_with_interpreter(src in expr_strategy(), tree in tree_strategy()) {
        let ast = parser::parse(&src).expect("generated expression parses");
        let compiled = CompiledFilter::compile(&src).expect("generated expression compiles");
        let want = evaluate(&ast, &tree);
        let got = compiled.evaluate(&tree);
        prop_assert!(
            value_eq(&got, &want),
            "value mismatch for `{}`: compiled {:?}, interpreter {:?}",
            src, got, want
        );
        prop_assert_eq!(
            compiled.matches(&tree),
            want.boolean(),
            "boolean mismatch for `{}`", src
        );
    }

    /// Required-name prefilter soundness: whenever the index would
    /// skip the filter (`may_match` false), the full evaluation must
    /// be false — the prefilter may only reject true negatives.
    #[test]
    fn required_mask_never_rejects_a_match(src in expr_strategy(), tree in tree_strategy()) {
        let compiled = CompiledFilter::compile(&src).expect("generated expression compiles");
        let doc = EvalDoc::new(&tree);
        if !compiled.may_match(&doc) {
            prop_assert!(
                !compiled.matches_doc(&doc),
                "prefilter rejected `{}` but the filter matches", src
            );
        }
    }

    /// A shared `EvalDoc` gives the same verdicts as per-call
    /// indexing (the registry builds one document index per
    /// publication and runs every candidate filter against it).
    #[test]
    fn shared_doc_equals_fresh_doc(src in expr_strategy(), tree in tree_strategy()) {
        let compiled = CompiledFilter::compile(&src).expect("generated expression compiles");
        let shared = EvalDoc::new(&tree);
        prop_assert_eq!(compiled.matches_doc(&shared), compiled.matches(&tree));
    }

    /// A sequence of filters evaluated one after another against *one*
    /// shared `EvalDoc` — as the registry runs a publication's
    /// candidates — each agrees with the interpreter on value and
    /// verdict. The evaluations share the document's pool of node-set
    /// buffers, so a buffer handed back with stale ids, or one lent
    /// twice at once, shows here as a wrong answer to a later filter.
    #[test]
    fn one_shared_doc_serves_a_sequence_of_filters(
        srcs in prop::collection::vec(expr_strategy(), 1..8),
        tree in tree_strategy(),
    ) {
        let shared = EvalDoc::new(&tree);
        for src in &srcs {
            let ast = parser::parse(src).expect("generated expression parses");
            let compiled = CompiledFilter::compile(src).expect("generated expression compiles");
            let want = evaluate(&ast, &tree);
            let got = compiled.evaluate_doc(&shared);
            prop_assert!(
                value_eq(&got, &want),
                "value mismatch for `{}` in sequence {:?}: compiled {:?}, interpreter {:?}",
                src, srcs, got, want
            );
            prop_assert_eq!(
                compiled.matches_doc(&shared),
                want.boolean(),
                "verdict mismatch for `{}` in sequence {:?}", src, srcs
            );
        }
    }

    /// Parsing an envelope from text — which moves the parsed header
    /// and body blocks into it — reads the same envelope, or the same
    /// error, as interpreting the parsed tree, which copies them.
    #[test]
    fn from_xml_reads_what_from_element_reads(xml in envelope_xml_strategy()) {
        let tree = wsm_xml::parse(&xml).expect("generated envelope parses as XML");
        prop_assert_eq!(Envelope::from_xml(&xml), Envelope::from_element(&tree), "{}", xml);
    }
}
