//! TopicSet documents: the XML form in which a producer/broker
//! advertises its topic space (WS-Topics §6 shape: one element per
//! topic, nesting mirroring the tree, `topic="true"` marking real
//! topics).

use crate::path::TopicPath;
use crate::space::{TopicNode, TopicSpace};
use wsm_xml::Element;

/// Namespace of TopicSet documents.
pub const TOPIC_SET_NS: &str = "http://docs.oasis-open.org/wsn/t-1";

/// Serialize a topic space as a `TopicSet` element.
pub fn to_topic_set(space: &TopicSpace) -> Element {
    let mut root = Element::ns(TOPIC_SET_NS, "TopicSet", "wstop");
    if let Some(ns) = &space.namespace {
        root.set_attr(wsm_xml::QName::local("targetNamespace"), ns.clone());
    }
    for node in space.roots() {
        root.push(node_to_element(node));
    }
    root
}

fn node_to_element(node: &TopicNode) -> Element {
    // Topic names are used as element names (the WS-Topics convention);
    // every node present in the space is a topic.
    let mut el = Element::local(&node.name).with_attr_ns(TOPIC_SET_NS, "topic", "wstop", "true");
    for c in &node.children {
        el.push(node_to_element(c));
    }
    el
}

/// Parse a `TopicSet` element back into a topic space.
///
/// Elements whose `wstop:topic` is an `xsd:boolean` true (`true` or
/// `1`), or that carry no marking at all, for tolerance, become topics;
/// nesting becomes hierarchy.
pub fn from_topic_set(el: &Element) -> Option<TopicSpace> {
    if !el.name.is(TOPIC_SET_NS, "TopicSet") {
        return None;
    }
    let mut space = match el.attr("targetNamespace") {
        Some(ns) => TopicSpace::with_namespace(ns),
        None => TopicSpace::new(),
    };
    for child in el.elements() {
        walk(child, Vec::new(), &mut space);
    }
    Some(space)
}

fn walk(el: &Element, mut prefix: Vec<String>, space: &mut TopicSpace) {
    let marked = el
        .attr_ns(TOPIC_SET_NS, "topic")
        .is_none_or(|v| wsm_xml::xsd::parse_boolean(v) == Some(true));
    prefix.push(el.name.local.to_string());
    if marked {
        space.add(&TopicPath {
            namespace: space.namespace.clone(),
            segments: prefix.clone(),
        });
    }
    for c in el.elements() {
        walk(c, prefix.clone(), space);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> TopicSpace {
        let mut s = TopicSpace::new();
        s.add_str("storms/tornado");
        s.add_str("storms/hail");
        s.add_str("traffic");
        s
    }

    #[test]
    fn roundtrip() {
        let s = space();
        let doc = to_topic_set(&s);
        let xml = wsm_xml::to_string(&doc);
        let reparsed = wsm_xml::parse(&xml).unwrap();
        let back = from_topic_set(&reparsed).unwrap();
        assert_eq!(back.all_topics(), s.all_topics(), "{xml}");
    }

    #[test]
    fn namespaced_roundtrip() {
        let mut s = TopicSpace::with_namespace("urn:wx");
        s.add_str("a/b");
        let back = from_topic_set(&to_topic_set(&s)).unwrap();
        assert_eq!(back.namespace.as_deref(), Some("urn:wx"));
        assert_eq!(back.all_topics(), s.all_topics());
    }

    #[test]
    fn document_shape() {
        let doc = to_topic_set(&space());
        assert_eq!(doc.name.local, "TopicSet");
        let storms = doc.child("storms").unwrap();
        assert_eq!(storms.attr_ns(TOPIC_SET_NS, "topic"), Some("true"));
        assert!(storms.child("tornado").is_some());
        assert!(storms.child("hail").is_some());
    }

    #[test]
    fn topic_marking_is_an_xsd_boolean() {
        let mark = |name: &str, value: &str| {
            Element::local(name).with_attr_ns(TOPIC_SET_NS, "topic", "wstop", value)
        };
        let doc = Element::ns(TOPIC_SET_NS, "TopicSet", "wstop")
            .with_child(mark("one", "1"))
            .with_child(mark("spaced", " true "))
            .with_child(mark("zero", "0"))
            .with_child(mark("no", "false"));
        let names: Vec<String> = from_topic_set(&doc)
            .unwrap()
            .all_topics()
            .iter()
            .map(|t| t.to_string())
            .collect();
        assert_eq!(names, ["one", "spaced"]);
    }

    #[test]
    fn non_topic_set_rejected() {
        assert!(from_topic_set(&Element::local("NotATopicSet")).is_none());
    }

    #[test]
    fn empty_space_roundtrips() {
        let s = TopicSpace::new();
        let back = from_topic_set(&to_topic_set(&s)).unwrap();
        assert!(back.is_empty());
    }
}
