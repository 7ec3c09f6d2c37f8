//! A trie index over registered topic expressions.
//!
//! [`TopicTrie`] answers "which subscriptions' topic expressions match
//! this published topic?" in time proportional to the topic's depth and
//! the number of *matching* subscriptions, instead of testing every
//! registered expression. Expressions sharing structure share trie
//! nodes, so a million `Simple` subscriptions on distinct roots cost
//! one root-level `HashMap` probe per publication, not a million
//! `matches()` calls.
//!
//! The trie is an NFA over topic segments:
//!
//! * literal segments are child edges keyed by [`Interned`] name
//!   (interning the topic vocabulary up front makes these hash-and-
//!   compare on pointers for the common words);
//! * `*` (one level, any name) is an `any` edge;
//! * `//` (zero or more levels) is a `descend` edge whose target stays
//!   *floating* in the active state set — it re-admits itself on every
//!   consumed segment, which is exactly the "skip any number of
//!   levels" semantics of `match_full`;
//! * Simple/Concrete expressions terminate in *subtree* terminals,
//!   collected whenever their node is reached with topic segments to
//!   spare (prefix match covers the subtree); Full expressions
//!   terminate in *exact* terminals, collected only when the topic is
//!   fully consumed.
//!
//! Removal re-walks the expression and unlinks the id from its
//! terminal lists; interior nodes are deliberately never freed (the
//! broker's topic vocabulary is small and stable, and keeping nodes
//! makes concurrent re-subscription churn cheap).

use crate::expression::{Seg, TopicExpression};
use crate::path::TopicPath;
use std::collections::HashMap;
use wsm_xml::{intern, Interned};

#[derive(Debug, Default)]
struct TrieNode {
    children: HashMap<Interned, u32>,
    any: Option<u32>,
    descend: Option<u32>,
    /// Subscription ids whose pattern ends here with subtree
    /// (Simple/Concrete prefix) semantics.
    subtree: Vec<u64>,
    /// Subscription ids whose pattern ends here with exact-depth
    /// (Full) semantics.
    exact: Vec<u64>,
}

/// Trie index over topic expressions; see the module docs.
#[derive(Debug)]
pub struct TopicTrie {
    nodes: Vec<TrieNode>,
}

impl Default for TopicTrie {
    fn default() -> Self {
        Self::new()
    }
}

const ROOT: u32 = 0;

impl TopicTrie {
    /// An empty trie.
    pub fn new() -> Self {
        TopicTrie {
            nodes: vec![TrieNode::default()],
        }
    }

    fn node_for(&mut self, from: u32, seg: &Seg) -> u32 {
        let next_id = self.nodes.len() as u32;
        let slot = match seg {
            Seg::Name(n) => {
                let key = intern(n);
                self.nodes[from as usize]
                    .children
                    .entry(key)
                    .or_insert(next_id)
            }
            Seg::Any => self.nodes[from as usize].any.get_or_insert(next_id),
            Seg::Descend => self.nodes[from as usize].descend.get_or_insert(next_id),
        };
        let id = *slot;
        if id == next_id {
            self.nodes.push(TrieNode::default());
        }
        id
    }

    /// Register `id` under every alternative of `expr`.
    pub fn insert(&mut self, expr: &TopicExpression, id: u64) {
        for alt in expr.alts() {
            let mut at = ROOT;
            for seg in alt {
                at = self.node_for(at, seg);
            }
            let terminal = &mut self.nodes[at as usize];
            if expr.is_subtree() {
                terminal.subtree.push(id);
            } else {
                terminal.exact.push(id);
            }
        }
    }

    /// Unregister `id` from every alternative of `expr`. A no-op if the
    /// id was never inserted under this expression.
    pub fn remove(&mut self, expr: &TopicExpression, id: u64) {
        for alt in expr.alts() {
            let mut at = ROOT;
            let mut found = true;
            for seg in alt {
                let node = &self.nodes[at as usize];
                let next = match seg {
                    Seg::Name(n) => node.children.get(n.as_str()).copied(),
                    Seg::Any => node.any,
                    Seg::Descend => node.descend,
                };
                match next {
                    Some(n) => at = n,
                    None => {
                        found = false;
                        break;
                    }
                }
            }
            if found {
                let terminal = &mut self.nodes[at as usize];
                if expr.is_subtree() {
                    terminal.subtree.retain(|&s| s != id);
                } else {
                    terminal.exact.retain(|&s| s != id);
                }
            }
        }
    }

    /// Ids of all registered expressions matching `topic`, sorted and
    /// deduplicated.
    pub fn matches(&self, topic: &TopicPath) -> Vec<u64> {
        // Active NFA states: (node, floating). Floating states are
        // descend targets that survive every consumption step.
        let mut states: Vec<(u32, bool)> = vec![(ROOT, false)];
        self.closure(&mut states);
        let mut out: Vec<u64> = Vec::new();
        self.collect_subtree(&states, &mut out);
        let last = topic.segments.len().saturating_sub(1);
        // Two state buffers, swapped per segment: the step writes the
        // next set into the one the previous step read from.
        let mut next: Vec<(u32, bool)> = Vec::new();
        for (i, seg) in topic.segments.iter().enumerate() {
            next.clear();
            for &(at, floating) in &states {
                let node = &self.nodes[at as usize];
                if floating {
                    next.push((at, true));
                }
                if let Some(&c) = node.children.get(seg.as_str()) {
                    next.push((c, false));
                }
                if let Some(a) = node.any {
                    next.push((a, false));
                }
            }
            self.closure(&mut next);
            std::mem::swap(&mut states, &mut next);
            if states.is_empty() {
                break;
            }
            self.collect_subtree(&states, &mut out);
            if i == last {
                for &(at, _) in &states {
                    out.extend(&self.nodes[at as usize].exact);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Expand descend edges: each target joins the set as floating.
    fn closure(&self, states: &mut Vec<(u32, bool)>) {
        let mut i = 0;
        while i < states.len() {
            let (at, _) = states[i];
            if let Some(d) = self.nodes[at as usize].descend {
                if !states.iter().any(|&(n, f)| n == d && f) {
                    states.push((d, true));
                }
            }
            i += 1;
        }
        // Merge duplicate nodes, keeping the floating flavor.
        states.sort_unstable_by_key(|a| (a.0, !a.1));
        states.dedup_by_key(|s| s.0);
    }

    fn collect_subtree(&self, states: &[(u32, bool)], out: &mut Vec<u64>) {
        for &(at, _) in states {
            out.extend(&self.nodes[at as usize].subtree);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::TopicExpression;

    fn p(s: &str) -> TopicPath {
        TopicPath::parse(s).unwrap()
    }

    /// Cross-check the trie against TopicExpression::matches for a
    /// population of expressions over a set of topics.
    fn check(exprs: &[TopicExpression], topics: &[&str]) {
        let mut trie = TopicTrie::new();
        for (i, e) in exprs.iter().enumerate() {
            trie.insert(e, i as u64);
        }
        for t in topics {
            let topic = p(t);
            let want: Vec<u64> = exprs
                .iter()
                .enumerate()
                .filter(|(_, e)| e.matches(&topic))
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(trie.matches(&topic), want, "topic {t}");
        }
    }

    const TOPICS: &[&str] = &[
        "storms",
        "storms/tornado",
        "storms/tornado/f5",
        "storms/hail",
        "storms/hail/severe",
        "traffic",
        "traffic/jam",
        "jobs/started",
        "jobs/finished/ok",
        "a/c",
        "a/b/c",
        "a/b/b2/c",
        "a/b",
        "tornado",
    ];

    #[test]
    fn trie_agrees_with_linear_matching() {
        let exprs = vec![
            TopicExpression::simple("storms").unwrap(),
            TopicExpression::simple("traffic").unwrap(),
            TopicExpression::concrete("storms/tornado").unwrap(),
            TopicExpression::concrete("jobs/finished").unwrap(),
            TopicExpression::full("storms/*").unwrap(),
            TopicExpression::full("storms//*").unwrap(),
            TopicExpression::full("//tornado").unwrap(),
            TopicExpression::full("a//c").unwrap(),
            TopicExpression::full("storms/* | traffic").unwrap(),
            TopicExpression::full("*/jam").unwrap(),
        ];
        check(&exprs, TOPICS);
    }

    #[test]
    fn remove_unlinks_only_the_removed_id() {
        let e1 = TopicExpression::simple("storms").unwrap();
        let e2 = TopicExpression::simple("storms").unwrap();
        let mut trie = TopicTrie::new();
        trie.insert(&e1, 1);
        trie.insert(&e2, 2);
        assert_eq!(trie.matches(&p("storms/hail")), vec![1, 2]);
        trie.remove(&e1, 1);
        assert_eq!(trie.matches(&p("storms/hail")), vec![2]);
        trie.remove(&e2, 2);
        assert!(trie.matches(&p("storms/hail")).is_empty());
        // Removing again (or an id never inserted) is a no-op.
        trie.remove(&e2, 2);
        trie.remove(&TopicExpression::full("x//y").unwrap(), 9);
    }

    #[test]
    fn union_alternatives_dedup() {
        let e = TopicExpression::full("storms/* | storms/hail").unwrap();
        let mut trie = TopicTrie::new();
        trie.insert(&e, 7);
        // Both alternatives match storms/hail; the id appears once.
        assert_eq!(trie.matches(&p("storms/hail")), vec![7]);
        trie.remove(&e, 7);
        assert!(trie.matches(&p("storms/hail")).is_empty());
    }

    #[test]
    fn deep_descend_chains() {
        let exprs = vec![
            TopicExpression::full("a//b//c").unwrap(),
            TopicExpression::full("//*").unwrap(),
        ];
        check(
            &exprs,
            &["a/b/c", "a/x/b/y/c", "a/c", "b/c", "a", "a/b/c/d"],
        );
    }
}
