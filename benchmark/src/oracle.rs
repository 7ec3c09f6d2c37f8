//! The reference model: a linear scan over plain-Rust subscription
//! definitions, sharing no code with the broker. After a run it says
//! which subscribers must have received each checked publication, and
//! the receipts kept by the sink must agree exactly.

use crate::gen::{EventFacts, SubSpec};
use crate::sink::{picked, Receipt};

/// A subscription with its topic pattern split once.
pub struct Compiled {
    /// `None`: no topic filter. Otherwise the pattern's segments.
    topic: Option<Vec<String>>,
    /// Does the pattern hold a `*` (Full dialect: exact depth) or not
    /// (Concrete dialect: the named topic and its whole subtree)?
    wildcard: bool,
    /// The subscription this was made from.
    pub spec: SubSpec,
}

impl Compiled {
    /// Split `spec`'s topic pattern.
    pub fn new(spec: &SubSpec) -> Self {
        let topic = spec.topic.as_ref().map(|t| {
            assert!(!t.contains("//"), "the oracle does not model `//`");
            t.split('/').map(str::to_string).collect::<Vec<_>>()
        });
        let wildcard = topic.as_ref().is_some_and(|t| t.iter().any(|s| s == "*"));
        Compiled {
            topic,
            wildcard,
            spec: spec.clone(),
        }
    }

    /// Does the topic filter (if any) admit a publication whose topic
    /// has segments `event_topic`?
    pub fn topic_admits(&self, event_topic: Option<&[&str]>) -> bool {
        match (&self.topic, event_topic) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(pat), Some(got)) => {
                let depth_ok = if self.wildcard {
                    got.len() == pat.len()
                } else {
                    got.len() >= pat.len()
                };
                depth_ok && pat.iter().zip(got).all(|(p, g)| p == "*" || p == g)
            }
        }
    }

    /// Topic filter and content predicate both admit the publication.
    pub fn admits(&self, event: &EventFacts, event_topic: Option<&[&str]>) -> bool {
        self.topic_admits(event_topic) && self.spec.content.is_none_or(|c| c.admits(event))
    }
}

/// One churner subscription's life in publication sequence numbers.
/// All calls are made by the one generator thread, so no publication
/// falls between a Subscribe being sent and returning (or between an
/// Unsubscribe being sent and returning): "nothing outside
/// [sent, returned]" and "everything inside [returned, sent]" are the
/// same interval.
#[derive(Clone, Debug)]
pub struct ChurnerLife {
    /// Subscriber index of the consumer endpoint (a churner slot).
    pub sub: u32,
    /// What was subscribed.
    pub spec: SubSpec,
    /// First publication made after Subscribe returned.
    pub first_seq: u64,
    /// Last publication made before Unsubscribe was sent
    /// (`u64::MAX` while still subscribed at the end).
    pub last_seq: u64,
}

/// Result of comparing receipts with the model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Publications whose receiving set was checked in full.
    pub checked_publications: u64,
    /// Deliveries the model expected on the checked set.
    pub expected: u64,
    /// Expected but not received.
    pub missing: u64,
    /// Received but not expected.
    pub forbidden: u64,
}

/// Check the sink's `receipts` (sorted by `(seq, subscriber)`).
///
/// `facts` are the measured publications in publication order with
/// contiguous sequence numbers; `population` is the fixed population,
/// index = subscriber index; every receipt of a subscriber at or past
/// `population.len()` belongs to a churner and must fall in a life.
/// `sample_bits` is the sink's: the fixed population is checked on the
/// publications it kept receipts for.
pub fn verify(
    population: &[SubSpec],
    lives: &[ChurnerLife],
    facts: &[EventFacts],
    topic_name: &dyn Fn(u32) -> String,
    receipts: &[Receipt],
    sample_bits: u32,
) -> Verdict {
    let sampled = |seq: u64| picked(seq, sample_bits);
    let mut verdict = Verdict::default();
    let Some(first) = facts.first().map(|f| f.seq) else {
        verdict.forbidden = receipts.len() as u64;
        return verdict;
    };
    let fact_of = |seq: u64| facts.get(seq.checked_sub(first)? as usize);
    let fixed = population.len() as u32;
    let compiled: Vec<Compiled> = population.iter().map(Compiled::new).collect();

    let mut expected: Vec<Receipt> = Vec::new();
    for f in facts.iter().filter(|f| sampled(f.seq)) {
        verdict.checked_publications += 1;
        let name = f.topic.map(topic_name);
        let segs: Option<Vec<&str>> = name.as_deref().map(|n| n.split('/').collect());
        for (i, c) in compiled.iter().enumerate() {
            if c.admits(f, segs.as_deref()) {
                expected.push((f.seq, i as u32));
            }
        }
    }
    for life in lives {
        let c = Compiled::new(&life.spec);
        let last = life.last_seq.min(first + facts.len() as u64 - 1);
        for seq in life.first_seq.max(first)..=last {
            let f = fact_of(seq).expect("seq is inside the measured range");
            let name = f.topic.map(topic_name);
            let segs: Option<Vec<&str>> = name.as_deref().map(|n| n.split('/').collect());
            if c.admits(f, segs.as_deref()) {
                expected.push((seq, life.sub));
            }
        }
    }
    expected.sort_unstable();
    verdict.expected = expected.len() as u64;

    // Receipts outside the measured range (warm-up stragglers) or of
    // unsampled publications at fixed subscribers cannot be judged.
    let mut got: Vec<Receipt> = receipts
        .iter()
        .copied()
        .filter(|&(seq, sub)| fact_of(seq).is_some() && (sub >= fixed || sampled(seq)))
        .collect();
    got.dedup(); // repeats are the sink's `duplicated` count
    let (mut e, mut g) = (0, 0);
    while e < expected.len() || g < got.len() {
        match (expected.get(e), got.get(g)) {
            (Some(x), Some(y)) if x == y => {
                e += 1;
                g += 1;
            }
            (Some(x), Some(y)) if x < y => {
                verdict.missing += 1;
                e += 1;
            }
            (Some(_), None) => {
                verdict.missing += 1;
                e += 1;
            }
            _ => {
                verdict.forbidden += 1;
                g += 1;
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Content, Family};

    fn sub(topic: Option<&str>, content: Option<Content>) -> SubSpec {
        SubSpec {
            family: Family::Wsn13,
            topic: topic.map(str::to_string),
            content,
        }
    }

    #[test]
    fn topic_dialects_and_content() {
        let e = EventFacts::of(6, Some(0), 100); // sev 7, source 6
        let at = |s: &SubSpec, topic: Option<&str>| {
            let segs: Option<Vec<&str>> = topic.map(|t| t.split('/').collect());
            Compiled::new(s).admits(&e, segs.as_deref())
        };
        assert!(at(&sub(Some("a/b"), None), Some("a/b")));
        assert!(
            at(&sub(Some("a"), None), Some("a/b")),
            "concrete covers the subtree"
        );
        assert!(!at(&sub(Some("a/b/c"), None), Some("a/b")));
        assert!(at(&sub(Some("a/*"), None), Some("a/b")));
        assert!(
            !at(&sub(Some("a/*"), None), Some("a/b/c")),
            "`*` is one level"
        );
        assert!(
            !at(&sub(Some("a"), None), None),
            "topicless events match no topic filter"
        );
        assert!(at(&sub(None, Some(Content::SevAbove(6))), None));
        assert!(!at(
            &sub(Some("a"), Some(Content::SourceAndSevere(5))),
            Some("a")
        ));
    }

    #[test]
    fn missing_and_forbidden_are_found() {
        let population = vec![sub(Some("a"), None), sub(Some("b"), None)];
        let facts: Vec<EventFacts> = (64..1_000)
            .map(|s| EventFacts::of(s, Some((s % 2) as u32), 10))
            .collect();
        let name = |t: u32| {
            if t == 0 {
                "a".to_string()
            } else {
                "b".to_string()
            }
        };
        let lives = [ChurnerLife {
            sub: 2,
            spec: sub(Some("b"), None),
            first_seq: 100,
            last_seq: 103,
        }];
        // Sampled publications go to subscriber `seq % 2`; the churner
        // gets the odd publications of its life.
        let mut good: Vec<Receipt> = facts
            .iter()
            .filter(|f| picked(f.seq, 6))
            .map(|f| (f.seq, (f.seq % 2) as u32))
            .chain([(101, 2), (103, 2)])
            .collect();
        good.sort_unstable();
        let v = verify(&population, &lives, &facts, &name, &good, 6);
        assert!(v.checked_publications >= 5, "{v:?}");
        assert_eq!(v.expected, v.checked_publications + 2);
        assert_eq!((v.missing, v.forbidden), (0, 0));

        let dropped: Vec<Receipt> = good.iter().copied().filter(|&r| r != (103, 2)).collect();
        assert_eq!(
            verify(&population, &lives, &facts, &name, &dropped, 6).missing,
            1
        );

        let (seq, sub) = good[0];
        let mut extra = good.clone();
        extra.push((seq, 1 - sub)); // the subscriber of the other topic
        extra.push((105, 2)); // the churner after its Unsubscribe
        extra.sort_unstable();
        assert_eq!(
            verify(&population, &lives, &facts, &name, &extra, 6).forbidden,
            2
        );
    }
}
