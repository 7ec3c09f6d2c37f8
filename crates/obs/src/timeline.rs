//! Reconstructing per-event delivery stories from ring contents.
//!
//! The [`crate::SpanRing`] is a flat, time-ordered buffer; this module
//! re-groups its spans into causal timelines. Pipeline-wide spans
//! (publish/detect/match/render/deliver) key on `seq` alone;
//! delivery-attempt spans (retry/dead-letter/resolve) key on
//! `(seq, subscriber)`. A [`DeliveryStory`] is everything the ring
//! knows about one (event, subscriber) pair: every attempt in causal
//! order plus the terminal [`Outcome`], if it resolved.

use crate::span::{Outcome, SpanRecord, Stage};
use std::collections::BTreeMap;

/// The reconstructed delivery story of one (event, subscriber) pair.
#[derive(Debug, Clone)]
pub struct DeliveryStory {
    /// Publication sequence number (the trace id).
    pub seq: u64,
    /// Subscription id the story belongs to.
    pub subscriber: String,
    /// Every per-subscriber span of this delivery, in causal order
    /// (virtual time, then attempt ordinal): retries, the dead-letter
    /// move, and the terminal resolve span when present.
    pub spans: Vec<SpanRecord>,
    /// Terminal outcome, if a resolve span made it into the ring.
    pub outcome: Option<Outcome>,
    /// Virtual time the publication was ingested, when the seq's
    /// publish-stage span is still in the ring.
    pub published_at_ms: Option<u64>,
    /// Virtual time the delivery resolved (the resolve span's
    /// position), if it resolved.
    pub resolved_at_ms: Option<u64>,
}

impl DeliveryStory {
    /// End-to-end latency in virtual milliseconds, as carried by the
    /// resolve span (`items` of [`Stage::Resolve`]); `None` while the
    /// delivery is still in flight.
    pub fn e2e_ms(&self) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.stage == Stage::Resolve)
            .map(|s| s.items)
    }

    /// Attempt ordinals seen, in causal order (useful to assert
    /// completeness: no attempt missing from the chain).
    pub fn attempts(&self) -> Vec<u32> {
        self.spans
            .iter()
            .filter(|s| matches!(s.stage, Stage::Retry | Stage::Deliver))
            .map(|s| s.attempt)
            .collect()
    }
}

/// Re-group a flat span dump (e.g. [`crate::SpanRing::snapshot`]) into
/// one [`DeliveryStory`] per (event, subscriber) pair, ordered by
/// `(seq, subscriber)`. Pipeline-wide spans contribute only the
/// publication timestamp; pairs with no per-subscriber span are not
/// reported.
pub fn reconstruct(spans: &[SpanRecord]) -> Vec<DeliveryStory> {
    let mut published: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.stage == Stage::Publish {
            published.entry(s.seq).or_insert(s.at_ms);
        }
    }

    let mut stories: BTreeMap<(u64, String), DeliveryStory> = BTreeMap::new();
    for s in spans {
        let Some(sub) = s.subscriber.as_deref() else {
            continue;
        };
        let story = stories
            .entry((s.seq, sub.to_string()))
            .or_insert_with(|| DeliveryStory {
                seq: s.seq,
                subscriber: sub.to_string(),
                spans: Vec::new(),
                outcome: None,
                published_at_ms: published.get(&s.seq).copied(),
                resolved_at_ms: None,
            });
        if s.stage == Stage::Resolve {
            story.outcome = s.outcome;
            story.resolved_at_ms = Some(s.at_ms);
        }
        story.spans.push(s.clone());
    }

    let mut out: Vec<DeliveryStory> = stories.into_values().collect();
    for story in &mut out {
        // The ring preserves push order, but redeliveries from
        // different pump rounds interleave with other traffic; causal
        // order within one story is virtual time, the terminal resolve
        // span last (it can share a timestamp with the dead-letter
        // move while carrying a lower attempt ordinal), then attempt.
        story
            .spans
            .sort_by_key(|s| (s.at_ms, s.stage == Stage::Resolve, s.attempt));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceContext;

    #[test]
    fn reconstructs_retry_chain_with_terminal_outcome() {
        let mut spans = vec![SpanRecord::new(9, Stage::Publish, 100, 1_000, 1)];
        for attempt in 0..3u32 {
            let ctx = TraceContext::new(9, "sub-a", attempt);
            spans.push(SpanRecord::for_attempt(
                ctx,
                Stage::Retry,
                100 + 10 * attempt as u64,
                2_000,
                attempt as u64,
            ));
        }
        let ctx = TraceContext::new(9, "sub-a", 3);
        spans.push(SpanRecord::for_attempt(
            ctx.clone(),
            Stage::DeadLetter,
            140,
            0,
            3,
        ));
        spans.push(
            SpanRecord::for_attempt(ctx, Stage::Resolve, 140, 0, 40)
                .with_outcome(Outcome::DeadLettered),
        );
        // Unrelated subscriber on the same seq.
        let other = TraceContext::new(9, "sub-b", 0);
        spans.push(
            SpanRecord::for_attempt(other, Stage::Resolve, 101, 0, 1)
                .with_outcome(Outcome::Delivered),
        );

        let stories = reconstruct(&spans);
        assert_eq!(stories.len(), 2);
        let story_of = |subscriber: &str| {
            stories
                .iter()
                .find(|st| st.seq == 9 && st.subscriber == subscriber)
                .unwrap()
        };
        let story = story_of("sub-a");
        assert_eq!(story.outcome, Some(Outcome::DeadLettered));
        assert_eq!(story.published_at_ms, Some(100));
        assert_eq!(story.resolved_at_ms, Some(140));
        assert_eq!(story.e2e_ms(), Some(40));
        assert_eq!(story.attempts(), vec![0, 1, 2]);
        let at: Vec<u64> = story.spans.iter().map(|s| s.at_ms).collect();
        let mut sorted = at.clone();
        sorted.sort_unstable();
        assert_eq!(at, sorted, "spans are in causal order");
        assert_eq!(story.spans.last().unwrap().stage, Stage::Resolve);

        let quick = story_of("sub-b");
        assert_eq!(quick.outcome, Some(Outcome::Delivered));
    }
}
