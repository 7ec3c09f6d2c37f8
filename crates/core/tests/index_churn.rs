//! Match-index consistency under subscribe/unsubscribe churn.
//!
//! The registry's match index (topic trie, literal buckets, broadcast
//! list) is updated inside the registry lock, so a concurrent
//! publisher must observe it atomically: a `matching()` call may never
//! *miss* a subscription that is registered for the whole call, and
//! may never *return* one that was fully removed before the call
//! began. This exercises exactly the link/unlink paths the index adds.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use wsm_addressing::EndpointReference;
use wsm_eventing::WseVersion;
use wsm_messenger::registry::Registry;
use wsm_messenger::{BrokerDeliveryMode, InternalEvent, SpecDialect, UnifiedFilters};
use wsm_topics::TopicExpression;
use wsm_xml::Element;
use wsm_xpath::CompiledFilter;

fn insert(r: &Registry, filters: UnifiedFilters) -> String {
    r.insert(
        SpecDialect::Wse(WseVersion::Aug2004),
        EndpointReference::new("http://c"),
        None,
        filters,
        BrokerDeliveryMode::Push,
        false,
        None,
    )
}

fn xp(src: &str) -> Arc<CompiledFilter> {
    Arc::new(CompiledFilter::compile(src).unwrap())
}

/// Filter shapes covering every index placement: topic trie (concrete
/// and wildcard), literal bucket, broadcast (complex content filter),
/// and unfiltered.
fn churn_filters(i: usize) -> UnifiedFilters {
    match i % 5 {
        0 => UnifiedFilters {
            topics: vec![TopicExpression::concrete("storms/hail").unwrap()],
            content: vec![],
            producer_props: vec![],
        },
        1 => UnifiedFilters {
            topics: vec![TopicExpression::full("storms//*").unwrap()],
            content: vec![],
            producer_props: vec![],
        },
        2 => UnifiedFilters {
            topics: vec![],
            content: vec![xp("/e/src = 'gridftp'")],
            producer_props: vec![],
        },
        3 => UnifiedFilters {
            topics: vec![],
            content: vec![xp("contains(/e/src, 'ftp')")],
            producer_props: vec![],
        },
        _ => UnifiedFilters::default(),
    }
}

#[test]
fn churn_never_misses_live_or_matches_stale() {
    let registry = Registry::new();
    // Permanent subscriptions, one per placement; all match the probe
    // event, and every matching() call must return all of them.
    let permanent: Vec<String> = (0..5)
        .map(|i| insert(&registry, churn_filters(i)))
        .collect();
    let event = InternalEvent::on_topic(
        "storms/hail",
        Element::local("e").with_child(Element::local("src").with_text("gridftp")),
    );
    assert_eq!(registry.matching(&event, None, 0).len(), 5);

    let stop = Arc::new(AtomicBool::new(false));
    let rounds: Vec<Arc<AtomicUsize>> = (0..3).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let churners: Vec<_> = (0..3)
        .map(|t| {
            let registry = registry.clone();
            let stop = stop.clone();
            let rounds = rounds[t].clone();
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let ids: Vec<String> = (0..5)
                        .map(|i| insert(&registry, churn_filters(t * 5 + i)))
                        .collect();
                    for id in ids {
                        assert!(registry.remove(&id).is_some());
                    }
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Probe at least 400 times, then keep probing until every churner
    // has completed at least one round — a churner thread may not have
    // been scheduled yet when the fixed probe budget runs out. The
    // deadline only bounds the wait if a churner dies; join() below
    // surfaces its panic.
    let permanent_set: Vec<&str> = permanent.iter().map(String::as_str).collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut probes = 0usize;
    loop {
        let got = registry.matching(&event, None, 0);
        // Never miss: every permanent subscription matches the event
        // and is registered for the whole call.
        for id in &permanent_set {
            assert!(
                got.iter().any(|s| &*s.id == *id),
                "matching() missed live subscription {id}"
            );
        }
        // Never stale: results only ever name subscriptions that are
        // (or were, mid-call) registered — ids are minted by this
        // registry, so anything else would be an index leak.
        for s in &got {
            assert!(registry.get(&s.id).is_some() || !permanent_set.contains(&&*s.id));
        }
        probes += 1;
        let all_progressed = rounds.iter().all(|r| r.load(Ordering::Relaxed) > 0);
        if (probes >= 400 && all_progressed) || std::time::Instant::now() >= deadline {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    for c in churners {
        c.join().unwrap();
    }
    for r in &rounds {
        assert!(r.load(Ordering::Relaxed) > 0, "churner made no progress");
    }

    // Quiesced: the churn subscriptions all removed themselves, so the
    // index must be exactly the permanent population again.
    let mut got: Vec<String> = registry
        .matching(&event, None, 0)
        .into_iter()
        .map(|s| s.id.to_string())
        .collect();
    got.sort();
    let mut want = permanent.clone();
    want.sort();
    assert_eq!(got, want, "index retains stale links after churn");
    assert_eq!(registry.len(), 5);

    // The probe event with no topic reaches only topicless placements.
    let topicless = InternalEvent::raw(
        Element::local("e").with_child(Element::local("src").with_text("gridftp")),
    );
    assert_eq!(registry.matching(&topicless, None, 0).len(), 3);
}
