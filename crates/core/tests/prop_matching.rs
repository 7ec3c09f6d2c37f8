//! The match index with shared programs against a brute-force scan.
//!
//! Random populations from a small vocabulary — topic filters (concrete
//! and wildcard), content filters including whitespace and folding
//! variants of one program, literal-equality filters, producer-properties
//! filters (one of them the same text as a content filter, so payload and
//! properties verdicts must stay apart) and unfiltered subscriptions —
//! go through inserts, pauses, expiries and removals. At every probe,
//! for several events with and without a properties document,
//! `Registry::matching` must return exactly the live, unpaused
//! subscriptions whose filters `UnifiedFilters::admit` accepts, in id
//! order.

use proptest::prelude::*;
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_eventing::WseVersion;
use wsm_messenger::registry::Registry;
use wsm_messenger::{BrokerDeliveryMode, InternalEvent, SpecDialect, UnifiedFilters};
use wsm_topics::TopicExpression;
use wsm_xml::Element;
use wsm_xpath::CompiledFilter;

fn topic(choice: u8) -> Option<TopicExpression> {
    match choice % 8 {
        1 => Some(TopicExpression::concrete("storms").unwrap()),
        2 => Some(TopicExpression::concrete("storms/hail").unwrap()),
        3 => Some(TopicExpression::full("storms/*").unwrap()),
        4 => Some(TopicExpression::full("storms//*").unwrap()),
        5 => Some(TopicExpression::full("//hail").unwrap()),
        6 => Some(TopicExpression::concrete("traffic").unwrap()),
        _ => None,
    }
}

/// Content filters: 1–3 are one program spelled three ways, 4–5 one
/// literal-equality program, 6 another literal.
fn content(choice: u8) -> Option<&'static str> {
    match choice % 11 {
        1 => Some("/e[@sev>3]"),
        2 => Some("/e[ @sev > 3 ]"),
        3 => Some("/e[@sev > 2 + 1]"),
        4 => Some("/e/kind = 'alert'"),
        5 => Some("/e/kind='alert'"),
        6 => Some("/e/kind = 'info'"),
        7 => Some("contains(/e/kind, 'al')"),
        8 => Some("count(/e/*) > 1"),
        9 => Some("/e[kind='alert' and @sev>5]"),
        _ => None,
    }
}

/// Producer-properties filters; 3 is content filter 1's text.
fn props_filter(choice: u8) -> Option<&'static str> {
    match choice % 6 {
        1 => Some("/props/site = 'anl'"),
        2 => Some("/props/site='anl'"),
        3 => Some("/e[@sev>3]"),
        _ => None,
    }
}

fn xp(src: &str) -> Arc<CompiledFilter> {
    Arc::new(CompiledFilter::compile(src).unwrap())
}

fn filters(t: u8, c: u8, p: u8) -> UnifiedFilters {
    UnifiedFilters {
        topics: topic(t).into_iter().collect(),
        content: content(c).map(xp).into_iter().collect(),
        producer_props: props_filter(p).map(xp).into_iter().collect(),
    }
}

fn event(t: u8, sev: u8, kind: u8) -> InternalEvent {
    let mut e = Element::local("e").with_attr("sev", sev.to_string());
    match kind % 4 {
        1 => e = e.with_child(Element::local("kind").with_text("alert")),
        2 => e = e.with_child(Element::local("kind").with_text("info")),
        3 => {
            e = e
                .with_child(Element::local("kind").with_text("alert"))
                .with_child(Element::local("x"))
        }
        _ => {}
    }
    match t % 5 {
        1 => InternalEvent::on_topic("storms", e),
        2 => InternalEvent::on_topic("storms/hail", e),
        3 => InternalEvent::on_topic("traffic", e),
        4 => InternalEvent::on_topic("alerts/hail", e),
        _ => InternalEvent::raw(e),
    }
}

/// One registered subscription as the brute-force scan sees it: its
/// own, unshared copy of the filters.
struct Model {
    id: String,
    filters: UnifiedFilters,
    paused: bool,
    expires_at_ms: Option<u64>,
}

fn check(
    r: &Registry,
    model: &[Model],
    events: &[(u8, u8, u8)],
    now: u64,
) -> Result<(), TestCaseError> {
    let anl = Element::local("props").with_child(Element::local("site").with_text("anl"));
    let hot = Element::local("e").with_attr("sev", "5");
    for &(t, sev, kind) in events {
        let ev = event(t, sev, kind);
        for props in [None, Some(&anl), Some(&hot)] {
            let got: Vec<String> = r
                .matching(&ev, props, now)
                .iter()
                .map(|s| s.id.to_string())
                .collect();
            let want: Vec<String> = model
                .iter()
                .filter(|m| !m.paused && m.expires_at_ms.is_none_or(|t| t > now))
                .filter(|m| m.filters.admit(&ev, props))
                .map(|m| m.id.clone())
                .collect();
            prop_assert_eq!(
                got,
                want,
                "event {:?} props {:?} at {}",
                (t, sev, kind),
                props.map(|p| p.name.local.to_string()),
                now
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matching_equals_a_brute_force_admit_scan(
        ops in prop::collection::vec((0u8..10, 0u8..8, 0u8..11, 0u8..6, 0u8..255), 1..60),
        events in prop::collection::vec((0u8..5, 0u8..8, 0u8..4), 1..6),
    ) {
        let r = Registry::new();
        let mut model: Vec<Model> = Vec::new();
        let mut now = 0u64;
        for &(op, t, c, p, extra) in &ops {
            match op {
                0..=5 => {
                    let f = filters(t, c, p);
                    let expires_at_ms = match extra % 4 {
                        1 => Some(now + 50),
                        2 => Some(now + 150),
                        _ => None,
                    };
                    let id = r.insert(
                        SpecDialect::Wse(WseVersion::Aug2004),
                        EndpointReference::new("http://c"),
                        None,
                        f.clone(),
                        BrokerDeliveryMode::Push,
                        false,
                        expires_at_ms,
                    );
                    let paused = extra % 4 == 3;
                    if paused {
                        prop_assert!(r.set_paused(&id, true));
                    }
                    model.push(Model { id, filters: f, paused, expires_at_ms });
                }
                6 if !model.is_empty() => {
                    let m = model.remove(extra as usize % model.len());
                    prop_assert!(r.remove(&m.id).is_some());
                }
                7 => {
                    now += 40;
                    let mut swept: Vec<String> =
                        r.sweep_expired(now).iter().map(|s| s.id.to_string()).collect();
                    let mut due: Vec<String> = model
                        .iter()
                        .filter(|m| m.expires_at_ms.is_some_and(|t| t <= now))
                        .map(|m| m.id.clone())
                        .collect();
                    swept.sort();
                    due.sort();
                    prop_assert_eq!(swept, due);
                    model.retain(|m| m.expires_at_ms.is_none_or(|t| t > now));
                }
                8 if !model.is_empty() => {
                    let i = extra as usize % model.len();
                    model[i].paused = !model[i].paused;
                    prop_assert!(r.set_paused(&model[i].id, model[i].paused));
                }
                _ => check(&r, &model, &events, now)?,
            }
        }
        check(&r, &model, &events, now)?;
        prop_assert_eq!(r.len(), model.len());
    }
}
