//! §V.4 — the message-format comparison experiment.
//!
//! The paper groups the differences between equivalent WS-Eventing and
//! WS-Notification SOAP messages into six categories. This module
//! serializes the *same logical exchange* through both stacks (a
//! subscription with the same consumer and filter, its response, and a
//! notification carrying the same payload on the same topic), diffs
//! the envelope trees with `wsm-xml::diff`, and classifies every
//! difference into the paper's categories:
//!
//! 1. element/attribute **names** (`Identifier` vs `SubscriptionId`...),
//! 2. **namespaces** of the specifications,
//! 3. **versions of underlying specifications** (WS-Addressing 2004/08
//!    vs 2005/08, SOAP 1.2 vs 1.1),
//! 4. required message **contents** (different `wsa:Action` values...),
//! 5. message **structure** (`Notify`/`NotificationMessage` wrapping vs
//!    raw bodies),
//! 6. **content location** (topic in the body for WSN, in a SOAP header
//!    for WSE).

use wsm_addressing::{EndpointReference, WsaVersion};
use wsm_eventing::{Filter, SubscribeRequest, SubscriptionHandle, WseCodec, WseVersion};
use wsm_messenger::registry::{BrokerDeliveryMode, BrokerSubscription, UnifiedFilters};
use wsm_messenger::render::{render_notification, WSM_NS};
use wsm_messenger::{InternalEvent, SpecDialect};
use wsm_notification::{WsnCodec, WsnFilter, WsnSubscribeRequest, WsnVersion};
use wsm_soap::Envelope;
use wsm_xml::diff::DiffKind;
use wsm_xml::{diff, Element};

/// The paper's six difference categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiffCategory {
    /// (1) Element or attribute names.
    ElementNames,
    /// (2) Specification namespaces.
    Namespaces,
    /// (3) Versions of underlying specifications (WSA, SOAP).
    UnderlyingSpecVersions,
    /// (4) Required message contents.
    MessageContents,
    /// (5) SOAP message structures.
    Structure,
    /// (6) Content locations (header vs body).
    ContentLocation,
}

impl DiffCategory {
    /// All six, in the paper's order.
    pub const ALL: [DiffCategory; 6] = [
        DiffCategory::ElementNames,
        DiffCategory::Namespaces,
        DiffCategory::UnderlyingSpecVersions,
        DiffCategory::MessageContents,
        DiffCategory::Structure,
        DiffCategory::ContentLocation,
    ];

    /// The paper's description of the category.
    pub fn label(self) -> &'static str {
        match self {
            DiffCategory::ElementNames => "Element names or attribute names difference",
            DiffCategory::Namespaces => "Namespaces difference",
            DiffCategory::UnderlyingSpecVersions => {
                "Versions difference of underlying specifications"
            }
            DiffCategory::MessageContents => "Message contents difference",
            DiffCategory::Structure => "SOAP message structures difference",
            DiffCategory::ContentLocation => "Content locations difference",
        }
    }
}

/// The diff of one WSE/WSN message pair.
#[derive(Debug, Clone)]
pub struct PairDiff {
    /// Which exchange ("Subscribe", "SubscribeResponse", "Notification").
    pub pair: &'static str,
    /// Count per category (indexed by [`DiffCategory::ALL`] order).
    pub counts: [usize; 6],
    /// Example findings, one line each.
    pub examples: Vec<(DiffCategory, String)>,
}

/// The full experiment output.
#[derive(Debug, Clone)]
pub struct MsgDiffReport {
    /// Per-pair results.
    pub pairs: Vec<PairDiff>,
}

impl MsgDiffReport {
    /// Total findings in a category across all pairs.
    pub fn total(&self, cat: DiffCategory) -> usize {
        let idx = DiffCategory::ALL.iter().position(|c| *c == cat).unwrap();
        self.pairs.iter().map(|p| p.counts[idx]).sum()
    }

    /// Render the report.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Message-format differences (WSE 08/2004 vs WSN 1.3), paper SSV.4:\n\n");
        for (i, cat) in DiffCategory::ALL.iter().enumerate() {
            out.push_str(&format!(
                "({}) {} — {} findings\n",
                i + 1,
                cat.label(),
                self.total(*cat)
            ));
            for p in &self.pairs {
                for (c, ex) in &p.examples {
                    if c == cat {
                        out.push_str(&format!("      [{}] {}\n", p.pair, ex));
                    }
                }
            }
        }
        out
    }
}

fn classify(kind: &DiffKind) -> DiffCategory {
    match kind {
        DiffKind::LocalName { .. } => DiffCategory::ElementNames,
        DiffKind::Namespace { left, right } => {
            let is_underlying = |ns: &Option<String>| {
                ns.as_deref()
                    .map(|n| {
                        WsaVersion::from_ns(n).is_some()
                            || n == wsm_soap::envelope::SOAP11_NS
                            || n == wsm_soap::envelope::SOAP12_NS
                    })
                    .unwrap_or(false)
            };
            if is_underlying(left) && is_underlying(right) {
                DiffCategory::UnderlyingSpecVersions
            } else {
                DiffCategory::Namespaces
            }
        }
        DiffKind::Text { .. } | DiffKind::AttrValue { .. } | DiffKind::AttrPresence { .. } => {
            DiffCategory::MessageContents
        }
        DiffKind::ChildCount { .. } => DiffCategory::Structure,
    }
}

fn diff_pair(pair: &'static str, wse: &Envelope, wsn: &Envelope) -> PairDiff {
    let entries = diff(&wse.to_element(), &wsn.to_element());
    let mut counts = [0usize; 6];
    let mut examples = Vec::new();
    for e in &entries {
        let cat = classify(&e.kind);
        let idx = DiffCategory::ALL.iter().position(|c| *c == cat).unwrap();
        counts[idx] += 1;
        if examples.iter().filter(|(c, _)| *c == cat).count() < 3 {
            examples.push((cat, e.to_string()));
        }
    }
    PairDiff {
        pair,
        counts,
        examples,
    }
}

/// Run the experiment: build the three equivalent exchanges in both
/// specs and classify their differences.
pub fn run_msgdiff() -> MsgDiffReport {
    let wse = WseCodec::new(WseVersion::Aug2004);
    let wsn = WsnCodec::new(WsnVersion::V1_3);
    let consumer = EndpointReference::new("http://consumer.example.org/sink");
    let broker = "http://broker.example.org/events";

    // --- Subscribe: same consumer, same XPath content filter.
    let wse_sub = wse.subscribe(
        broker,
        &SubscribeRequest::push(consumer.clone()).with_filter(Filter::xpath("/alert[@sev>3]")),
    );
    let wsn_sub = wsn.subscribe(
        broker,
        &WsnSubscribeRequest::new(consumer.clone())
            .with_filter(WsnFilter::content("/alert[@sev>3]")),
    );

    // --- SubscribeResponse: same manager, same subscription id.
    let manager = format!("{broker}/subscriptions");
    let handle = SubscriptionHandle {
        manager: wse.manager_epr(&manager, "sub-1"),
        id: "sub-1".into(),
        expires: None,
        version: WseVersion::Aug2004,
    };
    let wse_resp = wse.subscribe_response(&handle);
    let wsn_resp = wsn.subscribe_response(&manager, "sub-1", 0, None);

    // --- Notification: same payload on the same topic, rendered
    // exactly as the mediation broker renders them.
    let event = InternalEvent::on_topic(
        "storms",
        Element::ns("urn:wx", "alert", "wx").with_text("F5"),
    );
    let mk_sub = |spec: SpecDialect| BrokerSubscription {
        id: "sub-1".into(),
        spec,
        consumer: consumer.clone(),
        end_to: None,
        filters: UnifiedFilters::default(),
        mode: BrokerDeliveryMode::Push,
        use_raw: false,
    };
    let manager = EndpointReference::new(manager);
    let wse_notif = render_notification(
        &mk_sub(SpecDialect::Wse(WseVersion::Aug2004)),
        &event,
        broker,
        &manager,
    );
    let wsn_notif = render_notification(
        &mk_sub(SpecDialect::Wsn(WsnVersion::V1_3)),
        &event,
        broker,
        &manager,
    );

    let mut pairs = vec![
        diff_pair("Subscribe", &wse_sub, &wsn_sub),
        diff_pair("SubscribeResponse", &wse_resp, &wsn_resp),
        diff_pair("Notification", &wse_notif, &wsn_notif),
    ];

    // Category (6), content location, is detected directly: where does
    // the topic live in the two notifications?
    let wse_topic_in_header = wse_notif.header(WSM_NS, "Topic").is_some();
    let wsn_topic_in_body = wsn_notif
        .body()
        .map(|b| b.descendant_ns(WsnVersion::V1_3.ns(), "Topic").is_some())
        .unwrap_or(false);
    if wse_topic_in_header && wsn_topic_in_body {
        let p = pairs.last_mut().unwrap();
        p.counts[5] += 1;
        p.examples.push((
            DiffCategory::ContentLocation,
            "topic: SOAP header (WSE) vs wsnt:NotificationMessage/wsnt:Topic in the body (WSN)"
                .to_string(),
        ));
    }

    MsgDiffReport { pairs }
}

/// §IV companion: diff the *same family across versions* on the wire —
/// how each spec moved between its releases. Pairs: WSE 01/2004 vs
/// 08/2004, and WSN 1.0 vs 1.3, on the Subscribe and SubscribeResponse
/// exchanges.
pub fn run_version_msgdiff() -> MsgDiffReport {
    let consumer = EndpointReference::new("http://consumer.example.org/sink");
    let broker = "http://broker.example.org/events";

    // WSE: same logical subscription through both versions.
    let wse_old = WseCodec::new(WseVersion::Jan2004);
    let wse_new = WseCodec::new(WseVersion::Aug2004);
    let req = SubscribeRequest::push(consumer.clone()).with_filter(Filter::xpath("/a"));
    let sub_old = wse_old.subscribe(broker, &req);
    let sub_new = wse_new.subscribe(broker, &req);
    let mk_handle = |v: WseVersion| {
        // 01/2004's event source is its own subscription manager.
        let manager = if v.has_separate_subscription_manager() {
            format!("{broker}/manager")
        } else {
            broker.to_string()
        };
        SubscriptionHandle {
            manager: WseCodec::new(v).manager_epr(&manager, "sub-1"),
            id: "sub-1".into(),
            expires: None,
            version: v,
        }
    };
    let resp_old = wse_old.subscribe_response(&mk_handle(WseVersion::Jan2004));
    let resp_new = wse_new.subscribe_response(&mk_handle(WseVersion::Aug2004));

    // WSN: same logical subscription through both versions.
    let wsn_old = WsnCodec::new(WsnVersion::V1_0);
    let wsn_new = WsnCodec::new(WsnVersion::V1_3);
    let wsn_req = WsnSubscribeRequest::new(consumer).with_filter(WsnFilter::topic("storms"));
    let wsub_old = wsn_old.subscribe(broker, &wsn_req);
    let wsub_new = wsn_new.subscribe(broker, &wsn_req);
    let manager = format!("{broker}/subscriptions");
    let wresp_old = wsn_old.subscribe_response(&manager, "s-1", 0, None);
    let wresp_new = wsn_new.subscribe_response(&manager, "s-1", 0, None);

    MsgDiffReport {
        pairs: vec![
            diff_pair("WSE Subscribe 01/04 vs 08/04", &sub_old, &sub_new),
            diff_pair("WSE SubscribeResponse 01/04 vs 08/04", &resp_old, &resp_new),
            diff_pair("WSN Subscribe 1.0 vs 1.3", &wsub_old, &wsub_new),
            diff_pair("WSN SubscribeResponse 1.0 vs 1.3", &wresp_old, &wresp_new),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_categories_observed() {
        let report = run_msgdiff();
        for cat in DiffCategory::ALL {
            assert!(
                report.total(cat) > 0,
                "category {:?} ({}) not observed",
                cat,
                cat.label()
            );
        }
    }

    #[test]
    fn structure_difference_in_notifications() {
        // The wrapped-vs-raw structural difference must show up in the
        // notification pair specifically.
        let report = run_msgdiff();
        let notif = report
            .pairs
            .iter()
            .find(|p| p.pair == "Notification")
            .unwrap();
        let idx = DiffCategory::ALL
            .iter()
            .position(|c| *c == DiffCategory::Structure)
            .unwrap();
        assert!(notif.counts[idx] > 0);
    }

    #[test]
    fn underlying_spec_versions_detected() {
        // SOAP 1.2 vs 1.1 alone guarantees this on the envelope root.
        let report = run_msgdiff();
        assert!(report.total(DiffCategory::UnderlyingSpecVersions) >= 3);
    }

    #[test]
    fn render_mentions_every_category() {
        let s = run_msgdiff().render();
        for cat in DiffCategory::ALL {
            assert!(s.contains(cat.label()), "{}", cat.label());
        }
    }

    #[test]
    fn classification_rules() {
        use wsm_xml::diff::{DiffKind, Side};
        assert_eq!(
            classify(&DiffKind::LocalName {
                left: "a".into(),
                right: "b".into()
            }),
            DiffCategory::ElementNames
        );
        assert_eq!(
            classify(&DiffKind::Namespace {
                left: Some(WsaVersion::V200408.ns().into()),
                right: Some(WsaVersion::V200508.ns().into())
            }),
            DiffCategory::UnderlyingSpecVersions
        );
        assert_eq!(
            classify(&DiffKind::Namespace {
                left: Some("urn:wse".into()),
                right: Some("urn:wsn".into())
            }),
            DiffCategory::Namespaces
        );
        assert_eq!(
            classify(&DiffKind::Text {
                left: "a".into(),
                right: "b".into()
            }),
            DiffCategory::MessageContents
        );
        assert_eq!(
            classify(&DiffKind::AttrPresence {
                name: "x".into(),
                side: Side::Left
            }),
            DiffCategory::MessageContents
        );
        assert_eq!(
            classify(&DiffKind::ChildCount { left: 1, right: 2 }),
            DiffCategory::Structure
        );
    }
}

#[cfg(test)]
mod version_tests {
    use super::*;

    #[test]
    fn wse_versions_differ_structurally() {
        let report = run_version_msgdiff();
        // The Delivery wrapper (08/2004) vs bare NotifyTo (01/2004) is a
        // structural/name difference on the Subscribe pair.
        let sub = report
            .pairs
            .iter()
            .find(|p| p.pair.contains("WSE Subscribe"))
            .unwrap();
        assert!(sub.counts.iter().sum::<usize>() > 0);
        // The id moved from a separate element into ReferenceParameters:
        // visible on the response pair.
        let resp = report
            .pairs
            .iter()
            .find(|p| p.pair.contains("WSE SubscribeResponse"))
            .unwrap();
        assert!(resp.counts.iter().sum::<usize>() > 0);
    }

    #[test]
    fn wsn_versions_differ_in_filter_wrapper_and_wsa() {
        let report = run_version_msgdiff();
        let sub = report
            .pairs
            .iter()
            .find(|p| p.pair.contains("WSN Subscribe 1.0"))
            .unwrap();
        // Namespace differences (wsn ns changed between versions) and
        // underlying WSA versions both show.
        let ns_idx = DiffCategory::ALL
            .iter()
            .position(|c| *c == DiffCategory::Namespaces)
            .unwrap();
        assert!(sub.counts[ns_idx] > 0, "{:?}", sub.counts);
    }

    #[test]
    fn intra_family_diffs_are_smaller_than_cross_family() {
        // Convergence seen from the wire: the *within-family* version
        // diffs and the *cross-family* diff are both nonzero, but the
        // families still differ on every category while version bumps
        // don't (no content-location change within a family).
        let cross = run_msgdiff();
        let within = run_version_msgdiff();
        let loc = DiffCategory::ALL
            .iter()
            .position(|c| *c == DiffCategory::ContentLocation)
            .unwrap();
        assert!(cross.pairs.iter().map(|p| p.counts[loc]).sum::<usize>() > 0);
        assert_eq!(within.pairs.iter().map(|p| p.counts[loc]).sum::<usize>(), 0);
    }
}
