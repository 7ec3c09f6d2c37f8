//! The reproduction gate: every headline claim of EXPERIMENTS.md,
//! asserted through the public API in one place. If this file is green,
//! the paper's evaluation artifacts regenerate faithfully.

use ws_messenger_suite::compare;

#[test]
fn table1_has_all_rows_and_columns() {
    let rows = compare::table1();
    assert_eq!(rows.len(), 21, "20 feature rows + version-date row");
    for r in &rows {
        assert_eq!(r.cells.len(), 4);
    }
    // Spot-check the rows the paper highlights as convergence steps.
    let cell = |feature: &str, col: usize| {
        rows.iter().find(|r| r.feature == feature).unwrap().cells[col].render()
    };
    assert_eq!(cell("Support Pull delivery mode", 0), "No");
    assert_eq!(cell("Support Pull delivery mode", 2), "Yes");
    assert_eq!(cell("Require WSRF", 1), "Yes");
    assert_eq!(cell("Require WSRF", 3), "No");
}

/// Tables 1–3 and the §V.4 message diff, byte for byte. The goldens in
/// `tests/golden/` are what the generators print; a change to a dialect
/// fact that moves any cell or finding shows up here as a text diff.
#[test]
fn paper_artifacts_match_their_goldens() {
    let artifacts = [
        (
            "table1",
            compare::render_table1(),
            include_str!("golden/table1.txt"),
        ),
        (
            "table2",
            compare::render_table2(),
            include_str!("golden/table2.txt"),
        ),
        (
            "table3",
            compare::render_table3(),
            include_str!("golden/table3.txt"),
        ),
        (
            "msgdiff",
            compare::run_msgdiff().render(),
            include_str!("golden/msgdiff.txt"),
        ),
    ];
    for (name, rendered, golden) in artifacts {
        assert_eq!(
            rendered, golden,
            "{name} differs from tests/golden/{name}.txt"
        );
    }
}

#[test]
fn table2_and_table3_shapes() {
    assert_eq!(compare::table2().len(), 7);
    let t3 = compare::table3();
    assert_eq!(t3.len(), 6);
    assert_eq!(t3[0].name, "CORBA Event Service");
    assert_eq!(t3[5].name, "WS-Eventing");
}

#[test]
fn figures_match_paper_entities() {
    let f1 = compare::wse_architecture();
    assert_eq!(f1.entities.len(), 4);
    let f2 = compare::wsbase_architecture();
    assert_eq!(f2.entities.len(), 5);
    assert!(f2.entities.contains(&"Publisher"));
    assert!(!f1.entities.contains(&"Publisher"));
}

#[test]
fn all_six_msgdiff_categories_observed() {
    let report = compare::run_msgdiff();
    for cat in compare::DiffCategory::ALL {
        assert!(report.total(cat) > 0, "{cat:?} missing");
    }
}

#[test]
fn convergence_rates_match_experiments_md() {
    let early = compare::agreement(0, 1);
    let late = compare::agreement(2, 3);
    assert_eq!((early.agree, early.total), (5, 19));
    assert_eq!((late.agree, late.total), (12, 19));
}

#[test]
fn all_trends_hold() {
    for t in compare::verify_trends() {
        assert!(t.holds, "trend ({}) violated: {}", t.number, t.statement);
    }
}

#[test]
fn wsdl_for_every_version_generates() {
    use ws_messenger_suite::eventing::WseVersion;
    use ws_messenger_suite::notification::WsnVersion;
    for v in [WseVersion::Jan2004, WseVersion::Aug2004] {
        let defs = ws_messenger_suite::wsdl::wse_definitions(v, "http://x");
        assert!(!defs.port_types.is_empty());
    }
    for v in [WsnVersion::V1_0, WsnVersion::V1_3] {
        let defs = ws_messenger_suite::wsdl::wsn_definitions(v, "http://x");
        assert!(!defs.port_types.is_empty());
    }
    let merged = ws_messenger_suite::wsdl::messenger_definitions("http://broker");
    assert!(
        merged.port_types.len() >= 6,
        "both families' port types merged"
    );
}
