//! `federation_check` — the CI gate over `BENCH_federation.json`.
//!
//! The federation layer's acceptance claim is *throughput on the
//! fan-out-bound, Zipf-skewed workload at every shard count*. This
//! binary turns that claim into a structural gate, the same way
//! `scaling_check` gates the single-broker report:
//!
//! 1. **Baseline completeness** — the committed report must carry the
//!    full shard × subscriber grid (`shards-1/2/4/8` ×
//!    10k/100k/1M subscribers, scenario `fanout_zipf`) with positive
//!    throughput everywhere, plus a populated `federate` stage
//!    breakdown — a truncated grid means the million-subscriber point
//!    stopped completing.
//! 2. **Baseline throughput floor** — at every subscriber count, every
//!    shard count must reach [`MIN_GAIN`] × the 1-shard throughput the
//!    buffered link hub measured ([`HUB_SHARDS_1`]). The hub needed 8
//!    shards and their flusher threads to reach 4×; a publisher that
//!    overlaps its own sends reaches it at every shard count, so losing
//!    that overlap (a fan-out that sends one delay after another) fails
//!    this gate in every column.
//! 3. **Federate hop cost** — the baseline's `federate` stage p50 must
//!    stay under [`MAX_FEDERATE_P50_US`]. The zero-reparse hop hands
//!    each event across as a structured value, so the hop span covers
//!    only that handoff (~µs); the pre-pipelining baseline measured
//!    50 567µs here, and the budget is a ≥5× margin under that.
//! 4. **Fresh quick-mode re-derivation** — the quick grid the CI job
//!    just produced (its 10k-subscriber column) must itself be
//!    complete and clear the same floor, so a throughput regression
//!    fails the PR that introduces it rather than the one that
//!    re-measures the baseline.
//!
//! Usage: `federation_check <fresh.json> <baseline.json>`. Exits
//! non-zero listing every violated gate.

use std::collections::BTreeSet;
use std::process::ExitCode;
use wsm_bench::{parse_bench_report as parse, BenchReport as Report};

/// Factor over [`HUB_SHARDS_1`] that every shard count must reach, in
/// both the committed baseline and the fresh quick run: the 8-shard
/// speedup the buffered link hub was held to, now asked of every
/// column.
const MIN_GAIN: f64 = 4.0;

/// `shards-1` throughput, events/s, at 10k, 100k and 1M subscribers in
/// the last `BENCH_federation.json` measured with the buffered link hub
/// (one flusher thread per link, shards sending one delay after
/// another): 173.3, 174.7 and 170.1.
const HUB_SHARDS_1: [(u64, f64); 3] = [(10_000, 173.3), (100_000, 174.7), (1_000_000, 170.1)];

/// Ceiling on the committed baseline's `federate` stage p50, in µs —
/// a ≥5× margin under the 50 567µs the synchronous (pre-pipelining)
/// flush measured for the same hop.
const MAX_FEDERATE_P50_US: f64 = 10_000.0;

/// The shard grid every report must cover.
const SHARD_MODES: [&str; 4] = ["shards-1", "shards-2", "shards-4", "shards-8"];

/// The subscriber grid the committed baseline must cover (quick mode
/// emits a subset; the fresh report is judged at whatever params it
/// carries).
const BASELINE_PARAMS: [u64; 3] = [10_000, 100_000, 1_000_000];

const SCENARIO: &str = "fanout_zipf";

/// The `fanout_zipf` throughput at `(mode, param)`, if the report has it.
fn eps_at(report: &Report, mode: &str, param: u64) -> Option<f64> {
    report
        .samples
        .get(&(SCENARIO.to_string(), mode.to_string(), param))
        .copied()
}

/// The subscriber counts a report carries any `fanout_zipf` row for.
fn params_of(report: &Report) -> BTreeSet<u64> {
    report
        .samples
        .keys()
        .filter(|(scenario, _, _)| scenario == SCENARIO)
        .map(|(_, _, p)| *p)
        .collect()
}

/// Grid-completeness violations for `report` over `params`.
fn check_grid(report: &Report, params: &[u64], label: &str, out: &mut Vec<String>) {
    for &param in params {
        for mode in SHARD_MODES {
            match eps_at(report, mode, param) {
                Some(eps) if eps > 0.0 => {}
                Some(eps) => out.push(format!(
                    "{label}: {SCENARIO}/{mode} at {param} subscribers: \
                     non-positive throughput {eps}"
                )),
                None => out.push(format!(
                    "{label}: {SCENARIO}/{mode} at {param} subscribers: missing from report"
                )),
            }
        }
    }
}

/// The throughput every shard count must reach at `param` subscribers:
/// [`MIN_GAIN`] × the hub's `shards-1` reading there, or at the nearest
/// measured population for a param the hub was not measured at.
fn floor_at(param: u64) -> f64 {
    let (_, hub) = HUB_SHARDS_1
        .iter()
        .min_by_key(|(p, _)| p.abs_diff(param))
        .expect("the hub was measured");
    MIN_GAIN * hub
}

/// Throughput-floor violations for `report` over `params`.
fn check_floor(report: &Report, params: &[u64], label: &str, out: &mut Vec<String>) {
    for &param in params {
        let floor = floor_at(param);
        for mode in SHARD_MODES {
            match eps_at(report, mode, param) {
                Some(eps) if eps < floor => out.push(format!(
                    "{label}: at {param} subscribers, {mode} {eps:.0} ev/s is below the \
                     {floor:.0} ev/s floor ({MIN_GAIN}x the link hub's shards-1)"
                )),
                _ => {}
            }
        }
    }
}

/// Every gate violation across the fresh and baseline reports, as
/// human-readable failure lines. Empty means the gate passes.
fn violations(fresh: &Report, baseline: &Report) -> Vec<String> {
    let mut out = Vec::new();

    // 1. The committed baseline carries the full grid and hop spans.
    check_grid(baseline, &BASELINE_PARAMS, "baseline", &mut out);
    match baseline.stages.get("federate") {
        Some(row) if row.count > 0 => {
            // 3. The zero-reparse hop keeps the hop span cheap.
            let p50 = row.p50_us;
            if p50 > MAX_FEDERATE_P50_US {
                out.push(format!(
                    "baseline: federate stage p50 {p50:.2}us exceeds the {MAX_FEDERATE_P50_US}us budget"
                ));
            }
        }
        Some(_) => out.push("baseline: federate stage breakdown has zero samples".into()),
        None => out.push("baseline: federate stage breakdown missing from report".into()),
    }

    // 2. The baseline clears the floor at every grid point.
    check_floor(baseline, &BASELINE_PARAMS, "baseline", &mut out);

    // 4. The fresh quick grid is complete and clears the floor.
    let fresh_params: Vec<u64> = params_of(fresh).into_iter().collect();
    if fresh_params.is_empty() {
        out.push(format!("fresh: no {SCENARIO} samples in report"));
    }
    check_grid(fresh, &fresh_params, "fresh", &mut out);
    check_floor(fresh, &fresh_params, "fresh", &mut out);

    out
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (fresh_path, baseline_path) = match (args.next(), args.next()) {
        (Some(f), Some(b)) => (f, b),
        _ => {
            eprintln!(
                "usage: federation_check <fresh BENCH_federation.json> \
                 <baseline BENCH_federation.json>"
            );
            return ExitCode::FAILURE;
        }
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(err) => {
            eprintln!("federation_check: cannot read {path}: {err}");
            None
        }
    };
    let (Some(fresh_text), Some(baseline_text)) = (read(&fresh_path), read(&baseline_path)) else {
        return ExitCode::FAILURE;
    };
    let fresh = parse(&fresh_text);
    let baseline = parse(&baseline_text);
    let problems = violations(&fresh, &baseline);
    if problems.is_empty() {
        // The lowest reading across the grid, as a multiple of its floor.
        let margin = |r: &Report| {
            (r.samples.iter())
                .filter(|((scenario, _, _), _)| scenario == SCENARIO)
                .map(|((_, _, param), eps)| eps / floor_at(*param))
                .fold(f64::INFINITY, f64::min)
        };
        println!(
            "federation gate PASS: baseline grid {} points, slowest at {:.2}x its floor; \
             fresh grid slowest at {:.2}x its floor",
            baseline.samples.len(),
            margin(&baseline),
            margin(&fresh),
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("federation gate FAIL ({} problem(s)):", problems.len());
        for p in &problems {
            eprintln!("  - {p}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic full-grid report: 5 000 events/s at every point,
    /// with one `(mode, param)` point overridable.
    fn doc(params: &[u64], slow_at: Option<(&str, u64, f64)>, with_stage: bool) -> String {
        doc_with_p50(params, slow_at, with_stage, 7.0)
    }

    fn doc_with_p50(
        params: &[u64],
        slow_at: Option<(&str, u64, f64)>,
        with_stage: bool,
        federate_p50: f64,
    ) -> String {
        let mut out = String::from("{\n  \"bench\": \"federation\",\n  \"samples\": [\n");
        for &param in params {
            for mode in SHARD_MODES {
                let eps = match slow_at {
                    Some((m, p, eps)) if m == mode && p == param => eps,
                    _ => 5_000.0,
                };
                out.push_str(&format!(
                    "    {{\"scenario\": \"fanout_zipf\", \"mode\": \"{mode}\", \
                     \"param\": {param}, \"events_per_sec\": {eps:.1}}},\n",
                ));
            }
        }
        out.push_str("  ]");
        if with_stage {
            out.push_str(&format!(
                ",\n  \"stages\": {{\n    \"federate\": {{\"count\": 64, \"mean_us\": 9.00, \
                 \"p50_us\": {federate_p50:.2}, \"p95_us\": 60.00, \"p99_us\": 90.00}}\n  }}",
            ));
        }
        out.push_str("\n}\n");
        out
    }

    const FULL: [u64; 3] = [10_000, 100_000, 1_000_000];

    #[test]
    fn parses_the_emitter_shape() {
        let r = parse(&doc(&FULL, Some(("shards-8", 1_000_000, 1100.0)), true));
        assert_eq!(r.samples.len(), 12);
        assert_eq!(eps_at(&r, "shards-8", 1_000_000), Some(1100.0));
        assert_eq!(r.stages["federate"].count, 64);
        assert_eq!(r.stages["federate"].p50_us, 7.0);
        assert_eq!(params_of(&r).len(), 3);
    }

    #[test]
    fn passes_a_complete_grid_above_the_floor() {
        let baseline = parse(&doc(&FULL, None, true));
        let fresh = parse(&doc(&[10_000], None, false));
        assert_eq!(violations(&fresh, &baseline), Vec::<String>::new());
    }

    #[test]
    fn the_floor_is_four_times_the_hubs_shards_1_reading() {
        assert_eq!(floor_at(10_000), 4.0 * 173.3);
        assert_eq!(floor_at(100_000), 4.0 * 174.7);
        assert_eq!(floor_at(1_000_000), 4.0 * 170.1);
    }

    #[test]
    fn flags_a_baseline_federate_p50_over_budget() {
        // The synchronous-flush era's 50 567us p50 must fail the gate.
        let baseline = parse(&doc_with_p50(&FULL, None, true, 50_567.95));
        let fresh = parse(&doc(&[10_000], None, false));
        let v = violations(&fresh, &baseline);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("federate stage p50") && v[0].contains("50567.95"),
            "{v:?}"
        );
    }

    #[test]
    fn flags_a_baseline_point_below_the_floor() {
        // 3.6x the hub's shards-1 at 100k subscribers: under the 4.0x
        // floor (698.8 ev/s) that every column now carries.
        let baseline = parse(&doc(&FULL, Some(("shards-2", 100_000, 629.0)), true));
        let fresh = parse(&doc(&[10_000], None, false));
        let v = violations(&fresh, &baseline);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("baseline") && v[0].contains("100000") && v[0].contains("shards-2"),
            "{v:?}"
        );
    }

    #[test]
    fn flags_a_fresh_point_below_the_floor() {
        // A shard that sends one delay after another reads ~173 ev/s.
        let baseline = parse(&doc(&FULL, None, true));
        let fresh = parse(&doc(&[10_000], Some(("shards-1", 10_000, 173.3)), false));
        let v = violations(&fresh, &baseline);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("fresh") && v[0].contains("shards-1"), "{v:?}");
    }

    #[test]
    fn flags_an_incomplete_baseline_grid_and_missing_stage() {
        // Baseline stops at 100k: the 1M column is missing entirely.
        let baseline = parse(&doc(&[10_000, 100_000], None, false));
        let fresh = parse(&doc(&[10_000], None, false));
        let v = violations(&fresh, &baseline);
        assert!(
            v.iter()
                .any(|p| p.contains("1000000") && p.contains("missing")),
            "{v:?}"
        );
        assert!(v.iter().any(|p| p.contains("federate stage")), "{v:?}");
    }

    #[test]
    fn flags_an_empty_fresh_report() {
        let baseline = parse(&doc(&FULL, None, true));
        let fresh = parse("{\n  \"bench\": \"federation\",\n  \"samples\": [\n  ]\n}\n");
        let v = violations(&fresh, &baseline);
        assert!(v.iter().any(|p| p.contains("no fanout_zipf")), "{v:?}");
    }
}
