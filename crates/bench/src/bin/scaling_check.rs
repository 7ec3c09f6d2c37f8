//! `scaling_check` — the CI gate over `BENCH_scaling.json`.
//!
//! CI used to judge the scaling bench with `grep -q`: the report
//! merely had to *mention* a `"stages"` key to pass, so the parallel
//! engine could silently lose to the sequential baseline at every
//! fan-out and the job would stay green. This binary replaces those
//! greps with a structural comparison:
//!
//! 1. **Completeness** — the fresh report must carry the full
//!    scenario × fan-out × mode grid (`publish_inline`/`publish_wire`
//!    × 1/8/64/256 × `sequential`/`parallel`), a non-empty `deliver`
//!    stage breakdown, and the matching curve.
//! 2. **Parallel never loses** — at every grid point, parallel
//!    events/sec must be at least `(1 − NOISE_TOLERANCE) ×`
//!    sequential. The inline regime is a tie by design (with no wire
//!    delay both configurations stream on the publishing thread), so
//!    the tolerance absorbs quick-mode timer noise, not a real
//!    deficit.
//! 3. **Deliver-stage budget** — the fresh `deliver` mean may exceed
//!    the committed baseline's by at most `DELIVER_REGRESSION_MAX`.
//!    The emitter fixes this histogram to the same 96-publication
//!    overlapped run in quick and full mode, measured after a warm-up
//!    and before any grid, precisely so quick and full runs are
//!    comparable.
//!
//! Usage: `scaling_check <fresh.json> <baseline.json>`. The fresh file
//! is the one the quick-mode bench just wrote; the baseline is the
//! committed copy stashed before the bench ran (the bench overwrites
//! the report in place). Exits non-zero listing every violated gate.

use std::process::ExitCode;
use wsm_bench::{parse_bench_report as parse, BenchReport as Report};

/// Allowed shortfall of parallel vs sequential at one grid point.
/// Quick-mode windows are ~10ms, so individual points carry a few
/// percent of scheduler noise even for a true tie.
const NOISE_TOLERANCE: f64 = 0.10;

/// Allowed growth of the `deliver` stage mean over the committed
/// baseline before the gate fails (1.25 = +25%).
const DELIVER_REGRESSION_MAX: f64 = 1.25;

/// The fan-out grid every report must cover.
const GRID: [u64; 4] = [1, 8, 64, 256];
const SCENARIOS: [&str; 2] = ["publish_inline", "publish_wire"];

/// Every gate violation in `fresh` judged against `baseline`, as
/// human-readable failure lines. Empty means the gate passes.
fn violations(fresh: &Report, baseline: &Report) -> Vec<String> {
    let mut out = Vec::new();

    // 1. Structural completeness of the fresh report.
    for scenario in SCENARIOS {
        for n in GRID {
            for mode in ["sequential", "parallel"] {
                let key = (scenario.to_string(), mode.to_string(), n);
                match fresh.samples.get(&key) {
                    Some(eps) if *eps > 0.0 => {}
                    Some(eps) => out.push(format!(
                        "{scenario}/{mode} at fan-out {n}: non-positive throughput {eps}"
                    )),
                    None => out.push(format!(
                        "{scenario}/{mode} at fan-out {n}: missing from report"
                    )),
                }
            }
        }
    }
    match fresh.stages.get("deliver") {
        Some(row) if row.count > 0 => {}
        Some(_) => out.push("deliver stage breakdown has zero samples".into()),
        None => out.push("deliver stage breakdown missing from report".into()),
    }
    if fresh.matching_rows == 0 {
        out.push("matching curve missing from report".into());
    }

    // 2. Parallel must not lose to sequential at any grid point.
    for scenario in SCENARIOS {
        for n in GRID {
            let seq = fresh
                .samples
                .get(&(scenario.to_string(), "sequential".to_string(), n));
            let par = fresh
                .samples
                .get(&(scenario.to_string(), "parallel".to_string(), n));
            if let (Some(&seq), Some(&par)) = (seq, par) {
                let floor = seq * (1.0 - NOISE_TOLERANCE);
                if par < floor {
                    out.push(format!(
                        "{scenario} at fan-out {n}: parallel {par:.0} ev/s < \
                         {:.0}% of sequential {seq:.0} ev/s",
                        (1.0 - NOISE_TOLERANCE) * 100.0
                    ));
                }
            }
        }
    }

    // 3. Deliver-stage mean vs the committed baseline.
    match (fresh.stages.get("deliver"), baseline.stages.get("deliver")) {
        (Some(fresh_row), Some(base_row)) => {
            let (fresh_mean, base_mean) = (fresh_row.mean_us, base_row.mean_us);
            let ceiling = base_mean * DELIVER_REGRESSION_MAX;
            if fresh_mean > ceiling {
                out.push(format!(
                    "deliver mean {fresh_mean:.1}us exceeds {:.0}% of committed \
                     baseline {base_mean:.1}us",
                    DELIVER_REGRESSION_MAX * 100.0
                ));
            }
        }
        (_, None) => out.push("baseline report has no deliver stage to compare against".into()),
        _ => {} // fresh-side absence already reported structurally
    }

    out
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (fresh_path, baseline_path) = match (args.next(), args.next()) {
        (Some(f), Some(b)) => (f, b),
        _ => {
            eprintln!(
                "usage: scaling_check <fresh BENCH_scaling.json> <baseline BENCH_scaling.json>"
            );
            return ExitCode::FAILURE;
        }
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(err) => {
            eprintln!("scaling_check: cannot read {path}: {err}");
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
        let deliver_mean = fresh.stages["deliver"].mean_us;
        println!(
            "scaling gate PASS: {} grid points, deliver mean {deliver_mean:.1}us \
             (baseline {:.1}us), {} matching rows",
            fresh.samples.len(),
            baseline.stages["deliver"].mean_us,
            fresh.matching_rows
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("scaling gate FAIL ({} problem(s)):", problems.len());
        for p in &problems {
            eprintln!("  - {p}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(par_wire_8: f64, deliver_mean: f64) -> String {
        let mut out = String::from("{\n  \"bench\": \"scaling\",\n  \"samples\": [\n");
        for scenario in SCENARIOS {
            for n in GRID {
                for (mode, eps) in [("sequential", 1000.0), ("parallel", 1100.0)] {
                    let eps = if scenario == "publish_wire" && n == 8 && mode == "parallel" {
                        par_wire_8
                    } else {
                        eps
                    };
                    out.push_str(&format!(
                        "    {{\"scenario\": \"{scenario}\", \"mode\": \"{mode}\", \
                         \"param\": {n}, \"events_per_sec\": {eps:.1}}},\n"
                    ));
                }
            }
        }
        out.push_str("  ],\n  \"stages\": {\n");
        out.push_str(&format!(
            "    \"deliver\": {{\"count\": 24, \"mean_us\": {deliver_mean:.2}, \
             \"p50_us\": 1.0, \"p95_us\": 2.0, \"p99_us\": 3.0}}\n"
        ));
        out.push_str("  },\n  \"matching\": [\n");
        out.push_str(
            "    {\"scenario\": \"matching_fixed64\", \"param\": 256, \
             \"matched\": 64, \"mean_ns\": 4000}\n",
        );
        out.push_str("  ]\n}\n");
        out
    }

    #[test]
    fn parses_the_emitter_shape() {
        let r = parse(&doc(1100.0, 5000.0));
        assert_eq!(r.samples.len(), 16);
        assert_eq!(
            r.samples[&("publish_wire".into(), "parallel".into(), 8)],
            1100.0
        );
        assert_eq!(r.stages["deliver"].count, 24);
        assert_eq!(r.stages["deliver"].mean_us, 5000.0);
        assert_eq!(r.matching_rows, 1);
    }

    #[test]
    fn passes_when_parallel_wins_everywhere() {
        let fresh = parse(&doc(1100.0, 5000.0));
        let baseline = parse(&doc(1100.0, 5000.0));
        assert_eq!(violations(&fresh, &baseline), Vec::<String>::new());
    }

    #[test]
    fn flags_a_losing_grid_point() {
        let fresh = parse(&doc(800.0, 5000.0)); // < 90% of 1000
        let baseline = parse(&doc(1100.0, 5000.0));
        let v = violations(&fresh, &baseline);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("publish_wire at fan-out 8"), "{v:?}");
    }

    #[test]
    fn tolerates_noise_within_the_band() {
        let fresh = parse(&doc(950.0, 5000.0)); // within 10% of 1000
        let baseline = parse(&doc(1100.0, 5000.0));
        assert_eq!(violations(&fresh, &baseline), Vec::<String>::new());
    }

    #[test]
    fn flags_a_deliver_mean_regression() {
        let fresh = parse(&doc(1100.0, 7000.0)); // > 1.25 x 5000
        let baseline = parse(&doc(1100.0, 5000.0));
        let v = violations(&fresh, &baseline);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("deliver mean"), "{v:?}");
    }

    #[test]
    fn flags_a_missing_grid_point_and_sections() {
        let fresh = parse("{\n  \"bench\": \"scaling\",\n  \"samples\": [\n  ]\n}\n");
        let baseline = parse(&doc(1100.0, 5000.0));
        let v = violations(&fresh, &baseline);
        assert!(v.iter().any(|p| p.contains("missing from report")), "{v:?}");
        assert!(v.iter().any(|p| p.contains("deliver stage")), "{v:?}");
        assert!(v.iter().any(|p| p.contains("matching curve")), "{v:?}");
    }
}
