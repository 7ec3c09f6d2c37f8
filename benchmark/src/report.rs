//! Combining child reports into a result, printing it, and comparing
//! two results.
//!
//! A result file holds, per workload, every metric as
//! `{value, unit, q1, q3, runs, samples}`. After `run`, `runs` are the
//! values of the fresh processes that measured it and `value` is their
//! best (timings) or median (the rest), see `spec::Combine`; after
//! `repeat`, `runs` are the sets' values and `value` is their median.

use crate::hist::{median, quartiles_exclusive};
use crate::json::Json;
use crate::spec::{self, Better, MetricDef};
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

/// One metric over its runs, whose `value` is `value`.
pub fn metric(def: &MetricDef, value: f64, runs: &[f64], samples: u64) -> Json {
    let (q1, q3) = quartiles_exclusive(runs);
    Json::obj()
        .with("value", value)
        .with("unit", def.unit)
        .with("q1", q1)
        .with("q3", q3)
        .with(
            "runs",
            runs.iter().map(|&v| Json::from(v)).collect::<Vec<_>>(),
        )
        .with("samples", samples)
}

/// The sample count behind an end-to-end metric, from a child's counts.
fn samples_of(name: &str, counts: &Json) -> u64 {
    let key = match name {
        "publish_p50_us" | "publish_p99_us" => "publish_samples",
        "delivery_p50_us" | "delivery_p99_us" => "delivery_samples",
        "subscribe_p50_us" => "subscribe_samples",
        "setup_s" | "peak_rss_mb" => return 1,
        _ => "deliveries",
    };
    counts.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// Combine the untraced children (and the traced child, if any) of one
/// workload into its entry of the result file.
pub fn workload_entry(untraced: &[Json], traced: Option<&Json>) -> Json {
    let num = |j: &Json, group: &str, key: &str| {
        j.get(group)
            .and_then(|g| g.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let mut end_to_end = Json::obj();
    for def in &spec::END_TO_END {
        let runs: Vec<f64> = untraced
            .iter()
            .map(|c| num(c, "metrics", def.name))
            .collect();
        let samples = untraced
            .iter()
            .map(|c| samples_of(def.name, c.get("counts").unwrap_or(&Json::Null)))
            .sum();
        end_to_end.set(def.name, metric(def, def.combined(&runs), &runs, samples));
    }
    let all = untraced.iter().chain(traced);
    let sum = |key: &str| -> u64 {
        all.clone()
            .map(|c| c.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64)
            .sum()
    };
    let (attempted, failed) = (sum("attempted"), sum("failed"));
    let correct = all
        .clone()
        .all(|c| c.get("correct").and_then(Json::as_bool) == Some(true));
    let mut counts = Json::obj();
    if let Some(first) = untraced.first().or(traced) {
        for (key, _) in first.get("counts").map(Json::entries).unwrap_or(&[]) {
            let total: f64 = untraced.iter().map(|c| num(c, "counts", key)).sum();
            counts.set(key, total);
        }
    }
    let mut entry = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("failed_share", failed as f64 / attempted.max(1) as f64)
        .with("end_to_end", end_to_end)
        .with("counts", counts);
    if let Some(t) = traced {
        let mut per_layer = Json::obj();
        for def in spec::per_layer() {
            per_layer.set(
                def.name,
                Json::obj()
                    .with("value", num(t, "layers", def.name))
                    .with("unit", def.unit),
            );
        }
        entry.set("per_layer", per_layer);
        entry.set(
            "traced_counts",
            t.get("counts").cloned().unwrap_or(Json::Null),
        );
    }
    entry
}

/// Merge the same workload's entries from repeated sets: every
/// end-to-end metric's `runs` are the sets' medians.
pub fn merge_repeats(entries: &[Json]) -> Json {
    let mut merged = entries.last().cloned().unwrap_or(Json::Null);
    let mut end_to_end = Json::obj();
    for def in &spec::END_TO_END {
        let of = |e: &Json, key: &str| {
            e.get("end_to_end")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get(key))
                .and_then(Json::as_f64)
        };
        let runs: Vec<f64> = entries.iter().filter_map(|e| of(e, "value")).collect();
        let samples = entries.iter().filter_map(|e| of(e, "samples")).sum::<f64>() as u64;
        end_to_end.set(def.name, metric(def, median(&runs), &runs, samples));
    }
    let total = |key: &str| -> f64 {
        entries
            .iter()
            .filter_map(|e| e.get(key).and_then(Json::as_f64))
            .sum()
    };
    merged.set("end_to_end", end_to_end);
    merged.set("attempted", total("attempted"));
    merged.set("failed", total("failed"));
    merged.set(
        "failed_share",
        total("failed") / total("attempted").max(1.0),
    );
    merged.set(
        "correct",
        entries
            .iter()
            .all(|e| e.get("correct").and_then(Json::as_bool) == Some(true)),
    );
    merged
}

/// The table `run` and `repeat` print: every metric by name, with unit.
pub fn table(result: &Json) -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        let Some(entry) = result.get("workloads").and_then(|ws| ws.get(w.name)) else {
            continue;
        };
        let flag = |k: &str| entry.get(k).and_then(Json::as_bool).unwrap_or(false);
        let n = |k: &str| entry.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "\n== {} — {}  (attempted {}, failed {}, failed_share {})",
            w.name,
            if flag("correct") {
                "correct"
            } else {
                "INCORRECT"
            },
            n("attempted"),
            n("failed"),
            n("failed_share"),
        );
        for def in &spec::END_TO_END {
            let m = entry.get("end_to_end").and_then(|m| m.get(def.name));
            let f = |k: &str| {
                m.and_then(|m| m.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            };
            let _ = writeln!(
                out,
                "  {:<28} {:>14.4} {:<6} [q1 {:.4}, q3 {:.4}; {} samples; {} is better; bound {:.0} %]",
                def.name,
                f("value"),
                def.unit,
                f("q1"),
                f("q3"),
                f("samples"),
                def.better.as_str(),
                def.bound * 100.0,
            );
        }
        if let Some(layers) = entry.get("per_layer") {
            let _ = writeln!(out, "  -- per layer (traced pass)");
            for (name, m) in layers.entries() {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let _ = writeln!(out, "  {name:<40} {v:>14.4} {unit}");
            }
        }
    }
    out
}

/// Verdict of one workload × metric in `compare`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is not worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The runs spread wider than the bound, so the medians decide
    /// nothing (unless every run of B beats every run of A).
    Unresolved,
}

/// Judge B against A for one metric.
pub fn judge(def: &MetricDef, a: &Json, b: &Json) -> (f64, f64, Verdict) {
    let f = |m: &Json, k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let runs = |m: &Json| -> Vec<f64> {
        m.get("runs")
            .map(Json::items)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_f64)
            .collect()
    };
    let (va, vb) = (f(a, "value"), f(b, "value"));
    // How much worse B is, as a share of A.
    let worse_by = match def.better {
        Better::Lower => (vb - va) / va,
        Better::Higher => (va - vb) / va,
    };
    let spread = |m: &Json| (f(m, "q3") - f(m, "q1")).abs() / f(m, "value").abs();
    let (ra, rb) = (runs(a), runs(b));
    let b_beats_a = !ra.is_empty()
        && !rb.is_empty()
        && rb.iter().all(|&y| {
            ra.iter().all(|&x| match def.better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
    let too_wide = spread(a) > def.bound || spread(b) > def.bound;
    let verdict = if !(va.is_finite() && vb.is_finite()) || (too_wide && !b_beats_a) {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (va, vb, verdict)
}

/// Compare two result files; returns the table and whether any metric
/// came out worse.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    for key in ["quick", "seed"] {
        let (x, y) = (
            a.get("host").and_then(|h| h.get(key)),
            b.get("host").and_then(|h| h.get(key)),
        );
        if x != y {
            let _ = writeln!(
                out,
                "note: `{key}` differs between the two results ({x:?} vs {y:?})"
            );
        }
    }
    let _ = writeln!(
        out,
        "{:<18} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for w in &WORKLOADS {
        let entry = |r: &Json| r.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(ea), Some(eb)) = (entry(a), entry(b)) else {
            continue;
        };
        for def in &spec::END_TO_END {
            let of = |e: &Json| e.get("end_to_end").and_then(|m| m.get(def.name)).cloned();
            let (Some(ma), Some(mb)) = (of(&ea), of(&eb)) else {
                continue;
            };
            let (va, vb, verdict) = judge(def, &ma, &mb);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<18} {:<26} {:>14.4} {:>14.4} {:>9.4} {:>6.0}%  {}",
                w.name,
                def.name,
                va,
                vb,
                vb / va,
                def.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |e: &Json| e.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let worse = failed(&eb) > failed(&ea);
        any_worse |= worse;
        let _ = writeln!(
            out,
            "{:<18} {:<26} {:>14} {:>14} {:>9} {:>7}  {}",
            w.name,
            "failed",
            failed(&ea),
            failed(&eb),
            "-",
            "0",
            if worse { "worse" } else { "ok" }
        );
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(deliveries_per_s: &[f64]) -> Json {
        let def = &spec::END_TO_END[1];
        assert_eq!(def.name, "deliveries_per_s");
        let entry = Json::obj()
            .with("correct", true)
            .with("attempted", 10u64)
            .with("failed", 0u64)
            .with(
                "end_to_end",
                Json::obj().with(
                    def.name,
                    metric(def, median(deliveries_per_s), deliveries_per_s, 100),
                ),
            );
        Json::obj()
            .with("host", Json::obj().with("seed", 42u64).with("quick", true))
            .with("workloads", Json::obj().with("fanout_inline", entry))
    }

    #[test]
    fn result_json_round_trips_through_compare() {
        let a = result(&[100.0, 101.0, 99.0]);
        let text = a.to_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, a);
        let (table, worse) = compare(&back, &a);
        assert!(!worse);
        assert!(
            table.contains("deliveries_per_s") && table.contains(" ok"),
            "{table}"
        );
    }

    #[test]
    fn compare_tells_worse_from_unresolved() {
        let a = result(&[100.0, 101.0, 99.0]);
        let slower = result(&[60.0, 61.0, 59.0]);
        let (table, worse) = compare(&a, &slower);
        assert!(worse && table.contains("worse"), "{table}");
        let (_, worse) = compare(&slower, &a);
        assert!(!worse, "faster is never worse");
        let noisy = result(&[40.0, 100.0, 160.0]);
        let (table, worse) = compare(&a, &noisy);
        assert!(!worse && table.contains("unresolved"), "{table}");
    }
}
