//! One workload in one fresh process: set up, warm up, measure, check
//! against the oracle, and report as one JSON object.
//!
//! Brokers are never dropped (their threads and reference cycles live
//! as long as the process), so every measurement gets a process of its
//! own; the parent in `main.rs` starts these and combines them.

use crate::hist::median;
use crate::json::Json;
use crate::oracle;
use crate::sink::{Receipt, SinkTotals};
use crate::spec;
use crate::trace::Tracer;
use crate::traced::{self, Replayer};
use crate::workloads::{Kind, Limit, Plan, Run, Section};
use std::time::Instant;

/// What the parent asks of a child.
#[derive(Clone, Copy, Debug)]
pub struct ChildArgs {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds of the publish loop (∞ for a fixed-count run).
    pub seconds: f64,
    /// Timed publications (`u64::MAX` for a fixed-time run).
    pub ops: u64,
    /// Record spans and replay every 16th publication.
    pub traced: bool,
    /// Tenth scale (the crate's own tests only).
    pub quick: bool,
}

/// Room for the spans of the longest traced section.
const SPAN_CAPACITY: usize = 1 << 21;

/// Median of per-block nanosecond samples, in µs.
fn us(samples: &[f64]) -> f64 {
    median(samples) / 1_000.0
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the output checks found.
struct Checked {
    verdict: oracle::Verdict,
    totals: SinkTotals,
    /// |Σ `publish_on` return values − deliveries the sink counted|.
    miscounted: u64,
    /// Everything that counts against `attempted`.
    failed: u64,
}

/// Check a finished run: the oracle on the kept `receipts`, the sink's
/// order counters, the broker's own delivery count, failed calls.
fn check(run: &Run, deliveries: u64, receipts: &[Receipt]) -> Checked {
    let plan = &run.plan;
    let totals = run.sink.totals();
    let verdict = oracle::verify(
        &run.population,
        &run.lives,
        &run.facts,
        &|t| plan.topic_name(t),
        receipts,
        plan.sample_bits,
    );
    // A single broker's publish_on says how many deliveries it made.
    let miscounted = if plan.shards == 0 && plan.kind != Kind::SelectiveIngest {
        run.returned.abs_diff(deliveries)
    } else {
        0
    };
    let failed = verdict.missing
        + verdict.forbidden
        + totals.duplicated
        + if plan.ordered { totals.out_of_order } else { 0 }
        + totals.unreadable
        + miscounted
        + run.failed_calls();
    Checked {
        verdict,
        totals,
        miscounted,
        failed,
    }
}

/// Run the workload and return the child's report. `started` is the
/// process start, from which set-up time counts.
pub fn run_child(args: ChildArgs, started: Instant, out_dir: &std::path::Path) -> Json {
    let plan = Plan::new(args.kind, args.quick);
    let Some(mut run) = Run::set_up(plan, args.seed) else {
        return Json::obj().with("error", "a Subscribe failed during set-up");
    };
    run.publish_section(
        Limit {
            ops: plan.warmup,
            seconds: f64::INFINITY,
            drain: false,
        },
        false,
        None,
    );
    run.sink.start_measuring();
    let setup_s = started.elapsed().as_secs_f64();

    // ---- the timed publish loop
    let (untraced_share, traced_share) = if args.traced {
        (1.0 / 3.0, 2.0 / 3.0)
    } else {
        (1.0, 0.0)
    };
    let part = |share: f64| Limit {
        ops: if args.ops == u64::MAX {
            u64::MAX
        } else {
            ((args.ops as f64 * share) as u64).max(1)
        },
        seconds: args.seconds * share,
        drain: true,
    };
    let untraced = run.publish_section(part(untraced_share), true, None);
    let mut measured = untraced;
    let mut tracing: Option<(Tracer, Replayer, Section)> = None;
    if args.traced {
        let mut tracer = Tracer::new(SPAN_CAPACITY);
        let mut replayer = Replayer::new(&run, &tracer);
        let section = run.publish_section(part(traced_share), true, Some(&mut tracer));
        measured.add(&section);
        let queue = std::mem::take(&mut run.replay_queue);
        for (op, root) in &queue {
            replayer.replay_chain(&run, &mut tracer, op, *root);
        }
        for (op, _) in &queue {
            replayer.replay_probes(&run, &mut tracer, op);
        }
        tracing = Some((tracer, replayer, section));
    }
    let deliveries = run.sink.deliveries();

    // ---- the oracle
    let receipts = run.sink.take_receipts();
    let Checked {
        verdict,
        totals,
        miscounted,
        failed,
    } = check(&run, deliveries, &receipts);
    let attempted = measured.publications + measured.control_ops + deliveries + verdict.missing;

    let per = |x: u64| x as f64 / deliveries.max(1) as f64;
    let mean_rate = deliveries as f64 / (measured.wall_ns as f64 / 1e9);
    let mut metrics = Json::obj()
        .with("setup_s", setup_s)
        .with(
            "deliveries_per_s",
            // A run too short for one full window has only its mean.
            if run.samples.rate.is_empty() {
                mean_rate
            } else {
                median(&run.samples.rate)
            },
        )
        .with(
            "publish_p50_us",
            // A federation's call only admits: it either finds room (µs)
            // or parks (ms), and the median call sits on the cliff between
            // the two. The typical call there is the median over rate
            // windows of the mean call latency.
            us(if plan.shards > 0 {
                &run.samples.call_mean
            } else {
                &run.samples.publish_p50
            }),
        )
        .with("publish_p99_us", us(&run.samples.publish_p99))
        .with("delivery_p50_us", us(&run.samples.delivery_p50))
        .with("delivery_p99_us", us(&run.samples.delivery_p99))
        .with("subscribe_p50_us", us(&run.samples.control_p50))
        .with("allocs_per_delivery", per(measured.allocs.allocs))
        .with("alloc_bytes_per_delivery", per(measured.allocs.bytes));

    let mut layers = Json::obj();
    let mut trace_buffer_bytes = 0u64;
    if let Some((tracer, replayer, section)) = &tracing {
        trace_buffer_bytes = tracer.buffer_bytes() as u64;
        let probes = traced::run_probes(&mut run, args.quick);
        let ledger = traced::ledger(&run, tracer, replayer, &untraced, section, &probes);
        for def in spec::per_layer() {
            layers.set(def.name, ledger.get(def.name).copied().unwrap_or(0.0));
        }
        let path = out_dir.join(format!("trace-{}.jsonl", plan.kind.name()));
        if let Err(e) =
            std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    // After the probes, which publish more: the peak covers the whole process.
    metrics.set("peak_rss_mb", peak_rss_mb());

    Json::obj()
        .with("workload", plan.kind.name())
        .with("seed", args.seed)
        .with("traced", args.traced)
        .with("quick", args.quick)
        .with("correct", failed == 0 && verdict.checked_publications > 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics)
        .with("layers", layers)
        .with(
            "counts",
            Json::obj()
                .with("publications", measured.publications)
                .with("control_ops", measured.control_ops)
                .with("deliveries", deliveries)
                .with("timed_wall_s", measured.wall_ns as f64 / 1e9)
                .with("mean_deliveries_per_s", mean_rate)
                .with("rate_windows", run.samples.rate.len() as u64)
                .with("latency_blocks", run.samples.publish_p50.len() as u64)
                .with("publish_samples", run.samples.publish_count)
                .with("delivery_samples", run.samples.delivery_count)
                .with("subscribe_samples", run.samples.control_count)
                .with("checked_publications", verdict.checked_publications)
                .with("expected_on_checked", verdict.expected)
                .with("missing", verdict.missing)
                .with("forbidden", verdict.forbidden)
                .with("duplicated", totals.duplicated)
                .with("out_of_order", totals.out_of_order)
                .with("unreadable", totals.unreadable)
                .with("miscounted", miscounted)
                .with("failed_calls", run.failed_calls())
                .with("allocs", measured.allocs.allocs)
                .with("alloc_bytes", measured.allocs.bytes)
                .with("trace_buffer_bytes", trace_buffer_bytes),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 12-subscription broker with churn, every publication checked.
    fn small_run(seed: u64) -> (Run, u64, Vec<Receipt>) {
        let plan = Plan {
            subs: 12,
            topics: 6,
            sample_bits: 0,
            warmup: 0,
            ..Plan::new(Kind::ChurnInterleaved, true)
        };
        let mut run = Run::set_up(plan, seed).expect("subscribes succeed");
        run.sink.start_measuring();
        run.publish_section(
            Limit {
                ops: 600,
                seconds: f64::INFINITY,
                drain: true,
            },
            true,
            None,
        );
        let deliveries = run.sink.deliveries();
        let receipts = run.sink.take_receipts();
        (run, deliveries, receipts)
    }

    #[test]
    fn oracle_agrees_with_a_small_broker_and_sees_a_dropped_delivery() {
        let (run, deliveries, mut receipts) = small_run(7);
        let ok = check(&run, deliveries, &receipts);
        assert_eq!(ok.failed, 0, "{:?} {:?}", ok.verdict, ok.totals);
        assert_eq!(ok.verdict.checked_publications, 600);
        assert!(ok.verdict.expected > 600, "{:?}", ok.verdict);
        assert!(
            receipts.iter().any(|&(_, sub)| sub >= 12),
            "churners received something while alive"
        );

        // One delivery that never reached its consumer.
        receipts.remove(receipts.len() / 2);
        let bad = check(&run, deliveries, &receipts);
        assert_eq!(bad.verdict.missing, 1);
        assert!(bad.failed > 0, "a dropped delivery must raise failed_share");
    }

    #[test]
    fn the_same_seed_gives_the_same_deliveries() {
        let (_, a, ra) = small_run(11);
        let (_, b, rb) = small_run(11);
        assert_eq!((a, ra), (b, rb));
        let (_, c, _) = small_run(12);
        assert_ne!(a, c, "another seed publishes on other topics");
    }
}
