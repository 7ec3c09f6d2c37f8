//! Run the open-workload scenario matrix and write `BENCH_workload.json`.

use wsm_workload::{run_matrix, write_workload_json};

fn main() {
    let seed = std::env::var("WSM_WORKLOAD_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    println!(
        "workload matrix (seed {seed}, quick={})",
        wsm_workload::quick_mode()
    );
    let results = run_matrix(seed);
    println!(
        "{:<22} {:>7} {:>9} {:>6} {:>7} {:>8} {:>8} {:>8}  slo",
        "scenario", "events", "delivered", "dlq", "expired", "p50ms", "p95ms", "p99ms"
    );
    for r in &results {
        let slo: Vec<String> = r
            .slos
            .iter()
            .map(|s| {
                format!(
                    "{}={}",
                    s.objective.name,
                    if s.pass { "PASS" } else { "FAIL" }
                )
            })
            .collect();
        println!(
            "{:<22} {:>7} {:>9} {:>6} {:>7} {:>8.1} {:>8.1} {:>8.1}  {}",
            r.name,
            r.events,
            r.delivered,
            r.dead_lettered,
            r.expired,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            slo.join(" ")
        );
    }
    let path = write_workload_json(seed, &results);
    println!("wrote {}", path.display());
}
