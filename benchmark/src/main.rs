//! The judged benchmark of the WS-Messenger broker.
//!
//! ```text
//! wsm-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! wsm-benchmark run [--seed N] [--quick]                        all workloads, fixed operation counts
//! wsm-benchmark repeat N [--seed N] [--quick]                   `run` N times, medians and quartiles
//! wsm-benchmark compare A.json B.json                           judge B against A
//! wsm-benchmark spec                                            print BENCHMARK.json
//! ```
//!
//! See `README.md` beside this crate for what is measured and why.

mod alloc;
mod child;
mod gen;
mod hist;
mod json;
mod layers;
mod oracle;
mod report;
mod sink;
mod spec;
mod trace;
mod traced;
mod workloads;

use child::ChildArgs;
use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Kind, Plan, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Fresh processes whose median makes one untraced measurement: the
/// per-process effects (heap layout, thread placement) that do not
/// average out inside one process average out across these, and
/// `setup_s` is set up this many times.
const CHILDREN: u64 = 3;

/// Seconds measured per workload by the single-workload command.
const RUN_SECONDS: u64 = 15;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  wsm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  \
         wsm-benchmark run [--seed N] [--quick]\n  wsm-benchmark repeat <N> [--seed N] [--quick]\n  \
         wsm-benchmark compare A.json B.json\n  wsm-benchmark spec\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// `--name value` options and bare flags, in any order.
struct Options(Vec<String>);

impl Options {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Option<T> {
        match self.value(name) {
            Some(v) => v.parse().ok(),
            None => Some(default),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// Where results and traces go: `out/` beside the crate's manifest.
fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

fn child_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// Run one child process and parse the JSON line it prints.
fn spawn_child(args: &ChildArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.ops != u64::MAX {
        cmd.args(["--ops", &args.ops.to_string()]);
    } else {
        cmd.args(["--seconds", &args.seconds.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    let report = Json::parse(line)?;
    match report.get("error").and_then(Json::as_str) {
        Some(e) => Err(e.to_string()),
        None => Ok(report),
    }
}

/// The budget of a measurement: seconds, or a fixed operation count.
#[derive(Clone, Copy)]
enum Budget {
    Seconds(f64),
    Ops(u64),
}

impl Budget {
    fn share(self, of: u64) -> (f64, u64) {
        match self {
            Budget::Seconds(s) => (s / of as f64, u64::MAX),
            Budget::Ops(n) => (f64::INFINITY, (n / of).max(1)),
        }
    }
}

/// The untraced measurement of one workload: `CHILDREN` fresh
/// processes, each with a share of the budget and its own seed.
fn measure_untraced(
    kind: Kind,
    seed: u64,
    budget: Budget,
    quick: bool,
) -> Result<Vec<Json>, String> {
    let (seconds, ops) = budget.share(CHILDREN);
    (0..CHILDREN)
        .map(|k| {
            spawn_child(&ChildArgs {
                kind,
                seed: child_seed(seed, k),
                seconds,
                ops,
                traced: false,
                quick,
            })
        })
        .collect()
}

/// The traced pass of one workload: one fresh process.
fn measure_traced(kind: Kind, seed: u64, budget: Budget, quick: bool) -> Result<Json, String> {
    let (seconds, ops) = budget.share(1);
    spawn_child(&ChildArgs {
        kind,
        seed: child_seed(seed, CHILDREN),
        seconds,
        ops,
        traced: true,
        quick,
    })
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The host shape every result records.
fn host(seed: u64, quick: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut plans = Json::obj();
    for w in &WORKLOADS {
        let p = Plan::new(Kind::from_name(w.name).expect("listed workload"), quick);
        plans.set(
            w.name,
            Json::obj()
                .with("subscriptions", u64::from(p.subs))
                .with("topics", u64::from(p.topics))
                .with("fanout_workers", p.workers as u64)
                .with("shards", p.shards as u64)
                .with("wire_delay_us", p.wire_us)
                .with("warmup_publications", p.warmup)
                .with("timed_publications", p.full_ops)
                .with("control_ops_per_block", p.control_per_block),
        );
    }
    Json::obj()
        .with("nproc", nproc as u64)
        .with("rustc", tool_line("rustc", &["--version"]))
        .with("git_commit", tool_line("git", &["rev-parse", "HEAD"]))
        .with("seed", seed)
        .with("quick", quick)
        .with("comparable", !quick)
        .with("processes_per_measurement", CHILDREN)
        .with("generator_threads", 1u64)
        .with("plans", plans)
}

/// The single-workload command of `BENCHMARK.json`.
fn run_one(opts: &Options) -> ExitCode {
    let (Some(kind), Some(seed), Some(seconds), Some(trace)) = (
        opts.value("--workload").and_then(Kind::from_name),
        opts.parsed("--seed", 42u64),
        opts.parsed("--seconds", RUN_SECONDS as f64),
        opts.parsed("--trace", 0u8),
    ) else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 3_600.0) || trace > 1 {
        return usage();
    }
    let quick = opts.flag("--quick");
    let budget = Budget::Seconds(seconds);
    let measured = if trace == 1 {
        measure_traced(kind, seed, budget, quick).map(|t| (Vec::new(), Some(t)))
    } else {
        measure_untraced(kind, seed, budget, quick).map(|c| (c, None))
    };
    let (untraced, traced) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{}: {e}", kind.name());
            return ExitCode::FAILURE;
        }
    };
    let entry = report::workload_entry(&untraced, traced.as_ref());
    let result = Json::obj()
        .with("host", host(seed, quick))
        .with("workloads", Json::obj().with(kind.name(), entry.clone()));
    print!("{}", report::table(&result));
    for c in untraced.iter().chain(&traced) {
        println!(
            "  process: {}",
            c.get("counts").unwrap_or(&Json::Null).to_line()
        );
    }

    let group = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut metrics = Json::obj();
    for (name, m) in entry.get(group).map(Json::entries).unwrap_or(&[]) {
        metrics.set(
            name,
            Json::obj()
                .with("value", m.get("value").cloned().unwrap_or(Json::Null))
                .with("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
        );
    }
    let correct = entry.get("correct").and_then(Json::as_bool) == Some(true);
    let line = Json::obj()
        .with("correct", correct)
        .with(
            "attempted",
            entry.get("attempted").cloned().unwrap_or(Json::Null),
        )
        .with("failed", entry.get("failed").cloned().unwrap_or(Json::Null))
        .with("metrics", metrics);
    println!("{}", line.to_line());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One full set: every workload untraced at its fixed counts, then
/// traced at quarter scale.
fn run_set(seed: u64, quick: bool) -> Result<Json, String> {
    let mut workloads = Json::obj();
    for w in &WORKLOADS {
        let kind = Kind::from_name(w.name).expect("listed workload");
        let plan = Plan::new(kind, quick);
        eprintln!("[{}] measuring ({} publications)…", w.name, plan.full_ops);
        let untraced = measure_untraced(kind, seed, Budget::Ops(plan.full_ops), quick)
            .map_err(|e| format!("{}: {e}", w.name))?;
        eprintln!("[{}] traced pass…", w.name);
        let traced = measure_traced(kind, seed, Budget::Ops(plan.full_ops / 4), quick)
            .map_err(|e| format!("{} (traced): {e}", w.name))?;
        workloads.set(w.name, report::workload_entry(&untraced, Some(&traced)));
    }
    Ok(Json::obj()
        .with("host", host(seed, quick))
        .with("claim", Json::Null)
        .with("workloads", workloads))
}

fn all_correct(result: &Json) -> bool {
    result
        .get("workloads")
        .map(Json::entries)
        .unwrap_or(&[])
        .iter()
        .all(|(_, e)| e.get("correct").and_then(Json::as_bool) == Some(true))
}

fn write_result(name: &str, result: &Json) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, result.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run_all(opts: &Options, repeats: u64) -> ExitCode {
    let Some(seed) = opts.parsed("--seed", 42u64) else {
        return usage();
    };
    let quick = opts.flag("--quick");
    let mut sets = Vec::new();
    for i in 0..repeats {
        if repeats > 1 {
            eprintln!("== set {} of {repeats}", i + 1);
        }
        match run_set(seed, quick) {
            Ok(set) => sets.push(set),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (name, result) = if repeats == 1 {
        ("result.json", sets.remove(0))
    } else {
        let mut merged = sets.last().cloned().expect("at least one set");
        let mut workloads = Json::obj();
        for w in &WORKLOADS {
            let entries: Vec<Json> = sets
                .iter()
                .filter_map(|s| s.get("workloads").and_then(|ws| ws.get(w.name)).cloned())
                .collect();
            workloads.set(w.name, report::merge_repeats(&entries));
        }
        merged.set("workloads", workloads);
        merged.set("repeats", repeats);
        ("repeat.json", merged)
    };
    print!("{}", report::table(&result));
    match write_result(name, &result) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if all_correct(&result) {
        ExitCode::SUCCESS
    } else {
        eprintln!("an output check failed");
        ExitCode::FAILURE
    }
}

fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        return usage();
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
            .map_err(|e| format!("{p}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, any_worse) = report::compare(&a, &b);
            print!("{table}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// `BENCHMARK.json`, generated from the same tables the code prints
/// from (a test keeps the committed file equal to this).
fn benchmark_json() -> Json {
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .map(Json::from)
    .to_vec();
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj().with("name", w.name).with("why", w.why))
        .collect::<Vec<_>>();
    let end_to_end = spec::END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("bound", m.bound)
        })
        .collect::<Vec<_>>();
    let per_layer = spec::per_layer()
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
        })
        .collect::<Vec<_>>();
    Json::obj()
        .with("command", command)
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        return usage();
    };
    let opts = Options(args.clone());
    match first.as_str() {
        "child" => {
            let (Some(kind), Some(seed), Some(seconds), Some(ops), Some(trace)) = (
                opts.value("--workload").and_then(Kind::from_name),
                opts.parsed("--seed", 42u64),
                opts.parsed("--seconds", f64::INFINITY),
                opts.parsed("--ops", u64::MAX),
                opts.parsed("--trace", 0u8),
            ) else {
                return usage();
            };
            let report = child::run_child(
                ChildArgs {
                    kind,
                    seed,
                    seconds,
                    ops,
                    traced: trace == 1,
                    quick: opts.flag("--quick"),
                },
                started,
                &out_dir(),
            );
            println!("{}", report.to_line());
            ExitCode::SUCCESS
        }
        "run" => run_all(&opts, 1),
        "repeat" => match args.get(1).and_then(|n| n.parse::<u64>().ok()) {
            Some(n) if n >= 1 => run_all(&opts, n),
            _ => usage(),
        },
        "compare" => compare(&args[1..]),
        "spec" => {
            print!("{}", benchmark_json().to_pretty());
            ExitCode::SUCCESS
        }
        flag if flag.starts_with("--") => run_one(&opts),
        _ => usage(),
    }
}
