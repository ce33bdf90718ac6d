//! The end-to-end benchmark: four workloads, every metric by name with
//! its unit, and a correctness check, from one command.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     [--workload grid|infer|serve|sched] [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out F]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics untraced;
//! `--trace 1` measures the per-layer metrics with sb-trace on. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 1 when a check failed.
//! README.md in this directory lists the workloads and metrics and why
//! each is there.

mod calib;
mod grid;
mod infer;
mod load;
mod report;
mod sched;
mod serve;
mod spans;

use calib::Calibrator;
use report::{median, Metric, Report, Summary};
use sb_json::Json;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed the committed grid digest was recorded at.
pub const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Grid,
    Infer,
    Serve,
    Sched,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Grid,
        Workload::Infer,
        Workload::Serve,
        Workload::Sched,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Infer => "infer",
            Workload::Serve => "serve",
            Workload::Sched => "sched",
        }
    }

    /// Runtime worker threads. The compute workloads run on one: on a
    /// small shared host a two-worker fork-join waits for whichever core
    /// another tenant is using, which made their times several times
    /// noisier. The serving workloads keep `nproc` workers, because the
    /// driver thread and the batch workers running side by side is part
    /// of what they measure.
    fn threads(self) -> usize {
        match self {
            Workload::Grid | Workload::Infer => 1,
            Workload::Serve | Workload::Sched => nproc(),
        }
    }

    fn run(self, ctx: &Ctx) -> Report {
        match self {
            Workload::Grid => grid::run(ctx),
            Workload::Infer => infer::run(ctx),
            Workload::Serve => serve::run(ctx),
            Workload::Sched => sched::run(ctx),
        }
    }
}

/// What one workload run does.
pub struct Ctx {
    pub seed: u64,
    /// Tiny sizes, for tests.
    pub quick: bool,
    /// How long the run measures.
    pub seconds: f64,
    /// Measure the per-layer metrics with sb-trace on, instead of the
    /// end-to-end metrics with it off.
    pub trace: bool,
    /// Scratch directory for the grid caches.
    pub work_dir: PathBuf,
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

impl Ctx {
    /// Runs `setup` [`SETUP_REPS`] times (3 with `quick`), each between
    /// two samples of the reference mix. Returns the last result and each
    /// run's time in reference seconds.
    pub fn set_up<T>(&self, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
        let reps = if self.quick { 3 } else { SETUP_REPS };
        let mut cal = Calibrator::new(1);
        let mut secs = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            // Tearing down the previous servers joins their threads,
            // which is not set-up work.
            drop(last.take());
            let ((value, wall_s), ref_ms) = cal.around(|| {
                let t = Instant::now();
                let value = setup();
                (value, t.elapsed().as_secs_f64())
            });
            secs.push(wall_s / ref_ms);
            last = Some(value);
        }
        (last.expect("at least one set-up"), secs)
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark [--workload grid|infer|serve|sched] [--seed S] \
                     [--seconds N] [--trace 0|1] [--quick] [--out FILE]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// Calls `f(0), f(1), ...` until `budget_s` has passed and at least
/// `min_reps` calls were made.
pub fn repeat(budget_s: f64, min_reps: usize, mut f: impl FnMut(usize)) {
    let t = Instant::now();
    let mut i = 0;
    while i < min_reps || t.elapsed().as_secs_f64() < budget_s {
        f(i);
        i += 1;
    }
}

/// `setup_s` from the run's set-up repetitions: their median.
pub fn setup_metric(seconds: Vec<f64>) -> Metric {
    Metric::median("setup_s", "s", seconds)
}

/// Tracing's cost on the workload's headline time: traced median over
/// the untraced median of the interleaved repetitions, minus one, in %.
pub fn overhead_pct(traced: &[f64], plain: &[f64]) -> Metric {
    let (t, p) = (median(traced), median(plain));
    let pct = if p > 0.0 { (t / p - 1.0) * 100.0 } else { 0.0 };
    Metric::one("trace.overhead_pct", "%", pct)
}

/// Pool scheduling counters per traced operation (grid pass, infer
/// round or request).
pub fn runtime_metrics(spans: &Spans, ops: f64) -> Vec<Metric> {
    ["tasks_spawned", "tasks_stolen", "park_events"]
        .into_iter()
        .map(|c| {
            let per_op = spans.counter(c) as f64 / ops.max(1.0);
            Metric::one(format!("runtime.{c}"), "count", per_op)
        })
        .collect()
}

/// Every end-to-end metric, printed by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("throughput", "1/s"),
    ("ref_p50_ms", "ms"),
];

/// Every per-layer metric. Each workload prints all of them; a layer
/// the workload never calls reads 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let shared = [
        ("trace.overhead_pct", "%"),
        ("runtime.tasks_spawned", "count"),
        ("runtime.tasks_stolen", "count"),
        ("runtime.park_events", "count"),
        ("loadgen.lag_us_p99", "us"),
    ];
    let fixed = |list: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        list.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    [
        fixed(&shared),
        fixed(grid::LAYERS),
        infer::layers(),
        fixed(serve::LAYERS),
        fixed(sched::LAYERS),
    ]
    .concat()
}

/// Puts the per-layer metrics in declared order, adding a 0 for every
/// layer the workload did not call.
fn complete_layers(measured: Vec<Metric>) -> Vec<Metric> {
    let names = per_layer_names();
    for m in &measured {
        assert!(
            names.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "per-layer metric {} ({}) is not declared",
            m.name,
            m.unit
        );
    }
    names
        .into_iter()
        .map(|(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::one(name, unit, 0.0))
        })
        .collect()
}

/// Runs one workload and completes its per-layer table.
fn run_workload(w: Workload, ctx: &Ctx) -> Report {
    sb_trace::set_override(Some(false));
    sb_runtime::set_thread_override(Some(w.threads()));
    let mut r = w.run(ctx);
    r.threads = w.threads();
    if ctx.trace {
        r.metrics = complete_layers(std::mem::take(&mut r.metrics));
    } else {
        let names: Vec<(&str, &str)> = r
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        assert_eq!(names, END_TO_END, "{} end-to-end metrics", w.name());
    }
    r
}

fn print_table(w: Workload, r: &Report) {
    println!("== {} ({} runtime threads) ==", w.name(), r.threads);
    println!(
        "{:<44} {:>13} {:>13} {:>13} {:>13} {:>4}  unit",
        "metric", "value", "p25", "median", "p75", "n"
    );
    for m in &r.metrics {
        let s = m.summary();
        println!(
            "{:<44} {:>13.4} {:>13.4} {:>13.4} {:>13.4} {:>4}  {}",
            m.name,
            m.value(),
            s.p25,
            s.median,
            s.p75,
            s.n,
            m.unit
        );
    }
    let rate = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "attempted {}  failed {}  error_rate {:.4}%  reference mix {:.4} ms",
        r.attempted,
        r.failed,
        100.0 * rate,
        r.reference_ms
    );
    if r.failures.is_empty() {
        println!("checks: all passed");
    }
    for f in &r.failures {
        println!("CHECK FAILED: {f}");
    }
}

/// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(runs: &[(Workload, Report)]) -> String {
    let single = runs.len() == 1;
    let mut metrics = Vec::new();
    for (w, r) in runs {
        for m in &r.metrics {
            let name = if single {
                m.name.clone()
            } else {
                format!("{}/{}", w.name(), m.name)
            };
            metrics.push((
                name,
                Json::Obj(vec![
                    ("value".to_string(), Json::Float(m.value())),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]),
            ));
        }
    }
    let doc = Json::Obj(vec![
        (
            "correct".to_string(),
            Json::Bool(runs.iter().all(|(_, r)| r.failures.is_empty())),
        ),
        (
            "attempted".to_string(),
            Json::Int(runs.iter().map(|(_, r)| r.attempted as i128).sum()),
        ),
        (
            "failed".to_string(),
            Json::Int(runs.iter().map(|(_, r)| r.failed as i128).sum()),
        ),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    doc.render(false).expect("metric values are finite")
}

/// The checked-out commit, read from `.git` in the working directory
/// (never a parent), or `unknown`.
fn commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `--out` document: provenance, then each metric's median,
/// quartiles and sample count per workload.
fn out_doc(args: &Args, runs: &[(Workload, Report)]) -> Json {
    let provenance = Json::Obj(vec![
        ("commit".to_string(), Json::Str(commit())),
        ("nproc".to_string(), Json::Int(nproc() as i128)),
        ("seed".to_string(), Json::Int(args.seed as i128)),
        ("seconds".to_string(), Json::Float(args.seconds)),
        ("setup_reps".to_string(), Json::Int(SETUP_REPS as i128)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("quick".to_string(), Json::Bool(args.quick)),
    ]);
    let workloads = runs
        .iter()
        .map(|(w, r)| {
            let metrics = r
                .metrics
                .iter()
                .map(|m| {
                    let Summary {
                        median,
                        p25,
                        p75,
                        n,
                    } = m.summary();
                    (
                        m.name.clone(),
                        Json::Obj(vec![
                            ("unit".to_string(), Json::Str(m.unit.to_string())),
                            ("value".to_string(), Json::Float(m.value())),
                            ("median".to_string(), Json::Float(median)),
                            ("p25".to_string(), Json::Float(p25)),
                            ("p75".to_string(), Json::Float(p75)),
                            ("n".to_string(), Json::Int(n as i128)),
                        ]),
                    )
                })
                .collect();
            (
                w.name().to_string(),
                Json::Obj(vec![
                    ("runtime_threads".to_string(), Json::Int(r.threads as i128)),
                    ("reference_ms".to_string(), Json::Float(r.reference_ms)),
                    ("attempted".to_string(), Json::Int(r.attempted as i128)),
                    ("failed".to_string(), Json::Int(r.failed as i128)),
                    (
                        "failures".to_string(),
                        Json::Arr(r.failures.iter().map(|f| Json::Str(f.clone())).collect()),
                    ),
                    ("metrics".to_string(), Json::Obj(metrics)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("provenance".to_string(), provenance),
        ("workloads".to_string(), Json::Obj(workloads)),
    ])
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the selected workloads and prints the tables; returns every
/// report. Load comes from this one thread, and each workload pins the
/// runtime's thread count, so it never comes from the environment.
fn run_all(args: &Args, ctx: &Ctx) -> Vec<(Workload, Report)> {
    let selected: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    selected
        .into_iter()
        .map(|w| {
            let r = run_workload(w, ctx);
            print_table(w, &r);
            (w, r)
        })
        .collect()
}

/// The context for `args`. The scratch directory sits next to the
/// executable, inside the build directory that is already ignored.
fn ctx_for(args: &Args) -> Ctx {
    let exe = std::env::current_exe().expect("the executable's path");
    let dir = exe.parent().expect("the executable has a directory");
    Ctx {
        seed: args.seed,
        quick: args.quick,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: dir.join(format!("benchmark-work-{}", std::process::id())),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ctx = ctx_for(&args);
    let runs = run_all(&args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    if let Some(path) = &args.out {
        let doc = out_doc(&args, &runs);
        let text = doc.render(true).expect("metric values are finite");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("benchmark: writing {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    println!("{}", result_line(&runs));
    if runs.iter().any(|(_, r)| !r.failures.is_empty()) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Declared metrics, `(name, unit)`, from the root BENCHMARK.json.
    fn declared(key: &str) -> Vec<(String, String)> {
        let doc = sb_json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn quick_runs_print_every_declared_metric_and_pass_their_checks() {
        let e2e = declared("end_to_end");
        let layers = declared("per_layer");
        let code: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, code, "end-to-end metrics in BENCHMARK.json and code");
        let code: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(layers, code, "per-layer metrics in BENCHMARK.json and code");

        for trace in ["0", "1"] {
            let flags = ["--quick", "--seconds", "0.2", "--trace", trace];
            let args = parse_args(&flags.map(String::from)).expect("valid flags");
            let ctx = ctx_for(&args);
            let expected = if args.trace { &layers } else { &e2e };
            for w in Workload::ALL {
                let r = run_workload(w, &ctx);
                assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
                assert!(r.attempted > 0, "{} attempted nothing", w.name());
                let printed: Vec<(&str, &str, f64)> = r
                    .metrics
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit, m.value()))
                    .collect();
                assert_eq!(printed.len(), expected.len(), "{} metrics", w.name());
                for ((name, unit), &(n, u, v)) in expected.iter().zip(&printed) {
                    assert_eq!((n, u), (name.as_str(), unit.as_str()), "{}", w.name());
                    assert!(v.is_finite(), "{}: {name} = {v}", w.name());
                    if !args.trace {
                        assert!(v > 0.0, "{}: end-to-end {name} reads {v}", w.name());
                    }
                }
                let line = result_line(&[(w, r)]);
                let parsed = sb_json::parse(&line).expect("result line is JSON");
                assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
            }
            let _ = std::fs::remove_dir_all(&ctx.work_dir);
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        let a = parse(&["--workload", "sched", "--seed", "7", "--trace", "1"]).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Some(Workload::Sched), 7, true)
        );
    }
}
