//! The repository benchmark: compile time, code quality, proof strength
//! and serving latency of the Rake reproduction, in two workloads.
//!
//! ```sh
//! cargo run --release --manifest-path rakebench/Cargo.toml -- \
//!     --workload suite_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `--workload suite_cold|serve_cold`
//! * `--seed N`     seeds the generated inputs (same seed, same inputs)
//! * `--seconds S`  sizes the `serve_cold` corpus (`suite_cold` always
//!   compiles the whole suite once)
//! * `--trace 0|1`  0 prints the end-to-end metrics, 1 the per-layer ones
//!
//! Every run makes two passes over the same inputs, each in a fresh child
//! process (this binary re-executed with `--child`), so synthesis caches,
//! the process-global proof cache and the peak-RSS counter start cold: an
//! untraced pass, which gives every timing, and a traced pass, which gives
//! the per-layer numbers and `decided_share` (solver verdicts exist only
//! in spans). The last line of standard output is the result object; the
//! line before it is a self-describing report (machine, commit, seed,
//! every per-pass sample). Any interpreter mismatch, failed request or
//! damaged trace makes the result `"correct": false` and the exit code 1.
//! README.md says why each workload and metric exists.

mod metrics;
mod serve;
mod spans;
mod suite;
mod util;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use driver::json::Json;

use metrics::{Kind as MetricKind, MetricDef, METRICS};

pub const WORKLOADS: [&str; 2] = ["suite_cold", "serve_cold"];

/// What one child process does.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Time the set-up and the workload with the tracer off.
    Plain,
    /// Run the same inputs with the tracer on.
    Traced,
}

/// What one pass (one child process) measured.
#[derive(Default)]
pub struct PassOut {
    pub metrics: BTreeMap<&'static str, f64>,
    pub layers: Option<spans::LayerReport>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations and integrity violations, in discovery order.
    pub problems: Vec<String>,
    pub info: Vec<(&'static str, Json)>,
    /// VmHWM at the end of the timed section.
    pub peak_rss_mb: Option<f64>,
}

impl PassOut {
    /// An operation failed (counts in `failed`).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.problems.push(msg);
    }

    /// The run is not trustworthy, but no single operation failed
    /// (a dropped span, a layer wall over the pass wall).
    pub fn violation(&mut self, msg: String) {
        self.problems.push(msg);
    }

    fn to_json(&self) -> Json {
        let mut metrics = self.metrics.clone();
        metrics.insert("peak_rss_mb", self.peak_rss_mb.unwrap_or_else(util::peak_rss_mb));
        if let Some(l) = &self.layers {
            let calls = l.smt_calls.max(1) as f64;
            for (k, v) in [
                ("decided_share", l.decided_share()),
                ("lift.wall_s", l.lift.wall_s),
                ("lift.busy_s", l.lift.busy_s),
                ("lower.wall_s", l.lower.wall_s),
                ("lower.busy_s", l.lower.busy_s),
                ("verify.checks", l.checks as f64),
                ("verify.linear", l.linear as f64),
                ("verify.proof_cache_hits", l.proof_cache_hits as f64),
                ("verify.solves", l.solves as f64),
                ("verify.unproved_share", l.unproved_share()),
                ("smt.calls", l.smt_calls as f64),
                ("smt.unsat", l.smt_unsat as f64),
                ("smt.sat", l.smt_sat as f64),
                ("smt.unknown", l.smt_unknown as f64),
                ("smt.useful_ratio", (l.smt_unsat + l.smt_sat) as f64 / calls),
                ("smt.busy_s", l.smt.busy_s),
                ("smt.wall_s", l.smt.wall_s),
                ("smt.unknown_busy_s", l.smt_unknown_busy_s),
                ("trace.spans", l.spans as f64),
            ] {
                metrics.insert(k, v);
            }
        }
        Json::obj([
            (
                "metrics",
                Json::Obj(metrics.into_iter().map(|(k, v)| (k.to_owned(), v.into())).collect()),
            ),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            // The driver and the screening pool size themselves from this.
            ("nproc", util::nproc().into()),
            ("problems", Json::Arr(self.problems.iter().map(|p| Json::from(p.as_str())).collect())),
            (
                "info",
                Json::Obj(self.info.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect()),
            ),
        ])
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Hidden: run one pass in this process (`plain` or `traced`).
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 20, trace: false, child: None };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--child" => args.child = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload takes one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

/// Scratch space for server state, inside the directory the benchmark
/// runs from; removed when the run ends.
fn scratch_root() -> PathBuf {
    PathBuf::from(".rakebench-tmp")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(err) => {
            eprintln!("rakebench: {err}");
            return ExitCode::from(2);
        }
    };
    if let Some(pass) = args.child.clone() {
        return child(&args, &pass);
    }
    let _ = std::fs::create_dir_all(scratch_root());
    let r = run_workload(&args);
    let _ = std::fs::remove_dir_all(scratch_root());

    eprint!("{}", r.table(&args.workload));
    let correct = r.problems.is_empty();
    let machine = Json::obj([
        ("nproc", util::nproc().into()),
        ("cpu_model", util::cpu_model().into()),
        ("commit", util::git_commit(Path::new(".")).into()),
        ("workload", args.workload.as_str().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
    ]);
    println!("{}", Json::obj([("report", Json::obj([("machine", machine), ("runs", r.report)]))]));
    let metrics = r
        .metrics
        .iter()
        .map(|(def, value)| {
            (
                def.name.to_owned(),
                Json::obj([("value", (*value).into()), ("unit", def.unit.into())]),
            )
        })
        .collect();
    println!(
        "{}",
        Json::obj([
            ("correct", correct.into()),
            ("attempted", r.attempted.max(1).into()),
            ("failed", r.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload's printed result.
struct RunResult {
    metrics: Vec<(&'static MetricDef, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    report: Json,
}

impl RunResult {
    fn table(&self, workload: &str) -> String {
        let mut s = format!("== {workload}\n");
        for (def, value) in &self.metrics {
            let better = if def.higher_is_better { "higher" } else { "lower" };
            s.push_str(&format!(
                "  {:<26} {value:>14.4} {:<6} {better} is better\n",
                def.name, def.unit
            ));
        }
        s.push_str(&format!("  attempted {}  failed {}\n", self.attempted, self.failed));
        for p in self.problems.iter().take(20) {
            s.push_str(&format!("  PROBLEM: {p}\n"));
        }
        s
    }
}

/// A finished child pass.
struct ChildRun {
    /// Share of machine CPU time stolen by the hypervisor during the pass.
    steal_share: f64,
    out: Json,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        match self.out.get("metrics").and_then(|m| m.get(name)) {
            Some(Json::Num(v)) => Some(*v),
            _ => None,
        }
    }
    fn count(&self, key: &str) -> u64 {
        self.out.get(key).and_then(Json::as_i64).unwrap_or(0) as u64
    }
    fn problems(&self) -> Vec<String> {
        self.out
            .get("problems")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).map(str::to_owned).collect())
            .unwrap_or_default()
    }
}

/// Upper bound on both passes of a run: a hung pass is killed so that the
/// run still ends within three minutes.
const RUN_LIMIT: Duration = Duration::from_secs(170);

fn spawn_child(pass: &str, args: &Args, deadline: Instant) -> Result<ChildRun, String> {
    let workload = &args.workload;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let jiffies = util::cpu_jiffies();
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--child", pass])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        // One malloc arena: with one per thread, peak RSS followed which
        // arenas parallel screening's helper threads landed on (46-56 MB
        // on the suite over four runs; 30.0 +- 0.2 MB with one), while
        // compile times did not move.
        .env("MALLOC_ARENA_MAX", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a {workload} {pass} pass: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut last = None;
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) if !line.trim().is_empty() => last = Some(line),
            Ok(_) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                // A hung pass fails the run instead of hanging it.
                let _ = child.kill();
                break;
            }
        }
    }
    let status =
        child.wait().map_err(|e| format!("waiting for the {workload} {pass} pass: {e}"))?;
    let _ = reader.join();
    if !status.success() {
        return Err(format!("the {workload} {pass} pass exited with {status}"));
    }
    let out = last
        .and_then(|l| driver::json::parse(&l).ok())
        .ok_or_else(|| format!("the {workload} {pass} pass printed no result"))?;
    let steal_share = util::steal_share(&jiffies, &util::cpu_jiffies());
    Ok(ChildRun { steal_share, out })
}

/// Set-ups timed per plain pass (the median is reported). Each takes
/// milliseconds, and the first few of a fresh process often take twice as
/// long as the rest: with nine, the median of `serve_cold` set-ups read 4
/// or 8 ms from run to run.
const SETUP_REPS: usize = 25;

fn run_workload(args: &Args) -> RunResult {
    let workload = args.workload.as_str();
    let mut problems = Vec::new();
    let mut passes = Vec::new();
    let deadline = Instant::now() + RUN_LIMIT;
    for pass in ["plain", "traced"] {
        match spawn_child(pass, args, deadline) {
            Ok(c) => passes.push(c),
            Err(e) => problems.push(e),
        }
    }
    let (mut attempted, mut failed) = (0, 0);
    for p in &passes {
        attempted += p.count("attempted");
        failed += p.count("failed");
        problems.extend(p.problems());
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if let [plain, traced] = passes.as_slice() {
        for def in METRICS {
            // Timings come from the untraced pass; solver verdicts and
            // layers exist only in the traced one.
            let from_plain = def.kind == MetricKind::EndToEnd && def.name != "decided_share";
            let source = if from_plain { plain } else { traced };
            if let Some(v) = source.metric(def.name) {
                values.insert(def.name, v);
            }
        }
        if let (Some(a), Some(b)) = (plain.metric("compile_s"), traced.metric("compile_s")) {
            values.insert("trace.overhead_ratio", b / a);
        }
        if workload == "suite_cold" {
            problems.extend(drift(plain, traced));
        }
    }
    let kind = if args.trace { MetricKind::Layer } else { MetricKind::EndToEnd };
    let mut metrics = Vec::new();
    for def in METRICS.iter().filter(|d| d.kind == kind) {
        match values.get(def.name) {
            Some(v) if v.is_finite() => metrics.push((def, *v)),
            _ => problems.push(format!("metric {} was not measured", def.name)),
        }
    }
    let report = Json::Arr(
        passes
            .iter()
            .map(|r| {
                let mut o = vec![("cpu_steal_share".to_owned(), Json::from(r.steal_share))];
                if let Json::Obj(fields) = &r.out {
                    o.extend(fields.iter().cloned());
                }
                Json::Obj(o)
            })
            .collect(),
    );
    RunResult { metrics, attempted, failed, problems, report }
}

/// Exact-count check between the two passes of the suite: per-kernel
/// outcomes and cycles must not drift (SMT query counts may; parallel
/// screening makes them nondeterministic).
fn drift(a: &ChildRun, b: &ChildRun) -> Vec<String> {
    let kernels = |r: &ChildRun| -> Vec<String> {
        r.out
            .get("info")
            .and_then(|i| i.get("kernels"))
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).map(str::to_owned).collect())
            .unwrap_or_default()
    };
    let (ka, kb) = (kernels(a), kernels(b));
    let mut out: Vec<String> = ka
        .iter()
        .zip(&kb)
        .filter(|(x, y)| x != y)
        .map(|(x, y)| format!("exact-count drift between passes: `{x}` vs `{y}`"))
        .collect();
    if ka.len() != kb.len() {
        out.push(format!("exact-count drift: {} vs {} kernels", ka.len(), kb.len()));
    }
    for name in ["speedup_geomean", "hvx.rake_cycles", "compiled_share"] {
        if a.metric(name) != b.metric(name) {
            out.push(format!(
                "exact-count drift in {name}: {:?} vs {:?}",
                a.metric(name),
                b.metric(name)
            ));
        }
    }
    out
}

/// Child mode: run one pass and print its JSON.
fn child(args: &Args, pass: &str) -> ExitCode {
    let pass = match pass {
        "plain" => Pass::Plain,
        "traced" => Pass::Traced,
        other => {
            eprintln!("rakebench: unknown pass `{other}`");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "suite_cold" => suite::run(args.seed, pass, SETUP_REPS),
        _ => serve::run(pass, args.seed, args.seconds as f64, &scratch_root(), SETUP_REPS),
    };
    // Both workloads synthesize, so a traced pass without a single
    // equivalence check lost its spans; its proof strength is unknown.
    if pass == Pass::Traced && out.layers.as_ref().is_none_or(|l| l.checks == 0) {
        out.violation("the traced pass recorded no verify.smt_equiv spans".to_owned());
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
