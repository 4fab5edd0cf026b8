//! `serve_cold`: an in-process `served::serve` with a fresh temporary
//! cache directory and journal, driven closed-loop over HTTP `/compile`
//! by one client connection in the same process. The client sends a
//! corpus of *distinct* generated expressions in a seeded order: every
//! request misses the cache, synthesizes, and appends to the cache log
//! and the journal.

use std::collections::HashMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use driver::json::Json;
use halide_ir::Expr;
use hvx::SlotBudget;
use lanes::rng::Rng;
use rake::{Rake, Target};
use served::{ServerConfig, ServerHandle};

use crate::spans::{self, Span};
use crate::util::{self, geomean, median, quantile};
use crate::{Pass, PassOut};

/// Vector width of every request (the server derives 16-byte registers).
const LANES: usize = 16;
const VEC_BYTES: usize = 16;
/// `oracle::gen_expr` size bound.
const MAX_NODES: usize = 6;
/// Requests per `--seconds` (about what one connection answers per second
/// on the two-core reference box).
const PER_SECOND: usize = 35;
/// Generator seed of the expression corpus. The corpus is a fixed draw:
/// the workload seed orders it (and draws the interpreter-check inputs).
/// A per-seed corpus would make a run's tail and peak RSS depend on how
/// many of the rare multi-second expressions it happens to draw (p95
/// 40-61 ms and peak RSS 31-48 MB over ten seeds).
const CORPUS: u64 = 0xC01D_5EED;

/// One client-observed request.
struct Sample {
    idx: usize,
    latency_ms: f64,
    /// HTTP status; 0 for a transport error.
    status: u16,
    /// The parsed reply of a 200 (or why it did not parse).
    reply: Option<Result<Reply, String>>,
}

/// The temporary server state directory, inside the checkout.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(root: &Path, tag: &str) -> Scratch {
        let dir = root.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the server scratch directory");
        Scratch { dir }
    }
    fn cache(&self) -> PathBuf {
        self.dir.join("cache")
    }
    fn journal(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }
    fn traces(&self) -> PathBuf {
        self.dir.join("traces")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Seeded distinct expressions (distinct by the server's cache key) over
/// two `u8` buffers, without vector-by-vector products.
///
/// The generator's `i16` buffer and vector products put multi-second
/// solver calls (up to 24 s measured) into 1.5–4% of expressions, and a
/// 10-second run then held anywhere from 17 to 800 requests. The solver's
/// full cost is measured on `suite_cold`.
fn generate(seed: u64, count: usize) -> Vec<Expr> {
    let rake = Rake::new(Target { lanes: LANES, vec_bytes: VEC_BYTES });
    let mut cfg = oracle::gen::GenConfig { max_nodes: MAX_NODES, ..Default::default() };
    cfg.buffers.retain(|(_, ty)| *ty == lanes::ElemType::U8);
    let mut rng = Rng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let e = oracle::gen::gen_expr(&mut rng, &cfg);
        if !has_vector_product(&e) && seen.insert(driver::cache_key(&rake, &e)) {
            out.push(e);
        }
    }
    out
}

fn has_vector_product(e: &Expr) -> bool {
    let scalar = |x: &Expr| matches!(x, Expr::Broadcast(_) | Expr::BroadcastLoad(_));
    let here = matches!(e, Expr::Binary(b) if b.op == halide_ir::BinOp::Mul && !scalar(&b.lhs) && !scalar(&b.rhs));
    here || e.children().into_iter().any(has_vector_product)
}

/// The corpus in its drawn order, shuffled by `rng` within consecutive
/// blocks of `PER_SECOND` requests.
///
/// The server's caches grow with every request, so where in the run the
/// few memory-hungry solves land decides peak RSS: a whole-corpus shuffle
/// made it read 15-20 MB over four seeds. Within a block, the seed still
/// decides which requests precede which.
fn block_order(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for block in order.chunks_mut(PER_SECOND) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range_usize(0..=i));
        }
    }
    order
}

fn body_for(e: &Expr) -> Vec<u8> {
    Json::obj([("expr", halide_ir::sexpr::to_sexpr(e).into()), ("lanes", LANES.into())])
        .to_string()
        .into_bytes()
}

/// Send `bodies` in `order` over one connection, each request after the
/// previous reply (a closed loop). A transport error drops the connection;
/// the next request opens a new one.
fn closed_loop(addr: &str, bodies: &[Vec<u8>], order: &[usize]) -> Vec<Sample> {
    let mut stream: Option<TcpStream> = None;
    let mut samples = Vec::with_capacity(order.len());
    for &idx in order {
        let start = Instant::now();
        let reply = match &mut stream {
            Some(s) => served::http::roundtrip(s, "POST", "/compile", Some(&bodies[idx])),
            None => TcpStream::connect(addr).and_then(|mut s| {
                let _ = s.set_read_timeout(Some(Duration::from_secs(120)));
                let r = served::http::roundtrip(&mut s, "POST", "/compile", Some(&bodies[idx]));
                stream = Some(s);
                r
            }),
        };
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let (status, body) = reply.unwrap_or_else(|_| {
            stream = None;
            (0, Vec::new())
        });
        let reply = (status == 200).then(|| parse_reply(&body));
        samples.push(Sample { idx, latency_ms, status, reply });
    }
    samples
}

fn get(addr: &str, path: &str) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
    match served::http::roundtrip(&mut s, "GET", path, None) {
        Ok((200, body)) => String::from_utf8(body).ok(),
        _ => None,
    }
}

/// Collect (and delete) the per-request trace files written so far, plus
/// whatever spans are left in the ring outside any request trace.
fn collect_traces(dir: &Path, out: &mut PassOut) -> Vec<Span> {
    let mut spans: Vec<Span> = trace::drain().iter().map(Span::from_record).collect();
    let Ok(entries) = std::fs::read_dir(dir) else { return spans };
    for e in entries.filter_map(Result::ok) {
        let path = e.path();
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| spans::from_chrome_json(&t))
        {
            Ok(s) => spans.extend(s),
            Err(err) => out.violation(format!("{}: {err}", path.display())),
        }
        let _ = std::fs::remove_file(&path);
    }
    spans
}

/// The parsed first result of a 200 `/compile` reply.
struct Reply {
    outcome: &'static str,
    wall_ms: f64,
    lifting_queries: u64,
    sketching_queries: u64,
    hvx: Option<String>,
    cycles: Option<u64>,
}

/// The static name of a reply outcome (replies are many; names are six).
fn outcome_name(s: &str) -> Result<&'static str, String> {
    ["compiled", "failed", "timed_out", "panicked", "cancelled", "quarantined"]
        .into_iter()
        .find(|&o| o == s)
        .ok_or_else(|| format!("unknown outcome `{s}`"))
}

fn parse_reply(body: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_owned())?;
    let doc = driver::json::parse(text).map_err(|e| format!("bad reply JSON: {e:?}"))?;
    let num = |j: Option<&Json>| match j {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    };
    let r = doc
        .get("results")
        .and_then(Json::as_arr)
        .and_then(|a| a.first())
        .ok_or("reply without results")?;
    let memo = doc.get("memo");
    let count = |k: &str| num(memo.and_then(|m| m.get(k))).unwrap_or(0.0) as u64;
    Ok(Reply {
        outcome: outcome_name(
            r.get("outcome").and_then(Json::as_str).ok_or("result without outcome")?,
        )?,
        wall_ms: num(doc.get("wall_ms")).ok_or("reply without wall_ms")?,
        lifting_queries: count("lifting_queries"),
        sketching_queries: count("sketching_queries"),
        hvx: r.get("hvx").and_then(Json::as_str).map(str::to_owned),
        cycles: num(r.get("cost").and_then(|c| c.get("cycles"))).map(|c| c as u64),
    })
}

/// Run a returned program against the interpreter on seeded adversarial
/// inputs at aligned and unaligned origins.
fn check_program(e: &Expr, hvx_text: &str, seed: u64) -> Result<hvx::Program, String> {
    let h = hvx::sexpr::parse(hvx_text).map_err(|err| format!("unparseable hvx: {err:?}"))?;
    let program = h.to_program();
    let checker =
        oracle::Oracle { lanes: LANES, width: LANES + 24, seed, ..oracle::Oracle::default() };
    let ty = e.ty();
    let report = checker.check(e, &|env, x0, y0, lanes| {
        program
            .run_ctx(&hvx::ExecCtx { env, x0, y0, lanes, vec_bytes: VEC_BYTES })
            .ok()
            .map(|v| v.typed_lanes(ty))
    });
    if report.checks == 0 {
        return Err("the program ran at no check point".to_owned());
    }
    if let Some(f) = report.failures.first() {
        return Err(format!(
            "disagrees with the interpreter at ({},{}) lane {}: want {} got {}",
            f.x0, f.y0, f.lane, f.want, f.got
        ));
    }
    Ok(program)
}

/// A started server with its inputs, ready for the timed loop.
struct Setup {
    handle: ServerHandle,
    scratch: Scratch,
    exprs: Vec<Expr>,
    bodies: Vec<Vec<u8>>,
    order: Vec<usize>,
}

/// Start a server on a fresh state directory and build the seeded request
/// stream.
fn set_up(root: &Path, rep: usize, seed: u64, seconds: f64, traced: bool) -> Result<Setup, String> {
    let scratch = Scratch::new(root, &format!("serve_cold-{rep}"));
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: Some(scratch.cache()),
        log_path: Some(scratch.journal()),
        trace_out: traced.then(|| scratch.traces()),
        ..ServerConfig::default()
    };
    let handle = served::serve(config).map_err(|e| format!("cannot start the server: {e}"))?;
    // The whole corpus, once: every run synthesizes the same work.
    let exprs = generate(CORPUS, PER_SECOND * seconds.ceil() as usize);
    let order = block_order(exprs.len(), &mut Rng::seed_from_u64(seed));
    let bodies = exprs.iter().map(body_for).collect();
    Ok(Setup { handle, scratch, exprs, bodies, order })
}

/// One pass of `serve_cold`. A plain pass times `setup_reps` set-ups (the
/// last one is measured); a traced pass sets up once.
pub fn run(pass: Pass, seed: u64, seconds: f64, root: &Path, setup_reps: usize) -> PassOut {
    let mut out = PassOut::default();
    let traced = pass == Pass::Traced;
    let dropped_before = trace::dropped();
    let reps = if traced { 1 } else { setup_reps.max(1) };
    let mut setup_s = Vec::new();
    let mut setup = None;
    // Directories of the set-ups already timed, removed when the pass ends
    // rather than between set-ups.
    let mut spent = Vec::new();
    for rep in 0..reps {
        if let Some(Setup { handle, scratch, .. }) = setup.take() {
            handle.shutdown();
            spent.push(scratch);
        }
        let t0 = Instant::now();
        match set_up(root, rep, seed, seconds, traced) {
            Ok(s) => setup = Some(s),
            Err(err) => {
                out.violation(err);
                return out;
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup { handle, scratch, exprs, bodies, order } = setup.expect("at least one set-up");
    let addr = handle.addr().to_string();
    // Untimed: the server's accept loop polls every 20 ms, so the first
    // connection waits 0-20 ms depending on where that poll stands.
    if get(&addr, "/healthz").is_none() {
        out.violation("the server did not answer /healthz".to_owned());
        handle.shutdown();
        return out;
    }

    // ---- timed: the closed loop over the whole corpus ----
    let cache_before = handle.cache().stats();
    let t0 = Instant::now();
    let samples = closed_loop(&addr, &bodies, &order);
    let elapsed = t0.elapsed().as_secs_f64();
    // Before the untimed checks allocate their own working sets.
    out.peak_rss_mb = Some(util::peak_rss_mb());
    let cache_after = handle.cache().stats();

    let loop_spans = if traced { collect_traces(&scratch.traces(), &mut out) } else { Vec::new() };
    handle.shutdown();
    let dropped = trace::dropped() - dropped_before;
    trace::disable();
    let disk_bytes = util::dir_bytes(&scratch.cache())
        + std::fs::metadata(scratch.journal()).map_or(0, |m| m.len());

    // ---- untimed: parse, check against the interpreter, cost ----
    let slots = SlotBudget::hvx();
    let bopts = halide_opt::BaselineOptions { lanes: LANES, vec_bytes: VEC_BYTES };
    let mut latencies = Vec::new();
    let mut overhead_ms = Vec::new();
    let (mut compiled, mut rejected, mut lifting, mut sketching) = (0u64, 0u64, 0u64, 0u64);
    let (mut speedups, mut schedule_us) = (Vec::new(), Vec::new());
    let (mut rake_cycles, mut baseline_cycles) = (0u64, 0u64);
    let mut outcomes: std::collections::BTreeMap<&str, u64> = Default::default();
    let mut no_baseline = 0u64;
    for s in &samples {
        out.attempted += 1;
        let reply = match (s.status, &s.reply) {
            (200, Some(Ok(r))) => r,
            (200, Some(Err(err))) => {
                out.fail(format!("request {}: {err}", s.idx));
                continue;
            }
            (0, _) => {
                out.fail(format!("request {} failed in transport", s.idx));
                continue;
            }
            (code, _) => {
                if code == 429 || code == 503 {
                    rejected += 1;
                }
                out.fail(format!("request {} answered {code}", s.idx));
                continue;
            }
        };
        latencies.push(s.latency_ms);
        overhead_ms.push((s.latency_ms - reply.wall_ms).max(0.0));
        lifting += reply.lifting_queries;
        sketching += reply.sketching_queries;
        *outcomes.entry(reply.outcome).or_default() += 1;
        if reply.outcome == "panicked" {
            out.fail(format!("request {} panicked", s.idx));
            continue;
        }
        let e = &exprs[s.idx];
        let program = match (reply.outcome, &reply.hvx) {
            ("compiled", Some(text)) => match check_program(e, text, seed) {
                Ok(p) => Some(p),
                Err(err) => {
                    out.fail(format!("request {}: {err}", s.idx));
                    continue;
                }
            },
            ("compiled", None) => {
                out.fail(format!("request {}: compiled reply without hvx", s.idx));
                continue;
            }
            _ => None,
        };
        let rc = program.map(|p| {
            compiled += 1;
            schedule_us.push(util::time_us(5, 20, || {
                std::hint::black_box(p.schedule(LANES, VEC_BYTES, slots));
            }));
            let rc = p.schedule(LANES, VEC_BYTES, slots).cycles;
            if reply.cycles != Some(rc) {
                out.fail(format!(
                    "request {}: reply cost.cycles {:?} != schedule {rc}",
                    s.idx, reply.cycles
                ));
            }
            rc
        });
        // The baseline selector is total over the paper kernels only;
        // expressions it cannot cover stay out of the cycle comparison
        // (their programs are still checked).
        let Ok(baseline) = halide_opt::select(e, bopts) else {
            no_baseline += 1;
            continue;
        };
        let bc = baseline.to_program().schedule(LANES, VEC_BYTES, slots).cycles;
        // A declined expression keeps its baseline: speedup 1.
        let rc = rc.unwrap_or(bc);
        speedups.push(bc as f64 / rc.max(1) as f64);
        rake_cycles += rc;
        baseline_cycles += bc;
    }
    let rake = Rake::new(Target { lanes: LANES, vec_bytes: VEC_BYTES });
    let key_us: Vec<f64> = exprs
        .iter()
        .take(64)
        .map(|e| {
            util::time_us(5, 20, || {
                std::hint::black_box(driver::cache_key(&rake, e));
            })
        })
        .collect();

    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_s));
    // The timed loop's wall time (the basis of trace.overhead_ratio).
    m.insert("compile_s", elapsed);
    // The disconnect monitor's 15 ms poll clusters round trips (20, 35,
    // 50, 65 ms ...), so a single high percentile hops between clusters
    // from run to run; the mean of the slowest 10% does not.
    m.insert("tail_ms", util::tail_mean(&latencies, 0.9));
    m.insert("rate_per_s", latencies.len() as f64 / elapsed);
    m.insert("speedup_geomean", geomean(&speedups));
    m.insert("compiled_share", compiled as f64 / (samples.len().max(1)) as f64);
    m.insert("driver.cache_hits", (cache_after.hits - cache_before.hits) as f64);
    m.insert("driver.cache_misses", (cache_after.misses - cache_before.misses) as f64);
    m.insert("driver.appended", (cache_after.appended - cache_before.appended) as f64);
    m.insert("driver.disk_bytes", disk_bytes as f64);
    m.insert("driver.key_us", median(&key_us));
    m.insert("served.overhead_ms", median(&overhead_ms));
    m.insert("served.rejected", rejected as f64);
    m.insert("hvx.schedule_us", median(&schedule_us));
    m.insert("hvx.rake_cycles", rake_cycles as f64);
    m.insert("hvx.baseline_cycles", baseline_cycles as f64);
    m.insert("trace.dropped", dropped as f64);
    m.insert("synth.lifting_queries", lifting as f64);
    m.insert("synth.sketching_queries", sketching as f64);
    m.insert("driver.queue_wait_s", queue_wait_s(&loop_spans));
    // Verdict and env hits are not reported over HTTP.
    m.insert("synth.verdict_hits", 0.0);
    m.insert("synth.env_hits", 0.0);
    if dropped > 0 {
        out.violation(format!("trace ring dropped {dropped} spans"));
    }
    if traced {
        let layers = spans::analyze(&loop_spans);
        for v in spans::wall_violations(&layers, elapsed) {
            out.violation(v);
        }
        out.layers = Some(layers);
    }
    out.info.push((
        "outcomes",
        Json::Obj(outcomes.into_iter().map(|(k, v)| (k.to_owned(), Json::from(v))).collect()),
    ));
    out.info.push(("no_baseline", no_baseline.into()));
    out.info.push(("setup_s", Json::Arr(setup_s.into_iter().map(Json::from).collect())));
    let mut slow: Vec<(f64, usize)> = samples.iter().map(|s| (s.latency_ms, s.idx)).collect();
    slow.sort_by(|a, b| b.0.total_cmp(&a.0));
    out.info.push((
        "slowest",
        Json::Arr(
            slow.iter()
                .take(5)
                .map(|&(ms, i)| {
                    Json::obj([
                        ("ms", ms.into()),
                        ("expr", halide_ir::sexpr::to_sexpr(&exprs[i]).into()),
                    ])
                })
                .collect(),
        ),
    ));
    out.info.push(("requests", latencies.len().into()));
    out.info.push(("latency_ms", Json::Arr(latencies.iter().map(|&l| Json::from(l)).collect())));
    out.info.push((
        "latency_quantiles_ms",
        Json::Obj(
            [
                ("p50", 0.5),
                ("p90", 0.9),
                ("p95", 0.95),
                ("p99", 0.99),
                ("p999", 0.999),
                ("max", 1.0),
            ]
            .into_iter()
            .map(|(k, q)| (k.to_owned(), quantile(&latencies, q).into()))
            .collect(),
        ),
    ));
    out
}

/// Time jobs waited between their batch starting and a driver worker
/// picking them up, summed over `driver.job` spans (what
/// `JobResult.queue_wait` reports; HTTP replies do not carry it).
fn queue_wait_s(spans: &[Span]) -> f64 {
    let batches: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == "driver.batch")
        .map(|s| (s.span_id, s.start_us))
        .collect();
    spans
        .iter()
        .filter(|s| s.name == "driver.job")
        .filter_map(|s| batches.get(&s.parent_id).map(|&b| s.start_us.saturating_sub(b)))
        .sum::<u64>() as f64
        / 1e6
}
