//! `suite_cold`: the 21 paper kernels (24 expressions) at
//! `RunConfig::quick`, compiled through `Driver::compile_batch_named` in a
//! fresh process (cold synthesis cache, cold process-global proof cache).
//!
//! Only the 21 driver batches are timed. Baseline selection, scheduling
//! and the interpreter sweep run after the timer stops.

use std::time::Instant;

use driver::json::Json;
use driver::{Driver, JobOutcome};
use halide_ir::{Env, EvalCtx, Expr};
use hvx::{ExecCtx, Program, SlotBudget};
use rake::{Rake, Target};
use rake_bench::{bench_verifier, RunConfig, ServiceOptions};
use workloads::Workload;

use crate::spans::{self, Span};
use crate::util::{self, geomean, median, quantile};
use crate::{Pass, PassOut};

struct Kernel {
    w: Workload,
    cfg: RunConfig,
    rake: Rake,
    driver: Driver,
    jobs: Option<Vec<(String, Expr)>>,
    env: Env,
}

/// Kernels, drivers and the sweep's input buffers. The seed only shapes
/// the buffers; the compiler sees the fixed kernels.
fn set_up(seed: u64) -> Vec<Kernel> {
    workloads::all()
        .into_iter()
        .map(|w| {
            let cfg = RunConfig::quick(&w);
            let target = Target { lanes: cfg.lanes, vec_bytes: cfg.vec_bytes };
            let rake = Rake::new(target).with_verifier(bench_verifier(cfg));
            let driver = ServiceOptions::default().driver(rake.clone());
            let jobs = w
                .exprs
                .iter()
                .enumerate()
                .map(|(i, e)| (format!("{}[{i}]", w.name), e.clone()))
                .collect();
            let env = w.env(cfg.lanes * (cfg.tiles_x + 2), cfg.rows + 16, seed);
            Kernel { w, cfg, rake, driver, jobs: Some(jobs), env }
        })
        .collect()
}

/// One pass over the suite. A plain pass times `setup_reps` set-ups and
/// compiles with the last one; a traced pass sets up once.
pub fn run(seed: u64, pass: Pass, setup_reps: usize) -> PassOut {
    let traced = pass == Pass::Traced;
    let reps = if traced { 1 } else { setup_reps.max(1) };
    let mut setup_s = Vec::new();
    let mut kernels = Vec::new();
    for _ in 0..reps {
        drop(std::mem::take(&mut kernels));
        let t0 = Instant::now();
        kernels = set_up(seed);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    if traced {
        trace::enable();
    }
    let dropped_before = trace::dropped();
    let mut out = PassOut::default();

    // ---- timed: the driver batches, nothing else ----
    let mut walls = Vec::new();
    let mut reports = Vec::new();
    let mut records: Vec<Span> = Vec::new();
    for k in &mut kernels {
        let jobs = k.jobs.take().expect("jobs are compiled once");
        let t0 = Instant::now();
        let report = k.driver.compile_batch_named(jobs);
        walls.push(t0.elapsed().as_secs_f64());
        if traced {
            // Drain after every kernel so the ring never holds more than
            // one kernel's spans.
            records.extend(trace::drain().iter().map(Span::from_record));
        }
        reports.push(report);
    }
    let compile_s: f64 = walls.iter().sum();
    // Before the untimed baseline and sweep allocate their own.
    out.peak_rss_mb = Some(util::peak_rss_mb());
    let dropped = trace::dropped() - dropped_before;
    trace::disable();

    // ---- untimed: baseline, scheduling, interpreter sweep ----
    let slots = SlotBudget::hvx();
    let mut speedups = Vec::new();
    let (mut exprs, mut compiled) = (0u64, 0u64);
    let (mut rake_cycles, mut baseline_cycles) = (0u64, 0u64);
    let mut stats = synth::SynthStats::default();
    let (mut queue_wait_s, mut cache_hits, mut cache_misses) = (0.0, 0u64, 0u64);
    let (mut key_us, mut schedule_us, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut digests = Vec::new();
    for ((k, report), wall) in kernels.iter().zip(&reports).zip(&walls) {
        stats.merge(&report.stats);
        cache_hits += report.cache_stats.hits;
        cache_misses += report.cache_stats.misses;
        overhead_ms.push((wall - report.wall.as_secs_f64()).max(0.0) * 1e3);
        let bopts = halide_opt::BaselineOptions { lanes: k.cfg.lanes, vec_bytes: k.cfg.vec_bytes };
        let (mut base_total, mut rake_total) = (0u64, 0u64);
        let mut outcomes = Vec::new();
        for (e, result) in k.w.exprs.iter().zip(&report.results) {
            exprs += 1;
            out.attempted += 1;
            queue_wait_s += result.queue_wait.as_secs_f64();
            outcomes.push(outcome_name(&result.outcome));
            key_us.push(util::time_us(5, 20, || {
                std::hint::black_box(driver::cache_key(&k.rake, e));
            }));
            let baseline = match halide_opt::select(e, bopts) {
                Ok(b) => b.to_program(),
                Err(err) => {
                    out.fail(format!("{}: baseline selector declined: {err}", k.w.name));
                    continue;
                }
            };
            let rake_program = match &result.outcome {
                JobOutcome::Compiled(c) => {
                    compiled += 1;
                    Some(&c.program)
                }
                JobOutcome::Panicked(msg) => {
                    out.fail(format!("{}: compile panicked: {msg}", k.w.name));
                    None
                }
                _ => None,
            };
            if let Err(why) = sweep(e, &baseline, rake_program, &k.env, k.cfg) {
                out.fail(format!("{}: {why}", k.w.name));
            }
            let bc = baseline.schedule(k.cfg.lanes, k.cfg.vec_bytes, slots).cycles;
            let rc = match rake_program {
                Some(p) => {
                    schedule_us.push(util::time_us(5, 20, || {
                        std::hint::black_box(p.schedule(k.cfg.lanes, k.cfg.vec_bytes, slots));
                    }));
                    p.schedule(k.cfg.lanes, k.cfg.vec_bytes, slots).cycles
                        + u64::from(k.w.rake_layout_penalty)
                }
                None => bc,
            };
            base_total += bc;
            rake_total += rc;
        }
        // The run_workload_with speedup: cycle totals over the tile sweep
        // (the tile count cancels).
        speedups.push(base_total as f64 / rake_total.max(1) as f64);
        rake_cycles += rake_total;
        baseline_cycles += base_total;
        digests.push(format!(
            "{} outcomes={} rake_cycles={rake_total} baseline_cycles={base_total}",
            k.w.name,
            outcomes.join(",")
        ));
    }

    let m = &mut out.metrics;
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    m.insert("setup_s", median(&setup_s));
    m.insert("compile_s", compile_s);
    m.insert("rate_per_s", exprs as f64 / compile_s);
    // 21 samples: the slowest kernel, not a percentile.
    m.insert("tail_ms", quantile(&walls_ms, 1.0));
    m.insert("speedup_geomean", geomean(&speedups));
    m.insert("compiled_share", compiled as f64 / exprs.max(1) as f64);
    m.insert("synth.lifting_queries", stats.lifting_queries as f64);
    m.insert("synth.sketching_queries", stats.sketching_queries as f64);
    m.insert("synth.verdict_hits", stats.verdict_cache_hits as f64);
    m.insert("synth.env_hits", stats.env_cache_hits as f64);
    m.insert("driver.queue_wait_s", queue_wait_s);
    m.insert("driver.cache_hits", cache_hits as f64);
    m.insert("driver.cache_misses", cache_misses as f64);
    // No persistence and no HTTP on this workload.
    m.insert("driver.appended", 0.0);
    m.insert("driver.disk_bytes", 0.0);
    m.insert("served.rejected", 0.0);
    // Without HTTP, the caller-side overhead is the batch wall seen by
    // the caller minus the driver's own `BatchReport.wall`.
    m.insert("served.overhead_ms", median(&overhead_ms));
    m.insert("driver.key_us", median(&key_us));
    m.insert("hvx.schedule_us", median(&schedule_us));
    m.insert("hvx.rake_cycles", rake_cycles as f64);
    m.insert("hvx.baseline_cycles", baseline_cycles as f64);
    m.insert("trace.dropped", dropped as f64);
    if traced {
        if dropped > 0 {
            out.violation(format!("trace ring dropped {dropped} spans"));
        }
        let layers = spans::analyze(&records);
        for v in spans::wall_violations(&layers, compile_s) {
            out.violation(v);
        }
        out.layers = Some(layers);
    }
    out.info.push(("kernels", Json::Arr(digests.into_iter().map(Json::from).collect())));
    out.info.push(("setup_s", Json::Arr(setup_s.into_iter().map(Json::from).collect())));
    out.info.push(("batch_wall_s", Json::Arr(walls.into_iter().map(Json::from).collect())));
    out
}

/// Run both programs over the tile sweep of `run_workload_with` — odd
/// rows from an unaligned origin — against the Halide IR interpreter.
fn sweep(
    e: &Expr,
    baseline: &Program,
    rake: Option<&Program>,
    env: &Env,
    cfg: RunConfig,
) -> Result<(), String> {
    let out_ty = e.ty();
    for ty in 0..cfg.rows {
        for tx in 0..cfg.tiles_x {
            let skew = if ty % 2 == 1 { 3 } else { 0 };
            let (x0, y0) = ((cfg.lanes * (tx + 1) + skew) as i64, (8 + ty) as i64);
            let want = halide_ir::eval(e, &EvalCtx { env, x0, y0, lanes: cfg.lanes })
                .map_err(|err| format!("interpreter failed at ({x0},{y0}): {err}"))?;
            let ctx = ExecCtx { env, x0, y0, lanes: cfg.lanes, vec_bytes: cfg.vec_bytes };
            for (who, p) in [("baseline", Some(baseline)), ("rake", rake)] {
                let Some(p) = p else { continue };
                let got = p
                    .run_ctx(&ctx)
                    .map_err(|err| format!("{who} program failed at ({x0},{y0}): {err}"))?;
                if got.typed_lanes(out_ty) != want {
                    return Err(format!(
                        "{who} program disagrees with the interpreter at ({x0},{y0})"
                    ));
                }
            }
        }
    }
    Ok(())
}

fn outcome_name(o: &JobOutcome) -> &'static str {
    match o {
        JobOutcome::Compiled(_) => "compiled",
        JobOutcome::Failed(_) => "failed",
        JobOutcome::TimedOut => "timed_out",
        JobOutcome::Panicked(_) => "panicked",
        JobOutcome::Cancelled => "cancelled",
        JobOutcome::Quarantined(_) => "quarantined",
    }
}
