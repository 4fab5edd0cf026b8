//! The name, unit and direction of every metric the benchmark prints.
//! End-to-end metrics are printed by every workload under `--trace 0`,
//! per-layer metrics under `--trace 1`. `BENCHMARK.json` lists the same
//! names and units (a unit test keeps the two in step); README.md says
//! why each is measured and which end-to-end metric each layer should
//! move.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, kind: Kind::EndToEnd }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, kind: Kind::Layer }
}

pub const METRICS: &[MetricDef] = &[
    // ---- end to end ----
    e2e("setup_s", "s", false),
    e2e("tail_ms", "ms", false),
    e2e("rate_per_s", "1/s", true),
    e2e("speedup_geomean", "ratio", true),
    e2e("compiled_share", "ratio", true),
    e2e("decided_share", "ratio", true),
    e2e("peak_rss_mb", "MB", false),
    // ---- per layer ----
    layer("synth.lifting_queries", "count", false),
    layer("synth.sketching_queries", "count", false),
    layer("synth.verdict_hits", "count", true),
    layer("synth.env_hits", "count", true),
    layer("lift.wall_s", "s", false),
    layer("lift.busy_s", "s", false),
    layer("lower.wall_s", "s", false),
    layer("lower.busy_s", "s", false),
    layer("verify.checks", "count", false),
    layer("verify.linear", "count", true),
    layer("verify.proof_cache_hits", "count", true),
    layer("verify.solves", "count", false),
    layer("verify.unproved_share", "ratio", false),
    layer("smt.calls", "count", false),
    layer("smt.unsat", "count", true),
    layer("smt.sat", "count", true),
    layer("smt.unknown", "count", false),
    layer("smt.useful_ratio", "ratio", true),
    layer("smt.busy_s", "s", false),
    layer("smt.wall_s", "s", false),
    layer("smt.unknown_busy_s", "s", false),
    layer("driver.queue_wait_s", "s", false),
    layer("driver.cache_hits", "count", true),
    layer("driver.cache_misses", "count", false),
    layer("driver.appended", "count", false),
    layer("driver.disk_bytes", "bytes", false),
    layer("driver.key_us", "us", false),
    layer("served.overhead_ms", "ms", false),
    layer("served.rejected", "count", false),
    layer("hvx.rake_cycles", "cycles", false),
    layer("hvx.baseline_cycles", "cycles", false),
    layer("hvx.schedule_us", "us", false),
    layer("trace.overhead_ratio", "ratio", false),
    layer("trace.dropped", "count", false),
    layer("trace.spans", "count", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use driver::json::Json;

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = driver::json::parse(&text).expect("valid JSON");
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s =
                        |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_owned();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let defined: Vec<(String, String, String)> = METRICS
                .iter()
                .filter(|d| d.kind == kind)
                .map(|d| {
                    let better = if d.higher_is_better { "higher" } else { "lower" };
                    (d.name.to_owned(), d.unit.to_owned(), better.to_owned())
                })
                .collect();
            assert_eq!(listed, defined, "{key}");
        }
    }
}
