//! Per-layer numbers from trace spans.
//!
//! Spans carry no thread id, so "self time" (duration minus children)
//! double-counts whatever parallel-screening helpers record on other
//! threads. Each layer is therefore reported two ways, computed straight
//! from the records:
//!
//! * `busy` — the sum of the layer's span durations (thread-seconds);
//! * `wall` — the length of the union of its span intervals (elapsed
//!   seconds during which at least one such span was open).
//!
//! `busy − wall` is the time spans of one layer overlapped, e.g. helper
//! threads queued on the single-mutex shared SMT solver.

use std::collections::{BTreeMap, HashMap};

use driver::json::Json;

/// One completed span, from the in-process ring or a Chrome trace file.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
    pub span_id: u64,
    pub parent_id: u64,
    /// String-valued annotations (`path`, `outcome`, `proof_key`, ...).
    pub args: BTreeMap<String, String>,
}

impl Span {
    pub fn from_record(r: &trace::SpanRecord) -> Span {
        let args = r
            .args
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    trace::ArgValue::U64(n) => n.to_string(),
                    trace::ArgValue::I64(n) => n.to_string(),
                    trace::ArgValue::Str(s) => s.clone(),
                    trace::ArgValue::Bool(b) => b.to_string(),
                };
                ((*k).to_owned(), v)
            })
            .collect();
        Span {
            name: r.name.to_owned(),
            start_us: r.start_us,
            dur_us: r.dur_us,
            span_id: r.span_id,
            parent_id: r.parent_id,
            args,
        }
    }

    fn arg(&self, key: &str) -> Option<&str> {
        self.args.get(key).map(String::as_str)
    }
}

/// Parse the events of one `rake-trace-v1` Chrome trace file (what
/// `ServerConfig::trace_out` writes per request).
pub fn from_chrome_json(text: &str) -> Result<Vec<Span>, String> {
    let doc = driver::json::parse(text).map_err(|e| format!("bad trace JSON: {e:?}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("rake-trace-v1") {
        return Err("trace file lacks the rake-trace-v1 schema tag".to_owned());
    }
    let events = doc.get("traceEvents").and_then(Json::as_arr).ok_or("no traceEvents")?;
    let num = |j: Option<&Json>| match j {
        Some(Json::Num(n)) => Some(*n as u64),
        _ => None,
    };
    let mut out = Vec::with_capacity(events.len());
    for ev in events {
        let name = ev.get("name").and_then(Json::as_str).ok_or("event without name")?;
        let start_us = num(ev.get("ts")).ok_or("event without ts")?;
        let dur_us = num(ev.get("dur")).ok_or("event without dur")?;
        let Some(Json::Obj(fields)) = ev.get("args") else {
            return Err("event without args".to_owned());
        };
        let mut args = BTreeMap::new();
        for (k, v) in fields {
            let v = match v {
                Json::Str(s) => s.clone(),
                Json::Num(n) => n.to_string(),
                Json::Bool(b) => b.to_string(),
                _ => continue,
            };
            args.insert(k.clone(), v);
        }
        let id = |k: &str| args.get(k).and_then(|s| trace::parse_id(s)).unwrap_or(0);
        let (span_id, parent_id) = (id("span"), id("parent"));
        out.push(Span { name: name.to_owned(), start_us, dur_us, span_id, parent_id, args });
    }
    Ok(out)
}

/// Wall and busy time of one layer, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub wall_s: f64,
    pub busy_s: f64,
}

/// Busy (sum) and wall (interval union) time of `spans`.
pub fn layer_time<'a>(spans: impl IntoIterator<Item = &'a Span>) -> LayerTime {
    let mut iv: Vec<(u64, u64)> = Vec::new();
    let mut busy_us = 0u64;
    for s in spans {
        busy_us += s.dur_us;
        iv.push((s.start_us, s.start_us + s.dur_us));
    }
    iv.sort_unstable();
    let mut wall_us = 0u64;
    let mut open: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match &mut open {
            Some((_, end)) if a <= *end => *end = (*end).max(b),
            _ => {
                if let Some((s, e)) = open {
                    wall_us += e - s;
                }
                open = Some((a, b));
            }
        }
    }
    if let Some((s, e)) = open {
        wall_us += e - s;
    }
    LayerTime { wall_s: wall_us as f64 / 1e6, busy_s: busy_us as f64 / 1e6 }
}

/// Spans named `name` that are not nested inside another span of the same
/// name (so a recursive layer's busy time is not counted twice).
pub fn outermost<'a>(spans: &'a [Span], name: &str) -> Vec<&'a Span> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.span_id, s)).collect();
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| {
            let mut p = s.parent_id;
            // Bounded walk: a malformed parent cycle cannot hang the bench.
            for _ in 0..spans.len() {
                match by_id.get(&p) {
                    Some(parent) if parent.name == name => return false,
                    Some(parent) => p = parent.parent_id,
                    None => return true,
                }
            }
            true
        })
        .collect()
}

/// The per-layer summary of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerReport {
    pub spans: usize,
    pub lift: LayerTime,
    pub lower: LayerTime,
    pub smt: LayerTime,
    pub smt_unknown_busy_s: f64,
    pub smt_calls: u64,
    pub smt_unsat: u64,
    pub smt_sat: u64,
    pub smt_unknown: u64,
    /// `verify.smt_equiv` checks, by path.
    pub checks: u64,
    pub linear: u64,
    pub proof_cache_hits: u64,
    pub solves: u64,
    /// Checks whose verdict was solver `unknown` (a proof-cache hit takes
    /// the verdict of the solve with the same `proof_key`).
    pub unproved: u64,
}

impl LayerReport {
    /// Share of checks decided (by the linear procedure, or a solver
    /// `unsat`/`sat`), i.e. `1 − unproved_share`. A pass that synthesizes
    /// and records no check has lost its spans; the caller fails it.
    pub fn decided_share(&self) -> f64 {
        1.0 - self.unproved as f64 / self.checks.max(1) as f64
    }

    pub fn unproved_share(&self) -> f64 {
        1.0 - self.decided_share()
    }
}

/// Summarize a pass's spans. Proof-cache hits resolve their verdict
/// through `proof_key`, so the records must cover the whole pass (the
/// proof cache is process-global).
pub fn analyze(spans: &[Span]) -> LayerReport {
    let mut r = LayerReport { spans: spans.len(), ..LayerReport::default() };
    r.lift = layer_time(outermost(spans, "lift"));
    r.lower = layer_time(outermost(spans, "lower"));
    let smt: Vec<&Span> = spans.iter().filter(|s| s.name == "smt.prove_unsat").collect();
    r.smt = layer_time(smt.iter().copied());
    for s in &smt {
        r.smt_calls += 1;
        match s.arg("outcome") {
            Some("unsat") => r.smt_unsat += 1,
            Some("sat") => r.smt_sat += 1,
            _ => {
                r.smt_unknown += 1;
                r.smt_unknown_busy_s += s.dur_us as f64 / 1e6;
            }
        }
    }
    let checks: Vec<&Span> = spans.iter().filter(|s| s.name == "verify.smt_equiv").collect();
    let mut verdict: HashMap<&str, &str> = HashMap::new();
    for s in &checks {
        if s.arg("path") == Some("solve") {
            if let (Some(k), Some(o)) = (s.arg("proof_key"), s.arg("outcome")) {
                verdict.insert(k, o);
            }
        }
    }
    for s in &checks {
        r.checks += 1;
        match s.arg("path") {
            Some("linear") => r.linear += 1,
            Some("solve") => {
                r.solves += 1;
                if s.arg("outcome") == Some("unknown") {
                    r.unproved += 1;
                }
            }
            Some("proof-cache") => {
                r.proof_cache_hits += 1;
                match s.arg("proof_key").and_then(|k| verdict.get(k)) {
                    Some(&"unknown") => r.unproved += 1,
                    Some(_) => {}
                    // Unknown origin: count it as unproved rather than credit
                    // a proof nobody saw.
                    None => r.unproved += 1,
                }
            }
            _ => r.unproved += 1,
        }
    }
    r
}

/// Layers whose wall time exceeds the pass wall time (a broken clock or
/// bad nesting); empty when the trace is consistent.
pub fn wall_violations(r: &LayerReport, pass_wall_s: f64) -> Vec<String> {
    // One millisecond of slack for clock granularity at the edges.
    let limit = pass_wall_s + 1e-3;
    [("lift", r.lift.wall_s), ("lower", r.lower.wall_s), ("smt", r.smt.wall_s)]
        .into_iter()
        .filter(|(_, w)| *w > limit)
        .map(|(n, w)| format!("{n}.wall_s {w:.3} exceeds the pass wall time {pass_wall_s:.3}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, dur: u64, id: u64, parent: u64, args: &[(&str, &str)]) -> Span {
        Span {
            name: name.to_owned(),
            start_us: start,
            dur_us: dur,
            span_id: id,
            parent_id: parent,
            args: args.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
        }
    }

    #[test]
    fn wall_is_the_interval_union_and_busy_the_sum() {
        let s = [
            span("smt.prove_unsat", 0, 10, 1, 0, &[]),
            span("smt.prove_unsat", 5, 10, 2, 0, &[]),
            span("smt.prove_unsat", 30, 5, 3, 0, &[]),
        ];
        let t = layer_time(s.iter());
        assert_eq!((t.wall_s * 1e6).round(), 20.0);
        assert_eq!((t.busy_s * 1e6).round(), 25.0);
    }

    #[test]
    fn proof_cache_hits_take_the_verdict_of_their_solve() {
        let s = [
            span("verify.smt_equiv", 0, 1, 1, 0, &[("path", "linear")]),
            span(
                "verify.smt_equiv",
                1,
                1,
                2,
                0,
                &[("path", "solve"), ("proof_key", "k1"), ("outcome", "unknown")],
            ),
            span(
                "verify.smt_equiv",
                2,
                1,
                3,
                0,
                &[("path", "solve"), ("proof_key", "k2"), ("outcome", "unsat")],
            ),
            span("verify.smt_equiv", 3, 1, 4, 0, &[("path", "proof-cache"), ("proof_key", "k1")]),
            span("verify.smt_equiv", 4, 1, 5, 0, &[("path", "proof-cache"), ("proof_key", "k2")]),
        ];
        let r = analyze(&s);
        assert_eq!((r.checks, r.linear, r.solves, r.proof_cache_hits), (5, 1, 2, 2));
        assert_eq!(r.unproved, 2);
        assert!((r.decided_share() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_of_one_layer_count_once() {
        let s = [span("lift", 0, 10, 1, 0, &[]), span("lift", 2, 3, 2, 1, &[])];
        assert_eq!(outermost(&s, "lift").len(), 1);
    }
}
