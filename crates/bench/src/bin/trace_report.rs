//! `trace_report` — analyze `rake-trace-v1` Chrome trace-event JSON.
//!
//! Consumes the traces written by `rakec --trace-out`, `perf --trace-out`,
//! `conform --trace-out`, or a `rake-served --trace-out` directory, and
//! renders aggregate views a timeline viewer cannot:
//!
//!   * per-stage breakdown — self-time (duration minus direct children)
//!     summed by span category (lift / smt / swizzle / driver / served ...),
//!     next to the wall time the category's spans cover (the union of
//!     their intervals, so nested and concurrent spans count once)
//!   * per-operation breakdown — the same, by span name
//!   * per-rule breakdown — time and firing count per lifting rule
//!   * verification — lifting checks by path (normal form, solver) and
//!     outcome, with their count and busy time
//!   * top-N slowest SMT queries (`smt.prove_unsat`), with their outcomes
//!
//! ```sh
//! trace_report trace.json                  # breakdown tables
//! trace_report --top 20 traces/           # every *.json in the directory
//! trace_report --folded trace.json        # flamegraph folded stacks
//! trace_report --check trace.json         # schema validation (CI smoke)
//! ```
//!
//! Options:
//!   --top N     slowest SMT queries to list (default 10)
//!   --folded    emit flamegraph folded stacks to stdout instead of tables
//!   --check     validate the `rake-trace-v1` schema and event
//!               well-formedness; exit non-zero on any malformed file

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use driver::json::{self, Json};
use trace::{ArgValue, SpanRecord};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut top = 10usize;
    let mut folded = false;
    let mut check = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => top = v,
                None => return usage("--top needs an integer"),
            },
            "--folded" => folded = true,
            "--check" => check = true,
            "--help" | "-h" => return usage(""),
            other if !other.starts_with('-') => paths.push(other.to_owned()),
            other => return usage(&format!("unknown option `{other}`")),
        }
    }
    if paths.is_empty() {
        return usage("need at least one trace file or directory");
    }

    let mut records: Vec<SpanRecord> = Vec::new();
    let mut files = 0usize;
    for p in &paths {
        if let Err(e) = load_path(Path::new(p), &mut records, &mut files) {
            eprintln!("trace_report: {e}");
            return ExitCode::FAILURE;
        }
    }
    if files == 0 {
        eprintln!("trace_report: no trace files found");
        return ExitCode::FAILURE;
    }

    if check {
        emit(&format!("ok: {} events across {} file(s)\n", records.len(), files));
        return ExitCode::SUCCESS;
    }
    if folded {
        emit(&trace::folded_stacks(&records));
        return ExitCode::SUCCESS;
    }
    emit(&report(&records, files, top));
    ExitCode::SUCCESS
}

/// Write to stdout, swallowing a broken pipe (`trace_report ... | head`
/// must not panic).
fn emit(s: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(s.as_bytes());
}

/// Load a trace file, or every `*.json` in a directory, appending parsed
/// span records. Any malformed file or event is an error (this is what
/// `--check` leans on).
fn load_path(path: &Path, out: &mut Vec<SpanRecord>, files: &mut usize) -> Result<(), String> {
    if path.is_dir() {
        let entries = std::fs::read_dir(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut names: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
            .collect();
        names.sort();
        for p in names {
            load_path(&p, out, files)?;
        }
        return Ok(());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text)
        .map_err(|e| format!("{}: invalid JSON: {e:?}", path.display()))?;
    if doc.get("schema").and_then(Json::as_str) != Some("rake-trace-v1") {
        return Err(format!(
            "{}: missing or unknown schema tag (want rake-trace-v1)",
            path.display()
        ));
    }
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        return Err(format!("{}: missing traceEvents array", path.display()));
    };
    for (i, ev) in events.iter().enumerate() {
        out.push(parse_event(ev).map_err(|e| {
            format!("{}: traceEvents[{i}]: {e}", path.display())
        })?);
    }
    *files += 1;
    Ok(())
}

/// Parse one complete event back into a `SpanRecord`. Strict: every field
/// the exporter writes must be present and well-typed.
fn parse_event(ev: &Json) -> Result<SpanRecord, String> {
    if ev.get("ph").and_then(Json::as_str) != Some("X") {
        return Err("ph is not \"X\"".to_owned());
    }
    let name = ev.get("name").and_then(Json::as_str).ok_or("missing name")?;
    let cat = ev.get("cat").and_then(Json::as_str).ok_or("missing cat")?;
    let num = |k: &str| -> Result<u64, String> {
        ev.get(k)
            .and_then(Json::as_i64)
            .filter(|n| *n >= 0)
            .map(|n| n as u64)
            .ok_or_else(|| format!("{k} missing or not a non-negative number"))
    };
    let args = ev.get("args").ok_or("missing args")?;
    let id = |k: &str| -> Result<u64, String> {
        args.get(k)
            .and_then(Json::as_str)
            .and_then(trace::parse_id)
            .ok_or_else(|| format!("args.{k} missing or not a hex id"))
    };
    let trace_id = id("trace")?;
    let span_id = id("span")?;
    if span_id == 0 {
        return Err("args.span is zero".to_owned());
    }
    let mut extra: Vec<(&'static str, ArgValue)> = Vec::new();
    if let Json::Obj(fields) = args {
        for (k, v) in fields {
            if matches!(k.as_str(), "trace" | "span" | "parent") {
                continue;
            }
            let val = match v {
                Json::Str(s) => ArgValue::Str(s.clone()),
                Json::Bool(b) => ArgValue::Bool(*b),
                Json::Num(_) => ArgValue::I64(v.as_i64().unwrap_or(0)),
                _ => continue,
            };
            extra.push((trace::intern(k), val));
        }
    }
    Ok(SpanRecord {
        seq: 0,
        trace_id,
        span_id,
        parent_id: id("parent")?,
        name: trace::intern(name),
        cat: trace::intern(cat),
        start_us: num("ts")?,
        dur_us: num("dur")?,
        pid: num("pid")? as u32,
        args: extra,
    })
}

fn str_arg<'a>(r: &'a SpanRecord, key: &str) -> Option<&'a str> {
    r.args.iter().find_map(|(k, v)| {
        (*k == key).then_some(v).and_then(|v| match v {
            ArgValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
    })
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// One row of a breakdown table.
#[derive(Default)]
struct Row {
    /// Summed self time (duration minus direct children).
    self_us: u64,
    /// `[start, end)` of every span in the row.
    intervals: Vec<(u64, u64)>,
    count: usize,
}

impl Row {
    fn add(&mut self, r: &SpanRecord, self_us: u64) {
        self.self_us += self_us;
        self.intervals.push((r.start_us, r.start_us + r.dur_us));
        self.count += 1;
    }
}

/// Length of the union of `[start, end)` intervals: the wall time a row's
/// spans cover, with nested and concurrent spans counted once.
fn union_us(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// How each lifting check (`verify.smt_equiv`) was decided: by path
/// (normal form, solver) and outcome. A normal-form row's outcome is its
/// `form`.
fn verification_table(out: &mut String, records: &[SpanRecord]) {
    use std::fmt::Write as _;
    let checks: Vec<&SpanRecord> =
        records.iter().filter(|r| r.name == "verify.smt_equiv").collect();
    if checks.is_empty() {
        return;
    }
    let mut rows: HashMap<(&str, &str), (usize, u64)> = HashMap::new();
    for r in &checks {
        let path = str_arg(r, "path").unwrap_or("-");
        let outcome = match path {
            "linear" => str_arg(r, "form").unwrap_or("linear"),
            _ => str_arg(r, "outcome").unwrap_or("-"),
        };
        let row = rows.entry((path, outcome)).or_insert((0, 0));
        row.0 += 1;
        row.1 += r.dur_us;
    }
    let mut sorted: Vec<_> = rows.into_iter().collect();
    sorted.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(&b.0)));
    let _ = writeln!(out, "verification (verify.smt_equiv by path and outcome):");
    let _ = writeln!(out, "  {:<14} {:<12} {:>7} {:>10}", "path", "outcome", "checks", "busy ms");
    for ((path, outcome), (count, busy)) in sorted {
        let _ = writeln!(out, "  {path:<14} {outcome:<12} {count:>7} {:>10.2}", ms(busy));
    }
    let _ = writeln!(out);
}

fn report(records: &[SpanRecord], files: usize, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    // Self time = duration minus direct children, so nested same-category
    // spans (verify.smt_equiv over smt.prove_unsat) are not double-counted.
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for r in records {
        if r.parent_id != 0 {
            *child_us.entry(r.parent_id).or_insert(0) += r.dur_us;
        }
    }
    let self_us =
        |r: &SpanRecord| r.dur_us.saturating_sub(child_us.get(&r.span_id).copied().unwrap_or(0));

    let traces: std::collections::HashSet<u64> = records.iter().map(|r| r.trace_id).collect();
    let _ = writeln!(
        out,
        "{} spans, {} trace(s), {} file(s)\n",
        records.len(),
        traces.len(),
        files
    );

    let table = |out: &mut String, title: &str, rows: HashMap<&str, Row>| {
        let mut sorted: Vec<_> = rows.into_iter().collect();
        sorted.sort_by_key(|(_, row)| std::cmp::Reverse(row.self_us));
        let _ = writeln!(out, "{title}:");
        let _ = writeln!(out, "  {:<24} {:>10} {:>10} {:>7}", "", "self ms", "wall ms", "spans");
        for (key, row) in sorted {
            let _ = writeln!(
                out,
                "  {key:<24} {:>10.2} {:>10.2} {:>7}",
                ms(row.self_us),
                ms(union_us(row.intervals)),
                row.count
            );
        }
        let _ = writeln!(out);
    };

    let mut by_cat: HashMap<&str, Row> = HashMap::new();
    let mut by_name: HashMap<&str, Row> = HashMap::new();
    let mut by_rule: HashMap<&str, Row> = HashMap::new();
    for r in records {
        let s = self_us(r);
        by_cat.entry(r.cat).or_default().add(r, s);
        by_name.entry(r.name).or_default().add(r, s);
        if r.name == "lift.rule" || r.name == "lift.screen" {
            if let Some(rule) = str_arg(r, "rule") {
                by_rule.entry(trace::intern(rule)).or_default().add(r, s);
            }
        }
    }
    table(&mut out, "per-stage (span category)", by_cat);
    table(&mut out, "per-operation (span name)", by_name);
    if !by_rule.is_empty() {
        table(&mut out, "per-rule (lift.rule / lift.screen firings)", by_rule);
    }
    verification_table(&mut out, records);

    let mut smt: Vec<&SpanRecord> =
        records.iter().filter(|r| r.name == "smt.prove_unsat").collect();
    smt.sort_by_key(|r| std::cmp::Reverse(r.dur_us));
    if !smt.is_empty() {
        let _ = writeln!(out, "top {} slowest SMT queries (smt.prove_unsat):", top.min(smt.len()));
        for r in smt.iter().take(top) {
            let outcome = str_arg(r, "outcome").unwrap_or("-");
            let _ = writeln!(
                out,
                "  {:>10.2}ms  trace={} outcome={outcome}",
                ms(r.dur_us),
                trace::fmt_id(r.trace_id),
            );
        }
    }
    out
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("trace_report: {err}");
    }
    eprintln!("usage: trace_report [--top N] [--folded] [--check] FILE_OR_DIR...");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_us: u64,
        dur_us: u64,
        args: &[(&'static str, &str)],
    ) -> SpanRecord {
        SpanRecord {
            seq: 0,
            trace_id: 1,
            span_id: start_us + 1,
            parent_id: 0,
            name,
            cat: "smt",
            start_us,
            dur_us,
            pid: 1,
            args: args.iter().map(|&(k, v)| (k, ArgValue::Str(v.to_owned()))).collect(),
        }
    }

    #[test]
    fn union_counts_nested_and_overlapping_spans_once() {
        assert_eq!(union_us(vec![(0, 100), (10, 20), (90, 120)]), 120);
        assert_eq!(union_us(vec![(50, 60), (0, 10)]), 20);
        assert_eq!(union_us(Vec::new()), 0);
    }

    #[test]
    fn verification_table_splits_paths_and_resolves_cache_hits() {
        let records = [
            span("verify.smt_equiv", 0, 1000, &[("path", "linear"), ("form", "poly")]),
            span("verify.smt_equiv", 2000, 3000, &[("path", "solve"), ("outcome", "unknown")]),
        ];
        let mut out = String::new();
        verification_table(&mut out, &records);
        assert!(out.contains("linear         poly               1       1.00"), "{out}");
        assert!(out.contains("solve          unknown            1       3.00"), "{out}");
    }
}
