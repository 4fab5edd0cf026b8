//! Small shared helpers: order statistics, process and machine facts.

use std::path::Path;
use std::time::Instant;

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (the numpy /
/// `statistics.quantiles(method="inclusive")` definition). Empty input
/// yields 0.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Mean of the slowest `1 - q` share of `xs` (at least one value): the
/// tail's expected value, which unlike a single percentile does not hop
/// when latencies cluster.
pub fn tail_mean(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let n = ((v.len() as f64 * (1.0 - q)).round() as usize).clamp(1, v.len());
    v[..n].iter().sum::<f64>() / n as f64
}

/// Geometric mean of positive values (1 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Per-call time in microseconds of `f`, as the median of `samples`
/// batches of `batch` calls each (batching lifts µs-scale calls above
/// the clock's resolution).
pub fn time_us(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch.max(1) {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / batch.max(1) as f64
        })
        .collect();
    median(&per_call)
}

/// Peak resident set (`VmHWM`) of this process in MB, 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine-wide `cpu` line of `/proc/stat` (jiffies per state).
pub fn cpu_jiffies() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("cpu "))
        .map(|l| l.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default()
}

/// Share of machine CPU time the hypervisor stole between two
/// [`cpu_jiffies`] readings (0 when unknown). Time metrics of a run with
/// a large share are suspect.
pub fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a.saturating_sub(*b)).collect();
    let total: u64 = delta.iter().sum();
    match delta.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => 0.0,
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|v| v.split_once(':'))
        .map_or_else(|| "unknown".to_owned(), |(_, m)| m.trim().to_owned())
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `unknown` outside a git work tree (e.g. an exported checkout).
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Total size in bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_mean(&xs, 0.9), 19.5);
        assert_eq!(tail_mean(&[7.0], 0.9), 7.0);
    }
}
