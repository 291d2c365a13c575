//! `benchmark compare <a.json> <b.json>`: applies the bounds in
//! `BENCHMARK.json` to two result files, one row per metric and workload.
//!
//! `ok` — b's median is no worse than a's by more than the bound;
//! `regressed` — it is; `unresolved` — the runs of one side disagree by
//! more than the bound, so the sides cannot be told apart, unless every
//! run of b beats every run of a. Throughput and latency rows follow,
//! marked `ungated`, and `noisy run` when the box disturbed one.

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use std::path::Path;

/// `failed / attempted` may rise by this much, absolute, before it
/// counts as a regression.
const FAILED_FRAC_BOUND: f64 = 0.001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    Unresolved,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

/// One side's runs of one workload.
struct Side {
    runs: Vec<Json>,
}

/// The measured (untraced) runs of a result file. Refuses `--quick`
/// results: their numbers compare with nothing.
fn load_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs: Vec<Json> = file
        .get("runs")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter(|run| run.get("trace").and_then(Json::as_bool) == Some(false))
        .cloned()
        .collect();
    if runs
        .iter()
        .any(|run| run.get("quick").and_then(Json::as_bool) != Some(false))
    {
        return Err(format!(
            "{}: --quick runs are not comparable",
            path.display()
        ));
    }
    Ok(runs)
}

impl Side {
    fn of(runs: &[Json], workload: &str) -> Side {
        let of_workload =
            |run: &&Json| run.get("workload").and_then(Json::as_str) == Some(workload);
        Side {
            runs: runs.iter().filter(of_workload).cloned().collect(),
        }
    }

    /// Some run was stamped noisy: steal or loadgen lag over the limit,
    /// so the box moved its wall-clock numbers.
    fn noisy(&self) -> bool {
        self.runs
            .iter()
            .any(|run| run.get("noisy").and_then(Json::as_bool) != Some(false))
    }

    /// Values of `metric` from the runs' `section` (`metrics`, the gated
    /// ones, or `ungated`).
    fn values(&self, section: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|run| run.get(section)?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    fn failed_fracs(&self) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|run| {
                let failed = run.get("failed")?.as_f64()?;
                Some(failed / run.get("attempted")?.as_f64()?.max(1.0))
            })
            .collect()
    }
}

/// Run-to-run spread of one side: interquartile range over the median
/// (the whole range when there are too few runs for quartiles).
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Judges one metric. `lower_is_better` orients "worse"; `bound` is a
/// share of a's median.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Status {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (ma, mb) = (median(a), median(b));
    let worse_by = sign * (mb - ma) / ma.abs();
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    if spread(a).max(spread(b)) > bound && !b_always_better {
        Status::Unresolved
    } else if worse_by > bound {
        Status::Regressed
    } else {
        Status::Ok
    }
}

fn print_row(workload: &str, metric: &str, a: &[f64], b: &[f64], bound: &str, status: &str) {
    println!(
        "{workload:<8} {metric:<18} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {bound:>6}  {status}",
        median(a),
        median(b),
        (median(b) - median(a)) / median(a) * 100.0,
        spread(a).max(spread(b)) * 100.0,
    );
}

/// Prints the table; `Ok(true)` when some row regressed.
pub fn compare(a_path: &Path, b_path: &Path, manifest_path: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let manifest = json::parse(&text).map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let (a_runs, b_runs) = (load_runs(a_path)?, load_runs(b_path)?);
    let mut regressed = false;
    println!(
        "{:<8} {:<18} {:>12} {:>12} {:>8} {:>8} {:>6}  status",
        "workload", "metric", "a median", "b median", "change", "spread", "bound"
    );
    for workload in manifest
        .get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
    {
        let name = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a workload has no name")?;
        let (a, b) = (Side::of(&a_runs, name), Side::of(&b_runs, name));
        if a.runs.is_empty() || b.runs.is_empty() {
            println!("{name:<8} (no measured runs on one side)");
            continue;
        }
        for metric in manifest
            .get("end_to_end")
            .map(Json::as_array)
            .unwrap_or_default()
        {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or_default();
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("a metric has no bound")?;
            let (va, vb) = (
                a.values("metrics", field("name")),
                b.values("metrics", field("name")),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{name}: {} is missing from a result file",
                    field("name")
                ));
            }
            let status = judge(&va, &vb, field("better") == "lower", bound);
            regressed |= status == Status::Regressed;
            print_row(
                name,
                field("name"),
                &va,
                &vb,
                &format!("{:.0}%", bound * 100.0),
                status.as_str(),
            );
        }
        // Throughput and latency: shown so a reader sees them move, never
        // gated (on a shared box their spread exceeds any usable bound).
        // The noisy stamp is about exactly these numbers; the gated ones
        // (CPU time, counts, memory) were chosen to be immune to it.
        let ungated = if a.noisy() || b.noisy() {
            "ungated, noisy run"
        } else {
            "ungated"
        };
        for (metric, _) in crate::metrics::UNGATED {
            let (va, vb) = (a.values("ungated", metric), b.values("ungated", metric));
            if !va.is_empty() && !vb.is_empty() {
                print_row(name, metric, &va, &vb, "-", ungated);
            }
        }
        // Failures are gated on an absolute rise: their baseline is 0.
        let (fa, fb) = (median(&a.failed_fracs()), median(&b.failed_fracs()));
        let status = if fb > fa + FAILED_FRAC_BOUND {
            Status::Regressed
        } else {
            Status::Ok
        };
        regressed |= status == Status::Regressed;
        println!(
            "{name:<8} {:<18} {fa:>12.6} {fb:>12.6} {:>8} {:>8} {:>6}  {}",
            "failed_frac",
            "",
            "",
            "+.001",
            status.as_str()
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_regressed() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(judge(&a, &[104.0, 105.0, 103.0], true, 0.10), Status::Ok);
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0], true, 0.10),
            Status::Regressed
        );
        // Higher is better: a drop is the regression, a rise is not.
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0], false, 0.10),
            Status::Regressed
        );
        assert_eq!(judge(&a, &[130.0, 131.0, 129.0], false, 0.10), Status::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_row_unresolved() {
        let a = [100.0, 140.0, 70.0];
        assert_eq!(
            judge(&a, &[110.0, 90.0, 150.0], true, 0.10),
            Status::Unresolved
        );
        // ... unless every run of b beats every run of a.
        assert_eq!(judge(&a, &[60.0, 50.0, 65.0], true, 0.10), Status::Ok);
    }
}
