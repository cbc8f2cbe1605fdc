//! `perf_ledger compare PARENT.json CHANGE.json`: one row per workload ×
//! end-to-end metric, each side's median and quartiles, and a verdict by
//! the bounds in `BENCHMARK.json`.
//!
//! - better: the change wins at least 9 in 10 of the paired runs and the
//!   medians differ by more than the parent's inter-quartile range;
//! - worse: the change's median is worse than the parent's by more than the
//!   bound;
//! - unresolved: either side's spread (IQR over median) exceeds the bound;
//! - same: otherwise.
//!
//! Exits non-zero on any `worse` row or a higher failure rate.

use crate::json::Json;
use crate::stats::{quartiles, relative_iqr};
use crate::WORKLOADS;
use std::path::Path;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Share of paired runs a change must win to count as better.
const WIN_SHARE: f64 = 0.9;

/// Judges one metric on one workload; runs are paired by position.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, than: f64| if lower_is_better { x < than } else { x > than };
    let (p1, pm, p3) = quartiles(parent);
    let (_, cm, _) = quartiles(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    if better(cm, pm) && wins as f64 >= WIN_SHARE * pairs as f64 && (cm - pm).abs() > p3 - p1 {
        return Verdict::Better;
    }
    let worse_by = if lower_is_better { cm - pm } else { pm - cm };
    if worse_by > bound * pm.abs() {
        return Verdict::Worse;
    }
    if relative_iqr(parent).max(relative_iqr(change)) > bound {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

/// Untraced, valid results of a ledger file, by workload.
fn load(path: &Path) -> Result<Vec<(String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let ledger = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = ledger
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("ledger without runs")?;
    Ok(runs
        .iter()
        .filter(|r| r.get("trace").and_then(Json::as_bool) != Some(true))
        .filter(|r| r.get("valid").and_then(Json::as_bool) != Some(false))
        .filter_map(|r| {
            let w = r.get("workload").and_then(Json::as_str)?;
            Some((w.to_owned(), r.get("result")?.clone()))
        })
        .collect())
}

pub fn run(parent: &Path, change: &Path) -> Result<bool, String> {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec =
        Json::parse(&std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?)?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    let (p, c) = (load(parent)?, load(change)?);
    let mut ok = true;
    println!(
        "{:<13} {:<18} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "Δ"
    );
    for &w in WORKLOADS {
        let side = |runs: &[(String, Json)]| -> Vec<Json> {
            runs.iter()
                .filter(|(n, _)| n == w)
                .map(|(_, r)| r.clone())
                .collect()
        };
        let (pr, cr) = (side(&p), side(&c));
        if pr.is_empty() || cr.is_empty() {
            continue;
        }
        let fail_rate = |rs: &[Json]| {
            let sum = |k: &str| rs.iter().map(|r| r.num(k)).sum::<f64>();
            sum("failed") / sum("attempted").max(1.0)
        };
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.num("bound");
            let values = |rs: &[Json]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.path(&["metrics", name, "value"]).and_then(Json::as_f64))
                    .collect()
            };
            let (pv, cv) = (values(&pr), values(&cr));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let v = verdict(&pv, &cv, lower, bound);
            ok &= v != Verdict::Worse;
            let (p1, pm, p3) = quartiles(&pv);
            let (c1, cm, c3) = quartiles(&cv);
            println!(
                "{w:<13} {name:<18} {:>28} {:>28} {:>+7.1}%  {v:?}",
                format!("{pm:.4} [{p1:.4}, {p3:.4}]"),
                format!("{cm:.4} [{c1:.4}, {c3:.4}]"),
                100.0 * (cm / pm - 1.0)
            );
        }
        let (pf, cf) = (fail_rate(&pr), fail_rate(&cr));
        println!("{w:<13} {:<18} {pf:>28.6} {cf:>28.6}", "fail_rate");
        if cf > pf {
            println!("{w:<13} REGRESSION: failure rate rose from {pf} to {cf}");
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [
        100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0,
    ];

    #[test]
    fn clear_win_is_better() {
        let change: Vec<f64> = PARENT.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&PARENT, &change, true, 0.1), Verdict::Better);
        // The same numbers are a loss for a higher-is-better metric.
        assert_eq!(verdict(&PARENT, &change, false, 0.1), Verdict::Worse);
    }

    #[test]
    fn drift_inside_the_bound_is_the_same() {
        let change: Vec<f64> = PARENT.iter().map(|x| x * 1.03).collect();
        assert_eq!(verdict(&PARENT, &change, true, 0.1), Verdict::Same);
    }

    #[test]
    fn a_win_on_too_few_pairs_is_not_better() {
        let mut change: Vec<f64> = PARENT.iter().map(|x| x * 0.95).collect();
        change[0] = 100.5;
        change[1] = 102.5;
        assert_eq!(verdict(&PARENT, &change, true, 0.1), Verdict::Same);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&PARENT, &noisy, true, 0.1), Verdict::Unresolved);
    }
}
