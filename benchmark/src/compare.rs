//! `bench compare PARENT CHANGE`: per workload and end-to-end metric, the
//! two commits' medians and quartiles and a verdict under the bounds in
//! `BENCHMARK.json`.
//!
//! Both files hold result lines written by `bench run --out FILE`, made by
//! alternating the two commits run by run, so the i-th runs of a workload
//! form a pair. A gain is claimed only when there are at least ten pairs,
//! the change wins at least nine in ten of them (ties count for neither),
//! and the medians differ by more than the parent's interquartile range.
//! Runs whose output checks failed, or with any failed operation, are
//! refused: a speed-up that costs correctness is no gain, so the error
//! rate's bound is zero.

use crate::json::Json;
use crate::stats::{median, quartiles, relative_iqr};
use std::collections::BTreeMap;

/// One end-to-end metric from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics and their bounds.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Metric values per workload, in file order, from result lines.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads the untraced result lines of one file. Quick-smoke results are
/// refused, since they measure a different, smaller run, and so are runs
/// that failed a check or an operation.
pub fn read_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("quick").and_then(Json::as_bool) == Some(true) {
            return Err(format!(
                "line {}: a --quick result cannot be compared",
                i + 1
            ));
        }
        if v.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let count = |k: &str| v.get(k).and_then(Json::as_i64);
        if v.get("correct").and_then(Json::as_bool) != Some(true)
            || count("failed") != Some(0)
            || count("attempted").is_none_or(|n| n < 1)
        {
            return Err(format!(
                "line {}: a run with failed checks or operations cannot be compared",
                i + 1
            ));
        }
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let metrics = v
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?;
        let slot = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                slot.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(runs)
}

/// The outcome for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Judges `change` against `parent` runs of one metric.
pub fn verdict(parent: &[f64], change: &[f64], b: &Bound) -> Verdict {
    let (Some(pm), Some(cm)) = (median(parent), median(change)) else {
        return Verdict::Unresolved;
    };
    // Positive when the change is better.
    let gain = |p: f64, c: f64| if b.lower_is_better { p - c } else { c - p };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| gain(**p, **c) > 0.0)
        .count();
    let parent_iqr = quartiles(parent).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    if pairs >= 10 && wins * 10 >= pairs * 9 && gain(pm, cm) > parent_iqr {
        return Verdict::Improved;
    }
    if -gain(pm, cm) > b.bound * pm.abs() {
        return Verdict::Regressed;
    }
    let spread = relative_iqr(parent).unwrap_or(f64::INFINITY);
    let all_better = parent
        .iter()
        .all(|p| change.iter().all(|c| gain(*p, *c) > 0.0));
    if spread > b.bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn summary(v: &[f64]) -> String {
    match (median(v), quartiles(v)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        (Some(m), None) => format!("{m:.4}"),
        _ => "-".into(),
    }
}

/// Prints the comparison table; returns whether any metric regressed.
pub fn compare(parent: &Runs, change: &Runs, bounds: &[Bound]) -> bool {
    println!(
        "{:<14} {:<12} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"
    );
    let mut regressed = false;
    for (workload, p_metrics) in parent {
        let Some(c_metrics) = change.get(workload) else {
            println!("{workload:<14} (no runs of the change)");
            continue;
        };
        for b in bounds {
            let (Some(p), Some(c)) = (p_metrics.get(&b.name), c_metrics.get(&b.name)) else {
                continue;
            };
            let v = verdict(p, c, b);
            regressed |= v == Verdict::Regressed;
            let pairs = p.len().min(c.len());
            let gain = |x: f64, y: f64| if b.lower_is_better { x > y } else { y > x };
            let wins = p.iter().zip(c).filter(|(x, y)| gain(**x, **y)).count();
            let delta = match (median(p), median(c)) {
                (Some(pm), Some(cm)) if pm != 0.0 => format!("{:+.1}%", (cm - pm) / pm * 100.0),
                _ => "-".into(),
            };
            let note = if pairs < 10 {
                " (fewer than 10 pairs: no gain can be claimed)"
            } else {
                ""
            };
            println!(
                "{:<14} {:<12} {:>34} {:>34} {:>8} {:>6}  {v:?}{note}",
                workload,
                b.name,
                summary(p),
                summary(c),
                delta,
                format!("{wins}/{pairs}")
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound: 0.1,
        }
    }

    #[test]
    fn a_clear_win_in_ten_pairs_is_improved() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 10.0).collect();
        assert_eq!(verdict(&parent, &change, &bound(true)), Verdict::Improved);
        // The same numbers for a higher-is-better metric regress.
        assert_eq!(verdict(&parent, &change, &bound(false)), Verdict::Unchanged);
        let worse: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        assert_eq!(verdict(&parent, &worse, &bound(false)), Verdict::Regressed);
    }

    #[test]
    fn nine_pairs_never_claim_a_gain() {
        let parent = vec![100.0; 9];
        let change = vec![50.0; 9];
        assert_eq!(verdict(&parent, &change, &bound(true)), Verdict::Unchanged);
    }

    #[test]
    fn eight_wins_in_ten_is_not_enough() {
        let parent = vec![100.0; 10];
        let mut change = vec![90.0; 10];
        change[0] = 101.0;
        change[1] = 101.0;
        assert_eq!(verdict(&parent, &change, &bound(true)), Verdict::Unchanged);
    }

    #[test]
    fn a_noisy_parent_is_unresolved() {
        let parent = vec![
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 100.0,
        ];
        let change = vec![105.0; 10];
        assert_eq!(verdict(&parent, &change, &bound(true)), Verdict::Unresolved);
    }

    #[test]
    fn quick_and_failed_results_are_refused_and_traced_ones_skipped() {
        let line = |tags: &str, result: &str| {
            format!("{{\"workload\":\"w\",{tags},{result},\"metrics\":{{\"m\":{{\"value\":2,\"unit\":\"s\"}}}}}}\n")
        };
        let good = "\"correct\":true,\"attempted\":5,\"failed\":0";
        let plain = "\"quick\":false,\"trace\":false";
        assert!(read_runs(&line("\"quick\":true,\"trace\":false", good)).is_err());
        for bad in [
            "\"correct\":false,\"attempted\":5,\"failed\":0",
            "\"correct\":true,\"attempted\":5,\"failed\":1",
            "\"correct\":true,\"attempted\":0,\"failed\":0",
        ] {
            assert!(read_runs(&line(plain, bad)).is_err(), "{bad}");
        }
        let traced = line("\"quick\":false,\"trace\":true", good).replace('2', "9");
        let runs = read_runs(&(line(plain, good) + &traced)).unwrap();
        assert_eq!(runs["w"]["m"], vec![2.0]);
    }
}
