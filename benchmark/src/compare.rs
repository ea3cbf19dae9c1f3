//! `compare a.json b.json`: hold run `b` against run `a` with the bounds
//! of `BENCHMARK.json`, one row per end-to-end metric and workload.

use oorq::obs::json::Json;

use crate::suite::RESULT_SCHEMA;

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The rounds of a run spread wider than the bound, and `b`'s rounds
    /// are not all better than `a`'s.
    Unresolved,
}

/// Judge `b` against `a`: each is a run's median and its rounds.
pub fn judge(a: (f64, &[f64]), b: (f64, &[f64]), lower_is_better: bool, bound: f64) -> Verdict {
    let spread = |(value, rounds): (f64, &[f64])| {
        let lo = rounds.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = rounds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if rounds.is_empty() || value == 0.0 {
            0.0
        } else {
            (hi - lo) / value.abs()
        }
    };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    if spread(a) > bound || spread(b) > bound {
        let all_better = b.1.iter().all(|&y| a.1.iter().all(|&x| better(y, x)));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if lower_is_better {
        b.0 - a.0
    } else {
        a.0 - b.0
    } / a.0.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the reference by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics of the `BENCHMARK.json` at `spec_path`.
pub fn declared_end_to_end(spec_path: &str) -> Result<Vec<Declared>, String> {
    let spec = load(spec_path)?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or(format!("{spec_path}: no end_to_end list"))?;
    Ok(metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            Declared {
                name: field("name"),
                unit: field("unit"),
                lower_is_better: field("better") == "lower",
                bound: m.get("bound").and_then(Json::as_num).unwrap_or(0.0),
            }
        })
        .collect())
}

fn series(metric: &Json) -> Option<(f64, Vec<f64>)> {
    let value = metric.get("value")?.as_num()?;
    let rounds = metric.get("rounds")?.as_arr()?;
    Some((value, rounds.iter().filter_map(Json::as_num).collect()))
}

/// Print the comparison; `Ok(false)` when any pair is worse or `b`
/// failed more requests than `a`.
pub fn compare(a_path: &str, b_path: &str, spec_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let metrics = declared_end_to_end(spec_path)?;
    for (path, doc) in [(a_path, &a), (b_path, &b)] {
        if doc.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
            return Err(format!("{path}: not a {RESULT_SCHEMA} file"));
        }
    }
    let Some(Json::Obj(workloads)) = a.get("workloads") else {
        return Err(format!("{a_path}: no workloads"));
    };
    let mut good = true;
    println!("workload metric unit a b change bound verdict");
    for (workload, wa) in workloads {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or(format!("{b_path}: no workload {workload}"))?;
        for m in &metrics {
            let find = |w: &Json| w.get("end_to_end")?.get(&m.name).and_then(series);
            let (Some(sa), Some(sb)) = (find(wa), find(wb)) else {
                return Err(format!("{workload}: {} is missing from a result", m.name));
            };
            let verdict = judge((sa.0, &sa.1), (sb.0, &sb.1), m.lower_is_better, m.bound);
            good &= verdict != Verdict::Worse;
            println!(
                "{workload} {} {} {} {} {:+.2}% {}% {}",
                m.name,
                m.unit,
                sa.0,
                sb.0,
                (sb.0 - sa.0) / sa.0.abs().max(f64::MIN_POSITIVE) * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let rate = |w: &Json| w.get("error_rate").and_then(Json::as_num).unwrap_or(0.0);
        let (ea, eb) = (rate(wa), rate(wb));
        good &= eb <= ea;
        println!(
            "{workload} error_rate ratio {ea} {eb} {:+} 0% {}",
            eb - ea,
            if eb <= ea { "ok" } else { "worse" }
        );
    }
    Ok(good)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0];
        // Within the bound.
        assert_eq!(
            judge((100.0, &steady), (105.0, &[104.0, 105.0, 106.0]), true, 0.1),
            Verdict::Ok
        );
        // Beyond it, with tight rounds on both sides.
        assert_eq!(
            judge((100.0, &steady), (120.0, &[119.0, 120.0, 121.0]), true, 0.1),
            Verdict::Worse
        );
        // Higher is better: a drop is worse, a rise is not.
        assert_eq!(
            judge((100.0, &steady), (80.0, &[80.0, 80.0, 81.0]), false, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                (100.0, &steady),
                (130.0, &[129.0, 130.0, 131.0]),
                false,
                0.1
            ),
            Verdict::Ok
        );
        // Rounds wider than the bound resolve only when all are better.
        assert_eq!(
            judge((100.0, &steady), (110.0, &[90.0, 110.0, 130.0]), true, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            judge((100.0, &steady), (60.0, &[50.0, 60.0, 70.0]), true, 0.1),
            Verdict::Ok
        );
        // An exact metric with bound 0 may not move at all.
        assert_eq!(
            judge((7.0, &[7.0, 7.0]), (7.5, &[7.5, 7.5]), true, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge((7.0, &[7.0, 7.0]), (7.0, &[7.0, 7.0]), true, 0.0),
            Verdict::Ok
        );
    }
}
