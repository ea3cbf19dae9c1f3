//! The whole benchmark in one command: every workload in its own
//! process, rounds interleaved, medians written to `result.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use oorq::obs::json::Json;

use crate::compare::declared_end_to_end;
use crate::inputs::Workload;
use crate::stats::{median, quartile_spread};

/// Schema tag of `result.json`.
pub const RESULT_SCHEMA: &str = "oorq-benchmark-result";

/// Seconds one run measures: `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 20;

/// One metric of one workload across the suite's rounds.
#[derive(Debug, Clone, Default)]
struct Series {
    unit: String,
    rounds: Vec<f64>,
}

#[derive(Debug, Default)]
struct WorkloadResult {
    attempted: f64,
    failed: f64,
    end_to_end: BTreeMap<String, Series>,
    per_layer: BTreeMap<String, Series>,
}

/// Run one workload in a child process and parse its result line.
fn child(
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
    out: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{}: no result line ({e}); exit {}",
            workload.name(),
            output.status
        )
    })?;
    if !output.status.success() {
        eprintln!("{}: exit {}", workload.name(), output.status);
    }
    Ok(result)
}

fn absorb(into: &mut BTreeMap<String, Series>, result: &Json) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return;
    };
    for (name, m) in metrics {
        let series = into.entry(name.clone()).or_default();
        series.unit = m
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        series.rounds.extend(m.get("value").and_then(Json::as_num));
    }
}

fn series_json(series: &BTreeMap<String, Series>) -> Json {
    Json::Obj(
        series
            .iter()
            .map(|(name, s)| {
                let fields = vec![
                    ("unit".to_string(), Json::Str(s.unit.clone())),
                    ("value".to_string(), Json::Num(median(&s.rounds))),
                    (
                        "rounds".to_string(),
                        Json::Arr(s.rounds.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ];
                (name.clone(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Run every workload: `rounds` untraced runs each, interleaved
/// round-robin so a slow minute on a shared machine spreads over all of
/// them, then one traced run each. Returns whether every answer of
/// every run was correct.
pub fn suite(seed: u64, quick: bool, out: &Path) -> Result<bool, String> {
    let (rounds, seconds) = if quick { (1, 3) } else { (3, RUN_SECONDS) };
    let mut results: BTreeMap<&str, WorkloadResult> = BTreeMap::new();
    let mut correct = true;
    let mut one = |workload: Workload, trace: bool| -> Result<(), String> {
        eprintln!(
            "== {} ({}, {seconds} s)",
            workload.name(),
            if trace { "traced" } else { "timed" }
        );
        let result = child(workload, seed, seconds, trace, out)?;
        let r = results.entry(workload.name()).or_default();
        correct &= matches!(result.get("correct"), Some(Json::Bool(true)));
        r.attempted += result
            .get("attempted")
            .and_then(Json::as_num)
            .unwrap_or(0.0);
        r.failed += result.get("failed").and_then(Json::as_num).unwrap_or(0.0);
        absorb(
            if trace {
                &mut r.per_layer
            } else {
                &mut r.end_to_end
            },
            &result,
        );
        Ok(())
    };
    for _ in 0..rounds {
        for workload in Workload::ALL {
            one(workload, false)?;
        }
    }
    for workload in Workload::ALL {
        one(workload, true)?;
    }

    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let r = &results[workload.name()];
        for (name, s) in r.end_to_end.iter().chain(&r.per_layer) {
            println!(
                "{} {name} {} {} {}",
                workload.name(),
                s.unit,
                median(&s.rounds),
                s.rounds.len()
            );
        }
        let error_rate = r.failed / r.attempted.max(1.0);
        println!(
            "{} error_rate ratio {error_rate} {}",
            workload.name(),
            r.attempted
        );
        workloads.push((
            workload.name().to_string(),
            Json::Obj(vec![
                ("attempted".into(), Json::Num(r.attempted)),
                ("failed".into(), Json::Num(r.failed)),
                ("error_rate".into(), Json::Num(error_rate)),
                ("end_to_end".into(), series_json(&r.end_to_end)),
                ("per_layer".into(), series_json(&r.per_layer)),
            ]),
        ));
    }
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(RESULT_SCHEMA.into())),
        ("version".into(), Json::Num(1.0)),
        ("seed".into(), Json::Num(seed as f64)),
        ("rounds".into(), Json::Num(f64::from(rounds))),
        ("seconds".into(), Json::Num(f64::from(seconds))),
        (
            "available_parallelism".into(),
            Json::Num(parallelism as f64),
        ),
        ("correct".into(), Json::Bool(correct)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    let rendered = doc.render();
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join("result.json"), &rendered))
        .map_err(|e| format!("writing result.json: {e}"))?;
    println!("{rendered}");
    Ok(correct)
}

/// Run every workload untraced with seeds `1..=seeds` and print, per
/// end-to-end metric, the median and the distance between the first and
/// third quartile as a share of it — the steadiness a bound in
/// `BENCHMARK.json` has to cover. Returns whether every spread (that of
/// `setup_s` aside) stays within its bound.
pub fn spread(seeds: u64, seconds: u32, out: &Path, spec_path: &str) -> Result<bool, String> {
    let declared = declared_end_to_end(spec_path)?;
    let bound = |name: &str| declared.iter().find(|m| m.name == name).map(|m| m.bound);
    let mut steady = true;
    println!("workload metric unit median spread bound");
    for workload in Workload::ALL {
        let mut series = BTreeMap::new();
        for seed in 1..=seeds {
            let result = child(workload, seed, seconds, false, out)?;
            if !matches!(result.get("correct"), Some(Json::Bool(true))) {
                return Err(format!("{} is incorrect with seed {seed}", workload.name()));
            }
            absorb(&mut series, &result);
        }
        for (name, s) in &series {
            let (spread, bound) = (quartile_spread(&s.rounds), bound(name).unwrap_or(0.0));
            steady &= name == "setup_s" || spread <= bound;
            println!(
                "{} {name} {} {} {spread:.4} {bound}",
                workload.name(),
                s.unit,
                median(&s.rounds)
            );
        }
    }
    Ok(steady)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_suite_measures_for_the_declared_run_seconds() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let declared = spec.get("run_seconds").and_then(Json::as_num);
        assert_eq!(declared, Some(f64::from(RUN_SECONDS)));
    }
}
