//! One run of one workload: set up, verify, time, trace, report.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use oorq::obs::json::Json;
use oorq::obs::{check_chrome_trace, Recorder};

use crate::check::{reference_digest, render, Digest};
use crate::inputs::{Inputs, Request, Schedule, Template, Workload};
use crate::served::{
    lanes, open_and_warm, stand_up, timed_phase, verify_adhoc_sample, verify_hot, Laps,
};
use crate::stats::{highest_resolved_percentile, median, percentile};
use crate::traced::{mean_count, median_ns, plan_regret, span_profiles, Tracer, LAYERS};

/// Operator kinds reported under `exec.op.<kind>.*`.
pub const OP_KINDS: [&str; 7] = ["scan", "Sel", "Proj", "IJ", "PIJ", "EJ", "Fix"];

/// How long a run keeps setting up, each time it does: once, and again
/// while this has not passed.
const SETUP_BURST: Duration = Duration::from_millis(400);

/// Per stage of a set-up (standing the server up, each session's open,
/// each warm-up request), the quickest time over a run's set-ups.
///
/// A neighbour on the shared machine slows what it overlaps by half and
/// more, for seconds at a time, and speeds nothing up: back to back, the
/// eight warm-up requests of `warm-recursive` read 76-81 ms each in a
/// quiet second and 120-140 ms in a busy one. So a run sets up in bursts
/// at five points of the half minute it takes, and `setup_s` is the sum
/// of the stages' quickest times: a stage reads slow only if a neighbour
/// met it every time.
#[derive(Default)]
struct SetupClock {
    quickest_s: Vec<f64>,
    setups: usize,
}

impl SetupClock {
    /// Take in the stage times of one more set-up.
    fn absorb(&mut self, stages_s: &[f64]) {
        if self.setups == 0 {
            self.quickest_s = stages_s.to_vec();
        }
        assert_eq!(self.quickest_s.len(), stages_s.len(), "set-ups differ");
        for (quickest, &s) in self.quickest_s.iter_mut().zip(stages_s) {
            *quickest = quickest.min(s);
        }
        self.setups += 1;
    }

    fn total_s(&self) -> f64 {
        self.quickest_s.iter().sum()
    }
}

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, if it is not.
    pub errors: Vec<String>,
}

impl RunResult {
    /// The value of a metric by name.
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line the driver reads.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ];
                (m.name.clone(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run one workload once.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let inputs = Inputs::new(args.workload, args.seed);
    // The benchmark's own copy of the data: references are evaluated on
    // it and the traced pass runs on a snapshot of it.
    let data = inputs.build();
    let vocabulary = data.vocabulary.as_ref();

    // Set-up, timed whole and stage by stage: datagen, index build,
    // `Server::new` (collects statistics), session open and warm-up
    // requests. Only an untraced run reports it, so only that repeats it.
    let mut clock = SetupClock::default();
    let set_up_again = |clock: &mut SetupClock| -> Result<(), String> {
        let burst = Instant::now();
        while !args.trace && burst.elapsed() < SETUP_BURST {
            let mut laps = Laps::start();
            let server = stand_up(&inputs, &mut laps);
            open_and_warm(&inputs, &server, vocabulary, &mut laps)?;
            clock.absorb(&laps.stages_s);
        }
        Ok(())
    };
    set_up_again(&mut clock)?;
    let mut laps = Laps::start();
    let server = stand_up(&inputs, &mut laps);
    let mut setup = open_and_warm(&inputs, &server, vocabulary, &mut laps)?;
    clock.absorb(&laps.stages_s);

    verify_hot(&inputs, &data, &setup.hot)?;
    set_up_again(&mut clock)?;

    // The timed window, tracing off. A traced run splits its seconds
    // between this window and the single-session comparison round.
    let window = args.seconds * if args.trace { 0.5 } else { 1.0 };
    let mut timed = timed_phase(
        &server,
        &mut setup.clients,
        &setup.hot,
        Duration::from_secs_f64(window),
    );
    set_up_again(&mut clock)?;
    verify_adhoc_sample(&inputs, &data, &mut timed)?;
    let mut errors: Vec<String> = timed.first_error.take().into_iter().collect();
    let (mut attempted, mut failed) = (timed.attempted, timed.failed);
    let p50_ms = percentile(&timed.latencies_ms, 50.0);
    if !args.trace && highest_resolved_percentile(timed.latencies_ms.len()).is_none_or(|p| p < 90.0)
    {
        eprintln!(
            "note: {} samples do not resolve p90; run longer",
            timed.latencies_ms.len()
        );
    }

    let single_qps = if args.trace && inputs.sessions > 1 {
        let single = timed_phase(
            &server,
            &mut setup.clients[..1],
            &setup.hot,
            Duration::from_secs_f64(args.seconds * 0.25),
        );
        attempted += single.attempted;
        failed += single.failed;
        errors.extend(single.first_error.clone());
        single.throughput_qps()
    } else {
        timed.throughput_qps()
    };

    // The traced and counted pass: a prelude that fills the private plan
    // cache like the server's warm-up did, then the fixed sequence.
    let rec = if args.trace {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let mut tracer = Tracer::new(&inputs, &data, rec);
    let mut schedule = Schedule::new(&inputs, vocabulary, inputs.sessions, lanes(&inputs));
    let mut mismatch = |what: &str, digests: (Digest, Digest), plans: (u64, u64)| {
        if digests.0 != digests.1 || plans.0 != plans.1 {
            failed += 1;
            errors.push(format!(
                "traced path diverges from the served path on {what}: \
                 plan {:016x} vs {:016x}, {} vs {} rows",
                plans.0, plans.1, digests.0.rows, digests.1.rows
            ));
        }
    };
    for (i, h) in setup.hot.iter().enumerate() {
        let (digest, plan) = tracer.request(&h.text, false)?;
        mismatch(
            &format!("hot text {i}"),
            (digest, h.digest),
            (plan, h.plan_fingerprint),
        );
    }
    let storage_before = tracer.storage_counters();
    let mut bytes = Vec::new();
    for _ in 0..inputs.traced_requests {
        attempted += 1;
        match schedule.next_request() {
            Request::Hot(i) => {
                let h = &setup.hot[i];
                let (digest, plan) = tracer.request(&h.text, true)?;
                mismatch(
                    &format!("hot text {i}"),
                    (digest, h.digest),
                    (plan, h.plan_fingerprint),
                );
            }
            Request::Adhoc(text) => {
                let (digest, plan) = tracer.request(&text, true)?;
                let served = setup.clients[0]
                    .session
                    .execute_text(&text)
                    .map_err(|e| format!("`{text}`: {e}"))?;
                render(&served.batch, &mut bytes);
                mismatch(
                    &format!("`{text}`"),
                    (digest, Digest::of_bytes(&bytes)),
                    (plan, served.plan_fingerprint),
                );
            }
        }
    }
    let storage: BTreeMap<String, f64> = tracer
        .storage_counters()
        .into_iter()
        .map(|(name, v)| {
            let delta = v - storage_before.get(&name).copied().unwrap_or(0);
            (name, delta as f64 / inputs.traced_requests as f64)
        })
        .collect();
    let stored = |name: &str| storage.get(name).copied().unwrap_or(0.0);

    let mut metrics = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64, n: usize| {
        metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            n,
        })
    };
    let n_timed = timed.latencies_ms.len();

    if !args.trace {
        // Plan regret over the workload's templates: its hot texts, and
        // for ad-hoc mixes a few texts of each template.
        let mut templates: Vec<(String, Digest)> = setup
            .hot
            .iter()
            .map(|h| (h.text.clone(), h.digest))
            .collect();
        if inputs.adhoc_per_block > 0 {
            let per_template = if setup.hot.is_empty() { 2 } else { 1 };
            for template in [Template::Fig3, Template::PushJoin, Template::Path] {
                for _ in 0..per_template {
                    let text = schedule.adhoc_text_of(template).expect("ad-hoc workload");
                    let digest = reference_digest(&data.db, &text)?;
                    templates.push((text, digest));
                }
            }
        }
        set_up_again(&mut clock)?;
        let regret = plan_regret(&inputs, &data, &templates)?;
        set_up_again(&mut clock)?;
        push("setup_s", "s", clock.total_s(), clock.setups);
        let quietest = timed.quietest();
        push("throughput_qps", "1/s", quietest.throughput_qps, n_timed);
        push("latency_p50_ms", "ms", quietest.p50_ms, n_timed);
        push("latency_p90_ms", "ms", quietest.p90_ms, n_timed);
        push(
            "sim_io_pages_per_query",
            "pages",
            stored("storage.page_misses") + stored("index.reads") + stored("storage.page_writes"),
            inputs.traced_requests,
        );
        push("plan_regret", "ratio", regret, templates.len());
        push("peak_rss_mb", "MiB", peak_rss_mb(), 1);
    } else {
        let profiles = &tracer.profiles;
        let trace = tracer.finish();
        let spans = span_profiles(&trace);
        if spans.len() != profiles.len() {
            return Err(format!(
                "{} request spans for {} requests",
                spans.len(),
                profiles.len()
            ));
        }
        let n_all = profiles.len();
        let n_miss = profiles.iter().filter(|p| p.miss).count();
        let steady: Vec<_> = profiles
            .iter()
            .zip(&spans)
            .filter(|(p, _)| p.steady)
            .map(|(_, s)| s)
            .collect();
        let n_steady = steady.len();
        // Median over the requests in which the span occurred.
        let span_ns = |name: &str| {
            let v: Vec<f64> = spans
                .iter()
                .filter_map(|s| s.spans.get(name).map(|&ns| ns as f64))
                .collect();
            median(&v)
        };
        let ns = |name: &str| median_ns(profiles, name);
        let steady_count = |name: &str| mean_count(profiles, name, true);
        let miss_count = |name: &str| mean_count(profiles, name, false);
        let requests = (timed.hits + timed.misses).max(1) as f64;

        // query
        push("query.parse_ns", "ns", span_ns("query.parse"), n_all);
        push(
            "query.canonicalize_ns",
            "ns",
            span_ns("query.canonicalize"),
            n_all,
        );
        push(
            "query.text_bytes",
            "bytes",
            steady_count("query.text_bytes"),
            n_steady,
        );
        push(
            "query.canonical_bytes",
            "bytes",
            steady_count("query.canonical_bytes"),
            n_steady,
        );

        // serve: cache counters from the server's own registry over the
        // timed window, per request; times from the traced pass.
        push(
            "serve.cache.lookup_ns",
            "ns",
            span_ns("serve.cache.lookup"),
            n_all,
        );
        push(
            "serve.cache.insert_ns",
            "ns",
            span_ns("serve.cache.insert"),
            n_miss,
        );
        push(
            "serve.cache.hit_ratio",
            "ratio",
            timed.hits as f64 / requests,
            n_timed,
        );
        for (name, total) in [
            ("serve.cache.hits", timed.hits),
            ("serve.cache.misses", timed.misses),
            ("serve.cache.evictions", timed.evictions),
            ("serve.cache.invalidations", timed.invalidations),
            ("serve.recalibrations", timed.recalibrations),
        ] {
            push(name, "1/req", total as f64 / requests, n_timed);
        }
        let opens: Vec<f64> = setup.session_open_ns.iter().map(|&v| v as f64).collect();
        push("serve.session_open_ns", "ns", median(&opens), opens.len());
        push(
            "serve.drift_check_ns",
            "ns",
            span_ns("serve.drift_check"),
            n_miss,
        );
        let server_wall: Vec<f64> = timed.server_wall_ns.iter().map(|&v| v as f64).collect();
        push("serve.query.wall_ns", "ns", median(&server_wall), n_timed);
        // Untraced p50 minus the traced time that named spans cover.
        let named: Vec<f64> = steady
            .iter()
            .map(|s| (s.wall_ns - s.root_self_ns) as f64)
            .collect();
        push(
            "serve.unattributed_ns",
            "ns",
            p50_ms * 1e6 - median(&named),
            n_steady,
        );
        push(
            "serve.latency_p99_ms",
            "ms",
            percentile(&timed.latencies_ms, 99.0),
            n_timed,
        );
        push(
            "serve.latency_max_ms",
            "ms",
            timed.latencies_ms.last().copied().unwrap_or(0.0),
            n_timed,
        );
        push(
            "serve.concurrency_speedup",
            "ratio",
            timed.throughput_qps() / single_qps,
            inputs.sessions,
        );

        // optimizer (oorq-core): over the requests that missed.
        push(
            "optimizer.optimize_ns",
            "ns",
            span_ns("optimizer.optimize"),
            n_miss,
        );
        for step in ["rewrite", "translate", "generatePT", "transformPT"] {
            push(
                &format!("optimizer.{step}_ns"),
                "ns",
                span_ns(&format!("optimizer.{step}")),
                n_miss,
            );
        }
        for outcome in [
            "enumerated",
            "accepted",
            "rejected",
            "pruned",
            "pruned_proven",
        ] {
            let name = format!("optimizer.candidates.{outcome}");
            push(&name, "1/opt", miss_count(&name), n_miss);
        }
        let enumerated = miss_count("optimizer.candidates.enumerated");
        push(
            "optimizer.accept_ratio",
            "ratio",
            if enumerated > 0.0 {
                miss_count("optimizer.candidates.accepted") / enumerated
            } else {
                0.0
            },
            n_miss,
        );
        push(
            "optimizer.push_decisions",
            "1/opt",
            miss_count("optimizer.push_decisions"),
            n_miss,
        );
        push(
            "optimizer.plan_nodes",
            "1/opt",
            miss_count("optimizer.plan_nodes"),
            n_miss,
        );

        // cost, analysis, lint
        push("cost.plan_cost_ns", "ns", ns("cost.plan_cost_ns"), n_miss);
        let costed: Vec<f64> = profiles
            .iter()
            .zip(&spans)
            .filter(|(p, _)| p.miss)
            .map(|(_, s)| s.costed_candidates as f64)
            .collect();
        push(
            "cost.calls_per_optimize",
            "1/opt",
            costed.iter().sum::<f64>() / costed.len().max(1) as f64,
            n_miss,
        );
        push(
            "cost.predicted_over_observed",
            "ratio",
            miss_count("cost.predicted_over_observed"),
            n_miss,
        );
        push("analysis.bounds_ns", "ns", ns("analysis.bounds_ns"), n_miss);
        push(
            "analysis.bound_violations",
            "count",
            miss_count("analysis.bound_violations") * n_miss as f64,
            n_miss,
        );
        push(
            "lint.verify_plan_ns",
            "ns",
            ns("lint.verify_plan_ns"),
            n_miss,
        );
        push(
            "lint.verify_phys_ns",
            "ns",
            ns("lint.verify_phys_ns"),
            n_miss,
        );

        // pt
        push("pt.lower_ns", "ns", ns("pt.lower_ns"), n_all);
        push("pt.fingerprint_ns", "ns", ns("pt.fingerprint_ns"), n_miss);
        push(
            "pt.phys_ops",
            "count",
            steady_count("pt.phys_ops"),
            n_steady,
        );

        // exec
        let run_ns = span_ns("exec.run");
        push("exec.query.wall_ns", "ns", run_ns, n_all);
        push("exec.pipeline_ns", "ns", run_ns - ns("pt.lower_ns"), n_all);
        for kind in OP_KINDS {
            let wall = format!("exec.op.{kind}.wall_ns");
            push(&wall, "ns", ns(&wall), n_all);
            let rows = format!("exec.op.{kind}.rows");
            push(&rows, "1/req", steady_count(&rows), n_steady);
        }
        for name in [
            "exec.query.evals",
            "exec.query.rows",
            "exec.rows_examined_per_result",
            "exec.fix.iterations",
            "exec.fix.delta_mass",
        ] {
            push(name, "1/req", steady_count(name), n_steady);
        }
        push("exec.render_ns", "ns", span_ns("exec.render"), n_all);

        // storage, index: exact counts per request of the counted pass.
        let (hits, misses) = (stored("storage.page_hits"), stored("storage.page_misses"));
        push("storage.page_hits", "1/req", hits, n_steady);
        push("storage.page_misses", "1/req", misses, n_steady);
        push(
            "storage.hit_ratio",
            "ratio",
            hits / (hits + misses).max(1e-9),
            n_steady,
        );
        for name in [
            "storage.page_evictions",
            "storage.page_writes",
            "storage.spill_evictions",
            "storage.temp_page_reads",
        ] {
            push(name, "1/req", stored(name), n_steady);
        }
        push("storage.snapshot_ns", "ns", tracer.snapshot_ns as f64, 1);
        push(
            "storage.stats_collect_ns",
            "ns",
            tracer.stats_collect_ns as f64,
            1,
        );
        let (pages, frames) = tracer.working_set();
        push("storage.working_set_pages", "pages", pages as f64, 1);
        push("storage.buffer_frames", "pages", frames as f64, 1);
        push("index.reads", "1/req", stored("index.reads"), n_steady);
        push("index.build_ns", "ns", data.index_build_ns as f64, 1);

        // datagen, obs
        push("datagen.generate_ns", "ns", data.generate_ns as f64, 1);
        push("datagen.objects", "count", data.objects as f64, 1);
        let traced_walls: Vec<f64> = steady.iter().map(|s| s.wall_ns as f64).collect();
        push(
            "obs.trace_overhead_ratio",
            "ratio",
            median(&traced_walls) / (p50_ms * 1e6),
            n_steady,
        );
        let total: f64 = traced_walls.iter().sum();
        push(
            "obs.span_coverage",
            "ratio",
            named.iter().sum::<f64>() / total,
            n_steady,
        );

        // Each layer's share of the traced request time; the request's
        // own uncovered time belongs to the serving layer.
        for (i, layer) in LAYERS.iter().enumerate() {
            let mut own: u64 = steady.iter().map(|s| s.layer_self_ns[i]).sum();
            if *layer == "serve" {
                own += steady.iter().map(|s| s.root_self_ns).sum::<u64>();
            }
            push(
                &format!("share.{layer}"),
                "ratio",
                own as f64 / total,
                n_steady,
            );
        }

        let chrome = trace.to_chrome();
        if let Err(e) = check_chrome_trace(&chrome) {
            errors.push(format!("invalid trace: {e}"));
        }
        std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| {
                let file = format!("trace-{}.json", args.workload.name());
                std::fs::write(args.out_dir.join(file), chrome)
            })
            .map_err(|e| format!("writing the trace: {e}"))?;
    }

    Ok(RunResult {
        correct: failed == 0 && errors.is_empty(),
        attempted,
        failed,
        metrics,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::concurrent_sessions;
    use std::path::Path;

    /// `BENCHMARK.json`'s metric list `key` as (name, unit) pairs.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn reported(result: &RunResult) -> Vec<(String, String)> {
        result
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn setup_time_is_the_sum_of_each_stages_quickest_time() {
        let mut clock = SetupClock::default();
        for stages_s in [[0.3, 0.1, 0.2], [0.2, 0.4, 0.2], [0.5, 0.2, 0.1]] {
            clock.absorb(&stages_s);
        }
        assert_eq!(clock.setups, 3);
        assert!((clock.total_s() - 0.4).abs() < 1e-12);
    }

    /// A short traced run; checks what holds for every workload.
    fn traced_run(workload: Workload) -> RunResult {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", workload.name()));
        let result = run(&RunArgs {
            workload,
            seed: 5,
            seconds: 2.0,
            trace: true,
            out_dir: out_dir.clone(),
        })
        .expect("run completes");
        assert!(result.correct, "{:?}", result.errors);
        assert_eq!(result.failed, 0);
        assert_eq!(reported(&result), declared("per_layer"));
        let trace =
            std::fs::read_to_string(out_dir.join(format!("trace-{}.json", workload.name())))
                .expect("trace written");
        check_chrome_trace(&trace).expect("valid trace");
        assert!(result.value("obs.span_coverage").unwrap() >= 0.9);
        assert_eq!(result.value("analysis.bound_violations"), Some(0.0));
        let shares: f64 = LAYERS
            .iter()
            .map(|l| result.value(&format!("share.{l}")).unwrap())
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
        result
    }

    #[test]
    fn warm_recursive_hits_the_cache_and_evicts_from_the_buffer() {
        let r = traced_run(Workload::WarmRecursive);
        assert!(r.value("serve.cache.hit_ratio").unwrap() >= 0.99);
        assert!(r.value("storage.page_evictions").unwrap() > 0.0);
        assert_eq!(r.value("storage.spill_evictions"), Some(0.0));
        assert!(r.value("share.optimizer").unwrap() < 0.01);
        assert!(r.value("share.exec").unwrap() > 0.9);
    }

    #[test]
    fn cold_adhoc_never_hits_and_is_optimizer_bound() {
        let r = traced_run(Workload::ColdAdhoc);
        assert_eq!(r.value("serve.cache.hits"), Some(0.0));
        assert_eq!(r.value("serve.cache.misses"), Some(1.0));
        assert!(r.value("serve.cache.evictions").unwrap() > 0.0);
        assert_eq!(r.value("storage.spill_evictions"), Some(0.0));
        assert!(r.value("share.optimizer").unwrap() > 0.6);
    }

    #[test]
    fn concurrent_mixed_runs_a_session_per_core_up_to_four() {
        let r = traced_run(Workload::ConcurrentMixed);
        let speedup = r
            .metrics
            .iter()
            .find(|m| m.name == "serve.concurrency_speedup")
            .unwrap();
        assert_eq!(speedup.n, concurrent_sessions());
        let hit_ratio = r.value("serve.cache.hit_ratio").unwrap();
        assert!(hit_ratio > 0.8 && hit_ratio < 1.0, "hit ratio {hit_ratio}");
        assert_eq!(r.value("storage.spill_evictions"), Some(0.0));
    }

    #[test]
    fn spill_closure_spills_and_computes_the_whole_closure() {
        let r = traced_run(Workload::SpillClosure);
        assert!(r.value("storage.spill_evictions").unwrap() > 0.0);
        assert!(r.value("storage.page_writes").unwrap() > 0.0);
        assert_eq!(r.value("exec.query.rows"), Some(2016.0));
        assert_eq!(r.value("exec.fix.iterations"), Some(63.0));
        assert!(r.value("share.optimizer").unwrap() < 0.01);
    }

    #[test]
    fn an_untraced_run_reports_the_declared_end_to_end_metrics() {
        let result = run(&RunArgs {
            workload: Workload::ColdAdhoc,
            seed: 6,
            seconds: 1.0,
            trace: false,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-untraced"),
        })
        .expect("run completes");
        assert!(result.correct, "{:?}", result.errors);
        assert_eq!(reported(&result), declared("end_to_end"));
        for m in &result.metrics {
            assert!(m.value > 0.0, "{} is {}", m.name, m.value);
        }
        let line = result.to_json().render();
        let parsed = Json::parse(&line).expect("result line parses");
        assert_eq!(parsed.get("failed").and_then(Json::as_num), Some(0.0));
    }
}
