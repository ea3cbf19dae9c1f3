//! Lint-code coverage: fixtures that fire each of the analyzer's
//! `AB` diagnostics, plus a meta-test asserting that *every* code in
//! the [`LintCode`] registry is exercised somewhere in the workspace's
//! test code. A code nobody can fire is dead weight in the registry; a
//! code without a test can regress silently.

use oorq::cost::CostParams;
use oorq::datagen::{ChainConfig, ChainDb};
use oorq::optimizer::OptimizerConfig;
use oorq::pt::Pt;
use oorq::query::Expr;
use oorq::storage::DbStats;
use oorq_analysis::{check_observed, Analysis, Analyzer, ObservedFix, ObservedOp};
use oorq_bench::scenarios::{fig7_config, TempFields};
use oorq_bench::{Knobs, Scenario};
use oorq_lint::LintCode;

/// Optimize the Figure-3 query (never-push) and statically analyze the
/// chosen plan — the shared fixture for the observed-counter checks.
fn fig3_analysis() -> Analysis {
    let setup = Scenario::music(fig7_config());
    let (opt, _) = setup
        .plan(
            &setup.fig3(),
            OptimizerConfig::never_push(),
            &Knobs::default(),
        )
        .expect("fig3 optimizes");
    setup
        .analyze(&opt.pt, TempFields::new())
        .expect("fig3 plan analyzes")
}

/// The single atomic entity implementing the Composer extension.
fn composer_entity(s: &Scenario) -> oorq::storage::EntityId {
    let composer = s.db.catalog().class_by_name("Composer").expect("music");
    s.db.physical().class_entity(composer).unwrap()
}

/// A well-behaved observation for one analyzed node: every counter at
/// its lower bound.
fn ok_op(analysis: &Analysis, pt_node: usize) -> ObservedOp {
    let n = analysis.node(pt_node).expect("node exists");
    ObservedOp {
        pt_node,
        label: n.label.clone(),
        rows_out: n.rows_total.lo.ceil() as u64,
        page_reads: n.data().lo.ceil() as u64,
        page_hits: 0,
        index_reads: n.index().lo.ceil() as u64,
        page_writes: n.writes().lo.ceil() as u64,
    }
}

/// AB001: an observed row count just past the static upper bound is a
/// violation; the same count inside the bound is not.
#[test]
fn ab001_rows_escaping_bound_are_flagged() {
    let analysis = fig3_analysis();
    let n = analysis
        .nodes
        .iter()
        .find(|n| n.lowered && n.rows_total.hi.is_finite())
        .expect("some lowered node has a finite row bound");
    let mut op = ok_op(&analysis, n.pt_node);
    assert!(
        check_observed(&analysis, &[op.clone()], &[]).is_clean(),
        "in-bound observation must be clean"
    );
    op.rows_out = n.rows_total.hi as u64 + 1;
    let report = check_observed(&analysis, &[op], &[]);
    assert!(
        report.has(LintCode::BoundRowsViolated),
        "{}",
        report.render()
    );
}

/// AB002: observed page accesses past the static bound — data pages and
/// index pages each trip the same code.
#[test]
fn ab002_pages_escaping_bound_are_flagged() {
    let analysis = fig3_analysis();
    let n = analysis
        .nodes
        .iter()
        .find(|n| n.lowered && n.data().hi.is_finite())
        .expect("some lowered node has a finite page bound");
    let mut op = ok_op(&analysis, n.pt_node);
    op.page_reads = n.data().hi as u64 + 1;
    op.page_hits = 1;
    let report = check_observed(&analysis, &[op], &[]);
    assert!(
        report.has(LintCode::BoundPagesViolated),
        "{}",
        report.render()
    );
}

/// AB003: a fixpoint that runs more semi-naive passes than the static
/// pass bound (here: past the iteration cap the bound falls back to).
#[test]
fn ab003_fixpoint_passes_escaping_bound_are_flagged() {
    let analysis = fig3_analysis();
    let fx = analysis
        .nodes
        .iter()
        .find(|n| n.passes.is_some())
        .expect("the fig3 plan contains a fixpoint");
    let passes = fx.passes.expect("fixpoint bounds carry a pass interval");
    let observed = ObservedFix {
        pt_node: fx.pt_node,
        iterations: passes.hi as u64 + 1,
    };
    let report = check_observed(&analysis, &[], &[observed]);
    assert!(
        report.has(LintCode::BoundPassesViolated),
        "{}",
        report.render()
    );
    // One pass fewer is certifiable.
    let observed = ObservedFix {
        pt_node: fx.pt_node,
        iterations: passes.hi as u64,
    };
    assert!(check_observed(&analysis, &[], &[observed]).is_clean());
}

/// AB005: the fig3 fixpoint accumulates a string-typed column, so its
/// key space is unbounded and the pass bound falls back to the cap.
#[test]
fn ab005_unbounded_key_space_is_noted() {
    let analysis = fig3_analysis();
    assert!(
        analysis.report.has(LintCode::FixKeySpaceUnbounded),
        "{}",
        analysis.report.render()
    );
}

/// AB005 (negative) + finite-key-space pass bound: a fixpoint whose
/// accumulator holds only object-typed columns has a finite key space,
/// so its pass bound stays below the iteration cap.
#[test]
fn object_only_fixpoint_has_finite_pass_bound() {
    let setup = Scenario::music(fig7_config());
    let e = composer_entity(&setup);
    let base = Pt::proj(vec![("o".to_string(), Expr::var("c"))], Pt::entity(e, "c"));
    let rec = Pt::proj(
        vec![("o".to_string(), Expr::var("d.o"))],
        Pt::temp("t", "d"),
    );
    let plan = Pt::fix("t", Pt::union(base, rec));
    let analysis = setup
        .analyze(&plan, TempFields::new())
        .expect("object-chain fix analyzes");
    assert!(
        !analysis.report.has(LintCode::FixKeySpaceUnbounded),
        "{}",
        analysis.report.render()
    );
    let passes = analysis
        .nodes
        .iter()
        .find_map(|n| n.passes)
        .expect("fixpoint pass bound");
    assert!(passes.hi.is_finite());
    assert!(
        passes.hi < oorq_analysis::AnalyzerConfig::default().max_fix_iterations as f64,
        "finite key space must beat the cap: {passes}"
    );
}

/// AB006: a fixpoint whose base leg reads a provably empty relation is
/// provably empty itself — and the empty relation's row bound is the
/// exact `[0, 0]`.
#[test]
fn ab006_provably_empty_fixpoint_is_noted() {
    let chain = ChainDb::generate(ChainConfig {
        relations: 1,
        rows: 0,
        domain: 8,
        seed: 0xAB006,
    });
    let r0 = chain
        .db
        .catalog()
        .relation_by_name("R0")
        .expect("chain relation R0");
    let e = chain.db.physical().relation_entity(r0).unwrap();
    let base = Pt::proj(
        vec![("a".to_string(), Expr::var("x.a"))],
        Pt::entity(e, "x"),
    );
    let rec = Pt::proj(
        vec![("a".to_string(), Expr::var("d.a"))],
        Pt::temp("t", "d"),
    );
    let plan = Pt::fix("t", Pt::union(base, rec));
    let stats = DbStats::collect(&chain.db);
    let analyzer = Analyzer::new(chain.db.catalog(), chain.db.physical(), &stats);
    let analysis = analyzer.analyze(&plan).expect("empty-base fix analyzes");
    assert!(
        analysis.report.has(LintCode::FixProvablyEmpty),
        "{}",
        analysis.report.render()
    );
    // Int-typed accumulator columns also make this an AB005 case.
    assert!(analysis.report.has(LintCode::FixKeySpaceUnbounded));
    // The empty relation's scan is bounded by the exact zero interval.
    let entity = analysis
        .nodes
        .iter()
        .find(|n| n.label.contains("R0") || n.label.contains("Entity"))
        .expect("entity node analyzed");
    assert_eq!(entity.rows_total.lo, 0.0);
    assert_eq!(entity.rows_total.hi, 0.0);
    assert!(!entity.rows_total.is_degenerate());
}

/// AB007: an observed operator (or fixpoint) with no analyzed PT node
/// means analysis and lowering diverged — certification must fail.
#[test]
fn ab007_unanalyzed_operator_is_flagged() {
    let analysis = fig3_analysis();
    let op = ObservedOp {
        pt_node: analysis.nodes.len() + 7,
        label: "Phantom".to_string(),
        rows_out: 0,
        page_reads: 0,
        page_hits: 0,
        index_reads: 0,
        page_writes: 0,
    };
    let report = check_observed(&analysis, &[op], &[]);
    assert!(
        report.has(LintCode::DegenerateInterval),
        "{}",
        report.render()
    );
    // A fixpoint observation at a non-fixpoint node trips the same code.
    let fx = ObservedFix {
        pt_node: analysis.nodes.len() + 7,
        iterations: 1,
    };
    let report = check_observed(&analysis, &[], &[fx]);
    assert!(
        report.has(LintCode::DegenerateInterval),
        "{}",
        report.render()
    );
}

/// The estimator clamps its own arithmetic: under the served model and
/// the paper's, a plan is priced with finite, non-negative figures.
#[test]
fn default_and_paper_models_give_finite_non_negative_estimates() {
    let setup = Scenario::music(fig7_config());
    let e = composer_entity(&setup);
    let plan = Pt::sel(
        Expr::path("x", &["name"]).eq(Expr::text("Bach")),
        Pt::entity(e, "x"),
    );
    let sane = |x: f64| x.is_finite() && x >= 0.0;
    for params in [CostParams::default(), CostParams::paper_mode()] {
        let model = setup.model(params, TempFields::new());
        let pc = model.cost(&plan).expect("a selection over an extension");
        assert!(sane(pc.rows) && sane(pc.cost.io) && sane(pc.cost.cpu));
        for line in &pc.breakdown {
            let figures = [line.rows, line.pages, line.cost.io, line.cost.cpu];
            assert!(figures.into_iter().all(sane), "{}", line.label);
        }
    }
}

/// Every code in the registry must be exercised by at least one test:
/// its variant (`LintCode::X`) or its stable code string must appear in
/// some test region of the workspace sources. Test regions are files
/// under a `tests/` directory, `tests.rs`/`*_tests.rs` files, and the
/// tail of any source file from its first `#[cfg(test)]` marker.
#[test]
fn every_lint_code_is_exercised_by_some_test() {
    fn collect(dir: &std::path::Path, out: &mut String) {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(_) => return,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    collect(&path, out);
                }
                continue;
            }
            if !name.ends_with(".rs") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let in_test_dir = path
                .components()
                .any(|c| c.as_os_str().to_string_lossy() == "tests");
            if in_test_dir || name == "tests.rs" || name.ends_with("_tests.rs") {
                out.push_str(&text);
            } else if let Some(i) = text.find("#[cfg(test)]") {
                out.push_str(&text[i..]);
            }
        }
    }

    let mut tests = String::new();
    collect(std::path::Path::new(env!("CARGO_MANIFEST_DIR")), &mut tests);
    assert!(
        tests.contains("every_lint_code_is_exercised_by_some_test"),
        "the source walk must reach this very file"
    );
    let missing: Vec<&str> = LintCode::all()
        .iter()
        .filter(|c| !tests.contains(&format!("LintCode::{c:?}")) && !tests.contains(c.code()))
        .map(|c| c.code())
        .collect();
    assert!(
        missing.is_empty(),
        "registered lint codes with no exercising test: {missing:?}"
    );
}
