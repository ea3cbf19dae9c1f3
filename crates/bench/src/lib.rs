//! The harness that regenerates every figure of the paper and gates the
//! repository's checked-in numbers.
//!
//! [`scenarios`] holds the one corpus and the one plan-and-run driver;
//! [`sections`] the table behind the `reproduce` binary and the shared
//! gate helpers; the remaining modules are the reports and gates
//! themselves. Wall-clock measurement lives in `benchmark/`, not here.

pub mod analyze;
pub mod fuzz;
pub mod metrics;
pub mod reports;
pub mod scenarios;
pub mod sections;
pub mod tracing;

pub use scenarios::{Knobs, Scenario};

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use crate::reports::{fig5_report, fig7_symbolic};
    use crate::scenarios::{parse_env_knob, Scenario};
    use oorq_datagen::MusicConfig;

    /// A map environment for evaluating Figure 7 symbols from statistics.
    fn fig7_symbol_env(s: &Scenario) -> HashMap<String, f64> {
        let composer = s.db.catalog().class_by_name("Composer").expect("music");
        let composer_e =
            s.db.physical()
                .class_entity(composer)
                .expect("one extension per class");
        let es = s.stats.entity(composer_e).expect("stats");
        let n1 = s.stats.max_chain_depth().unwrap_or(10) as f64;
        let mut env = HashMap::new();
        env.insert("pr".into(), 1.0);
        env.insert("ev".into(), 1.0);
        env.insert("lev".into(), 2.0);
        env.insert("lea".into(), (es.cardinality as f64 / 8.0).max(1.0));
        env.insert("n1".into(), n1);
        env.insert("n2".into(), n1);
        env.insert("||Cpr||".into(), es.cardinality as f64);
        env.insert("|Cpr|".into(), es.pages as f64);
        env.insert("inv_Cpr".into(), 1.0 / es.cardinality as f64);
        env
    }

    #[test]
    fn fig7_symbolic_rows_evaluate_under_stats_env() {
        let setup = Scenario::music(MusicConfig {
            chains: 4,
            chain_len: 4,
            ..Scenario::paper_scale()
        });
        let mut env = fig7_symbol_env(&setup);
        // Derived sizes for the T-symbols the table references.
        for (k, v) in [
            ("|Inf_i|", 2.0),
            ("|T1|", 8.0),
            ("|T2|", 3.0),
            ("||T2||", 40.0),
        ] {
            env.insert(k.to_string(), v);
        }
        let rows = fig7_symbolic();
        assert_eq!(rows.len(), 15, "T1..T15");
        // Every row with fully bound symbols evaluates to a finite,
        // non-negative number.
        for r in &rows {
            let v = r.formula.eval(&env);
            assert!(v.is_finite() && v >= 0.0, "{}: {v}", r.node);
        }
        // T1 matches its closed form.
        let t1 = rows[0].formula.eval(&env);
        let n = env["||Cpr||"];
        let p = env["|Cpr|"];
        let n1 = env["n1"];
        let expected = p + n * p * 2.0 + (n1 - 1.0) * (p + n * 2.0 * 2.0);
        assert!((t1 - expected).abs() < 1e-9, "{t1} vs {expected}");
    }

    #[test]
    fn fig5_report_lists_all_operators() {
        let r = fig5_report(&Default::default()).unwrap();
        for op in [
            "Sel_selpred",
            "EJ_pred",
            "IJ_Ai",
            "PIJ_pathInd",
            "Fix(T, P)",
        ] {
            assert!(r.contains(op), "missing {op}:\n{r}");
        }
    }

    #[test]
    fn paper_setup_has_paper_physical_design() {
        let setup = Scenario::music(MusicConfig {
            chains: 2,
            chain_len: 3,
            ..Scenario::paper_scale()
        });
        let cat = setup.db.catalog();
        let composer = cat.class_by_name("Composer").unwrap();
        let composition = cat.class_by_name("Composition").unwrap();
        let (works, _) = cat.attr(composer, "works").unwrap();
        let (instruments, _) = cat.attr(composition, "instruments").unwrap();
        let (name, _) = cat.attr(composer, "name").unwrap();
        let physical = setup.db.physical();
        assert!(physical
            .path_index(&[(composer, works), (composition, instruments)])
            .is_some());
        assert!(physical.selection_index(composer, name).is_some());
    }

    /// A typo'd budget must fail loudly, never run the unbounded default
    /// (the low-budget CI stage would be vacuous).
    #[test]
    fn garbage_memory_budget_is_rejected() {
        let err = parse_env_knob("OORQ_MEMORY_BUDGET", Some("8pages")).unwrap_err();
        assert!(err.contains("OORQ_MEMORY_BUDGET") && err.contains("8pages"));
        assert_eq!(parse_env_knob("OORQ_MEMORY_BUDGET", Some("8")), Ok(Some(8)));
        assert_eq!(parse_env_knob("OORQ_MEMORY_BUDGET", None), Ok(None));
    }
}
