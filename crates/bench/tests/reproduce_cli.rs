//! CLI contract of the `reproduce` binary: strict numeric environment
//! knobs, the section table as the only registry, one verdict line per
//! gate, a byte-deterministic `all` (CI diffs the release build's
//! against `reproduce_output.txt`), and fit sections that still emit
//! what the checked-in snapshots were fitted from.

use std::process::{Command, Output};

use oorq_bench::sections::SECTIONS;

fn reproduce(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn reproduce")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A cheap section that still goes through `main`'s env validation.
const CHEAP: &[&str] = &["lint", "--explain", "CX003"];

#[test]
fn unparseable_env_knobs_are_rejected() {
    for (var, value) in [("OORQ_THREADS", "four"), ("OORQ_MEMORY_BUDGET", "-3")] {
        let out = reproduce(CHEAP, &[(var, value)]);
        assert_eq!(out.status.code(), Some(2), "exit 2 on bad {var}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(var) && stderr.contains(value),
            "message must name the variable and the bad value, got: {stderr}"
        );
    }
}

#[test]
fn valid_env_values_are_accepted() {
    let out = reproduce(
        CHEAP,
        &[("OORQ_THREADS", "2"), ("OORQ_MEMORY_BUDGET", "16")],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).contains("CX003"));
}

/// `list` names every table row with a non-empty doc, and an unknown
/// section exits 2 listing the same names.
#[test]
fn the_table_is_the_only_registry() {
    let list = stdout(&reproduce(&["list"], &[]));
    let unknown = reproduce(&["no-such-section"], &[]);
    assert_eq!(unknown.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(stderr.contains("unknown section"));
    for s in SECTIONS {
        assert!(!s.doc.is_empty(), "{} has no doc", s.name);
        assert!(
            list.lines()
                .any(|l| l.starts_with(s.name) && l.contains(s.doc)),
            "`list` misses {}",
            s.name
        );
        assert!(
            stderr.split_whitespace().any(|w| w == s.name),
            "usage misses {}",
            s.name
        );
    }
}

/// `gates` runs every gate in one process and ends with one verdict
/// line per gate, in table order.
#[test]
fn gates_end_with_one_verdict_line_per_gate() {
    let out = reproduce(&["gates"], &[]);
    assert_eq!(out.status.code(), Some(0), "a gate failed: {out:?}");
    let text = stdout(&out);
    let verdicts: Vec<&str> = text
        .lines()
        .rev()
        .take_while(|l| *l != "== gates ==")
        .collect();
    let want: Vec<String> = SECTIONS
        .iter()
        .filter(|s| s.is_gate())
        .map(|s| format!("PASS: {}", s.name))
        .collect();
    assert_eq!(verdicts.into_iter().rev().collect::<Vec<_>>(), want);
}

/// Two `all` runs are byte-identical; a section that prints wall time
/// is never part of it (E10a's µs table is `strategies-time`; E10b, plan
/// quality, stays).
#[test]
fn all_is_deterministic_and_free_of_wall_time() {
    let first = stdout(&reproduce(&["all"], &[]));
    assert_eq!(first, stdout(&reproduce(&["all"], &[])));
    assert!(first.contains("=== E10b") && !first.contains("=== E10a"));
    for (name, in_all) in [
        ("strategies", true),
        ("strategies-time", false),
        ("parallel", false),
        ("metrics", false),
    ] {
        let s = SECTIONS.iter().find(|s| s.name == name).expect(name);
        assert_eq!(s.in_all(), in_all, "{name}");
    }
}

/// No calibration row of the corpus moved: both fits re-emit the
/// checked-in snapshots line for line. Three keys are exempt because
/// their checked-in values already predate the current estimator (the
/// fits stopped reproducing them before the corpus existed; the
/// snapshots are only replaced by a deliberate refit).
#[test]
fn fits_reemit_the_checked_in_snapshots() {
    const STALE: [&str; 3] = ["index_level", "write_page", "mass_scale"];
    let fitted = |t: &str| -> Vec<String> {
        t.lines()
            .filter(|l| !STALE.iter().any(|k| l.starts_with(k)))
            .map(str::to_string)
            .collect()
    };
    for (section, snapshot) in [
        ("calibrate-fit", include_str!("../../cost/calibrated.toml")),
        ("feedback-fit", include_str!("../../cost/fix_profiles.toml")),
    ] {
        let text = stdout(&reproduce(&[section], &[]));
        let (_, emitted) = text.split_once(".toml) ---\n").expect("snapshot marker");
        assert_eq!(
            fitted(emitted.trim_end()),
            fitted(snapshot.trim_end()),
            "{section}"
        );
    }
}
