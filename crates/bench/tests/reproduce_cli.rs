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
    let out = reproduce(CHEAP, &[("OORQ_MEMORY_BUDGET", "-3")]);
    assert_eq!(out.status.code(), Some(2), "exit 2 on a bad budget");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("OORQ_MEMORY_BUDGET") && stderr.contains("-3"),
        "message must name the variable and the bad value, got: {stderr}"
    );
}

#[test]
fn valid_env_values_are_accepted() {
    let out = reproduce(CHEAP, &[("OORQ_MEMORY_BUDGET", "16")]);
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
///
/// Since an equality against a literal is estimated from how often the
/// value is reached, and the snapshots were deliberately not refit with
/// it, three more lines are known to differ and exempt by section and
/// key — the `seed_scale` of the `music{0,1,2}/fig3/push` profiles,
/// which corrected the base-leg estimate that rule replaced (3 / 1.13 /
/// 2.28 checked in, 1.18 / 1.23 / 1.50 emitted) — and the two weights
/// fitted over those rows are held to [`DRIFT`] instead of to the digit
/// (`eval` 0.9959 checked in, 0.9610 emitted; `method` equal to four
/// digits). Every other line, the other ten `seed_scale`s included,
/// still has to come out as checked in.
#[test]
fn fits_reemit_the_checked_in_snapshots() {
    const STALE: [&str; 3] = ["index_level", "write_page", "mass_scale"];
    const RESEEDED: [&str; 3] = [
        "[music0/fig3/push/Influencer]",
        "[music1/fig3/push/Influencer]",
        "[music2/fig3/push/Influencer]",
    ];
    const DRIFTED: [&str; 2] = ["eval", "method"];
    const DRIFT: f64 = 0.05;
    // `(section, line)` of every line held, in order.
    let fitted = |t: &str| -> Vec<(String, String)> {
        let mut section = "";
        let mut held = Vec::new();
        for l in t.lines() {
            if l.starts_with('[') {
                section = l;
            }
            let reseeded = l.starts_with("seed_scale") && RESEEDED.contains(&section);
            if !reseeded && !STALE.iter().any(|k| l.starts_with(k)) {
                held.push((section.to_string(), l.to_string()));
            }
        }
        held
    };
    for (name, snapshot) in [
        ("calibrate-fit", include_str!("../../cost/calibrated.toml")),
        ("feedback-fit", include_str!("../../cost/fix_profiles.toml")),
    ] {
        let text = stdout(&reproduce(&[name], &[]));
        let (_, emitted) = text.split_once(".toml) ---\n").expect("snapshot marker");
        let (emitted, snapshot) = (fitted(emitted.trim_end()), fitted(snapshot.trim_end()));
        assert_eq!(emitted.len(), snapshot.len(), "{name}: {emitted:#?}");
        for (new, old) in emitted.iter().zip(&snapshot) {
            match (new.1.split_once(" = "), old.1.split_once(" = ")) {
                (Some((key, new)), Some((old_key, old)))
                    if key == old_key && DRIFTED.contains(&key) =>
                {
                    let (new, old): (f64, f64) = (new.parse().expect(key), old.parse().expect(key));
                    assert!(
                        (new / old - 1.0).abs() <= DRIFT,
                        "{name}: {key} = {new}, checked in {old}"
                    );
                }
                _ => assert_eq!(new, old, "{name}"),
            }
        }
    }
}
