//! CLI contract of the `reproduce` binary: strict numeric environment
//! knobs, the section table as the only registry, one verdict line per
//! figure that checks an invariant, a byte-deterministic `all` (CI diffs
//! the release build's against `reproduce_output.txt`), and a trace file
//! the in-repo checker accepts.

use std::process::{Command, Output};
use std::sync::OnceLock;

use oorq_bench::sections::{Kind, SECTIONS};

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

/// The stdout of two `reproduce all` runs made side by side, shared by
/// the tests that read them: they take most of this suite's time.
fn all_twice() -> &'static [String; 2] {
    static ALL: OnceLock<[String; 2]> = OnceLock::new();
    ALL.get_or_init(|| {
        let run = || {
            let out = reproduce(&["all"], &[]);
            assert_eq!(out.status.code(), Some(0), "a figure failed: {out:?}");
            stdout(&out)
        };
        std::thread::scope(|s| {
            let second = s.spawn(run);
            [run(), second.join().expect("second run")]
        })
    })
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

/// `all` carries exactly one verdict line per figure that checks an
/// invariant, `PASS` each, in table order.
#[test]
fn all_has_one_verdict_line_per_figure_gate() {
    let verdicts: Vec<&str> = all_twice()[0]
        .lines()
        .filter(|l| l.starts_with("PASS: "))
        .collect();
    let want: Vec<String> = SECTIONS
        .iter()
        .filter(|s| s.kind == Kind::FigureGate)
        .map(|s| format!("PASS: {}", s.name))
        .collect();
    assert_eq!(verdicts, want);
}

/// Two `all` runs are byte-identical; a section that prints wall time
/// is never part of it (E10a's µs table is `strategies-time`; E10b, plan
/// quality, stays; `metrics-gate` times the recorder).
#[test]
fn all_is_deterministic_and_free_of_wall_time() {
    let [first, second] = all_twice();
    assert_eq!(first, second);
    assert!(first.contains("=== E10b") && !first.contains("=== E10a"));
    for (name, in_all) in [
        ("strategies", true),
        ("strategies-time", false),
        ("metrics", false),
        ("fuzz", true),
        ("metrics-gate", false),
    ] {
        let s = SECTIONS.iter().find(|s| s.name == name).expect(name);
        assert_eq!(s.in_all(), in_all, "{name}");
    }
}

/// `trace <scenario> <dir>` writes the Chrome trace and nothing else,
/// and `trace-check` accepts it and rejects it cut in half.
#[test]
fn an_emitted_trace_passes_the_checker_and_a_cut_one_fails() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let out = reproduce(
        &["trace", "music-fig7", dir.to_str().expect("utf-8 path")],
        &[],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = dir.join("trace-music-fig7.json");
    assert!(json.is_file(), "{} not written", json.display());
    for ext in ["jsonl", "folded"] {
        let file = dir.join(format!("trace-music-fig7.{ext}"));
        assert!(!file.exists(), "{} written", file.display());
    }
    let check = |path: &std::path::Path| reproduce(&["trace-check", path.to_str().unwrap()], &[]);
    let ok = check(&json);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    assert!(stdout(&ok).contains("OK —"), "{ok:?}");

    let text = std::fs::read_to_string(&json).expect("trace readable");
    let half = (0..=text.len() / 2)
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .expect("0 is a boundary");
    let cut = dir.join("cut.json");
    std::fs::write(&cut, &text[..half]).expect("cut trace written");
    let bad = check(&cut);
    assert_ne!(bad.status.code(), Some(0), "a cut trace passed: {bad:?}");
}

/// `trace-check` on a file nested past the JSON reader's bound reports
/// it invalid, as a usage error, instead of overflowing its stack.
#[test]
fn a_deeply_nested_file_is_invalid_not_an_abort() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace-deep");
    std::fs::create_dir_all(&dir).expect("dir created");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).expect("deep file written");
    let out = reproduce(&["trace-check", deep.to_str().expect("utf-8 path")], &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("INVALID") && stderr.contains("nested too deeply"),
        "{stderr}"
    );
}
