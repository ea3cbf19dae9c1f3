//! Regenerates every figure and worked example of the paper.
//!
//! Usage: `reproduce [section] [args] [--memory-budget N]`.
//! `reproduce list` prints every section with its arguments — the table
//! in `oorq_bench::sections` is the only registry. `reproduce all` (the
//! default) prints the deterministic sections, byte-identical to the
//! checked-in `reproduce_output.txt`; a section there that checks an
//! invariant ends with its `PASS: <name>` line.
//!
//! Exit status: 0 on success, 1 when a gate fails (it prints its report
//! to stderr and `FAIL: <name>` to stdout), 2 on a usage
//! error — an unknown section, a malformed flag, or an
//! `OORQ_MEMORY_BUDGET` that does not parse, whatever the section.

use oorq_bench::scenarios::parse_env_knob;
use oorq_bench::sections::{Args, Section, SECTIONS};

fn usage(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    std::process::exit(2);
}

/// A numeric knob: the flag beats the environment variable; absent both,
/// 0. The variable is validated even when the flag is given.
fn knob(flag: Option<u64>, var: &str) -> u64 {
    let raw = std::env::var(var).ok();
    let env = parse_env_knob(var, raw.as_deref()).unwrap_or_else(|e| usage(&e));
    flag.or(env).unwrap_or(0)
}

/// Split the command line into the section name and its [`Args`].
fn parse_args() -> (String, Args) {
    let (mut budget, mut rest) = (None, Vec::new());
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        if a != "--memory-budget" {
            rest.push(a);
            continue;
        }
        match argv.next().and_then(|v| v.parse().ok()) {
            Some(v) => budget = Some(v),
            None => usage(&format!("usage: reproduce <section> [{a} <N>]")),
        }
    }
    let section = if rest.is_empty() {
        "all".to_string()
    } else {
        rest.remove(0)
    };
    let args = Args {
        rest,
        memory_budget: knob(budget, "OORQ_MEMORY_BUDGET"),
    };
    (section, args)
}

/// Run one section; `true` when it passed. A gate prints its report and
/// a `PASS`/`FAIL` line; any other section's failure is a usage error.
fn run(s: &Section, args: &Args) -> bool {
    match (s.run)(args) {
        Ok(report) => {
            println!("{report}");
            if s.is_gate() {
                println!("PASS: {}", s.name);
            }
            true
        }
        Err(report) if s.is_gate() => {
            eprintln!("{report}");
            println!("FAIL: {}", s.name);
            false
        }
        Err(e) => usage(&format!("{}: {e}", s.name)),
    }
}

fn main() {
    let (section, args) = parse_args();
    let ok = match section.as_str() {
        "list" => {
            for s in SECTIONS {
                println!("{:<16} {}", s.name, s.doc);
            }
            println!(
                "{:<16} every deterministic section above (the default)",
                "all"
            );
            true
        }
        "all" => {
            let mut ok = true;
            for s in SECTIONS.iter().filter(|s| s.in_all()) {
                ok &= run(s, &Args::default());
            }
            ok
        }
        name => match SECTIONS.iter().find(|s| s.name == name) {
            Some(s) => run(s, &args),
            None => {
                let names: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
                usage(&format!(
                    "unknown section `{name}`\nknown sections:\n  {} all list",
                    names.join(" ")
                ))
            }
        },
    };
    if !ok {
        std::process::exit(1);
    }
}
