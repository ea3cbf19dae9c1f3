//! The OORQ benchmark: OQL text in, answer bytes out through
//! `oorq-serve`, four workloads, end-to-end and per-layer metrics.
//!
//! ```text
//! oorq-benchmark run --workload W --seed N --seconds S --trace 0|1
//! oorq-benchmark suite [--seed N] [--quick]
//! oorq-benchmark compare A.json B.json
//! oorq-benchmark spread [--seeds N]
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod check;
mod compare;
mod inputs;
mod run;
mod served;
mod stats;
mod suite;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Workload;
use run::RunArgs;

/// Default seed: the paper's year.
const DEFAULT_SEED: u64 = 1992;

const USAGE: &str = "usage:
  oorq-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  oorq-benchmark suite [--seed <n>] [--quick] [--out <dir>]
  oorq-benchmark compare <a.json> <b.json> [--spec <BENCHMARK.json>]
  oorq-benchmark spread [--seeds <n>] [--seconds <s>] [--spec <BENCHMARK.json>]
workloads: warm-recursive cold-adhoc concurrent-mixed spill-closure";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let (mut flags, mut words) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("quick") => flags.push(("quick".to_string(), "1".to_string())),
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => words.push(a.clone()),
            }
        }
        Ok(Args { flags, words })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(name), default) {
            (Some(v), _) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("--{name} is required")),
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or("benchmark/out"))
    }
}

fn main_inner(argv: &[String]) -> Result<bool, String> {
    let (command, rest) = argv.split_first().ok_or(USAGE)?;
    let args = Args::parse(rest)?;
    match command.as_str() {
        "run" => {
            let name = args.get("workload").ok_or("--workload is required")?;
            let seconds: f64 = args.number("seconds", None)?;
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err(format!("--seconds {seconds} is out of range"));
            }
            let run_args = RunArgs {
                workload: Workload::from_name(name)
                    .ok_or(format!("unknown workload `{name}`\n{USAGE}"))?,
                seed: args.number("seed", Some(DEFAULT_SEED))?,
                seconds,
                trace: args.number::<u8>("trace", Some(0))? != 0,
                out_dir: args.out_dir(),
            };
            let result = run::run(&run_args)?;
            for e in &result.errors {
                eprintln!("error: {e}");
            }
            for m in &result.metrics {
                println!("{} {} {} {}", m.name, m.unit, m.value, m.n);
            }
            println!("{}", result.to_json().render());
            Ok(result.correct)
        }
        "suite" => suite::suite(
            args.number("seed", Some(DEFAULT_SEED))?,
            args.get("quick").is_some(),
            &args.out_dir(),
        ),
        "compare" => match args.words.as_slice() {
            [a, b] => compare::compare(a, b, args.get("spec").unwrap_or("BENCHMARK.json")),
            _ => Err(USAGE.to_string()),
        },
        "spread" => suite::spread(
            args.number("seeds", Some(10))?,
            args.number("seconds", Some(suite::RUN_SECONDS))?,
            &args.out_dir(),
            args.get("spec").unwrap_or("BENCHMARK.json"),
        ),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("oorq-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
