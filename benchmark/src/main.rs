//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! anomex-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! anomex-benchmark run [--seed N] [--smoke] [--out F]             every workload, repeated
//! anomex-benchmark compare A.json B.json                           gate B against A
//! ```

mod adapter;
mod check;
mod corpus;
mod drive;
mod measure;
mod staged;
mod stats;
mod suite;
mod sys;
mod trace;

use std::process::ExitCode;

use corpus::Workload;
use measure::{Measured, Sizing};
use serde::Value;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  anomex-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n  \
         anomex-benchmark run [--seed <n>] [--smoke] [--out <file>]\n  \
         anomex-benchmark compare <base.json> <new.json>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Args {
        let mut parsed = Args { pairs: Vec::new(), flags: Vec::new(), positional: Vec::new() };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(flag) if flags.contains(&flag) => parsed.flags.push(flag.to_string()),
                Some(key) => match iter.next() {
                    Some(value) => parsed.pairs.push((key.to_string(), value.clone())),
                    None => parsed.positional.push(arg.clone()),
                },
                None => parsed.positional.push(arg.clone()),
            }
        }
        parsed
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// Whether every `--key value` pair is one of `keys`: an option a
    /// subcommand does not take is an error, not something to ignore.
    fn takes_only(&self, keys: &[&str]) -> bool {
        self.pairs.iter().all(|(key, _)| keys.contains(&key.as_str()))
    }
}

/// The line the driver reads: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(measured: &Measured) -> String {
    let metrics = measured
        .metrics
        .iter()
        .map(|&(name, value)| {
            let unit = measure::unit_of(name).expect("every reported metric is in the tables");
            let entry =
                vec![("value".into(), Value::F64(value)), ("unit".into(), Value::Str(unit.into()))];
            (name.to_string(), Value::Object(entry))
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(measured.correct)),
        ("attempted".into(), Value::U64(measured.attempted.max(1))),
        ("failed".into(), Value::U64(measured.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("metrics are finite")
}

fn single(args: &Args) -> ExitCode {
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        args.get("workload").and_then(Workload::parse),
        args.get("seed").and_then(|s| s.parse::<u64>().ok()),
        args.get("seconds").and_then(|s| s.parse::<f64>().ok()).filter(|s| *s > 0.0),
        args.get("trace").and_then(|s| s.parse::<u8>().ok()).filter(|t| *t <= 1),
    ) else {
        return usage();
    };
    let sizing = Sizing { seconds, smoke: args.flag("smoke") };
    let measured = match trace {
        0 => measure::end_to_end(workload, seed, sizing),
        _ => measure::traced(workload, seed, sizing),
    };
    if measured.metrics.iter().any(|(_, value)| !value.is_finite()) {
        eprintln!("a metric is not a finite number; refusing to report");
        return ExitCode::FAILURE;
    }
    // Two lines: what `run` wants to know beyond the contract, then the
    // contract's result line, last.
    let info = Value::Object(vec![
        ("laps".into(), Value::U64(measured.laps)),
        ("paced_valid".into(), Value::Bool(measured.paced_valid)),
    ]);
    println!("{}", serde_json::to_string(&info).expect("plain values"));
    println!("{}", result_line(&measured));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with `cargo run --release`");
        return ExitCode::FAILURE;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest, keys): (fn(&Args) -> ExitCode, _, &[&str]) =
        match argv.first().map(String::as_str) {
            Some("run") => (suite::run, &argv[1..], &["seed", "out"]),
            Some("compare") => (suite::compare, &argv[1..], &[]),
            Some(_) => (single, &argv[..], &["workload", "seed", "seconds", "trace"]),
            None => return usage(),
        };
    let args = Args::parse(rest, &["smoke"]);
    if !args.takes_only(keys) {
        return usage();
    }
    command(&args)
}
