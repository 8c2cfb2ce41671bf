//! `ab <base-root> <change-root> --workload W --pairs N [--seed S]`:
//! paired A/B runs of two built repo benchmarks.
//!
//! Each root is a checkout whose benchmark is already built
//! (`cargo build --release --offline --manifest-path <root>/benchmark/Cargo.toml`).
//! The two binaries run alternately, each from its own root, the change
//! first on odd pairs and the base first on even ones, so host drift
//! over the run lands on both sides alike. Each run is one
//! `--workload W --seed S --seconds T --trace 0` invocation, where `T`
//! is the `run_seconds` of the change root's `BENCHMARK.json`, so both
//! sides run as long as the benchmark itself does; its last stdout line
//! is the result JSON.
//!
//! Printed per end-to-end metric of the change root's `BENCHMARK.json`:
//! both sides' median and quartiles, the median of the per-pair
//! change/base ratios, how many pairs the change won, the change's own
//! quartile spread, and whether the gain would carry a claim (won at
//! least nine pairs in ten, and the medians differ in the better
//! direction by more than the base's interquartile range). Exits
//! non-zero when any run is not `correct`, has `failed > 0`, or does
//! not produce a result line.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde::Value;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    base: PathBuf,
    change: PathBuf,
    workload: String,
    pairs: usize,
    seed: u64,
}

const USAGE: &str = "usage: cargo run -p xtask -- ab <base-root> <change-root> --workload W \
                     --pairs N [--seed S]";

/// Parse the arguments after `ab`.
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut roots = Vec::new();
    let (mut workload, mut pairs, mut seed) = (None, None, 1u64);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            roots.push(PathBuf::from(arg));
            continue;
        };
        let value = iter.next().ok_or_else(|| format!("--{key} needs a value"))?;
        let bad = || format!("bad value for --{key}: {value}");
        match key {
            "workload" => workload = Some(value.clone()),
            "pairs" => {
                pairs = Some(value.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(bad)?)
            }
            "seed" => seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown option --{key}")),
        }
    }
    let [base, change]: [PathBuf; 2] =
        roots.try_into().map_err(|_| "expected exactly two roots: <base> <change>".to_string())?;
    Ok(Options {
        base,
        change,
        workload: workload.ok_or("--workload is required")?,
        pairs: pairs.ok_or("--pairs is required")?,
        seed,
    })
}

/// One benchmark run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn valid(&self) -> bool {
        self.correct && self.failed == 0
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

fn field<'a>(object: &'a Value, key: &str) -> Option<&'a Value> {
    match object {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

/// Parse a result line: `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
pub fn parse_result(line: &str) -> Result<RunResult, String> {
    let json: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e:?}"))?;
    let correct = matches!(field(&json, "correct"), Some(Value::Bool(true)));
    let failed = field(&json, "failed").and_then(number).ok_or("result line lacks `failed`")?;
    let Some(Value::Object(entries)) = field(&json, "metrics") else {
        return Err("result line lacks `metrics`".into());
    };
    let metrics = entries
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), field(entry, "value").and_then(number)?)))
        .collect();
    Ok(RunResult { correct, failed: failed as u64, metrics })
}

/// What `ab` reads from a `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Length of one run, in seconds.
    pub run_seconds: f64,
    /// The end-to-end metrics, with whether higher is better.
    pub metrics: Vec<(String, bool)>,
}

/// Parse a `BENCHMARK.json`: its `run_seconds` and `end_to_end` metrics.
pub fn benchmark(benchmark_json: &str) -> Result<Benchmark, String> {
    let json: Value =
        serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let run_seconds = field(&json, "run_seconds")
        .and_then(number)
        .filter(|s| *s > 0.0)
        .ok_or("BENCHMARK.json lacks a positive `run_seconds`")?;
    let Some(Value::Array(rows)) = field(&json, "end_to_end") else {
        return Err("BENCHMARK.json lacks `end_to_end`".into());
    };
    let metrics = rows
        .iter()
        .map(|row| match (field(row, "name"), field(row, "better")) {
            (Some(Value::Str(name)), Some(Value::Str(better))) => {
                Ok((name.clone(), better == "higher"))
            }
            _ => Err("an end_to_end entry lacks `name` or `better`".to_string()),
        })
        .collect::<Result<_, _>>()?;
    Ok(Benchmark { run_seconds, metrics })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method (Python's
/// `statistics.quantiles(v, n=4)`, as the benchmark computes them);
/// both equal the value for a single sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let m = data.len();
    if m < 2 {
        let only = data.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One metric over the paired runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Base median, first and third quartile.
    pub base: (f64, f64, f64),
    /// Change median, first and third quartile.
    pub change: (f64, f64, f64),
    /// Median of the per-pair change/base ratios.
    pub ratio: f64,
    /// Pairs in which the change was strictly better.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The change's interquartile range over its median.
    pub spread: f64,
    /// Won nine pairs in ten and moved the median, in the better
    /// direction, by more than the base's interquartile range.
    pub claimable: bool,
}

/// Summarize one metric over `base[i]` / `change[i]` pairs.
pub fn summarize(higher_better: bool, base: &[f64], change: &[f64]) -> Summary {
    assert_eq!(base.len(), change.len(), "paired samples");
    let stats = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (median(v), q1, q3)
    };
    let (b, c) = (stats(base), stats(change));
    let ratios: Vec<f64> = base
        .iter()
        .zip(change)
        .map(|(&b, &c)| if b == 0.0 && c == 0.0 { 1.0 } else { c / b })
        .collect();
    let better = |c: f64, b: f64| if higher_better { c > b } else { c < b };
    let wins = base.iter().zip(change).filter(|&(&b, &c)| better(c, b)).count();
    let pairs = base.len();
    let moved = better(c.0, b.0) && (c.0 - b.0).abs() > b.2 - b.1;
    Summary {
        base: b,
        change: c,
        ratio: median(&ratios),
        wins,
        pairs,
        spread: if c.0 == 0.0 { 0.0 } else { (c.2 - c.1) / c.0.abs() },
        claimable: wins * 10 >= pairs * 9 && moved,
    }
}

fn binary(root: &Path) -> PathBuf {
    root.join("benchmark/target/release/anomex-benchmark")
}

/// One benchmark run of `seconds` from `root`.
fn run_once(root: &Path, opts: &Options, seconds: f64) -> Result<RunResult, String> {
    let output = Command::new(binary(root))
        .args(["--workload", &opts.workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("{}: {e}", binary(root).display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().filter(|_| output.status.success()).ok_or_else(|| {
        format!("run from {} failed: {}", root.display(), String::from_utf8_lossy(&output.stderr))
    })?;
    parse_result(line)
}

/// The `ab` task.
pub fn main(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("xtask ab: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    for root in [&opts.base, &opts.change] {
        if !binary(root).is_file() {
            eprintln!(
                "xtask ab: no benchmark binary under {} — build it first: cargo build --release \
                 --offline --manifest-path {}",
                root.display(),
                root.join("benchmark/Cargo.toml").display()
            );
            return ExitCode::FAILURE;
        }
    }
    let bench = match std::fs::read_to_string(opts.change.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| benchmark(&text))
    {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("xtask ab: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (mut base_runs, mut change_runs) = (Vec::new(), Vec::new());
    for pair in 1..=opts.pairs {
        let change_first = pair % 2 == 1;
        for is_change in [change_first, !change_first] {
            let root = if is_change { &opts.change } else { &opts.base };
            let result = match run_once(root, &opts, bench.run_seconds) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("xtask ab: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "pair {pair}/{} {}: correct={} failed={}",
                opts.pairs,
                if is_change { "change" } else { "base" },
                result.correct,
                result.failed
            );
            if is_change { &mut change_runs } else { &mut base_runs }.push(result);
        }
    }

    println!(
        "{} seed {}, {} pairs of {} s runs (change first on odd pairs)",
        opts.workload, opts.seed, opts.pairs, bench.run_seconds
    );
    println!(
        "{:<24} {:>38} {:>38} {:>8} {:>6} {:>7}  claim",
        "metric", "base median [q1..q3]", "change median [q1..q3]", "ratio", "wins", "spread"
    );
    for (name, higher_better) in &bench.metrics {
        let column = |runs: &[RunResult]| -> Option<Vec<f64>> {
            runs.iter().map(|r| r.metric(name)).collect()
        };
        let (Some(base), Some(change)) = (column(&base_runs), column(&change_runs)) else {
            continue;
        };
        let s = summarize(*higher_better, &base, &change);
        let cell = |(m, q1, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}..{q3:.4}]");
        println!(
            "{:<24} {:>38} {:>38} {:>8.3} {:>3}/{:<2} {:>6.1}%  {}",
            name,
            cell(s.base),
            cell(s.change),
            s.ratio,
            s.wins,
            s.pairs,
            100.0 * s.spread,
            if s.claimable { "yes" } else { "no" }
        );
    }
    let invalid = base_runs.iter().chain(&change_runs).filter(|r| !r.valid()).count();
    if invalid > 0 {
        eprintln!("xtask ab: {invalid} run(s) not correct or with failed operations");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_counts_wins_in_the_better_direction() {
        let base = [10.0, 12.0, 11.0, 9.0];
        let change = [20.0, 11.0, 22.0, 18.0];
        let up = summarize(true, &base, &change);
        assert_eq!(up.wins, 3);
        assert_eq!(up.pairs, 4);
        // Per-pair ratios 2.0, 0.9167, 2.0, 2.0: median 2.0.
        assert_eq!(up.ratio, 2.0);
        assert!(!up.claimable, "3 of 4 is below nine in ten");
        let down = summarize(false, &base, &change);
        assert_eq!(down.wins, 1, "lower-is-better counts the other way");
        assert!(!down.claimable);
    }

    #[test]
    fn a_claim_needs_nine_in_ten_and_a_move_beyond_the_base_iqr() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let wide: Vec<f64> = base.iter().map(|b| b * 2.0).collect();
        let s = summarize(true, &base, &wide);
        assert_eq!(s.wins, 10);
        assert!(s.claimable);
        // Wins every pair but moves the median by less than the IQR.
        let narrow: Vec<f64> = base.iter().map(|b| b + 0.5).collect();
        let s = summarize(true, &base, &narrow);
        assert_eq!(s.wins, 10);
        assert!(!s.claimable, "a 0.5 move inside a {}-wide IQR", s.base.2 - s.base.1);
        let spread = summarize(true, &base, &base).spread;
        assert!((spread - (107.25 - 101.75) / 104.5).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn parses_result_lines_and_benchmark_directions() {
        let line = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"throughput_rps":{"value":5.5,"unit":"records/s"},"peak_rss_mb":{"value":42,"unit":"MiB"}}}"#;
        let run = parse_result(line).unwrap();
        assert!(run.valid());
        assert_eq!(run.metric("throughput_rps"), Some(5.5));
        assert_eq!(run.metric("peak_rss_mb"), Some(42.0));
        let bad = parse_result(r#"{"correct":false,"attempted":3,"failed":1,"metrics":{}}"#);
        assert!(!bad.unwrap().valid());
        let bench = r#"{"run_seconds":10,"end_to_end":[{"name":"throughput_rps","better":"higher"},{"name":"setup_s","better":"lower"}]}"#;
        assert_eq!(
            benchmark(bench).unwrap(),
            Benchmark {
                run_seconds: 10.0,
                metrics: vec![("throughput_rps".to_string(), true), ("setup_s".to_string(), false)]
            }
        );
        assert!(benchmark(r#"{"end_to_end":[]}"#).is_err(), "no run_seconds");
    }

    #[test]
    fn parses_the_command_line() {
        let opts = parse(&args("a b --workload wire_quiet --pairs 10")).unwrap();
        assert_eq!(opts.base, PathBuf::from("a"));
        assert_eq!(opts.change, PathBuf::from("b"));
        assert_eq!((opts.pairs, opts.seed), (10, 1));
        let opts = parse(&args("a b --workload w --pairs 2 --seed 7")).unwrap();
        assert_eq!(opts.seed, 7);
        assert!(parse(&args("a --workload w --pairs 2")).is_err(), "one root");
        assert!(parse(&args("a b --pairs 2")).is_err(), "no workload");
        assert!(parse(&args("a b --workload w --pairs 0")).is_err(), "zero pairs");
        assert!(parse(&args("a b --workload w --pairs 2 --trace 1")).is_err(), "unknown option");
        assert!(
            parse(&args("a b --workload w --pairs 2 --seconds 3")).is_err(),
            "run length is fixed"
        );
    }
}
