//! The `run` and `compare` subcommands: every workload repeated in
//! fresh child processes and summarised, and two such summaries gated
//! against each other with the benchmark's own bounds.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde::Value;

use crate::corpus::{Workload, PACED_RPS};
use crate::measure::{out_dir, Spec, END_TO_END, PER_LAYER};
use crate::stats;
use crate::sys;
use crate::Args;

/// Measuring time of one run; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: u64 = 10;
/// Measuring time of a smoke run: two laps of the open-loop workload.
const SMOKE_SECONDS: f64 = 0.5;
/// Timed repetitions per workload (one untimed warm-up comes first).
/// Nine, so that the quartiles leave out the two most extreme runs on
/// either side: on the shared reference box one run in five meets a
/// burst of host interference.
const REPS: usize = 9;

/// One child run's two stdout lines, parsed.
struct Child {
    correct: bool,
    failed: u64,
    paced_valid: bool,
    laps: u64,
    metrics: Vec<(String, f64)>,
}

fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    value.as_object().map_or(&Value::Null, |fields| Value::field(fields, name))
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::F64(n) => Some(*n),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn spawn(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: u8,
    smoke: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload.name(), "--seed", &seed.to_string()]);
    command.args(["--seconds", &seconds.to_string(), "--trace", &trace.to_string()]);
    if smoke {
        command.arg("--smoke");
    }
    // stderr is inherited: the child's progress lines and layer table
    // appear as it runs. `output` waits for the child to end.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} trace {trace}: child exited with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| -> Result<Value, String> {
        serde_json::from_str(line.ok_or("child printed too little")?).map_err(|e| e.to_string())
    };
    let result = parse(lines.next())?;
    let info = parse(lines.next())?;
    let metrics = field(&result, "metrics")
        .as_object()
        .ok_or("child result has no metrics")?
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), number(field(entry, "value"))?)))
        .collect();
    Ok(Child {
        correct: field(&result, "correct") == &Value::Bool(true),
        failed: number(field(&result, "failed")).unwrap_or(f64::MAX) as u64,
        paced_valid: field(&info, "paced_valid") == &Value::Bool(true),
        laps: number(field(&info, "laps")).unwrap_or(0.0) as u64,
        metrics,
    })
}

fn out_path(args: &Args, smoke: bool) -> PathBuf {
    match args.get("out") {
        Some(path) => PathBuf::from(path),
        None => out_dir().join(if smoke { "results_smoke.json" } else { "results.json" }),
    }
}

fn better(spec: &Spec) -> &'static str {
    if spec.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// `run`: one warm-up and [`REPS`] timed end-to-end runs per workload,
/// round-robin so drift hits every workload alike, then one traced run
/// each; prints every metric and writes the results file.
pub fn run(args: &Args) -> ExitCode {
    let smoke = args.flag("smoke");
    let seed = args.get("seed").and_then(|s| s.parse().ok()).unwrap_or(1u64);
    let seconds = if smoke { SMOKE_SECONDS } else { RUN_SECONDS as f64 };
    let reps = if smoke { 1 } else { REPS };

    let mut e2e: Vec<Vec<Child>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    let mut traced: Vec<Child> = Vec::new();
    let mut broken = Vec::new();
    for rep in 0..reps + usize::from(!smoke) {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            match spawn(workload, seed, seconds, 0, smoke) {
                Ok(child) if rep == 0 && !smoke => drop(child), // warm-up
                Ok(child) => e2e[w].push(child),
                Err(error) => broken.push(error),
            }
        }
    }
    for workload in Workload::ALL {
        match spawn(workload, seed, seconds, 1, smoke) {
            Ok(child) => traced.push(child),
            Err(error) => broken.push(error),
        }
    }
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for child in e2e[w].iter().chain(traced.get(w)) {
            if !child.correct || child.failed > 0 {
                broken.push(format!(
                    "{}: correctness gate failed ({} failed operations)",
                    workload.name(),
                    child.failed
                ));
            }
        }
    }
    if !broken.is_empty() || traced.len() != Workload::ALL.len() {
        for problem in &broken {
            eprintln!("FAILED: {problem}");
        }
        eprintln!("no metrics are reported for an incorrect run");
        return ExitCode::FAILURE;
    }

    let mut rows = Vec::new();
    println!("end-to-end (telemetry off; median [q1 .. q3] over {reps} runs of {seconds} s, seed {seed})");
    for spec in &END_TO_END {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            let values: Vec<f64> = e2e[w]
                .iter()
                .filter_map(|c| c.metrics.iter().find(|(n, _)| n == spec.name).map(|(_, v)| *v))
                .collect();
            let median = stats::median(&values).unwrap_or(0.0);
            let (q1, q3) = stats::quartiles(&values).unwrap_or((median, median));
            println!(
                "  {:<24} {:<22} {:>14.4} [{:.4} .. {:.4}] {}",
                spec.name,
                workload.name(),
                median,
                q1,
                q3,
                spec.unit
            );
            rows.push(Value::Object(vec![
                ("metric".into(), Value::Str(spec.name.into())),
                ("workload".into(), Value::Str(workload.name().into())),
                ("unit".into(), Value::Str(spec.unit.into())),
                ("better".into(), Value::Str(better(spec).into())),
                ("bound".into(), Value::F64(spec.bound)),
                ("values".into(), Value::Array(values.iter().map(|v| Value::F64(*v)).collect())),
                ("median".into(), Value::F64(median)),
                ("q1".into(), Value::F64(q1)),
                ("q3".into(), Value::F64(q3)),
            ]));
        }
    }
    let mut layers = Vec::new();
    println!("per layer (one traced run per workload)");
    for spec in &PER_LAYER {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            let value =
                traced[w].metrics.iter().find(|(n, _)| n == spec.name).map_or(0.0, |(_, v)| *v);
            println!("  {:<34} {:<22} {:>14.4} {}", spec.name, workload.name(), value, spec.unit);
            layers.push(Value::Object(vec![
                ("metric".into(), Value::Str(spec.name.into())),
                ("workload".into(), Value::Str(workload.name().into())),
                ("unit".into(), Value::Str(spec.unit.into())),
                ("value".into(), Value::F64(value)),
            ]));
        }
    }
    let per_workload = |of: &dyn Fn(usize) -> Value| {
        Value::Object(
            Workload::ALL
                .into_iter()
                .enumerate()
                .map(|(w, wl)| (wl.name().to_string(), of(w)))
                .collect(),
        )
    };
    let laps = per_workload(&|w| {
        let laps: Vec<f64> = e2e[w].iter().map(|c| c.laps as f64).collect();
        Value::F64(stats::median(&laps).unwrap_or(0.0))
    });
    let paced_valid = per_workload(&|w| Value::Bool(e2e[w].iter().all(|c| c.paced_valid)));
    let results = Value::Object(vec![
        ("claim".into(), Value::Null),
        (
            "stamp".into(),
            Value::Object(vec![
                ("nproc".into(), Value::U64(sys::nproc() as u64)),
                ("cpu_model".into(), Value::Str(sys::cpu_model())),
                ("rustc".into(), Value::Str(sys::rustc_version())),
                ("commit".into(), Value::Str(sys::commit())),
                ("seed".into(), Value::U64(seed)),
                ("paced_rps".into(), Value::U64(PACED_RPS)),
                ("run_seconds".into(), Value::F64(seconds)),
                ("reps".into(), Value::U64(reps as u64)),
                ("smoke".into(), Value::Bool(smoke)),
                ("laps".into(), laps),
                ("paced_valid".into(), paced_valid),
            ]),
        ),
        ("end_to_end".into(), Value::Array(rows)),
        ("per_layer".into(), Value::Array(layers)),
    ]);
    let path = out_path(args, smoke);
    let written = path.parent().map_or(Ok(()), std::fs::create_dir_all).and_then(|()| {
        std::fs::write(&path, serde_json::to_string_pretty(&results).expect("finite numbers"))
    });
    match written {
        Ok(()) => {
            println!("results written to {}", path.display());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("cannot write {}: {error}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// One (metric, workload) row of a results file.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    metric: String,
    workload: String,
    higher_is_better: bool,
    bound: f64,
    median: f64,
    q1: f64,
    q3: f64,
}

fn rows_of(results: &Value) -> Vec<Row> {
    field(results, "end_to_end")
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(|row| {
            Some(Row {
                metric: field(row, "metric").as_str()?.to_string(),
                workload: field(row, "workload").as_str()?.to_string(),
                higher_is_better: field(row, "better").as_str()? == "higher",
                bound: number(field(row, "bound"))?,
                median: number(field(row, "median"))?,
                q1: number(field(row, "q1"))?,
                q3: number(field(row, "q3"))?,
            })
        })
        .collect()
}

/// The gate's verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when better).
fn worsening(base: &Row, new: &Row) -> f64 {
    let change = (new.median - base.median) / base.median;
    if base.higher_is_better {
        -change
    } else {
        change
    }
}

/// `unresolved` when either side's quartile spread exceeds the bound
/// (the runs cannot resolve a change of that size); `worse` or `better`
/// when the new median differs by more than the bound — which, once
/// resolved, is wider than either side's own spread; else `same`. Two
/// files of unpaired runs cannot carry a gain claim on their own (that
/// takes alternating pairs); `better` only says the medians moved.
fn judge(base: &Row, new: &Row) -> Verdict {
    let spread = |row: &Row| (row.q3 - row.q1) / row.median;
    let worse_by = worsening(base, new);
    if spread(base) > base.bound || spread(new) > base.bound {
        Verdict::Unresolved
    } else if worse_by > base.bound {
        Verdict::Worse
    } else if -worse_by > base.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Stamp fields that size or seed the runs: two files that differ in one
/// measured different things and are not compared.
const MUST_MATCH: [&str; 4] = ["smoke", "seed", "run_seconds", "paced_rps"];
/// Stamp fields that name the machine: a difference is worth a warning.
const SHOULD_MATCH: [&str; 2] = ["nproc", "cpu_model"];

/// The stamp fields among `names` on which two results files differ, as
/// `name: base vs new`.
fn stamp_differences(base: &Value, new: &Value, names: &[&str]) -> Vec<String> {
    let show = |value: &Value| serde_json::to_string(value).unwrap_or_default();
    names
        .iter()
        .map(|name| (name, field(field(base, "stamp"), name), field(field(new, "stamp"), name)))
        .filter(|(_, base, new)| base != new)
        .map(|(name, base, new)| format!("{name}: {} vs {}", show(base), show(new)))
        .collect()
}

/// `compare <base.json> <new.json>`: one row per (metric, workload);
/// non-zero exit when any row is `worse`, exit 2 when the two files were
/// not run alike.
pub fn compare(args: &Args) -> ExitCode {
    let [base_path, new_path] = args.positional.as_slice() else {
        eprintln!("usage: compare <base.json> <new.json>");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(base), Ok(new)) => (base, new),
        (Err(error), _) | (_, Err(error)) => {
            eprintln!("{error}");
            return ExitCode::from(2);
        }
    };
    let unlike = stamp_differences(&base, &new, &MUST_MATCH);
    if !unlike.is_empty() {
        eprintln!("{base_path} and {new_path} were not run alike ({})", unlike.join("; "));
        return ExitCode::from(2);
    }
    for difference in stamp_differences(&base, &new, &SHOULD_MATCH) {
        eprintln!("warning: the two files come from different machines ({difference})");
    }
    let (base, new) = (rows_of(&base), rows_of(&new));
    println!(
        "{:<24} {:<22} {:>26} {:>26} {:>9} {:>6}  verdict",
        "metric", "workload", "base median [q1..q3]", "new median [q1..q3]", "worse by", "bound"
    );
    let mut worse = 0;
    let mut compared = 0;
    for b in &base {
        let Some(n) = new.iter().find(|n| n.metric == b.metric && n.workload == b.workload) else {
            println!("{:<24} {:<22} missing from {new_path}", b.metric, b.workload);
            worse += 1;
            continue;
        };
        let verdict = judge(b, n);
        compared += 1;
        worse += usize::from(verdict == Verdict::Worse);
        println!(
            "{:<24} {:<22} {:>26} {:>26} {:>+8.1}% {:>5.0}%  {}",
            b.metric,
            b.workload,
            format!("{:.4} [{:.4}..{:.4}]", b.median, b.q1, b.q3),
            format!("{:.4} [{:.4}..{:.4}]", n.median, n.q1, n.q3),
            worsening(b, n) * 100.0,
            b.bound * 100.0,
            match verdict {
                Verdict::Same => "same",
                Verdict::Better => "better",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    println!(
        "{compared} rows compared against {base_path} (ratios are new over base), {worse} worse"
    );
    if worse > 0 || compared == 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(higher: bool, median: f64, q1: f64, q3: f64) -> Row {
        Row {
            metric: "m".into(),
            workload: "w".into(),
            higher_is_better: higher,
            bound: 0.10,
            median,
            q1,
            q3,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = row(true, 100.0, 99.0, 101.0);
        assert_eq!(judge(&base, &row(true, 100.5, 99.5, 101.5)), Verdict::Same);
        assert_eq!(judge(&base, &row(true, 95.0, 94.0, 96.0)), Verdict::Same, "within the bound");
        assert_eq!(judge(&base, &row(true, 89.0, 88.0, 90.0)), Verdict::Worse);
        assert_eq!(judge(&base, &row(true, 104.0, 103.0, 105.0)), Verdict::Same);
        assert_eq!(judge(&base, &row(true, 111.0, 110.0, 112.0)), Verdict::Better);
        // Lower-is-better metrics flip the direction.
        let latency = row(false, 10.0, 9.9, 10.1);
        assert_eq!(judge(&latency, &row(false, 11.5, 11.4, 11.6)), Verdict::Worse);
        assert_eq!(judge(&latency, &row(false, 8.9, 8.8, 9.0)), Verdict::Better);
        // A spread wider than the bound on either side resolves nothing.
        assert_eq!(judge(&base, &row(true, 80.0, 70.0, 90.0)), Verdict::Unresolved);
        assert_eq!(
            judge(&row(true, 100.0, 90.0, 110.0), &row(true, 100.0, 99.0, 101.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn benchmark_json_agrees_with_the_tables_in_the_source() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract: Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(number(field(&contract, "run_seconds")), Some(RUN_SECONDS as f64));
        let names = |key: &str| -> Vec<String> {
            field(&contract, key)
                .as_array()
                .unwrap()
                .iter()
                .map(|entry| field(entry, "name").as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), Workload::ALL.map(|w| w.name().to_string()));
        for (key, specs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            assert_eq!(names(key), specs.iter().map(|s| s.name.to_string()).collect::<Vec<_>>());
            for (entry, spec) in field(&contract, key).as_array().unwrap().iter().zip(specs) {
                assert_eq!(field(entry, "unit").as_str(), Some(spec.unit), "{}", spec.name);
                assert_eq!(field(entry, "better").as_str(), Some(better(spec)), "{}", spec.name);
                if key == "end_to_end" {
                    assert_eq!(number(field(entry, "bound")), Some(spec.bound), "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn stamps_that_size_the_runs_must_match_and_machine_stamps_only_warn() {
        let stamped = |stamp: &str| -> Value {
            serde_json::from_str(&format!(r#"{{"stamp": {stamp}, "end_to_end": []}}"#)).unwrap()
        };
        let full = stamped(
            r#"{"nproc": 2, "cpu_model": "x", "seed": 1, "paced_rps": 800000, "run_seconds": 10.0, "smoke": false}"#,
        );
        let smoke = stamped(
            r#"{"nproc": 4, "cpu_model": "x", "seed": 1, "paced_rps": 800000, "run_seconds": 0.5, "smoke": true}"#,
        );
        assert!(stamp_differences(&full, &full, &MUST_MATCH).is_empty());
        assert_eq!(
            stamp_differences(&full, &smoke, &MUST_MATCH),
            vec!["smoke: false vs true", "run_seconds: 10.0 vs 0.5"]
        );
        assert_eq!(stamp_differences(&full, &smoke, &SHOULD_MATCH), vec!["nproc: 2 vs 4"]);
        // A file without a stamp is unlike a stamped one.
        let bare: Value = serde_json::from_str(r#"{"end_to_end": []}"#).unwrap();
        assert_eq!(stamp_differences(&full, &bare, &MUST_MATCH).len(), MUST_MATCH.len());
    }

    #[test]
    fn results_rows_round_trip_through_json() {
        let text = r#"{"claim": null, "end_to_end": [
            {"metric": "throughput_rps", "workload": "wire_quiet", "unit": "records/s",
             "better": "higher", "bound": 0.25, "values": [1.0, 2.0], "median": 1.5, "q1": 0.75, "q3": 2.25}]}"#;
        let rows = rows_of(&serde_json::from_str::<Value>(text).unwrap());
        assert_eq!(rows.len(), 1);
        assert!(rows[0].higher_is_better);
        assert_eq!(
            (rows[0].median, rows[0].q1, rows[0].q3, rows[0].bound),
            (1.5, 0.75, 2.25, 0.25)
        );
    }
}
