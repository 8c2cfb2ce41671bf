//! **P4 — detection engine throughput.**
//!
//! Intervals/sec through every incremental detector, the
//! incremental-vs-refit sliding-PCA head-to-head (the rank-one
//! update's whole point: per-interval cost independent of history
//! length), and the marginal cost of running a KL+PCA ensemble over a
//! single KL detector. Results land on stdout and in
//! `BENCH_detect.json` (override the path with `BENCH_DETECT_OUT`)
//! with mean/median/min ns per interval, so CI tracks the trajectory.
//!
//! Run: `cargo bench -p anomex-bench --bench perf_detect`
//! Passing `--test` — or running without `--bench`, which is what
//! `cargo test --benches` does — runs a small smoke version, writing
//! the gitignored `BENCH_detect_smoke.json` instead.

use std::net::Ipv4Addr;
use std::time::Instant;

use anomex_detect::interval::{IntervalStat, SummarySpec};
use anomex_detect::kl::{KlConfig, KlOnline};
use anomex_detect::pca::{PcaConfig, PcaMode, PcaSliding};
use anomex_detect::threshold::ThresholdMode;
use anomex_flow::record::FlowRecord;
use anomex_flow::sampling::Xoshiro256;
use anomex_flow::store::TimeRange;
use anomex_stream::prelude::{DetectorRegistry, DetectorSpec};
use anomex_stream::window::ClosedWindow;
use criterion::{black_box, summarize, Stats};
use serde::Value;

const WIDTH_MS: u64 = 60_000;

/// Deterministic synthetic closed windows with full summaries: enough
/// distribution structure that histograms and entropies do real work,
/// light enough that the model update dominates the measurement.
fn synth_series(n: usize, seed: u64) -> Vec<ClosedWindow> {
    let mut rng = Xoshiro256::seeded(seed);
    (0..n)
        .map(|t| {
            let range = TimeRange::window_at(t as u64, 0, WIDTH_MS);
            let flows = 180 + rng.next_below(60);
            let packets = 2 + rng.next_below(5);
            let bytes = packets * (400 + rng.next_below(800));
            let records: Vec<FlowRecord> = (0..flows)
                .map(|i| {
                    let mut value = || rng.next_below(4_096);
                    FlowRecord::builder()
                        .time(range.from_ms + i, range.from_ms + i + 1)
                        .src(Ipv4Addr::from(0x0A00_0000 + value() as u32), value() as u16)
                        .dst(Ipv4Addr::from(0xAC10_0000 + value() as u32), value() as u16)
                        .volume(packets, bytes)
                        .build()
                })
                .collect();
            let stat = IntervalStat::from_records(range, SummarySpec::FULL, &records);
            ClosedWindow { index: t as u64, range, stat, records: records.into() }
        })
        .collect()
}

/// Steady-state per-interval cost: cycle `chunk` pushes per sample,
/// `reps` samples, persistent detector state.
fn per_interval_ns<T>(mut push: impl FnMut(&T), series: &[T], chunk: usize, reps: usize) -> Stats {
    let mut samples = Vec::with_capacity(reps);
    let mut idx = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..chunk {
            push(&series[idx % series.len()]);
            idx += 1;
        }
        samples.push(start.elapsed().as_nanos() as f64 / chunk as f64);
    }
    summarize(&samples)
}

fn row(name: &str, stats: &Stats) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.0}", stats.mean),
        format!("{:.0}", stats.median),
        format!("{:.0}", stats.min),
        format!("{:.0}", 1e9 / stats.median.max(1.0)),
    ]
}

fn json_entry(name: &str, stats: &Stats) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("mean_ns".to_string(), Value::F64((stats.mean * 10.0).round() / 10.0)),
        ("median_ns".to_string(), Value::F64((stats.median * 10.0).round() / 10.0)),
        ("min_ns".to_string(), Value::F64((stats.min * 10.0).round() / 10.0)),
        ("samples".to_string(), Value::U64(stats.samples as u64)),
        ("intervals_per_sec".to_string(), Value::F64((1e9 / stats.median.max(1.0)).round())),
    ])
}

fn main() {
    // `cargo test --benches` passes no arguments (only `cargo bench`
    // passes `--bench`), so argless runs must be smoke runs — an
    // unoptimized full run would overwrite the committed record.
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test") || !args.iter().any(|a| a == "--bench");
    let (chunk, reps, slow_chunk, slow_reps) =
        if test_mode { (64, 4, 8, 2) } else { (256, 12, 16, 6) };
    let windows = synth_series(512, 0xDE7EC7);
    let series: Vec<IntervalStat> = windows.iter().map(|w| w.stat.clone()).collect();

    print!("{}", anomex_bench::fmt::banner("P4: detection engine (ns per interval)"));

    let mut rows = vec![vec![
        "detector".to_string(),
        "mean ns".to_string(),
        "median ns".to_string(),
        "min ns".to_string(),
        "intervals/sec".to_string(),
    ]];
    let mut results: Vec<Value> = Vec::new();

    // --- Incremental detectors, steady state. -------------------------
    let kl_config = KlConfig { interval_ms: WIDTH_MS, ..KlConfig::default() };
    let mut kl = KlOnline::new(kl_config);
    let stats = per_interval_ns(|s| drop(black_box(kl.push(s))), &series, chunk, reps);
    rows.push(row("kl/welford", &stats));
    results.push(json_entry("kl/welford", &stats));

    let mut kl_exact = KlOnline::new(KlConfig { threshold: ThresholdMode::Exact, ..kl_config });
    let stats = per_interval_ns(|s| drop(black_box(kl_exact.push(s))), &series, chunk, reps);
    rows.push(row("kl/exact", &stats));
    results.push(json_entry("kl/exact", &stats));

    let pca_config = PcaConfig { interval_ms: WIDTH_MS, ..PcaConfig::default() };
    let mut pca = PcaSliding::new(pca_config, 64);
    let stats = per_interval_ns(|s| drop(black_box(pca.push(s))), &series, chunk, reps);
    rows.push(row("pca/incremental h=64", &stats));
    results.push(json_entry("pca/incremental h=64", &stats));

    // --- Ensemble overhead: KL alone vs KL + PCA in one bank. ---------
    let solo = DetectorRegistry::kl(kl_config);
    let mut solo_bank = solo.build_bank();
    let solo_stats =
        per_interval_ns(|w| drop(black_box(solo_bank.push_window(w))), &windows, chunk, reps);
    rows.push(row("bank/kl", &solo_stats));
    results.push(json_entry("bank/kl", &solo_stats));

    let duo = DetectorRegistry::from_specs(&[
        DetectorSpec::Kl(kl_config),
        DetectorSpec::Pca(pca_config, 64),
    ]);
    let mut duo_bank = duo.build_bank();
    let duo_stats =
        per_interval_ns(|w| drop(black_box(duo_bank.push_window(w))), &windows, chunk, reps);
    rows.push(row("bank/kl+pca", &duo_stats));
    results.push(json_entry("bank/kl+pca", &duo_stats));
    let ensemble_overhead = duo_stats.median / solo_stats.median.max(1.0);

    print!("{}", anomex_bench::fmt::table(&rows));
    println!("ensemble overhead (kl+pca vs kl): {ensemble_overhead:.2}x\n");

    // --- Incremental vs refit head-to-head. ---------------------------
    // Warm each detector past its window so every measured push slides
    // a full window; the refit cost grows with history, the
    // incremental cost must not.
    let mut h2h_rows = vec![vec![
        "history".to_string(),
        "refit median ns".to_string(),
        "incremental median ns".to_string(),
        "speedup".to_string(),
    ]];
    let mut head_to_head: Vec<Value> = Vec::new();
    let mut speedup_at_256 = 0.0f64;
    for &history in &[64usize, 256] {
        let mut modes = Vec::new();
        for mode in [PcaMode::Refit, PcaMode::Incremental] {
            let mut det = PcaSliding::with_mode(pca_config, history, mode);
            for stat in series.iter().cycle().take(history + 1) {
                det.push(stat);
            }
            let (c, r) =
                if mode == PcaMode::Refit { (slow_chunk, slow_reps) } else { (chunk, reps) };
            modes.push(per_interval_ns(|s| drop(black_box(det.push(s))), &series, c, r));
        }
        let (refit, incremental) = (&modes[0], &modes[1]);
        let speedup = refit.median / incremental.median.max(1.0);
        if history == 256 {
            speedup_at_256 = speedup;
        }
        h2h_rows.push(vec![
            history.to_string(),
            format!("{:.0}", refit.median),
            format!("{:.0}", incremental.median),
            format!("{speedup:.1}x"),
        ]);
        head_to_head.push(Value::Object(vec![
            ("history".to_string(), Value::U64(history as u64)),
            ("refit_median_ns".to_string(), Value::F64(refit.median.round())),
            ("refit_mean_ns".to_string(), Value::F64(refit.mean.round())),
            ("refit_min_ns".to_string(), Value::F64(refit.min.round())),
            ("incremental_median_ns".to_string(), Value::F64(incremental.median.round())),
            ("incremental_mean_ns".to_string(), Value::F64(incremental.mean.round())),
            ("incremental_min_ns".to_string(), Value::F64(incremental.min.round())),
            ("speedup".to_string(), Value::F64((speedup * 10.0).round() / 10.0)),
        ]));
    }
    print!("{}", anomex_bench::fmt::table(&h2h_rows));
    assert!(
        speedup_at_256 >= 5.0,
        "incremental PCA must beat the O(history²) refit >=5x at history=256, got \
         {speedup_at_256:.1}x"
    );
    println!("incremental PCA beats refit {speedup_at_256:.0}x at history=256 (floor: 5x)");

    let doc = Value::Object(vec![
        ("bench".to_string(), Value::Str("perf_detect".to_string())),
        ("series_intervals".to_string(), Value::U64(series.len() as u64)),
        ("results".to_string(), Value::Array(results)),
        ("pca_head_to_head".to_string(), Value::Array(head_to_head)),
        ("ensemble_overhead".to_string(), Value::F64((ensemble_overhead * 100.0).round() / 100.0)),
    ]);
    let default_out = if test_mode { "BENCH_detect_smoke.json" } else { "BENCH_detect.json" };
    let path = std::env::var("BENCH_DETECT_OUT").unwrap_or_else(|_| default_out.to_string());
    let json = serde_json::to_string_pretty(&doc).expect("render bench json");
    std::fs::write(&path, json + "\n").expect("write bench json");
    println!("\nwrote {path}");
}
