//! **P5 — streaming ingest throughput: channel, batching, sharding.**
//!
//! Five measurements, all landing on stdout and in `BENCH_stream.json`
//! (override the path with `BENCH_STREAM_OUT`), with a rolling
//! `history` array so the perf trajectory survives across commits:
//!
//! 1. **Channel microbench** — messages/sec through one producer ×
//!    one consumer, comparing the pre-PR-5 `Mutex<VecDeque>` channel
//!    (re-created locally below) against the lock-free MPMC ring now
//!    in `vendor/crossbeam`: per-message and batched range-claim (one
//!    CAS reserves the whole run). Asserts the range-claim path beats
//!    the mutex per-message baseline ≥ 3×.
//! 2. **Ingest batch-size curve** — end-to-end pipeline records/sec on
//!    a quiet (alarm-free) corpus at `ingest_batch` 1/16/64/256/512: the
//!    sender-side amortization knob isolated from mining cost.
//! 3. **Ingest shard curve** — the same quiet corpus at 1/2/4/8 shards
//!    (plus the host's core count when it isn't one of those).
//! 4. **Detect+extract end-to-end** — the scan corpus (alarms fire,
//!    itemsets mined) across the same shard counts, with per-stage
//!    attribution (`shard.apply_ns`, `merge.offer_ns`,
//!    `detect.*.push_ns`) attached to every curve point so the record
//!    says *which* stage stops scaling, not just that the curve bends.
//!    A second sweep varies `detector_workers` 0/1/2 at fixed shards
//!    to price the detector pool, and a third varies
//!    `extraction_workers` 0/1 to price the async extraction hand-off —
//!    asserting (on multicore, non-smoke runs) that dispatching a
//!    window to the extraction worker stalls the control loop at most
//!    ~1 ms at p99 (`extract.pool.stall_ns` bucket bound 2^20−1 ns).
//! 5. **Instrumentation overhead + stage breakdown** — the quiet-corpus
//!    ingest path with the telemetry timing layer on vs off (asserted
//!    within 3% in full runs), plus per-stage timing means and
//!    watermark-lag gauges from the instrumented scan run. The full
//!    final metrics snapshot lands in `BENCH_stream_metrics.json` as a
//!    CI artifact next to the bench JSON.
//!
//! Run: `cargo bench -p anomex-bench --bench perf_stream`
//! Sizing: `STREAM_BENCH_FLOWS=500000` scales the corpora; passing
//! `--test` — or running without `--bench`, which is what
//! `cargo test --benches` does — switches to a small smoke run,
//! which writes `BENCH_stream_smoke.json` and
//! `BENCH_stream_metrics_smoke.json` (gitignored) so it can never
//! clobber the committed full-run record.
//!
//! Caveat: shard *scaling* needs physical cores. The harness is
//! core-count-aware: every history entry records `cpus` (from
//! `std::thread::available_parallelism`) so a 1-CPU CI run can never
//! masquerade as multicore evidence. On a single CPU expect
//! flat-to-slightly-declining numbers with shard count, not speedup.
//! The committed history's `pr4-seed` entry records the mutex-channel
//! baseline measured on the same container.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use anomex_bench::fmt;
use anomex_detect::kl::KlConfig;
use anomex_gen::prelude::*;
use anomex_stream::prelude::*;
use serde::Value;

const WIDTH_MS: u64 = 60_000;
const WINDOWS: u64 = 8;

// ---------------------------------------------------------------------------
// The pre-PR-5 channel, reconstructed as the microbench baseline: a
// Mutex<VecDeque> with two condvars, locking once per send and once
// per recv_many batch — exactly what the pipeline shipped before the
// lock-free ring replaced it.
// ---------------------------------------------------------------------------

struct MutexChannel<T> {
    state: Mutex<VecDeque<T>>,
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> MutexChannel<T> {
    fn new(cap: usize) -> Arc<MutexChannel<T>> {
        Arc::new(MutexChannel {
            state: Mutex::new(VecDeque::new()),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        })
    }

    fn send(&self, msg: T) {
        let mut queue = self.state.lock().unwrap();
        while queue.len() >= self.cap {
            queue = self.not_full.wait(queue).unwrap();
        }
        queue.push_back(msg);
        drop(queue);
        self.not_empty.notify_one();
    }

    /// The seed had no batched send; pushing the whole batch under one
    /// lock is the closest mutex analogue of `send_many`.
    fn send_many(&self, batch: &mut Vec<T>) {
        let mut pending = batch.drain(..);
        loop {
            let mut queue = self.state.lock().unwrap();
            while queue.len() >= self.cap {
                queue = self.not_full.wait(queue).unwrap();
            }
            while queue.len() < self.cap {
                match pending.next() {
                    Some(msg) => queue.push_back(msg),
                    None => {
                        drop(queue);
                        self.not_empty.notify_one();
                        return;
                    }
                }
            }
            drop(queue);
            self.not_empty.notify_one();
        }
    }

    /// `None` signals end-of-stream (the bench closes by count).
    fn recv_many(&self, buf: &mut Vec<T>, max: usize, expected_total: &mut usize) -> usize {
        if *expected_total == 0 {
            return 0;
        }
        let mut queue = self.state.lock().unwrap();
        loop {
            if !queue.is_empty() {
                let take = max.min(queue.len());
                buf.extend(queue.drain(..take));
                drop(queue);
                self.not_full.notify_all();
                *expected_total -= take;
                return take;
            }
            queue = self.not_empty.wait(queue).unwrap();
        }
    }
}

/// messages/sec for one producer × one consumer over the mutex channel.
fn bench_mutex_channel(total: usize, batched: bool) -> f64 {
    let channel = MutexChannel::<u64>::new(1_024);
    let producer_side = Arc::clone(&channel);
    let start = Instant::now();
    let producer = std::thread::spawn(move || {
        if batched {
            let mut batch = Vec::with_capacity(64);
            for i in 0..total as u64 {
                batch.push(i);
                if batch.len() == 64 {
                    producer_side.send_many(&mut batch);
                }
            }
            producer_side.send_many(&mut batch);
        } else {
            for i in 0..total as u64 {
                producer_side.send(i);
            }
        }
    });
    let mut remaining = total;
    let mut buf = Vec::with_capacity(256);
    let mut checksum = 0u64;
    while channel.recv_many(&mut buf, 256, &mut remaining) > 0 {
        checksum = checksum.wrapping_add(buf.iter().sum::<u64>());
        buf.clear();
    }
    producer.join().unwrap();
    assert_eq!(checksum, (0..total as u64).sum::<u64>().wrapping_mul(1), "lost messages");
    total as f64 / start.elapsed().as_secs_f64()
}

/// How the ring microbench moves batches: the historical per-message
/// path, or the range-claim batched path (one CAS reserves the whole
/// contiguous run).
#[derive(Clone, Copy, PartialEq)]
enum RingMode {
    PerMessage,
    RangeClaim,
}

/// messages/sec for one producer × one consumer over the lock-free ring.
fn bench_ring_channel(total: usize, mode: RingMode) -> f64 {
    let (tx, rx) = crossbeam::channel::bounded::<u64>(1_024);
    let start = Instant::now();
    let producer = std::thread::spawn(move || match mode {
        RingMode::PerMessage => {
            for i in 0..total as u64 {
                tx.send(i).unwrap();
            }
        }
        RingMode::RangeClaim => {
            let mut batch = Vec::with_capacity(64);
            for i in 0..total as u64 {
                batch.push(i);
                if batch.len() == 64 {
                    tx.send_many(&mut batch).unwrap();
                }
            }
            tx.send_many(&mut batch).unwrap();
        }
    });
    let mut buf = Vec::with_capacity(256);
    let mut checksum = 0u64;
    let mut got = 0usize;
    while got < total {
        let n = rx.recv_many(&mut buf, 256);
        assert!(n > 0, "producer disconnected early");
        got += n;
        checksum = checksum.wrapping_add(buf.iter().sum::<u64>());
        buf.clear();
    }
    producer.join().unwrap();
    assert_eq!(checksum, (0..total as u64).sum::<u64>(), "lost messages");
    total as f64 / start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// End-to-end pipeline runs.
// ---------------------------------------------------------------------------

fn corpus(
    total_flows: usize,
    with_scan: bool,
) -> (Vec<anomex_flow::record::FlowRecord>, anomex_flow::store::TimeRange) {
    let mut scenario = Scenario::new("perf-stream", 0x57_12EA, Backbone::Geant);
    if with_scan {
        let mut spec = AnomalySpec::template(
            AnomalyKind::PortScan,
            "10.3.0.99".parse().unwrap(),
            "172.16.5.5".parse().unwrap(),
        );
        spec.flows = total_flows / 6;
        spec.start_ms = 6 * WIDTH_MS;
        spec.duration_ms = WIDTH_MS;
        scenario = scenario.with_anomaly(spec);
        scenario.background.flows = total_flows - total_flows / 6;
    } else {
        scenario.background.flows = total_flows;
    }
    scenario.background.duration_ms = WINDOWS * WIDTH_MS;
    let built = scenario.build();
    let mut records = built.store.snapshot();
    records.sort_by_key(|r| r.start_ms);
    (records, scenario.window())
}

struct RunResult {
    records_per_sec: f64,
    elapsed_ms: f64,
    alarms: u64,
    reports: u64,
    /// The pipeline's final telemetry emission (stage timings and
    /// event-time gauges live in its snapshot when `telemetry` was on).
    metrics: Option<MetricsReport>,
}

#[allow(clippy::too_many_arguments)] // bench harness knob-set, not a public API
fn run_pipeline(
    records: &[anomex_flow::record::FlowRecord],
    span: anomex_flow::store::TimeRange,
    shards: usize,
    ingest_batch: usize,
    telemetry: bool,
    detector_workers: usize,
    extraction_workers: usize,
    pin_shards: bool,
) -> RunResult {
    let config = StreamConfig {
        shards,
        queue_depth: 4_096,
        ingest_batch,
        lateness_ms: 30_000,
        watermark_every: 512,
        span: Some(span),
        detectors: DetectorRegistry::kl(KlConfig { interval_ms: WIDTH_MS, ..KlConfig::default() }),
        detector_workers,
        extraction_workers,
        pin_shards,
        retain_windows: 2,
        // Final-report-only cadence: the bench wants the run's totals,
        // not periodic emissions on the timed path.
        metrics: MetricsConfig { enabled: telemetry, report_every_windows: 0, report_queue: 4 },
        ..StreamConfig::default()
    };
    let start = Instant::now();
    let (mut ingest, reports) = anomex_stream::pipeline::launch(config);
    let telemetry_rx = ingest.metrics_reports().expect("telemetry subscription");
    ingest.push_batch(records.iter().cloned());
    let stats = ingest.finish();
    let drained = reports.iter().count() as u64;
    let elapsed = start.elapsed();
    assert_eq!(stats.ingested, records.len() as u64, "pipeline lost records");
    assert_eq!(stats.send_failures, 0, "no worker may disconnect mid-bench");
    assert_eq!(drained, stats.reports, "report channel lost reports");
    let mut metrics = None;
    while let Ok(report) = telemetry_rx.try_recv() {
        metrics = Some(report);
    }
    RunResult {
        records_per_sec: stats.ingested as f64 / elapsed.as_secs_f64(),
        elapsed_ms: elapsed.as_secs_f64() * 1_000.0,
        alarms: stats.alarms,
        reports: stats.reports,
        metrics,
    }
}

/// Best-of-`reps` throughput: on a shared/1-CPU host, scheduler noise
/// only ever *subtracts* records/sec, so the maximum over a few
/// repetitions is the stable estimator (the same reasoning behind the
/// criterion stand-in's trimmed-min reporting).
fn best_of(reps: usize, mut run: impl FnMut() -> RunResult) -> RunResult {
    let mut best = run();
    for _ in 1..reps {
        let next = run();
        if next.records_per_sec > best.records_per_sec {
            best = next;
        }
    }
    best
}

fn best_rate_of(reps: usize, mut run: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| run()).fold(f64::MIN, f64::max)
}

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

/// Mean of a named stage histogram from a run's final telemetry
/// snapshot (0.0 when the stage never fired or telemetry was off).
fn run_hist_mean(run: &RunResult, name: &str) -> f64 {
    run.metrics.as_ref().and_then(|m| m.snapshot.histogram(name)).map_or(0.0, |h| h.mean())
}

/// The per-stage attribution attached to every shard-curve point:
/// which stage's cost moves as shards scale is the whole point of the
/// curve, so the record carries it instead of a single opaque rate.
fn stage_attribution(run: &RunResult) -> Vec<(&'static str, Value)> {
    vec![
        ("shard_apply_mean_ns", Value::F64(round1(run_hist_mean(run, "shard.apply_ns")))),
        ("merge_offer_mean_ns", Value::F64(round1(run_hist_mean(run, "merge.offer_ns")))),
        ("detect_kl_push_mean_ns", Value::F64(round1(run_hist_mean(run, "detect.kl.push_ns")))),
        ("merge_batch_reports_mean", Value::F64(round1(run_hist_mean(run, "merge.batch_reports")))),
    ]
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Carry the `history` array of a previous `BENCH_stream.json` forward
/// (empty when the file is absent or unparseable), capped to the most
/// recent entries.
fn load_history(path: &str) -> Vec<Value> {
    const KEEP: usize = 20;
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(Value::Object(fields)) = serde_json::from_str::<Value>(&text) else {
        return Vec::new();
    };
    for (key, value) in fields {
        if key == "history" {
            if let Value::Array(mut entries) = value {
                if entries.len() > KEEP {
                    entries.drain(..entries.len() - KEEP);
                }
                return entries;
            }
        }
    }
    Vec::new()
}

fn main() {
    // Full mode only under `cargo bench` (which passes `--bench`) and
    // without an explicit `--test`. `cargo test --benches` passes no
    // arguments at all, so it must land in smoke mode — a full run
    // there would both take minutes and overwrite the committed
    // `BENCH_*.json` records from an unoptimized build.
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test") || !args.iter().any(|a| a == "--bench");
    let total_flows: usize = std::env::var("STREAM_BENCH_FLOWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if test_mode { 20_000 } else { 150_000 });
    let channel_msgs: usize = if test_mode { 100_000 } else { 2_000_000 };
    // Best-of-N against scheduler noise; a single rep in smoke mode.
    let reps = if test_mode { 1 } else { 3 };

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    print!("{}", fmt::banner("P5: streaming ingest (channel / batching / sharding)"));
    println!("host: {cpus} cpu(s) available to this process\n");
    if cpus == 1 {
        println!(
            "NOTE: single-CPU host — shard curves measure overhead, not scaling;\n\
             every JSON record carries cpus={cpus} so this cannot read as multicore evidence\n"
        );
    }

    // --- 1. Channel microbench. -----------------------------------------
    println!("channel: {channel_msgs} u64 messages, cap 1024, 1 producer x 1 consumer\n");
    let mutex_permsg = best_rate_of(reps, || bench_mutex_channel(channel_msgs, false));
    let mutex_batched = best_rate_of(reps, || bench_mutex_channel(channel_msgs, true));
    let ring_permsg = best_rate_of(reps, || bench_ring_channel(channel_msgs, RingMode::PerMessage));
    let ring_batched =
        best_rate_of(reps, || bench_ring_channel(channel_msgs, RingMode::RangeClaim));
    let mut rows = vec![vec![
        "channel".to_string(),
        "mode".to_string(),
        "msgs/sec".to_string(),
        "vs mutex per-msg".to_string(),
    ]];
    let mut channel_measurements: Vec<Value> = Vec::new();
    for (name, mode, ops) in [
        ("mutex (pre-PR5)", "per-message", mutex_permsg),
        ("mutex (pre-PR5)", "batched 64", mutex_batched),
        ("ring", "per-message", ring_permsg),
        ("ring", "batched 64 range-claim", ring_batched),
    ] {
        rows.push(vec![
            name.to_string(),
            mode.to_string(),
            format!("{ops:.0}"),
            format!("{:.2}x", ops / mutex_permsg),
        ]);
        channel_measurements.push(obj(vec![
            ("impl", Value::Str(name.to_string())),
            ("mode", Value::Str(mode.to_string())),
            ("msgs_per_sec", Value::F64(round1(ops))),
            (
                "speedup_vs_mutex_per_message",
                Value::F64(round1(ops / mutex_permsg * 100.0) / 100.0),
            ),
        ]));
    }
    print!("{}", fmt::table(&rows));
    let channel_speedup = ring_batched / mutex_permsg;
    println!(
        "\nring range-claim vs mutex per-message: {channel_speedup:.2}x (acceptance floor 3x)\n"
    );
    if !test_mode {
        assert!(
            channel_speedup >= 3.0,
            "lock-free ring regressed below the 3x acceptance floor: {channel_speedup:.2}x"
        );
    }

    // --- 2 + 3. Ingest-bound corpus: batch curve and shard curve. --------
    let (quiet, quiet_span) = corpus(total_flows, false);
    println!(
        "ingest-bound corpus (no alarms, extraction idle): {} records over {} windows\n",
        quiet.len(),
        WINDOWS
    );
    let mut rows =
        vec![vec!["ingest_batch".to_string(), "records/sec".to_string(), "elapsed ms".to_string()]];
    let mut batch_curve: Vec<Value> = Vec::new();
    let mut best_ingest = 0f64;
    for &batch in &[1usize, 16, 64, 256, 512] {
        let run = best_of(reps, || run_pipeline(&quiet, quiet_span, 1, batch, true, 0, 0, false));
        assert_eq!(run.alarms, 0, "quiet corpus must stay quiet");
        best_ingest = best_ingest.max(run.records_per_sec);
        rows.push(vec![
            batch.to_string(),
            format!("{:.0}", run.records_per_sec),
            format!("{:.1}", run.elapsed_ms),
        ]);
        batch_curve.push(obj(vec![
            ("ingest_batch", Value::U64(batch as u64)),
            ("records_per_sec", Value::F64(round1(run.records_per_sec))),
            ("elapsed_ms", Value::F64(round1(run.elapsed_ms))),
        ]));
    }
    print!("{}", fmt::table(&rows));
    println!();

    // Core-count-aware shard sweep: the canonical 1/2/4/8 points plus
    // the host's actual core count when it isn't already in the list,
    // so a 6- or 16-core runner commits its own saturation point.
    let mut shard_counts = vec![1usize, 2, 4, 8];
    if !shard_counts.contains(&cpus) {
        shard_counts.push(cpus);
        shard_counts.sort_unstable();
    }
    // Best-effort core pinning only helps (and only means anything)
    // with more than one core; leave the 1-CPU record unpinned.
    let pin = cpus > 1;

    let mut rows =
        vec![vec!["shards".to_string(), "records/sec".to_string(), "elapsed ms".to_string()]];
    let mut ingest_shard_curve: Vec<Value> = Vec::new();
    for &shards in &shard_counts {
        let run = best_of(reps, || run_pipeline(&quiet, quiet_span, shards, 512, true, 0, 0, pin));
        rows.push(vec![
            shards.to_string(),
            format!("{:.0}", run.records_per_sec),
            format!("{:.1}", run.elapsed_ms),
        ]);
        let mut fields = vec![
            ("shards", Value::U64(shards as u64)),
            ("records_per_sec", Value::F64(round1(run.records_per_sec))),
            ("elapsed_ms", Value::F64(round1(run.elapsed_ms))),
        ];
        fields.extend(stage_attribution(&run));
        ingest_shard_curve.push(obj(fields));
    }
    print!("{}", fmt::table(&rows));
    println!();

    // --- 4. Detect + extract end-to-end on the scan corpus. --------------
    let (scan, scan_span) = corpus(total_flows, true);
    println!("detect+extract corpus (scan in window 7, itemsets mined): {} records\n", scan.len());
    let mut rows = vec![vec![
        "shards".to_string(),
        "records/sec".to_string(),
        "elapsed ms".to_string(),
        "alarms".to_string(),
        "shard.apply ns".to_string(),
        "merge.offer ns".to_string(),
        "detect.kl ns".to_string(),
    ]];
    let mut extract_curve: Vec<Value> = Vec::new();
    let mut scan_metrics: Option<MetricsReport> = None;
    for &shards in &shard_counts {
        let run = best_of(reps, || run_pipeline(&scan, scan_span, shards, 512, true, 0, 0, pin));
        assert!(run.alarms >= 1, "scan corpus must alarm");
        rows.push(vec![
            shards.to_string(),
            format!("{:.0}", run.records_per_sec),
            format!("{:.1}", run.elapsed_ms),
            run.alarms.to_string(),
            format!("{:.0}", run_hist_mean(&run, "shard.apply_ns")),
            format!("{:.0}", run_hist_mean(&run, "merge.offer_ns")),
            format!("{:.0}", run_hist_mean(&run, "detect.kl.push_ns")),
        ]);
        let mut fields = vec![
            ("shards", Value::U64(shards as u64)),
            ("records_per_sec", Value::F64(round1(run.records_per_sec))),
            ("elapsed_ms", Value::F64(round1(run.elapsed_ms))),
            ("alarms", Value::U64(run.alarms)),
            ("reports", Value::U64(run.reports)),
        ];
        fields.extend(stage_attribution(&run));
        extract_curve.push(obj(fields));
        if shards == 1 {
            scan_metrics = run.metrics;
        }
    }
    print!("{}", fmt::table(&rows));
    println!();

    // Detector-pool sweep at fixed shards: workers=0 is the inline
    // bank on the control thread; 1/2 move detector pushes off it
    // (output is bit-identical either way — this prices the handoff).
    let pool_shards = shard_counts[shard_counts.len() / 2];
    println!("detector pool sweep (scan corpus, {pool_shards} shards)\n");
    let mut rows = vec![vec![
        "detector_workers".to_string(),
        "records/sec".to_string(),
        "elapsed ms".to_string(),
        "alarms".to_string(),
    ]];
    let mut pool_curve: Vec<Value> = Vec::new();
    for &workers in &[0usize, 1, 2] {
        let run = best_of(reps, || {
            run_pipeline(&scan, scan_span, pool_shards, 512, true, workers, 0, pin)
        });
        assert!(run.alarms >= 1, "scan corpus must alarm regardless of detector scheduling");
        rows.push(vec![
            workers.to_string(),
            format!("{:.0}", run.records_per_sec),
            format!("{:.1}", run.elapsed_ms),
            run.alarms.to_string(),
        ]);
        pool_curve.push(obj(vec![
            ("detector_workers", Value::U64(workers as u64)),
            ("records_per_sec", Value::F64(round1(run.records_per_sec))),
            ("elapsed_ms", Value::F64(round1(run.elapsed_ms))),
            ("alarms", Value::U64(run.alarms)),
        ]));
    }
    print!("{}", fmt::table(&rows));
    println!();

    // Extraction-pool sweep at the same fixed shard count: workers=0
    // mines inline on the control thread; 1 hands every closed window
    // to the dedicated extraction worker (bit-identical output — this
    // prices the hand-off and measures the control-loop stall). The
    // stall histogram records 0 for every clean try_send, so its p99 is
    // the control thread's worst-case blocked time per dispatch.
    println!("extraction pool sweep (scan corpus, {pool_shards} shards)\n");
    let mut rows = vec![vec![
        "extraction_workers".to_string(),
        "records/sec".to_string(),
        "elapsed ms".to_string(),
        "stall p99 ns".to_string(),
        "dict hit rate".to_string(),
    ]];
    let mut extract_pool_curve: Vec<Value> = Vec::new();
    let mut pooled_stall_p99: Option<u64> = None;
    for &workers in &[0usize, 1] {
        let run = best_of(reps, || {
            run_pipeline(&scan, scan_span, pool_shards, 512, true, 0, workers, pin)
        });
        assert!(run.alarms >= 1, "scan corpus must alarm regardless of extraction scheduling");
        let snapshot = &run.metrics.as_ref().expect("telemetry on").snapshot;
        let stall = snapshot.histogram("extract.pool.stall_ns").cloned().unwrap_or_default();
        let stall_p99 = stall.quantile_bound(0.99);
        let (hits, misses) =
            (snapshot.counter("extract.dict_hits"), snapshot.counter("extract.dict_misses"));
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        rows.push(vec![
            workers.to_string(),
            format!("{:.0}", run.records_per_sec),
            format!("{:.1}", run.elapsed_ms),
            if workers == 0 { "-".to_string() } else { stall_p99.to_string() },
            format!("{:.2}", hit_rate),
        ]);
        extract_pool_curve.push(obj(vec![
            ("extraction_workers", Value::U64(workers as u64)),
            ("records_per_sec", Value::F64(round1(run.records_per_sec))),
            ("elapsed_ms", Value::F64(round1(run.elapsed_ms))),
            ("alarms", Value::U64(run.alarms)),
            ("stall_dispatches", Value::U64(stall.count)),
            ("stall_p99_ns", Value::U64(stall_p99)),
            ("stall_mean_ns", Value::F64(round1(stall.mean()))),
            (
                "queue_depth_last",
                snapshot.gauge("extract.queue_depth").map_or(Value::Null, Value::U64),
            ),
            ("dict_hits", Value::U64(hits)),
            ("dict_misses", Value::U64(misses)),
        ]));
        if workers >= 1 {
            assert!(stall.count > 0, "pooled run must observe at least one dispatch");
            pooled_stall_p99 = Some(stall_p99);
        }
    }
    print!("{}", fmt::table(&rows));
    let pooled_stall_p99 = pooled_stall_p99.expect("pooled sweep ran");
    // The tentpole's latency target: handing a window to the extraction
    // worker stalls the control loop ≤ 1 ms at p99. The histogram is
    // power-of-two bucketed, so the enforceable bound is the bucket
    // containing 1 ms: 2^20−1 ns. A 1-CPU host serializes the worker
    // and the control thread on one core, so the measurement means
    // nothing there — skip (not fail), exactly like the shard curves.
    const STALL_P99_CEILING_NS: u64 = (1 << 20) - 1;
    if test_mode || cpus == 1 {
        println!(
            "\nextraction stall p99 {pooled_stall_p99} ns — assertion SKIPPED \
             ({})\n",
            if test_mode { "smoke run" } else { "single-CPU host" }
        );
    } else {
        println!(
            "\nextraction stall p99 {pooled_stall_p99} ns (ceiling {STALL_P99_CEILING_NS} ns)\n"
        );
        assert!(
            pooled_stall_p99 <= STALL_P99_CEILING_NS,
            "extraction dispatch stalls the control loop {pooled_stall_p99} ns at p99, \
             above the 1 ms (2^20-1 ns bucket) acceptance ceiling"
        );
    }

    // --- 5. Instrumentation overhead + per-stage breakdown. --------------
    // The telemetry layer's whole budget is "free enough to leave on":
    // hold the instrumented ingest path within 3% of the uninstrumented
    // one (counters run in both modes; the delta is the timing layer).
    let on = best_of(reps, || run_pipeline(&quiet, quiet_span, 1, 512, true, 0, 0, false));
    let off = best_of(reps, || run_pipeline(&quiet, quiet_span, 1, 512, false, 0, 0, false));
    let overhead_pct = (off.records_per_sec / on.records_per_sec - 1.0) * 100.0;
    println!(
        "instrumentation: {:.0} records/sec on vs {:.0} off -> overhead {overhead_pct:.2}% \
         (ceiling 3%)\n",
        on.records_per_sec, off.records_per_sec
    );
    // Like the stall ceiling above, the on/off delta is meaningless on a
    // single-CPU host: the two runs land in different contention windows
    // and the recorded history swings tens of percent in both directions
    // there (including telemetry-on measuring *faster*).
    if test_mode || cpus == 1 {
        println!(
            "telemetry overhead assertion SKIPPED ({})\n",
            if test_mode { "smoke run" } else { "single-CPU host" }
        );
    } else {
        assert!(
            overhead_pct <= 3.0,
            "telemetry overhead {overhead_pct:.2}% exceeds the 3% acceptance ceiling"
        );
    }

    let scan_metrics = scan_metrics.expect("instrumented scan run emitted telemetry");
    let stage_ns = |name: &str| match scan_metrics.snapshot.histogram(name) {
        Some(h) => {
            obj(vec![("count", Value::U64(h.count)), ("mean_ns", Value::F64(round1(h.mean())))])
        }
        None => Value::Null,
    };
    let hist_mean = |name: &str| {
        Value::F64(round1(scan_metrics.snapshot.histogram(name).map_or(0.0, |h| h.mean())))
    };
    let gauge = |name: &str| match scan_metrics.snapshot.gauge(name) {
        Some(v) => Value::U64(v),
        None => Value::Null,
    };
    let stage_breakdown = obj(vec![
        ("shard_apply", stage_ns("shard.apply_ns")),
        ("merge_offer", stage_ns("merge.offer_ns")),
        ("detect_kl_push", stage_ns("detect.kl.push_ns")),
        ("extract_encode", stage_ns("extract.encode_ns")),
        ("extract_mine", stage_ns("extract.mine_ns")),
    ]);
    let watermark_health = obj(vec![
        ("broadcast_ms", gauge("watermark.broadcast_ms")),
        ("lag_event_ms", gauge("watermark.lag_event_ms")),
        ("frontier_skew_ms", gauge("watermark.frontier_skew_ms")),
    ]);
    let mut rows = vec![vec!["stage".to_string(), "samples".to_string(), "mean ns".to_string()]];
    for name in [
        "shard.apply_ns",
        "merge.offer_ns",
        "detect.kl.push_ns",
        "extract.encode_ns",
        "extract.mine_ns",
    ] {
        if let Some(h) = scan_metrics.snapshot.histogram(name) {
            rows.push(vec![name.to_string(), h.count.to_string(), format!("{:.0}", h.mean())]);
        }
    }
    print!("{}", fmt::table(&rows));

    // The full final snapshot (1-shard scan run) lands next to the
    // bench JSON for the CI artifact.
    let metrics_path =
        if test_mode { "BENCH_stream_metrics_smoke.json" } else { "BENCH_stream_metrics.json" };
    let metrics_json =
        serde_json::to_string_pretty(&scan_metrics).expect("render metrics snapshot");
    std::fs::write(metrics_path, metrics_json + "\n").expect("write metrics snapshot");
    println!("\nwrote {metrics_path}");

    // --- Emit JSON with rolling history. ---------------------------------
    // Smoke runs land in a separate (gitignored) file: BENCH_stream.json
    // is a committed perf record, and a --test run silently overwriting
    // it would invalidate every claim that cites it.
    let default_path = if test_mode { "BENCH_stream_smoke.json" } else { "BENCH_stream.json" };
    let path = std::env::var("BENCH_STREAM_OUT").unwrap_or_else(|_| default_path.to_string());
    let mut history = load_history(&path);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    history.push(obj(vec![
        ("label", Value::Str(if test_mode { "smoke".into() } else { "full".into() })),
        ("unix_time", Value::U64(unix_time)),
        // Every entry records the cores it was measured on: a 1-CPU CI
        // run must never masquerade as multicore scaling evidence.
        ("cpus", Value::U64(cpus as u64)),
        ("channel_ring_batched_msgs_per_sec", Value::F64(round1(ring_batched))),
        ("channel_mutex_per_message_msgs_per_sec", Value::F64(round1(mutex_permsg))),
        ("ingest_best_records_per_sec", Value::F64(round1(best_ingest))),
        (
            "extract_e2e_1shard_records_per_sec",
            extract_curve
                .first()
                .and_then(|v| match v {
                    Value::Object(fields) => {
                        fields.iter().find_map(|(k, v)| (k == "records_per_sec").then(|| v.clone()))
                    }
                    _ => None,
                })
                .unwrap_or(Value::Null),
        ),
        // The full shard-scaling curve with per-stage attribution rides
        // in the history so regressions in *where* time goes — not just
        // the headline rate — survive across commits.
        ("extract_e2e_shard_curve", Value::Array(extract_curve.clone())),
        ("detector_pool_curve", Value::Array(pool_curve.clone())),
        // The extraction-pool sweep rides in the history whole: each
        // point carries the stall histogram summary (count/p99/mean),
        // the last observed extract.queue_depth, and the dictionary
        // hit/miss traffic, so queue pressure regressions are visible
        // across commits, not just the headline rate.
        ("extraction_pool_curve", Value::Array(extract_pool_curve.clone())),
        ("extract_stall_p99_ns", Value::U64(pooled_stall_p99)),
        ("instrumentation_overhead_pct", Value::F64(round1(overhead_pct))),
        ("shard_apply_mean_ns", hist_mean("shard.apply_ns")),
        ("merge_offer_mean_ns", hist_mean("merge.offer_ns")),
        ("detect_kl_push_mean_ns", hist_mean("detect.kl.push_ns")),
        ("extract_mine_mean_ns", hist_mean("extract.mine_ns")),
        ("extract_queue_depth", gauge("extract.queue_depth")),
        ("watermark_lag_event_ms", gauge("watermark.lag_event_ms")),
        ("watermark_frontier_skew_ms", gauge("watermark.frontier_skew_ms")),
    ]));

    let doc = obj(vec![
        ("bench", Value::Str("perf_stream".to_string())),
        ("cpus", Value::U64(cpus as u64)),
        ("corpus_records", Value::U64(quiet.len() as u64)),
        ("windows", Value::U64(WINDOWS)),
        ("channel", Value::Array(channel_measurements)),
        (
            "channel_speedup_ring_batched_vs_mutex_per_message",
            Value::F64(round1(channel_speedup * 100.0) / 100.0),
        ),
        ("ingest_batch_curve", Value::Array(batch_curve)),
        ("ingest_shard_curve", Value::Array(ingest_shard_curve)),
        ("extract_e2e_shard_curve", Value::Array(extract_curve)),
        ("detector_pool_curve", Value::Array(pool_curve)),
        ("extraction_pool_curve", Value::Array(extract_pool_curve)),
        ("extract_stall_p99_ns", Value::U64(pooled_stall_p99)),
        ("instrumentation_overhead_pct", Value::F64(round1(overhead_pct))),
        ("stage_breakdown", stage_breakdown),
        ("watermark_health", watermark_health),
        ("history", Value::Array(history)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("render bench json");
    std::fs::write(&path, json + "\n").expect("write bench json");
    println!("\nwrote {path}");
}
