//! One measured run of one workload: either the end-to-end run
//! (telemetry off, threaded pipeline, checked against a staged
//! reference) or the traced run (staged driver with spans, then
//! threaded runs with and without the pipeline's own telemetry, a paced
//! probe and two micro-timings).

use std::path::PathBuf;
use std::time::Instant;

use crate::adapter;
use crate::check::{self, Verdict};
use crate::corpus::{self, Corpus, Workload, PACED_RPS};
use crate::drive::{self, Plan, Until};
use crate::staged;
use crate::stats;
use crate::sys;
use crate::trace::{self, LayerTime};

/// A metric's definition: the row `BENCHMARK.json` and the README carry.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher is better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the base median (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Spec {
    Spec { name, unit, higher_is_better: higher, bound }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Spec {
    Spec { name, unit, higher_is_better: higher, bound: 0.0 }
}

/// The end-to-end metrics, measured with telemetry off. A bound is both
/// what `compare` calls a regression and the most ten runs of ten seeds
/// may spread before the driver refuses the benchmark. On the shared
/// 2-vCPU reference box that spread reaches 15 % on everything timed and
/// 10 % on peak memory (see the README and `results/seeds_*.txt`), so
/// every bound is the most the contract allows.
pub const END_TO_END: [Spec; 6] = [
    e2e("throughput_rps", "records/s", true, 0.25),
    e2e("report_latency_p50_ms", "ms", false, 0.25),
    e2e("report_latency_p95_ms", "ms", false, 0.25),
    e2e("cpu_s_per_mrec", "s/Mrec", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// The per-layer metrics of the traced run.
pub const PER_LAYER: [Spec; 28] = [
    layer("flow.v5_decode_ns_per_rec", "ns", false),
    layer("flow.v9_decode_ns_per_rec", "ns", false),
    layer("ingest.route_ns_per_rec", "ns", false),
    layer("ingest.push_ns_per_rec", "ns", false),
    layer("ring.batch64_ns_per_msg", "ns", false),
    layer("window.apply_ns_per_rec", "ns", false),
    layer("window.close_us_per_window", "us", false),
    layer("window.merge_us_per_window", "us", false),
    layer("detect.push_us_per_window", "us", false),
    layer("report.retain_us_per_window", "us", false),
    layer("report.extract_ms_per_alarm", "ms", false),
    layer("core.encode_ns_per_flow", "ns", false),
    layer("core.encode_first_ns_per_flow", "ns", false),
    layer("fim.mine_ms_per_alarm", "ms", false),
    layer("report.serialize_us_per_report", "us", false),
    layer("staged.rps", "records/s", true),
    layer("staged.unattributed_share", "share", false),
    layer("staged.decode_share", "share", false),
    layer("staged.extract_share", "share", false),
    layer("gen.late_p99_ms", "ms", false),
    layer("gen.drain_s", "s", false),
    layer("insitu.shard_apply_ns_per_rec", "ns", false),
    layer("insitu.merge_offer_us", "us", false),
    layer("insitu.detect_push_us_per_window", "us", false),
    layer("insitu.extract_encode_ms", "ms", false),
    layer("insitu.extract_mine_ms", "ms", false),
    layer("insitu.ingest_queue_depth_p99", "count", false),
    layer("trace_overhead_pct", "%", false),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(&PER_LAYER).find(|spec| spec.name == name).map(|spec| spec.unit)
}

/// Laps of the staged reference an end-to-end run is compared against.
/// Three laps are ~1.4 M records: past detector training, into steady
/// state, and cheap next to the measured run. Traced runs compare the
/// whole run instead.
const REFERENCE_LAPS: u64 = 3;
/// Telemetry off/on pairs of a traced run; `trace_overhead_pct` compares
/// the two sides' median throughput.
const OVERHEAD_PAIRS: usize = 3;
/// An open-loop run whose generator fell this far behind schedule at
/// p99 did not offer the load it claims.
const LATE_LIMIT_MS: f64 = 5.0;
/// An open-loop run that needs this long to drain after the last push
/// ended with a backlog: the rate was not sustained.
const DRAIN_LIMIT_S: f64 = 0.5;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Set up once and shorten the micro-timings (smoke runs).
    pub smoke: bool,
}

/// The result of one run, as the last stdout line carries it.
pub struct Measured {
    /// The correctness gate passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind; units are
    /// those of [`END_TO_END`] and [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Whether an open-loop run kept its schedule (always true otherwise).
    pub paced_valid: bool,
    /// Laps replayed in the measured run.
    pub laps: u64,
}

fn report_verdict(workload: Workload, verdict: &Verdict) {
    for mismatch in &verdict.mismatches {
        eprintln!("[{}] MISMATCH: {mismatch}", workload.name());
    }
}

fn paced_valid(outcome: &drive::Outcome) -> bool {
    drive::late_p99_ms(outcome) <= LATE_LIMIT_MS && outcome.drain_s <= DRAIN_LIMIT_S
}

/// The end-to-end run: set up (three times, median), drive the threaded
/// pipeline for `sizing.seconds`, then check it against the staged
/// reference.
pub fn end_to_end(workload: Workload, seed: u64, sizing: Sizing) -> Measured {
    let detectors = workload.detectors();
    let mut setups = Vec::new();
    let mut built: Option<Corpus> = None;
    for _ in 0..if sizing.smoke { 1 } else { 3 } {
        drop(built.take()); // free the previous corpus before building the next
        let start = Instant::now();
        let corpus = corpus::build(workload, seed, 1.0);
        let (pipeline, outputs) =
            adapter::launch_pipeline(adapter::stream_config(detectors, false));
        setups.push(start.elapsed().as_secs_f64());
        drop(outputs);
        pipeline.finish();
        built = Some(corpus);
    }
    let mut corpus = built.expect("at least one set-up");
    let plan = Plan {
        until: Until::Seconds(sizing.seconds),
        paced_rps: workload.paced_rps(),
        telemetry: false,
        time_push: false,
    };
    let mut outcome = drive::run(&mut corpus, detectors, plan);
    if plan.paced_rps.is_some() && !paced_valid(&outcome) {
        eprintln!(
            "[{}] paced run invalid (late p99 {:.2} ms, drain {:.3} s): running it once more",
            workload.name(),
            drive::late_p99_ms(&outcome),
            outcome.drain_s
        );
        outcome = drive::run(&mut corpus, detectors, plan);
    }
    let valid = plan.paced_rps.is_none() || paced_valid(&outcome);
    let peak_rss_mb = sys::peak_rss_mb();

    let reference =
        staged::run(&mut corpus, detectors, Until::Laps(outcome.laps.min(REFERENCE_LAPS)));
    let mut verdict = check::judge(workload, &corpus, &outcome, &reference);

    let latencies = drive::verdict_latencies_ms(&outcome, corpus.windows);
    // The tail is the whole sample's: p95 when 200 or more windows were
    // timed, else the highest percentile with ten samples beyond it.
    let tail = stats::supported_tail(latencies.len(), 0.95).unwrap_or(0.5);
    let (p50, p95) = match (stats::median(&latencies), stats::percentile(&latencies, tail)) {
        (Some(p50), Some(p95)) => (p50, p95),
        _ => {
            verdict.mismatches.push("no window was closed by a closing unit: run too short".into());
            (0.0, 0.0)
        }
    };
    report_verdict(workload, &verdict);
    let mrec = outcome.records as f64 / 1e6;
    eprintln!(
        "[{}] seed {seed}: {} laps of {} records, {} records, {} windows, {} alarms, {} reports in {:.3} s; \
         latency over {} windows (tail p{:.1}); staged reference {} laps at {:.0} records/s; \
         paced late p99 {:.3} ms, drain {:.3} s{}",
        workload.name(),
        outcome.laps,
        corpus.records,
        outcome.records,
        outcome.stats.windows,
        outcome.stats.alarms,
        outcome.reports.len(),
        outcome.wall_s,
        latencies.len(),
        tail * 100.0,
        reference.laps,
        reference.records as f64 / reference.wall_s,
        drive::late_p99_ms(&outcome),
        outcome.drain_s,
        if valid { "" } else { " — INVALID paced run" },
    );
    Measured {
        correct: verdict.mismatches.is_empty(),
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: vec![
            ("throughput_rps", outcome.records as f64 / outcome.wall_s),
            ("report_latency_p50_ms", p50),
            ("report_latency_p95_ms", p95),
            ("cpu_s_per_mrec", outcome.cpu_s / mrec),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", stats::median(&setups).expect("at least one set-up")),
        ],
        paced_valid: valid,
        laps: outcome.laps,
    }
}

/// Where runs leave their spans and results (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The traced run: the per-layer budget from the staged driver, the
/// in-situ view and telemetry overhead from threaded runs of the same
/// laps, the paced probe, and the micro-timings.
pub fn traced(workload: Workload, seed: u64, sizing: Sizing) -> Measured {
    let detectors = workload.detectors();
    let mut corpus = corpus::build(workload, seed, 1.0);
    let staged = staged::run(&mut corpus, detectors, Until::Seconds(sizing.seconds * 0.4));

    let spans_file = out_dir().join(format!("spans_{}.json", workload.name()));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
        let text =
            serde_json::to_string(&trace::to_json(&staged.spans)).expect("spans are integers");
        std::fs::write(&spans_file, text)
    });
    if let Err(error) = written {
        eprintln!("[{}] could not write {}: {error}", workload.name(), spans_file.display());
    }

    let closed = |telemetry| Plan {
        until: Until::Laps(staged.laps),
        paced_rps: None,
        telemetry,
        time_push: false,
    };
    // Telemetry off and on, the side that goes first alternating: the
    // first threaded pass of a process pays for a cold heap, and the
    // host's speed drifts by more than the overhead within seconds, so
    // one pair tells nothing. The first off pass is the checked one.
    let mut verdict = None;
    let mut insitu = adapter::Insitu::default();
    let mut rps = [Vec::new(), Vec::new()];
    for pair in 0..if sizing.smoke { 1 } else { OVERHEAD_PAIRS } {
        for telemetry in [pair % 2 == 1, pair % 2 == 0] {
            let outcome = drive::run(&mut corpus, detectors, closed(telemetry));
            rps[usize::from(telemetry)].push(outcome.records as f64 / outcome.wall_s);
            if telemetry {
                insitu = outcome.snapshot.as_ref().map(adapter::insitu).unwrap_or_default();
            } else if verdict.is_none() {
                verdict = Some(check::judge(workload, &corpus, &outcome, &staged));
            }
        }
    }
    let verdict = verdict.expect("at least one pair");
    report_verdict(workload, &verdict);
    let probe = drive::run(
        &mut corpus,
        detectors,
        Plan {
            until: Until::Seconds(sizing.seconds * 0.15),
            paced_rps: Some(PACED_RPS),
            telemetry: false,
            time_push: true,
        },
    );

    let micro_records = micro_records(&corpus);
    let v9_ns = adapter::v9_decode_ns_per_rec(&micro_records, if sizing.smoke { 2 } else { 20 });
    let ring_ns = adapter::ring_ns_per_msg(if sizing.smoke { 200_000 } else { 4_000_000 });

    let layers = trace::layer_times(&staged.spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let wall_ns = layer("staged").total_ns.max(1) as f64;
    let records = staged.records.max(1) as f64;
    let windows = staged.windows.max(1) as f64;
    let per = |time: LayerTime, n: f64, scale: f64| time.total_ns as f64 / n.max(1.0) / scale;
    let quiet_windows = (staged.windows - staged.alarmed_windows) as f64;
    let alarmed = staged.alarmed_windows as f64;
    let (encode_ns, _) = staged.encode_ns;
    let (mine_ns, mine_calls) = staged.mine_ns;
    let rps_off = stats::median(&rps[0]).expect("at least one pair");
    let rps_on = stats::median(&rps[1]).expect("at least one pair");

    let metrics = vec![
        ("flow.v5_decode_ns_per_rec", per(layer("flow.v5_decode"), records, 1.0)),
        ("flow.v9_decode_ns_per_rec", v9_ns),
        ("ingest.route_ns_per_rec", per(layer("ingest.route"), records, 1.0)),
        ("ingest.push_ns_per_rec", probe.push_ns as f64 / probe.records.max(1) as f64),
        ("ring.batch64_ns_per_msg", ring_ns),
        ("window.apply_ns_per_rec", per(layer("window.apply"), records, 1.0)),
        ("window.close_us_per_window", per(layer("window.close"), windows, 1e3)),
        ("window.merge_us_per_window", per(layer("window.merge"), windows, 1e3)),
        ("detect.push_us_per_window", per(layer("detect.push"), windows, 1e3)),
        ("report.retain_us_per_window", per(layer("report.retain"), quiet_windows, 1e3)),
        ("report.extract_ms_per_alarm", per(layer("report.extract"), alarmed, 1e6)),
        ("core.encode_ns_per_flow", encode_ns as f64 / staged.candidate_flows.max(1) as f64),
        ("core.encode_first_ns_per_flow", staged.encode_first_ns_per_flow.unwrap_or(0.0)),
        ("fim.mine_ms_per_alarm", mine_ns as f64 / mine_calls.max(1) as f64 / 1e6),
        (
            "report.serialize_us_per_report",
            per(layer("report.serialize"), staged.reports.len() as f64, 1e3),
        ),
        ("staged.rps", records / staged.wall_s),
        ("staged.unattributed_share", layer("staged").self_ns as f64 / wall_ns),
        ("staged.decode_share", layer("flow.v5_decode").total_ns as f64 / wall_ns),
        ("staged.extract_share", layer("report.extract").total_ns as f64 / wall_ns),
        ("gen.late_p99_ms", drive::late_p99_ms(&probe)),
        ("gen.drain_s", probe.drain_s),
        ("insitu.shard_apply_ns_per_rec", insitu.shard_apply_ns_per_rec),
        ("insitu.merge_offer_us", insitu.merge_offer_us),
        ("insitu.detect_push_us_per_window", insitu.detect_push_us_per_window),
        ("insitu.extract_encode_ms", insitu.extract_encode_ms),
        ("insitu.extract_mine_ms", insitu.extract_mine_ms),
        ("insitu.ingest_queue_depth_p99", insitu.ingest_queue_depth_p99),
        ("trace_overhead_pct", (rps_off / rps_on - 1.0) * 100.0),
    ];

    eprintln!(
        "[{}] seed {seed} traced: staged {} laps, {} records, {} windows ({} alarmed) in {:.3} s; \
         threaded {:.0} records/s telemetry off, {:.0} on (medians); spans in {}",
        workload.name(),
        staged.laps,
        staged.records,
        staged.windows,
        staged.alarmed_windows,
        staged.wall_s,
        rps_off,
        rps_on,
        spans_file.display(),
    );
    eprintln!("  {:<22} {:>12} {:>8} {:>10}", "layer", "self ms", "share", "spans");
    for (name, time) in &layers {
        eprintln!(
            "  {:<22} {:>12.3} {:>7.2}% {:>10}",
            name,
            time.self_ns as f64 / 1e6,
            time.self_ns as f64 / wall_ns * 100.0,
            time.count
        );
    }
    Measured {
        correct: verdict.mismatches.is_empty(),
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        paced_valid: paced_valid(&probe),
        laps: staged.laps,
    }
}

/// A few thousand records of the corpus for the v9 micro-timing.
fn micro_records(corpus: &Corpus) -> Vec<adapter::FlowRecord> {
    match &corpus.payload {
        corpus::Payload::Wire(packets) => {
            packets.iter().take(200).filter_map(|p| adapter::decode_v5(p)).flatten().collect()
        }
        corpus::Payload::Records(records) => records.iter().take(6_000).cloned().collect(),
    }
}
