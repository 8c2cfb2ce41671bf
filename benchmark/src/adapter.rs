//! Every call into the program under test lives in this file.
//!
//! The rest of the benchmark sees the pipeline only through the thin
//! functions and wrappers below, so an API change in the repo's crates
//! is a change to this one file. Each wrapper is one call (or one
//! fixed call pair) into one layer — the staged driver puts its spans
//! around these, so a span is exactly one layer's work. The functions
//! used are listed in `benchmark/README.md`.
//!
//! Deliberately not referenced (slated for removal by ROADMAP items
//! 2–3): per-slot ring calls, detector/extraction worker pools, shard
//! pinning, legacy miner flags, reference detector modes, row-oriented
//! transactions, FP-growth and the cold `EncodedFlows::encode`.

use std::net::Ipv4Addr;
use std::time::Instant;

use anomex_core::candidate::candidates_from_iter;
use anomex_core::encode::{EncodeState, EncodedFlows};
use anomex_core::extract::ExtractorConfig;
use anomex_detect::kl::KlConfig;
use anomex_detect::pca::PcaConfig;
use anomex_flow::v5::{self, ExportBase};
use anomex_flow::v9;
use anomex_gen::background::{generate_background, BackgroundConfig};
use anomex_gen::topology::Topology;
use anomex_obs::{MetricDef, MetricKind, Registry, StageTimer};
use anomex_stream::detector::{DetectorBank, DetectorRegistry, DetectorSpec, EnsembleAlarm};
use anomex_stream::ingest::IngestHandle;
use anomex_stream::metrics::{MetricsConfig, MetricsReport};
use anomex_stream::pipeline::{launch, StreamConfig};
use anomex_stream::report::ContinuousExtractor;
use anomex_stream::window::{ShardWindows, WindowManager, WindowShard};
use crossbeam::channel::Receiver;

pub use anomex_flow::feature::FeatureItem;
pub use anomex_flow::record::FlowRecord;
pub use anomex_flow::sampling::Xoshiro256 as Rng;
pub use anomex_gen::anomaly::{AnomalyKind, AnomalySpec};
pub use anomex_obs::MetricsSnapshot;
pub use anomex_stream::pipeline::StreamStats;
pub use anomex_stream::report::StreamReport;
pub use anomex_stream::window::ClosedWindow;

/// Detector interval and tumbling-window width of every workload.
pub const WINDOW_MS: u64 = 60_000;
/// Bounded out-of-orderness of every workload.
pub const LATENESS_MS: u64 = 30_000;
/// Records per v5 export packet.
pub const V5_RECORDS: usize = v5::MAX_RECORDS;
/// Offset of the header `unix_secs` field the lap replay patches.
pub const V5_UNIX_SECS: std::ops::Range<usize> = 8..12;

/// Which detector bank a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detectors {
    /// The default single KL detector.
    Kl,
    /// KL plus the sliding entropy-PCA detector.
    KlPca,
}

/// The pipeline configuration of a workload: `StreamConfig::default()`
/// except the lateness bound, the 60 s detector bank and the telemetry
/// switch. The span stays open-ended because the lap count is decided
/// by the clock, not up front.
pub fn stream_config(detectors: Detectors, telemetry: bool) -> StreamConfig {
    let kl = DetectorSpec::Kl(KlConfig { interval_ms: WINDOW_MS, ..KlConfig::default() });
    let pca = DetectorSpec::Pca(PcaConfig { interval_ms: WINDOW_MS, ..PcaConfig::default() }, 12);
    let specs = match detectors {
        Detectors::Kl => vec![kl],
        Detectors::KlPca => vec![kl, pca],
    };
    StreamConfig {
        lateness_ms: LATENESS_MS,
        detectors: DetectorRegistry::from_specs(&specs),
        metrics: MetricsConfig { enabled: telemetry, ..MetricsConfig::default() },
        ..StreamConfig::default()
    }
}

// ---------------------------------------------------------------- gen

/// Benign GEANT-like background: `flows` request flows (replies come on
/// top) spread over `[start_ms, start_ms + duration_ms)`.
pub fn background(rng: &mut Rng, start_ms: u64, duration_ms: u64, flows: usize) -> Vec<FlowRecord> {
    let config = BackgroundConfig { start_ms, duration_ms, flows, ..BackgroundConfig::default() };
    generate_background(&config, &Topology::geant(), rng)
}

/// A one-window anomaly of `kind` with `flows` flows starting at `start_ms`.
pub fn anomaly(
    kind: AnomalyKind,
    attacker: Ipv4Addr,
    victim: Ipv4Addr,
    start_ms: u64,
    flows: usize,
) -> AnomalySpec {
    let mut spec = AnomalySpec::template(kind, attacker, victim);
    spec.start_ms = start_ms;
    spec.duration_ms = WINDOW_MS;
    spec.flows = flows;
    spec
}

/// The anomaly's flow records.
pub fn inject(spec: &AnomalySpec, rng: &mut Rng) -> Vec<FlowRecord> {
    spec.inject(rng)
}

/// The itemset an ideal extractor reports for the anomaly.
pub fn signature(spec: &AnomalySpec) -> Vec<FeatureItem> {
    spec.signature()
}

// --------------------------------------------------------------- flow

/// Render records as v5 export packets whose header clock is
/// `unix_secs` with zero uptime, so a record's uptime field is its
/// offset from `unix_secs` and patching the header shifts every record.
pub fn encode_v5(records: &[FlowRecord], unix_secs: u32) -> Vec<Vec<u8>> {
    let base = ExportBase { sys_uptime_ms: 0, unix_secs, unix_nsecs: 0 };
    v5::encode_all(records, base, 0)
        .expect("chunks of MAX_RECORDS always encode")
        .into_iter()
        .map(|packet| packet.to_vec())
        .collect()
}

/// Decode one v5 packet.
pub fn decode_v5(packet: &[u8]) -> Option<Vec<FlowRecord>> {
    v5::decode(packet).ok().map(|decoded| decoded.records)
}

/// Micro-timing of the v9 decoder with a warm template cache: ns per
/// record over `rounds` passes of `records` packed 30 to a packet.
pub fn v9_decode_ns_per_rec(records: &[FlowRecord], rounds: usize) -> f64 {
    let base = ExportBase { sys_uptime_ms: 0, unix_secs: 0, unix_nsecs: 0 };
    let packets: Vec<_> =
        records.chunks(V5_RECORDS).map(|chunk| v9::encode(chunk, base, 0, 1)).collect();
    let mut cache = v9::TemplateCache::new();
    let mut decoded = 0usize;
    let start = Instant::now();
    for _ in 0..rounds {
        for packet in &packets {
            let out = v9::decode(std::hint::black_box(packet), &mut cache).expect("own v9 packets");
            decoded += std::hint::black_box(out.records).len();
        }
    }
    start.elapsed().as_nanos() as f64 / decoded.max(1) as f64
}

// --------------------------------------------------------------- ring

/// Micro-timing of the shard ring: ns per message for one producer and
/// one consumer over a bounded channel of the pipeline's default depth,
/// sending in the ingest side's batches and draining in the shard side's.
pub fn ring_ns_per_msg(total: u64) -> f64 {
    let defaults = StreamConfig::default();
    let (tx, rx) = crossbeam::channel::bounded::<u64>(defaults.queue_depth);
    let batch_len = defaults.ingest_batch;
    let start = Instant::now();
    let producer = std::thread::spawn(move || {
        let mut batch = Vec::with_capacity(batch_len);
        for i in 0..total {
            batch.push(i);
            if batch.len() == batch_len {
                tx.send_many(&mut batch).expect("consumer alive");
            }
        }
        tx.send_many(&mut batch).expect("consumer alive");
    });
    let mut buf = Vec::with_capacity(256);
    let mut sum = 0u64;
    let mut got = 0u64;
    while got < total {
        got += rx.recv_many(&mut buf, 256) as u64;
        sum = sum.wrapping_add(buf.drain(..).sum::<u64>());
    }
    producer.join().expect("ring producer");
    assert_eq!(sum, total * (total - 1) / 2, "ring lost or duplicated messages");
    start.elapsed().as_nanos() as f64 / total as f64
}

// ----------------------------------------------------------- pipeline

/// The running threaded pipeline, as the generator thread drives it.
pub struct Pipeline {
    ingest: IngestHandle,
}

/// The two channels a consumer of the pipeline reads.
pub struct Outputs {
    /// Root-cause reports and fault notices.
    pub reports: Receiver<StreamReport>,
    /// One telemetry emission per merged window (counters only when the
    /// timing layer is off), then a final one at shutdown.
    pub notices: Receiver<MetricsReport>,
}

/// Start the pipeline.
pub fn launch_pipeline(config: StreamConfig) -> (Pipeline, Outputs) {
    let (ingest, reports) = launch(config);
    let notices = ingest.metrics_reports().expect("fresh pipeline has its subscription");
    (Pipeline { ingest }, Outputs { reports, notices })
}

impl Pipeline {
    /// Decode and ingest one v5 packet. A packet the pipeline cannot
    /// decode is counted in its own `StreamStats::decode_errors`.
    pub fn push_v5(&mut self, packet: &[u8]) {
        let _ = self.ingest.push_v5(packet);
    }

    /// Ingest records directly (no decode).
    pub fn push_records(&mut self, records: impl IntoIterator<Item = FlowRecord>) {
        self.ingest.push_batch(records);
    }

    /// End the stream and wait for every window and report.
    pub fn finish(self) -> StreamStats {
        self.ingest.finish()
    }
}

/// Windows merged so far according to a telemetry emission.
pub fn notice_windows(notice: &MetricsReport) -> u64 {
    notice.windows
}

/// The metric snapshot a telemetry emission carries.
pub fn notice_snapshot(notice: MetricsReport) -> MetricsSnapshot {
    notice.snapshot
}

// ------------------------------------------------------------- staged

const ENCODE_NS: MetricDef = MetricDef {
    name: "bench.extract.encode_ns",
    kind: MetricKind::Histogram,
    unit: "ns",
    stage: "extract",
    help: "staged driver: candidate encode time",
};
const MINE_NS: MetricDef = MetricDef {
    name: "bench.extract.mine_ns",
    kind: MetricKind::Histogram,
    unit: "ns",
    stage: "extract",
    help: "staged driver: mining time",
};

/// One shard's closed windows and new frontier, as the merge takes them.
pub struct ShardReport {
    shard: usize,
    frontier: u64,
    windows: Vec<WindowShard>,
    /// Whether the watermark closed a window or moved the frontier; the
    /// shard worker sends the merge nothing otherwise.
    pub advanced: bool,
}

/// The pipeline's stages held as plain values, for the single-thread
/// staged driver: same types, same configuration, no threads or rings.
pub struct Staged {
    shards: Vec<ShardWindows>,
    manager: WindowManager,
    bank: DetectorBank,
    extractor: ContinuousExtractor,
    extractor_config: ExtractorConfig,
    encode: StageTimer,
    mine: StageTimer,
}

impl Staged {
    /// Stages configured exactly as `launch(config)` would configure them.
    pub fn new(config: &StreamConfig) -> Staged {
        let windows = config.window_config();
        let registry = Registry::new();
        let (encode, mine) = (registry.timer(&ENCODE_NS), registry.timer(&MINE_NS));
        let mut extractor = ContinuousExtractor::new(config.extractor, config.retain_windows);
        extractor.instrument(encode.clone(), mine.clone());
        Staged {
            shards: (0..config.shards).map(|s| ShardWindows::new(s, windows)).collect(),
            manager: WindowManager::new(config.shards, windows),
            bank: config.detectors.build_bank(),
            extractor,
            extractor_config: config.extractor,
            encode,
            mine,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// `FlowKey::shard`: which shard owns the record.
    pub fn route(&self, record: &FlowRecord) -> usize {
        record.key().shard(self.shards.len())
    }

    /// `ShardWindows::push`.
    pub fn apply(&mut self, shard: usize, record: FlowRecord) {
        self.shards[shard].push(record);
    }

    /// `ShardWindows::close_up_to`.
    pub fn close(&mut self, shard: usize, watermark_ms: u64) -> ShardReport {
        let before = self.shards[shard].frontier();
        let windows = self.shards[shard].close_up_to(watermark_ms);
        let frontier = self.shards[shard].frontier();
        ShardReport {
            shard,
            frontier,
            advanced: frontier != before || !windows.is_empty(),
            windows,
        }
    }

    /// `ShardWindows::flush` at stream end.
    pub fn flush(&mut self, shard: usize) -> ShardReport {
        let windows = self.shards[shard].flush();
        ShardReport { shard, frontier: self.shards[shard].frontier(), windows, advanced: true }
    }

    /// `WindowManager::stage` per shard report, then one `drain`.
    pub fn merge(&mut self, reports: Vec<ShardReport>) -> Vec<ClosedWindow> {
        for report in reports {
            self.manager.stage(report.shard, report.frontier, report.windows);
        }
        self.manager.drain()
    }

    /// `DetectorBank::push_window`.
    pub fn detect(&mut self, window: &ClosedWindow) -> Vec<EnsembleAlarm> {
        self.bank.push_window(window)
    }

    /// `ContinuousExtractor::push_window`.
    pub fn extract(&mut self, window: ClosedWindow, alarms: &[EnsembleAlarm]) -> Vec<StreamReport> {
        self.extractor.push_window(window, alarms)
    }

    /// Records dropped behind the watermark, over all shards.
    pub fn late_dropped(&self) -> u64 {
        self.shards.iter().map(ShardWindows::late_dropped).sum()
    }

    /// Total ns and call count inside `EncodedFlows::encode_warm`.
    pub fn encode_ns(&self) -> (u64, u64) {
        (self.encode.histogram().sum(), self.encode.histogram().count())
    }

    /// Total ns and call count inside `Extractor::extract_encoded`.
    pub fn mine_ns(&self) -> (u64, u64) {
        (self.mine.histogram().sum(), self.mine.histogram().count())
    }

    /// ns per candidate flow of `EncodedFlows::encode_warm` against a
    /// fresh dictionary, over the candidates of the window's first alarm.
    pub fn encode_first_ns_per_flow(
        &self,
        window: &ClosedWindow,
        alarms: &[EnsembleAlarm],
    ) -> Option<f64> {
        let alarm = &alarms.first()?.alarm;
        let candidates = candidates_from_iter(
            window.records.iter(),
            alarm.window,
            alarm,
            self.extractor_config.policy,
        );
        if candidates.is_empty() {
            return None;
        }
        let mut state = EncodeState::new();
        let start = Instant::now();
        std::hint::black_box(EncodedFlows::encode_warm(&candidates, &mut state));
        Some(start.elapsed().as_nanos() as f64 / candidates.len() as f64)
    }
}

/// `serde_json` rendering of a report, as a subscriber would ship it.
pub fn serialize_report(report: &StreamReport) -> String {
    serde_json::to_string(report).expect("reports hold only finite numbers")
}

// ------------------------------------------------------------ reports

/// What the correctness gate compares of one alarm report: everything
/// except the detector-assigned ids and the subscriber-side drop gap.
pub fn normalized(report: &StreamReport) -> StreamReport {
    let mut report = report.clone();
    if let StreamReport::Alarm(alarm) = &mut report {
        alarm.alarm.id = 0;
        for source in &mut alarm.sources {
            source.id = 0;
        }
        alarm.dropped_before = 0;
    }
    report
}

/// Start of the alarmed window, `None` for fault notices.
pub fn report_window_ms(report: &StreamReport) -> Option<u64> {
    report.alarm().map(|alarm| alarm.window.from_ms)
}

/// Candidate flows the report's extraction mined.
pub fn report_candidates(report: &StreamReport) -> usize {
    report.extraction().map_or(0, |extraction| extraction.candidate_flows)
}

/// Whether some extracted itemset carries every item of `signature`.
pub fn report_explains(report: &StreamReport, signature: &[FeatureItem]) -> bool {
    report.extraction().is_some_and(|extraction| {
        extraction.itemsets.iter().any(|set| signature.iter().all(|item| set.items.contains(item)))
    })
}

/// Shift a record's timestamps forward (the records-path lap replay).
pub fn shifted(record: &FlowRecord, by_ms: u64) -> FlowRecord {
    FlowRecord {
        start_ms: record.start_ms + by_ms,
        end_ms: record.end_ms + by_ms,
        ..record.clone()
    }
}

// ----------------------------------------------------------- in situ

/// What the pipeline's own timing layer says about a threaded run —
/// the waiting and queueing a staged run cannot see. Read by name from
/// the final snapshot; a metric the pipeline no longer records reads 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Insitu {
    /// `shard.apply_ns` total over records ingested.
    pub shard_apply_ns_per_rec: f64,
    /// Mean `merge.offer_ns`, µs.
    pub merge_offer_us: f64,
    /// `detect.*.push_ns` totals over windows merged, µs.
    pub detect_push_us_per_window: f64,
    /// Mean `extract.encode_ns`, ms.
    pub extract_encode_ms: f64,
    /// Mean `extract.mine_ns`, ms.
    pub extract_mine_ms: f64,
    /// p99 bucket bound of `ingest.queue_depth`, messages.
    pub ingest_queue_depth_p99: f64,
}

/// Extract the in-situ view from a telemetry-on run's final snapshot.
pub fn insitu(snapshot: &MetricsSnapshot) -> Insitu {
    let hist = |name: &str| snapshot.histogram(name).cloned().unwrap_or_default();
    let records = snapshot.counter("ingest.records").max(1) as f64;
    let windows = snapshot.counter("merge.windows").max(1) as f64;
    let detect_ns: u64 = snapshot
        .entries
        .iter()
        .filter(|e| e.name.starts_with("detect.") && e.name.ends_with(".push_ns"))
        .filter_map(|e| snapshot.histogram(&e.name))
        .map(|h| h.sum)
        .sum();
    Insitu {
        shard_apply_ns_per_rec: hist("shard.apply_ns").sum as f64 / records,
        merge_offer_us: hist("merge.offer_ns").mean() / 1e3,
        detect_push_us_per_window: detect_ns as f64 / windows / 1e3,
        extract_encode_ms: hist("extract.encode_ns").mean() / 1e6,
        extract_mine_ms: hist("extract.mine_ns").mean() / 1e6,
        ingest_queue_depth_p99: hist("ingest.queue_depth").quantile_bound(0.99) as f64,
    }
}
