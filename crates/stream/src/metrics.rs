//! Pipeline telemetry: the metric catalog, the per-run handle bundle,
//! and the [`MetricsReport`] emitted alongside `StreamReport`s.
//!
//! Every metric the pipeline records is declared once in [`CATALOG`]
//! (name, kind, unit, stage, help); `cargo run -p xtask -- metrics-doc`
//! renders `METRICS.md` from the same array, so the committed catalog
//! cannot drift from the code. Handles live on [`PipelineMetrics`],
//! created at `launch` and shared by the intake handles, shard workers
//! and the control thread.
//!
//! Cost model: counters are always live (one Relaxed `fetch_add`, and
//! almost all of them fire per *batch*, *window* or *handle close*,
//! never per record). The timing layer — histograms, gauges, stage
//! timers, wall-clock reads — obeys [`MetricsConfig::enabled`]: when
//! off, every handle is a no-op and instrumented call sites skip the
//! value computation behind [`PipelineMetrics::timing`]. `perf_stream`
//! holds the instrumented ingest path to within 3% of the disabled one.

use anomex_obs::{MetricDef, MetricKind, Registry, StageTimer};
// Re-exported so downstream crates (console, bench, xtask) read
// snapshots through the stream prelude without a direct obs dependency.
pub use anomex_obs::{Counter, Gauge, Histogram, HistogramSummary, MetricValue, MetricsSnapshot};
use serde::{Serialize, Value};

use crate::detector::DetectorInstruments;
use crate::report::DictCounters;

macro_rules! def {
    ($ident:ident, $name:literal, $kind:ident, $unit:literal, $stage:literal, $help:literal) => {
        #[doc = $help]
        pub const $ident: MetricDef = MetricDef {
            name: $name,
            kind: MetricKind::$kind,
            unit: $unit,
            stage: $stage,
            help: $help,
        };
    };
}

def!(
    INGEST_RECORDS,
    "ingest.records",
    Counter,
    "records",
    "ingest",
    "Flow records accepted across all intake handles (folded at handle close)."
);
def!(
    INGEST_DECODE_ERRORS,
    "ingest.decode_errors",
    Counter,
    "packets",
    "ingest",
    "Undecodable NetFlow export packets across all intake handles."
);
def!(
    INGEST_SEND_FAILURES,
    "ingest.send_failures",
    Counter,
    "records",
    "ingest",
    "Records dropped because a shard ring was disconnected when their chunk was sent (counted whole chunks)."
);
def!(
    INGEST_FLUSH_FILL,
    "ingest.flush_fill",
    Histogram,
    "records",
    "ingest",
    "Records per chunk handed to a shard ring: ingest_batch for a full chunk, fewer when a window-closing watermark or a handle close flushed it early."
);
def!(
    INGEST_QUEUE_DEPTH,
    "ingest.queue_depth",
    Histogram,
    "chunks",
    "ingest",
    "Shard ring occupancy in slots (one chunk or one watermark each), sampled send-side before each chunk is sent. Under closed-loop load the producer outruns the shards and the ring runs full (at the defaults it has 2 slots); that is backpressure, not the queueing an open-loop (paced) run sees — read p50/p90 with it."
);
def!(
    CHANNEL_CAPACITY,
    "channel.capacity",
    Gauge,
    "chunks",
    "channel",
    "Shard ring capacity in slots: queue_depth / ingest_batch, at least 2 (the bound behind both queue-depth metrics)."
);
def!(
    SHARD_RECV_BATCH,
    "shard.recv_batch",
    Histogram,
    "chunks",
    "shard",
    "Ring messages (chunks and watermarks) drained per recv_many call on a shard worker."
);
def!(
    SHARD_QUEUE_DEPTH,
    "shard.queue_depth",
    Histogram,
    "chunks",
    "shard",
    "Shard ring occupancy in slots, sampled receive-side after each drain."
);
def!(
    SHARD_APPLY_NS,
    "shard.apply_ns",
    Histogram,
    "ns",
    "shard",
    "Wall time a shard worker spends applying one drained batch (window pushes and watermark closes; the hand-off to the control thread is timed apart, on shard.ctrl_stall_ns)."
);
def!(
    SHARD_CTRL_STALL_NS,
    "shard.ctrl_stall_ns",
    Histogram,
    "ns",
    "shard",
    "Shard-worker time blocked handing one report of closed windows to the control thread (0 for a non-blocking hand-off) — downstream backpressure on the window-bounded control channel."
);
def!(
    SHARD_LATE_DROPPED,
    "shard.late_dropped",
    Counter,
    "records",
    "shard",
    "Records behind the watermark, dropped at window apply."
);
def!(
    SHARD_OUT_OF_SPAN,
    "shard.out_of_span",
    Counter,
    "records",
    "shard",
    "Records outside the configured span, dropped at window apply."
);
def!(
    MERGE_OFFER_NS,
    "merge.offer_ns",
    Histogram,
    "ns",
    "merge",
    "Wall time per cross-shard WindowManager offer (merge + ready-window emission)."
);
def!(
    MERGE_WINDOWS,
    "merge.windows",
    Counter,
    "windows",
    "merge",
    "Windows fully merged across shards and emitted by the control thread."
);
def!(
    MERGE_BATCH_REPORTS,
    "merge.batch_reports",
    Histogram,
    "reports",
    "merge",
    "Shard reports coalesced into one bulk stage/drain pass by the control thread."
);
def!(
    DETECT_PUSH_NS,
    "detect.*.push_ns",
    Histogram,
    "ns",
    "detect",
    "Wall time of one bank member's per-window push (one histogram per detector)."
);
def!(
    DETECT_WINDOWS,
    "detect.*.windows",
    Counter,
    "windows",
    "detect",
    "Windows consumed per bank member (one counter per detector)."
);
def!(
    DETECT_ALARMS,
    "detect.*.alarms",
    Counter,
    "alarms",
    "detect",
    "Alarms raised per bank member before cross-detector merging."
);
def!(
    DETECT_MERGED_ALARMS,
    "detect.merged_alarms",
    Counter,
    "alarms",
    "detect",
    "Merged ensemble alarms after same-window attribution."
);
def!(
    DETECT_POOL_QUEUE_DEPTH,
    "detect.pool.queue_depth",
    Gauge,
    "windows",
    "detect",
    "Windows broadcast to the detector worker pool and not yet picked up, summed across workers (0 when the bank runs inline on the control thread)."
);
def!(
    EXTRACT_ENCODE_NS,
    "extract.encode_ns",
    Histogram,
    "ns",
    "extract",
    "Wall time encoding a flagged window's resident flows into the transaction matrix."
);
def!(
    EXTRACT_MINE_NS,
    "extract.mine_ns",
    Histogram,
    "ns",
    "extract",
    "Wall time mining one encoded window (frequent-itemset extraction)."
);
def!(
    EXTRACT_QUEUE_DEPTH,
    "extract.queue_depth",
    Gauge,
    "windows",
    "extract",
    "Windows queued to the extraction worker and not yet picked up (0 when extraction runs inline on the control thread)."
);
def!(
    EXTRACT_POOL_STALL_NS,
    "extract.pool.stall_ns",
    Histogram,
    "ns",
    "extract",
    "Control-loop time blocked handing one window to the extraction worker (0 for a non-blocking hand-off) — the stall the async pool exists to eliminate."
);
def!(
    EXTRACT_DICT_HITS,
    "extract.dict_hits",
    Counter,
    "items",
    "extract",
    "Encoded items that repeat an item of the same candidate set (the dictionary is per alarm: reuse is within one encode, never across windows)."
);
def!(
    EXTRACT_DICT_MISSES,
    "extract.dict_misses",
    Counter,
    "items",
    "extract",
    "Items interned by an encode: each candidate set's distinct items, summed over alarms."
);
def!(
    EXTRACT_DICT_OVERFLOWS,
    "extract.dict_overflows",
    Counter,
    "encodes",
    "extract",
    "Candidate sets holding more distinct items than one matrix can (65,536), encoded by the cold fallback."
);
def!(
    EXTRACT_DROPPED_ITEMS,
    "extract.dropped_items",
    Counter,
    "items",
    "extract",
    "Least-frequent items dropped from oversized candidate sets by the cold fallback (itemsets at or below their support may be missing from those reports)."
);
def!(
    REPORT_EMITTED,
    "report.emitted",
    Counter,
    "reports",
    "report",
    "StreamReports delivered to the bounded report queue."
);
def!(
    REPORT_DROPPED,
    "report.dropped",
    Counter,
    "reports",
    "report",
    "StreamReports dropped because the bounded report queue was full."
);
def!(
    REPORT_QUEUE_DEPTH,
    "report.queue_depth",
    Gauge,
    "reports",
    "report",
    "Report queue occupancy at the last metrics emission."
);
def!(
    REPORT_METRICS_DROPPED,
    "report.metrics_dropped",
    Counter,
    "reports",
    "report",
    "MetricsReports dropped because the bounded metrics queue was full (telemetry never stalls the pipeline)."
);
def!(
    WATERMARK_BROADCASTS,
    "watermark.broadcasts",
    Counter,
    "broadcasts",
    "watermark",
    "Window-closing watermarks sent to the shard rings (a handle sends one only when it closes a window beyond the last one that handle sent)."
);
def!(
    WATERMARK_BROADCAST_MS,
    "watermark.broadcast_ms",
    Gauge,
    "ms",
    "watermark",
    "Global watermark at the last check (event time: min published live frontier minus bounded lateness)."
);
def!(
    WATERMARK_LAG_EVENT_MS,
    "watermark.lag_event_ms",
    Gauge,
    "ms",
    "watermark",
    "Event-time lag: freshest published frontier minus the global watermark."
);
def!(
    WATERMARK_FRONTIER_SKEW_MS,
    "watermark.frontier_skew_ms",
    Gauge,
    "ms",
    "watermark",
    "Spread between the freshest and slowest live intake-handle frontiers."
);
def!(
    WATERMARK_LAG_WALL_MS,
    "watermark.lag_wall_ms",
    Gauge,
    "ms",
    "watermark",
    "Wall-clock lag: unix now minus the global watermark (meaningful for live feeds; huge for replayed synthetic time)."
);
def!(
    FAULT_INJECTED,
    "fault.injected",
    Counter,
    "faults",
    "fault",
    "Faults fired by an armed FaultPlan (always 0 without the fault-inject feature)."
);
def!(
    FAULT_WORKER_PANICS,
    "fault.worker_panics",
    Counter,
    "panics",
    "fault",
    "Worker panics caught by a supervisor (shard, detector-pool or extraction workers, or a supervised inline slot)."
);
def!(
    FAULT_SHARD_DEATHS,
    "fault.shard_deaths",
    Counter,
    "shards",
    "fault",
    "Shard workers lost to a panic; each one retires its merge frontier and the run ends with a terminal StreamReport::Fault."
);
def!(
    FAULT_CONTROL_PANICS,
    "fault.control_panics",
    Counter,
    "panics",
    "fault",
    "Control-thread panics absorbed at shutdown; final stats are then reconstructed from live counters."
);
def!(
    DEGRADED_DETECT_RESTARTS,
    "degraded.detect.restarts",
    Counter,
    "restarts",
    "degraded",
    "Detector-pool workers restarted with freshly built detector state after a panic."
);
def!(
    DEGRADED_DETECT_FAILOVERS,
    "degraded.detect.failovers",
    Counter,
    "failovers",
    "degraded",
    "Detector pools that exhausted their restart budget and fell back to the inline bank on the control thread."
);
def!(
    DEGRADED_EXTRACT_RESTARTS,
    "degraded.extract.restarts",
    Counter,
    "restarts",
    "degraded",
    "Extraction workers restarted with a fresh extractor (retained-window horizon reset) after a panic."
);
def!(
    DEGRADED_EXTRACT_FAILOVERS,
    "degraded.extract.failovers",
    Counter,
    "failovers",
    "degraded",
    "Extraction pools that exhausted their restart budget and fell back to inline extraction on the control thread."
);
def!(
    DEGRADED_QUARANTINED_WINDOWS,
    "degraded.quarantined_windows",
    Counter,
    "windows",
    "degraded",
    "Windows skipped (and reported as StreamReport::Fault) after extraction panicked repeatedly on them."
);
def!(
    DEGRADED_SHED_RECORDS,
    "degraded.shed_records",
    Counter,
    "records",
    "degraded",
    "Records shed at ingest under OverloadPolicy::Shed because a shard ring stayed saturated past max_queue_delay."
);
def!(
    DEGRADED_SHED_RECORDS_SHARD,
    "degraded.shed_records.*",
    Counter,
    "records",
    "degraded",
    "Per-shard breakdown of degraded.shed_records (one counter per shard ring)."
);

/// Every metric the pipeline can record, in catalog order (grouped by
/// stage). `*` names are templates instantiated per dynamic member
/// (one per registered detector).
pub static CATALOG: &[MetricDef] = &[
    INGEST_RECORDS,
    INGEST_DECODE_ERRORS,
    INGEST_SEND_FAILURES,
    INGEST_FLUSH_FILL,
    INGEST_QUEUE_DEPTH,
    CHANNEL_CAPACITY,
    SHARD_RECV_BATCH,
    SHARD_QUEUE_DEPTH,
    SHARD_APPLY_NS,
    SHARD_CTRL_STALL_NS,
    SHARD_LATE_DROPPED,
    SHARD_OUT_OF_SPAN,
    MERGE_OFFER_NS,
    MERGE_WINDOWS,
    MERGE_BATCH_REPORTS,
    DETECT_PUSH_NS,
    DETECT_WINDOWS,
    DETECT_ALARMS,
    DETECT_MERGED_ALARMS,
    DETECT_POOL_QUEUE_DEPTH,
    EXTRACT_ENCODE_NS,
    EXTRACT_MINE_NS,
    EXTRACT_QUEUE_DEPTH,
    EXTRACT_POOL_STALL_NS,
    EXTRACT_DICT_HITS,
    EXTRACT_DICT_MISSES,
    EXTRACT_DICT_OVERFLOWS,
    EXTRACT_DROPPED_ITEMS,
    REPORT_EMITTED,
    REPORT_DROPPED,
    REPORT_QUEUE_DEPTH,
    REPORT_METRICS_DROPPED,
    WATERMARK_BROADCASTS,
    WATERMARK_BROADCAST_MS,
    WATERMARK_LAG_EVENT_MS,
    WATERMARK_FRONTIER_SKEW_MS,
    WATERMARK_LAG_WALL_MS,
    FAULT_INJECTED,
    FAULT_WORKER_PANICS,
    FAULT_SHARD_DEATHS,
    FAULT_CONTROL_PANICS,
    DEGRADED_DETECT_RESTARTS,
    DEGRADED_DETECT_FAILOVERS,
    DEGRADED_EXTRACT_RESTARTS,
    DEGRADED_EXTRACT_FAILOVERS,
    DEGRADED_QUARANTINED_WINDOWS,
    DEGRADED_SHED_RECORDS,
    DEGRADED_SHED_RECORDS_SHARD,
];

/// Telemetry configuration carried by `StreamConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Record the timing layer (histograms, gauges, stage timers and
    /// wall-clock reads). Counters stay live either way, so
    /// `StreamStats` is identical in both modes; disabling only stops
    /// the pipeline from measuring *itself*.
    pub enabled: bool,
    /// Emit a [`MetricsReport`] every N merged windows (0 = only the
    /// final report at pipeline shutdown).
    pub report_every_windows: u64,
    /// Bound of the metrics report queue; reports beyond it are
    /// dropped (telemetry must never stall the pipeline).
    pub report_queue: usize,
}

impl Default for MetricsConfig {
    fn default() -> MetricsConfig {
        MetricsConfig { enabled: true, report_every_windows: 1, report_queue: 64 }
    }
}

/// Periodic telemetry emission, delivered on its own bounded channel
/// next to the `StreamReport` stream (take it with
/// `IngestHandle::metrics_reports`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Emission sequence number within this pipeline run (the final
    /// shutdown report always has the highest `seq`).
    pub seq: u64,
    /// Merged windows processed when the snapshot was taken.
    pub windows: u64,
    /// Registry snapshot, sorted by metric name.
    pub snapshot: MetricsSnapshot,
}

impl MetricsReport {
    /// Records accepted so far.
    pub fn records(&self) -> u64 {
        self.snapshot.counter(INGEST_RECORDS.name)
    }

    /// Records lost to disconnected shard rings so far.
    pub fn send_failures(&self) -> u64 {
        self.snapshot.counter(INGEST_SEND_FAILURES.name)
    }

    /// StreamReports dropped on the full bounded queue so far.
    pub fn reports_dropped(&self) -> u64 {
        self.snapshot.counter(REPORT_DROPPED.name)
    }

    /// MetricsReports dropped on the full bounded metrics queue so far
    /// (this very report's predecessors).
    pub fn metrics_dropped(&self) -> u64 {
        self.snapshot.counter(REPORT_METRICS_DROPPED.name)
    }

    /// Event-time watermark lag at the last broadcast, if the timing
    /// layer recorded one.
    pub fn watermark_lag_event_ms(&self) -> Option<u64> {
        self.snapshot.gauge(WATERMARK_LAG_EVENT_MS.name)
    }

    /// Per-handle frontier skew at the last broadcast.
    pub fn frontier_skew_ms(&self) -> Option<u64> {
        self.snapshot.gauge(WATERMARK_FRONTIER_SKEW_MS.name)
    }

    /// Report-queue depth at this emission.
    pub fn report_queue_depth(&self) -> Option<u64> {
        self.snapshot.gauge(REPORT_QUEUE_DEPTH.name)
    }

    /// Worker panics caught by a supervisor so far.
    pub fn worker_panics(&self) -> u64 {
        self.snapshot.counter(FAULT_WORKER_PANICS.name)
    }

    /// Records shed under `OverloadPolicy::Shed` so far.
    pub fn shed_records(&self) -> u64 {
        self.snapshot.counter(DEGRADED_SHED_RECORDS.name)
    }

    /// Windows quarantined after repeated extraction panics so far.
    pub fn quarantined_windows(&self) -> u64 {
        self.snapshot.counter(DEGRADED_QUARANTINED_WINDOWS.name)
    }
}

impl Serialize for MetricsReport {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("seq".to_string(), Value::U64(self.seq)),
            ("windows".to_string(), Value::U64(self.windows)),
            ("snapshot".to_string(), self.snapshot.to_json()),
        ])
    }
}

/// The per-run bundle of metric handles, shared (via `Arc`) by intake
/// handles, shard workers and the control thread.
#[derive(Debug)]
pub(crate) struct PipelineMetrics {
    registry: Registry,
    timing: bool,
    pub(crate) ingest_records: Counter,
    pub(crate) decode_errors: Counter,
    pub(crate) send_failures: Counter,
    pub(crate) flush_fill: Histogram,
    pub(crate) ingest_queue_depth: Histogram,
    pub(crate) channel_capacity: Gauge,
    pub(crate) recv_batch: Histogram,
    pub(crate) shard_queue_depth: Histogram,
    pub(crate) shard_apply: StageTimer,
    pub(crate) ctrl_stall: Histogram,
    pub(crate) late_dropped: Counter,
    pub(crate) out_of_span: Counter,
    pub(crate) merge_offer: StageTimer,
    pub(crate) merge_windows: Counter,
    pub(crate) merge_batch: Histogram,
    pub(crate) merged_alarms: Counter,
    pub(crate) detect_pool_queue_depth: Gauge,
    pub(crate) extract_encode: StageTimer,
    pub(crate) extract_mine: StageTimer,
    pub(crate) extract_queue_depth: Gauge,
    pub(crate) extract_stall: Histogram,
    pub(crate) extract_dict: DictCounters,
    pub(crate) reports_emitted: Counter,
    pub(crate) reports_dropped: Counter,
    pub(crate) report_queue_depth: Gauge,
    pub(crate) metrics_dropped: Counter,
    pub(crate) watermark_broadcasts: Counter,
    pub(crate) watermark_broadcast_ms: Gauge,
    pub(crate) lag_event_ms: Gauge,
    pub(crate) frontier_skew_ms: Gauge,
    pub(crate) lag_wall_ms: Gauge,
    pub(crate) fault_injected: Counter,
    pub(crate) worker_panics: Counter,
    pub(crate) shard_deaths: Counter,
    pub(crate) control_panics: Counter,
    pub(crate) detect_restarts: Counter,
    pub(crate) detect_failovers: Counter,
    pub(crate) extract_restarts: Counter,
    pub(crate) extract_failovers: Counter,
    pub(crate) quarantined_windows: Counter,
    pub(crate) shed_records: Counter,
}

impl PipelineMetrics {
    pub(crate) fn new(config: &MetricsConfig) -> PipelineMetrics {
        let registry = if config.enabled { Registry::new() } else { Registry::counters_only() };
        PipelineMetrics {
            timing: registry.timing_enabled(),
            ingest_records: registry.counter(&INGEST_RECORDS),
            decode_errors: registry.counter(&INGEST_DECODE_ERRORS),
            send_failures: registry.counter(&INGEST_SEND_FAILURES),
            flush_fill: registry.histogram(&INGEST_FLUSH_FILL),
            ingest_queue_depth: registry.histogram(&INGEST_QUEUE_DEPTH),
            channel_capacity: registry.gauge(&CHANNEL_CAPACITY),
            recv_batch: registry.histogram(&SHARD_RECV_BATCH),
            shard_queue_depth: registry.histogram(&SHARD_QUEUE_DEPTH),
            shard_apply: registry.timer(&SHARD_APPLY_NS),
            ctrl_stall: registry.histogram(&SHARD_CTRL_STALL_NS),
            late_dropped: registry.counter(&SHARD_LATE_DROPPED),
            out_of_span: registry.counter(&SHARD_OUT_OF_SPAN),
            merge_offer: registry.timer(&MERGE_OFFER_NS),
            merge_windows: registry.counter(&MERGE_WINDOWS),
            merge_batch: registry.histogram(&MERGE_BATCH_REPORTS),
            merged_alarms: registry.counter(&DETECT_MERGED_ALARMS),
            detect_pool_queue_depth: registry.gauge(&DETECT_POOL_QUEUE_DEPTH),
            extract_encode: registry.timer(&EXTRACT_ENCODE_NS),
            extract_mine: registry.timer(&EXTRACT_MINE_NS),
            extract_queue_depth: registry.gauge(&EXTRACT_QUEUE_DEPTH),
            extract_stall: registry.histogram(&EXTRACT_POOL_STALL_NS),
            extract_dict: DictCounters {
                hits: registry.counter(&EXTRACT_DICT_HITS),
                misses: registry.counter(&EXTRACT_DICT_MISSES),
                overflows: registry.counter(&EXTRACT_DICT_OVERFLOWS),
                dropped_items: registry.counter(&EXTRACT_DROPPED_ITEMS),
            },
            reports_emitted: registry.counter(&REPORT_EMITTED),
            reports_dropped: registry.counter(&REPORT_DROPPED),
            report_queue_depth: registry.gauge(&REPORT_QUEUE_DEPTH),
            metrics_dropped: registry.counter(&REPORT_METRICS_DROPPED),
            watermark_broadcasts: registry.counter(&WATERMARK_BROADCASTS),
            watermark_broadcast_ms: registry.gauge(&WATERMARK_BROADCAST_MS),
            lag_event_ms: registry.gauge(&WATERMARK_LAG_EVENT_MS),
            frontier_skew_ms: registry.gauge(&WATERMARK_FRONTIER_SKEW_MS),
            lag_wall_ms: registry.gauge(&WATERMARK_LAG_WALL_MS),
            fault_injected: registry.counter(&FAULT_INJECTED),
            worker_panics: registry.counter(&FAULT_WORKER_PANICS),
            shard_deaths: registry.counter(&FAULT_SHARD_DEATHS),
            control_panics: registry.counter(&FAULT_CONTROL_PANICS),
            detect_restarts: registry.counter(&DEGRADED_DETECT_RESTARTS),
            detect_failovers: registry.counter(&DEGRADED_DETECT_FAILOVERS),
            extract_restarts: registry.counter(&DEGRADED_EXTRACT_RESTARTS),
            extract_failovers: registry.counter(&DEGRADED_EXTRACT_FAILOVERS),
            quarantined_windows: registry.counter(&DEGRADED_QUARANTINED_WINDOWS),
            shed_records: registry.counter(&DEGRADED_SHED_RECORDS),
            registry,
        }
    }

    /// The per-shard shed counter, registered under the
    /// `degraded.shed_records.<shard>` family. The registry dedupes by
    /// name, so the intake handle that sheds and the control loop that
    /// reads stats back share the same underlying counter.
    pub(crate) fn shard_shed(&self, shard: usize) -> Counter {
        self.registry
            .counter_named(format!("degraded.shed_records.{shard}"), &DEGRADED_SHED_RECORDS_SHARD)
    }

    /// Whether the timing layer records; call sites use this to skip
    /// computing values (queue lengths, wall clocks) for no-op handles.
    #[inline]
    pub(crate) fn timing(&self) -> bool {
        self.timing
    }

    /// Instruments for one bank member, registered under the
    /// `detect.<name>.*` family.
    pub(crate) fn detector_instruments(&self, name: &str) -> DetectorInstruments {
        DetectorInstruments {
            push_timer: self
                .registry
                .timer_named(format!("detect.{name}.push_ns"), &DETECT_PUSH_NS),
            windows: self.registry.counter_named(format!("detect.{name}.windows"), &DETECT_WINDOWS),
            alarms: self.registry.counter_named(format!("detect.{name}.alarms"), &DETECT_ALARMS),
        }
    }

    /// Milliseconds since the unix epoch (the wall side of
    /// `watermark.lag_wall_ms`). Only called when timing is enabled.
    pub(crate) fn wall_now_ms() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }

    /// Deterministic point-in-time snapshot.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = CATALOG.iter().map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric names in CATALOG");
        for def in CATALOG {
            assert!(
                def.name.starts_with(def.stage) || def.name.starts_with(&format!("{}.", def.stage)),
                "{} should live under its stage prefix {}",
                def.name,
                def.stage
            );
            assert!(!def.unit.is_empty() && !def.help.is_empty(), "{} is undocumented", def.name);
        }
    }

    #[test]
    fn disabled_config_keeps_counters_but_not_timing() {
        let metrics =
            PipelineMetrics::new(&MetricsConfig { enabled: false, ..MetricsConfig::default() });
        assert!(!metrics.timing());
        metrics.ingest_records.add(5);
        metrics.flush_fill.record(64);
        metrics.lag_event_ms.set(1_000);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(INGEST_RECORDS.name), 5);
        assert_eq!(snap.get(INGEST_FLUSH_FILL.name), None);
        assert_eq!(snap.get(WATERMARK_LAG_EVENT_MS.name), None);
    }

    #[test]
    fn detector_instruments_register_under_the_family_names() {
        let metrics = PipelineMetrics::new(&MetricsConfig::default());
        let instr = metrics.detector_instruments("kl");
        instr.windows.add(3);
        instr.alarms.inc();
        instr.push_timer.time(|| std::hint::black_box(2 + 2));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("detect.kl.windows"), 3);
        assert_eq!(snap.counter("detect.kl.alarms"), 1);
        assert_eq!(snap.histogram("detect.kl.push_ns").map(|h| h.count), Some(1));
    }
}
