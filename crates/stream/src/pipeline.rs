//! The assembled pipeline: sharded ingest workers, one merge/detect/
//! extract control thread, and a subscriber channel of reports.
//!
//! ```text
//! IngestHandle(s) ──(bounded ring, by flow-key shard, one
//!       │            ingest_batch chunk per slot)──> shard worker 0..N [ShardWindows]
//!       │                                     per record: totals + 4 bin counts
//!       │                                     at close: sorted runs, if read
//!       └── shared watermark (min over live handles), sent only
//!           when it closes a window ───────────────────────────>│ closed shard windows
//!                                                               v
//!                                            control thread  [WindowManager]
//!                                      bin vector add + linear run merge
//!                                                               │ gapless ClosedWindows
//!                                                               v
//!                                               [DetectorBank] ─> merged EnsembleAlarms
//!                                                               v
//!                                        [ContinuousExtractor] ─> StreamReports
//!                                                               v
//!                                               subscriber Receiver<StreamReport>
//! ```
//!
//! What a window's summary carries follows from the registered
//! detectors' declarations ([`DetectorRegistry::summary_spec`]): with KL
//! alone, the per-record work is four bin increments and exact
//! distributions are never built; a detector reading them (entropy-PCA,
//! or any custom detector that does not declare otherwise) makes every
//! shard sort its window's feature columns at close.
//!
//! Both hops in front of the control thread are bounded, each in its
//! own unit. The ingest rings carry *records*, in chunks of
//! [`StreamConfig::ingest_batch`]: [`StreamConfig::queue_depth`]
//! records per shard, as whole chunks and at least two of them. A
//! watermark takes a slot of its own, and a handle sends one only when
//! it closes a window, so a shard worker wakes once per chunk. The
//! shard→control channel carries whole *windows*: it holds
//! [`window_backlog`] reports — two per shard, one being merged and one
//! queued — so what a busy extractor holds back is a fixed number of
//! windows, in memory and in report latency alike, however long the
//! storm lasts. A slow miner therefore backpressures through the workers
//! into [`IngestHandle::push`] rather than buffering without limit (the
//! time a shard spends blocked on the hand-off is
//! `shard.ctrl_stall_ns`). The report channel is bounded too, but
//! with a **drop-and-count** policy instead of backpressure: reports are
//! `try_send`-ed, a full queue drops the report and bumps
//! [`StreamStats::reports_dropped`], and the next delivered report
//! carries the cumulative drop count in
//! [`StreamReport::dropped_before`] — so a lazy subscriber can never
//! deadlock the pipeline against [`IngestHandle::finish`], yet sees the
//! size of any gap it caused.
//!
//! The ingest side lives in [`crate::ingest`]: per-shard chunks handed
//! over the lock-free channel, and any number of concurrent
//! [`IngestHandle`]s sharing one watermark table.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use anomex_core::extract::ExtractorConfig;
use anomex_flow::record::FlowRecord;
use anomex_flow::store::TimeRange;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use serde::{Deserialize, Serialize};

use crate::detector::{DetectorBank, DetectorCounters, DetectorPool, DetectorRegistry};
use crate::fault::{ActiveFaults, FaultPlan, FaultSite, Supervision, MAX_POOL_RESTARTS};
use crate::ingest::{PipelineCore, PipelineJoin};
use crate::metrics::{MetricsConfig, MetricsReport, PipelineMetrics};
use crate::report::{
    send_recording_stall, supervised_push, ContinuousExtractor, ExtractionPool, FaultKind,
    FaultNotice, RebuildSpec, StreamReport,
};
use crate::window::{ShardWindows, WindowConfig, WindowManager, WindowShard};
use anomex_obs::stage_timer;

pub use crate::ingest::IngestHandle;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Ingest worker threads; records are routed by 5-tuple shard.
    pub shards: usize,
    /// Records in flight per shard: each shard's ingest ring holds
    /// `queue_depth / ingest_batch` whole chunks, and at least two — the
    /// backpressure depth in front of the shard workers. The
    /// window-carrying hops behind them are not configured: they hold
    /// [`window_backlog`] windows.
    pub queue_depth: usize,
    /// Records per chunk, and so per ring slot: each [`IngestHandle`]
    /// fills one chunk per shard and hands a full chunk to the worker
    /// as one message (1 = one record per message).
    pub ingest_batch: usize,
    /// Bounded out-of-orderness: the watermark trails the maximum event
    /// time seen by this much. Records older than the watermark are
    /// dropped (and counted) as late.
    pub lateness_ms: u64,
    /// The watermark check cadence, in records per handle: the handle
    /// publishes its frontier this often, and sends the global
    /// watermark (flushing its chunks first) only when that closes a
    /// window. It is not a flush cadence: a chunk that neither fills nor
    /// precedes a window-closing watermark waits.
    pub watermark_every: usize,
    /// Replay span; see [`WindowConfig::span`]. `None` = open-ended.
    pub span: Option<TimeRange>,
    /// Capacity of the bounded subscriber (report) channel. A full
    /// queue drops reports (counted in [`StreamStats::reports_dropped`])
    /// rather than stalling detection.
    pub report_queue: usize,
    /// The detector bank judging each closed window: one or many
    /// detectors (an ensemble), every entry on the same interval.
    pub detectors: DetectorRegistry,
    /// Detector-bank worker threads. `0` (the default) runs every
    /// detector inline on the control thread; `n > 0` fans the bank
    /// across `n` workers (clamped to the detector count) with the
    /// deterministic control-side merge — output is bit-identical
    /// either way, so this is purely a throughput knob for wide
    /// ensembles on multi-core hosts.
    pub detector_workers: usize,
    /// Extraction worker threads. `0` (the default) mines every alarm
    /// inline on the control thread; `n > 0` moves the whole
    /// extraction stage (retention horizon, encoding, mining) onto a
    /// dedicated worker so an alarmed window no longer stalls merge,
    /// detection and watermark progress for the mining time. Output is
    /// bit-identical either way: one FIFO worker preserves window
    /// order exactly. Values above 1 are clamped to 1 — window-order
    /// determinism requires a single sequencer; the field is sized for
    /// a future re-sequencing fan-out.
    pub extraction_workers: usize,
    /// Pin each shard worker to a core (`shard % available cores`).
    /// Linux only, best effort: a mask the kernel rejects is ignored
    /// (see [`crate::affinity`]). Off by default — pinning steadies
    /// multicore throughput but penalizes oversubscribed hosts, so the
    /// scaling bench opts in explicitly.
    pub pin_shards: bool,
    /// Extraction parameters applied on every alarm.
    pub extractor: ExtractorConfig,
    /// Closed windows retained for extraction (candidate horizon).
    ///
    /// Candidate selection matches the batch store's overlap query
    /// only for flows still resident: size this so
    /// `retain_windows * interval_ms` exceeds the longest flow
    /// duration on the wire, or flows that started before the horizon
    /// (but still overlap the alarmed window) are missing from the
    /// mined candidates.
    pub retain_windows: usize,
    /// Telemetry: whether the timing layer records, and how often a
    /// [`MetricsReport`] is emitted. Counters (everything surfaced in
    /// [`StreamStats`]) are live regardless, so disabling telemetry
    /// never changes the run's statistics or reports.
    pub metrics: MetricsConfig,
    /// What ingest does when a shard's bounded queue stays full; see
    /// [`OverloadPolicy`]. Backpressure (lossless) by default.
    pub overload: OverloadPolicy,
    /// Deterministic fault-injection schedule (`fault-inject` feature;
    /// a zero-sized no-op otherwise). Empty by default: inject nothing.
    pub faults: FaultPlan,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            shards: 2,
            queue_depth: 1_024,
            ingest_batch: 512,
            lateness_ms: 30_000,
            watermark_every: 256,
            span: None,
            report_queue: 1_024,
            detectors: DetectorRegistry::kl(anomex_detect::kl::KlConfig::default()),
            detector_workers: 0,
            extraction_workers: 0,
            pin_shards: false,
            extractor: ExtractorConfig::default(),
            retain_windows: 2,
            metrics: MetricsConfig::default(),
            overload: OverloadPolicy::Backpressure,
            faults: FaultPlan::new(),
        }
    }
}

/// Ingest behavior when a shard worker's bounded queue stays full —
/// the graceful-degradation knob for overload.
///
/// Backpressure is lossless and the right default for replay and
/// archival workloads. Live collectors that must keep absorbing the
/// wire pick [`Shed`](OverloadPolicy::Shed): a flush that cannot hand
/// its batch over within the bound drops the remaining records and
/// counts them — globally on `degraded.shed_records`, per shard on
/// `degraded.shed_records.<shard>`, and in
/// [`PipelineHealth::per_shard_shed`] — so overload is visible and
/// exactly accounted, never silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Block the pushing thread until the shard drains (lossless).
    #[default]
    Backpressure,
    /// Retry a full queue up to `max_queue_delay` per flush, then shed
    /// the records still unsent.
    Shed {
        /// Longest time one flush may spend retrying a full shard
        /// queue before shedding the rest of its batch.
        max_queue_delay: Duration,
    },
}

/// Degradation counters for one pipeline run — the supervision
/// layer's read-back view, carried in [`StreamStats::health`]. All
/// zeros ([`healthy`](PipelineHealth::healthy)) on a clean run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PipelineHealth {
    /// Worker panics caught by any supervisor (`fault.worker_panics`).
    pub worker_panics: u64,
    /// Shard workers that died; their traffic after death was lost and
    /// the run ended with a terminal [`FaultNotice`]
    /// (`fault.shard_deaths`).
    pub shard_deaths: u64,
    /// Detector-pool seats rebuilt after a panic, plus inline bank
    /// slots rebuilt (`degraded.detect.restarts`).
    pub detector_restarts: u64,
    /// Detector pools that fell back to the inline bank
    /// (`degraded.detect.failovers`).
    pub detector_failovers: u64,
    /// Extraction workers rebuilt after a panic
    /// (`degraded.extract.restarts`).
    pub extraction_restarts: u64,
    /// Extraction pools that fell back to the inline extractor
    /// (`degraded.extract.failovers`).
    pub extraction_failovers: u64,
    /// Windows whose extraction was skipped (reported as in-band
    /// [`FaultNotice`]s) after repeated panics
    /// (`degraded.quarantined_windows`).
    pub quarantined_windows: u64,
    /// Records shed under [`OverloadPolicy::Shed`], total
    /// (`degraded.shed_records`).
    pub shed_records: u64,
    /// Exact shed accounting per shard; only shards that actually shed
    /// appear, so shard count alone never changes the value.
    pub per_shard_shed: Vec<ShardShed>,
    /// Control threads that died; statistics were recovered from the
    /// metrics registry (`fault.control_panics`).
    pub control_panics: u64,
}

impl PipelineHealth {
    /// True when nothing degraded: no caught panic, no shed record, no
    /// quarantined window, no dead thread.
    pub fn healthy(&self) -> bool {
        *self == PipelineHealth::default()
    }
}

/// One shard's shed-record count (see [`PipelineHealth::per_shard_shed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardShed {
    /// Shard index.
    pub shard: usize,
    /// Records this shard's flushes shed.
    pub records: u64,
}

impl StreamConfig {
    /// The tumbling-window grid the configuration implies, with the
    /// window summaries the detector bank reads.
    ///
    /// # Panics
    /// Panics when the detector registry is empty or its entries
    /// disagree on the detection interval.
    pub fn window_config(&self) -> WindowConfig {
        WindowConfig {
            width_ms: self.detectors.interval_ms(),
            span: self.span,
            summary: self.detectors.summary_spec(),
        }
    }
}

/// Counters accumulated over one pipeline run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StreamStats {
    /// Records accepted by [`IngestHandle::push`] across every handle
    /// (including ones later dropped as late).
    pub ingested: u64,
    /// NetFlow packets that failed to decode.
    pub decode_errors: u64,
    /// Records that could not be handed to a shard worker because its
    /// channel disconnected mid-run (a worker died): lost traffic that
    /// previously vanished silently.
    pub send_failures: u64,
    /// Records dropped behind the watermark.
    pub late_dropped: u64,
    /// Records outside the configured span.
    pub out_of_span: u64,
    /// Windows closed and fed to the detector bank.
    pub windows: u64,
    /// Merged alarms the detector bank raised (flagged windows; a
    /// window several detectors flag counts once).
    pub alarms: u64,
    /// Per-detector windows/alarms, in bank order — the pre-merge
    /// attribution.
    pub per_detector: Vec<DetectorCounters>,
    /// Reports produced by the extractor (delivered or dropped).
    pub reports: u64,
    /// Reports dropped because the bounded subscriber channel was full.
    pub reports_dropped: u64,
    /// Supervision read-back: caught panics, restarts, failovers, shed
    /// and quarantined work. All zeros on a clean run.
    pub health: PipelineHealth,
}

pub(crate) enum ShardMsg {
    /// One chunk of records, in arrival order.
    Records(Vec<FlowRecord>),
    Watermark(u64),
    Flush,
}

enum CtrlMsg {
    Report {
        shard: usize,
        frontier: u64,
        windows: Vec<WindowShard>,
    },
    Done {
        late_dropped: u64,
        out_of_span: u64,
    },
    /// The shard's worker died (its panic was caught by the spawn
    /// harness): retire it from the merge frontier so the stream keeps
    /// emitting, and end the run with a terminal fault notice.
    Fault {
        shard: usize,
    },
}

/// Launch the pipeline; returns the ingest handle and the subscriber
/// end of the report channel. Clone or [`IngestHandle::split`] the
/// handle for multi-socket intake.
///
/// # Panics
/// Panics if `shards` is zero, the detector registry is empty or
/// mixed-interval, or the detection interval is zero.
pub fn launch(config: StreamConfig) -> (IngestHandle, Receiver<StreamReport>) {
    assert!(config.shards > 0, "shard count must be positive");
    assert!(!config.detectors.is_empty(), "detector registry must hold at least one detector");
    let window_config = config.window_config();

    let metrics = Arc::new(PipelineMetrics::new(&config.metrics));
    let faults = ActiveFaults::new(&config.faults, metrics.fault_injected.clone());
    let (ctrl_tx, ctrl_rx) = bounded::<CtrlMsg>(window_backlog(config.shards));
    let (report_tx, report_rx) = bounded::<StreamReport>(config.report_queue.max(1));
    let (metrics_tx, metrics_rx) = bounded::<MetricsReport>(config.metrics.report_queue.max(1));

    let mut senders = Vec::with_capacity(config.shards);
    let mut workers = Vec::with_capacity(config.shards);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // `queue_depth` records as whole chunks, and at least two slots, so
    // the producer fills one chunk while the worker applies the other.
    let slots = (config.queue_depth / config.ingest_batch.max(1)).max(2);
    for shard in 0..config.shards {
        let (tx, rx) = bounded::<ShardMsg>(slots);
        senders.push(tx);
        let ctrl = ctrl_tx.clone();
        let worker_metrics = Arc::clone(&metrics);
        let worker_faults = Arc::clone(&faults);
        let pin = config.pin_shards;
        workers.push(
            std::thread::Builder::new()
                .name(format!("anomex-shard-{shard}"))
                .spawn(move || {
                    if pin {
                        // Best effort: keep this shard's window state
                        // and ring slots cache-resident on one core.
                        let _ = crate::affinity::pin_current_thread(shard % cores);
                    }
                    // The supervision harness: a panicking shard (a bug
                    // in windowing, or an injected ShardPanic) must not
                    // hang the pipeline. Its windowed state is
                    // unrecoverable — per-shard windows cannot be
                    // rebuilt from nothing — so the worker is not
                    // restarted; the control loop retires the shard
                    // from the merge frontier and ends the run with a
                    // terminal fault notice.
                    let dead = catch_unwind(AssertUnwindSafe(|| {
                        shard_worker(
                            shard,
                            &rx,
                            &ctrl,
                            window_config,
                            &worker_metrics,
                            &worker_faults,
                        )
                    }))
                    .is_err();
                    if dead {
                        worker_metrics.worker_panics.inc();
                        worker_metrics.shard_deaths.inc();
                        let _ = ctrl.send(CtrlMsg::Fault { shard });
                    }
                })
                .expect("spawn shard worker"),
        );
    }
    drop(ctrl_tx);
    if let Some(cap) = senders[0].capacity() {
        metrics.channel_capacity.set(cap as u64);
    }

    let (shards, lateness_ms, watermark_every, ingest_batch, overload) = (
        config.shards,
        config.lateness_ms,
        config.watermark_every,
        config.ingest_batch,
        config.overload,
    );
    let control_metrics = Arc::clone(&metrics);
    let control_faults = Arc::clone(&faults);
    let control = std::thread::Builder::new()
        .name("anomex-stream-control".into())
        .spawn(move || {
            control_loop(
                config,
                window_config,
                ctrl_rx,
                report_tx,
                control_metrics,
                metrics_tx,
                control_faults,
            )
        })
        .expect("spawn control thread");

    let core = Arc::new(PipelineCore::new(
        senders,
        lateness_ms,
        window_config,
        PipelineJoin { workers, control },
        metrics,
        metrics_rx,
        overload,
        faults,
    ));
    let handle = IngestHandle::launch_first(core, shards, ingest_batch, watermark_every);
    (handle, report_rx)
}

/// Messages (chunks and watermarks) a shard worker drains per
/// `recv_many` call at most.
const SHARD_RECV_BATCH: usize = 256;

/// Windows the control thread may dispatch to the detector pool ahead
/// of collecting verdicts (per worker). Windows are rare relative to
/// records, so a small bound suffices to keep every worker busy across
/// a ready run while capping the buffered `IntervalStat` clones.
const DETECT_POOL_QUEUE: usize = 64;

/// Closed windows that may wait in front of a stage that consumes whole
/// windows — shard reports in front of the control thread, window
/// snapshots in front of the extraction worker: two per shard, one
/// being processed and one queued behind it. Every queued entry pins a
/// window's records, so this (not a message count) is what bounds the
/// memory and the queueing delay of a run in which every window alarms.
/// It is also how many shard reports the control thread coalesces into
/// one stage/drain pass: blocked shards refill the channel as fast as
/// it is drained, so an uncapped pass would pull the backlog the
/// channel refuses to hold into the merge stage instead.
pub fn window_backlog(shards: usize) -> usize {
    2 * shards
}

/// One ingest shard: windows its records, closes them on watermarks.
/// Runs under the spawn harness's `catch_unwind` — a panic here is
/// caught, counted, and reported as a [`CtrlMsg::Fault`].
fn shard_worker(
    shard: usize,
    rx: &Receiver<ShardMsg>,
    ctrl: &Sender<CtrlMsg>,
    config: WindowConfig,
    metrics: &PipelineMetrics,
    faults: &ActiveFaults,
) {
    let mut windows = ShardWindows::new(shard, config);
    let mut batch: Vec<ShardMsg> = Vec::with_capacity(SHARD_RECV_BATCH);
    let mut closed: Vec<CtrlMsg> = Vec::new();
    let mut flushed = false;
    while !flushed && rx.recv_many(&mut batch, SHARD_RECV_BATCH) > 0 {
        if faults.fire(FaultSite::ShardPanic(shard)) {
            panic!("fault-inject: shard worker panic");
        }
        if metrics.timing() {
            metrics.recv_batch.record(batch.len() as u64);
            metrics.shard_queue_depth.record(rx.len() as u64);
        }
        {
            // Times the drained batch's own work: window pushes and
            // watermark closes. The reports it produced are handed over
            // after the span ends, so waiting on the control thread is
            // `shard.ctrl_stall_ns`, never apply time.
            stage_timer!(metrics.shard_apply);
            for msg in batch.drain(..) {
                match msg {
                    ShardMsg::Records(chunk) => {
                        for record in chunk {
                            windows.push(record);
                        }
                    }
                    ShardMsg::Watermark(watermark_ms) => {
                        let frontier_before = windows.frontier();
                        let partials = windows.close_up_to(watermark_ms);
                        if partials.is_empty() && windows.frontier() == frontier_before {
                            // Stale watermark (each handle of a multi-handle
                            // intake sends its own, and a closing handle
                            // sends one unconditionally): nothing closed,
                            // frontier unmoved — the manager needs no report.
                            continue;
                        }
                        closed.push(CtrlMsg::Report {
                            shard,
                            frontier: windows.frontier(),
                            windows: partials,
                        });
                    }
                    ShardMsg::Flush => {
                        flushed = true;
                        break;
                    }
                }
            }
        }
        for report in closed.drain(..) {
            if !send_recording_stall(ctrl, report, &metrics.ctrl_stall) {
                return; // control thread gone; nothing left to do
            }
        }
    }
    // Flush (or every ingest handle dropped): close everything and seal.
    let rest = windows.flush();
    let seal = CtrlMsg::Report { shard, frontier: windows.frontier(), windows: rest };
    let _ = send_recording_stall(ctrl, seal, &metrics.ctrl_stall);
    let _ = ctrl.send(CtrlMsg::Done {
        late_dropped: windows.late_dropped(),
        out_of_span: windows.out_of_span(),
    });
}

/// Snapshot the registry and `try_send` it on the metrics channel —
/// drop-on-full, like the report channel: telemetry never stalls the
/// pipeline.
fn emit_metrics(
    metrics: &PipelineMetrics,
    metrics_tx: &Sender<MetricsReport>,
    report_tx: &Sender<StreamReport>,
    seq: &mut u64,
) {
    if metrics.timing() {
        metrics.report_queue_depth.set(report_tx.len() as u64);
    }
    let report = MetricsReport {
        seq: *seq,
        windows: metrics.merge_windows.get(),
        snapshot: metrics.snapshot(),
    };
    *seq += 1;
    match metrics_tx.try_send(report) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => metrics.metrics_dropped.inc(),
        Err(TrySendError::Disconnected(_)) => {}
    }
}

/// The detection stage as the control loop drives it: the sequential
/// bank inline on the control thread, or the worker pool behind the
/// same deterministic control-side merge ([`StreamConfig::detector_workers`]).
#[allow(clippy::large_enum_variant)] // one instance per pipeline, never collected
enum BankDriver {
    Inline(DetectorBank),
    Pool(DetectorPool),
}

impl BankDriver {
    fn counters(&self) -> Vec<DetectorCounters> {
        match self {
            BankDriver::Inline(bank) => bank.counters(),
            BankDriver::Pool(pool) => pool.counters(),
        }
    }
}

/// The extraction stage as the control loop drives it: the continuous
/// extractor inline on the control thread (supervised per window, with
/// the rebuild spec for panic recovery), or the dedicated worker
/// behind the same in-order emission path
/// ([`StreamConfig::extraction_workers`]).
enum ExtractDriver {
    Inline { extractor: ContinuousExtractor, spec: RebuildSpec, supervision: Supervision },
    Pool(ExtractionPool),
}

/// Shared subscriber-emission path for both extraction drivers: count
/// the report, stamp the drop gap *at send time*, and never block on
/// the subscriber.
fn emit_report(
    mut report: StreamReport,
    metrics: &PipelineMetrics,
    report_tx: &Sender<StreamReport>,
) {
    metrics.reports_emitted.inc();
    report.set_dropped_before(metrics.reports_dropped.get());
    // Never block detection on the subscriber: a full queue drops the
    // report and counts it; a dropped subscriber just discards.
    match report_tx.try_send(report) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => metrics.reports_dropped.inc(),
        Err(TrySendError::Disconnected(_)) => {}
    }
}

/// The single consumer of shard reports: merge, detect, extract, emit.
///
/// The run counters (`windows`, `alarms`, `reports`, drops) live on the
/// metrics registry; the returned [`StreamStats`] is a read-back view
/// over them, so the stats stay byte-identical whether or not the
/// timing layer records.
fn control_loop(
    config: StreamConfig,
    window_config: WindowConfig,
    ctrl_rx: Receiver<CtrlMsg>,
    report_tx: Sender<StreamReport>,
    metrics: Arc<PipelineMetrics>,
    metrics_tx: Sender<MetricsReport>,
    faults: Arc<ActiveFaults>,
) -> StreamStats {
    let detect_supervision = Supervision {
        faults: Arc::clone(&faults),
        worker_panics: metrics.worker_panics.clone(),
        restarts: metrics.detect_restarts.clone(),
        failovers: metrics.detect_failovers.clone(),
        quarantined: metrics.quarantined_windows.clone(),
        max_restarts: MAX_POOL_RESTARTS,
    };
    let extract_supervision = Supervision {
        faults: Arc::clone(&faults),
        worker_panics: metrics.worker_panics.clone(),
        restarts: metrics.extract_restarts.clone(),
        failovers: metrics.extract_failovers.clone(),
        quarantined: metrics.quarantined_windows.clone(),
        max_restarts: MAX_POOL_RESTARTS,
    };
    let mut manager = WindowManager::new(config.shards, window_config);
    let mut bank = config.detectors.build_bank();
    bank.instrument(|name| metrics.detector_instruments(name));
    bank.supervise(detect_supervision.clone());
    let mut driver = if config.detector_workers > 0 {
        BankDriver::Pool(bank.into_pool_supervised(
            config.detector_workers,
            DETECT_POOL_QUEUE,
            detect_supervision,
        ))
    } else {
        BankDriver::Inline(bank)
    };
    let mut extractor = ContinuousExtractor::new(config.extractor, config.retain_windows);
    extractor.instrument(metrics.extract_encode.clone(), metrics.extract_mine.clone());
    extractor.instrument_dict(metrics.extract_dict.clone());
    let mut extract = if config.extraction_workers > 0 {
        ExtractDriver::Pool(extractor.into_pool_supervised(
            window_backlog(config.shards),
            metrics.extract_stall.clone(),
            extract_supervision,
        ))
    } else {
        let spec = extractor.rebuild_spec();
        ExtractDriver::Inline { extractor, spec, supervision: extract_supervision }
    };
    let mut stats = StreamStats::default();
    let mut metrics_seq = 0u64;
    let report_every = config.metrics.report_every_windows;

    let process = |closed: Vec<crate::window::ClosedWindow>,
                   driver: &mut BankDriver,
                   extract: &mut ExtractDriver,
                   metrics_seq: &mut u64| {
        if let BankDriver::Pool(pool) = driver {
            // Broadcast the whole ready run before collecting the
            // first verdict: the workers chew on windows w+1.. while
            // the control thread merges and mines window w.
            for window in &closed {
                pool.dispatch_window(window);
            }
            if metrics.timing() {
                metrics.detect_pool_queue_depth.set(pool.queue_depth() as u64);
            }
        }
        for window in closed {
            metrics.merge_windows.inc();
            let alarms = match driver {
                BankDriver::Inline(bank) => bank.push_window(&window),
                BankDriver::Pool(pool) => pool.collect(),
            };
            metrics.merged_alarms.add(alarms.len() as u64);
            match extract {
                ExtractDriver::Inline { extractor, spec, supervision } => {
                    for report in supervised_push(extractor, spec, supervision, window, &alarms) {
                        emit_report(report, &metrics, &report_tx);
                    }
                }
                ExtractDriver::Pool(pool) => {
                    // Hand the window off (Arc-segment snapshot: a few
                    // pointer bumps) and relay whatever the worker has
                    // already finished. The worker is a single FIFO
                    // thread, so relayed reports arrive in window order.
                    pool.dispatch(window, alarms);
                    if metrics.timing() {
                        metrics.extract_queue_depth.set(pool.queue_depth() as u64);
                    }
                    for report in pool.try_collect() {
                        emit_report(report, &metrics, &report_tx);
                    }
                }
            }
            if report_every > 0 && metrics.merge_windows.get().is_multiple_of(report_every) {
                emit_metrics(&metrics, &metrics_tx, &report_tx, metrics_seq);
            }
        }
    };

    let mut done = 0usize;
    let mut shard_faults: Vec<usize> = Vec::new();
    let coalesce = window_backlog(config.shards);
    while done < config.shards {
        let Ok(first) = ctrl_rx.recv() else {
            break; // every worker gone (panic path): emit what we can
        };
        // Coalesce: greedily drain whatever else the shards have
        // queued, stage every report, and run ONE bulk merge — the
        // per-report frontier scans and emission walks amortize over
        // the batch, and the detector stage receives one long run of
        // ready windows instead of many short ones (which is what the
        // pool's dispatch-ahead feeds on). Bounded by the same window
        // backlog as the channel itself (see `window_backlog`).
        let mut staged = 0usize;
        let mut msg = Some(first);
        loop {
            match msg.take() {
                Some(CtrlMsg::Report { shard, frontier, windows }) => {
                    manager.stage(shard, frontier, windows);
                    staged += 1;
                }
                Some(CtrlMsg::Done { late_dropped, out_of_span }) => {
                    metrics.late_dropped.add(late_dropped);
                    metrics.out_of_span.add(out_of_span);
                    done += 1;
                }
                Some(CtrlMsg::Fault { shard }) => {
                    // The dead shard sends no further frontier: retire
                    // it so the min-frontier merge keeps emitting the
                    // survivors' windows instead of stalling forever.
                    manager.retire_shard(shard);
                    shard_faults.push(shard);
                    done += 1;
                    staged += 1; // the frontier moved: run the merge
                }
                None => {}
            }
            if staged >= coalesce {
                break;
            }
            match ctrl_rx.try_recv() {
                Ok(next) => msg = Some(next),
                Err(_) => break, // empty or disconnected: merge what we have
            }
        }
        if staged > 0 {
            if metrics.timing() {
                metrics.merge_batch.record(staged as u64);
            }
            let closed = stage_timer!(metrics.merge_offer, manager.drain());
            process(closed, &mut driver, &mut extract, &mut metrics_seq);
        }
    }
    let closed = stage_timer!(metrics.merge_offer, manager.finish());
    process(closed, &mut driver, &mut extract, &mut metrics_seq);
    // Stream end: wait for the extraction worker to finish every
    // dispatched window and relay the remaining reports, BEFORE the
    // stats read-back and the final metrics snapshot — the last
    // subscriber report always precedes Flush, and the final snapshot
    // sees the complete run.
    if let ExtractDriver::Pool(pool) = &mut extract {
        for report in pool.drain() {
            emit_report(report, &metrics, &report_tx);
        }
        if metrics.timing() {
            metrics.extract_queue_depth.set(0);
        }
    }
    // A dead shard is a gap no downstream stage can see on its own:
    // close the stream with a terminal fault notice (after the last
    // extraction report, so subscribers read it as "the run ended
    // degraded" rather than racing it with window output).
    if !shard_faults.is_empty() {
        shard_faults.sort_unstable();
        let notice = FaultNotice {
            kind: FaultKind::ShardDead,
            window: None,
            detail: format!(
                "shard worker(s) {shard_faults:?} died; their windowed traffic from the point \
                 of death on is missing from every later window"
            ),
            terminal: true,
            dropped_before: 0,
        };
        emit_report(StreamReport::Fault(notice), &metrics, &report_tx);
    }
    stats.late_dropped = metrics.late_dropped.get();
    stats.out_of_span = metrics.out_of_span.get();
    stats.windows = metrics.merge_windows.get();
    stats.alarms = metrics.merged_alarms.get();
    stats.reports = metrics.reports_emitted.get();
    stats.reports_dropped = metrics.reports_dropped.get();
    stats.per_detector = driver.counters();
    stats.health = PipelineHealth {
        worker_panics: metrics.worker_panics.get(),
        shard_deaths: metrics.shard_deaths.get(),
        detector_restarts: metrics.detect_restarts.get(),
        detector_failovers: metrics.detect_failovers.get(),
        extraction_restarts: metrics.extract_restarts.get(),
        extraction_failovers: metrics.extract_failovers.get(),
        quarantined_windows: metrics.quarantined_windows.get(),
        shed_records: metrics.shed_records.get(),
        per_shard_shed: (0..config.shards)
            .filter_map(|s| {
                let records = metrics.shard_shed(s).get();
                (records > 0).then_some(ShardShed { shard: s, records })
            })
            .collect(),
        control_panics: metrics.control_panics.get(),
    };
    // One final report so a subscriber always sees the complete run,
    // whatever the cadence. Ingest totals are included: every handle
    // folds them at close, and the stream-end Flush that gets us here is
    // only sent (or the channels only disconnect) after the last close.
    emit_metrics(&metrics, &metrics_tx, &report_tx, &mut metrics_seq);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_detect::alarm::Alarm;
    use anomex_detect::kl::KlConfig;
    use anomex_flow::v5;
    use std::net::Ipv4Addr;

    fn scan_config(shards: usize) -> StreamConfig {
        StreamConfig {
            shards,
            queue_depth: 64,
            lateness_ms: 10_000,
            watermark_every: 50,
            span: Some(TimeRange::new(0, 8 * 60_000)),
            detectors: DetectorRegistry::kl(KlConfig {
                interval_ms: 60_000,
                ..KlConfig::default()
            }),
            retain_windows: 2,
            ..StreamConfig::default()
        }
    }

    /// Eight 1-minute windows of benign traffic; a port scan in the last.
    fn trace() -> Vec<FlowRecord> {
        let mut flows = Vec::new();
        for t in 0..8u64 {
            let base = t * 60_000;
            for i in 0..200u32 {
                flows.push(
                    FlowRecord::builder()
                        .time(base + (i as u64 * 91) % 60_000, base + (i as u64 * 91) % 60_000 + 50)
                        .src(Ipv4Addr::from(0x0A00_0000 + (i % 40)), 1_024 + (i % 500) as u16)
                        .dst(
                            Ipv4Addr::from(0xAC10_0000 + (i % 7)),
                            if i % 3 == 0 { 443 } else { 80 },
                        )
                        .volume(3, 1_800)
                        .build(),
                );
            }
            if t == 7 {
                for p in 1..=1_500u32 {
                    flows.push(
                        FlowRecord::builder()
                            .time(base + (p as u64 % 60_000), base + (p as u64 % 60_000) + 1)
                            .src("10.66.66.66".parse().unwrap(), 55_548)
                            .dst("172.16.0.99".parse().unwrap(), p as u16)
                            .volume(1, 44)
                            .build(),
                    );
                }
            }
        }
        flows
    }

    #[test]
    fn pipeline_detects_and_reports_the_scan() {
        let (mut ingest, reports) = launch(scan_config(2));
        ingest.push_batch(trace());
        let stats = ingest.finish();
        let received: Vec<StreamReport> = reports.iter().collect();

        assert_eq!(stats.ingested, 8 * 200 + 1_500);
        assert_eq!(stats.late_dropped, 0, "in-order feed must drop nothing");
        assert_eq!(stats.send_failures, 0, "healthy workers lose nothing");
        assert_eq!(stats.windows, 8, "bounded span closes every window");
        assert_eq!(stats.alarms, 1);
        assert_eq!(stats.reports, 1);
        assert_eq!(received.len(), 1);
        let report = &received[0];
        assert_eq!(report.alarm().unwrap().window.from_ms, 7 * 60_000);
        let extraction = report.extraction().unwrap();
        assert!(
            extraction.itemsets[0].items.iter().any(|i| i.to_string() == "srcIP=10.66.66.66"),
            "scanner missing from top itemset: {}",
            extraction.itemsets[0].pattern()
        );
    }

    #[test]
    fn kl_pca_ensemble_runs_end_to_end_with_attribution() {
        use anomex_detect::pca::PcaConfig;
        let kl = KlConfig { interval_ms: 60_000, ..KlConfig::default() };
        let pca = PcaConfig { interval_ms: 60_000, ..PcaConfig::default() };
        let config = StreamConfig {
            detectors: DetectorRegistry::from_specs(&[
                crate::detector::DetectorSpec::Kl(kl),
                crate::detector::DetectorSpec::Pca(pca, 12),
            ]),
            span: Some(TimeRange::new(0, 12 * 60_000)),
            ..scan_config(2)
        };
        // Twelve windows so sliding PCA has training room; scan in the
        // last one.
        let mut flows = Vec::new();
        for t in 0..12u64 {
            let base = t * 60_000;
            let n = 200 + (t % 3) as u32 * 11;
            for i in 0..n {
                flows.push(
                    FlowRecord::builder()
                        .time(base + (i as u64 * 91) % 60_000, base + (i as u64 * 91) % 60_000 + 50)
                        .src(
                            Ipv4Addr::from(0x0A00_0000 + ((i * 3 + t as u32) % 40)),
                            1_024 + (i % 500) as u16,
                        )
                        .dst(
                            Ipv4Addr::from(0xAC10_0000 + (i % 7)),
                            if i % 3 == 0 { 443 } else { 80 },
                        )
                        .volume(3, 1_800)
                        .build(),
                );
            }
            if t == 11 {
                for p in 1..=2_000u32 {
                    flows.push(
                        FlowRecord::builder()
                            .time(base + (p as u64 % 60_000), base + (p as u64 % 60_000) + 1)
                            .src("10.66.66.66".parse().unwrap(), 55_548)
                            .dst("172.16.0.99".parse().unwrap(), p as u16)
                            .volume(1, 44)
                            .build(),
                    );
                }
            }
        }
        let (mut ingest, reports) = launch(config);
        ingest.push_batch(flows);
        let stats = ingest.finish();
        let received: Vec<StreamReport> = reports.iter().collect();

        assert_eq!(stats.windows, 12);
        assert_eq!(stats.per_detector.len(), 2, "per-detector counters: {:?}", stats.per_detector);
        assert_eq!(stats.per_detector[0].name, "kl");
        assert_eq!(stats.per_detector[1].name, "entropy-pca");
        assert_eq!(stats.per_detector[0].windows, 12);
        assert_eq!(stats.per_detector[1].windows, 12);
        assert!(stats.per_detector[0].alarms >= 1, "KL missed the scan: {:?}", stats.per_detector);
        assert!(stats.per_detector[1].alarms >= 1, "PCA missed the scan: {:?}", stats.per_detector);

        let scan = received
            .iter()
            .find(|r| r.alarm().is_some_and(|a| a.window.from_ms == 11 * 60_000))
            .expect("scan window must be reported");
        assert_eq!(scan.sources().len(), 2, "both detectors attribute: {:?}", scan.alarm());
        assert_eq!(scan.alarm().unwrap().detector, "kl+entropy-pca");
        let extraction = scan.extraction().unwrap();
        assert!(
            extraction.itemsets[0].items.iter().any(|i| i.to_string() == "srcIP=10.66.66.66"),
            "scanner missing from merged extraction: {}",
            extraction.itemsets[0].pattern()
        );
        // Merged per window: reports never repeat a window per detector.
        let mut windows: Vec<u64> =
            received.iter().map(|r| r.alarm().unwrap().window.from_ms).collect();
        windows.dedup();
        assert_eq!(windows.len(), received.len(), "duplicate window reports: {windows:?}");
    }

    /// Records, per window, whether the summary it was handed carried
    /// exact distributions; declares that it reads bins only, so it
    /// observes a bank without changing what the bank's windows carry.
    struct BinsSpy(Arc<std::sync::Mutex<Vec<bool>>>);
    impl anomex_detect::detector::Detector for BinsSpy {
        fn name(&self) -> &str {
            "bins-spy"
        }
        fn interval_ms(&self) -> u64 {
            60_000
        }
        fn reads(&self) -> anomex_detect::detector::Reads {
            anomex_detect::detector::Reads::Bins { bins_log2: 7 }
        }
        fn push(
            &mut self,
            stat: &anomex_detect::interval::IntervalStat,
        ) -> Vec<anomex_detect::alarm::Alarm> {
            self.0.lock().unwrap().push(stat.dists().is_some());
            Vec::new()
        }
    }

    /// The same spy with no `reads` declaration: the default.
    struct UndeclaredSpy(Arc<std::sync::Mutex<Vec<bool>>>);
    impl anomex_detect::detector::Detector for UndeclaredSpy {
        fn name(&self) -> &str {
            "undeclared-spy"
        }
        fn interval_ms(&self) -> u64 {
            60_000
        }
        fn push(
            &mut self,
            stat: &anomex_detect::interval::IntervalStat,
        ) -> Vec<anomex_detect::alarm::Alarm> {
            self.0.lock().unwrap().push(stat.dists().is_some());
            Vec::new()
        }
    }

    #[test]
    fn exact_distributions_are_built_only_when_a_detector_reads_them() {
        use anomex_detect::pca::PcaConfig;
        let kl = crate::detector::DetectorSpec::Kl(KlConfig {
            interval_ms: 60_000,
            ..KlConfig::default()
        });
        let pca = crate::detector::DetectorSpec::Pca(
            PcaConfig { interval_ms: 60_000, ..PcaConfig::default() },
            12,
        );
        // Per window: did the spy's summary carry exact distributions?
        let run = |specs: &[crate::detector::DetectorSpec], undeclared: bool| {
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut detectors = DetectorRegistry::from_specs(specs);
            let spy = Arc::clone(&seen);
            if undeclared {
                detectors.register("undeclared-spy", 60_000, move || {
                    Box::new(UndeclaredSpy(Arc::clone(&spy)))
                });
            } else {
                detectors.register("bins-spy", 60_000, move || Box::new(BinsSpy(Arc::clone(&spy))));
            }
            let (mut ingest, reports) = launch(StreamConfig { detectors, ..scan_config(2) });
            ingest.push_batch(trace());
            let stats = ingest.finish();
            let reports: Vec<StreamReport> = reports.iter().collect();
            assert_eq!(stats.windows, 8);
            assert!(reports.iter().any(|r| r.alarm().is_some()), "KL still reports the scan");
            let seen = seen.lock().unwrap().clone();
            assert_eq!(seen.len(), 8);
            (seen, reports)
        };
        let (kl_only, kl_reports) = run(&[kl], false);
        assert!(kl_only.iter().all(|&exact| !exact), "KL-only bank built exact distributions");
        let (ensemble, _) = run(&[kl, pca], false);
        assert!(ensemble.iter().all(|&exact| exact), "PCA reads exact distributions");
        let (custom, custom_reports) = run(&[kl], true);
        assert!(custom.iter().all(|&exact| exact), "an undeclared detector gets them too");
        // The summary's shape never changes KL's verdicts or hints.
        let alarms = |reports: &[StreamReport]| -> Vec<Alarm> {
            reports.iter().filter_map(|r| r.as_alarm()).flat_map(|a| a.sources.clone()).collect()
        };
        let kl_alarms = |reports: &[StreamReport]| -> Vec<Alarm> {
            alarms(reports).into_iter().filter(|a| a.detector == "kl").collect()
        };
        assert_eq!(kl_alarms(&kl_reports), kl_alarms(&custom_reports));
    }

    #[test]
    fn detector_pool_run_is_bit_identical_to_inline() {
        use anomex_detect::pca::PcaConfig;
        let run = |detector_workers: usize| {
            let kl = KlConfig { interval_ms: 60_000, ..KlConfig::default() };
            let pca = PcaConfig { interval_ms: 60_000, ..PcaConfig::default() };
            let config = StreamConfig {
                detectors: DetectorRegistry::from_specs(&[
                    crate::detector::DetectorSpec::Kl(kl),
                    crate::detector::DetectorSpec::Pca(pca, 12),
                ]),
                detector_workers,
                ..scan_config(2)
            };
            let (mut ingest, reports) = launch(config);
            ingest.push_batch(trace());
            let stats = ingest.finish();
            (stats, reports.iter().collect::<Vec<StreamReport>>())
        };
        let (inline_stats, inline_reports) = run(0);
        for workers in [1usize, 2] {
            let (pool_stats, pool_reports) = run(workers);
            assert_eq!(pool_stats, inline_stats, "{workers} workers changed the statistics");
            assert_eq!(pool_reports, inline_reports, "{workers} workers changed a report");
        }
    }

    #[test]
    fn extraction_pool_run_is_bit_identical_to_inline() {
        // The async extraction worker is pure scheduling: whatever the
        // worker count asks for (clamped to the single FIFO worker) and
        // whether or not the detector pool runs alongside it, stats and
        // reports must be byte-identical to the inline extractor.
        let run = |extraction_workers: usize, detector_workers: usize| {
            let config = StreamConfig { extraction_workers, detector_workers, ..scan_config(2) };
            let (mut ingest, reports) = launch(config);
            ingest.push_batch(trace());
            let stats = ingest.finish();
            (stats, reports.iter().collect::<Vec<StreamReport>>())
        };
        let (inline_stats, inline_reports) = run(0, 0);
        assert!(inline_stats.reports >= 1, "trace must produce a report: {inline_stats:?}");
        for (extraction_workers, detector_workers) in [(1usize, 0usize), (2, 0), (1, 2)] {
            let (pool_stats, pool_reports) = run(extraction_workers, detector_workers);
            assert_eq!(
                pool_stats, inline_stats,
                "extraction_workers={extraction_workers} changed the statistics"
            );
            assert_eq!(
                pool_reports, inline_reports,
                "extraction_workers={extraction_workers} changed a report"
            );
        }
    }

    #[test]
    fn pinned_shard_workers_change_nothing() {
        // Affinity is pure scheduling: stats and reports must be
        // byte-identical with pinning on and off (and on non-Linux
        // hosts, where pinning is a no-op, this still holds trivially).
        let run = |pin_shards: bool| {
            let config = StreamConfig { pin_shards, ..scan_config(2) };
            let (mut ingest, reports) = launch(config);
            ingest.push_batch(trace());
            let stats = ingest.finish();
            (stats, reports.iter().collect::<Vec<StreamReport>>())
        };
        let (unpinned_stats, unpinned_reports) = run(false);
        let (pinned_stats, pinned_reports) = run(true);
        assert_eq!(pinned_stats, unpinned_stats);
        assert_eq!(pinned_reports, unpinned_reports);
    }

    #[test]
    fn shard_counts_agree_on_stats_and_reports() {
        let mut baseline: Option<(StreamStats, Vec<StreamReport>)> = None;
        for shards in [1usize, 3] {
            let (mut ingest, reports) = launch(scan_config(shards));
            ingest.push_batch(trace());
            let mut stats = ingest.finish();
            let received: Vec<StreamReport> = reports.iter().collect();
            match &baseline {
                None => baseline = Some((stats, received)),
                Some((expected_stats, expected_reports)) => {
                    // Candidate *order* differs across shard counts;
                    // mined itemsets and supports must not.
                    assert_eq!(&received.len(), &expected_reports.len());
                    for (a, b) in received.iter().zip(expected_reports) {
                        let (a, b) = (a.as_alarm().unwrap(), b.as_alarm().unwrap());
                        assert_eq!(a.alarm.window, b.alarm.window);
                        assert_eq!(a.extraction.itemsets, b.extraction.itemsets);
                        assert_eq!(a.extraction.candidate_flows, b.extraction.candidate_flows);
                    }
                    stats.ingested = expected_stats.ingested; // identical by construction
                    assert_eq!(&stats, expected_stats);
                }
            }
        }
    }

    #[test]
    fn batch_sizes_agree_on_stats_and_reports() {
        // The chunk size and the watermark check cadence are pure
        // mechanics: every combination must produce the identical run.
        let mut baseline: Option<(StreamStats, Vec<StreamReport>)> = None;
        for (ingest_batch, watermark_every) in
            [1usize, 7, 256, 512].into_iter().flat_map(|b| [(b, 1usize), (b, 256)])
        {
            let config = StreamConfig { ingest_batch, watermark_every, ..scan_config(2) };
            let (mut ingest, reports) = launch(config);
            ingest.push_batch(trace());
            let stats = ingest.finish();
            let received: Vec<StreamReport> = reports.iter().collect();
            match &baseline {
                None => baseline = Some((stats, received)),
                Some((expected_stats, expected_reports)) => {
                    assert_eq!(
                        &stats, expected_stats,
                        "batch {ingest_batch}, check every {watermark_every} diverged"
                    );
                    assert_eq!(received.len(), expected_reports.len());
                    for (a, b) in received.iter().zip(expected_reports) {
                        let (a, b) = (a.as_alarm().unwrap(), b.as_alarm().unwrap());
                        assert_eq!(a.alarm, b.alarm);
                        assert_eq!(a.extraction.itemsets, b.extraction.itemsets);
                    }
                }
            }
        }
    }

    #[test]
    fn split_handles_share_the_pipeline_and_the_watermark() {
        let (ingest, reports) = launch(scan_config(2));
        let mut handles = ingest.split(3);
        assert_eq!(handles[0].live_handles(), 3);
        let flows = trace();
        let total = flows.len() as u64;
        // Round-robin the trace across three concurrently-pushing
        // handles; the shared min-over-handles watermark keeps every
        // record inside the lateness bound.
        let mut parts: Vec<Vec<FlowRecord>> = vec![Vec::new(), Vec::new(), Vec::new()];
        for (i, flow) in flows.into_iter().enumerate() {
            parts[i % 3].push(flow);
        }
        let finisher = handles.pop().unwrap();
        let threads: Vec<_> = handles
            .into_iter()
            .zip(parts.drain(..2))
            .map(|(mut handle, part)| {
                std::thread::spawn(move || {
                    handle.push_batch(part);
                    // dropping the handle flushes + retires its slot
                })
            })
            .collect();
        let mut finisher = finisher;
        finisher.push_batch(parts.pop().unwrap());
        for t in threads {
            t.join().unwrap();
        }
        let stats = finisher.finish();
        let received: Vec<StreamReport> = reports.iter().collect();
        assert_eq!(stats.ingested, total);
        assert_eq!(stats.late_dropped, 0, "shared watermark must not strand any handle");
        assert_eq!(stats.send_failures, 0);
        assert_eq!(stats.windows, 8);
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].alarm().unwrap().window.from_ms, 7 * 60_000);
    }

    #[test]
    fn a_handle_flushes_its_chunks_before_its_frontier_can_close_their_window() {
        // Handle `a` holds records of window 0 in an unflushed chunk
        // when its own frontier moves past window 0's end plus the
        // lateness. `a` must hand its chunks over before it publishes
        // that frontier: handle `b`, which holds the global watermark
        // back, then sends the watermark that closes window 0, and
        // `a`'s records must already be ahead of it in the ring.
        // Publishing first would leave them in `a`'s chunk behind `b`'s
        // watermark, to be dropped as late.
        fn probe(start_ms: u64, port: u16) -> FlowRecord {
            FlowRecord::builder()
                .time(start_ms, start_ms + 1)
                .src("10.0.0.1".parse().unwrap(), port)
                .dst("172.16.0.1".parse().unwrap(), 80)
                .volume(1, 64)
                .build()
        }
        let config = StreamConfig {
            shards: 1,
            lateness_ms: 5_000,
            watermark_every: 4,
            ingest_batch: 512,
            ..scan_config(1)
        };
        let (ingest, reports) = launch(config);
        let mut handles = ingest.split(2);
        let mut b = handles.pop().unwrap();
        let mut a = handles.pop().unwrap();
        // Three window-0 records wait in `a`'s chunk; the fourth moves
        // `a`'s frontier to 66 s and triggers its check. `b` (still at
        // 0) holds the global watermark back, so `a` sends nothing.
        for i in 0..3 {
            a.push(probe(10_000 + i, 2_000 + i as u16));
        }
        a.push(probe(66_000, 3_000));
        assert_eq!(a.metrics_snapshot().counter("watermark.broadcasts"), 0);
        // `b`'s check moves the global watermark to 61 s: window 0
        // closes, on `b`'s send.
        for i in 0..4 {
            b.push(probe(70_000 + i, 1_000 + i as u16));
        }
        assert_eq!(b.metrics_snapshot().counter("watermark.broadcasts"), 1);
        drop(a);
        let stats = b.finish();
        assert_eq!(stats.ingested, 8);
        assert_eq!(stats.late_dropped, 0, "a's window-0 records fell behind b's watermark");
        assert_eq!(stats.windows, 8);
        drop(reports);
    }

    #[test]
    fn a_single_handle_sends_only_window_closing_watermarks() {
        // One KL handle over eight windows, checking on every record:
        // a watermark goes out only when it closes a window, so at most
        // one per window (plus the closing handle's own).
        let config = StreamConfig { watermark_every: 1, ..scan_config(2) };
        let (mut ingest, _reports) = launch(config);
        let metrics = ingest.metrics_reports().expect("subscription available");
        ingest.push_batch(trace());
        let stats = ingest.finish();
        let last = metrics.iter().last().expect("final metrics report");
        let broadcasts = last.snapshot.counter("watermark.broadcasts");
        assert!(broadcasts >= 1, "the in-order feed closes windows as it goes");
        assert!(broadcasts <= stats.windows + 1, "{broadcasts} watermarks for {stats:?}");
    }

    #[test]
    fn v5_packets_feed_the_pipeline() {
        let flows = trace();
        let packets = v5::encode_all(&flows, v5::ExportBase::epoch(), 0).expect("encode v5 stream");
        let (mut ingest, reports) = launch(scan_config(2));
        for packet in &packets {
            let n = ingest.push_v5(packet).expect("decode own packets");
            assert!(n > 0);
        }
        let stats = ingest.finish();
        assert_eq!(stats.ingested, flows.len() as u64);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(reports.iter().count(), 1, "scan still found after codec round-trip");
    }

    #[test]
    fn garbage_packet_is_counted_not_fatal() {
        let (mut ingest, _reports) = launch(scan_config(1));
        assert!(ingest.push_v5(&[0u8; 7]).is_err());
        ingest.push_batch(trace());
        let stats = ingest.finish();
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.alarms, 1, "pipeline survives bad input");
    }

    #[test]
    fn dropped_subscriber_does_not_stall_finish() {
        let (mut ingest, reports) = launch(scan_config(2));
        drop(reports);
        ingest.push_batch(trace());
        let stats = ingest.finish();
        assert_eq!(stats.reports, 1, "report was produced even if nobody listened");
    }

    /// Benign background with scans in windows 5..8 — several alarmed
    /// windows, so several reports.
    fn multi_scan_trace() -> Vec<FlowRecord> {
        let mut flows = Vec::new();
        for t in 0..8u64 {
            let base = t * 60_000;
            for i in 0..200u32 {
                flows.push(
                    FlowRecord::builder()
                        .time(base + (i as u64 * 91) % 60_000, base + (i as u64 * 91) % 60_000 + 50)
                        .src(Ipv4Addr::from(0x0A00_0000 + (i % 40)), 1_024 + (i % 500) as u16)
                        .dst(
                            Ipv4Addr::from(0xAC10_0000 + (i % 7)),
                            if i % 3 == 0 { 443 } else { 80 },
                        )
                        .volume(3, 1_800)
                        .build(),
                );
            }
            if t >= 5 {
                for p in 1..=1_500u32 {
                    flows.push(
                        FlowRecord::builder()
                            .time(base + (p as u64 % 60_000), base + (p as u64 % 60_000) + 1)
                            .src("10.66.66.66".parse().unwrap(), 55_548)
                            .dst("172.16.0.99".parse().unwrap(), p as u16)
                            .volume(1, 44)
                            .build(),
                    );
                }
            }
        }
        flows
    }

    #[test]
    fn full_report_queue_drops_and_counts_instead_of_stalling() {
        // Scans in several windows produce several reports; a queue of 1
        // with nobody draining keeps exactly one and counts the rest as
        // dropped — finish() must not deadlock on the lazy subscriber.
        let config = StreamConfig { report_queue: 1, ..scan_config(2) };
        let (mut ingest, reports) = launch(config);
        ingest.push_batch(multi_scan_trace());
        let stats = ingest.finish();
        assert!(stats.reports >= 2, "need several reports to exercise dropping: {stats:?}");
        let received: Vec<StreamReport> = reports.iter().collect();
        assert_eq!(received.len(), 1, "queue of 1 keeps exactly one report");
        assert_eq!(stats.reports_dropped, stats.reports - 1, "{stats:?}");
        assert_eq!(received[0].dropped_before(), 0, "first report preceded every drop");
    }

    #[test]
    fn pooled_extraction_stamps_drop_gaps_at_send_time() {
        // Same lazy-subscriber scenario through the extraction pool:
        // reports surface control-side at collect time, and
        // `dropped_before` must reflect the subscriber-channel state at
        // that moment — not anything the worker thread could know. The
        // first report that lands still precedes every drop, and the
        // drop accounting matches the inline run exactly.
        let run = |extraction_workers: usize| {
            let config = StreamConfig { report_queue: 1, extraction_workers, ..scan_config(2) };
            let (mut ingest, reports) = launch(config);
            ingest.push_batch(multi_scan_trace());
            let stats = ingest.finish();
            (stats, reports.iter().collect::<Vec<StreamReport>>())
        };
        let (inline_stats, inline_received) = run(0);
        let (pool_stats, pool_received) = run(1);
        assert!(pool_stats.reports >= 2, "need several reports to exercise dropping");
        assert_eq!(pool_received.len(), 1, "queue of 1 keeps exactly one report");
        assert_eq!(pool_stats.reports_dropped, pool_stats.reports - 1, "{pool_stats:?}");
        assert_eq!(pool_received[0].dropped_before(), 0, "first report preceded every drop");
        assert_eq!(pool_stats, inline_stats, "pool changed the drop accounting");
        assert_eq!(pool_received, inline_received, "pool changed the surviving report");
    }

    #[test]
    fn open_ended_stream_emits_through_last_window() {
        let config = StreamConfig { span: None, ..scan_config(2) };
        let (mut ingest, reports) = launch(config);
        ingest.push_batch(trace());
        let stats = ingest.finish();
        assert_eq!(stats.windows, 8);
        assert_eq!(reports.iter().count(), 1);
    }

    #[test]
    fn dropping_every_handle_still_flushes_the_stream() {
        // No finish() at all: dropping the last handle disconnects the
        // shard channels, the workers seal, and queued reports remain
        // readable until the report channel disconnects.
        let (mut ingest, reports) = launch(scan_config(2));
        ingest.push_batch(trace());
        drop(ingest);
        let received: Vec<StreamReport> = reports.iter().collect();
        assert_eq!(received.len(), 1, "the scan report still lands");
        assert_eq!(received[0].alarm().unwrap().window.from_ms, 7 * 60_000);
    }

    #[test]
    fn metrics_reports_flow_and_the_final_one_agrees_with_stats() {
        let (mut ingest, reports) = launch(scan_config(2));
        let metrics = ingest.metrics_reports().expect("subscription available");
        assert!(ingest.metrics_reports().is_none(), "subscription is take-once");
        ingest.push_batch(trace());
        let stats = ingest.finish();
        let _ = reports.iter().count();
        // The control thread is joined, so the metrics channel is
        // disconnected and this drain terminates.
        let emissions: Vec<MetricsReport> = metrics.iter().collect();
        assert!(!emissions.is_empty(), "cadence of 1 window must emit");
        for pair in emissions.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "emission sequence must increase");
        }
        let last = emissions.last().unwrap();
        assert_eq!(last.windows, stats.windows);
        assert_eq!(last.records(), stats.ingested, "final report includes folded ingest totals");
        assert_eq!(last.send_failures(), stats.send_failures);
        assert_eq!(last.reports_dropped(), stats.reports_dropped);
        assert_eq!(last.snapshot.counter("merge.windows"), stats.windows);
        assert_eq!(last.snapshot.counter("detect.merged_alarms"), stats.alarms);
        assert_eq!(last.snapshot.counter("report.emitted"), stats.reports);
        assert_eq!(last.snapshot.counter("detect.kl.windows"), stats.per_detector[0].windows);
        assert_eq!(last.snapshot.counter("detect.kl.alarms"), stats.per_detector[0].alarms);
        // The timing layer recorded: per-stage histograms have samples
        // and the watermark gauges are present.
        for stage in [
            "shard.apply_ns",
            "merge.offer_ns",
            "merge.batch_reports",
            "detect.kl.push_ns",
            "extract.mine_ns",
        ] {
            let hist = last.snapshot.histogram(stage).unwrap_or_else(|| panic!("{stage} missing"));
            assert!(hist.count > 0, "{stage} never recorded");
        }
        assert!(last.watermark_lag_event_ms().is_some());
        assert!(last.report_queue_depth().is_some());
    }

    #[test]
    fn disabling_the_timing_layer_changes_no_stats_or_reports() {
        let run = |enabled: bool| {
            let config = StreamConfig {
                metrics: MetricsConfig { enabled, ..MetricsConfig::default() },
                ..scan_config(2)
            };
            let (mut ingest, reports) = launch(config);
            let metrics = ingest.metrics_reports().expect("subscription available");
            ingest.push_batch(trace());
            let stats = ingest.finish();
            let received: Vec<StreamReport> = reports.iter().collect();
            (stats, received, metrics.iter().last().expect("final metrics report"))
        };
        let (on_stats, on_reports, on_last) = run(true);
        let (off_stats, off_reports, off_last) = run(false);
        assert_eq!(on_stats, off_stats, "instrumentation must not change the run");
        assert_eq!(on_reports, off_reports);
        // Counters survive in both modes; the timing layer only when on.
        assert_eq!(off_last.records(), on_last.records());
        assert_eq!(off_last.snapshot.counter("merge.windows"), 8);
        assert!(on_last.snapshot.histogram("shard.apply_ns").is_some());
        assert_eq!(off_last.snapshot.get("shard.apply_ns"), None);
        assert_eq!(off_last.watermark_lag_event_ms(), None);
    }

    #[test]
    fn emit_metrics_counts_drops_on_a_full_queue() {
        // The telemetry channel's drop-on-full policy is accounted on
        // `report.metrics_dropped` — a full queue counts, a dropped
        // subscriber does not (discarding then is intentional).
        let metrics = Arc::new(PipelineMetrics::new(&MetricsConfig::default()));
        let (metrics_tx, metrics_rx) = bounded::<MetricsReport>(1);
        let (report_tx, _report_rx) = bounded::<StreamReport>(1);
        let mut seq = 0u64;
        emit_metrics(&metrics, &metrics_tx, &report_tx, &mut seq);
        emit_metrics(&metrics, &metrics_tx, &report_tx, &mut seq); // full → dropped
        drop(metrics_tx);
        let kept: Vec<MetricsReport> = metrics_rx.iter().collect();
        assert_eq!(kept.len(), 1, "queue of 1 keeps exactly one emission");
        assert_eq!(metrics.snapshot().counter("report.metrics_dropped"), 1);
        assert_eq!(seq, 2, "dropped emissions still advance the sequence");

        let (disconnected_tx, _) = bounded::<MetricsReport>(1);
        emit_metrics(&metrics, &disconnected_tx, &report_tx, &mut seq);
        assert_eq!(
            metrics.snapshot().counter("report.metrics_dropped"),
            1,
            "a missing subscriber is not a drop"
        );
    }

    #[test]
    fn watermark_gauges_expose_lag_and_skew_across_split_handles() {
        fn probe(start_ms: u64) -> FlowRecord {
            FlowRecord::builder()
                .time(start_ms, start_ms + 1)
                .src("10.0.0.1".parse().unwrap(), 4_000)
                .dst("172.16.0.1".parse().unwrap(), 80)
                .volume(1, 64)
                .build()
        }
        // Every push publishes the handle's frontier and checks the
        // min-over-handles watermark, so the gauge values after the
        // third push are exact functions of the three frontiers.
        let config = StreamConfig {
            lateness_ms: 5_000,
            watermark_every: 1,
            ingest_batch: 1,
            ..scan_config(1)
        };
        let (ingest, _reports) = launch(config);
        let mut handles = ingest.split(3);
        handles[0].push(probe(10_000));
        handles[1].push(probe(20_000));
        handles[2].push(probe(60_000));
        // Frontiers are now (10_000, 20_000, 60_000): the watermark is
        // min − lateness, lag is max − watermark, skew is max − min.
        let snap = handles[0].metrics_snapshot();
        // A watermark of 5 000 ms closes no 60 s window, so none was sent.
        assert_eq!(snap.counter("watermark.broadcasts"), 0);
        assert_eq!(snap.gauge("watermark.broadcast_ms"), Some(5_000));
        assert_eq!(snap.gauge("watermark.lag_event_ms"), Some(55_000));
        assert_eq!(snap.gauge("watermark.frontier_skew_ms"), Some(50_000));
        drop(handles.drain(1..));
        // Alone now, handle 0 moves the watermark to 65 000 ms: window 0
        // closes, and that is the one watermark sent.
        handles[0].push(probe(70_000));
        assert_eq!(handles[0].metrics_snapshot().counter("watermark.broadcasts"), 1);
        let stats = handles.pop().unwrap().finish();
        assert_eq!(stats.ingested, 4);
        assert_eq!(stats.late_dropped, 0, "no record fell behind the shared watermark");
    }
}
