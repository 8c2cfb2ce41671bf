//! Continuous extraction: alarms raised on a closed window are mined
//! against the in-memory window shards immediately — inline on the
//! control thread, or on a supervised worker behind an
//! [`ExtractionPool`] — and the resulting [`StreamReport`]s flow to a
//! subscriber channel.
//!
//! Everything on the subscriber channel is a [`StreamReport`]: either
//! an [`AlarmReport`] (a merged alarm's mined root cause, the normal
//! case) or a [`FaultNotice`] (the pipeline degraded — a window was
//! quarantined after repeated extraction panics, or a shard worker
//! died). Faults are in-band on purpose: a subscriber that only ever
//! sees alarms cannot distinguish "quiet network" from "dead pipeline".

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use anomex_core::candidate::{candidate_filter, is_candidate};
use anomex_core::encode::{EncodeState, EncodedFlows};
use anomex_core::extract::{Extraction, Extractor, ExtractorConfig};
use anomex_detect::alarm::Alarm;
use anomex_flow::filter::Filter;
use anomex_flow::record::FlowRecord;
use anomex_flow::store::TimeRange;
use anomex_obs::{Counter, Histogram, StageTimer};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};
use serde::{Deserialize, Serialize};

use crate::detector::EnsembleAlarm;
use crate::fault::{
    restart_backoff, ActiveFaults, FaultSite, Supervision, WorkerPoisoned, MAX_TASK_ATTEMPTS,
};
use crate::window::ClosedWindow;

/// One item on the subscriber channel: a mined root-cause report, or an
/// in-band notice that the pipeline degraded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamReport {
    /// A merged alarm's root-cause report (the normal case).
    Alarm(AlarmReport),
    /// The pipeline degraded: a quarantined window, or a terminal shard
    /// fault. See [`FaultNotice::terminal`].
    Fault(FaultNotice),
}

impl StreamReport {
    /// The alarm report, when this is one.
    pub fn as_alarm(&self) -> Option<&AlarmReport> {
        match self {
            StreamReport::Alarm(report) => Some(report),
            StreamReport::Fault(_) => None,
        }
    }

    /// The fault notice, when this is one.
    pub fn as_fault(&self) -> Option<&FaultNotice> {
        match self {
            StreamReport::Alarm(_) => None,
            StreamReport::Fault(notice) => Some(notice),
        }
    }

    /// The (merged) alarm that triggered extraction, for alarm reports.
    pub fn alarm(&self) -> Option<&Alarm> {
        self.as_alarm().map(|r| &r.alarm)
    }

    /// The mined itemsets, for alarm reports.
    pub fn extraction(&self) -> Option<&Extraction> {
        self.as_alarm().map(|r| &r.extraction)
    }

    /// Per-detector attribution, for alarm reports (empty for faults).
    pub fn sources(&self) -> &[Alarm] {
        self.as_alarm().map_or(&[], |r| &r.sources)
    }

    /// True for a [`FaultNotice`].
    pub fn is_fault(&self) -> bool {
        matches!(self, StreamReport::Fault(_))
    }

    /// Reports dropped on the bounded subscriber channel before this
    /// one was emitted — a slow subscriber sees the gap size, not
    /// silence. Carried by both variants.
    pub fn dropped_before(&self) -> u64 {
        match self {
            StreamReport::Alarm(report) => report.dropped_before,
            StreamReport::Fault(notice) => notice.dropped_before,
        }
    }

    /// Stamp the drop gap at emission time (both variants carry it).
    pub(crate) fn set_dropped_before(&mut self, dropped: u64) {
        match self {
            StreamReport::Alarm(report) => report.dropped_before = dropped,
            StreamReport::Fault(notice) => notice.dropped_before = dropped,
        }
    }
}

/// One merged alarm's root-cause report, as emitted on the subscriber
/// channel inside [`StreamReport::Alarm`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlarmReport {
    /// The (merged) alarm that triggered extraction.
    pub alarm: Alarm,
    /// Per-detector attribution: the source alarms behind `alarm`, in
    /// bank order (one entry that equals `alarm` except for the id when
    /// a single detector fired).
    pub sources: Vec<Alarm>,
    /// The mined itemsets (the paper's Table-1 content).
    pub extraction: Extraction,
    /// Flows resident in the alarmed window when extraction ran.
    pub window_flows: usize,
    /// Reports dropped on the bounded subscriber channel before this one
    /// was emitted — a slow subscriber sees the gap size, not silence.
    pub dropped_before: u64,
}

/// An in-band degradation notice ([`StreamReport::Fault`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultNotice {
    /// What degraded.
    pub kind: FaultKind,
    /// The affected event-time window, when the fault is scoped to one
    /// (quarantine); `None` for stream-wide faults.
    pub window: Option<TimeRange>,
    /// Human-readable context (which worker, how many attempts).
    pub detail: String,
    /// True when the stream cannot produce further complete output
    /// (a shard worker died: every later window is missing that
    /// shard's records). A terminal notice is the last report of the
    /// run. Non-terminal notices (quarantine) leave the rest of the
    /// stream intact.
    pub terminal: bool,
    /// Reports dropped on the bounded subscriber channel before this
    /// one was emitted.
    pub dropped_before: u64,
}

/// The kinds of degradation a [`FaultNotice`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A shard worker died; windows merged after its death are missing
    /// its share of the records. Always terminal.
    ShardDead,
    /// Extraction panicked repeatedly on one window; the window was
    /// skipped instead of retried forever. Detection already ran — only
    /// the mined itemsets are missing.
    WindowQuarantined,
}

/// Extraction stage of the pipeline: retains the last few closed
/// windows (so flows that *overlap* the alarmed window but started in
/// an earlier one are still reachable, matching the batch store's
/// overlap query) and mines every alarm against that bounded horizon.
///
/// The match with the batch query is exact only while the horizon
/// covers every overlapping flow's start: a flow longer than
/// `horizon × window width` that started before the oldest retained
/// window is invisible here but a candidate in batch. Size `horizon`
/// above the longest flow duration you expect on the wire.
///
/// Each alarm's candidates are encoded into a columnar
/// [`EncodedFlows`] **once** — both support metrics and every round of
/// the self-adjusting top-k search mine the same matrix — and alarms on
/// the same window whose candidate selection coincides (same window,
/// same hint filter) reuse the previous alarm's matrix outright.
#[derive(Debug)]
pub struct ContinuousExtractor {
    extractor: Extractor,
    retained: VecDeque<ClosedWindow>,
    horizon: usize,
    encode_state: EncodeState,
    encode_timer: StageTimer,
    mine_timer: StageTimer,
    dict: DictCounters,
}

/// Where a [`ContinuousExtractor`] reports its encode dictionary's
/// traffic: the `extract.dict_*` and `extract.dropped_items` counters.
/// The default counts nothing.
#[derive(Debug, Clone, Default)]
pub struct DictCounters {
    /// Items repeating an item of the same candidate set.
    pub hits: Counter,
    /// Items interned (first seen in their candidate set).
    pub misses: Counter,
    /// Candidate sets past the dictionary's capacity, encoded cold.
    pub overflows: Counter,
    /// Least-frequent items those cold encodes dropped.
    pub dropped_items: Counter,
}

impl ContinuousExtractor {
    /// Extractor retaining `horizon` closed windows (at least 1: the
    /// alarmed window itself).
    pub fn new(config: ExtractorConfig, horizon: usize) -> ContinuousExtractor {
        ContinuousExtractor {
            extractor: Extractor::new(config),
            retained: VecDeque::new(),
            horizon: horizon.max(1),
            encode_state: EncodeState::new(),
            encode_timer: StageTimer::noop(),
            mine_timer: StageTimer::noop(),
            dict: DictCounters::default(),
        }
    }

    /// Time candidate encoding and itemset mining into the given
    /// histograms (one observation per encoded matrix / per mined
    /// extraction). Timing never changes what is mined.
    pub fn instrument(&mut self, encode: StageTimer, mine: StageTimer) {
        self.encode_timer = encode;
        self.mine_timer = mine;
    }

    /// Report encode-dictionary traffic on the given counters: drained
    /// after every window so the split is visible while the stream runs.
    pub fn instrument_dict(&mut self, counters: DictCounters) {
        self.dict = counters;
    }

    /// Number of flow records currently retained.
    pub fn resident_flows(&self) -> usize {
        self.retained.iter().map(|w| w.records.len()).sum()
    }

    /// Accept the next closed window and the merged alarms the detector
    /// bank raised on it; returns one report per merged alarm.
    pub fn push_window(
        &mut self,
        window: ClosedWindow,
        alarms: &[EnsembleAlarm],
    ) -> Vec<StreamReport> {
        let window_flows = window.records.len();
        self.retained.push_back(window);
        while self.retained.len() > self.horizon {
            self.retained.pop_front();
        }
        if alarms.is_empty() {
            return Vec::new();
        }
        // One encoded matrix per distinct candidate selection: alarms
        // sharing (window, hint filter) mine the same EncodedFlows.
        // Selection walks the retained Arc segments in window order
        // (deterministic: windows arrive in index order) and keeps
        // references — no record is cloned, candidate or not — so the
        // encode span times the encode, not the walk over the horizon.
        let policy = self.extractor.config().policy;
        let mut encoded: Vec<(TimeRange, Filter, EncodedFlows)> = Vec::new();
        let reports: Vec<StreamReport> = alarms
            .iter()
            .map(|ensemble| {
                let alarm = &ensemble.alarm;
                let filter = candidate_filter(alarm, policy);
                let enc =
                    match encoded.iter().position(|(w, f, _)| *w == alarm.window && *f == filter) {
                        Some(i) => &encoded[i].2,
                        None => {
                            let cands: Vec<&FlowRecord> = self
                                .retained
                                .iter()
                                .flat_map(|w| w.records.iter())
                                .filter(|f| is_candidate(f, alarm.window, &filter))
                                .collect();
                            let cands = cands.iter().copied();
                            let state = &mut self.encode_state;
                            let enc =
                                self.encode_timer.time(|| EncodedFlows::encode_warm(cands, state));
                            encoded.push((alarm.window, filter, enc));
                            &encoded.last().expect("just pushed").2
                        }
                    };
                StreamReport::Alarm(AlarmReport {
                    alarm: alarm.clone(),
                    sources: ensemble.sources.clone(),
                    extraction: self.mine_timer.time(|| self.extractor.extract_encoded(enc)),
                    window_flows,
                    dropped_before: 0,
                })
            })
            .collect();
        let stats = self.encode_state.take_stats();
        self.dict.hits.add(stats.hits);
        self.dict.misses.add(stats.misses);
        self.dict.overflows.add(stats.overflows);
        self.dict.dropped_items.add(stats.dropped_items);
        reports
    }

    /// Move this extractor onto a supervised worker thread. One worker,
    /// FIFO: completed reports come back in exactly the window order
    /// they were dispatched in, so the pool's subscriber-visible output
    /// is bit-identical to running the same extractor inline.
    ///
    /// `queue_depth` bounds how many windows
    /// [`dispatch`](ExtractionPool::dispatch) may run ahead of the
    /// worker; `stall` receives one observation per dispatch — 0 ns
    /// when the hand-off was non-blocking, the blocked wall time when
    /// the queue was full (the `extract.pool.stall_ns` source).
    pub fn into_pool(self, queue_depth: usize, stall: Histogram) -> ExtractionPool {
        self.into_pool_supervised(queue_depth, stall, Supervision::standalone())
    }

    /// [`into_pool`](ContinuousExtractor::into_pool) wired to the
    /// pipeline's supervision bundle (armed faults + `fault.*` /
    /// `degraded.*` counters).
    pub(crate) fn into_pool_supervised(
        self,
        queue_depth: usize,
        stall: Histogram,
        supervision: Supervision,
    ) -> ExtractionPool {
        let spec = self.rebuild_spec();
        let queue_depth = queue_depth.max(1);
        let (task_tx, result_rx, join) =
            spawn_extract_worker(self, queue_depth, supervision.faults.clone());
        ExtractionPool {
            task_tx: Some(task_tx),
            result_rx,
            join: Some(join),
            stall,
            queue_depth_cfg: queue_depth,
            spec,
            supervision,
            restarts: 0,
            pending: VecDeque::new(),
            ready: VecDeque::new(),
            inline: None,
        }
    }

    /// Everything needed to build an equivalent *fresh* extractor —
    /// same config, horizon and instrument handles, empty retained
    /// state. The supervisor rebuilds from this after a panic (the
    /// panicked extractor's state is mid-mutation and discarded).
    pub(crate) fn rebuild_spec(&self) -> RebuildSpec {
        RebuildSpec {
            config: *self.extractor.config(),
            horizon: self.horizon,
            encode_timer: self.encode_timer.clone(),
            mine_timer: self.mine_timer.clone(),
            dict: self.dict.clone(),
        }
    }
}

/// A recipe for an equivalent fresh [`ContinuousExtractor`]: config +
/// horizon + the shared instrument handles (the counters and timers
/// are `Arc`-backed, so a rebuilt extractor keeps reporting into the
/// same metrics).
#[derive(Debug, Clone)]
pub(crate) struct RebuildSpec {
    config: ExtractorConfig,
    horizon: usize,
    encode_timer: StageTimer,
    mine_timer: StageTimer,
    dict: DictCounters,
}

impl RebuildSpec {
    pub(crate) fn build(&self) -> ContinuousExtractor {
        let mut extractor = ContinuousExtractor::new(self.config, self.horizon);
        extractor.instrument(self.encode_timer.clone(), self.mine_timer.clone());
        extractor.instrument_dict(self.dict.clone());
        extractor
    }
}

/// One supervised inline extraction push: runs `push_window` under
/// `catch_unwind`. On a panic the window is quarantined — skipped with
/// an in-band [`FaultNotice`] instead of retried (inline retry would
/// re-panic deterministically) — and the extractor is rebuilt fresh
/// from `spec`, resetting its retained horizon.
///
/// This is the degraded path both the control thread's inline extract
/// mode and a failed-over [`ExtractionPool`] run on.
pub(crate) fn supervised_push(
    extractor: &mut ContinuousExtractor,
    spec: &RebuildSpec,
    supervision: &Supervision,
    window: ClosedWindow,
    alarms: &[EnsembleAlarm],
) -> Vec<StreamReport> {
    let range = window.range;
    let index = window.index;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if supervision.faults.fire(FaultSite::ExtractPanic) {
            panic!("fault-inject: extraction panic");
        }
        extractor.push_window(window, alarms)
    }));
    match outcome {
        Ok(batch) => batch,
        Err(_) => {
            supervision.worker_panics.inc();
            supervision.restarts.inc();
            supervision.quarantined.inc();
            *extractor = spec.build();
            vec![StreamReport::Fault(FaultNotice {
                kind: FaultKind::WindowQuarantined,
                window: Some(range),
                detail: format!(
                    "inline extraction panicked on window {index}; its itemsets are skipped and \
                     the retained-window horizon was reset"
                ),
                terminal: false,
                dropped_before: 0,
            })]
        }
    }
}

/// One queued extraction task: a closed window (snapshot by Arc-segment
/// clone) and the merged alarms the detector stage raised on it. Every
/// window is dispatched — alarm-free ones too, because the worker-side
/// extractor owns the retention horizon.
type ExtractTask = (ClosedWindow, Vec<EnsembleAlarm>);

/// The worker's answer per task: a (possibly empty) report batch, or
/// the poisoned sentinel — the worker's last word before its thread
/// exits after a caught panic.
type ExtractResult = Result<Vec<StreamReport>, WorkerPoisoned>;

/// One window queued to the worker and not yet answered, kept
/// supervisor-side so a replacement worker can be fed the exact same
/// backlog. The `ClosedWindow` clone is a few `Arc` pointers, never the
/// records.
#[derive(Debug)]
struct PendingExtract {
    window: ClosedWindow,
    alarms: Vec<EnsembleAlarm>,
    /// Times this window has panicked a worker; at
    /// [`MAX_TASK_ATTEMPTS`] it is quarantined instead of retried.
    attempts: u32,
}

fn spawn_extract_worker(
    extractor: ContinuousExtractor,
    queue_depth: usize,
    faults: Arc<ActiveFaults>,
) -> (Sender<ExtractTask>, Receiver<ExtractResult>, std::thread::JoinHandle<()>) {
    let (task_tx, task_rx) = bounded::<ExtractTask>(queue_depth.max(1));
    let (result_tx, result_rx) = unbounded::<ExtractResult>();
    let join = std::thread::Builder::new()
        .name("anomex-extract-0".into())
        // Thread spawn fails only on resource exhaustion at startup;
        // there is no pipeline to degrade into yet, so it is fatal.
        .spawn(move || pool_worker(extractor, task_rx, result_tx, faults))
        .expect("spawn extraction worker");
    (task_tx, result_rx, join)
}

/// Hand `msg` to a bounded stage queue: non-blocking when there is room
/// (`stall` records 0), otherwise a blocking send whose wait `stall`
/// records. `false` when the receiving side is gone.
pub(crate) fn send_recording_stall<T>(tx: &Sender<T>, msg: T, stall: &Histogram) -> bool {
    match tx.try_send(msg) {
        Ok(()) => {
            stall.record(0);
            true
        }
        Err(TrySendError::Full(msg)) => {
            let start = stall.is_enabled().then(Instant::now);
            let sent = tx.send(msg).is_ok();
            if let Some(start) = start {
                stall.record(start.elapsed().as_nanos() as u64);
            }
            sent
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// The dedicated extraction worker: drives the moved-in
/// [`ContinuousExtractor`] over every dispatched window under
/// `catch_unwind`, reporting one (possibly empty) report batch per
/// task, in task order. A panicked task sends [`WorkerPoisoned`] and
/// ends the thread — the extractor's state is mid-mutation at that
/// point and must not be reused.
fn pool_worker(
    mut extractor: ContinuousExtractor,
    tasks: Receiver<ExtractTask>,
    results: Sender<ExtractResult>,
    faults: Arc<ActiveFaults>,
) {
    while let Ok((window, alarms)) = tasks.recv() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if faults.fire(FaultSite::ExtractPanic) {
                panic!("fault-inject: extraction worker panic");
            }
            extractor.push_window(window, &alarms)
        }));
        match outcome {
            Ok(reports) => {
                if results.send(Ok(reports)).is_err() {
                    return; // pool dropped mid-flight; nobody left to report to
                }
            }
            Err(_) => {
                // Result channel is unbounded and the supervisor holds
                // the receiver for the pool's whole life: the sentinel
                // always lands.
                let _ = results.send(Err(WorkerPoisoned));
                return;
            }
        }
    }
}

/// The asynchronous extraction stage: a [`ContinuousExtractor`] moved
/// onto a supervised worker ([`ContinuousExtractor::into_pool`]), fed
/// closed-window snapshots, answering with window-ordered report
/// batches.
///
/// The hand-off is allocation-free on the record path: a
/// [`ClosedWindow`]'s records are per-shard `Arc` segments, so the
/// snapshot clones a few pointers however large the window is. One
/// worker and FIFO channels keep completion order equal to dispatch
/// order — no control-side re-sequencing state is needed for the
/// output to be bit-identical to the inline extractor.
///
/// Deadlock freedom: the task channel is bounded (`queue_depth`
/// windows) but the result channel is unbounded, so the worker can
/// always finish what it started — a full task queue only ever blocks
/// [`dispatch`](ExtractionPool::dispatch), never the worker.
///
/// ## Supervision
///
/// The pool keeps every un-answered window in a supervisor-side
/// backlog. When the worker panics (it sends a poison sentinel and
/// exits), the pool: blames the oldest un-answered window (FIFO — all
/// earlier answers were already queued ahead of the sentinel); after
/// `MAX_TASK_ATTEMPTS` panics that window is **quarantined** —
/// skipped, with an in-band [`FaultNotice`] in its place in the output
/// order; then spawns a replacement worker with a *fresh* extractor
/// (empty retained horizon — overlap candidates from pre-restart
/// windows are lost, which the notice documents) and re-feeds it the
/// whole backlog. Restarts are bounded: after `MAX_POOL_RESTARTS` the
/// pool **fails over** to running extraction inline on the caller's thread
/// (the proven `extraction_workers = 0` path), where a panicking
/// window quarantines immediately. `dispatch`/`try_collect`/`drain`
/// therefore never panic and never hang, whatever the miner does.
pub struct ExtractionPool {
    /// `Some` until drop or failover; taken first so the worker's recv
    /// loop ends. Invariant outside method bodies: `task_tx.is_some()
    /// != inline.is_some()`.
    task_tx: Option<Sender<ExtractTask>>,
    result_rx: Receiver<ExtractResult>,
    join: Option<std::thread::JoinHandle<()>>,
    stall: Histogram,
    /// Configured run-ahead bound; replacement workers get
    /// `max(this, backlog)` so a restart never deadlocks on re-feed.
    queue_depth_cfg: usize,
    spec: RebuildSpec,
    supervision: Supervision,
    /// Replacement workers spawned so far (bounded by
    /// `supervision.max_restarts`).
    restarts: u32,
    /// Dispatched, not yet answered; front is the oldest window — the
    /// one a poison sentinel blames.
    pending: VecDeque<PendingExtract>,
    /// Completed output (reports and quarantine notices) awaiting
    /// `try_collect`/`drain`, in window order.
    ready: VecDeque<StreamReport>,
    /// `Some` once the pool failed over to inline extraction.
    inline: Option<ContinuousExtractor>,
}

impl ExtractionPool {
    /// Queue one window (with its merged alarms) to the worker,
    /// blocking only when the worker is `queue_depth` windows behind.
    /// Records the blocked time (0 for a clean hand-off) on the stall
    /// histogram.
    ///
    /// Never panics: a dead worker is recovered (restart or inline
    /// failover) before this returns, and after failover the window is
    /// simply extracted inline here.
    pub fn dispatch(&mut self, window: ClosedWindow, alarms: Vec<EnsembleAlarm>) {
        if let Some(extractor) = self.inline.as_mut() {
            let batch = supervised_push(extractor, &self.spec, &self.supervision, window, &alarms);
            self.ready.extend(batch);
            return;
        }
        self.pending.push_back(PendingExtract {
            window: window.clone(),
            alarms: alarms.clone(),
            attempts: 0,
        });
        // Invariant: a live worker exists whenever `inline` is `None` —
        // every recovery path installs one or the other before
        // returning. A blocking send unblocks with a failure when the
        // worker dies mid-wait (its receiver drops on exit).
        let tx = self.task_tx.as_ref().expect("worker present while not failed over");
        let sent = send_recording_stall(tx, (window, alarms), &self.stall);
        if !sent {
            // The worker died mid-hand-off; its sentinel is already
            // queued on the result channel. pump() recovers and the
            // replacement (or the inline fallback) gets the whole
            // backlog, this window included.
            self.pump();
        }
    }

    /// Report batches of every task the worker has already finished,
    /// oldest first — never blocks. Batches arrive in dispatch (window)
    /// order; alarm-free windows yield empty batches, dropped here.
    pub fn try_collect(&mut self) -> Vec<StreamReport> {
        self.pump();
        self.ready.drain(..).collect()
    }

    /// Block until every dispatched window is extracted (or
    /// quarantined); returns the remaining reports in window order.
    /// Call at stream end, before the final metrics emission.
    ///
    /// Never panics and never hangs: every loop iteration either
    /// completes the oldest window, quarantines it (bounded attempts
    /// per window), or consumes bounded restart budget — and once the
    /// budget is gone the pool fails over and finishes the backlog
    /// inline.
    pub fn drain(&mut self) -> Vec<StreamReport> {
        while self.inline.is_none() && !self.pending.is_empty() {
            match self.result_rx.recv() {
                Ok(Ok(batch)) => self.complete_front(batch),
                Ok(Err(WorkerPoisoned)) => self.on_worker_dead(),
                // Disconnect without a sentinel: only possible while a
                // worker swap is already in progress — recover the same
                // way.
                Err(_) => self.on_worker_dead(),
            }
        }
        self.ready.drain(..).collect()
    }

    /// Windows queued to the worker and not yet picked up — the
    /// `extract.queue_depth` gauge source (0 after inline failover).
    pub fn queue_depth(&self) -> usize {
        self.task_tx.as_ref().map_or(0, |tx| tx.len())
    }

    /// Windows dispatched and not yet collected.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// True once the pool has fallen back to inline extraction (the
    /// worker restart budget is spent).
    pub fn is_degraded(&self) -> bool {
        self.inline.is_some()
    }

    /// Drain whatever the worker has already answered, without
    /// blocking; recovers in place when an answer is the poison
    /// sentinel.
    fn pump(&mut self) {
        while self.inline.is_none() {
            match self.result_rx.try_recv() {
                Ok(Ok(batch)) => self.complete_front(batch),
                Ok(Err(WorkerPoisoned)) => self.on_worker_dead(),
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => {
                    if self.task_tx.is_some() {
                        self.on_worker_dead();
                    } else {
                        return;
                    }
                }
            }
        }
    }

    /// The oldest pending window is answered: retire it and stage its
    /// reports for collection.
    fn complete_front(&mut self, batch: Vec<StreamReport>) {
        self.pending.pop_front();
        self.ready.extend(batch);
    }

    /// The worker panicked (poison sentinel or disconnect). Reap it,
    /// blame the oldest un-answered window, then restart with a fresh
    /// extractor — or fail over to inline once the restart budget is
    /// spent.
    fn on_worker_dead(&mut self) {
        self.supervision.worker_panics.inc();
        // Reap first: after join, the dead worker's result sender is
        // gone, so the drain below sees every queued answer and then a
        // clean disconnect — never a spurious Empty.
        self.task_tx = None;
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        loop {
            match self.result_rx.try_recv() {
                Ok(Ok(batch)) => self.complete_front(batch),
                Ok(Err(WorkerPoisoned)) => {}
                Err(_) => break,
            }
        }
        // FIFO worker + in-order results: the front of the backlog is
        // exactly the task that panicked.
        if let Some(front) = self.pending.front_mut() {
            front.attempts += 1;
            if front.attempts >= MAX_TASK_ATTEMPTS {
                self.quarantine_front();
            }
        }
        if self.restarts < self.supervision.max_restarts {
            self.restarts += 1;
            self.supervision.restarts.inc();
            restart_backoff(self.restarts);
            self.respawn();
        } else {
            self.fail_over();
        }
    }

    /// Skip the front window: in its place in the output order, emit an
    /// in-band quarantine notice.
    fn quarantine_front(&mut self) {
        let Some(poisoned) = self.pending.pop_front() else { return };
        self.supervision.quarantined.inc();
        self.ready.push_back(StreamReport::Fault(FaultNotice {
            kind: FaultKind::WindowQuarantined,
            window: Some(poisoned.window.range),
            detail: format!(
                "extraction panicked {} times on window {}; its itemsets are skipped and the \
                 worker was rebuilt with an empty retained-window horizon",
                poisoned.attempts, poisoned.window.index
            ),
            terminal: false,
            dropped_before: 0,
        }));
    }

    /// Spawn a replacement worker around a fresh extractor and re-feed
    /// it the whole backlog. The replacement's queue is sized to hold
    /// the entire backlog, so the re-feed cannot block.
    fn respawn(&mut self) {
        let capacity = self.queue_depth_cfg.max(self.pending.len()).max(1);
        let (task_tx, result_rx, join) =
            spawn_extract_worker(self.spec.build(), capacity, self.supervision.faults.clone());
        for task in &self.pending {
            // Full is impossible (capacity covers the backlog); a
            // disconnect means the replacement already died on an
            // earlier re-fed task — the unsent remainder stays in
            // `pending`, and the next pump/drain recovers again.
            let _ = task_tx.send((task.window.clone(), task.alarms.clone()));
        }
        self.task_tx = Some(task_tx);
        self.result_rx = result_rx;
        self.join = Some(join);
    }

    /// Restart budget spent: degrade to inline extraction for the rest
    /// of the stream and finish the backlog here, in window order.
    fn fail_over(&mut self) {
        self.supervision.failovers.inc();
        let mut extractor = self.spec.build();
        while let Some(task) = self.pending.pop_front() {
            let batch = supervised_push(
                &mut extractor,
                &self.spec,
                &self.supervision,
                task.window,
                &task.alarms,
            );
            self.ready.extend(batch);
        }
        self.inline = Some(extractor);
    }
}

impl Drop for ExtractionPool {
    fn drop(&mut self) {
        // Disconnect the task channel so the worker's recv loop ends,
        // then join. The worker catches its own panics (the sentinel
        // protocol), so the join result carries nothing to propagate.
        self.task_tx = None;
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_detect::interval::{IntervalStat, SummarySpec};
    use anomex_flow::store::TimeRange;
    use std::net::Ipv4Addr;

    fn window_with_scan(index: u64, width: u64, scan_flows: u32) -> ClosedWindow {
        let range = TimeRange::window_at(index, 0, width);
        let mut records = Vec::new();
        for p in 1..=scan_flows {
            records.push(
                FlowRecord::builder()
                    .time(range.from_ms + p as u64 % width, range.from_ms + p as u64 % width + 1)
                    .src("10.0.0.9".parse().unwrap(), 55_548)
                    .dst("172.16.0.1".parse().unwrap(), p as u16)
                    .volume(1, 44)
                    .build(),
            );
        }
        for i in 0..40u32 {
            records.push(
                FlowRecord::builder()
                    .time(range.from_ms + i as u64, range.from_ms + i as u64 + 10)
                    .src(Ipv4Addr::from(0x0A00_0100 + i), 2_000 + i as u16)
                    .dst(Ipv4Addr::from(0xAC10_0003), 80)
                    .volume(3, 1_500)
                    .build(),
            );
        }
        let stat = IntervalStat::from_records(range, SummarySpec::FULL, &records);
        ClosedWindow { index, range, stat, records: records.into() }
    }

    #[test]
    fn alarm_on_window_yields_report_with_scanner_itemset() {
        let mut ce = ContinuousExtractor::new(ExtractorConfig::default(), 2);
        let window = window_with_scan(3, 60_000, 400);
        let alarm = Alarm::new(0, "kl", window.range).with_hints(vec![
            anomex_flow::feature::FeatureItem::src_ip("10.0.0.9".parse().unwrap()),
        ]);
        let reports = ce.push_window(window, &[EnsembleAlarm::solo(alarm)]);
        assert_eq!(reports.len(), 1);
        let report = reports[0].as_alarm().expect("alarm report");
        assert_eq!(report.extraction.itemsets[0].flow_support, 400);
        assert_eq!(report.window_flows, 440);
        assert_eq!(report.sources.len(), 1, "solo attribution travels with the report");
        assert_eq!(report.sources[0], report.alarm);
        // Reports serialize: the console and disk sinks depend on it.
        let json = serde_json::to_string(&reports[0]).unwrap();
        let back: StreamReport = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, &reports[0]);
    }

    #[test]
    fn fault_notices_serialize_and_expose_accessors() {
        let notice = StreamReport::Fault(FaultNotice {
            kind: FaultKind::WindowQuarantined,
            window: Some(TimeRange::new(60_000, 120_000)),
            detail: "extraction panicked twice on window 1".to_string(),
            terminal: false,
            dropped_before: 2,
        });
        assert!(notice.is_fault());
        assert!(notice.as_alarm().is_none());
        assert!(notice.alarm().is_none());
        assert!(notice.extraction().is_none());
        assert!(notice.sources().is_empty());
        assert_eq!(notice.dropped_before(), 2);
        assert_eq!(notice.as_fault().unwrap().kind, FaultKind::WindowQuarantined);
        let json = serde_json::to_string(&notice).unwrap();
        let back: StreamReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, notice);
    }

    #[test]
    fn alarms_with_identical_selection_share_one_extraction() {
        // Two merged alarms on the same window with the same (absent)
        // hints: both reports must carry identical extractions — mined
        // from one shared encoded matrix.
        let mut ce = ContinuousExtractor::new(ExtractorConfig::default(), 2);
        let window = window_with_scan(1, 60_000, 300);
        let a = EnsembleAlarm::solo(Alarm::new(0, "kl", window.range));
        let b = EnsembleAlarm::solo(Alarm::new(1, "pca", window.range));
        let reports = ce.push_window(window, &[a, b]);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].extraction(), reports[1].extraction());
        assert_eq!(reports[0].extraction().unwrap().itemsets[0].flow_support, 300);
    }

    #[test]
    fn horizon_bounds_resident_memory() {
        let mut ce = ContinuousExtractor::new(ExtractorConfig::default(), 2);
        for index in 0..10 {
            ce.push_window(window_with_scan(index, 60_000, 50), &[]);
            assert!(ce.resident_flows() <= 2 * 90, "horizon leak at window {index}");
        }
    }

    #[test]
    fn quiet_window_emits_no_report() {
        let mut ce = ContinuousExtractor::new(ExtractorConfig::default(), 2);
        assert!(ce.push_window(window_with_scan(0, 60_000, 10), &[]).is_empty());
    }

    fn standalone_dict_counters() -> DictCounters {
        DictCounters {
            hits: Counter::standalone(),
            misses: Counter::standalone(),
            overflows: Counter::standalone(),
            dropped_items: Counter::standalone(),
        }
    }

    #[test]
    fn dictionary_counters_report_within_window_reuse() {
        // The same scan in four consecutive windows: the dictionary is
        // window-local, so every window pays the same misses (its own
        // distinct items) and finds the same reuse (the scanner's
        // address and source port on every flow) — nothing carries over.
        let mut ce = ContinuousExtractor::new(ExtractorConfig::default(), 1);
        let dict = standalone_dict_counters();
        ce.instrument_dict(dict.clone());
        let mut per_window = Vec::new();
        for index in 0..4 {
            let window = window_with_scan(index, 60_000, 120);
            let alarm = Alarm::new(index, "kl", window.range);
            let before = (dict.hits.get(), dict.misses.get());
            ce.push_window(window, &[EnsembleAlarm::solo(alarm)]);
            per_window.push((dict.hits.get() - before.0, dict.misses.get() - before.1));
        }
        let (hits, misses) = per_window[0];
        assert!(hits > misses && misses > 120, "{hits} hits / {misses} misses");
        assert!(per_window.iter().all(|w| *w == per_window[0]), "{per_window:?}");
        assert_eq!((dict.overflows.get(), dict.dropped_items.get()), (0, 0));
    }

    #[test]
    fn oversized_candidate_set_is_counted_not_silent() {
        // 33k flows with distinct ports on both sides: more distinct
        // items than one matrix holds. Extraction still reports (the
        // scanner pair is far above the dropped tail's support) and the
        // shrinkage lands on the counters.
        let range = TimeRange::window_at(0, 0, 60_000);
        let records: Vec<FlowRecord> = (0..33_000u32)
            .map(|i| {
                FlowRecord::builder()
                    .time(i as u64 % 60_000, i as u64 % 60_000 + 1)
                    .src("10.0.0.9".parse().unwrap(), i as u16)
                    .dst("172.16.0.1".parse().unwrap(), (i + 40_000) as u16)
                    .volume(1, 44)
                    .build()
            })
            .collect();
        let window = ClosedWindow {
            index: 0,
            range,
            stat: IntervalStat::empty(range),
            records: records.into(),
        };
        let mut ce = ContinuousExtractor::new(ExtractorConfig::default(), 1);
        let dict = standalone_dict_counters();
        ce.instrument_dict(dict.clone());
        let reports = ce.push_window(window, &[EnsembleAlarm::solo(Alarm::new(0, "kl", range))]);
        assert_eq!(reports[0].extraction().unwrap().itemsets[0].flow_support, 33_000);
        assert_eq!(dict.overflows.get(), 1);
        assert_eq!(dict.dropped_items.get(), 66_002 - 65_536);
    }

    /// The pool and the inline extractor over the same window/alarm
    /// sequence produce identical reports in identical order.
    #[test]
    fn pool_output_is_bit_identical_to_inline() {
        let feed = || -> Vec<(ClosedWindow, Vec<EnsembleAlarm>)> {
            (0..6)
                .map(|index| {
                    let scan = if index % 2 == 0 { 300 + index as u32 } else { 0 };
                    let window = window_with_scan(index, 60_000, scan);
                    let alarms = if scan > 0 {
                        vec![EnsembleAlarm::solo(Alarm::new(index, "kl", window.range))]
                    } else {
                        Vec::new()
                    };
                    (window, alarms)
                })
                .collect()
        };

        let mut inline = ContinuousExtractor::new(ExtractorConfig::default(), 2);
        let mut expected = Vec::new();
        for (window, alarms) in feed() {
            expected.extend(inline.push_window(window, &alarms));
        }

        let pooled = ContinuousExtractor::new(ExtractorConfig::default(), 2);
        let mut pool = pooled.into_pool(4, Histogram::noop());
        let mut got = Vec::new();
        for (window, alarms) in feed() {
            pool.dispatch(window, alarms);
            got.extend(pool.try_collect());
        }
        got.extend(pool.drain());
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(got, expected);
    }

    #[test]
    fn pool_drain_blocks_for_every_dispatched_window() {
        let ce = ContinuousExtractor::new(ExtractorConfig::default(), 2);
        let mut pool = ce.into_pool(2, Histogram::noop());
        for index in 0..5 {
            let window = window_with_scan(index, 60_000, 200);
            let alarm = Alarm::new(index, "kl", window.range);
            pool.dispatch(window, vec![EnsembleAlarm::solo(alarm)]);
        }
        let reports = pool.drain();
        assert_eq!(reports.len(), 5, "every alarmed window must report");
        for (i, report) in reports.iter().enumerate() {
            let alarm = report.alarm().expect("alarm report");
            assert_eq!(alarm.window.from_ms, i as u64 * 60_000, "window order broken");
        }
    }

    #[cfg(feature = "fault-inject")]
    mod injected {
        use super::*;
        use crate::fault::{ActiveFaults, FaultPlan, FaultSite, Supervision};

        fn armed(plan: FaultPlan) -> Supervision {
            Supervision {
                faults: ActiveFaults::new(&plan, Counter::standalone()),
                worker_panics: Counter::standalone(),
                restarts: Counter::standalone(),
                failovers: Counter::standalone(),
                quarantined: Counter::standalone(),
                max_restarts: 3,
            }
        }

        fn alarmed_feed(n: u64) -> Vec<(ClosedWindow, Vec<EnsembleAlarm>)> {
            (0..n)
                .map(|index| {
                    let window = window_with_scan(index, 60_000, 200 + index as u32);
                    let alarm = Alarm::new(index, "kl", window.range);
                    (window, vec![EnsembleAlarm::solo(alarm)])
                })
                .collect()
        }

        #[test]
        fn single_panic_restarts_the_worker_and_retries_the_window() {
            let sup = armed(FaultPlan::new().once(FaultSite::ExtractPanic, 2));
            let ce = ContinuousExtractor::new(ExtractorConfig::default(), 2);
            let mut pool = ce.into_pool_supervised(4, Histogram::noop(), sup.clone());
            for (window, alarms) in alarmed_feed(4) {
                pool.dispatch(window, alarms);
            }
            let reports = pool.drain();
            assert_eq!(reports.len(), 4, "the panicked window is retried, not lost");
            for (i, report) in reports.iter().enumerate() {
                let alarm = report.alarm().expect("no quarantine on a single panic");
                assert_eq!(alarm.window.from_ms, i as u64 * 60_000, "window order broken");
            }
            assert_eq!(sup.worker_panics.get(), 1);
            assert_eq!(sup.restarts.get(), 1);
            assert_eq!(sup.quarantined.get(), 0);
            assert_eq!(sup.failovers.get(), 0);
            assert!(!pool.is_degraded());
        }

        #[test]
        fn repeated_panics_quarantine_the_window_in_order() {
            // Occurrences 2 and 3 are window 1's first try and its
            // retry: two strikes, quarantined.
            let sup = armed(
                FaultPlan::new().once(FaultSite::ExtractPanic, 2).once(FaultSite::ExtractPanic, 3),
            );
            let ce = ContinuousExtractor::new(ExtractorConfig::default(), 2);
            let mut pool = ce.into_pool_supervised(4, Histogram::noop(), sup.clone());
            for (window, alarms) in alarmed_feed(4) {
                pool.dispatch(window, alarms);
            }
            let reports = pool.drain();
            assert_eq!(reports.len(), 4);
            assert_eq!(reports[0].alarm().unwrap().window.from_ms, 0);
            let notice = reports[1].as_fault().expect("window 1 quarantined in place");
            assert_eq!(notice.kind, FaultKind::WindowQuarantined);
            assert_eq!(notice.window.map(|w| w.from_ms), Some(60_000));
            assert!(!notice.terminal);
            assert_eq!(reports[2].alarm().unwrap().window.from_ms, 2 * 60_000);
            assert_eq!(reports[3].alarm().unwrap().window.from_ms, 3 * 60_000);
            assert_eq!(sup.worker_panics.get(), 2);
            assert_eq!(sup.quarantined.get(), 1);
            assert_eq!(sup.failovers.get(), 0);
        }

        #[test]
        fn exhausted_restart_budget_fails_over_to_inline() {
            // Every extraction attempt panics, worker-side and inline:
            // the pool burns its restart budget, fails over, and every
            // window comes back as a quarantine notice — bounded time,
            // exact accounting, nothing lost silently.
            let sup = armed(FaultPlan::new().repeat_from(FaultSite::ExtractPanic, 1));
            let ce = ContinuousExtractor::new(ExtractorConfig::default(), 2);
            let mut pool = ce.into_pool_supervised(4, Histogram::noop(), sup.clone());
            let feed = alarmed_feed(5);
            let n = feed.len() as u64;
            for (window, alarms) in feed {
                pool.dispatch(window, alarms);
            }
            let reports = pool.drain();
            assert!(pool.is_degraded());
            assert_eq!(pool.in_flight(), 0);
            assert_eq!(reports.len(), 5);
            for (i, report) in reports.iter().enumerate() {
                let notice = report.as_fault().expect("every window quarantined");
                assert_eq!(notice.kind, FaultKind::WindowQuarantined);
                assert_eq!(notice.window.map(|w| w.from_ms), Some(i as u64 * 60_000));
            }
            assert_eq!(sup.quarantined.get(), n);
            assert_eq!(sup.failovers.get(), 1);
            assert_eq!(sup.restarts.get() as u32, 3 + 3, "3 worker restarts + 3 inline rebuilds");
            // Dispatch after failover keeps degrading gracefully.
            let (window, alarms) = alarmed_feed(6).pop().unwrap();
            pool.dispatch(window, alarms);
            let tail = pool.try_collect();
            assert_eq!(tail.len(), 1);
            assert!(tail[0].is_fault());
        }
    }
}
