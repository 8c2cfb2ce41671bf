//! The detection stage of the pipeline: a registry of detector builders
//! and the running bank they assemble into.
//!
//! Where the seed had a closed two-variant enum, the pipeline now runs
//! any number of [`Detector`] implementations side by side over the
//! same shard-merge stream — the paper's premise ("can be integrated
//! with any anomaly detection system") taken to its operational
//! conclusion, the way SENATUS and Facebook's Fast Dimensional Analysis
//! feed one root-cause mining stage from a detector ensemble.
//!
//! - [`DetectorSpec`] — plain-data configuration for the built-in
//!   detectors (KL histograms, sliding entropy-PCA).
//! - [`DetectorRegistry`] — named builders, pre-populated from specs
//!   and open to [`register`](DetectorRegistry::register)ed custom
//!   detectors; lives in [`StreamConfig`](crate::pipeline::StreamConfig).
//!   Its members' [`Reads`] declarations decide what every window's
//!   summary carries ([`DetectorRegistry::summary_spec`]): a KL-only
//!   bank counts bins alone, exact distributions are built only when a
//!   member reads them.
//! - [`DetectorBank`] — the live ensemble the control thread feeds:
//!   every closed window goes to every detector, alarms on the same
//!   window are merged into one [`EnsembleAlarm`] (one extraction per
//!   flagged window, however many detectors fired) with per-detector
//!   attribution and counters kept intact.
//! - [`DetectorPool`] — the same ensemble fanned across a small worker
//!   pool ([`DetectorBank::into_pool`]): windows broadcast to every
//!   worker, per-slot alarms reassembled in bank order, merged by the
//!   same control-side merge state — bit-identical output to the
//!   sequential bank, detector pushes off the control thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use anomex_detect::alarm::Alarm;
use anomex_detect::detector::{Detector, Reads};
use anomex_detect::interval::{IntervalStat, SummarySpec};
use anomex_detect::kl::{KlConfig, KlOnline};
use anomex_detect::pca::{PcaConfig, PcaSliding};
use anomex_flow::store::TimeRange;
use anomex_obs::{Counter, StageTimer};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use serde::{Deserialize, Serialize};

use crate::fault::{restart_backoff, ActiveFaults, FaultSite, Supervision, WorkerPoisoned};
use crate::window::{ClosedWindow, WindowRecords};

/// Configuration of one built-in detector slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorSpec {
    /// Histogram/KL detector — bit-identical with the batch
    /// `KlDetector` over the same windows.
    Kl(KlConfig),
    /// Entropy-PCA detector over a trailing window of the given length
    /// (incremental sliding-window PCA; approximates the batch
    /// detector).
    Pca(PcaConfig, usize),
}

impl DetectorSpec {
    /// The detection interval the windows must be cut to.
    pub fn interval_ms(&self) -> u64 {
        match self {
            DetectorSpec::Kl(c) => c.interval_ms,
            DetectorSpec::Pca(c, _) => c.interval_ms,
        }
    }

    /// The attribution name of the detector this spec builds.
    pub fn name(&self) -> &'static str {
        match self {
            DetectorSpec::Kl(_) => "kl",
            DetectorSpec::Pca(..) => "entropy-pca",
        }
    }

    /// Build a fresh incremental state.
    pub fn build(&self) -> Box<dyn Detector> {
        match *self {
            DetectorSpec::Kl(c) => Box::new(KlOnline::new(c)),
            DetectorSpec::Pca(c, history) => Box::new(PcaSliding::new(c, history)),
        }
    }
}

type BuildFn = Arc<dyn Fn() -> Box<dyn Detector> + Send + Sync>;

#[derive(Clone)]
struct RegistryEntry {
    name: String,
    interval_ms: u64,
    reads: Reads,
    build: BuildFn,
}

/// Named detector builders: what a pipeline's detection stage runs.
///
/// Built-in detectors enter via [`DetectorSpec`]s; anything implementing
/// [`Detector`] can be [`register`](DetectorRegistry::register)ed
/// alongside them. Every entry must agree on the detection interval —
/// [`launch`](crate::pipeline::launch) validates it, since the tumbling
/// window grid is shared by the whole bank.
#[derive(Clone, Default)]
pub struct DetectorRegistry {
    entries: Vec<RegistryEntry>,
}

impl DetectorRegistry {
    /// Empty registry (invalid to launch with — add at least one
    /// detector).
    pub fn new() -> DetectorRegistry {
        DetectorRegistry { entries: Vec::new() }
    }

    /// Registry running a single KL detector.
    pub fn kl(config: KlConfig) -> DetectorRegistry {
        DetectorRegistry::from_specs(&[DetectorSpec::Kl(config)])
    }

    /// Registry running a single sliding-PCA detector.
    pub fn pca(config: PcaConfig, history: usize) -> DetectorRegistry {
        DetectorRegistry::from_specs(&[DetectorSpec::Pca(config, history)])
    }

    /// Registry running every spec'd detector as an ensemble.
    pub fn from_specs(specs: &[DetectorSpec]) -> DetectorRegistry {
        let mut registry = DetectorRegistry::new();
        for spec in specs {
            registry.add_spec(*spec);
        }
        registry
    }

    /// Append one built-in detector. Its [`Detector::reads`] declaration
    /// is read from a state built here, as for
    /// [`register`](DetectorRegistry::register)ed detectors.
    pub fn add_spec(&mut self, spec: DetectorSpec) -> &mut DetectorRegistry {
        let build: BuildFn = Arc::new(move || spec.build());
        self.entries.push(RegistryEntry {
            name: spec.name().to_string(),
            interval_ms: spec.interval_ms(),
            reads: spec.build().reads(),
            build,
        });
        self
    }

    /// Builder-style [`add_spec`](DetectorRegistry::add_spec).
    pub fn with_spec(mut self, spec: DetectorSpec) -> DetectorRegistry {
        self.add_spec(spec);
        self
    }

    /// Register a custom detector under `name`: `build` is called once
    /// per pipeline launch to create the incremental state. The name
    /// appears in alarm attribution and per-detector counters; it
    /// should match what the built states report from
    /// [`Detector::name`]. `build` is also called once here, to read
    /// the detector's [`Detector::reads`] declaration.
    ///
    /// # Panics
    /// Panics when `name` contains `'+'` — that is the merged-alarm
    /// attribution separator ("kl+entropy-pca"), and a name embedding
    /// it would be indistinguishable from a cross-detector merge.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        interval_ms: u64,
        build: impl Fn() -> Box<dyn Detector> + Send + Sync + 'static,
    ) -> &mut DetectorRegistry {
        let name = name.into();
        assert!(
            !name.contains('+'),
            "detector name '{name}' may not contain '+': it is the ensemble attribution separator"
        );
        let reads = build().reads();
        self.entries.push(RegistryEntry { name, interval_ms, reads, build: Arc::new(build) });
        self
    }

    /// Names of the registered detectors, in run order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Number of registered detectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no detector is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The common detection interval.
    ///
    /// # Panics
    /// Panics when the registry is empty or the entries disagree —
    /// the tumbling-window grid is shared, so a mixed-interval bank
    /// cannot be windowed.
    pub fn interval_ms(&self) -> u64 {
        let first = self.entries.first().expect("detector registry is empty").interval_ms;
        for e in &self.entries {
            assert_eq!(
                e.interval_ms, first,
                "detector '{}' wants a {} ms interval but the bank runs at {} ms",
                e.name, e.interval_ms, first
            );
        }
        first
    }

    /// What every window's summary must carry for this bank: bins at
    /// the finest resolution a member reads, exact distributions when
    /// any member reads them (see [`SummarySpec::covering`]).
    pub fn summary_spec(&self) -> SummarySpec {
        SummarySpec::covering(self.entries.iter().map(|e| e.reads))
    }

    /// Build the live bank the control thread feeds.
    pub fn build_bank(&self) -> DetectorBank {
        DetectorBank {
            slots: self
                .entries
                .iter()
                .map(|e| BankSlot {
                    name: e.name.clone(),
                    state: (e.build)(),
                    instruments: DetectorInstruments::standalone(),
                    build: e.build.clone(),
                })
                .collect(),
            merger: AlarmMerger::default(),
            supervision: Supervision::standalone(),
        }
    }
}

impl std::fmt::Debug for DetectorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectorRegistry").field("detectors", &self.names()).finish()
    }
}

/// One merged alarm with its per-detector sources.
///
/// `alarm` is what drives extraction: when a single detector fired it
/// is that detector's alarm verbatim (id included — a single-detector
/// pipeline stays bit-identical with batch detection); when several
/// detectors flagged the same window it is a synthesized alarm whose
/// detector name joins the sources ("kl+entropy-pca"), whose hints are
/// the deduplicated union of the sources' hints, and whose id counts
/// merged alarms in this pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleAlarm {
    /// The merged alarm extraction runs on.
    pub alarm: Alarm,
    /// The contributing alarms, one per detector that fired, in bank
    /// order (detector-native ids).
    pub sources: Vec<Alarm>,
}

impl EnsembleAlarm {
    /// Wrap a single detector's alarm (attribution = itself).
    pub fn solo(alarm: Alarm) -> EnsembleAlarm {
        EnsembleAlarm { sources: vec![alarm.clone()], alarm }
    }
}

/// Per-detector counters of one pipeline run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorCounters {
    /// Detector (registry) name.
    pub name: String,
    /// Windows this detector consumed.
    pub windows: u64,
    /// Alarms this detector raised (before cross-detector merging).
    pub alarms: u64,
}

/// Telemetry handles one bank member reports through. The counters are
/// the authoritative per-detector totals ([`DetectorBank::counters`] is
/// a view over them): standalone by default, swapped for registry-
/// backed handles when the pipeline instruments the bank — that swap is
/// what migrates `StreamStats.per_detector` onto the metrics registry
/// without changing any caller.
#[derive(Debug, Clone, Default)]
pub struct DetectorInstruments {
    /// Wall time of each `Detector::push` call (nanoseconds).
    pub push_timer: StageTimer,
    /// Windows this detector consumed.
    pub windows: Counter,
    /// Alarms this detector raised (before cross-detector merging).
    pub alarms: Counter,
}

impl DetectorInstruments {
    /// Live counters not attached to any registry, no push timing —
    /// the default for a bank built outside an instrumented pipeline.
    pub fn standalone() -> DetectorInstruments {
        DetectorInstruments {
            push_timer: StageTimer::noop(),
            windows: Counter::standalone(),
            alarms: Counter::standalone(),
        }
    }
}

struct BankSlot {
    name: String,
    state: Box<dyn Detector>,
    instruments: DetectorInstruments,
    /// The registry builder that made `state` — the supervisor's
    /// rebuild source when a push panics (the panicked state is
    /// mid-mutation and discarded).
    build: BuildFn,
}

/// Run one bank member over a window summary and its records: count
/// the window, time the push, count the alarms. Shared verbatim by the
/// sequential bank and the pool workers so both paths meter identically.
fn run_slot(slot: &mut BankSlot, stat: &IntervalStat, records: &WindowRecords) -> Vec<Alarm> {
    slot.instruments.windows.inc();
    let state = &mut slot.state;
    let mut segments = records.segments().iter().map(|s| s.as_slice());
    let alarms = slot.instruments.push_timer.time(|| state.push_with_records(stat, &mut segments));
    slot.instruments.alarms.add(alarms.len() as u64);
    alarms
}

/// One window as the detector stage receives it: the merged summary
/// and the records behind it (`Arc` segments, for detectors that
/// resolve alarm hints from records rather than exact distributions).
#[derive(Debug)]
struct DetectInput {
    stat: IntervalStat,
    records: WindowRecords,
}

/// The deterministic cross-detector merge: the merged-alarm id counter
/// plus the group/sort/merge logic. Factored out of [`DetectorBank`]
/// so the sequential bank and the [`DetectorPool`] run one
/// implementation — the pool keeps this state on the control side,
/// which is what makes its output bit-identical to sequential however
/// the detector pushes are scheduled.
#[derive(Default)]
struct AlarmMerger {
    next_id: u64,
}

impl AlarmMerger {
    /// Group alarms (already concatenated in bank order) by window,
    /// sort the groups by window start, and merge each into one
    /// [`EnsembleAlarm`].
    fn merge_bank_order(&mut self, alarms: impl IntoIterator<Item = Alarm>) -> Vec<EnsembleAlarm> {
        let mut groups: Vec<(TimeRange, Vec<Alarm>)> = Vec::new();
        for alarm in alarms {
            match groups.iter_mut().find(|(w, _)| *w == alarm.window) {
                Some((_, sources)) => sources.push(alarm),
                None => groups.push((alarm.window, vec![alarm])),
            }
        }
        groups.sort_by_key(|(w, _)| w.from_ms);
        groups
            .into_iter()
            .map(|(window, sources)| {
                let merged = self.merge(window, &sources);
                EnsembleAlarm { alarm: merged, sources }
            })
            .collect()
    }

    /// One alarm out of the window's sources. A lone source passes
    /// through verbatim except for the id, which always counts merged
    /// alarms — for a single-detector bank the two numberings coincide,
    /// preserving the batch==stream bit-identity.
    fn merge(&mut self, window: TimeRange, sources: &[Alarm]) -> Alarm {
        let id = self.next_id;
        self.next_id += 1;
        if sources.len() == 1 {
            let mut alarm = sources[0].clone();
            alarm.id = id;
            return alarm;
        }
        let detector = sources.iter().map(|a| a.detector.as_str()).collect::<Vec<_>>().join("+");
        // Union of hints, first-seen order (earlier bank slots first).
        let mut hints = Vec::new();
        for source in sources {
            for hint in &source.hints {
                if !hints.contains(hint) {
                    hints.push(*hint);
                }
            }
        }
        // Scores live on detector-specific scales; carry the most
        // severe source's score/severity — and its kind guess, so the
        // label matches the severity it is reported with — rather than
        // inventing a unit.
        // total_cmp, not partial_cmp: a custom detector emitting a NaN
        // score must not panic the pipeline control thread.
        let worst = sources
            .iter()
            .max_by(|a, b| a.severity.cmp(&b.severity).then(a.score.total_cmp(&b.score)))
            .expect("merge called with sources");
        let mut merged = Alarm::new(id, detector, window).with_hints(hints);
        let kind =
            worst.kind_hint.clone().or_else(|| sources.iter().find_map(|s| s.kind_hint.clone()));
        if let Some(kind) = kind {
            merged = merged.with_kind(kind);
        }
        merged.score = worst.score;
        merged.severity = worst.severity;
        merged
    }
}

/// The running detector ensemble: every closed window is fed to every
/// detector; alarms on the same window are merged into one
/// [`EnsembleAlarm`] so downstream extraction runs once per flagged
/// window regardless of how many detectors agree.
///
/// Every slot push runs under `catch_unwind`: a panicking detector
/// loses its alarms for that one window and has its state rebuilt
/// fresh from the registry builder, while the other slots — and the
/// stream — keep going. When nothing panics the wrapper is invisible:
/// output stays bit-identical to the unsupervised bank.
pub struct DetectorBank {
    slots: Vec<BankSlot>,
    merger: AlarmMerger,
    supervision: Supervision,
}

impl DetectorBank {
    /// Number of detectors in the bank.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the bank holds no detector.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Per-detector counters so far, in bank order (a view over the
    /// slots' [`DetectorInstruments`] counters).
    pub fn counters(&self) -> Vec<DetectorCounters> {
        self.slots
            .iter()
            .map(|s| DetectorCounters {
                name: s.name.clone(),
                windows: s.instruments.windows.get(),
                alarms: s.instruments.alarms.get(),
            })
            .collect()
    }

    /// Swap each slot's telemetry handles, matched by detector name.
    /// Call before feeding the bank: previously counted totals stay
    /// behind in the replaced handles.
    pub fn instrument(&mut self, mut provide: impl FnMut(&str) -> DetectorInstruments) {
        for slot in &mut self.slots {
            slot.instruments = provide(&slot.name);
        }
    }

    /// Wire the bank to the pipeline's supervision bundle (fault plan +
    /// `fault.*` / `degraded.*` counters). Standalone handles otherwise.
    pub(crate) fn supervise(&mut self, supervision: Supervision) {
        self.supervision = supervision;
    }

    /// Feed one closed window — summary and records — to every
    /// detector; returns the merged alarms (usually empty or one), in
    /// window order. A member that reads only bins resolves its alarm
    /// hints from the window's records.
    pub fn push_window(&mut self, window: &ClosedWindow) -> Vec<EnsembleAlarm> {
        self.push_records(&window.stat, &window.records)
    }

    /// The body of [`push_window`](DetectorBank::push_window), shared
    /// with the pool's failover path.
    ///
    /// A slot whose push panics contributes no alarms for this window;
    /// its state is rebuilt fresh from the registry builder and the
    /// remaining slots run normally — one bad detector cannot take the
    /// ensemble down.
    fn push_records(&mut self, stat: &IntervalStat, records: &WindowRecords) -> Vec<EnsembleAlarm> {
        // Concatenate every slot's alarms in bank order, then merge.
        let mut raised: Vec<Alarm> = Vec::new();
        for slot in &mut self.slots {
            match catch_unwind(AssertUnwindSafe(|| run_slot(slot, stat, records))) {
                Ok(alarms) => raised.extend(alarms),
                Err(_) => {
                    self.supervision.worker_panics.inc();
                    self.supervision.restarts.inc();
                    slot.state = (slot.build)();
                }
            }
        }
        self.merger.merge_bank_order(raised)
    }

    /// One alarm out of the window's sources; see [`AlarmMerger::merge`].
    #[cfg(test)]
    fn merge(&mut self, window: TimeRange, sources: &[Alarm]) -> Alarm {
        self.merger.merge(window, sources)
    }

    /// Fan this bank out across `workers` threads (clamped to the
    /// detector count). Each worker owns a contiguous run of bank
    /// slots; the merge state stays behind on the control side, so the
    /// pool's output is bit-identical to this bank's. Call
    /// [`instrument`](DetectorBank::instrument) *before* converting —
    /// the slots (and their telemetry handles) move into the workers,
    /// and the pool keeps only shared views.
    ///
    /// `queue_depth` bounds how many windows
    /// [`dispatch_window`](DetectorPool::dispatch_window) may run ahead of
    /// [`collect`](DetectorPool::collect) per worker.
    pub fn into_pool(self, workers: usize, queue_depth: usize) -> DetectorPool {
        self.into_pool_supervised(workers, queue_depth, Supervision::standalone())
    }

    /// [`into_pool`](DetectorBank::into_pool) wired to the pipeline's
    /// supervision bundle (armed faults + `fault.*` / `degraded.*`
    /// counters).
    pub(crate) fn into_pool_supervised(
        self,
        workers: usize,
        queue_depth: usize,
        supervision: Supervision,
    ) -> DetectorPool {
        let workers = workers.clamp(1, self.slots.len().max(1));
        let shadow: Vec<(String, DetectorInstruments)> =
            self.slots.iter().map(|s| (s.name.clone(), s.instruments.clone())).collect();
        let builders: Vec<BuildFn> = self.slots.iter().map(|s| s.build.clone()).collect();
        // Contiguous chunks, earlier workers one larger on remainder:
        // concatenating worker results in worker order restores bank
        // order exactly.
        let total = self.slots.len();
        let base = total / workers;
        let extra = total % workers;
        let queue_depth = queue_depth.max(1);
        let mut slots = self.slots.into_iter();
        let mut seats = Vec::with_capacity(workers);
        let mut start = 0usize;
        for w in 0..workers {
            let take = base + usize::from(w < extra);
            let chunk: Vec<BankSlot> = slots.by_ref().take(take).collect();
            let (task_tx, result_rx, join) =
                spawn_detect_seat(chunk, w, queue_depth, supervision.faults.clone());
            seats.push(Seat {
                task_tx,
                result_rx,
                join: Some(join),
                start,
                end: start + take,
                worker: w,
            });
            start += take;
        }
        DetectorPool {
            seats,
            shadow,
            builders,
            merger: self.merger,
            queue_depth_cfg: queue_depth,
            supervision,
            restarts: 0,
            pending: VecDeque::new(),
            ready: VecDeque::new(),
            inline: None,
        }
    }
}

/// A worker's answer per broadcast window: its slots' alarm lists in
/// slot order, or the poison sentinel it sends just before its thread
/// exits after a caught panic.
type DetectResult = Result<Vec<Vec<Alarm>>, WorkerPoisoned>;

/// One pool seat: the channels and thread handle of one worker, plus
/// the bank-order slot range it owns (stable across restarts, so
/// concatenating seat results in seat order always restores bank
/// order).
struct Seat {
    task_tx: Sender<Arc<DetectInput>>,
    result_rx: Receiver<DetectResult>,
    join: Option<std::thread::JoinHandle<()>>,
    start: usize,
    end: usize,
    worker: usize,
}

fn spawn_detect_seat(
    chunk: Vec<BankSlot>,
    worker: usize,
    capacity: usize,
    faults: Arc<ActiveFaults>,
) -> (Sender<Arc<DetectInput>>, Receiver<DetectResult>, std::thread::JoinHandle<()>) {
    let (task_tx, task_rx) = bounded::<Arc<DetectInput>>(capacity.max(1));
    let (result_tx, result_rx) = unbounded::<DetectResult>();
    let join = std::thread::Builder::new()
        .name(format!("anomex-detect-{worker}"))
        // Thread spawn fails only on resource exhaustion at startup;
        // there is no pool to degrade into yet, so it is fatal.
        .spawn(move || pool_worker(chunk, worker, task_rx, result_tx, faults))
        .expect("spawn detector worker");
    (task_tx, result_rx, join)
}

/// One pool worker: runs its contiguous run of bank slots over every
/// broadcast window under `catch_unwind`, reporting the per-slot alarm
/// lists in slot order. A panicked window sends the poison sentinel
/// and ends the thread — the slot states are mid-mutation at that
/// point and must not be reused.
fn pool_worker(
    mut slots: Vec<BankSlot>,
    worker: usize,
    tasks: Receiver<Arc<DetectInput>>,
    results: Sender<DetectResult>,
    faults: Arc<ActiveFaults>,
) {
    while let Ok(input) = tasks.recv() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if faults.fire(FaultSite::DetectorPanic(worker)) {
                panic!("fault-inject: detector worker panic");
            }
            slots
                .iter_mut()
                .map(|slot| run_slot(slot, &input.stat, &input.records))
                .collect::<Vec<Vec<Alarm>>>()
        }));
        match outcome {
            Ok(per_slot) => {
                if results.send(Ok(per_slot)).is_err() {
                    return; // pool dropped mid-flight; nobody left to report to
                }
            }
            Err(_) => {
                // Result channel is unbounded and the supervisor holds
                // the receiver for the seat's whole life: the sentinel
                // always lands.
                let _ = results.send(Err(WorkerPoisoned));
                return;
            }
        }
    }
}

/// The parallel detector ensemble: a [`DetectorBank`]'s slots fanned
/// across a small worker pool ([`DetectorBank::into_pool`]).
///
/// Every closed window is broadcast to all workers as one shared
/// summary; each worker runs its detectors in slot order; the control
/// side reassembles the per-slot alarms in bank order and runs the
/// same deterministic merge the sequential bank runs — so the output
/// (merged ids included) is bit-identical to
/// [`DetectorBank::push_window`] over the same window sequence, whatever the worker scheduling.
///
/// Deadlock freedom: task channels are bounded (`queue_depth` windows
/// per worker) but result channels are unbounded, so a worker can
/// always finish a window it started — a full task queue only ever
/// blocks [`dispatch_window`](DetectorPool::dispatch_window), never a
/// worker.
///
/// Fault tolerance: each worker runs its windows under
/// `catch_unwind`. When a seat dies (poison sentinel or disconnected
/// result channel), the supervisor rebuilds that seat's slots from the
/// registry build closures — fresh detector state, same `Arc`-shared
/// instruments — re-feeds every pending window, and the restarted seat
/// recomputes from the oldest one. After `MAX_POOL_RESTARTS` restarts
/// the pool fails over to an inline [`DetectorBank`] on the control
/// thread ([`is_degraded`](DetectorPool::is_degraded)); merged-id
/// continuity is preserved because the merger moves into the inline
/// bank.
pub struct DetectorPool {
    seats: Vec<Seat>,
    /// Control-side views of the worker-held instruments, in bank
    /// order; the handles are `Arc`-shared, so
    /// [`counters`](DetectorPool::counters) observes worker increments
    /// and survives seat rebuilds.
    shadow: Vec<(String, DetectorInstruments)>,
    /// Registry build closures in bank order — fresh detector state
    /// for seat restarts and failover.
    builders: Vec<BuildFn>,
    merger: AlarmMerger,
    queue_depth_cfg: usize,
    supervision: Supervision,
    restarts: u32,
    /// Windows dispatched and not yet collected, oldest first. The
    /// recovery path re-feeds this entire backlog to a restarted seat.
    pending: VecDeque<Arc<DetectInput>>,
    /// Pre-computed answers produced while replaying the backlog
    /// during failover; [`collect`](DetectorPool::collect) serves these
    /// before touching seats.
    ready: VecDeque<Vec<EnsembleAlarm>>,
    /// `Some` after failover: all windows run inline here.
    inline: Option<DetectorBank>,
}

impl DetectorPool {
    /// Number of detectors across all workers.
    pub fn len(&self) -> usize {
        self.shadow.len()
    }

    /// True when the pool holds no detector.
    pub fn is_empty(&self) -> bool {
        self.shadow.is_empty()
    }

    /// Number of worker threads (the clamped `workers` argument);
    /// `0` once the pool has failed over to the inline path.
    pub fn workers(&self) -> usize {
        self.seats.len()
    }

    /// True once the pool has exhausted its restart budget and failed
    /// over to running the bank inline on the collecting thread.
    pub fn is_degraded(&self) -> bool {
        self.inline.is_some()
    }

    /// Per-detector counters so far, in bank order. Exact whenever
    /// every dispatched window has been collected. After a seat
    /// restart the recomputed window is counted again — the counters
    /// stay monotone but may over-count by the number of replayed
    /// windows.
    pub fn counters(&self) -> Vec<DetectorCounters> {
        self.shadow
            .iter()
            .map(|(name, instruments)| DetectorCounters {
                name: name.clone(),
                windows: instruments.windows.get(),
                alarms: instruments.alarms.get(),
            })
            .collect()
    }

    /// Broadcast one closed window — summary plus an `Arc`-segment
    /// snapshot of its records — to every worker without waiting for
    /// verdicts; pair with [`collect`](DetectorPool::collect).
    /// Dispatching a run of windows ahead of collecting is what lets
    /// detector pushes overlap the control thread's merge/extract
    /// work. Blocks when a worker is `queue_depth` windows behind.
    ///
    /// A dead seat's disconnected channel is ignored here; the death
    /// is detected and recovered in [`collect`](DetectorPool::collect),
    /// which re-feeds the backlog (this window included) to the
    /// restarted seat.
    pub fn dispatch_window(&mut self, window: &ClosedWindow) {
        if let Some(bank) = &mut self.inline {
            let merged = bank.push_window(window);
            self.ready.push_back(merged);
            return;
        }
        let input =
            Arc::new(DetectInput { stat: window.stat.clone(), records: window.records.clone() });
        self.pending.push_back(Arc::clone(&input));
        for seat in &self.seats {
            let _ = seat.task_tx.send(Arc::clone(&input));
        }
    }

    /// Collect the merged alarms of the *oldest* dispatched window
    /// (FIFO with [`dispatch_window`](DetectorPool::dispatch_window)
    /// order).
    ///
    /// When a seat died mid-window, restarts it (bounded by the
    /// supervision budget) and waits for the recomputed verdict; once
    /// the budget is spent, fails over to the inline bank and replays
    /// the backlog there — every dispatched window still gets an
    /// answer.
    ///
    /// # Panics
    /// Panics when nothing is in flight.
    pub fn collect(&mut self) -> Vec<EnsembleAlarm> {
        if let Some(front) = self.ready.pop_front() {
            return front;
        }
        assert!(!self.pending.is_empty(), "collect() without a dispatched window");
        // One answer per seat for the front window. A seat that died
        // after others answered only forces ITS result to be
        // recomputed — the survivors' answers are kept here so the
        // streams stay aligned.
        let mut per_seat: Vec<Option<Vec<Alarm>>> = (0..self.seats.len()).map(|_| None).collect();
        let mut i = 0;
        while i < self.seats.len() {
            if per_seat[i].is_some() {
                i += 1;
                continue;
            }
            match self.seats[i].result_rx.recv() {
                Ok(Ok(per_slot)) => {
                    per_seat[i] = Some(per_slot.into_iter().flatten().collect());
                    i += 1;
                }
                Ok(Err(WorkerPoisoned)) | Err(_) => {
                    self.supervision.worker_panics.inc();
                    if self.restarts < self.supervision.max_restarts {
                        self.restarts += 1;
                        self.supervision.restarts.inc();
                        restart_backoff(self.restarts);
                        self.restart_seat(i);
                        // Stay on seat i: the restarted seat recomputes
                        // the front window from the re-fed backlog.
                    } else {
                        self.fail_over();
                        return self
                            .ready
                            .pop_front()
                            .expect("failover replays every pending window");
                    }
                }
            }
        }
        self.pending.pop_front();
        let raised: Vec<Alarm> = per_seat.into_iter().flatten().flatten().collect();
        self.merger.merge_bank_order(raised)
    }

    /// Rebuild seat `i` in place: join the dead thread, rebuild its
    /// slot range with fresh detector state (shared instruments), and
    /// re-feed the whole pending backlog so the new worker recomputes
    /// from the front window.
    fn restart_seat(&mut self, i: usize) {
        let (start, end, worker) = (self.seats[i].start, self.seats[i].end, self.seats[i].worker);
        if let Some(join) = self.seats[i].join.take() {
            let _ = join.join(); // the panic was already caught and reported
        }
        let chunk: Vec<BankSlot> = (start..end)
            .map(|s| BankSlot {
                name: self.shadow[s].0.clone(),
                state: (self.builders[s])(),
                instruments: self.shadow[s].1.clone(),
                build: self.builders[s].clone(),
            })
            .collect();
        // Capacity covers the whole backlog so the re-feed below can
        // never block on a worker that has not started draining yet.
        let capacity = self.queue_depth_cfg.max(self.pending.len()).max(1);
        let (task_tx, result_rx, join) =
            spawn_detect_seat(chunk, worker, capacity, self.supervision.faults.clone());
        for input in &self.pending {
            let _ = task_tx.send(Arc::clone(input));
        }
        let seat = &mut self.seats[i];
        seat.task_tx = task_tx;
        seat.result_rx = result_rx;
        seat.join = Some(join);
    }

    /// Spend the last of the restart budget: tear the seats down,
    /// rebuild the full bank inline (fresh detector state, the same
    /// merger so merged ids stay continuous), and replay the backlog
    /// through it into [`ready`](DetectorPool::collect).
    fn fail_over(&mut self) {
        self.supervision.failovers.inc();
        for mut seat in std::mem::take(&mut self.seats) {
            drop(seat.task_tx);
            drop(seat.result_rx);
            if let Some(join) = seat.join.take() {
                let _ = join.join();
            }
        }
        let slots: Vec<BankSlot> = self
            .shadow
            .iter()
            .zip(&self.builders)
            .map(|((name, instruments), build)| BankSlot {
                name: name.clone(),
                state: build(),
                instruments: instruments.clone(),
                build: build.clone(),
            })
            .collect();
        let mut bank = DetectorBank {
            slots,
            merger: std::mem::take(&mut self.merger),
            supervision: self.supervision.clone(),
        };
        for input in self.pending.drain(..) {
            self.ready.push_back(bank.push_records(&input.stat, &input.records));
        }
        self.inline = Some(bank);
    }

    /// Dispatch + collect in one call — the drop-in equivalent of
    /// [`DetectorBank::push_window`].
    pub fn push_window(&mut self, window: &ClosedWindow) -> Vec<EnsembleAlarm> {
        self.dispatch_window(window);
        self.collect()
    }

    /// Windows queued to workers and not yet picked up, summed across
    /// the pool — the `detect.pool.queue_depth` gauge source. `0` once
    /// failed over (the inline bank has no queue).
    pub fn queue_depth(&self) -> usize {
        self.seats.iter().map(|seat| seat.task_tx.len()).sum()
    }
}

impl Drop for DetectorPool {
    fn drop(&mut self) {
        // Disconnect the task channels so every worker's recv loop
        // ends, then join. Worker panics were caught and reported in
        // collect(); a join error here can only be the sentinel path,
        // so it is ignored.
        for mut seat in std::mem::take(&mut self.seats) {
            drop(seat.task_tx);
            if let Some(join) = seat.join.take() {
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_detect::alarm::Severity;
    use anomex_flow::feature::FeatureItem;
    use anomex_flow::record::FlowRecord;
    use anomex_flow::store::TimeRange;
    use std::net::Ipv4Addr;

    /// One closed window as the pipeline emits it: `benign` background
    /// flows plus a `scan`-port scan, summarized as `registry` asks.
    fn scan_window(
        registry: &DetectorRegistry,
        index: u64,
        benign: u32,
        scan: u32,
    ) -> ClosedWindow {
        let range = TimeRange::new(index * 1_000, (index + 1) * 1_000);
        let mut records: Vec<FlowRecord> = (0..benign)
            .map(|i| {
                FlowRecord::builder()
                    .time(range.from_ms + i as u64, range.from_ms + i as u64 + 5)
                    .src(Ipv4Addr::from(0x0A00_0000 + (i % 30)), 1_024 + (i % 400) as u16)
                    .dst(Ipv4Addr::from(0xAC10_0000 + (i % 5)), 80)
                    .volume(2, 1_000)
                    .build()
            })
            .collect();
        records.extend((1..=scan).map(|p| {
            FlowRecord::builder()
                .time(range.from_ms + p as u64 % 1_000, range.from_ms + p as u64 % 1_000 + 1)
                .src("10.66.66.66".parse().unwrap(), 55_548)
                .dst("172.16.0.99".parse().unwrap(), p as u16)
                .volume(1, 44)
                .build()
        }));
        let stat = IntervalStat::from_records(range, registry.summary_spec(), &records);
        ClosedWindow { index, range, stat, records: records.into() }
    }

    fn feed_windows(
        registry: &DetectorRegistry,
        windows: u64,
        scan_in_last: bool,
    ) -> Vec<ClosedWindow> {
        (0..windows)
            .map(|t| {
                let scan = if scan_in_last && t == windows - 1 { 1_200 } else { 0 };
                // Wobble the benign load so PCA's training variance is
                // non-degenerate.
                let benign = 150 + (t % 4) as u32 * 13;
                scan_window(registry, t, benign, scan)
            })
            .collect()
    }

    /// Feed `registry`'s `bank` `windows` windows.
    fn feed(
        registry: &DetectorRegistry,
        bank: &mut DetectorBank,
        windows: u64,
        scan_in_last: bool,
    ) -> Vec<EnsembleAlarm> {
        feed_windows(registry, windows, scan_in_last)
            .iter()
            .flat_map(|w| bank.push_window(w))
            .collect()
    }

    #[test]
    fn single_kl_bank_alarms_on_scan_window() {
        let config = KlConfig { interval_ms: 1_000, ..KlConfig::default() };
        let registry = DetectorRegistry::kl(config);
        assert!(!registry.summary_spec().exact, "KL alone counts bins: hints come from records");
        let mut bank = registry.build_bank();
        let alarms = feed(&registry, &mut bank, 8, true);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].alarm.window.from_ms, 7_000);
        assert_eq!(alarms[0].alarm.detector, "kl");
        assert_eq!(alarms[0].sources.len(), 1);
        let counters = bank.counters();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].name, "kl");
        assert_eq!(counters[0].windows, 8);
        assert_eq!(counters[0].alarms, 1);
    }

    #[test]
    fn ensemble_merges_same_window_alarms_with_attribution() {
        let kl = KlConfig { interval_ms: 1_000, ..KlConfig::default() };
        let pca = PcaConfig { interval_ms: 1_000, ..PcaConfig::default() };
        let registry =
            DetectorRegistry::from_specs(&[DetectorSpec::Kl(kl), DetectorSpec::Pca(pca, 12)]);
        assert_eq!(registry.names(), vec!["kl", "entropy-pca"]);
        assert_eq!(registry.interval_ms(), 1_000);

        let mut bank = registry.build_bank();
        let alarms = feed(&registry, &mut bank, 12, true);
        assert_eq!(alarms.len(), 1, "one merged alarm per flagged window");
        let ensemble = &alarms[0];
        assert_eq!(ensemble.sources.len(), 2, "both detectors must flag the scan");
        assert_eq!(ensemble.alarm.detector, "kl+entropy-pca");
        assert_eq!(ensemble.alarm.id, 0, "merged ids count merged alarms");
        assert_eq!(ensemble.sources[0].detector, "kl");
        assert_eq!(ensemble.sources[1].detector, "entropy-pca");
        // The union meta-data carries the scanner from either source.
        assert!(
            ensemble
                .alarm
                .hints
                .iter()
                .any(|h| *h == FeatureItem::src_ip("10.66.66.66".parse().unwrap())),
            "union hints lost the scanner: {:?}",
            ensemble.alarm.hints
        );
        let counters = bank.counters();
        assert_eq!(counters[0].alarms, 1);
        assert_eq!(counters[1].alarms, 1);
        assert_eq!(counters[1].windows, 12);
    }

    #[test]
    fn custom_detector_registers_and_runs() {
        struct EveryWindow {
            next_id: u64,
        }
        impl Detector for EveryWindow {
            fn name(&self) -> &str {
                "every-window"
            }
            fn interval_ms(&self) -> u64 {
                1_000
            }
            fn push(&mut self, stat: &IntervalStat) -> Vec<Alarm> {
                let alarm = Alarm::new(self.next_id, self.name(), stat.range);
                self.next_id += 1;
                vec![alarm]
            }
        }
        let mut registry = DetectorRegistry::new();
        registry.register("every-window", 1_000, || Box::new(EveryWindow { next_id: 0 }));
        let mut bank = registry.build_bank();
        let merged = feed(&registry, &mut bank, 3, false);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[2].alarm.id, 2);
        assert_eq!(bank.counters()[0].alarms, 3);
    }

    #[test]
    fn merged_alarm_takes_most_severe_source() {
        let kl = KlConfig { interval_ms: 1_000, ..KlConfig::default() };
        let mut bank = DetectorRegistry::kl(kl).build_bank();
        // Craft a merge directly: two sources with conflicting kind
        // guesses, the second more severe — score, severity AND kind
        // must all come from the same (worst) source.
        let window = TimeRange::new(0, 1_000);
        let a = Alarm::new(0, "kl", window).with_score(2.0, 1.9).with_kind("port scan");
        let b = Alarm::new(0, "entropy-pca", window).with_score(50.0, 1.0).with_kind("flood");
        let merged = bank.merge(window, &[a, b]);
        assert_eq!(merged.severity, Severity::High);
        assert_eq!(merged.score, 50.0);
        assert_eq!(merged.detector, "kl+entropy-pca");
        assert_eq!(merged.kind_hint.as_deref(), Some("flood"), "kind follows the worst source");
    }

    #[test]
    fn merge_survives_nan_scores_from_custom_detectors() {
        let kl = KlConfig { interval_ms: 1_000, ..KlConfig::default() };
        let mut bank = DetectorRegistry::kl(kl).build_bank();
        let window = TimeRange::new(0, 1_000);
        let mut a = Alarm::new(0, "bad-custom", window);
        a.score = f64::NAN; // same (default Medium) severity as `b`
        let b = Alarm::new(0, "kl", window).with_score(3.0, 1.9);
        let merged = bank.merge(window, &[a, b]);
        assert_eq!(merged.detector, "bad-custom+kl", "NaN must not panic the merge");
    }

    /// A chatty custom detector so the pool tests cover the merge path
    /// (it alarms every window, forcing cross-detector merges whenever
    /// a built-in also fires) and a stateful id sequence workers must
    /// not perturb.
    struct Chatty {
        next_id: u64,
    }
    impl Detector for Chatty {
        fn name(&self) -> &str {
            "chatty"
        }
        fn interval_ms(&self) -> u64 {
            1_000
        }
        fn push(&mut self, stat: &IntervalStat) -> Vec<Alarm> {
            let alarm = Alarm::new(self.next_id, self.name(), stat.range);
            self.next_id += 1;
            vec![alarm]
        }
    }

    /// Every registered ensemble member — both built-ins plus a custom
    /// detector — through the worker pool, at several pool widths: the
    /// merged output (ids, attribution, hints, everything) and the
    /// per-detector counters must be bit-identical to the sequential
    /// bank.
    #[test]
    fn pool_output_is_bit_identical_to_sequential() {
        let kl = KlConfig { interval_ms: 1_000, ..KlConfig::default() };
        let pca = PcaConfig { interval_ms: 1_000, ..PcaConfig::default() };
        let mut registry =
            DetectorRegistry::from_specs(&[DetectorSpec::Kl(kl), DetectorSpec::Pca(pca, 12)]);
        registry.register("chatty", 1_000, || Box::new(Chatty { next_id: 0 }));

        let mut sequential = registry.build_bank();
        let expected = feed(&registry, &mut sequential, 12, true);
        assert!(expected.len() >= 12, "chatty must alarm every window");
        assert!(
            expected.iter().any(|e| e.sources.len() >= 2),
            "scan window must exercise a cross-detector merge"
        );

        let windows = feed_windows(&registry, 12, true);
        for workers in [1usize, 2, 3, 8] {
            let mut pool = registry.build_bank().into_pool(workers, 4);
            assert_eq!(pool.workers(), workers.min(3), "pool clamps to the detector count");
            assert_eq!(pool.len(), 3);
            let merged: Vec<EnsembleAlarm> =
                windows.iter().flat_map(|w| pool.push_window(w)).collect();
            assert_eq!(merged, expected, "{workers} workers diverged from sequential");
            assert_eq!(pool.counters(), sequential.counters(), "{workers} workers");
        }
    }

    /// Dispatch-ahead (the pipelined mode the control loop uses on a
    /// batch of ready windows) must keep FIFO window order: collect()
    /// returns windows in dispatch order with the same id sequence as
    /// back-to-back push_window() calls.
    #[test]
    fn pool_dispatch_ahead_preserves_window_order() {
        let mut registry = DetectorRegistry::new();
        registry.register("chatty", 1_000, || Box::new(Chatty { next_id: 0 }));
        let windows = feed_windows(&registry, 6, false);

        let mut reference = registry.build_bank();
        let expected: Vec<EnsembleAlarm> =
            windows.iter().flat_map(|w| reference.push_window(w)).collect();

        let mut pool = registry.build_bank().into_pool(2, windows.len());
        for window in &windows {
            pool.dispatch_window(window);
        }
        let mut merged = Vec::new();
        for _ in &windows {
            merged.extend(pool.collect());
        }
        assert_eq!(merged, expected);
        assert_eq!(merged.len(), 6);
        for (i, ensemble) in merged.iter().enumerate() {
            assert_eq!(ensemble.alarm.id, i as u64, "ids must count windows in dispatch order");
            assert_eq!(ensemble.alarm.window.from_ms, i as u64 * 1_000);
        }
        assert_eq!(pool.queue_depth(), 0, "everything collected");
    }

    #[test]
    fn summary_spec_follows_member_declarations() {
        let kl = KlConfig { interval_ms: 1_000, ..KlConfig::default() };
        let pca = PcaConfig { interval_ms: 1_000, ..PcaConfig::default() };
        let bins_only = SummarySpec { bins_log2: kl.bins_log2, exact: false };
        assert_eq!(DetectorRegistry::kl(kl).summary_spec(), bins_only);
        let ensemble =
            DetectorRegistry::from_specs(&[DetectorSpec::Kl(kl), DetectorSpec::Pca(pca, 12)]);
        assert_eq!(ensemble.summary_spec(), SummarySpec { exact: true, ..bins_only });
        let mut custom = DetectorRegistry::kl(kl);
        custom.register("chatty", 1_000, || Box::new(Chatty { next_id: 0 }));
        assert!(custom.summary_spec().exact, "an undeclared detector reads exact distributions");
    }

    #[test]
    #[should_panic(expected = "may not contain '+'")]
    fn registering_a_plus_name_is_rejected() {
        struct Never;
        impl Detector for Never {
            fn name(&self) -> &str {
                "ips+ids"
            }
            fn interval_ms(&self) -> u64 {
                1_000
            }
            fn push(&mut self, _stat: &IntervalStat) -> Vec<Alarm> {
                Vec::new()
            }
        }
        DetectorRegistry::new().register("ips+ids", 1_000, || Box::new(Never));
    }

    #[test]
    #[should_panic(expected = "wants a 2000 ms interval")]
    fn mixed_intervals_panic() {
        let kl = KlConfig { interval_ms: 1_000, ..KlConfig::default() };
        let pca = PcaConfig { interval_ms: 2_000, ..PcaConfig::default() };
        DetectorRegistry::from_specs(&[DetectorSpec::Kl(kl), DetectorSpec::Pca(pca, 8)])
            .interval_ms();
    }

    /// A detector that panics exactly once, on the Nth push counted
    /// across rebuilds (the registry build closure shares the counter,
    /// so a freshly rebuilt slot continues the global sequence instead
    /// of re-panicking).
    struct Flaky {
        pushes: Arc<std::sync::atomic::AtomicU64>,
        panic_at: u64,
    }
    impl Detector for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn interval_ms(&self) -> u64 {
            1_000
        }
        fn push(&mut self, stat: &IntervalStat) -> Vec<Alarm> {
            let n = self.pushes.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            assert!(n != self.panic_at, "flaky detector panics on push {n}");
            vec![Alarm::new(n, self.name(), stat.range)]
        }
    }

    /// A detector panicking inside the *sequential* bank must not take
    /// the pipeline down: the slot is caught, counted, and rebuilt
    /// fresh, and the other slots' alarms for that window survive.
    /// This path needs no fault-injection feature — it is how the bank
    /// absorbs a genuinely buggy custom detector.
    #[test]
    fn inline_bank_survives_a_panicking_detector() {
        let pushes = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut registry = DetectorRegistry::new();
        let shared = Arc::clone(&pushes);
        registry.register("flaky", 1_000, move || {
            Box::new(Flaky { pushes: Arc::clone(&shared), panic_at: 3 })
        });
        registry.register("chatty", 1_000, || Box::new(Chatty { next_id: 0 }));

        let mut bank = registry.build_bank();
        let sup = Supervision::standalone();
        bank.supervise(sup.clone());
        let merged = feed(&registry, &mut bank, 5, false);

        assert_eq!(sup.worker_panics.get(), 1, "exactly one slot panic caught");
        assert_eq!(sup.restarts.get(), 1, "the slot was rebuilt");
        // Chatty answers all 5 windows; flaky loses only window 3's
        // alarms (its panic window), so 4 merges carry both and 1
        // carries chatty alone.
        assert_eq!(merged.len(), 5, "every window still gets its merged alarms");
        let with_flaky =
            merged.iter().filter(|e| e.sources.iter().any(|s| s.detector == "flaky")).count();
        assert_eq!(with_flaky, 4, "only the panicking window loses the flaky slot's alarms");
        assert_eq!(
            pushes.load(std::sync::atomic::Ordering::Relaxed),
            5,
            "rebuilt slot kept running"
        );
    }
}

#[cfg(all(test, feature = "fault-inject"))]
mod injected {
    use super::*;
    use crate::fault::{ActiveFaults, FaultPlan, MAX_POOL_RESTARTS};
    use anomex_detect::kl::KlConfig;
    use anomex_flow::record::FlowRecord;
    use anomex_flow::store::TimeRange;
    use anomex_obs::Counter;

    fn armed(plan: &FaultPlan) -> Supervision {
        Supervision {
            faults: ActiveFaults::new(plan, Counter::standalone()),
            worker_panics: Counter::standalone(),
            restarts: Counter::standalone(),
            failovers: Counter::standalone(),
            quarantined: Counter::standalone(),
            max_restarts: MAX_POOL_RESTARTS,
        }
    }

    fn registry() -> DetectorRegistry {
        let kl = KlConfig { interval_ms: 1_000, ..KlConfig::default() };
        DetectorRegistry::from_specs(&[
            DetectorSpec::Kl(kl),
            DetectorSpec::Pca(
                anomex_detect::pca::PcaConfig { interval_ms: 1_000, ..Default::default() },
                12,
            ),
        ])
    }

    fn windows(count: u64) -> Vec<ClosedWindow> {
        let spec = registry().summary_spec();
        (0..count)
            .map(|t| {
                let range = TimeRange::new(t * 1_000, (t + 1) * 1_000);
                let records: Vec<FlowRecord> = (0..(120 + (t % 3) as u32 * 7))
                    .map(|i| {
                        FlowRecord::builder()
                            .time(range.from_ms + i as u64, range.from_ms + i as u64 + 5)
                            .src(
                                std::net::Ipv4Addr::from(0x0A00_0000 + (i % 30)),
                                1_024 + (i % 400) as u16,
                            )
                            .dst(std::net::Ipv4Addr::from(0xAC10_0000 + (i % 5)), 80)
                            .volume(2, 1_000)
                            .build()
                    })
                    .collect();
                let stat = IntervalStat::from_records(range, spec, &records);
                ClosedWindow { index: t, range, stat, records: records.into() }
            })
            .collect()
    }

    fn pool_with(plan: &FaultPlan, workers: usize) -> (DetectorPool, Supervision) {
        let registry = registry();
        let sup = armed(plan);
        let pool = registry.build_bank().into_pool_supervised(workers, 4, sup.clone());
        (pool, sup)
    }

    /// One injected seat panic: the seat restarts, recomputes the
    /// window, and the pool answers every window without degrading.
    #[test]
    fn seat_panic_restarts_and_answers_every_window() {
        let plan = FaultPlan::new().once(FaultSite::DetectorPanic(0), 2);
        let (mut pool, sup) = pool_with(&plan, 2);
        assert_eq!(pool.workers(), 2);
        let merged: Vec<Vec<EnsembleAlarm>> =
            windows(6).iter().map(|w| pool.push_window(w)).collect();
        assert_eq!(merged.len(), 6, "every dispatched window collected");
        assert_eq!(sup.worker_panics.get(), 1);
        assert_eq!(sup.restarts.get(), 1);
        assert_eq!(sup.failovers.get(), 0);
        assert!(!pool.is_degraded());
        assert_eq!(pool.workers(), 2, "the seat came back");
    }

    /// A seat that panics on every window burns the restart budget,
    /// then the pool fails over to the inline bank — still answering
    /// every window, with the degradation visible in the counters.
    #[test]
    fn exhausted_seat_budget_fails_over_to_inline_bank() {
        let plan = FaultPlan::new().repeat_from(FaultSite::DetectorPanic(0), 1);
        let (mut pool, sup) = pool_with(&plan, 2);
        let merged: Vec<Vec<EnsembleAlarm>> =
            windows(6).iter().map(|w| pool.push_window(w)).collect();
        assert_eq!(merged.len(), 6, "failover replays the backlog; no window is lost");
        assert!(pool.is_degraded());
        assert_eq!(pool.workers(), 0, "all seats torn down");
        assert_eq!(pool.queue_depth(), 0);
        assert_eq!(sup.failovers.get(), 1);
        assert_eq!(sup.restarts.get(), MAX_POOL_RESTARTS as u64);
        assert_eq!(sup.worker_panics.get(), (MAX_POOL_RESTARTS + 1) as u64);
        // Dispatch keeps working inline after failover.
        let more = pool.push_window(&windows(7)[6]);
        let _ = more;
    }
}
