//! The ingest front-end: chunked, multi-handle record intake.
//!
//! [`IngestHandle`] routes records to shard workers, tracks event time,
//! sends watermarks, and decodes NetFlow packets in place. Three rules
//! keep the hand-off to the shards cheap:
//!
//! - **One chunk per ring slot.** Every handle keeps one chunk per
//!   shard (capacity [`StreamConfig::ingest_batch`], default 512) and
//!   hands a full chunk over as a single message, so both ends of a
//!   shard ring synchronize — and a parked worker is woken — once per
//!   chunk, not once per record. The rings are sized in records
//!   ([`StreamConfig::queue_depth`] / `ingest_batch` slots, at least
//!   two). The NetFlow v5/v9 decode paths fill the same chunks.
//! - **Only window-closing watermarks are sent.** Every
//!   [`StreamConfig::watermark_every`] records the handle publishes its
//!   frontier and computes the global watermark; it flushes its chunks
//!   and sends that watermark to every shard only when the watermark
//!   closes a window ([`WindowConfig::target_of`]) beyond the last one
//!   it sent. Any other watermark would be a no-op on the shard, and
//!   flushing partial chunks for it would only cost wake-ups.
//! - **Multi-handle intake.** A handle can be [`clone`]d or
//!   [`split`](IngestHandle::split) so every collector socket of a
//!   multi-socket deployment gets its own. Correctness under multiple
//!   frontiers comes from the [`WatermarkTable`]: a lock-free array of
//!   per-handle event-time marks whose **minimum over live handles** is
//!   the only watermark ever sent — a record is never declared late
//!   because a *different* socket runs ahead in event time. A handle
//!   flushes every chunk before it publishes a frontier whose own
//!   window target moved, so no other handle's watermark can close a
//!   window whose records still sit in this handle's chunks.
//!
//! Chunks are large because the hand-off's cost is wake-ups, not record
//! copies: a shard worker parks on an empty ring, and every message
//! that finds it parked costs a futex wake on both ends.
//!
//! [`clone`]: IngestHandle::clone
//! [`StreamConfig::ingest_batch`]: crate::pipeline::StreamConfig::ingest_batch
//! [`StreamConfig::queue_depth`]: crate::pipeline::StreamConfig::queue_depth
//! [`StreamConfig::watermark_every`]: crate::pipeline::StreamConfig::watermark_every

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use anomex_flow::error::CodecError;
use anomex_flow::record::FlowRecord;
use anomex_flow::{v5, v9};
use anomex_obs::Counter;
use crossbeam::channel::{Receiver, Sender, TrySendError};

use crate::fault::{ActiveFaults, FaultSite};
use crate::metrics::{MetricsReport, MetricsSnapshot, PipelineMetrics};
use crate::pipeline::{OverloadPolicy, PipelineHealth, ShardMsg, ShardShed, StreamStats};
use crate::window::WindowConfig;
// Re-exported from their historical home; the table now lives in
// `crate::watermark` so it compiles against the `sync` facade and gets
// model-checked (see that module's memory-ordering contract).
pub use crate::watermark::{WatermarkTable, MAX_HANDLES};

/// Thread handles of a running pipeline, taken by whichever handle
/// performs the final shutdown.
pub(crate) struct PipelineJoin {
    pub(crate) workers: Vec<JoinHandle<()>>,
    pub(crate) control: JoinHandle<StreamStats>,
}

impl PipelineJoin {
    /// End the stream: tell every shard to flush, join all threads,
    /// return the control thread's statistics.
    ///
    /// Shard-worker panics were already caught, counted and reported by
    /// the spawn harness, so worker joins cannot fail with anything the
    /// stats don't know. A control-thread panic is the one failure with
    /// no supervisor above it: rather than propagating (which would
    /// poison `finish` for every handle), the statistics are rebuilt
    /// from the metrics registry — the counters are `Arc`-shared and
    /// survive the thread — and the death is recorded on
    /// `fault.control_panics` / [`PipelineHealth::control_panics`].
    fn shutdown(self, senders: &[Sender<ShardMsg>], metrics: &PipelineMetrics) -> StreamStats {
        for tx in senders {
            // A worker that already exited can't take the flush; its
            // death was reported through CtrlMsg::Fault.
            let _ = tx.send(ShardMsg::Flush);
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        match self.control.join() {
            Ok(stats) => stats,
            Err(_) => {
                metrics.worker_panics.inc();
                metrics.control_panics.inc();
                let shards = senders.len();
                StreamStats {
                    late_dropped: metrics.late_dropped.get(),
                    out_of_span: metrics.out_of_span.get(),
                    windows: metrics.merge_windows.get(),
                    alarms: metrics.merged_alarms.get(),
                    reports: metrics.reports_emitted.get(),
                    reports_dropped: metrics.reports_dropped.get(),
                    health: PipelineHealth {
                        worker_panics: metrics.worker_panics.get(),
                        shard_deaths: metrics.shard_deaths.get(),
                        detector_restarts: metrics.detect_restarts.get(),
                        detector_failovers: metrics.detect_failovers.get(),
                        extraction_restarts: metrics.extract_restarts.get(),
                        extraction_failovers: metrics.extract_failovers.get(),
                        quarantined_windows: metrics.quarantined_windows.get(),
                        shed_records: metrics.shed_records.get(),
                        per_shard_shed: (0..shards)
                            .filter_map(|s| {
                                let records = metrics.shard_shed(s).get();
                                (records > 0).then_some(ShardShed { shard: s, records })
                            })
                            .collect(),
                        control_panics: metrics.control_panics.get(),
                    },
                    // `finish` overwrites the ingest-side totals below;
                    // per-detector attribution died with the bank.
                    ..StreamStats::default()
                }
            }
        }
    }
}

/// State shared by every [`IngestHandle`] of one pipeline.
pub(crate) struct PipelineCore {
    pub(crate) senders: Vec<Sender<ShardMsg>>,
    pub(crate) lateness_ms: u64,
    /// The window grid, for the window target of a watermark.
    window: WindowConfig,
    pub(crate) watermarks: WatermarkTable,
    /// Shared metric handles. The ingest totals (records, decode
    /// errors, send failures) live here as registry counters: each
    /// handle folds its local `u64`s exactly once (in `close`, before
    /// its `live` decrement under the shutdown mutex), and the reader
    /// (`finish`) runs after observing `live == 0` under that same
    /// mutex — the mutex handshake supplies the happens-before edge,
    /// matching the counters' Relaxed internals.
    pub(crate) metrics: Arc<PipelineMetrics>,
    /// The metrics subscription, taken (once) by
    /// [`IngestHandle::metrics_reports`].
    metrics_rx: Mutex<Option<Receiver<MetricsReport>>>,
    /// What a flush does when a shard's queue stays full.
    pub(crate) overload: OverloadPolicy,
    /// The armed fault plan (zero-sized no-op without `fault-inject`).
    pub(crate) faults: Arc<ActiveFaults>,
    /// Per-shard `degraded.shed_records.<shard>` counters,
    /// pre-resolved so the flush path never formats a metric name.
    shed: Vec<Counter>,
    /// Handles not yet closed. All accesses are `Relaxed`: the
    /// decrement (in `close`) and the zero-check (in `finish`) both
    /// happen under `shutdown`'s mutex, which supplies the ordering;
    /// the increment happens before the new handle can possibly reach
    /// `close` (program order, plus whatever handoff moved the handle
    /// to another thread).
    live: AtomicUsize,
    shutdown: Mutex<ShutdownState>,
    closed_or_done: Condvar,
}

#[derive(Default)]
struct ShutdownState {
    join: Option<PipelineJoin>,
    stats: Option<StreamStats>,
}

impl PipelineCore {
    #[allow(clippy::too_many_arguments)] // one call site: `launch` hands over its parts
    pub(crate) fn new(
        senders: Vec<Sender<ShardMsg>>,
        lateness_ms: u64,
        window: WindowConfig,
        join: PipelineJoin,
        metrics: Arc<PipelineMetrics>,
        metrics_rx: Receiver<MetricsReport>,
        overload: OverloadPolicy,
        faults: Arc<ActiveFaults>,
    ) -> PipelineCore {
        let shed = (0..senders.len()).map(|s| metrics.shard_shed(s)).collect();
        PipelineCore {
            senders,
            lateness_ms,
            window,
            watermarks: WatermarkTable::new(),
            metrics,
            metrics_rx: Mutex::new(Some(metrics_rx)),
            overload,
            faults,
            shed,
            live: AtomicUsize::new(0),
            shutdown: Mutex::new(ShutdownState { join: Some(join), stats: None }),
            closed_or_done: Condvar::new(),
        }
    }
}

/// The ingest front-end; see the [module docs](self) for the chunking
/// and multi-handle design.
///
/// Each handle is single-threaded (one per collector socket); scale
/// intake by [`split`](IngestHandle::split)ting across sockets or
/// threads — the shared watermark keeps event time correct — and scale
/// processing with [`StreamConfig::shards`].
///
/// [`StreamConfig::shards`]: crate::pipeline::StreamConfig::shards
pub struct IngestHandle {
    core: Arc<PipelineCore>,
    slot: usize,
    shards: usize,
    chunk_len: usize,
    watermark_every: usize,
    since_watermark: usize,
    max_event_ms: u64,
    /// The frontier this handle last published to the watermark table.
    published_ms: u64,
    /// The window target of this handle's own frontier when it last
    /// flushed before publishing: no published frontier of this handle
    /// lets a window at or above it close.
    flushed_target: u64,
    /// The window target of the last watermark this handle sent.
    sent_target: u64,
    /// One chunk per shard: the records routed there since its last
    /// hand-off, sent whole as one ring message.
    chunks: Vec<Vec<FlowRecord>>,
    ingested: u64,
    decode_errors: u64,
    send_failures: u64,
    v9_cache: v9::TemplateCache,
    closed: bool,
}

impl IngestHandle {
    pub(crate) fn launch_first(
        core: Arc<PipelineCore>,
        shards: usize,
        chunk_len: usize,
        watermark_every: usize,
    ) -> IngestHandle {
        let slot = core.watermarks.acquire(0);
        core.live.fetch_add(1, Ordering::Relaxed);
        let chunk_len = chunk_len.max(1);
        IngestHandle {
            slot,
            shards,
            chunk_len,
            watermark_every: watermark_every.max(1),
            since_watermark: 0,
            max_event_ms: 0,
            published_ms: 0,
            flushed_target: 0,
            sent_target: 0,
            chunks: (0..shards).map(|_| Vec::with_capacity(chunk_len)).collect(),
            ingested: 0,
            decode_errors: 0,
            send_failures: 0,
            v9_cache: v9::TemplateCache::new(),
            core,
            closed: false,
        }
    }

    /// Ingest one record into its shard's chunk; a full chunk is handed
    /// to the shard worker as one ring message (the backpressure point:
    /// blocks while that shard's ring is full).
    pub fn push(&mut self, record: FlowRecord) {
        self.ingested += 1;
        if let Some(advance_ms) = self.core.faults.late_flood() {
            // Injected late-arrival flood: jump this handle's frontier
            // forward, so everything older than the advanced watermark
            // now arrives late.
            self.max_event_ms = self.max_event_ms.saturating_add(advance_ms);
        }
        if record.start_ms > self.max_event_ms {
            self.max_event_ms = record.start_ms;
        }
        let shard = record.key().shard(self.shards);
        let chunk = &mut self.chunks[shard];
        chunk.push(record);
        if chunk.len() >= self.chunk_len {
            self.flush_shard(shard);
        }
        self.since_watermark += 1;
        if self.since_watermark >= self.watermark_every {
            self.check_watermark();
        }
    }

    /// Ingest a batch of records through the per-shard chunks.
    pub fn push_batch(&mut self, records: impl IntoIterator<Item = FlowRecord>) {
        for record in records {
            self.push(record);
        }
    }

    /// Decode one NetFlow v5 packet and ingest its records as one
    /// whole-packet batch; returns the record count.
    ///
    /// # Errors
    /// Propagates codec errors (counted in [`StreamStats::decode_errors`]).
    pub fn push_v5(&mut self, packet: &[u8]) -> Result<usize, CodecError> {
        if self.core.faults.fire(FaultSite::DecodeError) {
            self.decode_errors += 1;
            return Err(CodecError::Corrupt("fault-inject: forced decode error"));
        }
        match v5::decode(packet) {
            Ok(decoded) => {
                let n = decoded.records.len();
                self.push_batch(decoded.records);
                Ok(n)
            }
            Err(e) => {
                self.decode_errors += 1;
                Err(e)
            }
        }
    }

    /// Decode one NetFlow v9 packet (templates cached across packets,
    /// per handle — one handle per exporter socket) and ingest its
    /// records as one whole-packet batch; returns the record count.
    ///
    /// # Errors
    /// Propagates codec errors (counted in [`StreamStats::decode_errors`]).
    pub fn push_v9(&mut self, packet: &[u8]) -> Result<usize, CodecError> {
        if self.core.faults.fire(FaultSite::DecodeError) {
            self.decode_errors += 1;
            return Err(CodecError::Corrupt("fault-inject: forced decode error"));
        }
        let mut cache = std::mem::take(&mut self.v9_cache);
        let result = v9::decode(packet, &mut cache);
        self.v9_cache = cache;
        match result {
            Ok(decoded) => {
                let n = decoded.records.len();
                self.push_batch(decoded.records);
                Ok(n)
            }
            Err(e) => {
                self.decode_errors += 1;
                Err(e)
            }
        }
    }

    /// Records ingested through this handle so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Records lost on this handle because a shard worker disconnected
    /// mid-run (also folded into [`StreamStats::send_failures`]).
    pub fn send_failures(&self) -> u64 {
        self.send_failures
    }

    /// Take the pipeline's [`MetricsReport`] subscription (first caller
    /// wins; `None` afterwards). The control thread emits on the
    /// cadence of `MetricsConfig::report_every_windows`, always
    /// finishing with one final report, and never blocks on it: reports
    /// beyond the bounded queue are dropped.
    ///
    /// [`MetricsReport`]: crate::metrics::MetricsReport
    pub fn metrics_reports(&self) -> Option<Receiver<MetricsReport>> {
        // Poison recovery: an Option<Receiver> is valid under any
        // interrupted mutation, so a panicked peer never wedges the
        // subscription.
        self.core.metrics_rx.lock().unwrap_or_else(PoisonError::into_inner).take()
    }

    /// A point-in-time snapshot of the pipeline's metric registry.
    /// Counters this handle still holds locally (records since its last
    /// close/fold) are not yet included; the final snapshot after
    /// `finish` is complete.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.core.metrics.snapshot()
    }

    /// The current **global** event-time watermark: the minimum
    /// published frontier over every live handle, minus the lateness
    /// bound. A handle publishes its frontier at its watermark checks
    /// (every [`StreamConfig::watermark_every`] records), so records
    /// since its last check do not count yet.
    ///
    /// [`StreamConfig::watermark_every`]: crate::pipeline::StreamConfig::watermark_every
    pub fn watermark_ms(&self) -> u64 {
        self.core.watermarks.min_frontier().saturating_sub(self.core.lateness_ms)
    }

    /// Live handles feeding this pipeline (including this one).
    pub fn live_handles(&self) -> usize {
        self.core.watermarks.live() as usize
    }

    /// Consume this handle into `n` equivalent handles (itself plus
    /// `n - 1` clones), one per collector socket or ingest thread.
    ///
    /// # Panics
    /// Panics when `n` is zero or the pipeline would exceed
    /// [`MAX_HANDLES`] live handles.
    pub fn split(self, n: usize) -> Vec<IngestHandle> {
        assert!(n > 0, "split requires at least one handle");
        let mut handles = Vec::with_capacity(n);
        for _ in 1..n {
            handles.push(self.clone());
        }
        handles.push(self);
        handles
    }

    /// Hand every chunked record to the shard workers, fold this
    /// handle's counters into the pipeline totals, retire the
    /// watermark slot, and — when other handles remain live — broadcast
    /// one final watermark, since retiring the slot may have jumped the
    /// global minimum forward and the survivors would otherwise not
    /// tell the shards until their next cadence.
    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.flush_all();
        self.core.metrics.ingest_records.add(self.ingested);
        self.core.metrics.decode_errors.add(self.decode_errors);
        self.core.metrics.send_failures.add(self.send_failures);
        self.core.watermarks.release(self.slot);
        if self.core.watermarks.live() > 0 {
            let watermark =
                self.core.watermarks.min_frontier().saturating_sub(self.core.lateness_ms);
            for tx in &self.core.senders {
                // A worker that already exited can't take it; the
                // stream-end Flush covers that path.
                let _ = tx.send(ShardMsg::Watermark(watermark));
            }
        }
        // The decrement is Relaxed because it happens under the mutex:
        // the `finish` thread that observes it holds the same lock, and
        // the lock release/acquire orders the counter folds above
        // before `finish`'s reads. Poison recovery is sound here and in
        // `finish`: ShutdownState is two Options, each mutated by a
        // single assignment, so an interrupted critical section cannot
        // leave it half-written — a panicked handle on another thread
        // must not stop this one from shutting the pipeline down.
        let _guard = self.core.shutdown.lock().unwrap_or_else(PoisonError::into_inner);
        self.core.live.fetch_sub(1, Ordering::Relaxed);
        self.core.closed_or_done.notify_all();
    }

    /// End the stream: flush this handle, wait for every *other* handle
    /// to close (drop or `finish` them first), then flush every window,
    /// join all pipeline threads, and return the run's statistics.
    /// Reports still queued remain readable on the subscriber channel,
    /// which disconnects after the last one.
    ///
    /// With multiple live handles, call `finish` on one and drop (or
    /// `finish` on other threads) the rest; every `finish` call returns
    /// the same statistics.
    pub fn finish(mut self) -> StreamStats {
        let core = Arc::clone(&self.core);
        self.close();
        let mut guard = core.shutdown.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(stats) = &guard.stats {
                return stats.clone();
            }
            if core.live.load(Ordering::Relaxed) == 0 {
                if let Some(join) = guard.join.take() {
                    drop(guard);
                    let mut stats = join.shutdown(&core.senders, &core.metrics);
                    stats.ingested = core.metrics.ingest_records.get();
                    stats.decode_errors = core.metrics.decode_errors.get();
                    stats.send_failures = core.metrics.send_failures.get();
                    let mut guard = core.shutdown.lock().unwrap_or_else(PoisonError::into_inner);
                    guard.stats = Some(stats.clone());
                    core.closed_or_done.notify_all();
                    return stats;
                }
            }
            guard = core.closed_or_done.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Hand one shard's chunk to its worker as one ring message.
    fn flush_shard(&mut self, shard: usize) {
        if self.chunks[shard].is_empty() {
            return;
        }
        let chunk = std::mem::replace(&mut self.chunks[shard], Vec::with_capacity(self.chunk_len));
        if self.core.metrics.timing() {
            self.core.metrics.flush_fill.record(chunk.len() as u64);
            self.core.metrics.ingest_queue_depth.record(self.core.senders[shard].len() as u64);
        }
        self.send(shard, ShardMsg::Records(chunk));
    }

    /// Hand every non-empty chunk to its shard.
    fn flush_all(&mut self) {
        for shard in 0..self.shards {
            self.flush_shard(shard);
        }
    }

    /// Put one message (a chunk or a watermark) on `shard`'s ring.
    /// Under [`OverloadPolicy::Backpressure`] (the default) this blocks
    /// while the ring is full; under [`OverloadPolicy::Shed`] it
    /// retries until the configured delay has passed and then sheds the
    /// message. A chunk that is not delivered is counted whole: shed
    /// records on the global and the per-shard shed counters, records
    /// lost to a dead worker on `send_failures`.
    fn send(&mut self, shard: usize, msg: ShardMsg) {
        let records = match &msg {
            ShardMsg::Records(chunk) => chunk.len() as u64,
            _ => 0,
        };
        let sender = &self.core.senders[shard];
        let delivered = if self.core.faults.fire(FaultSite::RingFull(shard)) {
            // Injected saturation: the ring "never drains", which under
            // backpressure would block forever, so both policies shed
            // the message here, deterministically.
            Err(Loss::Shed)
        } else {
            match self.core.overload {
                OverloadPolicy::Backpressure => sender.send(msg).map_err(|_| Loss::Disconnected),
                OverloadPolicy::Shed { max_queue_delay } => {
                    let deadline = Instant::now() + max_queue_delay;
                    let mut pending = msg;
                    loop {
                        match sender.try_send(pending) {
                            Ok(()) => break Ok(()),
                            Err(TrySendError::Full(_)) if Instant::now() >= deadline => {
                                break Err(Loss::Shed)
                            }
                            Err(TrySendError::Full(back)) => {
                                pending = back;
                                std::thread::yield_now();
                            }
                            Err(TrySendError::Disconnected(_)) => break Err(Loss::Disconnected),
                        }
                    }
                }
            }
        };
        match delivered {
            Ok(()) => {}
            Err(Loss::Shed) => {
                if records > 0 {
                    self.core.metrics.shed_records.add(records);
                    self.core.shed[shard].add(records);
                }
            }
            // The shard worker is gone (it died mid-run): the chunk can
            // never be delivered. A vanished worker must surface in the
            // stats, not swallow traffic.
            Err(Loss::Disconnected) => self.send_failures += records,
        }
    }

    /// The watermark check, every `watermark_every` records: publish
    /// this handle's frontier and send the global watermark to every
    /// shard if it closes a window beyond the last one this handle
    /// sent. Chunks are flushed before a publish that moves this
    /// handle's own window target (so another handle's watermark can
    /// never close a window whose records still sit here) and before a
    /// send (so every shard applies the records pushed before the
    /// watermark ahead of it).
    fn check_watermark(&mut self) {
        self.since_watermark = 0;
        let lateness_ms = self.core.lateness_ms;
        let window = self.core.window;
        let own_target = window.target_of(self.max_event_ms.saturating_sub(lateness_ms));
        if own_target > self.flushed_target {
            self.flush_all();
            self.flushed_target = own_target;
        }
        self.core.watermarks.publish(self.slot, self.max_event_ms);
        self.published_ms = self.max_event_ms;
        let min = self.core.watermarks.min_frontier();
        let watermark = min.saturating_sub(lateness_ms);
        let metrics = &self.core.metrics;
        if metrics.timing() {
            // Event-time health at check cadence: how far the watermark
            // trails the freshest published frontier, how far the
            // handles have spread apart, and the wall lag.
            let max = self.core.watermarks.max_frontier();
            metrics.watermark_broadcast_ms.set(watermark);
            metrics.lag_event_ms.set(max.saturating_sub(watermark));
            metrics.frontier_skew_ms.set(max.saturating_sub(min));
            metrics.lag_wall_ms.set(PipelineMetrics::wall_now_ms().saturating_sub(watermark));
        }
        let target = window.target_of(watermark);
        if target <= self.sent_target {
            return;
        }
        self.sent_target = target;
        metrics.watermark_broadcasts.inc();
        self.flush_all();
        for shard in 0..self.shards {
            self.send(shard, ShardMsg::Watermark(watermark));
        }
    }
}

/// How a ring message failed to reach its shard.
enum Loss {
    /// Dropped by the overload policy (or an injected `RingFull`).
    Shed,
    /// The shard worker is gone.
    Disconnected,
}

impl Clone for IngestHandle {
    /// A new equivalent handle over the same pipeline, with its own
    /// shard chunks, watermark slot and NetFlow v9 template cache. The
    /// slot is seeded from this handle's *published* frontier, not its
    /// running maximum: records behind the latter may still sit in this
    /// handle's chunks, and the clone must not let their windows close.
    fn clone(&self) -> IngestHandle {
        let slot = self.core.watermarks.acquire(self.published_ms);
        self.core.live.fetch_add(1, Ordering::Relaxed);
        IngestHandle {
            core: Arc::clone(&self.core),
            slot,
            shards: self.shards,
            chunk_len: self.chunk_len,
            watermark_every: self.watermark_every,
            since_watermark: 0,
            max_event_ms: self.published_ms,
            published_ms: self.published_ms,
            flushed_target: self.flushed_target,
            sent_target: self.sent_target,
            chunks: (0..self.shards).map(|_| Vec::with_capacity(self.chunk_len)).collect(),
            ingested: 0,
            decode_errors: 0,
            send_failures: 0,
            v9_cache: v9::TemplateCache::new(),
            closed: false,
        }
    }
}

impl Drop for IngestHandle {
    fn drop(&mut self) {
        self.close();
    }
}
