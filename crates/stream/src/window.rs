//! Event-time tumbling windows with watermarks.
//!
//! Each ingest shard owns a [`ShardWindows`]: records are assigned to
//! the tumbling window containing their **start timestamp** (the same
//! NetFlow convention as `IntervalSeries::cut`), windows close when the
//! event-time watermark passes their end, and records arriving behind
//! the watermark are counted as late and dropped. The single
//! [`WindowManager`] downstream merges the per-shard partials and emits
//! gapless, in-order [`ClosedWindow`]s — deterministically, regardless
//! of how shard messages interleave, because a window is only emitted
//! once every shard's watermark frontier has passed it and partials are
//! always folded in shard order.
//!
//! Summaries carry only what the detectors read
//! ([`WindowConfig::summary`]): per record, a shard counts volume
//! totals and one hashed bin per mining feature. Exact per-feature
//! distributions are built only when a detector declares it reads
//! them, at close, on the shard thread, by sort + run-length over the
//! window's records; the manager then merges bins by vector add and
//! distributions by a linear merge of sorted runs.

use std::collections::BTreeMap;
use std::sync::Arc;

use anomex_detect::interval::{IntervalStat, SummarySpec};
use anomex_flow::record::FlowRecord;
use anomex_flow::store::TimeRange;

/// Tumbling-window grid parameters shared by every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Window width in milliseconds (the detection interval).
    pub width_ms: u64,
    /// Replay span. When set, the grid is anchored at `span.from_ms`,
    /// records outside the span are rejected, and a final flush emits
    /// exactly `span.intervals(width_ms)` windows — mirroring the batch
    /// pipeline's `IntervalSeries::cut`. When `None` the grid is
    /// anchored at epoch 0 and runs open-ended.
    pub span: Option<TimeRange>,
    /// What each window's summary carries, derived from the detector
    /// bank's declarations (`DetectorRegistry::summary_spec`).
    pub summary: SummarySpec,
}

impl WindowConfig {
    /// Grid origin: the start of window 0.
    pub fn origin_ms(&self) -> u64 {
        self.span.map_or(0, |s| s.from_ms)
    }

    /// Number of windows when the span is bounded.
    pub fn window_count(&self) -> Option<u64> {
        self.span.map(|s| s.len_ms().div_ceil(self.width_ms))
    }

    /// The time range of window `index` (last span window clipped, like
    /// `TimeRange::intervals`).
    pub fn range_of(&self, index: u64) -> TimeRange {
        let mut range = TimeRange::window_at(index, self.origin_ms(), self.width_ms);
        if let Some(span) = self.span {
            range.to_ms = range.to_ms.min(span.to_ms);
        }
        range
    }

    /// The window target of a watermark at `watermark_ms` event time:
    /// every window with a lower index has ended (capped at the span's
    /// window count). A watermark changes a shard only when its target
    /// is above the shard's frontier.
    pub fn target_of(&self, watermark_ms: u64) -> u64 {
        let target = watermark_ms.saturating_sub(self.origin_ms()) / self.width_ms;
        self.window_count().map_or(target, |count| target.min(count))
    }
}

/// One shard's records of one window, frozen at close: the shard's own
/// buffer moved behind an `Arc`, never copied.
pub type Segment = Arc<Vec<FlowRecord>>;

/// One shard's partial of one closed window.
///
/// The shard's record buffer is handed over behind an `Arc` **on the
/// shard thread** at close time, without copying a record: from here
/// on, merging, retention and extraction snapshots only ever clone the
/// `Arc`, never the records.
#[derive(Debug, Clone)]
pub struct WindowShard {
    /// Which shard produced it.
    pub shard: usize,
    /// Window index on the grid.
    pub index: u64,
    /// Partial interval summary over this shard's records.
    pub stat: IntervalStat,
    /// This shard's records of the window, in arrival order.
    pub records: Segment,
}

/// A window still accumulating records on its shard.
#[derive(Debug)]
struct OpenWindow {
    stat: IntervalStat,
    records: Vec<FlowRecord>,
}

/// Per-shard window state: open windows plus the closed frontier.
#[derive(Debug)]
pub struct ShardWindows {
    shard: usize,
    config: WindowConfig,
    open: BTreeMap<u64, OpenWindow>,
    /// First window index not yet closed on this shard.
    frontier: u64,
    late_dropped: u64,
    out_of_span: u64,
}

impl ShardWindows {
    /// Empty window state for `shard`.
    ///
    /// # Panics
    /// Panics if the configured width is zero.
    pub fn new(shard: usize, config: WindowConfig) -> ShardWindows {
        assert!(config.width_ms > 0, "window width must be positive");
        ShardWindows {
            shard,
            config,
            open: BTreeMap::new(),
            frontier: 0,
            late_dropped: 0,
            out_of_span: 0,
        }
    }

    /// Records dropped for arriving behind the watermark.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Records rejected for falling outside the configured span.
    pub fn out_of_span(&self) -> u64 {
        self.out_of_span
    }

    /// First window index not yet closed.
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// Account one record; `false` when it was dropped (late or out of
    /// span).
    pub fn push(&mut self, record: FlowRecord) -> bool {
        let Some(index) =
            TimeRange::window_index(record.start_ms, self.config.origin_ms(), self.config.width_ms)
        else {
            self.out_of_span += 1;
            return false;
        };
        if self.config.window_count().is_some_and(|count| index >= count) {
            self.out_of_span += 1;
            return false;
        }
        if index < self.frontier {
            self.late_dropped += 1;
            return false;
        }
        let config = &self.config;
        let slot = self.open.entry(index).or_insert_with(|| OpenWindow {
            // Exact distributions, if wanted, are built at close.
            stat: IntervalStat::with_spec(
                config.range_of(index),
                SummarySpec { exact: false, ..config.summary },
            ),
            records: Vec::new(),
        });
        slot.stat.add(&record);
        slot.records.push(record);
        true
    }

    /// Advance the watermark to `watermark_ms` event time, closing and
    /// returning every window whose end it passed (in index order).
    pub fn close_up_to(&mut self, watermark_ms: u64) -> Vec<WindowShard> {
        self.close_to_target(self.config.target_of(watermark_ms))
    }

    /// Stream end: close every remaining window and seal the shard (the
    /// frontier jumps to `u64::MAX`, so any further record is late).
    pub fn flush(&mut self) -> Vec<WindowShard> {
        self.close_to_target(u64::MAX)
    }

    fn close_to_target(&mut self, target: u64) -> Vec<WindowShard> {
        if target <= self.frontier {
            return Vec::new();
        }
        self.frontier = target;
        let still_open = self.open.split_off(&target);
        let closed = std::mem::replace(&mut self.open, still_open);
        let exact = self.config.summary.exact;
        closed
            .into_iter()
            .map(|(index, mut w)| {
                if exact {
                    // Sorted runs per feature, here on the shard thread:
                    // the control thread only merges them.
                    w.stat.build_dists(&w.records);
                }
                WindowShard {
                    shard: self.shard,
                    index,
                    stat: w.stat,
                    // Freeze here, on the shard thread: downstream
                    // hand-offs (merge, retention, extraction snapshot)
                    // are Arc clones of this very buffer.
                    records: Arc::new(w.records),
                }
            })
            .collect()
    }
}

/// The records of one closed window: per-shard [`Segment`]s in shard
/// order, iterated as one logical sequence.
///
/// Cloning a `WindowRecords` clones the segment `Arc`s only — a
/// retained window can be snapshotted for an asynchronous extraction
/// task at the cost of a few pointer bumps, whatever the horizon holds.
/// Iteration order (segment by segment, arrival order within each) is
/// exactly the order the old contiguous vector had.
#[derive(Debug, Clone, Default)]
pub struct WindowRecords {
    segments: Vec<Segment>,
    len: usize,
}

impl WindowRecords {
    /// No records, no segments.
    pub fn new() -> WindowRecords {
        WindowRecords::default()
    }

    /// Total records across every segment.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one shard's segment (empty segments are dropped).
    pub fn push_segment(&mut self, segment: Segment) {
        self.len += segment.len();
        if !segment.is_empty() {
            self.segments.push(segment);
        }
    }

    /// The underlying segments, in shard order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Iterate every record in shard order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowRecord> + Clone + '_ {
        self.segments.iter().flat_map(|s| s.iter())
    }

    /// Materialize one contiguous vector (tests and batch comparisons).
    pub fn to_vec(&self) -> Vec<FlowRecord> {
        self.iter().cloned().collect()
    }
}

impl From<Vec<FlowRecord>> for WindowRecords {
    fn from(records: Vec<FlowRecord>) -> WindowRecords {
        WindowRecords::from(Arc::new(records))
    }
}

impl From<Segment> for WindowRecords {
    fn from(segment: Segment) -> WindowRecords {
        let mut out = WindowRecords::new();
        out.push_segment(segment);
        out
    }
}

impl<'a> IntoIterator for &'a WindowRecords {
    type Item = &'a FlowRecord;
    type IntoIter = std::iter::FlatMap<
        std::slice::Iter<'a, Segment>,
        std::slice::Iter<'a, FlowRecord>,
        fn(&'a Segment) -> std::slice::Iter<'a, FlowRecord>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.segments.iter().flat_map(|s| s.iter())
    }
}

/// One fully-merged window, every shard's records included.
#[derive(Debug, Clone)]
pub struct ClosedWindow {
    /// Window index on the grid.
    pub index: u64,
    /// The window's time range.
    pub range: TimeRange,
    /// Merged interval summary (detector input).
    pub stat: IntervalStat,
    /// Merged records in shard order (extraction input).
    pub records: WindowRecords,
}

/// Cross-shard merger: collects [`WindowShard`]s and per-shard watermark
/// frontiers, emits [`ClosedWindow`]s gapless and in order once every
/// shard has passed them.
#[derive(Debug)]
pub struct WindowManager {
    shards: usize,
    config: WindowConfig,
    frontiers: Vec<u64>,
    pending: BTreeMap<u64, Vec<Option<WindowShard>>>,
    /// Next index to emit; `None` until the first emittable window is
    /// known (open-ended streams have no natural first window).
    next_emit: Option<u64>,
}

impl WindowManager {
    /// Merger over `shards` upstream shards.
    ///
    /// # Panics
    /// Panics if `shards` is zero or the configured width is zero.
    pub fn new(shards: usize, config: WindowConfig) -> WindowManager {
        assert!(shards > 0, "shard count must be positive");
        assert!(config.width_ms > 0, "window width must be positive");
        WindowManager {
            shards,
            config,
            frontiers: vec![0; shards],
            pending: BTreeMap::new(),
            next_emit: None,
        }
    }

    /// Accept one shard's report: its closed windows plus its new
    /// frontier. Returns every window that became globally closed.
    ///
    /// Equivalent to [`stage`](WindowManager::stage) followed by
    /// [`drain`](WindowManager::drain); callers holding a batch of
    /// reports should stage them all and drain once.
    pub fn offer(
        &mut self,
        from_shard: usize,
        frontier: u64,
        windows: Vec<WindowShard>,
    ) -> Vec<ClosedWindow> {
        self.stage(from_shard, frontier, windows);
        self.emit()
    }

    /// File one shard's report — partials plus its new frontier —
    /// without scanning for emittable windows. Staging a run of
    /// reports and [`drain`](WindowManager::drain)ing once amortizes
    /// the frontier scan and the emission walk over the whole batch,
    /// and hands downstream one large run of ready windows instead of
    /// many short ones. Staging order never matters: partials are
    /// keyed by (window, shard) and frontiers only ratchet forward, so
    /// any interleaving drains to the identical window sequence.
    pub fn stage(&mut self, from_shard: usize, frontier: u64, windows: Vec<WindowShard>) {
        for w in windows {
            debug_assert_eq!(w.shard, from_shard, "shard partial routed to wrong slot");
            let shards = self.shards;
            let slots = self.pending.entry(w.index).or_insert_with(|| {
                let mut v = Vec::with_capacity(shards);
                v.resize_with(shards, || None);
                v
            });
            slots[from_shard] = Some(w);
        }
        self.frontiers[from_shard] = self.frontiers[from_shard].max(frontier);
    }

    /// Emit every window that became globally closed since the last
    /// drain (gapless, in index order).
    pub fn drain(&mut self) -> Vec<ClosedWindow> {
        self.emit()
    }

    /// Permanently remove a dead shard from the merge frontier: its
    /// slot stops gating the min-over-shards emission, so the
    /// survivors' windows keep flowing. Partials the shard already
    /// staged still merge; everything it would have contributed from
    /// here on is simply absent (the supervision layer reports that
    /// gap — see `PipelineHealth::shard_deaths`).
    pub fn retire_shard(&mut self, shard: usize) {
        // Equivalent to a final report at an infinite frontier, which
        // is exactly how a healthy shard leaves the stream at flush.
        self.stage(shard, u64::MAX, Vec::new());
    }

    /// Stream end: emit everything left. Callers must first [`offer`]
    /// every shard's flush report (frontier `u64::MAX`), or trailing
    /// windows stay unemitted.
    ///
    /// [`offer`]: WindowManager::offer
    pub fn finish(&mut self) -> Vec<ClosedWindow> {
        self.emit()
    }

    fn emit(&mut self) -> Vec<ClosedWindow> {
        let global = *self.frontiers.iter().min().expect("at least one shard");
        if self.next_emit.is_none() {
            self.next_emit = match self.config.window_count() {
                // Bounded replay: the grid starts at window 0 no matter
                // where the first record lands.
                Some(_) => Some(0),
                // Open-ended: start at the first occupied window.
                None => self.pending.keys().next().copied().filter(|&k| k < global),
            };
        }
        let Some(mut idx) = self.next_emit else {
            return Vec::new();
        };
        // Emission ceiling: the global frontier, capped for open-ended
        // streams at the last occupied window (an infinite tail of empty
        // windows is meaningless without a span).
        let end = match self.config.window_count() {
            Some(count) => global.min(count),
            None => match self.pending.keys().next_back() {
                Some(&last) => global.min(last + 1),
                None => idx,
            },
        };
        let mut out = Vec::new();
        while idx < end {
            let range = self.config.range_of(idx);
            // Move the first occupied partial instead of merging it
            // into an empty summary: for single-shard pipelines (and
            // any window only one shard touched) the whole window —
            // summary and record segment — transfers without copying a
            // single entry. Additional shards add their bins (and merge
            // their sorted runs) and contribute their segment by Arc
            // move, never by record copy.
            let mut merged: Option<(IntervalStat, WindowRecords)> = None;
            if let Some(slots) = self.pending.remove(&idx) {
                for shard in slots.into_iter().flatten() {
                    match &mut merged {
                        None => {
                            debug_assert_eq!(shard.stat.range, range, "partial on wrong grid");
                            merged = Some((shard.stat, shard.records.into()));
                        }
                        Some((stat, records)) => {
                            stat.merge(&shard.stat);
                            records.push_segment(shard.records);
                        }
                    }
                }
            }
            let (stat, records) = merged.unwrap_or_else(|| {
                (IntervalStat::with_spec(range, self.config.summary), WindowRecords::new())
            });
            out.push(ClosedWindow { index: idx, range, stat, records });
            idx += 1;
        }
        self.next_emit = Some(idx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn rec(start_ms: u64, salt: u32) -> FlowRecord {
        FlowRecord::builder()
            .time(start_ms, start_ms + 10)
            .src(Ipv4Addr::from(0x0A00_0000 + salt), 1_000 + (salt % 500) as u16)
            .dst(Ipv4Addr::from(0xAC10_0001), 80)
            .volume(2, 120)
            .build()
    }

    fn grid(width_ms: u64, span: Option<TimeRange>) -> WindowConfig {
        WindowConfig { width_ms, span, summary: SummarySpec::FULL }
    }

    fn bounded(width: u64, span_ms: u64) -> WindowConfig {
        grid(width, Some(TimeRange::new(0, span_ms)))
    }

    #[test]
    fn shard_assigns_by_start_and_closes_on_watermark() {
        let mut sw = ShardWindows::new(0, bounded(100, 1_000));
        assert!(sw.push(rec(5, 1)));
        assert!(sw.push(rec(99, 2)));
        assert!(sw.push(rec(100, 3)));
        // Watermark 200: both [0,100) and [100,200) are complete.
        let closed = sw.close_up_to(200);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].index, 0);
        assert_eq!(closed[0].records.len(), 2);
        assert_eq!(closed[1].index, 1);
        assert_eq!(closed[1].records.len(), 1);
        assert_eq!(sw.frontier(), 2);
        // A watermark that does not advance closes nothing further.
        let more = sw.close_up_to(200);
        assert!(more.is_empty());
    }

    #[test]
    fn late_records_are_dropped_and_counted() {
        let mut sw = ShardWindows::new(0, bounded(100, 1_000));
        sw.push(rec(150, 1));
        sw.close_up_to(200); // frontier passes window 0 and 1
        assert!(!sw.push(rec(50, 2)), "behind the watermark");
        assert_eq!(sw.late_dropped(), 1);
        assert!(sw.push(rec(250, 3)), "ahead of the watermark");
    }

    #[test]
    fn out_of_span_records_are_rejected() {
        let mut sw = ShardWindows::new(0, bounded(100, 300));
        assert!(!sw.push(rec(300, 1)), "at span end");
        assert!(!sw.push(rec(5_000, 2)), "far past span");
        assert_eq!(sw.out_of_span(), 2);
        let mut anchored = ShardWindows::new(0, grid(100, Some(TimeRange::new(500, 900))));
        assert!(!anchored.push(rec(400, 3)), "before span origin");
        assert_eq!(anchored.out_of_span(), 1);
    }

    #[test]
    fn flush_closes_everything_and_seals() {
        let mut sw = ShardWindows::new(0, bounded(100, 1_000));
        sw.push(rec(50, 1));
        sw.push(rec(950, 2));
        let closed = sw.flush();
        assert_eq!(closed.len(), 2);
        assert_eq!(sw.frontier(), u64::MAX);
        assert!(!sw.push(rec(999, 3)), "sealed shard drops everything");
    }

    #[test]
    fn manager_emits_in_order_with_gap_fill_regardless_of_arrival() {
        // Two shards; windows 0..5 over a 500ms span. Shard 0 owns
        // records in windows 0 and 3, shard 1 in window 1. Offer the
        // reports in both orders; the emitted sequence must be identical.
        let run = |first_shard: usize| {
            let config = bounded(100, 500);
            let mut shard0 = ShardWindows::new(0, config);
            let mut shard1 = ShardWindows::new(1, config);
            shard0.push(rec(10, 1));
            shard0.push(rec(310, 2));
            shard1.push(rec(110, 3));
            let f0 = {
                let w = shard0.flush();
                (0usize, u64::MAX, w)
            };
            let f1 = {
                let w = shard1.flush();
                (1usize, u64::MAX, w)
            };
            let mut manager = WindowManager::new(2, config);
            let mut emitted = Vec::new();
            let (a, b) = if first_shard == 0 { (f0, f1) } else { (f1, f0) };
            emitted.extend(manager.offer(a.0, a.1, a.2));
            emitted.extend(manager.offer(b.0, b.1, b.2));
            emitted.extend(manager.finish());
            emitted
        };
        let forward = run(0);
        let backward = run(1);
        assert_eq!(forward.len(), 5, "bounded span must emit every window");
        let summarize = |ws: &[ClosedWindow]| -> Vec<(u64, u64)> {
            ws.iter().map(|w| (w.index, w.stat.flows)).collect()
        };
        assert_eq!(summarize(&forward), summarize(&backward));
        assert_eq!(summarize(&forward), vec![(0, 1), (1, 1), (2, 0), (3, 1), (4, 0)]);
        for w in &forward {
            assert_eq!(w.records.len() as u64, w.stat.flows);
        }
    }

    #[test]
    fn merged_window_snapshots_share_shard_records() {
        // The zero-clone invariant behind the extraction pool hand-off:
        // close hands each shard's own record buffer over as its
        // segment, the cross-shard merge moves each frozen `Arc` segment
        // into the emitted window, and cloning the window (what a pool
        // dispatch snapshot does) bumps refcounts without copying a
        // single FlowRecord.
        let config = bounded(100, 1_000);
        let mut shard0 = ShardWindows::new(0, config);
        let mut shard1 = ShardWindows::new(1, config);
        shard0.push(rec(5, 1));
        shard0.push(rec(10, 2));
        shard1.push(rec(20, 3));
        let buffer0 = shard0.open[&0].records.as_ptr();
        let buffer1 = shard1.open[&0].records.as_ptr();
        let from0 = shard0.close_up_to(100);
        let from1 = shard1.close_up_to(100);
        assert_eq!(from0[0].records.as_ptr(), buffer0, "close copied shard 0's buffer");
        assert_eq!(from1[0].records.as_ptr(), buffer1, "close copied shard 1's buffer");
        let arc0 = Arc::clone(&from0[0].records);
        let arc1 = Arc::clone(&from1[0].records);

        let mut manager = WindowManager::new(2, config);
        manager.stage(0, shard0.frontier(), from0);
        manager.stage(1, shard1.frontier(), from1);
        let merged = manager.drain();
        assert_eq!(merged.len(), 1);
        let window = &merged[0];
        assert_eq!(window.records.len(), 3);
        let segments = window.records.segments();
        assert_eq!(segments.len(), 2, "one segment per contributing shard");
        assert!(segments.iter().any(|s| Arc::ptr_eq(s, &arc0)), "shard 0 records were copied");
        assert!(segments.iter().any(|s| Arc::ptr_eq(s, &arc1)), "shard 1 records were copied");

        let snapshot = window.clone();
        for (original, cloned) in segments.iter().zip(snapshot.records.segments()) {
            assert!(Arc::ptr_eq(original, cloned), "snapshot deep-copied a segment");
        }
    }

    #[test]
    fn staged_bulk_drain_matches_per_offer_emission() {
        // The batched control-loop path (stage every queued report,
        // drain once) must emit exactly what per-report offers emit,
        // whatever order the reports are staged in.
        let config = bounded(100, 500);
        let reports = || {
            let mut shard0 = ShardWindows::new(0, config);
            let mut shard1 = ShardWindows::new(1, config);
            shard0.push(rec(10, 1));
            shard0.push(rec(310, 2));
            shard1.push(rec(110, 3));
            shard1.push(rec(320, 4));
            let mid0 = shard0.close_up_to(200);
            let mid1 = shard1.close_up_to(200);
            vec![
                (0usize, shard0.frontier(), mid0),
                (1usize, shard1.frontier(), mid1),
                (0usize, u64::MAX, shard0.flush()),
                (1usize, u64::MAX, shard1.flush()),
            ]
        };
        let summarize = |ws: &[ClosedWindow]| -> Vec<(u64, u64)> {
            ws.iter().map(|w| (w.index, w.stat.flows)).collect()
        };

        let mut per_offer = WindowManager::new(2, config);
        let mut expected = Vec::new();
        for (shard, frontier, windows) in reports() {
            expected.extend(per_offer.offer(shard, frontier, windows));
        }
        expected.extend(per_offer.finish());
        assert_eq!(summarize(&expected), vec![(0, 1), (1, 1), (2, 0), (3, 2), (4, 0)]);

        for reversed in [false, true] {
            let mut batch = reports();
            if reversed {
                batch.reverse();
            }
            let mut manager = WindowManager::new(2, config);
            for (shard, frontier, windows) in batch {
                manager.stage(shard, frontier, windows);
            }
            let mut drained = manager.drain();
            drained.extend(manager.finish());
            assert_eq!(summarize(&drained), summarize(&expected), "reversed={reversed}");
            for (a, b) in drained.iter().zip(&expected) {
                assert_eq!(a.range, b.range);
                assert_eq!(a.records.len(), b.records.len());
            }
        }
    }

    #[test]
    fn manager_waits_for_slowest_shard() {
        let config = bounded(100, 500);
        let mut manager = WindowManager::new(2, config);
        let mut shard0 = ShardWindows::new(0, config);
        shard0.push(rec(10, 1));
        let closed = shard0.close_up_to(200);
        // Shard 0 passed window 0, shard 1 has not reported: no emission.
        assert!(manager.offer(0, shard0.frontier(), closed).is_empty());
        // Shard 1 catches up: window 0 (and the empty window 1) emit.
        let emitted = manager.offer(1, 2, Vec::new());
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0].stat.flows, 1);
        assert_eq!(emitted[1].stat.flows, 0);
    }

    #[test]
    fn open_ended_stream_starts_at_first_occupied_window() {
        let config = grid(100, None);
        let mut manager = WindowManager::new(1, config);
        let mut sw = ShardWindows::new(0, config);
        sw.push(rec(720, 1)); // window 7
        sw.push(rec(930, 2)); // window 9
        let windows = sw.flush();
        let mut emitted = manager.offer(0, sw.frontier(), windows);
        emitted.extend(manager.finish());
        let indices: Vec<u64> = emitted.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![7, 8, 9], "gap filled, no leading empties");
        assert_eq!(emitted[1].stat.flows, 0);
    }

    #[test]
    fn clipped_last_window_matches_batch_intervals() {
        let span = TimeRange::new(0, 250);
        let config = grid(100, Some(span));
        assert_eq!(config.window_count(), Some(3));
        let batch = span.intervals(100);
        for (i, expected) in batch.iter().enumerate() {
            assert_eq!(config.range_of(i as u64), *expected);
        }
    }
}
