//! Allocation accounting for the zero-clone extraction hand-off.
//!
//! Two claims the async extraction pool depends on, asserted against a
//! counting allocator rather than taken on faith:
//!
//! 1. snapshotting a [`ClosedWindow`] (what a pool dispatch does) is a
//!    pointer bump — its cost must not scale with the record count;
//! 2. mining an alarmed window allocates for the *candidates*, never
//!    for the retained horizon — the old per-alarm
//!    "concatenate every retained window into one `Vec`" clone must
//!    stay dead.

use anomex_core::prelude::ExtractorConfig;
use anomex_detect::interval::{IntervalStat, SummarySpec};
use anomex_detect::prelude::Alarm;
use anomex_flow::prelude::*;
use anomex_stream::prelude::*;

mod common;
use common::{bytes_allocated, reset_bytes_allocated, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A window of `flows` near-identical benign records: huge record
/// payload, tiny feature distributions (so an [`IntervalStat`] clone
/// stays small and the record cost dominates by construction).
fn bulk_window(index: u64, flows: u32) -> ClosedWindow {
    let range = TimeRange::window_at(index, 0, 60_000);
    let records: Vec<FlowRecord> = (0..flows)
        .map(|i| {
            FlowRecord::builder()
                .time(range.from_ms + i as u64 % 60_000, range.from_ms + i as u64 % 60_000 + 10)
                .src("10.0.0.7".parse().unwrap(), 4_000)
                .dst("172.16.0.3".parse().unwrap(), 80)
                .volume(3, 1_500)
                .build()
        })
        .collect();
    let stat = IntervalStat::from_records(range, SummarySpec::FULL, &records);
    ClosedWindow { index, range, stat, records: records.into() }
}

/// A window holding a port scan (distinct dst ports) on top of a small
/// benign mix — enough structure for the extractor to report on.
fn scan_window(index: u64, scan_flows: u32) -> ClosedWindow {
    let range = TimeRange::window_at(index, 0, 60_000);
    let records: Vec<FlowRecord> = (1..=scan_flows)
        .map(|p| {
            FlowRecord::builder()
                .time(range.from_ms + p as u64 % 60_000, range.from_ms + p as u64 % 60_000 + 1)
                .src("10.66.66.66".parse().unwrap(), 55_548)
                .dst("172.16.0.99".parse().unwrap(), p as u16)
                .volume(1, 44)
                .build()
        })
        .collect();
    let stat = IntervalStat::from_records(range, SummarySpec::FULL, &records);
    ClosedWindow { index, range, stat, records: records.into() }
}

#[test]
fn snapshots_and_alarmed_extraction_never_reclone_the_horizon() {
    let record_bytes = std::mem::size_of::<FlowRecord>() as u64;

    // --- Claim 1: the dispatch snapshot is O(1) in the record count.
    let big = bulk_window(0, 100_000);
    let payload = big.records.len() as u64 * record_bytes;
    reset_bytes_allocated();
    let snapshot = big.clone();
    let snapshot_bytes = bytes_allocated();
    assert_eq!(snapshot.records.len(), big.records.len());
    assert!(
        snapshot_bytes * 16 < payload,
        "cloning a {payload}-byte window allocated {snapshot_bytes} bytes — \
         the snapshot deep-copies records again"
    );
    drop(snapshot);

    // --- Claim 2: extraction allocates for candidates, not the horizon.
    let mut ce = ContinuousExtractor::new(ExtractorConfig::default(), 4);
    for index in 0..4 {
        let reports = ce.push_window(bulk_window(index, 30_000), &[]);
        assert!(reports.is_empty(), "quiet windows must not report");
    }
    let horizon_bytes = ce.resident_flows() as u64 * record_bytes;
    assert!(
        horizon_bytes > 4 << 20,
        "horizon too small ({horizon_bytes} bytes) to make the assertion meaningful"
    );

    let window = scan_window(4, 2_000);
    let alarm = Alarm::new(0, "kl", window.range);
    reset_bytes_allocated();
    let reports = ce.push_window(window, &[EnsembleAlarm::solo(alarm)]);
    let extract_bytes = bytes_allocated();
    assert_eq!(reports.len(), 1, "the scan window must produce a report");
    assert!(
        extract_bytes < horizon_bytes / 2,
        "mining one alarmed window allocated {extract_bytes} bytes against a \
         {horizon_bytes}-byte retained horizon — the per-alarm horizon clone is back"
    );
}
