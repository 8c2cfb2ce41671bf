//! Storm backlog: what a saturated control thread holds back is a fixed
//! number of windows, however long the storm lasts.
//!
//! Every window of this run alarms and reports, and the control thread
//! is the bottleneck throughout, so the producer pushes as fast as
//! backpressure lets it. Each closed window waiting for the control
//! thread pins its records, so live heap is the backlog. Asserted
//! against the counting allocator: the high-water mark stays under
//! `window_backlog(shards) + retain_windows + 4` windows' worth of
//! records — the control channel, the retained horizon, and a few
//! windows open on the shards or being merged — where a channel bounded
//! in messages queued nearly the whole 200-window storm.

use std::net::Ipv4Addr;
use std::time::Duration;

use anomex_detect::alarm::Alarm;
use anomex_detect::detector::Detector;
use anomex_detect::interval::IntervalStat;
use anomex_flow::prelude::*;
use anomex_stream::pipeline::window_backlog;
use anomex_stream::prelude::*;

mod common;
use common::{live_bytes, peak_live_bytes, reset_peak, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const WIDTH_MS: u64 = 60_000;
const WINDOWS: u64 = 200;
const WINDOW_RECORDS: u64 = 4_000;
const SHARDS: usize = 4;
const RETAIN_WINDOWS: usize = 2;

/// Alarms on every interval after taking its time over it: the stand-in
/// for a control stage slower than intake (in a real storm, mining).
/// The sleep sets the load, it synchronizes nothing — the bound below
/// must hold whichever side is slower. The hint keeps each extraction's
/// own working memory (a few dozen candidates) out of the measurement.
struct SlowAlwaysAlarm {
    next_id: u64,
}

impl Detector for SlowAlwaysAlarm {
    fn name(&self) -> &str {
        "always"
    }

    fn interval_ms(&self) -> u64 {
        WIDTH_MS
    }

    fn push(&mut self, stat: &IntervalStat) -> Vec<Alarm> {
        std::thread::sleep(Duration::from_millis(8));
        self.next_id += 1;
        let hints = vec![FeatureItem::src_port(1_024)];
        vec![Alarm::new(self.next_id, "always", stat.range).with_hints(hints)]
    }
}

/// One window of a flood: few distinct feature values, so a window's
/// heap footprint is its records and next to nothing else.
fn flood_window(window: u64) -> impl Iterator<Item = FlowRecord> {
    let base = window * WIDTH_MS;
    (0..WINDOW_RECORDS).map(move |i| {
        let at = base + i * (WIDTH_MS / WINDOW_RECORDS);
        FlowRecord::builder()
            .time(at, at + 1)
            .src(Ipv4Addr::from(0x0A42_4200 + (window % 7) as u32), 1_024 + (i % 64) as u16)
            .dst("172.16.0.99".parse().unwrap(), 80)
            .volume(1, 44)
            .build()
    })
}

#[test]
fn an_alarm_storm_backlog_is_bounded_in_windows() {
    let mut detectors = DetectorRegistry::new();
    detectors.register("always", WIDTH_MS, || Box::new(SlowAlwaysAlarm { next_id: 0 }));
    let config = StreamConfig {
        shards: SHARDS,
        span: Some(TimeRange::new(0, WINDOWS * WIDTH_MS)),
        detectors,
        retain_windows: RETAIN_WINDOWS,
        // Nobody reads the telemetry channel here; queued snapshots
        // would be counted as backlog.
        metrics: MetricsConfig { report_every_windows: 0, ..MetricsConfig::default() },
        ..StreamConfig::default()
    };

    // The rings and queues are allocated once at launch, whatever the
    // traffic: the storm's footprint is what is live on top of them.
    let (mut ingest, reports) = launch(config);
    let baseline = live_bytes();
    reset_peak();
    // A subscriber that keeps up: delivered reports are not backlog.
    let subscriber = std::thread::spawn(move || reports.iter().filter(|r| !r.is_fault()).count());
    for window in 0..WINDOWS {
        ingest.push_batch(flood_window(window));
    }
    let stats = ingest.finish();
    let delivered = subscriber.join().expect("subscriber thread");
    let peak = peak_live_bytes() - baseline;

    assert_eq!(stats.windows, WINDOWS);
    assert_eq!(stats.alarms, WINDOWS, "every window alarms");
    assert_eq!(stats.reports, WINDOWS, "every window reports");
    assert_eq!(delivered as u64, WINDOWS);
    assert_eq!(stats.reports_dropped, 0);
    assert_eq!((stats.late_dropped, stats.out_of_span, stats.send_failures), (0, 0, 0));
    assert!(stats.health.healthy(), "{:?}", stats.health);

    let window_bytes = WINDOW_RECORDS * std::mem::size_of::<FlowRecord>() as u64;
    let budget = (window_backlog(SHARDS) + RETAIN_WINDOWS + 4) as u64;
    assert!(
        peak < budget * window_bytes,
        "a {WINDOWS}-window storm held {peak} bytes live at its peak — {:.1} windows' worth of \
         records against a budget of {budget}: the backlog is not bounded in windows",
        peak as f64 / window_bytes as f64,
    );
}
