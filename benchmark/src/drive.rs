//! The threaded driver: one generator thread (the caller) replays laps
//! into the running pipeline while two consumer threads timestamp what
//! comes out. Closed loop pushes as fast as backpressure allows; open
//! loop pushes bursts on a fixed schedule whether or not the pipeline
//! keeps up, and times everything from when it was *due*.

use std::time::{Duration, Instant};

use crate::adapter::{self, MetricsSnapshot, Outputs, Pipeline, StreamReport, StreamStats};
use crate::adapter::{V5_UNIX_SECS, WINDOW_MS};
use crate::corpus::{first_window, Corpus, Payload, T0_SECS};
use crate::stats;
use crate::sys;

/// Units released together by the open-loop schedule (32 packets, 960
/// records: about a millisecond of traffic at the paced rate).
pub const BURST_UNITS: usize = 32;

/// When a driver stops replaying laps.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After the first whole lap that ends this many seconds in.
    Seconds(f64),
    /// After exactly this many laps (so that two drivers replay the same
    /// input and their outputs compare one to one).
    Laps(u64),
}

impl Until {
    /// Whether a run `laps` laps and `elapsed_s` seconds in is over.
    pub fn reached(self, laps: u64, elapsed_s: f64) -> bool {
        match self {
            Until::Seconds(seconds) => elapsed_s >= seconds,
            Until::Laps(wanted) => laps >= wanted,
        }
    }
}

/// How one threaded run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// When to stop.
    pub until: Until,
    /// `Some(rate)` for an open loop at `rate` records per second.
    pub paced_rps: Option<u64>,
    /// Run the pipeline's own timing layer.
    pub telemetry: bool,
    /// Time the push calls on the generator thread.
    pub time_push: bool,
}

/// Everything one threaded run produced.
pub struct Outcome {
    /// Laps replayed.
    pub laps: u64,
    /// Records pushed.
    pub records: u64,
    /// First push to `finish()` returned and both channels drained.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Last push to `finish()` returned: the backlog at stream end.
    pub drain_s: f64,
    /// The pipeline's own counters.
    pub stats: StreamStats,
    /// Every report with its receipt time, in arrival order.
    pub reports: Vec<(Instant, StreamReport)>,
    /// Per-window telemetry emissions: receipt time and the number of
    /// windows the pipeline had merged, detected and extracted by then.
    pub notices: Vec<(Instant, u64)>,
    /// The final telemetry snapshot (complete run).
    pub snapshot: Option<MetricsSnapshot>,
    /// When each window's closing unit was pushed (closed loop) or due
    /// (open loop), indexed by lap-grid window; `None` when the stream
    /// ended before the window's closing unit.
    pub closing: Vec<Option<Instant>>,
    /// How late each open-loop burst started, ns.
    pub burst_late_ns: Vec<u64>,
    /// ns spent inside push calls (when `time_push`).
    pub push_ns: u64,
}

/// ns after the start at which the burst beginning at `records_before`
/// records into the stream is due, at `rate` records per second.
pub fn burst_due_ns(records_before: u64, rate: u64) -> u64 {
    (records_before as u128 * 1_000_000_000 / rate as u128) as u64
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(100) {
            std::thread::sleep(left - Duration::from_micros(60));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Replay `corpus` into a freshly launched pipeline according to `plan`.
pub fn run(corpus: &mut Corpus, detectors: adapter::Detectors, plan: Plan) -> Outcome {
    let config = adapter::stream_config(detectors, plan.telemetry);
    let (mut pipeline, Outputs { reports, notices }) = adapter::launch_pipeline(config);
    let report_reader = std::thread::spawn(move || {
        reports.iter().map(|report| (Instant::now(), report)).collect::<Vec<_>>()
    });
    let notice_reader = std::thread::spawn(move || {
        let mut seen = Vec::new();
        let mut last = None;
        for notice in notices.iter() {
            seen.push((Instant::now(), adapter::notice_windows(&notice)));
            last = Some(notice);
        }
        (seen, last.map(adapter::notice_snapshot))
    });

    let mut out = Outcome {
        laps: 0,
        records: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        drain_s: 0.0,
        stats: StreamStats::default(),
        reports: Vec::new(),
        notices: Vec::new(),
        snapshot: None,
        closing: Vec::new(),
        burst_late_ns: Vec::new(),
        push_ns: 0,
    };
    let cpu_start = sys::process_cpu_s();
    let start = Instant::now();
    loop {
        replay_lap(corpus, &mut pipeline, &plan, start, &mut out);
        out.laps += 1;
        if plan.until.reached(out.laps, start.elapsed().as_secs_f64()) {
            break;
        }
    }
    let last_push = Instant::now();
    out.stats = pipeline.finish();
    out.drain_s = last_push.elapsed().as_secs_f64();
    out.reports = report_reader.join().expect("report reader");
    let (seen, snapshot) = notice_reader.join().expect("notice reader");
    out.notices = seen;
    out.snapshot = snapshot;
    out.wall_s = start.elapsed().as_secs_f64();
    out.cpu_s = sys::process_cpu_s() - cpu_start;
    out.closing.resize((out.laps * corpus.windows) as usize, None);
    out
}

fn replay_lap(
    corpus: &mut Corpus,
    pipeline: &mut Pipeline,
    plan: &Plan,
    start: Instant,
    out: &mut Outcome,
) {
    let lap = out.laps;
    let shift_ms = lap * corpus.span_ms();
    let unix_secs = ((T0_SECS + shift_ms / 1_000) as u32).to_be_bytes();
    let windows = corpus.windows;
    out.closing.resize(((lap + 1) * windows) as usize, None);
    let mut next_closing = 0usize;
    let mut due = start;
    for unit in 0..corpus.units() {
        if unit % BURST_UNITS == 0 {
            if let Some(rate) = plan.paced_rps {
                due = start + Duration::from_nanos(burst_due_ns(out.records, rate));
                wait_until(due);
                out.burst_late_ns.push((Instant::now() - due).as_nanos() as u64);
            }
        }
        while let Some(closing) = corpus.closings.get(next_closing).filter(|c| c.unit == unit) {
            next_closing += 1;
            if lap >= closing.laps_ahead {
                let window = (lap - closing.laps_ahead) * windows + closing.window;
                let at = if plan.paced_rps.is_some() { due } else { Instant::now() };
                out.closing[window as usize] = Some(at);
            }
        }
        let pushing = plan.time_push.then(Instant::now);
        match &mut corpus.payload {
            Payload::Wire(packets) => {
                let packet = &mut packets[unit];
                packet[V5_UNIX_SECS].copy_from_slice(&unix_secs);
                pipeline.push_v5(packet);
            }
            Payload::Records(records) => {
                let from = unit * adapter::V5_RECORDS;
                let batch = &records[from..from + corpus.unit_records[unit] as usize];
                pipeline.push_records(batch.iter().map(|r| adapter::shifted(r, shift_ms)));
            }
        }
        if let Some(pushing) = pushing {
            out.push_ns += pushing.elapsed().as_nanos() as u64;
        }
        out.records += corpus.unit_records[unit] as u64;
    }
}

/// Laps whose windows are left out of the latency sample: the first
/// third of a run, in which caches warm, detectors train and — on the
/// closed-loop workloads where the control thread is the bottleneck —
/// the bounded queues in front of it fill, so latency has not settled.
pub fn warmup_laps(laps: u64) -> u64 {
    (laps / 3).max(1)
}

/// Per window closed after the warm-up, ms from its closing unit to the
/// pipeline's last output for it: the alarm report when the window
/// alarmed, else the telemetry emission that first counts it as merged.
/// Windows the stream's end (not a closing unit) closed are left out.
pub fn verdict_latencies_ms(outcome: &Outcome, windows_per_lap: u64) -> Vec<f64> {
    let first = first_window();
    let mut report_at: Vec<Option<Instant>> = vec![None; outcome.closing.len()];
    for (at, report) in &outcome.reports {
        if let Some(from_ms) = adapter::report_window_ms(report) {
            let window = (from_ms / WINDOW_MS - first) as usize;
            if let Some(slot) = report_at.get_mut(window) {
                *slot = Some(*at);
            }
        }
    }
    let mut latencies = Vec::new();
    let mut notice = 0usize;
    let warmup = (warmup_laps(outcome.laps) * windows_per_lap) as usize;
    for (window, closing) in outcome.closing.iter().enumerate() {
        let Some(closing) = closing else { continue };
        while notice < outcome.notices.len() && outcome.notices[notice].1 <= window as u64 {
            notice += 1;
        }
        let verdict = match report_at[window] {
            Some(at) => at,
            None => match outcome.notices.get(notice) {
                Some((at, _)) => *at,
                None => continue,
            },
        };
        if window >= warmup {
            latencies.push(verdict.saturating_duration_since(*closing).as_secs_f64() * 1e3);
        }
    }
    latencies
}

/// The p99 of how late open-loop bursts started, ms.
pub fn late_p99_ms(outcome: &Outcome) -> f64 {
    let late: Vec<f64> = outcome.burst_late_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    stats::percentile(&late, 0.99).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_are_due_on_the_rate_grid() {
        assert_eq!(burst_due_ns(0, 1_000_000), 0);
        assert_eq!(burst_due_ns(960, 1_000_000), 960_000);
        assert_eq!(burst_due_ns(1_000_000, 1_000_000), 1_000_000_000);
        // No overflow or drift an hour into a fast schedule.
        assert_eq!(burst_due_ns(3_600 * 8_000_000, 8_000_000), 3_600_000_000_000);
    }

    #[test]
    fn header_patched_packet_decodes_to_the_records_shifted_by_the_lap_span() {
        let t0 = T0_SECS * 1_000;
        let records: Vec<adapter::FlowRecord> = (0..45u64)
            .map(|i| adapter::FlowRecord {
                start_ms: t0 + i * 1_300,
                end_ms: t0 + i * 1_300 + 250,
                src_port: 1_024 + i as u16,
                packets: i + 1,
                ..adapter::FlowRecord::default()
            })
            .collect();
        let mut packets = adapter::encode_v5(&records, T0_SECS as u32);
        assert_eq!(packets.len(), 2, "45 records fill one packet and start a second");
        let original: Vec<_> =
            packets.iter().flat_map(|p| adapter::decode_v5(p).unwrap()).collect();
        assert_eq!(original, records, "unpatched packets decode to the corpus");

        let lap = 7u64;
        let span_ms = 24 * WINDOW_MS;
        let unix_secs = ((T0_SECS + lap * span_ms / 1_000) as u32).to_be_bytes();
        for packet in &mut packets {
            packet[V5_UNIX_SECS].copy_from_slice(&unix_secs);
        }
        let replayed: Vec<_> =
            packets.iter().flat_map(|p| adapter::decode_v5(p).unwrap()).collect();
        let shifted: Vec<_> = records.iter().map(|r| adapter::shifted(r, lap * span_ms)).collect();
        assert_eq!(replayed, shifted, "only the timestamps move, by exactly the lap span");
    }

    #[test]
    fn wait_until_never_returns_early() {
        let due = Instant::now() + Duration::from_millis(3);
        wait_until(due);
        assert!(Instant::now() >= due);
    }
}
