//! Workloads and their seeded base corpora.
//!
//! A corpus is one *lap*: a fixed number of one-minute windows of
//! generated traffic in arrival order, cut into units of 30 records
//! (one v5 export packet, or one record batch). The drivers replay the
//! lap over and over with event time shifted forward by the lap span,
//! so a run of any length sees monotonically advancing event time while
//! the generator only patches four header bytes per packet.

use std::net::Ipv4Addr;

use crate::adapter::{self, AnomalyKind, AnomalySpec, Detectors, FlowRecord, Rng};
use crate::adapter::{LATENESS_MS, V5_RECORDS, WINDOW_MS};

/// Epoch second of the first lap's first window; a multiple of the
/// window width so window indices line up with the lap grid.
pub const T0_SECS: u64 = 1_600_000_020;
/// The fixed open-loop rate of `paced_alarms` and of the paced probe in
/// traced runs, records per second. Lowered once from 1 000 000: the
/// rate must stay at or below 30 % of what `wire_alarm_storm` sustains
/// closed-loop (2.9 M records/s on the 2-vCPU reference box), so the
/// pipeline keeps up with headroom and latency carries no backlog.
pub const PACED_RPS: u64 = 800_000;
/// Arrival jitter of the out-of-order workload, in event-time ms; below
/// the lateness bound, so jitter alone never makes a record late.
const JITTER_MS: u64 = 20_000;
/// Extra delay of the designed-late records: lateness plus a window
/// plus a minute of margin, so their window is closed when they arrive
/// however sparse the traffic that carries the watermark.
const LATE_DELAY_MS: u64 = 180_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, v5 packets, background only, zero alarms.
    WireQuiet,
    /// Closed loop, v5 packets, recurring port scans, most windows alarm.
    WireAlarmStorm,
    /// Open loop at [`PACED_RPS`], the alarm-storm corpus.
    PacedAlarms,
    /// Closed loop, records pushed directly, out-of-order arrival with a
    /// designed 1 % late, KL + entropy-PCA, one anomaly per 24 windows.
    RecordsOooEnsemble,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::WireQuiet,
        Workload::WireAlarmStorm,
        Workload::PacedAlarms,
        Workload::RecordsOooEnsemble,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireQuiet => "wire_quiet",
            Workload::WireAlarmStorm => "wire_alarm_storm",
            Workload::PacedAlarms => "paced_alarms",
            Workload::RecordsOooEnsemble => "records_ooo_ensemble",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The detector bank the workload runs.
    pub fn detectors(self) -> Detectors {
        match self {
            Workload::RecordsOooEnsemble => Detectors::KlPca,
            _ => Detectors::Kl,
        }
    }

    /// `Some(rate)` for the open-loop workload.
    pub fn paced_rps(self) -> Option<u64> {
        (self == Workload::PacedAlarms).then_some(PACED_RPS)
    }
}

/// What the units of a lap carry.
pub enum Payload {
    /// Owned v5 export packets; the replay patches `unix_secs` in place.
    Wire(Vec<Vec<u8>>),
    /// Flow records in arrival order, pushed in batches of 30.
    Records(Vec<FlowRecord>),
}

/// One window whose closing unit lies `laps_ahead` laps later at `unit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closing {
    /// Unit index inside a lap.
    pub unit: usize,
    /// Window (inside the lap that *owns* the window) this unit closes.
    pub window: u64,
    /// 0 when the closing unit is in the window's own lap, 1 when the
    /// window is so near the lap end that the next lap closes it.
    pub laps_ahead: u64,
}

/// One seeded lap of a workload.
pub struct Corpus {
    /// The traffic.
    pub payload: Payload,
    /// Records carried by each unit.
    pub unit_records: Vec<u32>,
    /// Closing units, sorted by `unit`.
    pub closings: Vec<Closing>,
    /// Windows per lap.
    pub windows: u64,
    /// Records per lap.
    pub records: u64,
    /// Injected anomalies, with times relative to the first lap.
    pub anomalies: Vec<AnomalySpec>,
    /// Records per lap designed to arrive behind the watermark.
    pub designed_late: u64,
}

impl Corpus {
    /// Event-time length of a lap.
    pub fn span_ms(&self) -> u64 {
        self.windows * WINDOW_MS
    }

    /// Units per lap.
    pub fn units(&self) -> usize {
        self.unit_records.len()
    }
}

/// Window index on the epoch grid of the first lap's first window.
pub fn first_window() -> u64 {
    T0_SECS * 1_000 / WINDOW_MS
}

/// Build the workload's lap from `seed`. `scale` shrinks flow counts
/// (smoke and tests); the committed numbers all use 1.0.
pub fn build(workload: Workload, seed: u64, scale: f64) -> Corpus {
    let mut rng = Rng::seeded(seed ^ 0xA11C_E5ED);
    let t0 = T0_SECS * 1_000;
    let n = |flows: usize| ((flows as f64 * scale) as usize).max(64);
    match workload {
        Workload::WireQuiet => {
            let windows = 24;
            let mut records = adapter::background(&mut rng, t0, windows * WINDOW_MS, n(320_000));
            records.sort_by_key(|r| r.start_ms);
            wire(records, windows, Vec::new())
        }
        Workload::WireAlarmStorm | Workload::PacedAlarms => {
            // Every window carries a port scan, so every window costs
            // the extractor the same and the latency distribution is
            // tight whatever the seed. The first four windows share one
            // attacker: the detector trains on them in the first lap
            // and learns thresholds of stationary traffic. From then on
            // the attacker rotates, so each window's scanner is missing
            // from (or diluted in) the KL baseline of the six windows
            // before it, and every window alarms.
            let windows = 48;
            let mut records = adapter::background(&mut rng, t0, windows * WINDOW_MS, n(48_000));
            let mut anomalies = Vec::new();
            for w in 0..windows {
                let rotation = if w < 4 { 0 } else { 1 + (w % 5) as u8 };
                let mut spec = adapter::anomaly(
                    AnomalyKind::PortScan,
                    Ipv4Addr::new(10, 3 + rotation, 7, 99),
                    Ipv4Addr::new(172, 16, 5, 5 + rotation),
                    t0 + w * WINDOW_MS,
                    n(6_000),
                );
                // Each scan resumes where the previous one stopped, so
                // ten windows sweep the port space: the extractor's
                // warm item dictionary keeps meeting new items and its
                // 16-bit id space overflows every few windows, as it
                // would under a real sweep.
                spec.dst_port = (1 + (w as usize * spec.flows) % 60_000) as u16;
                records.extend(adapter::inject(&spec, &mut rng));
                anomalies.push(spec);
            }
            records.sort_by_key(|r| r.start_ms);
            wire(records, windows, anomalies)
        }
        Workload::RecordsOooEnsemble => {
            const KINDS: [AnomalyKind; 4] = [
                AnomalyKind::PortScan,
                AnomalyKind::SynFlood,
                AnomalyKind::UdpDdos,
                AnomalyKind::NetworkScan,
            ];
            let segment = 24;
            let windows = segment * KINDS.len() as u64;
            let mut records = adapter::background(&mut rng, t0, windows * WINDOW_MS, n(320_000));
            let mut anomalies = Vec::new();
            for (i, kind) in KINDS.into_iter().enumerate() {
                let spec = adapter::anomaly(
                    kind,
                    Ipv4Addr::new(10, 9, i as u8, 77),
                    Ipv4Addr::new(172, 16, 3, 40 + i as u8),
                    t0 + (i as u64 * segment + 12) * WINDOW_MS,
                    n(4_000),
                );
                records.extend(adapter::inject(&spec, &mut rng));
                anomalies.push(spec);
            }
            out_of_order(records, windows, anomalies, &mut rng)
        }
    }
}

fn wire(records: Vec<FlowRecord>, windows: u64, anomalies: Vec<AnomalySpec>) -> Corpus {
    let packets = adapter::encode_v5(&records, T0_SECS as u32);
    let (unit_records, closings) = units_and_closings(&records, windows);
    Corpus {
        payload: Payload::Wire(packets),
        unit_records,
        closings,
        windows,
        records: records.len() as u64,
        anomalies,
        designed_late: 0,
    }
}

/// Arrival order for the out-of-order workload: every record arrives up
/// to [`JITTER_MS`] of event time after its start, and a seeded 1 % (none
/// from the last five windows, so a lap stays self-contained) arrives
/// [`LATE_DELAY_MS`] later still — behind the watermark, to be dropped.
fn out_of_order(
    records: Vec<FlowRecord>,
    windows: u64,
    anomalies: Vec<AnomalySpec>,
    rng: &mut Rng,
) -> Corpus {
    let lap_end = T0_SECS * 1_000 + windows * WINDOW_MS;
    let mut designed_late = 0u64;
    let mut keyed: Vec<(u64, FlowRecord)> = records
        .into_iter()
        .map(|record| {
            let mut arrival = record.start_ms + rng.next_below(JITTER_MS);
            let may_delay = record.start_ms + 5 * WINDOW_MS < lap_end;
            if may_delay && rng.next_below(100) == 0 {
                arrival += LATE_DELAY_MS;
                designed_late += 1;
            }
            (arrival, record)
        })
        .collect();
    keyed.sort_by_key(|(arrival, _)| *arrival);
    let records: Vec<FlowRecord> = keyed.into_iter().map(|(_, record)| record).collect();
    let (unit_records, closings) = units_and_closings(&records, windows);
    Corpus {
        payload: Payload::Records(records.clone()),
        unit_records,
        closings,
        windows,
        records: records.len() as u64,
        anomalies,
        designed_late,
    }
}

/// Cut `records` (arrival order) into units of 30 and find, per window,
/// the first unit after which the ingest side's running maximum start
/// time reaches the window's end plus the lateness bound — the unit
/// whose arrival lets the watermark close the window.
fn units_and_closings(records: &[FlowRecord], windows: u64) -> (Vec<u32>, Vec<Closing>) {
    let t0 = T0_SECS * 1_000;
    let span = windows * WINDOW_MS;
    let unit_records: Vec<u32> = records.chunks(V5_RECORDS).map(|c| c.len() as u32).collect();
    let mut running = 0u64;
    let unit_max: Vec<u64> = records
        .chunks(V5_RECORDS)
        .map(|chunk| {
            running = chunk.iter().map(|r| r.start_ms - t0).fold(running, u64::max);
            running
        })
        .collect();
    let mut closings: Vec<Closing> = (0..windows)
        .filter_map(|window| {
            let target = (window + 1) * WINDOW_MS + LATENESS_MS;
            // Past the lap end the next lap's traffic closes the window;
            // its running maximum restarts from the previous lap's
            // maximum, which is below `span`, so the same table applies.
            let (target, laps_ahead) = if target < span { (target, 0) } else { (target - span, 1) };
            let unit = unit_max.partition_point(|&max| max < target);
            (unit < unit_max.len()).then_some(Closing { unit, window, laps_ahead })
        })
        .collect();
    closings.sort_by_key(|c| c.unit);
    (unit_records, closings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start_rel_ms: u64) -> FlowRecord {
        FlowRecord { start_ms: T0_SECS * 1_000 + start_rel_ms, ..FlowRecord::default() }
    }

    #[test]
    fn closing_unit_is_first_to_reach_window_end_plus_lateness() {
        // Two windows, 90 records: one per second from 0 s to 89 s, then
        // 31 more at 119 s. Units of 30 end at 29 s, 59 s, 89 s, 119 s, 119 s.
        let mut records: Vec<FlowRecord> = (0..90).map(|s| rec(s * 1_000)).collect();
        records.extend((0..31).map(|_| rec(119_000)));
        let (units, closings) = units_and_closings(&records, 2);
        assert_eq!(units, vec![30, 30, 30, 30, 1]);
        // Window 0 ends at 60 s; +30 s lateness = 90 s, first reached by
        // unit 3 (max 119 s). Window 1 ends at 120 s; +30 s = 150 s is
        // past the 120 s lap, so the next lap closes it once its own
        // running maximum reaches 30 s: unit 1 (max 59 s).
        assert_eq!(
            closings,
            vec![
                Closing { unit: 1, window: 1, laps_ahead: 1 },
                Closing { unit: 3, window: 0, laps_ahead: 0 },
            ]
        );
    }

    #[test]
    fn corpora_are_seed_deterministic_and_sized_alike() {
        for workload in Workload::ALL {
            let a = build(workload, 7, 0.02);
            let b = build(workload, 7, 0.02);
            let c = build(workload, 8, 0.02);
            assert_eq!(a.records, b.records, "{}", workload.name());
            assert_eq!(a.unit_records, b.unit_records);
            assert_eq!(a.closings, b.closings);
            assert_eq!(a.designed_late, b.designed_late);
            let drift = (a.records as f64 - c.records as f64).abs() / a.records as f64;
            assert!(drift < 0.05, "{}: seeds differ {drift} in size", workload.name());
            assert_eq!(a.unit_records.iter().map(|&n| n as u64).sum::<u64>(), a.records);
        }
    }

    #[test]
    fn out_of_order_lap_is_self_contained_and_designs_about_one_percent_late() {
        let corpus = build(Workload::RecordsOooEnsemble, 3, 0.05);
        let Payload::Records(records) = &corpus.payload else { panic!("records payload") };
        let share = corpus.designed_late as f64 / records.len() as f64;
        assert!((0.005..0.015).contains(&share), "late share {share}");
        // Jitter alone never lets a record fall behind the watermark.
        let mut max = 0u64;
        let mut behind = 0u64;
        for record in records {
            max = max.max(record.start_ms);
            if record.start_ms + LATENESS_MS <= max {
                behind += 1;
            }
        }
        assert_eq!(behind, corpus.designed_late, "only the designed-late records are late");
    }
}
