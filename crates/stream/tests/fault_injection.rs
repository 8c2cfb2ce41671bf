//! Chaos suite: deterministic fault injection through the full
//! pipeline (`--features fault-inject`).
//!
//! Every scenario here replays a fixed corpus against an armed
//! [`FaultPlan`] and asserts four things the supervision layer
//! promises:
//!
//! 1. **bounded-time completion** — a faulted run finishes; it never
//!    hangs (each run executes under a watchdog deadline);
//! 2. **exact accounting** — caught panics, restarts, failovers, shed
//!    records and quarantined windows land on the `fault.*` /
//!    `degraded.*` counters with the exact planned counts;
//! 3. **no deadlock behind the window-bounded control channel** — a
//!    fault that strikes while that channel is full still terminates;
//! 4. **fault-free transparency** — with the feature compiled in but
//!    nothing armed, output stays bit-identical across every
//!    (telemetry × detector_workers × extraction_workers) mode.

#![cfg(feature = "fault-inject")]

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use anomex_detect::kl::KlConfig;
use anomex_detect::pca::PcaConfig;
use anomex_flow::prelude::*;
use anomex_gen::prelude::*;
use anomex_stream::prelude::*;

const WIDTH_MS: u64 = 60_000;
const WINDOWS: u64 = 8;
/// Watchdog per faulted run: generous next to the worst case (a few
/// restart backoffs at ≤160ms each) but far below any CI timeout.
const DEADLINE: Duration = Duration::from_secs(120);

/// A GEANT-like corpus: 8 minutes of background with a port scan in
/// the 7th minute, sorted by start time.
fn corpus() -> (Vec<FlowRecord>, TimeRange) {
    let mut spec = AnomalySpec::template(
        AnomalyKind::PortScan,
        "10.3.0.99".parse().unwrap(),
        "172.16.5.5".parse().unwrap(),
    );
    spec.flows = 2_000;
    spec.start_ms = 6 * WIDTH_MS;
    spec.duration_ms = WIDTH_MS;
    let mut scenario = Scenario::new("chaos", 0xC4A05, Backbone::Geant).with_anomaly(spec);
    scenario.background.flows = 4_000;
    scenario.background.duration_ms = WINDOWS * WIDTH_MS;
    let built = scenario.build();
    let mut records = built.store.snapshot();
    records.sort_by_key(|r| r.start_ms);
    (records, scenario.window())
}

/// A two-detector config so `detector_workers: 2` is a real fan-out
/// (the pool clamps workers to the detector count).
fn config(
    span: TimeRange,
    detector_workers: usize,
    extraction_workers: usize,
    telemetry: bool,
    faults: FaultPlan,
) -> StreamConfig {
    let kl = KlConfig { interval_ms: WIDTH_MS, ..KlConfig::default() };
    let pca = PcaConfig { interval_ms: WIDTH_MS, ..PcaConfig::default() };
    StreamConfig {
        shards: 2,
        span: Some(span),
        detectors: DetectorRegistry::from_specs(&[
            DetectorSpec::Kl(kl),
            DetectorSpec::Pca(pca, 12),
        ]),
        detector_workers,
        extraction_workers,
        metrics: MetricsConfig { enabled: telemetry, ..MetricsConfig::default() },
        faults,
        ..StreamConfig::default()
    }
}

/// Run one pipeline to completion under a watchdog: panics if the
/// faulted run fails to finish inside `DEADLINE` (a hang is exactly
/// the regression this suite exists to catch).
fn run_bounded(config: StreamConfig, records: Vec<FlowRecord>) -> (StreamStats, Vec<StreamReport>) {
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let (mut ingest, reports) = launch(config);
        ingest.push_batch(records);
        let stats = ingest.finish();
        let received: Vec<StreamReport> = reports.iter().collect();
        let _ = tx.send((stats, received));
    });
    let out = rx.recv_timeout(DEADLINE).expect("faulted pipeline must finish in bounded time");
    runner.join().expect("runner thread");
    out
}

#[test]
fn fault_free_runs_stay_bit_identical_with_injection_compiled_in() {
    // The compiled-in (but unarmed) injection points must be pure
    // no-ops: same reports, same stats, in every mode — the same
    // invariant `stream_equivalence.rs` pins for the default build.
    let (records, span) = corpus();
    let baseline = run_bounded(config(span, 0, 0, false, FaultPlan::new()), records.clone());
    assert!(baseline.0.health.healthy(), "clean run must report a clean bill of health");
    assert!(baseline.0.alarms >= 1, "corpus must trip the ensemble");
    for (telemetry, detector_workers, extraction_workers) in
        [(true, 0, 0), (true, 2, 0), (false, 0, 1), (true, 2, 1)]
    {
        let (stats, received) = run_bounded(
            config(span, detector_workers, extraction_workers, telemetry, FaultPlan::new()),
            records.clone(),
        );
        assert_eq!(
            stats, baseline.0,
            "telemetry={telemetry} detector_workers={detector_workers} \
             extraction_workers={extraction_workers} changed the statistics"
        );
        assert_eq!(
            received, baseline.1,
            "telemetry={telemetry} detector_workers={detector_workers} \
             extraction_workers={extraction_workers} changed a report"
        );
    }
}

#[test]
fn seeded_chaos_plans_complete_with_consistent_accounting() {
    // Many distinct (but fully reproducible) failure schedules through
    // the same corpus: whatever the seed arms, the run must terminate
    // and its health read-back must agree with the in-band reports.
    let (records, span) = corpus();
    for seed in 0..8u64 {
        let plan = FaultPlan::seeded(seed, 2, 2);
        let (stats, received) = run_bounded(config(span, 2, 1, true, plan), records.clone());
        assert!(stats.windows <= WINDOWS, "seed {seed}: window accounting overran the span");
        let terminal = received.iter().filter(|r| r.as_fault().is_some_and(|f| f.terminal)).count();
        if stats.health.shard_deaths > 0 {
            assert_eq!(terminal, 1, "seed {seed}: shard death must end in ONE terminal notice");
            assert!(
                received.last().expect("terminal notice delivered").is_fault(),
                "seed {seed}: the terminal notice must be the run's last report"
            );
        } else {
            assert_eq!(terminal, 0, "seed {seed}: no shard died, nothing may be terminal");
            assert_eq!(stats.windows, WINDOWS, "seed {seed}: surviving runs close every window");
        }
        assert_eq!(
            stats.health.quarantined_windows,
            received.iter().filter(|r| r.as_fault().is_some_and(|f| !f.terminal)).count() as u64,
            "seed {seed}: quarantine counter must match the in-band notices"
        );
    }
}

#[test]
fn shard_death_ends_the_run_with_a_terminal_fault_notice() {
    let (records, span) = corpus();
    let plan = FaultPlan::new().once(FaultSite::ShardPanic(1), 1);
    let (stats, received) = run_bounded(config(span, 0, 0, true, plan), records);
    assert_eq!(stats.health.shard_deaths, 1);
    assert!(stats.health.worker_panics >= 1);
    let last = received.last().expect("the terminal notice is delivered");
    let notice = last.as_fault().expect("the last report must be the fault notice");
    assert_eq!(notice.kind, FaultKind::ShardDead);
    assert!(notice.terminal);
    assert_eq!(
        received.iter().filter(|r| r.is_fault()).count(),
        1,
        "exactly one notice for one dead shard"
    );
}

#[test]
fn shard_death_and_quarantine_terminate_behind_a_full_control_channel() {
    // A storm: every window alarms and the control thread is the slow
    // stage, so the window-bounded control channel and extraction queue
    // stay full and every shard spends the run blocked on the hand-off.
    // A shard that dies there (its fault message queues behind the
    // backlog) and a window quarantined while later ones wait behind it
    // must still end the run, in order, with exact accounting.
    struct SlowAlwaysAlarm(u64);
    impl anomex_detect::detector::Detector for SlowAlwaysAlarm {
        fn name(&self) -> &str {
            "always"
        }
        fn interval_ms(&self) -> u64 {
            WIDTH_MS
        }
        fn push(
            &mut self,
            stat: &anomex_detect::interval::IntervalStat,
        ) -> Vec<anomex_detect::alarm::Alarm> {
            thread::sleep(Duration::from_millis(3));
            self.0 += 1;
            vec![anomex_detect::alarm::Alarm::new(self.0, "always", stat.range)]
        }
    }
    const STORM_WINDOWS: u64 = 40;
    let records: Vec<FlowRecord> = (0..STORM_WINDOWS * 400)
        .map(|i| {
            FlowRecord::builder()
                .time(i * (WIDTH_MS / 400), i * (WIDTH_MS / 400) + 1)
                .src("10.3.0.99".parse().unwrap(), 1_024 + (i % 97) as u16)
                .dst("172.16.5.5".parse().unwrap(), (i % 400) as u16)
                .volume(1, 44)
                .build()
        })
        .collect();
    let mut detectors = DetectorRegistry::new();
    detectors.register("always", WIDTH_MS, || Box::new(SlowAlwaysAlarm(0)));
    // Extraction attempts 5 and 6 are window 4's first try and its
    // retry: two strikes, quarantined. Shard 1 dies at its 12th batch,
    // mid-storm.
    let plan = FaultPlan::new()
        .once(FaultSite::ExtractPanic, 5)
        .once(FaultSite::ExtractPanic, 6)
        .once(FaultSite::ShardPanic(1), 12);
    let config = StreamConfig {
        shards: 2,
        span: Some(TimeRange::new(0, STORM_WINDOWS * WIDTH_MS)),
        detectors,
        extraction_workers: 1,
        faults: plan,
        ..StreamConfig::default()
    };
    let (stats, received) = run_bounded(config, records);

    assert_eq!(stats.health.shard_deaths, 1);
    assert_eq!(stats.health.quarantined_windows, 1);
    assert_eq!(stats.health.worker_panics, 3, "two extraction panics and the shard");
    assert_eq!(stats.health.extraction_restarts, 2);
    assert_eq!(stats.health.extraction_failovers, 0);
    assert_eq!(stats.windows, STORM_WINDOWS, "the surviving shard still closes every window");
    assert_eq!(stats.alarms, STORM_WINDOWS);
    assert_eq!(stats.reports_dropped, 0);
    // One report per window — its alarm, or window 4's quarantine
    // notice in its place — then the terminal notice, last.
    assert_eq!(received.len() as u64, STORM_WINDOWS + 1);
    assert_eq!(stats.reports, STORM_WINDOWS + 1);
    for (index, report) in received[..STORM_WINDOWS as usize].iter().enumerate() {
        let from_ms = index as u64 * WIDTH_MS;
        match report {
            StreamReport::Alarm(alarm) => assert_eq!(alarm.alarm.window.from_ms, from_ms),
            StreamReport::Fault(notice) => {
                assert_eq!(index, 4, "only window 4 is quarantined");
                assert_eq!(notice.kind, FaultKind::WindowQuarantined);
                assert_eq!(notice.window.map(|w| w.from_ms), Some(from_ms));
            }
        }
    }
    assert!(received[4].is_fault());
    let last = received.last().and_then(StreamReport::as_fault).expect("terminal notice is last");
    assert_eq!(last.kind, FaultKind::ShardDead);
    assert!(last.terminal);
}

#[test]
fn forced_ring_full_sheds_with_exact_per_shard_accounting() {
    // One shard, one record per flush, every flush forced full: under
    // OverloadPolicy::Shed every record must be shed — and counted,
    // exactly, on the global and the per-shard counter.
    let n = 50u64;
    let records: Vec<FlowRecord> = (0..n)
        .map(|i| {
            FlowRecord::builder()
                .time(i * 1_000, i * 1_000 + 10)
                .src("10.0.0.1".parse().unwrap(), 1_234)
                .dst("172.16.0.1".parse().unwrap(), 80)
                .volume(1, 100)
                .build()
        })
        .collect();
    let kl = KlConfig { interval_ms: WIDTH_MS, ..KlConfig::default() };
    let config = StreamConfig {
        shards: 1,
        ingest_batch: 1,
        span: Some(TimeRange::new(0, WIDTH_MS)),
        detectors: DetectorRegistry::kl(kl),
        overload: OverloadPolicy::Shed { max_queue_delay: Duration::ZERO },
        faults: FaultPlan::new().repeat_from(FaultSite::RingFull(0), 1),
        ..StreamConfig::default()
    };
    let (stats, received) = run_bounded(config, records);
    assert_eq!(stats.ingested, n);
    assert_eq!(stats.health.shed_records, n, "every record was shed");
    assert_eq!(stats.health.per_shard_shed, vec![ShardShed { shard: 0, records: n }]);
    assert!(received.is_empty(), "no record reached a detector, so nothing may report");
}

/// `n` one-packet records one millisecond apart from t = 0, all in the
/// first 60 s window.
fn probes(n: u64) -> Vec<FlowRecord> {
    (0..n)
        .map(|i| {
            FlowRecord::builder()
                .time(i, i + 10)
                .src("10.0.0.1".parse().unwrap(), 1_234)
                .dst("172.16.0.1".parse().unwrap(), 80)
                .volume(1, 100)
                .build()
        })
        .collect()
}

/// One shard over one 60 s window, KL only, 512-record chunks.
fn one_shard_config(faults: FaultPlan) -> StreamConfig {
    let kl = KlConfig { interval_ms: WIDTH_MS, ..KlConfig::default() };
    StreamConfig {
        shards: 1,
        ingest_batch: 512,
        span: Some(TimeRange::new(0, WIDTH_MS)),
        detectors: DetectorRegistry::kl(kl),
        faults,
        ..StreamConfig::default()
    }
}

#[test]
fn ring_full_on_a_full_chunk_sheds_exactly_that_chunk() {
    // The first ring message to shard 0 is the first full chunk (no
    // watermark closes the only window before the end): an injected
    // RingFull on it sheds its 512 records — no more, no fewer — on the
    // global and the per-shard counter, and the second chunk lands.
    let config = one_shard_config(FaultPlan::new().once(FaultSite::RingFull(0), 1));
    let (stats, _received) = run_bounded(config, probes(1_024));
    assert_eq!(stats.ingested, 1_024);
    assert_eq!(stats.health.shed_records, 512);
    assert_eq!(stats.health.per_shard_shed, vec![ShardShed { shard: 0, records: 512 }]);
    assert_eq!(stats.send_failures, 0);
    assert_eq!(stats.windows, 1);
}

#[test]
fn a_dead_shards_chunk_lands_on_send_failures_exactly() {
    // Shard 0 dies on its first drained batch. Full chunks keep coming;
    // once the dead worker's ring disconnects, the first chunk that
    // fails to send counts its 512 records on `send_failures`, exactly.
    let config = one_shard_config(FaultPlan::new().once(FaultSite::ShardPanic(0), 1));
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let (mut ingest, reports) = launch(config);
        let chunk = probes(512);
        let mut chunks = 0u64;
        while ingest.send_failures() == 0 {
            assert!(chunks < 10_000, "the dead shard's ring never disconnected");
            ingest.push_batch(chunk.iter().cloned());
            chunks += 1;
            thread::sleep(Duration::from_millis(1));
        }
        let lost = ingest.send_failures();
        let stats = ingest.finish();
        let _ = tx.send((lost, stats, reports.iter().count()));
    });
    let (lost, stats, reports) =
        rx.recv_timeout(DEADLINE).expect("faulted pipeline must finish in bounded time");
    runner.join().expect("runner thread");
    assert_eq!(lost, 512, "one failed send loses one whole chunk");
    assert_eq!(stats.send_failures, 512);
    assert_eq!(stats.health.shard_deaths, 1);
    assert_eq!(stats.health.shed_records, 0);
    assert_eq!(reports, 1, "the run ends with its terminal fault notice");
}

#[test]
fn shed_policy_with_generous_deadline_matches_backpressure() {
    // An un-saturated ring never hits the deadline, so Shed must be
    // byte-for-byte equivalent to Backpressure on the same corpus.
    let (records, span) = corpus();
    let backpressure = run_bounded(config(span, 0, 0, true, FaultPlan::new()), records.clone());
    let mut shed_config = config(span, 0, 0, true, FaultPlan::new());
    shed_config.overload = OverloadPolicy::Shed { max_queue_delay: Duration::from_secs(5) };
    let shed = run_bounded(shed_config, records);
    assert_eq!(shed.0, backpressure.0, "shed policy leaked into the statistics");
    assert_eq!(shed.1, backpressure.1, "shed policy changed a report");
    assert_eq!(shed.0.health.shed_records, 0);
}

#[test]
fn single_worker_panics_recover_at_every_task_index() {
    // Sweep the panic over every dispatch index and both pool kinds
    // (the deterministic stand-in for "panic each pool at a random
    // task"): one caught panic, one restart, zero failovers, zero
    // quarantines — and detection still closes every window.
    let (records, span) = corpus();
    for at in 1..=WINDOWS {
        for worker in 0..2usize {
            let plan = FaultPlan::new().once(FaultSite::DetectorPanic(worker), at);
            let (stats, received) = run_bounded(config(span, 2, 0, true, plan), records.clone());
            assert_eq!(stats.windows, WINDOWS, "at={at} worker={worker}");
            assert_eq!(stats.health.worker_panics, 1, "at={at} worker={worker}");
            assert_eq!(stats.health.detector_restarts, 1, "at={at} worker={worker}");
            assert_eq!(stats.health.detector_failovers, 0, "at={at} worker={worker}");
            assert!(received.iter().all(|r| !r.is_fault()), "at={at} worker={worker}");
        }
        let plan = FaultPlan::new().once(FaultSite::ExtractPanic, at);
        let (stats, received) = run_bounded(config(span, 0, 1, true, plan), records.clone());
        assert_eq!(stats.windows, WINDOWS, "extract at={at}");
        assert_eq!(stats.health.worker_panics, 1, "extract at={at}");
        assert_eq!(stats.health.extraction_restarts, 1, "extract at={at}");
        assert_eq!(stats.health.quarantined_windows, 0, "one panic retries, never quarantines");
        assert!(received.iter().all(|r| !r.is_fault()), "extract at={at}");
    }
}

#[test]
fn repeated_extraction_panics_quarantine_every_window_without_hanging() {
    // Extraction is deterministically broken for the whole run: every
    // window must come back as a non-terminal quarantine notice (in
    // window order, after bounded retries and the pool's failover to
    // the equally-broken inline path) — never a hang, never silence.
    let (records, span) = corpus();
    let plan = FaultPlan::new().repeat_from(FaultSite::ExtractPanic, 1);
    let (stats, received) = run_bounded(config(span, 0, 1, true, plan), records);
    assert_eq!(stats.windows, WINDOWS, "detection is untouched by extraction faults");
    assert_eq!(stats.health.quarantined_windows, WINDOWS);
    assert_eq!(received.len(), WINDOWS as usize);
    for report in &received {
        let notice = report.as_fault().expect("every window quarantined");
        assert_eq!(notice.kind, FaultKind::WindowQuarantined);
        assert!(!notice.terminal, "quarantine degrades, it does not end the stream");
        assert!(notice.window.is_some(), "quarantine is scoped to its window");
    }
}

#[test]
fn forced_decode_error_is_counted_not_fatal() {
    let (records, span) = corpus();
    let packets = anomex_flow::v5::encode_all(&records, anomex_flow::v5::ExportBase::epoch(), 0)
        .expect("encode v5 stream");
    assert!(packets.len() >= 3, "corpus must span several packets");
    let plan = FaultPlan::new().once(FaultSite::DecodeError, 2);
    let (mut ingest, reports) = launch(config(span, 0, 0, true, plan));
    let mut decoded = 0u64;
    let mut failed = 0u64;
    for packet in &packets {
        match ingest.push_v5(packet) {
            Ok(n) => decoded += n as u64,
            Err(_) => failed += 1,
        }
    }
    assert_eq!(failed, 1, "exactly the armed packet fails");
    let stats = ingest.finish();
    assert_eq!(stats.decode_errors, 1);
    assert_eq!(stats.ingested, decoded);
    assert!(stats.health.healthy(), "a decode error degrades nothing downstream");
    drop(reports);
}

#[test]
fn late_arrival_flood_is_dropped_and_accounted_not_fatal() {
    // Jump the handle's event-time frontier 30 minutes forward mid
    // corpus: everything older now floods in behind the watermark and
    // must be dropped *and counted* while the pipeline stays healthy.
    let (records, span) = corpus();
    let plan = FaultPlan::new().late_flood(1_000, 30 * WIDTH_MS);
    let (stats, _received) = run_bounded(config(span, 0, 0, true, plan), records);
    assert!(stats.late_dropped > 0, "the flood must actually strand records");
    assert!(stats.health.healthy(), "late drops are ingest accounting, not degradation");
    assert!(stats.windows <= WINDOWS);
}
