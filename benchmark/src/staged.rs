//! The staged single-thread driver: the same inputs through the same
//! stages in the same order as the threaded pipeline, but as plain
//! calls on one thread with a span around each call batch.
//!
//! It is three things at once: the source of the per-layer numbers
//! (self time per layer, adding up to the wall time), the
//! single-threaded baseline for `throughput_rps`, and the correctness
//! reference the threaded pipeline's reports are compared against.

use std::time::Instant;

use crate::adapter::{self, ClosedWindow, Detectors, FlowRecord, Staged, StreamReport};
use crate::adapter::{LATENESS_MS, V5_UNIX_SECS};
use crate::corpus::{Corpus, Payload, T0_SECS};
use crate::drive::Until;
use crate::trace::{Span, Tracer};

/// Units replayed, decoded and routed per span: 128 packets, 3 840
/// records. Apply and close spans are cut at the pipeline's watermark
/// cadence instead (every 256 records), because a shard must see
/// records and watermarks in the pipeline's order to drop the same
/// late records.
const BATCH_UNITS: usize = 128;

/// What the staged run produced.
pub struct Outcome {
    /// Laps replayed.
    pub laps: u64,
    /// Records pushed.
    pub records: u64,
    /// Wall time of the whole staged loop.
    pub wall_s: f64,
    /// Every report, in emission order.
    pub reports: Vec<StreamReport>,
    /// Windows fed to the detector bank.
    pub windows: u64,
    /// Windows the bank flagged.
    pub alarmed_windows: u64,
    /// Records dropped behind the watermark.
    pub late_dropped: u64,
    /// Packets that failed to decode.
    pub decode_failures: u64,
    /// Candidate flows encoded over all alarms.
    pub candidate_flows: u64,
    /// (total ns, calls) inside the extractor's encode step.
    pub encode_ns: (u64, u64),
    /// (total ns, calls) inside the extractor's mining step.
    pub mine_ns: (u64, u64),
    /// Fresh-dictionary encode cost on the first alarm, ns per flow.
    pub encode_first_ns_per_flow: Option<f64>,
    /// The spans around every call batch.
    pub spans: Vec<Span>,
}

struct Run<'a> {
    staged: Staged,
    out: &'a mut Outcome,
    /// The ingest side's running maximum start time.
    max_event_ms: u64,
    /// Records between watermark broadcasts, and how many have passed
    /// since the last one (the ingest side's cadence, replicated).
    watermark_every: usize,
    since_watermark: usize,
}

impl Run<'_> {
    fn process(&mut self, tracer: &mut Tracer, lap: u64, windows: Vec<ClosedWindow>) {
        for window in windows {
            self.out.windows += 1;
            let alarms = tracer.span("detect.push", lap, |_| self.staged.detect(&window));
            let name = if alarms.is_empty() {
                "report.retain"
            } else {
                self.out.alarmed_windows += 1;
                if self.out.encode_first_ns_per_flow.is_none() {
                    self.out.encode_first_ns_per_flow =
                        tracer.span("core.encode_first", lap, |_| {
                            self.staged.encode_first_ns_per_flow(&window, &alarms)
                        });
                }
                "report.extract"
            };
            let reports = tracer.span(name, lap, |_| self.staged.extract(window, &alarms));
            tracer.span("report.serialize", lap, |_| {
                for report in &reports {
                    std::hint::black_box(adapter::serialize_report(report));
                }
            });
            self.out.candidate_flows +=
                reports.iter().map(|r| adapter::report_candidates(r) as u64).sum::<u64>();
            self.out.reports.extend(reports);
        }
    }
}

/// Replay `corpus` through the stages, whole laps at a time.
pub fn run(corpus: &mut Corpus, detectors: Detectors, until: Until) -> Outcome {
    let config = adapter::stream_config(detectors, false);
    let mut out = Outcome {
        laps: 0,
        records: 0,
        wall_s: 0.0,
        reports: Vec::new(),
        windows: 0,
        alarmed_windows: 0,
        late_dropped: 0,
        decode_failures: 0,
        candidate_flows: 0,
        encode_ns: (0, 0),
        mine_ns: (0, 0),
        encode_first_ns_per_flow: None,
        spans: Vec::new(),
    };
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let mut run = Run {
        staged: Staged::new(&config),
        out: &mut out,
        max_event_ms: 0,
        watermark_every: config.watermark_every.max(1),
        since_watermark: 0,
    };
    tracer.span("staged", 0, |tracer| {
        loop {
            let lap = run.out.laps;
            replay_lap(corpus, &mut run, tracer, lap);
            run.out.laps += 1;
            if until.reached(run.out.laps, start.elapsed().as_secs_f64()) {
                break;
            }
        }
        let lap = run.out.laps - 1;
        let flushed = tracer.span("window.close", lap, |_| {
            (0..run.staged.shards()).map(|shard| run.staged.flush(shard)).collect::<Vec<_>>()
        });
        let windows = tracer.span("window.merge", lap, |_| run.staged.merge(flushed));
        run.process(tracer, lap, windows);
    });
    let Run { staged, .. } = run;
    out.wall_s = start.elapsed().as_secs_f64();
    out.late_dropped = staged.late_dropped();
    out.encode_ns = staged.encode_ns();
    out.mine_ns = staged.mine_ns();
    out.spans = tracer.into_spans();
    out
}

fn replay_lap(corpus: &mut Corpus, run: &mut Run<'_>, tracer: &mut Tracer, lap: u64) {
    let shift_ms = lap * corpus.span_ms();
    let unix_secs = ((T0_SECS + shift_ms / 1_000) as u32).to_be_bytes();
    let mut records: Vec<FlowRecord> = Vec::with_capacity(BATCH_UNITS * adapter::V5_RECORDS);
    let mut routes: Vec<usize> = Vec::with_capacity(records.capacity());
    // (records of the batch applied before it, watermark): where the
    // ingest side would broadcast a watermark, and its value.
    let mut marks: Vec<(usize, u64)> = Vec::new();
    for batch_start in (0..corpus.units()).step_by(BATCH_UNITS) {
        let batch = batch_start..(batch_start + BATCH_UNITS).min(corpus.units());
        match &mut corpus.payload {
            Payload::Wire(packets) => {
                tracer.span("gen.replay", lap, |_| {
                    for packet in &mut packets[batch.clone()] {
                        packet[V5_UNIX_SECS].copy_from_slice(&unix_secs);
                    }
                });
                tracer.span("flow.v5_decode", lap, |_| {
                    for packet in &packets[batch.clone()] {
                        match adapter::decode_v5(packet) {
                            Some(decoded) => records.extend(decoded),
                            None => run.out.decode_failures += 1,
                        }
                    }
                });
            }
            Payload::Records(all) => {
                tracer.span("gen.replay", lap, |_| {
                    let from = batch.start * adapter::V5_RECORDS;
                    let len: usize =
                        corpus.unit_records[batch.clone()].iter().map(|&n| n as usize).sum();
                    records.extend(
                        all[from..from + len].iter().map(|r| adapter::shifted(r, shift_ms)),
                    );
                });
            }
        }
        run.out.records += records.len() as u64;
        tracer.span("ingest.route", lap, |_| {
            for (i, record) in records.iter().enumerate() {
                run.max_event_ms = run.max_event_ms.max(record.start_ms);
                routes.push(run.staged.route(record));
                run.since_watermark += 1;
                if run.since_watermark == run.watermark_every {
                    run.since_watermark = 0;
                    marks.push((i + 1, run.max_event_ms.saturating_sub(LATENESS_MS)));
                }
            }
        });
        // Apply up to each watermark, then close on it: the order every
        // shard sees on its ring, so late drops fall exactly as they do
        // in the threaded pipeline.
        let mut applied = 0usize;
        let mut pairs = records.drain(..).zip(routes.drain(..));
        let mut marks = marks.drain(..);
        loop {
            let mark = marks.next();
            let take = mark.map_or(usize::MAX, |(upto, _)| upto - applied);
            tracer.span("window.apply", lap, |_| {
                for (record, shard) in pairs.by_ref().take(take) {
                    run.staged.apply(shard, record);
                }
            });
            let Some((upto, watermark)) = mark else { break };
            applied = upto;
            let closed = tracer.span("window.close", lap, |_| {
                (0..run.staged.shards())
                    .map(|shard| run.staged.close(shard, watermark))
                    .filter(|report| report.advanced)
                    .collect::<Vec<_>>()
            });
            if !closed.is_empty() {
                let windows = tracer.span("window.merge", lap, |_| run.staged.merge(closed));
                run.process(tracer, lap, windows);
            }
        }
    }
}
