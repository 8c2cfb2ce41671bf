//! The correctness gate: the threaded pipeline must report what the
//! staged reference reports for the same input, find every injected
//! anomaly, and lose nothing it was not designed to lose.

use crate::adapter::{self, StreamReport, WINDOW_MS};
use crate::corpus::{first_window, Corpus, Workload, T0_SECS};
use crate::{drive, staged};

/// Leading windows in which detectors are still training and an
/// injected anomaly is not expected to alarm (KL trains on 3 windows,
/// the entropy-PCA detector needs 8).
const TRAINING_WINDOWS: u64 = 8;

/// The gate's findings for one threaded run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Mismatches against the reference or the design; empty = correct.
    pub mismatches: Vec<String>,
    /// Operations attempted: records pushed plus reports expected.
    pub attempted: u64,
    /// Operations that failed (see `failed_ops` in the README).
    pub failed: u64,
}

impl Verdict {
    fn mismatch(&mut self, message: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(message);
        }
    }
}

fn lap_window(report: &StreamReport) -> Option<u64> {
    adapter::report_window_ms(report).map(|from_ms| from_ms / WINDOW_MS - first_window())
}

/// Judge `threaded` against `reference`, a staged run of the same corpus
/// over the first `reference.laps` laps (all of them in traced runs).
pub fn judge(
    workload: Workload,
    corpus: &Corpus,
    threaded: &drive::Outcome,
    reference: &staged::Outcome,
) -> Verdict {
    let mut verdict = Verdict::default();
    let stats = &threaded.stats;
    let whole_run = reference.laps == threaded.laps;

    // Reports over the reference's windows must be identical.
    let horizon = reference.laps * corpus.windows;
    let ours: Vec<StreamReport> = threaded
        .reports
        .iter()
        .filter(|(_, r)| lap_window(r).is_none_or(|w| w < horizon))
        .map(|(_, r)| adapter::normalized(r))
        .collect();
    let theirs: Vec<StreamReport> = reference.reports.iter().map(adapter::normalized).collect();
    if ours.len() != theirs.len() {
        verdict.mismatch(format!(
            "{} reports over the first {} laps, the staged reference has {}",
            ours.len(),
            reference.laps,
            theirs.len()
        ));
    }
    for (a, b) in ours.iter().zip(&theirs) {
        if a != b {
            verdict.mismatch(format!(
                "report for window {:?} differs from the staged reference (window {:?})",
                lap_window(a),
                lap_window(b)
            ));
        }
    }

    // Counts: exact against the reference where it covers the run,
    // exact against the design everywhere.
    let laps = threaded.laps;
    if stats.windows != laps * corpus.windows {
        verdict.mismatch(format!("{} windows, expected {}", stats.windows, laps * corpus.windows));
    }
    if whole_run {
        for (what, got, want) in [
            ("windows", stats.windows, reference.windows),
            ("alarms", stats.alarms, reference.alarmed_windows),
            ("late drops", stats.late_dropped, reference.late_dropped),
        ] {
            if got != want {
                verdict.mismatch(format!("{got} {what}, the staged reference has {want}"));
            }
        }
    }
    if reference.late_dropped != reference.laps * corpus.designed_late {
        verdict.mismatch(format!(
            "staged reference dropped {} late records, the corpus designs {} per lap",
            reference.late_dropped, corpus.designed_late
        ));
    }
    if reference.decode_failures != 0 {
        verdict.mismatch(format!(
            "the staged reference could not decode {} of the benchmark's own packets",
            reference.decode_failures
        ));
    }
    if workload == Workload::WireQuiet && stats.alarms != 0 {
        verdict.mismatch(format!("{} alarms on the quiet corpus", stats.alarms));
    }

    // Every lap's injected anomaly is explained by an itemset.
    let mut unexplained = 0u64;
    let mut by_window: Vec<Option<&StreamReport>> = vec![None; (laps * corpus.windows) as usize];
    for (_, report) in &threaded.reports {
        if let Some(slot) = lap_window(report).and_then(|w| by_window.get_mut(w as usize)) {
            *slot = Some(report);
        }
    }
    for lap in 0..laps {
        for spec in &corpus.anomalies {
            let window = lap * corpus.windows + (spec.start_ms - T0_SECS * 1_000) / WINDOW_MS;
            if window < TRAINING_WINDOWS {
                continue;
            }
            let signature = adapter::signature(spec);
            if !by_window[window as usize].is_some_and(|r| adapter::report_explains(r, &signature))
            {
                unexplained += 1;
                verdict.mismatch(format!(
                    "lap {lap}: no itemset of window {window} contains the {} signature",
                    spec.kind
                ));
            }
        }
    }

    let designed_late = laps * corpus.designed_late;
    let delivered = threaded.reports.iter().filter(|(_, r)| !r.is_fault()).count() as u64;
    let faults = threaded.reports.len() as u64 - delivered;
    // A dropped or quarantined report is an alarm that was not
    // delivered, so those counters are not added on top.
    verdict.failed = stats.decode_errors
        + stats.send_failures
        + stats.health.shed_records
        + stats.out_of_span
        + stats.late_dropped.abs_diff(designed_late)
        + stats.alarms.saturating_sub(delivered)
        + faults
        + unexplained;
    verdict.attempted = threaded.records + stats.alarms;
    if stats.ingested != threaded.records {
        verdict.mismatch(format!(
            "{} records ingested of {} pushed",
            stats.ingested, threaded.records
        ));
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use crate::drive::{Plan, Until};

    fn threaded_and_reference(
        workload: Workload,
        scale: f64,
    ) -> (Corpus, drive::Outcome, staged::Outcome) {
        let mut corpus = corpus::build(workload, 5, scale);
        let plan =
            Plan { until: Until::Laps(2), paced_rps: None, telemetry: false, time_push: false };
        let threaded = drive::run(&mut corpus, workload.detectors(), plan);
        let reference = staged::run(&mut corpus, workload.detectors(), Until::Laps(2));
        (corpus, threaded, reference)
    }

    #[test]
    fn threaded_pipeline_matches_the_staged_reference_on_every_workload() {
        for (workload, scale) in [
            (Workload::WireQuiet, 0.05),
            (Workload::WireAlarmStorm, 0.25),
            // Sparse traffic carries watermarks too rarely for the
            // designed-late records to be late; keep this one denser.
            (Workload::RecordsOooEnsemble, 0.2),
        ] {
            let (corpus, threaded, reference) = threaded_and_reference(workload, scale);
            let verdict = judge(workload, &corpus, &threaded, &reference);
            assert!(verdict.mismatches.is_empty(), "{}: {:?}", workload.name(), verdict.mismatches);
            assert_eq!(verdict.failed, 0, "{}", workload.name());
            assert_eq!(verdict.attempted, threaded.records + threaded.stats.alarms);
        }
    }

    #[test]
    fn gate_notices_a_lost_report_and_an_unexplained_anomaly() {
        let workload = Workload::WireAlarmStorm;
        let (corpus, mut threaded, reference) = threaded_and_reference(workload, 0.25);
        assert!(threaded.reports.len() > 10, "the storm corpus must alarm");
        // Lose the report of the last scanned window.
        let scanned = corpus.anomalies.last().unwrap();
        let window = corpus.windows + (scanned.start_ms - T0_SECS * 1_000) / WINDOW_MS;
        let before = threaded.reports.len();
        threaded.reports.retain(|(_, r)| lap_window(r) != Some(window));
        assert_eq!(threaded.reports.len(), before - 1);
        let verdict = judge(workload, &corpus, &threaded, &reference);
        assert!(
            verdict.mismatches.iter().any(|m| m.contains("staged reference has")),
            "{:?}",
            verdict.mismatches
        );
        assert!(
            verdict.mismatches.iter().any(|m| m.contains("signature")),
            "{:?}",
            verdict.mismatches
        );
        assert_eq!(verdict.failed, 2, "one undelivered report, one unexplained anomaly");
    }
}
