//! The unified incremental-detector interface.
//!
//! Every detector in this crate is, at bottom, the same machine: closed
//! intervals go in one at a time, alarms come out. [`Detector`] names
//! that machine, the way `anomex_fim::Miner` names the mining engines —
//! batch detection is a thin driver over the incremental state
//! ([`Detector::detect_series`]), and the streaming layer can run any
//! number of detectors side by side without knowing their types
//! (`anomex-stream`'s detector registry builds on exactly this trait).
//!
//! The two in-tree implementations are [`KlOnline`](crate::kl::KlOnline)
//! (histogram/KL with an O(1) Welford threshold) and
//! [`PcaSliding`](crate::pca::PcaSliding) (entropy-PCA over a sliding
//! window with rank-one covariance update/downdate). A third-party
//! detector only needs this trait and [`Alarm`]'s shape — the paper's
//! "can be integrated with any anomaly detection system" premise as a
//! compiler-checked interface.

use anomex_flow::record::FlowRecord;

use crate::alarm::Alarm;
use crate::interval::{IntervalSeries, IntervalStat};

/// What a detector reads of each interval summary — the declaration the
/// streaming pipeline derives its per-record work from
/// ([`SummarySpec::covering`](crate::interval::SummarySpec::covering)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// Volume totals and per-feature flow counts hashed into
    /// `1 << bins_log2` bins ([`IntervalStat::bin_counts`]). Exact values
    /// are looked up only for an alarm, from the records handed to
    /// [`Detector::push_with_records`].
    Bins {
        /// log2 of the bin count the detector histograms at.
        bins_log2: u8,
    },
    /// Everything, including the exact per-feature value distributions
    /// ([`IntervalStat::dists`]).
    Exact,
}

/// One incremental anomaly detector: intervals in, alarms out.
///
/// Implementations must be deterministic in the sequence of pushed
/// intervals — the streaming pipeline's replay guarantees depend on it.
/// Intervals must arrive in time order, gaps fed as empty
/// [`IntervalStat`]s (what `IntervalSeries::cut` produces for quiet
/// intervals).
pub trait Detector: Send {
    /// Stable detector name, used for alarm attribution ("kl",
    /// "entropy-pca", …).
    fn name(&self) -> &str;

    /// The detection-interval width this state expects, milliseconds.
    fn interval_ms(&self) -> u64;

    /// What this detector reads of each summary. The default,
    /// [`Reads::Exact`], hands it every part of the summary; a detector
    /// declaring [`Reads::Bins`] may receive summaries without exact
    /// distributions, and the pipeline then skips building them.
    fn reads(&self) -> Reads {
        Reads::Exact
    }

    /// Feed the next closed interval; returns the alarms it raised
    /// (usually zero or one).
    fn push(&mut self, stat: &IntervalStat) -> Vec<Alarm>;

    /// [`push`](Detector::push) with the interval's records alongside,
    /// as the contiguous segments they are stored in, for a detector
    /// that reads only bins and must resolve an alarm's exact values
    /// without the summary's exact distributions. The default ignores
    /// the records.
    fn push_with_records(
        &mut self,
        stat: &IntervalStat,
        records: &mut dyn Iterator<Item = &[FlowRecord]>,
    ) -> Vec<Alarm> {
        let _ = records;
        self.push(stat)
    }

    /// Batch detection as a driver over the incremental state: feed
    /// every interval of `series` in order, collect every alarm.
    fn detect_series(&mut self, series: &IntervalSeries) -> Vec<Alarm> {
        series.intervals.iter().flat_map(|stat| self.push(stat)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_flow::store::TimeRange;

    /// A detector that alarms on every interval with ≥ `limit` flows.
    struct FlowCountDetector {
        limit: u64,
        next_id: u64,
    }

    impl Detector for FlowCountDetector {
        fn name(&self) -> &str {
            "flow-count"
        }

        fn interval_ms(&self) -> u64 {
            1_000
        }

        fn push(&mut self, stat: &IntervalStat) -> Vec<Alarm> {
            if stat.flows >= self.limit {
                let alarm = Alarm::new(self.next_id, self.name(), stat.range);
                self.next_id += 1;
                vec![alarm]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn detect_series_drives_push() {
        let mut det = FlowCountDetector { limit: 2, next_id: 0 };
        let mut series = IntervalSeries { width_ms: 1_000, intervals: Vec::new() };
        for t in 0..4u64 {
            let mut stat = IntervalStat::empty(TimeRange::new(t * 1_000, (t + 1) * 1_000));
            stat.flows = t; // 0, 1, 2, 3 flows
            series.intervals.push(stat);
        }
        let alarms = det.detect_series(&series);
        assert_eq!(alarms.len(), 2);
        assert_eq!(alarms[0].window.from_ms, 2_000);
        assert_eq!(alarms[1].window.from_ms, 3_000);
        assert_eq!(alarms[0].id + 1, alarms[1].id);
        assert_eq!(alarms[0].detector, "flow-count");
    }

    #[test]
    fn trait_is_object_safe_and_send() {
        let boxed: Box<dyn Detector + Send> = Box::new(FlowCountDetector { limit: 1, next_id: 0 });
        assert_eq!(boxed.name(), "flow-count");
        assert_eq!(boxed.interval_ms(), 1_000);
        assert_eq!(boxed.reads(), Reads::Exact, "an undeclared detector reads everything");
    }
}
