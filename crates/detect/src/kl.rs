//! Histogram-based anomaly detection with the Kullback-Leibler distance —
//! the detector of Kind, Stoecklin & Dimitropoulos (IEEE TNSM 2009) that
//! the paper's SWITCH evaluation used ("a histogram-based anomaly
//! detector [3] using the Kullback-Leibler (KL) distance").
//!
//! Per feature and per interval, flow counts are hashed into a fixed
//! number of histogram bins — the summary's bins, read directly
//! ([`Reads::Bins`]), never an exact value→count map. The current
//! interval's histogram is compared to a baseline averaged over a
//! sliding window of preceding intervals; the KL distance time series
//! gets an adaptive threshold (mean + `sigma` · std over the training
//! window). On alarm, the bins with the largest positive KL
//! contribution are traced back to the concrete feature values inside
//! them — the alarm's meta-data — from the summary's exact
//! distributions when it carries them, else from one pass over the
//! interval's records.
//!
//! Histograms are integer bin counts converted to `f64`, and integer
//! sums are exact in `f64`: the same records give bit-identical scores
//! however they were split into shards or in which order they arrived.

use anomex_flow::feature::{Feature, FeatureItem, FeatureValue};
use anomex_flow::record::FlowRecord;
use anomex_flow::store::TimeRange;

use crate::alarm::Alarm;
use crate::detector::{Detector, Reads};
use crate::interval::{bin_of, mining_raw, IntervalSeries, IntervalStat, ValueDist, MAX_BINS_LOG2};
use crate::threshold::{ThresholdMode, ThresholdState};

/// KL detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KlConfig {
    /// Detection interval width in milliseconds (paper setting: 5 min).
    pub interval_ms: u64,
    /// log2 of the histogram bin count (7 → 128 bins, the TNSM range).
    pub bins_log2: u8,
    /// Sliding baseline window, in intervals.
    pub window: usize,
    /// Minimum intervals before detection can fire.
    pub min_training: usize,
    /// Threshold width: `mean + sigma * std` of trailing KL values.
    pub sigma: f64,
    /// Absolute KL floor (bits) below which no alarm fires, guarding the
    /// first intervals where the std estimate is still unstable.
    pub floor: f64,
    /// Meta-data size cap: values reported per flagged feature.
    pub hints_per_feature: usize,
    /// How the adaptive threshold keeps its score history: Welford
    /// running moments (O(1) memory, the default) or the exact full
    /// history (bit-identical with the seed detector's arithmetic).
    pub threshold: ThresholdMode,
}

impl Default for KlConfig {
    fn default() -> Self {
        KlConfig {
            interval_ms: 5 * 60 * 1000,
            bins_log2: 7,
            window: 6,
            min_training: 3,
            sigma: 3.0,
            floor: 0.05,
            hints_per_feature: 3,
            threshold: ThresholdMode::default(),
        }
    }
}

/// The histogram/KL detector.
#[derive(Debug, Clone)]
pub struct KlDetector {
    config: KlConfig,
    next_id: u64,
}

/// Per-feature KL measurement inside a detection result.
#[derive(Debug, Clone, PartialEq)]
pub struct KlScore {
    /// Which feature.
    pub feature: Feature,
    /// KL distance of the current interval vs. its baseline (bits).
    pub kl: f64,
    /// The adaptive threshold that applied.
    pub threshold: f64,
}

impl KlDetector {
    /// Detector with the given configuration.
    pub fn new(config: KlConfig) -> KlDetector {
        assert!((2..=MAX_BINS_LOG2).contains(&config.bins_log2), "bins_log2 out of range");
        assert!(config.window >= 1, "baseline window must be >= 1");
        KlDetector { config, next_id: 0 }
    }

    /// Detector with default (paper-like) settings.
    pub fn with_defaults() -> KlDetector {
        KlDetector::new(KlConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &KlConfig {
        &self.config
    }

    /// Run detection over `flows` within `span`.
    ///
    /// Returns one alarm per flagged interval, meta-data merged across
    /// flagged features. Intervals before `min_training` never alarm.
    pub fn detect(&mut self, flows: &[FlowRecord], span: TimeRange) -> Vec<Alarm> {
        let series = IntervalSeries::cut(flows, span, self.config.interval_ms);
        self.detect_series(&series)
    }

    /// Run detection over a pre-cut series (shared with benchmarks).
    ///
    /// Equivalent to feeding every interval through [`KlOnline::push`];
    /// this delegation is what guarantees the streaming pipeline and
    /// the batch pipeline agree alarm-for-alarm.
    pub fn detect_series(&mut self, series: &IntervalSeries) -> Vec<Alarm> {
        let mut online = KlOnline::with_start_id(self.config, self.next_id);
        let alarms =
            series.intervals.iter().filter_map(|stat| online.push(stat)).collect::<Vec<_>>();
        self.next_id = online.next_id();
        alarms
    }
}

/// Incremental KL detection state: one interval in, at most one alarm
/// out, no re-scan of history.
///
/// Keeps the last `window` interval histograms (the sliding baseline)
/// plus a [`ThresholdState`] per feature for the adaptive threshold. In
/// the default [`ThresholdMode::Welford`] the whole state is a few KiB
/// per detector regardless of how long the stream runs;
/// [`ThresholdMode::Exact`] instead retains every un-alarmed KL score
/// to stay bit-identical with the seed detector's two-pass statistics.
#[derive(Debug, Clone)]
pub struct KlOnline {
    config: KlConfig,
    /// Histograms of up to `config.window` preceding intervals.
    recent: std::collections::VecDeque<[Vec<f64>; 4]>,
    /// Adaptive-threshold state over trailing un-alarmed KL values, per
    /// feature.
    history: [ThresholdState; 4],
    /// Intervals consumed so far.
    t: usize,
    next_id: u64,
}

impl KlOnline {
    /// Fresh online state with the given configuration.
    pub fn new(config: KlConfig) -> KlOnline {
        KlOnline::with_start_id(config, 0)
    }

    /// Fresh online state whose first alarm takes id `next_id`.
    pub fn with_start_id(config: KlConfig, next_id: u64) -> KlOnline {
        assert!((2..=MAX_BINS_LOG2).contains(&config.bins_log2), "bins_log2 out of range");
        assert!(config.window >= 1, "baseline window must be >= 1");
        KlOnline {
            config,
            recent: std::collections::VecDeque::with_capacity(config.window + 1),
            history: std::array::from_fn(|_| ThresholdState::new(config.threshold)),
            t: 0,
            next_id,
        }
    }

    /// The id the next alarm will take.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Number of intervals consumed.
    pub fn intervals_seen(&self) -> usize {
        self.t
    }

    /// `f64`s of threshold history physically retained across all four
    /// features — constant (12) in Welford mode, growing per interval
    /// in Exact mode. Exposed so boundedness is testable.
    pub fn retained_threshold_samples(&self) -> usize {
        self.history.iter().map(ThresholdState::retained).sum()
    }

    /// Feed the next closed interval; returns an alarm if it deviates.
    ///
    /// Intervals must arrive in time order; gaps must be fed as empty
    /// [`IntervalStat`]s (exactly what [`IntervalSeries::cut`] produces
    /// for quiet intervals), or the adaptive threshold sees a different
    /// history than the batch detector would.
    ///
    /// An alarm's hints come from the summary's exact distributions:
    /// use [`push_with_records`](KlOnline::push_with_records) for a
    /// summary without them.
    pub fn push(&mut self, stat: &IntervalStat) -> Option<Alarm> {
        self.push_with_records(stat, &mut std::iter::empty())
    }

    /// [`push`](KlOnline::push) with the interval's records alongside,
    /// in segments: a summary carrying only bins resolves an alarm's
    /// hints from one pass over `records`, which must be exactly the
    /// records the summary counted. Not read at all when nothing alarms
    /// or the summary carries exact distributions.
    ///
    /// # Panics
    /// Panics when an alarm needs hints, the summary has no exact
    /// distributions, and `records` does not hold the summary's flows.
    pub fn push_with_records(
        &mut self,
        stat: &IntervalStat,
        records: &mut dyn Iterator<Item = &[FlowRecord]>,
    ) -> Option<Alarm> {
        let bins_log2 = self.config.bins_log2;
        let hist: [Vec<f64>; 4] =
            std::array::from_fn(|f| histogram(&stat.bin_counts(f, bins_log2)));
        let baselines: [Vec<f64>; 4] = std::array::from_fn(|f| self.baseline(f));

        let result = if self.t < self.config.min_training {
            // Warm-up: record KL against whatever baseline exists so the
            // threshold has history, but never alarm.
            if self.t > 0 {
                for ((history, h), b) in self.history.iter_mut().zip(&hist).zip(&baselines) {
                    history.push(kl_divergence(h, b));
                }
            }
            None
        } else {
            let mut flagged: Vec<KlScore> = Vec::new();
            let mut kls = [0.0f64; 4];
            for (f, kl_slot) in kls.iter_mut().enumerate() {
                let kl = kl_divergence(&hist[f], &baselines[f]);
                *kl_slot = kl;
                let threshold = self.history[f].threshold(self.config.sigma, self.config.floor);
                if kl > threshold {
                    flagged.push(KlScore { feature: Feature::MINING[f], kl, threshold });
                }
            }

            if flagged.is_empty() {
                for (history, &kl) in self.history.iter_mut().zip(&kls) {
                    history.push(kl);
                }
                None
            } else {
                // Meta-data: top contributing values of every flagged
                // feature. Alarmed intervals do not pollute the threshold
                // history (shield the baseline from contamination).
                let max = self.config.hints_per_feature;
                let bins: Vec<(usize, Vec<usize>)> = flagged
                    .iter()
                    .map(|score| {
                        let f = Feature::MINING.iter().position(|&x| x == score.feature).unwrap();
                        (f, top_deviating_bins(&hist[f], &baselines[f], max))
                    })
                    .collect();
                let mut hints = Vec::new();
                for ((f, _), values) in
                    bins.iter().zip(values_in_bins(stat, records, &bins, bins_log2))
                {
                    hints.extend(heaviest_values(&values, Feature::MINING[*f], max));
                }
                let worst = flagged
                    .iter()
                    .cloned()
                    .max_by(|a, b| (a.kl / a.threshold).partial_cmp(&(b.kl / b.threshold)).unwrap())
                    .expect("flagged is non-empty");
                let alarm = Alarm::new(self.next_id, "kl", stat.range)
                    .with_hints(hints)
                    .with_kind(guess_kind(&flagged))
                    .with_score(worst.kl, worst.threshold);
                self.next_id += 1;
                Some(alarm)
            }
        };

        self.recent.push_back(hist);
        if self.recent.len() > self.config.window {
            self.recent.pop_front();
        }
        self.t += 1;
        result
    }

    /// Average histogram of the retained preceding intervals.
    fn baseline(&self, feature: usize) -> Vec<f64> {
        let mut avg = vec![0.0f64; 1 << self.config.bins_log2];
        let n = self.recent.len();
        for h in &self.recent {
            for (a, &x) in avg.iter_mut().zip(&h[feature]) {
                *a += x;
            }
        }
        if n > 0 {
            for a in &mut avg {
                *a /= n as f64;
            }
        }
        avg
    }
}

impl Detector for KlOnline {
    fn name(&self) -> &str {
        "kl"
    }

    fn interval_ms(&self) -> u64 {
        self.config.interval_ms
    }

    fn reads(&self) -> Reads {
        Reads::Bins { bins_log2: self.config.bins_log2 }
    }

    fn push(&mut self, stat: &IntervalStat) -> Vec<Alarm> {
        KlOnline::push(self, stat).into_iter().collect()
    }

    fn push_with_records(
        &mut self,
        stat: &IntervalStat,
        records: &mut dyn Iterator<Item = &[FlowRecord]>,
    ) -> Vec<Alarm> {
        KlOnline::push_with_records(self, stat, records).into_iter().collect()
    }
}

/// Normalized histogram of per-bin flow counts.
fn histogram(counts: &[u64]) -> Vec<f64> {
    let mut h: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    let total: f64 = h.iter().sum();
    if total > 0.0 {
        for x in &mut h {
            *x /= total;
        }
    }
    h
}

/// `KL(p || q)` in bits, with the baseline mixed toward uniform so empty
/// baseline bins cannot produce infinities.
fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    const LAMBDA: f64 = 1e-3;
    let uniform = 1.0 / p.len() as f64;
    let mut kl = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi > 0.0 {
            let qi = (1.0 - LAMBDA) * qi + LAMBDA * uniform;
            kl += pi * (pi / qi).log2();
        }
    }
    kl.max(0.0)
}

/// The `max` bins with the largest positive KL contribution.
fn top_deviating_bins(current: &[f64], baseline: &[f64], max: usize) -> Vec<usize> {
    let bins = current.len();
    let uniform = 1.0 / bins as f64;
    // Score each bin by its contribution to the divergence.
    let mut contributions: Vec<(usize, f64)> = (0..bins)
        .filter_map(|b| {
            let p = current[b];
            if p <= 0.0 {
                return None;
            }
            let q = (1.0 - 1e-3) * baseline[b] + 1e-3 * uniform;
            let c = p * (p / q).log2();
            (c > 0.0).then_some((b, c))
        })
        .collect();
    contributions.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    contributions.truncate(max);
    contributions.into_iter().map(|(b, _)| b).collect()
}

/// Per `(feature, flagged bins)` entry, the exact `(value, count)`s of
/// that feature falling in those bins: filtered from the summary's exact
/// distributions when it carries them, else counted in one pass over
/// the interval's `records`.
fn values_in_bins(
    stat: &IntervalStat,
    records: &mut dyn Iterator<Item = &[FlowRecord]>,
    flagged: &[(usize, Vec<usize>)],
    bins_log2: u8,
) -> Vec<Vec<(u32, u64)>> {
    // Flagged-bin membership as one lookup table per flagged feature.
    let tables: Vec<(usize, Vec<bool>)> = flagged
        .iter()
        .map(|(f, bins)| {
            let mut table = vec![false; 1 << bins_log2];
            for &b in bins {
                table[b] = true;
            }
            (*f, table)
        })
        .collect();
    if let Some(dists) = stat.dists() {
        return tables
            .iter()
            .map(|(f, table)| {
                dists[*f].iter().filter(|&(v, _)| table[bin_of(v, bins_log2)]).collect()
            })
            .collect();
    }
    let mut columns: Vec<Vec<u32>> =
        flagged.iter().map(|_| Vec::with_capacity(stat.flows as usize)).collect();
    let mut seen = 0u64;
    for segment in records {
        seen += segment.len() as u64;
        for r in segment {
            let raw = mining_raw(r);
            for ((f, table), column) in tables.iter().zip(&mut columns) {
                if table[bin_of(raw[*f], bins_log2)] {
                    column.push(raw[*f]);
                }
            }
        }
    }
    assert_eq!(
        seen, stat.flows,
        "a summary without exact distributions resolves alarm hints from its interval's records"
    );
    columns.iter_mut().map(|column| ValueDist::from_values(column).iter().collect()).collect()
}

/// The `max` heaviest values (ties by value) as meta-data items of
/// `feature`.
fn heaviest_values(values: &[(u32, u64)], feature: Feature, max: usize) -> Vec<FeatureItem> {
    let mut values = values.to_vec();
    values.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    values.truncate(max);
    values
        .into_iter()
        .filter_map(|(raw, _)| {
            let value = FeatureValue::from_raw(feature, raw)?;
            FeatureItem::checked(feature, value)
        })
        .collect()
}

/// Crude label guess from which features deviated.
fn guess_kind(flagged: &[KlScore]) -> &'static str {
    let has = |f: Feature| flagged.iter().any(|s| s.feature == f);
    if has(Feature::DstPort) && has(Feature::SrcIp) && !has(Feature::DstIp) {
        "port scan"
    } else if has(Feature::DstIp) && !has(Feature::DstPort) {
        "network scan"
    } else if has(Feature::SrcIp) && has(Feature::DstIp) {
        "flood"
    } else {
        "distribution change"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_flow::record::Protocol;
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// Steady background plus (optionally) a port scan in the final interval.
    fn trace(intervals: usize, width: u64, scan_in_last: bool) -> (Vec<FlowRecord>, TimeRange) {
        let mut flows = Vec::new();
        let span = TimeRange::new(0, intervals as u64 * width);
        for t in 0..intervals {
            let base = t as u64 * width;
            // Deterministic benign mix: 200 flows over a handful of services.
            for i in 0..200u32 {
                flows.push(
                    FlowRecord::builder()
                        .time(base + (i as u64 * 91) % width, base + (i as u64 * 91) % width + 50)
                        .src(Ipv4Addr::from(0x0A00_0000 + (i % 40)), 1024 + (i % 500) as u16)
                        .dst(
                            Ipv4Addr::from(0xAC10_0000 + (i % 7)),
                            if i % 3 == 0 { 443 } else { 80 },
                        )
                        .proto(Protocol::TCP)
                        .volume(3, 1800)
                        .build(),
                );
            }
            if scan_in_last && t == intervals - 1 {
                for p in 1..=1_500u32 {
                    flows.push(
                        FlowRecord::builder()
                            .time(base + (p as u64 % width), base + (p as u64 % width) + 1)
                            .src(ip("10.66.66.66"), 55_548)
                            .dst(ip("172.16.0.99"), p as u16)
                            .proto(Protocol::TCP)
                            .volume(1, 44)
                            .build(),
                    );
                }
            }
        }
        (flows, span)
    }

    #[test]
    fn quiet_trace_raises_no_alarm() {
        let (flows, span) = trace(8, 60_000, false);
        let mut det = KlDetector::new(KlConfig { interval_ms: 60_000, ..KlConfig::default() });
        assert!(det.detect(&flows, span).is_empty());
    }

    #[test]
    fn port_scan_raises_alarm_with_scanner_in_hints() {
        let (flows, span) = trace(8, 60_000, true);
        let mut det = KlDetector::new(KlConfig { interval_ms: 60_000, ..KlConfig::default() });
        let alarms = det.detect(&flows, span);
        assert_eq!(alarms.len(), 1, "expected exactly one alarmed interval");
        let alarm = &alarms[0];
        assert_eq!(alarm.window.from_ms, 7 * 60_000);
        assert!(
            alarm.hints.iter().any(|h| *h == FeatureItem::src_ip(ip("10.66.66.66"))),
            "scanner missing from meta-data: {:?}",
            alarm.hints
        );
        assert!(alarm.score > 0.0);
    }

    #[test]
    fn no_alarm_during_training() {
        // Scan in interval 1, inside min_training -> silent by design.
        let (mut flows, span) = trace(3, 60_000, false);
        for p in 1..=1_000u32 {
            flows.push(
                FlowRecord::builder()
                    .time(60_000 + p as u64, 60_001 + p as u64)
                    .src(ip("10.66.66.66"), 55_548)
                    .dst(ip("172.16.0.99"), p as u16)
                    .volume(1, 44)
                    .build(),
            );
        }
        let mut det = KlDetector::new(KlConfig { interval_ms: 60_000, ..KlConfig::default() });
        assert!(det.detect(&flows, span).is_empty());
    }

    #[test]
    fn alarm_ids_increment_across_calls() {
        let (flows, span) = trace(8, 60_000, true);
        let mut det = KlDetector::new(KlConfig { interval_ms: 60_000, ..KlConfig::default() });
        let a = det.detect(&flows, span);
        let b = det.detect(&flows, span);
        assert_eq!(a[0].id + 1, b[0].id);
    }

    #[test]
    fn kl_near_zero_for_identical_distributions() {
        // Not exactly zero: the baseline is mixed toward uniform by
        // lambda = 1e-3, which introduces a bias of order lambda bits.
        let p = vec![0.5, 0.25, 0.25, 0.0];
        assert!(kl_divergence(&p, &p) < 1e-2);
    }

    #[test]
    fn kl_positive_for_shifted_mass() {
        let p = vec![1.0, 0.0, 0.0, 0.0];
        let q = vec![0.25, 0.25, 0.25, 0.25];
        assert!(kl_divergence(&p, &q) > 1.5, "{}", kl_divergence(&p, &q));
    }

    #[test]
    fn kl_finite_against_empty_baseline() {
        let p = vec![1.0, 0.0];
        let q = vec![0.0, 0.0];
        let kl = kl_divergence(&p, &q);
        assert!(kl.is_finite() && kl > 0.0);
    }

    #[test]
    fn welford_mode_keeps_threshold_state_constant() {
        let config = KlConfig { interval_ms: 60_000, ..KlConfig::default() };
        assert_eq!(config.threshold, ThresholdMode::Welford, "Welford is the default");
        let mut online = KlOnline::new(config);
        let (flows, span) = trace(16, 60_000, false);
        let series = IntervalSeries::cut(&flows, span, 60_000);
        let mut sizes = Vec::new();
        for stat in &series.intervals {
            online.push(stat);
            sizes.push(online.retained_threshold_samples());
        }
        assert!(sizes.iter().all(|&s| s == 12), "O(1) threshold state violated: {sizes:?}");
    }

    #[test]
    fn exact_mode_retains_full_history() {
        let config = KlConfig {
            interval_ms: 60_000,
            threshold: ThresholdMode::Exact,
            ..KlConfig::default()
        };
        let mut online = KlOnline::new(config);
        let (flows, span) = trace(8, 60_000, false);
        let series = IntervalSeries::cut(&flows, span, 60_000);
        for stat in &series.intervals {
            online.push(stat);
        }
        // 7 un-alarmed post-warmup intervals recorded across 4 features
        // (interval 0 has no baseline and records nothing).
        assert_eq!(online.retained_threshold_samples(), 7 * 4);
    }

    #[test]
    fn exact_and_welford_agree_on_clear_signal() {
        let (flows, span) = trace(8, 60_000, true);
        let series = IntervalSeries::cut(&flows, span, 60_000);
        let mut alarms_by_mode = Vec::new();
        for mode in [ThresholdMode::Exact, ThresholdMode::Welford] {
            let config = KlConfig { interval_ms: 60_000, threshold: mode, ..KlConfig::default() };
            let mut online = KlOnline::new(config);
            let alarms: Vec<Alarm> =
                series.intervals.iter().filter_map(|stat| online.push(stat)).collect();
            alarms_by_mode.push(alarms);
        }
        assert_eq!(alarms_by_mode[0].len(), 1);
        assert_eq!(alarms_by_mode[0][0].window, alarms_by_mode[1][0].window);
        let (a, b) = (&alarms_by_mode[0][0], &alarms_by_mode[1][0]);
        assert!((a.score - b.score).abs() < 1e-9, "{} vs {}", a.score, b.score);
    }

    #[test]
    fn histogram_is_normalized() {
        let mut d = ValueDist::new();
        d.add(1, 10);
        d.add(999, 30);
        let h = histogram(&d.bin_counts(6));
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_of_stays_in_range() {
        for bins_log2 in [0u8, 2, 7, 10, MAX_BINS_LOG2] {
            for v in [0u32, 1, 80, 65_535, u32::MAX] {
                assert!(bin_of(v, bins_log2) < 1 << bins_log2);
            }
        }
    }

    #[test]
    fn hints_from_records_equal_hints_from_exact_distributions() {
        // Same trace, three summaries of the alarmed interval: the
        // full one, a bins-only one resolved from its records, and a
        // bins-only one at a finer resolution than the detector's.
        let (flows, span) = trace(8, 60_000, true);
        let config = KlConfig { interval_ms: 60_000, ..KlConfig::default() };
        let series = IntervalSeries::cut(&flows, span, 60_000);
        let expected = KlDetector::new(config).detect_series(&series);
        assert_eq!(expected.len(), 1);
        for bins_log2 in [7u8, 9] {
            let spec = crate::interval::SummarySpec { bins_log2, exact: false };
            let mut online = KlOnline::new(config);
            let mut alarms = Vec::new();
            for range in span.intervals(60_000) {
                let members: Vec<FlowRecord> =
                    flows.iter().filter(|f| range.contains(f.start_ms)).cloned().collect();
                let stat = IntervalStat::from_records(range, spec, &members);
                // Two segments, as a two-shard window holds them.
                let (a, b) = members.split_at(members.len() / 2);
                alarms.extend(online.push_with_records(&stat, &mut [a, b].into_iter()));
            }
            assert_eq!(alarms, expected, "bins_log2={bins_log2}");
        }
    }

    #[test]
    #[should_panic(expected = "resolves alarm hints from its interval's records")]
    fn bins_only_alarm_without_records_is_loud() {
        let (flows, span) = trace(8, 60_000, true);
        let config = KlConfig { interval_ms: 60_000, ..KlConfig::default() };
        let spec = crate::interval::SummarySpec { bins_log2: 7, exact: false };
        let mut online = KlOnline::new(config);
        for range in span.intervals(60_000) {
            let members = flows.iter().filter(|f| range.contains(f.start_ms));
            online.push(&IntervalStat::from_records(range, spec, members));
        }
    }

    #[test]
    fn online_push_equals_batch_detect() {
        let (flows, span) = trace(8, 60_000, true);
        let series = IntervalSeries::cut(&flows, span, 60_000);
        let config = KlConfig { interval_ms: 60_000, ..KlConfig::default() };

        let mut batch = KlDetector::new(config);
        let batch_alarms = batch.detect_series(&series);

        let mut online = KlOnline::new(config);
        let online_alarms: Vec<Alarm> =
            series.intervals.iter().filter_map(|stat| online.push(stat)).collect();

        assert_eq!(batch_alarms, online_alarms);
        assert_eq!(online.intervals_seen(), series.len());
        assert_eq!(online.next_id(), batch_alarms.len() as u64);
    }

    #[test]
    fn kind_guess_port_scan_shape() {
        let flagged = vec![
            KlScore { feature: Feature::SrcIp, kl: 1.0, threshold: 0.1 },
            KlScore { feature: Feature::DstPort, kl: 2.0, threshold: 0.1 },
        ];
        assert_eq!(guess_kind(&flagged), "port scan");
    }
}
