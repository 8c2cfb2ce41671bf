//! Per-interval traffic summaries.
//!
//! Every detector consumes the same shape of input: the trace cut into
//! fixed-width intervals ([`IntervalSeries`] is the batch cut, the
//! streaming pipeline's windows are the online one). What one interval's
//! [`IntervalStat`] carries is decided by what the detectors read
//! ([`SummarySpec`], derived from each detector's
//! [`Reads`] declaration):
//!
//! - always the volume totals and, per mining feature (srcIP, dstIP,
//!   srcPort, dstPort), flow counts hashed into `1 << bins_log2` bins by
//!   [`bin_of`] — the histogram/KL detector's whole input. Counting is
//!   four array increments per record and merging two shards' partials
//!   is a vector add, so the per-record path carries nothing else when
//!   KL is the only detector;
//! - only when some detector reads them, the exact per-feature value
//!   distributions ([`ValueDist`], sorted `(value, count)` runs) that
//!   entropy-PCA reduces to entropies. They are built per interval by
//!   sort + run-length over each feature column, off the per-record
//!   path, and merged linearly.
//!
//! A histogram at a coarser resolution than the summary's folds exactly
//! from its bins, because [`bin_of`] at `k` bits is the top-`k`-bit
//! prefix of [`bin_of`] at more bits.

use anomex_flow::feature::Feature;
use anomex_flow::record::FlowRecord;
use anomex_flow::store::TimeRange;

use crate::detector::Reads;

/// Finest histogram resolution a summary can carry (65 536 bins).
pub const MAX_BINS_LOG2: u8 = 16;

/// Multiply-shift hash of a feature value into `1 << bins_log2` bins:
/// the top `bins_log2` bits of a Fibonacci product, so the bin at `k`
/// bits is `bin_of(v, n) >> (n - k)` for any `n >= k`. `bins_log2 = 0`
/// is the single bin 0.
#[inline]
pub fn bin_of(value: u32, bins_log2: u8) -> usize {
    debug_assert!(bins_log2 <= MAX_BINS_LOG2, "bins_log2 out of range");
    (u64::from(value.wrapping_mul(0x9E37_79B1)) >> (32 - u32::from(bins_log2))) as usize
}

/// The four mining feature values of a record as raw words, indexed like
/// [`Feature::MINING`] (each equals `record.feature(f).raw()`).
#[inline]
pub(crate) fn mining_raw(r: &FlowRecord) -> [u32; 4] {
    [u32::from(r.src_ip), u32::from(r.dst_ip), u32::from(r.src_port), u32::from(r.dst_port)]
}

/// Empirical distribution of one feature over one interval: raw feature
/// value (`FeatureValue::raw`) → flow count, held as `(value, count)`
/// runs sorted by value.
///
/// Built by sort + run-length from a column of values
/// ([`from_values`](ValueDist::from_values)), merged linearly, iterated
/// in value order. The order is canonical, so two summaries of the same
/// records are equal however the records were split across shards, and
/// [`entropy`](ValueDist::entropy) sums in the same order every time —
/// bit-identical whatever the split.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValueDist {
    /// `(value, count)`, strictly ascending by value, every count > 0.
    runs: Vec<(u32, u64)>,
    total: u64,
}

impl ValueDist {
    /// Empty distribution.
    pub fn new() -> ValueDist {
        ValueDist::default()
    }

    /// Distribution of a column of observations, one flow each. Sorts
    /// `values` in place.
    pub fn from_values(values: &mut [u32]) -> ValueDist {
        values.sort_unstable();
        let mut runs: Vec<(u32, u64)> = Vec::new();
        for &v in values.iter() {
            match runs.last_mut() {
                Some((last, count)) if *last == v => *count += 1,
                _ => runs.push((v, 1)),
            }
        }
        ValueDist { runs, total: values.len() as u64 }
    }

    /// Count one observation of `value` with weight `w`. A sorted insert:
    /// O(distinct) per call, meant for hand-built and small summaries —
    /// bulk construction goes through [`from_values`](ValueDist::from_values).
    pub fn add(&mut self, value: u32, w: u64) {
        if w == 0 {
            return;
        }
        match self.runs.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(i) => self.runs[i].1 += w,
            Err(i) => self.runs.insert(i, (value, w)),
        }
        self.total += w;
    }

    /// Total weight observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values observed.
    pub fn distinct(&self) -> usize {
        self.runs.len()
    }

    /// Weight of one value.
    pub fn count(&self, value: u32) -> u64 {
        self.runs.binary_search_by_key(&value, |&(v, _)| v).map_or(0, |i| self.runs[i].1)
    }

    /// Iterate `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.runs.iter().copied()
    }

    /// Sample entropy `H = -Σ p_i log2 p_i` in bits, summed in value
    /// order.
    ///
    /// Returns 0 for empty and single-value distributions.
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        let mut h = 0.0;
        for &(_, c) in &self.runs {
            let p = c as f64 / total;
            h -= p * p.log2();
        }
        h.max(0.0)
    }

    /// Entropy normalized into `[0, 1]` by `log2(distinct)` — the form
    /// Lakhina et al. use so dimensions are comparable.
    pub fn normalized_entropy(&self) -> f64 {
        let n = self.distinct();
        if n <= 1 {
            return 0.0;
        }
        self.entropy() / (n as f64).log2()
    }

    /// The `n` heaviest values, descending by weight (ties by value for
    /// determinism).
    pub fn top_n(&self, n: usize) -> Vec<(u32, u64)> {
        let mut all = self.runs.clone();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Probability of one value (0 when the distribution is empty).
    pub fn probability(&self, value: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }

    /// Fold another distribution into this one (counts add): one linear
    /// merge of the two run lists.
    pub fn merge(&mut self, other: &ValueDist) {
        if other.runs.is_empty() {
            return;
        }
        if self.runs.is_empty() {
            self.clone_from(other);
            return;
        }
        let mut merged = Vec::with_capacity(self.runs.len() + other.runs.len());
        let (mut a, mut b) = (self.runs.iter().peekable(), other.runs.iter().peekable());
        while let (Some(&&(va, ca)), Some(&&(vb, cb))) = (a.peek(), b.peek()) {
            if va < vb {
                merged.push((va, ca));
                a.next();
            } else if vb < va {
                merged.push((vb, cb));
                b.next();
            } else {
                merged.push((va, ca + cb));
                a.next();
                b.next();
            }
        }
        merged.extend(a);
        merged.extend(b);
        self.runs = merged;
        self.total += other.total;
    }

    /// Flow counts per hashed bin at `1 << bins_log2` bins.
    pub fn bin_counts(&self, bins_log2: u8) -> Vec<u64> {
        let mut bins = vec![0u64; 1 << bins_log2];
        for &(v, c) in &self.runs {
            bins[bin_of(v, bins_log2)] += c;
        }
        bins
    }
}

/// What an [`IntervalStat`] carries beyond its volume totals. Derived
/// from the detectors' [`Reads`] declarations
/// ([`covering`](SummarySpec::covering)), never configured by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummarySpec {
    /// log2 of the hashed bins per feature (`0`: one bin, i.e. no
    /// detector reads bins).
    pub bins_log2: u8,
    /// Whether the exact per-feature distributions are built.
    pub exact: bool,
}

impl SummarySpec {
    /// Everything: exact distributions plus bins at the default KL
    /// resolution (128) — what [`IntervalSeries::cut`] and
    /// [`IntervalStat::empty`] build.
    pub const FULL: SummarySpec = SummarySpec { bins_log2: 7, exact: true };

    /// The summary a set of detectors needs: bins at the finest
    /// resolution any of them reads, exact distributions when any of
    /// them reads those.
    pub fn covering(reads: impl IntoIterator<Item = Reads>) -> SummarySpec {
        let mut spec = SummarySpec { bins_log2: 0, exact: false };
        for r in reads {
            match r {
                Reads::Bins { bins_log2 } => spec.bins_log2 = spec.bins_log2.max(bins_log2),
                Reads::Exact => spec.exact = true,
            }
        }
        spec
    }
}

/// One interval's summary: volume totals, per-feature hashed bin counts
/// and, when its [`SummarySpec`] asks for them, the four exact feature
/// distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalStat {
    /// The interval.
    pub range: TimeRange,
    /// Flow records observed (start falling in the interval).
    pub flows: u64,
    /// Packet total.
    pub packets: u64,
    /// Byte total.
    pub bytes: u64,
    bins_log2: u8,
    /// Flow counts per feature and bin, feature-major:
    /// `bins[f << bins_log2 | bin]`, features indexed like
    /// [`Feature::MINING`].
    bins: Vec<u64>,
    /// Exact distribution per mining feature, when built.
    dists: Option<Box<[ValueDist; 4]>>,
}

impl IntervalStat {
    /// Empty full summary of `range` ([`SummarySpec::FULL`]).
    pub fn empty(range: TimeRange) -> IntervalStat {
        IntervalStat::with_spec(range, SummarySpec::FULL)
    }

    /// Empty summary of `range` carrying what `spec` asks for.
    ///
    /// # Panics
    /// Panics if `spec.bins_log2` exceeds [`MAX_BINS_LOG2`].
    pub fn with_spec(range: TimeRange, spec: SummarySpec) -> IntervalStat {
        assert!(spec.bins_log2 <= MAX_BINS_LOG2, "bins_log2 out of range");
        IntervalStat {
            range,
            flows: 0,
            packets: 0,
            bytes: 0,
            bins_log2: spec.bins_log2,
            bins: vec![0; 4 << spec.bins_log2],
            dists: spec.exact.then(Box::default),
        }
    }

    /// Summary of `records`, all of which fall in `range`: totals and
    /// bins counted per record, exact distributions (when `spec` asks)
    /// by sort + run-length per feature column.
    pub fn from_records<'a>(
        range: TimeRange,
        spec: SummarySpec,
        records: impl IntoIterator<Item = &'a FlowRecord> + Clone,
    ) -> IntervalStat {
        let mut stat = IntervalStat::with_spec(range, SummarySpec { exact: false, ..spec });
        for r in records.clone() {
            stat.add(r);
        }
        if spec.exact {
            stat.build_dists(records);
        }
        stat
    }

    /// What this summary carries.
    fn spec(&self) -> SummarySpec {
        SummarySpec { bins_log2: self.bins_log2, exact: self.dists.is_some() }
    }

    /// Account one record: totals and one bin per feature (flow-weighted,
    /// as in the paper's detectors). Exact distributions are never built
    /// record by record — [`from_records`](IntervalStat::from_records) and
    /// [`build_dists`](IntervalStat::build_dists) build them per column.
    ///
    /// # Panics
    /// Panics when the summary already carries exact distributions,
    /// which the record would leave stale.
    pub fn add(&mut self, r: &FlowRecord) {
        assert!(self.dists.is_none(), "add counts bins only; build exact summaries from records");
        self.flows += 1;
        self.packets += r.packets;
        self.bytes += r.bytes;
        let log2 = self.bins_log2;
        for (f, v) in mining_raw(r).into_iter().enumerate() {
            self.bins[(f << log2) | bin_of(v, log2)] += 1;
        }
    }

    /// (Re)build the exact distributions from `records` — the records
    /// this summary counted — by sort + run-length per feature column.
    pub fn build_dists<'a>(&mut self, records: impl IntoIterator<Item = &'a FlowRecord> + Clone) {
        let mut column: Vec<u32> = Vec::with_capacity(self.flows as usize);
        let dists: [ValueDist; 4] = std::array::from_fn(|f| {
            column.clear();
            column.extend(records.clone().into_iter().map(|r| mining_raw(r)[f]));
            ValueDist::from_values(&mut column)
        });
        debug_assert_eq!(dists[0].total(), self.flows, "distributions built from other records");
        self.dists = Some(Box::new(dists));
    }

    /// Fold another shard's summary of the **same** interval into this
    /// one — how the window manager combines per-shard partials into
    /// the full interval summary without re-scanning any flow: totals
    /// and bins add, exact distributions merge linearly.
    ///
    /// # Panics
    /// Panics when the two summaries carry different [`SummarySpec`]s.
    pub fn merge(&mut self, other: &IntervalStat) {
        debug_assert_eq!(self.range, other.range, "merging different intervals");
        assert_eq!(self.spec(), other.spec(), "merging summaries of different shapes");
        self.flows += other.flows;
        self.packets += other.packets;
        self.bytes += other.bytes;
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        if let (Some(mine), Some(theirs)) = (&mut self.dists, &other.dists) {
            for (mine, theirs) in mine.iter_mut().zip(theirs.iter()) {
                mine.merge(theirs);
            }
        }
    }

    /// Flow counts of feature `f` (indexed like [`Feature::MINING`]) in
    /// `1 << bins_log2` hashed bins: folded from the summary's bins when
    /// they are at least that fine, else from its exact distribution.
    ///
    /// # Panics
    /// Panics when the summary's bins are coarser than `bins_log2` and it
    /// carries no exact distributions.
    pub fn bin_counts(&self, f: usize, bins_log2: u8) -> Vec<u64> {
        if bins_log2 > self.bins_log2 {
            let dists = self.dists.as_ref().unwrap_or_else(|| {
                panic!(
                    "summary holds {} bins per feature, {} were asked for",
                    1u64 << self.bins_log2,
                    1u64 << bins_log2
                )
            });
            return dists[f].bin_counts(bins_log2);
        }
        let width = 1usize << self.bins_log2;
        let shift = self.bins_log2 - bins_log2;
        let mut out = vec![0u64; 1 << bins_log2];
        for (b, &count) in self.bins[f * width..(f + 1) * width].iter().enumerate() {
            out[b >> shift] += count;
        }
        out
    }

    /// The four exact distributions, indexed like [`Feature::MINING`],
    /// when the summary carries them.
    pub fn dists(&self) -> Option<&[ValueDist; 4]> {
        self.dists.as_deref()
    }

    /// The exact distribution of `feature`, if it is a mining feature
    /// and the summary carries exact distributions.
    pub fn dist(&self, feature: Feature) -> Option<&ValueDist> {
        let f = Feature::MINING.iter().position(|&m| m == feature)?;
        self.dists().map(|d| &d[f])
    }

    /// Entropy vector over the four mining features (normalized).
    ///
    /// # Panics
    /// Panics when the summary carries no exact distributions.
    pub fn entropy_vector(&self) -> [f64; 4] {
        let dists = self.dists().expect("entropy needs a summary with exact distributions");
        std::array::from_fn(|f| dists[f].normalized_entropy())
    }
}

/// A trace cut into fixed-width intervals.
#[derive(Debug, Clone)]
pub struct IntervalSeries {
    /// Interval width, milliseconds.
    pub width_ms: u64,
    /// Per-interval summaries, in time order, gapless across the span.
    pub intervals: Vec<IntervalStat>,
}

impl IntervalSeries {
    /// Cut `flows` into `width_ms` intervals across `span`, each a full
    /// summary ([`SummarySpec::FULL`]).
    ///
    /// Records are assigned to the interval containing their start
    /// timestamp — the NetFlow convention for 5-minute bins. Records
    /// outside `span` are ignored.
    ///
    /// # Panics
    /// Panics if `width_ms == 0`.
    pub fn cut(flows: &[FlowRecord], span: TimeRange, width_ms: u64) -> IntervalSeries {
        assert!(width_ms > 0, "interval width must be positive");
        let ranges = span.intervals(width_ms);
        let mut members: Vec<Vec<&FlowRecord>> = vec![Vec::new(); ranges.len()];
        let base = span.from_ms;
        for f in flows {
            if f.start_ms < base {
                continue;
            }
            let idx = ((f.start_ms - base) / width_ms) as usize;
            if let Some(slot) = members.get_mut(idx) {
                slot.push(f);
            }
        }
        let intervals = ranges
            .iter()
            .zip(&members)
            .map(|(range, records)| {
                IntervalStat::from_records(*range, SummarySpec::FULL, records.iter().copied())
            })
            .collect();
        IntervalSeries { width_ms, intervals }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when the series holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_flow::record::FlowRecord;
    use std::net::Ipv4Addr;

    fn flow(start: u64, src: &str, dport: u16, packets: u64) -> FlowRecord {
        FlowRecord::builder()
            .time(start, start + 100)
            .src(src.parse::<Ipv4Addr>().unwrap(), 4000)
            .dst("172.16.0.1".parse().unwrap(), dport)
            .volume(packets, packets * 100)
            .build()
    }

    #[test]
    fn entropy_of_uniform_is_log2_n() {
        let mut d = ValueDist::new();
        for v in 0..8 {
            d.add(v, 5);
        }
        assert!((d.entropy() - 3.0).abs() < 1e-12);
        assert!((d.normalized_entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        let mut d = ValueDist::new();
        d.add(42, 1000);
        assert_eq!(d.entropy(), 0.0);
        assert_eq!(d.normalized_entropy(), 0.0);
    }

    #[test]
    fn entropy_of_empty_is_zero() {
        assert_eq!(ValueDist::new().entropy(), 0.0);
    }

    #[test]
    fn entropy_decreases_with_concentration() {
        let mut flat = ValueDist::new();
        let mut spiky = ValueDist::new();
        for v in 0..100 {
            flat.add(v, 10);
            spiky.add(v, 1);
        }
        spiky.add(7, 900);
        assert!(spiky.normalized_entropy() < flat.normalized_entropy());
    }

    #[test]
    fn top_n_orders_by_weight_then_value() {
        let mut d = ValueDist::new();
        d.add(5, 10);
        d.add(3, 10);
        d.add(9, 50);
        assert_eq!(d.top_n(2), vec![(9, 50), (3, 10)]);
    }

    #[test]
    fn probability_sums_to_one() {
        let mut d = ValueDist::new();
        d.add(1, 3);
        d.add(2, 7);
        let sum: f64 = d.iter().map(|(v, _)| d.probability(v)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cut_assigns_by_start_time() {
        let flows = vec![
            flow(0, "10.0.0.1", 80, 2),
            flow(59_999, "10.0.0.2", 80, 2),
            flow(60_000, "10.0.0.3", 53, 4),
        ];
        let series = IntervalSeries::cut(&flows, TimeRange::new(0, 120_000), 60_000);
        assert_eq!(series.len(), 2);
        assert_eq!(series.intervals[0].flows, 2);
        assert_eq!(series.intervals[1].flows, 1);
        assert_eq!(series.intervals[1].packets, 4);
    }

    #[test]
    fn cut_ignores_out_of_span_records() {
        let flows = vec![flow(500_000, "10.0.0.1", 80, 1)];
        let series = IntervalSeries::cut(&flows, TimeRange::new(0, 120_000), 60_000);
        assert_eq!(series.intervals.iter().map(|i| i.flows).sum::<u64>(), 0);
    }

    #[test]
    fn interval_stat_tracks_all_four_features() {
        let flows = [flow(10, "10.0.0.1", 80, 3), flow(20, "10.0.0.2", 80, 3)];
        let stat = IntervalStat::from_records(TimeRange::new(0, 1000), SummarySpec::FULL, &flows);
        assert_eq!(stat.dist(Feature::SrcIp).unwrap().distinct(), 2);
        assert_eq!(stat.dist(Feature::DstPort).unwrap().distinct(), 1);
        assert_eq!(stat.dist(Feature::Proto), None, "proto is not a mining feature");
        let bins_only = SummarySpec { bins_log2: 7, exact: false };
        let lean = IntervalStat::from_records(TimeRange::new(0, 1000), bins_only, &[]);
        assert_eq!(lean.dist(Feature::SrcIp), None, "no exact distributions were asked for");
    }

    #[test]
    fn merged_shard_stats_equal_unsharded_stat() {
        let flows: Vec<FlowRecord> = (0..40)
            .map(|i| flow(i, &format!("10.0.0.{}", i % 7), 80 + (i % 3) as u16, 2))
            .collect();
        let range = TimeRange::new(0, 1000);
        let whole = IntervalStat::from_records(range, SummarySpec::FULL, &flows);
        let shard = |s: u64| flows.iter().filter(move |f| f.key().stable_hash() % 2 == s);
        let mut merged = IntervalStat::from_records(range, SummarySpec::FULL, shard(0));
        merged.merge(&IntervalStat::from_records(range, SummarySpec::FULL, shard(1)));
        assert_eq!(merged, whole);
        let mut dist = ValueDist::new();
        for f in &flows {
            dist.add(u32::from(f.src_ip), 1);
        }
        assert_eq!(whole.dist(Feature::SrcIp), Some(&dist), "sort + run-length equals inserts");
    }

    #[test]
    fn add_counts_bins_and_refuses_exact_summaries() {
        let flows: Vec<FlowRecord> =
            (0..20).map(|i| flow(i, &format!("10.0.0.{}", i % 5), 80, 2)).collect();
        let range = TimeRange::new(0, 1000);
        let bins_only = SummarySpec { bins_log2: 7, exact: false };
        let mut counted = IntervalStat::with_spec(range, bins_only);
        for f in &flows {
            counted.add(f);
        }
        assert_eq!(counted, IntervalStat::from_records(range, bins_only, &flows));
        let refused = std::panic::catch_unwind(|| IntervalStat::empty(range).add(&flows[0]));
        assert!(refused.is_err(), "a per-record add would leave exact distributions stale");
    }

    #[test]
    fn covering_spec_takes_finest_bins_and_any_exact() {
        let spec = SummarySpec::covering([
            Reads::Bins { bins_log2: 5 },
            Reads::Bins { bins_log2: 9 },
            Reads::Exact,
        ]);
        assert_eq!(spec, SummarySpec { bins_log2: 9, exact: true });
        let kl_only = SummarySpec::covering([Reads::Bins { bins_log2: 7 }]);
        assert_eq!(kl_only, SummarySpec { bins_log2: 7, exact: false });
    }

    #[test]
    fn entropy_vector_reacts_to_port_scan_shape() {
        // Scan: one src, one dst, many dst ports -> dstPort entropy up.
        let normal: Vec<FlowRecord> =
            (0..200u16).map(|i| flow(1, &format!("10.0.{}.{}", i % 4, i % 50), 80, 1)).collect();
        let scan: Vec<FlowRecord> = (0..200u16).map(|i| flow(1, "10.0.0.9", i + 1, 1)).collect();
        let summary =
            |flows| IntervalStat::from_records(TimeRange::new(0, 1000), SummarySpec::FULL, flows);
        let n = summary(&normal).entropy_vector();
        let s = summary(&scan).entropy_vector();
        assert!(s[3] > n[3], "dstPort entropy should spike: {s:?} vs {n:?}");
        assert!(s[0] < n[0], "srcIP entropy should collapse");
    }
}
