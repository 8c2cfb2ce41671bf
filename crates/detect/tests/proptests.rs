//! Property tests for the detectors: entropy bounds, eigendecomposition
//! invariants, and detector sanity under arbitrary traffic.

use anomex_detect::prelude::*;
use anomex_flow::prelude::*;
use proptest::prelude::*;
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig::profile_cases(48))]

    /// 0 <= H <= log2(distinct); normalized entropy in [0, 1].
    #[test]
    fn entropy_bounds(values in prop::collection::vec((any::<u16>(), 1u64..1_000), 1..200)) {
        let mut d = ValueDist::new();
        for (v, w) in &values {
            d.add(*v as u32, *w);
        }
        let h = d.entropy();
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (d.distinct() as f64).log2() + 1e-9, "H={h} distinct={}", d.distinct());
        let nh = d.normalized_entropy();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&nh));
    }

    /// Entropy is permutation-invariant in the value labels.
    #[test]
    fn entropy_label_invariant(weights in prop::collection::vec(1u64..500, 2..50), shift in any::<u32>()) {
        let mut a = ValueDist::new();
        let mut b = ValueDist::new();
        for (i, w) in weights.iter().enumerate() {
            a.add(i as u32, *w);
            b.add((i as u32).wrapping_add(shift), *w);
        }
        prop_assert!((a.entropy() - b.entropy()).abs() < 1e-9);
    }

    /// Jacobi reconstructs arbitrary symmetric matrices and returns an
    /// orthonormal eigenbasis.
    #[test]
    fn jacobi_invariants(seed in prop::collection::vec(-10.0f64..10.0, 10)) {
        // Build a symmetric 4x4 from 10 free coefficients.
        let mut m = Matrix::zeros(4, 4);
        let mut it = seed.iter();
        for r in 0..4 {
            for c in r..4 {
                let v = *it.next().unwrap();
                m.set(r, c, v);
                m.set(c, r, v);
            }
        }
        let (vals, vecs) = jacobi_eigen(&m);
        // Sorted descending.
        for w in vals.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        // V D V^T == M.
        let mut d = Matrix::zeros(4, 4);
        for (i, &v) in vals.iter().enumerate() {
            d.set(i, i, v);
        }
        let rebuilt = vecs.matmul(&d).matmul(&vecs.transpose());
        for r in 0..4 {
            for c in 0..4 {
                prop_assert!((rebuilt.get(r, c) - m.get(r, c)).abs() < 1e-7);
            }
        }
        // Orthonormal columns.
        let gram = vecs.transpose().matmul(&vecs);
        for r in 0..4 {
            for c in 0..4 {
                let expect = if r == c { 1.0 } else { 0.0 };
                prop_assert!((gram.get(r, c) - expect).abs() < 1e-7);
            }
        }
    }

    /// Alarms (if any) always point inside the analyzed span and carry
    /// well-formed metadata, for arbitrary traffic.
    #[test]
    fn alarms_stay_in_span(
        seed in any::<u64>(),
        n_flows in 50usize..400,
        intervals in 6u64..12,
    ) {
        let width = 60_000u64;
        let span = TimeRange::new(0, intervals * width);
        let mut rng = Xoshiro256::seeded(seed);
        let flows: Vec<FlowRecord> = (0..n_flows)
            .map(|_| {
                let start = rng.next_below(intervals * width);
                FlowRecord::builder()
                    .time(start, (start + rng.next_below(5_000)).min(span.to_ms))
                    .src(Ipv4Addr::from(0x0A00_0000 + rng.next_below(256) as u32), 1024 + rng.next_below(60_000) as u16)
                    .dst(Ipv4Addr::from(0xAC10_0000 + rng.next_below(16) as u32), if rng.next_f64() < 0.5 { 80 } else { 443 })
                    .volume(1 + rng.next_below(100), 64 + rng.next_below(100_000))
                    .build()
            })
            .collect();

        let mut kl = KlDetector::new(KlConfig { interval_ms: width, ..KlConfig::default() });
        let mut pca = PcaDetector::new(PcaConfig { interval_ms: width, min_intervals: 6, ..PcaConfig::default() });
        for alarm in kl.detect(&flows, span).into_iter().chain(pca.detect(&flows, span)) {
            prop_assert!(alarm.window.from_ms >= span.from_ms);
            prop_assert!(alarm.window.to_ms <= span.to_ms);
            prop_assert!(alarm.score >= 0.0);
            for hint in &alarm.hints {
                // Hints must be internally consistent (feature/value kinds).
                prop_assert!(FeatureItem::checked(hint.feature, hint.value).is_some());
            }
        }
    }

    /// Summary-first merging: arbitrary records split over 1–4 shards
    /// merge into exactly the whole interval's summary — totals, bins
    /// and exact runs — so entropy is bit-identical whatever the split.
    #[test]
    fn merged_shard_summaries_equal_the_whole(
        records in prop::collection::vec(
            (0u32..64, 0u32..16, 0u16..40, 0u16..40, 1u64..50, 0u8..4),
            0..300,
        ),
        shards in 1usize..=4,
        bins_log2 in 0u8..=10,
    ) {
        let range = TimeRange::new(0, 60_000);
        let flows: Vec<(FlowRecord, usize)> = records
            .iter()
            .enumerate()
            .map(|(i, &(src, dst, sport, dport, packets, shard))| {
                let record = FlowRecord::builder()
                    .time(i as u64, i as u64 + 1)
                    .src(Ipv4Addr::from(0x0A00_0000 + src), sport)
                    .dst(Ipv4Addr::from(0xAC10_0000 + dst), dport)
                    .volume(packets, packets * 64)
                    .build();
                (record, usize::from(shard) % shards)
            })
            .collect();
        let spec = SummarySpec { bins_log2, exact: true };
        let whole = IntervalStat::from_records(range, spec, flows.iter().map(|(r, _)| r));
        let mut merged = IntervalStat::with_spec(range, spec);
        for shard in 0..shards {
            let part = flows.iter().filter(|(_, s)| *s == shard).map(|(r, _)| r);
            merged.merge(&IntervalStat::from_records(range, spec, part));
        }
        prop_assert_eq!(&merged, &whole);
        let (a, b) = (merged.entropy_vector(), whole.entropy_vector());
        for f in 0..4 {
            prop_assert_eq!(a[f].to_bits(), b[f].to_bits(), "feature {} entropy", f);
        }
    }

    /// KL's histogram read from the summary's bins equals the histogram
    /// folded from the exact distribution, at every resolution up to
    /// the summary's.
    #[test]
    fn bin_histograms_equal_exact_histograms(
        values in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()), 0..200),
        bins_log2 in 0u8..=12,
    ) {
        let flows: Vec<FlowRecord> = values
            .iter()
            .map(|&(src, dst, sport, dport)| {
                FlowRecord::builder()
                    .time(5, 6)
                    .src(Ipv4Addr::from(src), sport)
                    .dst(Ipv4Addr::from(dst), dport)
                    .volume(1, 64)
                    .build()
            })
            .collect();
        let stat = IntervalStat::from_records(
            TimeRange::new(0, 60_000),
            SummarySpec { bins_log2, exact: true },
            &flows,
        );
        let dists = stat.dists().expect("exact summary");
        for (f, dist) in dists.iter().enumerate() {
            for k in 0..=bins_log2 {
                prop_assert_eq!(stat.bin_counts(f, k), dist.bin_counts(k), "feature {} at {} bits", f, k);
            }
        }
    }

    /// The interval series conserves flow and packet counts.
    #[test]
    fn series_conserves_volume(
        seed in any::<u64>(),
        n_flows in 1usize..300,
    ) {
        let span = TimeRange::new(0, 600_000);
        let mut rng = Xoshiro256::seeded(seed);
        let flows: Vec<FlowRecord> = (0..n_flows)
            .map(|_| {
                let start = rng.next_below(600_000);
                FlowRecord::builder()
                    .time(start, start)
                    .src(Ipv4Addr::from(rng.next_below(u32::MAX as u64 + 1) as u32), 1)
                    .dst(Ipv4Addr::from(1u32), 2)
                    .volume(1 + rng.next_below(1_000), 64)
                    .build()
            })
            .collect();
        let series = IntervalSeries::cut(&flows, span, 60_000);
        let total_flows: u64 = series.intervals.iter().map(|i| i.flows).sum();
        let total_packets: u64 = series.intervals.iter().map(|i| i.packets).sum();
        prop_assert_eq!(total_flows, n_flows as u64);
        prop_assert_eq!(total_packets, flows.iter().map(|f| f.packets).sum::<u64>());
    }
}

/// End-to-end: both detectors flag a generated port scan embedded in
/// generated background, and the PCA meta-data names the victim or the
/// scanner.
#[test]
fn detectors_catch_generated_scan() {
    use anomex_gen::prelude::*;

    let width = 60_000u64;
    let intervals = 12u64;
    // Background across the whole window, scan confined to interval 9.
    let mut scenario = Scenario::new("det-e2e", 77, Backbone::Switch);
    scenario.background.duration_ms = intervals * width;
    scenario.background.flows = 12_000;
    let mut spec = AnomalySpec::template(
        AnomalyKind::PortScan,
        "10.103.0.66".parse().unwrap(),
        "172.20.1.40".parse().unwrap(),
    );
    spec.flows = 4_000;
    spec.start_ms = 9 * width;
    spec.duration_ms = width;
    let built = scenario.with_anomaly(spec).build();

    let flows = built.store.snapshot();
    let span = TimeRange::new(0, intervals * width);

    let mut kl = KlDetector::new(KlConfig { interval_ms: width, ..KlConfig::default() });
    let kl_alarms = kl.detect(&flows, span);
    assert!(
        kl_alarms.iter().any(|a| a.window.contains(9 * width)),
        "KL missed the scan: {:?}",
        kl_alarms.iter().map(|a| a.describe()).collect::<Vec<_>>()
    );

    let mut pca = PcaDetector::new(PcaConfig { interval_ms: width, ..PcaConfig::default() });
    let pca_alarms = pca.detect(&flows, span);
    let hit =
        pca_alarms.iter().find(|a| a.window.contains(9 * width)).expect("PCA missed the scan");
    let scanner: std::net::Ipv4Addr = "10.103.0.66".parse().unwrap();
    let victim: std::net::Ipv4Addr = "172.20.1.40".parse().unwrap();
    assert!(
        hit.hints.iter().any(|h| *h == FeatureItem::src_ip(scanner)
            || *h == FeatureItem::dst_ip(victim)
            || *h == FeatureItem::src_port(55_548)),
        "PCA meta-data useless: {:?}",
        hit.hints
    );
}
