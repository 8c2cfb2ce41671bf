//! **P1 — columnar mining engine throughput.**
//!
//! Flow transactions are 4 items wide, which is the regime the paper's
//! extended Apriori runs in. The interesting axes are minimum support
//! (levelwise Apriori is competitive at high support, pattern growth and
//! vertical mining win as support drops) and the encode cost per flow —
//! the columnar `TransactionMatrix` encode must stay allocation-free per
//! flow to keep re-mining cheap at streaming rates.
//!
//! Reports, per algorithm × min-support: mine time and **itemsets/sec**;
//! plus **encode ns/flow** for the dictionary/CSR build, a three-way
//! Eclat head-to-head (pre-refactor tid-vectors vs bitset tidsets vs
//! the dEclat diffset fast path, asserted ≥2x over tid-vectors), the
//! per-alarm window-local `encode_warm` against the cold encode on a
//! recurring and on a port-sweeping candidate population (asserted
//! never slower on either), and the full extraction step under the Apriori
//! paper config vs the dEclat default (asserted ≥2x). Results land on
//! stdout and in `BENCH_fim.json` (override with `BENCH_FIM_OUT`;
//! smoke runs write the gitignored `BENCH_fim_smoke.json` instead) so
//! CI tracks the trajectory. The speedup floors are skipped in smoke
//! mode, where timings are noise.
//!
//! Run: `cargo bench -p anomex-bench --bench perf_fim`
//! Sizing: `FIM_BENCH_FLOWS=200000` scales the corpus; passing `--test`
//! — or running without `--bench`, which is what `cargo test --benches`
//! does — switches to a small smoke run.

use std::collections::HashMap;
use std::time::Instant;

use anomex_bench::fmt;
use anomex_core::prelude::*;
use anomex_fim::prelude::*;
use anomex_fim::Eclat;
use anomex_gen::prelude::*;
use serde::Value;

/// Realistic candidate mix: background + an embedded scan, as one
/// anomalous window's candidate set.
fn corpus(n_flows: usize) -> Vec<anomex_flow::record::FlowRecord> {
    let mut spec = AnomalySpec::template(
        AnomalyKind::PortScan,
        "10.0.0.9".parse().unwrap(),
        "172.16.0.1".parse().unwrap(),
    );
    spec.flows = n_flows / 3;
    let mut scenario = Scenario::new("perf", 0xBE7C4, Backbone::Geant).with_anomaly(spec);
    scenario.background.flows = n_flows - n_flows / 3;
    scenario.build().store.snapshot()
}

/// The pre-refactor Eclat: per-item sorted `Vec<u32>` tid lists, merged
/// element by element. Kept here as the performance baseline the bitset
/// implementation must beat; results are cross-checked for equality.
mod tidvec_eclat {
    use super::*;

    pub fn mine(
        matrix: &TransactionMatrix,
        threshold: u64,
        max_len: usize,
    ) -> Vec<FrequentItemset> {
        let max_len = if max_len == 0 { usize::MAX } else { max_len };
        let weights: Vec<u64> = matrix.weights().to_vec();
        let mut tidlists: HashMap<u16, Vec<u32>> = HashMap::new();
        for (tid, (row, w)) in matrix.rows().enumerate() {
            if w == 0 {
                continue;
            }
            for &id in row {
                tidlists.entry(id).or_default().push(tid as u32);
            }
        }
        let support = |tids: &[u32]| -> u64 { tids.iter().map(|&t| weights[t as usize]).sum() };
        let mut roots: Vec<(u16, Vec<u32>, u64)> = tidlists
            .into_iter()
            .filter_map(|(id, tids)| {
                let s = support(&tids);
                (s >= threshold).then_some((id, tids, s))
            })
            .collect();
        roots.sort_by_key(|&(id, _, _)| id);

        let mut results = Vec::new();
        let mut prefix: Vec<u16> = Vec::new();
        for (i, (id, tids, s)) in roots.iter().enumerate() {
            prefix.push(*id);
            results.push(FrequentItemset::new(matrix.itemset_of(&prefix), *s));
            if max_len > 1 {
                dfs(
                    matrix,
                    &mut prefix,
                    tids,
                    &roots[i + 1..],
                    threshold,
                    max_len,
                    &weights,
                    &mut results,
                );
            }
            prefix.pop();
        }
        anomex_fim::sort_canonical(&mut results);
        results
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        matrix: &TransactionMatrix,
        prefix: &mut Vec<u16>,
        tids: &[u32],
        siblings: &[(u16, Vec<u32>, u64)],
        threshold: u64,
        max_len: usize,
        weights: &[u64],
        out: &mut Vec<FrequentItemset>,
    ) {
        let mut extensions: Vec<(u16, Vec<u32>, u64)> = Vec::new();
        for (id, sibling_tids, _) in siblings {
            let joined = intersect(tids, sibling_tids);
            let s: u64 = joined.iter().map(|&t| weights[t as usize]).sum();
            if s >= threshold {
                extensions.push((*id, joined, s));
            }
        }
        for (i, (id, joined, s)) in extensions.iter().enumerate() {
            prefix.push(*id);
            out.push(FrequentItemset::new(matrix.itemset_of(prefix), *s));
            if prefix.len() < max_len {
                dfs(matrix, prefix, joined, &extensions[i + 1..], threshold, max_len, weights, out);
            }
            prefix.pop();
        }
    }

    fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }
}

fn main() {
    // Full mode only under `cargo bench` (which passes `--bench`) and
    // without an explicit `--test`; `cargo test --benches` passes no
    // arguments at all and must stay a smoke run (no perf floors, no
    // committed-record writes from an unoptimized build).
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test") || !args.iter().any(|a| a == "--bench");
    let n_flows: usize = std::env::var("FIM_BENCH_FLOWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if test_mode { 6_000 } else { 40_000 });
    let iters: u32 = if test_mode { 2 } else { 5 };
    let flows = corpus(n_flows);

    print!("{}", fmt::banner("P1: columnar mining engine (itemsets/sec by algorithm × support)"));
    println!("corpus: {} flows (1/3 scan, 2/3 background), {iters} iters per cell\n", flows.len());

    // Encode cost: flows → dictionary-encoded CSR matrix.
    let encode_start = Instant::now();
    let mut encoded = encode_flows(&flows, SupportMetric::Flows);
    for _ in 1..iters {
        encoded = encode_flows(&flows, SupportMetric::Flows);
    }
    let encode_ns_per_flow =
        encode_start.elapsed().as_nanos() as f64 / (iters as f64 * flows.len() as f64);
    println!(
        "encode: {encode_ns_per_flow:.0} ns/flow ({} distinct items, {} rows)\n",
        encoded.n_items(),
        encoded.len()
    );

    let mut rows = vec![vec![
        "algorithm".to_string(),
        "min_sup".to_string(),
        "itemsets".to_string(),
        "mine ms".to_string(),
        "itemsets/sec".to_string(),
    ]];
    let mut measurements: Vec<Value> = Vec::new();
    for &support in &[0.05f64, 0.01, 0.002] {
        for algorithm in [Algorithm::Apriori, Algorithm::FpGrowth, Algorithm::Eclat] {
            let config = MiningConfig {
                algorithm,
                min_support: MinSupport::Fraction(support),
                max_len: 4,
                threads: 1,
            };
            let start = Instant::now();
            let mut found = 0usize;
            for _ in 0..iters {
                found = mine(&encoded, &config).len();
            }
            let elapsed = start.elapsed().as_secs_f64() / iters as f64;
            let rate = found as f64 / elapsed.max(1e-9);
            rows.push(vec![
                algorithm.to_string(),
                format!("{support}"),
                found.to_string(),
                format!("{:.2}", elapsed * 1_000.0),
                format!("{rate:.0}"),
            ]);
            measurements.push(Value::Object(vec![
                ("algorithm".to_string(), Value::Str(algorithm.to_string())),
                ("min_support".to_string(), Value::F64(support)),
                ("itemsets".to_string(), Value::U64(found as u64)),
                ("mine_ms".to_string(), Value::F64((elapsed * 1e6).round() / 1e3)),
                ("itemsets_per_sec".to_string(), Value::F64(rate.round())),
            ]));
        }
    }
    print!("{}", fmt::table(&rows));

    // Head-to-head: dEclat (diffsets + pair cache, the dispatch
    // default) vs the plain bitset tidset Eclat vs the pre-refactor
    // tid-vector Eclat. Every variant is cross-checked for equality.
    println!("\neclat: diffsets+pair-cache vs bitset tid-lists vs pre-refactor tid-vectors");
    let mut eclat_rows = vec![vec![
        "min_sup".to_string(),
        "tid-vector ms".to_string(),
        "bitset ms".to_string(),
        "diffset ms".to_string(),
        "diffset vs tidvec".to_string(),
    ]];
    let mut eclat_cmp: Vec<Value> = Vec::new();
    let mut worst_fastpath_speedup = f64::INFINITY;
    for &support in &[0.05f64, 0.01, 0.002] {
        let threshold = MinSupport::Fraction(support).resolve(encoded.total_weight());
        let start = Instant::now();
        let mut legacy = Vec::new();
        for _ in 0..iters {
            legacy = tidvec_eclat::mine(&encoded, threshold, 4);
        }
        let legacy_ms = start.elapsed().as_secs_f64() * 1_000.0 / iters as f64;

        let config = MiningConfig {
            algorithm: Algorithm::Eclat,
            min_support: MinSupport::Absolute(threshold),
            max_len: 4,
            threads: 1,
        };
        // Fresh matrix per measured variant so the bitset/cache build
        // cost is *included* (cached reuse would flatter the new path).
        let fresh = encode_flows(&flows, SupportMetric::Flows);
        let start = Instant::now();
        let mut bitset = Vec::new();
        for _ in 0..iters {
            bitset = Eclat::LEGACY.mine(&fresh, &config);
        }
        let bitset_ms = start.elapsed().as_secs_f64() * 1_000.0 / iters as f64;
        assert_eq!(legacy, bitset, "tid-vector and bitset Eclat must agree at {support}");

        let fresh = encode_flows(&flows, SupportMetric::Flows);
        let start = Instant::now();
        let mut diffset = Vec::new();
        for _ in 0..iters {
            diffset = Eclat::DEFAULT.mine(&fresh, &config);
        }
        let diffset_ms = start.elapsed().as_secs_f64() * 1_000.0 / iters as f64;
        assert_eq!(legacy, diffset, "diffset and tid-vector Eclat must agree at {support}");

        let speedup = legacy_ms / bitset_ms.max(1e-9);
        // The committed floor is the fast path (diffsets + pair cache,
        // what `Algorithm::Eclat` dispatches to) against the
        // pre-refactor tid-vector miner. The bitset-vs-diffset delta is
        // reported but not floored: on fixed-width dense bitsets an
        // AND-NOT costs the same word ops as an AND, and the paper's
        // 4-item transactions keep the DFS too shallow for diffsets to
        // dominate — the diffset path exists for the deep/dense regime
        // and must simply never regress the common one.
        let fastpath_speedup = legacy_ms / diffset_ms.max(1e-9);
        worst_fastpath_speedup = worst_fastpath_speedup.min(fastpath_speedup);
        eclat_rows.push(vec![
            format!("{support}"),
            format!("{legacy_ms:.2}"),
            format!("{bitset_ms:.2}"),
            format!("{diffset_ms:.2}"),
            format!("{fastpath_speedup:.2}x"),
        ]);
        eclat_cmp.push(Value::Object(vec![
            ("min_support".to_string(), Value::F64(support)),
            ("tidvec_ms".to_string(), Value::F64((legacy_ms * 1e3).round() / 1e3)),
            ("bitset_ms".to_string(), Value::F64((bitset_ms * 1e3).round() / 1e3)),
            ("diffset_ms".to_string(), Value::F64((diffset_ms * 1e3).round() / 1e3)),
            ("speedup".to_string(), Value::F64((speedup * 100.0).round() / 100.0)),
            (
                "diffset_vs_tidvec_speedup".to_string(),
                Value::F64((fastpath_speedup * 100.0).round() / 100.0),
            ),
        ]));
    }
    print!("{}", fmt::table(&eclat_rows));
    println!(
        "\ndiffset fast path vs pre-refactor tid-vectors, worst across supports: \
         {worst_fastpath_speedup:.2}x (acceptance floor 2x)"
    );
    if !test_mode {
        assert!(
            worst_fastpath_speedup >= 2.0,
            "the dEclat fast path regressed below the 2x-vs-tid-vector acceptance floor: \
             {worst_fastpath_speedup:.2}x"
        );
    }

    // The per-alarm encode: the streaming path encodes one candidate
    // set per alarmed window, through an `EncodeState` that keeps its
    // capacity but no items between calls. Measured against the cold
    // `EncodedFlows::encode` (count pass, sorted dictionary, row remap)
    // on two candidate populations: one that recurs from window to
    // window (stable servers, popular ports) and one that churns (a
    // scan resuming each window where the last one stopped, sweeping
    // the port space — the regime that used to fill a cross-window
    // dictionary to its cap). The raw scenario corpus above is
    // deliberately NOT used here: its unfiltered background carries more
    // distinct items than the `u16` id space, which is the cold
    // fallback, not the interning path.
    let window_count = 12usize;
    let window_flows = (flows.len() / window_count).max(1);
    let mut rng_state = 0x5EEDu64;
    let mut rng = move || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        rng_state >> 33
    };
    let record = |at: u64, src: (u32, u16), dst: (u32, u16)| {
        anomex_flow::record::FlowRecord::builder()
            .time(at, at + 10)
            .src(std::net::Ipv4Addr::from(src.0), src.1)
            .dst(std::net::Ipv4Addr::from(dst.0), dst.1)
            .volume(3, 1_500)
            .build()
    };
    let recurring: Vec<Vec<anomex_flow::record::FlowRecord>> = (0..window_count)
        .map(|w| {
            (0..window_flows)
                .map(|i| {
                    let (client, server, sport, dport) =
                        (rng() % 1_024, rng() % 48, rng() % 2_048, rng() % 6);
                    record(
                        (w * 60_000 + i) as u64,
                        (0x0A00_0000 + client as u32, 32_768 + sport as u16),
                        (
                            0xAC10_0000 + server as u32,
                            [80u16, 443, 53, 25, 123, 8_080][dport as usize],
                        ),
                    )
                })
                .collect()
        })
        .collect();
    let sweeping: Vec<Vec<anomex_flow::record::FlowRecord>> = (0..window_count)
        .map(|w| {
            (0..window_flows)
                .map(|i| {
                    let port = ((w * window_flows + i) % 65_536) as u16;
                    record((w * 60_000 + i) as u64, (0x0A00_0009, 55_548), (0xAC10_0001, port))
                })
                .collect()
        })
        .collect();
    let windowed_flows = (window_count * window_flows) as f64;

    let mut encode_warm_vs_cold: Vec<(String, Value)> = vec![
        ("windows".to_string(), Value::U64(window_count as u64)),
        ("window_flows".to_string(), Value::U64(window_flows as u64)),
    ];
    println!();
    for (corpus, windows) in [("recurring", &recurring), ("sweeping", &sweeping)] {
        let start = Instant::now();
        for _ in 0..iters {
            for window in windows {
                std::hint::black_box(EncodedFlows::encode(window));
            }
        }
        let cold_ns_per_flow = start.elapsed().as_nanos() as f64 / (iters as f64 * windowed_flows);

        // One untimed pass grows the state's buffers, as the first
        // alarms of a stream do.
        let mut state = EncodeState::new();
        let mut max_items = 0usize;
        for window in windows {
            std::hint::black_box(EncodedFlows::encode_warm(window, &mut state));
            max_items = max_items.max(state.interned());
        }
        let _ = state.take_stats();
        let start = Instant::now();
        for _ in 0..iters {
            for window in windows {
                std::hint::black_box(EncodedFlows::encode_warm(window, &mut state));
            }
        }
        let warm_ns_per_flow = start.elapsed().as_nanos() as f64 / (iters as f64 * windowed_flows);
        let stats = state.take_stats();
        assert_eq!(stats.overflows, 0, "a {corpus} window must fit the dictionary");
        let speedup = cold_ns_per_flow / warm_ns_per_flow.max(1e-9);
        println!(
            "encode, {corpus}: {window_count} windows x {window_flows} candidate flows \
             (<= {max_items} distinct items per window): cold {cold_ns_per_flow:.0} ns/flow, \
             window-local warm {warm_ns_per_flow:.0} ns/flow ({speedup:.2}x, {} hits / {} \
             misses; acceptance floor: never slower than cold)",
            stats.hits, stats.misses
        );
        if !test_mode {
            assert!(
                speedup >= 1.0,
                "window-local encode_warm is slower than the cold encode on the {corpus} corpus: \
                 {speedup:.2}x"
            );
        }
        encode_warm_vs_cold.push((
            corpus.to_string(),
            Value::Object(vec![
                ("max_items_per_window".to_string(), Value::U64(max_items as u64)),
                (
                    "cold_ns_per_flow".to_string(),
                    Value::F64((cold_ns_per_flow * 10.0).round() / 10.0),
                ),
                (
                    "warm_ns_per_flow".to_string(),
                    Value::F64((warm_ns_per_flow * 10.0).round() / 10.0),
                ),
                ("speedup".to_string(), Value::F64((speedup * 100.0).round() / 100.0)),
                ("dict_hits".to_string(), Value::U64(stats.hits)),
                ("dict_misses".to_string(), Value::U64(stats.misses)),
            ]),
        ));
    }
    let encode_warm_vs_cold = Value::Object(encode_warm_vs_cold);

    // The paper's full extraction step (dual metric + self-tuning) over
    // the shared-structure encode, for the end-to-end trajectory. The
    // paper configuration pins the levelwise Apriori; the default
    // configuration routes the same extraction through the dEclat fast
    // path — identical output, and the speedup between them is the
    // committed extract+mine evidence for this corpus.
    let paper = Extractor::new(ExtractorConfig::geant_paper());
    let start = Instant::now();
    let mut paper_itemsets = 0usize;
    for _ in 0..iters {
        paper_itemsets = paper.extract_from_candidates(&flows).itemsets.len();
    }
    let extract_ms = start.elapsed().as_secs_f64() * 1_000.0 / iters as f64;

    let fast = Extractor::new(ExtractorConfig::default());
    let start = Instant::now();
    let mut fast_itemsets = 0usize;
    for _ in 0..iters {
        fast_itemsets = fast.extract_from_candidates(&flows).itemsets.len();
    }
    let extract_eclat_ms = start.elapsed().as_secs_f64() * 1_000.0 / iters as f64;
    assert_eq!(
        paper_itemsets, fast_itemsets,
        "Apriori and dEclat extraction must report the same itemsets"
    );
    let extract_speedup = extract_ms / extract_eclat_ms.max(1e-9);
    println!(
        "\nextract (dual metric, self-tuned): apriori {extract_ms:.1} ms, \
         dEclat {extract_eclat_ms:.1} ms ({extract_speedup:.2}x, \
         {paper_itemsets} itemsets; acceptance floor 2x)"
    );
    if !test_mode {
        assert!(
            extract_speedup >= 2.0,
            "dEclat extract+mine regressed below the 2x-vs-Apriori acceptance floor: \
             {extract_speedup:.2}x"
        );
    }

    let doc = Value::Object(vec![
        ("bench".to_string(), Value::Str("perf_fim".to_string())),
        ("corpus_flows".to_string(), Value::U64(flows.len() as u64)),
        ("iters".to_string(), Value::U64(iters as u64)),
        ("encode_ns_per_flow".to_string(), Value::F64(encode_ns_per_flow.round())),
        ("distinct_items".to_string(), Value::U64(encoded.n_items() as u64)),
        ("results".to_string(), Value::Array(measurements)),
        ("eclat_bitset_vs_tidvec".to_string(), Value::Array(eclat_cmp)),
        ("encode_warm_vs_cold".to_string(), encode_warm_vs_cold),
        ("extract_ms".to_string(), Value::F64((extract_ms * 1e3).round() / 1e3)),
        ("extract_eclat_ms".to_string(), Value::F64((extract_eclat_ms * 1e3).round() / 1e3)),
        ("extract_speedup".to_string(), Value::F64((extract_speedup * 100.0).round() / 100.0)),
    ]);
    let default_out = if test_mode { "BENCH_fim_smoke.json" } else { "BENCH_fim.json" };
    let path = std::env::var("BENCH_FIM_OUT").unwrap_or_else(|_| default_out.to_string());
    let json = serde_json::to_string_pretty(&doc).expect("render bench json");
    std::fs::write(&path, json + "\n").expect("write bench json");
    println!("wrote {path}");
}
