//! Flow ⇄ itemset encoding.
//!
//! "We model a flow as an itemset" (§1): each flow record becomes a
//! transaction over four items — its srcIP, dstIP, srcPort and dstPort
//! values. The paper's packet-support extension is a weighting choice on
//! the same transactions: weight 1 per flow, or `packets` per flow.
//!
//! Encoding goes straight into the columnar
//! [`TransactionMatrix`](anomex_fim::TransactionMatrix): rows stream into
//! flat buffers with **no per-flow heap allocation**, and the dual-metric
//! entry point ([`EncodedFlows`]) encodes the structure once and derives
//! the flow- and packet-weight views from the same CSR buffers (sharing
//! the bitset tid-list cache between both mining passes).

use anomex_fim::{
    DictMatrixBuilder, Item, ItemDictionary, Itemset, MatrixBuilder, TransactionMatrix,
};
use anomex_flow::feature::{Feature, FeatureItem, FeatureValue};
use anomex_flow::filter::{CmpOp, Dir, Expr, Filter, Pred};
use anomex_flow::record::FlowRecord;
use serde::{Deserialize, Serialize};

/// Which quantity an itemset's support counts — the axis of the paper's
/// "compute the support of an itemset in terms of packets in addition to
/// flows" extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SupportMetric {
    /// Transactions weighted 1 per flow record (classic Apriori).
    Flows,
    /// Transactions weighted by the flow's packet count.
    Packets,
    /// Transactions weighted by the flow's byte count — the third axis
    /// NetFlow tooling reports. The paper's extractor mines flows and
    /// packets; byte weighting is provided for custom pipelines (e.g.
    /// alpha-flow hunting, where bytes dominate both other metrics).
    Bytes,
}

impl std::fmt::Display for SupportMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SupportMetric::Flows => "flows",
            SupportMetric::Packets => "packets",
            SupportMetric::Bytes => "bytes",
        })
    }
}

/// Encode a feature item into an opaque mining item
/// (tag byte = feature, payload = raw value).
pub fn item_of(feature_item: FeatureItem) -> Item {
    Item::encode(feature_item.feature.tag(), feature_item.value.raw())
}

/// Decode a mining item back into a feature item.
///
/// Returns `None` for items that were not produced by [`item_of`]
/// (unknown tag or out-of-range payload).
pub fn feature_of(item: Item) -> Option<FeatureItem> {
    let feature = Feature::from_tag(item.tag())?;
    let value = FeatureValue::from_raw(feature, item.payload())?;
    FeatureItem::checked(feature, value)
}

/// The four mining items of one flow, as [`Item`]s.
pub fn items_of_flow(flow: &FlowRecord) -> Vec<Item> {
    flow.mining_items().iter().map(|fi| item_of(*fi)).collect()
}

fn metric_weight(flow: &FlowRecord, metric: SupportMetric) -> u64 {
    match metric {
        SupportMetric::Flows => 1,
        SupportMetric::Packets => flow.packets,
        SupportMetric::Bytes => flow.bytes,
    }
}

/// Encode flows into a columnar transaction matrix under the chosen
/// support metric.
///
/// Zero-weight records (possible after aggressive sampling arithmetic)
/// are kept for [`SupportMetric::Flows`] and dropped for the volume
/// metrics — a weight of zero can never contribute support and would
/// only slow the miner down. The encode itself performs no per-flow heap
/// allocation: each record's four items land directly in the matrix
/// builder's flat buffers.
pub fn encode_flows(flows: &[FlowRecord], metric: SupportMetric) -> TransactionMatrix {
    let mut builder = MatrixBuilder::with_capacity(flows.len(), 4);
    for f in flows {
        let weight = metric_weight(f, metric);
        if weight > 0 {
            builder.push_row(f.mining_items().iter().map(|&fi| item_of(fi)), weight);
        }
    }
    builder.build()
}

/// Reusable encode state for [`EncodedFlows::encode_warm`]: the intern
/// map and row buffers keep their *capacity* between calls, so a stream
/// of alarms allocates only each matrix's exact-size columns. No item
/// survives a call — every encode interns from empty, so its cost and
/// its matrix's dictionary depend on that candidate set alone.
#[derive(Debug, Default)]
pub struct EncodeState {
    dict: ItemDictionary,
    packets: Vec<u64>,
    overflows: u64,
    dropped_items: u64,
}

/// Dictionary traffic since the last [`EncodeState::take_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodeStats {
    /// Items that repeated an item interned earlier in the same encode.
    pub hits: u64,
    /// Items interned (first occurrence within their encode).
    pub misses: u64,
    /// Encodes whose candidate set held more distinct items than one
    /// matrix can (`TransactionMatrix::CAPACITY`) and fell back to the
    /// cold build.
    pub overflows: u64,
    /// Least-frequent items those cold builds dropped
    /// (`TransactionMatrix::dropped_items`).
    pub dropped_items: u64,
}

impl EncodeState {
    /// Fresh state.
    pub fn new() -> EncodeState {
        EncodeState::default()
    }

    /// Distinct items the last encode interned.
    pub fn interned(&self) -> usize {
        self.dict.len()
    }

    /// Drain the counters accumulated since the last call — the
    /// `extract.dict_*` / `extract.dropped_items` metric sources.
    pub fn take_stats(&mut self) -> EncodeStats {
        let (hits, misses) = self.dict.take_stats();
        EncodeStats {
            hits,
            misses,
            overflows: std::mem::take(&mut self.overflows),
            dropped_items: std::mem::take(&mut self.dropped_items),
        }
    }
}

/// One candidate set encoded once, mined under both of the paper's
/// support metrics.
///
/// The CSR structure (dictionary, rows, bitset tid-list cache) is built
/// a single time and shared between the flow-weight and packet-weight
/// views — re-mining the same window under the second metric, or at
/// another threshold of the top-k search, never re-encodes.
#[derive(Debug, Clone)]
pub struct EncodedFlows {
    flow_matrix: TransactionMatrix,
    packet_weights: Vec<u64>,
    /// Materialized on first use — a flow-support-only extraction never
    /// pays the packet view's support-counting pass.
    packet_matrix: std::sync::OnceLock<TransactionMatrix>,
    candidate_packets: u64,
}

impl EncodedFlows {
    fn new(flow_matrix: TransactionMatrix, packet_weights: Vec<u64>) -> EncodedFlows {
        let candidate_packets = packet_weights.iter().sum();
        EncodedFlows {
            flow_matrix,
            packet_weights,
            packet_matrix: std::sync::OnceLock::new(),
            candidate_packets,
        }
    }

    /// Encode `flows` once through the cold [`MatrixBuilder`] (count
    /// pass, sorted dictionary, row remap); the packet-weight view is
    /// derived lazily from the same structure. The reference
    /// [`encode_warm`](EncodedFlows::encode_warm) is tested against,
    /// and its fallback past the dictionary's capacity.
    pub fn encode<'a>(flows: impl IntoIterator<Item = &'a FlowRecord>) -> EncodedFlows {
        let flows = flows.into_iter();
        let rows = flows.size_hint().0;
        let mut builder = MatrixBuilder::with_capacity(rows, 4);
        let mut packets = Vec::with_capacity(rows);
        for f in flows {
            builder.push_row(f.mining_items().iter().map(|&fi| item_of(fi)), 1);
            packets.push(f.packets);
        }
        EncodedFlows::new(builder.build(), packets)
    }

    /// Encode `flows` by interning into `state`'s reusable dictionary:
    /// one pass, straight from borrowed records — no count pass, no
    /// dictionary sort, no row remap, no candidate `Vec`. Mines
    /// bit-identically to [`encode`](EncodedFlows::encode) — only the
    /// dense-id numbering differs, and mined output is canonicalized in
    /// item space. A candidate set with more distinct items than one
    /// matrix holds takes the cold build instead (which drops the
    /// least-frequent tail) and is counted in [`EncodeStats`].
    pub fn encode_warm<'a, I>(flows: I, state: &mut EncodeState) -> EncodedFlows
    where
        I: IntoIterator<Item = &'a FlowRecord>,
        I::IntoIter: Clone,
    {
        let flows = flows.into_iter();
        state.packets.clear();
        let mut builder = DictMatrixBuilder::new(&mut state.dict);
        for f in flows.clone() {
            builder.push_row(f.mining_items().iter().map(|&fi| item_of(fi)), 1);
            state.packets.push(f.packets);
        }
        match builder.build() {
            Some(flow_matrix) => EncodedFlows::new(flow_matrix, state.packets.clone()),
            None => {
                let cold = EncodedFlows::encode(flows);
                state.overflows += 1;
                state.dropped_items += cold.flow_matrix.dropped_items();
                cold
            }
        }
    }

    /// The flow-support view (weight 1 per record).
    pub fn flow_matrix(&self) -> &TransactionMatrix {
        &self.flow_matrix
    }

    /// The packet-support view (weight = packet count), sharing the
    /// flow view's CSR structure and bitset cache. Zero-packet rows stay
    /// in the structure but are inert (weight 0 never contributes
    /// support).
    pub fn packet_matrix(&self) -> &TransactionMatrix {
        self.packet_matrix
            .get_or_init(|| self.flow_matrix.with_weights(self.packet_weights.clone()))
    }

    /// Number of encoded candidate flows.
    pub fn candidate_flows(&self) -> usize {
        self.flow_matrix.len()
    }

    /// Packet total of the candidates.
    pub fn candidate_packets(&self) -> u64 {
        self.candidate_packets
    }
}

/// Decode a mined itemset into feature items, canonically ordered by
/// feature (srcIP, dstIP, srcPort, dstPort). Undecodable items are
/// dropped — they cannot occur for itemsets mined from [`encode_flows`]
/// output.
pub fn decode_itemset(itemset: &Itemset) -> Vec<FeatureItem> {
    let mut out: Vec<FeatureItem> = itemset.items().iter().filter_map(|&i| feature_of(i)).collect();
    out.sort_by_key(|fi| fi.feature.tag());
    out
}

/// The drill-down filter of an itemset: the conjunction of equality
/// predicates on every present dimension (absent dimensions = wildcard,
/// rendered `*` in Table-1 reports).
pub fn itemset_filter(items: &[FeatureItem]) -> Filter {
    let mut expr: Option<Expr> = None;
    for fi in items {
        let pred = match (fi.feature, fi.value) {
            (Feature::SrcIp, FeatureValue::Ip(ip)) => Pred::Ip(Dir::Src, ip),
            (Feature::DstIp, FeatureValue::Ip(ip)) => Pred::Ip(Dir::Dst, ip),
            (Feature::SrcPort, FeatureValue::Port(p)) => Pred::Port(Dir::Src, CmpOp::Eq, p),
            (Feature::DstPort, FeatureValue::Port(p)) => Pred::Port(Dir::Dst, CmpOp::Eq, p),
            (Feature::Proto, FeatureValue::Proto(p)) => Pred::Proto(p),
            // Kind mismatches cannot be built via FeatureItem::checked.
            _ => continue,
        };
        let leaf = Expr::Pred(pred);
        expr = Some(match expr {
            None => leaf,
            Some(e) => e.and(leaf),
        });
    }
    match expr {
        None => Filter::any(),
        Some(e) => Filter::from_expr(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_fim::{mine, Algorithm, MinSupport, MiningConfig};
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn flow() -> FlowRecord {
        FlowRecord::builder()
            .src(ip("10.0.0.1"), 4242)
            .dst(ip("172.16.0.2"), 80)
            .volume(50, 4_000)
            .build()
    }

    #[test]
    fn item_roundtrip_every_feature() {
        for fi in [
            FeatureItem::src_ip(ip("203.0.113.7")),
            FeatureItem::dst_ip(ip("0.0.0.0")),
            FeatureItem::src_port(0),
            FeatureItem::dst_port(65_535),
        ] {
            assert_eq!(feature_of(item_of(fi)), Some(fi));
        }
    }

    #[test]
    fn feature_of_rejects_garbage_tag() {
        assert_eq!(feature_of(Item::encode(200, 1)), None);
    }

    #[test]
    fn flow_encodes_to_four_items() {
        let items = items_of_flow(&flow());
        assert_eq!(items.len(), 4);
        let decoded: Vec<FeatureItem> = items.iter().filter_map(|&i| feature_of(i)).collect();
        assert!(decoded.contains(&FeatureItem::src_ip(ip("10.0.0.1"))));
        assert!(decoded.contains(&FeatureItem::dst_port(80)));
    }

    #[test]
    fn flow_metric_weights_one() {
        let txs = encode_flows(&[flow(), flow()], SupportMetric::Flows);
        assert_eq!(txs.len(), 2);
        assert_eq!(txs.total_weight(), 2);
    }

    #[test]
    fn packet_metric_weights_packets() {
        let txs = encode_flows(&[flow()], SupportMetric::Packets);
        assert_eq!(txs.total_weight(), 50);
    }

    #[test]
    fn byte_metric_weights_bytes() {
        let txs = encode_flows(&[flow()], SupportMetric::Bytes);
        assert_eq!(txs.total_weight(), 4_000);
    }

    #[test]
    fn byte_mining_surfaces_alpha_flows() {
        // One huge transfer among many small flows: only the byte
        // weighting ranks it first.
        let mut flows = vec![FlowRecord::builder()
            .src(ip("10.7.7.7"), 33_000)
            .dst(ip("172.16.0.9"), 873)
            .volume(900, 1_300_000_000)
            .build()];
        for i in 0..200u32 {
            flows.push(
                FlowRecord::builder()
                    .src(Ipv4Addr::from(0x0A000300 + i), 1024 + i as u16)
                    .dst(ip("172.16.0.2"), 80)
                    .volume(50, 60_000)
                    .build(),
            );
        }
        let bytes = encode_flows(&flows, SupportMetric::Bytes);
        let alpha = Itemset::new(items_of_flow(&flows[0]));
        let web = Itemset::new(vec![item_of(FeatureItem::dst_port(80))]);
        assert!(bytes.support_of(&alpha) > bytes.support_of(&web));
        // ... while flow support says the opposite.
        let by_flows = encode_flows(&flows, SupportMetric::Flows);
        assert!(by_flows.support_of(&alpha) < by_flows.support_of(&web));
    }

    #[test]
    fn packet_metric_drops_zero_packet_records() {
        let mut f = flow();
        f.packets = 0;
        assert_eq!(encode_flows(&[f.clone()], SupportMetric::Packets).len(), 0);
        assert_eq!(encode_flows(&[f], SupportMetric::Flows).len(), 1);
    }

    #[test]
    fn decode_orders_by_feature() {
        let itemset = Itemset::new(vec![
            item_of(FeatureItem::dst_port(80)),
            item_of(FeatureItem::src_ip(ip("10.0.0.1"))),
        ]);
        let decoded = decode_itemset(&itemset);
        assert_eq!(decoded[0].feature, Feature::SrcIp);
        assert_eq!(decoded[1].feature, Feature::DstPort);
    }

    #[test]
    fn itemset_filter_matches_exactly_its_flows() {
        let items = vec![FeatureItem::src_ip(ip("10.0.0.1")), FeatureItem::dst_port(80)];
        let filter = itemset_filter(&items);
        assert!(filter.matches(&flow()));
        let mut other = flow();
        other.dst_port = 443;
        assert!(!filter.matches(&other));
        let mut other2 = flow();
        other2.src_ip = ip("10.0.0.9");
        assert!(!filter.matches(&other2));
    }

    #[test]
    fn empty_itemset_filter_matches_everything() {
        assert!(itemset_filter(&[]).matches(&flow()));
    }

    /// `n` scan flows from one attacker sweeping `n` consecutive dst
    /// ports from `first_port` (wrapping), over a small benign mix.
    fn sweep_window(first_port: u32, n: u32) -> Vec<FlowRecord> {
        let scan = (0..n).map(|i| {
            (ip("10.66.66.66"), 55_548, ip("172.16.0.99"), (first_port + i) % 65_536, 1 + i % 3)
        });
        let benign = (0..60u32).map(|i| {
            (Ipv4Addr::from(0x0A00_0000 + i % 7), 40_000 + i % 3, ip("172.16.0.1"), 80, 3 + i)
        });
        scan.chain(benign)
            .map(|(src, sport, dst, dport, packets)| {
                let (sport, dport) = (sport as u16, dport as u16);
                FlowRecord::builder()
                    .src(src, sport)
                    .dst(dst, dport)
                    .volume(packets as u64, 900)
                    .build()
            })
            .collect()
    }

    fn distinct_items(flows: &[FlowRecord]) -> usize {
        let items: std::collections::HashSet<Item> = flows.iter().flat_map(items_of_flow).collect();
        items.len()
    }

    fn eclat(min_support: u64) -> MiningConfig {
        let min_support = MinSupport::Absolute(min_support);
        MiningConfig { algorithm: Algorithm::Eclat, min_support, max_len: 4, threads: 1 }
    }

    #[test]
    fn warm_encode_mines_bit_identically_to_cold_across_windows() {
        // Twelve windows of a 6k-flow scan resuming where the last one
        // stopped: the sweep covers the whole port space (and wraps), the
        // regime that used to grow a cross-window dictionary to its cap.
        let config = eclat(20);
        let mut state = EncodeState::new();
        for w in 0..12u32 {
            let flows = sweep_window(w * 6_000, 6_000);
            let warm = EncodedFlows::encode_warm(&flows, &mut state);
            let cold = EncodedFlows::encode(&flows);
            assert_eq!(warm.candidate_flows(), cold.candidate_flows());
            assert_eq!(warm.candidate_packets(), cold.candidate_packets());
            // Mined output is canonical in item space, so warm (dense
            // ids in first-seen order) and cold (ids in item order) must
            // agree exactly — on both support metrics.
            assert_eq!(mine(warm.flow_matrix(), &config), mine(cold.flow_matrix(), &config));
            assert_eq!(mine(warm.packet_matrix(), &config), mine(cold.packet_matrix(), &config));
            // Window-local: the dictionary holds this window's items and
            // nothing from the eleven before it.
            assert_eq!(state.interned(), distinct_items(&flows), "window {w}");
            assert_eq!(warm.flow_matrix().n_items(), state.interned());
        }
        let stats = state.take_stats();
        assert!(stats.hits > stats.misses, "scanner and victim repeat within every window");
        assert_eq!((stats.overflows, stats.dropped_items), (0, 0));
    }

    #[test]
    fn warm_encode_state_reports_dictionary_traffic() {
        // One candidate set past the id space: 33k flows with distinct
        // source and destination ports are 66k+ distinct items. The
        // encode falls back to the cold build, which drops the
        // least-frequent tail — loudly.
        let wide: Vec<FlowRecord> = (0..33_000u32)
            .map(|i| {
                FlowRecord::builder()
                    .src(ip("10.66.66.66"), i as u16)
                    .dst(ip("172.16.0.99"), (i + 40_000) as u16)
                    .volume(2, 88)
                    .build()
            })
            .collect();
        let dropped = (distinct_items(&wide) - TransactionMatrix::CAPACITY) as u64;
        assert!(dropped > 0);
        let mut state = EncodeState::new();
        let warm = EncodedFlows::encode_warm(&wide, &mut state);
        let cold = EncodedFlows::encode(&wide);
        assert_eq!(warm.flow_matrix().dropped_items(), dropped);
        let stats = state.take_stats();
        assert_eq!((stats.overflows, stats.dropped_items), (1, dropped));
        let config = eclat(10);
        assert_eq!(mine(warm.flow_matrix(), &config).len(), 3, "srcIP, dstIP, pair");
        for (warm, cold) in
            [(warm.flow_matrix(), cold.flow_matrix()), (warm.packet_matrix(), cold.packet_matrix())]
        {
            assert_eq!(mine(warm, &config), mine(cold, &config));
        }

        // Reuse is counted within one encode, never across two — and
        // the overflow left nothing behind either.
        let flows = vec![flow(), flow()];
        for _ in 0..2 {
            let _ = EncodedFlows::encode_warm(&flows, &mut state);
            let expected = EncodeStats { hits: 4, misses: 4, overflows: 0, dropped_items: 0 };
            assert_eq!(state.take_stats(), expected);
            assert_eq!(state.interned(), 4);
        }
    }

    #[test]
    fn itemset_filter_roundtrips_through_language() {
        // The generated filter must speak the same language as the parser.
        let items =
            vec![FeatureItem::src_ip(ip("10.0.0.1")), FeatureItem::dst_ip(ip("172.16.0.2"))];
        let filter = itemset_filter(&items);
        let reparsed = Filter::parse(&filter.to_string()).expect("printable filter must parse");
        assert!(reparsed.matches(&flow()));
    }
}
