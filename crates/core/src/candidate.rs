//! Candidate flow selection.
//!
//! Step 1 of the paper's pipeline: "a detector raises an alarm for a time
//! interval and identifies related meta-data, such as affected IP
//! addresses or port numbers: this provides a set of candidate anomalous
//! flows". The candidate set is the union (logical OR) of the meta-data
//! hints over the alarm window — deliberately generous, since hints "can
//! miss part of an anomaly or may include a large number of
//! false-positive flows"; the miner separates structure from noise.

use anomex_detect::alarm::Alarm;
use anomex_flow::feature::{Feature, FeatureItem, FeatureValue};
use anomex_flow::filter::{CmpOp, Dir, Expr, Filter, Pred};
use anomex_flow::record::FlowRecord;
use anomex_flow::store::{FlowStore, TimeRange};

/// How candidate flows are selected from the alarm window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidatePolicy {
    /// Union of the meta-data hints (the paper's system). Falls back to
    /// the whole interval when the alarm carries no hints.
    HintUnion,
    /// Ignore hints, mine the whole interval (the ablation baseline of
    /// DESIGN.md §5: "candidate pre-filtering by meta-data union vs
    /// mining the whole interval").
    WholeInterval,
}

/// The filter corresponding to one hint (equality on its dimension).
fn hint_pred(hint: FeatureItem) -> Option<Pred> {
    Some(match (hint.feature, hint.value) {
        (Feature::SrcIp, FeatureValue::Ip(ip)) => Pred::Ip(Dir::Src, ip),
        (Feature::DstIp, FeatureValue::Ip(ip)) => Pred::Ip(Dir::Dst, ip),
        (Feature::SrcPort, FeatureValue::Port(p)) => Pred::Port(Dir::Src, CmpOp::Eq, p),
        (Feature::DstPort, FeatureValue::Port(p)) => Pred::Port(Dir::Dst, CmpOp::Eq, p),
        (Feature::Proto, FeatureValue::Proto(p)) => Pred::Proto(p),
        _ => return None,
    })
}

/// Build the candidate filter for an alarm under `policy`.
pub fn candidate_filter(alarm: &Alarm, policy: CandidatePolicy) -> Filter {
    if policy == CandidatePolicy::WholeInterval || alarm.hints.is_empty() {
        return Filter::any();
    }
    let mut expr: Option<Expr> = None;
    for &hint in &alarm.hints {
        let Some(pred) = hint_pred(hint) else { continue };
        let leaf = Expr::Pred(pred);
        expr = Some(match expr {
            None => leaf,
            Some(e) => e.or(leaf),
        });
    }
    match expr {
        None => Filter::any(),
        Some(e) => Filter::from_expr(e),
    }
}

/// Select the candidate flows of `alarm` from `store`.
pub fn candidates(store: &FlowStore, alarm: &Alarm, policy: CandidatePolicy) -> Vec<FlowRecord> {
    store.query(alarm.window, &candidate_filter(alarm, policy))
}

/// Select candidates from an in-memory slice (no store required).
pub fn candidates_from_slice(
    flows: &[FlowRecord],
    window: TimeRange,
    alarm: &Alarm,
    policy: CandidatePolicy,
) -> Vec<FlowRecord> {
    candidates_from_iter(flows, window, alarm, policy)
}

/// Select candidates from any in-memory record sequence — segmented
/// window storage (`Arc`-shared record runs chained in window order)
/// selects identically to one contiguous slice without ever
/// concatenating the segments.
pub fn candidates_from_iter<'a, I>(
    flows: I,
    window: TimeRange,
    alarm: &Alarm,
    policy: CandidatePolicy,
) -> Vec<FlowRecord>
where
    I: IntoIterator<Item = &'a FlowRecord>,
{
    let filter = candidate_filter(alarm, policy);
    flows.into_iter().filter(|f| is_candidate(f, window, &filter)).cloned().collect()
}

/// Candidate membership: `flow` overlaps the alarm `window` and passes
/// the alarm's [`candidate_filter`]. Callers that mine borrowed records
/// in place filter with this instead of collecting
/// [`candidates_from_iter`]'s clones.
pub fn is_candidate(flow: &FlowRecord, window: TimeRange, filter: &Filter) -> bool {
    window.overlaps(flow) && filter.matches(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn store() -> FlowStore {
        let store = FlowStore::new(60_000);
        // Scanner flow.
        store.insert(
            FlowRecord::builder()
                .time(1_000, 1_100)
                .src(ip("10.0.0.9"), 55_548)
                .dst(ip("172.16.0.1"), 1234)
                .build(),
        );
        // Victim-bound flow from elsewhere.
        store.insert(
            FlowRecord::builder()
                .time(2_000, 2_100)
                .src(ip("10.0.0.50"), 4_000)
                .dst(ip("172.16.0.1"), 80)
                .build(),
        );
        // Unrelated flow.
        store.insert(
            FlowRecord::builder()
                .time(3_000, 3_100)
                .src(ip("10.0.0.60"), 4_001)
                .dst(ip("172.16.0.200"), 443)
                .build(),
        );
        // Outside the window.
        store.insert(
            FlowRecord::builder()
                .time(900_000, 900_100)
                .src(ip("10.0.0.9"), 55_548)
                .dst(ip("172.16.0.1"), 80)
                .build(),
        );
        store
    }

    fn alarm(hints: Vec<FeatureItem>) -> Alarm {
        Alarm::new(0, "test", TimeRange::new(0, 10_000)).with_hints(hints)
    }

    #[test]
    fn union_keeps_any_hint_match() {
        let a =
            alarm(vec![FeatureItem::src_ip(ip("10.0.0.9")), FeatureItem::dst_ip(ip("172.16.0.1"))]);
        let got = candidates(&store(), &a, CandidatePolicy::HintUnion);
        // Scanner flow (src match) + victim flow (dst match); unrelated
        // and out-of-window flows excluded.
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn no_hints_falls_back_to_whole_interval() {
        let a = alarm(vec![]);
        let got = candidates(&store(), &a, CandidatePolicy::HintUnion);
        assert_eq!(got.len(), 3, "all in-window flows are candidates");
    }

    #[test]
    fn whole_interval_ignores_hints() {
        let a = alarm(vec![FeatureItem::src_ip(ip("10.0.0.9"))]);
        let got = candidates(&store(), &a, CandidatePolicy::WholeInterval);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn port_hints_select_by_direction() {
        let a = alarm(vec![FeatureItem::dst_port(80)]);
        let got = candidates(&store(), &a, CandidatePolicy::HintUnion);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].dst_port, 80);
    }

    #[test]
    fn slice_selection_matches_store_selection() {
        let st = store();
        let a = alarm(vec![FeatureItem::dst_ip(ip("172.16.0.1"))]);
        let from_store = candidates(&st, &a, CandidatePolicy::HintUnion);
        let from_slice =
            candidates_from_slice(&st.snapshot(), a.window, &a, CandidatePolicy::HintUnion);
        assert_eq!(from_store.len(), from_slice.len());
    }

    #[test]
    fn candidate_filter_is_printable_and_reparsable() {
        let a = alarm(vec![FeatureItem::src_ip(ip("10.0.0.9")), FeatureItem::dst_port(80)]);
        let filter = candidate_filter(&a, CandidatePolicy::HintUnion);
        assert!(Filter::parse(&filter.to_string()).is_ok(), "{}", filter);
    }
}
