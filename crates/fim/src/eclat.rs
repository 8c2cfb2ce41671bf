//! Eclat — vertical bitset miner, with a dEclat diffset deep path and a
//! pair-join cache.
//!
//! Mines by intersecting per-item transaction-id sets instead of scanning
//! rows: the support of `X ∪ {i}` is the weighted population count of the
//! intersection of their tid sets. The tid sets are **bitsets** pulled
//! from the matrix's cached vertical views, so an intersection is a
//! word-at-a-time AND over `rows/64` machine words (the old implementation
//! merged sorted `Vec<u32>` tid lists element by element). A third
//! independent implementation for cross-checking, and the fastest of the
//! three on dense, low-threshold workloads.
//!
//! Two optional fast paths, both on in [`Eclat::DEFAULT`] and both off in
//! [`Eclat::LEGACY`] (the agreement tests pin the outputs identical):
//!
//! - **Pair-join cache** ([`Eclat::pair_cache`]): 2-itemset tid sets and
//!   supports come from [`TransactionMatrix::pair_join`], which caches
//!   them *on the matrix* — the top-k support-threshold search re-mines
//!   the same matrix many times, and pairs dominate each round's join
//!   work, so later rounds replace the AND + weighted popcount with a
//!   map hit.
//! - **Diffsets** ([`Eclat::diffsets`]): at depth ≥ 3 a candidate's tid
//!   set is represented as the dEclat *difference* from its prefix
//!   parent (`d(PXY) = t(PX) \ t(PY)`), and support is maintained
//!   arithmetically: `support(PXY) = support(PX) − w(d(PXY))`. Deeper
//!   levels subtract sibling diffsets (`d(PXY…Z) = d(PZ) \ d(PXY…)`),
//!   so the deeper the search goes in dense traffic, the sparser the
//!   words the weighted popcount has to walk.

use std::sync::Arc;

use crate::matrix::TransactionMatrix;
use crate::support::{sort_canonical, FrequentItemset};
use crate::{Miner, MiningConfig};

/// Vertical bitset-intersection miner ([`Miner`] implementation).
///
/// The flags select the fast paths documented on the module; every
/// configuration mines the identical result set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eclat {
    /// Represent deep (length ≥ 3) candidates as dEclat diffsets from
    /// their prefix parent, with support maintained arithmetically.
    pub diffsets: bool,
    /// Serve 2-itemset joins from the matrix-resident pair cache
    /// ([`TransactionMatrix::pair_join`]).
    pub pair_cache: bool,
}

impl Eclat {
    /// Both fast paths on — the production configuration.
    pub const DEFAULT: Eclat = Eclat { diffsets: true, pair_cache: true };
    /// Plain tidset Eclat, exactly the pre-diffset implementation; the
    /// agreement baseline and the honest benchmark comparison point.
    pub const LEGACY: Eclat = Eclat { diffsets: false, pair_cache: false };
}

impl Default for Eclat {
    fn default() -> Eclat {
        Eclat::DEFAULT
    }
}

impl Miner for Eclat {
    fn mine(&self, matrix: &TransactionMatrix, config: &MiningConfig) -> Vec<FrequentItemset> {
        let threshold = config.min_support.resolve(matrix.total_weight());
        let max_len = if config.max_len == 0 { usize::MAX } else { config.max_len };
        let mut results = Vec::new();
        if matrix.is_empty() {
            return results;
        }

        // Frequent 1-items in ascending id order for a deterministic
        // DFS; their bitsets come from the shared cache. (For an
        // interned dictionary id order is first-seen order, not item
        // order — the canonical sort at the end makes the output
        // independent of it.)
        let root_ids = matrix.frequent_ids(threshold);
        let root_bits = matrix.tid_bitsets(&root_ids);
        let roots: Vec<Node> = root_ids
            .iter()
            .zip(root_bits)
            .map(|(&id, bits)| Node {
                id,
                support: matrix.item_supports()[id as usize],
                bits: Bits::Shared(bits),
                diff: false,
            })
            .collect();

        let mut prefix: Vec<u16> = Vec::new();
        for (i, node) in roots.iter().enumerate() {
            prefix.push(node.id);
            results.push(FrequentItemset::new(matrix.itemset_of(&prefix), node.support));
            if max_len > 1 {
                self.dfs(
                    matrix,
                    &mut prefix,
                    node,
                    &roots[i + 1..],
                    threshold,
                    max_len,
                    &mut results,
                );
            }
            prefix.pop();
        }
        sort_canonical(&mut results);
        results
    }
}

/// A DFS node: an extension item with either the prefix∪{id} tid bitset
/// (`diff == false`) or its dEclat diffset from the prefix parent
/// (`diff == true`, support already exact).
struct Node {
    id: u16,
    support: u64,
    bits: Bits,
    diff: bool,
}

/// Root and cached-pair bitsets are shared out of the matrix caches;
/// intersections and differences own their words.
enum Bits {
    Shared(Arc<Vec<u64>>),
    Owned(Vec<u64>),
}

impl Bits {
    fn words(&self) -> &[u64] {
        match self {
            Bits::Shared(arc) => arc,
            Bits::Owned(vec) => vec,
        }
    }
}

impl Eclat {
    /// Extend `prefix` (carried by `node`) by each right-sibling.
    ///
    /// Every sibling in one group shares the same representation (all
    /// were materialized by the same parent call), so the joins are
    /// uniform per level: tidset AND at depths the diffset path hasn't
    /// reached, `t(PX) \ t(PY)` at the tidset→diffset transition, and
    /// `d(PY) \ d(PX)` once both operands are diffsets.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        matrix: &TransactionMatrix,
        prefix: &mut Vec<u16>,
        node: &Node,
        siblings: &[Node],
        threshold: u64,
        max_len: usize,
        out: &mut Vec<FrequentItemset>,
    ) {
        // Materialize this level's frequent extensions first, then recurse
        // with each extension's right-siblings — classic prefix-tree DFS.
        let pair_level = prefix.len() == 1;
        let to_diff = self.diffsets && prefix.len() >= 2;
        let mut extensions: Vec<Node> = Vec::new();
        for sibling in siblings {
            let ext = if node.diff {
                // Both operands are diffsets from the shared prefix
                // parent: d(PXY) = d(PY) \ d(PX).
                let diffed: Vec<u64> = sibling
                    .bits
                    .words()
                    .iter()
                    .zip(node.bits.words())
                    .map(|(s, n)| s & !n)
                    .collect();
                let support = node.support - matrix.support_of_bits(&diffed);
                Node { id: sibling.id, support, bits: Bits::Owned(diffed), diff: true }
            } else if pair_level && self.pair_cache {
                let (bits, support) = matrix.pair_join(node.id, sibling.id);
                Node { id: sibling.id, support, bits: Bits::Shared(bits), diff: false }
            } else if to_diff {
                // Tidset → diffset transition: d(PXY) = t(PX) \ t(PY).
                let diffed: Vec<u64> = node
                    .bits
                    .words()
                    .iter()
                    .zip(sibling.bits.words())
                    .map(|(n, s)| n & !s)
                    .collect();
                let support = node.support - matrix.support_of_bits(&diffed);
                Node { id: sibling.id, support, bits: Bits::Owned(diffed), diff: true }
            } else {
                let joined: Vec<u64> = node
                    .bits
                    .words()
                    .iter()
                    .zip(sibling.bits.words())
                    .map(|(a, b)| a & b)
                    .collect();
                let support = matrix.support_of_bits(&joined);
                Node { id: sibling.id, support, bits: Bits::Owned(joined), diff: false }
            };
            if ext.support >= threshold {
                extensions.push(ext);
            }
        }
        for (i, ext) in extensions.iter().enumerate() {
            prefix.push(ext.id);
            out.push(FrequentItemset::new(matrix.itemset_of(prefix), ext.support));
            if prefix.len() < max_len {
                self.dfs(matrix, prefix, ext, &extensions[i + 1..], threshold, max_len, out);
            }
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;
    use crate::fpgrowth::FpGrowth;
    use crate::item::{Item, Itemset};
    use crate::support::MinSupport;
    use crate::transaction::{Transaction, TransactionSet};

    fn t(vals: &[u64], w: u64) -> Transaction {
        Transaction::new(vals.iter().map(|&v| Item(v)).collect(), w)
    }

    fn classic_dataset() -> TransactionSet {
        TransactionSet::from_transactions(vec![
            t(&[1, 2, 5], 1),
            t(&[2, 4], 1),
            t(&[2, 3], 1),
            t(&[1, 2, 4], 1),
            t(&[1, 3], 1),
            t(&[2, 3], 1),
            t(&[1, 3], 1),
            t(&[1, 2, 3, 5], 1),
            t(&[1, 2, 3], 1),
        ])
    }

    fn cfg(abs: u64) -> MiningConfig {
        MiningConfig { min_support: MinSupport::Absolute(abs), ..MiningConfig::default() }
    }

    fn run(txs: &TransactionSet, abs: u64) -> Vec<FrequentItemset> {
        Eclat::DEFAULT.mine(&txs.to_matrix(), &cfg(abs))
    }

    /// The four flag combinations, for exhaustive agreement checks.
    const CONFIGS: [Eclat; 4] = [
        Eclat::LEGACY,
        Eclat::DEFAULT,
        Eclat { diffsets: true, pair_cache: false },
        Eclat { diffsets: false, pair_cache: true },
    ];

    #[test]
    fn three_way_agreement_on_textbook_example() {
        let matrix = classic_dataset().to_matrix();
        let ec = Eclat::DEFAULT.mine(&matrix, &cfg(2));
        let ap = Apriori.mine(&matrix, &cfg(2));
        let fp = FpGrowth.mine(&matrix, &cfg(2));
        assert_eq!(ec, ap);
        assert_eq!(ec, fp);
        assert_eq!(ec.len(), 13);
    }

    #[test]
    fn every_flag_combination_mines_identically() {
        let matrix = classic_dataset().to_matrix();
        let expected = Eclat::LEGACY.mine(&matrix, &cfg(2));
        assert_eq!(expected.len(), 13);
        for config in CONFIGS {
            assert_eq!(config.mine(&matrix, &cfg(2)), expected, "{config:?}");
            // Depth-4 itemsets force two diffset-on-diffset levels.
            assert_eq!(
                config.mine(&matrix, &cfg(1)),
                Eclat::LEGACY.mine(&matrix, &cfg(1)),
                "{config:?} at threshold 1"
            );
        }
    }

    #[test]
    fn weighted_supports() {
        let txs =
            TransactionSet::from_transactions(vec![t(&[1, 2], 7), t(&[1, 2], 5), t(&[2], 100)]);
        let results = run(&txs, 12);
        let find = |vals: &[u64]| {
            let set = Itemset::new(vals.iter().map(|&v| Item(v)).collect());
            results.iter().find(|f| f.itemset == set).map(|f| f.support)
        };
        assert_eq!(find(&[2]), Some(112));
        assert_eq!(find(&[1]), Some(12));
        assert_eq!(find(&[1, 2]), Some(12));
    }

    #[test]
    fn weighted_diffset_supports_stay_exact_at_depth() {
        // Ragged weights + itemsets of length 4: the arithmetic support
        // maintenance must agree with the AND-join on every level.
        let txs = TransactionSet::from_transactions(vec![
            t(&[1, 2, 3, 4], 3),
            t(&[1, 2, 3, 4], 11),
            t(&[1, 2, 3], 5),
            t(&[1, 2, 4], 1),
            t(&[2, 3, 4], 7),
            t(&[1], 100),
        ]);
        let matrix = txs.to_matrix();
        for config in CONFIGS {
            assert_eq!(
                config.mine(&matrix, &cfg(3)),
                Eclat::LEGACY.mine(&matrix, &cfg(3)),
                "{config:?}"
            );
        }
        let deep = Itemset::new(vec![Item(1), Item(2), Item(3), Item(4)]);
        let mined = Eclat::DEFAULT.mine(&matrix, &cfg(3));
        assert_eq!(mined.iter().find(|f| f.itemset == deep).map(|f| f.support), Some(14));
    }

    #[test]
    fn max_len_respected() {
        let txs = classic_dataset();
        let results = Eclat::DEFAULT.mine(&txs.to_matrix(), &MiningConfig { max_len: 1, ..cfg(2) });
        assert!(results.iter().all(|f| f.itemset.len() == 1));
        assert_eq!(results.len(), 5);
    }

    #[test]
    fn empty_input() {
        assert!(run(&TransactionSet::new(), 1).is_empty());
    }

    #[test]
    fn zero_weight_tids_contribute_nothing() {
        let txs = TransactionSet::from_transactions(vec![t(&[1], 0), t(&[1], 2)]);
        let results = run(&txs, 1);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].support, 2);
    }

    #[test]
    fn repeated_mining_reuses_cached_bitsets() {
        // Mining the same matrix at descending thresholds (the top-k
        // pattern) must give consistent results; the bitset and pair
        // caches make later rounds cheaper but must not change output.
        let matrix = classic_dataset().to_matrix();
        let first = Eclat::DEFAULT.mine(&matrix, &cfg(4));
        let second = Eclat::DEFAULT.mine(&matrix, &cfg(2));
        let third = Eclat::DEFAULT.mine(&matrix, &cfg(4));
        assert_eq!(first, third);
        assert!(second.len() > first.len());
    }
}
