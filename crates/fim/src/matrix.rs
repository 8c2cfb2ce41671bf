//! Columnar transaction storage — the representation every miner runs on.
//!
//! A [`TransactionMatrix`] dictionary-encodes sparse [`Item`]`(u64)`s into
//! dense `u16` ids and stores transactions as one flat CSR buffer (item-id
//! array + row offsets) with a weight column on the side. The layout buys
//! three things at once:
//!
//! - **One dictionary for every miner.** Apriori counts dense ids into
//!   flat arrays instead of hashing 8-byte items; FP-Growth builds its
//!   tree from `u16`s; Eclat intersects per-item *bitset* tid-lists.
//! - **Cheap re-weighting.** The paper mines the same flows under flow
//!   support and packet support; [`TransactionMatrix::with_weights`]
//!   shares the CSR structure (and the bitset cache) between both views,
//!   so the encode cost is paid once per window.
//! - **Reusable vertical views.** Per-item tid bitsets and pair
//!   intersections are materialized on demand and cached behind the
//!   matrix, so the top-k self-adjusting support search re-mines at many
//!   thresholds without re-scanning the transactions.
//!
//! ## Dense-id order
//!
//! Cold builds ([`MatrixBuilder::build`]) sort the dictionary, so dense-id
//! order equals item order. Interned builds through an
//! [`ItemDictionary`] keep **first-seen** order instead (no count pass,
//! no dictionary sort, no row remap); item-order lookups go through a
//! sorted permutation either way, and every miner's output is
//! independent of the numbering (itemsets decode to sorted [`Itemset`]s
//! and results are canonically ordered), so the two paths mine
//! identically.
//!
//! ## Capacity
//!
//! Dense ids are `u16`: a matrix holds at most **65,536 distinct items**
//! ([`TransactionMatrix::CAPACITY`]). When a cold build exceeds that, the
//! least-frequent items are dropped from the dictionary (and from every
//! row) and counted in [`TransactionMatrix::dropped_items`]; mining
//! results are unaffected whenever the effective support threshold is
//! above [`TransactionMatrix::dropped_max_support`], which for flow
//! traffic (4 items per row) holds at any practical threshold. An
//! interned build never drops: [`DictMatrixBuilder::build`] returns
//! `None` on overflow and the caller re-encodes cold.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::hash::FxHashMap;
use crate::item::{Item, Itemset};
use crate::transaction::TransactionSet;

/// Entries either pair cache (intersection bitsets on the shared
/// columns, supports per weight view) may hold before it stops
/// inserting. Cached values are pure functions of the matrix, so a
/// capped cache can never change a mining result — only how often the
/// join is recomputed.
const PAIR_CACHE_CAP: usize = 4_096;

/// Immutable CSR structure shared between weight views of one matrix.
#[derive(Debug)]
struct Columns {
    /// Dense id → item. Sorted for cold builds (dense-id order equals
    /// item order); first-seen order for [`ItemDictionary`] builds.
    dict: Vec<Item>,
    /// Dense ids permuted so the items behind them ascend — the
    /// binary-search index behind [`TransactionMatrix::id_of`]. The
    /// identity permutation for cold builds.
    lookup: Vec<u16>,
    /// Row offsets into `ids`; `len() == rows + 1`.
    offsets: Vec<u32>,
    /// Flat item-id buffer; each row slice is sorted and duplicate-free.
    ids: Vec<u16>,
    /// Per-item tid bitsets, materialized on demand. Bit `t` of entry
    /// `id` says transaction `t` contains `id` — weight-independent, so
    /// the cache is shared across re-weighted views.
    bitsets: Mutex<HashMap<u16, Arc<Vec<u64>>>>,
    /// Pair-intersection bitsets keyed `(a, b)` with `a <= b`,
    /// materialized on demand by [`TransactionMatrix::pair_join`].
    /// Weight-independent like `bitsets`; bounded by [`PAIR_CACHE_CAP`].
    pairs: Mutex<PairBitsets>,
}

/// Cached pair-intersection bitsets, keyed `(a, b)` with `a <= b`.
type PairBitsets = HashMap<(u16, u16), Arc<Vec<u64>>>;

impl Columns {
    fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    fn row(&self, index: usize) -> &[u16] {
        &self.ids[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }
}

/// Dictionary-encoded, column-leaning transaction storage.
///
/// Build one with [`MatrixBuilder`] (streaming, no per-row allocation),
/// with [`DictMatrixBuilder`] over a reusable [`ItemDictionary`] (the
/// per-alarm encode), or via [`TransactionSet::to_matrix`].
/// Cloning is cheap: the CSR structure and every cache are shared, only
/// the weight column is per view.
#[derive(Debug, Clone)]
pub struct TransactionMatrix {
    cols: Arc<Columns>,
    weights: Arc<Vec<u64>>,
    total_weight: u64,
    /// `Some(w)` when every row weighs exactly `w` — enables popcount
    /// support counting on bitsets.
    uniform_weight: Option<u64>,
    /// Weighted support of every dictionary item (level-1 counts, free
    /// at build time).
    item_supports: Arc<Vec<u64>>,
    /// Dense ids by descending support under *this* weight column,
    /// sorted on first use: a threshold's frequent items are a prefix,
    /// so the top-k search's many rounds never rescan the dictionary.
    by_support: Arc<OnceLock<Vec<u16>>>,
    /// Cached pair supports under *this* weight column (the bitsets
    /// behind them live on the shared `Columns`). Fresh per re-weighted
    /// view, shared across clones of the same view.
    pair_supports: Arc<Mutex<HashMap<(u16, u16), u64>>>,
    dropped_items: u64,
    dropped_max_support: u64,
}

impl TransactionMatrix {
    /// Maximum distinct items one matrix can hold (dense `u16` ids).
    pub const CAPACITY: usize = 1 << 16;

    /// An empty matrix.
    pub fn empty() -> TransactionMatrix {
        MatrixBuilder::new().build()
    }

    /// Assemble a matrix around freshly built columns: level-1 supports
    /// are counted here, every cache starts empty.
    fn assemble(cols: Arc<Columns>, weights: Vec<u64>, dropped: (u64, u64)) -> TransactionMatrix {
        let (total_weight, uniform_weight) = weight_stats(&weights);
        let mut item_supports = vec![0u64; cols.dict.len()];
        for (r, w) in weights.iter().enumerate() {
            for &id in cols.row(r) {
                item_supports[id as usize] += w;
            }
        }
        TransactionMatrix {
            cols,
            weights: Arc::new(weights),
            total_weight,
            uniform_weight,
            item_supports: Arc::new(item_supports),
            by_support: Arc::new(OnceLock::new()),
            pair_supports: Arc::new(Mutex::new(HashMap::new())),
            dropped_items: dropped.0,
            dropped_max_support: dropped.1,
        }
    }

    /// Streaming builder.
    pub fn builder() -> MatrixBuilder {
        MatrixBuilder::new()
    }

    /// Number of transactions (rows).
    pub fn len(&self) -> usize {
        self.cols.rows()
    }

    /// Whether there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct dictionary items.
    pub fn n_items(&self) -> usize {
        self.cols.dict.len()
    }

    /// Sum of all weights (the denominator of relative support).
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Distinct items beyond [`Self::CAPACITY`] dropped at build time.
    pub fn dropped_items(&self) -> u64 {
        self.dropped_items
    }

    /// Largest weighted support among dropped items (0 when none were
    /// dropped). Mining below or at this threshold may miss itemsets.
    pub fn dropped_max_support(&self) -> u64 {
        self.dropped_max_support
    }

    /// The item behind a dense id.
    pub fn item(&self, id: u16) -> Item {
        self.cols.dict[id as usize]
    }

    /// The dense id of an item, if it is in the dictionary.
    pub fn id_of(&self, item: Item) -> Option<u16> {
        let lookup = &self.cols.lookup;
        lookup
            .binary_search_by(|&id| self.cols.dict[id as usize].cmp(&item))
            .ok()
            .map(|i| lookup[i])
    }

    /// One row's sorted dense-id slice.
    pub fn row(&self, index: usize) -> &[u16] {
        self.cols.row(index)
    }

    /// One row's weight.
    pub fn weight(&self, index: usize) -> u64 {
        self.weights[index]
    }

    /// The weight column.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Iterate `(sorted ids, weight)` over all rows.
    pub fn rows(&self) -> impl Iterator<Item = (&[u16], u64)> + '_ {
        (0..self.len()).map(move |i| (self.cols.row(i), self.weights[i]))
    }

    /// Weighted support of every dictionary item, indexed by dense id.
    pub fn item_supports(&self) -> &[u64] {
        &self.item_supports
    }

    /// Dense ids whose support reaches `threshold`, ascending: a prefix
    /// of the support-sorted id list, which is built once per weight
    /// view however many thresholds are asked for.
    pub fn frequent_ids(&self, threshold: u64) -> Vec<u16> {
        let supports = &self.item_supports;
        let ranked = self.by_support.get_or_init(|| {
            let mut ids: Vec<u16> = (0..supports.len()).map(|id| id as u16).collect();
            ids.sort_unstable_by_key(|&id| Reverse(supports[id as usize]));
            ids
        });
        let frequent = ranked.partition_point(|&id| supports[id as usize] >= threshold);
        let mut ids = ranked[..frequent].to_vec();
        ids.sort_unstable();
        ids
    }

    /// Decode a dense-id slice (ascending) into an [`Itemset`].
    pub fn itemset_of(&self, ids: &[u16]) -> Itemset {
        Itemset::new(ids.iter().map(|&id| self.item(id)).collect())
    }

    /// The dictionary: all distinct items, sorted.
    pub fn item_universe(&self) -> Vec<Item> {
        self.cols.lookup.iter().map(|&id| self.cols.dict[id as usize]).collect()
    }

    /// Same structure, new weight column (shares the CSR buffers and the
    /// bitset/pair-bitset caches; pair *supports* start fresh — they
    /// depend on the weights).
    ///
    /// # Panics
    /// Panics when `weights.len()` differs from the row count.
    pub fn with_weights(&self, weights: Vec<u64>) -> TransactionMatrix {
        assert_eq!(weights.len(), self.len(), "weight column must match row count");
        let dropped = (self.dropped_items, self.dropped_max_support);
        TransactionMatrix::assemble(Arc::clone(&self.cols), weights, dropped)
    }

    /// Flow-support view: every row re-weighted to 1.
    pub fn unit_weights(&self) -> TransactionMatrix {
        self.with_weights(vec![1; self.len()])
    }

    /// Words per tid bitset.
    pub fn bitset_words(&self) -> usize {
        self.len().div_ceil(64)
    }

    /// Tid bitsets for `ids`, in request order. Cached: repeated calls
    /// (e.g. the top-k threshold search, or the packet-support pass over
    /// a re-weighted view) cost one lock round-trip, not a CSR scan.
    pub fn tid_bitsets(&self, ids: &[u16]) -> Vec<Arc<Vec<u64>>> {
        let mut cache = self.cols.bitsets.lock().expect("bitset cache poisoned");
        let missing: Vec<u16> = ids.iter().copied().filter(|id| !cache.contains_key(id)).collect();
        if !missing.is_empty() {
            // One CSR pass fills every missing bitset: a slot table maps
            // dense id → output bitset index.
            let words = self.bitset_words();
            let mut slot = vec![u32::MAX; self.cols.dict.len()];
            for (s, &id) in missing.iter().enumerate() {
                slot[id as usize] = s as u32;
            }
            let mut built = vec![vec![0u64; words]; missing.len()];
            for tid in 0..self.len() {
                for &id in self.cols.row(tid) {
                    let s = slot[id as usize];
                    if s != u32::MAX {
                        built[s as usize][tid / 64] |= 1 << (tid % 64);
                    }
                }
            }
            for (&id, bits) in missing.iter().zip(built) {
                cache.insert(id, Arc::new(bits));
            }
        }
        ids.iter().map(|id| Arc::clone(&cache[id])).collect()
    }

    /// Tid bitset and weighted support of the pair `{a, b}` (dense
    /// ids), cached. The bitset lives on the shared columns (one
    /// materialization across re-weighted views); the support belongs
    /// to this view. This is the top-k search's fast path: every
    /// support-threshold round revisits the same frequent pairs, and a
    /// hit replaces the word-AND + weighted-popcount with two map reads.
    pub fn pair_join(&self, a: u16, b: u16) -> (Arc<Vec<u64>>, u64) {
        let key = if a <= b { (a, b) } else { (b, a) };
        let cached = {
            let cache = self.cols.pairs.lock().expect("pair cache poisoned");
            cache.get(&key).cloned()
        };
        let bits = match cached {
            Some(bits) => bits,
            None => {
                let operands = self.tid_bitsets(&[key.0, key.1]);
                let mut joined: Vec<u64> = operands[0].as_ref().clone();
                for (w, o) in joined.iter_mut().zip(operands[1].iter()) {
                    *w &= o;
                }
                let joined = Arc::new(joined);
                let mut cache = self.cols.pairs.lock().expect("pair cache poisoned");
                if cache.len() < PAIR_CACHE_CAP {
                    cache.insert(key, Arc::clone(&joined));
                }
                joined
            }
        };
        let support = {
            let supports = self.pair_supports.lock().expect("pair support cache poisoned");
            supports.get(&key).copied()
        };
        let support = match support {
            Some(s) => s,
            None => {
                let s = self.support_of_bits(&bits);
                let mut supports = self.pair_supports.lock().expect("pair support cache poisoned");
                if supports.len() < PAIR_CACHE_CAP {
                    supports.insert(key, s);
                }
                s
            }
        };
        (bits, support)
    }

    /// Weighted population count: the support carried by a tid bitset.
    pub fn support_of_bits(&self, words: &[u64]) -> u64 {
        match self.uniform_weight {
            Some(w) => w * words.iter().map(|word| u64::from(word.count_ones())).sum::<u64>(),
            None => {
                let mut support = 0;
                for (k, &word) in words.iter().enumerate() {
                    let mut m = word;
                    while m != 0 {
                        let t = k * 64 + m.trailing_zeros() as usize;
                        support += self.weights[t];
                        m &= m - 1;
                    }
                }
                support
            }
        }
    }

    /// Exact support of an arbitrary itemset — the linear-scan reference
    /// rewritten vertically: intersect the member items' tid bitsets.
    ///
    /// The empty itemset is contained in every transaction; an itemset
    /// with any out-of-dictionary item has support 0 (such items were
    /// either never seen or dropped past [`Self::CAPACITY`]).
    pub fn support_of(&self, itemset: &Itemset) -> u64 {
        if itemset.is_empty() {
            return self.total_weight;
        }
        let Some(ids) =
            itemset.items().iter().map(|&item| self.id_of(item)).collect::<Option<Vec<u16>>>()
        else {
            return 0;
        };
        if ids.len() == 1 {
            return self.item_supports[ids[0] as usize];
        }
        let bitsets = self.tid_bitsets(&ids);
        let mut acc: Vec<u64> = bitsets[0].as_ref().clone();
        for bits in &bitsets[1..] {
            for (a, b) in acc.iter_mut().zip(bits.iter()) {
                *a &= b;
            }
        }
        self.support_of_bits(&acc)
    }
}

impl From<&TransactionSet> for TransactionMatrix {
    fn from(txs: &TransactionSet) -> TransactionMatrix {
        let mut b = MatrixBuilder::new();
        for t in txs.transactions() {
            b.push_row(t.items().iter().copied(), t.weight());
        }
        b.build()
    }
}

/// Sort and deduplicate `buf[start..]` in place: the row just appended
/// to a flat buffer, without a per-row allocation.
fn sort_dedup_tail<T: Ord + Copy>(buf: &mut Vec<T>, start: usize) {
    buf[start..].sort_unstable();
    let mut write = start;
    for read in start..buf.len() {
        if write == start || buf[read] != buf[write - 1] {
            buf[write] = buf[read];
            write += 1;
        }
    }
    buf.truncate(write);
}

fn weight_stats(weights: &[u64]) -> (u64, Option<u64>) {
    let total = weights.iter().sum();
    let uniform = match weights.first() {
        Some(&w) if weights.iter().all(|&x| x == w) => Some(w),
        _ => None,
    };
    (total, uniform)
}

/// Streaming [`TransactionMatrix`] builder.
///
/// Rows land in flat buffers — pushing a row performs **no per-row heap
/// allocation** (the buffers grow amortized, like one long `Vec`), which
/// is what makes `encode_flows` allocation-free per flow.
#[derive(Debug, Default)]
pub struct MatrixBuilder {
    items: Vec<Item>,
    offsets: Vec<u32>,
    weights: Vec<u64>,
}

impl MatrixBuilder {
    /// Empty builder.
    pub fn new() -> MatrixBuilder {
        MatrixBuilder { items: Vec::new(), offsets: vec![0], weights: Vec::new() }
    }

    /// Builder with pre-sized buffers for `rows` rows of about
    /// `items_per_row` items.
    pub fn with_capacity(rows: usize, items_per_row: usize) -> MatrixBuilder {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        MatrixBuilder {
            items: Vec::with_capacity(rows * items_per_row),
            offsets,
            weights: Vec::with_capacity(rows),
        }
    }

    /// Append one transaction. Items are sorted and deduplicated in
    /// place inside the flat buffer.
    ///
    /// # Panics
    /// Panics when the flat item buffer outgrows `u32` offsets (> ~4.2B
    /// items across all rows) — wrapped offsets would silently corrupt
    /// every row, so the cast fails loudly instead.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Item>, weight: u64) {
        let start = self.items.len();
        self.items.extend(row);
        sort_dedup_tail(&mut self.items, start);
        let offset =
            u32::try_from(self.items.len()).expect("matrix item buffer exceeds u32 offsets");
        self.offsets.push(offset);
        self.weights.push(weight);
    }

    /// Rows pushed so far.
    pub fn rows(&self) -> usize {
        self.weights.len()
    }

    /// Freeze into a matrix: count item supports, pick the dictionary
    /// (dropping the least-frequent tail past [`TransactionMatrix::CAPACITY`]),
    /// and remap every row to dense ids.
    pub fn build(self) -> TransactionMatrix {
        let MatrixBuilder { items, mut offsets, weights } = self;

        // Weighted support per distinct item.
        let mut counts: HashMap<Item, u64> = HashMap::new();
        for (r, w) in weights.iter().enumerate() {
            for &item in &items[offsets[r] as usize..offsets[r + 1] as usize] {
                *counts.entry(item).or_insert(0) += w;
            }
        }

        // Dictionary selection. Past capacity, keep the heaviest items:
        // anything dropped has support <= every kept item's support.
        let mut dropped_items = 0u64;
        let mut dropped_max_support = 0u64;
        let mut dict: Vec<Item> = if counts.len() <= TransactionMatrix::CAPACITY {
            counts.keys().copied().collect()
        } else {
            let mut ranked: Vec<(Item, u64)> = counts.iter().map(|(&i, &c)| (i, c)).collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let dropped = ranked.split_off(TransactionMatrix::CAPACITY);
            dropped_items = dropped.len() as u64;
            dropped_max_support = dropped.first().map_or(0, |&(_, c)| c);
            ranked.into_iter().map(|(i, _)| i).collect()
        };
        dict.sort_unstable();

        // Remap rows item → dense id. Rows are sorted by item and the
        // dictionary is sorted too, so mapped ids stay ascending; dropped
        // items simply vanish from their rows. `offsets` is rewritten
        // into id space as we go, so each row's *original* item-space
        // bounds must be read before its end offset is overwritten.
        let mut ids: Vec<u16> = Vec::with_capacity(items.len());
        let mut row_start = 0usize;
        for r in 0..weights.len() {
            let row_end = offsets[r + 1] as usize;
            for &item in &items[row_start..row_end] {
                if let Ok(id) = dict.binary_search(&item) {
                    ids.push(id as u16);
                }
            }
            row_start = row_end;
            offsets[r + 1] = ids.len() as u32;
        }

        // A sorted dictionary's item-order lookup is the identity.
        let lookup: Vec<u16> = (0..dict.len()).map(|i| i as u16).collect();
        let cols = Columns {
            dict,
            lookup,
            offsets,
            ids,
            bitsets: Mutex::new(HashMap::new()),
            pairs: Mutex::new(HashMap::new()),
        };
        TransactionMatrix::assemble(Arc::new(cols), weights, (dropped_items, dropped_max_support))
    }
}

/// Interns one matrix's items to dense ids in first-seen order — the
/// per-alarm encode path.
///
/// The dictionary is **window-local**: every [`DictMatrixBuilder`]
/// starts it empty, so a matrix's dictionary is exactly its rows'
/// distinct items and nothing downstream pays for items an earlier
/// matrix saw. What survives between builds is *capacity* — the intern
/// map's table and the row buffers — so a steady stream of similar-sized
/// alarms allocates only each matrix's exact-size columns.
#[derive(Debug, Default)]
pub struct ItemDictionary {
    items: Vec<Item>,
    /// Interning is four lookups per encoded flow — keyed by items the
    /// process produced itself, so the non-keyed multiply hash is safe.
    map: FxHashMap<Item, u16>,
    hits: u64,
    misses: u64,
    /// Row buffers of the build in progress (see [`DictMatrixBuilder`]).
    ids: Vec<u16>,
    offsets: Vec<u32>,
    weights: Vec<u64>,
}

impl ItemDictionary {
    /// An empty dictionary.
    pub fn new() -> ItemDictionary {
        ItemDictionary::default()
    }

    /// Items interned by the current (or last) build.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Dense id for `item`, interning it at the next free id when new.
    /// `None` when the `u16` id space is exhausted — more distinct items
    /// than one matrix can hold; the caller cold-builds instead.
    pub fn intern(&mut self, item: Item) -> Option<u16> {
        match self.map.entry(item) {
            Entry::Occupied(slot) => {
                self.hits += 1;
                Some(*slot.get())
            }
            Entry::Vacant(slot) => {
                let id = u16::try_from(self.items.len()).ok()?;
                self.items.push(item);
                slot.insert(id);
                self.misses += 1;
                Some(id)
            }
        }
    }

    /// Drain the hit/miss counters accumulated since the last call (the
    /// `extract.dict_hits` / `extract.dict_misses` sources).
    pub fn take_stats(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.hits), std::mem::take(&mut self.misses))
    }
}

/// Streaming matrix builder over an [`ItemDictionary`]: rows become
/// dense ids as they are pushed, so freezing the matrix is an
/// item-support count and one sort of the distinct items — no
/// hash-count pass, no row remap.
#[derive(Debug)]
pub struct DictMatrixBuilder<'a> {
    dict: &'a mut ItemDictionary,
    overflowed: bool,
}

impl<'a> DictMatrixBuilder<'a> {
    /// Builder over `dict`, emptied of whatever its last build interned.
    pub fn new(dict: &'a mut ItemDictionary) -> DictMatrixBuilder<'a> {
        dict.items.clear();
        dict.map.clear();
        dict.ids.clear();
        dict.offsets.clear();
        dict.offsets.push(0);
        dict.weights.clear();
        DictMatrixBuilder { dict, overflowed: false }
    }

    /// Append one transaction, interning its items (rows hold ascending
    /// *dense ids* — first-seen order, not item order; the miners only
    /// need a consistent total order). Rows after an overflow are
    /// ignored: the build has already failed.
    ///
    /// # Panics
    /// Panics when the flat id buffer outgrows `u32` offsets, like
    /// [`MatrixBuilder::push_row`].
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Item>, weight: u64) {
        if self.overflowed {
            return;
        }
        let start = self.dict.ids.len();
        for item in row {
            let Some(id) = self.dict.intern(item) else {
                self.overflowed = true;
                return;
            };
            self.dict.ids.push(id);
        }
        sort_dedup_tail(&mut self.dict.ids, start);
        let offset =
            u32::try_from(self.dict.ids.len()).expect("matrix item buffer exceeds u32 offsets");
        self.dict.offsets.push(offset);
        self.dict.weights.push(weight);
    }

    /// Freeze into a matrix, or `None` when the rows overflowed the id
    /// space. The matrix gets exact-size copies of the buffers; the
    /// dictionary keeps its grown ones for the next build.
    pub fn build(self) -> Option<TransactionMatrix> {
        if self.overflowed {
            return None;
        }
        let dict = self.dict;
        let mut lookup: Vec<u16> = (0..dict.items.len()).map(|i| i as u16).collect();
        lookup.sort_unstable_by_key(|&id| dict.items[id as usize]);
        let cols = Columns {
            dict: dict.items.clone(),
            lookup,
            offsets: dict.offsets.clone(),
            ids: dict.ids.clone(),
            bitsets: Mutex::new(HashMap::new()),
            pairs: Mutex::new(HashMap::new()),
        };
        Some(TransactionMatrix::assemble(Arc::new(cols), dict.weights.clone(), (0, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;

    fn t(vals: &[u64], w: u64) -> Transaction {
        Transaction::new(vals.iter().map(|&v| Item(v)).collect(), w)
    }

    fn iset(vals: &[u64]) -> Itemset {
        Itemset::new(vals.iter().map(|&v| Item(v)).collect())
    }

    fn matrix(rows: &[(&[u64], u64)]) -> TransactionMatrix {
        let mut b = MatrixBuilder::new();
        for (vals, w) in rows {
            b.push_row(vals.iter().map(|&v| Item(v)), *w);
        }
        b.build()
    }

    #[test]
    fn builder_sorts_and_dedups_rows() {
        let m = matrix(&[(&[5, 1, 3, 1, 5], 2)]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.row(0).len(), 3);
        assert_eq!(m.itemset_of(m.row(0)), iset(&[1, 3, 5]));
        assert_eq!(m.weight(0), 2);
    }

    #[test]
    fn dictionary_is_sorted_and_ids_follow_item_order() {
        let m = matrix(&[(&[30, 10], 1), (&[20], 1)]);
        assert_eq!(m.item_universe(), vec![Item(10), Item(20), Item(30)]);
        assert_eq!(m.id_of(Item(10)), Some(0));
        assert_eq!(m.id_of(Item(20)), Some(1));
        assert_eq!(m.id_of(Item(30)), Some(2));
        assert_eq!(m.id_of(Item(99)), None);
        // Rows hold ascending ids.
        assert_eq!(m.row(0), &[0, 2]);
    }

    #[test]
    fn item_supports_are_weighted_level1_counts() {
        let m = matrix(&[(&[1, 2], 10), (&[1], 5), (&[2], 0)]);
        assert_eq!(m.item_supports()[m.id_of(Item(1)).unwrap() as usize], 15);
        assert_eq!(m.item_supports()[m.id_of(Item(2)).unwrap() as usize], 10);
        assert_eq!(m.total_weight(), 15);
    }

    #[test]
    fn support_of_matches_row_oriented_reference() {
        let rows: &[(&[u64], u64)] = &[(&[1, 2], 10), (&[1, 3], 5), (&[2, 3], 2), (&[1, 2, 3], 1)];
        let m = matrix(rows);
        let txs: TransactionSet = rows.iter().map(|(vals, w)| t(vals, *w)).collect();
        for set in [
            iset(&[]),
            iset(&[1]),
            iset(&[1, 2]),
            iset(&[1, 2, 3]),
            iset(&[3]),
            iset(&[4]),
            iset(&[1, 4]),
        ] {
            assert_eq!(m.support_of(&set), txs.support_of(&set), "itemset {set}");
        }
    }

    #[test]
    fn from_transaction_set_roundtrip() {
        let txs: TransactionSet = vec![t(&[1, 2], 3), t(&[2, 3], 4)].into_iter().collect();
        let m = TransactionMatrix::from(&txs);
        assert_eq!(m.len(), 2);
        assert_eq!(m.total_weight(), 7);
        assert_eq!(m.item_universe(), txs.item_universe());
    }

    #[test]
    fn with_weights_shares_structure() {
        let m = matrix(&[(&[1, 2], 7), (&[2], 3)]);
        let unit = m.unit_weights();
        assert_eq!(unit.total_weight(), 2);
        assert_eq!(unit.support_of(&iset(&[2])), 2);
        // Original untouched; structure shared.
        assert_eq!(m.support_of(&iset(&[2])), 10);
        assert_eq!(unit.item_universe(), m.item_universe());
    }

    #[test]
    fn bitsets_cover_the_right_tids_and_are_cached() {
        let m = matrix(&[(&[1], 1), (&[2], 1), (&[1, 2], 1)]);
        let id1 = m.id_of(Item(1)).unwrap();
        let id2 = m.id_of(Item(2)).unwrap();
        let bits = m.tid_bitsets(&[id1, id2]);
        assert_eq!(bits[0][0], 0b101);
        assert_eq!(bits[1][0], 0b110);
        // Second call returns the same allocation.
        let again = m.tid_bitsets(&[id1]);
        assert!(Arc::ptr_eq(&bits[0], &again[0]));
        // The cache is shared with re-weighted views.
        let heavy = m.with_weights(vec![5, 5, 5]);
        let shared = heavy.tid_bitsets(&[id1]);
        assert!(Arc::ptr_eq(&bits[0], &shared[0]));
        assert_eq!(heavy.support_of_bits(&shared[0]), 10);
    }

    #[test]
    fn pair_join_matches_support_of_and_is_cached() {
        let m = matrix(&[(&[1, 2], 3), (&[1], 1), (&[1, 2], 4), (&[2], 9)]);
        let id1 = m.id_of(Item(1)).unwrap();
        let id2 = m.id_of(Item(2)).unwrap();
        let (bits, support) = m.pair_join(id1, id2);
        assert_eq!(bits[0], 0b101);
        assert_eq!(support, 7);
        assert_eq!(support, m.support_of(&iset(&[1, 2])));
        // Operand order is normalized; the bitset Arc is shared.
        let (again, support_again) = m.pair_join(id2, id1);
        assert!(Arc::ptr_eq(&bits, &again));
        assert_eq!(support_again, 7);
        // A re-weighted view shares the bitset but recomputes support.
        let unit = m.unit_weights();
        let (unit_bits, unit_support) = unit.pair_join(id1, id2);
        assert!(Arc::ptr_eq(&bits, &unit_bits));
        assert_eq!(unit_support, 2);
        // And the original view's cached support is untouched.
        assert_eq!(m.pair_join(id1, id2).1, 7);
    }

    #[test]
    fn weighted_popcount_uniform_and_ragged() {
        let uniform = matrix(&[(&[1], 4), (&[1], 4), (&[2], 4)]);
        let id = uniform.id_of(Item(1)).unwrap();
        let bits = uniform.tid_bitsets(&[id]);
        assert_eq!(uniform.support_of_bits(&bits[0]), 8);
        let ragged = matrix(&[(&[1], 1), (&[1], 100), (&[2], 7)]);
        let id = ragged.id_of(Item(1)).unwrap();
        let bits = ragged.tid_bitsets(&[id]);
        assert_eq!(ragged.support_of_bits(&bits[0]), 101);
    }

    #[test]
    fn empty_matrix() {
        let m = TransactionMatrix::empty();
        assert!(m.is_empty());
        assert_eq!(m.total_weight(), 0);
        assert_eq!(m.n_items(), 0);
        assert_eq!(m.support_of(&iset(&[1])), 0);
        assert_eq!(m.support_of(&iset(&[])), 0);
    }

    #[test]
    fn bitset_words_spans_many_words() {
        let rows: Vec<(Vec<u64>, u64)> = (0..130).map(|i| (vec![1, 10 + i % 3], 1)).collect();
        let mut b = MatrixBuilder::new();
        for (vals, w) in &rows {
            b.push_row(vals.iter().map(|&v| Item(v)), *w);
        }
        let m = b.build();
        assert_eq!(m.bitset_words(), 3);
        assert_eq!(m.support_of(&iset(&[1])), 130);
        assert_eq!(m.support_of(&iset(&[1, 10])), 44); // tids 0, 3, 6, … < 130
    }

    #[test]
    fn capacity_overflow_drops_least_frequent_items() {
        // Two heavy items in every row plus one unique item per row, with
        // more distinct items than the dictionary can hold. The unique
        // item sorts *between* the heavy ones, so dropping it from a row
        // exercises the offset rewrite (rows shrink mid-buffer).
        let rows = TransactionMatrix::CAPACITY + 100;
        let mut b = MatrixBuilder::with_capacity(rows, 3);
        for r in 0..rows {
            b.push_row([Item(0), Item(1_000 + r as u64), Item(u64::MAX)], 1);
        }
        let m = b.build();
        assert_eq!(m.n_items(), TransactionMatrix::CAPACITY);
        assert_eq!(m.dropped_items(), 102); // rows + 2 distinct - CAPACITY
        assert_eq!(m.dropped_max_support(), 1);
        // The heavy items survive with exact support — including the
        // *pair*, whose support walks the remapped rows via bitsets
        // (guards the row/offset rewrite under dropped items).
        assert_eq!(m.support_of(&iset(&[0])), rows as u64);
        assert_eq!(m.support_of(&iset(&[0, u64::MAX])), rows as u64);
        // Every remapped row is still sorted, duplicate-free, and holds
        // both heavy items (surviving uniques keep exactly 3 ids).
        for (ids, _) in m.rows() {
            assert!(ids.len() == 2 || ids.len() == 3, "row len {}", ids.len());
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "row not strictly sorted");
            assert_eq!(m.item(ids[0]), Item(0));
            assert_eq!(m.item(*ids.last().unwrap()), Item(u64::MAX));
        }
        // Mining a *full* dictionary must not wrap the u16 id space:
        // every miner still sees all 65,536 ids (regression test — the
        // heavy item mines fine above the dropped tail's support).
        let config = crate::MiningConfig {
            min_support: crate::support::MinSupport::Absolute(rows as u64),
            ..crate::MiningConfig::default()
        };
        for algorithm in
            [crate::Algorithm::Apriori, crate::Algorithm::FpGrowth, crate::Algorithm::Eclat]
        {
            let mined = algorithm.miner().mine(&m, &config);
            // {0}, {MAX} and the pair are the only itemsets at the
            // threshold; canonical order puts the longer pair first.
            assert_eq!(mined.len(), 3, "{algorithm}");
            assert_eq!(mined[0].itemset, iset(&[0, u64::MAX]), "{algorithm}");
            assert!(mined.iter().all(|f| f.support == rows as u64), "{algorithm}");
        }
    }

    #[test]
    fn warm_builder_matches_cold_build() {
        let rows: &[(&[u64], u64)] =
            &[(&[30, 10], 2), (&[20, 30], 5), (&[10, 20, 30], 1), (&[40], 7)];
        let cold = matrix(rows);
        let mut dict = ItemDictionary::new();
        let mut b = DictMatrixBuilder::new(&mut dict);
        for (vals, w) in rows {
            b.push_row(vals.iter().map(|&v| Item(v)), *w);
        }
        let warm = b.build().expect("no overflow");
        // Interned ids follow first-seen order (30 first), not item order …
        assert_eq!(warm.item(0), Item(30));
        assert_eq!(warm.id_of(Item(10)), Some(1));
        // … but every item-level observable agrees with the cold build.
        assert_eq!(warm.item_universe(), cold.item_universe());
        assert_eq!(warm.total_weight(), cold.total_weight());
        for set in [iset(&[10]), iset(&[10, 30]), iset(&[20, 30]), iset(&[10, 20, 30]), iset(&[99])]
        {
            assert_eq!(warm.support_of(&set), cold.support_of(&set), "itemset {set}");
        }
        // And so does every miner, bit for bit.
        let config = crate::MiningConfig {
            min_support: crate::support::MinSupport::Absolute(1),
            ..crate::MiningConfig::default()
        };
        for algorithm in
            [crate::Algorithm::Apriori, crate::Algorithm::FpGrowth, crate::Algorithm::Eclat]
        {
            assert_eq!(
                algorithm.miner().mine(&warm, &config),
                algorithm.miner().mine(&cold, &config),
                "{algorithm}"
            );
        }
    }

    #[test]
    fn dictionary_is_window_local_and_counts_within_build_reuse() {
        let mut dict = ItemDictionary::new();
        let mut b = DictMatrixBuilder::new(&mut dict);
        b.push_row([Item(7), Item(3)], 1);
        b.push_row([Item(7), Item(5)], 1);
        let first = b.build().expect("no overflow");
        assert_eq!(first.n_items(), 3);
        assert_eq!(dict.take_stats(), (1, 3), "the second 7 is the only reuse");

        // The next build starts empty: Item(3) and Item(5) are gone, and
        // the repeated Item(7) is a miss again.
        let mut b = DictMatrixBuilder::new(&mut dict);
        b.push_row([Item(7), Item(9)], 2);
        let second = b.build().expect("no overflow");
        assert_eq!(dict.take_stats(), (0, 2));
        assert_eq!((second.n_items(), dict.len()), (2, 2));
        assert_eq!(second.id_of(Item(3)), None);
        assert_eq!(second.item_universe(), vec![Item(7), Item(9)]);
        // The first matrix owns its columns: the rebuild did not touch it.
        assert_eq!(first.support_of(&iset(&[7])), 2);
        assert_eq!(first.support_of(&iset(&[3, 7])), 1);
    }

    #[test]
    fn dict_overflow_fails_the_build_and_the_next_build_starts_clean() {
        let mut dict = ItemDictionary::new();
        let mut b = DictMatrixBuilder::new(&mut dict);
        for i in 0..TransactionMatrix::CAPACITY as u64 {
            b.push_row([Item(i)], 1);
        }
        b.push_row([Item(5)], 1); // existing items still intern at capacity
        b.push_row([Item(1), Item(u64::MAX)], 1);
        b.push_row([Item(2)], 1);
        assert!(b.build().is_none(), "overflowed build must not produce a matrix");
        let mut b = DictMatrixBuilder::new(&mut dict);
        b.push_row([Item(1), Item(u64::MAX)], 1);
        let m = b.build().expect("a fresh build has room");
        assert_eq!(m.n_items(), 2);
        assert_eq!(m.support_of(&iset(&[1, u64::MAX])), 1);
    }

    #[test]
    fn frequent_ids_are_the_ascending_ids_at_or_above_the_threshold() {
        let m = matrix(&[(&[1, 2, 3], 5), (&[2, 3], 2), (&[3, 4], 1)]);
        let ids = |items: &[u64]| -> Vec<u16> {
            items.iter().map(|&v| m.id_of(Item(v)).unwrap()).collect()
        };
        assert_eq!(m.frequent_ids(0), ids(&[1, 2, 3, 4]));
        assert_eq!(m.frequent_ids(5), ids(&[1, 2, 3]));
        assert_eq!(m.frequent_ids(6), ids(&[2, 3]));
        assert_eq!(m.frequent_ids(8), ids(&[3]));
        assert!(m.frequent_ids(9).is_empty());
        // Per weight view: unit weights rank the same items differently.
        assert_eq!(m.unit_weights().frequent_ids(2), ids(&[2, 3]));
    }
}
