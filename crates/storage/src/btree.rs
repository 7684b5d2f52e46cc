//! The B+ tree mapping column keys to row ids: an index's sorted entries.
//!
//! This is the physical structure behind every index the tuner can
//! materialize. An index keys its cells' 32-bit cell codes
//! (`BPlusTreeOf<u32>`) and is probed by the resolver's key codes through
//! [`BPlusTreeOf::range_codes_into`].
//! An index is bulk-loaded once and dropped whole, so the tree is static:
//! the one sorted vector of `(key, rowid)` entries its build hands over,
//! with [`bulk_shape`]'s partition of that vector as its leaves. It
//! supports duplicate keys (secondary index semantics), point lookups and
//! inclusive/exclusive range scans, and charges [`IoStats`] for the pages
//! a disk-resident tree of the same shape would touch: one random page
//! per level on a descent, one sequential page per additional leaf
//! visited while scanning the leaf chain.

use crate::column::KeyCode;
use crate::page::{IoStats, PAGE_SIZE};
use crate::row::RowId;
use crate::value::Value;
use std::cmp::Ordering;
use std::ops::Bound;

/// The bound every tree key type must satisfy. Blanket-implemented;
/// `u32` cell codes key every index; the tests also key [`Value`]s and
/// `u64`s as references.
pub trait TreeKey: Ord + Clone + std::fmt::Debug {}
impl<K: Ord + Clone + std::fmt::Debug> TreeKey for K {}

/// A B+ tree over keys of one type, mapping each to row ids.
///
/// # Examples
///
/// ```
/// use colt_storage::{BPlusTree, IoStats, RowId, Value};
/// use std::ops::Bound;
///
/// let entries = (0..1_000).map(|i| (Value::Int(i), RowId(i as u32))).collect();
/// let tree = BPlusTree::bulk_load(8, entries);
///
/// let mut io = IoStats::new();
/// assert_eq!(tree.lookup(&Value::Int(42), &mut io), vec![RowId(42)]);
/// // The descent charged one random page per level.
/// assert_eq!(io.random_pages, tree.height() as u64);
///
/// let hits = tree.range(
///     Bound::Included(&Value::Int(10)),
///     Bound::Excluded(&Value::Int(20)),
///     &mut io,
/// );
/// assert_eq!(hits.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct BPlusTreeOf<K: TreeKey> {
    /// Every entry in `(key, rowid)` order, leaf after leaf.
    entries: Vec<(K, RowId)>,
    shape: BulkShape,
}

/// A single-column B+ tree keyed by [`Value`]s: the oracle the
/// code-keyed index trees are tested against.
pub type BPlusTree = BPlusTreeOf<Value>;

/// Entries per node for a key of the given byte width, assuming each leaf
/// entry also stores a 6-byte tuple pointer plus item overhead.
pub fn default_order(key_width: usize) -> usize {
    (PAGE_SIZE / (key_width + 14)).clamp(8, 512)
}

/// The shape [`BPlusTreeOf::bulk_load`] gives a tree: the one rule the
/// tree is laid out by and the catalog's size estimate promises by, so a
/// built index has exactly its estimated footprint. Leaves hold `fill`
/// entries each and the last one the rest — unless that leaves it under
/// half full, when the last two share so the last holds `fill / 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkShape {
    /// Entries per filled node: ~90% of the order, the fill factor of a
    /// freshly built database index.
    pub fill: usize,
    /// Leaf nodes.
    pub leaves: usize,
    /// All nodes, which is the page footprint.
    pub pages: usize,
    /// Levels, the leaf level included.
    pub height: usize,
}

/// The shape of a bulk-loaded tree over `entries` keys of `key_width`
/// bytes (an empty tree is one empty leaf).
pub fn bulk_shape(entries: usize, key_width: usize) -> BulkShape {
    let fill = (default_order(key_width) * 9 / 10).max(4);
    let leaves = entries.div_ceil(fill).max(1);
    let (mut pages, mut level, mut height) = (leaves, leaves, 1);
    while level > 1 {
        level = level.div_ceil(fill);
        pages += level;
        height += 1;
    }
    BulkShape { fill, leaves, pages, height }
}

impl<K: TreeKey> BPlusTreeOf<K> {
    /// Bulk-load a tree from entries that are already sorted by
    /// `(key, rowid)`, none twice, as an index's rows are. The vector is
    /// kept as it is: it is the tree.
    pub fn bulk_load(key_width: usize, entries: Vec<(K, RowId)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| (&w[0].0, w[0].1) < (&w[1].0, w[1].1)),
            "bulk_load requires input sorted by (key, rowid), without repeats"
        );
        let shape = bulk_shape(entries.len(), key_width);
        BPlusTreeOf { entries, shape }
    }

    /// Number of entries in the tree.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Height of the tree (number of levels including the leaf level).
    pub fn height(&self) -> usize {
        self.shape.height
    }

    /// Number of nodes, which is the page footprint of the index.
    pub fn page_count(&self) -> usize {
        self.shape.pages
    }

    /// Approximate size in bytes.
    pub fn byte_size(&self) -> usize {
        self.page_count() * PAGE_SIZE
    }

    /// Every entry in key order (no I/O charged; used by tests).
    pub fn entries(&self) -> &[(K, RowId)] {
        &self.entries
    }

    /// The first entry of leaf `leaf`: `fill` entries past the one
    /// before it — the last leaf's `fill / 2` before the end when the
    /// rest would fill it less.
    fn leaf_start(&self, leaf: usize) -> usize {
        let BulkShape { fill, leaves, .. } = self.shape;
        let start = leaf * fill;
        if leaf + 1 == leaves {
            start.min(self.entries.len().saturating_sub(fill / 2))
        } else {
            start
        }
    }

    /// The leaf holding entry `i`; the last leaf for `i` past the end.
    fn leaf_of(&self, i: usize) -> usize {
        let last = self.shape.leaves - 1;
        if i >= self.leaf_start(last) {
            last
        } else {
            i / self.shape.fill
        }
    }

    /// Point lookup: all row ids whose key equals `key`.
    pub fn lookup(&self, key: &K, io: &mut IoStats) -> Vec<RowId> {
        let mut out = Vec::new();
        self.lookup_into(key, &mut out, io);
        out
    }

    /// Buffer-reusing form of [`BPlusTreeOf::lookup`]: appends the
    /// matching row ids to `out` instead of allocating a fresh vector.
    /// Charges exactly what `lookup` charges, so batch executors that
    /// probe once per outer row can reuse one buffer without perturbing
    /// the I/O model.
    pub fn lookup_into(&self, key: &K, out: &mut Vec<RowId>, io: &mut IoStats) {
        colt_obs::counter("storage.btree.lookups", 1);
        self.range_into(Bound::Included(key), Bound::Included(key), out, io);
    }

    /// Range scan over `[lo, hi]` bounds. Charges `height` random pages
    /// for the initial descent and one sequential page per further leaf.
    pub fn range(&self, lo: Bound<&K>, hi: Bound<&K>, io: &mut IoStats) -> Vec<RowId> {
        let mut out = Vec::new();
        self.range_into(lo, hi, &mut out, io);
        out
    }

    /// Buffer-reusing form of [`BPlusTreeOf::range`]: appends matches to
    /// `out`. The trailing `cpu_ops` comparison charge covers only the
    /// row ids appended by *this* call, keeping charges identical to
    /// `range` regardless of what the buffer already held.
    ///
    /// The charges are those of a scan that reads every leaf from the
    /// one the descent to `(lo, RowId(0))` reaches up to the first key
    /// beyond `hi`: an exclusive `lo` still descends to the first equal
    /// key and skips the run of equals, leaf by leaf.
    pub fn range_into(&self, lo: Bound<&K>, hi: Bound<&K>, out: &mut Vec<RowId>, io: &mut IoStats) {
        fn against<K: Ord>(bound: &K) -> impl Fn(&K) -> Ordering + '_ {
            move |k| k.cmp(bound)
        }
        self.scan(lo.map(against), hi.map(against), out, io);
    }

    /// The one scan behind every probe, each bound given as how a key
    /// orders against it. It charges the leaf walk: the descent to
    /// `(lo, RowId(0))` lands on the last leaf whose first entry is not
    /// above it (the leaf of the last entry not above it), and the scan
    /// reads on, a leaf at a time, until a leaf holds a key beyond `hi`
    /// or the chain ends, keeping the keys not below `lo`. The entries
    /// themselves are found by one binary search for `lo`, then by
    /// doubling steps from there, so a short run costs a few compares.
    fn scan(
        &self,
        lo: Bound<impl Fn(&K) -> Ordering>,
        hi: Bound<impl Fn(&K) -> Ordering>,
        out: &mut Vec<RowId>,
        io: &mut IoStats,
    ) {
        colt_obs::counter("storage.btree.ranges", 1);
        let entries = &self.entries[..];
        // Keys below `lo`, then the entries not above `(lo, RowId(0))`:
        // those and the first of `lo`'s run if its row is 0.
        let (below, landed) = match &lo {
            Bound::Included(at) | Bound::Excluded(at) => {
                let below = entries.partition_point(|(k, _)| at(k).is_lt());
                let row_0 = entries.get(below).is_some_and(|(k, r)| at(k).is_eq() && *r == RowId(0));
                (below, below + usize::from(row_0))
            }
            Bound::Unbounded => (0, 0),
        };
        let start = match &lo {
            Bound::Excluded(at) => below + gallop(&entries[below..], |(k, _)| at(k).is_eq()),
            _ => below,
        };
        let in_hi = |(k, _): &(K, RowId)| match &hi {
            Bound::Included(at) => at(k).is_le(),
            Bound::Excluded(at) => at(k).is_lt(),
            Bound::Unbounded => true,
        };
        // The first key beyond `hi` ends the scan in its leaf, even
        // among the keys below `lo` (an empty interval).
        let end = match entries[..start].last() {
            Some(last) if !in_hi(last) => entries[..start].partition_point(in_hi),
            _ => start + gallop(&entries[start..], in_hi),
        };
        let leaf = self.leaf_of(landed.saturating_sub(1));
        io.random_pages += self.shape.height as u64;
        io.seq_pages += (self.leaf_of(end).max(leaf) - leaf) as u64;
        let hits = entries.get(start..end).unwrap_or_default();
        io.cpu_ops += hits.len() as u64;
        out.extend(hits.iter().map(|&(_, rid)| rid));
    }
}

/// How many leading `entries` `pred` holds on (it holds on a prefix), by
/// doubling steps from the front, then a binary search of the last step.
fn gallop<T>(entries: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut step = 1;
    while step <= entries.len() && pred(&entries[step - 1]) {
        step *= 2;
    }
    let known = step / 2;
    known + entries[known..(step - 1).min(entries.len())].partition_point(pred)
}

/// The tree of an index, probed by the scan kernels' resolved key codes
/// ([`crate::literal_code`] / [`crate::code_interval`]): a cell code `c`
/// answers as its key code `2c + 1`, so row ids *and* [`IoStats`] are
/// those of a `Value`-keyed tree over the same cells.
impl BPlusTreeOf<u32> {
    /// Scan of the closed interval of resolved codes `lo..=hi`, appending
    /// to `out`. `None`, a range no cell can match, still pays one
    /// descent: the scan for the codes below the lowest.
    pub fn range_codes_into(&self, codes: Option<(u64, u64)>, out: &mut Vec<RowId>, io: &mut IoStats) {
        match codes {
            Some((lo, hi)) => self.scan(
                Bound::Included(|k: &u32| k.code().cmp(&lo)),
                Bound::Included(|k: &u32| k.code().cmp(&hi)),
                out,
                io,
            ),
            None => self.scan(Bound::<fn(&u32) -> Ordering>::Unbounded, Bound::Excluded(|_: &u32| Ordering::Greater), out, io),
        }
    }

    /// Point lookup of a resolved literal or cell, appending to `out`;
    /// `Err`, one of another type than the column's, matches nothing.
    pub fn lookup_code_into(&self, code: Result<u64, Ordering>, out: &mut Vec<RowId>, io: &mut IoStats) {
        colt_obs::counter("storage.btree.lookups", 1);
        self.range_codes_into(code.ok().map(|c| (c, c)), out, io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    /// A tree over `keys` (sorted here), row `i` the `i`-th key's, at the
    /// smallest order a key width gives (8, so 7 entries a leaf): deep
    /// trees from few keys.
    fn deep(mut keys: Vec<Value>) -> BPlusTree {
        keys.sort();
        BPlusTree::bulk_load(PAGE_SIZE, keys.into_iter().zip((0..).map(RowId)).collect())
    }

    #[test]
    fn empty_tree() {
        let t = BPlusTree::bulk_load(8, Vec::new());
        assert!(t.is_empty());
        assert_eq!((t.height(), t.page_count()), (1, 1));
        let mut io = IoStats::new();
        assert!(t.lookup(&v(1), &mut io).is_empty());
    }

    #[test]
    fn bulk_load_and_lookup() {
        let t = deep((0..100).map(v).collect());
        let mut io = IoStats::new();
        for i in 0..100 {
            let hits = t.lookup(&v(i), &mut io);
            assert_eq!(hits, vec![RowId(i as u32)], "key {i}");
        }
        assert!(t.height() > 2, "a 7-entry-leaf tree with 100 keys must be deep");
    }

    #[test]
    fn duplicate_keys() {
        let t = deep(vec![v(7); 50]);
        let mut io = IoStats::new();
        let hits = t.lookup(&v(7), &mut io);
        assert_eq!(hits, (0..50).map(RowId).collect::<Vec<_>>());
        assert_eq!(io.seq_pages as usize, 50usize.div_ceil(7) - 1, "the run spans every leaf");
    }

    #[test]
    fn into_variants_append_and_charge_identically() {
        let t = deep((0..200).map(|i| v(i % 40)).collect());
        // lookup vs lookup_into onto a non-empty buffer.
        let mut io_a = IoStats::new();
        let hits = t.lookup(&v(7), &mut io_a);
        let mut io_b = IoStats::new();
        let mut buf = vec![RowId(9999)];
        t.lookup_into(&v(7), &mut buf, &mut io_b);
        assert_eq!(io_a, io_b, "reused buffer must not change charges");
        assert_eq!(&buf[1..], &hits[..], "matches append after existing content");
        assert_eq!(buf[0], RowId(9999));
        // range vs range_into, including the early-return path.
        let mut io_a = IoStats::new();
        let r = t.range(Bound::Included(&v(5)), Bound::Excluded(&v(9)), &mut io_a);
        let mut io_b = IoStats::new();
        let mut buf = r.clone();
        t.range_into(Bound::Included(&v(5)), Bound::Excluded(&v(9)), &mut buf, &mut io_b);
        assert_eq!(io_a, io_b);
        assert_eq!(buf.len(), 2 * r.len());
    }

    /// What a range scan charges, spelled out: descend to
    /// `(lo, RowId(0))` — the last leaf whose first entry is not above
    /// it — then read the leaf chain entry by entry: stop at the first
    /// key beyond `hi`, keep the keys not below `lo`.
    fn walked_range<K: TreeKey>(
        t: &BPlusTreeOf<K>,
        lo: Bound<&K>,
        hi: Bound<&K>,
    ) -> (Vec<RowId>, IoStats) {
        use std::ops::RangeBounds;
        let starts: Vec<usize> = (0..t.shape.leaves).map(|leaf| t.leaf_start(leaf)).collect();
        let leaves: Vec<&[(K, RowId)]> = (starts.iter().zip(starts.iter().skip(1).chain([&t.len()])))
            .map(|(&from, &to)| &t.entries[from..to])
            .collect();
        let landed = match lo {
            Bound::Included(k) | Bound::Excluded(k) => {
                leaves.iter().rposition(|leaf| leaf.first().is_some_and(|(f, r)| (f, *r) <= (k, RowId(0))))
            }
            Bound::Unbounded => None,
        };
        let (mut out, mut io) = (Vec::new(), IoStats::new());
        io.random_pages += t.height() as u64;
        'scan: for (i, leaf) in leaves[landed.unwrap_or(0)..].iter().enumerate() {
            io.seq_pages += u64::from(i > 0);
            for (k, rid) in leaf.iter() {
                if !(Bound::Unbounded, hi).contains(k) {
                    break 'scan;
                }
                if (lo, Bound::Unbounded).contains(k) {
                    out.push(*rid);
                }
            }
        }
        io.cpu_ops += out.len() as u64;
        (out, io)
    }

    #[test]
    fn range_into_charges_like_the_entry_walk() {
        let mut rng = crate::prng::Prng::new(0xB7EE_0005);
        for case in 0..200 {
            // Few distinct keys over small leaves: runs of duplicates
            // span several leaves, and empty leaves' worth of keys lie
            // between the bounds and the leaf the descent reaches.
            let (width, distinct) = ([PAGE_SIZE, 400, 100][case % 3], [3, 12, 60][case / 3 % 3]);
            let mut keys: Vec<u64> = (0..rng.below(120))
                .map(|_| match rng.below(10) {
                    0 => u64::MIN,
                    1 => u64::MAX,
                    _ => 10 * (1 + rng.below_u64(distinct)),
                })
                .collect();
            keys.sort_unstable();
            let codes = BPlusTreeOf::bulk_load(width, keys.into_iter().zip((0..).map(RowId)).collect());
            let values = BPlusTree::bulk_load(
                width,
                codes.entries().iter().map(|&(k, rid)| (Value::Int(k.min(i64::MAX as u64) as i64), rid)).collect(),
            );
            for _ in 0..20 {
                let bound = |rng: &mut crate::prng::Prng| {
                    let k = match rng.below(8) {
                        0 => u64::MIN,
                        1 => u64::MAX,
                        _ => 5 * rng.below_u64(2 * distinct + 4),
                    };
                    [Bound::Included(k), Bound::Excluded(k), Bound::Unbounded][rng.below(3)]
                };
                let (lo, hi) = (bound(&mut rng), bound(&mut rng));
                let mut io = IoStats::new();
                let got = codes.range(lo.as_ref(), hi.as_ref(), &mut io);
                assert_eq!((got, io), walked_range(&codes, lo.as_ref(), hi.as_ref()), "case {case}: {lo:?}..{hi:?}");

                // The same question of a `Value`-keyed tree (keys in
                // `u64` order are non-negative `Int`s up to `i64::MAX`).
                let as_value = |b: Bound<u64>| b.map(|k| Value::Int(k.min(i64::MAX as u64) as i64));
                let (lo, hi) = (as_value(lo), as_value(hi));
                let mut io = IoStats::new();
                let got = values.range(lo.as_ref(), hi.as_ref(), &mut io);
                assert_eq!((got, io), walked_range(&values, lo.as_ref(), hi.as_ref()), "case {case}: {lo:?}..{hi:?}");
            }
        }
    }

    #[test]
    fn range_scan_bounds() {
        let t = deep((0..200).map(v).collect());
        let mut io = IoStats::new();
        let r = t.range(Bound::Included(&v(10)), Bound::Excluded(&v(20)), &mut io);
        assert_eq!(r.len(), 10);
        let r = t.range(Bound::Excluded(&v(10)), Bound::Included(&v(20)), &mut io);
        assert_eq!(r.len(), 10);
        let r = t.range(Bound::Unbounded, Bound::Excluded(&v(5)), &mut io);
        assert_eq!(r.len(), 5);
        let r = t.range(Bound::Included(&v(195)), Bound::Unbounded, &mut io);
        assert_eq!(r.len(), 5);
        let r = t.range(Bound::Unbounded, Bound::Unbounded, &mut io);
        assert_eq!(r.len(), 200);
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let t = BPlusTree::bulk_load(8, vec![]);
        assert!(t.is_empty());
        let t = BPlusTree::bulk_load(8, vec![(v(1), RowId(0))]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&v(1), &mut IoStats::new()), vec![RowId(0)]);
    }

    #[test]
    fn bulk_load_shape_matches_the_chunked_reference() {
        // The shape the original leaf-peeling loader produced, computed
        // on sizes alone: `fill`-entry leaves, the last two rebalanced
        // when the remainder is under half a leaf, then `fill` children
        // per internal node up to a single root. `page_count` is what
        // an index build charges as pages written, so it must not move.
        let fill = default_order(8) * 9 / 10;
        for n in [0, 1, fill - 1, fill, fill + 1, 2 * fill + fill / 2 - 1, 10_000] {
            let mut leaves = vec![fill; n / fill];
            if n % fill > 0 || n == 0 {
                leaves.push(n % fill);
            }
            if let [.., prev, last] = &mut leaves[..] {
                if *last < fill / 2 {
                    *prev -= fill / 2 - *last;
                    *last = fill / 2;
                }
            }
            let (mut pages, mut height, mut level) = (leaves.len(), 1, leaves.len());
            while level > 1 {
                level = level.div_ceil(fill);
                pages += level;
                height += 1;
            }

            let tree = BPlusTree::bulk_load(8, (0..n).map(|i| (v(i as i64), RowId(i as u32))).collect());
            let got: Vec<usize> =
                (0..tree.shape.leaves).map(|leaf| (0..n).filter(|&i| tree.leaf_of(i) == leaf).count()).collect();
            assert_eq!(got, leaves, "leaf sizes at n = {n}");
            let starts = (0..tree.shape.leaves).map(|leaf| tree.leaf_start(leaf));
            assert!(starts.eq(leaves.iter().scan(0, |start, size| Some(std::mem::replace(start, *start + size)))));
            assert_eq!((tree.page_count(), tree.height()), (pages, height), "n = {n}");
            assert_eq!(tree.len(), n);
        }
    }

    #[test]
    fn descent_charges_height_random_pages() {
        let t = deep((0..500).map(v).collect());
        let h = t.height() as u64;
        let mut io = IoStats::new();
        t.lookup(&v(250), &mut io);
        assert_eq!(io.random_pages, h);
    }

    #[test]
    fn long_range_charges_sequential_leaves() {
        let entries: Vec<_> = (0..10_000).map(|i| (v(i), RowId(i as u32))).collect();
        let t = BPlusTree::bulk_load(8, entries);
        let mut io = IoStats::new();
        let r = t.range(Bound::Unbounded, Bound::Unbounded, &mut io);
        assert_eq!(r.len(), 10_000);
        assert!(io.seq_pages > 10, "full scan should walk many leaves, got {}", io.seq_pages);
        assert_eq!(io.random_pages, t.height() as u64);
    }

    #[test]
    fn page_count_grows_with_entries() {
        let small = BPlusTree::bulk_load(8, (0..100).map(|i| (v(i), RowId(i as u32))).collect());
        let large = BPlusTree::bulk_load(8, (0..100_000).map(|i| (v(i), RowId(i as u32))).collect());
        assert!(large.page_count() > small.page_count() * 100);
        assert_eq!(large.byte_size(), large.page_count() * PAGE_SIZE);
    }
}
