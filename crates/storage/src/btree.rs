//! An arena-based B+ tree mapping column keys to row ids.
//!
//! This is the physical structure behind every index the tuner can
//! materialize, keyed by its cells' key codes: a single-column one by
//! one code (`BPlusTreeOf<u64>`), a multi-column one by the codes of its
//! columns in order (`BPlusTreeOf<Vec<u64>>`), both probed through
//! [`BPlusTreeOf::range_codes_into`].
//! It supports duplicate keys (secondary index semantics), point
//! lookups, inclusive/exclusive range scans, one-by-one inserts and
//! sorted bulk loading, and charges [`IoStats`] for the pages a
//! disk-resident tree of the same shape would touch: one random page per
//! level on a descent, one sequential page per additional leaf visited
//! while scanning the leaf chain.

use crate::page::{IoStats, PAGE_SIZE};
use crate::row::RowId;
use crate::value::Value;
use std::cmp::Ordering;
use std::ops::Bound;

/// Index of a node in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeId(u32);

/// The bound every tree key type must satisfy. Blanket-implemented;
/// `u64` key codes cover single-column indices, `Vec<u64>` the
/// multi-column extension (lexicographic composite keys), and
/// [`Value`] / `Vec<Value>` are the tests' references for both.
pub trait TreeKey: Ord + Clone + std::fmt::Debug {}
impl<K: Ord + Clone + std::fmt::Debug> TreeKey for K {}

#[derive(Debug, Clone)]
enum Node<K: TreeKey> {
    /// Routing node: `children.len() == keys.len() + 1`; subtree `i`
    /// holds composites `< keys[i]`, subtree `i+1` holds composites
    /// `>= keys[i]`. The routing composite `(key, rowid)` is unique
    /// because every index entry pairs a key with the unique id of its
    /// row, which keeps separator invariants strict even when many rows
    /// share the same key.
    Internal { keys: Vec<(K, RowId)>, children: Vec<NodeId> },
    /// Leaf node: sorted `(key, rowid)` entries plus a chain pointer.
    Leaf { entries: Vec<(K, RowId)>, next: Option<NodeId> },
}

/// A B+ tree over keys of one type, mapping each to row ids.
///
/// # Examples
///
/// ```
/// use colt_storage::{BPlusTree, IoStats, RowId, Value};
/// use std::ops::Bound;
///
/// let mut tree = BPlusTree::new(8);
/// for i in 0..1_000 {
///     tree.insert(Value::Int(i), RowId(i as u32));
/// }
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
    arena: Vec<Node<K>>,
    root: NodeId,
    height: usize,
    len: usize,
    /// Maximum entries per node; derived from the key width by default.
    order: usize,
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
/// loader builds by and the catalog's size estimate promises by, so a
/// built index has exactly its estimated footprint.
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
    /// Create an empty tree whose node capacity is derived from the key
    /// byte width.
    pub fn new(key_width: usize) -> Self {
        Self::with_order(default_order(key_width))
    }

    /// Create an empty tree with an explicit node capacity (mostly for
    /// tests that want to exercise deep trees with few keys).
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 4, "B+ tree order must be at least 4");
        BPlusTreeOf {
            arena: vec![Node::Leaf { entries: Vec::new(), next: None }],
            root: NodeId(0),
            height: 1,
            len: 0,
            order,
        }
    }

    /// Bulk-load a tree from entries that are already sorted by key.
    ///
    /// Nodes are filled per [`bulk_shape`] in one left-to-right pass over
    /// the input.
    pub fn bulk_load(key_width: usize, entries: Vec<(K, RowId)>) -> Self {
        let _span = colt_obs::span("storage.btree.bulk_load");
        let order = default_order(key_width);
        debug_assert!(
            entries.windows(2).all(|w| (&w[0].0, w[0].1) <= (&w[1].0, w[1].1)),
            "bulk_load requires input sorted by (key, rowid)"
        );
        if entries.is_empty() {
            return Self::with_order(order);
        }
        let len = entries.len();
        let BulkShape { fill, leaves, pages, height } = bulk_shape(len, key_width);

        // Leaf sizes: `fill` each, the remainder in the last one —
        // unless that leaves it under half full, in which case the last
        // two leaves share so the last gets `fill / 2`.
        let mut last = len - (leaves - 1) * fill;
        let mut second_last = fill;
        if leaves >= 2 && last < fill / 2 {
            second_last -= fill / 2 - last;
            last = fill / 2;
        }

        // Build the leaf level.
        let mut arena: Vec<Node<K>> = Vec::with_capacity(pages);
        let mut level: Vec<((K, RowId), NodeId)> = Vec::with_capacity(leaves); // (first composite key, node)
        let mut entries = entries.into_iter();
        for leaf in 0..leaves {
            let size = match leaves - leaf {
                1 => last,
                2 => second_last,
                _ => fill,
            };
            let chunk: Vec<(K, RowId)> = entries.by_ref().take(size).collect();
            let first = chunk[0].clone();
            let id = NodeId(arena.len() as u32);
            arena.push(Node::Leaf { entries: chunk, next: None });
            level.push((first, id));
        }
        // Wire the leaf chain.
        for i in 0..level.len().saturating_sub(1) {
            let next = level[i + 1].1;
            if let Node::Leaf { next: n, .. } = &mut arena[level[i].1 .0 as usize] {
                *n = Some(next);
            }
        }

        // Build internal levels bottom-up.
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for group in level.chunks(fill) {
                let first = group[0].0.clone();
                let keys = group[1..].iter().map(|(k, _)| k.clone()).collect();
                let children = group.iter().map(|(_, id)| *id).collect();
                let id = NodeId(arena.len() as u32);
                arena.push(Node::Internal { keys, children });
                next_level.push((first, id));
            }
            level = next_level;
        }
        let root = level[0].1;
        debug_assert_eq!(arena.len(), pages);
        BPlusTreeOf { arena, root, height, len, order }
    }

    /// Number of entries in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (number of levels including the leaf level).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of nodes, which is the page footprint of the index.
    pub fn page_count(&self) -> usize {
        self.arena.len()
    }

    /// Approximate size in bytes.
    pub fn byte_size(&self) -> usize {
        self.page_count() * PAGE_SIZE
    }

    fn node(&self, id: NodeId) -> &Node<K> {
        &self.arena[id.0 as usize]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node<K> {
        &mut self.arena[id.0 as usize]
    }

    fn alloc(&mut self, node: Node<K>) -> NodeId {
        let id = NodeId(self.arena.len() as u32);
        self.arena.push(node);
        id
    }

    /// The entries and chain pointer of a leaf. Every id handed in comes
    /// from [`Self::descend`], [`Self::leftmost_leaf`] or a leaf's
    /// `next`, which only ever name leaves.
    fn leaf(&self, id: NodeId) -> (&[(K, RowId)], Option<NodeId>) {
        match self.node(id) {
            Node::Leaf { entries, next } => (entries, *next),
            // colt: allow(panic-policy) — descents and leaf chains only yield leaf nodes
            Node::Internal { .. } => unreachable!("leaf chain reached an internal node"),
        }
    }

    /// Descend to the leaf that may contain `key`, charging one random
    /// page per level, and return the path of internal nodes taken.
    fn descend(&self, key: (&K, RowId), io: &mut IoStats) -> (NodeId, Vec<(NodeId, usize)>) {
        let mut path = Vec::with_capacity(self.height);
        let mut cur = self.root;
        io.random_pages += 1;
        loop {
            match self.node(cur) {
                Node::Internal { keys, children } => {
                    let slot = keys.partition_point(|(k, r)| (k, *r) <= key);
                    path.push((cur, slot));
                    cur = children[slot];
                    io.random_pages += 1;
                }
                Node::Leaf { .. } => return (cur, path),
            }
        }
    }

    /// Insert an entry. Duplicate keys are allowed.
    pub fn insert(&mut self, key: K, row: RowId) {
        colt_obs::counter("storage.btree.inserts", 1);
        let mut io = IoStats::new(); // insert path charging folded into build cost elsewhere
        let ckey = (key, row);
        let (leaf, path) = self.descend((&ckey.0, row), &mut io);
        let order = self.order;
        if let Node::Leaf { entries, .. } = self.node_mut(leaf) {
            let pos = entries.partition_point(|(k, r)| (k, r) < (&ckey.0, &ckey.1));
            entries.insert(pos, ckey);
        }
        self.len += 1;
        self.split_up(leaf, path, order);
    }

    /// Split overflowing nodes from `node` up along `path`.
    fn split_up(&mut self, mut node: NodeId, mut path: Vec<(NodeId, usize)>, order: usize) {
        loop {
            let (sep, sibling) = match self.node_mut(node) {
                Node::Leaf { entries, next } => {
                    if entries.len() <= order {
                        return;
                    }
                    // Never split inside a run of equal composites: pick the
                    // boundary closest to the midpoint where adjacent entries
                    // differ. Exact duplicates only arise if a caller inserts
                    // the same (value, rowid) twice; we still keep the tree
                    // searchable by tolerating a temporarily oversized leaf
                    // in the (degenerate) all-equal case.
                    let half = entries.len() / 2;
                    let differs = |i: usize| entries[i - 1] != entries[i];
                    let mid = (half..entries.len())
                        .find(|&i| differs(i))
                        .or_else(|| (1..half).rev().find(|&i| differs(i)));
                    let Some(mid) = mid else { return };
                    let right_entries = entries.split_off(mid);
                    let sep = right_entries[0].clone();
                    let right_next = *next;
                    let sibling = Node::Leaf { entries: right_entries, next: right_next };
                    (sep, sibling)
                }
                Node::Internal { keys, children } => {
                    if children.len() <= order {
                        return;
                    }
                    let mid = keys.len() / 2;
                    let sep = keys[mid].clone();
                    let right_keys = keys.split_off(mid + 1);
                    keys.pop(); // the separator moves up
                    let right_children = children.split_off(mid + 1);
                    (sep, Node::Internal { keys: right_keys, children: right_children })
                }
            };
            colt_obs::counter("storage.btree.splits", 1);
            let sib_id = self.alloc(sibling);
            if let Node::Leaf { next, .. } = self.node_mut(node) {
                *next = Some(sib_id);
            }
            match path.pop() {
                Some((parent, slot)) => {
                    if let Node::Internal { keys, children } = self.node_mut(parent) {
                        keys.insert(slot, sep);
                        children.insert(slot + 1, sib_id);
                    }
                    node = parent;
                }
                None => {
                    // Split reached the root: grow the tree.
                    let old_root = self.root;
                    let new_root =
                        self.alloc(Node::Internal { keys: vec![sep], children: vec![old_root, sib_id] });
                    self.root = new_root;
                    self.height += 1;
                    return;
                }
            }
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
    /// key and skips the run of equals, leaf by leaf. Within a leaf the
    /// in-range entries are found by binary search, not by walking it.
    pub fn range_into(&self, lo: Bound<&K>, hi: Bound<&K>, out: &mut Vec<RowId>, io: &mut IoStats) {
        colt_obs::counter("storage.btree.ranges", 1);
        let appended_from = out.len();
        let mut leaf = match lo {
            Bound::Included(k) | Bound::Excluded(k) => self.descend((k, RowId(0)), io).0,
            Bound::Unbounded => {
                // Descend to the left-most leaf.
                io.random_pages += self.height as u64;
                self.leftmost_leaf()
            }
        };
        let below_lo = |k: &K| match lo {
            Bound::Included(b) => k < b,
            Bound::Excluded(b) => k <= b,
            Bound::Unbounded => false,
        };
        let in_hi = |k: &K| match hi {
            Bound::Included(b) => k <= b,
            Bound::Excluded(b) => k < b,
            Bound::Unbounded => true,
        };
        let mut first = true;
        loop {
            let (entries, next) = self.leaf(leaf);
            if !first {
                io.seq_pages += 1;
            }
            first = false;
            let start = entries.partition_point(|(k, _)| below_lo(k));
            // A key beyond `hi` ends the scan even among the entries
            // below `lo` (an empty interval); the last of them is the
            // largest.
            let ended = start > 0 && !in_hi(&entries[start - 1].0);
            let taken = if ended { 0 } else { entries[start..].partition_point(|(k, _)| in_hi(k)) };
            out.extend(entries[start..start + taken].iter().map(|(_, rid)| *rid));
            match next {
                Some(n) if !ended && start + taken == entries.len() => leaf = n,
                _ => break,
            }
        }
        io.cpu_ops += (out.len() - appended_from) as u64;
    }

    fn leftmost_leaf(&self) -> NodeId {
        let mut cur = self.root;
        loop {
            match self.node(cur) {
                Node::Internal { children, .. } => cur = children[0],
                Node::Leaf { .. } => return cur,
            }
        }
    }

    /// Iterate all entries in key order (no I/O charged; used by tests
    /// and statistics).
    pub fn iter(&self) -> impl Iterator<Item = (&K, RowId)> + '_ {
        let mut leaves = Vec::new();
        let mut cur = Some(self.leftmost_leaf());
        while let Some(id) = cur {
            let (entries, next) = self.leaf(id);
            leaves.push(entries);
            cur = next;
        }
        leaves.into_iter().flatten().map(|(k, r)| (k, *r))
    }

    /// Verify structural invariants; panics with a description on
    /// violation. Test-support API.
    pub fn check_invariants(&self) {
        let mut leaf_depths = Vec::new();
        self.check_node(self.root, 1, None, None, &mut leaf_depths);
        assert!(leaf_depths.iter().all(|&d| d == self.height), "all leaves at height {}", self.height);
        let iter_len = self.iter().count();
        assert_eq!(iter_len, self.len, "len matches leaf chain");
        let keys: Vec<_> = self.iter().map(|(k, _)| k.clone()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "leaf chain sorted");
    }

    fn check_node(
        &self,
        id: NodeId,
        depth: usize,
        lo: Option<&(K, RowId)>,
        hi: Option<&(K, RowId)>,
        leaf_depths: &mut Vec<usize>,
    ) {
        match self.node(id) {
            Node::Leaf { entries, .. } => {
                leaf_depths.push(depth);
                let all_equal = entries.windows(2).all(|w| w[0] == w[1]);
                assert!(
                    entries.len() <= self.order || all_equal,
                    "leaf within capacity (unless degenerate all-equal run)"
                );
                for e in entries {
                    if let Some(lo) = lo {
                        assert!(e >= lo, "leaf key >= lower separator");
                    }
                    if let Some(hi) = hi {
                        assert!(e < hi, "leaf key < upper separator");
                    }
                }
            }
            Node::Internal { keys, children } => {
                assert_eq!(children.len(), keys.len() + 1, "internal child/key arity");
                assert!(children.len() <= self.order, "internal within capacity");
                assert!(keys.windows(2).all(|w| w[0] <= w[1]), "separators sorted");
                for i in 0..children.len() {
                    let child_lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let child_hi = if i == keys.len() { hi } else { Some(&keys[i]) };
                    self.check_node(children[i], depth + 1, child_lo, child_hi, leaf_depths);
                }
            }
        }
    }
}

/// The tree of an index: its cells' key codes ([`crate::KeyCode`]; a
/// string's from its column's dictionary) — one per entry, or one per
/// key column of a composite — probed through the scan kernels' resolver
/// ([`crate::literal_code`] / [`crate::code_bound`] /
/// [`crate::code_interval`]), so row ids *and* [`IoStats`] are those of
/// a `Value`-keyed tree over the same cells. `K::default()` is the least
/// key (`0`, the empty vector).
impl<K: TreeKey + Default> BPlusTreeOf<K> {
    /// Range scan over resolved codes, appending to `out`. `None`, a
    /// range no cell can match, still pays one descent: the scan for the
    /// codes below the lowest.
    pub fn range_codes_into(
        &self,
        codes: Option<(Bound<K>, Bound<K>)>,
        out: &mut Vec<RowId>,
        io: &mut IoStats,
    ) {
        match codes {
            Some((lo, hi)) => self.range_into(lo.as_ref(), hi.as_ref(), out, io),
            None => self.range_into(Bound::Unbounded, Bound::Excluded(&K::default()), out, io),
        }
    }

    /// Point lookup of a resolved literal or cell, appending to `out`;
    /// `Err`, one of another type than the column's, matches nothing.
    pub fn lookup_code_into(&self, code: Result<K, Ordering>, out: &mut Vec<RowId>, io: &mut IoStats) {
        colt_obs::counter("storage.btree.lookups", 1);
        let point = code.ok().map(|c| (Bound::Included(c.clone()), Bound::Included(c)));
        self.range_codes_into(point, out, io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn empty_tree() {
        let t = BPlusTree::new(8);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        let mut io = IoStats::new();
        assert!(t.lookup(&v(1), &mut io).is_empty());
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..100 {
            t.insert(v(i), RowId(i as u32));
        }
        t.check_invariants();
        let mut io = IoStats::new();
        for i in 0..100 {
            let hits = t.lookup(&v(i), &mut io);
            assert_eq!(hits, vec![RowId(i as u32)], "key {i}");
        }
        assert!(t.height() > 2, "order-4 tree with 100 keys must be deep");
    }

    #[test]
    fn duplicate_keys() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..50 {
            t.insert(v(7), RowId(i));
        }
        t.check_invariants();
        let mut io = IoStats::new();
        let mut hits = t.lookup(&v(7), &mut io);
        hits.sort();
        assert_eq!(hits.len(), 50);
        assert_eq!(hits[0], RowId(0));
        assert_eq!(hits[49], RowId(49));
    }

    #[test]
    fn into_variants_append_and_charge_identically() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..200 {
            t.insert(v(i % 40), RowId(i as u32));
        }
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
    /// `(lo, RowId(0))`, then read the leaf chain entry by entry — stop
    /// at the first key beyond `hi`, keep the keys not below `lo`.
    fn walked_range<K: TreeKey>(
        t: &BPlusTreeOf<K>,
        lo: Bound<&K>,
        hi: Bound<&K>,
    ) -> (Vec<RowId>, IoStats) {
        use std::ops::RangeBounds;
        let (mut out, mut io) = (Vec::new(), IoStats::new());
        let mut cur = Some(match lo {
            Bound::Included(k) | Bound::Excluded(k) => t.descend((k, RowId(0)), &mut io).0,
            Bound::Unbounded => {
                io.random_pages += t.height as u64;
                t.leftmost_leaf()
            }
        });
        let mut first = true;
        'scan: while let Some(id) = cur {
            let (entries, next) = t.leaf(id);
            io.seq_pages += u64::from(!first);
            first = false;
            for (k, rid) in entries {
                if !(Bound::Unbounded, hi).contains(k) {
                    break 'scan;
                }
                if (lo, Bound::Unbounded).contains(k) {
                    out.push(*rid);
                }
            }
            cur = next;
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
            let (order, distinct) = ([4, 5, 8][case % 3], [3, 12, 60][case / 3 % 3]);
            let mut keys: Vec<u64> = (0..rng.below(120))
                .map(|_| match rng.below(10) {
                    0 => u64::MIN,
                    1 => u64::MAX,
                    _ => 10 * (1 + rng.below_u64(distinct)),
                })
                .collect();
            let mut codes = BPlusTreeOf::<u64>::with_order(order);
            let mut values = BPlusTree::with_order(order);
            if case % 2 == 0 {
                // Bulk-loaded at the smallest order a key width gives, 8.
                keys.sort_unstable();
                codes = BPlusTreeOf::bulk_load(PAGE_SIZE, keys.into_iter().zip((0..).map(RowId)).collect());
            } else {
                for (rid, k) in keys.into_iter().enumerate() {
                    codes.insert(k, RowId(rid as u32));
                }
            }
            for (&k, rid) in codes.iter().collect::<Vec<_>>() {
                values.insert(Value::Int(k as i64), rid);
            }
            codes.check_invariants();
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
        let mut t = BPlusTree::with_order(5);
        for i in 0..200 {
            t.insert(v(i), RowId(i as u32));
        }
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
    fn bulk_load_matches_inserts() {
        let entries: Vec<_> = (0..1000).map(|i| (v(i), RowId(i as u32))).collect();
        let bulk = BPlusTree::bulk_load(8, entries.clone());
        bulk.check_invariants();
        let mut incr = BPlusTree::new(8);
        for (k, r) in entries {
            incr.insert(k, r);
        }
        incr.check_invariants();
        assert_eq!(bulk.len(), incr.len());
        let a: Vec<_> = bulk.iter().map(|(k, r)| (k.clone(), r)).collect();
        let b: Vec<_> = incr.iter().map(|(k, r)| (k.clone(), r)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let t = BPlusTree::bulk_load(8, vec![]);
        assert!(t.is_empty());
        let t = BPlusTree::bulk_load(8, vec![(v(1), RowId(0))]);
        assert_eq!(t.len(), 1);
        t.check_invariants();
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
            let mut got = Vec::new();
            let mut cur = Some(tree.leftmost_leaf());
            while let Some(id) = cur {
                let (entries, next) = tree.leaf(id);
                got.push(entries.len());
                cur = next;
            }
            assert_eq!(got, leaves, "leaf sizes at n = {n}");
            assert_eq!((tree.page_count(), tree.height()), (pages, height), "n = {n}");
            assert_eq!(tree.len(), n);
            tree.check_invariants();
        }
    }

    #[test]
    fn descent_charges_height_random_pages() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..500 {
            t.insert(v(i), RowId(i as u32));
        }
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

    #[test]
    fn composite_keys_order_lexicographically() {
        let mut t = BPlusTreeOf::<Vec<u64>>::with_order(6);
        for a in 0..20 {
            for b in 0..10 {
                t.insert(vec![a, b], RowId((a * 10 + b) as u32));
            }
        }
        t.check_invariants();
        let mut io = IoStats::new();
        // Point lookup on the full composite.
        assert_eq!(t.lookup(&vec![7, 3], &mut io), vec![RowId(73)]);
        // Prefix range: every (7, *) entry, the prefix alone below and
        // padded with the greatest code above — and the scan stops at
        // the first key past it, a leaf or two from the descent.
        let mut io = IoStats::new();
        let hits = t.range(Bound::Included(&vec![7]), Bound::Included(&vec![7, u64::MAX]), &mut io);
        assert_eq!(hits, (70..80).map(RowId).collect::<Vec<_>>());
        assert!(io.seq_pages < 5, "{io:?}");
        // Prefix + second-column range.
        let hits = t.range(Bound::Included(&vec![7, 2]), Bound::Included(&vec![7, 5]), &mut io);
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn composite_bulk_load_is_valid() {
        let entries: Vec<_> = (0..500).map(|i| (vec![i / 10, i % 10], RowId(i as u32))).collect();
        let t2 = BPlusTreeOf::<Vec<u64>>::bulk_load(12, entries);
        t2.check_invariants();
        assert_eq!(t2.len(), 500);
        let mut io = IoStats::new();
        assert_eq!(t2.lookup(&vec![3, 4], &mut io), vec![RowId(34)]);
    }

    #[test]
    fn random_insert_order_stays_valid() {
        // Deterministic pseudo-shuffle without rand: LCG permutation.
        let mut t = BPlusTree::with_order(6);
        let mut x = 1u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            t.insert(v((x % 500) as i64), RowId((x % 10_000) as u32));
        }
        t.check_invariants();
        assert_eq!(t.len(), 2000);
    }
}
