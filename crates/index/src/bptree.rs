//! B+tree index.
//!
//! The textbook index of the paper's Fig. 1: interior nodes hold sorted
//! separator keys and child pointers, leaves hold the keys plus pointers to
//! data records in a separate DRAM region. The tree is bulk-loaded from a
//! sorted key set — the paper's workloads build the index once and then
//! issue millions of walks against it.
//!
//! Two knobs matter for reproduction:
//!
//! - **fanout** (`max_keys` per node; Table 2's "Degree 5 (9 keys)") —
//!   together with the key count it determines **depth**, the paper's
//!   primary scaling axis (10-level default, up to 18 in Fig. 23b).
//! - [`BPlusTree::bulk_load_with_depth`] picks the fanout that produces an
//!   exact target depth for a given key count, so scaled-down datasets keep
//!   the paper's depth.
//!
//! Leaves are linked left-to-right so range scans can stream without
//! re-walking (used by the Scan workload's in-leaf phase).

use crate::arena::{Arena, NodeId};
use crate::bpnode::{Node, NodeKind};
use crate::nodestore::{self, NodeStore};
use crate::walk::{Descend, NodeInfo, WalkIndex};
use metal_sim::types::{Addr, Key};
use std::convert::Infallible;

pub use crate::nodestore::{MutationReport, StaleSpan, TreeShape};

/// A bulk-loaded B+tree with simulated physical placement.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    /// Node ids are positional, and equal to the node's arena slot.
    nodes: Vec<Node>,
    arena: Arena,
    shape: TreeShape,
}

impl BPlusTree {
    /// Bulk-loads a B+tree over `keys` (must be sorted, deduplicated,
    /// non-empty) with at most `max_keys` keys per node, placing nodes at
    /// simulated addresses starting at `base`. Each key owns a data record
    /// of `record_bytes` in a region placed immediately after the index.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty, unsorted, or contains duplicates, or if
    /// `max_keys < 2`.
    pub fn bulk_load(keys: &[Key], max_keys: usize, base: Addr, record_bytes: u64) -> Self {
        assert!(max_keys >= 2, "need at least 2 keys per node");
        Self::bulk_load_geometry(keys, max_keys, max_keys + 1, base, record_bytes)
    }

    /// Bulk-loads with decoupled geometry: `leaf_keys` keys per leaf and
    /// `fanout` children per interior node. Exposing both knobs lets
    /// [`BPlusTree::bulk_load_with_depth`] hit exact target depths.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty/unsorted, `leaf_keys == 0`, or
    /// `fanout < 2`.
    pub fn bulk_load_geometry(
        keys: &[Key],
        leaf_keys: usize,
        fanout: usize,
        base: Addr,
        record_bytes: u64,
    ) -> Self {
        assert!(!keys.is_empty(), "cannot build an empty B+tree");
        assert!(leaf_keys >= 1, "leaves must hold at least one key");
        assert!(fanout >= 2, "interior fanout must be at least 2");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly sorted"
        );

        let mut arena = Arena::new(base);
        let mut nodes: Vec<Node> = Vec::new();
        // Node ids are arena slots: every node is pushed as it is placed.
        let mut push = |nodes: &mut Vec<Node>, node: Node| {
            let id = arena.alloc(node.model_bytes()) as NodeId;
            nodes.push(node);
            id
        };

        // Build leaves.
        let mut level_ids: Vec<NodeId> = Vec::new();
        let mut rank = 0u64;
        for chunk in keys.chunks(leaf_keys) {
            let leaf = Node {
                kind: NodeKind::Leaf {
                    keys: chunk.to_vec(),
                    ranks: (rank..rank + chunk.len() as u64).collect(),
                    next: None,
                },
                level: 0,
                lo: chunk[0],
                hi: *chunk.last().expect("chunks are non-empty"),
                dead: false,
            };
            rank += chunk.len() as u64;
            level_ids.push(push(&mut nodes, leaf));
        }
        // Link leaves.
        for w in 0..level_ids.len().saturating_sub(1) {
            let next = level_ids[w + 1];
            if let NodeKind::Leaf { next: n, .. } = &mut nodes[level_ids[w] as usize].kind {
                *n = Some(next);
            }
        }

        // Build interior levels bottom-up: `fanout` children per node.
        let mut level = 0u8;
        while level_ids.len() > 1 {
            level += 1;
            let mut upper: Vec<NodeId> = Vec::new();
            for group in level_ids.chunks(fanout) {
                let interior = Node {
                    kind: NodeKind::Interior {
                        seps: group[1..].iter().map(|&c| nodes[c as usize].lo).collect(),
                        children: group.to_vec(),
                    },
                    level,
                    lo: nodes[group[0] as usize].lo,
                    hi: nodes[*group.last().expect("groups are non-empty") as usize].hi,
                    dead: false,
                };
                upper.push(push(&mut nodes, interior));
            }
            level_ids = upper;
        }

        let data_base = arena.end();
        let shape = TreeShape {
            root: level_ids[0],
            depth: level + 1,
            leaf_cap: leaf_keys,
            fanout,
            n_keys: keys.len() as u64,
            next_rank: keys.len() as u64,
            arena_base: arena.base(),
            data_base,
            record_bytes,
            // Reserve value-heap headroom for twice the bulk-loaded key
            // count (append-only ranks): mutation-allocated nodes go
            // beyond it.
            value_heap_end: data_base.get() + 2 * keys.len() as u64 * record_bytes.max(1),
            mut_ready: false,
        };
        BPlusTree {
            nodes,
            arena,
            shape,
        }
    }

    /// Bulk-loads with a geometry that yields exactly `target_depth`
    /// levels for this key count, so scaled-down datasets keep the paper's
    /// depths (10-level default, up to 18 in Fig. 23b).
    ///
    /// The search fixes the interior fanout at the smallest value that can
    /// still reach the depth and sizes the leaves to land exactly on it;
    /// if the exact depth is unreachable (e.g. depth 10 for 4 keys), the
    /// closest achievable depth is used.
    ///
    /// # Panics
    ///
    /// Panics if `target_depth` is 0 or `keys` is empty/unsorted.
    pub fn bulk_load_with_depth(
        keys: &[Key],
        target_depth: u8,
        base: Addr,
        record_bytes: u64,
    ) -> Self {
        assert!(target_depth >= 1, "depth must be at least 1");
        let n = keys.len() as u64;
        let d = target_depth as u32;
        if d == 1 {
            return Self::bulk_load_geometry(keys, keys.len(), 2, base, record_bytes);
        }

        let depth_of = |leaf_keys: u64, fanout: u64| -> u32 {
            let mut width = n.div_ceil(leaf_keys); // leaves
            let mut levels = 1u32;
            while width > 1 {
                width = width.div_ceil(fanout);
                levels += 1;
            }
            levels
        };

        // For each fanout, the leaf budget for exactly d levels is
        // fanout^(d-1) leaves, i.e. leaf_keys ≥ ceil(n / fanout^(d-1)).
        // Among fanouts that hit the depth exactly, prefer node-sized
        // leaves (close to the paper's 9-key nodes) — a large fanout with
        // one-key leaves and a tiny fanout with kilobyte leaves are both
        // geometrically wrong.
        let mut exact: Option<(u64, u64, u64)> = None; // (cost, leaf, fanout)
        let mut closest: Option<(u32, u64, u64)> = None; // (dist, leaf, fanout)
        for fanout in 2u64..=256 {
            let cap = fanout.checked_pow(d - 1).unwrap_or(u64::MAX);
            let leaf_keys = n.div_ceil(cap).max(1);
            let got = depth_of(leaf_keys, fanout);
            if got == d {
                let cost = leaf_keys.abs_diff(8);
                if exact.is_none_or(|(c, _, _)| cost < c) {
                    exact = Some((cost, leaf_keys, fanout));
                }
            } else {
                let dist = got.abs_diff(d);
                if closest.is_none_or(|(dc, _, _)| dist < dc) {
                    closest = Some((dist, leaf_keys, fanout));
                }
            }
        }
        let (leaf_keys, fanout) = match (exact, closest) {
            (Some((_, l, f)), _) => (l, f),
            (None, Some((_, l, f))) => (l, f),
            (None, None) => unreachable!("fanout search covers 2..=256"),
        };
        Self::bulk_load_geometry(
            keys,
            leaf_keys as usize,
            fanout as usize,
            base,
            record_bytes,
        )
    }

    /// The fanout-independent number of keys indexed.
    pub fn len(&self) -> u64 {
        self.shape.n_keys
    }

    /// Whether the tree indexes no keys (never true: empty trees panic at
    /// construction, but the method completes the collection interface).
    pub fn is_empty(&self) -> bool {
        self.shape.n_keys == 0
    }

    /// Base address of the data-record region.
    pub fn data_base(&self) -> Addr {
        self.shape.data_base
    }

    /// Bytes per data record.
    pub fn record_bytes(&self) -> u64 {
        self.shape.record_bytes
    }

    /// The leaf that would contain `key`.
    pub fn leaf_for(&self, key: Key) -> NodeId {
        let mut id = self.shape.root;
        loop {
            match self.descend(id, key) {
                Descend::Child(c) => id = c,
                Descend::Leaf { .. } => return id,
            }
        }
    }

    /// The next leaf to the right of `leaf`, if any.
    pub fn next_leaf(&self, leaf: NodeId) -> Option<NodeId> {
        self.nodes[leaf as usize].next_leaf()
    }

    /// Keys stored in `leaf` (empty for interior nodes).
    pub fn leaf_keys(&self, leaf: NodeId) -> &[Key] {
        match &self.nodes[leaf as usize].kind {
            NodeKind::Leaf { keys, .. } => keys,
            NodeKind::Interior { .. } => &[],
        }
    }

    /// All keys in `[lo, hi]`, via one walk plus leaf-link traversal.
    pub fn range(&self, lo: Key, hi: Key) -> Vec<Key> {
        let mut out = Vec::new();
        let mut leaf = Some(self.leaf_for(lo));
        while let Some(l) = leaf {
            let node = &self.nodes[l as usize];
            if node.lo > hi {
                break;
            }
            for &k in self.leaf_keys(l) {
                if k >= lo && k <= hi {
                    out.push(k);
                }
            }
            if node.hi >= hi {
                break;
            }
            leaf = self.next_leaf(l);
        }
        out
    }

    /// Ids of all live nodes at `level` (diagnostics / occupancy plots).
    pub fn nodes_at_level(&self, level: u8) -> Vec<NodeId> {
        (0..self.nodes.len() as NodeId)
            .filter(|&id| {
                let n = &self.nodes[id as usize];
                n.level == level && !n.dead
            })
            .collect()
    }

    /// Inserts `key`, splitting overflowing nodes up the walk path (see
    /// [`nodestore::insert_key`], the one algorithm every store runs).
    pub fn insert_key(&mut self, key: Key) -> MutationReport {
        nodestore::insert_key(self, key).unwrap_or_else(|never| match never {})
    }

    /// Deletes `key`, rebalancing or merging underflowing nodes up the
    /// walk path (see [`nodestore::delete_key`]).
    pub fn delete_key(&mut self, key: Key) -> MutationReport {
        nodestore::delete_key(self, key).unwrap_or_else(|never| match never {})
    }

    /// Scalar geometry for external storage backends (see [`TreeShape`]).
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// A copy of node `id`, so a different storage backend can rebuild
    /// it verbatim ([`WalkIndex::node`] has its arena placement). Node
    /// ids are positional and dense: exporting `0..node_count()` in
    /// order yields every node in its allocation order.
    pub fn export_node(&self, id: NodeId) -> Node {
        self.nodes[id as usize].clone()
    }
}

/// The in-memory store: nodes in a vector, nothing can fail.
impl NodeStore for BPlusTree {
    type Error = Infallible;

    fn shape(&mut self) -> &mut TreeShape {
        &mut self.shape
    }

    fn get(&mut self, id: NodeId) -> Result<&Node, Infallible> {
        Ok(&self.nodes[id as usize])
    }

    fn get_mut(&mut self, id: NodeId) -> Result<&mut Node, Infallible> {
        Ok(&mut self.nodes[id as usize])
    }

    fn alloc(&mut self, node: Node) -> Result<NodeId, Infallible> {
        self.shape.skip_value_heap(&mut self.arena);
        let id = self.arena.alloc(node.model_bytes()) as NodeId;
        self.nodes.push(node);
        Ok(id)
    }

    fn node_write(&self, id: NodeId) -> (Addr, u64) {
        (self.arena.addr(id as usize), self.arena.bytes(id as usize))
    }
}

impl WalkIndex for BPlusTree {
    fn root(&self) -> NodeId {
        self.shape.root
    }

    #[inline]
    fn node(&self, id: NodeId) -> NodeInfo {
        self.nodes[id as usize].info(&self.arena, id)
    }

    #[inline]
    fn descend(&self, id: NodeId, key: Key) -> Descend {
        self.nodes[id as usize].descend(key, &self.shape)
    }

    fn depth(&self) -> u8 {
        self.shape.depth
    }

    fn total_blocks(&self) -> u64 {
        self.arena.total_blocks()
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn next_leaf(&self, leaf: NodeId) -> Option<NodeId> {
        BPlusTree::next_leaf(self, leaf)
    }

    fn as_bptree(&self) -> Option<&BPlusTree> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_sim::obs::MutKind;

    fn seq(n: u64) -> Vec<Key> {
        (0..n).collect()
    }

    #[test]
    fn lookup_every_key() {
        let keys: Vec<Key> = (0..500).map(|i| i * 3).collect();
        let t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16);
        for &k in &keys {
            assert!(t.contains(k), "key {k} must be found");
        }
        for k in [1u64, 2, 4, 1499, 100_000] {
            assert!(!t.contains(k), "key {k} must be absent");
        }
    }

    #[test]
    fn depth_grows_with_keys() {
        let t1 = BPlusTree::bulk_load(&seq(4), 4, Addr::new(0), 16);
        assert_eq!(t1.depth(), 1, "all keys in one leaf");
        let t2 = BPlusTree::bulk_load(&seq(20), 4, Addr::new(0), 16);
        assert_eq!(t2.depth(), 2);
        let t3 = BPlusTree::bulk_load(&seq(500), 4, Addr::new(0), 16);
        assert!(t3.depth() >= 3);
    }

    #[test]
    fn bulk_load_with_depth_hits_target() {
        for depth in 2..=8u8 {
            let t = BPlusTree::bulk_load_with_depth(&seq(10_000), depth, Addr::new(0), 16);
            assert_eq!(
                t.depth(),
                depth,
                "10k keys should be shapeable to depth {depth}"
            );
            // Structure still correct.
            assert!(t.contains(1234));
            assert!(!t.contains(10_000));
        }
    }

    #[test]
    fn walk_visits_descending_levels() {
        let t = BPlusTree::bulk_load(&seq(1000), 4, Addr::new(0), 16);
        let mut levels = Vec::new();
        t.walk(567, |_, info| levels.push(info.level));
        assert_eq!(levels.len(), t.depth() as usize);
        for w in levels.windows(2) {
            assert_eq!(w[0], w[1] + 1, "each step descends exactly one level");
        }
        assert_eq!(*levels.last().expect("non-empty walk"), 0);
    }

    #[test]
    fn node_ranges_nest() {
        let t = BPlusTree::bulk_load(&seq(1000), 4, Addr::new(0), 16);
        let key = 789;
        let mut prev: Option<NodeInfo> = None;
        t.walk(key, |_, info| {
            assert!(info.covers(key));
            if let Some(p) = prev {
                assert!(p.lo <= info.lo && info.hi <= p.hi, "child range nests");
            }
            prev = Some(*info);
        });
    }

    #[test]
    fn root_covers_whole_key_space() {
        let keys: Vec<Key> = (10..5000).step_by(7).collect();
        let t = BPlusTree::bulk_load(&keys, 8, Addr::new(0), 16);
        let root = t.node(t.root());
        assert_eq!(root.lo, 10);
        assert_eq!(root.hi, *keys.last().unwrap());
        assert_eq!(root.level, t.depth() - 1);
    }

    #[test]
    fn range_scan_returns_exact_window() {
        let keys: Vec<Key> = (0..300).map(|i| i * 2).collect();
        let t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16);
        let got = t.range(100, 140);
        let want: Vec<Key> = (50..=70).map(|i| i * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn range_scan_single_leaf() {
        let t = BPlusTree::bulk_load(&seq(100), 10, Addr::new(0), 16);
        assert_eq!(t.range(5, 7), vec![5, 6, 7]);
        assert_eq!(t.range(98, 200), vec![98, 99]);
        assert!(t.range(200, 300).is_empty());
    }

    #[test]
    fn leaf_links_cover_all_leaves_in_order() {
        let t = BPlusTree::bulk_load(&seq(1000), 4, Addr::new(0), 16);
        let mut leaf = Some(t.leaf_for(0));
        let mut seen = Vec::new();
        while let Some(l) = leaf {
            seen.extend_from_slice(t.leaf_keys(l));
            leaf = t.next_leaf(l);
        }
        assert_eq!(seen, seq(1000), "leaf chain yields all keys in order");
    }

    #[test]
    fn value_addresses_are_distinct_and_in_data_region() {
        let t = BPlusTree::bulk_load(&seq(100), 4, Addr::new(0), 32);
        let mut addrs = Vec::new();
        for k in 0..100 {
            if let Descend::Leaf {
                found,
                value_addr,
                value_bytes,
            } = t.walk(k, |_, _| {})
            {
                assert!(found);
                assert!(value_addr.get() >= t.data_base().get());
                assert_eq!(value_bytes, 32);
                addrs.push(value_addr);
            } else {
                panic!("walk must end at a leaf");
            }
        }
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 100, "each record has a distinct address");
    }

    #[test]
    fn total_blocks_matches_node_count_lower_bound() {
        let t = BPlusTree::bulk_load(&seq(1000), 4, Addr::new(0), 16);
        assert!(t.total_blocks() >= t.node_count() as u64);
    }

    #[test]
    fn level_census_is_consistent() {
        let t = BPlusTree::bulk_load(&seq(1000), 4, Addr::new(0), 16);
        let total: usize = (0..t.depth()).map(|l| t.nodes_at_level(l).len()).sum();
        assert_eq!(total, t.node_count());
        assert_eq!(t.nodes_at_level(t.depth() - 1).len(), 1, "one root");
        assert_eq!(t.nodes_at_level(0).len(), 250, "1000 keys / 4 per leaf");
    }

    /// Structural invariant sweep: reachable bounds nest, seps route,
    /// leaf chain yields exactly the key set in order.
    fn check_tree(t: &BPlusTree, want: &std::collections::BTreeSet<Key>) {
        assert_eq!(t.len(), want.len() as u64);
        for &k in want {
            assert!(t.contains(k), "key {k} must be found");
        }
        // Leaf chain covers everything in order, skipping dead nodes.
        let mut chain = Vec::new();
        if let Some(&first) = want.iter().next() {
            let mut leaf = Some(t.leaf_for(first));
            while let Some(l) = leaf {
                chain.extend_from_slice(t.leaf_keys(l));
                leaf = t.next_leaf(l);
            }
            let want_vec: Vec<Key> = want.iter().copied().collect();
            assert_eq!(chain, want_vec, "leaf chain yields all keys in order");
        }
        // Every walk descends one level at a time through nested bounds.
        for &k in want.iter().take(64) {
            let mut prev: Option<NodeInfo> = None;
            t.walk(k, |_, info| {
                assert!(info.covers(k), "walked node must cover its key");
                if let Some(p) = prev {
                    assert_eq!(p.level, info.level + 1);
                    assert!(p.lo <= info.lo && info.hi <= p.hi, "child range nests");
                }
                prev = Some(*info);
            });
        }
    }

    #[test]
    fn insert_delete_storm_matches_reference_set() {
        use std::collections::BTreeSet;
        let keys: Vec<Key> = (0..400).map(|i| i * 2).collect();
        let mut t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16);
        let mut want: BTreeSet<Key> = keys.iter().copied().collect();
        let mut state = 0xdeadbeefu64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..2000 {
            let r = step();
            let k = step() % 1000;
            if r % 3 == 0 {
                let rep = t.insert_key(k);
                assert_eq!(rep.applied, want.insert(k), "insert {k}");
            } else {
                let rep = t.delete_key(k);
                assert_eq!(rep.applied, want.remove(&k), "delete {k}");
            }
        }
        check_tree(&t, &want);
    }

    #[test]
    fn leaf_split_reports_pre_split_span() {
        let t0 = BPlusTree::bulk_load(&[0, 10, 20, 30], 4, Addr::new(0), 16);
        let mut t = t0.clone();
        // One leaf at capacity: the insert must split it and report the
        // old span [0, 30] as stale at level 0.
        let rep = t.insert_key(15);
        assert!(rep.applied);
        assert_eq!(rep.splits, 1);
        let stale = rep.stale.first().expect("split reports a stale span");
        assert_eq!((stale.level, stale.lo, stale.hi), (0, 0, 30));
        assert_eq!(stale.op, MutKind::Split);
        // Root split: depth grew.
        assert_eq!(t.depth(), t0.depth() + 1);
        check_tree(&t, &[0, 10, 15, 20, 30].into_iter().collect());
    }

    #[test]
    fn merge_reports_union_span() {
        let keys: Vec<Key> = (0..16).collect();
        let mut t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16);
        // Drain one leaf below min occupancy to force a merge/rebalance.
        let mut saw_structural = false;
        let mut want: std::collections::BTreeSet<Key> = keys.iter().copied().collect();
        for k in 0..8 {
            let rep = t.delete_key(k);
            want.remove(&k);
            for s in &rep.stale {
                saw_structural = true;
                assert!(s.lo <= s.hi);
            }
            // One span per structural op per affected level (each op at
            // level L re-fences levels 0..=L, so it emits L+1 spans).
            let ops = rep.merges + rep.rebalances + rep.splits;
            assert!(rep.stale.len() as u32 >= ops);
            if ops == 0 {
                assert!(rep.stale.is_empty());
            }
        }
        assert!(saw_structural, "draining half the keys must restructure");
        check_tree(&t, &want);
    }

    #[test]
    fn interior_restructure_stales_all_deeper_levels() {
        // Regression for the fence-abandonment hazard: boundary deletes
        // shrink node bounds without changing routing, and a later
        // structural op at level L rebuilds separators from the current
        // bounds — re-routing keys cached under level-0 tags. Every
        // structural op must therefore stale its span at levels 0..=L.
        let keys: Vec<Key> = (0..200).collect();
        let mut t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16);
        let mut saw_interior = false;
        for k in 200..400 {
            let rep = t.insert_key(k);
            for s in rep.stale.iter().filter(|s| s.level > 0) {
                saw_interior = true;
                for below in 0..s.level {
                    assert!(
                        rep.stale
                            .iter()
                            .any(|d| d.level == below && (d.lo, d.hi, d.op) == (s.lo, s.hi, s.op)),
                        "level-{} span [{}, {}] not re-staled at level {below}",
                        s.level,
                        s.lo,
                        s.hi
                    );
                }
            }
        }
        assert!(saw_interior, "appends must cascade splits past the leaves");
    }

    #[test]
    fn mutated_nodes_never_alias_the_value_heap() {
        let keys: Vec<Key> = (0..100).map(|i| i * 3).collect();
        let mut t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 32);
        let heap_lo = t.data_base().get();
        let heap_hi = heap_lo + 2 * 100 * 32;
        for k in 0..150 {
            t.insert_key(k * 3 + 1);
        }
        for id in 0..t.node_count() as NodeId {
            let info = t.node(id);
            let a = info.addr.get();
            assert!(
                a + info.bytes <= heap_lo || a >= heap_hi,
                "node {id} at {a} overlaps the value heap"
            );
        }
    }

    #[test]
    fn inserted_records_get_distinct_stable_addresses() {
        let mut t = BPlusTree::bulk_load(&seq(50), 4, Addr::new(0), 16);
        for k in 50..120 {
            t.insert_key(k);
        }
        let mut addrs = Vec::new();
        for k in 0..120 {
            if let Descend::Leaf {
                found, value_addr, ..
            } = t.walk(k, |_, _| {})
            {
                assert!(found, "key {k}");
                addrs.push(value_addr);
            }
        }
        let before = addrs.clone();
        // Deleting unrelated keys must not move surviving records.
        t.delete_key(0);
        t.delete_key(64);
        for (k, &want) in (0..120).zip(&before) {
            if k == 0 || k == 64 {
                continue;
            }
            if let Descend::Leaf { value_addr, .. } = t.walk(k, |_, _| {}) {
                assert_eq!(value_addr, want, "record for {k} moved");
            }
        }
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 120, "each record has a distinct address");
    }

    #[test]
    fn noop_mutations_report_nothing() {
        let mut t = BPlusTree::bulk_load(&seq(20), 4, Addr::new(0), 16);
        let rep = t.insert_key(5);
        assert!(!rep.applied && rep.stale.is_empty() && rep.writes.is_empty());
        let rep = t.delete_key(999);
        assert!(!rep.applied && rep.stale.is_empty() && rep.writes.is_empty());
        assert_eq!(t.len(), 20);
    }

    #[test]
    fn delete_to_empty_root_leaf_is_safe() {
        let mut t = BPlusTree::bulk_load(&[7, 9], 4, Addr::new(0), 16);
        t.delete_key(7);
        t.delete_key(9);
        assert_eq!(t.len(), 0);
        assert!(!t.contains(7) && !t.contains(9));
        let rep = t.insert_key(8);
        assert!(rep.applied);
        assert!(t.contains(8));
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn rejects_unsorted_keys() {
        let _ = BPlusTree::bulk_load(&[3, 1, 2], 4, Addr::new(0), 16);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_keys() {
        let _ = BPlusTree::bulk_load(&[], 4, Addr::new(0), 16);
    }
}
