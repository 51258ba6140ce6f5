//! The B+tree mutation algorithm, written once over a [`NodeStore`].
//!
//! Insert, delete, split, merge, borrow and bound refresh are generic
//! over where nodes live: [`crate::bptree::BPlusTree`] stores them in a
//! vector (`Error = Infallible`), the native backend's paged tree decodes
//! them from block-file pages into a per-mutation frame set and writes
//! each dirty one back once when the operation ends. Both therefore
//! restructure identically by construction — same node ids, same
//! simulated addresses, same [`MutationReport`] — and the simulator ≡
//! native gate is left guarding storage, not arithmetic.
//!
//! The algorithm never holds a node reference across another store call
//! (`get` takes `&mut self` because a paged store loads on demand): it
//! copies out the ids and bounds it needs, then asks again. It looks
//! with [`NodeStore::get`] and calls [`NodeStore::get_mut`] only once it
//! knows it will change the node, so a no-op mutation or an unchanged
//! bound dirties nothing.

use crate::arena::{Arena, NodeId};
use crate::bpnode::{Node, NodeKind};
use metal_sim::obs::MutKind;
use metal_sim::types::{Addr, Key};

/// Scalar geometry and counters of a B+tree — everything about it that
/// is not a node. Both stores hold exactly one, and a paged tree is
/// materialized from (and persisted as) these values, so the two agree
/// on node ids, simulated addresses and mutation thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    /// Root node id.
    pub root: NodeId,
    /// Number of levels.
    pub depth: u8,
    /// Keys per leaf at bulk load (mutation overflow threshold).
    pub leaf_cap: usize,
    /// Children per interior node at bulk load (overflow threshold).
    pub fanout: usize,
    /// Number of keys indexed.
    pub n_keys: u64,
    /// Next fresh record rank (append-only value heap).
    pub next_rank: u64,
    /// First address of the node arena.
    pub arena_base: Addr,
    /// Base address of the data-record region.
    pub data_base: Addr,
    /// Bytes per data record.
    pub record_bytes: u64,
    /// One past the reserved value heap; mutation-allocated nodes are
    /// placed beyond it so they never alias data records.
    pub value_heap_end: u64,
    /// Whether the arena cursor has already advanced past the value heap
    /// (deferred to the first allocating mutation so read-only trees
    /// keep their exact bulk-load footprint).
    pub mut_ready: bool,
}

impl TreeShape {
    /// Reserves the value heap in `arena` before the first mutation
    /// allocates a node; returns whether this call did the skip. Every
    /// [`NodeStore::alloc`] calls it first.
    pub fn skip_value_heap(&mut self, arena: &mut Arena) -> bool {
        let first = !self.mut_ready;
        if first {
            arena.skip_to(Addr::new(self.value_heap_end));
            self.mut_ready = true;
        }
        first
    }

    /// `(underflow minimum, overflow capacity)` of `node`'s
    /// [`Node::fill`]. Siblings share a kind, hence these limits.
    fn limits(&self, node: &Node) -> (usize, usize) {
        match node.kind {
            NodeKind::Leaf { .. } => ((self.leaf_cap / 2).max(1), self.leaf_cap),
            NodeKind::Interior { .. } => ((self.fanout / 2).max(2), self.fanout),
        }
    }
}

/// The key span a structural mutation staled: cached `[Lo, Hi]` tags at
/// this level overlapping the span may route around the restructured
/// nodes and must be invalidated.
///
/// A structural op at level `L` re-fences its span at **every** level
/// `0..=L`, not just `L`: `rebuild_seps` derives separators from the
/// children's *current* bounds, and bounds silently shrink on boundary
/// deletes (which alone change no routing and stale nothing). When a
/// later split/merge/rebalance rebuilds the fences, keys in the
/// abandoned margin re-route to a sibling subtree — so a tag cached at
/// any deeper level inside the span may now claim keys that route
/// elsewhere. The report therefore carries one span per affected level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleSpan {
    /// An affected level (the restructured node's level and, for the
    /// fence-abandonment hazard above, every level below it).
    pub level: u8,
    /// Low key of the pre-mutation span.
    pub lo: Key,
    /// High key of the pre-mutation span (inclusive).
    pub hi: Key,
    /// Which structural mutation produced it.
    pub op: MutKind,
}

/// What one insert/delete did to the tree: the stale spans a coherent
/// cache must invalidate, plus write-back traffic for the DRAM model.
///
/// Pure bound changes report nothing: a tag that under-covers after an
/// extension just misses (correct), and a tag wider than a shrunken node
/// still descends to the right place — only splits, merges and sibling
/// rebalances move keys between nodes and can strand a short-circuit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationReport {
    /// False when the op was a no-op (inserting a present key, deleting
    /// an absent one); no other field is meaningful then.
    pub applied: bool,
    /// Node splits performed (a root split counts once).
    pub splits: u32,
    /// Node merges performed.
    pub merges: u32,
    /// Sibling rebalances (borrows) performed.
    pub rebalances: u32,
    /// Stale spans, deepest level first (mutations cascade upward).
    pub stale: Vec<StaleSpan>,
    /// `(addr, bytes)` of every node/record written back.
    pub writes: Vec<(Addr, u64)>,
}

/// Records `[lo, hi]` as stale at `level` and every level below it —
/// see [`StaleSpan`] for why a restructure re-fences its whole subtree.
fn push_stale(report: &mut MutationReport, level: u8, lo: Key, hi: Key, op: MutKind) {
    for l in (0..=level).rev() {
        report.stale.push(StaleSpan {
            level: l,
            lo,
            hi,
            op,
        });
    }
}

/// Where a B+tree's nodes live, as far as mutation is concerned.
///
/// Node ids are dense and positional: `alloc` returns the next id, and
/// a node merged away keeps its id — the algorithm empties it and sets
/// [`Node::dead`] through [`NodeStore::get_mut`], and the store keeps it
/// readable. A store that buffers (the paged tree) must make `get` see
/// what `get_mut` and `alloc` did earlier in the same operation.
pub trait NodeStore {
    /// What a node access can fail with.
    type Error;

    /// The tree's scalars (the algorithm advances root, depth, key
    /// count and next rank through this).
    fn shape(&mut self) -> &mut TreeShape;

    /// Node `id`, to look at.
    fn get(&mut self, id: NodeId) -> Result<&Node, Self::Error>;

    /// Node `id`, to change; the store must persist it.
    fn get_mut(&mut self, id: NodeId) -> Result<&mut Node, Self::Error>;

    /// Places a new node — arena slot sized by [`Node::model_bytes`],
    /// past the value heap ([`TreeShape::skip_value_heap`]) — and returns
    /// its id.
    fn alloc(&mut self, node: Node) -> Result<NodeId, Self::Error>;

    /// Simulated `(addr, bytes)` of node `id`: the DRAM write-back pair
    /// a [`MutationReport`] records.
    fn node_write(&self, id: NodeId) -> (Addr, u64);
}

/// Inserts `key`, splitting overflowing nodes up the walk path (a root
/// split grows the tree by one level). Inserting a present key is a
/// no-op (`applied == false`). The report lists every stale span a
/// coherent IX-cache must invalidate.
pub fn insert_key<S: NodeStore>(s: &mut S, key: Key) -> Result<MutationReport, S::Error> {
    let mut report = MutationReport::default();
    let path = path_to_leaf(s, key)?;
    let leaf = *path.last().expect("path ends at a leaf");
    let Err(at) = leaf_keys(s.get(leaf)?).binary_search(&key) else {
        return Ok(report);
    };
    let shape = *s.shape();
    if let NodeKind::Leaf { keys, ranks, .. } = &mut s.get_mut(leaf)?.kind {
        keys.insert(at, key);
        ranks.insert(at, shape.next_rank);
    }
    report.applied = true;
    report.writes.push(s.node_write(leaf));
    // The new record itself (append-only value heap).
    report.writes.push((
        Addr::new(shape.data_base.get() + shape.next_rank * shape.record_bytes),
        shape.record_bytes.max(1),
    ));
    s.shape().next_rank += 1;
    s.shape().n_keys += 1;

    // Ascend the path: split overflowing nodes, refresh bounds.
    for pos in (0..path.len()).rev() {
        let id = path[pos];
        let node = s.get(id)?;
        if node.fill() <= shape.limits(node).1 {
            refresh_bounds(s, id)?;
            continue;
        }
        let (old_lo, old_hi, level) = (node.lo, node.hi, node.level);
        let sib = split_node(s, id)?;
        report.splits += 1;
        push_stale(&mut report, level, old_lo, old_hi, MutKind::Split);
        report.writes.push(s.node_write(id));
        report.writes.push(s.node_write(sib));
        let sibling = s.get(sib)?;
        let (sib_lo, sib_hi) = (sibling.lo, sibling.hi);
        if pos == 0 {
            // The root itself split: grow a new root above it.
            let lo = s.get(id)?.lo;
            let root = s.alloc(Node {
                level: level + 1,
                lo,
                hi: sib_hi,
                dead: false,
                kind: NodeKind::Interior {
                    seps: vec![sib_lo],
                    children: vec![id, sib],
                },
            })?;
            s.shape().root = root;
            s.shape().depth += 1;
            report.writes.push(s.node_write(root));
        } else {
            let parent = path[pos - 1];
            if let NodeKind::Interior { seps, children } = &mut s.get_mut(parent)?.kind {
                let cpos = child_pos(children, id);
                children.insert(cpos + 1, sib);
                seps.insert(cpos, sib_lo);
            }
            report.writes.push(s.node_write(parent));
        }
    }
    Ok(report)
}

/// Deletes `key`, rebalancing or merging underflowing nodes up the walk
/// path. Deleting an absent key is a no-op (`applied == false`). The
/// root is exempt from underflow: depth never shrinks, and a root leaf
/// may end up empty (its span collapses so it covers nothing).
pub fn delete_key<S: NodeStore>(s: &mut S, key: Key) -> Result<MutationReport, S::Error> {
    let mut report = MutationReport::default();
    let path = path_to_leaf(s, key)?;
    let leaf = *path.last().expect("path ends at a leaf");
    let Ok(at) = leaf_keys(s.get(leaf)?).binary_search(&key) else {
        return Ok(report);
    };
    if let NodeKind::Leaf { keys, ranks, .. } = &mut s.get_mut(leaf)?.kind {
        keys.remove(at);
        ranks.remove(at);
    }
    s.shape().n_keys -= 1;
    report.applied = true;
    report.writes.push(s.node_write(leaf));

    let shape = *s.shape();
    // Ascend the path (root exempt): fix underflow, refresh bounds.
    for pos in (1..path.len()).rev() {
        let id = path[pos];
        let node = s.get(id)?;
        if node.fill() >= shape.limits(node).0 {
            refresh_bounds(s, id)?;
        } else {
            rebalance_or_merge(s, &shape, path[pos - 1], id, &mut report)?;
        }
    }
    refresh_bounds(s, path[0])?;
    Ok(report)
}

fn leaf_keys(node: &Node) -> &[Key] {
    match &node.kind {
        NodeKind::Leaf { keys, .. } => keys,
        NodeKind::Interior { .. } => unreachable!("path ends at a leaf"),
    }
}

fn child_pos(children: &[NodeId], id: NodeId) -> usize {
    let pos = children.iter().position(|&c| c == id);
    pos.expect("parent lists its child")
}

/// Node ids from the root down to the leaf that would hold `key`.
fn path_to_leaf<S: NodeStore>(s: &mut S, key: Key) -> Result<Vec<NodeId>, S::Error> {
    let mut path = vec![s.shape().root];
    loop {
        let id = *path.last().expect("path starts at the root");
        match s.get(id)?.child_for(key) {
            Some(child) => path.push(child),
            None => return Ok(path),
        }
    }
}

/// Recomputes `[lo, hi]` from current contents. An empty (root) leaf
/// collapses to a single-key span at its old low bound, which a walk
/// resolves as not-found.
fn refresh_bounds<S: NodeStore>(s: &mut S, id: NodeId) -> Result<(), S::Error> {
    let node = s.get(id)?;
    let old = (node.lo, node.hi);
    let new = match &node.kind {
        NodeKind::Leaf { keys, .. } => match (keys.first(), keys.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (node.lo, node.lo),
        },
        NodeKind::Interior { children, .. } => {
            let first = children[0];
            let last = *children.last().expect("interior keeps a child");
            (s.get(first)?.lo, s.get(last)?.hi)
        }
    };
    if new != old {
        let node = s.get_mut(id)?;
        (node.lo, node.hi) = new;
    }
    Ok(())
}

/// Separators for `children`: the low bound of every child but the
/// first, as those bounds stand now.
fn seps_of<S: NodeStore>(s: &mut S, children: &[NodeId]) -> Result<Vec<Key>, S::Error> {
    let los = children[1..].iter();
    los.map(|&c| s.get(c).map(|child| child.lo)).collect()
}

/// Rebuilds an interior node's separators from its children's low
/// bounds (no-op for leaves).
fn rebuild_seps<S: NodeStore>(s: &mut S, id: NodeId) -> Result<(), S::Error> {
    let NodeKind::Interior { children, .. } = &s.get(id)?.kind else {
        return Ok(());
    };
    let children = children.clone();
    let fresh = seps_of(s, &children)?;
    if let NodeKind::Interior { seps, .. } = &mut s.get_mut(id)?.kind {
        *seps = fresh;
    }
    Ok(())
}

/// Splits overflowing node `id` in half, returning the new right
/// sibling.
fn split_node<S: NodeStore>(s: &mut S, id: NodeId) -> Result<NodeId, S::Error> {
    let node = s.get_mut(id)?;
    let level = node.level;
    let (kind, lo, hi) = match &mut node.kind {
        NodeKind::Leaf { keys, ranks, next } => {
            let at = keys.len() / 2;
            let (keys, ranks) = (keys.split_off(at), ranks.split_off(at));
            let (lo, hi) = (keys[0], *keys.last().expect("split halves are non-empty"));
            let next = *next;
            (NodeKind::Leaf { keys, ranks, next }, lo, hi)
        }
        NodeKind::Interior { children, .. } => {
            let children = children.split_off(children.len() / 2);
            let seps = seps_of(s, &children)?;
            let lo = s.get(children[0])?.lo;
            let hi = s.get(*children.last().expect("non-empty"))?.hi;
            (NodeKind::Interior { seps, children }, lo, hi)
        }
    };
    let sib = s.alloc(Node {
        level,
        lo,
        hi,
        dead: false,
        kind,
    })?;
    if let NodeKind::Leaf { next, .. } = &mut s.get_mut(id)?.kind {
        *next = Some(sib);
    }
    rebuild_seps(s, id)?;
    refresh_bounds(s, id)?;
    Ok(sib)
}

/// Fixes underflowing `id`: borrow from an adjacent sibling with
/// surplus, else merge with one (a node left underfull when neither
/// applies — e.g. an only child — still routes correctly).
fn rebalance_or_merge<S: NodeStore>(
    s: &mut S,
    shape: &TreeShape,
    parent: NodeId,
    id: NodeId,
    report: &mut MutationReport,
) -> Result<(), S::Error> {
    let NodeKind::Interior { children, .. } = &s.get(parent)?.kind else {
        unreachable!("parents are interior");
    };
    let cpos = child_pos(children, id);
    let left = (cpos > 0).then(|| children[cpos - 1]);
    let right = children.get(cpos + 1).copied();
    let node = s.get(id)?;
    let (level, fill, (min, cap)) = (node.level, node.fill(), shape.limits(node));
    let mut fill_of = |n: Option<NodeId>| match n {
        Some(n) => s.get(n).map(|node| Some((n, node.fill()))),
        None => Ok(None),
    };
    let (left, right) = (fill_of(left)?, fill_of(right)?);
    let surplus = |&(_, f): &(NodeId, usize)| f > min;
    let fits = |&(_, f): &(NodeId, usize)| f + fill <= cap;
    // `(l, r)` is the adjacent pair acted on: a borrow moves one entry
    // across it towards `id`, a merge folds `r` into `l`.
    let (l, r, op) = if let Some((l, _)) = left.filter(surplus) {
        (l, id, MutKind::Rebalance)
    } else if let Some((r, _)) = right.filter(surplus) {
        (id, r, MutKind::Rebalance)
    } else if let Some((l, _)) = left.filter(fits) {
        (l, id, MutKind::Merge)
    } else if let Some((r, _)) = right.filter(fits) {
        (id, r, MutKind::Merge)
    } else {
        return Ok(());
    };
    let lpos = if r == id { cpos - 1 } else { cpos };
    let (lo, hi) = (s.get(l)?.lo, s.get(r)?.hi);
    report.writes.push(s.node_write(l));
    if op == MutKind::Rebalance {
        borrow(s, parent, lpos, l, r, r == id)?;
        report.rebalances += 1;
        report.writes.push(s.node_write(r));
    } else {
        merge_into_left(s, parent, lpos, l, r)?;
        report.merges += 1;
    }
    push_stale(report, level, lo, hi, op);
    report.writes.push(s.node_write(parent));
    Ok(())
}

/// Moves one key/child across the adjacent pair `(l, r)` — the last of
/// `l` to the front of `r` when `from_left`, else the first of `r` to
/// the end of `l` — and re-fences the pair in `parent`, where `l` sits
/// at child position `lpos`.
fn borrow<S: NodeStore>(
    s: &mut S,
    parent: NodeId,
    lpos: usize,
    l: NodeId,
    r: NodeId,
    from_left: bool,
) -> Result<(), S::Error> {
    enum Moved {
        Key(Key, u64),
        Child(NodeId),
    }
    let (donor, taker) = if from_left { (l, r) } else { (r, l) };
    let moved = match &mut s.get_mut(donor)?.kind {
        NodeKind::Leaf { keys, ranks, .. } => {
            let at = if from_left { keys.len() - 1 } else { 0 };
            Moved::Key(keys.remove(at), ranks.remove(at))
        }
        NodeKind::Interior { seps, children } => {
            // A right donor's separators are rebuilt below instead.
            let at = if from_left { children.len() - 1 } else { 0 };
            if from_left {
                seps.pop();
            }
            Moved::Child(children.remove(at))
        }
    };
    match (moved, &mut s.get_mut(taker)?.kind) {
        (Moved::Key(k, rank), NodeKind::Leaf { keys, ranks, .. }) => {
            let at = if from_left { 0 } else { keys.len() };
            keys.insert(at, k);
            ranks.insert(at, rank);
        }
        (Moved::Child(c), NodeKind::Interior { children, .. }) => {
            let at = if from_left { 0 } else { children.len() };
            children.insert(at, c);
        }
        _ => unreachable!("siblings share a kind"),
    }
    rebuild_seps(s, taker)?;
    if !from_left {
        rebuild_seps(s, donor)?;
    }
    refresh_bounds(s, l)?;
    refresh_bounds(s, r)?;
    let fence = s.get(r)?.lo;
    if let NodeKind::Interior { seps, .. } = &mut s.get_mut(parent)?.kind {
        seps[lpos] = fence;
    }
    Ok(())
}

/// Folds `r` into its left sibling `l` (at child position `lpos` of
/// `parent`) and drops `r` from `parent`. `r` becomes a dead, emptied
/// node.
fn merge_into_left<S: NodeStore>(
    s: &mut S,
    parent: NodeId,
    lpos: usize,
    l: NodeId,
    r: NodeId,
) -> Result<(), S::Error> {
    let node = s.get_mut(r)?;
    node.dead = true;
    let emptied = match node.kind {
        NodeKind::Leaf { .. } => NodeKind::Leaf {
            keys: Vec::new(),
            ranks: Vec::new(),
            next: None,
        },
        NodeKind::Interior { .. } => NodeKind::Interior {
            seps: Vec::new(),
            children: Vec::new(),
        },
    };
    let taken = std::mem::replace(&mut node.kind, emptied);
    match (&mut s.get_mut(l)?.kind, taken) {
        (
            NodeKind::Leaf { keys, ranks, next },
            NodeKind::Leaf {
                keys: k,
                ranks: rk,
                next: nx,
            },
        ) => {
            keys.extend(k);
            ranks.extend(rk);
            *next = nx;
        }
        (NodeKind::Interior { children, .. }, NodeKind::Interior { children: cs, .. }) => {
            children.extend(cs)
        }
        _ => unreachable!("siblings share a kind"),
    }
    rebuild_seps(s, l)?;
    refresh_bounds(s, l)?;
    if let NodeKind::Interior { seps, children } = &mut s.get_mut(parent)?.kind {
        seps.remove(lpos);
        children.remove(lpos + 1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bptree::BPlusTree;

    #[derive(Debug, PartialEq)]
    struct Fault;

    /// A [`BPlusTree`] whose node accesses run out: once `budget` of
    /// them have been served, every further `get`/`get_mut` fails.
    struct Flaky {
        tree: BPlusTree,
        budget: usize,
    }

    impl Flaky {
        fn spend(&mut self) -> Result<(), Fault> {
            self.budget = self.budget.checked_sub(1).ok_or(Fault)?;
            Ok(())
        }
    }

    impl NodeStore for Flaky {
        type Error = Fault;

        fn shape(&mut self) -> &mut TreeShape {
            NodeStore::shape(&mut self.tree)
        }

        fn get(&mut self, id: NodeId) -> Result<&Node, Fault> {
            self.spend()?;
            Ok(self.tree.get(id).unwrap_or_else(|never| match never {}))
        }

        fn get_mut(&mut self, id: NodeId) -> Result<&mut Node, Fault> {
            self.spend()?;
            Ok(self.tree.get_mut(id).unwrap_or_else(|never| match never {}))
        }

        fn alloc(&mut self, node: Node) -> Result<NodeId, Fault> {
            Ok(self.tree.alloc(node).unwrap_or_else(|never| match never {}))
        }

        fn node_write(&self, id: NodeId) -> (Addr, u64) {
            self.tree.node_write(id)
        }
    }

    /// Runs `op` against `tree` with every access budget from zero up:
    /// each too-small budget must surface as `Err`, never a panic, and
    /// the first sufficient one must give the unfaulted report. Returns
    /// how many accesses the operation needs.
    fn fail_every_access(
        tree: &BPlusTree,
        op: impl Fn(&mut Flaky) -> Result<MutationReport, Fault>,
        want: &MutationReport,
    ) -> usize {
        for budget in 0.. {
            let mut store = Flaky {
                tree: tree.clone(),
                budget,
            };
            match op(&mut store) {
                Err(Fault) => assert!(budget < 10_000, "operation never completes"),
                Ok(report) => {
                    assert_eq!(&report, want);
                    return budget;
                }
            }
        }
        unreachable!()
    }

    #[test]
    fn a_failed_access_anywhere_is_an_error_not_a_panic() {
        // Full leaves three levels deep: appends cascade splits to the
        // root, boundary deletes borrow and merge.
        let keys: Vec<Key> = (0..64).map(|k| k * 10).collect();
        let mut tree = BPlusTree::bulk_load(&keys, 3, Addr::new(0), 16);
        let (mut splits, mut fixes) = (0, 0);
        let appends = (0..20).map(|i| (641 + i, true));
        let fills = (0..10).map(|i| (i * 10 + 5, true));
        let drains = (0..30).map(|i| (i * 10, false));
        for (key, insert) in appends.chain(fills).chain(drains) {
            let want = if insert {
                tree.clone().insert_key(key)
            } else {
                tree.clone().delete_key(key)
            };
            let needed = if insert {
                fail_every_access(&tree, |s| insert_key(s, key), &want)
            } else {
                fail_every_access(&tree, |s| delete_key(s, key), &want)
            };
            assert!(
                needed >= tree.shape().depth as usize,
                "the path alone is longer"
            );
            splits += want.splits;
            fixes += want.merges + want.rebalances;
            if insert {
                tree.insert_key(key);
            } else {
                tree.delete_key(key);
            }
        }
        assert!(
            splits > 10 && fixes > 3,
            "{splits} splits, {fixes} merges/borrows"
        );
    }
}
