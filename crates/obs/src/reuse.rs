//! Streaming reuse-distance profiling and miss taxonomy over the block
//! trace (`dram_fetch` events).
//!
//! The reuse-distance profiler is Olken's order-statistics algorithm: a
//! Fenwick tree over access-time slots holds one set bit per *distinct*
//! block at the slot of its most recent access, so the number of set
//! bits after a block's previous slot is exactly the number of distinct
//! blocks touched since — the (fully-associative, LRU) stack distance.
//! Each access costs `O(log n)` and the tree grows by one slot per
//! access, so the profiler streams over arbitrarily long traces without
//! a second pass.
//!
//! The miss taxonomy classifies each access from the distance the
//! profiler returned for it, against two reference caches:
//!
//! - an **unbounded** cache: a block's first touch (no distance) is a
//!   **compulsory** miss;
//! - a **fully-associative LRU** of the design's entry budget `B`, which
//!   hits a re-touch exactly when its distance is below `B`: a re-touch
//!   the FA-LRU also misses is a **capacity** miss, while a re-touch the
//!   FA-LRU would have hit is a **conflict** miss (attributable to
//!   organization, not size).
//!
//! Both are order-sensitive within one stream but the resulting
//! histograms and counters are plain sums, so per-shard results merge
//! associatively (each logical shard is its own stream; see
//! [`crate::analysis`]).

use crate::json::Json;
use std::collections::HashMap;

/// Base-2 logarithmic histogram: bucket `b` counts values with exactly
/// `b` significant bits (`0 → bucket 0`, `1 → 1`, `2..=3 → 2`, …,
/// `u64::MAX → 64`). Merging is element-wise addition, so shard-local
/// histograms fold associatively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHist {
    buckets: [u64; 65],
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist { buckets: [0; 65] }
    }
}

impl LogHist {
    /// The bucket index `v` falls into.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one value.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw buckets.
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// JSON array of bucket counts, trailing zeros trimmed.
    pub fn to_json(&self) -> Json {
        let last = self
            .buckets
            .iter()
            .rposition(|&n| n != 0)
            .map_or(0, |i| i + 1);
        Json::Arr(
            self.buckets[..last]
                .iter()
                .map(|&n| Json::UInt(n))
                .collect(),
        )
    }

    /// Parses what [`Self::to_json`] wrote (shorter arrays are
    /// zero-padded). `None` on malformed input.
    pub fn from_json(v: &Json) -> Option<LogHist> {
        let arr = v.as_arr()?;
        if arr.len() > 65 {
            return None;
        }
        let mut h = LogHist::default();
        for (i, n) in arr.iter().enumerate() {
            h.buckets[i] = n.as_u64()?;
        }
        Some(h)
    }
}

/// Growable Fenwick (binary indexed) tree over 1-based positions.
///
/// Appending computes the new node's partial sum from existing prefixes
/// (`O(log n)`), which keeps the invariant without preallocation.
#[derive(Debug, Default)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn len(&self) -> usize {
        self.tree.len()
    }

    /// Sum of positions `1..=pos`.
    fn prefix(&self, mut pos: usize) -> u64 {
        let mut s = 0;
        while pos > 0 {
            s += self.tree[pos - 1];
            pos &= pos - 1;
        }
        s
    }

    /// Adds `delta` at `pos` (1-based, must be ≤ len).
    fn add(&mut self, mut pos: usize, delta: i64) {
        while pos <= self.tree.len() {
            self.tree[pos - 1] = (self.tree[pos - 1] as i64 + delta) as u64;
            pos += pos & pos.wrapping_neg();
        }
    }

    /// Appends a new position holding `v`.
    fn push(&mut self, v: u64) {
        let i = self.tree.len() + 1;
        let low = i & i.wrapping_neg();
        // tree[i] covers the range (i - lowbit(i), i]; everything in it
        // except the new element is already summed in earlier prefixes.
        let below = self.prefix(i - 1) - self.prefix(i - low);
        self.tree.push(below + v);
    }
}

/// Streaming Olken reuse-distance profiler over block addresses.
#[derive(Debug, Default)]
pub struct ReuseProfiler {
    fenwick: Fenwick,
    /// Block → 1-based slot of its most recent access.
    last_seen: HashMap<u64, usize>,
    /// First-touch accesses (infinite reuse distance).
    cold: u64,
    hist: LogHist,
}

impl ReuseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        ReuseProfiler::default()
    }

    /// Records an access to `block` and returns its reuse distance
    /// (`None` for a first touch). Distance 0 means the block was the
    /// most recently accessed one.
    pub fn observe(&mut self, block: u64) -> Option<u64> {
        let distinct = self.last_seen.len() as u64;
        let dist = match self.last_seen.get(&block).copied() {
            Some(prev) => {
                // Set bits strictly after `prev` = distinct blocks
                // touched since the previous access to `block`.
                let d = distinct - self.fenwick.prefix(prev);
                self.fenwick.add(prev, -1);
                self.hist.observe(d);
                Some(d)
            }
            None => {
                self.cold += 1;
                None
            }
        };
        self.fenwick.push(1);
        self.last_seen.insert(block, self.fenwick.len());
        dist
    }

    /// First-touch count (infinite-distance accesses).
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// The finite-distance histogram.
    pub fn hist(&self) -> &LogHist {
        &self.hist
    }
}

/// Per-class miss counts. A classified access is always a miss of the
/// design under study (the block stream is the design's DRAM traffic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaxonomyCounts {
    /// First touch of the block anywhere in the stream.
    pub compulsory: u64,
    /// Re-touch that a fully-associative LRU of the same budget also
    /// misses.
    pub capacity: u64,
    /// Re-touch the fully-associative reference would have hit.
    pub conflict: u64,
}

impl TaxonomyCounts {
    /// Sums counts (associative merge across shards).
    pub fn merge(&mut self, other: &TaxonomyCounts) {
        self.compulsory += other.compulsory;
        self.capacity += other.capacity;
        self.conflict += other.conflict;
    }

    /// Total classified misses.
    pub fn total(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// JSON object with one field per class.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("compulsory".into(), Json::UInt(self.compulsory)),
            ("capacity".into(), Json::UInt(self.capacity)),
            ("conflict".into(), Json::UInt(self.conflict)),
        ])
    }
}

/// Streaming compulsory / capacity / conflict classifier over the reuse
/// distances a [`ReuseProfiler`] returns for the same block stream.
#[derive(Debug)]
pub struct MissTaxonomy {
    budget: u64,
    counts: TaxonomyCounts,
}

impl MissTaxonomy {
    /// Creates a classifier whose fully-associative reference holds
    /// `budget_blocks` blocks (the design's capacity in 64 B blocks).
    pub fn new(budget_blocks: usize) -> Self {
        MissTaxonomy {
            budget: budget_blocks.max(1) as u64,
            counts: TaxonomyCounts::default(),
        }
    }

    /// Classifies one fetched block from its reuse distance (`None` for
    /// a first touch, as [`ReuseProfiler::observe`] returns it) and
    /// returns whether the fully-associative LRU reference hit: an LRU
    /// of `B` blocks holds exactly the `B` most recently used ones, so
    /// it hits a re-touch iff fewer than `B` distinct blocks came between.
    pub fn classify(&mut self, dist: Option<u64>) -> bool {
        match dist {
            None => {
                self.counts.compulsory += 1;
                false
            }
            Some(d) if d < self.budget => {
                self.counts.conflict += 1;
                true
            }
            Some(_) => {
                self.counts.capacity += 1;
                false
            }
        }
    }

    /// The classification so far.
    pub fn counts(&self) -> &TaxonomyCounts {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_sim::rng::SplitRng;

    /// Naive stack-distance reference: scan an explicit LRU stack.
    struct NaiveStack(Vec<u64>);

    impl NaiveStack {
        fn observe(&mut self, block: u64) -> Option<u64> {
            let pos = self.0.iter().position(|&b| b == block);
            if let Some(p) = pos {
                self.0.remove(p);
            }
            self.0.insert(0, block);
            pos.map(|p| p as u64)
        }
    }

    #[test]
    fn log_hist_buckets_powers_of_two() {
        assert_eq!(LogHist::bucket_of(0), 0);
        assert_eq!(LogHist::bucket_of(1), 1);
        assert_eq!(LogHist::bucket_of(2), 2);
        assert_eq!(LogHist::bucket_of(3), 2);
        assert_eq!(LogHist::bucket_of(4), 3);
        assert_eq!(LogHist::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn log_hist_json_round_trips_and_trims() {
        let mut h = LogHist::default();
        h.observe(0);
        h.observe(5);
        let j = h.to_json();
        assert_eq!(j.as_arr().unwrap().len(), 4, "trailing zeros trimmed");
        assert_eq!(LogHist::from_json(&j).unwrap(), h);
    }

    #[test]
    fn olken_matches_naive_stack_distance() {
        let mut rng = SplitRng::seed_from_u64(0x0b5e55ed);
        let mut olken = ReuseProfiler::new();
        let mut naive = NaiveStack(Vec::new());
        for _ in 0..4000 {
            // Mix of hot and cold blocks so both reuse and first touches
            // occur.
            let block = rng.gen_range(0u64..200);
            assert_eq!(olken.observe(block), naive.observe(block));
        }
        assert_eq!(olken.cold(), 200, "every block in 0..200 gets touched");
    }

    #[test]
    fn immediate_reuse_is_distance_zero() {
        let mut p = ReuseProfiler::new();
        assert_eq!(p.observe(7), None);
        assert_eq!(p.observe(7), Some(0));
        assert_eq!(p.observe(9), None);
        assert_eq!(p.observe(7), Some(1));
    }

    #[test]
    fn taxonomy_separates_the_three_classes() {
        // Budget 2; stream: a b c a  → a,b,c compulsory; the re-touch of
        // `a` misses the FA-LRU too (a was evicted by c) → capacity.
        let classify = |budget| {
            let (mut reuse, mut t) = (ReuseProfiler::new(), MissTaxonomy::new(budget));
            for b in [1, 2, 3, 1] {
                t.classify(reuse.observe(b));
            }
            t
        };
        let t = classify(2);
        assert_eq!(
            *t.counts(),
            TaxonomyCounts {
                compulsory: 3,
                capacity: 1,
                conflict: 0
            }
        );
        // Budget 8: the same re-touch would hit the reference → conflict.
        let t = classify(8);
        assert_eq!(t.counts().conflict, 1);
        assert_eq!(t.counts().capacity, 0);
    }

    #[test]
    fn taxonomy_merge_is_a_plain_sum() {
        let mut a = TaxonomyCounts {
            compulsory: 1,
            capacity: 2,
            conflict: 3,
        };
        let b = TaxonomyCounts {
            compulsory: 10,
            capacity: 20,
            conflict: 30,
        };
        a.merge(&b);
        assert_eq!(a.total(), 66);
    }
}
