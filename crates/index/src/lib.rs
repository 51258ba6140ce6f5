//! # metal-index — the index data structures METAL walks
//!
//! The paper evaluates METAL over five index families (§2.2, Table 2); this
//! crate implements all of them from scratch, each lowered onto a common
//! walk interface so the caches and walkers in `metal-core` stay
//! index-agnostic:
//!
//! - [`bptree::BPlusTree`] — B+trees (database Scan / Analytics / JOIN),
//!   bulk-loaded with configurable fanout so the paper's 10–18-level deep
//!   trees can be reproduced at any scale.
//! - [`hashtable::ChainedHashTable`] — hash index with chaining (Widx).
//! - [`sortedset::SortedSet`] — Redis-style sorted sets: a hash of score
//!   buckets, each an ordered [`skiplist::SkipList`] whose skip nodes
//!   expose `[Sᵢ, Max]` ranges (§4.4).
//! - [`rtree::RTree2D`] — the paper's two-dimensional R-tree built from an
//!   x-B+tree whose leaves key a y-B+tree (quadrilateral embedding, §4.3).
//! - [`tensor::SparseTensor`] — dynamic sparse tensors: a per-matrix
//!   B+tree over column ids with non-zero lists at the leaves (deep), and
//!   [`fiber::FiberMatrix`] — the shallow (≤3-level) CSR-fiber variant.
//! - [`graph::AdjacencyIndex`] — adjacency-list index for PageRank-push.
//!
//! Every structure places its nodes in a simulated physical address space
//! through [`arena::Arena`], so walks produce real block addresses for the
//! DRAM model and the address-based baseline caches.
//!
//! The central abstraction is [`walk::WalkIndex`]: a walk starts at
//! [`walk::WalkIndex::root`] and repeatedly calls
//! [`walk::WalkIndex::descend`] until it reaches a leaf. Each visited node
//! carries [`walk::NodeInfo`] — its address, byte size, level and key range
//! `[lo, hi]` — which is exactly the metadata the IX-cache tags with.

pub mod arena;
pub mod bpnode;
pub mod bptree;
pub mod fiber;
pub mod graph;
pub mod hashtable;
pub mod nodestore;
pub mod rtree;
pub mod skiplist;
pub mod sortedset;
pub mod tensor;
pub mod walk;

pub use arena::{Arena, NodeId};
pub use bptree::BPlusTree;
pub use walk::{Descend, NodeInfo, WalkIndex};
