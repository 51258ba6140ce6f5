//! Dynamic sparse tensor index (deep SpMM representation).
//!
//! Following the paper's SpMM setup (§4.1, Table 2): a matrix's non-zero
//! column ids are indexed in a B+tree; each leaf entry points to the
//! column's non-zero list (row ids + values) in a separate data region.
//! The inner-product kernel repeatedly fetches columns of B, so the reuse
//! pattern is *node reuse at the leaves*, with a lifetime equal to the
//! number of non-zeros per column.
//!
//! The dynamic-tensor format is "deep": the column index is a real
//! multi-level tree (vs. the shallow [`crate::fiber::FiberMatrix`]).

use crate::arena::NodeId;
use crate::bptree::BPlusTree;
use crate::walk::{Descend, NodeInfo, WalkIndex};
use metal_sim::types::{Addr, Key};

/// A sparse matrix stored as a deep dynamic tensor: B+tree over column ids,
/// per-column non-zero lists in a data region.
#[derive(Debug, Clone)]
pub struct SparseTensor {
    tree: BPlusTree,
    /// Non-zeros per column, aligned with the sorted column-id order.
    nnz: Vec<u32>,
    /// (address, bytes) of each column's non-zero list.
    col_data: Vec<(Addr, u64)>,
    rows: u64,
    cols: u64,
    total_nnz: u64,
}

/// Bytes per stored non-zero: 4 B row id + 8 B value (padded to 12).
const NNZ_BYTES: u64 = 12;

impl SparseTensor {
    /// Builds a tensor for a `rows × cols` matrix from `(col_id, nnz)`
    /// pairs (sorted by column id, strictly increasing, nnz ≥ 1). The
    /// column index tree uses `max_keys` keys per node.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or unsorted, or any nnz is 0.
    pub fn build(
        rows: u64,
        cols: u64,
        columns: &[(Key, u32)],
        max_keys: usize,
        base: Addr,
    ) -> Self {
        assert!(!columns.is_empty(), "tensor needs at least one column");
        assert!(
            columns.windows(2).all(|w| w[0].0 < w[1].0),
            "column ids must be strictly sorted"
        );
        assert!(
            columns.iter().all(|&(_, n)| n > 0),
            "stored columns must have at least one non-zero"
        );
        let col_ids: Vec<Key> = columns.iter().map(|&(c, _)| c).collect();
        // Leaf record = 8 B pointer to the column's nnz list.
        let tree = BPlusTree::bulk_load(&col_ids, max_keys, base, 8);

        // Lay the nnz lists out after the pointer records.
        let lists_base = tree.data_base().get() + col_ids.len() as u64 * 8;
        let mut cursor = lists_base.div_ceil(64) * 64;
        let mut col_data = Vec::with_capacity(columns.len());
        let mut total_nnz = 0u64;
        for &(_, n) in columns {
            let bytes = n as u64 * NNZ_BYTES;
            col_data.push((Addr::new(cursor), bytes));
            cursor += bytes.div_ceil(64) * 64;
            total_nnz += n as u64;
        }

        SparseTensor {
            tree,
            nnz: columns.iter().map(|&(_, n)| n).collect(),
            col_data,
            rows,
            cols,
            total_nnz,
        }
    }

    /// Matrix row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Matrix column count.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Total number of stored non-zeros.
    pub fn total_nnz(&self) -> u64 {
        self.total_nnz
    }

    /// Number of stored (non-empty) columns.
    pub fn stored_cols(&self) -> usize {
        self.nnz.len()
    }

    /// The underlying column-id tree (for occupancy diagnostics).
    pub fn tree(&self) -> &BPlusTree {
        &self.tree
    }

    fn rank_of_value(&self, value_addr: Addr) -> usize {
        ((value_addr.get() - self.tree.data_base().get()) / 8) as usize
    }
}

impl WalkIndex for SparseTensor {
    fn root(&self) -> NodeId {
        self.tree.root()
    }

    fn node(&self, id: NodeId) -> NodeInfo {
        self.tree.node(id)
    }

    fn descend(&self, id: NodeId, key: Key) -> Descend {
        match self.tree.descend(id, key) {
            Descend::Leaf {
                found: true,
                value_addr,
                ..
            } => {
                let rank = self.rank_of_value(value_addr);
                let (addr, bytes) = self.col_data[rank];
                Descend::Leaf {
                    found: true,
                    value_addr: addr,
                    value_bytes: bytes,
                }
            }
            other => other,
        }
    }

    fn depth(&self) -> u8 {
        self.tree.depth()
    }

    fn total_blocks(&self) -> u64 {
        self.tree.total_blocks()
    }

    fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    fn next_leaf(&self, leaf: NodeId) -> Option<NodeId> {
        self.tree.next_leaf(leaf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns(n: u64) -> Vec<(Key, u32)> {
        (0..n).map(|c| (c * 2, (c % 7 + 1) as u32)).collect()
    }

    #[test]
    fn lookup_resolves_column_lists() {
        let t = SparseTensor::build(100, 400, &columns(200), 4, Addr::new(0));
        for (rank, &(c, n)) in columns(200).iter().enumerate() {
            match t.walk(c, |_, _| {}) {
                Descend::Leaf {
                    found: true,
                    value_addr,
                    value_bytes,
                } => {
                    assert_eq!(value_bytes, n as u64 * NNZ_BYTES);
                    assert_eq!(value_addr, t.col_data[rank].0);
                }
                other => panic!("column {c} should be found, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_columns_not_found() {
        let t = SparseTensor::build(100, 400, &columns(200), 4, Addr::new(0));
        assert!(!t.contains(1));
        assert!(!t.contains(399));
        assert!(!t.contains(1001));
    }

    #[test]
    fn nnz_lists_do_not_overlap() {
        let t = SparseTensor::build(100, 400, &columns(100), 4, Addr::new(0));
        for w in t.col_data.windows(2) {
            let (a, ab) = w[0];
            let (b, _) = w[1];
            assert!(a.get() + ab <= b.get(), "lists must be disjoint");
        }
    }

    #[test]
    fn deep_index_has_many_levels() {
        let t = SparseTensor::build(1000, 20_000, &columns(10_000), 4, Addr::new(0));
        assert!(t.depth() >= 5, "deep dynamic tensor, got {}", t.depth());
    }

    #[test]
    fn totals_add_up() {
        let cols = columns(50);
        let t = SparseTensor::build(10, 100, &cols, 4, Addr::new(0));
        let want: u64 = cols.iter().map(|&(_, n)| n as u64).sum();
        assert_eq!(t.total_nnz(), want);
        assert_eq!(t.stored_cols(), 50);
        assert_eq!(t.rows(), 10);
        assert_eq!(t.cols(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one non-zero")]
    fn rejects_empty_column() {
        let _ = SparseTensor::build(10, 10, &[(0, 1), (1, 0)], 4, Addr::new(0));
    }
}
