//! Native-execution backend: real walks over paged B+tree nodes.
//!
//! The simulator *models* walks; this module *executes* them. Indexes
//! are materialized into page-aligned block files ([`blockfile`]) whose
//! extents hold encoded nodes — the node type and its codec are
//! `metal-index`'s own ([`codec`] re-exports them) — and [`tree`] is the
//! paged node store: the read path, plus the per-mutation frame set the
//! one B+tree mutation algorithm ([`metal_index::nodestore`]) runs over, so
//! datasets can exceed RAM. [`backend`] drives the same request streams
//! the simulator consumes through the simulator's own cache-decision
//! kernel (`crate::decide`) and reuses [`metal_sim::obs::Event`] so
//! every downstream consumer (traces, `analyze`, epoch series, the flight
//! recorder) works unchanged. The two backends must agree exactly on
//! semantic outcomes — `crates/verify/tests/backend_equivalence.rs` and
//! the `ix_fuzz --backend native` arm enforce that permanently.

pub mod backend;
pub mod blockfile;
pub mod codec;
pub mod tree;

pub use backend::{run_native_design, supports_native, NativeMetrics};
pub use blockfile::{BlockFile, BlockFileError, BlockStats, PAGE_BYTES};
pub use codec::{PagedKind, PagedNode};
pub use tree::{materialize_tree, PagedTree, TreeIoStats};
