//! The paged node and its byte codec.
//!
//! Both now live in `metal-index` beside the mutation algorithm
//! ([`metal_index::bpnode`]): the in-memory tree and the paged tree share
//! one node type, so what a [`super::blockfile::BlockFile`] extent holds
//! is simply that node, encoded. The names the native backend grew up
//! with remain as re-exports.

pub use metal_index::bpnode::{Node as PagedNode, NodeKind as PagedKind};
