//! The B+tree node: one type for every store, and its byte codec.
//!
//! [`crate::bptree::BPlusTree`] keeps [`Node`]s in a vector; the native
//! backend's paged tree (`metal_core::native::PagedTree`) keeps the same
//! type encoded in block-file extents and re-exports it as `PagedNode`.
//! Placement (simulated address, modeled bytes) is not part of a node: it
//! lives in the owning tree's [`Arena`], whose slot index is the node id.
//!
//! The encode/decode split is deliberate: serialization is infallible,
//! deserialization returns a contextful error so a corrupted or truncated
//! payload surfaces as a diagnosis, not a panic.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! tag:u8 (0 interior, 1 leaf)  dead:u8  level:u8  pad:u8
//! lo:u64  hi:u64
//! interior: n_seps:u32  n_children:u32  seps[n]:u64  children[m]:u32
//! leaf:     n_keys:u32  has_next:u32    keys[n]:u64  ranks[n]:u64  next:u32
//! ```

use crate::arena::{Arena, NodeId};
use crate::nodestore::TreeShape;
use crate::walk::{Descend, NodeInfo};
use metal_sim::types::{Addr, Key};

/// Per-node byte-size model: header + keys + pointers (8 B each).
const NODE_HEADER_BYTES: u64 = 16;

/// One B+tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Level counted from the leaves (leaf = 0).
    pub level: u8,
    /// Smallest key reachable through this node.
    pub lo: Key,
    /// Largest key reachable through this node (inclusive).
    pub hi: Key,
    /// True once the node was merged away. Dead nodes are unreachable
    /// from the root (and their cached tags are invalidated); they stay
    /// readable, emptied, because node ids are positional and a racing
    /// cached pointer must resolve the same way in every store.
    pub dead: bool,
    /// Keys and pointers.
    pub kind: NodeKind,
}

/// Contents of a [`Node`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Interior node: separators and child pointers.
    Interior {
        /// `seps[i]` is the smallest key of `children[i + 1]`.
        seps: Vec<Key>,
        /// Child node ids.
        children: Vec<NodeId>,
    },
    /// Leaf node: keys, record ranks and the right-sibling link.
    Leaf {
        /// Sorted keys.
        keys: Vec<Key>,
        /// `ranks[i]` locates `keys[i]`'s record: ranks are append-only
        /// (an inserted key gets the next fresh rank; deleted ranks are
        /// never reused), so record addresses stay stable under mutation.
        ranks: Vec<u64>,
        /// Next leaf to the right, for range scans.
        next: Option<NodeId>,
    },
}

impl Node {
    /// A copy of an exported node (see
    /// [`crate::bptree::BPlusTree::export_node`]): the export *is* the
    /// node since every store shares this type.
    pub fn from_export(e: &Node) -> Self {
        e.clone()
    }

    /// Number of keys the node stores (separators for interior nodes),
    /// as exposed in [`NodeInfo::keys`].
    #[inline]
    pub fn key_count(&self) -> u16 {
        match &self.kind {
            NodeKind::Interior { seps, .. } => seps.len() as u16,
            NodeKind::Leaf { keys, .. } => keys.len() as u16,
        }
    }

    /// What capacity thresholds count: keys of a leaf, children of an
    /// interior node.
    #[inline]
    pub fn fill(&self) -> usize {
        match &self.kind {
            NodeKind::Interior { children, .. } => children.len(),
            NodeKind::Leaf { keys, .. } => keys.len(),
        }
    }

    /// The next leaf to the right, if this is a leaf that has one.
    #[inline]
    pub fn next_leaf(&self) -> Option<NodeId> {
        match &self.kind {
            NodeKind::Leaf { next, .. } => *next,
            NodeKind::Interior { .. } => None,
        }
    }

    /// Modeled byte size of the node as it stands (what its arena slot
    /// is sized with when the node is created).
    #[inline]
    pub fn model_bytes(&self) -> u64 {
        NODE_HEADER_BYTES
            + match &self.kind {
                NodeKind::Interior { seps, children } => (seps.len() + children.len()) as u64 * 8,
                NodeKind::Leaf { keys, .. } => keys.len() as u64 * 16,
            }
    }

    /// [`NodeInfo`] of this node as node `id` of the tree `arena` places.
    #[inline]
    pub fn info(&self, arena: &Arena, id: NodeId) -> NodeInfo {
        NodeInfo {
            addr: arena.addr(id as usize),
            bytes: arena.bytes(id as usize),
            level: self.level,
            lo: self.lo,
            hi: self.hi,
            keys: self.key_count(),
        }
    }

    /// The child a walk for `key` continues at (`None` at a leaf).
    #[inline]
    pub fn child_for(&self, key: Key) -> Option<NodeId> {
        match &self.kind {
            NodeKind::Interior { seps, children } => {
                Some(children[seps.partition_point(|&s| s <= key)])
            }
            NodeKind::Leaf { .. } => None,
        }
    }

    /// Searches the node for `key`: the child to continue at, or the
    /// leaf outcome with the record address `shape` places it at.
    #[inline]
    pub fn descend(&self, key: Key, shape: &TreeShape) -> Descend {
        match &self.kind {
            NodeKind::Interior { .. } => {
                Descend::Child(self.child_for(key).expect("interior nodes route"))
            }
            NodeKind::Leaf { keys, ranks, .. } => match keys.binary_search(&key) {
                Ok(pos) => Descend::Leaf {
                    found: true,
                    value_addr: Addr::new(shape.data_base.get() + ranks[pos] * shape.record_bytes),
                    value_bytes: shape.record_bytes,
                },
                Err(_) => Descend::Leaf {
                    found: false,
                    value_addr: shape.data_base,
                    value_bytes: 0,
                },
            },
        }
    }

    /// Serializes the node into a fresh payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        let tag = match self.kind {
            NodeKind::Interior { .. } => 0u8,
            NodeKind::Leaf { .. } => 1u8,
        };
        out.extend_from_slice(&[tag, self.dead as u8, self.level, 0]);
        out.extend_from_slice(&self.lo.to_le_bytes());
        out.extend_from_slice(&self.hi.to_le_bytes());
        match &self.kind {
            NodeKind::Interior { seps, children } => {
                out.extend_from_slice(&(seps.len() as u32).to_le_bytes());
                out.extend_from_slice(&(children.len() as u32).to_le_bytes());
                for s in seps {
                    out.extend_from_slice(&s.to_le_bytes());
                }
                for c in children {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            NodeKind::Leaf { keys, ranks, next } => {
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                out.extend_from_slice(&(next.is_some() as u32).to_le_bytes());
                for k in keys {
                    out.extend_from_slice(&k.to_le_bytes());
                }
                for r in ranks {
                    out.extend_from_slice(&r.to_le_bytes());
                }
                out.extend_from_slice(&next.unwrap_or(0).to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a node payload, reporting what was malformed when
    /// the bytes do not decode.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let dead = r.u8()? != 0;
        let level = r.u8()?;
        r.u8()?; // pad
        let lo = r.u64()?;
        let hi = r.u64()?;
        let kind = match tag {
            0 => {
                let n_seps = r.u32()? as usize;
                let n_children = r.u32()? as usize;
                if n_children > (1 << 24) || n_seps > (1 << 24) {
                    return Err(format!(
                        "implausible interior node: {n_seps} seps, {n_children} children"
                    ));
                }
                let mut seps = Vec::with_capacity(n_seps);
                for _ in 0..n_seps {
                    seps.push(r.u64()?);
                }
                let mut children = Vec::with_capacity(n_children);
                for _ in 0..n_children {
                    children.push(r.u32()?);
                }
                NodeKind::Interior { seps, children }
            }
            1 => {
                let n_keys = r.u32()? as usize;
                let has_next = r.u32()?;
                if n_keys > (1 << 24) || has_next > 1 {
                    return Err(format!(
                        "implausible leaf node: {n_keys} keys, has_next {has_next}"
                    ));
                }
                let mut keys = Vec::with_capacity(n_keys);
                for _ in 0..n_keys {
                    keys.push(r.u64()?);
                }
                let mut ranks = Vec::with_capacity(n_keys);
                for _ in 0..n_keys {
                    ranks.push(r.u64()?);
                }
                let next_id = r.u32()?;
                NodeKind::Leaf {
                    keys,
                    ranks,
                    next: (has_next == 1).then_some(next_id),
                }
            }
            t => return Err(format!("unknown node tag {t}")),
        };
        Ok(Node {
            level,
            lo,
            hi,
            dead,
            kind,
        })
    }
}

/// Little-endian cursor over a byte payload whose reads fail, rather
/// than panic, when the payload is shorter than its own counts claim.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let have = self.bytes.len();
        let end = self.pos.checked_add(n).filter(|&end| end <= have);
        let Some(end) = end else {
            return Err(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {have}",
                self.pos
            ));
        };
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?.try_into().expect("take(4) yields 4 bytes");
        Ok(u32::from_le_bytes(b))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?.try_into().expect("take(8) yields 8 bytes");
        Ok(u64::from_le_bytes(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(n: usize, next: Option<NodeId>) -> Node {
        Node {
            level: 0,
            lo: 10,
            hi: 10 + n as u64,
            dead: false,
            kind: NodeKind::Leaf {
                keys: (0..n as u64).map(|k| 10 + k).collect(),
                ranks: (0..n as u64).map(|k| 1000 + k).collect(),
                next,
            },
        }
    }

    fn interior(n: usize) -> Node {
        Node {
            level: 3,
            lo: 0,
            hi: u64::MAX,
            dead: false,
            kind: NodeKind::Interior {
                seps: (1..n as u64).collect(),
                children: (0..n as u32).collect(),
            },
        }
    }

    #[test]
    fn round_trip_across_node_shapes() {
        for node in [
            leaf(0, None),
            leaf(1, Some(7)),
            leaf(9, Some(0)),
            leaf(512, None),
            interior(2),
            interior(256),
            Node {
                dead: true,
                ..leaf(0, None)
            },
        ] {
            let bytes = node.encode();
            assert_eq!(Node::decode(&bytes).unwrap(), node);
        }
    }

    /// The page format must not move when the codec does: these are the
    /// bytes every block file written so far holds.
    #[test]
    fn encoded_bytes_are_pinned() {
        let leaf = Node {
            level: 0,
            lo: 0x0102,
            hi: 0x0a0b,
            dead: false,
            kind: NodeKind::Leaf {
                keys: vec![0x0102, 0x0a0b],
                ranks: vec![7, 0x0100_0000_0000_0009],
                next: Some(0x0c0d_0e0f),
            },
        };
        #[rustfmt::skip]
        let leaf_bytes: [u8; 64] = [
            1, 0, 0, 0,
            0x02, 0x01, 0, 0, 0, 0, 0, 0,
            0x0b, 0x0a, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0,
            1, 0, 0, 0,
            0x02, 0x01, 0, 0, 0, 0, 0, 0,
            0x0b, 0x0a, 0, 0, 0, 0, 0, 0,
            7, 0, 0, 0, 0, 0, 0, 0,
            9, 0, 0, 0, 0, 0, 0, 1,
            0x0f, 0x0e, 0x0d, 0x0c,
        ];
        assert_eq!(leaf.encode(), leaf_bytes);
        assert_eq!(Node::decode(&leaf_bytes).unwrap(), leaf);

        let interior = Node {
            level: 4,
            lo: 5,
            hi: u64::MAX - 1,
            dead: true,
            kind: NodeKind::Interior {
                seps: vec![0x1122_3344_5566_7788],
                children: vec![3, 0x0001_0002],
            },
        };
        #[rustfmt::skip]
        let interior_bytes: [u8; 44] = [
            0, 1, 4, 0,
            5, 0, 0, 0, 0, 0, 0, 0,
            0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            1, 0, 0, 0,
            2, 0, 0, 0,
            0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
            3, 0, 0, 0,
            0x02, 0x00, 0x01, 0x00,
        ];
        assert_eq!(interior.encode(), interior_bytes);
        assert_eq!(Node::decode(&interior_bytes).unwrap(), interior);
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let bytes = leaf(9, Some(3)).encode();
        for cut in [0, 1, 5, bytes.len() - 1] {
            let err = Node::decode(&bytes[..cut]).expect_err("truncation detected");
            assert!(err.contains("truncated"), "{err}");
        }
    }

    #[test]
    fn bad_tag_and_implausible_counts_are_errors() {
        let mut bytes = leaf(2, None).encode();
        bytes[0] = 9;
        assert!(Node::decode(&bytes).unwrap_err().contains("tag"));
        let mut bytes = interior(4).encode();
        // Blow up the children count field (header is 20 bytes, then
        // n_seps at 20..24 and n_children at 24..28).
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Node::decode(&bytes).unwrap_err();
        assert!(err.contains("implausible"), "{err}");
    }
}
