//! Fuzz scenarios: a serializable op sequence against one IX-cache
//! geometry, plus the seeded swarm generator that produces them.
//!
//! A scenario is the unit of differential checking, shrinking and
//! corpus replay: JSON round-trips exactly (keys are `u64`, so the
//! serialization rides `metal-obs`'s exact-integer JSON), and the
//! generator varies every axis the paper's structure exposes — index
//! shape (tree-like nested levels), key-space magnitude (including the
//! top of the `u64` range), geometry (entries/ways/key-block
//! bits/wide fraction) and op mix (inserts, probes, flushes, pins).

use crate::check::{check_translation, run_scenario, Divergence};
use crate::shrink::Case;
use metal_core::IxConfig;
use metal_obs::Json;
use metal_sim::rng::SplitRng;

/// One operation against the cache under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `IxCache::insert(index, node, [lo, hi], level, bytes, life)`.
    Insert {
        /// Index id.
        index: u8,
        /// Node id.
        node: u32,
        /// Range low key (inclusive).
        lo: u64,
        /// Range high key (inclusive).
        hi: u64,
        /// Node level (leaf = 0).
        level: u8,
        /// Payload bytes (drives Fig. 5 packing).
        bytes: u64,
        /// Pin lifetime in hits (0 = unpinned).
        life: u32,
    },
    /// `IxCache::probe(index, key)`.
    Probe {
        /// Index id.
        index: u8,
        /// Probe key.
        key: u64,
    },
    /// `IxCache::invalidate_range(index, level, [lo, hi])` — the
    /// coherence action a node split/merge/rebalance forces. `level`
    /// 255 encodes "all levels" (`None` at the API).
    Invalidate {
        /// Index id.
        index: u8,
        /// Level filter (255 = every level).
        level: u8,
        /// Stale span low key (inclusive).
        lo: u64,
        /// Stale span high key (inclusive).
        hi: u64,
    },
    /// `IxCache::flush()`.
    Flush,
}

/// The sentinel [`Op::Invalidate::level`] meaning "all levels".
pub const ALL_LEVELS: u8 = 255;

/// A complete differential test case.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Seed that generated the case (provenance; replay uses the ops).
    pub seed: u64,
    /// Geometry: total entry budget.
    pub entries: usize,
    /// Geometry: narrow-partition associativity.
    pub ways: usize,
    /// Geometry: key-block bits.
    pub key_block_bits: u32,
    /// Geometry: wide fraction as integer percent (0..=100), so the
    /// JSON round-trip is exact.
    pub wide_pct: u8,
    /// Whether the generator sized the cache so no eviction or bypass
    /// can occur; enables the strict history-oracle retention check.
    pub ample: bool,
    /// The op sequence.
    pub ops: Vec<Op>,
}

impl Scenario {
    /// The geometry as an [`IxConfig`].
    pub fn config(&self) -> IxConfig {
        IxConfig {
            entries: self.entries,
            ways: self.ways,
            key_block_bits: self.key_block_bits,
            wide_fraction: self.wide_pct as f64 / 100.0,
        }
    }

    /// Physical entries an insert sequence can create, at most: each
    /// insert op makes `min(ceil(bytes/64), width)` entries (the
    /// degenerate split caps at one key per entry). Used to size ample
    /// scenarios so no eviction is possible.
    pub fn max_physical_entries(ops: &[Op]) -> usize {
        ops.iter()
            .map(|op| match *op {
                Op::Insert { lo, hi, bytes, .. } => {
                    let blocks = bytes.max(1).div_ceil(64);
                    let width = (hi - lo).saturating_add(1);
                    blocks.min(width) as usize
                }
                _ => 0,
            })
            .sum()
    }
}

impl Case for Scenario {
    type Item = Op;
    const KIND: &'static str = "ix";
    const ITEMS: &'static str = "ops";
    const MOVES: &'static [fn(&mut Self)] = &[
        |c| c.entries /= 2,
        |c| c.ways = 1,
        |c| c.ways = c.entries,
        |c| c.key_block_bits /= 2,
        |c| c.wide_pct = 0,
    ];

    fn items(&self) -> &[Op] {
        &self.ops
    }

    fn items_mut(&mut self) -> &mut Vec<Op> {
        &mut self.ops
    }

    /// One field edit at a time, numbered per variant in the order
    /// they are tried.
    fn simpler(op: &Op) -> Vec<Op> {
        (0..)
            .map_while(|edit| {
                let mut o = *op;
                match (&mut o, edit) {
                    (Op::Insert { bytes, .. }, 0) => *bytes = 64,
                    (Op::Insert { life, .. }, 1) => *life = 0,
                    (Op::Insert { level, .. }, 2) => *level = 0,
                    (Op::Insert { node, .. }, 3) => *node = 1,
                    (Op::Insert { index, .. }, 4) => *index = 0,
                    (Op::Insert { lo, hi, .. }, 5) => *hi = *lo,
                    (Op::Insert { lo, hi, .. }, 6) => *lo = *hi,
                    (Op::Insert { lo, hi, .. }, 7) => (*lo, *hi) = (*lo / 2, *hi / 2),
                    (Op::Probe { index, .. }, 0) => *index = 0,
                    (Op::Probe { key, .. }, 1) => *key /= 2,
                    (Op::Probe { key, .. }, 2) => *key = 0,
                    (Op::Invalidate { index, .. }, 0) => *index = 0,
                    (Op::Invalidate { level, .. }, 1) => *level = ALL_LEVELS,
                    (Op::Invalidate { lo, hi, .. }, 2) => *hi = *lo,
                    (Op::Invalidate { lo, hi, .. }, 3) => (*lo, *hi) = (*lo / 2, *hi / 2),
                    _ => return None,
                }
                Some(o)
            })
            .collect()
    }

    /// `ample` scenarios promise "no eviction is possible", so after
    /// any edit their geometry is resized back to the single-set,
    /// above-worst-case shape. Tight candidates only need basic sanity.
    fn normalize(&mut self) {
        if self.ample {
            self.entries = Scenario::max_physical_entries(&self.ops) + 2;
            self.ways = self.entries;
        } else {
            self.entries = self.entries.max(2);
            self.ways = self.ways.clamp(1, self.entries);
        }
    }

    /// [`run_scenario`], plus translation invariance for ample cases.
    fn check(&self) -> Result<(), Divergence> {
        run_scenario(self)?;
        if self.ample {
            for delta in [1, 1 << 20, u64::MAX / 2] {
                check_translation(self, delta)?;
            }
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let ops = self
            .ops
            .iter()
            .map(|op| match *op {
                Op::Insert {
                    index,
                    node,
                    lo,
                    hi,
                    level,
                    bytes,
                    life,
                } => Json::Obj(vec![
                    ("op".into(), Json::str("insert")),
                    ("index".into(), Json::UInt(index as u64)),
                    ("node".into(), Json::UInt(node as u64)),
                    ("lo".into(), Json::UInt(lo)),
                    ("hi".into(), Json::UInt(hi)),
                    ("level".into(), Json::UInt(level as u64)),
                    ("bytes".into(), Json::UInt(bytes)),
                    ("life".into(), Json::UInt(life as u64)),
                ]),
                Op::Probe { index, key } => Json::Obj(vec![
                    ("op".into(), Json::str("probe")),
                    ("index".into(), Json::UInt(index as u64)),
                    ("key".into(), Json::UInt(key)),
                ]),
                Op::Invalidate {
                    index,
                    level,
                    lo,
                    hi,
                } => Json::Obj(vec![
                    ("op".into(), Json::str("invalidate")),
                    ("index".into(), Json::UInt(index as u64)),
                    ("level".into(), Json::UInt(level as u64)),
                    ("lo".into(), Json::UInt(lo)),
                    ("hi".into(), Json::UInt(hi)),
                ]),
                Op::Flush => Json::Obj(vec![("op".into(), Json::str("flush"))]),
            })
            .collect();
        Json::Obj(vec![
            ("kind".into(), Json::str(Self::KIND)),
            ("seed".into(), Json::UInt(self.seed)),
            ("entries".into(), Json::UInt(self.entries as u64)),
            ("ways".into(), Json::UInt(self.ways as u64)),
            (
                "key_block_bits".into(),
                Json::UInt(self.key_block_bits as u64),
            ),
            ("wide_pct".into(), Json::UInt(self.wide_pct as u64)),
            ("ample".into(), Json::Bool(self.ample)),
            (Self::ITEMS.into(), Json::Arr(ops)),
        ])
    }

    fn from_json(j: &Json) -> Option<Scenario> {
        if j.get("kind")?.as_str()? != Self::KIND {
            return None;
        }
        let u = |k: &str| j.get(k).and_then(Json::as_u64);
        let mut ops = Vec::new();
        for op in j.get(Self::ITEMS)?.as_arr()? {
            let f = |k: &str| op.get(k).and_then(Json::as_u64);
            ops.push(match op.get("op")?.as_str()? {
                "insert" => Op::Insert {
                    index: f("index")? as u8,
                    node: f("node")? as u32,
                    lo: f("lo")?,
                    hi: f("hi")?,
                    level: f("level")? as u8,
                    bytes: f("bytes")?,
                    life: f("life")? as u32,
                },
                "probe" => Op::Probe {
                    index: f("index")? as u8,
                    key: f("key")?,
                },
                "invalidate" => Op::Invalidate {
                    index: f("index")? as u8,
                    level: f("level")? as u8,
                    lo: f("lo")?,
                    hi: f("hi")?,
                },
                "flush" => Op::Flush,
                _ => return None,
            });
        }
        Some(Scenario {
            seed: u("seed")?,
            entries: u("entries")? as usize,
            ways: u("ways")? as usize,
            key_block_bits: u("key_block_bits")? as u32,
            wide_pct: u("wide_pct")? as u8,
            ample: j.get("ample")?.as_bool()?,
            ops,
        })
    }
}

/// A synthetic tree-like index shape: levels of nested ranges, level 0
/// deepest. Same-level nodes are disjoint (as in a real index), so the
/// deepest covering node for any key is unique.
struct Shape {
    /// `(level, lo, hi, node, bytes)` for every node.
    nodes: Vec<(u8, u64, u64, u32, u64)>,
    base: u64,
    span: u64,
}

fn gen_shape(rng: &mut SplitRng, near_max: bool) -> Shape {
    let span: u64 = match rng.gen_range(0..3u64) {
        0 => rng.gen_range(8..200u64),
        1 => rng.gen_range(200..20_000u64),
        _ => rng.gen_range(20_000..2_000_000u64),
    };
    let base = if near_max {
        u64::MAX - span
    } else {
        rng.gen_range(0..1u64 << 40)
    };
    let depth = rng.gen_range(1..5u64) as u8;
    let mut nodes = Vec::new();
    let mut node_id = 1u32;
    for level in (0..depth).rev() {
        // Fewer, wider nodes at higher levels.
        let n = (1usize << ((depth - 1 - level) as usize).min(4)).min(16);
        let n = rng.gen_range(1..=(n.max(1)));
        let step = span / n as u64 + 1;
        let end = base.saturating_add(span);
        for i in 0..n as u64 {
            let Some(lo) = i.checked_mul(step).and_then(|o| base.checked_add(o)) else {
                break;
            };
            if lo > end {
                break;
            }
            // Strictly below the next node's `lo`: same-level nodes are
            // disjoint (as in a real index), so equal-level probe ties
            // cannot arise and node identity is translation-invariant.
            let hi = lo.saturating_add(rng.gen_range(1..=step) - 1).min(end);
            let bytes = *pick(rng, &[16, 24, 40, 64, 64, 100, 128, 256, 960]);
            nodes.push((level, lo, hi.max(lo), node_id, bytes));
            node_id += 1;
        }
    }
    Shape { nodes, base, span }
}

pub(crate) fn pick<'a, T>(rng: &mut SplitRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

/// Generates one IX scenario from the swarm. `ample` scenarios are
/// sized so no eviction or bypass can occur (single narrow set, entry
/// budget above the worst-case physical entry count, no pins), which
/// arms the history-oracle retention and translation-invariance
/// checks; tight scenarios use small geometries and pins to stress
/// eviction, erosion and bypass paths.
///
/// `mutate` draws from the CRUD swarm instead: a slice of the op
/// budget becomes [`Op::Invalidate`] — node-span invalidations (what a
/// split/merge at that node would force), random sub-ranges (partial
/// kills of coalesced packs) and occasional all-level wipes (subtree
/// rebalances). Each swarm has its own stream constant, so neither
/// replays the other's cases and each corpus stays byte-stable.
pub fn gen_scenario(seed: u64, ample: bool, mutate: bool) -> Scenario {
    // Roll thresholds: inserts below the first, invalidations below the
    // second (an empty band for the read-only swarm), then probes.
    let (salt, inserts, invalidates) = if mutate {
        (0xc2d0_51ab, 35, 50)
    } else {
        (0x5ce7a210, 40, 40)
    };
    let mut rng = SplitRng::stream(seed, salt);
    let near_max = rng.gen_range(0..8u64) == 0;
    let shape = gen_shape(&mut rng, near_max);
    let n_ops = rng.gen_range(10..160u64) as usize;
    let indexes = rng.gen_range(1..=2u64) as u8;

    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let roll = rng.gen_range(0..100u64);
        if roll < inserts {
            let &(level, lo, hi, node, bytes) = pick(&mut rng, &shape.nodes);
            let life = if ample {
                0
            } else {
                *pick(&mut rng, &[0, 0, 0, 0, 1, 2, 3, 8, 20])
            };
            ops.push(Op::Insert {
                index: rng.gen_range(0..indexes as u64) as u8,
                node,
                lo,
                hi,
                level,
                bytes,
                life,
            });
        } else if roll < invalidates {
            let &(level, lo, hi, _, _) = pick(&mut rng, &shape.nodes);
            let (level, lo, hi) = match rng.gen_range(0..4u64) {
                // A subtree rebalance stales every level over the span.
                0 => (ALL_LEVELS, lo, hi),
                // A partial kill: random sub-range of the key space,
                // clipping coalesced packs mid-entry.
                1 => {
                    let a = shape.base + rng.gen_range(0..=shape.span);
                    let b = a.saturating_add(rng.gen_range(0..=shape.span / 4 + 1));
                    (level, a, b)
                }
                // A split/merge at this node stales exactly its span.
                _ => (level, lo, hi),
            };
            ops.push(Op::Invalidate {
                index: rng.gen_range(0..indexes as u64) as u8,
                level,
                lo,
                hi: hi.max(lo),
            });
        } else if roll < 97 || ample {
            // Probe keys: uniform in span, node boundaries, or outside.
            let key = match rng.gen_range(0..6u64) {
                0 => {
                    let &(_, lo, hi, _, _) = pick(&mut rng, &shape.nodes);
                    if rng.gen_range(0..2u64) == 0 {
                        lo
                    } else {
                        hi
                    }
                }
                1 => shape.base.wrapping_sub(rng.gen_range(1..50u64)),
                _ => shape.base + rng.gen_range(0..=shape.span),
            };
            ops.push(Op::Probe {
                index: rng.gen_range(0..indexes as u64) as u8,
                key,
            });
        } else {
            ops.push(Op::Flush);
        }
    }

    let (entries, ways) = if ample {
        let entries = Scenario::max_physical_entries(&ops) + 2;
        (entries, entries)
    } else {
        let ways = rng.gen_range(1..=8u64) as usize;
        (rng.gen_range(2..40u64) as usize, ways)
    };
    Scenario {
        seed,
        entries,
        ways,
        key_block_bits: rng.gen_range(0..16u64) as u32,
        wide_pct: *pick(&mut rng, &[0, 25, 50, 75, 100]),
        ample,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_is_exact() {
        for seed in 0..20 {
            let s = gen_scenario(seed, seed % 2 == 0, false);
            let j = s.to_json();
            let back = Scenario::from_json(&Json::parse(&j.render()).unwrap()).unwrap();
            assert_eq!(s, back, "seed {seed}");
        }
    }

    #[test]
    fn ample_scenarios_have_no_pins_and_enough_entries() {
        for seed in 0..50 {
            let s = gen_scenario(seed, true, false);
            assert!(s.entries > Scenario::max_physical_entries(&s.ops));
            assert_eq!(s.ways, s.entries, "single narrow set");
            for op in &s.ops {
                if let Op::Insert { life, .. } = op {
                    assert_eq!(*life, 0);
                }
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(
            gen_scenario(42, false, false),
            gen_scenario(42, false, false)
        );
        assert_ne!(
            gen_scenario(1, false, false).ops,
            gen_scenario(2, false, false).ops
        );
    }

    #[test]
    fn ranges_are_well_formed() {
        for seed in 0..80 {
            for op in gen_scenario(seed, seed % 3 == 0, false).ops {
                if let Op::Insert { lo, hi, bytes, .. } = op {
                    assert!(lo <= hi, "seed {seed}: inverted range");
                    assert!(bytes > 0);
                }
            }
        }
    }

    #[test]
    fn crud_generator_emits_invalidations_and_round_trips() {
        let mut saw_invalidate = 0;
        for seed in 0..40 {
            let s = gen_scenario(seed, seed % 2 == 0, true);
            assert_eq!(s, gen_scenario(seed, seed % 2 == 0, true));
            let j = s.to_json();
            let back = Scenario::from_json(&Json::parse(&j.render()).unwrap()).unwrap();
            assert_eq!(s, back, "seed {seed}");
            for op in &s.ops {
                if let Op::Invalidate { lo, hi, .. } = op {
                    assert!(lo <= hi, "seed {seed}: inverted invalidation");
                    saw_invalidate += 1;
                }
            }
        }
        assert!(saw_invalidate > 40, "swarm must exercise invalidation");
    }

    #[test]
    fn crud_stream_differs_from_readonly_stream() {
        // Same seed, different stream constant: the mutating swarm must
        // not replay the read-only swarm's cases (which would shrink
        // combined coverage) and must leave its corpus byte-stable.
        assert_ne!(
            gen_scenario(7, false, true).ops,
            gen_scenario(7, false, false).ops
        );
    }
}
