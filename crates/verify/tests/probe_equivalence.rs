//! Randomized equivalence sweep for the interval-indexed probe path.
//!
//! Three implementations of "what does a probe return" are driven in
//! lockstep over the same op sequence and must agree on every call:
//!
//! 1. [`IxCache::probe`] — the interval-indexed production path
//!    (binary search + bounded neighborhood scan over sorted tags);
//! 2. [`IxCache::probe_reference`] — the legacy linear scan, kept as
//!    the executable reference, run on a *twin* cache fed the same ops
//!    (probes mutate utility/tick/life, so the twin keeps its own
//!    state and both states must also stay identical);
//! 3. [`spec_probe`] — `metal-verify`'s declarative oracle over a
//!    residency snapshot, independent of either scan.
//!
//! The sweep crosses the geometry axes the figures exercise — the
//! `abl_geometry` associativities (1/4/16/64 ways), narrow-only
//! through wide-only splits, and key-block sizes from degenerate to
//! coarse — with op mixes chosen to hit coalesced packing (small
//! payloads sharing a key block), split packing (payloads above one
//! block, fanning out into multi-entry inserts) and eviction storms
//! (budgets far below the insert volume, with pinned entries eroding).

use metal_core::ixcache::{IxCache, IxConfig};
use metal_core::range::KeyRange;
use metal_index::bptree::BPlusTree;
use metal_index::WalkIndex;
use metal_sim::obs::WIDE_SET;
use metal_sim::rng::SplitRng;
use metal_sim::types::Addr;
use metal_verify::oracle::spec_probe;
use metal_workloads::datasets::sparse_keys;

/// One randomized run over a fixed geometry: every probe must agree
/// across the indexed path, the reference path and the spec oracle,
/// and the twin caches must remain observably identical.
fn drive(cfg: IxConfig, seed: u64, ops: usize) {
    let mut rng = SplitRng::stream(seed, 0x9e0b_e11a);
    let mut fast = IxCache::new(cfg);
    let mut slow = IxCache::new(cfg);
    let block = 1u64 << cfg.key_block_bits.min(16);
    let span = (block * 64).max(4096);

    for op in 0..ops {
        let roll = rng.gen_range(0..100u64);
        if roll < 45 {
            // Insert. Bias lo toward block starts so coalescing (same
            // block, same level, payloads that sum below one block) and
            // block-straddling wide placements both occur.
            let lo = match rng.gen_range(0..4u64) {
                0 => rng.gen_range(0..span) / block * block,
                _ => rng.gen_range(0..span),
            };
            let width = match rng.gen_range(0..4u64) {
                0 => rng.gen_range(1..=block.min(8)), // narrow, packable
                1 => rng.gen_range(1..=block),        // narrow-ish
                _ => rng.gen_range(1..=span / 4),     // often wide
            };
            let hi = lo.saturating_add(width - 1);
            let level = rng.gen_range(0..4u64) as u8;
            // 16/24-byte payloads coalesce; 960 bytes splits into 15
            // block-sized sub-entries (the paper's Case-2 packing).
            let bytes = [16u64, 24, 40, 64, 128, 960][rng.gen_range(0..6u64) as usize];
            let life = [0u32, 0, 0, 2, 9][rng.gen_range(0..5u64) as usize];
            let index = rng.gen_range(0..2u64) as u8;
            let node = op as u32;
            fast.insert(index, node, KeyRange::new(lo, hi), level, bytes, life);
            slow.insert(index, node, KeyRange::new(lo, hi), level, bytes, life);
        } else if roll < 96 {
            let key = match rng.gen_range(0..8u64) {
                0 => rng.gen_range(0..span) / block * block, // block edges
                1 => span + rng.gen_range(0..span),          // mostly-miss region
                _ => rng.gen_range(0..span),
            };
            let index = rng.gen_range(0..2u64) as u8;
            let snap = fast.snapshot();
            let spec = spec_probe(&snap, index, key, fast.probe_set(index, key));
            let a = fast.probe(index, key);
            let b = slow.probe_reference(index, key);
            assert_eq!(
                a, b,
                "op {op}: indexed probe vs reference probe diverged \
                 (cfg {cfg:?}, seed {seed}, index {index}, key {key})"
            );
            let spec_view = spec.as_ref().map(|h| (h.node, h.level, h.range));
            let got_view = a.as_ref().map(|h| (h.node, h.level, h.range));
            assert_eq!(
                got_view, spec_view,
                "op {op}: indexed probe vs spec oracle diverged \
                 (cfg {cfg:?}, seed {seed}, index {index}, key {key})"
            );
        } else {
            fast.flush();
            slow.flush();
        }
        assert_eq!(
            fast.snapshot(),
            slow.snapshot(),
            "op {op}: twin cache states diverged (cfg {cfg:?}, seed {seed})"
        );
    }
    assert_eq!(fast.stats(), slow.stats(), "cfg {cfg:?}, seed {seed}");
}

#[test]
fn probe_equivalence_across_geometries() {
    // The abl_geometry associativity sweep × partition splits × block
    // sizes. Budgets of 8 entries against hundreds of inserts are a
    // sustained eviction storm; 512 entries exercises the roomy regime.
    let mut cases = 0;
    for &ways in &[1usize, 4, 16, 64] {
        for &entries in &[8usize, 64, 512] {
            for &wide_fraction in &[0.0, 0.5, 1.0] {
                for &key_block_bits in &[0u32, 4, 10] {
                    let cfg = IxConfig {
                        entries,
                        ways: ways.min(entries),
                        key_block_bits,
                        wide_fraction,
                    };
                    drive(cfg, 0xA11CE + cases, 400);
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 108);
}

#[test]
fn probe_equivalence_long_churn_default_geometry() {
    // One long run on the default figure geometry: deep churn so the
    // interval overlay's lazy prefix bounds go through many rebuild
    // cycles while the three probe views stay in lockstep.
    drive(IxConfig::kb64(), 0xD0_5E_ED, 4000);
}

#[test]
fn probe_equivalence_at_the_benchmark_operating_point() {
    // The sweeps above use four levels, spans of at most 4 096 keys and
    // at most 512 entries; the repository benchmark lives elsewhere: a
    // depth-10 tree over sparse keys, whose node ranges all straddle a
    // 16-key block (fills are wide) and whose interior nodes exceed one
    // block (fills are split-packed), holding the 1 024-entry wide
    // partition full. Ranges, levels and byte sizes come from the tree;
    // each walk probes, then admits the path below its hit, as
    // `metal-ix` does.
    let keys = sparse_keys(200_000, 8, 0x5CA7);
    let tree = BPlusTree::bulk_load_with_depth(&keys, 10, Addr::new(0), 64);
    assert_eq!(tree.depth(), 10);
    let mut fast = IxCache::new(IxConfig::kb64());
    let mut slow = IxCache::new(IxConfig::kb64());
    let mut rng = SplitRng::stream(0x5CA7, 1);
    let mut path = Vec::new();
    let mut fills_when_full = 0;
    let mut walk = 0u64;
    while fills_when_full < 50_000 {
        walk += 1;
        // A hot region that drifts, a uniform tail, and absent keys.
        let hot = (walk as usize * 3 + rng.gen_range(0..4_000usize)) % keys.len();
        let key = match rng.gen_range(0..8u64) {
            0 => keys[rng.gen_range(0..keys.len())] + 1,
            1 | 2 => keys[rng.gen_range(0..keys.len())],
            _ => keys[hot],
        };
        let spec = walk.is_multiple_of(16).then(|| {
            let set = fast.probe_set(0, key);
            spec_probe(&fast.snapshot(), 0, key, set).map(|h| (h.node, h.level, h.range))
        });
        let hit = fast.probe(0, key);
        assert_eq!(hit, slow.probe_reference(0, key), "walk {walk}, key {key}");
        if let Some(spec) = spec {
            assert_eq!(hit.map(|h| (h.node, h.level, h.range)), spec, "walk {walk}");
        }

        path.clear();
        tree.walk(key, |id, info| path.push((id, *info)));
        let full = fast.occupancy() == fast.entries();
        let before = fast.stats().inserts;
        for (id, info) in &path {
            if hit.is_none_or(|h| info.level < h.level) {
                let range = KeyRange::new(info.lo, info.hi);
                fast.insert(0, *id, range, info.level, info.bytes, 0);
                slow.insert(0, *id, range, info.level, info.bytes, 0);
            }
        }
        if full {
            fills_when_full += fast.stats().inserts - before;
        }

        // Invalidation storms: what a burst of leaf splits and merges
        // under one subtree sends (`Some(level)` spans from the leaf
        // up), and now and then an all-level wipe of a key stretch.
        if walk.is_multiple_of(64) {
            for _ in 0..rng.gen_range(4..24u64) {
                let k = keys[(hot + rng.gen_range(0..512usize)) % keys.len()];
                path.clear();
                tree.walk(k, |id, info| path.push((id, *info)));
                let top = rng.gen_range(1..=3usize).min(path.len());
                for (_, info) in path.iter().rev().take(top) {
                    let stale = KeyRange::new(info.lo, info.hi);
                    fast.invalidate_range(0, Some(info.level), stale);
                    slow.invalidate_range(0, Some(info.level), stale);
                }
            }
            if walk.is_multiple_of(1024) {
                let stale = KeyRange::new(key, key + rng.gen_range(1..20_000u64));
                fast.invalidate_range(0, None, stale);
                slow.invalidate_range(0, None, stale);
            }
        }
        if walk.is_multiple_of(256) {
            assert_eq!(fast.snapshot(), slow.snapshot(), "walk {walk}");
            fast.check_invariants()
                .unwrap_or_else(|e| panic!("walk {walk}: {e}"));
        }
    }

    assert_eq!(fast.snapshot(), slow.snapshot());
    assert_eq!(fast.stats(), slow.stats());
    fast.check_invariants().unwrap();
    let snap = fast.snapshot();
    let wide = snap.iter().filter(|e| e.set == WIDE_SET).count();
    assert!(
        wide * 100 >= snap.len() * 95,
        "{wide} of {} wide",
        snap.len()
    );
    let split_packed = snap.windows(2).any(|w| w[0].segs[0].1 == w[1].segs[0].1);
    assert!(split_packed, "no node spans two entries");
    let st = fast.stats();
    assert!(st.evictions >= 50_000 - 1_024 && st.invalidation_kills > 1_000);
}
