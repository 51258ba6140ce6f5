//! Tier-1 reach into the native write path.
//!
//! `BPlusTree` and `PagedTree` run one mutation algorithm
//! (`metal_index::nodestore`) over two node stores, so what can still
//! diverge is storage: the paged tree's frame set, its flush, the hot
//! map, tombstones, the free list, and the directory a reopen rebuilds
//! from. The heavier suites behind this one (`backend_equivalence`, the
//! `ix_fuzz --backend native` smokes) live outside the tier-1 command;
//! this file keeps a small version of each inside it.

use metal::core::models::DesignSpec;
use metal::core::native::{BlockFile, PagedTree};
use metal::core::prelude::*;
use metal::index::bptree::BPlusTree;
use metal::index::{NodeId, WalkIndex};
use metal::sim::rng::SplitRng;
use metal::sim::types::Addr;
use metal::workloads::crud::uniform_std_v1;
use metal::workloads::Scale;

/// Every node id — tombstones included — holds the same node at the
/// same simulated placement in both trees.
fn assert_same_nodes(sim: &BPlusTree, paged: &mut PagedTree, when: &str) {
    assert_eq!(sim.shape().root, paged.root(), "{when}: root");
    assert_eq!(sim.depth(), paged.depth(), "{when}: depth");
    assert_eq!(sim.len(), paged.len(), "{when}: key count");
    assert_eq!(sim.node_count(), paged.node_count(), "{when}: node count");
    for id in 0..sim.node_count() as NodeId {
        let node = paged.read_node(id).expect("read_node");
        assert_eq!(node, sim.export_node(id), "{when}: node {id}");
        assert_eq!(paged.info_of(id, &node), sim.node(id), "{when}: node {id}");
    }
}

#[test]
fn crud_storm_matches_in_memory_tree_across_a_reopen() {
    const OPS: usize = 3_000;
    let keys: Vec<u64> = (0..4_000).map(|k| k * 4).collect();
    let mut sim = BPlusTree::bulk_load_with_depth(&keys, 7, Addr::new(0x4000), 32);
    assert!(sim.depth() >= 6);
    let dir = std::env::temp_dir().join(format!("metal-native-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = dir.join("tree.blk");
    let file = BlockFile::create(&path).expect("create block file");
    let mut paged = PagedTree::materialize(&sim, file).expect("materialize");

    let mut rng = SplitRng::stream(19, 0x6d75);
    let (mut splits, mut merges, mut rebalances) = (0, 0, 0);
    for op in 0..OPS {
        if op == OPS / 2 {
            // Everything the second half reads comes from the directory
            // and pages the first half left behind.
            paged.persist().expect("persist");
            drop(paged);
            let file = BlockFile::open(&path).expect("open block file");
            paged = PagedTree::reopen(file).expect("reopen");
            assert_same_nodes(&sim, &mut paged, "after reopen");
        }
        // Inserts land anywhere, deletes aim at bulk-loaded keys so
        // nodes drain as well as fill; some of each are no-ops (a
        // present insert, a delete of a key already gone).
        let (key, want, got) = if rng.gen_range(0u64..2) == 0 {
            let key = rng.gen_range(0u64..16_008);
            (key, sim.insert_key(key), paged.insert_key(key))
        } else {
            let key = rng.gen_range(0u64..4_002) * 4;
            (key, sim.delete_key(key), paged.delete_key(key))
        };
        assert_eq!(got.expect("paged mutation"), want, "op {op}, key {key}");
        splits += want.splits;
        merges += want.merges;
        rebalances += want.rebalances;
    }
    assert!(
        splits > 100 && merges > 50 && rebalances > 50,
        "storm too tame: {splits} splits, {merges} merges, {rebalances} rebalances"
    );
    assert_same_nodes(&sim, &mut paged, "after the storm");
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

#[test]
fn backends_agree_on_a_write_mix_at_widths_one_and_eight() {
    let built = uniform_std_v1(Scale::ci().with_keys(6_000).with_walks(1_200), 30);
    let exp = built.experiment();
    let ix = IxConfig::kb64();
    let designs = [
        DesignSpec::Stream,
        DesignSpec::MetalIx { ix },
        DesignSpec::Metal {
            ix,
            descriptors: built.descriptors.clone(),
            tune: true,
            batch_walks: built.batch_walks,
        },
    ];
    for spec in &designs {
        for width in [1usize, 8] {
            let cfg = RunConfig::default()
                .with_lanes(built.tiles)
                .with_mlp_width(width);
            let sim = run_design(spec, &exp, &cfg);
            let native = run_design(spec, &exp, &cfg.clone().with_backend(Backend::Native));
            let what = format!("{} at width {width}", sim.design);
            // The semantic outcomes `backend_equivalence` pins.
            let (s, n) = (&sim.stats, &native.stats);
            assert!(s.write_walks > 0 && s.node_splits > 0, "{what}: no writes");
            assert_eq!(s.found_walks, n.found_walks, "{what}: found walks");
            assert_eq!(s.write_walks, n.write_walks, "{what}: write walks");
            assert_eq!(s.node_splits, n.node_splits, "{what}: splits");
            assert_eq!(s.node_merges, n.node_merges, "{what}: merges");
            assert_eq!(s.probes, n.probes, "{what}: probes");
            assert_eq!(s.misses, n.misses, "{what}: misses");
            assert_eq!(s.inserts, n.inserts, "{what}: inserts");
            assert_eq!(s.bypasses, n.bypasses, "{what}: bypasses");
            assert_eq!(s.levels_skipped, n.levels_skipped, "{what}: skipped");
            assert_eq!(
                s.entries_invalidated, n.entries_invalidated,
                "{what}: invalidated entries"
            );
            assert_eq!(s.hit_levels, n.hit_levels, "{what}: hit levels");
            assert_eq!(s.dram_node_reads, n.dram_node_reads, "{what}: node reads");
            assert_eq!(
                sim.occupancy_by_level, native.occupancy_by_level,
                "{what}: final cache occupancy"
            );
            assert_eq!(sim.band_history, native.band_history, "{what}: tuner");
        }
    }
}
