//! Tier-1 reach into the native write path.
//!
//! `BPlusTree` and `PagedTree` run one mutation algorithm
//! (`metal_index::nodestore`) over two node stores, so what can still
//! diverge is storage: the paged tree's frame set, its flush, the hot
//! and staged copies it keeps coherent, tombstones, the free list, and
//! the directory a reopen rebuilds from. The heavier suites behind this
//! one (`backend_equivalence`, the `ix_fuzz --backend native` smokes)
//! live outside the tier-1 command; this file keeps a small version of
//! each inside it.

use metal::core::models::{DesignSpec, Experiment};
use metal::core::native::{materialize_tree, BlockFile, PagedTree};
use metal::core::prelude::*;
use metal::core::request::OpKind;
use metal::index::bptree::BPlusTree;
use metal::index::walk::Descend;
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
            assert_backends_agree(spec, &exp, &cfg, &format!("width {width}"));
        }
    }
}

/// Runs `spec` through both backends and compares the semantic outcomes
/// `backend_equivalence` pins.
fn assert_backends_agree(spec: &DesignSpec, exp: &Experiment<'_>, cfg: &RunConfig, when: &str) {
    let sim = run_design(spec, exp, cfg);
    let native = run_design(spec, exp, &cfg.clone().with_backend(Backend::Native));
    let what = format!("{} at {when}", sim.design);
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

/// The prefetches one MLP scout makes for `key`: down from the root
/// through nodes already in memory, one level per prefetch.
fn scout(paged: &mut PagedTree, key: u64) {
    let mut id = paged.root();
    for _ in 0..=paged.depth() {
        paged.prefetch_node(id).expect("prefetch");
        match paged.peek_node(id).map(|node| paged.descend_in(node, key)) {
            Some(Descend::Child(child)) => id = child,
            _ => break,
        }
    }
}

/// Writes no longer empty the prefetch stage: a flush replaces the held
/// copy of each node it writes and drops the copy of a node that died.
/// A held copy the flush forgot would shadow its page, which is what
/// this test looks for at width 8 — end to end through both backends
/// (debug builds also check every held copy against its page when a
/// native shard ends), and by hand over one paged tree.
#[test]
fn width_eight_crud_mix_keeps_staged_copies_equal_to_their_pages() {
    let built = uniform_std_v1(
        Scale::ci().with_keys(20_000).with_walks(1_500).with_seed(5),
        60,
    );
    let exp = built.experiment();
    let ix = IxConfig::kb64();
    let cfg = RunConfig::default()
        .with_lanes(built.tiles)
        .with_mlp_width(8);
    for spec in [
        DesignSpec::Stream,
        DesignSpec::Metal {
            ix,
            descriptors: built.descriptors.clone(),
            tune: true,
            batch_walks: built.batch_walks,
        },
    ] {
        assert_backends_agree(&spec, &exp, &cfg, "width 8");
    }

    // The same request stream over one paged tree, seven scouts ahead of
    // every request, against the in-memory tree.
    let mut sim = built.indexes[0].as_bptree().expect("a B+tree").clone();
    let mut paged = materialize_tree(&sim).expect("materialize");
    let requests = &built.requests;
    for (n, req) in requests.iter().enumerate() {
        for ahead in requests.iter().skip(n + 1).take(7) {
            scout(&mut paged, ahead.key);
        }
        match req.op {
            OpKind::Insert => {
                let got = paged.insert_key(req.key).expect("insert");
                assert_eq!(got, sim.insert_key(req.key), "request {n}");
            }
            OpKind::Delete => {
                let got = paged.delete_key(req.key).expect("delete");
                assert_eq!(got, sim.delete_key(req.key), "request {n}");
            }
            OpKind::Select | OpKind::Update => {
                let (path, leaf) = paged.path_from(paged.root(), req.key).expect("walk");
                let found = matches!(leaf, Descend::Leaf { found: true, .. });
                assert_eq!(found, sim.contains(req.key), "request {n}");
                let last = path.last().expect("a path").0;
                paged.scan_chain(last, req.scan_leaves).expect("scan");
            }
        }
    }
    assert!(paged.staged_len() > 0, "the stage survived the writes");
    assert_eq!(paged.check_copies(), Ok(()));
    assert!(paged.io_stats().staged_hits > 0, "scouts paid off");
}
