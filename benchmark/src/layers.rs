//! The per-layer pass (`--trace 1`): counts read from one run of every
//! cell, micro loops that time each layer's public functions from
//! outside over the workload's own tree and keys, the cost of each
//! event sink, and the traced layer walk.
//!
//! Micro loops run in *rounds*: every loop once per round, rounds until
//! the `--seconds` budget is spent (never fewer than five), median over
//! rounds. Calls of a microsecond or more are timed per call and
//! reported as p50/p99 over all rounds.

use crate::e2e::{Bench, KeepWarm, Outcome};
use crate::spec::{self, Cell, WorkloadSpec, NATIVE_DESIGNS, SIM_DESIGNS};
use crate::stats::{median, percentile, summarize, Summary};
use crate::trace::{self, Recorder, ROOT};
use metal_bench::micro::filled_cache;
use metal_core::descriptor::AdmitCtx;
use metal_core::ixcache::{IxCache, IxConfig};
use metal_core::native::{materialize_tree, BlockFile, NativeMetrics, PagedNode, PagedTree};
use metal_core::range::KeyRange;
use metal_core::runner::{run_design, ObsConfig, RunConfig, RunReport, ShardCtx, SinkFactory};
use metal_index::bptree::BPlusTree;
use metal_index::walk::{Descend, NodeInfo, WalkIndex};
use metal_index::NodeId;
use metal_obs::{AnalysisRegistry, FlightRecorder, Json, JsonlReader, JsonlSink, JsonlWriter};
use metal_sim::caches::address::AddressCache;
use metal_sim::caches::keycache::KeyCache;
use metal_sim::dram::Dram;
use metal_sim::obs::{shared, CountingSink, Event, EventSink};
use metal_sim::rng::SplitRng;
use metal_sim::stats::RunStats;
use metal_sim::types::{Addr, Key};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Repeats of the native cells, the sink runs and the walk pairs.
const REPEATS: usize = 3;
const MIN_ROUNDS: usize = 5;

type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Nanoseconds per call of `f` over `iters` back-to-back calls.
fn batch_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Fisher-Yates with the benchmark's seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut SplitRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A `CountingSink` whose total survives the run (the runner owns the
/// sink; the count leaves through the shared atomic on flush).
struct Counted {
    inner: CountingSink,
    total: Arc<AtomicU64>,
}

impl EventSink for Counted {
    fn emit(&mut self, at: u64, ev: &Event) {
        self.inner.emit(at, ev);
    }

    fn flush(&mut self) {
        self.total.store(self.inner.total(), Ordering::Relaxed);
    }
}

fn observed(cfg: RunConfig, factory: SinkFactory) -> RunConfig {
    cfg.with_obs(ObsConfig {
        sink_factory: Some(factory),
        ..ObsConfig::default()
    })
}

/// A simulator configuration with a `CountingSink` attached, and where
/// the count of the last run lands.
fn counting_cfg(bench: &Bench) -> (RunConfig, Arc<AtomicU64>) {
    let total = Arc::new(AtomicU64::new(0));
    let t = total.clone();
    let cfg = observed(
        bench.sim_cfg(),
        Arc::new(move |_: &ShardCtx| {
            Some(shared(Counted {
                inner: CountingSink::new(),
                total: t.clone(),
            }))
        }),
    );
    (cfg, total)
}

/// Events one simulated run of `design` emits.
fn count_events(bench: &Bench, design: &str) -> u64 {
    let (cfg, total) = counting_cfg(bench);
    run_design(bench.design(design), &bench.exp(), &cfg);
    total.load(Ordering::Relaxed)
}

/// State the micro loops reuse across rounds, all derived from the
/// workload's own tree and request keys.
struct Micro<'a> {
    bench: &'a Bench,
    rng: SplitRng,
    /// Every key of the tree, ascending.
    sorted_keys: Vec<Key>,
    /// The request stream's keys.
    lookup_keys: Vec<Key>,
    /// Keys absent from the tree (insert/delete loops), and a cursor.
    fresh_keys: Vec<Key>,
    fresh_at: usize,
    mem_tree: BPlusTree,
    infos: Vec<NodeInfo>,
    nodes: Vec<PagedNode>,
    encoded: Vec<Vec<u8>>,
    live_ids: Vec<NodeId>,
    paged: PagedTree,
    paged_mut: PagedTree,
    dram: Dram,
    dram_now: u64,
    address: AddressCache,
    xcache: KeyCache,
    merge_pair: (RunStats, RunStats),
    stream_events: u64,
    /// Per-call samples, pooled over rounds.
    per_call: BTreeMap<&'static str, Vec<f64>>,
}

/// Nodes the codec / block-file loops cycle over.
const NODE_SAMPLE: usize = 2_000;

impl<'a> Micro<'a> {
    fn new(
        bench: &'a Bench,
        seed: u64,
        paged: PagedTree,
        merge_pair: (RunStats, RunStats),
    ) -> Self {
        let tree = bench.tree();
        let mut rng = SplitRng::stream(seed, 0xbe9c);
        let sorted_keys = tree.range(0, Key::MAX);
        let lookup_keys: Vec<Key> = bench.built.requests.iter().map(|r| r.key).collect();
        let mut fresh_keys: Vec<Key> = sorted_keys
            .iter()
            .map(|k| k + 1)
            .filter(|k| !tree.contains(*k))
            .collect();
        // So inserts land all over the tree.
        shuffle(&mut fresh_keys, &mut rng);
        let mut live_ids: Vec<NodeId> = (0..tree.node_count() as NodeId)
            .filter(|&id| !tree.export_node(id).dead)
            .collect();
        shuffle(&mut live_ids, &mut rng);
        let sample = &live_ids[..live_ids.len().min(NODE_SAMPLE)];
        let infos: Vec<NodeInfo> = sample.iter().map(|&id| tree.node(id)).collect();
        let nodes: Vec<PagedNode> = sample
            .iter()
            .map(|&id| PagedNode::from_export(&tree.export_node(id)))
            .collect();
        let encoded = nodes.iter().map(PagedNode::encode).collect();
        let sim = bench.sim_cfg().sim;
        Micro {
            bench,
            rng,
            sorted_keys,
            lookup_keys,
            fresh_keys,
            fresh_at: 0,
            mem_tree: tree.clone(),
            infos,
            nodes,
            encoded,
            live_ids,
            paged,
            paged_mut: materialize_tree(tree).expect("materialize the mutation scratch tree"),
            dram: Dram::new(sim.dram),
            dram_now: 0,
            address: AddressCache::new(spec::CACHE_BYTES / 64, 16),
            xcache: KeyCache::new(spec::CACHE_BYTES / 64, 16),
            merge_pair,
            stream_events: count_events(bench, "stream"),
            per_call: BTreeMap::new(),
        }
    }

    /// The next `n` absent keys (wrapping).
    fn take_fresh(&mut self, n: usize) -> Vec<Key> {
        let len = self.fresh_keys.len();
        let out = (0..n.min(len))
            .map(|i| self.fresh_keys[(self.fresh_at + i) % len])
            .collect();
        self.fresh_at = (self.fresh_at + n) % len.max(1);
        out
    }

    fn round(&mut self, smoke: bool, warm: &KeepWarm, s: &mut Samples) {
        let scale = |n: usize| if smoke { (n / 20).max(16) } else { n };
        self.index(scale(20_000), scale(2_000), s);
        self.sim(scale(100_000), s);
        self.ixcache(scale(100_000), s);
        self.storage(s);
        self.tree(scale(50_000), scale(3_000), scale(300), s);

        let mut push = |name, v| s.entry(name).or_default().push(v);
        let ctx = AdmitCtx::default();
        let desc = &self.bench.built.descriptors[0];
        let infos = &self.infos;
        push(
            "core.descriptor.decide_ns",
            batch_ns(scale(200_000), |i| {
                black_box(desc.decide(black_box(&infos[i % infos.len()]), &ctx));
            }),
        );
        push(
            "bench.timer_ns",
            batch_ns(scale(100_000), |_| {
                let t = Instant::now();
                black_box(t.elapsed());
            }),
        );

        // Eight logical shards of the simulated `metal` run on one
        // worker thread, then the same on two.
        let exp = self.bench.exp();
        let grain = (self.bench.walks() / 8).max(1);
        let sharded = self.bench.sim_cfg().with_shard_walks(grain);
        let metal = self.bench.design("metal");
        let t = Instant::now();
        black_box(run_design(metal, &exp, &sharded.clone().with_shards(1)));
        let one = t.elapsed().as_secs_f64();
        let two = warm.parked(|| {
            let t = Instant::now();
            black_box(run_design(metal, &exp, &sharded.with_shards(2)));
            t.elapsed().as_secs_f64()
        });
        push("core.runner.shard8_speedup_2t", one / two);
    }

    fn index(&mut self, lookups: usize, mutations: usize, s: &mut Samples) {
        let mut push = |name, v| s.entry(name).or_default().push(v);
        let t = Instant::now();
        black_box(BPlusTree::bulk_load_with_depth(
            &self.sorted_keys,
            10,
            Addr::new(0),
            64,
        ));
        push(
            "index.bulk_load_ns_per_key",
            t.elapsed().as_nanos() as f64 / self.sorted_keys.len() as f64,
        );
        let (tree, keys) = (&self.mem_tree, &self.lookup_keys);
        push(
            "index.lookup_ns",
            batch_ns(lookups, |i| {
                black_box(tree.walk(black_box(keys[i % keys.len()]), |_, _| {}));
            }),
        );
        let fresh = self.take_fresh(mutations);
        let tree = &mut self.mem_tree;
        push(
            "index.insert_key_ns",
            batch_ns(fresh.len(), |i| {
                black_box(tree.insert_key(fresh[i]));
            }),
        );
        push(
            "index.delete_key_ns",
            batch_ns(fresh.len(), |i| {
                black_box(tree.delete_key(fresh[i]));
            }),
        );
    }

    fn sim(&mut self, iters: usize, s: &mut Samples) {
        let mut push = |name, v| s.entry(name).or_default().push(v);
        let exp = self.bench.exp();
        let t = Instant::now();
        black_box(run_design(
            self.bench.design("stream"),
            &exp,
            &self.bench.sim_cfg(),
        ));
        push(
            "sim.engine.events_per_s",
            self.stream_events as f64 / t.elapsed().as_secs_f64(),
        );

        let infos = &self.infos;
        let (dram, now) = (&mut self.dram, &mut self.dram_now);
        push(
            "sim.dram.access_ns",
            batch_ns(iters / 2, |i| {
                let info = &infos[i % infos.len()];
                *now += 4;
                black_box(dram.access(*now, info.addr, 64));
            }),
        );
        let address = &mut self.address;
        push(
            "sim.caches.address.access_ns",
            batch_ns(iters, |i| {
                black_box(address.access(infos[i % infos.len()].addr.block()));
            }),
        );
        let (xcache, keys) = (&mut self.xcache, &self.lookup_keys);
        push(
            "sim.caches.xcache.probe_ns",
            batch_ns(iters, |i| {
                black_box(xcache.probe(black_box(keys[i % keys.len()])));
            }),
        );
        push(
            "sim.caches.xcache.insert_ns",
            batch_ns(iters, |i| {
                xcache.insert(black_box(keys[i % keys.len()]), i as u64);
            }),
        );

        let (a, b) = &self.merge_pair;
        let mut targets: Vec<RunStats> = (0..8).map(|_| a.clone()).collect();
        push(
            "sim.stats.merge_ns",
            batch_ns(targets.len(), |i| targets[i].merge(black_box(b))),
        );
        black_box(&targets);
    }

    /// The `metal_bench::micro` cache shape, for continuity with
    /// `BENCH.json`'s `probe_ns.*`.
    fn ixcache(&mut self, iters: usize, s: &mut Samples) {
        let mut push = |name, v| s.entry(name).or_default().push(v);
        let mut cache = filled_cache();
        let mut key = 0u64;
        push(
            "core.ixcache.probe_hit_ns",
            batch_ns(iters, |_| {
                key = (key + 37) % 4096;
                black_box(cache.probe(0, black_box(key)));
            }),
        );
        push(
            "core.ixcache.probe_miss_ns",
            batch_ns(iters, |_| {
                black_box(cache.probe(0, black_box(1 << 40)));
            }),
        );
        push(
            "core.ixcache.peek_ns",
            batch_ns(iters, |_| {
                key = (key + 37) % 4096;
                black_box(cache.peek(0, black_box(key)));
            }),
        );
        // 512 narrow leaves, one invalidation each; the cache is rebuilt
        // every round so there is always something to kill.
        push(
            "core.ixcache.invalidate_range_ns",
            batch_ns(512, |i| {
                let lo = i as u64 * 8;
                cache.invalidate_range(0, Some(0), KeyRange::new(lo, lo + 7));
            }),
        );
        let mut cache = filled_cache();
        push(
            "core.ixcache.insert_evict_ns",
            batch_ns(iters / 2, |i| {
                let i = i as u64 + 1;
                cache.insert(
                    0,
                    (20_000 + i) as u32,
                    KeyRange::new(i * 16, i * 16 + 15),
                    1,
                    64,
                    0,
                );
            }),
        );
        // The JOIN shape: the same entries under two index ids, probes
        // alternating between them.
        let mut two = IxCache::new(IxConfig::kb64());
        for index in 0..2u8 {
            for i in 0..256u64 {
                two.insert(index, i as u32, KeyRange::new(i * 8, i * 8 + 7), 0, 64, 0);
            }
            for i in 0..64u64 {
                let (lo, node) = (i * 512, 10_000 + i as u32);
                two.insert(index, node, KeyRange::new(lo, lo + 511), 3, 64, 0);
            }
        }
        push(
            "core.ixcache.probe_hit_ns.2idx",
            batch_ns(iters, |i| {
                key = (key + 37) % 2048;
                black_box(two.probe((i & 1) as u8, black_box(key)));
            }),
        );
    }

    /// Block file and codec over the workload's own encoded nodes.
    fn storage(&mut self, s: &mut Samples) {
        let mut push = |name, v| s.entry(name).or_default().push(v);
        let (nodes, encoded) = (&self.nodes, &self.encoded);
        push(
            "core.native.codec.encode_ns",
            batch_ns(nodes.len() * 4, |i| {
                black_box(nodes[i % nodes.len()].encode());
            }),
        );
        push(
            "core.native.codec.decode_ns",
            batch_ns(encoded.len() * 4, |i| {
                black_box(PagedNode::decode(&encoded[i % encoded.len()]).expect("decode"));
            }),
        );

        let mut file = BlockFile::temp().expect("temp block file");
        let mut pages = Vec::with_capacity(encoded.len());
        push(
            "core.native.blockfile.store_ns",
            batch_ns(encoded.len(), |i| {
                pages.push(file.store(&encoded[i]).expect("store"));
            }),
        );
        let mut order: Vec<usize> = (0..pages.len()).collect();
        shuffle(&mut order, &mut self.rng);
        let loads = self
            .per_call
            .entry("core.native.blockfile.load_ns")
            .or_default();
        for &i in &order {
            let t = Instant::now();
            black_box(file.load(pages[i]).expect("load"));
            loads.push(t.elapsed().as_nanos() as f64);
        }
        push(
            "core.native.blockfile.update_ns",
            batch_ns(order.len(), |n| {
                let i = order[n];
                pages[i] = file.update(pages[i], &encoded[i]).expect("update");
            }),
        );
    }

    fn tree(&mut self, reads: usize, lookups: usize, mutations: usize, s: &mut Samples) {
        let mut push = |name, v| s.entry(name).or_default().push(v);
        let (paged, ids) = (&mut self.paged, &self.live_ids);
        paged.retain_hot(|_| false);
        paged.clear_stage();
        let at = self.rng.gen_range(0..ids.len());
        push(
            "core.native.tree.read_node_cold_ns",
            batch_ns(reads / 10, |i| {
                black_box(
                    paged
                        .read_node(ids[(at + i) % ids.len()])
                        .expect("read_node"),
                );
            }),
        );
        let hot = &ids[..ids.len().min(512)];
        for &id in hot {
            paged.admit_hot(id).expect("admit_hot");
        }
        push(
            "core.native.tree.read_node_hot_ns",
            batch_ns(reads, |i| {
                black_box(paged.read_node(hot[i % hot.len()]).expect("read_node"));
            }),
        );
        paged.retain_hot(|_| false);
        let staged = &ids[..ids.len().min(2_000)];
        push(
            "core.native.tree.prefetch_node_ns",
            batch_ns(staged.len(), |i| {
                paged.prefetch_node(staged[i]).expect("prefetch_node");
            }),
        );
        push(
            "core.native.tree.read_node_staged_ns",
            batch_ns(reads, |i| {
                black_box(
                    paged
                        .read_node(staged[i % staged.len()])
                        .expect("read_node"),
                );
            }),
        );
        paged.clear_stage();

        // Root to leaf, every node cold.
        let keys = &self.lookup_keys;
        let at = self.rng.gen_range(0..keys.len());
        let samples = self
            .per_call
            .entry("core.native.tree.lookup_ns")
            .or_default();
        for i in 0..lookups {
            let key = keys[(at + i) % keys.len()];
            let t = Instant::now();
            let mut id = paged.root();
            loop {
                let node = paged.read_node(id).expect("read_node");
                match paged.descend_in(&node, key) {
                    Descend::Child(c) => id = c,
                    Descend::Leaf { found, .. } => {
                        black_box(found);
                        break;
                    }
                }
            }
            samples.push(t.elapsed().as_nanos() as f64);
        }

        let fresh = self.take_fresh(mutations);
        let tree = &mut self.paged_mut;
        let samples = self
            .per_call
            .entry("core.native.tree.insert_key_ns")
            .or_default();
        for &k in &fresh {
            let t = Instant::now();
            black_box(tree.insert_key(k).expect("insert_key"));
            samples.push(t.elapsed().as_nanos() as f64);
        }
        let samples = self
            .per_call
            .entry("core.native.tree.delete_key_ns")
            .or_default();
        for &k in &fresh {
            let t = Instant::now();
            black_box(tree.delete_key(k).expect("delete_key"));
            samples.push(t.elapsed().as_nanos() as f64);
        }
    }
}

/// `materialize` into a named file, `persist`, then time `open` +
/// `reopen` (the restart path). Returns the reopen seconds.
fn reopen_once(tree: &BPlusTree, path: &PathBuf) -> f64 {
    let file = BlockFile::create(path).expect("create the reopen block file");
    let mut paged = PagedTree::materialize(tree, file).expect("materialize");
    paged.persist().expect("persist");
    drop(paged);
    let t = Instant::now();
    let file = BlockFile::open(path).expect("open the persisted block file");
    let reopened = PagedTree::reopen(file).expect("reopen");
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(reopened.len(), tree.len(), "reopened tree lost keys");
    drop(reopened);
    let _ = std::fs::remove_file(path);
    secs
}

/// Simulated `metal` under each sink: walks/s per sink, the events one
/// walk emits, and JSONL replay speed over the trace just written.
fn obs_costs(bench: &Bench, repeats: usize, put: &mut dyn FnMut(&str, Summary)) {
    let exp = bench.exp();
    let metal = bench.design("metal");
    let walks = bench.walks() as f64;
    let time = |cfg: &RunConfig| {
        let t = Instant::now();
        black_box(run_design(metal, &exp, cfg));
        walks / t.elapsed().as_secs_f64()
    };

    let (counting, total) = counting_cfg(bench);
    let v: Vec<f64> = (0..repeats).map(|_| time(&counting)).collect();
    put("obs.sim_walks_per_s.counting", summarize(&v));
    put(
        "obs.events_per_walk.metal",
        Summary::exact(total.load(Ordering::Relaxed) as f64 / walks),
    );

    let path = std::env::temp_dir().join("obs.jsonl");
    let (mut write, mut replay) = (Vec::new(), Vec::new());
    for _ in 0..repeats {
        let writer = JsonlWriter::create(&path).expect("create the JSONL trace");
        let w = writer.clone();
        let cfg = observed(
            bench.sim_cfg(),
            Arc::new(move |ctx: &ShardCtx| {
                Some(shared(JsonlSink::new(
                    w.clone(),
                    "bench",
                    &ctx.design,
                    ctx.shard,
                )))
            }),
        );
        write.push(time(&cfg));
        drop((cfg, writer));
        let mut reader = JsonlReader::open(&path).expect("open the JSONL trace");
        let t = Instant::now();
        while reader
            .next_line()
            .expect("replay the JSONL trace")
            .is_some()
        {}
        replay.push(reader.line_no() as f64 / t.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_file(&path);
    put("obs.sim_walks_per_s.jsonl", summarize(&write));
    put("obs.jsonl.replay_lines_per_s", summarize(&replay));

    let v: Vec<f64> = (0..repeats)
        .map(|_| {
            let reg = AnalysisRegistry::new(spec::CACHE_BYTES / 64);
            time(&observed(
                bench.sim_cfg(),
                Arc::new(move |ctx: &ShardCtx| Some(shared(reg.sink(&ctx.design)))),
            ))
        })
        .collect();
    put("obs.sim_walks_per_s.analysis", summarize(&v));

    let v: Vec<f64> = (0..repeats)
        .map(|_| {
            let rec = FlightRecorder::new(metal_obs::DEFAULT_FLIGHT_CAPACITY);
            time(&observed(
                bench.sim_cfg(),
                Arc::new(move |ctx: &ShardCtx| Some(shared(rec.sink(&ctx.design, ctx.shard)))),
            ))
        })
        .collect();
    put("obs.sim_walks_per_s.flight", summarize(&v));
}

pub fn run(spec: WorkloadSpec, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let started = Instant::now();
    let defs = spec::per_layer();
    let mut out = Outcome::default();
    let warm = KeepWarm::start();
    let mut metrics: BTreeMap<String, Summary> = BTreeMap::new();
    let (repeats, min_rounds) = if smoke { (1, 2) } else { (REPEATS, MIN_ROUNDS) };

    let mut rec = Recorder::new(true);
    let top = rec.open("workload", ROOT);

    // workloads + materialisation.
    let scale = spec.scale(seed, smoke);
    let mut build_s = Vec::new();
    let mut built = None;
    for _ in 0..repeats {
        let sp = rec.open("workloads.build", top);
        let t = Instant::now();
        built = Some((spec.build)(scale));
        build_s.push(t.elapsed().as_secs_f64());
        rec.close(sp);
    }
    metrics.insert("workloads.build_s".into(), summarize(&build_s));
    let bench = Bench::new(built.expect("repeats is at least 1"));
    let walks = bench.walks();

    let mut materialize_s = Vec::new();
    let mut paged = None;
    for _ in 0..repeats {
        let sp = rec.open(trace::MATERIALIZE, top);
        let t = Instant::now();
        paged = Some(materialize_tree(bench.tree()).expect("materialize"));
        materialize_s.push(t.elapsed().as_secs_f64());
        rec.close(sp);
    }
    metrics.insert(
        "core.native.tree.materialize_s".into(),
        summarize(&materialize_s),
    );
    let reopen_path = std::env::temp_dir().join("reopen.blk");
    let reopen_s: Vec<f64> = (0..repeats)
        .map(|_| reopen_once(bench.tree(), &reopen_path))
        .collect();
    metrics.insert("core.native.tree.reopen_s".into(), summarize(&reopen_s));

    // Counts: every simulator cell once, every native cell `repeats`
    // times (their walks/s feed mlp_gain and the phase shares).
    let mut sim: BTreeMap<&str, RunReport> = BTreeMap::new();
    let mut native: BTreeMap<(&str, usize), Vec<(NativeMetrics, f64)>> = BTreeMap::new();
    let mut native_stats: BTreeMap<&str, RunStats> = BTreeMap::new();
    for pass in 0..repeats {
        for cell in Cell::all() {
            let skip = match cell {
                Cell::Sim(_) => pass > 0,
                Cell::Native(..) => false,
                Cell::Sweep6 => true,
            };
            if skip {
                continue;
            }
            out.attempted += walks;
            let sp = rec.open(format!("run_design {}", cell.metric()), top);
            let run = bench.run_cell(cell, 1);
            rec.close(sp);
            let mut run = match run {
                Ok(run) => run,
                Err(msg) => {
                    out.fail(walks, msg);
                    continue;
                }
            };
            let report = run.reports.pop().expect("one report per cell");
            match cell {
                Cell::Sim(d) => {
                    sim.insert(d, report);
                }
                Cell::Native(d, width) => {
                    let m = report.native.expect("native metrics");
                    native
                        .entry((d, width))
                        .or_default()
                        .push((m, run.elapsed_s));
                    native_stats.entry(d).or_insert(report.stats);
                }
                Cell::Sweep6 => unreachable!("skipped above"),
            }
        }
    }
    if !out.errors.is_empty() {
        // A cell panicked: its walks are counted failed; the rest of the
        // pass would measure a broken program. Every metric reads 0.
        out.metrics = defs
            .into_iter()
            .map(|def| (def, Summary::exact(0.0)))
            .collect();
        return out;
    }
    count_metrics(&bench, &sim, &native, &native_stats, &mut metrics);

    // What looking costs.
    obs_costs(&bench, repeats, &mut |name, s| {
        metrics.insert(name.to_string(), s);
    });

    // The layer walk: recorder off / on, alternating; only the last
    // traced walk's spans are kept.
    let n = if smoke {
        spec::LAYER_WALK_REQUESTS / spec::SMOKE_DIVISOR as usize
    } else {
        spec::LAYER_WALK_REQUESTS
    };
    let keep = rec.spans().len();
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    for _ in 0..repeats {
        let off = trace::layer_walk(&bench, n, &mut Recorder::new(false), ROOT);
        rec.truncate(keep);
        let on = trace::layer_walk(&bench, n, &mut rec, top);
        for res in [off, on] {
            out.attempted += res.walks;
            if res.mismatches > 0 {
                out.fail(
                    res.mismatches,
                    format!(
                        "layer walk: {} of {} walks disagree with the in-memory tree",
                        res.mismatches, res.walks
                    ),
                );
            }
        }
        off_s.push(off.elapsed_s);
        on_s.push(on.elapsed_s);
    }
    metrics.insert(
        "bench.trace_overhead_frac".into(),
        Summary::exact(median(&on_s) / median(&off_s) - 1.0),
    );
    for (metric, span) in [
        ("core.ixcache.walk_probe_ns", trace::PROBE),
        ("core.ixcache.walk_insert_ns", trace::INSERT),
    ] {
        let d = trace::durations(rec.spans(), span);
        for (suffix, q) in [("p50", 50.0), ("p99", 99.0)] {
            metrics.insert(
                format!("{metric}.{suffix}"),
                Summary::exact(percentile(&d, q)),
            );
        }
    }

    // Micro-loop rounds fill what is left of the budget.
    let merge_pair = (sim["metal"].stats.clone(), sim["metal-ix"].stats.clone());
    let mut micro = Micro::new(&bench, seed, paged.expect("materialized above"), merge_pair);
    metrics.insert(
        "sim.engine.events_per_walk".into(),
        Summary::exact(micro.stream_events as f64 / walks as f64),
    );
    metrics.insert(
        "core.native.codec.bytes_per_node".into(),
        Summary::exact(
            micro.encoded.iter().map(Vec::len).sum::<usize>() as f64 / micro.encoded.len() as f64,
        ),
    );
    let sp = rec.open("layer_pass", top);
    let mut samples = Samples::new();
    let mut rounds = 0;
    while rounds < min_rounds || started.elapsed().as_secs_f64() < seconds {
        micro.round(smoke, &warm, &mut samples);
        rounds += 1;
    }
    rec.close(sp);
    for (name, values) in &samples {
        metrics.insert(name.to_string(), summarize(values));
    }
    for (name, values) in &micro.per_call {
        for (suffix, q) in [("p50", 50.0), ("p99", 99.0)] {
            metrics.insert(
                format!("{name}.{suffix}"),
                Summary::exact(percentile(values, q)),
            );
        }
    }
    metrics.insert(
        "core.native.tree.lookup_samples".into(),
        Summary::exact(micro.per_call["core.native.tree.lookup_ns"].len() as f64),
    );
    drop(micro);
    rec.close(top);

    report_trace(spec.name, &rec, &mut out);
    out.extra.push(("rounds".into(), Json::UInt(rounds as u64)));
    let write_walks = sim["stream"].stats.write_walks;
    out.extra
        .push(("write_walks".into(), Json::UInt(write_walks)));

    for def in defs {
        let s = *metrics
            .get(&def.name)
            .unwrap_or_else(|| panic!("per-layer metric {} was never measured", def.name));
        out.metrics.push((def, s));
    }
    out
}

/// Writes the trace and checks what it must satisfy: no span's children
/// outlast it, and every `read_node` span carries exactly one of the
/// hot / staged / cold tags. Files the self-time table under `extra`.
fn report_trace(workload: &str, rec: &Recorder, out: &mut Outcome) {
    let path = crate::out_dir().join(format!("{workload}.trace.json"));
    if let Err(e) = trace::write_chrome(&path, workload, rec.spans()) {
        out.fail(0, format!("cannot write {}: {e}", path.display()));
    }
    out.extra
        .push(("trace_file".into(), Json::str(path.display().to_string())));
    out.extra
        .push(("spans".into(), Json::UInt(rec.spans().len() as u64)));
    let table = match trace::self_times(rec.spans()) {
        Ok(table) => table,
        Err(e) => return out.fail(0, format!("trace: {e}")),
    };
    let (tags, untagged) = trace::read_tags(rec.spans());
    let reads = table.get(trace::READ_NODE).map_or(0, |s| s.count);
    if untagged > 0 || tags.values().sum::<u64>() != reads {
        out.fail(
            0,
            format!("read_node tags {tags:?} do not sum to {reads} calls"),
        );
    }
    let rows = table
        .iter()
        .map(|(name, st)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("count".into(), Json::UInt(st.count)),
                    ("total_ns".into(), Json::UInt(st.total_ns)),
                    ("self_ns".into(), Json::UInt(st.self_ns)),
                ]),
            )
        })
        .collect();
    out.extra.push(("self_time".into(), Json::Obj(rows)));
    let tags = tags
        .into_iter()
        .map(|(t, n)| (t.to_string(), Json::UInt(n)))
        .collect();
    out.extra.push(("read_node_tags".into(), Json::Obj(tags)));
}

/// Everything read straight from `RunReport` / `NativeMetrics`.
fn count_metrics(
    bench: &Bench,
    sim: &BTreeMap<&str, RunReport>,
    native: &BTreeMap<(&str, usize), Vec<(NativeMetrics, f64)>>,
    native_stats: &BTreeMap<&str, RunStats>,
    metrics: &mut BTreeMap<String, Summary>,
) {
    let walks = bench.walks();
    let mut exact = |name: String, v: f64| {
        metrics.insert(name, Summary::exact(v));
    };
    for d in SIM_DESIGNS {
        exact(
            format!("sim.model.cycles_per_walk.{d}"),
            ratio(sim[d].stats.exec_cycles.get(), walks),
        );
    }
    let metal = &sim["metal"].stats;
    exact("sim.model.miss_rate.metal".into(), metal.miss_rate());
    exact(
        "sim.model.dram_reads_per_walk.metal".into(),
        ratio(metal.dram_node_reads, walks),
    );
    for d in ["metal-ix", "metal"] {
        let s = &sim[d].stats;
        exact(format!("core.ixcache.hit_rate.{d}"), s.hit_rate());
        exact(
            format!("core.ixcache.inserts_per_walk.{d}"),
            ratio(s.inserts, walks),
        );
    }
    exact(
        "core.ixcache.bypass_ratio.metal".into(),
        ratio(metal.bypasses, metal.inserts + metal.bypasses),
    );
    exact(
        "core.ixcache.levels_skipped_per_walk.metal".into(),
        ratio(metal.levels_skipped, walks),
    );
    exact(
        "core.ixcache.invalidated_per_write.metal".into(),
        ratio(metal.entries_invalidated, metal.write_walks),
    );
    exact(
        "core.tuner.decisions".into(),
        sim["metal"]
            .band_history
            .iter()
            .map(Vec::len)
            .sum::<usize>() as f64,
    );

    // Counts come from the first repeat (they do not vary), timings
    // from all of them.
    let first = |d: &'static str, w: usize| native[&(d, w)][0].0;
    for (label, d, w) in [
        ("stream", "stream", 1),
        ("metal-ix", "metal-ix", 1),
        ("metal", "metal", 1),
        ("metal_w8", "metal", spec::MLP_WIDTH),
    ] {
        exact(
            format!("core.native.blockfile.page_reads_per_walk.{label}"),
            ratio(first(d, w).page_reads, walks),
        );
    }
    let m = first("metal", 1);
    exact(
        "core.native.blockfile.page_writes_per_walk.metal".into(),
        ratio(m.page_writes, walks),
    );
    exact(
        "core.native.tree.node_writes_per_write".into(),
        ratio(m.node_writes, native_stats["metal"].write_walks),
    );
    for d in ["metal-ix", "metal"] {
        let m = first(d, 1);
        exact(
            format!("core.native.tree.hot_hit_ratio.{d}"),
            ratio(m.hot_hits, m.hot_hits + m.cold_reads + m.staged_hits),
        );
    }
    for d in ["stream", "metal"] {
        let m = first(d, spec::MLP_WIDTH);
        exact(
            format!("core.native.tree.stage_useful_ratio.{d}_w8"),
            ratio(m.staged_hits, m.prefetched),
        );
    }

    let share = |part: u64, m: &NativeMetrics| part as f64 / m.wall_ns.max(1) as f64;
    let over = |d: &'static str, w: usize, f: &dyn Fn(&NativeMetrics, f64) -> f64| {
        let v: Vec<f64> = native[&(d, w)].iter().map(|(m, e)| f(m, *e)).collect();
        summarize(&v)
    };
    for d in NATIVE_DESIGNS {
        // Repeat i of width 8 against repeat i of width 1: neighbours
        // in time, so drift cancels.
        let gains: Vec<f64> = native[&(d, spec::MLP_WIDTH)]
            .iter()
            .zip(&native[&(d, 1)])
            .map(|((w8, _), (w1, _))| w8.walks_per_sec() / w1.walks_per_sec())
            .collect();
        metrics.insert(
            format!("core.native.backend.mlp_gain.{d}"),
            summarize(&gains),
        );
    }
    metrics.insert(
        "core.native.backend.call_overhead_s.metal".into(),
        over("metal", 1, &|m, elapsed| elapsed - m.wall_ns as f64 / 1e9),
    );
    type Phase = fn(&NativeMetrics) -> u64;
    let phases: [(&str, Phase); 5] = [
        ("page_read", |m| m.page_read_ns),
        ("decode", |m| m.decode_ns),
        ("ix_probe", |m| m.ix_probe_ns),
        ("node_scan", |m| m.node_scan_ns),
        ("mutation", |m| m.mutation_ns),
    ];
    for (phase, get) in phases {
        metrics.insert(
            format!("core.native.backend.phase_share.{phase}.metal"),
            over("metal", 1, &|m, _| share(get(m), m)),
        );
    }
    // The scout window only exists at width 8.
    metrics.insert(
        "core.native.backend.phase_share.staging.metal".into(),
        over("metal", spec::MLP_WIDTH, &|m, _| share(m.staging_ns, m)),
    );
    for d in ["metal-ix", "metal"] {
        metrics.insert(
            format!("core.native.backend.unattributed_share.{d}"),
            over(d, 1, &|m, _| {
                1.0 - share(
                    m.ix_probe_ns + m.node_scan_ns + m.mutation_ns + m.staging_ns,
                    m,
                )
            }),
        );
    }
}
