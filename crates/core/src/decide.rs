//! The cache-decision kernel: the one body of METAL's per-walk decisions.
//!
//! A METAL walk makes one sequence of decisions (paper §3): probe the
//! range-tagged IX-cache, short-circuit from the deepest covering node
//! (else walk from the root), then insert or bypass every node the walk
//! fetched, probing once more per leaf a range scan chains through. After
//! a structural write every cached tag the restructure left stale dies or
//! shrinks. Both backends run exactly this code:
//!
//! - the simulator ([`crate::models`]) walks modeled indexes and plans
//!   timed `WalkStep`s;
//! - the native executor ([`crate::native`]) walks paged B+tree pages and
//!   measures wall time.
//!
//! They differ only in the two traits the kernel is generic over: a
//! [`NodeSource`] (where nodes come from) and a [`CostSink`] (what each
//! step costs). Decisions, statistics and cache-side events are therefore
//! identical by construction; the sim ≡ native gate guards only the
//! storage layers, the two adapters and timing.

use crate::descriptor::{Admit, AdmitCtx, Descriptor};
use crate::ixcache::{IxCache, IxConfig};
use crate::models::{DesignSpec, Experiment};
use crate::range::KeyRange;
use crate::request::{OpKind, WalkRequest};
use crate::tuner::Tuner;
use metal_index::bptree::MutationReport;
use metal_index::walk::{Descend, NodeInfo};
use metal_index::NodeId;
use metal_sim::obs::{emit_to, Event, SharedSink, NO_ENTRY};
use metal_sim::stats::RunStats;
use metal_sim::types::{Addr, Key};

/// A node a walk fetched: its id, its info and whatever else the source
/// handed back with it ([`NodeSource::Held`]).
pub type Fetched<H> = (NodeId, NodeInfo, H);

/// A `keep` for walks that need each node's id and info only: whatever
/// else the fetch handed back is dropped at once.
pub fn id_info<H>(id: NodeId, info: NodeInfo, _held: H) -> (NodeId, NodeInfo) {
    (id, info)
}

/// A `keep` for walks that admit what they fetch.
fn held<H>(id: NodeId, info: NodeInfo, held: H) -> Fetched<H> {
    (id, info, held)
}

/// Where a walk's nodes come from: a modeled index or a paged tree.
pub trait NodeSource {
    /// What a fetch hands back besides the node's id and info: nothing
    /// for a modeled index, the decoded node of a cold page read for a
    /// paged tree (so an admitted node is not read twice).
    type Held;
    /// Storage failure (`Infallible` for in-memory indexes).
    type Error;

    /// Root node id.
    fn root(&self) -> NodeId;
    /// Number of levels.
    fn depth(&self) -> u8;
    /// Byte size of node `id`.
    fn node_bytes(&self, id: NodeId) -> u64;
    /// The memory span a fetch of node `id` reads when searching for `key`.
    fn access(&self, id: NodeId, info: &NodeInfo, key: Key) -> (Addr, u64);
    /// Searches node `id` for `key` (a short-circuit resumes here).
    fn descend(&mut self, id: NodeId, key: Key) -> Result<Descend, Self::Error>;
    /// The node path for `key` from `from` down to a leaf, each node as
    /// `keep` maps it, and the leaf outcome.
    fn path_from<T>(
        &mut self,
        from: NodeId,
        key: Key,
        keep: impl Fn(NodeId, NodeInfo, Self::Held) -> T,
    ) -> Result<(Vec<T>, Descend), Self::Error>;
    /// The (at most `hops`) leaves a range scan visits after `first`, each
    /// as `keep` maps it.
    fn scan_chain<T>(
        &mut self,
        first: NodeId,
        hops: u32,
        keep: impl Fn(NodeId, NodeInfo, Self::Held) -> T,
    ) -> Result<Vec<T>, Self::Error>;
    /// A scan probe hit leaf `id`: the walk reads it from the fast path.
    fn touch(&mut self, _id: NodeId) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Node `id` entered the IX-cache; `held` is what its fetch returned.
    fn admitted(&mut self, _id: NodeId, _held: Self::Held) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Applies `req`'s write op. `None` when the index takes no writes
    /// (the op degrades to its lookup); an `Update` rewrites a record in
    /// place and changes no node, so its report is empty.
    fn mutate(&mut self, req: &WalkRequest) -> Result<Option<MutationReport>, Self::Error>;
}

/// A timed phase of a walk (see [`CostSink::timed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The walk's IX-cache probe.
    IxProbe,
    /// Reading the walk's path or scan chain.
    NodeScan,
}

/// What each step of a walk costs: planned steps and energy in the
/// simulator, buffered fetch events and phase timers natively. The kernel
/// counts the semantic outcomes itself, into [`CostSink::stats`].
pub trait CostSink {
    /// The run's statistics.
    fn stats(&mut self) -> &mut RunStats;
    /// Runs one phase of the walk.
    fn timed<R>(&mut self, _phase: Phase, f: impl FnOnce() -> R) -> R {
        f()
    }
    /// One IX-cache probe; `scan` marks a range scan's per-leaf probe.
    fn probed(&mut self, _hit: bool, _scan: bool) {}
    /// A scan leaf served by its probe hit.
    fn leaf_hit(&mut self) {}
    /// A node fetched from memory, spanning `bytes` at `addr`.
    fn fetched(&mut self, addr: Addr, bytes: u64);
    /// A fetched node inserted into the IX-cache.
    fn admitted(&mut self) {}
    /// The walk reads the record it found.
    fn value(&mut self, addr: Addr, bytes: u64);
    /// A write-back: a mutated node or an updated record.
    fn written(&mut self, addr: Addr, bytes: u64);
}

/// Where a walk's cache-side events go, and the timestamp they carry.
#[derive(Clone, Copy)]
pub struct Obs<'s> {
    /// The run's event sink, if any.
    pub sink: &'s Option<SharedSink>,
    /// Timestamp of every event of this walk.
    pub at: u64,
}

impl Obs<'_> {
    fn on(&self) -> bool {
        self.sink.is_some()
    }

    fn emit(&self, ev: Event) {
        emit_to(self.sink, self.at, &ev);
    }
}

/// The record a walk that resolved `leaf` reads: a found key's
/// non-empty value.
pub fn record(leaf: &Descend) -> Option<(Addr, u64)> {
    match *leaf {
        Descend::Leaf {
            found: true,
            value_addr,
            value_bytes,
        } if value_bytes > 0 => Some((value_addr, value_bytes)),
        _ => None,
    }
}

/// The walk's tail: count a found key and read its record.
pub fn resolve<C: CostSink>(cost: &mut C, leaf: &Descend) {
    if matches!(leaf, Descend::Leaf { found: true, .. }) {
        cost.stats().found_walks += 1;
    }
    if let Some((addr, bytes)) = record(leaf) {
        cost.value(addr, bytes);
    }
}

/// A walk with no cache (the streaming baseline): every node of the
/// root-to-leaf path and of the scan chain is fetched.
pub fn stream_walk<S: NodeSource, C: CostSink>(
    src: &mut S,
    cost: &mut C,
    req: &WalkRequest,
) -> Result<Descend, S::Error> {
    let (path, leaf, chain) = cost.timed(Phase::NodeScan, || {
        let (path, leaf) = src.path_from(src.root(), req.key, id_info)?;
        let chain = src.scan_chain(path[path.len() - 1].0, req.scan_leaves, id_info)?;
        Ok((path, leaf, chain))
    })?;
    for (id, info) in &path {
        fetch(src, cost, *id, info, req.key);
    }
    for (id, info) in &chain {
        fetch(src, cost, *id, info, info.lo);
    }
    resolve(cost, &leaf);
    Ok(leaf)
}

/// Charges the fetch of node `id` on behalf of `key`.
fn fetch<S: NodeSource, C: CostSink>(src: &S, cost: &mut C, id: NodeId, info: &NodeInfo, key: Key) {
    let (addr, bytes) = src.access(id, info, key);
    cost.fetched(addr, bytes);
}

/// The IX-cache state of a METAL-family design: its caches, one
/// descriptor per index and (when tuning) one tuner per index.
pub struct MetalState {
    /// One shared cache, or one private slice per lane.
    pub caches: Vec<IxCache>,
    /// One descriptor per experiment index (retuned in place).
    pub descriptors: Vec<Descriptor>,
    /// One tuner per experiment index, when tuning is on.
    pub tuners: Option<Vec<Tuner>>,
}

impl MetalState {
    /// The state `spec` starts from, or `None` for a design without an
    /// IX-cache. `MetalPrivate` splits its capacity into `lanes` slices.
    pub fn new(spec: &DesignSpec, exp: &Experiment<'_>, lanes: usize) -> Option<Self> {
        let per_index = |d: &[Descriptor]| {
            assert_eq!(d.len(), exp.indexes.len(), "need one descriptor per index");
            d.to_vec()
        };
        let (caches, descriptors, tuners) = match spec {
            DesignSpec::MetalIx { ix } => (
                vec![IxCache::new(*ix)],
                vec![Descriptor::All; exp.indexes.len()],
                None,
            ),
            DesignSpec::Metal {
                ix,
                descriptors,
                tune,
                batch_walks,
            } => (
                vec![IxCache::new(*ix)],
                per_index(descriptors),
                tune.then(|| {
                    exp.indexes
                        .iter()
                        .map(|i| Tuner::new(i.depth(), *batch_walks, ix.entries))
                        .collect()
                }),
            ),
            DesignSpec::MetalPrivate { ix, descriptors } => {
                let slice = IxConfig {
                    entries: (ix.entries / lanes).max(2),
                    ..*ix
                };
                let caches = (0..lanes)
                    .map(|lane| {
                        let mut c = IxCache::new(slice);
                        // Private slices share one (design, shard) event
                        // stream, so partition the entry-id space per
                        // lane to keep ids unique in the trace.
                        c.set_entry_id_stream(lane as u64);
                        c
                    })
                    .collect();
                (caches, per_index(descriptors), None)
            }
            _ => return None,
        };
        Some(MetalState {
            caches,
            descriptors,
            tuners,
        })
    }

    /// Turns the caches' fill/evict/invalidate recording on or off (on
    /// exactly when a sink is attached).
    pub fn set_recording(&mut self, on: bool) {
        for c in &mut self.caches {
            c.set_recording(on);
        }
    }

    /// Occupancy per level summed over every cache slice.
    pub fn occupancy_by_level(&self, max_level: u8) -> Vec<usize> {
        let mut out = vec![0usize; max_level as usize + 1];
        for c in &self.caches {
            for (l, n) in c.occupancy_by_level(max_level).into_iter().enumerate() {
                out[l] += n;
            }
        }
        out
    }

    /// One METAL walk for `req` on physical lane `lane`: probe, then
    /// short-circuit or walk from the root, fetch and admit every node of
    /// the path, probe (and on a miss fetch and admit) every scanned leaf,
    /// read the record, and close the walk for the tuner. Returns the leaf
    /// outcome the walk resolved.
    pub fn walk<S: NodeSource, C: CostSink>(
        &mut self,
        src: &mut S,
        cost: &mut C,
        obs: Obs<'_>,
        req: &WalkRequest,
        lane: usize,
    ) -> Result<Descend, S::Error> {
        let idx = req.index as usize;
        let slice = lane % self.caches.len();
        let cache = &mut self.caches[slice];
        let set = if obs.on() {
            cache.probe_set(req.index, req.key)
        } else {
            0
        };
        let probe = cost.timed(Phase::IxProbe, || cache.probe(req.index, req.key));
        cost.probed(probe.is_some(), false);
        cost.stats().probes += 1;
        if let Some(ts) = &mut self.tuners {
            ts[idx].observe_probe(probe.is_some());
            ts[idx].observe_key(req.key);
        }
        let mut skipped = 0;
        match probe {
            Some(hit) => {
                let levels = &mut cost.stats().hit_levels;
                if levels.len() <= hit.level as usize {
                    levels.resize(hit.level as usize + 1, 0);
                }
                levels[hit.level as usize] += 1;
                if let Some(ts) = &mut self.tuners {
                    ts[idx].observe_node(hit.level, hit.node, src.node_bytes(hit.node));
                }
                skipped = (src.depth() as u64).saturating_sub(hit.level as u64);
            }
            None => cost.stats().misses += 1,
        }
        let (path, leaf) = cost.timed(Phase::NodeScan, || match probe {
            Some(hit) => match src.descend(hit.node, req.key)? {
                Descend::Child(c) => src.path_from(c, req.key, held),
                leaf => Ok((Vec::new(), leaf)),
            },
            None => src.path_from(src.root(), req.key, held),
        })?;
        cost.stats().levels_skipped += skipped;
        if obs.on() {
            obs.emit(Event::IxProbe {
                index: req.index,
                key: req.key,
                hit: probe.is_some(),
                level: probe.map_or(0, |h| h.level),
                short_circuit: skipped.min(u8::MAX as u64) as u8,
                set,
                scan: false,
                entry: probe.map_or(NO_ENTRY, |h| h.entry),
            });
        }

        let scan_start = path.last().map(|n| n.0).or(probe.map(|h| h.node));
        for node in path {
            fetch(src, cost, node.0, &node.1, req.key);
            self.admit(src, cost, obs, req, slice, node)?;
        }
        // Range scan: the walker knows each next leaf and its lo key, and
        // probes the IX-cache once per leaf.
        if let Some(start) = scan_start {
            let chain = cost.timed(Phase::NodeScan, || {
                src.scan_chain(start, req.scan_leaves, held)
            })?;
            for node in chain {
                let (id, info) = (node.0, node.1);
                let cache = &mut self.caches[slice];
                let set = if obs.on() {
                    cache.probe_set(req.index, info.lo)
                } else {
                    0
                };
                let hit = cache.probe(req.index, info.lo).filter(|h| h.node == id);
                cost.stats().probes += 1;
                cost.probed(hit.is_some(), true);
                if obs.on() {
                    obs.emit(Event::IxProbe {
                        index: req.index,
                        key: info.lo,
                        hit: hit.is_some(),
                        level: info.level,
                        short_circuit: 0,
                        set,
                        scan: true,
                        entry: hit.map_or(NO_ENTRY, |h| h.entry),
                    });
                }
                if hit.is_some() {
                    cost.leaf_hit();
                    src.touch(id)?;
                } else {
                    cost.stats().misses += 1;
                    fetch(src, cost, id, &info, info.lo);
                    self.admit(src, cost, obs, req, slice, node)?;
                }
            }
        }
        resolve(cost, &leaf);

        // Close the walk for the tuner (may retune the descriptor). Always
        // drain the decisions so unobserved runs don't accumulate them.
        if let Some(ts) = &mut self.tuners {
            if ts[idx].walk_done(&mut self.descriptors[idx]) {
                for d in ts[idx].take_decisions() {
                    if obs.on() {
                        obs.emit(Event::TunerDecision {
                            index: req.index,
                            batch: d.batch,
                            param: d.param,
                            from: d.from,
                            to: d.to,
                        });
                    }
                }
            }
        }
        Ok(leaf)
    }

    /// The descriptor's insert-or-bypass decision for one fetched node,
    /// inserting into cache `slice` and emitting what the cache did.
    fn admit<S: NodeSource, C: CostSink>(
        &mut self,
        src: &mut S,
        cost: &mut C,
        obs: Obs<'_>,
        req: &WalkRequest,
        slice: usize,
        (id, info, held): Fetched<S::Held>,
    ) -> Result<(), S::Error> {
        let (index, idx) = (req.index, req.index as usize);
        if let Some(ts) = &mut self.tuners {
            ts[idx].observe_node(info.level, id, info.bytes);
        }
        let ctx = AdmitCtx {
            life_hint: req.life_hint,
        };
        let (verdict, reason) = self.descriptors[idx].decide(&info, &ctx);
        let Admit::Insert { life } = verdict else {
            cost.stats().bypasses += 1;
            if obs.on() {
                obs.emit(Event::Bypass {
                    index,
                    level: info.level,
                    reason,
                });
            }
            return Ok(());
        };
        let c = &mut self.caches[slice];
        let range = KeyRange::new(info.lo, info.hi);
        if obs.on() {
            obs.emit(Event::Insert {
                index,
                level: info.level,
                set: c.placement_set(index, &range),
                life,
                reason,
            });
        }
        c.insert(index, id, range, info.level, info.bytes, life);
        if obs.on() {
            for f in c.drain_fills() {
                obs.emit(Event::Fill {
                    index: f.index,
                    level: f.level,
                    set: f.set,
                    entry: f.entry,
                    pack: f.pack,
                });
            }
            for co in c.drain_coalesces() {
                obs.emit(Event::Coalesce {
                    index: co.index,
                    level: co.level,
                    set: co.set,
                    entry: co.entry,
                });
            }
            for e in c.drain_evictions() {
                obs.emit(Event::Evict {
                    index: e.index,
                    level: e.level,
                    set: e.set,
                    reason: e.reason,
                    entry: e.entry,
                    lo: e.lo,
                    hi: e.hi,
                    for_entry: e.for_entry,
                });
            }
        }
        cost.stats().inserts += 1;
        cost.admitted();
        src.admitted(id, held)
    }
}

/// Applies `req`'s write op after its walk resolved `leaf`: an `Update`
/// writes the located record back; an insert or delete mutates the tree,
/// writes back every node it dirtied and — when `metal` is given — kills
/// or shrinks every cached tag a stale span could route wrongly, in every
/// cache slice. Returns the report of a mutation that changed the tree.
pub fn write<S: NodeSource, C: CostSink>(
    mut metal: Option<&mut MetalState>,
    src: &mut S,
    cost: &mut C,
    obs: Obs<'_>,
    req: &WalkRequest,
    leaf: Descend,
) -> Result<Option<MutationReport>, S::Error> {
    cost.stats().write_walks += 1;
    let Some(report) = src.mutate(req)? else {
        return Ok(None);
    };
    if req.op == OpKind::Update {
        // The record's address is in the leaf the request's own walk
        // resolved, with no write since: no second root-to-leaf walk.
        debug_assert_eq!(
            leaf,
            src.path_from(src.root(), req.key, id_info)?.1,
            "an update's walk resolved a different leaf than a root walk"
        );
        if let Some((addr, bytes)) = record(&leaf) {
            cost.written(addr, bytes);
        }
        return Ok(None);
    }
    if !report.applied {
        return Ok(None);
    }
    let stats = cost.stats();
    stats.node_splits += report.splits as u64;
    stats.node_merges += (report.merges + report.rebalances) as u64;
    for &(addr, bytes) in &report.writes {
        cost.written(addr, bytes);
    }
    if let Some(m) = metal.as_deref_mut() {
        let kills =
            |m: &MetalState| -> u64 { m.caches.iter().map(|c| c.stats().invalidation_kills).sum() };
        let before = kills(m);
        for span in &report.stale {
            for c in &mut m.caches {
                c.invalidate_range(req.index, Some(span.level), KeyRange::new(span.lo, span.hi));
            }
        }
        cost.stats().entries_invalidated += kills(m) - before;
    }
    if obs.on() {
        for span in &report.stale {
            obs.emit(Event::Split {
                index: req.index,
                level: span.level,
                lo: span.lo,
                hi: span.hi,
                op: span.op,
            });
        }
        for c in metal.into_iter().flat_map(|m| &mut m.caches) {
            for r in c.drain_invalidations() {
                obs.emit(Event::Invalidate {
                    index: r.index,
                    level: r.level,
                    set: r.set,
                    entry: r.entry,
                    lo: r.lo,
                    hi: r.hi,
                    killed: r.killed,
                });
            }
        }
    }
    Ok(Some(report))
}
