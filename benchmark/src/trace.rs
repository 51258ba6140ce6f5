//! Spans recorded from outside the program, and the traced *layer walk*.
//!
//! The crates under test carry no spans yet (ROADMAP item 5), so the
//! benchmark drives one walk itself over their public functions —
//! IX-cache probe, paged-tree node reads, descents, cache inserts,
//! mutations, invalidation — and records a span around each call. Spans
//! stay in memory and are written once, at exit, in Chrome
//! `trace_event` form.

use crate::e2e::Bench;
use crate::spec;
use metal_core::ixcache::{IxCache, IxConfig};
use metal_core::native::{materialize_tree, PagedTree};
use metal_core::range::KeyRange;
use metal_core::request::OpKind;
use metal_index::walk::{Descend, WalkIndex};
use metal_index::NodeId;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a span that has none.
pub const ROOT: u32 = 0;

/// Walks between hot-map collections, as in the native executor.
const HOT_GC_WALKS: usize = 1024;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based; `parent == ROOT` marks a top-level span.
    pub id: u32,
    pub parent: u32,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `hot` / `staged` / `cold` on `read_node` spans, else empty.
    pub tag: &'static str,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store. Switched off it reads no clock and stores
/// nothing, which is what the overhead measurement compares against.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id (`ROOT` when switched off).
    pub fn open(&mut self, name: impl Into<Cow<'static, str>>, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            tag: "",
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.close_tagged(id, "");
    }

    pub fn close_tagged(&mut self, id: u32, tag: &'static str) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.tag = tag;
    }

    /// Drops every span opened after the first `keep`.
    pub fn truncate(&mut self, keep: usize) {
        self.spans.truncate(keep);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Time attributed to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part covered by child spans.
    pub self_ns: u64,
}

/// Per-name self time (span − children). `Err` if some span's children
/// add up to more than the span itself, or a span names a missing
/// parent — either means the recorder is broken.
pub fn self_times(spans: &[Span]) -> Result<BTreeMap<&str, SelfTime>, String> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        if s.parent as usize > spans.len() || s.parent == s.id {
            return Err(format!("span {} has no parent {}", s.id, s.parent));
        }
        child_ns[s.parent as usize] += s.dur_ns();
    }
    let mut out: BTreeMap<&str, SelfTime> = BTreeMap::new();
    for s in spans {
        let children = child_ns[s.id as usize];
        if children > s.dur_ns() {
            return Err(format!(
                "span {} ({}) lasts {} ns but its children sum to {children} ns",
                s.id,
                s.name,
                s.dur_ns()
            ));
        }
        let e = out.entry(s.name.as_ref()).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns() - children;
    }
    Ok(out)
}

/// Number of `read_node` spans per tag, and the untagged remainder.
pub fn read_tags(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut tags = BTreeMap::new();
    let mut untagged = 0;
    for s in spans.iter().filter(|s| s.name == READ_NODE) {
        if s.tag.is_empty() {
            untagged += 1;
        } else {
            *tags.entry(s.tag).or_insert(0) += 1;
        }
    }
    (tags, untagged)
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Writes `spans` as a Chrome `trace_event` document (`ts`/`dur` in µs,
/// exact nanoseconds and the span tree in `args`).
pub fn write_chrome(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write!(
            w,
            "\n{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\
             \"workload\":\"{workload}\",\"start_ns\":{},\"end_ns\":{},\"tag\":\"{}\"}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns,
            s.tag
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

pub const WALK: &str = "walk";
pub const PROBE: &str = "core.ixcache.probe";
pub const INSERT: &str = "core.ixcache.insert";
pub const INVALIDATE: &str = "core.ixcache.invalidate_range";
pub const READ_NODE: &str = "core.native.tree.read_node";
pub const DESCEND: &str = "core.native.tree.descend_in";
pub const INFO_OF: &str = "core.native.tree.info_of";
pub const ADMIT_HOT: &str = "core.native.tree.admit_hot";
pub const RETAIN_HOT: &str = "core.native.tree.retain_hot";
pub const INSERT_KEY: &str = "core.native.tree.insert_key";
pub const DELETE_KEY: &str = "core.native.tree.delete_key";
pub const MATERIALIZE: &str = "core.native.tree.materialize";

/// What one layer walk saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkResult {
    pub walks: u64,
    /// Wall time of the request loop (materialisation excluded).
    pub elapsed_s: f64,
    /// Walks whose found/not-found differed from the in-memory tree.
    pub mismatches: u64,
}

/// Replays the first `n` requests through the layers by hand, in the
/// `metal-ix` order (probe → start at the hit node or the root → per
/// level read, descend, info, insert + admit → writes and their
/// invalidations), checking each outcome against the in-memory tree.
/// Fresh cache and fresh trees every call, so calls are comparable.
pub fn layer_walk(bench: &Bench, n: usize, rec: &mut Recorder, parent: u32) -> WalkResult {
    let mut reference = bench.tree().clone();
    let sp = rec.open(MATERIALIZE, parent);
    let mut tree: PagedTree =
        materialize_tree(&reference).expect("materialize the layer-walk tree");
    rec.close(sp);
    let mut cache = IxCache::new(IxConfig::with_capacity_bytes(spec::CACHE_BYTES));
    let requests = &bench.built.requests[..n.min(bench.built.requests.len())];

    let mut mismatches = 0;
    let started = Instant::now();
    for (i, req) in requests.iter().enumerate() {
        let walk = rec.open(WALK, parent);

        let sp = rec.open(PROBE, walk);
        let hit = cache.probe(req.index, req.key);
        rec.close(sp);

        let mut id: NodeId = hit.map_or(tree.root(), |h| h.node);
        let mut admit = hit.is_none();
        let found = loop {
            let before = rec.on().then(|| tree.io_stats());
            let sp = rec.open(READ_NODE, walk);
            let node = tree.read_node(id).expect("layer walk: read_node");
            let tag = before.map_or("", |b| {
                let a = tree.io_stats();
                if a.cold_reads > b.cold_reads {
                    "cold"
                } else if a.staged_hits > b.staged_hits {
                    "staged"
                } else {
                    "hot"
                }
            });
            rec.close_tagged(sp, tag);

            let sp = rec.open(DESCEND, walk);
            let next = tree.descend_in(&node, req.key);
            rec.close(sp);

            if admit {
                let sp = rec.open(INFO_OF, walk);
                let info = tree.info_of(id, &node);
                rec.close(sp);
                let sp = rec.open(INSERT, walk);
                cache.insert(
                    req.index,
                    id,
                    KeyRange::new(info.lo, info.hi),
                    info.level,
                    info.bytes,
                    0,
                );
                rec.close(sp);
                let sp = rec.open(ADMIT_HOT, walk);
                tree.admit_hot(id).expect("layer walk: admit_hot");
                rec.close(sp);
            }
            // Only the hit node itself is already cached.
            admit = true;
            match next {
                Descend::Child(c) => id = c,
                Descend::Leaf { found, .. } => break found,
            }
        };
        if found != reference.contains(req.key) {
            mismatches += 1;
        }

        let report = match req.op {
            OpKind::Insert => {
                let sp = rec.open(INSERT_KEY, walk);
                let r = tree.insert_key(req.key).expect("layer walk: insert_key");
                rec.close(sp);
                reference.insert_key(req.key);
                Some(r)
            }
            OpKind::Delete => {
                let sp = rec.open(DELETE_KEY, walk);
                let r = tree.delete_key(req.key).expect("layer walk: delete_key");
                rec.close(sp);
                reference.delete_key(req.key);
                Some(r)
            }
            OpKind::Select | OpKind::Update => None,
        };
        if let Some(report) = report.filter(|r| r.applied) {
            let sp = rec.open(INVALIDATE, walk);
            for stale in &report.stale {
                cache.invalidate_range(
                    req.index,
                    Some(stale.level),
                    KeyRange::new(stale.lo, stale.hi),
                );
            }
            rec.close(sp);
        }
        rec.close(walk);

        if (i + 1) % HOT_GC_WALKS == 0 {
            let sp = rec.open(RETAIN_HOT, parent);
            let keep: HashSet<NodeId> = cache
                .snapshot()
                .iter()
                .flat_map(|e| e.segs.iter().map(|&(_, node)| node))
                .collect();
            tree.retain_hot(|id| keep.contains(&id));
            rec.close(sp);
        }
    }
    WalkResult {
        walks: requests.len() as u64,
        elapsed_s: started.elapsed().as_secs_f64(),
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            tag: "",
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(1, ROOT, "workload", 0, 100),
            span(2, 1, "walk", 10, 60),
            span(3, 2, "probe", 10, 20),
            span(4, 2, "read", 25, 55),
            span(5, 1, "walk", 60, 90),
        ];
        let st = self_times(&spans).unwrap();
        assert_eq!(st["workload"].self_ns, 100 - 50 - 30);
        assert_eq!(
            st["walk"],
            SelfTime {
                count: 2,
                total_ns: 80,
                self_ns: 80 - 10 - 30
            }
        );
        assert_eq!(st["probe"].self_ns, 10);
        let total_self: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
    }

    #[test]
    fn children_longer_than_their_parent_are_rejected() {
        let spans = vec![span(1, ROOT, "walk", 0, 10), span(2, 1, "probe", 0, 11)];
        assert!(self_times(&spans).unwrap_err().contains("children sum"));
        let orphan = vec![span(1, 9, "walk", 0, 10)];
        assert!(self_times(&orphan).unwrap_err().contains("no parent"));
    }

    #[test]
    fn recorder_off_stores_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.open(WALK, ROOT);
        rec.close(id);
        assert_eq!(id, ROOT);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn layer_walk_spans_nest_and_every_read_is_tagged() {
        let spec = workload("crud30").unwrap();
        let built = (spec.build)(spec.scale(3, true));
        let bench = Bench::new(built);
        let mut rec = Recorder::new(true);
        let top = rec.open("workload", ROOT);
        let res = layer_walk(&bench, 400, &mut rec, top);
        rec.close(top);
        assert_eq!((res.walks, res.mismatches), (400, 0));

        let st = self_times(rec.spans()).expect("children never exceed their parent");
        assert_eq!(st[WALK].count, 400);
        assert_eq!(st[PROBE].count, 400);
        assert!(st[INSERT_KEY].count > 0 && st[DELETE_KEY].count > 0);

        let (tags, untagged) = read_tags(rec.spans());
        assert_eq!(untagged, 0);
        assert_eq!(tags.values().sum::<u64>(), st[READ_NODE].count);
        assert!(tags.keys().all(|t| ["hot", "staged", "cold"].contains(t)));
        assert!(tags["cold"] > 0 && tags["hot"] > 0);

        let off = layer_walk(&bench, 400, &mut Recorder::new(false), ROOT);
        assert_eq!(off.mismatches, 0);
    }
}
