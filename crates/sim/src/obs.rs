//! Structured simulation telemetry: typed events and the sink contract.
//!
//! Every figure in the paper ultimately hinges on *why* a walk hit or
//! missed — which level short-circuited, which descriptor decision
//! inserted vs. bypassed, when the tuner moved a band edge. [`Event`] is
//! the typed vocabulary for those moments and [`EventSink`] is the
//! observer interface the simulator emits them through.
//!
//! ## Contract
//!
//! - **Observe-only.** Sinks never influence simulation: every statistic
//!   in [`crate::stats::RunStats`] must be bit-identical whether a run is
//!   traced, counted, or executed with no sink at all. The
//!   `observability` integration tests pin this ("no observer effect").
//! - **Zero-cost when disabled.** Emission sites guard on an
//!   `Option<SharedSink>`; with no sink attached the only residue is an
//!   untaken branch. [`NullSink`] additionally reports
//!   `enabled() == false`, letting hot paths skip event construction even
//!   when a sink object is installed.
//! - **Deterministic counts.** Event emission is a pure function of the
//!   simulated execution, which is itself deterministic and independent
//!   of the worker-thread count (see `metal_core::runner`). Per-shard
//!   event *streams* are deterministic; a multi-shard run merges streams
//!   in nondeterministic arrival order, but per-kind counts, per-level
//!   histograms and set tallies are order-free and therefore invariant.
//!
//! Timestamps are simulated cycles. Engine-side events (walks, DRAM)
//! carry exact event-driven times; model-side events (probes, admission,
//! eviction, tuning) are stamped with the lane's planning time — the
//! cycle at which the lane most recently became schedulable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Declares a payload tag enum from one list of (variant, name) pairs,
/// so the stable name (the JSONL field value) and its inverse cannot
/// disagree.
macro_rules! tag_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident = $tag:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every tag, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];

            /// Stable lowercase name (JSONL field value).
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $tag,)+
                }
            }

            /// The tag spelled `s`: the inverse of `as_str`.
            pub fn parse(s: &str) -> Option<$name> {
                match s {
                    $($tag => Some($name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

tag_enum! {
    /// Why an IX-cache entry was evicted.
    EvictReason {
        /// Set-associativity conflict or total entry budget exhausted.
        Capacity = "capacity",
        /// Displaced by a multi-entry insertion (a node wider than one block
        /// split into sub-range entries, Fig. 5 case 2).
        RangeSplit = "range-split",
        /// A lifetime-pinned entry whose pin was eroded to zero by sustained
        /// eviction pressure (the stale-pin escape hatch).
        Lifetime = "lifetime",
    }
}

tag_enum! {
    /// Which descriptor arm decided an insert/bypass.
    AdmitReason {
        /// Greedy `Descriptor::All` (METAL-IX's hardwired behaviour).
        All = "all",
        /// `Descriptor::None` (pure-bypass ablation).
        None = "none",
        /// Node pattern: level match (or mismatch, for a bypass).
        NodeLevel = "node-level",
        /// Level pattern: inside (or outside) the cached band.
        LevelBand = "level-band",
        /// Branch pattern: overlapping (or missing) the pivot window.
        BranchWindow = "branch-window",
        /// `Descriptor::Or` where both arms bypassed (an admitting arm
        /// reports its own reason instead).
        Composite = "composite",
    }
}

tag_enum! {
    /// Which descriptor parameter a tuner decision moved.
    TunedParam {
        /// Level band's deep edge (`lower`).
        BandLower = "band-lower",
        /// Level band's shallow edge (`upper`).
        BandUpper = "band-upper",
        /// Branch pivot key.
        Pivot = "pivot",
        /// Branch window half-width.
        Halfwidth = "halfwidth",
        /// Branch depth bound.
        Depth = "depth",
        /// Node pattern's target level.
        NodeLevel = "node-level",
    }
}

tag_enum! {
    /// How an admitted node was physically packed into IX-cache entries.
    PackMode {
        /// The node fit one entry exactly (≤ one key block).
        Exact = "exact",
        /// A wide node split into `ceil(bytes/64)` sub-range entries
        /// (Fig. 5 case 2).
        Split = "split",
        /// Same-level siblings coalesced into one shared entry.
        Coalesced = "coalesced",
    }
}

tag_enum! {
    /// Which structural index mutation triggered a range invalidation.
    MutKind {
        /// A node overflowed and split into two siblings.
        Split = "split",
        /// An underflowing node was folded into a sibling.
        Merge = "merge",
        /// Keys/children moved between siblings (borrow).
        Rebalance = "rebalance",
    }
}

/// Sentinel set id for entries living in the fully-associative wide
/// partition (which has no set index).
pub const WIDE_SET: u32 = u32::MAX;

/// Sentinel entry id meaning "no entry" (a probe miss, or an eviction
/// that made room without a specific incoming entry). Real entry ids
/// are ≥ 1 and unique within one `IxCache` lifetime.
pub const NO_ENTRY: u64 = 0;

/// One telemetry event. All payloads are plain integers so events are
/// `Copy` and serialization needs no lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A lane began a walk (engine-side; `walk` is the per-shard
    /// sequence number in issue order).
    WalkStart {
        /// Per-shard walk sequence number.
        walk: u64,
        /// Lane the walk runs on.
        lane: u32,
    },
    /// A walk completed (engine-side).
    WalkEnd {
        /// Per-shard walk sequence number.
        walk: u64,
        /// Lane the walk ran on.
        lane: u32,
        /// End-to-end walk latency in cycles.
        latency: u64,
    },
    /// Cycle-accounting breakdown of one completed walk (engine-side,
    /// emitted immediately before the matching [`Event::WalkEnd`]).
    /// The components partition the walk's latency exactly:
    /// `ix_probe + compute + queue + stall + hidden == latency`.
    WalkBreakdown {
        /// Per-shard walk sequence number.
        walk: u64,
        /// Lane the walk ran on.
        lane: u32,
        /// Cycles spent accessing the cache SRAM (probe latency).
        ix_probe: u64,
        /// Cycles of walker compute (node scan, tag match).
        compute: u64,
        /// Cycles queued for the walker FSM or an SRAM port.
        queue: u64,
        /// DRAM fetch stall cycles left exposed on the critical path.
        stall: u64,
        /// DRAM wait cycles hidden under sibling compute in the lane's
        /// MLP window (always 0 at `mlp_width == 1`).
        hidden: u64,
        /// End-to-end walk latency (the components' exact sum).
        latency: u64,
    },
    /// A DRAM fetch was issued (engine-side; `done` is its completion
    /// time, so `done - at` includes queueing and bandwidth effects).
    DramFetch {
        /// Lane that issued the fetch.
        lane: u32,
        /// Physical byte address.
        addr: u64,
        /// Transfer size in bytes.
        bytes: u64,
        /// Completion cycle.
        done: u64,
    },
    /// An IX-cache probe (model-side). `scan` distinguishes the leaf-chain
    /// probes of a range scan from the walk's kick-start probe; per-level
    /// hit statistics (`RunStats::hit_levels`) count only the latter.
    IxProbe {
        /// Index the probe targets.
        index: u8,
        /// Probed key.
        key: u64,
        /// Whether any covering entry matched.
        hit: bool,
        /// Level of the matched entry (0 when `hit` is false).
        level: u8,
        /// Walk levels skipped thanks to the hit (0 on a miss).
        short_circuit: u8,
        /// Narrow-partition set the probe selected.
        set: u32,
        /// True for range-scan leaf probes.
        scan: bool,
        /// Stable id of the matched entry ([`NO_ENTRY`] on a miss).
        entry: u64,
    },
    /// The descriptor admitted a walked node into the IX-cache.
    Insert {
        /// Index the node belongs to.
        index: u8,
        /// Node level (leaf = 0).
        level: u8,
        /// Placement set ([`WIDE_SET`] for the wide partition).
        set: u32,
        /// Pin lifetime granted (0 = unpinned).
        life: u32,
        /// Which descriptor arm admitted it.
        reason: AdmitReason,
    },
    /// The descriptor bypassed a walked node.
    Bypass {
        /// Index the node belongs to.
        index: u8,
        /// Node level (leaf = 0).
        level: u8,
        /// Which descriptor arm rejected it.
        reason: AdmitReason,
    },
    /// The IX-cache physically created an entry (after dedup/coalescing;
    /// a multi-block insert fills several entries).
    Fill {
        /// Index the entry belongs to.
        index: u8,
        /// Entry level.
        level: u8,
        /// Placement set ([`WIDE_SET`] for the wide partition).
        set: u32,
        /// Stable id of the created entry.
        entry: u64,
        /// How the admitted node was packed into this entry.
        pack: PackMode,
    },
    /// An admitted node was folded into an existing same-level sibling
    /// entry instead of creating a new one (pack-mode upgrade: the
    /// referenced entry is now [`PackMode::Coalesced`]).
    Coalesce {
        /// Index the entry belongs to.
        index: u8,
        /// Entry level.
        level: u8,
        /// Placement set of the absorbing entry.
        set: u32,
        /// Stable id of the absorbing entry.
        entry: u64,
    },
    /// The IX-cache evicted an entry.
    Evict {
        /// Index the entry belonged to.
        index: u8,
        /// Entry level.
        level: u8,
        /// Set it was evicted from ([`WIDE_SET`] for wide).
        set: u32,
        /// Why it was chosen.
        reason: EvictReason,
        /// Stable id of the evicted entry.
        entry: u64,
        /// Low key of the victim's span (regret re-reference window).
        lo: u64,
        /// High key of the victim's span (inclusive).
        hi: u64,
        /// Id of the incoming entry the eviction made room for
        /// ([`NO_ENTRY`] when not attributable to one insertion).
        for_entry: u64,
    },
    /// A structural index mutation (node split/merge/rebalance) whose
    /// pre-mutation key span must no longer serve cached short-circuits.
    Split {
        /// Index that mutated.
        index: u8,
        /// Level of the restructured node (leaf = 0).
        level: u8,
        /// Low key of the stale span (the node's pre-mutation span, or
        /// the union span for merges/rebalances).
        lo: u64,
        /// High key of the stale span (inclusive).
        hi: u64,
        /// Which structural mutation produced the span.
        op: MutKind,
    },
    /// The IX-cache invalidated an entry's overlap with a stale range
    /// (coherence response to [`Event::Split`], or a key deletion).
    Invalidate {
        /// Index the entry belongs to.
        index: u8,
        /// Entry level.
        level: u8,
        /// Set it lives in ([`WIDE_SET`] for wide).
        set: u32,
        /// Stable id of the affected entry.
        entry: u64,
        /// Low key of the entry's span before invalidation.
        lo: u64,
        /// High key of the entry's span before invalidation.
        hi: u64,
        /// True when every segment overlapped and the entry was removed;
        /// false for a partial invalidation that shrank the entry.
        killed: bool,
    },
    /// The per-batch tuner moved one descriptor parameter.
    TunerDecision {
        /// Index whose descriptor was retuned.
        index: u8,
        /// Completed-batch number (1-based).
        batch: u64,
        /// Which parameter moved.
        param: TunedParam,
        /// Old value.
        from: u64,
        /// New value.
        to: u64,
    },
}

impl Event {
    /// Stable lowercase kind tag (JSONL `ev` field, counter key).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::WalkStart { .. } => "walk_start",
            Event::WalkEnd { .. } => "walk_end",
            Event::WalkBreakdown { .. } => "walk_breakdown",
            Event::DramFetch { .. } => "dram_fetch",
            Event::IxProbe { .. } => "ix_probe",
            Event::Insert { .. } => "insert",
            Event::Bypass { .. } => "bypass",
            Event::Fill { .. } => "fill",
            Event::Coalesce { .. } => "coalesce",
            Event::Evict { .. } => "evict",
            Event::Split { .. } => "split",
            Event::Invalidate { .. } => "invalidate",
            Event::TunerDecision { .. } => "tuner_decision",
        }
    }
}

/// Observer interface for simulation telemetry.
///
/// Implementations must be observe-only (no feedback into simulation
/// state) and should be cheap: emission happens inside the simulator's
/// hot loop whenever a sink is attached.
pub trait EventSink {
    /// Whether the sink wants events at all. Emission sites may skip
    /// event construction entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event stamped at simulated cycle `at`.
    fn emit(&mut self, at: u64, ev: &Event);

    /// Flushes buffered output (end of a shard/run).
    fn flush(&mut self) {}
}

/// A sink that drops everything and reports itself disabled. A run with a
/// `NullSink` attached must be bit-identical to a run with no sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _at: u64, _ev: &Event) {}
}

/// Buffers every event in memory (tests, trace inspection).
#[derive(Debug, Default)]
pub struct VecSink {
    /// The recorded `(at, event)` stream, in emission order.
    pub events: Vec<(u64, Event)>,
}

impl EventSink for VecSink {
    fn emit(&mut self, at: u64, ev: &Event) {
        self.events.push((at, *ev));
    }
}

/// Counts events per kind without storing them (cheap invariance checks).
#[derive(Debug, Default)]
pub struct CountingSink {
    counts: BTreeMap<&'static str, u64>,
}

impl CountingSink {
    /// Creates an empty counter.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Count for one kind tag (0 when never seen).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// All per-kind counts, ordered by kind tag.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Total events observed.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

impl EventSink for CountingSink {
    fn emit(&mut self, _at: u64, ev: &Event) {
        *self.counts.entry(ev.kind()).or_insert(0) += 1;
    }
}

/// Fans one event stream out to several sinks.
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Box<dyn EventSink>>,
}

impl MultiSink {
    /// Creates a fan-out over `sinks`.
    pub fn new(sinks: Vec<Box<dyn EventSink>>) -> Self {
        MultiSink { sinks }
    }
}

impl EventSink for MultiSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn emit(&mut self, at: u64, ev: &Event) {
        for s in &mut self.sinks {
            if s.enabled() {
                s.emit(at, ev);
            }
        }
    }

    fn flush(&mut self) {
        for s in &mut self.sinks {
            s.flush();
        }
    }
}

/// Shared handle through which the engine and the walk model emit into
/// the same sink. Sinks live on the simulating thread (each logical shard
/// constructs its own), so single-threaded `Rc<RefCell<…>>` sharing is
/// sufficient and cheap.
pub type SharedSink = Rc<RefCell<dyn EventSink>>;

/// Wraps a sink into a [`SharedSink`] handle.
pub fn shared<S: EventSink + 'static>(sink: S) -> SharedSink {
    Rc::new(RefCell::new(sink))
}

/// Emits `ev` into an optional shared sink, skipping construction-side
/// work when no sink is attached or the sink is disabled.
#[inline]
pub fn emit_to(sink: &Option<SharedSink>, at: u64, ev: &Event) {
    if let Some(s) = sink {
        let mut s = s.borrow_mut();
        if s.enabled() {
            s.emit(at, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::default();
        s.emit(1, &Event::WalkStart { walk: 0, lane: 0 });
        s.emit(
            5,
            &Event::WalkEnd {
                walk: 0,
                lane: 0,
                latency: 4,
            },
        );
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].0, 1);
        assert_eq!(s.events[1].1.kind(), "walk_end");
    }

    #[test]
    fn counting_sink_counts_by_kind() {
        let mut s = CountingSink::new();
        for _ in 0..3 {
            s.emit(0, &Event::WalkStart { walk: 0, lane: 0 });
        }
        s.emit(
            0,
            &Event::Evict {
                index: 0,
                level: 1,
                set: 3,
                reason: EvictReason::Capacity,
                entry: 7,
                lo: 0,
                hi: 63,
                for_entry: 8,
            },
        );
        assert_eq!(s.count("walk_start"), 3);
        assert_eq!(s.count("evict"), 1);
        assert_eq!(s.count("ix_probe"), 0);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn multi_sink_fans_out_to_enabled_only() {
        struct Probe(Rc<RefCell<u64>>);
        impl EventSink for Probe {
            fn emit(&mut self, _at: u64, _ev: &Event) {
                *self.0.borrow_mut() += 1;
            }
        }
        let n = Rc::new(RefCell::new(0));
        let mut m = MultiSink::new(vec![Box::new(NullSink), Box::new(Probe(n.clone()))]);
        assert!(m.enabled());
        m.emit(0, &Event::WalkStart { walk: 0, lane: 0 });
        assert_eq!(*n.borrow(), 1);
    }

    #[test]
    fn emit_to_skips_disabled_sinks() {
        let sink: Option<SharedSink> = Some(shared(NullSink));
        // Must not panic and must not deliver.
        emit_to(&sink, 0, &Event::WalkStart { walk: 0, lane: 0 });
        let none: Option<SharedSink> = None;
        emit_to(&none, 0, &Event::WalkStart { walk: 0, lane: 0 });
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(EvictReason::RangeSplit.as_str(), "range-split");
        assert_eq!(AdmitReason::LevelBand.as_str(), "level-band");
        assert_eq!(TunedParam::BandUpper.as_str(), "band-upper");
        assert_eq!(PackMode::Coalesced.as_str(), "coalesced");
    }

    #[test]
    fn mutation_kinds_are_stable() {
        assert_eq!(MutKind::Split.as_str(), "split");
        assert_eq!(MutKind::Merge.as_str(), "merge");
        assert_eq!(MutKind::Rebalance.as_str(), "rebalance");
        let ev = Event::Split {
            index: 0,
            level: 1,
            lo: 10,
            hi: 90,
            op: MutKind::Split,
        };
        assert_eq!(ev.kind(), "split");
        let ev = Event::Invalidate {
            index: 0,
            level: 0,
            set: WIDE_SET,
            entry: 3,
            lo: 10,
            hi: 90,
            killed: true,
        };
        assert_eq!(ev.kind(), "invalidate");
    }

    #[test]
    fn coalesce_kind_is_stable() {
        let ev = Event::Coalesce {
            index: 1,
            level: 2,
            set: 5,
            entry: 9,
        };
        assert_eq!(ev.kind(), "coalesce");
    }
}
