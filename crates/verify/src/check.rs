//! Differential and metamorphic checks against the reference oracles.
//!
//! [`run_scenario`] is the core gate: it drives an [`IxCache`] through
//! a [`Scenario`] while predicting every probe with [`spec_probe`]
//! (residency snapshot, all regimes) and — in ample-capacity scenarios
//! — with the [`HistoryOracle`] (retention: nothing may be spuriously
//! dropped). Structural invariants (occupancy bound, segment
//! justification, counter coherence, and at the end of the run the
//! cache's own [`IxCache::check_invariants`]) run alongside.
//! Everything returns a [`Divergence`] naming the first failing op so
//! the shrinker can minimize on "still fails".

use crate::oracle::{spec_probe, HistoryOracle};
use crate::scenario::{Op, Scenario, ALL_LEVELS};
use metal_core::range::KeyRange;
use metal_core::{IxCache, IxHit};

/// A reproducible disagreement between the cache and the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the op that exposed it (`ops.len()` for end-of-run
    /// counter checks).
    pub op: usize,
    /// Human-readable description of expected vs actual.
    pub what: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op {}: {}", self.op, self.what)
    }
}

/// The one way a check reports its first divergence.
pub(crate) fn fail<T>(op: usize, what: impl Into<String>) -> Result<T, Divergence> {
    Err(Divergence {
        op,
        what: what.into(),
    })
}

/// The API form of [`Op::Invalidate::level`]: `None` for every level.
fn level_filter(level: u8) -> Option<u8> {
    (level != ALL_LEVELS).then_some(level)
}

/// Applies one op to `cache`; a probe returns its hit.
fn apply(op: &Op, cache: &mut IxCache) -> Option<IxHit> {
    match *op {
        Op::Insert {
            index,
            node,
            lo,
            hi,
            level,
            bytes,
            life,
        } => cache.insert(index, node, KeyRange::new(lo, hi), level, bytes, life),
        Op::Probe { index, key } => return cache.probe(index, key),
        Op::Invalidate {
            index,
            level,
            lo,
            hi,
        } => cache.invalidate_range(index, level_filter(level), KeyRange::new(lo, hi)),
        Op::Flush => cache.flush(),
    }
    None
}

/// The op with every key it names moved up by `delta` (which must not
/// overflow a range bound; probe keys saturate).
fn translate(op: &Op, delta: u64) -> Op {
    let mut t = *op;
    match &mut t {
        Op::Insert { lo, hi, .. } | Op::Invalidate { lo, hi, .. } => {
            *lo += delta;
            *hi += delta;
        }
        Op::Probe { key, .. } => *key = key.saturating_add(delta),
        Op::Flush => {}
    }
    t
}

/// Runs the full differential check over one scenario.
pub fn run_scenario(s: &Scenario) -> Result<(), Divergence> {
    let mut cache = IxCache::new(s.config());
    let mut hist = HistoryOracle::new();
    let mut expected_probes = 0u64;
    let mut expected_misses = 0u64;
    let mut flushed = 0usize;

    for (i, op) in s.ops.iter().enumerate() {
        // The spec predicts a probe from the residency before it, and a
        // flush's victims are counted before they go.
        let expected = match *op {
            Op::Probe { index, key } => {
                spec_probe(&cache.snapshot(), index, key, cache.probe_set(index, key))
            }
            Op::Flush => {
                flushed += cache.occupancy();
                None
            }
            _ => None,
        };
        let actual = apply(op, &mut cache);
        match *op {
            Op::Insert {
                index,
                node,
                lo,
                hi,
                level,
                ..
            } => {
                hist.insert(index, level, KeyRange::new(lo, hi), node);
                // Every resident segment must be justified by history.
                for e in cache.snapshot() {
                    for (seg, n) in &e.segs {
                        if !hist.justifies(e.index, e.level, seg, *n) {
                            return fail(
                                i,
                                format!(
                                    "resident segment {seg:?} node {n} level {} index {} \
                                     was never inserted",
                                    e.level, e.index
                                ),
                            );
                        }
                    }
                }
            }
            Op::Probe { index, key } => {
                expected_probes += 1;
                match (&expected, &actual) {
                    (None, None) => expected_misses += 1,
                    (Some(e), Some(a)) => {
                        if (e.node, e.level, e.range) != (a.node, a.level, a.range) {
                            return fail(
                                i,
                                format!(
                                    "probe({index}, {key}): spec says node {} level {} \
                                     range {:?}, cache returned node {} level {} range {:?}",
                                    e.node, e.level, e.range, a.node, a.level, a.range
                                ),
                            );
                        }
                    }
                    (Some(e), None) => {
                        return fail(
                            i,
                            format!(
                                "probe({index}, {key}): spec says hit node {} level {}, \
                                 cache missed",
                                e.node, e.level
                            ),
                        );
                    }
                    (None, Some(a)) => {
                        return fail(
                            i,
                            format!(
                                "probe({index}, {key}): spec says miss, cache returned \
                                 node {} level {}",
                                a.node, a.level
                            ),
                        );
                    }
                }
                // Retention: with ample capacity nothing may be lost
                // except by invalidation, so every *definitely-live*
                // history entry (never overlapped by an invalidation)
                // carries a mandatory outcome; and every hit must be
                // justified by a live insert over the served tag.
                if s.ample {
                    match (hist.probe_live(index, key), &actual) {
                        (Some(h), None) => {
                            return fail(
                                i,
                                format!(
                                    "probe({index}, {key}): definitely-live level-{} \
                                     entry lost without eviction or invalidation",
                                    h.level
                                ),
                            );
                        }
                        (Some(h), Some(a)) if a.level > h.level => {
                            return fail(
                                i,
                                format!(
                                    "probe({index}, {key}): hit level {} but a \
                                     definitely-live level-{} entry covers the key",
                                    a.level, h.level
                                ),
                            );
                        }
                        _ => {}
                    }
                    if let Some(a) = &actual {
                        if !hist.justified_live(index, a.level, &a.range, a.node) {
                            return fail(
                                i,
                                format!(
                                    "probe({index}, {key}): stale hit — node {} level {} \
                                     tag {:?} was invalidated or never inserted",
                                    a.node, a.level, a.range
                                ),
                            );
                        }
                    }
                }
            }
            Op::Invalidate {
                index,
                level,
                lo,
                hi,
            } => {
                let range = KeyRange::new(lo, hi);
                let level = level_filter(level);
                hist.invalidate(index, level, range);
                // Coherence postcondition: nothing matching the filter
                // may still overlap the revoked span, and survivors
                // must keep their span/segment geometry consistent.
                for e in cache.snapshot() {
                    let level_hit = level.is_none_or(|l| l == e.level);
                    for (seg, n) in &e.segs {
                        if e.index == index && level_hit && seg.overlaps(&range) {
                            return fail(
                                i,
                                format!(
                                    "segment {seg:?} node {n} level {} index {} survived \
                                     invalidate_range({index}, {level:?}, {range:?})",
                                    e.level, e.index
                                ),
                            );
                        }
                        if !e.span.contains(seg) {
                            return fail(
                                i,
                                format!(
                                    "segment {seg:?} escapes its entry span {:?} after \
                                     partial invalidation",
                                    e.span
                                ),
                            );
                        }
                    }
                }
            }
            Op::Flush => {
                hist.flush();
                if cache.occupancy() != 0 {
                    return fail(i, "flush left residents behind");
                }
            }
        }
        if cache.occupancy() > cache.entries() {
            return fail(
                i,
                format!(
                    "occupancy {} exceeds capacity {}",
                    cache.occupancy(),
                    cache.entries()
                ),
            );
        }
    }

    // Counter coherence over the whole run.
    let st = *cache.stats();
    let end = s.ops.len();
    if st.probes != expected_probes || st.misses != expected_misses {
        return fail(
            end,
            format!(
                "stats probes/misses {}/{} but spec counted {}/{}",
                st.probes, st.misses, expected_probes, expected_misses
            ),
        );
    }
    // Every counted insert is either still resident, was evicted, was
    // dropped by a flush, or was killed by a range invalidation;
    // bypassed inserts must not be counted.
    let accounted =
        (st.evictions as usize) + flushed + cache.occupancy() + (st.invalidation_kills as usize);
    if st.inserts as usize != accounted {
        return fail(
            end,
            format!(
                "stats.inserts {} != evicted {} + flushed {flushed} + resident {} + \
                 invalidated {} (bypassed inserts must not count as insertions)",
                st.inserts,
                st.evictions,
                cache.occupancy(),
                st.invalidation_kills
            ),
        );
    }
    // A killed entry loses at least one segment, so the segment
    // counter bounds the kill counter from above.
    if st.invalidated_segs < st.invalidation_kills {
        return fail(
            end,
            format!(
                "invalidated_segs {} < invalidation_kills {}",
                st.invalidated_segs, st.invalidation_kills
            ),
        );
    }
    if s.ample && st.evictions != 0 {
        return fail(
            end,
            format!("{} evictions in an ample-capacity scenario", st.evictions),
        );
    }
    // The cache's own bookkeeping: interval overlays mirror the entry
    // storage, the occupancy count is exact, entries are conserved.
    if let Err(what) = cache.check_invariants() {
        return fail(end, what);
    }
    Ok(())
}

/// Metamorphic: translating the whole key space by `delta` must leave
/// the hit/miss/node/level sequence unchanged (ample scenarios only —
/// set indexing legitimately changes under translation, which can
/// reorder evictions in tight geometries). Range tags must translate
/// along.
pub fn check_translation(s: &Scenario, delta: u64) -> Result<(), Divergence> {
    assert!(
        s.ample,
        "translation invariance needs the no-eviction regime"
    );
    let max_key = s
        .ops
        .iter()
        .map(|op| match *op {
            Op::Insert { hi, .. } | Op::Invalidate { hi, .. } => hi,
            Op::Probe { key, .. } => key,
            Op::Flush => 0,
        })
        .max()
        .unwrap_or(0);
    let delta = delta.min(u64::MAX - max_key);

    // The hit of every probe, in op order, with keys moved by `delta`.
    let outcomes = |delta: u64| -> Vec<Option<(u32, u8, u64)>> {
        let mut cache = IxCache::new(s.config());
        s.ops
            .iter()
            .map(|op| translate(op, delta))
            .filter_map(|op| {
                let hit = apply(&op, &mut cache).map(|h| (h.node, h.level, h.range.lo));
                matches!(op, Op::Probe { .. }).then_some(hit)
            })
            .collect()
    };

    let base = outcomes(0);
    let shifted = outcomes(delta);
    for (i, (b, t)) in base.iter().zip(&shifted).enumerate() {
        let translated = b.map(|(n, l, lo)| (n, l, lo + delta));
        if translated != *t {
            return fail(
                i,
                format!(
                    "probe #{i}: outcome {translated:?} became {t:?} after translating \
                     keys by {delta}"
                ),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::gen_scenario;

    #[test]
    fn handwritten_scenario_passes() {
        let s = Scenario {
            seed: 0,
            entries: 16,
            ways: 16,
            key_block_bits: 4,
            wide_pct: 50,
            ample: true,
            ops: vec![
                Op::Probe { index: 0, key: 5 },
                Op::Insert {
                    index: 0,
                    node: 1,
                    lo: 0,
                    hi: 10,
                    level: 1,
                    bytes: 64,
                    life: 0,
                },
                Op::Probe { index: 0, key: 5 },
                Op::Probe { index: 1, key: 5 },
                Op::Flush,
                Op::Probe { index: 0, key: 5 },
            ],
        };
        run_scenario(&s).unwrap();
        check_translation(&s, 1 << 20).unwrap();
    }

    #[test]
    fn generated_scenarios_smoke() {
        for seed in 0..40 {
            let s = gen_scenario(seed, seed % 2 == 0, false);
            if let Err(d) = run_scenario(&s) {
                panic!("seed {seed}: {d}");
            }
        }
    }

    #[test]
    fn handwritten_mutation_scenario_passes() {
        let ins = |node: u32, lo: u64, hi: u64, level: u8| Op::Insert {
            index: 0,
            node,
            lo,
            hi,
            level,
            bytes: 64,
            life: 0,
        };
        let s = Scenario {
            seed: 0,
            entries: 16,
            ways: 16,
            key_block_bits: 4,
            wide_pct: 50,
            ample: true,
            ops: vec![
                ins(1, 0, 100, 0),
                ins(2, 0, 1000, 3),
                Op::Probe { index: 0, key: 50 },
                // A leaf split stales [40, 60] at level 0 only.
                Op::Invalidate {
                    index: 0,
                    level: 0,
                    lo: 40,
                    hi: 60,
                    // The level-3 ancestor must keep serving.
                },
                Op::Probe { index: 0, key: 50 },
                // Re-admission of the split leaf revives the fast path.
                ins(3, 0, 49, 0),
                Op::Probe { index: 0, key: 20 },
                // An all-level wipe empties the span entirely.
                Op::Invalidate {
                    index: 0,
                    level: ALL_LEVELS,
                    lo: 0,
                    hi: 1000,
                },
                Op::Probe { index: 0, key: 20 },
            ],
        };
        run_scenario(&s).unwrap();
        check_translation(&s, 1 << 20).unwrap();
    }

    #[test]
    fn generated_crud_scenarios_smoke() {
        for seed in 0..40 {
            let s = gen_scenario(seed, seed % 2 == 0, true);
            if let Err(d) = run_scenario(&s) {
                panic!("seed {seed}: {d}");
            }
        }
    }
}
