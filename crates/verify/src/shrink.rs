//! Case shrinking: reduce a failing case to a short, readable repro.
//!
//! Classic delta-debugging over the case's item list (drop
//! exponentially smaller chunks while the case still fails), followed
//! by value-level simplification (geometry moves, then simpler
//! variants of each item). Every candidate is re-run under the same
//! predicate, so the output is guaranteed to still diverge; a bounded
//! pass count keeps worst-case time predictable. One shrinker serves
//! every corpus kind through [`Case`].

use crate::check::Divergence;
use metal_obs::Json;

/// A corpus case kind: the item list and edits the shrinker works
/// with, the full differential check it must keep failing, and the
/// JSON the repro bank writes and the corpus replay reads.
pub trait Case: Clone + PartialEq + 'static {
    /// One element of the case's item list (an op, a request).
    type Item: Copy + PartialEq;
    /// The corpus `kind` tag, also the repro file name's prefix.
    const KIND: &'static str;
    /// The item list's name (its JSON field, its noun in reports).
    const ITEMS: &'static str;
    /// Geometry simplifications, tried in this order every round.
    const MOVES: &'static [fn(&mut Self)];
    /// The item list ddmin removes chunks from.
    fn items(&self) -> &[Self::Item];
    /// Mutable access to the item list.
    fn items_mut(&mut self) -> &mut Vec<Self::Item>;
    /// Simpler variants of one item, tried in this order.
    fn simpler(item: &Self::Item) -> Vec<Self::Item>;
    /// Re-establishes the invariants a candidate must keep for the
    /// checks to stay sound after any edit.
    fn normalize(&mut self) {}
    /// Every check this kind of case must pass.
    fn check(&self) -> Result<(), Divergence>;
    /// Serializes to the corpus JSON schema (`kind: KIND`).
    fn to_json(&self) -> Json;
    /// Parses the corpus JSON schema. Returns `None` on any shape
    /// mismatch (corpus files are hand-editable; a replay must fail
    /// loudly rather than silently skip a malformed repro).
    fn from_json(j: &Json) -> Option<Self>;
}

/// Returns the smallest still-failing case `fails` accepts, starting
/// from `case` (which must fail).
pub fn shrink<C: Case>(case: &C, fails: impl Fn(&C) -> bool) -> C {
    debug_assert!(fails(case), "shrink needs a failing input");
    let mut best = case.clone();

    // Pass 1: ddmin over items — remove chunks, halving the granularity.
    let mut chunk = best.items().len().div_ceil(2).max(1);
    while chunk >= 1 {
        let mut removed_any = false;
        let mut start = 0;
        while start < best.items().len() {
            let mut candidate = best.clone();
            let end = (start + chunk).min(candidate.items().len());
            candidate.items_mut().drain(start..end);
            candidate.normalize();
            if !candidate.items().is_empty() && fails(&candidate) {
                best = candidate;
                removed_any = true;
                // Same `start` now points at fresh items.
            } else {
                start += chunk;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        if !removed_any {
            chunk /= 2;
        }
    }

    // Pass 2: value simplification, to fixpoint (bounded).
    for _ in 0..8 {
        let mut progressed = false;
        for f in C::MOVES {
            let mut candidate = best.clone();
            f(&mut candidate);
            candidate.normalize();
            if candidate != best && fails(&candidate) {
                best = candidate;
                progressed = true;
            }
        }
        // Items: simplify one field at a time.
        for i in 0..best.items().len() {
            for v in C::simpler(&best.items()[i]) {
                if v == best.items()[i] {
                    continue;
                }
                let mut candidate = best.clone();
                candidate.items_mut()[i] = v;
                candidate.normalize();
                if fails(&candidate) {
                    best = candidate;
                    progressed = true;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{gen_scenario, Op, Scenario};

    #[test]
    fn shrinks_to_single_triggering_op() {
        // Predicate: "contains an insert with bytes > 500" — a stand-in
        // for a real divergence tied to one op.
        let fails = |s: &Scenario| {
            s.ops
                .iter()
                .any(|op| matches!(op, Op::Insert { bytes, .. } if *bytes > 500))
        };
        for seed in 0..200 {
            let s = gen_scenario(seed, false, false);
            if !fails(&s) {
                continue;
            }
            let small = shrink(&s, fails);
            assert_eq!(small.ops.len(), 1, "seed {seed}: {:?}", small.ops);
            assert!(fails(&small));
            return; // one generated witness is enough
        }
        panic!("no generated scenario contained a large insert");
    }

    #[test]
    fn shrink_preserves_failure() {
        let fails = |s: &Scenario| {
            s.ops
                .iter()
                .filter(|o| matches!(o, Op::Probe { .. }))
                .count()
                >= 3
        };
        for seed in 0..50 {
            let s = gen_scenario(seed, true, false);
            if fails(&s) {
                let small = shrink(&s, fails);
                assert!(fails(&small));
                assert!(small.ops.len() <= s.ops.len());
                return;
            }
        }
        panic!("no witness");
    }
}
