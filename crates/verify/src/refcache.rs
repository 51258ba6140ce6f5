//! Reference models of the baseline caches, plus their differential
//! and Belady-sanity checks.
//!
//! Each reference is an independent, obviously-correct re-derivation of
//! the baseline's spec (linear scans, explicit timestamps — no shared
//! code with `metal-sim`): a set-associative LRU for `AddressCache` and
//! `KeyCache`, and a fully-associative LRU that upper-bounds
//! `OptCache`'s misses (Belady is optimal, so OPT below LRU is a hard
//! oracle, as is capacity monotonicity).

use crate::check::{fail, Divergence};
use metal_sim::caches::{AddressCache, KeyCache, OptCache};
use metal_sim::rng::SplitRng;
use metal_sim::types::BlockAddr;

/// Reference set-associative LRU: `sets × ways` with per-line last-use
/// timestamps, set selected by `tag % sets` (the baselines' low-bits
/// rule). Works for both the address cache (tag = block) and the
/// X-Cache (tag = key).
pub struct RefSetLru {
    sets: Vec<Vec<(u64, u64)>>,
    ways: usize,
    tick: u64,
}

impl RefSetLru {
    /// `entries` total lines, `ways` associativity (must divide).
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries.is_multiple_of(ways));
        RefSetLru {
            sets: vec![Vec::new(); entries / ways],
            ways,
            tick: 0,
        }
    }

    /// Probe-with-allocate-on-miss (the address cache's `access`).
    pub fn access(&mut self, tag: u64) -> bool {
        self.probe(tag) || {
            self.insert(tag);
            false
        }
    }

    /// Probe without allocation (the X-Cache's `probe`).
    pub fn probe(&mut self, tag: u64) -> bool {
        self.tick += 1;
        let n_sets = self.sets.len();
        let set = &mut self.sets[(tag as usize) % n_sets];
        if let Some(line) = set.iter_mut().find(|(t, _)| *t == tag) {
            line.1 = self.tick;
            return true;
        }
        false
    }

    /// Explicit insert (the X-Cache's allocate path; replaces in place
    /// on a duplicate tag).
    pub fn insert(&mut self, tag: u64) {
        self.tick += 1;
        let ways = self.ways;
        let n_sets = self.sets.len();
        let set = &mut self.sets[(tag as usize) % n_sets];
        if let Some(line) = set.iter_mut().find(|(t, _)| *t == tag) {
            line.1 = self.tick;
            return;
        }
        if set.len() >= ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(i, _)| i)
                .unwrap();
            set.remove(victim);
        }
        set.push((tag, self.tick));
    }
}

/// Differential: `AddressCache` vs the reference set-LRU, access by
/// access, plus final counter coherence.
pub fn check_address_differential(
    trace: &[u64],
    entries: usize,
    ways: usize,
) -> Result<(), Divergence> {
    let mut real = AddressCache::new(entries, ways);
    let mut reference = RefSetLru::new(entries, ways);
    let mut misses = 0u64;
    for (i, &b) in trace.iter().enumerate() {
        let r = real.access(BlockAddr::new(b));
        let e = reference.access(b);
        if r != e {
            return fail(
                i,
                format!("address access({b}): reference says hit={e}, cache says hit={r}"),
            );
        }
        misses += (!e) as u64;
    }
    if real.probes() != trace.len() as u64 || real.misses() != misses {
        return fail(
            trace.len(),
            format!(
                "address counters probes/misses {}/{} vs reference {}/{misses}",
                real.probes(),
                real.misses(),
                trace.len()
            ),
        );
    }
    Ok(())
}

/// Differential: `KeyCache` probe/insert mix vs the reference set-LRU.
/// `ops` alternate probes and allocate-on-miss inserts exactly as the
/// X-Cache design model drives it.
pub fn check_keycache_differential(
    keys: &[u64],
    entries: usize,
    ways: usize,
) -> Result<(), Divergence> {
    let mut real = KeyCache::new(entries, ways);
    let mut reference = RefSetLru::new(entries, ways);
    for (i, &k) in keys.iter().enumerate() {
        let r = real.probe(k).is_some();
        let e = reference.probe(k);
        if r != e {
            return fail(
                i,
                format!("key probe({k}): reference says hit={e}, cache says hit={r}"),
            );
        }
        if !r {
            real.insert(k, k);
            reference.insert(k);
        }
    }
    Ok(())
}

/// Belady sanity oracle for `OptCache`:
/// - OPT misses ≤ fully-associative LRU misses on the identical trace
///   (OPT is optimal; FA-LRU is one feasible policy);
/// - misses are monotonically non-increasing in capacity;
/// - a trace whose distinct blocks all fit cold-misses exactly once
///   each;
/// - the per-access hit vector is trace-aligned and consistent with the
///   miss count.
pub fn check_opt_sanity(trace: &[u64], entries: usize) -> Result<(), Divergence> {
    let blocks: Vec<BlockAddr> = trace.iter().map(|&b| BlockAddr::new(b)).collect();
    let opt = OptCache::new(entries).simulate(&blocks);
    if opt.hits.len() != trace.len() {
        return fail(trace.len(), "OPT hit vector not trace-aligned");
    }
    let counted = opt.hits.iter().filter(|h| !**h).count() as u64;
    if counted != opt.misses {
        return fail(
            trace.len(),
            format!(
                "OPT miss count {} != hit-vector misses {counted}",
                opt.misses
            ),
        );
    }

    let mut lru = RefSetLru::new(entries, entries); // one set = fully associative
    let lru_misses = trace.iter().filter(|&&b| !lru.access(b)).count() as u64;
    if opt.misses > lru_misses {
        return fail(
            trace.len(),
            format!(
                "Belady violated: OPT misses {} > FA-LRU misses {lru_misses} at {entries} entries",
                opt.misses
            ),
        );
    }

    let bigger = OptCache::new(entries * 2).simulate(&blocks);
    if bigger.misses > opt.misses {
        return fail(
            trace.len(),
            format!(
                "capacity monotonicity violated: {} entries miss {}, {} entries miss {}",
                entries,
                opt.misses,
                entries * 2,
                bigger.misses
            ),
        );
    }

    let mut distinct: Vec<u64> = trace.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() <= entries && opt.misses != distinct.len() as u64 {
        return fail(
            trace.len(),
            format!(
                "all {} distinct blocks fit in {entries} entries but OPT missed {}",
                distinct.len(),
                opt.misses
            ),
        );
    }
    Ok(())
}

/// Generates one baseline trace case and runs all three checks.
pub fn check_baselines_case(seed: u64) -> Result<(), Divergence> {
    let mut rng = SplitRng::stream(seed, 0xba5e11);
    let ways = *crate::scenario::pick(&mut rng, &[1, 2, 4, 16]);
    let sets = *crate::scenario::pick(&mut rng, &[1, 2, 8, 64]);
    let entries = ways * sets;
    let universe = match rng.gen_range(0..3u64) {
        0 => entries as u64 / 2 + 1, // fits: cold misses only
        1 => entries as u64 + 1,     // LRU adversary
        _ => entries as u64 * 4,     // thrash
    };
    let n = rng.gen_range(10..500u64) as usize;
    let mut trace = Vec::with_capacity(n);
    let mut cursor = 0u64;
    for _ in 0..n {
        // Mix of uniform, cyclic and hot-block accesses.
        let b = match rng.gen_range(0..4u64) {
            0 => {
                cursor = (cursor + 1) % universe.max(1);
                cursor
            }
            1 => 0,
            _ => rng.gen_range(0..universe.max(1)),
        };
        trace.push(b);
    }
    check_address_differential(&trace, entries, ways)?;
    check_keycache_differential(&trace, entries, ways)?;
    check_opt_sanity(&trace, entries.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lru_matches_documented_example() {
        // Mirrors AddressCache's lru_evicts_oldest test independently.
        let mut c = RefSetLru::new(2, 2);
        assert!(!c.access(0));
        assert!(!c.access(2));
        assert!(c.access(0));
        assert!(!c.access(4)); // evicts 2
        assert!(c.access(0));
        assert!(!c.access(2));
    }

    #[test]
    fn baseline_cases_pass() {
        for seed in 0..60 {
            if let Err(d) = check_baselines_case(seed) {
                panic!("seed {seed}: {d}");
            }
        }
    }
}
