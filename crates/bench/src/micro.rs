//! The IX-cache shape the repository benchmark's `core.ixcache.*` micro
//! loops run against (`benchmark/src/layers.rs`; see PERFORMANCE.md).

use metal_core::ixcache::{IxCache, IxConfig};
use metal_core::range::KeyRange;

/// The standard probe-bench cache: the default 64 kB geometry holding a
/// mix of 512 narrow leaves and 128 wide interior entries. This is the
/// dense-key shape, not the one the repository benchmark's workloads
/// keep the cache in: their keys are sparse, so every node range
/// straddles a 16-key block and 99.96 % of fills land in the wide
/// partition, which they hold full at ~1 000 entries (measured on `scan`
/// and `where`). The insert loop run on this cache prices a full narrow
/// set, not that full wide partition.
pub fn filled_cache() -> IxCache {
    let mut c = IxCache::new(IxConfig::kb64());
    for i in 0..512u64 {
        c.insert(0, i as u32, KeyRange::new(i * 8, i * 8 + 7), 0, 64, 0);
    }
    for i in 0..128u64 {
        c.insert(
            0,
            10_000 + i as u32,
            KeyRange::new(i * 512, i * 512 + 511),
            3,
            64,
            0,
        );
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins what the benchmark's timed loops measure: if `IxCache::insert`
    /// changes the shape this cache ends up in, this fails instead of a
    /// `core.ixcache.*_ns` metric quietly moving.
    #[test]
    fn filled_cache_shape() {
        let mut c = filled_cache();
        assert_eq!((c.occupancy(), c.entries()), (640, 1024));
        assert_eq!(c.occupancy_by_level(3), [512, 0, 0, 128]);
        c.check_invariants().unwrap();
        assert!(c.probe(0, 37).is_some());
        assert!(c.probe(0, 1 << 40).is_none());
        // The insert loop's first call: its narrow set is already full,
        // so every insert it times evicts one entry.
        c.insert(0, 20_001, KeyRange::new(16, 31), 1, 64, 0);
        assert_eq!(c.occupancy(), 640);
    }
}
