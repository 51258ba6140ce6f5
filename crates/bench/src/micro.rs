//! Plain-`Instant` micro-benchmarks for the IX-cache hot paths, shared
//! by the `benches/ixcache` target and the `bench_suite` binary so both
//! report numbers from the same workload (see PERFORMANCE.md).
//!
//! No benchmark framework: the container builds offline, so timing is a
//! monotonic-clock loop around `black_box`, consistent with the figure
//! binaries' methodology.

use metal_core::ixcache::{IxCache, IxConfig};
use metal_core::range::KeyRange;
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// Results of one [`probe_microbench`] run, in nanoseconds per call.
#[derive(Debug, Clone, Copy)]
pub struct ProbeBench {
    /// Covered-key probe against the filled cache (hit path).
    pub probe_hit_ns: f64,
    /// Far-out-of-range probe (miss path).
    pub probe_miss_ns: f64,
    /// Narrow insert into full sets (packing + CLOCK eviction per call).
    pub insert_evict_ns: f64,
}

/// How many batches each timed loop is split into; the reported figure
/// is the *fastest* batch. Interference (scheduler preemption,
/// hypervisor neighbors) only ever adds time, so the minimum converges
/// on the true cost while a single mean can read arbitrarily high.
const BATCHES: u64 = 8;

/// Runs `per_iter` for `iters` total calls split into [`BATCHES`]
/// batches and returns the fastest batch's ns/call.
fn min_batch_ns(iters: u64, mut per_iter: impl FnMut()) -> f64 {
    let per_batch = (iters / BATCHES).max(1);
    let mut best = u128::MAX;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..per_batch {
            per_iter();
        }
        best = best.min(t.elapsed().as_nanos());
    }
    best as f64 / per_batch as f64
}

/// Times the three IX-cache hot paths over `iters` calls each,
/// reporting the fastest of eight timed batches per path.
///
/// Spins the probe loop untimed for ~100 ms first: each timed batch is
/// only a millisecond or two long, so on an idle machine it would
/// otherwise run partly at a ramping-up CPU clock and read 2× high.
pub fn probe_microbench(iters: u64) -> ProbeBench {
    let mut cache = filled_cache();
    let mut key = 0u64;
    let warm = Instant::now();
    while warm.elapsed() < Duration::from_millis(100) {
        for _ in 0..1024 {
            key = (key + 37) % 4096;
            black_box(cache.probe(0, black_box(key)));
        }
    }
    key = 0;
    let probe_hit_ns = min_batch_ns(iters, || {
        key = (key + 37) % 4096;
        black_box(cache.probe(0, black_box(key)));
    });

    let probe_miss_ns = min_batch_ns(iters, || {
        black_box(cache.probe(0, black_box(1 << 40)));
    });

    let mut cache = filled_cache();
    let mut i = 0u64;
    let insert_evict_ns = min_batch_ns(iters, || {
        i += 1;
        cache.insert(
            0,
            (20_000 + i) as u32,
            KeyRange::new(i * 16, i * 16 + 15),
            1,
            64,
            0,
        );
    });
    black_box(&cache);

    ProbeBench {
        probe_hit_ns,
        probe_miss_ns,
        insert_evict_ns,
    }
}
