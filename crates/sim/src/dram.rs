//! Banked HBM/DRAM channel model.
//!
//! The model captures the three DRAM effects the paper's results depend on:
//!
//! 1. **Latency** — each access completes no earlier than `issue + latency`.
//! 2. **Bank contention** — an access occupies its bank for `bank_busy`
//!    cycles; back-to-back accesses to the same bank serialize, so a single
//!    pointer-chasing walk cannot extract bank parallelism but many
//!    concurrent walks can (memory-level parallelism, §3.2).
//! 3. **Channel bandwidth** — every 64 B transfer occupies the shared bus
//!    for `64 / bytes_per_cycle` cycles; workloads whose aggregate demand
//!    exceeds peak bandwidth become *bandwidth limited* (Fig. 24).
//! 4. **Row-buffer locality** — each bank keeps one DRAM row open;
//!    accesses to the open row pay only the CAS latency, conflicts pay
//!    precharge + activate. Sequential streams (bulk node refills,
//!    leaf-chain scans) are rewarded, random pointer chases are not.
//!
//! The model also accumulates DRAM dynamic energy (per-access) and feeds the
//! working-set tracker with every distinct block touched.

use crate::config::DramConfig;
use crate::stats::WorkingSet;
use crate::types::{blocks_spanned, Addr, Cycles, BLOCK_BYTES};

/// Banked DRAM channel with queueing, bandwidth and energy accounting.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    /// Time at which each bank becomes free (channels × banks flattened).
    bank_free: Vec<Cycles>,
    /// Row currently open in each bank's row buffer.
    open_row: Vec<Option<u64>>,
    /// Time at which each channel's data bus becomes free.
    bus_free: Vec<Cycles>,
    accesses: u64,
    row_hits: u64,
    bytes: u64,
    energy_fj: u64,
    working_set: WorkingSet,
}

impl Dram {
    /// Creates a DRAM channel with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks or zero bandwidth.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.channels > 0, "DRAM needs at least one channel");
        assert!(cfg.banks > 0, "DRAM needs at least one bank");
        assert!(cfg.bytes_per_cycle > 0, "DRAM needs nonzero bandwidth");
        Dram {
            cfg,
            bank_free: vec![Cycles::ZERO; cfg.channels * cfg.banks],
            open_row: vec![None; cfg.channels * cfg.banks],
            bus_free: vec![Cycles::ZERO; cfg.channels],
            accesses: 0,
            row_hits: 0,
            bytes: 0,
            energy_fj: 0,
            working_set: WorkingSet::new(),
        }
    }

    /// Issues a read of `bytes` bytes at `addr` at time `now` and returns the
    /// completion time.
    ///
    /// Multi-block objects issue one access per spanned 64 B block (a block
    /// is the DRAM burst granule). All blocks of one object go to
    /// consecutive banks, so a wide node refill pipelines across banks.
    pub fn access(&mut self, now: u64, addr: Addr, bytes: u64) -> Cycles {
        let now = Cycles::new(now);
        let n_blocks = blocks_spanned(addr, bytes).max(1);
        let mut done = now;
        for i in 0..n_blocks {
            let block = Addr::new(addr.get() + i * BLOCK_BYTES).block();
            self.working_set.touch(block);
            // Blocks interleave across channels first, banks second.
            let channel = (block.get() as usize) % self.cfg.channels;
            let bank_in_channel = (block.get() as usize / self.cfg.channels) % self.cfg.banks;
            let bank = channel * self.cfg.banks + bank_in_channel;
            let row = block.get()
                / (self.cfg.channels * self.cfg.banks) as u64
                / self.cfg.row_blocks.max(1);

            // Start when both the bank and its channel's bus are available.
            let start = now.max(self.bank_free[bank]).max(self.bus_free[channel]);
            let busy_until = start + self.cfg.bank_busy;
            self.bank_free[bank] = busy_until;
            // The bus is occupied for the transfer time of one block.
            let xfer = Cycles::new(BLOCK_BYTES.div_ceil(self.cfg.bytes_per_cycle));
            self.bus_free[channel] = start + xfer;

            // Row-buffer check: open-row accesses pay CAS only.
            let lat = if self.open_row[bank] == Some(row) {
                self.row_hits += 1;
                self.cfg.row_hit_latency
            } else {
                self.open_row[bank] = Some(row);
                self.cfg.latency
            };
            let complete = start + lat;
            done = done.max(complete);

            self.accesses += 1;
            self.bytes += BLOCK_BYTES;
            self.energy_fj = self.energy_fj.saturating_add(self.cfg.energy_per_access_fj);
        }
        done
    }

    /// Number of block accesses served so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses that hit an open row buffer.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer hit rate (0.0 when idle).
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// Total bytes transferred so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Accumulated DRAM dynamic energy in femtojoules.
    pub fn energy_fj(&self) -> u64 {
        self.energy_fj
    }

    /// The set of distinct blocks touched (the DRAM-side working set).
    pub fn working_set(&self) -> &WorkingSet {
        &self.working_set
    }

    /// The configuration this channel was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Resets timing state but keeps statistics (used between measurement
    /// phases that should not inherit queue backlog).
    pub fn drain(&mut self) {
        for b in &mut self.bank_free {
            *b = Cycles::ZERO;
        }
        for r in &mut self.open_row {
            *r = None;
        }
        for b in &mut self.bus_free {
            *b = Cycles::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn small() -> DramConfig {
        DramConfig {
            latency: Cycles::new(100),
            row_hit_latency: Cycles::new(100), // flat for legacy tests
            row_blocks: 1,
            channels: 1,
            banks: 2,
            bank_busy: Cycles::new(10),
            bytes_per_cycle: 64,
            energy_per_access_fj: 7,
        }
    }

    #[test]
    fn single_access_latency() {
        let mut d = Dram::new(small());
        let done = d.access(0, Addr::new(0), 64);
        assert_eq!(done, Cycles::new(100));
        assert_eq!(d.accesses(), 1);
        assert_eq!(d.bytes(), 64);
        assert_eq!(d.energy_fj(), 7);
    }

    #[test]
    fn same_bank_serializes() {
        let mut d = Dram::new(small());
        // Blocks 0 and 2 both map to bank 0 (2 banks).
        let a = d.access(0, Addr::new(0), 64);
        let b = d.access(0, Addr::new(128), 64);
        assert_eq!(a, Cycles::new(100));
        // Second access must wait for bank_busy of the first.
        assert_eq!(b, Cycles::new(110));
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = Dram::new(small());
        let a = d.access(0, Addr::new(0), 64); // bank 0
        let b = d.access(0, Addr::new(64), 64); // bank 1
        assert_eq!(a, Cycles::new(100));
        // Only the 1-cycle bus transfer separates them.
        assert_eq!(b, Cycles::new(101));
    }

    #[test]
    fn bus_bandwidth_limits() {
        let mut cfg = small();
        cfg.bytes_per_cycle = 8; // 8 cycles per 64B block
        cfg.banks = 16;
        cfg.bank_busy = Cycles::new(1);
        let mut d = Dram::new(cfg);
        let mut last = Cycles::ZERO;
        for i in 0..10 {
            last = d.access(0, Addr::new(i * 64), 64);
        }
        // 10 transfers × 8 cycles on the bus: the last starts at cycle 72.
        assert_eq!(last, Cycles::new(72 + 100));
    }

    #[test]
    fn multi_block_object_counts_all_blocks() {
        let mut d = Dram::new(small());
        let done = d.access(0, Addr::new(0), 256); // 4 blocks
        assert_eq!(d.accesses(), 4);
        assert_eq!(d.bytes(), 256);
        // 2 banks: blocks 0,2 on bank0 and 1,3 on bank1 → serialization.
        assert!(done > Cycles::new(100));
    }

    #[test]
    fn working_set_tracks_distinct_blocks() {
        let mut d = Dram::new(small());
        d.access(0, Addr::new(0), 64);
        d.access(0, Addr::new(0), 64);
        d.access(0, Addr::new(64), 64);
        assert_eq!(d.working_set().distinct_blocks(), 2);
        assert_eq!(d.accesses(), 3);
    }

    #[test]
    fn drain_resets_timing_not_stats() {
        let mut d = Dram::new(small());
        d.access(0, Addr::new(0), 64);
        d.drain();
        assert_eq!(d.accesses(), 1);
        let done = d.access(0, Addr::new(0), 64);
        assert_eq!(done, Cycles::new(100), "no residual bank backlog");
    }

    #[test]
    fn row_buffer_hits_are_faster() {
        let mut cfg = small();
        cfg.row_hit_latency = Cycles::new(40);
        cfg.row_blocks = 8; // 8 blocks per row per bank
        cfg.bank_busy = Cycles::new(1);
        let mut d = Dram::new(cfg);
        // Block 0 (bank 0, row 0): conflict (cold) → 100.
        assert_eq!(d.access(0, Addr::new(0), 64), Cycles::new(100));
        // Block 2 (bank 0, row 0 again): open-row hit → starts at 1, +40.
        let t = d.access(0, Addr::new(128), 64);
        assert_eq!(t, Cycles::new(41));
        assert_eq!(d.row_hits(), 1);
        // Far block on bank 0, different row: conflict again.
        let far = d.access(0, Addr::new(64 * 2 * 8 * 10), 64);
        assert!(far >= Cycles::new(100));
        assert!((d.row_hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_stream_mostly_row_hits() {
        let mut cfg = small();
        cfg.row_hit_latency = Cycles::new(40);
        cfg.row_blocks = 8;
        cfg.banks = 4;
        cfg.bank_busy = Cycles::new(1);
        let mut d = Dram::new(cfg);
        for b in 0..64u64 {
            d.access(10_000, Addr::new(b * 64), 64);
        }
        // First touch of each bank's row misses; the rest hit.
        assert!(
            d.row_hit_rate() > 0.8,
            "sequential stream should hit open rows ({})",
            d.row_hit_rate()
        );
    }

    #[test]
    fn channels_multiply_bandwidth() {
        // Bus-limited config: one channel moves a 10-block stream strictly
        // slower than two channels do.
        let mut cfg = small();
        cfg.bytes_per_cycle = 8; // 8 cycles of bus per block
        cfg.banks = 16;
        cfg.bank_busy = Cycles::new(1);
        let run = |channels: usize| {
            let mut c = cfg;
            c.channels = channels;
            let mut d = Dram::new(c);
            let mut last = Cycles::ZERO;
            for i in 0..16u64 {
                last = d.access(0, Addr::new(i * 64), 64);
            }
            last
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two.get() + 8 * 7 <= one.get(),
            "two channels ({two:?}) should halve the bus backlog of one ({one:?})"
        );
    }

    #[test]
    fn zero_byte_access_still_touches_one_block() {
        let mut d = Dram::new(small());
        let done = d.access(5, Addr::new(0), 0);
        assert_eq!(d.accesses(), 1);
        assert_eq!(done, Cycles::new(105));
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let mut cfg = small();
        cfg.banks = 0;
        let _ = Dram::new(cfg);
    }
}
