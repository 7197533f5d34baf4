//! # cohmeleon-mem
//!
//! DRAM controller models for the Cohmeleon reproduction.
//!
//! Each memory tile of the paper's SoCs hosts a DRAM controller with a
//! dedicated channel to its partition of off-chip memory (32 bits per cycle
//! in the prototypes). The model captures the two properties that drive the
//! paper's results:
//!
//! * **Bandwidth** — the channel is a [`cohmeleon_sim::Resource`]; concurrent
//!   requesters queue, which is how DRAM contention emerges when many
//!   non-coherent accelerators run in parallel (Figure 3).
//! * **Row-buffer locality** — sequential lines within one DRAM row transfer
//!   at full bandwidth; a row change pays a penalty. Long streaming DMA
//!   bursts therefore sustain higher throughput than scattered line fills,
//!   which is why non-coherent DMA can win on large workloads even while
//!   making *more* memory accesses (e.g. Cholesky-Large in Figure 2).
//!
//! The controller also hosts the off-chip access counters read by the
//! paper's hardware monitors, and [`proportional_attribution`] implements the
//! footprint-proportional approximation of Section 4.3 used to split a
//! controller's traffic among concurrently-active accelerators.

#![forbid(unsafe_code)]

use cohmeleon_sim::stats::Counter;
use cohmeleon_sim::{Cycle, Resource};
use serde::{Deserialize, Serialize};

/// A cache-line-granular DRAM address (shared with the cache crate's
/// line addressing).
pub type Line = u64;

/// Timing and organisation of one DRAM controller + channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Fixed access latency (controller queue, CAS, …) in cycles.
    pub base_latency: u64,
    /// Channel occupancy per line: line bytes / channel bytes-per-cycle.
    /// The paper's 32-bit link moves a 64-byte line in 16 cycles.
    pub line_transfer_cycles: u64,
    /// Extra cycles when an access opens a different row than the last one
    /// in the same bank.
    pub row_miss_penalty: u64,
    /// Lines per DRAM row (row-buffer reach).
    pub row_lines: u64,
    /// Number of banks; each keeps its own open row, so interleaved streams
    /// from different datasets do not thrash each other's row buffers.
    pub banks: u64,
}

impl Default for DramConfig {
    /// Defaults sized for the paper's prototypes: 64-byte lines over a
    /// 32-bit channel (16 cycles/line), ~100-cycle base latency, 2 KiB rows.
    fn default() -> DramConfig {
        DramConfig {
            base_latency: 100,
            line_transfer_cycles: 16,
            row_miss_penalty: 24,
            row_lines: 32,
            banks: 8,
        }
    }
}

/// One DRAM controller: a bandwidth-reserving channel with row-buffer state
/// and monitor counters.
#[derive(Debug, Clone)]
pub struct DramController {
    config: DramConfig,
    channel: Resource,
    /// Open row per bank.
    open_rows: Vec<Option<u64>>,
    reads: Counter,
    writes: Counter,
}

impl DramController {
    /// An idle controller.
    pub fn new(config: DramConfig) -> DramController {
        DramController {
            config,
            channel: Resource::new("dram-channel"),
            open_rows: vec![None; config.banks.max(1) as usize],
            reads: Counter::new(),
            writes: Counter::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Performs one line access at time `at`. Returns the completion time
    /// (when the data has fully crossed the channel).
    pub fn access(&mut self, at: Cycle, line: Line, write: bool) -> Cycle {
        let row = line / self.config.row_lines;
        let bank = (row % self.open_rows.len() as u64) as usize;
        let mut service = self.config.line_transfer_cycles;
        if self.open_rows[bank] != Some(row) {
            service += self.config.row_miss_penalty;
            self.open_rows[bank] = Some(row);
        }
        let grant = self.channel.acquire(at, Cycle(service));
        if write {
            self.writes.incr();
        } else {
            self.reads.incr();
        }
        grant.end + Cycle(self.config.base_latency)
    }

    /// Performs a burst of `count` consecutive lines starting at `start`.
    /// Returns the completion time of the last line. Sequential lines enjoy
    /// row-buffer hits, so long bursts approach full channel bandwidth.
    ///
    /// Bit-identical to per-line [`access`](Self::access) calls at the same
    /// arrival time, but reserves the channel one row *segment* at a time
    /// (a row miss followed by row hits), so the work is O(rows touched)
    /// instead of O(lines).
    pub fn burst_access(&mut self, at: Cycle, start: Line, count: u64, write: bool) -> Cycle {
        let mut done = at;
        let rl = self.config.row_lines;
        let nbanks = self.open_rows.len() as u64;
        let mut i = 0u64;
        while i < count {
            let line = start + i;
            let row = line / rl;
            let segment = (rl - line % rl).min(count - i);
            let bank = (row % nbanks) as usize;
            let mut first = self.config.line_transfer_cycles;
            if self.open_rows[bank] != Some(row) {
                first += self.config.row_miss_penalty;
                self.open_rows[bank] = Some(row);
            }
            let grant = self.channel.acquire_series(
                at,
                Cycle(first),
                Cycle(self.config.line_transfer_cycles),
                segment,
            );
            done = grant.end + Cycle(self.config.base_latency);
            i += segment;
        }
        if count > 0 {
            if write {
                self.writes.add(count);
            } else {
                self.reads.add(count);
            }
        }
        done
    }

    /// Performs `count` scattered line accesses (cache-victim writebacks,
    /// flush traffic): every access opens a fresh row, and the open row is
    /// lost afterwards — scattered traffic both pays row misses and breaks
    /// the locality of interleaved streams.
    ///
    /// Bit-identical to the per-line loop it replaces (each access pays the
    /// row-miss penalty), with one channel reservation for the whole batch.
    pub fn scattered_access(&mut self, at: Cycle, count: u64, write: bool) -> Cycle {
        if count == 0 {
            return at;
        }
        let row = u64::MAX / self.config.row_lines;
        let bank = (row % self.open_rows.len() as u64) as usize;
        // The synthetic row is never resident (every scattered access closes
        // it), so each access pays the row-miss penalty — including the
        // first, unless a pathological prior state left the row open.
        let miss_service = self.config.line_transfer_cycles + self.config.row_miss_penalty;
        let first = if self.open_rows[bank] == Some(row) {
            self.config.line_transfer_cycles
        } else {
            miss_service
        };
        let grant = self
            .channel
            .acquire_series(at, Cycle(first), Cycle(miss_service), count);
        self.open_rows[bank] = None;
        if write {
            self.writes.add(count);
        } else {
            self.reads.add(count);
        }
        grant.end + Cycle(self.config.base_latency)
    }

    /// Monitor: total off-chip accesses (reads + writes).
    pub fn total_accesses(&self) -> u64 {
        self.reads.sample() + self.writes.sample()
    }

    /// Monitor: reads.
    pub fn reads(&self) -> u64 {
        self.reads.sample()
    }

    /// Monitor: writes.
    pub fn writes(&self) -> u64 {
        self.writes.sample()
    }

    /// When the channel next becomes free (diagnostics).
    pub fn next_free(&self) -> Cycle {
        self.channel.next_free()
    }

    /// Clears counters, reservations and row state.
    pub fn reset(&mut self) {
        self.channel.reset();
        self.open_rows.fill(None);
        self.reads.reset();
        self.writes.reset();
    }
}

/// The paper's footprint-proportional attribution (Section 4.3):
///
/// ```text
/// ddr(k, m) = ddr_total(m) × footprint(k, m) / Σ_a footprint(a, m)
/// ```
///
/// Splits `total` observed accesses at one controller among accelerators
/// with the given active footprints. Returns one share per footprint; all
/// zeros if the footprints sum to zero.
///
/// # Example
///
/// ```
/// use cohmeleon_mem::proportional_attribution;
///
/// let shares = proportional_attribution(300, &[1024.0, 2048.0]);
/// assert_eq!(shares, vec![100.0, 200.0]);
/// ```
pub fn proportional_attribution(total: u64, footprints: &[f64]) -> Vec<f64> {
    let sum: f64 = footprints.iter().sum();
    if sum <= 0.0 {
        return vec![0.0; footprints.len()];
    }
    footprints.iter().map(|f| total as f64 * f / sum).collect()
}

/// The single share `idx` would receive from
/// [`proportional_attribution`], computed without materialising the other
/// shares (the engine's per-invocation hot path). Returns 0.0 when the
/// footprints sum to zero or `idx` is out of range, matching the vector
/// form.
pub fn proportional_share<I: IntoIterator<Item = f64>>(
    total: u64,
    footprints: I,
    idx: usize,
) -> f64 {
    let mut sum = 0.0;
    let mut f_self = 0.0;
    for (i, f) in footprints.into_iter().enumerate() {
        sum += f;
        if i == idx {
            f_self = f;
        }
    }
    if sum <= 0.0 {
        0.0
    } else {
        total as f64 * f_self / sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> DramController {
        DramController::new(DramConfig::default())
    }

    #[test]
    fn proportional_share_matches_vector_form() {
        let footprints = [1024.0, 0.0, 2048.0, 512.0];
        let shares = proportional_attribution(300, &footprints);
        for (i, share) in shares.iter().enumerate() {
            assert_eq!(
                proportional_share(300, footprints.iter().copied(), i),
                *share
            );
        }
        assert_eq!(proportional_share(300, [0.0, 0.0].into_iter(), 1), 0.0);
        assert_eq!(proportional_share(300, footprints.iter().copied(), 99), 0.0);
    }

    #[test]
    fn single_access_latency() {
        let mut d = dram();
        let done = d.access(Cycle(0), 0, false);
        // Row miss + transfer + base latency.
        assert_eq!(done, Cycle(24 + 16 + 100));
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 0);
    }

    #[test]
    fn row_hits_are_cheaper_than_row_misses() {
        let mut d = dram();
        d.access(Cycle(0), 0, false);
        let t0 = d.next_free();
        d.access(Cycle(1_000_000), 1, false); // same row
        let hit_service = d.next_free() - Cycle(1_000_000);
        let _ = t0;
        let mut d2 = dram();
        d2.access(Cycle(0), 0, false);
        d2.access(Cycle(1_000_000), 1_000_000, false); // different row
        let miss_service = d2.next_free() - Cycle(1_000_000);
        assert!(hit_service < miss_service);
        assert_eq!(miss_service - hit_service, Cycle(24));
    }

    #[test]
    fn burst_sustains_row_buffer_bandwidth() {
        let mut d = dram();
        let done = d.burst_access(Cycle(0), 0, 32, false);
        // 1 row miss + 32 transfers (row holds 32 lines starting at 0).
        assert_eq!(done, Cycle(24 + 32 * 16 + 100));
        assert_eq!(d.total_accesses(), 32);
    }

    #[test]
    fn scattered_accesses_pay_repeated_row_misses() {
        let mut d = dram();
        let mut t = Cycle(0);
        for i in 0..8 {
            t = d.access(t, i * 1000, false);
        }
        let mut d2 = dram();
        let t_seq = d2.burst_access(Cycle(0), 0, 8, false);
        assert!(t > t_seq);
    }

    #[test]
    fn concurrent_requesters_queue_on_the_channel() {
        let mut d = dram();
        let a = d.access(Cycle(0), 0, false);
        let b = d.access(Cycle(0), 1, false);
        assert!(b > a);
    }

    #[test]
    fn write_counter() {
        let mut d = dram();
        d.access(Cycle(0), 0, true);
        d.access(Cycle(0), 1, true);
        d.access(Cycle(0), 2, false);
        assert_eq!(d.writes(), 2);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.total_accesses(), 3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut d = dram();
        d.burst_access(Cycle(0), 0, 16, true);
        d.reset();
        assert_eq!(d.total_accesses(), 0);
        assert_eq!(d.next_free(), Cycle::ZERO);
        // Row buffer forgotten: first access pays the row miss again.
        let done = d.access(Cycle(0), 0, false);
        assert_eq!(done, Cycle(24 + 16 + 100));
    }

    #[test]
    fn attribution_is_proportional_and_conservative() {
        let shares = proportional_attribution(1000, &[1.0, 3.0]);
        assert_eq!(shares, vec![250.0, 750.0]);
        let total: f64 = shares.iter().sum();
        assert!((total - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_with_zero_footprints() {
        assert_eq!(proportional_attribution(1000, &[0.0, 0.0]), vec![0.0, 0.0]);
        assert_eq!(proportional_attribution(1000, &[]), Vec::<f64>::new());
    }

    #[test]
    fn attribution_single_requester_gets_everything() {
        assert_eq!(proportional_attribution(77, &[123.0]), vec![77.0]);
    }
}
