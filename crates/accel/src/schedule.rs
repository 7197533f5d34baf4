//! Expansion of an accelerator profile into a burst schedule.
//!
//! A [`BurstSchedule`] is the deterministic sequence of DMA bursts (with
//! per-burst compute budgets) one invocation performs over its dataset. The
//! SoC simulator walks the schedule, routing each burst through the memory
//! hierarchy according to the coherence mode selected for the invocation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::profile::{AccelProfile, AccessPattern};

/// One DMA burst of an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstOp {
    /// First line of the burst, as an offset into the dataset (0-based).
    pub line_offset: u64,
    /// Burst length in lines (≥ 1).
    pub lines: u64,
    /// Write burst (true) or read burst (false).
    pub write: bool,
    /// Datapath cycles the accelerator spends on this chunk; overlapped
    /// with subsequent fetches by the pipelined datapath.
    pub compute_cycles: u64,
}

/// The complete burst sequence of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSchedule {
    ops: Vec<BurstOp>,
    footprint_lines: u64,
}

impl BurstSchedule {
    /// Builds the schedule for `profile` over a dataset of
    /// `footprint_lines` cache lines. `seed` fixes the sampling of
    /// irregular patterns, making schedules reproducible.
    ///
    /// Reads are organised in passes: `read_factor = 2.5` performs two full
    /// passes plus a half pass. Writes are interleaved among the reads to
    /// match the profile's read-to-write ratio; in-place profiles dirty the
    /// lines just read, otherwise writes stream sequentially over the
    /// dataset (modelling a distinct output region within the footprint).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`AccelProfile::validate`] or
    /// `footprint_lines` is zero.
    pub fn generate(profile: &AccelProfile, footprint_lines: u64, seed: u64) -> BurstSchedule {
        profile.validate().expect("valid accelerator profile");
        assert!(footprint_lines > 0, "footprint must span at least one line");
        let mut rng = SmallRng::seed_from_u64(seed);

        let reads = Self::read_ops(profile, footprint_lines, &mut rng);
        let ops = Self::interleave_writes(profile, footprint_lines, reads);
        BurstSchedule {
            ops,
            footprint_lines,
        }
    }

    fn read_ops(profile: &AccelProfile, lines: u64, rng: &mut SmallRng) -> Vec<BurstOp> {
        let mut ops = Vec::new();
        let burst = profile.burst_lines.min(lines);
        let mut remaining = (profile.read_factor * lines as f64).round() as u64;
        let mut pass_cursor = 0u64;
        let mut stride_index = 0u64;
        while remaining > 0 {
            let len = burst.min(remaining);
            let offset = match profile.pattern {
                AccessPattern::Streaming => {
                    let o = pass_cursor % lines;
                    pass_cursor += len;
                    o
                }
                AccessPattern::Strided { stride_lines } => {
                    let o = (stride_index * stride_lines) % lines;
                    stride_index += 1;
                    o
                }
                AccessPattern::Irregular { access_fraction } => {
                    // Sample within the touched subset: the first
                    // `access_fraction` of the (logically shuffled) dataset.
                    let reach = ((lines as f64 * access_fraction).ceil() as u64).max(1);
                    rng.gen_range(0..reach) * (lines / reach).max(1) % lines
                }
            };
            let len = len.min(lines - offset).max(1);
            ops.push(BurstOp {
                line_offset: offset,
                lines: len,
                write: false,
                compute_cycles: len * profile.compute_cycles_per_line,
            });
            remaining -= len;
        }
        ops
    }

    /// Spreads the write traffic evenly among the read bursts.
    fn interleave_writes(profile: &AccelProfile, lines: u64, reads: Vec<BurstOp>) -> Vec<BurstOp> {
        let total_write_lines = (profile.write_factor * lines as f64).round() as u64;
        if total_write_lines == 0 {
            return reads;
        }
        let burst = profile.burst_lines.min(lines);
        let n_writes = total_write_lines.div_ceil(burst);
        // Emit one write after every `gap` reads (at least 1).
        let gap = (reads.len() as u64 / n_writes.max(1)).max(1);
        let mut ops = Vec::with_capacity(reads.len() + n_writes as usize);
        let mut written = 0u64;
        let mut write_cursor = 0u64;
        let mut since_last_write = 0u64;
        let mut last_read_offset = 0u64;
        for read in reads {
            last_read_offset = read.line_offset;
            ops.push(read);
            since_last_write += 1;
            if since_last_write >= gap && written < total_write_lines {
                since_last_write = 0;
                let len = burst.min(total_write_lines - written).max(1);
                let offset = if profile.in_place {
                    last_read_offset
                } else {
                    let o = write_cursor % lines;
                    write_cursor += len;
                    o
                };
                let len = len.min(lines - offset).max(1);
                ops.push(BurstOp {
                    line_offset: offset,
                    lines: len,
                    write: true,
                    compute_cycles: 0,
                });
                written += len;
            }
        }
        // Flush any residual write traffic at the end of the invocation.
        while written < total_write_lines {
            let len = burst.min(total_write_lines - written).max(1);
            let offset = if profile.in_place {
                last_read_offset
            } else {
                let o = write_cursor % lines;
                write_cursor += len;
                o
            };
            let len = len.min(lines - offset).max(1);
            ops.push(BurstOp {
                line_offset: offset,
                lines: len,
                write: true,
                compute_cycles: 0,
            });
            written += len;
        }
        ops
    }

    /// The burst operations in execution order.
    pub fn ops(&self) -> &[BurstOp] {
        &self.ops
    }

    /// Dataset size in lines.
    pub fn footprint_lines(&self) -> u64 {
        self.footprint_lines
    }

    /// Total lines read.
    pub fn read_lines(&self) -> u64 {
        self.ops.iter().filter(|o| !o.write).map(|o| o.lines).sum()
    }

    /// Total lines written.
    pub fn write_lines(&self) -> u64 {
        self.ops.iter().filter(|o| o.write).map(|o| o.lines).sum()
    }

    /// Total datapath compute cycles.
    pub fn compute_cycles(&self) -> u64 {
        self.ops.iter().map(|o| o.compute_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AccelProfile {
        AccelProfile::streaming("test", 8, 20, 2.0, 1.0)
    }

    #[test]
    fn read_traffic_matches_read_factor() {
        let s = BurstSchedule::generate(&profile(), 128, 0);
        assert_eq!(s.read_lines(), 256); // 2.0 × 128
    }

    #[test]
    fn write_traffic_matches_write_factor() {
        let s = BurstSchedule::generate(&profile(), 128, 0);
        assert_eq!(s.write_lines(), 128); // 1.0 × 128
    }

    #[test]
    fn compute_budget_scales_with_reads() {
        let s = BurstSchedule::generate(&profile(), 128, 0);
        assert_eq!(s.compute_cycles(), 256 * 20);
    }

    #[test]
    fn streaming_reads_sweep_sequentially_with_wraparound() {
        let s = BurstSchedule::generate(&profile(), 64, 0);
        let reads: Vec<&BurstOp> = s.ops().iter().filter(|o| !o.write).collect();
        // First pass: 0, 8, 16, ..., 56; second pass wraps to 0 again.
        assert_eq!(reads[0].line_offset, 0);
        assert_eq!(reads[1].line_offset, 8);
        assert_eq!(reads[8].line_offset, 0);
    }

    #[test]
    fn offsets_stay_within_footprint() {
        for pattern_profile in [
            profile(),
            profile().with_stride(24),
            profile().with_irregular(0.3),
        ] {
            let s = BurstSchedule::generate(&pattern_profile, 100, 7);
            for op in s.ops() {
                assert!(
                    op.line_offset + op.lines <= 100,
                    "op {op:?} overruns the dataset"
                );
                assert!(op.lines >= 1);
            }
        }
    }

    #[test]
    fn strided_pattern_jumps_by_stride() {
        let p = profile().with_stride(16);
        let s = BurstSchedule::generate(&p, 128, 0);
        let reads: Vec<&BurstOp> = s.ops().iter().filter(|o| !o.write).collect();
        assert_eq!(reads[0].line_offset, 0);
        assert_eq!(reads[1].line_offset, 16);
        assert_eq!(reads[2].line_offset, 32);
    }

    #[test]
    fn irregular_pattern_is_scattered_but_deterministic() {
        let p = profile().with_irregular(0.5);
        let a = BurstSchedule::generate(&p, 256, 42);
        let b = BurstSchedule::generate(&p, 256, 42);
        assert_eq!(a, b);
        let c = BurstSchedule::generate(&p, 256, 43);
        assert_ne!(a, c, "different seeds sample different offsets");
        let offsets: std::collections::HashSet<u64> = a
            .ops()
            .iter()
            .filter(|o| !o.write)
            .map(|o| o.line_offset)
            .collect();
        assert!(offsets.len() > 4, "irregular offsets should scatter");
    }

    #[test]
    fn in_place_writes_target_read_offsets() {
        let p = profile().with_in_place();
        let s = BurstSchedule::generate(&p, 128, 0);
        let mut last_read = None;
        for op in s.ops() {
            if op.write {
                assert_eq!(Some(op.line_offset), last_read);
            } else {
                last_read = Some(op.line_offset);
            }
        }
    }

    #[test]
    fn out_of_place_writes_stream_over_dataset() {
        let s = BurstSchedule::generate(&profile(), 128, 0);
        let writes: Vec<&BurstOp> = s.ops().iter().filter(|o| o.write).collect();
        assert_eq!(writes[0].line_offset, 0);
        assert_eq!(writes[1].line_offset, 8);
    }

    #[test]
    fn write_free_profile_has_no_write_ops() {
        let p = AccelProfile::streaming("ro", 8, 16, 1.0, 0.0);
        let s = BurstSchedule::generate(&p, 64, 0);
        assert_eq!(s.write_lines(), 0);
        assert!(s.ops().iter().all(|o| !o.write));
    }

    #[test]
    fn tiny_footprint_smaller_than_burst() {
        let s = BurstSchedule::generate(&profile(), 3, 0);
        assert_eq!(s.read_lines(), 6);
        for op in s.ops() {
            assert!(op.line_offset + op.lines <= 3);
        }
    }

    #[test]
    fn fractional_read_factor_rounds_sensibly() {
        let p = AccelProfile::streaming("x", 8, 16, 1.5, 0.0);
        let s = BurstSchedule::generate(&p, 100, 0);
        assert_eq!(s.read_lines(), 150);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_footprint_panics() {
        BurstSchedule::generate(&profile(), 0, 0);
    }
}
