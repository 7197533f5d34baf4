//! Expansion of an accelerator profile into a burst schedule.
//!
//! A [`BurstSchedule`] is the deterministic sequence of DMA bursts (with
//! per-burst compute budgets) one invocation performs over its dataset. The
//! SoC simulator walks the schedule, routing each burst through the memory
//! hierarchy according to the coherence mode selected for the invocation.
//! The schedule is streamed: an iterator with constant-size state that
//! computes each burst when it is asked for, so no invocation holds its
//! bursts in memory.

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

/// Where the read walk starts each burst.
#[derive(Debug, Clone, Copy)]
enum Walk {
    /// Sequential passes over the dataset.
    Streaming,
    /// Jumps of `stride` lines.
    Strided { stride: u64 },
    /// Line `k · step` for `k` drawn uniformly below `reach`: the touched
    /// subset is the first `access_fraction` of the (logically shuffled)
    /// dataset. `reach ≤ lines`, so every offset stays below `lines`.
    Irregular { reach: u64, step: u64 },
}

/// The burst sequence of one invocation, as an iterator over its
/// [`BurstOp`]s in execution order.
///
/// The state is constant-size: the sampling RNG, the read walk's cursor
/// and remaining traffic, and the counters that interleave the writes.
#[derive(Debug, Clone)]
pub struct BurstSchedule {
    rng: SmallRng,
    walk: Walk,
    /// Dataset size in lines.
    lines: u64,
    /// Burst length in lines, capped at the dataset.
    burst: u64,
    compute_cycles_per_line: u64,
    in_place: bool,
    /// Streaming: lines walked so far; strided: jumps taken so far.
    read_cursor: u64,
    /// Read lines still to issue.
    reads_left: u64,
    /// Write lines over the whole invocation.
    write_lines: u64,
    /// One write follows every `gap` reads.
    gap: u64,
    written: u64,
    write_cursor: u64,
    since_last_write: u64,
    last_read_offset: u64,
    /// The read just issued triggered a write, which comes next.
    write_due: bool,
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
        let lines = footprint_lines;
        let walk = match profile.pattern {
            AccessPattern::Streaming => Walk::Streaming,
            AccessPattern::Strided { stride_lines } => Walk::Strided {
                stride: stride_lines,
            },
            AccessPattern::Irregular { access_fraction } => {
                let reach = ((lines as f64 * access_fraction).ceil() as u64).max(1);
                Walk::Irregular {
                    reach,
                    step: (lines / reach).max(1),
                }
            }
        };
        let burst = profile.burst_lines.min(lines);
        let mut schedule = BurstSchedule {
            rng: SmallRng::seed_from_u64(seed),
            walk,
            lines,
            burst,
            compute_cycles_per_line: profile.compute_cycles_per_line,
            in_place: profile.in_place,
            read_cursor: 0,
            reads_left: (profile.read_factor * lines as f64).round() as u64,
            write_lines: (profile.write_factor * lines as f64).round() as u64,
            gap: 1,
            written: 0,
            write_cursor: 0,
            since_last_write: 0,
            last_read_offset: 0,
            write_due: false,
        };
        if schedule.write_lines > 0 {
            // Spread the writes evenly among the reads. Clamping at the
            // dataset end decides how many reads there are, so count them
            // by replaying the read walk on a copy.
            let mut replay = schedule.clone();
            let reads = std::iter::from_fn(|| replay.next_read()).count() as u64;
            schedule.gap = (reads / schedule.write_lines.div_ceil(burst)).max(1);
        }
        schedule
    }

    /// The next read burst as `(offset, lines)`, clamped at the dataset
    /// end; `None` once all read traffic is issued.
    fn next_read(&mut self) -> Option<(u64, u64)> {
        if self.reads_left == 0 {
            return None;
        }
        let len = self.burst.min(self.reads_left);
        let offset = match self.walk {
            Walk::Streaming => {
                let o = self.read_cursor % self.lines;
                self.read_cursor += len;
                o
            }
            Walk::Strided { stride } => {
                let o = (self.read_cursor * stride) % self.lines;
                self.read_cursor += 1;
                o
            }
            Walk::Irregular { reach, step } => self.rng.gen_range(0..reach) * step,
        };
        let len = len.min(self.lines - offset);
        self.reads_left -= len;
        Some((offset, len))
    }

    /// The next write burst: onto the last read's lines in place,
    /// otherwise the next stretch of a sequential sweep.
    fn next_write(&mut self) -> BurstOp {
        let len = self.burst.min(self.write_lines - self.written);
        let offset = if self.in_place {
            self.last_read_offset
        } else {
            let o = self.write_cursor % self.lines;
            self.write_cursor += len;
            o
        };
        let len = len.min(self.lines - offset);
        self.written += len;
        BurstOp {
            line_offset: offset,
            lines: len,
            write: true,
            compute_cycles: 0,
        }
    }
}

impl Iterator for BurstSchedule {
    type Item = BurstOp;

    fn next(&mut self) -> Option<BurstOp> {
        if !self.write_due {
            if let Some((offset, lines)) = self.next_read() {
                self.last_read_offset = offset;
                self.since_last_write += 1;
                if self.since_last_write >= self.gap && self.written < self.write_lines {
                    self.since_last_write = 0;
                    self.write_due = true;
                }
                return Some(BurstOp {
                    line_offset: offset,
                    lines,
                    write: false,
                    compute_cycles: lines * self.compute_cycles_per_line,
                });
            }
        }
        // The write the last read triggered, or once the reads are done,
        // the residual write traffic.
        self.write_due = false;
        (self.written < self.write_lines).then(|| self.next_write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AccelProfile {
        AccelProfile::streaming("test", 8, 20, 2.0, 1.0)
    }

    fn ops(profile: &AccelProfile, lines: u64, seed: u64) -> Vec<BurstOp> {
        BurstSchedule::generate(profile, lines, seed).collect()
    }

    /// Lines read, lines written and compute cycles over a whole schedule.
    fn totals(profile: &AccelProfile, lines: u64) -> (u64, u64, u64) {
        BurstSchedule::generate(profile, lines, 0).fold((0, 0, 0), |(r, w, c), op| {
            if op.write {
                (r, w + op.lines, c)
            } else {
                (r + op.lines, w, c + op.compute_cycles)
            }
        })
    }

    fn reads(ops: &[BurstOp]) -> Vec<u64> {
        ops.iter()
            .filter(|o| !o.write)
            .map(|o| o.line_offset)
            .collect()
    }

    #[test]
    fn read_traffic_matches_read_factor() {
        assert_eq!(totals(&profile(), 128).0, 256); // 2.0 × 128
    }

    #[test]
    fn write_traffic_matches_write_factor() {
        assert_eq!(totals(&profile(), 128).1, 128); // 1.0 × 128
    }

    #[test]
    fn compute_budget_scales_with_reads() {
        assert_eq!(totals(&profile(), 128).2, 256 * 20);
    }

    #[test]
    fn streaming_reads_sweep_sequentially_with_wraparound() {
        let reads = reads(&ops(&profile(), 64, 0));
        // First pass: 0, 8, 16, ..., 56; second pass wraps to 0 again.
        assert_eq!(reads[0], 0);
        assert_eq!(reads[1], 8);
        assert_eq!(reads[8], 0);
    }

    #[test]
    fn offsets_stay_within_footprint() {
        for pattern_profile in [
            profile(),
            profile().with_stride(24),
            profile().with_irregular(0.3),
        ] {
            for op in BurstSchedule::generate(&pattern_profile, 100, 7) {
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
        let reads = reads(&ops(&profile().with_stride(16), 128, 0));
        assert_eq!(reads[..3], [0, 16, 32]);
    }

    #[test]
    fn irregular_pattern_is_scattered_but_deterministic() {
        let p = profile().with_irregular(0.5);
        let a = ops(&p, 256, 42);
        assert_eq!(a, ops(&p, 256, 42));
        assert_ne!(
            a,
            ops(&p, 256, 43),
            "different seeds sample different offsets"
        );
        let offsets: std::collections::HashSet<u64> = reads(&a).into_iter().collect();
        assert!(offsets.len() > 4, "irregular offsets should scatter");
    }

    #[test]
    fn in_place_writes_target_read_offsets() {
        let p = profile().with_in_place();
        let mut last_read = None;
        for op in BurstSchedule::generate(&p, 128, 0) {
            if op.write {
                assert_eq!(Some(op.line_offset), last_read);
            } else {
                last_read = Some(op.line_offset);
            }
        }
    }

    #[test]
    fn out_of_place_writes_stream_over_dataset() {
        let ops = ops(&profile(), 128, 0);
        let writes: Vec<&BurstOp> = ops.iter().filter(|o| o.write).collect();
        assert_eq!(writes[0].line_offset, 0);
        assert_eq!(writes[1].line_offset, 8);
    }

    #[test]
    fn write_free_profile_has_no_write_ops() {
        let p = AccelProfile::streaming("ro", 8, 16, 1.0, 0.0);
        assert!(BurstSchedule::generate(&p, 64, 0).all(|o| !o.write));
    }

    #[test]
    fn tiny_footprint_smaller_than_burst() {
        assert_eq!(totals(&profile(), 3).0, 6);
        for op in BurstSchedule::generate(&profile(), 3, 0) {
            assert!(op.line_offset + op.lines <= 3);
        }
    }

    #[test]
    fn fractional_read_factor_rounds_sensibly() {
        let p = AccelProfile::streaming("x", 8, 16, 1.5, 0.0);
        assert_eq!(totals(&p, 100).0, 150);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_footprint_panics() {
        BurstSchedule::generate(&profile(), 0, 0);
    }
}
