//! The multi-objective reward function of Section 4.2.
//!
//! After the `i`-th invocation of accelerator `k` completes, the monitors
//! yield an [`InvocationMeasurement`]. Three scaled metrics are derived:
//!
//! * `exec(k,i)` — execution time divided by footprint,
//! * `comm(k,i)` — accelerator communication cycles divided by total active
//!   cycles,
//! * `mem(k,i)` — off-chip accesses divided by footprint,
//!
//! and normalised against the per-accelerator history:
//!
//! ```text
//! R_exec(k,i) = min_{j≤i} exec(k,j) / exec(k,i)
//! R_comm(k,i) = min_{j≤i} comm(k,j) / comm(k,i)
//! R_mem(k,i)  = 1 − (mem(k,i) − min_j mem) / (max_j mem − min_j mem)
//! ```
//!
//! The reward is the weighted sum `R = x·R_exec + y·R_comm + z·R_mem`.
//! All three components lie in `[0, 1]`, larger is better.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use cohmeleon_sim::stats::RunningExtrema;

use crate::error::CoreError;
use crate::AccelInstanceId;

/// What the hardware monitors report for one completed invocation
/// (the four metrics of Section 4.1, "Evaluate").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvocationMeasurement {
    /// Total execution time in cycles, *including* invocation overheads
    /// (device driver, cache flushes, TLB load).
    pub total_cycles: u64,
    /// Cycles in which the accelerator was actively executing.
    pub accel_active_cycles: u64,
    /// Cycles in which the accelerator was communicating with memory
    /// (issuing a request or awaiting a response).
    pub accel_comm_cycles: u64,
    /// Off-chip memory accesses attributed to this invocation. Fractional
    /// because the paper's attribution divides each controller's total among
    /// active accelerators proportionally to footprint.
    pub offchip_accesses: f64,
    /// Memory footprint of the invocation, in bytes.
    pub footprint_bytes: u64,
}

impl InvocationMeasurement {
    /// `exec(k,i)`: execution time scaled by footprint.
    pub fn scaled_exec(&self) -> f64 {
        self.total_cycles as f64 / self.footprint_bytes.max(1) as f64
    }

    /// `comm(k,i)`: fraction of accelerator-active cycles spent
    /// communicating with memory.
    pub fn comm_ratio(&self) -> f64 {
        if self.accel_active_cycles == 0 {
            0.0
        } else {
            self.accel_comm_cycles as f64 / self.accel_active_cycles as f64
        }
    }

    /// `mem(k,i)`: off-chip accesses scaled by footprint.
    pub fn scaled_mem(&self) -> f64 {
        self.offchip_accesses / self.footprint_bytes.max(1) as f64
    }
}

/// The constant weights `(x, y, z)` of the reward function.
///
/// The weights are normalised to sum to 1 at construction, which does not
/// change the induced policy ordering but keeps rewards in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardWeights {
    x: f64,
    y: f64,
    z: f64,
}

impl RewardWeights {
    /// Creates weights for (execution time, communication ratio, off-chip
    /// memory accesses).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidRewardWeights`] if any weight is negative
    /// or non-finite, or if all are zero.
    pub fn new(x: f64, y: f64, z: f64) -> Result<RewardWeights, CoreError> {
        let valid = |w: f64| w.is_finite() && w >= 0.0;
        let sum = x + y + z;
        if !(valid(x) && valid(y) && valid(z)) || sum <= 0.0 {
            return Err(CoreError::InvalidRewardWeights { weights: (x, y, z) });
        }
        Ok(RewardWeights {
            x: x / sum,
            y: y / sum,
            z: z / sum,
        })
    }

    /// The configuration used for the cross-SoC experiments in Section 6:
    /// 67.5% execution time, 7.5% communication ratio, 25% off-chip accesses.
    pub fn paper_default() -> RewardWeights {
        RewardWeights::new(0.675, 0.075, 0.25).expect("paper weights are valid")
    }

    /// Weight on `R_exec` (normalised).
    pub fn x(&self) -> f64 {
        self.x
    }

    /// Weight on `R_comm` (normalised).
    pub fn y(&self) -> f64 {
        self.y
    }

    /// Weight on `R_mem` (normalised).
    pub fn z(&self) -> f64 {
        self.z
    }

    /// Combines reward components into the scalar reward, clamped to
    /// `[0, 1]` (normalised weights can overshoot by a rounding ulp).
    pub fn combine(&self, components: RewardComponents) -> f64 {
        (self.x * components.r_exec + self.y * components.r_comm + self.z * components.r_mem)
            .clamp(0.0, 1.0)
    }
}

/// The three reward components for one invocation, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardComponents {
    /// `R_exec(k, i)`.
    pub r_exec: f64,
    /// `R_comm(k, i)`.
    pub r_comm: f64,
    /// `R_mem(k, i)`.
    pub r_mem: f64,
}

/// Per-accelerator history of scaled metrics, backing the `min_{j≤i}` /
/// `max_{j≤i}` terms of the reward definition.
#[derive(Debug, Clone, Default)]
pub struct RewardHistory {
    per_accel: HashMap<AccelInstanceId, AccelHistory>,
}

#[derive(Debug, Clone, Default)]
struct AccelHistory {
    exec: RunningExtrema,
    comm: RunningExtrema,
    mem: RunningExtrema,
    invocations: u64,
}

impl RewardHistory {
    /// An empty history (as at the beginning of training).
    pub fn new() -> RewardHistory {
        RewardHistory::default()
    }

    /// Records the measurement of invocation `i` of accelerator `k` and
    /// returns the reward components. The current invocation participates in
    /// the running extrema (the paper's min/max run over `j ≤ i`), so the
    /// first invocation of an accelerator scores `R_exec = R_comm = R_mem = 1`.
    pub fn record(
        &mut self,
        accel: AccelInstanceId,
        measurement: &InvocationMeasurement,
    ) -> RewardComponents {
        let h = self.per_accel.entry(accel).or_default();
        let exec = measurement.scaled_exec();
        let comm = measurement.comm_ratio();
        let mem = measurement.scaled_mem();
        h.exec.observe(exec);
        h.comm.observe(comm);
        h.mem.observe(mem);
        h.invocations += 1;

        let r_exec = ratio_or_one(h.exec.min().unwrap_or(exec), exec);
        let r_comm = ratio_or_one(h.comm.min().unwrap_or(comm), comm);
        let r_mem = mem_component(mem, h.mem.min().unwrap_or(mem), h.mem.max().unwrap_or(mem));
        RewardComponents {
            r_exec,
            r_comm,
            r_mem,
        }
    }

    /// Number of recorded invocations for `accel`.
    pub fn invocations(&self, accel: AccelInstanceId) -> u64 {
        self.per_accel.get(&accel).map_or(0, |h| h.invocations)
    }

    /// Total recorded invocations across all accelerators.
    pub fn total_invocations(&self) -> u64 {
        self.per_accel.values().map(|h| h.invocations).sum()
    }

    /// Clears the history (used when switching from training to testing on a
    /// fresh application instance is *not* desired — the paper keeps the
    /// history; exposed for experiments).
    pub fn clear(&mut self) {
        self.per_accel.clear();
    }
}

/// `min / current`, defined as 1 when `current` is zero (e.g. a zero
/// communication ratio on a fully compute-bound invocation).
fn ratio_or_one(min: f64, current: f64) -> f64 {
    if current <= 0.0 {
        1.0
    } else {
        (min / current).clamp(0.0, 1.0)
    }
}

/// `R_mem = 1 − (mem − min)/(max − min)`, defined as 1 when `max == min`
/// (including the first invocation), since the paper's formula is 0/0 there
/// and the invocation is trivially "as good as the best seen".
fn mem_component(mem: f64, min: f64, max: f64) -> f64 {
    if max - min <= f64::EPSILON {
        1.0
    } else {
        (1.0 - (mem - min) / (max - min)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(
        total: u64,
        active: u64,
        comm: u64,
        mem: f64,
        footprint: u64,
    ) -> InvocationMeasurement {
        InvocationMeasurement {
            total_cycles: total,
            accel_active_cycles: active,
            accel_comm_cycles: comm,
            offchip_accesses: mem,
            footprint_bytes: footprint,
        }
    }

    #[test]
    fn scaled_metrics() {
        let m = measurement(1000, 800, 200, 64.0, 100);
        assert_eq!(m.scaled_exec(), 10.0);
        assert_eq!(m.comm_ratio(), 0.25);
        assert_eq!(m.scaled_mem(), 0.64);
    }

    #[test]
    fn comm_ratio_of_idle_accel_is_zero() {
        let m = measurement(1000, 0, 0, 0.0, 100);
        assert_eq!(m.comm_ratio(), 0.0);
    }

    #[test]
    fn weights_normalise() {
        let w = RewardWeights::new(2.0, 1.0, 1.0).unwrap();
        assert!((w.x() - 0.5).abs() < 1e-12);
        assert!((w.y() - 0.25).abs() < 1e-12);
        assert!((w.z() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn paper_default_weights() {
        let w = RewardWeights::paper_default();
        assert!((w.x() - 0.675).abs() < 1e-12);
        assert!((w.y() - 0.075).abs() < 1e-12);
        assert!((w.z() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn invalid_weights_rejected() {
        assert!(RewardWeights::new(0.0, 0.0, 0.0).is_err());
        assert!(RewardWeights::new(-1.0, 1.0, 1.0).is_err());
        assert!(RewardWeights::new(f64::NAN, 1.0, 1.0).is_err());
    }

    #[test]
    fn first_invocation_scores_perfect() {
        let mut h = RewardHistory::new();
        let c = h.record(AccelInstanceId(0), &measurement(1000, 800, 200, 64.0, 100));
        assert_eq!(c.r_exec, 1.0);
        assert_eq!(c.r_comm, 1.0);
        assert_eq!(c.r_mem, 1.0);
    }

    #[test]
    fn slower_invocation_scores_lower_exec() {
        let mut h = RewardHistory::new();
        h.record(AccelInstanceId(0), &measurement(1000, 800, 200, 64.0, 100));
        let c = h.record(AccelInstanceId(0), &measurement(2000, 800, 200, 64.0, 100));
        assert!((c.r_exec - 0.5).abs() < 1e-12);
        // comm and footprint unchanged; mem unchanged ⇒ max == min ⇒ 1.
        assert_eq!(c.r_comm, 1.0);
        assert_eq!(c.r_mem, 1.0);
    }

    #[test]
    fn mem_component_maps_extremes() {
        let mut h = RewardHistory::new();
        h.record(AccelInstanceId(0), &measurement(1000, 800, 200, 0.0, 100));
        h.record(AccelInstanceId(0), &measurement(1000, 800, 200, 100.0, 100));
        // A third invocation at the maximum scores 0, at the minimum scores 1.
        let worst = h.record(AccelInstanceId(0), &measurement(1000, 800, 200, 100.0, 100));
        assert_eq!(worst.r_mem, 0.0);
        let best = h.record(AccelInstanceId(0), &measurement(1000, 800, 200, 0.0, 100));
        assert_eq!(best.r_mem, 1.0);
        let mid = h.record(AccelInstanceId(0), &measurement(1000, 800, 200, 50.0, 100));
        assert!((mid.r_mem - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histories_are_per_accelerator() {
        let mut h = RewardHistory::new();
        h.record(AccelInstanceId(0), &measurement(1000, 800, 200, 64.0, 100));
        // Different accelerator: fresh history, perfect score even if slower.
        let c = h.record(AccelInstanceId(1), &measurement(9000, 800, 200, 64.0, 100));
        assert_eq!(c.r_exec, 1.0);
        assert_eq!(h.invocations(AccelInstanceId(0)), 1);
        assert_eq!(h.invocations(AccelInstanceId(1)), 1);
        assert_eq!(h.total_invocations(), 2);
    }

    #[test]
    fn components_always_in_unit_interval() {
        let mut h = RewardHistory::new();
        let cases = [
            measurement(1, 1, 1, 0.0, 1),
            measurement(u64::MAX / 2, 10, 10, 1e12, 1),
            measurement(5, 0, 0, 3.5, 1 << 40),
            measurement(100, 50, 50, 0.0, 64),
        ];
        for (i, m) in cases.iter().enumerate() {
            for accel in [AccelInstanceId(0), AccelInstanceId(i as u16)] {
                let c = h.record(accel, m);
                for v in [c.r_exec, c.r_comm, c.r_mem] {
                    assert!((0.0..=1.0).contains(&v), "component {v} out of range");
                }
            }
        }
    }

    #[test]
    fn combine_weights_components() {
        let w = RewardWeights::new(1.0, 1.0, 2.0).unwrap();
        let r = w.combine(RewardComponents {
            r_exec: 1.0,
            r_comm: 0.5,
            r_mem: 0.25,
        });
        assert!((r - (0.25 + 0.125 + 0.125)).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_history() {
        let mut h = RewardHistory::new();
        h.record(AccelInstanceId(0), &measurement(1000, 800, 200, 64.0, 100));
        h.clear();
        assert_eq!(h.total_invocations(), 0);
    }
}
