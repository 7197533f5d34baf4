//! The "sense" phase: a compact snapshot of SoC status.
//!
//! Tracking the complete state of an SoC is intractable, so the paper's
//! software layer records only the variables shown to matter (Section 4.1):
//! the number of active accelerators, the coherence mode of each, and their
//! memory footprints — plus which memory partitions each active dataset maps
//! to, because contention is per-partition. [`SystemSnapshot`] is that
//! record, taken at the moment one particular accelerator is about to be
//! invoked (the *target* invocation).

use serde::{Deserialize, Serialize};

use crate::modes::CoherenceMode;
use crate::{AccelInstanceId, PartitionId};

/// The architecture constants the sense layer needs in order to discretize
/// footprints: private-cache and LLC-slice capacities and the number of
/// memory partitions. These mirror the per-SoC rows of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchParams {
    /// Capacity of one private (L2) cache in bytes.
    pub l2_bytes: u64,
    /// Capacity of one LLC partition (slice) in bytes.
    pub llc_slice_bytes: u64,
    /// Number of memory partitions (LLC slice + DRAM controller pairs).
    pub num_partitions: usize,
}

impl ArchParams {
    /// Convenience constructor.
    pub fn new(l2_bytes: u64, llc_slice_bytes: u64, num_partitions: usize) -> ArchParams {
        ArchParams {
            l2_bytes,
            llc_slice_bytes,
            num_partitions,
        }
    }

    /// Aggregate LLC capacity across all partitions.
    pub fn llc_total_bytes(&self) -> u64 {
        self.llc_slice_bytes * self.num_partitions as u64
    }
}

/// One currently-active accelerator invocation, as recorded by the status
/// tracker when the accelerator was started.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActiveAccel {
    /// Which accelerator tile is running.
    pub instance: AccelInstanceId,
    /// The coherence mode it was started with.
    pub mode: CoherenceMode,
    /// Memory footprint (workload size) of its invocation, in bytes.
    pub footprint_bytes: u64,
    /// The memory partitions its dataset maps to. The footprint is assumed
    /// to be spread evenly across them (ESP allocates datasets in contiguous
    /// big pages, so this is typically a single partition).
    pub partitions: Vec<PartitionId>,
}

impl ActiveAccel {
    /// The share of this accelerator's footprint that falls on `partition`
    /// (0 if the dataset does not touch it).
    pub fn footprint_on(&self, partition: PartitionId) -> f64 {
        if self.partitions.contains(&partition) {
            self.footprint_bytes as f64 / self.partitions.len() as f64
        } else {
            0.0
        }
    }

    /// Does this accelerator's dataset touch `partition`?
    pub fn touches(&self, partition: PartitionId) -> bool {
        self.partitions.contains(&partition)
    }
}

/// Per-partition aggregates of the active set, indexed by
/// [`PartitionId`]. Built by [`SystemSnapshot::build_aggregates`]; lets the
/// sense path answer its per-partition questions with one array load per
/// needed partition instead of a pass over every active accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PartitionLoad {
    /// Active non-coherent-DMA accelerators touching this partition.
    pub non_coh: u32,
    /// Active accelerators whose mode routes through this LLC partition.
    pub to_llc: u32,
    /// Sum of active footprint shares on this partition, in bytes.
    /// Accumulated in active-list (instance-id) order, so it is bit-equal
    /// to the on-demand sum the slow path computes.
    pub footprint: f64,
}

/// A snapshot of system status taken when a target accelerator is about to
/// be invoked. Input to every [`Policy`](crate::policy::Policy).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemSnapshot {
    /// Architecture constants of the SoC this snapshot was taken on.
    pub arch: ArchParams,
    /// All accelerators active at snapshot time (excluding the target).
    pub active: Vec<ActiveAccel>,
    /// Memory footprint of the target invocation, in bytes.
    pub target_footprint: u64,
    /// The memory partitions the target invocation's dataset maps to.
    pub target_partitions: Vec<PartitionId>,
    /// Dense per-partition aggregates (index = `PartitionId.0`); empty
    /// until [`build_aggregates`](Self::build_aggregates) runs. Must be
    /// rebuilt (or left empty) after any mutation of `active`; the
    /// generation-stamped scratch in
    /// [`StatusTracker`](crate::status::StatusTracker) does exactly that.
    #[serde(skip)]
    pub(crate) agg: Vec<PartitionLoad>,
    /// Active fully-coherent accelerators; valid iff `agg` is non-empty.
    #[serde(skip)]
    pub(crate) fully_coh: u32,
}

/// Aggregates are a derived cache, not part of a snapshot's identity: two
/// snapshots are equal iff their logical fields are.
impl PartialEq for SystemSnapshot {
    fn eq(&self, other: &SystemSnapshot) -> bool {
        self.arch == other.arch
            && self.active == other.active
            && self.target_footprint == other.target_footprint
            && self.target_partitions == other.target_partitions
    }
}

impl SystemSnapshot {
    /// Creates a snapshot. `target_partitions` must be non-empty; an
    /// invocation always touches at least one memory partition.
    ///
    /// # Panics
    ///
    /// Panics if `target_partitions` is empty.
    pub fn new(
        arch: ArchParams,
        active: Vec<ActiveAccel>,
        target_footprint: u64,
        target_partitions: Vec<PartitionId>,
    ) -> SystemSnapshot {
        assert!(
            !target_partitions.is_empty(),
            "target invocation must map to at least one memory partition"
        );
        SystemSnapshot {
            arch,
            active,
            target_footprint,
            target_partitions,
            agg: Vec::new(),
            fully_coh: 0,
        }
    }

    /// Builds the dense per-partition aggregate table from the current
    /// active list, making every per-partition sense query O(needed
    /// partitions) instead of O(active × partitions).
    ///
    /// Footprint shares are accumulated in active-list order, so each
    /// partition's sum performs the identical f64 additions the on-demand
    /// path performs (skipped zero contributions are exact no-ops for
    /// non-negative footprints) — sensed states are bit-identical either
    /// way. Callers that mutate `active` afterwards must rebuild.
    pub fn build_aggregates(&mut self) {
        self.agg.clear();
        self.agg
            .resize(self.arch.num_partitions, PartitionLoad::default());
        self.fully_coh = 0;
        for a in &self.active {
            if a.mode == CoherenceMode::FullCoh {
                self.fully_coh += 1;
            }
            let non_coh = a.mode == CoherenceMode::NonCohDma;
            let to_llc = a.mode.accesses_llc();
            let share = a.footprint_bytes as f64 / a.partitions.len() as f64;
            for &p in &a.partitions {
                let i = p.0 as usize;
                if i >= self.agg.len() {
                    self.agg.resize(i + 1, PartitionLoad::default());
                }
                let slot = &mut self.agg[i];
                slot.non_coh += u32::from(non_coh);
                slot.to_llc += u32::from(to_llc);
                slot.footprint += share;
            }
        }
    }

    /// The per-partition aggregate table, if
    /// [`build_aggregates`](Self::build_aggregates) has run (indexed by
    /// `PartitionId.0`).
    pub fn partition_loads(&self) -> Option<&[PartitionLoad]> {
        if self.agg.is_empty() {
            None
        } else {
            Some(&self.agg)
        }
    }

    /// Number of active accelerators (the target not included).
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Number of active accelerators currently in `mode`.
    pub fn active_in_mode(&self, mode: CoherenceMode) -> usize {
        self.active.iter().filter(|a| a.mode == mode).count()
    }

    /// Sum of the footprints of all active accelerators, in bytes.
    /// (`active_footprint` in Algorithm 1.)
    pub fn active_footprint_bytes(&self) -> u64 {
        self.active.iter().map(|a| a.footprint_bytes).sum()
    }

    /// *Fully coh acc* attribute of Table 3: total number of active
    /// fully-coherent accelerators.
    pub fn fully_coherent_count(&self) -> usize {
        if !self.agg.is_empty() {
            return self.fully_coh as usize;
        }
        self.active_in_mode(CoherenceMode::FullCoh)
    }

    /// The aggregate slot for a partition (zero if no active accelerator
    /// touches it — exactly what a pass over the active list would find).
    fn load_of(&self, p: PartitionId) -> PartitionLoad {
        self.agg.get(p.0 as usize).copied().unwrap_or_default()
    }

    /// *Non coh acc per tile* of Table 3: average number of non-coherent
    /// accelerators communicating with each memory partition needed by the
    /// target invocation.
    pub fn avg_non_coh_per_needed_partition(&self) -> f64 {
        if !self.agg.is_empty() {
            return self.avg_over_needed_partitions(|p| self.load_of(p).non_coh as f64);
        }
        self.avg_over_needed_partitions(|p| {
            self.active
                .iter()
                .filter(|a| a.mode == CoherenceMode::NonCohDma && a.touches(p))
                .count() as f64
        })
    }

    /// *To LLC per tile* of Table 3: average number of accelerators whose
    /// requests reach each LLC partition needed by the target invocation
    /// (every mode except non-coherent DMA routes through the LLC).
    pub fn avg_to_llc_per_needed_partition(&self) -> f64 {
        if !self.agg.is_empty() {
            return self.avg_over_needed_partitions(|p| self.load_of(p).to_llc as f64);
        }
        self.avg_over_needed_partitions(|p| {
            self.active
                .iter()
                .filter(|a| a.mode.accesses_llc() && a.touches(p))
                .count() as f64
        })
    }

    /// *Tile footprint* of Table 3 (before discretization): average number of
    /// bytes of active data — including the target's own share — mapped to
    /// each cache-hierarchy partition needed by the target invocation.
    pub fn avg_needed_partition_footprint(&self) -> f64 {
        let target_share = self.target_footprint as f64 / self.target_partitions.len() as f64;
        if !self.agg.is_empty() {
            return self.avg_over_needed_partitions(|p| self.load_of(p).footprint + target_share);
        }
        self.avg_over_needed_partitions(|p| {
            let others: f64 = self.active.iter().map(|a| a.footprint_on(p)).sum();
            others + target_share
        })
    }

    /// Averages `f(partition)` over the partitions needed by the target.
    fn avg_over_needed_partitions<F: Fn(PartitionId) -> f64>(&self, f: F) -> f64 {
        let sum: f64 = self.target_partitions.iter().map(|&p| f(p)).sum();
        sum / self.target_partitions.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> ArchParams {
        ArchParams::new(32 * 1024, 256 * 1024, 2)
    }

    fn active(id: u16, mode: CoherenceMode, kb: u64, parts: &[u16]) -> ActiveAccel {
        ActiveAccel {
            instance: AccelInstanceId(id),
            mode,
            footprint_bytes: kb * 1024,
            partitions: parts.iter().map(|&p| PartitionId(p)).collect(),
        }
    }

    #[test]
    fn llc_total_is_slices_times_partitions() {
        assert_eq!(arch().llc_total_bytes(), 512 * 1024);
    }

    #[test]
    fn empty_system_has_zero_everything() {
        let s = SystemSnapshot::new(arch(), vec![], 4096, vec![PartitionId(0)]);
        assert_eq!(s.active_count(), 0);
        assert_eq!(s.fully_coherent_count(), 0);
        assert_eq!(s.avg_non_coh_per_needed_partition(), 0.0);
        assert_eq!(s.avg_to_llc_per_needed_partition(), 0.0);
        // Only the target's own footprint counts toward partition pressure.
        assert_eq!(s.avg_needed_partition_footprint(), 4096.0);
    }

    #[test]
    #[should_panic(expected = "at least one memory partition")]
    fn empty_target_partitions_panics() {
        SystemSnapshot::new(arch(), vec![], 4096, vec![]);
    }

    #[test]
    fn counts_by_mode() {
        let s = SystemSnapshot::new(
            arch(),
            vec![
                active(1, CoherenceMode::FullCoh, 16, &[0]),
                active(2, CoherenceMode::FullCoh, 16, &[1]),
                active(3, CoherenceMode::NonCohDma, 64, &[0]),
            ],
            16 * 1024,
            vec![PartitionId(0)],
        );
        assert_eq!(s.fully_coherent_count(), 2);
        assert_eq!(s.active_in_mode(CoherenceMode::NonCohDma), 1);
        assert_eq!(s.active_footprint_bytes(), 96 * 1024);
    }

    #[test]
    fn per_partition_averages_respect_partition_mapping() {
        // Two non-coherent accelerators on partition 0, none on partition 1.
        let s = SystemSnapshot::new(
            arch(),
            vec![
                active(1, CoherenceMode::NonCohDma, 16, &[0]),
                active(2, CoherenceMode::NonCohDma, 16, &[0]),
            ],
            4096,
            vec![PartitionId(0), PartitionId(1)],
        );
        // Target needs both partitions; avg over {2, 0} = 1.
        assert_eq!(s.avg_non_coh_per_needed_partition(), 1.0);

        let s_only_p0 = SystemSnapshot::new(s.arch, s.active.clone(), 4096, vec![PartitionId(0)]);
        assert_eq!(s_only_p0.avg_non_coh_per_needed_partition(), 2.0);
    }

    #[test]
    fn to_llc_counts_all_llc_modes() {
        let s = SystemSnapshot::new(
            arch(),
            vec![
                active(1, CoherenceMode::LlcCohDma, 16, &[0]),
                active(2, CoherenceMode::CohDma, 16, &[0]),
                active(3, CoherenceMode::FullCoh, 16, &[0]),
                active(4, CoherenceMode::NonCohDma, 16, &[0]),
            ],
            4096,
            vec![PartitionId(0)],
        );
        assert_eq!(s.avg_to_llc_per_needed_partition(), 3.0);
    }

    #[test]
    fn footprint_share_splits_across_partitions() {
        let a = active(1, CoherenceMode::CohDma, 64, &[0, 1]);
        assert_eq!(a.footprint_on(PartitionId(0)), 32.0 * 1024.0);
        assert_eq!(a.footprint_on(PartitionId(1)), 32.0 * 1024.0);
        assert_eq!(a.footprint_on(PartitionId(9)), 0.0);
    }

    #[test]
    fn aggregates_match_on_demand_answers_bit_for_bit() {
        // A mix that exercises every attribute: all four modes, multi- and
        // single-partition datasets, and fractional per-partition shares.
        let mut s = SystemSnapshot::new(
            arch(),
            vec![
                active(1, CoherenceMode::FullCoh, 48, &[0]),
                active(2, CoherenceMode::NonCohDma, 33, &[0, 1]),
                active(3, CoherenceMode::LlcCohDma, 7, &[1]),
                active(4, CoherenceMode::CohDma, 129, &[0]),
                active(5, CoherenceMode::NonCohDma, 500, &[1]),
            ],
            100 * 1024,
            vec![PartitionId(0), PartitionId(1)],
        );
        let slow = (
            s.fully_coherent_count(),
            s.avg_non_coh_per_needed_partition(),
            s.avg_to_llc_per_needed_partition(),
            s.avg_needed_partition_footprint(),
        );
        s.build_aggregates();
        assert!(s.partition_loads().is_some());
        let fast = (
            s.fully_coherent_count(),
            s.avg_non_coh_per_needed_partition(),
            s.avg_to_llc_per_needed_partition(),
            s.avg_needed_partition_footprint(),
        );
        // Bit-for-bit, not approximately: the sense path must discretize
        // identically with or without the aggregate table.
        assert_eq!(slow.0, fast.0);
        assert_eq!(slow.1.to_bits(), fast.1.to_bits());
        assert_eq!(slow.2.to_bits(), fast.2.to_bits());
        assert_eq!(slow.3.to_bits(), fast.3.to_bits());
    }

    #[test]
    fn aggregates_do_not_affect_snapshot_equality() {
        let mut a = SystemSnapshot::new(
            arch(),
            vec![active(1, CoherenceMode::FullCoh, 48, &[0])],
            4096,
            vec![PartitionId(0)],
        );
        let b = a.clone();
        a.build_aggregates();
        assert_eq!(a, b);
    }

    #[test]
    fn partition_footprint_includes_target_share() {
        let s = SystemSnapshot::new(
            arch(),
            vec![active(1, CoherenceMode::CohDma, 64, &[0])],
            32 * 1024,
            vec![PartitionId(0)],
        );
        assert_eq!(s.avg_needed_partition_footprint(), (64.0 + 32.0) * 1024.0);
    }
}
