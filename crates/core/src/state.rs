//! The Q-learning state space of Table 3.
//!
//! A state is a 5-tuple of discretized attributes, each with three possible
//! values, giving |S| = 3⁵ = 243 states. Combined with the four coherence
//! modes as actions, the Q-table has 243 × 4 = 972 entries.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::snapshot::SystemSnapshot;

/// A three-valued count bucket: `0`, `1`, or `2+`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CountBucket {
    /// No accelerators.
    Zero,
    /// Exactly one.
    One,
    /// Two or more.
    TwoPlus,
}

impl CountBucket {
    /// All values in index order.
    pub const ALL: [CountBucket; 3] = [CountBucket::Zero, CountBucket::One, CountBucket::TwoPlus];

    /// Discretizes an exact integer count.
    pub fn from_count(count: usize) -> CountBucket {
        match count {
            0 => CountBucket::Zero,
            1 => CountBucket::One,
            _ => CountBucket::TwoPlus,
        }
    }

    /// Discretizes a fractional per-partition average.
    ///
    /// The paper does not specify how fractional averages are rounded; we
    /// round to the nearest integer with ties away from zero (0.5 ⇒ 1),
    /// as documented in `docs/ARCHITECTURE.md`, "Tuning and validation".
    pub fn from_average(avg: f64) -> CountBucket {
        let rounded = avg.round().max(0.0) as usize;
        CountBucket::from_count(rounded)
    }

    /// Stable index in `0..3`.
    pub fn index(self) -> usize {
        match self {
            CountBucket::Zero => 0,
            CountBucket::One => 1,
            CountBucket::TwoPlus => 2,
        }
    }
}

impl fmt::Display for CountBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountBucket::Zero => f.write_str("0"),
            CountBucket::One => f.write_str("1"),
            CountBucket::TwoPlus => f.write_str("2+"),
        }
    }
}

/// A three-valued footprint class: fits in an L2, fits in one LLC slice, or
/// exceeds an LLC slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FootprintClass {
    /// ≤ private (L2) cache capacity.
    FitsL2,
    /// ≤ one LLC slice (but larger than an L2).
    FitsLlcSlice,
    /// > one LLC slice.
    ExceedsLlcSlice,
}

impl FootprintClass {
    /// All values in index order.
    pub const ALL: [FootprintClass; 3] = [
        FootprintClass::FitsL2,
        FootprintClass::FitsLlcSlice,
        FootprintClass::ExceedsLlcSlice,
    ];

    /// Classifies `bytes` against the given cache capacities.
    pub fn classify(bytes: f64, l2_bytes: u64, llc_slice_bytes: u64) -> FootprintClass {
        if bytes <= l2_bytes as f64 {
            FootprintClass::FitsL2
        } else if bytes <= llc_slice_bytes as f64 {
            FootprintClass::FitsLlcSlice
        } else {
            FootprintClass::ExceedsLlcSlice
        }
    }

    /// Stable index in `0..3`.
    pub fn index(self) -> usize {
        match self {
            FootprintClass::FitsL2 => 0,
            FootprintClass::FitsLlcSlice => 1,
            FootprintClass::ExceedsLlcSlice => 2,
        }
    }
}

impl fmt::Display for FootprintClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FootprintClass::FitsL2 => f.write_str("≤L2"),
            FootprintClass::FitsLlcSlice => f.write_str("≤LLC slice"),
            FootprintClass::ExceedsLlcSlice => f.write_str(">LLC slice"),
        }
    }
}

/// A state `s ∈ S`: the 5-tuple of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct State {
    /// Total number of active fully-coherent accelerators.
    pub fully_coh_acc: CountBucket,
    /// Avg. non-coherent accelerators per memory partition needed by the
    /// target invocation.
    pub non_coh_acc_per_tile: CountBucket,
    /// Avg. accelerators accessing each LLC partition needed by the target
    /// invocation.
    pub to_llc_per_tile: CountBucket,
    /// Avg. utilization of each cache-hierarchy partition needed by the
    /// target invocation.
    pub tile_footprint: FootprintClass,
    /// Memory footprint of the target invocation itself.
    pub acc_footprint: FootprintClass,
}

impl State {
    /// Number of distinct states: 3⁵ = 243.
    pub const COUNT: usize = 243;

    /// Senses and discretizes a snapshot into a state, as the RL module does
    /// at the start of every invocation.
    pub fn from_snapshot(snapshot: &SystemSnapshot) -> State {
        let arch = snapshot.arch;
        State {
            fully_coh_acc: CountBucket::from_count(snapshot.fully_coherent_count()),
            non_coh_acc_per_tile: CountBucket::from_average(
                snapshot.avg_non_coh_per_needed_partition(),
            ),
            to_llc_per_tile: CountBucket::from_average(snapshot.avg_to_llc_per_needed_partition()),
            tile_footprint: FootprintClass::classify(
                snapshot.avg_needed_partition_footprint(),
                arch.l2_bytes,
                arch.llc_slice_bytes,
            ),
            acc_footprint: FootprintClass::classify(
                snapshot.target_footprint as f64,
                arch.l2_bytes,
                arch.llc_slice_bytes,
            ),
        }
    }

    /// The Q-table row index of this state, in `0..243`.
    pub fn index(&self) -> usize {
        let mut idx = self.fully_coh_acc.index();
        idx = idx * 3 + self.non_coh_acc_per_tile.index();
        idx = idx * 3 + self.to_llc_per_tile.index();
        idx = idx * 3 + self.tile_footprint.index();
        idx * 3 + self.acc_footprint.index()
    }

    /// Inverse of [`index`](Self::index).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 243`.
    pub fn from_index(index: usize) -> State {
        assert!(index < Self::COUNT, "state index {index} out of range");
        let acc_footprint = FootprintClass::ALL[index % 3];
        let index = index / 3;
        let tile_footprint = FootprintClass::ALL[index % 3];
        let index = index / 3;
        let to_llc_per_tile = CountBucket::ALL[index % 3];
        let index = index / 3;
        let non_coh_acc_per_tile = CountBucket::ALL[index % 3];
        let index = index / 3;
        let fully_coh_acc = CountBucket::ALL[index % 3];
        State {
            fully_coh_acc,
            non_coh_acc_per_tile,
            to_llc_per_tile,
            tile_footprint,
            acc_footprint,
        }
    }

    /// Iterates over all 243 states in index order.
    pub fn enumerate() -> impl Iterator<Item = State> {
        (0..Self::COUNT).map(State::from_index)
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(fc={}, nc/t={}, llc/t={}, tile={}, acc={})",
            self.fully_coh_acc,
            self.non_coh_acc_per_tile,
            self.to_llc_per_tile,
            self.tile_footprint,
            self.acc_footprint
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{ActiveAccel, ArchParams};
    use crate::{AccelInstanceId, CoherenceMode, PartitionId};

    #[test]
    fn count_bucket_discretization() {
        assert_eq!(CountBucket::from_count(0), CountBucket::Zero);
        assert_eq!(CountBucket::from_count(1), CountBucket::One);
        assert_eq!(CountBucket::from_count(2), CountBucket::TwoPlus);
        assert_eq!(CountBucket::from_count(17), CountBucket::TwoPlus);
    }

    #[test]
    fn average_bucket_rounds_to_nearest() {
        assert_eq!(CountBucket::from_average(0.0), CountBucket::Zero);
        assert_eq!(CountBucket::from_average(0.49), CountBucket::Zero);
        assert_eq!(CountBucket::from_average(0.5), CountBucket::One);
        assert_eq!(CountBucket::from_average(1.49), CountBucket::One);
        assert_eq!(CountBucket::from_average(1.5), CountBucket::TwoPlus);
        assert_eq!(CountBucket::from_average(8.0), CountBucket::TwoPlus);
    }

    #[test]
    fn footprint_classification_uses_inclusive_bounds() {
        let l2 = 32 * 1024;
        let slice = 256 * 1024;
        assert_eq!(
            FootprintClass::classify(32.0 * 1024.0, l2, slice),
            FootprintClass::FitsL2
        );
        assert_eq!(
            FootprintClass::classify(32.0 * 1024.0 + 1.0, l2, slice),
            FootprintClass::FitsLlcSlice
        );
        assert_eq!(
            FootprintClass::classify(256.0 * 1024.0, l2, slice),
            FootprintClass::FitsLlcSlice
        );
        assert_eq!(
            FootprintClass::classify(256.0 * 1024.0 + 1.0, l2, slice),
            FootprintClass::ExceedsLlcSlice
        );
    }

    #[test]
    fn state_count_is_243() {
        assert_eq!(State::COUNT, 243);
        assert_eq!(State::enumerate().count(), 243);
    }

    #[test]
    fn index_roundtrip_is_bijective() {
        for i in 0..State::COUNT {
            let s = State::from_index(i);
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn distinct_states_have_distinct_indices() {
        let mut seen = vec![false; State::COUNT];
        for s in State::enumerate() {
            assert!(!seen[s.index()]);
            seen[s.index()] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_rejects_out_of_range() {
        let _ = State::from_index(243);
    }

    #[test]
    fn sensing_an_idle_system_with_small_target() {
        let snapshot = SystemSnapshot::new(
            ArchParams::new(32 * 1024, 256 * 1024, 2),
            vec![],
            16 * 1024,
            vec![PartitionId(0)],
        );
        let s = State::from_snapshot(&snapshot);
        assert_eq!(s.fully_coh_acc, CountBucket::Zero);
        assert_eq!(s.non_coh_acc_per_tile, CountBucket::Zero);
        assert_eq!(s.to_llc_per_tile, CountBucket::Zero);
        assert_eq!(s.tile_footprint, FootprintClass::FitsL2);
        assert_eq!(s.acc_footprint, FootprintClass::FitsL2);
    }

    #[test]
    fn sensing_a_busy_system() {
        let mk = |id, mode, kb: u64| ActiveAccel {
            instance: AccelInstanceId(id),
            mode,
            footprint_bytes: kb * 1024,
            partitions: vec![PartitionId(0)],
        };
        let snapshot = SystemSnapshot::new(
            ArchParams::new(32 * 1024, 256 * 1024, 2),
            vec![
                mk(1, CoherenceMode::FullCoh, 16),
                mk(2, CoherenceMode::NonCohDma, 512),
                mk(3, CoherenceMode::CohDma, 64),
            ],
            300 * 1024,
            vec![PartitionId(0)],
        );
        let s = State::from_snapshot(&snapshot);
        assert_eq!(s.fully_coh_acc, CountBucket::One);
        assert_eq!(s.non_coh_acc_per_tile, CountBucket::One);
        // full-coh + coh-dma both route through the LLC.
        assert_eq!(s.to_llc_per_tile, CountBucket::TwoPlus);
        // 16 + 512 + 64 + 300 KiB on partition 0 → way beyond one slice.
        assert_eq!(s.tile_footprint, FootprintClass::ExceedsLlcSlice);
        // Target of 300 KiB > 256 KiB slice.
        assert_eq!(s.acc_footprint, FootprintClass::ExceedsLlcSlice);
    }

    #[test]
    fn display_is_human_readable() {
        let s = State::from_index(0);
        let text = s.to_string();
        assert!(text.contains("fc=0"));
        assert!(text.contains("≤L2"));
    }
}
