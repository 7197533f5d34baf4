//! State-space discretization: the [`StateSpace`] of the learning agent.
//!
//! Table 3 of the paper fixes one particular discretization — five
//! attributes, three buckets each, 3⁵ = 243 states. Related work argues
//! the interesting design space is exactly this axis (finer per-access-
//! pattern features vs. cheaper coarse sensing), so the agent takes the
//! discretizer as a component. Three spaces ship:
//!
//! * [`StateSpace::Table3`] — the paper's 243-state space (the default).
//! * [`StateSpace::Coarse`] — a 27-state subset (3 of the 5 attributes),
//!   the cheapest discretization that still sees contention and footprint.
//! * [`StateSpace::Extended`] — 2187 states: Table 3 plus total-load
//!   attributes (active-accelerator count and aggregate active footprint),
//!   the "richer state features" direction of the fine-grain-specialization
//!   literature.

use serde::{Deserialize, Serialize};

use crate::snapshot::SystemSnapshot;
use crate::state::{CountBucket, FootprintClass, State};

/// A discretizer from system snapshots to dense state indices.
///
/// Every space is a pure function of the snapshot (no internal state, no
/// randomness): the same snapshot always encodes to the same index, which
/// is what makes grid cells and training runs reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StateSpace {
    /// A coarse 3³ = 27-state space: fully-coherent count, LLC sharers per
    /// needed partition, and the target's own footprint class.
    ///
    /// Drops the two per-partition pressure attributes of Table 3 — the
    /// cheapest sensing that still distinguishes "idle", "LLC contended"
    /// and "big footprint" regimes. Useful as the low end of state-space
    /// ablations: how much of Cohmeleon's win needs the full Table-3
    /// detail?
    Coarse,
    /// The paper's Table-3 state space: 3⁵ = 243 states.
    ///
    /// Encoding is [`State::from_snapshot`] then [`State::index`], so a
    /// [`LearnedPolicy`](crate::agent::LearnedPolicy) over this space is
    /// bit-identical to the pre-redesign hardwired agent.
    Table3,
    /// An extended 3⁷ = 2187-state space: the five Table-3 attributes plus
    /// two whole-system load attributes — the bucketed count of *all*
    /// active accelerators (any mode) and the aggregate active footprint
    /// class against the total LLC capacity.
    ///
    /// The extra attributes let the agent separate "one noisy neighbour"
    /// from "system saturated" even when the per-needed-partition averages
    /// agree. Its Q-table holds 2187 × 4 entries (68 KiB), most of them
    /// never visited in training.
    Extended,
}

impl StateSpace {
    /// All state spaces, coarse to fine (the `learners` grid's order).
    pub const ALL: [StateSpace; 3] = [StateSpace::Coarse, StateSpace::Table3, StateSpace::Extended];

    /// The stable string form (`"coarse"`, `"table3"`, `"extended"`) — a
    /// persisted segment of `LearnerSpec` labels, so never rename one.
    pub fn label(self) -> &'static str {
        match self {
            StateSpace::Coarse => "coarse",
            StateSpace::Table3 => "table3",
            StateSpace::Extended => "extended",
        }
    }

    /// Number of distinct states; encoded indices lie in `0..cardinality()`.
    pub fn cardinality(self) -> usize {
        match self {
            StateSpace::Coarse => 27,
            StateSpace::Table3 => State::COUNT,
            StateSpace::Extended => State::COUNT * 9,
        }
    }

    /// Senses and discretizes `snapshot` into a state index.
    pub fn encode(self, snapshot: &SystemSnapshot) -> usize {
        self.encode_sensed(snapshot, &State::from_snapshot(snapshot))
    }

    /// [`encode`](Self::encode) given the already-sensed Table-3 [`State`]
    /// of the same snapshot. The agent senses once per decision (the
    /// sensed state is recorded on every
    /// [`Decision`](crate::policy::Decision)) and shares it here, so every
    /// space derives its Table-3 attributes from the shared tuple instead
    /// of discretizing the snapshot a second time on the hot decide path.
    pub fn encode_sensed(self, snapshot: &SystemSnapshot, sensed: &State) -> usize {
        match self {
            // The three attributes are a subset of the Table-3 tuple.
            StateSpace::Coarse => {
                (sensed.fully_coh_acc.index() * 3 + sensed.to_llc_per_tile.index()) * 3
                    + sensed.acc_footprint.index()
            }
            StateSpace::Table3 => sensed.index(),
            StateSpace::Extended => {
                let active = CountBucket::from_count(snapshot.active_count());
                let arch = snapshot.arch;
                let load = FootprintClass::classify(
                    snapshot.active_footprint_bytes() as f64,
                    arch.llc_slice_bytes,
                    arch.llc_total_bytes(),
                );
                (sensed.index() * 3 + active.index()) * 3 + load.index()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::CoherenceMode;
    use crate::snapshot::{ActiveAccel, ArchParams};
    use crate::{AccelInstanceId, PartitionId};

    fn arch() -> ArchParams {
        ArchParams::new(32 * 1024, 256 * 1024, 2)
    }

    fn idle(footprint: u64) -> SystemSnapshot {
        SystemSnapshot::new(arch(), vec![], footprint, vec![PartitionId(0)])
    }

    fn busy(n: usize, footprint: u64) -> SystemSnapshot {
        let active = (0..n)
            .map(|i| ActiveAccel {
                instance: AccelInstanceId(i as u16),
                mode: CoherenceMode::FullCoh,
                footprint_bytes: 128 * 1024,
                partitions: vec![PartitionId(0)],
            })
            .collect();
        SystemSnapshot::new(arch(), active, footprint, vec![PartitionId(0)])
    }

    /// Two LLC-coherent accelerators on the target's partition and a
    /// non-coherent one on the other. With a 64 KiB target, the three
    /// coarse attributes (0 fully coherent, 2+ LLC sharers, fits an LLC
    /// slice) all bucket differently, which the `busy` snapshots never do.
    fn mixed(footprint: u64) -> SystemSnapshot {
        let modes = [
            (CoherenceMode::LlcCohDma, 0),
            (CoherenceMode::LlcCohDma, 0),
            (CoherenceMode::NonCohDma, 1),
        ];
        let active = modes
            .iter()
            .enumerate()
            .map(|(i, &(mode, p))| ActiveAccel {
                instance: AccelInstanceId(i as u16),
                mode,
                footprint_bytes: 128 * 1024,
                partitions: vec![PartitionId(p)],
            })
            .collect();
        SystemSnapshot::new(arch(), active, footprint, vec![PartitionId(0)])
    }

    #[test]
    fn table3_space_matches_state_encoding() {
        let space = StateSpace::Table3;
        assert_eq!(space.cardinality(), 243);
        for snap in [idle(1024), busy(2, 512 * 1024)] {
            assert_eq!(space.encode(&snap), State::from_snapshot(&snap).index());
        }
    }

    #[test]
    fn every_space_encodes_within_cardinality() {
        let snaps = [
            idle(1024),
            idle(1 << 20),
            busy(1, 4096),
            busy(5, 300 * 1024),
            mixed(64 * 1024),
        ];
        for space in StateSpace::ALL {
            for snap in &snaps {
                let idx = space.encode(snap);
                assert!(
                    idx < space.cardinality(),
                    "{}: {idx} >= {}",
                    space.label(),
                    space.cardinality()
                );
            }
        }
    }

    /// The coarse attributes computed straight from the snapshot, without
    /// the Table-3 tuple: an independent reference for the sensed
    /// shortcut.
    fn coarse_from_snapshot(snapshot: &SystemSnapshot) -> usize {
        let arch = snapshot.arch;
        let fully_coh = CountBucket::from_count(snapshot.fully_coherent_count());
        let to_llc = CountBucket::from_average(snapshot.avg_to_llc_per_needed_partition());
        let acc_footprint = FootprintClass::classify(
            snapshot.target_footprint as f64,
            arch.l2_bytes,
            arch.llc_slice_bytes,
        );
        (fully_coh.index() * 3 + to_llc.index()) * 3 + acc_footprint.index()
    }

    #[test]
    fn encode_sensed_agrees_with_encode_everywhere() {
        let snaps = [
            idle(1024),
            idle(1 << 20),
            busy(1, 4096),
            busy(5, 300 * 1024),
            mixed(64 * 1024),
        ];
        for space in StateSpace::ALL {
            for snap in &snaps {
                let sensed = State::from_snapshot(snap);
                assert_eq!(
                    space.encode_sensed(snap, &sensed),
                    space.encode(snap),
                    "{}",
                    space.label()
                );
            }
        }
        for snap in &snaps {
            assert_eq!(StateSpace::Coarse.encode(snap), coarse_from_snapshot(snap));
        }
    }

    #[test]
    fn coarse_space_separates_idle_from_contended() {
        let space = StateSpace::Coarse;
        assert_ne!(space.encode(&idle(1024)), space.encode(&busy(3, 1024)));
        assert_ne!(space.encode(&idle(1024)), space.encode(&idle(1 << 20)));
    }

    #[test]
    fn extended_space_refines_table3() {
        // Snapshots that Table 3 can distinguish, Extended must too —
        // it embeds the Table-3 index in its high digits.
        let space = StateSpace::Extended;
        let a = idle(1024);
        let b = idle(1 << 20);
        assert_ne!(space.encode(&a), space.encode(&b));
        assert_eq!(space.encode(&a) / 9, State::from_snapshot(&a).index());
        // And it separates load levels Table 3 conflates: 2 vs 5 active
        // accelerators on the same partition both bucket to "2+" per tile,
        // but differ in aggregate footprint class.
        let two = busy(2, 4096);
        let five = busy(5, 4096);
        assert_eq!(
            State::from_snapshot(&two).index(),
            State::from_snapshot(&five).index()
        );
        assert_ne!(space.encode(&two), space.encode(&five));
    }
}
