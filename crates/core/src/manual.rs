//! Algorithm 1: the manually-tuned coherence-mode selection.
//!
//! The paper's authors distilled tens of thousands of accelerator invocations
//! on ESP into an introspective heuristic that minimizes runtime for
//! accelerators in an ESP SoC. It serves as the strongest non-learning
//! baseline ("manual") in every experiment; unlike Cohmeleon it needs manual
//! re-tuning for other architectures (Section 6 shows it falling behind on
//! SoC5).
//!
//! The algorithm, verbatim from the paper:
//!
//! ```text
//! if footprint ≤ EXTRA_SMALL_THRESHOLD:            FULLY-COH
//! else if footprint ≤ CACHE_L2_SIZE:
//!     if active_coh_dma > active_fully_coh:        FULLY-COH
//!     else:                                        COH-DMA
//! else if footprint + active_footprint > CACHE_LLC_SIZE:  NON-COH
//! else:
//!     if active_non_coh ≥ 2:                       LLC-COH-DMA
//!     else:                                        COH-DMA
//! ```

use serde::{Deserialize, Serialize};

use crate::modes::{CoherenceMode, ModeSet};
use crate::snapshot::SystemSnapshot;

/// The tuning constants of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManualThresholds {
    /// `EXTRA_SMALL_THRESHOLD`: below this footprint, always fully-coherent.
    pub extra_small_bytes: u64,
    /// `CACHE_L2_SIZE`: the private-cache capacity.
    pub l2_bytes: u64,
    /// `CACHE_LLC_SIZE`: the aggregate LLC capacity.
    pub llc_bytes: u64,
}

impl ManualThresholds {
    /// Derives the thresholds from architecture parameters, with the
    /// extra-small threshold at 1/8 of the L2 (4 KiB for a 32 KiB L2) —
    /// the tuning that reproduces the paper's decision mix in Figure 7.
    pub fn for_arch(arch: &crate::snapshot::ArchParams) -> ManualThresholds {
        ManualThresholds {
            extra_small_bytes: arch.l2_bytes / 8,
            l2_bytes: arch.l2_bytes,
            llc_bytes: arch.llc_total_bytes(),
        }
    }
}

/// Runs Algorithm 1 on a snapshot and returns its choice, before
/// availability is considered.
pub fn algorithm1(snapshot: &SystemSnapshot, thresholds: &ManualThresholds) -> CoherenceMode {
    let footprint = snapshot.target_footprint;
    let active_footprint = snapshot.active_footprint_bytes();
    let active_coh_dma = snapshot.active_in_mode(CoherenceMode::CohDma);
    let active_fully_coh = snapshot.active_in_mode(CoherenceMode::FullCoh);
    let active_non_coh = snapshot.active_in_mode(CoherenceMode::NonCohDma);

    if footprint <= thresholds.extra_small_bytes {
        CoherenceMode::FullCoh
    } else if footprint <= thresholds.l2_bytes {
        if active_coh_dma > active_fully_coh {
            CoherenceMode::FullCoh
        } else {
            CoherenceMode::CohDma
        }
    } else if footprint + active_footprint > thresholds.llc_bytes {
        CoherenceMode::NonCohDma
    } else if active_non_coh >= 2 {
        CoherenceMode::LlcCohDma
    } else {
        CoherenceMode::CohDma
    }
}

/// Like [`algorithm1`], but degrades to the "closest" available mode when
/// the preferred one is not supported (e.g. fully-coherent on a tile with no
/// private cache). Preference order: the algorithm's choice, then modes in
/// increasing hardware-coherence distance.
pub fn algorithm1_restricted(
    snapshot: &SystemSnapshot,
    thresholds: &ManualThresholds,
    available: ModeSet,
) -> CoherenceMode {
    assert!(!available.is_empty(), "no coherence modes available");
    let preferred = algorithm1(snapshot, thresholds);
    if available.contains(preferred) {
        return preferred;
    }
    // Fallback orders chosen by adjacency in the coherence spectrum of
    // Figure 1 (non-coh ↔ llc-coh ↔ coh-dma ↔ full-coh).
    let order: &[CoherenceMode] = match preferred {
        CoherenceMode::NonCohDma => &[
            CoherenceMode::LlcCohDma,
            CoherenceMode::CohDma,
            CoherenceMode::FullCoh,
        ],
        CoherenceMode::LlcCohDma => &[
            CoherenceMode::NonCohDma,
            CoherenceMode::CohDma,
            CoherenceMode::FullCoh,
        ],
        CoherenceMode::CohDma => &[
            CoherenceMode::LlcCohDma,
            CoherenceMode::FullCoh,
            CoherenceMode::NonCohDma,
        ],
        CoherenceMode::FullCoh => &[
            CoherenceMode::CohDma,
            CoherenceMode::LlcCohDma,
            CoherenceMode::NonCohDma,
        ],
    };
    order
        .iter()
        .copied()
        .find(|m| available.contains(*m))
        .expect("available is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{ActiveAccel, ArchParams};
    use crate::{AccelInstanceId, PartitionId};

    fn arch() -> ArchParams {
        // 32 KiB L2, 2 × 256 KiB LLC ⇒ 512 KiB total LLC.
        ArchParams::new(32 * 1024, 256 * 1024, 2)
    }

    fn thresholds() -> ManualThresholds {
        ManualThresholds::for_arch(&arch())
    }

    fn snapshot(active: Vec<ActiveAccel>, footprint: u64) -> SystemSnapshot {
        SystemSnapshot::new(arch(), active, footprint, vec![PartitionId(0)])
    }

    fn running(id: u16, mode: CoherenceMode, bytes: u64) -> ActiveAccel {
        ActiveAccel {
            instance: AccelInstanceId(id),
            mode,
            footprint_bytes: bytes,
            partitions: vec![PartitionId(0)],
        }
    }

    #[test]
    fn thresholds_from_arch() {
        let t = thresholds();
        assert_eq!(t.extra_small_bytes, 4 * 1024);
        assert_eq!(t.l2_bytes, 32 * 1024);
        assert_eq!(t.llc_bytes, 512 * 1024);
    }

    #[test]
    fn extra_small_footprint_goes_fully_coherent() {
        let s = snapshot(vec![], 2 * 1024);
        assert_eq!(algorithm1(&s, &thresholds()), CoherenceMode::FullCoh);
    }

    #[test]
    fn l2_sized_footprint_prefers_coh_dma_when_balanced() {
        let s = snapshot(vec![], 16 * 1024);
        assert_eq!(algorithm1(&s, &thresholds()), CoherenceMode::CohDma);
    }

    #[test]
    fn l2_sized_footprint_balances_against_coh_dma_population() {
        // More coherent-DMA accelerators active than fully-coherent ones
        // ⇒ steer toward fully-coherent to spread load.
        let s = snapshot(vec![running(1, CoherenceMode::CohDma, 8 * 1024)], 16 * 1024);
        assert_eq!(algorithm1(&s, &thresholds()), CoherenceMode::FullCoh);
        // Equal counts ⇒ coherent DMA.
        let s = snapshot(
            vec![
                running(1, CoherenceMode::CohDma, 8 * 1024),
                running(2, CoherenceMode::FullCoh, 8 * 1024),
            ],
            16 * 1024,
        );
        assert_eq!(algorithm1(&s, &thresholds()), CoherenceMode::CohDma);
    }

    #[test]
    fn llc_overflow_goes_non_coherent() {
        // footprint + active_footprint > 512 KiB.
        let s = snapshot(
            vec![running(1, CoherenceMode::CohDma, 400 * 1024)],
            200 * 1024,
        );
        assert_eq!(algorithm1(&s, &thresholds()), CoherenceMode::NonCohDma);
        // A lone 600 KiB invocation also overflows.
        let s = snapshot(vec![], 600 * 1024);
        assert_eq!(algorithm1(&s, &thresholds()), CoherenceMode::NonCohDma);
    }

    #[test]
    fn medium_footprint_avoids_non_coherent_crowd() {
        // Fits in LLC with room; two non-coherent accelerators already
        // hammering DRAM ⇒ LLC-coherent DMA.
        let s = snapshot(
            vec![
                running(1, CoherenceMode::NonCohDma, 16 * 1024),
                running(2, CoherenceMode::NonCohDma, 16 * 1024),
            ],
            100 * 1024,
        );
        assert_eq!(algorithm1(&s, &thresholds()), CoherenceMode::LlcCohDma);
        // Fewer than two ⇒ coherent DMA.
        let s = snapshot(
            vec![running(1, CoherenceMode::NonCohDma, 16 * 1024)],
            100 * 1024,
        );
        assert_eq!(algorithm1(&s, &thresholds()), CoherenceMode::CohDma);
    }

    #[test]
    fn boundary_footprints_are_inclusive() {
        // Exactly the extra-small threshold ⇒ fully coherent.
        let s = snapshot(vec![], 4 * 1024);
        assert_eq!(algorithm1(&s, &thresholds()), CoherenceMode::FullCoh);
        // Exactly L2 size ⇒ the L2 branch, not the LLC branch.
        let s = snapshot(vec![], 32 * 1024);
        assert_eq!(algorithm1(&s, &thresholds()), CoherenceMode::CohDma);
        // Exactly LLC size with nothing active ⇒ not an overflow.
        let s = snapshot(vec![], 512 * 1024);
        assert_eq!(algorithm1(&s, &thresholds()), CoherenceMode::CohDma);
    }

    #[test]
    fn restricted_fallback_prefers_adjacent_mode() {
        let s = snapshot(vec![], 2 * 1024); // wants FullCoh
        let available = ModeSet::all().without(CoherenceMode::FullCoh);
        assert_eq!(
            algorithm1_restricted(&s, &thresholds(), available),
            CoherenceMode::CohDma
        );
        let only_non_coh = ModeSet::only(CoherenceMode::NonCohDma);
        assert_eq!(
            algorithm1_restricted(&s, &thresholds(), only_non_coh),
            CoherenceMode::NonCohDma
        );
    }

    #[test]
    fn restricted_keeps_preferred_when_available() {
        let s = snapshot(vec![], 600 * 1024); // wants NonCohDma
        assert_eq!(
            algorithm1_restricted(&s, &thresholds(), ModeSet::all()),
            CoherenceMode::NonCohDma
        );
    }

    #[test]
    #[should_panic(expected = "no coherence modes available")]
    fn restricted_with_empty_set_panics() {
        let s = snapshot(vec![], 1024);
        algorithm1_restricted(&s, &thresholds(), ModeSet::EMPTY);
    }
}
