//! The four accelerator cache-coherence modes (Section 2 of the paper) and
//! the literature classification of Table 1.
//!
//! All four modes always keep data coherent; they differ in how much of the
//! coherence is enforced in hardware and at which level of the memory
//! hierarchy the accelerator's requests enter:
//!
//! | Mode | Private cache | Requests go to | Software flush required |
//! |---|---|---|---|
//! | [`NonCohDma`](CoherenceMode::NonCohDma) | no | DRAM directly | private caches **and** LLC |
//! | [`LlcCohDma`](CoherenceMode::LlcCohDma) | no | LLC | private caches only |
//! | [`CohDma`](CoherenceMode::CohDma) | no | LLC (hardware recalls/invalidations) | none |
//! | [`FullCoh`](CoherenceMode::FullCoh) | yes | own private cache (MESI) | none |

use std::fmt;

use serde::{Deserialize, Serialize};

/// One of the four accelerator cache-coherence modes of Section 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CoherenceMode {
    /// *Non-coherent DMA*: bypass the cache hierarchy and access main memory
    /// directly. Coherence is managed in software by flushing the caches
    /// before the invocation.
    NonCohDma,
    /// *LLC-coherent DMA*: requests are sent to the LLC; the accelerator is
    /// coherent with the LLC but not with the processors' private caches,
    /// which must be flushed before the invocation.
    LlcCohDma,
    /// *Coherent DMA* (a.k.a. I/O coherence): requests are sent to the LLC
    /// and the cache hierarchy maintains full hardware coherence, recalling
    /// or invalidating lines in private caches as needed. No flush.
    CohDma,
    /// *Fully-coherent*: the accelerator owns a private cache that
    /// participates in the MESI protocol exactly like a processor cache.
    FullCoh,
}

impl CoherenceMode {
    /// The four modes in canonical (paper) order.
    pub const ALL: [CoherenceMode; 4] = [
        CoherenceMode::NonCohDma,
        CoherenceMode::LlcCohDma,
        CoherenceMode::CohDma,
        CoherenceMode::FullCoh,
    ];

    /// Number of modes; the size of the Q-learning action set.
    pub const COUNT: usize = 4;

    /// Stable index in `0..4`, used to address the Q-table.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            CoherenceMode::NonCohDma => 0,
            CoherenceMode::LlcCohDma => 1,
            CoherenceMode::CohDma => 2,
            CoherenceMode::FullCoh => 3,
        }
    }

    /// Inverse of [`index`](Self::index).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn from_index(index: usize) -> CoherenceMode {
        Self::ALL[index]
    }

    /// The short name used in the paper's figures
    /// (`non-coh-dma`, `llc-coh-dma`, `coh-dma`, `full-coh`).
    pub fn short_name(self) -> &'static str {
        match self {
            CoherenceMode::NonCohDma => "non-coh-dma",
            CoherenceMode::LlcCohDma => "llc-coh-dma",
            CoherenceMode::CohDma => "coh-dma",
            CoherenceMode::FullCoh => "full-coh",
        }
    }

    /// Does this mode require the accelerator tile to contain a private
    /// cache? (Only `full-coh`; cf. SoC3 in the paper, where five
    /// accelerators lack a private cache and thus cannot use it.)
    pub fn requires_private_cache(self) -> bool {
        matches!(self, CoherenceMode::FullCoh)
    }

    /// Does this mode require a software flush of the processors' private
    /// caches before the accelerator may run?
    pub fn requires_private_flush(self) -> bool {
        matches!(self, CoherenceMode::NonCohDma | CoherenceMode::LlcCohDma)
    }

    /// Does this mode additionally require flushing the LLC?
    pub fn requires_llc_flush(self) -> bool {
        matches!(self, CoherenceMode::NonCohDma)
    }

    /// Do this mode's memory requests travel through the LLC?
    pub fn accesses_llc(self) -> bool {
        !matches!(self, CoherenceMode::NonCohDma)
    }
}

impl fmt::Display for CoherenceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A non-empty-by-convention subset of the four coherence modes: the options
/// actually available to a policy for a given accelerator.
///
/// Cohmeleon "does not necessarily require support for all four coherence
/// modes; it makes the selection based on the options that are available"
/// (Section 4.1).
///
/// # Example
///
/// ```
/// use cohmeleon_core::{CoherenceMode, ModeSet};
///
/// // An accelerator tile without a private cache cannot be fully coherent.
/// let avail = ModeSet::all().without(CoherenceMode::FullCoh);
/// assert!(!avail.contains(CoherenceMode::FullCoh));
/// assert_eq!(avail.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModeSet(u8);

impl ModeSet {
    /// The empty set.
    pub const EMPTY: ModeSet = ModeSet(0);

    /// All four modes.
    pub fn all() -> ModeSet {
        ModeSet(0b1111)
    }

    /// A set with exactly one mode.
    pub fn only(mode: CoherenceMode) -> ModeSet {
        ModeSet(1 << mode.index())
    }

    /// Builds a set from an iterator of modes.
    pub fn from_modes<I: IntoIterator<Item = CoherenceMode>>(modes: I) -> ModeSet {
        modes.into_iter().fold(ModeSet::EMPTY, ModeSet::with)
    }

    /// The 4-bit availability mask (bit *i* set ⇔ the mode with
    /// [`index`](CoherenceMode::index) *i* is present): the set's wire form
    /// in the serving protocol and the column of a frozen decision table.
    #[inline]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// The set of a 4-bit availability mask (inverse of
    /// [`bits`](Self::bits)); bits above the fourth are ignored.
    #[inline]
    pub const fn from_bits(mask: u8) -> ModeSet {
        ModeSet(mask & 0b1111)
    }

    /// Returns `self` with `mode` added.
    #[must_use]
    pub fn with(self, mode: CoherenceMode) -> ModeSet {
        ModeSet(self.0 | (1 << mode.index()))
    }

    /// Returns `self` with `mode` removed.
    #[must_use]
    pub fn without(self, mode: CoherenceMode) -> ModeSet {
        ModeSet(self.0 & !(1 << mode.index()))
    }

    /// Membership test.
    pub fn contains(self, mode: CoherenceMode) -> bool {
        self.0 & (1 << mode.index()) != 0
    }

    /// Number of modes in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the contained modes in canonical order.
    pub fn iter(self) -> impl Iterator<Item = CoherenceMode> {
        CoherenceMode::ALL
            .into_iter()
            .filter(move |m| self.contains(*m))
    }

    /// The modes present in both sets.
    #[must_use]
    pub fn intersect(self, other: ModeSet) -> ModeSet {
        ModeSet(self.0 & other.0)
    }
}

impl Default for ModeSet {
    /// Defaults to all four modes available.
    fn default() -> Self {
        ModeSet::all()
    }
}

impl fmt::Display for ModeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for m in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// One row of the paper's Table 1: which coherence modes a published system
/// supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiteratureEntry {
    /// The system or specification, as named in Table 1.
    pub system: &'static str,
    /// The coherence modes it supports.
    pub modes: ModeSet,
}

macro_rules! lit {
    ($name:literal, $($mode:ident),+) => {
        LiteratureEntry {
            system: $name,
            modes: ModeSet(0 $(| (1 << CoherenceMode::$mode.index()))+),
        }
    };
}

/// The accelerator coherence modes found in the literature — Table 1 of the
/// paper, reproduced as data so the `table1` harness can regenerate it.
pub const LITERATURE: &[LiteratureEntry] = &[
    lit!("Chen et al.", FullCoh),
    lit!("Cota et al.", NonCohDma, LlcCohDma),
    lit!("Fusion", CohDma, FullCoh),
    lit!("gem5-aladdin", NonCohDma, CohDma, FullCoh),
    lit!("Spandex", FullCoh),
    lit!("ESP", NonCohDma, LlcCohDma, FullCoh),
    lit!("NVDLA", NonCohDma),
    lit!("Buffets", NonCohDma),
    lit!("Kurth et al.", NonCohDma),
    lit!("Cavalcante et al.", CohDma),
    lit!("BiC", LlcCohDma),
    lit!("Cohesion", FullCoh),
    lit!("ARM ACE/ACE-Lite", NonCohDma, CohDma, FullCoh),
    lit!("Xilinx Zynq", NonCohDma, CohDma),
    lit!("Power7+", CohDma),
    lit!("Wirespeed", CohDma),
    lit!("Arteris Ncore", CohDma, FullCoh),
    lit!("CAPI", CohDma),
    lit!("OpenCAPI", CohDma),
    lit!("CCIX", CohDma, FullCoh),
    lit!("Gen-Z", NonCohDma),
    lit!("CXL", CohDma, FullCoh),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_roundtrip() {
        for mode in CoherenceMode::ALL {
            assert_eq!(CoherenceMode::from_index(mode.index()), mode);
        }
    }

    #[test]
    fn all_has_four_distinct_modes() {
        let mut idx: Vec<usize> = CoherenceMode::ALL.iter().map(|m| m.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn flush_requirements_match_section_2() {
        use CoherenceMode::*;
        // Non-coherent: flush private caches and the LLC.
        assert!(NonCohDma.requires_private_flush());
        assert!(NonCohDma.requires_llc_flush());
        // LLC-coherent: only the private caches.
        assert!(LlcCohDma.requires_private_flush());
        assert!(!LlcCohDma.requires_llc_flush());
        // Coherent DMA and fully-coherent: no flush at all.
        assert!(!CohDma.requires_private_flush());
        assert!(!FullCoh.requires_private_flush());
    }

    #[test]
    fn only_full_coh_needs_private_cache() {
        assert!(CoherenceMode::FullCoh.requires_private_cache());
        assert!(!CoherenceMode::CohDma.requires_private_cache());
        assert!(!CoherenceMode::LlcCohDma.requires_private_cache());
        assert!(!CoherenceMode::NonCohDma.requires_private_cache());
    }

    #[test]
    fn llc_paths_match_figure_1() {
        assert!(!CoherenceMode::NonCohDma.accesses_llc());
        assert!(CoherenceMode::LlcCohDma.accesses_llc());
        assert!(CoherenceMode::CohDma.accesses_llc());
        assert!(CoherenceMode::FullCoh.accesses_llc());
    }

    #[test]
    fn short_names_match_paper_figures() {
        assert_eq!(CoherenceMode::NonCohDma.to_string(), "non-coh-dma");
        assert_eq!(CoherenceMode::LlcCohDma.to_string(), "llc-coh-dma");
        assert_eq!(CoherenceMode::CohDma.to_string(), "coh-dma");
        assert_eq!(CoherenceMode::FullCoh.to_string(), "full-coh");
    }

    #[test]
    fn mode_set_operations() {
        let s = ModeSet::all();
        assert_eq!(s.len(), 4);
        let s = s.without(CoherenceMode::FullCoh);
        assert_eq!(s.len(), 3);
        assert!(!s.contains(CoherenceMode::FullCoh));
        let s = s.with(CoherenceMode::FullCoh);
        assert_eq!(s, ModeSet::all());
    }

    #[test]
    fn mode_set_iteration_is_canonical_order() {
        let modes: Vec<_> = ModeSet::all().iter().collect();
        assert_eq!(modes, CoherenceMode::ALL.to_vec());
    }

    #[test]
    fn mode_set_only_and_empty() {
        let s = ModeSet::only(CoherenceMode::CohDma);
        assert_eq!(s.len(), 1);
        assert!(s.contains(CoherenceMode::CohDma));
        assert!(ModeSet::EMPTY.is_empty());
        assert_eq!(ModeSet::EMPTY.iter().count(), 0);
    }

    #[test]
    fn mode_set_from_modes_collects() {
        let s = ModeSet::from_modes([CoherenceMode::NonCohDma, CoherenceMode::FullCoh]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(CoherenceMode::NonCohDma));
        assert!(s.contains(CoherenceMode::FullCoh));
    }

    #[test]
    fn mask_round_trips_every_subset() {
        for mask in 0u8..16 {
            let set = ModeSet::from_bits(mask);
            assert_eq!(set.bits(), mask);
            assert_eq!(set.len(), mask.count_ones() as usize);
        }
        assert_eq!(ModeSet::all().bits(), 0b1111);
        assert_eq!(ModeSet::from_bits(0b1111_0101), ModeSet::from_bits(0b0101));
    }

    #[test]
    fn mode_set_display() {
        let s = ModeSet::only(CoherenceMode::NonCohDma).with(CoherenceMode::CohDma);
        assert_eq!(s.to_string(), "{non-coh-dma, coh-dma}");
    }

    #[test]
    fn literature_table_matches_paper_row_count() {
        // Table 1 has 22 rows.
        assert_eq!(LITERATURE.len(), 22);
    }

    #[test]
    fn literature_entries_are_nonempty_and_named() {
        for entry in LITERATURE {
            assert!(!entry.modes.is_empty(), "{} has no modes", entry.system);
            assert!(!entry.system.is_empty());
        }
    }

    #[test]
    fn literature_spot_checks() {
        let esp = LITERATURE.iter().find(|e| e.system == "ESP").unwrap();
        assert!(esp.modes.contains(CoherenceMode::NonCohDma));
        assert!(esp.modes.contains(CoherenceMode::LlcCohDma));
        assert!(esp.modes.contains(CoherenceMode::FullCoh));
        assert!(!esp.modes.contains(CoherenceMode::CohDma));
        let nvdla = LITERATURE.iter().find(|e| e.system == "NVDLA").unwrap();
        assert_eq!(nvdla.modes, ModeSet::only(CoherenceMode::NonCohDma));
    }
}
