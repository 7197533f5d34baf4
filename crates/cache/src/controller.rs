//! The coherence controller: MESI protocol across private L2s and
//! directory-backed LLC partitions, plus the DMA access paths and flush
//! engines that realise the four coherence modes.
//!
//! # Protocol invariants (checked by [`CoherenceController::validate_coherence`])
//!
//! * **Inclusion** — every line resident in a private cache is resident in
//!   its home LLC partition.
//! * **SWMR** — at most one private cache holds a line in M/E, and then no
//!   other private cache holds it at all; the directory `owner` field names
//!   exactly that cache. Caches holding the line in S are exactly the
//!   directory's `sharers`.
//! * **Owner/sharer exclusivity** — an entry has an owner or sharers, never
//!   both.

use std::sync::atomic::{AtomicU8, Ordering};

use cohmeleon_core::PartitionId;

use crate::effects::{AccessEffects, FlushEffects};
use crate::geometry::{CacheGeometry, LineAddr};
use crate::l2::L2Cache;
use crate::llc::{LlcEntry, LlcPartition, SharerSet};
use crate::mesi::MesiState;
use crate::tagarray::{Probe, TagStats};

/// How the controller walks the tag arrays. Both modes produce identical
/// observable behaviour — same hits, victims, effects, directory state and
/// LRU evolution as seen through any subsequent probe — and differ only in
/// how many set traversals they spend getting there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkMode {
    /// The per-line reference walk: classic two-pass probes (tag scan plus
    /// free-way/arg-min scan on a miss), per-victim directory lookups, and
    /// double-lookup owner recalls. This is the behavioural baseline the
    /// property suite pins the run-level walk against, and the denominator
    /// of the tracked `tag_walk` operation-count ratio.
    PerLine,
    /// The run-level walk: fused single-traversal probes, verified way
    /// hints for L2-victim directory updates, single-scan owner recalls and
    /// set-stripe batch resolution for large LLC-coherent bursts.
    Run,
}

/// Process-wide default [`WalkMode`] for newly built controllers
/// (`Run` unless overridden; `crates/bench/tests/walk_modes.rs` flips it to
/// replay the tracked suites under the per-line reference).
static DEFAULT_WALK_MODE: AtomicU8 = AtomicU8::new(1);

/// The process-wide default [`WalkMode`] applied by
/// [`CoherenceController::new`].
pub fn default_walk_mode() -> WalkMode {
    if DEFAULT_WALK_MODE.load(Ordering::Relaxed) == 0 {
        WalkMode::PerLine
    } else {
        WalkMode::Run
    }
}

/// Sets the process-wide default [`WalkMode`] for controllers built after
/// this call. Existing controllers are unaffected; use
/// [`CoherenceController::set_walk_mode`] for those.
pub fn set_default_walk_mode(mode: WalkMode) {
    let v = match mode {
        WalkMode::PerLine => 0,
        WalkMode::Run => 1,
    };
    DEFAULT_WALK_MODE.store(v, Ordering::Relaxed);
}

/// Identifies one private (L2) cache: processors first, then fully-coherent
/// accelerator tiles, in SoC construction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheId(pub u16);

impl std::fmt::Display for CacheId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l2#{}", self.0)
    }
}

/// Maps line addresses to memory partitions.
///
/// ESP partitions the global address space contiguously, one region per
/// memory tile. The allocator (in the SoC crate) places each dataset inside
/// one region; the map recovers the partition from the address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    num_partitions: u16,
    /// Size of one partition's region, in lines.
    region_lines: u64,
    /// `log2(region_lines)` when the region size is a power of two (the
    /// default always is), letting [`partition_of`](Self::partition_of)
    /// shift instead of divide; `u32::MAX` otherwise.
    region_shift: u32,
}

impl AddressMap {
    /// Default region size: 2³⁰ lines (64 GiB of 64-byte lines) — far larger
    /// than any workload, so allocations never overflow a region.
    pub const DEFAULT_REGION_LINES: u64 = 1 << 30;

    /// Creates a map for `num_partitions` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions` is zero.
    pub fn new(num_partitions: u16) -> AddressMap {
        assert!(num_partitions > 0, "at least one memory partition required");
        let region_lines = Self::DEFAULT_REGION_LINES;
        AddressMap {
            num_partitions,
            region_lines,
            region_shift: if region_lines.is_power_of_two() {
                region_lines.trailing_zeros()
            } else {
                u32::MAX
            },
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> u16 {
        self.num_partitions
    }

    /// The partition owning `line`.
    ///
    /// # Panics
    ///
    /// Panics if the line lies beyond the last partition's region.
    pub fn partition_of(&self, line: LineAddr) -> PartitionId {
        let p = if self.region_shift != u32::MAX {
            line.0 >> self.region_shift
        } else {
            line.0 / self.region_lines
        };
        assert!(
            p < u64::from(self.num_partitions),
            "line {line} outside the {}-partition address space",
            self.num_partitions
        );
        PartitionId(p as u16)
    }

    /// The first line of `partition`'s region (allocation base).
    pub fn region_base(&self, partition: PartitionId) -> LineAddr {
        LineAddr(u64::from(partition.0) * self.region_lines)
    }

    /// Region capacity in lines.
    pub fn region_lines(&self) -> u64 {
        self.region_lines
    }
}

/// The full cache hierarchy of one SoC.
#[derive(Debug, Clone)]
pub struct CoherenceController {
    map: AddressMap,
    l2s: Vec<L2Cache>,
    llcs: Vec<LlcPartition>,
    walk_mode: WalkMode,
    /// Reusable buffers for the set-stripe range walk (allocation-free hot
    /// path): the members of the set currently being resolved and their
    /// per-member probe outcomes.
    stripe_members: Vec<LineAddr>,
    stripe_out: Vec<Probe>,
}

impl CoherenceController {
    /// Builds a hierarchy with one L2 per entry of `l2_geometries` and one
    /// LLC partition per partition of `map`, all with `llc_geometry`.
    pub fn new(
        map: AddressMap,
        l2_geometries: &[CacheGeometry],
        llc_geometry: CacheGeometry,
    ) -> CoherenceController {
        let l2s = l2_geometries.iter().map(|g| L2Cache::new(*g)).collect();
        let llcs = (0..map.num_partitions())
            .map(|_| LlcPartition::new(llc_geometry))
            .collect();
        CoherenceController {
            map,
            l2s,
            llcs,
            walk_mode: default_walk_mode(),
            stripe_members: Vec::new(),
            stripe_out: Vec::new(),
        }
    }

    /// The address map.
    pub fn address_map(&self) -> AddressMap {
        self.map
    }

    /// The tag-walk mode in effect.
    pub fn walk_mode(&self) -> WalkMode {
        self.walk_mode
    }

    /// Overrides the tag-walk mode for this controller (tests and the perf
    /// harness; observable behaviour is identical in both modes).
    pub fn set_walk_mode(&mut self, mode: WalkMode) {
        self.walk_mode = mode;
    }

    /// Tag-walk operation counters summed over every L2 and LLC partition.
    pub fn tag_stats(&self) -> TagStats {
        let mut total = TagStats::default();
        for l2 in &self.l2s {
            total.merge(l2.tag_stats());
        }
        for llc in &self.llcs {
            total.merge(llc.tag_stats());
        }
        total
    }

    /// Number of private caches.
    pub fn num_l2s(&self) -> usize {
        self.l2s.len()
    }

    /// Number of LLC partitions.
    pub fn num_partitions(&self) -> usize {
        self.llcs.len()
    }

    /// Read access to an L2 (monitors, tests).
    pub fn l2(&self, cache: CacheId) -> &L2Cache {
        &self.l2s[cache.0 as usize]
    }

    /// Read access to an LLC partition (monitors, tests).
    pub fn llc(&self, partition: PartitionId) -> &LlcPartition {
        &self.llcs[partition.0 as usize]
    }

    // ------------------------------------------------------------------
    // Fully-coherent path (processors and fully-coherent accelerators)
    // ------------------------------------------------------------------

    /// One MESI access by private cache `cache` to `line`.
    ///
    /// Covers L2 hits, S→M upgrades, misses with directory recalls and
    /// sharer invalidations, LLC fills from DRAM, inclusive
    /// back-invalidation of LLC victims, and dirty L2 victim writebacks.
    pub fn l2_access(&mut self, cache: CacheId, line: LineAddr, write: bool) -> AccessEffects {
        let mut fx = AccessEffects::new();
        let l2_set = self.l2s[cache.0 as usize].set_of(line);
        let p = self.map.partition_of(line).0 as usize;
        let llc_set = self.llcs[p].set_of(line);
        self.l2_access_at(cache, l2_set, llc_set, p, line, write, true, &mut fx);
        fx
    }

    /// A full-line streaming store (e.g. dataset initialisation with
    /// write-combining stores): allocates the line in M state without
    /// fetching its previous contents from DRAM.
    pub fn l2_store_streaming(&mut self, cache: CacheId, line: LineAddr) -> AccessEffects {
        let mut fx = AccessEffects::new();
        let l2_set = self.l2s[cache.0 as usize].set_of(line);
        let p = self.map.partition_of(line).0 as usize;
        let llc_set = self.llcs[p].set_of(line);
        self.l2_access_at(cache, l2_set, llc_set, p, line, true, false, &mut fx);
        fx
    }

    /// A burst of `count` MESI accesses to the consecutive lines starting
    /// at `first`, all within one memory partition. Bit-equivalent to
    /// calling [`l2_access`](Self::l2_access) per line and accumulating the
    /// effects, but hoists the partition lookup out of the loop and steps
    /// the set indices incrementally. Returns the accumulated effects and
    /// the number of lines that hit in the private cache.
    pub fn l2_access_range(
        &mut self,
        cache: CacheId,
        first: LineAddr,
        count: u64,
        write: bool,
    ) -> (AccessEffects, u64) {
        self.l2_range(cache, first, count, write, /*fetch_on_miss=*/ true)
    }

    /// A burst of `count` streaming stores to consecutive lines
    /// (bit-equivalent to per-line [`l2_store_streaming`](Self::l2_store_streaming)).
    pub fn l2_store_streaming_range(
        &mut self,
        cache: CacheId,
        first: LineAddr,
        count: u64,
    ) -> AccessEffects {
        self.l2_range(cache, first, count, true, /*fetch_on_miss=*/ false)
            .0
    }

    fn l2_range(
        &mut self,
        cache: CacheId,
        first: LineAddr,
        count: u64,
        write: bool,
        fetch_on_miss: bool,
    ) -> (AccessEffects, u64) {
        let mut fx = AccessEffects::new();
        if count == 0 {
            return (fx, 0);
        }
        let p = self.range_partition(first, count);
        let l2_sets = self.l2s[cache.0 as usize].sets();
        let llc_sets = self.llcs[p].sets();
        let mut l2_set = self.l2s[cache.0 as usize].set_of(first);
        let mut llc_set = self.llcs[p].set_of(first);
        let mut hits = 0u64;
        for i in 0..count {
            let line = first.offset(i);
            if self.l2_access_at(
                cache,
                l2_set,
                llc_set,
                p,
                line,
                write,
                fetch_on_miss,
                &mut fx,
            ) {
                hits += 1;
            }
            l2_set += 1;
            if l2_set == l2_sets {
                l2_set = 0;
            }
            llc_set += 1;
            if llc_set == llc_sets {
                llc_set = 0;
            }
        }
        (fx, hits)
    }

    /// One MESI access with all index math precomputed. Returns whether the
    /// access was serviced locally by the private cache (a write to a
    /// Shared line is resident but upgrades through the directory, so it
    /// counts as a miss here, matching `AccessEffects::l2_hit` and the
    /// timing model's serial-hit-prefix semantics).
    #[allow(clippy::too_many_arguments)]
    fn l2_access_at(
        &mut self,
        cache: CacheId,
        l2_set: u64,
        llc_set: u64,
        p: usize,
        line: LineAddr,
        write: bool,
        fetch_on_miss: bool,
        fx: &mut AccessEffects,
    ) -> bool {
        let c = cache.0 as usize;
        let run = self.walk_mode == WalkMode::Run;

        // 1. Private-cache lookup (single scan: hit way or fill slot).
        let lp = if run {
            self.l2s[c].probe_in_set_fused(l2_set, line)
        } else {
            self.l2s[c].probe_in_set(l2_set, line)
        };
        if lp.hit {
            let state = self.l2s[c].state_at(lp.way);
            if !write || state.grants_write() {
                if write {
                    *self.l2s[c].state_at_mut(lp.way) = MesiState::Modified;
                }
                fx.l2_hit = true;
                self.l2s[c].count_hit();
                return true;
            }
            // Write to a Shared line: upgrade through the directory. The
            // line is L2-resident, so its memoised LLC home way replays
            // the directory hit without a scan (identical tick + restamp).
            fx.reached_llc = true;
            fx.llc_hit = true;
            self.llcs[p].count_hit();
            let home = self.l2s[c].home_way(lp.way) as usize;
            let entry = if run && self.llcs[p].touch_verified(home, line) {
                self.llcs[p].entry_at_mut(home)
            } else {
                self.llcs[p]
                    .lookup(line)
                    .expect("inclusion: upgraded line resident in LLC")
            };
            let mut others = entry.sharers;
            others.remove(cache);
            entry.sharers.drain();
            entry.owner = Some(cache);
            for other in others.iter() {
                self.l2s[other.0 as usize].invalidate(line);
                fx.invalidations += 1;
            }
            *self.l2s[c].state_at_mut(lp.way) = MesiState::Modified;
            return false;
        }
        self.l2s[c].count_miss();

        // 2. Miss: go to the home LLC partition.
        fx.reached_llc = true;
        let (hit, llc_way) =
            self.ensure_llc_resident_at(p, llc_set, line, /*needs_data=*/ fetch_on_miss, fx);
        if hit {
            fx.llc_hit = true;
            self.llcs[p].count_hit();
        } else {
            self.llcs[p].count_miss();
        }

        // 3. Directory actions at the LLC.
        let entry = self.llcs[p].entry_at_mut(llc_way);
        let owner = entry.owner.take();
        let mut sharers_to_invalidate = SharerSet::new();
        let new_state;
        if write {
            sharers_to_invalidate = entry.sharers.drain();
            entry.owner = Some(cache);
            new_state = MesiState::Modified;
        } else if let Some(owner_cache) = owner {
            // Recall below downgrades the owner to S; requester joins as S.
            entry.sharers.add(owner_cache);
            entry.sharers.add(cache);
            new_state = MesiState::Shared;
        } else if entry.sharers.is_empty() {
            // Exclusive grant: directory tracks E holders as owners because
            // they may upgrade to M silently.
            entry.owner = Some(cache);
            new_state = MesiState::Exclusive;
        } else {
            entry.sharers.add(cache);
            new_state = MesiState::Shared;
        };

        // Recall from the previous owner (it cannot be the requester, which
        // just missed).
        if let Some(owner_cache) = owner {
            fx.recalls += 1;
            let owner_state = if write {
                self.l2s[owner_cache.0 as usize].invalidate(line)
            } else {
                self.recall_downgrade(owner_cache, line)
            };
            if owner_state == Some(MesiState::Modified) {
                // Recalled dirty data lands in the LLC.
                self.llcs[p].entry_at_mut(llc_way).dirty = true;
            }
        }
        for sharer in sharers_to_invalidate.iter() {
            if sharer != cache {
                self.l2s[sharer.0 as usize].invalidate(line);
                fx.invalidations += 1;
            }
        }

        // 4. Fill into the requester's L2; handle its victim. The slot the
        // victim occupied memoises its LLC home way (recorded when the
        // victim itself filled), so the writeback resolves its directory
        // entry with a verified zero-scan touch; the slot then memoises
        // the new line's home way for its own eventual eviction.
        let (fill_way, victim) = self.l2s[c].insert_at(lp, line, new_state);
        let victim_home = self.l2s[c].home_way(fill_way) as usize;
        self.l2s[c].set_home_way(fill_way, llc_way as u32);
        if let Some(victim) = victim {
            self.handle_l2_victim(
                cache,
                victim.line,
                victim.state,
                run.then_some(victim_home),
                fx,
            );
        }
        false
    }

    /// Downgrades the recalled owner's copy of `line` from M/E to S,
    /// returning its prior state. The per-line reference spends two L2
    /// lookups (read, then write back Shared); the run-level walk replays
    /// the identical two clock ticks and restamps with one fused traversal
    /// plus a verified zero-scan touch.
    fn recall_downgrade(&mut self, owner: CacheId, line: LineAddr) -> Option<MesiState> {
        let o = owner.0 as usize;
        if self.walk_mode == WalkMode::Run {
            let o_set = self.l2s[o].set_of(line);
            let pr = self.l2s[o].probe_in_set_fused(o_set, line);
            if pr.hit {
                let st = self.l2s[o].state_at(pr.way);
                self.l2s[o].touch_verified(pr.way, line);
                *self.l2s[o].state_at_mut(pr.way) = MesiState::Shared;
                Some(st)
            } else {
                // Unreachable while the directory is consistent; replay the
                // reference's second (missing) lookup tick regardless.
                self.l2s[o].probe_in_set_fused(o_set, line);
                None
            }
        } else {
            let st = self.l2s[o].lookup(line).copied();
            if let Some(s) = self.l2s[o].lookup(line) {
                *s = MesiState::Shared;
            }
            st
        }
    }

    /// The (single) partition a `count`-line range starting at `first`
    /// lives in; one bounds check for the whole range.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a partition boundary — the batched
    /// walks hoist the partition out of the loop, so a crossing range
    /// would silently route lines to the wrong LLC partition (datasets
    /// are single-partition by construction; this guards future callers).
    fn range_partition(&self, first: LineAddr, count: u64) -> usize {
        let p = self.map.partition_of(first);
        assert_eq!(
            self.map.partition_of(first.offset(count - 1)),
            p,
            "range of {count} lines at {first} crosses a partition boundary"
        );
        p.0 as usize
    }

    /// Processes an L2 victim: dirty victims write back into the LLC, clean
    /// victims only update the directory.
    ///
    /// `hint` is the victim's memoised LLC home way (run-level walk only);
    /// inclusion pins an L2-resident line's LLC way, so after the O(1) tag
    /// verification the directory update costs zero traversals.
    fn handle_l2_victim(
        &mut self,
        cache: CacheId,
        line: LineAddr,
        state: MesiState,
        hint: Option<usize>,
        fx: &mut AccessEffects,
    ) {
        let p = self.map.partition_of(line).0 as usize;
        let way = match hint {
            Some(w) if self.llcs[p].touch_verified(w, line) => w,
            _ => {
                let set = self.llcs[p].set_of(line);
                let pr = if self.walk_mode == WalkMode::Run {
                    self.llcs[p].probe_in_set_fused(set, line)
                } else {
                    self.llcs[p].probe_in_set(set, line)
                };
                if !pr.hit {
                    // Inclusion guarantees residency; tolerate release builds.
                    debug_assert!(
                        false,
                        "inclusion violated: L2 victim {line} absent from LLC"
                    );
                    return;
                }
                pr.way
            }
        };
        let entry = self.llcs[p].entry_at_mut(way);
        match state {
            MesiState::Modified => {
                entry.dirty = true;
                entry.owner = None;
                fx.llc_writebacks += 1;
            }
            MesiState::Exclusive => {
                entry.owner = None;
                fx.l2_clean_evictions += 1;
            }
            MesiState::Shared => {
                entry.sharers.remove(cache);
                fx.l2_clean_evictions += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // DMA paths
    // ------------------------------------------------------------------

    /// One line of a *coherent DMA* transaction: the LLC serves the request
    /// under full hardware coherence, recalling/invalidating private copies
    /// as needed (the paper's protocol extension). DMA writes are full-line
    /// and allocate without fetching.
    pub fn coh_dma_access(&mut self, line: LineAddr, write: bool) -> AccessEffects {
        let mut fx = AccessEffects::new();
        let p = self.map.partition_of(line).0 as usize;
        let llc_set = self.llcs[p].set_of(line);
        self.coh_dma_access_at(p, llc_set, line, write, &mut fx);
        fx
    }

    /// A burst of `count` coherent-DMA line accesses over the consecutive
    /// lines starting at `first`, all within one partition. Bit-equivalent
    /// to per-line [`coh_dma_access`](Self::coh_dma_access) with
    /// accumulated effects; the partition is resolved once and set indices
    /// step incrementally.
    pub fn coh_dma_access_range(
        &mut self,
        first: LineAddr,
        count: u64,
        write: bool,
    ) -> AccessEffects {
        let mut fx = AccessEffects::new();
        if count == 0 {
            return fx;
        }
        let p = self.range_partition(first, count);
        let sets = self.llcs[p].sets();
        let mut set = self.llcs[p].set_of(first);
        for i in 0..count {
            self.coh_dma_access_at(p, set, first.offset(i), write, &mut fx);
            set += 1;
            if set == sets {
                set = 0;
            }
        }
        fx
    }

    fn coh_dma_access_at(
        &mut self,
        p: usize,
        llc_set: u64,
        line: LineAddr,
        write: bool,
        fx: &mut AccessEffects,
    ) {
        fx.reached_llc = true;
        let (hit, way) =
            self.ensure_llc_resident_at(p, llc_set, line, /*needs_data=*/ !write, fx);
        if hit {
            fx.llc_hit = true;
            self.llcs[p].count_hit();
        } else {
            self.llcs[p].count_miss();
        }

        let entry = self.llcs[p].entry_at_mut(way);
        let owner = entry.owner.take();
        let sharers = if write {
            entry.sharers.drain()
        } else {
            SharerSet::new()
        };
        if write {
            entry.dirty = true;
        }

        if let Some(owner_cache) = owner {
            fx.recalls += 1;
            let owner_state = if write {
                self.l2s[owner_cache.0 as usize].invalidate(line)
            } else {
                self.recall_downgrade(owner_cache, line)
            };
            if owner_state == Some(MesiState::Modified) {
                self.llcs[p].entry_at_mut(way).dirty = true;
            }
            if !write {
                // Owner stays resident as a sharer.
                self.llcs[p].entry_at_mut(way).sharers.add(owner_cache);
            }
        }
        for sharer in sharers.iter() {
            self.l2s[sharer.0 as usize].invalidate(line);
            fx.invalidations += 1;
        }
    }

    /// One line of an *LLC-coherent DMA* transaction: the LLC serves the
    /// request without consulting the directory (software flushed the
    /// private caches before the invocation).
    pub fn llc_coh_dma_access(&mut self, line: LineAddr, write: bool) -> AccessEffects {
        let mut fx = AccessEffects::new();
        let p = self.map.partition_of(line).0 as usize;
        let llc_set = self.llcs[p].set_of(line);
        self.llc_coh_dma_access_at(p, llc_set, line, write, &mut fx);
        fx
    }

    /// A burst of `count` LLC-coherent-DMA line accesses, equivalent to
    /// per-line [`llc_coh_dma_access`](Self::llc_coh_dma_access) with
    /// accumulated effects.
    ///
    /// Under the run-level walk, a burst that wraps the set index (`count`
    /// exceeds the partition's set count, so sets receive multiple members)
    /// is decomposed into per-set *stripes* and each stripe is resolved
    /// against one snapshot of its set
    /// ([`TagArray::walk_stripe`](crate::tagarray::TagArray::walk_stripe)):
    /// members keep their
    /// burst order within the set, victims and effects are identical, and
    /// cross-set interleaving is immaterial because this path never touches
    /// the directory (software flushed the private caches) and LLC sets
    /// share no replacement state. Shorter bursts — and the per-line
    /// reference mode — take the per-line loop.
    pub fn llc_coh_dma_access_range(
        &mut self,
        first: LineAddr,
        count: u64,
        write: bool,
    ) -> AccessEffects {
        let mut fx = AccessEffects::new();
        if count == 0 {
            return fx;
        }
        let p = self.range_partition(first, count);
        let sets = self.llcs[p].sets();
        if self.walk_mode == WalkMode::Run && count > sets {
            self.llc_coh_dma_striped(p, first, count, write, &mut fx);
            return fx;
        }
        let mut set = self.llcs[p].set_of(first);
        for i in 0..count {
            self.llc_coh_dma_access_at(p, set, first.offset(i), write, &mut fx);
            set += 1;
            if set == sets {
                set = 0;
            }
        }
        fx
    }

    /// The set-major stripe walk behind
    /// [`llc_coh_dma_access_range`](Self::llc_coh_dma_access_range): set
    /// `s` receives the arithmetic subsequence of the burst with stride
    /// `sets`, resolved in one snapshot load per set.
    fn llc_coh_dma_striped(
        &mut self,
        p: usize,
        first: LineAddr,
        count: u64,
        write: bool,
        fx: &mut AccessEffects,
    ) {
        fx.reached_llc = true;
        let CoherenceController {
            l2s,
            llcs,
            stripe_members,
            stripe_out,
            ..
        } = self;
        let sets = llcs[p].sets();
        let first_set = llcs[p].set_of(first);
        let make = |_| {
            if write {
                LlcEntry::dirty()
            } else {
                LlcEntry::clean()
            }
        };
        let mut hits = 0u64;
        for s in 0..sets {
            // Burst indices landing in set s: first_set + i ≡ s (mod sets).
            let i0 = (s + sets - first_set) % sets;
            stripe_members.clear();
            let mut i = i0;
            while i < count {
                stripe_members.push(first.offset(i));
                i += sets;
            }
            debug_assert!(!stripe_members.is_empty(), "count > sets fills every set");
            llcs[p].walk_stripe(
                s,
                stripe_members,
                stripe_out,
                // A write marks hit entries dirty in member order, exactly
                // where the per-line loop would (a later member of the same
                // stripe may evict them).
                |_, entry| {
                    if write {
                        entry.dirty = true;
                    }
                },
                make,
                |_, victim| {
                    Self::back_invalidate_into(l2s, victim.line, victim.state, fx);
                },
            );
            let stripe_hits = stripe_out.iter().filter(|pr| pr.hit).count() as u64;
            let stripe_misses = stripe_out.len() as u64 - stripe_hits;
            hits += stripe_hits;
            if !write {
                fx.dram_fetches += stripe_misses;
            }
            llcs[p].count_hits(stripe_hits);
            llcs[p].count_misses(stripe_misses);
        }
        if hits > 0 {
            fx.llc_hit = true;
        }
    }

    fn llc_coh_dma_access_at(
        &mut self,
        p: usize,
        llc_set: u64,
        line: LineAddr,
        write: bool,
        fx: &mut AccessEffects,
    ) {
        fx.reached_llc = true;
        let (hit, way) =
            self.ensure_llc_resident_at(p, llc_set, line, /*needs_data=*/ !write, fx);
        if hit {
            fx.llc_hit = true;
            self.llcs[p].count_hit();
        } else {
            self.llcs[p].count_miss();
        }
        if write {
            self.llcs[p].entry_at_mut(way).dirty = true;
        }
    }

    /// Makes `line` resident in its home LLC partition (set index supplied
    /// by the caller). Returns whether it already was (hit) and the way it
    /// occupies. On a miss, charges a DRAM fetch if `needs_data` (full-line
    /// DMA writes allocate without fetching) and back-invalidates the LLC
    /// victim's private copies to preserve inclusion.
    fn ensure_llc_resident_at(
        &mut self,
        p: usize,
        llc_set: u64,
        line: LineAddr,
        needs_data: bool,
        fx: &mut AccessEffects,
    ) -> (bool, usize) {
        let probe = if self.walk_mode == WalkMode::Run {
            self.llcs[p].probe_in_set_fused(llc_set, line)
        } else {
            self.llcs[p].probe_in_set(llc_set, line)
        };
        if probe.hit {
            return (true, probe.way);
        }
        if needs_data {
            fx.dram_fetches += 1;
        }
        let (way, victim) = self.llcs[p].insert_at(probe, line, LlcEntry::clean());
        if let Some(victim) = victim {
            Self::back_invalidate_into(&mut self.l2s, victim.line, victim.state, fx);
        }
        (false, way)
    }

    /// Evicting an LLC line under private copies: recall/invalidate them
    /// (inclusive hierarchy), then write dirty data back to DRAM.
    fn back_invalidate_into(
        l2s: &mut [L2Cache],
        line: LineAddr,
        entry: LlcEntry,
        fx: &mut AccessEffects,
    ) {
        let mut dirty = entry.dirty;
        if let Some(owner) = entry.owner {
            fx.recalls += 1;
            let owner_state = l2s[owner.0 as usize].invalidate(line);
            if owner_state == Some(MesiState::Modified) {
                dirty = true;
            }
        }
        for sharer in entry.sharers.iter() {
            l2s[sharer.0 as usize].invalidate(line);
            fx.invalidations += 1;
        }
        if dirty {
            fx.dram_writebacks += 1;
        }
    }

    // ------------------------------------------------------------------
    // Flush engines (software coherence)
    // ------------------------------------------------------------------

    /// Flushes one private cache: dirty lines are written back into the LLC
    /// and everything is invalidated. Used before LLC-coherent and
    /// non-coherent DMA invocations.
    ///
    /// Walks only resident lines (the *modeled* flush-FSM walk over every
    /// set and way is charged by the SoC layer from the cache geometry).
    pub fn flush_l2(&mut self, cache: CacheId) -> FlushEffects {
        let mut fx = FlushEffects::new();
        let c = cache.0 as usize;
        let run = self.walk_mode == WalkMode::Run;
        let CoherenceController { map, l2s, llcs, .. } = self;
        l2s[c].drain(|home, e| {
            let p = map.partition_of(e.line).0 as usize;
            // A drained line is L2-resident by definition, so inclusion
            // pins it at its memoised LLC home way: the run-level walk
            // replays the per-line lookup's hit (identical tick + restamp)
            // with an O(1) verified touch instead of a set scan.
            let entry = if run && llcs[p].touch_verified(home as usize, e.line) {
                llcs[p].entry_at_mut(home as usize)
            } else if let Some(entry) = llcs[p].lookup(e.line) {
                entry
            } else {
                debug_assert!(false, "inclusion violated during flush of {}", e.line);
                return;
            };
            match e.state {
                MesiState::Modified => {
                    entry.dirty = true;
                    entry.owner = None;
                    fx.writebacks += 1;
                }
                MesiState::Exclusive => {
                    entry.owner = None;
                    fx.invalidations += 1;
                }
                MesiState::Shared => {
                    entry.sharers.remove(cache);
                    fx.invalidations += 1;
                }
            }
        });
        fx
    }

    /// Flushes every private cache (ESP's driver flushes all L2s before a
    /// non-coherent or LLC-coherent invocation).
    pub fn flush_all_l2s(&mut self) -> FlushEffects {
        let mut fx = FlushEffects::new();
        for c in 0..self.l2s.len() {
            let sub = self.flush_l2(CacheId(c as u16));
            fx.accumulate(&sub);
        }
        fx
    }

    /// Flushes one LLC partition: private copies are recalled/invalidated
    /// (preserving inclusion), dirty lines written back to DRAM, everything
    /// invalidated. Used (after the L2 flush) before non-coherent DMA.
    ///
    /// Walks only resident lines; the modeled set×way FSM walk is charged
    /// by the SoC layer from the geometry.
    pub fn flush_llc(&mut self, partition: PartitionId) -> FlushEffects {
        let mut fx = FlushEffects::new();
        let p = partition.0 as usize;
        let CoherenceController { l2s, llcs, .. } = self;
        llcs[p].drain(|e| {
            let mut dirty = e.state.dirty;
            if let Some(owner) = e.state.owner {
                fx.recalls += 1;
                if l2s[owner.0 as usize].invalidate(e.line) == Some(MesiState::Modified) {
                    dirty = true;
                }
            }
            for sharer in e.state.sharers.iter() {
                l2s[sharer.0 as usize].invalidate(e.line);
                fx.recalls += 1;
            }
            if dirty {
                fx.writebacks += 1;
            } else {
                fx.invalidations += 1;
            }
        });
        fx
    }

    /// Flushes all LLC partitions.
    pub fn flush_all_llcs(&mut self) -> FlushEffects {
        let mut fx = FlushEffects::new();
        for p in 0..self.llcs.len() {
            let sub = self.flush_llc(PartitionId(p as u16));
            fx.accumulate(&sub);
        }
        fx
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Verifies inclusion, SWMR and directory consistency; returns a
    /// description of the first violation found.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a human-readable message naming the violated
    /// invariant and the line involved.
    pub fn validate_coherence(&self) -> Result<(), String> {
        // Directory ⇒ private caches.
        for (p, llc) in self.llcs.iter().enumerate() {
            for e in llc.iter() {
                if let Some(owner) = e.state.owner {
                    if !e.state.sharers.is_empty() {
                        return Err(format!(
                            "line {} in LLC{p} has owner {owner} and sharers simultaneously",
                            e.line
                        ));
                    }
                    match self.l2s[owner.0 as usize].peek(e.line) {
                        Some(MesiState::Modified) | Some(MesiState::Exclusive) => {}
                        other => {
                            return Err(format!(
                                "line {} owned by {owner} but its L2 state is {other:?}",
                                e.line
                            ));
                        }
                    }
                }
                for sharer in e.state.sharers.iter() {
                    if self.l2s[sharer.0 as usize].peek(e.line) != Some(MesiState::Shared) {
                        return Err(format!(
                            "line {} listed shared by {sharer} but not S in that L2",
                            e.line
                        ));
                    }
                }
            }
        }
        // Private caches ⇒ directory (inclusion + registration + SWMR).
        for (c, l2) in self.l2s.iter().enumerate() {
            let cache = CacheId(c as u16);
            for e in l2.iter() {
                let p = self.map.partition_of(e.line);
                let Some(entry) = self.llcs[p.0 as usize].peek(e.line) else {
                    return Err(format!(
                        "inclusion violated: {cache} holds {} absent from LLC{}",
                        e.line, p.0
                    ));
                };
                match e.state {
                    MesiState::Modified | MesiState::Exclusive => {
                        if entry.owner != Some(cache) {
                            return Err(format!(
                                "{cache} holds {} in {} but directory owner is {:?}",
                                e.line, e.state, entry.owner
                            ));
                        }
                    }
                    MesiState::Shared => {
                        if !entry.sharers.contains(cache) {
                            return Err(format!(
                                "{cache} holds {} in S but is not a directory sharer",
                                e.line
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Total dirty lines across all LLC partitions (flush-cost estimation).
    pub fn llc_dirty_lines(&self) -> u64 {
        self.llcs.iter().map(|l| l.dirty_lines()).sum()
    }

    /// Total valid lines across all LLC partitions.
    pub fn llc_valid_lines(&self) -> u64 {
        self.llcs.iter().map(|l| l.valid_lines()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L2_GEOM: CacheGeometry = CacheGeometry {
        size_bytes: 4 * 1024,
        ways: 4,
        line_bytes: 64,
    };
    const LLC_GEOM: CacheGeometry = CacheGeometry {
        size_bytes: 16 * 1024,
        ways: 16,
        line_bytes: 64,
    };

    fn controller(l2s: usize) -> CoherenceController {
        CoherenceController::new(AddressMap::new(2), &vec![L2_GEOM; l2s], LLC_GEOM)
    }

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    fn check(c: &CoherenceController) {
        c.validate_coherence().expect("coherence invariants hold");
    }

    #[test]
    fn address_map_partitions() {
        let m = AddressMap::new(2);
        assert_eq!(m.partition_of(LineAddr(0)), PartitionId(0));
        assert_eq!(
            m.partition_of(m.region_base(PartitionId(1))),
            PartitionId(1)
        );
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn address_map_rejects_out_of_space() {
        let m = AddressMap::new(2);
        m.partition_of(LineAddr(2 * AddressMap::DEFAULT_REGION_LINES));
    }

    #[test]
    fn cold_read_fetches_from_dram_and_grants_exclusive() {
        let mut c = controller(2);
        let fx = c.l2_access(CacheId(0), line(0), false);
        assert!(!fx.l2_hit);
        assert!(fx.reached_llc && !fx.llc_hit);
        assert_eq!(fx.dram_fetches, 1);
        assert_eq!(c.l2(CacheId(0)).peek(line(0)), Some(MesiState::Exclusive));
        check(&c);
    }

    #[test]
    fn second_read_hits_in_l2() {
        let mut c = controller(1);
        c.l2_access(CacheId(0), line(0), false);
        let fx = c.l2_access(CacheId(0), line(0), false);
        assert!(fx.l2_hit);
        assert_eq!(fx.dram_fetches, 0);
        check(&c);
    }

    #[test]
    fn write_after_exclusive_is_silent_upgrade() {
        let mut c = controller(1);
        c.l2_access(CacheId(0), line(0), false);
        let fx = c.l2_access(CacheId(0), line(0), true);
        assert!(fx.l2_hit);
        assert!(!fx.reached_llc);
        assert_eq!(c.l2(CacheId(0)).peek(line(0)), Some(MesiState::Modified));
        check(&c);
    }

    #[test]
    fn read_shared_between_two_caches() {
        let mut c = controller(2);
        c.l2_access(CacheId(0), line(0), false);
        // Cache 1 reads: recall-downgrade of the E owner, both end Shared.
        let fx = c.l2_access(CacheId(1), line(0), false);
        assert_eq!(fx.recalls, 1);
        assert_eq!(fx.dram_fetches, 0, "LLC hit serves the data");
        assert!(fx.llc_hit);
        assert_eq!(c.l2(CacheId(0)).peek(line(0)), Some(MesiState::Shared));
        assert_eq!(c.l2(CacheId(1)).peek(line(0)), Some(MesiState::Shared));
        check(&c);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut c = controller(3);
        c.l2_access(CacheId(0), line(0), false);
        c.l2_access(CacheId(1), line(0), false);
        c.l2_access(CacheId(2), line(0), false);
        check(&c);
        // Cache 0 upgrades S→M: the other two sharers are invalidated.
        let fx = c.l2_access(CacheId(0), line(0), true);
        assert_eq!(fx.invalidations, 2);
        assert!(fx.llc_hit);
        assert_eq!(c.l2(CacheId(0)).peek(line(0)), Some(MesiState::Modified));
        assert_eq!(c.l2(CacheId(1)).peek(line(0)), None);
        assert_eq!(c.l2(CacheId(2)).peek(line(0)), None);
        check(&c);
    }

    #[test]
    fn dirty_recall_marks_llc_dirty() {
        let mut c = controller(2);
        c.l2_access(CacheId(0), line(0), true); // M in cache 0
        let fx = c.l2_access(CacheId(1), line(0), false);
        assert_eq!(fx.recalls, 1);
        let entry = c.llc(PartitionId(0)).peek(line(0)).unwrap();
        assert!(entry.dirty, "recalled modified data must land dirty in LLC");
        check(&c);
    }

    #[test]
    fn write_miss_with_remote_owner_recalls_and_invalidates() {
        let mut c = controller(2);
        c.l2_access(CacheId(0), line(0), true); // M in cache 0
        let fx = c.l2_access(CacheId(1), line(0), true);
        assert_eq!(fx.recalls, 1);
        assert_eq!(c.l2(CacheId(0)).peek(line(0)), None);
        assert_eq!(c.l2(CacheId(1)).peek(line(0)), Some(MesiState::Modified));
        check(&c);
    }

    #[test]
    fn l2_capacity_eviction_writes_back_dirty_victim() {
        let mut c = controller(1);
        // Fill one L2 set (4 ways, 16 sets): lines 0,16,32,48 map to set 0.
        for i in 0..4 {
            c.l2_access(CacheId(0), line(i * 16), true);
        }
        check(&c);
        let fx = c.l2_access(CacheId(0), line(4 * 16), true);
        assert_eq!(fx.llc_writebacks, 1, "dirty LRU victim writes back to LLC");
        assert_eq!(c.l2(CacheId(0)).peek(line(0)), None);
        let victim_entry = c.llc(PartitionId(0)).peek(line(0)).unwrap();
        assert!(victim_entry.dirty);
        assert!(victim_entry.owner.is_none());
        check(&c);
    }

    #[test]
    fn llc_capacity_eviction_back_invalidates_and_writes_back() {
        let mut c = controller(1);
        // LLC: 16 KiB, 16-way, 64 B ⇒ 16 sets × 16 ways. Fill set 0 of the
        // LLC (lines ≡ 0 mod 16) beyond capacity with dirty lines.
        for i in 0..16 {
            c.l2_access(CacheId(0), line(i * 16), true);
        }
        // L2 only holds 4 of them; LLC set 0 is now full. One more forces an
        // LLC eviction whose line may still sit in the L2.
        let fx = c.l2_access(CacheId(0), line(16 * 16), true);
        assert!(fx.dram_writebacks >= 1, "dirty LLC victim goes to DRAM");
        check(&c);
    }

    #[test]
    fn coh_dma_read_hits_warm_llc() {
        let mut c = controller(1);
        c.l2_access(CacheId(0), line(0), true); // CPU warms the data
        c.flush_l2(CacheId(0)); // move it to the LLC
        let fx = c.coh_dma_access(line(0), false);
        assert!(fx.llc_hit);
        assert_eq!(fx.dram_fetches, 0);
        check(&c);
    }

    #[test]
    fn coh_dma_recalls_modified_private_data() {
        let mut c = controller(1);
        c.l2_access(CacheId(0), line(0), true); // M in the CPU cache
        let fx = c.coh_dma_access(line(0), false);
        assert_eq!(fx.recalls, 1);
        assert_eq!(fx.dram_fetches, 0, "data comes from the recall, not DRAM");
        // Owner is downgraded to a sharer on a DMA read.
        assert_eq!(c.l2(CacheId(0)).peek(line(0)), Some(MesiState::Shared));
        check(&c);
    }

    #[test]
    fn coh_dma_write_invalidates_all_private_copies() {
        let mut c = controller(2);
        c.l2_access(CacheId(0), line(0), false);
        c.l2_access(CacheId(1), line(0), false); // both Shared
        let fx = c.coh_dma_access(line(0), true);
        assert_eq!(fx.invalidations, 2);
        assert_eq!(
            fx.dram_fetches, 0,
            "full-line DMA write allocates without fetch"
        );
        assert_eq!(c.l2(CacheId(0)).peek(line(0)), None);
        assert_eq!(c.l2(CacheId(1)).peek(line(0)), None);
        assert!(c.llc(PartitionId(0)).peek(line(0)).unwrap().dirty);
        check(&c);
    }

    #[test]
    fn llc_coh_dma_read_miss_fetches_and_caches() {
        let mut c = controller(1);
        let fx = c.llc_coh_dma_access(line(0), false);
        assert!(!fx.llc_hit);
        assert_eq!(fx.dram_fetches, 1);
        let fx2 = c.llc_coh_dma_access(line(0), false);
        assert!(fx2.llc_hit);
        assert_eq!(fx2.dram_fetches, 0);
        check(&c);
    }

    #[test]
    fn llc_coh_dma_write_allocates_dirty() {
        let mut c = controller(1);
        let fx = c.llc_coh_dma_access(line(0), true);
        assert_eq!(fx.dram_fetches, 0);
        assert!(c.llc(PartitionId(0)).peek(line(0)).unwrap().dirty);
        check(&c);
    }

    #[test]
    fn flush_l2_moves_dirty_lines_to_llc() {
        let mut c = controller(1);
        c.l2_access(CacheId(0), line(0), true);
        c.l2_access(CacheId(0), line(1), false);
        let fx = c.flush_l2(CacheId(0));
        assert_eq!(fx.writebacks, 1);
        assert_eq!(fx.invalidations, 1);
        assert_eq!(c.l2(CacheId(0)).valid_lines(), 0);
        assert!(c.llc(PartitionId(0)).peek(line(0)).unwrap().dirty);
        check(&c);
    }

    #[test]
    fn flush_llc_writes_dirty_lines_to_dram() {
        let mut c = controller(1);
        c.l2_access(CacheId(0), line(0), true);
        c.flush_l2(CacheId(0));
        let fx = c.flush_llc(PartitionId(0));
        assert_eq!(fx.writebacks, 1);
        assert_eq!(c.llc_valid_lines(), 0);
        check(&c);
    }

    #[test]
    fn flush_llc_under_live_private_caches_recalls_them() {
        let mut c = controller(1);
        c.l2_access(CacheId(0), line(0), true); // still owned by the L2
        let fx = c.flush_llc(PartitionId(0));
        assert_eq!(fx.recalls, 1);
        assert_eq!(fx.writebacks, 1, "owner's dirty data reaches DRAM");
        assert_eq!(c.l2(CacheId(0)).peek(line(0)), None, "inclusion preserved");
        check(&c);
    }

    #[test]
    fn flush_all_covers_every_structure() {
        let mut c = controller(2);
        c.l2_access(CacheId(0), line(0), true);
        c.l2_access(CacheId(1), line(AddressMap::DEFAULT_REGION_LINES), true);
        let l2fx = c.flush_all_l2s();
        assert_eq!(l2fx.writebacks, 2);
        let llcfx = c.flush_all_llcs();
        assert_eq!(llcfx.writebacks, 2);
        assert_eq!(c.llc_valid_lines(), 0);
        check(&c);
    }

    #[test]
    fn partitions_are_independent() {
        let mut c = controller(1);
        let p1_line = line(AddressMap::DEFAULT_REGION_LINES);
        c.llc_coh_dma_access(line(0), true);
        c.llc_coh_dma_access(p1_line, true);
        assert_eq!(c.llc(PartitionId(0)).valid_lines(), 1);
        assert_eq!(c.llc(PartitionId(1)).valid_lines(), 1);
        c.flush_llc(PartitionId(0));
        assert_eq!(c.llc(PartitionId(0)).valid_lines(), 0);
        assert_eq!(c.llc(PartitionId(1)).valid_lines(), 1);
        check(&c);
    }

    #[test]
    fn monitors_count_hits_and_misses() {
        let mut c = controller(1);
        c.l2_access(CacheId(0), line(0), false); // L2 miss, LLC miss
        c.l2_access(CacheId(0), line(0), false); // L2 hit
        c.coh_dma_access(line(0), false); // LLC hit
        assert_eq!(c.l2(CacheId(0)).hits(), 1);
        assert_eq!(c.l2(CacheId(0)).misses(), 1);
        assert_eq!(c.llc(PartitionId(0)).hits(), 1);
        assert_eq!(c.llc(PartitionId(0)).misses(), 1);
    }

    #[test]
    fn mixed_traffic_preserves_invariants() {
        // A randomized-ish deterministic interleaving of all access paths.
        let mut c = controller(4);
        for step in 0u64..2000 {
            let ln = line((step * 7) % 96);
            match step % 5 {
                0 => {
                    c.l2_access(CacheId((step % 4) as u16), ln, step % 3 == 0);
                }
                1 => {
                    c.coh_dma_access(ln, step % 2 == 0);
                }
                2 => {
                    c.llc_coh_dma_access(ln, step % 2 == 1);
                }
                3 => {
                    c.l2_access(CacheId(((step + 1) % 4) as u16), ln, true);
                }
                _ => {
                    if step % 97 == 4 {
                        c.flush_l2(CacheId((step % 4) as u16));
                    }
                }
            }
            if step % 250 == 0 {
                check(&c);
            }
        }
        check(&c);
    }
}
