//! LLC partitions with embedded directory state.
//!
//! Each memory tile hosts one LLC partition; the partition's tag array also
//! stores the directory information (owner / sharer set) for the MESI
//! protocol, and the hierarchy is inclusive: any line resident in a private
//! cache is resident in its home LLC partition.

use cohmeleon_sim::stats::Counter;

use crate::controller::CacheId;
use crate::geometry::{CacheGeometry, LineAddr};
use crate::tagarray::{Entry, Probe, StripeKind, TagArray, TagStats};

/// A set of private caches sharing a line (bitset over [`CacheId`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty set.
    pub fn new() -> SharerSet {
        SharerSet(0)
    }

    /// Adds a cache.
    ///
    /// # Panics
    ///
    /// Panics if the cache index is ≥ 64 (the bitset width; far above any
    /// SoC in the paper).
    pub fn add(&mut self, cache: CacheId) {
        assert!(cache.0 < 64, "cache id {} exceeds sharer bitset", cache.0);
        self.0 |= 1 << cache.0;
    }

    /// Removes a cache if present.
    pub fn remove(&mut self, cache: CacheId) {
        self.0 &= !(1 << cache.0);
    }

    /// Membership test.
    pub fn contains(&self, cache: CacheId) -> bool {
        cache.0 < 64 && self.0 & (1 << cache.0) != 0
    }

    /// Number of sharers.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether no cache shares the line.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates the member cache ids in increasing order.
    pub fn iter(&self) -> SharerIter {
        SharerIter(self.0)
    }

    /// Removes and returns all members as a detached (allocation-free)
    /// set; iterate it with [`SharerSet::iter`].
    pub fn drain(&mut self) -> SharerSet {
        let members = SharerSet(self.0);
        self.0 = 0;
        members
    }
}

impl IntoIterator for SharerSet {
    type Item = CacheId;
    type IntoIter = SharerIter;

    fn into_iter(self) -> SharerIter {
        SharerIter(self.0)
    }
}

/// Iterator over a [`SharerSet`]'s members in increasing id order.
#[derive(Debug, Clone)]
pub struct SharerIter(u64);

impl Iterator for SharerIter {
    type Item = CacheId;

    fn next(&mut self) -> Option<CacheId> {
        if self.0 == 0 {
            return None;
        }
        let id = self.0.trailing_zeros() as u16;
        self.0 &= self.0 - 1;
        Some(CacheId(id))
    }
}

/// Directory + data state of one LLC-resident line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlcEntry {
    /// The LLC copy differs from DRAM.
    pub dirty: bool,
    /// The private cache holding the line in M or E state, if any.
    /// Mutually exclusive with a non-empty `sharers` set.
    pub owner: Option<CacheId>,
    /// Private caches holding the line in S state.
    pub sharers: SharerSet,
}

impl LlcEntry {
    /// A clean, unshared entry (fresh fill from DRAM).
    pub fn clean() -> LlcEntry {
        LlcEntry::default()
    }

    /// A dirty, unshared entry (DMA write allocation).
    pub fn dirty() -> LlcEntry {
        LlcEntry {
            dirty: true,
            ..LlcEntry::default()
        }
    }

    /// Is any private cache holding this line?
    pub fn has_private_copies(&self) -> bool {
        self.owner.is_some() || !self.sharers.is_empty()
    }
}

/// One LLC partition: an [`LlcEntry`] tag array plus monitor counters.
#[derive(Debug, Clone)]
pub struct LlcPartition {
    tags: TagArray<LlcEntry>,
    hits: Counter,
    misses: Counter,
}

impl LlcPartition {
    /// An empty partition.
    pub fn new(geometry: CacheGeometry) -> LlcPartition {
        LlcPartition {
            tags: TagArray::new(geometry),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// The partition geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.tags.geometry()
    }

    /// Number of sets (cached; no division).
    pub fn sets(&self) -> u64 {
        self.tags.sets()
    }

    /// The set a line maps to (masked, not divided, for power-of-two set
    /// counts).
    pub fn set_of(&self, line: LineAddr) -> u64 {
        self.tags.set_of(line)
    }

    /// Looks up a line (LRU-updating).
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut LlcEntry> {
        self.tags.lookup(line)
    }

    /// Single-scan lookup-or-victim-selection (see [`TagArray::probe`]).
    pub fn probe(&mut self, line: LineAddr) -> Probe {
        self.tags.probe(line)
    }

    /// [`probe`](Self::probe) with a caller-computed set index.
    pub fn probe_in_set(&mut self, set: u64, line: LineAddr) -> Probe {
        self.tags.probe_in_set(set, line)
    }

    /// Single-traversal probe (see [`TagArray::probe_in_set_fused`]).
    pub fn probe_in_set_fused(&mut self, set: u64, line: LineAddr) -> Probe {
        self.tags.probe_in_set_fused(set, line)
    }

    /// Fused probe that also reports the resident way of a second same-set
    /// line (see [`TagArray::probe_pair_in_set`]).
    pub fn probe_pair_in_set(
        &mut self,
        set: u64,
        line: LineAddr,
        extra: LineAddr,
    ) -> (Probe, Option<usize>) {
        self.tags.probe_pair_in_set(set, line, extra)
    }

    /// Replays a hit at a learned way after an O(1) tag check (see
    /// [`TagArray::touch_verified`]).
    pub fn touch_verified(&mut self, way: usize, line: LineAddr) -> bool {
        self.tags.touch_verified(way, line)
    }

    /// Resolves a same-set stripe of a burst in one traversal (see
    /// [`TagArray::walk_stripe`]).
    pub fn walk_stripe<H, M, E>(
        &mut self,
        set: u64,
        lines: &[LineAddr],
        out: &mut Vec<Probe>,
        on_hit: H,
        make: M,
        on_evict: E,
    ) -> StripeKind
    where
        H: FnMut(usize, &mut LlcEntry),
        M: FnMut(usize) -> LlcEntry,
        E: FnMut(usize, Entry<LlcEntry>),
    {
        self.tags
            .walk_stripe(set, lines, out, on_hit, make, on_evict)
    }

    /// The tag-walk operation counters.
    pub fn tag_stats(&self) -> &TagStats {
        self.tags.tag_stats()
    }

    /// The directory entry at a way returned by a hit probe.
    pub fn entry_at_mut(&mut self, way: usize) -> &mut LlcEntry {
        self.tags.state_at_mut(way)
    }

    /// Completes a fill at a miss probe's way, returning the way the line
    /// actually landed in and the victim.
    pub fn insert_at(
        &mut self,
        probe: Probe,
        line: LineAddr,
        entry: LlcEntry,
    ) -> (usize, Option<Entry<LlcEntry>>) {
        self.tags.insert_at(probe, line, entry)
    }

    /// Looks up a line without perturbing LRU.
    pub fn peek(&self, line: LineAddr) -> Option<LlcEntry> {
        self.tags.peek(line).copied()
    }

    /// Inserts a line, returning the evicted victim if any.
    pub fn insert(&mut self, line: LineAddr, entry: LlcEntry) -> Option<Entry<LlcEntry>> {
        self.tags.insert(line, entry)
    }

    /// Invalidates a line, returning its former entry.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LlcEntry> {
        self.tags.invalidate(line).map(|e| e.state)
    }

    /// Drains every line, calling `f` with each entry (flush).
    pub fn drain<F: FnMut(Entry<LlcEntry>)>(&mut self, mut f: F) {
        self.tags.drain(|_, entry| f(entry));
    }

    /// Iterates resident lines.
    pub fn iter(&self) -> impl Iterator<Item = Entry<LlcEntry>> + '_ {
        self.tags.iter()
    }

    /// Number of resident lines.
    pub fn valid_lines(&self) -> u64 {
        self.tags.valid_lines()
    }

    /// Number of resident dirty lines.
    pub fn dirty_lines(&self) -> u64 {
        self.tags.iter().filter(|e| e.state.dirty).count() as u64
    }

    /// Records a hit in the monitors.
    pub fn count_hit(&mut self) {
        self.hits.incr();
    }

    /// Records a miss in the monitors.
    pub fn count_miss(&mut self) {
        self.misses.incr();
    }

    /// Records `n` hits at once (stripe walks).
    pub fn count_hits(&mut self, n: u64) {
        self.hits.add(n);
    }

    /// Records `n` misses at once (stripe walks).
    pub fn count_misses(&mut self, n: u64) {
        self.misses.add(n);
    }

    /// Monitor: hits.
    pub fn hits(&self) -> u64 {
        self.hits.sample()
    }

    /// Monitor: misses.
    pub fn misses(&self) -> u64 {
        self.misses.sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_set_add_remove() {
        let mut s = SharerSet::new();
        assert!(s.is_empty());
        s.add(CacheId(3));
        s.add(CacheId(7));
        assert!(s.contains(CacheId(3)));
        assert!(!s.contains(CacheId(4)));
        assert_eq!(s.count(), 2);
        s.remove(CacheId(3));
        assert!(!s.contains(CacheId(3)));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn sharer_set_iter_in_order() {
        let mut s = SharerSet::new();
        s.add(CacheId(9));
        s.add(CacheId(1));
        s.add(CacheId(30));
        let ids: Vec<u16> = s.iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![1, 9, 30]);
    }

    #[test]
    fn sharer_set_drain_empties() {
        let mut s = SharerSet::new();
        s.add(CacheId(0));
        s.add(CacheId(5));
        let drained = s.drain();
        assert_eq!(drained.count(), 2);
        assert_eq!(
            drained.into_iter().collect::<Vec<_>>(),
            vec![CacheId(0), CacheId(5)]
        );
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds sharer bitset")]
    fn sharer_set_rejects_large_ids() {
        SharerSet::new().add(CacheId(64));
    }

    #[test]
    fn llc_entry_constructors() {
        assert!(!LlcEntry::clean().dirty);
        assert!(LlcEntry::dirty().dirty);
        assert!(!LlcEntry::clean().has_private_copies());
        let mut e = LlcEntry::clean();
        e.owner = Some(CacheId(1));
        assert!(e.has_private_copies());
    }

    #[test]
    fn partition_lifecycle() {
        let mut p = LlcPartition::new(CacheGeometry::new(16 * 1024, 16, 64));
        assert!(p.lookup(LineAddr(0)).is_none());
        p.insert(LineAddr(0), LlcEntry::dirty());
        assert_eq!(p.dirty_lines(), 1);
        p.lookup(LineAddr(0)).unwrap().dirty = false;
        assert_eq!(p.dirty_lines(), 0);
        assert_eq!(p.valid_lines(), 1);
        p.invalidate(LineAddr(0));
        assert_eq!(p.valid_lines(), 0);
    }

    #[test]
    fn partition_counters() {
        let mut p = LlcPartition::new(CacheGeometry::new(16 * 1024, 16, 64));
        p.count_hit();
        p.count_miss();
        p.count_miss();
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 2);
    }
}
