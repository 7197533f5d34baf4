//! A generic set-associative tag array with LRU replacement.
//!
//! Both the private L2s (payload: [`MesiState`](crate::mesi::MesiState)) and
//! the LLC partitions (payload: directory entry) are built on this array, so
//! capacity and conflict behaviour — the source of the warm-data and
//! thrashing effects in the paper's Figure 2 — are structural.
//!
//! # Layout
//!
//! The array is structure-of-arrays: line tags, LRU stamps and payloads live
//! in three parallel `Vec`s indexed by global way (`set × ways + way`). A
//! probe — the operation every modeled line access performs — scans only the
//! dense tag vector (8 bytes per way), so an LLC probe of a 16-way set
//! touches 2 cache lines instead of the ~12 an array-of-structs layout
//! costs. Payload and LRU stamps are touched only at the hit/fill way.
//! Set mapping is a cached mask when the set count is a power of two (all
//! evaluation SoCs); non-power-of-two counts use a precomputed
//! strength-reduced reciprocal instead of a per-call `%` division.
//!
//! # The run-level tag walk
//!
//! The classic probe ([`probe_in_set`](TagArray::probe_in_set)) performs up
//! to two scans of a set per miss: the tag scan that establishes the miss,
//! then either a free-way scan or an LRU arg-min pass. The *run-level*
//! batch APIs collapse that work without changing one observable bit:
//!
//! * [`probe_in_set_fused`](TagArray::probe_in_set_fused) computes the hit
//!   way, the first invalid way and the LRU arg-min in **one** traversal
//!   (and skips the traversal entirely for an empty set, whose outcome is
//!   forced). Results, mutations and clock ticks are identical to the
//!   classic probe.
//! * [`probe_pair_in_set`](TagArray::probe_pair_in_set) additionally reports
//!   the resident way of a *second* line mapping to the same set in the same
//!   traversal — a burst walk that knows it will touch a victim line in the
//!   set it is already scanning gets that way for free.
//! * [`touch_verified`](TagArray::touch_verified) replays a probe-hit's
//!   mutation (clock tick + LRU restamp) at a previously learned way after
//!   an O(1) tag check, so the second access costs zero scans.
//! * [`walk_stripe`](TagArray::walk_stripe) resolves a whole same-set
//!   *stripe* of a burst (the arithmetic subsequence of consecutive lines
//!   that lands in one set) against a single snapshot of the set, replaying
//!   the exact per-line probe/fill clock-and-stamp sequence in scratch and
//!   writing the set back once.
//!
//! Every operation also maintains [`TagStats`] — deterministic operation
//! counters (scan passes, probes, fills, evictions, fast-path hits) that the
//! perf harness uses to demonstrate the batched walk's operation-count
//! reduction independently of wall-clock noise.

use crate::geometry::{CacheGeometry, LineAddr};

/// Tag value marking an invalid (empty) way.
const INVALID: u64 = u64::MAX;

/// One resident line: its address and the cache-specific payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<S> {
    /// The line address.
    pub line: LineAddr,
    /// Cache-specific state (MESI state, directory entry, …).
    pub state: S,
}

/// The outcome of a single-scan [`TagArray::probe`]: either the way holding
/// the line (hit) or the way a fill should use (first invalid way if any,
/// else the LRU victim). Way indices are global (`set × ways + way`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Whether the line is resident.
    pub hit: bool,
    /// Global way index: the resident way on a hit, the fill target on a
    /// miss.
    pub way: usize,
}

/// Deterministic operation counters for one tag array.
///
/// `scans` is the headline metric: the number of associative *set
/// traversals* (a pass over one set's ways searching or arg-minimising).
/// The classic per-line walk pays up to two per miss; the run-level walk
/// pays at most one per probe and zero where the outcome is forced (empty
/// sets, verified way hints). Counters are plain integer increments on
/// paths that already mutate the array — effectively free when unread —
/// and are excluded from all golden/structural hashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Lookup-or-victim-select operations (classic, fused or stripe-batched).
    pub probes: u64,
    /// Associative set traversals (searches / arg-min passes) performed.
    pub scans: u64,
    /// Probe hits.
    pub hits: u64,
    /// Line fills.
    pub fills: u64,
    /// Fills that evicted a resident line.
    pub evictions: u64,
    /// Invalidations that removed a line.
    pub invalidations: u64,
    /// Probes served by the fused single-traversal path.
    pub fused_probes: u64,
    /// Probes resolved with zero traversals because the set was empty.
    pub empty_skips: u64,
    /// LRU touches served by a verified way hint (zero traversals).
    pub hint_hits: u64,
    /// Same-set stripe walks.
    pub stripe_probes: u64,
    /// Lines resolved through stripe walks.
    pub stripe_members: u64,
}

impl TagStats {
    /// Accumulates `other` into `self` (wrapping; counters are monotonic).
    pub fn merge(&mut self, other: &TagStats) {
        self.probes = self.probes.wrapping_add(other.probes);
        self.scans = self.scans.wrapping_add(other.scans);
        self.hits = self.hits.wrapping_add(other.hits);
        self.fills = self.fills.wrapping_add(other.fills);
        self.evictions = self.evictions.wrapping_add(other.evictions);
        self.invalidations = self.invalidations.wrapping_add(other.invalidations);
        self.fused_probes = self.fused_probes.wrapping_add(other.fused_probes);
        self.empty_skips = self.empty_skips.wrapping_add(other.empty_skips);
        self.hint_hits = self.hint_hits.wrapping_add(other.hint_hits);
        self.stripe_probes = self.stripe_probes.wrapping_add(other.stripe_probes);
        self.stripe_members = self.stripe_members.wrapping_add(other.stripe_members);
    }

    /// The counter deltas accumulated since `earlier` was sampled.
    pub fn delta_since(&self, earlier: &TagStats) -> TagStats {
        TagStats {
            probes: self.probes.wrapping_sub(earlier.probes),
            scans: self.scans.wrapping_sub(earlier.scans),
            hits: self.hits.wrapping_sub(earlier.hits),
            fills: self.fills.wrapping_sub(earlier.fills),
            evictions: self.evictions.wrapping_sub(earlier.evictions),
            invalidations: self.invalidations.wrapping_sub(earlier.invalidations),
            fused_probes: self.fused_probes.wrapping_sub(earlier.fused_probes),
            empty_skips: self.empty_skips.wrapping_sub(earlier.empty_skips),
            hint_hits: self.hint_hits.wrapping_sub(earlier.hint_hits),
            stripe_probes: self.stripe_probes.wrapping_sub(earlier.stripe_probes),
            stripe_members: self.stripe_members.wrapping_sub(earlier.stripe_members),
        }
    }
}

/// How a whole same-set stripe resolved in [`TagArray::walk_stripe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripeKind {
    /// Every member hit.
    AllHit,
    /// Every member missed and filled a free way (no evictions).
    AllMissFree,
    /// Every member missed and every fill evicted a resident line.
    AllMissEvict,
    /// Hits and misses (or free and evicting fills) interleaved.
    Mixed,
}

/// A set-associative array of [`Entry`]s with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct TagArray<S> {
    geometry: CacheGeometry,
    /// Cached `geometry.sets()` (a division at construction, not per access).
    sets: u64,
    /// `sets - 1` when `sets` is a power of two; set mapping is then a mask.
    set_mask: u64,
    /// Whether `set_mask` is usable (power-of-two set count).
    pow2: bool,
    /// Round-up reciprocal for non-power-of-two set counts: the low 64 bits
    /// of the Granlund–Montgomery magic `m = ⌊2^(64+ℓ)/sets⌋ + 1` (which
    /// always has bit 64 set for a non-power-of-two divisor), paired with
    /// the shift `ℓ = ⌈log₂ sets⌉`. Zero shift marks "unused".
    magic_m: u64,
    magic_l: u32,
    /// Line tag per global way; `INVALID` marks an empty way.
    tags: Vec<u64>,
    /// Monotonic use stamp per global way; smallest = least recently used.
    lrus: Vec<u64>,
    /// Payload per global way; `Some` exactly where `tags` is valid.
    states: Vec<Option<S>>,
    clock: u64,
    valid: u64,
    /// Valid-way count per set; lets flushes and iteration skip empty sets
    /// and lets fills detect a free way in O(1).
    set_valid: Vec<u32>,
    /// Scratch for [`walk_stripe`](Self::walk_stripe): one set's tags and
    /// LRU stamps, loaded in a single pass and written back once.
    stripe_tags: Vec<u64>,
    stripe_lrus: Vec<u64>,
    /// Operation counters (see [`TagStats`]).
    stats: TagStats,
}

/// The round-up Granlund–Montgomery reciprocal for a non-power-of-two
/// divisor `d` in `2..=2^62`: returns `(m − 2^64, ℓ)` with
/// `ℓ = ⌈log₂ d⌉` and `m = ⌊2^(64+ℓ)/d⌋ + 1`. Since `d < 2^ℓ` and
/// `2^(64+ℓ) mod d` is nonzero, the round-up condition
/// `d − (2^(64+ℓ) mod d) < 2^ℓ` holds unconditionally, so
/// `⌊m·n / 2^(64+ℓ)⌋ = ⌊n/d⌋` for every 64-bit `n` (pinned across the u64
/// range by a property test); and `m ≥ 2^64`, so the subtraction fits u64.
fn reciprocal(d: u64) -> (u64, u32) {
    debug_assert!(d >= 2 && !d.is_power_of_two() && d <= (1 << 62));
    let l = 64 - (d - 1).leading_zeros();
    let m = ((1u128 << (64 + l)) / u128::from(d)) + 1;
    ((m - (1u128 << 64)) as u64, l)
}

/// `n mod d` via the reciprocal from [`reciprocal`]: the quotient is
/// `⌊((n·m') >> 64 + n) / 2^ℓ⌋` with `m' = m − 2^64` (the add-back form);
/// the sum cannot overflow in 128-bit arithmetic.
#[inline]
fn rem_magic(n: u64, magic_m: u64, magic_l: u32, d: u64) -> u64 {
    let hi = ((u128::from(n) * u128::from(magic_m)) >> 64) as u64;
    let q = ((u128::from(hi) + u128::from(n)) >> magic_l) as u64;
    n - q * d
}

/// Scan of one set's tags for `needle`: the first matching way offset.
#[inline]
fn scan(tags: &[u64], needle: u64) -> Option<usize> {
    tags.iter().position(|&t| t == needle)
}

/// Index of the minimum over one set's LRU stamps (first on ties).
#[inline]
fn min_index(lrus: &[u64]) -> usize {
    let mut best = lrus[0];
    let mut idx = 0usize;
    for (i, &l) in lrus.iter().enumerate().skip(1) {
        if l < best {
            best = l;
            idx = i;
        }
    }
    idx
}

impl<S> TagArray<S> {
    /// An empty array with the given geometry.
    pub fn new(geometry: CacheGeometry) -> TagArray<S> {
        let sets = geometry.sets();
        let n = (sets * u64::from(geometry.ways)) as usize;
        let mut states = Vec::with_capacity(n);
        states.resize_with(n, || None);
        let pow2 = sets.is_power_of_two();
        let (magic_m, magic_l) = if !pow2 && (2..=(1u64 << 62)).contains(&sets) {
            reciprocal(sets)
        } else {
            (0, 0)
        };
        TagArray {
            geometry,
            sets,
            set_mask: sets.wrapping_sub(1),
            pow2,
            magic_m,
            magic_l,
            tags: vec![INVALID; n],
            lrus: vec![0; n],
            states,
            clock: 0,
            valid: 0,
            set_valid: vec![0; sets as usize],
            stripe_tags: vec![INVALID; geometry.ways as usize],
            stripe_lrus: vec![0; geometry.ways as usize],
            stats: TagStats::default(),
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of sets (cached; no division).
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// The set a line maps to — [`CacheGeometry::set_of`] without the
    /// per-call division: a mask for power-of-two set counts, a
    /// strength-reduced multiply-shift reciprocal otherwise.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> u64 {
        if self.pow2 {
            line.0 & self.set_mask
        } else if self.magic_l != 0 {
            rem_magic(line.0, self.magic_m, self.magic_l, self.sets)
        } else {
            line.0 % self.sets
        }
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> u64 {
        self.valid
    }

    /// The operation counters accumulated so far.
    pub fn tag_stats(&self) -> &TagStats {
        &self.stats
    }

    #[inline]
    fn set_base(&self, set: u64) -> usize {
        set as usize * self.geometry.ways as usize
    }

    /// Looks up a line without touching LRU state; returns its payload.
    /// Not counted in [`TagStats`] (introspection, not a modeled access).
    pub fn peek(&self, line: LineAddr) -> Option<&S> {
        let base = self.set_base(self.set_of(line));
        let ways = self.geometry.ways as usize;
        let i = scan(&self.tags[base..base + ways], line.0)?;
        self.states[base + i].as_ref()
    }

    /// The resident line at a global way, if any. O(1); no LRU update.
    pub fn line_at(&self, way: usize) -> Option<LineAddr> {
        (self.tags[way] != INVALID).then(|| LineAddr(self.tags[way]))
    }

    /// Looks up a line, updating LRU on hit, and returns a mutable reference
    /// to its state.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut S> {
        let set = self.set_of(line);
        let probe = self.probe_in_set(set, line);
        if probe.hit {
            Some(self.state_at_mut(probe.way))
        } else {
            None
        }
    }

    /// Single-scan lookup-or-victim-selection for the set `line` maps to.
    ///
    /// On a hit, updates the line's LRU stamp and returns its way. On a
    /// miss, returns the way a fill should use — the first invalid way if
    /// the set has one, otherwise the LRU victim — without mutating
    /// anything. Pair with [`insert_at`](Self::insert_at) to complete a
    /// fill without rescanning the set.
    pub fn probe(&mut self, line: LineAddr) -> Probe {
        let set = self.set_of(line);
        self.probe_in_set(set, line)
    }

    /// [`probe`](Self::probe) with the set index supplied by the caller.
    ///
    /// Batched range walks compute set indices incrementally (consecutive
    /// lines map to consecutive sets) instead of dividing per line.
    ///
    /// This is the *classic* (per-line reference) probe: a tag scan, plus a
    /// second set traversal on a miss (free-way search or LRU arg-min).
    pub fn probe_in_set(&mut self, set: u64, line: LineAddr) -> Probe {
        debug_assert_eq!(set, self.set_of(line), "set index mismatch");
        self.clock += 1;
        let clock = self.clock;
        let ways = self.geometry.ways as usize;
        let base = self.set_base(set);
        let tags = &self.tags[base..base + ways];
        self.stats.probes += 1;
        self.stats.scans += 1;
        // Hit scan touches only the dense tag vector.
        if let Some(i) = scan(tags, line.0) {
            self.stats.hits += 1;
            self.lrus[base + i] = clock;
            return Probe {
                hit: true,
                way: base + i,
            };
        }
        // Miss: first free way if any, else the LRU victim (first on ties).
        // The per-set valid count says which scan applies, so a full set
        // (the steady state) never scans for a free way it does not have.
        self.stats.scans += 1;
        let way = if self.set_valid[set as usize] < ways as u32 {
            base + scan(tags, INVALID).expect("set_valid promised a free way")
        } else {
            base + min_index(&self.lrus[base..base + ways])
        };
        Probe { hit: false, way }
    }

    /// [`probe_in_set`](Self::probe_in_set), fused: the hit way, the first
    /// invalid way and the LRU arg-min are computed in a **single**
    /// traversal (an empty set is resolved with none). Results, mutations
    /// and clock evolution are bit-identical to the classic probe — only
    /// the traversal count differs.
    pub fn probe_in_set_fused(&mut self, set: u64, line: LineAddr) -> Probe {
        debug_assert_eq!(set, self.set_of(line), "set index mismatch");
        self.clock += 1;
        let clock = self.clock;
        let ways = self.geometry.ways as usize;
        let base = self.set_base(set);
        self.stats.probes += 1;
        self.stats.fused_probes += 1;
        if self.set_valid[set as usize] == 0 {
            // Empty set: the outcome is forced — a miss filling the first
            // (invalid) way, exactly what the classic scans would find.
            self.stats.empty_skips += 1;
            return Probe {
                hit: false,
                way: base,
            };
        }
        self.stats.scans += 1;
        let mut first_invalid: Option<usize> = None;
        let mut min_lru = u64::MAX;
        let mut min_idx = 0usize;
        for i in 0..ways {
            let t = self.tags[base + i];
            if t == line.0 {
                self.stats.hits += 1;
                self.lrus[base + i] = clock;
                return Probe {
                    hit: true,
                    way: base + i,
                };
            }
            if t == INVALID {
                if first_invalid.is_none() {
                    first_invalid = Some(i);
                }
            } else if first_invalid.is_none() {
                // Arg-min only matters for a full set; stop tracking once a
                // free way is known. Strict `<` keeps the first on ties,
                // matching `min_index`.
                let l = self.lrus[base + i];
                if l < min_lru {
                    min_lru = l;
                    min_idx = i;
                }
            }
        }
        let way = match first_invalid {
            Some(i) => base + i,
            None => base + min_idx,
        };
        Probe { hit: false, way }
    }

    /// [`probe_in_set_fused`](Self::probe_in_set_fused) that also reports
    /// the resident way of `extra` — a second line mapping to the same set —
    /// found in the same traversal. A burst walk that knows it must touch a
    /// victim line in the set it is already scanning gets that way for
    /// free; pair with [`touch_verified`](Self::touch_verified).
    ///
    /// The probe for `line` is bit-identical to the classic probe; `extra`
    /// is only observed, never mutated.
    pub fn probe_pair_in_set(
        &mut self,
        set: u64,
        line: LineAddr,
        extra: LineAddr,
    ) -> (Probe, Option<usize>) {
        debug_assert_eq!(set, self.set_of(line), "set index mismatch");
        debug_assert_eq!(set, self.set_of(extra), "extra line maps elsewhere");
        self.clock += 1;
        let clock = self.clock;
        let ways = self.geometry.ways as usize;
        let base = self.set_base(set);
        self.stats.probes += 1;
        self.stats.fused_probes += 1;
        if self.set_valid[set as usize] == 0 {
            self.stats.empty_skips += 1;
            return (
                Probe {
                    hit: false,
                    way: base,
                },
                None,
            );
        }
        self.stats.scans += 1;
        let mut extra_way: Option<usize> = None;
        let mut hit_way: Option<usize> = None;
        let mut first_invalid: Option<usize> = None;
        let mut min_lru = u64::MAX;
        let mut min_idx = 0usize;
        for i in 0..ways {
            let t = self.tags[base + i];
            if t == line.0 {
                hit_way = Some(i);
                // Keep scanning: `extra` may sit in a later way.
            } else if t == extra.0 {
                extra_way = Some(base + i);
            }
            if hit_way.is_none() {
                if t == INVALID {
                    if first_invalid.is_none() {
                        first_invalid = Some(i);
                    }
                } else if first_invalid.is_none() {
                    let l = self.lrus[base + i];
                    if l < min_lru {
                        min_lru = l;
                        min_idx = i;
                    }
                }
            }
        }
        if let Some(i) = hit_way {
            self.stats.hits += 1;
            self.lrus[base + i] = clock;
            return (
                Probe {
                    hit: true,
                    way: base + i,
                },
                extra_way,
            );
        }
        let way = match first_invalid {
            Some(i) => base + i,
            None => base + min_idx,
        };
        (Probe { hit: false, way }, extra_way)
    }

    /// Replays a probe-hit's mutation (clock tick + LRU restamp) at a
    /// previously learned way, after verifying in O(1) that the way still
    /// holds `line`. Returns `false` — with **no** mutation — if it does
    /// not (the caller falls back to a full probe). A successful touch is
    /// bit-identical to a hitting [`probe`](Self::probe) and costs zero
    /// traversals.
    pub fn touch_verified(&mut self, way: usize, line: LineAddr) -> bool {
        if self.tags[way] != line.0 {
            return false;
        }
        self.clock += 1;
        self.lrus[way] = self.clock;
        self.stats.probes += 1;
        self.stats.hits += 1;
        self.stats.hint_hits += 1;
        true
    }

    /// The state at a way returned by a hit probe.
    ///
    /// # Panics
    ///
    /// Panics if the way is invalid.
    pub fn state_at_mut(&mut self, way: usize) -> &mut S {
        self.states[way].as_mut().expect("way holds a line")
    }

    /// The state at a way returned by a hit probe (read-only).
    ///
    /// # Panics
    ///
    /// Panics if the way is invalid.
    pub fn state_at(&self, way: usize) -> &S {
        self.states[way].as_ref().expect("way holds a line")
    }

    /// Completes a fill at the way a miss probe returned, evicting its
    /// occupant if the set is still full. Returns the way the line actually
    /// landed in and the evicted entry.
    ///
    /// Directory actions between the probe and the fill may have
    /// invalidated lines in this set; if so, the fill diverts to a free way
    /// (detected in O(1) via the per-set valid count) exactly as a fresh
    /// [`insert`](Self::insert) would, so no spurious eviction occurs — the
    /// returned way reports the diversion.
    pub fn insert_at(
        &mut self,
        probe: Probe,
        line: LineAddr,
        state: S,
    ) -> (usize, Option<Entry<S>>) {
        debug_assert!(!probe.hit, "insert_at requires a miss probe");
        debug_assert!(self.peek(line).is_none(), "inserting resident line {line}");
        debug_assert_ne!(
            line.0, INVALID,
            "line address collides with the invalid tag"
        );
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line) as usize;
        let ways = self.geometry.ways as usize;
        let mut way = probe.way;
        self.stats.fills += 1;
        if self.tags[way] != INVALID && self.set_valid[set] < ways as u32 {
            // An interleaved invalidation freed a way after the probe chose
            // an eviction victim: take the free way instead.
            self.stats.scans += 1;
            let base = set * ways;
            way = base
                + scan(&self.tags[base..base + ways], INVALID)
                    .expect("set_valid promised a free way");
        }
        let victim = if self.tags[way] != INVALID {
            self.stats.evictions += 1;
            Some(Entry {
                line: LineAddr(self.tags[way]),
                state: self.states[way].take().expect("valid way holds a state"),
            })
        } else {
            None
        };
        self.tags[way] = line.0;
        self.states[way] = Some(state);
        self.lrus[way] = clock;
        if victim.is_none() {
            self.valid += 1;
            self.set_valid[set] += 1;
        }
        (way, victim)
    }

    /// Inserts a line (which must not already be present), evicting the LRU
    /// victim of its set if the set is full. Returns the evicted entry.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present; callers must
    /// use [`lookup`](Self::lookup) first.
    pub fn insert(&mut self, line: LineAddr, state: S) -> Option<Entry<S>> {
        let set = self.set_of(line);
        let probe = self.probe_in_set(set, line);
        debug_assert!(!probe.hit, "inserting resident line {line}");
        self.insert_at(probe, line, state).1
    }

    /// Removes a line if present, returning its entry.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Entry<S>> {
        let set = self.set_of(line) as usize;
        if self.set_valid[set] == 0 {
            return None;
        }
        self.stats.scans += 1;
        let ways = self.geometry.ways as usize;
        let base = set * ways;
        let way = base + scan(&self.tags[base..base + ways], line.0)?;
        self.stats.invalidations += 1;
        self.valid -= 1;
        self.set_valid[set] -= 1;
        self.tags[way] = INVALID;
        Some(Entry {
            line,
            state: self.states[way].take().expect("valid way holds a state"),
        })
    }

    /// Removes every line, invoking `f` on each removed entry (e.g. to count
    /// dirty writebacks during a flush). Skips empty sets, so a flush costs
    /// O(resident + sets), not O(sets × ways). Each non-empty set counts as
    /// one traversal in [`TagStats`] (identical under both walk modes).
    pub fn drain<F: FnMut(usize, Entry<S>)>(&mut self, mut f: F) {
        let ways = self.geometry.ways as usize;
        for (set, count) in self.set_valid.iter_mut().enumerate() {
            if *count == 0 {
                continue;
            }
            self.stats.scans += 1;
            let mut remaining = *count;
            *count = 0;
            for way in set * ways..(set + 1) * ways {
                if self.tags[way] != INVALID {
                    let entry = Entry {
                        line: LineAddr(self.tags[way]),
                        state: self.states[way].take().expect("valid way holds a state"),
                    };
                    self.tags[way] = INVALID;
                    self.stats.invalidations += 1;
                    f(way, entry);
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
            }
        }
        self.valid = 0;
    }
}

impl<S: Copy> TagArray<S> {
    /// Resolves a whole same-set *stripe* — `lines`, all mapping to `set`,
    /// in burst order — against a single snapshot of the set.
    ///
    /// The per-line reference behaviour for each member is: probe (clock
    /// tick; hit restamps and calls `on_hit`), then on a miss an immediate
    /// fill (second clock tick; state from `make`; an evicted occupant is
    /// passed to `on_evict` *in member order*, so the caller can interleave
    /// its own per-victim processing exactly as the per-line loop would).
    /// The walk replays that sequence — identical clock ticks, identical
    /// stamp values, identical victim choices (first-invalid / first-min
    /// tie-breaking) — in scratch, then writes the set back once. Only the
    /// traversal count differs: one load pass (zero for an empty set)
    /// instead of up to two per member.
    ///
    /// `out` receives one [`Probe`] per member (cleared first). Returns the
    /// stripe's classification.
    ///
    /// # Panics
    ///
    /// Debug-asserts every member maps to `set` and is not `u64::MAX`.
    pub fn walk_stripe<H, M, E>(
        &mut self,
        set: u64,
        lines: &[LineAddr],
        out: &mut Vec<Probe>,
        mut on_hit: H,
        mut make: M,
        mut on_evict: E,
    ) -> StripeKind
    where
        H: FnMut(usize, &mut S),
        M: FnMut(usize) -> S,
        E: FnMut(usize, Entry<S>),
    {
        let ways = self.geometry.ways as usize;
        let base = self.set_base(set);
        out.clear();
        self.stats.stripe_probes += 1;
        self.stats.stripe_members += lines.len() as u64;
        // One load pass (none if the set is empty — the scratch default of
        // all-invalid is already exact).
        let resident = self.set_valid[set as usize];
        if resident == 0 {
            self.stats.empty_skips += 1;
            self.stripe_tags[..ways].fill(INVALID);
        } else {
            self.stats.scans += 1;
            self.stripe_tags[..ways].copy_from_slice(&self.tags[base..base + ways]);
            self.stripe_lrus[..ways].copy_from_slice(&self.lrus[base..base + ways]);
        }
        let mut hits = 0usize;
        let mut evictions = 0usize;
        for (m, &line) in lines.iter().enumerate() {
            debug_assert_eq!(set, self.set_of(line), "stripe member maps elsewhere");
            debug_assert_ne!(
                line.0, INVALID,
                "line address collides with the invalid tag"
            );
            self.clock += 1;
            self.stats.probes += 1;
            // Probe against the scratch.
            if let Some(i) = scan(&self.stripe_tags[..ways], line.0) {
                self.stats.hits += 1;
                hits += 1;
                self.stripe_lrus[i] = self.clock;
                on_hit(
                    m,
                    self.states[base + i]
                        .as_mut()
                        .expect("scratch hit holds state"),
                );
                out.push(Probe {
                    hit: true,
                    way: base + i,
                });
                continue;
            }
            // Miss: fill immediately (first invalid way, else first-min LRU
            // victim), exactly as probe_in_set + insert_at would.
            let i = match scan(&self.stripe_tags[..ways], INVALID) {
                Some(i) => i,
                None => min_index(&self.stripe_lrus[..ways]),
            };
            self.clock += 1;
            self.stats.fills += 1;
            if self.stripe_tags[i] != INVALID {
                self.stats.evictions += 1;
                evictions += 1;
                let victim = Entry {
                    line: LineAddr(self.stripe_tags[i]),
                    state: self.states[base + i]
                        .take()
                        .expect("valid way holds a state"),
                };
                on_evict(m, victim);
            } else {
                self.valid += 1;
                self.set_valid[set as usize] += 1;
            }
            self.stripe_tags[i] = line.0;
            self.stripe_lrus[i] = self.clock;
            self.states[base + i] = Some(make(m));
            out.push(Probe {
                hit: false,
                way: base + i,
            });
        }
        // Write the set back once (direct indexed writes, not a search).
        self.tags[base..base + ways].copy_from_slice(&self.stripe_tags[..ways]);
        self.lrus[base..base + ways].copy_from_slice(&self.stripe_lrus[..ways]);
        let misses = lines.len() - hits;
        if misses == 0 {
            StripeKind::AllHit
        } else if hits == 0 && evictions == 0 {
            StripeKind::AllMissFree
        } else if hits == 0 && evictions == misses {
            StripeKind::AllMissEvict
        } else {
            StripeKind::Mixed
        }
    }

    /// Iterates over all resident entries (no LRU update), skipping empty
    /// sets.
    pub fn iter(&self) -> impl Iterator<Item = Entry<S>> + '_ {
        let ways = self.geometry.ways as usize;
        self.set_valid
            .iter()
            .enumerate()
            .filter(|(_, count)| **count > 0)
            .flat_map(move |(set, _)| {
                (set * ways..(set + 1) * ways)
                    .filter(|&way| self.tags[way] != INVALID)
                    .map(move |way| Entry {
                        line: LineAddr(self.tags[way]),
                        state: self.states[way].expect("valid way holds a state"),
                    })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagArray<u32> {
        // 2 sets × 2 ways of 64-byte lines.
        TagArray::new(CacheGeometry::new(256, 2, 64))
    }

    #[test]
    fn miss_then_hit() {
        let mut t = small();
        assert!(t.lookup(LineAddr(0)).is_none());
        assert_eq!(t.insert(LineAddr(0), 7), None);
        assert_eq!(t.lookup(LineAddr(0)), Some(&mut 7));
        assert_eq!(t.valid_lines(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut t = small();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        t.insert(LineAddr(0), 0);
        t.insert(LineAddr(2), 2);
        // Touch line 0 so line 2 becomes LRU.
        t.lookup(LineAddr(0));
        let victim = t.insert(LineAddr(4), 4).expect("set is full");
        assert_eq!(victim.line, LineAddr(2));
        assert!(t.peek(LineAddr(0)).is_some());
        assert!(t.peek(LineAddr(4)).is_some());
    }

    #[test]
    fn insert_prefers_invalid_ways() {
        let mut t = small();
        t.insert(LineAddr(0), 0);
        assert!(t.insert(LineAddr(2), 2).is_none());
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut t = small();
        t.insert(LineAddr(0), 0); // set 0
        t.insert(LineAddr(1), 1); // set 1
        t.insert(LineAddr(2), 2); // set 0
        t.insert(LineAddr(3), 3); // set 1
        assert_eq!(t.valid_lines(), 4);
        assert!(t.insert(LineAddr(4), 4).is_some()); // set 0 overflows
    }

    #[test]
    fn invalidate_removes_line() {
        let mut t = small();
        t.insert(LineAddr(0), 9);
        let removed = t.invalidate(LineAddr(0)).unwrap();
        assert_eq!(removed.state, 9);
        assert!(t.peek(LineAddr(0)).is_none());
        assert_eq!(t.valid_lines(), 0);
        assert!(t.invalidate(LineAddr(0)).is_none());
    }

    #[test]
    fn drain_visits_everything() {
        let mut t = small();
        t.insert(LineAddr(0), 1);
        t.insert(LineAddr(1), 2);
        t.insert(LineAddr(2), 3);
        let mut sum = 0;
        t.drain(|_, e| sum += e.state);
        assert_eq!(sum, 6);
        assert_eq!(t.valid_lines(), 0);
    }

    #[test]
    fn state_is_mutable_through_lookup() {
        let mut t = small();
        t.insert(LineAddr(0), 1);
        *t.lookup(LineAddr(0)).unwrap() = 42;
        assert_eq!(*t.peek(LineAddr(0)).unwrap(), 42);
    }

    #[test]
    fn iter_covers_resident_lines() {
        let mut t = small();
        t.insert(LineAddr(0), 1);
        t.insert(LineAddr(3), 2);
        let mut lines: Vec<u64> = t.iter().map(|e| e.line.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 3]);
    }

    #[test]
    fn capacity_larger_arrays() {
        // 32 KiB, 4-way, 64 B: 512 lines. Insert 512 distinct lines in a
        // stride-free pattern: no evictions.
        let mut t: TagArray<()> = TagArray::new(CacheGeometry::new(32 * 1024, 4, 64));
        let mut evictions = 0;
        for i in 0..512 {
            if t.insert(LineAddr(i), ()).is_some() {
                evictions += 1;
            }
        }
        assert_eq!(evictions, 0);
        assert_eq!(t.valid_lines(), 512);
        // The 513th line must evict.
        assert!(t.insert(LineAddr(512), ()).is_some());
    }

    #[test]
    fn non_power_of_two_sets_still_map_correctly() {
        // 3 sets × 2 ways: set mapping uses the reciprocal.
        let mut t: TagArray<u32> = TagArray::new(CacheGeometry::new(3 * 2 * 64, 2, 64));
        assert_eq!(t.sets(), 3);
        for i in 0..6 {
            t.insert(LineAddr(i), i as u32);
        }
        assert_eq!(t.valid_lines(), 6);
        for i in 0..6 {
            assert_eq!(t.peek(LineAddr(i)), Some(&(i as u32)), "line {i}");
        }
    }

    #[test]
    fn reciprocal_set_of_matches_modulo_at_edges() {
        // Through a real array for modest non-power-of-two set counts…
        for sets in [3u64, 5, 6, 7, 9, 12, 127, 129, 1000, 65535] {
            let geom = CacheGeometry::new(sets * 64, 1, 64);
            let t: TagArray<()> = TagArray::new(geom);
            assert_eq!(t.sets(), sets);
            for n in [
                0u64,
                1,
                sets - 1,
                sets,
                sets + 1,
                sets * 7 + 3,
                u64::MAX / 2,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(t.set_of(LineAddr(n)), n % sets, "n={n} sets={sets}");
            }
        }
        // …and via the raw reciprocal for huge divisors (no allocation),
        // including the extremes of the supported range.
        for d in [
            3u64,
            (1 << 32) - 1,
            (1 << 32) + 1,
            (1 << 62) - 1,
            (1 << 61) + 12345,
        ] {
            let (m, l) = reciprocal(d);
            for n in [
                0u64,
                1,
                d - 1,
                d,
                d + 1,
                u64::MAX / 2,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(rem_magic(n, m, l, d), n % d, "n={n} d={d}");
            }
        }
    }

    /// The reciprocal agrees with `%` across the whole u64 numerator
    /// range for every supported (non-power-of-two) divisor size. Each
    /// case draws the divisor's bit length first, so small divisors, where
    /// a round-down reciprocal would be off, are as likely as huge ones.
    /// Case `c` draws from `SmallRng::seed_from_u64(c)`.
    #[test]
    fn reciprocal_matches_modulo_across_u64() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for case in 0..64 {
            let mut rng = SmallRng::seed_from_u64(case);
            let bits = rng.gen_range(2u32..=62);
            // Strictly between the powers of two 2^(bits−1) and 2^bits.
            let d = rng.gen_range((1u64 << (bits - 1)) + 1..1u64 << bits);
            let n: u64 = rng.gen();
            let (m, l) = reciprocal(d);
            assert_eq!(rem_magic(n, m, l, d), n % d, "case {case}: n={n} d={d}");
        }
    }

    #[test]
    fn fused_probe_matches_classic_probe() {
        // Drive two identical arrays through the same mixed sequence, one
        // with classic probes and one fused; every Probe and every later
        // observation must agree.
        let geom = CacheGeometry::new(3 * 2 * 64, 2, 64); // 3 sets × 2 ways
        let mut a: TagArray<u32> = TagArray::new(geom);
        let mut b: TagArray<u32> = TagArray::new(geom);
        for step in 0u64..200 {
            let line = LineAddr((step * 7) % 18);
            let set = a.set_of(line);
            let pa = a.probe_in_set(set, line);
            let pb = b.probe_in_set_fused(set, line);
            assert_eq!(pa, pb, "step {step}");
            if !pa.hit {
                assert_eq!(
                    a.insert_at(pa, line, step as u32).1.map(|e| e.line),
                    b.insert_at(pb, line, step as u32).1.map(|e| e.line),
                );
            }
            if step % 13 == 0 {
                assert_eq!(
                    a.invalidate(line).map(|e| e.line),
                    b.invalidate(line).map(|e| e.line)
                );
            }
        }
        for n in 0..18 {
            assert_eq!(a.peek(LineAddr(n)), b.peek(LineAddr(n)), "line {n}");
        }
        // The fused side never pays the classic second miss pass.
        assert!(b.tag_stats().scans < a.tag_stats().scans);
    }

    #[test]
    fn probe_pair_reports_extra_resident_way() {
        let mut t = small();
        t.insert(LineAddr(0), 10); // set 0
        t.insert(LineAddr(2), 12); // set 0
        let (probe, extra) = t.probe_pair_in_set(0, LineAddr(4), LineAddr(2));
        assert!(!probe.hit);
        let way = extra.expect("line 2 is resident");
        assert_eq!(t.line_at(way), Some(LineAddr(2)));
        // Absent extra reports None.
        let (_, extra) = t.probe_pair_in_set(0, LineAddr(4), LineAddr(6));
        assert_eq!(extra, None);
    }

    #[test]
    fn touch_verified_restamps_exactly_like_a_hit_probe() {
        let geom = CacheGeometry::new(256, 2, 64);
        let mut a: TagArray<u32> = TagArray::new(geom);
        let mut b: TagArray<u32> = TagArray::new(geom);
        for t in [&mut a, &mut b] {
            t.insert(LineAddr(0), 1);
            t.insert(LineAddr(2), 2);
        }
        // a: classic hit probe; b: verified touch at the known way.
        let pa = a.probe(LineAddr(0));
        assert!(pa.hit);
        assert!(b.touch_verified(0, LineAddr(0)));
        // Same LRU consequence: line 2 is now the victim in both.
        assert_eq!(a.insert(LineAddr(4), 4).unwrap().line, LineAddr(2));
        assert_eq!(b.insert(LineAddr(4), 4).unwrap().line, LineAddr(2));
        // A stale hint mutates nothing and reports failure.
        assert!(!b.touch_verified(0, LineAddr(99)));
    }

    #[test]
    fn walk_stripe_matches_per_line_reference() {
        // Stripe of 5 members over a 2-way set: hits, free fills and
        // evictions (including of earlier stripe members) interleave.
        let geom = CacheGeometry::new(256, 2, 64); // 2 sets × 2 ways
        let mut a: TagArray<u32> = TagArray::new(geom);
        let mut b: TagArray<u32> = TagArray::new(geom);
        for t in [&mut a, &mut b] {
            t.insert(LineAddr(2), 100);
        }
        let members = [
            LineAddr(2),
            LineAddr(0),
            LineAddr(4),
            LineAddr(6),
            LineAddr(2),
        ];
        // Reference: per-line probe + immediate fill.
        let mut ref_victims = Vec::new();
        let mut ref_probes = Vec::new();
        for (m, &line) in members.iter().enumerate() {
            let p = a.probe_in_set(0, line);
            ref_probes.push(p);
            if p.hit {
                *a.state_at_mut(p.way) += 1;
            } else if let (_, Some(v)) = a.insert_at(p, line, m as u32) {
                ref_victims.push((m, v.line, v.state));
            }
        }
        // Stripe walk.
        let mut out = Vec::new();
        let mut victims = Vec::new();
        let kind = b.walk_stripe(
            0,
            &members,
            &mut out,
            |_, s| *s += 1,
            |m| m as u32,
            |m, v| victims.push((m, v.line, v.state)),
        );
        assert_eq!(kind, StripeKind::Mixed);
        assert_eq!(out, ref_probes);
        assert_eq!(victims, ref_victims);
        assert_eq!(a.valid_lines(), b.valid_lines());
        for n in 0..8 {
            assert_eq!(a.peek(LineAddr(n)), b.peek(LineAddr(n)), "line {n}");
        }
        // Subsequent LRU behaviour agrees (stamps replayed exactly).
        assert_eq!(
            a.insert(LineAddr(8), 8).map(|e| e.line),
            b.insert(LineAddr(8), 8).map(|e| e.line)
        );
    }

    #[test]
    fn walk_stripe_classifications() {
        let geom = CacheGeometry::new(256, 2, 64);
        let mut t: TagArray<u32> = TagArray::new(geom);
        let mut out = Vec::new();
        // Empty set: all-miss-into-free-ways, zero traversals.
        let scans_before = t.tag_stats().scans;
        let kind = t.walk_stripe(
            0,
            &[LineAddr(0), LineAddr(2)],
            &mut out,
            |_, _| {},
            |_| 0,
            |_, _| {},
        );
        assert_eq!(kind, StripeKind::AllMissFree);
        assert_eq!(t.tag_stats().scans, scans_before);
        // Same members again: all-hit.
        let kind = t.walk_stripe(
            0,
            &[LineAddr(0), LineAddr(2)],
            &mut out,
            |_, _| {},
            |_| 0,
            |_, _| {},
        );
        assert_eq!(kind, StripeKind::AllHit);
        // Fresh members into the full set: all-miss-with-eviction.
        let kind = t.walk_stripe(
            0,
            &[LineAddr(4), LineAddr(6)],
            &mut out,
            |_, _| {},
            |_| 0,
            |_, _| {},
        );
        assert_eq!(kind, StripeKind::AllMissEvict);
    }

    #[test]
    fn stats_track_operations() {
        let mut t = small();
        t.insert(LineAddr(0), 1); // probe (2 scans: miss) + fill
        t.lookup(LineAddr(0)); // probe (1 scan: hit)
        t.invalidate(LineAddr(0)); // 1 scan, 1 invalidation
        let s = t.tag_stats();
        assert_eq!(s.probes, 2);
        assert_eq!(s.fills, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.scans, 4);
        let mut total = TagStats::default();
        total.merge(s);
        total.merge(s);
        assert_eq!(total.probes, 4);
        assert_eq!(total.delta_since(s).probes, 2);
    }
}
