//! The queen's lease table: who owes which cells, and until when.
//!
//! A **lease** is a contiguous run of dense cell indices granted to one
//! worker with a deadline. Completed cells retire from every lease that
//! covers them; a lease whose worker goes silent past its deadline is
//! eligible for **speculative re-lease** — its remaining cells are carved
//! into a fresh lease for another worker *without* being taken from the
//! original (both may finish; cells are pure functions of their
//! coordinates, so the duplicate completions are byte-identical and the
//! queen's checkpoint collapses them). The table never loses a cell: work
//! returns to the unleased pool when a lease is released with cells still
//! outstanding and no surviving twin.
//!
//! Every method takes `now` explicitly so expiry is unit-testable with a
//! synthetic clock.
//!
//! These same properties — idempotent release, re-poolable cells,
//! first-completion-wins twins — are what let the chaos soak tear fleet
//! connections at arbitrary byte offsets and still demand a
//! byte-identical checkpoint: a worker killed by an injected reset is
//! indistinguishable from one that crashed, and the table already had
//! an answer for that.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// One granted lease: a worker's claim on a set of cells until `deadline`.
#[derive(Debug, Clone)]
pub struct Lease {
    /// The wire id workers tag `RECORD`/`DONE`/`HEARTBEAT` with.
    pub id: u64,
    /// The worker's self-reported name (reporting only).
    pub worker: String,
    /// First dense index of the granted contiguous run.
    pub start: usize,
    /// Length of the granted run.
    pub len: usize,
    /// Cells of the run not yet completed (by anyone).
    outstanding: BTreeSet<usize>,
    /// Silence past this instant makes the lease eligible for
    /// speculative re-lease.
    deadline: Instant,
}

/// The queen's answer to a `LEASE` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// Run dense cells `start..start + len` under lease `id`.
    Lease {
        /// The new lease's id.
        id: u64,
        /// First dense cell index.
        start: usize,
        /// Number of cells.
        len: usize,
    },
    /// Every pending cell is leased to a live worker. Nothing changes
    /// before cells return to the pool or
    /// [`next_deadline`](LeaseTable::next_deadline) passes, so the queen
    /// holds the request until one of those happens.
    Wait,
    /// Every cell is complete.
    Complete,
}

/// A point-in-time view of one live lease (see
/// [`LeaseTable::lease_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseStat {
    /// The lease id.
    pub id: u64,
    /// The holding worker's name.
    pub worker: String,
    /// First dense index of the granted run.
    pub start: usize,
    /// Length of the granted run.
    pub len: usize,
    /// Cells of the run not yet completed by anyone.
    pub outstanding: usize,
    /// Time since the worker last showed life on this lease (grant,
    /// record, or heartbeat).
    pub age: Duration,
    /// Whether the lease is past its deadline (eligible for speculative
    /// re-lease).
    pub expired: bool,
}

/// The mutable heart of the queen: pending cells, the unleased pool, and
/// the active leases.
#[derive(Debug)]
pub struct LeaseTable {
    /// Cells not yet completed by anyone.
    incomplete: BTreeSet<usize>,
    /// Incomplete cells not covered by any active lease.
    unleased: BTreeSet<usize>,
    leases: HashMap<u64, Lease>,
    next_id: u64,
    chunk: usize,
    ttl: Duration,
    speculative: usize,
}

impl LeaseTable {
    /// Builds a table over the pending dense indices, granting at most
    /// `chunk` cells per lease with deadline `ttl` from grant time.
    pub fn new(
        pending: impl IntoIterator<Item = usize>,
        chunk: usize,
        ttl: Duration,
    ) -> LeaseTable {
        let incomplete: BTreeSet<usize> = pending.into_iter().collect();
        LeaseTable {
            unleased: incomplete.clone(),
            incomplete,
            leases: HashMap::new(),
            next_id: 0,
            chunk: chunk.max(1),
            ttl,
            speculative: 0,
        }
    }

    /// Whether every cell has completed.
    pub fn is_complete(&self) -> bool {
        self.incomplete.is_empty()
    }

    /// How many speculative (twin) leases have been granted.
    pub fn speculative(&self) -> usize {
        self.speculative
    }

    /// Number of live leases.
    pub fn active_leases(&self) -> usize {
        self.leases.len()
    }

    /// Answers a worker's `LEASE` request at time `now`.
    ///
    /// Preference order: a contiguous run carved from the unleased pool;
    /// else a speculative re-lease carved from the most-overdue expired
    /// lease's outstanding cells (the original keeps them too — first
    /// completion wins — and gets its deadline pushed out so the same
    /// cells are not immediately re-speculated a third time); else
    /// [`Grant::Wait`].
    pub fn grant(&mut self, worker: &str, now: Instant) -> Grant {
        if self.is_complete() {
            return Grant::Complete;
        }
        let chunk = self.effective_chunk(self.unleased.len());
        if let Some((start, len)) = carve(&self.unleased, chunk) {
            for index in start..start + len {
                self.unleased.remove(&index);
            }
            return Grant::Lease {
                id: self.insert_lease(worker, start, len, now),
                start,
                len,
            };
        }
        // Nothing unleased: look for an expired lease to double-dispatch.
        let overdue = self
            .leases
            .values()
            .filter(|l| l.deadline <= now && !l.outstanding.is_empty())
            .min_by_key(|l| l.deadline)
            .map(|l| l.id);
        if let Some(old_id) = overdue {
            let old = self.leases.get_mut(&old_id).expect("lease just found");
            let chunk = self
                .chunk
                .min(old.outstanding.len().div_ceil(TAIL_PARALLELISM))
                .max(1);
            let (start, len) = carve(&old.outstanding, chunk).expect("non-empty outstanding");
            old.deadline = now + self.ttl;
            self.speculative += 1;
            return Grant::Lease {
                id: self.insert_lease(worker, start, len, now),
                start,
                len,
            };
        }
        Grant::Wait
    }

    /// Dynamic chunk sizing: the configured chunk, shrunk as `remaining`
    /// cells approach the tail so the last stretch of the grid spreads
    /// across up to [`TAIL_PARALLELISM`] workers instead of riding out in
    /// one worker's full-size lease. With a large pool this is exactly the
    /// configured chunk; it only bites once fewer than
    /// `chunk × TAIL_PARALLELISM` cells remain.
    fn effective_chunk(&self, remaining: usize) -> usize {
        self.chunk.min(remaining.div_ceil(TAIL_PARALLELISM)).max(1)
    }

    fn insert_lease(&mut self, worker: &str, start: usize, len: usize, now: Instant) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.leases.insert(
            id,
            Lease {
                id,
                worker: worker.to_string(),
                start,
                len,
                outstanding: (start..start + len).collect(),
                deadline: now + self.ttl,
            },
        );
        id
    }

    /// Records cell `index` as completed, reported under `lease_id`.
    ///
    /// The cell retires from the incomplete set, the unleased pool, and
    /// *every* lease's outstanding set (speculative twins included); a
    /// lease drained to empty is removed. The reporting lease — the
    /// worker is evidently alive — gets its deadline refreshed. Returns
    /// whether the cell was still incomplete (`false` = a duplicate from
    /// a speculative twin or an unknown lease, both fine).
    pub fn complete_cell(&mut self, index: usize, lease_id: u64, now: Instant) -> bool {
        let fresh = self.incomplete.remove(&index);
        self.unleased.remove(&index);
        for lease in self.leases.values_mut() {
            lease.outstanding.remove(&index);
        }
        self.leases.retain(|_, l| !l.outstanding.is_empty());
        if let Some(lease) = self.leases.get_mut(&lease_id) {
            lease.deadline = now + self.ttl;
        }
        fresh
    }

    /// Refreshes `lease_id`'s deadline. Returns whether the lease is
    /// still live.
    pub fn heartbeat(&mut self, lease_id: u64, now: Instant) -> bool {
        match self.leases.get_mut(&lease_id) {
            Some(lease) => {
                lease.deadline = now + self.ttl;
                true
            }
            None => false,
        }
    }

    /// The earliest deadline among live leases: the first instant a
    /// [`grant`](Self::grant) that answers [`Grant::Wait`] now could
    /// answer a speculative lease instead. `None` with no live lease.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.leases.values().map(|l| l.deadline).min()
    }

    /// A point-in-time view of every live lease at `now`, ordered by
    /// lease id — the raw material for the queen's periodic status line.
    pub fn lease_stats(&self, now: Instant) -> Vec<LeaseStat> {
        let mut stats: Vec<LeaseStat> = self
            .leases
            .values()
            .map(|lease| {
                // The deadline is always set to refresh-time + ttl, so
                // the last sign of life is recoverable from it.
                let refreshed = lease.deadline.checked_sub(self.ttl);
                LeaseStat {
                    id: lease.id,
                    worker: lease.worker.clone(),
                    start: lease.start,
                    len: lease.len,
                    outstanding: lease.outstanding.len(),
                    age: refreshed
                        .map(|r| now.saturating_duration_since(r))
                        .unwrap_or_default(),
                    expired: lease.deadline <= now,
                }
            })
            .collect();
        stats.sort_by_key(|s| s.id);
        stats
    }

    /// Drops lease `lease_id` (worker finished it, or its connection
    /// died). Any cells still outstanding return to the unleased pool —
    /// unless a surviving twin lease covers them, in which case that twin
    /// keeps the claim and the pool stays clean of double-grants.
    pub fn release(&mut self, lease_id: u64) {
        let Some(lease) = self.leases.remove(&lease_id) else {
            return;
        };
        for index in lease.outstanding {
            let covered = self.leases.values().any(|l| l.outstanding.contains(&index));
            if self.incomplete.contains(&index) && !covered {
                self.unleased.insert(index);
            }
        }
    }
}

/// How many workers the tail of a grid should spread across: grants shrink
/// once the relevant pool drops below `chunk × TAIL_PARALLELISM` cells
/// (see [`LeaseTable::grant`]).
const TAIL_PARALLELISM: usize = 4;

/// Finds the longest contiguous run starting at the set's first element,
/// capped at `chunk`. Returns `(start, len)`, or `None` if empty.
fn carve(set: &BTreeSet<usize>, chunk: usize) -> Option<(usize, usize)> {
    let start = *set.iter().next()?;
    let mut len = 1;
    while len < chunk && set.contains(&(start + len)) {
        len += 1;
    }
    Some((start, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: Duration = Duration::from_secs(10);

    fn lease(grant: Grant) -> (u64, usize, usize) {
        match grant {
            Grant::Lease { id, start, len } => (id, start, len),
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    #[test]
    fn carves_contiguous_runs_capped_at_chunk() {
        // Pool large enough (≥ chunk × TAIL_PARALLELISM) that the dynamic
        // tail shrink stays out of the way.
        let pending = (0..16).filter(|i| *i != 3);
        let mut table = LeaseTable::new(pending, 3, TTL);
        let now = Instant::now();
        assert_eq!(lease(table.grant("a", now)), (1, 0, 3));
        // 4 starts a fresh run (3 is not pending).
        assert_eq!(lease(table.grant("b", now)), (2, 4, 3));
        assert_eq!(lease(table.grant("c", now)), (3, 7, 3));
    }

    #[test]
    fn large_pool_grants_stay_full_size() {
        let mut table = LeaseTable::new(0..64, 4, TTL);
        let now = Instant::now();
        assert_eq!(lease(table.grant("a", now)), (1, 0, 4));
        assert_eq!(lease(table.grant("b", now)), (2, 4, 4));
    }

    #[test]
    fn tail_grants_shrink_to_parallelize() {
        // 8 cells, chunk 8: one worker would otherwise carry the whole
        // tail; the dynamic chunk spreads it across several.
        let mut table = LeaseTable::new(0..8, 8, TTL);
        let now = Instant::now();
        assert_eq!(lease(table.grant("a", now)), (1, 0, 2));
        assert_eq!(lease(table.grant("b", now)), (2, 2, 2));
        assert_eq!(lease(table.grant("c", now)), (3, 4, 1));
        assert_eq!(lease(table.grant("d", now)), (4, 5, 1));
        assert_eq!(lease(table.grant("e", now)), (5, 6, 1));
        assert_eq!(lease(table.grant("f", now)), (6, 7, 1));
        assert_eq!(table.grant("g", now), Grant::Wait);
    }

    #[test]
    fn speculative_re_lease_also_shrinks_near_the_tail() {
        let mut table = LeaseTable::new(0..40, 10, TTL);
        let t0 = Instant::now();
        // The slow worker takes a full-size lease while the pool is deep.
        let (slow, start, len) = lease(table.grant("slow", t0));
        assert_eq!((start, len), (0, 10));
        // Everything else completes (granted to others and reported).
        for i in 10..40 {
            table.complete_cell(i, slow, t0);
        }
        // The straggler's 10 outstanding cells are re-leased in tail-sized
        // pieces so several fast workers can split them.
        let t1 = t0 + TTL + Duration::from_millis(1);
        let (twin, start, len) = lease(table.grant("fast", t1));
        assert_ne!(twin, slow);
        assert_eq!((start, len), (0, 3));
        assert_eq!(table.speculative(), 1);
    }

    #[test]
    fn completion_drains_leases_and_finishes_the_grid() {
        let mut table = LeaseTable::new([0, 1], 4, TTL);
        let now = Instant::now();
        // Two cells left: the tail shrink hands out single-cell grants.
        let (a, start, len) = lease(table.grant("a", now));
        assert_eq!((start, len), (0, 1));
        let (b, start, len) = lease(table.grant("b", now));
        assert_eq!((start, len), (1, 1));
        assert!(table.complete_cell(0, a, now));
        assert!(!table.is_complete());
        assert!(table.complete_cell(1, b, now));
        assert!(table.is_complete());
        assert_eq!(table.active_leases(), 0);
        assert_eq!(table.grant("c", now), Grant::Complete);
    }

    #[test]
    fn expired_lease_is_speculatively_re_leased() {
        // Deep pool so the slow worker's lease is full-size, then the rest
        // of the grid completes elsewhere, leaving only its cells.
        let mut table = LeaseTable::new(0..16, 4, TTL);
        let t0 = Instant::now();
        let (slow, start, len) = lease(table.grant("slow", t0));
        assert_eq!((start, len), (0, 4));
        for i in 4..16 {
            assert!(table.complete_cell(i, slow, t0));
        }

        // Before the deadline the outstanding cells stay claimed.
        assert_eq!(table.grant("fast", t0 + TTL / 2), Grant::Wait);

        // Past it, a twin lease is carved from the same cells — tail-sized,
        // so the 4 stragglers can spread across several fast workers.
        let t1 = t0 + TTL + Duration::from_millis(1);
        let (twin, start, len) = lease(table.grant("fast", t1));
        assert_ne!(twin, slow);
        assert_eq!((start, len), (0, 1));
        assert_eq!(table.speculative(), 1);

        // The original's deadline was pushed out: no third dispatch yet.
        assert_eq!(
            table.grant("third", t1 + Duration::from_millis(1)),
            Grant::Wait
        );

        // First completion wins, whichever lease reports it; duplicates
        // from the twin are recognised as such.
        assert!(table.complete_cell(0, twin, t1));
        assert!(!table.complete_cell(0, slow, t1));
        assert!(table.complete_cell(1, slow, t1));
        assert!(table.complete_cell(2, slow, t1));
        assert!(table.complete_cell(3, slow, t1));
        assert!(table.is_complete());
    }

    #[test]
    fn heartbeat_defers_expiry() {
        let mut table = LeaseTable::new([0], 1, TTL);
        let t0 = Instant::now();
        let (id, _, _) = lease(table.grant("a", t0));
        assert!(table.heartbeat(id, t0 + TTL));
        // Would have expired at t0 + TTL without the heartbeat.
        assert_eq!(
            table.grant("b", t0 + TTL + Duration::from_millis(1)),
            Grant::Wait
        );
        assert!(!table.heartbeat(999, t0));
    }

    #[test]
    fn next_deadline_is_when_a_waiting_grant_turns_speculative() {
        let mut table = LeaseTable::new(0..2, 1, TTL);
        let t0 = Instant::now();
        assert_eq!(table.next_deadline(), None);
        assert_eq!(lease(table.grant("a", t0)), (1, 0, 1));
        let t1 = t0 + Duration::from_secs(1);
        let (b, _, _) = lease(table.grant("b", t1));
        assert_eq!(table.next_deadline(), Some(t0 + TTL));

        // Up to the earliest deadline a grant can only wait; at it, the
        // overdue lease is twinned.
        assert_eq!(
            table.grant("c", t0 + TTL - Duration::from_millis(1)),
            Grant::Wait
        );
        let (twin, start, _) = lease(table.grant("c", t0 + TTL));
        assert_eq!(start, 0);
        // The twin and the pushed-out original now trail b's deadline.
        assert_eq!(table.next_deadline(), Some(t1 + TTL));

        // A heartbeat pushes b's deadline past the twins'.
        let t2 = t0 + TTL + Duration::from_secs(2);
        assert!(table.heartbeat(b, t2));
        assert_eq!(table.next_deadline(), Some(t0 + TTL + TTL));

        // Drained leases leave the query.
        table.complete_cell(0, twin, t2);
        assert_eq!(table.next_deadline(), Some(t2 + TTL));
        table.complete_cell(1, b, t2);
        assert_eq!(table.next_deadline(), None);
        assert!(table.is_complete());
    }

    #[test]
    fn release_returns_uncovered_cells_to_the_pool() {
        let mut table = LeaseTable::new([0, 1], 2, TTL);
        let t0 = Instant::now();
        let (id, _, _) = lease(table.grant("a", t0));
        table.complete_cell(0, id, t0);
        // Torn connection: the worker vanishes with cell 1 outstanding.
        table.release(id);
        // The survivor gets exactly the leftover cell.
        assert_eq!(lease(table.grant("b", t0)), (2, 1, 1));
    }

    #[test]
    fn release_leaves_twinned_cells_with_the_survivor() {
        let mut table = LeaseTable::new([0], 1, TTL);
        let t0 = Instant::now();
        let (slow, _, _) = lease(table.grant("slow", t0));
        let t1 = t0 + TTL + Duration::from_millis(1);
        let (_twin, _, _) = lease(table.grant("fast", t1));
        // The slow worker's connection dies; its cell is still claimed by
        // the twin, so it must NOT return to the unleased pool.
        table.release(slow);
        assert_eq!(table.grant("third", t1), Grant::Wait);
    }
}
