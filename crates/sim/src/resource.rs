//! Contention modelling via resource reservation.
//!
//! Shared hardware — an LLC port, a DRAM channel, a CPU — is modelled as a
//! [`Resource`] that serves one transaction at a time. A transaction arriving at time `t` begins service at
//! `max(t, next_free)` and occupies the resource for its service time.
//! Because the SoC simulator processes events in global time order, queueing
//! delay at hot resources (e.g. an LLC partition hammered by many coherent-DMA
//! accelerators, as in Figure 3 of the paper) emerges naturally from the
//! reservations rather than from a fitted queueing formula.

use std::fmt;

use crate::time::Cycle;

/// The time window granted to one transaction on a [`Resource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (≥ the requested time).
    pub start: Cycle,
    /// When service completed; the resource is free again from this time.
    pub end: Cycle,
}

impl Grant {
    /// How long the transaction waited before service began.
    pub fn queueing_delay(&self, requested_at: Cycle) -> Cycle {
        self.start.saturating_sub(requested_at)
    }

    /// Total latency from request to completion.
    pub fn latency(&self, requested_at: Cycle) -> Cycle {
        self.end.saturating_sub(requested_at)
    }
}

/// A serially-shared hardware resource with full-occupancy reservation.
///
/// # Example
///
/// ```
/// use cohmeleon_sim::{Cycle, Resource};
///
/// let mut dram = Resource::new("ddr0");
/// let a = dram.acquire(Cycle(0), Cycle(16));
/// let b = dram.acquire(Cycle(4), Cycle(16)); // arrives while busy
/// assert_eq!(a.end, Cycle(16));
/// assert_eq!(b.start, Cycle(16)); // queued behind `a`
/// assert_eq!(b.end, Cycle(32));
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    name: &'static str,
    next_free: Cycle,
    busy_cycles: Cycle,
    acquisitions: u64,
    queued_cycles: Cycle,
}

impl Resource {
    /// Creates an idle resource. `name` appears in `Debug`/`Display` output
    /// and diagnostics only.
    pub fn new(name: &'static str) -> Self {
        Resource {
            name,
            next_free: Cycle::ZERO,
            busy_cycles: Cycle::ZERO,
            acquisitions: 0,
            queued_cycles: Cycle::ZERO,
        }
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reserves the resource for `service` cycles for a transaction arriving
    /// at time `at`, returning the granted window.
    ///
    /// Zero-cycle services are allowed and return `start == end` without
    /// blocking later transactions.
    pub fn acquire(&mut self, at: Cycle, service: Cycle) -> Grant {
        let start = at.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        self.busy_cycles += service;
        self.acquisitions += 1;
        self.queued_cycles += start.saturating_sub(at);
        Grant { start, end }
    }

    /// Reserves the resource for a back-to-back series of `n` transactions
    /// all arriving at time `at`: the first takes `first` cycles of service,
    /// each of the rest takes `rest`. Returns the window from the first
    /// transaction's service start to the last one's completion.
    ///
    /// Bit-identical (including the busy/queued/acquisition statistics) to
    /// `n` individual [`acquire`](Self::acquire) calls at the same arrival
    /// time — the batched form exists so per-line hot loops (DRAM bursts)
    /// can reserve a whole streak with O(1) work.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn acquire_series(&mut self, at: Cycle, first: Cycle, rest: Cycle, n: u64) -> Grant {
        assert!(n > 0, "acquire_series needs at least one transaction");
        let start = at.max(self.next_free);
        let total = first + Cycle(rest.raw() * (n - 1));
        let end = start + total;
        self.next_free = end;
        self.busy_cycles += total;
        self.acquisitions += n;
        // Transaction k (0-based) starts at `start + first + rest×(k-1)`
        // (k ≥ 1), so its queueing delay is the common `start - at` plus
        // the service prefix ahead of it.
        let base_queue = start.saturating_sub(at).raw();
        let prefix_sum = (n - 1) * first.raw() + rest.raw() * ((n - 1) * n.saturating_sub(2) / 2);
        self.queued_cycles += Cycle(n * base_queue + prefix_sum);
        Grant { start, end }
    }

    /// When the resource next becomes idle given current reservations.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Would a transaction arriving at `at` have to queue?
    pub fn is_busy_at(&self, at: Cycle) -> bool {
        self.next_free > at
    }

    /// Total cycles of granted service time.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Total cycles transactions spent queueing before service.
    pub fn queued_cycles(&self) -> Cycle {
        self.queued_cycles
    }

    /// Number of transactions served.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Fraction of the window `[0, horizon)` spent busy; a cheap utilization
    /// estimate for the harness's diagnostics.
    ///
    /// Returns 0.0 for a zero-length horizon.
    pub fn utilization(&self, horizon: Cycle) -> f64 {
        if horizon == Cycle::ZERO {
            return 0.0;
        }
        (self.busy_cycles.as_f64() / horizon.as_f64()).min(1.0)
    }

    /// Forgets all statistics and reservations, returning the resource to the
    /// idle state. Used between experiment repetitions.
    pub fn reset(&mut self) {
        self.next_free = Cycle::ZERO;
        self.busy_cycles = Cycle::ZERO;
        self.acquisitions = 0;
        self.queued_cycles = Cycle::ZERO;
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: busy={} queued={} n={}",
            self.name, self.busy_cycles, self.queued_cycles, self.acquisitions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new("r");
        let g = r.acquire(Cycle(10), Cycle(5));
        assert_eq!(g.start, Cycle(10));
        assert_eq!(g.end, Cycle(15));
        assert_eq!(g.queueing_delay(Cycle(10)), Cycle::ZERO);
    }

    #[test]
    fn busy_resource_queues() {
        let mut r = Resource::new("r");
        r.acquire(Cycle(0), Cycle(100));
        let g = r.acquire(Cycle(10), Cycle(5));
        assert_eq!(g.start, Cycle(100));
        assert_eq!(g.end, Cycle(105));
        assert_eq!(g.queueing_delay(Cycle(10)), Cycle(90));
        assert_eq!(g.latency(Cycle(10)), Cycle(95));
    }

    #[test]
    fn gap_between_transactions_leaves_idle_time() {
        let mut r = Resource::new("r");
        r.acquire(Cycle(0), Cycle(10));
        let g = r.acquire(Cycle(50), Cycle(10));
        assert_eq!(g.start, Cycle(50));
        assert_eq!(r.busy_cycles(), Cycle(20));
    }

    #[test]
    fn zero_service_does_not_block() {
        let mut r = Resource::new("r");
        let g = r.acquire(Cycle(5), Cycle::ZERO);
        assert_eq!(g.start, g.end);
        let g2 = r.acquire(Cycle(5), Cycle(3));
        assert_eq!(g2.start, Cycle(5));
    }

    #[test]
    fn statistics_accumulate() {
        let mut r = Resource::new("r");
        r.acquire(Cycle(0), Cycle(10));
        r.acquire(Cycle(0), Cycle(10)); // queues 10
        assert_eq!(r.acquisitions(), 2);
        assert_eq!(r.busy_cycles(), Cycle(20));
        assert_eq!(r.queued_cycles(), Cycle(10));
    }

    #[test]
    fn utilization_fraction() {
        let mut r = Resource::new("r");
        r.acquire(Cycle(0), Cycle(25));
        assert!((r.utilization(Cycle(100)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(Cycle::ZERO), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut r = Resource::new("r");
        r.acquire(Cycle(0), Cycle(25));
        r.reset();
        assert_eq!(r.next_free(), Cycle::ZERO);
        assert_eq!(r.busy_cycles(), Cycle::ZERO);
        assert_eq!(r.acquisitions(), 0);
        let g = r.acquire(Cycle(1), Cycle(1));
        assert_eq!(g.start, Cycle(1));
    }

    #[test]
    fn acquire_series_matches_individual_acquires() {
        for n in 1u64..6 {
            let mut a = Resource::new("series");
            let mut b = Resource::new("loop");
            a.acquire(Cycle(0), Cycle(13)); // pre-existing reservation
            b.acquire(Cycle(0), Cycle(13));
            let g = a.acquire_series(Cycle(5), Cycle(40), Cycle(16), n);
            let mut last = Grant {
                start: Cycle::ZERO,
                end: Cycle::ZERO,
            };
            for k in 0..n {
                let service = if k == 0 { Cycle(40) } else { Cycle(16) };
                last = b.acquire(Cycle(5), service);
            }
            assert_eq!(g.end, last.end, "n={n}");
            assert_eq!(a.next_free(), b.next_free(), "n={n}");
            assert_eq!(a.busy_cycles(), b.busy_cycles(), "n={n}");
            assert_eq!(a.queued_cycles(), b.queued_cycles(), "n={n}");
            assert_eq!(a.acquisitions(), b.acquisitions(), "n={n}");
        }
    }

    #[test]
    fn is_busy_at_reflects_reservations() {
        let mut r = Resource::new("r");
        r.acquire(Cycle(0), Cycle(10));
        assert!(r.is_busy_at(Cycle(5)));
        assert!(!r.is_busy_at(Cycle(10)));
    }
}
