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
}

impl Resource {
    /// Creates an idle resource. `name` appears in `Debug`/`Display` output
    /// and diagnostics only.
    pub fn new(name: &'static str) -> Self {
        Resource {
            name,
            next_free: Cycle::ZERO,
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
        Grant { start, end }
    }

    /// Reserves the resource for a back-to-back series of `n` transactions
    /// all arriving at time `at`: the first takes `first` cycles of service,
    /// each of the rest takes `rest`. Returns the window from the first
    /// transaction's service start to the last one's completion.
    ///
    /// Bit-identical to `n` individual [`acquire`](Self::acquire) calls at
    /// the same arrival time — the batched form exists so per-line hot
    /// loops (DRAM bursts) can reserve a whole streak with O(1) work.
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
        Grant { start, end }
    }

    /// When the resource next becomes idle given current reservations.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Forgets all reservations, returning the resource to the idle state.
    /// Used between experiment repetitions.
    pub fn reset(&mut self) {
        self.next_free = Cycle::ZERO;
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: next_free={}", self.name, self.next_free)
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
    }

    #[test]
    fn busy_resource_queues() {
        let mut r = Resource::new("r");
        r.acquire(Cycle(0), Cycle(100));
        let g = r.acquire(Cycle(10), Cycle(5));
        assert_eq!(g.start, Cycle(100));
        assert_eq!(g.end, Cycle(105));
    }

    #[test]
    fn gap_between_transactions_leaves_idle_time() {
        let mut r = Resource::new("r");
        r.acquire(Cycle(0), Cycle(10));
        let g = r.acquire(Cycle(50), Cycle(10));
        assert_eq!(g.start, Cycle(50));
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
    fn reset_clears_everything() {
        let mut r = Resource::new("r");
        r.acquire(Cycle(0), Cycle(25));
        r.reset();
        assert_eq!(r.next_free(), Cycle::ZERO);
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
        }
    }
}
