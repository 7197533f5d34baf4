//! Simulated time.
//!
//! All latencies, bandwidth reservations and timestamps in the simulator are
//! expressed in clock cycles of a single global clock, matching the paper's
//! FPGA prototypes where the NoC, caches and accelerators share one clock
//! domain.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, measured in clock cycles.
///
/// `Cycle` is used both as an absolute timestamp and as a span; the
/// arithmetic impls cover the combinations that arise in practice
/// (`timestamp + span`, `timestamp - timestamp`, `span * count`).
///
/// # Example
///
/// ```
/// use cohmeleon_sim::Cycle;
///
/// let start = Cycle(100);
/// let service = Cycle(16);
/// assert_eq!(start + service, Cycle(116));
/// assert_eq!((start + service) - start, service);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero / the empty duration.
    pub const ZERO: Cycle = Cycle(0);

    /// The largest representable time; useful as an "infinitely far" sentinel.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Returns the raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the later of two times.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two times.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Subtraction clamped at zero, for "how much later is `self` than
    /// `other`, if at all" queries.
    #[inline]
    pub fn saturating_sub(self, other: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(other.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, other: Cycle) -> Option<Cycle> {
        self.0.checked_add(other.0).map(Cycle)
    }
}

impl Add for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    #[inline]
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn mul(self, rhs: u64) -> Cycle {
        Cycle(self.0 * rhs)
    }
}

impl Div<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn div(self, rhs: u64) -> Cycle {
        Cycle(self.0 / rhs)
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        iter.fold(Cycle::ZERO, Add::add)
    }
}

impl From<u64> for Cycle {
    #[inline]
    fn from(value: u64) -> Cycle {
        Cycle(value)
    }
}

impl From<Cycle> for u64 {
    #[inline]
    fn from(value: Cycle) -> u64 {
        value.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves_like_u64() {
        assert_eq!(Cycle(3) + Cycle(4), Cycle(7));
        assert_eq!(Cycle(10) - Cycle(4), Cycle(6));
        assert_eq!(Cycle(5) * 3, Cycle(15));
        assert_eq!(Cycle(15) / 3, Cycle(5));
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        assert_eq!(Cycle(3).saturating_sub(Cycle(10)), Cycle::ZERO);
        assert_eq!(Cycle(10).saturating_sub(Cycle(3)), Cycle(7));
    }

    #[test]
    fn min_max_select_correct_endpoint() {
        assert_eq!(Cycle(3).max(Cycle(9)), Cycle(9));
        assert_eq!(Cycle(3).min(Cycle(9)), Cycle(3));
    }

    #[test]
    fn assign_ops_mutate_in_place() {
        let mut t = Cycle(10);
        t += Cycle(5);
        assert_eq!(t, Cycle(15));
        t -= Cycle(1);
        assert_eq!(t, Cycle(14));
    }

    #[test]
    fn sum_of_cycles() {
        let total: Cycle = [Cycle(1), Cycle(2), Cycle(3)].into_iter().sum();
        assert_eq!(total, Cycle(6));
    }

    #[test]
    fn conversions_roundtrip() {
        let t = Cycle::from(42u64);
        assert_eq!(u64::from(t), 42);
        assert_eq!(t.raw(), 42);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Cycle(128).to_string(), "128cy");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(Cycle::MAX.checked_add(Cycle(1)), None);
        assert_eq!(Cycle(1).checked_add(Cycle(2)), Some(Cycle(3)));
    }
}
