//! Cache geometry and line addressing.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A cache-line-granular memory address: byte address divided by the line
/// size. All caches in one SoC share a line size, so line addresses are
/// comparable across the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The line containing byte address `byte` for `line_bytes`-sized lines.
    pub fn from_byte(byte: u64, line_bytes: u64) -> LineAddr {
        LineAddr(byte / line_bytes)
    }

    /// The `n`-th line after this one.
    pub fn offset(self, n: u64) -> LineAddr {
        LineAddr(self.0 + n)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Size, associativity and line size of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways ×
    /// line_bytes` or any parameter is zero.
    pub fn new(size_bytes: u64, ways: u32, line_bytes: u64) -> CacheGeometry {
        assert!(
            size_bytes > 0 && ways > 0 && line_bytes > 0,
            "geometry parameters must be non-zero"
        );
        let g = CacheGeometry {
            size_bytes,
            ways,
            line_bytes,
        };
        assert!(
            size_bytes.is_multiple_of(u64::from(ways) * line_bytes) && g.sets() > 0,
            "capacity {size_bytes} not divisible into {ways}-way sets of {line_bytes}-byte lines"
        );
        g
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * self.line_bytes)
    }

    /// Total number of lines the cache can hold.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// The set a line maps to.
    pub fn set_of(&self, line: LineAddr) -> u64 {
        line.0 % self.sets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addressing() {
        assert_eq!(LineAddr::from_byte(0, 64), LineAddr(0));
        assert_eq!(LineAddr::from_byte(63, 64), LineAddr(0));
        assert_eq!(LineAddr::from_byte(64, 64), LineAddr(1));
        assert_eq!(LineAddr(10).offset(5), LineAddr(15));
    }

    #[test]
    fn geometry_of_32k_4way_64b() {
        let g = CacheGeometry::new(32 * 1024, 4, 64);
        assert_eq!(g.sets(), 128);
        assert_eq!(g.lines(), 512);
    }

    #[test]
    fn geometry_of_256k_16way_64b() {
        let g = CacheGeometry::new(256 * 1024, 16, 64);
        assert_eq!(g.sets(), 256);
        assert_eq!(g.lines(), 4096);
    }

    #[test]
    fn set_mapping_is_modulo() {
        let g = CacheGeometry::new(32 * 1024, 4, 64);
        assert_eq!(g.set_of(LineAddr(0)), 0);
        assert_eq!(g.set_of(LineAddr(128)), 0);
        assert_eq!(g.set_of(LineAddr(129)), 1);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn odd_capacity_rejected() {
        CacheGeometry::new(1000, 4, 64);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_ways_rejected() {
        CacheGeometry::new(1024, 0, 64);
    }
}
