//! Reproducible random-number streams.
//!
//! Every stochastic choice in the reproduction — ε-greedy exploration,
//! evaluation-application generation, irregular access-pattern sampling —
//! draws from a [`SeedStream`]: independent `SmallRng` streams derived from a
//! single master seed with a SplitMix64 mixer. Two runs with the same master
//! seed are bit-identical; streams for different purposes are statistically
//! independent so adding a new consumer does not perturb existing ones.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Derives independent, reproducible RNG streams from one master seed.
///
/// # Example
///
/// ```
/// use cohmeleon_sim::SeedStream;
/// use rand::Rng;
///
/// let seeds = SeedStream::new(42);
/// let mut explore = seeds.stream("epsilon-greedy");
/// let mut appgen = seeds.stream("app-generator");
/// // Streams are independent but fully determined by (master seed, tag).
/// let a: u64 = explore.gen();
/// let b: u64 = seeds.stream("epsilon-greedy").gen();
/// assert_eq!(a, b);
/// let c: u64 = appgen.gen();
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    master: u64,
}

impl SeedStream {
    /// Creates a stream family rooted at `master`.
    pub fn new(master: u64) -> Self {
        SeedStream { master }
    }

    /// The master seed this family was created from.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Returns the RNG for the purpose named by `tag`.
    ///
    /// The same `(master, tag)` pair always yields an identically-seeded RNG.
    pub fn stream(&self, tag: &str) -> SmallRng {
        SmallRng::seed_from_u64(splitmix64(self.master ^ fnv1a(tag.as_bytes())))
    }

    /// Returns the RNG for a numbered instance of a purpose, e.g. one stream
    /// per simulated thread: `stream_n("thread", 3)`.
    pub fn stream_n(&self, tag: &str, n: u64) -> SmallRng {
        SmallRng::seed_from_u64(splitmix64(
            splitmix64(self.master ^ fnv1a(tag.as_bytes())) ^ n,
        ))
    }

    /// Precomputes the tag hash for a numbered stream family, so hot loops
    /// drawing `stream_n(tag, 0), stream_n(tag, 1), …` skip the per-call
    /// string hashing. `tagged(tag).nth(n)` is bit-identical to
    /// `stream_n(tag, n)`.
    pub fn tagged(&self, tag: &str) -> TaggedStream {
        TaggedStream {
            base: splitmix64(self.master ^ fnv1a(tag.as_bytes())),
        }
    }

    /// Derives a child family, used to give each experiment repetition its
    /// own independent universe of streams.
    pub fn child(&self, n: u64) -> SeedStream {
        SeedStream {
            master: splitmix64(
                self.master
                    .wrapping_add(0x9e37_79b9_7f4a_7c15)
                    .wrapping_mul(n | 1),
            ),
        }
    }
}

/// A [`SeedStream`] purpose with its tag hash precomputed (see
/// [`SeedStream::tagged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedStream {
    base: u64,
}

impl TaggedStream {
    /// The RNG for instance `n` of this purpose; bit-identical to
    /// [`SeedStream::stream_n`] with the same tag and `n`.
    pub fn nth(&self, n: u64) -> SmallRng {
        SmallRng::seed_from_u64(splitmix64(self.base ^ n))
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a hash for mapping string tags to 64-bit values.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_tag_same_stream() {
        let s = SeedStream::new(7);
        let a: Vec<u64> = (0..8)
            .map(|_| 0u64)
            .zip(s.stream("x").sample_iter(rand::distributions::Standard))
            .map(|(_, v)| v)
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0u64)
            .zip(s.stream("x").sample_iter(rand::distributions::Standard))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_tags_diverge() {
        let s = SeedStream::new(7);
        let a: u64 = s.stream("alpha").gen();
        let b: u64 = s.stream("beta").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_masters_diverge() {
        let a: u64 = SeedStream::new(1).stream("x").gen();
        let b: u64 = SeedStream::new(2).stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn numbered_streams_are_distinct() {
        let s = SeedStream::new(9);
        let a: u64 = s.stream_n("thread", 0).gen();
        let b: u64 = s.stream_n("thread", 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn children_are_independent_and_reproducible() {
        let s = SeedStream::new(11);
        let a: u64 = s.child(1).stream("x").gen();
        let a2: u64 = s.child(1).stream("x").gen();
        let b: u64 = s.child(2).stream("x").gen();
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
        assert_ne!(splitmix64(0), splitmix64(1));
    }

    #[test]
    fn fnv_distinguishes_tags() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"a"));
    }
}
