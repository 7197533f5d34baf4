//! Workload size classes, defined relative to the target SoC
//! (Section 5): *Small* fits the accelerator's private cache, *Medium* one
//! LLC partition, *Large* the aggregate LLC, and *Extra-Large* exceeds it.

use cohmeleon_soc::SocConfig;
use rand::Rng;

/// A workload size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Smaller than the private (L2) cache.
    Small,
    /// Between the L2 and one LLC partition.
    Medium,
    /// Between one LLC partition and the aggregate LLC.
    Large,
    /// Larger than the aggregate LLC.
    ExtraLarge,
}

impl SizeClass {
    /// All classes, smallest first.
    pub const ALL: [SizeClass; 4] = [
        SizeClass::Small,
        SizeClass::Medium,
        SizeClass::Large,
        SizeClass::ExtraLarge,
    ];

    /// Single-letter label used in figures (S/M/L/XL).
    pub fn label(self) -> &'static str {
        match self {
            SizeClass::Small => "S",
            SizeClass::Medium => "M",
            SizeClass::Large => "L",
            SizeClass::ExtraLarge => "XL",
        }
    }

    /// The inclusive byte range this class spans on `config`.
    pub fn byte_range(self, config: &SocConfig) -> (u64, u64) {
        let l2 = config.l2_bytes;
        let slice = config.llc_slice_bytes;
        let total = config.llc_total_bytes();
        match self {
            SizeClass::Small => (4 * 1024, l2),
            SizeClass::Medium => (l2 + 1, slice),
            SizeClass::Large => (slice + 1, total),
            SizeClass::ExtraLarge => (total + 1, total * 4),
        }
    }

    /// A representative size: the midpoint of the class range (XL: 2×LLC).
    pub fn nominal_bytes(self, config: &SocConfig) -> u64 {
        let (lo, hi) = self.byte_range(config);
        (lo + hi) / 2
    }

    /// Samples a size uniformly within the class range, rounded to lines.
    pub fn sample_bytes<R: Rng>(self, config: &SocConfig, rng: &mut R) -> u64 {
        let (lo, hi) = self.byte_range(config);
        let bytes = rng.gen_range(lo..=hi);
        bytes.div_ceil(config.line_bytes) * config.line_bytes
    }

    /// Classifies a footprint on `config`.
    pub fn classify(bytes: u64, config: &SocConfig) -> SizeClass {
        if bytes <= config.l2_bytes {
            SizeClass::Small
        } else if bytes <= config.llc_slice_bytes {
            SizeClass::Medium
        } else if bytes <= config.llc_total_bytes() {
            SizeClass::Large
        } else {
            SizeClass::ExtraLarge
        }
    }
}

impl std::fmt::Display for SizeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohmeleon_soc::config::soc1;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ranges_are_ordered_and_disjoint() {
        let cfg = soc1();
        let mut prev_hi = 0;
        for class in SizeClass::ALL {
            let (lo, hi) = class.byte_range(&cfg);
            assert!(lo <= hi);
            assert!(lo > prev_hi || prev_hi == 0);
            prev_hi = hi;
        }
    }

    #[test]
    fn classification_matches_ranges() {
        let cfg = soc1(); // 32K L2, 256K slice, 1M total
        assert_eq!(SizeClass::classify(16 * 1024, &cfg), SizeClass::Small);
        assert_eq!(SizeClass::classify(32 * 1024, &cfg), SizeClass::Small);
        assert_eq!(SizeClass::classify(33 * 1024, &cfg), SizeClass::Medium);
        assert_eq!(SizeClass::classify(256 * 1024, &cfg), SizeClass::Medium);
        assert_eq!(SizeClass::classify(512 * 1024, &cfg), SizeClass::Large);
        assert_eq!(
            SizeClass::classify(2 * 1024 * 1024, &cfg),
            SizeClass::ExtraLarge
        );
    }

    #[test]
    fn nominal_sizes_classify_back_to_their_class() {
        let cfg = soc1();
        for class in SizeClass::ALL {
            assert_eq!(SizeClass::classify(class.nominal_bytes(&cfg), &cfg), class);
        }
    }

    #[test]
    fn sampled_sizes_stay_in_class_and_align_to_lines() {
        let cfg = soc1();
        let mut rng = SmallRng::seed_from_u64(1);
        for class in SizeClass::ALL {
            for _ in 0..50 {
                let bytes = class.sample_bytes(&cfg, &mut rng);
                assert_eq!(bytes % cfg.line_bytes, 0);
                // Rounding up to a line can push a boundary sample over the
                // class limit by at most one line.
                let classified = SizeClass::classify(bytes, &cfg);
                let ok = classified == class || bytes <= class.byte_range(&cfg).1 + cfg.line_bytes;
                assert!(ok, "{class}: sampled {bytes} classified {classified}");
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(SizeClass::Small.to_string(), "S");
        assert_eq!(SizeClass::ExtraLarge.to_string(), "XL");
    }
}
