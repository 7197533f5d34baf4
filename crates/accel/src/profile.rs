//! The communication-property parameter space of the paper's
//! traffic generator.

use serde::{Deserialize, Serialize};

/// How an accelerator's requests walk its dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Long sequential sweeps over the dataset (DMA-friendly).
    Streaming,
    /// Fixed-stride jumps of `stride_lines` between bursts.
    Strided {
        /// Distance between consecutive burst starts, in cache lines.
        stride_lines: u64,
    },
    /// Data-dependent scattered accesses touching only a fraction of the
    /// dataset per pass.
    Irregular {
        /// Fraction of the dataset's lines touched per logical pass
        /// (the traffic generator's *access fraction*), in `(0, 1]`.
        access_fraction: f64,
    },
}

impl AccessPattern {
    /// Short label used in harness output.
    pub fn label(&self) -> &'static str {
        match self {
            AccessPattern::Streaming => "streaming",
            AccessPattern::Strided { .. } => "strided",
            AccessPattern::Irregular { .. } => "irregular",
        }
    }
}

/// The communication profile of one fixed-function accelerator — the
/// configuration space of the paper's traffic generator.
///
/// Traffic factors are *external* traffic: the accelerator's scratchpad is
/// assumed to capture all intra-tile reuse (the paper's accelerators
/// "exploit data reuse as much as possible"), so `read_factor = 2.0` means
/// the accelerator must fetch twice its footprint from the memory hierarchy
/// over a full invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelProfile {
    /// Display name (figure rows, diagnostics).
    pub name: String,
    /// Dataset walk order.
    pub pattern: AccessPattern,
    /// DMA burst length in cache lines (the traffic generator's
    /// *DMA burst length*).
    pub burst_lines: u64,
    /// Datapath cycles consumed per line processed (the traffic generator's
    /// *compute duration*). 16 ≈ one word per cycle on 64-byte lines;
    /// larger values are compute-bound.
    pub compute_cycles_per_line: u64,
    /// External read traffic as a multiple of the footprint (*data reuse
    /// factor*).
    pub read_factor: f64,
    /// External write traffic as a multiple of the footprint (together with
    /// `read_factor`, the *read-to-write ratio*).
    pub write_factor: f64,
    /// Writes land on the lines just read (*in-place storage*) rather than
    /// on a separate output region of the dataset.
    pub in_place: bool,
}

impl AccelProfile {
    /// Creates a streaming profile; the most common shape.
    pub fn streaming(
        name: impl Into<String>,
        burst_lines: u64,
        compute_cycles_per_line: u64,
        read_factor: f64,
        write_factor: f64,
    ) -> AccelProfile {
        AccelProfile {
            name: name.into(),
            pattern: AccessPattern::Streaming,
            burst_lines,
            compute_cycles_per_line,
            read_factor,
            write_factor,
            in_place: false,
        }
    }

    /// Returns the profile with in-place storage enabled.
    #[must_use]
    pub fn with_in_place(mut self) -> AccelProfile {
        self.in_place = true;
        self
    }

    /// Returns the profile with a strided pattern.
    #[must_use]
    pub fn with_stride(mut self, stride_lines: u64) -> AccelProfile {
        self.pattern = AccessPattern::Strided { stride_lines };
        self
    }

    /// Returns the profile with an irregular pattern.
    #[must_use]
    pub fn with_irregular(mut self, access_fraction: f64) -> AccelProfile {
        self.pattern = AccessPattern::Irregular { access_fraction };
        self
    }

    /// The read-to-write ratio implied by the traffic factors
    /// (`f64::INFINITY` for write-free profiles).
    pub fn read_write_ratio(&self) -> f64 {
        if self.write_factor <= 0.0 {
            f64::INFINITY
        } else {
            self.read_factor / self.write_factor
        }
    }

    /// Is the accelerator compute-bound at full memory bandwidth?
    /// (More datapath cycles per line than the 16 bus cycles a 64-byte line
    /// needs on the paper's 32-bit links.)
    pub fn is_compute_bound(&self) -> bool {
        self.compute_cycles_per_line > 16
    }

    /// Validates the profile's numeric ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.burst_lines == 0 {
            return Err(format!("{}: burst_lines must be positive", self.name));
        }
        if !(self.read_factor > 0.0 && self.read_factor.is_finite()) {
            return Err(format!("{}: read_factor must be positive", self.name));
        }
        if !(self.write_factor >= 0.0 && self.write_factor.is_finite()) {
            return Err(format!("{}: write_factor must be non-negative", self.name));
        }
        if let AccessPattern::Irregular { access_fraction } = self.pattern {
            if !(access_fraction > 0.0 && access_fraction <= 1.0) {
                return Err(format!(
                    "{}: access_fraction {access_fraction} outside (0, 1]",
                    self.name
                ));
            }
        }
        if let AccessPattern::Strided { stride_lines } = self.pattern {
            if stride_lines == 0 {
                return Err(format!("{}: stride_lines must be positive", self.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_constructor() {
        let p = AccelProfile::streaming("fft", 16, 32, 2.0, 2.0);
        assert_eq!(p.name, "fft");
        assert_eq!(p.pattern, AccessPattern::Streaming);
        assert!(!p.in_place);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builder_modifiers() {
        let p = AccelProfile::streaming("x", 8, 16, 1.0, 1.0)
            .with_in_place()
            .with_stride(4);
        assert!(p.in_place);
        assert_eq!(p.pattern, AccessPattern::Strided { stride_lines: 4 });
        let q = AccelProfile::streaming("y", 8, 16, 1.0, 1.0).with_irregular(0.25);
        assert_eq!(
            q.pattern,
            AccessPattern::Irregular {
                access_fraction: 0.25
            }
        );
    }

    #[test]
    fn read_write_ratio() {
        let p = AccelProfile::streaming("x", 8, 16, 3.0, 1.5);
        assert_eq!(p.read_write_ratio(), 2.0);
        let q = AccelProfile::streaming("y", 8, 16, 1.0, 0.0);
        assert_eq!(q.read_write_ratio(), f64::INFINITY);
    }

    #[test]
    fn compute_boundness_threshold() {
        assert!(!AccelProfile::streaming("mem", 8, 16, 1.0, 1.0).is_compute_bound());
        assert!(AccelProfile::streaming("cpu", 8, 17, 1.0, 1.0).is_compute_bound());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut p = AccelProfile::streaming("x", 0, 16, 1.0, 1.0);
        assert!(p.validate().is_err());
        p.burst_lines = 8;
        p.read_factor = 0.0;
        assert!(p.validate().is_err());
        p.read_factor = 1.0;
        p.write_factor = -1.0;
        assert!(p.validate().is_err());
        p.write_factor = 0.0;
        assert!(p.validate().is_ok());
        let bad_irregular = AccelProfile::streaming("x", 8, 16, 1.0, 1.0).with_irregular(0.0);
        assert!(bad_irregular.validate().is_err());
        let bad_stride = AccelProfile::streaming("x", 8, 16, 1.0, 1.0).with_stride(0);
        assert!(bad_stride.validate().is_err());
    }

    #[test]
    fn pattern_labels() {
        assert_eq!(AccessPattern::Streaming.label(), "streaming");
        assert_eq!(
            AccessPattern::Strided { stride_lines: 2 }.label(),
            "strided"
        );
        assert_eq!(
            AccessPattern::Irregular {
                access_fraction: 0.5
            }
            .label(),
            "irregular"
        );
    }
}
