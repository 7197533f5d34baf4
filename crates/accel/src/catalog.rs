//! The accelerator catalog: the 12 ESP accelerators used throughout the
//! paper's evaluation, plus traffic-generator preset families.
//!
//! The named accelerators are calibrated points in the traffic-generator
//! parameter space. Calibration targets the qualitative behaviour visible in
//! the paper's Figure 2 (e.g. GEMM's reuse favouring caches, SPMV's
//! irregular accesses, MRI-Q's compute-boundedness, NVDLA's long streaming
//! bursts); absolute FPGA cycle counts are out of scope by design
//! (`docs/ARCHITECTURE.md`, "Tuning and validation").

use cohmeleon_core::AccelKindId;

use crate::profile::AccelProfile;

/// One catalog entry: a kind id plus a communication profile.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelSpec {
    /// Stable identifier used by design-time policies.
    pub kind: AccelKindId,
    /// Communication profile.
    pub profile: AccelProfile,
}

/// Builds the 12-accelerator catalog of Table 2, in the paper's row order:
/// Autoencoder, Cholesky, Conv-2D, FFT, GEMM, MLP, MRI-Q, NVDLA,
/// Night-vision, Sort, SPMV, Viterbi.
pub fn catalog() -> Vec<AccelSpec> {
    let profiles = vec![
        // Denoising autoencoder (SVHN): dense layers streamed twice per
        // batch (encode + decode), full-size output.
        AccelProfile::streaming("autoencoder", 32, 24, 2.0, 1.0),
        // Cholesky decomposition: O(n³) compute over O(n²) data with panel
        // re-reads; updates the matrix in place with strided column walks.
        AccelProfile::streaming("cholesky", 8, 64, 2.5, 1.0)
            .with_stride(8)
            .with_in_place(),
        // 2D convolution: sliding-window streaming with halo re-reads.
        AccelProfile::streaming("conv2d", 32, 40, 1.5, 1.0),
        // 1D FFT: log-passes over the dataset, butterflies in place.
        AccelProfile::streaming("fft", 16, 32, 2.0, 2.0).with_in_place(),
        // Dense matrix multiply: blocked panels re-read several times —
        // the strongest cache-affinity in the catalog.
        AccelProfile::streaming("gemm", 32, 56, 3.0, 0.5),
        // MLP classifier (SVHN): dense layers, modest output.
        AccelProfile::streaming("mlp", 32, 40, 1.5, 0.5),
        // MRI-Q: heavily compute-bound kernel (trigonometric inner loop),
        // reads once, writes little.
        AccelProfile::streaming("mri-q", 8, 120, 1.0, 0.25),
        // NVDLA: wide, deeply-pipelined DMA engines; long bursts, high
        // bandwidth demand.
        AccelProfile::streaming("nvdla", 64, 32, 2.0, 1.0),
        // Night-vision: 4-stage image pipeline (noise filter, histogram,
        // equalisation, DWT) over the frame, stage results in place.
        AccelProfile::streaming("night-vision", 16, 40, 2.0, 2.0).with_in_place(),
        // Sort: merge passes re-stream the whole dataset, write = read.
        AccelProfile::streaming("sort", 32, 24, 3.0, 3.0).with_in_place(),
        // Sparse matrix-vector multiply: irregular gathers over the vector.
        AccelProfile::streaming("spmv", 2, 16, 1.5, 0.25).with_irregular(0.4),
        // Viterbi decoder: small strided state walks, modest output.
        AccelProfile::streaming("viterbi", 4, 48, 1.2, 0.3).with_stride(4),
    ];
    profiles
        .into_iter()
        .enumerate()
        .map(|(i, profile)| AccelSpec {
            kind: AccelKindId(i as u16),
            profile,
        })
        .collect()
}

/// Looks up a catalog accelerator by name.
pub fn by_name(name: &str) -> Option<AccelSpec> {
    catalog().into_iter().find(|s| s.profile.name == name)
}

/// Traffic-generator presets with purely streaming patterns (the paper's
/// "SoC0 – Streaming" configuration in Figure 9). `n` distinct generators
/// with varied burst/compute/reuse parameters.
pub fn streaming_generators(n: usize) -> Vec<AccelSpec> {
    let bursts = [16u64, 32, 64, 16, 32];
    let computes = [16u64, 24, 48, 96, 12];
    let reuses = [1.0f64, 2.0, 1.5, 3.0, 1.0];
    let writes = [1.0f64, 0.5, 1.0, 0.25, 2.0];
    (0..n)
        .map(|i| AccelSpec {
            kind: AccelKindId(100 + i as u16),
            profile: AccelProfile::streaming(
                format!("tgen-stream-{i}"),
                bursts[i % bursts.len()],
                computes[i % computes.len()],
                reuses[i % reuses.len()],
                writes[i % writes.len()],
            ),
        })
        .collect()
}

/// Traffic-generator presets with irregular patterns (the paper's
/// "SoC0 – Irregular" configuration in Figure 9).
pub fn irregular_generators(n: usize) -> Vec<AccelSpec> {
    let fractions = [0.2f64, 0.4, 0.3, 0.5, 0.25];
    let computes = [16u64, 32, 24, 64, 20];
    let reuses = [1.5f64, 2.0, 1.0, 2.5, 1.2];
    (0..n)
        .map(|i| AccelSpec {
            kind: AccelKindId(200 + i as u16),
            profile: AccelProfile::streaming(
                format!("tgen-irreg-{i}"),
                2,
                computes[i % computes.len()],
                reuses[i % reuses.len()],
                0.5,
            )
            .with_irregular(fractions[i % fractions.len()]),
        })
        .collect()
}

/// Mixed traffic-generator presets (streaming, strided and irregular) used
/// by the SoC1–SoC3 experiments.
pub fn mixed_generators(n: usize) -> Vec<AccelSpec> {
    (0..n)
        .map(|i| {
            let base = AccelProfile::streaming(
                format!("tgen-mix-{i}"),
                [16u64, 32, 8, 64][i % 4],
                [16u64, 32, 64, 24][i % 4],
                [1.0f64, 2.0, 2.5, 1.5][i % 4],
                [1.0f64, 0.5, 1.0, 2.0][i % 4],
            );
            let profile = match i % 3 {
                0 => base,
                1 => base.with_stride([4u64, 8, 16][(i / 3) % 3]).with_in_place(),
                _ => base.with_irregular([0.3f64, 0.5][(i / 3) % 2]),
            };
            AccelSpec {
                kind: AccelKindId(300 + i as u16),
                profile,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AccessPattern;

    #[test]
    fn catalog_has_twelve_accelerators_in_table2_order() {
        let c = catalog();
        assert_eq!(c.len(), 12);
        let names: Vec<&str> = c.iter().map(|s| s.profile.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "autoencoder",
                "cholesky",
                "conv2d",
                "fft",
                "gemm",
                "mlp",
                "mri-q",
                "nvdla",
                "night-vision",
                "sort",
                "spmv",
                "viterbi"
            ]
        );
    }

    #[test]
    fn catalog_profiles_are_valid_and_kinds_unique() {
        let c = catalog();
        let mut kinds: Vec<u16> = c.iter().map(|s| s.kind.0).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 12);
        for spec in &c {
            spec.profile.validate().expect("catalog profile valid");
        }
    }

    #[test]
    fn catalog_covers_all_three_patterns() {
        let c = catalog();
        assert!(c
            .iter()
            .any(|s| matches!(s.profile.pattern, AccessPattern::Streaming)));
        assert!(c
            .iter()
            .any(|s| matches!(s.profile.pattern, AccessPattern::Strided { .. })));
        assert!(c
            .iter()
            .any(|s| matches!(s.profile.pattern, AccessPattern::Irregular { .. })));
    }

    #[test]
    fn spot_check_calibration_properties() {
        let gemm = by_name("gemm").unwrap().profile;
        assert!(gemm.read_factor >= 2.0, "GEMM re-reads panels");
        assert!(gemm.is_compute_bound());
        let mri = by_name("mri-q").unwrap().profile;
        assert!(mri.compute_cycles_per_line >= 100, "MRI-Q is compute-bound");
        let spmv = by_name("spmv").unwrap().profile;
        assert!(matches!(spmv.pattern, AccessPattern::Irregular { .. }));
        let nvdla = by_name("nvdla").unwrap().profile;
        assert!(nvdla.burst_lines >= 32, "NVDLA uses long bursts");
    }

    #[test]
    fn by_name_misses_gracefully() {
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn generator_families_are_valid_and_distinct() {
        for family in [
            streaming_generators(5),
            irregular_generators(5),
            mixed_generators(9),
        ] {
            for spec in &family {
                spec.profile.validate().expect("generator profile valid");
            }
            let mut kinds: Vec<u16> = family.iter().map(|s| s.kind.0).collect();
            kinds.sort_unstable();
            kinds.dedup();
            assert_eq!(kinds.len(), family.len());
        }
    }

    #[test]
    fn streaming_family_is_streaming_and_irregular_family_is_not() {
        for s in streaming_generators(5) {
            assert!(matches!(s.profile.pattern, AccessPattern::Streaming));
        }
        for s in irregular_generators(5) {
            assert!(matches!(s.profile.pattern, AccessPattern::Irregular { .. }));
        }
        let mixed = mixed_generators(9);
        assert!(mixed
            .iter()
            .any(|s| matches!(s.profile.pattern, AccessPattern::Strided { .. })));
    }
}
