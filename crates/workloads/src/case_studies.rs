//! Evaluation applications for the case-study SoCs (Section 5):
//!
//! * **SoC4** — "Mixed Accelerators": many heterogeneous applications
//!   running in parallel, each invoking a different subset of the catalog.
//! * **SoC5** — "Autonomous Driving": vehicle-to-vehicle communication
//!   (FFT ↔ Viterbi encode/decode chains) plus CNN inference
//!   (Conv-2D → GEMM) for object recognition.
//! * **SoC6** — "Computer Vision": three copies of the night-vision →
//!   autoencoder → MLP classification pipeline, parallelising the workload
//!   across pipelines.
//!
//! Each application is organised in phases that stress different workload
//! sizes and degrees of parallelism, like the paper's per-SoC apps.

use cohmeleon_core::AccelInstanceId;
use cohmeleon_soc::{AppSpec, PhaseSpec, SocConfig, ThreadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sizes::SizeClass;

/// All instances of the named accelerator kind in `config`.
pub fn instances_of(config: &SocConfig, name: &str) -> Vec<AccelInstanceId> {
    config
        .accels
        .iter()
        .enumerate()
        .filter(|(_, t)| t.spec.profile.name == name)
        .map(|(i, _)| AccelInstanceId(i as u16))
        .collect()
}

/// The SoC4 application: four parallel "applications" (threads grouped by
/// domain), each chaining related accelerators, across three size phases.
pub fn soc4_app(config: &SocConfig, seed: u64) -> AppSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let one = |name: &str| instances_of(config, name)[0];
    let groups: Vec<Vec<AccelInstanceId>> = vec![
        vec![one("conv2d"), one("gemm")], // vision inference
        vec![one("fft"), one("viterbi")], // signal processing
        vec![one("night-vision"), one("autoencoder"), one("mlp")], // imaging
        vec![one("sort"), one("spmv")],   // data analytics
        vec![one("cholesky"), one("mri-q")], // scientific
    ];
    let phases = [SizeClass::Small, SizeClass::Medium, SizeClass::Large]
        .into_iter()
        .map(|class| PhaseSpec {
            name: format!("mixed-{}", class.label()),
            threads: groups
                .iter()
                .map(|chain| ThreadSpec {
                    dataset_bytes: class.sample_bytes(config, &mut rng),
                    chain: chain.clone(),
                    loops: rng.gen_range(2..=3),
                    check_output: true,
                })
                .collect(),
        })
        .collect();
    AppSpec {
        name: "soc4-mixed".into(),
        phases,
    }
}

/// The SoC5 application: V2V encode/decode chains on the FFT/Viterbi pairs
/// running alongside CNN inference on the Conv-2D/GEMM pairs.
pub fn soc5_app(config: &SocConfig, seed: u64) -> AppSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let fft = instances_of(config, "fft");
    let vit = instances_of(config, "viterbi");
    let conv = instances_of(config, "conv2d");
    let gemm = instances_of(config, "gemm");
    assert!(
        fft.len() >= 2 && vit.len() >= 2 && conv.len() >= 2 && gemm.len() >= 2,
        "SoC5 needs two instances of each domain accelerator"
    );

    let phase = |name: &str, class: SizeClass, rng: &mut SmallRng| PhaseSpec {
        name: name.to_owned(),
        threads: vec![
            // V2V receive: demodulate then decode.
            ThreadSpec {
                dataset_bytes: class.sample_bytes(config, rng),
                chain: vec![fft[0], vit[0]],
                loops: 3,
                check_output: true,
            },
            // V2V transmit: encode then modulate.
            ThreadSpec {
                dataset_bytes: class.sample_bytes(config, rng),
                chain: vec![vit[1], fft[1]],
                loops: 3,
                check_output: false,
            },
            // CNN inference: convolution layers then dense layers.
            ThreadSpec {
                dataset_bytes: class.sample_bytes(config, rng),
                chain: vec![conv[0], gemm[0]],
                loops: 2,
                check_output: true,
            },
            ThreadSpec {
                dataset_bytes: class.sample_bytes(config, rng),
                chain: vec![conv[1], gemm[1]],
                loops: 2,
                check_output: true,
            },
        ],
    };

    let phases = vec![
        phase("v2v+cnn-S", SizeClass::Small, &mut rng),
        phase("v2v+cnn-M", SizeClass::Medium, &mut rng),
        phase("v2v+cnn-L", SizeClass::Large, &mut rng),
    ];
    AppSpec {
        name: "soc5-autonomous-driving".into(),
        phases,
    }
}

/// The SoC6 application: three image-classification pipelines
/// (night-vision → autoencoder → MLP) processing batches in parallel.
pub fn soc6_app(config: &SocConfig, seed: u64) -> AppSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nv = instances_of(config, "night-vision");
    let ae = instances_of(config, "autoencoder");
    let mlp = instances_of(config, "mlp");
    assert!(
        nv.len() >= 3 && ae.len() >= 3 && mlp.len() >= 3,
        "SoC6 needs three instances of each pipeline stage"
    );

    let phase = |name: &str, class: SizeClass, loops: u32, rng: &mut SmallRng| PhaseSpec {
        name: name.to_owned(),
        threads: (0..3)
            .map(|i| ThreadSpec {
                dataset_bytes: class.sample_bytes(config, rng),
                chain: vec![nv[i], ae[i], mlp[i]],
                loops,
                check_output: true,
            })
            .collect(),
    };

    let phases = vec![
        phase("classify-S", SizeClass::Small, 3, &mut rng),
        phase("classify-M", SizeClass::Medium, 2, &mut rng),
        phase("classify-L", SizeClass::Large, 2, &mut rng),
    ];
    AppSpec {
        name: "soc6-computer-vision".into(),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohmeleon_soc::config::{soc4, soc5, soc6};

    #[test]
    fn instance_lookup_by_name() {
        let cfg = soc5();
        assert_eq!(instances_of(&cfg, "fft").len(), 2);
        assert_eq!(instances_of(&cfg, "gemm").len(), 2);
        assert!(instances_of(&cfg, "nvdla").is_empty());
    }

    #[test]
    fn soc4_app_covers_ten_accelerators() {
        let cfg = soc4();
        let app = soc4_app(&cfg, 1);
        assert_eq!(app.phases.len(), 3);
        let used: std::collections::HashSet<u16> = app
            .phases
            .iter()
            .flat_map(|p| p.threads.iter())
            .flat_map(|t| t.chain.iter().map(|a| a.0))
            .collect();
        assert!(used.len() >= 10, "uses most of the catalog: {used:?}");
    }

    #[test]
    fn soc5_pipelines_pair_domain_accelerators() {
        let cfg = soc5();
        let app = soc5_app(&cfg, 1);
        let fft = instances_of(&cfg, "fft");
        let vit = instances_of(&cfg, "viterbi");
        let rx = &app.phases[0].threads[0];
        assert_eq!(rx.chain, vec![fft[0], vit[0]]);
        let tx = &app.phases[0].threads[1];
        assert_eq!(tx.chain, vec![vit[1], fft[1]]);
    }

    #[test]
    fn soc6_runs_three_parallel_pipelines() {
        let cfg = soc6();
        let app = soc6_app(&cfg, 1);
        for phase in &app.phases {
            assert_eq!(phase.threads.len(), 3);
            for t in &phase.threads {
                assert_eq!(t.chain.len(), 3);
            }
            // The three pipelines use disjoint instances.
            let mut all: Vec<u16> = phase
                .threads
                .iter()
                .flat_map(|t| t.chain.iter().map(|a| a.0))
                .collect();
            let before = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), before);
        }
    }

    #[test]
    fn case_apps_are_deterministic() {
        let cfg = soc6();
        assert_eq!(soc6_app(&cfg, 4), soc6_app(&cfg, 4));
        assert_ne!(soc6_app(&cfg, 4), soc6_app(&cfg, 5));
    }
}
