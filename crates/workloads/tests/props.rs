//! Property tests for the workload layer: config round-trips and
//! generator bounds.

use cohmeleon_core::AccelInstanceId;
use cohmeleon_soc::{AppSpec, PhaseSpec, ThreadSpec};
use cohmeleon_workloads::appconfig::{parse_app, render_app};
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_workloads::sizes::SizeClass;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property; case `n` draws its inputs from `SmallRng::seed_from_u64(n)`.
const CASES: u64 = 64;

const LETTERS: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// A name matching the regex `[a-zA-Z][a-zA-Z0-9<extra>]{0,max_tail}`.
fn arb_name(rng: &mut SmallRng, extra: &str, max_tail: usize) -> String {
    let tail: Vec<char> = format!("{LETTERS}0123456789{extra}").chars().collect();
    let first = LETTERS.as_bytes()[rng.gen_range(0..LETTERS.len())];
    let mut name = String::from(char::from(first));
    name.extend((0..rng.gen_range(0..=max_tail)).map(|_| tail[rng.gen_range(0..tail.len())]));
    name
}

fn arb_app(rng: &mut SmallRng) -> AppSpec {
    let thread = |rng: &mut SmallRng| ThreadSpec {
        dataset_bytes: rng.gen_range(1..(8 << 20)),
        chain: (0..rng.gen_range(1..5usize))
            .map(|_| AccelInstanceId(rng.gen_range(0..32)))
            .collect(),
        loops: rng.gen_range(1..6),
        check_output: rng.gen(),
    };
    let name = arb_name(rng, "_-", 16);
    let phases = (0..rng.gen_range(0..5usize))
        .map(|_| PhaseSpec {
            name: arb_name(rng, " _:-", 24),
            threads: (0..rng.gen_range(1..6usize)).map(|_| thread(rng)).collect(),
        })
        .collect();
    AppSpec { name, phases }
}

/// Any application spec survives a render → parse round trip.
#[test]
fn appconfig_roundtrips() {
    for case in 0..CASES {
        let app = arb_app(&mut SmallRng::seed_from_u64(case));
        let text = render_app(&app);
        let parsed = parse_app(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(app, parsed, "case {case}");
    }
}

/// Generated applications respect their parameter bounds on any SoC.
#[test]
fn generator_respects_bounds() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (phases, tmin, tspan) = (
            rng.gen_range(1..5),
            rng.gen_range(1..4),
            rng.gen_range(0..6),
        );
        let config = cohmeleon_soc::config::soc2();
        let params = GeneratorParams {
            phases,
            threads: (tmin, tmin + tspan),
            chain_len: (1, 3),
            loops: (1, 4),
            size_mix: vec![SizeClass::Small, SizeClass::Medium, SizeClass::Large],
            check_per_mille: 500,
        };
        let app = generate_app(&config, &params, rng.gen());
        assert_eq!(app.phases.len(), phases, "case {case}");
        for phase in &app.phases {
            let threads = phase.threads.len();
            assert!(
                threads >= tmin && threads <= tmin + tspan,
                "case {case}: {threads} threads"
            );
            for t in &phase.threads {
                assert!(
                    !t.chain.is_empty() && t.chain.len() <= 3,
                    "case {case}: {t:?}"
                );
                assert!((1..=4).contains(&t.loops), "case {case}: {t:?}");
                for a in &t.chain {
                    assert!((a.0 as usize) < config.accels.len(), "case {case}: {t:?}");
                }
                // Sizes fall inside the drawn classes' envelope
                // (Small..Large), give or take line rounding.
                assert!(
                    t.dataset_bytes <= config.llc_total_bytes() + config.line_bytes,
                    "case {case}: {t:?}"
                );
            }
        }
    }
}

/// Size classes partition the byte axis: every size classifies into
/// exactly the class whose range contains it.
#[test]
fn size_classification_is_consistent() {
    let config = cohmeleon_soc::config::soc1();
    for case in 0..CASES {
        let bytes = SmallRng::seed_from_u64(case).gen_range(1..(16 << 20));
        let class = SizeClass::classify(bytes, &config);
        let (lo, hi) = class.byte_range(&config);
        // Small's lower bound is clamped (4 KiB) but classification covers
        // everything below it too.
        if class == SizeClass::Small {
            assert!(bytes <= hi, "case {case}: {bytes} in {class:?}");
        } else {
            assert!(
                bytes >= lo && bytes <= hi.max(bytes),
                "case {case}: {bytes} in {class:?}"
            );
        }
    }
}
