//! Figure 9: all eight policies across eight SoC configurations —
//! SoC0-Streaming, SoC0-Irregular, SoC1, SoC2, SoC3 (traffic generators)
//! and the case studies SoC4 (mixed accelerators), SoC5 (autonomous
//! driving), SoC6 (computer vision). Also computes the paper's headline
//! numbers: Cohmeleon's average speedup and off-chip-access reduction
//! against the five fixed policies, and the same headline for two
//! per-phase oracles, the ceiling of any policy that holds one mode per
//! phase.

use cohmeleon_exp::{normalize_records, CellRecord, Experiment, PolicyKind, Scenario};
use cohmeleon_sim::stats::geometric_mean;
use cohmeleon_soc::config::{soc0_irregular, soc0_streaming, soc1, soc2, soc3, soc4, soc5, soc6};
use cohmeleon_workloads::case_studies::{soc4_app, soc5_app, soc6_app};
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

use crate::scale::Scale;
use crate::table;

/// One scatter point: a policy on a SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// SoC panel name.
    pub soc: String,
    /// Policy name.
    pub policy: String,
    /// Geometric-mean normalized execution time.
    pub norm_time: f64,
    /// Geometric-mean normalized off-chip accesses.
    pub norm_mem: f64,
}

/// A per-phase oracle's points and headline.
#[derive(Debug, Clone, PartialEq)]
pub struct Ceiling {
    /// The oracle's label, as in [`ORACLES`].
    pub oracle: &'static str,
    /// One point per SoC.
    pub points: Vec<Point>,
    /// Mean speedup of the oracle vs. the five fixed policies.
    pub speedup: f64,
    /// Mean reduction of off-chip accesses vs. the five fixed policies.
    pub mem_reduction: f64,
}

/// The regenerated figure plus headline summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// All points, SoC-major in policy order.
    pub points: Vec<Point>,
    /// Mean speedup of Cohmeleon vs. the five fixed policies
    /// (paper: ≈ 1.38×).
    pub headline_speedup: f64,
    /// Mean reduction of off-chip accesses vs. the five fixed policies
    /// (paper: ≈ 66%).
    pub headline_mem_reduction: f64,
    /// One ceiling per entry of [`ORACLES`].
    pub ceilings: Vec<Ceiling>,
}

impl Data {
    /// Points for one SoC.
    pub fn soc(&self, name: &str) -> Vec<&Point> {
        self.points.iter().filter(|p| p.soc == name).collect()
    }

    /// Distinct SoC names in order.
    pub fn socs(&self) -> Vec<String> {
        socs(&self.points)
    }
}

/// Distinct SoC names of `points`, in order.
fn socs(points: &[Point]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for p in points {
        if !out.contains(&p.soc) {
            out.push(p.soc.clone());
        }
    }
    out
}

/// The per-phase oracles: a label, and the policies whose fastest run of
/// each phase the oracle takes.
pub const ORACLES: [(&str, &[PolicyKind]); 2] = [
    (
        "per-phase oracle over the 4 uniform modes",
        &[
            PolicyKind::FixedNonCoh,
            PolicyKind::FixedLlcCoh,
            PolicyKind::FixedCohDma,
            PolicyKind::FixedFullCoh,
        ],
    ),
    (
        "per-phase oracle over the 5 fixed policies + manual",
        &[
            PolicyKind::FixedNonCoh,
            PolicyKind::FixedLlcCoh,
            PolicyKind::FixedCohDma,
            PolicyKind::FixedFullCoh,
            PolicyKind::FixedHetero,
            PolicyKind::Manual,
        ],
    ),
];

/// The eight experiment scenarios. Scenario `i` keeps its historical seed
/// `7 + i` via a per-scenario seed offset.
fn scenarios(scale: Scale) -> Vec<Scenario> {
    let gen_params = scale.pick(GeneratorParams::default(), GeneratorParams::quick());
    let mut out = Vec::new();
    for (i, config) in [soc0_streaming(), soc0_irregular(), soc1(), soc2(), soc3()]
        .into_iter()
        .enumerate()
    {
        let train = generate_app(&config, &gen_params, 5000 + i as u64 * 2);
        let test = generate_app(&config, &gen_params, 5001 + i as u64 * 2);
        out.push(Scenario::new(config, train, test));
    }
    // Case-study SoCs: per the paper, training always runs a randomly
    // configured instance of the evaluation application on the target SoC;
    // the domain application is the test workload.
    let c4 = soc4();
    out.push(Scenario::new(
        c4.clone(),
        generate_app(&c4, &gen_params, 5100),
        soc4_app(&c4, 2),
    ));
    let c5 = soc5();
    out.push(Scenario::new(
        c5.clone(),
        generate_app(&c5, &gen_params, 5101),
        soc5_app(&c5, 2),
    ));
    let c6 = soc6();
    out.push(Scenario::new(
        c6.clone(),
        generate_app(&c6, &gen_params, 5102),
        soc6_app(&c6, 2),
    ));
    out.into_iter()
        .enumerate()
        .map(|(i, scenario)| scenario.seed_offset(i as u64))
        .collect()
}

/// The cross-SoC experiment as one 8 × 8 grid, seed 7 — the `paper` grid
/// of [`sweeps`](crate::sweeps). Every (SoC, policy) cell is
/// independent, so an executor or a fleet balances the whole figure
/// instead of one suite per SoC.
pub fn experiment(scale: Scale) -> Experiment {
    Experiment::new()
        .scenarios(scenarios(scale))
        .policy_kinds(PolicyKind::ALL)
        .seed(7)
        .train_iterations(scale.pick(20, 2))
}

/// Renders the figure from the grid's records: every point normalized
/// against fixed non-coherent DMA (policy 0), the headline, and the
/// ceilings of [`ORACLES`].
pub fn from_records(records: &[CellRecord]) -> Data {
    let points = scatter(records);
    let (headline_speedup, headline_mem_reduction) =
        headline(&points, PolicyKind::Cohmeleon.label());
    let ceilings = ORACLES
        .iter()
        .map(|&(oracle, candidates)| {
            let mut with_oracle = records.to_vec();
            with_oracle.extend(oracle_records(records, oracle, candidates));
            let all = scatter(&with_oracle);
            let (speedup, mem_reduction) = headline(&all, oracle);
            Ceiling {
                oracle,
                points: all.into_iter().filter(|p| p.policy == oracle).collect(),
                speedup,
                mem_reduction,
            }
        })
        .collect();
    Data {
        points,
        headline_speedup,
        headline_mem_reduction,
        ceilings,
    }
}

/// One point per record, normalized against policy 0 of its SoC.
fn scatter(records: &[CellRecord]) -> Vec<Point> {
    records
        .iter()
        .zip(normalize_records(records, 0))
        .map(|(r, o)| Point {
            soc: r.scenario.clone(),
            policy: r.policy.clone(),
            norm_time: o.geo_time,
            norm_mem: o.geo_mem,
        })
        .collect()
}

/// One synthetic record labelled `oracle` per scenario and seed: each
/// phase is the phase (duration and off-chip count) of the fastest of
/// `candidates`.
fn oracle_records(
    records: &[CellRecord],
    oracle: &str,
    candidates: &[PolicyKind],
) -> Vec<CellRecord> {
    records
        .iter()
        .filter(|r| r.policy_index == 0)
        .map(|base| {
            let runs: Vec<&CellRecord> = records
                .iter()
                .filter(|r| {
                    r.scenario_index == base.scenario_index
                        && r.seed_index == base.seed_index
                        && candidates.iter().any(|k| k.label() == r.policy)
                })
                .collect();
            let phases = (0..base.phases.len())
                .map(|i| {
                    runs.iter()
                        .filter_map(|r| r.phases.get(i))
                        .min_by_key(|p| p.1)
                        .expect("every oracle picks from the baseline too")
                        .clone()
                })
                .collect();
            // Only the phases are scored; the rest stays the baseline's.
            CellRecord {
                policy_index: usize::MAX,
                policy: oracle.to_owned(),
                phases,
                ..base.clone()
            }
        })
        .collect()
}

/// Computes the headline averages for `policy`: for every SoC and every
/// fixed policy, its speedup (`fixed_time / policy_time`) and access
/// reduction (`1 − policy_mem / fixed_mem`), averaged geometrically
/// (speedup) and arithmetically (reduction) as ratios-of-means are
/// reported in the paper.
fn headline(points: &[Point], policy: &str) -> (f64, f64) {
    let mut speedups = Vec::new();
    let mut reductions = Vec::new();
    for soc in &socs(points) {
        let own = points
            .iter()
            .find(|p| &p.soc == soc && p.policy == policy)
            .unwrap_or_else(|| panic!("no `{policy}` point for {soc}"));
        for fixed in PolicyKind::FIXED {
            if let Some(f) = points
                .iter()
                .find(|p| &p.soc == soc && p.policy == fixed.label())
            {
                speedups.push(f.norm_time / own.norm_time.max(1e-12));
                if f.norm_mem > 1e-12 {
                    reductions.push(1.0 - (own.norm_mem / f.norm_mem).min(1.0));
                }
            }
        }
    }
    let speedup = geometric_mean(speedups.iter().copied()).unwrap_or(1.0);
    let reduction = if reductions.is_empty() {
        0.0
    } else {
        reductions.iter().sum::<f64>() / reductions.len() as f64
    };
    (speedup, reduction)
}

/// Prints the scatter, the headline and the ceilings.
pub fn print(data: &Data) {
    let rows: Vec<Vec<String>> = data
        .points
        .iter()
        .map(|p| {
            vec![
                p.soc.clone(),
                p.policy.clone(),
                table::ratio(p.norm_time),
                table::ratio(p.norm_mem),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["soc", "policy", "norm-time", "norm-mem"], &rows)
    );
    for soc in data.socs() {
        let pts = data.soc(&soc);
        let best = pts
            .iter()
            .min_by(|a, b| a.norm_time.partial_cmp(&b.norm_time).expect("finite"))
            .expect("non-empty");
        let coh = pts
            .iter()
            .find(|p| p.policy == "cohmeleon")
            .expect("cohmeleon present");
        println!(
            "{soc}: best={} ({}); cohmeleon {} time / {} mem",
            best.policy,
            table::ratio(best.norm_time),
            table::ratio(coh.norm_time),
            table::ratio(coh.norm_mem)
        );
    }
    println!(
        "HEADLINE: cohmeleon vs fixed policies — speedup {:.2}x (paper ≈ 1.38x), off-chip reduction {} (paper ≈ 66%)",
        data.headline_speedup,
        table::percent(data.headline_mem_reduction)
    );
    for c in &data.ceilings {
        println!(
            "CEILING: {} vs fixed policies — speedup {:.3}x, off-chip reduction {}",
            c.oracle,
            c.speedup,
            table::percent(c.mem_reduction)
        );
    }
}
