//! Figure 6: design-space exploration of the reward function on SoC0.
//!
//! Fifteen Cohmeleon models are trained (50 iterations each in the paper),
//! varying only the reward weights `(x, y, z)` for execution time,
//! communication ratio and off-chip accesses. Each trained model — plus the
//! seven baseline policies — is tested on a different application instance;
//! the scatter plots the geometric means of per-phase normalized execution
//! time against normalized off-chip accesses.

use cohmeleon_core::policy::CohmeleonPolicy;
use cohmeleon_core::reward::RewardWeights;
use cohmeleon_exp::{normalize_records, CellRecord, Experiment, PolicyKind, PolicySpec};
use cohmeleon_soc::config::soc0;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

use crate::scale::Scale;
use crate::table;

/// The 15 reward weightings explored: `(x, y, z)` percentages for
/// (execution time, communication ratio, off-chip accesses). Includes the
/// two configurations the paper calls out as Pareto-optimal — (67.5, 7.5,
/// 25) and (12.5, 12.5, 75) — and two that weigh > 90% for off-chip
/// accesses, which the paper found significantly worse.
pub const REWARD_POINTS: [(f64, f64, f64); 15] = [
    (67.5, 7.5, 25.0),
    (12.5, 12.5, 75.0),
    (100.0, 0.0, 0.0),
    (75.0, 25.0, 0.0),
    (75.0, 0.0, 25.0),
    (50.0, 25.0, 25.0),
    (50.0, 0.0, 50.0),
    (40.0, 20.0, 40.0),
    (33.3, 33.3, 33.4),
    (25.0, 50.0, 25.0),
    (25.0, 25.0, 50.0),
    (20.0, 10.0, 70.0),
    (10.0, 10.0, 80.0),
    (5.0, 0.0, 95.0),
    (2.5, 2.5, 95.0),
];

/// One scatter point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Series label (`cohmeleon(x/y/z)` or a baseline policy name).
    pub label: String,
    /// Whether this is one of the Cohmeleon reward variants.
    pub is_cohmeleon: bool,
    /// Geometric mean of per-phase normalized execution time.
    pub geo_time: f64,
    /// Geometric mean of per-phase normalized off-chip accesses.
    pub geo_mem: f64,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// Baseline and Cohmeleon points.
    pub points: Vec<Point>,
}

impl Data {
    /// The Cohmeleon points only.
    pub fn cohmeleon_points(&self) -> impl Iterator<Item = &Point> {
        self.points.iter().filter(|p| p.is_cohmeleon)
    }

    /// Is `candidate` Pareto-dominated by any other point?
    pub fn dominated(&self, candidate: &Point) -> bool {
        self.points.iter().any(|p| {
            (p.geo_time < candidate.geo_time && p.geo_mem <= candidate.geo_mem)
                || (p.geo_time <= candidate.geo_time && p.geo_mem < candidate.geo_mem)
        })
    }
}

/// The policies that are not Cohmeleon: the seven baselines, which come
/// first on the grid's policy axis.
fn baseline_kinds() -> Vec<PolicyKind> {
    PolicyKind::ALL
        .into_iter()
        .filter(|k| *k != PolicyKind::Cohmeleon)
        .collect()
}

/// The DSE as one grid: the seven baseline policies plus up to fifteen
/// custom reward-weight Cohmeleon variants.
pub fn experiment(scale: Scale) -> Experiment {
    let config = soc0();
    let train_iterations = scale.pick(50, 2);
    let gen_params = scale.pick(GeneratorParams::default(), GeneratorParams::quick());
    let train_app = generate_app(&config, &gen_params, 2001);
    let test_app = generate_app(&config, &gen_params, 2002);

    let reward_points = scale.pick(REWARD_POINTS.len(), 4);
    let variants = REWARD_POINTS[..reward_points]
        .iter()
        .enumerate()
        .map(|(i, &(x, y, z))| {
            // Each variant trains with its own policy seed (7 + i), as the
            // paper trains fifteen independent models.
            PolicySpec::custom(format!("cohmeleon({x}/{y}/{z})"), move |_, iters, _| {
                let weights =
                    RewardWeights::new(x, y, z).expect("reward points are valid weightings");
                Box::new(CohmeleonPolicy::new(weights, iters, 7 + i as u64))
            })
        });

    Experiment::train_test(config, train_app, test_app)
        .policy_kinds(baseline_kinds())
        .policies(variants)
        .seed(7)
        .train_iterations(train_iterations)
}

/// Renders the scatter from the grid's records, every point normalized
/// against the fixed non-coherent-DMA cell (policy 0). Baselines report
/// the policy's own name; variants the reward-weight label of their
/// spec.
pub fn from_records(records: &[CellRecord]) -> Data {
    let n_baselines = baseline_kinds().len();
    let points = records
        .iter()
        .zip(normalize_records(records, 0))
        .map(|(record, outcome)| Point {
            label: record.policy.clone(),
            is_cohmeleon: record.policy_index >= n_baselines,
            geo_time: outcome.geo_time,
            geo_mem: outcome.geo_mem,
        })
        .collect();
    Data { points }
}

/// Prints the scatter.
pub fn print(data: &Data) {
    let rows: Vec<Vec<String>> = data
        .points
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                table::ratio(p.geo_time),
                table::ratio(p.geo_mem),
                if data.dominated(p) { "" } else { "pareto" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["policy", "geo-time", "geo-mem", ""], &rows)
    );
    let coh: Vec<&Point> = data.cohmeleon_points().collect();
    if !coh.is_empty() {
        let tmin = coh.iter().map(|p| p.geo_time).fold(f64::MAX, f64::min);
        let tmax = coh.iter().map(|p| p.geo_time).fold(f64::MIN, f64::max);
        let mmin = coh.iter().map(|p| p.geo_mem).fold(f64::MAX, f64::min);
        let mmax = coh.iter().map(|p| p.geo_mem).fold(f64::MIN, f64::max);
        println!(
            "cohmeleon cluster: time {:.2}..{:.2}, mem {:.2}..{:.2} ({} points)",
            tmin,
            tmax,
            mmin,
            mmax,
            coh.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reward_points_are_valid_weightings() {
        for (x, y, z) in REWARD_POINTS {
            RewardWeights::new(x, y, z).expect("valid");
        }
        // The paper's two named Pareto points are present.
        assert!(REWARD_POINTS.contains(&(67.5, 7.5, 25.0)));
        assert!(REWARD_POINTS.contains(&(12.5, 12.5, 75.0)));
        // Two points weigh > 90% for off-chip accesses.
        let heavy = REWARD_POINTS.iter().filter(|(_, _, z)| *z > 90.0).count();
        assert_eq!(heavy, 2);
    }

    #[test]
    fn fast_run_produces_baselines_and_cohmeleon_points() {
        let data = crate::figures::run_grid(experiment(Scale::Fast), from_records);
        assert_eq!(data.points.iter().filter(|p| !p.is_cohmeleon).count(), 7);
        assert_eq!(data.cohmeleon_points().count(), 4);
        for p in &data.points {
            assert!(p.geo_time > 0.0 && p.geo_mem >= 0.0);
        }
    }
}
