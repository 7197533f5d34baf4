//! Figure 8: performance over training iterations.
//!
//! Cohmeleon alternates one training iteration on the training instance
//! with one evaluation of the (temporarily frozen) model on the test
//! instance, for decay schedules of 10, 30 and 50 total iterations.
//! Iteration 0 is the untrained model — equivalent to the random policy.
//! Series are the geometric-mean normalized execution time and off-chip
//! accesses versus fixed non-coherent DMA.

use cohmeleon_core::policy::{CohmeleonPolicy, FixedPolicy, Policy};
use cohmeleon_core::reward::RewardWeights;
use cohmeleon_core::CoherenceMode;
use cohmeleon_exp::{Executor, WorkStealing};
use cohmeleon_soc::config::soc0;
use cohmeleon_soc::{run_app, Soc};
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_workloads::runner::{evaluate_policy, summarize};

use crate::scale::Scale;
use crate::table;

/// One point of one training curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// The schedule length this curve belongs to (10/30/50).
    pub schedule: usize,
    /// Training iterations completed before this evaluation.
    pub iteration: usize,
    /// Geometric-mean normalized execution time.
    pub norm_time: f64,
    /// Geometric-mean normalized off-chip accesses.
    pub norm_mem: f64,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// All points, curve-major.
    pub points: Vec<Point>,
}

impl Data {
    /// The curve for one schedule length.
    pub fn curve(&self, schedule: usize) -> Vec<&Point> {
        self.points
            .iter()
            .filter(|p| p.schedule == schedule)
            .collect()
    }
}

/// Runs the training-time experiment.
///
/// The alternating train-one/evaluate-one loop does not decompose into
/// independent grid cells (each evaluation shares the evolving model), so
/// each *curve* is one task on the sweep [`Executor`] — the same
/// scheduling layer the grid uses, without the hand-rolled channel code.
pub fn run(scale: Scale) -> Data {
    let config = soc0();
    let schedules: Vec<usize> = scale.pick(vec![10, 30, 50], vec![3, 5]);
    let gen_params = scale.pick(GeneratorParams::default(), GeneratorParams::quick());
    let train_app = generate_app(&config, &gen_params, 4001);
    let test_app = generate_app(&config, &gen_params, 4002);

    // Baseline for normalization.
    let mut baseline_policy = FixedPolicy::new(CoherenceMode::NonCohDma);
    let baseline = evaluate_policy(&config, &test_app, &mut baseline_policy, 7);

    let curve = |c: usize| {
        let schedule = schedules[c];
        let mut policy = CohmeleonPolicy::new(RewardWeights::paper_default(), schedule, 7);
        let mut points = Vec::new();
        for iteration in 0..=schedule {
            // Evaluate the current model with exploration disabled,
            // without disturbing the training state.
            let mut frozen = policy.clone();
            frozen.freeze();
            let result = evaluate_policy(&config, &test_app, &mut frozen, 7);
            let outcome = summarize(result, &baseline);
            points.push(Point {
                schedule,
                iteration,
                norm_time: outcome.geo_time,
                norm_mem: outcome.geo_mem,
            });
            if iteration < schedule {
                policy.begin_iteration(iteration);
                let mut soc = Soc::new(config.clone());
                run_app(
                    &mut soc,
                    &train_app,
                    &mut policy,
                    7_u64.wrapping_add(iteration as u64 * 7919),
                );
            }
        }
        points
    };

    let mut curves: Vec<(usize, Vec<Point>)> = Vec::new();
    WorkStealing::new().run(schedules.len(), &curve, &mut |c, points| {
        curves.push((schedules[c], points));
    });
    curves.sort_by_key(|(s, _)| *s);
    Data {
        points: curves.into_iter().flat_map(|(_, pts)| pts).collect(),
    }
}

/// Prints the curves.
pub fn print(data: &Data) {
    let rows: Vec<Vec<String>> = data
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{} iterations", p.schedule),
                p.iteration.to_string(),
                table::ratio(p.norm_time),
                table::ratio(p.norm_mem),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["schedule", "iteration", "norm-time", "norm-mem"], &rows)
    );
    for &schedule in &[10usize, 30, 50] {
        let curve = data.curve(schedule);
        if curve.is_empty() {
            continue;
        }
        let first = curve.first().expect("non-empty");
        let last = curve.last().expect("non-empty");
        println!(
            "{schedule} iterations: untrained {} → trained {} (time)",
            table::ratio(first.norm_time),
            table::ratio(last.norm_time)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_builds_full_curves() {
        let data = run(Scale::Fast);
        let c3 = data.curve(3);
        let c5 = data.curve(5);
        assert_eq!(c3.len(), 4); // iterations 0..=3
        assert_eq!(c5.len(), 6);
        // Iterations are in order.
        for (i, p) in c3.iter().enumerate() {
            assert_eq!(p.iteration, i);
        }
    }

    #[test]
    fn training_does_not_hurt_compared_to_untrained() {
        let data = run(Scale::Fast);
        for schedule in [3usize, 5] {
            let curve = data.curve(schedule);
            let first = curve.first().unwrap().norm_time;
            let last = curve.last().unwrap().norm_time;
            assert!(
                last <= first * 1.10,
                "schedule {schedule}: trained {last} much worse than untrained {first}"
            );
        }
    }
}
