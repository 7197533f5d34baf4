//! Section 6, "Cohmeleon Overhead": the fraction of total execution time
//! spent in Cohmeleon's status tracking, computation and decision making,
//! as a function of workload size. The paper measures 3–6% for 16 KiB
//! workloads, dropping below 0.1% for 4 MiB.

use cohmeleon_core::policy::{CohmeleonPolicy, Policy};
use cohmeleon_core::reward::RewardWeights;
use cohmeleon_core::AccelInstanceId;
use cohmeleon_exp::{Experiment, PolicySpec, Protocol, Scenario, WorkStealing};
use cohmeleon_soc::config::soc0;
use cohmeleon_soc::{AppSpec, PhaseSpec, ThreadSpec, TimingParams};

use crate::scale::Scale;
use crate::table;

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Workload size in bytes.
    pub bytes: u64,
    /// Total invocation time in cycles.
    pub total_cycles: u64,
    /// Cycles charged to Cohmeleon's sense/decide/update software.
    pub decision_cycles: u64,
    /// `decision_cycles / total_cycles`.
    pub fraction: f64,
}

/// The regenerated sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// Points, smallest workload first.
    pub points: Vec<Point>,
}

/// Runs the overhead sweep on SoC0 with an untrained (but non-exploring)
/// Cohmeleon policy — the steady-state decision path.
pub fn run(scale: Scale) -> Data {
    let config = soc0();
    let decision_cycles = TimingParams::default().decision_cohmeleon_cycles;
    let sweep: Vec<u64> = scale.pick(
        vec![
            16 * 1024,
            64 * 1024,
            256 * 1024,
            1024 * 1024,
            4 * 1024 * 1024,
        ],
        vec![16 * 1024, 256 * 1024],
    );

    // One evaluation-only scenario per workload size, all running the
    // frozen (steady-state) Cohmeleon decision path.
    let scenarios = sweep.iter().map(|&bytes| {
        let app = AppSpec {
            name: format!("overhead-{bytes}"),
            phases: vec![PhaseSpec {
                name: "sweep".into(),
                threads: vec![ThreadSpec {
                    dataset_bytes: bytes,
                    chain: vec![AccelInstanceId(0)],
                    loops: 1,
                    check_output: false,
                }],
            }],
        };
        Scenario::evaluate(config.clone(), app).label(format!("{} KiB", bytes / 1024))
    });
    let grid = Experiment::new()
        .protocol(Protocol::EvaluateOnly)
        .scenarios(scenarios)
        .policy(PolicySpec::custom("cohmeleon-frozen", |_, _, seed| {
            let mut policy = CohmeleonPolicy::new(RewardWeights::paper_default(), 10, seed);
            policy.freeze(); // steady state: decisions only, no exploration
            Box::new(policy)
        }))
        .seed(7)
        .build()
        .expect("overhead grid is non-empty");
    let results = grid.collect(&WorkStealing::new());

    let points = sweep
        .iter()
        .enumerate()
        .map(|(s, &bytes)| {
            let rec = &results.cell(s, 0, 0).result.phases[0].invocations[0];
            let total = rec.measurement.total_cycles;
            Point {
                bytes,
                total_cycles: total,
                decision_cycles,
                fraction: decision_cycles as f64 / total.max(1) as f64,
            }
        })
        .collect();
    Data { points }
}

/// Prints the sweep.
pub fn print(data: &Data) {
    let rows: Vec<Vec<String>> = data
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{} KiB", p.bytes / 1024),
                p.total_cycles.to_string(),
                p.decision_cycles.to_string(),
                table::percent(p.fraction),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["workload", "total cycles", "cohmeleon cycles", "overhead"],
            &rows
        )
    );
    if let (Some(first), Some(last)) = (data.points.first(), data.points.last()) {
        println!(
            "overhead: {} at {} KiB → {} at {} KiB (paper: 3–6% at 16 KiB, <0.1% at 4 MiB)",
            table::percent(first.fraction),
            first.bytes / 1024,
            table::percent(last.fraction),
            last.bytes / 1024
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_shrinks_with_workload_size() {
        let data = run(Scale::Fast);
        assert_eq!(data.points.len(), 2);
        assert!(data.points[0].fraction > data.points[1].fraction);
        // Small-workload overhead is in the paper's single-digit-percent
        // regime; large workloads amortise it away.
        assert!(data.points[0].fraction > 0.005);
        assert!(data.points[0].fraction < 0.20);
    }
}
