//! Figure 5: the four named phases of the evaluation application on SoC0,
//! under all eight coherence policies. Bars are per-phase execution time and
//! off-chip accesses normalized to the fixed non-coherent-DMA policy.

use cohmeleon_exp::{normalize_records, CellRecord, Experiment, PolicyKind};
use cohmeleon_soc::config::soc0;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_workloads::phases::figure5_app;

use crate::scale::Scale;
use crate::table;

/// One bar pair of Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Phase name (figure panel).
    pub phase: String,
    /// Policy name (bar position).
    pub policy: String,
    /// Execution time normalized to fixed non-coherent DMA.
    pub norm_time: f64,
    /// Off-chip accesses normalized to fixed non-coherent DMA.
    pub norm_mem: f64,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// All bars, phase-major in policy order.
    pub entries: Vec<Entry>,
}

impl Data {
    /// Entry lookup by phase and policy name.
    pub fn get(&self, phase: &str, policy: &str) -> Option<&Entry> {
        self.entries
            .iter()
            .find(|e| e.phase == phase && e.policy == policy)
    }

    /// Distinct phase names in order of first appearance.
    pub fn phases(&self) -> Vec<String> {
        let mut out = Vec::new();
        for e in &self.entries {
            if !out.contains(&e.phase) {
                out.push(e.phase.clone());
            }
        }
        out
    }
}

/// The grid: train Cohmeleon on a random evaluation-app instance, then
/// test every policy on the Figure 5 application.
pub fn experiment(scale: Scale) -> Experiment {
    let config = soc0();
    let train_iterations = scale.pick(20, 2);
    let gen_params = scale.pick(GeneratorParams::default(), GeneratorParams::quick());
    let train_app = generate_app(&config, &gen_params, 1001);
    let test_app = figure5_app(&config, 77);
    Experiment::train_test(config, train_app, test_app)
        .policy_kinds(PolicyKind::ALL)
        .seed(7)
        .train_iterations(train_iterations)
}

/// Renders the figure from the grid's records: every phase of every
/// policy, normalized against fixed non-coherent DMA (policy 0).
pub fn from_records(records: &[CellRecord]) -> Data {
    let mut entries = Vec::new();
    for (record, outcome) in records.iter().zip(normalize_records(records, 0)) {
        for ((phase, _, _), &(t, m)) in record.phases.iter().zip(&outcome.normalized_phases) {
            entries.push(Entry {
                phase: phase.clone(),
                policy: record.policy.clone(),
                norm_time: t,
                norm_mem: m,
            });
        }
    }
    Data { entries }
}

/// Prints the figure.
pub fn print(data: &Data) {
    let rows: Vec<Vec<String>> = data
        .entries
        .iter()
        .map(|e| {
            vec![
                e.phase.clone(),
                e.policy.clone(),
                table::ratio(e.norm_time),
                table::ratio(e.norm_mem),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["phase", "policy", "norm-time", "norm-mem"], &rows)
    );
    for phase in data.phases() {
        let best = data
            .entries
            .iter()
            .filter(|e| e.phase == phase)
            .min_by(|a, b| a.norm_time.partial_cmp(&b.norm_time).expect("finite"))
            .expect("non-empty phase");
        let coh = data.get(&phase, "cohmeleon").expect("cohmeleon present");
        println!(
            "{phase}: best={} ({}); cohmeleon {} time / {} mem",
            best.policy,
            table::ratio(best.norm_time),
            table::ratio(coh.norm_time),
            table::ratio(coh.norm_mem),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_has_four_phases_and_eight_policies() {
        let data = crate::figures::run_grid(experiment(Scale::Fast), from_records);
        assert_eq!(data.phases().len(), 4);
        assert_eq!(data.entries.len(), 4 * 8);
        // The baseline policy normalizes to 1 in every phase.
        for phase in data.phases() {
            let base = data.get(&phase, "fixed-non-coh-dma").unwrap();
            assert!((base.norm_time - 1.0).abs() < 1e-9);
        }
    }
}
