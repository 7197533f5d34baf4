//! Figure 7: breakdown of the coherence decisions made by Cohmeleon and
//! the manually-tuned algorithm, overall and per workload-size category
//! (S/M/L/XL).

use cohmeleon_core::CoherenceMode;
use cohmeleon_exp::{Experiment, PolicyKind, WorkStealing};
use cohmeleon_soc::config::soc0;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_workloads::sizes::SizeClass;

use crate::scale::Scale;
use crate::table;

/// One stacked bar: the decision mix of a policy for one size category.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Policy name.
    pub policy: String,
    /// Size label (`all`, `S`, `M`, `L`, `XL`).
    pub size: String,
    /// Fraction of invocations per mode, indexed by
    /// [`CoherenceMode::index`]; sums to 1 unless the bucket is empty.
    pub fractions: [f64; 4],
    /// Number of invocations in the bucket.
    pub count: usize,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// Rows, policy-major: `all` first, then S/M/L/XL.
    pub rows: Vec<Row>,
}

impl Data {
    /// Row lookup.
    pub fn get(&self, policy: &str, size: &str) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.size == size)
    }
}

/// Runs both policies on the SoC0 evaluation application and tallies their
/// decisions.
pub fn run(scale: Scale) -> Data {
    let config = soc0();
    let train_iterations = scale.pick(10, 2);
    let gen_params = scale.pick(GeneratorParams::default(), GeneratorParams::quick());
    let train_app = generate_app(&config, &gen_params, 3001);
    let test_app = generate_app(&config, &gen_params, 3002);

    let grid = Experiment::train_test(config.clone(), train_app, test_app)
        .policy_kinds([PolicyKind::Manual, PolicyKind::Cohmeleon])
        .seed(7)
        .train_iterations(train_iterations)
        .build()
        .expect("fig7 grid is non-empty");
    let results = grid.collect(&WorkStealing::new());

    let mut rows = Vec::new();
    for cell in results.iter() {
        let result = &cell.result;
        let name = result.policy.clone();

        let records: Vec<(SizeClass, CoherenceMode)> = result
            .invocations()
            .map(|r| (SizeClass::classify(r.footprint_bytes, &config), r.mode))
            .collect();

        rows.push(tally(&name, "all", records.iter().map(|(_, m)| *m)));
        for class in SizeClass::ALL {
            rows.push(tally(
                &name,
                class.label(),
                records.iter().filter(|(c, _)| *c == class).map(|(_, m)| *m),
            ));
        }
    }
    Data { rows }
}

fn tally(policy: &str, size: &str, modes: impl Iterator<Item = CoherenceMode>) -> Row {
    let mut counts = [0usize; 4];
    let mut total = 0usize;
    for m in modes {
        counts[m.index()] += 1;
        total += 1;
    }
    let fractions = if total == 0 {
        [0.0; 4]
    } else {
        counts.map(|c| c as f64 / total as f64)
    };
    Row {
        policy: policy.to_owned(),
        size: size.to_owned(),
        fractions,
        count: total,
    }
}

/// Prints the breakdown.
pub fn print(data: &Data) {
    let rows: Vec<Vec<String>> = data
        .rows
        .iter()
        .map(|r| {
            let mut cells = vec![format!("{} ({})", r.policy, r.size)];
            for m in CoherenceMode::ALL {
                cells.push(table::percent(r.fractions[m.index()]));
            }
            cells.push(r.count.to_string());
            cells
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "policy (size)",
                "non-coh-dma",
                "llc-coh-dma",
                "coh-dma",
                "full-coh",
                "n"
            ],
            &rows
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_tallies_both_policies() {
        let data = run(Scale::Fast);
        // 2 policies × (all + 4 size classes).
        assert_eq!(data.rows.len(), 10);
        for r in &data.rows {
            let sum: f64 = r.fractions.iter().sum();
            if r.count > 0 {
                assert!((sum - 1.0).abs() < 1e-9, "{r:?}");
            }
        }
        let manual_all = data.get("manual", "all").unwrap();
        assert!(manual_all.count > 0);
        let coh_all = data.get("cohmeleon", "all").unwrap();
        assert_eq!(coh_all.count, manual_all.count);
    }
}
