//! Figure 3: performance degradation under parallel accelerator execution.
//!
//! Medium (256 KiB) workloads on the 12-accelerator motivation SoC
//! (3 × {FFT, Night-vision, Sort, SPMV}); 1, 4, 8 and 12 accelerators run
//! concurrently, each invoked repeatedly from its own thread. Bars are
//! normalized to the single-accelerator non-coherent-DMA result.

use cohmeleon_core::{AccelInstanceId, CoherenceMode};
use cohmeleon_exp::{Experiment, PolicyKind, Protocol, Scenario, WorkStealing};
use cohmeleon_soc::config::motivation_parallel_soc;
use cohmeleon_soc::{AppSpec, PhaseSpec, ThreadSpec};

use crate::scale::Scale;
use crate::table;

/// One bar pair of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Number of accelerators running concurrently.
    pub parallel: usize,
    /// Coherence mode.
    pub mode: CoherenceMode,
    /// Mean per-invocation execution time (cycles).
    pub exec_cycles: f64,
    /// Mean per-invocation off-chip accesses.
    pub offchip: f64,
    /// Normalized to (1 accelerator, non-coherent DMA).
    pub norm_time: f64,
    /// Normalized off-chip accesses.
    pub norm_mem: f64,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// Bars for every (parallelism, mode) pair.
    pub entries: Vec<Entry>,
}

impl Data {
    /// The entry for a (parallelism, mode) pair.
    pub fn get(&self, parallel: usize, mode: CoherenceMode) -> Option<&Entry> {
        self.entries
            .iter()
            .find(|e| e.parallel == parallel && e.mode == mode)
    }
}

/// Parallelism levels of the figure.
pub const PARALLELISM: [usize; 4] = [1, 4, 8, 12];

/// Runs the parallel-execution experiment: an evaluation-only grid of one
/// scenario per parallelism level against the four fixed policies.
pub fn run(scale: Scale) -> Data {
    let config = motivation_parallel_soc();
    let bytes = scale.pick(256 * 1024, 96 * 1024);
    let loops = scale.pick(5, 2);

    let scenarios = PARALLELISM.map(|parallel| {
        let app = AppSpec {
            name: format!("fig3-{parallel}"),
            phases: vec![PhaseSpec {
                name: "parallel".into(),
                threads: (0..parallel)
                    .map(|i| ThreadSpec {
                        dataset_bytes: bytes,
                        chain: vec![AccelInstanceId(i as u16)],
                        loops,
                        check_output: false,
                    })
                    .collect(),
            }],
        };
        Scenario::evaluate(config.clone(), app).label(format!("{parallel} acc"))
    });
    let grid = Experiment::new()
        .protocol(Protocol::EvaluateOnly)
        .scenarios(scenarios)
        .policy_kinds(PolicyKind::FIXED[..4].iter().copied())
        .seed(42)
        .build()
        .expect("fig3 grid is non-empty");
    let results = grid.collect(&WorkStealing::new());

    // Raw means per (parallelism, mode).
    let mut raw: Vec<(usize, CoherenceMode, f64, f64)> = Vec::new();
    for (s, parallel) in PARALLELISM.into_iter().enumerate() {
        for (p, mode) in CoherenceMode::ALL.into_iter().enumerate() {
            let invs = &results.cell(s, p, 0).result.phases[0].invocations;
            let n = invs.len().max(1) as f64;
            let mean_time = invs
                .iter()
                .map(|r| r.measurement.total_cycles as f64)
                .sum::<f64>()
                / n;
            let mean_mem = invs
                .iter()
                .map(|r| r.measurement.offchip_accesses)
                .sum::<f64>()
                / n;
            raw.push((parallel, mode, mean_time, mean_mem));
        }
    }

    let (base_time, base_mem) = raw
        .iter()
        .find(|(p, m, _, _)| *p == 1 && *m == CoherenceMode::NonCohDma)
        .map(|(_, _, t, m)| (*t, m.max(1.0)))
        .expect("baseline present");

    let entries = raw
        .into_iter()
        .map(|(parallel, mode, exec_cycles, offchip)| Entry {
            parallel,
            mode,
            exec_cycles,
            offchip,
            norm_time: exec_cycles / base_time,
            norm_mem: offchip / base_mem,
        })
        .collect();
    Data { entries }
}

/// Prints the figure.
pub fn print(data: &Data) {
    let rows: Vec<Vec<String>> = data
        .entries
        .iter()
        .map(|e| {
            vec![
                format!("{} acc", e.parallel),
                e.mode.to_string(),
                table::ratio(e.norm_time),
                table::ratio(e.norm_mem),
                format!("{:.0}", e.exec_cycles),
                format!("{:.0}", e.offchip),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "parallel",
                "mode",
                "norm-time",
                "norm-mem",
                "cycles",
                "offchip"
            ],
            &rows
        )
    );
    // Shape summary: slowdown of each mode from 1 to 12 accelerators.
    for mode in CoherenceMode::ALL {
        let t1 = data.get(1, mode).map(|e| e.norm_time).unwrap_or(1.0);
        let t12 = data.get(12, mode).map(|e| e.norm_time).unwrap_or(1.0);
        println!("{mode}: 12-accelerator slowdown {:.1}x", t12 / t1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_covers_all_levels() {
        let data = run(Scale::Fast);
        assert_eq!(data.entries.len(), 16);
        let base = data.get(1, CoherenceMode::NonCohDma).unwrap();
        assert!((base.norm_time - 1.0).abs() < 1e-9);
        // Contention can only slow things down.
        for mode in CoherenceMode::ALL {
            let t1 = data.get(1, mode).unwrap().norm_time;
            let t12 = data.get(12, mode).unwrap().norm_time;
            assert!(t12 >= t1 * 0.9, "{mode}: {t1} -> {t12}");
        }
    }
}
