//! The simulation workloads: the paper's Fig. 9 grid at paper scale, and
//! two single-SoC slices of it that isolate the simulator's two regimes.

use std::sync::Arc;
use std::time::Instant;

use cohmeleon_cache::TagStats;
use cohmeleon_exp::{
    build_policy, Executor, Experiment, PolicyKind, PolicySpec, Scenario, Serial, SweepGrid,
    WorkStealing,
};
use cohmeleon_sim::stats::geometric_mean;
use cohmeleon_soc::config::{soc0_irregular, soc0_streaming, soc1, soc2, soc3, soc4, soc5, soc6};
use cohmeleon_soc::{AppResult, Soc};
use cohmeleon_workloads::case_studies::{soc4_app, soc5_app, soc6_app};
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
use cohmeleon_workloads::runner::summarize;

use crate::pins;
use crate::trace::{with_cell_counters, PolicyCounters, PolicyTotals, Span, TracedPolicy, Tracer};

/// The seed whose cell hashes are pinned (the `fig9` bin's grid seed).
pub const DEFAULT_SEED: u64 = 7;
/// Training iterations per learning cell, as in the paper-scale `fig9`.
pub const TRAIN_ITERATIONS: usize = 20;
/// The paper's headline numbers for Cohmeleon against the fixed policies.
pub const PAPER_SPEEDUP: f64 = 1.38;
/// The paper's headline off-chip access reduction.
pub const PAPER_OFFCHIP_REDUCTION: f64 = 0.66;

/// Which simulation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// 8 SoCs × 8 policies, seed 7, 20 training iterations, on
    /// `WorkStealing` with one thread per CPU.
    Fig9Paper,
    /// SoC0-irregular under `fixed-non-coh-dma` and `manual`, `Serial`.
    IrregularDma,
    /// SoC0-streaming under the three coherent fixed modes, `Serial`.
    StreamingCoherent,
}

impl SimKind {
    fn scenarios(self) -> &'static [usize] {
        match self {
            SimKind::Fig9Paper => &[0, 1, 2, 3, 4, 5, 6, 7],
            SimKind::IrregularDma => &[1],
            SimKind::StreamingCoherent => &[0],
        }
    }

    fn policies(self) -> &'static [PolicyKind] {
        match self {
            SimKind::Fig9Paper => &PolicyKind::ALL,
            SimKind::IrregularDma => &[PolicyKind::FixedNonCoh, PolicyKind::Manual],
            SimKind::StreamingCoherent => &[
                PolicyKind::FixedLlcCoh,
                PolicyKind::FixedCohDma,
                PolicyKind::FixedFullCoh,
            ],
        }
    }
}

/// Scenario `i` of the Fig. 9 grid, built exactly as the `fig9` bin
/// builds it at paper scale. Also returns the seconds spent in
/// `generate_app` and the case-study app builders.
pub fn fig9_scenario(i: usize) -> (Scenario, f64) {
    let params = GeneratorParams::default();
    let start = Instant::now();
    let (config, train, test) = match i {
        0..=4 => {
            let config = [soc0_streaming, soc0_irregular, soc1, soc2, soc3][i]();
            let train = generate_app(&config, &params, 5000 + i as u64 * 2);
            let test = generate_app(&config, &params, 5001 + i as u64 * 2);
            (config, train, test)
        }
        5 => {
            let c = soc4();
            let train = generate_app(&c, &params, 5100);
            let test = soc4_app(&c, 2);
            (c, train, test)
        }
        6 => {
            let c = soc5();
            let train = generate_app(&c, &params, 5101);
            let test = soc5_app(&c, 2);
            (c, train, test)
        }
        7 => {
            let c = soc6();
            let train = generate_app(&c, &params, 5102);
            let test = soc6_app(&c, 2);
            (c, train, test)
        }
        _ => panic!("Fig. 9 has eight scenarios, not {}", i + 1),
    };
    let generate_s = start.elapsed().as_secs_f64();
    let scenario = Scenario::new(config, train, test).seed_offset(i as u64);
    (scenario, generate_s)
}

/// Deterministic per-cell counts read from `AppResult`: the evaluation
/// run only (training iterations are invisible from outside).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulation events.
    pub events: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Accelerator invocations.
    pub invocations: u64,
    /// Off-chip accesses as the monitors saw them.
    pub offchip: u64,
    /// Ground-truth DRAM accesses summed over invocations.
    pub true_dram: u64,
    /// Tag-array operation counters.
    pub tag: TagStats,
}

impl Counts {
    fn of(result: &AppResult) -> Counts {
        Counts {
            events: result.total_events(),
            cycles: result.total_duration(),
            invocations: result.invocations().count() as u64,
            offchip: result.total_offchip(),
            true_dram: result.invocations().map(|i| i.true_dram).sum(),
            tag: result.tag_walk,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.events += other.events;
        self.cycles += other.cycles;
        self.invocations += other.invocations;
        self.offchip += other.offchip;
        self.true_dram += other.true_dram;
        self.tag.merge(&other.tag);
    }
}

/// One finished cell.
#[derive(Debug, Clone)]
pub struct CellOut {
    /// `AppResult::structural_hash`.
    pub hash: u64,
    /// Deterministic counts.
    pub counts: Counts,
    /// Host seconds inside `run_cell` (traced reps only).
    pub cell_s: f64,
    /// Policy entry-point timings (traced reps only).
    pub policy: PolicyTotals,
    /// The raw result (needed for the Fig. 9 headline).
    pub result: AppResult,
}

/// One repetition of a simulation workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall seconds for the whole grid.
    pub wall_s: f64,
    /// Cells in dense grid order.
    pub cells: Vec<CellOut>,
    /// Executor threads used.
    pub threads: usize,
}

impl Rep {
    /// Counts summed over every cell.
    pub fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for c in &self.cells {
            total.add(&c.counts);
        }
        total
    }

    /// Policy timings summed over every cell.
    pub fn policy(&self) -> PolicyTotals {
        let mut total = PolicyTotals::default();
        for c in &self.cells {
            total.add(&c.policy);
        }
        total
    }

    /// Per-cell structural hashes in dense order.
    pub fn hashes(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.hash).collect()
    }
}

/// A built simulation workload: the same grid twice, once with the
/// paper-suite policies and once with each policy behind a
/// [`TracedPolicy`] carrying the same label.
pub struct SimJob {
    kind: SimKind,
    plain: SweepGrid,
    traced: SweepGrid,
    /// Pinned per-cell hashes, when the seed is the default one.
    pub pins: Option<Vec<u64>>,
}

impl SimJob {
    /// Builds the workload for `seed` (ignored by [`SimKind::Fig9Paper`],
    /// whose grid seed is the paper figure's 7). Returns the job and the
    /// seconds spent generating applications. Elaborates one `Soc` per
    /// scenario, so SoC set-up cost is part of the caller's set-up time.
    pub fn build(kind: SimKind, seed: u64) -> (SimJob, f64) {
        let seed = if kind == SimKind::Fig9Paper {
            DEFAULT_SEED
        } else {
            seed
        };
        let mut generate_s = 0.0;
        let scenarios: Vec<Scenario> = kind
            .scenarios()
            .iter()
            .map(|&i| {
                let (scenario, secs) = fig9_scenario(i);
                generate_s += secs;
                std::hint::black_box(Soc::new(scenario.config.clone()));
                scenario
            })
            .collect();
        let pins = (seed == DEFAULT_SEED).then(|| {
            kind.scenarios()
                .iter()
                .flat_map(|&s| {
                    kind.policies().iter().map(move |&p| {
                        let column = PolicyKind::ALL
                            .iter()
                            .position(|&k| k == p)
                            .expect("suite policy");
                        pins::FIG9[s * PolicyKind::ALL.len() + column]
                    })
                })
                .collect()
        });
        let mut job = SimJob::new(kind, scenarios, kind.policies(), seed, TRAIN_ITERATIONS);
        job.pins = pins;
        (job, generate_s)
    }

    /// A job over any scenarios and paper-suite policies, without pins —
    /// the building block of [`build`](Self::build), and of the
    /// benchmark's own tests at a scale that runs in seconds.
    pub fn new(
        kind: SimKind,
        scenarios: Vec<Scenario>,
        policies: &[PolicyKind],
        seed: u64,
        train_iterations: usize,
    ) -> SimJob {
        let grid = |specs: Vec<PolicySpec>| {
            Experiment::new()
                .scenarios(scenarios.iter().cloned())
                .policies(specs)
                .seed(seed)
                .train_iterations(train_iterations)
                .build()
                .expect("simulation workload grid is non-empty")
        };
        let plain = grid(policies.iter().map(|&k| PolicySpec::kind(k)).collect());
        let traced = grid(
            policies
                .iter()
                .map(|&k| {
                    PolicySpec::custom(k.label(), move |config, iters, seed| {
                        Box::new(TracedPolicy::wrap(build_policy(k, config, iters, seed)))
                    })
                })
                .collect(),
        );
        SimJob {
            kind,
            plain,
            traced,
            pins: None,
        }
    }

    /// Runs every cell once through the executor's task closure around
    /// `SweepGrid::run_cell` (`WorkStealing` with one thread per CPU for
    /// [`SimKind::Fig9Paper`], `Serial` otherwise). With a tracer, runs
    /// the traced grid and records a span per cell under a span for the
    /// whole repetition.
    pub fn run(&self, tracer: Option<(&Tracer, u64)>) -> Rep {
        let grid = if tracer.is_some() {
            &self.traced
        } else {
            &self.plain
        };
        let n = grid.num_cells();
        let rep_id = tracer.map_or(0, |(t, _)| t.open());
        let task = |i: usize| -> CellOut {
            let cell = grid.cell_at(i);
            let Some((t, trace)) = tracer else {
                let result = grid.run_cell(cell).result;
                return cell_out(result, 0.0, PolicyTotals::default());
            };
            let counters = Arc::new(PolicyCounters::default());
            let id = t.open();
            let start_ns = t.now();
            let start = Instant::now();
            let result = with_cell_counters(&counters, || grid.run_cell(cell).result);
            let cell_s = start.elapsed().as_secs_f64();
            let policy = counters.totals();
            t.record(Span {
                id,
                parent: rep_id,
                trace,
                name: "exp.cell",
                start_ns,
                end_ns: t.now(),
                attrs: vec![
                    ("cell", i as u64),
                    ("events", result.total_events()),
                    ("policy_ns", policy.total_ns()),
                ],
            });
            cell_out(result, cell_s, policy)
        };
        let mut cells: Vec<Option<CellOut>> = vec![None; n];
        let start_ns = tracer.map_or(0, |(t, _)| t.now());
        let start = Instant::now();
        let threads = if self.kind == SimKind::Fig9Paper {
            let pool = WorkStealing::new();
            pool.run(n, &task, &mut |i, out| cells[i] = Some(out));
            pool.thread_count(n)
        } else {
            Serial.run(n, &task, &mut |i, out| cells[i] = Some(out));
            1
        };
        let wall_s = start.elapsed().as_secs_f64();
        if let Some((t, trace)) = tracer {
            t.record(Span {
                id: rep_id,
                parent: 0,
                trace,
                name: "exp.grid",
                start_ns,
                end_ns: t.now(),
                attrs: vec![("cells", n as u64), ("threads", threads as u64)],
            });
        }
        Rep {
            wall_s,
            cells: cells
                .into_iter()
                .map(|c| c.expect("executor delivered every cell"))
                .collect(),
            threads,
        }
    }

    /// Cells of `rep` whose hash differs from the pins, or from
    /// `reference` when this seed has no pins: `(cell, got, expected)`.
    pub fn mismatches(&self, rep: &Rep, reference: &[u64]) -> Vec<(usize, u64, u64)> {
        let expected = self.pins.as_deref().unwrap_or(reference);
        rep.hashes()
            .into_iter()
            .zip(expected)
            .enumerate()
            .filter(|(_, (got, want))| got != *want)
            .map(|(i, (got, want))| (i, got, *want))
            .collect()
    }

    /// The Fig. 9 headline of `rep`, computed exactly as the `fig9` bin
    /// does: Cohmeleon's geometric-mean speedup and mean off-chip
    /// reduction against the five fixed policies, every cell normalised
    /// to `fixed-non-coh-dma` of its SoC. `None` unless the grid holds
    /// the whole suite.
    pub fn headline(&self, rep: &Rep) -> Option<(f64, f64)> {
        let policies = PolicyKind::ALL.len();
        let suite = self.plain.policies().iter().map(|p| p.as_kind());
        if !suite.eq(PolicyKind::ALL.map(Some)) {
            return None;
        }
        let column = |k: PolicyKind| PolicyKind::ALL.iter().position(|&p| p == k).expect("suite");
        let mut speedups = Vec::new();
        let mut reductions = Vec::new();
        for row in rep.cells.chunks(policies) {
            let base = &row[column(PolicyKind::FixedNonCoh)].result;
            let norm = |k: PolicyKind| {
                let o = summarize(row[column(k)].result.clone(), base);
                (o.geo_time, o.geo_mem)
            };
            let (coh_time, coh_mem) = norm(PolicyKind::Cohmeleon);
            for fixed in PolicyKind::FIXED {
                let (time, mem) = norm(fixed);
                speedups.push(time / coh_time.max(1e-12));
                if mem > 1e-12 {
                    reductions.push(1.0 - (coh_mem / mem).min(1.0));
                }
            }
        }
        let speedup = geometric_mean(speedups).unwrap_or(1.0);
        let reduction = if reductions.is_empty() {
            0.0
        } else {
            reductions.iter().sum::<f64>() / reductions.len() as f64
        };
        Some((speedup, reduction))
    }
}

fn cell_out(result: AppResult, cell_s: f64, policy: PolicyTotals) -> CellOut {
    CellOut {
        hash: result.structural_hash(),
        counts: Counts::of(&result),
        cell_s,
        policy,
        result,
    }
}
