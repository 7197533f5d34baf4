//! One benchmark run: set-up, the timed repetitions, the output checks
//! and the metrics, for each workload.

use std::path::PathBuf;
use std::time::Instant;

use cohmeleon_exp::{canonical_jsonl, Serial, WorkStealing};

use crate::fleet;
use crate::report::Outcome;
use crate::serve;
use crate::sim::{Rep, SimJob, SimKind, PAPER_OFFCHIP_REDUCTION, PAPER_SPEEDUP};
use crate::stats::{median, peak_rss_mib};
use crate::trace::Tracer;

/// Set-up runs at least this many times; `setup_s` is the median. It
/// runs once before the timed repetitions and again after each, so its
/// samples span the run like the repetitions do: a burst of samples at
/// one moment mostly measures that moment's host noise.
pub const SETUP_REPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 9 grid at paper scale.
    Fig9Paper,
    /// The event-bound regime (SoC0-irregular, non-coherent DMA + manual).
    IrregularDma,
    /// The tag-walk-bound regime (SoC0-streaming, coherent fixed modes).
    StreamingCoherent,
    /// Many millisecond-scale cells through a queen and a loopback worker.
    FleetTinyCells,
    /// Batched `DECIDE` requests against a frozen snapshot.
    ServeDecide,
}

impl Workload {
    /// Every workload with its command-line name.
    pub const ALL: [(&'static str, Workload); 5] = [
        ("fig9-paper", Workload::Fig9Paper),
        ("irregular-dma", Workload::IrregularDma),
        ("streaming-coherent", Workload::StreamingCoherent),
        ("fleet-tiny-cells", Workload::FleetTinyCells),
        ("serve-decide", Workload::ServeDecide),
    ];

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, w)| *w)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("", |(n, _)| n)
    }
}

/// How to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload input seed.
    pub seed: u64,
    /// Measure for at least this long (at least one repetition; traced
    /// runs at least one untraced and one traced repetition).
    pub seconds: f64,
    /// Trace run: alternate untraced and traced repetitions and report
    /// the per-layer metrics.
    pub trace: bool,
    /// Where run files (fleet checkpoint) go.
    pub out_dir: PathBuf,
}

/// Runs `workload` once. `Err` is a failure to run at all (no result is
/// printed); a wrong output is counted in [`Outcome::failed`].
pub fn run(workload: Workload, cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    match workload {
        Workload::Fig9Paper => run_sim(SimKind::Fig9Paper, cfg, tracer),
        Workload::IrregularDma => run_sim(SimKind::IrregularDma, cfg, tracer),
        Workload::StreamingCoherent => run_sim(SimKind::StreamingCoherent, cfg, tracer),
        Workload::FleetTinyCells => run_fleet(cfg, tracer),
        Workload::ServeDecide => run_serve(cfg, tracer),
    }
}

/// Set-up timings: the build the run uses, and a rebuild after every
/// timed repetition (see [`SETUP_REPS`]).
#[derive(Debug, Default)]
struct SetUp {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    /// Peak RSS after the first repetition, read before the first
    /// rebuild: rebuilding churns the allocator, which would move the
    /// peak by a few MiB from run to run without the workload changing.
    peak_rss_mib: Option<f64>,
}

impl SetUp {
    /// Builds once, timed; returns the build.
    fn time<T>(
        &mut self,
        build: &mut impl FnMut() -> Result<(T, f64), String>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let (job, generate) = build()?;
        self.setup_s.push(start.elapsed().as_secs_f64());
        self.generate_s.push(generate);
        Ok(job)
    }

    /// Rebuilds once after a repetition.
    fn sample<T>(
        &mut self,
        build: &mut impl FnMut() -> Result<(T, f64), String>,
    ) -> Result<(), String> {
        self.peak_rss_mib.get_or_insert_with(peak_rss_mib);
        self.time(build).map(drop)
    }

    /// Rebuilds until there are [`SETUP_REPS`] samples.
    fn top_up<T>(
        &mut self,
        build: &mut impl FnMut() -> Result<(T, f64), String>,
    ) -> Result<(), String> {
        while self.setup_s.len() < SETUP_REPS {
            self.time(build)?;
        }
        Ok(())
    }
}

/// Calls `rep(i, traced)` for i = 0, 1, … until `seconds` have passed.
/// Untraced runs do at least one rep; trace runs alternate untraced and
/// traced reps, at least one of each, starting untraced.
fn repeat(
    cfg: &RunConfig,
    mut rep: impl FnMut(usize, bool) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let min = if cfg.trace { 2 } else { 1 };
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < cfg.seconds {
        rep(i, cfg.trace && i % 2 == 1)?;
        i += 1;
    }
    Ok(())
}

/// The metrics every workload shares.
fn common(out: &mut Outcome, walls: Vec<f64>, ops_per_s: Vec<f64>, setup: SetUp) {
    out.median_of("wall_s", walls);
    out.median_of("setup_s", setup.setup_s);
    out.set(
        "peak_rss_mib",
        setup.peak_rss_mib.unwrap_or_else(peak_rss_mib),
    );
    out.median_of("ops_per_s", ops_per_s);
    out.median_of("workloads.generate_s", setup.generate_s);
}

/// Tracing cost: traced over untraced median rep wall, minus one.
fn trace_overhead(out: &mut Outcome, traced_walls: &[f64]) {
    if let Some(untraced) = out.get("wall_s").filter(|w| *w > 0.0) {
        if !traced_walls.is_empty() {
            out.set("trace.overhead", median(traced_walls) / untraced - 1.0);
        }
    }
}

fn run_sim(kind: SimKind, cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let mut build = || Ok(SimJob::build(kind, cfg.seed));
    let mut setup = SetUp::default();
    let job = setup.time(&mut build)?;
    let mut out = Outcome::default();
    let mut reference: Option<Rep> = None;
    let mut traced: Vec<Rep> = Vec::new();
    let (mut walls, mut ops) = (Vec::new(), Vec::new());
    repeat(cfg, |i, is_traced| {
        let rep = job.run(is_traced.then_some((tracer, i as u64)));
        let expected = reference.as_ref().map_or_else(|| rep.hashes(), Rep::hashes);
        let wrong = job.mismatches(&rep, &expected);
        if !wrong.is_empty() && out.failed == 0 {
            for (cell, got, want) in &wrong {
                out.notes.push(format!(
                    "check: cell {cell} hash {got:#018x}, expected {want:#018x}"
                ));
            }
        }
        let mut bad = wrong.len() as u64;
        if let (true, Some(r)) = (is_traced, &reference) {
            // Non-perturbation: the traced cell must count exactly what
            // the untraced one did, not only hash the same.
            bad += rep
                .cells
                .iter()
                .zip(&r.cells)
                .filter(|(t, u)| t.counts != u.counts && t.hash == u.hash)
                .count() as u64;
        }
        out.check(rep.cells.len() as u64, bad);
        if is_traced {
            traced.push(rep);
        } else {
            walls.push(rep.wall_s);
            ops.push(match kind {
                SimKind::Fig9Paper => rep.cells.len() as f64 / rep.wall_s,
                _ => rep.counts().events as f64 / rep.wall_s,
            });
            reference.get_or_insert(rep);
        }
        setup.sample(&mut build)?;
        Ok(())
    })?;
    setup.top_up(&mut build)?;
    common(&mut out, walls, ops, setup);
    let reference = reference.expect("at least one untraced rep");
    if let Some((speedup, reduction)) = job.headline(&reference) {
        out.set("paper.speedup_gap", (speedup - PAPER_SPEEDUP).abs());
        out.set(
            "paper.offchip_gap",
            (reduction - PAPER_OFFCHIP_REDUCTION).abs(),
        );
        out.notes.push(format!(
            "paper: fig9 speedup {speedup:.2}x vs paper {PAPER_SPEEDUP}x; off-chip reduction {:.1}% vs paper {:.0}% \
             (one seed, the paper's two headline numbers only; the repository holds no hardware reference data)",
            reduction * 100.0,
            PAPER_OFFCHIP_REDUCTION * 100.0
        ));
    }
    if job.pins.is_none() {
        out.notes.push(format!(
            "check: seed {} has no pinned hashes; reps were checked against the first rep",
            cfg.seed
        ));
    }
    if let Some(first) = traced.first() {
        sim_layers(&mut out, first, &traced);
    }
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    trace_overhead(&mut out, &traced_walls);
    Ok(out)
}

/// Per-layer metrics of the traced simulation reps: counts from the
/// first (they repeat exactly), host times as medians over reps.
fn sim_layers(out: &mut Outcome, first: &Rep, traced: &[Rep]) {
    let c = first.counts();
    let t = c.tag;
    for (name, value) in [
        ("cache.probes", t.probes),
        ("cache.scans", t.scans),
        ("cache.hits", t.hits),
        ("cache.fills", t.fills),
        ("cache.evictions", t.evictions),
        ("cache.invalidations", t.invalidations),
        ("cache.fused_probes", t.fused_probes),
        ("cache.hint_hits", t.hint_hits),
        ("cache.empty_skips", t.empty_skips),
        ("cache.stripe_probes", t.stripe_probes),
        ("sim.events", c.events),
        ("sim.cycles", c.cycles),
        ("soc.invocations", c.invocations),
        ("mem.offchip", c.offchip),
        ("mem.true_dram", c.true_dram),
        ("exp.cells", first.cells.len() as u64),
    ] {
        out.set(name, value as f64);
    }
    out.set(
        "cache.scans_per_event",
        t.scans as f64 / c.events.max(1) as f64,
    );
    out.set("cache.hit_ratio", t.hits as f64 / t.probes.max(1) as f64);
    let policy = first.policy();
    out.set("core.decide.calls", policy.decide_calls as f64);
    out.set("core.observe.calls", policy.observe_calls as f64);

    let per_rep = |f: &dyn Fn(&Rep) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    let cell_sum = |r: &Rep| r.cells.iter().map(|c| c.cell_s).sum::<f64>();
    let policy_s = |r: &Rep| r.policy().total_ns() as f64 * 1e-9;
    let cell_times = |r: &Rep| r.cells.iter().map(|c| c.cell_s).collect::<Vec<f64>>();
    out.median_of("soc.self_s", per_rep(&|r| cell_sum(r) - policy_s(r)));
    out.median_of(
        "soc.ns_per_event",
        per_rep(&|r| (cell_sum(r) - policy_s(r)) * 1e9 / c.events.max(1) as f64),
    );
    out.median_of(
        "core.decide_s",
        per_rep(&|r| r.policy().decide_ns as f64 * 1e-9),
    );
    out.median_of(
        "core.observe_s",
        per_rep(&|r| r.policy().observe_ns as f64 * 1e-9),
    );
    out.median_of("core.share", per_rep(&|r| policy_s(r) / cell_sum(r)));
    out.median_of("exp.cell_s.p50", per_rep(&|r| median(&cell_times(r))));
    out.median_of(
        "exp.cell_s.max",
        per_rep(&|r| cell_times(r).into_iter().fold(0.0, f64::max)),
    );
    out.median_of(
        "exp.busy_share",
        per_rep(&|r| cell_sum(r) / (r.threads as f64 * r.wall_s)),
    );
}

fn run_fleet(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let mut build = || Ok(fleet::grid(cfg.seed));
    let mut setup = SetUp::default();
    let grid = setup.time(&mut build)?;
    // The reference every sweep must reproduce byte for byte.
    let records = grid.collect_records(&Serial);
    let canon = canonical_jsonl(&records);
    let cells = grid.num_cells() as u64;
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let path = fleet::checkpoint_path(&cfg.out_dir);
    let mut out = Outcome::default();
    let (mut walls, mut ops, mut traced_walls, mut direct_walls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut traced_sweep = None;
    repeat(cfg, |i, is_traced| {
        let sweep = fleet::sweep(&grid, &path, is_traced.then_some((tracer, i as u64)))?;
        out.check(cells, fleet::differing_lines(&sweep.bytes, &canon));
        if is_traced {
            traced_walls.push(sweep.wall_s);
            traced_sweep.get_or_insert(sweep);
            // The same grid run directly on as many threads as there are
            // workers, for the per-cell dispatch overhead the fleet adds.
            let start = Instant::now();
            let direct = canonical_jsonl(&grid.collect_records(&WorkStealing::new()));
            direct_walls.push(start.elapsed().as_secs_f64());
            out.check(cells, fleet::differing_lines(&direct, &canon));
        } else {
            walls.push(sweep.wall_s);
            ops.push(cells as f64 / sweep.wall_s);
        }
        setup.sample(&mut build)?;
        Ok(())
    })?;
    setup.top_up(&mut build)?;
    common(&mut out, walls, ops, setup);
    if let Some(sweep) = traced_sweep {
        let fleet_wall = out.get("wall_s").unwrap_or(0.0);
        out.set(
            "fleet.overhead_ms_per_cell",
            (fleet_wall - median(&direct_walls)) * 1e3 / cells as f64,
        );
        out.set(
            "fleet.leases",
            sweep.workers.iter().map(|w| w.leases).sum::<usize>() as f64,
        );
        out.set("fleet.speculative", sweep.queen.speculative as f64);
        out.set("fleet.duplicates", sweep.queen.duplicates as f64);
        out.set("exp.cells", cells as f64);
        out.set(
            "sim.cycles",
            records.iter().map(|r| r.total_cycles).sum::<u64>() as f64,
        );
        out.set(
            "soc.invocations",
            records.iter().map(|r| r.invocations).sum::<u64>() as f64,
        );
        out.set(
            "mem.offchip",
            records.iter().map(|r| r.total_offchip).sum::<u64>() as f64,
        );
    }
    trace_overhead(&mut out, &traced_walls);
    Ok(out)
}

fn run_serve(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let mut build = || serve::snapshot(cfg.seed);
    let mut setup = SetUp::default();
    let snapshot = setup.time(&mut build)?;
    let mut out = Outcome::default();
    let (mut walls, mut ops, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50s, mut p99s, mut mismatches, mut conn_errors, mut batches) =
        (Vec::new(), Vec::new(), 0, 0, 0);
    let server_tracer = cfg.trace.then_some(tracer);
    let (passes, server) = serve::with_server(&snapshot, cfg.seed, server_tracer, |pass| {
        repeat(cfg, |i, is_traced| {
            let report = pass(is_traced.then_some((tracer, i as u64)))?;
            out.check(report.decisions, serve::failures(&report));
            mismatches += report.mismatches + report.unverified;
            conn_errors += report.conn_errors;
            let wall = report.elapsed.as_secs_f64();
            if is_traced {
                traced_walls.push(wall);
                batches = report.batches;
            } else {
                walls.push(wall);
                ops.push(report.throughput());
                p50s.push(report.histogram.p50() as f64 * 1e-3);
                p99s.push(report.histogram.p99() as f64 * 1e-3);
            }
            setup.sample(&mut build)?;
            Ok(())
        })
    })?;
    passes?;
    out.check(0, server.errors);
    setup.top_up(&mut build)?;
    common(&mut out, walls, ops, setup);
    out.median_of("serve.batch_p50_us", p50s);
    out.median_of("serve.batch_p99_us", p99s);
    if cfg.trace {
        out.set("serve.batches", batches as f64);
        out.set("serve.errors", server.errors as f64);
        out.set("serve.mismatches", mismatches as f64);
        out.set("serve.conn_errors", conn_errors as f64);
    }
    out.notes.push(format!(
        "serve: closed loop, {} client(s) x {} batches of {} queries per pass",
        serve::clients(),
        serve::BATCHES_PER_PASS,
        serve::BATCH
    ));
    trace_overhead(&mut out, &traced_walls);
    Ok(out)
}
