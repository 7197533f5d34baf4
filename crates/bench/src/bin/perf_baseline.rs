//! `perf_baseline` — the tracked simulator-throughput benchmark.
//!
//! Runs fixed, fully deterministic suites through the experiment grid,
//! reports wall time and simulation throughput, and records the numbers in
//! `BENCH_hotpath.json` so every later PR is measured against the recorded
//! baseline. Two regimes are tracked:
//!
//! * `soc1 × quick` — small datasets, cache-resident (the original suite;
//!   its recorded baseline predates the experiment grid and is preserved).
//! * `soc6 × large` — the computer-vision SoC under Large/Extra-Large
//!   workloads, cache-thrashing (recorded as `soc6_scale`).
//!
//! Both tracked suites run on the [`Serial`] executor so wall times stay
//! comparable across machines and checkouts; a third measurement runs one
//! multi-seed grid under `Serial` and `WorkStealing`, asserts the per-cell
//! results are bit-identical, and records the parallel speedup
//! (`sweep_executor`). A fourth runs the same grid through the fleet
//! coordinator (in-process queen + one loopback worker), verifies the
//! checkpoint file byte-identical to Serial's canonical stream, and
//! records the per-cell dispatch overhead (`fleet_dispatch`) — everything
//! the fleet adds on top of the raw simulation: connection set-up,
//! protocol round-trips, record validation and the fsync-per-record
//! checkpoint. No fleet thread waits on a timer, so none of it is sleep
//! granularity (see PERFORMANCE.md for methodology and for the recorded
//! history). A fifth drives a loopback decision server with concurrent
//! batched clients, verifies every response against local frozen
//! dispatch, and records the serving throughput and batch round-trip
//! latency percentiles (`serve_dispatch`).
//!
//! ```text
//! perf_baseline [--smoke] [--out FILE] [--reps N]
//!
//!   --smoke   correctness-only: run a reduced suite, assert determinism,
//!             Serial/WorkStealing bit-equality and fleet-checkpoint
//!             bit-equality, write nothing (unless --out is given). For
//!             CI.
//!   --out     output JSON path (default BENCH_hotpath.json)
//!   --reps    timed repetitions; the best (fastest) rep is recorded
//!             (default 3)
//! ```
//!
//! Each tracked entry keeps `baseline` (the first measurement ever
//! recorded on this machine/checkout — preserved across runs) and
//! `current` (the latest measurement). The speedup quoted is
//! `baseline.wall_s / current.wall_s`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use cohmeleon_bench::policies::PolicyKind;
use cohmeleon_bench::tracked::{
    soc6_params, suite_grid, sweep_grid, SEED, SUITE, TRAIN_ITERATIONS,
};
use cohmeleon_cache::{set_default_walk_mode, TagStats, WalkMode};
use cohmeleon_core::agent::AgentBuilder;
use cohmeleon_core::policy::{FixedPolicy, Policy};
use cohmeleon_core::router::{AgentScope, PolicyRouter};
use cohmeleon_core::snapshot::{ArchParams, SystemSnapshot};
use cohmeleon_core::{
    AccelInstanceId, AccelKindId, CoherenceMode, FrozenSnapshot, ModeSet, PartitionId, State,
};
use cohmeleon_exp::{
    canonical_jsonl, CellResult, Executor, Experiment, PolicySpec, Serial, SweepGrid,
    WorkStealing,
};
use cohmeleon_fleet::{run_queen, run_worker, QueenOptions, WorkerOptions};
use cohmeleon_serve::{run_load, run_server, LoadOptions, LoadReport, ServeClient, ServeOptions};
use cohmeleon_soc::config::{soc1, soc6};
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

/// The committed baseline record smoke mode guards against (regression
/// and bit-identity checks); distinct from `--out`, which smoke only
/// writes.
const BASELINE_FILE: &str = "BENCH_hotpath.json";

/// Logical CPUs visible to this process, recorded alongside every
/// measurement: wall-clock numbers are only comparable between runs that
/// saw the same parallelism (and the `sweep_*` speedups are bounded by
/// it).
fn cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

struct Args {
    smoke: bool,
    /// `Some` iff `--out` was passed explicitly.
    out_flag: Option<String>,
    reps: usize,
}

impl Args {
    fn out(&self) -> &str {
        self.out_flag.as_deref().unwrap_or("BENCH_hotpath.json")
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        out_flag: None,
        reps: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out_flag = Some(it.next().ok_or("--out needs a path")?),
            "--reps" => {
                args.reps = it
                    .next()
                    .ok_or("--reps needs a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    Ok(args)
}

/// One measured run of `grid` under `executor`. Returns (wall seconds,
/// simulation events, invocations, total simulated cycles) — everything
/// but the wall time is deterministic.
fn run_grid<E: Executor>(grid: &SweepGrid, executor: &E) -> (f64, u64, u64, u64) {
    let start = Instant::now();
    let mut events = 0u64;
    let mut invocations = 0u64;
    let mut sim_cycles = 0u64;
    grid.execute(executor, &mut |result: CellResult| {
        events += result.result.total_events();
        invocations += result.result.invocations().count() as u64;
        sim_cycles += result.result.total_duration();
    });
    (start.elapsed().as_secs_f64(), events, invocations, sim_cycles)
}

/// The `router_dispatch` micro-benchmark: `DISPATCH_ROUNDS` decide +
/// observe rounds spread over a `PerInstance` router's sub-agents.
/// Fixed-mode sub-agents isolate the *dispatch* cost (key derivation +
/// agent lookup + forwarding) from agent internals; the allocation-free
/// pin for the same path is `crates/core/tests/router_alloc.rs`.
const DISPATCH_INSTANCES: u16 = 12;
const DISPATCH_ROUNDS: u64 = 200_000;

fn dispatch_router() -> PolicyRouter {
    let mut router = PolicyRouter::new(AgentScope::PerInstance, 0, |_, _| {
        Box::new(FixedPolicy::new(CoherenceMode::CohDma))
    });
    let topology: Vec<(AccelInstanceId, AccelKindId)> = (0..DISPATCH_INSTANCES)
        .map(|i| (AccelInstanceId(i), AccelKindId(i % 3)))
        .collect();
    router.bind_topology(&topology);
    router
}

/// One timed run: returns (wall seconds, decides performed).
fn run_router_dispatch() -> (f64, u64) {
    let mut router = dispatch_router();
    let snapshot = SystemSnapshot::new(
        ArchParams::new(32 * 1024, 256 * 1024, 2),
        vec![],
        64 * 1024,
        vec![PartitionId(0)],
    );
    let measurement = cohmeleon_core::reward::InvocationMeasurement {
        total_cycles: 10_000,
        accel_active_cycles: 5_000,
        accel_comm_cycles: 2_500,
        offchip_accesses: 100.0,
        footprint_bytes: 4096,
    };
    let start = Instant::now();
    let mut check = 0usize;
    for round in 0..DISPATCH_ROUNDS {
        let i = (round % DISPATCH_INSTANCES as u64) as u16;
        let d = router.decide(&snapshot, ModeSet::all(), AccelInstanceId(i));
        check += d.mode.index();
        router.observe(AccelInstanceId(i), &d, &measurement);
    }
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(
        check,
        DISPATCH_ROUNDS as usize * CoherenceMode::CohDma.index(),
        "dispatch returned an unexpected mode"
    );
    (wall, DISPATCH_ROUNDS)
}

/// The `serve_dispatch` benchmark: N loopback clients batch-query a
/// decision server holding a frozen table, with every response re-checked
/// against local frozen dispatch (`verify`), so a recorded number is by
/// construction a *correct*-dispatch number. Batch round-trip latency
/// lands in the load generator's log-bucket histogram (p50/p99/p999).
const SERVE_CLIENTS: usize = 2;
const SERVE_BATCH: usize = 16;
const SERVE_BATCHES: usize = 400;

/// A deterministic full-coverage snapshot for the serve benchmark: the
/// argmax pattern varies across all 243 states so dispatch is not a
/// constant-answer fast path.
fn serve_snapshot() -> FrozenSnapshot {
    let mut text = String::from("# cohmeleon q-table v1\n");
    for s in 0..State::COUNT {
        let _ = write!(text, "{s}");
        for a in 0..4usize {
            let v = ((s * 31 + a * 7) % 13) as f64 - 6.0;
            let _ = write!(text, "\t{v}");
        }
        text.push('\n');
    }
    FrozenSnapshot::parse(&text, State::COUNT).expect("synthetic q-table parses")
}

/// One serve run: spins a server on a loopback port, drives
/// `SERVE_CLIENTS` concurrent clients for `batches` verified batches
/// each, shuts the server down. Returns the load-side report; the caller
/// must refuse to record if `mismatches` or `unverified` is non-zero.
fn run_serve_dispatch(batches: usize) -> Result<LoadReport, String> {
    let snapshot = serve_snapshot();
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let options = LoadOptions {
        clients: SERVE_CLIENTS,
        batches,
        batch_size: SERVE_BATCH,
        verify: vec![snapshot.clone()],
        ..LoadOptions::default()
    };
    std::thread::scope(|scope| {
        let server =
            scope.spawn(|| run_server(listener, snapshot, &ServeOptions::default()));
        let load = run_load(&addr, &options).map_err(|e| format!("load: {e}"));
        let shutdown = ServeClient::connect(&addr, "bench-admin")
            .and_then(|c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"));
        let report = load?;
        shutdown?;
        server
            .join()
            .expect("server thread")
            .map_err(|e| format!("server: {e}"))?;
        Ok(report)
    })
}

/// The soc1 × quick suite with Cohmeleon routed through a Global
/// `PolicyRouter` instead of running bare — must be bit-identical to
/// [`suite_grid`]'s cohmeleon cells (the router forwards every call).
fn routed_suite_grid(params: &GeneratorParams, train_iterations: usize) -> SweepGrid {
    let config = soc1();
    let train = generate_app(&config, params, 1);
    let test = generate_app(&config, params, 2);
    Experiment::train_test(config, train, test)
        .policy(PolicySpec::custom("cohmeleon", |_config, iters, seed| {
            Box::new(AgentBuilder::paper(iters, seed).label("cohmeleon").build_routed())
        }))
        .seed(SEED)
        .train_iterations(train_iterations)
        .build()
        .expect("routed suite is non-empty")
}

/// The identity gate for agent orchestration: the Global-routed cohmeleon
/// cell must hash exactly like the bare agent's cell in the tracked suite
/// (same params, same seed) through the full engine.
fn routed_matches_bare(params: &GeneratorParams, train_iterations: usize) -> bool {
    let bare = cell_hashes(&suite_grid(soc1(), params, train_iterations), &Serial);
    let routed = cell_hashes(&routed_suite_grid(params, train_iterations), &Serial);
    let cohmeleon_index = SUITE
        .iter()
        .position(|k| *k == PolicyKind::Cohmeleon)
        .expect("suite contains cohmeleon");
    // The routed grid holds exactly the one cohmeleon cell.
    routed.len() == 1 && routed[0] == bare[cohmeleon_index]
}

/// One fleet run of `grid`: an in-process queen and one loopback worker
/// thread, fresh checkpoint. Returns the wall time and the finished
/// checkpoint's bytes (the caller verifies them against Serial's
/// canonical stream before recording anything).
fn run_fleet_dispatch(grid: &SweepGrid) -> Result<(f64, String), String> {
    let path = std::env::temp_dir().join(format!(
        "cohmeleon-perf-fleet-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let options = QueenOptions::new("tracked", false);
    let start = Instant::now();
    let report = std::thread::scope(|scope| {
        let queen = scope.spawn(|| run_queen(grid, listener, &path, &options));
        let worker = scope.spawn(|| {
            run_worker(&addr, |_, _| Ok(grid.clone()), &WorkerOptions::new("local"))
        });
        worker
            .join()
            .expect("worker thread")
            .map_err(|e| format!("worker: {e}"))?;
        queen
            .join()
            .expect("queen thread")
            .map_err(|e| format!("queen: {e}"))
    })?;
    let wall = start.elapsed().as_secs_f64();
    if !report.complete {
        return Err("fleet run did not complete the grid".into());
    }
    let bytes = std::fs::read_to_string(&path).map_err(|e| format!("read checkpoint: {e}"))?;
    let _ = std::fs::remove_file(&path);
    Ok((wall, bytes))
}

/// Runs the tracked soc6-scale suite under `mode` and returns the summed
/// tag-walk counters plus the per-cell structural hashes. The counters
/// are deterministic op counts (associative set traversals, probes, hint
/// hits…), so the `tag_walk` section's quoted reduction is
/// machine-independent — unlike wall time. The process-wide default walk
/// mode is restored to `Run` afterwards; `perf_baseline` runs its suites
/// sequentially, so flipping it is safe here.
fn run_tag_walk(mode: WalkMode) -> (TagStats, Vec<u64>) {
    set_default_walk_mode(mode);
    let grid = suite_grid(soc6(), &soc6_params(), TRAIN_ITERATIONS);
    let mut stats = TagStats::default();
    let mut hashes = vec![0u64; grid.num_cells()];
    grid.execute(&Serial, &mut |result: CellResult| {
        stats.merge(&result.result.tag_walk);
        hashes[grid.cell_index(result.cell)] = result.result.structural_hash();
    });
    set_default_walk_mode(WalkMode::Run);
    (stats, hashes)
}

fn tag_walk_json(reference: &TagStats, run: &TagStats) -> String {
    format!(
        "{{\"reference_scans\": {}, \"run_scans\": {}, \"scan_ratio\": {:.2}, \
         \"reference_probes\": {}, \"run_probes\": {}, \"fused_probes\": {}, \
         \"hint_hits\": {}, \"empty_skips\": {}, \"stripe_probes\": {}, \
         \"stripe_members\": {}}}",
        reference.scans,
        run.scans,
        reference.scans as f64 / run.scans.max(1) as f64,
        reference.probes,
        run.probes,
        run.fused_probes,
        run.hint_hits,
        run.empty_skips,
        run.stripe_probes,
        run.stripe_members,
    )
}

/// Per-cell structural hashes of a grid run, indexed densely.
fn cell_hashes<E: Executor>(grid: &SweepGrid, executor: &E) -> Vec<u64> {
    let mut hashes = vec![0u64; grid.num_cells()];
    grid.execute(executor, &mut |result: CellResult| {
        hashes[grid.cell_index(result.cell)] = result.result.structural_hash();
    });
    hashes
}

fn measurement_json(wall_s: f64, events: u64, invocations: u64, sim_cycles: u64) -> String {
    // Microsecond resolution: the suite runs in single-digit milliseconds,
    // so coarser rounding would dominate the recorded speedups.
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"wall_s\": {wall_s:.6}, \"sim_events\": {events}, \"events_per_s\": {:.0}, \
         \"invocations\": {invocations}, \"sim_cycles\": {sim_cycles}, \
         \"sim_cycles_per_s\": {:.3e}, \"cpus\": {}}}",
        events as f64 / wall_s,
        sim_cycles as f64 / wall_s,
        cpus(),
    );
    s
}

/// Times `reps` serial runs of `grid` and returns the fastest.
fn best_of(grid: &SweepGrid, reps: usize, label: &str) -> (f64, u64, u64, u64) {
    let mut best: Option<(f64, u64, u64, u64)> = None;
    for rep in 0..reps {
        let m = run_grid(grid, &Serial);
        println!(
            "  {label} rep {}: {:.3} s wall, {} events, {:.0} events/s",
            rep + 1,
            m.0,
            m.1,
            m.1 as f64 / m.0
        );
        if best.is_none_or(|b| m.0 < b.0) {
            best = Some(m);
        }
    }
    best.expect("at least one rep")
}

/// Extracts the `{...}` value of a `"key":` from a JSON report (brace
/// matching; no JSON library available offline).
fn extract_object<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let open = json[at..].find('{')? + at;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[open..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Pulls a numeric field out of a flat JSON object.
fn extract_field(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let at = json.find(&key)? + key.len();
    let rest = json[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn smoke(args: &Args) -> ExitCode {
    // Correctness only: a reduced suite, run twice, must be deterministic,
    // complete, and bit-identical between Serial and WorkStealing. No
    // timing assertions (CI machines vary); the point is that the harness
    // can never bit-rot.
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let grid = suite_grid(soc1(), &params, 1);
    let (_, e1, i1, c1) = run_grid(&grid, &Serial);
    let (_, e2, i2, c2) = run_grid(&grid, &Serial);
    if (e1, i1, c1) != (e2, i2, c2) {
        eprintln!(
            "perf_baseline --smoke: nondeterministic suite: {e1}/{i1}/{c1} vs {e2}/{i2}/{c2}"
        );
        return ExitCode::FAILURE;
    }
    if i1 == 0 || e1 == 0 {
        eprintln!("perf_baseline --smoke: suite ran no work (events={e1}, invocations={i1})");
        return ExitCode::FAILURE;
    }
    if cell_hashes(&grid, &Serial) != cell_hashes(&grid, &WorkStealing::new()) {
        eprintln!("perf_baseline --smoke: WorkStealing results differ from Serial");
        return ExitCode::FAILURE;
    }
    // The fleet path (queen + loopback worker) must land the identical
    // bytes the Serial run canonicalises to — dispatch is pure plumbing.
    let canon = canonical_jsonl(&grid.collect_records(&Serial));
    match run_fleet_dispatch(&grid) {
        Ok((_wall, bytes)) if bytes == canon => {}
        Ok(_) => {
            eprintln!("perf_baseline --smoke: fleet checkpoint is not bit-identical to Serial");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("perf_baseline --smoke: fleet run failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Agent orchestration must be invisible in the Global configuration:
    // cohmeleon routed through a Global `PolicyRouter` reproduces the
    // bare agent's cell hash through the full engine.
    if !routed_matches_bare(&params, 1) {
        eprintln!("perf_baseline --smoke: Global-routed cohmeleon differs from the bare agent");
        return ExitCode::FAILURE;
    }
    // And the dispatch micro-benchmark itself must run (its determinism
    // assertion is inside).
    let (_, dispatch_decides) = run_router_dispatch();

    // The serving path: a real loopback server, concurrent clients, every
    // response recomputed locally against the same frozen table.
    match run_serve_dispatch(25) {
        Ok(r) if r.mismatches == 0 && r.unverified == 0 => {
            println!(
                "  serve: {} verified decisions over {} loopback clients",
                r.decisions, SERVE_CLIENTS
            );
        }
        Ok(r) => {
            eprintln!(
                "perf_baseline --smoke: serve dispatch diverged from local frozen dispatch \
                 ({} mismatches, {} unverified)",
                r.mismatches, r.unverified
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("perf_baseline --smoke: serve run failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Tracked soc6-scale suite (the cache-thrashing regime): deterministic
    // counters must reproduce the committed baseline bit for bit, and the
    // measured throughput must stay within 10% of it. The throughput
    // guard is wall-clock and therefore only meaningful on the machine
    // that recorded the baseline — set COHMELEON_SKIP_PERF_GUARD=1 to
    // skip it (the bit-identity check always runs).
    let grid6 = suite_grid(soc6(), &soc6_params(), TRAIN_ITERATIONS);
    let mut wall6 = f64::MAX;
    let mut pins6 = (0u64, 0u64, 0u64);
    for rep in 0..3 {
        let (w, e, i, c) = run_grid(&grid6, &Serial);
        if rep > 0 && pins6 != (e, i, c) {
            eprintln!(
                "perf_baseline --smoke: nondeterministic soc6 suite: \
                 {:?} vs {:?}",
                pins6,
                (e, i, c)
            );
            return ExitCode::FAILURE;
        }
        wall6 = wall6.min(w);
        pins6 = (e, i, c);
    }
    match std::fs::read_to_string(BASELINE_FILE) {
        Ok(json) => {
            let Some(baseline6) = extract_object(&json, "soc6_scale")
                .and_then(|sect| extract_object(sect, "baseline"))
                .map(str::to_owned)
            else {
                eprintln!(
                    "perf_baseline --smoke: {BASELINE_FILE} has no soc6_scale baseline — \
                     run the full benchmark once to record it"
                );
                return ExitCode::FAILURE;
            };
            let pinned = |field: &str| extract_field(&baseline6, field).map(|v| v as u64);
            let expected = (
                pinned("sim_events").unwrap_or(0),
                pinned("invocations").unwrap_or(0),
                pinned("sim_cycles").unwrap_or(0),
            );
            if pins6 != expected {
                eprintln!(
                    "perf_baseline --smoke: soc6 suite diverged from the committed baseline: \
                     got {pins6:?}, expected {expected:?} (events, invocations, cycles) — \
                     modeled behaviour changed; regenerate {BASELINE_FILE} only for \
                     *intentional* model changes"
                );
                return ExitCode::FAILURE;
            }
            let guard_skipped = std::env::var_os("COHMELEON_SKIP_PERF_GUARD").is_some();
            let events_per_s = pins6.0 as f64 / wall6;
            if let Some(base_eps) = extract_field(&baseline6, "events_per_s") {
                if !guard_skipped && events_per_s < 0.9 * base_eps {
                    eprintln!(
                        "perf_baseline --smoke: soc6 throughput regressed >10%: \
                         {events_per_s:.0} events/s vs baseline {base_eps:.0} \
                         (COHMELEON_SKIP_PERF_GUARD=1 skips this on machines that \
                         did not record the baseline)"
                    );
                    return ExitCode::FAILURE;
                }
                println!(
                    "  soc6-scale: {:.0} events/s vs baseline {base_eps:.0} ({})",
                    events_per_s,
                    if guard_skipped { "guard skipped" } else { "within guard" }
                );
            }
        }
        Err(_) => {
            // Fresh checkout without a recorded baseline: nothing to
            // compare against; determinism was still asserted above.
            println!("  soc6-scale: no {BASELINE_FILE}, baseline checks skipped");
        }
    }

    // Tag-walk op accounting: both walk modes must produce identical cell
    // hashes, the run-level walk must hold its ≥2x scan reduction on the
    // tracked suite, and the deterministic scan totals must reproduce the
    // committed tag_walk baseline bit for bit. These are op counts, not
    // wall time — always checked, even under COHMELEON_SKIP_PERF_GUARD.
    let (run_stats, run_hashes) = run_tag_walk(WalkMode::Run);
    let (reference_stats, reference_hashes) = run_tag_walk(WalkMode::PerLine);
    if run_hashes != reference_hashes {
        eprintln!("perf_baseline --smoke: Run walk cell hashes differ from the PerLine reference");
        return ExitCode::FAILURE;
    }
    if reference_stats.scans < 2 * run_stats.scans {
        eprintln!(
            "perf_baseline --smoke: run-level walk lost its 2x scan reduction: \
             {} reference scans vs {} run scans",
            reference_stats.scans, run_stats.scans
        );
        return ExitCode::FAILURE;
    }
    if let Ok(json) = std::fs::read_to_string(BASELINE_FILE) {
        if let Some(walk) = extract_object(&json, "tag_walk")
            .and_then(|sect| extract_object(sect, "baseline"))
        {
            let pinned = |field: &str| extract_field(walk, field).map(|v| v as u64);
            let expected = (
                pinned("reference_scans").unwrap_or(0),
                pinned("run_scans").unwrap_or(0),
            );
            if (reference_stats.scans, run_stats.scans) != expected {
                eprintln!(
                    "perf_baseline --smoke: tag-walk scan totals diverged from the committed \
                     baseline: got {:?}, expected {expected:?} (reference, run) — probe \
                     accounting changed; regenerate {BASELINE_FILE} only for *intentional* \
                     walk changes",
                    (reference_stats.scans, run_stats.scans)
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "  tag_walk: {} reference scans vs {} run scans ({:.2}x, hashes identical)",
        reference_stats.scans,
        run_stats.scans,
        reference_stats.scans as f64 / run_stats.scans.max(1) as f64
    );

    println!(
        "perf_baseline --smoke: ok ({e1} events, {i1} invocations, {c1} simulated cycles; \
         soc6 {}/{}/{}; executors bit-identical; \
         Global-routed cohmeleon bit-identical; {dispatch_decides} router dispatches)",
        pins6.0, pins6.1, pins6.2
    );
    println!("  fleet: queen + loopback worker checkpoint bit-identical to Serial");
    if let Some(out) = &args.out_flag {
        // Smoke runs make no timing claims, so no wall-time fields.
        let body = format!("{{\"sim_events\": {e1}, \"invocations\": {i1}, \"sim_cycles\": {c1}}}");
        if let Err(e) = std::fs::write(out, format!("{{\"smoke\": {body}}}\n")) {
            eprintln!("perf_baseline --smoke: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.smoke {
        return smoke(&args);
    }

    println!(
        "perf_baseline: {:?} suites, {} train iteration(s), {} rep(s)",
        SUITE, TRAIN_ITERATIONS, args.reps
    );

    // Tracked suite 1: soc1 × quick (cache-resident).
    let grid1 = suite_grid(soc1(), &GeneratorParams::quick(), TRAIN_ITERATIONS);
    let (wall_s, events, invocations, sim_cycles) = best_of(&grid1, args.reps, "soc1×quick");
    let current = measurement_json(wall_s, events, invocations, sim_cycles);

    // Tracked suite 2: soc6 × large (cache-thrashing).
    let grid6 = suite_grid(soc6(), &soc6_params(), TRAIN_ITERATIONS);
    let (wall6, events6, invocations6, cycles6) = best_of(&grid6, args.reps, "soc6×large");
    let current6 = measurement_json(wall6, events6, invocations6, cycles6);

    // Tag-walk op accounting on the same soc6 suite: one run per walk
    // mode, cell hashes verified identical before any number is recorded.
    // Scan totals are deterministic, so the recorded reduction is a claim
    // about work, not about this machine's clock.
    let (run_stats, run_hashes) = run_tag_walk(WalkMode::Run);
    let (reference_stats, reference_hashes) = run_tag_walk(WalkMode::PerLine);
    if run_hashes != reference_hashes {
        eprintln!(
            "perf_baseline: Run walk cell hashes differ from the PerLine reference — \
             refusing to record"
        );
        return ExitCode::FAILURE;
    }
    let current_walk = tag_walk_json(&reference_stats, &run_stats);
    println!(
        "  tag_walk: {} reference scans vs {} run scans → {:.2}x fewer \
         ({} fused probes, {} hint hits, {} empty-set skips; hashes identical)",
        reference_stats.scans,
        run_stats.scans,
        reference_stats.scans as f64 / run_stats.scans.max(1) as f64,
        run_stats.fused_probes,
        run_stats.hint_hits,
        run_stats.empty_skips
    );

    // Executor speedup: one multi-seed grid, Serial vs WorkStealing,
    // verified bit-identical per cell before any number is recorded.
    let sweep_grid = sweep_grid();
    // One serial pass serves both references: per-cell hashes against
    // WorkStealing here, the canonical record stream against the
    // fleet run below (Serial delivers in dense order, matching
    // cell_hashes' indexing).
    let sweep_serial_records = sweep_grid.collect_records(&Serial);
    let serial_hashes: Vec<u64> = sweep_serial_records
        .iter()
        .map(|r| r.structural_hash)
        .collect();
    if serial_hashes != cell_hashes(&sweep_grid, &WorkStealing::new()) {
        eprintln!("perf_baseline: WorkStealing results differ from Serial — refusing to record");
        return ExitCode::FAILURE;
    }
    let mut serial_wall = f64::MAX;
    let mut steal_wall = f64::MAX;
    for _ in 0..args.reps {
        serial_wall = serial_wall.min(run_grid(&sweep_grid, &Serial).0);
        steal_wall = steal_wall.min(run_grid(&sweep_grid, &WorkStealing::new()).0);
    }
    let threads = WorkStealing::new().thread_count(sweep_grid.num_cells());
    let sweep_speedup = serial_wall / steal_wall;
    let current_sweep = format!(
        "{{\"cells\": {}, \"threads\": {threads}, \"cpus\": {}, \
         \"serial_wall_s\": {serial_wall:.6}, \"worksteal_wall_s\": {steal_wall:.6}, \
         \"speedup\": {sweep_speedup:.2}}}",
        sweep_grid.num_cells(),
        cpus()
    );
    println!(
        "  sweep: {} cells, {threads} threads: serial {serial_wall:.3} s, \
         work-stealing {steal_wall:.3} s → {sweep_speedup:.2}x (bit-identical)",
        sweep_grid.num_cells()
    );

    // Fleet dispatch overhead on the same grid: an in-process queen and
    // one loopback worker vs the direct serial run. Everything above the
    // raw simulation — protocol round-trips, validation, the
    // fsync-per-record checkpoint — shows up as overhead per cell. The
    // checkpoint bytes are verified identical to Serial's canonical
    // stream before any number is recorded.
    let serial_canon = canonical_jsonl(&sweep_serial_records);
    let mut fleet_wall = f64::MAX;
    for _ in 0..args.reps {
        match run_fleet_dispatch(&sweep_grid) {
            Ok((wall, bytes)) if bytes == serial_canon => fleet_wall = fleet_wall.min(wall),
            Ok(_) => {
                eprintln!(
                    "perf_baseline: fleet checkpoint differs from Serial — refusing to record"
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perf_baseline: fleet run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let fleet_overhead_us =
        (fleet_wall - serial_wall).max(0.0) / sweep_grid.num_cells() as f64 * 1e6;
    let current_fleet = format!(
        "{{\"cells\": {}, \"serial_wall_s\": {serial_wall:.6}, \
         \"fleet_wall_s\": {fleet_wall:.6}, \"overhead_us_per_cell\": {fleet_overhead_us:.1}, \
         \"cpus\": {}}}",
        sweep_grid.num_cells(),
        cpus()
    );
    println!(
        "  fleet: queen + 1 loopback worker: {fleet_wall:.3} s vs serial {serial_wall:.3} s \
         → {fleet_overhead_us:.1} µs/cell dispatch overhead (bit-identical)"
    );

    // Router dispatch: PerInstance routing on the sense→decide path
    // (fixed-mode sub-agents isolate the dispatch cost; the matching
    // allocation-free pin is crates/core/tests/router_alloc.rs). Verified
    // bit-identical through the full engine before any number is
    // recorded: the Global-routed suite must hash like the bare suite.
    if !routed_matches_bare(&GeneratorParams::quick(), TRAIN_ITERATIONS) {
        eprintln!(
            "perf_baseline: Global-routed cohmeleon differs from the bare agent — refusing to record"
        );
        return ExitCode::FAILURE;
    }
    let mut dispatch_wall = f64::MAX;
    let mut dispatch_decides = 0u64;
    for _ in 0..args.reps {
        let (wall, decides) = run_router_dispatch();
        dispatch_wall = dispatch_wall.min(wall);
        dispatch_decides = decides;
    }
    let current_dispatch = format!(
        "{{\"decides\": {dispatch_decides}, \"instances\": {DISPATCH_INSTANCES}, \
         \"wall_s\": {dispatch_wall:.6}, \"decides_per_s\": {:.0}, \"cpus\": {}}}",
        dispatch_decides as f64 / dispatch_wall,
        cpus()
    );
    println!(
        "  router_dispatch: {dispatch_decides} decide/observe rounds over \
         {DISPATCH_INSTANCES} per-instance agents: {dispatch_wall:.3} s → {:.0} decides/s",
        dispatch_decides as f64 / dispatch_wall
    );

    // Serve dispatch: a real loopback server under concurrent batched
    // clients, every response verified against local frozen dispatch
    // before any number is recorded. Latency is batch round-trip time
    // from the client side (log-bucket histogram).
    let mut serve_best: Option<LoadReport> = None;
    for _ in 0..args.reps {
        match run_serve_dispatch(SERVE_BATCHES) {
            Ok(r) if r.mismatches == 0 && r.unverified == 0 => {
                if serve_best
                    .as_ref()
                    .is_none_or(|b| r.elapsed < b.elapsed)
                {
                    serve_best = Some(r);
                }
            }
            Ok(r) => {
                eprintln!(
                    "perf_baseline: serve dispatch diverged from local frozen dispatch \
                     ({} mismatches, {} unverified) — refusing to record",
                    r.mismatches, r.unverified
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perf_baseline: serve run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let serve = serve_best.expect("at least one serve rep");
    let current_serve = format!(
        "{{\"decisions\": {}, \"clients\": {SERVE_CLIENTS}, \"batch\": {SERVE_BATCH}, \
         \"wall_s\": {:.6}, \"decisions_per_s\": {:.0}, \"batch_p50_ns\": {}, \
         \"batch_p99_ns\": {}, \"batch_p999_ns\": {}, \"cpus\": {}}}",
        serve.decisions,
        serve.elapsed.as_secs_f64(),
        serve.throughput(),
        serve.histogram.p50(),
        serve.histogram.p99(),
        serve.histogram.p999(),
        cpus()
    );
    println!(
        "  serve_dispatch: {} decisions over {SERVE_CLIENTS} loopback clients × {SERVE_BATCH}-query \
         batches: {:.3} s → {:.0} decisions/s, batch RTT p50 {}ns p99 {}ns (all verified)",
        serve.decisions,
        serve.elapsed.as_secs_f64(),
        serve.throughput(),
        serve.histogram.p50(),
        serve.histogram.p99()
    );

    let previous = std::fs::read_to_string(args.out()).ok();
    // The first "baseline" object in the file is the top-level soc1 one
    // (soc6_scale is written after it).
    let baseline = previous
        .as_deref()
        .and_then(|json| extract_object(json, "baseline"))
        .map(str::to_owned)
        .unwrap_or_else(|| current.clone());
    let baseline6 = previous
        .as_deref()
        .and_then(|json| extract_object(json, "soc6_scale"))
        .and_then(|sect| extract_object(sect, "baseline"))
        .map(str::to_owned)
        .unwrap_or_else(|| current6.clone());
    let baseline_dispatch = previous
        .as_deref()
        .and_then(|json| extract_object(json, "router_dispatch"))
        .and_then(|sect| extract_object(sect, "baseline"))
        .map(str::to_owned)
        .unwrap_or_else(|| current_dispatch.clone());
    // The sweep sections follow the same preserve-baseline-on-rerun scheme
    // as `router_dispatch`: the first recorded measurement sticks, later
    // runs only refresh `current`. Files written by older versions kept a
    // single flat object per sweep section — those carry no baseline, so
    // the current run seeds it.
    let baseline_sweep = previous
        .as_deref()
        .and_then(|json| extract_object(json, "sweep_executor"))
        .and_then(|sect| extract_object(sect, "baseline"))
        .map(str::to_owned)
        .unwrap_or_else(|| current_sweep.clone());
    let baseline_fleet = previous
        .as_deref()
        .and_then(|json| extract_object(json, "fleet_dispatch"))
        .and_then(|sect| extract_object(sect, "baseline"))
        .map(str::to_owned)
        .unwrap_or_else(|| current_fleet.clone());
    let baseline_serve = previous
        .as_deref()
        .and_then(|json| extract_object(json, "serve_dispatch"))
        .and_then(|sect| extract_object(sect, "baseline"))
        .map(str::to_owned)
        .unwrap_or_else(|| current_serve.clone());
    let baseline_walk = previous
        .as_deref()
        .and_then(|json| extract_object(json, "tag_walk"))
        .and_then(|sect| extract_object(sect, "baseline"))
        .map(str::to_owned)
        .unwrap_or_else(|| current_walk.clone());

    let report = format!(
        "{{\n  \"suite\": \"soc1 x quick x [fixed-non-coh-dma, manual, cohmeleon]\",\n  \
         \"baseline\": {baseline},\n  \"current\": {current},\n  \
         \"soc6_scale\": {{\n    \
         \"suite\": \"soc6 x large/extra-large x [fixed-non-coh-dma, manual, cohmeleon]\",\n    \
         \"baseline\": {baseline6},\n    \"current\": {current6}\n  }},\n  \
         \"sweep_executor\": {{\n    \
         \"suite\": \"soc1 x quick x 3 policies x 4 seeds, Serial vs WorkStealing\",\n    \
         \"baseline\": {baseline_sweep},\n    \"current\": {current_sweep}\n  }},\n  \
         \"fleet_dispatch\": {{\n    \
         \"suite\": \"same grid, in-process queen + 1 loopback worker vs direct Serial (protocol + validation + fsync overhead)\",\n    \
         \"baseline\": {baseline_fleet},\n    \"current\": {current_fleet}\n  }},\n  \
         \"router_dispatch\": {{\n    \
         \"suite\": \"per-instance router, fixed sub-agents, decide+observe (alloc-free pin: core router_alloc test)\",\n    \
         \"baseline\": {baseline_dispatch},\n    \"current\": {current_dispatch}\n  }},\n  \
         \"serve_dispatch\": {{\n    \
         \"suite\": \"loopback decision server, 2 clients x 16-query batches, every response verified vs local frozen dispatch\",\n    \
         \"baseline\": {baseline_serve},\n    \"current\": {current_serve}\n  }},\n  \
         \"tag_walk\": {{\n    \
         \"suite\": \"soc6-scale suite, Run vs PerLine walk mode, deterministic tag-array op counts (hashes verified identical)\",\n    \
         \"baseline\": {baseline_walk},\n    \"current\": {current_walk}\n  }}\n}}\n"
    );
    if let Err(e) = std::fs::write(args.out(), &report) {
        eprintln!("perf_baseline: cannot write {}: {e}", args.out());
        return ExitCode::FAILURE;
    }

    for (label, baseline_json, wall, evs) in [
        ("soc1×quick", baseline.as_str(), wall_s, events),
        ("soc6×large", baseline6.as_str(), wall6, events6),
    ] {
        if let Some(b) = extract_field(baseline_json, "wall_s") {
            println!(
                "perf_baseline: {label} {wall:.3} s wall ({:.0} events/s); \
                 baseline {b:.3} s → speedup {:.2}x",
                evs as f64 / wall,
                b / wall
            );
        }
    }
    println!("perf_baseline: wrote {}", args.out());
    ExitCode::SUCCESS
}
