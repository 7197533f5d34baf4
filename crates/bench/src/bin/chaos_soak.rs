//! `chaos_soak` — M seeded fault schedules against the fleet and the
//! serve runtime, each asserting the paper-grade invariants hold under
//! network adversity.
//!
//! ```text
//! chaos_soak [--seeds N] [--base-seed S] [--log-dir DIR]
//! ```
//!
//! Per seed, two legs run over loopback:
//!
//! * **fleet** — a chaos-wrapped queen is capped ("killed") halfway,
//!   resumed, and driven to completion by chaos-wrapped workers that are
//!   respawned as injected resets kill them. The finalized checkpoint
//!   must be **byte-identical** to a clean `Serial` run — which also
//!   proves the queen's checkpoint never double-committed a cell (a double
//!   commit would be a duplicated line).
//! * **serve** — a chaos-wrapped server and chaos-wrapped verifying
//!   load-generator clients, with a snapshot hot-swap mid-run. Every
//!   response (including replies to chaos-duplicated `DECIDE` lines)
//!   must verify against the snapshot of the version it claims: faults
//!   may cost connections, **never correctness** (`mismatches == 0`,
//!   `unverified == 0`, every batch eventually answered).
//!
//! A failing seed writes its full fault log — every injected fault with
//! its `(seed, conn, op)` replay coordinate — to `--log-dir`, and the
//! process exits non-zero. `COHMELEON_FAST=1` does not change anything
//! here (the grids are already minimal); the flag is accepted in the
//! environment for CI symmetry. Chaos runs are excluded from the
//! tracked performance baselines — see docs/PERFORMANCE.md.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use cohmeleon_chaos::FaultPlan;
use cohmeleon_core::FrozenSnapshot;
use cohmeleon_exp::{canonical_jsonl, Experiment, PolicyKind, Serial, SweepGrid};
use cohmeleon_fleet::{run_queen, run_worker, QueenOptions, WorkerOptions};
use cohmeleon_serve::{run_load, run_server, LoadOptions, ServeClient, ServeOptions, SwapPlan};
use cohmeleon_soc::config::soc1;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

const STATES: usize = 27;

/// The small grid both fleet legs sweep: cheap cells, but enough of them
/// that leases, re-leases and the capped-queen resume all happen.
fn soak_grid() -> SweepGrid {
    let config = soc1();
    let params = GeneratorParams {
        phases: 1,
        ..GeneratorParams::quick()
    };
    let app = generate_app(&config, &params, 1);
    Experiment::evaluate(config, app)
        .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
        .seeds([1, 2, 3])
        .build()
        .expect("soak grid builds")
}

/// Runs one queen to completion or its cap, respawning chaos-wrapped
/// workers as faults kill them. Returns an error instead of hanging if
/// the fleet stops making progress.
fn drive_fleet(
    grid: &SweepGrid,
    path: &Path,
    plan: &FaultPlan,
    max_cells: usize,
) -> Result<cohmeleon_fleet::QueenReport, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("addr: {e}"))?
        .to_string();
    let options = QueenOptions {
        ttl: Duration::from_millis(250),
        chunk: Some(2),
        max_cells,
        chaos: Some(plan.clone()),
        ..QueenOptions::new("soak-grid", false)
    };
    let resolver = |name: &str, _fast: bool| {
        if name == "soak-grid" {
            Ok(grid.clone())
        } else {
            Err(format!("unknown grid `{name}`"))
        }
    };
    std::thread::scope(|scope| {
        let queen = scope.spawn(|| run_queen(grid, listener, path, &options));
        let mut spawns = 0;
        while !queen.is_finished() {
            spawns += 1;
            if spawns > 200 {
                return Err("fleet made no progress in 200 worker spawns".to_string());
            }
            let worker_options = WorkerOptions {
                connect_retry: Duration::from_millis(500),
                chaos: Some(plan.clone()),
                ..WorkerOptions::new(format!("soak-w{spawns}"))
            };
            let addr = addr.clone();
            let handle = scope.spawn(move || run_worker(&addr, resolver, &worker_options));
            // Workers dying to injected resets is expected; respawn.
            let _ = handle.join().expect("worker thread");
        }
        queen
            .join()
            .expect("queen thread")
            .map_err(|e| format!("queen: {e}"))
    })
}

/// One fleet schedule: kill the queen halfway, resume, finish, compare
/// bytes against a clean serial run.
fn fleet_leg(seed: u64, grid: &SweepGrid, clean: &str) -> Result<FaultPlan, (FaultPlan, String)> {
    let plan = FaultPlan::new(seed);
    let path = std::env::temp_dir().join(format!(
        "cohmeleon-chaos-soak-fleet-{}-{seed}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let half = (grid.num_cells() / 2).max(1);
    let result = (|| {
        let first = drive_fleet(grid, &path, &plan, half)?;
        if first.complete {
            return Err(format!("queen ignored its --max-cells {half} cap"));
        }
        let second = drive_fleet(grid, &path, &plan, usize::MAX)?;
        if !second.complete {
            return Err("resumed queen did not complete".to_string());
        }
        let bytes = std::fs::read_to_string(&path).map_err(|e| format!("read checkpoint: {e}"))?;
        if bytes != clean {
            return Err(format!(
                "checkpoint differs from clean serial run ({} vs {} bytes)",
                bytes.len(),
                clean.len()
            ));
        }
        Ok(())
    })();
    let _ = std::fs::remove_file(&path);
    match result {
        Ok(()) => Ok(plan),
        Err(why) => Err((plan, why)),
    }
}

/// A deterministic synthetic q-table whose argmax landscape depends on
/// `salt` (same construction as the serve integration tests).
fn synthetic_snapshot_text(salt: usize) -> String {
    let mut text = String::from("# chaos-soak synthetic table\n# cohmeleon q-table v1\n");
    for s in 0..STATES {
        let v = |a: usize| ((s * 31 + a * 7 + salt) % 13) as f64 - 6.0;
        text.push_str(&format!("{s}\t{}\t{}\t{}\t{}\n", v(0), v(1), v(2), v(3)));
    }
    text
}

/// One serve schedule: chaos server + chaos verifying clients + mid-run
/// hot swap. Faults may cost connections, never a wrong answer.
fn serve_leg(seed: u64) -> Result<FaultPlan, (FaultPlan, String)> {
    let plan = FaultPlan::new(seed);
    let text_a = synthetic_snapshot_text(0);
    let text_b = synthetic_snapshot_text(5);
    let snap_a = FrozenSnapshot::parse(&text_a, STATES).expect("snapshot A parses");
    let snap_b = FrozenSnapshot::parse(&text_b, STATES).expect("snapshot B parses");
    let path_b = std::env::temp_dir().join(format!(
        "cohmeleon-chaos-soak-serve-{}-{seed}.tsv",
        std::process::id()
    ));
    std::fs::write(&path_b, &text_b).expect("write snapshot B");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server_options = ServeOptions {
        chaos: Some(plan.clone()),
    };
    // A lost SWAP reply makes the client retry a swap the server already
    // applied, so versions can run past 2: pad the verify list with
    // clones of B (every retry re-installs the same table) up to the
    // per-client consecutive-failure cap.
    let mut verify = vec![snap_a.clone()];
    verify.extend(std::iter::repeat_n(snap_b, 66));
    let load_options = LoadOptions {
        clients: 3,
        batches: 40,
        batch_size: 8,
        seed,
        swap: Some(SwapPlan {
            path: path_b.to_string_lossy().into_owned(),
            after_batches: 10,
        }),
        verify,
        chaos: Some(plan.clone()),
        ..LoadOptions::default()
    };

    let result = std::thread::scope(|scope| {
        let server = scope.spawn(|| run_server(listener, snap_a, &server_options));
        let load = run_load(&addr, &load_options).map_err(|e| format!("load: {e}"))?;

        // Shut the server down. Its side of this connection is chaos-
        // wrapped too, so retry until the shutdown lands (once SHUTDOWN
        // is parsed the flag is set even if the BYE reply is lost).
        let mut attempts = 0;
        while !server.is_finished() {
            attempts += 1;
            if attempts > 100 {
                return Err("server ignored 100 shutdown attempts".to_string());
            }
            let _ = ServeClient::connect(&addr, "soak-shutdown").and_then(|c| c.shutdown());
            std::thread::sleep(Duration::from_millis(10));
        }
        let report = server
            .join()
            .expect("server thread")
            .map_err(|e| format!("server: {e}"))?;

        if load.mismatches != 0 {
            return Err(format!(
                "{} responses disagreed with the claimed version's table",
                load.mismatches
            ));
        }
        if load.unverified != 0 {
            return Err(format!(
                "{} responses claimed an unknown version",
                load.unverified
            ));
        }
        let expected = (load_options.clients * load_options.batches) as u64;
        if load.batches != expected {
            return Err(format!(
                "only {} of {expected} batches were answered",
                load.batches
            ));
        }
        if report.swaps == 0 {
            return Err("the hot swap never landed".to_string());
        }
        Ok(())
    });
    let _ = std::fs::remove_file(&path_b);
    match result {
        Ok(()) => Ok(plan),
        Err(why) => Err((plan, why)),
    }
}

fn main() -> ExitCode {
    let mut seeds = 8u64;
    let mut base_seed = 1u64;
    let mut log_dir = PathBuf::from("chaos-logs");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let parse = |name: &str, value: Option<&String>| -> Result<u64, String> {
            value
                .ok_or(format!("{name} needs a value"))?
                .parse()
                .map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--seeds" => match parse("--seeds", it.next()) {
                Ok(n) => seeds = n,
                Err(e) => {
                    eprintln!("chaos_soak: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--base-seed" => match parse("--base-seed", it.next()) {
                Ok(n) => base_seed = n,
                Err(e) => {
                    eprintln!("chaos_soak: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--log-dir" => match it.next() {
                Some(dir) => log_dir = PathBuf::from(dir),
                None => {
                    eprintln!("chaos_soak: --log-dir needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "chaos_soak: unknown argument `{other}`\nusage: chaos_soak [--seeds N] [--base-seed S] [--log-dir DIR]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let grid = soak_grid();
    let clean = canonical_jsonl(&grid.collect_records(&Serial));
    println!(
        "chaos_soak: {seeds} seed(s) from {base_seed}; fleet grid has {} cells",
        grid.num_cells()
    );

    let mut failures = 0u64;
    for i in 0..seeds {
        let seed = base_seed + i;
        match fleet_leg(seed, &grid, &clean) {
            Ok(plan) => println!(
                "chaos_soak: seed {seed} fleet  ok ({} faults injected)",
                plan.fault_count()
            ),
            Err((plan, why)) => {
                failures += 1;
                eprintln!("chaos_soak: seed {seed} fleet  FAILED: {why}");
                write_fault_log(&log_dir, "fleet", seed, &plan);
            }
        }
        match serve_leg(seed) {
            Ok(plan) => println!(
                "chaos_soak: seed {seed} serve  ok ({} faults injected)",
                plan.fault_count()
            ),
            Err((plan, why)) => {
                failures += 1;
                eprintln!("chaos_soak: seed {seed} serve  FAILED: {why}");
                write_fault_log(&log_dir, "serve", seed, &plan);
            }
        }
    }

    if failures > 0 {
        eprintln!(
            "chaos_soak: {failures} schedule(s) failed; fault logs in {}",
            log_dir.display()
        );
        return ExitCode::FAILURE;
    }
    println!("chaos_soak: all {seeds} seed(s) clean on both legs");
    ExitCode::SUCCESS
}

/// Writes a failing schedule's full fault log for replay (`--chaos-seed
/// <seed>` reproduces it exactly).
fn write_fault_log(dir: &Path, leg: &str, seed: u64, plan: &FaultPlan) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("chaos_soak: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("chaos-{leg}-seed-{seed}.log"));
    if let Err(e) = std::fs::write(&path, plan.render_log()) {
        eprintln!("chaos_soak: cannot write {}: {e}", path.display());
    } else {
        eprintln!("chaos_soak: fault log → {}", path.display());
    }
}
